//! **Ablation A** — BDD vs set-based dependency stores (§5).
//!
//! The paper: for vim60, the set-based store needed > 24 GB where BDDs
//! needed 1 GB, because the dependency relation is highly redundant. This
//! ablation grows a program family, stores each one's dependency relation
//! both ways, and reports estimated bytes plus the BDD's structural sharing
//! (diagram nodes vs stored triples).
//!
//! ```sh
//! cargo run --release -p sga-bench --bin ablation_bdd
//! ```

use sga::analysis::interval::AnalyzeOptions;
use sga::analysis::skeleton::Skeleton;
use sga::bdd::{BddDepStore, DepStore, SetDepStore};
use sga::cgen::GenConfig;
use sga::utils::stats::StageTimers;

fn main() {
    println!(
        "{:>6} {:>9} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "KLOC", "points", "triples", "set_KB", "bdd_KB", "bddNodes", "share"
    );
    for kloc in [1usize, 2, 4, 8] {
        let cfg = GenConfig::sized(0xB_DD + kloc as u64, kloc);
        let src = sga::cgen::generate(&cfg);
        let program = sga::frontend::parse(&src).expect("generated source parses");
        let sk = Skeleton::build(&program, &AnalyzeOptions::default(), 1, &StageTimers::new());
        let numbering = program.point_numbering();

        let mut set = SetDepStore::new();
        let mut bdd = BddDepStore::new(numbering.len() as u32, sk.frame.du.locs.len() as u32);
        for (from, loc, to) in sk.deps.iter() {
            let t = sga::bdd::relation::DepTriple {
                from: numbering.index(from) as u32,
                to: numbering.index(to) as u32,
                loc,
            };
            set.insert(t);
            bdd.insert(t);
        }
        assert_eq!(set.len(), bdd.len(), "stores must agree");
        let share = set.len() as f64 / bdd.diagram_size().max(1) as f64;
        println!(
            "{:>6} {:>9} {:>9} {:>12.1} {:>12.1} {:>9} {:>8.1}x",
            kloc,
            numbering.len(),
            set.len(),
            set.approx_bytes() as f64 / 1024.0,
            bdd.approx_bytes() as f64 / 1024.0,
            bdd.diagram_size(),
            share,
        );
    }
    println!("\nshare = triples per BDD node: the redundancy BDDs exploit (§5).");

    // The paper's regime: vim60's relation spans 2.8M statements with heavy
    // many-def/many-use hubs (201K locations). Reproduce the *pattern* —
    // dense def×use bipartite blocks per location — where structural
    // sharing dominates.
    println!("\nhub-pattern relations (paper's high-redundancy regime):");
    println!(
        "{:>8} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "defs×uses", "triples", "set_KB", "bdd_KB", "bddNodes", "share"
    );
    for (defs, uses) in [(32u32, 32u32), (64, 64), (128, 128), (256, 256)] {
        let mut set = SetDepStore::new();
        let mut bdd = BddDepStore::new(65536, 256);
        for loc in 0..64u32 {
            let base_from = loc * 97 % 4096;
            let base_to = 4096 + loc * 131 % 4096;
            for d in 0..defs {
                for u in 0..uses {
                    let t = sga::bdd::relation::DepTriple {
                        from: base_from + d,
                        to: base_to + u,
                        loc,
                    };
                    set.insert(t);
                    bdd.insert(t);
                }
            }
        }
        let share = set.len() as f64 / bdd.diagram_size().max(1) as f64;
        println!(
            "{:>8} {:>9} {:>12.1} {:>12.1} {:>9} {:>8.1}x",
            format!("{defs}x{uses}"),
            set.len(),
            set.approx_bytes() as f64 / 1024.0,
            bdd.approx_bytes() as f64 / 1024.0,
            bdd.diagram_size(),
            share,
        );
    }
    println!("set grows with the triple count; the BDD grows with the *structure*.");
}
