//! Regenerates **Table 1**: benchmark characteristics.
//!
//! ```sh
//! cargo run --release -p sga-bench --bin table1
//! ```
//!
//! Columns mirror the paper: LOC, Functions, Statements, Blocks, maxSCC,
//! AbsLocs (abstract locations created by the interval analysis). Paper
//! LOC/maxSCC are shown alongside for provenance; generated programs are
//! scaled 1:40.

use sga::analysis::interval::AnalyzeOptions;
use sga::analysis::skeleton::Frame;
use sga::ir::metrics::ProgramMetrics;
use sga::utils::stats::StageTimers;
use sga_bench::table1_rows;

fn main() {
    println!(
        "{:<18} {:>9} {:>8} {:>6} {:>11} {:>8} {:>7} {:>8} {:>9} {:>8}",
        "Program",
        "paperKLOC",
        "LOC",
        "Funcs",
        "Statements",
        "Blocks",
        "maxSCC",
        "(paper)",
        "AbsLocs",
        "parse_ms"
    );
    for row in table1_rows() {
        let start = std::time::Instant::now();
        let src = sga::cgen::generate(&row.config);
        let loc = src.lines().count();
        let program = sga::frontend::parse(&src).expect("generated source parses");
        let parse_ms = start.elapsed().as_millis();
        let Frame { pre, du, .. } =
            Frame::build(&program, &AnalyzeOptions::default(), 1, &StageTimers::new());
        let metrics = ProgramMetrics::measure(&program, &pre.callgraph);
        println!(
            "{:<18} {:>9} {:>8} {:>6} {:>11} {:>8} {:>7} {:>8} {:>9} {:>8}",
            row.name,
            row.paper_kloc,
            loc,
            metrics.functions,
            metrics.statements,
            metrics.blocks,
            metrics.max_scc,
            row.paper_max_scc,
            du.locs.len(),
            parse_ms,
        );
    }
}
