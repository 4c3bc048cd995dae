//! The pipeline's headline invariant: the report is independent of the
//! worker count. `--jobs 1`, `2` and `8` must produce *byte-identical*
//! canonical reports, the per-unit skeleton must not depend on its worker
//! count, and the staged per-procedure schedule must agree exactly with the
//! sequential single-unit analyzer it decomposes.

use sga_core::budget::Budget;
use sga_core::depstore::DepBackend;
use sga_core::interval::{self, AnalyzeOptions, Engine};
use sga_core::skeleton::Skeleton;
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::{checker, validate};
use sga_ir::Program;
use sga_pipeline::{analyze_unit, load_project, run, PipelineOptions, Project};
use sga_utils::stats::StageTimers;

fn corpus() -> Project {
    Project::Corpus {
        units: 3,
        kloc: 1,
        seed: 7,
    }
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    let render = |jobs: usize| {
        let opts = PipelineOptions {
            jobs,
            canonical: true,
            ..PipelineOptions::default()
        };
        run(&corpus(), &opts).expect("pipeline run").to_pretty()
    };
    let sequential = render(1);
    assert!(sequential.contains("\"fingerprint\""));
    for jobs in [2, 8] {
        let parallel = render(jobs);
        assert_eq!(sequential, parallel, "jobs=1 vs jobs={jobs} reports differ");
    }
}

/// Everything a skeleton determines, rendered in a canonical order: the
/// location table, every point's D̂/Û sets, the summaries, the dependency
/// triples, the per-procedure segments and the widening points.
fn skeleton_digest(program: &Program, skeleton: &Skeleton) -> Vec<String> {
    let du = &skeleton.frame.du;
    let locs: Vec<_> = (0..du.locs.len() as u32).map(|i| du.locs.loc(i)).collect();
    let mut digest = vec![format!("locs {locs:?}")];
    digest.extend(
        program
            .all_points()
            .filter_map(|cp| du.sets.get(&cp).map(|sets| format!("{cp} {sets:?}"))),
    );
    digest.push(format!(
        "summaries {:?} {:?}",
        du.summary_defs, du.summary_uses
    ));
    let mut triples: Vec<_> = skeleton.deps.iter().collect();
    triples.sort_unstable();
    digest.push(format!("deps {triples:?}"));
    digest.push(format!("segments {:?}", skeleton.segments));
    let mut heads: Vec<_> = skeleton.deps.cycle_nodes.iter().copied().collect();
    heads.sort_unstable();
    digest.push(format!("widening points {heads:?}"));
    digest
}

#[test]
fn staged_schedule_matches_sequential_analyzer() {
    let mut sources: Vec<String> = load_project(&corpus())
        .expect("corpus loads")
        .into_iter()
        .map(|unit| unit.source)
        .collect();
    sources.extend(
        [21u64, 0xFEED].map(|seed| sga_cgen::generate(&sga_cgen::GenConfig::sized(seed, 1))),
    );
    let options = AnalyzeOptions::default();
    let timers = StageTimers::new();
    for (i, source) in sources.iter().enumerate() {
        let program = sga_cfront::parse(source).expect("corpus parses");

        // The skeleton is the same whatever the worker count.
        let skeleton = Skeleton::build(&program, &options, 4, &timers);
        let sequential = Skeleton::build(&program, &options, 1, &timers);
        assert_eq!(
            skeleton_digest(&program, &skeleton),
            skeleton_digest(&program, &sequential),
            "unit {i}: jobs 4 and jobs 1 skeletons differ"
        );

        // The reference: the one-shot sparse analyzer from sga-core.
        let reference = interval::analyze(&program, Engine::Sparse);
        let pre = sga_core::preanalysis::run(&program);
        for mode in [TriageMode::Octagon, TriageMode::Path, TriageMode::Both] {
            let (staged, result) = analyze_unit(&program, &skeleton, mode, &options, &timers);
            assert_eq!(staged.iterations, reference.stats.iterations);
            assert_eq!(staged.num_locs, reference.stats.num_locs);
            assert_eq!(staged.dep_edges, reference.stats.dep_edges);
            assert_eq!(staged.dep_edges_raw, reference.stats.dep_edges_raw);
            assert_eq!(
                result.values, reference.values,
                "unit {i}: fixpoints differ"
            );

            // The reference diagnostics: same checkers, same triage, over
            // the one-shot result with its own pre-analysis — the staged
            // schedule must reproduce them exactly, fingerprints, triage
            // verdicts and all.
            let mut reference_diags = checker::check_all(&program, &reference, &pre);
            triage::discharge(
                &program,
                &pre,
                &reference,
                &mut reference_diags,
                &TriageOptions {
                    budget: triage::derived_budget(
                        reference.stats.iterations,
                        &Budget::unbounded(),
                    ),
                    mode,
                    ..TriageOptions::default()
                },
            );
            assert_eq!(staged.diags, reference_diags, "unit {i}, {mode:?}");
        }

        // The oracle on the borrowed skeleton sees what a self-contained
        // validation sees (one unit: the oracle re-solves both domains).
        if i == 0 {
            let (_, result) =
                analyze_unit(&program, &skeleton, TriageMode::Path, &options, &timers);
            assert_eq!(
                format!(
                    "{:?}",
                    validate::validate_unit(&program, &skeleton, &result, options)
                ),
                format!("{:?}", validate::validate_program(&program, options)),
                "validation differs on the borrowed skeleton"
            );
        }
    }
}

/// Runs against the same cache directory with each backend in turn: the
/// second run must score zero hits (its key differs), yet the canonical
/// per-unit objects must still agree byte-for-byte.
#[test]
fn no_cross_backend_cache_hits() {
    let dir = std::env::temp_dir().join(format!("sga-backend-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let render = |backend| {
        let opts = PipelineOptions {
            canonical: true,
            cache_dir: Some(dir.clone()),
            dep_backend: backend,
            ..PipelineOptions::default()
        };
        run(&corpus(), &opts).expect("pipeline run")
    };
    let over_csr = render(DepBackend::Csr);
    let over_bdd = render(DepBackend::Bdd);
    let _ = std::fs::remove_dir_all(&dir);

    let hits = over_bdd
        .get("totals")
        .and_then(|t| t.get("cache_hits"))
        .and_then(|h| h.as_u64())
        .expect("cache_hits");
    assert_eq!(hits, 0, "bdd run served entries the csr run stored");
    assert_eq!(
        over_csr.get("units").expect("units").to_pretty(),
        over_bdd.get("units").expect("units").to_pretty(),
        "backends disagree on the canonical per-unit reports"
    );
}
