//! The traced replica of one unit's analysis: the same public layer calls
//! `sga_pipeline::unit::analyze_unit` makes, in the same order, each one
//! inside a span. Every layer runs on the caller's thread (`jobs = 1`);
//! results do not depend on the job count, so the replica's diagnostics,
//! fingerprint and work counters must equal the pipeline's unit entry.

use crate::trace::{SpanId, Trace};
use sga_core::depgen::{self, IntervalDepSource};
use sga_core::icfg::Icfg;
use sga_core::interval::{AnalyzeOptions, Engine, IntervalResult, IntervalSparseSpec};
use sga_core::stats::AnalysisStats;
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::widening::WideningPlan;
use sga_core::{checker, defuse, interface, octagon, preanalysis, sparse};
use sga_domains::State;
use sga_ir::{Cp, ProcId, Program};
use sga_pipeline::{PipelineOptions, ProcArtifact, UnitAnalysis};
use sga_utils::{fxhash, FxHashMap, Idx, IndexVec};

/// Work counters summed over the units the replica analyzed.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub units: usize,
    pub nodes: usize,
    pub defuse_locs: usize,
    pub avg_defs_sum: f64,
    pub avg_uses_sum: f64,
    pub edges_raw: usize,
    pub edges: usize,
    pub iterations: usize,
    pub checker_alarms: usize,
    pub candidates: usize,
    pub octagon_discharged: usize,
    pub path_discharged: usize,
    pub triage_degraded: usize,
    pub oct_pre_ms: f64,
    pub oct_dep_ms: f64,
    pub oct_fix_ms: f64,
    pub oct_packs: usize,
    pub oct_iterations: usize,
    pub oct_dep_edges: usize,
    /// Wall time of the octagon probes, to take out of enclosing spans.
    pub probe_ms: f64,
    /// Counters that failed to repeat.
    pub mismatches: Vec<String>,
}

/// Span names of the analysis layers; their self times are the per-layer
/// split (the octagon probe is extra work outside the replica, not a layer).
pub const LAYER_SPANS: [&str; 9] = [
    "cfront.parse",
    "preanalysis",
    "icfg",
    "defuse",
    "depgen",
    "sparse",
    "checker",
    "triage.octagon",
    "triage.path",
];

/// Bottom-up levels of the call graph's SCC condensation, as
/// `analyze_unit` schedules def/use pass 2.
fn scc_levels(pre: &preanalysis::PreAnalysis) -> Vec<Vec<usize>> {
    let sccs = pre.callgraph.bottom_up_sccs();
    let comp = &pre.callgraph.scc.component;
    let mut level = vec![0usize; sccs.len()];
    for (i, members) in sccs.iter().enumerate() {
        let mut lv = 0usize;
        for &p in members {
            for &q in &pre.callgraph.callees[ProcId::new(p)] {
                let cq = comp[q.index()];
                if cq != i {
                    lv = lv.max(level[cq] + 1);
                }
            }
        }
        level[i] = lv;
    }
    let depth = level.iter().copied().max().map_or(0, |m| m + 1);
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); depth];
    for (i, &lv) in level.iter().enumerate() {
        by_level[lv].push(i);
    }
    by_level
}

/// The pipeline's value fingerprint: every binding rendered to one line,
/// lines sorted, the sorted list hashed.
fn fingerprint_values(values: &FxHashMap<Cp, State>) -> u64 {
    let mut lines: Vec<String> = Vec::new();
    for (cp, state) in values {
        for (l, v) in state.iter() {
            lines.push(format!("{cp} {l:?} = {v:?}"));
        }
    }
    lines.sort_unstable();
    fxhash::hash_one(&lines)
}

/// Analyzes one unit layer by layer under `parent`, adding its counters to
/// `counters`. Returns the frontend error when the unit does not parse.
pub fn analyze_unit(
    trace: &Trace,
    parent: SpanId,
    name: &str,
    source: &str,
    options: &PipelineOptions,
    counters: &mut Counters,
) -> Result<UnitAnalysis, String> {
    let program: Program = trace
        .span(Some(parent), "cfront.parse", name, |_| {
            sga_cfront::parse(source)
        })
        .map_err(|e| e.to_string())?;
    let pids: Vec<ProcId> = program.procs.indices().collect();

    let pre = trace.span(Some(parent), "preanalysis", name, |_| {
        preanalysis::run(&program)
    });
    let icfg = trace.span(Some(parent), "icfg", name, |_| Icfg::build(&program, &pre));

    let du = trace.span(Some(parent), "defuse", name, |_| {
        let mut sets = FxHashMap::default();
        for &pid in &pids {
            sets.extend(defuse::real_sets_for_proc(&program, &pre, &pre.state, pid));
        }
        let sccs = pre.callgraph.bottom_up_sccs();
        let nprocs = program.procs.len();
        let mut summary_defs: IndexVec<ProcId, Vec<_>> = IndexVec::from_elem_n(Vec::new(), nprocs);
        let mut summary_uses: IndexVec<ProcId, Vec<_>> = IndexVec::from_elem_n(Vec::new(), nprocs);
        for lvl in scc_levels(&pre) {
            let summaries: Vec<_> = lvl
                .iter()
                .map(|&ci| {
                    defuse::summarize_scc(
                        &program,
                        &pre,
                        &sets,
                        &sccs[ci],
                        &summary_defs,
                        &summary_uses,
                    )
                })
                .collect();
            for (&ci, (defs, uses)) in lvl.iter().zip(summaries) {
                for &praw in &sccs[ci] {
                    summary_defs[ProcId::new(praw)] = defs.clone();
                    summary_uses[ProcId::new(praw)] = uses.clone();
                }
            }
        }
        let parts = pids
            .iter()
            .map(|&pid| {
                defuse::relay_sets_for_proc(
                    &program,
                    &pre,
                    pid,
                    &sets,
                    &summary_defs,
                    &summary_uses,
                )
            })
            .collect();
        defuse::finish(sets, summary_defs, summary_uses, parts)
    });

    let (deps, segments) = trace.span(Some(parent), "depgen", name, |_| {
        let source = IntervalDepSource::new(&program, &pre, &du);
        let segments: Vec<_> = pids
            .iter()
            .map(|&pid| depgen::proc_dep_edges(&program, &source, pid))
            .collect();
        let deps = depgen::assemble(&source, options.depgen, segments.clone());
        (deps, segments)
    });

    let (values, iterations, degraded) = trace.span(Some(parent), "sparse", name, |_| {
        let spec = IntervalSparseSpec {
            program: &program,
            pre: &pre,
            du: &du,
        };
        let plan = WideningPlan::for_program(&program, options.widening);
        let solved = sparse::solve_backend(
            options.dep_backend,
            &program,
            &icfg,
            &deps,
            &spec,
            &plan,
            &options.budget,
        );
        let values: FxHashMap<Cp, State> = solved
            .values
            .into_iter()
            .map(|(cp, m)| (cp, State::from_pmap(m)))
            .collect();
        (values, solved.iterations, solved.degraded)
    });

    let result = IntervalResult {
        engine: Engine::Sparse,
        values,
        stats: AnalysisStats {
            iterations,
            num_locs: du.locs.len(),
            degraded,
            ..AnalysisStats::default()
        },
    };
    let mut diags = trace.span(Some(parent), "checker", name, |_| {
        checker::check_all(&program, &result, &pre)
    });
    let fingerprint = fingerprint_values(&result.values);
    counters.checker_alarms += diags.len();

    // `TriageMode::Both` is the octagon layer followed by the path layer on
    // whatever it left open; the replica makes the two calls separately so
    // each layer gets its own span.
    let mode = options.triage;
    let topts = |mode| TriageOptions {
        engine: Engine::Sparse,
        depgen: options.depgen,
        dep_backend: options.dep_backend,
        widening: options.widening,
        budget: triage::derived_budget(iterations, &options.budget),
        mode,
    };
    let mut triage_degraded = false;
    if matches!(mode, TriageMode::Octagon | TriageMode::Both) {
        let stats = trace.span(Some(parent), "triage.octagon", name, |_| {
            triage::discharge(
                &program,
                &pre,
                &result,
                &mut diags,
                &topts(TriageMode::Octagon),
            )
        });
        counters.candidates += stats.candidates;
        counters.octagon_discharged += stats.discharged;
        triage_degraded = stats.degraded;
        if stats.octagon_ran {
            // The octagon's own phase split is only visible in the stats of
            // a run of its own: extra work the replica does, not a layer.
            let o = topts(TriageMode::Octagon);
            let run_probe = || {
                trace.span(Some(parent), "octagon.probe", name, |_| {
                    octagon::analyze_with(
                        &program,
                        Engine::Sparse,
                        AnalyzeOptions {
                            depgen: o.depgen,
                            dep_backend: o.dep_backend,
                            semi_sparse: false,
                            widening: o.widening,
                            budget: o.budget,
                        },
                    )
                })
            };
            let probe = std::time::Instant::now();
            let res = run_probe();
            if counters.oct_packs == 0 {
                // The octagon counters must repeat exactly: probe the
                // first unit twice.
                let again = run_probe();
                let key = |r: &octagon::OctagonResult| {
                    (r.stats.iterations, r.stats.num_locs, r.stats.dep_edges)
                };
                if key(&again) != key(&res) {
                    counters
                        .mismatches
                        .push(format!("{name}: octagon counters differ between two runs"));
                }
            }
            counters.probe_ms += probe.elapsed().as_secs_f64() * 1e3;
            counters.oct_pre_ms += res.stats.pre_time.as_secs_f64() * 1e3;
            counters.oct_dep_ms += res.stats.dep_time.as_secs_f64() * 1e3;
            counters.oct_fix_ms += res.stats.fix_time.as_secs_f64() * 1e3;
            counters.oct_packs += res.stats.num_locs;
            counters.oct_iterations += res.stats.iterations;
            counters.oct_dep_edges += res.stats.dep_edges;
        }
    }
    if matches!(mode, TriageMode::Path | TriageMode::Both) {
        let stats = trace.span(Some(parent), "triage.path", name, |_| {
            triage::discharge(
                &program,
                &pre,
                &result,
                &mut diags,
                &topts(TriageMode::Path),
            )
        });
        if mode == TriageMode::Path {
            counters.candidates += stats.candidates;
        }
        counters.path_discharged += stats.discharged_path;
    }

    counters.units += 1;
    counters.nodes += program.procs.iter().map(|p| p.nodes.len()).sum::<usize>();
    counters.defuse_locs += du.locs.len();
    counters.avg_defs_sum += du.avg_def_size();
    counters.avg_uses_sum += du.avg_use_size();
    counters.edges_raw += deps.stats.raw_edges;
    counters.edges += deps.stats.final_edges;
    counters.iterations += iterations;
    counters.triage_degraded += usize::from(triage_degraded);

    let procs = pids
        .iter()
        .filter(|&&pid| !program.procs[pid].is_external)
        .map(|&pid| ProcArtifact {
            name: program.procs[pid].name.clone(),
            summary_defs: du.summary_defs[pid]
                .iter()
                .map(|l| format!("{l:?}"))
                .collect(),
            summary_uses: du.summary_uses[pid]
                .iter()
                .map(|l| format!("{l:?}"))
                .collect(),
            dep_segment: segments[pid.index()]
                .iter()
                .map(|&(loc, from, to, ret)| {
                    [
                        u64::from(loc),
                        from.proc.index() as u64,
                        from.node.index() as u64,
                        to.proc.index() as u64,
                        to.node.index() as u64,
                        u64::from(ret),
                    ]
                })
                .collect(),
        })
        .collect();
    Ok(UnitAnalysis {
        procs,
        interface: interface::unit_interface(&program, &pre, &du),
        diags,
        triage_degraded,
        fingerprint,
        iterations,
        num_locs: du.locs.len(),
        dep_edges_raw: deps.stats.raw_edges,
        dep_edges: deps.stats.final_edges,
        degraded,
    })
}

/// Compares a replica result with the pipeline's rendered unit entry:
/// diagnostics, value fingerprint and the interval work counters.
pub fn matches_entry(a: &UnitAnalysis, entry: &sga_utils::Json) -> Result<(), String> {
    let name = entry
        .get("name")
        .and_then(sga_utils::Json::as_str)
        .unwrap_or("?");
    let diags: Vec<sga_utils::Json> = a.diags.iter().map(|d| d.to_json()).collect();
    let want_diags = entry
        .get("diagnostics")
        .map(sga_utils::Json::to_compact)
        .unwrap_or_default();
    if sga_utils::Json::from(diags).to_compact() != want_diags {
        return Err(format!(
            "{name}: replica diagnostics differ from the pipeline's"
        ));
    }
    let fields = [
        ("fingerprint", format!("{:016x}", a.fingerprint)),
        ("iterations", a.iterations.to_string()),
        ("dep_edges_raw", a.dep_edges_raw.to_string()),
        ("dep_edges", a.dep_edges.to_string()),
        ("locs", a.num_locs.to_string()),
    ];
    for (key, got) in fields {
        let want = match entry.get(key) {
            Some(sga_utils::Json::Str(s)) => s.clone(),
            Some(j) => j.to_compact(),
            None => String::new(),
        };
        if got != want {
            return Err(format!("{name}: replica {key} {got} != pipeline {want}"));
        }
    }
    Ok(())
}
