//! Per-unit analysis on the unit's borrowed [`Skeleton`]: the sparse
//! interval fixpoint, the checkers, triage, and the artifacts the driver
//! caches.
//!
//! The skeleton itself (pre-analysis, ICFG, D̂/Û, dependencies, widening
//! plan) is built by [`Skeleton::build`], which schedules the
//! per-procedure stages on up to `jobs` worker threads and merges them in
//! procedure order, so the outcome is bit-identical for any worker count.
//! The sparse fixpoint itself is sequential (a chaotic-iteration solver over
//! one shared worklist), as are the checkers.

use sga_core::checker;
use sga_core::interface::{self, UnitInterface};
use sga_core::interval::{self, AnalyzeOptions, Engine, IntervalResult};
use sga_core::skeleton::Skeleton;
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_diag::Diagnostic;
use sga_domains::State;
use sga_ir::{Cp, Program};
use sga_utils::stats::StageTimers;
use sga_utils::{fxhash, FxHashMap, Idx};

/// Cached (and cacheable) artifacts of one procedure: its callee-access
/// summary and its intraprocedural dependency segment.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcArtifact {
    /// Procedure name.
    pub name: String,
    /// Exported (caller-visible) definitions, rendered.
    pub summary_defs: Vec<String>,
    /// Exported uses, rendered.
    pub summary_uses: Vec<String>,
    /// Dependency segment rows `[loc, from_proc, from_node, to_proc,
    /// to_node, is_return]`.
    pub dep_segment: Vec<[u64; 6]>,
}

/// Everything the driver keeps about one analyzed unit.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitAnalysis {
    /// Per-procedure artifacts, in procedure order (externals skipped).
    pub procs: Vec<ProcArtifact>,
    /// The unit's link boundary: exported per-function interfaces and
    /// imported external symbols with their reverse dependents — the
    /// incremental daemon's invalidation substrate.
    pub interface: UnitInterface,
    /// Structured diagnostics in canonical order: all four checkers, with
    /// content fingerprints assigned and the octagon triage verdicts
    /// applied.
    pub diags: Vec<Diagnostic>,
    /// Whether the triage octagon run degraded under its budget (triage
    /// then discharges less; the unit's own `degraded` flag is separate).
    pub triage_degraded: bool,
    /// Order-independent hash of every (point, location, value) binding.
    pub fingerprint: u64,
    /// Ascending-phase node evaluations.
    pub iterations: usize,
    /// Interned abstract locations.
    pub num_locs: usize,
    /// Dependency edges before the bypass contraction.
    pub dep_edges_raw: usize,
    /// Dependency edges the solver actually propagates along.
    pub dep_edges: usize,
    /// Whether the fixpoint ran out of its analysis budget and finished in
    /// degraded (sound but less precise) mode.
    pub degraded: bool,
}

/// Analyzes one parsed unit on its skeleton: the sparse interval fixpoint
/// (stage `fix`), the checkers (`check`) and triage (`triage`), whose
/// octagon layer borrows the skeleton's frame. Returns the report-facing
/// analysis and the interval result it came from (the validation oracle
/// re-checks that result against the same skeleton).
pub fn analyze_unit(
    program: &Program,
    skeleton: &Skeleton,
    triage_mode: TriageMode,
    options: &AnalyzeOptions,
    timers: &StageTimers,
) -> (UnitAnalysis, IntervalResult) {
    let frame = &skeleton.frame;
    let result = timers.time("fix", || {
        interval::analyze_on(program, skeleton, Engine::Sparse, options)
    });
    let iterations = result.stats.iterations;

    // The result outlives the check stage: the path-condition triage layer
    // evaluates dominating guards against the same fixpoint the alarms came
    // from (and its `degraded` flag gates that layer off entirely).
    let (mut diags, fingerprint) = timers.time("check", || {
        (
            checker::check_all(program, &result, &frame.pre),
            fingerprint_values(&result.values),
        )
    });

    let triage_degraded = timers.time("triage", || {
        let topts = TriageOptions {
            engine: Engine::Sparse,
            depgen: options.depgen,
            dep_backend: options.dep_backend,
            widening: options.widening,
            budget: triage::derived_budget(iterations, &options.budget),
            mode: triage_mode,
        };
        triage::discharge_on(program, frame, &result, &mut diags, &topts).degraded
    });

    let du = &frame.du;
    let procs = program
        .procs
        .iter_enumerated()
        .filter(|(_, proc)| !proc.is_external)
        .map(|(pid, proc)| ProcArtifact {
            name: proc.name.clone(),
            summary_defs: du.summary_defs[pid]
                .iter()
                .map(|l| format!("{l:?}"))
                .collect(),
            summary_uses: du.summary_uses[pid]
                .iter()
                .map(|l| format!("{l:?}"))
                .collect(),
            dep_segment: skeleton.segments[pid.index()]
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

    let analysis = UnitAnalysis {
        procs,
        interface: interface::unit_interface(program, &frame.pre, du),
        diags,
        triage_degraded,
        fingerprint,
        iterations,
        num_locs: du.locs.len(),
        dep_edges_raw: skeleton.deps.stats.raw_edges,
        dep_edges: skeleton.deps.stats.final_edges,
        degraded: result.stats.degraded,
    };
    (analysis, result)
}

/// Order-independent content hash of a value map: every binding rendered to
/// one line, lines sorted, the sorted list hashed.
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
