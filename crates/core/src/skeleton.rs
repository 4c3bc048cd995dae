//! The per-unit analysis skeleton: the framework's chain pre-analysis →
//! D̂/Û → dependency generation (§2.8–§3), built once per unit and borrowed
//! by every analysis that runs on it.
//!
//! A [`Frame`] holds the instance-independent part: the pre-analysis, the
//! ICFG, the interval instance's D̂/Û and the widening plan. A [`Skeleton`]
//! adds the interval dependencies and their per-procedure segments. The
//! interval sparse solve reads the whole skeleton; the octagon instance of
//! §4 reads only the frame (it derives its pack-level D̂/Û from the borrowed
//! one and generates its own dependencies), and so do the dense engines.
//!
//! Building is staged per procedure on [`sga_utils::par`]'s scheduler, the
//! only one in the workspace:
//!
//! * def/use pass 1 ([`defuse::real_sets_for_proc`]) and pass 3
//!   ([`defuse::relay_sets_for_proc`]) are independent per procedure;
//! * pass 2 ([`defuse::summarize_scc`]) runs bottom-up by call-graph SCC
//!   level ([`sga_ir::callgraph::CallGraph::scc_levels`]);
//! * dependency segments ([`depgen::proc_dep_edges`]) are independent per
//!   procedure, then [`depgen::assemble`] links and contracts them.
//!
//! Every stage merges in procedure (or SCC) order, so the skeleton is
//! identical for any worker count. The sequential drivers
//! ([`defuse::compute`], [`depgen::generate`]) are the same stages at one
//! job.

use crate::defuse::{self, DefUse};
use crate::depgen::{self, DataDeps, DepEdge, DepSource, IntervalDepSource};
use crate::icfg::Icfg;
use crate::interval::AnalyzeOptions;
use crate::preanalysis::{self, PreAnalysis};
use crate::widening::WideningPlan;
use sga_domains::State;
use sga_ir::{ProcId, Program};
use sga_utils::stats::StageTimers;
use sga_utils::{par, FxHashMap, Idx, IndexVec};

/// What every analysis instance borrows from a unit's skeleton.
pub struct Frame {
    /// The flow-insensitive pre-analysis (call targets, points-to).
    pub pre: PreAnalysis,
    /// The interprocedural CFG.
    pub icfg: Icfg,
    /// The interval instance's D̂/Û, with the interned location table.
    pub du: DefUse,
    /// The widening plan resolved against the program.
    pub plan: WideningPlan,
}

/// A unit's full skeleton: the [`Frame`] plus the interval dependencies.
pub struct Skeleton {
    /// The instance-independent part.
    pub frame: Frame,
    /// The interval dependencies the sparse solver propagates along.
    pub deps: DataDeps,
    /// Per-procedure dependency segments (procedure order), as the batch
    /// driver renders and caches them.
    pub segments: Vec<Vec<DepEdge>>,
}

impl Frame {
    /// Builds a frame with up to `jobs` worker threads, charging the `pre`
    /// (pre-analysis, ICFG, widening plan) and `defuse` stages to `timers`.
    /// `options.semi_sparse` derives D̂/Û from the coarsened pre-analysis
    /// state (§3.2's semi-sparse instance).
    pub fn build(
        program: &Program,
        options: &AnalyzeOptions,
        jobs: usize,
        timers: &StageTimers,
    ) -> Frame {
        let (pre, icfg, plan) = timers.time("pre", || {
            let pre = preanalysis::run(program);
            let icfg = Icfg::build(program, &pre);
            (
                pre,
                icfg,
                WideningPlan::for_program(program, options.widening),
            )
        });
        let du = timers.time("defuse", || {
            if options.semi_sparse {
                let coarse = preanalysis::coarsen_semi_sparse(program, &pre.state);
                def_use(program, &pre, &coarse, jobs)
            } else {
                def_use(program, &pre, &pre.state, jobs)
            }
        });
        Frame {
            pre,
            icfg,
            du,
            plan,
        }
    }
}

impl Skeleton {
    /// Builds a unit's skeleton: the [`Frame`], then the interval
    /// dependencies (stage `dep`).
    pub fn build(
        program: &Program,
        options: &AnalyzeOptions,
        jobs: usize,
        timers: &StageTimers,
    ) -> Skeleton {
        let frame = Frame::build(program, options, jobs, timers);
        let (deps, segments) = timers.time("dep", || {
            let source = IntervalDepSource::new(program, &frame.pre, &frame.du);
            let segments = dep_segments(program, &source, jobs);
            (
                depgen::assemble(&source, options.depgen, segments.clone()),
                segments,
            )
        });
        Skeleton {
            frame,
            deps,
            segments,
        }
    }
}

/// D̂/Û from the pre-analysis state `t`, staged on up to `jobs` threads.
pub(crate) fn def_use(program: &Program, pre: &PreAnalysis, t: &State, jobs: usize) -> DefUse {
    let pids: Vec<ProcId> = program.procs.indices().collect();

    // Pass 1: real def/use sets, independent per procedure.
    let mut sets = FxHashMap::default();
    for part in par::run_indexed(jobs, &pids, |_, &pid| {
        defuse::real_sets_for_proc(program, pre, t, pid)
    }) {
        sets.extend(part);
    }

    // Pass 2: callee-access summaries, bottom-up over the SCC condensation;
    // SCCs at the same level run concurrently.
    let sccs = pre.callgraph.bottom_up_sccs();
    let nprocs = program.procs.len();
    let mut summary_defs: IndexVec<ProcId, Vec<_>> = IndexVec::from_elem_n(Vec::new(), nprocs);
    let mut summary_uses: IndexVec<ProcId, Vec<_>> = IndexVec::from_elem_n(Vec::new(), nprocs);
    for lvl in pre.callgraph.scc_levels() {
        let summaries = par::run_indexed(jobs, &lvl, |_, &ci| {
            defuse::summarize_scc(program, pre, &sets, &sccs[ci], &summary_defs, &summary_uses)
        });
        for (&ci, (defs, uses)) in lvl.iter().zip(summaries) {
            for &praw in &sccs[ci] {
                summary_defs[ProcId::new(praw)] = defs.clone();
                summary_uses[ProcId::new(praw)] = uses.clone();
            }
        }
    }

    // Pass 3: full D̂/Û sets, independent per procedure; merged in procedure
    // order so location interning is deterministic.
    let parts = par::run_indexed(jobs, &pids, |_, &pid| {
        defuse::relay_sets_for_proc(program, pre, pid, &sets, &summary_defs, &summary_uses)
    });
    defuse::finish(sets, summary_defs, summary_uses, parts)
}

/// The per-procedure dependency segments of any [`DepSource`], in
/// procedure order, staged on up to `jobs` threads; [`depgen::assemble`]
/// builds the dependency graph from them.
pub(crate) fn dep_segments<S: DepSource + Sync>(
    program: &Program,
    source: &S,
    jobs: usize,
) -> Vec<Vec<DepEdge>> {
    let pids: Vec<ProcId> = program.procs.indices().collect();
    par::run_indexed(jobs, &pids, |_, &pid| {
        depgen::proc_dep_edges(program, source, pid)
    })
}
