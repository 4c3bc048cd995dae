//! Alarm triage: discharging interval alarms with the packed relational
//! analysis of §4 (octagon layer) and with dominating-guard path
//! conditions (path layer), selectable via [`TriageMode`].
//!
//! The interval checkers ([`crate::checker`]) over-approximate each
//! variable in isolation, so loop-bounded accesses like
//! `while (i < n) buf[i] = …` (with `buf = malloc(n)`) alarm even though
//! `i < n` always holds at the access. The packed octagon domain *does*
//! track `i − n ≤ −1`, so the octagon pass re-examines every **possible**
//! (open, non-definite) alarm against an octagon run and demotes the ones
//! whose error condition is relationally refuted to
//! [`Status::Discharged`].
//!
//! The path layer ([`crate::pathcond`]) is orthogonal: instead of refuting
//! the error *condition* it refutes the error *point*. For each remaining
//! possible alarm it collects the chain of `assume` guards dominating the
//! alarm (with the branch polarity actually taken) and discharges when
//! the guard conjunction is infeasible under sound interval evaluation —
//! either a single dominating guard can never hold on its own inputs, or
//! the conjunction of write-free ("stable") dominating guards refines
//! some variable to ⊥. Discharges carry the `path_infeasible` method and
//! a proving pack naming the guard chain. Degraded interval results skip
//! the path layer entirely: its queries lean on the fixpoint being a
//! genuine post-fixpoint.
//!
//! # Soundness
//!
//! A discharge always requires a *positive refuting constraint* from a
//! recorded pack — never absence of evidence:
//!
//! * any control point, variable or pack the octagon result does not bind
//!   maps to ⊤ (unknown), which never refutes anything;
//! * the octagon analysis is itself a sound over-approximation, including
//!   under budget degradation — a degraded run only *loses* constraints,
//!   so it discharges fewer alarms, never wrong ones;
//! * `definite` alarms are structurally excluded from triage: the interval
//!   semantics already proved the error, and a sound refinement cannot
//!   contradict it.
//!
//! For buffer overruns the pass additionally verifies, syntactically, that
//! the relational variables it reasons about denote what the alarm is
//! about: the accessed pointer must be a single-assignment `base + index`
//! sum whose base provably holds a fresh block from the alarm's allocation
//! site (a dominating single-write chain down to the `alloc`), and a
//! variable-sized refutation `index − size ≤ −1` is only accepted when the
//! size variable is never written and the procedure makes no calls, so the
//! size at the allocation and at the access are the same activation's
//! value.
//!
//! # Budget
//!
//! The octagon run is gated by a per-unit budget derived from the interval
//! fixpoint's own iteration count ([`derived_budget`]), so triage can
//! never be slower than an unbounded re-analysis; on exhaustion the
//! octagon solver degrades soundly and the pass simply discharges less.

use crate::budget::Budget;
use crate::checker;
use crate::depgen::DepGenOptions;
use crate::depstore::DepBackend;
use crate::interval::{AnalyzeOptions, Engine, IntervalResult};
use crate::octagon::{self, OctagonResult};
use crate::pathcond::{self, DomTree, GuardSite, PathIndex};
use crate::preanalysis::PreAnalysis;
use crate::skeleton::Frame;
use crate::widening::WideningConfig;
use sga_diag::{DiagKind, Diagnostic, DischargeMethod, Evidence, Status};
use sga_domains::interval::Bound;
use sga_domains::{AbsLoc, Interval, Lattice, Octagon, PackId};
use sga_ir::{BinOp, Cmd, Cond, Cp, Expr, LVal, NodeId, Proc, ProcId, Program, VarId};
use sga_utils::{FxHashSet, Idx};

/// Which triage layers run. The octagon layer refutes error conditions
/// relationally; the path layer proves alarm points unreachable from
/// their dominating guards. `Both` runs octagon first, then path on
/// whatever stays open — its discharged set is a superset of either layer
/// alone by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TriageMode {
    /// Octagon layer only (the pre-path behavior).
    Octagon,
    /// Path-condition layer only (no octagon fixpoint).
    Path,
    /// Octagon, then path on the remaining open alarms.
    #[default]
    Both,
}

impl TriageMode {
    /// Stable name, as accepted by `--triage` and recorded in reports.
    pub fn name(self) -> &'static str {
        match self {
            TriageMode::Octagon => "octagon",
            TriageMode::Path => "path",
            TriageMode::Both => "both",
        }
    }

    /// Parses a `--triage` argument.
    pub fn parse(s: &str) -> Option<TriageMode> {
        match s {
            "octagon" => Some(TriageMode::Octagon),
            "path" => Some(TriageMode::Path),
            "both" => Some(TriageMode::Both),
            _ => None,
        }
    }

    fn runs_octagon(self) -> bool {
        matches!(self, TriageMode::Octagon | TriageMode::Both)
    }

    fn runs_path(self) -> bool {
        matches!(self, TriageMode::Path | TriageMode::Both)
    }
}

/// How the triage pass is configured.
#[derive(Clone, Debug)]
pub struct TriageOptions {
    /// Octagon engine (defaults to sparse, like the main analysis).
    pub engine: Engine,
    /// Dependency-generation options for the sparse octagon run.
    pub depgen: DepGenOptions,
    /// Dependency representation for the sparse octagon run.
    pub dep_backend: DepBackend,
    /// Widening strategy for the octagon run.
    pub widening: WideningConfig,
    /// Work budget for the octagon fixpoint (see [`derived_budget`]).
    pub budget: Budget,
    /// Which triage layers run.
    pub mode: TriageMode,
}

impl Default for TriageOptions {
    fn default() -> TriageOptions {
        TriageOptions {
            engine: Engine::Sparse,
            depgen: DepGenOptions::default(),
            dep_backend: DepBackend::default(),
            widening: WideningConfig::default(),
            budget: Budget::unbounded(),
            mode: TriageMode::default(),
        }
    }
}

/// What the triage pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TriageStats {
    /// Open, non-definite alarms examined.
    pub candidates: usize,
    /// Alarms demoted to discharged (all layers).
    pub discharged: usize,
    /// Alarms discharged by the path-condition layer specifically.
    pub discharged_path: usize,
    /// Whether the octagon fixpoint ran at all (skipped when there are no
    /// candidates, or in `--triage path` mode).
    pub octagon_ran: bool,
    /// Whether the octagon fixpoint degraded under its budget.
    pub degraded: bool,
}

/// The triage budget for a unit whose interval fixpoint took
/// `interval_iterations` node evaluations: a few multiples of the interval
/// cost (octagon transfer steps are costlier per node but the pack
/// restriction keeps their count comparable), capped by the user's own
/// budget if one is set. This guarantees triage is never slower than an
/// unbounded octagon re-analysis of the unit.
pub fn derived_budget(interval_iterations: usize, base: &Budget) -> Budget {
    let cap = 4 * interval_iterations as u64 + 256;
    Budget {
        max_steps: Some(base.max_steps.map_or(cap, |b| b.min(cap))),
        timeout_ms: base.timeout_ms,
    }
}

/// Runs the triage layers selected by `options.mode` and demotes every
/// refuted alarm in `diags` to discharged, recording the proving packs
/// (octagon member sets, or dominating guard chains) and the refuting
/// constraint. `result` is the interval fixpoint the alarms came from —
/// the path layer evaluates guard conditions against it. The octagon layer
/// builds its own [`Frame`]; [`discharge_on`] borrows one instead.
pub fn discharge(
    program: &Program,
    pre: &PreAnalysis,
    result: &IntervalResult,
    diags: &mut [Diagnostic],
    options: &TriageOptions,
) -> TriageStats {
    discharge_with(program, pre, result, diags, options, || {
        octagon::analyze_with(program, options.engine, octagon_options(options))
    })
}

/// [`discharge`] on a unit's borrowed [`Frame`]: the octagon layer solves
/// over the frame's pre-analysis, ICFG, D̂/Û and widening plan.
pub fn discharge_on(
    program: &Program,
    frame: &Frame,
    result: &IntervalResult,
    diags: &mut [Diagnostic],
    options: &TriageOptions,
) -> TriageStats {
    discharge_with(program, &frame.pre, result, diags, options, || {
        octagon::analyze_on(program, frame, options.engine, &octagon_options(options))
    })
}

fn octagon_options(options: &TriageOptions) -> AnalyzeOptions {
    AnalyzeOptions {
        depgen: options.depgen,
        dep_backend: options.dep_backend,
        semi_sparse: false,
        widening: options.widening,
        budget: options.budget,
    }
}

/// The triage pass proper; `solve_octagon` runs only when the octagon layer
/// is selected and some alarm is a candidate.
fn discharge_with(
    program: &Program,
    pre: &PreAnalysis,
    result: &IntervalResult,
    diags: &mut [Diagnostic],
    options: &TriageOptions,
    solve_octagon: impl FnOnce() -> OctagonResult,
) -> TriageStats {
    let mut stats = TriageStats::default();
    let candidates: Vec<usize> = diags
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            d.is_open()
                && !d.definite
                && matches!(
                    d.kind,
                    DiagKind::BufferOverrun | DiagKind::NullDeref | DiagKind::DivByZero
                )
        })
        .map(|(i, _)| i)
        .collect();
    stats.candidates = candidates.len();
    if candidates.is_empty() {
        return stats;
    }

    // Dominator trees and assume-site indices are built lazily per
    // procedure and shared by both layers (the octagon overrun check needs
    // dominance for its alloc chains, the path layer for guard chains).
    let mut paths = PathIndex::new();

    if options.mode.runs_octagon() {
        let res = solve_octagon();
        stats.octagon_ran = true;
        stats.degraded = res.stats.degraded;

        let q = OctQuery { program, res: &res };
        for &i in &candidates {
            let verdict = match diags[i].kind {
                DiagKind::BufferOverrun => {
                    try_discharge_overrun(program, pre, &q, &mut paths, &diags[i])
                }
                DiagKind::NullDeref => try_discharge_null(program, &q, &diags[i]),
                DiagKind::DivByZero => try_discharge_div(program, &q, &diags[i]),
                _ => None,
            };
            if let Some((pack, reason)) = verdict {
                diags[i].status = Status::Discharged {
                    method: DischargeMethod::Octagon,
                    pack,
                    reason,
                };
                stats.discharged += 1;
            }
        }
    }

    // The path layer runs on whatever the octagon layer left open, so in
    // `Both` mode its discharged set can only grow. A degraded interval
    // fixpoint is skipped outright: the guard evaluation below is only
    // sound against a genuine post-fixpoint.
    if options.mode.runs_path() && !result.stats.degraded {
        for &i in &candidates {
            if !diags[i].is_open() {
                continue;
            }
            if let Some((pack, reason)) = try_discharge_path(program, result, &mut paths, &diags[i])
            {
                diags[i].status = Status::Discharged {
                    method: DischargeMethod::PathInfeasible,
                    pack,
                    reason,
                };
                stats.discharged += 1;
                stats.discharged_path += 1;
            }
        }
    }
    stats
}

/// The path-condition layer for one alarm: collect the dominating assume
/// guards, then either (a) find a single dominating guard that can never
/// hold on its own inputs — the alarm point is unreachable — or (b) refute
/// the conjunction of the *stable* dominating guards (no writes to their
/// variables between guard and alarm) by iterated interval refinement.
fn try_discharge_path(
    program: &Program,
    result: &IntervalResult,
    paths: &mut PathIndex,
    d: &Diagnostic,
) -> Option<(String, String)> {
    let pid = d.cp.proc;
    let proc = &program.procs[pid];
    if proc.is_external {
        return None;
    }
    let pp = paths.proc_paths(program, pid);
    let chain = pp.guard_chain(d.cp.node);
    if chain.is_empty() {
        return None;
    }

    // (a) A dead dominating guard: the proving pack is the chain prefix up
    // to and including the guard that can never hold.
    for (i, g) in chain.iter().enumerate() {
        if let Some(reason) = pathcond::guard_is_dead(program, result, pid, g.node) {
            let pack = pathcond::render_chain(program, proc, &chain[..=i]);
            return Some((pack, reason));
        }
    }

    // (b) Contradictory conjunction of stable guards. A single guard can
    // never contradict the seed (the seed already reflects it), so only
    // bother from two guards up.
    let stable: Vec<&GuardSite> = chain
        .iter()
        .copied()
        .filter(|g| pathcond::guard_is_stable(program, pid, g.node, d.cp.node))
        .collect();
    if stable.len() < 2 {
        return None;
    }
    let guards: Vec<(NodeId, &Cond)> = stable
        .iter()
        .filter_map(|g| match &proc.nodes[g.node].cmd {
            Cmd::Assume(c) => Some((g.node, c)),
            _ => None,
        })
        .collect();
    let reason = pathcond::refute_conjunction(program, result, d.cp, &guards)?;
    Some((pathcond::render_chain(program, proc, &stable), reason))
}

/// Relational queries against the octagon result, evaluated *before* a
/// control point: the join over the nearest binding post-states backwards
/// through the CFG. Anything unbound is ⊤.
struct OctQuery<'a> {
    program: &'a Program,
    res: &'a OctagonResult,
}

impl OctQuery<'_> {
    /// The octagon of pack `pid` flowing into `cp`: join of the nearest
    /// post-states backwards that bind the pack. `None` means ⊤ — some
    /// backward path reaches the procedure entry (or an unexplored corner)
    /// without a binding, so nothing may be concluded.
    fn before(&self, cp: Cp, pid: PackId) -> Option<Octagon> {
        let proc = &self.program.procs[cp.proc];
        let mut stack: Vec<NodeId> = proc.preds_of(cp.node).to_vec();
        if stack.is_empty() {
            return None;
        }
        let mut visited: FxHashSet<NodeId> = stack.iter().copied().collect();
        let mut acc = Octagon::bottom();
        while let Some(n) = stack.pop() {
            if let Some(o) = self
                .res
                .values
                .get(&Cp::new(cp.proc, n))
                .and_then(|st| st.get(&pid))
            {
                acc = acc.join(o);
                continue;
            }
            let preds = proc.preds_of(n);
            if preds.is_empty() {
                // Reached the entry with the pack unbound.
                return None;
            }
            for &p in preds {
                if visited.insert(p) {
                    stack.push(p);
                }
            }
        }
        // ⊥ here would claim the point unreachable; refuse to conclude
        // that from a *query* — refutations must come from real
        // constraints.
        (!acc.is_bottom()).then_some(acc)
    }

    /// Interval of `x` before `cp`: meet over every pack containing `x`,
    /// with the packs that actually constrained it.
    fn itv_before(&self, cp: Cp, x: VarId) -> (Interval, Vec<PackId>) {
        let mut acc = Interval::top();
        let mut used = Vec::new();
        for &pid in self.res.packs.packs_of(x) {
            let Some(ix) = self.res.packs.pack(pid).index_of(x) else {
                continue;
            };
            let Some(o) = self.before(cp, pid) else {
                continue;
            };
            let itv = o.project(ix);
            if itv.is_bottom() || itv == Interval::top() {
                continue;
            }
            acc = acc.meet(&itv);
            used.push(pid);
        }
        (acc, used)
    }

    /// Interval of `x − y` (or `x + y` with `sum`) before `cp`.
    fn rel_before(&self, cp: Cp, x: VarId, y: VarId, sum: bool) -> (Interval, Vec<PackId>) {
        let mut acc = Interval::top();
        let mut used = Vec::new();
        for &pid in self.res.packs.packs_of(x) {
            let pack = self.res.packs.pack(pid);
            let (Some(ix), Some(iy)) = (pack.index_of(x), pack.index_of(y)) else {
                continue;
            };
            let Some(o) = self.before(cp, pid) else {
                continue;
            };
            let itv = if sum {
                o.sum_interval(ix, iy)
            } else {
                o.diff_interval(ix, iy)
            };
            if itv.is_bottom() || itv == Interval::top() {
                continue;
            }
            acc = acc.meet(&itv);
            used.push(pid);
        }
        (acc, used)
    }

    /// Renders the contributing packs as their member-name sets.
    fn render_packs(&self, mut pids: Vec<PackId>) -> String {
        pids.sort_unstable();
        pids.dedup();
        pids.iter()
            .map(|&pid| {
                let names: Vec<&str> = self
                    .res
                    .packs
                    .pack(pid)
                    .members()
                    .iter()
                    .map(|&v| self.program.vars[v].name.as_str())
                    .collect();
                format!("{{{}}}", names.join(","))
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Direct writes to `x` anywhere in the program (assignments, allocations
/// and call-return bindings with `x` as the plain left-hand side).
fn writes_of(program: &Program, x: VarId) -> Vec<Cp> {
    let mut out = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        for (nid, node) in proc.nodes.iter_enumerated() {
            let written = match &node.cmd {
                Cmd::Assign(LVal::Var(v), _) | Cmd::Alloc(LVal::Var(v), _) => *v == x,
                Cmd::Call {
                    ret: Some(LVal::Var(v)),
                    ..
                } => *v == x,
                _ => false,
            };
            if written {
                out.push(Cp::new(pid, nid));
            }
        }
    }
    out
}

/// Follows single-write copy chains from `base` down to the alarm's
/// allocation: every link must be the variable's only direct write in the
/// whole program, must not be address-taken, must live in `proc`, and must
/// dominate the point the previous link is consumed at — so at the access,
/// `base` provably holds offset 0 of a block allocated *this* activation
/// at `alloc_cp`. Returns the allocation's size expression. Dominance
/// comes from the shared memoized dominator tree ([`DomTree`]) rather
/// than a per-query reachability walk.
fn alloc_chain_size<'p>(
    program: &'p Program,
    pid: ProcId,
    dom: &DomTree,
    base: VarId,
    alloc_cp: Cp,
    use_node: NodeId,
    depth: usize,
) -> Option<&'p Expr> {
    if depth == 0 {
        return None;
    }
    if program.vars[base].address_taken {
        return None;
    }
    let writes = writes_of(program, base);
    let [w] = writes.as_slice() else {
        return None;
    };
    if w.proc != pid {
        return None;
    }
    let proc = &program.procs[pid];
    if !dom.dominates(w.node, use_node) {
        return None;
    }
    match &proc.nodes[w.node].cmd {
        Cmd::Alloc(LVal::Var(_), size) => (*w == alloc_cp).then_some(size),
        Cmd::Assign(LVal::Var(_), Expr::Var(src)) => {
            alloc_chain_size(program, pid, dom, *src, alloc_cp, w.node, depth - 1)
        }
        _ => None,
    }
}

fn has_calls(proc: &Proc) -> bool {
    proc.nodes.iter().any(|n| matches!(n.cmd, Cmd::Call { .. }))
}

fn var_name(program: &Program, x: VarId) -> &str {
    &program.vars[x].name
}

fn try_discharge_overrun(
    program: &Program,
    pre: &PreAnalysis,
    q: &OctQuery<'_>,
    paths: &mut PathIndex,
    d: &Diagnostic,
) -> Option<(String, String)> {
    let t = d.var?;
    let Evidence::Overrun {
        alloc: Some((ap, an)),
        ..
    } = &d.evidence
    else {
        return None;
    };
    let alloc_cp = Cp::new(ProcId::new(*ap as usize), NodeId::new(*an as usize));
    let pid = d.cp.proc;
    if alloc_cp.proc != pid || program.vars[t].address_taken {
        return None;
    }
    let proc = &program.procs[pid];

    // The accessed pointer must be a single-assignment `base + index` sum
    // computed immediately before the access.
    let writes = writes_of(program, t);
    let [def] = writes.as_slice() else {
        return None;
    };
    if def.proc != pid || !proc.preds_of(d.cp.node).contains(&def.node) {
        return None;
    }
    let Cmd::Assign(LVal::Var(_), Expr::Binop(BinOp::Add, a, b)) = &proc.nodes[def.node].cmd else {
        return None;
    };
    let (Expr::Var(a), Expr::Var(b)) = (&**a, &**b) else {
        return None;
    };
    let is_base = |v: VarId| {
        pre.state
            .get_ref(&AbsLoc::Var(v))
            .is_some_and(|val| !val.arr.is_empty())
    };
    let (base, idx) = match (is_base(*a), is_base(*b)) {
        (true, false) => (*a, *b),
        (false, true) => (*b, *a),
        _ => return None,
    };

    let dom = &paths.proc_paths(program, pid).dom;
    let size = alloc_chain_size(program, pid, dom, base, alloc_cp, d.cp.node, 4)?;

    let (idx_itv, mut pids) = q.itv_before(d.cp, idx);
    if !matches!(idx_itv.lo(), Some(Bound::Int(l)) if l >= 0) {
        return None;
    }
    let iname = var_name(program, idx);
    let reason = match size {
        Expr::Const(c) if *c >= 1 => {
            if !matches!(idx_itv.hi(), Some(Bound::Int(h)) if h < *c) {
                return None;
            }
            format!("{iname} in {idx_itv} within [0, {}]", *c - 1)
        }
        Expr::Var(s) => {
            // The size variable must denote the same value at the
            // allocation and at the access: no direct writes anywhere, not
            // address-taken, and no calls in the procedure (so no other
            // activation can rebind it between the two points).
            if program.vars[*s].address_taken
                || !writes_of(program, *s).is_empty()
                || has_calls(proc)
            {
                return None;
            }
            let (diff, dpids) = q.rel_before(d.cp, idx, *s, false);
            if !matches!(diff.hi(), Some(Bound::Int(h)) if h <= -1) {
                return None;
            }
            pids.extend(dpids);
            format!("{iname} >= 0 and {iname} - {} <= -1", var_name(program, *s))
        }
        _ => return None,
    };
    if pids.is_empty() {
        return None;
    }
    Some((q.render_packs(pids), reason))
}

fn try_discharge_null(
    program: &Program,
    q: &OctQuery<'_>,
    d: &Diagnostic,
) -> Option<(String, String)> {
    let x = d.var?;
    let (itv, pids) = q.itv_before(d.cp, x);
    if pids.is_empty() || itv.is_bottom() || itv.contains(0) {
        return None;
    }
    Some((
        q.render_packs(pids),
        format!("{} in {itv} excludes 0", var_name(program, x)),
    ))
}

fn try_discharge_div(
    program: &Program,
    q: &OctQuery<'_>,
    d: &Diagnostic,
) -> Option<(String, String)> {
    let Evidence::DivByZero { nth, .. } = &d.evidence else {
        return None;
    };
    let proc = &program.procs[d.cp.proc];
    let mut divisors: Vec<&Expr> = Vec::new();
    checker::collect_divisors_cmd(&proc.nodes[d.cp.node].cmd, &mut divisors);
    let e = *divisors.get(*nth as usize)?;

    let (itv, pids, rendered) = match e {
        Expr::Var(x) => {
            let (itv, pids) = q.itv_before(d.cp, *x);
            (itv, pids, var_name(program, *x).to_string())
        }
        Expr::Binop(op @ (BinOp::Sub | BinOp::Add), a, b) => {
            let (Expr::Var(a), Expr::Var(b)) = (&**a, &**b) else {
                return None;
            };
            let (itv, pids) = q.rel_before(d.cp, *a, *b, matches!(op, BinOp::Add));
            let sign = if matches!(op, BinOp::Add) { "+" } else { "-" };
            (
                itv,
                pids,
                format!("{} {sign} {}", var_name(program, *a), var_name(program, *b)),
            )
        }
        _ => return None,
    };
    if pids.is_empty() || itv.is_bottom() || itv.contains(0) {
        return None;
    }
    Some((
        q.render_packs(pids),
        format!("{rendered} in {itv} excludes 0"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::analyze;
    use crate::preanalysis;
    use sga_cfront::parse;

    fn triage(src: &str) -> (Vec<Diagnostic>, TriageStats) {
        triage_with(src, TriageMode::default())
    }

    fn triage_with(src: &str, mode: TriageMode) -> (Vec<Diagnostic>, TriageStats) {
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        let r = analyze(&p, Engine::Sparse);
        let mut diags = checker::check_all(&p, &r, &pre);
        let opts = TriageOptions {
            mode,
            ..TriageOptions::default()
        };
        let stats = discharge(&p, &pre, &r, &mut diags, &opts);
        (diags, stats)
    }

    #[test]
    fn loop_overrun_with_symbolic_size_is_discharged() {
        // Interval: size [1,+oo] gives max index [0,0] while offset grows
        // to [0,+oo] — possible alarm. Octagon: i >= 0 and i - n <= -1.
        let (diags, stats) = triage(
            "int probe(int n) {
                int s = 0;
                if (n > 0) {
                    int *buf = malloc(n);
                    int i = 0;
                    while (i < n) { buf[i] = i; i = i + 1; }
                    s = i;
                }
                return s;
             }
             int main(int argc) { return probe(argc); }",
        );
        let overruns: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::BufferOverrun)
            .collect();
        assert!(!overruns.is_empty(), "interval must alarm first: {diags:?}");
        assert!(
            overruns
                .iter()
                .any(|d| matches!(&d.status, Status::Discharged { .. })),
            "octagon should discharge the loop access: {overruns:?}"
        );
        assert!(stats.discharged >= 1, "{stats:?}");
        if let Some(Status::Discharged { pack, reason, .. }) =
            overruns.iter().find(|d| !d.is_open()).map(|d| &d.status)
        {
            assert!(
                pack.contains('i') && reason.contains("i - n"),
                "{pack} / {reason}"
            );
        }
    }

    #[test]
    fn constant_size_overrun_is_discharged_when_bounded() {
        let (diags, _) = triage(
            "int main(int c) {
                int *buf = malloc(4);
                int i = 0;
                if (c) { i = 3; }
                buf[i] = 1;
                return 0;
             }",
        );
        // Interval keeps i in [0,3] ⊆ [0,3]: no alarm at all. Now make the
        // bound relational-only:
        let (diags2, stats2) = triage(
            "int main(int n) {
                if (n < 0) { return 0; }
                if (n > 3) { return 0; }
                int *buf = malloc(4);
                int t = 0;
                t = n;
                buf[t] = 1;
                return 0;
             }",
        );
        let _ = diags;
        let overruns: Vec<_> = diags2
            .iter()
            .filter(|d| d.kind == DiagKind::BufferOverrun)
            .collect();
        // Whether the interval analysis alarms here depends on refinement
        // propagation; if it alarms, triage must not *wrongly* discharge —
        // and if it discharges, the reason must be the constant bound.
        for d in &overruns {
            if let Status::Discharged { reason, .. } = &d.status {
                assert!(reason.contains("within [0, 3]"), "{reason}");
            }
        }
        let _ = stats2;
    }

    #[test]
    fn definite_alarms_are_never_candidates() {
        let (diags, stats) = triage(
            "int main() {
                int *buf = malloc(4);
                buf[9] = 1;
                int *p = 0;
                *p = 2;
                return 0;
             }",
        );
        assert!(diags.iter().any(|d| d.definite));
        assert!(
            diags.iter().filter(|d| d.definite).all(|d| d.is_open()),
            "definite alarms must survive triage: {diags:?}"
        );
        let _ = stats;
    }

    #[test]
    fn div_by_relational_difference_is_discharged() {
        // Interval knows nothing about n - m; the octagon pack {m,n}
        // carries m - n <= -1 from the guard.
        let (diags, stats) = triage(
            "int main(int n, int m) {
                int r = 0;
                if (m < n) { r = 100 / (n - m); }
                return r;
             }",
        );
        let divs: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::DivByZero)
            .collect();
        assert_eq!(divs.len(), 1, "{diags:?}");
        assert!(
            matches!(&divs[0].status, Status::Discharged { reason, .. } if reason.contains("excludes 0")),
            "{divs:?}"
        );
        assert_eq!(stats.discharged, 1, "{stats:?}");
    }

    #[test]
    fn unprovable_alarms_stay_open() {
        let (diags, stats) = triage(
            "int main(int n, int m) {
                int r = 100 / (n - m);
                int *buf = malloc(8);
                buf[n] = r;
                return 0;
             }",
        );
        assert!(
            diags.iter().filter(|d| !d.definite).all(|d| d.is_open()),
            "nothing is provable here: {diags:?}"
        );
        assert_eq!(stats.discharged, 0);
    }

    #[test]
    fn triage_without_candidates_skips_octagon() {
        let (_, stats) = triage("int main() { int x = 1; return x; }");
        assert_eq!(stats.candidates, 0);
        assert!(!stats.octagon_ran);
    }

    #[test]
    fn exhausted_budget_degrades_to_fewer_discharges() {
        let src = "int main(int n, int m) {
                int r = 0;
                if (m < n) { r = 100 / (n - m); }
                return r;
             }";
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        let r = analyze(&p, Engine::Sparse);
        let mut diags = checker::check_all(&p, &r, &pre);
        let opts = TriageOptions {
            budget: Budget::with_max_steps(1),
            ..TriageOptions::default()
        };
        let stats = discharge(&p, &pre, &r, &mut diags, &opts);
        assert!(stats.octagon_ran);
        // Degraded or not, every status change must still carry a pack.
        for d in &diags {
            if let Status::Discharged { pack, .. } = &d.status {
                assert!(!pack.is_empty());
            }
        }
    }

    #[test]
    fn derived_budget_caps_at_user_budget() {
        let b = derived_budget(100, &Budget::unbounded());
        assert_eq!(b.max_steps, Some(656));
        let b = derived_budget(100, &Budget::with_max_steps(10));
        assert_eq!(b.max_steps, Some(10));
    }

    /// A null deref guarded by a dominating condition that can never hold:
    /// the octagon layer cannot refute it (the pointer genuinely may be
    /// null), the path layer proves the deref unreachable.
    const DEAD_GUARD: &str = "int g;
        int main(int n) {
            int x = 3;
            int *p = 0;
            if (n > 0) { p = &g; }
            if (x > 10) { *p = 1; }
            return 0;
         }";

    #[test]
    fn dead_dominating_guard_discharges_via_path_layer() {
        let (diags, stats) = triage(DEAD_GUARD);
        let nulls: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::NullDeref)
            .collect();
        assert!(!nulls.is_empty(), "interval must alarm first: {diags:?}");
        let discharged = nulls.iter().find(|d| !d.is_open()).expect("discharged");
        let Status::Discharged {
            method,
            pack,
            reason,
        } = &discharged.status
        else {
            panic!("{discharged:?}");
        };
        assert_eq!(*method, DischargeMethod::PathInfeasible, "{discharged:?}");
        assert!(pack.contains("then@") && pack.contains("x > 10"), "{pack}");
        assert!(reason.contains("never holds"), "{reason}");
        assert_eq!(stats.discharged_path, 1, "{stats:?}");
    }

    #[test]
    fn octagon_mode_leaves_path_only_alarms_open() {
        let (diags, stats) = triage_with(DEAD_GUARD, TriageMode::Octagon);
        assert!(
            diags
                .iter()
                .filter(|d| d.kind == DiagKind::NullDeref)
                .all(|d| d.is_open()),
            "octagon alone cannot refute a may-null pointer: {diags:?}"
        );
        assert_eq!(stats.discharged_path, 0);
        assert!(stats.octagon_ran);
    }

    #[test]
    fn path_mode_skips_the_octagon_fixpoint() {
        let (diags, stats) = triage_with(DEAD_GUARD, TriageMode::Path);
        assert!(!stats.octagon_ran);
        assert_eq!(stats.discharged, stats.discharged_path);
        assert!(
            diags
                .iter()
                .filter(|d| d.kind == DiagKind::NullDeref)
                .any(|d| !d.is_open()),
            "{diags:?}"
        );
    }

    #[test]
    fn both_mode_discharges_a_superset_of_octagon_mode() {
        // One octagon-dischargeable alarm (relational divisor) plus one
        // path-dischargeable alarm (dead guard over a may-null deref).
        let src = "int g;
            int main(int n, int m) {
                int r = 0;
                if (m < n) { r = 100 / (n - m); }
                int x = 1;
                int *p = 0;
                if (n > 0) { p = &g; }
                if (x > 5) { *p = r; }
                return r;
             }";
        let (oct, _) = triage_with(src, TriageMode::Octagon);
        let (both, stats) = triage_with(src, TriageMode::Both);
        let discharged = |v: &[Diagnostic]| -> Vec<u64> {
            v.iter()
                .filter(|d| !d.is_open())
                .map(|d| d.fingerprint)
                .collect()
        };
        let oct_set = discharged(&oct);
        let both_set = discharged(&both);
        assert!(
            oct_set.iter().all(|fp| both_set.contains(fp)),
            "both must contain every octagon discharge: {oct_set:?} vs {both_set:?}"
        );
        assert!(
            both_set.len() > oct_set.len(),
            "path layer must add a discharge: {oct_set:?} vs {both_set:?}"
        );
        // Definite alarms are untouched in every mode.
        let definite = |v: &[Diagnostic]| -> Vec<(u64, bool)> {
            v.iter()
                .filter(|d| d.definite)
                .map(|d| (d.fingerprint, d.is_open()))
                .collect()
        };
        assert_eq!(definite(&oct), definite(&both));
        assert!(stats.discharged_path >= 1, "{stats:?}");
    }

    #[test]
    fn contradictory_stable_guards_discharge_via_refinement() {
        // n > 5 and n < 3 cannot hold together; n is never written between
        // the guards and the division. Path-only mode, so the octagon layer
        // (which also refutes this divisor) cannot get there first.
        let (diags, stats) = triage_with(
            "int main(int n) {
                int r = 0;
                if (n > 5) {
                    if (n < 3) { r = 100 / n; }
                }
                return r;
             }",
            TriageMode::Path,
        );
        let divs: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::DivByZero)
            .collect();
        if divs.is_empty() {
            // The interval refinement may already prove the branch dead and
            // raise no alarm at all — also acceptable.
            return;
        }
        for d in &divs {
            let Status::Discharged {
                method,
                pack,
                reason,
            } = &d.status
            else {
                panic!("contradictory guards must discharge: {d:?}");
            };
            assert_eq!(*method, DischargeMethod::PathInfeasible);
            assert!(pack.contains("n > 5") && pack.contains("n < 3"), "{pack}");
            assert!(
                reason.contains("conflict") || reason.contains("never holds"),
                "{reason}"
            );
        }
        let _ = stats;
    }

    #[test]
    fn loop_carried_guard_is_never_path_discharged() {
        // The loop guard i < 8 dominates the body access but i is written
        // inside the guard→access region, so it is not stable and the path
        // layer must not reason with it. In Path-only mode everything
        // stays open.
        let (diags, stats) = triage_with(
            "int probe(int n) {
                int s = 0;
                if (n > 0) {
                    int *buf = malloc(n);
                    int i = 0;
                    while (i < n) { buf[i] = i; i = i + 1; }
                    s = i;
                }
                return s;
             }
             int main(int argc) { return probe(argc); }",
            TriageMode::Path,
        );
        assert!(
            diags.iter().any(|d| d.kind == DiagKind::BufferOverrun),
            "interval must alarm first: {diags:?}"
        );
        assert!(
            diags.iter().filter(|d| !d.definite).all(|d| d.is_open()),
            "loop-carried guards must not discharge: {diags:?}"
        );
        assert_eq!(stats.discharged_path, 0);
    }

    #[test]
    fn degraded_interval_result_skips_the_path_layer() {
        let p = parse(DEAD_GUARD).unwrap();
        let pre = preanalysis::run(&p);
        let mut r = analyze(&p, Engine::Sparse);
        let mut diags = checker::check_all(&p, &r, &pre);
        r.stats.degraded = true;
        let stats = discharge(&p, &pre, &r, &mut diags, &TriageOptions::default());
        assert_eq!(
            stats.discharged_path, 0,
            "degraded fixpoints must not feed path discharge: {stats:?}"
        );
    }
}
