//! The packed relational (octagon) instance of §4 — the
//! `Octagon{vanilla,base,sparse}` analyzers of §6.2.
//!
//! Abstract locations are variable *packs*; abstract values are octagon
//! constraints over the pack's members. The design follows the paper:
//!
//! * **packing** ([`build_packs`]) — the syntactic heuristic of §6.2:
//!   variables appearing together in assignments/conditions/calls are
//!   grouped (scope-local, capped at [`PACK_SIZE_LIMIT`] = 10, "large packs
//!   … were split down"); singleton packs always exist so the projection
//!   `π_x` of §4.2 is defined;
//! * **transfer** — assignments whose right-hand side is octagonal
//!   (`y + c`) update each pack containing the target exactly; everything
//!   else goes through the interval projection, mirroring the program
//!   transformation `T` of §4.1 (replace out-of-pack variables by their
//!   projected values);
//! * **def/use** (§4.2) — `D̂(c) = pack(x)` and
//!   `Û(c) = pack(x) ∪ {⟪l⟫ | l ∈ V(e) − pack(x)}`, derived from the
//!   interval instance's [`DefUse`] by mapping defined variables to their
//!   packs and read variables to their singletons;
//! * engines — the same dense/sparse solvers as the interval instance,
//!   instantiated at pack granularity.
//!
//! Pointers, arrays and structures are "handled in the same way as the
//! interval analysis" (§6.2): here, the pre-analysis supplies points-to
//! facts, and memory writes through pointers *havoc* (forget) the affected
//! variables in every pack. Heap cells themselves are not tracked
//! relationally, matching practical packed analyses.

use crate::defuse::DefUse;
use crate::dense::{self, DenseSpec};
use crate::depgen::{self, DataDeps, DepSource};
use crate::icfg::{EdgeKind, InEdge};
use crate::interval::AnalyzeOptions;
use crate::preanalysis::PreAnalysis;
use crate::skeleton::{self, Frame};
use crate::sparse::{self, SparseSpec};
use crate::stats::AnalysisStats;
use sga_domains::{AbsLoc, Interval, Lattice, Octagon, Pack, PackId, PackSet, Thresholds};
use sga_ir::{BinOp, Cmd, Cond, Cp, Expr, LVal, ProcId, Program, RelOp, VarId};
use sga_utils::stats::{peak_rss_bytes, Phase, StageTimers};
use sga_utils::{FxHashMap, FxHashSet, Idx, IndexVec, PMap};

/// Maximum pack size before the heuristic refuses to merge further (§6.2).
pub const PACK_SIZE_LIMIT: usize = 10;

/// The packed relational state: packs to octagons (absent = ⊥).
pub type OctState = PMap<PackId, Octagon>;

fn collect_wto_nodes(items: &[sga_utils::graph::WtoItem], out: &mut Vec<usize>) {
    for item in items {
        match item {
            sga_utils::graph::WtoItem::Node(n) => out.push(*n),
            sga_utils::graph::WtoItem::Component(h, body) => {
                out.push(*h);
                collect_wto_nodes(body, out);
            }
        }
    }
}

/// Which octagon analyzer to run.
pub type Engine = crate::interval::Engine;

/// Result of an octagon analysis.
#[derive(Debug)]
pub struct OctagonResult {
    /// The engine used.
    pub engine: Engine,
    /// Post-states per control point.
    pub values: FxHashMap<Cp, OctState>,
    /// The pack set the analysis ran with.
    pub packs: PackSet,
    /// Phase statistics.
    pub stats: AnalysisStats,
}

impl OctagonResult {
    /// Projects variable `x` to an interval at `cp`, meeting the
    /// projections of every pack that contains `x`.
    pub fn itv_of(&self, cp: Cp, x: VarId) -> Interval {
        let Some(st) = self.values.get(&cp) else {
            return Interval::Bot;
        };
        project_all(&self.packs, st, x)
    }

    /// The tightest known bound on `x − y` at `cp`, if some pack relates
    /// them.
    pub fn diff_bound(&self, cp: Cp, x: VarId, y: VarId) -> Option<i64> {
        let st = self.values.get(&cp)?;
        let mut best: Option<i64> = None;
        for &pid in self.packs.packs_of(x) {
            let pack = self.packs.pack(pid);
            let (Some(ix), Some(iy)) = (pack.index_of(x), pack.index_of(y)) else {
                continue;
            };
            if let Some(oct) = st.get(&pid) {
                if let Some(c) = oct.diff_bound(ix, iy) {
                    best = Some(best.map_or(c, |b| b.min(c)));
                }
            }
        }
        best
    }
}

/// Runs the chosen octagon analyzer.
pub fn analyze(program: &Program, engine: Engine) -> OctagonResult {
    analyze_with(program, engine, AnalyzeOptions::default())
}

/// Runs the chosen octagon analyzer with analysis options (dependency
/// generation + widening strategy; `semi_sparse` is interval-only and
/// ignored here): builds the unit's [`Frame`] and runs [`analyze_on`].
pub fn analyze_with(program: &Program, engine: Engine, options: AnalyzeOptions) -> OctagonResult {
    let total = Phase::start("total");
    let timers = StageTimers::new();
    let frame_options = AnalyzeOptions {
        semi_sparse: false,
        ..options
    };
    let frame = Frame::build(program, &frame_options, 1, &timers);
    let mut result = analyze_on(program, &frame, engine, &options);
    result.stats.pre_time = timers.get("pre");
    result.stats.total_time = total.stop();
    result.stats.peak_mem_bytes = peak_rss_bytes();
    result
}

/// Runs the chosen octagon analyzer on a unit's borrowed [`Frame`]: the
/// pack-level D̂/Û derive from the frame's interval D̂/Û, and the sparse
/// engine generates its own pack dependencies. Widening follows the
/// frame's plan.
pub fn analyze_on(
    program: &Program,
    frame: &Frame,
    engine: Engine,
    options: &AnalyzeOptions,
) -> OctagonResult {
    let packs = build_packs(program);
    let odu = OctDefUse::compute(program, &frame.pre, &frame.du, &packs);
    let mut stats = AnalysisStats {
        widening: options.widening.strategy.name(),
        num_locs: packs.len(),
        avg_defs: odu.avg_def_size(),
        avg_uses: odu.avg_use_size(),
        ..AnalysisStats::default()
    };
    let sem = OctSemantics::new(program, &frame.pre, &packs);

    let values = match engine {
        Engine::Vanilla | Engine::Base => {
            let spec = OctDenseSpec {
                sem: &sem,
                localize: engine == Engine::Base,
                in_packs: odu.in_packs.clone(),
                out_packs: odu.out_packs.clone(),
            };
            let fix = Phase::start("fix");
            let result =
                dense::solve_with(program, &frame.icfg, &spec, &frame.plan, &options.budget);
            stats.fix_time = fix.stop();
            stats.iterations = result.iterations;
            stats.degraded = result.degraded;
            result.post
        }
        Engine::Sparse => {
            solve_sparse(program, frame, &sem, &odu, options, &mut stats, |_, _, v| v)
        }
    };
    OctagonResult {
        engine,
        values,
        packs,
        stats,
    }
}

/// Generates the pack dependencies, solves the sparse octagon analysis
/// (recording its phases in `stats`) and hands the solved values to `k`
/// together with the dependencies and spec they came from.
fn solve_sparse<R>(
    program: &Program,
    frame: &Frame,
    sem: &OctSemantics<'_>,
    odu: &OctDefUse,
    options: &AnalyzeOptions,
    stats: &mut AnalysisStats,
    k: impl FnOnce(&DataDeps, &OctSparseSpec<'_>, FxHashMap<Cp, OctState>) -> R,
) -> R {
    let dep_phase = Phase::start("dep");
    let deps = depgen::assemble(odu, options.depgen, skeleton::dep_segments(program, odu, 1));
    stats.dep_time = dep_phase.stop();
    stats.dep_edges_raw = deps.stats.raw_edges;
    stats.dep_edges = deps.stats.final_edges;
    let spec = OctSparseSpec { sem, odu };
    let fix = Phase::start("fix");
    let result = sparse::solve_backend(
        options.dep_backend,
        program,
        &frame.icfg,
        &deps,
        &spec,
        &frame.plan,
        &options.budget,
    );
    stats.fix_time = fix.stop();
    stats.iterations = result.iterations;
    stats.degraded = result.degraded;
    k(&deps, &spec, result.values)
}

/// Solves the sparse octagon analysis on a borrowed frame and re-checks
/// `f̂_c(X̂) ⊑ X̂` at every point with [`crate::validate`]'s independent
/// transfer pass. Lives here because the octagon spec types are private;
/// [`crate::validate::check_octagon_sparse`] is the public entry point.
pub(crate) fn sparse_post_fixpoint_check(
    program: &Program,
    frame: &Frame,
    options: &AnalyzeOptions,
) -> crate::validate::CheckReport {
    let packs = build_packs(program);
    let odu = OctDefUse::compute(program, &frame.pre, &frame.du, &packs);
    let sem = OctSemantics::new(program, &frame.pre, &packs);
    let mut stats = AnalysisStats::default();
    solve_sparse(
        program,
        frame,
        &sem,
        &odu,
        options,
        &mut stats,
        |deps, spec, values| {
            crate::validate::check_sparse_post_fixpoint(program, deps, spec, &values)
        },
    )
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// The syntactic packing heuristic of §6.2: group variables with syntactic
/// locality (same assignment, condition, or call binding), refuse merges
/// beyond [`PACK_SIZE_LIMIT`], and give every variable a singleton pack.
pub fn build_packs(program: &Program) -> PackSet {
    // Union-find over variables with size-capped merging.
    let n = program.vars.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut Vec<usize>, size: &mut Vec<usize>, a: VarId, b: VarId| {
        let (ra, rb) = (find(parent, a.index()), find(parent, b.index()));
        if ra == rb {
            return;
        }
        if size[ra] + size[rb] > PACK_SIZE_LIMIT {
            return; // §6.2: keep packs below the threshold
        }
        let (big, small) = if size[ra] >= size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        parent[small] = big;
        size[big] += size[small];
    };

    let group = |parent: &mut Vec<usize>, size: &mut Vec<usize>, vars: &[VarId]| {
        for w in vars.windows(2) {
            union(parent, size, w[0], w[1]);
        }
    };

    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for node in &proc.nodes {
            let mut vars: Vec<VarId> = Vec::new();
            match &node.cmd {
                Cmd::Assign(LVal::Var(x), e) => {
                    vars.push(*x);
                    e.vars(&mut vars);
                }
                Cmd::Assume(c) => {
                    c.lhs.vars(&mut vars);
                    c.rhs.vars(&mut vars);
                }
                Cmd::Return(Some(e)) => {
                    vars.push(proc.ret_var);
                    e.vars(&mut vars);
                }
                Cmd::Call { ret, callee, args } => {
                    // Actual/formal pairs "capture relations across
                    // procedure boundaries" (§6.2).
                    let targets: Vec<ProcId> = match callee {
                        sga_ir::Callee::Direct(t) => vec![*t],
                        sga_ir::Callee::Indirect(_) => Vec::new(),
                    };
                    for t in targets {
                        let callee_proc = &program.procs[t];
                        if callee_proc.is_external {
                            continue;
                        }
                        for (i, &p) in callee_proc.params.iter().enumerate() {
                            let mut pair = vec![p];
                            if let Some(a) = args.get(i) {
                                a.vars(&mut pair);
                            }
                            group(&mut parent, &mut size, &pair);
                        }
                        if let Some(LVal::Var(x)) = ret {
                            group(&mut parent, &mut size, &[*x, callee_proc.ret_var]);
                        }
                    }
                }
                _ => {}
            }
            vars.sort_unstable();
            vars.dedup();
            group(&mut parent, &mut size, &vars);
        }
        let _ = pid;
    }

    // Loop locality (§6.2: "abstract locations involved in … loops are
    // grouped together"): variables of linear statements within the same
    // WTO component (loop) get grouped, still size-capped.
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        let _ = pid;
        let wto = sga_utils::graph::weak_topological_order(&proc.cfg_view(), proc.entry.index());
        let mut stack: Vec<&sga_utils::graph::WtoItem> = wto.items.iter().collect();
        while let Some(item) = stack.pop() {
            if let sga_utils::graph::WtoItem::Component(head, body) = item {
                let mut nodes: Vec<usize> = vec![*head];
                collect_wto_nodes(body, &mut nodes);
                let mut vars: Vec<VarId> = Vec::new();
                for &n in &nodes {
                    match &proc.nodes[sga_ir::NodeId::new(n)].cmd {
                        Cmd::Assign(LVal::Var(x), e) if !matches!(linearize(e), Lin::Other) => {
                            vars.push(*x);
                            e.vars(&mut vars);
                        }
                        Cmd::Assume(c) => {
                            c.lhs.vars(&mut vars);
                            c.rhs.vars(&mut vars);
                        }
                        _ => {}
                    }
                }
                vars.sort_unstable();
                vars.dedup();
                group(&mut parent, &mut size, &vars);
                stack.extend(body.iter());
            }
        }
    }

    // Collect classes.
    let mut classes: FxHashMap<usize, Vec<VarId>> = FxHashMap::default();
    for v in 0..n {
        classes
            .entry(find(&mut parent, v))
            .or_default()
            .push(VarId::new(v));
    }
    let mut packs: Vec<Pack> = classes.into_values().map(Pack::new).collect();
    // Deterministic order.
    packs.sort();
    PackSet::new(packs)
}

// ---------------------------------------------------------------------------
// Semantics
// ---------------------------------------------------------------------------

/// Linear shapes an octagon can handle exactly or near-exactly.
#[derive(Clone, Copy, Debug)]
enum Lin {
    Const(i64),
    VarPlus(VarId, i64),
    /// `y + z` — evaluated from the pack's sum constraints when possible.
    VarSum(VarId, VarId),
    /// `y − z` — evaluated from the pack's difference constraints.
    VarDiff(VarId, VarId),
    Other,
}

fn linearize(e: &Expr) -> Lin {
    match e {
        Expr::Const(n) => Lin::Const(*n),
        Expr::Var(x) => Lin::VarPlus(*x, 0),
        Expr::Binop(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Var(x), Expr::Const(c)) | (Expr::Const(c), Expr::Var(x)) => Lin::VarPlus(*x, *c),
            (Expr::Var(y), Expr::Var(z)) => Lin::VarSum(*y, *z),
            _ => Lin::Other,
        },
        Expr::Binop(BinOp::Sub, a, b) => match (&**a, &**b) {
            (Expr::Var(x), Expr::Const(c)) => Lin::VarPlus(*x, -*c),
            (Expr::Var(y), Expr::Var(z)) => Lin::VarDiff(*y, *z),
            _ => Lin::Other,
        },
        _ => Lin::Other,
    }
}

struct OctSemantics<'p> {
    program: &'p Program,
    pre: &'p PreAnalysis,
    packs: &'p PackSet,
    /// Per procedure: packs containing any variable owned by the procedure.
    /// They become unconstrained (⊤) at the procedure's entry — each
    /// activation's locals/params/temps start with arbitrary values.
    fresh_packs: IndexVec<ProcId, Vec<PackId>>,
}

/// Packs containing at least one variable owned by each procedure.
fn fresh_packs_of(program: &Program, packs: &PackSet) -> IndexVec<ProcId, Vec<PackId>> {
    let mut fresh: IndexVec<ProcId, FxHashSet<PackId>> =
        IndexVec::from_elem_n(FxHashSet::default(), program.procs.len());
    for (v, info) in program.vars.iter_enumerated() {
        if let Some(owner) = info.kind.owner() {
            fresh[owner].extend(packs.packs_of(v).iter().copied());
        }
    }
    fresh
        .into_iter()
        .map(|set| {
            let mut v: Vec<PackId> = set.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect()
}

impl<'p> OctSemantics<'p> {
    fn new(program: &'p Program, pre: &'p PreAnalysis, packs: &'p PackSet) -> Self {
        OctSemantics {
            program,
            pre,
            packs,
            fresh_packs: fresh_packs_of(program, packs),
        }
    }

    /// `π_x`: the interval of `x`, met across every pack containing it
    /// (the singleton pack guarantees at least one projection exists).
    fn project_var(&self, st: &OctState, x: VarId) -> Interval {
        project_all(self.packs, st, x)
    }

    /// Interval evaluation of an arbitrary expression under projections —
    /// the `T` transformation of §4.1 collapsed into evaluation.
    fn eval_itv(&self, st: &OctState, e: &Expr) -> Interval {
        match e {
            Expr::Const(n) => Interval::constant(*n),
            Expr::Var(x) => self.project_var(st, *x),
            Expr::Binop(op, a, b) => {
                let (ia, ib) = (self.eval_itv(st, a), self.eval_itv(st, b));
                match op {
                    BinOp::Add => ia.add(&ib),
                    BinOp::Sub => ia.sub(&ib),
                    BinOp::Mul => ia.mul(&ib),
                    BinOp::Div => ia.div(&ib),
                    BinOp::Mod => ia.rem(&ib),
                    BinOp::Cmp(rel) => ia.cmp_result(*rel, &ib),
                    _ => Interval::top(),
                }
            }
            Expr::Unop(sga_ir::UnOp::Neg, a) => self.eval_itv(st, a).neg(),
            // Loads, address-ofs, unknowns: numerically unconstrained.
            _ => Interval::top(),
        }
    }

    /// `x := e` on every pack containing `x`.
    fn assign_var(&self, st: &OctState, x: VarId, e: &Expr) -> OctState {
        let lin = linearize(e);
        let mut out = st.clone();
        for &pid in self.packs.packs_of(x) {
            let Some(oct) = st.get(&pid) else { continue }; // strict on ⊥
            let pack = self.packs.pack(pid);
            let ix = pack.index_of(x).expect("pack contains x");
            let new = match lin {
                Lin::Const(c) => oct.assign_interval(ix, &Interval::constant(c)),
                Lin::VarPlus(y, c) => match pack.index_of(y) {
                    Some(iy) => oct.assign_var_plus(ix, iy, c),
                    None => oct.assign_interval(ix, &self.eval_itv(st, e)),
                },
                Lin::VarSum(y, z) => match (pack.index_of(y), pack.index_of(z)) {
                    (Some(iy), Some(iz)) if iy != iz => {
                        oct.assign_interval(ix, &oct.sum_interval(iy, iz))
                    }
                    _ => oct.assign_interval(ix, &self.eval_itv(st, e)),
                },
                Lin::VarDiff(y, z) => match (pack.index_of(y), pack.index_of(z)) {
                    (Some(iy), Some(iz)) if iy != iz => {
                        oct.assign_interval(ix, &oct.diff_interval(iy, iz))
                    }
                    _ => oct.assign_interval(ix, &self.eval_itv(st, e)),
                },
                Lin::Other => oct.assign_interval(ix, &self.eval_itv(st, e)),
            };
            out = out.insert(pid, new);
        }
        out
    }

    /// Forgets every constraint on `x` (memory writes through pointers,
    /// unknown call effects).
    fn havoc_var(&self, st: &OctState, x: VarId) -> OctState {
        let mut out = st.clone();
        for &pid in self.packs.packs_of(x) {
            let Some(oct) = st.get(&pid) else { continue };
            let pack = self.packs.pack(pid);
            let ix = pack.index_of(x).expect("pack contains x");
            out = out.insert(pid, oct.forget(ix));
        }
        out
    }

    /// Variables a store through `lv` may clobber, per the pre-analysis.
    fn clobbered_vars(&self, lv: &LVal) -> Vec<VarId> {
        match lv {
            LVal::Var(x) => vec![*x],
            LVal::Field(_, _) => Vec::new(), // fields are not packed
            LVal::Deref(p) | LVal::DerefField(p, _) => {
                let v = self.pre.state.get(&AbsLoc::Var(*p));
                v.deref_targets()
                    .iter()
                    .filter_map(|l| match l {
                        AbsLoc::Var(t) => Some(*t),
                        _ => None,
                    })
                    .collect()
            }
        }
    }

    /// Refines with `assume(cond)`.
    fn refine(&self, st: &OctState, cond: &Cond) -> OctState {
        let mut out = st.clone();
        out = self.refine_side(&out, &cond.lhs, cond.op, &cond.rhs);
        out = self.refine_side(&out, &cond.rhs, cond.op.swap(), &cond.lhs);
        out
    }

    fn refine_side(&self, st: &OctState, lhs: &Expr, op: RelOp, rhs: &Expr) -> OctState {
        let Expr::Var(x) = lhs else { return st.clone() };
        let rhs_lin = linearize(rhs);
        let rhs_itv = self.eval_itv(st, rhs);
        let mut out = st.clone();
        for &pid in self.packs.packs_of(*x) {
            let Some(oct) = st.get(&pid) else { continue };
            let pack = self.packs.pack(pid);
            let ix = pack.index_of(*x).expect("pack contains x");
            let new = match rhs_lin {
                Lin::Const(c) => oct.assume_const(ix, op, c),
                Lin::VarPlus(y, c) => match pack.index_of(y) {
                    Some(iy) => oct.assume_var(ix, op, iy, c),
                    None => assume_interval(oct, ix, op, &rhs_itv),
                },
                _ => assume_interval(oct, ix, op, &rhs_itv),
            };
            out = out.insert(pid, new);
        }
        out
    }

    /// The full-state node transfer (calls are the identity; parameter and
    /// return binding happen on edges / in the sparse call case).
    fn transfer(&self, cp: Cp, st: &OctState) -> OctState {
        if cp.node == self.program.procs[cp.proc].entry {
            // A fresh activation: the procedure's own packs are
            // unconstrained, whatever flowed in.
            let mut out = st.clone();
            for &pid in &self.fresh_packs[cp.proc] {
                out = out.insert(pid, Octagon::top(self.packs.pack(pid).len()));
            }
            return out;
        }
        match self.program.cmd(cp) {
            Cmd::Skip | Cmd::Call { .. } => st.clone(),
            Cmd::Assign(LVal::Var(x), e) => self.assign_var(st, *x, e),
            Cmd::Assign(lv, _) | Cmd::Alloc(lv, _) => {
                let mut out = st.clone();
                for v in self.clobbered_vars(lv) {
                    out = self.havoc_var(&out, v);
                }
                out
            }
            Cmd::Assume(cond) => self.refine(st, cond),
            Cmd::Return(e) => {
                let ret = self.program.procs[cp.proc].ret_var;
                match e {
                    Some(e) => self.assign_var(st, ret, e),
                    None => self.havoc_var(st, ret),
                }
            }
        }
    }

    /// Binds actuals to formals at a call edge.
    fn bind_args(&self, callee: ProcId, args: &[Expr], st: &OctState) -> OctState {
        let mut out = st.clone();
        for (i, &p) in self.program.procs[callee].params.iter().enumerate() {
            out = match args.get(i) {
                Some(a) => self.assign_var(&out, p, a),
                None => self.havoc_var(&out, p),
            };
        }
        out
    }

    /// Binds the callee's return variable into the call's return l-value.
    fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, st: &OctState) -> OctState {
        match ret {
            Some(LVal::Var(x)) => {
                let rv = self.program.procs[callee].ret_var;
                self.assign_var(st, *x, &Expr::Var(rv))
            }
            Some(lv) => {
                let mut out = st.clone();
                for v in self.clobbered_vars(lv) {
                    out = self.havoc_var(&out, v);
                }
                out
            }
            None => st.clone(),
        }
    }

    /// External call: the return target becomes unconstrained.
    fn bind_external(&self, ret: Option<&LVal>, st: &OctState) -> OctState {
        match ret {
            Some(LVal::Var(x)) => self.havoc_var(st, *x),
            Some(lv) => {
                let mut out = st.clone();
                for v in self.clobbered_vars(lv) {
                    out = self.havoc_var(&out, v);
                }
                out
            }
            None => st.clone(),
        }
    }

    /// The state entering `main`: every pack unconstrained.
    fn initial(&self) -> OctState {
        let mut st = PMap::new();
        for (pid, pack) in self.packs.iter() {
            st = st.insert(pid, Octagon::top(pack.len()));
        }
        st
    }
}

/// The meet of `x`'s projections over all packs containing it. ⊥ when no
/// pack binds it (strict states).
fn project_all(packs: &PackSet, st: &OctState, x: VarId) -> Interval {
    let mut acc: Option<Interval> = None;
    for &pid in packs.packs_of(x) {
        if let Some(oct) = st.get(&pid) {
            let ix = packs.pack(pid).index_of(x).expect("pack contains x");
            let proj = oct.project(ix);
            acc = Some(match acc {
                Some(a) => a.meet(&proj),
                None => proj,
            });
        }
    }
    acc.unwrap_or(Interval::Bot)
}

/// `x ⋈ [lo, hi]` as octagon constraints.
fn assume_interval(oct: &Octagon, ix: usize, op: RelOp, itv: &Interval) -> Octagon {
    use sga_domains::interval::Bound;
    let Interval::Range(lo, hi) = *itv else {
        return Octagon::Bot;
    };
    match op {
        RelOp::Lt | RelOp::Le => {
            let slack = i64::from(op == RelOp::Lt);
            match hi {
                Bound::Int(h) => oct.add_upper(ix, h - slack),
                _ => oct.clone(),
            }
        }
        RelOp::Gt | RelOp::Ge => {
            let slack = i64::from(op == RelOp::Gt);
            match lo {
                Bound::Int(l) => oct.add_lower(ix, l + slack),
                _ => oct.clone(),
            }
        }
        RelOp::Eq => {
            let mut out = oct.clone();
            if let Bound::Int(h) = hi {
                out = out.add_upper(ix, h);
            }
            if let Bound::Int(l) = lo {
                out = out.add_lower(ix, l);
            }
            out
        }
        RelOp::Ne => oct.clone(),
    }
}

// ---------------------------------------------------------------------------
// Def/use at pack granularity (§4.2)
// ---------------------------------------------------------------------------

/// Pack-level def/use sets and summaries; also the octagon [`DepSource`].
pub struct OctDefUse {
    def_ids: FxHashMap<Cp, Vec<u32>>,
    use_ids: FxHashMap<Cp, Vec<u32>>,
    real: FxHashMap<Cp, FxHashSet<u32>>,
    inter: Vec<(u32, Cp, Cp, bool)>,
    routes: FxHashMap<Cp, FxHashMap<u32, (bool, Vec<Cp>)>>,
    /// Packs flowing into each procedure (localization restriction).
    pub in_packs: IndexVec<ProcId, FxHashSet<PackId>>,
    /// Packs flowing out of each procedure.
    pub out_packs: IndexVec<ProcId, FxHashSet<PackId>>,
}

impl OctDefUse {
    /// Derives pack-level sets from the interval instance's [`DefUse`].
    pub fn compute(
        program: &Program,
        pre: &PreAnalysis,
        du: &DefUse,
        packs: &PackSet,
    ) -> OctDefUse {
        let var_of = |l: &AbsLoc| -> Option<VarId> {
            match l {
                AbsLoc::Var(v) => Some(*v),
                _ => None,
            }
        };
        let packs_of = |v: VarId| packs.packs_of(v).iter().map(|p| p.0);
        let singleton = |v: VarId| packs.singleton_id(v).map(|p| p.0);

        let mut def_ids: FxHashMap<Cp, Vec<u32>> = FxHashMap::default();
        let mut use_ids: FxHashMap<Cp, Vec<u32>> = FxHashMap::default();
        let mut real: FxHashMap<Cp, FxHashSet<u32>> = FxHashMap::default();

        let fresh = fresh_packs_of(program, packs);
        for (cp, sets) in &du.sets {
            let mut d: FxHashSet<u32> = FxHashSet::default();
            let mut u: FxHashSet<u32> = FxHashSet::default();
            let mut r: FxHashSet<u32> = FxHashSet::default();
            if cp.node == program.procs[cp.proc].entry {
                // Fresh packs originate (⊤) at their procedure's entry.
                for &pid in &fresh[cp.proc] {
                    d.insert(pid.0);
                    r.insert(pid.0);
                }
            }
            // Real defs: every pack containing a defined variable.
            for v in sets.real_defs.iter().filter_map(var_of) {
                for p in packs_of(v) {
                    d.insert(p);
                    u.insert(p); // §4.2: Û ⊇ pack(x)
                    r.insert(p);
                }
            }
            // Real uses: singleton packs (projections).
            for v in sets.real_uses.iter().filter_map(var_of) {
                if let Some(p) = singleton(v) {
                    u.insert(p);
                    r.insert(p);
                }
            }
            // Relay parts: whole packs flow through calls/entries/exits.
            for v in sets.defs.iter().filter_map(var_of) {
                if !sets.real_defs.contains(&AbsLoc::Var(v)) {
                    for p in packs_of(v) {
                        d.insert(p);
                        u.insert(p);
                    }
                }
            }
            // Relayed uses stay uses only; at calls, the dependency
            // generator routes them to the callee entry directly (the same
            // pre/return separation as the interval instance).
            for v in sets.uses.iter().filter_map(var_of) {
                if !sets.real_uses.contains(&AbsLoc::Var(v)) {
                    for p in packs_of(v) {
                        u.insert(p);
                    }
                }
            }
            // Entry/exit relays also define what they relay.
            if cp.node == program.procs[cp.proc].entry || cp.node == program.procs[cp.proc].exit {
                for v in sets.uses.iter().filter_map(var_of) {
                    for p in packs_of(v) {
                        d.insert(p);
                    }
                }
            }
            let mut dv: Vec<u32> = d.into_iter().collect();
            dv.sort_unstable();
            let mut uv: Vec<u32> = u.into_iter().collect();
            uv.sort_unstable();
            def_ids.insert(*cp, dv);
            use_ids.insert(*cp, uv);
            real.insert(*cp, r);
        }

        // Pack-level summaries and interprocedural edges.
        let nprocs = program.procs.len();
        let mut sum_def_packs: IndexVec<ProcId, FxHashSet<u32>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        let mut sum_use_packs: IndexVec<ProcId, FxHashSet<u32>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        for (pid, _) in program.procs.iter_enumerated() {
            for v in du.summary_defs[pid].iter().filter_map(var_of) {
                sum_def_packs[pid].extend(packs_of(v));
            }
            for v in du.summary_uses[pid].iter().filter_map(var_of) {
                sum_use_packs[pid].extend(packs_of(v));
            }
        }

        let mut inter: Vec<(u32, Cp, Cp, bool)> = Vec::new();
        let mut in_packs: IndexVec<ProcId, FxHashSet<PackId>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        let mut out_packs: IndexVec<ProcId, FxHashSet<PackId>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        for (pid, proc) in program.procs.iter_enumerated() {
            let mut inp: FxHashSet<PackId> =
                sum_use_packs[pid].iter().map(|&p| PackId(p)).collect();
            for &p in &proc.params {
                inp.extend(packs.packs_of(p).iter().copied());
            }
            in_packs[pid] = inp;
            let mut outp: FxHashSet<PackId> =
                sum_def_packs[pid].iter().map(|&p| PackId(p)).collect();
            outp.extend(packs.packs_of(proc.ret_var).iter().copied());
            out_packs[pid] = outp;
        }
        let mut routes: FxHashMap<Cp, FxHashMap<u32, (bool, Vec<Cp>)>> = FxHashMap::default();
        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                if !matches!(node.cmd, Cmd::Call { .. }) {
                    continue;
                }
                let cp = Cp::new(pid, nid);
                let mut per_loc: FxHashMap<u32, (bool, Vec<Cp>)> = FxHashMap::default();
                for &t_pid in pre.call_targets(cp) {
                    let callee = &program.procs[t_pid];
                    if callee.is_external {
                        continue;
                    }
                    let entry = Cp::new(t_pid, callee.entry);
                    let exit = Cp::new(t_pid, callee.exit);
                    // Parameter packs travel over explicit call → entry
                    // edges; callee-used packs route def → entry directly.
                    for &p in &proc_param_packs(program, packs, t_pid) {
                        inter.push((p.0, cp, entry, false));
                    }
                    for &p in &sum_use_packs[t_pid] {
                        per_loc
                            .entry(p)
                            .or_insert((false, Vec::new()))
                            .1
                            .push(entry);
                    }
                    for &p in &out_packs[t_pid] {
                        inter.push((p.0, exit, cp, true));
                    }
                }
                if per_loc.is_empty() {
                    continue;
                }
                let real_here = &real[&cp];
                let defs_here = &def_ids[&cp];
                for (id, (self_edge, _)) in per_loc.iter_mut() {
                    *self_edge = real_here.contains(id) || defs_here.binary_search(id).is_ok();
                }
                routes.insert(cp, per_loc);
            }
        }

        OctDefUse {
            def_ids,
            use_ids,
            real,
            inter,
            routes,
            in_packs,
            out_packs,
        }
    }

    /// Average `|D̂(c)|` in packs.
    pub fn avg_def_size(&self) -> f64 {
        avg(self.def_ids.values().map(Vec::len))
    }

    /// Average `|Û(c)|` in packs.
    pub fn avg_use_size(&self) -> f64 {
        avg(self.use_ids.values().map(Vec::len))
    }
}

fn proc_param_packs(program: &Program, packs: &PackSet, pid: ProcId) -> Vec<PackId> {
    let mut out: Vec<PackId> = Vec::new();
    for &p in &program.procs[pid].params {
        out.extend(packs.packs_of(p).iter().copied());
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn avg(sizes: impl Iterator<Item = usize>) -> f64 {
    let (mut n, mut total) = (0usize, 0usize);
    for s in sizes {
        n += 1;
        total += s;
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

impl DepSource for OctDefUse {
    fn defs(&self, cp: Cp) -> &[u32] {
        self.def_ids.get(&cp).map_or(&[], Vec::as_slice)
    }

    fn uses(&self, cp: Cp) -> &[u32] {
        self.use_ids.get(&cp).map_or(&[], Vec::as_slice)
    }

    fn is_real(&self, cp: Cp, loc: u32) -> bool {
        self.real.get(&cp).is_some_and(|r| r.contains(&loc))
    }

    fn use_routes(&self, cp: Cp, loc: u32) -> depgen::UseRoutes<'_> {
        match self.routes.get(&cp).and_then(|m| m.get(&loc)) {
            Some((self_edge, entries)) => depgen::UseRoutes {
                self_edge: *self_edge,
                entries: entries.as_slice(),
            },
            None => depgen::UseRoutes {
                self_edge: true,
                entries: &[],
            },
        }
    }

    fn inter_edges(&self, sink: &mut dyn FnMut(u32, Cp, Cp, bool)) {
        for &(l, a, b, k) in &self.inter {
            sink(l, a, b, k);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine specs
// ---------------------------------------------------------------------------

struct OctDenseSpec<'p> {
    sem: &'p OctSemantics<'p>,
    localize: bool,
    in_packs: IndexVec<ProcId, FxHashSet<PackId>>,
    out_packs: IndexVec<ProcId, FxHashSet<PackId>>,
}

fn join_st(a: &OctState, b: &OctState) -> OctState {
    a.union_with(b, |_, x, y| x.join(y))
}

impl DenseSpec for OctDenseSpec<'_> {
    type St = OctState;

    fn bottom(&self) -> OctState {
        PMap::new()
    }

    fn initial(&self) -> OctState {
        self.sem.initial()
    }

    fn transfer(&self, cp: Cp, input: &OctState) -> OctState {
        self.sem.transfer(cp, input)
    }

    fn edge(
        &self,
        dst: Cp,
        edge: &InEdge,
        src_post: &OctState,
        lookup: &dyn Fn(Cp) -> Option<OctState>,
    ) -> OctState {
        let program = self.sem.program;
        match edge.kind {
            EdgeKind::Intra => src_post.clone(),
            EdgeKind::Call { site } => {
                let Cmd::Call { args, .. } = program.cmd(site) else {
                    unreachable!("call edge from non-call site")
                };
                let bound = self.sem.bind_args(dst.proc, args, src_post);
                if self.localize {
                    let keep = &self.in_packs[dst.proc];
                    bound.filter(|pid, _| keep.contains(pid))
                } else {
                    bound
                }
            }
            EdgeKind::Return { site } => {
                let callee = edge.src.proc;
                let Cmd::Call { ret, .. } = program.cmd(site) else {
                    unreachable!("return edge without call site")
                };
                if self.localize {
                    let keep = &self.out_packs[callee];
                    let effects = src_post.filter(|pid, _| keep.contains(pid));
                    let caller = lookup(site).unwrap_or_default();
                    let merged = join_st(&caller, &effects);
                    self.sem.bind_return(callee, ret.as_ref(), &merged)
                } else {
                    self.sem.bind_return(callee, ret.as_ref(), src_post)
                }
            }
            EdgeKind::ExternalRet { site } => {
                let Cmd::Call { ret, .. } = program.cmd(site) else {
                    unreachable!("external-return edge without call site")
                };
                self.sem.bind_external(ret.as_ref(), src_post)
            }
        }
    }

    fn join(&self, a: &OctState, b: &OctState) -> OctState {
        join_st(a, b)
    }

    fn widen(&self, a: &OctState, b: &OctState) -> OctState {
        a.union_with(b, |_, x, y| x.widen(y))
    }

    fn widen_with(&self, a: &OctState, b: &OctState, thresholds: &Thresholds) -> OctState {
        a.union_with(b, |_, x, y| x.widen_with(y, thresholds))
    }

    fn narrow(&self, a: &OctState, b: &OctState) -> OctState {
        a.union_with(b, |_, x, y| x.narrow(y))
    }
}

/// Binds actuals (evaluated in `arg_view`) to formals, updating `st`.
fn bind_args_from(
    sem: &OctSemantics<'_>,
    callee: ProcId,
    args: &[Expr],
    arg_view: &OctState,
    st: &OctState,
) -> OctState {
    let mut out = st.clone();
    for (i, &p) in sem.program.procs[callee].params.iter().enumerate() {
        match args.get(i) {
            Some(a) => {
                // Linear args relate param and actual exactly when a shared
                // pack exists; otherwise fall back to the projected interval
                // evaluated in the pre-call view.
                let lin = linearize(a);
                match lin {
                    Lin::VarPlus(_, _) | Lin::Const(_) => {
                        // assign_var reads only the target packs and, for
                        // projections, the source's packs — both from the
                        // pre-call view joined state; safe because callee
                        // effects cannot touch the actual's packs before the
                        // call executes. Evaluate via arg_view for the
                        // interval fallback.
                        out = assign_var_with_view(sem, &out, p, a, arg_view);
                    }
                    _ => {
                        let itv = sem.eval_itv(arg_view, a);
                        out = assign_itv(sem, &out, p, &itv);
                    }
                }
            }
            None => out = sem.havoc_var(&out, p),
        }
    }
    out
}

/// `x := e` where interval fallbacks evaluate in `view` instead of `st`.
fn assign_var_with_view(
    sem: &OctSemantics<'_>,
    st: &OctState,
    x: VarId,
    e: &Expr,
    view: &OctState,
) -> OctState {
    let lin = linearize(e);
    let mut out = st.clone();
    for &pid in sem.packs.packs_of(x) {
        let Some(oct) = st.get(&pid) else { continue };
        let pack = sem.packs.pack(pid);
        let ix = pack.index_of(x).expect("pack contains x");
        let new = match lin {
            Lin::Const(c) => oct.assign_interval(ix, &Interval::constant(c)),
            Lin::VarPlus(y, c) => match pack.index_of(y) {
                Some(iy) => oct.assign_var_plus(ix, iy, c),
                None => oct.assign_interval(ix, &sem.eval_itv(view, e)),
            },
            _ => oct.assign_interval(ix, &sem.eval_itv(view, e)),
        };
        out = out.insert(pid, new);
    }
    out
}

/// `x := [lo,hi]` on every pack containing `x`.
fn assign_itv(sem: &OctSemantics<'_>, st: &OctState, x: VarId, itv: &Interval) -> OctState {
    let mut out = st.clone();
    for &pid in sem.packs.packs_of(x) {
        let Some(oct) = st.get(&pid) else { continue };
        let pack = sem.packs.pack(pid);
        let ix = pack.index_of(x).expect("pack contains x");
        out = out.insert(pid, oct.assign_interval(ix, itv));
    }
    out
}

struct OctSparseSpec<'p> {
    sem: &'p OctSemantics<'p>,
    odu: &'p OctDefUse,
}

impl SparseSpec for OctSparseSpec<'_> {
    type L = PackId;
    type V = Octagon;

    fn loc_of(&self, id: u32) -> PackId {
        PackId(id)
    }

    fn initial(&self) -> PMap<PackId, Octagon> {
        self.sem.initial()
    }

    fn transfer(
        &self,
        cp: Cp,
        pre: &PMap<PackId, Octagon>,
        ret_in: &PMap<PackId, Octagon>,
    ) -> PMap<PackId, Octagon> {
        let program = self.sem.program;
        let input = pre.union_with(ret_in, |_, a, b| a.join(b));
        let post = match program.cmd(cp) {
            Cmd::Call { ret, args, .. } => {
                let mut out = input.clone();
                let mut any_internal = false;
                for &t in self.sem.pre.call_targets(cp) {
                    let callee = &program.procs[t];
                    if callee.is_external {
                        continue;
                    }
                    any_internal = true;
                    // Arguments read the pre-call state; effects land on the
                    // joined view.
                    out = bind_args_from(self.sem, t, args, pre, &out);
                    out = self.sem.bind_return(t, ret.as_ref(), &out);
                }
                let has_external = !any_internal
                    || self
                        .sem
                        .pre
                        .call_targets(cp)
                        .iter()
                        .any(|&t| program.procs[t].is_external);
                if has_external {
                    out = self.sem.bind_external(ret.as_ref(), &out);
                }
                out
            }
            _ => self.sem.transfer(cp, &input),
        };
        // Restrict to D̂(cp).
        let mut out = PMap::new();
        for &id in self.odu.defs(cp) {
            let pid = PackId(id);
            if let Some(oct) = post.get(&pid) {
                if !matches!(oct.close(), Octagon::Bot) {
                    out = out.insert(pid, oct.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cfront::parse;

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn packs_group_related_vars() {
        let p = parse("int main() { int a = 1; int b = a + 2; int c = 9; return b; }").unwrap();
        let packs = build_packs(&p);
        let (a, b, c) = (var(&p, "a"), var(&p, "b"), var(&p, "c"));
        let shared = packs
            .packs_of(a)
            .iter()
            .any(|pid| packs.pack(*pid).contains(b));
        assert!(shared, "a and b must share a pack");
        // c is only related to itself (the constant 9 assignment).
        assert!(packs.singleton_id(c).is_some());
        assert!(packs.average_size() >= 1.0);
    }

    #[test]
    fn pack_size_capped() {
        // A chain of 30 related variables must not form one mega-pack.
        let mut src = String::from("int main() { int x0 = 0;");
        for i in 1..30 {
            src.push_str(&format!("int x{i} = x{} + 1;", i - 1));
        }
        src.push_str("return x29; }");
        let p = parse(&src).unwrap();
        let packs = build_packs(&p);
        for (_, pack) in packs.iter() {
            assert!(pack.len() <= PACK_SIZE_LIMIT, "pack too big: {pack:?}");
        }
    }

    #[test]
    fn relational_invariant_beats_intervals() {
        // y = x + 1 with unknown x: intervals know nothing about y − x, the
        // octagon knows y − x = 1.
        let p = parse(
            "int main(int x) {
                int y = x + 1;
                int d = y - x;
                return d;
             }",
        )
        .unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let (x, y) = (var(&p, "x"), var(&p, "y"));
            let y_def = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == y))
                .unwrap();
            assert_eq!(
                r.diff_bound(y_def, y, x),
                Some(1),
                "{engine:?}: y - x ≤ 1 must be known"
            );
            assert_eq!(r.diff_bound(y_def, x, y), Some(-1), "{engine:?}");
            // And d's projection is exactly [1,1].
            let d = var(&p, "d");
            let d_def = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == d))
                .unwrap();
            assert_eq!(r.itv_of(d_def, d), Interval::constant(1), "{engine:?}");
        }
    }

    #[test]
    fn loop_invariant_with_widening() {
        let p = parse(
            "int main() {
                int i = 0; int j = 0;
                while (i < 100) { i = i + 1; j = j + 1; }
                return j;
             }",
        )
        .unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let (i, j) = (var(&p, "i"), var(&p, "j"));
            // After the loop, i = 100 exactly (narrowing recovers the bound).
            let exit_assume = p
                .all_points()
                .find(|cp| match p.cmd(*cp) {
                    Cmd::Assume(c) => c.op == RelOp::Ge,
                    _ => false,
                })
                .unwrap();
            let iv = r.itv_of(exit_assume, i);
            assert_eq!(iv, Interval::constant(100), "{engine:?}: i at exit = {iv}");
            // The relational invariant i = j survives the loop.
            assert_eq!(r.diff_bound(exit_assume, i, j), Some(0), "{engine:?}");
        }
    }

    #[test]
    fn interprocedural_relation_through_params() {
        let p = parse(
            "int inc(int a) { return a + 1; }
             int main(int x) { int y = inc(x); int d = y - x; return d; }",
        )
        .unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let d = var(&p, "d");
            let d_def = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == d))
                .unwrap();
            let dv = r.itv_of(d_def, d);
            // The relation a = x + 0 → ret = x + 1 → y = x + 1 needs the
            // call-boundary packs; at minimum d must be bounded.
            assert!(
                Interval::constant(1).le(&dv),
                "{engine:?}: d should include 1, got {dv}"
            );
        }
    }

    #[test]
    fn pointer_store_havocs_target() {
        let p = parse(
            "int main() {
                int a = 5; int *p = &a;
                *p = 100;
                int b = a;
                return b;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let b = var(&p, "b");
        let b_def = p
            .all_points()
            .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == b))
            .unwrap();
        // a was havocked by the store, so b is unconstrained — but crucially
        // NOT still [5,5].
        let bv = r.itv_of(b_def, b);
        assert_ne!(bv, Interval::constant(5), "store through p must havoc a");
    }

    #[test]
    fn sparse_matches_base_on_defs() {
        let p = parse(
            "int main(int n) {
                int i = 0; int s = 0;
                while (i < n) { s = s + 1; i = i + 1; }
                int d = s - i;
                return d;
             }",
        )
        .unwrap();
        let base = analyze(&p, Engine::Base);
        let sparse = analyze(&p, Engine::Sparse);
        let d = var(&p, "d");
        let d_def = p
            .all_points()
            .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == d))
            .unwrap();
        assert_eq!(base.itv_of(d_def, d), sparse.itv_of(d_def, d));
    }
}
