//! **Algorithm IEERT** (Figure 10 of the paper): one sweep of the
//! intermediate-end-to-end-response-time analysis for the DS protocol.
//!
//! Under direct synchronization a subtask's release time inherits the
//! variability of its predecessor's completion ("clumping"): instances of
//! `T_{u,v}` may release up to `R_{u,v−1}` ticks after their periodic
//! baseline, so a window of length `t` can contain
//! `⌈(t + R_{u,v−1})/p_u⌉` of them. One IEERT sweep takes a set of IEER
//! bounds `R` and produces a new set `R′ = IEERT(T, R)`:
//!
//! 1. `D_{i,j}` = least `t > 0` with
//!    `t = Σ_{T_{u,v} ∈ H_{i,j} ∪ {T_{i,j}}} ⌈(t + R_{u,v−1})/p_u⌉ · c_{u,v}`;
//! 2. `M_{i,j} = ⌈(D_{i,j} + R_{i,j−1}) / p_i⌉`;
//! 3. for `m = 1..M`: `C_{i,j}(m)` = least `t` with
//!    `t = m·c_{i,j} + Σ_{H_{i,j}} ⌈(t + R_{u,v−1})/p_u⌉ · c_{u,v}`, and
//!    `R_{i,j}(m) = C_{i,j}(m) + R_{i,j−1} − (m−1)p_i`;
//! 4. `R′_{i,j} = max_m R_{i,j}(m)`.
//!
//! `R_{u,0}` (the "IEER of the predecessor of a first subtask") is zero.
//!
//! [`crate::analysis::sa_ds`] iterates sweeps to the least fixed point;
//! the admission engine reaches it in one ordered pass (below).
//!
//! # The kernel
//!
//! Every SA/DS run sweeps one `IeertKernel`; [`ieert_pass`] is a
//! one-sweep wrapper over a fresh one. A cold kernel computes each
//! subtask's period, execution, blocking bound and interferer list once
//! (read from the task set's priority index, not by a scan of the whole
//! set). Every subtask's demand terms, jitter sources and completions lie
//! in three flat arenas, one span per subtask, so a kernel is a handful
//! of allocations however many subtasks it holds. The kernel returns
//! exactly what the literal algorithm above returns (the differential
//! tests in `tests/ieert_kernel.rs` hold it to that) while doing less
//! work:
//!
//! * **Warm hints.** It caches each subtask's last busy period `D` and
//!   completions `C(m)`, and seeds the next evaluation's step 1 at `D` and
//!   instance `m` at `max(C_this(m−1), C_prev(m))`. All demand is
//!   monotone in the jitters, so raising jitters can only raise the least
//!   fixed point of every equation: a solution found under jitters that
//!   are all ≤ the current ones is a valid lower hint for
//!   [`fixed_point_with_hint_counted`]. Sweeps from a seed at or below the least
//!   fixed point only raise the bounds — the monotone-growth contract
//!   [`IeerBounds::seed_with`] relies on — and if some jitter ever drops
//!   (a caller-supplied seed above a first-sweep value) the subtask's
//!   cache is discarded before use.
//! * **Exact early stop.** For `m ≤ M`, `D` is a post-fixed point of
//!   instance `m`'s equation (its demand at `D` is at most the busy
//!   period's), so `C(m) ≤ D` and hence
//!   `C(m) ≤ D ⇒ R(m) ≤ D + J − (m−1)p`. That bound falls with `m`; once
//!   it is `≤` the running maximum, no later instance can raise the
//!   maximum or trip the failure cap, and the loop stops.
//! * **Unchanged inputs.** A subtask's IEERT value depends on the bounds
//!   only through the jitters of its demand terms (the predecessor bounds
//!   of `H_{i,j}` and of itself); everything else is a constant of the
//!   kernel. When every jitter equals the one the subtask's last
//!   evaluation ran under and that evaluation succeeded, the kernel
//!   returns the last value without running either fixed point. A
//!   re-solve would return the same value and leave the same cached
//!   `D` and `C(m)` (each hint is already the least fixed point), so
//!   bounds, sweep counts and errors are those of the literal algorithm.
//!   Only subtasks that read a bound that moved in the previous sweep
//!   are solved again, which in a warm-seeded admission run is a minority.
//!   [`IeertReport::solved`](crate::analysis::sa_ds::IeertReport::solved)
//!   counts the evaluations that did run.
//!
//! Warm searches take no more iterations than cold ones, so the only
//! conceivable difference is a cold search exhausting
//! `max_fixed_point_iterations` (10⁶ by default, a backstop) where the
//! warm one converges.
//!
//! # The ordered pass
//!
//! [`crate::analysis::sa_ds`] runs Jacobi sweeps because under an
//! arbitrary priority assignment a subtask's jitters can come from
//! subtasks analysed after it. The admission engine
//! ([`crate::analysis::admission`], DS mode) assigns *chain-major*
//! priorities instead: task `pos`, link `j` sits at priority
//! `pos·stride + j` ([`TaskSet::insert_chain`]), and kernel index order is
//! task-then-link order, which is priority order. Every jitter source of
//! subtask `T_{i,j}` then comes before it: its own predecessor
//! `T_{i,j−1}`, and for each interferer `T_{u,v}` (higher priority, so
//! `u < i`, or `u = i` and `v < j`) the predecessor `T_{u,v−1}`. The
//! dependency graph is acyclic in index order, and one Gauss–Seidel pass
//! in that order (`IeertKernel::ordered_pass`) gives each subtask the
//! sweep operator's value at the values already written for its sources:
//! by induction on the index, the unique, hence least, fixed point. Each
//! subtask is evaluated once, under the hint and unchanged-inputs rules
//! above: a clean subtask whose jitters did not move returns its cached
//! value, one whose jitters grew re-solves warm, one whose jitters dropped
//! re-solves cold. Three conditions keep the pass exact against the cold
//! Jacobi run of `analyze_ds`, the engine's memo-off oracle:
//!
//! * **Acyclic order.** A `debug_assert` in the pass checks that every
//!   term's jitter source (the member's predecessor) has a smaller kernel
//!   index than the subtask being evaluated. Only the admission engine,
//!   whose sets are chain-major, runs the pass; every other caller sweeps.
//! * **Sweep budget.** From the optimistic seed, cold Jacobi fixes one
//!   more level of the dependency graph per sweep, so it converges within
//!   the longest dependency path plus one verifying sweep: at most
//!   `n + 1` sweeps for `n` subtasks. The engine takes the pass only when
//!   `n + 1 ≤ max_outer_iterations`; under a smaller budget the cold run
//!   may report `IterationLimit`, and the engine runs it to report that
//!   too.
//! * **No early stop.** The pass does not stop at a chain that misses its
//!   deadline: the batch verdict reports an analysis failure of *any*
//!   chain ahead of a deadline miss, so the engine checks deadlines only
//!   after the pass has finished.
//!
//! Where the pass converges, cold Jacobi evaluates every subtask at the
//! same values in its verifying sweep and converges to them too, unless
//! a busy-period cap, which grows with the jitters, trips at one of the
//! lower jitters it passes on the way (the warm-seeded sweeps the pass
//! replaced skipped those jitters just the same), or the iteration
//! backstop noted above. Where the pass fails, the engine reruns the cold
//! SA/DS run of `analyze_ds` and reports its error: the failure
//! certificate's (below) where that fires, else Jacobi's, whose payload
//! depends on the sweep at which the run trips a cap.
//!
//! # The failure certificate
//!
//! Dropping the ceilings of step 3 at `m = 1` (`⌈y⌉ ≥ y`) bounds the sweep
//! operator from below by an affine map `G`: with `u = c/p` and `U_H` the
//! utilization of `H_s`,
//!
//! `R_s ≥ G(R)_s = R_{pred(s)} + (c_s + b_s + Σ_{h∈H_s} u_h·R_{pred(h)}) / (1 − U_{H_s})`.
//!
//! `IeertKernel::certify_failure` looks for an integer vector `x` with
//! `x ≤ G(x)` above some cap, from the kernel's constants alone
//! (periods, executions, blocking, interferer terms and members, caps):
//!
//! 1. Gauss–Seidel in `f64`, in kernel order, from zero, on `G` with each
//!    row's constant lowered by `|H_s| + 3` ticks and clamped at zero. It
//!    stops when no entry rises by a tick, when an entry passes four times
//!    its cap, or after `max_outer_iterations` passes. A level whose
//!    interference alone fills its processor (`U_{H_s} ≥ 1`) ends the
//!    attempt: the first sweep reports that overload.
//! 2. Each entry is floored to an integer.
//! 3. Every row is checked in `i128`: with `d = x_s − x_{pred(s)}`,
//!    `d ≤ 0` or `d ≤ c_s + b_s + Σ_h ⌊c_h·(d + x_{pred(h)}) / p_h⌋`. The
//!    lowered constants leave room for the floors; without them converged
//!    rows miss this by a few ticks.
//!
//! Only step 3 is part of the proof (see [`crate::analysis::sa_ds`]): if
//! every row passes and some `x_s` exceeds its cap, no sweep can converge,
//! and the error names the first such subtask in kernel order. Otherwise
//! the certificate proves nothing and the sweeps run as before.
//! [`relaxed_lower_bounds`] exposes the checked `x`.
//!
//! # The resident kernel
//!
//! The admission engine keeps the kernel of its last committed run,
//! converged, and derives the next run's kernel from it instead of
//! building one cold. An admit inserts one chain at priority position
//! `pos_c`, and only adds demand:
//!
//! * A resident subtask is **dirty** when the candidate has a subtask on
//!   its processor above it (its interference set grows), or when its
//!   blocking term changes (never, in the engine's preemptive base
//!   model). The candidate's terms are spliced into its interference at
//!   their priority, its cached value is dropped, and its busy period
//!   and completions stay as warm hints: solved under less demand and
//!   no larger jitters, they lie below the new least fixed points.
//! * Every other resident subtask is **clean** and copied as it is,
//!   with task indices past `pos_c` shifted by one. Its constants and
//!   interference set are unchanged, so when the ordered pass gives it
//!   the jitters its cached value was solved under, the unchanged-inputs
//!   rule returns that value. The value is exact: IEERT of a subtask is a
//!   function of those jitters alone. A clean subtask whose jitter
//!   sources grew re-solves warm.
//! * The candidate's own subtasks start cold.
//!
//! An admit is so one derivation and one ordered pass: every subtask is
//! evaluated once and solved at most once, and only the dirty subtasks,
//! the candidate's and those downstream of a bound that grew run the fixed
//! points. A retire removes demand, so the resident hints overshoot; it
//! rebuilds the kernel cold and runs one ordered pass, solving each
//! subtask exactly once. The engine builds into a scratch kernel whose
//! arenas it reuses, and swaps it in on commit. A rejected admit abandons
//! the scratch kernel and never wrote to the resident one, so rollback
//! costs nothing.

use crate::analysis::busy_period::{
    fixed_point_with_hint_counted, utilization_ppm, DemandTerm, FixedPointFailure, FixedPointLimits,
};
use crate::analysis::sa_pm::map_failure;
use crate::analysis::AnalysisConfig;
use crate::error::AnalyzeError;
use crate::task::{ProcessorId, SubtaskId, Task, TaskId, TaskSet};
use crate::time::Dur;

/// A set of IEER bounds, one per subtask: `bounds[i][j]` bounds the time
/// from the release of `T_{i,1}(m)` to the completion of `T_{i,j}(m)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IeerBounds {
    bounds: Vec<Vec<Dur>>,
}

impl IeerBounds {
    /// The optimistic seed of Algorithm SA/DS: `R_{i,j} = Σ_{k≤j} c_{i,k}`
    /// (pure execution, no interference).
    pub fn seed(set: &TaskSet) -> IeerBounds {
        let bounds = set
            .tasks()
            .iter()
            .map(|t| {
                let mut acc = Dur::ZERO;
                t.subtasks()
                    .iter()
                    .map(|s| {
                        acc += s.execution();
                        acc
                    })
                    .collect()
            })
            .collect();
        IeerBounds { bounds }
    }

    /// The optimistic seed of [`seed`](IeerBounds::seed), with individual
    /// entries *raised* to a caller-supplied prior where one is available
    /// (`max(cumulative execution, prior)` per subtask).
    ///
    /// This is the warm seed of an incremental analysis: after a
    /// system grows, the previously *converged* bounds of the retained
    /// subtasks are valid priors — demand growth moves the least fixed
    /// point of the IEERT sweep up, never down, so each old bound still
    /// lies at or below its new converged value. Seeding there skips the
    /// sweeps that would only re-climb already-established ground.
    ///
    /// Soundness requires every prior to be ≤ the subtask's bound at the
    /// **new** least fixed point; priors taken from a *shrunk* system
    /// (after a retirement) violate that and must not be used. The seed
    /// stays within `[optimistic seed, least fixed point]`, where the
    /// monotone sweep provably converges to the same least fixed point as
    /// the cold seed (see `seeded_run_matches_cold_run` in `sa_ds`).
    pub fn seed_with(set: &TaskSet, prior: impl Fn(SubtaskId) -> Option<Dur>) -> IeerBounds {
        let mut seeded = IeerBounds::seed(set);
        for sub in set.subtasks() {
            if let Some(p) = prior(sub.id()) {
                let floor = seeded.get(sub.id());
                seeded.set(sub.id(), floor.max(p));
            }
        }
        seeded
    }

    /// Builds bounds from raw per-subtask values (`[task][chain index]`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the shape does not match any task set the
    /// caller later uses it with; no validation is possible here.
    pub fn from_raw(bounds: Vec<Vec<Dur>>) -> IeerBounds {
        IeerBounds { bounds }
    }

    /// The IEER bound of one subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: SubtaskId) -> Dur {
        self.bounds[id.task().index()][id.index()]
    }

    /// The IEER bound of `id`'s predecessor, or zero for a first subtask
    /// (the paper's `R_{i,j−1}` with `R_{i,0} = 0`).
    pub fn predecessor_bound(&self, id: SubtaskId) -> Dur {
        match id.predecessor() {
            Some(p) => self.get(p),
            None => Dur::ZERO,
        }
    }

    /// The end-to-end bound of a task: the IEER bound of its last subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task_bound(&self, id: TaskId) -> Dur {
        *self.bounds[id.index()]
            .last()
            .expect("chains are non-empty")
    }

    /// Raw bounds, `[task][chain index]`.
    pub fn as_slices(&self) -> &[Vec<Dur>] {
        &self.bounds
    }

    /// Reshapes `self` to one entry per subtask of `set`, reusing its rows
    /// in place. Entries that survive keep stale values and new ones read
    /// zero: a buffer for a pass that writes every entry before reading it.
    pub(crate) fn reshape(&mut self, set: &TaskSet) {
        self.bounds.resize_with(set.num_tasks(), Vec::new);
        for (row, task) in self.bounds.iter_mut().zip(set.tasks()) {
            row.resize(task.chain_len(), Dur::ZERO);
        }
    }

    fn set(&mut self, id: SubtaskId, value: Dur) {
        self.bounds[id.task().index()][id.index()] = value;
    }
}

/// One Jacobi sweep: every new bound is computed from the *input* bounds,
/// exactly as the pseudo-code of Figure 10 reads. A one-sweep wrapper over
/// a fresh (cold) IEERT kernel (see the module docs).
///
/// # Errors
///
/// Any [`AnalyzeError`]; [`AnalyzeError::is_failure`] errors correspond to
/// the paper's "no finite bound" outcome.
pub fn ieert_pass(
    set: &TaskSet,
    current: &IeerBounds,
    cfg: &AnalysisConfig,
) -> Result<IeerBounds, AnalyzeError> {
    let mut next = current.clone();
    IeertKernel::new(set, cfg).jacobi(current, &mut next)?;
    Ok(next)
}

/// The witness of the SA/DS failure certificate: per-subtask lower bounds
/// on every fixed point of the IEERT sweep on `set`, from the linear
/// relaxation of step 3 at `m = 1`, checked exactly (see "The failure
/// certificate" in the module docs). Where SA/DS converges they lie at or
/// below its bounds; where one passes its subtask's failure cap, SA/DS
/// fails.
///
/// `None` when the relaxation gives no checked bound: a level whose
/// interference alone fills its processor, or a failed check.
pub fn relaxed_lower_bounds(set: &TaskSet, cfg: &AnalysisConfig) -> Option<IeerBounds> {
    let x = IeertKernel::new(set, cfg).lower_bounds()?;
    let mut bounds = IeerBounds::seed(set);
    for (sub, x) in set.subtasks().zip(x) {
        bounds.set(sub.id(), Dur::from_ticks(i64::try_from(x).ok()?));
    }
    Some(bounds)
}

/// The IEERT sweep operator of one SA/DS run, kept across its sweeps so
/// every fixed point after the first starts warm (see the module docs for
/// the hint contract, the early-stop lemma and the resident kernel).
///
/// Every subtask's demand terms and completions live in three flat
/// arenas shared by the whole kernel; a [`SubtaskKernel`] holds only its
/// constants, its spans into the arenas and its last fixed points.
#[derive(Clone, Debug)]
pub(crate) struct IeertKernel {
    cfg: AnalysisConfig,
    subtasks: Vec<SubtaskKernel>,
    /// Demand terms, one span per subtask: the interferers in `H_{i,j}`
    /// highest priority first, then the subtask's own term. Jitters are
    /// those of the span owner's last evaluation.
    terms: Vec<DemandTerm>,
    /// The subtask behind each term; its predecessor's IEER bound is the
    /// term's jitter (zero for a first subtask).
    members: Vec<SubtaskId>,
    /// Per-instance completions, one span per subtask:
    /// `completions[span.start + m − 1] = C(m)`, zero where no instance
    /// `m` was solved since the span was last cleared.
    completions: Vec<Dur>,
    /// Evaluations that ran the fixed points since the kernel was built
    /// or derived.
    solved: u64,
}

/// A run of arena slots owned by one subtask.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Steps 1–4 of Figure 10 for one subtask: its constants, hoisted out of
/// the sweeps, plus the fixed points its last evaluation found.
#[derive(Clone, Debug)]
struct SubtaskKernel {
    id: SubtaskId,
    period: Dur,
    execution: Dur,
    /// Blocking by lower-priority non-preemptive work (zero in the paper's
    /// fully preemptive base model).
    blocking: Dur,
    /// `failure_factor × period`.
    cap: Dur,
    /// This subtask's demand terms in the kernel's `terms` and `members`.
    terms: Span,
    /// This subtask's slots in the kernel's `completions`.
    completions: Span,
    /// The last busy-period length `D` (zero before the first evaluation).
    busy: Dur,
    /// The IEER bound the last evaluation returned, under the jitters in
    /// its terms; `None` before the first evaluation and after a failed one.
    last: Option<Dur>,
}

impl IeertKernel {
    /// A cold kernel for `set`: no fixed point solved yet.
    pub(crate) fn new(set: &TaskSet, cfg: &AnalysisConfig) -> IeertKernel {
        let mut kernel = IeertKernel::empty(cfg);
        kernel.rebuild(set);
        kernel
    }

    /// Rebuilds `self` as a cold kernel for `set`, reusing its arenas.
    pub(crate) fn rebuild(&mut self, set: &TaskSet) {
        self.clear();
        for sub in set.subtasks() {
            self.push_fresh(set, sub.id());
        }
    }

    fn clear(&mut self) {
        self.subtasks.clear();
        self.terms.clear();
        self.members.clear();
        self.completions.clear();
        self.solved = 0;
    }

    /// The kernel of a system without subtasks.
    pub(crate) fn empty(cfg: &AnalysisConfig) -> IeertKernel {
        IeertKernel {
            cfg: *cfg,
            subtasks: Vec::new(),
            terms: Vec::new(),
            members: Vec::new(),
            completions: Vec::new(),
            solved: 0,
        }
    }

    /// The limits the kernel runs under.
    pub(crate) fn cfg(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Appends a cold kernel for `id` of `set`.
    fn push_fresh(&mut self, set: &TaskSet, id: SubtaskId) {
        let start = self.terms.len();
        for s in set.interference_set(id).chain([set.subtask(id)]) {
            let period = set.task(s.id().task()).period();
            self.terms.push(DemandTerm::periodic(period, s.execution()));
            self.members.push(s.id());
        }
        let period = set.task(id.task()).period();
        self.subtasks.push(SubtaskKernel {
            id,
            period,
            execution: set.subtask(id).execution(),
            blocking: set.blocking_bound(id),
            cap: self.cfg.cap_for_period(period),
            terms: Span {
                start,
                len: self.terms.len() - start,
            },
            completions: Span {
                start: self.completions.len(),
                len: 0,
            },
            busy: Dur::ZERO,
            last: None,
        });
    }

    /// Rebuilds `self` as the kernel of `set`: `resident`'s task set with
    /// one chain inserted at task position `pos_c`, where `resident` holds
    /// the converged state of its last SA/DS run. `self`'s arenas are
    /// reused, so a warm steady state allocates nothing.
    ///
    /// Resident subtasks above the candidate are copied as they are. Those
    /// below it get the candidate's subtasks on their processor spliced
    /// into their interference; the ones that gain a term are dirty. The
    /// candidate's own subtasks start cold (see the module docs).
    pub(crate) fn derive(&mut self, resident: &IeertKernel, set: &TaskSet, pos_c: usize) {
        self.cfg = resident.cfg;
        self.clear();
        let candidate = set.task(TaskId::new(pos_c));
        let above = resident
            .subtasks
            .partition_point(|s| s.id.task().index() < pos_c);
        for old in &resident.subtasks[..above] {
            self.push_resident(resident, old, pos_c, None);
        }
        for sub in candidate.subtasks() {
            self.push_fresh(set, sub.id());
        }
        for old in &resident.subtasks[above..] {
            let proc = set.subtask(shifted(old.id, pos_c)).processor();
            self.push_resident(resident, old, pos_c, Some((candidate, proc)));
        }
    }

    /// Appends resident subtask `old`, renumbered for a chain inserted at
    /// task position `pos_c`. `above` is that chain and `old`'s processor
    /// when the chain sits above `old`: its subtasks there join `old`'s
    /// interference, and a subtask that gains a term drops its cached
    /// value but keeps its fixed points as warm hints (demand only grew).
    fn push_resident(
        &mut self,
        resident: &IeertKernel,
        old: &SubtaskKernel,
        pos_c: usize,
        above: Option<(&Task, ProcessorId)>,
    ) {
        let id = shifted(old.id, pos_c);
        // An inserted chain could change a blocking term only through
        // non-preemptive work or critical sections, which admitted chains
        // cannot declare; the copy keeps the old term.
        debug_assert_eq!(old.blocking, Dur::ZERO, "admitted chains never block");
        let terms = &resident.terms[old.terms.range()];
        let members = &resident.members[old.terms.range()];
        // Interferers above the inserted chain keep their numbers.
        let split = members.partition_point(|m| m.task().index() < pos_c);
        let start = self.terms.len();
        self.terms.extend_from_slice(&terms[..split]);
        self.members.extend_from_slice(&members[..split]);
        if let Some((chain, proc)) = above {
            for sub in chain.subtasks().iter().filter(|s| s.processor() == proc) {
                self.terms
                    .push(DemandTerm::periodic(chain.period(), sub.execution()));
                self.members.push(sub.id());
            }
        }
        let dirty = self.terms.len() - start > split;
        self.terms.extend_from_slice(&terms[split..]);
        self.members
            .extend(members[split..].iter().map(|&m| shifted(m, pos_c)));
        let completions = Span {
            start: self.completions.len(),
            len: old.completions.len,
        };
        self.completions
            .extend_from_slice(&resident.completions[old.completions.range()]);
        self.subtasks.push(SubtaskKernel {
            id,
            terms: Span {
                start,
                len: self.terms.len() - start,
            },
            completions,
            last: if dirty { None } else { old.last },
            ..*old
        });
    }

    /// One Jacobi sweep: `next[s] = IEERT(current)[s]` for every subtask.
    pub(crate) fn jacobi(
        &mut self,
        current: &IeerBounds,
        next: &mut IeerBounds,
    ) -> Result<(), AnalyzeError> {
        for k in 0..self.subtasks.len() {
            let value = self.ieer(k, current)?;
            next.set(self.subtasks[k].id, value);
        }
        Ok(())
    }

    /// Whether one Jacobi sweep from `bounds` returns them unchanged,
    /// checked subtask by subtask with no output buffer; the first error
    /// ends the sweep.
    pub(crate) fn fixes(&mut self, bounds: &IeerBounds) -> Result<bool, AnalyzeError> {
        for k in 0..self.subtasks.len() {
            if self.ieer(k, bounds)? != bounds.get(self.subtasks[k].id) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// One Gauss–Seidel pass in kernel index order: each subtask is
    /// evaluated once, under the bounds this pass already wrote for the
    /// subtasks before it, and its value is written to `bounds` in place.
    /// Nothing in `bounds` is read before the pass writes it.
    ///
    /// On a kernel whose every jitter source precedes the subtask that
    /// reads it (chain-major priorities, as the admission engine assigns
    /// them), this is the least fixed point of the sweep operator, with
    /// each subtask solved at most once (see "The ordered pass" in the
    /// module docs). The first error ends the pass.
    pub(crate) fn ordered_pass(&mut self, bounds: &mut IeerBounds) -> Result<(), AnalyzeError> {
        for k in 0..self.subtasks.len() {
            let id = self.subtasks[k].id;
            debug_assert!(
                k == 0 || self.subtasks[k - 1].id < id,
                "kernel order is (task, link) order"
            );
            debug_assert!(
                self.members[self.subtasks[k].terms.range()]
                    .iter()
                    .filter_map(|m| m.predecessor())
                    .all(|source| source < id),
                "a jitter source of {id:?} comes at or after it in kernel order"
            );
            let value = self.ieer(k, bounds)?;
            bounds.set(id, value);
        }
        Ok(())
    }

    /// A proof, before any sweep, that the sweep operator has no fixed
    /// point under the failure caps: `BoundExceedsCap` at the first subtask,
    /// in kernel index order, whose certified lower bound passes its cap,
    /// or `None` when the relaxation proves nothing (see "The failure
    /// certificate" in the module docs).
    pub(crate) fn certify_failure(&self) -> Option<AnalyzeError> {
        let x = self.lower_bounds()?;
        let sub = self
            .subtasks
            .iter()
            .zip(&x)
            .find(|(sub, &x)| x > i128::from(sub.cap.ticks()))?
            .0;
        Some(AnalyzeError::BoundExceedsCap {
            subtask: sub.id,
            cap: sub.cap,
        })
    }

    /// Integer lower bounds, in kernel order, on the IEER bounds of every
    /// fixed point of the sweep operator: a solution of the linear
    /// relaxation of IEERT step 3 at `m = 1`, checked exactly. `None` when
    /// a level's interference alone fills its processor or the check
    /// fails. Reads only the kernel's constants.
    fn lower_bounds(&self) -> Option<Vec<i128>> {
        let n = self.subtasks.len();
        // Kernel order is (task, link) order: a subtask's index is its
        // chain's first index plus its link.
        let first: Vec<usize> = (0..n).filter(|&k| self.subtasks[k].id.is_first()).collect();
        let index = |id: SubtaskId| first[id.task().index()] + id.index();
        let ticks = |d: Dur| d.ticks() as f64;

        // Row k, its constant lowered by |H| + 3 ticks so that the floors
        // of the exact check below cannot undo it:
        // x_k = x_pred + (c + b − |H| − 3 + Σ_h u_h·x_src(h)) / (1 − U_H),
        // held as `konst[k]` plus weights on the sources in `sources`.
        let mut konst = Vec::with_capacity(n);
        let mut spans = Vec::with_capacity(n);
        let mut sources: Vec<(usize, f64)> = Vec::new();
        for sub in &self.subtasks {
            let range = sub.terms.range();
            let interference = &self.terms[range.start..range.end - 1];
            let load: f64 = interference
                .iter()
                .map(|t| ticks(t.execution) / ticks(t.period))
                .sum();
            if load >= 1.0 {
                // This level's busy period diverges: the first sweep
                // reports the overload.
                return None;
            }
            let scale = 1.0 / (1.0 - load);
            let margin = interference.len() as f64 + 3.0;
            konst.push((ticks(sub.execution) + ticks(sub.blocking) - margin) * scale);
            let start = sources.len();
            for (t, m) in interference.iter().zip(&self.members[range]) {
                if let Some(p) = m.predecessor() {
                    sources.push((index(p), ticks(t.execution) / ticks(t.period) * scale));
                }
            }
            spans.push(start..sources.len());
        }

        // Gauss–Seidel from zero. The iterates only rise and each stays a
        // sub-solution of the lowered rows, so stopping early is safe: stop
        // once no entry rises by a tick or one passes four times its cap.
        let mut x = vec![0.0_f64; n];
        for _ in 0..self.cfg.max_outer_iterations {
            let (mut moved, mut blown) = (false, false);
            for (k, sub) in self.subtasks.iter().enumerate() {
                let own = sub.id.predecessor().map_or(0.0, |p| x[index(p)]);
                let value = sources[spans[k].clone()]
                    .iter()
                    .fold(own + konst[k], |acc, &(src, w)| acc + w * x[src])
                    .max(0.0);
                moved |= value >= x[k] + 1.0;
                blown |= value > 4.0 * ticks(sub.cap);
                x[k] = value;
            }
            if !moved || blown {
                break;
            }
        }
        if !x.iter().all(|v| v.is_finite()) {
            return None;
        }
        let x: Vec<i128> = x.iter().map(|v| v.floor() as i128).collect();

        // The exact check, in integers: with `d = x_k − x_pred`, every row
        // has `d ≤ 0` or `d ≤ c + b + Σ_h ⌊c_h·(d + x_src(h))/p_h⌋`.
        for (k, sub) in self.subtasks.iter().enumerate() {
            let range = sub.terms.range();
            let d = x[k] - sub.id.predecessor().map_or(0, |p| x[index(p)]);
            if d <= 0 {
                continue;
            }
            let mut rhs = i128::from(sub.execution.ticks()) + i128::from(sub.blocking.ticks());
            for (t, m) in self.terms[range.start..range.end - 1]
                .iter()
                .zip(&self.members[range])
            {
                let window = d + m.predecessor().map_or(0, |p| x[index(p)]);
                let demand = i128::from(t.execution.ticks()).checked_mul(window)?;
                rhs = rhs.checked_add(demand / i128::from(t.period.ticks()))?;
            }
            if d > rhs {
                return None;
            }
        }
        Some(x)
    }

    /// Subtask evaluations since the kernel was built or derived that ran
    /// the fixed points rather than returning the last value under
    /// unchanged jitters.
    pub(crate) fn solved(&self) -> u64 {
        self.solved
    }

    /// Steps 1–4 of Figure 10 for subtask `k` under the jitters in
    /// `bounds`.
    fn ieer(&mut self, k: usize, bounds: &IeerBounds) -> Result<Dur, AnalyzeError> {
        let sub = &mut self.subtasks[k];
        let terms = &mut self.terms[sub.terms.range()];
        let members = &self.members[sub.terms.range()];
        // Cached fixed points stay valid lower hints only while no jitter
        // they were solved under has since dropped.
        let mut warm = true;
        let mut unchanged = true;
        for (term, member) in terms.iter_mut().zip(members) {
            let jitter = member.predecessor().map_or(Dur::ZERO, |p| bounds.get(p));
            warm &= jitter >= term.jitter;
            unchanged &= jitter == term.jitter;
            term.jitter = jitter;
        }
        // IEERT is a function of these jitters alone: the same inputs give
        // the last evaluation's value.
        if let (true, Some(value)) = (unchanged, sub.last) {
            return Ok(value);
        }
        if !warm {
            sub.busy = Dur::ZERO;
            self.completions[sub.completions.range()].fill(Dur::ZERO);
        }
        self.solved += 1;
        sub.last = None;
        let value = sub.solve(terms, &mut self.completions, &self.cfg)?;
        sub.last = Some(value);
        Ok(value)
    }
}

impl SubtaskKernel {
    /// The fixed points of steps 1–4 under the jitters in `terms`,
    /// warm-started from `busy` and this subtask's span of `completions`,
    /// which moves to the arena's end when it needs more slots.
    fn solve(
        &mut self,
        terms: &[DemandTerm],
        completions: &mut Vec<Dur>,
        cfg: &AnalysisConfig,
    ) -> Result<Dur, AnalyzeError> {
        let id = self.id;
        let overflow = || AnalyzeError::ArithmeticOverflow { subtask: id };
        let (own, interference) = terms.split_last().expect("own term is last");
        let own_jitter = own.jitter;

        // Step 1: busy-period duration with jittered demand.
        let busy_cap = busy_period_cap(terms, cfg);
        let limits = FixedPointLimits::new(busy_cap, cfg.max_fixed_point_iterations);
        let (duration, _) = fixed_point_with_hint_counted(self.busy, self.blocking, terms, limits)
            .map_err(|f| match f {
                FixedPointFailure::ExceedsCap => {
                    let utilization_ppm = utilization_ppm(terms);
                    if utilization_ppm >= 1_000_000 {
                        AnalyzeError::Overload {
                            subtask: id,
                            utilization_ppm,
                        }
                    } else {
                        // Below capacity but the jitter terms alone exceed
                        // the cap: the bounds have blown up — a failure,
                        // not an overload.
                        AnalyzeError::BoundExceedsCap {
                            subtask: id,
                            cap: busy_cap,
                        }
                    }
                }
                other => map_failure(other, id, busy_cap),
            })?;
        self.busy = duration;

        // Step 2: instances to examine.
        let reach = duration.checked_add(own_jitter).ok_or_else(overflow)?;
        let instances = reach.ceil_div(self.period).max(1);

        // Steps 3–4: per-instance completion and IEER times, maximized.
        let limits = FixedPointLimits::new(duration, cfg.max_fixed_point_iterations);
        let mut worst = Dur::ZERO;
        let mut prev_completion = Dur::ZERO;
        for m in 1..=instances {
            let release = self.period * (m - 1);
            // Early stop: C(m) ≤ D, so R(m) ≤ D + J − (m−1)p, which only
            // falls with m. Once it is ≤ worst no later instance can raise
            // the maximum or trip the cap.
            if reach - release <= worst {
                break;
            }
            let offset = self
                .execution
                .checked_mul(m)
                .and_then(|x| x.checked_add(self.blocking))
                .ok_or_else(overflow)?;
            let slot = (m - 1) as usize;
            if slot == self.completions.len {
                // Out of slots: move the span to the arena's end, doubled.
                let start = completions.len();
                completions.extend_from_within(self.completions.range());
                completions.resize(start + (2 * slot).max(2), Dur::ZERO);
                self.completions = Span {
                    start,
                    len: completions.len() - start,
                };
            }
            let cached = &mut completions[self.completions.start + slot];
            let hint = prev_completion.max(*cached);
            let (completion, _) = fixed_point_with_hint_counted(hint, offset, interference, limits)
                .map_err(|f| map_failure(f, id, duration))?;
            *cached = completion;
            prev_completion = completion;
            let ieer = completion.checked_add(own_jitter).ok_or_else(overflow)? - release;
            worst = worst.max(ieer);
            // Once the per-instance IEER already exceeds the failure cap
            // there is no point examining further instances this sweep:
            // the outer SA/DS loop will declare failure anyway.
            if worst > self.cap {
                return Err(AnalyzeError::BoundExceedsCap {
                    subtask: id,
                    cap: self.cap,
                });
            }
        }

        Ok(worst)
    }
}

/// `id` renumbered for a chain inserted at task position `pos_c`: chains
/// at or below that position move one task index down.
fn shifted(id: SubtaskId, pos_c: usize) -> SubtaskId {
    if id.task().index() >= pos_c {
        SubtaskId::new(TaskId::new(id.task().index() + 1), id.index())
    } else {
        id
    }
}

/// Busy-period search limit: base periods scaled by the failure factor,
/// plus the jitters (which shift demand without adding steady-state load).
fn busy_period_cap(terms: &[DemandTerm], cfg: &AnalysisConfig) -> Dur {
    let total_period: Dur = terms.iter().map(|t| t.period).sum();
    let total_jitter: Dur = terms.iter().map(|t| t.jitter).sum();
    total_period
        .saturating_mul(cfg.failure_factor)
        .saturating_add(total_jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::example2;
    use crate::task::Priority;
    use crate::time::Dur;

    fn d(t: i64) -> Dur {
        Dur::from_ticks(t)
    }

    fn sid(t: usize, j: usize) -> SubtaskId {
        SubtaskId::new(TaskId::new(t), j)
    }

    #[test]
    fn seed_is_cumulative_execution() {
        let set = example2();
        let seed = IeerBounds::seed(&set);
        assert_eq!(seed.get(sid(0, 0)), d(2));
        assert_eq!(seed.get(sid(1, 0)), d(2));
        assert_eq!(seed.get(sid(1, 1)), d(5));
        assert_eq!(seed.get(sid(2, 0)), d(2));
        assert_eq!(seed.task_bound(TaskId::new(1)), d(5));
        assert_eq!(seed.predecessor_bound(sid(1, 1)), d(2));
        assert_eq!(seed.predecessor_bound(sid(1, 0)), Dur::ZERO);
    }

    #[test]
    fn first_pass_on_example2() {
        // Hand-computed sweep from the seed (see module docs for the
        // equations): T0.0 → 2, T1.0 → 4, T1.1 → 5 (jitter 2),
        // T2.0 → 8 (two jittered T1.1 instances can land in its window).
        let set = example2();
        let seed = IeerBounds::seed(&set);
        let pass1 = ieert_pass(&set, &seed, &AnalysisConfig::default()).unwrap();
        assert_eq!(pass1.get(sid(0, 0)), d(2));
        assert_eq!(pass1.get(sid(1, 0)), d(4));
        assert_eq!(pass1.get(sid(1, 1)), d(5));
        assert_eq!(pass1.get(sid(2, 0)), d(8));
    }

    #[test]
    fn second_pass_reaches_fixpoint_values() {
        let set = example2();
        let cfg = AnalysisConfig::default();
        let seed = IeerBounds::seed(&set);
        let pass1 = ieert_pass(&set, &seed, &cfg).unwrap();
        let pass2 = ieert_pass(&set, &pass1, &cfg).unwrap();
        // T1.1 now sees jitter R_{1,0} = 4: IEER 7. T2.0 stays 8.
        assert_eq!(pass2.get(sid(1, 1)), d(7));
        assert_eq!(pass2.get(sid(2, 0)), d(8));
        let pass3 = ieert_pass(&set, &pass2, &cfg).unwrap();
        assert_eq!(pass3, pass2, "fixed point reached");
    }

    #[test]
    fn zero_jitter_reduces_to_sa_pm_for_first_subtasks() {
        use crate::analysis::sa_pm::analyze_pm;
        let set = example2();
        let cfg = AnalysisConfig::default();
        let pm = analyze_pm(&set, &cfg).unwrap();
        let seed = IeerBounds::seed(&set);
        let pass1 = ieert_pass(&set, &seed, &cfg).unwrap();
        // A first subtask whose interferers are also first subtasks sees no
        // jitter anywhere, so one IEERT step computes exactly the SA/PM
        // response bound: true for T0.0 (no interference) and T1.0
        // (interfered only by T0.0).
        assert_eq!(pass1.get(sid(0, 0)), pm.response(sid(0, 0)));
        assert_eq!(pass1.get(sid(1, 0)), pm.response(sid(1, 0)));
        // T2.0 is interfered by the *second* subtask T1.1, whose release
        // jitter inflates the IEERT bound beyond SA/PM's.
        assert!(pass1.get(sid(2, 0)) > pm.response(sid(2, 0)));
    }

    #[test]
    fn failure_cap_fires_for_hopeless_systems() {
        // Two long chains ping-ponging between two fully loaded processors:
        // jitter feedback grows without bound. util per proc = 1.0.
        let set = crate::task::TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(5), Priority::new(0))
            .subtask(1, d(5), Priority::new(1))
            .finish_task()
            .task(d(10))
            .subtask(1, d(5), Priority::new(0))
            .subtask(0, d(5), Priority::new(1))
            .finish_task()
            .build()
            .unwrap();
        let cfg = AnalysisConfig {
            failure_factor: 10,
            ..AnalysisConfig::default()
        };
        let mut bounds = IeerBounds::seed(&set);
        let mut failed = false;
        for _ in 0..200 {
            match ieert_pass(&set, &bounds, &cfg) {
                Ok(next) => {
                    if next == bounds {
                        break;
                    }
                    bounds = next;
                }
                Err(e) => {
                    assert!(e.is_failure(), "unexpected error kind: {e:?}");
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "expected the failure criterion to fire");
    }

    #[test]
    fn seed_with_raises_entries_but_never_lowers_them() {
        let set = example2();
        // A prior below the optimistic seed is ignored (the seed is a
        // hard floor); one above it wins.
        let seeded = IeerBounds::seed_with(&set, |id| {
            if id == sid(1, 1) {
                Some(d(7)) // converged value, above the seed of 5
            } else if id == sid(0, 0) {
                Some(d(1)) // below the seed of 2: ignored
            } else {
                None
            }
        });
        assert_eq!(seeded.get(sid(1, 1)), d(7));
        assert_eq!(seeded.get(sid(0, 0)), d(2));
        assert_eq!(seeded.get(sid(2, 0)), d(2));
        // No priors at all: identical to the plain seed.
        let plain = IeerBounds::seed_with(&set, |_| None);
        assert_eq!(plain, IeerBounds::seed(&set));
    }

    #[test]
    fn unchanged_jitters_reuse_only_a_value_solved_under_them() {
        // Example 2's converged bounds A, and B with T1.0 lowered: T1.1 and
        // T2.0 see T1.0's bound as a jitter, T0.0 and T1.0 see none. Each
        // sweep of one long-lived kernel must equal a fresh kernel's, and
        // only the evaluations whose jitters moved run the fixed points.
        let set = example2();
        let cfg = AnalysisConfig::default();
        let a = IeerBounds::from_raw(vec![vec![d(2)], vec![d(4), d(7)], vec![d(8)]]);
        let mut b = a.clone();
        b.set(sid(1, 0), d(2));
        let mut kernel = IeertKernel::new(&set, &cfg);
        let mut solved = Vec::new();
        for input in [&a, &b, &a, &a, &b] {
            let mut next = input.clone();
            kernel.jacobi(input, &mut next).unwrap();
            assert_eq!(next, ieert_pass(&set, input, &cfg).unwrap());
            solved.push(kernel.solved());
        }
        assert_eq!(solved, vec![4, 6, 8, 8, 10]);
    }

    #[test]
    fn one_ordered_pass_reaches_the_least_fixed_point() {
        // Example 2's jitter sources all precede their readers: T1.1 and
        // T2.0 read T1.0's bound. One pass gives the Jacobi fixed point,
        // solving each subtask once; a second pass solves nothing.
        let set = example2();
        let cfg = AnalysisConfig::default();
        let mut kernel = IeertKernel::new(&set, &cfg);
        let mut bounds = IeerBounds::from_raw(Vec::new());
        bounds.reshape(&set);
        kernel.ordered_pass(&mut bounds).unwrap();
        let sweeps = crate::analysis::sa_ds::analyze_ds(&set, &cfg).unwrap();
        assert_eq!(&bounds, sweeps.bounds());
        assert_eq!(kernel.solved(), 4);
        kernel.ordered_pass(&mut bounds).unwrap();
        assert_eq!(&bounds, sweeps.bounds());
        assert_eq!(kernel.solved(), 4);
    }

    #[test]
    fn from_raw_roundtrips() {
        let b = IeerBounds::from_raw(vec![vec![d(1), d(2)], vec![d(3)]]);
        assert_eq!(b.get(sid(0, 1)), d(2));
        assert_eq!(b.task_bound(TaskId::new(1)), d(3));
        assert_eq!(b.as_slices().len(), 2);
    }
}
