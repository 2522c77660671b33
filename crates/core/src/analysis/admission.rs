//! Incremental online admission control over the paper's analyses.
//!
//! The batch algorithms ([`analyze_pm`], [`analyze_ds`]) answer "is this
//! *whole system* schedulable?" in one shot. A serving system asks a
//! different question thousands of times: *given the chains already
//! resident, may this one join?* [`AdmissionState`] keeps the resident
//! system and its converged fixed points in memory and answers
//! [`admit`](AdmissionState::admit) / [`retire`](AdmissionState::retire)
//! requests by re-running only the work an operation can actually change:
//!
//! * **In-place resident set** — the residents' [`TaskSet`] is edited,
//!   not rebuilt: an admit inserts the candidate's chain
//!   ([`TaskSet::insert_chain`]) and removes it again on any reject, and a
//!   retire removes the retired chain ([`TaskSet::remove_chain`]).
//! * **Quick-reject gate** — per-processor utilization, summed with
//!   *truncating* division and kept as running per-processor totals, so a
//!   decision divides only the candidate's terms. The gate only ever
//!   rejects, so flooring is the
//!   sound direction: `floor_sum > 10⁶ ⟹ true utilization > 1 ⟹` the
//!   lowest level's busy period diverges and the full analysis would
//!   reject anyway. (The *reporting* counterpart
//!   [`utilization_ppm`](crate::analysis::busy_period::utilization_ppm)
//!   rounds **up** for the dual reason: a diagnostic must never understate
//!   saturation.) A set at exactly 100% passes the gate and gets the real
//!   analysis, which it may well survive.
//! * **Dirty-set invalidation** (PM family) — per-processor analysis means
//!   a subtask's bounds change only when its *interference set* changes.
//!   Admitting chain `C` dirties exactly the resident subtasks that share
//!   a processor with `C` and sit below it in priority; retiring `C`
//!   dirties the same set. Everything else keeps its memo untouched.
//! * **Warm-started fixed points** — on admission, demand only grows, so
//!   every memoized fixed point is ≤ its new value and seeds the re-run
//!   via [`fixed_point_with_hint_counted`]; on retirement demand shrinks, the
//!   memos overshoot, and dirty subtasks are recomputed cold.
//! * **Resident IEERT kernel** (DS mode) — the engine keeps the kernel of
//!   its last committed SA/DS run at the converged bounds. An admit
//!   derives the next run's kernel from it under the same dirty rule:
//!   clean subtasks keep their cached values, dirty ones keep their fixed
//!   points as warm hints. Chain-major priorities make every jitter source
//!   precede the subtask that reads it, so one pass in priority order
//!   reaches the least fixed point with no Jacobi sweeps, solving each
//!   subtask at most once; a retire rebuilds the kernel cold and runs the
//!   same pass (see [`crate::analysis::ieert`]).
//!
//! Every shortcut above is *exact*: with memoization disabled the engine
//! recomputes everything from scratch, and the two modes produce
//! bit-identical verdicts and bounds (the differential property tested in
//! `crates/core/tests/proptests.rs`).
//!
//! The engine serves the paper's fully preemptive, resource-free base
//! model: admitted chains cannot declare non-preemptive subtasks or
//! critical sections, so blocking terms are always zero and priority-
//! *insertion* below a subtask can never dirty it.
//!
//! [`analyze_pm`]: crate::analysis::sa_pm::analyze_pm
//! [`analyze_ds`]: crate::analysis::sa_ds::analyze_ds
//! [`fixed_point_with_hint_counted`]: crate::analysis::busy_period::fixed_point_with_hint_counted

use std::fmt;

use crate::analysis::ieert::{IeerBounds, IeertKernel};
use crate::analysis::sa_ds::sweep_to_fixed_point;
use crate::analysis::sa_pm::{subtask_response_memo, SubtaskMemo};
use crate::analysis::AnalysisConfig;
use crate::error::{AnalyzeError, ValidateTaskSetError};
use crate::task::{ProcessorId, Task, TaskId, TaskSet};
use crate::time::Dur;

/// Which analysis family backs the verdicts.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum AdmissionMode {
    /// Algorithm SA/PM — valid for the PM, MPM and (by Theorem 1) RG
    /// protocols. Processor-local analysis with per-subtask memoization.
    #[default]
    PmFamily,
    /// Algorithm SA/DS — the Direct Synchronization protocol. Globally
    /// coupled sweeps on a kernel derived from the previous run's.
    DirectSync,
}

/// Tuning knobs of an [`AdmissionState`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdmissionConfig {
    /// Which analysis backs the verdicts.
    pub mode: AdmissionMode,
    /// Limits handed to the underlying analysis.
    pub analysis: AnalysisConfig,
    /// `false` disables the dirty-set/warm-start machinery: every decision
    /// re-analyzes the whole resident system from scratch. The results are
    /// bit-identical either way — the cold mode exists as the differential
    /// oracle and for the speedup ablation.
    pub memoization: bool,
    /// `false` disables the utilization quick-reject gate (ablation knob).
    pub quick_gate: bool,
}

impl AdmissionConfig {
    /// Defaults for a mode: memoization and the quick gate enabled.
    pub fn new(mode: AdmissionMode) -> AdmissionConfig {
        AdmissionConfig {
            mode,
            analysis: AnalysisConfig::DEFAULT,
            memoization: true,
            quick_gate: true,
        }
    }

    /// Toggles memoization (builder style).
    #[must_use]
    pub fn with_memoization(mut self, on: bool) -> AdmissionConfig {
        self.memoization = on;
        self
    }

    /// Toggles the utilization quick-reject gate (builder style).
    #[must_use]
    pub fn with_quick_gate(mut self, on: bool) -> AdmissionConfig {
        self.quick_gate = on;
        self
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::new(AdmissionMode::PmFamily)
    }
}

/// One chain asking to join: the caller-facing description of a task.
///
/// Priorities are not part of the request — the engine derives unique
/// per-processor priorities from `rank` (lower = more important) with
/// admission order as the tie-break, so equal-rank chains never collide
/// and a low-rank arrival lands *above* resident higher-rank chains.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChainRequest {
    /// Caller-assigned identity; must be unique among residents.
    pub id: u64,
    /// Period of the chain's first subtask.
    pub period: Dur,
    /// End-to-end relative deadline (defaults to the period).
    pub deadline: Dur,
    /// Importance rank: lower ranks get higher priorities. Ties broken by
    /// admission order (earlier = higher).
    pub rank: u32,
    /// The chain: `(processor, execution)` per subtask, in precedence
    /// order. Consecutive subtasks must name different processors.
    pub subtasks: Vec<(usize, Dur)>,
}

impl ChainRequest {
    /// A request with deadline = period and rank 0.
    pub fn new(id: u64, period: Dur, subtasks: Vec<(usize, Dur)>) -> ChainRequest {
        ChainRequest {
            id,
            period,
            deadline: period,
            rank: 0,
            subtasks,
        }
    }

    /// Sets the end-to-end deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Dur) -> ChainRequest {
        self.deadline = deadline;
        self
    }

    /// Sets the importance rank (builder style).
    #[must_use]
    pub fn with_rank(mut self, rank: u32) -> ChainRequest {
        self.rank = rank;
        self
    }
}

/// A task set as admission requests: one chain per task, id = task
/// index, ranked shortest-period-first (the deadline-monotonic order the
/// §5.1 workload generator assigns priorities in).
pub fn requests_of(set: &TaskSet) -> Vec<ChainRequest> {
    set.tasks()
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let subtasks = task
                .subtasks()
                .iter()
                .map(|sub| (sub.processor().index(), sub.execution()))
                .collect();
            ChainRequest::new(i as u64, task.period(), subtasks)
                .with_deadline(task.deadline())
                .with_rank(task.period().ticks().min(i64::from(u32::MAX)) as u32)
        })
        .collect()
}

/// Why an admission request was turned away.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum RejectReason {
    /// A resident chain already uses the requested id.
    DuplicateId,
    /// The chain violates the task model (empty, bad processor, …).
    Invalid(ValidateTaskSetError),
    /// The floor-rounded utilization of some processor would exceed 100%:
    /// the busy period at its lowest level cannot drain, so the full
    /// analysis is guaranteed to reject — skipped entirely.
    UtilizationGate {
        /// The saturated processor.
        processor: ProcessorId,
        /// Its floor-rounded utilization, in ppm (> 1 000 000).
        utilization_ppm: u64,
    },
    /// The analysis found no finite bound (overload, cap, divergence).
    Analysis(AnalyzeError),
    /// Every bound is finite but some chain — the candidate or a resident
    /// it would preempt — misses its end-to-end deadline.
    DeadlineMiss {
        /// The chain that would miss.
        chain: u64,
        /// Its bound under the grown system.
        bound: Dur,
        /// Its end-to-end deadline.
        deadline: Dur,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::DuplicateId => write!(f, "duplicate chain id"),
            RejectReason::Invalid(e) => write!(f, "invalid chain: {e}"),
            RejectReason::UtilizationGate {
                processor,
                utilization_ppm,
            } => write!(
                f,
                "utilization gate: {processor} at {utilization_ppm} ppm exceeds capacity"
            ),
            RejectReason::Analysis(e) => write!(f, "analysis failure: {e}"),
            RejectReason::DeadlineMiss {
                chain,
                bound,
                deadline,
            } => write!(
                f,
                "chain {chain} would miss its deadline: bound {bound} > {deadline}"
            ),
        }
    }
}

/// The outcome of one [`AdmissionState::admit`] call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Decision {
    /// Whether the chain was admitted.
    pub admitted: bool,
    /// The candidate's end-to-end response-time bound, when admitted.
    pub bound: Option<Dur>,
    /// Why the chain was rejected (`None` when admitted).
    pub reject: Option<RejectReason>,
    /// Subtask analyses actually re-run for this decision.
    pub reanalyzed: usize,
    /// Subtask analyses skipped thanks to memoization.
    pub skipped: usize,
    /// Chains resident *after* the decision.
    pub residents: usize,
}

/// The outcome of one successful [`AdmissionState::retire`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetireOutcome {
    /// Subtask analyses re-run to refresh the shrunk system.
    pub reanalyzed: usize,
    /// Subtask analyses kept untouched.
    pub skipped: usize,
    /// Chains resident after the retirement.
    pub residents: usize,
}

/// Why a retirement failed.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum RetireError {
    /// No resident chain has the given id.
    UnknownChain(u64),
    /// Re-analysis of the shrunk system failed — impossible for systems
    /// the engine admitted (demand only shrank), kept for honesty.
    Analysis(AnalyzeError),
}

impl fmt::Display for RetireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetireError::UnknownChain(id) => write!(f, "no resident chain with id {id}"),
            RetireError::Analysis(e) => write!(f, "re-analysis after retirement failed: {e}"),
        }
    }
}

impl std::error::Error for RetireError {}

/// Cumulative counters across an [`AdmissionState`]'s lifetime.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct AdmissionStats {
    /// Admission decisions served (admitted + rejected).
    pub decisions: u64,
    /// Chains admitted.
    pub admitted: u64,
    /// Chains rejected (any reason).
    pub rejected: u64,
    /// Rejections decided by the utilization gate alone.
    pub gate_rejects: u64,
    /// Chains retired.
    pub retired: u64,
    /// Subtask analyses re-run.
    pub subtasks_reanalyzed: u64,
    /// Subtask analyses skipped thanks to memoization.
    pub subtasks_skipped: u64,
}

/// One resident chain and its memoized analysis state; its task lives in
/// the engine's task set.
#[derive(Clone, Debug)]
struct Resident {
    /// Caller-assigned identity.
    id: u64,
    /// Importance rank, for placing later arrivals.
    rank: u32,
    /// PM family: per-subtask fixed-point memos.
    memos: Vec<SubtaskMemo>,
    /// End-to-end bound under the current resident system.
    bound: Dur,
}

/// The resident admission-control engine. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct AdmissionState {
    cfg: AdmissionConfig,
    /// Resident chains in derived priority order: sorted by rank, with
    /// ties broken by admission seniority (earlier admits sit higher).
    /// Resident `pos` is task `pos` of `set`.
    residents: Vec<Resident>,
    /// The residents' task set in chain order, edited in place: an admit
    /// inserts the candidate's chain and removes it again on a reject, a
    /// retire removes the retired chain.
    set: TaskSet,
    /// Per processor, the sum of the residents' floor-rounded subtask
    /// utilizations in ppm: the quick gate's running total.
    load_ppm: Vec<u64>,
    /// PM family: `(position, link, memo)` for each resident subtask the
    /// admit in progress re-solved; written back only if it commits.
    fresh: Vec<(usize, usize, SubtaskMemo)>,
    /// DS: the IEERT kernel of the last committed SA/DS run, at its
    /// converged bounds. `None` when no run describes the residents (no
    /// resident, or a failed retire); the next admit then runs cold.
    kernel: Option<IeertKernel>,
    /// DS: the kernel the next run builds or derives into. On commit it
    /// becomes the resident kernel, and the old resident, arenas and all,
    /// becomes the scratch kernel.
    scratch: IeertKernel,
    /// DS: the IEER bounds of the last run, reshaped in place to the
    /// residents' task set before each ordered pass.
    bounds: IeerBounds,
    stats: AdmissionStats,
}

/// What one analysis of the grown system decided, and its work counts.
struct Verdict {
    /// The candidate's end-to-end bound, or why the chain is turned away.
    outcome: Result<Dur, RejectReason>,
    reanalyzed: usize,
    skipped: usize,
}

impl AdmissionState {
    /// An empty engine over `num_processors` processors.
    pub fn new(num_processors: usize, cfg: AdmissionConfig) -> AdmissionState {
        AdmissionState {
            cfg,
            residents: Vec::new(),
            set: TaskSet::empty(num_processors),
            load_ppm: vec![0; num_processors],
            fresh: Vec::new(),
            kernel: None,
            scratch: IeertKernel::empty(&cfg.analysis),
            bounds: IeerBounds::from_raw(Vec::new()),
            stats: AdmissionStats::default(),
        }
    }

    /// Number of resident chains.
    pub fn residents(&self) -> usize {
        self.residents.len()
    }

    /// `true` if a chain with this id is resident.
    pub fn contains(&self, id: u64) -> bool {
        self.position(id).is_some()
    }

    /// The end-to-end bound of a resident chain.
    pub fn bound(&self, id: u64) -> Option<Dur> {
        self.position(id).map(|pos| self.residents[pos].bound)
    }

    /// Resident `(id, end-to-end bound)` pairs in priority order — the
    /// snapshot compared by the incremental-vs-batch differential tests.
    pub fn resident_bounds(&self) -> Vec<(u64, Dur)> {
        self.residents.iter().map(|r| (r.id, r.bound)).collect()
    }

    /// The task set the residents currently form (`None` when empty).
    pub fn task_set(&self) -> Option<&TaskSet> {
        (!self.residents.is_empty()).then_some(&self.set)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Decides whether `req` may join the resident system. Admission
    /// mutates the state; rejection leaves it untouched.
    pub fn admit(&mut self, req: ChainRequest) -> Decision {
        self.stats.decisions += 1;
        let d = self.admit_inner(&req);
        if d.admitted {
            self.stats.admitted += 1;
        } else {
            self.stats.rejected += 1;
        }
        self.stats.subtasks_reanalyzed += d.reanalyzed as u64;
        self.stats.subtasks_skipped += d.skipped as u64;
        d
    }

    /// Removes a resident chain and refreshes the bounds of the chains it
    /// was interfering with.
    ///
    /// # Errors
    ///
    /// [`RetireError::UnknownChain`] if no resident has the id.
    pub fn retire(&mut self, id: u64) -> Result<RetireOutcome, RetireError> {
        let pos = self.position(id).ok_or(RetireError::UnknownChain(id))?;
        let out = self.retire_inner(pos)?;
        self.stats.retired += 1;
        self.stats.subtasks_reanalyzed += out.reanalyzed as u64;
        self.stats.subtasks_skipped += out.skipped as u64;
        Ok(out)
    }

    /// The priority position of the resident with this id.
    fn position(&self, id: u64) -> Option<usize> {
        self.residents.iter().position(|r| r.id == id)
    }

    fn reject(&self, reason: RejectReason, reanalyzed: usize, skipped: usize) -> Decision {
        Decision {
            admitted: false,
            bound: None,
            reject: Some(reason),
            reanalyzed,
            skipped,
            residents: self.residents.len(),
        }
    }

    /// Where `req` would sit in the priority order: after residents of
    /// rank ≤ its own (seniority tie-break) and before strictly larger
    /// ranks.
    fn insertion_pos(&self, req: &ChainRequest) -> usize {
        self.residents.partition_point(|r| r.rank <= req.rank)
    }

    /// Inserts the candidate at its position, analyses the grown system
    /// and either commits or removes the candidate again.
    fn admit_inner(&mut self, req: &ChainRequest) -> Decision {
        if self.contains(req.id) {
            return self.reject(RejectReason::DuplicateId, 0, 0);
        }
        let pos_c = self.insertion_pos(req);
        if let Err(e) = self
            .set
            .insert_chain(pos_c, req.period, req.deadline, &req.subtasks)
        {
            return self.reject(RejectReason::Invalid(e), 0, 0);
        }
        self.residents.insert(
            pos_c,
            Resident {
                id: req.id,
                rank: req.rank,
                memos: Vec::new(),
                bound: Dur::ZERO,
            },
        );
        self.load(pos_c, u64::wrapping_add);
        let Verdict {
            outcome,
            reanalyzed,
            skipped,
        } = match self.gate() {
            Some(reason) => Verdict {
                outcome: Err(reason),
                reanalyzed: 0,
                skipped: 0,
            },
            None => match self.cfg.mode {
                AdmissionMode::PmFamily => self.admit_pm(pos_c),
                AdmissionMode::DirectSync => self.admit_ds(pos_c),
            },
        };
        match outcome {
            Ok(bound) => Decision {
                admitted: true,
                bound: Some(bound),
                reject: None,
                reanalyzed,
                skipped,
                residents: self.residents.len(),
            },
            Err(reason) => {
                // Roll back: the candidate leaves as it came in.
                self.load(pos_c, u64::wrapping_sub);
                self.residents.remove(pos_c);
                self.set.remove_chain(pos_c);
                self.reject(reason, reanalyzed, skipped)
            }
        }
    }

    /// Adds (or subtracts) chain `pos`'s floor-rounded utilization terms
    /// to the per-processor totals. Wrapping keeps an add and the
    /// subtract that undoes it exact on any input.
    fn load(&mut self, pos: usize, op: fn(u64, u64) -> u64) {
        for (proc, ppm) in self.set.task(TaskId::new(pos)).utilization_terms_ppm() {
            let total = &mut self.load_ppm[proc.index()];
            *total = op(*total, ppm);
        }
    }

    /// The quick-reject gate on the grown system's totals: the first
    /// processor whose floor-rounded utilization strictly exceeds 100%,
    /// if any. Flooring can only *under*state, so a hit proves true
    /// utilization > 1 — the analysis would reject — while a set at
    /// exactly 100% (which may be schedulable) is never gated.
    fn gate(&mut self) -> Option<RejectReason> {
        if !self.cfg.quick_gate {
            return None;
        }
        let p = self.load_ppm.iter().position(|&ppm| ppm > 1_000_000)?;
        self.stats.gate_rejects += 1;
        Some(RejectReason::UtilizationGate {
            processor: ProcessorId::new(p),
            utilization_ppm: self.load_ppm[p],
        })
    }

    /// SA/PM on the grown system with the candidate at `pos_c`. Resident
    /// memos change only on commit, so a reject leaves them as they were.
    fn admit_pm(&mut self, pos_c: usize) -> Verdict {
        let mut reanalyzed = 0usize;
        let mut skipped = 0usize;
        let memoize = self.cfg.memoization;
        let candidate = self.set.task(TaskId::new(pos_c));
        self.residents[pos_c]
            .memos
            .reserve_exact(candidate.chain_len());
        self.fresh.clear();
        for (pos, task) in self.set.tasks().iter().enumerate() {
            let is_candidate = pos == pos_c;
            let mut bound = Dur::ZERO;
            for (j, sub) in task.subtasks().iter().enumerate() {
                // A resident subtask's interference set changes iff the
                // candidate sits above it (pos > pos_c) and has a subtask
                // on its processor. Everything else keeps its memo: same
                // interference set ⟹ same fixed points.
                let dirty =
                    is_candidate || !memoize || (pos > pos_c && hosts(candidate, sub.processor()));
                let held = &self.residents[pos].memos;
                if !dirty {
                    skipped += 1;
                    bound += held[j].response;
                    continue;
                }
                // On growth every memoized fixed point is ≤ its new value,
                // so the stale memo is a valid warm start.
                let warm = (memoize && !is_candidate).then(|| &held[j]);
                match subtask_response_memo(&self.set, sub.id(), &self.cfg.analysis, warm) {
                    Ok(m) => {
                        reanalyzed += 1;
                        bound += m.response;
                        if is_candidate {
                            self.residents[pos].memos.push(m);
                        } else {
                            self.fresh.push((pos, j, m));
                        }
                    }
                    Err(e) => {
                        // Skipped (clean) subtasks converged before under
                        // identical interference, so the first error in
                        // order is the same one the cold batch
                        // re-analysis hits.
                        return Verdict {
                            outcome: Err(RejectReason::Analysis(e)),
                            reanalyzed,
                            skipped,
                        };
                    }
                }
            }
            if bound > task.deadline() {
                return Verdict {
                    outcome: Err(RejectReason::DeadlineMiss {
                        chain: self.residents[pos].id,
                        bound,
                        deadline: task.deadline(),
                    }),
                    reanalyzed,
                    skipped,
                };
            }
        }
        // Commit.
        for (pos, j, m) in self.fresh.drain(..) {
            self.residents[pos].memos[j] = m;
        }
        self.store_pm_bounds();
        Verdict {
            outcome: Ok(self.residents[pos_c].bound),
            reanalyzed,
            skipped,
        }
    }

    /// SA/DS on the grown system with the candidate at `pos_c`, derived
    /// from the resident kernel when there is one.
    fn admit_ds(&mut self, pos_c: usize) -> Verdict {
        let reanalyzed = self.set.num_subtasks();
        if let Err(e) = self.solve_ds(Some(pos_c)) {
            return Verdict {
                outcome: Err(RejectReason::Analysis(e)),
                reanalyzed,
                skipped: 0,
            };
        }
        // Deadlines are checked only once every bound is known: the batch
        // verdict puts an analysis failure anywhere ahead of a miss.
        for (pos, task) in self.set.tasks().iter().enumerate() {
            let bound = self.bounds.task_bound(TaskId::new(pos));
            if bound > task.deadline() {
                return Verdict {
                    outcome: Err(RejectReason::DeadlineMiss {
                        chain: self.residents[pos].id,
                        bound,
                        deadline: task.deadline(),
                    }),
                    reanalyzed,
                    skipped: 0,
                };
            }
        }
        // Commit.
        self.keep_run();
        self.store_ds_bounds();
        Verdict {
            outcome: Ok(self.residents[pos_c].bound),
            reanalyzed,
            skipped: 0,
        }
    }

    /// SA/DS on the residents' set into `self.bounds`, in the scratch
    /// kernel. With memoization on, one ordered pass: of the resident
    /// kernel with the candidate at `admitted_at` spliced in (only the
    /// subtasks whose demand or jitters moved are solved again), or of a
    /// cold kernel when there is no candidate or no resident kernel. The
    /// pass needs the sweep budget to cover the `n + 1` sweeps cold Jacobi
    /// may take on `n` subtasks, or it could converge where the batch
    /// analysis runs out of sweeps. Otherwise, and to report the error of
    /// a failed pass, cold Jacobi sweeps: a diverging run trips a cap at a
    /// sweep that depends on its seed, and the busy-period cap includes
    /// that sweep's jitters.
    fn solve_ds(&mut self, admitted_at: Option<usize>) -> Result<(), AnalyzeError> {
        let n = self.set.num_subtasks() as u64;
        if self.cfg.memoization && n < self.cfg.analysis.max_outer_iterations {
            match (&self.kernel, admitted_at) {
                (Some(resident), Some(pos_c)) => self.scratch.derive(resident, &self.set, pos_c),
                _ => self.scratch.rebuild(&self.set),
            }
            self.bounds.reshape(&self.set);
            if self.scratch.ordered_pass(&mut self.bounds).is_ok() {
                return Ok(());
            }
        }
        self.scratch.rebuild(&self.set);
        let ds = sweep_to_fixed_point(
            &mut self.scratch,
            &self.set,
            IeerBounds::seed(&self.set),
            None,
        )?;
        self.bounds = ds.bounds().clone();
        Ok(())
    }

    /// Makes the scratch kernel, whose run is being committed, the
    /// resident one; the old resident's arenas become the next scratch.
    fn keep_run(&mut self) {
        let run = std::mem::replace(&mut self.scratch, IeertKernel::empty(&self.cfg.analysis));
        if let Some(old) = self.kernel.replace(run) {
            self.scratch = old;
        }
    }

    /// Each resident's end-to-end bound: the sum of its memos.
    fn store_pm_bounds(&mut self) {
        for r in &mut self.residents {
            r.bound = r.memos.iter().map(|m| m.response).sum();
        }
    }

    /// Each resident's end-to-end bound under the last run's bounds.
    fn store_ds_bounds(&mut self) {
        for (pos, r) in self.residents.iter_mut().enumerate() {
            r.bound = self.bounds.task_bound(TaskId::new(pos));
        }
    }

    fn retire_inner(&mut self, old_pos: usize) -> Result<RetireOutcome, RetireError> {
        self.load(old_pos, u64::wrapping_sub);
        self.residents.remove(old_pos);
        let removed = self.set.remove_chain(old_pos);
        if self.residents.is_empty() {
            self.kernel = None;
            return Ok(RetireOutcome {
                reanalyzed: 0,
                skipped: 0,
                residents: 0,
            });
        }
        let (reanalyzed, skipped) = match self.cfg.mode {
            AdmissionMode::PmFamily => self.retire_pm(&removed, old_pos)?,
            AdmissionMode::DirectSync => self.retire_ds()?,
        };
        Ok(RetireOutcome {
            reanalyzed,
            skipped,
            residents: self.residents.len(),
        })
    }

    fn retire_pm(&mut self, removed: &Task, old_pos: usize) -> Result<(usize, usize), RetireError> {
        let mut reanalyzed = 0usize;
        let mut skipped = 0usize;
        for (pos, task) in self.set.tasks().iter().enumerate() {
            for (j, sub) in task.subtasks().iter().enumerate() {
                // Chains that sat below the removed one (new pos ≥ its old
                // pos) lose interference on shared processors. Their memos
                // now overshoot the shrunk fixed points, so the re-run is
                // cold — no hint.
                let dirty =
                    !self.cfg.memoization || (pos >= old_pos && hosts(removed, sub.processor()));
                if dirty {
                    let m = subtask_response_memo(&self.set, sub.id(), &self.cfg.analysis, None)
                        .map_err(RetireError::Analysis)?;
                    self.residents[pos].memos[j] = m;
                    reanalyzed += 1;
                } else {
                    skipped += 1;
                }
            }
        }
        self.store_pm_bounds();
        Ok((reanalyzed, skipped))
    }

    fn retire_ds(&mut self) -> Result<(usize, usize), RetireError> {
        // Shrinking demand lowers the least fixed point, so the resident
        // kernel's hints overshoot it: solve cold, and keep the new run's
        // kernel. A failed run leaves no kernel that describes the
        // residents.
        self.solve_ds(None).map_err(|e| {
            self.kernel = None;
            RetireError::Analysis(e)
        })?;
        self.keep_run();
        self.store_ds_bounds();
        Ok((self.set.num_subtasks(), 0))
    }
}

/// `true` if some subtask of `task` runs on `proc`.
fn hosts(task: &Task, proc: ProcessorId) -> bool {
    task.subtasks().iter().any(|s| s.processor() == proc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sa_ds::analyze_ds;
    use crate::analysis::sa_pm::analyze_pm;
    use crate::task::SubtaskId;

    fn d(t: i64) -> Dur {
        Dur::from_ticks(t)
    }

    fn pm_state() -> AdmissionState {
        AdmissionState::new(2, AdmissionConfig::new(AdmissionMode::PmFamily))
    }

    /// The chains of the paper's Example 2, as admission requests.
    /// Deadlines are loosened to 20 — under the paper's deadline = period
    /// setting T2's PM bound of 7 exceeds its period of 6, and the engine
    /// would (correctly) refuse it.
    fn example2_requests() -> Vec<ChainRequest> {
        vec![
            ChainRequest::new(1, d(4), vec![(0, d(2))])
                .with_rank(0)
                .with_deadline(d(20)),
            ChainRequest::new(2, d(6), vec![(0, d(2)), (1, d(3))])
                .with_rank(1)
                .with_deadline(d(20)),
            ChainRequest::new(3, d(6), vec![(1, d(2))])
                .with_rank(2)
                .with_deadline(d(20)),
        ]
    }

    #[test]
    fn admitted_bounds_match_batch_analysis() {
        let mut st = pm_state();
        for req in example2_requests() {
            let dec = st.admit(req);
            assert!(dec.admitted, "{:?}", dec.reject);
        }
        let set = st.task_set().unwrap().clone();
        let batch = analyze_pm(&set, &AnalysisConfig::DEFAULT).unwrap();
        for (pos, (id, bound)) in st.resident_bounds().into_iter().enumerate() {
            assert_eq!(bound, batch.task_bound(TaskId::new(pos)), "chain {id}");
        }
        // The paper's PM bounds survive the request round-trip: 2, 7, 5.
        assert_eq!(st.bound(1), Some(d(2)));
        assert_eq!(st.bound(2), Some(d(7)));
        assert_eq!(st.bound(3), Some(d(5)));
        assert_eq!(st.residents(), 3);
    }

    #[test]
    fn deadline_miss_rejects_and_rolls_back() {
        let mut st = pm_state();
        // One resident at half capacity.
        assert!(
            st.admit(ChainRequest::new(1, d(4), vec![(0, d(2))]))
                .admitted
        );
        let before = st.resident_bounds();
        // A candidate whose own bound (2 + 2 interference) exceeds its
        // tight deadline.
        let dec = st.admit(
            ChainRequest::new(2, d(8), vec![(0, d(2))])
                .with_rank(1)
                .with_deadline(d(3)),
        );
        assert!(!dec.admitted);
        assert!(matches!(
            dec.reject,
            Some(RejectReason::DeadlineMiss { chain: 2, .. })
        ));
        assert_eq!(st.resident_bounds(), before, "rejection must not mutate");
        assert_eq!(st.residents(), 1);
    }

    #[test]
    fn high_rank_arrival_preempting_a_resident_can_be_rejected() {
        let mut st = pm_state();
        // Resident with zero slack: period 4, exec 2, deadline 2.
        assert!(
            st.admit(
                ChainRequest::new(1, d(4), vec![(0, d(2))])
                    .with_rank(5)
                    .with_deadline(d(2))
            )
            .admitted
        );
        // A more important chain would push the resident past its
        // deadline: must be rejected to protect the resident.
        let dec = st.admit(
            ChainRequest::new(2, d(16), vec![(0, d(1))])
                .with_rank(0)
                .with_deadline(d(16)),
        );
        assert!(!dec.admitted);
        match dec.reject {
            Some(RejectReason::DeadlineMiss { chain, .. }) => assert_eq!(chain, 1),
            other => panic!("expected resident deadline miss, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_id_is_rejected() {
        let mut st = pm_state();
        assert!(
            st.admit(ChainRequest::new(7, d(10), vec![(0, d(1))]))
                .admitted
        );
        let dec = st.admit(ChainRequest::new(7, d(20), vec![(1, d(1))]));
        assert!(matches!(dec.reject, Some(RejectReason::DuplicateId)));
    }

    #[test]
    fn invalid_chain_is_rejected() {
        let mut st = pm_state();
        let dec = st.admit(ChainRequest::new(1, d(10), vec![]));
        assert!(matches!(dec.reject, Some(RejectReason::Invalid(_))));
        let dec = st.admit(ChainRequest::new(1, d(10), vec![(9, d(1))]));
        assert!(matches!(dec.reject, Some(RejectReason::Invalid(_))));
        assert_eq!(st.residents(), 0);
    }

    #[test]
    fn gate_fires_strictly_over_capacity_only() {
        let mut st = pm_state();
        // Three chains of execution 1 / period 3 saturate P0 *exactly*:
        // floor sum = 999 999 ppm — the gate must NOT fire, and the real
        // analysis admits (the set is schedulable at the boundary).
        for id in 1..=3 {
            let dec = st.admit(ChainRequest::new(id, d(3), vec![(0, d(1))]).with_rank(id as u32));
            assert!(dec.admitted, "{:?}", dec.reject);
        }
        assert_eq!(st.stats().gate_rejects, 0);
        // One more tick of demand pushes floor utilization over 10⁶:
        // gate reject, no analysis.
        let dec = st.admit(ChainRequest::new(4, d(30), vec![(0, d(1))]).with_rank(9));
        assert!(!dec.admitted);
        assert!(matches!(
            dec.reject,
            Some(RejectReason::UtilizationGate { .. })
        ));
        assert_eq!(dec.reanalyzed, 0, "gate skips the analysis entirely");
        assert_eq!(st.stats().gate_rejects, 1);
        assert_eq!(st.residents(), 3);
    }

    #[test]
    fn memoization_skips_unaffected_processors() {
        let mut st = pm_state();
        assert!(
            st.admit(ChainRequest::new(1, d(10), vec![(0, d(2))]).with_rank(0))
                .admitted
        );
        assert!(
            st.admit(ChainRequest::new(2, d(10), vec![(1, d(2))]).with_rank(0))
                .admitted
        );
        // A P0-only candidate at lowest rank dirties nothing resident:
        // chain 1 is above it, chain 2 shares no processor.
        let dec = st.admit(ChainRequest::new(3, d(20), vec![(0, d(1))]).with_rank(9));
        assert!(dec.admitted);
        assert_eq!(dec.reanalyzed, 1, "only the candidate itself");
        assert_eq!(dec.skipped, 2);
        // A rank-0 P0 candidate lands below the equal-rank seniors (seq
        // tie-break), so it dirties only the rank-9 P0 chain 3 beneath it.
        let dec = st.admit(ChainRequest::new(4, d(40), vec![(0, d(1))]));
        assert!(dec.admitted);
        assert_eq!(dec.reanalyzed, 2, "candidate + the P0 resident below it");
        assert_eq!(
            dec.skipped, 2,
            "residents at or above the candidate keep their memos"
        );
    }

    #[test]
    fn incremental_matches_cold_oracle_over_a_mixed_sequence() {
        let cfg = AdmissionConfig::new(AdmissionMode::PmFamily);
        let mut warm = AdmissionState::new(2, cfg);
        let mut cold = AdmissionState::new(2, cfg.with_memoization(false));
        let reqs = example2_requests();
        for req in &reqs {
            let a = warm.admit(req.clone());
            let b = cold.admit(req.clone());
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.bound, b.bound);
            assert_eq!(a.reject, b.reject);
            assert_eq!(warm.resident_bounds(), cold.resident_bounds());
        }
        assert!(warm.retire(2).is_ok());
        assert!(cold.retire(2).is_ok());
        assert_eq!(warm.resident_bounds(), cold.resident_bounds());
        // Re-admit after the retire: hints must have been invalidated.
        let req = ChainRequest::new(9, d(6), vec![(0, d(1)), (1, d(1))]).with_rank(1);
        let a = warm.admit(req.clone());
        let b = cold.admit(req);
        assert_eq!(a.bound, b.bound);
        assert_eq!(warm.resident_bounds(), cold.resident_bounds());
    }

    #[test]
    fn retire_unknown_chain_errors() {
        let mut st = pm_state();
        assert!(matches!(st.retire(42), Err(RetireError::UnknownChain(42))));
    }

    #[test]
    fn retire_to_empty_and_readmit() {
        let mut st = pm_state();
        assert!(
            st.admit(ChainRequest::new(1, d(4), vec![(0, d(2))]))
                .admitted
        );
        let out = st.retire(1).unwrap();
        assert_eq!(out.residents, 0);
        assert!(st.task_set().is_none());
        assert!(
            st.admit(ChainRequest::new(1, d(4), vec![(0, d(2))]))
                .admitted
        );
        assert_eq!(st.bound(1), Some(d(2)));
    }

    #[test]
    fn retire_refreshes_survivor_bounds() {
        let mut st = pm_state();
        assert!(
            st.admit(ChainRequest::new(1, d(4), vec![(0, d(2))]).with_rank(0))
                .admitted
        );
        assert!(
            st.admit(ChainRequest::new(2, d(8), vec![(0, d(2))]).with_rank(1))
                .admitted
        );
        // Chain 2 suffers interference from chain 1: bound 2 + 2·1 … = 4? It
        // completes after one chain-1 preemption window: 2+2 = 4... the
        // exact value comes from the batch oracle below.
        let with_interference = st.bound(2).unwrap();
        st.retire(1).unwrap();
        assert_eq!(st.bound(2), Some(d(2)), "interference gone");
        assert!(with_interference > d(2));
        let set = st.task_set().unwrap();
        let batch = analyze_pm(set, &AnalysisConfig::DEFAULT).unwrap();
        assert_eq!(st.bound(2).unwrap(), batch.task_bound(TaskId::new(0)));
    }

    #[test]
    fn ds_mode_matches_batch_sa_ds() {
        let cfg = AdmissionConfig::new(AdmissionMode::DirectSync);
        let mut warm = AdmissionState::new(2, cfg);
        let mut cold = AdmissionState::new(2, cfg.with_memoization(false));
        // Deadlines loosened so Example 2's DS bound of 8 still admits.
        for req in example2_requests() {
            let req = req.clone().with_deadline(d(20));
            let a = warm.admit(req.clone());
            let b = cold.admit(req);
            assert!(a.admitted, "{:?}", a.reject);
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.bound, b.bound);
            assert_eq!(warm.resident_bounds(), cold.resident_bounds());
        }
        let set = warm.task_set().unwrap();
        let batch = analyze_ds(set, &AnalysisConfig::DEFAULT).unwrap();
        for (pos, (_, bound)) in warm.resident_bounds().into_iter().enumerate() {
            assert_eq!(bound, batch.task_bound(TaskId::new(pos)));
        }
        // Retire and re-check against a fresh batch run.
        warm.retire(1).unwrap();
        cold.retire(1).unwrap();
        assert_eq!(warm.resident_bounds(), cold.resident_bounds());
        let batch = analyze_ds(warm.task_set().unwrap(), &AnalysisConfig::DEFAULT).unwrap();
        for (pos, (_, bound)) in warm.resident_bounds().into_iter().enumerate() {
            assert_eq!(bound, batch.task_bound(TaskId::new(pos)));
        }
    }

    #[test]
    fn warm_ds_pass_solves_only_dirty_and_candidate_subtasks() {
        let mut st = AdmissionState::new(3, AdmissionConfig::new(AdmissionMode::DirectSync));
        for req in [
            ChainRequest::new(1, d(40), vec![(0, d(2)), (1, d(2))]).with_rank(0),
            ChainRequest::new(2, d(60), vec![(1, d(3)), (2, d(2))]).with_rank(2),
            ChainRequest::new(3, d(80), vec![(2, d(2)), (0, d(3))]).with_rank(4),
            ChainRequest::new(4, d(100), vec![(1, d(2))]).with_rank(6),
            ChainRequest::new(5, d(120), vec![(2, d(4))]).with_rank(6),
        ] {
            let dec = st.admit(req);
            assert!(dec.admitted, "{:?}", dec.reject);
        }
        // Rank 3 lands between chains 2 and 3, on P0 and P1: only chain
        // 3's P0 subtask and chain 4 sit below it on a processor it uses.
        let req = ChainRequest::new(9, d(90), vec![(0, d(1)), (1, d(1))]).with_rank(3);
        let pos_c = st.insertion_pos(&req);
        assert_eq!(pos_c, 2);
        let mut set = st.set.clone();
        set.insert_chain(pos_c, req.period, req.deadline, &req.subtasks)
            .unwrap();
        // The derivation and the one ordered pass admit_ds runs. No clean
        // subtask reads a bound that moved, so none is solved again.
        let mut kernel = IeertKernel::empty(&AnalysisConfig::DEFAULT);
        kernel.derive(st.kernel.as_ref().unwrap(), &set, pos_c);
        let mut warm = IeerBounds::from_raw(Vec::new());
        warm.reshape(&set);
        kernel.ordered_pass(&mut warm).unwrap();
        assert_eq!(
            kernel.solved(),
            2 + 2,
            "two dirty subtasks, two candidate subtasks"
        );
        // A cold kernel solves all ten subtasks, each once, and the pass
        // never reads the stale bounds its buffer held.
        let mut cold = IeertKernel::new(&set, &AnalysisConfig::DEFAULT);
        let mut cold_bounds = IeerBounds::seed_with(&set, |_| Some(d(1_000_000)));
        cold.ordered_pass(&mut cold_bounds).unwrap();
        assert_eq!(cold.solved(), set.num_subtasks() as u64);
        assert_eq!(warm, cold_bounds);
        // Both are the batch bounds, and so is the engine's own admit.
        let batch = analyze_ds(&set, &AnalysisConfig::DEFAULT).unwrap();
        assert_eq!(&warm, batch.bounds());
        assert!(st.admit(req).admitted);
        let bounds: Vec<Dur> = st.resident_bounds().into_iter().map(|(_, b)| b).collect();
        assert_eq!(bounds, batch.task_bounds());
    }

    #[test]
    fn ds_admits_and_retires_solve_no_subtask_twice() {
        // A seeded stream of admits and retires over three processors.
        // Every DS decision that reaches the analysis and ends in bounds
        // (an admit, a deadline miss, a retire) solves each subtask of
        // its system at most once; a retire, rebuilt cold, exactly once.
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut st = AdmissionState::new(3, AdmissionConfig::new(AdmissionMode::DirectSync));
        let mut resident: Vec<u64> = Vec::new();
        let (mut admits, mut misses, mut retires) = (0, 0, 0);
        for id in 0..600u64 {
            if resident.len() > 3 && draw(5) < 2 {
                let gone = resident.swap_remove(draw(resident.len() as u64) as usize);
                st.retire(gone).unwrap();
                let n = st.set.num_subtasks() as u64;
                if n > 0 {
                    assert_eq!(st.kernel.as_ref().unwrap().solved(), n, "retire");
                    retires += 1;
                }
                continue;
            }
            let period = 10 * (4 + draw(20) as i64);
            let mut proc = draw(3) as usize;
            let links: Vec<(usize, Dur)> = (0..=draw(3))
                .map(|_| {
                    proc = (proc + 1 + draw(2) as usize) % 3;
                    (proc, d(1 + draw(period as u64 / 8) as i64))
                })
                .collect();
            let len = links.len();
            let req = ChainRequest::new(id, d(period), links)
                .with_deadline(d(period * (1 + draw(3) as i64)))
                .with_rank(draw(8) as u32);
            let dec = st.admit(req);
            if dec.admitted {
                resident.push(id);
                let n = st.set.num_subtasks() as u64;
                assert!(st.kernel.as_ref().unwrap().solved() <= n, "admit {id}");
                admits += 1;
            } else if let Some(RejectReason::DeadlineMiss { .. }) = dec.reject {
                let n = (st.set.num_subtasks() + len) as u64;
                assert!(st.scratch.solved() <= n, "deadline miss {id}");
                misses += 1;
            }
        }
        assert!(
            admits > 50 && misses > 50 && retires > 50,
            "{admits} admits, {misses} misses, {retires} retires"
        );
    }

    #[test]
    fn equal_ranks_break_ties_by_seniority() {
        let mut st = pm_state();
        assert!(
            st.admit(ChainRequest::new(5, d(10), vec![(0, d(1))]))
                .admitted
        );
        assert!(
            st.admit(ChainRequest::new(3, d(10), vec![(0, d(1))]))
                .admitted
        );
        // Same rank: the earlier admission keeps the higher priority, so
        // chain 3 (junior) suffers chain 5's interference.
        assert!(st.bound(3).unwrap() > st.bound(5).unwrap());
        let set = st.task_set().unwrap();
        // Priority order in the built set follows admission order.
        let p5 = set.subtask(SubtaskId::new(TaskId::new(0), 0)).priority();
        let p3 = set.subtask(SubtaskId::new(TaskId::new(1), 0)).priority();
        assert!(p5.is_higher_than(p3));
    }

    #[test]
    fn stats_accumulate() {
        let mut st = pm_state();
        st.admit(ChainRequest::new(1, d(4), vec![(0, d(2))]));
        st.admit(ChainRequest::new(1, d(4), vec![(0, d(2))])); // duplicate
        st.retire(1).unwrap();
        let s = st.stats();
        assert_eq!(s.decisions, 2);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.retired, 1);
        assert!(s.subtasks_reanalyzed >= 1);
    }
}
