//! The end-to-end periodic task model of Sun & Liu.
//!
//! A [`TaskSet`] describes a distributed real-time system: a number of
//! processors and a set of independent periodic [`Task`]s. Each task is a
//! *chain* of [`Subtask`]s; consecutive subtasks of the same task execute on
//! different processors, and every subtask has a fixed priority on its host
//! processor.
//!
//! Instances of a task's *first* subtask are released periodically (one
//! every `period` ticks, starting at the task's `phase`); when the later
//! subtasks are released is decided by the synchronization protocol in use
//! (see [`crate::protocol`]).
//!
//! # Examples
//!
//! Example 2 of the paper — two processors, three tasks, `T₂` spanning both
//! processors:
//!
//! ```
//! use rtsync_core::task::{Priority, TaskSet};
//! use rtsync_core::time::{Dur, Time};
//!
//! let system = TaskSet::builder(2)
//!     // T1: one subtask on P0, period 4, execution 2, higher priority on P0.
//!     .task(Dur::from_ticks(4))
//!     .subtask(0, Dur::from_ticks(2), Priority::new(0))
//!     .finish_task()
//!     // T2: chain P0 -> P1, period 6.
//!     .task(Dur::from_ticks(6))
//!     .subtask(0, Dur::from_ticks(2), Priority::new(1))
//!     .subtask(1, Dur::from_ticks(3), Priority::new(0))
//!     .finish_task()
//!     // T3: one subtask on P1, period 6, phase 4, lower priority on P1.
//!     .task(Dur::from_ticks(6))
//!     .phase(Time::from_ticks(4))
//!     .subtask(1, Dur::from_ticks(2), Priority::new(1))
//!     .finish_task()
//!     .build()?;
//!
//! assert_eq!(system.num_tasks(), 3);
//! assert_eq!(system.num_processors(), 2);
//! # Ok::<(), rtsync_core::error::ValidateTaskSetError>(())
//! ```

use std::fmt;

use crate::error::ValidateTaskSetError;
use crate::time::{Dur, Time};

/// Identifies a task within a [`TaskSet`] (dense index, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(usize);

impl TaskId {
    /// Creates a task id from a dense 0-based index.
    #[inline]
    pub const fn new(index: usize) -> TaskId {
        TaskId(index)
    }

    /// The dense 0-based index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a processor within a [`TaskSet`] (dense index, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessorId(usize);

impl ProcessorId {
    /// Creates a processor id from a dense 0-based index.
    #[inline]
    pub const fn new(index: usize) -> ProcessorId {
        ProcessorId(index)
    }

    /// The dense 0-based index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies a shared resource (dense index, 0-based). Resources model
/// critical sections — the paper's §6 "resource contention" future work —
/// under the Highest Locker (immediate priority ceiling) protocol: while a
/// job executes a critical section on resource `R`, it runs at `R`'s
/// priority ceiling (the highest priority of any subtask using `R`).
/// Every resource is local to one processor (remote blocking is out of
/// scope, as in the paper's model where links are processors).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ResourceId(usize);

impl ResourceId {
    /// Creates a resource id from a dense 0-based index.
    #[inline]
    pub const fn new(index: usize) -> ResourceId {
        ResourceId(index)
    }

    /// The dense 0-based index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One critical section inside a subtask's execution: the job holds
/// `resource` while its *executed* amount is in `[start, start + len)`.
/// Sections are non-nested and lie strictly inside the execution budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CriticalSection {
    /// The resource held.
    pub resource: ResourceId,
    /// Offset (in executed ticks) where the section begins.
    pub start: Dur,
    /// Length of the section in ticks.
    pub len: Dur,
}

impl CriticalSection {
    /// Offset one past the section's last tick.
    pub fn end(&self) -> Dur {
        self.start + self.len
    }
}

/// Identifies one subtask: the `index`-th link (0-based) in task `task`'s
/// chain. The paper writes this `T_{i,j}` with `j` 1-based; our `index` is
/// `j − 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubtaskId {
    task: TaskId,
    index: usize,
}

impl SubtaskId {
    /// Creates a subtask id.
    #[inline]
    pub const fn new(task: TaskId, index: usize) -> SubtaskId {
        SubtaskId { task, index }
    }

    /// The parent task.
    #[inline]
    pub const fn task(self) -> TaskId {
        self.task
    }

    /// Position in the chain, 0-based.
    #[inline]
    pub const fn index(self) -> usize {
        self.index
    }

    /// The immediate predecessor in the chain, if any.
    #[inline]
    pub fn predecessor(self) -> Option<SubtaskId> {
        self.index
            .checked_sub(1)
            .map(|i| SubtaskId::new(self.task, i))
    }

    /// The immediate successor in the chain. The caller must know the chain
    /// length to tell whether the successor exists; see
    /// [`Task::successor_of`].
    #[inline]
    pub fn successor_unchecked(self) -> SubtaskId {
        SubtaskId::new(self.task, self.index + 1)
    }

    /// `true` if this is the first subtask of its chain.
    #[inline]
    pub const fn is_first(self) -> bool {
        self.index == 0
    }
}

impl fmt::Display for SubtaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.task, self.index)
    }
}

/// A fixed priority level on a processor. **Lower numeric value means higher
/// priority** (deadline-monotonic convention): priority 0 preempts
/// priority 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(u32);

impl Priority {
    /// The highest possible priority.
    pub const HIGHEST: Priority = Priority(0);

    /// Creates a priority level. Lower `level` = higher priority.
    #[inline]
    pub const fn new(level: u32) -> Priority {
        Priority(level)
    }

    /// The raw level (lower = higher priority).
    #[inline]
    pub const fn level(self) -> u32 {
        self.0
    }

    /// `true` if `self` strictly preempts `other`.
    #[inline]
    pub const fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }

    /// `true` if `self` is at least as high as `other` (the "`≥ φ`" test of
    /// the busy-period definitions).
    #[inline]
    pub const fn is_at_least(self, other: Priority) -> bool {
        self.0 <= other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// One link of a task chain: a unit of work pinned to a processor with a
/// fixed priority and a worst-case execution time `c_{i,j}`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Subtask {
    id: SubtaskId,
    processor: ProcessorId,
    execution: Dur,
    priority: Priority,
    preemptible: bool,
    critical_sections: Vec<CriticalSection>,
}

impl Subtask {
    /// The subtask's identity.
    #[inline]
    pub fn id(&self) -> SubtaskId {
        self.id
    }

    /// Host processor.
    #[inline]
    pub fn processor(&self) -> ProcessorId {
        self.processor
    }

    /// Worst-case execution time `c_{i,j}`.
    #[inline]
    pub fn execution(&self) -> Dur {
        self.execution
    }

    /// Fixed priority on the host processor.
    #[inline]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// `true` if instances may be preempted mid-execution (the paper's
    /// base model). Non-preemptive subtasks — the extension of the paper's
    /// §6 future work — run to completion once started, and lower-priority
    /// non-preemptive work appears as a blocking term in the analyses.
    #[inline]
    pub fn is_preemptible(&self) -> bool {
        self.preemptible
    }

    /// Critical sections inside this subtask's execution, sorted by start
    /// offset (empty in the paper's base model).
    #[inline]
    pub fn critical_sections(&self) -> &[CriticalSection] {
        &self.critical_sections
    }
}

/// A periodic end-to-end task: a chain of subtasks with a period, a phase
/// (release time of the very first instance of the first subtask) and an
/// end-to-end relative deadline.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Task {
    id: TaskId,
    period: Dur,
    phase: Time,
    deadline: Dur,
    subtasks: Vec<Subtask>,
}

impl Task {
    /// The task's identity.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Period `p_i` — the minimum inter-release time of the first subtask.
    #[inline]
    pub fn period(&self) -> Dur {
        self.period
    }

    /// Phase `f_i` — release time of the first instance of the first
    /// subtask.
    #[inline]
    pub fn phase(&self) -> Time {
        self.phase
    }

    /// End-to-end relative deadline `D_i`.
    #[inline]
    pub fn deadline(&self) -> Dur {
        self.deadline
    }

    /// The chain of subtasks, in precedence order.
    #[inline]
    pub fn subtasks(&self) -> &[Subtask] {
        &self.subtasks
    }

    /// Number of subtasks `n_i` in the chain.
    #[inline]
    pub fn chain_len(&self) -> usize {
        self.subtasks.len()
    }

    /// The `index`-th subtask (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index >= chain_len()`.
    #[inline]
    pub fn subtask(&self, index: usize) -> &Subtask {
        &self.subtasks[index]
    }

    /// The last subtask of the chain.
    #[inline]
    pub fn last_subtask(&self) -> &Subtask {
        self.subtasks
            .last()
            .expect("validated chains are non-empty")
    }

    /// The successor of `id` within this chain, or `None` for the last link.
    pub fn successor_of(&self, id: SubtaskId) -> Option<SubtaskId> {
        debug_assert_eq!(id.task(), self.id);
        if id.index() + 1 < self.subtasks.len() {
            Some(id.successor_unchecked())
        } else {
            None
        }
    }

    /// Sum of the execution times of the whole chain, `Σ_j c_{i,j}` — a
    /// trivial lower bound on the end-to-end response time.
    pub fn total_execution(&self) -> Dur {
        self.subtasks.iter().map(Subtask::execution).sum()
    }

    /// Release time of the `m`-th (0-based) periodic instance of the first
    /// subtask: `phase + m · period`.
    pub fn nominal_release(&self, m: u64) -> Time {
        self.phase + self.period * (m as i64)
    }

    /// Each subtask's processor and floor-rounded utilization in ppm, the
    /// terms [`TaskSet::processor_utilization_ppm`] sums.
    pub(crate) fn utilization_terms_ppm(&self) -> impl Iterator<Item = (ProcessorId, u64)> + '_ {
        self.subtasks
            .iter()
            .map(|s| (s.processor, floor_ppm(s.execution, self.period)))
    }
}

/// A complete distributed system description: processors plus tasks.
///
/// `TaskSet` upholds the model invariants (validated by
/// [`TaskSetBuilder::build`], and for one chain at a time by
/// [`insert_chain`](TaskSet::insert_chain)):
///
/// * every chain is non-empty, periods/deadlines/execution times positive;
/// * consecutive subtasks sit on different processors;
/// * per processor, priorities are unique.
///
/// # The priority index
///
/// Validation sorts each processor's subtasks by priority to find
/// duplicates; the set keeps those sorted lists, as 4-byte subtask
/// numbers. Because priorities are unique per processor, the
/// interference set `H_{i,j}` is exactly the part of its processor's list
/// above `T_{i,j}` (found by binary search), and the lower-priority work
/// behind a blocking bound is the part below it, so
/// [`subtasks_on`](TaskSet::subtasks_on),
/// [`interference_set`](TaskSet::interference_set) and
/// [`blocking_bound`](TaskSet::blocking_bound) cost O(subtasks on the
/// processor), not O(subtasks in the system). The set also records
/// whether it is the paper's base model (no non-preemptive subtask, no
/// critical section), where every blocking bound is zero without a scan.
/// The index is a function of the tasks, so equality and `Debug` ignore
/// it.
#[derive(Clone)]
pub struct TaskSet {
    num_processors: usize,
    tasks: Vec<Task>,
    index: PriorityIndex,
}

/// The per-processor priority order of a validated [`TaskSet`]. Every
/// subtask is named by its number: its position in
/// [`TaskSet::subtasks`] order. Sets are held by the thousand (a study's
/// inputs), so the index stays a few bytes per subtask; its buffers are
/// vectors so that [`TaskSet::insert_chain`] and
/// [`TaskSet::remove_chain`] refill them in place.
#[derive(Clone, Default)]
struct PriorityIndex {
    /// Subtask numbers grouped by processor, highest priority first within
    /// a processor.
    order: Vec<u32>,
    /// Processor `p`'s subtasks are `order[proc_start[p]..proc_start[p + 1]]`.
    proc_start: Vec<u32>,
    /// The number of each task's first subtask, then the subtask count.
    task_start: Vec<u32>,
    /// No subtask is non-preemptive or has a critical section.
    base_model: bool,
}

impl PartialEq for TaskSet {
    fn eq(&self, other: &TaskSet) -> bool {
        self.num_processors == other.num_processors && self.tasks == other.tasks
    }
}

impl Eq for TaskSet {}

impl fmt::Debug for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSet")
            .field("num_processors", &self.num_processors)
            .field("tasks", &self.tasks)
            .finish()
    }
}

impl TaskSet {
    /// Starts building a task set for a system with `num_processors`
    /// processors.
    pub fn builder(num_processors: usize) -> TaskSetBuilder {
        TaskSetBuilder::new(num_processors)
    }

    /// Number of processors.
    #[inline]
    pub fn num_processors(&self) -> usize {
        self.num_processors
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// All tasks, indexed by [`TaskId::index`].
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks up a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Looks up a subtask.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    #[inline]
    pub fn subtask(&self, id: SubtaskId) -> &Subtask {
        self.task(id.task()).subtask(id.index())
    }

    /// Iterates over every subtask in the system, in (task, chain) order.
    pub fn subtasks(&self) -> impl Iterator<Item = &Subtask> + '_ {
        self.tasks.iter().flat_map(|t| t.subtasks.iter())
    }

    /// Total number of subtasks across all tasks.
    pub fn num_subtasks(&self) -> usize {
        self.tasks.iter().map(Task::chain_len).sum()
    }

    /// Iterates over the subtasks hosted on `proc`, highest priority
    /// first (nothing for a processor outside the set).
    pub fn subtasks_on(&self, proc: ProcessorId) -> impl Iterator<Item = &Subtask> + '_ {
        self.priority_order(proc)
            .iter()
            .map(move |&n| self.numbered(n))
    }

    /// The numbers of the subtasks on `proc`, highest priority first.
    fn priority_order(&self, proc: ProcessorId) -> &[u32] {
        let starts = &self.index.proc_start;
        match (starts.get(proc.index()), starts.get(proc.index() + 1)) {
            (Some(&from), Some(&to)) => &self.index.order[from as usize..to as usize],
            _ => &[],
        }
    }

    /// The subtask numbered `n`.
    fn numbered(&self, n: u32) -> &Subtask {
        let starts = &self.index.task_start;
        let task = starts.partition_point(|&first| first <= n) - 1;
        &self.tasks[task].subtasks[(n - starts[task]) as usize]
    }

    /// `id`'s processor list without `id`: the numbers of the subtasks
    /// above it and of those below it.
    fn split_at_priority(&self, id: SubtaskId) -> (&[u32], &[u32]) {
        let me = self.subtask(id);
        let order = self.priority_order(me.processor());
        let rank =
            order.partition_point(|&n| self.numbered(n).priority().is_higher_than(me.priority()));
        (&order[..rank], &order[rank + 1..])
    }

    /// The interference set `H_{i,j}` of the paper: subtasks on the same
    /// processor as `id` whose priority is **equal to or higher than**
    /// `id`'s, excluding `id` itself, highest priority first. Priorities
    /// are unique per processor, so this is the part of the processor's
    /// priority order above `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn interference_set(&self, id: SubtaskId) -> impl ExactSizeIterator<Item = &Subtask> + '_ {
        self.split_at_priority(id)
            .0
            .iter()
            .map(move |&n| self.numbered(n))
    }

    /// Number of distinct resources referenced by the system
    /// (`max id + 1`; ids need not be dense in use).
    pub fn num_resources(&self) -> usize {
        self.subtasks()
            .flat_map(|s| s.critical_sections())
            .map(|cs| cs.resource.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The priority ceiling of a resource: the highest priority of any
    /// subtask with a critical section on it (`None` if unused). Under the
    /// Highest Locker protocol a job inside a section runs at this
    /// ceiling.
    pub fn resource_ceiling(&self, resource: ResourceId) -> Option<Priority> {
        self.subtasks()
            .filter(|s| {
                s.critical_sections()
                    .iter()
                    .any(|cs| cs.resource == resource)
            })
            .map(Subtask::priority)
            .min() // numerically smallest = highest priority
    }

    /// The blocking bound `B_{i,j}` of a subtask — the longest time
    /// lower-priority work on the same processor can delay it, combining:
    ///
    /// * **non-preemptive blocking**: `max(c_k − 1, 0)` over lower-priority
    ///   non-preemptive subtasks (a blocker must have *started* at least a
    ///   tick before the victim's release);
    /// * **ceiling blocking** (Highest Locker): the longest critical
    ///   section of a lower-priority subtask on a resource whose ceiling
    ///   is at least this subtask's priority (entry can coincide with the
    ///   victim's release, so the full section length counts).
    ///
    /// Zero in the paper's fully preemptive, resource-free base model.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this set.
    pub fn blocking_bound(&self, id: SubtaskId) -> Dur {
        if self.index.base_model {
            return Dur::ZERO;
        }
        let me = self.subtask(id);
        let (above, below) = self.split_at_priority(id);
        let below = below.iter().map(|&n| self.numbered(n));
        let np = below
            .clone()
            .filter(|s| !s.is_preemptible())
            .map(|s| (s.execution() - Dur::from_ticks(1)).max(Dur::ZERO))
            .max()
            .unwrap_or(Dur::ZERO);
        // Every user of a resource sits on one processor, so its ceiling is
        // at least `id`'s priority iff a subtask at or above `id` uses it.
        let guarded = |resource: ResourceId| {
            std::iter::once(me)
                .chain(above.iter().map(|&n| self.numbered(n)))
                .any(|s| {
                    s.critical_sections()
                        .iter()
                        .any(|cs| cs.resource == resource)
                })
        };
        let ceiling = below
            .flat_map(Subtask::critical_sections)
            .filter(|cs| guarded(cs.resource))
            .map(|cs| cs.len)
            .max()
            .unwrap_or(Dur::ZERO);
        np.max(ceiling)
    }

    /// Approximate utilization of processor `proc` in parts-per-million
    /// (per-subtask truncating division; the error is below one ppm per
    /// subtask).
    ///
    /// Flooring can only *under*state the true utilization, so this
    /// number is safe for one kind of decision only: a **reject-only
    /// gate** that fires when the result strictly exceeds `1_000_000`
    /// (then the true utilization certainly exceeds 100% and no priority
    /// assignment is schedulable) — the admission engine's quick-reject
    /// uses exactly that direction. Never treat a value `≤ 1_000_000` as
    /// evidence of headroom; a saturated processor can floor to
    /// `999_999`. For a sum that never understates, see the
    /// ceiling-rounding
    /// [`utilization_ppm`](crate::analysis::busy_period::utilization_ppm).
    pub fn processor_utilization_ppm(&self, proc: ProcessorId) -> u64 {
        self.subtasks_on(proc)
            .map(|s| floor_ppm(s.execution(), self.task(s.id().task()).period()))
            .sum()
    }

    /// The highest utilization over all processors, in ppm.
    pub fn max_processor_utilization_ppm(&self) -> u64 {
        (0..self.num_processors)
            .map(|p| self.processor_utilization_ppm(ProcessorId::new(p)))
            .max()
            .unwrap_or(0)
    }

    /// A set of no tasks over `num_processors` processors, in chain order.
    /// With zero processors every [`insert_chain`](TaskSet::insert_chain)
    /// fails with [`ValidateTaskSetError::NoProcessors`].
    pub(crate) fn empty(num_processors: usize) -> TaskSet {
        let mut set = TaskSet {
            num_processors,
            tasks: Vec::new(),
            index: PriorityIndex::default(),
        };
        set.index.fill_chain_ordered(num_processors, &set.tasks);
        set
    }

    /// Inserts a chain as task `pos` of a set in **chain order**: the set
    /// whose task at position `pos` has subtask `j` at priority
    /// `pos·stride + j`, with `stride` the longest chain's length. Every
    /// subtask of an earlier chain then preempts every subtask of a later
    /// one on a shared processor, and priorities are unique per processor.
    /// The chain gets phase zero and the given period, deadline and
    /// `(processor, execution)` links; later tasks move up one position,
    /// and priorities and the priority index are rewritten for the grown
    /// set (a set in another priority order is put in chain order).
    ///
    /// Only the new chain is validated. On a valid set, the result equals
    /// what [`TaskSet::builder`] makes from the same chains with the same
    /// priorities, index included.
    ///
    /// # Errors
    ///
    /// The error [`TaskSetBuilder::build`] reports for this chain at
    /// position `pos`; the set is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `pos > num_tasks()`.
    pub fn insert_chain(
        &mut self,
        pos: usize,
        period: Dur,
        deadline: Dur,
        links: &[(usize, Dur)],
    ) -> Result<(), ValidateTaskSetError> {
        assert!(pos <= self.tasks.len(), "chain position {pos} out of range");
        if self.num_processors == 0 {
            return Err(ValidateTaskSetError::NoProcessors);
        }
        let id = TaskId::new(pos);
        let task = Task {
            id,
            period,
            phase: Time::ZERO,
            deadline,
            subtasks: links
                .iter()
                .enumerate()
                .map(|(j, &(processor, execution))| Subtask {
                    id: SubtaskId::new(id, j),
                    processor: ProcessorId::new(processor),
                    execution,
                    priority: Priority::HIGHEST,
                    preemptible: true,
                    critical_sections: Vec::new(),
                })
                .collect(),
        };
        validate_chain(&task, self.num_processors)?;
        self.tasks.insert(pos, task);
        self.restride();
        Ok(())
    }

    /// Removes task `pos` from a set in chain order (see
    /// [`insert_chain`](TaskSet::insert_chain)) and returns it with the
    /// ids and priorities it had. Later tasks move down one position, and
    /// priorities and the priority index are rewritten for the shrunk set.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= num_tasks()`.
    pub fn remove_chain(&mut self, pos: usize) -> Task {
        let task = self.tasks.remove(pos);
        self.restride();
        task
    }

    /// Renumbers every task by position, gives every subtask its
    /// chain-order priority and refills the index.
    fn restride(&mut self) {
        let stride = self
            .tasks
            .iter()
            .map(Task::chain_len)
            .max()
            .unwrap_or(1)
            .max(1);
        for (i, task) in self.tasks.iter_mut().enumerate() {
            task.id = TaskId::new(i);
            for (j, sub) in task.subtasks.iter_mut().enumerate() {
                sub.id = SubtaskId::new(task.id, j);
                sub.priority = Priority::new((i * stride + j) as u32);
            }
        }
        self.index
            .fill_chain_ordered(self.num_processors, &self.tasks);
    }
}

/// `execution / period` in ppm, rounded down.
fn floor_ppm(execution: Dur, period: Dur) -> u64 {
    (execution.ticks() as i128 * 1_000_000 / period.ticks() as i128) as u64
}

/// Builder for a [`TaskSet`]; see the [module docs](self) for an example.
///
/// Tasks are added with [`TaskSetBuilder::task`], which hands back a
/// [`TaskChainBuilder`] for describing the chain; `finish_task` returns to
/// the set builder. [`TaskSetBuilder::build`] validates every model
/// invariant.
#[derive(Clone, Debug)]
pub struct TaskSetBuilder {
    num_processors: usize,
    tasks: Vec<Task>,
}

impl TaskSetBuilder {
    /// Creates a builder for a system with `num_processors` processors.
    pub fn new(num_processors: usize) -> TaskSetBuilder {
        TaskSetBuilder {
            num_processors,
            tasks: Vec::new(),
        }
    }

    /// Starts a new task with the given period. Phase defaults to
    /// [`Time::ZERO`] and the relative deadline defaults to the period
    /// (the paper's simulation setting).
    pub fn task(self, period: Dur) -> TaskChainBuilder {
        let id = TaskId::new(self.tasks.len());
        TaskChainBuilder {
            set: self,
            task: Task {
                id,
                period,
                phase: Time::ZERO,
                deadline: period,
                subtasks: Vec::new(),
            },
        }
    }

    /// Validates and produces the immutable [`TaskSet`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateTaskSetError`] violated, if any.
    pub fn build(self) -> Result<TaskSet, ValidateTaskSetError> {
        let mut set = TaskSet {
            num_processors: self.num_processors,
            tasks: self.tasks,
            index: PriorityIndex::default(),
        };
        set.index = validate(&set)?;
        Ok(set)
    }
}

/// Builder for one task's chain; produced by [`TaskSetBuilder::task`].
#[derive(Clone, Debug)]
pub struct TaskChainBuilder {
    set: TaskSetBuilder,
    task: Task,
}

impl TaskChainBuilder {
    /// Sets the task's phase (default `Time::ZERO`).
    pub fn phase(mut self, phase: Time) -> TaskChainBuilder {
        self.task.phase = phase;
        self
    }

    /// Sets the end-to-end relative deadline (default: the period).
    pub fn deadline(mut self, deadline: Dur) -> TaskChainBuilder {
        self.task.deadline = deadline;
        self
    }

    /// Appends a (preemptible) subtask executing on processor `processor`
    /// for `execution` ticks at the given fixed priority.
    pub fn subtask(self, processor: usize, execution: Dur, priority: Priority) -> TaskChainBuilder {
        self.push_subtask(processor, execution, priority, true)
    }

    /// Appends a **non-preemptive** subtask: once an instance starts
    /// executing it runs to completion, blocking even higher-priority work
    /// on its processor (accounted as a blocking term by the analyses).
    pub fn nonpreemptive_subtask(
        self,
        processor: usize,
        execution: Dur,
        priority: Priority,
    ) -> TaskChainBuilder {
        self.push_subtask(processor, execution, priority, false)
    }

    /// Adds a critical section to the **most recently added** subtask: the
    /// job holds `resource` while its executed amount is in
    /// `[start, start + len)`, running at the resource's priority ceiling
    /// (Highest Locker protocol).
    ///
    /// # Panics
    ///
    /// Panics if no subtask has been added to this task yet. Range and
    /// overlap violations are reported by [`TaskSetBuilder::build`].
    pub fn critical_section(mut self, resource: usize, start: Dur, len: Dur) -> TaskChainBuilder {
        let sub = self
            .task
            .subtasks
            .last_mut()
            .expect("critical_section applies to the last added subtask");
        sub.critical_sections.push(CriticalSection {
            resource: ResourceId::new(resource),
            start,
            len,
        });
        self
    }

    fn push_subtask(
        mut self,
        processor: usize,
        execution: Dur,
        priority: Priority,
        preemptible: bool,
    ) -> TaskChainBuilder {
        let id = SubtaskId::new(self.task.id, self.task.subtasks.len());
        self.task.subtasks.push(Subtask {
            id,
            processor: ProcessorId::new(processor),
            execution,
            priority,
            preemptible,
            critical_sections: Vec::new(),
        });
        self
    }

    /// Finishes this task and returns to the set builder.
    pub fn finish_task(mut self) -> TaskSetBuilder {
        self.set.tasks.push(self.task);
        self.set
    }
}

/// Checks every model invariant and returns the set's priority index.
fn validate(set: &TaskSet) -> Result<PriorityIndex, ValidateTaskSetError> {
    if set.num_processors == 0 {
        return Err(ValidateTaskSetError::NoProcessors);
    }
    for task in &set.tasks {
        validate_chain(task, set.num_processors)?;
    }
    // Critical sections: positive length, inside the budget, disjoint and
    // sorted; resources local to one processor.
    let mut resource_home: Vec<Option<ProcessorId>> = vec![None; set.num_resources()];
    for task in &set.tasks {
        for sub in &task.subtasks {
            let mut prev_end = Dur::ZERO;
            let mut sections = sub.critical_sections.clone();
            sections.sort_by_key(|cs| cs.start);
            for cs in &sections {
                if !cs.len.is_positive() || cs.start < Dur::ZERO || cs.end() > sub.execution {
                    return Err(ValidateTaskSetError::CriticalSectionOutOfRange(
                        sub.id,
                        cs.resource,
                    ));
                }
                if cs.start < prev_end {
                    return Err(ValidateTaskSetError::CriticalSectionsOverlap(sub.id));
                }
                prev_end = cs.end();
                let home = &mut resource_home[cs.resource.index()];
                match home {
                    None => *home = Some(sub.processor),
                    Some(p) if *p != sub.processor => {
                        return Err(ValidateTaskSetError::ResourceSpansProcessors(
                            cs.resource,
                            *p,
                            sub.processor,
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
    }

    // Unique priorities per processor; the sorted lists are the index.
    let mut on: Vec<Vec<(Priority, SubtaskId, u32)>> = vec![Vec::new(); set.num_processors];
    for (n, sub) in set.subtasks().enumerate() {
        on[sub.processor.index()].push((sub.priority, sub.id, number(n)));
    }
    let mut index = PriorityIndex {
        order: Vec::with_capacity(set.num_subtasks()),
        proc_start: Vec::with_capacity(set.num_processors + 1),
        task_start: Vec::with_capacity(set.num_tasks() + 1),
        base_model: true,
    };
    index.proc_start.push(0);
    for mut seen in on {
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(ValidateTaskSetError::DuplicatePriority(
                    pair[0].1, pair[1].1,
                ));
            }
        }
        index.order.extend(seen.iter().map(|&(_, _, n)| n));
        index.proc_start.push(number(index.order.len()));
    }
    index.fill_task_starts(&set.tasks);
    Ok(index)
}

/// The model checks of one chain, in the order [`TaskSetBuilder::build`]
/// applies them.
fn validate_chain(task: &Task, num_processors: usize) -> Result<(), ValidateTaskSetError> {
    if task.subtasks.is_empty() {
        return Err(ValidateTaskSetError::EmptyChain(task.id));
    }
    if !task.period.is_positive() {
        return Err(ValidateTaskSetError::NonPositivePeriod(
            task.id,
            task.period,
        ));
    }
    if !task.deadline.is_positive() {
        return Err(ValidateTaskSetError::NonPositiveDeadline(
            task.id,
            task.deadline,
        ));
    }
    if task.phase < Time::ZERO {
        return Err(ValidateTaskSetError::NegativePhase(task.id));
    }
    let mut prev_proc: Option<ProcessorId> = None;
    for sub in &task.subtasks {
        if !sub.execution.is_positive() {
            return Err(ValidateTaskSetError::NonPositiveExecution(
                sub.id,
                sub.execution,
            ));
        }
        if sub.processor.index() >= num_processors {
            return Err(ValidateTaskSetError::UnknownProcessor(
                sub.id,
                sub.processor,
            ));
        }
        if prev_proc == Some(sub.processor) {
            return Err(ValidateTaskSetError::ConsecutiveOnSameProcessor(
                sub.id,
                sub.processor,
            ));
        }
        prev_proc = Some(sub.processor);
    }
    Ok(())
}

/// A subtask number as the index stores it.
fn number(n: usize) -> u32 {
    u32::try_from(n).expect("a task set holds fewer than 2^32 subtasks")
}

impl PriorityIndex {
    /// Refills `task_start` and `base_model` from `tasks`.
    fn fill_task_starts(&mut self, tasks: &[Task]) {
        self.task_start.clear();
        self.task_start.push(0);
        let mut n = 0;
        for task in tasks {
            n += task.chain_len();
            self.task_start.push(number(n));
        }
        self.base_model = tasks
            .iter()
            .flat_map(|t| &t.subtasks)
            .all(|s| s.preemptible && s.critical_sections.is_empty());
    }

    /// Refills the index of a chain-ordered set in one counting pass: on
    /// every processor, ascending subtask numbers are descending
    /// priorities, so each processor's list is its subtasks in number
    /// order and no sort is needed.
    fn fill_chain_ordered(&mut self, num_processors: usize, tasks: &[Task]) {
        let subtasks = || tasks.iter().flat_map(|t| &t.subtasks);
        // proc_start[p + 1] counts processor p's subtasks; the prefix sum
        // turns proc_start[p] into the first slot of processor p.
        self.proc_start.clear();
        self.proc_start.resize(num_processors + 1, 0);
        for sub in subtasks() {
            self.proc_start[sub.processor.index() + 1] += 1;
        }
        for p in 1..=num_processors {
            self.proc_start[p] += self.proc_start[p - 1];
        }
        // Filling advances proc_start[p] to processor p's end, which is
        // processor p + 1's start; shifting by one slot restores the starts.
        self.order.clear();
        self.order
            .resize(self.proc_start[num_processors] as usize, 0);
        for (n, sub) in subtasks().enumerate() {
            let slot = &mut self.proc_start[sub.processor.index()];
            self.order[*slot as usize] = number(n);
            *slot += 1;
        }
        self.proc_start.copy_within(..num_processors, 1);
        self.proc_start[0] = 0;
        self.fill_task_starts(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(t: i64) -> Dur {
        Dur::from_ticks(t)
    }

    /// Example 2 of the paper (Figure 2).
    pub(crate) fn example2() -> TaskSet {
        TaskSet::builder(2)
            .task(d(4))
            .subtask(0, d(2), Priority::new(0))
            .finish_task()
            .task(d(6))
            .subtask(0, d(2), Priority::new(1))
            .subtask(1, d(3), Priority::new(0))
            .finish_task()
            .task(d(6))
            .phase(Time::from_ticks(4))
            .subtask(1, d(2), Priority::new(1))
            .finish_task()
            .build()
            .expect("example 2 is valid")
    }

    #[test]
    fn example2_shape() {
        let s = example2();
        assert_eq!(s.num_tasks(), 3);
        assert_eq!(s.num_processors(), 2);
        assert_eq!(s.num_subtasks(), 4);
        let t2 = s.task(TaskId::new(1));
        assert_eq!(t2.chain_len(), 2);
        assert_eq!(t2.period(), d(6));
        assert_eq!(t2.deadline(), d(6)); // defaults to period
        assert_eq!(t2.total_execution(), d(5));
        assert_eq!(s.task(TaskId::new(2)).phase(), Time::from_ticks(4));
    }

    #[test]
    fn subtask_lookup_and_ids() {
        let s = example2();
        let id = SubtaskId::new(TaskId::new(1), 1);
        let sub = s.subtask(id);
        assert_eq!(sub.id(), id);
        assert_eq!(sub.processor(), ProcessorId::new(1));
        assert_eq!(sub.execution(), d(3));
        assert_eq!(sub.priority(), Priority::new(0));
        assert_eq!(id.predecessor(), Some(SubtaskId::new(TaskId::new(1), 0)));
        assert_eq!(SubtaskId::new(TaskId::new(1), 0).predecessor(), None);
        assert!(SubtaskId::new(TaskId::new(1), 0).is_first());
        assert!(!id.is_first());
    }

    #[test]
    fn successor_of_respects_chain_end() {
        let s = example2();
        let t2 = s.task(TaskId::new(1));
        let first = SubtaskId::new(TaskId::new(1), 0);
        let second = SubtaskId::new(TaskId::new(1), 1);
        assert_eq!(t2.successor_of(first), Some(second));
        assert_eq!(t2.successor_of(second), None);
    }

    #[test]
    fn priority_ordering_convention() {
        let hi = Priority::new(0);
        let lo = Priority::new(5);
        assert!(hi.is_higher_than(lo));
        assert!(!lo.is_higher_than(hi));
        assert!(hi.is_at_least(hi));
        assert!(hi.is_at_least(lo));
        assert!(!lo.is_at_least(hi));
        assert_eq!(Priority::HIGHEST, Priority::new(0));
    }

    #[test]
    fn interference_set_excludes_self_and_lower() {
        let s = example2();
        // On P0: T0.0 (prio 0) and T1.0 (prio 1).
        let t00 = SubtaskId::new(TaskId::new(0), 0);
        let t10 = SubtaskId::new(TaskId::new(1), 0);
        let h = |id| s.interference_set(id).map(Subtask::id).collect::<Vec<_>>();
        assert_eq!(h(t00), vec![]);
        assert_eq!(h(t10), vec![t00]);
        // On P1: T1.1 (prio 0) and T2.0 (prio 1).
        let t11 = SubtaskId::new(TaskId::new(1), 1);
        let t20 = SubtaskId::new(TaskId::new(2), 0);
        assert_eq!(h(t11), vec![]);
        assert_eq!(h(t20), vec![t11]);
    }

    #[test]
    fn utilization_ppm() {
        let s = example2();
        // P0: 2/4 + 2/6 = 0.8333..
        let u0 = s.processor_utilization_ppm(ProcessorId::new(0));
        assert!((833_332..=833_334).contains(&u0), "{u0}");
        // P1: 3/6 + 2/6 = 0.8333..
        let u1 = s.processor_utilization_ppm(ProcessorId::new(1));
        assert!((833_332..=833_334).contains(&u1), "{u1}");
        assert_eq!(s.max_processor_utilization_ppm(), u0.max(u1));
    }

    #[test]
    fn nominal_release_times() {
        let s = example2();
        let t3 = s.task(TaskId::new(2));
        assert_eq!(t3.nominal_release(0), Time::from_ticks(4));
        assert_eq!(t3.nominal_release(1), Time::from_ticks(10));
        assert_eq!(t3.nominal_release(3), Time::from_ticks(22));
    }

    #[test]
    fn rejects_empty_chain() {
        let err = TaskSet::builder(1)
            .task(d(10))
            .finish_task()
            .build()
            .unwrap_err();
        assert_eq!(err, ValidateTaskSetError::EmptyChain(TaskId::new(0)));
    }

    #[test]
    fn rejects_bad_period_and_deadline() {
        let err = TaskSet::builder(1)
            .task(d(0))
            .subtask(0, d(1), Priority::new(0))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidateTaskSetError::NonPositivePeriod(..)));

        let err = TaskSet::builder(1)
            .task(d(5))
            .deadline(d(-1))
            .subtask(0, d(1), Priority::new(0))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidateTaskSetError::NonPositiveDeadline(..)));
    }

    #[test]
    fn rejects_zero_execution() {
        let err = TaskSet::builder(1)
            .task(d(5))
            .subtask(0, d(0), Priority::new(0))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidateTaskSetError::NonPositiveExecution(..)
        ));
    }

    #[test]
    fn rejects_unknown_processor() {
        let err = TaskSet::builder(1)
            .task(d(5))
            .subtask(3, d(1), Priority::new(0))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidateTaskSetError::UnknownProcessor(..)));
    }

    #[test]
    fn rejects_consecutive_same_processor() {
        let err = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(1), Priority::new(0))
            .subtask(0, d(1), Priority::new(1))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidateTaskSetError::ConsecutiveOnSameProcessor(..)
        ));
    }

    #[test]
    fn allows_nonconsecutive_same_processor() {
        // A -> B -> A is legal: only *consecutive* subtasks must differ.
        let set = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(1), Priority::new(0))
            .subtask(1, d(1), Priority::new(0))
            .subtask(0, d(1), Priority::new(1))
            .finish_task()
            .build();
        assert!(set.is_ok());
    }

    #[test]
    fn rejects_duplicate_priorities_on_processor() {
        let err = TaskSet::builder(1)
            .task(d(5))
            .subtask(0, d(1), Priority::new(0))
            .finish_task()
            .task(d(7))
            .subtask(0, d(1), Priority::new(0))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidateTaskSetError::DuplicatePriority(..)));
    }

    #[test]
    fn allows_same_priority_on_different_processors() {
        let set = TaskSet::builder(2)
            .task(d(5))
            .subtask(0, d(1), Priority::new(0))
            .finish_task()
            .task(d(7))
            .subtask(1, d(1), Priority::new(0))
            .finish_task()
            .build();
        assert!(set.is_ok());
    }

    #[test]
    fn rejects_negative_phase_and_no_processors() {
        let err = TaskSet::builder(1)
            .task(d(5))
            .phase(Time::from_ticks(-1))
            .subtask(0, d(1), Priority::new(0))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidateTaskSetError::NegativePhase(..)));

        let err = TaskSet::builder(0).build().unwrap_err();
        assert_eq!(err, ValidateTaskSetError::NoProcessors);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId::new(2).to_string(), "T2");
        assert_eq!(ProcessorId::new(1).to_string(), "P1");
        assert_eq!(SubtaskId::new(TaskId::new(2), 1).to_string(), "T2.1");
        assert_eq!(Priority::new(3).to_string(), "prio3");
    }

    #[test]
    fn nonpreemptive_flag_and_blocking_bound() {
        // P0 hosts: T0 (prio 0, preemptible), T1 (prio 1, non-preemptive
        // c=5), T2 (prio 2, non-preemptive c=3).
        let set = TaskSet::builder(1)
            .task(d(20))
            .subtask(0, d(2), Priority::new(0))
            .finish_task()
            .task(d(20))
            .nonpreemptive_subtask(0, d(5), Priority::new(1))
            .finish_task()
            .task(d(20))
            .nonpreemptive_subtask(0, d(3), Priority::new(2))
            .finish_task()
            .build()
            .unwrap();
        let s0 = SubtaskId::new(TaskId::new(0), 0);
        let s1 = SubtaskId::new(TaskId::new(1), 0);
        let s2 = SubtaskId::new(TaskId::new(2), 0);
        assert!(set.subtask(s0).is_preemptible());
        assert!(!set.subtask(s1).is_preemptible());
        // T0 can be blocked by either: worst is c=5 → B = 4.
        assert_eq!(set.blocking_bound(s0), d(4));
        // T1 can only be blocked by T2: B = 2.
        assert_eq!(set.blocking_bound(s1), d(2));
        // Nothing below T2: B = 0.
        assert_eq!(set.blocking_bound(s2), Dur::ZERO);
    }

    #[test]
    fn preemptible_default_gives_zero_blocking() {
        let s = example2();
        for sub in s.subtasks() {
            assert!(sub.is_preemptible());
            assert_eq!(s.blocking_bound(sub.id()), Dur::ZERO);
        }
    }

    /// P0 hosts three subtasks sharing resource 0 with mixed priorities.
    fn cs_system() -> TaskSet {
        TaskSet::builder(1)
            .task(d(50))
            .subtask(0, d(5), Priority::new(0)) // high, uses R0 briefly
            .critical_section(0, d(1), d(2))
            .finish_task()
            .task(d(60))
            .subtask(0, d(8), Priority::new(1)) // mid, no resources
            .finish_task()
            .task(d(80))
            .subtask(0, d(10), Priority::new(2)) // low, long R0 section
            .critical_section(0, d(2), d(6))
            .finish_task()
            .build()
            .expect("cs system is valid")
    }

    #[test]
    fn resource_ceiling_and_counts() {
        let s = cs_system();
        assert_eq!(s.num_resources(), 1);
        assert_eq!(
            s.resource_ceiling(ResourceId::new(0)),
            Some(Priority::new(0))
        );
        assert_eq!(s.resource_ceiling(ResourceId::new(5)), None);
        let high = s.subtask(SubtaskId::new(TaskId::new(0), 0));
        assert_eq!(high.critical_sections().len(), 1);
        assert_eq!(high.critical_sections()[0].end(), d(3));
    }

    #[test]
    fn ceiling_blocking_bounds() {
        let s = cs_system();
        let high = SubtaskId::new(TaskId::new(0), 0);
        let mid = SubtaskId::new(TaskId::new(1), 0);
        let low = SubtaskId::new(TaskId::new(2), 0);
        // High can be blocked by low's 6-tick section (ceiling = high).
        assert_eq!(s.blocking_bound(high), d(6));
        // Mid is blocked too: low's section runs at ceiling 0 >= mid's 1.
        assert_eq!(s.blocking_bound(mid), d(6));
        // Low has nothing below it.
        assert_eq!(s.blocking_bound(low), Dur::ZERO);
    }

    #[test]
    fn ceiling_blocking_combines_with_nonpreemptive() {
        // A 9-tick non-preemptive blocker (B = 8) beats a 6-tick section.
        let s = TaskSet::builder(1)
            .task(d(50))
            .subtask(0, d(5), Priority::new(0))
            .critical_section(0, d(0), d(1))
            .finish_task()
            .task(d(60))
            .nonpreemptive_subtask(0, d(9), Priority::new(1))
            .finish_task()
            .task(d(80))
            .subtask(0, d(10), Priority::new(2))
            .critical_section(0, d(0), d(6))
            .finish_task()
            .build()
            .unwrap();
        assert_eq!(s.blocking_bound(SubtaskId::new(TaskId::new(0), 0)), d(8));
    }

    #[test]
    fn rejects_out_of_range_and_overlapping_sections() {
        let err = TaskSet::builder(1)
            .task(d(10))
            .subtask(0, d(4), Priority::new(0))
            .critical_section(0, d(3), d(5)) // ends at 8 > exec 4
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidateTaskSetError::CriticalSectionOutOfRange(..)
        ));
        let err = TaskSet::builder(1)
            .task(d(10))
            .subtask(0, d(6), Priority::new(0))
            .critical_section(0, d(0), d(3))
            .critical_section(1, d(2), d(2)) // overlaps [0,3)
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidateTaskSetError::CriticalSectionsOverlap(..)
        ));
        let err = TaskSet::builder(1)
            .task(d(10))
            .subtask(0, d(4), Priority::new(0))
            .critical_section(0, d(0), d(0)) // zero length
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidateTaskSetError::CriticalSectionOutOfRange(..)
        ));
    }

    #[test]
    fn rejects_cross_processor_resources() {
        let err = TaskSet::builder(2)
            .task(d(10))
            .subtask(0, d(4), Priority::new(0))
            .critical_section(0, d(0), d(2))
            .finish_task()
            .task(d(12))
            .subtask(1, d(4), Priority::new(0))
            .critical_section(0, d(0), d(2))
            .finish_task()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidateTaskSetError::ResourceSpansProcessors(..)
        ));
    }

    /// A `(period, deadline, links)` chain of the tests below.
    type Chain = (i64, i64, &'static [(usize, i64)]);

    /// What the builder makes of `chains` over three processors in chain
    /// order: priorities `pos·stride + j`, `stride` the longest chain.
    fn chain_ordered(chains: &[Chain]) -> Result<TaskSet, ValidateTaskSetError> {
        let stride = chains.iter().map(|c| c.2.len()).max().unwrap_or(1);
        let mut b = TaskSet::builder(3);
        for (pos, &(period, deadline, links)) in chains.iter().enumerate() {
            let mut tb = b.task(d(period)).deadline(d(deadline));
            for (j, &(proc, exec)) in links.iter().enumerate() {
                tb = tb.subtask(proc, d(exec), Priority::new((pos * stride + j) as u32));
            }
            b = tb.finish_task();
        }
        b.build()
    }

    const CHAINS: [Chain; 3] = [
        (10, 20, &[(0, 1), (1, 2)]),
        (20, 40, &[(1, 3), (2, 1), (0, 2)]),
        (30, 60, &[(2, 4)]),
    ];

    /// `chain` inserted into `set` at `pos`.
    fn insert(set: &mut TaskSet, pos: usize, chain: Chain) -> Result<(), ValidateTaskSetError> {
        let (period, deadline, links) = chain;
        let links: Vec<_> = links.iter().map(|&(p, e)| (p, d(e))).collect();
        set.insert_chain(pos, d(period), d(deadline), &links)
    }

    /// `CHAINS` with `chain` inserted at `pos`.
    fn grown(pos: usize, chain: Chain) -> Vec<Chain> {
        let mut chains = CHAINS.to_vec();
        chains.insert(pos, chain);
        chains
    }

    /// Every index query of `set`, for comparing two sets' indexes.
    fn index_queries(set: &TaskSet) -> Vec<Vec<SubtaskId>> {
        let mut out: Vec<Vec<SubtaskId>> = (0..set.num_processors())
            .map(|p| {
                set.subtasks_on(ProcessorId::new(p))
                    .map(Subtask::id)
                    .collect()
            })
            .collect();
        for sub in set.subtasks() {
            out.push(set.interference_set(sub.id()).map(Subtask::id).collect());
        }
        out
    }

    #[test]
    fn inserted_chains_match_the_builder_and_removal_restores_the_set() {
        let original = chain_ordered(&CHAINS).unwrap();
        for pos in 0..=CHAINS.len() {
            // A four-link chain changes the stride of every other chain.
            for new in [
                (40, 80, &[(1, 1)][..]),
                (40, 80, &[(0, 1), (2, 1), (1, 1), (0, 1)][..]),
            ] {
                let mut set = original.clone();
                insert(&mut set, pos, new).unwrap();
                let built = chain_ordered(&grown(pos, new)).unwrap();
                assert_eq!(set, built, "insert at {pos}");
                assert_eq!(index_queries(&set), index_queries(&built));

                let removed = set.remove_chain(pos);
                assert_eq!(removed.chain_len(), new.2.len());
                assert_eq!(set, original, "remove at {pos}");
                assert_eq!(index_queries(&set), index_queries(&original));
            }
        }
        // Down to nothing and back up from an empty set.
        let mut set = original.clone();
        for _ in 0..CHAINS.len() {
            set.remove_chain(0);
        }
        assert_eq!(set.num_tasks(), 0);
        assert!(index_queries(&set).iter().all(Vec::is_empty));
        let mut set = TaskSet::empty(3);
        for (pos, chain) in CHAINS.into_iter().enumerate() {
            insert(&mut set, pos, chain).unwrap();
        }
        assert_eq!(set, original);
        assert_eq!(index_queries(&set), index_queries(&original));
    }

    #[test]
    fn invalid_chains_are_refused_with_the_builders_error() {
        let cases: [(&str, Chain); 7] = [
            ("empty chain", (40, 40, &[])),
            ("zero period", (0, 40, &[(0, 1)])),
            ("negative deadline", (40, -1, &[(0, 1)])),
            ("zero execution", (40, 40, &[(0, 1), (1, 0)])),
            ("unknown processor", (40, 40, &[(0, 1), (3, 1)])),
            ("same-processor hop", (40, 40, &[(2, 1), (2, 1)])),
            (
                "second hop onto the same processor",
                (40, 40, &[(0, 1), (1, 1), (1, 1)]),
            ),
        ];
        let original = chain_ordered(&CHAINS).unwrap();
        for pos in 0..=CHAINS.len() {
            for (what, chain) in cases {
                let expected = chain_ordered(&grown(pos, chain)).unwrap_err();
                let mut set = original.clone();
                let err = insert(&mut set, pos, chain).unwrap_err();
                assert_eq!(err, expected, "{what} at {pos}");
                assert_eq!(set, original, "{what} at {pos} left the set changed");
                assert_eq!(index_queries(&set), index_queries(&original));
            }
        }
        let err = insert(&mut TaskSet::empty(0), 0, CHAINS[0]).unwrap_err();
        assert_eq!(err, TaskSet::builder(0).build().unwrap_err());
    }

    #[test]
    fn subtasks_on_filters_by_processor() {
        let s = example2();
        let on_p0: Vec<_> = s.subtasks_on(ProcessorId::new(0)).map(|x| x.id()).collect();
        assert_eq!(
            on_p0,
            vec![
                SubtaskId::new(TaskId::new(0), 0),
                SubtaskId::new(TaskId::new(1), 0)
            ]
        );
        assert_eq!(s.subtasks_on(ProcessorId::new(1)).count(), 2);
    }
}
