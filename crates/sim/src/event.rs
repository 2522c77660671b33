//! The deterministic event queue.
//!
//! Events are totally ordered by `(time, kind rank, insertion sequence)`.
//! The kind rank encodes the same-instant semantics the protocols need:
//! completions are observed before any release at the same instant (a job
//! finishing exactly when a higher-priority job arrives is *not* preempted),
//! and timer/guard firings precede fresh releases. The insertion sequence
//! makes every run bit-for-bit reproducible.
//!
//! # One packed-key heap
//!
//! [`EventQueue`] orders everything by one `u128` key: time with its sign
//! bit flipped in the top 64 bits, the kind rank in the next 8, the
//! insertion sequence in the low 56. A sift step is one integer compare,
//! with no rank lookup. Simulation traffic is sparse in time (§5.1 source
//! periods span 10⁵–10⁷ ticks), so a plain heap beats bucketing by tick.
//!
//! # Keyed slots: one live deadline per component
//!
//! Most events fire exactly once. Some are deadlines that their owner
//! keeps changing its mind about: a processor's next milestone
//! ([`EventKind::Completion`]) moves on every preemption, a detector
//! pair's suspicion deadline ([`EventKind::SuspectTimer`]) moves on every
//! heartbeat, and an RG guard's expiry ([`EventKind::GuardExpiry`]) moves
//! on every release and clears when its last deferred instance goes.
//! The fault schedule's next edge is kept the same way. Pushing each new
//! deadline into the heap would leave the old one behind as a superseded
//! entry that the loop must pop and discard.
//! Instead each such deadline lives in a *slot*: [`EventQueue::arm`]
//! replaces the slot's pending entry and [`EventQueue::disarm`] clears it,
//! so a slot holds at most one entry and nothing superseded is ever
//! popped. Armed slots sit in a small indexed min-heap under the same
//! packed key, and `arm` draws its sequence from the counter
//! [`EventQueue::push`] uses, so [`EventQueue::pop`] — the smaller of the
//! two heap tops — yields every live event in exactly the order a single
//! heap would. [`ReferenceEventQueue`] keeps the tuple-comparator heap as
//! the ordering oracle for differential tests; it models a slot the naive
//! way, as a push plus a skip of superseded entries on pop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rtsync_core::task::{ProcessorId, SubtaskId, TaskId};
use rtsync_core::time::{Dur, Time};

use crate::job::JobId;

/// What happens when an event fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Fail-stop crash of a processor (fault mode only): every in-flight
    /// job and pending timer on the node dies. Ranked before everything
    /// else at its instant so the node is down before any same-instant
    /// completion, signal or release is processed.
    Crash {
        /// The processor that fails.
        proc: ProcessorId,
    },
    /// A crashed processor rejoins (fault mode only). Ranked right after
    /// [`EventKind::Crash`] so the node is up again before any
    /// same-instant traffic, and protocol state is reconciled first.
    Recover {
        /// The processor that rejoins.
        proc: ProcessorId,
    },
    /// A network partition opens (partition mode only): the processor set
    /// splits into two islands and every cross-island signal, heartbeat,
    /// transport frame and sync frame is severed until the heal. Ranked
    /// with the liveness events — the cut must be in force before any
    /// same-instant traffic is routed.
    PartitionStart {
        /// Index into the resolved partition-window schedule.
        idx: u32,
    },
    /// A network partition heals (partition mode only): connectivity is
    /// restored and signals parked at the cut are replayed through the
    /// per-protocol recovery reconciliation.
    PartitionHeal {
        /// Index into the resolved partition-window schedule.
        idx: u32,
    },
    /// A gray-failure slowdown window opens (gray mode only): the
    /// processor's execution rate drops to `1/factor` of nominal, and its
    /// heartbeat cadence stretches by the same factor. Joins the liveness
    /// prologue so the degraded rate is in force before any same-instant
    /// work executes.
    SlowStart {
        /// The degrading processor.
        proc: ProcessorId,
        /// Index into the resolved slow-window schedule of `proc`.
        idx: u32,
    },
    /// A slowdown window closes: the processor returns to nominal rate.
    SlowEnd {
        /// The recovering processor.
        proc: ProcessorId,
    },
    /// A GC-pause-style stall begins (gray mode only): the processor
    /// stops executing and broadcasting entirely, but — unlike a crash —
    /// keeps every in-flight job, guard and timer. Work resumes where it
    /// left off at the matching [`EventKind::StallEnd`].
    StallStart {
        /// The stalling processor.
        proc: ProcessorId,
    },
    /// A stall ends: frozen jobs resume with their remaining execution
    /// intact.
    StallEnd {
        /// The resuming processor.
        proc: ProcessorId,
    },
    /// A per-link degradation window opens (gray mode only): the directed
    /// link gains extra latency, seeded jitter and elevated drop while
    /// staying nominally alive.
    LinkDegradeStart {
        /// Index into the resolved link-degradation schedule.
        idx: u32,
    },
    /// A link-degradation window closes: the wire returns to nominal.
    LinkDegradeEnd {
        /// Index into the resolved link-degradation schedule.
        idx: u32,
    },
    /// The next milestone of the job running on `proc`: its completion or
    /// a critical-section boundary. Lives in the processor's milestone
    /// slot, so it is always the processor's current milestone.
    Completion {
        /// The processor whose running job reaches its milestone.
        proc: ProcessorId,
    },
    /// An MPM per-release timer fired: `R_{i,j}` ticks after `job`'s
    /// release, signal the successor's processor.
    MpmTimer {
        /// The predecessor job whose timer fired.
        job: JobId,
    },
    /// A nonideal-mode synchronization signal leaves its sender: the
    /// channel draws its latency (and faults) and schedules the delivery.
    /// Only produced when a [`ChannelModel`] is configured.
    ///
    /// [`ChannelModel`]: crate::nonideal::ChannelModel
    SignalSend {
        /// The successor job the signal asks for.
        job: JobId,
    },
    /// A nonideal-mode synchronization signal reaches its receiver, which
    /// applies deliveries in instance order (early arrivals are buffered).
    SignalDeliver {
        /// The successor job the signal asks for.
        job: JobId,
    },
    /// A deferred RG release reaches its guard time. Lives in the
    /// subtask's guard slot, armed exactly while the guard defers an
    /// instance, so it always releases the deferred head.
    GuardExpiry {
        /// The guarded subtask.
        subtask: SubtaskId,
    },
    /// The external source releases the next instance of a task's first
    /// subtask.
    SourceRelease {
        /// The task.
        task: TaskId,
        /// The 0-based instance to release.
        instance: u64,
    },
    /// The PM protocol's clock-driven release of a later subtask.
    TimedRelease {
        /// The subtask.
        subtask: SubtaskId,
        /// The 0-based instance to release.
        instance: u64,
    },
    /// A copy of a numbered transport frame reaches its receiver
    /// (transport mode only): the endpoint acks it, deduplicates by `seq`
    /// and applies fresh payloads in instance order. Shares
    /// [`EventKind::SignalDeliver`]'s rank — the payload lands exactly
    /// where a channel delivery would.
    TransportDeliver {
        /// The successor job the frame asks for.
        job: JobId,
        /// The frame's sequence number.
        seq: u64,
    },
    /// An ack reaches the frame's sender, closing its in-flight window
    /// entry (transport mode only).
    AckDeliver {
        /// The acked frame's sequence number.
        seq: u64,
    },
    /// The sender's retransmission timer for one frame fired (transport
    /// mode only). A frame has one timer at a time; a firing after its
    /// ack or abandonment is a no-op.
    RetransmitTimer {
        /// The unacked frame's sequence number.
        seq: u64,
    },
    /// A processor broadcasts its periodic heartbeat (detector mode
    /// only). Self-rescheduling; crashed processors stay silent.
    HeartbeatSend {
        /// The broadcasting processor.
        proc: ProcessorId,
    },
    /// A heartbeat from `from` reaches every observer in `to` (detector
    /// mode only), re-arming each pair's suspicion deadline in ascending
    /// observer order. A broadcast queues one delivery for all the peers
    /// it reaches in the instant it is sent, and one per gray-delayed
    /// peer.
    HeartbeatDeliver {
        /// The broadcaster.
        from: ProcessorId,
        /// The observing processors.
        to: PeerSet,
    },
    /// An observer's per-peer suspicion deadline passed (detector mode
    /// only). Lives in the pair's suspicion slot, which every heartbeat
    /// re-arms, so it fires only after a full silence. Fires once per
    /// escalation step (Suspect, then Dead; Degraded first under φ).
    SuspectTimer {
        /// The observing processor.
        observer: ProcessorId,
        /// The peer under suspicion.
        subject: ProcessorId,
    },
    /// The graceful-degradation controller releases a successor instance
    /// from local information because its predecessor's processor was
    /// declared dead (transport + detector mode only). Lazily
    /// invalidated: the handler rechecks liveness and release progress.
    DegradedRelease {
        /// The blocked successor subtask.
        subtask: SubtaskId,
        /// The 0-based instance to force-release.
        instance: u64,
    },
    /// A processor starts its next clock-synchronization round (sync mode
    /// only): it first settles the previous round's samples into a
    /// correction, then sends fresh timestamped requests to every peer and
    /// the reference. Self-rescheduling on the true-time cadence;
    /// crashed processors skip the body but keep the chain.
    SyncRound {
        /// The synchronizing processor.
        proc: ProcessorId,
    },
    /// A sync request frame from `from` reaches `to` (sync mode only),
    /// carrying the sender's corrected-clock send timestamp `t1`. The
    /// receiver stamps its own clock and responds over the channel.
    /// `to == from` addresses the external time reference, which answers
    /// with true time (a processor never syncs with itself).
    SyncRequest {
        /// The requesting processor.
        from: ProcessorId,
        /// The responder: a peer, or `from` itself for the reference.
        to: ProcessorId,
        /// The requester's corrected local clock at send time.
        t1: Time,
    },
    /// A sync response frame reaches the requester `to` (sync mode only),
    /// closing one NTP-style exchange: `t1` echoes the request's send
    /// stamp, `t2` is the responder's clock at the moment it answered.
    SyncResponse {
        /// The responder the exchange measured against (`from == to`
        /// addresses the external reference). Carried so the requester can
        /// widen the sample by the link's advertised asymmetry bound and
        /// so delivery honors an active partition cut.
        from: ProcessorId,
        /// The requesting processor the response returns to.
        to: ProcessorId,
        /// Echoed request send stamp (requester's corrected clock).
        t1: Time,
        /// The responder's clock reading when it answered.
        t2: Time,
        /// The responder's advertised error bound against true time (NTP's
        /// root dispersion): zero for the reference, the last settled
        /// uncertainty plus uncorrected residual for a peer, `None` for a
        /// peer that has never settled — the requester discards the
        /// sample, since a peer's clock reading alone is only a *relative*
        /// offset and its interval need not contain the true offset.
        disp: Option<Dur>,
    },
    /// A sync frame lost on the wire is retried (sync-over-transport mode
    /// only): the endpoint re-sends the request or response with a fresh
    /// budgeted attempt instead of silently losing the sample. Ranked
    /// last — a retry is pure bookkeeping and must not perturb the order
    /// of first-attempt sync traffic at the same instant.
    SyncRetry {
        /// The requesting processor of the exchange being repaired.
        from: ProcessorId,
        /// The responder of the exchange (`from` itself for the reference).
        to: ProcessorId,
        /// The request send stamp carried by the exchange (re-stamped on a
        /// request retry, echoed on a response retry).
        t1: Time,
        /// `true` to re-send the response leg, `false` the request leg.
        respond: bool,
        /// Attempt count already consumed, bounded by the retry budget.
        attempt: u8,
    },
}

/// A set of processors, one bit per processor index: the observers one
/// [`EventKind::HeartbeatDeliver`] reaches. Holds indices below
/// [`PeerSet::CAPACITY`]; a run whose detector would need more is
/// rejected before its first event.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PeerSet(u64);

impl PeerSet {
    /// The largest processor count a set can name.
    pub const CAPACITY: usize = 64;

    /// The set holding only `proc`.
    pub(crate) fn single(proc: ProcessorId) -> PeerSet {
        let mut set = PeerSet::default();
        set.insert(proc);
        set
    }

    /// Adds `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc`'s index is not below [`PeerSet::CAPACITY`].
    pub(crate) fn insert(&mut self, proc: ProcessorId) {
        assert!(proc.index() < PeerSet::CAPACITY, "{proc} exceeds a PeerSet");
        self.0 |= 1 << proc.index();
    }

    /// Number of processors in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = ProcessorId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let index = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(ProcessorId::new(index))
        })
    }
}

impl EventKind {
    /// Whether this is a fault-schedule edge: a crash, recovery,
    /// partition, slowdown, stall or link edge. These kinds own ranks
    /// 0–9 and nothing else.
    pub(crate) fn is_fault_edge(&self) -> bool {
        self.rank() < 10
    }

    /// Same-instant processing rank (lower fires first).
    pub(crate) fn rank(&self) -> u8 {
        // The relative order of the pre-existing kinds is load-bearing
        // (golden traces); the signal kinds slot in so a delivery lands
        // where the direct-path release used to happen — after completions
        // and timers, before guard expiries and fresh releases. Crash and
        // recovery lead the instant: fault mode never coexists with the
        // golden traces, and a node must change liveness before any
        // same-instant traffic touches it.
        match self {
            EventKind::Crash { .. } => 0,
            EventKind::Recover { .. } => 1,
            // Partition edges join the liveness prologue: the cut (or the
            // heal's replay) must be in force before any same-instant
            // traffic is routed. With partitions off these kinds never
            // exist, so the relative order of everything below is exactly
            // the pre-partition total order.
            EventKind::PartitionStart { .. } => 2,
            EventKind::PartitionHeal { .. } => 3,
            // Gray-failure edges complete the liveness prologue: a rate
            // change, stall edge or link-degradation edge must be in force
            // before any same-instant traffic. With gray faults off these
            // kinds never exist, so the relative order of everything below
            // is exactly the pre-gray total order.
            EventKind::SlowStart { .. } => 4,
            EventKind::SlowEnd { .. } => 5,
            EventKind::StallStart { .. } => 6,
            EventKind::StallEnd { .. } => 7,
            EventKind::LinkDegradeStart { .. } => 8,
            EventKind::LinkDegradeEnd { .. } => 9,
            EventKind::Completion { .. } => 10,
            EventKind::MpmTimer { .. } => 11,
            EventKind::SignalSend { .. } => 12,
            // A transport delivery is a signal delivery with an endpoint
            // wrapped around it: same rank, ties broken by insertion seq.
            EventKind::SignalDeliver { .. } | EventKind::TransportDeliver { .. } => 13,
            EventKind::GuardExpiry { .. } => 14,
            EventKind::SourceRelease { .. } => 15,
            EventKind::TimedRelease { .. } => 16,
            // Transport/detector bookkeeping trails the protocol events:
            // none of it releases work directly except DegradedRelease,
            // which deliberately runs last so every same-instant real
            // signal gets the first chance to release the instance.
            EventKind::AckDeliver { .. } => 17,
            EventKind::RetransmitTimer { .. } => 18,
            EventKind::HeartbeatSend { .. } => 19,
            EventKind::HeartbeatDeliver { .. } => 20,
            EventKind::SuspectTimer { .. } => 21,
            EventKind::DegradedRelease { .. } => 22,
            // Sync traffic trails everything: corrections settle at round
            // boundaries only, and a sync frame arriving in the same
            // instant as protocol work must not perturb its order. With
            // sync off none of these kinds exist, so the earlier ranks and
            // their golden traces are untouched. Retries trail even
            // first-attempt sync frames.
            EventKind::SyncRound { .. } => 23,
            EventKind::SyncRequest { .. } => 24,
            EventKind::SyncResponse { .. } => 25,
            EventKind::SyncRetry { .. } => 26,
        }
    }
}

/// A scheduled event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// When the event fires.
    pub time: Time,
    /// What fires.
    pub kind: EventKind,
    seq: u64,
}

impl Event {
    /// The insertion sequence that breaks same-time, same-rank ties.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.kind.rank().cmp(&self.kind.rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bits of the packed key that hold the insertion sequence.
const SEQ_BITS: u32 = 56;

/// Packs the order key: time with its sign bit flipped (so signed tick
/// order becomes unsigned key order) in the top 64 bits, then the kind
/// rank in 8 bits, then the insertion sequence in the low 56 bits. The
/// key is unique (the sequence is), so ordering by it alone is a total
/// order consistent with equality.
fn pack(time: Time, kind: &EventKind, seq: u64) -> u128 {
    debug_assert!(
        seq < 1 << SEQ_BITS,
        "insertion sequence overflows the packed key"
    );
    let time_bits = ((time.ticks() as u64) ^ (1 << 63)) as u128;
    (time_bits << 64) | ((kind.rank() as u128) << SEQ_BITS) | seq as u128
}

/// The time field of a packed key.
fn time_of(key: u128) -> Time {
    Time::from_ticks((((key >> 64) as u64) ^ (1 << 63)) as i64)
}

/// The event a packed key and its payload stand for.
fn unpack(key: u128, kind: EventKind) -> Event {
    Event {
        time: time_of(key),
        kind,
        seq: (key as u64) & ((1 << SEQ_BITS) - 1),
    }
}

/// A queued event: the packed order key plus the payload.
#[derive(Debug)]
struct Entry {
    key: u128,
    kind: EventKind,
}

impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key wins.
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

/// One keyed slot: its pending event, if armed, and where its key sits
/// in the armed-slot heap.
#[derive(Clone, Copy, Debug)]
struct Slot {
    kind: Option<EventKind>,
    pos: u32,
}

/// A deterministic min-queue of [`Event`]s: one binary heap for one-shot
/// events plus keyed slots for deadlines that get replaced (see the
/// module docs). Both are ordered by the same packed `u128` key.
#[derive(Default, Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot>,
    /// Indexed min-heap of the armed slots: `(key, slot)`, smallest key at
    /// the root; `slots[slot].pos` is the entry's index here.
    armed: Vec<(u128, u32)>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue without slots.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Creates an empty queue with `slots` keyed slots, numbered from 0.
    pub fn with_slots(slots: usize) -> EventQueue {
        assert!(slots < u32::MAX as usize, "too many keyed slots");
        EventQueue {
            slots: vec![Slot { kind: None, pos: 0 }; slots],
            ..EventQueue::default()
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let key = pack(time, &kind, self.next_seq());
        self.heap.push(Entry { key, kind });
    }

    /// Schedules `kind` at `time` in `slot`, replacing the slot's pending
    /// event if it has one. The event takes its sequence from the counter
    /// [`EventQueue::push`] uses, so it orders exactly as a push made now.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn arm(&mut self, slot: usize, time: Time, kind: EventKind) {
        let key = pack(time, &kind, self.next_seq());
        let was = self.slots[slot].kind.replace(kind);
        if was.is_some() {
            let pos = self.slots[slot].pos as usize;
            let old = std::mem::replace(&mut self.armed[pos].0, key);
            // A re-arm may move the deadline earlier or later.
            if key < old {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        } else {
            self.armed.push((key, slot as u32));
            self.sift_up(self.armed.len() - 1);
        }
    }

    /// Clears `slot`'s pending event, if any.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn disarm(&mut self, slot: usize) {
        if self.slots[slot].kind.take().is_some() {
            self.remove_armed(self.slots[slot].pos as usize);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let slot_first = match (self.heap.peek(), self.armed.first()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(e), Some(&(key, _))) => key < e.key,
        };
        if slot_first {
            let (key, slot) = self.armed[0];
            let kind = self.slots[slot as usize]
                .kind
                .take()
                .expect("an armed slot holds its event");
            self.remove_armed(0);
            Some(unpack(key, kind))
        } else {
            self.heap.pop().map(|e| unpack(e.key, e.kind))
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        let heap = self.heap.peek().map(|e| e.key);
        let slot = self.armed.first().map(|&(key, _)| key);
        match (heap, slot) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
        .map(time_of)
    }

    /// Number of pending events, heap and armed slots together (the
    /// telemetry layer's queue gauge).
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deletes the armed-heap entry at `pos`, keeping the heap order.
    fn remove_armed(&mut self, pos: usize) {
        let last = self.armed.pop().expect("removing from an empty slot heap");
        if pos < self.armed.len() {
            let old = self.armed[pos].0;
            self.armed[pos] = last;
            self.slots[last.1 as usize].pos = pos as u32;
            if last.0 < old {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        let item = self.armed[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.armed[parent].0 <= item.0 {
                break;
            }
            self.armed[pos] = self.armed[parent];
            self.slots[self.armed[pos].1 as usize].pos = pos as u32;
            pos = parent;
        }
        self.armed[pos] = item;
        self.slots[item.1 as usize].pos = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let item = self.armed[pos];
        let len = self.armed.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.armed[right].0 < self.armed[left].0 {
                right
            } else {
                left
            };
            if item.0 <= self.armed[child].0 {
                break;
            }
            self.armed[pos] = self.armed[child];
            self.slots[self.armed[pos].1 as usize].pos = pos as u32;
            pos = child;
        }
        self.armed[pos] = item;
        self.slots[item.1 as usize].pos = pos as u32;
    }
}

/// The original heap-only event queue, retained as the ordering oracle
/// for differential tests of [`EventQueue`] (same API, same
/// `(time, rank, seq)` contract, trivially-correct implementation). A
/// slot is modelled the naive way: `arm` pushes, and the entries it or
/// [`ReferenceEventQueue::disarm`] supersedes are skipped when they reach
/// the top.
#[derive(Default, Debug)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// The sequence of each slot's live entry.
    live: Vec<Option<u64>>,
    /// The slot of every slot entry still in the heap, by sequence.
    slot_of: std::collections::HashMap<u64, usize>,
    /// Superseded entries still in the heap.
    superseded: usize,
}

impl ReferenceEventQueue {
    /// Creates an empty queue without slots.
    pub fn new() -> ReferenceEventQueue {
        ReferenceEventQueue::default()
    }

    /// Creates an empty queue with `slots` keyed slots.
    pub fn with_slots(slots: usize) -> ReferenceEventQueue {
        ReferenceEventQueue {
            live: vec![None; slots],
            ..ReferenceEventQueue::default()
        }
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, kind, seq });
    }

    /// Pushes `kind` at `time` as `slot`'s live entry, superseding the
    /// previous one.
    pub fn arm(&mut self, slot: usize, time: Time, kind: EventKind) {
        self.disarm(slot);
        let seq = self.next_seq;
        self.push(time, kind);
        self.live[slot] = Some(seq);
        self.slot_of.insert(seq, slot);
    }

    /// Supersedes `slot`'s live entry, if any.
    pub fn disarm(&mut self, slot: usize) {
        if self.live[slot].take().is_some() {
            self.superseded += 1;
            self.skip_superseded();
        }
    }

    /// Drops superseded entries off the top, so the top is always live.
    fn skip_superseded(&mut self) {
        while let Some(top) = self.heap.peek() {
            match self.slot_of.get(&top.seq) {
                Some(&slot) if self.live[slot] != Some(top.seq) => {
                    self.slot_of.remove(&top.seq);
                    self.heap.pop();
                    self.superseded -= 1;
                }
                _ => break,
            }
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.heap.pop()?;
        if let Some(slot) = self.slot_of.remove(&event.seq) {
            self.live[slot] = None;
        }
        self.skip_superseded();
        Some(event)
    }

    /// The time of the earliest live event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.superseded
    }

    /// `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn completion(proc: usize) -> EventKind {
        EventKind::Completion {
            proc: ProcessorId::new(proc),
        }
    }

    fn source(task: usize, instance: u64) -> EventKind {
        EventKind::SourceRelease {
            task: TaskId::new(task),
            instance,
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(t(5), source(0, 0));
        q.push(t(1), source(1, 0));
        q.push(t(3), source(2, 0));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ticks())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn completions_fire_before_releases_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(t(4), source(0, 1));
        q.push(t(4), completion(0));
        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Completion { .. }));
        let second = q.pop().unwrap();
        assert!(matches!(second.kind, EventKind::SourceRelease { .. }));
    }

    #[test]
    fn full_same_instant_rank_order() {
        let mut q = EventQueue::new();
        let sub = SubtaskId::new(TaskId::new(0), 1);
        q.push(
            t(2),
            EventKind::DegradedRelease {
                subtask: sub,
                instance: 0,
            },
        );
        q.push(
            t(2),
            EventKind::SuspectTimer {
                observer: ProcessorId::new(0),
                subject: ProcessorId::new(1),
            },
        );
        q.push(
            t(2),
            EventKind::HeartbeatDeliver {
                from: ProcessorId::new(1),
                to: PeerSet::single(ProcessorId::new(0)),
            },
        );
        q.push(
            t(2),
            EventKind::HeartbeatSend {
                proc: ProcessorId::new(0),
            },
        );
        q.push(t(2), EventKind::RetransmitTimer { seq: 0 });
        q.push(t(2), EventKind::AckDeliver { seq: 0 });
        q.push(
            t(2),
            EventKind::TimedRelease {
                subtask: sub,
                instance: 0,
            },
        );
        q.push(t(2), source(0, 0));
        q.push(t(2), EventKind::GuardExpiry { subtask: sub });
        q.push(
            t(2),
            EventKind::TransportDeliver {
                job: JobId::new(sub, 0),
                seq: 0,
            },
        );
        q.push(
            t(2),
            EventKind::SignalDeliver {
                job: JobId::new(sub, 0),
            },
        );
        q.push(
            t(2),
            EventKind::SignalSend {
                job: JobId::new(sub, 0),
            },
        );
        q.push(
            t(2),
            EventKind::MpmTimer {
                job: JobId::new(sub, 0),
            },
        );
        q.push(t(2), completion(1));
        q.push(
            t(2),
            EventKind::Recover {
                proc: ProcessorId::new(0),
            },
        );
        q.push(
            t(2),
            EventKind::Crash {
                proc: ProcessorId::new(0),
            },
        );
        q.push(t(2), EventKind::PartitionHeal { idx: 0 });
        q.push(t(2), EventKind::PartitionStart { idx: 0 });
        q.push(t(2), EventKind::LinkDegradeEnd { idx: 0 });
        q.push(t(2), EventKind::LinkDegradeStart { idx: 0 });
        q.push(
            t(2),
            EventKind::StallEnd {
                proc: ProcessorId::new(0),
            },
        );
        q.push(
            t(2),
            EventKind::StallStart {
                proc: ProcessorId::new(0),
            },
        );
        q.push(
            t(2),
            EventKind::SlowEnd {
                proc: ProcessorId::new(0),
            },
        );
        q.push(
            t(2),
            EventKind::SlowStart {
                proc: ProcessorId::new(0),
                idx: 0,
            },
        );
        q.push(
            t(2),
            EventKind::SyncRetry {
                from: ProcessorId::new(0),
                to: ProcessorId::new(1),
                t1: t(0),
                respond: false,
                attempt: 1,
            },
        );
        q.push(
            t(2),
            EventKind::SyncResponse {
                from: ProcessorId::new(1),
                to: ProcessorId::new(0),
                t1: t(0),
                t2: t(1),
                disp: None,
            },
        );
        q.push(
            t(2),
            EventKind::SyncRequest {
                from: ProcessorId::new(0),
                to: ProcessorId::new(1),
                t1: t(0),
            },
        );
        q.push(
            t(2),
            EventKind::SyncRound {
                proc: ProcessorId::new(0),
            },
        );
        let ranks: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Crash { .. } => 0,
                EventKind::Recover { .. } => 1,
                EventKind::PartitionStart { .. } => 2,
                EventKind::PartitionHeal { .. } => 3,
                EventKind::SlowStart { .. } => 4,
                EventKind::SlowEnd { .. } => 5,
                EventKind::StallStart { .. } => 6,
                EventKind::StallEnd { .. } => 7,
                EventKind::LinkDegradeStart { .. } => 8,
                EventKind::LinkDegradeEnd { .. } => 9,
                EventKind::Completion { .. } => 10,
                EventKind::MpmTimer { .. } => 11,
                EventKind::SignalSend { .. } => 12,
                EventKind::TransportDeliver { .. } => 13,
                EventKind::SignalDeliver { .. } => 13,
                EventKind::GuardExpiry { .. } => 14,
                EventKind::SourceRelease { .. } => 15,
                EventKind::TimedRelease { .. } => 16,
                EventKind::AckDeliver { .. } => 17,
                EventKind::RetransmitTimer { .. } => 18,
                EventKind::HeartbeatSend { .. } => 19,
                EventKind::HeartbeatDeliver { .. } => 20,
                EventKind::SuspectTimer { .. } => 21,
                EventKind::DegradedRelease { .. } => 22,
                EventKind::SyncRound { .. } => 23,
                EventKind::SyncRequest { .. } => 24,
                EventKind::SyncResponse { .. } => 25,
                EventKind::SyncRetry { .. } => 26,
            })
            .collect();
        assert_eq!(
            ranks,
            vec![
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                22, 23, 24, 25, 26
            ]
        );
    }

    #[test]
    fn insertion_order_breaks_remaining_ties() {
        // Same time and rank: only the packed sequence separates them, at
        // both ends of the time range too, and it round-trips through the
        // key.
        for x in [i64::MIN, 2, Time::MAX.ticks()] {
            let mut q = EventQueue::new();
            q.push(t(x), source(0, 0));
            q.push(t(x), source(1, 0));
            q.push(t(x), source(2, 0));
            let popped: Vec<(usize, u64)> = std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::SourceRelease { task, .. } => (task.index(), e.seq),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(popped, vec![(0, 0), (1, 1), (2, 2)]);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), source(0, 0));
        q.push(t(2), source(0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn times_order_across_the_sign_bit() {
        // The key flips the time's sign bit: a wrong flip would sort
        // negative ticks after positive ones or `Time::MAX` first.
        let times = [Time::MAX.ticks(), 0, -1, i64::MIN, 1, -5, i64::MAX - 1];
        let mut q = EventQueue::new();
        for (i, &x) in times.iter().enumerate() {
            q.push(t(x), source(i, 0));
        }
        assert_eq!(q.peek_time(), Some(t(i64::MIN)));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ticks())
            .collect();
        assert_eq!(order, vec![i64::MIN, -5, -1, 0, 1, i64::MAX - 1, i64::MAX]);
    }

    #[test]
    fn lowest_and_highest_rank_stay_inside_their_instant() {
        // Rank 26 then rank 0 at one instant: the rank field decides. A
        // highest-rank event must still precede a lowest-rank one a tick
        // later, at both ends of the time range.
        let retry = EventKind::SyncRetry {
            from: ProcessorId::new(0),
            to: ProcessorId::new(1),
            t1: t(0),
            respond: true,
            attempt: 3,
        };
        let crash = EventKind::Crash {
            proc: ProcessorId::new(0),
        };
        for base in [i64::MIN, -1, Time::MAX.ticks() - 1] {
            let mut q = EventQueue::new();
            q.push(t(base + 1), crash);
            q.push(t(base), retry);
            q.push(t(base), crash);
            let got: Vec<(i64, u8)> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.time.ticks(), e.kind.rank()))
                .collect();
            assert_eq!(got, vec![(base, 0), (base, 26), (base + 1, 0)]);
        }
    }

    #[test]
    fn interleaved_push_pop_at_the_current_instant() {
        // The engine pushes same-instant follow-ups (e.g. SignalSend at
        // `now`) between pops; they must slot in by rank at that instant.
        let mut q = EventQueue::new();
        q.push(t(4), completion(0));
        q.push(t(4), source(0, 0));
        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Completion { .. }));
        q.push(
            t(4),
            EventKind::SignalSend {
                job: JobId::new(SubtaskId::new(TaskId::new(0), 1), 0),
            },
        );
        // SignalSend (rank 12) precedes the SourceRelease (rank 15).
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::SignalSend { .. }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::SourceRelease { .. }
        ));
        assert!(q.is_empty());
    }

    #[test]
    fn reference_queue_matches_on_a_mixed_load() {
        let mut q = EventQueue::new();
        let mut r = ReferenceEventQueue::new();
        let loads = [
            (7, source(0, 0)),
            (7, completion(0)),
            (i64::MAX, source(1, 0)),
            (-3, source(2, 0)),
            (0, completion(1)),
            (7, EventKind::AckDeliver { seq: 4 }),
            (7, EventKind::RetransmitTimer { seq: 4 }),
        ];
        for &(ticks, kind) in &loads {
            q.push(t(ticks), kind);
            r.push(t(ticks), kind);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(
                a.map(|e| (e.time, e.kind, e.seq)),
                b.map(|e| (e.time, e.kind, e.seq))
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peer_sets_iterate_in_ascending_order() {
        let mut set = PeerSet::default();
        assert!(set.is_empty());
        for p in [63, 5, 0, 17] {
            set.insert(ProcessorId::new(p));
        }
        set.insert(ProcessorId::new(5));
        assert_eq!(set.len(), 4);
        let members: Vec<usize> = set.iter().map(|p| p.index()).collect();
        assert_eq!(members, vec![0, 5, 17, 63]);
        let one = PeerSet::single(ProcessorId::new(2));
        assert_eq!(one.iter().collect::<Vec<_>>(), vec![ProcessorId::new(2)]);
    }

    fn suspect(observer: usize, subject: usize) -> EventKind {
        EventKind::SuspectTimer {
            observer: ProcessorId::new(observer),
            subject: ProcessorId::new(subject),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(i64, EventKind, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.ticks(), e.kind, e.seq))
            .collect()
    }

    #[test]
    fn rearming_a_slot_replaces_its_pending_event() {
        let mut q = EventQueue::with_slots(2);
        q.arm(0, t(10), completion(0));
        q.push(t(5), source(0, 0));
        q.arm(0, t(3), completion(0));
        q.arm(1, t(7), suspect(0, 1));
        q.arm(1, t(9), suspect(0, 1));
        assert_eq!(q.len(), 3, "one pending event per slot");
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(
            drain(&mut q),
            vec![
                (3, completion(0), 2),
                (5, source(0, 0), 1),
                (9, suspect(0, 1), 4),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn disarm_clears_only_its_own_slot() {
        let mut q = EventQueue::with_slots(3);
        q.arm(0, t(4), completion(0));
        q.arm(1, t(2), completion(1));
        q.arm(2, t(6), completion(2));
        q.disarm(1);
        q.disarm(1); // idempotent
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(4)));
        let order: Vec<i64> = drain(&mut q).into_iter().map(|e| e.0).collect();
        assert_eq!(order, vec![4, 6]);
        // A popped slot is empty again and can be re-armed.
        q.arm(0, t(8), completion(0));
        assert_eq!(q.pop().map(|e| e.time), Some(t(8)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slots_and_pushes_share_one_order() {
        // Same instant, same rank: a slot entry and a pushed entry tie on
        // time and rank, so the shared sequence counter decides.
        let mut q = EventQueue::with_slots(1);
        let mut r = ReferenceEventQueue::with_slots(1);
        for (slot, ticks) in [(None, 1), (Some(0), 1), (None, 1), (Some(0), 1), (None, 0)] {
            match slot {
                Some(s) => {
                    q.arm(s, t(ticks), completion(0));
                    r.arm(s, t(ticks), completion(0));
                }
                None => {
                    q.push(t(ticks), completion(1));
                    r.push(t(ticks), completion(1));
                }
            }
        }
        assert_eq!(q.len(), r.len());
        let want: Vec<(i64, EventKind, u64)> = std::iter::from_fn(|| r.pop())
            .map(|e| (e.time.ticks(), e.kind, e.seq))
            .collect();
        assert_eq!(drain(&mut q), want);
        assert_eq!(
            want.iter().map(|e| e.2).collect::<Vec<_>>(),
            vec![4, 0, 2, 3]
        );
    }
}
