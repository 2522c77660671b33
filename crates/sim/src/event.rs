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
//! [`EventQueue`] is a single binary heap whose order is one `u128` key:
//! time with its sign bit flipped in the top 64 bits, the kind rank in the
//! next 8, the insertion sequence in the low 56. A sift step is one integer
//! compare, with no rank lookup. Simulation traffic is sparse in time (§5.1
//! source periods span 10⁵–10⁷ ticks), so a plain heap beats bucketing
//! by tick. [`ReferenceEventQueue`] keeps the tuple-comparator heap as the
//! ordering oracle for differential tests.

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
    /// keeps every in-flight job and all generation-stamped protocol
    /// state. Work resumes where it left off at the matching
    /// [`EventKind::StallEnd`].
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
    /// A tentative completion of the job currently running on `proc`;
    /// valid only if `gen` still matches the processor's completion
    /// generation (stale completions are skipped).
    Completion {
        /// The processor whose running job completes.
        proc: ProcessorId,
        /// Generation stamp for lazy invalidation.
        gen: u64,
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
    /// A deferred RG release reaches its guard time; valid only if `gen`
    /// matches the guard's generation (idle points invalidate deferrals).
    GuardExpiry {
        /// The guarded subtask.
        subtask: SubtaskId,
        /// Generation stamp for lazy invalidation.
        gen: u64,
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
    /// mode only); valid only if `attempt` still matches the window entry
    /// (an earlier ack or retransmission invalidates it).
    RetransmitTimer {
        /// The unacked frame's sequence number.
        seq: u64,
        /// The attempt count the timer was armed against.
        attempt: u32,
    },
    /// A processor broadcasts its periodic heartbeat (detector mode
    /// only). Self-rescheduling; crashed processors stay silent.
    HeartbeatSend {
        /// The broadcasting processor.
        proc: ProcessorId,
    },
    /// A heartbeat from `from` reaches observer `to` (detector mode
    /// only), refreshing the peer's freshness generation.
    HeartbeatDeliver {
        /// The broadcaster.
        from: ProcessorId,
        /// The observing processor.
        to: ProcessorId,
    },
    /// An observer's per-peer suspicion timer fired (detector mode only);
    /// valid only if `gen` still matches the pair's freshness generation
    /// (any later heartbeat invalidates it). Fires once to turn the peer
    /// Suspect and once more to declare it Dead.
    SuspectTimer {
        /// The observing processor.
        observer: ProcessorId,
        /// The peer under suspicion.
        subject: ProcessorId,
        /// Freshness generation the timer was armed against.
        gen: u64,
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

impl EventKind {
    /// Same-instant processing rank (lower fires first).
    fn rank(&self) -> u8 {
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

/// A queued event: the packed `(time, rank, seq)` order key plus the
/// payload. The key is unique (the sequence is), so ordering by it alone
/// is a total order consistent with equality.
#[derive(Debug)]
struct Entry {
    key: u128,
    kind: EventKind,
}

impl Entry {
    /// Packs the order key: time with its sign bit flipped (so signed tick
    /// order becomes unsigned key order) in the top 64 bits, then the kind
    /// rank in 8 bits, then the insertion sequence in the low 56 bits.
    fn new(time: Time, kind: EventKind, seq: u64) -> Entry {
        debug_assert!(
            seq < 1 << SEQ_BITS,
            "insertion sequence overflows the packed key"
        );
        let time_bits = ((time.ticks() as u64) ^ (1 << 63)) as u128;
        let key = (time_bits << 64) | ((kind.rank() as u128) << SEQ_BITS) | seq as u128;
        Entry { key, kind }
    }

    fn time(&self) -> Time {
        Time::from_ticks((((self.key >> 64) as u64) ^ (1 << 63)) as i64)
    }
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

/// A deterministic min-queue of [`Event`]s: one binary heap ordered by a
/// packed `u128` key (see the module docs).
#[derive(Default, Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry::new(time, kind, seq));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|e| Event {
            time: e.time(),
            kind: e.kind,
            seq: (e.key as u64) & ((1 << SEQ_BITS) - 1),
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(Entry::time)
    }

    /// Number of pending events (the telemetry layer's queue gauge).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The original heap-only event queue, retained verbatim as the ordering
/// oracle for differential tests of [`EventQueue`] (same push/pop API,
/// same `(time, rank, seq)` contract, trivially-correct implementation).
#[derive(Default, Debug)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl ReferenceEventQueue {
    /// Creates an empty queue.
    pub fn new() -> ReferenceEventQueue {
        ReferenceEventQueue::default()
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, kind, seq });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn completion(proc: usize, gen: u64) -> EventKind {
        EventKind::Completion {
            proc: ProcessorId::new(proc),
            gen,
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
        q.push(t(4), completion(0, 7));
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
                gen: 0,
            },
        );
        q.push(
            t(2),
            EventKind::HeartbeatDeliver {
                from: ProcessorId::new(1),
                to: ProcessorId::new(0),
            },
        );
        q.push(
            t(2),
            EventKind::HeartbeatSend {
                proc: ProcessorId::new(0),
            },
        );
        q.push(t(2), EventKind::RetransmitTimer { seq: 0, attempt: 0 });
        q.push(t(2), EventKind::AckDeliver { seq: 0 });
        q.push(
            t(2),
            EventKind::TimedRelease {
                subtask: sub,
                instance: 0,
            },
        );
        q.push(t(2), source(0, 0));
        q.push(
            t(2),
            EventKind::GuardExpiry {
                subtask: sub,
                gen: 0,
            },
        );
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
        q.push(t(2), completion(1, 0));
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
        q.push(t(4), completion(0, 0));
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
            (7, completion(0, 1)),
            (i64::MAX, source(1, 0)),
            (-3, source(2, 0)),
            (0, completion(1, 0)),
            (7, EventKind::AckDeliver { seq: 4 }),
            (7, EventKind::RetransmitTimer { seq: 4, attempt: 1 }),
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
}
