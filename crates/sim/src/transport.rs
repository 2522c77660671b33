//! Endpoint-driven reliable signal transport: sequence numbers, acks,
//! retransmission timers and receive-side deduplication.
//!
//! The channel model ([`crate::nonideal::channel`]) prices the wire; this
//! module prices the *endpoints*. Without it a dropped signal is simply
//! lost. With a [`TransportConfig`] attached
//! ([`SimConfig::with_transport`]) every cross-processor sync signal
//! becomes a numbered frame:
//!
//! * the **sender** keeps the frame in an in-flight window, arms a
//!   retransmission timer (configurable timeout, exponential backoff with
//!   a cap, bounded or unbounded retry budget) and retransmits until the
//!   receiver's ack arrives or the budget is exhausted;
//! * the **receiver** acks every copy it sees and deduplicates payloads by
//!   sequence number, so retransmissions and channel-injected duplicates
//!   release nothing twice;
//! * a frame whose budget runs out is **abandoned**: the engine records a
//!   `SignalLost` violation and resolves the doomed chain instance, so
//!   bounded-budget runs still terminate.
//!
//! [`TransportStats`] surfaces retransmissions, dup-acks, an RTT histogram
//! and the gave-up count; the per-pair failure detector that rides the
//! same endpoints lives in [`crate::detect`]. The handlers of the
//! transport's events live here and touch the engine through
//! `crate::wire`.
//!
//! [`SimConfig::with_transport`]: crate::engine::SimConfig::with_transport

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsync_core::time::{Dur, Time};

use crate::detect::DetectorConfig;
use crate::event::EventKind;
use crate::faults::GrayFamily;
use crate::histogram::EerHistogram;
use crate::job::JobId;
use crate::observe::{Note, Observer};
use crate::wire::{Effect, Wire};

/// Retry rounds assumed when sizing the horizon for an *unbounded* retry
/// budget (the budget itself stays unbounded; this only pads the default
/// horizon so retransmission tails fit before the cutoff).
const UNBOUNDED_SLACK_ROUNDS: u32 = 32;

/// Endpoint transport parameters. Attach with
/// [`SimConfig::with_transport`]; `None` (the default) builds no transport
/// state, and the outcome is bit-identical to a run without the layer.
///
/// [`SimConfig::with_transport`]: crate::engine::SimConfig::with_transport
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Initial retransmission timeout: how long the sender waits for an
    /// ack before resending a frame.
    pub timeout: Dur,
    /// Backoff multiplier applied to the timeout after every retry
    /// (`timeout · backoff^attempt`, capped at [`TransportConfig::max_timeout`]).
    pub backoff: u32,
    /// Hard cap on any single retransmission timeout.
    pub max_timeout: Dur,
    /// Retransmissions allowed per frame before the sender gives up;
    /// `None` retries forever (no signal is ever abandoned).
    pub retry_budget: Option<u32>,
    /// Probability that an ack is lost on the way back (the data frame's
    /// drop probability comes from the channel model).
    pub ack_drop_probability: f64,
    /// Seed of the transport's private generator (ack drops).
    pub seed: u64,
    /// Heartbeat failure detection (and the graceful-degradation
    /// controller it drives); `None` runs the reliable transport alone.
    pub detector: Option<DetectorConfig>,
}

impl TransportConfig {
    /// A transport with the given initial timeout: backoff ×2 capped at
    /// `8 · timeout`, unbounded retries, instantaneous loss-free acks, no
    /// failure detector.
    pub fn new(timeout: Dur) -> TransportConfig {
        assert!(timeout.is_positive(), "transport timeout must be positive");
        TransportConfig {
            timeout,
            backoff: 2,
            max_timeout: Dur::from_ticks(timeout.ticks().saturating_mul(8)),
            retry_budget: None,
            ack_drop_probability: 0.0,
            seed: 0,
            detector: None,
        }
    }

    /// Sets the backoff multiplier and the timeout cap.
    pub fn with_backoff(mut self, backoff: u32, max_timeout: Dur) -> TransportConfig {
        assert!(backoff >= 1, "backoff multiplier must be at least 1");
        assert!(max_timeout >= self.timeout, "cap below the initial timeout");
        self.backoff = backoff;
        self.max_timeout = max_timeout;
        self
    }

    /// Bounds the retransmissions per frame (the frame is abandoned — and
    /// its chain instance lost — once the budget is spent).
    pub fn with_retry_budget(mut self, budget: u32) -> TransportConfig {
        self.retry_budget = Some(budget);
        self
    }

    /// Drops each ack with probability `p` (the sender then retransmits a
    /// frame the receiver already has — a dup-ack follows).
    pub fn with_ack_drops(mut self, p: f64) -> TransportConfig {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.ack_drop_probability = p;
        self
    }

    /// Sets the seed of the transport's generator.
    pub fn with_seed(mut self, seed: u64) -> TransportConfig {
        self.seed = seed;
        self
    }

    /// Enables heartbeat failure detection (and, through it, the
    /// graceful-degradation controller).
    pub fn with_detector(mut self, detector: DetectorConfig) -> TransportConfig {
        self.detector = Some(detector);
        self
    }

    /// The retransmission timeout before attempt `attempt` (0-based):
    /// `timeout · backoff^attempt`, capped, and never below one tick (a
    /// zero timeout would respin the same instant forever).
    pub(crate) fn rto(&self, attempt: u32) -> Dur {
        let mult = (self.backoff as i64).saturating_pow(attempt.min(32));
        let ticks = self.timeout.ticks().saturating_mul(mult);
        Dur::from_ticks(ticks.min(self.max_timeout.ticks()).max(1))
    }

    /// Horizon padding for the retransmission worst case: every round can
    /// wait up to the capped timeout (acks return instantly).
    pub(crate) fn horizon_slack(&self) -> Dur {
        let rounds = self.retry_budget.unwrap_or(UNBOUNDED_SLACK_ROUNDS) as i64 + 1;
        Dur::from_ticks(self.max_timeout.ticks().saturating_mul(rounds))
    }
}

/// Counters the endpoint transport accumulates over one run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TransportStats {
    /// Frames sent for the first time (one per cross-processor signal).
    pub sent: u64,
    /// Retransmissions (timer firings that resent a frame).
    pub retransmissions: u64,
    /// Unique frames delivered to an up receiver (payload applied).
    pub delivered: u64,
    /// Copies the receiver recognized (by sequence number) as already
    /// delivered — re-acked, payload suppressed.
    pub dup_deliveries: u64,
    /// Copies that reached a crashed receiver: no ack, the sender's timer
    /// covers the loss.
    pub receiver_down: u64,
    /// Acks received that closed an in-flight frame.
    pub acks: u64,
    /// Acks for frames no longer in flight (the first ack won).
    pub dup_acks: u64,
    /// Acks lost on the return path.
    pub acks_dropped: u64,
    /// Frames abandoned after the retry budget ran out.
    pub gave_up: u64,
    /// Send-to-ack round-trip times of closed frames.
    pub rtt: EerHistogram,
}

/// One unacked frame in the sender's window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InFlight {
    /// The successor release the frame requests.
    pub job: JobId,
    /// The sending processor.
    pub from: usize,
    /// First transmission instant (RTT baseline).
    pub first_sent: Time,
    /// Retransmissions so far (0 = only the original transmission).
    pub attempt: u32,
}

/// Per-run endpoint state: the sender windows, receiver dedup sets and
/// the transport counters.
#[derive(Debug)]
pub(crate) struct TransportState {
    pub(crate) cfg: TransportConfig,
    rng: StdRng,
    next_seq: u64,
    /// Unacked frames by sequence number.
    window: BTreeMap<u64, InFlight>,
    /// Receiver-side dedup: sequence numbers whose payload was applied
    /// (or swallowed by a crash after the ack — see the engine).
    delivered: BTreeSet<u64>,
    /// Last acked frame per flat *successor* index: `(first_sent,
    /// instance)`. Anchors MPM's degraded re-arming cadence.
    last_acked: Vec<Option<(Time, u64)>>,
    pub(crate) stats: TransportStats,
}

impl TransportState {
    pub(crate) fn new(cfg: TransportConfig, flat_len: usize) -> TransportState {
        TransportState {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            next_seq: 0,
            window: BTreeMap::new(),
            delivered: BTreeSet::new(),
            last_acked: vec![None; flat_len],
            stats: TransportStats::default(),
        }
    }

    /// Frames currently unacked in the sender window — the telemetry
    /// layer's in-flight gauge.
    pub(crate) fn in_flight_count(&self) -> usize {
        self.window.len()
    }

    /// Opens a window entry for a fresh frame and returns its sequence
    /// number.
    pub(crate) fn register_send(&mut self, job: JobId, from: usize, now: Time) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.insert(
            seq,
            InFlight {
                job,
                from,
                first_sent: now,
                attempt: 0,
            },
        );
        self.stats.sent += 1;
        seq
    }

    /// Counts one more retransmission of `seq` and returns the new attempt
    /// number.
    pub(crate) fn bump_attempt(&mut self, seq: u64) -> u32 {
        let entry = self.window.get_mut(&seq).expect("frame in flight");
        entry.attempt += 1;
        self.stats.retransmissions += 1;
        entry.attempt
    }

    /// Abandons `seq` (budget exhausted) and returns the dead entry.
    pub(crate) fn give_up(&mut self, seq: u64) -> InFlight {
        self.stats.gave_up += 1;
        self.window.remove(&seq).expect("frame in flight")
    }

    /// Receiver side: is this copy the first of its frame? Marks the frame
    /// delivered either way (every copy is acked; only the first applies).
    pub(crate) fn on_deliver(&mut self, seq: u64) -> bool {
        if self.delivered.insert(seq) {
            self.stats.delivered += 1;
            true
        } else {
            self.stats.dup_deliveries += 1;
            false
        }
    }

    /// Draws whether the next ack is lost on the return path.
    pub(crate) fn ack_dropped(&mut self) -> bool {
        if self.cfg.ack_drop_probability > 0.0
            && self.rng.random_bool(self.cfg.ack_drop_probability)
        {
            self.stats.acks_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Closes the acked frame `entry`, recording its round-trip time and,
    /// for flat successor `fi`, the last acked frame.
    fn close(&mut self, entry: InFlight, now: Time, fi: usize) -> Dur {
        self.stats.acks += 1;
        let rtt = now - entry.first_sent;
        self.stats.rtt.record(rtt);
        self.last_acked[fi] = Some((entry.first_sent, entry.job.instance()));
        rtt
    }

    /// The last acked frame of flat successor `fi`: `(first_sent,
    /// instance)`.
    pub(crate) fn last_acked(&self, fi: usize) -> Option<(Time, u64)> {
        self.last_acked[fi]
    }

    /// Transmits (or retransmits) the frame carrying `job`'s release
    /// request from processor `from`: one wire draw per copy, plus a
    /// retransmission timer. `resend` is `None` for a fresh frame,
    /// `Some((seq, attempt))` for a retransmission reusing its original
    /// sequence number (so the receiver can deduplicate every copy).
    pub(crate) fn send<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        from: usize,
        job: JobId,
        resend: Option<(u64, u32)>,
    ) {
        let (seq, attempt) = resend.unwrap_or_else(|| (self.register_send(job, from, w.now), 0));
        w.note(Note::TransportSend {
            job,
            seq,
            retransmit: resend.is_some(),
        });
        let to = w.host(job);
        if w.faults.cut(from, to) {
            // Severed at the cut: the frame never reaches the wire. The
            // retransmission timer below still arms, so attempts burn
            // through the outage (honest backoff) and a bounded budget can
            // abandon the chain — partitions are indistinguishable from
            // loss at the endpoints.
            w.faults.stats.severed_transport += 1;
        } else {
            // A channel or gray drop delivers nothing; the retransmission
            // timer below covers it like any loss.
            let plan = w.channel().send();
            let frame = EventKind::TransportDeliver { job, seq };
            w.land(&plan, from, to, GrayFamily::Transport, frame);
        }
        let timer = EventKind::RetransmitTimer { seq };
        w.queue.push(w.now + self.cfg.rto(attempt), timer);
    }

    /// One copy of a frame reaches its receiver: ack every copy, deliver
    /// the first. A copy landing on a crashed node is simply gone — no ack
    /// and no recovery backlog; the sender's retransmission timer covers
    /// it.
    pub(crate) fn on_frame<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        job: JobId,
        seq: u64,
    ) -> Option<Effect> {
        let to = w.host(job);
        // A partition opening while the frame was in flight severs it at
        // the delivery edge: no ack, so the sender's timer keeps burning.
        if job
            .predecessor()
            .is_some_and(|pred| w.faults.cut(w.host(pred), to))
        {
            w.faults.stats.severed_transport += 1;
            return None;
        }
        if w.procs[to].is_down() {
            self.stats.receiver_down += 1;
            return None;
        }
        let fresh = self.on_deliver(seq);
        if !self.ack_dropped() {
            w.queue.push(w.now, EventKind::AckDeliver { seq });
        }
        // A fresh payload goes to the channel's in-order cursor (frames
        // can arrive instance-out-of-order under retransmission).
        fresh.then_some(Effect::Deliver(job))
    }

    /// An ack reaches the frame's sender and closes the frame, found with
    /// one window lookup. Acks are accepted even while the sender is down:
    /// the window is journaled transport state, not volatile protocol
    /// state.
    pub(crate) fn on_ack<O: Observer>(&mut self, w: &mut Wire<'_, O>, seq: u64) {
        let rtt = match self.window.entry(seq) {
            Entry::Occupied(open) => {
                // No cut can catch an ack: `on_frame` pushes it at the
                // frame's delivery instant, and a partition edge at that
                // instant pops first and severs the frame itself.
                let entry = open.remove();
                Some(self.close(entry, w.now, w.flat.of(entry.job.subtask())))
            }
            Entry::Vacant(_) => {
                // The frame was already closed (or abandoned): a dup-ack.
                self.stats.dup_acks += 1;
                None
            }
        };
        w.note(Note::TransportAck {
            seq,
            rtt,
            dup: rtt.is_none(),
        });
    }

    /// The retransmission timer of one frame fired. A frame has one timer
    /// at a time (each firing arms at most the next), so the window
    /// entry's attempt count is the timer's; a firing after the frame was
    /// acked or abandoned is a no-op.
    pub(crate) fn on_retransmit_timer<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        seq: u64,
    ) -> Option<Effect> {
        let entry = *self.window.get(&seq)?;
        // A crashed sender cannot retransmit, but its journaled send queue
        // survives the outage: re-arm the same attempt so the frame
        // resumes once the node is back (this is what keeps the
        // unbounded-budget zero-loss guarantee alive across crashes).
        if w.procs[entry.from].is_down() {
            let timer = EventKind::RetransmitTimer { seq };
            w.queue.push(w.now + self.cfg.rto(entry.attempt), timer);
            return None;
        }
        if self.cfg.retry_budget.is_some_and(|b| entry.attempt >= b) {
            // Budget exhausted: abandon the frame. The signal it carried
            // was the instance's only release request; the engine resolves
            // the doomed chain so bounded-budget runs still terminate.
            let dead = self.give_up(seq);
            let attempts = dead.attempt + 1;
            return Some(Effect::Abandon {
                job: dead.job,
                attempts,
            });
        }
        let next = self.bump_attempt(seq);
        self.send(w, entry.from, entry.job, Some((seq, next)));
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::task::{SubtaskId, TaskId};

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    fn job(task: usize, instance: u64) -> JobId {
        JobId::new(SubtaskId::new(TaskId::new(task), 1), instance)
    }

    #[test]
    fn rto_backs_off_exponentially_under_a_cap() {
        let cfg = TransportConfig::new(d(10)).with_backoff(3, d(100));
        assert_eq!(cfg.rto(0), d(10));
        assert_eq!(cfg.rto(1), d(30));
        assert_eq!(cfg.rto(2), d(90));
        assert_eq!(cfg.rto(3), d(100), "capped");
        assert_eq!(cfg.rto(30), d(100), "stays capped without overflow");
    }

    #[test]
    fn rto_never_reaches_zero() {
        // A pathological 1-tick timeout with multiplier 1 must still move
        // time forward on every retry.
        let cfg = TransportConfig::new(d(1)).with_backoff(1, d(1));
        assert_eq!(cfg.rto(0), d(1));
        assert_eq!(cfg.rto(7), d(1));
    }

    #[test]
    fn window_round_trip_records_rtt_and_dedups() {
        let cfg = TransportConfig::new(d(5));
        let mut st = TransportState::new(cfg, 4);
        let seq = st.register_send(job(0, 3), 0, Time::from_ticks(10));
        assert_eq!(seq, 0);
        assert!(st.window.contains_key(&seq));
        // First copy applies, a duplicate is recognized.
        assert!(st.on_deliver(seq));
        assert!(!st.on_deliver(seq));
        // Closing the frame records the RTT and the last acked frame.
        let entry = st.window.remove(&seq).expect("in flight");
        assert_eq!(entry.job, job(0, 3));
        assert_eq!(st.close(entry, Time::from_ticks(17), 2), d(7));
        assert_eq!(st.stats.rtt.len(), 1);
        assert_eq!(st.last_acked(2), Some((Time::from_ticks(10), 3)));
    }

    #[test]
    fn give_up_spends_the_budget() {
        let cfg = TransportConfig::new(d(5)).with_retry_budget(2);
        let mut st = TransportState::new(cfg, 1);
        let seq = st.register_send(job(0, 0), 1, Time::ZERO);
        assert_eq!(st.bump_attempt(seq), 1);
        assert_eq!(st.bump_attempt(seq), 2);
        let entry = st.give_up(seq);
        assert_eq!(entry.attempt, 2);
        assert_eq!(st.stats.gave_up, 1);
        assert!(!st.window.contains_key(&seq));
    }

    #[test]
    fn ack_drops_are_seeded() {
        let cfg = TransportConfig::new(d(5)).with_ack_drops(0.5).with_seed(9);
        let mut a = TransportState::new(cfg.clone(), 1);
        let mut b = TransportState::new(cfg, 1);
        let draws_a: Vec<bool> = (0..100).map(|_| a.ack_dropped()).collect();
        let draws_b: Vec<bool> = (0..100).map(|_| b.ack_dropped()).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&x| x));
        assert!(draws_a.iter().any(|&x| !x));
        assert_eq!(
            a.stats.acks_dropped,
            draws_a.iter().filter(|&&x| x).count() as u64
        );
    }

    #[test]
    fn horizon_slack_covers_the_budget() {
        let bounded = TransportConfig::new(d(10)).with_retry_budget(3);
        assert_eq!(bounded.horizon_slack(), d(80 * 4));
        let unbounded = TransportConfig::new(d(10));
        assert_eq!(unbounded.horizon_slack(), d(80 * 33));
    }
}
