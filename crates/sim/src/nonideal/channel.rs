//! The inter-processor signal channel model.
//!
//! The paper treats synchronization signals as instantaneous ("the time
//! required to send a synchronization signal … is negligible", §2). This
//! module prices them: every cross-processor signal takes a latency drawn
//! from a seeded distribution, and the channel can inject faults — drop a
//! signal, duplicate it, or reorder it (reordering also arises naturally
//! from independent latency draws). The receiver applies deliveries
//! strictly in instance order per subtask, buffering early arrivals, so
//! the engine's in-order release invariants survive any channel behavior.
//!
//! A *dropped* copy dies on the wire; recovery is the *endpoints'* job:
//! the ack/retransmit transport in [`crate::transport`] (DESIGN.md §10).
//! Dropping without a transport attached loses the signal outright. (An
//! earlier "oracle retransmit" mode where the channel resent its own
//! losses was removed once the endpoint transport landed.)

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsync_core::time::Dur;

/// Distribution of one signal's transmission latency.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LatencyModel {
    /// Every signal takes exactly this long.
    Constant(Dur),
    /// Uniform over `[lo, hi]` ticks.
    Uniform {
        /// Smallest latency.
        lo: Dur,
        /// Largest latency.
        hi: Dur,
    },
}

impl LatencyModel {
    fn draw(&self, rng: &mut StdRng) -> Dur {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                if lo == hi {
                    lo
                } else {
                    Dur::from_ticks(rng.random_range(lo.ticks()..=hi.ticks()))
                }
            }
        }
    }

    /// The largest latency this model can produce.
    pub fn max_bound(&self) -> Dur {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { hi, .. } => hi,
        }
    }
}

/// Fault injection knobs. Defaults inject nothing.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultPlan {
    /// Probability that a single transmission is lost on the wire. The
    /// dropped copy dies; recovery, if any, is the endpoint transport's
    /// ([`crate::transport`]).
    pub drop_probability: f64,
    /// Probability that a signal is delivered twice (the receiver counts
    /// and suppresses the duplicate).
    pub duplicate_probability: f64,
}

/// The full channel specification: latency distribution, fault plan, and
/// the seed for all stochastic draws.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChannelModel {
    /// Latency of each transmission.
    pub latency: LatencyModel,
    /// Fault injection.
    pub faults: FaultPlan,
    /// Seed of the channel's private generator; draws happen in event
    /// order, so equal seeds give equal fault/latency sequences.
    pub seed: u64,
}

impl ChannelModel {
    /// A fault-free channel with constant latency.
    pub fn constant(latency: Dur) -> ChannelModel {
        ChannelModel {
            latency: LatencyModel::Constant(latency),
            faults: FaultPlan::default(),
            seed: 0,
        }
    }

    /// A fault-free channel with uniform latency in `[lo, hi]`.
    pub fn uniform(lo: Dur, hi: Dur) -> ChannelModel {
        assert!(lo <= hi, "uniform latency needs lo <= hi");
        ChannelModel {
            latency: LatencyModel::Uniform { lo, hi },
            faults: FaultPlan::default(),
            seed: 0,
        }
    }

    /// Sets the seed of the channel's generator.
    pub fn with_seed(mut self, seed: u64) -> ChannelModel {
        self.seed = seed;
        self
    }

    /// Drops each transmission with probability `p`: the copy dies on the
    /// wire. Attach a [`TransportConfig`] so the endpoints recover;
    /// without one the signal is lost outright.
    ///
    /// [`TransportConfig`]: crate::transport::TransportConfig
    pub fn with_endpoint_drops(mut self, p: f64) -> ChannelModel {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.faults.drop_probability = p;
        self
    }

    /// Duplicates each signal with probability `p`.
    pub fn with_duplicates(mut self, p: f64) -> ChannelModel {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.faults.duplicate_probability = p;
        self
    }

    /// The worst delay any single *delivered* copy can suffer (a drop
    /// delivers nothing and is not a delay).
    pub fn max_delay_bound(&self) -> Dur {
        self.latency.max_bound()
    }
}

/// Counters the channel accumulates over one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChannelStats {
    /// Signals sent (one per cross-processor predecessor completion or
    /// MPM timer firing).
    pub sent: u64,
    /// Deliveries applied at the receiver (excludes suppressed duplicates).
    pub applied: u64,
    /// Transmissions lost on the wire. The copy is gone; any recovery is
    /// the endpoint transport's.
    pub dropped: u64,
    /// Extra copies injected by the duplication fault.
    pub duplicates_injected: u64,
    /// Deliveries suppressed at the receiver as duplicates.
    pub duplicates_suppressed: u64,
    /// Deliveries that arrived ahead of a missing earlier instance and had
    /// to be buffered (observed reordering).
    pub reordered: u64,
    /// Largest send-to-delivery delay scheduled.
    pub max_delay: Dur,
}

/// What one send turns into on the wire.
///
/// At most two copies ever leave the channel (the original plus one
/// injected duplicate), so the delays live inline — the hot send path
/// allocates nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendPlan {
    /// Delay of each scheduled delivery; only the first `n` entries are
    /// meaningful.
    deliveries: [Dur; 2],
    /// Number of scheduled deliveries: 1 normally, 2 when duplicated, 0
    /// when the copy died on the wire.
    n: u8,
    /// The transmission was dropped (there are no deliveries).
    pub dropped: bool,
}

impl SendPlan {
    /// Delay of each scheduled delivery, in draw order.
    pub(crate) fn deliveries(&self) -> &[Dur] {
        &self.deliveries[..usize::from(self.n)]
    }
}

/// Per-run channel state: the seeded generator plus the receiver-side
/// in-order application buffers (one per flat subtask index).
#[derive(Debug)]
pub(crate) struct ChannelState {
    model: ChannelModel,
    rng: StdRng,
    /// Next instance to apply per flat subtask index.
    next_apply: Vec<u64>,
    /// Instances delivered ahead of order, per flat subtask index.
    early: Vec<BTreeSet<u64>>,
    /// Instances whose signal will never be sent (the predecessor died in
    /// a crash), per flat subtask index: the in-order cursor skips them
    /// instead of stalling forever.
    cancelled: Vec<BTreeSet<u64>>,
    pub(crate) stats: ChannelStats,
}

impl ChannelState {
    pub(crate) fn new(model: ChannelModel, flat_len: usize) -> ChannelState {
        ChannelState {
            rng: StdRng::seed_from_u64(model.seed),
            model,
            next_apply: vec![0; flat_len],
            early: vec![BTreeSet::new(); flat_len],
            cancelled: vec![BTreeSet::new(); flat_len],
            stats: ChannelStats::default(),
        }
    }

    /// Marks `instance` of flat subtask `fi` as cancelled: its signal will
    /// never be sent, so the in-order cursor must not wait for it. Any
    /// already-buffered later instances that become contiguous are
    /// appended to `applicable`, in order, for the caller to apply. The
    /// caller owns (and clears) the buffer.
    pub(crate) fn note_cancelled(&mut self, fi: usize, instance: u64, applicable: &mut Vec<u64>) {
        if instance < self.next_apply[fi] {
            return; // already applied (e.g. an RG-deferred kill)
        }
        self.cancelled[fi].insert(instance);
        let before = applicable.len();
        self.drain_in_order(fi, applicable);
        self.stats.applied += (applicable.len() - before) as u64;
    }

    /// Advances the in-order cursor over cancelled gaps and buffered early
    /// arrivals, appending every instance that becomes applicable.
    fn drain_in_order(&mut self, fi: usize, applicable: &mut Vec<u64>) {
        loop {
            let next = self.next_apply[fi];
            if self.cancelled[fi].remove(&next) {
                self.next_apply[fi] = next + 1;
            } else if self.early[fi].remove(&next) {
                applicable.push(next);
                self.next_apply[fi] = next + 1;
            } else {
                return;
            }
        }
    }

    /// Draws the wire behavior of one signal. Deterministic given the seed
    /// and the (deterministic) order of sends.
    pub(crate) fn send(&mut self) -> SendPlan {
        self.stats.sent += 1;
        let faults = self.model.faults;
        let dropped =
            faults.drop_probability > 0.0 && self.rng.random_bool(faults.drop_probability);
        // The latency is drawn even for a loss so the draw sequence
        // (drop, latency, duplicate) is independent of the outcome.
        let first = self.model.latency.draw(&mut self.rng);
        if dropped {
            self.stats.dropped += 1;
        }
        let mut plan = SendPlan {
            deliveries: [Dur::ZERO; 2],
            n: 0,
            dropped,
        };
        if !dropped {
            plan.deliveries[0] = first;
            plan.n = 1;
            if faults.duplicate_probability > 0.0
                && self.rng.random_bool(faults.duplicate_probability)
            {
                self.stats.duplicates_injected += 1;
                plan.deliveries[1] = self.model.latency.draw(&mut self.rng);
                plan.n = 2;
            }
        }
        for d in plan.deliveries() {
            if *d > self.stats.max_delay {
                self.stats.max_delay = *d;
            }
        }
        plan
    }

    /// Registers the delivery of `instance` for flat subtask `fi` and
    /// appends every instance that becomes applicable to `applicable`, in
    /// order. Duplicates are suppressed; early arrivals are buffered until
    /// the gap fills. The caller owns (and clears) the buffer, keeping the
    /// per-delivery hot path allocation-free.
    pub(crate) fn deliver(&mut self, fi: usize, instance: u64, applicable: &mut Vec<u64>) {
        if instance < self.next_apply[fi]
            || self.early[fi].contains(&instance)
            || self.cancelled[fi].contains(&instance)
        {
            self.stats.duplicates_suppressed += 1;
            return;
        }
        if instance != self.next_apply[fi] {
            self.stats.reordered += 1;
            self.early[fi].insert(instance);
            return;
        }
        let before = applicable.len();
        applicable.push(instance);
        self.next_apply[fi] = instance + 1;
        self.drain_in_order(fi, applicable);
        self.stats.applied += (applicable.len() - before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    /// Out-param wrappers so assertions read naturally.
    fn deliver(st: &mut ChannelState, fi: usize, instance: u64) -> Vec<u64> {
        let mut v = Vec::new();
        st.deliver(fi, instance, &mut v);
        v
    }

    fn cancel(st: &mut ChannelState, fi: usize, instance: u64) -> Vec<u64> {
        let mut v = Vec::new();
        st.note_cancelled(fi, instance, &mut v);
        v
    }

    #[test]
    fn constant_channel_is_faithful() {
        let mut st = ChannelState::new(ChannelModel::constant(d(3)), 2);
        for _ in 0..10 {
            let plan = st.send();
            assert_eq!(plan.deliveries(), &[d(3)]);
            assert!(!plan.dropped);
        }
        assert_eq!(st.stats.sent, 10);
        assert_eq!(st.stats.dropped, 0);
        assert_eq!(st.stats.max_delay, d(3));
    }

    #[test]
    fn uniform_draws_stay_in_range_and_are_seeded() {
        let model = ChannelModel::uniform(d(2), d(9)).with_seed(5);
        let mut a = ChannelState::new(model, 1);
        let mut b = ChannelState::new(model, 1);
        for _ in 0..200 {
            let (pa, pb) = (a.send(), b.send());
            assert_eq!(pa.deliveries(), pb.deliveries(), "same seed, same draws");
            for delay in pa.deliveries() {
                assert!((d(2)..=d(9)).contains(delay), "{delay:?}");
            }
        }
    }

    #[test]
    fn endpoint_drops_deliver_nothing() {
        let model = ChannelModel::constant(d(1))
            .with_endpoint_drops(1.0)
            .with_seed(3);
        let mut st = ChannelState::new(model, 1);
        let plan = st.send();
        assert!(plan.dropped);
        assert!(plan.deliveries().is_empty(), "the copy dies on the wire");
        assert_eq!(st.stats.dropped, 1);
        // A drop delivers nothing: the delay bound is the plain latency.
        assert_eq!(model.max_delay_bound(), d(1));
    }

    #[test]
    fn endpoint_losses_suppress_duplicate_injection() {
        let model = ChannelModel::constant(d(2))
            .with_endpoint_drops(1.0)
            .with_duplicates(1.0)
            .with_seed(4);
        let mut st = ChannelState::new(model, 1);
        let plan = st.send();
        assert!(plan.dropped && plan.deliveries().is_empty());
        assert_eq!(st.stats.duplicates_injected, 0, "nothing to duplicate");
    }

    #[test]
    fn duplicates_are_injected_then_suppressed() {
        let model = ChannelModel::constant(d(2))
            .with_duplicates(1.0)
            .with_seed(4);
        let mut st = ChannelState::new(model, 1);
        let plan = st.send();
        assert_eq!(plan.deliveries().len(), 2);
        assert_eq!(st.stats.duplicates_injected, 1);
        // Receiver: first copy applies, second is suppressed.
        assert_eq!(deliver(&mut st, 0, 0), vec![0]);
        assert_eq!(deliver(&mut st, 0, 0), Vec::<u64>::new());
        assert_eq!(st.stats.duplicates_suppressed, 1);
        assert_eq!(st.stats.applied, 1);
    }

    #[test]
    fn cancelled_instances_do_not_stall_the_cursor() {
        let mut st = ChannelState::new(ChannelModel::constant(d(0)), 1);
        // Instance 0's predecessor dies before sending; 1 and 2 arrive.
        assert_eq!(deliver(&mut st, 0, 1), Vec::<u64>::new());
        assert_eq!(cancel(&mut st, 0, 0), vec![1]);
        assert_eq!(deliver(&mut st, 0, 2), vec![2]);
        // A cancellation with nothing buffered just moves the cursor.
        assert_eq!(cancel(&mut st, 0, 3), Vec::<u64>::new());
        assert_eq!(deliver(&mut st, 0, 4), vec![4]);
        // A cancellation below the cursor is a no-op...
        assert_eq!(cancel(&mut st, 0, 2), Vec::<u64>::new());
        // ...and a stray late delivery for a cancelled slot is suppressed.
        assert_eq!(cancel(&mut st, 0, 6), Vec::<u64>::new());
        assert_eq!(deliver(&mut st, 0, 6), Vec::<u64>::new());
        assert_eq!(st.stats.duplicates_suppressed, 1);
        assert_eq!(deliver(&mut st, 0, 5), vec![5]);
        assert_eq!(deliver(&mut st, 0, 7), vec![7]);
    }

    #[test]
    fn receiver_restores_instance_order() {
        let mut st = ChannelState::new(ChannelModel::constant(d(0)), 2);
        // Instance 1 and 2 arrive before 0: buffered.
        assert_eq!(deliver(&mut st, 0, 1), Vec::<u64>::new());
        assert_eq!(deliver(&mut st, 0, 2), Vec::<u64>::new());
        assert_eq!(st.stats.reordered, 2);
        // 0 arrives: the whole run applies in order.
        assert_eq!(deliver(&mut st, 0, 0), vec![0, 1, 2]);
        // Independent per subtask.
        assert_eq!(deliver(&mut st, 1, 0), vec![0]);
        assert_eq!(st.stats.applied, 4);
    }
}
