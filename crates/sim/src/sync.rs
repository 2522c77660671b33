//! Clock synchronization as a first-class protocol layer.
//!
//! The paper's PM protocol assumes perfectly synchronized clocks; the
//! nonideal clock model (`sim::nonideal::clock`) shows what that costs —
//! 5% drift inflates PM's end-to-end responses 4–5x. This module closes
//! the loop: each processor runs periodic *sync rounds* that exchange
//! NTP-style timestamped request/response frames over the **same channel**
//! as the protocols' synchronization signals (so sync traffic advances the
//! channel's fault/latency draws and genuinely interferes with real
//! signals), estimates its clock offset with [Marzullo's
//! interval-intersection algorithm](marzullo), and applies a correction
//! under a pluggable [`SyncPolicy`].
//!
//! # The exchange
//!
//! At each round, processor `p` sends a request to every peer and to an
//! external *time reference* (a GPS receiver / fieldbus master on the
//! environment's timebase — the same timebase that drives source
//! releases). The request carries `t1`, `p`'s corrected clock at send
//! time. The responder answers immediately with `t2`, its own clock at
//! arrival (the reference answers with true time). When the response
//! reaches `p` at corrected-clock time `t3`, the classic NTP estimate
//!
//! ```text
//! θ = t2 − (t1 + t3)/2        (responder clock minus p's clock)
//! ε = (t3 − t1)/2             (half the round-trip: the uncertainty)
//! ```
//!
//! yields the interval `[θ − ε, θ + ε]` guaranteed to contain the true
//! offset under symmetric latency — *when the responder itself is on true
//! time*. A peer is not: its reading measures only the **relative** offset
//! between two wrong clocks, so each response also carries the responder's
//! own advertised error bound against true time (NTP's *root dispersion*:
//! zero for the reference, last settled uncertainty plus uncorrected
//! residual for a peer, absent for a peer that has never settled — such
//! samples are discarded). The requester widens the interval by that
//! bound, which restores the containment guarantee that interval
//! intersection rests on; without it, two mutually-consistent peers can
//! out-vote the reference and the cluster converges to itself instead of
//! to true time. A round later, `p` intersects the intervals it collected
//! with [`marzullo`] and corrects its clock by the consensus midpoint —
//! stepped at once ([`SyncPolicy::Step`]), slewed with a bounded per-round
//! rate ([`SyncPolicy::Slew`]), or merely observed
//! ([`SyncPolicy::Observe`], the do-nothing baseline).
//!
//! Corrections shift the clock's *offset* only. Drift is not modelled
//! away: between rounds the clock keeps drifting, so the residual error
//! floor is about `drift · period + RTT/2` — which is exactly the
//! trade-off the `experiments::sync` study sweeps.
//!
//! Frames default to fire-and-forget datagrams on the channel: a
//! request/response pair is implicitly acknowledged by the response
//! itself, and a lost frame costs one sample — Marzullo's intersection
//! tolerates missing and even lying sources. Losses are counted
//! ([`SyncStats::frames_lost`]), and
//! [`SyncConfig::with_over_transport`] switches rounds onto acked
//! semantics: a dropped frame is re-sent after the transport's timeout
//! (fresh stamps, bounded retries) instead of silently costing the
//! sample.
//!
//! # Adversarial timeservers
//!
//! Each node can carry a [`Persona`]: it requests, settles, and runs its
//! own clock honestly, but *corrupts the responses it serves to others*
//! — a fixed offset lie, seeded jitter, a frozen clock, or collusion on
//! a shared phantom offset designed to bias the intersection. Marzullo
//! out-votes a minority of such liars; the adversary campaign measures
//! where the tolerance breaks as the liar fraction crosses n/2.

use rtsync_core::task::ProcessorId;
use rtsync_core::time::{Dur, Time};

use crate::event::EventKind;
use crate::faults::{mix, GrayFamily};
use crate::histogram::SignedHistogram;
use crate::nonideal::LocalClock;
use crate::observe::{Note, Observer};
use crate::transport::TransportConfig;
use crate::wire::Wire;

/// How a settled offset estimate is turned into a clock correction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// Apply the full estimated offset at once. Fast convergence, but a
    /// large step can make the corrected clock jump (even backwards).
    Step,
    /// Apply at most `max_step` of the estimate per round, preserving
    /// bounded clock-rate change (an amortized slew).
    Slew {
        /// Largest correction magnitude applied in one round.
        max_step: Dur,
    },
    /// Estimate and record, but never correct — the baseline that
    /// isolates what estimation alone would have bought.
    Observe,
}

/// A timeserver's fault model: how the node corrupts the sync responses
/// it serves. The node is otherwise well-behaved — it requests, settles,
/// and schedules honestly; only the answers it gives others lie.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Persona {
    /// Truthful responses (the default).
    #[default]
    Honest,
    /// Adds a fixed offset to every served timestamp and advertises a
    /// perfect (zero) dispersion — a confident, consistent liar.
    FixedLiar {
        /// The lie, added to every served `t2`.
        offset: Dur,
    },
    /// Adds seeded uniform jitter in `[-jitter, +jitter]` to every served
    /// timestamp while advertising its honest dispersion — a faulty
    /// oscillator or a flaky serialization path, not a strategic liar.
    Noisy {
        /// Largest jitter magnitude.
        jitter: Dur,
    },
    /// Serves the same timestamp it first answered with, forever, with
    /// zero claimed dispersion — a latched register. Drifts arbitrarily
    /// far from truth as the run progresses.
    StuckClock,
    /// Answers as if true time were `true + target`, with zero claimed
    /// dispersion. All colluders sharing one `target` produce mutually
    /// consistent intervals, so together they form a coherent phantom
    /// cluster that can out-vote the honest one once they are a majority.
    Colluder {
        /// The phantom offset the collusion pushes toward.
        target: Dur,
    },
}

impl Persona {
    /// Whether this persona serves truthful responses.
    pub fn is_honest(&self) -> bool {
        matches!(self, Persona::Honest)
    }

    /// Short machine-readable tag (used in CSV output).
    pub fn tag(&self) -> &'static str {
        match self {
            Persona::Honest => "honest",
            Persona::FixedLiar { .. } => "fixed_liar",
            Persona::Noisy { .. } => "noisy",
            Persona::StuckClock => "stuck_clock",
            Persona::Colluder { .. } => "colluder",
        }
    }
}

/// Retransmission budget of the acked sync-transport mode: the original
/// send plus at most this many retries per frame.
pub const SYNC_RETRY_BUDGET: u8 = 3;

/// Configuration of the synchronization layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncConfig {
    /// True-time cadence of sync rounds on every processor.
    pub period: Dur,
    /// The correction policy.
    pub policy: SyncPolicy,
    /// Per-node timeserver personas (index = processor). Shorter vectors
    /// are padded with [`Persona::Honest`]; empty means everyone is
    /// honest.
    pub personas: Vec<Persona>,
    /// Seed of the [`Persona::Noisy`] jitter stream.
    pub persona_seed: u64,
    /// Ride acked-transport semantics: a sync frame lost on the channel
    /// is detected by timeout and re-sent with fresh stamps (bounded by
    /// [`SYNC_RETRY_BUDGET`] retries) instead of silently costing the
    /// sample.
    pub over_transport: bool,
}

impl SyncConfig {
    /// A sync layer with the given round period and the [`SyncPolicy::Step`]
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn new(period: Dur) -> SyncConfig {
        assert!(period > Dur::ZERO, "sync period must be positive");
        SyncConfig {
            period,
            policy: SyncPolicy::Step,
            personas: Vec::new(),
            persona_seed: 0,
            over_transport: false,
        }
    }

    /// Sets the correction policy.
    pub fn with_policy(mut self, policy: SyncPolicy) -> SyncConfig {
        self.policy = policy;
        self
    }

    /// Assigns per-node timeserver personas.
    pub fn with_personas(mut self, personas: Vec<Persona>) -> SyncConfig {
        self.personas = personas;
        self
    }

    /// Sets the [`Persona::Noisy`] jitter seed.
    pub fn with_persona_seed(mut self, seed: u64) -> SyncConfig {
        self.persona_seed = seed;
        self
    }

    /// Enables (or disables) the acked sync-transport mode.
    pub fn with_over_transport(mut self, on: bool) -> SyncConfig {
        self.over_transport = on;
        self
    }

    /// Number of nodes whose persona lies (anything but
    /// [`Persona::Honest`]).
    pub fn liar_count(&self) -> usize {
        self.personas.iter().filter(|p| !p.is_honest()).count()
    }
}

/// Marzullo's interval-intersection algorithm: given per-source intervals
/// `[lo, hi]` each claiming to contain the true offset, returns the
/// midpoint and half-width of the smallest region consistent with the
/// **largest number of sources** — `Some((offset, uncertainty))`, or
/// `None` for an empty slice. Sources that lie (disjoint intervals) are
/// out-voted rather than averaged in.
pub fn marzullo(intervals: &[(i64, i64)]) -> Option<(i64, i64)> {
    marzullo_anchored(intervals, None)
}

/// [`marzullo`] with a trust anchor: when several disjoint regions tie
/// for the largest source count, the one intersecting `anchor` wins
/// (leftmost otherwise, as before). The engine anchors each settle to
/// the round's reference self-exchange — the one interval no Byzantine
/// timeserver can forge — so a phantom cluster must *strictly* out-vote
/// the honest sources to capture the estimate. Without the anchor, a
/// single zero-dispersion liar could tie the reference on a thinned
/// sample set (channel loss, pre-warm-up peers) and win on sort order.
pub(crate) fn marzullo_anchored(
    intervals: &[(i64, i64)],
    anchor: Option<(i64, i64)>,
) -> Option<(i64, i64)> {
    if intervals.is_empty() {
        return None;
    }
    // Edge sweep: starts sort before ends at the same point, so touching
    // intervals count as overlapping.
    let mut edges: Vec<(i64, u8)> = Vec::with_capacity(intervals.len() * 2);
    for &(lo, hi) in intervals {
        debug_assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        edges.push((lo, 0));
        edges.push((hi, 1));
    }
    edges.sort_unstable();
    // Pass 1: the best overlap count.
    let (mut count, mut best) = (0u32, 0u32);
    for &(_, kind) in &edges {
        if kind == 0 {
            count += 1;
            best = best.max(count);
        } else {
            count -= 1;
        }
    }
    debug_assert!(best >= 1);
    // Pass 2: every maximal region attaining it, in sweep order.
    let mut regions: Vec<(i64, i64)> = Vec::new();
    let mut count = 0u32;
    let mut open_lo = None;
    for &(v, kind) in &edges {
        if kind == 0 {
            count += 1;
            if count == best {
                open_lo = Some(v);
            }
        } else {
            if let Some(lo) = open_lo.take() {
                regions.push((lo, v));
            }
            count -= 1;
        }
    }
    let &(best_lo, best_hi) = regions
        .iter()
        .find(|&&(lo, hi)| anchor.is_some_and(|(alo, ahi)| lo <= ahi && alo <= hi))
        .unwrap_or(&regions[0]);
    // Midpoint rounded toward the lower edge keeps the result inside the
    // region; the half-width rounds up so the bound stays honest.
    let offset = best_lo + (best_hi - best_lo) / 2;
    let uncertainty = (best_hi - best_lo) - (best_hi - best_lo) / 2;
    Some((offset, uncertainty))
}

/// Aggregate statistics of one run's synchronization layer.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SyncStats {
    /// Sync round bodies executed (across all processors).
    pub rounds: u64,
    /// Request + response frames sent on the channel.
    pub frames: u64,
    /// Completed request/response exchanges (offset samples gathered).
    pub exchanges: u64,
    /// Settled Marzullo estimates (rounds with at least one sample).
    pub estimates: u64,
    /// Largest Marzullo half-width over all estimates: the achieved
    /// offset-uncertainty bound.
    pub max_uncertainty: Dur,
    /// Sum of half-widths, for [`SyncStats::mean_uncertainty`].
    pub sum_uncertainty: i64,
    /// Magnitude distribution of applied, nonzero corrections (signed:
    /// positive pushes the local clock forward). Empty under
    /// [`SyncPolicy::Observe`].
    pub corrections: SignedHistogram,
    /// Largest ground-truth clock error `|corrected local − true|`
    /// sampled at round instants (an oracle measurement the nodes
    /// themselves cannot make; the experiments report it).
    pub max_true_error: Dur,
    /// Sum of sampled ground-truth errors.
    pub sum_true_error: i64,
    /// Number of ground-truth error samples.
    pub true_error_samples: u64,
    /// Request/response frames lost to channel faults (each costs one
    /// sample in datagram mode, or triggers a retry over transport).
    pub frames_lost: u64,
    /// Request/response frames severed by a network partition cut.
    pub frames_severed: u64,
    /// Frames re-sent by the acked sync-transport mode after a loss.
    pub retransmits: u64,
    /// Buffered samples discarded at a settle because they were gathered
    /// from a peer across the open partition cut *before* the cut opened
    /// — stale pre-partition estimates that would otherwise keep voting
    /// in Marzullo against a connectivity that no longer exists.
    pub stale_discards: u64,
    /// Responses served with persona-corrupted stamps or dispersion.
    pub corrupted_samples: u64,
    /// Settled estimates checked against the oracle's true offset.
    pub bracket_samples: u64,
    /// Settled estimates whose uncertainty interval failed to bracket
    /// the true offset — the dishonesty the adversary campaign measures.
    pub bracket_misses: u64,
    /// Widest offset interval ever recorded (round-trip ε plus the
    /// responder's dispersion, itself widened by the link's advertised
    /// asymmetry bound) — how much raw samples pay for hostile links.
    pub max_sample_width: Dur,
}

impl SyncStats {
    /// Mean Marzullo half-width over all estimates, if any settled.
    pub fn mean_uncertainty(&self) -> Option<f64> {
        (self.estimates > 0).then(|| self.sum_uncertainty as f64 / self.estimates as f64)
    }

    /// Mean ground-truth clock error over the round-instant samples.
    pub fn mean_true_error(&self) -> Option<f64> {
        (self.true_error_samples > 0)
            .then(|| self.sum_true_error as f64 / self.true_error_samples as f64)
    }
}

/// One buffered offset sample: the interval itself plus the provenance
/// the partition-aware settle needs — who answered, and when the
/// response landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SyncSample {
    /// Interval lower bound, in ticks.
    pub(crate) lo: i64,
    /// Interval upper bound, in ticks.
    pub(crate) hi: i64,
    /// The responding processor (`p` itself for the reference exchange).
    pub(crate) responder: usize,
    /// True time the response was recorded.
    pub(crate) at: Time,
}

/// Per-run state of the synchronization layer (engine-internal).
#[derive(Debug)]
pub(crate) struct SyncState {
    /// The configuration.
    pub(crate) cfg: SyncConfig,
    /// Backoff before retry `a` of a dropped frame in the acked mode.
    backoff: [Dur; SYNC_RETRY_BUDGET as usize],
    /// Per-processor offset intervals gathered since the last settle.
    pub(crate) samples: Vec<Vec<SyncSample>>,
    /// Per-processor interval of the round's *reference* self-exchange —
    /// the one vote that cannot be a liar's. The settle anchors
    /// Marzullo's tie-break to it, so a phantom cluster needs a strict
    /// majority (not a thinned sample set) to out-vote the truth.
    ref_anchor: Vec<Option<(i64, i64)>>,
    /// Per-processor advertised error bound against true time (root
    /// dispersion), in ticks: the last settled Marzullo uncertainty plus
    /// whatever part of the estimate the policy left uncorrected, plus the
    /// drift slack. `None` until the processor settles its first estimate.
    pub(crate) disp: Vec<Option<i64>>,
    /// Per-processor drift tolerance over one sync period, in ticks
    /// (ceiling): how far the oscillator's rated drift can carry the clock
    /// while a sample ages from exchange to settle — NTP's PHI·τ term. A
    /// settle widens every sample by this and folds it into the advertised
    /// dispersion; without it a just-settled node would claim a perfect
    /// clock, its relative samples would tie with the reference's in
    /// Marzullo, and a common-mode drift would never be corrected.
    pub(crate) drift_slack: Vec<i64>,
    /// Per-node persona, padded to the processor count with
    /// [`Persona::Honest`].
    pub(crate) personas: Vec<Persona>,
    /// [`Persona::StuckClock`] latch: the first timestamp each stuck node
    /// answered with.
    stuck_at: Vec<Option<Time>>,
    /// [`Persona::Noisy`] draw counter (hashed with the persona seed for
    /// a deterministic jitter stream independent of other randomness).
    noise_ctr: u64,
    /// Run statistics.
    pub(crate) stats: SyncStats,
}

impl SyncState {
    /// The sync state for processors with `clocks`. The layer knows each
    /// oscillator's rated drift (a spec-sheet bound every real node has,
    /// not oracle knowledge), which sizes its drift tolerance; the actual
    /// offsets stay hidden from it. Retries back off on `transport`'s RTO
    /// schedule, else by an eighth of the sync period.
    pub(crate) fn new(
        cfg: SyncConfig,
        clocks: &[LocalClock],
        transport: Option<&TransportConfig>,
    ) -> SyncState {
        let n = clocks.len();
        let period = cfg.period.ticks();
        let mut personas = cfg.personas.clone();
        personas.resize(n, Persona::Honest);
        personas.truncate(n);
        SyncState {
            backoff: std::array::from_fn(|attempt| match transport {
                Some(t) => t.rto(attempt as u32),
                None => Dur::from_ticks((period / 8).max(1)),
            }),
            cfg,
            samples: vec![Vec::new(); n],
            ref_anchor: vec![None; n],
            disp: vec![None; n],
            drift_slack: clocks
                .iter()
                .map(|c| (c.drift_ppm.abs() * period + 999_999) / 1_000_000)
                .collect(),
            personas,
            stuck_at: vec![None; n],
            noise_ctr: 0,
            stats: SyncStats::default(),
        }
    }

    /// Applies `responder`'s persona to the honest response stamps it
    /// would have served: returns the (possibly corrupted) `(t2, disp)`
    /// pair actually put on the wire and counts the corruption. `now` is
    /// true time at the serve instant (what a colluder's phantom clock is
    /// anchored to).
    pub(crate) fn corrupt_response(
        &mut self,
        responder: usize,
        now: Time,
        t2: Time,
        disp: Option<Dur>,
    ) -> (Time, Option<Dur>) {
        match self.personas[responder] {
            Persona::Honest => (t2, disp),
            Persona::FixedLiar { offset } => {
                self.stats.corrupted_samples += 1;
                (t2 + offset, Some(Dur::ZERO))
            }
            Persona::Noisy { jitter } => {
                self.stats.corrupted_samples += 1;
                let j = jitter.ticks().max(0);
                let draw = mix(
                    self.cfg.persona_seed ^ ((responder as u64) << 32),
                    self.noise_ctr,
                );
                self.noise_ctr += 1;
                let jit = (draw % (2 * j + 1) as u64) as i64 - j;
                (t2 + Dur::from_ticks(jit), disp)
            }
            Persona::StuckClock => {
                self.stats.corrupted_samples += 1;
                let frozen = *self.stuck_at[responder].get_or_insert(t2);
                (frozen, Some(Dur::ZERO))
            }
            Persona::Colluder { target } => {
                self.stats.corrupted_samples += 1;
                (now + target, Some(Dur::ZERO))
            }
        }
    }

    /// Records one completed exchange for processor `p`: the NTP estimate
    /// from stamps `(t1, t2, t3)` as an offset interval, widened by the
    /// responder's advertised error bound `disp` (0 for the reference) so
    /// the interval contains the *true* offset, not just the relative one.
    /// `responder` and `now` are kept with the sample so a later settle
    /// can age out pre-partition cross-island votes; `responder == p`
    /// marks the round's reference self-exchange, whose interval also
    /// becomes the settle's Marzullo trust anchor.
    #[allow(clippy::too_many_arguments)] // the three NTP stamps are positional by protocol
    pub(crate) fn record_exchange(
        &mut self,
        p: usize,
        responder: usize,
        t1: Time,
        t2: Time,
        t3: Time,
        disp: Dur,
        now: Time,
    ) {
        let (t1, t2, t3) = (
            t1.since_origin().ticks(),
            t2.since_origin().ticks(),
            t3.since_origin().ticks(),
        );
        debug_assert!(t3 >= t1, "response before request");
        debug_assert!(disp >= Dur::ZERO);
        // θ = t2 − (t1 + t3)/2 without intermediate rounding: double
        // everything, halve at the end (rounding toward −∞ on lo and +∞
        // on hi keeps the interval a superset).
        let theta2 = 2 * t2 - (t1 + t3);
        let eps2 = t3 - t1;
        let lo = (theta2 - eps2).div_euclid(2) - disp.ticks();
        let hi = (theta2 + eps2 + 1).div_euclid(2) + disp.ticks();
        self.samples[p].push(SyncSample {
            lo,
            hi,
            responder,
            at: now,
        });
        if responder == p {
            self.ref_anchor[p] = Some((lo, hi));
        }
        self.stats.exchanges += 1;
        self.stats.max_sample_width = self.stats.max_sample_width.max(Dur::from_ticks(hi - lo));
    }

    /// Ages processor `p`'s sample buffer against an open partition: a
    /// sample gathered *before* the cut opened at `cut_at` from a
    /// responder now on the other side of it describes connectivity the
    /// cut revoked — feeding it to Marzullo would keep the pre-partition
    /// estimate voting long after the peer went unreachable. Cross-island
    /// samples older than the cut are discarded; same-island samples and
    /// the reference self-exchange always survive.
    pub(crate) fn discard_cross_island(&mut self, p: usize, cut_at: Time, island: &[bool]) {
        let before = self.samples[p].len();
        let side = island[p];
        self.samples[p].retain(|s| s.at >= cut_at || island[s.responder] == side);
        self.stats.stale_discards += (before - self.samples[p].len()) as u64;
    }

    /// Settles processor `p`'s accumulated samples into a correction:
    /// runs Marzullo, applies the policy and updates the stats. Returns
    /// `(estimate, uncertainty, step)` if any sample was gathered; the
    /// caller steps the clock's offset by `step`.
    pub(crate) fn settle(&mut self, p: usize) -> Option<(Dur, Dur, Dur)> {
        let mut samples = std::mem::take(&mut self.samples[p]);
        // Samples are up to one period old: the local clock has drifted
        // since the stamps were taken, so every interval widens by the
        // oscillator's rated drift over a period to keep containing the
        // *current* true offset.
        let slack = self.drift_slack[p];
        let samples: Vec<(i64, i64)> = samples
            .drain(..)
            .map(|s| (s.lo - slack, s.hi + slack))
            .collect();
        let anchor = self.ref_anchor[p]
            .take()
            .map(|(lo, hi)| (lo - slack, hi + slack));
        let (offset, uncertainty) = marzullo_anchored(&samples, anchor)?;
        let step = match self.cfg.policy {
            SyncPolicy::Step => offset,
            SyncPolicy::Slew { max_step } => {
                let m = max_step.ticks().max(0);
                offset.clamp(-m, m)
            }
            SyncPolicy::Observe => 0,
        };
        // Advertised dispersion for the next exchanges this node answers:
        // the estimate's own half-width, plus whatever the policy chose
        // not to correct (the whole estimate under `Observe`), plus one
        // more period of drift until the answers are themselves settled.
        self.disp[p] = Some(uncertainty + (offset - step).abs() + slack);
        self.stats.estimates += 1;
        self.stats.max_uncertainty = self.stats.max_uncertainty.max(Dur::from_ticks(uncertainty));
        self.stats.sum_uncertainty += uncertainty;
        if step != 0 {
            self.stats.corrections.record(Dur::from_ticks(step));
        }
        Some((
            Dur::from_ticks(offset),
            Dur::from_ticks(uncertainty),
            Dur::from_ticks(step),
        ))
    }

    /// The error bound processor `p` advertises when answering a sync
    /// request (`None` before its first settle — such samples are
    /// discarded by the requester).
    pub(crate) fn dispersion(&self, p: usize) -> Option<Dur> {
        self.disp[p].map(Dur::from_ticks)
    }

    /// Records one oracle ground-truth error sample.
    pub(crate) fn record_true_error(&mut self, err: Dur) {
        debug_assert!(err >= Dur::ZERO);
        self.stats.max_true_error = self.stats.max_true_error.max(err);
        self.stats.sum_true_error += err.ticks();
        self.stats.true_error_samples += 1;
    }

    /// Records one oracle bracket check of a settled estimate: did the
    /// uncertainty interval contain the true offset?
    pub(crate) fn record_bracket(&mut self, hit: bool) {
        self.stats.bracket_samples += 1;
        if !hit {
            self.stats.bracket_misses += 1;
        }
    }

    /// Seeds one round chain per processor. The first round fires a
    /// period in — there is nothing to settle at t = 0.
    pub(crate) fn start<O: Observer>(&self, w: &mut Wire<'_, O>) {
        for proc in (0..w.procs.len()).map(ProcessorId::new) {
            w.queue
                .push(Time::ZERO + self.cfg.period, EventKind::SyncRound { proc });
        }
    }

    /// A processor's periodic sync round: settle the previous round's
    /// samples into a correction, then send fresh timestamped requests to
    /// every peer and the external time reference. The chain ticks on the
    /// true-time cadence whether the node is up or not (a crashed node
    /// skips the body, like a silent heartbeat).
    pub(crate) fn on_round<O: Observer>(&mut self, w: &mut Wire<'_, O>, proc: ProcessorId) {
        let p = proc.index();
        // A stalled node's sync daemon is as frozen as its scheduler: the
        // round is skipped (no settle, no fresh requests) but the chain
        // keeps ticking, so rounds resume after the window.
        if !w.procs[p].is_down() && !w.procs[p].is_stalled() {
            w.note(Note::SyncRound { proc: p });
            self.stats.rounds += 1;
            // Partition-aware estimate aging: with a cut open, samples
            // gathered *before* it opened from peers now on the far side
            // describe a cluster that no longer exists — feeding them to
            // Marzullo would anchor this island to stale cross-island
            // time. Discard them before the settle.
            if let Some(since) = w.faults.partition_since {
                self.discard_cross_island(p, since, &w.faults.island);
            }
            // Ground truth *before* the settle steps the clock: the
            // estimate about to land claims to measure exactly this.
            let true_off = w.now - w.clocks[p].local_of(w.now);
            if let Some((estimate, uncertainty, step)) = self.settle(p) {
                w.clocks[p].offset += step;
                w.note(Note::SyncEstimate {
                    proc: p,
                    estimate,
                    uncertainty,
                });
                if step != Dur::ZERO {
                    w.note(Note::SyncCorrection { proc: p, step });
                }
                // Uncertainty honesty: did the advertised interval bracket
                // the true offset? Recorded per settle; the invariant
                // observer decides whether a miss is a violation (it is
                // only promised while liars stay a minority).
                let miss = (estimate.ticks() - true_off.ticks()).abs();
                self.record_bracket(miss <= uncertainty.ticks());
                w.note(Note::SyncBracket {
                    proc: p,
                    estimate,
                    uncertainty,
                    true_offset: true_off,
                });
            }
            // Oracle ground-truth error sample, taken *after* the round's
            // correction — this is what the experiments plot against EER.
            let t1 = w.clocks[p].local_of(w.now);
            self.record_true_error(Dur::from_ticks((t1 - w.now).ticks().abs()));
            // Fresh requests: every peer, plus the reference addressed as
            // `to == from` (a processor never syncs with itself).
            for q in 0..w.procs.len() {
                let to = ProcessorId::new(q);
                let request = EventKind::SyncRequest { from: proc, to, t1 };
                self.send_frame(w, p, q, request, 0);
            }
        }
        w.push_by_horizon(w.now + self.cfg.period, EventKind::SyncRound { proc });
    }

    /// Sends one sync frame over the channel: a fire-and-forget datagram
    /// with one latency/fault draw per copy. A dropped frame just loses
    /// one sample (the exchange is implicitly acked by its response);
    /// a duplicated one repeats it — Marzullo tolerates both. In
    /// sync-over-transport mode a channel drop instead arms a bounded
    /// retry with the transport's backoff, so rounds survive lossy wires.
    /// A frame whose endpoints sit on opposite sides of an open partition
    /// never reaches the wire at all — severed, not dropped, and never
    /// retried (the cut outlives any backoff; the heal restores rounds).
    fn send_frame<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        src: usize,
        dst: usize,
        kind: EventKind,
        attempt: u8,
    ) {
        if src == dst {
            // The self-addressed reference exchange is a local read of
            // the node's time source, not a network frame: it cannot be
            // dropped, delayed, severed, or skewed. Guaranteeing the
            // reference vote in every settle is what lets Marzullo's
            // anchored tie-break hold the line against minority liars
            // even when channel loss thins the honest sample set.
            w.queue.push(w.now, kind);
            return;
        }
        if w.faults.cut(src, dst) {
            self.stats.frames_severed += 1;
            return;
        }
        self.stats.frames += 1;
        self.stats.retransmits += u64::from(attempt > 0);
        let plan = w.channel().send();
        if plan.dropped {
            self.stats.frames_lost += 1;
            if self.cfg.over_transport && attempt < SYNC_RETRY_BUDGET {
                // The retry carries the requester/responder pair in
                // request order: `from` asks, `to` answers.
                let delay = self.backoff[usize::from(attempt)];
                let attempt = attempt + 1;
                let retry = match kind {
                    EventKind::SyncRequest { from, to, t1 } => EventKind::SyncRetry {
                        from,
                        to,
                        t1,
                        respond: false,
                        attempt,
                    },
                    EventKind::SyncResponse { from, to, t1, .. } => EventKind::SyncRetry {
                        from: to,
                        to: from,
                        t1,
                        respond: true,
                        attempt,
                    },
                    _ => unreachable!("only sync frames are sent as sync frames"),
                };
                w.queue.push(w.now + delay, retry);
            }
        }
        // A gray drop on top of the channel plan loses the sample like
        // any datagram loss — Marzullo tolerates a thinner round.
        w.land(&plan, src, dst, GrayFamily::Sync, kind);
    }

    /// A request from `from` lands on responder `to` (the reference when
    /// `to == from`).
    pub(crate) fn on_request<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        from: ProcessorId,
        to: ProcessorId,
        t1: Time,
    ) {
        if !self.severed_in_flight(w, from.index(), to.index()) {
            self.serve(w, from, to, t1, 0);
        }
    }

    /// A partition opening while a frame from `from` to `to` was in
    /// flight severs it here, at the delivery edge. The reference exchange
    /// (`from == to`) is local and cannot be cut.
    fn severed_in_flight<O: Observer>(&mut self, w: &Wire<'_, O>, from: usize, to: usize) -> bool {
        let severed = from != to && w.faults.cut(from, to);
        self.stats.frames_severed += u64::from(severed);
        severed
    }

    /// The responder side of one exchange: stamp the clock (passing it
    /// through the node's timeserver persona, which may lie) and answer
    /// over the channel. The reference (`to == from`) lives outside both
    /// the fault domain and the persona model and always answers with true
    /// time and zero dispersion; a crashed peer stays silent and the
    /// sample is simply lost. A live honest peer advertises its own error
    /// bound against true time (its last settled uncertainty plus
    /// uncorrected residual) so the requester can widen the sample
    /// honestly — without this, two mutually-consistent peers could
    /// out-vote the reference in Marzullo and the cluster would converge
    /// to itself instead of true time. Liars corrupt exactly this
    /// advertisement.
    fn serve<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        from: ProcessorId,
        to: ProcessorId,
        t1: Time,
        attempt: u8,
    ) {
        let r = to.index();
        let (t2, disp) = if to == from {
            (w.now, Some(Dur::ZERO))
        } else {
            // A stalled responder cannot stamp: like a crashed one it
            // stays silent and the sample is lost (requester-side
            // processing of already-in-flight responses still runs — the
            // detector-daemon model keeps receive paths outside the
            // stalled userspace).
            if w.procs[r].is_down() || w.procs[r].is_stalled() {
                return;
            }
            let honest_t2 = w.clocks[r].local_of(w.now);
            let honest_disp = self.dispersion(r);
            let served = self.corrupt_response(r, w.now, honest_t2, honest_disp);
            if !self.personas[r].is_honest() {
                w.note(Note::SyncCorrupted { responder: r });
            }
            served
        };
        let response = EventKind::SyncResponse {
            from: to,
            to: from,
            t1,
            t2,
            disp,
        };
        self.send_frame(w, r, from.index(), response, attempt);
    }

    /// A response from `from` returns to requester `to`, closing one
    /// exchange: stamp the arrival, widen the advertised dispersion by the
    /// link's asymmetry bound (NTP's midpoint is biased by up to half the
    /// one-way imbalance), and buffer the offset interval for the next
    /// round's settle. `t1` and `t2` are the request and serve stamps.
    pub(crate) fn on_response<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        from: ProcessorId,
        to: ProcessorId,
        t1: Time,
        t2: Time,
        disp: Option<Dur>,
    ) {
        let (from, p) = (from.index(), to.index());
        if self.severed_in_flight(w, from, p) {
            return;
        }
        if w.procs[p].is_down() {
            return; // the requester crashed before the response landed
        }
        let Some(disp) = disp else {
            // The responder has never settled an estimate of its own and
            // cannot bound its error against true time — the sample is
            // unusable for an absolute-offset vote.
            return;
        };
        let t3 = w.clocks[p].local_of(w.now);
        if t3 < t1 {
            // A backwards step correction between send and receive can
            // pull the corrected clock behind the request stamp; the
            // RTT estimate is meaningless — drop the sample.
            return;
        }
        let asymmetry = w.cfg.nonideal.asymmetry.as_ref();
        let widened = disp + asymmetry.map_or(Dur::ZERO, |a| a.bound(p, from));
        self.record_exchange(p, from, t1, t2, t3, widened, w.now);
    }

    /// A sync retry timer fired: re-send the dropped frame. Responder
    /// retries re-stamp `t2` at the current instant (a stale stamp would
    /// poison the RTT bound); requester retries restart the exchange with
    /// a fresh `t1` for the same reason.
    pub(crate) fn on_retry<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        from: ProcessorId,
        to: ProcessorId,
        t1: Time,
        respond: bool,
        attempt: u8,
    ) {
        if respond {
            self.serve(w, from, to, t1, attempt);
        } else if !w.procs[from.index()].is_down() {
            // (A requester that crashed while the retry was pending stays
            // silent.)
            let t1 = w.clocks[from.index()].local_of(w.now);
            let request = EventKind::SyncRequest { from, to, t1 };
            self.send_frame(w, from.index(), to.index(), request, attempt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn marzullo_classic_three_sources() {
        // Marzullo's canonical example: [8,12], [11,13], [10,12] — all
        // three agree on [11,12].
        let (offset, eps) = marzullo(&[(8, 12), (11, 13), (10, 12)]).unwrap();
        assert!((11..=12).contains(&offset), "midpoint inside [11,12]");
        assert!(eps <= 1);
    }

    #[test]
    fn marzullo_outvotes_a_liar() {
        // Two honest sources around 0, one liar far away: the consensus
        // region ignores the liar entirely.
        let (offset, eps) = marzullo(&[(-2, 2), (-1, 3), (100, 104)]).unwrap();
        assert!((-1..=2).contains(&offset), "offset {offset}");
        assert!(eps <= 2, "eps {eps}");
    }

    #[test]
    fn marzullo_single_and_empty() {
        assert_eq!(marzullo(&[]), None);
        let (offset, eps) = marzullo(&[(4, 10)]).unwrap();
        assert_eq!(offset, 7);
        assert_eq!(eps, 3);
        // Odd width rounds the bound up, never down.
        let (offset, eps) = marzullo(&[(0, 3)]).unwrap();
        assert_eq!(offset, 1);
        assert_eq!(eps, 2);
    }

    #[test]
    fn marzullo_disjoint_sources_pick_the_majority() {
        let (offset, _) = marzullo(&[(0, 1), (0, 2), (50, 51)]).unwrap();
        assert!((0..=2).contains(&offset));
    }

    #[test]
    fn anchored_tie_breaks_toward_the_reference() {
        // A lone zero-width liar at -40 ties the reference at 0 on a
        // thinned sample set. Unanchored, the sweep picks the leftmost
        // (the liar); anchored to the reference interval, truth wins.
        let samples = [(-40, -40), (-1, 1)];
        let (offset, _) = marzullo_anchored(&samples, None).unwrap();
        assert_eq!(offset, -40, "leftmost wins without an anchor");
        let (offset, eps) = marzullo_anchored(&samples, Some((-1, 1))).unwrap();
        assert!((-1..=1).contains(&offset), "offset {offset}");
        assert!(eps <= 1);
    }

    #[test]
    fn anchor_cannot_veto_a_strict_majority() {
        // Three mutually-consistent phantoms out-vote the anchored
        // reference outright: the documented >= n/2 failure mode.
        let samples = [(-41, -39), (-40, -38), (-42, -40), (-1, 1)];
        let (offset, _) = marzullo_anchored(&samples, Some((-1, 1))).unwrap();
        assert!((-42..=-38).contains(&offset), "offset {offset}");
    }

    #[test]
    fn exchange_interval_contains_the_true_offset() {
        // Responder's clock is 7 ahead of the requester's; request takes
        // 3, response takes 1 (asymmetric). t1=100 → arrives 103, reads
        // 110; response lands at t3=104.
        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 1], None);
        s.record_exchange(0, 1, t(100), t(110), t(104), Dur::ZERO, t(104));
        let SyncSample { lo, hi, .. } = s.samples[0][0];
        assert!(lo <= 7 && 7 <= hi, "true offset 7 outside [{lo}, {hi}]");
        // ε = RTT/2 = 2.
        assert!(hi - lo <= 4);
        assert_eq!(s.stats.exchanges, 1);
    }

    #[test]
    fn responder_dispersion_widens_the_interval() {
        // Same exchange, but the responder admits it may itself be up to
        // 3 ticks off true time: the interval grows by 3 on each side.
        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 1], None);
        s.record_exchange(0, 1, t(100), t(110), t(104), Dur::ZERO, t(104));
        s.record_exchange(0, 1, t(100), t(110), t(104), d(3), t(104));
        let (tight, wide) = (s.samples[0][0], s.samples[0][1]);
        assert_eq!(wide.lo, tight.lo - 3);
        assert_eq!(wide.hi, tight.hi + 3);
    }

    #[test]
    fn settle_applies_policy() {
        // One perfect sample: responder ahead by exactly 5 (zero RTT).
        let sample =
            |s: &mut SyncState| s.record_exchange(0, 1, t(100), t(105), t(100), Dur::ZERO, t(100));

        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 1], None);
        assert_eq!(s.disp[0], None, "unsettled nodes advertise no bound");
        sample(&mut s);
        let (est, eps, step) = s.settle(0).unwrap();
        assert_eq!((est, eps, step), (d(5), d(0), d(5)));
        assert_eq!(s.disp[0], Some(0), "a full step leaves no residual");

        let mut s = SyncState::new(
            SyncConfig::new(d(10)).with_policy(SyncPolicy::Slew { max_step: d(2) }),
            &[LocalClock::IDEAL; 1],
            None,
        );
        sample(&mut s);
        let (_, _, step) = s.settle(0).unwrap();
        assert_eq!(step, d(2), "slew clamps the step");
        assert_eq!(s.disp[0], Some(3), "the unapplied 3 ticks are admitted");

        let mut s = SyncState::new(
            SyncConfig::new(d(10)).with_policy(SyncPolicy::Observe),
            &[LocalClock::IDEAL; 1],
            None,
        );
        sample(&mut s);
        let (est, _, step) = s.settle(0).unwrap();
        assert_eq!(est, d(5));
        assert_eq!(step, Dur::ZERO, "observe never corrects");
        assert_eq!(s.disp[0], Some(5), "the whole estimate stays unapplied");

        // Settling with no samples is a no-op.
        assert_eq!(s.settle(0), None);
    }

    #[test]
    fn settle_clears_the_sample_buffer() {
        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 1], None);
        s.record_exchange(0, 1, t(0), t(3), t(2), Dur::ZERO, t(2));
        assert!(s.settle(0).is_some());
        assert!(s.samples[0].is_empty());
        assert_eq!(s.settle(0), None, "samples were consumed");
    }

    #[test]
    fn cross_island_samples_older_than_the_cut_are_discarded() {
        // Node 0 gathered three samples: from peer 1 (same island, old),
        // from peer 2 (far island, old) and from itself (reference). A
        // cut opening at t = 50 with {0, 1} on one side must age out
        // exactly the pre-cut sample from peer 2.
        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 3], None);
        s.record_exchange(0, 1, t(10), t(12), t(14), Dur::ZERO, t(14));
        s.record_exchange(0, 2, t(10), t(13), t(14), Dur::ZERO, t(14));
        s.record_exchange(0, 0, t(20), t(20), t(20), Dur::ZERO, t(20));
        let island = [true, true, false];
        s.discard_cross_island(0, t(50), &island);
        assert_eq!(s.samples[0].len(), 2);
        assert!(s.samples[0].iter().all(|x| x.responder != 2));
        assert_eq!(s.stats.stale_discards, 1);
        // A fresh post-cut sample from the same island always survives.
        s.record_exchange(0, 1, t(60), t(62), t(64), Dur::ZERO, t(64));
        s.discard_cross_island(0, t(50), &island);
        assert_eq!(s.samples[0].len(), 3);
        assert_eq!(s.stats.stale_discards, 1, "nothing new to discard");
    }

    #[test]
    fn stats_means() {
        let mut stats = SyncStats::default();
        assert_eq!(stats.mean_uncertainty(), None);
        assert_eq!(stats.mean_true_error(), None);
        stats.estimates = 4;
        stats.sum_uncertainty = 6;
        assert_eq!(stats.mean_uncertainty(), Some(1.5));
        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 1], None);
        s.record_true_error(d(3));
        s.record_true_error(d(5));
        assert_eq!(s.stats.mean_true_error(), Some(4.0));
        assert_eq!(s.stats.max_true_error, d(5));
    }

    #[test]
    #[should_panic(expected = "sync period must be positive")]
    fn zero_period_rejected() {
        let _ = SyncConfig::new(Dur::ZERO);
    }

    #[test]
    fn personas_pad_to_the_processor_count() {
        let cfg = SyncConfig::new(d(10)).with_personas(vec![Persona::StuckClock]);
        assert_eq!(cfg.liar_count(), 1);
        let s = SyncState::new(cfg, &[LocalClock::IDEAL; 3], None);
        assert_eq!(s.personas[0], Persona::StuckClock);
        assert_eq!(s.personas[1], Persona::Honest);
        assert_eq!(s.personas[2], Persona::Honest);
    }

    #[test]
    fn fixed_liar_shifts_and_claims_perfection() {
        let cfg = SyncConfig::new(d(10))
            .with_personas(vec![Persona::Honest, Persona::FixedLiar { offset: d(500) }]);
        let mut s = SyncState::new(cfg, &[LocalClock::IDEAL; 2], None);
        let honest = s.corrupt_response(0, t(50), t(40), Some(d(3)));
        assert_eq!(honest, (t(40), Some(d(3))), "honest responses untouched");
        assert_eq!(s.stats.corrupted_samples, 0);
        let lie = s.corrupt_response(1, t(50), t(40), Some(d(3)));
        assert_eq!(lie, (t(540), Some(Dur::ZERO)));
        assert_eq!(s.stats.corrupted_samples, 1);
    }

    #[test]
    fn stuck_clock_latches_its_first_answer() {
        let cfg = SyncConfig::new(d(10)).with_personas(vec![Persona::StuckClock]);
        let mut s = SyncState::new(cfg, &[LocalClock::IDEAL; 1], None);
        assert_eq!(s.corrupt_response(0, t(10), t(12), None).0, t(12));
        assert_eq!(s.corrupt_response(0, t(90), t(95), None).0, t(12));
        assert_eq!(s.corrupt_response(0, t(900), t(907), None).0, t(12));
    }

    #[test]
    fn colluders_agree_regardless_of_their_own_clocks() {
        let cfg = SyncConfig::new(d(10)).with_personas(vec![
            Persona::Colluder { target: d(-200) },
            Persona::Colluder { target: d(-200) },
        ]);
        let mut s = SyncState::new(cfg, &[LocalClock::IDEAL; 2], None);
        // Different local stamps, identical served answers: a coherent
        // phantom cluster.
        let a = s.corrupt_response(0, t(100), t(137), Some(d(9)));
        let b = s.corrupt_response(1, t(100), t(61), Some(d(2)));
        assert_eq!(a, (t(-100), Some(Dur::ZERO)));
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_jitter_is_seeded_and_bounded() {
        let mk = |seed| {
            SyncState::new(
                SyncConfig::new(d(10))
                    .with_personas(vec![Persona::Noisy { jitter: d(4) }])
                    .with_persona_seed(seed),
                &[LocalClock::IDEAL; 1],
                None,
            )
        };
        let (mut a, mut b, mut c) = (mk(7), mk(7), mk(8));
        let mut diverged = false;
        for i in 0..64 {
            let base = t(1_000 + 13 * i);
            let (ta, _) = a.corrupt_response(0, base, base, Some(d(1)));
            let (tb, _) = b.corrupt_response(0, base, base, Some(d(1)));
            let (tc, _) = c.corrupt_response(0, base, base, Some(d(1)));
            assert_eq!(ta, tb, "same seed, same jitter");
            assert!((ta - base).ticks().abs() <= 4, "jitter out of bounds");
            diverged |= ta != tc;
        }
        assert!(diverged, "different seeds should jitter differently");
    }

    #[test]
    fn bracket_accounting() {
        let mut s = SyncState::new(SyncConfig::new(d(10)), &[LocalClock::IDEAL; 1], None);
        s.record_bracket(true);
        s.record_bracket(false);
        s.record_bracket(true);
        assert_eq!(s.stats.bracket_samples, 3);
        assert_eq!(s.stats.bracket_misses, 1);
    }
}
