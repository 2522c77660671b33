//! Heartbeat failure detection and graceful degradation.
//!
//! The fault domain's recovery reconciliation is an oracle: the engine
//! reads each processor's own down flag directly, so every processor
//! "knows" about a crash the instant it happens. This module replaces that oracle with an
//! endpoint protocol: every processor broadcasts a heartbeat each
//! [`DetectorConfig::period`]; each *observer* processor keeps one
//! suspicion deadline per peer and walks the peer through
//! [`PeerState::Alive`] → [`PeerState::Suspect`] → [`PeerState::Dead`] as
//! silence accumulates. The detector keeps each deadline in the pair's
//! keyed slot of the event queue ([`crate::event::EventQueue::arm`]):
//! every heartbeat re-arms it from the arrival, each escalation re-arms
//! it with the residue to the next step, so a deadline that fires always
//! means a full silence and needs no freshness generation. Transitions
//! are compared against the ground-truth crash schedule for
//! false-positive accounting ([`DetectStats`]).
//!
//! When the detector declares a predecessor's processor dead (and
//! [`DetectorConfig::degradation`] is on), it marches degraded releases
//! instead of stalling, and the engine makes each forced release:
//!
//! * **RG** releases the blocked successor from local information alone —
//!   the release is still offered to the guard machinery, so rule 1's
//!   period spacing `g` holds even without the lost signal;
//! * **MPM** re-arms its release cadence from the last *acked* signal of
//!   that predecessor, extrapolating one period per instance.
//!
//! Every fallback is logged as a structured [`DegradationEvent`] on
//! [`SimOutcome::degradations`]; late signals for force-released
//! instances are recognized and suppressed.
//!
//! [`SimOutcome::degradations`]: crate::engine::SimOutcome::degradations

use rtsync_core::protocol::Protocol;
use rtsync_core::task::{ProcessorId, SubtaskId};
use rtsync_core::time::{Dur, Time};

use crate::event::{EventKind, PeerSet};
use crate::faults::GrayFamily;
use crate::job::JobId;
use crate::observe::{Note, Observer};
use crate::transport::TransportState;
use crate::wire::{Effect, Wire};

/// Adaptive φ-accrual detector parameters (armed via
/// [`DetectorConfig::with_phi`]).
///
/// Instead of the fixed `suspect_after`/`dead_after` silence cliff, the
/// φ-accrual detector keeps a per-pair window of heartbeat inter-arrival
/// times and maps current silence `t` to a continuous suspicion level.
/// Under the exponential-arrival simplification the survival probability
/// is `P(alive) = exp(-t / mean)`, so
///
/// ```text
/// φ(t) = -log10 P(alive) = t / (mean · ln 10)
/// ```
///
/// which inverts to a *deterministic threshold-crossing instant*
/// `t* = ⌈φ* · mean · ln 10⌉` for each configured φ threshold — the
/// engine arms those instants in the pair's suspicion slot, exactly like
/// the fixed cliff, so the adaptive detector costs no more events than
/// the fixed one. A peer that merely slows down stretches its observed
/// inter-arrival mean, which pushes every threshold-crossing instant
/// out proportionally: that is the adaptivity the fixed cliff lacks.
///
/// Verdicts walk [`PeerState::Alive`] → [`PeerState::Degraded`] →
/// [`PeerState::Suspect`] → [`PeerState::Dead`] as φ crosses
/// `degraded_phi` < `suspect_phi` < `dead_phi`. Demotion back to Alive
/// requires `hysteresis` consecutive on-time heartbeats, so a jittery
/// wire cannot flap verdicts.
#[derive(Clone, Debug, PartialEq)]
pub struct PhiConfig {
    /// Inter-arrival history window per `(observer, subject)` pair.
    pub window: usize,
    /// Below this many samples the observed mean is not trusted yet and
    /// the configured heartbeat period stands in (warmup).
    pub min_samples: usize,
    /// φ at which a peer turns [`PeerState::Degraded`].
    pub degraded_phi: f64,
    /// φ at which a peer turns [`PeerState::Suspect`].
    pub suspect_phi: f64,
    /// φ at which a peer turns [`PeerState::Dead`].
    pub dead_phi: f64,
    /// Consecutive on-time heartbeats required before a peer under
    /// suspicion is demoted back to [`PeerState::Alive`].
    pub hysteresis: u32,
}

/// MPM response while a peer is Degraded under φ-accrual: the degraded
/// re-arm cadence marches at `period · (1000 + stretch) / 1000` instead
/// of one period.
const MPM_STRETCH_PERMILLE: i64 = 250;

/// Deadline-watchdog response under φ-accrual: while any peer pair is
/// Degraded the consecutive-miss budget is scaled by this permille, so a
/// known-slow system gets a slowdown-aware budget instead of tripping on
/// the inevitable misses.
const WATCHDOG_SCALE_PERMILLE: u64 = 2000;

impl PhiConfig {
    /// Defaults: 16-sample window, 3-sample warmup, φ thresholds
    /// 1 / 2 / 4 (suspicion at 90%, 99%, 99.99% confidence), hysteresis
    /// of 2 on-time beats.
    pub fn new() -> PhiConfig {
        PhiConfig {
            window: 16,
            min_samples: 3,
            degraded_phi: 1.0,
            suspect_phi: 2.0,
            dead_phi: 4.0,
            hysteresis: 2,
        }
    }

    /// Sets the three φ thresholds (must be positive and strictly
    /// increasing).
    pub fn with_thresholds(mut self, degraded: f64, suspect: f64, dead: f64) -> PhiConfig {
        assert!(
            degraded > 0.0 && suspect > degraded && dead > suspect,
            "need 0 < degraded_phi < suspect_phi < dead_phi"
        );
        self.degraded_phi = degraded;
        self.suspect_phi = suspect;
        self.dead_phi = dead;
        self
    }

    /// Sets the history window and warmup sample count.
    pub fn with_window(mut self, window: usize, min_samples: usize) -> PhiConfig {
        assert!(window >= 1 && min_samples >= 1, "window and warmup >= 1");
        self.window = window;
        self.min_samples = min_samples;
        self
    }

    /// Sets the demotion hysteresis (consecutive on-time beats).
    pub fn with_hysteresis(mut self, beats: u32) -> PhiConfig {
        assert!(beats >= 1, "hysteresis must be at least 1");
        self.hysteresis = beats;
        self
    }

    /// The silence after which φ crosses `phi`, for a given inter-arrival
    /// mean: `⌈φ · mean · ln 10⌉` ticks, at least 1.
    fn deadline(&self, phi: f64, mean_ticks: f64) -> Dur {
        let t = (phi * mean_ticks * std::f64::consts::LN_10).ceil() as i64;
        Dur::from_ticks(t.max(1))
    }
}

impl Default for PhiConfig {
    fn default() -> PhiConfig {
        PhiConfig::new()
    }
}

/// Heartbeat failure-detector parameters (attached to a transport via
/// [`TransportConfig::with_detector`]).
///
/// [`TransportConfig::with_detector`]: crate::transport::TransportConfig::with_detector
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// Heartbeat broadcast period.
    pub period: Dur,
    /// Silence after the last heartbeat before a peer turns
    /// [`PeerState::Suspect`].
    pub suspect_after: Dur,
    /// Silence after the last heartbeat before a suspect turns
    /// [`PeerState::Dead`] (must exceed `suspect_after`).
    pub dead_after: Dur,
    /// Whether a dead predecessor triggers degraded releases (RG
    /// guard-from-local-information, MPM re-arm from last ack). Off, the
    /// detector only observes.
    pub degradation: bool,
    /// Consecutive end-to-end deadline misses of one task before the
    /// deadline watchdog trips (a structured event; `None` disables).
    pub watchdog_misses: Option<u32>,
    /// Adaptive φ-accrual mode; `None` keeps the fixed
    /// `suspect_after`/`dead_after` cliff bit-identically.
    pub phi: Option<PhiConfig>,
}

impl DetectorConfig {
    /// A detector with the given heartbeat period: suspicion at 3
    /// periods of silence, death at 6, degradation on, watchdog off.
    pub fn new(period: Dur) -> DetectorConfig {
        assert!(period.is_positive(), "heartbeat period must be positive");
        DetectorConfig {
            period,
            suspect_after: Dur::from_ticks(period.ticks().saturating_mul(3)),
            dead_after: Dur::from_ticks(period.ticks().saturating_mul(6)),
            degradation: true,
            watchdog_misses: None,
            phi: None,
        }
    }

    /// Sets the suspicion and death thresholds (silence since the last
    /// heartbeat).
    pub fn with_thresholds(mut self, suspect_after: Dur, dead_after: Dur) -> DetectorConfig {
        assert!(
            suspect_after.is_positive() && dead_after > suspect_after,
            "need 0 < suspect_after < dead_after"
        );
        self.suspect_after = suspect_after;
        self.dead_after = dead_after;
        self
    }

    /// Enables or disables degraded releases on a dead peer.
    pub fn with_degradation(mut self, on: bool) -> DetectorConfig {
        self.degradation = on;
        self
    }

    /// Trips the deadline watchdog after `misses` consecutive end-to-end
    /// misses of one task.
    pub fn with_watchdog(mut self, misses: u32) -> DetectorConfig {
        assert!(misses >= 1, "watchdog threshold must be at least 1");
        self.watchdog_misses = Some(misses);
        self
    }

    /// Arms the adaptive φ-accrual mode (validating `phi` as its own
    /// builders do, since its fields are public).
    pub fn with_phi(mut self, phi: PhiConfig) -> DetectorConfig {
        let (degraded, suspect, dead) = (phi.degraded_phi, phi.suspect_phi, phi.dead_phi);
        let (window, warmup) = (phi.window, phi.min_samples);
        self.phi = Some(
            phi.with_thresholds(degraded, suspect, dead)
                .with_window(window, warmup),
        );
        self
    }

    /// Normalizes the thresholds so the detector state machine is sound
    /// even for configs built by struct literal or whose defaults
    /// saturated (`DetectorConfig::new` multiplies the period by 3 and 6
    /// with saturating arithmetic, so an enormous period used to collapse
    /// `dead_after` onto `suspect_after` and the peer jumped straight to
    /// Dead). Guarantees `0 < suspect_after < dead_after`.
    pub fn normalized(mut self) -> DetectorConfig {
        if !self.suspect_after.is_positive() {
            self.suspect_after = self.period.max(Dur::from_ticks(1));
        }
        if self.dead_after <= self.suspect_after {
            self.dead_after = self
                .suspect_after
                .saturating_add(self.suspect_after.max(Dur::from_ticks(1)));
            if self.dead_after <= self.suspect_after {
                // The add saturated at the top of the tick range: pull the
                // suspicion threshold down instead.
                self.suspect_after = Dur::from_ticks((self.dead_after.ticks() / 2).max(1));
            }
        }
        self
    }
}

/// What an observer processor currently believes about one peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerState {
    /// Heartbeats are fresh.
    Alive,
    /// φ crossed [`PhiConfig::degraded_phi`]: the peer looks slow but
    /// alive. The degraded responses (MPM cadence stretch, watchdog
    /// budget scale) apply; forced releases do not. Only the φ-accrual
    /// mode ever enters this state.
    Degraded,
    /// Silence exceeded [`DetectorConfig::suspect_after`] (or φ crossed
    /// [`PhiConfig::suspect_phi`]).
    Suspect,
    /// Silence exceeded [`DetectorConfig::dead_after`] (or φ crossed
    /// [`PhiConfig::dead_phi`]); degraded releases may begin.
    Dead,
}

/// Detector counters for one run. "False" transitions are judged against
/// the ground-truth crash schedule *at the instant of the transition*: the
/// peer was actually up when the observer declared it suspect/dead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DetectStats {
    /// Heartbeats broadcast (one per up processor per peer per period).
    pub heartbeats_sent: u64,
    /// Heartbeats that reached an up observer.
    pub heartbeats_delivered: u64,
    /// Alive → Suspect transitions.
    pub suspects: u64,
    /// Suspect transitions where the peer was actually up.
    pub false_suspects: u64,
    /// Suspect → Dead transitions.
    pub deads: u64,
    /// Dead transitions where the peer was actually up.
    pub false_deads: u64,
    /// False suspects charged to an open partition: the peer was up but
    /// unreachable across the cut when the verdict landed.
    pub partition_false_suspects: u64,
    /// False deads charged to an open partition.
    pub partition_false_deads: u64,
    /// Suspect/Dead → Alive transitions (a heartbeat got through again).
    pub revivals: u64,
    /// Successor instances released from local information only.
    pub forced_releases: u64,
    /// Late real signals recognized for an already-forced instance and
    /// suppressed.
    pub stale_signals_suppressed: u64,
    /// Deadline-watchdog trips (consecutive-miss threshold crossings).
    pub watchdog_trips: u64,
    /// Alive → Degraded transitions (φ-accrual mode only).
    pub degradeds: u64,
    /// Degraded transitions whose subject really was gray (slowed,
    /// stalled, or behind a degraded link) and up — the adaptive
    /// detector calling a gray failure a gray failure.
    pub gray_hits: u64,
    /// Dead verdicts on a peer that was up but gray — the headline
    /// failure mode of a fixed-timeout detector against a merely-slow
    /// node.
    pub false_dead_gray: u64,
    /// Heartbeats that arrived while a peer was under suspicion but were
    /// held back from reviving it by the demotion hysteresis.
    pub hysteresis_holds: u64,
}

impl DetectStats {
    /// Share of dead declarations that contradicted the ground-truth
    /// crash schedule; `None` when the detector never declared anyone
    /// dead.
    pub fn false_positive_rate(&self) -> Option<f64> {
        if self.deads == 0 {
            None
        } else {
            Some(self.false_deads as f64 / self.deads as f64)
        }
    }
}

/// One graceful-degradation (or detector-transition) event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Degradation {
    /// `observer`'s φ crossed the degraded threshold for `subject`: the
    /// peer looks slow but alive (φ-accrual mode only).
    PeerDegraded {
        /// The processor whose detector transitioned.
        observer: usize,
        /// The slow-looking peer.
        subject: usize,
        /// The peer really was gray (ground truth) at the transition.
        gray_truth: bool,
    },
    /// `observer` stopped hearing `subject` and turned it Suspect.
    PeerSuspect {
        /// The processor whose detector transitioned.
        observer: usize,
        /// The silent peer.
        subject: usize,
        /// The peer was actually up (ground truth) at the transition.
        false_positive: bool,
    },
    /// `observer` declared `subject` dead; degraded releases may begin.
    PeerDead {
        /// The processor whose detector transitioned.
        observer: usize,
        /// The silent peer.
        subject: usize,
        /// The peer was actually up (ground truth) at the transition.
        false_positive: bool,
    },
    /// A heartbeat from `subject` reached `observer` again after
    /// suspicion.
    PeerRevived {
        /// The processor whose detector transitioned.
        observer: usize,
        /// The recovered peer.
        subject: usize,
    },
    /// `job` was released from local information only, without its
    /// predecessor's signal, because `dead_peer` was declared dead.
    ForcedRelease {
        /// The successor instance released.
        job: JobId,
        /// The predecessor's processor, as declared dead.
        dead_peer: usize,
    },
    /// A real (late) signal arrived for an instance that was already
    /// force-released; the payload was suppressed.
    StaleSignal {
        /// The successor instance the late signal targeted.
        job: JobId,
    },
    /// The sender abandoned a signal after its retry budget ran out; the
    /// successor instance is lost.
    SignalAbandoned {
        /// The successor instance the abandoned frame carried.
        job: JobId,
        /// Transmission attempts spent (original + retransmissions).
        attempts: u32,
    },
    /// Task `task` missed `streak` consecutive end-to-end deadlines.
    WatchdogTrip {
        /// The task whose deadline streak tripped the watchdog.
        task: usize,
        /// The consecutive-miss count at the trip.
        streak: u32,
    },
}

/// A [`Degradation`] stamped with its simulation instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DegradationEvent {
    /// When the event fired.
    pub at: Time,
    /// What happened.
    pub kind: Degradation,
}

/// Per-pair φ-accrual state: a ring of heartbeat inter-arrival times
/// plus the hysteresis streak.
#[derive(Clone, Debug)]
struct PhiState {
    /// Inter-arrival ring (ticks), capacity = [`PhiConfig::window`].
    intervals: Vec<i64>,
    pos: usize,
    len: usize,
    sum: i64,
    /// When the last heartbeat landed.
    last_heard: Option<Time>,
    /// Consecutive on-time heartbeats since suspicion began.
    streak: u32,
}

impl PhiState {
    fn new() -> PhiState {
        PhiState {
            intervals: Vec::new(),
            pos: 0,
            len: 0,
            sum: 0,
            last_heard: None,
            streak: 0,
        }
    }

    fn push(&mut self, interval: i64, window: usize) {
        if self.intervals.len() < window {
            self.intervals.push(interval);
            self.sum += interval;
            self.len += 1;
            return;
        }
        self.sum += interval - self.intervals[self.pos];
        self.intervals[self.pos] = interval;
        self.pos = (self.pos + 1) % window;
    }

    /// Observed mean inter-arrival in ticks. During warmup (fewer than
    /// `min_samples` intervals recorded) the stand-in is
    /// `max(configured period, observed mean so far)` rather than the
    /// configured period alone.
    ///
    /// Taking the max matters for a peer that is *already* slow at first
    /// contact: with the bare period as the stand-in, a 16× slowdown
    /// walked the pair Alive → Degraded → Suspect → Dead against
    /// deadlines scaled to the nominal cadence before three samples ever
    /// arrived — every one of those verdicts false (the pre-warmup cliff
    /// recorded in `results/gray_grid.csv`). Folding in the observed
    /// inter-arrivals stretches the warmup deadlines as soon as the first
    /// slow gap is seen. The max is one-sided on purpose: a few *fast*
    /// early beats must not shrink the deadline below the configured
    /// cadence, or a nominal peer could be suspected off two lucky
    /// samples.
    fn mean(&self, min_samples: usize, period: Dur) -> f64 {
        let floor = period.ticks().max(1) as f64;
        if self.len < min_samples {
            if self.len == 0 {
                floor
            } else {
                floor.max(self.sum as f64 / self.len as f64)
            }
        } else {
            self.sum as f64 / self.len as f64
        }
    }
}

/// Per-run detector state: one `(observer, subject)` belief matrix, the
/// watchdog streaks, and the handlers of the detector's events.
#[derive(Debug)]
pub(crate) struct DetectState {
    pub(crate) cfg: DetectorConfig,
    num_procs: usize,
    /// The event-queue slot of pair `(0, 0)`'s suspicion deadline; pair
    /// `(o, s)` keys slot `slot_base + o·n + s`.
    slot_base: usize,
    /// Current belief, per `observer × subject`.
    state: Vec<PeerState>,
    /// φ-accrual state per `observer × subject`; empty in fixed mode.
    phi: Vec<PhiState>,
    /// Consecutive measured end-to-end deadline misses per task (the
    /// watchdog).
    miss_streak: Vec<u32>,
    /// Whether the watchdog already tripped for the current miss streak
    /// (one trip per streak even when the budget moves under it: a
    /// degraded-mode budget can shrink back below an ongoing streak).
    watchdog_tripped: Vec<bool>,
    pub(crate) stats: DetectStats,
}

impl DetectState {
    pub(crate) fn new(
        cfg: DetectorConfig,
        num_procs: usize,
        num_tasks: usize,
        slot_base: usize,
    ) -> DetectState {
        let cfg = cfg.normalized();
        let phi = if cfg.phi.is_some() {
            vec![PhiState::new(); num_procs * num_procs]
        } else {
            Vec::new()
        };
        DetectState {
            cfg,
            num_procs,
            slot_base,
            state: vec![PeerState::Alive; num_procs * num_procs],
            phi,
            miss_streak: vec![0; num_tasks],
            watchdog_tripped: vec![false; num_tasks],
            stats: DetectStats::default(),
        }
    }

    fn pair(&self, observer: usize, subject: usize) -> usize {
        observer * self.num_procs + subject
    }

    /// The silence after which the *next* verdict on this pair lands,
    /// measured from the most recent heartbeat. `None` when the pair is
    /// already Dead. In fixed mode this is the `suspect_after` /
    /// `dead_after` cliff; in φ mode it is the threshold-crossing
    /// instant of the next φ level under the pair's current mean.
    pub(crate) fn arm_budget(&self, observer: usize, subject: usize) -> Option<Dur> {
        let slot = self.pair(observer, subject);
        self.budget(slot, self.state[slot])
    }

    /// The residual silence from the verdict that just landed to the
    /// next one (the suspicion timer fires exactly at threshold
    /// instants, so the residue is the difference of consecutive
    /// deadlines). `None` when the pair is Dead.
    pub(crate) fn residue_budget(&self, observer: usize, subject: usize) -> Option<Dur> {
        let slot = self.pair(observer, subject);
        let previous = match self.state[slot] {
            PeerState::Degraded => PeerState::Alive,
            PeerState::Suspect if self.cfg.phi.is_some() => PeerState::Degraded,
            PeerState::Suspect => PeerState::Alive,
            _ => return None,
        };
        let residue = self.budget(slot, self.state[slot])? - self.budget(slot, previous)?;
        Some(residue.max(Dur::from_ticks(1)))
    }

    /// The silence after which a pair in `state` takes its next verdict.
    fn budget(&self, slot: usize, state: PeerState) -> Option<Dur> {
        let Some(phi) = &self.cfg.phi else {
            return match state {
                PeerState::Alive | PeerState::Degraded => Some(self.cfg.suspect_after),
                PeerState::Suspect => Some(self.cfg.dead_after),
                PeerState::Dead => None,
            };
        };
        let threshold = match state {
            PeerState::Alive => phi.degraded_phi,
            PeerState::Degraded => phi.suspect_phi,
            PeerState::Suspect => phi.dead_phi,
            PeerState::Dead => return None,
        };
        let mean = self.phi[slot].mean(phi.min_samples, self.cfg.period);
        Some(phi.deadline(threshold, mean))
    }

    /// A heartbeat from `subject` reached `observer` at `now`: record the
    /// inter-arrival sample (φ mode) and revive the peer if it was under
    /// suspicion — immediately in fixed mode, after
    /// [`PhiConfig::hysteresis`] consecutive on-time beats in φ mode.
    /// Returns whether this was a revival. The caller re-arms the pair's
    /// suspicion deadline from [`DetectState::arm_budget`].
    pub(crate) fn heard(&mut self, observer: usize, subject: usize, now: Time) -> bool {
        let slot = self.pair(observer, subject);
        self.stats.heartbeats_delivered += 1;
        match self.cfg.phi.clone() {
            None => {
                let revived = self.state[slot] != PeerState::Alive;
                if revived {
                    self.stats.revivals += 1;
                    self.state[slot] = PeerState::Alive;
                }
                revived
            }
            Some(phi) => {
                // Judge the arrival against the expectations held *before*
                // it: on-time means it would not itself have pushed φ past
                // the degraded threshold.
                let mean = self.phi[slot].mean(phi.min_samples, self.cfg.period);
                let on_time_bound = phi.deadline(phi.degraded_phi, mean);
                let interval = self.phi[slot].last_heard.map(|last| (now - last).ticks());
                self.phi[slot].last_heard = Some(now);
                if let Some(ticks) = interval {
                    self.phi[slot].push(ticks.max(0), phi.window);
                }
                if self.state[slot] == PeerState::Alive {
                    false
                } else {
                    let on_time = interval.is_none_or(|t| t <= on_time_bound.ticks());
                    if on_time {
                        self.phi[slot].streak += 1;
                    } else {
                        self.phi[slot].streak = 0;
                    }
                    if self.phi[slot].streak >= phi.hysteresis {
                        self.stats.revivals += 1;
                        self.state[slot] = PeerState::Alive;
                        self.phi[slot].streak = 0;
                        true
                    } else {
                        self.stats.hysteresis_holds += 1;
                        false
                    }
                }
            }
        }
    }

    /// Current belief of `observer` about `subject`.
    pub(crate) fn peer_state(&self, observer: usize, subject: usize) -> PeerState {
        self.state[self.pair(observer, subject)]
    }

    /// The pair's suspicion deadline passed: advance the belief one step — Alive → Suspect → Dead on the fixed cliff,
    /// Alive → Degraded → Suspect → Dead under φ-accrual.
    /// `actually_down` / `actually_gray` are the ground truth at this
    /// instant. Returns the transition taken, if any.
    pub(crate) fn advance_suspicion(
        &mut self,
        observer: usize,
        subject: usize,
        actually_down: bool,
        actually_gray: bool,
    ) -> Option<PeerState> {
        let slot = self.pair(observer, subject);
        let adaptive = self.cfg.phi.is_some();
        let next = match self.state[slot] {
            PeerState::Alive if adaptive => PeerState::Degraded,
            PeerState::Alive | PeerState::Degraded => PeerState::Suspect,
            PeerState::Suspect => PeerState::Dead,
            PeerState::Dead => return None,
        };
        if self.state[slot] == PeerState::Alive && adaptive {
            self.phi[slot].streak = 0;
        }
        self.state[slot] = next;
        match next {
            PeerState::Degraded => {
                self.stats.degradeds += 1;
                if actually_gray && !actually_down {
                    self.stats.gray_hits += 1;
                }
            }
            PeerState::Suspect => {
                self.stats.suspects += 1;
                if !actually_down {
                    self.stats.false_suspects += 1;
                }
            }
            PeerState::Dead => {
                self.stats.deads += 1;
                if !actually_down {
                    self.stats.false_deads += 1;
                    if actually_gray {
                        self.stats.false_dead_gray += 1;
                    }
                }
            }
            PeerState::Alive => unreachable!("transitions never target Alive"),
        }
        Some(next)
    }

    /// `true` while any ordered pair is currently Degraded (the
    /// slowdown-aware watchdog budget applies system-wide).
    pub(crate) fn any_degraded(&self) -> bool {
        self.state.contains(&PeerState::Degraded)
    }

    /// The effective consecutive-miss watchdog budget: the configured
    /// threshold, scaled by [`WATCHDOG_SCALE_PERMILLE`] while any peer
    /// pair is Degraded under φ-accrual.
    pub(crate) fn watchdog_budget(&self) -> Option<u32> {
        let base = self.cfg.watchdog_misses?;
        if self.cfg.phi.is_some() && self.any_degraded() {
            let scaled = (u64::from(base) * WATCHDOG_SCALE_PERMILLE) / 1000;
            Some((scaled as u32).max(base))
        } else {
            Some(base)
        }
    }

    /// Counts one measured end-to-end verdict of `task` toward the
    /// consecutive-miss watchdog; returns the streak when it trips. Trips
    /// once per streak: the budget is slowdown-aware (see
    /// [`DetectState::watchdog_budget`]), and a moving budget can let the
    /// streak skip over a threshold that shrinks back — hence `>=` plus a
    /// one-trip latch (equivalent to `==` when the budget is static).
    pub(crate) fn note_verdict(&mut self, task: usize, missed: bool) -> Option<u32> {
        let threshold = self.watchdog_budget()?;
        if !missed {
            self.miss_streak[task] = 0;
            self.watchdog_tripped[task] = false;
            return None;
        }
        self.miss_streak[task] += 1;
        if self.miss_streak[task] < threshold || self.watchdog_tripped[task] {
            return None;
        }
        self.watchdog_tripped[task] = true;
        self.stats.watchdog_trips += 1;
        Some(self.miss_streak[task])
    }

    /// Census of current beliefs over all ordered `observer × subject`
    /// pairs (self-pairs excluded): `(alive, degraded, suspect, dead)`.
    /// Read-only; the telemetry layer samples it at end-of-instant.
    pub(crate) fn census(&self) -> (u32, u32, u32, u32) {
        let mut counts = [0u32; 4];
        for &belief in &self.state {
            counts[belief as usize] += 1;
        }
        // Self-pairs never leave Alive.
        let [alive, degraded, suspect, dead] = counts;
        (alive - self.num_procs as u32, degraded, suspect, dead)
    }

    /// Arms (or moves) the pair's one suspicion deadline to `at`, or
    /// clears it (`None`: a pair that stays Dead arms nothing).
    fn set_suspicion<O: Observer>(
        &self,
        w: &mut Wire<'_, O>,
        observer: usize,
        subject: usize,
        at: Option<Time>,
    ) {
        let slot = self.slot_base + self.pair(observer, subject);
        let (observer, subject) = (ProcessorId::new(observer), ProcessorId::new(subject));
        match at {
            Some(at) => w
                .queue
                .arm(slot, at, EventKind::SuspectTimer { observer, subject }),
            None => w.queue.disarm(slot),
        }
    }

    /// Seeds the detector: one heartbeat broadcast chain per processor,
    /// plus an initial suspicion deadline per ordered pair so a processor
    /// that is down from t = 0 still gets detected (on healthy pairs the
    /// first heartbeat lands well before the deadline and re-arms it). In
    /// φ mode the first budget comes from the warmup prior; in fixed mode
    /// it is exactly `suspect_after`.
    pub(crate) fn start<O: Observer>(&self, w: &mut Wire<'_, O>) {
        let n = self.num_procs;
        for proc in (0..n).map(ProcessorId::new) {
            w.queue.push(
                Time::ZERO + self.cfg.period,
                EventKind::HeartbeatSend { proc },
            );
        }
        for o in 0..n {
            for s in (0..n).filter(|&s| s != o) {
                let deadline = self.arm_budget(o, s).map(|budget| Time::ZERO + budget);
                self.set_suspicion(w, o, s, deadline);
            }
        }
    }

    /// A processor's periodic heartbeat broadcast. The chain ticks whether
    /// the node is up or not — a crashed node simply stays silent until it
    /// recovers. Every peer the beat reaches in this very instant shares
    /// one delivery event; a gray-delayed beat gets its own.
    pub(crate) fn on_heartbeat_send<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        proc: ProcessorId,
    ) {
        let p = proc.index();
        let (stalled, rate) = (w.procs[p].is_stalled(), w.procs[p].rate());
        // A stalled node's heartbeat daemon is as frozen as everything
        // else on it: the beat is skipped (this is exactly what makes a
        // stall look like a death from outside), but the chain keeps its
        // cadence so beats resume on time after the window.
        if !w.procs[p].is_down() && !stalled {
            let mut instant = PeerSet::default();
            for q in (0..self.num_procs).filter(|&q| q != p) {
                // A broadcast to the far side of an open cut dies at the
                // boundary — the peer's detector starves honestly.
                if w.faults.cut(p, q) {
                    w.faults.stats.severed_heartbeats += 1;
                    continue;
                }
                self.stats.heartbeats_sent += 1;
                // A degraded wire taxes the beat: extra latency and
                // jitter stretch the observer's inter-arrival history, a
                // drop starves it outright. Sent-counting stays above so
                // drop accounting is visible in the send/deliver gap.
                let peer = ProcessorId::new(q);
                match w.faults.gray_penalty(p, q, GrayFamily::Heartbeat) {
                    Some(extra) if extra.is_zero() => instant.insert(peer),
                    Some(extra) => {
                        let beat = EventKind::HeartbeatDeliver {
                            from: proc,
                            to: PeerSet::single(peer),
                        };
                        w.queue.push(w.now + extra, beat);
                    }
                    None => {}
                }
            }
            // One event for every peer the beat reaches in this instant:
            // per-peer events pushed in this loop would pop back to back,
            // in this order, with nothing between them (DESIGN.md §11).
            if !instant.is_empty() {
                let beat = EventKind::HeartbeatDeliver {
                    from: proc,
                    to: instant,
                };
                w.queue.push(w.now, beat);
            }
        }
        // A slowed node's daemon breathes at the stretched rate — the
        // honest gray signature the φ detector is built to absorb.
        let period = self.cfg.period;
        let next = if stalled || rate == 1 {
            w.now + period
        } else {
            w.now + Dur::from_ticks(period.ticks().saturating_mul(rate as i64))
        };
        w.push_by_horizon(next, EventKind::HeartbeatSend { proc });
    }

    /// A heartbeat from `from` lands on each observer in `to`, in
    /// ascending order: re-arm the pair's suspicion deadline from now (or
    /// clear it, for a pair that stays Dead). A detector on a crashed node
    /// is frozen — it resumes with its pre-crash beliefs at recovery.
    pub(crate) fn on_heartbeat_deliver<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        from: ProcessorId,
        to: PeerSet,
    ) {
        let from = from.index();
        for to in to.iter().map(ProcessorId::index) {
            if w.procs[to].is_down() {
                continue;
            }
            // In-flight heartbeats caught by a cut opening mid-hop die here,
            // before the observer hears a cross-partition delivery.
            if w.faults.cut(from, to) {
                w.faults.stats.severed_heartbeats += 1;
                continue;
            }
            w.note(Note::Heartbeat { from, to });
            if self.heard(to, from, w.now) {
                w.degrade(Degradation::PeerRevived {
                    observer: to,
                    subject: from,
                });
            }
            // Fixed mode: the `suspect_after` cliff. φ mode: the budget to
            // the next escalation threshold, scaled by the pair's observed
            // inter-arrival mean — a slowed peer earns longer rope.
            let deadline = self.arm_budget(to, from).map(|budget| w.now + budget);
            self.set_suspicion(w, to, from, deadline);
        }
    }

    /// A pair's suspicion deadline passed with no heartbeat since it was
    /// armed: walk the observer's belief one step (Alive → Suspect →
    /// Dead), judging it against the ground-truth crash schedule, and
    /// start degraded releases on a death.
    pub(crate) fn on_suspect_timer<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        transport: Option<&TransportState>,
        observer: ProcessorId,
        subject: ProcessorId,
    ) {
        let (observer, subject) = (observer.index(), subject.index());
        if w.procs[observer].is_down() {
            return; // frozen detector
        }
        debug_assert_ne!(
            self.peer_state(observer, subject),
            PeerState::Dead,
            "a dead pair arms no suspicion deadline"
        );
        let actually_down = w.procs[subject].is_down();
        // Gray ground truth: the subject is not down but *is* impaired —
        // stalled, slowed, or behind a degraded wire toward this
        // observer. Verdicts are scored against both truths.
        let actually_gray = w.faults.actually_gray(observer, &w.procs[subject]);
        // A verdict on a live peer across an open cut is a false positive
        // the partition *caused*: counted apart from latency-induced ones.
        let partitioned = u64::from(!actually_down && w.faults.cut(observer, subject));
        let false_positive = !actually_down;
        match self.advance_suspicion(observer, subject, actually_down, actually_gray) {
            Some(PeerState::Degraded) => {
                // The φ detector's intermediate verdict: suspicious but
                // not condemned. Protocol responses soften (MPM cadence
                // stretch, watchdog budget scaling) instead of
                // force-releasing.
                w.degrade(Degradation::PeerDegraded {
                    observer,
                    subject,
                    gray_truth: actually_gray,
                });
            }
            Some(PeerState::Suspect) => {
                self.stats.partition_false_suspects += partitioned;
                w.degrade(Degradation::PeerSuspect {
                    observer,
                    subject,
                    false_positive,
                });
            }
            Some(PeerState::Dead) => {
                self.stats.partition_false_deads += partitioned;
                w.degrade(Degradation::PeerDead {
                    observer,
                    subject,
                    false_positive,
                });
                self.start_degradation(w, transport, observer, subject);
                return;
            }
            _ => return,
        }
        // Fixed mode: the `dead_after - suspect_after` residue. φ mode:
        // the gap to the next threshold on the pair's observed
        // inter-arrival scale.
        let deadline = self.residue_budget(observer, subject).map(|r| w.now + r);
        self.set_suspicion(w, observer, subject, deadline);
    }

    /// `observer` recovered: its detector resumes with its pre-crash
    /// beliefs, so peers it still holds dead resume degraded releases right
    /// away (the old chains died while the node was down).
    pub(crate) fn resume<O: Observer>(
        &self,
        w: &mut Wire<'_, O>,
        transport: Option<&TransportState>,
        observer: usize,
    ) {
        for s in (0..self.num_procs).filter(|&s| s != observer) {
            if self.peer_state(observer, s) == PeerState::Dead {
                self.start_degradation(w, transport, observer, s);
            }
        }
    }

    /// The detector on `observer` declared `dead` dead: begin degraded
    /// releases for every successor hosted on `observer` whose predecessor
    /// lives on `dead`. RG and MPM only — DS has no local release rule to
    /// fall back on, and PM never waited for the signal to begin with.
    /// MPM re-arms its cadence from the last *acked* signal of the
    /// successor, extrapolating one period per instance; RG releases now
    /// and lets the guard machinery enforce the period spacing `g`.
    fn start_degradation<O: Observer>(
        &self,
        w: &mut Wire<'_, O>,
        transport: Option<&TransportState>,
        observer: usize,
        dead: usize,
    ) {
        let mpm = w.cfg.protocol == Protocol::ModifiedPhaseModification;
        if !self.cfg.degradation || !(mpm || w.cfg.protocol == Protocol::ReleaseGuard) {
            return;
        }
        let set = w.set;
        for task in set.tasks() {
            let (subs, period) = (task.subtasks(), task.period());
            for i in 1..subs.len() {
                if subs[i].processor().index() != observer
                    || subs[i - 1].processor().index() != dead
                {
                    continue;
                }
                let subtask = subs[i].id();
                let fi = w.flat.of(subtask);
                let instance = w.next_unreleased(fi);
                let at = match transport.and_then(|t| t.last_acked(fi)) {
                    Some((sent, am)) if mpm && instance > am => sent
                        .saturating_add(period.saturating_mul((instance - am) as i64))
                        .max(w.now),
                    _ => w.now,
                };
                w.push_by_horizon(at, EventKind::DegradedRelease { subtask, instance });
            }
        }
    }

    /// The re-arm cadence of a degraded-release chain. Under MPM with the
    /// φ detector, any Degraded peer stretches the march by
    /// [`MPM_STRETCH_PERMILLE`] — force-released instances back off while
    /// a peer might merely be slow, trading a little lateness against
    /// double-release pressure when the real signal catches up. RG keeps
    /// the true period: its guard machinery owns the spacing.
    fn cadence(&self, protocol: Protocol, period: Dur) -> Dur {
        if protocol != Protocol::ModifiedPhaseModification
            || self.cfg.phi.is_none()
            || !self.any_degraded()
        {
            return period;
        }
        let t = period.ticks();
        let stretched = t.saturating_add(t.saturating_mul(MPM_STRETCH_PERMILLE) / 1000);
        Dur::from_ticks(stretched.max(1))
    }

    /// A degraded release of `subtask`'s `instance` fires: recheck
    /// liveness and release progress (the event is lazily invalidated),
    /// then force the instance from local information and march the chain
    /// one period forward. `deferred` says whether RG's guard already
    /// holds the instance back.
    pub(crate) fn march<O: Observer>(
        &mut self,
        w: &mut Wire<'_, O>,
        subtask: SubtaskId,
        instance: u64,
        deferred: bool,
    ) -> Option<Effect> {
        let set = w.set;
        let proc = set.subtask(subtask).processor().index();
        let task = set.task(subtask.task());
        let pred_proc = task.subtasks()[subtask.index() - 1].processor().index();
        // The chain dies silently while its own node is down (recovery
        // restarts it) and on revival (real signals flow again).
        if w.procs[proc].is_down() || self.peer_state(proc, pred_proc) != PeerState::Dead {
            return None;
        }
        let fi = w.flat.of(subtask);
        let head = w.next_unreleased(fi);
        let next_at = w.now + self.cadence(w.cfg.protocol, task.period());
        // A late real signal (or recovery) may have moved the head:
        // re-aim the chain at the current head one period out. Or the real
        // signal arrived before the death verdict and sits deferred behind
        // rule 1 — the guard will release it; forcing it too would
        // double-queue the instance. Check back in a period.
        if head != instance || deferred {
            let retry = EventKind::DegradedRelease {
                subtask,
                instance: head,
            };
            w.push_by_horizon(next_at, retry);
            return None;
        }
        let job = JobId::new(subtask, instance);
        let fresh = w.faults.force(job);
        if fresh {
            self.stats.forced_releases += 1;
            // Logged before the release so the precedence checks (engine
            // and invariant observer) see the waiver.
            w.degrade(Degradation::ForcedRelease {
                job,
                dead_peer: pred_proc,
            });
        }
        let next = EventKind::DegradedRelease {
            subtask,
            instance: instance + 1,
        };
        Some(Effect::March {
            release: fresh.then_some(job),
            next: (next_at, next),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::task::{SubtaskId, TaskId};

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn defaults_scale_with_the_period() {
        let cfg = DetectorConfig::new(d(10));
        assert_eq!(cfg.suspect_after, d(30));
        assert_eq!(cfg.dead_after, d(60));
        assert_eq!((cfg.dead_after - cfg.suspect_after), d(30));
        assert!(cfg.degradation);
        assert!(cfg.watchdog_misses.is_none());
    }

    #[test]
    fn silence_walks_alive_suspect_dead_with_ground_truth_accounting() {
        let cfg = DetectorConfig::new(d(10));
        let mut st = DetectState::new(cfg, 3, 1, 0);
        assert_eq!(st.peer_state(0, 1), PeerState::Alive);
        // False suspicion: peer actually up.
        assert_eq!(
            st.advance_suspicion(0, 1, false, false),
            Some(PeerState::Suspect)
        );
        // Real death: peer actually down by now.
        assert_eq!(
            st.advance_suspicion(0, 1, true, false),
            Some(PeerState::Dead)
        );
        // Further firings are inert.
        assert_eq!(st.advance_suspicion(0, 1, true, false), None);
        assert_eq!(st.stats.suspects, 1);
        assert_eq!(st.stats.false_suspects, 1);
        assert_eq!(st.stats.deads, 1);
        assert_eq!(st.stats.false_deads, 0);
        assert_eq!(st.stats.false_positive_rate(), Some(0.0));
        assert_eq!(st.peer_state(0, 1), PeerState::Dead);
        assert_eq!(st.peer_state(1, 0), PeerState::Alive);
    }

    #[test]
    fn heartbeats_revive_a_dead_peer() {
        let cfg = DetectorConfig::new(d(10));
        let mut st = DetectState::new(cfg, 2, 1, 0);
        assert!(!st.heard(0, 1, Time::from_ticks(10)));
        st.advance_suspicion(0, 1, true, false);
        st.advance_suspicion(0, 1, true, false);
        assert_eq!(st.peer_state(0, 1), PeerState::Dead);
        assert_eq!(st.arm_budget(0, 1), None, "a dead pair arms nothing");
        assert!(st.heard(0, 1, Time::from_ticks(80)));
        assert_eq!(
            st.arm_budget(0, 1),
            Some(d(30)),
            "revived: the suspect cliff again"
        );
        assert_eq!(st.peer_state(0, 1), PeerState::Alive);
        assert_eq!(st.stats.revivals, 1);
    }

    #[test]
    fn degradation_events_compare_by_value() {
        let job = JobId::new(SubtaskId::new(TaskId::new(0), 1), 2);
        let a = DegradationEvent {
            at: Time::from_ticks(5),
            kind: Degradation::ForcedRelease { job, dead_peer: 1 },
        };
        assert_eq!(a, a);
        assert_ne!(
            a,
            DegradationEvent {
                at: Time::from_ticks(5),
                kind: Degradation::StaleSignal { job },
            }
        );
    }

    #[test]
    #[should_panic(expected = "suspect_after")]
    fn thresholds_must_be_ordered() {
        let _ = DetectorConfig::new(d(10)).with_thresholds(d(20), d(20));
    }

    #[test]
    fn saturated_default_thresholds_are_normalized() {
        // Regression: a period near the top of the tick range saturates
        // both `saturating_mul(3)` and `saturating_mul(6)`, collapsing
        // `dead_after` onto `suspect_after` — `dead_after - suspect_after` was
        // zero and a silent peer jumped straight from Suspect to Dead at
        // the same instant.
        let cfg = DetectorConfig::new(Dur::from_ticks(i64::MAX / 4)).normalized();
        assert!(
            cfg.dead_after > cfg.suspect_after,
            "normalization must restore the ordering"
        );
        assert!((cfg.dead_after - cfg.suspect_after).is_positive());
    }

    #[test]
    fn literal_constructed_thresholds_are_normalized_at_state_build() {
        // Public fields allow configs that bypass `with_thresholds`; the
        // state machine normalizes at construction instead of running
        // with a zero Suspect->Dead residue.
        let cfg = DetectorConfig {
            period: d(10),
            suspect_after: d(30),
            dead_after: d(20), // out of order on purpose
            degradation: true,
            watchdog_misses: None,
            phi: None,
        };
        let st = DetectState::new(cfg, 2, 1, 0);
        assert!(st.cfg.dead_after > st.cfg.suspect_after);
        assert!((st.cfg.dead_after - st.cfg.suspect_after).is_positive());
        assert_eq!(st.arm_budget(0, 1), Some(d(30)), "suspect cliff intact");
    }

    fn phi_cfg() -> DetectorConfig {
        DetectorConfig::new(d(10)).with_phi(PhiConfig::new().with_window(8, 3).with_hysteresis(2))
    }

    #[test]
    fn phi_suspicion_is_monotone_in_silence() {
        // The three threshold-crossing instants must be strictly ordered
        // for any mean: longer silence, higher suspicion level.
        let st = DetectState::new(phi_cfg(), 2, 1, 0);
        let degraded = st.arm_budget(0, 1).unwrap();
        let mut st2 = DetectState::new(phi_cfg(), 2, 1, 0);
        st2.advance_suspicion(0, 1, false, false); // -> Degraded
        let suspect_residue = st2.residue_budget(0, 1).unwrap();
        st2.advance_suspicion(0, 1, false, false); // -> Suspect
        let dead_residue = st2.residue_budget(0, 1).unwrap();
        assert!(degraded.is_positive());
        assert!(suspect_residue.is_positive());
        assert!(dead_residue.is_positive());
        // Deadlines accumulate: d(degraded) < d(suspect) < d(dead).
        let phi = PhiConfig::new();
        let mean = 10.0;
        assert!(phi.deadline(phi.degraded_phi, mean) < phi.deadline(phi.suspect_phi, mean));
        assert!(phi.deadline(phi.suspect_phi, mean) < phi.deadline(phi.dead_phi, mean));
    }

    #[test]
    fn phi_deadlines_stretch_with_the_observed_mean() {
        // A slowed peer doubles its inter-arrival mean; once past warmup
        // the degraded deadline doubles with it (±1 for ceiling).
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        let warm = st.arm_budget(0, 1).unwrap();
        // Feed 4 nominal beats (period 10), then check the deadline is
        // unchanged from warmup (mean == period).
        for k in 0..5 {
            st.heard(0, 1, Time::from_ticks(10 * (k + 1)));
        }
        let nominal = st.arm_budget(0, 1).unwrap();
        assert_eq!(warm, nominal, "nominal beats keep the warmup deadline");
        // Now feed slow beats at period 20 until the window is full of
        // them; the deadline must roughly double.
        let mut now = 50;
        for _ in 0..8 {
            now += 20;
            st.heard(0, 1, Time::from_ticks(now));
        }
        let slowed = st.arm_budget(0, 1).unwrap();
        assert!(
            slowed.ticks() >= nominal.ticks() * 2 - 2,
            "deadline must stretch with the mean: {} vs {}",
            slowed.ticks(),
            nominal.ticks()
        );
    }

    #[test]
    fn phi_window_warmup_stand_in_is_one_sided() {
        // Below min_samples the stand-in is max(period, observed mean):
        // *fast* early beats must not shrink the deadline below the
        // configured cadence…
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        let warm = st.arm_budget(0, 1).unwrap();
        st.heard(0, 1, Time::from_ticks(5));
        st.heard(0, 1, Time::from_ticks(7)); // interval 2 < period 10
        assert_eq!(
            st.arm_budget(0, 1).unwrap(),
            warm,
            "fast early beats must not tighten the warmup deadline"
        );
        // …while a *slow* first interval stretches it immediately.
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        st.heard(0, 1, Time::from_ticks(5));
        st.heard(0, 1, Time::from_ticks(500)); // interval 495
        assert!(
            st.arm_budget(0, 1).unwrap() > warm,
            "a slow first interval must stretch the warmup deadline"
        );
    }

    /// Replay the engine's suspicion loop across one heartbeat gap of
    /// `gap` ticks: the first timer arms at `arm_budget` after the last
    /// beat, and each transition re-arms at `residue_budget`, exactly as
    /// `on_suspect_timer` does.
    fn walk_gap(st: &mut DetectState, gap: i64) {
        let Some(budget) = st.arm_budget(0, 1) else {
            return;
        };
        let mut silence = budget.ticks();
        while silence <= gap {
            st.advance_suspicion(0, 1, false, true);
            match st.residue_budget(0, 1) {
                Some(residue) => silence += residue.ticks(),
                None => break,
            }
        }
    }

    #[test]
    fn phi_pre_warmup_slow_peer_is_not_false_deaded() {
        // Regression for the warmup cliff: a peer that is *already* 16x
        // slow at first contact. With the configured period standing in
        // unconditionally during warmup, every threshold deadline stayed
        // scaled to the nominal cadence until 3 samples arrived, so each
        // slow gap walked the pair Degraded -> Suspect -> Dead (total
        // silence to Dead ~= 4 * 10 * ln10 ~= 93 ticks << the 160-tick
        // gap). With the one-sided stand-in, the *first* observed slow
        // interval re-centers the deadlines and later gaps never reach
        // Dead.
        let slow = 160; // 16x the configured period of 10
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        st.heard(0, 1, Time::from_ticks(0));
        st.heard(0, 1, Time::from_ticks(slow)); // first slow interval recorded
        assert_eq!(st.stats.false_deads, 0);
        // Still in warmup: only 1 of min_samples = 3 intervals recorded.
        // Walk the remaining pre-warmup gaps; the stretched stand-in
        // (mean 160 -> dead threshold ~= 1474 ticks) must keep every
        // verdict short of Dead, where the bare period condemned the
        // pair inside each gap.
        for k in 2..4 {
            walk_gap(&mut st, slow);
            st.heard(0, 1, Time::from_ticks(slow * k));
        }
        assert_eq!(
            st.stats.false_deads, 0,
            "a pre-warmup slow peer must not be false-deaded"
        );
        assert_ne!(st.peer_state(0, 1), PeerState::Dead);
    }

    #[test]
    fn phi_hysteresis_requires_consecutive_on_time_beats() {
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        // Establish a nominal history, then degrade the pair.
        for k in 0..4 {
            st.heard(0, 1, Time::from_ticks(10 * (k + 1)));
        }
        st.advance_suspicion(0, 1, false, true);
        assert_eq!(st.peer_state(0, 1), PeerState::Degraded);
        // First on-time beat: held by hysteresis (streak 1 < 2).
        let revived = st.heard(0, 1, Time::from_ticks(50));
        assert!(!revived, "one on-time beat must not revive yet");
        assert_eq!(st.stats.hysteresis_holds, 1);
        assert_eq!(st.peer_state(0, 1), PeerState::Degraded);
        // Second consecutive on-time beat: revived.
        let revived = st.heard(0, 1, Time::from_ticks(60));
        assert!(revived, "two consecutive on-time beats revive");
        assert_eq!(st.peer_state(0, 1), PeerState::Alive);
        assert_eq!(st.stats.revivals, 1);
    }

    #[test]
    fn phi_late_beat_resets_the_hysteresis_streak() {
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        for k in 0..4 {
            st.heard(0, 1, Time::from_ticks(10 * (k + 1)));
        }
        st.advance_suspicion(0, 1, false, true);
        let revived = st.heard(0, 1, Time::from_ticks(50));
        assert!(!revived);
        // A very late beat resets the streak; the next on-time beat is
        // streak 1 again, still held.
        let revived = st.heard(0, 1, Time::from_ticks(400));
        assert!(!revived, "late beat must not count toward demotion");
        let revived = st.heard(0, 1, Time::from_ticks(410));
        assert!(!revived, "streak restarted after the late beat");
        assert_eq!(st.peer_state(0, 1), PeerState::Degraded);
    }

    #[test]
    fn phi_walk_counts_gray_ground_truth() {
        let mut st = DetectState::new(phi_cfg(), 2, 1, 0);
        // Degraded on a genuinely gray peer: a gray hit.
        assert_eq!(
            st.advance_suspicion(0, 1, false, true),
            Some(PeerState::Degraded)
        );
        assert_eq!(st.stats.degradeds, 1);
        assert_eq!(st.stats.gray_hits, 1);
        // Walk to Dead while the peer is up-but-gray: headline metric.
        st.advance_suspicion(0, 1, false, true);
        st.advance_suspicion(0, 1, false, true);
        assert_eq!(st.peer_state(0, 1), PeerState::Dead);
        assert_eq!(st.stats.false_deads, 1);
        assert_eq!(st.stats.false_dead_gray, 1);
        let (alive, degraded, suspect, dead) = st.census();
        assert_eq!((alive, degraded, suspect, dead), (1, 0, 0, 1));
    }

    #[test]
    fn watchdog_budget_scales_while_any_pair_is_degraded() {
        let cfg = DetectorConfig::new(d(10))
            .with_watchdog(3)
            .with_phi(PhiConfig::new());
        let mut st = DetectState::new(cfg, 2, 1, 0);
        assert_eq!(st.watchdog_budget(), Some(3));
        st.advance_suspicion(0, 1, false, true); // -> Degraded
        assert_eq!(st.watchdog_budget(), Some(6), "2x budget while degraded");
        st.advance_suspicion(0, 1, false, true); // -> Suspect
        assert_eq!(
            st.watchdog_budget(),
            Some(3),
            "back to base once past Degraded"
        );
    }
}
