//! Processor crash/recovery fault domain (fail-stop model).
//!
//! The paper's protocols assume processors never fail. This subsystem
//! layers a *fail-stop* node-failure model on top of the nonideal
//! conditions of [`crate::nonideal`]:
//!
//! * **Crash** — the processor halts instantly. Every in-flight job
//!   (running or ready) is killed along with its pending milestone,
//!   pending local timers (MPM completion timers, RG guard expiries) die
//!   with it, and the node stops accepting work.
//! * **Recovery** — after a configurable restart delay the node rejoins.
//!   Protocol release state is reconciled from what a restarted node can
//!   actually know (see [`per-protocol recovery`](#per-protocol-recovery)),
//!   and the backlog of work that arrived during the outage is resolved
//!   under an explicit [`OverloadPolicy`].
//!
//! # Per-protocol recovery
//!
//! Each reconciliation rule is justified by the protocol's own release
//! rule — a restarted node must not manufacture state it could not have:
//!
//! * **RG** — the guard is re-initialized to the recovery instant `now`.
//!   This is exactly rule 2's idle-point reasoning: a freshly restarted
//!   processor holds no released-but-incomplete instance of any of its
//!   subtasks, so the idle point that rule 2 would exploit has just
//!   occurred; separation from all *future* releases is re-established by
//!   rule 1 from the first post-recovery release on.
//! * **MPM** — completion timers are re-armed only from the predecessor's
//!   signals: a timer that was pending at the crash died with the node,
//!   and because MPM's timer *is* the successor's only release trigger,
//!   that successor instance is lost (counted, never silently released).
//!   Timers armed after recovery behave normally.
//! * **PM** — release phases are a pure function of the local clock
//!   (`phase + m·period`), so the node re-derives its timed releases from
//!   the first instance whose release time is at or after `now`. Instances
//!   whose release times fell inside the outage are lost by that same
//!   derivation, not by an ad-hoc rule.
//! * **DS** — stateless: releases follow completions, so recovery needs no
//!   reconciliation beyond the backlog policy.
//!
//! # In the engine
//!
//! The engine owns one fault domain in every run; with no
//! [`FaultConfig`] it carries the empty schedule, which fires nothing.
//! The domain resolves the schedule once, lists every window edge in
//! firing order, and keeps only the next edge in the event queue: one
//! keyed slot, re-armed as each edge pops. Whether a processor is down,
//! stalled or slowed is held by the processor itself, not here, and the
//! release state the rules above reconcile (RG guards, MPM's armed
//! timers, PM's next firings) by the engine's protocol controller.
//!
//! The gray edges (partition start, slowdown, stall and link-degradation
//! edges) touch no protocol state, so their one handler lives here and
//! takes the engine's `Wire`. Crash, recovery and the partition heal
//! stay in the engine: they release, cancel or re-signal jobs.
//!
//! # Accounting
//!
//! A killed or never-released instance is *cancelled*; cancellation
//! propagates down the chain exactly as far as the protocol's release rule
//! stops propagating releases (DS/RG: always; MPM: only if the dead job
//! never armed its timer; PM: never — the clock releases successors and
//! the honest precedence violations are recorded). A chain whose tail is
//! cancelled counts as **lost** in [`crate::metrics::TaskStats::lost`] and
//! resolves the instance for the stop criterion, so runs terminate under
//! arbitrary fault schedules.
//!
//! This module only injects faults. Whether a faulted run stays a legal
//! schedule and keeps the protocol invariants is judged online by
//! [`crate::check::InvariantObserver`].
//!
//! ```
//! use rtsync_core::examples::example2;
//! use rtsync_core::protocol::Protocol;
//! use rtsync_core::time::Dur;
//! use rtsync_sim::engine::{simulate, SimConfig};
//! use rtsync_sim::faults::FaultConfig;
//!
//! // Example 2 under random crashes (mean uptime 40 ticks, 5-tick
//! // restarts): the run still terminates, every instance is either
//! // completed or accounted lost.
//! let cfg = SimConfig::new(Protocol::ReleaseGuard)
//!     .with_instances(40)
//!     .with_faults(FaultConfig::random(
//!         Dur::from_ticks(40),
//!         Dur::from_ticks(5),
//!         7,
//!     ));
//! let out = simulate(&example2(), &cfg)?;
//! assert!(out.fault_stats.crashes > 0);
//! # Ok::<(), rtsync_sim::engine::SimulateError>(())
//! ```

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsync_core::task::{ProcessorId, TaskSet};
use rtsync_core::time::{Dur, Time};

use crate::event::{EventKind, EventQueue};
use crate::job::JobId;
use crate::observe::{Note, Observer};
use crate::processor::Processor;
use crate::wire::Wire;

/// What a recovered processor does with the backlog of work (source
/// releases and predecessor signals) that arrived while it was down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Release everything that queued up, oldest first. Maximizes
    /// completions at the cost of a deadline-miss burst and transient
    /// overload right after recovery.
    ReleaseAll,
    /// Drop (cancel) backlog items whose end-to-end deadline has already
    /// passed at the recovery instant — they are guaranteed misses — and
    /// release the rest. Dropped instances count as lost.
    DropStale,
    /// Drop every backlog item whose period window has closed (arrival
    /// plus one period is at or before the recovery instant), keeping only
    /// current work. The most aggressive shed: trades completions for the
    /// fastest return to steady state.
    SkipToCurrentPeriod,
}

impl OverloadPolicy {
    /// All policies, in declaration order.
    pub const ALL: [OverloadPolicy; 3] = [
        OverloadPolicy::ReleaseAll,
        OverloadPolicy::DropStale,
        OverloadPolicy::SkipToCurrentPeriod,
    ];

    /// Short machine-readable tag (used in CSV and report output).
    pub fn tag(&self) -> &'static str {
        match self {
            OverloadPolicy::ReleaseAll => "release_all",
            OverloadPolicy::DropStale => "drop_stale",
            OverloadPolicy::SkipToCurrentPeriod => "skip_to_current",
        }
    }
}

impl fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One outage of one processor: fail-stop at `at`, rejoin at
/// `at + restart_delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crash instant.
    pub at: Time,
    /// Downtime before the node rejoins. `Dur::ZERO` is a same-instant
    /// reboot: in-flight work is still killed.
    pub restart_delay: Dur,
}

impl CrashWindow {
    /// The recovery instant.
    pub fn recovers_at(&self) -> Time {
        self.at.saturating_add(self.restart_delay)
    }
}

/// When processors crash.
#[derive(Clone, Debug, PartialEq)]
pub enum CrashSchedule {
    /// Explicit per-processor outage lists (outer index = processor).
    /// Windows are sorted and de-overlapped during resolution.
    Explicit(Vec<Vec<CrashWindow>>),
    /// Seeded random schedule: per processor, exponentially distributed
    /// uptime between outages with the given mean, each outage lasting
    /// `restart_delay`. Deterministic for a given seed and horizon.
    Random {
        /// Mean up-time between consecutive crashes of one processor.
        mean_uptime: Dur,
        /// Downtime of every outage.
        restart_delay: Dur,
        /// Master seed; each processor derives an independent stream.
        seed: u64,
    },
}

/// One network partition: at `at` the processor set splits into the
/// `island` and everything else; the cut heals `heal_delay` later.
///
/// While the cut is up, nothing crosses it: protocol signals are held in
/// a network backlog and replayed at the heal, transport frames die on
/// the severed wire (the sender's retransmit machinery keeps trying),
/// heartbeats and sync frames are simply lost. Both sides stay up and
/// keep executing local work — a partition is a *network* fault, not a
/// crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The split instant.
    pub at: Time,
    /// How long the cut lasts before the network heals.
    pub heal_delay: Dur,
    /// Processors on the minority side of the cut; everything else forms
    /// the other island. Sanitized during resolution (sorted, deduped,
    /// out-of-range dropped; windows whose island is empty or covers
    /// every processor partition nothing and are discarded).
    pub island: Vec<usize>,
}

impl PartitionWindow {
    /// The heal instant.
    pub fn heals_at(&self) -> Time {
        self.at.saturating_add(self.heal_delay)
    }
}

/// When the network splits (mirrors [`CrashSchedule`]).
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionSchedule {
    /// Explicit partition windows. Sorted and de-overlapped during
    /// resolution — at most one cut is up at any instant.
    Explicit(Vec<PartitionWindow>),
    /// Seeded random schedule: exponentially distributed connected time
    /// between cuts with the given mean, each cut lasting `heal_delay`,
    /// with a random nonempty proper subset of processors on the island
    /// side. Deterministic for a given seed and horizon.
    Random {
        /// Mean fully-connected time between consecutive cuts.
        mean_connected: Dur,
        /// Duration of every cut.
        heal_delay: Dur,
        /// Seed of the schedule's private stream.
        seed: u64,
    },
}

/// One gray slowdown of one processor: from `at` for `span`, the node
/// retires one work tick per `factor` wall ticks instead of one per one.
/// The scheduler stays live — it dispatches, preempts, signals — it is
/// just slow, which is exactly what a fixed-timeout failure detector
/// cannot distinguish from death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowWindow {
    /// When the slowdown begins.
    pub at: Time,
    /// How long it lasts.
    pub span: Dur,
    /// Execution-rate divisor (`2` = half speed). Windows with `factor
    /// < 2` are no-ops and dropped during resolution.
    pub factor: u32,
}

impl SlowWindow {
    /// The instant nominal speed returns.
    pub fn ends_at(&self) -> Time {
        self.at.saturating_add(self.span)
    }
}

/// When processors run slow (mirrors [`CrashSchedule`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SlowSchedule {
    /// Explicit per-processor slowdown lists (outer index = processor).
    Explicit(Vec<Vec<SlowWindow>>),
    /// Seeded random schedule: per processor, exponentially distributed
    /// healthy time between slowdowns of fixed span and factor.
    Random {
        /// Mean healthy time between consecutive slowdowns.
        mean_healthy: Dur,
        /// Duration of every slowdown.
        span: Dur,
        /// Execution-rate divisor of every slowdown.
        factor: u32,
        /// Master seed; each processor derives an independent stream.
        seed: u64,
    },
}

/// One GC-pause-style stall: from `at` for `span` the processor freezes —
/// no execution, no dispatch, no heartbeats — but unlike a crash every
/// in-flight job survives with its partial execution intact, and so do
/// its guards and timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// When the stall begins.
    pub at: Time,
    /// How long the freeze lasts.
    pub span: Dur,
}

impl StallWindow {
    /// The thaw instant.
    pub fn ends_at(&self) -> Time {
        self.at.saturating_add(self.span)
    }
}

/// When processors stall (mirrors [`CrashSchedule`]).
#[derive(Clone, Debug, PartialEq)]
pub enum StallSchedule {
    /// Explicit per-processor stall lists (outer index = processor).
    Explicit(Vec<Vec<StallWindow>>),
    /// Seeded random schedule: exponentially distributed healthy time
    /// between stalls of fixed span.
    Random {
        /// Mean healthy time between consecutive stalls.
        mean_healthy: Dur,
        /// Duration of every stall.
        span: Dur,
        /// Master seed; each processor derives an independent stream.
        seed: u64,
    },
}

/// One degraded window on one directed link: frames from `from` to `to`
/// suffer `extra_latency` plus seeded jitter up to `jitter`, and lossy
/// frame families (heartbeats, sync frames, transport frames — never
/// in-order channel signals, which would wedge the channel cursor) are
/// dropped with probability `drop_permille`/1000. The wire stays *live*:
/// this is a lossy link, not a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDegradeWindow {
    /// When the degradation begins.
    pub at: Time,
    /// How long it lasts.
    pub span: Dur,
    /// Sending side of the degraded direction.
    pub from: usize,
    /// Receiving side of the degraded direction.
    pub to: usize,
    /// Deterministic latency added to every frame in the window.
    pub extra_latency: Dur,
    /// Maximum seeded jitter added on top (uniform in `[0, jitter]`).
    pub jitter: Dur,
    /// Drop probability of lossy frame families, in permille (0..=1000).
    pub drop_permille: u32,
}

impl LinkDegradeWindow {
    /// The instant the link heals.
    pub fn ends_at(&self) -> Time {
        self.at.saturating_add(self.span)
    }
}

/// When links degrade (mirrors [`CrashSchedule`]).
#[derive(Clone, Debug, PartialEq)]
pub enum LinkSchedule {
    /// Explicit degraded windows. Sanitized during resolution: loops and
    /// out-of-range endpoints dropped, per-directed-pair overlaps
    /// de-overlapped, `drop_permille` clamped to 1000.
    Explicit(Vec<LinkDegradeWindow>),
    /// Seeded random schedule: exponentially distributed healthy time
    /// between windows, each hitting one random directed pair.
    Random {
        /// Mean healthy time between consecutive windows.
        mean_healthy: Dur,
        /// Duration of every window.
        span: Dur,
        /// Deterministic latency added in every window.
        extra_latency: Dur,
        /// Maximum seeded jitter per frame.
        jitter: Dur,
        /// Drop probability in permille.
        drop_permille: u32,
        /// Seed of the schedule's private stream.
        seed: u64,
    },
}

/// The gray-failure personas of one run: everything here degrades
/// without fail-stopping. `None` everywhere (the default) keeps every
/// gray code path inert and the simulation bit-identical to the
/// pre-gray engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GrayConfig {
    /// When processors run slow.
    pub slow: Option<SlowSchedule>,
    /// When processors stall.
    pub stalls: Option<StallSchedule>,
    /// When links degrade.
    pub links: Option<LinkSchedule>,
    /// Seed of the per-frame jitter/drop stream used inside degraded
    /// link windows (independent of every schedule stream and of the
    /// nonideal channel's RNG).
    pub frame_seed: u64,
}

impl GrayConfig {
    /// An all-inert gray domain to build on.
    pub fn new() -> GrayConfig {
        GrayConfig::default()
    }

    /// Sets the slowdown schedule.
    pub fn with_slow(mut self, slow: SlowSchedule) -> GrayConfig {
        self.slow = Some(slow);
        self
    }

    /// Sets the stall schedule.
    pub fn with_stalls(mut self, stalls: StallSchedule) -> GrayConfig {
        self.stalls = Some(stalls);
        self
    }

    /// Sets the link-degradation schedule.
    pub fn with_links(mut self, links: LinkSchedule) -> GrayConfig {
        self.links = Some(links);
        self
    }

    /// Sets the per-frame jitter/drop stream seed.
    pub fn with_frame_seed(mut self, seed: u64) -> GrayConfig {
        self.frame_seed = seed;
        self
    }

    /// `true` when every persona is inert.
    pub fn is_inert(&self) -> bool {
        self.slow.is_none() && self.stalls.is_none() && self.links.is_none()
    }
}

/// The complete fault specification of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// When processors crash.
    pub schedule: CrashSchedule,
    /// What recovered processors do with their outage backlog.
    pub policy: OverloadPolicy,
    /// When the network splits; `None` keeps the network whole (and the
    /// engine's partition machinery entirely inert).
    pub partitions: Option<PartitionSchedule>,
    /// Gray-failure personas; `None` keeps every degraded-mode code path
    /// inert.
    pub gray: Option<GrayConfig>,
}

/// Safety valve on schedule resolution: no realistic campaign needs more
/// outages per processor, and it bounds work for adversarial configs
/// (e.g. a 1-tick mean uptime against a huge horizon).
const MAX_WINDOWS_PER_PROC: usize = 4096;

impl FaultConfig {
    /// A seeded random fail-stop schedule under [`OverloadPolicy::ReleaseAll`].
    pub fn random(mean_uptime: Dur, restart_delay: Dur, seed: u64) -> FaultConfig {
        FaultConfig {
            schedule: CrashSchedule::Random {
                mean_uptime,
                restart_delay,
                seed,
            },
            ..FaultConfig::explicit(Vec::new())
        }
    }

    /// An explicit per-processor schedule under
    /// [`OverloadPolicy::ReleaseAll`].
    pub fn explicit(windows: Vec<Vec<CrashWindow>>) -> FaultConfig {
        FaultConfig {
            schedule: CrashSchedule::Explicit(windows),
            policy: OverloadPolicy::ReleaseAll,
            partitions: None,
            gray: None,
        }
    }

    /// A crash-free config carrying only gray-failure personas.
    pub fn gray_only(gray: GrayConfig) -> FaultConfig {
        FaultConfig::explicit(Vec::new()).with_gray(gray)
    }

    /// Sets the overload policy.
    pub fn with_policy(mut self, policy: OverloadPolicy) -> FaultConfig {
        self.policy = policy;
        self
    }

    /// Adds a network-partition schedule on top of the crash schedule.
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> FaultConfig {
        self.partitions = Some(partitions);
        self
    }

    /// Adds gray-failure personas on top of the fail-stop schedule.
    pub fn with_gray(mut self, gray: GrayConfig) -> FaultConfig {
        self.gray = Some(gray);
        self
    }

    /// Resolves the schedule into sorted, non-overlapping per-processor
    /// outage windows over `[0, horizon]`. Deterministic; the random
    /// variant derives one independent stream per processor so the
    /// schedule of processor `p` does not depend on how many processors
    /// exist before it.
    pub fn resolve(&self, num_procs: usize, horizon: Time) -> Vec<Vec<CrashWindow>> {
        match &self.schedule {
            CrashSchedule::Explicit(windows) => explicit(windows, num_procs, horizon, |_| true),
            CrashSchedule::Random {
                mean_uptime,
                restart_delay,
                seed,
            } => random(*seed, 0, num_procs, *mean_uptime, horizon, |at| {
                CrashWindow {
                    at,
                    restart_delay: *restart_delay,
                }
            }),
        }
    }

    /// Resolves the slowdown schedule into sorted, non-overlapping
    /// per-processor windows over `[0, horizon]`. No-op windows (factor
    /// below 2 or empty span) are dropped.
    pub fn resolve_slow(&self, num_procs: usize, horizon: Time) -> Vec<Vec<SlowWindow>> {
        let Some(schedule) = self.gray.as_ref().and_then(|g| g.slow.as_ref()) else {
            return vec![Vec::new(); num_procs];
        };
        match schedule {
            SlowSchedule::Explicit(windows) => explicit(windows, num_procs, horizon, |w| {
                w.factor >= 2 && w.span.is_positive()
            }),
            SlowSchedule::Random {
                mean_healthy,
                span,
                factor,
                seed,
            } => {
                if *factor < 2 || !span.is_positive() {
                    return vec![Vec::new(); num_procs];
                }
                random(*seed, SLOW_SALT, num_procs, *mean_healthy, horizon, |at| {
                    SlowWindow {
                        at,
                        span: *span,
                        factor: *factor,
                    }
                })
            }
        }
    }

    /// Resolves the stall schedule into sorted, non-overlapping
    /// per-processor windows over `[0, horizon]`.
    pub fn resolve_stalls(&self, num_procs: usize, horizon: Time) -> Vec<Vec<StallWindow>> {
        let Some(schedule) = self.gray.as_ref().and_then(|g| g.stalls.as_ref()) else {
            return vec![Vec::new(); num_procs];
        };
        match schedule {
            StallSchedule::Explicit(windows) => {
                explicit(windows, num_procs, horizon, |w| w.span.is_positive())
            }
            StallSchedule::Random {
                mean_healthy,
                span,
                seed,
            } => {
                if !span.is_positive() {
                    return vec![Vec::new(); num_procs];
                }
                random(*seed, STALL_SALT, num_procs, *mean_healthy, horizon, |at| {
                    StallWindow { at, span: *span }
                })
            }
        }
    }

    /// Resolves the link-degradation schedule into windows over
    /// `[0, horizon]`, sanitized (no loops, endpoints in range,
    /// `drop_permille` clamped) and non-overlapping per directed pair.
    /// The result is sorted by start instant for deterministic seeding.
    pub fn resolve_links(&self, num_procs: usize, horizon: Time) -> Vec<LinkDegradeWindow> {
        let Some(schedule) = self.gray.as_ref().and_then(|g| g.links.as_ref()) else {
            return Vec::new();
        };
        match schedule {
            LinkSchedule::Explicit(windows) => {
                let mut out: Vec<LinkDegradeWindow> = windows
                    .iter()
                    .filter(|w| {
                        w.from != w.to
                            && w.from < num_procs
                            && w.to < num_procs
                            && w.span.is_positive()
                            && w.at >= Time::ZERO
                            && w.at <= horizon
                    })
                    .map(|w| LinkDegradeWindow {
                        drop_permille: w.drop_permille.min(1000),
                        ..*w
                    })
                    .collect();
                // De-overlap within each directed pair, then restore
                // global start order.
                out.sort_by_key(|w| (w.from, w.to, w.at));
                let mut prev: Option<(usize, usize, Time)> = None;
                out.retain(|w| {
                    let keep = match prev {
                        Some((f, t, end)) if f == w.from && t == w.to => w.at > end,
                        _ => true,
                    };
                    if keep {
                        prev = Some((w.from, w.to, w.ends_at()));
                    }
                    keep
                });
                out.sort_by_key(|w| (w.at, w.from, w.to));
                out
            }
            LinkSchedule::Random {
                mean_healthy,
                span,
                extra_latency,
                jitter,
                drop_permille,
                seed,
            } => {
                if num_procs < 2 || !span.is_positive() {
                    return Vec::new();
                }
                renewal(
                    mix(*seed, LINK_SALT),
                    *mean_healthy,
                    horizon,
                    |rng, at, out| {
                        let from = rng.random_range(0..num_procs as u64) as usize;
                        let mut to = rng.random_range(0..(num_procs - 1) as u64) as usize;
                        if to >= from {
                            to += 1;
                        }
                        push(
                            out,
                            LinkDegradeWindow {
                                at,
                                span: *span,
                                from,
                                to,
                                extra_latency: *extra_latency,
                                jitter: *jitter,
                                drop_permille: (*drop_permille).min(1000),
                            },
                        )
                    },
                )
            }
        }
    }

    /// Resolves the partition schedule into sorted, non-overlapping cut
    /// windows over `[0, horizon]` with sanitized islands. At most one
    /// cut is up at any instant; a window whose island would be empty or
    /// would cover every processor partitions nothing and is dropped.
    pub fn resolve_partitions(&self, num_procs: usize, horizon: Time) -> Vec<PartitionWindow> {
        let Some(schedule) = &self.partitions else {
            return Vec::new();
        };
        match schedule {
            PartitionSchedule::Explicit(windows) => {
                let mut out: Vec<PartitionWindow> = windows
                    .iter()
                    .filter_map(|w| {
                        let mut island = w.island.clone();
                        island.sort_unstable();
                        island.dedup();
                        island.retain(|&p| p < num_procs);
                        (!island.is_empty() && island.len() < num_procs).then_some(
                            PartitionWindow {
                                at: w.at,
                                heal_delay: w.heal_delay,
                                island,
                            },
                        )
                    })
                    .collect();
                deoverlap(&mut out, horizon);
                out
            }
            PartitionSchedule::Random {
                mean_connected,
                heal_delay,
                seed,
            } => {
                if num_procs < 2 {
                    return Vec::new(); // one node cannot split
                }
                // Mask draws need a nonempty proper subset; 2^k - 2 of
                // them exist over k bits. Cap at 16 bits so the range
                // stays sane for wide systems (processors past the 16th
                // simply stay on the mainland side).
                let bits = num_procs.min(16) as u32;
                renewal(
                    mix(*seed, 0x9a27),
                    *mean_connected,
                    horizon,
                    |rng, at, out| {
                        let mask: u64 = rng.random_range(1..(1u64 << bits) - 1);
                        let island = (0..num_procs.min(16))
                            .filter(|p| mask & (1 << p) != 0)
                            .collect();
                        push(
                            out,
                            PartitionWindow {
                                at,
                                heal_delay: *heal_delay,
                                island,
                            },
                        )
                    },
                )
            }
        }
    }
}

/// Salt domains keeping each gray persona's random stream independent of
/// the crash streams (and each other) under a shared master seed.
const SLOW_SALT: u64 = 0x510_3d0c;
const STALL_SALT: u64 = 0x57a_11ed;
const LINK_SALT: u64 = 0x11_4bad;

/// SplitMix64 finalizer over `seed ^ f(salt)`: decorrelates streams drawn
/// from one master seed (per-processor fault streams, gray frame draws,
/// sync persona jitter).
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One exponential inter-crash gap, quantized to ticks, never zero (a
/// processor is up for at least one tick between outages).
fn exponential_ticks(rng: &mut StdRng, mean: f64) -> Dur {
    let u: f64 = rng.random_range(0.0..1.0);
    let gap = -(1.0 - u).ln() * mean;
    Dur::from_ticks((gap.round() as i64).max(1))
}

/// A resolved fault window.
trait FaultWindow {
    /// The instants the window opens and closes.
    fn bounds(&self) -> (Time, Time);
}

impl FaultWindow for CrashWindow {
    fn bounds(&self) -> (Time, Time) {
        (self.at, self.recovers_at())
    }
}

impl FaultWindow for SlowWindow {
    fn bounds(&self) -> (Time, Time) {
        (self.at, self.ends_at())
    }
}

impl FaultWindow for StallWindow {
    fn bounds(&self) -> (Time, Time) {
        (self.at, self.ends_at())
    }
}

impl FaultWindow for LinkDegradeWindow {
    fn bounds(&self) -> (Time, Time) {
        (self.at, self.ends_at())
    }
}

impl FaultWindow for PartitionWindow {
    fn bounds(&self) -> (Time, Time) {
        (self.at, self.heals_at())
    }
}

/// Appends `window` to `out` and returns the instant it closes.
fn push<W: FaultWindow>(out: &mut Vec<W>, window: W) -> Time {
    let (_, end) = window.bounds();
    out.push(window);
    end
}

/// A seeded renewal schedule over `[0, horizon]`: healthy gaps drawn
/// exponentially with mean `mean` from the stream of `seed`, each
/// followed by the window(s) `open` appends at the gap's end. `open`
/// may draw more from the same stream and returns the instant the next
/// healthy gap starts. Stops at the first window past the horizon or at
/// [`MAX_WINDOWS_PER_PROC`] windows.
fn renewal<W>(
    seed: u64,
    mean: Dur,
    horizon: Time,
    mut open: impl FnMut(&mut StdRng, Time, &mut Vec<W>) -> Time,
) -> Vec<W> {
    let mean = mean.ticks().max(1) as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = Time::ZERO;
    while out.len() < MAX_WINDOWS_PER_PROC {
        let at = t.saturating_add(exponential_ticks(&mut rng, mean));
        if at > horizon {
            break;
        }
        t = open(&mut rng, at, &mut out);
    }
    out
}

/// Explicit per-processor windows, sized to `num_procs`, filtered by
/// `keep` and de-overlapped over `[0, horizon]`.
fn explicit<W: FaultWindow + Clone>(
    windows: &[Vec<W>],
    num_procs: usize,
    horizon: Time,
    keep: impl Fn(&W) -> bool,
) -> Vec<Vec<W>> {
    let mut out = windows.to_vec();
    out.resize(num_procs, Vec::new());
    for per_proc in &mut out {
        per_proc.retain(&keep);
        deoverlap(per_proc, horizon);
    }
    out
}

/// Seeded per-processor renewal schedules: processor `p` draws from the
/// stream of `mix(seed, salt ^ p)`, so its schedule does not depend on
/// how many processors come before it, and `window(at)` opens each one.
fn random<W: FaultWindow>(
    seed: u64,
    salt: u64,
    num_procs: usize,
    mean: Dur,
    horizon: Time,
    window: impl Fn(Time) -> W,
) -> Vec<Vec<W>> {
    let renew = |p: usize| {
        renewal(mix(seed, salt ^ p as u64), mean, horizon, |_, at, out| {
            push(out, window(at))
        })
    };
    (0..num_procs).map(renew).collect()
}

/// Sorts `windows` by start (stably) and keeps each window that starts
/// inside `[0, horizon]` after the last kept window closed.
fn deoverlap<W: FaultWindow>(windows: &mut Vec<W>, horizon: Time) {
    windows.sort_by_key(|w| w.bounds().0);
    let mut prev_end: Option<Time> = None;
    windows.retain(|w| {
        let (start, end) = w.bounds();
        let keep =
            start >= Time::ZERO && start <= horizon && prev_end.is_none_or(|prev| start > prev);
        if keep {
            prev_end = Some(end);
        }
        keep
    });
}

/// What the fault domain did during one run (part of
/// [`crate::engine::SimOutcome`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crash events dispatched.
    pub crashes: u64,
    /// Recovery events dispatched.
    pub recoveries: u64,
    /// In-flight jobs (running or ready) killed by crashes.
    pub killed_jobs: u64,
    /// Subtask instances cancelled (killed, dropped, or unreachable
    /// because an ancestor died).
    pub cancelled_instances: u64,
    /// Backlog items released at recoveries.
    pub backlog_released: u64,
    /// Backlog items dropped (cancelled) at recoveries by the overload
    /// policy.
    pub backlog_dropped: u64,
    /// Signals that arrived at a crashed receiver and were backlogged.
    pub receiver_down_signals: u64,
    /// Partition cuts that went up.
    pub partitions: u64,
    /// Partition cuts that healed.
    pub heals: u64,
    /// Protocol signals severed by a cut (held in the network backlog
    /// until the heal).
    pub severed_signals: u64,
    /// Heartbeats severed by a cut (lost outright; the detector's false
    /// positives are the observable consequence).
    pub severed_heartbeats: u64,
    /// Transport frames and acks severed by a cut (lost on the wire; the
    /// sender's retransmit/backoff machinery carries the recovery).
    pub severed_transport: u64,
    /// Backlogged signals replayed when a cut healed.
    pub partition_replayed: u64,
    /// Slowdown windows entered.
    pub slowdowns: u64,
    /// Stall windows entered.
    pub stalls: u64,
    /// Link-degradation windows opened.
    pub link_degrades: u64,
    /// Heartbeats dropped by degraded links.
    pub gray_dropped_heartbeats: u64,
    /// Transport frames and acks dropped by degraded links.
    pub gray_dropped_transport: u64,
    /// Sync frames dropped by degraded links.
    pub gray_dropped_sync: u64,
    /// Total extra latency (deterministic plus jitter) injected by
    /// degraded links, in ticks.
    pub gray_extra_latency_ticks: u64,
}

/// Why a backlog item exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BacklogKind {
    /// A first-subtask source release that fell in the outage.
    Source,
    /// A predecessor signal that reached the node while it was down.
    Signal,
}

/// One unit of work that arrived while its processor was down.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BacklogItem {
    pub(crate) job: JobId,
    pub(crate) arrival: Time,
    pub(crate) kind: BacklogKind,
}

/// Which wire family a frame belongs to, for gray-link drop accounting.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum GrayFamily {
    /// Oracle signal path — pays latency and jitter but is never
    /// gray-dropped (the channel model owns signal loss).
    Signal,
    /// Failure-detector heartbeats.
    Heartbeat,
    /// Reliable-transport payload frames.
    Transport,
    /// Clock-sync request/response frames.
    Sync,
}

/// The per-run fault domain the engine owns: the resolved schedule, its
/// firing cursor, the partition and gray-link state, the recovery
/// bookkeeping and the counters. Always present — a run without faults
/// carries the empty schedule, which fires nothing and changes nothing.
/// Processor liveness (down, stalled, rate) lives on
/// [`crate::processor::Processor`], not here.
#[derive(Debug)]
pub(crate) struct FaultState {
    num_procs: usize,
    /// The event-queue slot the schedule's next edge waits in.
    slot: usize,
    /// Resolved outage windows, per processor.
    windows: Vec<Vec<CrashWindow>>,
    pub(crate) policy: OverloadPolicy,
    /// The edges of the resolved schedule not yet queued, last to fire
    /// first. They fire by time, then kind rank, then the order the
    /// streams list them in (crash windows per processor, partitions,
    /// slowdowns and stalls per processor, link windows). The engine
    /// keeps only the next one queued.
    edges: Vec<(Time, EventKind)>,
    /// Work that arrived during the current outage, per processor.
    pub(crate) backlog: Vec<Vec<BacklogItem>>,
    /// Cancelled instances per flat subtask index; release/completion
    /// counters normalize lazily over these gaps.
    cancelled: Vec<BTreeSet<u64>>,
    /// Instances the failure detector's degraded march force-released: a
    /// late real signal for one is suppressed, and its release waives the
    /// precedence check.
    forced: BTreeSet<JobId>,
    /// Resolved partition cut windows (network-wide, non-overlapping).
    partition_windows: Vec<PartitionWindow>,
    /// `true` while a cut is up.
    pub(crate) partitioned: bool,
    /// Current side of each processor; meaningful only while partitioned.
    pub(crate) island: Vec<bool>,
    /// Protocol signals severed by the current cut, in arrival order;
    /// replayed through the normal apply path at the heal.
    partition_backlog: Vec<JobId>,
    /// When the currently open cut went up (`None` while whole). The sync
    /// layer uses it to age out cross-island samples taken before the
    /// split.
    pub(crate) partition_since: Option<Time>,
    /// Resolved slowdown windows, per processor.
    slow_windows: Vec<Vec<SlowWindow>>,
    /// Resolved stall windows, per processor.
    stall_windows: Vec<Vec<StallWindow>>,
    /// Resolved link-degradation windows (event `idx` indexes this).
    link_windows: Vec<LinkDegradeWindow>,
    /// Active link window per directed pair (`from * n + to`), stored as
    /// window index + 1 (`0` = healthy). Windows never overlap per pair,
    /// so one slot suffices.
    link_active: Vec<u32>,
    /// Seed and counter of the per-frame jitter/drop stream. A dedicated
    /// SplitMix64 counter stream keeps gray draws off the nonideal
    /// channel's RNG, so arming gray personas never perturbs the
    /// channel's own loss/latency sequence.
    frame_seed: u64,
    frame_ctr: u64,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(
        cfg: &FaultConfig,
        num_procs: usize,
        flat_len: usize,
        horizon: Time,
        slot: usize,
    ) -> FaultState {
        let windows = cfg.resolve(num_procs, horizon);
        let mut fs = FaultState {
            num_procs,
            slot,
            windows,
            policy: cfg.policy,
            edges: Vec::new(),
            backlog: vec![Vec::new(); num_procs],
            cancelled: vec![BTreeSet::new(); flat_len],
            forced: BTreeSet::new(),
            partition_windows: cfg.resolve_partitions(num_procs, horizon),
            partitioned: false,
            island: vec![false; num_procs],
            partition_backlog: Vec::new(),
            partition_since: None,
            slow_windows: cfg.resolve_slow(num_procs, horizon),
            stall_windows: cfg.resolve_stalls(num_procs, horizon),
            link_windows: cfg.resolve_links(num_procs, horizon),
            link_active: vec![0; num_procs * num_procs],
            frame_seed: cfg.gray.as_ref().map(|g| g.frame_seed).unwrap_or(0),
            frame_ctr: 0,
            stats: FaultStats::default(),
        };
        fs.edges = fs.schedule_edges();
        fs
    }

    /// Lists every window edge stream by stream, sorts them stably by
    /// `(time, rank)` so ties keep the stream order, and reverses them.
    fn schedule_edges(&self) -> Vec<(Time, EventKind)> {
        let mut edges = Vec::new();
        for (p, windows) in self.windows.iter().enumerate() {
            let proc = ProcessorId::new(p);
            for w in windows {
                edges.push((w.at, EventKind::Crash { proc }));
                edges.push((w.recovers_at(), EventKind::Recover { proc }));
            }
        }
        for (i, w) in self.partition_windows.iter().enumerate() {
            let idx = i as u32;
            edges.push((w.at, EventKind::PartitionStart { idx }));
            edges.push((w.heals_at(), EventKind::PartitionHeal { idx }));
        }
        for (p, windows) in self.slow_windows.iter().enumerate() {
            let proc = ProcessorId::new(p);
            for (i, w) in windows.iter().enumerate() {
                let idx = i as u32;
                edges.push((w.at, EventKind::SlowStart { proc, idx }));
                edges.push((w.ends_at(), EventKind::SlowEnd { proc }));
            }
        }
        for (p, windows) in self.stall_windows.iter().enumerate() {
            let proc = ProcessorId::new(p);
            for w in windows {
                edges.push((w.at, EventKind::StallStart { proc }));
                edges.push((w.ends_at(), EventKind::StallEnd { proc }));
            }
        }
        for (i, w) in self.link_windows.iter().enumerate() {
            let idx = i as u32;
            edges.push((w.at, EventKind::LinkDegradeStart { idx }));
            edges.push((w.ends_at(), EventKind::LinkDegradeEnd { idx }));
        }
        edges.sort_by_key(|(at, kind)| (*at, kind.rank()));
        edges.reverse();
        edges
    }

    /// Queues the schedule's next edge, in firing order, in the domain's
    /// slot. Called once at setup and again as each edge pops, so the
    /// domain never holds more than one queue entry.
    pub(crate) fn arm_next_edge(&mut self, queue: &mut EventQueue) {
        if let Some((at, kind)) = self.edges.pop() {
            queue.arm(self.slot, at, kind);
        }
    }

    /// Whether the current cut separates processors `a` and `b`.
    pub(crate) fn cut(&self, a: usize, b: usize) -> bool {
        self.partitioned && self.island[a] != self.island[b]
    }

    /// Parks a signal from `from` to `to` at the open cut, if one
    /// separates them; `true` when it was parked.
    pub(crate) fn park_severed(&mut self, from: usize, to: usize, job: JobId) -> bool {
        if !self.cut(from, to) {
            return false;
        }
        self.stats.severed_signals += 1;
        self.partition_backlog.push(job);
        true
    }

    /// Heals the open cut and hands back the signals parked at it, in
    /// arrival order.
    pub(crate) fn heal_partition(&mut self) -> Vec<JobId> {
        self.partitioned = false;
        self.partition_since = None;
        self.stats.heals += 1;
        let parked = std::mem::take(&mut self.partition_backlog);
        self.stats.partition_replayed += parked.len() as u64;
        parked
    }

    /// The active degraded window on the directed link `from -> to`.
    fn link_gray(&self, from: usize, to: usize) -> Option<&LinkDegradeWindow> {
        match self.link_active[from * self.num_procs + to] {
            0 => None,
            idx => Some(&self.link_windows[idx as usize - 1]),
        }
    }

    /// Gray ground truth for a verdict on `subject` as seen by
    /// `observer`: the subject is stalled, slowed, or its heartbeat path
    /// toward the observer runs over a degraded link.
    pub(crate) fn actually_gray(&self, observer: usize, subject: &Processor) -> bool {
        subject.is_stalled()
            || subject.rate() > 1
            || self.link_gray(subject.id().index(), observer).is_some()
    }

    /// Gray-link tax on one frame crossing `from → to`: `None` when the
    /// degraded wire dropped it, otherwise the additional one-way latency
    /// (window base plus a seeded jitter draw). A healthy link returns
    /// `Some(ZERO)` without touching the draw stream, so runs with no
    /// link windows stay bit-identical to the pre-gray engine. Called
    /// *after* the channel draws its own plan, preserving the legacy
    /// channel RNG stream.
    pub(crate) fn gray_penalty(
        &mut self,
        from: usize,
        to: usize,
        family: GrayFamily,
    ) -> Option<Dur> {
        if self.link_windows.is_empty() {
            return Some(Dur::ZERO);
        }
        let Some(w) = self.link_gray(from, to).copied() else {
            return Some(Dur::ZERO);
        };
        // Jitter first, drop second: a dropped frame still consumed its
        // jitter draw, keeping the stream aligned across arms that only
        // differ in drop rate.
        let jitter = if w.jitter.ticks() > 0 {
            Dur::from_ticks((self.frame_draw() % (w.jitter.ticks() as u64 + 1)) as i64)
        } else {
            Dur::ZERO
        };
        // Signals are never gray-dropped: loss on the oracle signal path
        // is the channel model's contract (signal conservation), and the
        // lossy families all carry their own recovery machinery —
        // transport retransmits, heartbeats re-send every period, sync
        // rounds retry.
        if family != GrayFamily::Signal
            && w.drop_permille > 0
            && self.frame_draw() % 1000 < u64::from(w.drop_permille)
        {
            match family {
                GrayFamily::Signal => unreachable!("signals are never gray-dropped"),
                GrayFamily::Heartbeat => self.stats.gray_dropped_heartbeats += 1,
                GrayFamily::Transport => self.stats.gray_dropped_transport += 1,
                GrayFamily::Sync => self.stats.gray_dropped_sync += 1,
            }
            return None;
        }
        let extra = w.extra_latency.saturating_add(jitter);
        self.stats.gray_extra_latency_ticks += extra.ticks() as u64;
        Some(extra)
    }

    /// One draw from the dedicated per-frame gray stream.
    fn frame_draw(&mut self) -> u64 {
        let v = mix(self.frame_seed, self.frame_ctr);
        self.frame_ctr += 1;
        v
    }

    /// Extends the fail-free `horizon` so the instance target stays
    /// reachable despite the schedule: by the total downtime; by the
    /// demand slow and stall windows add, which drains only at the idle
    /// capacity `1 - U` of `set` (the busy fraction capped at 95% so a
    /// saturated set still gets a finite allowance); and by every link
    /// window's full extra latency and jitter. The horizon is only a cap,
    /// so over-padding costs nothing on healthy runs.
    pub(crate) fn pad_horizon(&self, horizon: Time, set: &TaskSet) -> Time {
        let downtime = self
            .windows
            .iter()
            .flatten()
            .fold(Dur::ZERO, |acc, w| acc.saturating_add(w.restart_delay));
        let slow = self
            .slow_windows
            .iter()
            .flatten()
            .fold(Dur::ZERO, |acc, w| {
                acc.saturating_add(Dur::from_ticks(
                    w.span.ticks().saturating_mul(i64::from(w.factor) - 1),
                ))
            });
        let stall = self
            .stall_windows
            .iter()
            .flatten()
            .fold(Dur::ZERO, |acc, w| acc.saturating_add(w.span));
        let extra = slow.saturating_add(stall);
        let drain = if extra.is_positive() {
            let busy_ppm = set.max_processor_utilization_ppm().min(950_000) as i128;
            let drained = (extra.ticks() as i128) * 1_000_000 / (1_000_000 - busy_ppm);
            Dur::from_ticks(drained.min(i64::MAX as i128) as i64)
        } else {
            Dur::ZERO
        };
        let link = self
            .link_windows
            .iter()
            .map(|w| w.extra_latency.saturating_add(w.jitter))
            .fold(Dur::ZERO, |a, b| a.saturating_add(b));
        horizon
            .saturating_add(downtime)
            .saturating_add(drain)
            .saturating_add(link)
    }

    /// `d` of work stretched by the deepest slowdown in the schedule.
    pub(crate) fn slowed(&self, d: Dur) -> Dur {
        let factor = self.slow_windows.iter().flatten().map(|w| w.factor).max();
        Dur::from_ticks(d.ticks().saturating_mul(i64::from(factor.unwrap_or(1))))
    }

    /// The most one gray link window can delay a frame.
    pub(crate) fn longest_link_delay(&self) -> Dur {
        let delays = self.link_windows.iter();
        delays
            .map(|w| w.extra_latency.saturating_add(w.jitter))
            .max()
            .unwrap_or(Dur::ZERO)
    }

    /// Marks `instance` of flat subtask `fi` cancelled; `false` if it
    /// already was.
    pub(crate) fn cancel(&mut self, fi: usize, instance: u64) -> bool {
        let fresh = self.cancelled[fi].insert(instance);
        if fresh {
            self.stats.cancelled_instances += 1;
        }
        fresh
    }

    /// Whether `instance` of flat subtask `fi` was cancelled. Checks the
    /// counter first, so fault-free runs never touch the sets.
    pub(crate) fn is_cancelled(&self, fi: usize, instance: u64) -> bool {
        self.stats.cancelled_instances > 0 && self.cancelled[fi].contains(&instance)
    }

    /// Marks `job` force-released; `false` if it already was.
    pub(crate) fn force(&mut self, job: JobId) -> bool {
        self.forced.insert(job)
    }

    /// Whether `job` was force-released.
    pub(crate) fn is_forced(&self, job: JobId) -> bool {
        self.forced.contains(&job)
    }
}

/// One gray edge of the schedule. Gray edges touch no protocol state:
/// they open a partition cut, slow, stall or resume a processor, or
/// degrade a link. (The heal replays parked signals, so the engine owns
/// it, with the crash and recovery edges.)
pub(crate) fn on_gray_edge<O: Observer>(w: &mut Wire<'_, O>, kind: EventKind) {
    let f = &mut w.faults;
    match kind {
        // Record which side of the cut each processor lands on. Every
        // node stays up and keeps executing: only cross-cut traffic
        // (signals, transport frames, acks, heartbeats, sync frames) is
        // severed until the heal.
        EventKind::PartitionStart { idx } => {
            let cut = &f.partition_windows[idx as usize];
            for (p, side) in f.island.iter_mut().enumerate() {
                *side = cut.island.contains(&p);
            }
            f.partitioned = true;
            f.partition_since = Some(w.now);
            f.stats.partitions += 1;
            w.obs.on_partition_start(w.now, &f.island);
        }
        // Unlike a crash nothing is lost: jobs keep their state and merely
        // stretch. The rate is set even while the processor is down, so a
        // mid-window recovery resumes slow.
        EventKind::SlowStart { proc, idx } => {
            f.stats.slowdowns += 1;
            let factor = f.slow_windows[proc.index()][idx as usize].factor;
            set_rate(w, proc, factor);
        }
        EventKind::SlowEnd { proc } => set_rate(w, proc, 1),
        EventKind::StallStart { proc } => stall(w, proc, true),
        EventKind::StallEnd { proc } => stall(w, proc, false),
        EventKind::LinkDegradeStart { idx } | EventKind::LinkDegradeEnd { idx } => {
            let on = matches!(kind, EventKind::LinkDegradeStart { .. });
            let LinkDegradeWindow { from, to, .. } = f.link_windows[idx as usize];
            let active = &mut f.link_active[from * f.num_procs + to];
            if on {
                *active = idx + 1;
                f.stats.link_degrades += 1;
            } else if *active == idx + 1 {
                // With overlapping windows on one link, only the window
                // that owns the active slot clears it.
                *active = 0;
            }
            w.note(Note::LinkDegrade { from, to, on });
        }
        _ => unreachable!("{kind:?} is not a gray edge"),
    }
}

/// Settles `proc`'s slice at its old rate, then runs it at `factor`
/// (`1` restores full speed): every remaining service tick costs
/// `factor` wall ticks.
fn set_rate<O: Observer>(w: &mut Wire<'_, O>, proc: ProcessorId, factor: u32) {
    w.advance_proc(proc);
    w.procs[proc.index()].set_rate(factor);
    w.drop_stale_milestone(proc);
    w.note(Note::Slowdown {
        proc: proc.index(),
        factor,
    });
    w.mark_dirty(proc);
}

/// A GC-pause-style stall opens (`on`) or closes. While open, the
/// processor stops executing entirely but — unlike a crash — keeps its
/// in-flight jobs, guards and timers; only its pending milestone is
/// dropped. A stall landing on a down (or already-stalled) processor
/// is absorbed by the outage, and a close is a no-op when the stall
/// never took hold or a crash swallowed it mid-window (the recovery
/// path owns the restart then).
fn stall<O: Observer>(w: &mut Wire<'_, O>, proc: ProcessorId, on: bool) {
    let p = proc.index();
    let open = w.procs[p].is_stalled();
    if on == open || (on && w.procs[p].is_down()) {
        return;
    }
    w.advance_proc(proc);
    if on {
        w.faults.stats.stalls += 1;
    }
    w.procs[p].set_stalled(on);
    w.drop_stale_milestone(proc);
    w.note(Note::Stall {
        proc: p,
        stalled: on,
    });
    w.mark_dirty(proc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::task::{SubtaskId, TaskId};

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn forcing_is_idempotent_per_instance() {
        let mut st = FaultState::new(&FaultConfig::explicit(Vec::new()), 2, 3, t(100), 2);
        let job =
            |sub: usize, instance: u64| JobId::new(SubtaskId::new(TaskId::new(0), sub), instance);
        assert!(st.force(job(1, 4)));
        assert!(!st.force(job(1, 4)));
        assert!(st.is_forced(job(1, 4)));
        assert!(!st.is_forced(job(1, 5)));
        assert!(!st.is_forced(job(0, 4)));
    }

    #[test]
    fn random_resolution_is_deterministic_and_non_overlapping() {
        let cfg = FaultConfig::random(d(50), d(10), 42);
        let a = cfg.resolve(3, t(10_000));
        let b = cfg.resolve(3, t(10_000));
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|w| !w.is_empty()), "a 10k horizon crashes");
        for per_proc in &a {
            for pair in per_proc.windows(2) {
                assert!(pair[1].at > pair[0].recovers_at(), "windows overlap");
            }
        }
        // Streams are per processor: dropping a processor does not shift
        // the others.
        let fewer = cfg.resolve(2, t(10_000));
        assert_eq!(fewer[0], a[0]);
        assert_eq!(fewer[1], a[1]);
    }

    #[test]
    fn explicit_resolution_sorts_and_drops_overlaps() {
        let cfg = FaultConfig::explicit(vec![vec![
            CrashWindow {
                at: t(50),
                restart_delay: d(10),
            },
            CrashWindow {
                at: t(20),
                restart_delay: d(5),
            },
            CrashWindow {
                at: t(22), // inside the [20, 25] outage: dropped
                restart_delay: d(5),
            },
        ]]);
        let windows = cfg.resolve(2, t(1_000));
        assert_eq!(windows.len(), 2, "padded to the processor count");
        assert_eq!(
            windows[0].iter().map(|w| w.at.ticks()).collect::<Vec<_>>(),
            vec![20, 50]
        );
        assert!(windows[1].is_empty());
    }

    #[test]
    fn partition_resolution_sanitizes_islands_and_overlaps() {
        let cfg =
            FaultConfig::explicit(Vec::new()).with_partitions(PartitionSchedule::Explicit(vec![
                PartitionWindow {
                    at: t(100),
                    heal_delay: d(50),
                    island: vec![2, 0, 2, 9], // dup + out-of-range sanitized
                },
                PartitionWindow {
                    at: t(120), // inside the [100, 150] cut: dropped
                    heal_delay: d(10),
                    island: vec![1],
                },
                PartitionWindow {
                    at: t(200),
                    heal_delay: d(10),
                    island: vec![0, 1, 2], // covers everyone: partitions nothing
                },
                PartitionWindow {
                    at: t(300),
                    heal_delay: d(10),
                    island: vec![1],
                },
            ]));
        let windows = cfg.resolve_partitions(3, t(1_000));
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].at, t(100));
        assert_eq!(windows[0].island, vec![0, 2]);
        assert_eq!(windows[0].heals_at(), t(150));
        assert_eq!(windows[1].at, t(300));
    }

    #[test]
    fn random_partitions_are_deterministic_proper_and_non_overlapping() {
        let cfg = FaultConfig::explicit(Vec::new()).with_partitions(PartitionSchedule::Random {
            mean_connected: d(500),
            heal_delay: d(100),
            seed: 11,
        });
        let a = cfg.resolve_partitions(4, t(50_000));
        let b = cfg.resolve_partitions(4, t(50_000));
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty(), "a 50k horizon splits");
        for w in &a {
            assert!(!w.island.is_empty() && w.island.len() < 4, "proper subset");
        }
        for pair in a.windows(2) {
            assert!(pair[1].at > pair[0].heals_at(), "cuts overlap");
        }
        // A single node cannot split.
        assert!(cfg.resolve_partitions(1, t(50_000)).is_empty());
    }
}
