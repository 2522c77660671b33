//! Integration tests for the adversarial-time machinery: network
//! partitions sever and heal deterministically without leaking protocol
//! signals across the cut, Byzantine timeserver personas corrupt samples
//! without defeating a minority-tolerant Marzullo intersection (and
//! visibly defeat it at a colluding majority), per-link asymmetry widens
//! the advertised uncertainty honestly, sync-over-transport retries
//! dropped frames, and every severed frame counts once in its own
//! family's counter.

use rtsync_core::examples::{example1, example2};
use rtsync_core::protocol::Protocol;
use rtsync_core::task::{Priority, Task, TaskSet};
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::event::EventKind;
use rtsync_sim::nonideal::{ChannelModel, ClockModel, LinkAsymmetry, NonidealConfig};
use rtsync_sim::{
    DetectorConfig, FaultConfig, GrayConfig, InvariantObserver, JobId, LinkDegradeWindow,
    LinkSchedule, Note, Observer, PartitionSchedule, PartitionWindow, Persona, SyncConfig,
    TransportConfig,
};

fn d(x: i64) -> Dur {
    Dur::from_ticks(x)
}

fn t(x: i64) -> Time {
    Time::from_ticks(x)
}

/// One explicit cut isolating P0 from P1 over `[10, 10 + span)`.
fn one_cut(span: i64) -> FaultConfig {
    FaultConfig::explicit(vec![Vec::new(), Vec::new()]).with_partitions(
        PartitionSchedule::Explicit(vec![PartitionWindow {
            at: t(10),
            heal_delay: d(span),
            island: vec![0],
        }]),
    )
}

/// Random clocks hostile enough that sync corrections matter.
fn bad_clocks(seed: u64) -> ClockModel {
    ClockModel::Random {
        max_offset: d(50),
        max_drift_ppm: 20_000,
        seed,
    }
}

/// A cut severs cross-processor signals, parks them, and replays every
/// one at the heal; the whole run is bit-deterministic.
#[test]
fn partition_severs_parks_and_replays_signals() {
    let set = example2();
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(40)
        .with_trace()
        .with_channel(ChannelModel::constant(d(1)).with_seed(5))
        .with_faults(one_cut(30));
    let a = simulate(&set, &cfg).unwrap();
    let fs = &a.fault_stats;
    assert_eq!(fs.partitions, 1, "{fs:?}");
    assert_eq!(fs.heals, 1, "{fs:?}");
    assert!(fs.severed_signals > 0, "the cut crossed T1's chain: {fs:?}");
    assert_eq!(
        fs.partition_replayed, fs.severed_signals,
        "every parked signal replays at the heal: {fs:?}"
    );
    let b = simulate(&set, &cfg).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.events, b.events);
    assert_eq!(a.fault_stats, b.fault_stats);
}

/// The online invariants hold through a cut and its heal for every
/// protocol: nothing crosses the partition, conservation closes, and the
/// run ends clean.
#[test]
fn partition_invariants_hold_for_every_protocol() {
    let set = example2();
    for protocol in Protocol::ALL {
        let mut obs = InvariantObserver::default();
        let out = simulate_observed(
            &set,
            &SimConfig::new(protocol)
                .with_instances(40)
                .with_channel(ChannelModel::constant(d(1)).with_seed(5))
                .with_faults(one_cut(25)),
            &mut obs,
        )
        .unwrap();
        obs.check_outcome(&out);
        assert!(
            obs.is_clean(),
            "{protocol:?}: {:?}",
            obs.violations().first()
        );
    }
}

/// A single large-offset liar among three timeservers corrupts samples
/// but cannot move the Marzullo intersection: every settled estimate
/// still brackets the true offset and the armed invariant stays clean.
#[test]
fn minority_liar_cannot_defeat_the_bracket() {
    let set = example1();
    let mut obs = InvariantObserver::default();
    let out = simulate_observed(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(150)
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(3)))
            .with_sync(SyncConfig::new(d(8)).with_personas(vec![
                Persona::Honest,
                Persona::FixedLiar { offset: d(8000) },
                Persona::Honest,
            ])),
        &mut obs,
    )
    .unwrap();
    let s = &out.sync_stats;
    assert!(s.corrupted_samples > 0, "the liar answered: {s:?}");
    assert!(s.bracket_samples > 0, "{s:?}");
    assert_eq!(
        s.bracket_misses, 0,
        "minority liar defeated Marzullo: {s:?}"
    );
    assert!(obs.is_clean(), "{:?}", obs.violations().first());
}

/// Two colluders out of three agree on a fake offset: past n/2 their
/// mutually-consistent intervals out-vote the reference and the settled
/// estimates stop bracketing the true offset — the documented failure
/// mode of intersection-based sync under a Byzantine majority.
#[test]
fn colluding_majority_defeats_the_bracket() {
    let set = example1();
    let out = simulate(
        &set,
        &SimConfig::new(Protocol::PhaseModification)
            .with_instances(150)
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(3)))
            .with_sync(SyncConfig::new(d(8)).with_personas(vec![
                Persona::Colluder { target: d(-6000) },
                Persona::Colluder { target: d(-6000) },
                Persona::Honest,
            ])),
    )
    .unwrap();
    let s = &out.sync_stats;
    assert!(s.corrupted_samples > 0, "{s:?}");
    assert!(
        s.bracket_misses > 0,
        "a colluding majority must break uncertainty honesty: {s:?}"
    );
}

/// Asymmetric links bias NTP's midpoint; the advertised asymmetry bound
/// widens every sample, so the estimate stays honest — with strictly
/// wider raw samples than the symmetric run (the settled Marzullo
/// half-width itself stays pinned by the tight reference interval).
#[test]
fn asymmetry_widens_uncertainty_but_stays_honest() {
    let set = example1();
    let base = SimConfig::new(Protocol::PhaseModification)
        .with_instances(150)
        .with_sync(SyncConfig::new(d(8)));
    let symmetric = simulate(
        &set,
        &base
            .clone()
            .with_nonideal(NonidealConfig::default().with_clocks(bad_clocks(7))),
    )
    .unwrap();
    let skewed = simulate(
        &set,
        &base.clone().with_nonideal(
            NonidealConfig::default()
                .with_clocks(bad_clocks(7))
                .with_asymmetry(LinkAsymmetry::random(3, d(6), 11)),
        ),
    )
    .unwrap();
    assert_eq!(symmetric.sync_stats.bracket_misses, 0);
    assert_eq!(
        skewed.sync_stats.bracket_misses, 0,
        "the asymmetry bound must keep the bracket honest: {:?}",
        skewed.sync_stats
    );
    assert!(
        skewed.sync_stats.max_sample_width > symmetric.sync_stats.max_sample_width,
        "biased links must widen the raw samples ({:?} vs {:?})",
        skewed.sync_stats.max_sample_width,
        symmetric.sync_stats.max_sample_width
    );
}

/// Sync-over-transport mode retries frames the channel drops: the lossy
/// run records losses and retransmissions, and recovers more exchanges
/// than the fire-and-forget mode under the same seeds.
#[test]
fn sync_over_transport_retries_dropped_frames() {
    let set = example2();
    let lossy = |over: bool| {
        simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard)
                .with_instances(80)
                .with_channel(
                    ChannelModel::constant(d(1))
                        .with_seed(9)
                        .with_endpoint_drops(0.3),
                )
                .with_sync(SyncConfig::new(d(10)).with_over_transport(over)),
        )
        .unwrap()
        .sync_stats
    };
    let plain = lossy(false);
    let acked = lossy(true);
    assert!(plain.frames_lost > 0, "{plain:?}");
    assert_eq!(plain.retransmits, 0, "{plain:?}");
    assert!(acked.retransmits > 0, "{acked:?}");
    assert!(
        acked.exchanges > plain.exchanges,
        "retries must recover exchanges ({} vs {})",
        acked.exchanges,
        plain.exchanges
    );
}

/// Counts, from the event stream alone, what an open cut severs at send
/// and at arrival: transport frames, heartbeats, sync frames.
#[derive(Default)]
struct CutLedger {
    island: Option<Vec<bool>>,
    hosts: Vec<Vec<usize>>,
    /// Transport frames at send and at arrival.
    transport: [u64; 2],
    /// Heartbeats at send and at arrival.
    heartbeat: [u64; 2],
    /// Sync requests at send, requests at arrival, responses at arrival.
    sync: [u64; 3],
}

impl CutLedger {
    fn cut(&self, a: usize, b: usize) -> u64 {
        u64::from(self.island.as_ref().is_some_and(|i| i[a] != i[b]))
    }

    fn peers_cut(&self, p: usize) -> u64 {
        let procs = self.island.as_ref().map_or(0, Vec::len);
        (0..procs).map(|q| self.cut(p, q)).sum()
    }

    fn hop_cut(&self, job: JobId) -> u64 {
        let host = |j: JobId| self.hosts[j.task().index()][j.subtask().index()];
        self.cut(host(job.predecessor().expect("a signal hop")), host(job))
    }
}

impl Observer for CutLedger {
    fn on_run_start(&mut self, set: &TaskSet, _: Protocol) {
        let hosts = |t: &Task| t.subtasks().iter().map(|s| s.processor().index()).collect();
        self.hosts = set.tasks().iter().map(hosts).collect();
    }

    fn on_partition_start(&mut self, _: Time, island: &[bool]) {
        self.island = Some(island.to_vec());
    }

    fn on(&mut self, _: Time, note: Note) {
        use EventKind::*;
        match note {
            Note::PartitionHeal => self.island = None,
            Note::TransportSend { job, .. } => self.transport[0] += self.hop_cut(job),
            Note::Event(TransportDeliver { job, .. }) => self.transport[1] += self.hop_cut(job),
            Note::Event(HeartbeatSend { proc }) => {
                self.heartbeat[0] += self.peers_cut(proc.index())
            }
            Note::Event(HeartbeatDeliver { from, to }) => {
                self.heartbeat[1] += to
                    .iter()
                    .map(|q| self.cut(from.index(), q.index()))
                    .sum::<u64>()
            }
            Note::Event(SyncRound { proc }) => self.sync[0] += self.peers_cut(proc.index()),
            Note::Event(SyncRequest { from, to, .. }) => {
                self.sync[1] += self.cut(from.index(), to.index())
            }
            Note::Event(SyncResponse { from, to, .. }) => {
                self.sync[2] += self.cut(from.index(), to.index())
            }
            _ => {}
        }
    }
}

/// Every heartbeat an observer hears, as `(time, from, to)`.
#[derive(Default)]
struct HeardLog(Vec<(i64, usize, usize)>);

impl Observer for HeardLog {
    fn on(&mut self, now: Time, note: Note) {
        if let Note::Heartbeat { from, to } = note {
            self.0.push((now.ticks(), from, to));
        }
    }
}

/// The order in which a broadcast's beats land is pinned. Four
/// processors beat every 10 ticks from t = 10, in processor order. The
/// link P2 → P3 is gray with exactly one period of extra latency, so
/// each of its beats lands in the next broadcast instant, and a cut
/// isolates P3 over `[25, 45)`. Within an instant the sends pop first
/// (rank 19), then the deliveries (rank 20) in queue order: a delayed
/// beat queued one period earlier, then each sender's same-instant beats
/// in sender order, each to its observers in ascending order.
#[test]
fn heartbeat_fan_out_lands_in_a_pinned_order() {
    let mut builder = TaskSet::builder(4);
    for proc in 0..4 {
        builder = builder
            .task(d(100))
            .subtask(proc, d(1), Priority::new(0))
            .finish_task();
    }
    let set = builder.build().unwrap();
    let gray = GrayConfig::new().with_links(LinkSchedule::Explicit(vec![LinkDegradeWindow {
        at: t(0),
        span: d(1_000),
        from: 2,
        to: 3,
        extra_latency: d(10),
        jitter: Dur::ZERO,
        drop_permille: 0,
    }]));
    let cut = PartitionWindow {
        at: t(25),
        heal_delay: d(20),
        island: vec![3],
    };
    let faults =
        FaultConfig::gray_only(gray).with_partitions(PartitionSchedule::Explicit(vec![cut]));
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(5)
        .with_faults(faults)
        .with_transport(TransportConfig::new(d(4)).with_detector(DetectorConfig::new(d(10))));
    let mut log = HeardLog::default();
    let out = simulate_observed(&set, &cfg, &mut log).unwrap();
    assert!(out.reached_target);

    // Every processor reaches every peer, P2 → P3 excepted: that beat
    // lands a period later.
    let full = [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 0),
        (1, 2),
        (1, 3),
        (2, 0),
        (2, 1),
        (3, 0),
        (3, 1),
        (3, 2),
    ];
    // The cut is open: P3 neither sends nor hears, and the beat P2 sent
    // it at t = 20 dies at the boundary on arrival.
    let cut_off = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];
    let instants: [(i64, &[(usize, usize)]); 6] = [
        (10, &full),
        (20, &[(2, 3)]),
        (20, &full),
        (30, &cut_off),
        (40, &cut_off),
        (50, &full),
    ];
    let want: Vec<(i64, usize, usize)> = instants
        .iter()
        .flat_map(|&(at, pairs)| pairs.iter().map(move |&(f, o)| (at, f, o)))
        .collect();
    let got: Vec<_> = log.0.iter().copied().filter(|b| b.0 <= 50).collect();
    assert_eq!(got, want);
    // At t = 60 the beat P2 sent at 50 leads again.
    assert_eq!(log.0.iter().find(|b| b.0 == 60), Some(&(60, 2, 3)));
    // Severed: six beats at each cut instant (P3's three and the three
    // sent to it), plus the one in flight at t = 30.
    assert_eq!(out.fault_stats.severed_heartbeats, 13);
}

/// A gray window slowing (and, with `drop_permille`, dropping) both
/// directions between P0 and P1 for the whole run.
fn gray_links(extra: i64, drop_permille: u32) -> GrayConfig {
    let window = |from, to| LinkDegradeWindow {
        at: t(0),
        span: d(1_000_000),
        from,
        to,
        extra_latency: d(extra),
        jitter: Dur::ZERO,
        drop_permille,
    };
    GrayConfig::new().with_links(LinkSchedule::Explicit(vec![window(0, 1), window(1, 0)]))
}

/// Every frame an open cut severs counts exactly once, at send or at
/// arrival, in its own family's counter: transport frames in
/// `severed_transport`, heartbeats in `severed_heartbeats`, sync requests
/// and responses in the sync layer's `frames_severed`. Sweeping the cut's
/// start catches frames of every family both before and in flight. Acks
/// land in the instant they are sent, so no cut ever severs one. Signals,
/// in contrast, a gray link never drops.
#[test]
fn severed_frames_count_once_in_their_own_family() {
    let set = example2();
    let mut total = [0; 7];
    for start in 10..22 {
        let cut = PartitionWindow {
            at: t(start),
            heal_delay: d(30),
            island: vec![0],
        };
        let faults = FaultConfig::gray_only(gray_links(2, 0))
            .with_partitions(PartitionSchedule::Explicit(vec![cut]));
        let cfg = SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(40)
            .with_channel(ChannelModel::constant(d(3)))
            .with_faults(faults)
            .with_transport(TransportConfig::new(d(4)).with_detector(DetectorConfig::new(d(5))))
            .with_sync(SyncConfig::new(d(7)));
        let mut ledger = CutLedger::default();
        let out = simulate_observed(&set, &cfg, &mut ledger).unwrap();
        let (fs, sync) = (&out.fault_stats, &out.sync_stats);
        assert_eq!(fs.partitions, 1, "{fs:?}");
        assert_eq!(
            fs.severed_transport,
            ledger.transport.iter().sum(),
            "at {start}"
        );
        assert_eq!(
            fs.severed_heartbeats,
            ledger.heartbeat.iter().sum(),
            "at {start}"
        );
        assert_eq!(sync.frames_severed, ledger.sync.iter().sum(), "at {start}");
        assert_eq!(fs.severed_signals, 0, "transport frames are not signals");
        let counts = ledger
            .transport
            .iter()
            .chain(&ledger.heartbeat)
            .chain(&ledger.sync);
        for (sum, n) in total.iter_mut().zip(counts) {
            *sum += n;
        }
    }
    assert!(
        total.iter().all(|&n| n > 0),
        "every path is exercised: {total:?}"
    );
    // A gray link taxes signals with latency but never drops one: the
    // channel model alone owns signal loss.
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(40)
        .with_channel(ChannelModel::constant(d(1)))
        .with_faults(FaultConfig::gray_only(gray_links(1, 1000)));
    let out = simulate(&set, &cfg).unwrap();
    assert!(out.reached_target);
    assert!(out.fault_stats.gray_extra_latency_ticks > 0);
    let ch = &out.channel_stats;
    assert!(ch.sent > 0);
    assert_eq!(ch.applied, ch.sent, "every signal lands: {ch:?}");
}
