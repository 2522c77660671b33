//! The transport study: endpoint-driven reliable signaling measured over
//! a grid of drop rate × retransmission timeout × backoff, for all four
//! protocols, plus a failure-detector leg against a ground-truth crash
//! schedule.
//!
//! Each grid run draws a synthetic §5.1 system, attaches a constant-
//! latency channel with seeded endpoint drops and the ack/retransmit
//! transport (unbounded retry budget), and simulates it next to a
//! drop-free twin of the same system. The study reports, per
//! `(protocol, drop rate, timeout, backoff)` cell,
//!
//! * **deadline-miss-or-loss ratio** — `(missed + lost) / (measured +
//!   lost)` end-to-end instances;
//! * **EER inflation** — mean per-task `avg-EER(lossy) /
//!   avg-EER(drop-free)`, isolating what retransmission delay alone
//!   costs;
//! * **transport counters** — frames, retransmissions, duplicate
//!   deliveries, abandoned frames (always zero here: the budget is
//!   unbounded).
//!
//! The detector leg injects seeded random crashes
//! ([`rtsync_sim::CrashSchedule::Random`]) under a heartbeat failure
//! detector and reports detection accuracy against the ground-truth
//! schedule: suspects/deads with their false-positive counts, the
//! false-positive rate, forced (degraded) releases and suppressed stale
//! signals.
//!
//! Like [`chaos`](crate::chaos), both legs are embarrassingly parallel
//! over runs and bit-for-bit deterministic for a given seed regardless
//! of the thread count.

use crate::campaign::{mean_inflation, paper_system, run_grid, Instances};
use crate::seeding::job_seed;
use crate::table::{col, Agg, Agg::*, Rows, Table, Value};
use rtsync_core::protocol::Protocol;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig};
use rtsync_sim::nonideal::ChannelModel;
use rtsync_sim::{
    DetectStats, DetectorConfig, FaultConfig, TransportConfig, TransportStats, ViolationKind,
};

/// Transport-study parameters.
#[derive(Clone, Debug)]
pub struct TransportStudyConfig {
    /// Protocols under test.
    pub protocols: Vec<Protocol>,
    /// Endpoint drop probabilities, one grid level per value.
    pub drop_rates: Vec<f64>,
    /// Initial retransmission timeouts (ticks), one grid level per value.
    pub timeouts: Vec<i64>,
    /// Exponential backoff factors, one grid level per value (the timeout
    /// cap is always `8 × timeout`).
    pub backoffs: Vec<u32>,
    /// Runs per grid cell (distinct synthetic systems).
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Constant one-way signal latency (ticks).
    pub signal_latency: i64,
    /// Detector leg: mean uptime between crashes (ticks).
    pub mean_uptime: i64,
    /// Detector leg: restart delay after each crash (ticks).
    pub restart_delay: i64,
    /// Detector leg: heartbeat period (ticks); suspicion and death
    /// thresholds keep their defaults (3× and 6× the period).
    pub heartbeat_period: i64,
    /// Detector leg: runs per protocol.
    pub detector_runs: usize,
    /// Master seed; system and channel seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for TransportStudyConfig {
    fn default() -> TransportStudyConfig {
        TransportStudyConfig {
            protocols: Protocol::ALL.to_vec(),
            drop_rates: vec![0.0, 0.1, 0.3, 0.5],
            timeouts: vec![2_000, 8_000],
            backoffs: vec![1, 2],
            runs_per_cell: 3,
            n: 3,
            u: 0.6,
            instances_per_task: 10,
            signal_latency: 1_000,
            mean_uptime: 2_000_000,
            restart_delay: 300_000,
            heartbeat_period: 10_000,
            detector_runs: 5,
            seed: 0x7EA5_0A7B,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl TransportStudyConfig {
    /// A reduced study for CI smoke jobs and tests: the same axes with
    /// fewer levels and runs.
    pub fn smoke() -> TransportStudyConfig {
        TransportStudyConfig {
            drop_rates: vec![0.0, 0.3],
            timeouts: vec![2_000],
            backoffs: vec![2],
            runs_per_cell: 1,
            instances_per_task: 6,
            detector_runs: 2,
            ..TransportStudyConfig::default()
        }
    }

    /// Total grid runs (the detector leg adds `protocols × detector_runs`).
    pub fn total_grid_runs(&self) -> usize {
        self.protocols.len()
            * self.drop_rates.len()
            * self.timeouts.len()
            * self.backoffs.len()
            * self.runs_per_cell
    }
}

/// The whole study's outcome.
#[derive(Clone, Debug)]
pub struct TransportOutcome {
    /// One row per grid cell, protocol outer, then drop rate, timeout,
    /// backoff: the columns of `transport_grid.csv`.
    pub cells: Rows,
    /// Detector-leg accuracy, one row per protocol: the columns of
    /// `transport_summary.csv`.
    pub detectors: Rows,
}

impl TransportOutcome {
    /// `true` when no run abandoned a frame, lost an instance to the
    /// transport, or stalled.
    pub fn is_clean(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.int("gave_up") == 0 && c.int("stalls") == 0)
            && self.detectors.iter().all(|d| d.int("signal_lost") == 0)
    }
}

/// One grid run: a lossy run next to its drop-free twin.
struct GridRun {
    cell: (Protocol, f64, i64, u32),
    transport: TransportStats,
    instances: Instances,
    inflation: f64,
    stalled: bool,
}

/// The grid's columns, folded per `(protocol, drop rate, timeout,
/// backoff)` cell.
#[rustfmt::skip]
const GRID_TABLE: Table<GridRun> = Table(&[
    col("protocol", Key, Key, |r| r.cell.0.tag().into()),
    col("drop_rate", Key, Key, |r| Value::Plain(r.cell.1)),
    col("timeout", Key, Key, |r| r.cell.2.into()),
    col("backoff", Key, Key, |r| r.cell.3.into()),
    col("runs", Count, Count, |_| Value::None),
    col("sent", Sum, Sum, |r| r.transport.sent.into()),
    col("retransmissions", Sum, Sum, |r| r.transport.retransmissions.into()),
    col("dup_deliveries", Sum, Sum, |r| r.transport.dup_deliveries.into()),
    col("gave_up", Sum, Sum, |r| r.transport.gave_up.into()),
    col("lost", Sum, Sum, |r| r.instances.lost.into()),
    col("missed_or_lost", Sum, Sum, |r| r.instances.missed_or_lost().into()),
    col("resolved", Sum, Sum, |r| r.instances.resolved().into()),
    col("miss_or_loss_ratio", MISS_OR_LOSS, MISS_OR_LOSS, |_| Value::None),
    col("mean_inflation", Mean, Mean, |r| r.inflation.into()),
    col("stalls", Sum, Sum, |r| r.stalled.into()),
]);

/// `(missed + lost) / (measured + lost)` over a row's runs.
const MISS_OR_LOSS: Agg = Ratio("missed_or_lost", "resolved");

/// The header of `transport_grid.csv`.
const GRID: &str = "protocol,drop_rate,timeout,backoff,runs,sent,retransmissions,\
    dup_deliveries,gave_up,lost,miss_or_loss_ratio,mean_inflation,stalls";

fn grid_sim(cfg: &TransportStudyConfig, cell: &(Protocol, f64, i64, u32), seed: u64) -> SimConfig {
    let &(protocol, drop, timeout, backoff) = cell;
    let channel = ChannelModel::constant(Dur::from_ticks(cfg.signal_latency))
        .with_endpoint_drops(drop)
        .with_seed(seed ^ 0xCAFE);
    SimConfig::new(protocol)
        .with_instances(cfg.instances_per_task)
        .with_channel(channel)
        .with_transport(
            TransportConfig::new(Dur::from_ticks(timeout))
                .with_backoff(backoff, Dur::from_ticks(8 * timeout))
                .with_seed(seed ^ 0xF00D),
        )
}

fn evaluate_grid_run(
    cfg: &TransportStudyConfig,
    cell: &(Protocol, f64, i64, u32),
    system_seed: u64,
) -> GridRun {
    let set = paper_system(cfg.n, cfg.u, system_seed);
    let lossy = simulate(&set, &grid_sim(cfg, cell, system_seed))
        .expect("study systems are analyzable under SA/PM");
    // The drop-free twin rides the identical channel and transport so the
    // inflation attributes retransmission delay alone.
    let twin_cell = (cell.0, 0.0, cell.2, cell.3);
    let baseline = simulate(&set, &grid_sim(cfg, &twin_cell, system_seed))
        .expect("study systems are analyzable under SA/PM");

    GridRun {
        cell: *cell,
        instances: Instances::of(&lossy),
        inflation: mean_inflation(&baseline, &lossy),
        stalled: !lossy.reached_target,
        transport: lossy.transport_stats,
    }
}

/// One detector-leg run: random crashes under the heartbeat detector.
struct DetectorRun {
    protocol: Protocol,
    crashes: u64,
    detect: DetectStats,
    signal_lost: u64,
    instances: Instances,
}

/// The detector leg's columns, folded per protocol: detection accuracy
/// against the ground-truth crash schedule.
#[rustfmt::skip]
const DETECTOR_TABLE: Table<DetectorRun> = Table(&[
    col("protocol", Key, Key, |r| r.protocol.tag().into()),
    col("runs", Count, Count, |_| Value::None),
    col("crashes", Sum, Sum, |r| r.crashes.into()),
    col("heartbeats", Sum, Sum, |r| r.detect.heartbeats_sent.into()),
    col("suspects", Sum, Sum, |r| r.detect.suspects.into()),
    col("false_suspects", Sum, Sum, |r| r.detect.false_suspects.into()),
    col("deads", Sum, Sum, |r| r.detect.deads.into()),
    col("false_deads", Sum, Sum, |r| r.detect.false_deads.into()),
    col("false_positive_rate", FALSE_DEADS, FALSE_DEADS, |_| Value::None),
    col("forced_releases", Sum, Sum, |r| r.detect.forced_releases.into()),
    col("stale_suppressed", Sum, Sum, |r| r.detect.stale_signals_suppressed.into()),
    col("signal_lost", Sum, Sum, |r| r.signal_lost.into()),
    col("lost", Sum, Sum, |r| r.instances.lost.into()),
    col("missed_or_lost", Sum, Sum, |r| r.instances.missed_or_lost().into()),
    col("resolved", Sum, Sum, |r| r.instances.resolved().into()),
    col("miss_or_loss_ratio", MISS_OR_LOSS, MISS_OR_LOSS, |_| Value::None),
]);

/// `false_deads / deads`: the detector's false-positive rate.
const FALSE_DEADS: Agg = Ratio("false_deads", "deads");

/// The header of `transport_summary.csv`, one row per protocol.
const DETECTORS: &str = "protocol,runs,crashes,heartbeats,suspects,false_suspects,deads,\
    false_deads,false_positive_rate,forced_releases,stale_suppressed,\
    signal_lost,lost,miss_or_loss_ratio";

fn evaluate_detector_run(
    cfg: &TransportStudyConfig,
    protocol: Protocol,
    system_seed: u64,
    fault_seed: u64,
) -> DetectorRun {
    let set = paper_system(cfg.n, cfg.u, system_seed);
    let channel = ChannelModel::constant(Dur::from_ticks(cfg.signal_latency))
        .with_endpoint_drops(0.2)
        .with_seed(system_seed ^ 0xCAFE);
    let faults = FaultConfig::random(
        Dur::from_ticks(cfg.mean_uptime),
        Dur::from_ticks(cfg.restart_delay),
        fault_seed,
    );
    let sim = SimConfig::new(protocol)
        .with_instances(cfg.instances_per_task)
        .with_channel(channel)
        .with_faults(faults)
        .with_transport(
            TransportConfig::new(Dur::from_ticks(4 * cfg.signal_latency.max(250)))
                .with_seed(system_seed ^ 0xF00D)
                .with_detector(DetectorConfig::new(Dur::from_ticks(cfg.heartbeat_period))),
        );
    let out = simulate(&set, &sim).expect("study systems are analyzable under SA/PM");
    DetectorRun {
        protocol,
        crashes: out.fault_stats.crashes,
        detect: out.detect_stats,
        signal_lost: out
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::SignalLost)
            .count() as u64,
        instances: Instances::of(&out),
    }
}

/// Runs the whole study: the drop × timeout × backoff grid (unbounded
/// retry budget) and the detector leg (random crashes, heartbeat
/// detection). Bit-for-bit deterministic for a given config regardless
/// of `threads`.
pub fn run_transport_study(cfg: &TransportStudyConfig) -> TransportOutcome {
    let cells: Vec<(Protocol, f64, i64, u32)> = cfg
        .protocols
        .iter()
        .flat_map(|&p| {
            cfg.drop_rates.iter().flat_map(move |&d| {
                cfg.timeouts
                    .iter()
                    .flat_map(move |&t| cfg.backoffs.iter().map(move |&b| (p, d, t, b)))
            })
        })
        .collect();

    let grid_results = run_grid(cells.len(), cfg.runs_per_cell, cfg.threads, |c, r| {
        evaluate_grid_run(cfg, &cells[c], job_seed(cfg.seed, 0, r))
    });

    let det_results = run_grid(
        cfg.protocols.len(),
        cfg.detector_runs,
        cfg.threads,
        |p, r| {
            evaluate_detector_run(
                cfg,
                cfg.protocols[p],
                job_seed(cfg.seed, 0, r),
                job_seed(cfg.seed, p + 1, r),
            )
        },
    );

    TransportOutcome {
        cells: GRID_TABLE.cells(&grid_results, cfg.runs_per_cell),
        detectors: DETECTOR_TABLE.cells(&det_results, cfg.detector_runs),
    }
}

/// The study's records: `transport_grid.csv`, one row per `(protocol,
/// drop rate, timeout, backoff)` cell, and `transport_summary.csv`, the
/// detector leg with one row per protocol.
pub fn records(outcome: &TransportOutcome) -> Vec<String> {
    vec![outcome.cells.csv(GRID), outcome.detectors.csv(DETECTORS)]
}

/// ASCII rendering of the study for the terminal.
pub fn render(outcome: &TransportOutcome) -> String {
    let mut out =
        String::from("transport study: miss-or-loss ratio (EER inflation | retransmissions)\n");
    for c in outcome.cells.iter() {
        out.push_str(&format!(
            "  {:>3} drop {:.2} rto {:>5} x{}: {:<7} (x{:<7} | {:>5} retx){}{}\n",
            c.get("protocol"),
            c.real("drop_rate"),
            c.get("timeout"),
            c.get("backoff"),
            c.get("miss_or_loss_ratio"),
            c.get("mean_inflation"),
            c.get("retransmissions"),
            c.note("gave_up", "ABANDONED"),
            c.note("stalls", "STALLED"),
        ));
    }
    out.push_str("detector accuracy vs ground truth:\n");
    for d in outcome.detectors.iter() {
        out.push_str(&format!(
            "  {:>3}: {} crashes, {} dead declarations ({} false, fp-rate {}), \
             {} forced releases, {} stale suppressed\n",
            d.get("protocol"),
            d.get("crashes"),
            d.get("deads"),
            d.get("false_deads"),
            match d.int("deads") {
                0 => "-".to_string(),
                _ => d.get("false_positive_rate").to_string(),
            },
            d.get("forced_releases"),
            d.get("stale_suppressed"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TransportStudyConfig {
        TransportStudyConfig {
            drop_rates: vec![0.0, 0.3],
            timeouts: vec![2_000],
            backoffs: vec![2],
            runs_per_cell: 1,
            instances_per_task: 5,
            detector_runs: 1,
            threads: 2,
            ..TransportStudyConfig::default()
        }
    }

    #[test]
    fn study_is_clean_and_retransmits() {
        let outcome = run_transport_study(&tiny_cfg());
        assert!(outcome.is_clean());
        assert_eq!(outcome.cells.iter().count(), 8);
        assert_eq!(outcome.detectors.iter().count(), 4);
        let retx: i128 = outcome.cells.iter().map(|c| c.int("retransmissions")).sum();
        assert!(retx > 0, "30% drops must force retransmissions");
        // Drop-free cells never retransmit (acks are loss-free here).
        for c in outcome.cells.iter().filter(|c| c.real("drop_rate") == 0.0) {
            assert_eq!(c.int("retransmissions"), 0, "{c:?}");
            assert_eq!(c.int("lost"), 0, "{c:?}");
        }
        let crashes: i128 = outcome.detectors.iter().map(|d| d.int("crashes")).sum();
        assert!(crashes > 0, "the detector leg must actually crash nodes");
    }

    #[test]
    fn smoke_config_covers_every_protocol() {
        let cfg = TransportStudyConfig::smoke();
        assert_eq!(cfg.protocols.len(), 4);
        assert!(cfg.total_grid_runs() >= 8);
    }
}
