//! The gray-failure campaign: processor slowdowns × GC-pause stalls ×
//! degraded links, swept as a grid with a fixed-timeout and an adaptive
//! φ-accrual failure-detector arm over the *same* seeded conditions.
//!
//! Each run draws a synthetic §5.1 system (4 processors), lays a seeded
//! gray schedule over it — slow windows stretching execution by the
//! cell's factor, full-stop stalls, lossy/laggy link windows — and
//! simulates it twice with heartbeat failure detection riding the acked
//! endpoint transport: once under the fixed `suspect_after`/`dead_after`
//! cliff and once under φ-accrual with the `Degraded` intermediate
//! state. No processor ever actually crashes, so *every* Dead verdict
//! in the campaign is false by ground truth. The campaign reports, per
//! `(slow factor, stall span, link drop)` cell,
//!
//! * **verdict accuracy** — false-dead and false-suspect counts per arm,
//!   with the adaptive arm's Degraded verdicts scored against gray
//!   ground truth (`gray_hits`). The headline is the slowdown-only
//!   column: a merely-slow peer false-deads the fixed cliff on every
//!   stretched heartbeat gap while φ re-centers on the observed
//!   inter-arrival mean and holds at Degraded;
//! * **EER inflation** — mean per-task `avg-EER(gray) / avg-EER(benign)`
//!   per arm against a same-system, same-conditions run with every gray
//!   knob off — the cost of the degradation itself plus whatever the
//!   detector's false verdicts (forced releases, premature cadences)
//!   add on top;
//! * **invariant verdicts** — the [`InvariantObserver`] battery on both
//!   arms. Clock-independent safety invariants (precedence, signal
//!   conservation, down-processor silence) are fatal in every cell;
//!   load-dependent kinds (backlog growth, guard spacing) are recorded
//!   but non-fatal in gray cells, where a 16x slowdown legitimately
//!   piles up backlog.
//!
//! Like [`chaos`](crate::chaos) and [`adversary`](crate::adversary),
//! the campaign is embarrassingly parallel over runs and bit-for-bit
//! deterministic for a given seed regardless of the thread count.

use crate::campaign::{mean_inflation, paper_system, run_grid};
use crate::seeding::job_seed;
use crate::table::{col, Agg, Agg::*, Rows, Table, Value};
use rtsync_core::protocol::Protocol;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::ChannelModel;
use rtsync_sim::{
    DetectStats, DetectorConfig, FaultConfig, FaultStats, GrayConfig, InvariantKind,
    InvariantObserver, InvariantViolation, LinkSchedule, PhiConfig, SlowSchedule, StallSchedule,
    TransportConfig,
};

/// Gray-campaign parameters.
#[derive(Clone, Debug)]
pub struct GrayStudyConfig {
    /// Execution-rate divisors to sweep; `1` keeps processors at nominal
    /// speed. `8` stays below φ's dead threshold (9.2x the observed
    /// mean) while sailing past the fixed 6-period cliff; `16` crosses
    /// even φ's warmup deadline once per window — the adaptive arm's own
    /// cliff, documented rather than hidden.
    pub slow_factors: Vec<u32>,
    /// Stall spans (ticks) to sweep; `0` disables stalls. Spans beyond
    /// both arms' death thresholds false-dead *both* detectors — a long
    /// enough freeze is indistinguishable from death.
    pub stall_spans: Vec<i64>,
    /// Link drop probabilities (permille) to sweep; `0` disables link
    /// degradation windows.
    pub link_drops: Vec<u32>,
    /// Runs per grid cell; the protocol rotates over the run index, so 4
    /// runs cover DS/PM/MPM/RG.
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Heartbeat broadcast period (ticks).
    pub heartbeat: i64,
    /// Upper bound of the uniform channel latency (ticks).
    pub latency: i64,
    /// Span of every slow window (ticks).
    pub slow_span: i64,
    /// Mean healthy time between slow windows (ticks).
    pub slow_mean_healthy: i64,
    /// Mean healthy time between stalls (ticks).
    pub stall_mean_healthy: i64,
    /// Span of every link-degradation window (ticks).
    pub link_span: i64,
    /// Mean healthy time between link windows (ticks).
    pub link_mean_healthy: i64,
    /// Deterministic extra latency inside link windows (ticks).
    pub link_extra_latency: i64,
    /// Per-frame jitter bound inside link windows (ticks).
    pub link_jitter: i64,
    /// Consecutive deadline misses before the watchdog trips.
    pub watchdog_misses: u32,
    /// Master seed; system and condition seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for GrayStudyConfig {
    fn default() -> GrayStudyConfig {
        GrayStudyConfig {
            slow_factors: vec![1, 8, 16],
            stall_spans: vec![0, 40_000, 400_000],
            link_drops: vec![0, 200, 500],
            runs_per_cell: 4,
            n: 3,
            u: 0.6,
            instances_per_task: 10,
            heartbeat: 10_000,
            latency: 1_000,
            slow_span: 400_000,
            slow_mean_healthy: 20_000_000,
            stall_mean_healthy: 25_000_000,
            link_span: 1_000_000,
            link_mean_healthy: 10_000_000,
            link_extra_latency: 2_000,
            link_jitter: 1_000,
            watchdog_misses: 4,
            seed: 0x6EA7_FA11,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl GrayStudyConfig {
    /// A reduced campaign for CI smoke jobs and tests: the same three
    /// axes with fewer levels and runs.
    pub fn smoke(total_runs: usize) -> GrayStudyConfig {
        let cfg = GrayStudyConfig {
            slow_factors: vec![1, 8],
            stall_spans: vec![0, 400_000],
            link_drops: vec![0, 500],
            instances_per_task: 6,
            ..GrayStudyConfig::default()
        };
        let cells = cfg.slow_factors.len() * cfg.stall_spans.len() * cfg.link_drops.len();
        GrayStudyConfig {
            runs_per_cell: total_runs.div_ceil(cells).max(1),
            ..cfg
        }
    }

    /// Total runs in the campaign (each run simulates both detector arms
    /// plus one benign baseline).
    pub fn total_runs(&self) -> usize {
        self.slow_factors.len()
            * self.stall_spans.len()
            * self.link_drops.len()
            * self.runs_per_cell
    }
}

/// One grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellSpec {
    slow_factor: u32,
    stall_span: i64,
    link_drop: u32,
}

/// One detector arm's counters out of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArmStats {
    /// The detector's verdicts. Nothing crashes, so every dead verdict is
    /// false; only the φ arm reaches Degraded (and scores gray hits).
    pub detect: DetectStats,
    /// Mean per-task EER inflation over the benign twin (`NaN` when no
    /// task completed in both runs).
    pub mean_inflation: f64,
    /// `true` if the run stopped before resolving every instance.
    pub stalled: bool,
}

/// The verdict of one gray run (both arms over the same conditions).
#[derive(Clone, Debug)]
pub struct GrayVerdict {
    /// The protocol (rotates over the run index).
    pub protocol: Protocol,
    /// Execution-rate divisor of this run's cell.
    pub slow_factor: u32,
    /// Stall span of this run's cell (ticks, 0 = none).
    pub stall_span: i64,
    /// Link drop rate of this run's cell (permille, 0 = none).
    pub link_drop: u32,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// Seed of the run's condition streams (channel, gray schedules).
    pub cond_seed: u64,
    /// The fixed suspect/dead-cliff arm.
    pub fixed: ArmStats,
    /// The adaptive φ-accrual arm.
    pub adaptive: ArmStats,
    /// The adaptive arm's gray fault counters: slow windows, stalls and
    /// link windows entered, heartbeats dropped and latency added.
    pub faults: FaultStats,
    /// Fixed-arm invariant violations.
    pub fixed_violations: Vec<InvariantViolation>,
    /// Adaptive-arm invariant violations.
    pub adaptive_violations: Vec<InvariantViolation>,
}

impl GrayVerdict {
    /// Both arms' invariant violations, fixed arm first.
    fn violations(&self) -> impl Iterator<Item = &InvariantViolation> {
        self.fixed_violations
            .iter()
            .chain(&self.adaptive_violations)
    }

    /// Slowdowns only — the headline column: no stall or link window
    /// ever silences a peer outright, so a dead verdict has no excuse.
    fn slowdown_only(&self) -> bool {
        self.slow_factor > 1 && self.stall_span == 0 && self.link_drop == 0
    }

    /// `true` when both arms upheld every clock-independent safety
    /// invariant. Load-dependent kinds (backlog growth under a 16x
    /// slowdown, guard spacing under degraded-mode slack) are recorded
    /// but non-fatal once any gray persona is armed.
    pub fn is_clean(&self) -> bool {
        let gray = self.slow_factor > 1 || self.stall_span > 0 || self.link_drop > 0;
        let load_dependent = [InvariantKind::UnboundedBacklog, InvariantKind::GuardSpacing];
        self.violations()
            .filter(|v| !gray || !load_dependent.contains(&v.kind))
            .count()
            == 0
    }
}

/// The campaign's columns over its runs, both arms side by side,
/// folded per `(slow factor, stall span, link drop)` cell into
/// `gray_grid.csv` and per slow factor into `gray_summary.csv`.
#[rustfmt::skip]
const TABLE: Table<GrayVerdict> = Table(&[
    col("slow_factor", Key, Key, |v| v.slow_factor.into()),
    col("stall_span", Key, Key, |v| v.stall_span.into()),
    col("link_drop", Key, Key, |v| v.link_drop.into()),
    col("slowdown_only", Key, Key, |v| v.slowdown_only().into()),
    col("cells", Key, Count, |_| Value::None),
    col("runs", Count, Sum, |_| Value::None),
    col("slowdowns", Sum, Sum, |v| v.faults.slowdowns.into()),
    col("stalls", Sum, Sum, |v| v.faults.stalls.into()),
    col("link_degrades", Sum, Sum, |v| v.faults.link_degrades.into()),
    col("gray_dropped_heartbeats", Sum, Sum, |v| v.faults.gray_dropped_heartbeats.into()),
    col("fixed_false_deads", Sum, Sum, |v| v.fixed.detect.false_deads.into()),
    col("fixed_false_dead_rate", FIXED_RATE, FIXED_RATE, |_| Value::None),
    col("fixed_false_dead_gray", Sum, Sum, |v| v.fixed.detect.false_dead_gray.into()),
    col("fixed_false_suspects", Sum, Sum, |v| v.fixed.detect.false_suspects.into()),
    col("fixed_forced_releases", Sum, Sum, |v| v.fixed.detect.forced_releases.into()),
    col("fixed_watchdog_trips", Sum, Sum, |v| v.fixed.detect.watchdog_trips.into()),
    col("fixed_inflation", Mean, Mean, |v| v.fixed.mean_inflation.into()),
    col("adaptive_false_deads", Sum, Sum, |v| v.adaptive.detect.false_deads.into()),
    col("adaptive_false_dead_rate", ADAPTIVE_RATE, ADAPTIVE_RATE, |_| Value::None),
    col("adaptive_false_dead_gray", Sum, Sum, |v| v.adaptive.detect.false_dead_gray.into()),
    col("adaptive_false_suspects", Sum, Sum, |v| v.adaptive.detect.false_suspects.into()),
    col("adaptive_degradeds", Sum, Sum, |v| v.adaptive.detect.degradeds.into()),
    col("adaptive_gray_hits", Sum, Sum, |v| v.adaptive.detect.gray_hits.into()),
    col("adaptive_forced_releases", Sum, Sum, |v| v.adaptive.detect.forced_releases.into()),
    col("adaptive_watchdog_trips", Sum, Sum, |v| v.adaptive.detect.watchdog_trips.into()),
    col("adaptive_inflation", Mean, Mean, |v| v.adaptive.mean_inflation.into()),
    col("stalled_runs", Sum, Sum, |v| (v.fixed.stalled || v.adaptive.stalled).into()),
    col("invariant_violations", Sum, Sum, |v| v.violations().count().into()),
]);

/// Fixed-arm false deads per run.
const FIXED_RATE: Agg = Ratio("fixed_false_deads", "runs");

/// Adaptive-arm false deads per run.
const ADAPTIVE_RATE: Agg = Ratio("adaptive_false_deads", "runs");

/// The header of `gray_grid.csv`, one row per cell.
const GRID: &str = "slow_factor,stall_span,link_drop,slowdown_only,runs,\
    slowdowns,stalls,link_degrades,\
    fixed_false_deads,fixed_false_dead_gray,fixed_false_suspects,\
    fixed_forced_releases,fixed_watchdog_trips,fixed_inflation,\
    adaptive_false_deads,adaptive_false_dead_gray,adaptive_false_suspects,\
    adaptive_degradeds,adaptive_gray_hits,adaptive_forced_releases,\
    adaptive_watchdog_trips,adaptive_inflation,stalled_runs,\
    invariant_violations";

/// The header of `gray_summary.csv`, one row per slow factor.
const SUMMARY: &str = "slow_factor,cells,runs,fixed_false_deads,fixed_false_dead_rate,\
    adaptive_false_deads,adaptive_false_dead_rate,adaptive_degradeds,\
    adaptive_gray_hits,fixed_inflation,adaptive_inflation,\
    invariant_violations";

/// The whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct GrayOutcome {
    /// One row per cell, slow factors outer, stall spans middle, link
    /// drops inner: the columns of `gray_grid.csv`.
    pub cells: Rows,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<GrayVerdict>,
}

impl GrayOutcome {
    /// `true` when every run upheld every clock-independent safety
    /// invariant in both arms.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(GrayVerdict::is_clean)
    }

    /// The failing runs.
    pub fn failures(&self) -> Vec<&GrayVerdict> {
        self.verdicts.iter().filter(|v| !v.is_clean()).collect()
    }

    /// `true` when the adaptive arm strictly dominates the fixed arm on
    /// false deads in every slowdown-only cell that false-deads at all —
    /// the campaign's headline claim.
    pub fn adaptive_dominates(&self) -> bool {
        let mut headline = self.cells.iter().filter(|c| c.flag("slowdown_only"));
        headline.all(|c| {
            let (fixed, adaptive) = (c.int("fixed_false_deads"), c.int("adaptive_false_deads"));
            fixed + adaptive == 0 || adaptive < fixed
        })
    }
}

/// The gray personas of one cell, seeded from the run's condition seed.
fn gray_config(cfg: &GrayStudyConfig, cell: CellSpec, cond_seed: u64) -> GrayConfig {
    let mut gray = GrayConfig::new().with_frame_seed(cond_seed ^ 0xF4A3_E0E0);
    if cell.slow_factor > 1 {
        gray = gray.with_slow(SlowSchedule::Random {
            mean_healthy: Dur::from_ticks(cfg.slow_mean_healthy),
            span: Dur::from_ticks(cfg.slow_span),
            factor: cell.slow_factor,
            seed: cond_seed ^ 0x510_0000,
        });
    }
    if cell.stall_span > 0 {
        gray = gray.with_stalls(StallSchedule::Random {
            mean_healthy: Dur::from_ticks(cfg.stall_mean_healthy),
            span: Dur::from_ticks(cell.stall_span),
            seed: cond_seed ^ 0x57A_1100,
        });
    }
    if cell.link_drop > 0 {
        gray = gray.with_links(LinkSchedule::Random {
            mean_healthy: Dur::from_ticks(cfg.link_mean_healthy),
            span: Dur::from_ticks(cfg.link_span),
            extra_latency: Dur::from_ticks(cfg.link_extra_latency),
            jitter: Dur::from_ticks(cfg.link_jitter),
            drop_permille: cell.link_drop,
            seed: cond_seed ^ 0x11C4_0000,
        });
    }
    gray
}

/// The endpoint transport of one arm: acked signals plus the heartbeat
/// detector, fixed cliff or φ-accrual.
fn transport(cfg: &GrayStudyConfig, cond_seed: u64, phi: bool) -> TransportConfig {
    let mut det =
        DetectorConfig::new(Dur::from_ticks(cfg.heartbeat)).with_watchdog(cfg.watchdog_misses);
    if phi {
        det = det.with_phi(PhiConfig::new());
    }
    TransportConfig::new(Dur::from_ticks((4 * cfg.latency).max(250)))
        .with_seed(cond_seed ^ 0xF00D)
        .with_detector(det)
}

/// Evaluates one run of one cell: a benign baseline plus both detector
/// arms over the same seeded gray schedule.
fn evaluate_run(
    cfg: &GrayStudyConfig,
    cell: CellSpec,
    run_index: usize,
    system_seed: u64,
    cond_seed: u64,
) -> GrayVerdict {
    let set = paper_system(cfg.n, cfg.u, system_seed);
    let protocol = Protocol::ALL[run_index % Protocol::ALL.len()];
    let channel = ChannelModel::uniform(Dur::ZERO, Dur::from_ticks(cfg.latency))
        .with_seed(cond_seed ^ 0x5ca1_ab1e);

    let base = |phi: bool| {
        SimConfig::new(protocol)
            .with_instances(cfg.instances_per_task)
            .with_channel(channel)
            .with_transport(transport(cfg, cond_seed, phi))
    };

    // The benign twin: same system, channel, transport and detector
    // cadence, every gray knob off — the inflation baseline. Detector
    // mode is irrelevant without gray faults (no verdict ever fires), so
    // one baseline serves both arms.
    let baseline = simulate(&set, &base(false)).expect("paper systems are analyzable under SA/PM");

    let arm = |phi: bool| {
        let sim = base(phi).with_faults(FaultConfig::gray_only(gray_config(cfg, cell, cond_seed)));
        let mut obs = InvariantObserver::default();
        let out = simulate_observed(&set, &sim, &mut obs)
            .expect("paper systems are analyzable under SA/PM");
        obs.check_outcome(&out);
        let stats = ArmStats {
            detect: out.detect_stats,
            mean_inflation: mean_inflation(&baseline, &out),
            stalled: !out.reached_target,
        };
        (stats, out, obs.violations().to_vec())
    };

    let (fixed, _, fixed_violations) = arm(false);
    let (adaptive, adaptive_out, adaptive_violations) = arm(true);

    GrayVerdict {
        protocol,
        slow_factor: cell.slow_factor,
        stall_span: cell.stall_span,
        link_drop: cell.link_drop,
        run_index,
        system_seed,
        cond_seed,
        fixed,
        adaptive,
        faults: adaptive_out.fault_stats,
        fixed_violations,
        adaptive_violations,
    }
}

/// Runs the whole campaign: `slow factors × stall spans × link drops ×
/// runs_per_cell` seeded runs, two detector arms each. Cells come back
/// factors-outer, spans-middle, drops-inner; verdicts in (cell, run)
/// order. The outcome is bit-for-bit deterministic for a given config
/// regardless of `threads`.
pub fn run_gray(cfg: &GrayStudyConfig) -> GrayOutcome {
    let cells: Vec<CellSpec> = cfg
        .slow_factors
        .iter()
        .flat_map(|&slow_factor| {
            cfg.stall_spans.iter().flat_map(move |&stall_span| {
                cfg.link_drops.iter().map(move |&link_drop| CellSpec {
                    slow_factor,
                    stall_span,
                    link_drop,
                })
            })
        })
        .collect();
    let verdicts = run_grid(cells.len(), cfg.runs_per_cell, cfg.threads, |c, r| {
        let system_seed = job_seed(cfg.seed, 0, r);
        let cond_seed = job_seed(cfg.seed, c + 1, r);
        evaluate_run(cfg, cells[c], r, system_seed, cond_seed)
    });

    let cells = TABLE.cells(&verdicts, cfg.runs_per_cell);
    GrayOutcome { cells, verdicts }
}

/// The campaign's records: `gray_grid.csv`, one row per grid coordinate
/// with both arms side by side, and `gray_summary.csv`, one row per slow
/// factor folded over the stall and link axes (the false-dead cliff in
/// three lines).
pub fn records(outcome: &GrayOutcome) -> Vec<String> {
    let summary = TABLE.summary(&outcome.cells, "slow_factor", None);
    vec![outcome.cells.csv(GRID), summary.csv(SUMMARY)]
}

/// ASCII rendering of the campaign for the terminal.
pub fn render(outcome: &GrayOutcome) -> String {
    let mut out = String::from(
        "gray campaign: false deads fixed vs adaptive (degradeds | gray hits | dropped hbs)\n",
    );
    for c in outcome.cells.iter() {
        out.push_str(&format!(
            "  slow {:>2}x stall {:>7} drop {:>3}: {:>4} vs {:<4} ({:>5} | {:>5} | {:>5}){}{}\n",
            c.get("slow_factor"),
            c.get("stall_span"),
            c.get("link_drop"),
            c.get("fixed_false_deads"),
            c.get("adaptive_false_deads"),
            c.get("adaptive_degradeds"),
            c.get("adaptive_gray_hits"),
            c.get("gray_dropped_heartbeats"),
            if c.flag("slowdown_only") {
                "  <- headline"
            } else {
                ""
            },
            c.note("invariant_violations", "recorded violations"),
        ));
    }
    let failures = outcome.failures();
    out.push_str(&format!(
        "{} runs, {} failing, adaptive dominates slowdown-only cells: {}\n",
        outcome.verdicts.len(),
        failures.len(),
        outcome.adaptive_dominates(),
    ));
    for v in failures {
        out.push_str(&format!(
            "  FAIL {} slow={} stall={} drop={} run={} seed={:#018x}: {}\n",
            v.protocol.tag(),
            v.slow_factor,
            v.stall_span,
            v.link_drop,
            v.run_index,
            v.cond_seed,
            v.violations()
                .next()
                .map_or_else(|| "stalled".to_string(), |viol| viol.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GrayStudyConfig {
        GrayStudyConfig {
            slow_factors: vec![1, 8],
            stall_spans: vec![0],
            link_drops: vec![0],
            runs_per_cell: 2,
            instances_per_task: 5,
            threads: 2,
            ..GrayStudyConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_adaptive_dominates_slowdowns() {
        let outcome = run_gray(&tiny_cfg());
        assert!(
            outcome.is_clean(),
            "{:?}",
            outcome
                .failures()
                .first()
                .map(|v| (&v.fixed_violations, &v.adaptive_violations))
        );
        assert_eq!(outcome.verdicts.len(), 4);
        let slowdowns: i128 = outcome.cells.iter().map(|c| c.int("slowdowns")).sum();
        assert!(slowdowns > 0, "slow cells must enter slow windows");
        let headline: Vec<_> = (outcome.cells.iter())
            .filter(|c| c.flag("slowdown_only"))
            .collect();
        assert!(!headline.is_empty());
        for c in &headline {
            assert!(
                c.int("fixed_false_deads") > 0,
                "the fixed cliff must false-dead the slow peer: {c:?}"
            );
            assert_eq!(
                c.int("adaptive_false_deads"),
                0,
                "φ must absorb an 8x slowdown: {c:?}"
            );
            assert!(c.int("adaptive_gray_hits") > 0, "{c:?}");
        }
        assert!(outcome.adaptive_dominates());
    }

    #[test]
    fn smoke_config_covers_the_grid() {
        let cfg = GrayStudyConfig::smoke(16);
        assert!(cfg.total_runs() >= 16);
        assert!(cfg.slow_factors.contains(&1) && cfg.slow_factors.iter().any(|&f| f > 1));
        assert!(cfg.stall_spans.iter().any(|&s| s > 0));
        assert!(cfg.link_drops.iter().any(|&d| d > 0));
    }
}
