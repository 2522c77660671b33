//! The clock-synchronization study: does sync reopen PM's viability
//! under nonideal clocks, and how accurate does it have to be?
//!
//! The robustness grid ([`robustness`](crate::robustness)) shows PM —
//! the only protocol that reads absolute local time — inflating its
//! end-to-end responses 4–5x under 5% drift, while MPM and RG shrug it
//! off. This study attaches the [`rtsync_sim::sync`] layer to PM and
//! sweeps **drift × latency × sync-period** on the same synthetic §5.1
//! systems. Per `(drift, latency, period)` cell it reports
//!
//! * **PM synced EER inflation** — mean per-task
//!   `avg-EER(synced nonideal) / avg-EER(ideal)`;
//! * **achieved clock error** — the oracle mean/max `|corrected local −
//!   true|` sampled at sync rounds ([`rtsync_sim::SyncStats`]), the
//!   residual `drift · period + RTT/2` floor made measurable;
//! * **sync cost** — rounds, frames, and the sync share of all channel
//!   traffic;
//! * **PM precedence violations** with sync on (drift breaks PM's
//!   release-time math outright; sync must repair that too).
//!
//! The summary then locates, per `(drift, latency)`, the **viability
//! threshold**: the coarsest sync period at which synced PM still beats
//! the better of MPM and RG on EER inflation, together with the achieved
//! clock error at that period — the sync accuracy PM needs before it is
//! competitive again (the sensitivity framing of Sun, Soulat & Lipari's
//! parametric analysis, measured instead of derived).
//!
//! Like the other studies the run is embarrassingly parallel over
//! systems and bit-for-bit deterministic for a given seed regardless of
//! thread count.

use crate::campaign::{paper_system, run_grid, InflTally};
use crate::seeding::job_seed;
use crate::table::{col, Agg, Agg::*, Row, Rows, Table, Value};
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig, SimOutcome};
use rtsync_sim::nonideal::{ChannelModel, ClockModel, NonidealConfig};
use rtsync_sim::{SyncConfig, SyncPolicy, SyncStats, ViolationKind};

/// Sync-study parameters.
#[derive(Clone, Debug)]
pub struct SyncStudyConfig {
    /// Clock drift bounds ε in ppm (> 0 — an ideal clock needs no sync).
    pub drift_ppm_values: Vec<i64>,
    /// Signal latency bounds L in ticks (0 = instantaneous wire; sync
    /// frames then still flow as zero-delay events).
    pub latency_values: Vec<i64>,
    /// Sync-round periods in ticks, the accuracy axis: residual clock
    /// error scales like `drift · period + latency/2`.
    pub sync_periods: Vec<i64>,
    /// The correction policy of the synced runs.
    pub policy: SyncPolicy,
    /// Clock offset bound in ticks (a drifting clock also starts
    /// misaligned).
    pub max_offset: i64,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// Systems evaluated per grid cell (the *same* systems in every cell).
    pub systems_per_config: usize,
    /// Master seed; system and nonideal seeds derive from it.
    pub seed: u64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Worker threads.
    pub threads: usize,
    /// Analysis knobs (PM/MPM need SA/PM bounds).
    pub analysis: AnalysisConfig,
}

impl Default for SyncStudyConfig {
    fn default() -> SyncStudyConfig {
        SyncStudyConfig {
            drift_ppm_values: vec![10_000, 50_000],
            latency_values: vec![0, 1_000, 20_000],
            sync_periods: vec![10_000, 50_000, 200_000, 1_000_000],
            policy: SyncPolicy::Step,
            max_offset: 1_000,
            n: 3,
            u: 0.6,
            systems_per_config: 10,
            seed: 0xD81F_7002,
            instances_per_task: 10,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            analysis: AnalysisConfig::default(),
        }
    }
}

impl SyncStudyConfig {
    /// A reduced study for CI smoke jobs and tests: the same axes with
    /// fewer levels and systems.
    pub fn smoke() -> SyncStudyConfig {
        SyncStudyConfig {
            drift_ppm_values: vec![50_000],
            latency_values: vec![0, 1_000],
            sync_periods: vec![20_000, 500_000],
            systems_per_config: 2,
            instances_per_task: 5,
            ..SyncStudyConfig::default()
        }
    }

    /// Simulation runs the study performs: per cell and system, one
    /// ideal + one unsynced run for each of PM/MPM/RG, plus one synced
    /// PM run per period.
    pub fn total_runs(&self) -> usize {
        self.drift_ppm_values.len()
            * self.latency_values.len()
            * self.systems_per_config
            * (6 + self.sync_periods.len())
    }
}

/// One synced PM run of one system at one period.
#[derive(Clone, Default)]
struct PeriodTally {
    drift_ppm: i64,
    latency: i64,
    sync_period: i64,
    inflation: InflTally,
    precedence_violations: u64,
    sync_error_sum: i64,
    sync_error_samples: u64,
    sync_max_error: i64,
    sync_max_uncertainty: i64,
    sync_rounds: u64,
    sync_frames: u64,
    channel_sent: u64,
}

/// One system's results in one `(drift, latency)` cell.
#[derive(Clone, Default)]
struct SystemTally {
    drift_ppm: i64,
    latency: i64,
    pm_unsynced: InflTally,
    pm_unsynced_precedence: u64,
    mpm: InflTally,
    rg: InflTally,
    per_period: Vec<PeriodTally>,
}

/// The grid's columns over synced PM runs, folded per `(drift, latency,
/// period)` over the cell's systems. Inflation pools every system's
/// per-task ratios: a sum of sums over a count of counts.
#[rustfmt::skip]
const GRID_TABLE: Table<PeriodTally> = Table(&[
    col("drift_ppm", Key, Key, |t| t.drift_ppm.into()),
    col("latency", Key, Key, |t| t.latency.into()),
    col("sync_period", Key, Key, |t| t.sync_period.into()),
    col("inflation_sum", Sum, Sum, |t| t.inflation.sum.into()),
    col("inflation_count", Sum, Sum, |t| t.inflation.count.into()),
    col("pm_synced_inflation", INFLATION, INFLATION, |_| Value::None),
    col("pm_synced_precedence", Sum, Sum, |t| t.precedence_violations.into()),
    col("clock_error_sum", Sum, Sum, |t| t.sync_error_sum.into()),
    col("clock_error_samples", Sum, Sum, |t| t.sync_error_samples.into()),
    col("mean_clock_error", CLOCK_ERROR, CLOCK_ERROR, |_| Value::None),
    col("max_clock_error", Max, Max, |t| t.sync_max_error.into()),
    col("max_uncertainty", Max, Max, |t| t.sync_max_uncertainty.into()),
    col("sync_rounds", Sum, Sum, |t| t.sync_rounds.into()),
    col("sync_frames", Sum, Sum, |t| t.sync_frames.into()),
    col("channel_sent", Sum, Sum, |t| t.channel_sent.into()),
    col("sync_traffic_share", TRAFFIC, TRAFFIC, |_| Value::None),
]);

const INFLATION: Agg = Ratio("inflation_sum", "inflation_count");
const CLOCK_ERROR: Agg = Ratio("clock_error_sum", "clock_error_samples");
const TRAFFIC: Agg = Ratio("sync_frames", "channel_sent");

/// The unsynced baselines' columns, pooled per `(drift, latency)` over
/// the cell's systems like [`GRID_TABLE`]'s inflation.
#[rustfmt::skip]
const BASELINE_TABLE: Table<SystemTally> = Table(&[
    col("drift_ppm", Key, Key, |t| t.drift_ppm.into()),
    col("latency", Key, Key, |t| t.latency.into()),
    col("pm_sum", Sum, Sum, |t| t.pm_unsynced.sum.into()),
    col("pm_count", Sum, Sum, |t| t.pm_unsynced.count.into()),
    col("pm_unsynced_inflation", PM, PM, |_| Value::None),
    col("pm_unsynced_precedence", Sum, Sum, |t| t.pm_unsynced_precedence.into()),
    col("mpm_sum", Sum, Sum, |t| t.mpm.sum.into()),
    col("mpm_count", Sum, Sum, |t| t.mpm.count.into()),
    col("mpm_inflation", MPM, MPM, |_| Value::None),
    col("rg_sum", Sum, Sum, |t| t.rg.sum.into()),
    col("rg_count", Sum, Sum, |t| t.rg.count.into()),
    col("rg_inflation", RG, RG, |_| Value::None),
]);

const PM: Agg = Ratio("pm_sum", "pm_count");
const MPM: Agg = Ratio("mpm_sum", "mpm_count");
const RG: Agg = Ratio("rg_sum", "rg_count");

/// The header of `sync_grid.csv`, one row per `(drift, latency, period)`.
const GRID: &str = "drift_ppm,latency,sync_period,pm_synced_inflation,pm_synced_precedence,\
    mean_clock_error,max_clock_error,max_uncertainty,sync_rounds,sync_traffic_share";

/// The header of `sync_summary.csv`, one row per `(drift, latency)`.
const SUMMARY: &str = "drift_ppm,latency,pm_unsynced_inflation,pm_unsynced_precedence,\
    mpm_inflation,rg_inflation,threshold_period,threshold_clock_error,threshold_pm_inflation";

/// The study outcome: the full grid plus its per-cell summary.
#[derive(Clone, Debug)]
pub struct SyncStudyOutcome {
    /// One row per `(drift, latency, period)`, drift outer, latency
    /// middle, period inner: the columns of `sync_grid.csv`. Synced PM's
    /// EER inflation over ideal PM, the oracle mean and worst clock
    /// error at sync rounds (ticks), the worst Marzullo half-width, sync
    /// rounds and the sync share of all channel sends.
    pub cells: Rows,
    /// One row per `(drift, latency)`: the columns of `sync_summary.csv`.
    /// The unsynced PM, MPM and RG inflations, and the viability
    /// threshold: the coarsest swept period at which synced PM beats
    /// `min(MPM, RG)`, with its clock error and inflation (empty when no
    /// swept period does).
    pub summaries: Rows,
}

/// The nonideal conditions of one `(drift, latency)` cell.
fn cell_conditions(
    cfg: &SyncStudyConfig,
    drift_ppm: i64,
    latency: i64,
    seed: u64,
) -> NonidealConfig {
    let mut ni = NonidealConfig::default().with_clocks(ClockModel::Random {
        max_offset: Dur::from_ticks(cfg.max_offset),
        max_drift_ppm: drift_ppm,
        seed,
    });
    if latency > 0 {
        ni = ni.with_channel(
            ChannelModel::uniform(Dur::ZERO, Dur::from_ticks(latency))
                .with_seed(seed ^ 0x5ca1_ab1e),
        );
    }
    ni
}

fn precedence_count(out: &SimOutcome) -> u64 {
    out.violations
        .iter()
        .filter(|v| v.kind == ViolationKind::PrecedenceViolated)
        .count() as u64
}

/// Evaluates one system in one `(drift, latency)` cell: ideal + unsynced
/// baselines for PM/MPM/RG, then one synced PM run per period.
fn evaluate_system(
    set: &TaskSet,
    cfg: &SyncStudyConfig,
    (drift_ppm, latency): (i64, i64),
    conditions: &NonidealConfig,
) -> SystemTally {
    let base = |protocol: Protocol| SimConfig::new(protocol).with_instances(cfg.instances_per_task);
    let run = |simcfg: &SimConfig| simulate(set, simcfg).expect("study systems are analyzable");

    let mut tally = SystemTally {
        drift_ppm,
        latency,
        ..SystemTally::default()
    };
    for protocol in [
        Protocol::PhaseModification,
        Protocol::ModifiedPhaseModification,
        Protocol::ReleaseGuard,
    ] {
        let ideal = run(&base(protocol));
        let observed = run(&base(protocol).with_nonideal(conditions.clone()));
        match protocol {
            Protocol::PhaseModification => {
                tally.pm_unsynced.absorb(&ideal, &observed);
                tally.pm_unsynced_precedence = precedence_count(&observed);
            }
            Protocol::ModifiedPhaseModification => tally.mpm.absorb(&ideal, &observed),
            _ => tally.rg.absorb(&ideal, &observed),
        }
    }

    let pm_ideal = run(&base(Protocol::PhaseModification));
    for &period in &cfg.sync_periods {
        let synced = run(&base(Protocol::PhaseModification)
            .with_nonideal(conditions.clone())
            .with_sync(SyncConfig::new(Dur::from_ticks(period)).with_policy(cfg.policy)));
        let s: &SyncStats = &synced.sync_stats;
        let mut pt = PeriodTally {
            drift_ppm,
            latency,
            sync_period: period,
            precedence_violations: precedence_count(&synced),
            sync_error_sum: s.sum_true_error,
            sync_error_samples: s.true_error_samples,
            sync_max_error: s.max_true_error.ticks(),
            sync_max_uncertainty: s.max_uncertainty.ticks(),
            sync_rounds: s.rounds,
            sync_frames: s.frames,
            channel_sent: synced.channel_stats.sent,
            ..PeriodTally::default()
        };
        pt.inflation.absorb(&pm_ideal, &synced);
        tally.per_period.push(pt);
    }
    tally
}

/// Runs the whole study. See [`SyncStudyOutcome`] for the result layout.
pub fn run_sync_study(cfg: &SyncStudyConfig) -> SyncStudyOutcome {
    let system_seeds: Vec<u64> = (0..cfg.systems_per_config)
        .map(|i| job_seed(cfg.seed, 0, i))
        .collect();

    let conditions: Vec<(i64, i64)> = cfg
        .drift_ppm_values
        .iter()
        .flat_map(|&eps| cfg.latency_values.iter().map(move |&l| (eps, l)))
        .collect();
    let results = run_grid(
        conditions.len(),
        cfg.systems_per_config,
        cfg.threads,
        |c, s| {
            let (eps, latency) = conditions[c];
            let set = paper_system(cfg.n, cfg.u, system_seeds[s]);
            let cell = cell_conditions(cfg, eps, latency, job_seed(cfg.seed, c + 1, s));
            evaluate_system(&set, cfg, conditions[c], &cell)
        },
    );

    let (systems, periods) = (cfg.systems_per_config, cfg.sync_periods.len());
    let results = &results;
    let runs: Vec<PeriodTally> = (0..conditions.len() * periods)
        .flat_map(|row| {
            let (c, p) = (row / periods, row % periods);
            (0..systems).map(move |s| results[c * systems + s].per_period[p].clone())
        })
        .collect();
    let cells = GRID_TABLE.cells(&runs, systems);
    let mut summaries = BASELINE_TABLE.cells(results, systems);

    // The viability threshold: the coarsest (cheapest) period whose
    // synced PM still beats the better unsynced alternative.
    let thresholds: Vec<_> = (summaries.iter().enumerate())
        .map(|(c, s)| {
            let alternative = s.real("mpm_inflation").min(s.real("rg_inflation"));
            (c * periods..(c + 1) * periods)
                .map(|i| cells.row(i))
                .filter(|r| r.real("pm_synced_inflation") < alternative)
                .max_by_key(|r| r.int("sync_period"))
        })
        .collect();
    let column = |pick: fn(Row<'_>) -> Value| {
        thresholds
            .iter()
            .map(|t| t.map_or(Value::None, pick))
            .collect()
    };
    let period = column(|r| r.get("sync_period"));
    let clock_error = column(|r| Value::Fixed(r.real("mean_clock_error"), 2));
    let inflation = column(|r| Value::Fixed(r.real("pm_synced_inflation"), 4));
    summaries.push_column("threshold_period", period);
    summaries.push_column("threshold_clock_error", clock_error);
    summaries.push_column("threshold_pm_inflation", inflation);
    SyncStudyOutcome { cells, summaries }
}

/// The study's records: `sync_grid.csv`, one row per `(drift, latency,
/// period)`, and `sync_summary.csv`, one row per `(drift, latency)` with
/// the viability threshold.
pub fn records(outcome: &SyncStudyOutcome) -> Vec<String> {
    vec![outcome.cells.csv(GRID), outcome.summaries.csv(SUMMARY)]
}

/// ASCII rendering for the terminal.
pub fn render(outcome: &SyncStudyOutcome) -> String {
    let mut out = String::from("sync study: PM EER inflation vs sync period\n");
    for s in outcome.summaries.iter() {
        out.push_str(&format!(
            "  ε = {:>6} ppm, L = {:>6} ticks: PM x{} unsynced ({} violations), MPM x{}, RG x{}\n",
            s.get("drift_ppm"),
            s.get("latency"),
            s.get("pm_unsynced_inflation"),
            s.get("pm_unsynced_precedence"),
            s.get("mpm_inflation"),
            s.get("rg_inflation"),
        ));
        for c in (outcome.cells.iter()).filter(|c| {
            c.get("drift_ppm") == s.get("drift_ppm") && c.get("latency") == s.get("latency")
        }) {
            out.push_str(&format!(
                "    period {:>9}: x{:<8} clock err {:>8.1} (max {}), {} rounds, {:.1}% of wire{}\n",
                c.get("sync_period"),
                c.get("pm_synced_inflation"),
                c.real("mean_clock_error"),
                c.get("max_clock_error"),
                c.get("sync_rounds"),
                c.real("sync_traffic_share") * 100.0,
                c.note("pm_synced_precedence", "violations"),
            ));
        }
        match s.get("threshold_period") {
            Value::None => out.push_str("    -> no swept period makes PM competitive\n"),
            p => out.push_str(&format!(
                "    -> PM beats min(MPM, RG) up to period {p} (clock error {:.1} ticks)\n",
                s.real("threshold_clock_error")
            )),
        }
    }
    out
}

/// Re-runs the PM rows of the [`robustness`](crate::robustness) grid with
/// the sync layer attached, as a drop-in companion to
/// `robustness_inflation_pm.csv`: same drift × latency matrix, same
/// systems and seeds, PM only, synced at `sync_period` with `policy`.
pub fn robustness_pm_synced_csv(
    rcfg: &crate::robustness::RobustnessConfig,
    sync_period: i64,
    policy: SyncPolicy,
) -> String {
    let system_seeds: Vec<u64> = (0..rcfg.systems_per_config)
        .map(|i| job_seed(rcfg.seed, 0, i))
        .collect();
    let cells: Vec<(i64, i64)> = rcfg
        .drift_ppm_values
        .iter()
        .flat_map(|&eps| rcfg.latency_values.iter().map(move |&l| (eps, l)))
        .collect();
    let results = run_grid(
        cells.len(),
        rcfg.systems_per_config,
        rcfg.threads,
        |c, s| {
            let (eps, latency) = cells[c];
            let set = paper_system(rcfg.n, rcfg.u, system_seeds[s]);
            // The unsynced robustness grid's own conditions (same derived
            // seeds), plus the sync layer.
            let ni = crate::robustness::cell_conditions(
                rcfg,
                eps,
                latency,
                job_seed(rcfg.seed, c + 1, s),
            );
            let base =
                SimConfig::new(Protocol::PhaseModification).with_instances(rcfg.instances_per_task);
            let ideal = simulate(&set, &base).expect("study systems are analyzable");
            let synced = simulate(
                &set,
                &base
                    .clone()
                    .with_nonideal(ni)
                    .with_sync(SyncConfig::new(Dur::from_ticks(sync_period)).with_policy(policy)),
            )
            .expect("same system, same analysis");
            let mut tally = InflTally::default();
            tally.absorb(&ideal, &synced);
            tally
        },
    );

    let per_cell = rcfg.systems_per_config;
    let (drifts, latencies) = (&rcfg.drift_ppm_values, &rcfg.latency_values);
    crate::robustness::matrix_csv(drifts, latencies, |d, l| {
        let c = d * latencies.len() + l;
        let mut cell = InflTally::default();
        for t in &results[c * per_cell..(c + 1) * per_cell] {
            cell.merge(t);
        }
        Some(cell.mean())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SyncStudyConfig {
        SyncStudyConfig {
            drift_ppm_values: vec![50_000],
            latency_values: vec![0],
            sync_periods: vec![20_000, 2_000_000],
            systems_per_config: 2,
            instances_per_task: 5,
            threads: 2,
            ..SyncStudyConfig::default()
        }
    }

    #[test]
    fn tight_sync_beats_loose_sync_and_no_sync() {
        let outcome = run_sync_study(&tiny_cfg());
        assert_eq!(outcome.cells.iter().count(), 2);
        assert_eq!(outcome.summaries.iter().count(), 1);
        let (tight, loose) = (outcome.cells.row(0), outcome.cells.row(1));
        let unsynced = outcome.summaries.row(0).real("pm_unsynced_inflation");
        let synced = tight.real("pm_synced_inflation");
        assert!(
            unsynced > synced,
            "sync must reclaim inflation: {unsynced} unsynced vs {synced} synced"
        );
        let (tight_error, loose_error) = (
            tight.real("mean_clock_error"),
            loose.real("mean_clock_error"),
        );
        assert!(
            tight_error < loose_error,
            "a 100x tighter period must achieve lower clock error \
             ({tight_error} vs {loose_error})"
        );
        assert!(tight.int("sync_rounds") > loose.int("sync_rounds"));
        assert!(tight.real("sync_traffic_share") > 0.0);
    }

    #[test]
    fn csv_shapes() {
        let outcome = run_sync_study(&tiny_cfg());
        let [grid, summary] = &records(&outcome)[..] else {
            panic!("two records")
        };
        assert_eq!(grid.lines().count(), 1 + 2); // header + 1 cell x 2 periods
        assert_eq!(summary.lines().count(), 1 + 1);
        assert!(summary.starts_with("drift_ppm,latency,pm_unsynced_inflation"));
    }

    #[test]
    fn pm_synced_matrix_has_grid_shape() {
        let rcfg = crate::robustness::RobustnessConfig {
            drift_ppm_values: vec![0, 50_000],
            latency_values: vec![0, 1_000],
            systems_per_config: 1,
            instances_per_task: 4,
            threads: 2,
            ..crate::robustness::RobustnessConfig::default()
        };
        let csv = robustness_pm_synced_csv(&rcfg, 20_000, SyncPolicy::Step);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("drift_ppm,L=0,L=1000"));
        // The ideal-clock, zero-latency cell is exactly 1.0: every
        // exchange measures a zero offset with zero uncertainty, so sync
        // corrects nothing. (The L>0 columns need not be 1.0 even with
        // ideal clocks — asymmetric exchange latency makes the estimates
        // jitter, and Step applies that jitter.)
        let ideal = lines.next().unwrap();
        assert!(ideal.starts_with("0,1.0000,"), "{ideal}");
        assert_eq!(csv.lines().count(), 1 + 2);
    }

    #[test]
    fn pm_synced_matrix_is_deterministic_across_thread_counts() {
        let mut rcfg = crate::robustness::RobustnessConfig {
            drift_ppm_values: vec![0, 50_000],
            latency_values: vec![0, 20_000],
            systems_per_config: 2,
            instances_per_task: 4,
            threads: 1,
            ..crate::robustness::RobustnessConfig::default()
        };
        let a = robustness_pm_synced_csv(&rcfg, 20_000, SyncPolicy::Step);
        rcfg.threads = 4;
        assert_eq!(a, robustness_pm_synced_csv(&rcfg, 20_000, SyncPolicy::Step));
    }
}
