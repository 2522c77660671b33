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

use crate::campaign::{fmt_f64, run_grid, InflTally};
use crate::seeding::job_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig, SimOutcome};
use rtsync_sim::nonideal::{ChannelModel, ClockModel, NonidealConfig};
use rtsync_sim::{SyncConfig, SyncPolicy, SyncStats, ViolationKind};
use rtsync_workload::{generate, WorkloadSpec};

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

/// One synced PM run's contribution to a `(cell, period)` aggregate.
#[derive(Clone, Default)]
struct PeriodTally {
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
    pm_unsynced: InflTally,
    pm_unsynced_precedence: u64,
    mpm: InflTally,
    rg: InflTally,
    per_period: Vec<PeriodTally>,
}

/// One `(drift, latency, period)` row of the grid.
#[derive(Clone, Debug)]
pub struct SyncCell {
    /// Clock drift bound ε in ppm.
    pub drift_ppm: i64,
    /// Signal latency bound L in ticks.
    pub latency: i64,
    /// Sync-round period in ticks.
    pub sync_period: i64,
    /// Mean per-task EER inflation of synced PM over ideal PM.
    pub pm_synced_inflation: f64,
    /// Synced PM precedence violations across the cell's systems.
    pub pm_synced_precedence: u64,
    /// Oracle mean `|corrected local − true|` at sync rounds (ticks).
    pub mean_clock_error: f64,
    /// Oracle worst clock error (ticks).
    pub max_clock_error: i64,
    /// Worst Marzullo half-width: the node-visible uncertainty bound.
    pub max_uncertainty: i64,
    /// Sync rounds executed across the cell's systems.
    pub sync_rounds: u64,
    /// Sync frames as a fraction of all channel sends.
    pub sync_traffic_share: f64,
}

/// The `(drift, latency)` summary: unsynced baselines and the viability
/// threshold over the period axis.
#[derive(Clone, Debug)]
pub struct SyncSummary {
    /// Clock drift bound ε in ppm.
    pub drift_ppm: i64,
    /// Signal latency bound L in ticks.
    pub latency: i64,
    /// Mean EER inflation of PM without sync (the 4–5x finding).
    pub pm_unsynced_inflation: f64,
    /// PM precedence violations without sync.
    pub pm_unsynced_precedence: u64,
    /// Mean EER inflation of MPM under the same conditions (no sync).
    pub mpm_inflation: f64,
    /// Mean EER inflation of RG under the same conditions (no sync).
    pub rg_inflation: f64,
    /// Coarsest swept sync period at which synced PM's inflation beats
    /// `min(MPM, RG)`; `None` when no swept period does.
    pub threshold_period: Option<i64>,
    /// Achieved mean clock error at the threshold period (ticks) — the
    /// sync accuracy PM needs to be competitive.
    pub threshold_clock_error: Option<f64>,
    /// Synced PM inflation at the threshold period.
    pub threshold_pm_inflation: Option<f64>,
}

/// The study outcome: the full grid plus its per-cell summary.
#[derive(Clone, Debug)]
pub struct SyncStudyOutcome {
    /// One row per `(drift, latency, period)`, row-major (drift outer,
    /// latency middle, period inner).
    pub cells: Vec<SyncCell>,
    /// One row per `(drift, latency)`.
    pub summaries: Vec<SyncSummary>,
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
    conditions: &NonidealConfig,
) -> SystemTally {
    let base = |protocol: Protocol| SimConfig::new(protocol).with_instances(cfg.instances_per_task);
    let run = |simcfg: &SimConfig| simulate(set, simcfg).expect("study systems are analyzable");

    let mut tally = SystemTally::default();
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
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
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
            let mut rng = StdRng::seed_from_u64(system_seeds[s]);
            let set = generate(&spec, &mut rng).expect("paper spec always generates");
            let cell = cell_conditions(cfg, eps, latency, job_seed(cfg.seed, c + 1, s));
            evaluate_system(&set, cfg, &cell)
        },
    );

    let mut cells = Vec::new();
    let mut summaries = Vec::new();
    for (c, &(eps, latency)) in conditions.iter().enumerate() {
        let systems = &results[c * cfg.systems_per_config..(c + 1) * cfg.systems_per_config];
        let mut pm_unsynced = InflTally::default();
        let mut mpm = InflTally::default();
        let mut rg = InflTally::default();
        let mut pm_unsynced_precedence = 0;
        for t in systems {
            pm_unsynced.merge(&t.pm_unsynced);
            mpm.merge(&t.mpm);
            rg.merge(&t.rg);
            pm_unsynced_precedence += t.pm_unsynced_precedence;
        }

        let mut cell_rows = Vec::new();
        for (pi, &period) in cfg.sync_periods.iter().enumerate() {
            let mut infl = InflTally::default();
            let mut agg = PeriodTally::default();
            for t in systems {
                let pt = &t.per_period[pi];
                infl.merge(&pt.inflation);
                agg.precedence_violations += pt.precedence_violations;
                agg.sync_error_sum += pt.sync_error_sum;
                agg.sync_error_samples += pt.sync_error_samples;
                agg.sync_max_error = agg.sync_max_error.max(pt.sync_max_error);
                agg.sync_max_uncertainty = agg.sync_max_uncertainty.max(pt.sync_max_uncertainty);
                agg.sync_rounds += pt.sync_rounds;
                agg.sync_frames += pt.sync_frames;
                agg.channel_sent += pt.channel_sent;
            }
            cell_rows.push(SyncCell {
                drift_ppm: eps,
                latency,
                sync_period: period,
                pm_synced_inflation: infl.mean(),
                pm_synced_precedence: agg.precedence_violations,
                mean_clock_error: if agg.sync_error_samples == 0 {
                    f64::NAN
                } else {
                    agg.sync_error_sum as f64 / agg.sync_error_samples as f64
                },
                max_clock_error: agg.sync_max_error,
                max_uncertainty: agg.sync_max_uncertainty,
                sync_rounds: agg.sync_rounds,
                sync_traffic_share: if agg.channel_sent == 0 {
                    f64::NAN
                } else {
                    agg.sync_frames as f64 / agg.channel_sent as f64
                },
            });
        }

        // The viability threshold: the coarsest (cheapest) period whose
        // synced PM still beats the better unsynced alternative.
        let alternative = mpm.mean().min(rg.mean());
        let threshold = cell_rows
            .iter()
            .filter(|r| r.pm_synced_inflation < alternative)
            .max_by_key(|r| r.sync_period);
        summaries.push(SyncSummary {
            drift_ppm: eps,
            latency,
            pm_unsynced_inflation: pm_unsynced.mean(),
            pm_unsynced_precedence,
            mpm_inflation: mpm.mean(),
            rg_inflation: rg.mean(),
            threshold_period: threshold.map(|r| r.sync_period),
            threshold_clock_error: threshold.map(|r| r.mean_clock_error),
            threshold_pm_inflation: threshold.map(|r| r.pm_synced_inflation),
        });
        cells.extend(cell_rows);
    }
    SyncStudyOutcome { cells, summaries }
}

/// Long-format CSV of the grid: one row per `(drift, latency, period)`.
pub fn grid_csv(outcome: &SyncStudyOutcome) -> String {
    let mut out = String::from(
        "drift_ppm,latency,sync_period,pm_synced_inflation,pm_synced_precedence,\
         mean_clock_error,max_clock_error,max_uncertainty,sync_rounds,sync_traffic_share\n",
    );
    for c in &outcome.cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            c.drift_ppm,
            c.latency,
            c.sync_period,
            fmt_f64(c.pm_synced_inflation),
            c.pm_synced_precedence,
            fmt_f64(c.mean_clock_error),
            c.max_clock_error,
            c.max_uncertainty,
            c.sync_rounds,
            fmt_f64(c.sync_traffic_share),
        ));
    }
    out
}

/// Summary CSV: one row per `(drift, latency)` with the viability
/// threshold.
pub fn summary_csv(outcome: &SyncStudyOutcome) -> String {
    let mut out = String::from(
        "drift_ppm,latency,pm_unsynced_inflation,pm_unsynced_precedence,mpm_inflation,\
         rg_inflation,threshold_period,threshold_clock_error,threshold_pm_inflation\n",
    );
    for s in &outcome.summaries {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            s.drift_ppm,
            s.latency,
            fmt_f64(s.pm_unsynced_inflation),
            s.pm_unsynced_precedence,
            fmt_f64(s.mpm_inflation),
            fmt_f64(s.rg_inflation),
            s.threshold_period.map_or(String::new(), |p| p.to_string()),
            s.threshold_clock_error
                .map_or(String::new(), |e| format!("{e:.2}")),
            s.threshold_pm_inflation
                .map_or(String::new(), |i| format!("{i:.4}")),
        ));
    }
    out
}

/// ASCII rendering for the terminal.
pub fn render(outcome: &SyncStudyOutcome) -> String {
    let mut out = String::from("sync study: PM EER inflation vs sync period\n");
    for s in &outcome.summaries {
        out.push_str(&format!(
            "  ε = {:>6} ppm, L = {:>6} ticks: PM x{} unsynced ({} violations), MPM x{}, RG x{}\n",
            s.drift_ppm,
            s.latency,
            fmt_f64(s.pm_unsynced_inflation),
            s.pm_unsynced_precedence,
            fmt_f64(s.mpm_inflation),
            fmt_f64(s.rg_inflation),
        ));
        for c in outcome
            .cells
            .iter()
            .filter(|c| c.drift_ppm == s.drift_ppm && c.latency == s.latency)
        {
            out.push_str(&format!(
                "    period {:>9}: x{:<8} clock err {:>8.1} (max {}), {} rounds, {:.1}% of wire{}\n",
                c.sync_period,
                fmt_f64(c.pm_synced_inflation),
                c.mean_clock_error,
                c.max_clock_error,
                c.sync_rounds,
                c.sync_traffic_share * 100.0,
                if c.pm_synced_precedence > 0 {
                    format!(", {} violations", c.pm_synced_precedence)
                } else {
                    String::new()
                },
            ));
        }
        match (s.threshold_period, s.threshold_clock_error) {
            (Some(p), Some(e)) => out.push_str(&format!(
                "    -> PM beats min(MPM, RG) up to period {p} (clock error {e:.1} ticks)\n"
            )),
            _ => out.push_str("    -> no swept period makes PM competitive\n"),
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
    let spec = WorkloadSpec::paper(rcfg.n, rcfg.u).with_random_phases();
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
            let mut rng = StdRng::seed_from_u64(system_seeds[s]);
            let set = generate(&spec, &mut rng).expect("paper spec always generates");
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

    let mut out = String::from("drift_ppm");
    for l in &rcfg.latency_values {
        out.push_str(&format!(",L={l}"));
    }
    out.push('\n');
    for (d, &eps) in rcfg.drift_ppm_values.iter().enumerate() {
        out.push_str(&eps.to_string());
        for l in 0..rcfg.latency_values.len() {
            let c = d * rcfg.latency_values.len() + l;
            let mut cell = InflTally::default();
            for t in &results[c * rcfg.systems_per_config..(c + 1) * rcfg.systems_per_config] {
                cell.merge(t);
            }
            let v = cell.mean();
            if v.is_finite() {
                out.push_str(&format!(",{v:.4}"));
            } else {
                out.push(',');
            }
        }
        out.push('\n');
    }
    out
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
        assert_eq!(outcome.cells.len(), 2);
        assert_eq!(outcome.summaries.len(), 1);
        let (tight, loose) = (&outcome.cells[0], &outcome.cells[1]);
        let summary = &outcome.summaries[0];
        assert!(
            summary.pm_unsynced_inflation > tight.pm_synced_inflation,
            "sync must reclaim inflation: {} unsynced vs {} synced",
            summary.pm_unsynced_inflation,
            tight.pm_synced_inflation
        );
        assert!(
            tight.mean_clock_error < loose.mean_clock_error,
            "a 100x tighter period must achieve lower clock error \
             ({} vs {})",
            tight.mean_clock_error,
            loose.mean_clock_error
        );
        assert!(tight.sync_rounds > loose.sync_rounds);
        assert!(tight.sync_traffic_share > 0.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let a = run_sync_study(&cfg);
        cfg.threads = 4;
        let b = run_sync_study(&cfg);
        assert_eq!(grid_csv(&a), grid_csv(&b));
        assert_eq!(summary_csv(&a), summary_csv(&b));
    }

    #[test]
    fn csv_shapes() {
        let outcome = run_sync_study(&tiny_cfg());
        let grid = grid_csv(&outcome);
        assert_eq!(grid.lines().count(), 1 + 2); // header + 1 cell x 2 periods
        let summary = summary_csv(&outcome);
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
