//! The simulation study of §5: evaluate many synthetic systems per
//! configuration, under every protocol, collecting everything Figures
//! 12–16 need in one pass per system.

use crate::campaign::{paper_system, run_grid};
use crate::seeding::system_seed;
use rtsync_core::analysis::sa_ds::analyze_ds;
use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::{TaskId, TaskSet};
use rtsync_sim::engine::{simulate, SimConfig};

/// Study parameters. Defaults mirror the paper's setup with a reduced
/// system count (the paper used 1000 systems per configuration; pass
/// `--systems 1000` to `rtsync study figures` for the full run).
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Subtask counts (paper: 2–8).
    pub n_values: Vec<usize>,
    /// Per-processor utilizations (paper: 0.5–0.9).
    pub u_values: Vec<f64>,
    /// Systems per configuration.
    pub systems_per_config: usize,
    /// Master seed; every system's seed derives deterministically from it.
    pub seed: u64,
    /// Per-task end-to-end instance target for average-EER simulation.
    pub instances_per_task: u64,
    /// Worker threads (the study is embarrassingly parallel over systems).
    pub threads: usize,
    /// Analysis knobs (failure criterion etc.).
    pub analysis: AnalysisConfig,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            n_values: (2..=8).collect(),
            u_values: vec![0.5, 0.6, 0.7, 0.8, 0.9],
            systems_per_config: 20,
            seed: 0xC0FF_EE00,
            instances_per_task: 20,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            analysis: AnalysisConfig::default(),
        }
    }
}

/// Everything measured on one synthetic system.
#[derive(Clone, Debug)]
pub struct SystemEval {
    /// SA/DS failed to find finite bounds (the Figure-12 event).
    pub ds_failed: bool,
    /// Per-task `SA-DS bound / SA-PM bound` (empty when `ds_failed`).
    pub bound_ratios: Vec<f64>,
    /// Per-task `avg-EER(PM) / avg-EER(DS)` from simulation.
    pub pm_ds: Vec<f64>,
    /// Per-task `avg-EER(RG) / avg-EER(DS)`.
    pub rg_ds: Vec<f64>,
    /// Per-task `avg-EER(PM) / avg-EER(RG)`.
    pub pm_rg: Vec<f64>,
    /// Per-task p99-EER ratio PM/DS (tail-latency view, beyond the paper).
    pub pm_ds_p99: Vec<f64>,
    /// Per-task p99-EER ratio RG/DS.
    pub rg_ds_p99: Vec<f64>,
    /// Simulation events dispatched across the three protocol runs (for
    /// run-log throughput accounting).
    pub events: u64,
}

/// Aggregates over one configuration `(N, U)`.
#[derive(Clone, Debug)]
pub struct ConfigOutcome {
    /// Subtasks per task.
    pub n: usize,
    /// Per-processor utilization.
    pub u: f64,
    /// Systems evaluated.
    pub systems: usize,
    /// Systems where SA/DS failed.
    pub ds_failures: usize,
    /// Mean of per-task bound ratios over DS-finite systems (`NaN` if
    /// every system failed).
    pub bound_ratio_mean: f64,
    /// Mean per-task avg-EER ratio PM/DS.
    pub pm_ds_mean: f64,
    /// Mean per-task avg-EER ratio RG/DS.
    pub rg_ds_mean: f64,
    /// Mean per-task avg-EER ratio PM/RG.
    pub pm_rg_mean: f64,
    /// Mean per-task p99-EER ratio PM/DS.
    pub pm_ds_p99_mean: f64,
    /// Mean per-task p99-EER ratio RG/DS.
    pub rg_ds_p99_mean: f64,
    /// Half-width of the 90% confidence interval of `pm_ds_mean` (normal
    /// approximation over the per-task samples). The paper: "the 90%
    /// confidence intervals are negligibly small for all configurations".
    pub pm_ds_ci90: f64,
    /// Half-width of the 90% confidence interval of `rg_ds_mean`.
    pub rg_ds_ci90: f64,
    /// Half-width of the 90% confidence interval of `bound_ratio_mean`.
    pub bound_ratio_ci90: f64,
    /// Simulation events dispatched over every system of the configuration.
    pub events: u64,
}

impl ConfigOutcome {
    /// Fraction of systems where SA/DS failed (Figure 12's y-axis).
    pub fn failure_rate(&self) -> f64 {
        if self.systems == 0 {
            f64::NAN
        } else {
            self.ds_failures as f64 / self.systems as f64
        }
    }
}

/// Evaluates one system: both analyses, plus average-EER simulation under
/// DS, PM and RG (MPM is schedule-identical to PM under the study's
/// periodic sources, so it is not simulated separately).
pub fn evaluate_system(set: &TaskSet, cfg: &StudyConfig) -> SystemEval {
    // Analyses (phases are irrelevant to both).
    let pm_bounds = analyze_pm(set, &cfg.analysis);
    let ds_bounds = analyze_ds(set, &cfg.analysis);

    let (ds_failed, bound_ratios) = match (&pm_bounds, &ds_bounds) {
        (Ok(pm), Ok(ds)) => {
            let ratios = set
                .tasks()
                .iter()
                .map(|t| ds.task_bound(t.id()).as_f64() / pm.task_bound(t.id()).as_f64())
                .collect();
            (false, ratios)
        }
        _ => (true, Vec::new()),
    };

    // Simulations. PM needs finite SA/PM bounds; at the study's U ≤ 0.9
    // they always exist.
    let sim = |protocol| {
        let sim_cfg = SimConfig::new(protocol).with_instances(cfg.instances_per_task);
        simulate(set, &sim_cfg).expect("study systems are analyzable under SA/PM")
    };
    let ds_sim = sim(Protocol::DirectSync);
    let pm_sim = sim(Protocol::PhaseModification);
    let rg_sim = sim(Protocol::ReleaseGuard);

    let avg = |out: &rtsync_sim::SimOutcome, t: TaskId| out.metrics.task(t).avg_eer();
    let p99 = |out: &rtsync_sim::SimOutcome, t: TaskId| {
        out.metrics.task(t).eer_quantile(0.99).map(|d| d.as_f64())
    };
    let mut pm_ds = Vec::new();
    let mut rg_ds = Vec::new();
    let mut pm_rg = Vec::new();
    let mut pm_ds_p99 = Vec::new();
    let mut rg_ds_p99 = Vec::new();
    for t in set.tasks() {
        let (Some(d), Some(p), Some(r)) = (
            avg(&ds_sim, t.id()),
            avg(&pm_sim, t.id()),
            avg(&rg_sim, t.id()),
        ) else {
            continue; // a task never completed before the horizon: skip it
        };
        pm_ds.push(p / d);
        rg_ds.push(r / d);
        pm_rg.push(p / r);
        if let (Some(dq), Some(pq), Some(rq)) = (
            p99(&ds_sim, t.id()),
            p99(&pm_sim, t.id()),
            p99(&rg_sim, t.id()),
        ) {
            if dq > 0.0 {
                pm_ds_p99.push(pq / dq);
                rg_ds_p99.push(rq / dq);
            }
        }
    }

    SystemEval {
        ds_failed,
        bound_ratios,
        pm_ds,
        rg_ds,
        pm_rg,
        pm_ds_p99,
        rg_ds_p99,
        events: ds_sim.events + pm_sim.events + rg_sim.events,
    }
}

/// Runs every system of one configuration (in parallel) and aggregates.
pub fn run_config(n: usize, u: f64, cfg: &StudyConfig) -> ConfigOutcome {
    let evals = evaluate_many(n, u, cfg);
    aggregate(n, u, &evals)
}

/// Runs the whole grid. Returns outcomes in row-major `(N, U)` order.
pub fn run_study(cfg: &StudyConfig) -> Vec<ConfigOutcome> {
    let mut out = Vec::with_capacity(cfg.n_values.len() * cfg.u_values.len());
    for &n in &cfg.n_values {
        for &u in &cfg.u_values {
            out.push(run_config(n, u, cfg));
        }
    }
    out
}

fn evaluate_many(n: usize, u: f64, cfg: &StudyConfig) -> Vec<SystemEval> {
    let seeds: Vec<u64> = (0..cfg.systems_per_config)
        .map(|i| system_seed(cfg.seed, n, u, i))
        .collect();
    run_grid(1, seeds.len(), cfg.threads, |_, i| {
        evaluate_system(&paper_system(n, u, seeds[i]), cfg)
    })
}

fn aggregate(n: usize, u: f64, evals: &[SystemEval]) -> ConfigOutcome {
    let ds_failures = evals.iter().filter(|e| e.ds_failed).count();
    let collect = |select: fn(&SystemEval) -> &Vec<f64>| -> Vec<f64> {
        evals
            .iter()
            .flat_map(|e| select(e).iter().copied())
            .collect()
    };
    let mean_of = |select: fn(&SystemEval) -> &Vec<f64>| mean(&collect(select));
    ConfigOutcome {
        n,
        u,
        systems: evals.len(),
        ds_failures,
        bound_ratio_mean: mean_of(|e| &e.bound_ratios),
        pm_ds_mean: mean_of(|e| &e.pm_ds),
        rg_ds_mean: mean_of(|e| &e.rg_ds),
        pm_rg_mean: mean_of(|e| &e.pm_rg),
        pm_ds_p99_mean: mean_of(|e| &e.pm_ds_p99),
        rg_ds_p99_mean: mean_of(|e| &e.rg_ds_p99),
        pm_ds_ci90: ci90_half_width(&collect(|e| &e.pm_ds)),
        rg_ds_ci90: ci90_half_width(&collect(|e| &e.rg_ds)),
        bound_ratio_ci90: ci90_half_width(&collect(|e| &e.bound_ratios)),
        events: evals.iter().map(|e| e.events).sum(),
    }
}

fn mean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Half-width of the 90% confidence interval of the sample mean, using the
/// normal approximation (`1.645 · s/√n`); `NaN` below two samples.
pub fn ci90_half_width(vals: &[f64]) -> f64 {
    if vals.len() < 2 {
        return f64::NAN;
    }
    let m = mean(vals);
    let var = vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (vals.len() - 1) as f64;
    1.645 * (var / vals.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> StudyConfig {
        StudyConfig {
            n_values: vec![2],
            u_values: vec![0.5],
            systems_per_config: 3,
            seed: 7,
            instances_per_task: 5,
            threads: 2,
            analysis: AnalysisConfig::default(),
        }
    }

    #[test]
    fn evaluate_system_produces_ratios() {
        let cfg = tiny_cfg();
        let eval = evaluate_system(&paper_system(2, 0.5, 1), &cfg);
        assert!(!eval.ds_failed, "(2, 50) virtually never fails");
        assert_eq!(eval.bound_ratios.len(), 12);
        // SA/DS dominates SA/PM for every task.
        for r in &eval.bound_ratios {
            assert!(*r >= 1.0 - 1e-9, "bound ratio {r} below 1");
        }
        assert_eq!(eval.pm_ds.len(), 12);
        // PM delays releases: on average at least as slow as DS.
        let mean: f64 = eval.pm_ds.iter().sum::<f64>() / 12.0;
        assert!(mean >= 1.0, "PM/DS mean {mean} below 1");
    }

    #[test]
    fn ci90_math() {
        assert!(ci90_half_width(&[]).is_nan());
        assert!(ci90_half_width(&[1.0]).is_nan());
        // Constant samples: zero width.
        assert_eq!(ci90_half_width(&[2.0, 2.0, 2.0]), 0.0);
        // s = 1 over 4 samples: 1.645 / 2.
        let hw = ci90_half_width(&[1.0, 2.0, 3.0, 2.0]);
        let m: f64 = 2.0;
        let var = ((1.0f64 - m).powi(2) + (3.0f64 - m).powi(2)) / 3.0;
        assert!((hw - 1.645 * (var / 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn run_config_aggregates() {
        let cfg = tiny_cfg();
        let out = run_config(2, 0.5, &cfg);
        assert_eq!(out.systems, 3);
        assert_eq!(out.ds_failures, 0);
        assert_eq!(out.failure_rate(), 0.0);
        assert!(out.bound_ratio_mean >= 1.0);
        assert!(out.pm_ds_mean >= 1.0);
        // Confidence intervals computed and finite with 3 systems × 12 tasks.
        assert!(out.pm_ds_ci90.is_finite() && out.pm_ds_ci90 >= 0.0);
        assert!(out.rg_ds_ci90.is_finite());
        // "Negligibly small" relative to the mean, as the paper reports.
        assert!(out.pm_ds_ci90 < 0.25 * out.pm_ds_mean, "{out:?}");
        assert!(out.pm_rg_mean >= 0.9, "{}", out.pm_rg_mean);
        // Tail ratios are populated and PM's tail dominates DS's (PM pins
        // the whole distribution near the worst case). The histogram's
        // 6.25% quantization leaves a little slack.
        assert!(out.pm_ds_p99_mean > 0.9, "{}", out.pm_ds_p99_mean);
        assert!(out.rg_ds_p99_mean > 0.5, "{}", out.rg_ds_p99_mean);
    }

    #[test]
    fn study_is_deterministic_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let a = run_config(2, 0.5, &cfg);
        cfg.threads = 3;
        let b = run_config(2, 0.5, &cfg);
        assert_eq!(a.bound_ratio_mean, b.bound_ratio_mean);
        assert_eq!(a.pm_ds_mean, b.pm_ds_mean);
        assert_eq!(a.rg_ds_mean, b.rg_ds_mean);
    }

    #[test]
    fn default_config_matches_paper_grid() {
        let cfg = StudyConfig::default();
        assert_eq!(cfg.n_values, vec![2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(cfg.u_values.len(), 5);
        assert_eq!(cfg.n_values.len() * cfg.u_values.len(), 35);
    }
}
