//! Convergence of the average-EER ratio estimates.
//!
//! The paper does not state its simulation horizon. Our study stops when
//! every task has completed a configurable number of end-to-end instances;
//! this module measures how the Figure-14/15 ratio estimates move as that
//! target grows, justifying the default. The ratios stabilize quickly
//! because they are averaged over 12 tasks × many systems; per the
//! recorded run, going from 20 to 80 instances moves the aggregate ratios
//! by under ~2%.

use rtsync_core::analysis::sa_ds::analyze_ds_traced;
use rtsync_core::analysis::sa_pm::analyze_pm_traced;
use rtsync_core::protocol::Protocol;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig};

use crate::campaign::paper_system;
use crate::study::StudyConfig;

/// The seed of the `index`-th system of configuration `(n, u)`.
fn system_seed(cfg: &StudyConfig, n: usize, u: f64, index: usize) -> u64 {
    cfg.seed ^ 0xC0BE_0000 ^ ((n as u64) << 24) ^ (((u * 100.0) as u64) << 8) ^ index as u64
}

/// Ratio estimates at one instance target.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceRow {
    /// The per-task end-to-end instance target used.
    pub instances: u64,
    /// Mean per-task avg-EER ratio PM/DS.
    pub pm_ds: f64,
    /// Mean per-task avg-EER ratio RG/DS.
    pub rg_ds: f64,
}

/// Measures the ratio estimates of configuration `(n, u)` at each instance
/// target, over `cfg.systems_per_config` systems (same seeds across
/// targets, so rows differ only by horizon).
pub fn convergence_study(
    n: usize,
    u: f64,
    cfg: &StudyConfig,
    targets: &[u64],
) -> Vec<ConvergenceRow> {
    targets
        .iter()
        .map(|&instances| {
            let mut pm_ds_sum = 0.0;
            let mut rg_ds_sum = 0.0;
            let mut count = 0usize;
            for index in 0..cfg.systems_per_config {
                let set = paper_system(n, u, system_seed(cfg, n, u, index));
                let run = |p| {
                    simulate(&set, &SimConfig::new(p).with_instances(instances))
                        .expect("study systems simulate")
                };
                let ds = run(Protocol::DirectSync);
                let pm = run(Protocol::PhaseModification);
                let rg = run(Protocol::ReleaseGuard);
                for task in set.tasks() {
                    let (Some(d), Some(p), Some(r)) = (
                        ds.metrics.task(task.id()).avg_eer(),
                        pm.metrics.task(task.id()).avg_eer(),
                        rg.metrics.task(task.id()).avg_eer(),
                    ) else {
                        continue;
                    };
                    pm_ds_sum += p / d;
                    rg_ds_sum += r / d;
                    count += 1;
                }
            }
            ConvergenceRow {
                instances,
                pm_ds: pm_ds_sum / count.max(1) as f64,
                rg_ds: rg_ds_sum / count.max(1) as f64,
            }
        })
        .collect()
}

/// How the *analyses* converged on one generated system: SA/PM busy-period
/// iteration effort and the SA/DS IEERT sweep trajectory.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConvergenceRow {
    /// Subtasks per task.
    pub n: usize,
    /// Per-processor utilization.
    pub u: f64,
    /// System index within the configuration (seeds the generator).
    pub system: usize,
    /// SA/PM found finite bounds.
    pub pm_converged: bool,
    /// Total busy-period fixed-point iterations across all subtasks
    /// (zero when SA/PM failed).
    pub pm_iterations: u64,
    /// SA/DS reached a fixed point (the complement of the Figure-12
    /// failure event).
    pub ds_converged: bool,
    /// IEERT sweeps performed (including the verifying sweep, or up to
    /// the point divergence was detected).
    pub ds_sweeps: u64,
    /// Largest single-sweep subtask-bound growth observed.
    pub ds_peak_delta: Dur,
}

/// Runs both analyses over the systems of configuration `(n, u)` —
/// generated with the same seeds as [`convergence_study`] and the main
/// study — recording per-system convergence effort.
pub fn analysis_convergence_study(
    n: usize,
    u: f64,
    cfg: &StudyConfig,
) -> Vec<AnalysisConvergenceRow> {
    (0..cfg.systems_per_config)
        .map(|index| {
            let set = paper_system(n, u, system_seed(cfg, n, u, index));
            let (pm_converged, pm_iterations) = match analyze_pm_traced(&set, &cfg.analysis) {
                Ok((_, report)) => (true, report.total_iterations()),
                Err(_) => (false, 0),
            };
            let (ds_converged, ds_sweeps, ds_peak_delta) =
                match analyze_ds_traced(&set, &cfg.analysis) {
                    Ok((bounds, report)) => (
                        bounds.is_some(),
                        report.sweeps,
                        report.deltas.iter().copied().max().unwrap_or(Dur::ZERO),
                    ),
                    Err(_) => (false, 0, Dur::ZERO),
                };
            AnalysisConvergenceRow {
                n,
                u,
                system: index,
                pm_converged,
                pm_iterations,
                ds_converged,
                ds_sweeps,
                ds_peak_delta,
            }
        })
        .collect()
}

/// Renders analysis-convergence rows as CSV (`convergence_obs.csv`).
pub fn analysis_convergence_csv(rows: &[AnalysisConvergenceRow]) -> String {
    let mut out = String::from(
        "n,u,system,pm_converged,pm_iterations,ds_converged,ds_sweeps,ds_peak_delta\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{},{},{},{},{},{}\n",
            r.n,
            r.u,
            r.system,
            r.pm_converged,
            r.pm_iterations,
            r.ds_converged,
            r.ds_sweeps,
            r.ds_peak_delta.ticks()
        ));
    }
    out
}

/// Renders a short text summary of analysis-convergence rows.
pub fn render_analysis(rows: &[AnalysisConvergenceRow]) -> String {
    if rows.is_empty() {
        return "analysis convergence: no systems\n".to_string();
    }
    let (n, u) = (rows[0].n, rows[0].u);
    let converged = rows.iter().filter(|r| r.ds_converged).count();
    let mean_iters = rows.iter().map(|r| r.pm_iterations).sum::<u64>() as f64 / rows.len() as f64;
    let finite: Vec<&AnalysisConvergenceRow> = rows.iter().filter(|r| r.ds_converged).collect();
    let mean_sweeps = if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().map(|r| r.ds_sweeps).sum::<u64>() as f64 / finite.len() as f64
    };
    format!(
        "analysis convergence at ({n}, {:.0}%): {} systems, \
         SA/PM mean {mean_iters:.1} busy-period iterations, \
         SA/DS {converged}/{} converged (mean {mean_sweeps:.1} sweeps)\n",
        u * 100.0,
        rows.len(),
        rows.len()
    )
}

/// Renders convergence rows as a text table.
pub fn render(n: usize, u: f64, rows: &[ConvergenceRow]) -> String {
    let mut out = format!(
        "ratio convergence at configuration ({n}, {:.0}%): estimates vs instance target\n\
         {:>10}{:>10}{:>10}\n",
        u * 100.0,
        "instances",
        "PM/DS",
        "RG/DS"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>10}{:>10.3}{:>10.3}\n",
            r.instances, r.pm_ds, r.rg_ds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_stabilize_with_more_instances() {
        let cfg = StudyConfig {
            systems_per_config: 4,
            seed: 99,
            ..StudyConfig::default()
        };
        let rows = convergence_study(3, 0.6, &cfg, &[10, 40]);
        assert_eq!(rows.len(), 2);
        // Both estimates are in the plausible band and close to each other.
        for r in &rows {
            assert!(r.pm_ds > 1.0 && r.pm_ds < 4.0, "{r:?}");
            assert!(r.rg_ds > 0.95 && r.rg_ds < 2.0, "{r:?}");
        }
        let drift = (rows[0].pm_ds - rows[1].pm_ds).abs() / rows[1].pm_ds;
        assert!(
            drift < 0.15,
            "PM/DS drifted {drift:.3} from 10 to 40 instances"
        );
    }

    #[test]
    fn analysis_convergence_rows_are_complete_and_csv_renders() {
        let cfg = StudyConfig {
            systems_per_config: 3,
            seed: 7,
            ..StudyConfig::default()
        };
        let rows = analysis_convergence_study(3, 0.6, &cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.pm_converged, "{r:?}");
            assert!(r.pm_iterations > 0, "{r:?}");
            if r.ds_converged {
                assert!(r.ds_sweeps >= 1, "{r:?}");
            }
        }
        let csv = analysis_convergence_csv(&rows);
        assert!(csv.starts_with("n,u,system,"));
        assert_eq!(csv.lines().count(), 4);
        let summary = render_analysis(&rows);
        assert!(summary.contains("3 systems"), "{summary}");
    }

    #[test]
    fn render_contains_rows() {
        let rows = vec![ConvergenceRow {
            instances: 20,
            pm_ds: 2.5,
            rg_ds: 1.01,
        }];
        let text = render(4, 0.7, &rows);
        assert!(text.contains("(4, 70%)"));
        assert!(text.contains("2.500"));
        assert!(text.contains("1.010"));
    }
}
