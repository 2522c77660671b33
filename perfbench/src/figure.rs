//! `figure_study`: the §5 simulation study behind Figs. 12–16. One op
//! evaluates one seeded §5.1 system the way the study does — SA/PM and
//! SA/DS bounds, then average-EER simulations under DS, PM and RG — and
//! checks Theorem 1 on the result.

use rtsync_core::analysis::sa_ds::{analyze_ds, DsBounds};
use rtsync_core::analysis::sa_pm::{analyze_pm, PmBounds};
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::error::AnalyzeError;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::{TaskId, TaskSet};
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, simulate_profiled, SimConfig, SimOutcome, SimulateError};
use rtsync_workload::{generate_seeded, WorkloadSpec};

use crate::trace::{timed, Tally, Tracer};
use crate::util::{mix, Digest};
use crate::{digest_outcome, record_profile, Doctor, OpRecord, Workload};

/// The paper's grid: N = 2..8 subtasks per task × U = 0.5..0.9.
const N_VALUES: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];
const U_VALUES: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
/// End-to-end instances simulated per task (the study's default).
const INSTANCES: u64 = 20;

pub struct FigureStudy {
    sets: Vec<TaskSet>,
    doctor: Doctor,
}

/// The grid cell of op `i`: ops cycle over all 35 cells.
pub fn cell(i: usize) -> (usize, f64) {
    let c = i % (N_VALUES.len() * U_VALUES.len());
    (N_VALUES[c / U_VALUES.len()], U_VALUES[c % U_VALUES.len()])
}

fn sim<T: Tracer>(
    tr: &mut T,
    tally: &mut Tally,
    set: &TaskSet,
    protocol: Protocol,
) -> (Result<SimOutcome, SimulateError>, u64) {
    let cfg = SimConfig::new(protocol).with_instances(INSTANCES);
    let (out, ns) = timed(tr, "sim.simulate", || simulate(set, &cfg));
    if let Ok(out) = &out {
        tally.count("sim.events", out.events);
    }
    if T::ON {
        tr.enter("sim.profile");
        if let Ok((_, profile)) = simulate_profiled(set, &cfg) {
            record_profile(tally, &profile);
        }
        tr.exit();
    }
    (out, ns)
}

/// Theorem 1 (PM and RG within SA/PM) and SA/DS soundness (DS within
/// every finite SA/DS bound), task by task.
fn bounds_hold(
    set: &TaskSet,
    pm: &PmBounds,
    ds: Option<&DsBounds>,
    runs: [&SimOutcome; 3],
    shrink: bool,
) -> bool {
    let [ds_run, pm_run, rg_run] = runs;
    let bound = |b: Dur| {
        if shrink {
            Dur::from_ticks(b.ticks() / 2)
        } else {
            b
        }
    };
    let within = |out: &SimOutcome, t: TaskId, b: Dur| {
        out.metrics.task(t).max_eer().is_none_or(|m| m <= bound(b))
    };
    set.tasks().iter().all(|task| {
        let t = task.id();
        within(pm_run, t, pm.task_bound(t))
            && within(rg_run, t, pm.task_bound(t))
            && ds.is_none_or(|ds| within(ds_run, t, ds.task_bound(t)))
    })
}

fn digest_bounds(d: &mut Digest, set: &TaskSet, bounds: Result<Vec<Dur>, &AnalyzeError>) {
    match bounds {
        Ok(b) => {
            d.add(1);
            for v in b {
                d.add_i64(v.ticks());
            }
        }
        Err(_) => {
            d.add(0).add(set.num_tasks() as u64);
        }
    }
}

impl Workload for FigureStudy {
    const NAME: &'static str = "figure_study";
    const NOMINAL_OPS_PER_S: f64 = 14.5;
    const TAIL_PCT: f64 = 90.0;
    const CANARY_OPS: usize = 35;

    fn setup<T: Tracer>(seed: u64, ops: usize, doctor: Doctor, tr: &mut T) -> FigureStudy {
        let sets = (0..ops)
            .map(|i| {
                let (n, u) = cell(i);
                let spec = WorkloadSpec::paper(n, u).with_random_phases();
                let (set, _) = timed(tr, "workload.generate", || {
                    generate_seeded(&spec, mix(seed, 1, i as u64))
                });
                set.expect("the paper's spec always generates")
            })
            .collect();
        FigureStudy { sets, doctor }
    }

    fn op<T: Tracer>(&mut self, i: usize, tr: &mut T, tally: &mut Tally) -> OpRecord {
        let set = &self.sets[i];
        let cfg = AnalysisConfig::default();
        let (pm, pm_analysis) = timed(tr, "analysis.sa_pm", || analyze_pm(set, &cfg));
        let (ds, ds_analysis) = timed(tr, "analysis.sa_ds", || analyze_ds(set, &cfg));
        match &ds {
            Ok(b) => tally.count("analysis.sa_ds.sweeps", b.sweeps()),
            Err(_) => tally.count("analysis.sa_ds.failed", 1),
        }
        let (ds_run, ds_sim) = sim(tr, tally, set, Protocol::DirectSync);
        let (pm_run, pm_sim) = sim(tr, tally, set, Protocol::PhaseModification);
        let (rg_run, rg_sim) = sim(tr, tally, set, Protocol::ReleaseGuard);

        let mut d = Digest::new();
        digest_bounds(&mut d, set, pm.as_ref().map(PmBounds::task_bounds));
        digest_bounds(&mut d, set, ds.as_ref().map(DsBounds::task_bounds));
        let ok = match (&pm, &ds_run, &pm_run, &rg_run) {
            (Ok(pm), Ok(ds_run), Ok(pm_run), Ok(rg_run)) => {
                let runs = [ds_run, pm_run, rg_run];
                for out in runs {
                    digest_outcome(&mut d, out);
                }
                let shrink = self.doctor == Doctor::Oracle && i == 0;
                bounds_hold(set, pm, ds.as_ref().ok(), runs, shrink)
            }
            _ => false,
        };
        OpRecord {
            ok,
            digest: d.finish(),
            pm_ns: Some(pm_analysis + pm_sim + rg_sim),
            ds_ns: Some(ds_analysis + ds_sim),
        }
    }
}
