//! The admission-control study: whether the incremental engine's
//! memoized verdicts match a from-scratch oracle on §5.1 synthetic
//! workloads, and how much analysis work the memoization saves.
//!
//! Each run draws a seeded §5.1 system (4 processors), converts its task
//! chains into [`ChainRequest`]s ranked shortest-period-first, and
//! drives the same operation sequence through two
//! [`AdmissionState`] arms over identical requests:
//!
//! * **warm** — memoization on: `admit` re-runs fixed points only for
//!   subtasks whose interference set changed, seeded from the memoized
//!   bounds;
//! * **cold** — memoization off: every decision re-analyzes the whole
//!   resident system from scratch, exactly the batch analyses.
//!
//! The sequence admits every chain, then churns: each round retires one
//! resident (cycling over the admitted ids) and re-admits it. That is
//! the online steady state the engine exists for — membership changes
//! one chain at a time against a warm resident set. Per `(N, U, mode)`
//! cell the study reports the verdicts, the subtask re-analyses each arm
//! actually ran and the ones memoization skipped, and a verdict-agreement
//! count: any admit/retire whose outcome differs between the arms is a
//! correctness failure ([`AdmitOutcome::is_clean`]), since memoization is
//! exactness-preserving by construction.
//!
//! Every reported number is a count, so the records regenerate byte for
//! byte. Decision latency and throughput are measured by `rtsync bench`
//! (the `admit` tier) instead.

use crate::campaign::run_grid;
use crate::seeding::job_seed;
use crate::table::{col, Agg::*, Rows, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::admission::{
    requests_of, AdmissionConfig, AdmissionMode, AdmissionState, AdmissionStats, ChainRequest,
};
use rtsync_workload::{generate, WorkloadSpec};

/// Admission-study parameters.
#[derive(Clone, Debug)]
pub struct AdmitStudyConfig {
    /// Workload shapes to sweep: `(subtasks per task, per-processor
    /// utilization)` of the §5.1 generator.
    pub shapes: Vec<(usize, f64)>,
    /// Analysis modes to sweep.
    pub modes: Vec<AdmissionMode>,
    /// Systems drawn per `(shape, mode)` cell.
    pub systems_per_cell: usize,
    /// Retire + re-admit rounds per system after the initial fill.
    pub churn_rounds: usize,
    /// Master seed; system seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for AdmitStudyConfig {
    fn default() -> AdmitStudyConfig {
        AdmitStudyConfig {
            shapes: vec![(2, 0.25), (4, 0.25), (4, 0.50), (8, 0.50)],
            modes: vec![AdmissionMode::PmFamily, AdmissionMode::DirectSync],
            systems_per_cell: 8,
            churn_rounds: 200,
            seed: 0xAD31_7000,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl AdmitStudyConfig {
    /// A reduced study for CI smoke jobs and tests.
    pub fn smoke() -> AdmitStudyConfig {
        AdmitStudyConfig {
            shapes: vec![(2, 0.25), (4, 0.50)],
            systems_per_cell: 2,
            churn_rounds: 12,
            ..AdmitStudyConfig::default()
        }
    }

    /// Total runs in the study (each run drives both arms).
    pub fn total_runs(&self) -> usize {
        self.shapes.len() * self.modes.len() * self.systems_per_cell
    }
}

/// The verdict of one run: both arms over the same operation sequence.
#[derive(Clone, Debug)]
pub struct AdmitVerdict {
    /// Subtasks per task of this run's cell.
    pub n: usize,
    /// Per-processor utilization of this run's cell.
    pub u: f64,
    /// Analysis mode of this run's cell.
    pub mode: AdmissionMode,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// The memoizing arm's engine counters.
    pub warm: AdmissionStats,
    /// The from-scratch arm's engine counters.
    pub cold: AdmissionStats,
    /// Operations whose outcome differed between the arms (must be 0).
    pub disagreements: u64,
}

/// The study's columns over its runs, folded per `(N, U, mode)` cell
/// into `admit_grid.csv` and per mode into `admit_summary.csv`.
#[rustfmt::skip]
const TABLE: Table<AdmitVerdict> = Table(&[
    col("n", Key, Key, |v| v.n.into()),
    col("u", Key, Key, |v| Value::Fixed(v.u, 2)),
    col("mode", Key, Key, |v| mode_tag(v.mode).into()),
    col("runs", Count, Sum, |_| Value::None),
    col("ops", Sum, Sum, |v| (v.warm.decisions + v.warm.retired).into()),
    col("admitted", Sum, Sum, |v| v.warm.admitted.into()),
    col("rejected", Sum, Sum, |v| v.warm.rejected.into()),
    col("warm_reanalyzed", Sum, Sum, |v| v.warm.subtasks_reanalyzed.into()),
    col("warm_skipped", Sum, Sum, |v| v.warm.subtasks_skipped.into()),
    col("cold_reanalyzed", Sum, Sum, |v| v.cold.subtasks_reanalyzed.into()),
    col("disagreements", Sum, Sum, |v| v.disagreements.into()),
]);

/// The header of `admit_grid.csv`, one row per `(N, U, mode)` cell.
const GRID: &str = "n,u,mode,runs,ops,admitted,rejected,warm_reanalyzed,warm_skipped,\
    cold_reanalyzed,disagreements";

/// The header of `admit_summary.csv`: one row per mode plus the overall
/// line (`mode=all`).
const SUMMARY: &str = "mode,runs,ops,admitted,rejected,warm_reanalyzed,warm_skipped,\
    cold_reanalyzed,disagreements";

/// The whole study's outcome.
#[derive(Clone, Debug)]
pub struct AdmitOutcome {
    /// One row per `(N, U, mode)` cell, shapes outer, modes inner: the
    /// columns of `admit_grid.csv`.
    pub cells: Rows,
    /// One row per mode, then the overall row (`mode` reads `all`): the
    /// columns of `admit_summary.csv`.
    pub summary: Rows,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<AdmitVerdict>,
}

impl AdmitOutcome {
    /// `true` when the warm and cold arms agreed on every single
    /// operation's outcome — the memoization exactness invariant.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|v| v.disagreements == 0)
    }
}

/// Drives one arm through the full sequence: admit every chain, then
/// `churn_rounds` retire + re-admit rounds cycling over the admitted
/// ids. Returns the engine's counters plus the per-operation outcome trace
/// (admitted flag per admit, success flag per retire) for agreement
/// checking.
fn drive(
    processors: usize,
    requests: &[ChainRequest],
    churn_rounds: usize,
    cfg: AdmissionConfig,
) -> (AdmissionStats, Vec<bool>) {
    let mut state = AdmissionState::new(processors, cfg);
    let mut outcomes = Vec::with_capacity(requests.len() + 2 * churn_rounds);
    let mut resident_ids: Vec<u64> = Vec::new();
    for req in requests {
        let decision = state.admit(req.clone());
        if decision.admitted {
            resident_ids.push(req.id);
        }
        outcomes.push(decision.admitted);
    }
    for round in 0..churn_rounds {
        if resident_ids.is_empty() {
            break;
        }
        let id = resident_ids[round % resident_ids.len()];
        let retired = state.retire(id).is_ok();
        outcomes.push(retired);
        let req = requests[id as usize].clone();
        let readmitted = state.admit(req).admitted;
        outcomes.push(readmitted);
        if !readmitted {
            // Shrinking a schedulable system and re-growing it to the
            // same membership cannot fail; recorded for the agreement
            // check rather than assumed.
            resident_ids.retain(|&r| r != id);
        }
    }
    (state.stats(), outcomes)
}

/// Evaluates one run of one cell: both arms over the same sequence.
fn evaluate_run(
    cell: (usize, f64, AdmissionMode),
    run_index: usize,
    system_seed: u64,
    churn_rounds: usize,
) -> AdmitVerdict {
    let (n, u, mode) = cell;
    let set = generate(
        &WorkloadSpec::paper(n, u),
        &mut StdRng::seed_from_u64(system_seed),
    )
    .expect("paper spec always generates");
    let (processors, requests) = (set.num_processors(), requests_of(&set));
    let base = AdmissionConfig::new(mode);
    let (warm, warm_outcomes) = drive(processors, &requests, churn_rounds, base);
    let (cold, cold_outcomes) = drive(
        processors,
        &requests,
        churn_rounds,
        base.with_memoization(false),
    );
    let disagreements = warm_outcomes
        .iter()
        .zip(&cold_outcomes)
        .filter(|(w, c)| w != c)
        .count() as u64
        + warm_outcomes.len().abs_diff(cold_outcomes.len()) as u64;
    AdmitVerdict {
        n,
        u,
        mode,
        run_index,
        system_seed,
        warm,
        cold,
        disagreements,
    }
}

/// Runs the whole study: `shapes × modes × systems_per_cell` seeded
/// runs, two arms each. Cells come back shapes-outer, modes-inner;
/// verdicts in (cell, run) order. The outcome is deterministic for a
/// given config, whatever the thread count.
pub fn run_admit_study(cfg: &AdmitStudyConfig) -> AdmitOutcome {
    let cells: Vec<(usize, f64, AdmissionMode)> = cfg
        .shapes
        .iter()
        .flat_map(|&(n, u)| cfg.modes.iter().map(move |&mode| (n, u, mode)))
        .collect();
    let verdicts = run_grid(cells.len(), cfg.systems_per_cell, cfg.threads, |c, r| {
        // Same shape + run index → same system seed, so every mode (and
        // both arms) sees identical systems.
        let (n, u, _) = cells[c];
        let shape_index = cfg
            .shapes
            .iter()
            .position(|&s| s == (n, u))
            .expect("own shape");
        let system_seed = job_seed(cfg.seed, shape_index, r);
        evaluate_run(cells[c], r, system_seed, cfg.churn_rounds)
    });

    let cells = TABLE.cells(&verdicts, cfg.systems_per_cell);
    let summary = TABLE.summary(&cells, "mode", Some("all"));
    AdmitOutcome {
        cells,
        summary,
        verdicts,
    }
}

/// The mode's CSV/column tag.
fn mode_tag(mode: AdmissionMode) -> &'static str {
    match mode {
        AdmissionMode::PmFamily => "pm",
        AdmissionMode::DirectSync => "ds",
    }
}

/// The study's records: `admit_grid.csv`, one row per `(N, U, mode)`
/// coordinate, and `admit_summary.csv`, one row per mode plus the overall
/// line.
pub fn records(outcome: &AdmitOutcome) -> Vec<String> {
    vec![outcome.cells.csv(GRID), outcome.summary.csv(SUMMARY)]
}

/// ASCII rendering of the grid.
pub fn render(outcome: &AdmitOutcome) -> String {
    let mut out =
        String::from("admission verdicts and work (warm = memoized, cold = from-scratch)\n");
    out.push_str(&format!(
        "{:<4}{:<6}{:<6}{:>10}{:>10}{:>10}{:>16}{:>14}{:>16}{:>10}\n",
        "N",
        "U",
        "mode",
        "ops",
        "admitted",
        "rejected",
        "warm reanalyzed",
        "warm skipped",
        "cold reanalyzed",
        "disagree"
    ));
    for c in outcome.cells.iter() {
        out.push_str(&format!(
            "{:<4}{:<6}{:<6}{:>10}{:>10}{:>10}{:>16}{:>14}{:>16}{:>10}\n",
            c.get("n"),
            c.get("u"),
            c.get("mode"),
            c.get("ops"),
            c.get("admitted"),
            c.get("rejected"),
            c.get("warm_reanalyzed"),
            c.get("warm_skipped"),
            c.get("cold_reanalyzed"),
            c.get("disagreements"),
        ));
    }
    let all = outcome.summary.iter().last().expect("the overall row");
    out.push_str(&format!(
        "overall: {} ops over {} runs, memoization skipped {} of {} subtask analyses, \
         {} disagreements\n",
        all.get("ops"),
        all.get("runs"),
        all.get("warm_skipped"),
        all.get("cold_reanalyzed"),
        all.get("disagreements"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_runs_and_arms_agree() {
        let cfg = AdmitStudyConfig {
            threads: 2,
            ..AdmitStudyConfig::smoke()
        };
        let outcome = run_admit_study(&cfg);
        assert_eq!(
            outcome.cells.iter().count(),
            cfg.shapes.len() * cfg.modes.len()
        );
        assert_eq!(outcome.verdicts.len(), cfg.total_runs());
        assert!(outcome.is_clean(), "memoized and cold verdicts must agree");
        for v in &outcome.verdicts {
            let ops = |arm: &AdmissionStats| arm.decisions + arm.retired;
            assert!(ops(&v.warm) > 0);
            assert_eq!(
                ops(&v.warm),
                ops(&v.cold),
                "both arms serve the same sequence"
            );
            assert_eq!(v.warm.admitted, v.cold.admitted);
            assert_eq!(v.warm.rejected, v.cold.rejected);
        }
        // The §5.1 chains are schedulable as generated: the fill admits
        // every chain and churn keeps re-admitting, so the memoizing arm
        // skips work the cold arm repeats.
        let warm_skips: u64 = outcome
            .verdicts
            .iter()
            .map(|v| v.warm.subtasks_skipped)
            .sum();
        assert!(warm_skips > 0, "memoization never skipped anything");
    }

    #[test]
    fn csvs_have_matching_shapes() {
        let outcome = run_admit_study(&AdmitStudyConfig {
            threads: 1,
            systems_per_cell: 1,
            churn_rounds: 4,
            shapes: vec![(2, 0.25)],
            ..AdmitStudyConfig::smoke()
        });
        let [grid, summary] = &records(&outcome)[..] else {
            panic!("two records")
        };
        assert_eq!(grid.lines().count(), 1 + outcome.cells.iter().count());
        // pm + ds + all.
        assert_eq!(summary.lines().count(), 1 + 3);
        assert!(render(&outcome).contains("overall: "));
    }
}
