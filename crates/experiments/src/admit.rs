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
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::admission::{
    requests_of, AdmissionConfig, AdmissionMode, AdmissionState, ChainRequest,
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

/// One arm's measurements out of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmitArm {
    /// Admit + retire operations served.
    pub ops: u64,
    /// Chains admitted (initial fill + churn re-admissions).
    pub admitted: u64,
    /// Admissions rejected.
    pub rejected: u64,
    /// Subtask analyses actually re-run.
    pub reanalyzed: u64,
    /// Subtask analyses skipped by memoization.
    pub skipped: u64,
}

impl AdmitArm {
    fn add(&mut self, other: &AdmitArm) {
        self.ops += other.ops;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.reanalyzed += other.reanalyzed;
        self.skipped += other.skipped;
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
    /// The memoizing arm.
    pub warm: AdmitArm,
    /// The from-scratch arm.
    pub cold: AdmitArm,
    /// Operations whose outcome differed between the arms (must be 0).
    pub disagreements: u64,
}

/// Aggregate of one `(N, U, mode)` cell.
#[derive(Clone, Debug)]
pub struct AdmitCell {
    /// Subtasks per task.
    pub n: usize,
    /// Per-processor utilization.
    pub u: f64,
    /// Analysis mode.
    pub mode: AdmissionMode,
    /// Runs aggregated.
    pub runs: usize,
    /// Warm-arm totals.
    pub warm: AdmitArm,
    /// Cold-arm totals.
    pub cold: AdmitArm,
    /// Total operations that disagreed between the arms.
    pub disagreements: u64,
}

/// The whole study's outcome.
#[derive(Clone, Debug)]
pub struct AdmitOutcome {
    /// Cell aggregates: shapes outer, modes inner.
    pub cells: Vec<AdmitCell>,
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
/// ids. Returns the measurements plus the per-operation outcome trace
/// (admitted flag per admit, success flag per retire) for agreement
/// checking.
fn drive(
    processors: usize,
    requests: &[ChainRequest],
    churn_rounds: usize,
    cfg: AdmissionConfig,
) -> (AdmitArm, Vec<bool>) {
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
    let stats = state.stats();
    let arm = AdmitArm {
        ops: stats.decisions + stats.retired,
        admitted: stats.admitted,
        rejected: stats.rejected,
        reanalyzed: stats.subtasks_reanalyzed,
        skipped: stats.subtasks_skipped,
    };
    (arm, outcomes)
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

    let cells = cells
        .iter()
        .enumerate()
        .map(|(c, &(n, u, mode))| {
            let runs = &verdicts[c * cfg.systems_per_cell..(c + 1) * cfg.systems_per_cell];
            let (warm, cold, disagreements) = totals(runs);
            AdmitCell {
                n,
                u,
                mode,
                runs: runs.len(),
                warm,
                cold,
                disagreements,
            }
        })
        .collect();

    AdmitOutcome { cells, verdicts }
}

/// Warm-arm totals, cold-arm totals and disagreements over `runs`.
fn totals<'a>(runs: impl IntoIterator<Item = &'a AdmitVerdict>) -> (AdmitArm, AdmitArm, u64) {
    let (mut warm, mut cold, mut disagreements) = (AdmitArm::default(), AdmitArm::default(), 0);
    for v in runs {
        warm.add(&v.warm);
        cold.add(&v.cold);
        disagreements += v.disagreements;
    }
    (warm, cold, disagreements)
}

/// The mode's CSV/column tag.
fn mode_tag(mode: AdmissionMode) -> &'static str {
    match mode {
        AdmissionMode::PmFamily => "pm",
        AdmissionMode::DirectSync => "ds",
    }
}

/// The work columns shared by the grid and summary CSVs.
const WORK_COLUMNS: &str =
    "ops,admitted,rejected,warm_reanalyzed,warm_skipped,cold_reanalyzed,disagreements";

/// One row's work columns, in [`WORK_COLUMNS`] order.
fn work_row(warm: &AdmitArm, cold: &AdmitArm, disagreements: u64) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        warm.ops,
        warm.admitted,
        warm.rejected,
        warm.reanalyzed,
        warm.skipped,
        cold.reanalyzed,
        disagreements,
    )
}

/// Cell-level CSV: one row per `(N, U, mode)` coordinate.
pub fn grid_csv(outcome: &AdmitOutcome) -> String {
    let mut out = format!("n,u,mode,runs,{WORK_COLUMNS}\n");
    for c in &outcome.cells {
        out.push_str(&format!(
            "{},{:.2},{},{},{}\n",
            c.n,
            c.u,
            mode_tag(c.mode),
            c.runs,
            work_row(&c.warm, &c.cold, c.disagreements),
        ));
    }
    out
}

/// Headline CSV: one row per mode plus the overall line (`mode=all`).
pub fn summary_csv(outcome: &AdmitOutcome) -> String {
    let mut out = format!("mode,runs,{WORK_COLUMNS}\n");
    let mut rows: Vec<(&str, Vec<&AdmitVerdict>)> = Vec::new();
    for mode in [AdmissionMode::PmFamily, AdmissionMode::DirectSync] {
        let runs: Vec<&AdmitVerdict> = outcome.verdicts.iter().filter(|v| v.mode == mode).collect();
        if !runs.is_empty() {
            rows.push((mode_tag(mode), runs));
        }
    }
    rows.push(("all", outcome.verdicts.iter().collect()));
    for (tag, runs) in rows {
        let (warm, cold, disagreements) = totals(runs.iter().copied());
        out.push_str(&format!(
            "{tag},{},{}\n",
            runs.len(),
            work_row(&warm, &cold, disagreements),
        ));
    }
    out
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
    for c in &outcome.cells {
        out.push_str(&format!(
            "{:<4}{:<6.2}{:<6}{:>10}{:>10}{:>10}{:>16}{:>14}{:>16}{:>10}\n",
            c.n,
            c.u,
            mode_tag(c.mode),
            c.warm.ops,
            c.warm.admitted,
            c.warm.rejected,
            c.warm.reanalyzed,
            c.warm.skipped,
            c.cold.reanalyzed,
            c.disagreements,
        ));
    }
    let (warm, cold, disagreements) = totals(&outcome.verdicts);
    out.push_str(&format!(
        "overall: {} ops over {} runs, memoization skipped {} of {} subtask analyses, \
         {disagreements} disagreements\n",
        warm.ops,
        outcome.verdicts.len(),
        warm.skipped,
        cold.reanalyzed,
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
        assert_eq!(outcome.cells.len(), cfg.shapes.len() * cfg.modes.len());
        assert_eq!(outcome.verdicts.len(), cfg.total_runs());
        assert!(outcome.is_clean(), "memoized and cold verdicts must agree");
        for v in &outcome.verdicts {
            assert!(v.warm.ops > 0);
            assert_eq!(v.warm.ops, v.cold.ops, "both arms serve the same sequence");
            assert_eq!(v.warm.admitted, v.cold.admitted);
            assert_eq!(v.warm.rejected, v.cold.rejected);
        }
        // The §5.1 chains are schedulable as generated: the fill admits
        // every chain and churn keeps re-admitting, so the memoizing arm
        // skips work the cold arm repeats.
        let warm_skips: u64 = outcome.verdicts.iter().map(|v| v.warm.skipped).sum();
        assert!(warm_skips > 0, "memoization never skipped anything");
    }

    #[test]
    fn deterministic_verdicts_across_thread_counts() {
        let cfg1 = AdmitStudyConfig {
            threads: 1,
            ..AdmitStudyConfig::smoke()
        };
        let cfg4 = AdmitStudyConfig {
            threads: 4,
            ..AdmitStudyConfig::smoke()
        };
        let a = run_admit_study(&cfg1);
        let b = run_admit_study(&cfg4);
        for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(x.system_seed, y.system_seed);
        }
        // Every column is a count, so the records match byte for byte.
        assert_eq!(grid_csv(&a), grid_csv(&b));
        assert_eq!(summary_csv(&a), summary_csv(&b));
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
        let grid = grid_csv(&outcome);
        assert_eq!(grid.lines().count(), 1 + outcome.cells.len());
        let summary = summary_csv(&outcome);
        // pm + ds + all.
        assert_eq!(summary.lines().count(), 1 + 3);
        assert!(render(&outcome).contains("overall: "));
    }
}
