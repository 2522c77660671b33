//! The one campaign runner, plus the aggregation and CSV helpers every
//! campaign shares.
//!
//! Every study in this crate is a grid of cells with a number of seeded
//! runs (or systems) per cell, each run a pure function of its
//! `(cell, run)` coordinates. [`run_grid`] fans those jobs out over
//! worker threads and hands the results back in `(cell, run)` order, so
//! a campaign's output never depends on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::task::TaskSet;
use rtsync_sim::engine::SimOutcome;
use rtsync_sim::nonideal::eer_inflation;
use rtsync_workload::{generate, WorkloadSpec};

/// Runs `f(cell, run)` for every `cell < cells` and `run < runs_per_cell`
/// on up to `threads` worker threads (at least one; never more than there
/// are jobs). Results come back cell-major, run-minor: the result of
/// `(cell, run)` sits at index `cell * runs_per_cell + run`. Workers pull
/// jobs from a shared cursor, so the order in which jobs *run* varies,
/// but the returned `Vec` is the same for every thread count as long as
/// `f` depends only on its arguments.
pub fn run_grid<T, F>(cells: usize, runs_per_cell: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let count = cells * runs_per_cell;
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let threads = threads.clamp(1, count.max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= count {
                    break;
                }
                let result = f(j / runs_per_cell, j % runs_per_cell);
                results.lock().expect("no panics while holding the lock")[j] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("lock released")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// The §5.1 synthetic system `seed` draws, with random phases: `n`
/// subtasks per task at per-processor utilization `u`.
pub(crate) fn paper_system(n: usize, u: f64, seed: u64) -> TaskSet {
    let spec = WorkloadSpec::paper(n, u).with_random_phases();
    generate(&spec, &mut StdRng::seed_from_u64(seed)).expect("paper spec always generates")
}

/// Mean-inflation accumulator: a running sum and count of EER-inflation
/// ratios. Ratios are summed in the order they are absorbed, so merging
/// per-run tallies in `(cell, run)` order gives the same float sum on
/// every thread count.
#[derive(Clone, Copy, Default)]
pub(crate) struct InflTally {
    pub(crate) sum: f64,
    pub(crate) count: u64,
}

impl InflTally {
    /// Absorbs every per-task `avg-EER(observed) / avg-EER(ideal)` ratio,
    /// in task order, skipping tasks that did not complete in both runs.
    pub(crate) fn absorb(&mut self, ideal: &SimOutcome, observed: &SimOutcome) {
        for ratio in eer_inflation(&ideal.metrics, &observed.metrics)
            .into_iter()
            .flatten()
        {
            self.sum += ratio;
            self.count += 1;
        }
    }

    /// Adds another tally's sum and count to this one.
    pub(crate) fn merge(&mut self, other: &InflTally) {
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The mean of everything absorbed; `NaN` when nothing was.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A run's end-to-end instances: the ones measured, the measured ones
/// that missed their deadline, and the ones lost to crashes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Instances {
    /// Instances with a measured response time.
    pub measured: u64,
    /// Measured instances past their end-to-end deadline.
    pub missed: u64,
    /// Instances lost to crashes.
    pub lost: u64,
}

impl Instances {
    /// Counts the instances of `out`.
    pub fn of(out: &SimOutcome) -> Instances {
        let tasks = out.metrics.tasks();
        Instances {
            measured: tasks.iter().map(|t| t.measured()).sum(),
            missed: tasks.iter().map(|t| t.deadline_misses()).sum(),
            lost: out.metrics.total_lost(),
        }
    }

    /// `missed + lost`: the instances that failed their deadline.
    pub fn missed_or_lost(&self) -> u64 {
        self.missed + self.lost
    }

    /// `measured + lost`: every resolved instance.
    pub fn resolved(&self) -> u64 {
        self.measured + self.lost
    }

    /// `(missed + lost) / (measured + lost)`; `NaN` with no instances.
    pub fn miss_or_loss_ratio(&self) -> f64 {
        match self.resolved() {
            0 => f64::NAN,
            n => self.missed_or_lost() as f64 / n as f64,
        }
    }
}

/// Mean per-task EER inflation of `observed` over `ideal`; `NaN` when no
/// task completed in both runs.
pub(crate) fn mean_inflation(ideal: &SimOutcome, observed: &SimOutcome) -> f64 {
    let mut tally = InflTally::default();
    tally.absorb(ideal, observed);
    tally.mean()
}

/// A CSV float cell: four decimals, or `NaN` for an undefined value.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        String::from("NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_cell_major_and_independent_of_thread_count() {
        let job = |c: usize, r: usize| (c, r, c * 1000 + r * r);
        let one = run_grid(3, 4, 1, job);
        assert_eq!(one.len(), 12);
        for (j, &(c, r, _)) in one.iter().enumerate() {
            assert_eq!((c, r), (j / 4, j % 4));
        }
        // 64 threads is far more than the 12 jobs.
        assert_eq!(run_grid(3, 4, 3, job), one);
        assert_eq!(run_grid(3, 4, 64, job), one);
    }

    #[test]
    fn empty_grids_return_nothing() {
        let job = |c: usize, r: usize| (c, r);
        assert!(run_grid(0, 5, 4, job).is_empty());
        assert!(run_grid(5, 0, 4, job).is_empty());
        assert!(run_grid(0, 0, 0, job).is_empty());
    }

    #[test]
    fn calls_f_exactly_once_per_job() {
        let (cells, runs) = (5, 7);
        for threads in [0, 1, 3, 64] {
            let calls: Vec<AtomicUsize> = (0..cells * runs).map(|_| AtomicUsize::new(0)).collect();
            run_grid(cells, runs, threads, |c, r| {
                calls[c * runs + r].fetch_add(1, Ordering::Relaxed);
            });
            assert!(calls.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn tally_merges_sums_and_counts() {
        let mut a = InflTally::default();
        assert!(a.mean().is_nan());
        a.merge(&InflTally { sum: 3.0, count: 2 });
        a.merge(&InflTally { sum: 6.0, count: 1 });
        assert_eq!(a.mean(), 3.0);
    }

    #[test]
    fn csv_floats_have_four_decimals_or_nan() {
        assert_eq!(fmt_f64(1.0), "1.0000");
        assert_eq!(fmt_f64(0.123_456), "0.1235");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "NaN");
    }
}
