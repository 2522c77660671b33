//! A warm admission engine allocates little per decision: it edits its
//! resident task set in place, so an admit pays for the candidate's chain,
//! its memos and the subtask analyses it runs, and a retire for the
//! analyses it reruns, not for a rebuilt set or cloned memos.
//!
//! A counting global allocator tallies the allocations (reallocations
//! included) made by the test's own thread, so the harness's other
//! threads do not disturb the count. A seeded closed-loop stream of
//! admits and retires first fills each engine, then the mean
//! allocations per accepted admit, rejected admit and retire are held
//! to a budget over the rest of the stream.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsync_core::analysis::admission::{
    AdmissionConfig, AdmissionMode, AdmissionState, ChainRequest, RejectReason,
};
use rtsync_core::time::Dur;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// SplitMix64: a seeded stream of draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PROCESSORS: usize = 4;
const POOL: usize = 240;
const FILL: usize = 2_000;
const MEASURED: usize = 4_000;

/// A pool of chains of one to four links over four processors, ranked
/// shortest-period-first, each link taking 2–10% of its processor.
fn pool(rng: &mut SplitMix) -> Vec<ChainRequest> {
    (0..POOL as u64)
        .map(|id| {
            let period = 1_000 * [100, 150, 200, 300, 400, 600, 800][rng.below(7) as usize];
            let mut proc = rng.below(PROCESSORS as u64) as usize;
            let links = (0..=rng.below(4))
                .map(|_| {
                    proc = (proc + 1 + rng.below(PROCESSORS as u64 - 1) as usize) % PROCESSORS;
                    let exec = period * (20 + rng.below(80) as i64) / 1_000;
                    (proc, Dur::from_ticks(exec))
                })
                .collect();
            ChainRequest::new(id, Dur::from_ticks(period), links)
                .with_deadline(Dur::from_ticks(period * (1 + rng.below(3) as i64)))
                .with_rank(period as u32)
        })
        .collect()
}

/// Decisions and allocations of one kind.
#[derive(Default, Debug)]
struct Tally {
    decisions: u64,
    allocs: u64,
}

impl Tally {
    fn mean(&self) -> f64 {
        self.allocs as f64 / self.decisions.max(1) as f64
    }
}

/// Mean allocations per accepted admit, rejected admit (the utilization
/// gate's rejects excluded) and retire over the measured part of a
/// seeded stream, with the mean resident count.
fn measure(mode: AdmissionMode, seed: u64) -> ([Tally; 3], f64) {
    let mut rng = SplitMix(seed);
    let pool = pool(&mut rng);
    let mut state = AdmissionState::new(PROCESSORS, AdmissionConfig::new(mode));
    let mut resident: Vec<u64> = Vec::new();
    let mut idle: Vec<u64> = (0..POOL as u64).collect();
    let mut tallies: [Tally; 3] = Default::default();
    let mut residents_seen = 0;
    for step in 0..FILL + MEASURED {
        let measured = step >= FILL;
        if resident.is_empty() || rng.below(1000) < 555 {
            let at = rng.below(idle.len() as u64) as usize;
            let req = pool[idle[at] as usize].clone();
            let before = allocs();
            let dec = state.admit(req);
            let spent = allocs() - before;
            if dec.admitted {
                resident.push(idle.swap_remove(at));
            }
            let gated = matches!(dec.reject, Some(RejectReason::UtilizationGate { .. }));
            if measured && !gated {
                let t = &mut tallies[usize::from(!dec.admitted)];
                t.decisions += 1;
                t.allocs += spent;
            }
        } else {
            let at = rng.below(resident.len() as u64) as usize;
            let before = allocs();
            state.retire(resident[at]).expect("a resident retires");
            let spent = allocs() - before;
            idle.push(resident.swap_remove(at));
            if measured {
                tallies[2].decisions += 1;
                tallies[2].allocs += spent;
            }
        }
        if measured {
            residents_seen += state.residents();
        }
    }
    (tallies, residents_seen as f64 / MEASURED as f64)
}

/// Budgets in mean allocations per accepted admit, rejected admit and
/// retire. A PM-family admit allocates the candidate's chain, its memo
/// list and two buffers per subtask analysis, a retire two per
/// reanalysis. A DS decision reuses its kernel arenas and its one bound
/// table, so an admit allocates the candidate's chain and at most a
/// bound row for it, and a retire nothing. On these streams the engine
/// spends 20–24 per PM admit, 16–18 per PM retire, 1.8–2.0 per DS admit
/// and 0 per DS retire. Rebuilding the resident set and cloning the clean
/// memos on every decision spent 118–137 per PM and 58–83 per DS
/// decision; a seed table and a Jacobi buffer per DS run spent 28–38 per
/// DS admit and 25–28 per DS retire, over every budget.
fn budget(mode: AdmissionMode) -> [f64; 3] {
    match mode {
        AdmissionMode::PmFamily => [30.0, 30.0, 25.0],
        AdmissionMode::DirectSync => [3.0, 3.0, 1.0],
    }
}

#[test]
fn warm_admission_stays_within_its_allocation_budget() {
    for mode in [AdmissionMode::PmFamily, AdmissionMode::DirectSync] {
        for seed in [1, 2] {
            let (tallies, residents) = measure(mode, seed);
            let means = tallies.each_ref().map(Tally::mean);
            eprintln!(
                "{mode:?} seed {seed}: {residents:.1} residents, {tallies:?} means {means:.1?}"
            );
            assert!(
                residents > 10.0,
                "{mode:?} seed {seed}: a thin engine ({residents:.1})"
            );
            for ((kind, t), (mean, limit)) in ["accepted admit", "rejected admit", "retire"]
                .iter()
                .zip(&tallies)
                .zip(means.iter().zip(budget(mode)))
            {
                assert!(
                    t.decisions >= 100,
                    "{mode:?} seed {seed}: {} {kind}s",
                    t.decisions
                );
                assert!(
                    *mean <= limit,
                    "{mode:?} seed {seed}: {mean:.1} allocations per {kind} (budget {limit})"
                );
            }
        }
    }
}
