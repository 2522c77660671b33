//! Benchmarks of Algorithm SA/PM and the busy-period fixed-point kernel.
//! Algorithm SA/DS is benched by the `sa_ds` tier of `rtsync bench`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::busy_period::{fixed_point, DemandTerm, FixedPointLimits};
use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_workload::{generate, WorkloadSpec};

fn system(n: usize, u: f64, seed: u64) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&WorkloadSpec::paper(n, u), &mut rng).expect("paper spec generates")
}

fn bench_sa_pm(c: &mut Criterion) {
    let cfg = AnalysisConfig::default();
    let mut group = c.benchmark_group("sa_pm");
    group.sample_size(20);
    for (n, u) in [(2, 0.5), (5, 0.7), (8, 0.9)] {
        let set = system(n, u, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_u{}", (u * 100.0) as u32)),
            &set,
            |b, set| b.iter(|| analyze_pm(black_box(set), &cfg).unwrap()),
        );
    }
    group.finish();
}

fn bench_busy_period_kernel(c: &mut Criterion) {
    // The fixed-point solver on a representative interference stack.
    let terms: Vec<DemandTerm> = (1..=12)
        .map(|k| {
            DemandTerm::jittered(
                Dur::from_ticks(100_000 + 37_000 * k),
                Dur::from_ticks(5_000 + 700 * k),
                Dur::from_ticks(10_000 * (k % 4)),
            )
        })
        .collect();
    let limits = FixedPointLimits::new(Dur::from_ticks(1_000_000_000), 100_000);
    c.bench_function("busy_period_fixed_point", |b| {
        b.iter(|| fixed_point(black_box(Dur::from_ticks(9_000)), black_box(&terms), limits))
    });
}

criterion_group!(benches, bench_sa_pm, bench_busy_period_kernel);
criterion_main!(benches);
