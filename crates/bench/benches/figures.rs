//! One benchmark per evaluation figure: each measures the per-system
//! kernel that `rtsync study figures` scales up to the paper's 35
//! configurations × 1000 systems (Figures 12–16).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::sa_ds::analyze_ds;
use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_sim::engine::{simulate, SimConfig};
use rtsync_workload::{generate, WorkloadSpec};

fn systems(n: usize, u: f64, count: usize) -> Vec<TaskSet> {
    (0..count)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(1000 + seed as u64);
            generate(&WorkloadSpec::paper(n, u).with_random_phases(), &mut rng)
                .expect("paper spec generates")
        })
        .collect()
}

/// Figure 12 kernel: classify systems at a failure-prone configuration as
/// finite/failed under Algorithm SA/DS.
fn fig12_failure_rate(c: &mut Criterion) {
    let cfg = AnalysisConfig::default();
    let sets = systems(7, 0.9, 3);
    c.bench_function("fig12_failure_rate_kernel_n7_u90", |b| {
        b.iter(|| {
            sets.iter()
                .filter(|s| analyze_ds(black_box(s), &cfg).is_err())
                .count()
        })
    });
}

/// Figure 13 kernel: per-task bound ratio SA-DS / SA-PM.
fn fig13_bound_ratio(c: &mut Criterion) {
    let cfg = AnalysisConfig::default();
    let sets = systems(4, 0.7, 2);
    c.bench_function("fig13_bound_ratio_kernel_n4_u70", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for set in &sets {
                let pm = analyze_pm(set, &cfg).expect("U < 1 analyzes");
                if let Ok(ds) = analyze_ds(set, &cfg) {
                    for task in set.tasks() {
                        acc +=
                            ds.task_bound(task.id()).as_f64() / pm.task_bound(task.id()).as_f64();
                    }
                }
            }
            black_box(acc)
        })
    });
}

fn avg_ratio(set: &TaskSet, a: Protocol, b: Protocol, instances: u64) -> f64 {
    let run = |p| simulate(set, &SimConfig::new(p).with_instances(instances)).expect("simulates");
    let (oa, ob) = (run(a), run(b));
    let mut acc = 0.0;
    let mut count = 0;
    for task in set.tasks() {
        if let (Some(x), Some(y)) = (
            oa.metrics.task(task.id()).avg_eer(),
            ob.metrics.task(task.id()).avg_eer(),
        ) {
            acc += x / y;
            count += 1;
        }
    }
    acc / count.max(1) as f64
}

/// Figure 14 kernel: simulated avg-EER ratio PM / DS on one system.
fn fig14_pm_ds(c: &mut Criterion) {
    let set = &systems(5, 0.6, 1)[0];
    c.bench_function("fig14_pm_ds_kernel_n5_u60", |b| {
        b.iter(|| {
            black_box(avg_ratio(
                set,
                Protocol::PhaseModification,
                Protocol::DirectSync,
                10,
            ))
        })
    });
}

/// Figure 15 kernel: simulated avg-EER ratio RG / DS on one system.
fn fig15_rg_ds(c: &mut Criterion) {
    let set = &systems(5, 0.6, 1)[0];
    c.bench_function("fig15_rg_ds_kernel_n5_u60", |b| {
        b.iter(|| {
            black_box(avg_ratio(
                set,
                Protocol::ReleaseGuard,
                Protocol::DirectSync,
                10,
            ))
        })
    });
}

/// Figure 16 kernel: simulated avg-EER ratio PM / RG on one system.
fn fig16_pm_rg(c: &mut Criterion) {
    let set = &systems(5, 0.6, 1)[0];
    c.bench_function("fig16_pm_rg_kernel_n5_u60", |b| {
        b.iter(|| {
            black_box(avg_ratio(
                set,
                Protocol::PhaseModification,
                Protocol::ReleaseGuard,
                10,
            ))
        })
    });
}

fn configure() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = configure();
    targets = fig12_failure_rate, fig13_bound_ratio, fig14_pm_ds, fig15_rg_ds, fig16_pm_rg
}
criterion_main!(benches);
