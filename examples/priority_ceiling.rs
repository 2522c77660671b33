//! Resource contention under the Highest Locker protocol — the second
//! "future work" item of the paper's §6 ("We have also ignored the effect
//! of non-preemptivity and resource contention"), implemented.
//!
//! A control task and a logging task share a state store on the same
//! processor. While the logger walks the store (a long critical section)
//! it runs at the store's priority ceiling, briefly blocking the
//! controller — bounded, analyzable blocking instead of unbounded priority
//! inversion. The analyses account it with the classic one-blocking term.
//!
//! ```text
//! cargo run --example priority_ceiling
//! ```

use rtsync::core::analysis::report::analyze;
use rtsync::core::analysis::sa_pm::analyze_pm;
use rtsync::core::task::{Priority, TaskId, TaskSet};
use rtsync::core::time::{Dur, Time};
use rtsync::core::{AnalysisConfig, Protocol};
use rtsync::sim::{simulate, simulate_observed, InvariantObserver, SimConfig};

fn build_system() -> TaskSet {
    let d = Dur::from_ticks;
    TaskSet::builder(2)
        // Controller: samples on P1, actuates on P0 touching the shared
        // state store (resource 0) for 2 of its 4 ticks.
        .task(d(40))
        .subtask(1, d(3), Priority::new(0))
        .subtask(0, d(4), Priority::new(0))
        .critical_section(0, d(1), d(2))
        .finish_task()
        // Logger: low priority, walks the store for 6 of its 9 ticks.
        .task(d(90))
        .subtask(0, d(9), Priority::new(2))
        .critical_section(0, d(2), d(6))
        .finish_task()
        // Housekeeping: middle priority, no resources — it can neither
        // preempt the logger inside the store (ceiling!) nor be starved.
        .task(d(60))
        .subtask(0, d(5), Priority::new(1))
        .finish_task()
        .build()
        .expect("the system is valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = build_system();
    let cfg = AnalysisConfig::default();

    println!("shared state store on P0 under the Highest Locker protocol\n");
    let store_ceiling = system
        .resource_ceiling(rtsync::core::task::ResourceId::new(0))
        .expect("the store is used");
    println!(
        "store ceiling: {store_ceiling} (the controller's priority)\n\
         blocking bounds from the logger's 6-tick section:"
    );
    for task in system.tasks() {
        for sub in task.subtasks() {
            let b = system.blocking_bound(sub.id());
            if b.is_positive() {
                println!("  {}: B = {} ticks", sub.id(), b.ticks());
            }
        }
    }

    println!("\nblocking-aware schedulability (Release Guard):");
    let report = analyze(&system, Protocol::ReleaseGuard, &cfg)?;
    println!("{report}\n");

    let bounds = analyze_pm(&system, &cfg)?;
    let mut checker = InvariantObserver::default();
    let out = simulate_observed(
        &system,
        &SimConfig::new(Protocol::ReleaseGuard).with_instances(300),
        &mut checker,
    )?;
    checker.check_outcome(&out);
    println!("simulated (300 instances/task):");
    for (i, s) in out.metrics.tasks().iter().enumerate() {
        println!(
            "  T{i}: avg EER {:.1}, worst {} (bound {}), p99 {}",
            s.avg_eer().unwrap_or(f64::NAN),
            s.max_eer().map_or(-1, |x| x.ticks()),
            bounds.task_bound(TaskId::new(i)).ticks(),
            s.eer_quantile(0.99).map_or(-1, |x| x.ticks()),
        );
    }

    // The online schedule checker judged every slice as it ran: no
    // overlap, exact budgets, and no inversion beyond the ceiling's.
    if !checker.is_clean() {
        for v in checker.violations() {
            eprintln!("schedule violation: {v}");
        }
        return Err(format!("{} schedule violations", checker.violations().len()).into());
    }
    println!("\nonline schedule check: clean");

    // Show the ceiling in action on a short trace.
    let short = simulate(
        &system,
        &SimConfig::new(Protocol::ReleaseGuard)
            .with_instances(2)
            .with_trace(),
    )?;
    println!("\nfirst 30 ticks (P0: watch the logger hold off the controller):");
    println!(
        "{}",
        short
            .trace
            .as_ref()
            .expect("trace on")
            .render_gantt(Time::from_ticks(30))
    );
    Ok(())
}
