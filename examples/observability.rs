//! What each protocol actually *does* at run time: one §5.1 workload of
//! configuration `(N=4, U=70%)` simulated under all four protocols with a
//! [`ProtocolCounters`] observer attached, then compared side by side —
//! the Release Guard's guard delay against Direct Synchronization's
//! preemption and context-switch churn.
//!
//! ```text
//! cargo run --release --example observability [seed]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync::core::time::Dur;
use rtsync::core::Protocol;
use rtsync::sim::{simulate_observed, ProtocolCounters, SimConfig};
use rtsync::workload::{generate, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(96);

    let spec = WorkloadSpec::paper(4, 0.7).with_random_phases();
    let mut rng = StdRng::seed_from_u64(seed);
    let system = generate(&spec, &mut rng)?;
    println!(
        "configuration (4, 70): {} tasks on {} processors, seed {seed}, \
         100 end-to-end instances per task\n",
        system.num_tasks(),
        system.num_processors()
    );

    let mut tallies = Vec::new();
    for protocol in Protocol::ALL {
        let mut counters = ProtocolCounters::default();
        let cfg = SimConfig::new(protocol).with_instances(100);
        let outcome = simulate_observed(&system, &cfg, &mut counters)?;
        tallies.push((counters, outcome));
    }

    // Side-by-side comparison: the protocols trade blocking for churn.
    // RG pays in guard delay, DS pays in preemptions and sync interrupts;
    // PM needs neither but requires globally synchronized clocks.
    println!(
        "{:<28}{:>10}{:>10}{:>10}{:>10}",
        "counter", "DS", "PM", "MPM", "RG"
    );
    let row = |name: &str, f: &dyn Fn(&ProtocolCounters) -> u64| {
        print!("{name:<28}");
        for (c, _) in &tallies {
            print!("{:>10}", f(c));
        }
        println!();
    };
    print!("{:<28}", "events");
    for (_, outcome) in &tallies {
        print!("{:>10}", outcome.events);
    }
    println!();
    row("sync interrupts", &|c| c.total_sync_interrupts());
    row("guard blocks", &|c| c.total_guard_blocks());
    row("guard delay (ticks)", &|c| {
        c.total_guard_delay().ticks() as u64
    });
    row("preemptions", &|c| c.total_preemptions());
    row("context switches", &|c| c.total_context_switches());

    let rg = &tallies[3].0;
    let ds = &tallies[0].0;
    let mean_delay = if rg.total_guard_blocks() > 0 {
        rg.total_guard_delay().as_f64() / rg.total_guard_blocks() as f64
    } else {
        0.0
    };
    println!(
        "\nRG blocked {} releases for {} ticks total (mean {:.1} ticks/block);\n\
         DS instead preempted {} times across {} context switches.",
        rg.total_guard_blocks(),
        rg.total_guard_delay().ticks(),
        mean_delay,
        ds.total_preemptions(),
        ds.total_context_switches(),
    );

    // The full per-task breakdown for the protocol with the most guard
    // activity, straight from the observer's renderer.
    let (busiest, outcome) = tallies
        .iter()
        .max_by_key(|(c, _)| c.total_guard_delay())
        .expect("four tallies");
    if busiest.total_guard_delay() > Dur::ZERO {
        println!("\n{}", busiest.render(outcome));
    }
    Ok(())
}
