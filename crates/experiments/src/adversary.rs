//! The adversarial-time campaign: Byzantine timeservers × network
//! partitions × asymmetric links, swept as a grid and checked against
//! the hardened sync layer's honesty promise.
//!
//! Each run draws a synthetic §5.1 system (4 processors), gives the
//! first `liars` of them a lying timeserver [`Persona`], optionally
//! splits the network in half for a partition window, optionally skews
//! every link with a seeded asymmetric extra delay, and simulates it
//! under one of the four protocols with clock sync riding the acked
//! endpoint transport. The campaign reports, per
//! `(liar count, partition span, asymmetry bias)` cell,
//!
//! * **bracket integrity** — of the settled Marzullo estimates, how many
//!   failed to bracket the oracle's true offset within the advertised
//!   uncertainty. The sync layer promises *zero* while liars are a
//!   minority (`2·liars < n`); the grid documents where the promise
//!   breaks as the liar fraction crosses n/2;
//! * **partition accounting** — signals severed and replayed at the
//!   heal, sync/transport/heartbeat frames killed on the cut, and the
//!   failure detector's false verdicts charged to an open partition
//!   (ground-truth false-positive accounting);
//! * **EER inflation** — mean per-task `avg-EER(adversarial) /
//!   avg-EER(benign)` against a same-system, same-conditions run with
//!   every adversary knob neutral;
//! * **invariant verdicts** — the full [`InvariantObserver`] battery,
//!   with the uncertainty-honesty check *armed* only in minority-liar
//!   cells (beyond n/2 the miss is the measurement, not a bug).
//!
//! Like [`chaos`](crate::chaos), the campaign is embarrassingly
//! parallel over runs and bit-for-bit deterministic for a given seed
//! regardless of the thread count.

use crate::campaign::{mean_inflation, paper_system, run_grid};
use crate::seeding::job_seed;
use crate::table::{col, Agg, Agg::*, Rows, Table, Value};
use rtsync_core::protocol::Protocol;
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, ClockModel, LinkAsymmetry, NonidealConfig};
use rtsync_sim::{
    DetectStats, DetectorConfig, FaultConfig, FaultStats, InvariantKind, InvariantObserver,
    InvariantViolation, PartitionSchedule, PartitionWindow, Persona, SyncConfig, SyncStats,
    TransportConfig,
};

/// Adversary-campaign parameters.
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Lying-timeserver counts to sweep — of the 4 processors of the
    /// §5.1 workload, so the liar fraction crosses n/2 at 2.
    pub liar_counts: Vec<usize>,
    /// Partition spans (ticks) to sweep; `0` keeps the network whole.
    /// Nonzero spans split the lower half of the processors from the
    /// upper half at [`AdversaryConfig::partition_at`].
    pub partition_spans: Vec<i64>,
    /// Per-link asymmetric extra-delay bounds (ticks) to sweep; `0`
    /// keeps every link symmetric.
    pub asym_biases: Vec<i64>,
    /// The split instant of nonzero partition windows.
    pub partition_at: i64,
    /// Runs per grid cell; the protocol rotates over the run index, so 4
    /// runs cover DS/PM/MPM/RG, and the liar persona kind rotates
    /// (colluders, fixed liars, stuck clocks) underneath.
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// True-time sync round period (ticks).
    pub sync_period: i64,
    /// Upper bound of the uniform channel latency (ticks).
    pub latency: i64,
    /// Magnitude of the served lie (colluder target / fixed-liar offset,
    /// ticks) — far beyond any honest uncertainty, so a successful lie
    /// is unambiguous in the bracket statistics.
    pub lie: i64,
    /// Largest initial true clock offset (ticks).
    pub max_offset: i64,
    /// Oscillator drift bound (ppm).
    pub drift_ppm: i64,
    /// Master seed; system and condition seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for AdversaryConfig {
    fn default() -> AdversaryConfig {
        AdversaryConfig {
            liar_counts: vec![0, 1, 2, 3],
            partition_spans: vec![0, 300_000, 3_000_000],
            asym_biases: vec![0, 2_000],
            partition_at: 400_000,
            runs_per_cell: 4,
            n: 3,
            u: 0.6,
            instances_per_task: 10,
            sync_period: 50_000,
            latency: 2_000,
            lie: 40_000,
            max_offset: 1_000,
            drift_ppm: 20_000,
            seed: 0xAD5E_7A11,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl AdversaryConfig {
    /// A reduced campaign for CI smoke jobs and tests: the same three
    /// axes with fewer levels and runs.
    pub fn smoke(total_runs: usize) -> AdversaryConfig {
        let cfg = AdversaryConfig {
            liar_counts: vec![0, 1, 3],
            partition_spans: vec![0, 300_000],
            asym_biases: vec![0, 2_000],
            instances_per_task: 6,
            ..AdversaryConfig::default()
        };
        let cells = cfg.liar_counts.len() * cfg.partition_spans.len() * cfg.asym_biases.len();
        AdversaryConfig {
            runs_per_cell: total_runs.div_ceil(cells).max(1),
            ..cfg
        }
    }

    /// Total runs in the campaign.
    pub fn total_runs(&self) -> usize {
        self.liar_counts.len()
            * self.partition_spans.len()
            * self.asym_biases.len()
            * self.runs_per_cell
    }
}

/// One grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellSpec {
    liars: usize,
    partition_span: i64,
    asym_bias: i64,
}

/// The verdict of one adversarial run.
#[derive(Clone, Debug)]
pub struct AdversaryVerdict {
    /// The protocol (rotates over the run index).
    pub protocol: Protocol,
    /// Lying timeservers in this run's cell.
    pub liars: usize,
    /// Liar persona tag (`honest` when `liars == 0`).
    pub liar_kind: &'static str,
    /// Partition span of this run's cell (0 = whole network).
    pub partition_span: i64,
    /// Asymmetry bound of this run's cell (0 = symmetric links).
    pub asym_bias: i64,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// Seed of the run's condition streams (clocks, channel, personas).
    pub cond_seed: u64,
    /// Whether the uncertainty-honesty invariant was armed
    /// (`2·liars < processors`).
    pub honesty_armed: bool,
    /// The sync layer's counters: bracket samples and misses against the
    /// oracle, persona-corrupted responses, sync frames lost, severed and
    /// re-sent, and the largest oracle clock error at round instants.
    pub sync: SyncStats,
    /// The fault domain's counters: partition windows opened and healed,
    /// signals parked at the cut and replayed at the heal, and transport
    /// frames and heartbeats killed on the cut.
    pub faults: FaultStats,
    /// The failure detector's counters, among them the suspect and dead
    /// verdicts charged to an open partition.
    pub detect: DetectStats,
    /// Mean per-task EER inflation over the benign twin (`NaN` when no
    /// task completed in both runs).
    pub mean_inflation: f64,
    /// `true` if the run stopped before resolving every instance.
    pub stalled: bool,
    /// Invariant violations (empty for a clean run).
    pub violations: Vec<InvariantViolation>,
}

impl AdversaryVerdict {
    /// `true` when the run upheld every armed invariant — and, in
    /// minority-liar cells, resolved every instance. A Byzantine
    /// *majority* can capture the whole system's clocks (every round the
    /// phantom cluster out-votes the reference and steps every node by
    /// the full lie, so local time advances arbitrarily slower than true
    /// time): such runs stall against the horizon, pile up
    /// released-but-incomplete work, and compress RG's local-clock guard
    /// timers by the full lie — all by design; those *are* the
    /// documented failure mode, not campaign failures. Clock-independent
    /// safety invariants (precedence order, signal conservation, no
    /// cross-partition delivery, no down-processor activity) stay fatal
    /// in every cell.
    pub fn is_clean(&self) -> bool {
        let clock_dependent = [InvariantKind::UnboundedBacklog, InvariantKind::GuardSpacing];
        let fatal = self
            .violations
            .iter()
            .filter(|v| self.honesty_armed || !clock_dependent.contains(&v.kind))
            .count();
        fatal == 0 && (!self.stalled || !self.honesty_armed)
    }
}

/// The campaign's columns over its runs, folded per `(liars, partition
/// span, asymmetry)` cell into `adversary_grid.csv` and per liar count
/// into `adversary_summary.csv`.
#[rustfmt::skip]
const TABLE: Table<AdversaryVerdict> = Table(&[
    col("liars", Key, Key, |v| v.liars.into()),
    col("liar_fraction", Key, Key, |v| Value::Plain(v.liars as f64 / 4.0)),
    col("partition_span", Key, Key, |v| v.partition_span.into()),
    col("asym_bias", Key, Key, |v| v.asym_bias.into()),
    col("honesty_armed", Key, All, |v| v.honesty_armed.into()),
    col("cells", Key, Count, |_| Value::None),
    col("runs", Count, Sum, |_| Value::None),
    col("bracket_samples", Sum, Sum, |v| v.sync.bracket_samples.into()),
    col("bracket_misses", Sum, Sum, |v| v.sync.bracket_misses.into()),
    col("bracket_miss_rate", MISS_RATE, MISS_RATE, |_| Value::None),
    col("corrupted_samples", Sum, Sum, |v| v.sync.corrupted_samples.into()),
    col("sync_frames_dead", Sum, Sum, |v| (v.sync.frames_lost + v.sync.frames_severed).into()),
    col("sync_retransmits", Sum, Sum, |v| v.sync.retransmits.into()),
    col("severed_signals", Sum, Sum, |v| v.faults.severed_signals.into()),
    col("partition_replayed", Sum, Sum, |v| v.faults.partition_replayed.into()),
    col("partition_false_verdicts", Sum, Sum, |v| {
        (v.detect.partition_false_suspects + v.detect.partition_false_deads).into()
    }),
    col("max_true_error", Max, Max, |v| v.sync.max_true_error.ticks().into()),
    col("mean_inflation", Mean, Mean, |v| v.mean_inflation.into()),
    col("stalls", Sum, Sum, |v| v.stalled.into()),
    col("invariant_violations", Sum, Sum, |v| v.violations.len().into()),
]);

/// Settled estimates that missed the true offset, of all checked.
const MISS_RATE: Agg = Ratio("bracket_misses", "bracket_samples");

/// The header of `adversary_grid.csv`, one row per cell.
const GRID: &str = "liars,liar_fraction,partition_span,asym_bias,honesty_armed,runs,\
    bracket_samples,bracket_misses,bracket_miss_rate,corrupted_samples,\
    sync_frames_dead,sync_retransmits,severed_signals,partition_replayed,\
    partition_false_verdicts,max_true_error,mean_inflation,stalls,\
    invariant_violations";

/// The header of `adversary_summary.csv`, one row per liar count.
const SUMMARY: &str = "liars,liar_fraction,honesty_armed,cells,runs,bracket_samples,\
    bracket_misses,bracket_miss_rate,corrupted_samples,max_true_error,\
    invariant_violations";

/// The whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct AdversaryOutcome {
    /// One row per cell, liars outer, partition spans middle, biases
    /// inner: the columns of `adversary_grid.csv`.
    pub cells: Rows,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<AdversaryVerdict>,
}

impl AdversaryOutcome {
    /// `true` when every run upheld every armed invariant and resolved.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(AdversaryVerdict::is_clean)
    }

    /// The failing runs (armed-invariant violations or stalls).
    pub fn failures(&self) -> Vec<&AdversaryVerdict> {
        self.verdicts.iter().filter(|v| !v.is_clean()).collect()
    }
}

/// The liar personas of one run: `liars` nodes of one kind (rotating
/// over the run index), the rest honest.
fn personas(liars: usize, lie: i64, run_index: usize) -> (Vec<Persona>, &'static str) {
    if liars == 0 {
        return (Vec::new(), "honest");
    }
    // Colluders are the strongest adversary (mutually consistent phantom
    // cluster); fixed liars and stuck clocks are incoherent and should
    // stay out-voted even as a majority of servers.
    let kind = match run_index % 3 {
        0 => Persona::Colluder {
            target: Dur::from_ticks(lie),
        },
        1 => Persona::FixedLiar {
            offset: Dur::from_ticks(-lie),
        },
        _ => Persona::StuckClock,
    };
    (vec![kind; liars], kind.tag())
}

/// The nonideal conditions of one run.
fn conditions(cfg: &AdversaryConfig, num_procs: usize, bias: i64, seed: u64) -> NonidealConfig {
    let mut ni = NonidealConfig::default().with_clocks(ClockModel::Random {
        max_offset: Dur::from_ticks(cfg.max_offset),
        max_drift_ppm: cfg.drift_ppm,
        seed: seed ^ 0xC10C_05C1,
    });
    if cfg.latency > 0 {
        ni = ni.with_channel(
            ChannelModel::uniform(Dur::ZERO, Dur::from_ticks(cfg.latency))
                .with_seed(seed ^ 0x5ca1_ab1e)
                .with_endpoint_drops(0.05),
        );
    }
    if bias > 0 {
        ni = ni.with_asymmetry(LinkAsymmetry::random(
            num_procs,
            Dur::from_ticks(bias),
            seed ^ 0xA57_0BAD,
        ));
    }
    ni
}

/// The endpoint transport every adversarial run rides: acked signals
/// with retransmission plus the heartbeat failure detector, so partition
/// false positives get ground-truth accounting.
fn transport(cfg: &AdversaryConfig, seed: u64) -> TransportConfig {
    let timeout = Dur::from_ticks((4 * cfg.latency).max(250));
    TransportConfig::new(timeout)
        .with_seed(seed ^ 0xF00D)
        .with_detector(DetectorConfig::new(Dur::from_ticks(
            (cfg.sync_period / 4).max(1),
        )))
}

/// Evaluates one run of one cell.
fn evaluate_run(
    cfg: &AdversaryConfig,
    cell: CellSpec,
    run_index: usize,
    system_seed: u64,
    cond_seed: u64,
) -> AdversaryVerdict {
    let set = paper_system(cfg.n, cfg.u, system_seed);
    let num_procs = set.num_processors();
    let protocol = Protocol::ALL[run_index % Protocol::ALL.len()];
    let (cast, liar_kind) = personas(cell.liars, cfg.lie, run_index);
    let honesty_armed = 2 * cell.liars < num_procs;

    let sync = SyncConfig::new(Dur::from_ticks(cfg.sync_period))
        .with_personas(cast)
        .with_persona_seed(cond_seed ^ 0x9e37)
        .with_over_transport(true);
    let mut sim = SimConfig::new(protocol)
        .with_instances(cfg.instances_per_task)
        .with_nonideal(conditions(cfg, num_procs, cell.asym_bias, cond_seed))
        .with_transport(transport(cfg, cond_seed))
        .with_sync(sync);
    if cell.partition_span > 0 {
        // Split the lower half of the processors from the upper half.
        sim = sim.with_faults(
            FaultConfig::explicit(vec![Vec::new(); num_procs]).with_partitions(
                PartitionSchedule::Explicit(vec![PartitionWindow {
                    at: Time::from_ticks(cfg.partition_at),
                    heal_delay: Dur::from_ticks(cell.partition_span),
                    island: (0..num_procs / 2).collect(),
                }]),
            ),
        );
    }

    // The benign twin: same system, same clocks/channel/transport/sync,
    // every adversary knob neutral — the inflation baseline.
    let benign = SimConfig::new(protocol)
        .with_instances(cfg.instances_per_task)
        .with_nonideal(conditions(cfg, num_procs, 0, cond_seed))
        .with_transport(transport(cfg, cond_seed))
        .with_sync(
            SyncConfig::new(Dur::from_ticks(cfg.sync_period))
                .with_persona_seed(cond_seed ^ 0x9e37)
                .with_over_transport(true),
        );
    let baseline = simulate(&set, &benign).expect("paper systems are analyzable under SA/PM");

    // Guard timers run on corrected local clocks: grant RG spacing twice
    // the drift bound (rate error both ways plus the honest step
    // corrections drift forces each sync round).
    let mut obs = InvariantObserver::default()
        .with_uncertainty_check(honesty_armed)
        .with_spacing_slack_ppm(2 * cfg.drift_ppm);
    let out =
        simulate_observed(&set, &sim, &mut obs).expect("paper systems are analyzable under SA/PM");
    obs.check_outcome(&out);

    AdversaryVerdict {
        protocol,
        liars: cell.liars,
        liar_kind,
        partition_span: cell.partition_span,
        asym_bias: cell.asym_bias,
        run_index,
        system_seed,
        cond_seed,
        honesty_armed,
        faults: out.fault_stats,
        detect: out.detect_stats,
        mean_inflation: mean_inflation(&baseline, &out),
        stalled: !out.reached_target,
        violations: obs.violations().to_vec(),
        sync: out.sync_stats,
    }
}

/// Runs the whole campaign: `liars × partition spans × asymmetry biases
/// × runs_per_cell` seeded runs. Cells come back liars-outer,
/// spans-middle, biases-inner; verdicts in (cell, run) order. The
/// outcome is bit-for-bit deterministic for a given config regardless of
/// `threads`.
pub fn run_adversary(cfg: &AdversaryConfig) -> AdversaryOutcome {
    let cells: Vec<CellSpec> = cfg
        .liar_counts
        .iter()
        .flat_map(|&liars| {
            cfg.partition_spans.iter().flat_map(move |&partition_span| {
                cfg.asym_biases.iter().map(move |&asym_bias| CellSpec {
                    liars,
                    partition_span,
                    asym_bias,
                })
            })
        })
        .collect();
    let verdicts = run_grid(cells.len(), cfg.runs_per_cell, cfg.threads, |c, r| {
        let system_seed = job_seed(cfg.seed, 0, r);
        let cond_seed = job_seed(cfg.seed, c + 1, r);
        evaluate_run(cfg, cells[c], r, system_seed, cond_seed)
    });

    let cells = TABLE.cells(&verdicts, cfg.runs_per_cell);
    AdversaryOutcome { cells, verdicts }
}

/// The campaign's records: `adversary_grid.csv`, one row per grid
/// coordinate, and `adversary_summary.csv`, one row per liar count
/// folded over the partition and asymmetry axes (the honesty cliff in
/// four lines).
pub fn records(outcome: &AdversaryOutcome) -> Vec<String> {
    let summary = TABLE.summary(&outcome.cells, "liars", None);
    vec![outcome.cells.csv(GRID), summary.csv(SUMMARY)]
}

/// ASCII rendering of the campaign for the terminal.
pub fn render(outcome: &AdversaryOutcome) -> String {
    let mut out = String::from(
        "adversary campaign: bracket miss rate (corrupted | severed signals | false verdicts)\n",
    );
    for c in outcome.cells.iter() {
        out.push_str(&format!(
            "  liars {} ({}{}) cut {:>8} skew {:>5}: {:<7} ({:>6} | {:>5} | {:>4}){}{}\n",
            c.get("liars"),
            c.get("liar_fraction"),
            if c.flag("honesty_armed") {
                ", armed"
            } else {
                ""
            },
            c.get("partition_span"),
            c.get("asym_bias"),
            c.get("bracket_miss_rate"),
            c.get("corrupted_samples"),
            c.get("severed_signals"),
            c.get("partition_false_verdicts"),
            c.note("stalls", "STALLED"),
            c.note("invariant_violations", "VIOLATIONS"),
        ));
    }
    let failures = outcome.failures();
    out.push_str(&format!(
        "{} runs, {} failing\n",
        outcome.verdicts.len(),
        failures.len()
    ));
    for v in failures {
        out.push_str(&format!(
            "  FAIL {} liars={} cut={} skew={} run={} seed={:#018x}: {}\n",
            v.protocol.tag(),
            v.liars,
            v.partition_span,
            v.asym_bias,
            v.run_index,
            v.cond_seed,
            v.violations
                .first()
                .map_or_else(|| "stalled".to_string(), |viol| viol.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> AdversaryConfig {
        AdversaryConfig {
            liar_counts: vec![0, 3],
            partition_spans: vec![0, 300_000],
            asym_biases: vec![0],
            runs_per_cell: 2,
            instances_per_task: 5,
            threads: 2,
            ..AdversaryConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_exercises_the_grid() {
        let outcome = run_adversary(&tiny_cfg());
        assert!(
            outcome.is_clean(),
            "{:?}",
            outcome.failures().first().map(|v| &v.violations)
        );
        assert_eq!(outcome.verdicts.len(), 8);
        let severed: i128 = outcome.cells.iter().map(|c| c.int("severed_signals")).sum();
        assert!(severed > 0, "partitioned cells must sever signals");
        let corrupted: i128 = outcome
            .cells
            .iter()
            .map(|c| c.int("corrupted_samples"))
            .sum();
        assert!(corrupted > 0, "liar cells must corrupt samples");
    }

    #[test]
    fn minority_cells_stay_honest_and_majority_documents_the_cliff() {
        let outcome = run_adversary(&AdversaryConfig {
            liar_counts: vec![0, 1, 3],
            partition_spans: vec![0],
            asym_biases: vec![0, 2_000],
            runs_per_cell: 3,
            instances_per_task: 5,
            ..AdversaryConfig::default()
        });
        assert!(outcome.is_clean(), "{:?}", outcome.failures().first());
        for c in outcome.cells.iter() {
            assert_eq!(c.flag("honesty_armed"), 2 * c.int("liars") < 4);
            if c.flag("honesty_armed") {
                assert_eq!(
                    c.int("bracket_misses"),
                    0,
                    "minority-liar cell must stay honest: {c:?}"
                );
            }
        }
        let majority_misses: i128 = outcome
            .cells
            .iter()
            .filter(|c| !c.flag("honesty_armed"))
            .map(|c| c.int("bracket_misses"))
            .sum();
        assert!(
            majority_misses > 0,
            "the grid must document the >= n/2 failure mode"
        );
    }

    #[test]
    fn smoke_config_covers_the_grid() {
        let cfg = AdversaryConfig::smoke(12);
        assert!(cfg.total_runs() >= 12);
        assert!(cfg.liar_counts.contains(&0) && cfg.liar_counts.iter().any(|&l| 2 * l >= 4));
        assert!(cfg.partition_spans.iter().any(|&s| s > 0));
        assert!(cfg.asym_biases.iter().any(|&b| b > 0));
    }
}
