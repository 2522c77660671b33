//! The chaos campaign: seeded crash/recovery fault injection over a grid
//! of protocols × crash rates, every run checked against the protocol
//! invariants of [`rtsync_sim::InvariantObserver`].
//!
//! Each run draws a synthetic §5.1 system, injects a seeded random crash
//! schedule ([`rtsync_sim::CrashSchedule::Random`]) and simulates it next
//! to a fault-free baseline of the same system. The campaign reports, per
//! `(protocol, mean-uptime)` cell,
//!
//! * **deadline-miss-or-loss ratio** — `(missed + lost) / (measured +
//!   lost)` end-to-end instances, the paper's miss rate extended to count
//!   chain instances that died in a crash;
//! * **EER inflation** — mean per-task `avg-EER(faulted) /
//!   avg-EER(baseline)` over tasks that completed in both runs;
//! * **availability** — fraction of processor-ticks not spent down;
//! * **invariant verdicts** — precedence order, RG guard spacing, no
//!   activity on a down processor, signal conservation among surviving
//!   signals and bounded backlog, with any violation reported as a
//!   [`ChaosFailure`].
//!
//! A failing run is **minimized**: its random schedule is resolved to the
//! explicit crash windows that actually fired and binary-searched down to
//! the shortest time-ordered prefix that still fails, then packaged as a
//! [`ReproBundle`] (human summary + JSONL event log + Perfetto trace).
//!
//! Like [`robustness`](crate::robustness), the campaign is
//! embarrassingly parallel over runs and bit-for-bit deterministic for a
//! given seed regardless of the thread count.

use crate::campaign::{mean_inflation, paper_system, run_grid, Instances};
use crate::seeding::job_seed;
use crate::table::{col, Agg, Agg::*, Rows, Table, Value};
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig, SimOutcome};
use rtsync_sim::nonideal::ChannelModel;
use rtsync_sim::{
    CrashWindow, DetectorConfig, EventLogObserver, FaultConfig, FaultStats, InvariantObserver,
    InvariantViolation, OverloadPolicy, Tee, TelemetryObserver, TelemetryReport, TransportConfig,
};

/// Chaos-campaign parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Protocols under test.
    pub protocols: Vec<Protocol>,
    /// Mean uptime between crashes, in ticks — one grid level per value
    /// (crash rate = 1 / mean uptime). The §5.1 workload has periods of
    /// 1e5–1e7 ticks, so meaningful uptimes are millions of ticks.
    pub mean_uptimes: Vec<i64>,
    /// Restart delay after each crash, in ticks.
    pub restart_delay: i64,
    /// Runs per `(protocol, uptime)` cell. Overload policies rotate over
    /// the run index; odd runs add a constant-latency signal channel so
    /// the conservation invariant is exercised with in-flight deliveries.
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Constant signal latency (ticks) applied on odd-indexed runs.
    pub signal_latency: i64,
    /// Attach the endpoint transport (ack/retransmit + heartbeat failure
    /// detection) to every run. Channel runs gain 10% endpoint drops so
    /// retransmission is exercised alongside the crash schedule; the
    /// retry budget stays unbounded, so signal loss remains a failure.
    pub transport: bool,
    /// Master seed; system and fault seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            protocols: Protocol::ALL.to_vec(),
            mean_uptimes: vec![20_000_000, 5_000_000, 1_000_000],
            restart_delay: 200_000,
            runs_per_cell: 17,
            n: 3,
            u: 0.6,
            instances_per_task: 12,
            signal_latency: 1_000,
            transport: false,
            seed: 0xC4A0_5CA2,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl ChaosConfig {
    /// A reduced campaign for CI smoke jobs and tests: fewer, shorter
    /// runs with the same grid shape.
    pub fn smoke(total_runs: usize) -> ChaosConfig {
        let cfg = ChaosConfig::default();
        let cells = cfg.protocols.len() * cfg.mean_uptimes.len();
        ChaosConfig {
            runs_per_cell: total_runs.div_ceil(cells).max(1),
            instances_per_task: 6,
            ..cfg
        }
    }

    /// Total runs in the campaign.
    pub fn total_runs(&self) -> usize {
        self.protocols.len() * self.mean_uptimes.len() * self.runs_per_cell
    }

    /// One run's random crash schedule.
    fn crashes(&self, mean_uptime: i64, seed: u64, policy: OverloadPolicy) -> FaultConfig {
        let restart = Dur::from_ticks(self.restart_delay);
        FaultConfig::random(Dur::from_ticks(mean_uptime), restart, seed).with_policy(policy)
    }
}

/// The verdict of one chaos run.
#[derive(Clone, Debug)]
pub struct RunVerdict {
    /// The protocol.
    pub protocol: Protocol,
    /// Mean uptime (ticks) of this run's cell.
    pub mean_uptime: i64,
    /// Overload policy applied at recovery.
    pub policy: OverloadPolicy,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// Seed of the random crash schedule.
    pub fault_seed: u64,
    /// Whether this run rode a constant-latency signal channel.
    pub with_channel: bool,
    /// Fault-domain counters of the faulted run: crashes, recoveries
    /// (equal unless the run ended while down) and killed jobs.
    pub faults: FaultStats,
    /// End-to-end instances of the faulted run.
    pub instances: Instances,
    /// Mean per-task EER inflation over the fault-free baseline (`NaN`
    /// when no task completed in both runs).
    pub mean_inflation: f64,
    /// Processor-ticks spent down, summed over processors.
    pub downtime_ticks: i64,
    /// Run span in ticks × number of processors (availability denominator).
    pub span_ticks: i64,
    /// `true` if the run stopped before resolving every instance.
    pub stalled: bool,
    /// Invariant violations (empty for a clean run).
    pub violations: Vec<InvariantViolation>,
}

impl RunVerdict {
    /// `true` when the run upheld every invariant and resolved all work.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.stalled
    }
}

/// The campaign's columns over its runs: `chaos_runs.csv` writes them
/// per run, and `chaos_summary.csv` per `(protocol, mean uptime)` cell.
/// The run-only columns (policy, seeds, flags) fold by `Key`, and no
/// cell header names them.
#[rustfmt::skip]
const TABLE: Table<RunVerdict> = Table(&[
    col("protocol", Key, Key, |v| v.protocol.tag().into()),
    col("mean_uptime", Key, Key, |v| v.mean_uptime.into()),
    col("runs", Count, Sum, |_| Value::None),
    col("policy", Key, Key, |v| v.policy.tag().into()),
    col("run_index", Key, Key, |v| v.run_index.into()),
    col("system_seed", Key, Key, |v| v.system_seed.into()),
    col("fault_seed", Key, Key, |v| v.fault_seed.into()),
    col("channel", Key, Key, |v| v.with_channel.into()),
    col("crashes", Sum, Sum, |v| v.faults.crashes.into()),
    col("recoveries", Sum, Sum, |v| v.faults.recoveries.into()),
    col("killed_jobs", Sum, Sum, |v| v.faults.killed_jobs.into()),
    col("lost", Sum, Sum, |v| v.instances.lost.into()),
    col("missed", Sum, Sum, |v| v.instances.missed.into()),
    col("measured", Sum, Sum, |v| v.instances.measured.into()),
    col("missed_or_lost", Sum, Sum, |v| v.instances.missed_or_lost().into()),
    col("resolved", Sum, Sum, |v| v.instances.resolved().into()),
    col("miss_or_loss_ratio", MISS_OR_LOSS, MISS_OR_LOSS, |v| {
        v.instances.miss_or_loss_ratio().into()
    }),
    col("mean_inflation", Mean, Mean, |v| v.mean_inflation.into()),
    col("downtime_ticks", Sum, Sum, |v| v.downtime_ticks.into()),
    col("span_ticks", Sum, Sum, |v| v.span_ticks.into()),
    col("availability", AVAILABILITY, AVAILABILITY, |_| Value::None),
    col("stalled", Key, Key, |v| v.stalled.into()),
    col("stalls", Sum, Sum, |v| v.stalled.into()),
    col("violations", Sum, Sum, |v| v.violations.len().into()),
    col("invariant_violations", Sum, Sum, |v| v.violations.len().into()),
]);

/// `(missed + lost) / (measured + lost)` over a cell's runs.
const MISS_OR_LOSS: Agg = Ratio("missed_or_lost", "resolved");

/// The fraction of processor-ticks a cell's runs spent up.
const AVAILABILITY: Agg = Complement("downtime_ticks", "span_ticks");

/// The header of `chaos_summary.csv`, one row per cell.
const GRID: &str = "protocol,mean_uptime,runs,crashes,killed_jobs,lost,\
    miss_or_loss_ratio,mean_inflation,availability,stalls,invariant_violations";

/// The header of `chaos_runs.csv`, one row per run.
const RUNS: &str = "protocol,mean_uptime,policy,run_index,system_seed,fault_seed,channel,\
    crashes,recoveries,killed_jobs,lost,missed,measured,miss_or_loss_ratio,\
    mean_inflation,downtime_ticks,span_ticks,stalled,violations";

/// A failing run: its verdict plus the minimized crash schedule.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// The failing run's verdict.
    pub verdict: RunVerdict,
    /// Shortest failing prefix of the resolved crash windows, as
    /// `(processor, window)` in time order — `None` when the resolved
    /// schedule did not reproduce the failure (the original random
    /// config is then the repro).
    pub minimized: Option<Vec<(usize, CrashWindow)>>,
    /// Number of resolved windows before minimization.
    pub original_windows: usize,
}

/// The whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// One row per `(protocol, mean uptime)` cell, protocols outer ×
    /// uptimes inner: the columns of `chaos_summary.csv`.
    pub cells: Rows,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<RunVerdict>,
    /// Failing runs with minimized schedules (empty on a clean campaign).
    pub failures: Vec<ChaosFailure>,
}

impl ChaosOutcome {
    /// `true` when every run upheld every invariant and resolved.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A self-contained reproduction of one failing run.
#[derive(Clone, Debug)]
pub struct ReproBundle {
    /// Human-readable summary: config, seeds, schedule, violations.
    pub summary: String,
    /// JSONL event log of the failing run.
    pub jsonl: String,
    /// Perfetto/Chrome trace of the failing run.
    pub perfetto_json: String,
}

/// The simulation config of one chaos run, minus the fault schedule.
/// `seed` feeds the channel/transport RNG streams in transport mode; the
/// ideal (transport-off) configs ignore it.
fn base_sim_config(
    cfg: &ChaosConfig,
    protocol: Protocol,
    with_channel: bool,
    seed: u64,
) -> SimConfig {
    let mut sim = SimConfig::new(protocol).with_instances(cfg.instances_per_task);
    if with_channel && cfg.signal_latency > 0 {
        let mut channel = ChannelModel::constant(Dur::from_ticks(cfg.signal_latency));
        if cfg.transport {
            channel = channel.with_endpoint_drops(0.1).with_seed(seed ^ 0xCAFE);
        }
        sim = sim.with_channel(channel);
    }
    if cfg.transport {
        let timeout = Dur::from_ticks(4 * cfg.signal_latency.max(250));
        sim = sim.with_transport(
            TransportConfig::new(timeout)
                .with_seed(seed ^ 0xF00D)
                .with_detector(DetectorConfig::new(Dur::from_ticks(
                    (cfg.restart_delay / 20).max(1),
                ))),
        );
    }
    sim
}

/// Runs one faulted simulation under the invariant observer.
fn checked_run(
    set: &TaskSet,
    sim: &SimConfig,
    faults: FaultConfig,
) -> (SimOutcome, Vec<InvariantViolation>) {
    let mut obs = InvariantObserver::default();
    let out = simulate_observed(set, &sim.clone().with_faults(faults), &mut obs)
        .expect("chaos systems are analyzable under SA/PM");
    obs.check_outcome(&out);
    (out, obs.violations().to_vec())
}

/// Total downtime the resolved schedule imposes before `end`.
fn downtime_before(windows: &[Vec<CrashWindow>], end: Time) -> i64 {
    windows
        .iter()
        .flatten()
        .map(|w| {
            let up = w.recovers_at().min(end);
            (up - w.at).ticks().max(0)
        })
        .sum()
}

/// Evaluates one run of one cell.
fn evaluate_run(
    cfg: &ChaosConfig,
    protocol: Protocol,
    mean_uptime: i64,
    run_index: usize,
    system_seed: u64,
    fault_seed: u64,
) -> (RunVerdict, Option<ChaosFailure>) {
    let set = paper_system(cfg.n, cfg.u, system_seed);
    let policy = OverloadPolicy::ALL[run_index % OverloadPolicy::ALL.len()];
    let with_channel = run_index % 2 == 1;
    let sim = base_sim_config(cfg, protocol, with_channel, system_seed);
    let faults = cfg.crashes(mean_uptime, fault_seed, policy);

    let baseline = simulate(&set, &sim).expect("chaos systems are analyzable under SA/PM");
    let (out, violations) = checked_run(&set, &sim, faults.clone());

    let resolved = faults.resolve(set.num_processors(), out.end_time);
    let verdict = RunVerdict {
        protocol,
        mean_uptime,
        policy,
        run_index,
        system_seed,
        fault_seed,
        with_channel,
        faults: out.fault_stats,
        instances: Instances::of(&out),
        mean_inflation: mean_inflation(&baseline, &out),
        downtime_ticks: downtime_before(&resolved, out.end_time),
        span_ticks: out.end_time.since_origin().ticks() * set.num_processors() as i64,
        stalled: !out.reached_target,
        violations,
    };

    let failure = (!verdict.is_clean()).then(|| {
        let minimized = minimize_schedule(&set, &sim, policy, &resolved);
        ChaosFailure {
            verdict: verdict.clone(),
            original_windows: resolved.iter().map(Vec::len).sum(),
            minimized,
        }
    });
    (verdict, failure)
}

/// Flattens per-processor windows into one time-ordered list.
fn flatten_windows(windows: &[Vec<CrashWindow>]) -> Vec<(usize, CrashWindow)> {
    let mut flat: Vec<(usize, CrashWindow)> = windows
        .iter()
        .enumerate()
        .flat_map(|(p, ws)| ws.iter().map(move |&w| (p, w)))
        .collect();
    flat.sort_by_key(|&(p, w)| (w.at, p));
    flat
}

/// Rebuilds per-processor windows from a flat prefix.
fn unflatten(prefix: &[(usize, CrashWindow)], num_procs: usize) -> Vec<Vec<CrashWindow>> {
    let mut out = vec![Vec::new(); num_procs];
    for &(p, w) in prefix {
        out[p].push(w);
    }
    out
}

/// Binary-searches the resolved crash windows of a failing run down to
/// the shortest time-ordered prefix that still fails. Returns `None`
/// when the explicit full schedule does not reproduce the failure (the
/// run is then reported with its original random config).
fn minimize_schedule(
    set: &TaskSet,
    sim: &SimConfig,
    policy: OverloadPolicy,
    resolved: &[Vec<CrashWindow>],
) -> Option<Vec<(usize, CrashWindow)>> {
    let flat = flatten_windows(resolved);
    let fails = |k: usize| -> bool {
        let faults =
            FaultConfig::explicit(unflatten(&flat[..k], set.num_processors())).with_policy(policy);
        let (out, violations) = checked_run(set, sim, faults);
        !violations.is_empty() || !out.reached_target
    };
    if !fails(flat.len()) {
        return None;
    }
    // Invariant: fails(hi) holds; lo is the largest known-passing prefix.
    let (mut lo, mut hi) = (0usize, flat.len());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(flat[..hi].to_vec())
}

/// Runs the whole campaign: `protocols × mean_uptimes × runs_per_cell`
/// seeded runs, each checked against the protocol invariants. Cells come
/// back protocol-outer, uptime-inner; verdicts in (cell, run) order. The
/// outcome is bit-for-bit deterministic for a given config regardless of
/// `threads`.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let cells: Vec<(Protocol, i64)> = cfg
        .protocols
        .iter()
        .flat_map(|&p| cfg.mean_uptimes.iter().map(move |&u| (p, u)))
        .collect();
    let results = run_grid(cells.len(), cfg.runs_per_cell, cfg.threads, |c, r| {
        let (protocol, uptime) = cells[c];
        let system_seed = job_seed(cfg.seed, 0, r);
        let fault_seed = job_seed(cfg.seed, c + 1, r);
        evaluate_run(cfg, protocol, uptime, r, system_seed, fault_seed)
    });

    let mut verdicts = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (verdict, failure) in results {
        verdicts.push(verdict);
        failures.extend(failure);
    }

    let cells = TABLE.cells(&verdicts, cfg.runs_per_cell);
    ChaosOutcome {
        cells,
        verdicts,
        failures,
    }
}

/// Re-runs the campaign's worst run with the telemetry recorder attached
/// and returns its verdict plus the windowed time series — the crash
/// dips and recovery backlog drain are visible in the per-processor
/// backlog, detector-census and completion series.
///
/// "Worst" is the run with the most `missed + lost` instances, ties
/// broken by crash count then killed jobs (integer keys, so a campaign
/// with NaN ratios still picks deterministically). `window` is the
/// telemetry window width; pass `None` to auto-size to ~120 windows via
/// an untelemetered pre-run. Returns `None` on an empty campaign.
pub fn worst_case_telemetry(
    cfg: &ChaosConfig,
    outcome: &ChaosOutcome,
    window: Option<Dur>,
) -> Option<(RunVerdict, TelemetryReport)> {
    let v = outcome
        .verdicts
        .iter()
        .max_by_key(|v| {
            (
                v.instances.missed_or_lost(),
                v.faults.crashes,
                v.faults.killed_jobs,
            )
        })?
        .clone();
    let set = paper_system(cfg.n, cfg.u, v.system_seed);
    let sim = base_sim_config(cfg, v.protocol, v.with_channel, v.system_seed);
    let sim = sim.with_faults(cfg.crashes(v.mean_uptime, v.fault_seed, v.policy));
    let width = window.unwrap_or_else(|| {
        let end = simulate(&set, &sim)
            .expect("telemetry re-run of an analyzable system")
            .end_time;
        Dur::from_ticks((end.ticks() / 120).max(1))
    });
    let mut tel = TelemetryObserver::new(width);
    simulate_observed(&set, &sim, &mut tel).expect("telemetry re-run of an analyzable system");
    Some((v, tel.into_report()))
}

/// Rebuilds a failure's exact run and packages it for offline debugging.
/// The rerun uses the minimized explicit schedule when one reproduced,
/// otherwise the original random config.
pub fn repro_bundle(cfg: &ChaosConfig, failure: &ChaosFailure) -> ReproBundle {
    let v = &failure.verdict;
    let set = paper_system(cfg.n, cfg.u, v.system_seed);
    let sim = base_sim_config(cfg, v.protocol, v.with_channel, v.system_seed);
    let faults = match &failure.minimized {
        Some(prefix) => {
            FaultConfig::explicit(unflatten(prefix, set.num_processors())).with_policy(v.policy)
        }
        None => cfg.crashes(v.mean_uptime, v.fault_seed, v.policy),
    };

    let mut log = EventLogObserver::default();
    let mut inv = InvariantObserver::default();
    let out = simulate_observed(&set, &sim.with_faults(faults), &mut Tee(&mut inv, &mut log))
        .expect("repro of an analyzable system");
    inv.check_outcome(&out);

    let mut summary = String::new();
    summary.push_str(&format!(
        "chaos failure: protocol={} mean_uptime={} policy={} run_index={}\n\
         system_seed={:#018x} fault_seed={:#018x} channel={}\n",
        v.protocol.tag(),
        v.mean_uptime,
        v.policy.tag(),
        v.run_index,
        v.system_seed,
        v.fault_seed,
        if v.with_channel {
            format!("constant {} ticks", cfg.signal_latency)
        } else {
            "none".to_string()
        },
    ));
    match &failure.minimized {
        Some(prefix) => {
            summary.push_str(&format!(
                "minimized schedule ({} of {} windows):\n",
                prefix.len(),
                failure.original_windows
            ));
            for (p, w) in prefix {
                summary.push_str(&format!(
                    "  P{p}: crash at {} recover at {}\n",
                    w.at.ticks(),
                    w.recovers_at().ticks()
                ));
            }
        }
        None => summary.push_str(
            "schedule: not minimized (explicit replay did not reproduce; \
             use the random config above)\n",
        ),
    }
    summary.push_str(&format!(
        "stalled={} violations={}\n",
        !out.reached_target,
        inv.violations().len()
    ));
    for viol in inv.violations() {
        summary.push_str(&format!("  {viol}\n"));
    }
    ReproBundle {
        summary,
        jsonl: log.to_jsonl(),
        perfetto_json: log.to_chrome_trace(),
    }
}

/// The campaign's records: `chaos_summary.csv`, the per-protocol
/// degradation curves with one row per cell, and `chaos_runs.csv`, one
/// row per run in deterministic (cell, run) order.
pub fn records(outcome: &ChaosOutcome) -> Vec<String> {
    vec![
        outcome.cells.csv(GRID),
        TABLE.runs(&outcome.verdicts).csv(RUNS),
    ]
}

/// ASCII rendering of the campaign for the terminal.
pub fn render(outcome: &ChaosOutcome) -> String {
    let mut out =
        String::from("chaos campaign: miss-or-loss ratio (EER inflation | availability)\n");
    for c in outcome.cells.iter() {
        out.push_str(&format!(
            "  {:>3} @ uptime {:>10}: {:<7} (x{:<7} | {:.4}) — {} crashes, {} lost{}{}\n",
            c.get("protocol"),
            c.get("mean_uptime"),
            c.get("miss_or_loss_ratio"),
            c.get("mean_inflation"),
            c.real("availability"),
            c.get("crashes"),
            c.get("lost"),
            c.note("stalls", "STALLED"),
            c.note("invariant_violations", "VIOLATIONS"),
        ));
    }
    out.push_str(&format!(
        "{} runs, {} failing\n",
        outcome.verdicts.len(),
        outcome.failures.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ChaosConfig {
        ChaosConfig {
            mean_uptimes: vec![5_000_000, 1_000_000],
            runs_per_cell: 2,
            instances_per_task: 6,
            threads: 2,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_injects_crashes() {
        let outcome = run_chaos(&tiny_cfg());
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        assert_eq!(outcome.verdicts.len(), 16);
        let total_crashes: i128 = outcome.cells.iter().map(|c| c.int("crashes")).sum();
        assert!(total_crashes > 0, "the grid must actually crash nodes");
        for c in outcome.cells.iter() {
            let availability = c.real("availability");
            assert!(availability.is_finite() && availability <= 1.0, "{c:?}");
        }
    }

    #[test]
    fn transport_campaign_is_clean() {
        // The endpoint transport (retransmission over lossy channel runs,
        // heartbeat detection, degraded releases) must not break any
        // invariant the oracle-recovery campaign holds.
        let mut cfg = tiny_cfg();
        cfg.transport = true;
        let outcome = run_chaos(&cfg);
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        let total_crashes: i128 = outcome.cells.iter().map(|c| c.int("crashes")).sum();
        assert!(total_crashes > 0, "the grid must actually crash nodes");
    }

    #[test]
    fn smoke_config_covers_the_grid() {
        let cfg = ChaosConfig::smoke(25);
        assert!(cfg.total_runs() >= 25);
        assert_eq!(cfg.protocols.len(), 4);
        assert!(cfg.mean_uptimes.len() >= 3);
    }

    #[test]
    fn minimization_finds_a_short_failing_prefix() {
        // Plant a synthetic failure predicate via a passing schedule: the
        // minimizer must return None when the full schedule is clean...
        let cfg = tiny_cfg();
        let set = paper_system(cfg.n, cfg.u, 7);
        let sim = base_sim_config(&cfg, Protocol::DirectSync, false, 7);
        let faults = FaultConfig::random(
            Dur::from_ticks(2_000_000),
            Dur::from_ticks(cfg.restart_delay),
            3,
        );
        let (out, violations) = checked_run(&set, &sim, faults.clone());
        assert!(violations.is_empty() && out.reached_target);
        let resolved = faults.resolve(set.num_processors(), out.end_time);
        assert_eq!(
            minimize_schedule(&set, &sim, OverloadPolicy::ReleaseAll, &resolved),
            Option::None,
            "a clean run has no failing prefix"
        );
        // ...and the flatten/unflatten round trip preserves the schedule.
        let flat = flatten_windows(&resolved);
        let round = unflatten(&flat, set.num_processors());
        assert_eq!(resolved, round);
    }

    #[test]
    fn repro_bundle_is_self_describing() {
        // Bundle an arbitrary (clean) run as if it had failed: the bundle
        // must carry the config, the schedule and a non-empty event log.
        let cfg = tiny_cfg();
        let outcome = run_chaos(&cfg);
        let failure = ChaosFailure {
            verdict: outcome.verdicts[0].clone(),
            minimized: Option::None,
            original_windows: 0,
        };
        let bundle = repro_bundle(&cfg, &failure);
        assert!(bundle.summary.contains("protocol=DS"));
        assert!(bundle.summary.contains("fault_seed="));
        assert!(bundle.jsonl.lines().count() > 2);
        assert!(bundle.perfetto_json.contains("\"ph\""));
    }
}
