//! The `rtsync bench` suite.
//!
//! [`run_suite`] is a plain stopwatch runner, used by `rtsync bench
//! --json` to record the tracked throughput baseline (`BENCH_sim.json`)
//! and by the CI smoke job.
//!
//! The suite measures end-to-end simulator throughput (events per second
//! of wall time) for every protocol under six escalating condition
//! tiers: `ideal` (the paper's assumptions), `nonideal` (drifting clocks
//! and a lossy-free latency channel), `sync` (nonideal plus the periodic
//! clock-synchronization exchanges), `partition` (sync plus a seeded
//! random partition schedule severing and replaying traffic),
//! `faults_transport` (crash/recovery plus the acked endpoint transport
//! with failure detection), and `gray` (slowdown/stall/degraded-link
//! personas under the adaptive φ-accrual detector — the price of the
//! gray penalty lookups, stretched service accounting, and φ window
//! updates on every heartbeat). A seventh `admit` tier measures the
//! incremental admission-control engine instead of the simulator: its
//! "events" are admit/retire decisions served against the same §5.1
//! workload (fill + churn), so `events_per_sec` reads as decisions per
//! second there. DS cells run the engine in SA/DS mode; PM, MPM and RG
//! share the SA/PM analysis and measure the PM-family mode. Two analysis
//! tiers measure the paper's kernels over one fixed population: one §5.1
//! system per cell of the figure-study grid (N = 2..8 × U = 50..90%)
//! generated at the bench seed. The `sa_ds` tier, on the DS row only,
//! runs Algorithm SA/DS (failing systems included) with the IEERT
//! subtask evaluations that ran the fixed points as its events. The
//! `sa_pm` tier, on the PM row only, runs Algorithm SA/PM with its
//! busy-period fixed-point iterations as its events.
//! Numbers are machine-dependent: compare trajectories on one machine,
//! not absolute values across machines — which is exactly what the
//! [`compare`] sentry automates: per-iteration timings make a
//! noise-aware best-of-N comparison against the committed baseline, and
//! `rtsync bench --compare` exits nonzero on regression. The sentry
//! judges wall time per run (`best_secs_per_run`), not events per
//! second: a change that makes the same run pop fewer events is faster
//! even though its events/s reads lower. The
//! `rtsync-bench-v2` JSON schema carries [`Provenance`] (git describe,
//! seed, wall-clock timestamp, host), plus an optional engine self-profile per
//! cell (`rtsync bench --profile`, see `rtsync_sim::perf`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::admission::{
    requests_of, AdmissionConfig, AdmissionMode, AdmissionState,
};
use rtsync_core::analysis::sa_ds::{analyze_ds, analyze_ds_traced};
use rtsync_core::analysis::sa_pm::{analyze_pm, analyze_pm_traced};
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, simulate_profiled, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, ClockModel};
use rtsync_sim::{
    DetectorConfig, EngineProfile, FaultConfig, GrayConfig, LinkSchedule, PartitionSchedule,
    PhiConfig, SlowSchedule, StallSchedule, SyncConfig, TransportConfig,
};
use rtsync_workload::{generate, generate_seeded, WorkloadSpec};

/// Workload seed of the shared task set and the analysis population.
const WORKLOAD_SEED: u64 = 7;
const WORKLOAD_TASKS: usize = 4;
const WORKLOAD_UTILIZATION: f64 = 0.7;

/// Where the measurement came from: enough context to judge whether two
/// baselines are comparable (command, git, seed, config).
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `git describe --always --dirty` at measurement time (`unknown`
    /// outside a work tree).
    pub git: String,
    /// Wall-clock capture time, seconds since the Unix epoch.
    pub timestamp_unix: u64,
    /// The same instant as UTC `YYYY-MM-DDTHH:MM:SSZ`.
    pub timestamp_utc: String,
    /// Host kernel/arch line (`uname -srm`, falling back to the compiled
    /// OS/arch).
    pub host: String,
    /// Available hardware parallelism on the measuring host.
    pub parallelism: usize,
    /// The workload seed the suite ran with.
    pub seed: u64,
}

impl Provenance {
    /// Captures provenance on this host, now.
    pub fn collect() -> Provenance {
        let git = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let host = std::process::Command::new("uname")
            .args(["-srm"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| format!("{} {}", std::env::consts::OS, std::env::consts::ARCH));
        let timestamp_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Provenance {
            git,
            timestamp_unix,
            timestamp_utc: utc_string(timestamp_unix),
            host,
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            seed: WORKLOAD_SEED,
        }
    }
}

/// Formats Unix seconds as UTC `YYYY-MM-DDTHH:MM:SSZ` (civil-from-days,
/// no date dependency).
fn utc_string(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = mp + if mp < 10 { 3 } else { -9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// One measured cell of the suite.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Protocol tag (`DS`, `PM`, `MPM`, `RG`).
    pub protocol: &'static str,
    /// Scenario tag (`ideal`, `nonideal`, `sync`, `partition`,
    /// `faults_transport`, `gray`, `admit`, `sa_ds`, `sa_pm`).
    pub scenario: &'static str,
    /// Timed iterations (after one untimed warmup).
    pub iterations: u32,
    /// Runs of the cell body per timed iteration.
    pub runs_per_iter: u32,
    /// Events dispatched per iteration (identical across iterations —
    /// the simulator is deterministic).
    pub events_per_iter: u64,
    /// Total wall-clock seconds across the timed iterations.
    pub elapsed_secs: f64,
    /// Mean throughput: dispatched events per second of wall time.
    pub events_per_sec: f64,
    /// Wall-clock seconds of each timed iteration, in run order.
    pub iter_secs: Vec<f64>,
    /// Best-of-N throughput (fastest iteration).
    pub best_events_per_sec: f64,
    /// Wall seconds of one run in the fastest iteration — the
    /// noise-resistant number the regression sentry compares.
    pub best_secs_per_run: f64,
    /// Engine self-profile of one extra run of this cell, when the suite
    /// ran with profiling on.
    pub profile: Option<EngineProfile>,
}

/// The whole suite's outcome, serializable to the `rtsync-bench-v2`
/// JSON schema.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// `true` for the reduced CI variant.
    pub smoke: bool,
    /// Instances simulated per task in every run.
    pub instances: u64,
    /// Where and when the numbers were measured.
    pub provenance: Provenance,
    /// All measured cells, protocol-major.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Renders the `rtsync-bench-v2` JSON document (hand-rolled — the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rtsync-bench-v2\",\n");
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        let p = &self.provenance;
        out.push_str(&format!(
            "  \"provenance\": {{\"git\": \"{}\", \"timestamp_unix\": {}, \"timestamp_utc\": \"{}\", \"host\": \"{}\", \"parallelism\": {}, \"seed\": {}}},\n",
            json::escape(&p.git),
            p.timestamp_unix,
            p.timestamp_utc,
            json::escape(&p.host),
            p.parallelism,
            p.seed,
        ));
        out.push_str(&format!(
            "  \"workload\": {{\"tasks\": {WORKLOAD_TASKS}, \"utilization\": {WORKLOAD_UTILIZATION}, \"seed\": {WORKLOAD_SEED}, \"instances_per_task\": {}}},\n",
            self.instances
        ));
        out.push_str("  \"unit\": \"events per second of wall time\",\n");
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let iter_secs: Vec<String> = r.iter_secs.iter().map(|s| format!("{s:.6}")).collect();
            let profile = r
                .profile
                .as_ref()
                .map(|p| format!(", \"profile\": {}", p.to_json()))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"protocol\": \"{}\", \"scenario\": \"{}\", \"iterations\": {}, \"runs_per_iter\": {}, \"events_per_iter\": {}, \"elapsed_secs\": {:.6}, \"events_per_sec\": {:.0}, \"iter_secs\": [{}], \"best_events_per_sec\": {:.0}, \"best_secs_per_run\": {:.9}{}}}{}\n",
                r.protocol,
                r.scenario,
                r.iterations,
                r.runs_per_iter,
                r.events_per_iter,
                r.elapsed_secs,
                r.events_per_sec,
                iter_secs.join(", "),
                r.best_events_per_sec,
                r.best_secs_per_run,
                profile,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The six simulator condition tiers in escalating order, plus the
/// `admit` tier driving the admission-control engine, the DS-only
/// `sa_ds` analysis tier and the PM-only `sa_pm` analysis tier.
pub const SCENARIOS: [&str; 9] = [
    "ideal",
    "nonideal",
    "sync",
    "partition",
    "faults_transport",
    "gray",
    "admit",
    "sa_ds",
    "sa_pm",
];

/// Builds the `SimConfig` of one cell. Seeds are fixed so every
/// invocation measures the identical event sequence.
fn cell_config(protocol: Protocol, scenario: &str, instances: u64) -> SimConfig {
    let base = SimConfig::new(protocol).with_instances(instances);
    match scenario {
        "ideal" => base,
        "nonideal" => base
            .with_clocks(ClockModel::Random {
                max_offset: Dur::from_ticks(500),
                max_drift_ppm: 200,
                seed: 21,
            })
            .with_channel(
                ChannelModel::uniform(Dur::from_ticks(50), Dur::from_ticks(400)).with_seed(22),
            ),
        "sync" => {
            // Nonideal clocks plus the clock-synchronization layer: the
            // price of the periodic NTP-style exchanges riding the same
            // event queue and channel as the protocol traffic.
            base.with_clocks(ClockModel::Random {
                max_offset: Dur::from_ticks(500),
                max_drift_ppm: 200,
                seed: 21,
            })
            .with_channel(
                ChannelModel::uniform(Dur::from_ticks(50), Dur::from_ticks(400)).with_seed(22),
            )
            .with_sync(SyncConfig::new(Dur::from_ticks(20_000)))
        }
        "partition" => {
            // The sync tier plus a seeded random partition schedule:
            // the price of the partition gate on every frame send, the
            // parked-signal bookkeeping, and the heal-time replays.
            base.with_clocks(ClockModel::Random {
                max_offset: Dur::from_ticks(500),
                max_drift_ppm: 200,
                seed: 21,
            })
            .with_channel(
                ChannelModel::uniform(Dur::from_ticks(50), Dur::from_ticks(400)).with_seed(22),
            )
            .with_sync(SyncConfig::new(Dur::from_ticks(20_000)))
            .with_faults(FaultConfig::explicit(Vec::new()).with_partitions(
                PartitionSchedule::Random {
                    mean_connected: Dur::from_ticks(2_000_000),
                    heal_delay: Dur::from_ticks(500_000),
                    seed: 44,
                },
            ))
        }
        "faults_transport" => {
            // Mirrors the chaos harness's transport-mode configuration:
            // real endpoint drops recovered by ack/retransmit, plus a
            // heartbeat failure detector and a random crash schedule.
            let latency = 1_000;
            let restart_delay = 200_000;
            base.with_channel(
                ChannelModel::constant(Dur::from_ticks(latency))
                    .with_endpoint_drops(0.05)
                    .with_seed(33),
            )
            .with_transport(
                TransportConfig::new(Dur::from_ticks(4 * latency))
                    .with_seed(34)
                    .with_detector(DetectorConfig::new(Dur::from_ticks(restart_delay / 20))),
            )
            .with_faults(FaultConfig::random(
                Dur::from_ticks(5_000_000),
                Dur::from_ticks(restart_delay),
                35,
            ))
        }
        "gray" => {
            // Gray failures under the adaptive detector: slow windows,
            // stalls and degraded links on a live system, with φ-accrual
            // (window updates per heartbeat, Degraded cadence stretches)
            // riding the acked transport. Nothing actually crashes.
            let latency = 1_000;
            base.with_channel(ChannelModel::constant(Dur::from_ticks(latency)).with_seed(33))
                .with_transport(
                    TransportConfig::new(Dur::from_ticks(4 * latency))
                        .with_seed(34)
                        .with_detector(
                            DetectorConfig::new(Dur::from_ticks(10_000)).with_phi(PhiConfig::new()),
                        ),
                )
                .with_faults(FaultConfig::gray_only(
                    GrayConfig::new()
                        .with_slow(SlowSchedule::Random {
                            mean_healthy: Dur::from_ticks(4_000_000),
                            span: Dur::from_ticks(200_000),
                            factor: 8,
                            seed: 36,
                        })
                        .with_stalls(StallSchedule::Random {
                            mean_healthy: Dur::from_ticks(6_000_000),
                            span: Dur::from_ticks(40_000),
                            seed: 37,
                        })
                        .with_links(LinkSchedule::Random {
                            mean_healthy: Dur::from_ticks(3_000_000),
                            span: Dur::from_ticks(400_000),
                            extra_latency: Dur::from_ticks(2_000),
                            jitter: Dur::from_ticks(1_000),
                            drop_permille: 300,
                            seed: 38,
                        })
                        .with_frame_seed(39),
                ))
        }
        other => unreachable!("unknown scenario {other}"),
    }
}

/// One iteration of the `admit` tier: fill the engine with every chain
/// of the shared workload, then `churn` retire + re-admit rounds
/// cycling over the chains. Returns decisions served (deterministic for
/// a given workload and churn count).
fn admit_ops(set: &TaskSet, mode: AdmissionMode, churn: usize) -> u64 {
    let requests = requests_of(set);
    let mut state = AdmissionState::new(set.num_processors(), AdmissionConfig::new(mode));
    for req in &requests {
        state.admit(req.clone());
    }
    for round in 0..churn {
        let id = (round % requests.len()) as u64;
        if state.retire(id).is_ok() {
            state.admit(requests[id as usize].clone());
        }
    }
    let stats = state.stats();
    stats.decisions + stats.retired
}

/// The analysis tiers' population: one §5.1 system per `(N, U)` cell of
/// the figure-study grid, generated at the bench seed.
fn paper_population() -> Vec<TaskSet> {
    (2..=8)
        .flat_map(|n| {
            [0.5, 0.6, 0.7, 0.8, 0.9].map(|u| {
                generate_seeded(&WorkloadSpec::paper(n, u), WORKLOAD_SEED)
                    .expect("paper spec generates")
            })
        })
        .collect()
}

/// IEERT subtask evaluations that ran the fixed points in one SA/DS run
/// ([`IeertReport::solved`], the failing evaluation of a failed run
/// included). The other evaluations saw unchanged jitters and returned
/// the subtask's last value without solving.
///
/// [`IeertReport::solved`]: rtsync_core::analysis::sa_ds::IeertReport::solved
fn ieert_solves(set: &TaskSet) -> u64 {
    let (_, report) = analyze_ds_traced(set, &AnalysisConfig::default())
        .expect("bench systems fail, never error");
    report.solved
}

/// Times one analysis tier: `analyze` over every system of `population`.
/// An untimed pass fixes the outcomes, which every timed pass must
/// reproduce; events per pass are `work` summed over those outcomes.
fn analysis_tier<T: PartialEq>(
    protocol: Protocol,
    scenario: &'static str,
    iterations: u32,
    population: &[TaskSet],
    analyze: impl Fn(&TaskSet) -> T,
    work: impl Fn(&TaskSet, &T) -> u64,
) -> BenchResult {
    let expected: Vec<T> = population.iter().map(&analyze).collect();
    let events = population
        .iter()
        .zip(&expected)
        .map(|(s, outcome)| work(s, outcome))
        .sum();
    measure(protocol, scenario, iterations, || {
        let outcomes: Vec<T> = population.iter().map(&analyze).collect();
        assert!(
            outcomes == expected,
            "{}/{scenario} must be deterministic",
            protocol.tag()
        );
        events
    })
}

/// Runs of the cell body per timed iteration. One run of these tiers
/// takes 2–8 ms, too short for a best-of-N to settle, so an iteration
/// repeats it to last about as long as the 60–140 ms tiers.
fn runs_per_iteration(scenario: &str) -> u32 {
    match scenario {
        "ideal" | "nonideal" => 20,
        "admit" => 16,
        "sa_pm" => 32,
        _ => 1,
    }
}

/// Times one cell: an untimed warmup run fixes the per-run event count,
/// then `iterations` timed iterations of [`runs_per_iteration`] runs each
/// must reproduce it on every run.
fn measure(
    protocol: Protocol,
    scenario: &'static str,
    iterations: u32,
    mut run: impl FnMut() -> u64,
) -> BenchResult {
    let events_per_run = run();
    let runs = runs_per_iteration(scenario);
    let events_per_iter = events_per_run * u64::from(runs);
    let mut iter_secs = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let start = Instant::now();
        for _ in 0..runs {
            let events = run();
            assert_eq!(
                events,
                events_per_run,
                "{}/{scenario} must be deterministic across iterations",
                protocol.tag()
            );
        }
        iter_secs.push(start.elapsed().as_secs_f64());
    }
    let elapsed_secs: f64 = iter_secs.iter().sum();
    let best_secs = iter_secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let total_events = events_per_iter * u64::from(iterations);
    BenchResult {
        protocol: protocol.tag(),
        scenario,
        iterations,
        runs_per_iter: runs,
        events_per_iter,
        elapsed_secs,
        events_per_sec: total_events as f64 / elapsed_secs.max(1e-9),
        iter_secs,
        best_events_per_sec: events_per_iter as f64 / best_secs.max(1e-9),
        best_secs_per_run: best_secs / f64::from(runs),
        profile: None,
    }
}

/// The shared benchmark task set (§5.1 workload, random phases).
pub fn bench_task_set() -> TaskSet {
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED);
    generate(
        &WorkloadSpec::paper(WORKLOAD_TASKS, WORKLOAD_UTILIZATION).with_random_phases(),
        &mut rng,
    )
    .expect("paper spec generates")
}

/// Runs the full suite: every protocol × every scenario, one untimed
/// warmup then `iterations` timed runs per cell. `smoke` shrinks the
/// instance count and iteration count for CI (the numbers are then only
/// a crash canary, not a baseline). Equivalent to
/// [`run_suite_opts`]`(smoke, false)`.
pub fn run_suite(smoke: bool) -> BenchReport {
    run_suite_opts(smoke, false)
}

/// [`run_suite`] with an option: when `profile` is set, each cell runs
/// once more under the engine's wall-clock self-profiler (see
/// `rtsync_sim::perf`) and the resulting [`EngineProfile`] rides along
/// in the cell — the profiled run is *extra* and never part of the
/// timed iterations, so profiling cannot perturb the throughput numbers.
pub fn run_suite_opts(smoke: bool, profile: bool) -> BenchReport {
    let (instances, iterations) = if smoke { (8, 1) } else { (50, 5) };
    let set = bench_task_set();
    let population = paper_population();
    let mut results = Vec::new();
    for protocol in Protocol::ALL {
        for scenario in SCENARIOS {
            let result = match scenario {
                "admit" => {
                    // The admission tier measures the engine, not the
                    // simulator: events are admit/retire decisions.
                    let mode = match protocol {
                        Protocol::DirectSync => AdmissionMode::DirectSync,
                        _ => AdmissionMode::PmFamily,
                    };
                    let churn = instances as usize * 10;
                    measure(protocol, scenario, iterations, || {
                        admit_ops(&set, mode, churn)
                    })
                }
                "sa_ds" if protocol == Protocol::DirectSync => {
                    let cfg = AnalysisConfig::default();
                    analysis_tier(
                        protocol,
                        scenario,
                        iterations,
                        &population,
                        |s| analyze_ds(s, &cfg),
                        |s, _| ieert_solves(s),
                    )
                }
                "sa_pm" if protocol == Protocol::PhaseModification => {
                    let cfg = AnalysisConfig::default();
                    analysis_tier(
                        protocol,
                        scenario,
                        iterations,
                        &population,
                        |s| analyze_pm(s, &cfg).expect("SA/PM succeeds"),
                        |s, _| {
                            let (_, report) = analyze_pm_traced(s, &cfg).expect("SA/PM succeeds");
                            report.total_iterations()
                        },
                    )
                }
                "sa_ds" | "sa_pm" => continue,
                _ => {
                    let cfg = cell_config(protocol, scenario, instances);
                    let mut result = measure(protocol, scenario, iterations, || {
                        simulate(&set, &cfg)
                            .expect("benchmark cell simulates")
                            .events
                    });
                    result.profile = profile.then(|| {
                        simulate_profiled(&set, &cfg)
                            .expect("benchmark cell simulates")
                            .1
                    });
                    result
                }
            };
            results.push(result);
        }
    }
    BenchReport {
        smoke,
        instances,
        provenance: Provenance::collect(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::error::AnalyzeError;

    #[test]
    fn smoke_suite_runs_every_cell_and_serializes() {
        let report = run_suite(true);
        // Every protocol runs every tier but the two analysis tiers,
        // which run on one row each.
        assert_eq!(
            report.results.len(),
            Protocol::ALL.len() * (SCENARIOS.len() - 2) + 2
        );
        for r in &report.results {
            assert!(
                r.events_per_iter > 0,
                "{}/{} ran no events",
                r.protocol,
                r.scenario
            );
            assert!(r.events_per_sec > 0.0);
            assert_eq!(r.iter_secs.len(), r.iterations as usize);
            // Best-of-N throughput can't be slower than the mean, and the
            // best run is the best iteration split over its runs.
            assert!(r.best_events_per_sec >= r.events_per_sec * 0.999);
            assert!(r.runs_per_iter >= 1);
            let best_iter = r.iter_secs.iter().cloned().fold(f64::INFINITY, f64::min);
            let per_run = best_iter / f64::from(r.runs_per_iter);
            assert!((r.best_secs_per_run - per_run).abs() <= per_run * 1e-9);
            assert!(r.profile.is_none());
        }
        // The admit tier ran for every protocol, and the PM-family
        // protocols (PM, MPM, RG) share one engine mode, so they serve
        // identical decision counts.
        let admit: Vec<&BenchResult> = report
            .results
            .iter()
            .filter(|r| r.scenario == "admit")
            .collect();
        assert_eq!(admit.len(), Protocol::ALL.len());
        let pm_family: Vec<u64> = admit
            .iter()
            .filter(|r| r.protocol != "DS")
            .map(|r| r.events_per_iter)
            .collect();
        assert!(pm_family.windows(2).all(|w| w[0] == w[1]));
        // The SA/DS tier runs on the DS row only.
        let sa_ds: Vec<&BenchResult> = report
            .results
            .iter()
            .filter(|r| r.scenario == "sa_ds")
            .collect();
        assert_eq!(sa_ds.len(), 1);
        assert_eq!(sa_ds[0].protocol, "DS");
        // The SA/PM tier runs on the PM row only.
        let sa_pm: Vec<&BenchResult> = report
            .results
            .iter()
            .filter(|r| r.scenario == "sa_pm")
            .collect();
        assert_eq!(sa_pm.len(), 1);
        assert_eq!(sa_pm[0].protocol, "PM");
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"rtsync-bench-v2\""));
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"best_events_per_sec\""));
        assert!(json.contains("\"best_secs_per_run\""));
        assert!(json.contains("\"runs_per_iter\""));
        assert_eq!(json.matches("\"protocol\"").count(), report.results.len());
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The hand-rolled writer parses with the hand-rolled reader.
        let parsed = json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("rtsync-bench-v2")
        );
    }

    #[test]
    fn paper_population_spans_the_grid_and_includes_ds_failures() {
        let cfg = AnalysisConfig::default();
        let population = paper_population();
        assert_eq!(population.len(), 35);
        let outcomes: Vec<_> = population.iter().map(|s| analyze_ds(s, &cfg)).collect();
        assert!(outcomes.iter().any(Result::is_ok));
        assert!(outcomes
            .iter()
            .any(|o| o.as_ref().is_err_and(AnalyzeError::is_failure)));
        let mut skipped_some = false;
        for (set, outcome) in population.iter().zip(&outcomes) {
            let solves = ieert_solves(set);
            let per_sweep = set.num_subtasks() as u64;
            match outcome {
                // Every subtask is solved in the first sweep; later sweeps
                // solve only those whose jitters moved.
                Ok(bounds) => {
                    assert!(solves >= per_sweep && solves <= bounds.sweeps() * per_sweep);
                    skipped_some |= solves < bounds.sweeps() * per_sweep;
                }
                // A failing run stops inside its last sweep.
                Err(_) => assert!(solves >= 1),
            }
        }
        assert!(skipped_some, "events count solves, not evaluations");
        // SA/PM succeeds on every system, so the `sa_pm` tier times the
        // whole population.
        for set in &population {
            let (_, report) = analyze_pm_traced(set, &cfg).expect("SA/PM succeeds");
            assert!(report.total_iterations() > 0);
        }
    }

    #[test]
    fn provenance_is_populated_and_timestamps_render() {
        let p = Provenance::collect();
        assert!(!p.git.is_empty());
        assert!(!p.host.is_empty());
        assert!(p.parallelism >= 1);
        assert_eq!(p.seed, WORKLOAD_SEED);
        assert_eq!(utc_string(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_string(951_867_228), "2000-02-29T23:33:48Z");
        assert!(p.timestamp_utc.ends_with('Z') && p.timestamp_utc.len() == 20);
    }
}
