//! The rtsync benchmark: one workload per process, single-threaded,
//! driving only the layers' public functions.
//!
//! ```text
//! perfbench --workload <figure_study|fault_campaign|admit_service>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--spans <file.csv>] [--doctor <digest|oracle>] [--record]
//! ```
//!
//! A run executes a fixed op sequence: its length is the workload's
//! nominal rate times `--seconds`, its content is a function of the seed.
//! End-to-end timings are scaled to a reference host speed (see `speed`).
//! It prints a `counts` line (work that must repeat exactly for a seed)
//! and, last, the result object. With `--trace 1` the same sequence runs
//! again with spans, and the result carries the per-layer metrics. See
//! `README.md` beside this file.

mod admit;
mod fault;
mod figure;
mod speed;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rtsync_sim::engine::SimOutcome;
use rtsync_sim::perf::{EngineProfile, PerfScope};

use speed::Speed;
use trace::{Off, Spans, Tally, Tracer, NONE};
use util::{median, peak_rss_mib, percentile, Digest};

/// The seed whose canary digests are recorded under `expected/`.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run at least, and the seconds they fill at least;
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_SPAN_S: f64 = 1.0;

/// Deliberately wrong expectations, for the gate's self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Doctor {
    None,
    /// Flip the first recorded canary digest.
    Digest,
    /// Perturb the workload's own oracle on its first op.
    Oracle,
}

/// What one op produced.
pub struct OpRecord {
    /// The op's output passed the workload's correctness check.
    pub ok: bool,
    /// Digest of the op's observable result.
    pub digest: u64,
    /// Host nanoseconds of PM-family work in the op, if any.
    pub pm_ns: Option<u64>,
    /// Host nanoseconds of DS work in the op, if any.
    pub ds_ns: Option<u64>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops per second on the reference host; a run executes
    /// `NOMINAL_OPS_PER_S × --seconds` ops.
    const NOMINAL_OPS_PER_S: f64;
    /// Percentile reported as `*_tail_us`.
    const TAIL_PCT: f64;
    /// Ops of the default seed checked against recorded digests in
    /// every run.
    const CANARY_OPS: usize;

    /// Generates every input of an `ops`-op run from `seed`.
    fn setup<T: Tracer>(seed: u64, ops: usize, doctor: Doctor, tr: &mut T) -> Self;
    /// Executes op `i`.
    fn op<T: Tracer>(&mut self, i: usize, tr: &mut T, tally: &mut Tally) -> OpRecord;
    /// Checks the ops against an oracle after the timed pass.
    fn verify(&mut self, _records: &mut [OpRecord]) {}
}

/// Digest of a simulation's observable result: how far it ran and every
/// task's EER statistics. Event counts are left out — they are work, not
/// result.
pub fn digest_outcome(d: &mut Digest, out: &SimOutcome) {
    d.add(u64::from(out.reached_target))
        .add_i64(out.end_time.ticks());
    for t in out.metrics.tasks() {
        d.add(t.measured())
            .add(t.lost())
            .add(t.deadline_misses())
            .add_i64(t.max_eer().map_or(-1, |m| m.ticks()))
            .add(t.avg_eer().map_or(0, f64::to_bits));
    }
}

/// The engine scopes reported per layer, by metric name.
const SCOPES: [(PerfScope, &str); 9] = [
    (PerfScope::Queue, "sim.scope.queue_s"),
    (PerfScope::Dispatch, "sim.scope.dispatch_s"),
    (PerfScope::Delivery, "sim.scope.delivery_s"),
    (PerfScope::Transport, "sim.scope.transport_s"),
    (PerfScope::Detect, "sim.scope.detect_s"),
    (PerfScope::Sync, "sim.scope.sync_s"),
    (PerfScope::Faults, "sim.scope.faults_s"),
    (PerfScope::Flush, "sim.scope.flush_s"),
    (PerfScope::Observer, "sim.scope.observer_s"),
];

pub fn record_profile(tally: &mut Tally, profile: &EngineProfile) {
    for (scope, name) in SCOPES {
        tally.time(name, profile.scope_time(scope).as_secs_f64());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    doctor: Doctor,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        spans: None,
        doctor: Doctor::None,
        record: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--record" {
            out.record = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.max(1),
            "--trace" => out.trace = number()? != 0,
            "--spans" => out.spans = Some(PathBuf::from(&value)),
            "--doctor" => {
                out.doctor = match value.as_str() {
                    "digest" => Doctor::Digest,
                    "oracle" => Doctor::Oracle,
                    _ => return Err(format!("unknown --doctor {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// The recorded canary digests of a workload.
fn expected(name: &str) -> &'static str {
    match name {
        "figure_study" => include_str!("../expected/figure_study.txt"),
        "fault_campaign" => include_str!("../expected/fault_campaign.txt"),
        _ => include_str!("../expected/admit_service.txt"),
    }
}

/// Runs `ops` ops of a fresh set-up untraced, sampling the host's speed
/// about a dozen times a second, then the oracle. Returns the records and
/// the wall seconds the ops took.
fn run_pass<W: Workload>(
    w: &mut W,
    ops: usize,
    tally: &mut Tally,
    speed: &mut Speed,
) -> (Vec<OpRecord>, f64) {
    let every = ((W::NOMINAL_OPS_PER_S / 12.0) as usize).max(1);
    let mut sampling = 0.0;
    let start = Instant::now();
    let mut records = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % every == 0 {
            sampling += speed.sample();
        }
        records.push(w.op(i, &mut Off, tally));
    }
    let wall = start.elapsed().as_secs_f64() - sampling;
    w.verify(&mut records);
    (records, wall)
}

/// What a run reports: its work counts, its metrics and how many of
/// the checked ops and whole-run checks passed.
struct Outcome {
    counts: BTreeMap<String, u64>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    // A traced run repeats its sequence with spans and profiled twins of
    // every simulation, so it runs half the ops to stay within time.
    let ops = W::NOMINAL_OPS_PER_S * args.seconds as f64 / if args.trace { 2.0 } else { 1.0 };
    let ops = (ops.round() as usize).max(1);
    let mut expect: Vec<u64> = expected(W::NAME)
        .lines()
        .filter_map(|l| u64::from_str_radix(l.trim(), 16).ok())
        .collect();

    // Canary: the default seed's first ops against recorded digests. It
    // also warms the process up before anything is timed.
    let mut canary = W::setup(DEFAULT_SEED, W::CANARY_OPS, args.doctor, &mut Off);
    let (canary_records, _) = run_pass(
        &mut canary,
        W::CANARY_OPS,
        &mut Tally::default(),
        &mut Speed::new(),
    );
    drop(canary);
    if args.record {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/");
        let text: String = canary_records
            .iter()
            .map(|r| format!("{:016x}\n", r.digest))
            .collect();
        std::fs::write(format!("{path}{}.txt", W::NAME), text).map_err(|e| e.to_string())?;
    }
    if args.doctor == Doctor::Digest {
        if let Some(first) = expect.first_mut() {
            *first ^= 1;
        }
    }
    let matches_recorded = |i: usize, r: &OpRecord| expect.get(i).is_none_or(|&d| d == r.digest);
    // One flag per canary op, then per whole-run check.
    let mut checks: Vec<bool> = canary_records
        .iter()
        .enumerate()
        .map(|(i, r)| r.ok && matches_recorded(i, r) && (args.record || i < expect.len()))
        .collect();

    // Set-up, several times over a second or more, each scaled by a
    // speed sample taken just before it: the host's speed swings within
    // seconds, and a set-up of a few milliseconds sees one moment of it.
    // The last set-up is kept.
    let mut setup_secs = Vec::new();
    let mut setup_speed = Speed::new();
    let mut w = None;
    let span = Instant::now();
    while setup_secs.len() < SETUP_REPS || span.elapsed().as_secs_f64() < SETUP_SPAN_S {
        drop(w.take());
        setup_speed.sample();
        let start = Instant::now();
        w = Some(W::setup(args.seed, ops, args.doctor, &mut Off));
        setup_secs.push(start.elapsed().as_secs_f64() / setup_speed.last_factor());
    }
    let mut w = w.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut speed = Speed::new();
    let (mut records, wall) = run_pass(&mut w, ops, &mut tally, &mut speed);
    drop(w);
    if args.seed == DEFAULT_SEED {
        for (i, r) in records.iter_mut().enumerate() {
            r.ok &= matches_recorded(i, r);
        }
    }

    let mut metrics = Vec::new();
    if args.trace {
        let mut spans = Spans::new();
        spans.enter("setup");
        let mut w = W::setup(args.seed, ops, args.doctor, &mut spans);
        spans.exit();
        let mut traced = Tally::default();
        let start = Instant::now();
        let mut traced_records: Vec<OpRecord> = (0..ops)
            .map(|i| {
                spans.set_op(i as u32);
                spans.enter("op");
                let r = w.op(i, &mut spans, &mut traced);
                spans.exit();
                r
            })
            .collect();
        let traced_wall = start.elapsed().as_secs_f64();
        spans.set_op(NONE);
        w.verify(&mut traced_records);
        for (untraced, r) in records.iter_mut().zip(&traced_records) {
            untraced.ok &= r.ok && r.digest == untraced.digest;
        }
        // Spans must not change the work.
        checks.push(traced.counts == tally.counts);
        if let Some(path) = &args.spans {
            spans.write_csv(path).map_err(|e| e.to_string())?;
        }
        metrics = layer_metrics(&spans, &traced, traced_wall - wall);
    }

    let mut pm: Vec<u64> = records.iter().filter_map(|r| r.pm_ns).collect();
    let mut ds: Vec<u64> = records.iter().filter_map(|r| r.ds_ns).collect();
    pm.sort_unstable();
    ds.sort_unstable();
    let us = |v: &[u64], pct: f64| percentile(v, pct).map_or(0.0, |ns| ns as f64 / 1e3);
    let ok = records.iter().filter(|r| r.ok).count() + checks.iter().filter(|&&b| b).count();
    let attempted = records.len() + checks.len();
    if !args.trace {
        // Timings at the reference host speed (see `speed`).
        let f = speed.factor();
        eprintln!(
            "perfbench: host ran at {:.3} of the reference speed",
            1.0 / f
        );
        metrics = vec![
            ("setup_s", median(&setup_secs), "s"),
            ("ops_per_s", ops as f64 / wall * f, "1/s"),
            ("pm_p50_us", us(&pm, 50.0) / f, "us"),
            ("pm_tail_us", us(&pm, W::TAIL_PCT) / f, "us"),
            ("ds_p50_us", us(&ds, 50.0) / f, "us"),
            ("ds_tail_us", us(&ds, W::TAIL_PCT) / f, "us"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
            ("ok_share", ok as f64 / attempted as f64, "ratio"),
        ];
    }

    let mut counts: BTreeMap<String, u64> = tally
        .counts
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    counts.insert("ops".into(), ops as u64);
    counts.insert("pm_samples".into(), pm.len() as u64);
    counts.insert("ds_samples".into(), ds.len() as u64);
    Ok(Outcome {
        counts,
        metrics,
        attempted: attempted as u64,
        failed: (attempted - ok) as u64,
    })
}

/// Per-layer metrics from the traced pass's spans and tallies.
fn layer_metrics(
    spans: &Spans,
    tally: &Tally,
    overhead_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let selfs = spans.self_times();
    let calls = |name: &str| selfs.get(name).map_or(0, |s| s.0) as f64;
    let busy = |name: &str| selfs.get(name).map_or(0.0, |s| s.1);
    let count = |name: &str| tally.get(name) as f64;
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut m = vec![
        (
            "workload.generate.calls",
            calls("workload.generate"),
            "count",
        ),
        ("workload.generate.busy_s", busy("workload.generate"), "s"),
        ("sim.simulate.calls", calls("sim.simulate"), "count"),
        ("sim.simulate.busy_s", busy("sim.simulate"), "s"),
        ("sim.events", count("sim.events"), "count"),
        (
            "sim.events_per_s",
            share(count("sim.events"), busy("sim.simulate")),
            "1/s",
        ),
    ];
    for (_, name) in SCOPES {
        let secs = if name == "sim.scope.observer_s" {
            // Observed runs minus their unobserved twins.
            tally.secs("sim.observer_diff_s").max(0.0)
        } else {
            tally.secs(name)
        };
        m.push((name, secs, "s"));
    }
    let admits = count("admission.admits");
    m.extend([
        ("sim.channel.sent", count("sim.channel.sent"), "count"),
        (
            "sim.transport.retransmit_share",
            share(
                count("sim.transport.retransmissions"),
                count("sim.transport.sent"),
            ),
            "ratio",
        ),
        (
            "sim.detect.heartbeats_sent",
            count("sim.detect.heartbeats_sent"),
            "count",
        ),
        (
            "sim.detect.false_suspects",
            count("sim.detect.false_suspects"),
            "count",
        ),
        ("sim.sync.rounds", count("sim.sync.rounds"), "count"),
        (
            "sim.sync.dishonest_runs",
            count("sim.sync.dishonest_runs"),
            "count",
        ),
        ("sim.faults.crashes", count("sim.faults.crashes"), "count"),
        ("analysis.sa_ds.calls", calls("analysis.sa_ds"), "count"),
        ("analysis.sa_ds.busy_s", busy("analysis.sa_ds"), "s"),
        (
            "analysis.sa_ds.sweeps",
            count("analysis.sa_ds.sweeps"),
            "count",
        ),
        (
            "analysis.sa_ds.failed_share",
            share(count("analysis.sa_ds.failed"), calls("analysis.sa_ds")),
            "ratio",
        ),
        ("analysis.sa_pm.calls", calls("analysis.sa_pm"), "count"),
        ("analysis.sa_pm.busy_s", busy("analysis.sa_pm"), "s"),
        (
            "admission.admit.calls",
            calls("admission.admit.pm") + calls("admission.admit.ds"),
            "count",
        ),
        (
            "admission.admit.busy_s",
            busy("admission.admit.pm") + busy("admission.admit.ds"),
            "s",
        ),
        ("admission.admit.pm_busy_s", busy("admission.admit.pm"), "s"),
        ("admission.admit.ds_busy_s", busy("admission.admit.ds"), "s"),
        (
            "admission.memo_hit_share",
            share(
                count("admission.skipped"),
                count("admission.skipped") + count("admission.reanalyzed"),
            ),
            "ratio",
        ),
        (
            "admission.rejected_share",
            share(admits - count("admission.admitted"), admits),
            "ratio",
        ),
        (
            "admission.gate_share",
            share(count("admission.gate_rejects"), admits),
            "ratio",
        ),
        (
            "admission.reanalyzed",
            count("admission.reanalyzed"),
            "count",
        ),
        ("admission.retire.calls", calls("admission.retire"), "count"),
        ("admission.retire.busy_s", busy("admission.retire"), "s"),
        ("trace.overhead_s", overhead_s, "s"),
    ]);
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "figure_study" => run::<figure::FigureStudy>(&args),
        "fault_campaign" => run::<fault::FaultCampaign>(&args),
        "admit_service" => run::<admit::AdmitService>(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut counts = String::from("{\"counts\": {");
    for (i, (k, v)) in outcome.counts.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(counts, "{sep}\"{k}\": {v}");
    }
    counts.push_str("}}");
    println!("{counts}");
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
