//! `rtsync` — analyze and simulate distributed real-time task sets from
//! the command line.
//!
//! ```text
//! rtsync example 2 > system.rts          # a starting point (paper Example 2)
//! rtsync check system.rts                # parse + validate + utilizations
//! rtsync analyze system.rts              # schedulability under all protocols
//! rtsync analyze system.rts --protocol rg
//! rtsync simulate system.rts --protocol ds --instances 100 --gantt 30
//! rtsync simulate system.rts --protocol rg --sporadic 4 --seed 7
//! ```
//!
//! Task sets use the plain-text format of `rtsync_core::textfmt` (see
//! `rtsync example 2` for a template). Pass `-` to read from stdin.

use std::io::{Read as _, Write as _};
use std::process::ExitCode;

use rtsync::core::analysis::report::analyze;
use rtsync::core::examples::{example1, example2};
use rtsync::core::task::{ProcessorId, TaskSet};
use rtsync::core::textfmt;
use rtsync::core::time::{Dur, Time};
use rtsync::core::{AnalysisConfig, Protocol};
use rtsync::experiments::{ablation, RobustnessConfig, StudyConfig};
use rtsync::sim::{
    render_dashboard, simulate, simulate_observed, ChannelModel, EventLogObserver, FaultConfig,
    GrayConfig, ProtocolCounters, SimConfig, SimOutcome, SlowSchedule, SlowWindow, SourceModel,
    StallSchedule, StallWindow, SyncConfig, SyncPolicy, Tee, TelemetryObserver, TransportConfig,
};

// Standard output goes through `write_stdout`: these shadow the std
// macros for the whole binary.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

/// Writes to standard output. When the reader has gone (`rtsync … | head`)
/// the process ends quietly; any other write error panics, as `print!`
/// does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        let message = write_failed("printing to stdout", e);
        panic!("{message}");
    }
}

/// Describes a failed write of `what`, or, when the failure is a closed
/// pipe, ends the process without a message and with the status a shell
/// reports for a process that SIGPIPE ends (128 + 13).
fn write_failed(what: &str, e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(141);
    }
    format!("{what}: {e}")
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "example" => cmd_example(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "admit" => cmd_admit(&args[1..]),
        "sensitivity" => cmd_sensitivity(&args[1..]),
        "exact" => cmd_exact(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "study" => cmd_study(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    let studies: String = STUDIES
        .iter()
        .map(|s| format!("\n    {:<14}{}", s.name, s.flags.join(" ")))
        .collect();
    format!(
        "usage:\n  \
     rtsync example <1|2>\n  \
     rtsync check <file|->\n  \
     rtsync analyze <file|-> [--protocol ds|pm|mpm|rg|all] [--convergence]\n  \
     rtsync admit <file|-> [--processors N] [--mode pm|ds] [--no-memo] \
     [--no-gate] [--batch] [--expect FILE]\n  \
     rtsync sensitivity <file|->\n  \
     rtsync exact <file|-> [--steps N] [--instances I]\n  \
     rtsync compare <file|-> [--instances N]\n  \
     rtsync simulate <file|-> --protocol ds|pm|mpm|rg [--instances N] \
     [--gantt TICKS] [--sporadic MAX_EXTRA] [--seed S] [--no-rule2] \
     [--trace-csv FILE] [--latency TICKS] [--drop P] [--transport] \
     [--timeout TICKS] [--sync-period TICKS] [--sync-policy step|slew:MAX|observe] \
     [--drift PPM] [--clock-offset TICKS] \
     [--slow PROC:AT:SPAN:FACTOR] [--stall PROC:AT:SPAN] \
     [--telemetry FILE] [--window TICKS]\n  \
     rtsync report <file|-|--paper N:U> --protocol ds|pm|mpm|rg [--instances N] \
     [--window TICKS] [--out FILE] [--csv FILE] [--jsonl FILE] \
     [nonideal flags as in simulate]\n  \
     rtsync report --from CSV [--out FILE]\n  \
     rtsync trace <file|-> --protocol ds|pm|mpm|rg [--instances N] \
     [--format perfetto|jsonl|gantt] [--counters] [--telemetry] [--window TICKS] \
     [--out FILE] [--sporadic MAX_EXTRA] [--seed S]\n  \
     rtsync study <name> [--smoke] [--runs N] [--systems N] [--instances I] [--seed S] \
     [--threads T] [--transport] [--telemetry FILE] [--window TICKS] [--out DIR]\n    \
     (each study takes the flags listed below, plus --out if it writes files):{studies}\n  \
     rtsync bench [--json] [--smoke] [--out FILE] [--profile] \
     [--compare BASELINE] [--tolerance FRAC|scenario=FRAC]"
    )
}

fn cmd_example(args: &[String]) -> Result<(), String> {
    let which = args.first().map(String::as_str).unwrap_or("2");
    let set = match which {
        "1" => example1(),
        "2" => example2(),
        other => return Err(format!("unknown example `{other}` (use 1 or 2)")),
    };
    print!("{}", textfmt::to_text(&set));
    Ok(())
}

/// Reads a file, or stdin for `-`.
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        return Ok(buffer);
    }
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load(path: &str) -> Result<TaskSet, String> {
    textfmt::parse(&read_input(path)?).map_err(|e| e.to_string())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    println!(
        "ok: {} processors, {} tasks, {} subtasks",
        set.num_processors(),
        set.num_tasks(),
        set.num_subtasks()
    );
    for p in 0..set.num_processors() {
        let proc = ProcessorId::new(p);
        let util = set.processor_utilization_ppm(proc) as f64 / 1e4;
        println!(
            "  {proc}: {} subtasks, utilization {util:.2}%",
            set.subtasks_on(proc).count()
        );
    }
    Ok(())
}

fn parse_protocol(tag: &str) -> Result<Protocol, String> {
    match tag.to_ascii_lowercase().as_str() {
        "ds" => Ok(Protocol::DirectSync),
        "pm" => Ok(Protocol::PhaseModification),
        "mpm" => Ok(Protocol::ModifiedPhaseModification),
        "rg" => Ok(Protocol::ReleaseGuard),
        other => Err(format!("unknown protocol `{other}` (ds, pm, mpm, rg)")),
    }
}

fn parse_sync_policy(tag: &str) -> Result<SyncPolicy, String> {
    let tag = tag.to_ascii_lowercase();
    match tag.as_str() {
        "step" => Ok(SyncPolicy::Step),
        "observe" => Ok(SyncPolicy::Observe),
        _ => match tag.strip_prefix("slew:") {
            Some(max) => {
                let max: i64 = parsed("--sync-policy slew", max)?;
                if max <= 0 {
                    return Err("--sync-policy slew:MAX needs a positive MAX".to_string());
                }
                Ok(SyncPolicy::Slew {
                    max_step: Dur::from_ticks(max),
                })
            }
            None => Err(format!(
                "unknown sync policy `{tag}` (step, slew:MAX, observe)"
            )),
        },
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut protocols: Vec<Protocol> = Protocol::ALL.to_vec();
    let mut convergence = false;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--protocol" => {
                let tag = it.next().ok_or("--protocol needs a value")?;
                if tag != "all" {
                    protocols = vec![parse_protocol(tag)?];
                }
            }
            "--convergence" => convergence = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let cfg = AnalysisConfig::default();
    for protocol in protocols {
        match analyze(&set, protocol, &cfg) {
            Ok(report) => println!("{report}\n"),
            Err(e) if e.is_failure() => println!(
                "schedulability under {protocol} protocol\n\
                 no finite bound found ({e}) — the paper's failure outcome\n"
            ),
            Err(e) => return Err(e.to_string()),
        }
    }
    if convergence {
        print_convergence(&set, &cfg)?;
    }
    Ok(())
}

/// How the iterative analyses reached (or failed to reach) their fixed
/// points: SA/PM busy-period iterations and the SA/DS IEERT sweep
/// trajectory.
fn print_convergence(set: &TaskSet, cfg: &AnalysisConfig) -> Result<(), String> {
    use rtsync::core::analysis::sa_ds::analyze_ds_traced;
    use rtsync::core::analysis::sa_pm::analyze_pm_traced;
    match analyze_pm_traced(set, cfg) {
        Ok((_, report)) => println!("{report}"),
        Err(e) if e.is_failure() => {
            println!("SA/PM convergence: no finite bound found ({e})\n")
        }
        Err(e) => return Err(e.to_string()),
    }
    let (_, report) = analyze_ds_traced(set, cfg).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

/// `rtsync admit` — serve admission-control requests over JSONL: one
/// request object per input line, one verdict object per output line.
///
/// ```text
/// {"op":"admit","id":1,"period":100,"deadline":80,"rank":2,"subtasks":[[0,30],[1,20]]}
/// {"op":"retire","id":1}
/// ```
///
/// Admit replies carry `admitted`, the end-to-end `bound` (when
/// admitted), the `reject` reason (when not), the resident count, the
/// reanalyzed/skipped work split, and the decision latency in
/// microseconds. Retire replies carry `ok` (plus `error` when the id is
/// unknown). Blank lines and `#` comments are skipped. By default stdin
/// is served a line at a time (each reply flushed); `--batch` reads the
/// whole input first and reports throughput. `--expect FILE` compares
/// every verdict against a recorded reply line and exits nonzero on any
/// mismatch (work counters and latency are not compared).
fn cmd_admit(args: &[String]) -> Result<(), String> {
    use rtsync::bench::json;
    use rtsync::core::analysis::admission::{AdmissionConfig, AdmissionMode, AdmissionState};
    use std::io::BufRead as _;

    let path = args.first().ok_or_else(usage)?;
    let mut processors = 4usize;
    let mut mode = AdmissionMode::PmFamily;
    let mut memo = true;
    let mut gate = true;
    let mut batch = false;
    let mut expect_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--processors" => processors = parsed(arg, grab(arg)?)?,
            "--mode" => {
                mode = match grab("--mode")?.as_str() {
                    "pm" | "mpm" | "rg" => AdmissionMode::PmFamily,
                    "ds" => AdmissionMode::DirectSync,
                    other => return Err(format!("unknown mode `{other}` (pm, ds)")),
                }
            }
            "--no-memo" => memo = false,
            "--no-gate" => gate = false,
            "--batch" => batch = true,
            "--expect" => expect_path = Some(grab("--expect")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if processors == 0 {
        return Err("--processors must be at least 1".to_string());
    }
    let cfg = AdmissionConfig::new(mode)
        .with_memoization(memo)
        .with_quick_gate(gate);
    let mut state = AdmissionState::new(processors, cfg);

    let expected: Option<Vec<json::Json>> = match &expect_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let verdicts: Result<Vec<json::Json>, String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
                .collect();
            Some(verdicts?)
        }
        None => None,
    };

    let mut served = 0usize;
    let mut mismatches: Vec<String> = Vec::new();
    let started = std::time::Instant::now();
    {
        // One closure serves a request line and checks it against the
        // expectations; the two input paths below share it.
        let mut serve = |line: &str, sink: &mut dyn std::io::Write| -> Result<(), String> {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return Ok(());
            }
            let reply = admit_serve(&mut state, line)
                .map_err(|e| format!("request {}: {e}", served + 1))?;
            if let Some(expected) = &expected {
                let got = admit_verdict_key(&json::parse(&reply).expect("replies are JSON"));
                match expected.get(served) {
                    Some(want) if admit_verdict_key(want) == got => {}
                    Some(want) => mismatches.push(format!(
                        "request {}: expected {} got {got}",
                        served + 1,
                        admit_verdict_key(want)
                    )),
                    None => mismatches.push(format!(
                        "request {}: no expected verdict on file",
                        served + 1
                    )),
                }
            }
            served += 1;
            writeln!(sink, "{reply}").map_err(|e| write_failed("writing reply", e))?;
            Ok(())
        };
        if path == "-" && !batch {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| format!("reading stdin: {e}"))?;
                serve(&line, &mut out)?;
                out.flush()
                    .map_err(|e| write_failed("flushing stdout", e))?;
            }
        } else {
            let text = read_input(path)?;
            let mut replies = Vec::with_capacity(text.len());
            for line in text.lines() {
                serve(line, &mut replies)?;
            }
            std::io::stdout()
                .write_all(&replies)
                .map_err(|e| write_failed("writing replies", e))?;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = state.stats();
    eprintln!(
        "served {served} requests in {:.1} ms ({:.0} decisions/s): \
         {} admitted, {} rejected ({} by gate), {} retired; \
         {} subtask analyses run, {} skipped",
        elapsed * 1e3,
        if elapsed > 0.0 {
            served as f64 / elapsed
        } else {
            0.0
        },
        stats.admitted,
        stats.rejected,
        stats.gate_rejects,
        stats.retired,
        stats.subtasks_reanalyzed,
        stats.subtasks_skipped,
    );
    if let Some(expected) = &expected {
        for missing in served..expected.len() {
            mismatches.push(format!(
                "request {}: expected but never served",
                missing + 1
            ));
        }
        if !mismatches.is_empty() {
            return Err(format!(
                "{} verdict mismatch(es) vs {}:\n  {}",
                mismatches.len(),
                expect_path.as_deref().unwrap_or("-"),
                mismatches.join("\n  ")
            ));
        }
        eprintln!(
            "all {served} verdicts match {}",
            expect_path.as_deref().unwrap_or("-")
        );
    }
    Ok(())
}

/// Serves one JSONL admission request against the engine and renders the
/// reply line. The decision latency covers the engine call alone, not
/// parsing or I/O.
fn admit_serve(
    state: &mut rtsync::core::analysis::admission::AdmissionState,
    line: &str,
) -> Result<String, String> {
    use rtsync::bench::json::{self, Json};
    use rtsync::core::analysis::admission::ChainRequest;

    let v = json::parse(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    let id = v
        .get("id")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"id\"")? as u64;
    match op {
        "admit" => {
            let period = v
                .get("period")
                .and_then(Json::as_f64)
                .ok_or("missing numeric field \"period\"")? as i64;
            let pairs = v
                .get("subtasks")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"subtasks\"")?;
            let mut subtasks = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("\"subtasks\" entries are [processor, execution] pairs")?;
                let proc = pair[0]
                    .as_f64()
                    .ok_or("subtask processor must be a number")?
                    as usize;
                let exec = pair[1]
                    .as_f64()
                    .ok_or("subtask execution must be a number")? as i64;
                subtasks.push((proc, Dur::from_ticks(exec)));
            }
            let mut req = ChainRequest::new(id, Dur::from_ticks(period), subtasks);
            if let Some(deadline) = v.get("deadline").and_then(Json::as_f64) {
                req = req.with_deadline(Dur::from_ticks(deadline as i64));
            }
            if let Some(rank) = v.get("rank").and_then(Json::as_f64) {
                req = req.with_rank(rank as u32);
            }
            let t0 = std::time::Instant::now();
            let decision = state.admit(req);
            let latency_us = t0.elapsed().as_nanos() as f64 / 1e3;
            let mut reply = format!(
                "{{\"op\":\"admit\",\"id\":{id},\"admitted\":{}",
                decision.admitted
            );
            if let Some(bound) = decision.bound {
                reply.push_str(&format!(",\"bound\":{}", bound.ticks()));
            }
            if let Some(reject) = &decision.reject {
                reply.push_str(&format!(
                    ",\"reject\":\"{}\"",
                    json::escape(&reject.to_string())
                ));
            }
            reply.push_str(&format!(
                ",\"residents\":{},\"reanalyzed\":{},\"skipped\":{},\"latency_us\":{latency_us:.1}}}",
                decision.residents, decision.reanalyzed, decision.skipped
            ));
            Ok(reply)
        }
        "retire" => {
            let t0 = std::time::Instant::now();
            let outcome = state.retire(id);
            let latency_us = t0.elapsed().as_nanos() as f64 / 1e3;
            Ok(match outcome {
                Ok(out) => format!(
                    "{{\"op\":\"retire\",\"id\":{id},\"ok\":true,\"residents\":{},\
                     \"reanalyzed\":{},\"skipped\":{},\"latency_us\":{latency_us:.1}}}",
                    out.residents, out.reanalyzed, out.skipped
                ),
                Err(e) => format!(
                    "{{\"op\":\"retire\",\"id\":{id},\"ok\":false,\"error\":\"{}\",\
                     \"latency_us\":{latency_us:.1}}}",
                    json::escape(&e.to_string())
                ),
            })
        }
        other => Err(format!("unknown op `{other}` (admit, retire)")),
    }
}

/// The fields of a reply that constitute the verdict — everything
/// `--expect` compares. Latency and the reanalyzed/skipped work split
/// are measurements, not verdicts, and stay out.
fn admit_verdict_key(v: &rtsync::bench::json::Json) -> String {
    [
        "op",
        "id",
        "admitted",
        "ok",
        "bound",
        "reject",
        "error",
        "residents",
    ]
    .iter()
    .filter_map(|key| v.get(key).map(|value| format!("{key}={value:?}")))
    .collect::<Vec<String>>()
    .join(",")
}

fn cmd_sensitivity(args: &[String]) -> Result<(), String> {
    use rtsync::core::analysis::sensitivity::critical_scaling;
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let cfg = AnalysisConfig::default();
    println!("critical scaling factor per protocol (analysis headroom):");
    for protocol in Protocol::ALL {
        let permille = critical_scaling(&set, protocol, &cfg, 10_000);
        let verdict = match permille {
            0 => "unschedulable even with minimal execution times".to_string(),
            p if p >= 10_000 => ">= 10.0x (search cap)".to_string(),
            p => format!(
                "{}.{:03}x — provably schedulable up to this load scaling",
                p / 1000,
                p % 1000
            ),
        };
        println!("  {:<4} {}", protocol.tag(), verdict);
    }
    Ok(())
}

fn cmd_exact(args: &[String]) -> Result<(), String> {
    use rtsync::core::analysis::sa_ds::analyze_ds;
    use rtsync::core::analysis::sa_pm::analyze_pm;
    use rtsync::experiments::exact::{exact_worst_case, ExactConfig};
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut cfg = ExactConfig::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--steps" => cfg.phase_steps = parsed(arg, grab(arg)?)?,
            "--instances" => cfg.instances_per_task = positive(arg, grab(arg)?)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let acfg = AnalysisConfig::default();
    let pm = analyze_pm(&set, &acfg).map_err(|e| e.to_string())?;
    let ds = analyze_ds(&set, &acfg).ok();
    println!(
        "exhaustive phase search ({} grid, {} instances/task):",
        if cfg.phase_steps == 0 {
            "full integer".to_string()
        } else {
            format!("{}-step", cfg.phase_steps)
        },
        cfg.instances_per_task
    );
    for protocol in [
        Protocol::DirectSync,
        Protocol::ReleaseGuard,
        Protocol::PhaseModification,
    ] {
        let exact = exact_worst_case(&set, protocol, &cfg).map_err(|e| e.to_string())?;
        println!("  {}:", protocol.tag());
        for (i, w) in exact.iter().enumerate() {
            let bound = match protocol {
                Protocol::DirectSync => ds.as_ref().map(|b| b.task_bounds()[i]),
                _ => Some(pm.task_bounds()[i]),
            };
            println!(
                "    T{i}: worst observed {} vs analyzed bound {}{}",
                w.ticks(),
                bound.map_or("infinite".into(), |b| b.ticks().to_string()),
                if bound == Some(*w) { "  (tight)" } else { "" }
            );
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    use rtsync::experiments::compare::compare;
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut instances = 200u64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--instances" => {
                instances = positive(arg, it.next().ok_or("--instances needs a value")?)?
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let cmp = compare(&set, instances, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    print!("{cmp}");
    Ok(())
}

/// The nonideal-world knobs shared by `simulate` and `report`: channel
/// latency/drops, endpoint transport, clock imperfection, and the clock
/// synchronization service.
struct NonidealFlags {
    seed: u64,
    sporadic: Option<i64>,
    latency: i64,
    drop: f64,
    transport: bool,
    timeout: Option<i64>,
    drift_ppm: i64,
    clock_offset: i64,
    sync_period: Option<i64>,
    sync_policy: SyncPolicy,
    slow: Vec<SlowWindowSpec>,
    stall: Vec<StallWindowSpec>,
}

/// One `--slow PROC:AT:SPAN:FACTOR` occurrence.
struct SlowWindowSpec {
    proc: usize,
    at: i64,
    span: i64,
    factor: u32,
}

/// One `--stall PROC:AT:SPAN` occurrence.
struct StallWindowSpec {
    proc: usize,
    at: i64,
    span: i64,
}

impl NonidealFlags {
    fn new() -> NonidealFlags {
        NonidealFlags {
            seed: 0,
            sporadic: None,
            latency: 0,
            drop: 0.0,
            transport: false,
            timeout: None,
            drift_ppm: 0,
            clock_offset: 0,
            sync_period: None,
            sync_policy: SyncPolicy::Step,
            slow: Vec::new(),
            stall: Vec::new(),
        }
    }

    /// Consumes `arg` (and its value from `it`) when it is one of the
    /// shared flags; `Ok(false)` hands it back to the caller's parser.
    fn consume(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg {
            "--sporadic" => self.sporadic = Some(parsed(arg, grab(arg)?)?),
            "--seed" => self.seed = parsed(arg, grab(arg)?)?,
            "--latency" => self.latency = parsed(arg, grab(arg)?)?,
            "--drop" => self.drop = parsed(arg, grab(arg)?)?,
            "--transport" => self.transport = true,
            "--timeout" => self.timeout = Some(parsed(arg, grab(arg)?)?),
            "--drift" => self.drift_ppm = parsed(arg, grab(arg)?)?,
            "--clock-offset" => self.clock_offset = parsed(arg, grab(arg)?)?,
            "--sync-period" => self.sync_period = Some(parsed(arg, grab(arg)?)?),
            "--sync-policy" => self.sync_policy = parse_sync_policy(grab("--sync-policy")?)?,
            "--slow" => {
                let spec = grab("--slow")?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [proc, at, span, factor] = parts[..] else {
                    return Err(format!("--slow wants PROC:AT:SPAN:FACTOR, got `{spec}`"));
                };
                self.slow.push(SlowWindowSpec {
                    proc: parsed("--slow PROC", proc)?,
                    at: parsed("--slow AT", at)?,
                    span: parsed("--slow SPAN", span)?,
                    factor: parsed("--slow FACTOR", factor)?,
                });
            }
            "--stall" => {
                let spec = grab("--stall")?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [proc, at, span] = parts[..] else {
                    return Err(format!("--stall wants PROC:AT:SPAN, got `{spec}`"));
                };
                self.stall.push(StallWindowSpec {
                    proc: parsed("--stall PROC", proc)?,
                    at: parsed("--stall AT", at)?,
                    span: parsed("--stall SPAN", span)?,
                });
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects values the simulator cannot honour, naming the flag.
    fn validate(&self, num_procs: usize) -> Result<(), String> {
        let nonnegative = [
            ("--latency", self.latency),
            ("--drift", self.drift_ppm),
            ("--clock-offset", self.clock_offset),
            ("--sporadic", self.sporadic.unwrap_or(0)),
        ];
        if let Some((name, _)) = nonnegative.iter().find(|(_, v)| *v < 0) {
            return Err(format!("{name} must not be negative"));
        }
        if self.drift_ppm >= 1_000_000 {
            return Err(format!(
                "--drift must stay below 1000000 ppm (a clock cannot stop), got {}",
                self.drift_ppm
            ));
        }
        if !(0.0..=1.0).contains(&self.drop) {
            return Err(format!("--drop must lie in [0, 1], got {}", self.drop));
        }
        if self.timeout.is_some_and(|t| t <= 0) {
            return Err("--timeout must be positive".to_string());
        }
        let windows = self.slow.iter().map(|w| ("--slow", w.proc, w.at, w.span));
        let windows = windows.chain(self.stall.iter().map(|w| ("--stall", w.proc, w.at, w.span)));
        for (name, proc, at, span) in windows {
            if proc >= num_procs {
                return Err(format!(
                    "{name} PROC {proc} is out of range: the set has {num_procs} processors"
                ));
            }
            if at < 0 || span <= 0 {
                return Err(format!("{name} needs AT >= 0 and SPAN > 0"));
            }
        }
        Ok(())
    }

    fn apply(&self, mut cfg: SimConfig, num_procs: usize) -> Result<SimConfig, String> {
        self.validate(num_procs)?;
        if self.drop > 0.0 && !self.transport {
            return Err("--drop loses signals for good without --transport".to_string());
        }
        if self.latency > 0 || self.drop > 0.0 {
            cfg = cfg.with_channel(
                ChannelModel::constant(Dur::from_ticks(self.latency))
                    .with_endpoint_drops(self.drop)
                    .with_seed(self.seed ^ 0xCAFE),
            );
        }
        if self.transport {
            // Default RTO: four times the one-way latency, floored so a
            // zero-latency channel still gets a meaningful timer.
            let rto = self
                .timeout
                .unwrap_or_else(|| self.latency.saturating_mul(4).max(8));
            cfg = cfg.with_transport(
                TransportConfig::new(Dur::from_ticks(rto)).with_seed(self.seed ^ 0xF00D),
            );
        }
        if self.drift_ppm > 0 || self.clock_offset > 0 {
            cfg = cfg.with_clocks(rtsync::sim::ClockModel::Random {
                max_offset: Dur::from_ticks(self.clock_offset),
                max_drift_ppm: self.drift_ppm,
                seed: self.seed ^ 0xC10C,
            });
        }
        if let Some(period) = self.sync_period {
            if period <= 0 {
                return Err("--sync-period must be positive".to_string());
            }
            cfg = cfg
                .with_sync(SyncConfig::new(Dur::from_ticks(period)).with_policy(self.sync_policy));
        }
        if let Some(max_extra) = self.sporadic {
            cfg = cfg.with_source(SourceModel::Sporadic {
                max_extra: Dur::from_ticks(max_extra),
                seed: self.seed,
            });
        }
        if !self.slow.is_empty() || !self.stall.is_empty() {
            let mut gray = GrayConfig::new().with_frame_seed(self.seed ^ 0x6EA7);
            if !self.slow.is_empty() {
                let procs = self.slow.iter().map(|w| w.proc).max().unwrap_or(0) + 1;
                let mut per_proc = vec![Vec::new(); procs];
                for w in &self.slow {
                    if w.factor < 2 {
                        return Err("--slow FACTOR must be at least 2".to_string());
                    }
                    per_proc[w.proc].push(SlowWindow {
                        at: Time::from_ticks(w.at),
                        span: Dur::from_ticks(w.span),
                        factor: w.factor,
                    });
                }
                gray = gray.with_slow(SlowSchedule::Explicit(per_proc));
            }
            if !self.stall.is_empty() {
                let procs = self.stall.iter().map(|w| w.proc).max().unwrap_or(0) + 1;
                let mut per_proc = vec![Vec::new(); procs];
                for w in &self.stall {
                    per_proc[w.proc].push(StallWindow {
                        at: Time::from_ticks(w.at),
                        span: Dur::from_ticks(w.span),
                    });
                }
                gray = gray.with_stalls(StallSchedule::Explicit(per_proc));
            }
            cfg = cfg.with_faults(FaultConfig::gray_only(gray));
        }
        Ok(cfg)
    }
}

/// The telemetry window width: the explicit `--window`, or an auto fit
/// that sizes ~64 windows off an untelemetered probe run (cheap next to
/// the observed run, and keeps dashboards legible at any horizon).
fn telemetry_width(window: Option<i64>, set: &TaskSet, cfg: &SimConfig) -> Result<Dur, String> {
    match window {
        Some(w) if w > 0 => Ok(Dur::from_ticks(w)),
        Some(_) => Err("--window must be positive".to_string()),
        None => {
            let probe = simulate(set, cfg).map_err(|e| e.to_string())?;
            Ok(Dur::from_ticks((probe.end_time.ticks() / 64).max(1)))
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut protocol = None;
    let mut instances = 100u64;
    let mut gantt: Option<i64> = None;
    let mut rule2 = true;
    let mut trace_csv: Option<String> = None;
    let mut telemetry_out: Option<String> = None;
    let mut window: Option<i64> = None;
    let mut flags = NonidealFlags::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => protocol = Some(parse_protocol(grab("--protocol")?)?),
            "--instances" => instances = positive(arg, grab(arg)?)?,
            "--gantt" => {
                let until: i64 = parsed(arg, grab(arg)?)?;
                if until < 0 {
                    return Err(format!("--gantt {until}: must be >= 0"));
                }
                gantt = Some(until);
            }
            "--no-rule2" => rule2 = false,
            "--trace-csv" => trace_csv = Some(grab("--trace-csv")?.clone()),
            "--telemetry" => telemetry_out = Some(grab("--telemetry")?.clone()),
            "--window" => window = Some(parsed(arg, grab(arg)?)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let protocol = protocol.ok_or("simulate requires --protocol")?;
    let mut cfg = flags.apply(
        SimConfig::new(protocol).with_instances(instances),
        set.num_processors(),
    )?;
    if gantt.is_some() || trace_csv.is_some() {
        cfg = cfg.with_trace();
    }
    if !rule2 {
        cfg = cfg.without_rg_rule2();
    }
    let (outcome, telemetry) = match &telemetry_out {
        None => (simulate(&set, &cfg).map_err(|e| e.to_string())?, None),
        Some(_) => {
            let mut tel = TelemetryObserver::new(telemetry_width(window, &set, &cfg)?);
            let outcome = simulate_observed(&set, &cfg, &mut tel).map_err(|e| e.to_string())?;
            (outcome, Some(tel.into_report()))
        }
    };

    println!(
        "{} protocol: {} events, ended at t={}{}",
        protocol.tag(),
        outcome.events,
        outcome.end_time.ticks(),
        stop_note(&set, &cfg, &outcome)
    );
    println!(
        "{:<6}{:>10}{:>12}{:>10}{:>8}{:>8}{:>8}{:>10}{:>10}{:>8}",
        "task", "done", "avg EER", "min", "p50", "p95", "p99", "max", "jitter", "misses"
    );
    // A quantile reads its histogram bucket's upper bound, which can
    // pass the largest EER observed: print it clamped to that.
    let q = |s: &rtsync::sim::TaskStats, q: f64| -> String {
        (s.eer_quantile(q).zip(s.max_eer()))
            .map_or("-".into(), |(v, max)| v.min(max).ticks().to_string())
    };
    for task in set.tasks() {
        let s = outcome.metrics.task(task.id());
        println!(
            "{:<6}{:>10}{:>12}{:>10}{:>8}{:>8}{:>8}{:>10}{:>10}{:>8}",
            task.id().to_string(),
            s.completed(),
            s.avg_eer().map_or("-".into(), |v| format!("{v:.1}")),
            s.min_eer().map_or("-".into(), |v| v.ticks().to_string()),
            q(s, 0.50),
            q(s, 0.95),
            q(s, 0.99),
            s.max_eer().map_or("-".into(), |v| v.ticks().to_string()),
            s.max_output_jitter().ticks(),
            s.deadline_misses(),
        );
    }
    if !outcome.violations.is_empty() {
        println!("protocol violations: {}", outcome.violations.len());
    }
    let ch = &outcome.channel_stats;
    if ch.sent > 0 {
        println!(
            "channel: {} sent, {} applied, {} dropped, {} duplicates, {} reordered",
            ch.sent, ch.applied, ch.dropped, ch.duplicates_injected, ch.reordered
        );
    }
    let tr = &outcome.transport_stats;
    if tr.sent > 0 {
        println!(
            "transport: {} frames, {} retransmissions, {} dup deliveries, \
             {} acks ({} dup), {} abandoned",
            tr.sent, tr.retransmissions, tr.dup_deliveries, tr.acks, tr.dup_acks, tr.gave_up
        );
    }
    let dt = &outcome.detect_stats;
    if dt.heartbeats_sent > 0 {
        println!(
            "detector: {} heartbeats, {} suspects ({} false), {} deads ({} false), \
             {} forced releases, {} watchdog trips",
            dt.heartbeats_sent,
            dt.suspects,
            dt.false_suspects,
            dt.deads,
            dt.false_deads,
            dt.forced_releases,
            dt.watchdog_trips
        );
        if dt.degradeds + dt.false_dead_gray + dt.hysteresis_holds > 0 {
            println!(
                "detector (gray): {} degradeds ({} confirmed gray), \
                 {} false deads on gray peers, {} hysteresis holds",
                dt.degradeds, dt.gray_hits, dt.false_dead_gray, dt.hysteresis_holds
            );
        }
    }
    let fs = &outcome.fault_stats;
    if fs.slowdowns + fs.stalls + fs.link_degrades > 0 {
        println!(
            "gray faults: {} slowdowns, {} stalls, {} link windows, \
             {} heartbeats dropped, {} extra latency ticks",
            fs.slowdowns,
            fs.stalls,
            fs.link_degrades,
            fs.gray_dropped_heartbeats,
            fs.gray_extra_latency_ticks
        );
    }
    let sy = &outcome.sync_stats;
    if sy.rounds > 0 {
        println!(
            "sync: {} rounds, {} exchanges, {} corrections, \
             clock error mean {:.1} max {} ticks, bound <= {} ticks",
            sy.rounds,
            sy.exchanges,
            sy.corrections.len(),
            sy.mean_true_error().unwrap_or(0.0),
            sy.max_true_error.ticks(),
            sy.max_uncertainty.ticks(),
        );
        if sy.frames_lost + sy.frames_severed + sy.retransmits + sy.corrupted_samples > 0 {
            println!(
                "sync faults: {} frames lost, {} severed by partitions, \
                 {} retransmits, {} corrupted samples",
                sy.frames_lost, sy.frames_severed, sy.retransmits, sy.corrupted_samples
            );
        }
    }
    if let (Some(until), Some(trace)) = (gantt, &outcome.trace) {
        println!("\n{}", trace.render_gantt(Time::from_ticks(until)));
    }
    if let (Some(path), Some(trace)) = (trace_csv, &outcome.trace) {
        std::fs::write(&path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let (Some(path), Some(report)) = (&telemetry_out, &telemetry) {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} ({} windows x {} ticks)",
            report.windows.len(),
            report.width.ticks()
        );
    }
    Ok(())
}

/// Why a run that missed its instance target stopped: the event cap when
/// it popped `max_events`, the horizon otherwise. Names every task short
/// of the target with its completed and lost instances.
fn stop_note(set: &TaskSet, cfg: &SimConfig, outcome: &SimOutcome) -> String {
    if outcome.reached_target {
        return String::new();
    }
    let cause = if outcome.events >= cfg.max_events {
        format!("event cap of {} reached", cfg.max_events)
    } else {
        "horizon reached".to_string()
    };
    let short: Vec<String> = set
        .tasks()
        .iter()
        .filter_map(|task| {
            let s = outcome.metrics.task(task.id());
            (s.completed() + s.lost() < cfg.instances_per_task)
                .then(|| format!("{} {} done, {} lost", task.id(), s.completed(), s.lost()))
        })
        .collect();
    format!(
        " ({cause} before the instance target: {})",
        short.join("; ")
    )
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let first = args.first().ok_or_else(usage)?;
    if first == "--from" {
        let csv_path = args.get(1).ok_or("--from needs a CSV file")?;
        let mut out = "telemetry.html".to_string();
        let mut it = args[2..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => out = it.next().ok_or("--out needs a value")?.clone(),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        let text =
            std::fs::read_to_string(csv_path).map_err(|e| format!("reading {csv_path}: {e}"))?;
        let series = series_from_csv(&text)?;
        let html = render_dashboard(
            "rtsync telemetry",
            &format!("replayed from {csv_path}"),
            &series,
        );
        std::fs::write(&out, html).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "wrote {out} ({} series replayed from {csv_path})",
            series.len()
        );
        return Ok(());
    }
    let (paper, rest): (Option<&String>, &[String]) = if first == "--paper" {
        (
            Some(args.get(1).ok_or("--paper needs N:U (e.g. 4:0.25)")?),
            &args[2..],
        )
    } else {
        (None, &args[1..])
    };
    let mut protocol = None;
    let mut instances = 200u64;
    let mut window: Option<i64> = None;
    let mut out = "telemetry.html".to_string();
    let mut csv_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;
    let mut flags = NonidealFlags::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => protocol = Some(parse_protocol(grab("--protocol")?)?),
            "--instances" => instances = positive(arg, grab(arg)?)?,
            "--window" => window = Some(parsed(arg, grab(arg)?)?),
            "--out" => out = grab("--out")?.clone(),
            "--csv" => csv_out = Some(grab("--csv")?.clone()),
            "--jsonl" => jsonl_out = Some(grab("--jsonl")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let protocol = protocol.ok_or("report requires --protocol")?;
    let set = match paper {
        Some(spec) => {
            // A §5.1 synthetic system: N subtasks per task at per-processor
            // utilization U, random phases, seeded by --seed.
            let (n, u) = spec
                .split_once(':')
                .ok_or("--paper needs N:U (e.g. 4:0.25)")?;
            let n: usize = parsed("--paper", n)?;
            let u: f64 = parsed("--paper", u)?;
            if n == 0 || !(u > 0.0 && u <= 1.0) {
                return Err("--paper needs N >= 1 and U in (0, 1]".to_string());
            }
            rtsync::workload::generate_seeded(
                &rtsync::workload::WorkloadSpec::paper(n, u).with_random_phases(),
                flags.seed,
            )
            .map_err(|e| e.to_string())?
        }
        None => load(first)?,
    };
    let cfg = flags.apply(
        SimConfig::new(protocol).with_instances(instances),
        set.num_processors(),
    )?;
    let mut tel = TelemetryObserver::new(telemetry_width(window, &set, &cfg)?);
    let outcome = simulate_observed(&set, &cfg, &mut tel).map_err(|e| e.to_string())?;
    let report = tel.into_report();
    if let Some(path) = &csv_out {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &jsonl_out {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    std::fs::write(&out, report.to_html()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} windows x {} ticks, {} series ({} events, ended at t={})",
        report.windows.len(),
        report.width.ticks(),
        report.series().len(),
        outcome.events,
        outcome.end_time.ticks()
    );
    Ok(())
}

/// Rebuilds dashboard series from a telemetry CSV written by
/// `--telemetry`/`--csv`: every column except the window bookkeeping
/// becomes one series; empty cells (gauges with nothing to report yet)
/// carry the previous value forward.
fn series_from_csv(text: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty telemetry CSV")?;
    let cols: Vec<&str> = header.split(',').collect();
    let keep: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, name)| !matches!(**name, "window" | "start" | "end"))
        .map(|(i, _)| i)
        .collect();
    if keep.is_empty() {
        return Err("no data columns in the CSV header".to_string());
    }
    let mut series: Vec<(String, Vec<f64>)> = keep
        .iter()
        .map(|&i| (cols[i].to_string(), Vec::new()))
        .collect();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        for (slot, &col) in keep.iter().enumerate() {
            let values = &mut series[slot].1;
            let value = match cells.get(col).copied().unwrap_or("") {
                "" => values.last().copied().unwrap_or(0.0),
                cell => cell
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: column `{}`: {e}", lineno + 2, cols[col]))?,
            };
            values.push(value);
        }
    }
    Ok(series)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut protocol = None;
    let mut instances = 100u64;
    let mut format = "perfetto".to_string();
    let mut counters = false;
    let mut telemetry = false;
    let mut window: Option<i64> = None;
    let mut out: Option<String> = None;
    let mut sporadic: Option<i64> = None;
    let mut seed = 0u64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => protocol = Some(parse_protocol(grab("--protocol")?)?),
            "--instances" => instances = positive(arg, grab(arg)?)?,
            "--format" => format = grab("--format")?.clone(),
            "--counters" => counters = true,
            "--telemetry" => telemetry = true,
            "--window" => window = Some(parsed(arg, grab(arg)?)?),
            "--out" => out = Some(grab("--out")?.clone()),
            "--sporadic" => sporadic = Some(parsed(arg, grab(arg)?)?),
            "--seed" => seed = parsed(arg, grab(arg)?)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let protocol = protocol.ok_or("trace requires --protocol")?;
    if sporadic.is_some_and(|s| s < 0) {
        return Err("--sporadic must not be negative".to_string());
    }
    if !matches!(format.as_str(), "perfetto" | "jsonl" | "gantt") {
        return Err(format!(
            "unknown format `{format}` (perfetto, jsonl, gantt)"
        ));
    }
    if telemetry && format != "perfetto" {
        return Err("--telemetry adds counter tracks; it requires --format perfetto".to_string());
    }
    let mut cfg = SimConfig::new(protocol).with_instances(instances);
    if format == "gantt" {
        cfg = cfg.with_trace();
    }
    if let Some(max_extra) = sporadic {
        cfg = cfg.with_source(SourceModel::Sporadic {
            max_extra: Dur::from_ticks(max_extra),
            seed,
        });
    }
    // The event log, the counters, and the telemetry recorder are all
    // observers; Tees feed every requested report from the same run.
    let mut log = EventLogObserver::default();
    let mut tally = ProtocolCounters::default();
    let mut tel: Option<TelemetryObserver> = if telemetry {
        Some(TelemetryObserver::new(telemetry_width(window, &set, &cfg)?))
    } else {
        None
    };
    let outcome = match (&mut tel, counters) {
        (None, false) => simulate_observed(&set, &cfg, &mut log),
        (None, true) => simulate_observed(&set, &cfg, &mut Tee(&mut tally, &mut log)),
        (Some(t), false) => simulate_observed(&set, &cfg, &mut Tee(&mut log, t)),
        (Some(t), true) => {
            let mut inner = Tee(&mut log, t);
            simulate_observed(&set, &cfg, &mut Tee(&mut tally, &mut inner))
        }
    }
    .map_err(|e| e.to_string())?;

    let rendered = match format.as_str() {
        "perfetto" => match tel {
            Some(t) => log.to_chrome_trace_with(&t.into_report().chrome_counter_events()),
            None => log.to_chrome_trace(),
        },
        "jsonl" => log.to_jsonl(),
        _ => outcome
            .trace
            .as_ref()
            .map(|t| t.render_gantt(outcome.end_time))
            .unwrap_or_default(),
    };
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} events)", log.len());
        }
        None => print!("{rendered}"),
    }
    if counters {
        let report = tally.render(&outcome);
        if out.is_none() && format != "gantt" {
            // Keep stdout machine-readable; the report goes to stderr.
            eprint!("{report}");
        } else {
            print!("{report}");
        }
    }
    Ok(())
}

/// The seed of the §5 figure, ablation and tail-latency records.
const PAPER_SEED: u64 = 20_260_707;
/// The seed of the convergence, robustness and sync records.
const GRID_SEED: u64 = 0xC0FF_EE00;

const SIZED: &[&str] = &["--systems", "--instances", "--seed", "--threads"];
const SYSTEMS: &[&str] = &["--systems", "--seed", "--threads"];
const CAMPAIGN: &[&str] = &["--smoke", "--runs", "--seed", "--threads"];
const FIXED: &[&str] = &["--smoke", "--seed", "--threads"];

/// One study `rtsync study <name>` runs.
struct Study {
    name: &'static str,
    /// The flags it takes, besides `--out DIR`, which every study that
    /// writes files takes.
    flags: &'static [&'static str],
    /// The files it writes under `--out`, one per body its runner
    /// returns, in order. Each file has exactly one writer.
    writes: &'static [&'static str],
    /// Runs and prints the study. Its defaults are the configuration
    /// that wrote its committed record; the flags given override them.
    run: fn(&StudyArgs) -> Result<Ran, String>,
}

/// Every study, in the order the usage lists them.
const STUDIES: [Study; 16] = [
    Study {
        name: "figures",
        flags: SIZED,
        writes: &[
            "fig12.csv",
            "fig13.csv",
            "fig14.csv",
            "fig15.csv",
            "fig16.csv",
        ],
        run: run_figures,
    },
    Study {
        name: "traces",
        flags: &[],
        writes: &[],
        run: |_| {
            for fig in rtsync::experiments::traces::TraceFigure::ALL {
                println!("{}", fig.render());
            }
            Ok(Ran("Figs. 3, 5, 6 and 7".to_string(), Vec::new(), None))
        },
    },
    Study {
        name: "tails",
        flags: SIZED,
        writes: &["tails_pm_ds_p99.csv", "tails_rg_ds_p99.csv"],
        run: |a| {
            sized(a, 8, 40, PAPER_SEED, |cfg| {
                use rtsync::experiments::figures::custom_grid;
                let outcomes = rtsync::experiments::run_study(cfg);
                vec![
                    shown(custom_grid("p99-EER ratio PM/DS", &outcomes, |o| {
                        o.pm_ds_p99_mean
                    })),
                    shown(custom_grid("p99-EER ratio RG/DS", &outcomes, |o| {
                        o.rg_ds_p99_mean
                    })),
                ]
            })
        },
    },
    Study {
        name: "rule2",
        flags: SIZED,
        writes: &["ablation_rule2.csv"],
        run: |a| {
            sized(a, 12, 15, PAPER_SEED, |cfg| {
                vec![shown(ablation::rule2_ablation(cfg))]
            })
        },
    },
    Study {
        name: "distributions",
        flags: SIZED,
        writes: &[
            "ablation_distribution_0.csv",
            "ablation_distribution_1.csv",
            "ablation_distribution_2.csv",
        ],
        run: |a| {
            sized(a, 12, 15, PAPER_SEED, |cfg| {
                ablation::distribution_ablation(cfg)
                    .into_iter()
                    .map(shown)
                    .collect()
            })
        },
    },
    Study {
        name: "tightness",
        flags: SIZED,
        writes: &[],
        run: |a| {
            sized(a, 12, 15, PAPER_SEED, |cfg| {
                use rtsync::experiments::tightness::{render, tightness_config};
                let mut rows = Vec::new();
                for &n in &cfg.n_values {
                    for &u in &cfg.u_values {
                        rows.push(tightness_config(n, u, cfg));
                    }
                }
                println!("{}", render(&rows));
                Vec::new()
            })
        },
    },
    Study {
        name: "contention",
        flags: SYSTEMS,
        writes: &["ablation_contention_0.csv", "ablation_contention_1.csv"],
        run: |a| {
            sized(a, 10, 20, PAPER_SEED, |cfg| {
                let grids = ablation::contention_ablation(cfg, &[0.2, 0.5]);
                grids.into_iter().map(shown).collect()
            })
        },
    },
    Study {
        name: "policies",
        flags: SYSTEMS,
        writes: &[
            "ablation_policy_0.csv",
            "ablation_policy_1.csv",
            "ablation_policy_2.csv",
            "ablation_policy_3.csv",
        ],
        run: |a| {
            sized(a, 10, 20, PAPER_SEED, |cfg| {
                let grids = ablation::priority_policy_ablation(cfg);
                grids.into_iter().map(shown).collect()
            })
        },
    },
    Study {
        name: "convergence",
        flags: SYSTEMS,
        writes: &["convergence_obs.csv"],
        run: run_convergence,
    },
    Study {
        name: "robustness",
        flags: SIZED,
        writes: &[
            "robustness.csv",
            "robustness_inflation_ds.csv",
            "robustness_inflation_pm.csv",
            "robustness_inflation_mpm.csv",
            "robustness_inflation_rg.csv",
        ],
        run: run_robustness,
    },
    Study {
        name: "sync",
        flags: FIXED,
        writes: &[
            "sync_grid.csv",
            "sync_summary.csv",
            "robustness_pm_synced.csv",
        ],
        run: run_sync,
    },
    Study {
        name: "chaos",
        flags: &[
            "--smoke",
            "--runs",
            "--seed",
            "--threads",
            "--transport",
            "--telemetry",
            "--window",
        ],
        writes: &["chaos_summary.csv", "chaos_runs.csv"],
        run: run_chaos,
    },
    Study {
        name: "adversary",
        flags: CAMPAIGN,
        writes: &["adversary_grid.csv", "adversary_summary.csv"],
        run: run_adversary,
    },
    Study {
        name: "gray",
        flags: CAMPAIGN,
        writes: &["gray_grid.csv", "gray_summary.csv"],
        run: run_gray,
    },
    Study {
        name: "transport",
        flags: FIXED,
        writes: &["transport_grid.csv", "transport_summary.csv"],
        run: run_transport,
    },
    Study {
        name: "admit",
        flags: FIXED,
        writes: &["admit_grid.csv", "admit_summary.csv"],
        run: run_admit,
    },
];

/// The flags given to `rtsync study`; `None` keeps the study's default.
#[derive(Default)]
struct StudyArgs {
    smoke: bool,
    runs: Option<usize>,
    systems: Option<usize>,
    instances: Option<u64>,
    seed: Option<u64>,
    threads: Option<usize>,
    out_dir: Option<String>,
    transport: bool,
    telemetry: Option<String>,
    window: Option<i64>,
}

/// What a study hands back to [`cmd_study`]: its size and seed for the
/// one stderr line per study, one body per file of [`Study::writes`], and
/// the failed verdict, if any.
struct Ran(String, Vec<String>, Option<String>);

/// Parses the value of `flag`, naming the flag in the error.
fn parsed<T>(flag: &str, text: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a flag value that must be a positive integer.
fn positive<T>(flag: &str, text: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialOrd,
    T::Err: std::fmt::Display,
{
    let value: T = parsed(flag, text)?;
    if value <= T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(value)
}

/// `rtsync study <name>`: runs one study, prints it, writes its files
/// under `--out`, and fails on a failed verdict.
fn cmd_study(args: &[String]) -> Result<(), String> {
    let study = match args.first() {
        Some(name) => STUDIES
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown study `{name}`\n{}", usage()))?,
        None => return Err(format!("study needs a name\n{}", usage())),
    };
    let mut a = StudyArgs::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !study.flags.contains(&flag) && (flag != "--out" || study.writes.is_empty()) {
            return Err(format!("unknown option `{flag}` for study {}", study.name));
        }
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--smoke" => a.smoke = true,
            "--transport" => a.transport = true,
            "--runs" => a.runs = Some(positive(flag, value()?)?),
            "--systems" => a.systems = Some(positive(flag, value()?)?),
            "--instances" => a.instances = Some(positive(flag, value()?)?),
            "--threads" => a.threads = Some(positive(flag, value()?)?),
            "--window" => a.window = Some(positive(flag, value()?)?),
            "--seed" => a.seed = Some(parsed(flag, value()?)?),
            "--telemetry" => a.telemetry = Some(value()?.clone()),
            "--out" => a.out_dir = Some(value()?.clone()),
            other => unreachable!("study flag {other} has no parser"),
        }
    }
    // Create `--out` first: a bad path fails before the study runs, and
    // chaos may write its telemetry capture and repro bundles there.
    if let Some(dir) = &a.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }
    let started = std::time::Instant::now();
    let Ran(summary, csvs, failure) = (study.run)(&a)?;
    let secs = started.elapsed().as_secs_f64();
    eprintln!("{} study: {summary}, {secs:.1} s", study.name);
    assert_eq!(csvs.len(), study.writes.len(), "one body per file");
    if let Some(dir) = &a.out_dir {
        for (file, body) in study.writes.iter().zip(&csvs) {
            let path = format!("{dir}/{file}");
            std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
        }
        eprintln!("wrote {} to {dir}/", study.writes.join(", "));
    }
    failure.map_or(Ok(()), Err)
}

/// Prints a result grid and returns its CSV.
fn shown(grid: rtsync::experiments::grid::Grid) -> String {
    println!("{grid}");
    grid.to_csv()
}

/// Runs a study over §5.1 systems at its record's size and seed, or the
/// ones given; `study` prints its results and returns its file bodies.
fn sized(
    a: &StudyArgs,
    systems: usize,
    instances: u64,
    seed: u64,
    study: impl FnOnce(&StudyConfig) -> Vec<String>,
) -> Result<Ran, String> {
    let defaults = StudyConfig::default();
    let cfg = StudyConfig {
        systems_per_config: a.systems.unwrap_or(systems),
        instances_per_task: a.instances.unwrap_or(instances),
        seed: a.seed.unwrap_or(seed),
        threads: a.threads.unwrap_or(defaults.threads),
        ..defaults
    };
    let csvs = study(&cfg);
    let summary = format!(
        "{} systems/config, {} instances/task, seed {}",
        cfg.systems_per_config, cfg.instances_per_task, cfg.seed
    );
    Ok(Ran(summary, csvs, None))
}

/// The §5 simulation study: Figures 12–16.
fn run_figures(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::figures::{figure_grid, Figure};
    use rtsync::experiments::ConfigOutcome;
    sized(a, 100, 20, PAPER_SEED, |cfg| {
        let outcomes = rtsync::experiments::run_study(cfg);
        // The paper: "the 90% confidence intervals are negligibly small".
        let max_ci = |f: fn(&ConfigOutcome) -> f64| {
            outcomes
                .iter()
                .map(f)
                .filter(|v| v.is_finite())
                .fold(0.0f64, f64::max)
        };
        println!(
            "90% CI half-widths (max over the grid): PM/DS ±{:.3}, RG/DS ±{:.3}, \
             bound ratio ±{:.3}\n",
            max_ci(|o| o.pm_ds_ci90),
            max_ci(|o| o.rg_ds_ci90),
            max_ci(|o| o.bound_ratio_ci90),
        );
        Figure::ALL
            .iter()
            .map(|&fig| shown(figure_grid(fig, &outcomes)))
            .collect()
    })
}

/// How the ratio estimates move with the simulation horizon, and how
/// hard the analyses work to reach their fixed points.
fn run_convergence(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::convergence;
    sized(a, 20, 20, GRID_SEED, |cfg| {
        let mut rows = Vec::new();
        for (n, u) in [(3usize, 0.6f64), (6, 0.8)] {
            let horizon = convergence::convergence_study(n, u, cfg, &[5, 10, 20, 40, 80]);
            println!("{}", convergence::render(n, u, &horizon));
            let analysis = convergence::analysis_convergence_study(n, u, cfg);
            print!("{}", convergence::render_analysis(&analysis));
            rows.extend(analysis);
        }
        vec![convergence::analysis_convergence_csv(&rows)]
    })
}

/// The nonideal-conditions grid: drift × latency.
fn run_robustness(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::robustness;
    let defaults = RobustnessConfig::default();
    let cfg = RobustnessConfig {
        systems_per_config: a.systems.unwrap_or(20),
        instances_per_task: a.instances.unwrap_or(defaults.instances_per_task),
        seed: a.seed.unwrap_or(GRID_SEED),
        threads: a.threads.unwrap_or(defaults.threads),
        ..defaults
    };
    let cells = robustness::run_robustness(&cfg);
    println!("{}", robustness::render(&cells));
    let mut csvs = vec![robustness::to_csv(&cells)];
    csvs.extend(Protocol::ALL.map(|p| robustness::inflation_matrix_csv(&cells, p)));
    let summary = format!("{} systems/cell, seed {}", cfg.systems_per_config, cfg.seed);
    Ok(Ran(summary, csvs, None))
}

/// The clock-synchronization study, then the robustness grid's PM rows
/// rerun with sync attached.
fn run_sync(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::sync;
    let base = if a.smoke {
        sync::SyncStudyConfig::smoke()
    } else {
        sync::SyncStudyConfig::default()
    };
    let cfg = sync::SyncStudyConfig {
        seed: a.seed.unwrap_or(GRID_SEED),
        threads: a.threads.unwrap_or(base.threads),
        ..base
    };
    let outcome = sync::run_sync_study(&cfg);
    print!("{}", sync::render(&outcome));
    // The PM-synced companion to robustness_inflation_pm.csv: the same
    // drift × latency grid, PM synced at a feasible period (10k ticks: 5%
    // drift accumulates only ~500 ticks of error between rounds, against
    // task periods of 100k–10M ticks).
    let rcfg = RobustnessConfig {
        systems_per_config: cfg.systems_per_config,
        seed: cfg.seed,
        threads: cfg.threads,
        ..RobustnessConfig::default()
    };
    let synced = sync::robustness_pm_synced_csv(&rcfg, 10_000, SyncPolicy::Step);
    print!("PM inflation matrix, synced (period 10000, step policy):\n{synced}");
    let summary = format!("{} runs, seed {}", cfg.total_runs(), cfg.seed);
    let mut csvs = sync::records(&outcome);
    csvs.push(synced);
    Ok(Ran(summary, csvs, None))
}

/// Runs per cell under a full-size `--runs N`: the grid stays, and the N
/// runs spread over its cells, rounding up.
fn runs_per_cell(a: &StudyArgs, total_runs: usize, runs_per_cell: usize) -> usize {
    match a.runs.filter(|_| !a.smoke) {
        Some(total) => total.div_ceil(total_runs / runs_per_cell),
        None => runs_per_cell,
    }
}

/// The chaos campaign: crash faults under every protocol.
fn run_chaos(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::chaos;
    let mut cfg = if a.smoke {
        chaos::ChaosConfig::smoke(a.runs.unwrap_or(25))
    } else {
        chaos::ChaosConfig::default()
    };
    cfg.runs_per_cell = runs_per_cell(a, cfg.total_runs(), cfg.runs_per_cell);
    cfg.transport = a.transport;
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let outcome = chaos::run_chaos(&cfg);
    print!("{}", chaos::render(&outcome));
    if let Some(path) = &a.telemetry {
        let width = a.window.map(Dur::from_ticks);
        match chaos::worst_case_telemetry(&cfg, &outcome, width) {
            Some((v, report)) => {
                std::fs::write(path, report.to_csv())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!(
                    "wrote {path}: worst run replayed under telemetry ({} windows x {} \
                     ticks; {} {:?}, system seed {:#x}, fault seed {:#x}: {} missed, \
                     {} lost, {} crashes)",
                    report.windows.len(),
                    report.width.ticks(),
                    v.protocol.tag(),
                    v.policy,
                    v.system_seed,
                    v.fault_seed,
                    v.instances.missed,
                    v.instances.lost,
                    v.faults.crashes
                );
            }
            None => eprintln!("no chaos runs to capture telemetry from"),
        }
    }
    let dir = a.out_dir.as_deref().unwrap_or(".");
    for (i, failure) in outcome.failures.iter().enumerate() {
        let bundle = chaos::repro_bundle(&cfg, failure);
        for (ext, body) in [
            ("txt", &bundle.summary),
            ("jsonl", &bundle.jsonl),
            ("perfetto.json", &bundle.perfetto_json),
        ] {
            let path = format!("{dir}/chaos_repro_{i}.{ext}");
            std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
        }
        eprint!("{}", bundle.summary);
    }
    let failure = (!outcome.is_clean()).then(|| {
        format!(
            "{} of {} chaos runs violated invariants; repro bundles written to {dir}/",
            outcome.failures.len(),
            outcome.verdicts.len()
        )
    });
    let summary = format!("{} runs, seed {}", cfg.total_runs(), cfg.seed);
    Ok(Ran(summary, chaos::records(&outcome), failure))
}

/// The adversarial-time campaign: lying and colluding clocks under sync.
fn run_adversary(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::adversary;
    let mut cfg = if a.smoke {
        adversary::AdversaryConfig::smoke(a.runs.unwrap_or(24))
    } else {
        adversary::AdversaryConfig::default()
    };
    cfg.runs_per_cell = runs_per_cell(a, cfg.total_runs(), cfg.runs_per_cell);
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let outcome = adversary::run_adversary(&cfg);
    print!("{}", adversary::render(&outcome));
    let failure = (!outcome.is_clean()).then(|| {
        format!(
            "{} of {} adversarial runs violated an armed invariant or stalled",
            outcome.failures().len(),
            outcome.verdicts.len()
        )
    });
    let summary = format!("{} runs, seed {}", cfg.total_runs(), cfg.seed);
    Ok(Ran(summary, adversary::records(&outcome), failure))
}

/// The gray-failure campaign: slowdowns, stalls and degraded links.
fn run_gray(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::gray;
    let mut cfg = if a.smoke {
        gray::GrayStudyConfig::smoke(a.runs.unwrap_or(16))
    } else {
        gray::GrayStudyConfig::default()
    };
    cfg.runs_per_cell = runs_per_cell(a, cfg.total_runs(), cfg.runs_per_cell);
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let outcome = gray::run_gray(&cfg);
    print!("{}", gray::render(&outcome));
    let failure = if !outcome.is_clean() {
        Some(format!(
            "{} of {} gray runs violated a clock-independent safety invariant",
            outcome.failures().len(),
            outcome.verdicts.len()
        ))
    } else {
        (!outcome.adaptive_dominates()).then(|| {
            "the adaptive detector failed to dominate the fixed cliff on false deads \
             in a slowdown-only cell"
                .to_string()
        })
    };
    let summary = format!("{} runs, seed {}", cfg.total_runs(), cfg.seed);
    Ok(Ran(summary, gray::records(&outcome), failure))
}

/// The transport study: the ack/retransmit layer over lossy channels.
fn run_transport(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::transport;
    let mut cfg = if a.smoke {
        transport::TransportStudyConfig::smoke()
    } else {
        transport::TransportStudyConfig::default()
    };
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let outcome = transport::run_transport_study(&cfg);
    print!("{}", transport::render(&outcome));
    let failure = (!outcome.is_clean())
        .then(|| "transport study saw abandoned frames, lost signals, or stalled runs".to_string());
    let summary = format!(
        "{} grid runs + {} detector runs, seed {}",
        cfg.total_grid_runs(),
        cfg.protocols.len() * cfg.detector_runs,
        cfg.seed
    );
    Ok(Ran(summary, transport::records(&outcome), failure))
}

/// The admission study: memoized against from-scratch verdicts.
fn run_admit(a: &StudyArgs) -> Result<Ran, String> {
    use rtsync::experiments::admit;
    let mut cfg = if a.smoke {
        admit::AdmitStudyConfig::smoke()
    } else {
        admit::AdmitStudyConfig::default()
    };
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);
    let outcome = admit::run_admit_study(&cfg);
    print!("{}", admit::render(&outcome));
    let failure = (!outcome.is_clean()).then(|| {
        "memoized and from-scratch admission verdicts disagreed on some operation".to_string()
    });
    let summary = format!("{} runs, seed {}", cfg.total_runs(), cfg.seed);
    Ok(Ran(summary, admit::records(&outcome), failure))
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    use rtsync::bench::compare::{compare, parse_baseline, Tolerances};
    use rtsync::bench::{run_suite_opts, SCENARIOS};
    use rtsync::sim::EngineProfile;
    let mut json = false;
    let mut smoke = false;
    let mut profile = false;
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tol_specs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--profile" => profile = true,
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--compare" => {
                baseline_path = Some(it.next().ok_or("--compare needs a value")?.clone())
            }
            "--tolerance" => tol_specs.push(it.next().ok_or("--tolerance needs a value")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // A global fraction replaces the default; `scenario=FRAC` overrides
    // it per scenario. Apply globals first so order on the command line
    // doesn't matter.
    let parse_frac = |spec: &str, text: &str| -> Result<f64, String> {
        let frac: f64 = text
            .parse()
            .map_err(|e| format!("--tolerance {spec}: {e}"))?;
        if !frac.is_finite() || frac < 0.0 {
            return Err(format!("--tolerance {spec}: must be a fraction >= 0"));
        }
        Ok(frac)
    };
    let mut tol = Tolerances::default();
    for spec in tol_specs.iter().filter(|s| !s.contains('=')) {
        tol = Tolerances::uniform(parse_frac(spec, spec)?);
    }
    for spec in tol_specs.iter().filter(|s| s.contains('=')) {
        let (scenario, frac) = spec.split_once('=').expect("filtered on '='");
        if !SCENARIOS.contains(&scenario) {
            return Err(format!(
                "--tolerance {spec}: unknown scenario `{scenario}` ({})",
                SCENARIOS.join(", ")
            ));
        }
        tol = tol.with_scenario(scenario, parse_frac(spec, frac)?);
    }
    if !tol_specs.is_empty() && baseline_path.is_none() {
        return Err("--tolerance only means something with --compare".to_string());
    }

    eprintln!(
        "bench suite: scenarios {} (every protocol; sa_ds DS only, sa_pm PM only){}",
        SCENARIOS.join(", "),
        if smoke {
            " (smoke: reduced workload, numbers are a crash canary only)"
        } else {
            ""
        }
    );
    let report = run_suite_opts(smoke, profile);

    if json {
        let path = out.unwrap_or_else(|| "BENCH_sim.json".to_string());
        std::fs::write(&path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} cells)", report.results.len());
    } else {
        println!(
            "{:<6}{:<18}{:>14}{:>12}{:>14}{:>14}{:>14}",
            "proto", "scenario", "events/iter", "iters", "events/sec", "best ev/sec", "best ms/run"
        );
        for r in &report.results {
            println!(
                "{:<6}{:<18}{:>14}{:>12}{:>14.0}{:>14.0}{:>14.3}",
                r.protocol,
                r.scenario,
                r.events_per_iter,
                r.iterations,
                r.events_per_sec,
                r.best_events_per_sec,
                r.best_secs_per_run * 1e3
            );
        }
    }
    if profile {
        // One profiled run per cell; merge them per scenario so the
        // table shows where each workload shape spends its time.
        let mut merged: Vec<(String, EngineProfile)> = Vec::new();
        for r in &report.results {
            if let Some(p) = &r.profile {
                match merged.iter_mut().find(|(s, _)| *s == r.scenario) {
                    Some((_, acc)) => acc.merge(p),
                    None => merged.push((r.scenario.to_string(), p.clone())),
                }
            }
        }
        println!("\nengine self-profile (one extra profiled run per cell, merged per scenario):");
        for (scenario, prof) in &merged {
            println!("[{scenario}]");
            print!("{}", prof.render_table());
        }
    }
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let baseline = parse_baseline(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let cmp = compare(&report, &baseline, &tol);
        print!("{}", cmp.render());
        if !cmp.is_clean() {
            return Err(format!(
                "{} cell(s) regressed past tolerance vs {path}",
                cmp.regressions().count()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::STUDIES;
    use std::collections::BTreeSet;

    #[test]
    fn every_study_and_record_has_one_owner() {
        let mut names = BTreeSet::new();
        let mut files = BTreeSet::new();
        for study in &STUDIES {
            assert!(names.insert(study.name), "two studies named {}", study.name);
            for file in study.writes {
                assert!(files.insert(*file), "two studies write {file}");
            }
        }
    }
}
