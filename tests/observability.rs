//! The observability layer's contract: observers see the truth and change
//! nothing. The no-observer path is bit-for-bit identical to an observed
//! run, the JSONL schema is pinned, the Chrome trace export is
//! structurally valid, and the protocol counters obey the paper's
//! protocol-capability invariants (§3.3).

use rtsync::core::examples::example2;
use rtsync::core::task::TaskId;
use rtsync::core::time::{Dur, Time};
use rtsync::core::Protocol;
use rtsync::sim::nonideal::{ChannelModel, ClockModel, NonidealConfig};
use rtsync::sim::{
    simulate, simulate_observed, CrashWindow, DetectorConfig, EventLogObserver, FaultConfig,
    GrayConfig, LinkDegradeWindow, LinkSchedule, NoopObserver, Note, Observer, PartitionSchedule,
    PartitionWindow, Persona, PhiConfig, ProtocolCounters, SimConfig, SimOutcome, SlowSchedule,
    SlowWindow, SourceModel, StallSchedule, StallWindow, SyncConfig, Tee, TransportConfig,
};

fn nonideal() -> NonidealConfig {
    NonidealConfig::default()
        .with_clocks(ClockModel::Random {
            max_offset: Dur::from_ticks(2),
            max_drift_ppm: 400,
            seed: 11,
        })
        .with_channel(ChannelModel::constant(Dur::from_ticks(1)))
}

/// Field-by-field equality of two outcomes, including every per-task
/// metric accessor ([`rtsync::sim::Metrics`] does not implement
/// `PartialEq`, so the comparison is spelled out).
fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, ctx: &str) {
    assert_eq!(a.events, b.events, "{ctx}: events");
    assert_eq!(a.end_time, b.end_time, "{ctx}: end_time");
    assert_eq!(a.reached_target, b.reached_target, "{ctx}: reached_target");
    assert_eq!(a.violations, b.violations, "{ctx}: violations");
    assert_eq!(a.busy_ticks, b.busy_ticks, "{ctx}: busy_ticks");
    assert_eq!(a.channel_stats, b.channel_stats, "{ctx}: channel_stats");
    assert_eq!(a.trace, b.trace, "{ctx}: trace");
    for i in 0..example2().num_tasks() {
        let (sa, sb) = (
            a.metrics.task(TaskId::new(i)),
            b.metrics.task(TaskId::new(i)),
        );
        assert_eq!(sa.completed(), sb.completed(), "{ctx}: T{i} completed");
        assert_eq!(sa.avg_eer(), sb.avg_eer(), "{ctx}: T{i} avg");
        assert_eq!(sa.min_eer(), sb.min_eer(), "{ctx}: T{i} min");
        assert_eq!(sa.max_eer(), sb.max_eer(), "{ctx}: T{i} max");
        assert_eq!(
            sa.max_output_jitter(),
            sb.max_output_jitter(),
            "{ctx}: T{i} jitter"
        );
        assert_eq!(
            sa.deadline_misses(),
            sb.deadline_misses(),
            "{ctx}: T{i} misses"
        );
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(sa.eer_quantile(q), sb.eer_quantile(q), "{ctx}: T{i} p{q}");
        }
    }
}

/// Counts `Note::Event`s and keeps the event total `Note::RunEnd` reports.
#[derive(Default)]
struct EventHooks {
    events: u64,
    run_end_events: u64,
}

impl Observer for EventHooks {
    fn on(&mut self, _now: Time, note: Note) {
        match note {
            Note::Event(_) => self.events += 1,
            Note::RunEnd { events } => self.run_end_events = events,
            _ => {}
        }
    }
}

#[test]
fn observers_never_perturb_the_simulation() {
    let set = example2();
    for protocol in Protocol::ALL {
        for ideal in [true, false] {
            let mut cfg = SimConfig::new(protocol).with_instances(25).with_trace();
            if !ideal {
                cfg = cfg.with_nonideal(nonideal());
            }
            let ctx = format!("{} ideal={ideal}", protocol.tag());
            let baseline = simulate(&set, &cfg).unwrap();
            let mut noop = NoopObserver;
            let with_noop = simulate_observed(&set, &cfg, &mut noop).unwrap();
            assert_outcomes_identical(&baseline, &with_noop, &ctx);
            let mut counters = ProtocolCounters::default();
            let mut log = EventLogObserver::default();
            let mut hooks = EventHooks::default();
            let mut inner = Tee(&mut log, &mut hooks);
            let observed =
                simulate_observed(&set, &cfg, &mut Tee(&mut counters, &mut inner)).unwrap();
            assert_outcomes_identical(&baseline, &observed, &ctx);
            assert_eq!(hooks.events, baseline.events, "{ctx}: Note::Event count");
            assert_eq!(hooks.run_end_events, baseline.events, "{ctx}: Note::RunEnd");
        }
    }
}

/// The JSONL record types: every `"type"` tag the event log writes.
const RECORD_TYPES: [&str; 21] = [
    "run_start",
    "release",
    "completion",
    "slice",
    "context_switch",
    "preemption",
    "idle_point",
    "guard_block",
    "guard_release",
    "mpm_timer_armed",
    "mpm_timer_fired",
    "sync_interrupt",
    "signal_send",
    "signal_deliver",
    "transport_send",
    "transport_ack",
    "degradation",
    "violation",
    "crash",
    "recovery",
    "run_end",
];

/// Pins the JSONL event schema: field names, field order, and value
/// encodings are a stable export format. Update the golden lines
/// deliberately if the schema ever changes.
#[test]
fn jsonl_schema_golden_snapshot() {
    let set = example2();
    let cfg = SimConfig::new(Protocol::DirectSync).with_instances(2);
    let mut log = EventLogObserver::default();
    simulate_observed(&set, &cfg, &mut log).unwrap();
    let jsonl = log.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    let golden = [
        r#"{"type":"run_start","protocol":"DS","processors":2,"tasks":3}"#,
        r#"{"type":"release","t":0,"proc":0,"job":"T0.0#0"}"#,
        r#"{"type":"release","t":0,"proc":0,"job":"T1.0#0"}"#,
        r#"{"type":"context_switch","t":0,"proc":0,"from":null,"to":"T0.0#0"}"#,
        r#"{"type":"slice","proc":0,"job":"T0.0#0","start":0,"end":2}"#,
        r#"{"type":"completion","t":2,"proc":0,"job":"T0.0#0"}"#,
        r#"{"type":"context_switch","t":2,"proc":0,"from":null,"to":"T1.0#0"}"#,
        r#"{"type":"slice","proc":0,"job":"T1.0#0","start":2,"end":4}"#,
        r#"{"type":"completion","t":4,"proc":0,"job":"T1.0#0"}"#,
        r#"{"type":"sync_interrupt","t":4,"from":0,"to":1,"job":"T1.1#0"}"#,
        r#"{"type":"release","t":4,"proc":1,"job":"T1.1#0"}"#,
        r#"{"type":"idle_point","t":4,"proc":0}"#,
    ];
    for (i, want) in golden.iter().enumerate() {
        assert_eq!(lines[i], *want, "line {i}");
    }
    // Every line is a single-line JSON object with a type tag drawn from
    // the documented vocabulary.
    for line in &lines {
        assert!(line.starts_with(r#"{"type":""#), "{line}");
        assert!(line.ends_with('}'), "{line}");
        let ty = &line[r#"{"type":""#.len()..line[9..].find('"').unwrap() + 9];
        assert!(
            RECORD_TYPES.contains(&ty),
            "unknown record type {ty:?}: {line}"
        );
    }
    assert_eq!(
        lines.last().map(|l| &l[..16]),
        Some(r#"{"type":"run_end"#),
        "log ends with run_end"
    );
}

/// Minimal JSON well-formedness check: braces/brackets balance outside
/// string literals and the document ends exactly when the first top-level
/// value closes.
fn assert_balanced_json(text: &str) {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    let mut closed = false;
    for c in text.trim_end().chars() {
        assert!(!closed, "content after top-level value closed");
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close");
                if depth == 0 {
                    closed = true;
                }
            }
            _ => {}
        }
    }
    assert!(closed && !in_string, "document did not close cleanly");
}

#[test]
fn chrome_trace_is_structurally_valid() {
    let set = example2();
    for (label, cfg) in [
        (
            "ideal",
            SimConfig::new(Protocol::DirectSync).with_instances(10),
        ),
        (
            "nonideal",
            SimConfig::new(Protocol::DirectSync)
                .with_instances(10)
                .with_nonideal(nonideal()),
        ),
    ] {
        let mut log = EventLogObserver::default();
        simulate_observed(&set, &cfg, &mut log).unwrap();
        let trace = log.to_chrome_trace();
        assert_balanced_json(&trace);
        assert!(trace.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));

        let events: Vec<&str> = trace
            .lines()
            .filter(|l| l.starts_with('{') || l.starts_with("{\""))
            .skip(1) // the envelope line
            .collect();
        let mut starts = Vec::new();
        let mut finishes = Vec::new();
        for ev in trace.lines().filter(|l| l.trim_start().starts_with("{\"")) {
            if ev.starts_with("{\"displayTimeUnit") {
                continue;
            }
            // Every event carries the required Chrome trace fields.
            for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
                assert!(ev.contains(field), "missing {field}: {ev}");
            }
            let grab_num = |key: &str| -> i64 {
                let at = ev.find(key).unwrap() + key.len();
                ev[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '-')
                    .collect::<String>()
                    .parse()
                    .unwrap()
            };
            if ev.contains("\"ph\":\"s\"") {
                starts.push((grab_num("\"id\":"), grab_num("\"ts\":")));
            } else if ev.contains("\"ph\":\"f\"") {
                assert!(ev.contains("\"bp\":\"e\""), "flow finish without bp: {ev}");
                finishes.push((grab_num("\"id\":"), grab_num("\"ts\":")));
            } else {
                let ph_at = ev.find("\"ph\":\"").unwrap() + 6;
                let ph = &ev[ph_at..ph_at + 1];
                assert!(matches!(ph, "M" | "X" | "i"), "unexpected phase {ph}: {ev}");
            }
        }
        assert!(!events.is_empty(), "{label}: no events");
        // Flow events pair off: same ids, each finish at or after its start
        // (strictly after when the channel adds latency).
        assert_eq!(starts.len(), finishes.len(), "{label}: unpaired flows");
        assert!(!starts.is_empty(), "{label}: DS run must emit signals");
        for ((sid, sts), (fid, fts)) in starts.iter().zip(&finishes) {
            assert_eq!(sid, fid, "{label}: flow ids pair in order");
            assert!(fts >= sts, "{label}: finish before start");
        }
        if label == "nonideal" {
            assert!(
                starts.iter().zip(&finishes).any(|((_, s), (_, f))| f > s),
                "constant-latency channel must delay some delivery"
            );
        }
    }
}

#[test]
fn pm_never_exercises_guards_or_sync_interrupts() {
    // §3.3: PM needs no synchronization interrupts and RG's guards are
    // RG-only machinery — under PM every guard counter must stay zero.
    let set = example2();
    let mut counters = ProtocolCounters::default();
    simulate_observed(
        &set,
        &SimConfig::new(Protocol::PhaseModification).with_instances(50),
        &mut counters,
    )
    .unwrap();
    assert_eq!(counters.total_guard_blocks(), 0);
    assert_eq!(counters.total_guard_delay(), Dur::ZERO);
    assert_eq!(counters.total_sync_interrupts(), 0);
    for t in counters.tasks() {
        assert_eq!(t.guard_blocks, 0);
        assert_eq!(t.rule1_updates, 0);
        assert_eq!(t.rule2_releases, 0);
        assert_eq!(t.guard_expiry_releases, 0);
        assert_eq!(t.mpm_timer_arms, 0);
        assert_eq!(t.mpm_timer_fires, 0);
    }
}

#[test]
fn ds_sync_interrupts_match_cross_processor_completion_signals() {
    // Every completion of a subtask whose successor lives on another
    // processor raises exactly one synchronization interrupt under DS.
    let set = example2();
    let cfg = SimConfig::new(Protocol::DirectSync)
        .with_instances(40)
        .with_trace();
    let mut counters = ProtocolCounters::default();
    let outcome = simulate_observed(&set, &cfg, &mut counters).unwrap();
    let trace = outcome.trace.as_ref().unwrap();
    let mut expected = 0u64;
    for task in set.tasks() {
        for sub in task.subtasks() {
            let Some(succ) = task.successor_of(sub.id()) else {
                continue;
            };
            if set.subtask(succ).processor() != sub.processor() {
                expected += trace.completions_of(sub.id()).len() as u64;
            }
        }
    }
    assert!(expected > 0, "example 2 has a cross-processor hop");
    assert_eq!(counters.total_sync_interrupts(), expected);
}

#[test]
fn counters_are_deterministic_across_repeated_seeded_runs() {
    let set = example2();
    for protocol in Protocol::ALL {
        let cfg = SimConfig::new(protocol)
            .with_instances(30)
            .with_source(SourceModel::Sporadic {
                max_extra: Dur::from_ticks(3),
                seed: 17,
            })
            .with_nonideal(nonideal());
        let run = || {
            let mut counters = ProtocolCounters::default();
            let mut log = EventLogObserver::default();
            simulate_observed(&set, &cfg, &mut Tee(&mut counters, &mut log)).unwrap();
            (counters, log.to_jsonl())
        };
        let (c1, j1) = run();
        let (c2, j2) = run();
        assert_eq!(c1, c2, "{} counters drifted", protocol.tag());
        assert_eq!(j1, j2, "{} event log drifted", protocol.tag());
    }
}

/// RG on a §5.1 system under random crashes: 1 656 guard blocks, and
/// crashes that cancel deferred releases before their guards fire.
fn crashing_rg_run() -> (rtsync::core::task::TaskSet, SimConfig) {
    let set = rtsync::workload::generate_seeded(
        &rtsync::workload::WorkloadSpec::paper(6, 0.8).with_random_phases(),
        11,
    )
    .unwrap();
    let cfg = SimConfig::new(Protocol::ReleaseGuard)
        .with_instances(30)
        .with_faults(FaultConfig::random(
            Dur::from_ticks(5_000_000),
            Dur::from_ticks(400_000),
            35,
        ));
    (set, cfg)
}

/// [`ProtocolCounters`] that print themselves as each crash and the end
/// of the run are reported, before they see the note.
#[derive(Default)]
struct Snapshots {
    counters: ProtocolCounters,
    texts: Vec<String>,
}

impl Observer for Snapshots {
    fn on_run_start(&mut self, set: &rtsync::core::task::TaskSet, protocol: Protocol) {
        self.counters.on_run_start(set, protocol);
    }

    fn on(&mut self, now: Time, note: Note) {
        if matches!(note, Note::Crash { .. } | Note::RunEnd { .. }) {
            self.texts.push(format!("{:?}", self.counters));
        }
        self.counters.on(now, note);
    }
}

/// The jobs `{:?}` of some counters lists as guard-blocked.
fn blocked_jobs(text: &str) -> usize {
    text[text.find("blocked_at: {").expect("the field prints")..]
        .matches("JobId {")
        .count()
}

/// `{:?}` of the counters of two identical runs prints the same text.
/// Printed as crashes strike, the counters hold several guard-blocked
/// jobs, so an unordered map inside them would print those in a
/// different order each time.
#[test]
fn counters_debug_text_is_identical_across_identical_runs() {
    let (set, cfg) = crashing_rg_run();
    let run = || {
        let mut snapshots = Snapshots::default();
        simulate_observed(&set, &cfg, &mut snapshots).unwrap();
        snapshots.texts.push(format!("{:?}", snapshots.counters));
        snapshots.texts
    };
    let first = run();
    assert!(
        first.iter().any(|text| blocked_jobs(text) >= 2),
        "some crash must find several blocked jobs to order"
    );
    assert_eq!(first, run());
}

/// A crash cancels every guard-deferred release on its node, and no
/// release note follows for those jobs: the counters forget them at the
/// crash. Only the three jobs still deferred when the run stops are left
/// for the run's end, which forgets them too. Before crashes were
/// handled, this run ended with 54 jobs still marked blocked.
#[test]
fn crashes_clear_the_guard_blocks_they_cancel() {
    let (set, cfg) = crashing_rg_run();
    let mut snapshots = Snapshots::default();
    let outcome = simulate_observed(&set, &cfg, &mut snapshots).unwrap();
    assert_eq!(outcome.fault_stats.crashes, 131);
    assert_eq!(snapshots.counters.total_guard_blocks(), 1_656);
    let at_run_end = snapshots.texts.last().expect("the run ends");
    assert_eq!(blocked_jobs(at_run_end), 3, "{at_run_end}");
    assert_eq!(blocked_jobs(&format!("{:?}", snapshots.counters)), 0);
}

#[test]
fn rg_guard_delay_accounting_is_consistent() {
    // Guard-blocked jobs are eventually released by rule 2 or expiry, and
    // the recorded delays are consistent: max ≤ total, and a block with
    // positive delay implies positive total.
    let set = example2();
    let mut counters = ProtocolCounters::default();
    simulate_observed(
        &set,
        &SimConfig::new(Protocol::ReleaseGuard).with_instances(50),
        &mut counters,
    )
    .unwrap();
    assert!(
        counters.total_guard_blocks() > 0,
        "example 2 blocks under RG"
    );
    let mut releases = 0u64;
    for t in counters.tasks() {
        assert!(t.guard_delay_max <= t.guard_delay_total);
        releases += t.rule2_releases + t.guard_expiry_releases;
    }
    assert_eq!(
        releases,
        counters.total_guard_blocks(),
        "every guard block resolves to a rule-2 or expiry release"
    );
}

/// Number of [`Note`] variants; [`note_slot`] maps each to one index.
const NOTE_KINDS: usize = 34;

/// The census slot of a note. The match is exhaustive on purpose: a
/// variant added later does not compile until it has a slot here, and
/// `every_note_reaches_the_exporters` then fails until a run fires it.
fn note_slot(note: &Note) -> usize {
    match note {
        Note::Event(_) => 0,
        Note::Release { .. } => 1,
        Note::Completion { .. } => 2,
        Note::TaskCompletion { .. } => 3,
        Note::Slice { .. } => 4,
        Note::ContextSwitch { .. } => 5,
        Note::Preemption { .. } => 6,
        Note::IdlePoint { .. } => 7,
        Note::GuardBlock { .. } => 8,
        Note::Rule1Update { .. } => 9,
        Note::Rule2Release { .. } => 10,
        Note::GuardExpiryRelease { .. } => 11,
        Note::MpmTimerArmed { .. } => 12,
        Note::MpmTimerFired { .. } => 13,
        Note::SyncInterrupt { .. } => 14,
        Note::SignalSend { .. } => 15,
        Note::SignalDeliver { .. } => 16,
        Note::TransportSend { .. } => 17,
        Note::TransportAck { .. } => 18,
        Note::Heartbeat { .. } => 19,
        Note::PartitionHeal => 20,
        Note::SyncRound { .. } => 21,
        Note::SyncEstimate { .. } => 22,
        Note::SyncCorrection { .. } => 23,
        Note::SyncBracket { .. } => 24,
        Note::SyncCorrupted { .. } => 25,
        Note::Degradation(_) => 26,
        Note::Crash { .. } => 27,
        Note::Recovery { .. } => 28,
        Note::Slowdown { .. } => 29,
        Note::Stall { .. } => 30,
        Note::LinkDegrade { .. } => 31,
        Note::Violation(_) => 32,
        Note::RunEnd { .. } => 33,
    }
}

/// Counts the notes of a run by variant.
struct NoteCensus([u64; NOTE_KINDS]);

impl Observer for NoteCensus {
    fn on(&mut self, _now: Time, note: Note) {
        self.0[note_slot(&note)] += 1;
    }
}

/// Every fault, wire and clock layer at once on example 2: a crash of
/// P0, a cut isolating it, a slowdown of P1, a stall of P0 and a
/// degraded P0 → P1 link, on drifting clocks kept by sync rounds that
/// P1's timeserver lies to. With `transport` the signals ride the acked
/// transport under a φ-accrual detector; without it they cross the
/// plain nonideal channel.
fn composed(protocol: Protocol, transport: bool) -> SimConfig {
    let t = Time::from_ticks;
    let d = Dur::from_ticks;
    let gray = GrayConfig::new()
        .with_slow(SlowSchedule::Explicit(vec![
            Vec::new(),
            vec![SlowWindow {
                at: t(60),
                span: d(40),
                factor: 3,
            }],
        ]))
        .with_stalls(StallSchedule::Explicit(vec![
            vec![StallWindow {
                at: t(150),
                span: d(12),
            }],
            Vec::new(),
        ]))
        .with_links(LinkSchedule::Explicit(vec![LinkDegradeWindow {
            at: t(20),
            span: d(60),
            from: 0,
            to: 1,
            extra_latency: d(3),
            jitter: d(2),
            drop_permille: 300,
        }]));
    let faults = FaultConfig::explicit(vec![
        vec![CrashWindow {
            at: t(100),
            restart_delay: d(30),
        }],
        Vec::new(),
    ])
    .with_partitions(PartitionSchedule::Explicit(vec![PartitionWindow {
        at: t(200),
        heal_delay: d(25),
        island: vec![0],
    }]))
    .with_gray(gray);
    let cfg = SimConfig::new(protocol)
        .with_instances(60)
        .with_nonideal(
            NonidealConfig::default()
                .with_clocks(ClockModel::Random {
                    max_offset: d(4),
                    max_drift_ppm: 5_000,
                    seed: 5,
                })
                .with_channel(ChannelModel::uniform(Dur::ZERO, d(2)).with_seed(9)),
        )
        .with_faults(faults)
        .with_sync(
            SyncConfig::new(d(20))
                .with_personas(vec![Persona::Honest, Persona::FixedLiar { offset: d(30) }]),
        );
    if !transport {
        return cfg;
    }
    cfg.with_transport(
        TransportConfig::new(d(6))
            .with_seed(3)
            .with_detector(DetectorConfig::new(d(5)).with_phi(PhiConfig::new())),
    )
}

/// Every [`Note`] variant fires in some run of every protocol on the
/// composed configuration, and every JSONL record type and Perfetto
/// category the exporters write appears in the logs of those runs.
#[test]
fn every_note_reaches_the_exporters() {
    let set = example2();
    let mut fired = [0u64; NOTE_KINDS];
    let mut record_types = std::collections::BTreeSet::new();
    let mut categories = std::collections::BTreeSet::new();
    for protocol in Protocol::ALL {
        for transport in [true, false] {
            let mut census = NoteCensus([0; NOTE_KINDS]);
            let mut log = EventLogObserver::default();
            let cfg = composed(protocol, transport);
            simulate_observed(&set, &cfg, &mut Tee(&mut census, &mut log)).unwrap();
            for (all, n) in fired.iter_mut().zip(census.0) {
                *all += n;
            }
            for line in log.to_jsonl().lines() {
                let ty = line[r#"{"type":""#.len()..].split('"').next().unwrap();
                record_types.insert(ty.to_string());
            }
            let trace = log.to_chrome_trace();
            for cat in trace.split(r#""cat":""#).skip(1) {
                categories.insert(cat.split('"').next().unwrap().to_string());
            }
        }
    }
    let silent: Vec<usize> = (0..NOTE_KINDS).filter(|&i| fired[i] == 0).collect();
    assert!(silent.is_empty(), "note slots never fired: {silent:?}");
    let want: std::collections::BTreeSet<String> =
        RECORD_TYPES.iter().map(|s| s.to_string()).collect();
    assert_eq!(record_types, want, "JSONL record types");
    let want: std::collections::BTreeSet<String> =
        ["completion", "exec", "fault", "guard", "release", "signal"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    assert_eq!(categories, want, "Perfetto categories");
}

/// What a popped deadline event must cause before the next pop.
#[derive(Clone, Copy, Debug)]
enum Due {
    /// A `Completion` pop: the processor's job completes.
    Completion(usize),
    /// A `SuspectTimer` pop on a live observer: the pair's belief
    /// escalates one step.
    Verdict(usize, usize),
    /// A `GuardExpiry` pop: the guard releases its deferred head.
    GuardRelease(rtsync::core::task::SubtaskId),
}

/// Audits every popped `Completion`, `SuspectTimer` and `GuardExpiry`
/// against its visible effect. A live milestone completes its job (the
/// audited systems hold no critical sections, so no milestone is a
/// priority boundary), a live suspicion deadline on an up observer
/// escalates the pair, and a live guard expiry releases the guard's
/// deferred head. A superseded event — the milestone of a preempted,
/// crashed, stalled or re-rated job, a suspicion deadline a later
/// heartbeat moved, or a guard expiry whose head rule 2 or a crash
/// already took — changes nothing, so it shows up as a pop without its
/// effect.
/// Under the fixed cliff a live deadline also lies at least
/// `suspect_after` past the pair's last heartbeat, which catches a
/// superseded deadline even if the engine acted on it.
#[derive(Default)]
struct DeadlineAudit {
    /// The fixed cliff's `suspect_after`; `None` under φ-accrual.
    min_silence: Option<Dur>,
    down: Vec<bool>,
    /// Last heartbeat per `observer × subject` (time zero before any).
    last_heard: Vec<Time>,
    due: Option<Due>,
    completion_pops: u64,
    suspect_pops: u64,
    guard_pops: u64,
    superseded: Vec<(Time, Due)>,
    /// Everything that moves or clears a deadline: preemptions, crashes,
    /// stall and rate edges, heartbeats.
    supersessions: u64,
}

impl DeadlineAudit {
    fn settle(&mut self, now: Time) {
        if let Some(due) = self.due.take() {
            self.superseded.push((now, due));
        }
    }
}

impl Observer for DeadlineAudit {
    fn on_run_start(&mut self, set: &rtsync::core::task::TaskSet, _protocol: Protocol) {
        assert!(
            set.subtasks().all(|s| s.critical_sections().is_empty()),
            "the audit reads every live milestone as a completion"
        );
        let n = set.num_processors();
        self.down = vec![false; n];
        self.last_heard = vec![Time::ZERO; n * n];
    }

    fn on(&mut self, now: Time, note: Note) {
        use rtsync::sim::event::EventKind;
        use rtsync::sim::Degradation;
        match note {
            Note::Event(kind) => {
                self.settle(now);
                match kind {
                    EventKind::Completion { proc } => {
                        self.completion_pops += 1;
                        self.due = Some(Due::Completion(proc.index()));
                    }
                    EventKind::GuardExpiry { subtask } => {
                        self.guard_pops += 1;
                        self.due = Some(Due::GuardRelease(subtask));
                    }
                    EventKind::SuspectTimer { observer, subject } => {
                        self.suspect_pops += 1;
                        let (o, s) = (observer.index(), subject.index());
                        if !self.down[o] {
                            let due = Due::Verdict(o, s);
                            let silence = now - self.last_heard[o * self.down.len() + s];
                            if self.min_silence.is_some_and(|min| silence < min) {
                                self.superseded.push((now, due));
                            } else {
                                self.due = Some(due);
                            }
                        }
                    }
                    _ => {}
                }
            }
            Note::Completion { proc, .. } => {
                if matches!(self.due, Some(Due::Completion(p)) if p == proc) {
                    self.due = None;
                }
            }
            Note::GuardExpiryRelease { job } => {
                if matches!(self.due, Some(Due::GuardRelease(s)) if s == job.subtask()) {
                    self.due = None;
                }
            }
            Note::Degradation(
                Degradation::PeerDegraded {
                    observer, subject, ..
                }
                | Degradation::PeerSuspect {
                    observer, subject, ..
                }
                | Degradation::PeerDead {
                    observer, subject, ..
                },
            ) => {
                if matches!(self.due, Some(Due::Verdict(o, s)) if (o, s) == (observer, subject)) {
                    self.due = None;
                }
            }
            Note::Crash { proc, .. } => {
                self.down[proc] = true;
                self.supersessions += 1;
            }
            Note::Recovery { proc, .. } => self.down[proc] = false,
            Note::Heartbeat { from, to } => {
                self.last_heard[to * self.down.len() + from] = now;
                self.supersessions += 1;
            }
            Note::Preemption { .. } | Note::Stall { .. } | Note::Slowdown { .. } => {
                self.supersessions += 1
            }
            Note::RunEnd { .. } => self.settle(now),
            _ => {}
        }
    }
}

/// Runs `cfg` under the audit and returns it, failing on any superseded
/// pop.
fn audit(set: &rtsync::core::task::TaskSet, cfg: &SimConfig, ctx: &str) -> DeadlineAudit {
    let detector = cfg.transport.as_ref().and_then(|t| t.detector.as_ref());
    let mut audit = DeadlineAudit {
        min_silence: detector
            .filter(|d| d.phi.is_none())
            .map(|d| d.suspect_after),
        ..DeadlineAudit::default()
    };
    simulate_observed(set, cfg, &mut audit).unwrap();
    assert!(
        audit.superseded.is_empty(),
        "{ctx}: popped {} superseded deadline(s), first {:?}",
        audit.superseded.len(),
        audit.superseded[0]
    );
    assert!(audit.completion_pops > 0, "{ctx}: no milestone fired");
    audit
}

/// The engine never pops a superseded `Completion`, `SuspectTimer` or
/// `GuardExpiry`: each processor's milestone, each detector pair's
/// suspicion deadline and each RG guard's expiry is one slot that every
/// change of plan re-arms or clears. Covered: the
/// eight composed-fault runs of `every_note_reaches_the_exporters`
/// (crash, partition, slowdown, stall, degraded link, lying timeserver,
/// φ detector), and a §5.1 paper system under each protocol, both ideal
/// and under random crashes with the acked transport and the fixed-cliff
/// detector.
#[test]
fn no_superseded_deadline_is_ever_popped() {
    let set = example2();
    let mut composed_suspects = 0;
    for protocol in Protocol::ALL {
        for transport in [true, false] {
            let ctx = format!("composed {} transport={transport}", protocol.tag());
            let run = audit(&set, &composed(protocol, transport), &ctx);
            assert!(run.supersessions > 0, "{ctx}: nothing to supersede");
            if protocol == Protocol::ReleaseGuard {
                assert!(run.guard_pops > 0, "{ctx}: no guard expiry fired");
            }
            composed_suspects += run.suspect_pops;
        }
    }
    assert!(composed_suspects > 0, "the φ detector fired no deadline");

    let paper = rtsync::workload::generate_seeded(
        &rtsync::workload::WorkloadSpec::paper(4, 0.7).with_random_phases(),
        11,
    )
    .unwrap();
    for protocol in Protocol::ALL {
        let ideal = SimConfig::new(protocol).with_instances(20);
        let ctx = format!("§5.1 {}", protocol.tag());
        let run = audit(&paper, &ideal, &ctx);
        assert!(run.supersessions > 0, "no preemption in the §5.1 run");
        if protocol == Protocol::ReleaseGuard {
            assert!(run.guard_pops > 0, "{ctx}: no guard expiry fired");
        }
        let faulted = ideal
            .with_channel(ChannelModel::constant(Dur::from_ticks(1_000)).with_seed(33))
            .with_transport(
                TransportConfig::new(Dur::from_ticks(4_000))
                    .with_seed(34)
                    .with_detector(DetectorConfig::new(Dur::from_ticks(50_000))),
            )
            .with_faults(FaultConfig::random(
                Dur::from_ticks(20_000_000),
                Dur::from_ticks(400_000),
                35,
            ));
        let ctx = format!("§5.1 {} with crashes and detector", protocol.tag());
        let run = audit(&paper, &faulted, &ctx);
        assert!(run.suspect_pops > 0, "{ctx}: no suspicion deadline fired");
        if protocol == Protocol::ReleaseGuard {
            assert!(run.guard_pops > 0, "{ctx}: no guard expiry fired");
        }
    }
}

/// Records every fault-schedule edge the engine pops, as `"time kind"`.
#[derive(Default)]
struct FaultEdgeLog(Vec<String>);

impl Observer for FaultEdgeLog {
    fn on(&mut self, now: Time, note: Note) {
        if let Note::Event(kind) = note {
            if rtsync::sim::PerfScope::of(&kind) == rtsync::sim::PerfScope::Faults {
                let edge = format!("{} {kind:?}", now.ticks());
                self.0.push(edge.replace("ProcessorId", "P"));
            }
        }
    }
}

/// Same-instant fault edges from different streams pop in one fixed
/// order: by kind rank (crash, recover, cut, heal, slow, fast, stall,
/// thaw, link, unlink), then processor or window index. Two processors
/// crash at one tick, slow and stall edges share ticks on different
/// processors, two link windows open together, and the partition opens
/// at the crash instant.
#[test]
fn same_instant_fault_edges_pop_in_stream_order() {
    let (t, d) = (Time::from_ticks, Dur::from_ticks);
    let slow = |factor| SlowWindow {
        at: t(20),
        span: d(10),
        factor,
    };
    let stall = |at| StallWindow {
        at: t(at),
        span: d(5),
    };
    let link = |from, to| LinkDegradeWindow {
        at: t(20),
        span: d(10),
        from,
        to,
        extra_latency: d(1),
        jitter: d(0),
        drop_permille: 0,
    };
    let crash = CrashWindow {
        at: t(40),
        restart_delay: d(5),
    };
    let cut = PartitionWindow {
        at: t(40),
        heal_delay: d(10),
        island: vec![0],
    };
    let gray = GrayConfig::new()
        .with_slow(SlowSchedule::Explicit(vec![vec![slow(2)], vec![slow(3)]]))
        .with_stalls(StallSchedule::Explicit(vec![
            vec![stall(30)],
            vec![stall(20)],
        ]))
        .with_links(LinkSchedule::Explicit(vec![link(1, 0), link(0, 1)]));
    let faults = FaultConfig::explicit(vec![vec![crash], vec![crash]])
        .with_partitions(PartitionSchedule::Explicit(vec![cut]))
        .with_gray(gray);
    let cfg = SimConfig::new(Protocol::ReleaseGuard)
        .with_instances(20)
        .with_faults(faults);
    let mut log = FaultEdgeLog::default();
    simulate_observed(&example2(), &cfg, &mut log).unwrap();
    assert_eq!(
        log.0.join("; "),
        "20 SlowStart { proc: P(0), idx: 0 }; 20 SlowStart { proc: P(1), idx: 0 }; \
         20 StallStart { proc: P(1) }; 20 LinkDegradeStart { idx: 0 }; \
         20 LinkDegradeStart { idx: 1 }; 25 StallEnd { proc: P(1) }; \
         30 SlowEnd { proc: P(0) }; 30 SlowEnd { proc: P(1) }; 30 StallStart { proc: P(0) }; \
         30 LinkDegradeEnd { idx: 0 }; 30 LinkDegradeEnd { idx: 1 }; 35 StallEnd { proc: P(0) }; \
         40 Crash { proc: P(0) }; 40 Crash { proc: P(1) }; 40 PartitionStart { idx: 0 }; \
         45 Recover { proc: P(0) }; 45 Recover { proc: P(1) }; 50 PartitionHeal { idx: 0 }"
    );
}

/// The queue depth of the first end-of-instant sample, and the run.
fn first_queue_len(cfg: &SimConfig) -> (usize, SimOutcome) {
    struct FirstSample(Option<usize>);
    impl Observer for FirstSample {
        fn wants_samples(&self) -> bool {
            true
        }
        fn on_sample(&mut self, _now: Time, sample: &rtsync::sim::EngineSample<'_>) {
            self.0.get_or_insert(sample.queue_len);
        }
    }
    let mut first = FirstSample(None);
    let out = simulate_observed(&example2(), cfg, &mut first).unwrap();
    (first.0.expect("the run took a sample"), out)
}

/// The fault domain queues only its next schedule edge: a thousand crash
/// windows leave the queue as short as one does.
#[test]
fn fault_schedule_length_does_not_grow_the_queue() {
    let windows = |n: i64| {
        let outages = (0..n).map(|k| CrashWindow {
            at: Time::from_ticks(100 + 2 * k),
            restart_delay: Dur::from_ticks(1),
        });
        SimConfig::new(Protocol::DirectSync)
            .with_instances(500)
            .with_faults(FaultConfig::explicit(vec![Vec::new(), outages.collect()]))
    };
    let (one, _) = first_queue_len(&windows(1));
    let (many, out) = first_queue_len(&windows(1_000));
    assert_eq!(out.fault_stats.crashes, 1_000, "every window fired");
    assert_eq!(one, many, "pending events at the first sample");
}
