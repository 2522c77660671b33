//! The observability layer's contract: observers see the truth and change
//! nothing. The no-observer path is bit-for-bit identical to an observed
//! run, the JSONL schema is pinned, the Chrome trace export is
//! structurally valid, and the protocol counters obey the paper's
//! protocol-capability invariants (§3.3).

use rtsync::core::examples::example2;
use rtsync::core::task::TaskId;
use rtsync::core::time::{Dur, Time};
use rtsync::core::Protocol;
use rtsync::sim::event::EventKind;
use rtsync::sim::nonideal::{ChannelModel, ClockModel, NonidealConfig};
use rtsync::sim::{
    simulate, simulate_observed, EventLogObserver, NoopObserver, Observer, ProtocolCounters,
    SimConfig, SimOutcome, SourceModel, Tee,
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

/// Counts `on_event` calls and keeps the event total `on_run_end` reports.
#[derive(Default)]
struct EventHooks {
    events: u64,
    run_end_events: u64,
}

impl Observer for EventHooks {
    fn on_event(&mut self, _now: Time, _kind: &EventKind) {
        self.events += 1;
    }

    fn on_run_end(&mut self, _now: Time, events: u64) {
        self.run_end_events = events;
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
            assert_eq!(hooks.events, baseline.events, "{ctx}: on_event calls");
            assert_eq!(hooks.run_end_events, baseline.events, "{ctx}: on_run_end");
        }
    }
}

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
    let known = [
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
        "violation",
        "run_end",
    ];
    for line in &lines {
        assert!(line.starts_with(r#"{"type":""#), "{line}");
        assert!(line.ends_with('}'), "{line}");
        let ty = &line[r#"{"type":""#.len()..line[9..].find('"').unwrap() + 9];
        assert!(known.contains(&ty), "unknown record type {ty:?}: {line}");
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
