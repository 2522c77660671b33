//! End-to-end tests of the `rtsync` CLI binary: real process invocations
//! over the text format, checking exit codes and output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rtsync() -> Command {
    // Integration tests run from the workspace root; cargo puts the binary
    // next to the test executable's profile directory.
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_rtsync"));
    if !path.exists() {
        path = PathBuf::from("target/debug/rtsync");
    }
    Command::new(path)
}

fn run(args: &[&str]) -> Output {
    rtsync().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn example_check_analyze_simulate_pipeline() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("example2.rts");

    // 1. `example 2` prints the text format.
    let out = run(&["example", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("processors 2"));
    assert!(text.contains("task period=6 phase=4"));
    std::fs::write(&file, &text).unwrap();
    let file = file.to_str().unwrap();

    // 2. `check` validates and reports utilizations.
    let out = run(&["check", file]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 processors, 3 tasks, 4 subtasks"));
    assert!(text.contains("83.33%"));

    // 3. `analyze` under RG proves T2 schedulable; under DS it does not.
    let out = run(&["analyze", file, "--protocol", "rg"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("release guard"));
    let out = run(&["analyze", file, "--protocol", "ds"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("MISS"));

    // 4. `simulate` with a Gantt chart.
    let out = run(&[
        "simulate",
        file,
        "--protocol",
        "rg",
        "--instances",
        "10",
        "--gantt",
        "24",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("RG protocol:"));
    assert!(text.contains("avg EER"));
    assert!(text.contains("P0"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_reports_line_numbers() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.rts");
    std::fs::write(&file, "processors 1\nbogus nonsense\n").unwrap();

    let out = run(&["check", file.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("unknown keyword"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage_successfully() {
    for flag in ["--help", "-h", "help"] {
        let out = run(&[flag]);
        assert!(out.status.success(), "{flag}");
        assert!(stdout(&out).contains("usage"), "{flag}");
        assert!(stdout(&out).contains("compare"), "{flag}");
    }
}

#[test]
fn compare_command_runs() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-cmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&["compare", file.to_str().unwrap(), "--instances", "20"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("protocol comparison"), "{text}");
    assert!(text.contains("DS | PM | MPM | RG"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage"));
}

/// Asserts a malformed invocation exits 1 with an error (never a panic)
/// whose text contains `needle`.
fn fails_with(args: &[&str], needle: &str) {
    let out = run(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?}: {err}");
}

#[test]
fn malformed_study_flags_fail_loudly() {
    fails_with(&["study"], "usage");
    fails_with(&["study", "bogus"], "usage");
    fails_with(&["study", "--smoke"], "unknown study `--smoke`");
    fails_with(&["study", "chaos", "--runs", "0"], "--runs");
    fails_with(&["study", "adversary", "--runs", "0"], "--runs");
    fails_with(&["study", "gray", "--threads", "0"], "--threads");
    fails_with(
        &["study", "chaos", "--smoke", "--threads", "0"],
        "--threads",
    );
    for name in ["transport", "sync", "admit"] {
        fails_with(&["study", name, "--runs", "5"], "--runs");
    }
    // Chaos-only flags stay chaos-only.
    fails_with(&["study", "gray", "--transport"], "--transport");
    // Every study parses its sizes as positive counts and takes only the
    // flags it uses.
    fails_with(&["study", "figures", "--systems", "0"], "--systems");
    fails_with(&["study", "tails", "--instances", "0"], "--instances");
    fails_with(&["study", "robustness", "--threads", "0"], "--threads");
    fails_with(&["study", "traces", "--runs", "5"], "--runs");
    fails_with(&["study", "figures", "--smoke"], "--smoke");
}

#[test]
fn zero_instances_fail_loudly_in_every_subcommand() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let file = file.to_str().unwrap();
    // A run of zero instances has nothing to report: every subcommand that
    // takes the flag rejects it as the studies do, before running anything.
    let cases: [&[&str]; 5] = [
        &["simulate", file, "--protocol", "ds", "--instances", "0"],
        &["trace", file, "--protocol", "rg", "--instances", "0"],
        &["report", file, "--protocol", "pm", "--instances", "0"],
        &["compare", file, "--instances", "0"],
        &["exact", file, "--instances", "0"],
    ];
    for args in cases {
        fails_with(args, "--instances must be positive");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_nonideal_flags_fail_loudly() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-ni-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let file = file.to_str().unwrap();

    // Example 2 has two processors. Every case fails with exit code 1 and
    // an error naming the flag or the time it overflows, never a panic, a
    // wrapped clock or a runaway.
    let cases: [(&[&str], &str); 18] = [
        (&["--transport", "--timeout", "0"], "--timeout"),
        (&["--transport", "--timeout", "-3"], "--timeout"),
        (&["--drop", "2", "--transport"], "--drop"),
        (&["--drop", "-0.5", "--transport"], "--drop"),
        (&["--drop", "NaN", "--transport"], "--drop"),
        (&["--latency", "-5"], "--latency"),
        (&["--drift", "-1"], "--drift"),
        (&["--clock-offset", "-1"], "--clock-offset"),
        (&["--sporadic", "-1"], "--sporadic"),
        (&["--stall", "9:10:5"], "--stall PROC 9"),
        (&["--slow", "9:10:5:4"], "--slow PROC 9"),
        (&["--stall", "0:-1:5"], "--stall"),
        (&["--slow", "1:10:0:4"], "--slow"),
        (
            &["--drift", "1000000"],
            "--drift must stay below 1000000 ppm",
        ),
        (
            &["--drift", "2000000"],
            "--drift must stay below 1000000 ppm",
        ),
        (
            &["--latency", "9223372036854775807"],
            "set by the channel latency",
        ),
        (
            &["--latency", "4611686018427387904"],
            "set by the channel latency",
        ),
        (
            &["--transport", "--timeout", "9223372036854775807"],
            "set by the transport timeout",
        ),
    ];
    for command in ["simulate", "report"] {
        for (flags, needle) in &cases {
            let mut args = vec![command, file, "--protocol", "rg"];
            args.extend_from_slice(flags);
            fails_with(&args, needle);
        }
    }
    fails_with(
        &["trace", file, "--protocol", "rg", "--sporadic", "-1"],
        "--sporadic",
    );
    // Just inside the bounds: the fastest clock a drift bound allows, and
    // a timeout far past the run.
    for flags in [
        &["--drift", "999999"][..],
        &["--transport", "--timeout", "1000000000000000"],
    ] {
        let mut args = vec!["simulate", file, "--protocol", "rg"];
        args.extend_from_slice(flags);
        let out = run(&args);
        assert!(out.status.success(), "{flags:?}: {}", stderr(&out));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn times_that_overflow_the_tick_clock_fail_loudly() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-huge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let example = stdout(&run(&["example", "2"]));
    // Example 2's task periods are 4, 6 and 6; the third has phase 4.
    let write = |name: &str, edits: &[(&str, String)]| {
        let edit = |text: String, (from, to): &(&str, String)| text.replace(from, to);
        let path = dir.join(name);
        std::fs::write(&path, edits.iter().fold(example.clone(), edit)).unwrap();
        path.to_str().unwrap().to_string()
    };
    let period = write(
        "period.rts",
        &[("period=4\n", format!("period={}\n", 1i64 << 62))],
    );
    let phase = write("phase.rts", &[("phase=4", format!("phase={}", i64::MAX))]);
    // `check` and `analyze` accept both files; only the run overflows.
    for file in [&period, &phase] {
        assert!(run(&["check", file]).status.success());
        assert!(run(&["analyze", file]).status.success());
        for protocol in ["pm", "mpm", "rg", "ds"] {
            fails_with(&["simulate", file, "--protocol", protocol], "time overflow");
        }
    }
    fails_with(
        &["simulate", &period, "--protocol", "ds"],
        "set by the task period",
    );
    // Just inside: every period and phase times 2^50, so the horizon of
    // 105 of the longest periods plus one more still fits.
    let inside = write(
        "inside.rts",
        &[
            ("period=4\n", format!("period={}\n", 4i64 << 50)),
            ("period=6", format!("period={}", 6i64 << 50)),
            ("phase=4", format!("phase={}", 4i64 << 50)),
        ],
    );
    for protocol in ["pm", "mpm", "rg", "ds"] {
        let out = run(&["simulate", &inside, "--protocol", protocol]);
        assert!(out.status.success(), "{protocol}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn negative_gantt_and_unknown_tolerance_scenario_fail_loudly() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-gantt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let file = file.to_str().unwrap();
    fails_with(
        &["simulate", file, "--protocol", "rg", "--gantt", "-5"],
        "--gantt -5",
    );
    // Rejected while parsing, before the suite runs, with the scenarios
    // that do exist.
    fails_with(
        &[
            "bench",
            "--compare",
            "BENCH_sim.json",
            "--tolerance",
            "foo=0.1",
        ],
        "--tolerance foo=0.1: unknown scenario `foo` (ideal, nonideal, sync,",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn studies_write_only_under_out() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = rtsync()
        .args(["study", "traces"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("figure 7"), "{}", stdout(&out));
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "{left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_protocol_for_simulate() {
    let out = run(&["example", "1"]);
    let dir = std::env::temp_dir().join(format!("rtsync-cli-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex1.rts");
    std::fs::write(&file, stdout(&out)).unwrap();

    let out = run(&["simulate", file.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("requires --protocol"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sensitivity_reports_scaling_factors() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-sens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&["sensitivity", file.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("critical scaling factor"), "{text}");
    // Example 2 is not provably schedulable as given: all factors < 1.0x.
    assert!(text.contains("0.666x"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exact_search_certifies_example2_bounds() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-exact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&[
        "exact",
        file.to_str().unwrap(),
        "--steps",
        "0",
        "--instances",
        "12",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("worst observed 8 vs analyzed bound 8"),
        "{text}"
    );
    assert!(
        text.contains("worst observed 5 vs analyzed bound 5"),
        "{text}"
    );
    // Every analyzed bound of Example 2 is attained, PM's included.
    let pm = text.split("  PM:\n").nth(1).expect("a PM row");
    assert!(
        pm.contains("T2: worst observed 5 vs analyzed bound 5  (tight)"),
        "{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_csv_export() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    let csv = dir.join("trace.csv");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&[
        "simulate",
        file.to_str().unwrap(),
        "--protocol",
        "ds",
        "--instances",
        "5",
        "--trace-csv",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let content = std::fs::read_to_string(&csv).unwrap();
    assert!(content.starts_with("kind,processor,task,subtask,instance,start,end"));
    assert!(content.contains("\nrun,"), "{content}");
    assert!(content.contains("\ncomplete,"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_smoke_runs_clean_and_writes_csvs() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let out = run(&[
        "study",
        "chaos",
        "--smoke",
        "--runs",
        "12",
        "--seed",
        "3",
        "--threads",
        "4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("chaos campaign"), "{text}");
    assert!(text.contains("0 failing"), "{text}");

    let summary = std::fs::read_to_string(dir.join("chaos_summary.csv")).unwrap();
    assert!(summary.starts_with("protocol,mean_uptime,runs,crashes"));
    // 4 protocols × 3 crash-rate levels.
    assert_eq!(summary.lines().count(), 1 + 12, "{summary}");
    let runs_csv = std::fs::read_to_string(dir.join("chaos_runs.csv")).unwrap();
    assert!(runs_csv.contains("fault_seed"), "{runs_csv}");
    assert!(runs_csv.lines().count() > 12);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sporadic_and_no_rule2_flags_accepted() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-sp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let file = file.to_str().unwrap();

    let out = run(&[
        "simulate",
        file,
        "--protocol",
        "rg",
        "--instances",
        "20",
        "--sporadic",
        "3",
        "--seed",
        "5",
        "--no-rule2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("RG protocol:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_quantiles_never_pass_the_observed_max() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-quantiles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("example2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let out = run(&[
        "simulate",
        file.to_str().unwrap(),
        "--protocol",
        "ds",
        "--instances",
        "200",
        "--latency",
        "97",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // T1's EERs fall in a histogram bucket whose upper bound (107) passes
    // the largest EER observed (104): the table prints the max instead.
    let t1: Vec<&str> = text
        .lines()
        .find(|l| l.starts_with("T1 "))
        .unwrap_or_else(|| panic!("{text}"))
        .split_whitespace()
        .collect();
    // task, done, avg EER, min, p50, p95, p99, max, ...
    assert_eq!(&t1[4..8], ["103", "104", "104", "104"], "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_names_its_stop_and_the_tasks_short_of_the_target() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-stop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("overloaded.rts");
    // T0 keeps the one processor busy, so T1 never runs.
    let text = "processors 1\npriorities explicit\n\n\
                task period=2\n  subtask proc=0 exec=2 prio=0\n\n\
                task period=10\n  subtask proc=0 exec=1 prio=1\n";
    std::fs::write(&file, text).unwrap();
    let file = file.to_str().unwrap();
    let out = run(&["simulate", file, "--protocol", "ds", "--instances", "5"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let first = stdout(&out).lines().next().unwrap_or_default().to_string();
    assert_eq!(
        first,
        "DS protocol: 112 events, ended at t=100 \
         (horizon reached before the instance target: T1 0 done, 0 lost)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_records_keep_their_committed_headers() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-headers-{}", std::process::id()));
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for study in [
        &["chaos", "--runs", "1"][..],
        &["adversary", "--runs", "1"],
        &["gray", "--runs", "1"],
        &["transport"],
        &["sync"],
        &["admit"],
    ] {
        let out_dir = dir.join(study[0]);
        let mut args = vec!["study", "--smoke", "--out", out_dir.to_str().unwrap()];
        args.splice(1..1, study.iter().copied());
        let out = run(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        let written: Vec<_> = std::fs::read_dir(&out_dir).unwrap().collect();
        assert!(!written.is_empty(), "{} wrote nothing", study[0]);
        for entry in written {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap();
            let header = |p: &std::path::Path| {
                let text = std::fs::read_to_string(p).unwrap();
                text.lines().next().unwrap_or_default().to_string()
            };
            assert_eq!(header(&path), header(&results.join(name)), "{name:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reader_that_leaves_early_ends_every_subcommand_quietly() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("example2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let file = file.to_str().unwrap();
    let requests = dir.join("requests.jsonl");
    std::fs::write(
        &requests,
        "{\"op\":\"admit\",\"id\":1,\"period\":10,\"subtasks\":[[0,2]]}\n",
    )
    .unwrap();
    let requests = requests.to_str().unwrap();
    for args in [
        &["help"][..],
        &["example", "2"],
        &["check", file],
        &["analyze", file],
        &["exact", file, "--steps", "0"],
        &["simulate", file, "--protocol", "rg", "--gantt", "24"],
        &["admit", requests, "--processors", "2"],
    ] {
        // Standard output is a pipe whose reader is already closed, so the
        // first write fails with a broken pipe.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = rtsync().args(args).stdout(writer).output().unwrap();
        let err = stderr(&out);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("Broken pipe"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
