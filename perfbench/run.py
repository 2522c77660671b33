#!/usr/bin/env python3
"""Builds and runs the rtsync benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

A run builds the `perfbench` binary from the repository's sources (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload in its own
single-threaded process and prints the result object as the last line of
standard output. It also keeps a ledger of each seed's work counts in the
build directory and reports the run as incorrect when a seed's counts
differ from an earlier run's.

`--self-test` runs every workload briefly, plain and with doctored
expectations, and checks that the correctness gate catches the doctored
ones.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure_study", "fault_campaign", "admit_service")
# The repository crates the benchmark builds against.
SOURCES = ("crates/core/Cargo.toml", "crates/sim/Cargo.toml", "crates/workload/Cargo.toml")


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the release binary and returns its path, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # Builds of identical sources in different checkouts stay identical.
    env["CARGO_ENCODED_RUSTFLAGS"] = f"--remap-path-prefix={ROOT}=."
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return target_dir() / "release" / "perfbench"


def run_binary(binary, args):
    """Runs the binary; returns (counts, result) parsed from its output."""
    done = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    counts = json.loads(lines[-2])["counts"]
    return counts, json.loads(lines[-1])


def check_ledger(key, counts):
    """Records a seed's counts; False if an earlier run of the same
    binary recorded others."""
    path = target_dir() / "perfbench" / "counts.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.setdefault(key, counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    if previous != counts:
        print(f"perfbench: work counts of {key} differ from an earlier run:\n"
              f"  before {previous}\n  now    {counts}", file=sys.stderr)
        return False
    return True


def self_test(binary):
    """Doctored digests and oracles must lower ok_share below that of
    the same run undoctored, and mark the run incorrect."""
    doctors = {w: ["digest"] for w in WORKLOADS}
    doctors["figure_study"].append("oracle")
    doctors["admit_service"].append("oracle")
    passed = True
    for workload in WORKLOADS:
        base = None
        for doctor in [None, *doctors[workload]]:
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
            if doctor:
                args += ["--doctor", doctor]
            _, result = run_binary(binary, args)
            share = result["metrics"]["ok_share"]["value"]
            if doctor is None:
                base, good = share, True
            else:
                good = share < base and not result["correct"]
                passed &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload:15} doctor={doctor or '-':7} "
                  f"ok_share={share:.6f} failed={result['failed']}")
    return passed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")

    missing = [s for s in SOURCES if not (ROOT / s).is_file()]
    if missing:
        print(f"perfbench: repository sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return 0 if self_test(binary) else 1

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans", str(target_dir() / "perfbench" / f"spans-{a.workload}.csv")]
    counts, result = run_binary(binary, args)
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    if not check_ledger(f"{build_id}/{a.workload}/{a.seed}/{a.seconds}/{a.trace}", counts):
        result["correct"] = False
    print(json.dumps({"counts": counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
