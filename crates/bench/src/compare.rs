//! The bench regression sentry: compares a freshly measured suite
//! against a committed `BENCH_sim.json` baseline, cell by cell, with
//! noise-aware deltas and per-scenario tolerances.
//!
//! What is judged: **wall time per run** (`best_secs_per_run`) when both
//! sides record it, and best-of-N events per second only against an
//! older baseline that lacks it. Wall time per run is what a user waits
//! for; events per second also moves when a change makes the same run
//! pop fewer events, so a faster engine could read as a regression.
//!
//! Noise handling: both sides compare their **best-of-N** iteration (the
//! one with the minimum wall time), which is far more stable than the
//! mean under scheduler jitter — a cell regresses only when even its best
//! iteration is more than the scenario's tolerance slower than the
//! baseline's best. `rtsync bench --compare` exits nonzero when any cell
//! regresses, which is what CI keys off.

use crate::json::{self, Json};
use crate::BenchReport;

/// Relative tolerances for the sentry: a cell regresses when its speed
/// (runs per second, or events per second for an old baseline) falls
/// below `baseline * (1 - tolerance)`.
#[derive(Clone, Debug)]
pub struct Tolerances {
    /// Fallback tolerance for scenarios without an override.
    pub default_frac: f64,
    /// Per-scenario overrides, e.g. `("faults_transport", 0.25)`.
    pub per_scenario: Vec<(String, f64)>,
}

impl Default for Tolerances {
    /// 15% across the board — generous enough for best-of-5 on a quiet
    /// machine, tight enough to catch a real hot-path regression.
    fn default() -> Tolerances {
        Tolerances {
            default_frac: 0.15,
            per_scenario: Vec::new(),
        }
    }
}

impl Tolerances {
    /// A uniform tolerance.
    pub fn uniform(frac: f64) -> Tolerances {
        Tolerances {
            default_frac: frac,
            per_scenario: Vec::new(),
        }
    }

    /// Adds (or replaces) a per-scenario override.
    pub fn with_scenario(mut self, scenario: &str, frac: f64) -> Tolerances {
        self.per_scenario.retain(|(s, _)| s != scenario);
        self.per_scenario.push((scenario.to_string(), frac));
        self
    }

    /// The tolerance applied to `scenario`.
    pub fn for_scenario(&self, scenario: &str) -> f64 {
        self.per_scenario
            .iter()
            .find(|(s, _)| s == scenario)
            .map_or(self.default_frac, |(_, f)| *f)
    }
}

/// One baseline cell as read from a `BENCH_sim.json`.
#[derive(Clone, Debug)]
pub struct BaselineCell {
    /// Protocol tag (`DS`, `PM`, `MPM`, `RG`).
    pub protocol: String,
    /// Scenario tag.
    pub scenario: String,
    /// Best-of-N throughput; for a v1 baseline (no per-iteration data)
    /// this falls back to the recorded mean.
    pub best_events_per_sec: f64,
    /// Wall seconds of the best run, when the baseline records it.
    pub best_secs_per_run: Option<f64>,
}

/// A parsed baseline file.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// The file's schema tag (`rtsync-bench-v1` or `-v2`).
    pub schema: String,
    /// Whether the baseline itself was a smoke run.
    pub smoke: bool,
    /// The baseline's cells.
    pub cells: Vec<BaselineCell>,
}

/// Reads a baseline out of a `BENCH_sim.json` document (v1 or v2).
///
/// # Errors
///
/// On malformed JSON, an unknown schema, or cells missing their
/// throughput fields.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("baseline has no \"schema\" field")?
        .to_string();
    if !matches!(schema.as_str(), "rtsync-bench-v1" | "rtsync-bench-v2") {
        return Err(format!("unknown baseline schema `{schema}`"));
    }
    let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("baseline has no \"results\" array")?;
    let mut cells = Vec::with_capacity(results.len());
    for (i, cell) in results.iter().enumerate() {
        let field = |key: &str| {
            cell.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("result {i} has no \"{key}\""))
        };
        let best = cell
            .get("best_events_per_sec")
            .or_else(|| cell.get("events_per_sec"))
            .and_then(Json::as_f64)
            .ok_or(format!("result {i} has no throughput field"))?;
        let best_secs_per_run = match cell.get("best_secs_per_run") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("result {i} has a malformed \"best_secs_per_run\""))?,
            ),
        };
        cells.push(BaselineCell {
            protocol: field("protocol")?,
            scenario: field("scenario")?,
            best_events_per_sec: best,
            best_secs_per_run,
        });
    }
    Ok(Baseline {
        schema,
        smoke,
        cells,
    })
}

/// The sentry's verdict on one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Ok,
    /// Faster than the baseline by more than the tolerance.
    Improved,
    /// Slower than the baseline by more than the tolerance — the
    /// exit-nonzero case.
    Regressed,
    /// The baseline has no matching (protocol, scenario) cell; reported
    /// but not failed, so adding a scenario doesn't brick CI.
    NewCell,
}

/// The number a cell was judged on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judged {
    /// Wall seconds of the best run (lower is better).
    SecsPerRun,
    /// Best-of-N events per second (higher is better), against a
    /// baseline that records no wall time per run.
    EventsPerSec,
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Protocol tag.
    pub protocol: String,
    /// Scenario tag.
    pub scenario: String,
    /// What `baseline` and `current` measure.
    pub judged: Judged,
    /// Baseline value (`None` for a new cell).
    pub baseline: Option<f64>,
    /// Freshly measured value.
    pub current: f64,
    /// Relative speed change vs baseline: `baseline / current - 1` for
    /// seconds per run, `current / baseline - 1` for events per second
    /// (positive is faster; 0 for a new cell).
    pub delta_frac: f64,
    /// The tolerance this cell was judged against.
    pub tolerance: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Every cell of the fresh run, in suite order.
    pub rows: Vec<CompareRow>,
    /// Whether the baseline was a smoke run (mismatched smoke-ness makes
    /// absolute numbers incomparable; flagged in the rendering).
    pub baseline_smoke: bool,
    /// Whether the fresh run was a smoke run.
    pub current_smoke: bool,
}

impl Comparison {
    /// Rows that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &CompareRow> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Regressed)
    }

    /// `true` when no cell regressed.
    pub fn is_clean(&self) -> bool {
        self.regressions().next().is_none()
    }

    /// Renders the comparison as an aligned table plus a one-line
    /// summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.baseline_smoke != self.current_smoke {
            let _ = writeln!(
                out,
                "warning: comparing a {} run against a {} baseline — numbers are not comparable",
                if self.current_smoke { "smoke" } else { "full" },
                if self.baseline_smoke { "smoke" } else { "full" },
            );
        }
        let _ = writeln!(
            out,
            "{:<6}{:<18}{:>14}{:>14}{:>9}{:>9}{:>7}  verdict",
            "proto", "scenario", "base", "now", "unit", "speed", "tol"
        );
        for r in &self.rows {
            let (fmt, unit): (fn(f64) -> String, &str) = match r.judged {
                Judged::SecsPerRun => (|v| format!("{:.3}", v * 1e3), "ms/run"),
                Judged::EventsPerSec => (|v| format!("{v:.0}"), "ev/s"),
            };
            let _ = writeln!(
                out,
                "{:<6}{:<18}{:>14}{:>14}{:>9}{:>8.1}%{:>6.0}%  {}",
                r.protocol,
                r.scenario,
                r.baseline.map_or("-".to_string(), fmt),
                fmt(r.current),
                unit,
                r.delta_frac * 100.0,
                r.tolerance * 100.0,
                match r.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::NewCell => "new cell (no baseline)",
                },
            );
        }
        let regressed = self.regressions().count();
        if regressed == 0 {
            let _ = writeln!(out, "sentry: clean ({} cells compared)", self.rows.len());
        } else {
            let _ = writeln!(
                out,
                "sentry: {regressed} of {} cells REGRESSED beyond tolerance",
                self.rows.len()
            );
        }
        out
    }
}

/// Compares a fresh report against a parsed baseline.
pub fn compare(current: &BenchReport, baseline: &Baseline, tol: &Tolerances) -> Comparison {
    let rows = current
        .results
        .iter()
        .map(|r| {
            let tolerance = tol.for_scenario(r.scenario);
            let cell = baseline
                .cells
                .iter()
                .find(|c| c.protocol == r.protocol && c.scenario == r.scenario);
            // Judge wall time per run unless the baseline predates it.
            let (judged, current, base) = match cell {
                Some(BaselineCell {
                    best_secs_per_run: None,
                    best_events_per_sec,
                    ..
                }) => (
                    Judged::EventsPerSec,
                    r.best_events_per_sec,
                    Some(*best_events_per_sec),
                ),
                _ => (
                    Judged::SecsPerRun,
                    r.best_secs_per_run,
                    cell.and_then(|c| c.best_secs_per_run),
                ),
            };
            let (delta_frac, verdict) = match base {
                None => (0.0, Verdict::NewCell),
                Some(b) => {
                    let delta = match judged {
                        Judged::SecsPerRun => b / current.max(f64::MIN_POSITIVE) - 1.0,
                        Judged::EventsPerSec => current / b.max(f64::MIN_POSITIVE) - 1.0,
                    };
                    let verdict = if delta < -tolerance {
                        Verdict::Regressed
                    } else if delta > tolerance {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    };
                    (delta, verdict)
                }
            };
            CompareRow {
                protocol: r.protocol.to_string(),
                scenario: r.scenario.to_string(),
                judged,
                baseline: base,
                current,
                delta_frac,
                tolerance,
                verdict,
            }
        })
        .collect();
    Comparison {
        rows,
        baseline_smoke: baseline.smoke,
        current_smoke: current.smoke,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchReport, BenchResult, Provenance};

    /// A tiny synthetic report — no measuring, just plumbing.
    fn report(best: f64) -> BenchReport {
        BenchReport {
            smoke: true,
            instances: 8,
            provenance: Provenance::collect(),
            results: vec![BenchResult {
                protocol: "DS",
                scenario: "ideal",
                iterations: 2,
                runs_per_iter: 4,
                events_per_iter: 1000,
                elapsed_secs: 2000.0 / best,
                events_per_sec: best,
                iter_secs: vec![1000.0 / best, 1100.0 / best],
                best_events_per_sec: best,
                best_secs_per_run: 250.0 / best,
                profile: None,
            }],
        }
    }

    #[test]
    fn round_trips_through_the_v2_writer() {
        let rep = report(1_000_000.0);
        let base = parse_baseline(&rep.to_json()).unwrap();
        assert_eq!(base.schema, "rtsync-bench-v2");
        assert!(base.smoke);
        assert_eq!(base.cells.len(), 1);
        assert_eq!(base.cells[0].protocol, "DS");
        assert!((base.cells[0].best_events_per_sec - 1_000_000.0).abs() < 1.0);
        assert_eq!(base.cells[0].best_secs_per_run, Some(0.00025));
        let cmp = compare(&rep, &base, &Tolerances::default());
        assert!(cmp.is_clean());
        assert_eq!(cmp.rows[0].verdict, Verdict::Ok);
        assert_eq!(cmp.rows[0].judged, Judged::SecsPerRun);
    }

    #[test]
    fn reads_v1_baselines_via_the_mean_fallback() {
        let v1 = r#"{
          "schema": "rtsync-bench-v1", "smoke": false,
          "results": [
            {"protocol": "DS", "scenario": "ideal", "events_per_sec": 500000}
          ]
        }"#;
        let base = parse_baseline(v1).unwrap();
        assert_eq!(base.cells[0].best_events_per_sec, 500000.0);
        assert_eq!(base.cells[0].best_secs_per_run, None);
    }

    #[test]
    fn wall_time_per_run_decides_when_both_sides_have_it() {
        // The same run now pops fewer events: events/s halves while the
        // run takes a third less time. Judged on wall time, that is an
        // improvement, not a regression.
        let mut rep = report(1_000_000.0);
        let base = parse_baseline(&rep.to_json()).unwrap();
        let r = &mut rep.results[0];
        r.events_per_iter /= 3;
        r.best_events_per_sec /= 2.0;
        r.best_secs_per_run *= 2.0 / 3.0;
        let cmp = compare(&rep, &base, &Tolerances::default());
        assert_eq!(cmp.rows[0].judged, Judged::SecsPerRun);
        assert_eq!(cmp.rows[0].verdict, Verdict::Improved);
        assert!((cmp.rows[0].delta_frac - 0.5).abs() < 1e-9);
        assert!(cmp.render().contains("ms/run"));

        // Against a baseline without wall time per run, events/s decides.
        let mut old = base.clone();
        old.cells[0].best_secs_per_run = None;
        let cmp = compare(&rep, &old, &Tolerances::default());
        assert_eq!(cmp.rows[0].judged, Judged::EventsPerSec);
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn synthetic_regression_trips_the_sentry() {
        // Doctor the baseline to claim a tenth of the measured wall time
        // per run, as CI does: the fresh run must register as a
        // regression at any sane tolerance.
        let rep = report(1_000_000.0);
        let doctored = rep.to_json().replace(
            "\"best_secs_per_run\": 0.000250000",
            "\"best_secs_per_run\": 0.000250000e-1",
        );
        let base = parse_baseline(&doctored).unwrap();
        assert!((base.cells[0].best_secs_per_run.unwrap() - 0.000025).abs() < 1e-12);
        let cmp = compare(&rep, &base, &Tolerances::default());
        assert!(!cmp.is_clean());
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);
        assert!(cmp.render().contains("REGRESSED"));

        // ...and a per-scenario override can wave the same delta through.
        let lax = Tolerances::default().with_scenario("ideal", 0.95);
        assert!(compare(&rep, &base, &lax).is_clean());
    }

    #[test]
    fn improvements_and_new_cells_do_not_fail() {
        let rep = report(1_000_000.0);
        let mut base = parse_baseline(&rep.to_json()).unwrap();
        base.cells[0].best_secs_per_run = Some(0.0025);
        let cmp = compare(&rep, &base, &Tolerances::default());
        assert!(cmp.is_clean());
        assert_eq!(cmp.rows[0].verdict, Verdict::Improved);

        base.cells.clear();
        let cmp = compare(&rep, &base, &Tolerances::default());
        assert!(cmp.is_clean());
        assert_eq!(cmp.rows[0].verdict, Verdict::NewCell);
    }

    #[test]
    fn malformed_baselines_fail_loudly() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"schema\": \"rtsync-bench-v9\", \"results\": []}").is_err());
        assert!(parse_baseline("{\"results\": []}").is_err());
        assert!(parse_baseline(
            "{\"schema\": \"rtsync-bench-v2\", \"results\": [{\"protocol\": \"DS\"}]}"
        )
        .is_err());
        assert!(parse_baseline(
            "{\"schema\": \"rtsync-bench-v2\", \"results\": [{\"protocol\": \"DS\", \"scenario\": \"ideal\", \"best_events_per_sec\": 1, \"best_secs_per_run\": \"fast\"}]}"
        )
        .is_err());
    }
}
