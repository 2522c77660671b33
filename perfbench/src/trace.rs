//! Spans recorded around every call the benchmark makes into a layer,
//! kept in memory and written out when the run ends.
//!
//! A workload is generic over [`Tracer`]: the timed pass runs with
//! [`Off`], whose calls compile to nothing, and the traced pass with
//! [`Spans`]. A span's self time is its duration minus the durations of
//! its children (spans nest strictly on the single benchmark thread, so
//! children never overlap).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent or op id of a span that has none.
pub const NONE: u32 = u32::MAX;

pub trait Tracer {
    /// Whether spans are recorded; workloads also gate their extra
    /// profiling runs on it.
    const ON: bool;
    /// Tags the spans opened from now on with an op id.
    fn set_op(&mut self, op: u32);
    fn enter(&mut self, name: &'static str);
    fn exit(&mut self);
}

/// The untraced pass: records nothing.
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;
    #[inline]
    fn set_op(&mut self, _op: u32) {}
    #[inline]
    fn enter(&mut self, _name: &'static str) {}
    #[inline]
    fn exit(&mut self) {}
}

/// Runs `f` inside a span named `name` and returns its result with its
/// wall time in nanoseconds.
#[inline]
pub fn timed<T: Tracer, R>(tr: &mut T, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    tr.enter(name);
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    tr.exit();
    (out, ns)
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Op the span belongs to, or [`NONE`] for set-up.
    pub op: u32,
}

/// The traced pass: every span, in opening order.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: NONE,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per span name: `(calls, self seconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        assert!(self.open.is_empty(), "every span was closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end - s.start - child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as CSV: `name,start_ns,end_ns,parent,op`, with
    /// `-` for a missing parent or op.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,op")?;
        let id = |v: u32| {
            if v == NONE {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name,
                s.start,
                s.end,
                id(s.parent),
                id(s.op)
            )?;
        }
        out.flush()
    }
}

impl Tracer for Spans {
    const ON: bool = true;

    fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
    }

    fn exit(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx as usize].end = end;
    }
}

/// Counters and extra times the workloads collect alongside spans.
/// Counts must repeat exactly between runs of one seed; times are host
/// measurements.
#[derive(Default)]
pub struct Tally {
    pub counts: BTreeMap<&'static str, u64>,
    pub times: BTreeMap<&'static str, f64>,
}

impl Tally {
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn time(&mut self, name: &'static str, secs: f64) {
        *self.times.entry(name).or_default() += secs;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.times.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        s.enter("outer");
        s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.exit();
        let t = s.self_times();
        let (outer_calls, outer_self) = t["outer"];
        let (_, inner_self) = t["inner"];
        assert_eq!(outer_calls, 1);
        assert!(inner_self >= 0.002);
        assert!(outer_self < inner_self);
        assert_eq!(s.spans[1].parent, 0);
    }
}
