//! Engine self-profiling: scoped wall-clock accounting of where engine
//! time goes (setup, offline analysis, queue maintenance, protocol
//! dispatch, channel delivery, transport, detector, sync, end-of-instant
//! flush, observer overhead).
//!
//! The profiler mirrors the observer design: the engine is generic over
//! a [`Profiler`] whose only operation, [`Profiler::switch`], is an
//! empty `#[inline]` default on the zero-sized [`NoopProfiler`] — the
//! unprofiled engine monomorphizes to exactly the code it was before
//! this module existed. [`WallProfiler`] implements `switch` as
//! *exclusive-time* accounting: every moment between construction and
//! [`WallProfiler::finish`] belongs to exactly one [`PerfScope`], so the
//! per-scope durations partition the measured wall time (coverage is
//! ~100% by construction; [`EngineProfile::coverage`] reports it).
//! Steady state allocates nothing: the accumulator is a fixed array.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::event::EventKind;

/// The engine's time-accounting scopes. Each run-loop phase and each
/// event family gets one bucket; see [`PerfScope::of`] for the mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerfScope {
    /// Everything before the first pop except the analysis: engine state
    /// build, fault-schedule resolution, the source and PM pre-pushes,
    /// and the detector and sync seeding.
    Setup,
    /// The SA/PM analysis PM and MPM need before the first event (zero
    /// for DS and RG).
    Analysis,
    /// Event-queue maintenance: popping and stop checks — the loop's
    /// connective tissue between handlers.
    Queue,
    /// Protocol dispatch: releases, completions, MPM timers, guard
    /// expiries — the scheduling decisions themselves.
    Dispatch,
    /// Signal-channel delivery (send and deliver legs).
    Delivery,
    /// Endpoint transport: deliveries, acks, retransmit timers.
    Transport,
    /// Failure detector: heartbeats and suspicion timers.
    Detect,
    /// Clock synchronization: rounds, requests, responses.
    Sync,
    /// Crash and recovery handling.
    Faults,
    /// End-of-instant dispatch flush (the per-instant reschedule).
    Flush,
    /// Observer overhead: hook calls and telemetry sample assembly.
    Observer,
}

impl PerfScope {
    /// Number of scopes (sizes the accumulator arrays).
    pub const COUNT: usize = 11;

    /// Every scope, in display order.
    pub const ALL: [PerfScope; PerfScope::COUNT] = [
        PerfScope::Setup,
        PerfScope::Analysis,
        PerfScope::Queue,
        PerfScope::Dispatch,
        PerfScope::Delivery,
        PerfScope::Transport,
        PerfScope::Detect,
        PerfScope::Sync,
        PerfScope::Faults,
        PerfScope::Flush,
        PerfScope::Observer,
    ];

    /// Stable lowercase label (JSON keys, table rows).
    pub fn label(self) -> &'static str {
        match self {
            PerfScope::Setup => "setup",
            PerfScope::Analysis => "analysis",
            PerfScope::Queue => "queue",
            PerfScope::Dispatch => "dispatch",
            PerfScope::Delivery => "delivery",
            PerfScope::Transport => "transport",
            PerfScope::Detect => "detect",
            PerfScope::Sync => "sync",
            PerfScope::Faults => "faults",
            PerfScope::Flush => "flush",
            PerfScope::Observer => "observer",
        }
    }

    /// The scope that handles `kind` in the engine's dispatch match.
    pub fn of(kind: &EventKind) -> PerfScope {
        match kind {
            EventKind::Crash { .. }
            | EventKind::Recover { .. }
            | EventKind::PartitionStart { .. }
            | EventKind::PartitionHeal { .. }
            | EventKind::SlowStart { .. }
            | EventKind::SlowEnd { .. }
            | EventKind::StallStart { .. }
            | EventKind::StallEnd { .. }
            | EventKind::LinkDegradeStart { .. }
            | EventKind::LinkDegradeEnd { .. } => PerfScope::Faults,
            EventKind::Completion { .. }
            | EventKind::MpmTimer { .. }
            | EventKind::GuardExpiry { .. }
            | EventKind::SourceRelease { .. }
            | EventKind::TimedRelease { .. }
            | EventKind::DegradedRelease { .. } => PerfScope::Dispatch,
            EventKind::SignalSend { .. } | EventKind::SignalDeliver { .. } => PerfScope::Delivery,
            EventKind::TransportDeliver { .. }
            | EventKind::AckDeliver { .. }
            | EventKind::RetransmitTimer { .. } => PerfScope::Transport,
            EventKind::HeartbeatSend { .. }
            | EventKind::HeartbeatDeliver { .. }
            | EventKind::SuspectTimer { .. } => PerfScope::Detect,
            EventKind::SyncRound { .. }
            | EventKind::SyncRequest { .. }
            | EventKind::SyncResponse { .. }
            | EventKind::SyncRetry { .. } => PerfScope::Sync,
        }
    }
}

/// The engine's time-accounting hook. [`NoopProfiler`] keeps the engine
/// unprofiled at zero cost; [`WallProfiler`] measures.
pub trait Profiler {
    /// Attributes the time since the previous switch to the scope that
    /// was current, then makes `to` current.
    #[inline]
    fn switch(&mut self, _to: PerfScope) {}
}

/// The do-nothing profiler: zero-sized, every call inlined away, so the
/// default engine monomorphization carries no accounting at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProfiler;

impl Profiler for NoopProfiler {}

/// Exclusive-time wall-clock profiler. Construct before the run, pass to
/// the engine, call [`WallProfiler::finish`] after.
#[derive(Clone, Debug)]
pub struct WallProfiler {
    started: Instant,
    mark: Instant,
    current: PerfScope,
    acc: [Duration; PerfScope::COUNT],
}

impl WallProfiler {
    /// Starts the clock; time accrues to [`PerfScope::Setup`] until the
    /// first switch (the engine's switch to [`PerfScope::Queue`] right
    /// before its first pop).
    pub fn new() -> WallProfiler {
        let now = Instant::now();
        WallProfiler {
            started: now,
            mark: now,
            current: PerfScope::Setup,
            acc: [Duration::ZERO; PerfScope::COUNT],
        }
    }

    /// Stops the clock, attributing the tail to the current scope, and
    /// returns the finished profile. `events` is the run's event count
    /// (for the throughput line in renderings).
    pub fn finish(mut self, events: u64) -> EngineProfile {
        let now = Instant::now();
        self.acc[self.current as usize] += now - self.mark;
        EngineProfile {
            total: now - self.started,
            scopes: self.acc,
            events,
        }
    }
}

impl Default for WallProfiler {
    fn default() -> WallProfiler {
        WallProfiler::new()
    }
}

impl Profiler for WallProfiler {
    #[inline]
    fn switch(&mut self, to: PerfScope) {
        let now = Instant::now();
        self.acc[self.current as usize] += now - self.mark;
        self.mark = now;
        self.current = to;
    }
}

/// A finished engine profile: total measured wall time and its partition
/// into per-scope exclusive times.
#[derive(Clone, Debug)]
pub struct EngineProfile {
    /// Wall time from profiler construction to finish.
    pub total: Duration,
    /// Exclusive time per scope, indexed by `PerfScope as usize`.
    pub scopes: [Duration; PerfScope::COUNT],
    /// Events the run processed.
    pub events: u64,
}

impl EngineProfile {
    /// Time in `scope`.
    pub fn scope_time(&self, scope: PerfScope) -> Duration {
        self.scopes[scope as usize]
    }

    /// Sum of all per-scope times.
    pub fn accounted(&self) -> Duration {
        self.scopes.iter().sum()
    }

    /// Fraction of `total` the scopes account for — ~1.0 by construction
    /// (exclusive accounting leaves no gaps), reported so regressions in
    /// the instrumentation itself are visible.
    pub fn coverage(&self) -> f64 {
        if self.total.is_zero() {
            return 1.0;
        }
        self.accounted().as_secs_f64() / self.total.as_secs_f64()
    }

    /// Merges another profile into this one (summing a suite of runs):
    /// totals, scopes and event counts all add.
    pub fn merge(&mut self, other: &EngineProfile) {
        self.total += other.total;
        for (a, b) in self.scopes.iter_mut().zip(other.scopes.iter()) {
            *a += *b;
        }
        self.events += other.events;
    }

    /// The profile as a JSON object (hand-rolled, like every serializer
    /// in this workspace): nanosecond integers per scope plus total,
    /// event count and coverage.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"total_ns\":{},\"events\":{},\"coverage\":{:.4},\"scopes\":{{",
            self.total.as_nanos(),
            self.events,
            self.coverage()
        );
        for (i, scope) in PerfScope::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                scope.label(),
                self.scope_time(*scope).as_nanos()
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table: one row per scope with share-of-total,
    /// then totals and throughput.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let total = self.total.as_secs_f64().max(f64::MIN_POSITIVE);
        for scope in PerfScope::ALL {
            let t = self.scope_time(scope);
            let _ = writeln!(
                out,
                "  {:<9} {:>12.3?} {:>6.1}%",
                scope.label(),
                t,
                t.as_secs_f64() / total * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<9} {:>12.3?} (coverage {:.1}%, {} events, {:.0} events/s)",
            "total",
            self.total,
            self.coverage() * 100.0,
            self.events,
            self.events as f64 / total
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn exclusive_accounting_partitions_the_clock() {
        let mut prof = WallProfiler::new();
        sleep(Duration::from_millis(2));
        prof.switch(PerfScope::Dispatch);
        sleep(Duration::from_millis(2));
        prof.switch(PerfScope::Observer);
        let profile = prof.finish(42);
        assert!(profile.scope_time(PerfScope::Setup) >= Duration::from_millis(2));
        assert!(profile.scope_time(PerfScope::Dispatch) >= Duration::from_millis(2));
        assert!(profile.coverage() > 0.99 && profile.coverage() < 1.01);
        assert_eq!(profile.events, 42);
    }

    #[test]
    fn every_event_kind_maps_to_a_scope_and_labels_are_unique() {
        let mut labels: Vec<&str> = PerfScope::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PerfScope::COUNT);
    }

    #[test]
    fn json_names_every_scope() {
        let profile = WallProfiler::new().finish(0);
        let json = profile.to_json();
        for scope in PerfScope::ALL {
            assert!(json.contains(&format!("\"{}\":", scope.label())), "{json}");
        }
        assert!(json.contains("\"total_ns\":"));
    }

    #[test]
    fn profiled_run_accounts_for_at_least_ninety_percent_of_wall_time() {
        use crate::engine::{simulate_profiled, SimConfig};
        use rtsync_core::examples::example2;
        use rtsync_core::protocol::Protocol;

        let cfg = SimConfig::new(Protocol::ReleaseGuard)
            .with_sync(crate::sync::SyncConfig::new(
                rtsync_core::time::Dur::from_ticks(50),
            ))
            .with_instances(200);
        let (outcome, profile) = simulate_profiled(&example2(), &cfg).unwrap();
        assert_eq!(profile.events, outcome.events);
        assert!(profile.total > Duration::ZERO);
        assert!(
            profile.coverage() >= 0.9,
            "scopes cover {:.1}% of wall time",
            profile.coverage() * 100.0
        );
        // The protocol machinery actually ran: dispatch got charged, and
        // so did the setup before the first pop.
        assert!(profile.scope_time(PerfScope::Dispatch) > Duration::ZERO);
        assert!(profile.scope_time(PerfScope::Queue) > Duration::ZERO);
        assert!(profile.scope_time(PerfScope::Setup) > Duration::ZERO);
    }

    #[test]
    fn analysis_scope_holds_the_pm_analysis_only() {
        use rtsync_core::protocol::Protocol::{DirectSync, PhaseModification};
        let analysis = |protocol| {
            let cfg = crate::engine::SimConfig::new(protocol).with_instances(5);
            let example = rtsync_core::examples::example2();
            let (_, profile) = crate::engine::simulate_profiled(&example, &cfg).unwrap();
            profile.scope_time(PerfScope::Analysis)
        };
        assert!(analysis(PhaseModification) > Duration::ZERO);
        assert_eq!(analysis(DirectSync), Duration::ZERO);
    }

    #[test]
    fn merge_adds_totals_scopes_and_events() {
        let mut a = WallProfiler::new().finish(10);
        let b = {
            let mut p = WallProfiler::new();
            sleep(Duration::from_millis(1));
            p.switch(PerfScope::Sync);
            p.finish(5)
        };
        let setup_before = a.scope_time(PerfScope::Setup);
        a.merge(&b);
        assert_eq!(a.events, 15);
        assert!(a.scope_time(PerfScope::Setup) >= setup_before + Duration::from_millis(1));
    }
}
