//! Windowed sim-time telemetry: a time-series recorder built on the
//! engine's [`Note`]s and end-of-instant [`EngineSample`]s.
//!
//! [`TelemetryObserver`] slices simulated time into fixed-width windows
//! and aggregates, per window: per-processor ready-queue backlog, event
//! queue length, channel traffic broken down by purpose (protocol signals
//! vs sync frames vs heartbeats), the transport's in-flight window and
//! retransmit count, the failure detector's state census, the sync
//! layer's uncertainty bound, and running EER quantiles (each window's
//! EER samples are [merged](crate::histogram::EerHistogram::merge) into a
//! running histogram, so the quantile series shows convergence over the
//! run).
//!
//! The recorder is an ordinary observer: one `match` over the notes in
//! [`Observer::on`] counts traffic, retransmits, completions and fault
//! windows into the open window, and [`Observer::on_sample`] reads the
//! gauges. The engine stays monomorphized, and with telemetry off the
//! `wants_samples` gate keeps the hot path bit-for-bit identical to the
//! unobserved engine (property-tested in `tests/telemetry.rs`). Windows export as CSV ([`TelemetryReport::to_csv`]),
//! JSONL ([`TelemetryReport::to_jsonl`]), Perfetto counter tracks
//! ([`TelemetryReport::chrome_counter_events`]) that load alongside the
//! existing flow-arrow trace, and a self-contained HTML dashboard with
//! inline-SVG sparklines ([`TelemetryReport::to_html`]).

use std::fmt::Write as _;

use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::{Dur, Time};

use crate::event::EventKind;
use crate::histogram::EerHistogram;
use crate::observe::{EngineSample, Note, Observer};

/// One closed telemetry window: aggregates over `[start, end)` sim time.
///
/// Counter fields (`traffic_*`, `retransmits`, `completions`, …) are
/// totals within the window; gauge fields (`peers_*`,
/// `sync_uncertainty`, the EER quantiles) are the value at window close
/// and carry forward through windows with no activity, so every series
/// is defined for every window.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryWindow {
    /// Window ordinal: `start = index · width`.
    pub index: i64,
    /// Inclusive window start.
    pub start: Time,
    /// Exclusive window end.
    pub end: Time,
    /// End-of-instant engine samples taken inside the window (0 for a
    /// window the run skipped over entirely).
    pub samples: u64,
    /// Largest ready-queue backlog seen per processor.
    pub backlog_max: Vec<u64>,
    /// Mean ready-queue backlog per processor over the window's samples.
    pub backlog_mean: Vec<f64>,
    /// Mean event-queue length (pending events) over the window's samples.
    pub queue_len_mean: f64,
    /// Largest event-queue length seen in the window.
    pub queue_len_max: u64,
    /// Largest transport in-flight window (unacked frames).
    pub inflight_max: u64,
    /// Transport frames sent in the window (originals + retransmissions).
    pub transport_sends: u64,
    /// Retransmissions in the window.
    pub retransmits: u64,
    /// Protocol traffic events (signal sends/deliveries, transport
    /// deliveries and acks) dispatched in the window.
    pub traffic_protocol: u64,
    /// Clock-sync frames (requests + responses) dispatched in the window.
    pub traffic_sync: u64,
    /// Heartbeat broadcasts plus per-observer heartbeat deliveries
    /// dispatched in the window.
    pub traffic_heartbeat: u64,
    /// Detector census at window close: pairs believed Alive.
    pub peers_alive: u32,
    /// Pairs believed Degraded at window close (φ-accrual mode only).
    pub peers_degraded: u32,
    /// Pairs believed Suspect at window close.
    pub peers_suspect: u32,
    /// Pairs believed Dead at window close.
    pub peers_dead: u32,
    /// Largest Marzullo uncertainty half-width (ticks) estimated in the
    /// window, carrying the last known bound through quiet windows;
    /// `None` until the first estimate settles.
    pub sync_uncertainty: Option<i64>,
    /// End-to-end task completions in the window (measured + warm-up).
    pub completions: u64,
    /// Running EER p50 (ticks) over all measured completions up to window
    /// close; `None` before the first one. A saturated histogram bucket
    /// reports `i64::MAX` (the histogram's open upper bound).
    pub eer_p50: Option<i64>,
    /// Running EER p95, same convention as `eer_p50`.
    pub eer_p95: Option<i64>,
    /// Running EER p99, same convention as `eer_p50`.
    pub eer_p99: Option<i64>,
    /// Processor crashes in the window.
    pub crashes: u64,
    /// Processor recoveries in the window.
    pub recoveries: u64,
    /// Slowdown windows opened in the window (gray faults).
    pub slowdowns: u64,
    /// Stall windows opened in the window (gray faults).
    pub stalls: u64,
    /// Link-degradation windows opened in the window (gray faults).
    pub link_degrades: u64,
    /// Whether a network partition was open at window close (gauge,
    /// carried through quiet windows like the detector census).
    pub partition_open: bool,
    /// Sync samples corrupted by a lying timeserver persona in the window.
    pub sync_corrupted: u64,
}

/// In-progress aggregation for the currently open window.
#[derive(Debug, Default)]
struct Accum {
    index: i64,
    samples: u64,
    backlog_sum: Vec<u64>,
    backlog_max: Vec<u64>,
    queue_len_sum: u64,
    queue_len_max: u64,
    inflight_max: u64,
    transport_sends: u64,
    retransmits: u64,
    traffic_protocol: u64,
    traffic_sync: u64,
    traffic_heartbeat: u64,
    peers_alive: u32,
    peers_degraded: u32,
    peers_suspect: u32,
    peers_dead: u32,
    saw_census: bool,
    uncertainty_max: Option<i64>,
    completions: u64,
    window_eer: EerHistogram,
    crashes: u64,
    recoveries: u64,
    slowdowns: u64,
    stalls: u64,
    link_degrades: u64,
    sync_corrupted: u64,
}

impl Accum {
    /// Resets for window `index` without releasing buffers: the per-proc
    /// vectors and the window histogram are reused across windows.
    fn reset(&mut self, index: i64, num_procs: usize) {
        self.index = index;
        self.samples = 0;
        self.backlog_sum.clear();
        self.backlog_sum.resize(num_procs, 0);
        self.backlog_max.clear();
        self.backlog_max.resize(num_procs, 0);
        self.queue_len_sum = 0;
        self.queue_len_max = 0;
        self.inflight_max = 0;
        self.transport_sends = 0;
        self.retransmits = 0;
        self.traffic_protocol = 0;
        self.traffic_sync = 0;
        self.traffic_heartbeat = 0;
        self.saw_census = false;
        self.uncertainty_max = None;
        self.completions = 0;
        self.window_eer.clear();
        self.crashes = 0;
        self.recoveries = 0;
        self.slowdowns = 0;
        self.stalls = 0;
        self.link_degrades = 0;
        self.sync_corrupted = 0;
    }
}

/// The windowed time-series recorder. Attach with
/// [`crate::engine::simulate_observed`] (optionally inside a
/// [`crate::observe::Tee`]) and convert to a [`TelemetryReport`] with
/// [`TelemetryObserver::into_report`] once the run ends.
///
/// ```
/// use rtsync_core::examples::example2;
/// use rtsync_core::protocol::Protocol;
/// use rtsync_core::time::Dur;
/// use rtsync_sim::{simulate_observed, SimConfig, TelemetryObserver};
///
/// let mut tel = TelemetryObserver::new(Dur::from_ticks(12));
/// simulate_observed(
///     &example2(),
///     &SimConfig::new(Protocol::ReleaseGuard).with_instances(50),
///     &mut tel,
/// )?;
/// let report = tel.into_report();
/// assert!(report.windows.len() > 1);
/// assert!(report.to_csv().lines().count() > report.windows.len());
/// # Ok::<(), rtsync_sim::SimulateError>(())
/// ```
#[derive(Debug)]
pub struct TelemetryObserver {
    width: i64,
    num_procs: usize,
    protocol: Option<Protocol>,
    /// `None` until the first timed hook opens a window.
    open: bool,
    cur: Accum,
    windows: Vec<TelemetryWindow>,
    running_eer: EerHistogram,
    // Gauges carried into windows that close without fresh values.
    last_alive: u32,
    last_degraded: u32,
    last_suspect: u32,
    last_dead: u32,
    last_uncertainty: Option<i64>,
    /// Current partition state — hooks update it only after `roll`, so at
    /// each flush it is the state at that window's close.
    partition_open: bool,
}

impl TelemetryObserver {
    /// Creates a recorder with the given window width (in sim time).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive.
    pub fn new(width: Dur) -> TelemetryObserver {
        assert!(width > Dur::ZERO, "telemetry window width must be positive");
        TelemetryObserver {
            width: width.ticks(),
            num_procs: 0,
            protocol: None,
            open: false,
            cur: Accum::default(),
            windows: Vec::new(),
            running_eer: EerHistogram::new(),
            last_alive: 0,
            last_degraded: 0,
            last_suspect: 0,
            last_dead: 0,
            last_uncertainty: None,
            partition_open: false,
        }
    }

    /// Closes the open window (if any) and returns the finished report.
    /// Call after the run; [`Note::RunEnd`] performs the final
    /// flush, so no partial window is lost.
    pub fn into_report(mut self) -> TelemetryReport {
        if self.open {
            self.flush();
            self.open = false;
        }
        TelemetryReport {
            width: Dur::from_ticks(self.width),
            num_procs: self.num_procs,
            protocol: self.protocol,
            windows: self.windows,
        }
    }

    /// Ensures the window containing `now` is the open one, flushing the
    /// previous window and emitting carried-gauge rows for any windows
    /// the run skipped entirely (so every series stays dense).
    fn roll(&mut self, now: Time) {
        let idx = now.ticks().div_euclid(self.width);
        if !self.open {
            self.cur.reset(idx, self.num_procs);
            self.open = true;
            return;
        }
        while self.cur.index < idx {
            let prev = self.cur.index;
            self.flush();
            self.cur.reset(prev + 1, self.num_procs);
        }
    }

    /// Closes the current window into a [`TelemetryWindow`] row and
    /// updates the carried gauges.
    fn flush(&mut self) {
        let a = &self.cur;
        let n = a.samples.max(1) as f64;
        let (alive, degraded, suspect, dead) = if a.saw_census {
            (
                a.peers_alive,
                a.peers_degraded,
                a.peers_suspect,
                a.peers_dead,
            )
        } else {
            (
                self.last_alive,
                self.last_degraded,
                self.last_suspect,
                self.last_dead,
            )
        };
        let uncertainty = a.uncertainty_max.or(self.last_uncertainty);
        self.running_eer.merge(&a.window_eer);
        let q = |q: f64| {
            self.running_eer
                .quantile(q)
                .map(|d| if d == Dur::MAX { i64::MAX } else { d.ticks() })
        };
        self.windows.push(TelemetryWindow {
            index: a.index,
            start: Time::from_ticks(a.index * self.width),
            end: Time::from_ticks((a.index + 1) * self.width),
            samples: a.samples,
            backlog_max: a.backlog_max.clone(),
            backlog_mean: a.backlog_sum.iter().map(|&s| s as f64 / n).collect(),
            queue_len_mean: a.queue_len_sum as f64 / n,
            queue_len_max: a.queue_len_max,
            inflight_max: a.inflight_max,
            transport_sends: a.transport_sends,
            retransmits: a.retransmits,
            traffic_protocol: a.traffic_protocol,
            traffic_sync: a.traffic_sync,
            traffic_heartbeat: a.traffic_heartbeat,
            peers_alive: alive,
            peers_degraded: degraded,
            peers_suspect: suspect,
            peers_dead: dead,
            sync_uncertainty: uncertainty,
            completions: a.completions,
            eer_p50: q(0.5),
            eer_p95: q(0.95),
            eer_p99: q(0.99),
            crashes: a.crashes,
            recoveries: a.recoveries,
            slowdowns: a.slowdowns,
            stalls: a.stalls,
            link_degrades: a.link_degrades,
            partition_open: self.partition_open,
            sync_corrupted: a.sync_corrupted,
        });
        self.last_alive = alive;
        self.last_degraded = degraded;
        self.last_suspect = suspect;
        self.last_dead = dead;
        self.last_uncertainty = uncertainty;
    }
}

impl Observer for TelemetryObserver {
    fn on_run_start(&mut self, set: &TaskSet, protocol: Protocol) {
        self.num_procs = set.num_processors();
        self.protocol = Some(protocol);
        self.open = false;
        self.windows.clear();
        self.running_eer.clear();
        self.last_alive = 0;
        self.last_degraded = 0;
        self.last_suspect = 0;
        self.last_dead = 0;
        self.last_uncertainty = None;
        self.partition_open = false;
    }

    #[inline]
    fn wants_samples(&self) -> bool {
        true
    }

    fn on_sample(&mut self, now: Time, sample: &EngineSample<'_>) {
        self.roll(now);
        let a = &mut self.cur;
        a.samples += 1;
        for (p, proc) in sample.procs.iter().enumerate() {
            let backlog = proc.backlog() as u64;
            a.backlog_sum[p] += backlog;
            a.backlog_max[p] = a.backlog_max[p].max(backlog);
        }
        a.queue_len_sum += sample.queue_len as u64;
        a.queue_len_max = a.queue_len_max.max(sample.queue_len as u64);
        a.inflight_max = a.inflight_max.max(sample.transport_in_flight as u64);
        a.peers_alive = sample.peers_alive;
        a.peers_degraded = sample.peers_degraded;
        a.peers_suspect = sample.peers_suspect;
        a.peers_dead = sample.peers_dead;
        a.saw_census = true;
    }

    fn on(&mut self, now: Time, note: Note) {
        if let Note::RunEnd { .. } = note {
            // Make sure the instant of the last event has a window, then
            // let `into_report` close it.
            if self.open || now > Time::ZERO {
                self.roll(now);
            }
            return;
        }
        // Every note falls at or after the run's first event, whose note
        // opens the first window, so rolling on a note that records
        // nothing only closes windows early, never differently.
        self.roll(now);
        let a = &mut self.cur;
        match note {
            Note::Event(kind) => match kind {
                EventKind::SignalSend { .. }
                | EventKind::SignalDeliver { .. }
                | EventKind::TransportDeliver { .. }
                | EventKind::AckDeliver { .. } => a.traffic_protocol += 1,
                EventKind::SyncRequest { .. } | EventKind::SyncResponse { .. } => {
                    a.traffic_sync += 1
                }
                EventKind::HeartbeatSend { .. } => a.traffic_heartbeat += 1,
                // One delivery event per broadcast instant: count the beats.
                EventKind::HeartbeatDeliver { to, .. } => a.traffic_heartbeat += to.len() as u64,
                _ => {}
            },
            Note::TransportSend { retransmit, .. } => {
                a.transport_sends += 1;
                a.retransmits += u64::from(retransmit);
            }
            Note::SyncEstimate { uncertainty, .. } => {
                let u = uncertainty.ticks();
                a.uncertainty_max = Some(a.uncertainty_max.map_or(u, |m| m.max(u)));
            }
            Note::TaskCompletion { eer, measured, .. } => {
                a.completions += 1;
                if measured {
                    a.window_eer.record(eer);
                }
            }
            Note::Crash { .. } => a.crashes += 1,
            Note::Recovery { .. } => a.recoveries += 1,
            Note::Slowdown { factor, .. } => a.slowdowns += u64::from(factor > 1),
            Note::Stall { stalled, .. } => a.stalls += u64::from(stalled),
            Note::LinkDegrade { on, .. } => a.link_degrades += u64::from(on),
            Note::PartitionHeal => self.partition_open = false,
            Note::SyncCorrupted { .. } => a.sync_corrupted += 1,
            _ => {}
        }
    }

    fn on_partition_start(&mut self, now: Time, _island: &[bool]) {
        self.roll(now);
        self.partition_open = true;
    }
}

/// The finished time series of one run: window width, processor count
/// and the closed [`TelemetryWindow`] rows, with exporters for CSV,
/// JSONL, Perfetto counter tracks and a self-contained HTML dashboard.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Window width.
    pub width: Dur,
    /// Processors in the simulated system (fixes the per-proc columns).
    pub num_procs: usize,
    /// Protocol of the run, if a run started.
    pub protocol: Option<Protocol>,
    /// The closed windows, in time order, with no index gaps.
    pub windows: Vec<TelemetryWindow>,
}

/// Formats an `Option<i64>` gauge for CSV: empty cell when unset.
fn opt_cell(v: Option<i64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_default()
}

impl TelemetryReport {
    /// Renders the windows as CSV: one row per window, one column per
    /// series, per-processor columns suffixed `_p<i>`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("window,start,end,samples");
        for p in 0..self.num_procs {
            let _ = write!(out, ",backlog_max_p{p},backlog_mean_p{p}");
        }
        out.push_str(
            ",queue_len_mean,queue_len_max,inflight_max,transport_sends,retransmits,\
             traffic_protocol,traffic_sync,traffic_heartbeat,peers_alive,\
             peers_degraded,peers_suspect,peers_dead,sync_uncertainty,completions,eer_p50,\
             eer_p95,eer_p99,crashes,recoveries,slowdowns,stalls,link_degrades,\
             partition_open,sync_corrupted\n",
        );
        for w in &self.windows {
            let _ = write!(
                out,
                "{},{},{},{}",
                w.index,
                w.start.ticks(),
                w.end.ticks(),
                w.samples
            );
            for p in 0..self.num_procs {
                let _ = write!(out, ",{},{:.3}", w.backlog_max[p], w.backlog_mean[p]);
            }
            let _ = writeln!(
                out,
                ",{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                w.queue_len_mean,
                w.queue_len_max,
                w.inflight_max,
                w.transport_sends,
                w.retransmits,
                w.traffic_protocol,
                w.traffic_sync,
                w.traffic_heartbeat,
                w.peers_alive,
                w.peers_degraded,
                w.peers_suspect,
                w.peers_dead,
                opt_cell(w.sync_uncertainty),
                w.completions,
                opt_cell(w.eer_p50),
                opt_cell(w.eer_p95),
                opt_cell(w.eer_p99),
                w.crashes,
                w.recoveries,
                w.slowdowns,
                w.stalls,
                w.link_degrades,
                w.partition_open as u8,
                w.sync_corrupted,
            );
        }
        out
    }

    /// Renders the windows as JSONL: one JSON object per window.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            let backlog_max: Vec<String> = w.backlog_max.iter().map(u64::to_string).collect();
            let backlog_mean: Vec<String> =
                w.backlog_mean.iter().map(|m| format!("{m:.3}")).collect();
            let opt = |v: Option<i64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = writeln!(
                out,
                "{{\"window\":{},\"start\":{},\"end\":{},\"samples\":{},\
                 \"backlog_max\":[{}],\"backlog_mean\":[{}],\
                 \"queue_len_mean\":{:.3},\"queue_len_max\":{},\
                 \"inflight_max\":{},\"transport_sends\":{},\"retransmits\":{},\
                 \"traffic\":{{\"protocol\":{},\"sync\":{},\"heartbeat\":{}}},\
                 \"peers\":{{\"alive\":{},\"degraded\":{},\"suspect\":{},\"dead\":{}}},\
                 \"sync_uncertainty\":{},\"completions\":{},\
                 \"eer\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\
                 \"crashes\":{},\"recoveries\":{},\
                 \"gray\":{{\"slowdowns\":{},\"stalls\":{},\"link_degrades\":{}}},\
                 \"partition_open\":{},\"sync_corrupted\":{}}}",
                w.index,
                w.start.ticks(),
                w.end.ticks(),
                w.samples,
                backlog_max.join(","),
                backlog_mean.join(","),
                w.queue_len_mean,
                w.queue_len_max,
                w.inflight_max,
                w.transport_sends,
                w.retransmits,
                w.traffic_protocol,
                w.traffic_sync,
                w.traffic_heartbeat,
                w.peers_alive,
                w.peers_degraded,
                w.peers_suspect,
                w.peers_dead,
                opt(w.sync_uncertainty),
                w.completions,
                opt(w.eer_p50),
                opt(w.eer_p95),
                opt(w.eer_p99),
                w.crashes,
                w.recoveries,
                w.slowdowns,
                w.stalls,
                w.link_degrades,
                w.partition_open,
                w.sync_corrupted,
            );
        }
        out
    }

    /// Perfetto/Chrome counter-track events (`"ph":"C"`), one JSON object
    /// per string, timestamped at each window's start in the same raw
    /// sim-tick `ts` domain as
    /// [`crate::observe::EventLogObserver::to_chrome_trace`] — splice
    /// them into that trace's `traceEvents` array and the counter tracks
    /// render above the per-processor swimlanes and flow arrows.
    pub fn chrome_counter_events(&self) -> Vec<String> {
        let mut ev = Vec::new();
        let adversarial = self
            .windows
            .iter()
            .any(|w| w.partition_open || w.sync_corrupted > 0);
        let gray = self
            .windows
            .iter()
            .any(|w| w.slowdowns + w.stalls + w.link_degrades > 0);
        for w in &self.windows {
            let ts = w.start.ticks();
            let backlog: Vec<String> = w
                .backlog_max
                .iter()
                .enumerate()
                .map(|(p, b)| format!("\"p{p}\":{b}"))
                .collect();
            ev.push(format!(
                "{{\"name\":\"backlog\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{{}}}}}",
                backlog.join(",")
            ));
            ev.push(format!(
                "{{\"name\":\"event queue\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"mean\":{:.3},\"max\":{}}}}}",
                w.queue_len_mean, w.queue_len_max
            ));
            ev.push(format!(
                "{{\"name\":\"traffic\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"protocol\":{},\"sync\":{},\"heartbeat\":{}}}}}",
                w.traffic_protocol, w.traffic_sync, w.traffic_heartbeat
            ));
            ev.push(format!(
                "{{\"name\":\"transport\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"in_flight\":{},\"retransmits\":{}}}}}",
                w.inflight_max, w.retransmits
            ));
            ev.push(format!(
                "{{\"name\":\"detector\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"alive\":{},\"degraded\":{},\"suspect\":{},\"dead\":{}}}}}",
                w.peers_alive, w.peers_degraded, w.peers_suspect, w.peers_dead
            ));
            if let Some(u) = w.sync_uncertainty {
                ev.push(format!(
                    "{{\"name\":\"sync uncertainty\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"bound\":{u}}}}}"
                ));
            }
            if adversarial {
                ev.push(format!(
                    "{{\"name\":\"adversary\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"partition_open\":{},\"sync_corrupted\":{}}}}}",
                    w.partition_open as u8, w.sync_corrupted
                ));
            }
            if gray {
                ev.push(format!(
                    "{{\"name\":\"gray faults\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"slowdowns\":{},\"stalls\":{},\"link_degrades\":{}}}}}",
                    w.slowdowns, w.stalls, w.link_degrades
                ));
            }
            if let (Some(p50), Some(p95), Some(p99)) = (w.eer_p50, w.eer_p95, w.eer_p99) {
                ev.push(format!(
                    "{{\"name\":\"eer quantiles\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}}}"
                ));
            }
        }
        ev
    }

    /// The report as named per-window series, for sparkline rendering.
    /// Always includes the backlog (per processor), queue, traffic, EER
    /// and completion series; detector / sync / fault series appear when
    /// their subsystem produced any signal.
    pub fn series(&self) -> Vec<(String, Vec<f64>)> {
        let col = |f: &dyn Fn(&TelemetryWindow) -> f64| -> Vec<f64> {
            self.windows.iter().map(f).collect()
        };
        let mut out: Vec<(String, Vec<f64>)> = Vec::new();
        for p in 0..self.num_procs {
            out.push((
                format!("backlog_max_p{p}"),
                col(&|w| w.backlog_max[p] as f64),
            ));
        }
        out.push(("queue_len_mean".into(), col(&|w| w.queue_len_mean)));
        out.push(("queue_len_max".into(), col(&|w| w.queue_len_max as f64)));
        out.push((
            "traffic_protocol".into(),
            col(&|w| w.traffic_protocol as f64),
        ));
        out.push(("traffic_sync".into(), col(&|w| w.traffic_sync as f64)));
        out.push((
            "traffic_heartbeat".into(),
            col(&|w| w.traffic_heartbeat as f64),
        ));
        out.push(("inflight_max".into(), col(&|w| w.inflight_max as f64)));
        out.push(("retransmits".into(), col(&|w| w.retransmits as f64)));
        out.push(("completions".into(), col(&|w| w.completions as f64)));
        for (name, get) in [
            ("eer_p50", &|w: &TelemetryWindow| w.eer_p50),
            ("eer_p95", &|w: &TelemetryWindow| w.eer_p95),
            ("eer_p99", &|w: &TelemetryWindow| w.eer_p99),
        ] as [(&str, &dyn Fn(&TelemetryWindow) -> Option<i64>); 3]
        {
            out.push((name.to_string(), col(&|w| get(w).map_or(0.0, |v| v as f64))));
        }
        if self
            .windows
            .iter()
            .any(|w| w.peers_alive + w.peers_degraded + w.peers_suspect + w.peers_dead > 0)
        {
            out.push(("peers_alive".into(), col(&|w| w.peers_alive as f64)));
            out.push(("peers_degraded".into(), col(&|w| w.peers_degraded as f64)));
            out.push(("peers_suspect".into(), col(&|w| w.peers_suspect as f64)));
            out.push(("peers_dead".into(), col(&|w| w.peers_dead as f64)));
        }
        if self.windows.iter().any(|w| w.sync_uncertainty.is_some()) {
            out.push((
                "sync_uncertainty".into(),
                col(&|w| w.sync_uncertainty.map_or(0.0, |v| v as f64)),
            ));
        }
        if self.windows.iter().any(|w| w.crashes + w.recoveries > 0) {
            out.push(("crashes".into(), col(&|w| w.crashes as f64)));
            out.push(("recoveries".into(), col(&|w| w.recoveries as f64)));
        }
        if self
            .windows
            .iter()
            .any(|w| w.slowdowns + w.stalls + w.link_degrades > 0)
        {
            out.push(("slowdowns".into(), col(&|w| w.slowdowns as f64)));
            out.push(("stalls".into(), col(&|w| w.stalls as f64)));
            out.push(("link_degrades".into(), col(&|w| w.link_degrades as f64)));
        }
        if self
            .windows
            .iter()
            .any(|w| w.partition_open || w.sync_corrupted > 0)
        {
            out.push((
                "partition_open".into(),
                col(&|w| w.partition_open as u8 as f64),
            ));
            out.push(("sync_corrupted".into(), col(&|w| w.sync_corrupted as f64)));
        }
        out
    }

    /// Renders a self-contained HTML dashboard: one inline-SVG sparkline
    /// per series, no external assets.
    pub fn to_html(&self) -> String {
        let tag = self.protocol.map_or("?", Protocol::tag);
        let subtitle = format!(
            "protocol {tag} · {} windows × {} ticks · {} processors",
            self.windows.len(),
            self.width.ticks(),
            self.num_procs
        );
        render_dashboard("rtsync telemetry", &subtitle, &self.series())
    }
}

/// Renders named series as a self-contained HTML page with one
/// inline-SVG sparkline per series — shared by [`TelemetryReport::to_html`]
/// and the CLI's CSV-replay path.
pub fn render_dashboard(title: &str, subtitle: &str, series: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<style>\n\
         body{font-family:ui-monospace,monospace;background:#111;color:#ddd;margin:2em}\n\
         h1{font-size:1.2em} .sub{color:#888}\n\
         .card{display:inline-block;margin:.5em;padding:.6em;background:#1b1b1b;\
         border:1px solid #333;border-radius:6px;vertical-align:top}\n\
         .name{font-size:.85em;color:#9cf} .stats{font-size:.75em;color:#888}\n\
         polyline{fill:none;stroke:#5af;stroke-width:1.5}\n\
         .zero{stroke:#444;stroke-width:1;stroke-dasharray:2}\n\
         </style></head><body>\n",
    );
    let _ = writeln!(
        out,
        "<h1>{}</h1><div class=\"sub\">{}</div>",
        title, subtitle
    );
    for (name, values) in series {
        out.push_str(&sparkline_card(name, values));
    }
    out.push_str("</body></html>\n");
    out
}

/// One sparkline card: a 240×48 inline SVG polyline over the values,
/// with min/max/last annotations.
fn sparkline_card(name: &str, values: &[f64]) -> String {
    const W: f64 = 240.0;
    const H: f64 = 48.0;
    if values.is_empty() {
        return format!(
            "<div class=\"card\"><div class=\"name\">{name}</div>\
             <div class=\"stats\">(no data)</div></div>\n"
        );
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = if (max - min).abs() < f64::EPSILON {
        1.0
    } else {
        max - min
    };
    let dx = if values.len() > 1 {
        W / (values.len() - 1) as f64
    } else {
        W
    };
    let mut points = String::new();
    for (i, v) in values.iter().enumerate() {
        let x = i as f64 * dx;
        let y = H - 4.0 - (v - min) / span * (H - 8.0);
        let _ = write!(points, "{x:.1},{y:.1} ");
    }
    let last = values[values.len() - 1];
    format!(
        "<div class=\"card\"><div class=\"name\">{name}</div>\
         <svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">\
         <polyline points=\"{points}\"/></svg>\
         <div class=\"stats\">min {min:.2} · max {max:.2} · last {last:.2}</div></div>\n",
        points = points.trim_end()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::examples::example2;
    use rtsync_core::time::Dur;

    use crate::engine::{simulate_observed, SimConfig};

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    /// The end-to-end completion of instance `instance` of task 0.
    fn done(instance: u64, eer: Dur) -> Note {
        Note::TaskCompletion {
            task: rtsync_core::task::TaskId::new(0),
            instance,
            eer,
            measured: true,
        }
    }

    #[test]
    fn windows_are_dense_and_aligned() {
        let mut tel = TelemetryObserver::new(d(10));
        simulate_observed(
            &example2(),
            &SimConfig::new(Protocol::ReleaseGuard).with_instances(30),
            &mut tel,
        )
        .unwrap();
        let report = tel.into_report();
        assert!(report.windows.len() > 2);
        for (i, w) in report.windows.iter().enumerate() {
            assert_eq!(w.index, report.windows[0].index + i as i64, "no gaps");
            assert_eq!(w.start.ticks(), w.index * 10);
            assert_eq!(w.end.ticks(), (w.index + 1) * 10);
        }
        // The run produced work: some window saw samples and completions.
        assert!(report.windows.iter().any(|w| w.samples > 0));
        assert!(report.windows.iter().any(|w| w.completions > 0));
        // Running quantiles are monotone in coverage: once set, never unset.
        let first = report.windows.iter().position(|w| w.eer_p50.is_some());
        let first = first.expect("EERs recorded");
        assert!(report.windows[first..].iter().all(|w| w.eer_p50.is_some()));
    }

    #[test]
    fn empty_windows_carry_gauges_forward() {
        // Drive the hooks directly: activity in window 0, silence through
        // windows 1–3, activity in window 4. The gap rows must exist,
        // count nothing, and carry the census/uncertainty gauges.
        let mut tel = TelemetryObserver::new(d(10));
        tel.on_run_start(&example2(), Protocol::DirectSync);
        tel.on(
            t(5),
            Note::SyncEstimate {
                proc: 0,
                estimate: d(0),
                uncertainty: d(7),
            },
        );
        tel.on(t(5), done(0, d(4)));
        tel.on(t(45), done(1, d(6)));
        tel.on(t(45), Note::RunEnd { events: 2 });
        let report = tel.into_report();
        assert_eq!(report.windows.len(), 5, "windows 0..=4 all present");
        for w in &report.windows[1..4] {
            assert_eq!(w.samples, 0, "empty window {}", w.index);
            assert_eq!(w.completions, 0);
            assert_eq!(w.sync_uncertainty, Some(7), "carried gauge");
            assert_eq!(w.eer_p50, report.windows[0].eer_p50, "running quantile");
        }
        assert_eq!(report.windows[4].completions, 1);
    }

    #[test]
    fn single_sample_window_is_exact() {
        let mut tel = TelemetryObserver::new(d(10));
        tel.on_run_start(&example2(), Protocol::DirectSync);
        tel.on(t(3), done(0, d(12)));
        tel.on(t(3), Note::RunEnd { events: 1 });
        let report = tel.into_report();
        assert_eq!(report.windows.len(), 1);
        let w = &report.windows[0];
        assert_eq!(w.completions, 1);
        // One sample: every quantile is that sample's bucket bound.
        assert_eq!(w.eer_p50, w.eer_p99);
        assert!(w.eer_p50.unwrap() >= 12);
    }

    #[test]
    fn saturated_eer_crossing_a_window_edge_stays_open_ended() {
        // A saturated EER recorded in one window must keep reporting the
        // open upper bound (i64::MAX) in later windows after the merge
        // into the running histogram — the saturation bucket crosses the
        // window boundary intact.
        let mut tel = TelemetryObserver::new(d(10));
        tel.on_run_start(&example2(), Protocol::DirectSync);
        tel.on(t(2), done(0, Dur::MAX));
        tel.on(t(15), done(1, d(3)));
        tel.on(t(15), Note::RunEnd { events: 2 });
        let report = tel.into_report();
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.windows[0].eer_p99, Some(i64::MAX));
        // Window 1's running p99 still covers the saturated sample.
        assert_eq!(report.windows[1].eer_p99, Some(i64::MAX));
        // But the median has resolved to the finite sample.
        assert!(report.windows[1].eer_p50.unwrap() < i64::MAX);
    }

    #[test]
    fn csv_jsonl_and_counters_cover_every_window() {
        let mut tel = TelemetryObserver::new(d(8));
        simulate_observed(
            &example2(),
            &SimConfig::new(Protocol::ModifiedPhaseModification).with_instances(20),
            &mut tel,
        )
        .unwrap();
        let report = tel.into_report();
        let csv = report.to_csv();
        assert_eq!(
            csv.lines().count(),
            report.windows.len() + 1,
            "header + rows"
        );
        assert!(csv.lines().next().unwrap().contains("backlog_max_p0"));
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), report.windows.len());
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        // ≥ 5 counter tracks per window (sync/eer tracks are conditional).
        let counters = report.chrome_counter_events();
        assert!(counters.len() >= report.windows.len() * 5);
        assert!(counters.iter().all(|c| c.contains("\"ph\":\"C\"")));
    }

    #[test]
    fn dashboard_renders_at_least_six_series() {
        let mut tel = TelemetryObserver::new(d(8));
        simulate_observed(
            &example2(),
            &SimConfig::new(Protocol::DirectSync).with_instances(30),
            &mut tel,
        )
        .unwrap();
        let report = tel.into_report();
        assert!(report.series().len() >= 6, "{:?}", report.series().len());
        let html = report.to_html();
        assert!(html.matches("<svg").count() >= 6);
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(html.contains("backlog_max_p0"));
    }
}
