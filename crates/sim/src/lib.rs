//! # rtsync-sim
//!
//! A deterministic discrete-event simulator for distributed real-time task
//! chains under the four synchronization protocols of Sun & Liu (ICDCS
//! 1996): Direct Synchronization, Phase Modification, Modified Phase
//! Modification and Release Guard.
//!
//! The simulator realizes the paper's system model exactly: one preemptive
//! fixed-priority scheduler per processor, zero-cost inter-processor
//! synchronization signals (links are modeled as processors when their cost
//! matters), integer-tick time, and protocol-specific release control.
//! Runs are bit-for-bit reproducible: the event queue is totally ordered by
//! `(time, kind, insertion sequence)` and all randomness is seeded.
//!
//! * [`engine::simulate`] — run a system, get per-task EER statistics
//!   ([`metrics::Metrics`]), an optional full schedule trace
//!   ([`trace::Trace`]) and any protocol violations.
//! * [`source::SourceModel`] — periodic or sporadic (jittered) release of
//!   first subtasks; the latter demonstrates the PM protocol's correctness
//!   caveat.
//!
//! ```
//! use rtsync_core::examples::example2;
//! use rtsync_core::protocol::Protocol;
//! use rtsync_core::task::TaskId;
//! use rtsync_sim::engine::{simulate, SimConfig};
//!
//! let outcome = simulate(
//!     &example2(),
//!     &SimConfig::new(Protocol::ReleaseGuard).with_instances(100),
//! )?;
//! let t3 = outcome.metrics.task(TaskId::new(2));
//! assert_eq!(t3.deadline_misses(), 0);
//! # Ok::<(), rtsync_sim::engine::SimulateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;

pub mod check;
pub mod detect;
pub mod engine;
pub mod event;
pub mod faults;
pub mod histogram;
pub mod job;
pub mod metrics;
pub mod nonideal;
pub mod observe;
pub mod perf;
pub mod priority_profile;
pub mod processor;
pub mod reference;
pub mod source;
pub mod sync;
pub mod telemetry;
pub mod trace;
pub mod transport;
mod wire;

pub use check::{InvariantKind, InvariantObserver, InvariantViolation};
pub use detect::{
    Degradation, DegradationEvent, DetectStats, DetectorConfig, PeerState, PhiConfig,
};
pub use engine::{
    simulate, simulate_observed, simulate_profiled, SimConfig, SimOutcome, SimulateError,
    Violation, ViolationKind,
};
pub use faults::{
    CrashSchedule, CrashWindow, FaultConfig, FaultStats, GrayConfig, LinkDegradeWindow,
    LinkSchedule, OverloadPolicy, PartitionSchedule, PartitionWindow, SlowSchedule, SlowWindow,
    StallSchedule, StallWindow,
};
pub use job::JobId;
pub use metrics::{Metrics, TaskStats};
pub use nonideal::{ChannelModel, ClockModel, LinkAsymmetry, LocalClock, NonidealConfig};
pub use observe::{
    EngineSample, EventLogObserver, NoopObserver, Note, Observer, ProcCounters, ProtocolCounters,
    TaskCounters, Tee,
};
pub use perf::{EngineProfile, PerfScope};
pub use source::SourceModel;
pub use sync::{Persona, SyncConfig, SyncPolicy, SyncStats};
pub use telemetry::{render_dashboard, TelemetryObserver, TelemetryReport, TelemetryWindow};
pub use trace::{Segment, Trace};
pub use transport::{TransportConfig, TransportStats};
