//! # rtsync-experiments
//!
//! The reproduction harness for the evaluation of Sun & Liu (ICDCS 1996):
//!
//! * [`traces`] — the schedule-illustration figures (3, 5, 6, 7) replayed
//!   exactly on the paper's running examples;
//! * [`study`] — the §5 simulation study: synthetic systems per
//!   configuration `(N, U)`, analyzed with SA/PM and SA/DS and simulated
//!   under the DS, PM and RG protocols;
//! * [`figures`] — the mapping from study outcomes to Figures 12–16;
//! * [`robustness`] — the nonideal-conditions grid (clock drift ×
//!   signal latency) measuring the paper's §6 robustness claims;
//! * [`transport`] — the endpoint-transport study: miss/loss ratio and
//!   EER inflation over drop rate × timeout × backoff, plus heartbeat
//!   failure-detector accuracy against a ground-truth crash schedule;
//! * [`sync`] — the clock-synchronization study: PM's EER inflation
//!   over drift × latency × sync-period, the achieved clock error, and
//!   the sync-accuracy threshold at which PM beats MPM/RG again;
//! * [`grid`] — `(N, U)` result grids with CSV/ASCII rendering;
//! * [`campaign`] — the one thread pool every study runs its
//!   `(cell, run)` jobs on, deterministic in the thread count.
//!
//! `rtsync study <name>` drives all of it from one table of studies, each
//! at the configuration that wrote its committed record:
//!
//! ```text
//! rtsync study figures --systems 1000 --out results/
//! rtsync study traces
//! rtsync study robustness --out results/
//! ```
//!
//! ```
//! use rtsync_experiments::study::{run_config, StudyConfig};
//!
//! let cfg = StudyConfig {
//!     systems_per_config: 2,
//!     instances_per_task: 5,
//!     ..StudyConfig::default()
//! };
//! let outcome = run_config(3, 0.6, &cfg);
//! assert_eq!(outcome.systems, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod admit;
pub mod adversary;
pub mod campaign;
pub mod chaos;
pub mod compare;
pub mod convergence;
pub mod exact;
pub mod figures;
pub mod gray;
pub mod grid;
pub mod robustness;
pub mod seeding;
pub mod study;
pub mod sync;
pub mod tightness;
pub mod traces;
pub mod transport;

pub use admit::{run_admit_study, AdmitCell, AdmitOutcome, AdmitStudyConfig, AdmitVerdict};
pub use adversary::{run_adversary, AdversaryCell, AdversaryConfig, AdversaryOutcome};
pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosOutcome, ReproBundle};
pub use figures::{figure_grid, Figure};
pub use gray::{run_gray, GrayCell, GrayOutcome, GrayStudyConfig, GrayVerdict};
pub use grid::Grid;
pub use robustness::{run_robustness, RobustnessCell, RobustnessConfig};
pub use study::{run_config, run_study, ConfigOutcome, StudyConfig};
pub use sync::{run_sync_study, SyncStudyConfig, SyncStudyOutcome};
pub use traces::TraceFigure;
pub use transport::{run_transport_study, TransportOutcome, TransportStudyConfig};
