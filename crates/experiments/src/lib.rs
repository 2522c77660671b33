//! # rtsync-experiments
//!
//! The reproduction harness for the evaluation of Sun & Liu (ICDCS 1996):
//!
//! * [`study`], [`figures`], [`grid`] — the §5 simulation study: §5.1
//!   systems per `(N, U)`, analyzed with SA/PM and SA/DS, simulated
//!   under DS, PM and RG, and mapped to Figures 12–16 as `(N, U)` grids;
//! * [`traces`] — the schedule figures (3, 5, 6, 7) on the paper's
//!   running examples;
//! * [`ablation`], [`tightness`], [`convergence`], [`exact`],
//!   [`compare`] — ablations of the paper's design choices, bound
//!   tightness, estimate convergence, exhaustive worst cases of small
//!   systems, and one system's protocols side by side;
//! * [`robustness`] and [`sync`] — clock drift × signal latency, and
//!   whether clock sync makes PM viable again;
//! * [`chaos`], [`adversary`], [`gray`], [`transport`] — the crash,
//!   Byzantine-time and partition, and gray-failure campaigns under the
//!   protocol invariants, and reliable signaling over lossy channels;
//! * [`admit`] — memoized admission verdicts against a from-scratch
//!   oracle;
//! * [`campaign`], [`seeding`], [`table`] — what every study shares: one
//!   thread pool, deterministic in the thread count; one seed mixer; and
//!   one column table that folds runs into grid and summary records.
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
pub mod table;
pub mod tightness;
pub mod traces;
pub mod transport;

pub use admit::{run_admit_study, AdmitOutcome, AdmitStudyConfig, AdmitVerdict};
pub use adversary::{run_adversary, AdversaryConfig, AdversaryOutcome};
pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosOutcome, ReproBundle};
pub use figures::{figure_grid, Figure};
pub use gray::{run_gray, GrayOutcome, GrayStudyConfig, GrayVerdict};
pub use grid::Grid;
pub use robustness::{run_robustness, RobustnessCell, RobustnessConfig};
pub use study::{run_config, run_study, ConfigOutcome, StudyConfig};
pub use sync::{run_sync_study, SyncStudyConfig, SyncStudyOutcome};
pub use traces::TraceFigure;
pub use transport::{run_transport_study, TransportOutcome, TransportStudyConfig};
