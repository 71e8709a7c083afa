//! Experiment harness for the DAC'15 joint HEV control reproduction.
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! evaluation (§5); [`ablations`] sweeps the design choices DESIGN.md
//! calls out; [`robustness`] sweeps fault severity and [`profile`]
//! attributes the full stack's cost to spans. The `repro` binary
//! pretty-prints them. Wall-clock performance is measured by the
//! separate `perfbench/` harness, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod experiments;
pub mod profile;
pub mod robustness;

pub use ablations::AblationRow;
pub use experiments::{ExperimentConfig, Fig2Row, Fig3Row, Table1Row, Table2Row};
pub use profile::{run_profile, ProfileResult};
pub use robustness::RobustnessRow;
