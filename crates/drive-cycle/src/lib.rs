//! Driving-cycle representation and generation for vehicle
//! energy-management studies.
//!
//! A [`DriveCycle`] is a uniformly sampled vehicle speed trace — the demand
//! side of a backward-looking powertrain simulation. This crate provides:
//!
//! * the [`DriveCycle`] type with interpolation, slicing, resampling and
//!   micro-trip segmentation ([`cycle`]);
//! * a library of standard cycles (UDDS, HWFET, SC03, NYCC, US06, and the
//!   EU OSCAR/MODEM urban cycles) calibrated to published statistics
//!   ([`standard`]);
//! * a seeded stochastic micro-trip generator for training-set diversity
//!   ([`microtrip`]);
//! * summary statistics ([`stats`]).
//!
//! # Examples
//!
//! ```
//! use drive_cycle::{CycleStats, StandardCycle};
//!
//! let udds = StandardCycle::Udds.cycle();
//! let stats = CycleStats::of(&udds);
//! assert!(stats.distance_km > 10.0);
//! assert!(stats.idle_fraction > 0.1); // city cycle: lots of stops
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cycle;
pub mod error;
pub mod io;
pub mod microtrip;
pub mod profile;
pub mod standard;
pub mod stats;

pub use cycle::{CyclePoint, DriveCycle, KMH_TO_MPS, MPS_TO_KMH};
pub use error::CycleError;
pub use microtrip::{MicroTripConfig, MicroTripGenerator};
pub use profile::ProfileBuilder;
pub use standard::{ParseCycleError, StandardCycle};
pub use stats::{CycleStats, IDLE_THRESHOLD_MPS};
