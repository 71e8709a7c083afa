//! Quasi-static backward-looking parallel-HEV model.
//!
//! This crate implements every powertrain component of §2 of *"Joint
//! Automatic Control of the Powertrain and Auxiliary Systems to Enhance
//! the Electromobility in Hybrid Electric Vehicles"* (DAC 2015):
//!
//! * [`Engine`] — quasi-static ICE with a parametric brake-efficiency map
//!   and wide-open-throttle curve (Eq. 1–2);
//! * [`Motor`] — electric machine in analytically invertible loss-model
//!   form (Eq. 3–4);
//! * [`VehicleBody`] — longitudinal dynamics (Eq. 5–7);
//! * [`Drivetrain`] — gearbox and torque coupling (Eq. 8–10);
//! * [`Battery`] — Rint equivalent circuit with Coulomb counting;
//! * [`AuxiliarySystems`] — HVAC/lighting utility model (§2.1.5);
//! * [`ParallelHev`] — the assembled vehicle with the five operating
//!   modes and a backward-looking [`ParallelHev::step`] that resolves a
//!   controller's `(i, R(k), p_aux)` choice into all dependent variables.
//!
//! # Examples
//!
//! ```
//! use hev_model::{ControlInput, HevParams, ParallelHev};
//!
//! let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
//! let demand = hev.demand(10.0, 0.5, 0.0);
//! let control = ControlInput { battery_current_a: 20.0, gear: 1, p_aux_w: 600.0 };
//! match hev.step(&demand, &control, 1.0) {
//!     Ok(outcome) => println!("{:?}: {:.3} g fuel", outcome.mode, outcome.fuel_g),
//!     Err(reason) => println!("infeasible: {reason}"),
//! }
//! # Ok::<(), hev_model::ParamError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aux;
pub mod battery;
pub mod drivetrain;
pub mod dynamics;
pub mod error;
pub mod ice;
pub mod motor;
pub mod params;
pub mod plan;
pub mod vehicle;

pub use aux::AuxiliarySystems;
pub use battery::Battery;
pub use drivetrain::Drivetrain;
pub use dynamics::{VehicleBody, WheelDemand};
pub use error::{InfeasibleControl, ParamError};
pub use ice::Engine;
pub use motor::Motor;
pub use params::{
    AuxParams, BatteryParams, BodyParams, DrivetrainParams, HevParams, IceParams, MotorParams,
    AIR_DENSITY, FUEL_G_PER_GALLON, FUEL_LHV_J_PER_G, GRAVITY, RPM_TO_RAD_S,
};
pub use plan::ContextTable;
pub use vehicle::{
    ControlInput, CurrentContext, OperatingMode, ParallelHev, StepContext, StepOutcome,
    ICE_ON_MIN_NM, STOP_SPEED_MPS,
};
