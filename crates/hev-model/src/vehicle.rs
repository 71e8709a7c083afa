//! The assembled parallel HEV and its backward-looking step function.
//!
//! [`ParallelHev`] couples the engine, electric machine, battery,
//! drivetrain, chassis, and auxiliary systems of §2 of the paper. A
//! controller chooses the battery current `i`, the gear `R(k)`, and the
//! auxiliary power `p_aux` (§2.2); all remaining quantities (engine and
//! machine torques/speeds, fuel rate) are *dependent* variables the model
//! resolves.
//!
//! # Control semantics
//!
//! * **Propelling, engine on** — the commanded current fixes the battery
//!   power; the electric machine converts `P_batt − p_aux`; the engine
//!   supplies the remaining shaft torque exactly.
//! * **Propelling, engine off (EV)** — if the implied engine torque falls
//!   below [`ICE_ON_MIN_NM`] (i.e. the electric path covers the demand),
//!   the engine disengages and the *battery current follows the demand*;
//!   the commanded current is an upper bound on discharge and the realized
//!   current is reported in the outcome.
//! * **Braking** — fuel is cut; the commanded current is a regeneration
//!   *intent*, clamped to what the braking demand and machine envelope
//!   admit; friction brakes absorb the remainder and the realized current
//!   is reported in the outcome.
//! * **Stopped** — the engine is off (automatic stop-start) and the
//!   battery powers the auxiliary load regardless of the commanded
//!   current.
//!
//! Any action that cannot be realized (torque/speed/current/window limits)
//! returns an [`InfeasibleControl`]; controllers use
//! [`ParallelHev::peek`] as an action mask.

use crate::aux::AuxiliarySystems;
use crate::battery::Battery;
use crate::drivetrain::Drivetrain;
use crate::dynamics::{VehicleBody, WheelDemand};
use crate::error::{InfeasibleControl, ParamError};
use crate::ice::Engine;
use crate::motor::Motor;
use crate::params::HevParams;
use serde::{Deserialize, Serialize};

/// Engine torque below which the engine shuts off and the step is
/// realized in EV mode, N·m.
pub const ICE_ON_MIN_NM: f64 = 1.0;
/// Vehicle speed below which the vehicle counts as stopped, m/s.
pub const STOP_SPEED_MPS: f64 = 0.05;
/// Torque tolerance used for mode classification, N·m.
const TORQUE_EPS: f64 = 1e-6;

/// The control variables chosen by an HEV controller (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlInput {
    /// Battery current `i`, A; positive discharges (paper convention).
    pub battery_current_a: f64,
    /// Gear index `k` (0-based).
    pub gear: usize,
    /// Auxiliary operating power `p_aux`, W.
    pub p_aux_w: f64,
}

impl ControlInput {
    /// Whether both float fields are finite — the first check every
    /// safety layer (supervisor, serving ladder) applies before probing
    /// feasibility, since a NaN control would poison the plant state.
    pub fn is_finite(&self) -> bool {
        self.battery_current_a.is_finite() && self.p_aux_w.is_finite()
    }
}

/// The realized operating mode of one step (the paper's five modes from
/// §2, plus `Stopped` and `FrictionBraking` bookkeeping states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatingMode {
    /// Vehicle at rest; engine off; battery powers auxiliaries.
    Stopped,
    /// Mode (i): only the engine propels the vehicle.
    IceOnly,
    /// Mode (ii): only the electric machine propels the vehicle.
    EvOnly,
    /// Mode (iii): engine and machine propel together.
    HybridAssist,
    /// Mode (iv): the engine propels and charges the battery.
    RechargeDrive,
    /// Mode (v): regenerative braking.
    RegenBraking,
    /// Braking absorbed entirely by friction brakes.
    FrictionBraking,
}

/// Everything that happened in one realized step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// The realized operating mode.
    pub mode: OperatingMode,
    /// Fuel mass flow, g/s.
    pub fuel_rate_g_per_s: f64,
    /// Fuel consumed this step, g (includes the restart penalty when the
    /// engine started this step).
    pub fuel_g: f64,
    /// Whether the engine transitioned from stopped to running this step.
    pub engine_started: bool,
    /// Engine torque, N·m (0 when off).
    pub ice_torque_nm: f64,
    /// Engine speed, rad/s (0 when off).
    pub ice_speed_rad_s: f64,
    /// Machine torque, N·m.
    pub em_torque_nm: f64,
    /// Machine speed, rad/s.
    pub em_speed_rad_s: f64,
    /// Realized battery current, A (may differ from the commanded current
    /// in EV and stopped modes).
    pub battery_current_a: f64,
    /// Battery terminal power, W.
    pub battery_power_w: f64,
    /// Auxiliary power, W.
    pub p_aux_w: f64,
    /// Utility `f_aux(p_aux)` of the auxiliary systems this step.
    pub aux_utility: f64,
    /// Friction-brake torque at the wheels, N·m (≤ 0).
    pub friction_brake_torque_nm: f64,
    /// State of charge before the step.
    pub soc_before: f64,
    /// State of charge after the step.
    pub soc_after: f64,
}

/// Which of the three top-level demand regimes a step falls into; decides
/// which completion path [`ParallelHev::peek_with_context`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepKind {
    /// `speed < STOP_SPEED_MPS`: stopped-mode resolution (no per-gear
    /// kinematics — the resolution depends only on battery state).
    Stopped,
    /// Negative wheel torque: braking split per gear.
    Braking,
    /// Everything else: propelling (engine-on or EV) per gear.
    Propelling,
}

/// Per-gear precomputation shared by every control evaluated against one
/// demand: shaft kinematics, machine envelope and fixed losses, engine
/// speed/WOT torque, the EV-mode torque solution, and the braking regen
/// floor. All values are exactly the ones the monolithic resolvers would
/// compute, stored as whole results of the same pure calls, so completing
/// a control against a `GearPre` is bit-identical to resolving it from
/// scratch. Fields that don't apply to the entry's mode are left zeroed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct GearPre {
    /// Machine speed `ω_EM` for this gear, rad/s.
    w_em: f64,
    /// Pre-resolved machine overspeed error, if any.
    motor_speed_err: Option<InfeasibleControl>,
    /// Required gearbox-input shaft torque, N·m.
    t_shaft: f64,
    /// Speed-dependent machine losses at `ω_EM`, W.
    fixed_loss_w: f64,
    // ---- propelling only -------------------------------------------------
    /// Machine torque envelope at `ω_EM`, N·m.
    t_em_min: f64,
    /// Machine torque envelope at `ω_EM`, N·m.
    t_em_max: f64,
    /// Engine speed (idle-clamped), rad/s.
    w_ice: f64,
    /// Pre-resolved engine overspeed error, if any.
    engine_speed_err: Option<InfeasibleControl>,
    /// Wide-open-throttle engine torque at `w_ice`, N·m.
    t_ice_max: f64,
    /// Speed parabola of the engine efficiency surface at `w_ice`.
    ice_speed_factor: f64,
    /// Machine torque that covers the whole demand in EV mode, N·m.
    t_em_ev: f64,
    /// Pre-resolved EV-mode torque-envelope error, if any.
    ev_torque_err: Option<InfeasibleControl>,
    /// Machine electrical power in EV mode, W.
    p_em_elec_ev: f64,
    // ---- braking only ----------------------------------------------------
    /// Most negative admissible regen torque, N·m.
    regen_floor: f64,
}

/// Precomputed per-demand evaluation context: the first stage of the
/// staged step pipeline.
///
/// Building a context performs, once per `(demand)`, all the work of
/// [`ParallelHev::peek`] that does not depend on the control input —
/// per-gear shaft speed/torque, machine envelopes, engine speed and WOT
/// torque, the EV-mode solution, and the braking regen floor. The cheap
/// completion stage ([`ParallelHev::peek_with_context`]) then applies a
/// concrete `(battery_current, gear, p_aux)` against the precomputed gear
/// entry. Controllers that evaluate hundreds of candidate controls per
/// simulation step (feasibility masks, inner optimization, argmax) build
/// the context once and amortize the kinematics across all of them.
///
/// The context is **battery-state independent**: completions read the live
/// battery (state of charge) exactly like the monolithic path, so one
/// context stays valid across SOC sweeps (e.g. a DP solver's state grid)
/// as long as the demand and the vehicle's static parameters are
/// unchanged. Reuse the allocation across steps with
/// [`ParallelHev::rebuild_context`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepContext {
    demand: WheelDemand,
    pub(crate) kind: StepKind,
    pub(crate) gears: Vec<GearPre>,
}

impl StepContext {
    /// The wheel demand this context was built for.
    pub fn demand(&self) -> &WheelDemand {
        &self.demand
    }

    /// Whether the context resolves in stopped mode (no per-gear
    /// kinematics; the commanded current is ignored).
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.kind == StepKind::Stopped
    }

    /// Whether *any* control input can complete at this gear: `false`
    /// when a control-independent check (machine overspeed — the first
    /// check of every moving completion) already failed during
    /// precomputation, so every completion would replay the same error.
    /// Optimizers sweeping `(gear, …)` candidates skip dead gears
    /// without paying for an evaluation; skipped gears can never
    /// contribute a feasible candidate, so the selected optimum is
    /// unchanged.
    #[inline]
    pub fn gear_is_viable(&self, gear: usize) -> bool {
        match self.kind {
            StepKind::Stopped => true,
            _ => self
                .gears
                .get(gear)
                .is_none_or(|pre| pre.motor_speed_err.is_none()),
        }
    }

    /// The regen floor of `gear` on a braking step, `max(t_em_full,
    /// T_min)` in N·m: the machine torque a braking completion realizes
    /// whenever the regen command reaches or passes it, whatever the
    /// commanded current. `None` on a stopped or propelling step.
    #[inline]
    pub fn regen_floor_nm(&self, gear: usize) -> Option<f64> {
        match self.kind {
            StepKind::Braking => self.gears.get(gear).map(|pre| pre.regen_floor),
            _ => None,
        }
    }
}

/// Precomputed battery-side quantities for one commanded current at the
/// current battery state: the per-current companion of [`StepContext`].
///
/// Everything here is a whole result of the same pure battery call the
/// completion stage would make — the current-limit check, the terminal
/// power, the Coulomb-counted state of charge after `dt`, and the
/// charge-window check on it — so completing against a `CurrentContext`
/// is bit-identical to recomputing them in place.
///
/// Unlike [`StepContext`], this **does** depend on the live battery state
/// (open-circuit voltage and state of charge) and on
/// `dt`; it is only valid until the battery state changes. Inner
/// optimizers that evaluate one current against many `(gear, p_aux)`
/// candidates build it once per current and amortize the battery math.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentContext {
    /// The commanded battery current, A.
    battery_current_a: f64,
    /// Step length, s.
    dt: f64,
    /// Pre-resolved current-limit error, if any.
    current_err: Option<InfeasibleControl>,
    /// Terminal power at the commanded current, W.
    p_batt_w: f64,
    /// State of charge after carrying the commanded current for `dt`.
    soc_after: f64,
    /// Pre-resolved charge-window error for `soc_after`, if any.
    window_err: Option<InfeasibleControl>,
}

impl CurrentContext {
    /// The commanded battery current this context was built for, A.
    #[inline]
    pub fn battery_current_a(&self) -> f64 {
        self.battery_current_a
    }

    /// The step length this context was built for, s.
    #[inline]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The pack's terminal power at the commanded current, W: the bus
    /// power every moving-mode completion splits between the machine and
    /// the auxiliaries.
    #[inline]
    pub fn terminal_power_w(&self) -> f64 {
        self.p_batt_w
    }

    /// Whether the commanded current passes the pack's current limits.
    /// When `false`, every moving-mode completion replays the same
    /// pre-resolved error (stopped mode ignores the commanded current).
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.current_err.is_none()
    }
}

impl Default for StepContext {
    /// An empty context (stopped, zero demand); rebuild before use.
    fn default() -> Self {
        Self {
            demand: WheelDemand {
                speed_mps: 0.0,
                accel_mps2: 0.0,
                grade: 0.0,
                tractive_force_n: 0.0,
                wheel_torque_nm: 0.0,
                wheel_speed_rad_s: 0.0,
                power_demand_w: 0.0,
            },
            kind: StepKind::Stopped,
            gears: Vec::new(),
        }
    }
}

/// The assembled parallel hybrid-electric vehicle.
///
/// # Examples
///
/// ```
/// use hev_model::{ControlInput, HevParams, ParallelHev};
///
/// let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.6)?;
/// let demand = hev.demand(15.0, 0.3, 0.0); // 54 km/h accelerating
/// let control = ControlInput { battery_current_a: 10.0, gear: 2, p_aux_w: 600.0 };
/// let outcome = hev.step(&demand, &control, 1.0)?;
/// assert!(outcome.fuel_g >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelHev {
    body: VehicleBody,
    engine: Engine,
    motor: Motor,
    battery: Battery,
    drivetrain: Drivetrain,
    aux: AuxiliarySystems,
    /// Whether the engine was running at the end of the last committed
    /// step (drives the restart fuel penalty).
    engine_on: bool,
}

impl ParallelHev {
    /// Assembles a vehicle from a validated parameter set at the given
    /// initial state of charge.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if any component parameters are invalid.
    pub fn new(params: HevParams, initial_soc: f64) -> Result<Self, ParamError> {
        Ok(Self {
            body: VehicleBody::new(params.body)?,
            engine: Engine::new(params.ice)?,
            motor: Motor::new(params.motor)?,
            battery: Battery::new(params.battery, initial_soc)?,
            drivetrain: Drivetrain::new(params.drivetrain)?,
            aux: AuxiliarySystems::new(params.aux)?,
            engine_on: false,
        })
    }

    /// The chassis model.
    pub fn body(&self) -> &VehicleBody {
        &self.body
    }

    /// The engine model.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The electric-machine model.
    pub fn motor(&self) -> &Motor {
        &self.motor
    }

    /// The battery pack (read access; stepping mutates it).
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The drivetrain model.
    pub fn drivetrain(&self) -> &Drivetrain {
        &self.drivetrain
    }

    /// The auxiliary-system model.
    pub fn aux(&self) -> &AuxiliarySystems {
        &self.aux
    }

    /// Current battery state of charge.
    pub fn soc(&self) -> f64 {
        self.battery.soc()
    }

    /// Resets the battery state of charge and stops the engine (between
    /// episodes).
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn reset_soc(&mut self, soc: f64) {
        self.battery.reset(soc);
        self.engine_on = false;
    }

    /// Degrades the battery by scaling its capacity to `(1 − fade)` of
    /// nominal (see [`Battery::apply_capacity_fade`]); the fault-injection
    /// hook for pack aging. Applied once per degraded vehicle — fade
    /// compounds if called repeatedly.
    ///
    /// # Panics
    ///
    /// Panics if `fade` is outside `[0, 1)`.
    pub fn apply_battery_capacity_fade(&mut self, fade: f64) {
        self.battery.apply_capacity_fade(fade);
    }

    /// Scales the electric machine's torque envelope (see
    /// [`Motor::set_derate`]); the fault-injection hook for thermal
    /// derating windows. `1.0` restores the healthy envelope. Callers
    /// must set this *before* building the step context so the per-gear
    /// torque tables see the derated envelope.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn set_motor_derate(&mut self, factor: f64) {
        self.motor.set_derate(factor);
    }

    /// Whether the engine was running at the end of the last committed
    /// step.
    pub fn engine_on(&self) -> bool {
        self.engine_on
    }

    /// Wheel-level demand for a `(v, a, grade)` sample (Eq. 5–7).
    pub fn demand(&self, speed_mps: f64, accel_mps2: f64, grade: f64) -> WheelDemand {
        self.body.demand(speed_mps, accel_mps2, grade)
    }

    /// Resolves a control input at the current state *without* mutating
    /// the vehicle. Controllers use this as an action-feasibility mask
    /// and for inner optimization.
    ///
    /// This is a thin wrapper over the staged pipeline: it precomputes a
    /// single-gear entry (the first stage) and completes the control
    /// against it. Callers evaluating many controls against one demand
    /// should build a [`StepContext`] once and use
    /// [`ParallelHev::peek_with_context`] instead.
    ///
    /// # Errors
    ///
    /// Returns the [`InfeasibleControl`] reason when the powertrain cannot
    /// realize the input.
    pub fn peek(
        &self,
        demand: &WheelDemand,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        hev_trace::evals::record();
        self.drivetrain.ratio(control.gear)?;
        self.aux.check_power(control.p_aux_w)?;

        let mut outcome = if demand.speed_mps < STOP_SPEED_MPS {
            self.resolve_stopped(control, dt)?
        } else if demand.wheel_torque_nm < 0.0 {
            let pre = self.brake_pre(demand, control.gear);
            let cur = self.current_context(control.battery_current_a, dt);
            self.complete_braking(demand, &pre, &cur, control)?
        } else {
            let pre = self.propel_pre(demand, control.gear);
            let cur = self.current_context(control.battery_current_a, dt);
            self.complete_propelling(demand, &pre, &cur, control)?
        };
        let running = outcome.ice_speed_rad_s > 0.0;
        if running && !self.engine_on {
            outcome.engine_started = true;
            outcome.fuel_g += self.engine.params().start_fuel_penalty_g;
        }
        Ok(outcome)
    }

    /// Builds the precomputation stage of the step pipeline for `demand`:
    /// everything [`ParallelHev::peek`] derives that does not depend on
    /// the control input, for every gear. See [`StepContext`].
    pub fn step_context(&self, demand: &WheelDemand) -> StepContext {
        let mut ctx = StepContext::default();
        self.rebuild_context(&mut ctx, demand);
        ctx
    }

    /// Rebuilds `ctx` in place for a new demand, reusing its gear-table
    /// allocation (the per-step path of a simulation loop).
    ///
    /// Each call records one `ctx_rebuilds` tick in the
    /// [`hev_trace::evals`] counters — the quantity the cycle-level
    /// [`ContextTable`](crate::plan::ContextTable) amortizes to one per
    /// (cycle, vehicle-config) pair.
    pub fn rebuild_context(&self, ctx: &mut StepContext, demand: &WheelDemand) {
        let _span = hev_trace::span::enter("model.ctx_build");
        hev_trace::evals::record_ctx_rebuild();
        self.rebuild_context_untracked(ctx, demand);
    }

    /// The untracked body of [`ParallelHev::rebuild_context`]: used by
    /// the cycle-level table builder, which amortizes a whole cycle's
    /// worth of rebuilds into a single recorded tick.
    pub(crate) fn rebuild_context_untracked(&self, ctx: &mut StepContext, demand: &WheelDemand) {
        ctx.demand = *demand;
        ctx.gears.clear();
        ctx.kind = if demand.speed_mps < STOP_SPEED_MPS {
            StepKind::Stopped
        } else if demand.wheel_torque_nm < 0.0 {
            StepKind::Braking
        } else {
            StepKind::Propelling
        };
        match ctx.kind {
            // Stopped-mode resolution depends only on battery state; no
            // per-gear kinematics to precompute.
            StepKind::Stopped => {}
            StepKind::Braking => {
                for gear in 0..self.drivetrain.num_gears() {
                    ctx.gears.push(self.brake_pre(demand, gear));
                }
            }
            StepKind::Propelling => {
                for gear in 0..self.drivetrain.num_gears() {
                    ctx.gears.push(self.propel_pre(demand, gear));
                }
            }
        }
    }

    /// Builds the per-current precomputation for `battery_current_a`
    /// carried for `dt` seconds at the current battery state. See
    /// [`CurrentContext`].
    #[inline]
    pub fn current_context(&self, battery_current_a: f64, dt: f64) -> CurrentContext {
        let soc_after = self.battery.soc_after(battery_current_a, dt);
        CurrentContext {
            battery_current_a,
            dt,
            current_err: self.battery.check_current(battery_current_a).err(),
            p_batt_w: self.battery.terminal_power(battery_current_a),
            soc_after,
            window_err: self.check_window(soc_after).err(),
        }
    }

    /// The completion stage of the step pipeline: resolves a control input
    /// against a prebuilt [`StepContext`] *without* mutating the vehicle.
    /// Bit-identical to [`ParallelHev::peek`] on the context's demand.
    ///
    /// `ctx` must have been built (or rebuilt) by this vehicle for the
    /// demand being evaluated; completions read the *live* battery state,
    /// so a context stays valid across SOC changes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParallelHev::peek`].
    pub fn peek_with_context(
        &self,
        ctx: &StepContext,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        let cur = self.current_context(control.battery_current_a, dt);
        self.peek_with_contexts(ctx, &cur, control)
    }

    /// [`ParallelHev::peek_with_context`] with the battery-side
    /// precomputation also prebuilt — the innermost evaluation call of the
    /// staged pipeline. Callers that sweep `(gear, p_aux)` for one
    /// commanded current build the [`CurrentContext`] once per current.
    ///
    /// `cur` must have been built by [`ParallelHev::current_context`] for
    /// `control.battery_current_a` at the *current* battery state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParallelHev::peek`].
    #[inline(always)]
    pub fn peek_with_contexts(
        &self,
        ctx: &StepContext,
        cur: &CurrentContext,
        control: &ControlInput,
    ) -> Result<StepOutcome, InfeasibleControl> {
        hev_trace::evals::record();
        self.drivetrain.ratio(control.gear)?;
        self.aux.check_power(control.p_aux_w)?;
        debug_assert!(
            ctx.kind == StepKind::Stopped || ctx.gears.len() == self.drivetrain.num_gears(),
            "StepContext built for a different drivetrain"
        );
        debug_assert_eq!(
            cur.battery_current_a, control.battery_current_a,
            "CurrentContext built for a different current"
        );

        let mut outcome = match ctx.kind {
            StepKind::Stopped => self.resolve_stopped(control, cur.dt)?,
            StepKind::Braking => {
                self.complete_braking(&ctx.demand, &ctx.gears[control.gear], cur, control)?
            }
            StepKind::Propelling => {
                self.complete_propelling(&ctx.demand, &ctx.gears[control.gear], cur, control)?
            }
        };
        let running = outcome.ice_speed_rad_s > 0.0;
        if running && !self.engine_on {
            outcome.engine_started = true;
            outcome.fuel_g += self.engine.params().start_fuel_penalty_g;
        }
        Ok(outcome)
    }

    /// Resolves a control input against a prebuilt [`StepContext`] and
    /// commits the battery state; the staged counterpart of
    /// [`ParallelHev::step`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParallelHev::peek`]; the state is unchanged on
    /// error.
    pub fn step_with_context(
        &mut self,
        ctx: &StepContext,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        let outcome = self.peek_with_context(ctx, control, dt)?;
        // peek validated the battery step, so this commit cannot fail;
        // propagating (rather than unwrapping) keeps the path panic-free.
        self.battery.step(outcome.battery_current_a, dt)?;
        debug_assert!((self.battery.soc() - outcome.soc_after).abs() < 1e-12);
        self.engine_on = outcome.ice_speed_rad_s > 0.0;
        Ok(outcome)
    }

    /// Resolves a control input and commits the battery state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParallelHev::peek`]; the state is unchanged on
    /// error.
    pub fn step(
        &mut self,
        demand: &WheelDemand,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        let outcome = self.peek(demand, control, dt)?;
        // Commit through the battery's own Coulomb counter. peek
        // validated the step, so this cannot fail; propagating keeps the
        // path panic-free.
        self.battery.step(outcome.battery_current_a, dt)?;
        debug_assert!((self.battery.soc() - outcome.soc_after).abs() < 1e-12);
        self.engine_on = outcome.ice_speed_rad_s > 0.0;
        Ok(outcome)
    }

    // ---- mode resolvers -------------------------------------------------

    fn resolve_stopped(
        &self,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        // The bus must balance: the battery covers exactly the auxiliary
        // load; the commanded current is ignored (documented override).
        let i = self.battery.current_for_power(control.p_aux_w).ok_or(
            InfeasibleControl::BatteryPower {
                power_w: control.p_aux_w,
            },
        )?;
        self.battery.check_current(i)?;
        let soc_after = self.battery.soc_after(i, dt);
        if !self.battery.in_window(soc_after) {
            // The pack sits at the charge-sustaining floor: the engine
            // idles and carries the auxiliary load through its accessory
            // drive instead (the stop-start system keeps it running).
            return Ok(StepOutcome {
                mode: OperatingMode::Stopped,
                fuel_rate_g_per_s: self.engine.params().idle_fuel_g_per_s,
                fuel_g: self.engine.params().idle_fuel_g_per_s * dt,
                engine_started: false,
                ice_torque_nm: 0.0,
                ice_speed_rad_s: self.engine.min_speed(),
                em_torque_nm: 0.0,
                em_speed_rad_s: 0.0,
                battery_current_a: 0.0,
                battery_power_w: 0.0,
                p_aux_w: control.p_aux_w,
                aux_utility: self.aux.utility(control.p_aux_w),
                friction_brake_torque_nm: 0.0,
                soc_before: self.battery.soc(),
                soc_after: self.battery.soc(),
            });
        }
        Ok(StepOutcome {
            mode: OperatingMode::Stopped,
            fuel_rate_g_per_s: 0.0,
            fuel_g: 0.0,
            engine_started: false,
            ice_torque_nm: 0.0,
            ice_speed_rad_s: 0.0,
            em_torque_nm: 0.0,
            em_speed_rad_s: 0.0,
            battery_current_a: i,
            battery_power_w: control.p_aux_w,
            p_aux_w: control.p_aux_w,
            aux_utility: self.aux.utility(control.p_aux_w),
            friction_brake_torque_nm: 0.0,
            soc_before: self.battery.soc(),
            soc_after,
        })
    }

    // ---- staged precomputation (stage 1) --------------------------------
    //
    // The pre-builders compute, for one `(demand, gear)`, every quantity
    // the mode resolvers derive that does not depend on the control input.
    // Each cached value is the whole result of the same pure call the
    // monolithic path made (never a re-associated partial sum), and
    // control-independent *checks* are cached as the error they would
    // raise, replayed by the completion stage at the original position in
    // the check order — so completion is bit-identical by construction.

    fn propel_pre(&self, demand: &WheelDemand, gear: usize) -> GearPre {
        let w_em = self.drivetrain.em_speed(demand.wheel_speed_rad_s, gear);
        let motor_speed_err = self.check_motor_speed(w_em).err();
        let (t_em_min, t_em_max) = (self.motor.min_torque(w_em), self.motor.max_torque(w_em));
        let fixed_loss_w = self.motor.fixed_loss_at(w_em);
        let t_shaft = self
            .drivetrain
            .required_shaft_torque(demand.wheel_torque_nm, gear);

        // Engine-on branch: below the geared idle speed the launch clutch
        // slips — the engine runs at idle and transmits the torque across
        // the slipping clutch.
        let w_geared = self.drivetrain.ice_speed(demand.wheel_speed_rad_s, gear);
        let w_ice = w_geared.max(self.engine.min_speed());
        let engine_speed_err = if w_ice > self.engine.max_speed() {
            Some(InfeasibleControl::EngineSpeed {
                speed_rad_s: w_ice,
                min_rad_s: self.engine.min_speed(),
                max_rad_s: self.engine.max_speed(),
            })
        } else {
            None
        };
        let t_ice_max = self.engine.max_torque(w_ice);
        let ice_speed_factor = self.engine.speed_factor(w_ice);

        // EV branch: invert the machine's shaft contribution,
        // ρ·T_EM·η^α = t_shaft (the whole EV operating point is
        // control-independent; only the aux load varies).
        let p = self.drivetrain.params();
        let t_em_ev = if t_shaft >= 0.0 {
            t_shaft / (p.reduction_ratio * p.reduction_efficiency)
        } else {
            t_shaft * p.reduction_efficiency / p.reduction_ratio
        };
        let ev_torque_err = self.check_motor_torque(t_em_ev, w_em).err();
        let p_em_elec_ev = self.motor.electrical_power(t_em_ev, w_em);

        GearPre {
            w_em,
            motor_speed_err,
            t_shaft,
            fixed_loss_w,
            t_em_min,
            t_em_max,
            w_ice,
            engine_speed_err,
            t_ice_max,
            ice_speed_factor,
            t_em_ev,
            ev_torque_err,
            p_em_elec_ev,
            regen_floor: 0.0,
        }
    }

    fn brake_pre(&self, demand: &WheelDemand, gear: usize) -> GearPre {
        let w_em = self.drivetrain.em_speed(demand.wheel_speed_rad_s, gear);
        let motor_speed_err = self.check_motor_speed(w_em).err();
        let fixed_loss_w = self.motor.fixed_loss_at(w_em);
        let p = self.drivetrain.params();
        let t_shaft = self
            .drivetrain
            .required_shaft_torque(demand.wheel_torque_nm, gear);
        // Regen torque that would cover the whole braking demand
        // (α = −1 branch of Eq. 9).
        let t_em_full = t_shaft * p.reduction_efficiency / p.reduction_ratio;
        let regen_floor = t_em_full.max(self.motor.min_torque(w_em));
        GearPre {
            w_em,
            motor_speed_err,
            t_shaft,
            fixed_loss_w,
            regen_floor,
            ..GearPre::default()
        }
    }

    // ---- staged completion (stage 2) ------------------------------------

    #[inline(always)]
    fn complete_propelling(
        &self,
        demand: &WheelDemand,
        pre: &GearPre,
        cur: &CurrentContext,
        control: &ControlInput,
    ) -> Result<StepOutcome, InfeasibleControl> {
        if let Some(err) = pre.motor_speed_err {
            return Err(err);
        }
        if let Some(err) = cur.current_err {
            return Err(err);
        }
        let p_batt = cur.p_batt_w;
        let p_em_elec = p_batt - control.p_aux_w;
        let t_em = self
            .motor
            .torque_from_power_with_fixed_loss(p_em_elec, pre.w_em, pre.fixed_loss_w)
            .ok_or(InfeasibleControl::MotorPower {
                p_elec_w: p_em_elec,
                speed_rad_s: pre.w_em,
            })?;
        if !(pre.t_em_min..=pre.t_em_max).contains(&t_em) {
            return Err(InfeasibleControl::MotorTorque {
                torque_nm: t_em,
                min_nm: pre.t_em_min,
                max_nm: pre.t_em_max,
            });
        }

        let t_ice = pre.t_shaft - self.drivetrain.em_shaft_torque(t_em);

        if t_ice > ICE_ON_MIN_NM {
            // Engine-on: the commanded current holds; the engine supplies
            // the remaining torque exactly.
            if let Some(err) = pre.engine_speed_err {
                return Err(err);
            }
            if t_ice > pre.t_ice_max {
                return Err(InfeasibleControl::EngineTorque {
                    torque_nm: t_ice,
                    max_nm: pre.t_ice_max,
                });
            }
            let soc_after = cur.soc_after;
            if let Some(err) = cur.window_err {
                return Err(err);
            }
            let fuel_rate = self.engine.fuel_rate_with_pre(
                t_ice,
                pre.w_ice,
                pre.t_ice_max,
                pre.ice_speed_factor,
            );
            let mode = if t_em > TORQUE_EPS {
                OperatingMode::HybridAssist
            } else if t_em < -TORQUE_EPS {
                OperatingMode::RechargeDrive
            } else {
                OperatingMode::IceOnly
            };
            Ok(StepOutcome {
                mode,
                fuel_rate_g_per_s: fuel_rate,
                fuel_g: fuel_rate * cur.dt,
                engine_started: false,
                ice_torque_nm: t_ice,
                ice_speed_rad_s: pre.w_ice,
                em_torque_nm: t_em,
                em_speed_rad_s: pre.w_em,
                battery_current_a: control.battery_current_a,
                battery_power_w: p_batt,
                p_aux_w: control.p_aux_w,
                aux_utility: self.aux.utility(control.p_aux_w),
                friction_brake_torque_nm: 0.0,
                soc_before: self.battery.soc(),
                soc_after,
            })
        } else {
            // The electric path covers (or would over-deliver) the whole
            // demand: the engine disengages and the step resolves in EV
            // mode with the battery current *following the demand* — the
            // commanded current acts as an upper bound on discharge.
            self.complete_ev(demand, pre, control, cur.dt)
        }
    }

    #[inline(always)]
    fn complete_ev(
        &self,
        demand: &WheelDemand,
        pre: &GearPre,
        control: &ControlInput,
        dt: f64,
    ) -> Result<StepOutcome, InfeasibleControl> {
        if let Some(err) = pre.ev_torque_err {
            return Err(err);
        }
        let t_em = pre.t_em_ev;
        let p_batt = pre.p_em_elec_ev + control.p_aux_w;
        let i = self
            .battery
            .current_for_power(p_batt)
            .ok_or(InfeasibleControl::BatteryPower { power_w: p_batt })?;
        self.battery.check_current(i)?;
        let soc_after = self.battery.soc_after(i, dt);
        self.check_window(soc_after)?;
        Ok(StepOutcome {
            mode: OperatingMode::EvOnly,
            fuel_rate_g_per_s: 0.0,
            fuel_g: 0.0,
            engine_started: false,
            ice_torque_nm: 0.0,
            ice_speed_rad_s: 0.0,
            em_torque_nm: t_em,
            em_speed_rad_s: pre.w_em,
            battery_current_a: i,
            battery_power_w: p_batt,
            p_aux_w: control.p_aux_w,
            aux_utility: self.aux.utility(control.p_aux_w),
            friction_brake_torque_nm: 0.0,
            soc_before: self.battery.soc(),
            soc_after,
        })
        .map(|mut o| {
            // Preserve the wheel-torque bookkeeping for zero-demand coast.
            if demand.wheel_torque_nm.abs() < TORQUE_EPS && t_em.abs() < TORQUE_EPS {
                o.em_torque_nm = 0.0;
            }
            o
        })
    }

    #[inline(always)]
    fn complete_braking(
        &self,
        demand: &WheelDemand,
        pre: &GearPre,
        cur: &CurrentContext,
        control: &ControlInput,
    ) -> Result<StepOutcome, InfeasibleControl> {
        if let Some(err) = pre.motor_speed_err {
            return Err(err);
        }
        if let Some(err) = cur.current_err {
            return Err(err);
        }

        // Fuel cut: the engine is off. The commanded current expresses a
        // *regeneration intent*: the machine recovers as much as the
        // command asks for, clamped to what the braking demand and the
        // machine envelope admit; friction brakes absorb the remainder.
        let p_batt_cmd = cur.p_batt_w;
        let t_em_cmd = self
            .motor
            .torque_from_power_with_fixed_loss(
                p_batt_cmd - control.p_aux_w,
                pre.w_em,
                pre.fixed_loss_w,
            )
            .unwrap_or(pre.regen_floor);
        let t_em = t_em_cmd.clamp(pre.regen_floor, 0.0);

        // Re-derive the realized battery current from the clamped torque.
        let p_batt = self.motor.electrical_power(t_em, pre.w_em) + control.p_aux_w;
        let i = self
            .battery
            .current_for_power(p_batt)
            .ok_or(InfeasibleControl::BatteryPower { power_w: p_batt })?;
        self.battery.check_current(i)?;

        let t_wh_em = self.drivetrain.wheel_torque(0.0, t_em, control.gear);
        let friction = (demand.wheel_torque_nm - t_wh_em).min(0.0);
        let soc_after = self.battery.soc_after(i, cur.dt);
        self.check_window(soc_after)?;
        let mode = if t_em < -TORQUE_EPS {
            OperatingMode::RegenBraking
        } else {
            OperatingMode::FrictionBraking
        };
        Ok(StepOutcome {
            mode,
            fuel_rate_g_per_s: 0.0,
            fuel_g: 0.0,
            engine_started: false,
            ice_torque_nm: 0.0,
            ice_speed_rad_s: 0.0,
            em_torque_nm: t_em,
            em_speed_rad_s: pre.w_em,
            battery_current_a: i,
            battery_power_w: p_batt,
            p_aux_w: control.p_aux_w,
            aux_utility: self.aux.utility(control.p_aux_w),
            friction_brake_torque_nm: friction,
            soc_before: self.battery.soc(),
            soc_after,
        })
    }

    // ---- shared checks ---------------------------------------------------

    fn check_window(&self, soc_after: f64) -> Result<(), InfeasibleControl> {
        if !self.battery.in_window(soc_after) {
            return Err(InfeasibleControl::BatteryWindow {
                soc_after,
                soc_min: self.battery.params().soc_min,
                soc_max: self.battery.params().soc_max,
            });
        }
        Ok(())
    }

    fn check_motor_speed(&self, w_em: f64) -> Result<(), InfeasibleControl> {
        if w_em > self.motor.max_speed() {
            return Err(InfeasibleControl::MotorSpeed {
                speed_rad_s: w_em,
                max_rad_s: self.motor.max_speed(),
            });
        }
        Ok(())
    }

    fn check_motor_torque(&self, t_em: f64, w_em: f64) -> Result<(), InfeasibleControl> {
        let (min_nm, max_nm) = (self.motor.min_torque(w_em), self.motor.max_torque(w_em));
        if !(min_nm..=max_nm).contains(&t_em) {
            return Err(InfeasibleControl::MotorTorque {
                torque_nm: t_em,
                min_nm,
                max_nm,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn ctl(i: f64, gear: usize, aux: f64) -> ControlInput {
        ControlInput {
            battery_current_a: i,
            gear,
            p_aux_w: aux,
        }
    }

    #[test]
    fn stopped_covers_aux_from_battery() {
        let hev = hev();
        let d = hev.demand(0.0, 0.0, 0.0);
        let o = hev.peek(&d, &ctl(50.0, 0, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::Stopped);
        assert_eq!(o.fuel_g, 0.0);
        assert!(o.battery_current_a > 0.0 && o.battery_current_a < 3.0);
        assert!(o.soc_after < o.soc_before);
    }

    #[test]
    fn moderate_cruise_engine_on() {
        let hev = hev();
        // 72 km/h cruise in 4th gear, no battery assist.
        let d = hev.demand(20.0, 0.0, 0.0);
        let o = hev.peek(&d, &ctl(2.0, 3, 600.0), 1.0).unwrap();
        assert!(matches!(
            o.mode,
            OperatingMode::IceOnly | OperatingMode::HybridAssist | OperatingMode::RechargeDrive
        ));
        assert!(o.fuel_g > 0.0);
        assert!(o.ice_torque_nm > 0.0);
        assert!(hev.engine().speed_in_range(o.ice_speed_rad_s));
    }

    #[test]
    fn strong_discharge_gives_hybrid_assist() {
        let hev = hev();
        let d = hev.demand(20.0, 1.0, 0.0); // hard acceleration
        let o = hev.peek(&d, &ctl(60.0, 2, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::HybridAssist);
        assert!(o.em_torque_nm > 0.0);
        assert!(o.ice_torque_nm > 0.0);
    }

    #[test]
    fn charging_while_driving() {
        let hev = hev();
        let d = hev.demand(20.0, 0.0, 0.0);
        let o = hev.peek(&d, &ctl(-20.0, 3, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::RechargeDrive);
        assert!(o.em_torque_nm < 0.0);
        assert!(o.soc_after > o.soc_before);
        // Charging costs extra engine torque, hence extra fuel.
        let o_nocharge = hev.peek(&d, &ctl(2.0, 3, 600.0), 1.0).unwrap();
        assert!(o.fuel_g > o_nocharge.fuel_g);
    }

    #[test]
    fn generous_current_low_speed_resolves_ev() {
        let hev = hev();
        // Gentle launch with enough commanded discharge: the machine alone
        // covers the demand, the engine stays off, and the realized
        // current follows the demand (less than commanded).
        let d = hev.demand(3.0, 0.3, 0.0);
        let o = hev.peek(&d, &ctl(20.0, 0, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::EvOnly);
        assert_eq!(o.fuel_g, 0.0);
        assert!(o.em_torque_nm > 0.0);
        assert!(o.battery_current_a > 0.0);
        assert!(o.battery_current_a < 20.0);
        assert!(o.soc_after < o.soc_before);
    }

    #[test]
    fn zero_current_low_speed_keeps_engine_on() {
        let hev = hev();
        // With no commanded discharge the engine must carry the demand and
        // the machine generates to power the auxiliaries.
        let d = hev.demand(3.0, 0.3, 0.0);
        let o = hev.peek(&d, &ctl(0.0, 0, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::RechargeDrive);
        assert!(o.fuel_g > 0.0);
    }

    #[test]
    fn braking_regenerates() {
        let hev = hev();
        let d = hev.demand(15.0, -1.5, 0.0);
        assert!(d.wheel_torque_nm < 0.0);
        let o = hev.peek(&d, &ctl(-30.0, 2, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::RegenBraking);
        assert!(o.em_torque_nm < 0.0);
        assert!(o.friction_brake_torque_nm <= 0.0);
        assert!(o.soc_after > o.soc_before);
        assert_eq!(o.fuel_g, 0.0);
    }

    #[test]
    fn braking_with_zero_current_is_mostly_friction() {
        let hev = hev();
        let d = hev.demand(15.0, -1.5, 0.0);
        let o = hev.peek(&d, &ctl(0.0, 2, 600.0), 1.0).unwrap();
        // Current 0 means the pack neither charges nor discharges; the
        // machine covers only the aux load via slight regen.
        assert!(o.friction_brake_torque_nm < -100.0);
    }

    #[test]
    fn discharge_command_during_braking_clamps_to_friction() {
        let hev = hev();
        let d = hev.demand(15.0, -1.5, 0.0);
        // A discharge command makes no sense while braking: the machine
        // torque clamps to zero and friction absorbs the whole demand.
        let o = hev.peek(&d, &ctl(40.0, 2, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::FrictionBraking);
        assert_eq!(o.em_torque_nm, 0.0);
        assert!(o.friction_brake_torque_nm < -100.0);
        // The realized current only covers the auxiliary load and the
        // spinning machine's losses.
        assert!(o.battery_current_a > 0.0 && o.battery_current_a < 10.0);
    }

    #[test]
    fn excess_regen_command_is_clamped_to_demand() {
        let hev = hev();
        // Very gentle braking but an enormous charging command: the regen
        // clamps to what the braking demand admits, friction stays ~0,
        // and the realized charging current is far smaller than commanded.
        let d = hev.demand(10.0, -0.35, 0.0);
        let o = hev.peek(&d, &ctl(-80.0, 2, 600.0), 1.0).unwrap();
        assert!(o.em_torque_nm < 0.0);
        assert!(o.friction_brake_torque_nm > -1.0);
        assert!(o.battery_current_a > -80.0);
    }

    #[test]
    fn light_braking_is_feasible_at_any_ladder_current() {
        // The regression that motivated intent-clamped braking: a barely
        // decelerating coast must accept coarse current commands.
        let hev = hev();
        let d = hev.demand(4.1, -0.12, 0.0);
        assert!(d.wheel_torque_nm < 0.0);
        for i in [-60.0, -25.0, -8.0, 0.0, 8.0, 25.0] {
            for gear in 0..3 {
                assert!(
                    hev.peek(&d, &ctl(i, gear, 600.0), 1.0).is_ok(),
                    "i={i} gear={gear}"
                );
            }
        }
    }

    #[test]
    fn wrong_gear_overspeeds_engine() {
        let hev = hev();
        // 90 km/h in 1st gear.
        let d = hev.demand(25.0, 0.0, 0.0);
        let err = hev.peek(&d, &ctl(5.0, 0, 600.0), 1.0).unwrap_err();
        assert!(matches!(
            err,
            InfeasibleControl::EngineSpeed { .. } | InfeasibleControl::MotorSpeed { .. }
        ));
    }

    #[test]
    fn too_tall_gear_cannot_climb() {
        let hev = hev();
        // 10 km/h in 5th gear on a steep hill: the slipping-clutch engine
        // cannot deliver the shaft torque a top-gear launch would need.
        let d = hev.demand(2.78, 1.2, 0.10);
        let err = hev.peek(&d, &ctl(5.0, 4, 600.0), 1.0).unwrap_err();
        assert!(matches!(err, InfeasibleControl::EngineTorque { .. }));
    }

    #[test]
    fn clutch_slip_allows_engine_launch_at_soc_floor() {
        let mut hev = ParallelHev::new(HevParams::default_parallel_hev(), 0.4).unwrap();
        // 7.2 km/h, moderate demand, battery at the floor: EV is masked by
        // the charge window, but a 1st-gear slipping-clutch launch works.
        let d = hev.demand(2.0, 0.5, 0.0);
        let o = hev.step(&d, &ctl(0.0, 0, 600.0), 1.0).unwrap();
        assert!(o.fuel_g > 0.0);
        assert_eq!(o.ice_speed_rad_s, hev.engine().min_speed());
    }

    #[test]
    fn invalid_gear_rejected() {
        let hev = hev();
        let d = hev.demand(10.0, 0.0, 0.0);
        assert!(matches!(
            hev.peek(&d, &ctl(0.0, 9, 600.0), 1.0),
            Err(InfeasibleControl::InvalidGear { .. })
        ));
    }

    #[test]
    fn aux_out_of_range_rejected() {
        let hev = hev();
        let d = hev.demand(10.0, 0.0, 0.0);
        assert!(matches!(
            hev.peek(&d, &ctl(0.0, 2, 5_000.0), 1.0),
            Err(InfeasibleControl::AuxPowerRange { .. })
        ));
    }

    #[test]
    fn step_commits_soc_peek_does_not() {
        let mut hev = hev();
        let d = hev.demand(3.0, 0.3, 0.0);
        let c = ctl(20.0, 0, 600.0);
        let soc0 = hev.soc();
        let _ = hev.peek(&d, &c, 1.0).unwrap();
        assert_eq!(hev.soc(), soc0);
        let o = hev.step(&d, &c, 1.0).unwrap();
        assert_eq!(hev.soc(), o.soc_after);
        assert!(hev.soc() < soc0);
    }

    #[test]
    fn step_leaves_state_untouched_on_error() {
        let mut hev = hev();
        let d = hev.demand(25.0, 0.0, 0.0);
        let soc0 = hev.soc();
        assert!(hev.step(&d, &ctl(5.0, 0, 600.0), 1.0).is_err());
        assert_eq!(hev.soc(), soc0);
    }

    #[test]
    fn torque_balance_holds_when_engine_on() {
        let hev = hev();
        let d = hev.demand(20.0, 0.5, 0.0);
        let o = hev.peek(&d, &ctl(10.0, 2, 600.0), 1.0).unwrap();
        let back = hev
            .drivetrain()
            .wheel_torque(o.ice_torque_nm, o.em_torque_nm, 2);
        assert!(
            (back - d.wheel_torque_nm).abs() < 1e-6,
            "got {back} want {}",
            d.wheel_torque_nm
        );
    }

    #[test]
    fn higher_aux_power_draws_more_from_battery_in_ev() {
        let hev = hev();
        let d = hev.demand(3.0, 0.2, 0.0);
        let lo = hev.peek(&d, &ctl(20.0, 0, 100.0), 1.0).unwrap();
        let hi = hev.peek(&d, &ctl(20.0, 0, 1_500.0), 1.0).unwrap();
        assert!(hi.battery_current_a > lo.battery_current_a);
        assert!(hi.aux_utility < lo.aux_utility.max(1.0));
    }

    #[test]
    fn energy_conservation_engine_on() {
        // Fuel power >= wheel power + battery charging power (losses are
        // non-negative).
        let hev = hev();
        let d = hev.demand(20.0, 0.3, 0.0);
        let o = hev.peek(&d, &ctl(-15.0, 3, 600.0), 1.0).unwrap();
        let fuel_power = o.fuel_rate_g_per_s * hev.engine().params().fuel_lhv_j_per_g;
        let wheel_power = d.power_demand_w;
        let charge_power = -o.battery_power_w + o.p_aux_w; // stored + aux
        assert!(fuel_power > wheel_power + charge_power);
    }

    #[test]
    fn restart_penalty_applies_once() {
        let mut hev = hev();
        let d = hev.demand(20.0, 0.0, 0.0);
        let c = ctl(2.0, 3, 600.0);
        assert!(!hev.engine_on());
        let first = hev.step(&d, &c, 1.0).unwrap();
        assert!(first.engine_started);
        assert!(hev.engine_on());
        let second = hev.step(&d, &c, 1.0).unwrap();
        assert!(!second.engine_started);
        let penalty = hev.engine().params().start_fuel_penalty_g;
        // The second step starts from a marginally different state of
        // charge, so compare with a loose tolerance.
        assert!((first.fuel_g - second.fuel_g - penalty).abs() < 0.02);
    }

    #[test]
    fn ev_steps_do_not_restart_engine() {
        let mut hev = hev();
        let d = hev.demand(3.0, 0.3, 0.0);
        let o = hev.step(&d, &ctl(20.0, 0, 600.0), 1.0).unwrap();
        assert_eq!(o.mode, OperatingMode::EvOnly);
        assert!(!o.engine_started);
        assert_eq!(o.fuel_g, 0.0);
        assert!(!hev.engine_on());
    }

    #[test]
    fn reset_soc_stops_engine() {
        let mut hev = hev();
        let d = hev.demand(20.0, 0.0, 0.0);
        hev.step(&d, &ctl(2.0, 3, 600.0), 1.0).unwrap();
        assert!(hev.engine_on());
        hev.reset_soc(0.6);
        assert!(!hev.engine_on());
    }

    #[test]
    fn top_speed_is_bounded_by_motor_overspeed() {
        // The machine rides the gearbox through a fixed 2:1 reduction, so
        // above ω_EM^max/(R_top·ρ_reg) ≈ 47.8 m/s (172 km/h) every gear
        // overspeeds it: that *is* the vehicle's top speed.
        let hev = hev();
        let d = hev.demand(48.0, 0.0, 0.0);
        for gear in 0..5 {
            assert!(matches!(
                hev.peek(&d, &ctl(0.0, gear, 600.0), 1.0),
                Err(InfeasibleControl::MotorSpeed { .. })
                    | Err(InfeasibleControl::EngineSpeed { .. })
            ));
        }
        // Just below the limit the top gear works.
        let d_ok = hev.demand(47.0, 0.0, 0.0);
        assert!(hev.peek(&d_ok, &ctl(0.0, 4, 600.0), 1.0).is_ok());
    }

    #[test]
    fn reset_soc_roundtrips() {
        let mut hev = hev();
        hev.reset_soc(0.75);
        assert_eq!(hev.soc(), 0.75);
    }
}
