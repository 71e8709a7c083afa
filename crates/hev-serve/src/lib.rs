//! A fault-hardened, deterministic fleet control service for the joint
//! HEV controller.
//!
//! ROADMAP item 2 frames the DAC'15 controller as a fleet service:
//! many concurrent vehicle sessions send `(state, demand)` requests and
//! receive controls. This crate is that serving layer, built around the
//! workspace's robustness primitives rather than a network stack — an
//! in-process request/response transport with a versioned wire format
//! ([`wire`]), sharded over the deterministic scoped-thread executor
//! from `hev_control::harness`:
//!
//! * **Bounded admission with deterministic shedding** ([`service`]) —
//!   per-session queues with a fixed capacity; a request arriving at a
//!   full queue is shed with an explicit backpressure verdict. Shedding
//!   is a pure function of queue depth and request order, never of wall
//!   clock or thread timing.
//! * **Deadline budgets in virtual time** ([`session`]) — each request
//!   carries an eval-count budget (the `hev_trace::evals` counter is
//!   the service's clock, so "time" is a pure function of the work
//!   performed and deterministic at every shard count); the session
//!   walks the degradation chain it shares with the supervised
//!   controller ([`hev_control::supervisor::walk`]) — full inner-opt
//!   resolve → myopic argmax → rule-based → limp-home — and never
//!   serves an infeasible or non-finite control.
//! * **Crash isolation and quarantine** ([`service`]) — a panicking
//!   session is caught by the `run_indexed_caught` executor, its queued
//!   requests are dumped as one `flight_dump` line, and the session is
//!   rebuilt with a `RETRY_SEED_TAG`-derived reseed while the shard
//!   keeps serving every other session.
//! * **Hostile-input handling** ([`wire`]) — NaN states, out-of-range
//!   SOC, unknown session ids, and stale epochs are typed errors, never
//!   panics.
//! * **Seeded synthetic fleets with chaos mode** ([`fleet`]) —
//!   heterogeneous vehicles riding the existing fault plans, plus
//!   injected session crashes, malformed requests, and burst overload.
//!
//! # Determinism contract
//!
//! Same seed + same request order ⇒ byte-identical response stream,
//! degradation report, and shed log at every shard count. Admission and
//! response scattering are sequential; the parallel unit is a
//! per-session batch whose content is shard-independent, and eval
//! budgets are differenced within a single task (each task runs
//! entirely on one worker thread). Every serve summary — the
//! degradation rows, the [`ServeReport`] with its health line, and the
//! Prometheus counters — is a fold over the response stream.
//!
//! # Examples
//!
//! ```
//! use hev_serve::{serve, FleetConfig, ServeConfig};
//!
//! let fleet = FleetConfig { sessions: 2, requests: 8, seed: 7, chaos: false };
//! let sessions = hev_serve::fleet::build_sessions(&fleet);
//! let requests = hev_serve::fleet::build_requests(&fleet, sessions.len() as u64);
//! let output = serve(&ServeConfig::default(), &sessions, &requests)?;
//! assert_eq!(output.responses.len(), 8);
//! # Ok::<(), hev_model::ParamError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod fleet;
pub mod report;
pub mod service;
pub mod session;
pub mod wire;

pub use driver::{run_serve_bench, ServeBenchResult};
pub use fleet::FleetConfig;
pub use report::{ServeReport, SERVE_REPORT_VERSION, SHED_DEPTH_BOUNDS};
pub use service::{serve, ServeConfig, ServeOutput, SessionStats};
pub use session::{Session, SessionSpec};
pub use wire::{Request, RequestError, Response, Rung, Verdict, WIRE_VERSION};
