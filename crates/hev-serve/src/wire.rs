//! The versioned in-process wire format: requests, typed request
//! errors, verdicts, and the JSONL response encoding.
//!
//! The service has no network dependency — a "wire" here is a `Vec` of
//! [`Request`]s in and a `Vec` of [`Response`]s out — but the format is
//! versioned ([`WIRE_VERSION`]) and every response encodes to one JSON
//! line through the deterministic `hev_trace::json` writer, so response
//! streams can be compared byte-for-byte across shard counts.
//!
//! Hostile inputs are part of the format: a request with a NaN state, an
//! out-of-range SOC, an unknown session id, or a stale epoch yields a
//! typed [`RequestError`] verdict, never a panic.

pub use hev_control::Rung;
use hev_model::ControlInput;
use hev_trace::json::Obj;

/// Version of the request/response wire format.
pub const WIRE_VERSION: u32 = 1;

/// A control request from one fleet vehicle session.
///
/// `epoch` pins the request to a session incarnation: `0` means
/// unpinned (always accepted); a non-zero value must match the
/// session's current epoch, which starts at 1 and increments every
/// quarantine reseed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Global index in the request stream (the response keeps it, so
    /// streams can be joined and audited).
    pub index: u64,
    /// Target session id.
    pub session: u64,
    /// Session epoch the client believes (0 = unpinned).
    pub epoch: u64,
    /// Client-reported state of charge, fraction in `[0, 1]`.
    pub soc: f64,
    /// Requested vehicle speed, m/s.
    pub speed_mps: f64,
    /// Requested acceleration, m/s².
    pub accel_mps2: f64,
    /// Road grade, rad.
    pub grade: f64,
    /// Per-request deadline budget in peek-equivalent evaluations
    /// (0 = use the service default).
    pub budget_evals: u64,
    /// Chaos-mode flag: deliberately crash the session worker while
    /// handling this request (exercises the quarantine path).
    pub crash: bool,
}

/// Why a request could not be served: every hostile or stale input maps
/// to one of these, and the service responds with it instead of
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// A state field was NaN or infinite.
    NonFiniteState {
        /// Which request field was non-finite.
        field: &'static str,
    },
    /// The reported SOC was outside `[0, 1]`.
    SocOutOfRange,
    /// No session with the requested id exists.
    UnknownSession,
    /// The request pinned an epoch that is not the session's current one
    /// (the session was quarantine-reseeded since the client last saw it).
    StaleEpoch {
        /// The epoch the request pinned.
        got: u64,
        /// The session's current epoch.
        current: u64,
    },
    /// The session crashed while handling this request (twice: once in
    /// the sharded batch and again on the quarantined replay), so no
    /// control could be produced even after a reseed.
    SessionCrashed,
    /// Even the limp-home tier could not produce a feasible step for
    /// this demand on this plant.
    Unsteppable,
}

impl RequestError {
    /// A stable snake_case code for logs and wire encoding.
    pub fn code(&self) -> &'static str {
        match self {
            Self::NonFiniteState { .. } => "non_finite_state",
            Self::SocOutOfRange => "soc_out_of_range",
            Self::UnknownSession => "unknown_session",
            Self::StaleEpoch { .. } => "stale_epoch",
            Self::SessionCrashed => "session_crashed",
            Self::Unsteppable => "unsteppable",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteState { field } => write!(f, "non-finite request field {field}"),
            Self::SocOutOfRange => write!(f, "reported SOC outside [0, 1]"),
            Self::UnknownSession => write!(f, "unknown session id"),
            Self::StaleEpoch { got, current } => {
                write!(f, "stale epoch {got} (session is at epoch {current})")
            }
            Self::SessionCrashed => write!(f, "session crashed while handling the request"),
            Self::Unsteppable => write!(f, "no feasible control even at the limp-home tier"),
        }
    }
}

impl std::error::Error for RequestError {}

/// How the service disposed of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// A control was produced and committed to the session's plant.
    Served {
        /// The control handed back to the vehicle.
        control: ControlInput,
        /// The ladder tier that produced it.
        rung: Rung,
        /// Peek-equivalent evaluations spent on this request.
        evals: u64,
        /// Plant SOC after committing the step.
        soc_after: f64,
    },
    /// Backpressure: the session's admission queue was full.
    Shed {
        /// Queue depth observed at admission time.
        depth: usize,
    },
    /// The request was malformed, stale, or unserviceable.
    Error(RequestError),
}

/// One response: the request's identity plus the service's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// The request's global stream index.
    pub index: u64,
    /// The session the request addressed.
    pub session: u64,
    /// The disposition.
    pub verdict: Verdict,
}

impl Response {
    /// Encodes the response as one deterministic JSON line (no trailing
    /// newline).
    pub fn to_jsonl(&self) -> String {
        let obj = Obj::new()
            .u64("v", u64::from(WIRE_VERSION))
            .u64("index", self.index)
            .u64("session", self.session);
        match &self.verdict {
            Verdict::Served {
                control,
                rung,
                evals,
                soc_after,
            } => obj
                .str("kind", "served")
                .str("rung", rung.name())
                .u64("evals", *evals)
                .f64("i_bat_a", control.battery_current_a)
                .u64("gear", control.gear as u64)
                .f64("p_aux_w", control.p_aux_w)
                .f64("soc_after", *soc_after)
                .finish(),
            Verdict::Shed { depth } => obj.str("kind", "shed").u64("depth", *depth as u64).finish(),
            Verdict::Error(err) => {
                let obj = obj.str("kind", "error").str("error", err.code());
                match err {
                    RequestError::NonFiniteState { field } => obj.str("field", field).finish(),
                    RequestError::StaleEpoch { got, current } => {
                        obj.u64("got", *got).u64("current", *current).finish()
                    }
                    _ => obj.finish(),
                }
            }
        }
    }
}

/// Validates a request's state fields: every float must be finite and
/// the reported SOC must lie in `[0, 1]`.
pub fn validate_request(req: &Request) -> Result<(), RequestError> {
    for (field, v) in [
        ("soc", req.soc),
        ("speed_mps", req.speed_mps),
        ("accel_mps2", req.accel_mps2),
        ("grade", req.grade),
    ] {
        if !v.is_finite() {
            return Err(RequestError::NonFiniteState { field });
        }
    }
    if !(0.0..=1.0).contains(&req.soc) {
        return Err(RequestError::SocOutOfRange);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Request {
        Request {
            index: 3,
            session: 1,
            epoch: 0,
            soc: 0.6,
            speed_mps: 12.0,
            accel_mps2: 0.4,
            grade: 0.0,
            budget_evals: 0,
            crash: false,
        }
    }

    #[test]
    fn well_formed_request_validates() {
        assert_eq!(validate_request(&request()), Ok(()));
    }

    #[test]
    fn non_finite_fields_are_named() {
        for (field, req) in [
            (
                "soc",
                Request {
                    soc: f64::NAN,
                    ..request()
                },
            ),
            (
                "speed_mps",
                Request {
                    speed_mps: f64::INFINITY,
                    ..request()
                },
            ),
            (
                "accel_mps2",
                Request {
                    accel_mps2: f64::NEG_INFINITY,
                    ..request()
                },
            ),
            (
                "grade",
                Request {
                    grade: f64::NAN,
                    ..request()
                },
            ),
        ] {
            assert_eq!(
                validate_request(&req),
                Err(RequestError::NonFiniteState { field })
            );
        }
    }

    #[test]
    fn out_of_range_soc_is_rejected() {
        for soc in [-0.1, 1.1, 7.0] {
            let req = Request { soc, ..request() };
            assert_eq!(validate_request(&req), Err(RequestError::SocOutOfRange));
        }
        for soc in [0.0, 1.0] {
            let req = Request { soc, ..request() };
            assert_eq!(validate_request(&req), Ok(()));
        }
    }

    #[test]
    fn rung_order_matches_ladder_indices() {
        let rungs = [Rung::Full, Rung::Myopic, Rung::Rule, Rung::LimpHome];
        for (i, r) in rungs.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert!(Rung::Full < Rung::Myopic && Rung::Rule < Rung::LimpHome);
    }

    #[test]
    fn responses_encode_every_verdict_kind() {
        let served = Response {
            index: 0,
            session: 2,
            verdict: Verdict::Served {
                control: ControlInput {
                    battery_current_a: 20.0,
                    gear: 1,
                    p_aux_w: 600.0,
                },
                rung: Rung::Myopic,
                evals: 700,
                soc_after: 0.59,
            },
        };
        assert_eq!(
            served.to_jsonl(),
            "{\"v\":1,\"index\":0,\"session\":2,\"kind\":\"served\",\"rung\":\"myopic\",\
             \"evals\":700,\"i_bat_a\":20.0,\"gear\":1,\"p_aux_w\":600.0,\"soc_after\":0.59}"
        );
        let shed = Response {
            index: 1,
            session: 2,
            verdict: Verdict::Shed { depth: 4 },
        };
        assert_eq!(
            shed.to_jsonl(),
            "{\"v\":1,\"index\":1,\"session\":2,\"kind\":\"shed\",\"depth\":4}"
        );
        let error = Response {
            index: 2,
            session: 9,
            verdict: Verdict::Error(RequestError::StaleEpoch { got: 9, current: 2 }),
        };
        assert_eq!(
            error.to_jsonl(),
            "{\"v\":1,\"index\":2,\"session\":9,\"kind\":\"error\",\"error\":\"stale_epoch\",\
             \"got\":9,\"current\":2}"
        );
    }

    #[test]
    fn error_codes_and_display_are_stable() {
        let errs: [RequestError; 6] = [
            RequestError::NonFiniteState { field: "soc" },
            RequestError::SocOutOfRange,
            RequestError::UnknownSession,
            RequestError::StaleEpoch { got: 1, current: 2 },
            RequestError::SessionCrashed,
            RequestError::Unsteppable,
        ];
        let codes: Vec<&str> = errs.iter().map(RequestError::code).collect();
        assert_eq!(
            codes,
            [
                "non_finite_state",
                "soc_out_of_range",
                "unknown_session",
                "stale_epoch",
                "session_crashed",
                "unsteppable"
            ]
        );
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
