//! Library of standard driving cycles.
//!
//! These are hand-authored piecewise-linear approximations of the official
//! traces, calibrated to the published summary statistics of each cycle
//! (duration, distance, mean and maximum speed, idle fraction, number of
//! stops). They are **not** the official second-by-second data — see
//! `DESIGN.md` ("Substitutions") for why this preserves the behaviour the
//! DAC'15 experiments depend on. The official targets stay beside the
//! traces, compiled for the unit tests that assert calibration.

use crate::cycle::DriveCycle;
use crate::profile::ProfileBuilder;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Published reference statistics of an official driving cycle: the
/// calibration targets the unit tests compare the authored traces with.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
struct PublishedStats {
    /// Official duration, seconds.
    duration_s: f64,
    /// Official distance, kilometers.
    distance_km: f64,
    /// Official mean speed, km/h.
    mean_speed_kmh: f64,
    /// Official maximum speed, km/h.
    max_speed_kmh: f64,
}

/// A standard driving cycle identifier.
///
/// # Examples
///
/// ```
/// use drive_cycle::StandardCycle;
///
/// let udds = StandardCycle::Udds.cycle();
/// assert_eq!(udds.name(), "UDDS");
/// assert!(udds.duration_s() > 1300.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StandardCycle {
    /// EPA Urban Dynamometer Driving Schedule ("city cycle").
    Udds,
    /// EPA Highway Fuel Economy Test.
    Hwfet,
    /// EPA SC03 air-conditioning supplemental cycle.
    Sc03,
    /// New York City Cycle: dense low-speed urban traffic.
    Nycc,
    /// EPA US06 aggressive/high-speed supplemental cycle.
    Us06,
    /// OSCAR project (EU) urban composite cycle.
    Oscar,
    /// MODEM project (EU) urban cycle.
    ModemUrban,
    /// WLTC class-3 (Worldwide harmonized Light vehicles Test Cycle):
    /// low/medium/high/extra-high phases.
    Wltc,
}

impl StandardCycle {
    /// All standard cycles, in a stable order.
    pub fn all() -> [StandardCycle; 8] {
        [
            StandardCycle::Udds,
            StandardCycle::Hwfet,
            StandardCycle::Sc03,
            StandardCycle::Nycc,
            StandardCycle::Us06,
            StandardCycle::Oscar,
            StandardCycle::ModemUrban,
            StandardCycle::Wltc,
        ]
    }

    /// The four cycles used by the paper's evaluation (§5): OSCAR, UDDS,
    /// SC03, HWFET.
    pub fn paper_set() -> [StandardCycle; 4] {
        [
            StandardCycle::Oscar,
            StandardCycle::Udds,
            StandardCycle::Sc03,
            StandardCycle::Hwfet,
        ]
    }

    /// The cycle's conventional name.
    pub fn name(self) -> &'static str {
        match self {
            StandardCycle::Udds => "UDDS",
            StandardCycle::Hwfet => "HWFET",
            StandardCycle::Sc03 => "SC03",
            StandardCycle::Nycc => "NYCC",
            StandardCycle::Us06 => "US06",
            StandardCycle::Oscar => "OSCAR",
            StandardCycle::ModemUrban => "MODEM",
            StandardCycle::Wltc => "WLTC",
        }
    }

    /// Published reference statistics of the official trace.
    #[cfg(test)]
    fn published_stats(self) -> PublishedStats {
        match self {
            StandardCycle::Udds => PublishedStats {
                duration_s: 1369.0,
                distance_km: 11.99,
                mean_speed_kmh: 31.5,
                max_speed_kmh: 91.2,
            },
            StandardCycle::Hwfet => PublishedStats {
                duration_s: 765.0,
                distance_km: 16.45,
                mean_speed_kmh: 77.7,
                max_speed_kmh: 96.4,
            },
            StandardCycle::Sc03 => PublishedStats {
                duration_s: 596.0,
                distance_km: 5.76,
                mean_speed_kmh: 34.8,
                max_speed_kmh: 88.2,
            },
            StandardCycle::Nycc => PublishedStats {
                duration_s: 598.0,
                distance_km: 1.90,
                mean_speed_kmh: 11.4,
                max_speed_kmh: 44.6,
            },
            StandardCycle::Us06 => PublishedStats {
                duration_s: 596.0,
                distance_km: 12.89,
                mean_speed_kmh: 77.9,
                max_speed_kmh: 129.2,
            },
            // OSCAR and MODEM are project-defined EU urban cycles without a
            // single canonical variant; targets below are the ones our
            // approximations are calibrated to.
            StandardCycle::Oscar => PublishedStats {
                duration_s: 560.0,
                distance_km: 3.40,
                mean_speed_kmh: 21.9,
                max_speed_kmh: 61.0,
            },
            StandardCycle::ModemUrban => PublishedStats {
                duration_s: 810.0,
                distance_km: 4.60,
                mean_speed_kmh: 20.4,
                max_speed_kmh: 58.0,
            },
            StandardCycle::Wltc => PublishedStats {
                duration_s: 1800.0,
                distance_km: 23.27,
                mean_speed_kmh: 46.5,
                max_speed_kmh: 131.3,
            },
        }
    }

    /// Builds the 1 Hz speed trace of this cycle.
    pub fn cycle(self) -> DriveCycle {
        let built = match self {
            StandardCycle::Udds => udds(),
            StandardCycle::Hwfet => hwfet(),
            StandardCycle::Sc03 => sc03(),
            StandardCycle::Nycc => nycc(),
            StandardCycle::Us06 => us06(),
            StandardCycle::Oscar => oscar(),
            StandardCycle::ModemUrban => modem_urban(),
            StandardCycle::Wltc => wltc(),
        };
        // hevlint::allow(panic::expect, the eight cycle tables are compile-time constants; emptiness is covered by the standard-cycle tests)
        built.expect("standard cycle definitions are non-empty")
    }
}

impl fmt::Display for StandardCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`StandardCycle`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCycleError(String);

impl fmt::Display for ParseCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown standard cycle name `{}`", self.0)
    }
}

impl std::error::Error for ParseCycleError {}

impl FromStr for StandardCycle {
    type Err = ParseCycleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "UDDS" => Ok(StandardCycle::Udds),
            "HWFET" => Ok(StandardCycle::Hwfet),
            "SC03" => Ok(StandardCycle::Sc03),
            "NYCC" => Ok(StandardCycle::Nycc),
            "US06" => Ok(StandardCycle::Us06),
            "OSCAR" => Ok(StandardCycle::Oscar),
            "MODEM" | "MODEM-URBAN" | "MODEM_URBAN" => Ok(StandardCycle::ModemUrban),
            "WLTC" | "WLTP" => Ok(StandardCycle::Wltc),
            other => Err(ParseCycleError(other.to_string())),
        }
    }
}

type Built = Result<DriveCycle, crate::error::CycleError>;

fn udds() -> Built {
    ProfileBuilder::new("UDDS")
        .idle(20.0)
        .trip(30.0, 10.0, 15.0, 8.0, 20.0)
        // The signature UDDS "first hill" to 91 km/h.
        .trip(91.0, 35.0, 150.0, 30.0, 15.0)
        .trip(50.0, 15.0, 40.0, 12.0, 20.0)
        .trip(40.0, 12.0, 30.0, 10.0, 15.0)
        .trip(45.0, 14.0, 55.0, 11.0, 20.0)
        .trip(35.0, 10.0, 25.0, 9.0, 15.0)
        .trip(55.0, 16.0, 45.0, 13.0, 20.0)
        .trip(40.0, 12.0, 28.0, 10.0, 15.0)
        .trip(30.0, 9.0, 20.0, 8.0, 10.0)
        .trip(48.0, 14.0, 36.0, 12.0, 20.0)
        .trip(42.0, 13.0, 30.0, 10.0, 15.0)
        .trip(38.0, 11.0, 26.0, 9.0, 10.0)
        .trip(52.0, 15.0, 40.0, 12.0, 20.0)
        .trip(34.0, 10.0, 22.0, 8.0, 15.0)
        .trip(44.0, 13.0, 32.0, 11.0, 10.0)
        .trip(36.0, 11.0, 24.0, 9.0, 15.0)
        .trip(28.0, 8.0, 18.0, 7.0, 12.0)
        .idle(29.0)
        .build()
}

fn hwfet() -> Built {
    ProfileBuilder::new("HWFET")
        .idle(5.0)
        .ramp_to(80.0, 30.0)
        .cruise(60.0)
        .ramp_to(96.0, 20.0)
        .cruise(50.0)
        .ramp_to(65.0, 15.0)
        .cruise(60.0)
        .ramp_to(90.0, 20.0)
        .cruise(80.0)
        .ramp_to(70.0, 15.0)
        .cruise(70.0)
        .ramp_to(85.0, 15.0)
        .cruise(90.0)
        .ramp_to(75.0, 10.0)
        .cruise(80.0)
        .ramp_to(88.0, 12.0)
        .cruise(60.0)
        .ramp_to(60.0, 15.0)
        .cruise(30.0)
        .ramp_to(0.0, 28.0)
        .build()
}

fn sc03() -> Built {
    ProfileBuilder::new("SC03")
        .idle(20.0)
        .trip(40.0, 12.0, 25.0, 10.0, 15.0)
        .trip(88.0, 30.0, 40.0, 25.0, 20.0)
        .trip(50.0, 15.0, 35.0, 12.0, 15.0)
        .trip(35.0, 10.0, 22.0, 9.0, 12.0)
        .trip(55.0, 16.0, 38.0, 13.0, 18.0)
        .trip(45.0, 13.0, 30.0, 11.0, 15.0)
        .trip(60.0, 17.0, 40.0, 14.0, 10.0)
        .trip(30.0, 9.0, 15.0, 7.0, 3.0)
        .build()
}

fn nycc() -> Built {
    ProfileBuilder::new("NYCC")
        .idle(25.0)
        .trip(20.0, 8.0, 10.0, 6.0, 20.0)
        .trip(44.0, 15.0, 20.0, 12.0, 25.0)
        .trip(15.0, 6.0, 8.0, 5.0, 18.0)
        .trip(25.0, 9.0, 12.0, 7.0, 22.0)
        .trip(30.0, 10.0, 15.0, 8.0, 20.0)
        .trip(18.0, 7.0, 9.0, 5.0, 15.0)
        .trip(35.0, 12.0, 18.0, 9.0, 25.0)
        .trip(22.0, 8.0, 10.0, 6.0, 20.0)
        .trip(28.0, 9.0, 14.0, 8.0, 18.0)
        .trip(40.0, 13.0, 20.0, 10.0, 15.0)
        .trip(16.0, 6.0, 8.0, 5.0, 22.0)
        .idle(25.0)
        .build()
}

fn us06() -> Built {
    ProfileBuilder::new("US06")
        .idle(5.0)
        .ramp_to(100.0, 25.0)
        .cruise(30.0)
        .ramp_to(129.0, 20.0)
        .cruise(40.0)
        .ramp_to(80.0, 15.0)
        .cruise(30.0)
        .ramp_to(0.0, 20.0)
        .idle(10.0)
        .ramp_to(60.0, 12.0)
        .cruise(20.0)
        .ramp_to(0.0, 12.0)
        .idle(8.0)
        .ramp_to(110.0, 25.0)
        .cruise(60.0)
        .ramp_to(90.0, 10.0)
        .cruise(40.0)
        .ramp_to(120.0, 15.0)
        .cruise(50.0)
        .ramp_to(70.0, 15.0)
        .cruise(25.0)
        .ramp_to(100.0, 15.0)
        .cruise(35.0)
        .ramp_to(0.0, 30.0)
        .idle(29.0)
        .build()
}

fn oscar() -> Built {
    ProfileBuilder::new("OSCAR")
        .idle(15.0)
        .trip(32.0, 10.0, 20.0, 8.0, 15.0)
        .trip(50.0, 15.0, 30.0, 12.0, 20.0)
        .trip(61.0, 18.0, 35.0, 15.0, 18.0)
        .trip(25.0, 8.0, 15.0, 7.0, 15.0)
        .trip(40.0, 12.0, 25.0, 10.0, 20.0)
        .trip(35.0, 11.0, 20.0, 9.0, 15.0)
        .trip(45.0, 14.0, 28.0, 11.0, 18.0)
        .trip(30.0, 9.0, 18.0, 8.0, 10.0)
        .trip(20.0, 7.0, 10.0, 6.0, 23.0)
        .build()
}

fn modem_urban() -> Built {
    ProfileBuilder::new("MODEM")
        .idle(20.0)
        .trip(25.0, 8.0, 12.0, 7.0, 18.0)
        .trip(42.0, 13.0, 22.0, 10.0, 20.0)
        .trip(58.0, 17.0, 60.0, 14.0, 22.0)
        .trip(30.0, 9.0, 15.0, 8.0, 15.0)
        .trip(35.0, 11.0, 18.0, 9.0, 20.0)
        .trip(48.0, 14.0, 25.0, 12.0, 18.0)
        .trip(22.0, 7.0, 10.0, 6.0, 15.0)
        .trip(38.0, 12.0, 20.0, 9.0, 20.0)
        .trip(52.0, 15.0, 28.0, 13.0, 17.0)
        .trip(28.0, 9.0, 14.0, 7.0, 15.0)
        .trip(45.0, 13.0, 24.0, 11.0, 20.0)
        .trip(33.0, 10.0, 16.0, 8.0, 30.0)
        .idle(44.0)
        .build()
}

/// WLTC class 3: four phases of rising speed (low / medium / high /
/// extra-high), 1800 s total.
fn wltc() -> Built {
    ProfileBuilder::new("WLTC")
        // --- Low phase (589 s, urban stop-and-go) ---
        .idle(12.0)
        .trip(40.0, 12.0, 25.0, 10.0, 15.0)
        .trip(56.0, 16.0, 25.0, 14.0, 18.0)
        .trip(32.0, 10.0, 20.0, 8.0, 15.0)
        .trip(45.0, 13.0, 20.0, 11.0, 20.0)
        .trip(50.0, 14.0, 25.0, 12.0, 16.0)
        .trip(30.0, 9.0, 18.0, 8.0, 12.0)
        .trip(38.0, 11.0, 28.0, 9.0, 14.0)
        .trip(35.0, 10.0, 30.0, 9.0, 25.0)
        .idle(75.0)
        // --- Medium phase (433 s) ---
        .ramp_to(60.0, 20.0)
        .cruise(50.0)
        .ramp_to(76.0, 18.0)
        .cruise(45.0)
        .ramp_to(35.0, 15.0)
        .cruise(30.0)
        .ramp_to(0.0, 12.0)
        .idle(15.0)
        .trip(55.0, 15.0, 60.0, 13.0, 20.0)
        .trip(50.0, 14.0, 45.0, 12.0, 29.0)
        .idle(20.0)
        // --- High phase (455 s) ---
        .ramp_to(80.0, 25.0)
        .cruise(100.0)
        .ramp_to(97.0, 15.0)
        .cruise(60.0)
        .ramp_to(60.0, 18.0)
        .cruise(50.0)
        .ramp_to(90.0, 20.0)
        .cruise(50.0)
        .ramp_to(30.0, 25.0)
        .cruise(40.0)
        .ramp_to(0.0, 12.0)
        .idle(40.0)
        // --- Extra-high phase (323 s) ---
        .ramp_to(100.0, 30.0)
        .cruise(40.0)
        .ramp_to(131.0, 25.0)
        .cruise(50.0)
        .ramp_to(110.0, 12.0)
        .cruise(40.0)
        .ramp_to(125.0, 15.0)
        .cruise(30.0)
        .ramp_to(0.0, 45.0)
        .idle(36.0)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CycleStats;

    #[test]
    fn all_cycles_build() {
        for sc in StandardCycle::all() {
            let c = sc.cycle();
            assert!(!c.is_empty());
            assert_eq!(c.name(), sc.name());
        }
    }

    #[test]
    fn durations_match_published_exactly() {
        for sc in StandardCycle::all() {
            let c = sc.cycle();
            let p = sc.published_stats();
            assert!(
                (c.duration_s() - p.duration_s).abs() <= 1.0,
                "{sc}: duration {} vs published {}",
                c.duration_s(),
                p.duration_s
            );
        }
    }

    #[test]
    fn max_speed_within_3_kmh_of_published() {
        for sc in StandardCycle::all() {
            let s = CycleStats::of(&sc.cycle());
            let p = sc.published_stats();
            assert!(
                (s.max_speed_kmh - p.max_speed_kmh).abs() <= 3.0,
                "{sc}: max {} vs published {}",
                s.max_speed_kmh,
                p.max_speed_kmh
            );
        }
    }

    #[test]
    fn mean_speed_within_15_percent_of_published() {
        for sc in StandardCycle::all() {
            let s = CycleStats::of(&sc.cycle());
            let p = sc.published_stats();
            let rel = (s.mean_speed_kmh - p.mean_speed_kmh).abs() / p.mean_speed_kmh;
            assert!(
                rel <= 0.15,
                "{sc}: mean {} vs published {} (rel {rel:.3})",
                s.mean_speed_kmh,
                p.mean_speed_kmh
            );
        }
    }

    #[test]
    fn distance_within_15_percent_of_published() {
        for sc in StandardCycle::all() {
            let s = CycleStats::of(&sc.cycle());
            let p = sc.published_stats();
            let rel = (s.distance_km - p.distance_km).abs() / p.distance_km;
            assert!(
                rel <= 0.15,
                "{sc}: distance {} vs published {} (rel {rel:.3})",
                s.distance_km,
                p.distance_km
            );
        }
    }

    #[test]
    fn urban_cycles_have_substantial_idle() {
        for sc in [
            StandardCycle::Udds,
            StandardCycle::Nycc,
            StandardCycle::Oscar,
        ] {
            let s = CycleStats::of(&sc.cycle());
            assert!(
                s.idle_fraction > 0.10,
                "{sc}: idle fraction {}",
                s.idle_fraction
            );
            assert!(s.stop_count >= 5, "{sc}: stops {}", s.stop_count);
        }
    }

    #[test]
    fn highway_cycle_has_little_idle() {
        let s = CycleStats::of(&StandardCycle::Hwfet.cycle());
        assert!(s.idle_fraction < 0.06);
        assert!(s.stop_count <= 1);
    }

    #[test]
    fn us06_is_most_aggressive() {
        let us06 = CycleStats::of(&StandardCycle::Us06.cycle());
        let udds = CycleStats::of(&StandardCycle::Udds.cycle());
        assert!(us06.max_speed_kmh > udds.max_speed_kmh);
        assert!(us06.mean_positive_specific_power > udds.mean_positive_specific_power * 0.9);
    }

    #[test]
    fn parse_roundtrip() {
        for sc in StandardCycle::all() {
            let parsed: StandardCycle = sc.name().parse().unwrap();
            assert_eq!(parsed, sc);
        }
        assert!("BOGUS".parse::<StandardCycle>().is_err());
        assert_eq!(
            "udds".parse::<StandardCycle>().unwrap(),
            StandardCycle::Udds
        );
    }

    #[test]
    fn paper_set_is_the_four_evaluation_cycles() {
        let names: Vec<_> = StandardCycle::paper_set()
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(names, ["OSCAR", "UDDS", "SC03", "HWFET"]);
    }

    #[test]
    fn cycles_start_and_end_near_rest() {
        for sc in StandardCycle::all() {
            let c = sc.cycle();
            assert!(c.speed_at(0) < 0.5, "{sc} starts moving");
            assert!(c.speed_at(c.len() - 1) < 0.5, "{sc} ends moving");
        }
    }
}
