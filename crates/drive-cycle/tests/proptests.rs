//! Property-based tests of cycle-manipulation invariants.

use drive_cycle::{io, CycleStats, DriveCycle, MicroTripConfig, MicroTripGenerator};
use proptest::prelude::*;

fn arb_speeds() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..45.0, 2..200)
}

proptest! {
    /// Slicing then concatenating reconstructs the cycle.
    #[test]
    fn slice_concat_identity(speeds in arb_speeds(), cut_frac in 0.1f64..0.9) {
        let c = DriveCycle::from_speeds_mps("p", 1.0, speeds).unwrap();
        let cut = ((c.len() as f64 * cut_frac) as usize).clamp(1, c.len() - 1);
        let a = c.slice(0, cut).unwrap();
        let b = c.slice(cut, c.len()).unwrap();
        let joined = a.concat(&b);
        prop_assert_eq!(joined.speeds_mps(), c.speeds_mps());
    }

    /// Resampling to the same rate is the identity; finer resampling
    /// preserves the endpoints and never invents speed extremes.
    #[test]
    fn resample_preserves_range(speeds in arb_speeds(), factor in 1u32..5) {
        let c = DriveCycle::from_speeds_mps("p", 1.0, speeds).unwrap();
        let fine = c.resample(1.0 / factor as f64);
        let max0 = c.speeds_mps().iter().cloned().fold(0.0, f64::max);
        let max1 = fine.speeds_mps().iter().cloned().fold(0.0, f64::max);
        prop_assert!(max1 <= max0 + 1e-9);
        prop_assert!((fine.speed_at(0) - c.speed_at(0)).abs() < 1e-12);
    }

    /// Perturbation stays within the advertised envelope.
    #[test]
    fn perturbation_bounded(speeds in arb_speeds(), seed in 0u64..500, amp in 0.0f64..0.2) {
        let c = DriveCycle::from_speeds_mps("p", 1.0, speeds).unwrap();
        let p = c.perturbed(seed, amp);
        for (&a, &b) in c.speeds_mps().iter().zip(p.speeds_mps()) {
            prop_assert!(b >= 0.0);
            prop_assert!((b - a).abs() <= a * amp + 1e-9);
        }
    }

    /// CSV serialization round-trips every cycle (with or without a
    /// grade column), including under CRLF line endings and a UTF-8 BOM.
    #[test]
    fn csv_roundtrip(speeds in arb_speeds(), with_grade in 0u8..2, decorate in 0u8..2) {
        let (with_grade, decorate) = (with_grade == 1, decorate == 1);
        let c = if with_grade {
            let grades: Vec<f64> = (0..speeds.len()).map(|i| 0.01 * (i % 5) as f64).collect();
            DriveCycle::with_grade("p", 1.0, speeds, grades).unwrap()
        } else {
            DriveCycle::from_speeds_mps("p", 1.0, speeds).unwrap()
        };
        let mut csv = io::to_csv_string(&c);
        if decorate {
            // Real-world exports: BOM + CRLF must parse identically.
            csv = format!("\u{feff}{}", csv.replace('\n', "\r\n"));
        }
        let back = io::from_csv_str("p", &csv).unwrap();
        prop_assert_eq!(back.len(), c.len());
        for i in 0..c.len() {
            prop_assert!((back.speed_at(i) - c.speed_at(i)).abs() < 1e-9);
            prop_assert!((back.grade_at(i) - c.grade_at(i)).abs() < 1e-9);
        }
    }

    /// Cycle statistics are internally consistent for any generated
    /// urban cycle.
    #[test]
    fn generated_cycle_stats_consistent(seed in 0u64..100) {
        let c = MicroTripGenerator::new(MicroTripConfig::urban(), seed).generate("g");
        let s = CycleStats::of(&c);
        prop_assert!(s.mean_speed_kmh <= s.mean_moving_speed_kmh + 1e-9);
        prop_assert!(s.mean_moving_speed_kmh <= s.max_speed_kmh + 1e-9);
        prop_assert!((0.0..=1.0).contains(&s.idle_fraction));
        prop_assert!(s.duration_s as usize == c.len());
        prop_assert!((s.distance_km * 1000.0 - c.distance_m()).abs() < 1e-6);
    }
}
