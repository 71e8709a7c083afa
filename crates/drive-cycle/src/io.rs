//! CSV import/export of driving cycles.
//!
//! The format matches the common dynamometer-trace convention: a header
//! line, then one `time_s,speed_kmh[,grade]` row per sample. Time stamps
//! must be uniformly spaced.

use crate::cycle::{DriveCycle, MPS_TO_KMH};
use crate::error::CycleError;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Serializes a cycle to CSV (`time_s,speed_kmh[,grade]`).
pub fn to_csv_string(cycle: &DriveCycle) -> String {
    // hevlint::allow(float::eq, exact sentinel: any stored grade bit-different from 0.0 must round-trip through the CSV grade column)
    let has_grade = (0..cycle.len()).any(|i| cycle.grade_at(i) != 0.0);
    let mut out = String::with_capacity(cycle.len() * 16);
    out.push_str(if has_grade {
        "time_s,speed_kmh,grade\n"
    } else {
        "time_s,speed_kmh\n"
    });
    for i in 0..cycle.len() {
        let t = i as f64 * cycle.dt();
        let v = cycle.speed_at(i) * MPS_TO_KMH;
        if has_grade {
            let _ = writeln!(out, "{t},{v},{}", cycle.grade_at(i));
        } else {
            let _ = writeln!(out, "{t},{v}");
        }
    }
    out
}

/// Parses a cycle from CSV text (see [`to_csv_string`] for the format).
///
/// Tolerant of real-world exports: a UTF-8 byte-order mark, CRLF line
/// endings, blank lines, and a header on the first non-empty line are
/// all accepted.
///
/// # Errors
///
/// Returns [`CycleError::ParseCsv`] for malformed rows and for
/// non-finite, duplicate, non-monotonic, or non-uniform time stamps
/// (each pointing at the offending 1-based line), plus the usual
/// construction errors.
pub fn from_csv_str(name: impl Into<String>, text: &str) -> Result<DriveCycle, CycleError> {
    // A UTF-8 BOM would otherwise glue itself to the header's first
    // character and defeat the header check below.
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    // (1-based line, time) per sample, so time-stamp diagnostics can
    // point at the exact offending row.
    let mut times: Vec<(usize, f64)> = Vec::new();
    let mut speeds_kmh = Vec::new();
    let mut grades = Vec::new();
    let mut saw_first = false;
    for (line_idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Skip a header on the first non-empty line.
        if !saw_first {
            saw_first = true;
            if trimmed.chars().next().is_some_and(|c| c.is_alphabetic()) {
                continue;
            }
        }
        let line_no = line_idx + 1;
        let mut fields = trimmed.split(',');
        let parse = |s: Option<&str>, what: &str| -> Result<f64, CycleError> {
            s.and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or_else(|| CycleError::ParseCsv {
                    line: line_no,
                    reason: format!("missing or invalid {what}"),
                })
        };
        let t = parse(fields.next(), "time")?;
        // Every comparison against NaN is false, so a non-finite stamp
        // would slip past the ordering and spacing checks below.
        if !t.is_finite() {
            return Err(CycleError::ParseCsv {
                line: line_no,
                reason: format!("non-finite time stamp {t}"),
            });
        }
        times.push((line_no, t));
        speeds_kmh.push(parse(fields.next(), "speed")?);
        if let Some(g) = fields.next() {
            grades.push(parse(Some(g), "grade")?);
        }
    }
    if times.is_empty() {
        return Err(CycleError::Empty);
    }
    // Reject duplicate and non-monotonic stamps before judging spacing,
    // so the error names the actual defect rather than "non-uniform".
    for w in times.windows(2) {
        let (line, t) = w[1];
        let (_, prev) = w[0];
        if (t - prev).abs() <= 1e-9 {
            return Err(CycleError::ParseCsv {
                line,
                reason: format!("duplicate time stamp {t}"),
            });
        }
        if t < prev {
            return Err(CycleError::ParseCsv {
                line,
                reason: format!("non-monotonic time stamp {t} after {prev}"),
            });
        }
    }
    let dt = if times.len() >= 2 {
        times[1].1 - times[0].1
    } else {
        1.0
    };
    for w in times.windows(2) {
        let (line, t) = w[1];
        let (_, prev) = w[0];
        if ((t - prev) - dt).abs() > 1e-6 {
            return Err(CycleError::ParseCsv {
                line,
                reason: format!(
                    "time stamps are not uniformly spaced: step {} differs from {dt}",
                    t - prev
                ),
            });
        }
    }
    let speeds_mps = speeds_kmh.into_iter().map(|v| v / MPS_TO_KMH).collect();
    if grades.is_empty() {
        DriveCycle::from_speeds_mps(name, dt, speeds_mps)
    } else if grades.len() == times.len() {
        DriveCycle::with_grade(name, dt, speeds_mps, grades)
    } else {
        Err(CycleError::ParseCsv {
            line: 0,
            reason: "grade column present on only some rows".to_string(),
        })
    }
}

/// Writes a cycle to a CSV file.
///
/// # Errors
///
/// Returns [`CycleError::Io`] on filesystem errors.
pub fn write_csv(cycle: &DriveCycle, path: impl AsRef<Path>) -> Result<(), CycleError> {
    fs::write(path, to_csv_string(cycle)).map_err(|e| CycleError::Io {
        reason: e.to_string(),
    })
}

/// Reads a cycle from a CSV file; the cycle is named after the file stem.
///
/// # Errors
///
/// Returns [`CycleError::Io`] on filesystem errors, plus the conditions
/// of [`from_csv_str`].
pub fn read_csv(path: impl AsRef<Path>) -> Result<DriveCycle, CycleError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "cycle".to_string());
    let text = fs::read_to_string(path).map_err(|e| CycleError::Io {
        reason: e.to_string(),
    })?;
    from_csv_str(name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::StandardCycle;

    #[test]
    fn csv_roundtrip_flat() {
        let cycle = StandardCycle::Oscar.cycle();
        let csv = to_csv_string(&cycle);
        let back = from_csv_str("OSCAR", &csv).unwrap();
        assert_eq!(back.len(), cycle.len());
        for i in 0..cycle.len() {
            assert!(
                (back.speed_at(i) - cycle.speed_at(i)).abs() < 1e-9,
                "sample {i}"
            );
        }
    }

    #[test]
    fn csv_roundtrip_with_grade() {
        let cycle =
            DriveCycle::with_grade("hill", 1.0, vec![5.0, 6.0, 7.0], vec![0.02, 0.02, -0.01])
                .unwrap();
        let csv = to_csv_string(&cycle);
        assert!(csv.starts_with("time_s,speed_kmh,grade"));
        let back = from_csv_str("hill", &csv).unwrap();
        assert!((back.grade_at(2) + 0.01).abs() < 1e-12);
    }

    #[test]
    fn parses_headerless_csv() {
        let back = from_csv_str("x", "0,36\n1,36\n2,36\n").unwrap();
        assert_eq!(back.len(), 3);
        assert!((back.speed_at(0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_garbage_rows() {
        let err = from_csv_str("x", "time_s,speed_kmh\n0,ten\n").unwrap_err();
        assert!(matches!(err, CycleError::ParseCsv { line: 2, .. }));
    }

    #[test]
    fn rejects_non_uniform_times() {
        let err = from_csv_str("x", "0,10\n1,10\n3,10\n").unwrap_err();
        assert!(matches!(err, CycleError::ParseCsv { line: 3, .. }));
    }

    #[test]
    fn accepts_utf8_bom_before_header() {
        // A BOM'd header used to mis-parse: the header check saw '\u{feff}'
        // instead of 't' and fell through to field parsing.
        let back = from_csv_str("x", "\u{feff}time_s,speed_kmh\n0,36\n1,36\n").unwrap();
        assert_eq!(back.len(), 2);
        assert!((back.speed_at(0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn accepts_crlf_line_endings() {
        let back = from_csv_str("x", "time_s,speed_kmh\r\n0,36\r\n1,36\r\n2,36\r\n").unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn accepts_header_after_blank_lines() {
        let back = from_csv_str("x", "\n\ntime_s,speed_kmh\n0,36\n1,36\n").unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn rejects_duplicate_time_stamp_with_line() {
        let err = from_csv_str("x", "time_s,speed_kmh\n0,10\n1,10\n1,11\n2,12\n").unwrap_err();
        let CycleError::ParseCsv { line, reason } = err else {
            panic!("expected ParseCsv, got {err:?}");
        };
        assert_eq!(line, 4);
        assert!(reason.contains("duplicate"), "reason: {reason}");
    }

    #[test]
    fn rejects_non_monotonic_time_stamp_with_line() {
        let err = from_csv_str("x", "0,10\n1,10\n0.5,11\n").unwrap_err();
        let CycleError::ParseCsv { line, reason } = err else {
            panic!("expected ParseCsv, got {err:?}");
        };
        assert_eq!(line, 3);
        assert!(reason.contains("non-monotonic"), "reason: {reason}");
    }

    #[test]
    fn rejects_non_finite_time_stamp_with_line() {
        for (text, bad_line) in [
            ("0,10\nNaN,10\n2,10\n", 2),
            ("0,10\n1,10\n2,10\nNaN,10\n", 4),
            ("0,10\n1,10\ninf,10\n", 3),
        ] {
            let err = from_csv_str("x", text).unwrap_err();
            let CycleError::ParseCsv { line, reason } = err else {
                panic!("expected ParseCsv, got {err:?}");
            };
            assert_eq!(line, bad_line, "{text:?}");
            assert!(reason.contains("non-finite"), "reason: {reason}");
        }
    }

    #[test]
    fn rejects_empty_text() {
        assert_eq!(
            from_csv_str("x", "time_s,speed_kmh\n").unwrap_err(),
            CycleError::Empty
        );
    }

    #[test]
    fn file_roundtrip() {
        let cycle = StandardCycle::Nycc.cycle();
        let path = std::env::temp_dir().join("drive_cycle_io_test.csv");
        write_csv(&cycle, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.name(), "drive_cycle_io_test");
        assert_eq!(back.len(), cycle.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_csv("/nonexistent/definitely/missing.csv").unwrap_err(),
            CycleError::Io { .. }
        ));
    }
}
