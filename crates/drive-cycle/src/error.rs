//! Error types for cycle construction and manipulation.

use std::error::Error;
use std::fmt;

/// Error returned when constructing or transforming a [`DriveCycle`] fails.
///
/// [`DriveCycle`]: crate::DriveCycle
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields carry self-describing names
pub enum CycleError {
    /// The speed trace is empty.
    Empty,
    /// A speed sample is negative or non-finite.
    ///
    /// Carries the offending sample index and value.
    InvalidSpeed { index: usize, value: f64 },
    /// A grade sample is non-finite.
    InvalidGrade { index: usize, value: f64 },
    /// The grade vector length does not match the speed vector length.
    GradeLengthMismatch { speeds: usize, grades: usize },
    /// The sample interval is zero, negative, or non-finite.
    InvalidTimeStep(f64),
    /// A slice request is out of bounds or inverted.
    InvalidRange {
        start: usize,
        end: usize,
        len: usize,
    },
    /// A CSV row could not be parsed (line numbers are 1-based; 0 marks
    /// a whole-file problem).
    ParseCsv { line: usize, reason: String },
    /// A filesystem operation failed.
    Io { reason: String },
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::Empty => write!(f, "cycle has no samples"),
            CycleError::InvalidSpeed { index, value } => {
                write!(f, "invalid speed {value} at sample {index}")
            }
            CycleError::InvalidGrade { index, value } => {
                write!(f, "invalid grade {value} at sample {index}")
            }
            CycleError::GradeLengthMismatch { speeds, grades } => write!(
                f,
                "grade length {grades} does not match speed length {speeds}"
            ),
            CycleError::InvalidTimeStep(dt) => write!(f, "invalid time step {dt}"),
            CycleError::InvalidRange { start, end, len } => {
                write!(
                    f,
                    "invalid sample range {start}..{end} for cycle of length {len}"
                )
            }
            CycleError::ParseCsv { line, reason } => {
                if *line == 0 {
                    write!(f, "invalid cycle csv: {reason}")
                } else {
                    write!(f, "invalid cycle csv at line {line}: {reason}")
                }
            }
            CycleError::Io { reason } => write!(f, "cycle file i/o failed: {reason}"),
        }
    }
}

impl Error for CycleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let variants = [
            CycleError::Empty,
            CycleError::InvalidSpeed {
                index: 3,
                value: -1.0,
            },
            CycleError::InvalidGrade {
                index: 0,
                value: f64::NAN,
            },
            CycleError::GradeLengthMismatch {
                speeds: 10,
                grades: 4,
            },
            CycleError::InvalidTimeStep(0.0),
            CycleError::InvalidRange {
                start: 5,
                end: 2,
                len: 10,
            },
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(CycleError::Empty);
        assert!(e.source().is_none());
    }
}
