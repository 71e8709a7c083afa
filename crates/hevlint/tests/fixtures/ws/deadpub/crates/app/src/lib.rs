//! Public-API audit fixture: one used export, one dead export, one
//! undocumented dead export, a dead public struct, and three dead
//! exports whose names appear elsewhere only as new locals.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Referenced from `main.rs`, so the audit keeps it.
pub fn used_helper(x: f64) -> f64 {
    x * 2.0
}

/// Documented but referenced nowhere else in the corpus.
pub fn dead_helper(x: f64) -> f64 {
    x + 1.0
}

pub fn undocumented(x: f64) -> f64 {
    x - 1.0
}

/// Referenced by no other file.
pub struct DeadConfig {
    /// Horizon length in steps.
    pub horizon: usize,
}

/// Named elsewhere only by `main.rs`'s `let mut off`, a local binding
/// and no reference to this item.
pub fn off() -> u32 {
    0
}

/// Named elsewhere only by a parameter of `main.rs`'s `scale`, which
/// declares a new local and is no reference to this item.
pub fn gain() -> f64 {
    2.0
}

/// Named elsewhere only by a parameter of a closure in `main.rs`, which
/// declares a new local and is no reference to this item.
pub fn step() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    /// Test-only pub items are outside the audit's scope.
    pub fn exempt() -> usize {
        1
    }

    #[test]
    fn exempt_is_callable() {
        assert_eq!(exempt(), 1);
    }
}
