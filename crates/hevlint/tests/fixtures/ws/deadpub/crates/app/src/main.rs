//! Binary that consumes exactly one of the library's exports.

fn main() {
    let y = used_helper(21.0);
    let _ = y;
    let mut off = 0u32;
    let _ = [1u32, 2].map(|step| 0u32);
}

fn scale(x: f64, gain: f64) -> f64 {
    x
}
