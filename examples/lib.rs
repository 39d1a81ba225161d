//! Shared helpers for the runnable examples.
//!
//! Each example is a standalone binary (`cargo run -p qpgc-examples --bin
//! <name>`); this small library only contains formatting helpers so the
//! binaries stay focused on demonstrating the public API.

#![allow(clippy::print_stdout)]

/// Prints a section header to stdout.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Formats a ratio as a percentage string.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.256), "25.6%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
