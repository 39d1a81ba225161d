//! The compression ratio the paper reports: Tables 1 and 2 are ratios of
//! the `|G| = |V| + |E|` size measure.

/// The compression ratio `|Gr| / |G|` of the paper (Exp-1), as a fraction in
/// `[0, 1]`, from the two sizes `|V| + |E|`: the one ratio of both
/// relations (`RCr`, `PCr`). Returns 0 when the original graph is empty.
pub fn compression_ratio(original: usize, compressed: usize) -> f64 {
    if original == 0 {
        return 0.0;
    }
    compressed as f64 / original as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_formatting() {
        assert!((compression_ratio(15, 3) - 3.0 / 15.0).abs() < 1e-9);
        assert_eq!(compression_ratio(0, 3), 0.0);
    }
}
