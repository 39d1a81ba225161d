/// The kernel, called by the example.
pub fn fast(n: u32) -> u32 {
    n * (n + 1) / 2
}

/// The definition, summed term by term.
// qpgc-lint: allow(dead-surface) -- oracle of tests::fast_matches_the_definition
pub fn reference(n: u32) -> u32 {
    (1..=n).sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fast_matches_the_definition() {
        for n in 0..50 {
            assert_eq!(super::fast(n), super::reference(n));
        }
    }
}
