#![forbid(unsafe_code)]

/// Called by the example: live.
pub fn served() -> u32 {
    7
}

/// Called by tests alone: dead.
pub fn only_tested() -> u32 {
    served() + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_adds_one() {
        assert_eq!(super::only_tested(), 8);
    }
}
