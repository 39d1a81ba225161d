/// Called by the example: live.
pub fn served() -> u32 {
    7
}

/// Called by tests alone: dead.
pub fn only_tested() -> u32 {
    served() + 1
}

/// Named only by the field of the same name below: dead.
pub fn limit() -> u32 {
    3
}

/// Read by the example through its field.
pub struct Config {
    /// Shares its name with the dead fn above.
    pub limit: u32,
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_tested_adds_one() {
        assert_eq!(super::only_tested(), 8);
        assert_eq!(super::limit(), 3);
    }
}
