//! Demo crate root: carries the forbid and keeps stdout quiet.

#![forbid(unsafe_code)]

fn greet() -> &'static str {
    "hi"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_output_is_fine() {
        println!("banned macros are allowed inside cfg(test) regions");
    }
}
