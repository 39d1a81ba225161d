#[test]
fn integration_suites_are_not_callers() {
    assert_eq!(x::only_tested(), 8);
}
