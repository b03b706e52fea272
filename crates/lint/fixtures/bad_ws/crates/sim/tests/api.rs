//! Fixture integration test: it can only reach `pub`, so it is a caller.

#[test]
fn integration_tested_is_live() {
    assert_eq!(gw_sim::integration_tested(), 5);
}
