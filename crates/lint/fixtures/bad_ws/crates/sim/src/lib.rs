//! Fixture simulation crate. Violations on purpose: `pub` items that no
//! caller outside this crate's own source names. Beside them, one item
//! per kind of caller that keeps a `pub` item live.

/// Dead: named only here and in this crate's own unit test.
pub fn only_self_tested() -> u8 {
    1
}

/// Dead: outside this crate the name appears only in a comment and a
/// string (in the fixture `gw-mgmt`).
pub fn only_mentioned() -> u8 {
    2
}

/// Dead: a constant nothing outside this crate reads.
pub const UNREAD_LIMIT: u8 = 3;

/// Live: the fixture `gw-mgmt` calls it.
pub fn sibling_called() -> u8 {
    only_self_tested() + internal()
}

/// Live: only the fixture's `benchmark/src` names it.
pub fn benchmark_called() -> u8 {
    4
}

/// Live: only this crate's own integration test names it.
pub fn integration_tested() -> u8 {
    5
}

/// Narrowed: not the rule's business.
pub(crate) fn internal() -> u8 {
    UNREAD_LIMIT
}

#[cfg(test)]
mod tests {
    /// Test-only items are out of scope.
    pub fn test_helper() -> u8 {
        super::only_self_tested()
    }

    #[test]
    fn own_unit_tests_are_not_callers() {
        assert_eq!(test_helper(), 1);
    }
}
