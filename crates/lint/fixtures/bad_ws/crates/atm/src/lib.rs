//! Fixture ATM crate. Hygienic source: its one finding is its manifest,
//! which leaves the workspace lint table out.

/// Hygienic otherwise.
pub fn cell_octets() -> usize {
    53
}
