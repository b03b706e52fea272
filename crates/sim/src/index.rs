//! A direct-indexed key → slot table that grows to the largest key
//! inserted.
//!
//! The paper's SPP finds a connection's state by indexing table memory
//! with the VCI (§5.3); it does not search. [`SlotIndex`] is that lookup
//! in software: one array read and one compare per lookup, no hashing.
//! Unlike a table sized for the whole 16-bit VCI space (256 KiB of
//! `u32`s), it holds 4 octets per key only up to the largest key ever
//! inserted, so a gateway serving VCIs 100–107 pays for 108 entries.
//! A lookup past the end reads "no slot" and never grows the table;
//! only [`SlotIndex::insert`] does.

// The critical path's discipline (DESIGN.md §8): none of clippy.toml's
// allocations, maps or locks, and no panics. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

/// Sentinel for a key with no slot.
const NO_SLOT: u32 = u32::MAX;

/// A `u16` key (a VCI) → `u32` slot index, grown on insert.
///
/// ```
/// use gw_sim::index::SlotIndex;
///
/// let mut index = SlotIndex::default();
/// assert_eq!(index.get(7), None);
/// index.insert(7, 0);
/// assert_eq!(index.get(7), Some(0));
/// assert_eq!(index.get(u16::MAX), None);
/// assert_eq!(index.remove(7), Some(0));
/// assert_eq!(index.get(7), None);
/// ```
#[derive(Debug, Clone, Default)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct SlotIndex {
    /// Slot per key, [`NO_SLOT`] when the key has none; as long as the
    /// largest key inserted, plus one.
    slots: Vec<u32>,
}

impl SlotIndex {
    /// The slot of `key`, if it has one.
    #[inline]
    pub fn get(&self, key: u16) -> Option<u32> {
        match self.slots.get(usize::from(key)) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// Point `key` at `slot`, growing the table to cover `key`: once per
    /// new key (at most 64 Ki entries), never on a lookup.
    pub fn insert(&mut self, key: u16, slot: u32) {
        assert_ne!(slot, NO_SLOT, "slot {NO_SLOT} is the empty sentinel");
        let i = usize::from(key);
        if self.slots.len() <= i {
            self.slots.resize(i + 1, NO_SLOT);
        }
        self.slots[i] = slot;
    }

    /// Clear `key`'s entry, returning the slot it had. The table keeps
    /// its length.
    #[inline]
    pub fn remove(&mut self, key: u16) -> Option<u32> {
        let entry = self.slots.get_mut(usize::from(key))?;
        match std::mem::replace(entry, NO_SLOT) {
            NO_SLOT => None,
            slot => Some(slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_to_the_largest_key_inserted() {
        let mut index = SlotIndex::default();
        assert!(index.slots.is_empty(), "an empty index holds no memory");
        index.insert(100, 0);
        index.insert(42, 1);
        assert_eq!(index.slots.len(), 101);
        assert_eq!((index.get(100), index.get(42), index.get(43)), (Some(0), Some(1), None));
        index.insert(u16::MAX, 2);
        assert_eq!(index.slots.len(), 1 << 16, "the whole 16-bit space at most");
        assert_eq!(index.get(u16::MAX), Some(2));
        index.insert(42, 3);
        assert_eq!(index.get(42), Some(3), "a second insert overwrites");
    }

    #[test]
    fn lookups_and_removals_past_the_end_do_not_grow() {
        let mut index = SlotIndex::default();
        index.insert(5, 9);
        for key in 0..=u16::MAX {
            if key != 5 {
                assert_eq!(index.get(key), None);
                assert_eq!(index.remove(key), None);
            }
        }
        assert_eq!(index.slots.len(), 6);
        assert_eq!(index.remove(5), Some(9));
        assert_eq!(index.remove(5), None);
        assert_eq!(index.slots.len(), 6, "removal keeps the length");
    }
}
