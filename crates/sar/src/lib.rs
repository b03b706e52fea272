//! The segmentation-and-reassembly (SAR) protocol of §5, after Escobar
//! & Partridge's proposal (paper reference \[5\]).
//!
//! The SAR protocol carries higher-level protocol frames (MCHIP data and
//! control frames) across an ATM network in 53-octet cells. Each cell's
//! 48-octet information field holds a 3-octet SAR header and 45 octets
//! of frame data (Figure 5). The paper chooses SAR over MCHIP-level
//! fragmentation because it "requires only 3-byte overhead per cell, and
//! can be conveniently implemented in hardware" (§5.1).
//!
//! * [`mod@segment`] — the Fragmentation Logic's algorithm: split a frame
//!   into cells with increasing sequence numbers, setting the F bit on
//!   the last cell and the C bit on control frames, computing the
//!   CRC-10 on the fly (§5.4).
//! * [`reassemble`] — the Reassembly Logic: per-VC state (two buffers
//!   per connection, expected sequence number, reassembly timer),
//!   sequenced-delivery checking, CRC validation with
//!   buffer-overwrite-on-error, lost-cell detection, and timeout flush
//!   (§5.2–§5.3).
//!
//! Frame sizes recovered from reassembly are a multiple of 45 octets —
//! the SAR header has no length field; the MCHIP header's own length
//! field trims the padding (as the paper's layering implies).

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

pub mod reassemble;
pub mod segment;

pub use reassemble::{
    ReassembledFrame, Reassembler, ReassemblyConfig, ReassemblyEvent, ReassemblyStats,
};
pub use segment::{segment, segment_cells, MAX_FRAME_CELLS};
