//! Fixture crate with one hot module and one cold one. The hot module
//! carries the block every designated hot module of the real workspace
//! carries; the cold one does not, so the same constructs stay dark
//! there.

pub mod cold;
pub mod hot;
