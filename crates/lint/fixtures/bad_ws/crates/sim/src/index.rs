//! Fixture: a designated hot module whose hot-lint block is commented
//! out, which is no block.
// #![cfg_attr(
//     not(test),
//     deny(
//         clippy::disallowed_methods,
//         clippy::disallowed_types,
//         clippy::disallowed_macros,
//         clippy::unwrap_used,
//         clippy::expect_used,
//         clippy::panic,
//         clippy::todo,
//         clippy::unimplemented,
//         clippy::unreachable
//     )
// )]

pub(crate) fn slot(key: u16) -> u32 {
    u32::from(key)
}
