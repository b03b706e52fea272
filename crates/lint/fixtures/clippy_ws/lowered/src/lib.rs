//! Fixture crate lowering the workspace's `forbid` levels again, as
//! gw-lint's `hygiene` rule planted a root downgrading its own lint:
//! each attempt is a compile error.
#![warn(missing_docs)] //~ E0453
#![allow(unsafe_code, reason = "fixture")] //~ E0453
