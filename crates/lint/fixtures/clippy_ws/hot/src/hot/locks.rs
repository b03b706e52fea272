//! Fixture: every lock clippy.toml bans, under the hot module's block
//! (what gw-lint's `no-lock` rule planted).

use std::sync::mpsc;
use std::sync::{Condvar, Mutex, RwLock}; //~ clippy::disallowed_types clippy::disallowed_types clippy::disallowed_types

/// A lock taken on the cell path.
pub fn serialized(m: &Mutex<u8>) -> u8 { //~ clippy::disallowed_types
    match m.lock() { //~ clippy::disallowed_methods
        Ok(g) => *g,
        Err(_) => 0,
    }
}

/// A reader-writer lock and a rendezvous.
pub fn shared(r: &RwLock<u8>, c: &Condvar) -> bool { //~ clippy::disallowed_types clippy::disallowed_types
    c.notify_one();
    r.try_read().is_ok()
}

/// A library channel.
pub fn channel() -> bool {
    let (tx, rx) = mpsc::channel::<u8>(); //~ clippy::disallowed_methods
    tx.send(1).is_ok() && rx.try_recv().is_ok()
}
