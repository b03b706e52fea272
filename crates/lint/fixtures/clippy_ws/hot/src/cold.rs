//! Fixture cold module: no block, so what the hot module may not do is
//! allowed here (the NPE side of the line): dark.

use std::collections::HashMap;
use std::sync::Mutex;

/// Maps, allocation and locks, freely.
pub fn free(m: &Mutex<HashMap<u16, Vec<u8>>>, key: u16) -> usize {
    let mut map = m.lock().unwrap();
    map.entry(key).or_default().push(1);
    format!("{key}").len() + map[&key].clone().len()
}
