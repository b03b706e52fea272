//! Fixture benchmark harness: outside the workspace members, but it
//! compiles against them, so its source is a caller.

fn main() {
    assert_eq!(gw_sim::benchmark_called(), 4);
}
