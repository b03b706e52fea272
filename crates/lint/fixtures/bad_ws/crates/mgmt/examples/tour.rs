//! Fixture example: calls every other fixture `pub fn`, so the dead-pub
//! rule stays dark on them and their crates keep their own findings.

fn main() {
    gw_atm::cell_octets();
    gw_fddi::ttrt_ms();
    gw_mgmt::registry();
    gw_mgmt::tick();
    gw_phy::encapsulate(&[]);
    gw_sar::chunk_len(true);
    gw_scene::canonicalize("");
    gw_wire::fast::double(1);
    gw_wire::classify(gw_wire::FrameControl::Token);
    gw_wire::decoys();
}
