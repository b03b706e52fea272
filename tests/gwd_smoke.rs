//! `gwd smoke` end to end, through the real binary and real loopback
//! sockets: plain smoke is `smoke --scene` on a built-in scene, and
//! merging the two runners changed no byte of what the appliance does.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Run `gwd smoke <args> --snapshot <tmp>`; returns the exit code, the
/// snapshot bytes and stderr.
fn smoke(tag: &str, args: &[&str]) -> (Option<i32>, Vec<u8>, String) {
    let snapshot = scratch(&format!("{tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_gwd"))
        .arg("smoke")
        .args(args)
        .arg("--snapshot")
        .arg(&snapshot)
        .output()
        .expect("spawn gwd");
    let bytes = std::fs::read(&snapshot).unwrap_or_default();
    let _ = std::fs::remove_file(&snapshot);
    (out.status.code(), bytes, String::from_utf8_lossy(&out.stderr).into_owned())
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gwd-smoke-{}-{name}", std::process::id()))
}

/// The built-in scene for `--frames n`, spelled out independently of
/// `gwd` (canonical `gw-scene/1` text).
fn builtin_scene_text(n: usize) -> String {
    let mut s = String::from(
        "# gw-scene/1\nscene smoke\ncongram a station 1 class async\ncongram b station 2 class sync\n",
    );
    for i in 0..n {
        let _ = writeln!(s, "send at_us 0 vc a dir atm len 600 fill 0x{:02x}", (0x40 + i) % 256);
    }
    for i in 0..n {
        let _ = writeln!(s, "send at_us 0 vc a dir fddi len 900 fill 0x{:02x}", (0xa0 + i) % 256);
    }
    s.push_str("expect conservation\nexpect residue_clean\nexpect delivered_all\n");
    s
}

/// `(length, FNV-1a 64)` of the snapshot `gwd smoke --frames 12`
/// writes. It was recorded at b85e223, when plain smoke was its own
/// 215-line runner, and moved twice since, each time because the fault
/// stream (one draw per transmission) fell on other datagrams, so
/// different ones were lost and retransmitted at other pumps: when
/// acks began to ride on data, and when the ack became a header field
/// (datagrams eight octets longer, bare acks spaced on every link, and
/// one retransmission timer for every peer). It moved a third time when
/// a timer began to resend only the head of the unacknowledged tail
/// (retransmissions 130 → 42, so the fault stream fell on other
/// datagrams again). Each time only `time_ns` and the forwarding-latency
/// statistics changed.
const FRAMES_12: (usize, u64) = (7922, 0xa4ee_56fe_bf6c_8995);

#[test]
fn plain_smoke_is_the_builtin_scene_and_renders_the_recorded_snapshot() {
    let (code, plain, stderr) = smoke("plain12", &["--frames", "12"]);
    assert_eq!(code, Some(0), "{stderr}");
    let fnv = plain.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((plain.len(), fnv), FRAMES_12, "smoke --frames 12 snapshot changed");

    // The run prints the scene it ran; the same text through --scene
    // is the same run.
    let text = builtin_scene_text(12);
    assert!(stderr.contains(&text), "built-in scene not printed:\n{stderr}");
    let file = scratch("builtin12.scene");
    std::fs::write(&file, &text).unwrap();
    let (code, via_scene, stderr) = smoke("scene12", &["--scene", file.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(plain == via_scene, "smoke --scene on the built-in scene diverged from plain smoke");
}

/// Fills wrap past 256 frames (`0xA0 + i as u8` once overflowed at
/// frame 96).
#[test]
fn plain_smoke_survives_more_frames_than_there_are_fill_bytes() {
    for frames in ["100", "300"] {
        let (code, _, stderr) = smoke(frames, &["--frames", frames]);
        assert_eq!(code, Some(0), "--frames {frames}:\n{stderr}");
    }
}
