//! `everestc rtl` output is pinned byte for byte: the FSMD text of the
//! cascade's `plume` kernel (one case arm per top-level cycle, 1.5 M
//! states) must hash to the value recorded when the emitter walked every
//! node for every state. Any change to scheduling, binding or emission
//! that moves a single byte shows here.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn cascade_plume_rtl_is_byte_identical() {
    let source = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/cascade.edsl");
    let out = Command::new(env!("CARGO_BIN_EXE_everestc"))
        .arg("rtl")
        .arg(source)
        .arg("plume")
        .output()
        .expect("everestc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout.len(), 92_836_976);
    assert_eq!(fnv1a(&out.stdout), 0x7697_c8d3_0a62_f493);
}
