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

/// A top-level block that issues on three unit kinds. The RTL declares
/// its units from `Binding::allocation`, an ordered map, so the text is
/// the same in every process: hash-map order used to differ per run.
#[test]
fn unit_declarations_are_identical_across_processes() {
    let dir = std::env::temp_dir().join(format!("everest-rtl-units-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("mixed.edsl");
    std::fs::write(
        &source,
        "kernel mixed(a: f64, b: f64, c: f64) -> f64 {\n    return a * b + c / a;\n}\n",
    )
    .unwrap();
    let emit = || {
        let out = Command::new(env!("CARGO_BIN_EXE_everestc"))
            .arg("rtl")
            .arg(&source)
            .arg("mixed")
            .output()
            .expect("everestc runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let first = emit();
    let second = emit();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(fnv1a(&first), fnv1a(&second), "RTL differs between two processes");
    let units: Vec<&str> = std::str::from_utf8(&first)
        .unwrap()
        .lines()
        .filter_map(|l| l.trim().strip_prefix("// functional unit: "))
        .collect();
    assert_eq!(units, ["fadd #0", "fmul #0", "fdiv #0"]);
}
