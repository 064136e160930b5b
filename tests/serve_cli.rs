//! End-to-end check of `everestc serve`: every load row reports the
//! arrivals its day generated, and a day cut short by `--queries` says
//! so, with the hour of the diurnal curve where the cut fell, instead of
//! passing for a full day.

use std::process::Command;

/// The load rows of a `serve` table: `(arrivals, served + shed +
/// rejected, truncation marker)` per offered-load point.
fn rows(stdout: &str) -> Vec<(u64, u64, Option<String>)> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| {
            let (table, marker) = match l.split_once("  TRUNCATED") {
                Some((table, rest)) => (table, Some(format!("TRUNCATED{rest}"))),
                None => (l, None),
            };
            let cols: Vec<u64> =
                table.split_whitespace().skip(2).take(4).map(|c| c.parse().unwrap()).collect();
            (cols[0], cols[1] + cols[2] + cols[3], marker)
        })
        .collect()
}

fn serve(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_everestc"))
        .arg("serve")
        .args(args)
        .output()
        .expect("everestc runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn a_day_cut_by_the_query_cap_is_marked_truncated() {
    // 10¹² virtual seconds would take ~10¹⁶ arrivals; the cap stops
    // every day after 2 000 of them, deep in the night trough.
    let stdout = serve(&["--duration", "1e12", "--queries", "2000"]);
    let rows = rows(&stdout);
    assert_eq!(rows.len(), 3, "{stdout}");
    for (arrivals, accounted, marker) in rows {
        assert_eq!(arrivals, 2_000, "{stdout}");
        assert_eq!(accounted, arrivals, "{stdout}");
        assert_eq!(marker.as_deref(), Some("TRUNCATED at hour 0.00"), "{stdout}");
    }
    assert!(stdout.contains("arrivals"), "missing arrivals column: {stdout}");
}

#[test]
fn a_full_day_is_not_marked() {
    let stdout = serve(&["--duration", "0.01"]);
    let rows = rows(&stdout);
    assert_eq!(rows.len(), 3, "{stdout}");
    for (arrivals, accounted, marker) in rows {
        assert!(arrivals > 0 && arrivals < 50_000, "{stdout}");
        assert_eq!(accounted, arrivals, "{stdout}");
        assert_eq!(marker, None, "{stdout}");
    }
}
