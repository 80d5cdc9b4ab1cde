//! The deterministic E-tables, pinned as text.
//!
//! Each `tests/golden/<e>.txt` is the stdout of
//! `report <e> --deterministic`, which is byte-identical for any worker
//! count, shard count or machine. A refactor that claims unchanged
//! outputs keeps these files equal; a change that moves a table
//! regenerates its file, so the new table shows in the diff. E4 (its
//! 10⁸-node row) and E5 (seconds of long `line` rows) are not pinned
//! here.

use std::process::Command;

/// Runs `report <key> --deterministic` and compares its stdout with the
/// golden file, naming the first differing line and the command that
/// regenerates the file.
fn matches_golden(key: &str) {
    let golden = format!("{}/tests/golden/{key}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args([key, "--deterministic"])
        .output()
        .expect("the report binary runs");
    assert!(out.status.success(), "report {key} failed: {out:?}");
    let got = String::from_utf8(out.stdout).expect("report prints UTF-8");
    if got == want {
        return;
    }
    let first = (want.lines().map(Some).chain([None]))
        .zip(got.lines().map(Some).chain([None]))
        .enumerate()
        .find(|(_, (w, g))| w != g);
    let at = match first {
        Some((i, (w, g))) => format!(
            "line {}:\n  golden: {}\n  report: {}",
            i + 1,
            w.unwrap_or("<end of file>"),
            g.unwrap_or("<end of output>")
        ),
        None => "the line endings".to_owned(),
    };
    panic!(
        "report {key} --deterministic differs from {golden} at {at}\n\
         If the change is intended, regenerate the file:\n  \
         cargo run -q -p precipice-bench --bin report -- {key} --deterministic \
         > crates/bench/tests/golden/{key}.txt"
    );
}

#[test]
fn e1_matches_golden() {
    matches_golden("e1");
}

#[test]
fn e2_matches_golden() {
    matches_golden("e2");
}

#[test]
fn e3_matches_golden() {
    matches_golden("e3");
}

#[test]
fn e6_matches_golden() {
    matches_golden("e6");
}

#[test]
fn e7_matches_golden() {
    matches_golden("e7");
}

#[test]
fn e8_matches_golden() {
    matches_golden("e8");
}

#[test]
fn e9_matches_golden() {
    matches_golden("e9");
}
