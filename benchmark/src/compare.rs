//! `benchmark compare <a.jsonl> <b.jsonl>`: two sets of run records
//! (the lines `--out` appends), judged metric by metric against the
//! bounds of `BENCHMARK.json`.
//!
//! Every pairing of workload and end-to-end metric gets its own row
//! and one verdict. "Unresolved" means the run-to-run spread is wider
//! than the bound, so the medians cannot be told apart: it is not
//! "unchanged", and it fails the comparison like "worse" does.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use precipice_core::json::Json;

use crate::stats::{median, spread};

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// Spread wider than the bound, and the two sets overlap.
    Unresolved,
    /// The outputs differ where they must be identical.
    Mismatch,
}

impl Verdict {
    pub fn passes(self) -> bool {
        matches!(self, Verdict::Better | Verdict::Unchanged)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Mismatch => "MISMATCH",
        }
    }
}

/// Judges set `b` against set `a` for one metric. `worse_by` is how far
/// `b`'s median is on the wrong side of `a`'s, as a share of `a`'s.
///
/// - Every run of `b` beats every run of `a` (or loses to it): the
///   sets are separated, and the medians decide however wide the
///   spread.
/// - Otherwise a spread (inter-quartile distance over median, the
///   wider of the two sets) above the bound leaves the pair unresolved.
/// - Otherwise the medians decide, with the bound as the threshold.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(med_a), Some(med_b)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_all_better = if higher_is_better {
        min(b) > max(a)
    } else {
        max(b) < min(a)
    };
    let b_all_worse = if higher_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    let by_median = if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    if b_all_better || b_all_worse {
        return by_median;
    }
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if widest > bound {
        Verdict::Unresolved
    } else {
        by_median
    }
}

/// The untraced records of one file, by workload.
type Records = BTreeMap<String, Vec<Json>>;

fn load(path: &str) -> Result<Records, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_workload = Records::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: record lacks \"workload\"", i + 1))?
            .to_owned();
        if record.get("trace").and_then(Json::as_u64) == Some(0) {
            by_workload.entry(workload).or_default().push(record);
        }
    }
    Ok(by_workload)
}

fn values(records: &[Json], metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// True when, seed by seed, every record carries the same result hash
/// and counts — the outputs that must not depend on the run.
fn outputs_identical<'a>(records: impl Iterator<Item = &'a Json>) -> bool {
    let mut by_seed: BTreeMap<u64, String> = BTreeMap::new();
    records.into_iter().all(|r| {
        let seed = r.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let output = format!(
            "{} {}",
            r.get("result_hash").map(Json::to_line).unwrap_or_default(),
            r.get("counts").map(Json::to_line).unwrap_or_default()
        );
        *by_seed.entry(seed).or_insert_with(|| output.clone()) == output
    })
}

/// Compares the two record files and renders the table. `Ok(true)`
/// when every row passes.
pub fn compare(spec_path: &str, a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    let bounds = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{spec_path}: no \"end_to_end\" list"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);

    let mut table = String::new();
    let mut all_pass = true;
    let _ = writeln!(
        table,
        "{:<12} {:<24} {:>5} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "median a", "median b", "change", "spread", "bound"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            let _ = writeln!(table, "{workload:<12} missing from {b_path}");
            all_pass = false;
            continue;
        };
        for m in bounds {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("?");
            let (name, unit) = (text("name"), text("unit"));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (xs, ys) = (values(runs_a, name), values(runs_b, name));
            let verdict = judge(&xs, &ys, text("better") == "higher", bound);
            all_pass &= verdict.passes();
            let (ma, mb) = (
                median(&xs).unwrap_or(f64::NAN),
                median(&ys).unwrap_or(f64::NAN),
            );
            let widest = spread(&xs).unwrap_or(0.0).max(spread(&ys).unwrap_or(0.0));
            let _ = writeln!(
                table,
                "{workload:<12} {:<24} {:>5} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                format!("{name} [{unit}]"),
                format!("{}/{}", xs.len(), ys.len()),
                (mb - ma) / ma * 100.0,
                widest * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        let failed = |runs: &[Json]| -> u64 {
            runs.iter()
                .filter_map(|r| r.get("failed").and_then(Json::as_u64))
                .sum()
        };
        let verdict = match (failed(runs_a), failed(runs_b)) {
            (fa, fb) if fb > fa => Verdict::Worse,
            (fa, fb) if fb < fa => Verdict::Better,
            _ => Verdict::Unchanged,
        };
        all_pass &= verdict.passes() && failed(runs_b) == 0;
        let _ = writeln!(
            table,
            "{workload:<12} {:<24} {:>5} {:>12} {:>12} {:>37}",
            "failed [count]",
            format!("{}/{}", runs_a.len(), runs_b.len()),
            failed(runs_a),
            failed(runs_b),
            verdict.label()
        );
        let identical = outputs_identical(runs_a.iter().chain(runs_b));
        let verdict = if identical {
            Verdict::Unchanged
        } else {
            Verdict::Mismatch
        };
        all_pass &= verdict.passes();
        let _ = writeln!(
            table,
            "{workload:<12} {:<24} {:>68}",
            "result_hash+counts",
            verdict.label()
        );
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(table, "{workload:<12} missing from {a_path}");
        all_pass = false;
    }
    if a.is_empty() {
        return Err(format!("{a_path}: no untraced run records"));
    }
    Ok((table, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [100.0, 100.4, 100.1, 99.8, 100.2];

    #[test]
    fn same_code_reads_unchanged() {
        let b = [100.3, 99.9, 100.0, 100.5, 100.1];
        assert_eq!(judge(&TIGHT_A, &b, false, 0.10), Verdict::Unchanged);
        assert_eq!(judge(&TIGHT_A, &b, true, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn the_bound_separates_worse_from_unchanged_in_the_right_direction() {
        let slower = TIGHT_A.map(|x| x * 1.2);
        assert_eq!(judge(&TIGHT_A, &slower, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&TIGHT_A, &slower, true, 0.10), Verdict::Better);
        let a_bit = TIGHT_A.map(|x| x * 1.05);
        assert_eq!(judge(&TIGHT_A, &a_bit, false, 0.10), Verdict::Unchanged);
        let faster = TIGHT_A.map(|x| x * 0.5);
        assert_eq!(judge(&TIGHT_A, &faster, false, 0.10), Verdict::Better);
        assert_eq!(judge(&TIGHT_A, &faster, true, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_wide_overlapping_spread_is_unresolved_not_unchanged() {
        let noisy_a = [80.0, 120.0, 100.0, 60.0, 140.0];
        let noisy_b = [90.0, 130.0, 100.0, 70.0, 150.0];
        assert_eq!(judge(&noisy_a, &noisy_b, false, 0.10), Verdict::Unresolved);
        // Separated sets are resolved however noisy each one is.
        let far = noisy_a.map(|x| x * 3.0);
        assert_eq!(judge(&noisy_a, &far, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&noisy_a, &far, true, 0.10), Verdict::Better);
        assert_eq!(judge(&[], &noisy_b, false, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn only_better_and_unchanged_pass() {
        assert!(Verdict::Better.passes() && Verdict::Unchanged.passes());
        assert!(!Verdict::Worse.passes());
        assert!(!Verdict::Unresolved.passes());
        assert!(!Verdict::Mismatch.passes());
    }

    #[test]
    fn record_files_are_compared_row_by_row() {
        let dir =
            std::env::temp_dir().join(format!("precipice-compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("BENCHMARK.json");
        std::fs::write(
            &spec,
            r#"{"end_to_end":[{"name":"latency_ms_p50","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let record = |ms: f64, hash: &str, failed: u64| {
            format!(
                r#"{{"workload":"serve_cliff","seed":1,"trace":0,"failed":{failed},"result_hash":"{hash}","counts":{{"events":0}},"metrics":{{"latency_ms_p50":{{"value":{ms},"unit":"ms"}}}}}}"#
            )
        };
        let write = |name: &str, lines: Vec<String>| {
            let path = dir.join(name);
            std::fs::write(&path, lines.join("\n")).unwrap();
            path.to_str().unwrap().to_owned()
        };
        let a = write("a.jsonl", TIGHT_A.map(|x| record(x, "0xab", 0)).to_vec());
        let same = write(
            "b.jsonl",
            TIGHT_A.map(|x| record(x + 0.1, "0xab", 0)).to_vec(),
        );
        let slow = write(
            "c.jsonl",
            TIGHT_A.map(|x| record(x * 1.5, "0xab", 0)).to_vec(),
        );
        let other = write("d.jsonl", TIGHT_A.map(|x| record(x, "0xcd", 0)).to_vec());
        let broke = write("e.jsonl", TIGHT_A.map(|x| record(x, "0xab", 1)).to_vec());
        let spec = spec.to_str().unwrap();
        let verdict = |b: &str| compare(spec, &a, b).unwrap();
        assert!(verdict(&same).1, "{}", verdict(&same).0);
        assert!(!verdict(&slow).1 && verdict(&slow).0.contains("WORSE"));
        assert!(!verdict(&other).1 && verdict(&other).0.contains("MISMATCH"));
        assert!(!verdict(&broke).1);
        assert!(compare(spec, &a, "/nonexistent.jsonl").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
