//! Machinery for the tracked benchmark file (`BENCH_sim.json`): reading
//! entry fields back out of a previous run, refusing a baseline taken
//! with another worker count, and the `--compare` regression gate.
//!
//! A bench file is a `schema` tag, a top-level `workers` count (absent
//! from `--deterministic` files) and an `entries` array whose rows are
//! keyed by `entry`; the binary decides which field gates and what unit
//! label the table prints.

use capsule_core::output::Json;

/// Reads `entry -> <field>` out of a previous bench file.
///
/// # Errors
///
/// A human-readable message when the file is unreadable or not valid
/// JSON. Entries missing the field (e.g. a `--deterministic` baseline
/// without timing fields) are silently skipped, matching the compare
/// gate's treatment of new entries.
pub fn try_read_entry_field(path: &str, field: &str) -> Result<Vec<(String, f64)>, String> {
    let json = read_baseline(path)?;
    let mut map = Vec::new();
    if let Some(entries) = json.get("entries").and_then(Json::as_array) {
        for e in entries {
            if let (Some(name), Some(v)) =
                (e.get("entry").and_then(Json::as_str), e.get(field).and_then(Json::as_f64))
            {
                map.push((name.to_string(), v));
            }
        }
    }
    Ok(map)
}

fn read_baseline(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("baseline {path} is not valid JSON: {e}"))
}

/// Checks that the baseline at `path` was measured with `workers`
/// workers: throughput at one worker count says nothing about another.
/// A baseline that records no count (a `--deterministic` file) passes.
///
/// # Errors
///
/// A human-readable message when the counts differ or the file is
/// unreadable or not valid JSON.
pub fn check_workers(path: &str, workers: usize) -> Result<(), String> {
    match read_baseline(path)?.get("workers").and_then(Json::as_u64) {
        Some(recorded) if recorded != workers as u64 => Err(format!(
            "baseline {path} was measured with {recorded} worker(s), this run uses {workers}; \
             set CAPSULE_BENCH_WORKERS={recorded} or measure a new baseline"
        )),
        _ => Ok(()),
    }
}

/// [`try_read_entry_field`] for the binaries: prints the error and exits
/// with status 2 (bad invocation) when the baseline cannot be read.
pub fn read_entry_field(path: &str, field: &str) -> Vec<(String, f64)> {
    try_read_entry_field(path, field).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Rounds to three decimals so the JSON stays diff-friendly.
pub fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// The `--compare` gate: prints a per-entry speedup table of `field`
/// (labelled with `unit`) against a previous bench file at `path` and
/// returns the number of entries that regressed beyond the `noise`
/// fraction. Higher is better — an entry regresses when
/// `current < baseline * (1 - noise)`. Entries absent from the baseline
/// print as `new` and never regress.
pub fn compare_field(
    path: &str,
    field: &str,
    unit: &str,
    noise: f64,
    current: &[(String, f64)],
) -> usize {
    let base = read_entry_field(path, field);
    println!("\ncomparison vs {path} (noise tolerance {:.0}%):", noise * 100.0);
    println!(
        "  {:<24} {:>14} {:>14} {:>9}  verdict",
        "entry",
        format!("baseline {unit}"),
        format!("current {unit}"),
        "speedup"
    );
    let mut regressions = 0usize;
    for (name, cur) in current {
        let Some((_, base_v)) = base.iter().find(|(n, _)| n == name) else {
            println!("  {name:<24} {:>14} {cur:>14.0} {:>9}  new", "-", "-");
            continue;
        };
        let speedup = cur / base_v.max(1e-9);
        let regressed = speedup < 1.0 - noise;
        if regressed {
            regressions += 1;
        }
        println!(
            "  {name:<24} {base_v:>14.0} {cur:>14.0} {speedup:>8.2}x  {}",
            if regressed { "REGRESSED" } else { "ok" }
        );
    }
    if regressions > 0 {
        println!("\n{regressions} entries regressed beyond the noise tolerance");
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("capsule-benchfile-{name}-{}", std::process::id()));
        std::fs::write(&path, contents).expect("write scratch bench file");
        path
    }

    #[test]
    fn round3_keeps_three_decimals() {
        assert_eq!(round3(1.23456), 1.235);
        assert_eq!(round3(2.0), 2.0);
    }

    #[test]
    fn entry_fields_read_back_and_missing_fields_are_skipped() {
        let path = scratch(
            "read",
            r#"{"schema":"capsule-bench-sim/1","entries":[
                {"entry":"a","sim_cycles_per_sec":120.5},
                {"entry":"b"},
                {"entry":"c","sim_cycles_per_sec":7}
            ]}"#,
        );
        let got = try_read_entry_field(path.to_str().expect("utf8 path"), "sim_cycles_per_sec")
            .expect("readable");
        assert_eq!(got, vec![("a".to_string(), 120.5), ("c".to_string(), 7.0)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_and_malformed_baselines_are_errors() {
        let missing = try_read_entry_field("/nonexistent/benchfile.json", "x");
        assert!(missing.is_err_and(|e| e.contains("cannot read")));
        let path = scratch("malformed", "not json");
        let bad = try_read_entry_field(path.to_str().expect("utf8 path"), "x");
        assert!(bad.is_err_and(|e| e.contains("not valid JSON")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_baseline_from_another_worker_count_is_refused() {
        let path = scratch("workers", r#"{"workers":2,"entries":[]}"#);
        let p = path.to_str().expect("utf8 path");
        assert_eq!(check_workers(p, 2), Ok(()));
        assert!(check_workers(p, 1).is_err_and(|e| e.contains("measured with 2 worker(s)")));
        let _ = std::fs::remove_file(&path);
        // A deterministic file records no count and gates nothing.
        let path = scratch("no-workers", r#"{"entries":[]}"#);
        assert_eq!(check_workers(path.to_str().expect("utf8 path"), 1), Ok(()));
        let _ = std::fs::remove_file(&path);
        assert!(check_workers("/nonexistent/benchfile.json", 1).is_err());
    }

    #[test]
    fn the_gate_counts_regressions_beyond_the_noise_band() {
        let path = scratch(
            "gate",
            r#"{"entries":[
                {"entry":"steady","v":100.0},
                {"entry":"regressed","v":100.0},
                {"entry":"boundary","v":100.0}
            ]}"#,
        );
        let p = path.to_str().expect("utf8 path");
        let current = vec![
            ("steady".to_string(), 99.0),    // within noise
            ("regressed".to_string(), 50.0), // far below
            ("boundary".to_string(), 85.0),  // exactly 1 - noise: not regressed
            ("brand-new".to_string(), 1.0),  // absent from baseline
        ];
        assert_eq!(compare_field(p, "v", "rps", 0.15, &current), 1);
        assert_eq!(compare_field(p, "v", "rps", 0.60, &current), 0);
        let _ = std::fs::remove_file(&path);
    }
}
