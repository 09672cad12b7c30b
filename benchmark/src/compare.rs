//! `--compare <a.json> <b.json>`: line up two result sets metric by
//! metric. A result set is a file of the full-result lines this program
//! prints (the first of its two output lines), one per workload and pass;
//! other lines are skipped. `a` is the base (the parent commit, or the
//! first of two runs of one commit), `b` the change.

use crate::metrics::{Better, Metric, Repeat, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::ExitCode;

/// Fields outside `metrics` that must be equal between two runs of one
/// seed: counts, the stream digest, and every virtual-time figure.
const EXACT_FIELDS: [&str; 7] = [
    "seed",
    "requests",
    "completed",
    "cancelled",
    "refused_or_dropped",
    "stream_digest",
    "virtual",
];

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let results: Vec<Value> = text
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|v| v.get("workload").is_some() && v.get("metrics").is_some())
        .collect();
    if results.is_empty() {
        return Err(format!("{path}: no result lines"));
    }
    Ok(results)
}

fn key(result: &Value) -> (String, bool) {
    (
        result["workload"].as_str().unwrap_or_default().to_string(),
        result["trace"].as_bool().unwrap_or(false),
    )
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0usize;
    let mut compared = 0usize;
    for ra in &a {
        let (workload, traced) = key(ra);
        let Some(rb) = b.iter().find(|rb| key(rb) == key(ra)) else {
            println!("{workload} (trace {}): only in {path_a}", u8::from(traced));
            failed += 1;
            continue;
        };
        compared += 1;
        println!("== {workload} (trace {}) ==", u8::from(traced));
        for r in [ra, rb] {
            if r["correct"].as_bool() != Some(true) {
                println!("  FAIL  a run reported correct = false");
                failed += 1;
            }
        }
        for field in EXACT_FIELDS {
            if ra[field] != rb[field] {
                println!(
                    "  FAIL  {field}: {} vs {} (must be equal)",
                    ra[field], rb[field]
                );
                failed += 1;
            }
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        for m in table {
            let value = |r: &Value| r["metrics"][m.name]["value"].as_f64();
            let (Some(x), Some(y)) = (value(ra), value(rb)) else {
                println!("  FAIL  {}: missing", m.name);
                failed += 1;
                continue;
            };
            let worse = worsening(m, x, y);
            let (verdict, limit) = match m.repeat {
                Repeat::Exact if x == y => ("ok", "exact".to_string()),
                Repeat::Exact => ("FAIL", "exact".to_string()),
                Repeat::Within(bound) if worse <= bound => ("ok", format!("{:.0}%", bound * 100.0)),
                Repeat::Within(bound) => ("FAIL", format!("{:.0}%", bound * 100.0)),
                Repeat::Informational => ("info", "-".to_string()),
            };
            if verdict == "FAIL" {
                failed += 1;
            }
            println!(
                "  {verdict:4}  {:44} {x:>14.6} {y:>14.6} {:>8} worse by {:+7.2}%  (limit {limit}, {} is better)",
                m.name,
                m.unit,
                worse * 100.0,
                m.better.as_str()
            );
        }
    }
    if compared == 0 {
        println!("nothing to compare");
        return ExitCode::FAILURE;
    }
    println!("{compared} result(s) compared, {failed} outside their limits");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
