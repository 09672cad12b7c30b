//! Emit (or gate on) the committed inference benchmark trajectory.
//!
//! `BENCH_inference.json` holds an append-only **trajectory**: one point
//! per landed performance PR. A schema-v3 point records the kernel path,
//! raw ns/iter of every bench, the FMA loop's rate, each expert group's
//! multiply-accumulate rate and `peak_share` (its share of the loop's),
//! the group floors (`peak_share_floor`), and the amortisation ratios.
//! The v2 points before them, gated on seven ratios against a naive
//! decoder, are kept as history.
//!
//! Default mode runs the suite ([`FULL_SAMPLES`] per benchmark, or
//! [`QUICK_SAMPLES`] under `HNLPU_BENCH_QUICK`) and appends a point tagged
//! `--id <tag>` (default `local`), refreshing a trailing point of the same
//! id; its floors come from [`BAND_RUNS`] further quick runs.
//!
//! `--check` is the CI regression gate: it validates the file, re-runs the
//! suite, prints every bench line, and fails (exit 1) unless every group
//! banded by the latest floored point of the runner's own `kernel_path`
//! reads a `peak_share` at or above its floor. A missing, zero or NaN
//! reading fails, and so does an arm with no floored point. The floors
//! hold for the host they were recorded on; a share of the FMA peak
//! depends on the microarchitecture, so another CPU of the same arm needs
//! a point of its own before its verdicts mean anything.
//!
//! ```text
//! cargo run --release -p hnlpu-bench --example bench_baseline -- --id peak-share
//! HNLPU_BENCH_QUICK=1 cargo run --release -p hnlpu-bench --example bench_baseline -- --check
//! ```

use hnlpu::llm::kernels;
use hnlpu_bench::inference::{
    amortisation, bands, expert_group_gmac_per_s, fma_peak_gmac_per_s, gate_point, inference_suite,
    passes, peak_shares, reading, EXPERT_GROUP_SWEEP, FLOOR_KEY, FULL_SAMPLES, QUICK_SAMPLES,
};
use hnlpu_bench::Timings;
use serde_json::Value;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inference.json");
const SCHEMA: &str = "hnlpu-bench/inference/v3";

/// Quick suite runs a recorded point's floors come from.
const BAND_RUNS: usize = 10;

/// A group's floor is this share of its lowest `peak_share` over the
/// [`BAND_RUNS`] quick runs, rounded down. The regression to catch is an
/// arm running at half its width, at about half the healthy share; 0.7 is
/// near the geometric midpoint (1/√2) of the two, so each side keeps about
/// the same relative margin against host noise.
const FLOOR_SHARE: f64 = 0.7;

/// `x` rounded to `1 / scale`.
fn round(x: f64, scale: f64) -> Value {
    Value::Number((x * scale).round() / scale)
}

/// One trajectory point rendered from a suite run and the `peak_share`
/// readings of the quick runs behind its floors.
fn render_point(t: &Timings, id: &str, quick: &[Vec<(String, f64)>]) -> Value {
    let results = t.results();
    let (arm, peak) = (kernels::kernel_path(), fma_peak_gmac_per_s(results));
    let mut fields = Vec::new();
    let mut field = |key: String, value: Value| fields.push((key, value));
    field("id".into(), Value::String(id.into()));
    field("kernel_path".into(), Value::String(arm.into()));
    field("fma_peak_gmac_per_s".into(), round(peak, 100.0));
    // Each expert group's multiply-accumulate rate, its share of the FMA
    // loop's (the gated figure), and its floor.
    let mut floors = Vec::new();
    for ((group, share), &rows) in peak_shares(results).into_iter().zip(EXPERT_GROUP_SWEEP) {
        let gmac = expert_group_gmac_per_s(results, rows);
        let key = |stat| format!("expert_group_{group}_{stat}");
        field(key("gmac_per_s"), round(gmac, 100.0));
        field(key("peak_share"), round(share, 1e3));
        let min = quick
            .iter()
            .map(|run| reading(run, &group))
            .fold(f64::INFINITY, f64::min);
        let floor = (FLOOR_SHARE * min * 1e3).floor() / 1e3;
        floors.push((group, Value::Number(floor)));
    }
    let runs = Value::Number(quick.len() as f64);
    field("peak_share_quick_runs".into(), runs);
    field(FLOOR_KEY.into(), Value::Object(floors));
    for (key, ratio) in amortisation(results) {
        field(key.into(), round(ratio, 1e3));
    }
    // Recorded beside the raw `round_deal` times: how far `skewed` drops
    // depends on how many cores the runner deals across.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    field("round_deal_threads".into(), Value::Number(threads as f64));
    let raw = results.iter().map(|(l, ns)| (l.clone(), round(*ns, 10.0)));
    field("raw_ns_per_iter".into(), Value::Object(raw.collect()));
    Value::Object(fields)
}

/// Parse the committed file into its trajectory, validating shape.
fn load_trajectory() -> Vec<Value> {
    let text = std::fs::read_to_string(BASELINE_PATH)
        .unwrap_or_else(|e| panic!("cannot read {BASELINE_PATH}: {e}"));
    let v: Value = serde_json::from_str(&text).expect("BENCH_inference.json is not valid JSON");
    assert_eq!(v["schema"], Value::String(SCHEMA.into()), "schema tag");
    let traj = v["trajectory"]
        .as_array()
        .expect("trajectory must be an array");
    assert!(!traj.is_empty(), "trajectory must not be empty");
    for point in traj {
        let id = point["id"].as_str().expect("every point needs an id");
        let arm = point["kernel_path"].as_str();
        assert!(arm.is_some(), "point {id}: kernel_path must be a string");
        let Some(Value::Object(raw)) = point.get("raw_ns_per_iter") else {
            panic!("point {id}: raw_ns_per_iter must be an object");
        };
        let positive = raw
            .iter()
            .all(|(_, ns)| ns.as_f64().is_some_and(|ns| ns > 0.0));
        assert!(positive, "point {id}: every raw ns/iter must be positive");
    }
    traj.clone()
}

/// CI gate: structural validation, then measure each expert group's
/// `peak_share` and hold it to the floors of the latest floored point of
/// the runner's arm.
fn check(samples: usize) {
    let traj = load_trajectory();
    let arm = kernels::kernel_path();
    let Some(point) = gate_point(&traj, arm) else {
        eprintln!(
            "BENCH_inference.json has no point with {FLOOR_KEY} for kernel_path '{arm}': \
             record one on a runner of that arm with `bench_baseline -- --id <tag>`"
        );
        std::process::exit(1);
    };
    let id = point["id"].as_str().unwrap_or("?");
    println!(
        "BENCH_inference.json ok: {} trajectory point(s); kernel_path '{arm}' gates against '{id}'",
        traj.len()
    );

    let t = inference_suite(samples);
    let results = t.results();
    println!("  fma loop: {:.2} GMAC/s", fma_peak_gmac_per_s(results));
    let bands = bands(point, &peak_shares(results));
    for band in &bands {
        let verdict = if band.holds() { "ok" } else { "REGRESSION" };
        println!(
            "  {}: peak_share {:.3} (floor {:.3}) {verdict}",
            band.group, band.share, band.floor
        );
    }
    for (key, ratio) in amortisation(results) {
        println!("  {key}: {ratio:.2}x (recorded, not gated)");
    }
    if !passes(&bands) {
        eprintln!("bench regression: a peak_share below its floor in trajectory point '{id}'");
        std::process::exit(1);
    }
    println!("bench check passed");
}

fn emit(id: &str, samples: usize) {
    let t = inference_suite(samples);
    let quick: Vec<Vec<(String, f64)>> = (0..BAND_RUNS)
        .map(|_| peak_shares(inference_suite(QUICK_SAMPLES).results()))
        .collect();
    let point = render_point(&t, id, &quick);
    // Append-only: existing points are never rewritten, except a trailing
    // point with the same id, which this run refreshes.
    let mut traj = if std::path::Path::new(BASELINE_PATH).exists() {
        load_trajectory()
    } else {
        Vec::new()
    };
    if traj.last().is_some_and(|p| p["id"].as_str() == Some(id)) {
        traj.pop();
    }
    let floors = point[FLOOR_KEY].render();
    traj.push(point);
    let doc = Value::Object(vec![
        ("schema".into(), Value::String(SCHEMA.into())),
        ("trajectory".into(), Value::Array(traj)),
    ]);
    let mut text = doc.render_pretty();
    text.push('\n');
    std::fs::write(BASELINE_PATH, text)
        .unwrap_or_else(|e| panic!("cannot write {BASELINE_PATH}: {e}"));
    println!(
        "wrote {BASELINE_PATH}: point '{id}' on {}, {FLOOR_KEY} {floors}",
        kernels::kernel_path()
    );
}

fn main() {
    // The suite's only setting, read once here.
    let samples = if std::env::var_os("HNLPU_BENCH_QUICK").is_some() {
        QUICK_SAMPLES
    } else {
        FULL_SAMPLES
    };
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--check") {
        check(samples);
        return;
    }
    let id = args
        .iter()
        .position(|a| a == "--id")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("local");
    emit(id, samples);
}
