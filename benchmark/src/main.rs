//! Host-time serving benchmark of record.
//!
//! `--workload <name> --seed <u64> --seconds <n> --trace <0|1>` replays a
//! seeded trace through `hnlpu::llm::serve::OnlineServer::run_trace`,
//! verifies the outputs, and prints two lines of JSON on stdout: the full
//! result, then `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when any check failed. See `README.md` beside this
//! package for the metric tables.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use json::{count, object, text};
use metrics::Values;
use run::{Rep, Summary};
use serde_json::Value;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::Failures;
use workloads::Workload;

/// Seed used when none is given; the recorded baseline was taken on it.
const DEFAULT_SEED: u64 = 2026;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 15;
/// Fewest measured repetitions behind a median, however slow the host.
const MIN_REPETITIONS: usize = 3;

const USAGE: &str = "usage:
  hnlpu-serving-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
  hnlpu-serving-benchmark --compare <a.json> <b.json>
  hnlpu-serving-benchmark --manifest
workloads: decode_steady prefill_long shared_prefix_chat overload_chaos";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    Compare(String, String),
    Manifest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--manifest" => return Ok(Command::Manifest),
            "--compare" => return Ok(Command::Compare(value()?, value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Manifest) => {
            println!("{}", metrics::manifest(RUN_SECONDS).render_pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Ok(Command::Run(args)) => run_workload(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// What one invocation measured, before it is printed.
pub struct Outcome {
    pub values: Values,
    /// The served run every repetition must reproduce.
    pub summary: Summary,
    /// Requests submitted over all measured replays.
    pub attempted: usize,
    pub failures: Failures,
    /// Quartiles, sample counts and other figures printed beside the
    /// metrics.
    pub detail: Vec<(&'static str, Value)>,
}

fn run_workload(args: &Args) -> ExitCode {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        layers::traced_pass(w, args.seed, budget)
    } else {
        end_to_end(w, args.seed, budget)
    };
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let correct = outcome.failures.is_empty();
    let rendered = outcome.values.render(table);

    let s = &outcome.summary;
    let full = [
        ("workload", text(w.name)),
        ("model", text(w.model.name())),
        ("seed", Value::Number(args.seed as f64)),
        ("weight_seed", Value::Number(workloads::WEIGHT_SEED as f64)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Number(args.seconds as f64)),
        ("host", host_fingerprint()),
        ("requests", count(s.attempted)),
        ("completed", count(s.completed)),
        ("cancelled", count(s.cancelled)),
        ("refused_or_dropped", count(s.refused_or_dropped())),
        ("stream_digest", text(&format!("{:016x}", s.digest))),
        ("correct", Value::Bool(correct)),
        (
            "failed_checks",
            Value::Array(outcome.failures.notes.iter().map(|n| text(n)).collect()),
        ),
        ("metrics", rendered.clone()),
    ];
    println!(
        "{}",
        object(full.into_iter().chain(outcome.detail)).render()
    );
    println!(
        "{}",
        object([
            ("correct", Value::Bool(correct)),
            ("attempted", count(outcome.attempted.max(1))),
            ("failed", count(outcome.failures.mismatches)),
            ("metrics", rendered),
        ])
        .render()
    );
    for note in &outcome.failures.notes {
        eprintln!("check failed: {note}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `nproc`, the kernel realisation and the compiler: host-time numbers
/// mean nothing without them.
fn host_fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object([
        ("nproc", count(nproc)),
        ("kernel_path", text(hnlpu::llm::kernels::kernel_path())),
        ("rustc", text(env!("BENCH_RUSTC_VERSION"))),
    ])
}

/// `{"median", "q1", "q3", "n"}` of a timing sample.
pub fn spread(samples: &[f64]) -> Value {
    let (q1, q3) = stats::quartiles(samples);
    object([
        ("median", Value::Number(stats::median(samples))),
        ("q1", Value::Number(q1)),
        ("q3", Value::Number(q3)),
        ("n", count(samples.len())),
    ])
}

/// The untraced pass: one warm-up repetition, then repetitions (set-up +
/// one timed `run_trace`) until `budget` has passed, then verification.
fn end_to_end(w: &Workload, seed: u64, budget: Duration) -> Outcome {
    let warm_up = run::repetition(w, seed);
    let reference = Summary::of(&warm_up.trace, &warm_up.replay);
    let mut failures = Failures::default();

    let started = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPETITIONS || started.elapsed() < budget {
        let rep = run::repetition(w, seed);
        setups.push(rep.setup_s);
        walls.push(rep.replay.wall_s);
        if Summary::of(&rep.trace, &rep.replay) != reference {
            failures.mismatches += reference.attempted;
            failures.note(format!(
                "repetition {} served a different run than the warm-up (digest or virtual-time statistics moved)",
                walls.len()
            ));
        }
    }
    let peak_rss_mib = run::peak_rss_mib();

    // Verification, outside the timed region, on the warm-up's outputs
    // (every repetition was just shown to equal them).
    let Rep { trace, replay, .. } = &warm_up;
    let executor = replay.server.engine().executor();
    verify::streams(
        trace,
        replay,
        |index, n| Some(executor.generate_greedy(&trace.requests[index].prompt, n)),
        &mut failures,
    );
    verify::ledgers(replay, &mut failures);
    if w.is_fault_free() {
        let served = &replay.outcome.report.plans;
        verify::plans(
            served,
            &verify::offline_plans(w, trace, served).1,
            &mut failures,
        );
    }
    let slo = &replay.outcome.report.slo;
    workloads::self_check(w, &reference, slo, &mut failures);

    let wall_s = stats::median(&walls);
    let mut values = Values::default();
    values.set("setup_s", stats::median(&setups));
    values.set(
        "served_tokens_per_s",
        reference.served_tokens as f64 / wall_s,
    );
    values.set("peak_rss_mib", peak_rss_mib);
    values.set("sim_ttft_p50_ms", reference.ttft_p50_ms);
    values.set("sim_ttft_tail_ms", reference.ttft_tail.value);
    values.set("sim_decode_tokens_per_s", slo.decode_tokens_per_s_virtual);
    values.set("sim_makespan_s", slo.makespan_s);
    values.set("slo_goodput_share", reference.goodput_share);

    let detail = vec![
        ("setup_s_samples", spread(&setups)),
        ("replay_wall_s_samples", spread(&walls)),
        (
            "served_tokens",
            Value::Number(reference.served_tokens as f64),
        ),
        (
            "virtual",
            reference.detail(failures.mismatches, w.scheduler().round_s()),
        ),
    ];
    Outcome {
        values,
        attempted: reference.attempted * walls.len(),
        summary: reference,
        failures,
        detail,
    }
}
