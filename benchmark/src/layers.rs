//! The traced pass: per-layer attribution from outside.
//!
//! Each layer (layer = module name) is measured by calling its public
//! functions on the inputs the served run gave it, inside a span, or by
//! reading its public reports. The pass runs separately from the untraced
//! repetitions; end-to-end numbers never come from here.

use crate::json::{object, text};
use crate::metrics::Values;
use crate::run::{self, Summary};
use crate::stats;
use crate::trace::Tracer;
use crate::verify::{self, Failures};
use crate::workloads::{self, Model, Trace, Workload};
use crate::{spread, Outcome};
use hnlpu::llm::dataflow::GRID;
use hnlpu::llm::fault::FaultPlan;
use hnlpu::llm::kernels::{matmul_into, matvec_into};
use hnlpu::llm::sampler::argmax;
use hnlpu::llm::scratch::MAX_PREFILL_PANEL;
use hnlpu::llm::tensor::dot;
use hnlpu::llm::{
    CommCounters, DataflowExecutor, KvCache, PageBuf, PrefixCache, PrefixCacheConfig, SloReport,
    Transformer,
};
use hnlpu::model::{ModelWeights, PackedFp4Matrix};
use hnlpu::sim::RoundPlan;
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` the pass spends on interleaved served and offline
/// replays; the layer calibrations after them take a fixed amount of work,
/// not of time.
const REPLAY_BUDGET_SHARE: f64 = 0.5;
/// Sequences the single-device reference transformer also runs, for
/// `dataflow.placement_overhead`.
const REFERENCE_SEQUENCES: usize = 8;
const MIB: f64 = 1024.0 * 1024.0;

pub fn traced_pass(w: &Workload, seed: u64, budget: Duration) -> Outcome {
    let mut t = Tracer::new(w.name);
    let mut v = Values::default();
    let mut failures = Failures::default();

    let (trace, generate_s) = t.span("workload.generate", |_| w.generate(seed));
    let (weights, materialize_s) = t.span("model.materialize", |_| w.model.materialize());
    v.set("workload.generate_s", generate_s);
    v.set("workload.requests", trace.requests.len() as f64);
    v.set("workload.prompt_tokens", trace.prompt_tokens() as f64);
    v.set(
        "workload.decode_tokens_requested",
        trace.decode_tokens_requested() as f64,
    );
    v.set(
        "workload.shared_prompt_share",
        trace.shared_prompt_tokens as f64 / trace.prompt_tokens() as f64,
    );
    v.set("model.materialize_s", materialize_s);
    v.set(
        "model.packed_weight_mib",
        weights.resident_weight_bytes() as f64 / MIB,
    );

    // The first replay is the warm-up, and the served run every later
    // replay of the pass must reproduce.
    let server = || w.server(w.engine(weights.clone()), &trace, trace.faults.clone());
    let first = run::replay(server(), &trace);
    let summary = Summary::of(&trace, &first);
    let slo = first.outcome.report.slo.clone();
    let served_plans = &first.outcome.report.plans;

    // scheduler: the offline plan on the token-count view of the trace.
    let ((timing, offline), plan_s) = t.span("scheduler.plan", |t| {
        let planned = verify::offline_plans(w, &trace, served_plans);
        t.count("rounds", planned.1.len() as f64);
        planned
    });
    if w.is_fault_free() {
        verify::plans(served_plans, &offline, &mut failures);
    }
    let analytical = timing.decoded_tokens as f64 / timing.makespan_s;
    v.set("scheduler.plan_s", plan_s);
    v.set(
        "scheduler.plan_us_per_round",
        plan_s * 1e6 / offline.len() as f64,
    );
    v.set("scheduler.rounds", offline.len() as f64);
    v.set("scheduler.mean_occupancy", timing.mean_occupancy);
    v.set("scheduler.analytical_decode_tokens_per_s", analytical);
    v.set(
        "scheduler.analytical_over_served",
        analytical / slo.decode_tokens_per_s_virtual,
    );

    // serve and batch, interleaved so host noise hits both alike: an
    // untraced replay, a traced one (inside a span, events drained and
    // summarised inside it), then the same schedule replayed offline with
    // no server around it. Traced over untraced is the tracing overhead;
    // serve less batch is what the server adds around the engine.
    let engine = w.engine(weights.clone());
    let (mut walls, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut batches = Vec::new();
    let started = Instant::now();
    while batches.len() < 2 || started.elapsed() < budget.mul_f64(REPLAY_BUDGET_SHARE) {
        let plain = run::replay(server(), &trace);
        let fresh = server();
        let ((replay, replayed), span_s) = t.span("serve.run_trace", |t| {
            let replay = run::replay(fresh, &trace);
            let summary = Summary::of(&trace, &replay);
            t.count("rounds", replay.outcome.report.slo.rounds as f64);
            (replay, summary)
        });
        walls.extend([plain.wall_s, replay.wall_s]);
        untraced.push(plain.wall_s);
        traced.push(span_s);
        if Summary::of(&trace, &plain) != summary || replayed != summary {
            failures.mismatches += summary.attempted;
            failures.note(format!(
                "replay pair {} served a different run than the first (digest or virtual-time statistics moved)",
                traced.len()
            ));
        }
        let (batch, _) = t.span("batch.execute_plan", |_| match w.page_budget {
            None => engine.execute_plan(&trace.requests, &offline),
            // Plans that charge only unmatched suffixes need the engine's
            // own prefix cache, which `execute_plan` does not take: the
            // paged engine plans and executes in one call (unbounded page
            // budget).
            Some(_) => engine
                .run_with_scheduler(&trace.requests, &w.scheduler())
                .map(|(report, _)| report),
        });
        batches.push(batch.expect("the offline schedule of a valid trace executes"));
    }
    let replay_wall_s = stats::median(&walls);
    let batch_wall_s = stats::median(&batches.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let batch = &batches[0];
    let batch_tokens = (batch.prefill_tokens + batch.decoded_tokens) as f64;
    let plans = if w.is_fault_free() {
        served_plans
    } else {
        &offline
    };
    v.set("batch.execute_plan_s", batch_wall_s);
    v.set("batch.tokens_per_s", batch_tokens / batch_wall_s);
    v.set(
        "batch.mean_slots_per_round",
        mean(plans, RoundPlan::used_slots),
    );
    v.set(
        "batch.mean_decode_batch",
        mean(plans, |p| p.decode.len() as u64),
    );
    v.set("batch.peak_resident", batch.peak_resident as f64);
    v.set("batch.prefill_panels", batch.prefill_panels as f64);
    v.set(
        "batch.mean_panel_tokens",
        batch.prefill_tokens as f64 / batch.prefill_panels.max(1) as f64,
    );

    // dataflow: every sampled sequence alone, prefill then decode. The
    // same streams are the reference the served outputs are checked
    // against, so the pass generates nothing twice.
    let executor = engine.executor();
    let stride = match w.model {
        Model::TestDataflow => 1,
        Model::Bench256 => 4,
    };
    let (sequential, _) = t.span("dataflow.sequential", |t| {
        sequential(executor, &trace, stride, t)
    });
    verify::streams(
        &trace,
        &first,
        |index, n| (index % stride == 0).then(|| sequential[index / stride].tokens[..n].to_vec()),
        &mut failures,
    );
    verify::ledgers(&first, &mut failures);
    workloads::self_check(w, &summary, &slo, &mut failures);

    let sum = |f: fn(&SequenceRun) -> f64| sequential.iter().map(f).sum::<f64>();
    let prefill_tokens = sum(|s| s.prompt_tokens as f64);
    let decode_steps = sum(|s| s.decode_steps as f64);
    let prefill_ns = sum(|s| s.prefill_s) * 1e9 / prefill_tokens;
    let decode_ns = ratio(sum(|s| s.decode_s) * 1e9, decode_steps);
    let sequential_total_s = sum(|s| s.prefill_s + s.decode_s) * stride as f64;
    let comm: CommCounters = sequential.iter().map(|s| s.comm).sum();
    let tokens = prefill_tokens + decode_steps;
    v.set("dataflow.prefill_ns_per_token", prefill_ns);
    v.set("dataflow.decode_ns_per_token", decode_ns);
    v.set("dataflow.comm_bytes_per_token", comm.bytes as f64 / tokens);
    v.set(
        "dataflow.all_reduces_per_token",
        (comm.all_reduces + comm.all_chip_all_reduces) as f64 / tokens,
    );
    v.set("dataflow.sequential_total_s", sequential_total_s);
    v.set(
        "batch.speedup_vs_sequential",
        sequential_total_s / batch_wall_s,
    );

    // One sequence at two fixed contexts: the slope is attention plus the
    // KV read, everything else in a step is context-free.
    let ctx16 = decode_ns_at_context(executor, 16, &mut t);
    let ctx256 = decode_ns_at_context(executor, 256, &mut t);
    let attn_ns_per_position = (ctx256 - ctx16) / 240.0;
    v.set("dataflow.decode_ns_per_token_ctx16", ctx16);
    v.set("dataflow.decode_ns_per_token_ctx256", ctx256);
    v.set("dataflow.attn_ns_per_ctx_position", attn_ns_per_position);

    // reference: the single-device transformer on the first few sampled
    // sequences, against the dataflow executor on the same ones.
    let head = &sequential[..sequential.len().min(REFERENCE_SEQUENCES)];
    let reference = reference(&weights, &trace, head, stride, &mut t);
    let head_s: f64 = head.iter().map(|s| s.prefill_s + s.decode_s).sum();
    v.set("reference.prefill_ns_per_token", reference.prefill_ns);
    v.set("reference.decode_ns_per_token", reference.decode_ns);
    v.set("dataflow.placement_overhead", head_s / reference.total_s);

    // kernels and sampler: direct calls on the model's own tensors.
    let sampler_ns = sampler_ns(w.model.config().vocab_size, &mut t);
    v.set("sampler.greedy_ns_per_token", sampler_ns);
    let k = kernels(&weights, &mut t);
    v.set("kernels.matvec_attn_ns", k.attn_ns);
    v.set("kernels.matvec_expert_ns", k.expert_ns);
    v.set("kernels.matvec_unembed_ns", k.unembed_ns);
    v.set("kernels.matmul_panel64_ns_per_token", k.panel_ns_per_token);
    v.set("kernels.matvec_gbytes_per_s", k.decode_bytes / k.decode_ns);
    v.set("kernels.matvec_gflops", k.decode_flops / k.decode_ns);
    v.set("kernels.bytes_per_decode_token", k.decode_bytes);
    v.set("kernels.flops_per_decode_token", k.decode_flops);
    let decode_step_share = ratio(k.decode_ns, decode_ns);
    v.set("kernels.decode_step_share", decode_step_share);
    v.set(
        "kernels.prefill_step_share",
        ratio(k.panel_ns_per_token, prefill_ns),
    );

    kv_cache(w, &trace, &mut t, &mut v, &mut failures);
    v.set(
        "kv_cache.hit_rate",
        ratio(slo.prefix.hits as f64, slo.prefix.lookups as f64),
    );
    v.set(
        "kv_cache.reused_position_share",
        slo.prefix.reused_positions as f64 / trace.prompt_tokens() as f64,
    );
    let committed_pages = slo.prefix.committed_blocks * (GRID * GRID) as u64;
    v.set(
        "kv_cache.committed_blocks",
        slo.prefix.committed_blocks as f64,
    );
    v.set("kv_cache.evicted_pages", slo.prefix.evicted_pages as f64);
    v.set(
        "kv_cache.evicted_per_committed_page",
        ratio(slo.prefix.evicted_pages as f64, committed_pages as f64),
    );
    v.set(
        "kv_cache.peak_kv_logical_mib",
        slo.peak_kv_bytes_fp16 as f64 / MIB,
    );
    v.set(
        "kv_cache.peak_kv_owned_mib",
        slo.peak_kv_owned_bytes_fp16 as f64 / MIB,
    );
    v.set(
        "kv_cache.owned_over_logical",
        ratio(
            slo.peak_kv_owned_bytes_fp16 as f64,
            slo.peak_kv_bytes_fp16 as f64,
        ),
    );

    // serve: what the server adds around the engine. Each offline replay
    // is paired with the served replays that ran next to it, so slow host
    // noise cancels; its wall is scaled from the tokens it processed to
    // the tokens the served run processed, at the sequential cost of each
    // kind (the scale is exactly 1 on a fault-free dense workload).
    let cost =
        |prefill: u64, decoded: u64| prefill as f64 * prefill_ns + decoded as f64 * decode_ns;
    let engine_scale = cost(slo.prefill_tokens, slo.decoded_tokens)
        / cost(batch.prefill_tokens, batch.decoded_tokens);
    let selfs: Vec<f64> = batches
        .iter()
        .zip(walls.chunks(2))
        .map(|(b, pair)| (pair[0] + pair[1]) / 2.0 - b.wall_s * engine_scale)
        .collect();
    let self_s = stats::median(&selfs);
    let engine_s = replay_wall_s - self_s;
    v.set("serve.replay_wall_s", replay_wall_s);
    v.set("serve.replay_wall_iqr_share", stats::iqr_share(&walls));
    v.set(
        "serve.us_per_round",
        replay_wall_s * 1e6 / slo.rounds as f64,
    );
    v.set("serve.rounds", slo.rounds as f64);
    v.set("serve.prefill_tokens", slo.prefill_tokens as f64);
    v.set("serve.decoded_tokens", slo.decoded_tokens as f64);
    v.set("serve.self_s", self_s);
    v.set("serve.self_share", self_s / replay_wall_s);
    v.set("serve.queue_wait_p50_ms", summary.queue_wait_p50_ms);
    v.set("serve.queue_wait_tail_ms", summary.queue_wait_tail.value);
    v.set("serve.peak_resident", slo.peak_resident as f64);
    v.set(
        "serve.events_per_round",
        summary.events as f64 / slo.rounds as f64,
    );
    v.set("serve.rejected", slo.rejected as f64);
    v.set("serve.cancelled", slo.cancelled as f64);
    v.set("serve.completed", slo.completed as f64);

    // Down the tree serve > batch > dataflow > {kernels, attention slope,
    // sampler}: the engine's share of the replay, split the way the
    // sequential profile splits, less the named leaves.
    let decode_weight = sum(|s| s.decode_s) / sum(|s| s.prefill_s + s.decode_s);
    let mean_context = ratio(
        sum(|s| (s.prompt_tokens as f64 + s.decode_steps as f64 / 2.0) * s.decode_steps as f64),
        decode_steps,
    );
    let named = decode_weight
        * (decode_step_share + ratio(attn_ns_per_position * mean_context + sampler_ns, decode_ns))
        + (1.0 - decode_weight) * ratio(k.panel_ns_per_token, prefill_ns);
    v.set(
        "serve.unattributed_share",
        (engine_s / replay_wall_s) * (1.0 - named.min(1.0)),
    );

    fault_counters(&slo, &mut v);
    let (healthy_wall_s, host_overhead_share) = if w.is_fault_free() {
        // Every replay of a fault-free workload is its own healthy twin.
        (untraced[0], 0.0)
    } else {
        let faulted = (&slo, replay_wall_s);
        healthy_twin(w, &trace, &weights, faulted, &mut t, &mut failures)
    };
    v.set("fault.healthy_replay_wall_s", healthy_wall_s);
    v.set("fault.host_overhead_share", host_overhead_share);

    v.set("failed_share", summary.failed_share(failures.mismatches));
    v.set(
        "trace_overhead_share",
        // Paired too: each traced replay against the untraced one before it.
        stats::median(
            &traced
                .iter()
                .zip(&untraced)
                .map(|(t, u)| t / u - 1.0)
                .collect::<Vec<_>>(),
        ),
    );

    // Relative to the working directory (the checkout root when run by
    // the manifest's command), so nothing is written outside it. The
    // trace is a by-product: failing to write it does not fail the run.
    let out = if Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    let trace_file = Path::new(out).join(format!("{}.trace.json", w.name));
    if let Err(e) = t.write(&trace_file) {
        eprintln!("cannot write {}: {e}", trace_file.display());
    }

    let detail = vec![
        ("replay_wall_s_untraced", spread(&untraced)),
        ("replay_wall_s_traced", spread(&traced)),
        (
            "virtual",
            summary.detail(failures.mismatches, w.scheduler().round_s()),
        ),
        (
            "self_s",
            object(
                ["serve.run_trace", "batch.execute_plan", "dataflow.sequential"]
                    .map(|name| (name, Value::Number(t.self_s(name)))),
            ),
        ),
        (
            "computed_not_measured",
            text("kernels.bytes_per_decode_token and kernels.flops_per_decode_token are computed from tensor sizes"),
        ),
        ("trace_file", text(&trace_file.display().to_string())),
    ];
    Outcome {
        values: v,
        attempted: summary.attempted * walls.len(),
        summary,
        failures,
        detail,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn mean(plans: &[RoundPlan], f: impl Fn(&RoundPlan) -> u64) -> f64 {
    plans.iter().map(f).sum::<u64>() as f64 / plans.len().max(1) as f64
}

/// Median nanoseconds per call of `f`, over five batches of `calls`.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    stats::median(&batches)
}

/// Deterministic activations in [-1, 1).
fn activations(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 2_654_435_761) % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

struct SequenceRun {
    prompt_tokens: usize,
    /// `step_with` calls: one fewer than the tokens sampled.
    decode_steps: usize,
    prefill_s: f64,
    decode_s: f64,
    tokens: Vec<u32>,
    comm: CommCounters,
}

/// dataflow: every `stride`th request of the trace through
/// `DataflowExecutor::prefill_chunked` / `step_with`, one sequence at a
/// time (the loop of `generate_greedy`, with a span around each half).
fn sequential(
    executor: &DataflowExecutor,
    trace: &Trace,
    stride: usize,
    t: &mut Tracer,
) -> Vec<SequenceRun> {
    trace
        .requests
        .iter()
        .step_by(stride)
        .map(|r| {
            let mut state = executor.new_state();
            let mut scratch = executor.new_scratch();
            let (_, prefill_s) = t.span("dataflow.prefill", |t| {
                executor.prefill_chunked(
                    &r.prompt,
                    &mut state,
                    &mut scratch,
                    MAX_PREFILL_PANEL,
                    true,
                );
                t.count("tokens", r.prompt.len() as f64);
            });
            let n = r.decode_tokens as usize;
            let (tokens, decode_s) = t.span("dataflow.decode", |t| {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let next = argmax(scratch.logits());
                    out.push(next);
                    if out.len() < n {
                        executor.step_with(next, &mut state, &mut scratch);
                    }
                }
                t.count("tokens", n as f64);
                out
            });
            SequenceRun {
                prompt_tokens: r.prompt.len(),
                decode_steps: n.saturating_sub(1),
                prefill_s,
                decode_s,
                tokens,
                comm: state.comm,
            }
        })
        .collect()
}

/// Nanoseconds of one `step_with` at exactly `context` cached positions:
/// each timed step runs on a fresh clone of a state prefilled to there.
fn decode_ns_at_context(executor: &DataflowExecutor, context: usize, t: &mut Tracer) -> f64 {
    let vocab = executor.config().vocab_size;
    let prompt: Vec<u32> = (0..context)
        .map(|i| ((i * 31 + 7) % vocab) as u32)
        .collect();
    let mut base = executor.new_state();
    let mut scratch = executor.new_scratch();
    executor.prefill_chunked(&prompt, &mut base, &mut scratch, MAX_PREFILL_PANEL, true);
    let (samples, _) = t.span("dataflow.decode_at_context", |t| {
        t.count("context", context as f64);
        (0..15)
            .map(|_| {
                let mut state = base.clone();
                state.reserve_context(context + 1);
                let started = Instant::now();
                executor.step_with(black_box(1), &mut state, &mut scratch);
                started.elapsed().as_secs_f64() * 1e9
            })
            .collect::<Vec<f64>>()
    });
    stats::median(&samples)
}

struct Reference {
    prefill_ns: f64,
    decode_ns: f64,
    total_s: f64,
}

/// reference: `Transformer::prefill_chunked` / `step_with` on the
/// sequences `head` covers.
fn reference(
    weights: &ModelWeights,
    trace: &Trace,
    head: &[SequenceRun],
    stride: usize,
    t: &mut Tracer,
) -> Reference {
    let model = Transformer::new(weights.clone());
    let (mut prefill_s, mut decode_s) = (0.0, 0.0);
    let (mut prefill_tokens, mut decode_steps) = (0usize, 0usize);
    for (i, run) in head.iter().enumerate() {
        let r = &trace.requests[i * stride];
        let mut cache = model.new_cache();
        let mut scratch = model.new_scratch();
        let (_, s) = t.span("reference.prefill", |_| {
            model.prefill_chunked(&r.prompt, &mut cache, &mut scratch, MAX_PREFILL_PANEL, true)
        });
        prefill_s += s;
        prefill_tokens += r.prompt.len();
        let (_, s) = t.span("reference.decode", |_| {
            // The dataflow run already sampled these tokens; stepping them
            // back in costs the same as sampling them again.
            for &token in &run.tokens[..run.decode_steps] {
                model.step_with(token, &mut cache, &mut scratch);
            }
        });
        decode_s += s;
        decode_steps += run.decode_steps;
    }
    Reference {
        prefill_ns: prefill_s * 1e9 / prefill_tokens.max(1) as f64,
        decode_ns: ratio(decode_s * 1e9, decode_steps as f64),
        total_s: prefill_s + decode_s,
    }
}

/// sampler: `sampler::argmax` over vocabulary-sized logits.
fn sampler_ns(vocab: usize, t: &mut Tracer) -> f64 {
    let logits = activations(vocab);
    t.span("sampler.argmax", |_| {
        ns_per_call(2000, || {
            black_box(argmax(black_box(&logits)));
        })
    })
    .0
}

struct Kernels {
    /// q + k + v + o projections of one layer, one token.
    attn_ns: f64,
    /// gate + up + down of one expert, one token.
    expert_ns: f64,
    /// The weight-tied unembedding, one token.
    unembed_ns: f64,
    /// Every matrix product of one decode token: calls-per-token x ns.
    decode_ns: f64,
    /// The same products in 64-token panels, per token, without the
    /// unembedding (a prefill unembeds once per prompt).
    panel_ns_per_token: f64,
    /// Weight bytes one decode token reads. Computed from tensor sizes.
    decode_bytes: f64,
    /// Multiply-adds x 2 of one decode token. Computed from tensor sizes.
    decode_flops: f64,
}

/// kernels: `kernels::matvec_into` / `matmul_into` called directly on the
/// model's own q/k/v/o, router and expert matrices, and `tensor::dot` on
/// its embedding table (the weight-tied unembedding is dense f32).
fn kernels(weights: &ModelWeights, t: &mut Tracer) -> Kernels {
    let c = weights.config;
    let layer = &weights.layers[0];
    let matvec_ns = |m: &PackedFp4Matrix| {
        let x = activations(m.rows());
        let mut out = vec![0.0f32; m.cols()];
        ns_per_call(200, || matvec_into(black_box(&x), m, black_box(&mut out)))
    };
    let panel_ns_per_token = |m: &PackedFp4Matrix| {
        let x = activations(m.rows() * MAX_PREFILL_PANEL);
        let mut out = vec![0.0f32; m.cols() * MAX_PREFILL_PANEL];
        ns_per_call(10, || {
            matmul_into(
                black_box(&x),
                m.rows(),
                MAX_PREFILL_PANEL,
                m,
                black_box(&mut out),
                m.cols(),
            )
        }) / MAX_PREFILL_PANEL as f64
    };
    let attn = [&layer.wq, &layer.wk, &layer.wv, &layer.wo];
    let expert = [&layer.gate[0], &layer.up[0], &layer.down[0]];
    let top_k = c.moe.experts_per_token as f64;
    let layers = c.num_layers as f64;

    let ((attn_ns, router_ns, expert_ns, unembed_ns), _) = t.span("kernels.matvec", |_| {
        let xn = activations(c.hidden_size);
        let mut logits = vec![0.0f32; c.vocab_size];
        let unembed_ns = ns_per_call(20, || {
            for (token, l) in logits.iter_mut().enumerate() {
                let row = &weights.embedding[token * c.hidden_size..(token + 1) * c.hidden_size];
                *l = dot(black_box(&xn), row);
            }
            black_box(&mut logits);
        });
        (
            attn.iter().map(|m| matvec_ns(m)).sum::<f64>(),
            matvec_ns(&layer.router),
            expert.iter().map(|m| matvec_ns(m)).sum::<f64>(),
            unembed_ns,
        )
    });
    let (panel, _) = t.span("kernels.matmul_panel64", |_| {
        let attn: f64 = attn.iter().map(|m| panel_ns_per_token(m)).sum();
        let expert: f64 = expert.iter().map(|m| panel_ns_per_token(m)).sum();
        layers * (attn + panel_ns_per_token(&layer.router) + top_k * expert)
    });

    let bytes = |ms: &[&PackedFp4Matrix]| ms.iter().map(|m| m.bytes() as f64).sum::<f64>();
    let cells =
        |ms: &[&PackedFp4Matrix]| ms.iter().map(|m| (m.rows() * m.cols()) as f64).sum::<f64>();
    let unembed_cells = (c.vocab_size * c.hidden_size) as f64;
    Kernels {
        attn_ns,
        expert_ns,
        unembed_ns,
        decode_ns: layers * (attn_ns + router_ns + top_k * expert_ns) + unembed_ns,
        panel_ns_per_token: panel,
        decode_bytes: layers
            * (bytes(&attn) + layer.router.bytes() as f64 + top_k * bytes(&expert))
            + unembed_cells * 4.0,
        decode_flops: 2.0
            * (layers * (cells(&attn) + cells(&[&layer.router]) + top_k * cells(&expert))
                + unembed_cells),
    }
}

/// kv_cache: a standalone `KvCache` shard appended to and read back, and a
/// fresh `PrefixCache` fed the trace's prompts in arrival order through
/// match -> retain -> commit -> release, the protocol of an admission.
fn kv_cache(w: &Workload, trace: &Trace, t: &mut Tracer, v: &mut Values, failures: &mut Failures) {
    let c = w.model.config();
    let heads = c.attention.num_kv_heads / GRID;
    let width = heads * c.attention.head_dim;
    let positions = 512;
    let (k, val) = (activations(width), activations(width));
    let mut shard = KvCache::new(c.num_layers, heads, c.attention.head_dim);
    let (_, append_s) = t.span("kv_cache.append", |_| {
        for _ in 0..positions {
            for layer in 0..c.num_layers {
                shard.append(layer, black_box(&k), black_box(&val));
            }
        }
    });
    let (_, read_s) = t.span("kv_cache.read", |_| {
        let mut acc = 0.0f32;
        for position in 0..positions {
            for layer in 0..c.num_layers {
                for head in 0..heads {
                    acc +=
                        shard.key(layer, position, head)[0] + shard.value(layer, position, head)[0];
                }
            }
        }
        black_box(acc);
    });
    v.set(
        "kv_cache.append_ns_per_position",
        append_s * 1e9 / positions as f64,
    );
    v.set(
        "kv_cache.read_ns_per_position",
        read_s * 1e9 / positions as f64,
    );

    let mut cache = PrefixCache::new(PrefixCacheConfig {
        page_budget: w.page_budget.unwrap_or(usize::MAX),
        ..PrefixCacheConfig::default()
    });
    let per_block = cache.config().pages_per_block;
    let (mut match_s, mut commit_s, mut release_s) = (0.0, 0.0, 0.0);
    t.span("kv_cache.prefix_replay", |t| {
        for r in &trace.requests {
            let mut grant = Vec::new();
            let (m, s) = t.span("kv_cache.match", |_| cache.match_prompt(&r.prompt));
            match_s += s;
            cache.retain_match(&m, &mut grant);
            commit_s += t
                .span("kv_cache.commit", |_| {
                    cache.commit(
                        &r.prompt,
                        |_| vec![PageBuf::placeholder(); per_block],
                        &mut grant,
                    )
                })
                .1;
            release_s += t
                .span("kv_cache.release", |_| cache.release_grant(&mut grant))
                .1;
        }
    });
    let replayed = cache.stats();
    v.set(
        "kv_cache.match_ns_per_lookup",
        match_s * 1e9 / trace.requests.len() as f64,
    );
    v.set(
        "kv_cache.commit_ns_per_block",
        ratio(commit_s * 1e9, replayed.committed_blocks as f64),
    );
    v.set(
        "kv_cache.release_ns_per_grant",
        release_s * 1e9 / trace.requests.len() as f64,
    );
    cache.flush();
    if !cache.ledger_balanced() {
        failures.note("standalone PrefixCache ledger unbalanced after flush".to_string());
    }
}

/// fault: the served run's recovery counters. All zero on a fault-free
/// workload.
fn fault_counters(slo: &SloReport, v: &mut Values) {
    v.set("fault.evictions", slo.recovery.evictions as f64);
    v.set("fault.resumed", slo.recovery.resumed as f64);
    v.set(
        "fault.re_prefill_token_share",
        ratio(
            slo.recovery.re_prefill_tokens as f64,
            slo.prefill_tokens as f64,
        ),
    );
    v.set(
        "fault.degraded_round_share",
        slo.degraded_rounds as f64 / slo.rounds as f64,
    );
    v.set("fault.link_retry_rounds", slo.link_retry_rounds as f64);
    v.set("fault.shed", slo.shed as f64);
    v.set("fault.deadline_missed", slo.deadline_missed as f64);
    v.set("fault.chip_lost", slo.chip_lost as f64);
    v.set(
        "fault.sim_ttft_degraded_p50_ms",
        slo.ttft_degraded_p50_s * 1e3,
    );
    v.set(
        "fault.sim_ttft_degraded_p99_ms",
        slo.ttft_degraded_p99_s * 1e3,
    );
}

/// fault: a second replay of the same trace under `FaultPlan::none()`, for
/// what the faults cost the host. Returns the healthy wall and the host
/// time per token processed, faulted over healthy, less one: re-prefills
/// are tokens too, so what is left is eviction, recovery and shedding
/// bookkeeping plus the smaller batches a degraded grid runs.
fn healthy_twin(
    w: &Workload,
    trace: &Trace,
    weights: &ModelWeights,
    faulted: (&SloReport, f64),
    t: &mut Tracer,
    failures: &mut Failures,
) -> (f64, f64) {
    let server = w.server(w.engine(weights.clone()), trace, FaultPlan::none());
    let (healthy, _) = t.span("fault.healthy_replay", |_| run::replay(server, trace));
    verify::ledgers(&healthy, failures);
    let per_token =
        |slo: &SloReport, wall_s: f64| wall_s / (slo.prefill_tokens + slo.decoded_tokens) as f64;
    let (slo, replay_wall_s) = faulted;
    (
        healthy.wall_s,
        per_token(slo, replay_wall_s) / per_token(&healthy.outcome.report.slo, healthy.wall_s)
            - 1.0,
    )
}
