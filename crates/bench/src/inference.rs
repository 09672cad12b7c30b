//! The inference benchmark suite: host time of the packed-FP4 engines on
//! `zoo::dataflow_test_model` and on the larger `prefill_bench_weights`,
//! and an FMA-bound loop at the width of the process's matmul arm, timed
//! just before and just after the expert-group sweep.
//!
//! The `bench_baseline` example records it in `BENCH_inference.json` and
//! gates CI on one figure per expert group, its share of that loop's rate
//! ([`peak_shares`]), against the floors of the latest point of the
//! runner's arm ([`gate_point`], [`bands`]). The [`amortisation`] pairs
//! are recorded, never gated: both sides run the same kernel.

use crate::Timings;
use hnlpu::llm::{
    kernels, BatchedDataflowExecutor, DataflowExecutor, PrefixCacheConfig, Sampler,
    SequenceRequest, Transformer,
};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{BatchScheduler, RoundPlan, SimConfig};
use serde_json::Value;
use std::hint::black_box;

/// Tokens decoded per iteration of the decode benchmarks.
const DECODE_TOKENS: usize = 32;

/// Prompt length of the prefill-throughput sweep (one full
/// `MAX_PREFILL_PANEL` at the widest setting).
const PREFILL_MATMUL_TOKENS: usize = 64;

/// Panel widths the prefill-throughput sweep runs (`prefill_chunked`'s
/// knob); `per_token` is a `step_with` loop — T = 1 panels plus an unembed
/// per token, where `t1` unembeds only the last.
const PREFILL_PANEL_SWEEP: &[usize] = &[1, 4, 16, 64];

/// Batch sizes of the batched-decode sweep: `step_b{B}` runs `B`
/// `step_with` calls, `batch_b{B}` one `step_batch_with` over the same `B`
/// sequences in one arena. Both produce bit-identical logits and KV.
/// `B = 1` is not a point: `step_with` is `step_batch_with` over one row.
const DECODE_BATCH_SWEEP: &[usize] = &[4, 16, 64];

/// Rows gathered per expert in the `expert_group` group: `g{G}` runs every
/// expert of one layer over `G` activation rows. With 16 experts and top-4
/// routing a 24-row decode step gathers ~6 rows per expert and a 64-row
/// prefill panel ~16; 2 and 64 bracket them (a thin round; every row of a
/// full panel on one expert).
pub const EXPERT_GROUP_SWEEP: &[usize] = &[2, 6, 16, 64];

/// Experts per layer of [`prefill_bench_weights`]: one `expert_group/g{G}`
/// iteration sends `PREFILL_BENCH_EXPERTS × G` rows through an expert.
const PREFILL_BENCH_EXPERTS: usize = 16;

/// Hidden size of [`prefill_bench_weights`].
const PREFILL_BENCH_HIDDEN: usize = 256;

/// Expert intermediate size of [`prefill_bench_weights`].
const PREFILL_BENCH_INTERMEDIATE: usize = 512;

/// Multiply-accumulates one gathered row costs crossing one expert of
/// [`prefill_bench_weights`]: up and gate (`hidden × intermediate` each)
/// and down (`intermediate × hidden`).
const EXPERT_MACS_PER_ROW: usize = 3 * PREFILL_BENCH_HIDDEN * PREFILL_BENCH_INTERMEDIATE;

/// Timed iterations per benchmark of a quick run (the CI gate's).
pub const QUICK_SAMPLES: usize = 2;

/// Timed iterations per benchmark of a full run.
pub const FULL_SAMPLES: usize = 20;

/// Bench group of the FMA-bound loop; its `before` and `after` runs
/// bracket the expert-group sweep.
const FMA_PEAK_GROUP: &str = "inference/fma_peak";

/// Independent accumulator chains of the FMA loop: enough to cover the
/// fused multiply-add latency on every port (4 cycles × 2 ports), few
/// enough to stay in the 16 registers of the AVX2 arm.
const FMA_CHAINS: usize = 12;

/// Multiply-accumulates one iteration of the FMA loop performs at either
/// width (2¹⁸ rounds of the zmm chains, 2¹⁹ of the ymm ones).
const FMA_PEAK_MACS: usize = (1 << 18) * FMA_CHAINS * 16;

/// Calls of the FMA loop timed one by one on each side of the groups, at
/// any sample count: the ceiling is the fastest, so it holds unless every
/// call on both sides is disturbed.
const FMA_PEAK_CALLS: usize = 16;

/// Rounds of the named shape each `round_deal` plan holds.
const ROUND_DEAL_ROUNDS: usize = 3;

/// The `round_deal` group's `(label, resident decoders, prefill chunk
/// lengths)`: `skewed` is the round that idled a core under a deal by item
/// count (one 160-token chunk, one 48-token chunk, 8 one-row decoders);
/// `uniform` is 32 equal items, which any deal splits evenly.
const ROUND_DEAL_SHAPES: &[(&str, usize, &[usize])] =
    &[("skewed", 8, &[160, 48]), ("uniform", 32, &[])];

/// The amortisation pairs every point records and `--check` prints, never
/// gates: `(json key, group, numerator, denominator)`, each ratio
/// `ns(numerator) / ns(denominator)` within `inference/{group}`, i.e. the
/// denominator's speedup. Both sides run the same kernel, so a kernel
/// regression cancels out of them.
const AMORTISATION: &[(&str, &str, &str, &str)] = &[
    (
        "prefill_matmul_speedup_t16",
        "prefill_matmul",
        "per_token",
        "t16",
    ),
    (
        "prefill_matmul_speedup_t64",
        "prefill_matmul",
        "per_token",
        "t64",
    ),
    (
        "decode_batch_speedup_b4",
        "decode_batch",
        "step_b4",
        "batch_b4",
    ),
    (
        "decode_batch_speedup_b16",
        "decode_batch",
        "step_b16",
        "batch_b16",
    ),
    (
        "decode_batch_speedup_b64",
        "decode_batch",
        "step_b64",
        "batch_b64",
    ),
    (
        "prefix_prefill_speedup_share90",
        "prefix_prefill",
        "share0",
        "share90",
    ),
];

/// Sequences in the shared-prefix prefill benchmark.
const PREFIX_PREFILL_SEQS: usize = 8;

/// Prompt length per sequence in the shared-prefix prefill benchmark.
const PREFIX_PREFILL_PROMPT: usize = 64;

/// The sweep's `(label, shared prefix tokens)` points: 0%, 50%, and 90%
/// of the prompt shared across all sequences. Block granularity (16
/// positions) means the 58-token point reuses 48 positions per follower.
const PREFIX_PREFILL_SHARES: &[(&str, usize)] = &[("share0", 0), ("share50", 32), ("share90", 58)];

const PREFIX: [u32; 4] = [1, 5, 9, 17];

/// Key of a schema-v3 point's floors: an object from `g{G}` to the lowest
/// `peak_share` that group may read.
pub const FLOOR_KEY: &str = "peak_share_floor";

/// The value of `key` among `(key, value)` readings — a run's mean ns/iter
/// per label, or its share per group; NaN when the run lacks it.
pub fn reading(readings: &[(String, f64)], key: &str) -> f64 {
    readings
        .iter()
        .find(|(k, _)| k == key)
        .map_or(f64::NAN, |&(_, value)| value)
}

/// The FMA loop's rate in a run, in GMAC/s: the faster of its two
/// readings, each the fastest of `FMA_PEAK_CALLS` calls (a ceiling's
/// slower calls are the disturbed ones); NaN with neither.
pub fn fma_peak_gmac_per_s(results: &[(String, f64)]) -> f64 {
    ["before", "after"]
        .iter()
        .map(|when| FMA_PEAK_MACS as f64 / reading(results, &format!("{FMA_PEAK_GROUP}/{when}")))
        .fold(f64::NAN, f64::max)
}

/// Multiply-accumulate rate of `expert_group/g{rows}` in a run, in GMAC/s
/// (mean over the samples). NaN when the run lacks the group.
pub fn expert_group_gmac_per_s(results: &[(String, f64)], rows: usize) -> f64 {
    let ns = reading(results, &format!("inference/expert_group/g{rows}"));
    (PREFILL_BENCH_EXPERTS * rows * EXPERT_MACS_PER_ROW) as f64 / ns
}

/// `(g{G}, peak_share)` of every group of [`EXPERT_GROUP_SWEEP`]: its
/// [`expert_group_gmac_per_s`] over the [`fma_peak_gmac_per_s`] of the
/// same run. NaN where the run lacks either.
pub fn peak_shares(results: &[(String, f64)]) -> Vec<(String, f64)> {
    let peak = fma_peak_gmac_per_s(results);
    EXPERT_GROUP_SWEEP
        .iter()
        .map(|&rows| {
            let share = expert_group_gmac_per_s(results, rows) / peak;
            (format!("g{rows}"), share)
        })
        .collect()
}

/// `(json key, ratio)` of every amortisation pair in a run: panel prefill
/// against the per-token loop, one batched step against B steps, shared
/// prefixes against none.
pub fn amortisation(results: &[(String, f64)]) -> impl Iterator<Item = (&'static str, f64)> + '_ {
    AMORTISATION.iter().map(move |&(key, group, num, den)| {
        let ns = |name| reading(results, &format!("inference/{group}/{name}"));
        (key, ns(num) / ns(den))
    })
}

/// The point `bench_baseline -- --check` gates a runner against: the
/// latest one with floors ([`FLOOR_KEY`]) recorded on the runner's
/// `kernel_path`. Shares move with the arm, so another arm's point is
/// skipped, v2 points are history, and an arm with none gets `None`.
pub fn gate_point<'a>(trajectory: &'a [Value], kernel_path: &str) -> Option<&'a Value> {
    trajectory.iter().rev().find(|point| {
        point["kernel_path"].as_str() == Some(kernel_path)
            && matches!(point.get(FLOOR_KEY), Some(Value::Object(_)))
    })
}

/// One banded expert group: the gate point's floor and a run's share.
pub struct Band {
    /// The group, `g{G}`.
    pub group: String,
    /// The lowest share the point allows; NaN when it is not a number.
    pub floor: f64,
    /// The run's `peak_share` of the group; NaN when the run lacks it.
    pub share: f64,
}

impl Band {
    /// Whether the share is a reading at or above a positive floor: NaN
    /// on either side, and a zero or negative floor, fail.
    pub fn holds(&self) -> bool {
        self.floor > 0.0 && self.share >= self.floor
    }
}

/// Every group `point` bands ([`FLOOR_KEY`]), against `shares` of a run.
pub fn bands(point: &Value, shares: &[(String, f64)]) -> Vec<Band> {
    let Some(Value::Object(floors)) = point.get(FLOOR_KEY) else {
        return Vec::new();
    };
    floors
        .iter()
        .map(|(group, floor)| Band {
            group: group.clone(),
            floor: floor.as_f64().unwrap_or(f64::NAN),
            share: reading(shares, group),
        })
        .collect()
}

/// The gate's verdict, closed on failure: some band, and every band holds.
pub fn passes(bands: &[Band]) -> bool {
    !bands.is_empty() && bands.iter().all(Band::holds)
}

/// The model every benchmark runs: `zoo::dataflow_test_model` materialized
/// from the same seed the differential tests use.
fn bench_weights() -> ModelWeights {
    let card = zoo::dataflow_test_model();
    ModelWeights::materialize(&card.config, &WeightGenerator::new(2026))
}

/// The larger model the prefill-throughput sweep runs: same 4×4-mappable
/// family as [`bench_weights`], scaled until projections and experts
/// dominate the step (hidden 256, 2048-entry vocabulary, 16 experts of
/// intermediate 512) so the sweep measures the matmul kernels rather than
/// per-token bookkeeping.
fn prefill_bench_weights() -> ModelWeights {
    let mut c = zoo::dataflow_test_model().config;
    c.hidden_size = PREFILL_BENCH_HIDDEN;
    c.vocab_size = 2048;
    c.num_layers = 2;
    c.attention.head_dim = 32;
    c.attention.num_query_heads = 8;
    c.attention.num_kv_heads = 4;
    c.moe.num_experts = PREFILL_BENCH_EXPERTS;
    c.moe.experts_per_token = 4;
    c.moe.intermediate_size = PREFILL_BENCH_INTERMEDIATE;
    ModelWeights::materialize(&c, &WeightGenerator::new(2026))
}

/// Requests of the shared-prefix prefill benchmark: [`PREFIX_PREFILL_SEQS`]
/// prompts of [`PREFIX_PREFILL_PROMPT`] tokens whose first `shared` tokens
/// are identical across sequences. Arrivals are staggered by two virtual
/// seconds so each prompt commits to the radix tree before the next one is
/// matched (virtual idle time costs the engine nothing), and each sequence
/// decodes a single token so prefill dominates the measured work.
fn prefix_prefill_requests(vocab: u32, shared: usize) -> Vec<SequenceRequest> {
    (0..PREFIX_PREFILL_SEQS)
        .map(|s| {
            let prompt: Vec<u32> = (0..PREFIX_PREFILL_PROMPT as u32)
                .map(|i| {
                    if (i as usize) < shared {
                        (i * 7 + 1) % vocab
                    } else {
                        (s as u32 * 131 + i * 3 + 17) % vocab
                    }
                })
                .collect();
            SequenceRequest::greedy(s as u64 * 2_000_000, prompt, 1)
        })
        .collect()
}

/// Requests and hand-built plan of one `round_deal` shape: a round that
/// admits `decoders` one-token prompts (two rows each), then
/// [`ROUND_DEAL_ROUNDS`] rounds that each hold the decoders' one-row steps
/// plus one fresh prompt per entry of `chunks` — admitted, prefilled whole,
/// its only token sampled, evicted, all in that round — then a round in
/// which the decoders emit their last token (no rows).
fn round_deal_plan(
    vocab: u32,
    decoders: usize,
    chunks: &[usize],
) -> (Vec<SequenceRequest>, Vec<RoundPlan>) {
    let budget = ROUND_DEAL_ROUNDS as u32 + 2;
    let mut requests: Vec<SequenceRequest> = (0..decoders as u32)
        .map(|s| SequenceRequest::greedy(0, vec![(s * 131 + 1) % vocab], budget))
        .collect();
    let resident: Vec<usize> = (0..decoders).collect();
    let mut plans = vec![RoundPlan {
        decode: resident.clone(),
        prefill: resident.iter().map(|&seq| (seq, 1)).collect(),
    }];
    for _ in 0..ROUND_DEAL_ROUNDS {
        let mut plan = RoundPlan {
            decode: resident.clone(),
            prefill: Vec::new(),
        };
        for &len in chunks {
            let seq = requests.len();
            let prompt = (0..len as u32)
                .map(|i| (seq as u32 * 131 + i * 7 + 1) % vocab)
                .collect();
            requests.push(SequenceRequest::greedy(0, prompt, 1));
            plan.prefill.push((seq, len as u32));
            plan.decode.push(seq);
        }
        plans.push(plan);
    }
    plans.push(RoundPlan {
        decode: resident,
        prefill: Vec::new(),
    });
    (requests, plans)
}

/// Run the whole suite at `samples` timed iterations per benchmark:
/// decode, the prefill panel sweep, the expert-group sweep between the
/// two FMA loop runs, the batched-decode sweep, the round deal, and the
/// shared-prefix prefill sweep.
pub fn inference_suite(samples: usize) -> Timings {
    suite(samples, bench_weights(), prefill_bench_weights())
}

/// [`inference_suite`] over `w` (decode, shared-prefix prefill) and `big`
/// (every other sweep).
fn suite(samples: usize, w: ModelWeights, big: ModelWeights) -> Timings {
    let mut t = Timings::new(samples);
    let packed = Transformer::new(w.clone());
    let vocab = w.config.vocab_size as u32;

    // Decode: greedy continuation from a cloned prefix cache, so every
    // iteration decodes the same token positions.
    let mut base = packed.new_cache();
    let mut scratch = packed.new_scratch();
    for &tok in &PREFIX {
        packed.step_with(tok, &mut base, &mut scratch);
    }
    let seed_tok = Sampler::Greedy.sample(scratch.logits());
    t.run("inference/decode", "packed", || {
        let mut cache = base.clone();
        let mut tok = seed_tok;
        for _ in 0..DECODE_TOKENS {
            packed.step_with(black_box(tok), &mut cache, &mut scratch);
            tok = Sampler::Greedy.sample(scratch.logits());
        }
        tok
    });

    // Prefill-throughput sweep on the larger model: one full prompt per
    // iteration, either stepped token by token (T = 1 panels plus an
    // unembed per token) or panelled through the matmul kernels at width
    // T. All five produce bit-identical KV and logits.
    let big_model = Transformer::new(big.clone());
    let big_vocab = big_model.config().vocab_size as u32;
    let sweep_prompt: Vec<u32> = (0..PREFILL_MATMUL_TOKENS as u32)
        .map(|i| (i * 7 + 1) % big_vocab)
        .collect();
    let mut scratch = big_model.new_scratch();
    let g = "inference/prefill_matmul";
    t.run(g, "per_token", || {
        let mut cache = big_model.new_cache();
        for &tok in &sweep_prompt {
            big_model.step_with(black_box(tok), &mut cache, &mut scratch);
        }
        scratch.logits()[0]
    });
    for &panel in PREFILL_PANEL_SWEEP {
        t.run(g, format!("t{panel}"), || {
            let mut cache = big_model.new_cache();
            big_model.prefill_chunked(
                black_box(&sweep_prompt),
                &mut cache,
                &mut scratch,
                panel,
                true,
            );
            scratch.logits()[0]
        });
    }

    // Expert-group sweep: the three matmuls of every expert of layer 0,
    // straight through the kernel at the group sizes routing produces.
    // `prefill_matmul` above only times whole 16/64-row panels, where the
    // MoE stage's real operand — a handful of rows per expert, so mostly
    // remainder token blocks — is averaged away. No SwiGLU between gate
    // and down: the values do not change what a matmul costs. The FMA
    // loop runs just before and just after, so the groups' share of its
    // rate is taken under the same clock and neighbours.
    let experts = &big.layers[0];
    let (h, inter) = (experts.up[0].rows(), experts.up[0].cols());
    let max_group = EXPERT_GROUP_SWEEP.iter().copied().max().unwrap_or(0);
    let xs: Vec<f32> = (0..max_group * h)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.25)
        .collect();
    let mut upp = vec![0.0f32; max_group * inter];
    let mut gatep = vec![0.0f32; max_group * inter];
    let mut downp = vec![0.0f32; max_group * h];
    let fma_peak = fma_loop(kernels::kernel_path());
    if let Some(fma_peak) = fma_peak {
        t.run_fastest(FMA_PEAK_GROUP, "before", FMA_PEAK_CALLS, fma_peak);
    }
    let g = "inference/expert_group";
    for &rows in EXPERT_GROUP_SWEEP {
        t.run(g, format!("g{rows}"), || {
            let xs = black_box(&xs[..rows * h]);
            for e in 0..experts.up.len() {
                kernels::matmul_into(xs, h, rows, &experts.up[e], &mut upp, inter);
                kernels::matmul_into(xs, h, rows, &experts.gate[e], &mut gatep, inter);
                kernels::matmul_into(&gatep, inter, rows, &experts.down[e], &mut downp, h);
            }
            downp[0]
        });
    }
    if let Some(fma_peak) = fma_peak {
        t.run_fastest(FMA_PEAK_GROUP, "after", FMA_PEAK_CALLS, fma_peak);
    }

    // Batched-decode sweep on the same larger model: B sequences at
    // different short contexts each take one decode step, either as B
    // `step_with` calls (a scratch each) or as one `step_batch_with` in
    // one arena, each row's logits landing in its own buffer. Every
    // iteration starts from clones of the same prefilled states, so the
    // work per iteration is constant.
    let machine = DataflowExecutor::new(big);
    let widest = DECODE_BATCH_SWEEP.iter().copied().max().unwrap_or(0);
    let mut scratches: Vec<_> = (0..widest).map(|_| machine.new_scratch()).collect();
    let base_states: Vec<_> = scratches
        .iter_mut()
        .enumerate()
        .map(|(s, scratch)| {
            let prompt: Vec<u32> = (0..8 + s as u32 % 5)
                .map(|i| (s as u32 * 131 + i * 7 + 1) % big_vocab)
                .collect();
            let mut state = machine.new_state();
            machine.prefill_with(&prompt, &mut state, scratch, true);
            state
        })
        .collect();
    let next: Vec<u32> = scratches
        .iter()
        .map(|s| Sampler::Greedy.sample(s.logits()))
        .collect();
    let mut arena = machine.new_scratch();
    let mut logits: Vec<Vec<f32>> = scratches.iter().map(|s| s.logits().to_vec()).collect();
    let g = "inference/decode_batch";
    for &batch in DECODE_BATCH_SWEEP {
        t.run(g, format!("step_b{batch}"), || {
            let mut states = base_states[..batch].to_vec();
            for ((state, scratch), &tok) in states.iter_mut().zip(&mut scratches).zip(&next) {
                machine.step_with(black_box(tok), state, scratch);
            }
            scratches[batch - 1].logits()[0]
        });
        t.run(g, format!("batch_b{batch}"), || {
            let mut states = base_states[..batch].to_vec();
            let mut rows: Vec<_> = states.iter_mut().collect();
            let mut outs: Vec<_> = logits[..batch].iter_mut().map(Vec::as_mut_slice).collect();
            machine.step_batch_with(black_box(&next[..batch]), &mut rows, &mut arena, &mut outs);
            logits[batch - 1][0]
        });
    }

    // Round deal: whole plans through `execute_plan` on the larger model,
    // so the time is the engine's own `run_round` dealing each round to
    // the workers. How far `skewed` sits below a serial replay depends on
    // the runner's core count, so neither point is a gated ratio.
    let engine = BatchedDataflowExecutor::new(machine.clone(), 216);
    let g = "inference/round_deal";
    for &(label, decoders, chunks) in ROUND_DEAL_SHAPES {
        let (requests, plans) = round_deal_plan(big_vocab, decoders, chunks);
        t.run(g, label, || {
            match engine.execute_plan(black_box(&requests), &plans) {
                Ok(run) => run.decoded_tokens,
                Err(e) => unreachable!("round_deal plan executes: {e:?}"),
            }
        });
    }

    // Shared-prefix prefill sweep: the paged engine with the radix
    // prefix cache runs the same 512 submitted prompt tokens at three
    // sharing levels. At share90 followers reuse 48 of 64 positions, so
    // the engine prefills 176 tokens instead of 512 — the wall-clock
    // ratio against share0 is the trajectory's prefix-reuse headline.
    let paged = BatchedDataflowExecutor::new(DataflowExecutor::new(w.clone()), 216)
        .with_prefix_cache(PrefixCacheConfig::default());
    let sched = BatchScheduler::new(SimConfig::paper_default(), 2048);
    let g = "inference/prefix_prefill";
    for &(label, shared) in PREFIX_PREFILL_SHARES {
        let requests = prefix_prefill_requests(vocab, shared);
        t.run(g, label, || {
            match paged.run_with_scheduler(black_box(&requests), &sched) {
                Ok((run, _)) => run.prefill_tokens,
                Err(e) => unreachable!("prefix sweep workload executes: {e:?}"),
            }
        });
    }
    t
}

/// The FMA-bound loop at the width of the matmul arm `kernel_path` names
/// (`kernels::kernel_path()`): zmm on `avx512-half-units`, ymm on
/// `avx2-half-units`. `None` on the scalar arm, which has no point to gate
/// against.
fn fma_loop(kernel_path: &str) -> Option<fn() -> f32> {
    match kernel_path {
        // SAFETY: the kernel path is `avx512-half-units` only when
        // AVX-512F was detected at runtime.
        #[cfg(target_arch = "x86_64")]
        "avx512-half-units" => Some(|| unsafe { fma::zmm() }),
        // SAFETY: the kernel path is `avx2-half-units` only when AVX2+FMA
        // were detected at runtime.
        #[cfg(target_arch = "x86_64")]
        "avx2-half-units" => Some(|| unsafe { fma::ymm() }),
        _ => None,
    }
}

/// [`FMA_CHAINS`] independent chains of fused multiply-adds at one vector
/// width, nothing else, [`FMA_PEAK_MACS`] per call: the ceiling a matmul
/// arm of that width is measured against. Every chain converges to 2;
/// the sum only keeps the chains live.
#[cfg(target_arch = "x86_64")]
#[expect(
    clippy::disallowed_methods,
    reason = "the loop measures the fused multiply-add peak; no served value reads it"
)]
mod fma {
    use super::{FMA_CHAINS, FMA_PEAK_MACS};
    use std::arch::x86_64::*;

    /// The loop in zmm registers, 16 lanes each.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) fn zmm() -> f32 {
        let (a, b) = (_mm512_set1_ps(0.5), _mm512_set1_ps(1.0));
        let mut acc = [_mm512_setzero_ps(); FMA_CHAINS];
        for _ in 0..FMA_PEAK_MACS / (FMA_CHAINS * 16) {
            for v in &mut acc {
                *v = _mm512_fmadd_ps(*v, a, b);
            }
        }
        _mm512_cvtss_f32(acc.iter().fold(b, |s, &v| _mm512_add_ps(s, v)))
    }

    /// The loop in ymm registers, 8 lanes each.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn ymm() -> f32 {
        let (a, b) = (_mm256_set1_ps(0.5), _mm256_set1_ps(1.0));
        let mut acc = [_mm256_setzero_ps(); FMA_CHAINS];
        for _ in 0..FMA_PEAK_MACS / (FMA_CHAINS * 8) {
            for v in &mut acc {
                *v = _mm256_fmadd_ps(*v, a, b);
            }
        }
        _mm256_cvtss_f32(acc.iter().fold(b, |s, &v| _mm256_add_ps(s, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every label the suite records, in run order; the FMA loop's two
    /// bracket the expert groups on an arm that has the loop.
    fn expected_labels(fma_loop: bool) -> Vec<String> {
        let mut labels = vec!["decode/packed".to_string()];
        labels.push("prefill_matmul/per_token".into());
        labels.extend(
            PREFILL_PANEL_SWEEP
                .iter()
                .map(|p| format!("prefill_matmul/t{p}")),
        );
        let groups = EXPERT_GROUP_SWEEP
            .iter()
            .map(|g| format!("expert_group/g{g}"));
        if fma_loop {
            labels.push("fma_peak/before".into());
            labels.extend(groups);
            labels.push("fma_peak/after".into());
        } else {
            labels.extend(groups);
        }
        for b in DECODE_BATCH_SWEEP {
            labels.push(format!("decode_batch/step_b{b}"));
            labels.push(format!("decode_batch/batch_b{b}"));
        }
        labels.extend(
            ROUND_DEAL_SHAPES
                .iter()
                .map(|(l, ..)| format!("round_deal/{l}")),
        );
        labels.extend(
            PREFIX_PREFILL_SHARES
                .iter()
                .map(|(l, _)| format!("prefix_prefill/{l}")),
        );
        labels.iter().map(|l| format!("inference/{l}")).collect()
    }

    /// A one-layer model the grid maps, small enough that the debug
    /// profile runs the whole suite on it in a moment.
    fn one_layer_weights() -> ModelWeights {
        let mut c = zoo::dataflow_test_model().config;
        c.hidden_size = 32;
        c.num_layers = 1;
        c.attention.head_dim = 8;
        c.attention.num_query_heads = 4;
        c.moe.experts_per_token = 1;
        c.moe.intermediate_size = 8;
        c.vocab_size = 64;
        ModelWeights::materialize(&c, &WeightGenerator::new(2026))
    }

    #[test]
    fn suite_records_every_expected_label() {
        const { assert!(QUICK_SAMPLES < FULL_SAMPLES) };
        // One sample on a one-layer model the grid maps, in both seats, is
        // enough to see the labels: the sweeps set them, not the model.
        let w = one_layer_weights();
        let t = suite(1, w.clone(), w);
        let labels: Vec<&str> = t.results().iter().map(|(l, _)| l.as_str()).collect();
        let fma = fma_loop(kernels::kernel_path()).is_some();
        assert_eq!(labels, expected_labels(fma));
        assert!(t.results().iter().all(|&(_, ns)| ns > 0.0));
        for (key, ratio) in amortisation(t.results()) {
            assert!(ratio > 0.0 && ratio.is_finite(), "{key}: {ratio}");
        }
        if fma {
            for (group, share) in peak_shares(t.results()) {
                assert!(share > 0.0 && share.is_finite(), "{group}: {share}");
            }
        }
    }

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).expect("literal parses")
    }

    #[test]
    fn gate_point_is_the_latest_point_of_the_runners_arm() {
        // v2 points (no floors) are history, even when recorded later.
        let traj = parse(
            r#"[{"id": "avx2-old", "kernel_path": "avx2-half-units", "peak_share_floor": {}},
                {"id": "avx2-new", "kernel_path": "avx2-half-units", "peak_share_floor": {}},
                {"id": "avx512-old", "kernel_path": "avx512-half-units", "peak_share_floor": {}},
                {"id": "avx512-new", "kernel_path": "avx512-half-units", "peak_share_floor": {}},
                {"id": "v2-late", "kernel_path": "avx512-half-units",
                 "decode_speedup_packed_over_naive": 2.2},
                {"id": "v2-only", "kernel_path": "scalar-regions",
                 "decode_speedup_packed_over_naive": 1.1}]"#,
        );
        let Value::Array(traj) = traj else {
            unreachable!("the literal is an array")
        };
        let id = |arm| gate_point(&traj, arm).and_then(|p| p["id"].as_str());
        assert_eq!(id("avx512-half-units"), Some("avx512-new"));
        assert_eq!(id("avx2-half-units"), Some("avx2-new"));
        assert_eq!(id("scalar-regions"), None);
    }

    #[test]
    fn the_gate_passes_in_band_and_fails_closed() {
        let point = parse(r#"{"peak_share_floor": {"g16": 0.3, "g64": 0.3}}"#);
        let run = |g16: f64, g64: f64| vec![("g16".to_string(), g16), ("g64".to_string(), g64)];
        let verdict = |shares: &[(String, f64)]| passes(&bands(&point, shares));
        assert!(verdict(&run(0.5, 0.3)), "in band, the floor included");
        assert!(!verdict(&run(0.5, 0.29)), "below the floor");
        assert!(!verdict(&run(f64::NAN, 0.5)), "a NaN reading");
        assert!(!verdict(&run(0.0, 0.5)), "a zero reading");
        assert!(
            !verdict(&run(0.5, 0.5)[..1]),
            "a banded group the run lacks"
        );
        // A run may measure groups the point does not band.
        let extra = [run(0.5, 0.5), vec![("g2".to_string(), 0.01)]].concat();
        assert!(verdict(&extra));
        // A point that bands nothing, or bands with a non-number or a
        // zero floor, passes nothing.
        for floors in [
            r#"{"peak_share_floor": {}}"#,
            r#"{}"#,
            r#"{"peak_share_floor": {"g16": "0.3"}}"#,
            r#"{"peak_share_floor": {"g16": 0}}"#,
        ] {
            assert!(!passes(&bands(&parse(floors), &run(0.5, 0.5))), "{floors}");
        }
    }

    #[test]
    fn peak_shares_divide_each_group_by_the_faster_loop_reading() {
        // Loop readings of 10 and 20 GMAC/s; g2–g16 at 5 GMAC/s, g64 absent.
        let loop_ns = |gmac: f64| FMA_PEAK_MACS as f64 / gmac;
        let mut results = vec![
            ("inference/fma_peak/before".to_string(), loop_ns(10.0)),
            ("inference/fma_peak/after".to_string(), loop_ns(20.0)),
        ];
        for rows in [2, 6, 16] {
            let macs = PREFILL_BENCH_EXPERTS * rows * EXPERT_MACS_PER_ROW;
            results.push((format!("inference/expert_group/g{rows}"), macs as f64 / 5.0));
        }
        let shares = peak_shares(&results);
        let want = [("g2", 0.25), ("g6", 0.25), ("g16", 0.25), ("g64", f64::NAN)];
        for ((group, share), (g, want)) in shares.iter().zip(want) {
            assert_eq!(group, g);
            assert!((share - want).abs() < 1e-12 || share.is_nan() && want.is_nan());
        }
        assert!(peak_shares(&results[2..]).iter().all(|(_, s)| s.is_nan()));
    }

    #[test]
    fn prefix_sweep_is_token_exact_and_saves_2x_prefill_work() {
        // The sweep's acceptance numbers, pinned deterministically: the
        // paged engine streams the dense engine's tokens bit for bit at
        // every sharing level, and at 90% sharing the radix cache cuts
        // prefill matvec work by at least 2x (176 of 512 tokens).
        let w = bench_weights();
        let vocab = w.config.vocab_size as u32;
        let dense = BatchedDataflowExecutor::new(DataflowExecutor::new(w.clone()), 216);
        let paged = BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216)
            .with_prefix_cache(PrefixCacheConfig::default());
        let sched = BatchScheduler::new(SimConfig::paper_default(), 2048);
        let (mut work, mut hits) = (Vec::new(), (0, 0));
        for &(label, shared) in PREFIX_PREFILL_SHARES {
            let reqs = prefix_prefill_requests(vocab, shared);
            let (d, _) = dense.run_with_scheduler(&reqs, &sched).expect("dense");
            let (p, _) = paged.run_with_scheduler(&reqs, &sched).expect("paged");
            assert_eq!(d.outputs, p.outputs, "{label}: token streams diverge");
            assert!(p.prefill_tokens <= d.prefill_tokens, "{label}");
            work.push(p.prefill_tokens);
            hits = (p.prefix.hits, p.prefix.lookups);
        }
        assert_eq!(hits, (7, 8), "at share90 every follower hits the cache");
        assert_eq!(
            work[0],
            (PREFIX_PREFILL_SEQS * PREFIX_PREFILL_PROMPT) as u64
        );
        assert!(
            work[0] >= 2 * work[2],
            "share90 must save >= 2x prefill work: {} vs {}",
            work[0],
            work[2]
        );
    }

    #[test]
    fn round_deal_plans_hold_the_named_shapes() {
        for &(label, decoders, chunks) in ROUND_DEAL_SHAPES {
            let (requests, plans) = round_deal_plan(128, decoders, chunks);
            assert_eq!(requests.len(), decoders + ROUND_DEAL_ROUNDS * chunks.len());
            assert_eq!(plans.len(), ROUND_DEAL_ROUNDS + 2, "{label}");
            for plan in &plans[1..=ROUND_DEAL_ROUNDS] {
                assert_eq!(plan.decode.len(), decoders + chunks.len(), "{label}");
                let lens: Vec<usize> = plan.prefill.iter().map(|&(_, n)| n as usize).collect();
                assert_eq!(lens, chunks, "{label}");
            }
        }
    }

    #[test]
    fn prefill_sweep_paths_agree_bitwise() {
        // Every point of the sweep is the same computation: the panelled
        // prefill must reproduce the per-token loop's logits exactly. The
        // sweep's prompt and panel widths on a small model show it; the
        // engine's `prefill_is_chunking_invariant` checks the property on
        // both placements.
        let m = Transformer::new(one_layer_weights());
        let vocab = m.config().vocab_size as u32;
        let prompt: Vec<u32> = (0..PREFILL_MATMUL_TOKENS as u32)
            .map(|i| (i * 7 + 1) % vocab)
            .collect();
        let mut scratch = m.new_scratch();
        let mut cache = m.new_cache();
        for &tok in &prompt {
            m.step_with(tok, &mut cache, &mut scratch);
        }
        let want = scratch.logits().to_vec();
        for &panel in PREFILL_PANEL_SWEEP {
            let mut cache = m.new_cache();
            m.prefill_chunked(&prompt, &mut cache, &mut scratch, panel, true);
            assert_eq!(want.as_slice(), scratch.logits(), "panel {panel}");
        }
    }
}
