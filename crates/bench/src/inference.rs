//! End-to-end inference benchmarks: the packed region-accumulation hot
//! path against the dense-`f32` naive baseline, on
//! `zoo::dataflow_test_model`.
//!
//! The suite is shared between the `inference` `[[bench]]` target (human
//! runs) and the `bench_baseline` example (which renders the recorded
//! results into the committed `BENCH_inference.json`). Set the
//! [`QUICK_ENV`] environment variable to any value for a fast smoke-test
//! configuration (CI uses this).

use criterion::{black_box, Criterion};
use hnlpu::llm::{
    kernels, tensor, BatchedDataflowExecutor, DataflowExecutor, NaiveTransformer, PageBuf,
    PrefixCache, PrefixCacheConfig, Sampler, SequenceRequest, Transformer,
};
use hnlpu::model::{zoo, Fp4, ModelWeights, PackedFp4Matrix, WeightGenerator};
use hnlpu::sim::{BatchScheduler, RoundPlan, SimConfig};

/// Environment variable switching the suite to a fast smoke-test run.
pub const QUICK_ENV: &str = "HNLPU_BENCH_QUICK";

/// Tokens processed per iteration of the prefill benchmarks.
pub const PREFILL_TOKENS: usize = 32;

/// Tokens decoded per iteration of the decode benchmarks.
pub const DECODE_TOKENS: usize = 32;

/// Prompt length of the prefill-throughput sweep (one full
/// `MAX_PREFILL_PANEL` at the widest setting).
pub const PREFILL_MATMUL_TOKENS: usize = 64;

/// Panel widths the prefill-throughput sweep runs (`prefill_chunked`'s
/// knob); `per_token` is a `step_with` loop — T = 1 panels plus an unembed
/// per token, where `t1` unembeds only the last.
pub const PREFILL_PANEL_SWEEP: &[usize] = &[1, 4, 16, 64];

/// Batch sizes of the batched-decode sweep: `step_b{B}` runs `B`
/// `step_with` calls, `batch_b{B}` one `step_batch_with` over the same `B`
/// sequences. Both produce bit-identical logits and KV. `B = 1` is not a
/// point: `step_with` is `step_batch_with` over one row.
pub const DECODE_BATCH_SWEEP: &[usize] = &[4, 16, 64];

/// Rows gathered per expert in the `expert_group` group: `g{G}` runs every
/// expert of one layer over `G` activation rows. With 16 experts and top-4
/// routing a 24-row decode step gathers ~6 rows per expert and a 64-row
/// prefill panel ~16; 2 and 64 bracket them (a thin round; every row of a
/// full panel on one expert).
pub const EXPERT_GROUP_SWEEP: &[usize] = &[2, 6, 16, 64];

/// Experts per layer of [`prefill_bench_weights`]: one `expert_group/g{G}`
/// iteration sends `PREFILL_BENCH_EXPERTS × G` rows through an expert.
pub const PREFILL_BENCH_EXPERTS: usize = 16;

/// Rounds of the named shape each `round_deal` plan holds.
pub const ROUND_DEAL_ROUNDS: usize = 3;

/// The `round_deal` group's `(label, resident decoders, prefill chunk
/// lengths)`: `skewed` is the round that idled a core under a deal by item
/// count (one 160-token chunk, one 48-token chunk, 8 one-row decoders);
/// `uniform` is 32 equal items, which any deal splits evenly.
pub const ROUND_DEAL_SHAPES: &[(&str, usize, &[usize])] =
    &[("skewed", 8, &[160, 48]), ("uniform", 32, &[])];

/// Tokens processed per iteration of each labelled benchmark, used to
/// convert mean ns/iter into tokens/s. Benchmarks not listed here (the
/// kernel micro-benchmarks) time one matvec per iteration and have no
/// token interpretation.
pub const TOKENS_PER_ITER: &[(&str, usize)] = &[
    ("inference/prefill/packed", PREFILL_TOKENS),
    ("inference/prefill/naive", PREFILL_TOKENS),
    ("inference/decode/packed", DECODE_TOKENS),
    ("inference/decode/naive", DECODE_TOKENS),
    ("inference/prefill_matmul/per_token", PREFILL_MATMUL_TOKENS),
    ("inference/prefill_matmul/t1", PREFILL_MATMUL_TOKENS),
    ("inference/prefill_matmul/t4", PREFILL_MATMUL_TOKENS),
    ("inference/prefill_matmul/t16", PREFILL_MATMUL_TOKENS),
    ("inference/prefill_matmul/t64", PREFILL_MATMUL_TOKENS),
    ("inference/decode_batch/step_b4", 4),
    ("inference/decode_batch/batch_b4", 4),
    ("inference/decode_batch/step_b16", 16),
    ("inference/decode_batch/batch_b16", 16),
    ("inference/decode_batch/step_b64", 64),
    ("inference/decode_batch/batch_b64", 64),
    // Every sharing level submits the same 512 prompt tokens, so
    // tokens/s here reads as *effective* prefill throughput: the paged
    // radix cache serves matched positions without recomputing them.
    (
        "inference/prefix_prefill/share0",
        PREFIX_PREFILL_SEQS * PREFIX_PREFILL_PROMPT,
    ),
    (
        "inference/prefix_prefill/share50",
        PREFIX_PREFILL_SEQS * PREFIX_PREFILL_PROMPT,
    ),
    (
        "inference/prefix_prefill/share90",
        PREFIX_PREFILL_SEQS * PREFIX_PREFILL_PROMPT,
    ),
];

/// Sequences in the shared-prefix prefill benchmark.
pub const PREFIX_PREFILL_SEQS: usize = 8;

/// Prompt length per sequence in the shared-prefix prefill benchmark.
pub const PREFIX_PREFILL_PROMPT: usize = 64;

/// The sweep's `(label, shared prefix tokens)` points: 0%, 50%, and 90%
/// of the prompt shared across all sequences. Block granularity (16
/// positions) means the 58-token point reuses 48 positions per follower.
pub const PREFIX_PREFILL_SHARES: &[(&str, usize)] =
    &[("share0", 0), ("share50", 32), ("share90", 58)];

const PREFIX: [u32; 4] = [1, 5, 9, 17];

fn quick() -> bool {
    std::env::var_os(QUICK_ENV).is_some()
}

/// The model every benchmark runs: `zoo::dataflow_test_model` materialized
/// from the same seed the differential tests use.
pub fn bench_weights() -> ModelWeights {
    let card = zoo::dataflow_test_model();
    ModelWeights::materialize(&card.config, &WeightGenerator::new(2026))
}

/// The larger model the prefill-throughput sweep runs: same 4×4-mappable
/// family as [`bench_weights`], scaled until projections and experts
/// dominate the step (hidden 256, 2048-entry vocabulary, 16 experts of
/// intermediate 512) so the sweep measures the matmul kernels rather than
/// per-token bookkeeping.
pub fn prefill_bench_weights() -> ModelWeights {
    let mut c = zoo::dataflow_test_model().config;
    c.hidden_size = 256;
    c.vocab_size = 2048;
    c.num_layers = 2;
    c.attention.head_dim = 32;
    c.attention.num_query_heads = 8;
    c.attention.num_kv_heads = 4;
    c.moe.num_experts = PREFILL_BENCH_EXPERTS;
    c.moe.experts_per_token = 4;
    c.moe.intermediate_size = 512;
    ModelWeights::materialize(&c, &WeightGenerator::new(2026))
}

/// Requests of the shared-prefix prefill benchmark: [`PREFIX_PREFILL_SEQS`]
/// prompts of [`PREFIX_PREFILL_PROMPT`] tokens whose first `shared` tokens
/// are identical across sequences. Arrivals are staggered by two virtual
/// seconds so each prompt commits to the radix tree before the next one is
/// matched (virtual idle time costs the engine nothing), and each sequence
/// decodes a single token so prefill dominates the measured work.
pub fn prefix_prefill_requests(vocab: u32, shared: usize) -> Vec<SequenceRequest> {
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
pub fn round_deal_plan(
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

/// Cache-effectiveness numbers for the committed trajectory point:
/// `(hit_rate, pages_evicted)`. The hit rate comes from the share90
/// workload above; eviction is exercised separately under a deliberately
/// tight page budget (deterministic cold-prefix LRU), since the offline
/// engine itself plans with an unbounded budget.
pub fn prefix_cache_effectiveness() -> (f64, u64) {
    let w = bench_weights();
    let vocab = w.config.vocab_size as u32;
    let engine = BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216)
        .with_prefix_cache(PrefixCacheConfig::default());
    let sched = BatchScheduler::new(SimConfig::paper_default(), 2048);
    let (_, shared) = PREFIX_PREFILL_SHARES[PREFIX_PREFILL_SHARES.len() - 1];
    let run = match engine.run_with_scheduler(&prefix_prefill_requests(vocab, shared), &sched) {
        Ok((run, _)) => run,
        Err(e) => unreachable!("share90 workload executes: {e:?}"),
    };
    let hit_rate = run.prefix.hits as f64 / run.prefix.lookups.max(1) as f64;

    let mut cache = PrefixCache::new(PrefixCacheConfig {
        page_budget: 64,
        ..PrefixCacheConfig::default()
    });
    for s in 0..PREFIX_PREFILL_SEQS {
        let prompt: Vec<u32> = (0..PREFIX_PREFILL_PROMPT as u32)
            .map(|i| (s as u32 * 131 + i * 3 + 17) % vocab)
            .collect();
        let per_block = cache.config().pages_per_block;
        let mut grant = Vec::new();
        cache.commit(
            &prompt,
            |_| vec![PageBuf::placeholder(); per_block],
            &mut grant,
        );
        cache.release_grant(&mut grant);
    }
    (hit_rate, cache.stats().evicted_pages)
}

/// Register the full suite on `c`: prefill and decode for both engines,
/// plus a packed-vs-dense matvec micro-benchmark on a real weight matrix.
pub fn inference_suite(c: &mut Criterion) {
    let samples = if quick() { 2 } else { 20 };
    let w = bench_weights();
    let naive = NaiveTransformer::new(&w);
    let packed = Transformer::new(w.clone());
    let vocab = w.config.vocab_size as u32;
    let prompt: Vec<u32> = (0..PREFILL_TOKENS as u32)
        .map(|i| (i * 7 + 1) % vocab)
        .collect();

    // Prefill: fresh cache, run the whole prompt through.
    let mut g = c.benchmark_group("inference/prefill");
    g.sample_size(samples);
    let mut scratch = packed.new_scratch();
    g.bench_function("packed", |b| {
        b.iter(|| {
            let mut cache = packed.new_cache();
            for &tok in &prompt {
                packed.step_with(black_box(tok), &mut cache, &mut scratch);
            }
            scratch.logits()[0]
        })
    });
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut cache = naive.new_cache();
            let mut logits = Vec::new();
            for &tok in &prompt {
                logits = naive.step(black_box(tok), &mut cache);
            }
            logits[0]
        })
    });
    g.finish();

    // Decode: greedy continuation from a cloned prefix cache, so every
    // iteration decodes the same token positions.
    let mut base = packed.new_cache();
    let mut scratch = packed.new_scratch();
    for &tok in &PREFIX {
        packed.step_with(tok, &mut base, &mut scratch);
    }
    let seed_tok = Sampler::Greedy.sample(scratch.logits());
    let mut naive_base = naive.new_cache();
    let mut naive_logits = Vec::new();
    for &tok in &PREFIX {
        naive_logits = naive.step(tok, &mut naive_base);
    }
    let naive_seed_tok = Sampler::Greedy.sample(&naive_logits);

    let mut g = c.benchmark_group("inference/decode");
    g.sample_size(samples);
    g.bench_function("packed", |b| {
        b.iter(|| {
            let mut cache = base.clone();
            let mut tok = seed_tok;
            for _ in 0..DECODE_TOKENS {
                packed.step_with(black_box(tok), &mut cache, &mut scratch);
                tok = Sampler::Greedy.sample(scratch.logits());
            }
            tok
        })
    });
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut cache = naive_base.clone();
            let mut tok = naive_seed_tok;
            for _ in 0..DECODE_TOKENS {
                let logits = naive.step(black_box(tok), &mut cache);
                tok = Sampler::Greedy.sample(&logits);
            }
            tok
        })
    });
    g.finish();

    // Prefill-throughput sweep on the larger model: one full prompt per
    // iteration, either stepped token by token (T = 1 panels plus an
    // unembed per token) or panelled through the matmul kernels at width
    // T. All five produce bit-identical KV and logits.
    let big = prefill_bench_weights();
    let big_model = Transformer::new(big.clone());
    let big_vocab = big_model.config().vocab_size as u32;
    let sweep_prompt: Vec<u32> = (0..PREFILL_MATMUL_TOKENS as u32)
        .map(|i| (i * 7 + 1) % big_vocab)
        .collect();
    let mut scratch = big_model.new_scratch();
    let mut g = c.benchmark_group("inference/prefill_matmul");
    g.sample_size(samples);
    g.bench_function("per_token", |b| {
        b.iter(|| {
            let mut cache = big_model.new_cache();
            for &tok in &sweep_prompt {
                big_model.step_with(black_box(tok), &mut cache, &mut scratch);
            }
            scratch.logits()[0]
        })
    });
    for &panel in PREFILL_PANEL_SWEEP {
        g.bench_function(format!("t{panel}"), |b| {
            b.iter(|| {
                let mut cache = big_model.new_cache();
                big_model.prefill_chunked(
                    black_box(&sweep_prompt),
                    &mut cache,
                    &mut scratch,
                    panel,
                    true,
                );
                scratch.logits()[0]
            })
        });
    }
    g.finish();

    // Expert-group sweep: the three matmuls of every expert of layer 0,
    // straight through the kernel at the group sizes routing produces.
    // `prefill_matmul` above only times whole 16/64-row panels, where the
    // MoE stage's real operand — a handful of rows per expert, so mostly
    // remainder token blocks — is averaged away. No SwiGLU between gate
    // and down: the values do not change what a matmul costs.
    let experts = &big.layers[0];
    let (h, inter) = (experts.up[0].rows(), experts.up[0].cols());
    let max_group = EXPERT_GROUP_SWEEP.iter().copied().max().unwrap_or(0);
    let xs: Vec<f32> = (0..max_group * h)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.25)
        .collect();
    let mut upp = vec![0.0f32; max_group * inter];
    let mut gatep = vec![0.0f32; max_group * inter];
    let mut downp = vec![0.0f32; max_group * h];
    let mut g = c.benchmark_group("inference/expert_group");
    g.sample_size(samples);
    for &rows in EXPERT_GROUP_SWEEP {
        g.bench_function(format!("g{rows}"), |b| {
            b.iter(|| {
                let xs = black_box(&xs[..rows * h]);
                for e in 0..experts.up.len() {
                    kernels::matmul_into(xs, h, rows, &experts.up[e], &mut upp, inter);
                    kernels::matmul_into(xs, h, rows, &experts.gate[e], &mut gatep, inter);
                    kernels::matmul_into(&gatep, inter, rows, &experts.down[e], &mut downp, h);
                }
                downp[0]
            })
        });
    }
    g.finish();

    // Batched-decode sweep on the same larger model: B sequences at
    // different short contexts each take one decode step, either as B
    // `step_with` calls or as one `step_batch_with`. Every iteration
    // starts from clones of the same prefilled states, so the work per
    // iteration is constant.
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
    let mut g = c.benchmark_group("inference/decode_batch");
    g.sample_size(samples);
    for &batch in DECODE_BATCH_SWEEP {
        g.bench_function(format!("step_b{batch}"), |b| {
            b.iter(|| {
                let mut states = base_states[..batch].to_vec();
                for ((state, scratch), &tok) in states.iter_mut().zip(&mut scratches).zip(&next) {
                    machine.step_with(black_box(tok), state, scratch);
                }
                scratches[batch - 1].logits()[0]
            })
        });
        g.bench_function(format!("batch_b{batch}"), |b| {
            b.iter(|| {
                let mut states = base_states[..batch].to_vec();
                let mut rows: Vec<_> = states.iter_mut().collect();
                let mut arenas: Vec<_> = scratches[..batch].iter_mut().collect();
                machine.step_batch_with(black_box(&next[..batch]), &mut rows, &mut arenas);
                scratches[batch - 1].logits()[0]
            })
        });
    }
    g.finish();

    // Round deal: whole plans through `execute_plan` on the larger model,
    // so the time is the engine's own `run_round` dealing each round to
    // the workers. How far `skewed` sits below a serial replay depends on
    // the runner's core count, so neither point is a gated ratio.
    let engine = BatchedDataflowExecutor::new(machine.clone(), 216);
    let mut g = c.benchmark_group("inference/round_deal");
    g.sample_size(samples);
    for &(label, decoders, chunks) in ROUND_DEAL_SHAPES {
        let (requests, plans) = round_deal_plan(big_vocab, decoders, chunks);
        g.bench_function(label, |b| {
            b.iter(|| match engine.execute_plan(black_box(&requests), &plans) {
                Ok(run) => run.decoded_tokens,
                Err(e) => unreachable!("round_deal plan executes: {e:?}"),
            })
        });
    }
    g.finish();

    // Shared-prefix prefill sweep: the paged engine with the radix
    // prefix cache runs the same 512 submitted prompt tokens at three
    // sharing levels. At share90 followers reuse 48 of 64 positions, so
    // the engine prefills 176 tokens instead of 512 — the wall-clock
    // ratio against share0 is the trajectory's prefix-reuse headline.
    let paged = BatchedDataflowExecutor::new(DataflowExecutor::new(w.clone()), 216)
        .with_prefix_cache(PrefixCacheConfig::default());
    let sched = BatchScheduler::new(SimConfig::paper_default(), 2048);
    let mut g = c.benchmark_group("inference/prefix_prefill");
    g.sample_size(samples);
    for &(label, shared) in PREFIX_PREFILL_SHARES {
        let requests = prefix_prefill_requests(vocab, shared);
        g.bench_function(label, |b| {
            b.iter(
                || match paged.run_with_scheduler(black_box(&requests), &sched) {
                    Ok((run, _)) => run.prefill_tokens,
                    Err(e) => unreachable!("prefix sweep workload executes: {e:?}"),
                },
            )
        });
    }
    g.finish();

    // Kernel micro-benchmark: one q-projection matvec, packed region
    // accumulation vs dense f32, on the real layer-0 weight matrix.
    let wq = &w.layers[0].wq;
    let dense = wq.to_f32();
    let cols = wq.cols();
    let x: Vec<f32> = (0..wq.rows())
        .map(|i| ((i % 17) as f32 - 8.0) * 0.25)
        .collect();
    let mut out = vec![0.0f32; cols];
    let mut g = c.benchmark_group("inference/matvec_wq");
    g.sample_size(if quick() { 2 } else { 200 });
    g.bench_function("packed", |b| {
        b.iter(|| {
            kernels::matvec_into(black_box(&x), wq, &mut out);
            out[0]
        })
    });
    g.bench_function("naive", |b| {
        b.iter(|| tensor::vec_mat(black_box(&x), &dense, cols)[0])
    });
    g.finish();

    // Paper-scale matvec: at gpt-oss-like shapes the dense matrix (33 MB)
    // spills the last-level cache while the packed one (4 MB) does not, so
    // this is where the 8x residency advantage turns into throughput.
    let (rows, cols) = (2880usize, 2880usize);
    let codes: Vec<Fp4> = (0..rows * cols)
        .map(|i| Fp4::from_code((i * 7 + i / cols) as u8 % 16))
        .collect();
    let norm = 1.0 / (rows as f32).sqrt();
    let big = PackedFp4Matrix::from_codes(&codes, rows, cols, norm);
    let big_dense = big.to_f32();
    let x: Vec<f32> = (0..rows)
        .map(|i| ((i % 31) as f32 - 15.0) * 0.125)
        .collect();
    let mut out = vec![0.0f32; cols];
    let mut g = c.benchmark_group("inference/matvec_2880x2880");
    g.sample_size(if quick() { 2 } else { 50 });
    g.bench_function("packed", |b| {
        b.iter(|| {
            kernels::matvec_into(black_box(&x), &big, &mut out);
            out[0]
        })
    });
    g.bench_function("naive", |b| {
        b.iter(|| tensor::vec_mat(black_box(&x), &big_dense, cols)[0])
    });
    g.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_records_every_expected_label() {
        std::env::set_var(QUICK_ENV, "1");
        let mut c = Criterion::default();
        inference_suite(&mut c);
        let labels: Vec<&str> = c.results().iter().map(|(l, _)| l.as_str()).collect();
        for (expected, _) in TOKENS_PER_ITER {
            assert!(labels.contains(expected), "missing bench {expected}");
        }
        for rows in EXPERT_GROUP_SWEEP {
            let label = format!("inference/expert_group/g{rows}");
            assert!(labels.contains(&label.as_str()), "missing bench {label}");
        }
        assert!(labels.contains(&"inference/round_deal/skewed"));
        assert!(labels.contains(&"inference/round_deal/uniform"));
        assert!(labels.contains(&"inference/matvec_wq/packed"));
        assert!(labels.contains(&"inference/matvec_wq/naive"));
        assert!(labels.contains(&"inference/matvec_2880x2880/packed"));
        assert!(c.results().iter().all(|&(_, ns)| ns > 0.0));
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
        let mut work = Vec::new();
        for &(label, shared) in PREFIX_PREFILL_SHARES {
            let reqs = prefix_prefill_requests(vocab, shared);
            let (d, _) = dense.run_with_scheduler(&reqs, &sched).expect("dense");
            let (p, _) = paged.run_with_scheduler(&reqs, &sched).expect("paged");
            assert_eq!(d.outputs, p.outputs, "{label}: token streams diverge");
            assert!(p.prefill_tokens <= d.prefill_tokens, "{label}");
            work.push(p.prefill_tokens);
        }
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

        let (hit_rate, evicted) = prefix_cache_effectiveness();
        assert!(
            hit_rate >= (PREFIX_PREFILL_SEQS - 1) as f64 / PREFIX_PREFILL_SEQS as f64,
            "all followers hit the cache, got {hit_rate}"
        );
        assert!(evicted > 0, "tight budget must evict cold prefixes");
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
        // prefill must reproduce the per-token loop's logits exactly.
        let m = Transformer::new(prefill_bench_weights());
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
