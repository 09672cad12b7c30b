//! The inference benchmark suite: host time of the packed-FP4 engines on
//! `zoo::dataflow_test_model` and on the larger [`prefill_bench_weights`]
//! sweep model. Every gated ratio divides two groups of this suite; the
//! dense-`f32` naive decoder appears once, as the fixed yardstick of the
//! `inference/decode` pair.
//!
//! The `bench_baseline` example runs the suite, prints every bench line,
//! appends the results to the committed `BENCH_inference.json` and gates
//! CI on them. Set the [`QUICK_ENV`] environment variable to any value
//! for a fast smoke-test configuration (CI uses this).

use crate::Timings;
use hnlpu::llm::{
    kernels, BatchedDataflowExecutor, DataflowExecutor, NaiveTransformer, PageBuf, PrefixCache,
    PrefixCacheConfig, Sampler, SequenceRequest, Transformer,
};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{BatchScheduler, RoundPlan, SimConfig};
use serde_json::Value;
use std::hint::black_box;

/// Environment variable switching the suite to a fast smoke-test run.
pub const QUICK_ENV: &str = "HNLPU_BENCH_QUICK";

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
/// sequences in one arena. Both produce bit-identical logits and KV.
/// `B = 1` is not a point: `step_with` is `step_batch_with` over one row.
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

/// Hidden size of [`prefill_bench_weights`].
const PREFILL_BENCH_HIDDEN: usize = 256;

/// Expert intermediate size of [`prefill_bench_weights`].
const PREFILL_BENCH_INTERMEDIATE: usize = 512;

/// Multiply-accumulates one gathered row costs crossing one expert of
/// [`prefill_bench_weights`]: up and gate (`hidden × intermediate` each)
/// and down (`intermediate × hidden`).
pub const EXPERT_MACS_PER_ROW: usize = 3 * PREFILL_BENCH_HIDDEN * PREFILL_BENCH_INTERMEDIATE;

/// Timed iterations per benchmark under [`QUICK_ENV`].
const QUICK_SAMPLES: usize = 2;

/// Timed iterations per benchmark otherwise.
const FULL_SAMPLES: usize = 20;

/// Rounds of the named shape each `round_deal` plan holds.
pub const ROUND_DEAL_ROUNDS: usize = 3;

/// The `round_deal` group's `(label, resident decoders, prefill chunk
/// lengths)`: `skewed` is the round that idled a core under a deal by item
/// count (one 160-token chunk, one 48-token chunk, 8 one-row decoders);
/// `uniform` is 32 equal items, which any deal splits evenly.
pub const ROUND_DEAL_SHAPES: &[(&str, usize, &[usize])] =
    &[("skewed", 8, &[160, 48]), ("uniform", 32, &[])];

/// Tokens processed per iteration of each labelled benchmark, used to
/// convert mean ns/iter into tokens/s. Benchmarks not listed here
/// (`expert_group`, `round_deal`) have no single token interpretation.
pub const TOKENS_PER_ITER: &[(&str, usize)] = &[
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

/// Timed iterations per benchmark of this run: [`QUICK_SAMPLES`] when
/// [`QUICK_ENV`] is set, else [`FULL_SAMPLES`].
fn samples() -> usize {
    if std::env::var_os(QUICK_ENV).is_some() {
        QUICK_SAMPLES
    } else {
        FULL_SAMPLES
    }
}

/// The trajectory point `bench_baseline -- --check` gates a runner
/// against: the latest one recorded on the runner's `kernel_path`. Ratios
/// move with the arm (the AVX-512 block is twice the AVX2 one), so a
/// later point of another arm is skipped, and an arm with no point gets
/// `None` — the gate then fails rather than compare across arms.
pub fn gate_point<'a>(trajectory: &'a [Value], kernel_path: &str) -> Option<&'a Value> {
    trajectory
        .iter()
        .rev()
        .find(|point| point["kernel_path"].as_str() == Some(kernel_path))
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
/// workload above, run on an engine whose budget never evicts; eviction is
/// exercised separately, by committing distinct prompts into a bare tree
/// of placeholder pages under a deliberately tight page budget
/// (deterministic cold-prefix LRU).
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

/// Run the full suite: decode packed vs naive, the prefill panel sweep,
/// the expert-group and batched-decode sweeps, the round deal, and the
/// shared-prefix prefill sweep.
pub fn inference_suite() -> Timings {
    let mut t = Timings::new(samples());
    let w = bench_weights();
    let naive = NaiveTransformer::new(&w);
    let packed = Transformer::new(w.clone());
    let vocab = w.config.vocab_size as u32;

    // Decode: greedy continuation from a cloned prefix cache, so every
    // iteration decodes the same token positions. The naive side is the
    // fixed yardstick: every other ratio times the packed kernels on both
    // sides, so a uniform kernel slowdown (a silent scalar fallback) can
    // leave them standing, while the dense-f32 decoder does not touch the
    // packed kernels at all.
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

    let g = "inference/decode";
    t.run(g, "packed", || {
        let mut cache = base.clone();
        let mut tok = seed_tok;
        for _ in 0..DECODE_TOKENS {
            packed.step_with(black_box(tok), &mut cache, &mut scratch);
            tok = Sampler::Greedy.sample(scratch.logits());
        }
        tok
    });
    t.run(g, "naive", || {
        let mut cache = naive_base.clone();
        let mut tok = naive_seed_tok;
        for _ in 0..DECODE_TOKENS {
            let logits = naive.step(black_box(tok), &mut cache);
            tok = Sampler::Greedy.sample(&logits);
        }
        tok
    });

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_records_every_expected_label() {
        std::env::set_var(QUICK_ENV, "1");
        let t = inference_suite();
        let labels: Vec<&str> = t.results().iter().map(|(l, _)| l.as_str()).collect();
        for (expected, _) in TOKENS_PER_ITER {
            assert!(labels.contains(expected), "missing bench {expected}");
        }
        for rows in EXPERT_GROUP_SWEEP {
            let label = format!("inference/expert_group/g{rows}");
            assert!(labels.contains(&label.as_str()), "missing bench {label}");
        }
        assert!(labels.contains(&"inference/round_deal/skewed"));
        assert!(labels.contains(&"inference/round_deal/uniform"));
        assert!(t.results().iter().all(|&(_, ns)| ns > 0.0));
    }

    #[test]
    fn quick_mode_shortens_runs_and_the_summary_carries_every_result() {
        std::env::set_var(QUICK_ENV, "1");
        assert_eq!(samples(), QUICK_SAMPLES);
        const { assert!(QUICK_SAMPLES < FULL_SAMPLES) };
        let mut t = Timings::new(samples());
        let mut calls = 0;
        t.run("group", "lone", || calls += 1);
        // One untimed warm-up call, then the samples.
        assert_eq!(calls, QUICK_SAMPLES + 1);
        for id in ["zeta", "alpha", "mid"] {
            t.run("group", id, || black_box(id.len()));
        }
        let labels: Vec<&str> = t.results().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["group/lone", "group/zeta", "group/alpha", "group/mid"]
        );
    }

    #[test]
    fn gate_point_is_the_latest_point_of_the_runners_arm() {
        let traj: Value = serde_json::from_str(
            r#"[{"id": "pr15", "kernel_path": "avx2-half-units"},
                {"id": "pr16", "kernel_path": "avx2-half-units"},
                {"id": "pr20", "kernel_path": "avx512-half-units"},
                {"id": "worker-arena", "kernel_path": "avx512-half-units"}]"#,
        )
        .expect("trajectory parses");
        let Value::Array(traj) = traj else {
            unreachable!("the literal is an array")
        };
        let id = |arm| gate_point(&traj, arm).and_then(|p| p["id"].as_str());
        assert_eq!(id("avx512-half-units"), Some("worker-arena"));
        assert_eq!(id("avx2-half-units"), Some("pr16"));
        assert_eq!(id("scalar-regions"), None);
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
