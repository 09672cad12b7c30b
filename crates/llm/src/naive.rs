//! The pre-optimization baseline: a dense-`f32`, allocation-per-op decoder.
//!
//! [`NaiveTransformer`] dequantizes every packed matrix up front
//! ([`hnlpu_model::PackedFp4Matrix::to_f32`]) and runs the seed's original
//! hot path — fresh `Vec`s for every intermediate, [`crate::tensor::vec_mat`]
//! over dense `f32` weights, `powf`-per-element rotary embedding. It exists
//! for two jobs:
//!
//! * the benchmark baseline the packed region-accumulation path is measured
//!   against (`hnlpu-bench`'s `inference` bench and `BENCH_inference.json`);
//! * a semantic cross-check: its logits must agree with the optimized
//!   [`crate::reference::Transformer`] within quantization-noise tolerance,
//!   since both compute the same function from the same codes.

use crate::kv_cache::KvCache;
use crate::ops::{rmsnorm, rope, softmax, swiglu, topk};
use crate::sampler::Sampler;
use crate::tensor::{add_assign, dot, vec_mat};
use hnlpu_model::{ModelWeights, TransformerConfig};

/// Dense `f32` weights of one layer (the memory layout the seed carried).
#[derive(Debug, Clone)]
struct DenseLayer {
    wq: Vec<f32>,
    wk: Vec<f32>,
    wv: Vec<f32>,
    wo: Vec<f32>,
    router: Vec<f32>,
    up: Vec<Vec<f32>>,
    gate: Vec<Vec<f32>>,
    down: Vec<Vec<f32>>,
}

/// The dense-`f32` baseline decoder. See the module docs.
#[derive(Debug, Clone)]
pub struct NaiveTransformer {
    config: TransformerConfig,
    embedding: Vec<f32>,
    layers: Vec<DenseLayer>,
}

impl NaiveTransformer {
    /// Dequantize `weights` into resident dense `f32` tensors.
    pub fn new(weights: &ModelWeights) -> Self {
        NaiveTransformer {
            config: weights.config,
            embedding: weights.embedding.clone(),
            layers: weights
                .layers
                .iter()
                .map(|l| DenseLayer {
                    wq: l.wq.to_f32(),
                    wk: l.wk.to_f32(),
                    wv: l.wv.to_f32(),
                    wo: l.wo.to_f32(),
                    router: l.router.to_f32(),
                    up: l.up.iter().map(|m| m.to_f32()).collect(),
                    gate: l.gate.iter().map(|m| m.to_f32()).collect(),
                    down: l.down.iter().map(|m| m.to_f32()).collect(),
                })
                .collect(),
        }
    }

    /// The architecture.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// An empty KV cache for this model.
    pub fn new_cache(&self) -> KvCache {
        let c = &self.config;
        KvCache::new(c.num_layers, c.attention.num_kv_heads, c.attention.head_dim)
    }

    /// Resident weight bytes of the dense representation.
    pub fn resident_weight_bytes(&self) -> usize {
        let layer_bytes: usize = self
            .layers
            .iter()
            .map(|l| {
                (l.wq.len()
                    + l.wk.len()
                    + l.wv.len()
                    + l.wo.len()
                    + l.router.len()
                    + l.up.iter().map(Vec::len).sum::<usize>()
                    + l.gate.iter().map(Vec::len).sum::<usize>()
                    + l.down.iter().map(Vec::len).sum::<usize>())
                    * 4
            })
            .sum();
        layer_bytes + self.embedding.len() * 4
    }

    /// One decode step, exactly the seed's allocating code path.
    pub fn step(&self, token: u32, cache: &mut KvCache) -> Vec<f32> {
        let c = self.config;
        let h = c.hidden_size;
        assert!((token as usize) < c.vocab_size, "token out of vocabulary");
        let position = cache.len();
        let mut x: Vec<f32> = self.embedding[token as usize * h..(token as usize + 1) * h].to_vec();
        for layer in 0..c.num_layers {
            x = self.block(&x, layer, position, cache);
        }
        let xf = rmsnorm(&x);
        (0..c.vocab_size)
            .map(|t| dot(&xf, &self.embedding[t * h..(t + 1) * h]))
            .collect()
    }

    fn block(&self, x: &[f32], layer: usize, position: usize, cache: &mut KvCache) -> Vec<f32> {
        let c = self.config;
        let w = &self.layers[layer];
        let (hd, qh, kvh) = (
            c.attention.head_dim,
            c.attention.num_query_heads,
            c.attention.num_kv_heads,
        );
        let group = c.attention.group_size();

        let xn = rmsnorm(x);
        let mut q = vec_mat(&xn, &w.wq, c.attention.q_width());
        let mut k = vec_mat(&xn, &w.wk, c.attention.kv_width());
        let v = vec_mat(&xn, &w.wv, c.attention.kv_width());
        for head in 0..qh {
            rope(&mut q[head * hd..(head + 1) * hd], position);
        }
        for head in 0..kvh {
            rope(&mut k[head * hd..(head + 1) * hd], position);
        }
        cache.append(layer, &k, &v);
        let ctx = cache.len();
        let scale = 1.0 / (hd as f32).sqrt();

        let mut attn_out = vec![0.0f32; qh * hd];
        for head in 0..qh {
            let kv_head = head / group;
            let qh_vec = &q[head * hd..(head + 1) * hd];
            let scores: Vec<f32> = (0..ctx)
                .map(|p| dot(qh_vec, cache.key(layer, p, kv_head)) * scale)
                .collect();
            let probs = softmax(&scores);
            let out = &mut attn_out[head * hd..(head + 1) * hd];
            for (p, &pr) in probs.iter().enumerate() {
                let val = cache.value(layer, p, kv_head);
                for (o, &vv) in out.iter_mut().zip(val.iter()) {
                    *o += pr * vv;
                }
            }
        }
        let mut xo = vec_mat(&attn_out, &w.wo, c.hidden_size);
        add_assign(&mut xo, x);

        let xn = rmsnorm(&xo);
        let router_logits = vec_mat(&xn, &w.router, c.moe.num_experts);
        let chosen = topk(&router_logits, c.moe.experts_per_token);
        let chosen_logits: Vec<f32> = chosen.iter().map(|&e| router_logits[e]).collect();
        let expert_weights = softmax(&chosen_logits);

        let mut y = vec![0.0f32; c.hidden_size];
        for (&expert, &ew) in chosen.iter().zip(expert_weights.iter()) {
            let up = vec_mat(&xn, &w.up[expert], c.moe.intermediate_size);
            let gate = vec_mat(&xn, &w.gate[expert], c.moe.intermediate_size);
            let act = swiglu(&gate, &up);
            let down = vec_mat(&act, &w.down[expert], c.hidden_size);
            for (yo, &d) in y.iter_mut().zip(down.iter()) {
                *yo += ew * d;
            }
        }
        add_assign(&mut y, &xo);
        y
    }

    /// Prefill `prompt` then greedily decode `n` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate_greedy(&self, prompt: &[u32], n: usize) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must contain at least one token");
        let mut cache = self.new_cache();
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.step(t, &mut cache);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = Sampler::Greedy.sample(&logits);
            out.push(next);
            if out.len() == n {
                break;
            }
            logits = self.step(next, &mut cache);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Transformer;
    use hnlpu_model::{zoo, WeightGenerator};

    fn weights() -> ModelWeights {
        let card = zoo::dataflow_test_model();
        ModelWeights::materialize(&card.config, &WeightGenerator::new(2026))
    }

    #[test]
    fn naive_logits_match_packed_reference() {
        // Dense f32 and packed region accumulation compute the same
        // function from the same codes; only summation order differs.
        let w = weights();
        let naive = NaiveTransformer::new(&w);
        let packed = Transformer::new(w);
        let mut nc = naive.new_cache();
        let mut pc = packed.new_cache();
        for &t in &[1u32, 9, 17, 33] {
            let ln = naive.step(t, &mut nc);
            let lp = packed.step(t, &mut pc);
            for (i, (&a, &b)) in ln.iter().zip(lp.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-3 * (1.0 + a.abs()),
                    "token {t} logit {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn naive_prefill_panel_matches_packed_reference() {
        // The independent oracle covers the shared driver's panel path
        // too: one 23-row panel ends on the naive step loop's logits.
        let w = weights();
        let naive = NaiveTransformer::new(&w);
        let packed = Transformer::new(w);
        let prompt: Vec<u32> = (0..23u32).map(|i| (i * 13 + 2) % 48).collect();
        let mut nc = naive.new_cache();
        let mut ln = Vec::new();
        for &t in &prompt {
            ln = naive.step(t, &mut nc);
        }
        let mut scratch = packed.new_scratch();
        let stats = packed.prefill_with(&prompt, &mut packed.new_cache(), &mut scratch, true);
        assert_eq!(stats.panels, 1);
        for (i, (&a, &b)) in ln.iter().zip(scratch.logits()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-3 * (1.0 + a.abs()),
                "logit {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn naive_greedy_tokens_match_packed_reference() {
        let w = weights();
        let naive = NaiveTransformer::new(&w);
        let packed = Transformer::new(w);
        assert_eq!(
            naive.generate_greedy(&[1, 5, 9], 10),
            packed.generate_greedy(&[1, 5, 9], 10)
        );
    }

    #[test]
    fn dense_residency_is_at_least_four_times_packed() {
        let w = weights();
        let naive = NaiveTransformer::new(&w);
        let packed_bytes = w.resident_weight_bytes();
        assert!(
            packed_bytes * 4 <= naive.resident_weight_bytes() as u64,
            "packed {packed_bytes} vs dense {}",
            naive.resident_weight_bytes()
        );
    }
}
