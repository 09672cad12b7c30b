//! The single-device reference transformer (pre-norm GQA + MoE + SwiGLU),
//! the functional ground truth the HNLPU dataflow is verified against.
//!
//! The hot path is allocation-free: all projections run the
//! region-accumulation kernels ([`crate::kernels`]) directly on packed FP4
//! weights, and every intermediate lives in a caller-provided [`Scratch`]
//! arena ([`step_with`](Transformer::step_with)). The allocating entry
//! points ([`step`](Transformer::step) etc.) remain as thin wrappers.

use crate::kernels::matmul_into;
use crate::kv_cache::KvCache;
use crate::lora::LoraAdapter;
use crate::ops::{rmsnorm_into, softmax, softmax_in_place, swiglu_in_place, topk_into};
use crate::sampler::{argmax, Sampler};
use crate::scratch::{Scratch, MAX_PREFILL_PANEL};
use crate::tensor::{add_assign, dot, unembed_into};
use hnlpu_model::{LayerWeights, ModelWeights, TransformerConfig};

/// How a prompt was consumed by a panel-prefill call: how many matmul
/// panels ran and the widest one. Aggregated into
/// [`crate::batch::BatchRunReport`] so degenerate T=1 panel streams are
/// observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefillStats {
    /// Matmul panels executed.
    pub panels: u64,
    /// Tokens in the widest panel.
    pub max_panel: usize,
}

impl PrefillStats {
    /// Fold another chunk run into this one.
    pub fn merge(&mut self, other: PrefillStats) {
        self.panels += other.panels;
        self.max_panel = self.max_panel.max(other.max_panel);
    }
}

/// The reference decoder.
#[derive(Debug, Clone)]
pub struct Transformer {
    weights: ModelWeights,
    /// Optional LoRA side-channel adapters on the query projection,
    /// one slot per layer (§8 future work 4).
    q_adapters: Vec<Option<LoraAdapter>>,
}

impl Transformer {
    /// Wrap materialized weights.
    pub fn new(weights: ModelWeights) -> Self {
        let layers = weights.config.num_layers;
        Transformer {
            weights,
            q_adapters: vec![None; layers],
        }
    }

    /// Install a LoRA adapter on `layer`'s query projection.
    ///
    /// # Panics
    ///
    /// Panics if the adapter shape does not match `Wq` or the layer index
    /// is out of range.
    pub fn set_q_adapter(&mut self, layer: usize, adapter: LoraAdapter) {
        let c = self.config();
        assert_eq!(adapter.rows, c.hidden_size, "adapter rows");
        assert_eq!(adapter.cols, c.attention.q_width(), "adapter cols");
        self.q_adapters[layer] = Some(adapter);
    }

    /// The architecture.
    pub fn config(&self) -> &TransformerConfig {
        &self.weights.config
    }

    /// An empty KV cache for this model.
    pub fn new_cache(&self) -> KvCache {
        let c = self.config();
        KvCache::new(c.num_layers, c.attention.num_kv_heads, c.attention.head_dim)
    }

    /// A scratch arena sized for this model (reusable across steps and
    /// sequences).
    pub fn new_scratch(&self) -> Scratch {
        Scratch::new(self.config())
    }

    /// Embedding lookup for `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` exceeds the vocabulary.
    pub fn embed(&self, token: u32) -> Vec<f32> {
        let c = self.config();
        assert!((token as usize) < c.vocab_size, "token out of vocabulary");
        let h = c.hidden_size;
        self.weights.embedding[token as usize * h..(token as usize + 1) * h].to_vec()
    }

    /// Run one decode step: consume `token` at the cache's current position,
    /// append its KV, and return the next-token logits.
    pub fn step(&self, token: u32, cache: &mut KvCache) -> Vec<f32> {
        let mut scratch = self.new_scratch();
        self.step_with(token, cache, &mut scratch);
        scratch.logits
    }

    /// Allocation-free [`step`](Self::step): the logits land in
    /// `scratch.logits()`.
    // analyze: hot
    pub fn step_with(&self, token: u32, cache: &mut KvCache, scratch: &mut Scratch) {
        self.hidden_step_with(token, cache, scratch);
        let Scratch { xn, logits, .. } = scratch;
        self.unembed_into(xn, logits);
    }

    /// As [`step`](Self::step), but return the final normalized hidden
    /// state instead of logits (the representation text-embedding uses).
    pub fn hidden_step(&self, token: u32, cache: &mut KvCache) -> Vec<f32> {
        let mut scratch = self.new_scratch();
        self.hidden_step_with(token, cache, &mut scratch);
        scratch.xn
    }

    /// Allocation-free [`hidden_step`](Self::hidden_step): the normalized
    /// hidden state lands in `scratch.hidden()`. A step is the T = 1
    /// panel: the token runs through the same block as a prefill chunk.
    // analyze: hot
    pub fn hidden_step_with(&self, token: u32, cache: &mut KvCache, scratch: &mut Scratch) {
        self.run_panel(&[token], cache, scratch);
        let h = self.config().hidden_size;
        let Scratch { xp, xn, .. } = scratch;
        rmsnorm_into(&xp[..h], xn);
    }

    /// Sequence scoring (§8 future work 3): total log-probability the model
    /// assigns to `tokens[1..]` given the growing prefix.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` has fewer than two entries.
    pub fn score_sequence(&self, tokens: &[u32]) -> f64 {
        assert!(tokens.len() >= 2, "need at least two tokens to score");
        let mut cache = self.new_cache();
        let mut scratch = self.new_scratch();
        let mut total = 0.0f64;
        self.step_with(tokens[0], &mut cache, &mut scratch);
        for &next in &tokens[1..] {
            let probs = softmax(scratch.logits());
            total += (probs[next as usize].max(f32::MIN_POSITIVE) as f64).ln();
            self.step_with(next, &mut cache, &mut scratch);
        }
        total
    }

    /// Text embedding (§8 future work 3): mean-pooled normalized hidden
    /// states over the sequence.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn text_embedding(&self, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty(), "need at least one token to embed");
        let mut cache = self.new_cache();
        let mut scratch = self.new_scratch();
        let mut pooled = vec![0.0f32; self.config().hidden_size];
        for &t in tokens {
            self.hidden_step_with(t, &mut cache, &mut scratch);
            add_assign(&mut pooled, scratch.hidden());
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut pooled {
            *v *= inv;
        }
        pooled
    }

    /// Panel prefill: consume `tokens` through the multi-token matmul
    /// kernels, chunked into panels of at most
    /// [`MAX_PREFILL_PANEL`] tokens. Appends every token's KV exactly as a
    /// [`step_with`](Self::step_with) loop would — **bit-identically**, see
    /// [`crate::kernels::matmul_block_into`] — but reads each packed weight
    /// byte once per panel instead of once per token, and computes logits
    /// (into `scratch.logits()`) only for the final token, and only when
    /// `want_logits` is set.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an out-of-vocabulary id.
    pub fn prefill_with(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        scratch: &mut Scratch,
        want_logits: bool,
    ) -> PrefillStats {
        self.prefill_chunked(tokens, cache, scratch, MAX_PREFILL_PANEL, want_logits)
    }

    /// As [`prefill_with`](Self::prefill_with) with an explicit panel
    /// width `panel` (clamped to `1..=MAX_PREFILL_PANEL`) — the knob the
    /// prefill-throughput sweep in `hnlpu-bench` turns.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an out-of-vocabulary id.
    pub fn prefill_chunked(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        scratch: &mut Scratch,
        panel: usize,
        want_logits: bool,
    ) -> PrefillStats {
        assert!(!tokens.is_empty(), "prompt must contain at least one token");
        let panel = panel.clamp(1, MAX_PREFILL_PANEL);
        let mut stats = PrefillStats::default();
        let mut consumed = 0;
        while consumed < tokens.len() {
            let end = (consumed + panel).min(tokens.len());
            let chunk = &tokens[consumed..end];
            consumed = end;
            let logits_now = want_logits && consumed == tokens.len();
            self.prefill_panel_with(chunk, cache, scratch, logits_now);
            stats.panels += 1;
            stats.max_panel = stats.max_panel.max(chunk.len());
        }
        stats
    }

    /// Run one panel of ≤ `MAX_PREFILL_PANEL` tokens through every layer,
    /// unembedding the last one when `want_logits` is set.
    // analyze: hot
    fn prefill_panel_with(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        scratch: &mut Scratch,
        want_logits: bool,
    ) {
        self.run_panel(tokens, cache, scratch);
        if want_logits {
            let h = self.config().hidden_size;
            let t = tokens.len();
            let Scratch { xp, xn, logits, .. } = scratch;
            rmsnorm_into(&xp[(t - 1) * h..t * h], xn);
            self.unembed_into(xn, logits);
        }
    }

    /// Embed one token per row into `scratch.xp` and run the panel through
    /// every layer, appending each row's KV.
    // analyze: hot
    fn run_panel(&self, tokens: &[u32], cache: &mut KvCache, scratch: &mut Scratch) {
        let c = self.config();
        let h = c.hidden_size;
        debug_assert!(tokens.len() <= MAX_PREFILL_PANEL);
        for (x, &tok) in scratch.xp.chunks_exact_mut(h).zip(tokens) {
            assert!((tok as usize) < c.vocab_size, "token out of vocabulary");
            x.copy_from_slice(&self.weights.embedding[tok as usize * h..(tok as usize + 1) * h]);
        }
        let base = cache.len();
        for layer in 0..c.num_layers {
            self.panel_block_with(layer, base, tokens.len(), cache, scratch);
        }
    }

    /// One transformer block over a `t`-token panel starting at context
    /// position `base` — the only function that walks a layer, for a
    /// decode step (`t = 1`) and a prefill chunk alike: reads the residual
    /// panel from `scratch.xp`, writes the updated panel back into it.
    /// Projections go through the matmul kernels, whose every output row
    /// is independent of the panel width (see
    /// [`crate::kernels::matmul_block_into`]); attention/RoPE/MoE math
    /// runs per token in a fixed order — so the KV entries and residuals
    /// are bit-equal for every chunking.
    // analyze: hot
    fn panel_block_with(
        &self,
        layer: usize,
        base: usize,
        t: usize,
        cache: &mut KvCache,
        scratch: &mut Scratch,
    ) {
        let c = *self.config();
        let w = &self.weights.layers[layer];
        let h = c.hidden_size;
        let (hd, qh, kvh) = (
            c.attention.head_dim,
            c.attention.num_query_heads,
            c.attention.num_kv_heads,
        );
        let qw = c.attention.q_width();
        let kvw = c.attention.kv_width();
        let group = c.attention.group_size();
        let Scratch {
            scores,
            delta,
            lora_hidden,
            rope,
            xp,
            xnp,
            xop,
            qp,
            kp,
            vp,
            attnp,
            ..
        } = &mut *scratch;

        // --- Attention ---
        for tt in 0..t {
            rmsnorm_into(&xp[tt * h..(tt + 1) * h], &mut xnp[tt * h..(tt + 1) * h]);
        }
        matmul_into(xnp, h, t, &w.wq, qp, qw);
        if let Some(adapter) = &self.q_adapters[layer] {
            for tt in 0..t {
                adapter.delta_into(&xnp[tt * h..(tt + 1) * h], lora_hidden, delta);
                add_assign(&mut qp[tt * qw..(tt + 1) * qw], delta);
            }
        }
        matmul_into(xnp, h, t, &w.wk, kp, kvw);
        matmul_into(xnp, h, t, &w.wv, vp, kvw);
        for tt in 0..t {
            rope.prepare(base + tt);
            for head in 0..qh {
                rope.apply(&mut qp[tt * qw + head * hd..][..hd]);
            }
            for head in 0..kvh {
                rope.apply(&mut kp[tt * kvw + head * hd..][..hd]);
            }
            cache.append(
                layer,
                &kp[tt * kvw..(tt + 1) * kvw],
                &vp[tt * kvw..(tt + 1) * kvw],
            );
        }
        let scale = 1.0 / (hd as f32).sqrt();
        attnp[..t * qw].fill(0.0);
        for tt in 0..t {
            // Causal: token `tt` sees positions `0 ..= base + tt`, even
            // though the whole panel's KV is already appended.
            let ctx = base + tt + 1;
            for head in 0..qh {
                let kv_head = head / group;
                let qh_vec = &qp[tt * qw + head * hd..][..hd];
                scores.clear();
                scores.extend((0..ctx).map(|p| dot(qh_vec, cache.key(layer, p, kv_head)) * scale));
                softmax_in_place(scores);
                let out = &mut attnp[tt * qw + head * hd..][..hd];
                for (p, &pr) in scores.iter().enumerate() {
                    let val = cache.value(layer, p, kv_head);
                    for (o, &vv) in out.iter_mut().zip(val.iter()) {
                        *o += pr * vv;
                    }
                }
            }
        }
        matmul_into(attnp, qw, t, &w.wo, xop, h);
        for tt in 0..t {
            add_assign(&mut xop[tt * h..(tt + 1) * h], &xp[tt * h..(tt + 1) * h]);
        }

        // --- MoE FFN ---
        stage_experts(w, &c, t, scratch);
        // Replay each token's expert mixture in its chosen order, the
        // accumulation order of a single device.
        let k_experts = c.moe.experts_per_token;
        let Scratch {
            y,
            xp,
            xop,
            expertwp,
            stagep,
            ..
        } = scratch;
        for tt in 0..t {
            y.fill(0.0);
            for slot in tt * k_experts..(tt + 1) * k_experts {
                let ew = expertwp[slot];
                for (yo, &d) in y.iter_mut().zip(stagep[slot * h..(slot + 1) * h].iter()) {
                    *yo += ew * d;
                }
            }
            add_assign(y, &xop[tt * h..(tt + 1) * h]);
            xp[tt * h..(tt + 1) * h].copy_from_slice(y);
        }
    }

    /// Unembedding (weight-tied): logits over the vocabulary.
    pub fn unembed(&self, x: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0; self.config().vocab_size];
        self.unembed_into(x, &mut logits);
        logits
    }

    /// Allocation-free [`unembed`](Self::unembed) of one hidden row.
    fn unembed_into(&self, x: &[f32], logits: &mut [f32]) {
        let h = self.config().hidden_size;
        unembed_into(&self.weights.embedding, h, x, &mut [], |token, logit| {
            logits[token] = logit[0]
        });
    }

    /// Prefill `prompt` then greedily decode `n` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate_greedy(&self, prompt: &[u32], n: usize) -> Vec<u32> {
        self.generate(prompt, n, &mut Sampler::Greedy)
    }

    /// Prefill `prompt` then decode `n` tokens with `sampler`. One scratch
    /// arena serves the whole sequence, so the loop never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate(&self, prompt: &[u32], n: usize, sampler: &mut Sampler) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must contain at least one token");
        let mut cache = self.new_cache();
        let mut scratch = self.new_scratch();
        self.prefill_with(prompt, &mut cache, &mut scratch, true);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = sampler.sample(scratch.logits());
            out.push(next);
            if out.len() == n {
                break;
            }
            self.step_with(next, &mut cache, &mut scratch);
        }
        out
    }

    /// Greedy argmax of the current logits (exposed for sequence-scoring
    /// style uses).
    pub fn argmax_token(logits: &[f32]) -> u32 {
        argmax(logits)
    }
}

/// The MoE stage of a block, up to (not including) the mixture: normalize
/// the post-attention residual panel `xop` into `xnp`, route every row
/// (router logits → top-k → softmaxed weights into `chosenp` /
/// `expertwp`), then per touched expert gather the rows routed to it, run
/// up / gate / SwiGLU / down as one matmul each, and stage the down
/// outputs per (row, chosen slot) in `stagep`. Both executors call this;
/// they differ only in the order they then replay the staged outputs into
/// each row's mixture, which is where placement shows.
// analyze: hot
pub(crate) fn stage_experts(
    w: &LayerWeights,
    c: &TransformerConfig,
    t: usize,
    scratch: &mut Scratch,
) {
    let h = c.hidden_size;
    let inter = c.moe.intermediate_size;
    let n_experts = c.moe.num_experts;
    let k_experts = c.moe.experts_per_token;
    let Scratch {
        chosen,
        expert_w,
        xnp,
        xop,
        routerp,
        chosenp,
        expertwp,
        gatherp,
        upp,
        gatep,
        stagep,
        gidx,
        ..
    } = scratch;
    for tt in 0..t {
        rmsnorm_into(&xop[tt * h..(tt + 1) * h], &mut xnp[tt * h..(tt + 1) * h]);
    }
    matmul_into(xnp, h, t, &w.router, routerp, n_experts);
    for tt in 0..t {
        let logits = &routerp[tt * n_experts..(tt + 1) * n_experts];
        topk_into(logits, k_experts, chosen);
        expert_w.clear();
        expert_w.extend(chosen.iter().map(|&e| logits[e]));
        softmax_in_place(expert_w);
        chosenp[tt * k_experts..(tt + 1) * k_experts].copy_from_slice(chosen);
        expertwp[tt * k_experts..(tt + 1) * k_experts].copy_from_slice(expert_w);
    }
    for e in 0..n_experts {
        gidx.clear();
        gidx.extend((0..t * k_experts).filter(|&slot| chosenp[slot] == e));
        if gidx.is_empty() {
            continue;
        }
        let g = gidx.len();
        for (gi, &slot) in gidx.iter().enumerate() {
            let tt = slot / k_experts;
            gatherp[gi * h..(gi + 1) * h].copy_from_slice(&xnp[tt * h..(tt + 1) * h]);
        }
        matmul_into(&gatherp[..g * h], h, g, &w.up[e], upp, inter);
        matmul_into(&gatherp[..g * h], h, g, &w.gate[e], gatep, inter);
        for gi in 0..g {
            let (gate_row, up_row) = (
                &mut gatep[gi * inter..(gi + 1) * inter],
                &upp[gi * inter..(gi + 1) * inter],
            );
            swiglu_in_place(gate_row, up_row);
        }
        // The group's activations are no longer needed, so the down
        // outputs overwrite `gatherp` before scattering to the stage.
        matmul_into(&gatep[..g * inter], inter, g, &w.down[e], gatherp, h);
        for (gi, &slot) in gidx.iter().enumerate() {
            stagep[slot * h..(slot + 1) * h].copy_from_slice(&gatherp[gi * h..(gi + 1) * h]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::{zoo, WeightGenerator};

    fn model() -> Transformer {
        let card = zoo::test_model();
        Transformer::new(ModelWeights::materialize(
            &card.config,
            &WeightGenerator::new(42),
        ))
    }

    /// `a` and `b` hold the same number of positions with bit-identical
    /// keys and values.
    fn assert_cache_bitwise_equal(m: &Transformer, a: &KvCache, b: &KvCache) {
        assert_eq!(a.len(), b.len(), "cached positions");
        let c = m.config();
        for layer in 0..c.num_layers {
            for p in 0..a.len() {
                for head in 0..c.attention.num_kv_heads {
                    assert_eq!(
                        a.key(layer, p, head),
                        b.key(layer, p, head),
                        "key layer {layer} pos {p} head {head}"
                    );
                    assert_eq!(
                        a.value(layer, p, head),
                        b.value(layer, p, head),
                        "value layer {layer} pos {p} head {head}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_produces_vocab_logits() {
        let m = model();
        let mut cache = m.new_cache();
        let logits = m.step(3, &mut cache);
        assert_eq!(logits.len(), m.config().vocab_size);
        assert_eq!(cache.len(), 1);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn fresh_and_reused_scratch_agree_bitwise() {
        // The arena must be a pure workspace: a scratch dirtied by other
        // sequences produces the same logits as a fresh one.
        let m = model();
        let mut dirty = m.new_scratch();
        let mut warm_cache = m.new_cache();
        for t in [9u32, 2, 5] {
            m.step_with(t, &mut warm_cache, &mut dirty);
        }
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        for t in [1u32, 2, 3] {
            let fresh = m.step(t, &mut c1);
            m.step_with(t, &mut c2, &mut dirty);
            assert_eq!(fresh.as_slice(), dirty.logits());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let a = m.generate_greedy(&[1, 2, 3], 6);
        let b = m.generate_greedy(&[1, 2, 3], 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn different_prompts_diverge() {
        let m = model();
        let a = m.generate_greedy(&[1, 2, 3], 8);
        let b = m.generate_greedy(&[4, 5, 6], 8);
        assert_ne!(a, b);
    }

    #[test]
    fn context_affects_logits() {
        // Causal attention: the same token in different contexts produces
        // different logits.
        let m = model();
        let mut c1 = m.new_cache();
        m.step(1, &mut c1);
        let l1 = m.step(7, &mut c1);
        let mut c2 = m.new_cache();
        m.step(2, &mut c2);
        let l2 = m.step(7, &mut c2);
        assert_ne!(l1, l2);
    }

    #[test]
    fn multinomial_generation_runs() {
        let m = model();
        let mut s = Sampler::multinomial(0.8, 123);
        let out = m.generate(&[1], 5, &mut s);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&t| (t as usize) < m.config().vocab_size));
    }

    #[test]
    #[should_panic(expected = "token out of vocabulary")]
    fn oversized_token_rejected() {
        model().embed(u32::MAX);
    }

    #[test]
    fn sequence_scoring_prefers_model_output() {
        // A greedily generated continuation must score at least as high as
        // a perturbed one.
        let m = model();
        let prompt = [1u32, 2];
        let gen = m.generate_greedy(&prompt, 4);
        let mut good: Vec<u32> = prompt.to_vec();
        good.extend_from_slice(&gen);
        let mut bad = good.clone();
        let last = *bad.last().unwrap();
        *bad.last_mut().unwrap() = (last + 17) % m.config().vocab_size as u32;
        assert!(m.score_sequence(&good) >= m.score_sequence(&bad));
    }

    #[test]
    fn text_embedding_shape_and_sensitivity() {
        let m = model();
        let a = m.text_embedding(&[1, 2, 3]);
        let b = m.text_embedding(&[4, 5, 6]);
        assert_eq!(a.len(), m.config().hidden_size);
        assert_ne!(a, b);
        // Pooled RMS-normalized states have bounded magnitude.
        let rms = (a.iter().map(|v| v * v).sum::<f32>() / a.len() as f32).sqrt();
        assert!(rms < 2.0, "rms = {rms}");
    }

    #[test]
    fn lora_adapter_changes_generation() {
        use crate::lora::LoraAdapter;
        let mut m = model();
        let before = m.generate_greedy(&[1, 2, 3], 6);
        let c = *m.config();
        m.set_q_adapter(
            0,
            LoraAdapter::seeded(c.hidden_size, c.attention.q_width(), 4, 8.0, 3),
        );
        let after = m.generate_greedy(&[1, 2, 3], 6);
        assert_ne!(before, after, "a strong adapter must steer decoding");
    }

    #[test]
    fn zero_lora_adapter_is_identity() {
        use crate::lora::LoraAdapter;
        let mut m = model();
        let before = m.generate_greedy(&[1, 2, 3], 6);
        let c = *m.config();
        m.set_q_adapter(
            1,
            LoraAdapter::zeros(c.hidden_size, c.attention.q_width(), 4, 1.0),
        );
        assert_eq!(m.generate_greedy(&[1, 2, 3], 6), before);
    }

    #[test]
    #[should_panic(expected = "prompt must contain")]
    fn empty_prompt_rejected() {
        model().generate_greedy(&[], 3);
    }

    #[test]
    fn panel_prefill_is_bitwise_per_token_loop() {
        // A `step_with` loop (T = 1 panels, one unembed per token) appends
        // the same KV and ends on the same logits as one wide panel, bit
        // for bit.
        let m = model();
        let prompt: Vec<u32> = (0..23u32).map(|i| (i * 13 + 2) % 48).collect();
        let mut loop_cache = m.new_cache();
        let mut loop_scratch = m.new_scratch();
        for &t in &prompt {
            m.step_with(t, &mut loop_cache, &mut loop_scratch);
        }
        let mut panel_cache = m.new_cache();
        let mut panel_scratch = m.new_scratch();
        let stats = m.prefill_with(&prompt, &mut panel_cache, &mut panel_scratch, true);
        assert_eq!(stats.panels, 1);
        assert_eq!(stats.max_panel, prompt.len());
        assert_eq!(loop_scratch.logits(), panel_scratch.logits());
        assert_eq!(panel_cache.len(), prompt.len());
        assert_cache_bitwise_equal(&m, &loop_cache, &panel_cache);
        // Decoding after either prefill yields identical continuations.
        let mut a = Vec::new();
        let mut tok = Sampler::Greedy.sample(loop_scratch.logits());
        for _ in 0..6 {
            a.push(tok);
            m.step_with(tok, &mut loop_cache, &mut loop_scratch);
            tok = Sampler::Greedy.sample(loop_scratch.logits());
        }
        let mut b = Vec::new();
        let mut tok = Sampler::Greedy.sample(panel_scratch.logits());
        for _ in 0..6 {
            b.push(tok);
            m.step_with(tok, &mut panel_cache, &mut panel_scratch);
            tok = Sampler::Greedy.sample(panel_scratch.logits());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn prefill_is_chunking_invariant() {
        // The pin between the decode step and every prefill width: the
        // T = 1 panel is what `step_with` runs, 2/3/5 reach the narrow
        // token-block remainders of the vectorized matmul, 16 and 64 its
        // full blocks — and all of them leave bit-identical KV, position
        // and logits, so chunk boundaries cannot be observed.
        let m = model();
        let prompt: Vec<u32> = (0..41u32).map(|i| (i * 7 + 1) % 48).collect();
        let mut want: Option<(KvCache, Vec<f32>)> = None;
        for panel in [1usize, 2, 3, 5, 16, 64] {
            let mut cache = m.new_cache();
            let mut scratch = m.new_scratch();
            let stats = m.prefill_chunked(&prompt, &mut cache, &mut scratch, panel, true);
            assert_eq!(stats.panels as usize, prompt.len().div_ceil(panel));
            assert_eq!(stats.max_panel, panel.min(prompt.len()));
            match &want {
                None => want = Some((cache, scratch.logits().to_vec())),
                Some((want_cache, want_logits)) => {
                    assert_eq!(want_logits.as_slice(), scratch.logits(), "panel {panel}");
                    assert_cache_bitwise_equal(&m, want_cache, &cache);
                }
            }
        }
    }

    #[test]
    fn panel_prefill_respects_lora_adapter() {
        use crate::lora::LoraAdapter;
        let mut m = model();
        let c = *m.config();
        m.set_q_adapter(
            0,
            LoraAdapter::seeded(c.hidden_size, c.attention.q_width(), 4, 8.0, 3),
        );
        let prompt = [1u32, 2, 3, 4, 5];
        let mut loop_cache = m.new_cache();
        let mut loop_scratch = m.new_scratch();
        for &t in &prompt {
            m.step_with(t, &mut loop_cache, &mut loop_scratch);
        }
        let mut cache = m.new_cache();
        let mut scratch = m.new_scratch();
        m.prefill_with(&prompt, &mut cache, &mut scratch, true);
        assert_eq!(loop_scratch.logits(), scratch.logits());
    }
}
