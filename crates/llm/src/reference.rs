//! The single-device reference transformer (pre-norm GQA + MoE + SwiGLU),
//! the functional ground truth the HNLPU dataflow is verified against.
//!
//! [`Transformer`] is the shared driver ([`Engine`]) over the
//! [`SingleChip`] placement; this module holds what one chip means — a
//! plain [`KvCache`] as the sequence state and the in-order block body —
//! plus `stage_experts`, the MoE stage both placements run. All
//! projections run the region-accumulation kernels ([`crate::kernels`])
//! directly on packed FP4 weights.

use crate::engine::{Engine, PanelRows, Placement};
use crate::kernels::matmul_into;
use crate::kv_cache::KvCache;
use crate::ops::{rmsnorm_into, softmax_in_place, swiglu_in_place, topk_into};
use crate::scratch::Scratch;
use crate::tensor::{add_assign, dot};
use hnlpu_model::{LayerWeights, TransformerConfig};

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

/// The single-device placement: every weight and the whole KV cache on one
/// chip, so a block is plain in-order math with no partial sums and no
/// communication.
#[derive(Debug, Clone, Copy)]
pub struct SingleChip;

/// The reference decoder.
pub type Transformer = Engine<SingleChip>;

impl Transformer {
    /// An empty KV cache for this model.
    pub fn new_cache(&self) -> KvCache {
        self.new_state()
    }
}

impl Placement for SingleChip {
    type State = KvCache;

    /// One chip hosts any architecture.
    fn validate(_config: &TransformerConfig) {}

    fn new_state(c: &TransformerConfig) -> KvCache {
        KvCache::new(c.num_layers, c.attention.num_kv_heads, c.attention.head_dim)
    }

    fn position(cache: &KvCache) -> usize {
        cache.len()
    }

    /// Nothing to gather: the one chip holds the whole table.
    fn charge_unembed(_config: &TransformerConfig, _cache: &mut KvCache) {}

    /// One transformer block over an activation panel — the only function
    /// that walks a layer, for a single decode step, a batched one and a
    /// prefill chunk alike. Projections go through the matmul kernels,
    /// whose every output row is independent of the panel width (see
    /// [`crate::kernels::matmul_block_into`]); attention/RoPE/MoE math
    /// runs per row in a fixed order against that row's own position and
    /// cache — so the KV entries and residuals are bit-equal for every
    /// chunking and every grouping.
    // analyze: hot
    fn panel_block(
        engine: &Transformer,
        layer: usize,
        positions: &[usize],
        rows: &mut PanelRows<'_, '_, KvCache>,
        scratch: &mut Scratch,
    ) {
        let t = rows.len();
        let c = *engine.config();
        let w = &engine.weights.layers[layer];
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
        if let Some(adapter) = &engine.q_adapters[layer] {
            for tt in 0..t {
                adapter.delta_into(&xnp[tt * h..(tt + 1) * h], lora_hidden, delta);
                add_assign(&mut qp[tt * qw..(tt + 1) * qw], delta);
            }
        }
        matmul_into(xnp, h, t, &w.wk, kp, kvw);
        matmul_into(xnp, h, t, &w.wv, vp, kvw);
        for tt in 0..t {
            rope.prepare(positions[tt]);
            for head in 0..qh {
                rope.apply(&mut qp[tt * qw + head * hd..][..hd]);
            }
            for head in 0..kvh {
                rope.apply(&mut kp[tt * kvw + head * hd..][..hd]);
            }
            rows.state(tt).append(
                layer,
                &kp[tt * kvw..(tt + 1) * kvw],
                &vp[tt * kvw..(tt + 1) * kvw],
            );
        }
        let scale = 1.0 / (hd as f32).sqrt();
        attnp[..t * qw].fill(0.0);
        for tt in 0..t {
            // Causal: a row sees positions `0 ..= positions[tt]`, even
            // though a prefill panel's whole KV is already appended.
            let ctx = positions[tt] + 1;
            let cache = &*rows.state(tt);
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
    use crate::engine::tests as driver;
    use crate::sampler::Sampler;
    use hnlpu_model::{zoo, ModelWeights, WeightGenerator};

    fn model() -> Transformer {
        let card = zoo::test_model();
        Transformer::new(ModelWeights::materialize(
            &card.config,
            &WeightGenerator::new(42),
        ))
    }

    impl driver::Probe for SingleChip {
        fn engine() -> Transformer {
            model()
        }

        fn caches(cache: &KvCache) -> Vec<&KvCache> {
            vec![cache]
        }
    }

    driver::placement_tests!(SingleChip);

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
    fn oversized_token_rejected_by_step() {
        let m = model();
        m.step(u32::MAX, &mut m.new_cache());
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

    /// The refactor pin: streams and logit bit patterns printed from the
    /// commit before `Transformer` became `Engine<SingleChip>`.
    #[test]
    fn streams_and_logits_match_the_pre_engine_golden() {
        let m = model();
        for (prompt, want) in [
            (
                &[1u32, 2, 3][..],
                [225u32, 225, 225, 225, 225, 225, 250, 2, 2, 2, 88, 225],
            ),
            (
                &[200, 7],
                [158, 200, 200, 200, 138, 138, 138, 158, 158, 254, 254, 254],
            ),
            (&[64], [57, 199, 1, 120, 232, 78, 120, 120, 120, 53, 53, 49]),
        ] {
            assert_eq!(m.generate_greedy(prompt, 12), want, "prompt {prompt:?}");
        }
        let prompt: Vec<u32> = (0..41u32).map(|i| (i * 7 + 1) % 48).collect();
        for panel in [1usize, 64] {
            let mut cache = m.new_cache();
            let mut scratch = m.new_scratch();
            m.prefill_chunked(&prompt, &mut cache, &mut scratch, panel, true);
            let bits = scratch.logits().iter().map(|l| l.to_bits());
            // FNV-1a over the logits' little-endian bit patterns.
            let digest = bits
                .clone()
                .flat_map(u32::to_le_bytes)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(digest, 0xc167_53de_d34f_c878, "panel {panel}");
            assert_eq!(
                bits.take(4).collect::<Vec<_>>(),
                [0xbf84_8840, 0x3f4d_1c87, 0x3f98_39af, 0x3e95_54f8],
                "panel {panel}"
            );
        }
    }
}
