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
use crate::telemetry::{self, Stage, StageNanos};
use crate::tensor::{add_assign, dot};
use hnlpu_model::{LayerWeights, ModelWeights, TransformerConfig};
use std::time::Instant;

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
    pub(crate) fn merge(&mut self, other: PrefillStats) {
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
        stage_experts(&engine.weights, layer, t, scratch);
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
/// `expertwp`), then run every touched expert's group ([`expert_group`])
/// and stage the down outputs per (row, chosen slot) in `stagep`. Both
/// executors call this; they differ only in the order they then replay the
/// staged outputs into each row's mixture, which is where placement shows.
///
/// When the arena sits on a batched pool's [`Board`](crate::help::Board) and some worker of
/// the round is idle at the join, the routed panel is posted there and the
/// idle workers claim groups from the top while this one claims them from
/// the bottom; their down rows are copied into `stagep` before returning.
/// Each group is the same matmuls over the same rows whichever thread runs
/// it, so `stagep` is bitwise the same either way. Its host time goes to
/// the `ExpertMatmuls` and `SwiGlu` spans, a pair per group run here.
pub(crate) fn stage_experts(weights: &ModelWeights, layer: usize, t: usize, scratch: &mut Scratch) {
    let c = &weights.config;
    let w = &weights.layers[layer];
    let h = c.hidden_size;
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
        spans,
        board,
        ..
    } = scratch;
    let mut span = telemetry::start();
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
    let (xnp, chosenp) = (&xnp[..t * h], &chosenp[..t * k_experts]);
    let board = (board.as_deref()).filter(|board| board.post(layer, xnp, chosenp));
    let mut group = Group {
        gidx,
        gatherp,
        upp,
        gatep,
        spans,
    };
    for e in 0..n_experts {
        if board.is_some_and(|board| !board.claim(e)) {
            continue;
        }
        span = expert_group(w, c, e, xnp, chosenp, &mut group, span);
        scatter(group.gidx, group.gatherp, h, stagep);
    }
    group.spans.close(Stage::ExpertMatmuls, span);
    if let Some(board) = board {
        board.collect(chosenp, h, stagep);
    }
}

/// The arena buffers one expert group runs in.
pub(crate) struct Group<'a> {
    /// The group's (row, chosen slot) ids.
    pub(crate) gidx: &'a mut Vec<usize>,
    /// The gathered rows; then the group's down rows.
    pub(crate) gatherp: &'a mut [f32],
    pub(crate) upp: &'a mut [f32],
    pub(crate) gatep: &'a mut [f32],
    pub(crate) spans: &'a mut StageNanos,
}

/// One expert group of a routed panel: gather the rows of `xnp` whose
/// slots in `chosen` route to expert `e`, then run up / gate / SwiGLU /
/// down as one matmul each. Leaves the slot ids in `group.gidx` and the
/// down rows, in the same order, in `group.gatherp`; an untouched expert
/// leaves `gidx` empty. Closes the `ExpertMatmuls` and `SwiGlu` spans of
/// the chain opened at `span` and returns the open end.
pub(crate) fn expert_group(
    w: &LayerWeights,
    c: &TransformerConfig,
    e: usize,
    xnp: &[f32],
    chosen: &[usize],
    group: &mut Group<'_>,
    mut span: Instant,
) -> Instant {
    let h = c.hidden_size;
    let inter = c.moe.intermediate_size;
    let k_experts = c.moe.experts_per_token;
    let Group {
        gidx,
        gatherp,
        upp,
        gatep,
        spans,
    } = group;
    gidx.clear();
    gidx.extend((0..chosen.len()).filter(|&slot| chosen[slot] == e));
    if gidx.is_empty() {
        return span;
    }
    let g = gidx.len();
    for (gi, &slot) in gidx.iter().enumerate() {
        let tt = slot / k_experts;
        gatherp[gi * h..(gi + 1) * h].copy_from_slice(&xnp[tt * h..(tt + 1) * h]);
    }
    matmul_into(&gatherp[..g * h], h, g, &w.up[e], upp, inter);
    matmul_into(&gatherp[..g * h], h, g, &w.gate[e], gatep, inter);
    span = spans.close(Stage::ExpertMatmuls, span);
    // The group's rows are contiguous: one call covers all of them.
    swiglu_in_place(&mut gatep[..g * inter], &upp[..g * inter]);
    span = spans.close(Stage::SwiGlu, span);
    // The group's activations are no longer needed, so the down outputs
    // overwrite `gatherp`.
    matmul_into(&gatep[..g * inter], inter, g, &w.down[e], gatherp, h);
    span
}

/// Copy a group's down rows (`down`, rows of `h`, in `gidx` order) to
/// their (row, chosen slot) places in `stage`.
pub(crate) fn scatter(gidx: &[usize], down: &[f32], h: usize, stage: &mut [f32]) {
    for (gi, &slot) in gidx.iter().enumerate() {
        stage[slot * h..(slot + 1) * h].copy_from_slice(&down[gi * h..(gi + 1) * h]);
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
    #[should_panic(expected = "prompt must contain")]
    fn empty_prompt_rejected() {
        model().generate_greedy(&[], 3);
    }

    /// The refactor pin: streams and logit bit patterns printed from the
    /// commit before `Transformer` became `Engine<SingleChip>`. The logit
    /// bits were rebased when `ops::exp` replaced the host libm's `expf`
    /// (the streams did not move), and streams and logits both when the
    /// synthetic weights and the rotary angles stopped calling the host
    /// libm.
    #[test]
    fn streams_and_logits_match_the_pre_engine_golden() {
        let m = model();
        for (prompt, want) in [
            (
                &[1u32, 2, 3][..],
                [255u32, 30, 30, 30, 48, 48, 48, 50, 50, 106, 143, 48],
            ),
            (
                &[200, 7],
                [7, 7, 128, 128, 210, 210, 210, 210, 210, 210, 210, 210],
            ),
            (&[64], [193, 193, 141, 141, 141, 141, 141, 34, 3, 57, 57, 1]),
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
            assert_eq!(digest, 0x324d_a520_59bc_f100, "panel {panel}");
            assert_eq!(
                bits.take(4).collect::<Vec<_>>(),
                [0x3f5d_21a0, 0xbf8b_9c89, 0x3eee_2e12, 0xbfc3_adb0],
                "panel {panel}"
            );
        }
    }
}
