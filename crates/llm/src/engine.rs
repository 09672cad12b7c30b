//! The one engine driver both machines share.
//!
//! The paper's functional claim is that the 4×4-chip HNLPU computes the
//! same function as a single device, so the two executors are one
//! [`Engine`] over two [`Placement`]s: [`crate::reference::Transformer`]
//! is `Engine<SingleChip>`, [`crate::dataflow::DataflowExecutor`] is
//! `Engine<Grid>`. Everything *around* the transformer block is written
//! once here — embedding gather and layer loop, chunked panel prefill, the
//! single and the batched decode step, unembedding, scoring, text
//! embedding, the generate loop — allocation-free in a caller-provided
//! [`Scratch`]. A placement supplies its per-sequence state, four small
//! hooks and the whole block body: the projection split, KV landing,
//! attention reduction, output projection and mixture order *are* the
//! placement, so the block is not cut into a hook per stage, and `naive` ↔
//! `reference` ↔ `dataflow` stays a chain of three separately written
//! blocks checked against each other.

use crate::ops::{rmsnorm_into, softmax};
use crate::reference::PrefillStats;
use crate::sampler::Sampler;
use crate::scratch::{Scratch, MAX_PREFILL_PANEL};
use crate::telemetry::{self, Stage};
use crate::tensor::{add_assign, unembed_into, UNEMBED_MAX_ROWS};
use hnlpu_model::{ModelWeights, TransformerConfig};
use std::marker::PhantomData;

// A batched decode step unembeds every row of a full panel in one call.
const _: () = assert!(
    MAX_PREFILL_PANEL <= UNEMBED_MAX_ROWS,
    "a full panel must fit one unembedding pass"
);

/// Where the model's weights and a sequence's KV live, and therefore how a
/// transformer block runs. Sealed: `PanelRows` cannot be named outside
/// this crate, which implements it for `reference::SingleChip`
/// and [`crate::dataflow::Grid`].
pub trait Placement: Sized {
    /// Mutable per-sequence execution state: the sequence's KV, plus
    /// whatever the placement accounts per sequence.
    type State;

    /// Panic unless `config` maps onto this placement.
    fn validate(config: &TransformerConfig);

    /// Fresh state for one sequence of `config`'s architecture.
    fn new_state(config: &TransformerConfig) -> Self::State;

    /// Tokens `state` has consumed: the context position of its next row.
    fn position(state: &Self::State) -> usize;

    /// Account the communication of unembedding one of `state`'s rows.
    fn charge_unembed(config: &TransformerConfig, state: &mut Self::State);

    /// One transformer block over an activation panel: row `tt` sits at
    /// context position `positions[tt]` of the sequence `rows` names for
    /// it. Reads the residual panel from `scratch.xp`, appends each row's
    /// KV for `layer`, and writes the updated panel back into `scratch.xp`.
    /// A row's results must not depend on the panel's other rows.
    fn panel_block(
        engine: &Engine<Self>,
        layer: usize,
        positions: &[usize],
        rows: &mut PanelRows<'_, '_, Self::State>,
        scratch: &mut Scratch,
    );
}

/// Which sequence each row of an activation panel belongs to — the only
/// thing that differs between a prefill panel and a batched decode step.
#[derive(Debug)]
pub enum PanelRows<'a, 's, S> {
    /// `t` consecutive positions of the sequence `state`.
    Prefill { state: &'a mut S, t: usize },
    /// The next position of each of several sequences: row `tt` is
    /// sequence `tt`.
    Decode(&'a mut [&'s mut S]),
}

impl<S> PanelRows<'_, '_, S> {
    pub(crate) fn len(&self) -> usize {
        match self {
            PanelRows::Prefill { t, .. } => *t,
            PanelRows::Decode(states) => states.len(),
        }
    }

    /// The state of row `tt`'s sequence.
    pub(crate) fn state(&mut self, tt: usize) -> &mut S {
        match self {
            PanelRows::Prefill { state, .. } => state,
            PanelRows::Decode(states) => states[tt],
        }
    }

    /// Row `tt`'s state, shared: several rows' states may be read at once.
    pub(crate) fn get(&self, tt: usize) -> &S {
        match self {
            PanelRows::Prefill { state, .. } => state,
            PanelRows::Decode(states) => states[tt],
        }
    }
}

/// A decoder over materialized weights placed by `P`. See the module docs.
#[derive(Debug, Clone)]
pub struct Engine<P: Placement> {
    pub(crate) weights: ModelWeights,
    placement: PhantomData<P>,
}

impl<P: Placement> Engine<P> {
    /// Wrap materialized weights.
    ///
    /// # Panics
    ///
    /// Panics unless the architecture maps onto the placement: the 4×4
    /// grid needs hidden size, KV heads and query heads divisible by 4 and
    /// experts divisible by 16 (use
    /// [`hnlpu_model::zoo::dataflow_test_model`] for tests).
    pub fn new(weights: ModelWeights) -> Self {
        P::validate(&weights.config);
        Engine {
            weights,
            placement: PhantomData,
        }
    }

    /// The architecture.
    pub fn config(&self) -> &TransformerConfig {
        &self.weights.config
    }

    /// Fresh execution state for one sequence.
    pub fn new_state(&self) -> P::State {
        P::new_state(self.config())
    }

    /// A scratch arena sized for this model (reusable across steps and
    /// sequences).
    pub fn new_scratch(&self) -> Scratch {
        Scratch::new(self.config())
    }

    /// Run one decode step: consume `token` at the state's current
    /// position, append its KV, and return the next-token logits.
    #[cfg(test)]
    pub(crate) fn step(&self, token: u32, state: &mut P::State) -> Vec<f32> {
        let mut scratch = self.new_scratch();
        self.step_with(token, state, &mut scratch);
        scratch.logits
    }

    /// Run one decode step in `scratch`: consume `token` at the state's
    /// current position and append its KV; the next-token logits land in
    /// `scratch.logits()`. A step is a batched step of one row whose logits
    /// buffer is the arena's own.
    pub fn step_with(&self, token: u32, state: &mut P::State, scratch: &mut Scratch) {
        let mut logits = std::mem::take(&mut scratch.logits);
        self.step_batch_with(&[token], &mut [state], scratch, &mut [&mut logits]);
        scratch.logits = logits;
    }

    /// One decode step for several sequences at once: sequence `i`
    /// consumes `tokens[i]` at its own position, its logits land in
    /// `logits[i]` (a vocabulary-sized buffer the sequence keeps), and its
    /// final normalized hidden state is row `i` of the arena's normalized
    /// panel.
    ///
    /// Every row's logits, KV, position and communication counters are
    /// bit-identical to a [`step_with`](Self::step_with) call on that
    /// sequence alone, for any grouping of sequences into calls and
    /// whatever the arena ran before — but each packed weight byte is
    /// decoded once per token block and the embedding table is read once,
    /// instead of once per sequence. The rows run as one activation panel
    /// through the one block, in `arena`'s panel buffers; no row owns them.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length, there are more than
    /// [`MAX_PREFILL_PANEL`] rows, or a token is out of vocabulary.
    pub fn step_batch_with(
        &self,
        tokens: &[u32],
        states: &mut [&mut P::State],
        arena: &mut Scratch,
        logits: &mut [&mut [f32]],
    ) {
        assert_eq!(tokens.len(), logits.len(), "one logits buffer per token");
        if tokens.is_empty() {
            return;
        }
        self.hidden_rows(tokens, states, arena);
        let h = self.config().hidden_size;
        let Scratch {
            xnp, xop, spans, ..
        } = arena;
        let xnp = &xnp[..tokens.len() * h];
        let span = telemetry::start();
        // The post-attention panel is dead by now: it hosts the lanes.
        unembed_into(&self.weights.embedding, h, xnp, xop, |token, row_logits| {
            for (out, &logit) in logits.iter_mut().zip(row_logits) {
                out[token] = logit;
            }
        });
        spans.close(Stage::Unembed, span);
        for state in states.iter_mut() {
            P::charge_unembed(self.config(), state);
        }
    }

    /// Run one row per sequence through every layer and leave each row's
    /// final normalized hidden state in its row of `arena`'s `xnp` panel.
    fn hidden_rows(&self, tokens: &[u32], states: &mut [&mut P::State], arena: &mut Scratch) {
        assert_eq!(tokens.len(), states.len(), "one state per token");
        assert!(tokens.len() <= MAX_PREFILL_PANEL, "batch exceeds a panel");
        self.run_panel(tokens, &mut PanelRows::Decode(states), arena);
        let h = self.config().hidden_size;
        let Scratch { xp, xnp, .. } = arena;
        let xnp = &mut xnp[..tokens.len() * h];
        for (x, normed) in xp.chunks_exact(h).zip(xnp.chunks_exact_mut(h)) {
            rmsnorm_into(x, normed);
        }
    }

    /// As [`step_with`](Self::step_with), but stop at the final normalized
    /// hidden state (the representation text-embedding uses; replicated on
    /// all chips after the last all-reduce): it lands in
    /// `scratch.hidden()`, and no logits are computed.
    pub fn hidden_step_with(&self, token: u32, state: &mut P::State, scratch: &mut Scratch) {
        self.hidden_rows(&[token], &mut [state], scratch);
    }

    /// Sequence scoring (§8 future work 3): total log-probability the model
    /// assigns to `tokens[1..]` given the growing prefix.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` has fewer than two entries.
    #[expect(
        clippy::disallowed_methods,
        reason = "a reported score, never a served token: its f64 `ln` stays on the host libm"
    )]
    pub fn score_sequence(&self, tokens: &[u32]) -> f64 {
        assert!(tokens.len() >= 2, "need at least two tokens to score");
        let mut state = self.new_state();
        let mut scratch = self.new_scratch();
        let mut total = 0.0f64;
        self.step_with(tokens[0], &mut state, &mut scratch);
        for &next in &tokens[1..] {
            let probs = softmax(scratch.logits());
            total += (probs[next as usize].max(f32::MIN_POSITIVE) as f64).ln();
            self.step_with(next, &mut state, &mut scratch);
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
        let mut state = self.new_state();
        let mut scratch = self.new_scratch();
        let mut pooled = vec![0.0f32; self.config().hidden_size];
        for &t in tokens {
            self.hidden_step_with(t, &mut state, &mut scratch);
            add_assign(&mut pooled, scratch.hidden());
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut pooled {
            *v *= inv;
        }
        pooled
    }

    /// Panel prefill: consume `tokens` through the multi-token matmul
    /// kernels, chunked into panels of at most [`MAX_PREFILL_PANEL`]
    /// tokens. Appends every token's KV exactly as a
    /// [`step_with`](Self::step_with) loop would — **bit-identically**, see
    /// `kernels::matmul_block_into` — but reads each packed weight
    /// byte once per panel instead of once per token, and computes logits
    /// (into `scratch.logits()`) only for the final token, and only when
    /// `want_logits` is set: one vocabulary all-gather per prefill instead
    /// of one per token, the rest of the communication schedule unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an out-of-vocabulary id.
    pub fn prefill_with(
        &self,
        tokens: &[u32],
        state: &mut P::State,
        scratch: &mut Scratch,
        want_logits: bool,
    ) -> PrefillStats {
        self.prefill_chunked(tokens, state, scratch, MAX_PREFILL_PANEL, want_logits)
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
        state: &mut P::State,
        scratch: &mut Scratch,
        panel: usize,
        want_logits: bool,
    ) -> PrefillStats {
        let mut logits = std::mem::take(&mut scratch.logits);
        let out = want_logits.then_some(&mut logits[..]);
        let stats = self.prefill_into(tokens, state, scratch, panel, out);
        scratch.logits = logits;
        stats
    }

    /// [`prefill_chunked`](Self::prefill_chunked) in `arena`'s panel
    /// buffers, unembedding the prompt's last token into `logits` when
    /// given one.
    pub(crate) fn prefill_into(
        &self,
        tokens: &[u32],
        state: &mut P::State,
        arena: &mut Scratch,
        panel: usize,
        logits: Option<&mut [f32]>,
    ) -> PrefillStats {
        assert!(!tokens.is_empty(), "prompt must contain at least one token");
        let mut stats = PrefillStats::default();
        let mut t = 0;
        for chunk in tokens.chunks(panel.clamp(1, MAX_PREFILL_PANEL)) {
            t = chunk.len();
            self.run_panel(chunk, &mut PanelRows::Prefill { state, t }, arena);
            stats.panels += 1;
            stats.max_panel = stats.max_panel.max(t);
        }
        if let Some(logits) = logits {
            // Unembed only the prompt's last token: the last panel's last
            // row, still in `xp`, normalized into row 0 of `xnp`.
            let h = self.config().hidden_size;
            let Scratch {
                xp,
                xnp,
                xop,
                spans,
                ..
            } = arena;
            let hidden = &mut xnp[..h];
            rmsnorm_into(&xp[(t - 1) * h..t * h], hidden);
            // The post-attention panel is dead by now: it hosts the lanes.
            let span = telemetry::start();
            unembed_into(&self.weights.embedding, h, hidden, xop, |token, logit| {
                logits[token] = logit[0]
            });
            spans.close(Stage::Unembed, span);
            P::charge_unembed(self.config(), state);
        }
        stats
    }

    /// Embed one token per row into `scratch.xp` and run the panel through
    /// every layer, appending each row's KV.
    fn run_panel(
        &self,
        tokens: &[u32],
        rows: &mut PanelRows<'_, '_, P::State>,
        scratch: &mut Scratch,
    ) {
        let c = self.config();
        let h = c.hidden_size;
        debug_assert_eq!(tokens.len(), rows.len());
        // Embedding lookup is local on every chip (replicated dictionary).
        for (x, &tok) in scratch.xp.chunks_exact_mut(h).zip(tokens) {
            assert!((tok as usize) < c.vocab_size, "token out of vocabulary");
            x.copy_from_slice(&self.weights.embedding[tok as usize * h..(tok as usize + 1) * h]);
        }
        // Captured before any layer runs: a state may report its position
        // from layer 0's KV fill, which moves during layer 0's appends.
        let mut positions = [0usize; MAX_PREFILL_PANEL];
        let positions = &mut positions[..tokens.len()];
        for (tt, position) in positions.iter_mut().enumerate() {
            *position = match rows {
                PanelRows::Prefill { state, .. } => P::position(state) + tt,
                PanelRows::Decode(states) => P::position(states[tt]),
            };
        }
        for layer in 0..c.num_layers {
            P::panel_block(self, layer, positions, rows, scratch);
        }
    }

    /// Prefill `prompt` then greedily decode `n` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate_greedy(&self, prompt: &[u32], n: usize) -> Vec<u32> {
        self.generate(prompt, n, &mut Sampler::Greedy)
    }

    /// Prefill `prompt` then decode `n` tokens with `sampler`.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate(&self, prompt: &[u32], n: usize, sampler: &mut Sampler) -> Vec<u32> {
        self.generate_in(prompt, n, sampler, &mut self.new_state())
    }

    /// [`generate`](Self::generate) in a caller-provided fresh `state`,
    /// which keeps what the run accounted. One scratch arena serves the
    /// whole sequence, so the loop never allocates.
    pub(crate) fn generate_in(
        &self,
        prompt: &[u32],
        n: usize,
        sampler: &mut Sampler,
        state: &mut P::State,
    ) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must contain at least one token");
        let mut scratch = self.new_scratch();
        self.prefill_with(prompt, state, &mut scratch, true);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = sampler.sample(scratch.logits());
            out.push(next);
            if out.len() == n {
                break;
            }
            self.step_with(next, state, &mut scratch);
        }
        out
    }
}

/// The driver's contracts, each written once over a [`Probe`] and
/// instantiated for both placements from `reference::tests` and
/// `dataflow::tests`, beside each placement's fixtures.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataflow::CommCounters;
    use crate::kv_cache::KvCache;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// What the generic tests need from a placement beyond [`Placement`].
    pub(crate) trait Probe: Placement<State: Clone> {
        /// A small engine this placement can host.
        fn engine() -> Engine<Self>;

        /// Every KV cache of `state`, in a fixed order.
        fn caches(state: &Self::State) -> Vec<&KvCache>;

        /// What `state` accounted so far (nothing, on one chip).
        fn comm(_state: &Self::State) -> CommCounters {
            CommCounters::default()
        }

        /// States for the batched-step test whose contexts begin with the
        /// first `depth` tokens of `shared`, one per depth.
        fn shared_states(
            engine: &Engine<Self>,
            shared: &[u32],
            depths: &[usize],
        ) -> Vec<Self::State> {
            let prefilled = |&depth: &usize| {
                let mut state = engine.new_state();
                let scratch = &mut engine.new_scratch();
                engine.prefill_with(&shared[..depth], &mut state, scratch, false);
                state
            };
            depths.iter().map(prefilled).collect()
        }
    }

    /// Stamp every driver contract below into the invoking test module as
    /// a `#[test]` on `$placement`.
    macro_rules! placement_tests {
        ($placement:ty) => {
            #[test]
            fn fresh_and_reused_scratch_agree_bitwise() {
                crate::engine::tests::fresh_and_reused_scratch_agree_bitwise::<$placement>();
            }

            #[test]
            fn panel_prefill_is_bitwise_per_token_loop() {
                crate::engine::tests::panel_prefill_is_bitwise_per_token_loop::<$placement>();
            }

            #[test]
            fn prefill_is_chunking_invariant() {
                crate::engine::tests::prefill_is_chunking_invariant::<$placement>();
            }

            proptest::proptest! {
                #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

                #[test]
                fn batched_step_is_bitwise_independent_steps(seed in 0u64..10_000) {
                    crate::engine::tests::batched_step_is_bitwise_independent_steps::<$placement>(seed);
                }
            }
        };
    }
    pub(crate) use placement_tests;

    fn prompt(len: u32) -> Vec<u32> {
        (0..len).map(|i| (i * 7 + 1) % 48).collect()
    }

    /// `a` and `b` sit at the same position with the same counters and
    /// bit-identical keys and values in every cache.
    pub(crate) fn assert_state_bitwise_equal<P: Probe>(a: &P::State, b: &P::State) {
        assert_eq!(P::position(a), P::position(b), "position");
        assert_eq!(P::comm(a), P::comm(b), "counters");
        for (shard, (a, b)) in P::caches(a).into_iter().zip(P::caches(b)).enumerate() {
            assert_eq!(a.len(), b.len(), "shard {shard} length");
            for layer in 0..a.num_layers() {
                for p in 0..a.len() {
                    for head in 0..a.kv_heads() {
                        let at = format!("shard {shard} layer {layer} pos {p} head {head}");
                        assert_eq!(a.key(layer, p, head), b.key(layer, p, head), "key {at}");
                        assert_eq!(
                            a.value(layer, p, head),
                            b.value(layer, p, head),
                            "value {at}"
                        );
                    }
                }
            }
        }
    }

    /// The arena is a pure workspace. A scratch that first served a
    /// different, longer sequence — a 64-row prefill panel, then a batched
    /// step beside another sequence, which leave its scores buffer longer
    /// than needed, stale lanes in `xop` and its rope table on another
    /// position — gives a fresh sequence's single steps, prefill and
    /// batched step the same bits as a fresh scratch.
    pub(crate) fn fresh_and_reused_scratch_agree_bitwise<P: Probe>() {
        let m = P::engine();
        let vocab = m.config().vocab_size;
        let mut dirty = m.new_scratch();
        let (mut long, mut beside) = (m.new_state(), m.new_state());
        m.prefill_with(&prompt(80), &mut long, &mut dirty, true);
        m.prefill_with(&prompt(5), &mut beside, &mut dirty, false);
        let (mut a, mut b) = (vec![0.0; vocab], vec![0.0; vocab]);
        m.step_batch_with(
            &[40, 3],
            &mut [&mut long, &mut beside],
            &mut dirty,
            &mut [&mut a, &mut b],
        );
        let run = |arena: &mut Scratch| -> Vec<Vec<u32>> {
            let bits = |xs: &[f32]| -> Vec<u32> { xs.iter().map(|x| x.to_bits()).collect() };
            let (mut state, mut peer) = (m.new_state(), m.new_state());
            let mut out = Vec::new();
            for t in [1u32, 9, 17] {
                m.step_with(t, &mut state, arena);
                out.push(bits(arena.logits()));
            }
            m.prefill_with(&prompt(6), &mut state, arena, true);
            out.push(bits(arena.logits()));
            m.step_with(5, &mut peer, arena);
            let (mut own, mut peers) = (vec![0.0; vocab], vec![0.0; vocab]);
            m.step_batch_with(
                &[2, 30],
                &mut [&mut state, &mut peer],
                arena,
                &mut [&mut own, &mut peers],
            );
            out.extend([&own[..], &peers[..], arena.hidden()].map(bits));
            out
        };
        assert_eq!(run(&mut m.new_scratch()), run(&mut dirty));
    }

    /// A `step_with` loop (T = 1 panels, one unembed per token) leaves the
    /// same KV and ends on the same logits as one wide panel, bit for bit;
    /// one unembedding per extra step is the whole difference in counters.
    pub(crate) fn panel_prefill_is_bitwise_per_token_loop<P: Probe>() {
        let m = P::engine();
        let prompt = prompt(23);
        let (mut loop_state, mut loop_scratch) = (m.new_state(), m.new_scratch());
        for &t in &prompt {
            m.step_with(t, &mut loop_state, &mut loop_scratch);
        }
        let (mut panel_state, mut panel_scratch) = (m.new_state(), m.new_scratch());
        let stats = m.prefill_with(&prompt, &mut panel_state, &mut panel_scratch, true);
        assert_eq!((stats.panels, stats.max_panel), (1, prompt.len()));
        assert_eq!(loop_scratch.logits(), panel_scratch.logits());
        assert_eq!(P::position(&panel_state), prompt.len());
        let mut stepped = panel_state.clone();
        for _ in 1..prompt.len() {
            P::charge_unembed(m.config(), &mut stepped);
        }
        assert_state_bitwise_equal::<P>(&loop_state, &stepped);
        // Decoding after either prefill yields identical continuations.
        let decode = |state: &mut P::State, scratch: &mut Scratch| -> Vec<u32> {
            (0..6)
                .map(|_| {
                    let tok = Sampler::Greedy.sample(scratch.logits());
                    m.step_with(tok, state, scratch);
                    tok
                })
                .collect()
        };
        assert_eq!(
            decode(&mut loop_state, &mut loop_scratch),
            decode(&mut panel_state, &mut panel_scratch)
        );
    }

    /// The pin between the decode step and every prefill width: the T = 1
    /// panel is what `step_with` runs, 2/3/5 reach the narrow token-block
    /// remainders of the vectorized matmul, 16 and 64 its full blocks — and
    /// all of them leave bit-identical KV, position, counters and logits,
    /// so chunk boundaries cannot be observed.
    pub(crate) fn prefill_is_chunking_invariant<P: Probe>() {
        let m = P::engine();
        let prompt = prompt(41);
        let mut want: Option<(P::State, Vec<f32>)> = None;
        for panel in [1usize, 2, 3, 5, 16, 64] {
            let (mut state, mut scratch) = (m.new_state(), m.new_scratch());
            let stats = m.prefill_chunked(&prompt, &mut state, &mut scratch, panel, true);
            assert_eq!(stats.panels as usize, prompt.len().div_ceil(panel));
            assert_eq!(stats.max_panel, panel.min(prompt.len()));
            match &want {
                None => want = Some((state, scratch.logits().to_vec())),
                Some((want_state, want_logits)) => {
                    assert_eq!(want_logits.as_slice(), scratch.logits(), "panel {panel}");
                    assert_state_bitwise_equal::<P>(want_state, &state);
                }
            }
        }
    }

    /// The batched-decode contract: one `step_batch_with` over B sequences
    /// at different positions — every other row of the first twelve built
    /// by [`Probe::shared_states`] at one of six depths (on the grid, rows
    /// reading the same shared pages, on and off a block boundary), the
    /// rest fresh — leaves every row's
    /// logits, hidden state, KV, position and counters bitwise equal to B
    /// independent `step_with` calls, however the rows are grouped into
    /// calls sharing one arena.
    pub(crate) fn batched_step_is_bitwise_independent_steps<P: Probe>(seed: u64) {
        let m = P::engine();
        let mut rng = StdRng::seed_from_u64(seed);
        let tokens = |rng: &mut StdRng, n: usize| -> Vec<u32> {
            (0..n).map(|_| rng.gen_range(0..48)).collect()
        };
        let shared = tokens(&mut rng, 32);
        let depths = [30, 16, 32, 21, 30, 5];
        let mut scratch = m.new_scratch();
        for b in [1usize, 2, 3, 4, 5, 17, 64] {
            let mut on_shared = P::shared_states(&m, &shared, &depths).into_iter();
            let mut states = Vec::new();
            for row in 0..b {
                let mut state = match row % 2 {
                    0 => on_shared.next().unwrap_or_else(|| m.new_state()),
                    _ => m.new_state(),
                };
                let suffix_len = rng.gen_range(1..12);
                let suffix = tokens(&mut rng, suffix_len);
                m.prefill_with(&suffix, &mut state, &mut scratch, false);
                states.push(state);
            }
            let next = tokens(&mut rng, b);

            let mut want = states.clone();
            let mut want_scratch: Vec<Scratch> = (0..b).map(|_| m.new_scratch()).collect();
            for ((state, scratch), &tok) in want.iter_mut().zip(&mut want_scratch).zip(&next) {
                m.step_with(tok, state, scratch);
            }

            // Every group runs in the one arena the prefills dirtied.
            let h = m.config().hidden_size;
            let mut got_logits = vec![vec![0.0f32; m.config().vocab_size]; b];
            let mut got_hidden = Vec::new();
            let mut lo = 0;
            while lo < b {
                let hi = lo + rng.gen_range(1..=b - lo);
                let mut rows: Vec<&mut P::State> = states[lo..hi].iter_mut().collect();
                let mut outs: Vec<&mut [f32]> = got_logits[lo..hi]
                    .iter_mut()
                    .map(Vec::as_mut_slice)
                    .collect();
                m.step_batch_with(&next[lo..hi], &mut rows, &mut scratch, &mut outs);
                let hidden = scratch.xnp[..(hi - lo) * h].chunks_exact(h);
                got_hidden.extend(hidden.map(<[f32]>::to_vec));
                lo = hi;
            }

            for row in 0..b {
                let want_s = &want_scratch[row];
                assert_eq!(got_logits[row], want_s.logits(), "b {b} row {row} logits");
                assert_eq!(got_hidden[row], want_s.hidden(), "b {b} row {row} hidden");
                assert_state_bitwise_equal::<P>(&states[row], &want[row]);
            }
        }
    }
}
