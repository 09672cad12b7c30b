//! Help at the join: a worker that has finished its share of a round runs
//! expert groups that the round's still-running workers post.
//!
//! In the paper's machine, chip *i* owns experts `[i·E/16, (i+1)·E/16)`
//! and all sixteen chips run their experts at once. On the host, a round's
//! items are dealt to one worker per core, and a sequence's prefill panels
//! are causal, so a round with one long prefill leaves the other workers
//! waiting at the join. The long item's expert groups need not wait with
//! it: each group is an independent matmul chain over rows gathered from
//! the panel.
//!
//! One [`Board`] is shared by a pool's worker arenas. A worker whose share
//! is done calls [`Share::help`] and waits there. An owner in
//! `reference::stage_experts` posts its routed panel ([`Board::post`])
//! only while some worker of the round is idle. Both sides then claim
//! expert ids one at a time: the owner ascending ([`Board::claim`]), the
//! helpers from the top. Every claimer runs `reference::expert_group` in
//! its own arena. The owner copies the helped groups' down rows into its
//! stage before the mixture ([`Board::collect`]). A group is still one
//! matmul per projection over the same rows, in the same order, on the
//! same kernel arm, so only the thread that runs it changes: no output
//! depends on who helped.
//!
//! The board is allocated once, sized from the config. Posting, claiming
//! and collecting allocate nothing. Drop guards release a share and a
//! helped group even when their thread panics, so a panic reaches the
//! round's join instead of leaving the other workers waiting.

#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        clippy::cast_possible_wrap,
        clippy::indexing_slicing
    )
)]

use crate::reference::{expert_group, scatter, Group};
use crate::scratch::{Scratch, MAX_PREFILL_PANEL};
use crate::telemetry::{self, Stage};
use hnlpu_model::{ModelWeights, TransformerConfig};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Where one pool's workers meet at the join. See the module docs.
#[derive(Debug)]
pub(crate) struct Board {
    state: Mutex<State>,
    /// Signalled when a post goes up, a helped group ends and a share ends.
    wake: Condvar,
    /// The posted panel. Helpers read it while they run a claimed group;
    /// an owner writes it only while no post is live, when no helper
    /// holds a claim.
    panel: RwLock<Panel>,
}

#[derive(Debug)]
struct Panel {
    /// The posting block's layer.
    layer: usize,
    /// Normalized rows, `t × hidden`.
    xnp: Vec<f32>,
    /// Each (row, chosen slot)'s expert, `t × experts_per_token`.
    chosen: Vec<usize>,
}

#[derive(Debug)]
struct State {
    /// Workers of the round still running their own share.
    running: usize,
    /// Workers waiting in [`Share::help`].
    idle: usize,
    /// Whether a post is up.
    live: bool,
    /// The owner has claimed or passed every expert below this one.
    owner_next: usize,
    /// Helpers have claimed every expert from this one up.
    top: usize,
    /// Per expert: a helper ran its group, so its rows are in `out`.
    helped: Vec<bool>,
    /// Helped groups still running.
    pending: usize,
    /// The helpers' down rows, staged like `Scratch::stagep`.
    out: Vec<f32>,
}

impl State {
    /// A helper's claim: the highest expert the owner has not reached.
    fn claim_top(&mut self) -> Option<usize> {
        if !self.live || self.top <= self.owner_next {
            return None;
        }
        self.top = self.top.saturating_sub(1);
        *self.helped.get_mut(self.top)? = true;
        self.pending = self.pending.saturating_add(1);
        Some(self.top)
    }
}

impl Board {
    /// A board for panels of `config`'s architecture.
    pub(crate) fn new(config: &TransformerConfig) -> Self {
        let rows = MAX_PREFILL_PANEL;
        let h = config.hidden_size;
        let slots = rows.saturating_mul(config.moe.experts_per_token);
        Board {
            state: Mutex::new(State {
                running: 0,
                idle: 0,
                live: false,
                owner_next: 0,
                top: 0,
                helped: vec![false; config.moe.num_experts],
                pending: 0,
                out: vec![0.0; slots.saturating_mul(h)],
            }),
            wake: Condvar::new(),
            panel: RwLock::new(Panel {
                layer: 0,
                xnp: Vec::with_capacity(rows.saturating_mul(h)),
                chosen: Vec::with_capacity(slots),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a round of `workers` workers, each of which takes a
    /// [`share`](Self::share).
    pub(crate) fn open(&self, workers: usize) {
        self.lock().running = workers;
    }

    /// One worker's share of the round: dropping it (or calling
    /// [`Share::help`]) marks the share done.
    pub(crate) fn share(&self) -> Share<'_> {
        Share(self)
    }

    /// Post a routed panel of layer `layer`: its normalized rows `xnp` and
    /// each (row, slot)'s expert `chosen`. Posts, and returns `true`, only
    /// when some worker of the round is idle and no other post is up.
    pub(crate) fn post(&self, layer: usize, xnp: &[f32], chosen: &[usize]) -> bool {
        let mut state = self.lock();
        if state.idle == 0 || state.live {
            return false;
        }
        {
            let mut panel = self.panel.write().unwrap_or_else(PoisonError::into_inner);
            panel.layer = layer;
            panel.xnp.clear();
            panel.xnp.extend_from_slice(xnp);
            panel.chosen.clear();
            panel.chosen.extend_from_slice(chosen);
        }
        state.helped.fill(false);
        state.owner_next = 0;
        state.top = state.helped.len();
        state.live = true;
        drop(state);
        self.wake.notify_all();
        true
    }

    /// The owner's claim on expert `e` (ascending): `false` when a helper
    /// already took it.
    pub(crate) fn claim(&self, e: usize) -> bool {
        let mut state = self.lock();
        if state.helped.get(e).copied().unwrap_or(false) {
            return false;
        }
        state.owner_next = e.saturating_add(1);
        true
    }

    /// Wait for the helped groups, copy their down rows into `stagep` at
    /// the slots `chosen` routes to them (rows of `h`), and take the post
    /// down.
    pub(crate) fn collect(&self, chosen: &[usize], h: usize, stagep: &mut [f32]) {
        let mut state = self.lock();
        while state.pending > 0 {
            state = self.wait(state);
        }
        state.live = false;
        let rows = stagep.chunks_exact_mut(h).zip(state.out.chunks_exact(h));
        for ((stage, out), &e) in rows.zip(chosen) {
            if state.helped.get(e).copied().unwrap_or(false) {
                stage.copy_from_slice(out);
            }
        }
    }

    /// Run helped group `e` of the posted panel in `arena` and stage its
    /// down rows in `out`.
    fn run(&self, weights: &ModelWeights, e: usize, arena: &mut Scratch) {
        let _claim = Claim(self);
        let panel = self.panel.read().unwrap_or_else(PoisonError::into_inner);
        // The owner routed this panel through the same layer of the same
        // weights, so the layer exists.
        let Some(w) = weights.layers.get(panel.layer) else {
            return;
        };
        let Scratch {
            gidx,
            gatherp,
            upp,
            gatep,
            spans,
            ..
        } = arena;
        let mut group = Group {
            gidx,
            gatherp,
            upp,
            gatep,
            spans,
        };
        let c = &weights.config;
        let span = telemetry::start();
        let span = expert_group(w, c, e, &panel.xnp, &panel.chosen, &mut group, span);
        drop(panel);
        scatter(
            group.gidx,
            group.gatherp,
            c.hidden_size,
            &mut self.lock().out,
        );
        group.spans.close(Stage::ExpertMatmuls, span);
    }
}

/// A worker's share of the round, still running.
pub(crate) struct Share<'a>(&'a Board);

impl Share<'_> {
    /// End the share, then run posted expert groups until every share of
    /// the round has ended. Each helped group's time is charged to
    /// `arena` as [`Stage::Worker`] too, so `1 − worker / round` stays the
    /// idle share.
    pub(crate) fn help(self, weights: &ModelWeights, arena: &mut Scratch) {
        let board = self.0;
        drop(self);
        let mut state = board.lock();
        state.idle = state.idle.saturating_add(1);
        while state.running > 0 {
            if let Some(e) = state.claim_top() {
                drop(state);
                let span = telemetry::start();
                board.run(weights, e, arena);
                arena.spans.add(Stage::Worker, telemetry::since(span));
                state = board.lock();
            } else {
                state = board.wait(state);
            }
        }
        state.idle = state.idle.saturating_sub(1);
    }
}

impl Drop for Share<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.0.wake.notify_all();
    }
}

/// A helped group in flight: dropping it lets the owner collect.
struct Claim<'a>(&'a Board);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.pending = state.pending.saturating_sub(1);
        drop(state);
        self.0.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::stage_experts;
    use hnlpu_model::{AttentionConfig, MoeConfig, WeightGenerator};
    use std::sync::Arc;

    /// One layer of the benchmark's bench-256 shapes: hidden 256, 16
    /// experts of 512, top 4.
    fn bench_shaped() -> ModelWeights {
        let config = TransformerConfig {
            hidden_size: 256,
            num_layers: 1,
            attention: AttentionConfig {
                num_query_heads: 8,
                num_kv_heads: 4,
                head_dim: 32,
            },
            moe: MoeConfig {
                num_experts: 16,
                experts_per_token: 4,
                intermediate_size: 512,
            },
            vocab_size: 64,
        };
        ModelWeights::materialize(&config, &WeightGenerator::new(2026))
    }

    /// A helper is made idle first, then a full routed panel is posted:
    /// the helper runs groups from the top, the owner the rest, and the
    /// owner's stage is bitwise the stage run alone. The owner's stage
    /// starts poisoned each attempt, so a group that is neither run nor
    /// copied back shows. Whether the helper wakes before the owner has
    /// claimed every group is up to the OS, so attempts repeat until it
    /// has run one.
    #[test]
    fn an_idle_worker_runs_posted_groups_and_the_stage_is_bitwise_local() {
        let weights = bench_shaped();
        let c = weights.config;
        let (t, h, k) = (MAX_PREFILL_PANEL, c.hidden_size, c.moe.experts_per_token);
        let mut local = Scratch::new(&c);
        for (i, x) in local.xop[..t * h].iter_mut().enumerate() {
            *x = ((i * 7919 % 1009) as f32 / 1009.0 - 0.5) * 4.0;
        }
        let xop = local.xop.clone();
        stage_experts(&weights, 0, t, &mut local);
        let bits = |stage: &[f32]| {
            stage[..t * k * h]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };

        let board = Arc::new(Board::new(&c));
        let mut owner = Scratch {
            board: Some(Arc::clone(&board)),
            ..Scratch::new(&c)
        };
        let mut helper = Scratch::new(&c);
        let mut helped_rows = 0;
        for _attempt in 0..20 {
            owner.xop.copy_from_slice(&xop);
            owner.stagep.fill(f32::NAN);
            board.open(2);
            let own = board.share();
            std::thread::scope(|s| {
                let helper = &mut helper;
                s.spawn(|| board.share().help(&weights, helper));
                while board.lock().idle == 0 {
                    std::thread::yield_now();
                }
                stage_experts(&weights, 0, t, &mut owner);
                drop(own);
            });
            assert_eq!(bits(&owner.stagep), bits(&local.stagep));
            let state = board.lock();
            let routed = &owner.chosenp[..t * k];
            helped_rows += routed.iter().filter(|&&e| state.helped[e]).count();
            assert!(!state.live && state.pending == 0 && state.idle == 0);
            if helped_rows > 0 {
                break;
            }
        }
        assert!(helped_rows > 0, "the helper never ran a group");
        assert!(helper.spans.get(Stage::ExpertMatmuls) > 0);
        assert!(helper.spans.get(Stage::Worker) >= helper.spans.get(Stage::ExpertMatmuls));
    }
}
