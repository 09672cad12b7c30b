//! Batched parallel inference over the 216 pipeline slots (§5.2).
//!
//! [`BatchedDataflowExecutor`] runs many sequences through one
//! [`DataflowExecutor`] the way the hardware does: a pool of KV-cache
//! slots (one per resident sequence) and per-round mixed prefill + decode
//! stepping. The schedule comes from `hnlpu-sim` as [`RoundPlan`]s — a
//! whole trace planned up front by [`BatchScheduler`], or one round at a
//! time from the online server's stepper — so the functional engine
//! executes *exactly* the slot assignments the timing model priced; the
//! differential harness in `tests/` asserts the token streams are
//! identical to running [`DataflowExecutor`] per sequence. Both drivers
//! keep their sequences in the crate-private `SlotPool`, where placement,
//! vacating and the execution of one plan are written once.
//!
//! A round's work is dealt to the workers by cost (one `rayon` worker per
//! core; with one, the round is a single chunk on the calling thread). An
//! item's cost is the rows it pushes through the block this round — its
//! prefill tokens, plus one if its sampled token steps back in — because
//! every token, prompt or decoded, goes through the same one block, so a
//! row is the one unit of work there is.
//! [`deal_rows`] hands the items out longest first, each to the least
//! loaded worker, so one long prefill chunk no longer shares a worker with
//! half the round while the other worker idles. Within a worker's share,
//! prefill and sampling run per sequence, then every sequence that steps
//! its sampled token back in joins one batched decode step
//! ([`DataflowExecutor::step_batch_with`], the same block a prefill chunk
//! and a lone `step_with` run): the rows share each pass over the packed
//! weights and the embedding table, but every row's arithmetic is its own
//! accumulation chain against its own KV state, so streams, KV and
//! counters are bit-identical for any deal and worker count — the deal
//! moves host time and nothing else.

use crate::dataflow::{CommCounters, DataflowExecutor, DataflowState};
use crate::fault::CHIPS;
use crate::kv_cache::{PageBuf, PrefixCache, PrefixCacheConfig, PrefixStats};
use crate::reference::PrefillStats;
use crate::sampler::Sampler;
use crate::scratch::{Scratch, MAX_PREFILL_PANEL};
use hnlpu_sim::scheduler::{BatchScheduler, PrefixOracle, Request, RoundPlan};
use serde::Serialize;
use std::fmt;
use std::time::Instant;

/// Why a batched run was rejected.
///
/// Requests and round plans are external input to the engine (the plans
/// normally come from `hnlpu-sim`'s scheduler, but [`execute_plan`]
/// accepts any), so malformed ones surface as typed errors instead of
/// aborting a process that may be serving hundreds of other sequences.
///
/// [`execute_plan`]: BatchedDataflowExecutor::execute_plan
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// A request's prompt was empty.
    EmptyPrompt {
        /// Offending request index.
        seq: usize,
    },
    /// A request's prompt held a token id outside the model's vocabulary.
    TokenOutOfVocabulary {
        /// Offending request index.
        seq: usize,
    },
    /// A plan referenced a sequence outside the request slice.
    UnknownSequence {
        /// Referenced sequence id.
        seq: usize,
    },
    /// A plan decoded a sequence that was never admitted (no prefill
    /// entry ever named it).
    NotAdmitted {
        /// Referenced sequence id.
        seq: usize,
    },
    /// A plan gave one sequence two actions in the same round.
    DuplicateAction {
        /// Referenced sequence id.
        seq: usize,
    },
    /// A plan prefilled past the end of a sequence's prompt.
    PrefillOverrun {
        /// Referenced sequence id.
        seq: usize,
    },
    /// A plan decoded a sequence before its prefill finished.
    DecodeBeforePrefill {
        /// Referenced sequence id.
        seq: usize,
    },
    /// A plan decoded a sequence past its decode budget.
    DecodeOverrun {
        /// Referenced sequence id.
        seq: usize,
    },
    /// Admission would exceed the engine's KV slot pool.
    PoolOverflow {
        /// The engine's slot capacity.
        slots: usize,
    },
    /// The scheduler plans more slots than the engine pools.
    SlotsExceedCapacity {
        /// Slots the scheduler schedules.
        scheduled: usize,
        /// Slots the engine pools.
        capacity: usize,
    },
    /// The plan ended with a sequence still resident (unfinished).
    Unfinished {
        /// A sequence left resident.
        seq: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BatchError::EmptyPrompt { seq } => {
                write!(f, "request {seq}: prompt must contain at least one token")
            }
            BatchError::TokenOutOfVocabulary { seq } => {
                write!(f, "request {seq}: prompt token outside the vocabulary")
            }
            BatchError::UnknownSequence { seq } => {
                write!(
                    f,
                    "plan references sequence {seq} outside the request slice"
                )
            }
            BatchError::NotAdmitted { seq } => {
                write!(f, "plan decodes sequence {seq} before it was admitted")
            }
            BatchError::DuplicateAction { seq } => {
                write!(f, "plan gives sequence {seq} two actions in one round")
            }
            BatchError::PrefillOverrun { seq } => {
                write!(f, "plan prefills past the prompt of sequence {seq}")
            }
            BatchError::DecodeBeforePrefill { seq } => {
                write!(f, "plan decodes sequence {seq} before prefill finished")
            }
            BatchError::DecodeOverrun { seq } => {
                write!(f, "plan decodes sequence {seq} past its budget")
            }
            BatchError::PoolOverflow { slots } => {
                write!(f, "admission would exceed the {slots}-slot pool")
            }
            BatchError::SlotsExceedCapacity {
                scheduled,
                capacity,
            } => write!(
                f,
                "scheduler schedules {scheduled} slots but the engine pools {capacity}"
            ),
            BatchError::Unfinished { seq } => {
                write!(f, "plan ended with sequence {seq} still resident")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// One sequence to serve: real prompt tokens plus a decode budget.
#[derive(Debug, Clone)]
pub struct SequenceRequest {
    /// Arrival time in microseconds (scheduler admission order).
    pub arrival_s_micros: u64,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<u32>,
    /// Tokens to decode after prefill.
    pub decode_tokens: u32,
    /// Per-sequence sampling policy.
    pub sampler: Sampler,
}

impl SequenceRequest {
    /// A greedy-decoded request.
    pub fn greedy(arrival_s_micros: u64, prompt: Vec<u32>, decode_tokens: u32) -> Self {
        SequenceRequest {
            arrival_s_micros,
            prompt,
            decode_tokens,
            sampler: Sampler::Greedy,
        }
    }

    /// The first prompt token that is not an id of a `vocab`-token model.
    /// The engine asserts on one mid-round, so requests are checked where
    /// they enter.
    pub(crate) fn out_of_vocabulary(&self, vocab: usize) -> Option<u32> {
        let inside = |token: u32| usize::try_from(token).is_ok_and(|token| token < vocab);
        self.prompt.iter().copied().find(|&token| !inside(token))
    }

    /// The timing-model view of this request (token counts only).
    pub fn to_sim_request(&self) -> Request {
        Request::new(
            self.arrival_s_micros,
            tokens_u32(self.prompt.len()),
            self.decode_tokens,
        )
    }
}

/// Typed accounting for fault recovery: sequences evicted by chip
/// failures and what became of them. Offline plan replay never injects
/// faults, so its reports carry the all-zero default; the online server
/// fills these in as its [`crate::fault::FaultPlan`] unfolds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// In-flight sequences evicted because a chip holding their KV died.
    pub evictions: u64,
    /// Evicted sequences re-admitted and re-prefilled into fresh slots.
    pub resumed: u64,
    /// Evicted sequences abandoned after exhausting recovery retries.
    pub failed: u64,
    /// Prompt + already-emitted tokens re-prefilled during recoveries.
    pub re_prefill_tokens: u64,
}

impl RecoveryStats {
    /// True when no fault ever touched a resident sequence.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Result of one batched run.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Fault-recovery accounting (all zero for offline plan replay).
    pub recovery: RecoveryStats,
    /// Decoded token streams, indexed like the input request slice.
    pub outputs: Vec<Vec<u32>>,
    /// Per-sequence communication counters, same indexing.
    pub per_sequence_comm: Vec<CommCounters>,
    /// Aggregate counters (the sum of `per_sequence_comm`).
    pub comm: CommCounters,
    /// Pipeline rounds executed.
    pub rounds: u64,
    /// Total decoded tokens.
    pub decoded_tokens: u64,
    /// Total prefilled prompt tokens.
    pub prefill_tokens: u64,
    /// Matmul prefill panels executed across all sequences. A healthy
    /// schedule keeps this far below `prefill_tokens` — equality means
    /// every panel degenerated to T=1.
    pub prefill_panels: u64,
    /// Tokens in the widest prefill panel any sequence ran.
    pub prefill_max_panel: usize,
    /// Most sequences resident at once (KV slots in use).
    pub peak_resident: usize,
    /// Largest pooled KV footprint at fp16 storage, bytes. This is the
    /// *logical* footprint (what dense caches of the same fill would
    /// occupy); shared pages are counted once per referencing sequence.
    pub peak_kv_bytes_fp16: u64,
    /// Largest physically private KV footprint at fp16 storage, bytes:
    /// pages owned exclusively by resident sequences. The gap to
    /// `peak_kv_bytes_fp16` is capacity recovered by prefix sharing.
    pub peak_kv_owned_bytes_fp16: u64,
    /// Prefix-reuse counters (all zero when the engine runs dense).
    pub prefix: PrefixStats,
    /// Measured wall-clock time of the functional execution, seconds.
    pub wall_s: f64,
}

impl BatchRunReport {
    /// Measured functional decode rate, tokens/s.
    pub fn measured_decode_tokens_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            // cast: token counts stay far below 2^53, exact in f64
            self.decoded_tokens as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Measured functional total token rate (prefill + decode), tokens/s.
    pub fn measured_tokens_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            // cast: token counts stay far below 2^53, exact in f64
            self.decoded_tokens.saturating_add(self.prefill_tokens) as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A resident sequence: its KV state plus generation progress.
///
/// Shared between the offline plan replay here and the online serving
/// loop in [`crate::serve`], so both paths run sequences through the
/// identical per-round stepping code.
#[derive(Debug)]
pub(crate) struct SeqSlot {
    /// Index into the caller's request slice (or online sequence id).
    pub(crate) seq: usize,
    pub(crate) prompt: Vec<u32>,
    pub(crate) target: usize,
    pub(crate) sampler: Sampler,
    pub(crate) state: DataflowState,
    /// Per-slot scratch arena; its `logits()` hold the most recent step's
    /// output (valid once anything was stepped), and reusing it keeps the
    /// whole residency of the sequence allocation-free.
    pub(crate) scratch: Scratch,
    /// Prompt tokens consumed so far.
    pub(crate) prefill_pos: usize,
    /// Shared-pool page ids this sequence holds references on, released
    /// exactly once when the sequence leaves its slot.
    pub(crate) grant: Vec<u32>,
    /// Panel accounting for this sequence's prefill chunks.
    pub(crate) prefill_stats: PrefillStats,
    pub(crate) out: Vec<u32>,
}

impl SeqSlot {
    pub(crate) fn finished(&self) -> bool {
        self.prefill_pos == self.prompt.len() && self.out.len() == self.target
    }

    /// The token counts this parked slot owes once `recover_slot` rebuilds
    /// it for `req`: the prompt grown by what it emitted, the decode rest.
    pub(crate) fn resume_row(&self, req: &SequenceRequest) -> Request {
        Request::new(
            req.arrival_s_micros,
            tokens_u32(req.prompt.len().saturating_add(self.out.len())),
            tokens_u32(self.target.saturating_sub(self.out.len())),
        )
    }
}

/// A token count as the scheduler carries it. Saturating: no prompt
/// approaches 2^32 tokens, and a saturated count can only make a plan fail
/// validation.
fn tokens_u32(count: usize) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

/// A scheduler token count as a length, saturating where `usize` is
/// narrower than `u32`.
fn len_of(tokens: u32) -> usize {
    usize::try_from(tokens).unwrap_or(usize::MAX)
}

/// What one sequence does during one round. A sequence whose prefill
/// completes mid-round chains straight into its first decode, so one item
/// can carry both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Action {
    /// Prompt tokens to consume first.
    prefill: u32,
    /// Then sample one token (stepping it back in unless it is the last).
    decode: bool,
}

/// The resident sequences' KV slots and the shared prefix cache their
/// pages live in — the executor state of offline plan replay and of the
/// online server alike. As a [`PrefixOracle`] it is the executing side's
/// consult: the match is attached to the real slot when the policy asks.
#[derive(Debug, Default)]
pub(crate) struct SlotPool {
    /// Slot-indexed storage; `None` entries are free.
    slots: Vec<Option<SeqSlot>>,
    /// Sequence id → slot index while resident.
    slot_of: Vec<Option<usize>>,
    pub(crate) cache: Option<PrefixCache>,
    /// Most slots in use at once.
    pub(crate) peak_resident: usize,
    /// Largest logical and physically owned fp16 KV footprints, bytes.
    pub(crate) peak_kv_bytes: u64,
    pub(crate) peak_kv_owned_bytes: u64,
}

impl SlotPool {
    pub(crate) fn new(cache: Option<PrefixCache>) -> Self {
        SlotPool {
            cache,
            ..SlotPool::default()
        }
    }

    fn index_of(&self, seq: usize) -> Option<usize> {
        self.slot_of.get(seq).copied().flatten()
    }

    /// The slot `seq` is resident in.
    pub(crate) fn get(&self, seq: usize) -> Option<&SeqSlot> {
        self.slots.get(self.index_of(seq)?)?.as_ref()
    }

    /// The resident sequences, in slot order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = &SeqSlot> {
        self.slots.iter().flatten()
    }

    /// Make `slot` resident in the lowest free slot (the caller bounds
    /// residency) and return that slot's index.
    pub(crate) fn place(&mut self, slot: SeqSlot) -> usize {
        let seq = slot.seq;
        let free = self
            .slots
            .iter_mut()
            .enumerate()
            .find(|(_, entry)| entry.is_none());
        let idx = match free {
            Some((idx, entry)) => {
                *entry = Some(slot);
                idx
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        if self.slot_of.len() <= seq {
            self.slot_of.resize(seq + 1, None);
        }
        if let Some(entry) = self.slot_of.get_mut(seq) {
            *entry = Some(idx);
        }
        self.peak_resident = self.peak_resident.max(self.residents().count());
        idx
    }

    /// Take `seq` out of its slot and drop its references on shared
    /// pages: the one way out, so each residency frees its slot and its
    /// grant exactly once. The carcass keeps tokens, sampler and buffers.
    pub(crate) fn vacate(&mut self, seq: usize) -> Option<SeqSlot> {
        let idx = self.slot_of.get_mut(seq)?.take()?;
        let mut gone = self.slots.get_mut(idx)?.take()?;
        if let Some(cache) = self.cache.as_mut() {
            cache.release_grant(&mut gone.grant);
        }
        Some(gone)
    }

    /// Fold the residents' current KV footprint into the peaks.
    pub(crate) fn record_kv_peaks(&mut self) {
        let (mut logical, mut owned) = (0u64, 0u64);
        for slot in self.residents() {
            logical = logical.saturating_add(slot.state.kv_bytes_fp16());
            owned = owned.saturating_add(slot.state.kv_owned_bytes_fp16());
        }
        self.peak_kv_bytes = self.peak_kv_bytes.max(logical);
        self.peak_kv_owned_bytes = self.peak_kv_owned_bytes.max(owned);
    }

    /// Match `seq`'s prompt against the shared tree and attach the hit to
    /// its slot (full blocks by reference, the copy-on-write boundary page
    /// by copy), leaving only the unmatched suffix to prefill. Returns the
    /// matched positions, 0 when dense.
    pub(crate) fn consult(&mut self, seq: usize) -> u32 {
        let slot = self.index_of(seq).and_then(|idx| self.slots.get_mut(idx));
        let (Some(cache), Some(slot)) = (self.cache.as_mut(), slot.and_then(Option::as_mut)) else {
            return 0;
        };
        let m = cache.match_prompt(&slot.prompt);
        if m.matched == 0 {
            return 0;
        }
        cache.retain_match(&m, &mut slot.grant);
        slot.state.attach_prefix(m.matched, &m.blocks, cache.pool());
        slot.prefill_pos = m.matched;
        tokens_u32(m.matched)
    }

    /// Execute one round on `engine`: merge `plan` into one [`Action`] per
    /// slot (rejecting, before anything runs, a plan that names a
    /// non-resident sequence, prefills one twice or asks for more than a
    /// slot has left), run the round over disjoint `&mut` borrows, then
    /// commit the prompts it completed into the shared tree in the plan's
    /// FCFS order — pages freeze in place (owned → shared, no copy), and
    /// only strictly later rounds' consults match them.
    pub(crate) fn execute(
        &mut self,
        engine: &BatchedDataflowExecutor,
        plan: &RoundPlan,
    ) -> Result<(), BatchError> {
        let mut actions = vec![Action::default(); self.slots.len()];
        let prefills = plan.prefill.iter().map(|&(seq, n)| (seq, Some(n)));
        for (seq, prefill) in prefills.chain(plan.decode.iter().map(|&seq| (seq, None))) {
            let resident = self
                .index_of(seq)
                .and_then(|idx| Some((self.slots.get(idx)?.as_ref()?, actions.get_mut(idx)?)));
            let (slot, action) = resident.ok_or(BatchError::NotAdmitted { seq })?;
            let left = slot.prompt.len() - slot.prefill_pos;
            if let Some(n) = prefill {
                if action.prefill > 0 {
                    return Err(BatchError::DuplicateAction { seq });
                }
                if len_of(n) > left {
                    return Err(BatchError::PrefillOverrun { seq });
                }
                action.prefill = n;
            } else if len_of(action.prefill) != left {
                return Err(BatchError::DecodeBeforePrefill { seq });
            } else if slot.out.len() >= slot.target {
                return Err(BatchError::DecodeOverrun { seq });
            } else {
                action.decode = true;
            }
        }
        let work = (self.slots.iter_mut().zip(actions))
            .filter(|(_, action)| *action != Action::default())
            .filter_map(|(slot, action)| Some((slot.as_mut()?, action)))
            .collect();
        engine.run_round(work, rayon::current_num_threads());

        let SlotPool {
            slots,
            slot_of,
            cache: Some(cache),
            ..
        } = self
        else {
            return Ok(());
        };
        for &(seq, _) in &plan.prefill {
            let idx = slot_of.get(seq).copied().flatten();
            let slot = idx.and_then(|idx| slots.get_mut(idx));
            let Some(SeqSlot {
                prompt,
                state,
                grant,
                prefill_pos,
                ..
            }) = slot.and_then(Option::as_mut)
            else {
                continue;
            };
            if *prefill_pos == prompt.len() {
                cache.commit(prompt, |b| state.share_block(b), grant);
            }
        }
        Ok(())
    }
}

impl PrefixOracle for SlotPool {
    fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
        self.consult(seq)
    }

    /// The pages exist only once the round has run: `execute` commits.
    fn on_prefill_complete(&mut self, _seq: usize, _req: &Request) {}
}

/// Deal items costing `rows` to `workers` workers: longest first (ties by
/// index), each to the least-loaded worker so far (ties to the lowest) —
/// Graham's longest-processing-time rule. Returns each item's worker, in
/// item order; the heaviest load is at most `total / workers` plus the
/// largest item, and at most 4/3 − 1/(3·workers) of the best possible.
///
/// Pure and deterministic: the same `rows` always deal the same way, so a
/// round's chunking — which no output depends on anyway — repeats exactly.
pub fn deal_rows(rows: &[usize], workers: usize) -> Vec<usize> {
    let mut longest_first: Vec<(usize, usize)> = rows.iter().copied().enumerate().collect();
    longest_first.sort_by_key(|&(item, cost)| (std::cmp::Reverse(cost), item));
    let mut load = vec![0usize; workers.max(1)];
    let mut worker_of = vec![0usize; rows.len()];
    for (item, cost) in longest_first {
        let least = load
            .iter_mut()
            .enumerate()
            .min_by_key(|(worker, load)| (**load, *worker));
        if let (Some((worker, load)), Some(slot)) = (least, worker_of.get_mut(item)) {
            *load = load.saturating_add(cost);
            *slot = worker;
        }
    }
    worker_of
}

/// The batched inference engine.
#[derive(Debug, Clone)]
pub struct BatchedDataflowExecutor {
    inner: DataflowExecutor,
    max_slots: usize,
    prefix: Option<PrefixCacheConfig>,
}

impl BatchedDataflowExecutor {
    /// An engine over `inner` with capacity for `max_slots` concurrently
    /// resident sequences (the hardware's 216 pipeline slots).
    ///
    /// # Panics
    ///
    /// Panics if `max_slots` is zero.
    pub fn new(inner: DataflowExecutor, max_slots: usize) -> Self {
        assert!(max_slots > 0, "need at least one sequence slot");
        BatchedDataflowExecutor {
            inner,
            max_slots,
            prefix: None,
        }
    }

    /// Enable paged prefix reuse: admitted prompts are matched against a
    /// shared radix tree and matched positions are attached by reference
    /// instead of being prefilled. `pages_per_block` is forced to the
    /// grid's shard count — one page per chip per committed block.
    ///
    /// Offline plan replay shares with an *unbounded* page budget so the
    /// timing plan and the functional execution agree on every match;
    /// `page_budget` governs the online server
    /// ([`crate::serve::OnlineServer`]), where admission and execution
    /// are the same loop and budgeted LRU eviction is safe.
    pub fn with_prefix_cache(mut self, mut cfg: PrefixCacheConfig) -> Self {
        cfg.pages_per_block = CHIPS;
        self.prefix = Some(cfg);
        self
    }

    /// The prefix-reuse configuration, when enabled.
    pub fn prefix_config(&self) -> Option<PrefixCacheConfig> {
        self.prefix
    }

    /// The wrapped per-sequence executor.
    pub fn executor(&self) -> &DataflowExecutor {
        &self.inner
    }

    /// Sequence-slot capacity.
    pub fn max_slots(&self) -> usize {
        self.max_slots
    }

    /// Plan with `scheduler` and execute: the timing model and the
    /// functional engine consume the same per-round slot assignments.
    ///
    /// Returns the functional report and the scheduler's analytical
    /// timing report for the identical schedule.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::SlotsExceedCapacity`] when the scheduler's
    /// slot count exceeds this engine's capacity, or any error listed for
    /// [`execute_plan`](Self::execute_plan).
    pub fn run_with_scheduler(
        &self,
        requests: &[SequenceRequest],
        scheduler: &BatchScheduler,
    ) -> Result<(BatchRunReport, hnlpu_sim::SchedulerReport), BatchError> {
        if scheduler.slots() > self.max_slots {
            return Err(BatchError::SlotsExceedCapacity {
                scheduled: scheduler.slots(),
                capacity: self.max_slots,
            });
        }
        let sim_reqs: Vec<Request> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        let Some(cfg) = self.prefix else {
            let (timing, plans) = scheduler.plan(&sim_reqs);
            return Ok((self.execute_plan(requests, &plans)?, timing));
        };
        // Offline runs share with an unbounded budget: the planning
        // oracle and the executing engine replay the identical sequence
        // of match/commit operations on two fresh trees, so eviction
        // could only ever diverge through grant-release timing the
        // planner cannot see. With no eviction, plan and execution agree
        // on every matched length by construction.
        let shared = PrefixCacheConfig {
            page_budget: usize::MAX,
            ..cfg
        };
        let mut oracle = PlanOracle {
            requests,
            cache: PrefixCache::new(shared),
        };
        let (timing, plans) = scheduler.plan_with_prefixes(&sim_reqs, &mut oracle);
        let cache = PrefixCache::new(shared);
        Ok((
            self.execute_plan_impl(requests, &plans, Some(cache))?,
            timing,
        ))
    }

    /// Execute `requests` following `plans` round by round.
    ///
    /// Admission assigns the lowest free KV slot the first time a sequence
    /// appears in a plan; eviction frees the slot in the round the
    /// sequence finishes, mirroring the sim scheduler's slot semantics.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchError`] when a prompt is empty or holds a token
    /// outside the vocabulary, a plan refers to a
    /// sequence out of range, asks for more work than a sequence has left,
    /// decodes a sequence before its prefill finished, overflows the slot
    /// pool, or leaves a sequence unfinished after the final round.
    pub fn execute_plan(
        &self,
        requests: &[SequenceRequest],
        plans: &[RoundPlan],
    ) -> Result<BatchRunReport, BatchError> {
        self.execute_plan_impl(requests, plans, None)
    }

    /// [`execute_plan`](Self::execute_plan), optionally reading and
    /// committing prompt prefixes through a shared [`PrefixCache`] that the
    /// planner of `plans` consulted too (see
    /// [`run_with_scheduler`](Self::run_with_scheduler)): a sequence is
    /// placed and matched in the round that first prefills it and vacated
    /// in the round it finishes.
    fn execute_plan_impl(
        &self,
        requests: &[SequenceRequest],
        plans: &[RoundPlan],
        cache: Option<PrefixCache>,
    ) -> Result<BatchRunReport, BatchError> {
        let vocab = self.inner.config().vocab_size;
        for (seq, r) in requests.iter().enumerate() {
            if r.prompt.is_empty() {
                return Err(BatchError::EmptyPrompt { seq });
            }
            if r.out_of_vocabulary(vocab).is_some() {
                return Err(BatchError::TokenOutOfVocabulary { seq });
            }
        }
        let started = Instant::now();
        let mut pool = SlotPool::new(cache);
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new(); requests.len()];
        let mut per_sequence_comm = vec![CommCounters::default(); requests.len()];
        let mut prefill_panels = 0u64;
        let mut prefill_max_panel = 0usize;

        for plan in plans {
            // Admit sequences first referenced this round (prefill entries
            // are FCFS in admission order; decoders were admitted earlier).
            for &(seq, _) in &plan.prefill {
                let req = requests
                    .get(seq)
                    .ok_or(BatchError::UnknownSequence { seq })?;
                if pool.get(seq).is_some() {
                    continue;
                }
                if pool.residents().count() >= self.max_slots {
                    return Err(BatchError::PoolOverflow {
                        slots: self.max_slots,
                    });
                }
                pool.place(self.new_slot(seq, req));
                pool.consult(seq);
            }
            if let Some(&seq) = plan.decode.iter().find(|&&seq| seq >= requests.len()) {
                return Err(BatchError::UnknownSequence { seq });
            }
            pool.execute(self, plan)?;

            // Evict finished sequences, harvesting their results.
            let finished: Vec<usize> = pool
                .residents()
                .filter(|slot| slot.finished())
                .map(|slot| slot.seq)
                .collect();
            for seq in finished {
                let Some(done) = pool.vacate(seq) else {
                    continue;
                };
                if let Some(comm) = per_sequence_comm.get_mut(seq) {
                    *comm = done.state.comm;
                }
                prefill_panels += done.prefill_stats.panels;
                prefill_max_panel = prefill_max_panel.max(done.prefill_stats.max_panel);
                if let Some(out) = outputs.get_mut(seq) {
                    *out = done.out;
                }
            }
            pool.record_kv_peaks();
        }
        if let Some(still) = pool.residents().next() {
            return Err(BatchError::Unfinished { seq: still.seq });
        }

        let prefills = plans.iter().flat_map(|plan| &plan.prefill);
        Ok(BatchRunReport {
            recovery: RecoveryStats::default(),
            comm: per_sequence_comm.iter().copied().sum(),
            // cast: usize → u64 widens on every supported target
            decoded_tokens: outputs.iter().map(|out| out.len() as u64).sum(),
            prefill_tokens: prefills.map(|&(_, n)| u64::from(n)).sum(),
            outputs,
            per_sequence_comm,
            // cast: usize → u64 widens on every supported target
            rounds: plans.len() as u64,
            prefill_panels,
            prefill_max_panel,
            peak_resident: pool.peak_resident,
            peak_kv_bytes_fp16: pool.peak_kv_bytes,
            peak_kv_owned_bytes_fp16: pool.peak_kv_owned_bytes,
            prefix: pool.cache.map(|c| c.stats()).unwrap_or_default(),
            wall_s: started.elapsed().as_secs_f64(),
        })
    }

    /// A fresh resident-sequence slot for `req`, tagged `seq`. Used by
    /// both the offline plan replay and the online serving loop so every
    /// sequence starts from identical KV/scratch state.
    pub(crate) fn new_slot(&self, seq: usize, req: &SequenceRequest) -> SeqSlot {
        SeqSlot {
            seq,
            prompt: req.prompt.clone(),
            target: len_of(req.decode_tokens),
            sampler: req.sampler.clone(),
            state: self.inner.new_state(),
            scratch: self.inner.new_scratch(),
            prefill_pos: 0,
            grant: Vec::new(),
            prefill_stats: PrefillStats::default(),
            out: Vec::new(),
        }
    }

    /// Rebuild an evicted sequence's slot for re-admission: the KV context
    /// is cleared (the chip holding part of it died) and the prompt is
    /// extended with every token already emitted, so re-prefilling it
    /// reconstructs the exact attention context the next decode step
    /// expects.
    ///
    /// Token-exactness: a decode step is the one-row panel of the block
    /// the prefill runs, and the block's KV and residuals are bit-identical
    /// at every panel width (`prefill_is_chunking_invariant` pins this);
    /// in the original run every emitted token except the last was
    /// stepped back into the machine. Re-prefilling
    /// `prompt ++ out` with logits on the final chunk therefore leaves
    /// the state and logits exactly where the interrupted sequence's next
    /// sample would have read them — the recovered stream continues
    /// bit-for-bit. Sampler state, emitted tokens, and panel stats are
    /// retained; only the context is rebuilt.
    pub(crate) fn recover_slot(&self, mut carcass: SeqSlot, req: &SequenceRequest) -> SeqSlot {
        debug_assert!(
            carcass.grant.is_empty(),
            "evicted slot must have released its page grant"
        );
        carcass.state.reset_context();
        let mut prompt = req.prompt.clone();
        prompt.extend_from_slice(&carcass.out);
        carcass.prompt = prompt;
        carcass.prefill_pos = 0;
        carcass
    }

    /// One pipeline round: the work items are dealt to at most `workers`
    /// workers by the rows each pushes through the block ([`deal_rows`]),
    /// and every worker runs its share as one chunk, so a worker's
    /// decoders still share one batched decode step. One worker runs the
    /// whole round as a single chunk on the calling thread.
    fn run_round(&self, work: Vec<(&mut SeqSlot, Action)>, workers: usize) {
        use rayon::prelude::*;
        let workers = workers.min(work.len());
        if workers <= 1 {
            return self.advance_chunk(work);
        }
        // An item's rows: its prompt tokens, plus one when the token it
        // samples steps back in (the last token a sequence owes is emitted
        // without another step).
        let rows: Vec<usize> = work
            .iter()
            .map(|(slot, action)| {
                let steps_back = action.decode && slot.out.len() + 1 < slot.target;
                len_of(action.prefill) + usize::from(steps_back)
            })
            .collect();
        let mut chunks: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
        for (item, worker) in work.into_iter().zip(deal_rows(&rows, workers)) {
            if let Some(chunk) = chunks.get_mut(worker) {
                chunk.push(item);
            }
        }
        chunks
            .into_par_iter()
            .for_each(|chunk| self.advance_chunk(chunk));
    }

    /// One worker's share of a round, in any order and of any mix (the
    /// deal decides which items meet here; no result depends on it):
    /// advance each sequence through its prefill and sampling, then step
    /// every sampled token that still has to go back through the machine
    /// as batched decode steps of at most [`MAX_PREFILL_PANEL`] rows,
    /// evenly sized.
    fn advance_chunk(&self, chunk: Vec<(&mut SeqSlot, Action)>) {
        let mut tokens = Vec::with_capacity(chunk.len());
        let mut states = Vec::with_capacity(chunk.len());
        let mut scratches = Vec::with_capacity(chunk.len());
        for (slot, action) in chunk {
            if let Some(next) = self.prefill_and_sample(slot, action) {
                tokens.push(next);
                states.push(&mut slot.state);
                scratches.push(&mut slot.scratch);
            }
        }
        if tokens.is_empty() {
            return;
        }
        let rows = tokens
            .len()
            .div_ceil(tokens.len().div_ceil(MAX_PREFILL_PANEL));
        for ((tokens, states), scratches) in tokens
            .chunks(rows)
            .zip(states.chunks_mut(rows))
            .zip(scratches.chunks_mut(rows))
        {
            self.inner.step_batch_with(tokens, states, scratches);
        }
    }

    /// Advance one sequence by its round action, up to the decode step.
    /// Exactly mirrors [`DataflowExecutor::generate_with_report`]: the
    /// round's prompt tokens run as one matmul prefill panel
    /// (bit-identical to stepping them in order, and logits are only
    /// unembedded on the chunk that completes the prompt), then a token is
    /// sampled and emitted. Returns that token when it still has to be
    /// stepped back through the machine — the last one requested is not.
    fn prefill_and_sample(&self, slot: &mut SeqSlot, action: Action) -> Option<u32> {
        if action.prefill > 0 {
            // Plan validation bounded `prefill_pos + prefill` by the
            // prompt length before this slot entered the round.
            let end = slot.prefill_pos.saturating_add(len_of(action.prefill));
            let end = end.min(slot.prompt.len());
            let chunk = slot.prompt.get(slot.prefill_pos..end).unwrap_or(&[]);
            if !chunk.is_empty() {
                let want_logits = end == slot.prompt.len();
                let stats =
                    self.inner
                        .prefill_with(chunk, &mut slot.state, &mut slot.scratch, want_logits);
                slot.prefill_stats.merge(stats);
                slot.prefill_pos = end;
            }
        }
        if !action.decode {
            return None;
        }
        let next = slot.sampler.sample(slot.scratch.logits());
        slot.out.push(next);
        (slot.out.len() < slot.target).then_some(next)
    }
}

/// The timing planner's view of the prefix cache: it holds the real
/// prompts (the scheduler only knows counts) and mirrors the engine's
/// match/commit schedule on a tree of placeholder pages, so the plan
/// charges exactly the suffixes the engine will prefill.
struct PlanOracle<'a> {
    requests: &'a [SequenceRequest],
    cache: PrefixCache,
}

impl PrefixOracle for PlanOracle<'_> {
    fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
        match self.requests.get(seq) {
            Some(r) => tokens_u32(self.cache.match_prompt(&r.prompt).matched),
            None => 0,
        }
    }

    fn on_prefill_complete(&mut self, seq: usize, _req: &Request) {
        let Some(r) = self.requests.get(seq) else {
            return;
        };
        let per_block = self.cache.config().pages_per_block;
        let mut grant = Vec::new();
        self.cache.commit(
            &r.prompt,
            |_| vec![PageBuf::placeholder(); per_block],
            &mut grant,
        );
        // Planning tracks tree shape only; pages stay alive through the
        // tree's own references (the budget is unbounded offline).
        self.cache.release_grant(&mut grant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::GRID;
    use hnlpu_model::{zoo, ModelWeights, WeightGenerator};
    use hnlpu_sim::SimConfig;

    fn engine() -> BatchedDataflowExecutor {
        let card = zoo::dataflow_test_model();
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216)
    }

    fn scheduler() -> BatchScheduler {
        BatchScheduler::new(SimConfig::paper_default(), 2048)
    }

    #[test]
    fn batched_matches_per_sequence_greedy() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 8),
            SequenceRequest::greedy(0, vec![100, 2], 5),
            SequenceRequest::greedy(0, vec![64], 12),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        for (r, out) in requests.iter().zip(&report.outputs) {
            let solo = eng
                .executor()
                .generate_greedy(&r.prompt, r.decode_tokens as usize);
            assert_eq!(&solo, out);
        }
    }

    #[test]
    fn batch_comm_is_sum_of_sequences() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![3, 1, 4], 6),
            SequenceRequest::greedy(0, vec![2, 7], 4),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        let mut total = CommCounters::default();
        for (r, &per) in requests.iter().zip(&report.per_sequence_comm) {
            let (_, solo) = eng.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut Sampler::Greedy,
            );
            assert_eq!(solo, per);
            total += per;
        }
        assert_eq!(report.comm, total);
    }

    #[test]
    fn kv_pool_slots_shard_by_position_mod_4() {
        // The batched engine's pooled KV states keep the dataflow
        // executor's ownership invariant: position p lives on chip p % 4.
        let eng = engine();
        let mut state = eng.executor().new_state();
        for t in 0..7u32 {
            eng.executor().step(t, &mut state);
        }
        for col in 0..GRID {
            for chip in 0..GRID {
                let expected = (7 + GRID - 1 - chip) / GRID;
                assert_eq!(state.kv_shard(col, chip).len(), expected);
            }
        }
        assert_eq!(state.position(), 7);
        assert!(state.kv_bytes_fp16() > 0);
    }

    #[test]
    fn eviction_frees_slots_for_later_arrivals() {
        let eng = engine();
        // Two waves with arrivals 2 s apart: wave 1 finishes long before
        // wave 2 arrives, so peak residency stays at the wave size.
        let mut requests = Vec::new();
        for _ in 0..3 {
            requests.push(SequenceRequest::greedy(0, vec![1, 2], 3));
        }
        for _ in 0..3 {
            requests.push(SequenceRequest::greedy(2_000_000, vec![4, 5], 3));
        }
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        assert_eq!(report.peak_resident, 3);
        assert_eq!(report.decoded_tokens, 6 * 3);
        assert_eq!(report.prefill_tokens, 6 * 2);
        for out in &report.outputs {
            assert_eq!(out.len(), 3);
        }
    }

    #[test]
    fn zero_decode_requests_complete_with_empty_output() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![9, 9, 9], 0),
            SequenceRequest::greedy(0, vec![1], 2),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        assert!(report.outputs[0].is_empty());
        assert_eq!(report.outputs[1].len(), 2);
    }

    #[test]
    fn seeded_samplers_match_per_sequence_runs() {
        let eng = engine();
        let mk = |seed| SequenceRequest {
            arrival_s_micros: 0,
            prompt: vec![3, 1, 4],
            decode_tokens: 6,
            sampler: Sampler::multinomial(0.7, seed),
        };
        let requests = vec![mk(11), mk(99)];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        for (r, out) in requests.iter().zip(&report.outputs) {
            let (solo, _) = eng.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut r.sampler.clone(),
            );
            assert_eq!(&solo, out);
        }
    }

    #[test]
    fn prefill_panels_are_counted_per_round_chunk() {
        let eng = engine();
        let requests = vec![SequenceRequest::greedy(0, vec![1, 5, 9, 2, 7], 2)];
        // A prompt spanning rounds: each round's chunk is one full panel,
        // never a loop of T=1 steps.
        let plans = vec![
            RoundPlan {
                decode: vec![],
                prefill: vec![(0, 2)],
            },
            RoundPlan {
                decode: vec![0],
                prefill: vec![(0, 3)],
            },
            RoundPlan {
                decode: vec![0],
                prefill: vec![],
            },
        ];
        let report = eng.execute_plan(&requests, &plans).expect("plan executes");
        assert_eq!(report.prefill_tokens, 5);
        assert_eq!(report.prefill_panels, 2);
        assert_eq!(report.prefill_max_panel, 3);
        let solo = eng.executor().generate_greedy(&requests[0].prompt, 2);
        assert_eq!(report.outputs[0], solo);
    }

    #[test]
    fn scheduler_driven_prefill_is_not_degenerate() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 2),
            SequenceRequest::greedy(0, vec![100, 2], 2),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        // Multi-token prompts must arrive at the kernels as multi-token
        // panels: fewer panels than prompt tokens, and the widest panel
        // covers the longest prompt (chunk budget 2048 ≫ both prompts).
        assert_eq!(report.prefill_tokens, 5);
        assert_eq!(report.prefill_panels, 2);
        assert_eq!(report.prefill_max_panel, 3);
    }

    /// The round shape the deal exists for: a 130-token prompt and a short
    /// one arrive while 16 sequences are mid-decode, so one round holds a
    /// three-panel chunk, a three-row chunk and 16 one-row decoders.
    fn skewed_round_requests() -> Vec<SequenceRequest> {
        let mut requests: Vec<SequenceRequest> = (0..16u32)
            .map(|s| SequenceRequest::greedy(0, vec![1 + s, 2 + s * 3 % 7], 6))
            .collect();
        let long = (0..130u32).map(|i| (i * 7 + 3) % 97).collect();
        requests.push(SequenceRequest::greedy(1, long, 3));
        requests.push(SequenceRequest::greedy(1, vec![9, 8, 7], 3));
        requests
    }

    #[test]
    fn skewed_round_matches_per_sequence_runs() {
        let eng = engine();
        let requests = skewed_round_requests();
        let sim_reqs: Vec<Request> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        let (_, plans) = scheduler().plan(&sim_reqs);
        assert!(
            plans.iter().any(|p| p.decode.len() >= 16
                && p.prefill.len() == 2
                && p.prefill.iter().any(|&(_, n)| n >= 128)),
            "expected one round mixing the long prompt, the short one and 16 decoders"
        );
        let report = eng.execute_plan(&requests, &plans).expect("plan executes");
        let mut comm = CommCounters::default();
        let mut panels = 0;
        for (r, out) in requests.iter().zip(&report.outputs) {
            let (solo, solo_comm) = eng.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut Sampler::Greedy,
            );
            assert_eq!(&solo, out);
            comm += solo_comm;
            panels += eng
                .executor()
                .prefill_with(
                    &r.prompt,
                    &mut eng.executor().new_state(),
                    &mut eng.executor().new_scratch(),
                    false,
                )
                .panels;
        }
        assert_eq!(report.comm, comm);
        assert_eq!(report.prefill_tokens, 16 * 2 + 130 + 3);
        assert_eq!(report.prefill_panels, panels);
        assert_eq!(report.prefill_max_panel, MAX_PREFILL_PANEL);
    }

    /// The deal moves host time and nothing else: the skewed round and a
    /// uniform decode round, run at 1 to 4 workers, leave every sequence's
    /// stream, KV shards, position and counters (hence their sum) bitwise
    /// what a per-sequence run leaves. One worker is the whole round as a
    /// single chunk on the calling thread.
    #[test]
    fn rounds_are_bitwise_per_sequence_runs_at_every_worker_count() {
        use crate::dataflow::Grid;
        use crate::engine::tests::assert_state_bitwise_equal;
        let eng = engine();
        let machine = eng.executor();
        let uniform: Vec<SequenceRequest> = (0..12u32)
            .map(|s| SequenceRequest::greedy(0, vec![3 + s, 9], 5))
            .collect();
        for requests in [skewed_round_requests(), uniform] {
            let sim_reqs: Vec<Request> = requests
                .iter()
                .map(SequenceRequest::to_sim_request)
                .collect();
            let (_, plans) = scheduler().plan(&sim_reqs);
            let solo: Vec<(Vec<u32>, DataflowState)> = requests
                .iter()
                .map(|r| {
                    let mut state = machine.new_state();
                    let n = r.decode_tokens as usize;
                    let out = machine.generate_in(&r.prompt, n, &mut Sampler::Greedy, &mut state);
                    (out, state)
                })
                .collect();
            for workers in 1..=4 {
                let mut slots: Vec<SeqSlot> = requests
                    .iter()
                    .enumerate()
                    .map(|(seq, r)| eng.new_slot(seq, r))
                    .collect();
                for plan in &plans {
                    let mut actions = vec![Action::default(); slots.len()];
                    for &(seq, n) in &plan.prefill {
                        actions[seq].prefill = n;
                    }
                    for &seq in &plan.decode {
                        actions[seq].decode = true;
                    }
                    let work = (slots.iter_mut().zip(actions))
                        .filter(|(_, action)| *action != Action::default())
                        .collect();
                    eng.run_round(work, workers);
                }
                for (slot, (out, state)) in slots.iter().zip(&solo) {
                    assert_eq!(&slot.out, out, "{workers} workers, seq {}", slot.seq);
                    assert_state_bitwise_equal::<Grid>(&slot.state, state);
                }
            }
        }
    }

    /// Rows each worker ends up with under `worker_of`.
    fn loads(rows: &[usize], worker_of: &[usize], workers: usize) -> Vec<usize> {
        let mut load = vec![0; workers];
        for (&cost, &worker) in rows.iter().zip(worker_of) {
            load[worker] += cost;
        }
        load
    }

    fn makespan(rows: &[usize], workers: usize) -> usize {
        let load = loads(rows, &deal_rows(rows, workers), workers);
        load.into_iter().max().unwrap_or(0)
    }

    /// Heaviest share under the deal this one replaced: contiguous runs
    /// of `len.div_ceil(workers)` items, whatever they cost.
    fn count_split_makespan(rows: &[usize], workers: usize) -> usize {
        rows.chunks(rows.len().div_ceil(workers).max(1))
            .map(|chunk| chunk.iter().sum())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn deal_handles_degenerate_shapes() {
        assert!(deal_rows(&[], 4).is_empty());
        assert_eq!(deal_rows(&[7], 4), vec![0]);
        // More workers than items: one item each, lowest workers first.
        assert_eq!(deal_rows(&[3, 9, 5], 8), vec![2, 0, 1]);
        // Zero workers is treated as one rather than dividing by nothing.
        assert_eq!(deal_rows(&[1, 2], 0), vec![0, 0]);
        // Equal costs: sizes differ by at most one, for every worker count.
        for workers in 1..=7 {
            let worker_of = deal_rows(&[4; 23], workers);
            let sizes = loads(&[1; 23], &worker_of, workers);
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{workers} workers: sizes {sizes:?}");
        }
        // One giant among unit items sits alone until the rest outweigh it.
        let mut rows = vec![1; 20];
        rows.insert(7, 160);
        let worker_of = deal_rows(&rows, 2);
        let giant = worker_of[7];
        let sharing = worker_of.iter().filter(|&&w| w == giant).count();
        assert_eq!(sharing, 1, "the giant shares its worker");
        assert_eq!(loads(&rows, &worker_of, 2), vec![160, 20]);
    }

    #[test]
    fn deal_beats_the_count_split_on_serving_round_shapes() {
        // prefill_long's typical round, the bench crate's skewed round, a
        // uniform decode round, and a round led by finished decoders.
        let typical = [0, 13, 115, 89];
        let mut skewed = vec![160, 48];
        skewed.extend([1; 8]);
        let uniform = [1; 32];
        let finished_first = [0, 0, 0, 0, 64, 64];
        for workers in 2..=4 {
            for rows in [&typical[..], &skewed, &uniform, &finished_first] {
                assert!(
                    makespan(rows, workers) <= count_split_makespan(rows, workers),
                    "{workers} workers, rows {rows:?}"
                );
            }
        }
        assert_eq!(count_split_makespan(&typical, 2), 204);
        assert_eq!(makespan(&typical, 2), 115);
        // Not a theorem: a count split that happens to be perfect can beat
        // longest-first by the 7/6 Graham allows on two workers.
        assert_eq!(count_split_makespan(&[2, 2, 2, 3, 3], 2), 6);
        assert_eq!(makespan(&[2, 2, 2, 3, 3], 2), 7);
    }

    proptest::proptest! {
        /// Every item lands on exactly one existing worker, the same way
        /// every time, within Graham's bounds: the heaviest worker carries
        /// at most the even share plus one item, and at most
        /// 4/3 − 1/(3·workers) of any other deal — the count split's
        /// included.
        #[test]
        fn deal_is_total_deterministic_and_bounded(
            rows in proptest::collection::vec(0usize..200, 0..40),
            workers in 1usize..9,
        ) {
            let worker_of = deal_rows(&rows, workers);
            proptest::prop_assert_eq!(worker_of.len(), rows.len());
            proptest::prop_assert!(worker_of.iter().all(|&w| w < workers));
            proptest::prop_assert_eq!(&worker_of, &deal_rows(&rows, workers));
            let load = loads(&rows, &worker_of, workers);
            let total: usize = rows.iter().sum();
            proptest::prop_assert_eq!(load.iter().sum::<usize>(), total);
            let heaviest = load.into_iter().max().unwrap_or(0);
            let largest = rows.iter().copied().max().unwrap_or(0);
            proptest::prop_assert!(heaviest <= total / workers + largest);
            proptest::prop_assert!(
                3 * workers * heaviest <= (4 * workers - 1) * count_split_makespan(&rows, workers)
            );
        }
    }

    /// A 40-token deterministic "system prompt" for sharing tests.
    fn system_prefix() -> Vec<u32> {
        (0..40u32).map(|i| (i * 7 + 3) % 97).collect()
    }

    fn with_suffix(arrival: u64, tail: &[u32], decode: u32) -> SequenceRequest {
        let mut prompt = system_prefix();
        prompt.extend_from_slice(tail);
        SequenceRequest::greedy(arrival, prompt, decode)
    }

    #[test]
    fn prefix_reuse_is_token_exact_and_charges_only_suffixes() {
        let dense_eng = engine();
        let shared_eng = engine().with_prefix_cache(PrefixCacheConfig::default());
        // Wave 1 commits the system prompt's two full blocks; wave 2
        // arrives after it finished and matches 32 positions each.
        let requests = vec![
            with_suffix(0, &[5, 9], 6),
            with_suffix(2_000_000, &[5, 9], 6),
            with_suffix(2_000_000, &[70, 71, 72], 4),
        ];
        let (dense, _) = dense_eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("dense plan executes");
        let (shared, timing) = shared_eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("shared plan executes");
        assert_eq!(dense.outputs, shared.outputs);
        // Dense prefills 42 + 42 + 43 tokens; sharing serves 32 cached
        // positions to each wave-2 sequence.
        assert_eq!(dense.prefill_tokens, 127);
        assert_eq!(shared.prefill_tokens, 127 - 2 * 32);
        // The timing plan charged the identical suffixes.
        assert_eq!(timing.prefill_tokens, shared.prefill_tokens);
        assert_eq!(shared.prefix.lookups, 3);
        assert_eq!(shared.prefix.hits, 2);
        assert_eq!(shared.prefix.reused_positions, 64);
        assert!(shared.prefix.committed_blocks >= 2);
        assert_eq!(dense.prefix.lookups, 0);
    }

    #[test]
    fn simultaneous_identical_prompts_commit_once() {
        let shared_eng = engine().with_prefix_cache(PrefixCacheConfig::default());
        let requests = vec![with_suffix(0, &[1], 3), with_suffix(0, &[1], 3)];
        let (report, _) = shared_eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        // Both admitted the same round: neither matches (the tree is
        // empty at round start) and the duplicate commit deduplicates.
        assert_eq!(report.prefill_tokens, 2 * 41);
        assert_eq!(report.prefix.hits, 0);
        assert_eq!(report.prefix.committed_blocks, 2);
        assert_eq!(report.outputs[0], report.outputs[1]);
        let solo = shared_eng
            .executor()
            .generate_greedy(&requests[0].prompt, 3);
        assert_eq!(report.outputs[0], solo);
    }

    #[test]
    fn pool_reuses_the_lowest_slot_and_vacating_empties_the_grant() {
        let eng = engine().with_prefix_cache(PrefixCacheConfig::default());
        let mut pool = SlotPool::new(eng.prefix_config().map(PrefixCache::new));
        let requests = [
            with_suffix(0, &[5, 9], 0),
            with_suffix(0, &[70, 71, 72], 0),
            with_suffix(0, &[8], 0),
            with_suffix(0, &[4, 4], 0),
        ];
        let place = |pool: &mut SlotPool, seq: usize| pool.place(eng.new_slot(seq, &requests[seq]));
        assert_eq!(
            [
                place(&mut pool, 0),
                place(&mut pool, 1),
                place(&mut pool, 2)
            ],
            [0, 1, 2]
        );
        // Seq 0 prefills its whole prompt: its two full blocks are
        // committed, and the commit leaves it holding references on them.
        assert_eq!(pool.consult(0), 0);
        let plan = RoundPlan {
            decode: vec![],
            prefill: vec![(0, 42)],
        };
        pool.execute(&eng, &plan).expect("plan fits the slot");
        assert!(!pool.get(0).expect("resident").grant.is_empty());
        let live = pool.cache.as_ref().expect("paged").pool().live();
        // Seq 1 matches those blocks and holds references of its own.
        assert_eq!(pool.consult(1), 32);
        assert!(!pool.get(1).expect("resident").grant.is_empty());

        let gone = pool.vacate(1).expect("was resident");
        assert!(gone.grant.is_empty(), "vacating released the page grant");
        assert!(pool.get(1).is_none() && pool.vacate(1).is_none());
        assert_eq!((pool.residents().count(), pool.peak_resident), (2, 3));
        // The freed slot is the lowest free one; with 0 gone too, 0 is.
        assert_eq!(place(&mut pool, 3), 1);
        assert!(pool.vacate(0).expect("was resident").grant.is_empty());
        assert_eq!(place(&mut pool, 1), 0);
        assert_eq!(place(&mut pool, 0), 3);
        // The tree's own references keep the committed pages alive.
        assert_eq!(pool.cache.as_ref().expect("paged").pool().live(), live);
    }

    #[test]
    fn empty_prompt_rejected() {
        let eng = engine();
        let requests = vec![SequenceRequest::greedy(0, vec![], 1)];
        let err = eng.run_with_scheduler(&requests, &scheduler()).unwrap_err();
        assert_eq!(err, BatchError::EmptyPrompt { seq: 0 });
    }

    #[test]
    fn out_of_vocabulary_prompt_rejected() {
        let eng = engine();
        let vocab = eng.executor().config().vocab_size as u32;
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5], 2),
            SequenceRequest::greedy(0, vec![1, vocab + 7], 2),
        ];
        let plans = vec![RoundPlan {
            decode: vec![],
            prefill: vec![(0, 2), (1, 2)],
        }];
        let err = eng.execute_plan(&requests, &plans).unwrap_err();
        assert_eq!(err, BatchError::TokenOutOfVocabulary { seq: 1 });
        let err = eng.run_with_scheduler(&requests, &scheduler()).unwrap_err();
        assert_eq!(err, BatchError::TokenOutOfVocabulary { seq: 1 });
    }

    #[test]
    fn decode_before_admission_rejected() {
        let eng = engine();
        let requests = vec![SequenceRequest::greedy(0, vec![1], 1)];
        let plans = vec![RoundPlan {
            decode: vec![0],
            prefill: vec![],
        }];
        let err = eng.execute_plan(&requests, &plans).unwrap_err();
        assert_eq!(err, BatchError::NotAdmitted { seq: 0 });
    }

    #[test]
    fn pool_overflow_rejected() {
        let card = zoo::dataflow_test_model();
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        let eng = BatchedDataflowExecutor::new(DataflowExecutor::new(w), 1);
        let requests = vec![
            SequenceRequest::greedy(0, vec![1], 2),
            SequenceRequest::greedy(0, vec![2], 2),
        ];
        // Hand-build a plan admitting both at once, bypassing the
        // scheduler's own capacity check.
        let plans = vec![RoundPlan {
            decode: vec![],
            prefill: vec![(0, 1), (1, 1)],
        }];
        let err = eng.execute_plan(&requests, &plans).unwrap_err();
        assert_eq!(err, BatchError::PoolOverflow { slots: 1 });
    }
}
