//! Online serving frontend: admission, incremental scheduling, streaming.
//!
//! [`OnlineServer`] is the event-driven counterpart of the offline
//! [`BatchedDataflowExecutor::run_with_scheduler`] run: requests arrive
//! dynamically (a bounded admission queue applies backpressure as typed
//! [`ServeError::QueueFull`] rejections), mixed prefill/decode rounds are
//! planned one at a time by the same [`RoundStepper`] that
//! [`BatchScheduler::plan`] drives over a whole trace, tokens stream out
//! per sequence as [`ServeEvent`]s, and sequences can be cancelled
//! mid-flight (their KV slot is freed exactly once).
//!
//! The loop is a deterministic discrete-event simulation: time is a
//! virtual clock advanced by [`BatchScheduler::round_s`] per pipeline
//! round (idle gaps jump straight to the next arrival), and no wall-clock
//! or ambient RNG exists anywhere on the path — clippy's workspace-wide
//! `disallowed_types` / `disallowed_methods` bans (`clippy.toml`) keep
//! it so. The round policy is the
//! stepper's, and the slots, prefix cache and execution of a round are the
//! `batch` slot pool's, both shared with the offline run, which
//! plans the whole trace while it executes each round on its own pool: an
//! online run yields the streams and [`RoundPlan`]s of the offline run —
//! and, under any page budget, the same prefix matches and evictions —
//! and `tests/tests/serving_invariant.rs` pins what is still written twice:
//! admission by arrival and the clock's f64 operations.
//!
//! Per-request time-to-first-token (TTFT) and inter-token gaps are
//! recorded in virtual time and summarized as a p50/p99 [`SloReport`] —
//! the serving-side metrics the RPU memory-wall analysis motivates.
//!
//! Sequence lifecycle: `Queued → Prefilling → Decoding → Finished`, with
//! `Cancelled` reachable from every live state and `QueueFull` rejections
//! never entering the lifecycle at all.
//!
//! # Fault tolerance
//!
//! A validated [`FaultPlan`] (see [`crate::fault`]) injects chip
//! failures, straggler slowdowns, link faults, and per-request deadlines
//! onto the same virtual clock, so every chaos run replays exactly.
//! Hardwired chips cannot be re-flashed: a failure is survived, not
//! repaired. Because the KV cache shards every resident sequence across
//! all 16 chips (`position % 4` per column), a chip death evicts every
//! resident sequence; capacity shrinks to the survivor share
//! (`GridHealth::effective_slots`), evicted sequences park their
//! slots and re-admit with bounded exponential backoff (re-prefilling
//! `prompt ++ emitted` token-exactly — see
//! `BatchedDataflowExecutor::recover_slot`), queued requests are shed
//! before admitted ones when the backlog overflows, and expired deadlines
//! retire sequences with typed [`ServeError::Deadline`] outcomes.
//! Stragglers and link faults stretch round time
//! ([`hnlpu_sim::fabric::retry_round_factor`]); latencies sampled in
//! degraded rounds land in separate [`SloReport`] percentile rows. An
//! empty plan leaves every arithmetic operation of the loop bit-identical
//! to a fault-free server — the serving invariant harness pins it.
//!
//! Questions about time and the grid go to the crate's fault policy (see
//! [`crate::fault`]); the server owns the queues, so it picks the
//! sequences: every resident is evicted, the newest queued is shed, and
//! recovery re-admits first come, first served.
//!
//! Extended lifecycle: `Recovering` (evicted, awaiting re-admission) is
//! live; `DeadlineMissed`, `Shed`, and `ChipLost` are terminal.

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

use crate::batch::{BatchedDataflowExecutor, SeqSlot, SequenceRequest, SlotPool};
use crate::fault::{FaultError, FaultPlan, FaultPolicy, RecoveryStats};
use crate::kv_cache::{PrefixCache, PrefixStats};
use crate::telemetry::StageNanos;
use hnlpu_sim::scheduler::{micros_to_s, BatchScheduler, RoundPlan, RoundStepper};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// Handle for a submitted sequence: the `n`th accepted
/// [`OnlineServer::submit`] call returns `SeqId(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub usize);

impl fmt::Display for SeqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

/// Why the serving frontend refused an operation. All admission-path
/// failures are typed — a malformed or over-limit request must never
/// abort a process serving hundreds of co-resident sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue is full (backpressure). Nothing was
    /// enqueued; the client may retry later.
    QueueFull {
        /// Admission-queue capacity.
        capacity: usize,
    },
    /// The request's prompt was empty.
    EmptyPrompt,
    /// The request's prompt held a token id outside the model's
    /// vocabulary; run, it would trip the engine's assert mid-round and
    /// take every co-resident sequence down with it.
    TokenOutOfVocabulary {
        /// The first offending token id.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// Submissions must carry non-decreasing arrival times (the arrival
    /// process is a totally ordered virtual-time trace).
    ArrivalOutOfOrder {
        /// Latest previously submitted arrival, microseconds.
        last_micros: u64,
        /// Offending earlier arrival, microseconds.
        arrival_micros: u64,
    },
    /// The id does not name a submitted sequence.
    UnknownSequence {
        /// The unknown handle.
        id: SeqId,
    },
    /// Cancelling a sequence that already finished or was cancelled.
    AlreadyRetired {
        /// The retired handle.
        id: SeqId,
    },
    /// The scheduler plans more concurrent sequences than the engine's
    /// KV pool holds.
    SlotsExceedCapacity {
        /// Slots the scheduler schedules.
        scheduled: usize,
        /// Slots the engine pools.
        capacity: usize,
    },
    /// The per-request deadline passed before completion; the sequence
    /// was retired and any KV slot freed exactly once.
    Deadline {
        /// The retired handle.
        id: SeqId,
        /// The deadline that expired, microseconds of virtual time.
        deadline_micros: u64,
    },
    /// A chip failure evicted the sequence and recovery retries were
    /// exhausted before a slot freed up on the surviving grid.
    ChipLost {
        /// The abandoned handle.
        id: SeqId,
        /// The failed chip that evicted it.
        chip: usize,
    },
    /// The sequence was shed from the admission queue under fault
    /// pressure: queued requests are sacrificed before admitted ones.
    Shed {
        /// The shed handle.
        id: SeqId,
    },
    /// The fault plan handed to [`OnlineServer::with_faults`] failed
    /// validation.
    InvalidFaultPlan {
        /// The underlying validation failure.
        error: FaultError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} waiting); retry later")
            }
            ServeError::EmptyPrompt => {
                write!(f, "request prompt must contain at least one token")
            }
            ServeError::TokenOutOfVocabulary { token, vocab } => {
                write!(
                    f,
                    "prompt token {token} is outside the {vocab}-token vocabulary"
                )
            }
            ServeError::ArrivalOutOfOrder {
                last_micros,
                arrival_micros,
            } => write!(
                f,
                "arrival {arrival_micros} µs precedes an earlier submission at {last_micros} µs"
            ),
            ServeError::UnknownSequence { id } => {
                write!(f, "{id} was never submitted")
            }
            ServeError::AlreadyRetired { id } => {
                write!(f, "{id} already finished or was cancelled")
            }
            ServeError::SlotsExceedCapacity {
                scheduled,
                capacity,
            } => write!(
                f,
                "scheduler schedules {scheduled} slots but the engine pools {capacity}"
            ),
            ServeError::Deadline {
                id,
                deadline_micros,
            } => write!(f, "{id} missed its deadline at {deadline_micros} µs"),
            ServeError::ChipLost { id, chip } => {
                write!(f, "{id} lost to chip {chip} failure; recovery exhausted")
            }
            ServeError::Shed { id } => {
                write!(f, "{id} shed from the queue under fault pressure")
            }
            ServeError::InvalidFaultPlan { error } => {
                write!(f, "invalid fault plan: {error}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Lifecycle state of a submitted sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SeqState {
    /// Waiting in the bounded admission queue.
    Queued,
    /// Resident in a KV slot, consuming prompt tokens.
    Prefilling,
    /// Resident in a KV slot, prompt consumed, streaming output tokens.
    Decoding,
    /// Every requested token was streamed; the KV slot is freed.
    Finished,
    /// Cancelled before completion; any KV slot was freed.
    Cancelled,
    /// Evicted by a chip failure; the KV slot was freed and the sequence
    /// awaits re-admission onto the surviving grid (still live).
    Recovering,
    /// Terminal: the per-request deadline passed before completion.
    DeadlineMissed,
    /// Terminal: shed from the admission queue under fault pressure.
    Shed,
    /// Terminal: chip-failure recovery retries were exhausted.
    ChipLost,
}

impl SeqState {
    /// Not yet retired: queued, resident or recovering.
    fn is_live(self) -> bool {
        use SeqState::{Decoding, Prefilling, Queued, Recovering};
        matches!(self, Queued | Prefilling | Decoding | Recovering)
    }
}

/// One observable serving event, stamped with virtual time. Drained in
/// emission order via [`OnlineServer::poll_events`] — this is the
/// streaming interface: a `Token` event is visible as soon as the round
/// that produced it completes, long before the sequence finishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// The sequence left the admission queue and took a KV slot.
    Admitted {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// One streamed output token.
    Token {
        /// Sequence handle.
        id: SeqId,
        /// Position in the sequence's output stream (0-based).
        index: usize,
        /// The token id.
        token: u32,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// All requested tokens were streamed and the KV slot was freed.
    Finished {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// The sequence was cancelled; a resident sequence's KV slot was
    /// freed at this instant.
    Cancelled {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// An injected chip failure took effect; every resident sequence was
    /// evicted and slot capacity shrank to the survivor share.
    ChipFailed {
        /// The chip that died (row-major in the 4×4 grid).
        chip: usize,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// A resident sequence lost its KV to a chip failure; its slot was
    /// freed and it entered recovery.
    Evicted {
        /// Sequence handle.
        id: SeqId,
        /// The failed chip.
        chip: usize,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// An evicted sequence re-admitted: its retained prompt + emitted
    /// tokens re-prefill into a fresh slot, resuming token-exact.
    Recovered {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// The sequence's deadline expired; it was retired and any slot
    /// freed.
    DeadlineMissed {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// The sequence was shed from the queue under fault pressure.
    Shed {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// Recovery retries were exhausted; the sequence was abandoned.
    ChipLost {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
}

/// Per-request bookkeeping.
#[derive(Debug)]
struct SeqRecord {
    request: SequenceRequest,
    state: SeqState,
    arrival_s: f64,
    admitted_s: Option<f64>,
    first_token_s: Option<f64>,
    prev_token_s: Option<f64>,
    finish_s: Option<f64>,
    /// Tokens streamed so far (grown one per decode round).
    tokens: Vec<u32>,
    /// Times this sequence's KV slot was released — exactly once per
    /// admission (`slot_frees == admissions` always holds at the end), 0
    /// for queue-only lifetimes.
    slot_frees: u32,
    /// Times this sequence took a KV slot (initial admission plus each
    /// post-eviction recovery).
    admissions: u32,
    /// Completion deadline in virtual microseconds, from the fault plan.
    deadline: Option<u64>,
    /// Present exactly while the sequence is [`SeqState::Recovering`].
    parked: Option<Parked>,
    /// The typed fault outcome for retired-by-fault sequences.
    error: Option<ServeError>,
}

/// An evicted sequence awaiting re-admission.
#[derive(Debug)]
struct Parked {
    /// The freed slot: emitted tokens and sampler state survive; the KV
    /// context is rebuilt at re-admission.
    slot: SeqSlot,
    /// The chip whose failure evicted it.
    chip: usize,
    /// Re-admission attempts since the eviction.
    retries: u32,
    /// Earliest virtual time the next attempt may run.
    retry_at_s: f64,
}

/// Times to first token and inter-token gaps, virtual seconds.
#[derive(Debug, Default)]
struct Samples {
    ttft: Vec<f64>,
    gap: Vec<f64>,
}

/// Per-sequence outcome in a [`ServeReport`].
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Sequence handle (index in submission order).
    pub id: SeqId,
    /// Final lifecycle state.
    pub state: SeqState,
    /// Arrival time, virtual seconds.
    pub arrival_s: f64,
    /// When the sequence took a KV slot (None if never admitted).
    pub admitted_s: Option<f64>,
    /// Time to first token: first decode emission minus arrival.
    pub ttft_s: Option<f64>,
    /// When the sequence finished or was cancelled.
    pub finish_s: Option<f64>,
    /// The streamed token ids, in emission order.
    pub tokens: Vec<u32>,
    /// KV-slot releases (exactly once per admission; see tests).
    pub slot_frees: u32,
    /// Times the sequence took a KV slot (1 + recoveries; equals
    /// `slot_frees` for every retired sequence).
    pub admissions: u32,
    /// Typed fault outcome when the sequence was retired by a deadline,
    /// shedding, or an unrecoverable chip loss.
    pub error: Option<ServeError>,
}

/// Aggregate service-level-objective statistics in virtual time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloReport {
    /// Accepted submissions.
    pub submitted: usize,
    /// Sequences that streamed every requested token.
    pub completed: usize,
    /// Sequences cancelled before completion.
    pub cancelled: usize,
    /// Submissions rejected by queue backpressure.
    pub rejected: usize,
    /// Queued sequences shed under fault pressure.
    pub shed: usize,
    /// Sequences retired by an expired deadline.
    pub deadline_missed: usize,
    /// Sequences abandoned after exhausting chip-failure recovery.
    pub chip_lost: usize,
    /// Injected chip failures that took effect.
    pub chip_failures: usize,
    /// Eviction/re-prefill accounting for chip-failure recovery.
    pub recovery: RecoveryStats,
    /// Rounds run on a degraded grid or under a straggler/link stretch.
    pub degraded_rounds: u64,
    /// Rounds stretched by link-fault retransmissions.
    pub link_retry_rounds: u64,
    /// Pipeline rounds executed.
    pub rounds: u64,
    /// Prompt tokens prefilled.
    pub prefill_tokens: u64,
    /// Output tokens decoded.
    pub decoded_tokens: u64,
    /// Most sequences resident at once (KV slots in use).
    pub peak_resident: usize,
    /// Largest pooled KV footprint at fp16 storage, bytes (logical:
    /// shared pages counted once per referencing sequence).
    pub peak_kv_bytes_fp16: u64,
    /// Largest physically private KV footprint, bytes. The gap to
    /// `peak_kv_bytes_fp16` is capacity recovered by prefix sharing.
    pub peak_kv_owned_bytes_fp16: u64,
    /// Prefix-reuse counters (all zero for a dense engine).
    pub prefix: PrefixStats,
    /// Final virtual time, seconds.
    pub makespan_s: f64,
    /// Decode throughput in virtual time, tokens/s.
    pub decode_tokens_per_s_virtual: f64,
    /// Median time-to-first-token, seconds (healthy-mode samples only;
    /// degraded-mode samples get their own rows below).
    pub ttft_p50_s: f64,
    /// 99th-percentile time-to-first-token, seconds.
    pub ttft_p99_s: f64,
    /// Mean time-to-first-token, seconds.
    pub(crate) ttft_mean_s: f64,
    /// Median inter-token gap (time per output token), seconds.
    pub tpot_p50_s: f64,
    /// 99th-percentile inter-token gap, seconds.
    pub tpot_p99_s: f64,
    /// Mean inter-token gap, seconds.
    pub(crate) tpot_mean_s: f64,
    /// Median TTFT over degraded-mode samples (degraded round, or the
    /// sequence was ever evicted). `0.0` when no degraded sample exists.
    pub ttft_degraded_p50_s: f64,
    /// 99th-percentile degraded-mode TTFT, seconds.
    pub ttft_degraded_p99_s: f64,
    /// Median degraded-mode inter-token gap, seconds.
    pub(crate) tpot_degraded_p50_s: f64,
    /// 99th-percentile degraded-mode inter-token gap, seconds.
    pub(crate) tpot_degraded_p99_s: f64,
}

/// Full result of an online run: SLO summary, per-sequence outcomes, and
/// the recorded round log (for differential comparison against
/// [`BatchScheduler::plan`]).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Aggregate latency/throughput statistics.
    pub slo: SloReport,
    /// One outcome per accepted submission, indexed by [`SeqId`].
    pub outcomes: Vec<SequenceOutcome>,
    /// The per-round slot assignments the online loop produced.
    pub plans: Vec<RoundPlan>,
}

/// Result of driving a whole timed trace through [`OnlineServer::run_trace`].
#[derive(Debug)]
pub struct TraceOutcome {
    /// Per-submission result, in input order: the assigned [`SeqId`] or
    /// the typed rejection.
    pub submissions: Vec<Result<SeqId, ServeError>>,
    /// The final report after the server drained.
    pub report: ServeReport,
}

/// The event-driven online serving engine.
#[derive(Debug)]
pub struct OnlineServer {
    engine: BatchedDataflowExecutor,
    /// Virtual seconds per pipeline round (from [`BatchScheduler::round_s`]).
    round_s: f64,
    /// The round policy over the residents' token counts; its slot count
    /// shrinks to the survivor share when a chip dies.
    stepper: RoundStepper,
    /// The residents' KV slots and the shared prefix cache, which persists
    /// across the server's lifetime and is flushed whole on chip death
    /// (every committed page stripes across all 16 chips).
    pool: SlotPool,
    /// Bounded admission-queue capacity.
    queue_capacity: usize,
    /// The virtual clock, seconds.
    now_s: f64,
    /// Admission queue, FCFS.
    waiting: VecDeque<SeqId>,
    seqs: Vec<SeqRecord>,
    events: VecDeque<ServeEvent>,
    /// Every round executed so far; the round and token totals are sums
    /// over it.
    plans: Vec<RoundPlan>,
    rejected: usize,
    /// (healthy, degraded) latency samples; a sample is degraded when its
    /// round ran degraded or its sequence was ever evicted.
    latency: (Samples, Samples),
    /// The validated fault plan and the grid's survivors.
    faults: FaultPolicy,
    /// Evicted sequences awaiting re-admission, FCFS.
    recovering: VecDeque<SeqId>,
    recovery: RecoveryStats,
    /// Submission attempts (accepted or not) — the index the fault
    /// plan's deadlines key on, so a trace's deadline targets stay stable
    /// regardless of rejections.
    submit_attempts: usize,
}

impl OnlineServer {
    /// A server running `engine` with the slot count and round timing of
    /// `scheduler`, and an admission queue bounded at `queue_capacity`
    /// waiting requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SlotsExceedCapacity`] when the scheduler
    /// plans more concurrent sequences than the engine pools.
    pub fn new(
        engine: BatchedDataflowExecutor,
        scheduler: &BatchScheduler,
        queue_capacity: usize,
    ) -> Result<Self, ServeError> {
        Self::with_faults(engine, scheduler, queue_capacity, FaultPlan::none())
    }

    /// As [`new`](Self::new), with a fault schedule to inject on the
    /// virtual clock. An empty plan yields a server whose every
    /// arithmetic operation is bit-identical to [`new`](Self::new)'s.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidFaultPlan`] for a malformed plan (out-of-range
    /// chip, no survivors, empty windows, duplicate deadlines, …), or
    /// [`ServeError::SlotsExceedCapacity`] as for [`new`](Self::new).
    pub fn with_faults(
        engine: BatchedDataflowExecutor,
        scheduler: &BatchScheduler,
        queue_capacity: usize,
        faults: FaultPlan,
    ) -> Result<Self, ServeError> {
        let faults =
            FaultPolicy::new(faults).map_err(|error| ServeError::InvalidFaultPlan { error })?;
        let slots = scheduler.slots();
        if slots > engine.max_slots() {
            return Err(ServeError::SlotsExceedCapacity {
                scheduled: slots,
                capacity: engine.max_slots(),
            });
        }
        Ok(OnlineServer {
            round_s: scheduler.round_s(),
            stepper: RoundStepper::new(slots),
            pool: SlotPool::new(engine.prefix_config().map(PrefixCache::new)),
            queue_capacity,
            engine,
            now_s: 0.0,
            waiting: VecDeque::new(),
            seqs: Vec::new(),
            events: VecDeque::new(),
            plans: Vec::new(),
            rejected: 0,
            latency: Default::default(),
            faults,
            recovering: VecDeque::new(),
            recovery: RecoveryStats::default(),
            submit_attempts: 0,
        })
    }

    /// Recovery re-admission attempts before an evicted sequence is
    /// abandoned as [`SeqState::ChipLost`]. Backoff is exponential in
    /// round time, so the last attempt waits `2^6 = 64` rounds.
    pub(crate) const MAX_RECOVERY_RETRIES: u32 = 6;

    /// The survivor set of the 4×4 chip grid.
    #[cfg(test)]
    pub fn grid_health(&self) -> crate::GridHealth {
        self.faults.health()
    }

    /// Concurrent-sequence capacity under the current survivor set.
    #[cfg(test)]
    pub(crate) fn effective_slots(&self) -> usize {
        self.stepper.slots()
    }

    /// Requests waiting in the admission queue.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Sequences currently holding a KV slot.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.stepper.seqs().count()
    }

    /// Evicted sequences awaiting recovery re-admission.
    #[cfg(test)]
    pub(crate) fn recovering(&self) -> usize {
        self.recovering.len()
    }

    /// Lifecycle state of a submitted sequence.
    pub fn state_of(&self, id: SeqId) -> Option<SeqState> {
        self.seqs.get(id.0).map(|r| r.state)
    }

    /// Tokens streamed so far for a sequence.
    pub fn tokens_of(&self, id: SeqId) -> Option<&[u32]> {
        self.seqs.get(id.0).map(|r| r.tokens.as_slice())
    }

    /// The wrapped batched engine.
    pub fn engine(&self) -> &BatchedDataflowExecutor {
        &self.engine
    }

    /// The server's shared prefix cache, when the engine enables one —
    /// exposed so harnesses can check refcount-ledger invariants (every
    /// page freed exactly once) after a run drains.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.pool.cache.as_ref()
    }

    /// Host nanoseconds the workers have spent per stage of the block so
    /// far: the in-program spans, summed over the worker arenas. Wall
    /// clock, so it varies run to run and never feeds the schedule.
    pub fn stage_nanos(&self) -> StageNanos {
        self.pool.stage_nanos()
    }

    /// Submit a request to the admission queue. The request's
    /// `arrival_s_micros` stamps its place in the virtual arrival
    /// process; submissions must be fed in non-decreasing arrival order
    /// (as [`run_trace`](Self::run_trace) does).
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyPrompt`] for an empty prompt,
    /// [`ServeError::TokenOutOfVocabulary`] for a prompt token the model
    /// has no embedding for,
    /// [`ServeError::ArrivalOutOfOrder`] for a time-travelling arrival,
    /// and [`ServeError::QueueFull`] when backpressure rejects the
    /// request (nothing is enqueued; the rejection is counted).
    pub fn submit(&mut self, request: SequenceRequest) -> Result<SeqId, ServeError> {
        // Deadlines key on the submission *attempt* index (counted even
        // for rejected calls), so a fault plan's deadline targets line up
        // with trace positions regardless of backpressure.
        let attempt = self.submit_attempts;
        self.submit_attempts = self.submit_attempts.saturating_add(1);
        if request.prompt.is_empty() {
            return Err(ServeError::EmptyPrompt);
        }
        let vocab = self.engine.executor().config().vocab_size;
        if let Some(token) = request.out_of_vocabulary(vocab) {
            return Err(ServeError::TokenOutOfVocabulary { token, vocab });
        }
        let last_micros = self.seqs.last().map_or(0, |r| r.request.arrival_s_micros);
        if request.arrival_s_micros < last_micros {
            return Err(ServeError::ArrivalOutOfOrder {
                last_micros,
                arrival_micros: request.arrival_s_micros,
            });
        }
        if self.waiting.len() >= self.queue_capacity {
            self.rejected = self.rejected.saturating_add(1);
            return Err(ServeError::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        let id = SeqId(self.seqs.len());
        self.seqs.push(SeqRecord {
            arrival_s: micros_to_s(request.arrival_s_micros),
            request,
            state: SeqState::Queued,
            admitted_s: None,
            first_token_s: None,
            prev_token_s: None,
            finish_s: None,
            tokens: Vec::new(),
            slot_frees: 0,
            admissions: 0,
            deadline: self.faults.deadline_of(attempt),
            parked: None,
            error: None,
        });
        self.waiting.push_back(id);
        Ok(id)
    }

    /// Cancel a sequence. A queued sequence leaves the admission queue; a
    /// resident one releases its KV slot immediately (exactly once). In
    /// either case a [`ServeEvent::Cancelled`] is emitted and no further
    /// tokens will stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSequence`] for a handle never issued,
    /// [`ServeError::AlreadyRetired`] when the sequence already finished
    /// or was cancelled.
    pub(crate) fn cancel(&mut self, id: SeqId) -> Result<(), ServeError> {
        let Some(state) = self.state_of(id) else {
            return Err(ServeError::UnknownSequence { id });
        };
        if !state.is_live() {
            return Err(ServeError::AlreadyRetired { id });
        }
        self.retire(id, SeqState::Cancelled, None);
        self.events.push_back(ServeEvent::Cancelled {
            id,
            t_s: self.now_s,
        });
        Ok(())
    }

    /// Drain pending events (admissions, streamed tokens, completions,
    /// cancellations) in emission order.
    pub fn poll_events(&mut self) -> Vec<ServeEvent> {
        self.events.drain(..).collect()
    }

    /// Run rounds until no sequence is queued, recovering, or resident.
    /// Idle gaps jump the virtual clock to the next wake event (queued
    /// arrival, recovery retry, pending chip failure, or live deadline).
    pub fn run_until_idle(&mut self) {
        self.drive(None);
    }

    /// Run rounds while work is resident; once idle, hop wake event by
    /// wake event. Stops when the clock reaches `horizon_s` (an idle clock
    /// is set to it exactly), or with no horizon when nothing is left.
    fn drive(&mut self, horizon_s: Option<f64>) {
        loop {
            self.apply_due_faults();
            self.enforce_deadlines();
            self.admit_waiting();
            if !self.stepper.is_empty() {
                if horizon_s.is_some_and(|t_s| self.now_s >= t_s) {
                    return;
                }
                self.round();
                continue;
            }
            let wake = self.next_wake();
            match wake.filter(|&wake| horizon_s.is_none_or(|t_s| wake <= t_s)) {
                Some(wake) => self.now_s = wake,
                None => {
                    if let Some(t_s) = horizon_s {
                        self.now_s = self.now_s.max(t_s);
                    }
                    return;
                }
            }
        }
    }

    /// The next instant strictly after `now_s` at which an idle server
    /// must act: the front queued arrival, a recovery retry, a pending
    /// chip failure, or the deadline of a non-resident live sequence.
    /// `None` means the server is fully drained (fault-free servers
    /// reduce to the front-arrival rule the differential harness pins).
    fn next_wake(&self) -> Option<f64> {
        let seq = |id: &SeqId| self.seqs.get(id.0);
        let arrival = self.waiting.front().and_then(seq).map(|r| r.arrival_s);
        let retries = self
            .recovering
            .iter()
            .filter_map(|id| seq(id)?.parked.as_ref());
        let deadlines = self
            .seqs
            .iter()
            .filter(|r| matches!(r.state, SeqState::Queued | SeqState::Recovering))
            .filter_map(|r| r.deadline.map(micros_to_s));
        arrival
            .into_iter()
            .chain(retries.map(|p| p.retry_at_s))
            .chain(self.faults.next_wake())
            .chain(deadlines)
            .filter(|&t| t > self.now_s)
            .min_by(f64::total_cmp)
    }

    /// Drive a complete timed trace: each request is submitted when the
    /// virtual clock reaches its `arrival_s_micros` (requests must be
    /// sorted by arrival; out-of-order entries surface as typed errors in
    /// the result), `cancels` are `(at_micros, request index)` pairs
    /// applied at their times, and the server then runs until drained.
    ///
    /// Submissions at the same instant as a cancellation are delivered
    /// first. Cancels aimed at rejected or not-yet-submitted requests are
    /// ignored; cancelling an already-finished sequence is a no-op.
    pub fn run_trace(
        &mut self,
        requests: &[SequenceRequest],
        cancels: &[(u64, usize)],
    ) -> TraceOutcome {
        let mut sorted: Vec<(u64, usize)> = cancels.to_vec();
        sorted.sort_by_key(|&(t, _)| t);
        let mut cancels = sorted.into_iter().peekable();
        // `submissions[i]` is request `i`'s result, once it was submitted.
        let mut submissions: Vec<Result<SeqId, ServeError>> = Vec::with_capacity(requests.len());
        loop {
            match (requests.get(submissions.len()), cancels.peek().copied()) {
                (Some(req), c) if c.is_none_or(|(t, _)| req.arrival_s_micros <= t) => {
                    self.drive(Some(micros_to_s(req.arrival_s_micros)));
                    submissions.push(self.submit(req.clone()));
                }
                (_, Some((t_micros, target))) => {
                    self.drive(Some(micros_to_s(t_micros)));
                    if let Some(&Ok(id)) = submissions.get(target) {
                        // Already-retired sequences make this a no-op.
                        let _ = self.cancel(id);
                    }
                    cancels.next();
                }
                _ => break,
            }
        }
        self.run_until_idle();
        TraceOutcome {
            submissions,
            report: self.report(),
        }
    }

    /// Apply every not-yet-applied chip failure whose time has come: kill
    /// the chip, shrink capacity to the survivor share, evict every
    /// resident sequence (each holds KV shards on all 16 chips, so none
    /// survives a chip death), and shed queue overflow.
    fn apply_due_faults(&mut self) {
        while let Some(chip) = self.faults.next_due_failure(self.now_s) {
            self.stepper
                .set_slots(self.faults.effective_slots(self.stepper.capacity()));
            self.events.push_back(ServeEvent::ChipFailed {
                chip,
                t_s: self.now_s,
            });
            self.evict_all_resident(chip);
            // Every committed page stripes one shard per chip, so the
            // dead chip invalidates the entire tree: drop each tree
            // reference exactly once. Residents released their grants in
            // the eviction above, so this frees every page.
            if let Some(cache) = self.pool.cache.as_mut() {
                cache.flush();
            }
            self.shed_queue_overflow();
        }
    }

    /// Free `id`'s KV slot, if it holds one: its row leaves the stepper and
    /// the pool drops its page references. Finish, cancel, deadline and
    /// eviction all leave residency here, so `slot_frees == admissions` is
    /// this function's property.
    fn release_slot(&mut self, id: SeqId) -> Option<SeqSlot> {
        self.stepper.remove(id.0);
        let gone = self.pool.vacate(id.0)?;
        if let Some(rec) = self.seqs.get_mut(id.0) {
            rec.slot_frees = rec.slot_frees.saturating_add(1);
        }
        Some(gone)
    }

    /// Evict every resident sequence after `chip` died: free its slot
    /// (page references included, before the caller flushes the tree),
    /// park the carcass (emitted tokens + sampler state survive; the KV
    /// context is rebuilt at re-admission), and enqueue it for recovery.
    fn evict_all_resident(&mut self, chip: usize) {
        let victims: Vec<SeqId> = self.stepper.seqs().map(SeqId).collect();
        for id in victims {
            let (Some(slot), Some(rec)) = (self.release_slot(id), self.seqs.get_mut(id.0)) else {
                continue;
            };
            self.recovery.evictions = self.recovery.evictions.saturating_add(1);
            rec.state = SeqState::Recovering;
            rec.parked = Some(Parked {
                slot,
                chip,
                retries: 0,
                retry_at_s: self.now_s,
            });
            self.recovering.push_back(id);
            self.events.push_back(ServeEvent::Evicted {
                id,
                chip,
                t_s: self.now_s,
            });
        }
    }

    /// Load-shedding under fault pressure: while the backlog (queued +
    /// recovering) overflows the admission queue's bound, drop the
    /// *newest* queued requests — queued work is sacrificed before
    /// admitted work, and earlier arrivals keep their FCFS promise.
    fn shed_queue_overflow(&mut self) {
        while self.waiting.len().saturating_add(self.recovering.len()) > self.queue_capacity {
            let Some(id) = self.waiting.pop_back() else {
                break;
            };
            self.retire(id, SeqState::Shed, Some(ServeError::Shed { id }));
            self.events.push_back(ServeEvent::Shed {
                id,
                t_s: self.now_s,
            });
        }
    }

    /// Retire every live sequence whose deadline the clock stands
    /// strictly past, with the typed outcome. No-op (and no arithmetic)
    /// for plans without deadlines.
    fn enforce_deadlines(&mut self) {
        if !self.faults.has_deadlines() {
            return;
        }
        let now_s = self.now_s;
        let expired: Vec<(SeqId, u64)> = self
            .seqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state.is_live())
            .filter_map(|(i, r)| Some((SeqId(i), r.deadline.filter(|&d| now_s > micros_to_s(d))?)))
            .collect();
        for (id, deadline_micros) in expired {
            let error = ServeError::Deadline {
                id,
                deadline_micros,
            };
            self.retire(id, SeqState::DeadlineMissed, Some(error));
            self.events
                .push_back(ServeEvent::DeadlineMissed { id, t_s: now_s });
        }
    }

    /// Every terminal transition: take a live sequence out of whatever
    /// holds it — the admission or recovery queue, or a KV slot (freed
    /// exactly once) — drop any parked carcass, close its record as `state`.
    fn retire(&mut self, id: SeqId, state: SeqState, error: Option<ServeError>) {
        self.release_slot(id);
        self.waiting.retain(|&w| w != id);
        self.recovering.retain(|&r| r != id);
        if let Some(rec) = self.seqs.get_mut(id.0) {
            rec.parked = None;
            rec.state = state;
            rec.finish_s = Some(self.now_s);
            rec.error = error;
        }
    }

    /// Re-admit evicted sequences, FCFS with exponential backoff:
    /// admitted work outranks queued work for the survivors' shrunken
    /// capacity. A due sequence with a free slot re-prefills
    /// `prompt ++ emitted` into a fresh slot
    /// ([`BatchedDataflowExecutor::recover_slot`] — token-exact); one
    /// out of retries is abandoned as [`SeqState::ChipLost`].
    fn admit_recovering(&mut self) {
        let now_s = self.now_s;
        for id in std::mem::take(&mut self.recovering) {
            let Some(rec) = self.seqs.get_mut(id.0) else {
                continue;
            };
            let admit = |p: &mut Parked| {
                p.retry_at_s <= now_s && self.stepper.admit(id.0, p.slot.resume_row(&rec.request))
            };
            if let Some(parked) = rec.parked.take_if(admit) {
                let slot = self.engine.recover_slot(parked.slot, &rec.request);
                self.recovery.resumed = self.recovery.resumed.saturating_add(1);
                let re_prefill = slot.prompt.len() as u64;
                self.recovery.re_prefill_tokens =
                    self.recovery.re_prefill_tokens.saturating_add(re_prefill);
                self.pool.place(slot);
                rec.state = SeqState::Prefilling;
                rec.admissions = rec.admissions.saturating_add(1);
                self.events
                    .push_back(ServeEvent::Recovered { id, t_s: now_s });
            } else if let Some(parked) = rec.parked.as_mut() {
                if parked.retry_at_s > now_s {
                    self.recovering.push_back(id);
                } else if parked.retries >= Self::MAX_RECOVERY_RETRIES {
                    let error = ServeError::ChipLost {
                        id,
                        chip: parked.chip,
                    };
                    self.retire(id, SeqState::ChipLost, Some(error));
                    self.recovery.failed = self.recovery.failed.saturating_add(1);
                    self.events
                        .push_back(ServeEvent::ChipLost { id, t_s: now_s });
                } else {
                    parked.retries = parked.retries.saturating_add(1);
                    parked.retry_at_s =
                        now_s + FaultPolicy::backoff_s(self.round_s, parked.retries);
                    self.recovering.push_back(id);
                }
            }
        }
    }

    /// Admit queued arrivals into free KV slots, FCFS, at each round
    /// boundary. Recovering evicted sequences re-admit first: admitted
    /// work outranks queued work.
    fn admit_waiting(&mut self) {
        self.admit_recovering();
        while let Some(&id) = self.waiting.front() {
            let Some(rec) = self.seqs.get_mut(id.0) else {
                self.waiting.pop_front();
                continue;
            };
            let due = rec.arrival_s <= self.now_s;
            if !due || !self.stepper.admit(id.0, rec.request.to_sim_request()) {
                break;
            }
            self.waiting.pop_front();
            self.pool.place(self.engine.new_slot(id.0, &rec.request));
            rec.state = SeqState::Prefilling;
            rec.admitted_s = Some(self.now_s);
            rec.admissions = rec.admissions.saturating_add(1);
            self.events.push_back(ServeEvent::Admitted {
                id,
                t_s: self.now_s,
            });
        }
    }

    /// One pipeline round: stretch the clock for the faults in force, let
    /// the stepper plan (consulting the prefix cache on the real slots),
    /// execute the plan, stream the tokens, retire what finished.
    fn round(&mut self) {
        // Stragglers and link faults stretch round time. Fault-free runs
        // compute `round_s * 1.0`, exact in IEEE f64, so the clock stays
        // bit-identical to a server without the fault machinery.
        let (stretch, degraded_round) = self.faults.stretch(self.now_s);
        self.now_s += self.round_s * stretch;

        let (plan, finished) = self.stepper.step(&mut self.pool);
        // The stepper's rows mirror these slots token for token, so the
        // pool's plan validation has nothing to reject.
        let executed = self.pool.execute(&self.engine, &plan);
        debug_assert!(executed.is_ok(), "stepper overran a slot: {executed:?}");

        // Stream freshly decoded tokens, in admission order.
        let now = self.now_s;
        for &seq in &plan.decode {
            let (Some(slot), Some(rec)) = (self.pool.get(seq), self.seqs.get_mut(seq)) else {
                continue;
            };
            let Some((index, &token)) = slot.out.iter().enumerate().next_back() else {
                continue;
            };
            // (A prompt completed owing no tokens is retired below.)
            rec.state = SeqState::Decoding;
            rec.tokens.push(token);
            // Samples from degraded rounds — or from sequences ever
            // evicted, which only recovery re-admits — land in the degraded
            // SLO rows, keeping healthy percentiles honest under chaos.
            let samples = if degraded_round || rec.admissions > 1 {
                &mut self.latency.1
            } else {
                &mut self.latency.0
            };
            if rec.first_token_s.is_none() {
                rec.first_token_s = Some(now);
                samples.ttft.push(now - rec.arrival_s);
            }
            if let Some(prev) = rec.prev_token_s {
                samples.gap.push(now - prev);
            }
            rec.prev_token_s = Some(now);
            self.events.push_back(ServeEvent::Token {
                id: SeqId(seq),
                index,
                token,
                t_s: now,
            });
        }
        // Retire completions, then account the surviving pool footprint.
        for id in finished.into_iter().map(SeqId) {
            self.retire(id, SeqState::Finished, None);
            self.events.push_back(ServeEvent::Finished { id, t_s: now });
        }
        self.pool.record_kv_peaks();
        self.plans.push(plan);
    }

    /// Aggregate SLO statistics so far.
    pub(crate) fn slo_report(&self) -> SloReport {
        let (healthy, degraded) = &self.latency;
        let sorted = |v: &Vec<f64>| {
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            sorted
        };
        let (ttfts, gaps) = (sorted(&healthy.ttft), sorted(&healthy.gap));
        let (ttfts_degraded, gaps_degraded) = (sorted(&degraded.ttft), sorted(&degraded.gap));
        let (degraded_rounds, link_retry_rounds) = self.faults.stretched_rounds();
        #[expect(
            clippy::cast_precision_loss,
            reason = "sample counts are small usize values, exact in f64"
        )]
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let count = |s: SeqState| self.seqs.iter().filter(|r| r.state == s).count();
        let prefills = self.plans.iter().flat_map(|plan| &plan.prefill);
        let decoded_tokens: u64 = self.plans.iter().map(|p| p.decode.len() as u64).sum();
        #[expect(
            clippy::cast_precision_loss,
            reason = "decoded-token counts stay far below 2^53, exact in f64"
        )]
        let decode_tokens_per_s_virtual = if self.now_s > 0.0 {
            decoded_tokens as f64 / self.now_s
        } else {
            0.0
        };
        SloReport {
            submitted: self.seqs.len(),
            completed: count(SeqState::Finished),
            cancelled: count(SeqState::Cancelled),
            shed: count(SeqState::Shed),
            deadline_missed: count(SeqState::DeadlineMissed),
            chip_lost: count(SeqState::ChipLost),
            chip_failures: self.faults.chip_failures(),
            recovery: self.recovery,
            degraded_rounds,
            link_retry_rounds,
            rejected: self.rejected,
            rounds: self.plans.len() as u64,
            prefill_tokens: prefills.map(|&(_, n)| u64::from(n)).sum(),
            decoded_tokens,
            peak_resident: self.pool.peak_resident,
            peak_kv_bytes_fp16: self.pool.peak_kv_bytes,
            peak_kv_owned_bytes_fp16: self.pool.peak_kv_owned_bytes,
            prefix: self
                .prefix_cache()
                .map(PrefixCache::stats)
                .unwrap_or_default(),
            makespan_s: self.now_s,
            decode_tokens_per_s_virtual,
            ttft_p50_s: percentile(&ttfts, 0.50),
            ttft_p99_s: percentile(&ttfts, 0.99),
            ttft_mean_s: mean(&ttfts),
            tpot_p50_s: percentile(&gaps, 0.50),
            tpot_p99_s: percentile(&gaps, 0.99),
            tpot_mean_s: mean(&gaps),
            ttft_degraded_p50_s: percentile(&ttfts_degraded, 0.50),
            ttft_degraded_p99_s: percentile(&ttfts_degraded, 0.99),
            tpot_degraded_p50_s: percentile(&gaps_degraded, 0.50),
            tpot_degraded_p99_s: percentile(&gaps_degraded, 0.99),
        }
    }

    /// The full report: SLO summary, per-sequence outcomes, round log.
    pub(crate) fn report(&self) -> ServeReport {
        let outcomes = self
            .seqs
            .iter()
            .enumerate()
            .map(|(i, r)| SequenceOutcome {
                id: SeqId(i),
                state: r.state,
                arrival_s: r.arrival_s,
                admitted_s: r.admitted_s,
                ttft_s: r.first_token_s.map(|t| t - r.arrival_s),
                finish_s: r.finish_s,
                tokens: r.tokens.clone(),
                slot_frees: r.slot_frees,
                admissions: r.admissions,
                error: r.error,
            })
            .collect();
        ServeReport {
            slo: self.slo_report(),
            outcomes,
            plans: self.plans.clone(),
        }
    }
}

/// The `p`-quantile of an ascending-sorted slice as the sample at rank
/// `round((n − 1) · p)` (0-based; no interpolation), or 0.0 for an empty
/// sample, matching an idle server's report. The committed serve reports
/// are computed with this rank.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[expect(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "sample counts are small (exact in f64) and the rounded rank is clamped by get()"
    )]
    let idx = (sorted.len().saturating_sub(1) as f64 * p).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::DataflowExecutor;
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

    fn server(queue_capacity: usize) -> OnlineServer {
        OnlineServer::new(engine(), &scheduler(), queue_capacity).expect("capacity fits")
    }

    #[test]
    fn online_matches_offline_plan_and_tokens() {
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 8),
            SequenceRequest::greedy(40_000, vec![100, 2], 5),
            SequenceRequest::greedy(2_000_000, vec![64], 12),
        ];
        let eng = engine();
        let sched = scheduler();
        let (offline, offline_plans) = {
            let sim_reqs: Vec<_> = requests
                .iter()
                .map(SequenceRequest::to_sim_request)
                .collect();
            sched.plan(&sim_reqs)
        };
        let offline_run = eng
            .execute_plan(&requests, &offline_plans)
            .expect("offline plan executes");

        let mut server = OnlineServer::new(eng, &sched, requests.len()).expect("fits");
        let outcome = server.run_trace(&requests, &[]);
        assert!(outcome.submissions.iter().all(Result::is_ok));
        assert_eq!(outcome.report.plans, offline_plans);
        for (out, offline_out) in outcome.report.outcomes.iter().zip(&offline_run.outputs) {
            assert_eq!(&out.tokens, offline_out);
            assert_eq!(out.state, SeqState::Finished);
        }
        // Finish times replay the analytical completions exactly (same
        // f64 operations in the same order).
        let mut online_finish: Vec<f64> = outcome
            .report
            .outcomes
            .iter()
            .filter_map(|o| o.finish_s)
            .collect();
        online_finish.sort_by(f64::total_cmp);
        let mut offline_finish: Vec<f64> = offline.completions.iter().map(|c| c.finish_s).collect();
        offline_finish.sort_by(f64::total_cmp);
        assert_eq!(online_finish, offline_finish);
    }

    #[test]
    fn tokens_stream_before_completion() {
        let mut server = server(4);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![7, 3], 5))
            .expect("accepted");
        // Run rounds manually until the first token appears; the sequence
        // must still be live (decoding) at that moment.
        let mut streamed_early = false;
        for _ in 0..3 {
            server.admit_waiting();
            server.round();
            let events = server.poll_events();
            if events
                .iter()
                .any(|e| matches!(e, ServeEvent::Token { id: t, .. } if *t == id))
                && server.state_of(id) == Some(SeqState::Decoding)
            {
                streamed_early = true;
                break;
            }
        }
        assert!(streamed_early, "no token streamed while live");
        server.run_until_idle();
        assert_eq!(server.state_of(id), Some(SeqState::Finished));
        assert_eq!(server.tokens_of(id).map(<[u32]>::len), Some(5));
    }

    #[test]
    fn queue_full_rejection_is_typed() {
        let mut server = server(1);
        assert!(server
            .submit(SequenceRequest::greedy(0, vec![1], 2))
            .is_ok());
        let err = server
            .submit(SequenceRequest::greedy(0, vec![2], 2))
            .expect_err("queue of 1 is full");
        assert_eq!(err, ServeError::QueueFull { capacity: 1 });
        server.run_until_idle();
        assert_eq!(server.slo_report().rejected, 1);
        assert_eq!(server.slo_report().completed, 1);
    }

    #[test]
    fn empty_prompt_rejected() {
        let mut server = server(4);
        assert_eq!(
            server.submit(SequenceRequest::greedy(0, vec![], 1)),
            Err(ServeError::EmptyPrompt)
        );
    }

    #[test]
    fn out_of_vocabulary_prompt_rejected() {
        let mut server = server(4);
        let vocab = server.engine().executor().config().vocab_size;
        let token = vocab as u32 + 7;
        assert_eq!(
            server.submit(SequenceRequest::greedy(0, vec![1, token], 1)),
            Err(ServeError::TokenOutOfVocabulary { token, vocab })
        );
        // Nothing was enqueued, so there is nothing to trip over mid-round.
        server.run_until_idle();
        assert_eq!((server.queued(), server.resident()), (0, 0));
    }

    #[test]
    fn rejected_prompt_leaves_co_resident_streams_untouched() {
        // The rejected attempt still counts for deadline indexing: the
        // deadline on submission 2 lands on the request after it.
        let faults = FaultPlan {
            deadlines: vec![Deadline {
                submission: 2,
                at_micros: 5_000,
            }],
            ..FaultPlan::none()
        };
        let mut chaos = fault_server(8, faults);
        let vocab = chaos.engine().executor().config().vocab_size;
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 6),
            SequenceRequest::greedy(0, vec![1, vocab as u32], 4),
            SequenceRequest::greedy(0, vec![4, 4], 500),
            SequenceRequest::greedy(0, vec![100, 2], 5),
        ];
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(
            outcome.submissions[1],
            Err(ServeError::TokenOutOfVocabulary {
                token: vocab as u32,
                vocab
            })
        );
        let outcomes = &outcome.report.outcomes;
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[1].state, SeqState::DeadlineMissed);
        for (out, request) in [(&outcomes[0], &requests[0]), (&outcomes[2], &requests[3])] {
            assert_eq!(out.state, SeqState::Finished);
            let solo = chaos
                .engine()
                .executor()
                .generate_greedy(&request.prompt, request.decode_tokens as usize);
            assert_eq!(out.tokens, solo);
        }
    }

    #[test]
    fn out_of_order_arrival_rejected() {
        let mut server = server(4);
        assert!(server
            .submit(SequenceRequest::greedy(5_000, vec![1], 1))
            .is_ok());
        assert_eq!(
            server.submit(SequenceRequest::greedy(4_999, vec![2], 1)),
            Err(ServeError::ArrivalOutOfOrder {
                last_micros: 5_000,
                arrival_micros: 4_999,
            })
        );
    }

    #[test]
    fn cancel_queued_sequence_never_runs() {
        let mut server = server(8);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![1, 2], 4))
            .expect("accepted");
        server.cancel(id).expect("cancellable while queued");
        server.run_until_idle();
        assert_eq!(server.state_of(id), Some(SeqState::Cancelled));
        assert_eq!(server.tokens_of(id).map(<[u32]>::len), Some(0));
        let report = server.report();
        assert_eq!(report.outcomes[0].slot_frees, 0);
        assert_eq!(report.slo.rounds, 0);
    }

    #[test]
    fn cancel_resident_frees_slot_exactly_once() {
        let mut server = server(8);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![1, 2, 3], 50))
            .expect("accepted");
        server.admit_waiting();
        server.round();
        assert_eq!(server.resident(), 1);
        server.cancel(id).expect("cancellable while resident");
        assert_eq!(server.resident(), 0);
        assert_eq!(server.cancel(id), Err(ServeError::AlreadyRetired { id }));
        server.run_until_idle();
        let report = server.report();
        assert_eq!(report.outcomes[0].slot_frees, 1);
        assert_eq!(report.outcomes[0].state, SeqState::Cancelled);
        // The freed slot is reusable: a new sequence admits and finishes.
        let id2 = server
            .submit(SequenceRequest::greedy(10_000, vec![9], 2))
            .expect("accepted");
        server.run_until_idle();
        assert_eq!(server.state_of(id2), Some(SeqState::Finished));
    }

    #[test]
    fn unknown_sequence_cancel_is_typed() {
        let mut server = server(4);
        assert_eq!(
            server.cancel(SeqId(7)),
            Err(ServeError::UnknownSequence { id: SeqId(7) })
        );
    }

    #[test]
    fn zero_decode_requests_finish_with_empty_stream() {
        let mut server = server(4);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![3, 1, 4], 0))
            .expect("accepted");
        server.run_until_idle();
        assert_eq!(server.state_of(id), Some(SeqState::Finished));
        assert_eq!(server.tokens_of(id).map(<[u32]>::len), Some(0));
        assert_eq!(server.report().outcomes[0].slot_frees, 1);
    }

    #[test]
    fn slo_report_counts_reconcile() {
        let requests: Vec<SequenceRequest> = (0..6)
            .map(|i| SequenceRequest::greedy(i * 30_000, vec![1 + i as u32, 2], 4))
            .collect();
        let mut server = server(16);
        let outcome = server.run_trace(&requests, &[]);
        let slo = &outcome.report.slo;
        assert_eq!(slo.submitted, 6);
        assert_eq!(slo.completed, 6);
        assert_eq!(slo.decoded_tokens, 6 * 4);
        assert_eq!(slo.prefill_tokens, 6 * 2);
        assert_eq!(slo.rounds, outcome.report.plans.len() as u64);
        assert!(slo.ttft_p50_s > 0.0 && slo.ttft_p99_s >= slo.ttft_p50_s);
        assert!(slo.tpot_p50_s > 0.0 && slo.tpot_p99_s >= slo.tpot_p50_s);
        assert!(slo.makespan_s > 0.0);
        // 4 tokens per sequence -> 3 gaps each.
        let streamed: usize = outcome.report.outcomes.iter().map(|o| o.tokens.len()).sum();
        assert_eq!(streamed as u64, slo.decoded_tokens);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[2.0], 0.99), 2.0);
    }

    // ---- fault injection ----

    use crate::fault::{ChipFailure, Deadline, LinkFault, Straggler};

    fn fault_server(queue_capacity: usize, faults: FaultPlan) -> OnlineServer {
        OnlineServer::with_faults(engine(), &scheduler(), queue_capacity, faults)
            .expect("valid plan")
    }

    fn kill(at_micros: u64, chip: usize) -> FaultPlan {
        FaultPlan {
            chip_failures: vec![ChipFailure { at_micros, chip }],
            ..FaultPlan::none()
        }
    }

    #[test]
    fn invalid_fault_plan_is_typed() {
        let err = OnlineServer::with_faults(engine(), &scheduler(), 4, kill(0, 99))
            .expect_err("chip 99 does not exist");
        assert_eq!(
            err,
            ServeError::InvalidFaultPlan {
                error: FaultError::ChipOutOfRange { chip: 99 }
            }
        );
    }

    #[test]
    fn empty_plan_is_bit_identical_to_faultless_server() {
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 8),
            SequenceRequest::greedy(40_000, vec![100, 2], 5),
        ];
        let mut plain = server(8);
        let mut chaos = fault_server(8, FaultPlan::none());
        let a = plain.run_trace(&requests, &[]);
        let b = chaos.run_trace(&requests, &[]);
        assert_eq!(a.report.plans, b.report.plans);
        assert_eq!(a.report.slo, b.report.slo);
        for (x, y) in a.report.outcomes.iter().zip(&b.report.outcomes) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.finish_s, y.finish_s);
        }
        assert!(b.report.slo.recovery.is_clean());
        assert_eq!(b.report.slo.degraded_rounds, 0);
    }

    #[test]
    fn chip_failure_evicts_recovers_and_resumes_token_exact() {
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 40),
            SequenceRequest::greedy(0, vec![100, 2], 40),
        ];
        let baseline = server(8).run_trace(&requests, &[]);
        let mid = (baseline.report.slo.makespan_s * 1e6 / 2.0) as u64;
        let mut chaos = fault_server(8, kill(mid, 5));
        let outcome = chaos.run_trace(&requests, &[]);
        // Survivor capacity: 15 of 16 chips keep 15/16 of the slots.
        assert!(chaos.grid_health().is_degraded());
        assert_eq!(chaos.effective_slots(), 216 * 15 / 16);
        let slo = &outcome.report.slo;
        assert_eq!(slo.chip_failures, 1);
        assert_eq!(slo.recovery.evictions, 2);
        assert_eq!(slo.recovery.resumed, 2);
        assert_eq!(slo.recovery.failed, 0);
        assert!(slo.recovery.re_prefill_tokens > 0);
        assert!(slo.degraded_rounds > 0);
        // The recovered streams are bit-identical to the fault-free run:
        // re-prefilling prompt ++ emitted reconstructs the exact context.
        for (out, base) in outcome
            .report
            .outcomes
            .iter()
            .zip(&baseline.report.outcomes)
        {
            assert_eq!(out.state, SeqState::Finished);
            assert_eq!(out.tokens, base.tokens);
            assert_eq!(out.admissions, 2, "evicted once, admitted twice");
            assert_eq!(out.slot_frees, 2, "freed at eviction and at finish");
        }
        // Degraded latency rows got the post-eviction samples.
        assert!(slo.ttft_degraded_p50_s > 0.0 || slo.tpot_degraded_p50_s > 0.0);
    }

    #[test]
    fn deadline_expiry_is_typed_and_frees_the_slot_once() {
        let faults = FaultPlan {
            deadlines: vec![Deadline {
                submission: 0,
                at_micros: 5_000,
            }],
            ..FaultPlan::none()
        };
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 500),
            SequenceRequest::greedy(0, vec![4, 4], 5),
        ];
        let mut chaos = fault_server(8, faults);
        let outcome = chaos.run_trace(&requests, &[]);
        let missed = &outcome.report.outcomes[0];
        assert_eq!(missed.state, SeqState::DeadlineMissed);
        assert_eq!(
            missed.error,
            Some(ServeError::Deadline {
                id: SeqId(0),
                deadline_micros: 5_000,
            })
        );
        assert_eq!(missed.slot_frees, missed.admissions);
        assert_eq!(outcome.report.outcomes[1].state, SeqState::Finished);
        assert_eq!(outcome.report.slo.deadline_missed, 1);
        assert_eq!(outcome.report.slo.completed, 1);
    }

    #[test]
    fn queued_requests_are_shed_before_admitted_ones() {
        let mut chaos = fault_server(2, kill(10_000, 3));
        let a = chaos
            .submit(SequenceRequest::greedy(0, vec![1, 2, 3], 60))
            .expect("admits");
        // Admit `a` so the capacity-2 queue is free for the two future
        // arrivals (they stay queued until the clock reaches them).
        chaos.admit_waiting();
        assert_eq!(chaos.resident(), 1);
        let b = chaos
            .submit(SequenceRequest::greedy(20_000, vec![5], 4))
            .expect("queued");
        let c = chaos
            .submit(SequenceRequest::greedy(25_000, vec![6], 4))
            .expect("queued");
        chaos.run_until_idle();
        // The failure evicts resident `a`; backlog (1 recovering + 2
        // queued) overflows the capacity-2 queue, shedding the newest
        // queued request — never the admitted one.
        assert_eq!(chaos.state_of(c), Some(SeqState::Shed));
        assert_eq!(chaos.state_of(a), Some(SeqState::Finished));
        assert_eq!(chaos.state_of(b), Some(SeqState::Finished));
        let report = chaos.report();
        assert_eq!(report.slo.shed, 1);
        assert_eq!(report.outcomes[c.0].error, Some(ServeError::Shed { id: c }));
        assert_eq!(report.outcomes[c.0].slot_frees, 0);
    }

    #[test]
    fn straggler_stretches_the_clock_without_changing_tokens() {
        let requests = vec![SequenceRequest::greedy(0, vec![7, 3], 12)];
        let baseline = server(4).run_trace(&requests, &[]);
        let faults = FaultPlan {
            stragglers: vec![Straggler {
                chip: 9,
                from_micros: 0,
                until_micros: u64::MAX,
                slowdown: 4.0,
            }],
            ..FaultPlan::none()
        };
        let mut chaos = fault_server(4, faults);
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(
            outcome.report.outcomes[0].tokens,
            baseline.report.outcomes[0].tokens
        );
        let slo = &outcome.report.slo;
        assert!(slo.makespan_s > baseline.report.slo.makespan_s * 3.5);
        assert_eq!(slo.degraded_rounds, slo.rounds);
        // Every latency sample is a degraded one; healthy rows are empty.
        assert_eq!(slo.ttft_p50_s, 0.0);
        assert!(slo.ttft_degraded_p50_s > 0.0);
    }

    #[test]
    fn link_faults_stretch_and_count_rounds() {
        let requests = vec![SequenceRequest::greedy(0, vec![7, 3], 12)];
        let baseline = server(4).run_trace(&requests, &[]);
        let faults = FaultPlan {
            link_faults: vec![LinkFault {
                from_micros: 0,
                until_micros: u64::MAX,
                retries: 1,
            }],
            ..FaultPlan::none()
        };
        let mut chaos = fault_server(4, faults);
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(
            outcome.report.outcomes[0].tokens,
            baseline.report.outcomes[0].tokens
        );
        let slo = &outcome.report.slo;
        assert_eq!(slo.link_retry_rounds, slo.rounds);
        // One retry doubles each round.
        let ratio = slo.makespan_s / baseline.report.slo.makespan_s;
        assert!((ratio - 2.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn cancelling_a_recovering_sequence_retires_it() {
        let mut chaos = fault_server(4, kill(10_000, 0));
        let id = chaos
            .submit(SequenceRequest::greedy(0, vec![1, 2, 3], 500))
            .expect("admits");
        // Run until the eviction lands.
        while chaos.state_of(id) != Some(SeqState::Recovering) {
            chaos.admit_waiting();
            chaos.round();
            chaos.apply_due_faults();
        }
        chaos.cancel(id).expect("recovering is live");
        assert_eq!(chaos.state_of(id), Some(SeqState::Cancelled));
        assert_eq!(chaos.recovering(), 0);
        chaos.run_until_idle();
        let report = chaos.report();
        assert_eq!(report.outcomes[0].slot_frees, 1);
        assert_eq!(report.outcomes[0].admissions, 1);
        assert_eq!(report.slo.recovery.evictions, 1);
        assert_eq!(report.slo.recovery.resumed, 0);
    }

    #[test]
    fn chip_loss_after_exhausted_retries_is_typed() {
        // Kill 15 of 16 chips: the lone survivor keeps 1/16 of the
        // slots, so most of the evicted fleet cannot fit back.
        let card = zoo::dataflow_test_model();
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        let eng = BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216);
        let sched = scheduler();
        let mut chaos = OnlineServer::with_faults(
            eng,
            &sched,
            8,
            FaultPlan {
                chip_failures: (0..15)
                    .map(|i| ChipFailure {
                        at_micros: 10_000 + i as u64,
                        chip: i,
                    })
                    .collect(),
                ..FaultPlan::none()
            },
        )
        .expect("valid plan");
        // 15 dead chips leave effective_slots = max(216/16, 1) = 13; far
        // fewer than 20 sequences. Each decodes for the whole backoff
        // ladder (2 + 4 + … + 2^MAX_RECOVERY_RETRIES rounds) plus one more
        // top rung, which covers the 12 tokens decoded before the chips
        // die: the 13 re-admitted first still hold every slot when the
        // other 7 exhaust their retries (at 126 decodes none does).
        let retries = OnlineServer::MAX_RECOVERY_RETRIES;
        let ladder: u32 = (1..=retries).map(|retry| 1 << retry).sum();
        let decodes = ladder + (1 << retries);
        let requests: Vec<SequenceRequest> = (0..20)
            .map(|i| SequenceRequest::greedy(0, vec![1 + i as u32], decodes))
            .collect();
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(chaos.effective_slots(), 216 / 16);
        let slo = &outcome.report.slo;
        assert_eq!(slo.chip_failures, 15);
        let lost: Vec<_> = outcome
            .report
            .outcomes
            .iter()
            .filter(|o| o.state == SeqState::ChipLost)
            .collect();
        assert!(slo.chip_lost > 0, "no recovery exhausted its retries");
        assert_eq!(lost.len(), slo.chip_lost);
        assert_eq!(slo.recovery.failed, slo.chip_lost as u64);
        for o in &lost {
            assert!(matches!(o.error, Some(ServeError::ChipLost { .. })));
            assert_eq!(o.slot_frees, o.admissions);
        }
        // Everyone else still finished, token-exact continuation included.
        assert_eq!(
            slo.completed + slo.chip_lost,
            20,
            "every sequence retired one way or the other"
        );
        assert!(slo.completed > 0);
    }

    /// One event as `(variant, id, index, token, chip, t_s bits)`; fields
    /// a variant does not carry read 0.
    fn event_row(e: &ServeEvent) -> (&'static str, usize, usize, u32, usize, u64) {
        match *e {
            ServeEvent::Admitted { id, t_s } => ("Admitted", id.0, 0, 0, 0, t_s.to_bits()),
            ServeEvent::Token {
                id,
                index,
                token,
                t_s,
            } => ("Token", id.0, index, token, 0, t_s.to_bits()),
            ServeEvent::Finished { id, t_s } => ("Finished", id.0, 0, 0, 0, t_s.to_bits()),
            ServeEvent::Cancelled { id, t_s } => ("Cancelled", id.0, 0, 0, 0, t_s.to_bits()),
            ServeEvent::ChipFailed { chip, t_s } => ("ChipFailed", 0, 0, 0, chip, t_s.to_bits()),
            ServeEvent::Evicted { id, chip, t_s } => ("Evicted", id.0, 0, 0, chip, t_s.to_bits()),
            ServeEvent::Recovered { id, t_s } => ("Recovered", id.0, 0, 0, 0, t_s.to_bits()),
            ServeEvent::DeadlineMissed { id, t_s } => {
                ("DeadlineMissed", id.0, 0, 0, 0, t_s.to_bits())
            }
            ServeEvent::Shed { id, t_s } => ("Shed", id.0, 0, 0, 0, t_s.to_bits()),
            ServeEvent::ChipLost { id, t_s } => ("ChipLost", id.0, 0, 0, 0, t_s.to_bits()),
        }
    }

    /// The fault path's timing, pinned literally: the event log, the SLO
    /// report's bits and every outcome's slot ledger, written out from
    /// the server before `FaultPolicy` took over the plan and the grid.
    /// On an 8-slot machine (round 32.71 µs): 17 requests at t = 0 fill the
    /// slots and the 8-deep queue (one rejected); seq 1's deadline expires
    /// while it decodes; chips 5, 2 and 11 die at the same µs and fail in
    /// plan order, evicting every resident, shedding the newest queued and
    /// leaving seq 9 in backoff, where it is cancelled; a straggler on chip
    /// 9 stretches rounds until chip 9 itself dies inside the window,
    /// re-evicting sequences already recovered once; seq 19's deadline
    /// expires while it is still queued; a link window doubles three rounds.
    /// The token ids were rebased once, when the synthetic weights and the
    /// rotary angles stopped calling the host libm; no time, count or
    /// ledger entry moved.
    #[test]
    fn chaos_event_log_matches_the_pre_policy_golden() {
        let sched = BatchScheduler::new(
            SimConfig {
                num_layers: 1,
                stages_per_layer: 8,
                ..SimConfig::paper_default()
            },
            2048,
        );
        let kill = |at_micros, chip| ChipFailure { at_micros, chip };
        let faults = FaultPlan {
            chip_failures: vec![kill(500, 9), kill(200, 5), kill(200, 2), kill(200, 11)],
            stragglers: vec![Straggler {
                chip: 9,
                from_micros: 100,
                until_micros: 900,
                slowdown: 3.0,
            }],
            link_faults: vec![LinkFault {
                from_micros: 600,
                until_micros: 800,
                retries: 1,
            }],
            deadlines: vec![
                Deadline {
                    submission: 1,
                    at_micros: 100,
                },
                Deadline {
                    submission: 20,
                    at_micros: 360,
                },
            ],
        };
        let requests: Vec<SequenceRequest> = (0..24u32)
            .map(|i| {
                let arrival = match i {
                    0..=16 => 0,
                    17..=20 => 300,
                    _ => 1_000,
                };
                let decode = if i == 1 { 40 } else { 3 + i % 4 };
                SequenceRequest::greedy(arrival, vec![1 + i, 2 + 3 * i, 7], decode)
            })
            .collect();
        let mut chaos = OnlineServer::with_faults(engine(), &sched, 8, faults).expect("valid plan");
        let outcome = chaos.run_trace(&requests, &[(230, 9)]);
        let events: Vec<_> = chaos.poll_events().iter().map(event_row).collect();
        let slo = &outcome.report.slo;
        let ledger: Vec<(SeqState, u32, u32)> = outcome
            .report
            .outcomes
            .iter()
            .map(|o| (o.state, o.slot_frees, o.admissions))
            .collect();
        let bits = [
            slo.makespan_s,
            slo.decode_tokens_per_s_virtual,
            slo.ttft_p50_s,
            slo.ttft_p99_s,
            slo.ttft_mean_s,
            slo.tpot_p50_s,
            slo.tpot_p99_s,
            slo.tpot_mean_s,
            slo.ttft_degraded_p50_s,
            slo.ttft_degraded_p99_s,
            slo.tpot_degraded_p50_s,
            slo.tpot_degraded_p99_s,
        ]
        .map(f64::to_bits);
        let counts = (
            slo.submitted,
            slo.completed,
            slo.cancelled,
            slo.rejected,
            slo.shed,
            slo.deadline_missed,
            slo.chip_lost,
            slo.chip_failures,
        );
        let rounds = (
            slo.degraded_rounds,
            slo.link_retry_rounds,
            slo.rounds,
            slo.prefill_tokens,
            slo.decoded_tokens,
            slo.peak_resident,
        );
        assert_eq!(counts, (23, 14, 1, 1, 6, 2, 0, 4));
        assert_eq!(rounds, (23, 3, 27, 86, 68, 8));
        assert_eq!(
            slo.recovery,
            RecoveryStats {
                evictions: 13,
                resumed: 12,
                failed: 0,
                re_prefill_tokens: 61
            }
        );
        assert_eq!(
            bits,
            [
                4563375056386126828,
                4677751718823912970,
                4544455568378668283,
                4548959168006038779,
                4545145160377126614,
                4539951968751297787,
                4539951968751297788,
                4539951968751297788,
                4558216320642978536,
                4560681635754709448,
                4539951968751297792,
                4557083125625315512
            ]
        );
        assert_eq!(
            ledger,
            [
                (SeqState::Finished, 1, 1),
                (SeqState::DeadlineMissed, 1, 1),
                (SeqState::Finished, 2, 2),
                (SeqState::Finished, 3, 3),
                (SeqState::Finished, 1, 1),
                (SeqState::Finished, 3, 3),
                (SeqState::Finished, 3, 3),
                (SeqState::Finished, 3, 3),
                (SeqState::Finished, 3, 3),
                (SeqState::Cancelled, 1, 1),
                (SeqState::Finished, 2, 2),
                (SeqState::Shed, 0, 0),
                (SeqState::Shed, 0, 0),
                (SeqState::Shed, 0, 0),
                (SeqState::Shed, 0, 0),
                (SeqState::Shed, 0, 0),
                (SeqState::Finished, 1, 1),
                (SeqState::Finished, 1, 1),
                (SeqState::Shed, 0, 0),
                (SeqState::DeadlineMissed, 0, 0),
                (SeqState::Finished, 1, 1),
                (SeqState::Finished, 1, 1),
                (SeqState::Finished, 1, 1),
            ]
        );
        assert_eq!(
            events,
            [
                ("Admitted", 0, 0, 0, 0, 0),
                ("Admitted", 1, 0, 0, 0, 0),
                ("Admitted", 2, 0, 0, 0, 0),
                ("Admitted", 3, 0, 0, 0, 0),
                ("Admitted", 4, 0, 0, 0, 0),
                ("Admitted", 5, 0, 0, 0, 0),
                ("Admitted", 6, 0, 0, 0, 0),
                ("Admitted", 7, 0, 0, 0, 0),
                ("Token", 0, 0, 121, 0, 4539951968751297787),
                ("Token", 1, 0, 118, 0, 4539951968751297787),
                ("Token", 0, 1, 7, 0, 4544455568378668283),
                ("Token", 1, 1, 22, 0, 4544455568378668283),
                ("Token", 2, 0, 42, 0, 4544455568378668283),
                ("Token", 3, 0, 81, 0, 4544455568378668283),
                ("Token", 0, 2, 7, 0, 4546869140373272440),
                ("Token", 1, 2, 22, 0, 4546869140373272440),
                ("Token", 2, 1, 42, 0, 4546869140373272440),
                ("Token", 3, 1, 81, 0, 4546869140373272440),
                ("Token", 4, 0, 55, 0, 4546869140373272440),
                ("Token", 5, 0, 70, 0, 4546869140373272440),
                ("Finished", 0, 0, 0, 0, 4546869140373272440),
                ("Admitted", 8, 0, 0, 0, 4546869140373272440),
                ("Token", 1, 3, 22, 0, 4548959168006038779),
                ("Token", 2, 2, 42, 0, 4548959168006038779),
                ("Token", 3, 2, 81, 0, 4548959168006038779),
                ("Token", 4, 1, 55, 0, 4548959168006038779),
                ("Token", 5, 1, 70, 0, 4548959168006038779),
                ("Token", 6, 0, 0, 0, 4548959168006038779),
                ("DeadlineMissed", 1, 0, 0, 0, 4548959168006038779),
                ("Admitted", 9, 0, 0, 0, 4548959168006038779),
                ("Token", 2, 3, 42, 0, 4552579525997945015),
                ("Token", 3, 3, 81, 0, 4552579525997945015),
                ("Token", 4, 2, 55, 0, 4552579525997945015),
                ("Token", 5, 2, 70, 0, 4552579525997945015),
                ("Token", 6, 1, 0, 0, 4552579525997945015),
                ("Token", 7, 0, 0, 0, 4552579525997945015),
                ("Finished", 4, 0, 0, 0, 4552579525997945015),
                ("ChipFailed", 0, 0, 0, 5, 4552579525997945015),
                ("Evicted", 2, 0, 0, 5, 4552579525997945015),
                ("Evicted", 3, 0, 0, 5, 4552579525997945015),
                ("Evicted", 5, 0, 0, 5, 4552579525997945015),
                ("Evicted", 6, 0, 0, 5, 4552579525997945015),
                ("Evicted", 7, 0, 0, 5, 4552579525997945015),
                ("Evicted", 8, 0, 0, 5, 4552579525997945015),
                ("Evicted", 9, 0, 0, 5, 4552579525997945015),
                ("Shed", 15, 0, 0, 0, 4552579525997945015),
                ("Shed", 14, 0, 0, 0, 4552579525997945015),
                ("Shed", 13, 0, 0, 0, 4552579525997945015),
                ("Shed", 12, 0, 0, 0, 4552579525997945015),
                ("Shed", 11, 0, 0, 0, 4552579525997945015),
                ("ChipFailed", 0, 0, 0, 2, 4552579525997945015),
                ("ChipFailed", 0, 0, 0, 11, 4552579525997945015),
                ("Recovered", 2, 0, 0, 0, 4552579525997945015),
                ("Recovered", 3, 0, 0, 0, 4552579525997945015),
                ("Recovered", 5, 0, 0, 0, 4552579525997945015),
                ("Recovered", 6, 0, 0, 0, 4552579525997945015),
                ("Recovered", 7, 0, 0, 0, 4552579525997945015),
                ("Recovered", 8, 0, 0, 0, 4552579525997945015),
                ("Cancelled", 9, 0, 0, 0, 4554669553630711354),
                ("Token", 2, 4, 42, 0, 4556479732626664472),
                ("Finished", 2, 0, 0, 0, 4556479732626664472),
                ("DeadlineMissed", 19, 0, 0, 0, 4556479732626664472),
                ("Admitted", 10, 0, 0, 0, 4556479732626664472),
                ("Token", 3, 4, 81, 0, 4557966367260779771),
                ("ChipFailed", 0, 0, 0, 9, 4557966367260779771),
                ("Evicted", 3, 0, 0, 9, 4557966367260779771),
                ("Evicted", 5, 0, 0, 9, 4557966367260779771),
                ("Evicted", 6, 0, 0, 9, 4557966367260779771),
                ("Evicted", 7, 0, 0, 9, 4557966367260779771),
                ("Evicted", 8, 0, 0, 9, 4557966367260779771),
                ("Evicted", 10, 0, 0, 9, 4557966367260779771),
                ("Shed", 18, 0, 0, 0, 4557966367260779771),
                ("Recovered", 3, 0, 0, 0, 4557966367260779771),
                ("Recovered", 5, 0, 0, 0, 4557966367260779771),
                ("Recovered", 6, 0, 0, 0, 4557966367260779771),
                ("Recovered", 7, 0, 0, 0, 4557966367260779771),
                ("Recovered", 8, 0, 0, 0, 4557966367260779771),
                ("Recovered", 10, 0, 0, 0, 4557966367260779771),
                ("Token", 3, 5, 81, 0, 4558569760259430811),
                ("Finished", 3, 0, 0, 0, 4558569760259430811),
                ("Admitted", 16, 0, 0, 0, 4558569760259430811),
                ("Token", 5, 3, 70, 0, 4558871456758756331),
                ("Finished", 5, 0, 0, 0, 4558871456758756331),
                ("Admitted", 17, 0, 0, 0, 4558871456758756331),
                ("Token", 6, 2, 0, 0, 4559474849757407370),
                ("Token", 7, 1, 0, 0, 4559474849757407370),
                ("Token", 6, 3, 0, 0, 4560078242756058409),
                ("Token", 7, 2, 0, 0, 4560078242756058409),
                ("Token", 8, 0, 9, 0, 4560078242756058409),
                ("Token", 6, 4, 0, 0, 4560681635754709448),
                ("Token", 7, 3, 0, 0, 4560681635754709448),
                ("Token", 8, 1, 9, 0, 4560681635754709448),
                ("Token", 10, 0, 22, 0, 4560681635754709448),
                ("Finished", 6, 0, 0, 0, 4560681635754709448),
                ("Token", 7, 4, 0, 0, 4560983332254034968),
                ("Token", 8, 2, 9, 0, 4560983332254034968),
                ("Token", 10, 1, 22, 0, 4560983332254034968),
                ("Token", 16, 0, 81, 0, 4560983332254034968),
                ("Finished", 8, 0, 0, 0, 4560983332254034968),
                ("Token", 7, 5, 0, 0, 4561285028753360488),
                ("Token", 10, 2, 22, 0, 4561285028753360488),
                ("Token", 16, 1, 81, 0, 4561285028753360488),
                ("Token", 17, 0, 121, 0, 4561285028753360488),
                ("Finished", 7, 0, 0, 0, 4561285028753360488),
                ("Token", 10, 3, 22, 0, 4561586725252686008),
                ("Token", 16, 2, 90, 0, 4561586725252686008),
                ("Token", 17, 1, 121, 0, 4561586725252686008),
                ("Token", 10, 4, 22, 0, 4561888421752011528),
                ("Token", 16, 3, 93, 0, 4561888421752011528),
                ("Token", 17, 2, 121, 0, 4561888421752011528),
                ("Finished", 10, 0, 0, 0, 4561888421752011528),
                ("Finished", 16, 0, 0, 0, 4561888421752011528),
                ("Token", 17, 3, 121, 0, 4562168270388824748),
                ("Token", 17, 4, 121, 0, 4562319118638487508),
                ("Finished", 17, 0, 0, 0, 4562319118638487508),
                ("Admitted", 20, 0, 0, 0, 4562319118638487508),
                ("Admitted", 21, 0, 0, 0, 4562319118638487508),
                ("Admitted", 22, 0, 0, 0, 4562319118638487508),
                ("Token", 20, 0, 64, 0, 4562469966888150268),
                ("Token", 21, 0, 116, 0, 4562469966888150268),
                ("Token", 20, 1, 64, 0, 4562620815137813028),
                ("Token", 21, 1, 116, 0, 4562620815137813028),
                ("Token", 22, 0, 125, 0, 4562620815137813028),
                ("Token", 20, 2, 40, 0, 4562771663387475788),
                ("Token", 21, 2, 62, 0, 4562771663387475788),
                ("Token", 22, 1, 107, 0, 4562771663387475788),
                ("Token", 20, 3, 40, 0, 4562922511637138548),
                ("Token", 21, 3, 62, 0, 4562922511637138548),
                ("Token", 22, 2, 98, 0, 4562922511637138548),
                ("Finished", 20, 0, 0, 0, 4562922511637138548),
                ("Token", 21, 4, 62, 0, 4563073359886801308),
                ("Token", 22, 3, 26, 0, 4563073359886801308),
                ("Finished", 21, 0, 0, 0, 4563073359886801308),
                ("Token", 22, 4, 26, 0, 4563224208136464068),
                ("Token", 22, 5, 26, 0, 4563375056386126828),
                ("Finished", 22, 0, 0, 0, 4563375056386126828),
            ]
        );
    }
}
