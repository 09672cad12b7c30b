//! Online serving frontend: admission, incremental scheduling, streaming.
//!
//! [`OnlineServer`] is the event-driven counterpart of the offline
//! [`BatchedDataflowExecutor::execute_plan`] replay: requests arrive
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
//! or ambient RNG exists anywhere on the path — the `hnlpu-analyze`
//! determinism gate audits this module. The round policy is the
//! stepper's, and the slots, prefix cache and execution of a round are the
//! [`crate::batch`] slot pool's, both shared with the offline replay: an
//! online run yields the streams and [`RoundPlan`]s of planning the trace
//! up front, and `tests/tests/online_differential.rs` pins what is still
//! written twice — admission by arrival and the clock's f64 operations.
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
//! ([`DegradedLayout::effective_slots`]), evicted sequences park their
//! slots and re-admit with bounded exponential backoff (re-prefilling
//! `prompt ++ emitted` token-exactly — see
//! [`BatchedDataflowExecutor::recover_slot`]), queued requests are shed
//! before admitted ones when the backlog overflows, and expired deadlines
//! retire sequences with typed [`ServeError::Deadline`] outcomes.
//! Stragglers and link faults stretch round time
//! ([`hnlpu_sim::fabric::retry_round_factor`]); latencies sampled in
//! degraded rounds land in separate [`SloReport`] percentile rows. An
//! empty plan leaves every arithmetic operation of the loop bit-identical
//! to a fault-free server — the differential harnesses still hold.
//!
//! Extended lifecycle: `Recovering` (evicted, awaiting re-admission) is
//! live; `DeadlineMissed`, `Shed`, and `ChipLost` are terminal.

use crate::batch::{BatchedDataflowExecutor, RecoveryStats, SeqSlot, SequenceRequest, SlotPool};
use crate::dataflow::{CommCounters, DegradedLayout, GridHealth};
use crate::fault::{ChipFailure, FaultError, FaultPlan};
use crate::kv_cache::{PrefixCache, PrefixStats};
use hnlpu_sim::fabric::retry_round_factor;
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
    comm: CommCounters,
    /// Times this sequence's KV slot was released — exactly once per
    /// admission (`slot_frees == admissions` always holds at the end), 0
    /// for queue-only lifetimes.
    slot_frees: u32,
    /// Times this sequence took a KV slot (initial admission plus each
    /// post-eviction recovery).
    admissions: u32,
    /// Completion deadline in virtual microseconds, from the fault plan.
    deadline: Option<u64>,
    /// Recovery re-admission attempts since the last eviction.
    retries: u32,
    /// Earliest virtual time the next recovery attempt may run.
    retry_at_s: f64,
    /// True once a chip failure ever evicted this sequence: its latency
    /// samples land in the degraded SLO rows from then on.
    recovered: bool,
    /// The chip whose failure last evicted this sequence.
    evicted_by: Option<usize>,
    /// The evicted slot, parked between eviction and re-admission (keeps
    /// emitted tokens, sampler state, and warm buffers).
    parked: Option<SeqSlot>,
    /// The typed fault outcome for retired-by-fault sequences.
    error: Option<ServeError>,
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
    /// Collective-communication counters accumulated while resident.
    pub comm: CommCounters,
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
    pub ttft_mean_s: f64,
    /// Median inter-token gap (time per output token), seconds.
    pub tpot_p50_s: f64,
    /// 99th-percentile inter-token gap, seconds.
    pub tpot_p99_s: f64,
    /// Mean inter-token gap, seconds.
    pub tpot_mean_s: f64,
    /// Median TTFT over degraded-mode samples (degraded round, or the
    /// sequence was ever evicted). `0.0` when no degraded sample exists.
    pub ttft_degraded_p50_s: f64,
    /// 99th-percentile degraded-mode TTFT, seconds.
    pub ttft_degraded_p99_s: f64,
    /// Median degraded-mode inter-token gap, seconds.
    pub tpot_degraded_p50_s: f64,
    /// 99th-percentile degraded-mode inter-token gap, seconds.
    pub tpot_degraded_p99_s: f64,
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
    last_arrival_micros: u64,
    /// Admission queue, FCFS.
    waiting: VecDeque<SeqId>,
    seqs: Vec<SeqRecord>,
    events: VecDeque<ServeEvent>,
    /// Every round executed so far; the round and token totals are sums
    /// over it.
    plans: Vec<RoundPlan>,
    rejected: usize,
    /// Healthy-mode latency samples.
    ttfts: Vec<f64>,
    gaps: Vec<f64>,
    /// Degraded-mode latency samples (degraded round or evicted-ever).
    ttfts_degraded: Vec<f64>,
    gaps_degraded: Vec<f64>,
    /// The injected fault schedule (validated at construction).
    faults: FaultPlan,
    /// Chip failures sorted by time; `next_failure` indexes the first
    /// not-yet-applied entry.
    pending_failures: Vec<ChipFailure>,
    next_failure: usize,
    /// Survivor set of the 4×4 grid.
    health: GridHealth,
    /// Row-partition hosting for the current survivor set.
    layout: DegradedLayout,
    /// Evicted sequences awaiting re-admission, FCFS.
    recovering: VecDeque<SeqId>,
    recovery: RecoveryStats,
    shed: usize,
    chip_failures_applied: usize,
    degraded_rounds: u64,
    link_retry_rounds: u64,
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
        faults
            .validate()
            .map_err(|error| ServeError::InvalidFaultPlan { error })?;
        let slots = scheduler.slots();
        if slots > engine.max_slots() {
            return Err(ServeError::SlotsExceedCapacity {
                scheduled: slots,
                capacity: engine.max_slots(),
            });
        }
        let pending_failures = faults.failures_sorted();
        let health = GridHealth::full();
        // A full grid always has survivors.
        let layout =
            DegradedLayout::for_health(&health).map_err(|_| ServeError::InvalidFaultPlan {
                error: FaultError::NoSurvivors,
            })?;
        Ok(OnlineServer {
            round_s: scheduler.round_s(),
            stepper: RoundStepper::new(slots),
            pool: SlotPool::new(engine.prefix_config().map(PrefixCache::new)),
            queue_capacity,
            engine,
            now_s: 0.0,
            last_arrival_micros: 0,
            waiting: VecDeque::new(),
            seqs: Vec::new(),
            events: VecDeque::new(),
            plans: Vec::new(),
            rejected: 0,
            ttfts: Vec::new(),
            gaps: Vec::new(),
            ttfts_degraded: Vec::new(),
            gaps_degraded: Vec::new(),
            faults,
            pending_failures,
            next_failure: 0,
            health,
            layout,
            recovering: VecDeque::new(),
            recovery: RecoveryStats::default(),
            shed: 0,
            chip_failures_applied: 0,
            degraded_rounds: 0,
            link_retry_rounds: 0,
            submit_attempts: 0,
        })
    }

    /// Recovery re-admission attempts before an evicted sequence is
    /// abandoned as [`SeqState::ChipLost`]. Backoff is exponential in
    /// round time, so the last attempt waits `2^6 = 64` rounds.
    pub const MAX_RECOVERY_RETRIES: u32 = 6;

    /// The survivor set of the 4×4 chip grid.
    pub fn grid_health(&self) -> GridHealth {
        self.health
    }

    /// The row-partition hosting for the current survivor set.
    pub fn degraded_layout(&self) -> &DegradedLayout {
        &self.layout
    }

    /// Concurrent-sequence capacity under the current survivor set.
    pub fn effective_slots(&self) -> usize {
        self.stepper.slots()
    }

    /// The injected fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Current virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Requests waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Sequences currently holding a KV slot.
    pub fn resident(&self) -> usize {
        self.stepper.seqs().count()
    }

    /// Evicted sequences awaiting recovery re-admission.
    pub fn recovering(&self) -> usize {
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
        self.submit_attempts += 1;
        if request.prompt.is_empty() {
            return Err(ServeError::EmptyPrompt);
        }
        let vocab = self.engine.executor().config().vocab_size;
        if let Some(token) = request.out_of_vocabulary(vocab) {
            return Err(ServeError::TokenOutOfVocabulary { token, vocab });
        }
        if request.arrival_s_micros < self.last_arrival_micros {
            return Err(ServeError::ArrivalOutOfOrder {
                last_micros: self.last_arrival_micros,
                arrival_micros: request.arrival_s_micros,
            });
        }
        if self.waiting.len() >= self.queue_capacity {
            self.rejected += 1;
            return Err(ServeError::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        self.last_arrival_micros = request.arrival_s_micros;
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
            comm: CommCounters::default(),
            slot_frees: 0,
            admissions: 0,
            deadline: self.faults.deadline_of(attempt),
            retries: 0,
            retry_at_s: 0.0,
            recovered: false,
            evicted_by: None,
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
    pub fn cancel(&mut self, id: SeqId) -> Result<(), ServeError> {
        let Some(state) = self.state_of(id) else {
            return Err(ServeError::UnknownSequence { id });
        };
        match state {
            SeqState::Queued | SeqState::Prefilling | SeqState::Decoding | SeqState::Recovering => {
                self.retire(id, SeqState::Cancelled, None)
            }
            SeqState::Finished
            | SeqState::Cancelled
            | SeqState::DeadlineMissed
            | SeqState::Shed
            | SeqState::ChipLost => {
                return Err(ServeError::AlreadyRetired { id });
            }
        }
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
        let mut candidates: Vec<f64> = Vec::new();
        if let Some(r) = self.waiting.front().and_then(|id| self.seqs.get(id.0)) {
            candidates.push(r.arrival_s);
        }
        for r in self.recovering.iter().filter_map(|id| self.seqs.get(id.0)) {
            if r.state == SeqState::Recovering {
                candidates.push(r.retry_at_s);
            }
        }
        if let Some(f) = self.pending_failures.get(self.next_failure) {
            candidates.push(micros_to_s(f.at_micros));
        }
        for r in &self.seqs {
            if matches!(r.state, SeqState::Queued | SeqState::Recovering) {
                if let Some(d) = r.deadline {
                    candidates.push(micros_to_s(d));
                }
            }
        }
        candidates
            .into_iter()
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
        let mut cancels: Vec<(u64, usize)> = cancels.to_vec();
        cancels.sort_by_key(|&(t, _)| t);
        let mut submissions: Vec<Result<SeqId, ServeError>> = Vec::with_capacity(requests.len());
        let mut ids: Vec<Option<SeqId>> = vec![None; requests.len()];
        let mut si = 0usize;
        let mut ci = 0usize;
        loop {
            let next_sub = requests.get(si).map(|r| r.arrival_s_micros);
            let next_cancel = cancels.get(ci).map(|&(t, _)| t);
            let (t_micros, is_submit) = match (next_sub, next_cancel) {
                (Some(s), Some(c)) if s <= c => (s, true),
                (Some(s), None) => (s, true),
                (None, Some(c)) | (Some(_), Some(c)) => (c, false),
                (None, None) => break,
            };
            self.drive(Some(micros_to_s(t_micros)));
            if is_submit {
                if let Some(req) = requests.get(si) {
                    let res = self.submit(req.clone());
                    if let (Ok(id), Some(entry)) = (&res, ids.get_mut(si)) {
                        *entry = Some(*id);
                    }
                    submissions.push(res);
                }
                si += 1;
            } else {
                if let Some(&(_, target)) = cancels.get(ci) {
                    if let Some(&Some(id)) = ids.get(target) {
                        // Already-retired sequences make this a no-op.
                        let _ = self.cancel(id);
                    }
                }
                ci += 1;
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
        while let Some(&f) = self.pending_failures.get(self.next_failure) {
            if micros_to_s(f.at_micros) > self.now_s {
                break;
            }
            self.next_failure += 1;
            if !self.health.fail(f.chip) {
                // Already dead (validation forbids duplicates, but a
                // stale plan must not corrupt accounting).
                continue;
            }
            self.chip_failures_applied += 1;
            if let Ok(layout) = DegradedLayout::for_health(&self.health) {
                self.stepper
                    .set_slots(layout.effective_slots(self.stepper.capacity()));
                self.layout = layout;
            }
            self.events.push_back(ServeEvent::ChipFailed {
                chip: f.chip,
                t_s: self.now_s,
            });
            self.evict_all_resident(f.chip);
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

    /// Free `id`'s KV slot, if it holds one: its row leaves the stepper,
    /// the pool drops its page references, its record takes the counters.
    /// Finish, cancel, deadline and eviction all leave residency here, so
    /// `slot_frees == admissions` is this function's property.
    fn release_slot(&mut self, id: SeqId) -> Option<SeqSlot> {
        self.stepper.remove(id.0);
        let gone = self.pool.vacate(id.0)?;
        if let Some(rec) = self.seqs.get_mut(id.0) {
            // `+=`: a recovered sequence's pre-eviction counters were
            // harvested at eviction time.
            rec.comm += gone.state.comm;
            rec.slot_frees += 1;
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
            let (Some(carcass), Some(rec)) = (self.release_slot(id), self.seqs.get_mut(id.0))
            else {
                continue;
            };
            self.recovery.evictions += 1;
            rec.state = SeqState::Recovering;
            rec.recovered = true;
            rec.evicted_by = Some(chip);
            rec.retries = 0;
            rec.retry_at_s = self.now_s;
            rec.parked = Some(carcass);
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
        while self.waiting.len() + self.recovering.len() > self.queue_capacity {
            let Some(id) = self.waiting.pop_back() else {
                break;
            };
            self.retire(id, SeqState::Shed, Some(ServeError::Shed { id }));
            self.shed += 1;
            self.events.push_back(ServeEvent::Shed {
                id,
                t_s: self.now_s,
            });
        }
    }

    /// Retire every live sequence whose deadline the clock stands
    /// strictly past. No-op (and no arithmetic) for plans without
    /// deadlines.
    fn enforce_deadlines(&mut self) {
        if self.faults.deadlines.is_empty() {
            return;
        }
        let expired: Vec<SeqId> = self
            .seqs
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(
                    r.state,
                    SeqState::Queued
                        | SeqState::Recovering
                        | SeqState::Prefilling
                        | SeqState::Decoding
                ) && r.deadline.is_some_and(|d| self.now_s > micros_to_s(d))
            })
            .map(|(i, _)| SeqId(i))
            .collect();
        for id in expired {
            self.miss_deadline(id);
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

    /// Retire one sequence whose deadline expired, with the typed outcome.
    fn miss_deadline(&mut self, id: SeqId) {
        let Some(deadline_micros) = self.seqs.get(id.0).and_then(|r| r.deadline) else {
            return;
        };
        let error = ServeError::Deadline {
            id,
            deadline_micros,
        };
        self.retire(id, SeqState::DeadlineMissed, Some(error));
        self.events.push_back(ServeEvent::DeadlineMissed {
            id,
            t_s: self.now_s,
        });
    }

    /// Re-admit evicted sequences, FCFS with exponential backoff:
    /// admitted work outranks queued work for the survivors' shrunken
    /// capacity. A due sequence with a free slot re-prefills
    /// `prompt ++ emitted` into a fresh slot
    /// ([`BatchedDataflowExecutor::recover_slot`] — token-exact); one
    /// out of retries is abandoned as [`SeqState::ChipLost`].
    fn admit_recovering(&mut self) {
        let queue = std::mem::take(&mut self.recovering);
        for id in queue {
            let Some(rec) = self.seqs.get_mut(id.0) else {
                continue;
            };
            if rec.state != SeqState::Recovering {
                // Cancelled or retired while parked; already accounted.
                continue;
            }
            if rec.retry_at_s > self.now_s {
                self.recovering.push_back(id);
                continue;
            }
            let admit = |c: &mut SeqSlot| self.stepper.admit(id.0, c.resume_row(&rec.request));
            if let Some(carcass) = rec.parked.take_if(admit) {
                let slot = self.engine.recover_slot(carcass, &rec.request);
                self.recovery.resumed += 1;
                // cast: prompt lengths are usize token counts, value-preserving in u64
                let re_prefill = slot.prompt.len() as u64;
                self.recovery.re_prefill_tokens =
                    self.recovery.re_prefill_tokens.saturating_add(re_prefill);
                self.pool.place(slot);
                rec.state = SeqState::Prefilling;
                rec.admissions += 1;
                self.events.push_back(ServeEvent::Recovered {
                    id,
                    t_s: self.now_s,
                });
            } else if rec.retries >= Self::MAX_RECOVERY_RETRIES {
                let chip = rec.evicted_by.unwrap_or(0);
                self.retire(
                    id,
                    SeqState::ChipLost,
                    Some(ServeError::ChipLost { id, chip }),
                );
                self.recovery.failed += 1;
                self.events.push_back(ServeEvent::ChipLost {
                    id,
                    t_s: self.now_s,
                });
            } else {
                rec.retries += 1;
                // Exponential backoff in round time: 2, 4, … 64 rounds.
                rec.retry_at_s = self.now_s + self.round_s * retry_round_factor(rec.retries);
                self.recovering.push_back(id);
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
            rec.admissions += 1;
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
        // compute `round_s * 1.0 * 1.0`, exact in IEEE f64, so the clock
        // stays bit-identical to a server without the fault machinery.
        let health = self.health;
        let slowdown = self
            .faults
            .slowdown_at(self.now_s, |chip| health.is_alive(chip));
        let link_retries = self.faults.link_retries_at(self.now_s);
        let stretch = slowdown * retry_round_factor(link_retries);
        let degraded_round = self.health.is_degraded() || stretch > 1.0;
        if degraded_round {
            self.degraded_rounds = self.degraded_rounds.saturating_add(1);
        }
        if link_retries > 0 {
            self.link_retry_rounds = self.link_retry_rounds.saturating_add(1);
        }
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
            let Some(&token) = slot.out.last() else {
                continue;
            };
            // (A prompt completed owing no tokens is retired below.)
            rec.state = SeqState::Decoding;
            rec.tokens.push(token);
            // Samples from degraded rounds — or from sequences ever
            // evicted — land in the degraded SLO rows, keeping healthy
            // percentiles honest under chaos.
            let degraded_sample = degraded_round || rec.recovered;
            if rec.first_token_s.is_none() {
                rec.first_token_s = Some(now);
                if degraded_sample {
                    self.ttfts_degraded.push(now - rec.arrival_s);
                } else {
                    self.ttfts.push(now - rec.arrival_s);
                }
            }
            if let Some(prev) = rec.prev_token_s {
                if degraded_sample {
                    self.gaps_degraded.push(now - prev);
                } else {
                    self.gaps.push(now - prev);
                }
            }
            rec.prev_token_s = Some(now);
            self.events.push_back(ServeEvent::Token {
                id: SeqId(seq),
                index: slot.out.len() - 1,
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
    pub fn slo_report(&self) -> SloReport {
        let mut ttfts = self.ttfts.clone();
        ttfts.sort_by(f64::total_cmp);
        let mut gaps = self.gaps.clone();
        gaps.sort_by(f64::total_cmp);
        let mut ttfts_degraded = self.ttfts_degraded.clone();
        ttfts_degraded.sort_by(f64::total_cmp);
        let mut gaps_degraded = self.gaps_degraded.clone();
        gaps_degraded.sort_by(f64::total_cmp);
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                // cast: sample counts are small usize values, exact in f64
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let count = |s: SeqState| self.seqs.iter().filter(|r| r.state == s).count();
        let prefills = self.plans.iter().flat_map(|plan| &plan.prefill);
        // cast: a round decodes at most `slots` sequences, value-preserving in u64
        let decoded_tokens: u64 = self.plans.iter().map(|p| p.decode.len() as u64).sum();
        SloReport {
            submitted: self.seqs.len(),
            completed: count(SeqState::Finished),
            cancelled: count(SeqState::Cancelled),
            shed: count(SeqState::Shed),
            deadline_missed: count(SeqState::DeadlineMissed),
            chip_lost: count(SeqState::ChipLost),
            chip_failures: self.chip_failures_applied,
            recovery: self.recovery,
            degraded_rounds: self.degraded_rounds,
            link_retry_rounds: self.link_retry_rounds,
            rejected: self.rejected,
            // cast: round counts are usize, value-preserving in u64
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
            decode_tokens_per_s_virtual: if self.now_s > 0.0 {
                // cast: decoded-token counts stay far below 2^53, exact in f64
                decoded_tokens as f64 / self.now_s
            } else {
                0.0
            },
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
    pub fn report(&self) -> ServeReport {
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
                comm: r.comm,
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

/// Nearest-rank percentile over an ascending-sorted slice (0.0 for an
/// empty sample, matching an idle server's report).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // cast: sample counts are small (exact in f64) and the rounded rank is clamped by get()
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
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

    use crate::fault::{Deadline, LinkFault, Straggler};

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
        assert!(!chaos.degraded_layout().is_identity());
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
        // fewer than 20 long sequences, so some recoveries starve through
        // the whole ~126-round backoff ladder and exhaust their retries.
        let requests: Vec<SequenceRequest> = (0..20)
            .map(|i| SequenceRequest::greedy(0, vec![1 + i as u32], 400))
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
}
