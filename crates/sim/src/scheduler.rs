//! Continuous batching over the pipeline slots (§5.2).
//!
//! HNLPU implements continuous batching in hardware: up to 216 sequences
//! occupy the 6 × 36 pipeline slots; finished sequences release their slot
//! immediately to queued requests. This is a discrete-time simulation at
//! token granularity: every "pipeline round" (one full traversal of the
//! pipeline) offers 216 token slots. Decoding sequences take one slot each
//! (autoregressive dependency); the remaining slots prefill queued prompt
//! tokens in parallel — prompt tokens have no mutual dependencies (§5.2),
//! so a single sequence can soak up every free slot of a round.
//!
//! The policy is written once, in [`RoundStepper::step`], and driven by
//! [`BatchScheduler::plan_with_prefixes`] over a whole trace and by
//! `hnlpu-llm`'s online server as requests arrive.

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

use crate::config::SimConfig;
use crate::pipeline::advance_interval_cycles;
use std::collections::VecDeque;

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time in microseconds (integral, so arrival order is exact).
    pub arrival_s_micros: u64,
    /// Prompt tokens (prefilled in parallel).
    pub prompt_tokens: u32,
    /// Tokens to decode.
    pub decode_tokens: u32,
}

impl Request {
    /// Build a request; arrival is given in microseconds for exactness.
    pub fn new(arrival_s_micros: u64, prompt_tokens: u32, decode_tokens: u32) -> Self {
        Request {
            arrival_s_micros,
            prompt_tokens,
            decode_tokens,
        }
    }
}

/// Per-request completion record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The request.
    pub request: Request,
    /// Time the request finished, seconds.
    pub finish_s: f64,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerReport {
    /// All completions, in finish order.
    pub completions: Vec<Completion>,
    /// Total decoded tokens.
    pub decoded_tokens: u64,
    /// Total prefilled prompt tokens.
    pub prefill_tokens: u64,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Aggregate decode throughput, tokens/s.
    pub throughput_tokens_per_s: f64,
    /// Mean token-slot occupancy (0..=1), counting both decode and prefill
    /// slots.
    pub mean_occupancy: f64,
}

/// One pipeline round's slot assignment.
///
/// Sequence ids index the *input order* of the request slice handed to
/// [`BatchScheduler::plan`], so a functional engine holding the real
/// token streams can replay exactly the schedule the timing model priced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundPlan {
    /// Sequences emitting one decode token this round (autoregressive), in
    /// admission order. A sequence whose prefill completes this round
    /// chains straight into its first decode, so it may appear in both
    /// lists.
    pub decode: Vec<usize>,
    /// `(sequence id, prompt tokens prefilled this round)` pairs, FCFS in
    /// admission order. Counts are nonzero.
    pub prefill: Vec<(usize, u32)>,
}

impl RoundPlan {
    /// Token slots consumed this round (decode + prefill).
    pub fn used_slots(&self) -> u64 {
        let prefill: u64 = self.prefill.iter().map(|&(_, n)| u64::from(n)).sum();
        prefill.saturating_add(self.decode.len() as u64)
    }
}

/// The continuous-batching simulator.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    cfg: SimConfig,
    /// Average context assumed for interval computation.
    pub nominal_context: u64,
}

/// Virtual-time µs → seconds (arrivals, deadlines, fault timestamps): the
/// one conversion the scheduler and the serving stack share, so the
/// clocks they compare are the same `f64`s.
#[expect(
    clippy::cast_precision_loss,
    reason = "virtual timestamps are bounded by the run horizon (< 2^53 µs), value-preserving in f64"
)]
pub fn micros_to_s(micros: u64) -> f64 {
    micros as f64 / 1e6
}

impl BatchScheduler {
    /// A scheduler over `cfg` assuming `nominal_context` for pipeline
    /// timing.
    pub fn new(cfg: SimConfig, nominal_context: u64) -> Self {
        BatchScheduler {
            cfg,
            nominal_context,
        }
    }

    /// Concurrent-sequence capacity: the machine's pipeline slots.
    pub fn slots(&self) -> usize {
        usize::try_from(self.cfg.pipeline_slots()).unwrap_or(usize::MAX)
    }

    /// Virtual-time length of one pipeline round, seconds: every slot
    /// advances one token, so a round costs `pipeline_slots()` advance
    /// intervals at this scheduler's nominal context.
    ///
    /// The online serving frontend (`hnlpu-llm::serve`) advances its
    /// virtual clock by exactly this amount per round so its finish times
    /// reproduce [`plan`](Self::plan)'s bit for bit.
    pub fn round_s(&self) -> f64 {
        let slots = f64::from(self.cfg.pipeline_slots());
        slots * advance_interval_cycles(&self.cfg, self.nominal_context) / self.cfg.clock_hz
    }

    /// Simulate `requests` (any order; sorted internally by arrival).
    ///
    /// Each round offers `pipeline_slots()` token slots: one per decoding
    /// sequence (autoregressive), with the remainder shared first come,
    /// first served by prefilling sequences (prompt tokens are mutually
    /// independent).
    pub fn run(&self, requests: &[Request]) -> SchedulerReport {
        self.plan(requests).0
    }

    /// As [`run`](Self::run), but also return the per-round slot
    /// assignments so a functional engine can execute the same schedule.
    pub fn plan(&self, requests: &[Request]) -> (SchedulerReport, Vec<RoundPlan>) {
        self.plan_with_prefixes(requests, &mut NoPrefix)
    }

    /// As [`plan`](Self::plan), but admissions consult a [`PrefixOracle`]
    /// so the schedule charges only the *unmatched suffix* of each
    /// prompt: tokens served from a shared prefix cache never occupy a
    /// prefill slot. The oracle's commit hook fires, in admission order,
    /// for every sequence the round finishes prefilling, and then hears
    /// the round's whole plan — so an oracle that executes rounds (the
    /// engine's offline driver) runs each one before the next round's
    /// consults, and admissions only see commits from strictly earlier
    /// rounds.
    pub fn plan_with_prefixes(
        &self,
        requests: &[Request],
        oracle: &mut dyn PrefixOracle,
    ) -> (SchedulerReport, Vec<RoundPlan>) {
        let mut queue: Vec<(usize, Request)> = requests.iter().copied().enumerate().collect();
        // Stable: equal arrivals keep input order.
        queue.sort_by_key(|(_, r)| r.arrival_s_micros);
        let mut queue: VecDeque<(usize, Request)> = queue.into();

        let round_s = self.round_s();
        let mut stepper = RoundStepper::new(self.slots());
        let mut completions = Vec::new();
        let mut plans: Vec<RoundPlan> = Vec::new();
        let mut occupancy_sum = 0.0;
        let mut now = 0.0f64;

        while !queue.is_empty() || !stepper.is_empty() {
            // Admit arrivals into free sequence slots.
            while let Some(&(seq, req)) = queue.front() {
                if micros_to_s(req.arrival_s_micros) > now || !stepper.admit(seq, req) {
                    break;
                }
                queue.pop_front();
            }
            if stepper.is_empty() {
                // Idle until the next arrival.
                if let Some((_, r)) = queue.front() {
                    now = now.max(micros_to_s(r.arrival_s_micros));
                }
                continue;
            }
            now += round_s;
            // Occupancy: decode slots claimed at round start plus prefill
            // tokens (a chained first decode rides its prefill slot).
            let claimed = stepper.decoding();
            let (plan, finished) = stepper.step(oracle);
            oracle.on_round(&plan);
            let prefill: u64 = plan.prefill.iter().map(|&(_, n)| u64::from(n)).sum();
            #[expect(
                clippy::cast_precision_loss,
                reason = "all three counts are at most a few hundred, exact in f64"
            )]
            let occupancy = (claimed as f64 + prefill as f64) / stepper.slots() as f64;
            occupancy_sum += occupancy;
            for req in finished.into_iter().filter_map(|seq| requests.get(seq)) {
                let arrival_s = micros_to_s(req.arrival_s_micros);
                completions.push(Completion {
                    request: *req,
                    finish_s: now,
                    latency_s: now - arrival_s,
                });
            }
            plans.push(plan);
        }

        let prefills = plans.iter().flat_map(|plan| &plan.prefill);
        let decoded: u64 = plans.iter().map(|plan| plan.decode.len() as u64).sum();
        #[expect(
            clippy::cast_precision_loss,
            reason = "decoded-token totals and round counts stay far below 2^53, exact in f64"
        )]
        let report = SchedulerReport {
            decoded_tokens: decoded,
            prefill_tokens: prefills.map(|&(_, n)| u64::from(n)).sum(),
            makespan_s: now,
            throughput_tokens_per_s: if now > 0.0 { decoded as f64 / now } else { 0.0 },
            mean_occupancy: if plans.is_empty() {
                0.0
            } else {
                occupancy_sum / plans.len() as f64
            },
            completions,
        };
        (report, plans)
    }
}

/// One resident sequence's token counts.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The caller's id: input index offline, `SeqId` online.
    seq: usize,
    req: Request,
    remaining_prefill: u32,
    remaining_decode: u32,
    /// Whether the prefix oracle was asked yet — lazily, in the first
    /// round the sequence receives prefill slots.
    consulted: bool,
}

impl Row {
    fn decoding(&self) -> bool {
        self.remaining_prefill == 0 && self.remaining_decode > 0
    }
}

/// The continuous-batching round policy (§5.2), one round at a time, over
/// the resident sequences' token counts in admission order.
///
/// Each [`step`](Self::step) is one pipeline round: every sequence whose
/// prompt is consumed takes a decode slot; the slots left over prefill
/// the others first come, first served, `min(remaining, budget)` each; a
/// completed prompt chains straight into its first decode; a sequence
/// that owes nothing more leaves. [`BatchScheduler::plan_with_prefixes`]
/// and `hnlpu-llm`'s online server both drive this one implementation.
#[derive(Debug, Clone)]
pub struct RoundStepper {
    /// The machine's slot count, the ceiling of [`set_slots`](Self::set_slots).
    capacity: usize,
    slots: usize,
    rows: Vec<Row>,
}

impl RoundStepper {
    /// A stepper over a machine of `slots` pipeline slots (at least one).
    pub fn new(slots: usize) -> Self {
        let capacity = slots.max(1);
        RoundStepper {
            capacity,
            slots: capacity,
            rows: Vec::with_capacity(capacity),
        }
    }

    /// The machine's slot count, fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots in service: the residency bound and the per-round budget.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Serve with `slots` slots (clamped to `1..=capacity()`) from the
    /// next round on: what a degraded grid's survivors can host. Rows
    /// beyond a shrunken count stay until they finish or are removed.
    pub fn set_slots(&mut self, slots: usize) {
        self.slots = slots.clamp(1, self.capacity);
    }

    /// True when no sequence is resident.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resident sequence ids, in admission order.
    pub fn seqs(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().map(|r| r.seq)
    }

    /// Residents that claim a decode slot at the start of the next round.
    pub(crate) fn decoding(&self) -> usize {
        self.rows.iter().filter(|r| r.decoding()).count()
    }

    /// Make `seq` resident behind every earlier admission, owing `req`'s
    /// prompt and decode tokens; `false` (and no change) when full.
    pub fn admit(&mut self, seq: usize, req: Request) -> bool {
        if self.rows.len() >= self.slots {
            return false;
        }
        self.rows.push(Row {
            seq,
            req,
            remaining_prefill: req.prompt_tokens,
            remaining_decode: req.decode_tokens,
            consulted: false,
        });
        true
    }

    /// Drop `seq` (cancelled, expired, evicted), freeing its slot; `false`
    /// when it was not resident.
    pub fn remove(&mut self, seq: usize) -> bool {
        let before = self.rows.len();
        self.rows.retain(|r| r.seq != seq);
        self.rows.len() < before
    }

    /// Plan one pipeline round and advance every row by it. Returns the
    /// slot assignment and the sequences that finished (in admission
    /// order), which are no longer resident.
    ///
    /// `oracle` is consulted once per residency, the first round the
    /// sequence gets prefill budget, and hears of completed prompts only
    /// after the round's last consultation, so one round sees one tree.
    pub fn step(&mut self, oracle: &mut dyn PrefixOracle) -> (RoundPlan, Vec<usize>) {
        let mut plan = RoundPlan::default();
        // Decode slots are claimed at round start; `plan.decode` is
        // recorded after the prefill pass, which can chain into it.
        let mut budget =
            u32::try_from(self.slots.saturating_sub(self.decoding())).unwrap_or(u32::MAX);
        // First-come-first-served prefill: finish early arrivals' prompts
        // before starting later ones (minimizes makespan and matches
        // continuous-batching practice).
        let mut completed: Vec<(usize, Request)> = Vec::new();
        for r in self.rows.iter_mut().filter(|r| r.remaining_prefill > 0) {
            if budget == 0 {
                break;
            }
            if !r.consulted {
                // Charge only the unmatched suffix: a cache can serve at
                // most `prompt_tokens - 1` positions because the final
                // prompt token must run to produce the first decode's
                // logits. The clamp also guarantees a consulted sequence
                // prefills at least one token this round.
                r.consulted = true;
                let matched = oracle
                    .matched_on_admit(r.seq, &r.req)
                    .min(r.req.prompt_tokens.saturating_sub(1));
                r.remaining_prefill = r.remaining_prefill.saturating_sub(matched);
            }
            let take = r.remaining_prefill.min(budget);
            r.remaining_prefill = r.remaining_prefill.saturating_sub(take);
            budget = budget.saturating_sub(take);
            plan.prefill.push((r.seq, take));
            if r.remaining_prefill == 0 {
                completed.push((r.seq, r.req));
            }
        }
        for (seq, req) in &completed {
            oracle.on_prefill_complete(*seq, req);
        }
        let mut finished = Vec::new();
        self.rows.retain_mut(|r| {
            if r.decoding() {
                r.remaining_decode = r.remaining_decode.saturating_sub(1);
                plan.decode.push(r.seq);
            }
            let done = r.remaining_prefill == 0 && r.remaining_decode == 0;
            if done {
                finished.push(r.seq);
            }
            !done
        });
        (plan, finished)
    }
}

/// Admission-time prefix consultation for
/// [`plan_with_prefixes`](BatchScheduler::plan_with_prefixes).
///
/// The scheduler is a pure timing model: it knows token *counts*, not token
/// *ids*. An oracle holding the real prompts (`hnlpu-llm`'s engine, whose
/// shared prefix tree it consults) answers how many leading positions of
/// each admitted sequence are already resident in that tree, is told when
/// a sequence's prefill completes, and hears each round's plan once the
/// round is planned — where the engine runs it and commits the completed
/// prompts, so their blocks become matchable by strictly later rounds.
pub trait PrefixOracle {
    /// Leading prompt positions of `seq` served from cache. Called once
    /// per sequence, in the round it first receives prefill slots — the
    /// round the functional engine admits it into a KV slot and matches
    /// its prompt. The scheduler clamps the answer to `prompt_tokens - 1`:
    /// the final prompt token is always prefilled to produce the first
    /// decode's logits.
    fn matched_on_admit(&mut self, seq: usize, req: &Request) -> u32;

    /// `seq` finished prefilling this round; its prompt blocks are now
    /// committed and visible to later admissions (by default, ignored).
    fn on_prefill_complete(&mut self, _seq: usize, _req: &Request) {}

    /// [`plan_with_prefixes`](BatchScheduler::plan_with_prefixes) planned
    /// `plan`: called once per round, after that round's consults and
    /// commit hooks and before the next round's (by default, ignored).
    fn on_round(&mut self, _plan: &RoundPlan) {}
}

/// The null oracle: nothing matches, commits are ignored. [`plan`]
/// (BatchScheduler::plan) delegates through this, so dense scheduling is
/// the `NoPrefix` special case.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoPrefix;

impl PrefixOracle for NoPrefix {
    fn matched_on_admit(&mut self, _seq: usize, _req: &Request) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> BatchScheduler {
        BatchScheduler::new(SimConfig::paper_default(), 2048)
    }

    #[test]
    fn stepper_slots_bound_concurrency_not_round_time() {
        let full = scheduler();
        let mut capped = RoundStepper::new(full.slots());
        capped.set_slots(2);
        assert_eq!(capped.slots(), 2);
        // Round time is `BatchScheduler::round_s`, which has no slot count
        // to depend on; the machine size survives the cap.
        assert_eq!(capped.capacity(), full.slots());
        // Zero clamps to one slot; an over-machine count clamps to machine.
        capped.set_slots(0);
        assert_eq!(capped.slots(), 1);
        capped.set_slots(usize::MAX);
        assert_eq!(capped.slots(), full.slots());
        // With 2 slots, 3 concurrent arrivals serialize: never > 2 live.
        capped.set_slots(2);
        let mut waiting: VecDeque<usize> = (0..3).collect();
        let mut plans = Vec::new();
        while !waiting.is_empty() || !capped.is_empty() {
            while let Some(&seq) = waiting.front() {
                if !capped.admit(seq, Request::new(0, 1, 2)) {
                    break;
                }
                waiting.pop_front();
            }
            plans.push(capped.step(&mut NoPrefix).0);
        }
        assert_eq!(plans.len(), 4);
        for plan in &plans {
            let mut live: Vec<usize> = plan.decode.clone();
            for &(seq, _) in &plan.prefill {
                if !live.contains(&seq) {
                    live.push(seq);
                }
            }
            assert!(live.len() <= 2, "round exceeded the slot cap: {plan:?}");
        }
    }

    #[test]
    fn empty_workload() {
        let rep = scheduler().run(&[]);
        assert_eq!(rep.decoded_tokens, 0);
        assert_eq!(rep.completions.len(), 0);
    }

    #[test]
    fn single_request_latency() {
        let rep = scheduler().run(&[Request::new(0, 128, 100)]);
        assert_eq!(rep.completions.len(), 1);
        // 100 decode rounds + 1 prefill round at ~1.1k tokens/s/sequence.
        let lat = rep.completions[0].latency_s;
        assert!(lat > 0.05 && lat < 0.25, "latency = {lat}");
    }

    #[test]
    fn full_batch_reaches_system_throughput() {
        // 216 long-running sequences saturate the pipeline: aggregate
        // decode rate approaches the Table 2 figure.
        let reqs: Vec<Request> = (0..216).map(|_| Request::new(0, 64, 2000)).collect();
        let rep = scheduler().run(&reqs);
        // Decode-priority lets the tail of the prefill work starve briefly
        // (a real continuous-batching queueing effect), so occupancy sits
        // just below 1.
        assert!(
            rep.mean_occupancy > 0.85,
            "occupancy = {}",
            rep.mean_occupancy
        );
        assert!(
            rep.throughput_tokens_per_s > 200_000.0,
            "throughput = {:.0}",
            rep.throughput_tokens_per_s
        );
    }

    #[test]
    fn oversubscription_queues_requests() {
        let reqs: Vec<Request> = (0..400).map(|_| Request::new(0, 16, 50)).collect();
        let rep = scheduler().run(&reqs);
        assert_eq!(rep.completions.len(), 400);
        // Later completions belong to the second wave.
        let first = rep.completions.first().unwrap().finish_s;
        let last = rep.completions.last().unwrap().finish_s;
        assert!(last > first * 1.5);
    }

    #[test]
    fn arrivals_respected() {
        let rep = scheduler().run(&[
            Request::new(0, 16, 10),
            Request::new(5_000_000, 16, 10), // arrives at t = 5 s
        ]);
        assert_eq!(rep.completions.len(), 2);
        assert!(rep.completions[1].finish_s >= 5.0);
        // The second request's latency is small (machine was idle).
        assert!(rep.completions[1].latency_s < 0.1);
    }

    #[test]
    fn decoded_token_accounting() {
        let rep = scheduler().run(&[Request::new(0, 8, 25)]);
        // Exactly the 25 decode tokens and the 8 prompt tokens.
        assert_eq!(rep.decoded_tokens, 25);
        assert_eq!(rep.prefill_tokens, 8);
    }

    #[test]
    fn long_prompt_prefills_at_pipeline_width() {
        // A 2,160-token prompt = 10 full rounds of 216-wide prefill before
        // any decode token; short prompts prefill in one round.
        let long = scheduler().run(&[Request::new(0, 2160, 1)]);
        let short = scheduler().run(&[Request::new(0, 100, 1)]);
        // 10 rounds (decode chains onto the final prefill round) vs 1.
        let ratio = long.makespan_s / short.makespan_s;
        assert!((ratio - 10.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn plans_replay_the_run_report() {
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(i * 100_000, 32 + i as u32, 20))
            .collect();
        let s = scheduler();
        let (report, plans) = s.plan(&reqs);
        assert_eq!(report, s.run(&reqs));
        let decoded: u64 = plans.iter().map(|p| p.decode.len() as u64).sum();
        let prefilled: u64 = plans
            .iter()
            .flat_map(|p| p.prefill.iter())
            .map(|&(_, n)| n as u64)
            .sum();
        assert_eq!(decoded, report.decoded_tokens);
        assert_eq!(prefilled, report.prefill_tokens);
        assert!(plans.len() as u64 * s.slots() as u64 >= decoded + prefilled);
    }

    #[test]
    fn decode_chains_onto_final_prefill_round() {
        // Seed-locked semantics: the round that finishes a prompt also
        // emits the first decode token (see long_prompt_prefills_at
        // pipeline_width), and the plan records that chained decode.
        let (_, plans) = scheduler().plan(&[Request::new(0, 8, 2)]);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].prefill, vec![(0, 8)]);
        assert_eq!(plans[0].decode, vec![0]);
        assert_eq!(plans[1].decode, vec![0]);
        assert!(plans[1].prefill.is_empty());
    }

    #[test]
    fn round_s_times_rounds_is_the_makespan() {
        // With every arrival at t = 0 the clock never idle-jumps, so the
        // makespan is exactly the round count times the exposed round
        // length — the invariant the online serving loop builds on.
        let s = scheduler();
        let reqs: Vec<Request> = (0..40).map(|i| Request::new(0, 8 + i, 12)).collect();
        let (report, plans) = s.plan(&reqs);
        let expect = plans.len() as f64 * s.round_s();
        assert!((report.makespan_s - expect).abs() < 1e-12, "{expect}");
        assert!(s.round_s() > 0.0);
    }

    #[test]
    fn decode_has_priority_over_prefill() {
        // With 216 decoding sequences resident, a late-arriving giant
        // prompt must not stall decode: occupancy stays ~1 and decode
        // tokens keep flowing every round.
        let mut reqs: Vec<Request> = (0..216).map(|_| Request::new(0, 1, 300)).collect();
        reqs.push(Request::new(1, 50_000, 1));
        let rep = scheduler().run(&reqs);
        assert_eq!(rep.completions.len(), 217);
        assert_eq!(rep.decoded_tokens, 216 * 300 + 1);
    }

    fn build(specs: &[(u64, u32, u32)]) -> Vec<Request> {
        specs
            .iter()
            .map(|&(a, p, d)| Request::new(a, p, d))
            .collect()
    }

    /// Fixed per-sequence match counts plus a commit log, for checking the
    /// oracle plumbing without a real prefix tree.
    struct FixedOracle {
        matched: Vec<u32>,
        commits: Vec<usize>,
    }

    impl PrefixOracle for FixedOracle {
        fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
            self.matched.get(seq).copied().unwrap_or(0)
        }
        fn on_prefill_complete(&mut self, seq: usize, _req: &Request) {
            self.commits.push(seq);
        }
    }

    #[test]
    fn oracle_charges_only_the_unmatched_suffix() {
        let reqs = build(&[(0, 100, 5), (0, 100, 5), (0, 100, 5)]);
        let (dense, _) = scheduler().plan(&reqs);
        // Seq 1 matches 60 positions, seq 2 matches its whole prompt —
        // clamped to 99 so the final token still prefills.
        let mut oracle = FixedOracle {
            matched: vec![0, 60, 400],
            commits: Vec::new(),
        };
        let (rep, plans) = scheduler().plan_with_prefixes(&reqs, &mut oracle);
        assert_eq!(rep.prefill_tokens, dense.prefill_tokens - 60 - 99);
        assert_eq!(rep.decoded_tokens, dense.decoded_tokens);
        assert_eq!(rep.completions.len(), 3);
        // Every sequence committed exactly once, in admission order.
        assert_eq!(oracle.commits, vec![0, 1, 2]);
        // Per-sequence prefill totals equal the unmatched suffix.
        let mut per_seq = [0u64; 3];
        for plan in &plans {
            for &(seq, n) in &plan.prefill {
                per_seq[seq] += n as u64;
            }
        }
        assert_eq!(per_seq, [100, 40, 1]);
    }

    #[test]
    fn null_oracle_reproduces_dense_plan() {
        let reqs = build(&[(0, 37, 9), (5_000, 120, 3), (9_000, 4, 30)]);
        let (dense, dense_plans) = scheduler().plan(&reqs);
        let (rep, plans) = scheduler().plan_with_prefixes(&reqs, &mut NoPrefix);
        assert_eq!(rep, dense);
        assert_eq!(plans, dense_plans);
    }

    /// One round as `(decode, prefill)`.
    type Round<'a> = (&'a [usize], &'a [(usize, u32)]);

    fn assert_plans(plans: &[RoundPlan], expect: &[Round<'_>]) {
        let got: Vec<Round<'_>> = plans
            .iter()
            .map(|p| (p.decode.as_slice(), p.prefill.as_slice()))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn golden_round_log() {
        // Written out from the pre-stepper `plan_with_prefixes`: seq 0 is
        // resident and decoding when 1, 2 and 3 arrive; 1 and 2 then share
        // the 215-slot prefill budget (2 matching 60 positions through
        // the oracle), and 3 owes no decode at all.
        let reqs = build(&[(0, 4, 6), (1, 300, 2), (1, 200, 3), (1, 10, 0)]);
        let mut oracle = FixedOracle {
            matched: vec![0, 0, 60, 0],
            commits: Vec::new(),
        };
        let (rep, plans) = scheduler().plan_with_prefixes(&reqs, &mut oracle);
        assert_plans(
            &plans,
            &[
                (&[0], &[(0, 4)]),
                (&[0], &[(1, 215)]),
                (&[0, 1], &[(1, 85), (2, 130)]),
                (&[0, 1, 2], &[(2, 10), (3, 10)]),
                (&[0, 2], &[]),
                (&[0, 2], &[]),
            ],
        );
        assert_eq!(oracle.commits, vec![0, 1, 2, 3]);
        assert_eq!((rep.decoded_tokens, rep.prefill_tokens), (11, 454));
        assert_eq!(rep.mean_occupancy.to_bits(), 4600093419386563848);
        assert_eq!(rep.makespan_s.to_bits(), 4572759376265024718);
        let finished: Vec<(u32, u64)> = rep
            .completions
            .iter()
            .map(|c| (c.request.prompt_tokens, c.finish_s.to_bits()))
            .collect();
        assert_eq!(
            finished,
            vec![
                (300, 4570292228008101480),
                (10, 4570292228008101480),
                (4, 4572759376265024718),
                (200, 4572759376265024718),
            ]
        );
    }

    #[test]
    fn on_round_hears_each_round_after_its_consults() {
        // Every oracle call, in order: a round's plan arrives once, after
        // the consults and commit hooks of that round and before the next
        // round's — where an executing oracle runs it.
        #[derive(Debug, PartialEq)]
        enum Call {
            Admit(usize),
            Commit(usize),
            Round(RoundPlan),
        }
        struct Log(Vec<Call>);
        impl PrefixOracle for Log {
            fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
                self.0.push(Call::Admit(seq));
                0
            }
            fn on_prefill_complete(&mut self, seq: usize, _req: &Request) {
                self.0.push(Call::Commit(seq));
            }
            fn on_round(&mut self, plan: &RoundPlan) {
                self.0.push(Call::Round(plan.clone()));
            }
        }
        // `golden_round_log`'s trace: seqs 1 and 2 are consulted in
        // different rounds, and 1 commits in the round 2 is consulted.
        let reqs = build(&[(0, 4, 6), (1, 300, 2), (1, 200, 3), (1, 10, 0)]);
        let mut log = Log(Vec::new());
        let (_, plans) = scheduler().plan_with_prefixes(&reqs, &mut log);
        let round = |i: usize| Call::Round(plans[i].clone());
        use Call::{Admit, Commit};
        assert_eq!(
            log.0,
            vec![
                Admit(0),
                Commit(0),
                round(0),
                Admit(1),
                round(1),
                Admit(2),
                Commit(1),
                round(2),
                Admit(3),
                Commit(2),
                Commit(3),
                round(3),
                round(4),
                round(5),
            ]
        );
    }

    #[test]
    fn removed_mid_prefill_frees_its_slot_and_never_reappears() {
        let mut stepper = RoundStepper::new(2);
        assert!(stepper.admit(0, Request::new(0, 5, 3)));
        assert!(stepper.admit(1, Request::new(0, 1, 2)));
        assert!(!stepper.admit(2, Request::new(0, 1, 1)), "both slots taken");
        // Two slots: seq 0 prefills 2 of 5, seq 1 gets nothing yet.
        let (plan, finished) = stepper.step(&mut NoPrefix);
        assert_plans(&[plan], &[(&[], &[(0, 2)])]);
        assert!(finished.is_empty());
        assert!(stepper.remove(0));
        assert!(!stepper.remove(0), "already gone");
        assert!(stepper.admit(2, Request::new(0, 1, 1)), "slot is back");
        let mut log = Vec::new();
        while !stepper.is_empty() {
            log.push(stepper.step(&mut NoPrefix));
        }
        let plans: Vec<RoundPlan> = log.iter().map(|(p, _)| p.clone()).collect();
        assert_plans(&plans, &[(&[1, 2], &[(1, 1), (2, 1)]), (&[1], &[])]);
        assert_eq!(log[0].1, vec![2]);
        assert_eq!(log[1].1, vec![1]);
    }

    #[test]
    fn shrunken_slots_admit_nothing_until_the_rows_drain() {
        let mut stepper = RoundStepper::new(4);
        for seq in 0..4 {
            assert!(stepper.admit(seq, Request::new(0, 1, 2)));
        }
        stepper.step(&mut NoPrefix);
        assert_eq!(stepper.decoding(), 4);
        stepper.set_slots(2);
        assert_eq!(stepper.seqs().count(), 4);
        assert!(!stepper.admit(4, Request::new(0, 6, 1)));
        // The four residents still finish their last decode.
        let (plan, finished) = stepper.step(&mut NoPrefix);
        assert_plans(&[plan], &[(&[0, 1, 2, 3], &[])]);
        assert_eq!(finished, vec![0, 1, 2, 3]);
        // Drained: admission resumes, and the budget is the new count.
        assert!(stepper.admit(4, Request::new(0, 6, 1)));
        assert!(stepper.admit(5, Request::new(0, 6, 1)));
        assert!(!stepper.admit(6, Request::new(0, 6, 1)));
        let (plan, _) = stepper.step(&mut NoPrefix);
        assert_plans(&[plan], &[(&[], &[(4, 2)])]);
    }

    #[test]
    fn readmitted_row_is_consulted_again() {
        // An evicted sequence comes back with its prompt grown by what it
        // had emitted and only the decode remainder owed: a new residency,
        // so the oracle is asked again (and may now match).
        struct Asked(Vec<(usize, u32)>);
        impl PrefixOracle for Asked {
            fn matched_on_admit(&mut self, seq: usize, req: &Request) -> u32 {
                self.0.push((seq, req.prompt_tokens));
                req.prompt_tokens / 2
            }
        }
        let mut oracle = Asked(Vec::new());
        let mut stepper = RoundStepper::new(8);
        assert!(stepper.admit(7, Request::new(0, 6, 5)));
        let first = stepper.step(&mut oracle).0;
        let second = stepper.step(&mut oracle).0;
        assert_plans(&[first, second], &[(&[7], &[(7, 3)]), (&[7], &[])]);
        assert!(stepper.remove(7));
        assert!(stepper.admit(7, Request::new(0, 6 + 2, 5 - 2)));
        let resumed = stepper.step(&mut oracle).0;
        assert_plans(&[resumed], &[(&[7], &[(7, 4)])]);
        assert_eq!(oracle.0, vec![(7, 6), (7, 8)]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn scheduler() -> BatchScheduler {
        BatchScheduler::new(SimConfig::paper_default(), 2048)
    }

    /// Requests from (arrival micros, prompt, decode) triples.
    fn build(specs: &[(u64, u32, u32)]) -> Vec<Request> {
        specs
            .iter()
            .map(|&(a, p, d)| Request::new(a, p, d))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Token conservation: every prompt token is prefilled exactly
        /// once, every decode token decoded exactly once, and every
        /// request completes.
        #[test]
        fn tokens_are_conserved(
            specs in prop::collection::vec(
                (0u64..2_000_000, 0u32..600, 0u32..120),
                1..40,
            ),
        ) {
            let reqs = build(&specs);
            let rep = scheduler().run(&reqs);
            prop_assert_eq!(rep.completions.len(), reqs.len());
            let prompts: u64 = specs.iter().map(|s| s.1 as u64).sum();
            let decodes: u64 = specs.iter().map(|s| s.2 as u64).sum();
            prop_assert_eq!(rep.prefill_tokens, prompts);
            prop_assert_eq!(rep.decoded_tokens, decodes);
        }

        /// Slot occupancy never exceeds `pipeline_slots()`: per round, the
        /// budgeted token slots and the concurrently active sequences both
        /// stay within capacity, and mean occupancy is a true fraction.
        #[test]
        fn occupancy_never_exceeds_pipeline_slots(
            specs in prop::collection::vec(
                (0u64..1_000_000, 0u32..2_000, 0u32..80),
                1..60,
            ),
        ) {
            let s = scheduler();
            let slots = s.slots() as u64;
            let reqs = build(&specs);
            let (rep, plans) = s.plan(&reqs);
            prop_assert!(rep.mean_occupancy <= 1.0 + 1e-12);
            for plan in &plans {
                // A chained decode shares its sequence's round with the
                // prefill that completed it, so budgeted slots are the
                // prefill tokens plus the non-chained decodes.
                let chained = plan
                    .decode
                    .iter()
                    .filter(|seq| plan.prefill.iter().any(|(p, _)| p == *seq))
                    .count() as u64;
                let budgeted = plan.used_slots() - chained;
                prop_assert!(budgeted <= slots, "budgeted {budgeted} > {slots}");
                // Active sequences this round never exceed the machine's
                // concurrent-sequence capacity.
                let mut active: Vec<usize> = plan.decode.clone();
                active.extend(plan.prefill.iter().map(|&(seq, _)| seq));
                active.sort_unstable();
                active.dedup();
                prop_assert!(active.len() as u64 <= slots);
            }
        }

        /// Mean latency is monotone in arrival rate: spreading the same
        /// requests further apart (lower rate) never increases the mean
        /// latency produced by FCFS admission with decode priority.
        #[test]
        fn latency_monotone_in_arrival_rate(
            n in 2usize..40,
            gap_micros in 1_000u64..500_000,
            prompt in 1u32..400,
            decode in 1u32..80,
        ) {
            let fast: Vec<Request> = (0..n)
                .map(|i| Request::new(i as u64 * gap_micros, prompt, decode))
                .collect();
            let slow: Vec<Request> = (0..n)
                .map(|i| Request::new(i as u64 * gap_micros * 2, prompt, decode))
                .collect();
            let mean = |rep: &SchedulerReport| {
                rep.completions.iter().map(|c| c.latency_s).sum::<f64>()
                    / rep.completions.len() as f64
            };
            let s = scheduler();
            let fast_mean = mean(&s.run(&fast));
            let slow_mean = mean(&s.run(&slow));
            // Round-boundary alignment can move individual latencies by a
            // fraction of a round; allow that slack on the mean.
            prop_assert!(
                slow_mean <= fast_mean + 1e-9 + 2e-3,
                "halving the arrival rate raised mean latency: {slow_mean} > {fast_mean}"
            );
        }
    }
}
