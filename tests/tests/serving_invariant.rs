//! One serving invariant, checked over the product of the serving
//! dimensions.
//!
//! Every stream a run emits equals the single-sequence stream of its
//! request — `DataflowExecutor::generate_with_report` under the request's
//! own sampler — or, under faults or cancellation, is a prefix of it; and
//! every KV slot and shared page is released exactly once. [`check`] states
//! that invariant once, for every case in this file:
//!
//! * the product cases ([`Axes`]): engine (dense, or paged behind shared
//!   system prompts) × driver (offline `run_with_scheduler`, or online
//!   `OnlineServer::run_trace`) × sampler (greedy, or seeded multinomial) ×
//!   arrivals (all at zero, or staggered), and online only × faults (none,
//!   or a seeded `FaultPlan` of kills, stragglers, link faults and
//!   deadlines) × cancellations (none, or some) × queue (unbounded, or one
//!   or two places in front of a two-slot machine — on the 216-slot
//!   machine no trace this size ever waits, so a small queue alone would
//!   change nothing), with half the paged cases under a page budget small
//!   enough to evict;
//! * named shapes that keep their fixed inputs: a skewed round, a mixed
//!   prefill/decode round, a cancel mid-prefill, a deterministic chip
//!   death, a heavy chaos replay, an empty fault plan, a zero-capacity
//!   queue, a diurnal workload trace and a page budget tight enough to
//!   evict.
//!
//! Streams are bit-exact at every worker count (see `hnlpu-llm`'s
//! `rounds_are_bitwise_per_sequence_runs_at_every_worker_count`). Run with
//! `cargo test -p hnlpu-integration --test serving_invariant`.

use hnlpu::llm::fault::{ChaosSpec, ChipFailure, FaultPlan};
use hnlpu::llm::serve::SeqState::{self, Cancelled, ChipLost, DeadlineMissed, Finished, Shed};
use hnlpu::llm::serve::{OnlineServer, ServeError, TraceOutcome};
use hnlpu::llm::{
    BatchRunReport, BatchedDataflowExecutor, CommCounters, DataflowExecutor, PageBuf, PrefixCache,
    PrefixCacheConfig, Sampler, SequenceRequest,
};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::scheduler::{PrefixOracle, Request};
use hnlpu::sim::{
    BatchScheduler, RoundPlan, SchedulerReport, SimConfig, WorkloadKind, WorkloadSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// The per-sequence executor every engine wraps (weights are deterministic).
fn executor() -> &'static DataflowExecutor {
    static EXECUTOR: OnceLock<DataflowExecutor> = OnceLock::new();
    EXECUTOR.get_or_init(|| {
        let card = zoo::dataflow_test_model();
        let weights = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        DataflowExecutor::new(weights)
    })
}

/// The 216-slot batched engine: dense (`None`), or with paged prefix reuse
/// under a page budget (`usize::MAX` never evicts).
fn engine(page_budget: Option<usize>) -> BatchedDataflowExecutor {
    let dense = BatchedDataflowExecutor::new(executor().clone(), 216);
    match page_budget {
        None => dense,
        Some(page_budget) => dense.with_prefix_cache(PrefixCacheConfig {
            page_budget,
            ..PrefixCacheConfig::default()
        }),
    }
}

/// The paper's 216-slot machine, or a two-slot one (one layer of two
/// stages) on which a handful of requests queue.
fn scheduler(small: bool) -> BatchScheduler {
    let paper = SimConfig::paper_default();
    let cfg = if small {
        SimConfig {
            num_layers: 1,
            stages_per_layer: 2,
            ..paper
        }
    } else {
        paper
    };
    BatchScheduler::new(cfg, 2048)
}

/// The single-sequence stream and counters of `r`, computed once per
/// (prompt, budget, sampler) for the whole file.
fn solo(r: &SequenceRequest) -> (Vec<u32>, CommCounters) {
    type Streams = Mutex<BTreeMap<String, (Vec<u32>, CommCounters)>>;
    static SOLO: OnceLock<Streams> = OnceLock::new();
    let streams = SOLO.get_or_init(Streams::default);
    let key = format!("{:?}", (&r.prompt, r.decode_tokens, &r.sampler));
    if let Some(hit) = streams.lock().expect("no solo run panicked").get(&key) {
        return hit.clone();
    }
    let budget = r.decode_tokens as usize;
    let run = executor().generate_with_report(&r.prompt, budget, &mut r.sampler.clone());
    streams
        .lock()
        .expect("no solo run panicked")
        .insert(key, run.clone());
    run
}

/// System prompt `k` of `len` tokens: `len / 16` full shareable blocks.
fn system_prompt(k: u32, len: u32) -> Vec<u32> {
    (0..len).map(|i| (i * 13 + k * 31 + 2) % 120).collect()
}

/// The harness's own planning oracle: it mirrors the engine's match/commit
/// schedule on a tree of placeholder pages through the public cache API,
/// so the offline round log is rebuilt independently of the engine's own
/// planner.
struct HarnessOracle<'a> {
    requests: &'a [SequenceRequest],
    cache: PrefixCache,
}

impl PrefixOracle for HarnessOracle<'_> {
    fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
        match self.requests.get(seq) {
            Some(r) => self.cache.match_prompt(&r.prompt).matched as u32,
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
        self.cache.release_grant(&mut grant);
    }
}

/// The offline planner's timing and round log for `requests`: `plan` when
/// dense, `plan_with_prefixes` through [`HarnessOracle`] when paged.
fn offline_plan(
    requests: &[SequenceRequest],
    paged: bool,
    scheduler: &BatchScheduler,
) -> (SchedulerReport, Vec<RoundPlan>) {
    let sim: Vec<Request> = requests
        .iter()
        .map(SequenceRequest::to_sim_request)
        .collect();
    if !paged {
        return scheduler.plan(&sim);
    }
    let mut oracle = HarnessOracle {
        requests,
        cache: PrefixCache::new(PrefixCacheConfig::default()),
    };
    scheduler.plan_with_prefixes(&sim, &mut oracle)
}

/// One run to check: a point of the product space or a named shape.
#[derive(Debug)]
struct Case {
    /// The [`engine`]'s page budget; `None` runs dense.
    page_budget: Option<usize>,
    /// `None` replays offline through `run_with_scheduler`.
    online: Option<Online>,
    /// Sorted by arrival.
    requests: Vec<SequenceRequest>,
}

/// The dimensions only the online driver has.
#[derive(Debug, Default)]
struct Online {
    /// `None` builds the server with `OnlineServer::new`, `Some` with
    /// `with_faults`.
    faults: Option<FaultPlan>,
    /// `(at_micros, request index)` pairs, as `run_trace` takes them.
    cancels: Vec<(u64, usize)>,
    queue: usize,
    /// Serve on the two-slot machine of [`scheduler`].
    small: bool,
}

/// What a case's run reports.
enum Run {
    Offline {
        report: BatchRunReport,
        timing: SchedulerReport,
    },
    Online {
        server: Box<OnlineServer>,
        trace: TraceOutcome,
    },
}

fn run(case: &Case) -> Run {
    let engine = engine(case.page_budget);
    let Some(online) = &case.online else {
        let (report, timing) = engine
            .run_with_scheduler(&case.requests, &scheduler(false))
            .expect("offline plan executes");
        return Run::Offline { report, timing };
    };
    let scheduler = scheduler(online.small);
    let mut server = match &online.faults {
        None => OnlineServer::new(engine, &scheduler, online.queue),
        Some(plan) => OnlineServer::with_faults(engine, &scheduler, online.queue, plan.clone()),
    }
    .expect("server accepts the case");
    let trace = server.run_trace(&case.requests, &online.cancels);
    Run::Online {
        server: Box::new(server),
        trace,
    }
}

/// Everything a run reports except host wall time, as one string.
fn digest(run: &Run) -> String {
    match run {
        Run::Offline { report, timing } => {
            let report = BatchRunReport {
                wall_s: 0.0,
                ..report.clone()
            };
            format!("{:?}", (report, timing))
        }
        Run::Online { trace, .. } => format!("{:?}", (&trace.submissions, &trace.report)),
    }
}

/// The serving invariant. For every case:
///
/// * every `Finished` stream equals the request's solo stream, and every
///   other stream is a prefix of it, so none exceeds its budget;
/// * offline: on the dense engine each sequence's `CommCounters` equal
///   its solo run's and sum to the total; decode produces every budgeted
///   token once; prefill charges every prompt token once less the
///   positions served from shared pages; residency stays within the
///   machine;
/// * online: every outcome is terminal, with `slot_frees == admissions`, a
///   first-token time exactly when it streamed a token, and the typed error
///   of its retirement — with no fault and no cancel, every accepted
///   sequence finishes; the SLO buckets count the outcome states and
///   `rejected` the `QueueFull` submissions; a paged pool drains to
///   tree-only references; and with no fault, no cancel and no rejection
///   the round log and each sequence's finish time equal the offline
///   planner's — or, under a page budget that can evict, the prefix
///   counters, prefill tokens, rounds and finish times equal the engine's
///   own offline `run_with_scheduler`;
/// * the same case run twice reports the same bits.
fn check(case: &Case) -> Result<Run, TestCaseError> {
    let first = run(case);
    match &first {
        Run::Offline { report, timing } => check_offline(case, report, timing)?,
        Run::Online { server, trace } => check_online(case, server, trace)?,
    }
    prop_assert!(digest(&run(case)) == digest(&first), "replay differs");
    Ok(first)
}

fn check_offline(
    case: &Case,
    report: &BatchRunReport,
    timing: &SchedulerReport,
) -> Result<(), TestCaseError> {
    let n = case.requests.len();
    prop_assert_eq!(report.outputs.len(), n);
    prop_assert_eq!(timing.completions.len(), n);
    let mut comm = CommCounters::default();
    for (i, r) in case.requests.iter().enumerate() {
        let (tokens, solo_comm) = solo(r);
        prop_assert_eq!(&report.outputs[i], &tokens, "stream of request {}", i);
        // Positions served from shared pages skip their prefill collectives.
        if case.page_budget.is_none() {
            prop_assert_eq!(report.per_sequence_comm[i], solo_comm, "request {}", i);
            comm += solo_comm;
        }
    }
    if case.page_budget.is_none() {
        prop_assert_eq!(report.comm, comm);
    }
    let budgets: u64 = case.requests.iter().map(|r| r.decode_tokens as u64).sum();
    prop_assert_eq!(report.decoded_tokens, budgets);
    let prompt_tokens: u64 = case.requests.iter().map(|r| r.prompt.len() as u64).sum();
    let reused = report.prefix.reused_positions;
    prop_assert_eq!(report.prefill_tokens, prompt_tokens - reused);
    prop_assert!(report.peak_resident <= n.min(scheduler(false).slots()));
    Ok(())
}

fn check_online(
    case: &Case,
    server: &OnlineServer,
    trace: &TraceOutcome,
) -> Result<(), TestCaseError> {
    let Some(online) = &case.online else {
        unreachable!("an online run has online dimensions");
    };
    let report = &trace.report;
    let fault_free = online.faults.as_ref().is_none_or(FaultPlan::is_empty);
    let undisturbed = fault_free && online.cancels.is_empty();
    let mut rejected = 0;
    for (r, submission) in case.requests.iter().zip(&trace.submissions) {
        let id = match *submission {
            Ok(id) => id,
            Err(ServeError::QueueFull { capacity }) if capacity == online.queue => {
                rejected += 1;
                continue;
            }
            Err(e) => return Err(TestCaseError::fail(format!("rejected with {e:?}"))),
        };
        let out = &report.outcomes[id.0];
        let (tokens, _) = solo(r);
        let prefix = tokens.starts_with(&out.tokens);
        prop_assert!(prefix, "{} streamed {:?}, not a prefix", id, out.tokens);
        if out.state == Finished || undisturbed {
            prop_assert_eq!(out.state, Finished, "{} was not served", id);
            prop_assert_eq!(&out.tokens, &tokens, "{} finished short", id);
        }
        prop_assert_eq!(out.slot_frees, out.admissions, "{} slot frees", id);
        prop_assert_eq!(out.ttft_s.is_some(), !out.tokens.is_empty(), "{} ttft", id);
        let typed = match (out.state, out.error) {
            (Finished | Cancelled, None) => true,
            (DeadlineMissed, Some(ServeError::Deadline { id: of, .. }))
            | (Shed, Some(ServeError::Shed { id: of }))
            | (ChipLost, Some(ServeError::ChipLost { id: of, .. })) => of == id,
            _ => false,
        };
        prop_assert!(typed, "{} ended {:?} with {:?}", id, out.state, out.error);
    }

    let slo = &report.slo;
    let count = |s: SeqState| report.outcomes.iter().filter(|o| o.state == s).count();
    prop_assert_eq!(
        [slo.completed, slo.cancelled, slo.shed, slo.deadline_missed],
        [
            count(Finished),
            count(Cancelled),
            count(Shed),
            count(DeadlineMissed)
        ]
    );
    prop_assert_eq!(slo.chip_lost, count(ChipLost));
    prop_assert_eq!(slo.rejected, rejected);
    prop_assert_eq!(slo.submitted + rejected, case.requests.len());
    let kills = online.faults.as_ref().map_or(0, |f| f.chip_failures.len());
    prop_assert!(slo.chip_failures <= kills);
    let recovery = slo.recovery;
    prop_assert!(recovery.resumed + recovery.failed <= recovery.evictions);

    if let Some(cache) = server.prefix_cache() {
        let pool = cache.pool();
        let stats = pool.stats();
        prop_assert!(pool.max_ref_count() <= 1, "a grant outlived its sequence");
        prop_assert!(stats.freed <= stats.registered);
        prop_assert_eq!(stats.registered - stats.freed, pool.live() as u64);
    }

    if undisturbed && rejected == 0 {
        let machine = scheduler(online.small);
        let timing = match case.page_budget {
            // A budget evicts at times only the engine sees, so the
            // reference is the engine's own offline run of the same config.
            Some(budget) if budget < usize::MAX => {
                let (offline, timing) = engine(case.page_budget)
                    .run_with_scheduler(&case.requests, &machine)
                    .expect("offline plan executes");
                let slo = &report.slo;
                prop_assert_eq!(slo.prefix, offline.prefix);
                prop_assert_eq!(slo.prefill_tokens, offline.prefill_tokens);
                prop_assert_eq!(slo.rounds, offline.rounds);
                timing
            }
            _ => {
                let paged = case.page_budget.is_some();
                let (timing, plans) = offline_plan(&case.requests, paged, &machine);
                prop_assert_eq!(&report.plans, &plans, "round logs differ");
                timing
            }
        };
        // Per sequence: its finish time beside its request.
        let key = |finish_s: f64, r: Request| {
            let counts = (r.arrival_s_micros, r.prompt_tokens, r.decode_tokens);
            (finish_s.to_bits(), counts)
        };
        let sorted = |mut v: Vec<_>| {
            v.sort_unstable();
            v
        };
        let online_finish = (case.requests.iter().zip(&report.outcomes))
            .filter_map(|(r, o)| Some(key(o.finish_s?, r.to_sim_request())))
            .collect();
        let offline_finish = (timing.completions.iter())
            .map(|c| key(c.finish_s, c.request))
            .collect();
        prop_assert_eq!(sorted(online_finish), sorted(offline_finish));
    }
    Ok(())
}

/// [`check`] a case, failing the test with the case on error.
fn checked(case: Case) -> Run {
    check(&case).unwrap_or_else(|e| panic!("{e}\n  case: {case:?}"))
}

/// [`checked`] for a case served online.
fn served(
    page_budget: Option<usize>,
    online: Online,
    requests: Vec<SequenceRequest>,
) -> (OnlineServer, TraceOutcome) {
    match checked(Case {
        page_budget,
        online: Some(online),
        requests,
    }) {
        Run::Online { server, trace } => (*server, trace),
        Run::Offline { .. } => unreachable!("an online case runs online"),
    }
}

/// One point of the product space: a flag per serving dimension.
#[derive(Clone, Copy)]
struct Axes {
    paged: bool,
    sampled: bool,
    staggered: bool,
    online: bool,
    faults: bool,
    cancels: bool,
    small_queue: bool,
}

impl Axes {
    /// Every combination: 8 offline, then 64 online.
    fn all() -> Vec<Axes> {
        (0u8..128)
            .map(|bits| {
                let bit = |i: u8| bits & (1 << i) != 0;
                Axes {
                    paged: bit(0),
                    sampled: bit(1),
                    staggered: bit(2),
                    online: bit(3),
                    faults: bit(4),
                    cancels: bit(5),
                    small_queue: bit(6),
                }
            })
            .filter(|a| a.online || !(a.faults || a.cancels || a.small_queue))
            .collect()
    }

    /// A case at this point: one to five requests (two to five under faults
    /// or cancels) of one to five random prompt tokens, decoding zero to
    /// seven. Paged prompts are one of three shared system prompts of 12,
    /// 20 or 28 tokens plus zero to eight tokens over a two-token alphabet,
    /// so committed blocks hold diverging tails and prompts match them to
    /// varying depths: partial matches attach copy-on-write boundaries, and
    /// identical prompts match all but their last token. Times scale
    /// with the machine's round: arrivals stagger over ten rounds (all at
    /// zero otherwise), faults land within thirty, deadlines allow at
    /// least five, and a cancel hits its target on arrival or up to ten
    /// rounds after. A `budgeted` paged case draws a page budget of 8 to
    /// 63 pages (under four 16-page blocks), so its tree evicts; any other
    /// paged case never evicts.
    fn sample(self, rng: &mut StdRng, budgeted: bool) -> Case {
        let round_us = (scheduler(self.small_queue).round_s() * 1e6).max(1.0) as u64;
        let n = rng.gen_range(if self.faults || self.cancels { 2 } else { 1 }..6);
        let stagger = if self.staggered { 10 * round_us } else { 1 };
        let mut requests: Vec<SequenceRequest> = (0..n)
            .map(|_| {
                let (mut prompt, suffix, alphabet) = if self.paged {
                    let k = rng.gen_range(0..3);
                    (system_prompt(k, 12 + 8 * k), 0..9, 2)
                } else {
                    (Vec::new(), 1..6, 128u32)
                };
                let suffix_len = rng.gen_range(suffix);
                prompt.extend((0..suffix_len).map(|_| rng.gen_range(0..alphabet)));
                SequenceRequest {
                    arrival_s_micros: rng.gen_range(0..stagger),
                    prompt,
                    decode_tokens: rng.gen_range(0..8),
                    sampler: if self.sampled {
                        Sampler::multinomial(0.8, rng.gen_range(0..10_000))
                    } else {
                        Sampler::Greedy
                    },
                }
            })
            .collect();
        requests.sort_by_key(|r| r.arrival_s_micros);
        let faults = self.faults.then(|| {
            let spec = ChaosSpec {
                horizon_micros: 30 * round_us,
                submissions: n,
                chip_failures: rng.gen_range(0..3),
                stragglers: rng.gen_range(0..3),
                link_faults: rng.gen_range(0..2),
                deadlines: rng.gen_range(0..3),
                min_deadline_micros: 5 * round_us,
            };
            FaultPlan::seeded(rng.gen(), &spec)
        });
        let cancel_count = if self.cancels { rng.gen_range(1..4) } else { 0 };
        let cancels = (0..cancel_count)
            .map(|_| {
                let target = rng.gen_range(0..n);
                let late = rng.gen_bool(0.5).then(|| rng.gen_range(0..10 * round_us));
                (
                    requests[target].arrival_s_micros + late.unwrap_or(0),
                    target,
                )
            })
            .collect();
        let online = Online {
            faults,
            cancels,
            queue: if self.small_queue {
                rng.gen_range(1..3)
            } else {
                n
            },
            small: self.small_queue,
        };
        let page_budget = match (self.paged, budgeted) {
            (false, _) => None,
            (true, false) => Some(usize::MAX),
            (true, true) => Some(rng.gen_range(8..64)),
        };
        Case {
            page_budget,
            online: self.online.then_some(online),
            requests,
        }
    }
}

/// Seeded cases per point of the product space; the odd ones are budgeted.
const CASES_PER_POINT: u64 = 2;

/// [`check`] `CASES_PER_POINT` sampled cases at every point `keep` selects;
/// returns the pages their runs evicted.
fn product(keep: impl Fn(&Axes) -> bool) -> u64 {
    let mut evicted = 0;
    for (point, axes) in Axes::all().into_iter().enumerate() {
        if !keep(&axes) {
            continue;
        }
        for i in 0..CASES_PER_POINT {
            let mut rng = StdRng::seed_from_u64((point as u64) << 8 | i);
            evicted += match checked(axes.sample(&mut rng, i % 2 == 1)) {
                Run::Offline { report, .. } => report.prefix.evicted_pages,
                Run::Online { trace, .. } => trace.report.slo.prefix.evicted_pages,
            };
        }
    }
    evicted
}

/// [`product`] over a paged slice, which must evict in at least one case.
fn paged_product(keep: impl Fn(&Axes) -> bool) {
    assert!(product(keep) > 0, "no budgeted case of the slice evicted");
}

// One test per slice of the product; the slices partition `Axes::all`.

#[test]
fn offline_dense_greedy_holds_the_invariant() {
    product(|a| !a.online && !a.paged && !a.sampled && !a.staggered);
}

#[test]
fn offline_dense_staggered_holds_the_invariant() {
    product(|a| !a.online && !a.paged && !a.sampled && a.staggered);
}

#[test]
fn offline_dense_sampled_holds_the_invariant() {
    product(|a| !a.online && !a.paged && a.sampled);
}

#[test]
fn offline_paged_holds_the_invariant() {
    paged_product(|a| !a.online && a.paged);
}

#[test]
fn online_dense_undisturbed_holds_the_invariant() {
    product(|a| a.online && !a.paged && !a.faults && !a.cancels && !a.small_queue);
}

#[test]
fn online_dense_backpressure_holds_the_invariant() {
    product(|a| a.online && !a.paged && !a.faults && !a.cancels && a.small_queue);
}

#[test]
fn online_dense_cancels_hold_the_invariant() {
    product(|a| a.online && !a.paged && !a.faults && a.cancels);
}

#[test]
fn online_dense_chaos_holds_the_invariant() {
    product(|a| a.online && !a.paged && a.faults);
}

#[test]
fn online_paged_serving_holds_the_invariant() {
    paged_product(|a| a.online && a.paged && !a.faults);
}

#[test]
fn online_paged_chaos_holds_the_invariant() {
    paged_product(|a| a.online && a.paged && a.faults);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The skewed round the cost-based deal exists for: one long prompt
    /// and one short one arrive among at least 16 resident decoders, so a
    /// multi-worker round deals a multi-panel chunk, a few-row chunk and a
    /// crowd of one-row items to different workers. Prefill panels equal
    /// the per-sequence runs' too.
    #[test]
    fn skewed_round(
        long in prop::collection::vec(0u32..128, 128..192),
        short in prop::collection::vec(0u32..128, 1..6),
        decoders in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..4), 4u32..9),
            16..24,
        ),
        decode in 1u32..5,
    ) {
        let mut requests: Vec<SequenceRequest> = decoders
            .iter()
            .map(|(prompt, budget)| SequenceRequest::greedy(0, prompt.clone(), *budget))
            .collect();
        requests.push(SequenceRequest::greedy(1, long, decode));
        requests.push(SequenceRequest::greedy(1, short, decode));
        let (_, plans) = offline_plan(&requests, false, &scheduler(false));
        prop_assert!(
            plans.iter().any(|p| p.decode.len() >= 16
                && p.prefill.len() == 2
                && p.prefill.iter().any(|&(_, n)| n >= 128)),
            "no round mixes the long prompt, the short one and 16 decoders"
        );
        let case = Case { page_budget: None, online: None, requests };
        let Run::Offline { report, .. } = check(&case)? else {
            unreachable!("an offline case runs offline");
        };
        let x = executor();
        let panels: u64 = case
            .requests
            .iter()
            .map(|r| x.prefill_with(&r.prompt, &mut x.new_state(), &mut x.new_scratch(), false).panels)
            .sum();
        prop_assert_eq!(report.prefill_panels, panels);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cancel mid-prefill on the panel path: the victim's prompt exceeds
    /// the 216-token round budget, so after one round its panel context is
    /// half built. The cancel frees the slot once, survivors finish, and
    /// the slot is reusable bit-exactly.
    #[test]
    fn cancel_mid_prefill(
        victim_len in 220usize..300,
        survivors in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..5), 1u32..6),
            1..4,
        ),
        decode in 1u32..4,
    ) {
        let prompt = (0..victim_len).map(|i| (i as u32 * 7 + 3) % 128).collect();
        let victim = SequenceRequest::greedy(0, prompt, decode);
        let mut requests = vec![victim.clone()];
        for (prompt, budget) in &survivors {
            requests.push(SequenceRequest::greedy(0, prompt.clone(), *budget));
        }
        // Half a round in: the victim, admitted first, has prefilled one
        // 216-token panel and is still prefilling.
        let cancel_at = (0.5 * scheduler(false).round_s() * 1e6) as u64;
        let online = Online { queue: requests.len(), cancels: vec![(cancel_at, 0)], ..Default::default() };
        let case = Case { page_budget: None, online: Some(online), requests };
        let Run::Online { mut server, trace } = check(&case)? else {
            unreachable!("an online case runs online");
        };
        let (cancelled, others) = trace.report.outcomes.split_first().expect("victim");
        prop_assert_eq!(cancelled.state, Cancelled);
        prop_assert_eq!(cancelled.admissions, 1);
        prop_assert!(cancelled.tokens.is_empty(), "cancelled before its prefill completed");
        prop_assert!(others.iter().all(|o| o.state == Finished));

        let retry = SequenceRequest { arrival_s_micros: 60_000_000, ..victim.clone() };
        let id = server.submit(retry).expect("the slot is reusable after the cancel");
        server.run_until_idle();
        prop_assert_eq!(server.state_of(id), Some(Finished));
        prop_assert_eq!(server.tokens_of(id), Some(&solo(&victim).0[..]));
    }
}

/// A late arrival prefills while an early sequence is mid-decode: some
/// round both prefills and decodes, and both sequences are resident at once.
#[test]
fn mixed_prefill_decode_round() {
    let requests = vec![
        SequenceRequest::greedy(0, vec![3, 1, 4], 24),
        SequenceRequest::greedy(1_000, vec![1, 5, 9, 2, 6], 8),
    ];
    let (_, plans) = offline_plan(&requests, false, &scheduler(false));
    assert!(
        plans
            .iter()
            .any(|p| !p.prefill.is_empty() && !p.decode.is_empty()),
        "no round both prefills and decodes"
    );
    let case = Case {
        page_budget: None,
        online: None,
        requests,
    };
    let Run::Offline { report, .. } = checked(case) else {
        unreachable!("an offline case runs offline");
    };
    assert_eq!(report.peak_resident, 2);
}

/// Two admission waves over one system prompt with a chip death between
/// them: the flush frees every pre-fault page, and the second wave
/// rebuilds and re-shares the prefix.
#[test]
fn chip_death_flushes_and_rebuilds_the_tree() {
    let wave = |start: u64, first_token: u32| {
        (0..4u32).map(move |i| {
            let mut prompt = system_prompt(0, 24);
            prompt.push(first_token + i);
            SequenceRequest::greedy(start + u64::from(i) * 1_000, prompt, 4)
        })
    };
    let requests: Vec<SequenceRequest> = wave(0, 7).chain(wave(2_000_000, 90)).collect();
    let plan = FaultPlan {
        chip_failures: vec![ChipFailure {
            at_micros: 1_000_000,
            chip: 5,
        }],
        ..FaultPlan::default()
    };
    let online = Online {
        faults: Some(plan),
        queue: requests.len(),
        ..Default::default()
    };
    let (server, trace) = served(Some(usize::MAX), online, requests);
    let outcomes = &trace.report.outcomes;
    assert!(outcomes.iter().all(|o| o.state == Finished));
    assert_eq!(trace.report.slo.chip_failures, 1);
    let stats = server.prefix_cache().expect("paged engine").stats();
    assert!(stats.flushed_pages > 0, "no tree reference flushed");
    assert!(stats.hits > 0, "the second wave shared nothing");
}

/// A heavy seeded chaos run — kills, stragglers, link faults and deadlines
/// all active — replays byte for byte and degrades rounds.
#[test]
fn heavy_seeded_chaos_replays() {
    let requests: Vec<SequenceRequest> = (0..12u32)
        .map(|i| {
            let prompt = (0..=i % 4).map(|t| (i * 13 + t) % 128).collect();
            SequenceRequest::greedy(u64::from(i) * 150_000, prompt, 2 + i % 6)
        })
        .collect();
    let spec = ChaosSpec {
        horizon_micros: 2_000_000,
        submissions: requests.len(),
        chip_failures: 2,
        stragglers: 2,
        link_faults: 1,
        deadlines: 3,
        min_deadline_micros: 5_000,
    };
    let online = Online {
        faults: Some(FaultPlan::seeded(42, &spec)),
        queue: requests.len(),
        ..Default::default()
    };
    let (_, trace) = served(None, online, requests);
    assert_eq!(trace.report.slo.chip_failures, 2);
    assert!(trace.report.slo.degraded_rounds > 0);
}

/// An empty fault plan leaves the whole run bit-identical to a server built
/// with `OnlineServer::new`.
#[test]
fn empty_fault_plan_is_bit_identical_to_new() {
    let requests = vec![
        SequenceRequest::greedy(0, vec![5, 9, 2], 4),
        SequenceRequest::greedy(1_000, vec![7], 3),
        SequenceRequest::greedy(400_000, vec![1, 2, 3, 4], 2),
    ];
    let served = |faults: Option<FaultPlan>| {
        let online = Online {
            faults,
            queue: requests.len(),
            ..Default::default()
        };
        digest(&checked(Case {
            page_budget: None,
            online: Some(online),
            requests: requests.clone(),
        }))
    };
    assert_eq!(served(Some(FaultPlan::none())), served(None));
}

/// A zero-capacity queue rejects every submission with a typed error and
/// runs nothing.
#[test]
fn zero_capacity_queue_rejects_everything_typed() {
    let requests = vec![
        SequenceRequest::greedy(0, vec![1], 2),
        SequenceRequest::greedy(10, vec![2], 2),
    ];
    let (_, trace) = served(None, Online::default(), requests);
    assert_eq!(trace.report.slo.rejected, 2);
    assert_eq!(trace.report.slo.rounds, 0);
}

/// A real arrival process: a seeded diurnal `sim::workload` trace, its
/// prompts and budgets shrunk to the test model, served online and
/// replayed against the offline planner.
#[test]
fn diurnal_workload_trace() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::DiurnalChat,
        requests: 48,
        arrivals_per_s: 200.0,
        seed: 7,
    };
    let requests: Vec<SequenceRequest> = spec
        .generate_with_seed(7)
        .iter()
        .map(|r| {
            let len = 1 + r.prompt_tokens % 4;
            let prompt = (0..len).map(|i| (r.prompt_tokens + i) % 128).collect();
            SequenceRequest::greedy(r.arrival_s_micros, prompt, 1 + r.decode_tokens % 5)
        })
        .collect();
    let online = Online {
        queue: requests.len(),
        ..Default::default()
    };
    let (_, trace) = served(None, online, requests);
    assert!(
        trace.submissions.iter().all(Result::is_ok),
        "every submission accepted, so the round log was compared"
    );
}

/// A page budget tight enough to evict, on two traces of staggered
/// arrivals behind the system prompts:
///
/// * 24 requests, every other one behind system prompt 0 and the rest
///   cycling through four 48-token prompts (three blocks, 48 pages, each),
///   on 96 pages — two prompts' worth;
/// * seven requests behind 16- to 48-token prompts on 64 pages, where
///   sequences finish in one round in an order their slots do not follow,
///   so the order finished sequences release their pages in decides what
///   the budget evicts.
///
/// Each offline run both reuses and evicts, and the online run of the same
/// engine config, held by `check` to that offline run's prefix counters,
/// prefill tokens, rounds and finish times, makes the same matches and
/// evicts the same pages.
#[test]
fn budgeted_offline_run_evicts_like_online_serving() {
    let round_us = (scheduler(false).round_s() * 1e6) as u64;
    let request = |round: u64, k: u32, shared: u32, tail: &[u32], decode: u32| {
        let mut prompt = system_prompt(k, shared);
        prompt.extend_from_slice(tail);
        SequenceRequest::greedy(round * round_us, prompt, decode)
    };
    let chat = (0..24u32)
        .map(|i| {
            let k = if i % 2 == 0 { 0 } else { i / 2 % 4 };
            request(2 * u64::from(i), k, 48, &[i % 7, i % 3], 3)
        })
        .collect();
    let out_of_order = vec![
        request(1, 1, 32, &[2, 1], 0),
        request(1, 2, 48, &[0, 1, 2, 2], 4),
        request(2, 1, 16, &[0, 0, 1, 1, 0, 2, 1], 3),
        request(3, 2, 16, &[0, 0, 2, 2, 1, 1, 1, 0, 0], 5),
        request(4, 0, 16, &[0, 1, 1, 2, 2], 1),
        request(5, 0, 16, &[1, 0, 1, 2], 3),
        request(5, 1, 32, &[2, 1, 0], 2),
    ];
    for (budget, requests) in [(96, chat), (64, out_of_order)] {
        let offline = Case {
            page_budget: Some(budget),
            online: None,
            requests: requests.clone(),
        };
        let Run::Offline { report, .. } = checked(offline) else {
            unreachable!("an offline case runs offline");
        };
        let stats = report.prefix;
        assert!(stats.evicted_pages > 0 && stats.hits > 0, "{stats:?}");
        let online = Online {
            queue: requests.len(),
            ..Default::default()
        };
        let (_, trace) = served(Some(budget), online, requests);
        assert_eq!(trace.report.slo.prefix, stats);
    }
}
