//! The four named workloads: which model and engine they run on, how a
//! seed becomes a trace, and the self-checks that keep each workload
//! testing what its name says.
//!
//! The seed drives trace generation only. The program under test receives
//! generated [`SequenceRequest`]s, cancel times and an explicit
//! [`FaultPlan`]; it never sees the seed.

use crate::run::Summary;
use crate::verify::Failures;
use hnlpu::llm::fault::{ChipFailure, Deadline, FaultPlan, LinkFault, Straggler};
use hnlpu::llm::SloReport;
use hnlpu::llm::{
    BatchedDataflowExecutor, DataflowExecutor, OnlineServer, PrefixCacheConfig, SequenceRequest,
};
use hnlpu::model::config::{AttentionConfig, MoeConfig, TransformerConfig};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{shared_prefix_tokens, BatchScheduler, SimConfig, WorkloadKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Seed of the model weights. Fixed: the benchmark seed varies the trace,
/// not the model.
pub const WEIGHT_SEED: u64 = 2026;
/// Context the scheduler assumes for round timing.
pub const NOMINAL_CONTEXT: u64 = 2048;
/// Distinct system prompts in the shared-prefix workload.
const PREFIX_GROUPS: usize = 4;

/// The two models the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Hidden 256, 16 experts x 512: matmul-dominated.
    Bench256,
    /// `zoo::dataflow_test_model()` unchanged (hidden 64):
    /// bookkeeping-dominated.
    TestDataflow,
}

impl Model {
    pub fn name(self) -> &'static str {
        match self {
            Model::Bench256 => "bench-256",
            Model::TestDataflow => "test-dataflow",
        }
    }

    pub fn config(self) -> TransformerConfig {
        match self {
            Model::TestDataflow => zoo::dataflow_test_model().config,
            Model::Bench256 => TransformerConfig {
                hidden_size: 256,
                num_layers: 2,
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
                vocab_size: 2048,
            },
        }
    }

    pub fn materialize(self) -> ModelWeights {
        ModelWeights::materialize(&self.config(), &WeightGenerator::new(WEIGHT_SEED))
    }
}

/// One benchmark workload. Request counts and rates are the sizing knobs;
/// they are frozen now that `BENCHMARK.json` names these workloads.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub model: Model,
    /// `Some(budget)` serves through the paged engine with a radix prefix
    /// cache of that many pages; `None` is the dense engine.
    pub page_budget: Option<usize>,
    /// Arrival process (only the arrival times of the generator are used;
    /// token counts and contents are drawn here).
    pub arrivals: WorkloadKind,
    pub requests: usize,
    /// Requests per virtual second (the peak rate for `DiurnalChat`;
    /// unused by `OfflineBatch`, where everything arrives at t = 0).
    pub arrivals_per_s: f64,
    /// Random (unshared) prompt tokens per request.
    pub prompt_tokens: Range<u32>,
    pub decode_tokens: Range<u32>,
    /// Prepend one of [`PREFIX_GROUPS`] seeded system prompts.
    pub shared_prefix: bool,
    /// Admission queue bound; `None` means the trace length (no refusals).
    pub queue_capacity: Option<usize>,
    /// Inject cancellations and the explicit fault plan.
    pub chaos: bool,
    /// What a served run must show for the workload to still test what
    /// its name says, whatever the seed or the code under test.
    pub checks: &'static [Check],
}

/// A workload self-check on the served run's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Decoded tokens as a share of all tokens processed.
    DecodeShareAtLeast(f64),
    PrefillShareAtLeast(f64),
    /// Nothing rejected, shed, timed out or lost.
    NoRefusals,
    HitRateAtMost(f64),
    HitRateAtLeast(f64),
    /// The page budget forced LRU eviction.
    EvictsPages,
    /// Every pipeline slot was in use at some point.
    FillsEverySlot,
    /// Rejections, sheds, deadline misses, cancellations, evictions and
    /// recoveries all happened.
    EveryFaultPathFires,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "decode_steady",
        why: "bench-256, dense engine, short prompts and long decodes below saturation: decode matvecs and attention reads do the work, prefix cache and faults do none",
        model: Model::Bench256,
        page_budget: None,
        arrivals: WorkloadKind::Chat,
        requests: 80,
        arrivals_per_s: 4000.0,
        prompt_tokens: 4..16,
        decode_tokens: 32..64,
        shared_prefix: false,
        queue_capacity: None,
        chaos: false,
        checks: &[Check::DecodeShareAtLeast(0.8), Check::NoRefusals],
    },
    Workload {
        name: "prefill_long",
        why: "bench-256, paged engine, long unshared prompts and 1-3 decodes: panel matmul prefill; the radix tree only writes and evicts, so it bypasses decode and prefix-hit changes",
        model: Model::Bench256,
        page_budget: Some(1024),
        arrivals: WorkloadKind::OfflineBatch,
        requests: 48,
        arrivals_per_s: 1.0,
        prompt_tokens: 96..192,
        decode_tokens: 2..3,
        shared_prefix: false,
        queue_capacity: None,
        chaos: false,
        checks: &[
            Check::PrefillShareAtLeast(0.95),
            Check::HitRateAtMost(0.1),
            Check::EvictsPages,
            Check::NoRefusals,
        ],
    },
    Workload {
        name: "shared_prefix_chat",
        why: "test-dataflow, paged engine, four shared system prompts plus short suffixes: radix match, attach, copy-on-write and eviction dominate while matmuls are tiny",
        model: Model::TestDataflow,
        page_budget: Some(256),
        arrivals: WorkloadKind::SharedPrefixChat,
        requests: 300,
        arrivals_per_s: 2000.0,
        prompt_tokens: 8..64,
        decode_tokens: 8..32,
        shared_prefix: true,
        queue_capacity: None,
        chaos: false,
        checks: &[Check::HitRateAtLeast(0.9), Check::EvictsPages, Check::NoRefusals],
    },
    Workload {
        name: "overload_chaos",
        why: "test-dataflow, dense engine, diurnal arrivals above saturation with a bounded queue, cancellations, chip deaths, a straggler, link retries and deadlines: admission and fault policy do the work",
        model: Model::TestDataflow,
        page_budget: None,
        arrivals: WorkloadKind::DiurnalChat,
        requests: 3000,
        arrivals_per_s: 16_000.0,
        prompt_tokens: 4..16,
        decode_tokens: 8..32,
        shared_prefix: false,
        queue_capacity: Some(256),
        chaos: true,
        checks: &[Check::FillsEverySlot, Check::EveryFaultPathFires],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything one replay feeds the server.
#[derive(Debug, Clone)]
pub struct Trace {
    pub requests: Vec<SequenceRequest>,
    /// `(at_micros, request index)` cancellations.
    pub cancels: Vec<(u64, usize)>,
    pub faults: FaultPlan,
    /// Prompt tokens that came from a shared system prompt.
    pub shared_prompt_tokens: u64,
}

impl Trace {
    pub fn prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.prompt.len() as u64).sum()
    }

    pub fn decode_tokens_requested(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| u64::from(r.decode_tokens))
            .sum()
    }
}

impl Workload {
    pub fn is_fault_free(&self) -> bool {
        !self.chaos
    }

    /// The trace for `seed`: the same seed gives the same trace.
    pub fn generate(&self, seed: u64) -> Trace {
        let arrivals = WorkloadSpec {
            kind: self.arrivals,
            requests: self.requests,
            arrivals_per_s: self.arrivals_per_s,
            seed,
        }
        .generate_with_seed(seed);
        // Stretch the schedule so the last request arrives at exactly
        // requests / rate: a Poisson process conditioned on its count.
        // Without this the horizon of a short trace, and every statistic
        // that scales with it, swings by 1/sqrt(requests) between seeds.
        let horizon = self.requests as f64 / self.arrivals_per_s * 1e6;
        let last = arrivals.last().map_or(1, |a| a.arrival_s_micros.max(1)) as f64;
        let arrival_micros = |a: u64| (a as f64 * horizon / last).round() as u64;
        let vocab = self.model.config().vocab_size as u32;
        // Token counts and contents come from a stream of their own so
        // they do not depend on how many draws the arrival process made.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_da7a_5eed_0001);
        let prefixes: Vec<Vec<u32>> = (0..PREFIX_GROUPS)
            .map(|g| shared_prefix_tokens(seed, g, vocab))
            .collect();
        let mut shared_prompt_tokens = 0u64;
        let requests: Vec<SequenceRequest> = arrivals
            .iter()
            .map(|a| {
                let mut prompt = Vec::new();
                if self.shared_prefix {
                    let group = rng.gen_range(0..PREFIX_GROUPS);
                    prompt.extend_from_slice(&prefixes[group]);
                    shared_prompt_tokens += prefixes[group].len() as u64;
                }
                let fresh = rng.gen_range(self.prompt_tokens.clone());
                prompt.extend((0..fresh).map(|_| rng.gen_range(0..vocab)));
                let decode = rng.gen_range(self.decode_tokens.clone());
                SequenceRequest::greedy(arrival_micros(a.arrival_s_micros), prompt, decode)
            })
            .collect();
        let (cancels, faults) = if self.chaos {
            chaos_plan(&requests)
        } else {
            (Vec::new(), FaultPlan::none())
        };
        Trace {
            requests,
            cancels,
            faults,
            shared_prompt_tokens,
        }
    }

    pub fn scheduler(&self) -> BatchScheduler {
        BatchScheduler::new(SimConfig::default(), NOMINAL_CONTEXT)
    }

    pub fn engine(&self, weights: ModelWeights) -> BatchedDataflowExecutor {
        let slots = SimConfig::default().pipeline_slots() as usize;
        let engine = BatchedDataflowExecutor::new(DataflowExecutor::new(weights), slots);
        match self.page_budget {
            Some(page_budget) => engine.with_prefix_cache(PrefixCacheConfig {
                page_budget,
                ..PrefixCacheConfig::default()
            }),
            None => engine,
        }
    }

    /// A fresh server for one replay of `trace` under `faults` (the
    /// trace's own plan, or `FaultPlan::none()` for the healthy twin).
    pub fn server(
        &self,
        engine: BatchedDataflowExecutor,
        trace: &Trace,
        faults: FaultPlan,
    ) -> OnlineServer {
        let capacity = self.queue_capacity.unwrap_or(trace.requests.len());
        OnlineServer::with_faults(engine, &self.scheduler(), capacity, faults)
            .expect("the benchmark's own fault plans validate and 216 slots fit the engine")
    }
}

/// Cancellations and an explicit fault plan laid out on the trace horizon
/// `h`, so faults bite on any seed: chip 5 dies at `h/4`, chip 10 at
/// `3h/5`; chip 3 straggles 3x over `[h/10, h/5)`; 2 link retries over
/// `[4h/5, 9h/10)`; every 20th submission must finish within 30 ms; every
/// 7th request is cancelled 2 ms after it arrives.
fn chaos_plan(requests: &[SequenceRequest]) -> (Vec<(u64, usize)>, FaultPlan) {
    let h = requests.last().map_or(0, |r| r.arrival_s_micros).max(20);
    let cancels = requests
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 7 == 0)
        .map(|(i, r)| (r.arrival_s_micros + 2_000, i))
        .collect();
    let faults = FaultPlan {
        chip_failures: vec![
            ChipFailure {
                at_micros: h / 4,
                chip: 5,
            },
            ChipFailure {
                at_micros: 3 * h / 5,
                chip: 10,
            },
        ],
        stragglers: vec![Straggler {
            chip: 3,
            from_micros: h / 10,
            until_micros: h / 5,
            slowdown: 3.0,
        }],
        link_faults: vec![LinkFault {
            from_micros: 4 * h / 5,
            until_micros: 9 * h / 10,
            retries: 2,
        }],
        deadlines: requests
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 20 == 0)
            .map(|(i, r)| Deadline {
                submission: i,
                at_micros: r.arrival_s_micros + 30_000,
            })
            .collect(),
    };
    (cancels, faults)
}

/// Run the workload's self-checks against a served run.
pub fn self_check(w: &Workload, s: &Summary, slo: &SloReport, failures: &mut Failures) {
    let processed = (slo.prefill_tokens + slo.decoded_tokens).max(1) as f64;
    let decode_share = slo.decoded_tokens as f64 / processed;
    let hit_rate = slo.prefix.hits as f64 / slo.prefix.lookups.max(1) as f64;
    for check in w.checks {
        let ok = match *check {
            Check::DecodeShareAtLeast(x) => decode_share >= x,
            Check::PrefillShareAtLeast(x) => 1.0 - decode_share >= x,
            Check::NoRefusals => s.refused_or_dropped() == 0,
            Check::HitRateAtMost(x) => hit_rate <= x,
            Check::HitRateAtLeast(x) => hit_rate >= x,
            Check::EvictsPages => slo.prefix.evicted_pages > 0,
            Check::FillsEverySlot => slo.peak_resident == w.scheduler().slots(),
            Check::EveryFaultPathFires => [
                s.rejected as u64,
                s.shed as u64,
                s.deadline_missed as u64,
                s.cancelled as u64,
                slo.recovery.evictions,
                slo.recovery.resumed,
            ]
            .iter()
            .all(|&n| n > 0),
        };
        if !ok {
            failures.note(format!(
                "{} no longer tests what it names: {check:?} failed (decode share {decode_share:.3}, hit rate {hit_rate:.3}, evicted pages {}, peak resident {}, rejected {} shed {} deadline-missed {} cancelled {} evictions {} resumed {})",
                w.name,
                slo.prefix.evicted_pages,
                slo.peak_resident,
                s.rejected,
                s.shed,
                s.deadline_missed,
                s.cancelled,
                slo.recovery.evictions,
                slo.recovery.resumed
            ));
        }
    }
}
