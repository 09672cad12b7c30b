//! Synthetic serving workloads for the continuous-batching scheduler.
//!
//! Five request mixes cover the serving regimes the paper's §8 anticipates
//! ("novel LLM application scenarios"): interactive chat, diurnal chat (a
//! day of traffic compressed into virtual time), long-context RAG,
//! offline batch scoring, and shared-prefix chat (a seeded mixture of a
//! few system prompts with per-user suffixes, the regime the paged KV
//! radix cache exists for). All generators are pure functions of an explicit
//! seed — no ambient RNG — so the online serving frontend and the offline
//! plan replay can regenerate byte-identical arrival traces independently.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::scheduler::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Virtual seconds one simulated "day" is compressed into for
/// [`WorkloadKind::DiurnalChat`]: the arrival rate completes one full
/// peak → trough → peak cycle over this span.
pub(crate) const DIURNAL_PERIOD_S: f64 = 120.0;

/// Distinct system prompts mixed by [`WorkloadKind::SharedPrefixChat`].
pub(crate) const SHARED_PREFIX_GROUPS: usize = 4;

/// Length in tokens of group `group`'s system prompt. Groups differ in
/// length so the prefix cache sees a mixture of block counts.
pub(crate) const fn shared_prefix_len(group: usize) -> u32 {
    64 + 32 * (group % SHARED_PREFIX_GROUPS) as u32
}

/// Deterministic token ids of group `group`'s system prompt, drawn below
/// `vocab`. A pure function of `(seed, group, vocab)`, so the serving
/// engine, bench harness, and example simulator regenerate identical
/// shared prefixes without passing token buffers around.
pub fn shared_prefix_tokens(seed: u64, group: usize, vocab: u32) -> Vec<u32> {
    let mix = seed ^ (group as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = StdRng::seed_from_u64(mix);
    (0..shared_prefix_len(group))
        .map(|_| rng.gen_range(0..vocab.max(1)))
        .collect()
}

/// A named request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Short prompts, short-to-medium decodes, Poisson arrivals.
    Chat,
    /// Chat-shaped requests whose Poisson rate follows a compressed
    /// diurnal cycle: `arrivals_per_s` is the *peak* rate, and the
    /// instantaneous rate swings sinusoidally down to 10% of it over
    /// `DIURNAL_PERIOD_S`.
    DiurnalChat,
    /// Long retrieval-augmented prompts, short decodes.
    RagLongContext,
    /// Everything arrives at t = 0; medium prompts; tiny decodes
    /// (sequence scoring / embedding style).
    OfflineBatch,
    /// Chat arrivals whose prompts are a seeded mixture of
    /// `SHARED_PREFIX_GROUPS` system prompts plus a short per-user
    /// suffix — the shared-prefix regime the paged radix KV cache
    /// deduplicates. Prompt length is `shared_prefix_len(group)` plus
    /// an 8–64 token suffix.
    SharedPrefixChat,
}

/// Workload generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Mix.
    pub kind: WorkloadKind,
    /// Number of requests.
    pub requests: usize,
    /// Mean arrival rate, requests/second (peak rate for `DiurnalChat`;
    /// ignored for `OfflineBatch`).
    pub arrivals_per_s: f64,
    /// Default RNG seed used by [`generate`](Self::generate).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Generate the request trace with the spec's own seed.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals_per_s <= 0` for an online mix.
    pub fn generate(&self) -> Vec<Request> {
        self.generate_with_seed(self.seed)
    }

    /// Generate the request trace from an explicit seed.
    ///
    /// The trace is a pure function of `(self.kind, self.requests,
    /// self.arrivals_per_s, seed)`: two calls with equal inputs return
    /// identical `Vec<Request>`s, which is what lets online-vs-offline
    /// differential runs replay the same arrivals without sharing state.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals_per_s <= 0` for an online mix.
    #[expect(
        clippy::disallowed_methods,
        reason = "arrival gaps stay on the host libm's `ln`: an owned one moves every benchmark trace and `sim_*` value, a rebase of its own"
    )]
    pub fn generate_with_seed(&self, seed: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t_micros = 0u64;
        (0..self.requests)
            .map(|_| {
                let (prompt, decode) = match self.kind {
                    WorkloadKind::Chat | WorkloadKind::DiurnalChat => {
                        (rng.gen_range(16..512), rng.gen_range(32..768))
                    }
                    WorkloadKind::RagLongContext => {
                        (rng.gen_range(4096..32_768), rng.gen_range(64..512))
                    }
                    WorkloadKind::OfflineBatch => (rng.gen_range(256..2048), rng.gen_range(1..8)),
                    WorkloadKind::SharedPrefixChat => {
                        let group = rng.gen_range(0..SHARED_PREFIX_GROUPS);
                        let suffix: u32 = rng.gen_range(8..64);
                        (shared_prefix_len(group) + suffix, rng.gen_range(32..768))
                    }
                };
                if self.kind != WorkloadKind::OfflineBatch {
                    assert!(self.arrivals_per_s > 0.0, "online mixes need a rate");
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let rate = self.rate_at(t_micros as f64 / 1e6);
                    t_micros += (-u.ln() / rate * 1e6) as u64;
                }
                Request::new(t_micros, prompt, decode)
            })
            .collect()
    }

    /// Instantaneous arrival rate at virtual time `t_s` (requests/s).
    #[expect(
        clippy::disallowed_methods,
        reason = "the diurnal rate stays on the host libm's `cos`: an owned one moves every benchmark trace and `sim_*` value, a rebase of its own"
    )]
    pub(crate) fn rate_at(&self, t_s: f64) -> f64 {
        match self.kind {
            WorkloadKind::DiurnalChat => {
                // Peak at t = 0, trough (10% of peak) half a period later.
                let phase = t_s / DIURNAL_PERIOD_S * std::f64::consts::TAU;
                self.arrivals_per_s * (0.55 + 0.45 * phase.cos())
            }
            _ => self.arrivals_per_s,
        }
    }

    /// Average context length this mix drives (for picking the simulator's
    /// nominal operating point).
    pub fn nominal_context(&self) -> u64 {
        match self.kind {
            WorkloadKind::Chat | WorkloadKind::DiurnalChat | WorkloadKind::SharedPrefixChat => 2048,
            WorkloadKind::RagLongContext => 32_768,
            WorkloadKind::OfflineBatch => 2048,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::scheduler::BatchScheduler;

    fn spec(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec {
            kind,
            requests: 300,
            arrivals_per_s: 400.0,
            seed: 5,
        }
    }

    const ALL_KINDS: [WorkloadKind; 5] = [
        WorkloadKind::Chat,
        WorkloadKind::DiurnalChat,
        WorkloadKind::RagLongContext,
        WorkloadKind::OfflineBatch,
        WorkloadKind::SharedPrefixChat,
    ];

    #[test]
    fn generators_are_deterministic() {
        for kind in ALL_KINDS {
            assert_eq!(spec(kind).generate(), spec(kind).generate());
        }
    }

    #[test]
    fn explicit_seed_replays_the_exact_trace() {
        // Determinism regression for the online/offline differential
        // harness: the trace is a pure function of the explicit seed, and
        // `generate()` is exactly `generate_with_seed(self.seed)`.
        for kind in ALL_KINDS {
            let s = spec(kind);
            assert_eq!(s.generate_with_seed(5), s.generate_with_seed(5));
            assert_eq!(s.generate(), s.generate_with_seed(s.seed));
            let reseeded = WorkloadSpec { seed: 99, ..s };
            assert_eq!(reseeded.generate(), s.generate_with_seed(99));
        }
    }

    #[test]
    fn different_seeds_change_the_trace() {
        let s = spec(WorkloadKind::Chat);
        assert_ne!(s.generate_with_seed(1), s.generate_with_seed(2));
    }

    #[test]
    fn offline_batch_arrives_at_zero() {
        let reqs = spec(WorkloadKind::OfflineBatch).generate();
        assert!(reqs.iter().all(|r| r.arrival_s_micros == 0));
    }

    #[test]
    fn chat_arrivals_are_increasing() {
        for kind in [
            WorkloadKind::Chat,
            WorkloadKind::DiurnalChat,
            WorkloadKind::SharedPrefixChat,
        ] {
            let reqs = spec(kind).generate();
            for w in reqs.windows(2) {
                assert!(w[1].arrival_s_micros >= w[0].arrival_s_micros);
            }
        }
    }

    #[test]
    fn diurnal_trough_slows_arrivals() {
        // The mean inter-arrival gap near the trough (half a period in) is
        // several times the gap near the t = 0 peak.
        let s = WorkloadSpec {
            kind: WorkloadKind::DiurnalChat,
            requests: 8_000,
            arrivals_per_s: 100.0,
            seed: 11,
        };
        let reqs = s.generate();
        let half = DIURNAL_PERIOD_S / 2.0;
        let mean_gap_in = |lo: f64, hi: f64| {
            let mut gaps = Vec::new();
            for w in reqs.windows(2) {
                let t = w[0].arrival_s_micros as f64 / 1e6;
                if t >= lo && t < hi {
                    gaps.push((w[1].arrival_s_micros - w[0].arrival_s_micros) as f64);
                }
            }
            assert!(!gaps.is_empty(), "window [{lo}, {hi}) saw no arrivals");
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        let peak = mean_gap_in(0.0, 10.0);
        let trough = mean_gap_in(half - 8.0, half + 8.0);
        assert!(
            trough > peak * 3.0,
            "trough gap {trough} not >> peak gap {peak}"
        );
        assert!(s.rate_at(0.0) > s.rate_at(half) * 5.0);
    }

    #[test]
    fn shared_prefix_chat_is_deterministic_and_well_formed() {
        // Same regression shape as `diurnal_trough_slows_arrivals`' sibling
        // determinism checks: the shared-prefix mixture is a pure function
        // of the seed, prompt lengths decompose as one of the group prefix
        // lengths plus an 8–64 token suffix, and every group appears.
        let s = spec(WorkloadKind::SharedPrefixChat);
        assert_eq!(s.generate(), s.generate());
        assert_eq!(s.generate(), s.generate_with_seed(s.seed));
        assert_ne!(s.generate_with_seed(1), s.generate_with_seed(2));

        let mut groups_seen = [false; SHARED_PREFIX_GROUPS];
        for r in s.generate() {
            let group = (0..SHARED_PREFIX_GROUPS).find(|&g| {
                let p = shared_prefix_len(g);
                r.prompt_tokens >= p + 8 && r.prompt_tokens < p + 64
            });
            // Group lengths are 32 apart and suffixes span 8..64, so the
            // decomposition is ambiguous between neighbours — but some
            // group must always explain the length.
            let g = group.expect("prompt length fits the prefix + suffix mixture");
            groups_seen[g] = true;
        }
        assert!(
            groups_seen.iter().filter(|&&b| b).count() >= 2,
            "300 draws hit at least two prompt groups"
        );

        // The token-id helper is deterministic, seed- and group-sensitive,
        // and sized to its group.
        for g in 0..SHARED_PREFIX_GROUPS {
            let a = shared_prefix_tokens(7, g, 128);
            assert_eq!(a, shared_prefix_tokens(7, g, 128));
            assert_eq!(a.len() as u32, shared_prefix_len(g));
            assert!(a.iter().all(|&t| t < 128));
            assert_ne!(a, shared_prefix_tokens(8, g, 128));
        }
        assert_ne!(
            shared_prefix_tokens(7, 0, 128)[..],
            shared_prefix_tokens(7, 1, 128)[..shared_prefix_len(0) as usize]
        );
    }

    #[test]
    fn rag_prompts_are_long() {
        let reqs = spec(WorkloadKind::RagLongContext).generate();
        assert!(reqs.iter().all(|r| r.prompt_tokens >= 4096));
    }

    #[test]
    fn every_mix_runs_through_the_scheduler() {
        let cfg = SimConfig::paper_default();
        for kind in ALL_KINDS {
            let s = spec(kind);
            let report = BatchScheduler::new(cfg.clone(), s.nominal_context()).run(&s.generate());
            assert_eq!(report.completions.len(), 300, "{kind:?}");
            // Token conservation: exactly the requested decode tokens.
            let want: u64 = s.generate().iter().map(|r| r.decode_tokens as u64).sum();
            assert_eq!(report.decoded_tokens, want, "{kind:?}");
        }
    }

    #[test]
    fn long_context_mix_is_slower() {
        let cfg = SimConfig::paper_default();
        let chat = spec(WorkloadKind::Chat);
        let rag = spec(WorkloadKind::RagLongContext);
        let t_chat = BatchScheduler::new(cfg.clone(), chat.nominal_context())
            .run(&chat.generate())
            .throughput_tokens_per_s;
        let t_rag = BatchScheduler::new(cfg, rag.nominal_context())
            .run(&rag.generate())
            .throughput_tokens_per_s;
        // The VEX attention occupancy at 32K context halves the pipeline
        // rate versus the comm-bound 2K regime.
        assert!(t_rag < t_chat, "chat={t_chat:.0} rag={t_rag:.0}");
    }
}
