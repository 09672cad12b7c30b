//! Output verification: every check runs in the same command as the
//! measurement, after the timed region.

use crate::run::{request_index, Replay};
use crate::workloads::{Trace, Workload};
use hnlpu::llm::serve::SeqState;
use hnlpu::llm::SequenceRequest;
use hnlpu::sim::scheduler::{PrefixOracle, Request};
use hnlpu::sim::{RoundPlan, SchedulerReport};

/// Failed checks. `mismatches` counts the requests whose outcome was
/// wrong (they are the benchmark's failed operations); `notes` says what
/// failed, one line each.
#[derive(Debug, Default)]
pub struct Failures {
    pub mismatches: usize,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn is_empty(&self) -> bool {
        self.mismatches == 0 && self.notes.is_empty()
    }

    /// A failed check that is not tied to one request.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        // The first few say enough; thousands would bury the result.
        if self.mismatches <= 5 {
            self.notes.push(what);
        }
    }
}

/// Check streams against single-sequence greedy generation.
/// `expected(request index, n)` returns the first `n` tokens
/// `DataflowExecutor::generate_greedy` gives for that request's prompt
/// (greedy decoding is deterministic, so they do not depend on how many
/// are asked for), or `None` for a request outside the sample. Every
/// `Finished` stream must equal it in full; every cancelled, shed,
/// deadline-missed or chip-lost stream must be a prefix of it.
pub fn streams(
    trace: &Trace,
    replay: &Replay,
    mut expected: impl FnMut(usize, usize) -> Option<Vec<u32>>,
    failures: &mut Failures,
) {
    let request_of = request_index(&replay.outcome);
    for o in &replay.outcome.report.outcomes {
        let index = request_of[o.id.0];
        let wanted = trace.requests[index].decode_tokens as usize;
        if o.state == SeqState::Finished && o.tokens.len() != wanted {
            failures.mismatch(format!(
                "request {index}: finished with {} of {wanted} tokens",
                o.tokens.len()
            ));
        } else if o.tokens.len() > wanted {
            failures.mismatch(format!(
                "request {index}: streamed {} tokens, {wanted} were asked for",
                o.tokens.len()
            ));
        } else if !o.tokens.is_empty() {
            if let Some(reference) = expected(index, o.tokens.len()) {
                if reference != o.tokens {
                    failures.mismatch(format!(
                        "request {index}: {:?} stream differs from single-sequence greedy generation",
                        o.state
                    ));
                }
            }
        }
    }
}

/// Exact-once resource ledgers: every sequence retired, `slot_frees ==
/// admissions` for each, and the prefix cache's page pool drained to
/// tree-only references.
pub fn ledgers(replay: &Replay, failures: &mut Failures) {
    for o in &replay.outcome.report.outcomes {
        let retired = matches!(
            o.state,
            SeqState::Finished
                | SeqState::Cancelled
                | SeqState::DeadlineMissed
                | SeqState::Shed
                | SeqState::ChipLost
        );
        if !retired {
            failures.mismatch(format!("{}: still {:?} after the drain", o.id, o.state));
        } else if o.slot_frees != o.admissions {
            failures.mismatch(format!(
                "{}: {} slot frees for {} admissions",
                o.id, o.slot_frees, o.admissions
            ));
        }
    }
    if let Some(cache) = replay.server.prefix_cache() {
        let pool = cache.pool();
        let s = pool.stats();
        if pool.max_ref_count() > 1 || s.registered - s.freed != pool.live() as u64 {
            failures.note(format!(
                "prefix page ledger unbalanced: registered {} freed {} live {} max refs {}",
                s.registered,
                s.freed,
                pool.live(),
                pool.max_ref_count()
            ));
        }
    }
}

/// The planner's view of the served run's prefix cache. The online cache
/// evicts under a page budget at times only the server knows, so the
/// oracle replays the matched length the server actually granted each
/// sequence (prompt length minus the prefill tokens its plans carry) and
/// the check pins the scheduling policy given those matches.
struct ServedMatches(Vec<u32>);

impl PrefixOracle for ServedMatches {
    fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
        self.0.get(seq).copied().unwrap_or(0)
    }
    fn on_prefill_complete(&mut self, _seq: usize, _req: &Request) {}
}

/// The offline `BatchScheduler::plan` (dense) or `plan_with_prefixes`
/// (paged, given the prefix matches the served run saw) schedule for the
/// whole trace, fault-free and with every request accepted.
pub fn offline_plans(
    w: &Workload,
    trace: &Trace,
    served: &[RoundPlan],
) -> (SchedulerReport, Vec<RoundPlan>) {
    let requests: Vec<Request> = trace
        .requests
        .iter()
        .map(SequenceRequest::to_sim_request)
        .collect();
    if w.page_budget.is_none() {
        return w.scheduler().plan(&requests);
    }
    let mut prefilled = vec![0u32; requests.len()];
    for plan in served {
        for &(seq, tokens) in &plan.prefill {
            if let Some(p) = prefilled.get_mut(seq) {
                *p += tokens;
            }
        }
    }
    let matched = requests
        .iter()
        .zip(&prefilled)
        .map(|(r, &p)| r.prompt_tokens.saturating_sub(p))
        .collect();
    w.scheduler()
        .plan_with_prefixes(&requests, &mut ServedMatches(matched))
}

/// For a fault-free workload the served RoundPlans must equal the offline
/// scheduler's.
pub fn plans(served: &[RoundPlan], offline: &[RoundPlan], failures: &mut Failures) {
    if served != offline {
        let first = served
            .iter()
            .zip(offline)
            .position(|(a, b)| a != b)
            .unwrap_or(served.len().min(offline.len()));
        failures.note(format!(
            "served RoundPlans differ from the offline scheduler's at round {first} ({} served, {} offline)",
            served.len(),
            offline.len()
        ));
    }
}
