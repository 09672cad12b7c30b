//! One replay of a trace through `OnlineServer::run_trace`, what it
//! measured, and the untraced repetitions behind the end-to-end metrics.

use crate::json::{count, object};
use crate::stats::{self, Fnv1a, Tail};
use crate::workloads::{Trace, Workload};
use hnlpu::llm::serve::{SeqState, ServeEvent, TraceOutcome};
use hnlpu::llm::OnlineServer;
use serde_json::Value;
use std::time::Instant;

/// TTFT limit of the goodput SLO, virtual milliseconds.
pub const SLO_TTFT_MS: f64 = 50.0;
/// Mean inter-token gap limit of the goodput SLO, virtual milliseconds.
pub const SLO_GAP_MS: f64 = 1.5;

/// A finished replay: the server (kept for its ledgers), the outcome and
/// the event stream, drained after the timed region.
pub struct Replay {
    pub wall_s: f64,
    pub server: OnlineServer,
    pub outcome: TraceOutcome,
    pub events: Vec<ServeEvent>,
}

/// Set-up of one repetition: materialise the weights, build `DataflowExecutor`
/// -> `BatchedDataflowExecutor` -> `OnlineServer`, and generate the trace.
pub fn set_up(w: &Workload, seed: u64) -> (OnlineServer, Trace) {
    let trace = w.generate(seed);
    let server = w.server(
        w.engine(w.model.materialize()),
        &trace,
        trace.faults.clone(),
    );
    (server, trace)
}

/// The timed region is exactly one `run_trace` call.
pub fn replay(mut server: OnlineServer, trace: &Trace) -> Replay {
    let started = Instant::now();
    let outcome = server.run_trace(&trace.requests, &trace.cancels);
    let wall_s = started.elapsed().as_secs_f64();
    let events = server.poll_events();
    Replay {
        wall_s,
        server,
        outcome,
        events,
    }
}

/// Everything deterministic a replay produced, in virtual time. Two
/// replays of one trace on one commit must give equal summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Submissions attempted (the trace length).
    pub attempted: usize,
    pub completed: usize,
    pub cancelled: usize,
    pub rejected: usize,
    pub shed: usize,
    pub deadline_missed: usize,
    pub chip_lost: usize,
    /// Prompt tokens of completed sequences plus every streamed token.
    pub served_tokens: u64,
    pub ttft_p50_ms: f64,
    pub ttft_tail: Tail,
    pub tpot_p50_ms: f64,
    pub tpot_tail: Tail,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_tail: Tail,
    /// Completed within both SLO limits, as a share of `attempted`.
    pub goodput_share: f64,
    /// FNV-1a-64 over `(SeqId, tokens)` of every accepted sequence.
    pub digest: u64,
    pub events: usize,
}

impl Summary {
    pub fn of(trace: &Trace, replay: &Replay) -> Self {
        let report = &replay.outcome.report;
        let slo = &report.slo;
        let attempted = trace.requests.len();

        // Inter-token gaps and per-sequence first/last token stamps, from
        // the streamed `Token` events.
        let n = report.outcomes.len();
        let mut first = vec![f64::NAN; n];
        let mut last = vec![f64::NAN; n];
        let mut gaps_ms = Vec::new();
        for e in &replay.events {
            if let ServeEvent::Token { id, t_s, .. } = *e {
                if first[id.0].is_nan() {
                    first[id.0] = t_s;
                } else {
                    gaps_ms.push((t_s - last[id.0]) * 1e3);
                }
                last[id.0] = t_s;
            }
        }

        let request_of = request_index(&replay.outcome);
        let mut ttft_ms = Vec::new();
        let mut queue_wait_ms = Vec::new();
        let mut served_tokens = 0u64;
        let mut good = 0usize;
        let mut digest = Fnv1a::new();
        for o in &report.outcomes {
            digest.write_u64(o.id.0 as u64);
            digest.write_u64(o.tokens.len() as u64);
            for &t in &o.tokens {
                digest.write_u64(u64::from(t));
            }
            served_tokens += o.tokens.len() as u64;
            if let Some(admitted) = o.admitted_s {
                queue_wait_ms.push((admitted - o.arrival_s) * 1e3);
            }
            if o.state != SeqState::Finished {
                continue;
            }
            served_tokens += trace.requests[request_of[o.id.0]].prompt.len() as u64;
            let Some(ttft) = o.ttft_s else { continue };
            ttft_ms.push(ttft * 1e3);
            let mean_gap_ms = if o.tokens.len() > 1 {
                (last[o.id.0] - first[o.id.0]) * 1e3 / (o.tokens.len() - 1) as f64
            } else {
                0.0
            };
            if ttft * 1e3 <= SLO_TTFT_MS && mean_gap_ms <= SLO_GAP_MS {
                good += 1;
            }
        }

        Summary {
            attempted,
            completed: slo.completed,
            cancelled: slo.cancelled,
            rejected: slo.rejected,
            shed: slo.shed,
            deadline_missed: slo.deadline_missed,
            chip_lost: slo.chip_lost,
            served_tokens,
            ttft_p50_ms: stats::median(&ttft_ms),
            ttft_tail: stats::tail(&ttft_ms),
            tpot_p50_ms: stats::median(&gaps_ms),
            tpot_tail: stats::tail(&gaps_ms),
            queue_wait_p50_ms: stats::median(&queue_wait_ms),
            queue_wait_tail: stats::tail(&queue_wait_ms),
            goodput_share: good as f64 / attempted as f64,
            digest: digest.finish(),
            events: replay.events.len(),
        }
    }

    /// Requests the server refused, shed, timed out or lost.
    pub fn refused_or_dropped(&self) -> usize {
        self.rejected + self.shed + self.deadline_missed + self.chip_lost
    }

    /// Refused, dropped and wrong (`mismatches`) requests as a share of
    /// those attempted.
    pub fn failed_share(&self, mismatches: usize) -> f64 {
        (self.refused_or_dropped() + mismatches) as f64 / self.attempted as f64
    }

    /// The virtual-time statistics and counts printed beside the metrics:
    /// each tail with the percentile the sample supported and its size.
    pub fn detail(&self, mismatches: usize, round_s: f64) -> Value {
        let n = Value::Number;
        let tail = |t: &Tail| {
            object([
                ("value", n(t.value)),
                ("percentile", n(f64::from(t.percentile))),
                ("n", count(t.n)),
            ])
        };
        object([
            ("round_us", n(round_s * 1e6)),
            ("sim_ttft_p50_ms", n(self.ttft_p50_ms)),
            ("sim_ttft_tail_ms", tail(&self.ttft_tail)),
            ("sim_tpot_p50_ms", n(self.tpot_p50_ms)),
            ("sim_tpot_tail_ms", tail(&self.tpot_tail)),
            ("slo_goodput_share", n(self.goodput_share)),
            ("failed_share", n(self.failed_share(mismatches))),
            ("attempted", count(self.attempted)),
            ("succeeded", count(self.completed)),
            ("cancelled", count(self.cancelled)),
            ("rejected", count(self.rejected)),
            ("shed", count(self.shed)),
            ("deadline_missed", count(self.deadline_missed)),
            ("chip_lost", count(self.chip_lost)),
            ("stream_mismatches", count(mismatches)),
        ])
    }
}

/// `SeqId` -> index of the request in the trace (rejected submissions
/// take no `SeqId`).
pub fn request_index(outcome: &TraceOutcome) -> Vec<usize> {
    let mut request_of = vec![0; outcome.report.outcomes.len()];
    for (i, s) in outcome.submissions.iter().enumerate() {
        if let Ok(id) = s {
            request_of[id.0] = i;
        }
    }
    request_of
}

/// One untraced repetition.
pub struct Rep {
    pub setup_s: f64,
    pub replay: Replay,
    pub trace: Trace,
}

pub fn repetition(w: &Workload, seed: u64) -> Rep {
    let started = Instant::now();
    let (server, trace) = set_up(w, seed);
    let setup_s = started.elapsed().as_secs_f64();
    let replay = replay(server, &trace);
    Rep {
        setup_s,
        replay,
        trace,
    }
}

/// `VmHWM` of this process in MiB (0.0 where `/proc` has none).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
