//! The metric tables: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` is generated from
//! these tables (`--manifest`), `--compare` reads its bounds from them, and
//! a run that fails to produce a listed metric is a harness bug.

use crate::json::{object, text};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How two runs of one commit on one seed may differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repeat {
    /// A deterministic virtual-time statistic or count: any difference is
    /// a benchmark bug, and a change that moves one has changed
    /// scheduling behaviour and must say so.
    Exact,
    /// Host time or memory: may worsen by this share before `--compare`
    /// fails.
    Within(f64),
    /// Host-time layer figure: printed, never gated.
    Informational,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub repeat: Repeat,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        repeat: Repeat::Within(bound),
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        repeat: Repeat::Exact,
    }
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        repeat: Repeat::Informational,
    }
}

use Better::{Higher, Lower};

/// Bound `BENCHMARK.json` carries for the virtual-time end-to-end
/// metrics. They repeat exactly on one seed (and `--compare` holds them to
/// that); across the seeds the driver draws they move with the trace, and
/// the manifest bound has to cover that spread.
pub const ACROSS_SEEDS_BOUND: f64 = 0.25;

/// What a user of the serving system sees (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    host("setup_s", "s", Lower, 0.25),
    // Medians of 15 s runs on the 2-shared-core reference box sit 4-10 %
    // apart (quartile distance over ten seeds), up to 18 % in a bad
    // quarter of an hour, and two sets of ten drifted by up to 15 %;
    // longer runs do not narrow that, the host's speed drifts over
    // minutes. A tighter bound would fail on noise alone.
    host("served_tokens_per_s", "tok/s", Higher, 0.25),
    // Moves 2-5 % with the seed's resident set and the allocator.
    host("peak_rss_mib", "MiB", Lower, 0.20),
    exact("sim_ttft_p50_ms", "ms", Lower),
    exact("sim_ttft_tail_ms", "ms", Lower),
    exact("sim_decode_tokens_per_s", "tok/s", Higher),
    exact("sim_makespan_s", "s", Lower),
    exact("slo_goodput_share", "ratio", Higher),
];

/// Single layers, measured from outside (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    // 0 on the fault-free workloads, so it cannot carry a relative bound
    // as an end-to-end metric. (The inter-token gap statistics are whole
    // rounds, the same on every seed; they stay in the full result's
    // `virtual` object only.)
    exact("failed_share", "ratio", Lower),
    // workload
    info("workload.generate_s", "s", Lower),
    exact("workload.requests", "count", Higher),
    exact("workload.prompt_tokens", "tokens", Higher),
    exact("workload.decode_tokens_requested", "tokens", Higher),
    exact("workload.shared_prompt_share", "ratio", Higher),
    // model
    info("model.materialize_s", "s", Lower),
    exact("model.packed_weight_mib", "MiB", Lower),
    // kernels
    info("kernels.matvec_attn_ns", "ns", Lower),
    info("kernels.matvec_expert_ns", "ns", Lower),
    info("kernels.matvec_unembed_ns", "ns", Lower),
    info("kernels.matmul_panel64_ns_per_token", "ns/token", Lower),
    info("kernels.matvec_gbytes_per_s", "GB/s", Higher),
    info("kernels.matvec_gflops", "GFLOP/s", Higher),
    exact("kernels.bytes_per_decode_token", "bytes", Lower),
    exact("kernels.flops_per_decode_token", "flops", Lower),
    info("kernels.decode_step_share", "ratio", Lower),
    info("kernels.prefill_step_share", "ratio", Lower),
    // reference
    info("reference.decode_ns_per_token", "ns/token", Lower),
    info("reference.prefill_ns_per_token", "ns/token", Lower),
    // dataflow
    info("dataflow.decode_ns_per_token_ctx16", "ns/token", Lower),
    info("dataflow.decode_ns_per_token_ctx256", "ns/token", Lower),
    info("dataflow.attn_ns_per_ctx_position", "ns", Lower),
    info("dataflow.decode_ns_per_token", "ns/token", Lower),
    info("dataflow.prefill_ns_per_token", "ns/token", Lower),
    info("dataflow.placement_overhead", "ratio", Lower),
    exact("dataflow.comm_bytes_per_token", "bytes", Lower),
    exact("dataflow.all_reduces_per_token", "count", Lower),
    info("dataflow.sequential_total_s", "s", Lower),
    // sampler
    info("sampler.greedy_ns_per_token", "ns/token", Lower),
    // kv_cache
    info("kv_cache.append_ns_per_position", "ns", Lower),
    info("kv_cache.read_ns_per_position", "ns", Lower),
    info("kv_cache.match_ns_per_lookup", "ns", Lower),
    info("kv_cache.commit_ns_per_block", "ns", Lower),
    info("kv_cache.release_ns_per_grant", "ns", Lower),
    exact("kv_cache.hit_rate", "ratio", Higher),
    exact("kv_cache.reused_position_share", "ratio", Higher),
    exact("kv_cache.committed_blocks", "count", Lower),
    exact("kv_cache.evicted_pages", "count", Lower),
    exact("kv_cache.evicted_per_committed_page", "ratio", Lower),
    exact("kv_cache.peak_kv_logical_mib", "MiB", Lower),
    exact("kv_cache.peak_kv_owned_mib", "MiB", Lower),
    exact("kv_cache.owned_over_logical", "ratio", Lower),
    // scheduler
    info("scheduler.plan_s", "s", Lower),
    info("scheduler.plan_us_per_round", "us", Lower),
    exact("scheduler.rounds", "count", Lower),
    exact("scheduler.mean_occupancy", "ratio", Higher),
    exact("scheduler.analytical_decode_tokens_per_s", "tok/s", Higher),
    exact("scheduler.analytical_over_served", "ratio", Higher),
    // batch
    info("batch.execute_plan_s", "s", Lower),
    info("batch.tokens_per_s", "tok/s", Higher),
    exact("batch.mean_slots_per_round", "count", Higher),
    exact("batch.mean_decode_batch", "count", Higher),
    exact("batch.peak_resident", "count", Higher),
    exact("batch.prefill_panels", "count", Lower),
    exact("batch.mean_panel_tokens", "tokens", Higher),
    info("batch.speedup_vs_sequential", "ratio", Higher),
    // serve
    info("serve.replay_wall_s", "s", Lower),
    info("serve.replay_wall_iqr_share", "ratio", Lower),
    info("serve.us_per_round", "us", Lower),
    exact("serve.rounds", "count", Lower),
    exact("serve.prefill_tokens", "tokens", Lower),
    exact("serve.decoded_tokens", "tokens", Higher),
    info("serve.self_s", "s", Lower),
    info("serve.self_share", "ratio", Lower),
    info("serve.unattributed_share", "ratio", Lower),
    exact("serve.queue_wait_p50_ms", "ms", Lower),
    exact("serve.queue_wait_tail_ms", "ms", Lower),
    exact("serve.peak_resident", "count", Higher),
    exact("serve.events_per_round", "count", Lower),
    exact("serve.rejected", "count", Lower),
    exact("serve.cancelled", "count", Lower),
    exact("serve.completed", "count", Higher),
    // fault
    exact("fault.evictions", "count", Lower),
    exact("fault.resumed", "count", Higher),
    exact("fault.re_prefill_token_share", "ratio", Lower),
    exact("fault.degraded_round_share", "ratio", Lower),
    exact("fault.link_retry_rounds", "count", Lower),
    exact("fault.shed", "count", Lower),
    exact("fault.deadline_missed", "count", Lower),
    exact("fault.chip_lost", "count", Lower),
    exact("fault.sim_ttft_degraded_p50_ms", "ms", Lower),
    exact("fault.sim_ttft_degraded_p99_ms", "ms", Lower),
    info("fault.healthy_replay_wall_s", "s", Lower),
    info("fault.host_overhead_share", "ratio", Lower),
    // harness
    info("trace_overhead_share", "ratio", Lower),
];

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for exactly the metrics of
    /// `table`, in table order.
    ///
    /// # Panics
    ///
    /// Panics when a listed metric was not measured or is not finite:
    /// that is a bug in this harness, not a result.
    pub fn render(&self, table: &[Metric]) -> Value {
        object(table.iter().map(|m| {
            let value = self
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            assert!(value.is_finite(), "metric {} is {value}", m.name);
            let measured = object([("value", Value::Number(value)), ("unit", text(m.unit))]);
            (m.name, measured)
        }))
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest(run_seconds: u64) -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let described = |m: &Metric| {
        [
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ]
    };
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|w| object([("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let bound = match m.repeat {
                Repeat::Within(b) => b,
                _ => ACROSS_SEEDS_BOUND,
            };
            object(
                described(m)
                    .into_iter()
                    .chain([("bound", Value::Number(bound))]),
            )
        })
        .collect();
    let per_layer = PER_LAYER.iter().map(|m| object(described(m))).collect();
    object([
        (
            "command",
            Value::Array(command.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::Number(run_seconds as f64)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ])
}
