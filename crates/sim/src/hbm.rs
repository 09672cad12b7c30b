//! KV-cache capacity/bandwidth accounting: Attention Buffer vs HBM.
//!
//! The Attention Buffer holds the KV working sets of the attention
//! operations inside the double-buffering horizon (the ops currently
//! streaming plus their prefetch successors). When that staging footprint
//! outgrows the 320 MB buffer, the shortfall streams from HBM with a
//! latency penalty — the Figure-14 "stall" component, which first appears
//! between 256 K and 512 K context.

use crate::config::SimConfig;

/// KV-cache placement model for one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KvCacheModel {
    buffer_bytes: u64,
    hbm_bytes: u64,
    kv_bytes_per_token: u64,
    /// Attention ops staged in the buffer at once (in-flight + prefetch).
    pub staged_ops: u32,
}

impl KvCacheModel {
    /// Build from a simulator config.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        KvCacheModel {
            buffer_bytes: cfg.buffer_bytes,
            hbm_bytes: cfg.hbm_bytes,
            kv_bytes_per_token: cfg.kv_bytes_per_token_layer_chip,
            staged_ops: 12,
        }
    }

    /// Working-set bytes of one attention op at `context` (the chip's
    /// quarter of the sequence).
    pub(crate) fn working_set_bytes(&self, context: u64) -> u64 {
        context / 4 * self.kv_bytes_per_token
    }

    /// Bytes the staging horizon wants resident.
    pub(crate) fn staging_bytes(&self, context: u64) -> u64 {
        self.staged_ops as u64 * self.working_set_bytes(context)
    }

    /// Fraction of attention traffic that must stream from HBM instead of
    /// the buffer (0 when staging fits).
    pub(crate) fn spill_fraction(&self, context: u64) -> f64 {
        let staging = self.staging_bytes(context) as f64;
        if staging <= self.buffer_bytes as f64 {
            0.0
        } else {
            1.0 - self.buffer_bytes as f64 / staging
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KvCacheModel {
        KvCacheModel::new(&SimConfig::paper_default())
    }

    #[test]
    fn no_spill_up_to_256k() {
        let m = model();
        for ctx in [2048u64, 8192, 65_536, 131_072, 262_144] {
            assert_eq!(m.spill_fraction(ctx), 0.0, "ctx = {ctx}");
        }
    }

    #[test]
    fn spill_at_512k_is_about_20_percent() {
        // Calibrated so the exposed stall is 10.7% of per-token time.
        let f = model().spill_fraction(524_288);
        assert!((f - 0.20).abs() < 0.05, "spill = {f}");
    }

    #[test]
    fn spill_grows_monotonically() {
        let m = model();
        assert!(m.spill_fraction(1_048_576) > m.spill_fraction(524_288));
    }

    #[test]
    fn hbm_bounds_batch_times_context() {
        let m = model();
        // 216-sequence batch over 36 layers: HBM holds ~100K context.
        let full_kv = |context: u64| 216 * 36 * context * m.kv_bytes_per_token;
        assert!(full_kv(50_000) <= m.hbm_bytes);
        assert!(full_kv(200_000) > m.hbm_bytes);
    }

    #[test]
    fn working_set_at_512k() {
        // 512K/4 tokens x 256 B = 33.6 MB per op.
        let ws = model().working_set_bytes(524_288);
        assert_eq!(ws, 524_288 / 4 * 256);
    }
}
