//! LoRA side-channel adapters (§8 future work 4): "adding ~1%
//! field-programmable HNs at side-channel to accommodate dynamic weights."
//!
//! A hardwired matrix `W` is augmented with a low-rank, field-programmable
//! update `A·B` (rank `r ≪ min(rows, cols)`), computed by a small bank of
//! conventional (SRAM-weighted) MAC units beside the HN array:
//! `y = x·W + scale · (x·A)·B`. The hardwired weights never change; only
//! the tiny adapter memory is rewritten in the field.

use crate::tensor::vec_mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A low-rank adapter for one weight matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LoraAdapter {
    /// Input dimension (matches the hardwired matrix's rows).
    pub rows: usize,
    /// Output dimension (matches the hardwired matrix's cols).
    pub cols: usize,
    /// Adapter rank.
    pub rank: usize,
    /// Scaling factor (`alpha / rank` in LoRA terms).
    pub scale: f32,
    /// Down projection `A` (`rows × rank`), row-major.
    pub a: Vec<f32>,
    /// Up projection `B` (`rank × cols`), row-major.
    pub b: Vec<f32>,
}

impl LoraAdapter {
    /// A zero-initialized adapter (`B = 0`, so the update is the identity —
    /// the standard LoRA initialization).
    pub fn zeros(rows: usize, cols: usize, rank: usize, scale: f32) -> Self {
        let mut adapter = Self::seeded(rows, cols, rank, scale, 0);
        adapter.b = vec![0.0; rank * cols];
        adapter
    }

    /// A seeded random adapter (for tests and synthetic updates).
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `rank` exceeds either dimension.
    pub fn seeded(rows: usize, cols: usize, rank: usize, scale: f32, seed: u64) -> Self {
        assert!(rank > 0 && rank <= rows.min(cols), "invalid rank {rank}");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10_5A);
        let norm_a = 1.0 / (rows as f32).sqrt();
        let norm_b = 1.0 / (rank as f32).sqrt();
        LoraAdapter {
            rows,
            cols,
            rank,
            scale,
            a: (0..rows * rank)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * norm_a)
                .collect(),
            b: (0..rank * cols)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * norm_b)
                .collect(),
        }
    }

    /// Apply the adapter: `delta = scale · (x·A)·B`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn delta(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "input dimension");
        let hidden = vec_mat(x, &self.a, self.rank);
        let mut out = vec_mat(&hidden, &self.b, self.cols);
        for v in &mut out {
            *v *= self.scale;
        }
        out
    }

    /// Allocation-free [`delta`](Self::delta): write `scale · (x·A)·B`
    /// into `out`, using `hidden` as the reusable rank-`r` intermediate
    /// (resized on demand; steady state allocates nothing).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn delta_into(&self, x: &[f32], hidden: &mut Vec<f32>, out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "input dimension");
        assert_eq!(out.len(), self.cols, "output dimension");
        hidden.resize(self.rank, 0.0);
        crate::tensor::vec_mat_into(x, &self.a, self.rank, hidden);
        crate::tensor::vec_mat_into(hidden, &self.b, self.cols, out);
        for v in out.iter_mut() {
            *v *= self.scale;
        }
    }

    /// Adapted projection: `x·W + delta(x)` given the hardwired output.
    ///
    /// Allocating convenience wrapper — the decode hot path uses
    /// [`delta_into`](Self::delta_into) instead.
    pub fn apply(&self, hardwired: &[f32], x: &[f32]) -> Vec<f32> {
        let mut out = hardwired.to_vec();
        for (o, d) in out.iter_mut().zip(self.delta(x)) {
            *o += d;
        }
        out
    }

    /// Field-programmable parameters this adapter stores.
    pub fn params(&self) -> usize {
        self.a.len() + self.b.len()
    }

    /// Adapter parameters as a fraction of the hardwired matrix — the
    /// paper's "~1%" side-channel budget.
    #[cfg(test)]
    pub fn overhead_fraction(&self) -> f64 {
        self.params() as f64 / (self.rows * self.cols) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_init_is_identity() {
        let adapter = LoraAdapter::zeros(64, 32, 4, 2.0);
        let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.1).collect();
        let base = vec![1.0f32; 32];
        assert_eq!(adapter.apply(&base, &x), base);
    }

    #[test]
    fn delta_matches_dense_low_rank_product() {
        let adapter = LoraAdapter::seeded(16, 8, 2, 0.5, 3);
        let x: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        // Dense AB product.
        let mut ab = vec![0.0f32; 16 * 8];
        for r in 0..16 {
            for c in 0..8 {
                let mut s = 0.0;
                for k in 0..2 {
                    s += adapter.a[r * 2 + k] * adapter.b[k * 8 + c];
                }
                ab[r * 8 + c] = s * 0.5;
            }
        }
        let dense = vec_mat(&x, &ab, 8);
        let low_rank = adapter.delta(&x);
        for (d, l) in dense.iter().zip(low_rank.iter()) {
            assert!((d - l).abs() < 1e-4, "{d} vs {l}");
        }
    }

    #[test]
    fn rank_16_on_gpt_oss_qkv_is_about_one_percent() {
        // hidden 2880 -> q width 4096 at rank 16: (2880+4096)*16 params vs
        // 2880*4096 hardwired = 0.95%.
        let adapter = LoraAdapter::zeros(2880, 4096, 16, 1.0);
        let f = adapter.overhead_fraction();
        assert!(f > 0.005 && f < 0.015, "overhead = {f}");
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = LoraAdapter::seeded(8, 8, 2, 1.0, 9);
        let b = LoraAdapter::seeded(8, 8, 2, 1.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid rank")]
    fn oversized_rank_rejected() {
        LoraAdapter::zeros(4, 4, 5, 1.0);
    }

    #[test]
    fn delta_into_matches_delta() {
        let adapter = LoraAdapter::seeded(24, 12, 3, 1.5, 7);
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut hidden = Vec::new();
        let mut out = vec![0.0f32; 12];
        adapter.delta_into(&x, &mut hidden, &mut out);
        assert_eq!(out, adapter.delta(&x));
    }

    #[test]
    fn nonzero_adapter_changes_output() {
        let adapter = LoraAdapter::seeded(32, 16, 4, 1.0, 1);
        let x = vec![1.0f32; 32];
        let base = vec![0.0f32; 16];
        assert_ne!(adapter.apply(&base, &x), base);
    }
}
