//! POPCNT accumulator-slice allocation.
//!
//! The prefabricated Sea-of-Neurons array contains, per neuron, a pool of
//! identical accumulator *slices* sized before any weights are known
//! (§3.1: "the accumulators could be implemented as multiple slices and be
//! reconfigurable through metal wires"). The ME compiler assigns slices to
//! the 16 weight-value regions according to the actual code histogram;
//! unused ports are grounded. This module is that assignment.

use hnlpu_model::fp4::NUM_CODES;
use std::error::Error;
use std::fmt;

/// The prefabricated slice pool of one neuron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicePool {
    /// Inputs each slice can count.
    pub slice_inputs: usize,
    /// Number of prefabricated slices.
    pub slices: usize,
    /// Most slices any single region may claim: borrowing works through
    /// metal, but only from physically adjacent slices, so a region is
    /// capped at a few times its uniform share.
    pub max_region_slices: usize,
}

impl SlicePool {
    /// Provision a pool for `fan_in` weights with `slack` head-room
    /// (the paper's "sufficient slackness").
    ///
    /// # Panics
    ///
    /// Panics if `fan_in == 0`, `slice_inputs == 0` or `slack < 1.0`.
    pub(crate) fn provision(fan_in: usize, slack: f64, slice_inputs: usize) -> Self {
        assert!(fan_in > 0, "fan_in must be positive");
        assert!(slice_inputs > 0, "slice_inputs must be positive");
        assert!(slack >= 1.0, "slack must be >= 1.0");
        let capacity = (fan_in as f64 * slack).ceil() as usize;
        // Base slices for the capacity, plus per-region rounding head-room
        // (each of the 16 regions can waste up to one slice to granularity).
        let slices = capacity.div_ceil(slice_inputs) + (NUM_CODES - 1);
        let uniform = capacity.div_ceil(NUM_CODES);
        let max_region_slices = uniform.div_ceil(slice_inputs).max(1) * 4;
        SlicePool {
            slice_inputs,
            slices,
            max_region_slices,
        }
    }
}

/// Failure to fit a histogram into a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionAllocError {
    /// Total slice demand exceeds the pool.
    PoolExhausted {
        /// Slices the histogram demands.
        demanded: usize,
        /// Slices the pool offers.
        available: usize,
    },
    /// One region demands more adjacent slices than borrowing allows.
    RegionOverflow {
        /// FP4 code of the overflowing region.
        code: u8,
        /// Slices that region demands.
        demanded: usize,
        /// Borrow limit per region.
        available: usize,
    },
}

impl fmt::Display for RegionAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionAllocError::PoolExhausted {
                demanded,
                available,
            } => write!(
                f,
                "weight histogram demands {demanded} accumulator slices but the prefab pool has {available}"
            ),
            RegionAllocError::RegionOverflow {
                code,
                demanded,
                available,
            } => write!(
                f,
                "region for FP4 code {code} demands {demanded} slices but adjacency-limited borrowing allows {available}"
            ),
        }
    }
}

impl Error for RegionAllocError {}

/// A successful slice assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAllocation {
    /// Slices granted to each of the 16 regions.
    pub slices_per_region: [usize; NUM_CODES],
    /// Ports left grounded (capacity minus wired weights).
    pub grounded_ports: usize,
    /// The pool that was allocated from.
    pub pool: SlicePool,
}

impl RegionAllocation {
    /// Assign slices of `pool` to regions according to `histogram`
    /// (weights per FP4 code).
    ///
    /// # Errors
    ///
    /// Returns [`RegionAllocError`] if the histogram's slice demand exceeds
    /// the pool — the weight vector is too imbalanced for the prefab
    /// provisioning and needs a larger `slack`.
    pub(crate) fn allocate(
        histogram: &[u64; NUM_CODES],
        pool: SlicePool,
    ) -> Result<Self, RegionAllocError> {
        let mut slices_per_region = [0usize; NUM_CODES];
        let mut demanded = 0usize;
        for (code, &count) in histogram.iter().enumerate() {
            let need = (count as usize).div_ceil(pool.slice_inputs);
            if need > pool.max_region_slices {
                return Err(RegionAllocError::RegionOverflow {
                    code: code as u8,
                    demanded: need,
                    available: pool.max_region_slices,
                });
            }
            slices_per_region[code] = need;
            demanded += need;
        }
        if demanded > pool.slices {
            return Err(RegionAllocError::PoolExhausted {
                demanded,
                available: pool.slices,
            });
        }
        let wired: u64 = histogram.iter().sum();
        let used_capacity: usize = slices_per_region.iter().sum::<usize>() * pool.slice_inputs;
        Ok(RegionAllocation {
            slices_per_region,
            grounded_ports: used_capacity - wired as usize,
            pool,
        })
    }

    /// Countable inputs granted to `code`'s region.
    pub fn region_capacity(&self, code: u8) -> usize {
        self.slices_per_region[code as usize] * self.pool.slice_inputs
    }

    /// Slices left unassigned in the pool.
    pub fn spare_slices(&self) -> usize {
        self.pool.slices - self.slices_per_region.iter().sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_hist(total: u64) -> [u64; NUM_CODES] {
        let mut h = [total / NUM_CODES as u64; NUM_CODES];
        h[0] += total % NUM_CODES as u64;
        h
    }

    #[test]
    fn uniform_histogram_fits_with_modest_slack() {
        let pool = SlicePool::provision(2880, 1.25, 64);
        let alloc = RegionAllocation::allocate(&uniform_hist(2880), pool).unwrap();
        assert!(alloc.spare_slices() < pool.slices);
        // Every wired weight has a port.
        for code in 0..NUM_CODES as u8 {
            assert!(alloc.region_capacity(code) as u64 >= uniform_hist(2880)[code as usize]);
        }
    }

    #[test]
    fn pathological_histogram_overflows() {
        // All 2880 weights share one value: that region demands 16x its
        // uniform share, far beyond the 4x adjacency-limited borrow cap.
        let pool = SlicePool::provision(2880, 1.25, 64);
        let mut h = [0u64; NUM_CODES];
        h[3] = 2880;
        let err = RegionAllocation::allocate(&h, pool).unwrap_err();
        assert!(matches!(
            err,
            RegionAllocError::RegionOverflow { code: 3, demanded, available } if demanded > available
        ));
        assert!(err.to_string().contains("slices"));
    }

    #[test]
    fn pool_exhaustion_detected() {
        // Four heavy regions, each within its borrow cap, can still
        // collectively exhaust the pool.
        let pool = SlicePool::provision(1024, 1.0, 16);
        let mut h = [0u64; NUM_CODES];
        for code in [0usize, 1, 2, 3, 4, 5, 6, 7] {
            h[code] = 256; // each needs 16 slices; cap is 4*ceil(64/16)=16
        }
        let err = RegionAllocation::allocate(&h, pool).unwrap_err();
        assert!(matches!(err, RegionAllocError::PoolExhausted { .. }));
    }

    #[test]
    fn grounded_ports_accounting() {
        let pool = SlicePool::provision(100, 1.5, 10);
        let mut h = [0u64; NUM_CODES];
        h[0] = 35;
        h[1] = 6;
        let alloc = RegionAllocation::allocate(&h, pool).unwrap();
        // 35 -> 4 slices (40 ports), 6 -> 1 slice (10 ports): 9 grounded.
        assert_eq!(alloc.grounded_ports, 9);
    }

    #[test]
    fn pool_capacity() {
        let pool = SlicePool::provision(1000, 1.25, 64);
        assert!(pool.slice_inputs * pool.slices >= 1250);
        assert!(pool.slices >= NUM_CODES);
    }

    #[test]
    #[should_panic(expected = "slack")]
    fn bad_slack_rejected() {
        SlicePool::provision(100, 0.9, 64);
    }

    proptest! {
        #[test]
        fn realistic_histograms_fit(seed in 0u64..500) {
            // Histograms drawn from the synthetic weight distribution must
            // fit the default provisioning (slack 1.25, 64-input slices) —
            // this is the guarantee the Sea-of-Neurons prefab relies on.
            use hnlpu_model::{WeightGenerator, WeightKind, WeightMatrix};
            let g = WeightGenerator::new(seed);
            let m = WeightMatrix::new(WeightKind::Query, 2880, 1);
            let h = g.code_histogram(0, &m);
            let pool = SlicePool::provision(2880, 1.25, 64);
            prop_assert!(RegionAllocation::allocate(&h, pool).is_ok());
        }

        #[test]
        fn allocation_covers_every_weight(
            counts in prop::collection::vec(0u64..200, NUM_CODES..=NUM_CODES)
        ) {
            let mut h = [0u64; NUM_CODES];
            h.copy_from_slice(&counts);
            let total: u64 = h.iter().sum();
            if total == 0 { return Ok(()); }
            let pool = SlicePool::provision(total as usize, 2.0, 16);
            if let Ok(alloc) = RegionAllocation::allocate(&h, pool) {
                for (code, &count) in h.iter().enumerate() {
                    prop_assert!(alloc.region_capacity(code as u8) as u64 >= count);
                }
                let cap_used: usize = alloc.slices_per_region.iter().sum::<usize>() * 16;
                prop_assert_eq!(alloc.grounded_ports as u64, cap_used as u64 - total);
            }
        }
    }
}
