//! The one CPU selector: which vector arm this process runs.
//!
//! Every loop compiled once per lane width takes its arm from [`arm`]:
//! `hnlpu-llm`'s half-unit matmul and lane kernels, and the synthetic
//! weights' sampler in this crate. One answer therefore names them all
//! (`hnlpu_llm::kernels::kernel_path`). An arm changes only how many lanes
//! advance together, never a bit of a result.

use std::sync::OnceLock;

/// A vector arm of this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// AVX-512 F, BW, DQ and VL, on a CPU that also reports AVX2+FMA.
    Avx512,
    /// AVX2+FMA.
    Avx2,
    /// Neither: the portable loops.
    Portable,
}

/// The arm this process runs: the widest whose features the CPU reports,
/// asked once per process. Every kernel call reads it, so past the first
/// call it is one load.
#[inline]
pub fn arm() -> Arm {
    static ARM: OnceLock<Arm> = OnceLock::new();
    *ARM.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2") && has!("fma");
            let avx512 =
                has!("avx512f") && has!("avx512bw") && has!("avx512dq") && has!("avx512vl");
            if avx2 && avx512 {
                return Arm::Avx512;
            }
            if avx2 {
                return Arm::Avx2;
            }
        }
        Arm::Portable
    })
}
