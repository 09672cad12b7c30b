//! The one CPU selector: which vector arm this process runs, and the one
//! macro that compiles a body per arm.
//!
//! Every loop compiled once per lane width is written once inside
//! [`per_arm!`], which compiles it under the features [`arm`] detects and
//! dispatches on it: `hnlpu-llm`'s half-unit matmul, unembedding, column
//! attention and lane `exp`, and the synthetic weights' sampler in this
//! crate. One answer therefore names them all
//! (`hnlpu_llm::kernels::kernel_path`). Each body is a fixed sequence of
//! IEEE-754 operations per lane, so an arm changes only how many lanes
//! advance together, never a bit of a result; the per-arm tests call every
//! arm of [`available`] through the `_on` entries and hold them to the same
//! bits, the portable arm included.

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

/// Every arm, narrowest first: each one's features include the narrower
/// ones'.
const ARMS: [Arm; 3] = [Arm::Portable, Arm::Avx2, Arm::Avx512];

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

/// The arms this CPU runs, narrowest first: [`Arm::Portable`] up to
/// [`arm`].
pub fn available() -> &'static [Arm] {
    let widest = ARMS.iter().position(|&a| a == arm()).unwrap_or(0);
    &ARMS[..=widest]
}

/// Define `$name(..)`, which runs the body on this CPU's [`arm`], and
/// `$name_on(arm, ..)`, which runs it on `arm` and panics unless the CPU
/// runs that arm (it is in [`available`]); `fn $name_on(..)` alone defines
/// only the second.
///
/// The body is compiled once per arm: under `#[target_feature]` with
/// exactly the features [`arm`] detects (AVX-512 F/BW/DQ/VL with AVX2+FMA;
/// AVX2+FMA) on x86-64, and once with none. `<V>` after the names gives
/// the body the arm's lane vector as `V`: `__m512`, `__m256` or `f32`.
/// Generic parameters follow in square brackets; the arguments are plain
/// `name: type` pairs (rebind one in the body to make it `mut`).
///
/// ```
/// hnlpu_model::arm::per_arm! {
///     /// Every element doubled, in place.
///     pub fn double, double_on(xs: &mut [f32]) {
///         for x in xs {
///             *x *= 2.0;
///         }
///     }
/// }
/// let mut want = [1.0, -0.5];
/// double(&mut want);
/// for &arm in hnlpu_model::arm::available() {
///     let mut xs = [1.0, -0.5];
///     double_on(arm, &mut xs);
///     assert_eq!(xs, want);
/// }
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! __per_arm {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident, $on:ident $(<$lane:ident>)? $([$($gen:tt)*])?
            ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? { $($body:tt)* }
    ) => {
        $(#[$attr])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        $vis fn $name $(<$($gen)*>)? ($($arg: $ty),*) $(-> $ret)? {
            $on($crate::arm::arm(), $($arg),*)
        }

        $crate::arm::per_arm! {
            #[doc = concat!("[`", stringify!($name), "`] on `arm`.")]
            $vis fn $on $(<$lane>)? $([$($gen)*])? ($($arg: $ty),*) $(-> $ret)? { $($body)* }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $on:ident $(<$lane:ident>)? $([$($gen:tt)*])?
            ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? { $($body:tt)* }
    ) => {
        $(#[$attr])*
        ///
        /// # Panics
        ///
        /// Panics unless this CPU runs `arm`.
        #[allow(clippy::too_many_arguments)]
        $vis fn $on $(<$($gen)*>)? (arm: $crate::arm::Arm, $($arg: $ty),*) $(-> $ret)? {
            assert!(
                $crate::arm::available().contains(&arm),
                "this CPU does not run the {arm:?} arm"
            );
            match arm {
                #[cfg(target_arch = "x86_64")]
                $crate::arm::Arm::Avx512 => {
                    /// # Safety
                    ///
                    /// The CPU must run the AVX-512 arm.
                    #[target_feature(enable = "avx2,fma,avx512f,avx512bw,avx512dq,avx512vl")]
                    #[allow(clippy::too_many_arguments)]
                    unsafe fn avx512 $(<$($gen)*>)? ($($arg: $ty),*) $(-> $ret)? {
                        $(type $lane = ::core::arch::x86_64::__m512;)?
                        $($body)*
                    }
                    // SAFETY: `available` lists this arm only where `arm()`
                    // detected every one of its features.
                    unsafe { avx512($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                $crate::arm::Arm::Avx2 => {
                    /// # Safety
                    ///
                    /// The CPU must run the AVX2 arm.
                    #[target_feature(enable = "avx2,fma")]
                    #[allow(clippy::too_many_arguments)]
                    unsafe fn avx2 $(<$($gen)*>)? ($($arg: $ty),*) $(-> $ret)? {
                        $(type $lane = ::core::arch::x86_64::__m256;)?
                        $($body)*
                    }
                    // SAFETY: as above, for AVX2 and FMA.
                    unsafe { avx2($($arg),*) }
                }
                _ => {
                    #[allow(clippy::too_many_arguments)]
                    fn portable $(<$($gen)*>)? ($($arg: $ty),*) $(-> $ret)? {
                        $(type $lane = f32;)?
                        $($body)*
                    }
                    portable($($arg),*)
                }
            }
        }
    };
}

#[doc(inline)]
pub use __per_arm as per_arm;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_runs_from_portable_to_the_dispatched_arm() {
        let arms = available();
        assert_eq!(arms.first(), Some(&Arm::Portable));
        assert_eq!(arms.last(), Some(&arm()));
    }

    per_arm! {
        /// The lane width each arm's `V` has.
        fn lane_bytes, lane_bytes_on<V>() -> usize {
            std::mem::size_of::<V>()
        }
    }

    #[test]
    fn each_arm_runs_its_own_lane_type() {
        assert_eq!(lane_bytes(), lane_bytes_on(arm()));
        for (&a, want) in available().iter().zip([4, 32, 64]) {
            assert_eq!(lane_bytes_on(a), want, "{a:?}");
        }
    }
}
