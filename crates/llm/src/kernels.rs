//! Region-accumulation matvec kernels over packed FP4 weights.
//!
//! A Hardwired Neuron never multiplies (Figure 4, §4.2): each input is
//! routed into one of 16 POPCNT accumulator regions keyed by its FP4 weight
//! code, the 16 per-region sums are weighted by the E2M1 magnitude lattice,
//! and a final shift applies the scale. These kernels compute `x · W`
//! directly on [`PackedFp4Matrix`] codes the same way — no dequantized
//! tensor ever exists — in three interchangeable realizations:
//!
//! * **Scalar region kernel** ([`region_matvec_block_into`]): the textbook
//!   form. Per output column, bucket `x_i` by the stored 4-bit code, then
//!   combine buckets with [`MAGNITUDES`] and the per-matrix norm. This is
//!   the semantic ground truth (and the portable fallback).
//! * **Vectorized half-unit kernel** (x86-64 AVX2+FMA, selected at
//!   runtime): the same 16 regions realized as the constant-multiplier
//!   bank. Every FP4 value is an exact multiple of 0.5, so a 16-entry
//!   `pshufb` lookup maps each nibble to its signed integer half-unit
//!   ([`HALF_UNITS`]) — the per-region constant the hardware wires — and an
//!   FMA accumulates `x_i · hu` with the trailing ×0.5 folded into the
//!   norm. Associativity of the per-region grouping is the only difference
//!   (float sums reorder), which is why it agrees with the scalar region
//!   kernel to ~1e-5 relative, not bitwise.
//! * **Full-width half-unit token block** (x86-64 AVX-512F, selected at
//!   runtime): the same half-unit chain with the panel form's token block
//!   grown from 4 activation rows × 16 columns (ymm) to 8 rows × 32 columns
//!   (zmm), so each packed byte is decoded once per 8 rows instead of once
//!   per 4. Only the panel form has this arm: a single activation row has
//!   no decode to amortize and keeps the AVX2 matvec.
//!
//! Dispatch, under the same even-column-start condition at both entry
//! points: the panel form takes AVX-512 → AVX2 → scalar regions, the
//! single-vector form AVX2 → scalar regions. The CPU is the only selector.
//!
//! The two half-unit realizations are **bit-identical** to each other, not
//! merely close: every (activation row, column) output is one FMA chain over
//! the weight rows in ascending order on the same decoded half-units,
//! followed by one multiply by `0.5 · norm`. A SIMD lane is one column and
//! lanes never interact, so neither the vector width (how many columns
//! advance together) nor the block height (how many activation rows share a
//! decode) can reach a bit of any output.
//!
//! Both inference engines run every projection, router and expert product
//! through the panel form ([`matmul_block_into`]) — a decode step is its
//! one-row case — so within one process they see one arithmetic: the
//! engines' token streams stay in lockstep exactly as they did on the dense
//! `f32` path. The single-vector form ([`matvec_block_into`]) is the
//! per-row definition the panel form is pinned to, bit for bit.

use hnlpu_model::fp4::{HALF_UNITS, MAGNITUDES, NUM_CODES};
use hnlpu_model::PackedFp4Matrix;
use std::ops::Range;

/// Activation vectors processed together per scalar token block of the
/// matmul kernels (one pass over a column's packed bytes serves this many
/// tokens before the next pass).
const SCALAR_TOKEN_BLOCK: usize = 8;

/// `out = x · W` over the whole packed matrix (`x.len() == rows`,
/// `out.len() == cols`).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matvec_into(x: &[f32], m: &PackedFp4Matrix, out: &mut [f32]) {
    matvec_block_into(x, m, 0, 0..m.cols(), out);
}

/// Partial product `out = x · W[row_offset .. row_offset + x.len(),
/// col_range]`, overwriting `out` — what one chip holding a block of the
/// packed matrix contributes to its column group for one activation row.
///
/// # Panics
///
/// Panics if the addressed block exceeds the matrix shape, `col_range` is
/// reversed, or `out.len() != col_range.len()`.
pub fn matvec_block_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    row_offset: usize,
    col_range: Range<usize>,
    out: &mut [f32],
) {
    assert!(row_offset + x.len() <= m.rows(), "row block out of bounds");
    assert!(col_range.start <= col_range.end, "col range reversed");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert_eq!(out.len(), col_range.len(), "output length mismatch");
    // An empty block is an empty sum. Answering it here keeps the
    // vectorized arms from offsetting a pointer to a block that holds no
    // byte (`row_offset == m.rows()`), which may lie past the allocation.
    if x.is_empty() || col_range.is_empty() {
        out.fill(0.0);
        return;
    }
    // The vectorized path walks packed bytes from the first addressed
    // column, so it needs the range to start on a byte boundary; odd
    // starts (never produced by the engines) take the scalar kernel.
    #[cfg(target_arch = "x86_64")]
    if col_range.start.is_multiple_of(2) && avx2::available() {
        // SAFETY: AVX2+FMA presence checked at runtime; bounds above, and
        // the block holds at least one row and one column.
        unsafe { avx2::matvec_block(x, m, row_offset, col_range, out) };
        return;
    }
    region_matvec_block_into(x, m, row_offset, col_range, out);
}

/// The scalar region-accumulation kernel (semantic reference and portable
/// fallback): per output column, accumulate each `x_i` into one of 16
/// buckets indexed by the stored code — one add per weight, no multiply —
/// then combine the buckets with the magnitude lattice and the norm.
///
/// # Panics
///
/// Panics on the same conditions as [`matvec_block_into`].
pub fn region_matvec_block_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    row_offset: usize,
    col_range: Range<usize>,
    out: &mut [f32],
) {
    assert!(row_offset + x.len() <= m.rows(), "row block out of bounds");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert_eq!(out.len(), col_range.len(), "output length mismatch");
    let stride = m.stride();
    let data = m.data();
    let norm = m.norm();
    for (o, j) in out.iter_mut().zip(col_range) {
        let shift = (j % 2) * 4;
        let col = j / 2;
        let mut buckets = [0.0f32; NUM_CODES];
        for (i, &xi) in x.iter().enumerate() {
            let byte = data[(row_offset + i) * stride + col];
            buckets[((byte >> shift) & 0x0F) as usize] += xi;
        }
        *o = combine_regions(&buckets) * norm;
    }
}

/// `outs = Xs · W` for a panel of `t` activation vectors over the whole
/// packed matrix: row `tt` of the activation panel (starting at
/// `xs[tt * x_stride]`, `m.rows()` long) produces row `tt` of the output
/// panel (starting at `outs[tt * out_stride]`, `m.cols()` wide).
///
/// Each output row is **bit-identical** to `matvec_into` on the same
/// activation row — see [`matmul_block_into`].
///
/// # Panics
///
/// Panics on shape mismatch (see [`matmul_block_into`]).
pub fn matmul_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    outs: &mut [f32],
    out_stride: usize,
) {
    matmul_block_into(
        xs,
        x_stride,
        t,
        m,
        0,
        m.rows(),
        0..m.cols(),
        outs,
        out_stride,
    );
}

/// Panel partial product: for each of `t` activation rows, compute
/// `outs_row = xs_row · W[row_offset .. row_offset + rows, col_range]` —
/// the multi-token generalization of [`matvec_block_into`] that makes one
/// pass over the packed codes serve a whole prefill chunk or batched decode
/// step, and the form every engine projection takes (`t = 1` included).
///
/// Activation row `tt` starts at `xs[tt * x_stride]` and is `rows` long;
/// output row `tt` starts at `outs[tt * out_stride]` and is
/// `col_range.len()` wide, so both panels may be strided slices of wider
/// arenas (e.g. a chip's row slice of the activation panel).
///
/// **Bit-identity contract:** every output row equals
/// `matvec_block_into(xs_row, m, row_offset, col_range, outs_row)` bit for
/// bit, in both realizations. The per-column accumulation chain depends
/// only on the row iteration order (ascending) and the accumulation
/// operation (scalar bucket adds / vector FMAs), neither of which changes
/// with the panel width — so prefill results are independent of how a
/// prompt is chunked into panels, and the differential harnesses stay
/// token-exact.
///
/// # Panics
///
/// Panics if the addressed block exceeds the matrix shape, `col_range` is
/// reversed, or `xs`/`outs` are too short for `t` strided rows.
#[allow(clippy::too_many_arguments)]
pub fn matmul_block_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    row_offset: usize,
    rows: usize,
    col_range: Range<usize>,
    outs: &mut [f32],
    out_stride: usize,
) {
    if t == 0 {
        return;
    }
    assert!(row_offset + rows <= m.rows(), "row block out of bounds");
    assert!(col_range.start <= col_range.end, "col range reversed");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert!(
        xs.len() >= (t - 1) * x_stride + rows,
        "activation panel too short"
    );
    assert!(
        outs.len() >= (t - 1) * out_stride + col_range.len(),
        "output panel too short"
    );
    // Empty block = empty sums, answered before any arm forms a pointer
    // (see `matvec_block_into`).
    if rows == 0 || col_range.is_empty() {
        for tt in 0..t {
            outs[tt * out_stride..][..col_range.len()].fill(0.0);
        }
        return;
    }
    // Same dispatch condition as `matvec_block_into`, so each row takes
    // the half-unit chain the single-vector kernel would; which width
    // runs that chain cannot change a bit of it.
    #[cfg(target_arch = "x86_64")]
    if col_range.start.is_multiple_of(2) {
        if avx512::available() {
            // SAFETY: AVX-512F (and AVX2+FMA for the one-row remainder)
            // presence checked at runtime; bounds above, and the block
            // holds at least one row and one column.
            unsafe {
                avx512::matmul_block(
                    xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
                )
            };
            return;
        }
        if avx2::available() {
            // SAFETY: AVX2+FMA presence checked at runtime; bounds above,
            // and the block holds at least one row and one column.
            unsafe {
                avx2::matmul_block(
                    xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
                )
            };
            return;
        }
    }
    region_matmul_block_into(
        xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
    );
}

/// The scalar multi-token region-accumulation kernel: per output column,
/// read each packed byte **once** and route the corresponding `x_i` of
/// every activation row in the token block into that row's 16 buckets —
/// the Figure-4 region pass amortized over up to [`SCALAR_TOKEN_BLOCK`]
/// tokens — then combine each row's buckets with the magnitude lattice.
///
/// Per activation row this performs exactly the bucket-accumulation chain
/// of [`region_matvec_block_into`] (rows ascending, one add per weight),
/// so each output row is bit-identical to the per-token kernel.
///
/// # Panics
///
/// Panics on the same conditions as [`matmul_block_into`].
#[allow(clippy::too_many_arguments)]
pub fn region_matmul_block_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    row_offset: usize,
    rows: usize,
    col_range: Range<usize>,
    outs: &mut [f32],
    out_stride: usize,
) {
    if t == 0 {
        return;
    }
    assert!(row_offset + rows <= m.rows(), "row block out of bounds");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert!(
        xs.len() >= (t - 1) * x_stride + rows,
        "activation panel too short"
    );
    assert!(
        outs.len() >= (t - 1) * out_stride + col_range.len(),
        "output panel too short"
    );
    let stride = m.stride();
    let data = m.data();
    let norm = m.norm();
    let mut tb = 0;
    while tb < t {
        let bt = (t - tb).min(SCALAR_TOKEN_BLOCK);
        for j in col_range.start..col_range.end {
            let shift = (j % 2) * 4;
            let col = j / 2;
            let mut buckets = [[0.0f32; NUM_CODES]; SCALAR_TOKEN_BLOCK];
            for i in 0..rows {
                let byte = data[(row_offset + i) * stride + col];
                let code = ((byte >> shift) & 0x0F) as usize;
                for (tt, b) in buckets[..bt].iter_mut().enumerate() {
                    b[code] += xs[(tb + tt) * x_stride + i];
                }
            }
            for (tt, b) in buckets[..bt].iter_mut().enumerate() {
                outs[(tb + tt) * out_stride + (j - col_range.start)] = combine_regions(b) * norm;
            }
        }
        tb += bt;
    }
}

/// The 16 per-region input sums for one output column of `x · W` — what a
/// Hardwired Neuron's POPCNT accumulator regions hold right before the
/// magnitude combine. Exposed for tests and analyses: with `x = 1⃗`, region
/// `k` equals the column's occupancy count of code `k`.
///
/// # Panics
///
/// Panics if `x.len() != m.rows()` or `col >= m.cols()`.
pub fn region_sums(x: &[f32], m: &PackedFp4Matrix, col: usize) -> [f32; NUM_CODES] {
    assert_eq!(x.len(), m.rows(), "input length mismatch");
    assert!(col < m.cols(), "col out of bounds");
    let stride = m.stride();
    let data = m.data();
    let shift = (col % 2) * 4;
    let mut buckets = [0.0f32; NUM_CODES];
    for (i, &xi) in x.iter().enumerate() {
        let byte = data[i * stride + col / 2];
        buckets[((byte >> shift) & 0x0F) as usize] += xi;
    }
    buckets
}

/// Magnitude-lattice combine: positive region `k` minus its sign twin
/// `k | 8`, weighted by `MAGNITUDES[k]`. Region 0 (±0) contributes nothing.
fn combine_regions(buckets: &[f32; NUM_CODES]) -> f32 {
    let mut acc = 0.0f32;
    for k in 1..8 {
        acc += MAGNITUDES[k] * (buckets[k] - buckets[k | 8]);
    }
    acc
}

/// Which kernel realization [`matmul_block_into`] takes in this process:
/// `"avx512-half-units"`, `"avx2-half-units"` or `"scalar-regions"`.
/// Recorded by the benchmark baseline and the serving benchmark's host
/// fingerprint.
pub fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512::available() {
            return "avx512-half-units";
        }
        if avx2::available() {
            return "avx2-half-units";
        }
    }
    "scalar-regions"
}

/// The vectorized constant-multiplier-bank realization (x86-64 only).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Range, HALF_UNITS};
    use hnlpu_model::PackedFp4Matrix;
    use std::arch::x86_64::*;

    /// Runtime CPU support check (cached by `std`).
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// Decode 16 packed bytes (32 columns of one row) into 4×8 `f32`
    /// half-unit weights, in column order: the `pshufb` against the
    /// [`HALF_UNITS`] table is the software image of the 16-region decoder.
    // SAFETY: pure register arithmetic on AVX2 intrinsics — no memory
    // access. Callers must have verified AVX2 support (all call sites are
    // inside `#[target_feature(enable = "avx2")]` fns reached only via
    // `available()`).
    #[inline(always)]
    unsafe fn decode32(bytes: __m128i, lut: __m128i, mask: __m128i) -> [__m256; 4] {
        let lo = _mm_and_si128(bytes, mask);
        let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
        let vlo = _mm_shuffle_epi8(lut, lo);
        let vhi = _mm_shuffle_epi8(lut, hi);
        // Interleave even/odd column values back into column order.
        let ilo = _mm_unpacklo_epi8(vlo, vhi);
        let ihi = _mm_unpackhi_epi8(vlo, vhi);
        [
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(ilo)),
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(ilo, 8))),
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(ihi)),
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(ihi, 8))),
        ]
    }

    /// 64-column panel: eight output accumulators live in registers across
    /// the whole row sweep, so there are no horizontal sums at all.
    // SAFETY: caller (`matvec_block`) guarantees AVX2+FMA support and that
    // `data` points at `x.len()` rows of ≥ 32 readable bytes at `stride`
    // spacing, and `out` at ≥ 64 writable f32s. Unaligned loads/stores are
    // used throughout, so no alignment requirement.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel64(x: &[f32], data: *const u8, stride: usize, half_norm: f32, out: *mut f32) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 8];
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let rowp = data.add(i * stride);
            let w0 = decode32(_mm_loadu_si128(rowp as *const __m128i), lut, mask);
            let w1 = decode32(_mm_loadu_si128(rowp.add(16) as *const __m128i), lut, mask);
            a[0] = _mm256_fmadd_ps(w0[0], xv, a[0]);
            a[1] = _mm256_fmadd_ps(w0[1], xv, a[1]);
            a[2] = _mm256_fmadd_ps(w0[2], xv, a[2]);
            a[3] = _mm256_fmadd_ps(w0[3], xv, a[3]);
            a[4] = _mm256_fmadd_ps(w1[0], xv, a[4]);
            a[5] = _mm256_fmadd_ps(w1[1], xv, a[5]);
            a[6] = _mm256_fmadd_ps(w1[2], xv, a[6]);
            a[7] = _mm256_fmadd_ps(w1[3], xv, a[7]);
        }
        let nv = _mm256_set1_ps(half_norm);
        for (k, acc) in a.iter().enumerate() {
            _mm256_storeu_ps(out.add(8 * k), _mm256_mul_ps(*acc, nv));
        }
    }

    /// 32-column panel.
    // SAFETY: caller (`matvec_block`) guarantees AVX2+FMA support and that
    // `data` points at `x.len()` rows of ≥ 16 readable bytes at `stride`
    // spacing, and `out` at ≥ 32 writable f32s. Unaligned accesses only.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel32(x: &[f32], data: *const u8, stride: usize, half_norm: f32, out: *mut f32) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 4];
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let w = decode32(
                _mm_loadu_si128(data.add(i * stride) as *const __m128i),
                lut,
                mask,
            );
            a[0] = _mm256_fmadd_ps(w[0], xv, a[0]);
            a[1] = _mm256_fmadd_ps(w[1], xv, a[1]);
            a[2] = _mm256_fmadd_ps(w[2], xv, a[2]);
            a[3] = _mm256_fmadd_ps(w[3], xv, a[3]);
        }
        let nv = _mm256_set1_ps(half_norm);
        for (k, acc) in a.iter().enumerate() {
            _mm256_storeu_ps(out.add(8 * k), _mm256_mul_ps(*acc, nv));
        }
    }

    /// 16-column panel (8-byte row loads).
    // SAFETY: caller (`matvec_block`) guarantees AVX2+FMA support and that
    // `data` points at `x.len()` rows of ≥ 8 readable bytes at `stride`
    // spacing, and `out` at ≥ 16 writable f32s. Unaligned accesses only.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel16(x: &[f32], data: *const u8, stride: usize, half_norm: f32, out: *mut f32) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 2];
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let bytes = _mm_loadl_epi64(data.add(i * stride) as *const __m128i);
            let lo = _mm_and_si128(bytes, mask);
            let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
            let inter = _mm_unpacklo_epi8(_mm_shuffle_epi8(lut, lo), _mm_shuffle_epi8(lut, hi));
            let w0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(inter));
            let w1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(inter, 8)));
            a[0] = _mm256_fmadd_ps(w0, xv, a[0]);
            a[1] = _mm256_fmadd_ps(w1, xv, a[1]);
        }
        let nv = _mm256_set1_ps(half_norm);
        _mm256_storeu_ps(out, _mm256_mul_ps(a[0], nv));
        _mm256_storeu_ps(out.add(8), _mm256_mul_ps(a[1], nv));
    }

    /// Block matvec over packed codes. Caller guarantees bounds and an
    /// even `col_range.start`.
    // SAFETY: caller must ensure AVX2+FMA are present (checked via
    // `available()` at the dispatch site), `x` non-empty,
    // `row_offset + x.len() ≤ m.rows()`,
    // `col_range.start < col_range.end ≤ m.cols()`, `col_range.start` even,
    // and `out.len() ≥ col_range.len()` — these bound every
    // `base.add`/`out.add` below within `m.data()` / `out` (an empty block
    // holds no byte, and its `base` could lie past the allocation). The
    // panel helpers inherit exactly these bounds, narrowed per panel width.
    pub unsafe fn matvec_block(
        x: &[f32],
        m: &PackedFp4Matrix,
        row_offset: usize,
        col_range: Range<usize>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(col_range.start % 2, 0);
        let stride = m.stride();
        let half_norm = 0.5 * m.norm();
        let base = m
            .data()
            .as_ptr()
            .add(row_offset * stride + col_range.start / 2);
        let total = col_range.len();
        let mut c = 0;
        while total - c >= 64 {
            panel64(
                x,
                base.add(c / 2),
                stride,
                half_norm,
                out.as_mut_ptr().add(c),
            );
            c += 64;
        }
        if total - c >= 32 {
            panel32(
                x,
                base.add(c / 2),
                stride,
                half_norm,
                out.as_mut_ptr().add(c),
            );
            c += 32;
        }
        if total - c >= 16 {
            panel16(
                x,
                base.add(c / 2),
                stride,
                half_norm,
                out.as_mut_ptr().add(c),
            );
            c += 16;
        }
        // Scalar half-unit tail for the last < 16 columns.
        let data = m.data();
        for j in col_range.start + c..col_range.end {
            let shift = (j % 2) * 4;
            let mut acc = 0.0f32;
            for (i, &xi) in x.iter().enumerate() {
                let byte = data[(row_offset + i) * stride + j / 2];
                acc += xi * f32::from(HALF_UNITS[((byte >> shift) & 0x0F) as usize]);
            }
            out[j - col_range.start] = acc * half_norm;
        }
    }

    /// Number of activation rows a full vectorized token block carries: 4
    /// rows × 2 accumulators each (16 columns) keeps the working set at 11
    /// ymm registers while decoding each packed byte once per 4 tokens.
    const TOKEN_BLOCK: usize = 4;

    /// 16-column × `N`-token panel: the packed bytes of each weight row are
    /// decoded **once** and FMA'd against `N` broadcast activations, so
    /// the 16-region decode work is amortized over the token block. Per
    /// token the accumulation chain over rows is exactly the one
    /// `panel64`/`panel32`/`panel16` produce for the same column (same
    /// decoded half-units, same FMA, same row order), which is what keeps
    /// the matmul bit-identical to the matvec loop for every `N`.
    // SAFETY: caller (`token_block`) guarantees AVX2+FMA support, that
    // `data` points at `rows` weight rows of ≥ 8 readable bytes at `stride`
    // spacing, that `xs` points at `N` activation rows of `rows` readable
    // f32s at `x_stride` spacing, and `outs` at `N` output rows of ≥ 16
    // writable f32s at `out_stride` spacing. Unaligned accesses only.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn panel16xn<const N: usize>(
        xs: *const f32,
        x_stride: usize,
        rows: usize,
        data: *const u8,
        stride: usize,
        half_norm: f32,
        outs: *mut f32,
        out_stride: usize,
    ) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [[_mm256_setzero_ps(); 2]; N];
        for i in 0..rows {
            let bytes = _mm_loadl_epi64(data.add(i * stride) as *const __m128i);
            let lo = _mm_and_si128(bytes, mask);
            let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
            let inter = _mm_unpacklo_epi8(_mm_shuffle_epi8(lut, lo), _mm_shuffle_epi8(lut, hi));
            let w0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(inter));
            let w1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(inter, 8)));
            for (tok, acc) in a.iter_mut().enumerate() {
                let xv = _mm256_set1_ps(*xs.add(tok * x_stride + i));
                acc[0] = _mm256_fmadd_ps(w0, xv, acc[0]);
                acc[1] = _mm256_fmadd_ps(w1, xv, acc[1]);
            }
        }
        let nv = _mm256_set1_ps(half_norm);
        for (tok, acc) in a.iter().enumerate() {
            _mm256_storeu_ps(outs.add(tok * out_stride), _mm256_mul_ps(acc[0], nv));
            _mm256_storeu_ps(outs.add(tok * out_stride + 8), _mm256_mul_ps(acc[1], nv));
        }
    }

    /// One block of `N` activation rows starting at row `tt`: 16-column
    /// panels over `len - len % 16` columns, then the non-fused scalar
    /// half-unit tail for the last < 16 — the same column coverage and the
    /// same mul+add tail chain as `matvec_block`.
    // SAFETY: as `matmul_block`, with `tt + N ≤ t`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn token_block<const N: usize>(
        xs: &[f32],
        x_stride: usize,
        tt: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        let stride = m.stride();
        let half_norm = 0.5 * m.norm();
        let base = m
            .data()
            .as_ptr()
            .add(row_offset * stride + col_range.start / 2);
        let len = col_range.len();
        let covered = len - len % 16;
        let xrow = xs.as_ptr().add(tt * x_stride);
        let orow = outs.as_mut_ptr().add(tt * out_stride);
        let mut c = 0;
        while c < covered {
            panel16xn::<N>(
                xrow,
                x_stride,
                rows,
                base.add(c / 2),
                stride,
                half_norm,
                orow.add(c),
                out_stride,
            );
            c += 16;
        }
        token_tail(
            xs,
            x_stride,
            tt..tt + N,
            m,
            row_offset,
            rows,
            col_range,
            covered,
            outs,
            out_stride,
        );
    }

    /// Columns `col_range.start + covered..col_range.end` (the last < 16)
    /// of activation rows `toks`: the non-fused scalar half-unit chain, mul
    /// then add per weight row — `matvec_block`'s tail, so a tail column is
    /// the same bits whichever token block (this module's or `avx512`'s)
    /// swept the panels before it. Safe code: every access is a checked
    /// index.
    #[allow(clippy::too_many_arguments)]
    pub fn token_tail(
        xs: &[f32],
        x_stride: usize,
        toks: Range<usize>,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        covered: usize,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        let stride = m.stride();
        let half_norm = 0.5 * m.norm();
        let data = m.data();
        for j in col_range.start + covered..col_range.end {
            let shift = (j % 2) * 4;
            let col = j / 2;
            for tok in toks.start..toks.end {
                let x = &xs[tok * x_stride..][..rows];
                let mut acc = 0.0f32;
                for (i, &xi) in x.iter().enumerate() {
                    let byte = data[(row_offset + i) * stride + col];
                    acc += xi * f32::from(HALF_UNITS[((byte >> shift) & 0x0F) as usize]);
                }
                outs[tok * out_stride + (j - col_range.start)] = acc * half_norm;
            }
        }
    }

    /// Panel matmul over packed codes: token blocks of [`TOKEN_BLOCK`]
    /// activation rows sweep 16-column panels with one decode per byte per
    /// block; the last `t mod 4` rows run as one narrower block (a single
    /// leftover row takes `matvec_block`, whose wider column panels suit
    /// one activation better). Every path covers exactly `len - len % 16`
    /// columns with panels and finishes with the identical non-fused
    /// scalar tail, so every output row matches `matvec_block` on its
    /// activation row bit for bit.
    // SAFETY: caller must ensure AVX2+FMA are present (checked via
    // `available()` at the dispatch site), `rows ≥ 1`,
    // `row_offset + rows ≤ m.rows()`,
    // `col_range.start < col_range.end ≤ m.cols()`, `col_range.start` even,
    // `xs.len() ≥ (t-1)·x_stride + rows`, and
    // `outs.len() ≥ (t-1)·out_stride + col_range.len()` — these bound every
    // pointer offset below within `m.data()`, `xs`, and `outs`.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_block(
        xs: &[f32],
        x_stride: usize,
        t: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        debug_assert_eq!(col_range.start % 2, 0);
        let mut tt = 0;
        while t - tt >= TOKEN_BLOCK {
            token_block::<TOKEN_BLOCK>(
                xs,
                x_stride,
                tt,
                m,
                row_offset,
                rows,
                col_range.start..col_range.end,
                outs,
                out_stride,
            );
            tt += TOKEN_BLOCK;
        }
        match t - tt {
            3 => token_block::<3>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            2 => token_block::<2>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            1 => {
                let len = col_range.len();
                matvec_block(
                    &xs[tt * x_stride..][..rows],
                    m,
                    row_offset,
                    col_range,
                    &mut outs[tt * out_stride..][..len],
                );
            }
            _ => {}
        }
    }
}

/// The half-unit token block at full machine width (x86-64 AVX-512F): the
/// panel form of [`avx2`] with each packed byte decoded once per 8
/// activation rows into zmm registers. There is no single-row kernel here —
/// one activation row has no decode to share, so it keeps
/// `avx2::matvec_block`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{avx2, Range, HALF_UNITS};
    use hnlpu_model::PackedFp4Matrix;
    use std::arch::x86_64::*;

    /// Runtime CPU support check (cached by `std`). Asks for AVX2+FMA as
    /// well because the one-row remainder and the column tail run in
    /// [`avx2`].
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f") && avx2::available()
    }

    /// Number of activation rows a full token block carries: 8 rows × 2
    /// accumulators each (32 columns) is 16 of the 32 zmm registers, and
    /// each packed byte is decoded once per 8 tokens.
    const TOKEN_BLOCK: usize = 8;

    /// Decode 16 packed bytes (32 columns of one weight row) into their
    /// signed half-units as `i8`, in column order: `[0]` holds columns
    /// 0..16, `[1]` columns 16..32 — `avx2::decode32` before the widening.
    /// With only the low 8 bytes loaded, `[0]` is those 16 columns.
    // SAFETY: pure register arithmetic on SSSE3 intrinsics — no memory
    // access. Callers must have verified AVX-512F support, which implies
    // SSSE3 (all call sites are inside `#[target_feature(enable =
    // "avx512f")]` fns reached only via `available()`).
    #[inline(always)]
    unsafe fn decode32(bytes: __m128i, lut: __m128i, mask: __m128i) -> [__m128i; 2] {
        let lo = _mm_and_si128(bytes, mask);
        let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
        let vlo = _mm_shuffle_epi8(lut, lo);
        let vhi = _mm_shuffle_epi8(lut, hi);
        // Interleave even/odd column values back into column order.
        [_mm_unpacklo_epi8(vlo, vhi), _mm_unpackhi_epi8(vlo, vhi)]
    }

    /// 32-column × `N`-token panel: the 16 packed bytes of each weight row
    /// are decoded **once** into two zmm weight vectors and FMA'd against
    /// `N` broadcast activations into `2·N` zmm accumulators. Per (token,
    /// column) this is the FMA chain of `avx2::panel16xn` and of the
    /// `avx2` matvec panels — same decoded half-units, same fused
    /// operation, same ascending row order, one lane per column — so the
    /// output bits do not depend on `N` or on the register width.
    // SAFETY: caller (`token_block`) guarantees AVX-512F support, that
    // `data` points at `rows` weight rows of ≥ 16 readable bytes at
    // `stride` spacing, that `xs` points at `N` activation rows of `rows`
    // readable f32s at `x_stride` spacing, and `outs` at `N` output rows of
    // ≥ 32 writable f32s at `out_stride` spacing. Unaligned accesses only.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn panel32xn<const N: usize>(
        xs: *const f32,
        x_stride: usize,
        rows: usize,
        data: *const u8,
        stride: usize,
        half_norm: f32,
        outs: *mut f32,
        out_stride: usize,
    ) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [[_mm512_setzero_ps(); 2]; N];
        for i in 0..rows {
            let bytes = _mm_loadu_si128(data.add(i * stride) as *const __m128i);
            let hu = decode32(bytes, lut, mask);
            let w0 = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(hu[0]));
            let w1 = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(hu[1]));
            for (tok, acc) in a.iter_mut().enumerate() {
                let xv = _mm512_set1_ps(*xs.add(tok * x_stride + i));
                acc[0] = _mm512_fmadd_ps(w0, xv, acc[0]);
                acc[1] = _mm512_fmadd_ps(w1, xv, acc[1]);
            }
        }
        let nv = _mm512_set1_ps(half_norm);
        for (tok, acc) in a.iter().enumerate() {
            _mm512_storeu_ps(outs.add(tok * out_stride), _mm512_mul_ps(acc[0], nv));
            _mm512_storeu_ps(outs.add(tok * out_stride + 16), _mm512_mul_ps(acc[1], nv));
        }
    }

    /// 16-column × `N`-token panel (8-byte row loads, one zmm per token).
    // SAFETY: as `panel32xn`, with ≥ 8 readable bytes per weight row and
    // ≥ 16 writable f32s per output row.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn panel16xn<const N: usize>(
        xs: *const f32,
        x_stride: usize,
        rows: usize,
        data: *const u8,
        stride: usize,
        half_norm: f32,
        outs: *mut f32,
        out_stride: usize,
    ) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm512_setzero_ps(); N];
        for i in 0..rows {
            let bytes = _mm_loadl_epi64(data.add(i * stride) as *const __m128i);
            let w = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(decode32(bytes, lut, mask)[0]));
            for (tok, acc) in a.iter_mut().enumerate() {
                let xv = _mm512_set1_ps(*xs.add(tok * x_stride + i));
                *acc = _mm512_fmadd_ps(w, xv, *acc);
            }
        }
        let nv = _mm512_set1_ps(half_norm);
        for (tok, acc) in a.iter().enumerate() {
            _mm512_storeu_ps(outs.add(tok * out_stride), _mm512_mul_ps(*acc, nv));
        }
    }

    /// One block of `N` activation rows starting at row `tt`: 32-column
    /// panels, then at most one 16-column panel, then `avx2::token_tail`
    /// for the last `len % 16` columns — the column coverage of
    /// `avx2::matvec_block` (panels over `len - len % 16`, scalar tail
    /// after), which is what pins every column to the same chain there.
    // SAFETY: as `matmul_block`, with `tt + N ≤ t`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn token_block<const N: usize>(
        xs: &[f32],
        x_stride: usize,
        tt: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        let stride = m.stride();
        let half_norm = 0.5 * m.norm();
        let base = m
            .data()
            .as_ptr()
            .add(row_offset * stride + col_range.start / 2);
        let len = col_range.len();
        let xrow = xs.as_ptr().add(tt * x_stride);
        let orow = outs.as_mut_ptr().add(tt * out_stride);
        let mut c = 0;
        while len - c >= 32 {
            panel32xn::<N>(
                xrow,
                x_stride,
                rows,
                base.add(c / 2),
                stride,
                half_norm,
                orow.add(c),
                out_stride,
            );
            c += 32;
        }
        if len - c >= 16 {
            panel16xn::<N>(
                xrow,
                x_stride,
                rows,
                base.add(c / 2),
                stride,
                half_norm,
                orow.add(c),
                out_stride,
            );
            c += 16;
        }
        avx2::token_tail(
            xs,
            x_stride,
            tt..tt + N,
            m,
            row_offset,
            rows,
            col_range,
            c,
            outs,
            out_stride,
        );
    }

    /// Panel matmul over packed codes: full blocks of [`TOKEN_BLOCK`]
    /// activation rows, the last `t mod 8` rows as one narrower block, and
    /// a single leftover row through `avx2::matvec_block` (as in
    /// `avx2::matmul_block`). Every output row matches `avx2::matvec_block`
    /// on its activation row bit for bit.
    // SAFETY: caller must ensure `available()` (AVX-512F, and AVX2+FMA for
    // the `avx2` calls), `rows ≥ 1`, `row_offset + rows ≤ m.rows()`,
    // `col_range.start < col_range.end ≤ m.cols()`, `col_range.start` even,
    // `xs.len() ≥ (t-1)·x_stride + rows`, and
    // `outs.len() ≥ (t-1)·out_stride + col_range.len()` — the contract of
    // `avx2::matmul_block`, which bounds every pointer offset in the token
    // blocks within `m.data()`, `xs`, and `outs`.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_block(
        xs: &[f32],
        x_stride: usize,
        t: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        debug_assert_eq!(col_range.start % 2, 0);
        let mut tt = 0;
        while t - tt >= TOKEN_BLOCK {
            token_block::<TOKEN_BLOCK>(
                xs,
                x_stride,
                tt,
                m,
                row_offset,
                rows,
                col_range.start..col_range.end,
                outs,
                out_stride,
            );
            tt += TOKEN_BLOCK;
        }
        // One instantiation per remainder, so the accumulator array stays
        // a compile-time size and lives in registers.
        match t - tt {
            7 => token_block::<7>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            6 => token_block::<6>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            5 => token_block::<5>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            4 => token_block::<4>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            3 => token_block::<3>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            2 => token_block::<2>(
                xs, x_stride, tt, m, row_offset, rows, col_range, outs, out_stride,
            ),
            1 => {
                let len = col_range.len();
                avx2::matvec_block(
                    &xs[tt * x_stride..][..rows],
                    m,
                    row_offset,
                    col_range,
                    &mut outs[tt * out_stride..][..len],
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{add_assign, vec_mat};
    use hnlpu_model::Fp4;
    use proptest::prelude::*;

    fn packed_from(codes: &[u8], rows: usize, cols: usize) -> PackedFp4Matrix {
        let codes: Vec<Fp4> = codes.iter().map(|&c| Fp4::from_code(c)).collect();
        let norm = 1.0 / (rows as f32).sqrt() / 1.8;
        PackedFp4Matrix::from_codes(&codes, rows, cols, norm)
    }

    /// `n` codes with no period in the cell index: the top nibble of a
    /// multiplicative hash. (Its low nibble is `i + const` — column `c` and
    /// column `c + 16` would hold the same code, and a kernel that mixed up
    /// two 16-column halves of a panel would pass.)
    fn hashed_codes(n: usize, seed: u64) -> Vec<u8> {
        (0..n as u64)
            .map(|i| ((i + seed * 131).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as u8)
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    /// Signature of `avx2::matmul_block` / `avx512::matmul_block`.
    type MatmulArm = unsafe fn(
        &[f32],
        usize,
        usize,
        &PackedFp4Matrix,
        usize,
        usize,
        Range<usize>,
        &mut [f32],
        usize,
    );

    /// The vectorized realizations this CPU can run, by name (none off
    /// x86-64); says once per process which ones those are.
    fn available_arms() -> Vec<(&'static str, MatmulArm)> {
        #[allow(unused_mut)]
        let mut arms: Vec<(&'static str, MatmulArm)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if avx2::available() {
                arms.push(("avx2", avx2::matmul_block));
            }
            if avx512::available() {
                arms.push(("avx512", avx512::matmul_block));
            }
        }
        static SAY: std::sync::Once = std::sync::Once::new();
        SAY.call_once(|| {
            let names: Vec<&str> = arms.iter().map(|&(name, _)| name).collect();
            println!("kernel arms called directly on this CPU: {names:?}");
        });
        arms
    }

    #[test]
    fn matches_identity() {
        // Codes picked so the packed matrix dequantizes to (1/norm-scaled)
        // diagonal: code 2 = +1.0.
        let mut codes = vec![0u8; 9];
        for i in 0..3 {
            codes[i * 3 + i] = 2;
        }
        let m = packed_from(&codes, 3, 3);
        let mut out = [0.0f32; 3];
        matvec_into(&[2.0, 3.0, 4.0], &m, &mut out);
        let expect: Vec<f32> = [2.0f32, 3.0, 4.0].iter().map(|v| v * m.norm()).collect();
        assert_close(&out, &expect, 1e-6);
    }

    #[test]
    fn region_kernel_and_fast_path_agree() {
        let codes: Vec<u8> = (0..96 * 80).map(|i| ((i * 7 + 3) % 16) as u8).collect();
        let m = packed_from(&codes, 96, 80);
        let x: Vec<f32> = (0..96)
            .map(|i| ((i * 31) % 17) as f32 * 0.1 - 0.8)
            .collect();
        let mut fast = vec![0.0f32; 80];
        let mut regions = vec![0.0f32; 80];
        matvec_into(&x, &m, &mut fast);
        region_matvec_block_into(&x, &m, 0, 0..80, &mut regions);
        assert_close(&fast, &regions, 1e-5);
    }

    #[test]
    fn block_partials_sum_to_full() {
        let codes: Vec<u8> = (0..64 * 48).map(|i| ((i * 11 + 5) % 16) as u8).collect();
        let m = packed_from(&codes, 64, 48);
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut full = vec![0.0f32; 48];
        matvec_into(&x, &m, &mut full);
        // Four row blocks × col range [16, 48), as a chip column computes.
        let mut acc = vec![0.0f32; 32];
        let mut part = vec![0.0f32; 32];
        for r in 0..4 {
            matvec_block_into(&x[r * 16..(r + 1) * 16], &m, r * 16, 16..48, &mut part);
            add_assign(&mut acc, &part);
        }
        assert_close(&acc, &full[16..48], 1e-5);
    }

    #[test]
    fn region_sums_with_unit_input_count_occupancy() {
        // With x = 1⃗ the region sums ARE the per-column code occupancy, so
        // summing them over columns reproduces `code_histogram` exactly.
        let codes: Vec<u8> = (0..40 * 33).map(|i| ((i * 13 + 1) % 16) as u8).collect();
        let m = packed_from(&codes, 40, 33);
        let ones = vec![1.0f32; 40];
        let mut totals = [0u64; 16];
        for col in 0..33 {
            let sums = region_sums(&ones, &m, col);
            for (t, s) in totals.iter_mut().zip(sums.iter()) {
                assert_eq!(s.fract(), 0.0);
                *t += *s as u64;
            }
        }
        assert_eq!(totals, m.code_histogram());
    }

    #[test]
    fn kernel_path_names_a_realization() {
        assert!(["avx512-half-units", "avx2-half-units", "scalar-regions"].contains(&kernel_path()));
    }

    #[test]
    #[should_panic(expected = "col range reversed")]
    fn reversed_col_range_rejected() {
        // `100..4` has `len() == 0` and `end <= cols`, so before the
        // `start <= end` assert it reached the pointer arithmetic.
        let m = packed_from(&[0; 32], 4, 8);
        #[allow(clippy::reversed_empty_ranges)]
        matvec_block_into(&[1.0; 4], &m, 0, 100..4, &mut []);
    }

    #[test]
    #[should_panic(expected = "col range reversed")]
    fn reversed_col_range_rejected_by_matmul() {
        let m = packed_from(&[0; 32], 4, 8);
        #[allow(clippy::reversed_empty_ranges)]
        matmul_block_into(&[1.0; 8], 4, 2, &m, 0, 4, 100..4, &mut [], 0);
    }

    #[test]
    fn empty_row_block_yields_zeros() {
        // A zero-row block at `row_offset == rows` with a non-zero column
        // start addresses no byte of the matrix: an empty sum per column.
        let m = packed_from(&[5; 32], 4, 8);
        let mut out = [f32::NAN; 4];
        matvec_block_into(&[], &m, 4, 4..8, &mut out);
        assert_eq!(out, [0.0; 4]);
        // Strided output panel: the padding between rows is not written.
        let mut outs = [f32::NAN; 10];
        matmul_block_into(&[], 0, 2, &m, 4, 0, 4..8, &mut outs, 6);
        assert_eq!(outs[..4], [0.0; 4]);
        assert!(outs[4..6].iter().all(|v| v.is_nan()));
        assert_eq!(outs[6..], [0.0; 4]);
        // An empty column range writes nothing (row 1 would start at 4).
        matmul_block_into(&[1.0; 8], 4, 2, &m, 0, 4, 6..6, &mut outs, 4);
        assert!(outs[4..6].iter().all(|v| v.is_nan()));
    }

    #[test]
    #[should_panic(expected = "row block out of bounds")]
    fn oversized_row_block_rejected() {
        let m = packed_from(&[0; 16], 4, 4);
        let mut out = [0.0; 4];
        matvec_block_into(&[1.0; 3], &m, 2, 0..4, &mut out);
    }

    #[test]
    #[should_panic(expected = "activation panel too short")]
    fn short_activation_panel_rejected() {
        let m = packed_from(&[0; 16], 4, 4);
        let mut outs = [0.0; 8];
        matmul_block_into(&[1.0; 6], 4, 2, &m, 0, 4, 0..4, &mut outs, 4);
    }

    proptest! {
        /// The region-accumulation kernel matches the naive dense f32
        /// `vec_mat` within 1e-4 relative tolerance on random matrices —
        /// the satellite acceptance property. Covers both realizations
        /// plus odd widths and the scalar column tail.
        #[test]
        fn matvec_matches_naive_vec_mat(
            rows in 1usize..96,
            cols in 1usize..80,
            seed in 0u64..1000,
        ) {
            let m = packed_from(&hashed_codes(rows * cols, seed), rows, cols);
            let x: Vec<f32> = (0..rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(11)) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            let dense = m.to_f32();
            let naive = vec_mat(&x, &dense, cols);
            let mut fast = vec![0.0f32; cols];
            matvec_into(&x, &m, &mut fast);
            let mut regions = vec![0.0f32; cols];
            region_matvec_block_into(&x, &m, 0, 0..cols, &mut regions);
            for j in 0..cols {
                prop_assert!((fast[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()),
                    "fast col {j}: {} vs {}", fast[j], naive[j]);
                prop_assert!((regions[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()),
                    "regions col {j}: {} vs {}", regions[j], naive[j]);
            }
        }

        /// The tentpole bit-identity property: the dispatched panel matmul
        /// equals a loop of per-token `matvec_block_into` calls **bit for
        /// bit**, over ragged token counts (two full blocks of the widest
        /// arm plus every remainder), odd column ranges (scalar-dispatch
        /// path + scalar tails), strided activation and output panels, and
        /// row sub-blocks.
        #[test]
        fn matmul_is_bitwise_loop_of_matvecs(
            rows in 1usize..72,
            cols in 1usize..120,
            t in 1usize..27,
            c0 in 0usize..8,
            c1 in 0usize..8,
            r0 in 0usize..6,
            xpad in 0usize..5,
            opad in 0usize..5,
            seed in 0u64..500,
        ) {
            let full_rows = rows + r0;
            let m = packed_from(&hashed_codes(full_rows * cols, seed), full_rows, cols);
            let cs = c0.min(cols - 1);
            let ce = cols - c1.min(cols - 1 - cs);
            let len = ce - cs;
            let x_stride = rows + xpad;
            let out_stride = len + opad;
            let xs: Vec<f32> = (0..(t - 1) * x_stride + rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(7)).wrapping_add(3) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            let mut outs = vec![0.0f32; (t - 1) * out_stride + len];
            matmul_block_into(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut outs, out_stride);
            let mut regions = vec![0.0f32; (t - 1) * out_stride + len];
            region_matmul_block_into(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut regions, out_stride);
            let mut want = vec![0.0f32; len];
            let mut want_regions = vec![0.0f32; len];
            for tt in 0..t {
                let x = &xs[tt * x_stride..][..rows];
                matvec_block_into(x, &m, r0, cs..ce, &mut want);
                prop_assert_eq!(&outs[tt * out_stride..][..len], want.as_slice(),
                    "dispatched row {} differs", tt);
                region_matvec_block_into(x, &m, r0, cs..ce, &mut want_regions);
                prop_assert_eq!(&regions[tt * out_stride..][..len], want_regions.as_slice(),
                    "scalar region row {} differs", tt);
            }
        }

        /// Every vectorized realization this CPU has, called directly —
        /// the dispatcher only ever reaches the widest one. Each output row
        /// of each arm must equal `matvec_block_into` bit for bit: two full
        /// 8-row blocks plus every remainder, column ranges that end in a
        /// 32-column panel, a 16-column panel and a 1–15 column tail, even
        /// non-zero starts, row sub-blocks, strided panels. An arm the CPU
        /// lacks is skipped, not failed.
        #[test]
        fn every_available_arm_is_bitwise_the_matvec(
            rows in 1usize..72,
            t in 1usize..27,
            panels32 in 0usize..3,
            panel16 in 0usize..2,
            tail in 0usize..16,
            c0 in 0usize..5,
            c1 in 0usize..3,
            r0 in 0usize..6,
            xpad in 0usize..5,
            opad in 0usize..5,
            seed in 0u64..500,
        ) {
            let cs = 2 * c0;
            let len = (32 * panels32 + 16 * panel16 + tail).max(1);
            let ce = cs + len;
            let (full_rows, cols) = (rows + r0, ce + c1);
            let m = packed_from(&hashed_codes(full_rows * cols, seed), full_rows, cols);
            let x_stride = rows + xpad;
            let out_stride = len + opad;
            let xs: Vec<f32> = (0..(t - 1) * x_stride + rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(7)).wrapping_add(3) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            let mut want = vec![0.0f32; (t - 1) * out_stride + len];
            for tt in 0..t {
                let x = &xs[tt * x_stride..][..rows];
                matvec_block_into(x, &m, r0, cs..ce, &mut want[tt * out_stride..][..len]);
            }
            for (arm, matmul_block) in available_arms() {
                // NaN marks every cell the arm must overwrite; the padding
                // between strided rows must come back untouched.
                let mut outs = vec![f32::NAN; want.len()];
                // SAFETY: `available_arms` checked the arm's CPU features,
                // `cs` is even, and the panels are sized for `t` strided
                // rows of the addressed block, as `matmul_block_into`
                // asserts.
                unsafe { matmul_block(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut outs, out_stride) };
                for tt in 0..t {
                    let row = &outs[tt * out_stride..];
                    prop_assert_eq!(&row[..len], &want[tt * out_stride..][..len],
                        "{} row {} differs", arm, tt);
                    prop_assert!(tt + 1 == t || row[len..out_stride].iter().all(|v| v.is_nan()),
                        "{} wrote past row {}", arm, tt);
                }
            }
        }

        /// Arbitrary sub-blocks match the dense `vec_mat_block` partials.
        #[test]
        fn block_matches_naive_block(
            rows in 8usize..64,
            cols in 8usize..64,
            fr in 0usize..4,
            fc in 0usize..4,
        ) {
            let codes: Vec<u8> = (0..rows * cols).map(|i| ((i * 5 + 2) % 16) as u8).collect();
            let m = packed_from(&codes, rows, cols);
            let x: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.13).cos()).collect();
            let r0 = fr * rows / 8;
            let r1 = rows - fr * rows / 8;
            let c0 = fc * cols / 8;
            let c1 = cols - fc * cols / 8;
            let dense = m.to_f32();
            let naive = crate::tensor::vec_mat_block(&x, &dense, cols, r0..r1, c0..c1);
            let mut out = vec![0.0f32; c1 - c0];
            matvec_block_into(&x[r0..r1], &m, r0, c0..c1, &mut out);
            for j in 0..out.len() {
                prop_assert!((out[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()));
            }
        }
    }
}
