//! Minimal row-major matrix/vector kernels.
//!
//! [`dot`] defines the one accumulation chain every logit and attention
//! score follows, and no lane kernel below changes a bit of one.
//! `score_lanes` runs many chains side by side with a tile of table rows
//! (key positions, or vocabulary rows) in the SIMD lanes and each query
//! broadcast across them; `weigh_lanes` weighs value rows with the head
//! dimension in the lanes. Both are written once over `Lanes`, the
//! arm-specific vector, and their callers are compiled once per arm by
//! [`hnlpu_model::arm::per_arm!`]: `unembed_into` here, the grid's column
//! attention in `dataflow`.

use std::ops::Range;

/// `y = x · W` where `x` is `(1, rows)` and `W` is row-major `(rows, cols)`.
///
/// # Panics
///
/// Panics if `x.len() * cols != w.len()`.
#[cfg(test)]
pub(crate) fn vec_mat(x: &[f32], w: &[f32], cols: usize) -> Vec<f32> {
    assert_eq!(x.len() * cols, w.len(), "shape mismatch");
    vec_mat_block(x, w, cols, 0..x.len(), 0..cols)
}

/// `y = x · W[row_range, col_range]` — a partial product over a sub-block
/// of a dense `W`: the oracle the packed block kernels are tested against.
///
/// # Panics
///
/// Panics if the ranges exceed the matrix shape.
#[cfg(test)]
pub(crate) fn vec_mat_block(
    x: &[f32],
    w: &[f32],
    cols: usize,
    row_range: std::ops::Range<usize>,
    col_range: std::ops::Range<usize>,
) -> Vec<f32> {
    assert!(row_range.end <= x.len(), "row range out of bounds");
    assert!(col_range.end <= cols, "col range out of bounds");
    let mut y = vec![0.0f32; col_range.len()];
    for i in row_range {
        let xi = x[i];
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols + col_range.start..i * cols + col_range.end];
        for (yj, &wij) in y.iter_mut().zip(row.iter()) {
            *yj += xi * wij;
        }
    }
    y
}

/// Elementwise `a += b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += y;
    }
}

/// Dot product.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Table rows one score tile carries at most: one per `f32` lane of a
/// 512-bit vector.
pub(crate) const LANES: usize = 16;

/// Whatever value `dot`'s `sum()` starts from.
#[inline(always)]
fn seed() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// Row `r` of the table, checked to be `n` long: the bound every arm's
/// unchecked reads rely on.
#[inline(always)]
fn table_row<'t>(table: &impl Fn(usize) -> &'t [f32], r: usize, n: usize) -> &'t [f32] {
    let row = table(r);
    assert_eq!(row.len(), n, "table row length");
    row
}

/// A vector of `f32` lanes as one lane arm holds it: all that is
/// arm-specific in [`score_lanes`] and [`weigh_lanes`], whose loops are
/// written once over it. Every op is one IEEE-754 operation per lane, and
/// none fuses a multiply with an add. Implemented for `__m512` (AVX-512,
/// 16 lanes), `__m256` (AVX2, 8) and `f32` (one lane, any CPU).
///
/// # Safety
///
/// Every method needs the CPU to support its implementor's target
/// feature, under which it is compiled to be inlined into the arms of
/// [`hnlpu_model::arm::per_arm!`]; `load` and `store` need `m` in
/// `1..=WIDTH` and that many floats valid at `p`.
#[expect(
    clippy::missing_safety_doc,
    reason = "one contract for every method, stated above"
)]
pub(crate) trait Lanes: Copy {
    /// Lanes per vector: the table rows of one score tile, the head
    /// elements of one value step.
    const WIDTH: usize;
    /// `x` in every lane.
    unsafe fn splat(x: f32) -> Self;
    /// The first `m` floats at `p`, zero in the other lanes.
    unsafe fn load(p: *const f32, m: usize) -> Self;
    /// Store the first `m` lanes at `p`.
    unsafe fn store(self, p: *mut f32, m: usize);
    /// `self + a · b`, the multiply and the add each rounded.
    unsafe fn add_mul(self, a: Self, b: Self) -> Self;
    /// Transpose `WIDTH` rows, each `tile.len() / WIDTH` long, into
    /// `tile`: float `i · WIDTH + l` becomes element `i` of row `l`.
    unsafe fn transpose(tile: &mut [f32], rows: &[&[f32]]);
}

/// One lane: the scalar loops, for any CPU.
impl Lanes for f32 {
    const WIDTH: usize = 1;
    #[inline(always)]
    unsafe fn splat(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    unsafe fn load(p: *const f32, _: usize) -> f32 {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32, _: usize) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn add_mul(self, a: f32, b: f32) -> f32 {
        self + a * b
    }
    #[inline(always)]
    unsafe fn transpose(tile: &mut [f32], rows: &[&[f32]]) {
        tile.copy_from_slice(rows[0]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// Sixteen lanes of one zmm register.
    impl Lanes for __m512 {
        const WIDTH: usize = LANES;
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(p: *const f32, m: usize) -> Self {
            _mm512_maskz_loadu_ps(((1u32 << m) - 1) as __mmask16, p)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, p: *mut f32, m: usize) {
            _mm512_mask_storeu_ps(p, ((1u32 << m) - 1) as __mmask16, self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn add_mul(self, a: Self, b: Self) -> Self {
            _mm512_add_ps(self, _mm512_mul_ps(a, b))
        }
        /// Per run of 16 row elements: sixteen rows loaded, interleaved
        /// within each 128-bit lane in pairs and pairs of pairs (128-bit
        /// lane `L` of `u[4g + e]` is element `4L + e` of rows `4g ..
        /// 4g + 4`), then two rounds of 128-bit shuffles gather each
        /// element's four quarters.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn transpose(tile: &mut [f32], rows: &[&[f32]]) {
            let n = tile.len() / LANES;
            for c in (0..n).step_by(LANES) {
                let m = (n - c).min(LANES);
                let mut v = [_mm512_setzero_ps(); LANES];
                for (v, r) in v.iter_mut().zip(rows) {
                    *v = Self::load(r.as_ptr().add(c), m);
                }
                let mut t = v;
                for k in (0..LANES).step_by(2) {
                    t[k] = _mm512_unpacklo_ps(v[k], v[k + 1]);
                    t[k + 1] = _mm512_unpackhi_ps(v[k], v[k + 1]);
                }
                let pairs = |a: __m512, b: __m512, high: bool| {
                    let (a, b) = (_mm512_castps_pd(a), _mm512_castps_pd(b));
                    let ab = if high {
                        _mm512_unpackhi_pd(a, b)
                    } else {
                        _mm512_unpacklo_pd(a, b)
                    };
                    _mm512_castpd_ps(ab)
                };
                let mut u = t;
                for g in (0..LANES).step_by(4) {
                    u[g] = pairs(t[g], t[g + 2], false);
                    u[g + 1] = pairs(t[g], t[g + 2], true);
                    u[g + 2] = pairs(t[g + 1], t[g + 3], false);
                    u[g + 3] = pairs(t[g + 1], t[g + 3], true);
                }
                for e in 0..4 {
                    let low = _mm512_shuffle_f32x4::<0x44>(u[e], u[4 + e]);
                    let low2 = _mm512_shuffle_f32x4::<0x44>(u[8 + e], u[12 + e]);
                    let high = _mm512_shuffle_f32x4::<0xEE>(u[e], u[4 + e]);
                    let high2 = _mm512_shuffle_f32x4::<0xEE>(u[8 + e], u[12 + e]);
                    v[e] = _mm512_shuffle_f32x4::<0x88>(low, low2);
                    v[4 + e] = _mm512_shuffle_f32x4::<0xDD>(low, low2);
                    v[8 + e] = _mm512_shuffle_f32x4::<0x88>(high, high2);
                    v[12 + e] = _mm512_shuffle_f32x4::<0xDD>(high, high2);
                }
                for (i, v) in v[..m].iter().enumerate() {
                    _mm512_storeu_ps(tile.as_mut_ptr().add((c + i) * LANES), *v);
                }
            }
        }
    }

    /// Eight lanes of one ymm register.
    impl Lanes for __m256 {
        const WIDTH: usize = 8;
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(p: *const f32, m: usize) -> Self {
            _mm256_maskload_ps(p, first(m))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store(self, p: *mut f32, m: usize) {
            _mm256_maskstore_ps(p, first(m), self)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn add_mul(self, a: Self, b: Self) -> Self {
            _mm256_add_ps(self, _mm256_mul_ps(a, b))
        }
        /// Per run of 8 row elements: eight rows loaded, interleaved
        /// within each 128-bit lane in pairs and pairs of pairs (128-bit
        /// lane `L` of `u[4g + e]` is element `4L + e` of rows `4g ..
        /// 4g + 4`), then one round of 128-bit permutes joins each
        /// element's two halves.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn transpose(tile: &mut [f32], rows: &[&[f32]]) {
            let n = tile.len() / 8;
            for c in (0..n).step_by(8) {
                let m = (n - c).min(8);
                let mut v = [_mm256_setzero_ps(); 8];
                for (v, r) in v.iter_mut().zip(rows) {
                    *v = Self::load(r.as_ptr().add(c), m);
                }
                let mut t = v;
                for k in (0..8).step_by(2) {
                    t[k] = _mm256_unpacklo_ps(v[k], v[k + 1]);
                    t[k + 1] = _mm256_unpackhi_ps(v[k], v[k + 1]);
                }
                let mut u = t;
                for g in (0..8).step_by(4) {
                    u[g] = _mm256_shuffle_ps::<0x44>(t[g], t[g + 2]);
                    u[g + 1] = _mm256_shuffle_ps::<0xEE>(t[g], t[g + 2]);
                    u[g + 2] = _mm256_shuffle_ps::<0x44>(t[g + 1], t[g + 3]);
                    u[g + 3] = _mm256_shuffle_ps::<0xEE>(t[g + 1], t[g + 3]);
                }
                for e in 0..4 {
                    v[e] = _mm256_permute2f128_ps::<0x20>(u[e], u[4 + e]);
                    v[4 + e] = _mm256_permute2f128_ps::<0x31>(u[e], u[4 + e]);
                }
                for (i, v) in v[..m].iter().enumerate() {
                    _mm256_storeu_ps(tile.as_mut_ptr().add((c + i) * 8), *v);
                }
            }
        }
    }

    /// The first `m ≤ 8` lanes, as a mask vector.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn first(m: usize) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(m as i32), lanes)
    }
}

/// Queries `0..count` in passes of 16 (when `wide`) or 8, then the rest
/// in passes of 4, 2 and 1: `|N, j| pass` runs queries `j .. j + N` with
/// `N` a constant, so a pass's chains are a compile-time array of vector
/// registers.
macro_rules! query_passes {
    ($wide:expr, $count:expr, |$n:ident, $j:ident| $pass:expr) => {{
        let (wide, count) = ($wide, $count);
        let mut $j = 0;
        while count - $j >= 8 {
            if wide && count - $j >= 16 {
                const $n: usize = 16;
                $pass;
                $j += $n;
            } else {
                const $n: usize = 8;
                $pass;
                $j += $n;
            }
        }
        query_passes!(@rest count, $j, |$n| $pass, 4, 2, 1);
    }};
    (@rest $count:ident, $j:ident, |$n:ident| $pass:expr, $($width:literal),*) => {
        $(
            if ($count - $j) & $width != 0 {
                const $n: usize = $width;
                $pass;
                $j += $n;
            }
        )*
        let _ = $j;
    };
}

/// [`dot`]s with table rows in the lanes: `out[j * row + p]` is bit for
/// bit `dot(queries[j], keys(p))` for every query `j` and position `p` in
/// `positions`; nothing else of `out` is written.
///
/// The positions go a tile of `V::WIDTH` at a time: the tile's keys (`n`
/// long each) are transposed once into `tile` (which holds `n × LANES`
/// floats), so that element `i` of every key sits in one vector, and the
/// queries are scored against it up to 16 at a time, each query element
/// broadcast across the lanes. Each lane runs one position's `dot` chain
/// from `dot`'s seed, strictly in element order with the multiply and the
/// add as separate roundings (no FMA), so a score depends on neither its
/// tile, nor the queries beside it, nor the arm.
///
/// # Safety
///
/// The CPU must support `V`'s arm ([`Lanes`]).
///
/// # Panics
///
/// Panics if `tile` is not a whole number of lane rows, a query or key is
/// not `n` long, `positions` ends past `row`, or `out` is shorter than
/// `(queries.len() - 1) × row + positions.end`.
#[inline(always)]
pub(crate) unsafe fn score_lanes<'k, V: Lanes>(
    tile: &mut [f32],
    keys: impl Fn(usize) -> &'k [f32],
    positions: Range<usize>,
    queries: &[&[f32]],
    out: &mut [f32],
    row: usize,
) {
    let n = tile.len() / LANES;
    assert!(tile.len().is_multiple_of(LANES), "key tile shape");
    assert!(queries.iter().all(|q| q.len() == n), "query length");
    let Some(last) = queries.len().checked_sub(1) else {
        return;
    };
    assert!(positions.end <= row, "position past the score row");
    assert!(
        out.len() >= last * row + positions.end,
        "score rows too short"
    );
    let tile = &mut tile[..V::WIDTH * n];
    let mut rows = [&[][..]; LANES];
    for p in (positions.start..positions.end).step_by(V::WIDTH) {
        let width = (positions.end - p).min(V::WIDTH);
        for (r, p) in rows.iter_mut().zip(p..p + width) {
            *r = table_row(&keys, p, n);
        }
        // Lanes past the tile repeat its last key; they are never stored.
        let key = rows[width - 1];
        rows[width..V::WIDTH].fill(key);
        V::transpose(tile, &rows[..V::WIDTH]);
        let out = out.as_mut_ptr().add(p);
        query_passes!(V::WIDTH == LANES, queries.len(), |N, j| {
            let mut acc = [V::splat(seed()); N];
            for i in 0..n {
                let k = V::load(tile.as_ptr().add(i * V::WIDTH), V::WIDTH);
                for (a, q) in acc.iter_mut().zip(&queries[j..j + N]) {
                    *a = a.add_mul(V::splat(*q.as_ptr().add(i)), k);
                }
            }
            for (k, a) in acc.iter().enumerate() {
                a.store(out.add((j + k) * row), width);
            }
        });
    }
}

/// The flash numerator and denominator of `sums.len()` queries, with the
/// head dimension in the lanes: for each position `p` of `positions`, in
/// order, and each query `j`, `sums[j] += e` and `acc[j * n + i] += e *
/// values(p)[i]` for each of the `n = acc.len() / sums.len()` elements,
/// where `e = w[j * row + p]`. That is, bit for bit, a lone query's `sum
/// += e; acc[i] += e * v[i]` loop, with the multiply and the add
/// separately rounded. Per `V::WIDTH` head elements, each value row is
/// read once for up to 16 queries, whose accumulators stay in registers
/// across the positions.
///
/// # Safety
///
/// The CPU must support `V`'s arm ([`Lanes`]).
///
/// # Panics
///
/// Panics if `acc` is not `sums.len()` whole rows, `positions` ends past
/// `row`, `w` is shorter than `(sums.len() - 1) × row + positions.end`, or
/// a value row is not `n` long.
#[inline(always)]
pub(crate) unsafe fn weigh_lanes<'v, V: Lanes>(
    w: &[f32],
    row: usize,
    positions: Range<usize>,
    values: impl Fn(usize) -> &'v [f32],
    sums: &mut [f32],
    acc: &mut [f32],
) {
    let Some(last) = sums.len().checked_sub(1) else {
        return;
    };
    if positions.is_empty() {
        return;
    }
    let n = acc.len() / sums.len();
    assert_eq!(n * sums.len(), acc.len(), "accumulator shape");
    assert!(positions.end <= row, "position past the weight row");
    assert!(
        w.len() >= last * row + positions.end,
        "weight rows too short"
    );
    for p in positions.start..positions.end {
        for (j, sum) in sums.iter_mut().enumerate() {
            *sum += w[j * row + p];
        }
    }
    query_passes!(V::WIDTH == LANES, sums.len(), |N, j| {
        for c in (0..n).step_by(V::WIDTH) {
            let (m, a) = ((n - c).min(V::WIDTH), acc.as_mut_ptr().add(j * n + c));
            let mut v = [V::splat(0.0); N];
            for (k, v) in v.iter_mut().enumerate() {
                *v = V::load(a.add(k * n), m);
            }
            for p in positions.start..positions.end {
                let x = V::load(table_row(&values, p, n).as_ptr().add(c), m);
                for (k, v) in v.iter_mut().enumerate() {
                    *v = v.add_mul(V::splat(*w.as_ptr().add((j + k) * row + p)), x);
                }
            }
            for (k, v) in v.iter().enumerate() {
                v.store(a.add(k * n), m);
            }
        }
    });
}

/// Hidden rows one [`unembed_into`] call may carry.
pub(crate) const UNEMBED_MAX_ROWS: usize = 64;

hnlpu_model::arm::per_arm! {
    /// Weight-tied unembedding of `xs.len() / h` normalized hidden rows
    /// (`xs` row-major, `h` wide) against the `vocab × h` row-major
    /// `embedding` table, in **one pass over the table**: for each
    /// vocabulary row in order, `emit(token, logits)` receives that
    /// token's logit for every hidden row.
    ///
    /// Every logit is [`dot`]'s exact accumulation chain, so it never
    /// depends on how many rows were unembedded with it: the table's rows
    /// are the tiles of [`score_lanes`], transposed in `lanes` (which must
    /// hold [`LANES`] (16) × `h` floats), and the hidden rows its queries
    /// — each table row read once for all of them.
    ///
    /// # Panics
    ///
    /// Panics if `xs` or `embedding` is not a whole number of `h`-wide
    /// rows, there are no or more than [`UNEMBED_MAX_ROWS`] hidden rows,
    /// or `lanes` is too short.
    pub(crate) fn unembed_into, unembed_into_on<V>(embedding: &[f32], h: usize, xs: &[f32],
        lanes: &mut [f32], emit: impl FnMut(usize, &[f32])) {
        // SAFETY: `V` is the lane vector of the arm this body runs on.
        unsafe { unembed_lanes::<V>(embedding, h, xs, lanes, emit) }
    }
}

/// The body of [`unembed_into`].
///
/// # Safety
///
/// The CPU must support `V`'s arm ([`Lanes`]).
#[inline(always)]
unsafe fn unembed_lanes<V: Lanes>(
    embedding: &[f32],
    h: usize,
    xs: &[f32],
    lanes: &mut [f32],
    mut emit: impl FnMut(usize, &[f32]),
) {
    assert!(h > 0 && embedding.len().is_multiple_of(h), "table shape");
    assert!(xs.len().is_multiple_of(h), "hidden panel shape");
    let rows = xs.len() / h;
    assert!((1..=UNEMBED_MAX_ROWS).contains(&rows), "hidden row count");
    let mut queries = [&[][..]; UNEMBED_MAX_ROWS];
    for (q, x) in queries.iter_mut().zip(xs.chunks_exact(h)) {
        *q = x;
    }
    // `scores[j * LANES + r]` is token `first + r`'s logit for hidden row
    // `j`.
    let mut scores = [0.0f32; UNEMBED_MAX_ROWS * LANES];
    let mut logits = [0.0f32; UNEMBED_MAX_ROWS];
    let vocab = embedding.len() / h;
    for first in (0..vocab).step_by(LANES) {
        let tokens = (vocab - first).min(LANES);
        let table = |r: usize| &embedding[(first + r) * h..][..h];
        let (tile, queries) = (&mut lanes[..LANES * h], &queries[..rows]);
        score_lanes::<V>(tile, table, 0..tokens, queries, &mut scores, LANES);
        for r in 0..tokens {
            for (logit, s) in logits[..rows].iter_mut().zip(scores.chunks_exact(LANES)) {
                *logit = s[r];
            }
            emit(first + r, &logits[..rows]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hnlpu_model::arm::available;

    #[test]
    fn vec_mat_identity() {
        // 3x3 identity.
        let w = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(vec_mat(&[2.0, 3.0, 4.0], &w, 3), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn vec_mat_block_partials_sum_to_full() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let w: Vec<f32> = (0..4 * 6).map(|i| i as f32 * 0.5).collect();
        let full = vec_mat(&x, &w, 6);
        let mut sum = vec![0.0; 3];
        // Split rows in two halves, columns 0..3.
        for rows in [0..2usize, 2..4] {
            let part = vec_mat_block(&x, &w, 6, rows, 0..3);
            add_assign(&mut sum, &part);
        }
        assert_eq!(sum, full[0..3].to_vec());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn vec_mat_validates() {
        vec_mat(&[1.0], &[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn dot_sums_products() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn zero_skip_is_exact() {
        let x = [0.0f32, 1.0];
        let w = [5.0f32, 6.0, 7.0, 8.0];
        assert_eq!(vec_mat(&x, &w, 2), vec![7.0, 8.0]);
    }

    /// The value generator of the bitwise properties: mixed signs and
    /// both signed zeros, which expose a wrong seed value or a fused
    /// multiply-add.
    pub(crate) fn signed_values(seed: u64) -> impl Fn(usize) -> f32 {
        move |i: usize| match (i as u64).wrapping_mul(seed + 3) % 7 {
            0 => 0.0,
            1 => -0.0,
            k => ((i as u64 * 2654435761 + seed) % 2000) as f32 * 1e-3 * k as f32 - 3.0,
        }
    }

    hnlpu_model::arm::per_arm! {
        /// [`score_lanes`] on `arm`'s lane vector.
        fn score_on<V>(tile: &mut [f32], keys: &[Vec<f32>], positions: Range<usize>,
            queries: &[&[f32]], out: &mut [f32], row: usize) {
            let key = |p: usize| keys[p].as_slice();
            // SAFETY: `V` is this arm's lane vector.
            unsafe { score_lanes::<V>(tile, key, positions, queries, out, row) }
        }
    }

    hnlpu_model::arm::per_arm! {
        /// [`weigh_lanes`] on `arm`'s lane vector.
        fn weigh_on<V>(w: &[f32], row: usize, positions: Range<usize>, values: &[Vec<f32>],
            sums: &mut [f32], acc: &mut [f32]) {
            let value = |p: usize| values[p].as_slice();
            // SAFETY: `V` is this arm's lane vector.
            unsafe { weigh_lanes::<V>(w, row, positions, value, sums, acc) }
        }
    }

    proptest::proptest! {
        /// The unembedding contract: whatever the row count, on every arm
        /// this CPU has and through the dispatcher, every logit is
        /// bit-for-bit `dot(hidden row, table row)` — including signed
        /// zeros, which expose a wrong seed value or a fused multiply-add.
        #[test]
        fn unembed_is_bitwise_dot_for_every_row_count(
            rows in 1usize..=UNEMBED_MAX_ROWS,
            h in 1usize..40,
            vocab in 1usize..40,
            seed in 0u64..1000,
        ) {
            let value = signed_values(seed);
            let embedding: Vec<f32> = (0..vocab * h).map(|i| value(i * 3 + 1)).collect();
            let xs: Vec<f32> = (0..rows * h).map(&value).collect();
            let mut lanes = vec![f32::NAN; rows.div_ceil(LANES) * LANES * h];
            let mut seen = 0;
            let mut check = |token: usize, logits: &[f32]| {
                assert_eq!(token, seen % vocab, "tokens arrive in table order");
                seen += 1;
                assert_eq!(logits.len(), rows);
                for (r, got) in logits.iter().enumerate() {
                    let want = dot(&xs[r * h..(r + 1) * h], &embedding[token * h..(token + 1) * h]);
                    assert_eq!(got.to_bits(), want.to_bits(), "row {r} token {token}");
                }
            };
            unembed_into(&embedding, h, &xs, &mut lanes, &mut check);
            for &arm in available() {
                unembed_into_on(arm, &embedding, h, &xs, &mut lanes, &mut check);
            }
            proptest::prop_assert_eq!(seen, vocab * (1 + available().len()));
        }

        /// The score contract, per arm: `score_lanes` as each arm this CPU
        /// has compiles it writes each (query, position) bit for bit as
        /// `dot(query, key)`, and nothing outside its position
        /// range — for ranges starting anywhere and ending on every tile
        /// width of both tile sizes, 1..=16 queries (every pass), head dims
        /// 8, 16, 24, 32 and 64 (and two that no vector divides), keys in
        /// separate allocations, and values with both signed zeros.
        #[test]
        fn score_lanes_every_arm_is_bitwise_dot(
            queries in 1usize..=LANES,
            width in 1usize..=LANES,
            tiles in 0usize..3,
            start in 0usize..5,
            dim in 0usize..7,
            seed in 0u64..1000,
        ) {
            let n = [8, 16, 24, 32, 64, 1, 13][dim];
            let value = signed_values(seed);
            let positions = start..start + tiles * LANES + width;
            let vector = |salt: usize| -> Vec<f32> { (0..n).map(|i| value(salt * 131 + i)).collect() };
            let keys: Vec<Vec<f32>> = (0..positions.end).map(|p| vector(p + 1)).collect();
            let qs: Vec<Vec<f32>> = (0..queries).map(|j| vector(10_000 + j)).collect();
            let qs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
            let row = positions.end + 3;
            for &arm in available() {
                let mut tile = vec![f32::NAN; LANES * n];
                let mut out = vec![f32::NAN; queries * row];
                score_on(arm, &mut tile, &keys, positions.clone(), &qs, &mut out, row);
                for (j, q) in qs.iter().enumerate() {
                    for (p, got) in out[j * row..][..row].iter().enumerate() {
                        if positions.contains(&p) {
                            let want = dot(q, &keys[p]);
                            proptest::prop_assert_eq!(got.to_bits(), want.to_bits(),
                                "{:?} query {} position {}", arm, j, p);
                        } else {
                            proptest::prop_assert!(got.is_nan(), "{:?} wrote query {} position {}", arm, j, p);
                        }
                    }
                }
            }
        }

        /// The flash contract, per arm: from any running state, each
        /// query's sum and accumulators come out of `weigh_lanes`, as each
        /// arm this CPU has compiles it, bit for bit as a lone query's `sum
        /// += e; acc[i] += e * v[i]` loop over the position range — for
        /// 1..=16 queries (every pass), ranges of 0..40 positions starting
        /// anywhere, head dims 8, 16, 24, 32 and 64 (and two that no vector
        /// divides), value rows in separate allocations, and NaN weights at
        /// every position a query must not read.
        #[test]
        fn weigh_lanes_every_arm_is_bitwise_the_lone_loop(
            queries in 1usize..=LANES,
            from in 0usize..6,
            len in 0usize..40,
            dim in 0usize..7,
            seed in 0u64..1000,
        ) {
            let n = [8, 16, 24, 32, 64, 1, 13][dim];
            let value = signed_values(seed);
            let positions = from..from + len;
            let row = positions.end + 2;
            let w: Vec<f32> = (0..queries * row)
                .map(|i| if positions.contains(&(i % row)) { value(i * 3 + 1) } else { f32::NAN })
                .collect();
            let values: Vec<Vec<f32>> = (0..positions.end)
                .map(|p| (0..n).map(|i| value(p * 131 + i + 11)).collect())
                .collect();
            let sums0: Vec<f32> = (0..queries).map(|j| value(j + 900)).collect();
            let acc0: Vec<f32> = (0..queries * n).map(|i| value(i + 1700)).collect();
            let (mut want_sums, mut want_acc) = (sums0.clone(), acc0.clone());
            for j in 0..queries {
                for p in positions.clone() {
                    let e = w[j * row + p];
                    want_sums[j] += e;
                    for i in 0..n {
                        want_acc[j * n + i] += e * values[p][i];
                    }
                }
            }
            for &arm in available() {
                let (mut sums, mut acc) = (sums0.clone(), acc0.clone());
                weigh_on(arm, &w, row, positions.clone(), &values, &mut sums, &mut acc);
                for (j, (g, w)) in sums.iter().zip(&want_sums).enumerate() {
                    proptest::prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} sum of query {}", arm, j);
                }
                for (i, (g, w)) in acc.iter().zip(&want_acc).enumerate() {
                    proptest::prop_assert_eq!(g.to_bits(), w.to_bits(),
                        "{:?} query {} element {}", arm, i / n, i % n);
                }
            }
        }
    }
}
