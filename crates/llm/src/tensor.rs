//! Minimal row-major matrix/vector kernels.
//!
//! [`dot`] defines the one accumulation chain every logit and attention
//! score follows. `dot_lanes` runs many of those chains side by side —
//! queries in SIMD lanes, a shared table of rows broadcast across them —
//! without changing a bit of any: [`unembed_into`] and the grid's column
//! attention are its two callers.

use std::ops::Range;

/// `y = x · W` where `x` is `(1, rows)` and `W` is row-major `(rows, cols)`.
///
/// # Panics
///
/// Panics if `x.len() * cols != w.len()`.
pub fn vec_mat(x: &[f32], w: &[f32], cols: usize) -> Vec<f32> {
    assert_eq!(x.len() * cols, w.len(), "shape mismatch");
    let mut y = vec![0.0f32; cols];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols..(i + 1) * cols];
        for (yj, &wij) in y.iter_mut().zip(row.iter()) {
            *yj += xi * wij;
        }
    }
    y
}

/// Allocation-free [`vec_mat`]: overwrite `y` with `x · W`. Same zero-skip
/// accumulation order, so results are bit-identical.
///
/// # Panics
///
/// Panics if `x.len() * cols != w.len()` or `y.len() != cols`.
pub fn vec_mat_into(x: &[f32], w: &[f32], cols: usize, y: &mut [f32]) {
    assert_eq!(x.len() * cols, w.len(), "shape mismatch");
    assert_eq!(y.len(), cols, "output length mismatch");
    y.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = &w[i * cols..(i + 1) * cols];
        for (yj, &wij) in y.iter_mut().zip(row.iter()) {
            *yj += xi * wij;
        }
    }
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
pub fn add_assign(a: &mut [f32], b: &[f32]) {
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

/// Queries one [`dot_lanes`] block carries: one per `f32` lane of a
/// 512-bit vector.
pub(crate) const LANES: usize = 16;

/// Table rows one pass of [`dot_lanes`] scores: the independent
/// accumulation chains each lane keeps in flight.
const PASS: usize = 4;

/// Lane-transpose up to [`LANES`] vectors, each `block.len() / LANES`
/// long, into `block`: float `i * LANES + l` becomes element `i` of
/// vector `l`. Lanes past the last vector keep whatever they held.
///
/// # Panics
///
/// Panics if there are more than [`LANES`] vectors or one has the wrong
/// length.
// analyze: hot
pub(crate) fn transpose_lanes<'v>(block: &mut [f32], vectors: impl IntoIterator<Item = &'v [f32]>) {
    let n = block.len() / LANES;
    for (l, v) in vectors.into_iter().enumerate() {
        assert!(l < LANES && v.len() == n, "lane block shape");
        for (i, &x) in v.iter().enumerate() {
            block[i * LANES + l] = x;
        }
    }
}

/// Many of [`dot`]'s chains side by side: `out[r * LANES + l]` is bit for
/// bit `dot(query l, table(r))` for every live lane `l < queries` and
/// table row `r < rows`.
///
/// `block` holds the queries lane-transposed ([`transpose_lanes`]: `n ×
/// LANES` floats for `n`-long queries); `table(r)` hands out row `r`, `n`
/// long — contiguous embedding rows or [`crate::kv_cache::KvCache::key`]
/// page lookups alike. Each table element is broadcast across the lanes,
/// and [`PASS`] table rows are scored per pass, so every lane keeps that
/// many independent chains in flight. Every chain starts from `dot`'s seed
/// and runs strictly in order with the multiply and the add as separate
/// roundings (no FMA), so a score never depends on which queries or rows
/// it was computed beside, nor on the arm. Lanes at or past `queries` of
/// `out` hold unspecified values.
///
/// The CPU alone picks the arm, with the panel matmul's selector
/// ([`crate::kernels::kernel_path`] names both): AVX-512 runs a block as
/// one 16-lane vector, AVX2 as two 8-lane halves (one when at most 8
/// lanes are live), anything else the portable loop.
///
/// # Panics
///
/// Panics if `block` is not a whole number of lane rows, `queries` is not
/// in `1..=LANES`, `out` is shorter than `rows × LANES`, or a table row is
/// not `n` long.
// analyze: hot
pub(crate) fn dot_lanes<'t>(
    block: &[f32],
    queries: usize,
    rows: usize,
    table: impl Fn(usize) -> &'t [f32],
    out: &mut [f32],
) {
    assert!(block.len().is_multiple_of(LANES), "lane block shape");
    assert!((1..=LANES).contains(&queries), "live lanes");
    assert!(out.len() >= rows * LANES, "score block too short");
    // Whatever value `dot`'s `sum()` starts from.
    let seed: f32 = std::iter::empty::<f32>().sum();
    #[cfg(target_arch = "x86_64")]
    match crate::kernels::arm() {
        crate::kernels::Arm::Avx512 => {
            // SAFETY: this arm implies AVX-512F; shapes asserted above.
            unsafe { avx512::dot_lanes(block, rows, &table, out, seed) };
            return;
        }
        crate::kernels::Arm::Avx2 => {
            // SAFETY: this arm implies AVX2; shapes asserted above.
            unsafe { avx2::dot_lanes(block, queries, rows, &table, out, seed) };
            return;
        }
        crate::kernels::Arm::Portable => {}
    }
    portable_dot_lanes(block, queries, rows, &table, out, seed);
}

/// Row `r` of the table, checked to be `n` long: the bound every arm's
/// unchecked reads rely on.
#[inline(always)]
fn table_row<'t>(table: &impl Fn(usize) -> &'t [f32], r: usize, n: usize) -> &'t [f32] {
    let row = table(r);
    assert_eq!(row.len(), n, "table row length");
    row
}

/// [`dot_lanes`] in plain loops, for any CPU.
fn portable_dot_lanes<'t>(
    block: &[f32],
    queries: usize,
    rows: usize,
    table: &impl Fn(usize) -> &'t [f32],
    out: &mut [f32],
    seed: f32,
) {
    let n = block.len() / LANES;
    for r in (0..rows).step_by(PASS) {
        let pass = (rows - r).min(PASS);
        let mut keys: [&[f32]; PASS] = [&[]; PASS];
        for (j, k) in keys[..pass].iter_mut().enumerate() {
            *k = table_row(table, r + j, n);
        }
        let mut acc = [[seed; LANES]; PASS];
        for (i, q) in block.chunks_exact(LANES).enumerate() {
            for (a, k) in acc[..pass].iter_mut().zip(&keys) {
                let ki = k[i];
                for (al, &ql) in a[..queries].iter_mut().zip(q) {
                    *al += ql * ki;
                }
            }
        }
        for (o, a) in out[r * LANES..].chunks_exact_mut(LANES).zip(&acc[..pass]) {
            o[..queries].copy_from_slice(&a[..queries]);
        }
    }
}

/// [`dot_lanes`] with one zmm vector per table row of a pass.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{table_row, Range, LANES, PASS};
    use std::arch::x86_64::*;

    /// Full passes, then the last `rows % PASS` table rows as one
    /// narrower pass.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F support, `block.len()` a
    /// multiple of `LANES` and `out.len() ≥ rows · LANES`; table rows are
    /// length-checked before any read.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot_lanes<'t>(
        block: &[f32],
        rows: usize,
        table: &impl Fn(usize) -> &'t [f32],
        out: &mut [f32],
        seed: f32,
    ) {
        let mut r = 0;
        while rows - r >= PASS {
            pass::<PASS>(block, r, table, out, seed);
            r += PASS;
        }
        // One instantiation per remainder, so the accumulators stay a
        // compile-time array in registers.
        match rows - r {
            3 => pass::<3>(block, r, table, out, seed),
            2 => pass::<2>(block, r, table, out, seed),
            1 => pass::<1>(block, r, table, out, seed),
            _ => {}
        }
    }

    /// Table rows `r .. r + N`: per element, one query vector load and
    /// `N` broadcast multiply-then-add steps.
    ///
    /// # Safety
    ///
    /// As `dot_lanes`, with `r + N ≤ rows`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn pass<'t, const N: usize>(
        block: &[f32],
        r: usize,
        table: &impl Fn(usize) -> &'t [f32],
        out: &mut [f32],
        seed: f32,
    ) {
        let n = block.len() / LANES;
        let mut keys = [std::ptr::null::<f32>(); N];
        for (j, k) in keys.iter_mut().enumerate() {
            *k = table_row(table, r + j, n).as_ptr();
        }
        let q = block.as_ptr();
        let mut acc = [_mm512_set1_ps(seed); N];
        for i in 0..n {
            let qv = _mm512_loadu_ps(q.add(i * LANES));
            for (a, k) in acc.iter_mut().zip(&keys) {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(qv, _mm512_set1_ps(*k.add(i))));
            }
        }
        let o = out.as_mut_ptr().add(r * LANES);
        for (j, a) in acc.iter().enumerate() {
            _mm512_storeu_ps(o.add(j * LANES), *a);
        }
    }

    /// Full passes of table rows, then the remainder as one narrower pass.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F support, `acc.len()` a multiple
    /// of `LANES`, `w.len() ≥ rows.end · LANES` and every end ≤ `i32::MAX`;
    /// table rows are length-checked before any read.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accumulate_lanes<'t>(
        w: &[f32],
        ends: &[u32; LANES],
        rows: Range<usize>,
        table: &impl Fn(usize) -> &'t [f32],
        sums: &mut [f32; LANES],
        acc: &mut [f32],
    ) {
        let ends = _mm512_loadu_si512(ends.as_ptr().cast());
        let mut sum = _mm512_loadu_ps(sums.as_ptr());
        let mut p = rows.start;
        while rows.end - p >= PASS {
            weigh::<PASS>(w, ends, p, table, &mut sum, acc);
            p += PASS;
        }
        match rows.end - p {
            3 => weigh::<3>(w, ends, p, table, &mut sum, acc),
            2 => weigh::<2>(w, ends, p, table, &mut sum, acc),
            1 => weigh::<1>(w, ends, p, table, &mut sum, acc),
            _ => {}
        }
        _mm512_storeu_ps(sums.as_mut_ptr(), sum);
    }

    /// Table rows `p .. p + N`: per accumulator element one load, `N`
    /// masked multiply-then-add steps in position order, one store.
    ///
    /// # Safety
    ///
    /// As `accumulate_lanes`, with `p + N ≤ rows.end`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn weigh<'t, const N: usize>(
        w: &[f32],
        ends: __m512i,
        p: usize,
        table: &impl Fn(usize) -> &'t [f32],
        sum: &mut __m512,
        acc: &mut [f32],
    ) {
        let n = acc.len() / LANES;
        let mut masks = [0; N];
        let mut es = [_mm512_setzero_ps(); N];
        let mut vals = [std::ptr::null::<f32>(); N];
        for j in 0..N {
            masks[j] = _mm512_cmplt_epi32_mask(_mm512_set1_epi32((p + j) as i32), ends);
            es[j] = _mm512_loadu_ps(w.as_ptr().add((p + j) * LANES));
            *sum = _mm512_mask_add_ps(*sum, masks[j], *sum, es[j]);
            vals[j] = table_row(table, p + j, n).as_ptr();
        }
        let a = acc.as_mut_ptr();
        for i in 0..n {
            let mut v = _mm512_loadu_ps(a.add(i * LANES));
            for j in 0..N {
                let term = _mm512_mul_ps(es[j], _mm512_set1_ps(*vals[j].add(i)));
                v = _mm512_mask_add_ps(v, masks[j], v, term);
            }
            _mm512_storeu_ps(a.add(i * LANES), v);
        }
    }
}

/// [`dot_lanes`] with each 16-lane block as two 8-lane ymm halves, or one
/// when the live lanes fit in it.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{table_row, Range, LANES, PASS};
    use std::arch::x86_64::*;

    /// Lanes per ymm half.
    const HALF: usize = LANES / 2;

    /// # Safety
    ///
    /// Caller must ensure AVX2 support, `block.len()` a multiple of
    /// `LANES` and `out.len() ≥ rows · LANES`; table rows are
    /// length-checked before any read.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_lanes<'t>(
        block: &[f32],
        queries: usize,
        rows: usize,
        table: &impl Fn(usize) -> &'t [f32],
        out: &mut [f32],
        seed: f32,
    ) {
        if queries <= HALF {
            passes::<1>(block, rows, table, out, seed);
        } else {
            passes::<2>(block, rows, table, out, seed);
        }
    }

    /// Full passes over `H` halves, then the remainder pass.
    ///
    /// # Safety
    ///
    /// As `dot_lanes`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn passes<'t, const H: usize>(
        block: &[f32],
        rows: usize,
        table: &impl Fn(usize) -> &'t [f32],
        out: &mut [f32],
        seed: f32,
    ) {
        let mut r = 0;
        while rows - r >= PASS {
            pass::<PASS, H>(block, r, table, out, seed);
            r += PASS;
        }
        match rows - r {
            3 => pass::<3, H>(block, r, table, out, seed),
            2 => pass::<2, H>(block, r, table, out, seed),
            1 => pass::<1, H>(block, r, table, out, seed),
            _ => {}
        }
    }

    /// Table rows `r .. r + N` against the first `H` halves of the block.
    ///
    /// # Safety
    ///
    /// As `dot_lanes`, with `r + N ≤ rows`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pass<'t, const N: usize, const H: usize>(
        block: &[f32],
        r: usize,
        table: &impl Fn(usize) -> &'t [f32],
        out: &mut [f32],
        seed: f32,
    ) {
        let n = block.len() / LANES;
        let mut keys = [std::ptr::null::<f32>(); N];
        for (j, k) in keys.iter_mut().enumerate() {
            *k = table_row(table, r + j, n).as_ptr();
        }
        let q = block.as_ptr();
        let mut acc = [[_mm256_set1_ps(seed); H]; N];
        for i in 0..n {
            let mut qv = [_mm256_setzero_ps(); H];
            for (half, v) in qv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(q.add(i * LANES + half * HALF));
            }
            for (a, k) in acc.iter_mut().zip(&keys) {
                let kv = _mm256_set1_ps(*k.add(i));
                for (ah, &qh) in a.iter_mut().zip(&qv) {
                    *ah = _mm256_add_ps(*ah, _mm256_mul_ps(qh, kv));
                }
            }
        }
        let o = out.as_mut_ptr().add(r * LANES);
        for (j, a) in acc.iter().enumerate() {
            for (half, &ah) in a.iter().enumerate() {
                _mm256_storeu_ps(o.add(j * LANES + half * HALF), ah);
            }
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 support, `acc.len()` a multiple of
    /// `LANES`, `w.len() ≥ rows.end · LANES` and every end ≤ `i32::MAX`;
    /// table rows are length-checked before any read.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_lanes<'t>(
        w: &[f32],
        ends: &[u32; LANES],
        rows: Range<usize>,
        table: &impl Fn(usize) -> &'t [f32],
        sums: &mut [f32; LANES],
        acc: &mut [f32],
    ) {
        if ends[HALF..].iter().all(|&e| e == 0) {
            weighs::<1>(w, ends, rows, table, sums, acc);
        } else {
            weighs::<2>(w, ends, rows, table, sums, acc);
        }
    }

    /// Full passes of table rows over `H` halves, then the remainder pass.
    ///
    /// # Safety
    ///
    /// As `accumulate_lanes`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn weighs<'t, const H: usize>(
        w: &[f32],
        ends: &[u32; LANES],
        rows: Range<usize>,
        table: &impl Fn(usize) -> &'t [f32],
        sums: &mut [f32; LANES],
        acc: &mut [f32],
    ) {
        let mut ends_v = [_mm256_setzero_si256(); H];
        let mut sum = [_mm256_setzero_ps(); H];
        for h in 0..H {
            ends_v[h] = _mm256_loadu_si256(ends.as_ptr().add(h * HALF).cast());
            sum[h] = _mm256_loadu_ps(sums.as_ptr().add(h * HALF));
        }
        let mut p = rows.start;
        while rows.end - p >= PASS {
            weigh::<PASS, H>(w, &ends_v, p, table, &mut sum, acc);
            p += PASS;
        }
        match rows.end - p {
            3 => weigh::<3, H>(w, &ends_v, p, table, &mut sum, acc),
            2 => weigh::<2, H>(w, &ends_v, p, table, &mut sum, acc),
            1 => weigh::<1, H>(w, &ends_v, p, table, &mut sum, acc),
            _ => {}
        }
        for (h, s) in sum.iter().enumerate() {
            _mm256_storeu_ps(sums.as_mut_ptr().add(h * HALF), *s);
        }
    }

    /// Table rows `p .. p + N` on the first `H` halves: a lane's steps are
    /// blended in only where its position is below its end.
    ///
    /// # Safety
    ///
    /// As `accumulate_lanes`, with `p + N ≤ rows.end`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn weigh<'t, const N: usize, const H: usize>(
        w: &[f32],
        ends: &[__m256i; H],
        p: usize,
        table: &impl Fn(usize) -> &'t [f32],
        sum: &mut [__m256; H],
        acc: &mut [f32],
    ) {
        let n = acc.len() / LANES;
        let mut masks = [[_mm256_setzero_ps(); H]; N];
        let mut es = [[_mm256_setzero_ps(); H]; N];
        let mut vals = [std::ptr::null::<f32>(); N];
        for j in 0..N {
            let at = _mm256_set1_epi32((p + j) as i32);
            for h in 0..H {
                masks[j][h] = _mm256_castsi256_ps(_mm256_cmpgt_epi32(ends[h], at));
                es[j][h] = _mm256_loadu_ps(w.as_ptr().add((p + j) * LANES + h * HALF));
                sum[h] = _mm256_blendv_ps(sum[h], _mm256_add_ps(sum[h], es[j][h]), masks[j][h]);
            }
            vals[j] = table_row(table, p + j, n).as_ptr();
        }
        let a = acc.as_mut_ptr();
        for i in 0..n {
            for h in 0..H {
                let at = a.add(i * LANES + h * HALF);
                let mut v = _mm256_loadu_ps(at);
                for j in 0..N {
                    let term = _mm256_mul_ps(es[j][h], _mm256_set1_ps(*vals[j].add(i)));
                    v = _mm256_blendv_ps(v, _mm256_add_ps(v, term), masks[j][h]);
                }
                _mm256_storeu_ps(at, v);
            }
        }
    }
}

/// The flash numerator and denominator of a lane block, in position
/// order: for each table row `p` in `rows`, and each lane `l` with `p <
/// ends[l]`, `sums[l] += w[p * LANES + l]` and then `acc[i * LANES + l] +=
/// w[p * LANES + l] * table(p)[i]` for each of the `n = acc.len() / LANES`
/// elements of the row. That is, bit for bit, a lone query's `sum += e;
/// acc[i] += e * v[i]` loop over its positions, with the multiply and the
/// add separately rounded; lanes side by side, each table row read once
/// for all of them. A lane's `sums` and `acc` entries are untouched at
/// positions at or past its end, so the caller may run the rows of a
/// block's shared table and each lane's own rows in separate calls.
///
/// The arm is [`dot_lanes`]': AVX-512 masks one 16-lane vector, AVX2
/// blends two 8-lane halves (one when no lane past the eighth has
/// positions), anything else the portable loop.
///
/// # Panics
///
/// Panics if `acc` is not a whole number of lane rows, `w` is shorter than
/// `rows.end × LANES`, an end does not fit in `i32`, or a table row
/// is not `n` long.
// analyze: hot
pub(crate) fn accumulate_lanes<'t>(
    w: &[f32],
    ends: &[u32; LANES],
    rows: Range<usize>,
    table: impl Fn(usize) -> &'t [f32],
    sums: &mut [f32; LANES],
    acc: &mut [f32],
) {
    assert!(acc.len().is_multiple_of(LANES), "accumulator shape");
    assert!(w.len() >= rows.end * LANES, "weight block too short");
    assert!(ends.iter().all(|&e| e <= i32::MAX as u32), "lane end");
    #[cfg(target_arch = "x86_64")]
    match crate::kernels::arm() {
        crate::kernels::Arm::Avx512 => {
            // SAFETY: this arm implies AVX-512F; shapes asserted above.
            unsafe { avx512::accumulate_lanes(w, ends, rows, &table, sums, acc) };
            return;
        }
        crate::kernels::Arm::Avx2 => {
            // SAFETY: this arm implies AVX2; shapes asserted above.
            unsafe { avx2::accumulate_lanes(w, ends, rows, &table, sums, acc) };
            return;
        }
        crate::kernels::Arm::Portable => {}
    }
    portable_accumulate_lanes(w, ends, rows, &table, sums, acc);
}

/// [`accumulate_lanes`] in plain loops, for any CPU.
fn portable_accumulate_lanes<'t>(
    w: &[f32],
    ends: &[u32; LANES],
    rows: Range<usize>,
    table: &impl Fn(usize) -> &'t [f32],
    sums: &mut [f32; LANES],
    acc: &mut [f32],
) {
    let n = acc.len() / LANES;
    for p in rows {
        let row = table_row(table, p, n);
        let e = &w[p * LANES..][..LANES];
        for l in (0..LANES).filter(|&l| (p as u64) < u64::from(ends[l])) {
            sums[l] += e[l];
            for (i, &v) in row.iter().enumerate() {
                acc[i * LANES + l] += e[l] * v;
            }
        }
    }
}

/// Hidden rows one [`unembed_into`] call may carry.
pub const UNEMBED_MAX_ROWS: usize = 64;

/// Weight-tied unembedding of `xs.len() / h` normalized hidden rows (`xs`
/// row-major, `h` wide) against the `vocab × h` row-major `embedding`
/// table, in **one pass over the table**: for each vocabulary row in
/// order, `emit(token, logits)` receives that token's logit for every
/// hidden row.
///
/// Every logit is [`dot`]'s exact accumulation chain, so it never depends
/// on how many rows were unembedded with it: the hidden rows are
/// lane-transposed into `lanes` (which must hold `rows` rounded up to a
/// multiple of `LANES` (16), times `h` floats), one `LANES` (16)-row block per
/// `dot_lanes` call, and the table rows are its table — read once for
/// all the hidden rows instead of once per row.
///
/// # Panics
///
/// Panics if `xs` or `embedding` is not a whole number of `h`-wide rows,
/// there are no or more than [`UNEMBED_MAX_ROWS`] hidden rows, or `lanes`
/// is too short.
// analyze: hot
pub fn unembed_into(
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
    let lanes = &mut lanes[..rows.div_ceil(LANES) * LANES * h];
    for (block, xs) in lanes.chunks_exact_mut(LANES * h).zip(xs.chunks(LANES * h)) {
        transpose_lanes(block, xs.chunks_exact(h));
    }
    // `LANES` tokens per sweep: `scores[b * LANES * LANES + r * LANES + l]`
    // is token `first + r`'s logit for hidden row `b * LANES + l`.
    let mut scores = [0.0f32; UNEMBED_MAX_ROWS * LANES];
    let mut logits = [0.0f32; UNEMBED_MAX_ROWS];
    let vocab = embedding.len() / h;
    for first in (0..vocab).step_by(LANES) {
        let tokens = (vocab - first).min(LANES);
        let blocks = lanes.chunks_exact(LANES * h);
        for (b, (block, out)) in blocks
            .zip(scores.chunks_exact_mut(LANES * LANES))
            .enumerate()
        {
            let queries = (rows - b * LANES).min(LANES);
            dot_lanes(
                block,
                queries,
                tokens,
                |r| &embedding[(first + r) * h..][..h],
                out,
            );
        }
        for r in 0..tokens {
            for (row, logit) in logits[..rows].iter_mut().enumerate() {
                *logit = scores[(row / LANES * LANES + r) * LANES + row % LANES];
            }
            emit(first + r, &logits[..rows]);
        }
    }
}

/// Scale in place.
pub fn scale(a: &mut [f32], k: f32) {
    for x in a.iter_mut() {
        *x *= k;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
    fn dot_and_scale() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut a = [2.0f32, 4.0];
        scale(&mut a, 0.5);
        assert_eq!(a, [1.0, 2.0]);
    }

    #[test]
    fn vec_mat_into_matches_vec_mat() {
        let x = [0.5f32, 0.0, -2.0];
        let w: Vec<f32> = (0..3 * 4).map(|i| (i as f32).cos()).collect();
        let mut y = [9.0f32; 4];
        vec_mat_into(&x, &w, 4, &mut y);
        assert_eq!(y.to_vec(), vec_mat(&x, &w, 4));
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

    /// The lane arms this CPU can run, by name; says once per process
    /// which ones those are.
    pub(crate) fn available_arms() -> Vec<&'static str> {
        #[allow(unused_mut)]
        let mut arms = vec!["portable"];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                arms.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                arms.push("avx512");
            }
        }
        static SAY: std::sync::Once = std::sync::Once::new();
        SAY.call_once(|| println!("lane arms called directly on this CPU: {arms:?}"));
        arms
    }

    proptest::proptest! {
        /// The unembedding contract: whatever the row count, every logit is
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
            unembed_into(&embedding, h, &xs, &mut lanes, |token, logits| {
                assert_eq!(token, seen, "tokens arrive in table order");
                seen += 1;
                assert_eq!(logits.len(), rows);
                for (r, got) in logits.iter().enumerate() {
                    let want = dot(&xs[r * h..(r + 1) * h], &embedding[token * h..(token + 1) * h]);
                    assert_eq!(got.to_bits(), want.to_bits(), "row {r} token {token}");
                }
            });
            proptest::prop_assert_eq!(seen, vocab);
        }

        /// The lane contract, per arm: every arm this CPU has, called
        /// directly (the dispatcher only ever reaches the widest), scores
        /// each live lane of each block bit for bit as `dot` — for 1..=64
        /// queries in blocks of 16 (full and partial blocks, one or two
        /// AVX2 halves), table lengths covering full passes and every
        /// remainder, dead lanes holding NaN, and a table of
        /// non-contiguous row slices. Lanes past the live ones are not
        /// checked; `out` past `rows` blocks must come back untouched.
        #[test]
        fn dot_lanes_every_arm_is_bitwise_dot(
            queries in 1usize..=64,
            n in 1usize..40,
            rows in 1usize..40,
            seed in 0u64..1000,
        ) {
            let value = signed_values(seed);
            let qs: Vec<f32> = (0..queries * n).map(&value).collect();
            // Row `r` at a stride of `n + 3`, so rows are separate slices.
            let table: Vec<f32> = (0..rows * (n + 3)).map(|i| value(i * 5 + 2)).collect();
            let row = |r: usize| &table[r * (n + 3)..][..n];
            for arm in available_arms() {
                for (b, q) in qs.chunks(LANES * n).enumerate() {
                    let live = q.len() / n;
                    let mut block = vec![f32::NAN; LANES * n];
                    transpose_lanes(&mut block, q.chunks_exact(n));
                    let mut out = vec![f32::NAN; (rows + 1) * LANES];
                    let seed: f32 = std::iter::empty::<f32>().sum();
                    match arm {
                        "portable" => portable_dot_lanes(&block, live, rows, &row, &mut out, seed),
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: `available_arms` checked AVX2; shapes as
                        // `dot_lanes` asserts.
                        "avx2" => unsafe { avx2::dot_lanes(&block, live, rows, &row, &mut out, seed) },
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: `available_arms` checked AVX-512F; shapes as
                        // `dot_lanes` asserts.
                        "avx512" => unsafe { avx512::dot_lanes(&block, rows, &row, &mut out, seed) },
                        _ => unreachable!("unknown arm {arm}"),
                    }
                    for r in 0..rows {
                        for l in 0..live {
                            let want = dot(&q[l * n..][..n], row(r));
                            proptest::prop_assert_eq!(out[r * LANES + l].to_bits(), want.to_bits(),
                                "{} block {} row {} lane {}", arm, b, r, l);
                        }
                    }
                    proptest::prop_assert!(out[rows * LANES..].iter().all(|v| v.is_nan()),
                        "{} wrote past row {}", arm, rows);
                }
            }
        }

        /// The flash contract, per arm: from any running state, each
        /// lane's sum and accumulators come out bit for bit as a lone
        /// query's `sum += e; acc[i] += e * v[i]` loop over its own
        /// positions of `from..rows` — for lane ends before, inside and
        /// past the range (and 0, and only in the low half), table rows of
        /// 1..40 elements and every pass remainder, with NaN weights at
        /// every position a lane must not read.
        #[test]
        fn accumulate_lanes_every_arm_is_bitwise_the_lone_loop(
            n in 1usize..40,
            rows in 1usize..40,
            from in 0usize..6,
            low_half in 0usize..3,
            seed in 0u64..1000,
        ) {
            let value = signed_values(seed);
            let from = from.min(rows);
            let mut ends = [0u32; LANES];
            for (l, e) in ends.iter_mut().enumerate() {
                if low_half == 0 || l < LANES / 2 {
                    *e = ((seed as usize + l * 7) % (rows + 3)) as u32;
                }
            }
            let w: Vec<f32> = (0..rows * LANES)
                .map(|i| if (i / LANES) < ends[i % LANES] as usize { value(i * 3 + 1).abs() } else { f32::NAN })
                .collect();
            let table: Vec<f32> = (0..rows * (n + 2)).map(|i| value(i * 5 + 2)).collect();
            let row = |p: usize| &table[p * (n + 2)..][..n];
            let sums0: [f32; LANES] = std::array::from_fn(|l| value(l + 900));
            let acc0: Vec<f32> = (0..n * LANES).map(|i| value(i + 1700)).collect();
            let (mut want_sums, mut want_acc) = (sums0, acc0.clone());
            for l in 0..LANES {
                for p in from..rows.min(ends[l] as usize) {
                    let e = w[p * LANES + l];
                    want_sums[l] += e;
                    for i in 0..n {
                        want_acc[i * LANES + l] += e * row(p)[i];
                    }
                }
            }
            for arm in available_arms() {
                let (mut sums, mut acc) = (sums0, acc0.clone());
                match arm {
                    "portable" => portable_accumulate_lanes(&w, &ends, from..rows, &row, &mut sums, &mut acc),
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `available_arms` checked AVX2; shapes as
                    // `accumulate_lanes` asserts.
                    "avx2" => unsafe { avx2::accumulate_lanes(&w, &ends, from..rows, &row, &mut sums, &mut acc) },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `available_arms` checked AVX-512F; shapes as
                    // `accumulate_lanes` asserts.
                    "avx512" => unsafe { avx512::accumulate_lanes(&w, &ends, from..rows, &row, &mut sums, &mut acc) },
                    _ => unreachable!("unknown arm {arm}"),
                }
                for l in 0..LANES {
                    proptest::prop_assert_eq!(sums[l].to_bits(), want_sums[l].to_bits(), "{} sum lane {}", arm, l);
                }
                for (i, (g, w)) in acc.iter().zip(&want_acc).enumerate() {
                    proptest::prop_assert_eq!(g.to_bits(), w.to_bits(),
                        "{} element {} lane {}", arm, i / LANES, i % LANES);
                }
            }
        }
    }
}
