//! Skinny-output products — the two shapes delta-block evaluation runs.
//!
//! A factored delta is propagated by multiplying an `n×n` view `P` with an
//! `n×k` block (`k ≤ 16`): `P·U` for the left factor and `Pᵀ·V` for the
//! right one. Both stream the 8n² bytes of `P` once to produce 8nk bytes
//! of output, so they are bound by how fast `P` can be read — and the
//! general entry points waste that: `Pᵀ·V` used to *materialize* `Pᵀ`
//! (a second full pass plus an n×n allocation), and `P·U` with fewer
//! than `NR` columns fell to the scalar `i-k-j` kernel, one latency-bound
//! accumulator chain per row.
//!
//! * [`tall_skinny_into`] — `A·B` for `B` with `k ≤ 16` columns. Each
//!   register tile holds the accumulators of several rows of `A` at
//!   once, so the adders always have independent chains in flight, and
//!   every row of `B` is loaded once per tile instead of once per row.
//! * [`tn_skinny_into`] — `Aᵀ·B` without forming `Aᵀ`: rows of `A` are
//!   streamed in ascending order, four at a time, and each contributes
//!   `A[i][j] · B[i][..]` to output row `j`.
//!
//! Both write straight into a column block of a wider row-major matrix
//! (`out[.., c0..c0+k]`, row stride `ld`), which is how the runtime fills
//! the parts of a stacked block `[U | P·U + …]` in place.
//!
//! **Bit-identity.** Every output element is one accumulator that starts
//! at `+0.0` and adds the products of its inner index in ascending order
//! with plain mul-then-add — the chain of the naive, blocked and rank-k
//! kernels — under every [`GemmKernel`](crate::GemmKernel), including
//! `packed-fma` (these kernels never fuse). Row and column chunks own
//! disjoint output, so any thread count gives the same bits.

use std::sync::Mutex;

use crate::{gemm, pool, Matrix};

/// Widest right-hand block the skinny kernels claim.
pub(crate) const SKINNY_MAX_COLS: usize = crate::RANK_K_MAX_K;

/// Output rows per work-stealing chunk (a multiple of every tile height).
const ROWS_PER_CHUNK: usize = 128;

/// Rows of `A` folded into the output per pass of [`tn_skinny_into`]:
/// each output element is loaded and stored once per `TN_ROWS` products.
const TN_ROWS: usize = 4;

/// Calls `$f::<K, R>` for the runtime width `$k`, where `R` (tile height)
/// keeps `R·⌈K/2⌉` at eight two-lane accumulators.
macro_rules! for_width {
    ($k:expr, $f:ident($($arg:expr),*)) => {
        match $k {
            1 => $f::<1, 8>($($arg),*),
            2 => $f::<2, 8>($($arg),*),
            3 => $f::<3, 4>($($arg),*),
            4 => $f::<4, 4>($($arg),*),
            5 => $f::<5, 2>($($arg),*),
            6 => $f::<6, 2>($($arg),*),
            7 => $f::<7, 2>($($arg),*),
            8 => $f::<8, 2>($($arg),*),
            9 => $f::<9, 1>($($arg),*),
            10 => $f::<10, 1>($($arg),*),
            11 => $f::<11, 1>($($arg),*),
            12 => $f::<12, 1>($($arg),*),
            13 => $f::<13, 1>($($arg),*),
            14 => $f::<14, 1>($($arg),*),
            15 => $f::<15, 1>($($arg),*),
            16 => $f::<16, 1>($($arg),*),
            k => unreachable!("skinny kernel called with {k} columns"),
        }
    };
}

/// Runs `run(first_row, rows)` over `out` split into bands of whole
/// `ld`-wide rows: inline when the product is light or one thread is
/// budgeted, on the pool's stealing queue otherwise.
fn drive(out: &mut [f64], ld: usize, work: usize, run: &(dyn Fn(usize, &mut [f64]) + Sync)) {
    let chunks = (out.len() / ld).div_ceil(ROWS_PER_CHUNK);
    let threads = gemm::gemm_threads().min(chunks);
    if threads <= 1 || work < gemm::PARALLEL_THRESHOLD {
        return run(0, out);
    }
    let cells: Vec<Mutex<&mut [f64]>> = out
        .chunks_mut(ROWS_PER_CHUNK * ld)
        .map(Mutex::new)
        .collect();
    pool::run_stealing(threads, cells.len(), &|_, c| {
        let mut rows = cells[c].lock().expect("skinny chunk poisoned");
        run(c * ROWS_PER_CHUNK, &mut rows[..]);
    });
}

/// `out[.., c0..c0+k] = a · b` for `a: m×p`, `b: p×k` with
/// `1 ≤ k ≤ 16`; `out` is `m` rows of stride `ld` (shapes validated and
/// FLOPs counted by the caller).
pub(crate) fn tall_skinny_into(a: &Matrix, b: &Matrix, out: &mut [f64], ld: usize, c0: usize) {
    let (m, p) = a.shape();
    let k = b.cols();
    drive(out, ld, m * p * k, &|r0, rows| {
        for_width!(k, tall_skinny_rows(a, b.as_slice(), r0, rows, ld, c0))
    });
}

/// [`tall_skinny_into`] over the output rows in `out`, which start at row
/// `r0` of `a`: `R`-row tiles, then the tail one row at a time.
fn tall_skinny_rows<const K: usize, const R: usize>(
    a: &Matrix,
    b: &[f64],
    r0: usize,
    out: &mut [f64],
    ld: usize,
    c0: usize,
) {
    let mut tiles = out.chunks_exact_mut(R * ld);
    let mut i = r0;
    for tile in tiles.by_ref() {
        tall_skinny_tile::<K, R>(a, b, i, tile, ld, c0);
        i += R;
    }
    for row in tiles.into_remainder().chunks_exact_mut(ld) {
        tall_skinny_tile::<K, 1>(a, b, i, row, ld, c0);
        i += 1;
    }
}

/// One `R×K` register tile: `R·K` independent ascending-`p` chains.
#[inline(always)]
fn tall_skinny_tile<const K: usize, const R: usize>(
    a: &Matrix,
    b: &[f64],
    i: usize,
    tile: &mut [f64],
    ld: usize,
    c0: usize,
) {
    let arows: [&[f64]; R] = std::array::from_fn(|t| a.row(i + t));
    let mut acc = [[0.0f64; K]; R];
    for (p, brow) in b.chunks_exact(K).enumerate() {
        for (arow, accrow) in arows.iter().zip(acc.iter_mut()) {
            let av = arow[p];
            for (o, &bv) in accrow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (t, accrow) in acc.iter().enumerate() {
        tile[t * ld + c0..t * ld + c0 + K].copy_from_slice(accrow);
    }
}

/// `out[.., c0..c0+k] = aᵀ · b` for `a: m×n`, `b: m×k` with
/// `1 ≤ k ≤ 16`; `out` is `n` rows of stride `ld` (shapes validated and
/// FLOPs counted by the caller). Parallel bands own disjoint columns of
/// `a` (= rows of the output) and each walks all `m` rows in order.
pub(crate) fn tn_skinny_into(a: &Matrix, b: &Matrix, out: &mut [f64], ld: usize, c0: usize) {
    let (m, n) = a.shape();
    let k = b.cols();
    drive(out, ld, m * n * k, &|j0, rows| {
        for_width!(k, tn_skinny_cols(a, b.as_slice(), j0, rows, ld, c0))
    });
}

/// [`tn_skinny_into`] over the output rows in `out`, which correspond to
/// columns `j0..` of `a`. (`_R` is unused: the tile is `TN_ROWS` deep for
/// every width; the parameter only lets [`for_width!`] serve both kernels.)
fn tn_skinny_cols<const K: usize, const _R: usize>(
    a: &Matrix,
    b: &[f64],
    j0: usize,
    out: &mut [f64],
    ld: usize,
    c0: usize,
) {
    for orow in out.chunks_exact_mut(ld) {
        orow[c0..c0 + K].fill(0.0);
    }
    let m = a.rows();
    let mut i = 0;
    while i + TN_ROWS <= m {
        tn_skinny_pass::<K, TN_ROWS>(a, b, i, j0, out, ld, c0);
        i += TN_ROWS;
    }
    while i < m {
        tn_skinny_pass::<K, 1>(a, b, i, j0, out, ld, c0);
        i += 1;
    }
}

/// Adds rows `i..i+IB` of `a` into the output, in that order: output row
/// `j` is loaded once, extended by `IB` products, and stored once.
#[inline(always)]
fn tn_skinny_pass<const K: usize, const IB: usize>(
    a: &Matrix,
    b: &[f64],
    i: usize,
    j0: usize,
    out: &mut [f64],
    ld: usize,
    c0: usize,
) {
    let w = out.len() / ld;
    let arows: [&[f64]; IB] = std::array::from_fn(|t| &a.row(i + t)[j0..j0 + w]);
    let brows: [[f64; K]; IB] = std::array::from_fn(|t| {
        let mut row = [0.0; K];
        row.copy_from_slice(&b[(i + t) * K..(i + t + 1) * K]);
        row
    });
    for (j, orow) in out.chunks_exact_mut(ld).enumerate() {
        let o = &mut orow[c0..c0 + K];
        let mut acc = [0.0f64; K];
        acc.copy_from_slice(o);
        for (arow, brow) in arows.iter().zip(&brows) {
            let av = arow[j];
            for (x, &bv) in acc.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
        o.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{naive_matmul, set_gemm_threads, test_config_lock};

    fn tall(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        tall_skinny_into(a, b, out.as_mut_slice(), b.cols(), 0);
        out
    }

    fn tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        tn_skinny_into(a, b, out.as_mut_slice(), b.cols(), 0);
        out
    }

    #[test]
    fn every_width_is_bit_identical_to_naive() {
        for k in 1..=SKINNY_MAX_COLS {
            let a = Matrix::random_uniform(37, 29, k as u64);
            let b = Matrix::random_uniform(29, k, 100 + k as u64);
            assert_eq!(tall(&a, &b), naive_matmul(&a, &b), "tall, k = {k}");
            let bt = Matrix::random_uniform(37, k, 200 + k as u64);
            assert_eq!(
                tn(&a, &bt),
                naive_matmul(&a.transpose(), &bt),
                "tn, k = {k}"
            );
        }
    }

    #[test]
    fn writes_only_its_column_block() {
        let a = Matrix::random_uniform(11, 9, 1);
        let b = Matrix::random_uniform(9, 3, 2);
        let mut out = Matrix::filled(11, 8, 7.0);
        tall_skinny_into(&a, &b, out.as_mut_slice(), 8, 2);
        let want = naive_matmul(&a, &b);
        let bt = Matrix::random_uniform(11, 3, 3);
        let mut out_tn = Matrix::filled(9, 8, 7.0);
        tn_skinny_into(&a, &bt, out_tn.as_mut_slice(), 8, 5);
        let want_tn = naive_matmul(&a.transpose(), &bt);
        for c in 0..8 {
            for r in 0..11 {
                let expect = if (2..5).contains(&c) {
                    want.get(r, c - 2)
                } else {
                    7.0
                };
                assert_eq!(out.get(r, c), expect, "tall ({r}, {c})");
            }
            for r in 0..9 {
                let expect = if c >= 5 { want_tn.get(r, c - 5) } else { 7.0 };
                assert_eq!(out_tn.get(r, c), expect, "tn ({r}, {c})");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let _guard = test_config_lock();
        // 300·400·8 multiply-adds: past the parallel threshold, 3 chunks.
        let a = Matrix::random_uniform(300, 400, 4);
        let b = Matrix::random_uniform(400, 8, 5);
        let bt = Matrix::random_uniform(300, 8, 6);
        set_gemm_threads(Some(1));
        let (serial, serial_tn) = (tall(&a, &b), tn(&a, &bt));
        for threads in [2usize, 3] {
            set_gemm_threads(Some(threads));
            assert_eq!(tall(&a, &b), serial, "tall, threads = {threads}");
            assert_eq!(tn(&a, &bt), serial_tn, "tn, threads = {threads}");
        }
        set_gemm_threads(None);
    }
}
