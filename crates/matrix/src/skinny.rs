//! Skinny-output products — the two shapes delta-block evaluation runs.
//!
//! A factored delta is propagated by multiplying an `n×n` view `P` with an
//! `n×k` block (`k ≤ 16`): `P·U` for the left factor and `Pᵀ·V` for the
//! right one. Both stream the 8n² bytes of `P` once to produce 8nk bytes
//! of output, and the general entry points waste that: `Pᵀ·V` used to
//! *materialize* `Pᵀ` (a second full pass plus an n×n allocation), and
//! `P·U` with fewer than `NR` columns fell to the scalar `i-k-j` kernel,
//! one latency-bound accumulator chain per row.
//!
//! * [`tall_skinny_into`] — `A·B` for `B` with `k ≤ 16` columns. Each
//!   register tile holds the accumulators of several rows of `A` at
//!   once, so the adders always have independent chains in flight, and
//!   every row of `B` is loaded once per tile instead of once per row.
//! * [`tn_skinny_into`] — `Aᵀ·B` without forming `Aᵀ`: rows of `A` are
//!   streamed in ascending order, [`TN_ROWS`] at a time, and each
//!   contributes `A[i][j] · B[i][..]` to the accumulators of output row
//!   `j`, which live in a local contiguous array until the last row.
//!
//! * [`short_into`] — `A·B` with at most 16 output *rows* (`Yᵀ X`, the
//!   row-vector chains of OLS's `V_beta`): the transposed problem `Bᵀ·Aᵀ`
//!   through [`tn_skinny_into`], which streams `B` once, written back
//!   transposed.
//!
//! All three write straight into a column block of a wider row-major
//! matrix (`out[.., c0..c0+k]`, row stride `ld`), which is how the runtime
//! fills the parts of a stacked block `[U | P·U + …]` in place.
//! `gemm::route` sends them every product of at most `2·SKINNY_MAX_COLS`
//! output columns and of at most [`SKINNY_MAX_COLS`] output rows under the
//! packed kernels, and every `Aᵀ·B` of at most `SKINNY_MAX_COLS` columns
//! under any kernel. A block of 17–32 columns (Woodbury's `W·P` and
//! `Wᵀ·Q` at a fired rank of 26) runs as two passes, 16 columns and the
//! rest, inside each row band, so the second pass rereads the band's rows
//! of `A` from cache.
//!
//! **Zero rows.** Row updates make the `n×k` operand a selection: `dU` of
//! a rank-13 firing has 13 nonzero rows of 512. When that operand passes
//! the crate's one density test (`sparsity::is_sparse`, the test
//! `fold_low_rank` asks of its factor: at most 5 % nonzeros), the kernels
//! drop its all-zero rows together with what they multiply — columns of
//! `A` for `A·B`, rows of `A` for `Aᵀ·B` — and stream the rest, so
//! `Xᵀ·dU_X` reads 13 rows of `X` and `A·dU_A` one column of `A`. The FLOP
//! meter is charged for the work executed, `2·(output rows)·(rows kept)·k`,
//! as the sparse fold charges its replay.
//!
//! **Roofline.** Which resource binds depends on `k`. One thread reads a
//! 2 MiB view at ≈ 20–26 GB/s on the bench host (80–100 µs), and that is
//! the floor for `k ≤ 2`: no instruction set changes it, a second thread
//! does (each core brings its own bandwidth). The arithmetic grows with
//! `k` while the traffic does not: by `k = 8` the baseline (SSE2)
//! rendering is multiply-add bound — 2 lanes × 2 ports, mul and add
//! separate, ≈ 14–15 GFLOP/s per core, 560–590 µs at `k = 16` — and reads
//! `P` at a seventh of what the core can pull. That is what the wider
//! renderings of the same body buy — AVX2's 4 lanes 1.4–1.8× from `k = 8`
//! up, AVX-512's 8 lanes another 1.2–1.6× at `k = 12–16` — and why tile
//! heights are sized per lane count. `harness gemm` prints the per-`k`
//! table (µs, GFLOP/s, GB/s of view traffic) for every rendering the host
//! runs, at one and two threads.
//!
//! **Bit-identity.** Every output element is one accumulator that starts
//! at `+0.0` and adds the products of its inner index in ascending order
//! with plain mul-then-add — the chain of the naive, packed and rank-k
//! kernels — under every [`GemmKernel`](crate::GemmKernel), including
//! `packed-fma` (these kernels never fuse), and under every rendering
//! (see [`crate::gemm::Isa`]): vector width and tile shape only regroup
//! independent chains. Row and column chunks, and the two column passes,
//! own disjoint output, so any thread count gives the same bits. A short
//! output computes element `(i, j)` as `Σₚ B[p][j]·A[i][p]`: the same
//! chain, since a product of two doubles does not depend on operand
//! order. A dropped zero row removes terms `x·0 = ±0.0`, and adding a
//! signed zero to an accumulator that started at `+0.0` never changes it
//! — `==` to the oracle for finite operands. An infinite or NaN entry of
//! `A` facing a zero row is the exception: the oracle's `inf·0` is NaN,
//! and the skip does not reproduce it.

use crate::gemm::{dispatch, Fuse, Isa, Kernel};
use crate::{flops, pool, sparsity, Matrix};

/// Widest right-hand block the skinny kernels claim.
pub(crate) const SKINNY_MAX_COLS: usize = crate::RANK_K_MAX_K;

/// Rows of `A` folded into the accumulators per pass of
/// [`tn_skinny_into`]: each is loaded and stored once per `TN_ROWS`
/// products.
const TN_ROWS: usize = 8;

/// Output rows whose accumulators [`tn_skinny_into`] keeps in one local
/// contiguous array (`TN_BAND × k` f64s, ≤ 64 KiB, cache-resident beside
/// the rows of `A` streaming past) instead of in the strided output block.
const TN_BAND: usize = 512;

/// Tile height of [`tall_skinny_into`] under eight lanes (AVX-512, 32
/// registers), at every width that has a four-lane tile (`R4 > 0`, so
/// width 1 keeps its two-lane one). `P·U` at n = 512, two threads, bench
/// host: with 8-row tiles at widths 3–8 the AVX-512 rendering read 140,
/// 122, 160 and 862 µs at `k` = 3, 4, 6, 8, against 117, 84, 130 and
/// 98 µs with 4-row ones (why the 8×8 tile collapses was not examined);
/// at `k = 16` 4 rows read 142–165 µs against AVX2's 223–273. A sweep of
/// the tile body alone over 1–16 rows, one thread, put 3–4 rows best from
/// `k = 9` up, and 8, 12 or 16 rows 1.2–2.4× slower.
const R8_ROWS: usize = 4;

/// Dispatches the [`Band`] of the runtime width `$k`: `Band::<TN, K, R2,
/// R4>` per row below (`K: R2 R4`). `R` is the tile height of
/// [`tall_skinny_into`] for two- and four-lane renderings:
/// `R·⌈K/LANES⌉ ≈ 8` accumulator registers — eight independent add chains
/// hide the FP latency, and the `B` row and the broadcasts still fit the
/// other half of the register file. Eight lanes take [`R8_ROWS`].
///
/// `k ≤ 2` were picked by measurement (`P·U` at n = 512, one thread of the
/// bench host, portable 57–69 µs at `k = 1` and 98–110 µs at `k = 2`). At
/// `k = 1` a 4-lane tile gathers one scalar per row into each vector, two
/// rows in four through a load-and-shuffle plus a lane insert, and the
/// shuffle port binds: 168, 92, 71, 69, 81, 87, 87 and 114 µs at `R` = 1,
/// 2, 3, 4, 6, 8, 12, 16 — so `R4 = 0`: this width has no 4-lane tile and
/// runs the 2-lane rendering on every host. At `k = 2`, `R = 4` (66–74 µs)
/// beats 8 (88–92) and 16 (260–304).
macro_rules! dispatch_width {
    ($TN:ident, $k:expr, $args:tt) => {
        dispatch_width!(@rows $TN, $k, $args;
            1: 8 0, 2: 8 4, 3: 4 8, 4: 4 8, 5: 2 4, 6: 2 4, 7: 2 4, 8: 2 4,
            9: 1 2, 10: 1 2, 11: 1 2, 12: 1 2, 13: 1 2, 14: 1 2, 15: 1 2, 16: 1 2)
    };
    (@rows $TN:ident, $k:expr, $args:tt; $($w:literal: $two:literal $four:literal),*) => {
        match $k {
            $($w => dispatch_band::<$TN, $w, $two, $four> $args,)*
            k => unreachable!("skinny kernel called with {k} columns"),
        }
    };
}

/// One band of a `K`-column skinny product: the output rows in `out`
/// (stride `ld`, columns `c0..c0+K`), which start at row (`P·U`) or column
/// (`Pᵀ·V`, `TN`) `first` of `a`. `b` is the row-major `·×K` block. Each
/// width is a kernel of its own, so a rendering's stack frame holds one
/// width's accumulators, not all sixteen.
struct Band<'a, const TN: bool, const K: usize, const R2: usize, const R4: usize> {
    a: &'a Matrix,
    b: &'a [f64],
    first: usize,
    out: &'a mut [f64],
    ld: usize,
    c0: usize,
}

impl<const TN: bool, const K: usize, const R2: usize, const R4: usize> Kernel
    for Band<'_, TN, K, R2, R4>
{
    const WIDE: bool = TN || R4 > 0;

    /// Plain `*` then `+` under every `Isa`: these kernels never fuse.
    #[inline(always)]
    fn run<I: Isa>(self) {
        let Self {
            a,
            b,
            first,
            out,
            ld,
            c0,
        } = self;
        if TN {
            tn_skinny_cols::<K>(a, b, first, out, ld, c0)
        } else if I::LANES >= 8 && R4 > 0 {
            tall_skinny_rows::<K, R8_ROWS>(a, b, first, out, ld, c0)
        } else if I::LANES >= 4 && R4 > 0 {
            tall_skinny_rows::<K, R4>(a, b, first, out, ld, c0)
        } else {
            tall_skinny_rows::<K, R2>(a, b, first, out, ld, c0)
        }
    }
}

fn dispatch_band<const TN: bool, const K: usize, const R2: usize, const R4: usize>(
    a: &Matrix,
    b: &[f64],
    first: usize,
    out: &mut [f64],
    ld: usize,
    c0: usize,
) {
    let band = Band::<TN, K, R2, R4> {
        a,
        b,
        first,
        out,
        ld,
        c0,
    };
    dispatch(band, Fuse::Exact);
}

/// Runs the skinny product over `out` in row bands (parallel when
/// [`pool::run_row_chunks`] says so): each band runs every column pass of
/// `passes` (a `·×w` block and its first output column) under the host's
/// exact rendering, so a second pass rereads the band's operand rows
/// while they are still in cache.
fn drive<const TN: bool>(a: &Matrix, passes: &[(&Matrix, usize)], out: &mut [f64], ld: usize) {
    let (rows, cols) = a.shape();
    let k: usize = passes.iter().map(|(b, _)| b.cols()).sum();
    pool::run_row_chunks(out, ld, rows * cols * k, TN, &|first, out| {
        for &(b, c0) in passes {
            dispatch_width!(TN, b.cols(), (a, b.as_slice(), first, out, ld, c0))
        }
    });
}

/// The skinny product `a·b` (`aᵀ·b` when `TN`) into `out[.., c0..c0+k]`
/// for `b` with `1 ≤ k ≤ 2·SKINNY_MAX_COLS` columns: drops a sparse `b`'s
/// zero rows (module docs, "Zero rows"), charges the FLOP meter for the
/// work executed, and runs two column passes, `SKINNY_MAX_COLS` wide and
/// the rest, past `SKINNY_MAX_COLS`.
fn skinny<const TN: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], ld: usize, c0: usize) {
    let compact = sparsity::sparse_rows(b).map(|rows| {
        let b = gather_rows(b, &rows);
        let a = if TN {
            gather_rows(a, &rows)
        } else {
            gather_cols(a, &rows)
        };
        (a, b)
    });
    let (a, b) = match &compact {
        Some((a, b)) => (a, b),
        None => (a, b),
    };
    let (inner, k) = b.shape();
    let out_rows = if TN { a.cols() } else { a.rows() };
    flops::add((2 * out_rows * inner * k) as u64);
    if k <= SKINNY_MAX_COLS {
        drive::<TN>(a, &[(b, c0)], out, ld);
    } else {
        // A full-width pass first: 16 + 10 columns fill more vector lanes
        // than 13 + 13 (4-lane tiles: 28 lane slots against 32).
        let w = SKINNY_MAX_COLS;
        let (left, right) = (column_block(b, 0, w), column_block(b, w, k - w));
        drive::<TN>(a, &[(&left, c0), (&right, c0 + w)], out, ld);
    }
}

/// Rows `rows` of `m`, in order.
fn gather_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * m.cols());
    for &r in rows {
        data.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(rows.len(), m.cols(), data).expect("whole rows")
}

/// Columns `cols` of `m`, in order.
fn gather_cols(m: &Matrix, cols: &[usize]) -> Matrix {
    let mut data = Vec::with_capacity(m.rows() * cols.len());
    for r in 0..m.rows() {
        let row = m.row(r);
        data.extend(cols.iter().map(|&c| row[c]));
    }
    Matrix::from_vec(m.rows(), cols.len(), data).expect("whole rows")
}

/// Columns `c0..c0+w` of `m`.
fn column_block(m: &Matrix, c0: usize, w: usize) -> Matrix {
    m.submatrix(0, c0, m.rows(), w)
        .expect("block within the operand")
}

/// `out[.., c0..c0+k] = a · b` for `a: m×p`, `b: p×k` with
/// `1 ≤ k ≤ 2·SKINNY_MAX_COLS`; `out` is `m` rows of stride `ld` (shapes
/// validated by the caller, FLOPs executed counted here).
pub(crate) fn tall_skinny_into(a: &Matrix, b: &Matrix, out: &mut [f64], ld: usize, c0: usize) {
    skinny::<false>(a, b, out, ld, c0);
}

/// [`tall_skinny_into`] over the output rows in `out`, which start at row
/// `r0` of `a`: `R`-row tiles, then the tail one row at a time.
#[inline(always)]
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
/// `1 ≤ k ≤ 2·SKINNY_MAX_COLS`; `out` is `n` rows of stride `ld` (shapes
/// validated by the caller, FLOPs executed counted here). Parallel bands
/// own disjoint columns of `a` (= rows of the output) and each walks the
/// rows of `a` in order.
pub(crate) fn tn_skinny_into(a: &Matrix, b: &Matrix, out: &mut [f64], ld: usize, c0: usize) {
    skinny::<true>(a, b, out, ld, c0);
}

/// `out[.., c0..c0+n] = atᵀ · b` for `at: p×m` with
/// `1 ≤ m ≤ SKINNY_MAX_COLS` — a short output, `m` rows of stride `ld` —
/// and `b: p×n`: the transposed problem `(atᵀ·b)ᵀ = bᵀ·at` through
/// [`tn_skinny_into`], which streams `b` once, then the `n×m` result
/// written back transposed. Element `(i, j)` is the chain
/// `Σₚ b[p][j]·at[p][i]` in ascending `p`, the naive chain of `A·B` with
/// `A = atᵀ` (a product of two doubles does not depend on operand order).
/// FLOPs executed are counted here.
pub(crate) fn short_into(at: &Matrix, b: &Matrix, out: &mut [f64], ld: usize, c0: usize) {
    let (m, n) = (at.cols(), b.cols());
    let mut ct = Matrix::zeros(n, m);
    tn_skinny_into(b, at, ct.as_mut_slice(), m, 0);
    for (i, orow) in out.chunks_exact_mut(ld).enumerate() {
        for (j, o) in orow[c0..c0 + n].iter_mut().enumerate() {
            *o = ct.get(j, i);
        }
    }
}

/// [`tn_skinny_into`] over the output rows in `out`, which correspond to
/// columns `j0..` of `a`, in bands of [`TN_BAND`] rows: a band's
/// accumulators live in a local contiguous array for all `m` rows of `a`
/// and are written to the strided output once.
#[inline(always)]
fn tn_skinny_cols<const K: usize>(
    a: &Matrix,
    b: &[f64],
    j0: usize,
    out: &mut [f64],
    ld: usize,
    c0: usize,
) {
    for (band, orows) in out.chunks_mut(TN_BAND * ld).enumerate() {
        let mut acc = [[0.0f64; K]; TN_BAND];
        let acc = &mut acc[..orows.len() / ld];
        let jb = j0 + band * TN_BAND;
        let m = a.rows();
        let mut i = 0;
        while i + TN_ROWS <= m {
            tn_skinny_pass::<K, TN_ROWS>(a, b, i, jb, acc);
            i += TN_ROWS;
        }
        while i < m {
            tn_skinny_pass::<K, 1>(a, b, i, jb, acc);
            i += 1;
        }
        for (orow, accrow) in orows.chunks_exact_mut(ld).zip(acc.iter()) {
            orow[c0..c0 + K].copy_from_slice(accrow);
        }
    }
}

/// Adds rows `i..i+IB` of `a` into the band's accumulators, in that
/// order: accumulator row `j` (column `j0 + j` of `a`) is loaded once,
/// extended by `IB` products, and stored once.
#[inline(always)]
fn tn_skinny_pass<const K: usize, const IB: usize>(
    a: &Matrix,
    b: &[f64],
    i: usize,
    j0: usize,
    acc: &mut [[f64; K]],
) {
    let arows: [&[f64]; IB] = std::array::from_fn(|t| &a.row(i + t)[j0..j0 + acc.len()]);
    let brows: [[f64; K]; IB] = std::array::from_fn(|t| {
        let mut row = [0.0; K];
        row.copy_from_slice(&b[(i + t) * K..(i + t + 1) * K]);
        row
    });
    for (j, o) in acc.iter_mut().enumerate() {
        let mut x = *o;
        for (arow, brow) in arows.iter().zip(&brows) {
            let av = arow[j];
            for (x, &bv) in x.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
        *o = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{for_each_rendering_and_thread_count, naive_matmul};

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
    fn every_width_rendering_and_thread_count_is_bit_identical_to_naive() {
        // 397 rows: ragged against every tile height (8, 4, 2), TN_ROWS
        // and the 128-row chunks; 397·331 multiply-adds per column cross
        // the parallel gate even at k = 1. The second shape has more
        // columns than TN_BAND, so `Pᵀ·V` runs two accumulator bands.
        for (m, n) in [(397, 331), (261, TN_BAND + 11)] {
            let a = Matrix::random_uniform(m, n, (m + n) as u64);
            let at = a.transpose();
            for k in 1..=SKINNY_MAX_COLS {
                let b = Matrix::random_uniform(n, k, 100 + k as u64);
                let bt = Matrix::random_uniform(m, k, 200 + k as u64);
                let (want, want_tn) = (naive_matmul(&a, &b), naive_matmul(&at, &bt));
                for_each_rendering_and_thread_count(|config| {
                    assert_eq!(tall(&a, &b), want, "tall {m}x{n}, k = {k}, {config}");
                    assert_eq!(tn(&a, &bt), want_tn, "tn {m}x{n}, k = {k}, {config}");
                });
            }
        }
    }

    #[test]
    fn writes_only_its_column_block() {
        // Past the parallel gate, so the offset/stride form is also split
        // into chunks.
        let (m, n, k) = (261, 523, 3);
        let a = Matrix::random_uniform(m, n, 1);
        let b = Matrix::random_uniform(n, k, 2);
        let bt = Matrix::random_uniform(m, k, 3);
        let want = naive_matmul(&a, &b);
        let want_tn = naive_matmul(&a.transpose(), &bt);
        for_each_rendering_and_thread_count(|config| {
            let mut out = Matrix::filled(m, 8, 7.0);
            tall_skinny_into(&a, &b, out.as_mut_slice(), 8, 2);
            let mut out_tn = Matrix::filled(n, 8, 7.0);
            tn_skinny_into(&a, &bt, out_tn.as_mut_slice(), 8, 5);
            for c in 0..8 {
                for r in 0..m {
                    let expect = if (2..5).contains(&c) {
                        want.get(r, c - 2)
                    } else {
                        7.0
                    };
                    assert_eq!(out.get(r, c), expect, "tall ({r}, {c}), {config}");
                }
                for r in 0..n {
                    let expect = if c >= 5 { want_tn.get(r, c - 5) } else { 7.0 };
                    assert_eq!(out_tn.get(r, c), expect, "tn ({r}, {c}), {config}");
                }
            }
        });
    }
}
