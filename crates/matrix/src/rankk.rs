//! Skinny rank-k fast path — the shape delta maintenance actually runs.
//!
//! LINVIEW's whole premise is that a view update is not a fresh `O(nᵞ)`
//! product but an `O(kn²)` fold `X += U·Vᵀ` with a small `k` — 1 to 16
//! for the powers programs, 26 for the `Z`/`W` folds of a rank-13 OLS
//! batch — so the hot multiply the engine performs is `n×k · k×n`, not
//! square. The general packed nest is mis-tuned for it: with depth `k`,
//! the `KC`-deep packing passes rewrite both operands (and zero-pad the
//! ragged panels) to feed microkernel calls whose dot products are only
//! `k` long, so packing overhead dominates the arithmetic — and the fold
//! shape pays the `n×n` temporary *twice more* (once to materialize it,
//! once to add it).
//!
//! This module runs those shapes directly from the row-major operands:
//!
//! * **row×column register tiling** — `TR×TJ` output tiles hold their
//!   accumulators in registers while the whole (tiny) `k` loop runs; `TR`
//!   independent rows per tile give the adders enough independent chains
//!   to hide FP latency, and each `B` row block is loaded once per `TR`
//!   rows instead of once per row. The tile is sized by the rendering's
//!   lane count: [`IR`]`×`[`JB`] = 4×8 for two and four lanes,
//!   [`IR8`]`×`[`JB8`] = 8×16 for eight;
//! * **write-once output** — [`rank_k_matmul`] *stores* each finished
//!   tile (no read-modify-write of the zeroed output), and
//!   [`rank_k_fold`] adds tiles straight into the target, skipping the
//!   `n×n` temporary of the GEMM-then-add fold entirely — at `n = 2048`
//!   the fold is memory-bound, and this removes two thirds of the
//!   traffic;
//! * **branch-free main tiles** — the hot `TR×TJ` tile runs the dense
//!   multiply unconditionally (like the packed microkernel, whose padded
//!   lanes are zero); only the scalar ragged edges keep the
//!   zero-skip, because genuinely sparse factors never reach this kernel
//!   — the density gate in `sparsity::fold_low_rank` routes them to the
//!   row-replay fold first;
//! * **work stealing** — above the streaming gate
//!   (`pool::run_row_chunks`), row chunks are scheduled on the pool's
//!   stealing queue; chunks own disjoint output rows, so every schedule
//!   is bit-identical.
//!
//! **One body, four renderings.** The tile loop is a single
//! [`Kernel`] body: baseline, AVX2, AVX-512 and AVX2+FMA are
//! instantiations of it (see [`crate::gemm::Isa`]), with the tile shape a
//! const-generic parameter picked from the rendering's lane count at
//! compile time, and [`madd`] is the only place a product meets its
//! accumulator. Under the baseline rendering the multiply-add ports bind
//! from `k ≈ 4` up; AVX2 doubles the lanes (fold at n = 512, `k = 8`, one
//! thread: ≈ 390 → 215 µs). The 4×8 tile then keeps eight chains of four
//! lanes in flight, and that — not the cache — is what holds the `k = 16`
//! fold at ≈ 16 GFLOP/s per core: packing `Vᵀ` into `JB`-wide panels
//! measured slower (474–494 against 435–436 µs). AVX-512's 8×16 tile
//! keeps sixteen chains of eight lanes (`harness gemm`, n = 512, two
//! threads, AVX2 → AVX-512: `k = 16` 363 → 247 µs, `k = 1` 67 → 50 µs).
//!
//! **Bit-identity.** Each output element is accumulated over `p = 0..k`
//! in ascending order into a zero-initialized register, then stored
//! (matmul) or added onto the target once (fold). With an exact `Isa`
//! every link of that chain is plain mul-then-add — the same per-element
//! chain as the naive and packed kernels followed by an
//! elementwise add, so the fast path is `==`-identical to the nest (and
//! to GEMM-then-add) it replaces, under every exact rendering and any
//! thread count (asserted by the differential suite via
//! [`force_general_nest`] and [`set_rendering_cap`]). The fusing
//! `Isa` (`PackedFma`) replaces each link with `f64::mul_add`, matching
//! the FMA microkernel's contract: not bit-comparable, ≤ 1e-10 of the
//! Kahan oracle.
//!
//! Shape eligibility lives in [`eligible`]: products claim the fast path
//! up to [`RANK_K_MAX_K`], folds up to [`RANK_K_MAX_FOLD_K`] — a fold has
//! no packing to amortize against, only the `n×n` temporary the nest
//! would allocate. `gemm::route`, the crate's one kernel router, consults
//! it for every product and dense fold, so `matmul_with`, `try_matmul` and
//! the backends' `ApplyDelta` folds all inherit the fast path
//! automatically.
//!
//! [`force_general_nest`]: crate::gemm::force_general_nest
//! [`set_rendering_cap`]: crate::gemm::set_rendering_cap

use crate::gemm::{dispatch, madd, Fuse, Isa, Kernel};
use crate::{pool, Matrix};

/// Largest inner dimension the fast path claims for a product: from 17
/// on, the packed nest amortizes its packing well enough to win.
pub const RANK_K_MAX_K: usize = 16;

/// Largest rank the fused fold claims. A fold's alternative is the nest
/// *plus* an `n×n` temporary and a second pass over the target, so the
/// fold keeps the fast path further: OLS's `Z += U_Z V_Zᵀ` at rank 26 and
/// 256×256 takes 125–135 µs fused against 203–232 µs through the nest and
/// an add (`harness gemm` on a 2-vCPU AVX2 Xeon, p50s of three runs).
/// The register tile runs the whole ascending `k`-chain in its register
/// accumulators and adds it to the target once at any `k`, so the bits
/// stay those of GEMM-then-add; 32 is as far as it was measured.
pub const RANK_K_MAX_FOLD_K: usize = 32;

/// Register-tile shape `IR×JB` of the two- and four-lane renderings:
/// `IR · JB/4 = 8` ymm accumulators — eight independent add chains cover
/// the FP latency on two ports — plus `IR` broadcasts and the `B` block,
/// inside sixteen registers however the scheduler orders them (at
/// `IR = 6` LLVM kept all six broadcasts live and spilled four
/// accumulators on every `k` step). Each `B` block load is amortized over
/// `IR` rows.
const IR: usize = 4;
const JB: usize = 8;

/// The eight-lane (AVX-512) tile, `IR8×JB8`: sixteen zmm accumulators —
/// twice the chains of the 4×8 tile, each twice as wide — beside the two
/// `B` vectors and the eight broadcasts, inside the 32 registers that
/// rendering has.
const IR8: usize = 8;
const JB8: usize = 16;

/// Shape heuristic: true when `m×k · k×n` should take the rank-k fast
/// path — a genuinely skinny inner dimension (`1 ≤ k ≤ max_k`, with
/// `max_k` [`RANK_K_MAX_K`] for a product and [`RANK_K_MAX_FOLD_K`] for a
/// fold) that is also strictly the smallest extent, so the product is a
/// low-rank update rather than a small square multiply.
pub(crate) fn eligible(m: usize, k: usize, n: usize, max_k: usize) -> bool {
    (1..=max_k).contains(&k) && k < m.min(n)
}

/// The rank-k product `a · b` for `a: m×k`, `b: k×n` (shapes already
/// validated, FLOPs already counted by the caller). Serial below the
/// streaming gate, work-stealing row chunks above it; bit-identical
/// across thread counts, and with `Fuse::Exact` bit-identical to the
/// general packed nest.
pub(crate) fn rank_k_matmul(a: &Matrix, b: &Matrix, fuse: Fuse) -> Matrix {
    let (m, _) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    drive::<false>(a, b, out.as_mut_slice(), fuse);
    out
}

/// The rank-k fold `out += a · b` for `a: m×k`, `b: k×n` (shapes already
/// validated, FLOPs already counted by the caller). Adds each register
/// tile straight into `out` — no `m×n` temporary — with the same
/// per-element chain as GEMM-then-add, so the fold is `==`-identical to
/// `out.add_assign_from(&a.matmul(b))` under `Fuse::Exact`.
pub(crate) fn rank_k_fold(out: &mut Matrix, a: &Matrix, b: &Matrix, fuse: Fuse) {
    drive::<true>(a, b, out.as_mut_slice(), fuse);
}

/// Shared scheduling for both entry points: row chunks (parallel when
/// [`pool::run_row_chunks`] says so), each under the rendering `fuse` and
/// the host allow.
fn drive<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], fuse: Fuse) {
    let (m, k) = a.shape();
    let n = b.cols();
    if n == 0 || m == 0 {
        return;
    }
    pool::run_row_chunks(out, n, m * k * n, false, &|r0, out| {
        dispatch(Rows::<ACC> { a, b, out, r0 }, fuse);
    });
}

/// `out (=|+=) a[r0..r0+h] · b`, where `out` holds `h` full-width rows
/// (`h` inferred from the slice).
struct Rows<'a, const ACC: bool> {
    a: &'a Matrix,
    b: &'a Matrix,
    out: &'a mut [f64],
    r0: usize,
}

impl<const ACC: bool> Kernel for Rows<'_, ACC> {
    /// The tile shape is picked by the rendering's lane count — a
    /// compile-time branch, one body.
    #[inline(always)]
    fn run<I: Isa>(self) {
        if I::LANES >= 8 {
            rows::<ACC, I, IR8, JB8>(self)
        } else {
            rows::<ACC, I, IR, JB>(self)
        }
    }
}

/// `TR`-row register tiles over the full `TJ`-wide blocks, then a scalar
/// sweep over the ragged right edge and the tail rows; see the module
/// docs for the bit-identity argument.
#[inline(always)]
fn rows<const ACC: bool, I: Isa, const TR: usize, const TJ: usize>(rows: Rows<'_, ACC>) {
    let Rows { a, b, out, r0 } = rows;
    let (k, n) = b.shape();
    let bs = b.as_slice();
    let mut blocks = out.chunks_exact_mut(TR * n);
    let mut i0 = 0;
    for block in blocks.by_ref() {
        let arows: [&[f64]; TR] = std::array::from_fn(|t| &a.row(r0 + i0 + t)[..k]);
        let mut j0 = 0;
        while j0 + TJ <= n {
            let mut acc = [[0.0f64; TJ]; TR];
            for p in 0..k {
                let brow: &[f64; TJ] = bs[p * n + j0..][..TJ].try_into().expect("a TJ-wide slice");
                let avs: [f64; TR] = std::array::from_fn(|t| arows[t][p]);
                for (accrow, av) in acc.iter_mut().zip(avs) {
                    for (o, &bv) in accrow.iter_mut().zip(brow) {
                        *o = madd::<I>(*o, av, bv);
                    }
                }
            }
            for (t, accrow) in acc.iter().enumerate() {
                finish::<ACC>(&mut block[t * n + j0..t * n + j0 + TJ], accrow);
            }
            j0 += TJ;
        }
        if j0 < n {
            for (t, arow) in arows.iter().enumerate() {
                edge_cols::<ACC, I, TJ>(arow, bs, n, j0, &mut block[t * n + j0..(t + 1) * n]);
            }
        }
        i0 += TR;
    }
    for (t, orow) in blocks.into_remainder().chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + i0 + t);
        let mut j0 = 0;
        while j0 < n {
            let w = TJ.min(n - j0);
            edge_cols::<ACC, I, TJ>(arow, bs, n, j0, &mut orow[j0..j0 + w]);
            j0 += w;
        }
    }
}

/// Finishes one tile-wide or narrower accumulator block into the output row
/// segment: store for the matmul path, single add for the fold path.
#[inline(always)]
fn finish<const ACC: bool>(orow: &mut [f64], acc: &[f64]) {
    if ACC {
        for (o, &v) in orow.iter_mut().zip(acc) {
            *o += v;
        }
    } else {
        orow.copy_from_slice(acc);
    }
}

/// One ragged (`< TJ`-wide or single-row) accumulator block. Keeps the
/// zero-skip the main tiles drop.
#[inline(always)]
fn edge_cols<const ACC: bool, I: Isa, const TJ: usize>(
    arow: &[f64],
    bs: &[f64],
    n: usize,
    j0: usize,
    orow: &mut [f64],
) {
    let w = orow.len();
    let mut acc = [0.0f64; TJ];
    for (p, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &bs[p * n + j0..p * n + j0 + w];
        for (o, &bv) in acc[..w].iter_mut().zip(brow) {
            *o = madd::<I>(*o, av, bv);
        }
    }
    finish::<ACC>(orow, &acc[..w]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{for_each_rendering_and_thread_count, naive_matmul, test_config_lock};
    use crate::ApproxEq;

    #[test]
    fn eligibility_is_skinny_only() {
        let product = |m, k, n| eligible(m, k, n, RANK_K_MAX_K);
        assert!(product(64, 1, 64));
        assert!(product(2048, 16, 2048));
        assert!(product(17, 16, 18));
        assert!(!product(64, 0, 64)); // no inner dimension
        assert!(!product(64, 17, 64)); // too deep
        assert!(!product(16, 16, 64)); // k not strictly smallest
        assert!(!product(64, 16, 16));
        assert!(!product(8, 8, 8)); // small square
        let fold = |m, k, n| eligible(m, k, n, RANK_K_MAX_FOLD_K);
        assert!(fold(256, 26, 256));
        assert!(fold(33, 32, 40));
        assert!(!fold(64, 33, 64)); // too deep
        assert!(!fold(32, 32, 64)); // k not strictly smallest
    }

    #[test]
    fn every_depth_rendering_and_thread_count_is_bit_identical_to_naive() {
        // 397×331 output: ragged against both tile shapes and the 128-row chunks,
        // and past the parallel gate even at k = 1. The fold is checked
        // against GEMM-then-add through the naive kernel at every width it
        // claims, the product at every width it claims.
        let (m, n) = (397, 331);
        let base = Matrix::random_uniform(m, n, 20);
        for k in 1..=RANK_K_MAX_FOLD_K {
            let a = Matrix::random_uniform(m, k, k as u64);
            let b = Matrix::random_uniform(k, n, 10 + k as u64);
            let product = naive_matmul(&a, &b);
            let mut two_step = base.clone();
            two_step.add_assign_from(&product).unwrap();
            for_each_rendering_and_thread_count(|config| {
                if k <= RANK_K_MAX_K {
                    let fast = rank_k_matmul(&a, &b, Fuse::Exact);
                    assert_eq!(fast, product, "matmul, k = {k}, {config}");
                }
                let mut folded = base.clone();
                rank_k_fold(&mut folded, &a, &b, Fuse::Exact);
                assert_eq!(folded, two_step, "fold, k = {k}, {config}");
            });
        }
    }

    #[test]
    fn zero_heavy_factors_stay_bit_exact() {
        let mut a = Matrix::random_uniform(50, 8, 4);
        for r in 0..50 {
            for c in 0..8 {
                if (r + c) % 3 != 0 {
                    a.set(r, c, 0.0);
                }
            }
        }
        let b = Matrix::random_uniform(8, 60, 5);
        assert_eq!(rank_k_matmul(&a, &b, Fuse::Exact), naive_matmul(&a, &b));
    }

    #[test]
    fn fused_path_stays_within_the_oracle_budget() {
        let _guard = test_config_lock();
        let a = Matrix::random_uniform(200, 12, 8);
        let b = Matrix::random_uniform(12, 150, 9);
        let fused = rank_k_matmul(&a, &b, Fuse::Fused);
        assert!(fused.approx_eq(&naive_matmul(&a, &b), 1e-10));
        let mut fold = Matrix::zeros(200, 150);
        rank_k_fold(&mut fold, &a, &b, Fuse::Fused);
        assert!(fold.approx_eq(&naive_matmul(&a, &b), 1e-10));
    }

    #[test]
    fn ragged_tail_blocks_are_covered() {
        // n deliberately not a multiple of either tile width, m not of
        // either tile height or ROWS_PER_CHUNK — exercises the right edge
        // and the tail rows of both tile shapes.
        for (m, k, n) in [
            (131, 3, JB + 5),
            (IR + 1, 2, JB - 1),
            (IR - 1, 1, 3),
            (IR8 + 3, 5, JB8 + JB + 3),
            (IR8 - 1, 4, JB8 - 1),
        ] {
            let a = Matrix::random_uniform(m, k, 11);
            let b = Matrix::random_uniform(k, n, 12);
            let want = naive_matmul(&a, &b);
            for_each_rendering_and_thread_count(|config| {
                let got = rank_k_matmul(&a, &b, Fuse::Exact);
                assert_eq!(got, want, "{m}x{k}x{n}, {config}");
            });
        }
    }
}
