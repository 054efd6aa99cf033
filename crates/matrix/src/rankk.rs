//! Skinny rank-k fast path — the shape delta maintenance actually runs.
//!
//! LINVIEW's whole premise is that a view update is not a fresh `O(nᵞ)`
//! product but an `O(kn²)` fold `X += U·Vᵀ` with `k ≤ 16` — so the hot
//! multiply the engine performs is `n×k · k×n`, not square. The general
//! packed nest is mis-tuned for it: with depth `k`, the `KC`-deep packing
//! passes rewrite both operands (and zero-pad the ragged panels) to feed
//! microkernel calls whose dot products are only `k` long, so packing
//! overhead dominates the arithmetic — and the fold shape pays the
//! `n×n` temporary *twice more* (once to materialize it, once to add it).
//!
//! This module runs those shapes directly from the row-major operands:
//!
//! * **row×column register tiling** — [`IR`]`×`[`JB`] output tiles hold
//!   their accumulators in registers while the whole (tiny) `k` loop
//!   runs; `IR` independent rows per tile give the adders enough
//!   independent chains to hide FP latency, and each `B` row block is
//!   loaded once per `IR` rows instead of once per row;
//! * **write-once output** — [`rank_k_matmul`] *stores* each finished
//!   tile (no read-modify-write of the zeroed output), and
//!   [`rank_k_fold`] adds tiles straight into the target, skipping the
//!   `n×n` temporary of the GEMM-then-add fold entirely — at `n = 2048`
//!   the fold is memory-bound, and this removes two thirds of the
//!   traffic;
//! * **branch-free main tiles** — the hot `IR×JB` tile runs the dense
//!   multiply unconditionally (like the packed microkernel, whose padded
//!   lanes are zero); only the scalar ragged edges keep the
//!   zero-skip, because genuinely sparse factors never reach this kernel
//!   — the density gate in `sparsity::fold_low_rank` routes them to the
//!   row-replay fold first;
//! * **work stealing** — above the parallel threshold, row chunks are
//!   scheduled on the pool's stealing queue; chunks own disjoint output
//!   rows, so every schedule is bit-identical.
//!
//! **Bit-identity.** The exact variant accumulates each output element
//! over `p = 0..k` in ascending order with plain mul-then-add into a
//! zero-initialized register, then stores it (matmul) or adds it onto the
//! target once (fold) — the same per-element chain as the naive, blocked
//! and packed kernels followed by an elementwise add, so the fast path is
//! `==`-identical to the nest (and to GEMM-then-add) it replaces
//! (asserted by the differential suite via [`force_general_nest`]). The
//! fused variant (`PackedFma`) replaces mul-then-add with `f64::mul_add`,
//! matching the FMA microkernel's contract: not bit-comparable, ≤ 1e-10
//! of the Kahan oracle.
//!
//! Shape eligibility lives in [`eligible`]; dispatch happens inside the
//! packed kernel family (`gemm::packed_matmul`) and the dense fold
//! (`sparsity::fold_low_rank`), so `matmul_with`, `try_matmul` and the
//! backends' `ApplyDelta` folds all inherit the fast path automatically.
//!
//! [`force_general_nest`]: crate::gemm::force_general_nest

use std::sync::Mutex;

use crate::gemm::{self, Fuse};
use crate::{pool, Matrix};

/// Largest inner dimension the fast path claims. Matches the engine's
/// delta-rank ceiling: wider products amortize packing well enough that
/// the general nest wins.
pub const RANK_K_MAX_K: usize = 16;

/// Register-tile width: accumulators for one `JB`-wide output block are
/// two f64 ymm registers.
const JB: usize = 8;

/// Output rows per register tile: `IR · JB/4 = 12` ymm accumulators (the
/// same register budget as the packed microkernel), enough independent
/// add chains to hide FP latency, and each `B` block load is amortized
/// over `IR` rows.
const IR: usize = 6;

/// Output rows per work-stealing chunk in the parallel path.
const ROWS_PER_CHUNK: usize = 128;

/// Shape heuristic: true when `m×k · k×n` should take the rank-k fast
/// path — a genuinely skinny inner dimension (`1 ≤ k ≤ 16`) that is also
/// strictly the smallest extent, so the product is a low-rank update
/// rather than a small square multiply.
pub(crate) fn eligible(m: usize, k: usize, n: usize) -> bool {
    (1..=RANK_K_MAX_K).contains(&k) && k < m.min(n)
}

/// The rank-k product `a · b` for `a: m×k`, `b: k×n` (shapes already
/// validated, FLOPs already counted by the caller). Serial below the
/// parallel threshold, work-stealing row chunks above it; bit-identical
/// across thread counts, and with `Fuse::Exact` bit-identical to the
/// general packed nest.
pub(crate) fn rank_k_matmul(a: &Matrix, b: &Matrix, fuse: Fuse) -> Matrix {
    let (m, _) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    drive::<false>(a, b, out.as_mut_slice(), n, fuse);
    out
}

/// The rank-k fold `out += a · b` for `a: m×k`, `b: k×n` (shapes already
/// validated, FLOPs already counted by the caller). Adds each register
/// tile straight into `out` — no `m×n` temporary — with the same
/// per-element chain as GEMM-then-add, so the fold is `==`-identical to
/// `out.add_assign_from(&a.matmul(b))` under `Fuse::Exact`.
pub(crate) fn rank_k_fold(out: &mut Matrix, a: &Matrix, b: &Matrix, fuse: Fuse) {
    let n = b.cols();
    drive::<true>(a, b, out.as_mut_slice(), n, fuse);
}

/// Shared scheduling for both entry points: serial below the parallel
/// threshold, disjoint row chunks behind uncontended mutexes on the
/// stealing queue above it — each chunk is locked exactly once, by
/// whichever worker runs (or steals) it.
fn drive<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], n: usize, fuse: Fuse) {
    let (m, k) = a.shape();
    if n == 0 || m == 0 {
        return;
    }
    let chunks = m.div_ceil(ROWS_PER_CHUNK).max(1);
    let threads = gemm::gemm_threads().min(chunks);
    if threads <= 1 || m * k * n < gemm::PARALLEL_THRESHOLD {
        rank_k_rows::<ACC>(a, b, out, 0, fuse);
        return;
    }
    let cells: Vec<Mutex<&mut [f64]>> =
        out.chunks_mut(ROWS_PER_CHUNK * n).map(Mutex::new).collect();
    pool::run_stealing(threads, cells.len(), &|_, c| {
        let mut rows = cells[c].lock().expect("rank-k chunk poisoned");
        rank_k_rows::<ACC>(a, b, &mut rows[..], c * ROWS_PER_CHUNK, fuse);
    });
}

/// Computes `out (=|+=) a[r0..r0+h] · b` where `out` holds `h` full-width
/// rows (`h` inferred from the slice), picking the fused rendering only
/// when the mode asks for it and the host can run it.
fn rank_k_rows<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], r0: usize, fuse: Fuse) {
    #[cfg(target_arch = "x86_64")]
    if fuse == Fuse::Fused && gemm::fma_available() && !gemm::portable_forced() {
        // SAFETY: `fma_available` verified AVX2+FMA on this host.
        unsafe { rank_k_rows_fused::<ACC>(a, b, out, r0) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = fuse;
    rank_k_rows_exact::<ACC>(a, b, out, r0);
}

/// Finishes one `JB`-or-narrower accumulator block into the output row
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

/// The exact (mul-then-add) rank-k loop; see the module docs for the
/// bit-identity argument. `IR`-row register tiles over the full `JB`-wide
/// blocks, then a scalar sweep over the ragged right edge and the tail
/// rows.
fn rank_k_rows_exact<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], r0: usize) {
    let n = b.cols();
    if n == 0 {
        return;
    }
    let bs = b.as_slice();
    let mut blocks = out.chunks_exact_mut(IR * n);
    let mut i0 = 0;
    for block in blocks.by_ref() {
        let k = a.cols();
        let arows: [&[f64]; IR] = std::array::from_fn(|t| &a.row(r0 + i0 + t)[..k]);
        let mut j0 = 0;
        while j0 + JB <= n {
            let mut acc = [[0.0f64; JB]; IR];
            for p in 0..k {
                let brow = &bs[p * n + j0..p * n + j0 + JB];
                for (t, arow) in arows.iter().enumerate() {
                    let av = arow[p];
                    for (o, &bv) in acc[t].iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            for (t, accrow) in acc.iter().enumerate() {
                finish::<ACC>(&mut block[t * n + j0..t * n + j0 + JB], accrow);
            }
            j0 += JB;
        }
        if j0 < n {
            for (t, arow) in arows.iter().enumerate() {
                edge_cols::<ACC, false>(arow, bs, n, j0, &mut block[t * n + j0..(t + 1) * n]);
            }
        }
        i0 += IR;
    }
    for (t, orow) in blocks.into_remainder().chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + i0 + t);
        let mut j0 = 0;
        while j0 < n {
            let w = JB.min(n - j0);
            edge_cols::<ACC, false>(arow, bs, n, j0, &mut orow[j0..j0 + w]);
            j0 += w;
        }
    }
}

/// One ragged (`< JB`-wide or single-row) accumulator block, shared by the
/// exact and fused renderings: `FUSE` selects plain mul-then-add vs
/// `f64::mul_add` (which compiles to a fused lane only when inlined into
/// the FMA-enabled caller — from the exact caller it is never reached).
#[inline(always)]
fn edge_cols<const ACC: bool, const FUSE: bool>(
    arow: &[f64],
    bs: &[f64],
    n: usize,
    j0: usize,
    orow: &mut [f64],
) {
    let w = orow.len();
    let mut acc = [0.0f64; JB];
    for (p, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &bs[p * n + j0..p * n + j0 + w];
        for (o, &bv) in acc[..w].iter_mut().zip(brow) {
            if FUSE {
                *o = av.mul_add(bv, *o);
            } else {
                *o += av * bv;
            }
        }
    }
    finish::<ACC>(orow, &acc[..w]);
}

/// [`rank_k_rows_exact`] with the multiply-adds fused: `f64::mul_add`
/// under an FMA-enabled target feature compiles to `vfmadd` and lets LLVM
/// vectorize the `JB`-wide blocks into fused lanes. Reached only through
/// [`GemmKernel::PackedFma`](crate::GemmKernel::PackedFma).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,avx2,fma")]
fn rank_k_rows_fused<const ACC: bool>(a: &Matrix, b: &Matrix, out: &mut [f64], r0: usize) {
    let n = b.cols();
    if n == 0 {
        return;
    }
    let bs = b.as_slice();
    let mut blocks = out.chunks_exact_mut(IR * n);
    let mut i0 = 0;
    for block in blocks.by_ref() {
        let k = a.cols();
        let arows: [&[f64]; IR] = std::array::from_fn(|t| &a.row(r0 + i0 + t)[..k]);
        let mut j0 = 0;
        while j0 + JB <= n {
            let mut acc = [[0.0f64; JB]; IR];
            for p in 0..k {
                let brow = &bs[p * n + j0..p * n + j0 + JB];
                for (t, arow) in arows.iter().enumerate() {
                    let av = arow[p];
                    for (o, &bv) in acc[t].iter_mut().zip(brow) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
            for (t, accrow) in acc.iter().enumerate() {
                finish::<ACC>(&mut block[t * n + j0..t * n + j0 + JB], accrow);
            }
            j0 += JB;
        }
        if j0 < n {
            for (t, arow) in arows.iter().enumerate() {
                edge_cols::<ACC, true>(arow, bs, n, j0, &mut block[t * n + j0..(t + 1) * n]);
            }
        }
        i0 += IR;
    }
    for (t, orow) in blocks.into_remainder().chunks_exact_mut(n).enumerate() {
        let arow = a.row(r0 + i0 + t);
        let mut j0 = 0;
        while j0 < n {
            let w = JB.min(n - j0);
            edge_cols::<ACC, true>(arow, bs, n, j0, &mut orow[j0..j0 + w]);
            j0 += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{naive_matmul, set_gemm_threads, test_config_lock};
    use crate::ApproxEq;

    #[test]
    fn eligibility_is_skinny_only() {
        assert!(eligible(64, 1, 64));
        assert!(eligible(2048, 16, 2048));
        assert!(eligible(17, 16, 18));
        assert!(!eligible(64, 0, 64)); // no inner dimension
        assert!(!eligible(64, 17, 64)); // too deep
        assert!(!eligible(16, 16, 64)); // k not strictly smallest
        assert!(!eligible(64, 16, 16));
        assert!(!eligible(8, 8, 8)); // small square
    }

    #[test]
    fn exact_path_is_bit_identical_to_naive() {
        for (m, k, n, seed) in [(40, 1, 50, 1), (33, 5, 77, 2), (130, 16, 120, 3)] {
            let a = Matrix::random_uniform(m, k, seed);
            let b = Matrix::random_uniform(k, n, seed + 10);
            let fast = rank_k_matmul(&a, &b, Fuse::Exact);
            assert_eq!(fast, naive_matmul(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn fold_is_bit_identical_to_gemm_then_add() {
        for (m, k, n, seed) in [(40, 1, 50, 21), (33, 5, 77, 22), (130, 16, 120, 23)] {
            let a = Matrix::random_uniform(m, k, seed);
            let b = Matrix::random_uniform(k, n, seed + 10);
            let mut fused = Matrix::random_uniform(m, n, seed + 20);
            let mut two_step = fused.clone();
            rank_k_fold(&mut fused, &a, &b, Fuse::Exact);
            two_step.add_assign_from(&naive_matmul(&a, &b)).unwrap();
            assert_eq!(fused, two_step, "{m}x{k}x{n}");
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
    fn parallel_is_bit_identical_to_serial_for_any_thread_count() {
        let _guard = test_config_lock();
        // 300·8·400 = 960k ≥ the parallel threshold, 3 row chunks.
        let a = Matrix::random_uniform(300, 8, 6);
        let b = Matrix::random_uniform(8, 400, 7);
        set_gemm_threads(Some(1));
        let serial = rank_k_matmul(&a, &b, Fuse::Exact);
        let mut serial_fold = Matrix::random_uniform(300, 400, 8);
        let fold_base = serial_fold.clone();
        rank_k_fold(&mut serial_fold, &a, &b, Fuse::Exact);
        for threads in [2usize, 3, 8] {
            set_gemm_threads(Some(threads));
            assert_eq!(
                rank_k_matmul(&a, &b, Fuse::Exact),
                serial,
                "threads = {threads}"
            );
            let mut fold = fold_base.clone();
            rank_k_fold(&mut fold, &a, &b, Fuse::Exact);
            assert_eq!(fold, serial_fold, "fold, threads = {threads}");
        }
        set_gemm_threads(None);
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
        // n deliberately not a multiple of JB, m not of IR or
        // ROWS_PER_CHUNK — exercises the right edge and the tail rows.
        for (m, k, n) in [(131, 3, JB + 5), (IR + 1, 2, JB - 1), (IR - 1, 1, 3)] {
            let a = Matrix::random_uniform(m, k, 11);
            let b = Matrix::random_uniform(k, n, 12);
            assert_eq!(
                rank_k_matmul(&a, &b, Fuse::Exact),
                naive_matmul(&a, &b),
                "{m}x{k}x{n}"
            );
        }
    }
}
