//! Density-aware low-rank view folds.
//!
//! Every trigger update statement bottoms out in the fold
//! `X += U·Vᵀ` with skinny `n×k` factors. On the paper's graph/Zipf
//! workloads (§7) the left factor is overwhelmingly sparse — a row update
//! contributes one basis column, so `U` carries ~`k` nonzeros out of
//! `n·k` — and a dense rank-`k` GEMM wastes `O(n·k·m)` work on zeros.
//! [`fold_low_rank`] measures the factor's density and, below the
//! benchmarked [`SPARSE_FOLD_CROSSOVER`], replays the fold row by row over
//! the stored nonzeros only, in `O(nnz(U)·m)`.
//!
//! **One density test.** `is_sparse` (nnz at most
//! [`SPARSE_FOLD_CROSSOVER`] of the entries) decides both this fold's path
//! and whether the skinny product kernels (`P·U`, `Pᵀ·V` and the short
//! outputs of the in-crate `skinny` module) drop the all-zero rows of
//! their `n×k` block. The argument below covers both: a skipped term is a
//! product with an exact zero.
//!
//! **Bit-identity.** The dense path computes
//! `delta[r][j] = Σₖ u[r,k]·v[j,k]` with `k` ascending (the documented
//! [`GemmKernel`](crate::GemmKernel) contract — plain mul-then-add, never
//! fused) and then performs one elementwise `X += delta` — or, when the
//! crate's kernel router picks the rank-k fold, the same chain added
//! straight into `X`. The sparse path
//! replays exactly that per-element order, skipping only terms where
//! `u[r,k]` is exactly `0.0` and rows of `U` that are entirely zero.
//! Skipped terms contribute `±0.0`; under IEEE-754 round-to-nearest,
//! adding an exact zero never changes a finite accumulator except possibly
//! in the sign of a zero result — and `f64::==` (hence `Matrix::==`, the
//! relation every conformance suite asserts) treats `-0.0 == +0.0`. So
//! sparse and dense folds agree under `==` for every kernel and thread
//! count. The argument needs finite operands: `inf·0` and `NaN·0` are NaN,
//! so a dense path that multiplies an infinite entry of `V` (or of the
//! product's other operand) by a skipped zero yields NaN where the sparse
//! path keeps the finite sum. Views that hold an infinity or a NaN are
//! not skipped-equal.
//!
//! Callers opt out per fold (`allow_sparse = false`); the runtime's
//! forced-dense reference is `ExecOptions::sparse_folds = false`.
//!
//! **Interaction with `packed-fma`.** The opt-in fused kernel
//! ([`GemmKernel::PackedFma`](crate::GemmKernel)) breaks the mul-then-add
//! contract the replay argument above rests on, so while it is the default
//! kernel every fold runs dense — folds stay mutually consistent (all
//! fused) and replicated backends keep folding identical values.

use crate::gemm::{self, Op, Route};
use crate::{flops, Matrix, MatrixError, Result};

/// Density of the left factor below which the sparse row-replay fold beats
/// the packed GEMM + elementwise add.
///
/// Benchmarked with the `sparsity` experiment table: the packed kernel
/// sustains roughly 6–8× the scalar fold's FLOP rate, so the naive
/// break-even sits near density ≈ 1/7; `0.05` leaves a 2–3× margin so the
/// sparse path only engages where it wins clearly (basis-vector factors
/// from row-update streams have density `1/n`, far below it).
pub const SPARSE_FOLD_CROSSOVER: f64 = 0.05;

/// Which execution path [`fold_low_rank`] took, with the work it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldPath {
    /// Sparse row-replay over the stored nonzeros of `U`.
    Sparse {
        /// Exact nonzeros of the left factor.
        nnz: usize,
        /// Rows of `U` with at least one nonzero (= rows of `X` written).
        rows_touched: usize,
    },
    /// Dense rank-`k` GEMM + elementwise accumulation.
    Dense,
}

impl FoldPath {
    /// True when the sparse replay ran.
    pub fn is_sparse(self) -> bool {
        matches!(self, FoldPath::Sparse { .. })
    }
}

/// Exact nonzero count of a factor (entries not equal to `±0.0`).
pub fn factor_nnz(m: &Matrix) -> usize {
    m.as_slice().iter().filter(|&&x| x != 0.0).count()
}

/// The crate's one density test: `nnz` nonzeros among `len` entries are
/// sparse when they are at most [`SPARSE_FOLD_CROSSOVER`] of them. Folds
/// ([`fold_low_rank`]) and skinny products (the in-crate `skinny` kernels)
/// both ask it of their `n×k` operand.
pub(crate) fn is_sparse(nnz: usize, len: usize) -> bool {
    (nnz as f64) <= SPARSE_FOLD_CROSSOVER * len as f64
}

/// The rows of `m` holding at least one nonzero, in ascending order, when
/// `m` passes [`is_sparse`]; `None` for a dense operand (the scan stops at
/// the first nonzero row past the budget).
pub(crate) fn sparse_rows(m: &Matrix) -> Option<Vec<usize>> {
    let mut nnz = 0;
    let mut rows = Vec::new();
    for r in 0..m.rows() {
        let here = m.row(r).iter().filter(|&&x| x != 0.0).count();
        if here > 0 {
            nnz += here;
            if !is_sparse(nnz, m.len()) {
                return None;
            }
            rows.push(r);
        }
    }
    Some(rows)
}

/// Folds `target += u · vᵀ`, picking the sparse row-replay when the left
/// factor's measured density is at or below [`SPARSE_FOLD_CROSSOVER`] (and
/// `allow_sparse` is set), the dense rank-`k` GEMM otherwise.
///
/// Shapes: `u` is `n×k`, `v` is `m×k`, `target` is `n×m`. Both paths are
/// `==`-identical (see the module docs); the FLOP meter records the work
/// the chosen path actually performed, which is the whole point — sparse
/// folds cost `O(nnz(U)·m)` instead of `O(n·k·m)`.
pub fn fold_low_rank(
    target: &mut Matrix,
    u: &Matrix,
    v: &Matrix,
    allow_sparse: bool,
) -> Result<FoldPath> {
    if u.cols() != v.cols() || u.rows() != target.rows() || v.rows() != target.cols() {
        return Err(MatrixError::DimMismatch {
            op: "fold_low_rank",
            lhs: u.shape(),
            rhs: v.shape(),
        });
    }
    let (n, k) = u.shape();
    let m = v.rows();
    // Under the opt-in fused (`packed-fma`) kernel the dense fold fuses
    // its multiply-adds, which the scalar replay cannot reproduce — and a
    // sparse/dense decision must never change fold values, or mirrored
    // backends would drift apart. Fall back to all-dense in that mode.
    if allow_sparse && n * k > 0 && !gemm::default_kernel().fuses() {
        let nnz = factor_nnz(u);
        if is_sparse(nnz, n * k) {
            return sparse_fold(target, u, v, nnz, m);
        }
    }
    // Fused rank-k fold: skip the n×m delta temporary whenever the router
    // says so — at every size, so a firing never allocates a view-sized
    // matrix to fold a block pair. The per-element chain (ascending-k
    // accumulate, one add into the target) is that of the GEMM-then-add
    // fold this replaces, under whichever exact kernel the product would
    // have taken.
    if let Route::RankK(fuse) = gemm::route(Op::Fold, gemm::default_kernel(), n, k, m) {
        crate::rankk::rank_k_fold(target, u, &v.transpose(), fuse);
        // Same meter charge as the two-step: 2nkm for the product, nm for
        // the fold into the target.
        flops::add((2 * n * k * m + n * m) as u64);
        return Ok(FoldPath::Dense);
    }
    let delta = u.try_matmul(&v.transpose())?;
    target.add_assign_from(&delta)?;
    Ok(FoldPath::Dense)
}

/// The sparse replay: for each nonzero row `r` of `u`, accumulate
/// `Σₖ u[r,k]·v[j,k]` over the stored `k` in ascending order into a scalar
/// and add it into `target[r][j]` once — the exact per-element grouping of
/// GEMM-then-add, minus the terms that are exactly zero.
fn sparse_fold(
    target: &mut Matrix,
    u: &Matrix,
    v: &Matrix,
    nnz: usize,
    m: usize,
) -> Result<FoldPath> {
    let mut cols: Vec<(usize, f64)> = Vec::new();
    let mut rows_touched = 0usize;
    for r in 0..u.rows() {
        cols.clear();
        cols.extend(
            u.row(r)
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != 0.0)
                .map(|(k, &x)| (k, x)),
        );
        if cols.is_empty() {
            continue;
        }
        rows_touched += 1;
        let out_row = target.row_mut(r);
        for (j, out) in out_row.iter_mut().enumerate() {
            let v_row = v.row(j);
            let mut acc = 0.0f64;
            for &(k, uval) in &cols {
                acc += uval * v_row[k];
            }
            *out += acc;
        }
    }
    // 2 flops per (stored nonzero × output column) plus the per-row fold.
    flops::add((2 * nnz * m + rows_touched * m) as u64);
    Ok(FoldPath::Sparse { nnz, rows_touched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_fold(target: &mut Matrix, u: &Matrix, v: &Matrix) {
        let delta = u.try_matmul(&v.transpose()).unwrap();
        target.add_assign_from(&delta).unwrap();
    }

    /// A skinny factor with exactly `per_col` nonzeros per column.
    fn basisish(n: usize, k: usize, per_col: usize, seed: u64) -> Matrix {
        let mut u = Matrix::zeros(n, k);
        let mut s = seed;
        for c in 0..k {
            for _ in 0..per_col {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (s >> 33) as usize % n;
                let val = ((s >> 11) & 0xffff) as f64 / 65536.0 - 0.5;
                u.set(r, c, if val == 0.0 { 0.25 } else { val });
            }
        }
        u
    }

    #[test]
    fn sparse_fold_is_bit_identical_to_dense() {
        let _guard = crate::gemm::test_config_lock();
        for &(n, m, k) in &[(40, 40, 1), (64, 48, 3), (33, 57, 5)] {
            let u = basisish(n, k, 1, 7 + n as u64);
            let v = Matrix::random_uniform(m, k, 11 + m as u64);
            let base = Matrix::random_uniform(n, m, 13);
            let mut sparse_t = base.clone();
            let path = fold_low_rank(&mut sparse_t, &u, &v, true).unwrap();
            assert!(
                path.is_sparse(),
                "density {} should take the sparse path",
                n
            );
            let mut dense_t = base.clone();
            dense_fold(&mut dense_t, &u, &v);
            assert_eq!(sparse_t, dense_t, "sparse fold diverged at ({n},{m},{k})");
        }
    }

    #[test]
    fn dense_factors_take_the_dense_path() {
        // The dense fold follows the default kernel, which sibling tests
        // switch to `packed-fma` while they hold the lock.
        let _guard = crate::gemm::test_config_lock();
        let u = Matrix::random_uniform(32, 2, 3);
        let v = Matrix::random_uniform(32, 2, 4);
        let mut t = Matrix::zeros(32, 32);
        let path = fold_low_rank(&mut t, &u, &v, true).unwrap();
        assert_eq!(path, FoldPath::Dense);
        let mut want = Matrix::zeros(32, 32);
        dense_fold(&mut want, &u, &v);
        assert_eq!(t, want);
    }

    #[test]
    fn opt_out_forces_dense() {
        let u = basisish(64, 2, 1, 5);
        let v = Matrix::random_uniform(48, 2, 6);
        let mut t = Matrix::zeros(64, 48);
        assert_eq!(
            fold_low_rank(&mut t, &u, &v, false).unwrap(),
            FoldPath::Dense
        );
    }

    #[test]
    fn fused_default_kernel_forces_dense_folds() {
        let _guard = crate::gemm::test_config_lock();
        // The factor is sparse enough for the replay, but while the fused
        // kernel is the default every fold must stay dense (and mutually
        // fused-consistent).
        let u = basisish(64, 2, 1, 5);
        let v = Matrix::random_uniform(48, 2, 6);
        crate::set_default_kernel(Some(crate::GemmKernel::PackedFma));
        let mut fused_t = Matrix::zeros(64, 48);
        let path = fold_low_rank(&mut fused_t, &u, &v, true).unwrap();
        // The values it folded are the pinned kernel's own dense fold.
        let mut want = Matrix::zeros(64, 48);
        dense_fold(&mut want, &u, &v);
        crate::set_default_kernel(None);
        assert_eq!(path, FoldPath::Dense);
        assert_eq!(fused_t, want);
    }

    #[test]
    fn fused_rank_k_fold_is_bit_identical_to_the_two_step_fold() {
        let _guard = crate::gemm::test_config_lock();
        // Dense factors above try_matmul's small-work gate
        // (256·2·256 ≥ 48³), so the fold takes the fused rank-k path
        // while the reference materializes the delta and adds it.
        for k in [1usize, 2, 7, 16] {
            let u = Matrix::random_uniform(256, k, 41 + k as u64);
            let v = Matrix::random_uniform(256, k, 43 + k as u64);
            let base = Matrix::random_uniform(256, 256, 45);
            let mut fused = base.clone();
            let path = fold_low_rank(&mut fused, &u, &v, false).unwrap();
            assert_eq!(path, FoldPath::Dense);
            let mut two_step = base.clone();
            dense_fold(&mut two_step, &u, &v);
            assert_eq!(fused, two_step, "rank-k fold diverged at k = {k}");
        }
    }

    #[test]
    fn all_zero_factor_is_a_sparse_noop() {
        let _guard = crate::gemm::test_config_lock();
        let u = Matrix::zeros(16, 2);
        let v = Matrix::random_uniform(16, 2, 9);
        let base = Matrix::random_uniform(16, 16, 10);
        let mut t = base.clone();
        let path = fold_low_rank(&mut t, &u, &v, true).unwrap();
        assert_eq!(
            path,
            FoldPath::Sparse {
                nnz: 0,
                rows_touched: 0
            }
        );
        assert_eq!(t, base);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let u = Matrix::zeros(4, 2);
        let v = Matrix::zeros(5, 3);
        let mut t = Matrix::zeros(4, 5);
        assert!(fold_low_rank(&mut t, &u, &v, true).is_err());
    }
}
