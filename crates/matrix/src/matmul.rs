//! Matrix multiplication entry points.
//!
//! Every product here is multiplied by the kernel the router in
//! [`gemm`](crate::gemm) picks for its entry point, default kernel and
//! shape: the packed register-blocked nest, the rank-k fast path, the
//! skinny streaming kernels, this module's serial `i-k-j` loop for
//! products too small to amortize packing, or the naive oracle. The exact
//! ones are mutually bit-identical, so the choice moves only wall-clock.
//!
//! * [`Matrix::try_matmul`] — the public entry point, through the
//!   process-wide default [`GemmKernel`] (`Packed` unless overridden via
//!   [`crate::set_default_kernel`] / `LINVIEW_GEMM`).
//! * [`Matrix::matmul_with`] — an explicit kernel with no size gates (the
//!   differential suite's entry point); [`Matrix::matmul_packed`] pins
//!   `Packed`.
//! * [`Matrix::try_matmul_tn`] — `selfᵀ · rhs` without forming the
//!   transpose; [`Matrix::matmul_into`] / [`Matrix::matmul_tn_into`] write
//!   either product into a column block of an existing matrix.
//!
//! Skinny products (`matvec`, `outer`, and the `n×n · n×k` / `(n×n)ᵀ · n×k`
//! block products of the in-crate `skinny` module) are the `O(n²)`-class
//! primitives that incremental maintenance is built from.

use crate::gemm::{self, naive_matmul, GemmKernel, Op, Route};
use crate::{flops, rankk, skinny, Matrix, MatrixError, Result};

/// Inner-dimension slice of the small-product kernel: one slice of `b`'s
/// rows stays cache-resident while every row of `a` consumes it.
const BLOCK: usize = 64;

impl Matrix {
    /// General matrix product `self · rhs` through the default kernel
    /// (counts `2·m·k·n` FLOPs).
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_routed(rhs, Op::Matmul, gemm::default_kernel())
    }

    /// General matrix product through an explicit [`GemmKernel`].
    ///
    /// Runs exactly the named kernel with no size gates — the
    /// differential-testing entry point. The packed kernels still take
    /// their rank-k fast path on low-rank shapes, which is part of the
    /// kernel, not a fallback. Counts `2·m·k·n` FLOPs.
    pub fn matmul_with(&self, rhs: &Matrix, kernel: GemmKernel) -> Result<Matrix> {
        self.matmul_routed(rhs, Op::Pinned, kernel)
    }

    /// The packed register-blocked product (counts `2·m·k·n` FLOPs).
    /// Equivalent to [`Matrix::matmul_with`] with [`GemmKernel::Packed`].
    pub fn matmul_packed(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(rhs, GemmKernel::Packed)
    }

    fn matmul_routed(&self, rhs: &Matrix, op: Op, kernel: GemmKernel) -> Result<Matrix> {
        check_inner(self, rhs)?;
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        Ok(multiply(self, rhs, gemm::route(op, kernel, m, k, n)))
    }

    /// `selfᵀ · rhs` without materializing the transpose (counts
    /// `2·m·n·k` FLOPs for `self: m×n`, `rhs: m×k`).
    ///
    /// Right-hand blocks of at most 16 columns — the `Pᵀ V` of every
    /// factored delta — stream the rows of `self` once through the skinny
    /// kernel under every [`GemmKernel`], and so do blocks of up to 32
    /// columns (two passes) and outputs of at most 16 rows (`Yᵀ X`, as
    /// `(Xᵀ Y)ᵀ`) under the packed kernels; wider products run the packed
    /// nest with its `A` panels packed straight from the transposed
    /// operand. Shapes the packed nest does not take (tiny products,
    /// low-rank shapes, the naive default kernel) form the transpose and
    /// run the kernel [`Matrix::try_matmul`] would. The exact kernels are
    /// `==` to `self.transpose().try_matmul(rhs)`. The FLOP count is that
    /// of the work executed: the streaming kernels skip the all-zero rows
    /// of a sparse block, under the density test of [`fold_low_rank`](crate::fold_low_rank).
    pub fn try_matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.cols(), rhs.cols());
        self.matmul_tn_into(rhs, &mut out, 0)?;
        Ok(out)
    }

    /// Writes `self · rhs` into columns `c0..c0 + rhs.cols()` of `out`
    /// (which must have `self.rows()` rows), leaving the other columns
    /// untouched. Kernel selection, FLOP count and result bits are those
    /// of [`Matrix::try_matmul`]. Products the skinny kernel takes are
    /// written in place, and so is a packed-nest product that fills `out`
    /// exactly (`c0 == 0`, `out.cols() == rhs.cols()`) — which is how a
    /// caller multiplies repeatedly into one buffer instead of allocating
    /// a result per product; anything else is computed and copied in.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix, c0: usize) -> Result<()> {
        check_inner(self, rhs)?;
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        check_block(out, m, c0, n)?;
        if n == 0 {
            return Ok(());
        }
        let ld = out.cols();
        match gemm::route(Op::Matmul, gemm::default_kernel(), m, k, n) {
            Route::Skinny => skinny::tall_skinny_into(self, rhs, out.as_mut_slice(), ld, c0),
            Route::Short => skinny::short_into(&self.transpose(), rhs, out.as_mut_slice(), ld, c0),
            Route::Nest(fuse) if ld == n => {
                flops::add((2 * m * k * n) as u64);
                gemm::packed_matmul_into(self, rhs, out.as_mut_slice(), fuse)
            }
            route => out.set_submatrix(0, c0, &multiply(self, rhs, route))?,
        }
        Ok(())
    }

    /// Writes `selfᵀ · rhs` into columns `c0..c0 + rhs.cols()` of `out`
    /// (which must have `self.cols()` rows); see [`Matrix::try_matmul_tn`]
    /// and [`Matrix::matmul_into`].
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix, c0: usize) -> Result<()> {
        if self.rows() != rhs.rows() {
            return Err(MatrixError::DimMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (k, m) = self.shape();
        let n = rhs.cols();
        check_block(out, m, c0, n)?;
        if n == 0 {
            return Ok(());
        }
        let ld = out.cols();
        match gemm::route(Op::MatmulTn, gemm::default_kernel(), m, k, n) {
            Route::Skinny => skinny::tn_skinny_into(self, rhs, out.as_mut_slice(), ld, c0),
            Route::Short => skinny::short_into(self, rhs, out.as_mut_slice(), ld, c0),
            Route::Nest(fuse) => {
                flops::add((2 * m * k * n) as u64);
                out.set_submatrix(0, c0, &gemm::packed_matmul_tn(self, rhs, fuse))?
            }
            route => out.set_submatrix(0, c0, &multiply(&self.transpose(), rhs, route))?,
        }
        Ok(())
    }

    /// Matrix–vector product `self · v` where `v` is `k×1`; `O(mk)`.
    pub fn matvec(&self, v: &Matrix) -> Result<Matrix> {
        if v.cols() != 1 || self.cols() != v.rows() {
            return Err(MatrixError::DimMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: v.shape(),
            });
        }
        flops::add((2 * self.rows() * self.cols()) as u64);
        let mut out = Matrix::zeros(self.rows(), 1);
        for r in 0..self.rows() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (c, &x) in row.iter().enumerate() {
                acc += x * v.get(c, 0);
            }
            out.set(r, 0, acc);
        }
        Ok(out)
    }

    /// Vector–matrix product `vᵀ · self` where `v` is `m×1`; returns `1×n`.
    pub fn vecmat(&self, v: &Matrix) -> Result<Matrix> {
        if v.cols() != 1 || self.rows() != v.rows() {
            return Err(MatrixError::DimMismatch {
                op: "vecmat",
                lhs: v.shape(),
                rhs: self.shape(),
            });
        }
        flops::add((2 * self.rows() * self.cols()) as u64);
        let mut out = Matrix::zeros(1, self.cols());
        for r in 0..self.rows() {
            let coeff = v.get(r, 0);
            if coeff == 0.0 {
                continue;
            }
            let row = self.row(r);
            let o = out.row_mut(0);
            for (c, &x) in row.iter().enumerate() {
                o[c] += coeff * x;
            }
        }
        Ok(out)
    }

    /// Outer product `u vᵀ` of two column vectors.
    pub fn outer(u: &Matrix, v: &Matrix) -> Result<Matrix> {
        if u.cols() != 1 || v.cols() != 1 {
            return Err(MatrixError::DimMismatch {
                op: "outer",
                lhs: u.shape(),
                rhs: v.shape(),
            });
        }
        flops::add((u.rows() * v.rows()) as u64);
        let mut out = Matrix::zeros(u.rows(), v.rows());
        for r in 0..u.rows() {
            let ur = u.get(r, 0);
            for (o, &vc) in out.row_mut(r).iter_mut().zip(v.as_slice()) {
                *o = ur * vc;
            }
        }
        Ok(out)
    }

    /// Dot product of two column vectors.
    pub fn dot(u: &Matrix, v: &Matrix) -> Result<f64> {
        if u.cols() != 1 || v.cols() != 1 || u.rows() != v.rows() {
            return Err(MatrixError::DimMismatch {
                op: "dot",
                lhs: u.shape(),
                rhs: v.shape(),
            });
        }
        flops::add((2 * u.rows()) as u64);
        Ok(u.as_slice()
            .iter()
            .zip(v.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }
}

/// Runs the kernel `route` picked for `a · b` (shapes already validated)
/// and charges the FLOP meter: `2·m·k·n`, or for the streaming routes the
/// work they executed.
fn multiply(a: &Matrix, b: &Matrix, route: Route) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let streamed = |run: &dyn Fn(&mut [f64])| {
        let mut out = Matrix::zeros(m, n);
        run(out.as_mut_slice());
        out
    };
    let charged = |out: Matrix| {
        flops::add((2 * m * k * n) as u64);
        out
    };
    match route {
        Route::Skinny => streamed(&|out| skinny::tall_skinny_into(a, b, out, n, 0)),
        Route::Short => streamed(&|out| skinny::short_into(&a.transpose(), b, out, n, 0)),
        Route::Naive => charged(naive_matmul(a, b)),
        Route::Small => charged(small_matmul(a, b)),
        Route::RankK(fuse) => charged(rankk::rank_k_matmul(a, b, fuse)),
        Route::Nest(fuse) => charged(gemm::packed_matmul(a, b, fuse)),
    }
}

/// Validates the inner dimension of `a · b`.
fn check_inner(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(MatrixError::DimMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Validates that `out[.., c0..c0+cols]` exists and has `rows` rows.
fn check_block(out: &Matrix, rows: usize, c0: usize, cols: usize) -> Result<()> {
    if out.rows() != rows || c0 + cols > out.cols() {
        return Err(MatrixError::OutOfBounds {
            index: (rows, c0 + cols),
            shape: out.shape(),
        });
    }
    Ok(())
}

/// The small-product kernel: a serial `i-k-j` loop over the row-major
/// operands, the inner dimension in `BLOCK`-deep slices. Each output
/// element accumulates its products in ascending inner index from `+0.0` —
/// the naive kernel's chain. A zero `a[i][p]` skips its row of `b`: adding
/// an exact zero never changes a finite sum under `==`.
fn small_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let mut out = Matrix::zeros(m, b.cols());
    for kb in (0..k).step_by(BLOCK) {
        let kend = (kb + BLOCK).min(k);
        for i in 0..m {
            let arow = a.row(i);
            let orow = out.row_mut(i);
            // Indexed on purpose: `kk` addresses both `arow` and `b`'s rows.
            #[allow(clippy::needless_range_loop)]
            for kk in kb..kend {
                let aval = arow[kk];
                if aval == 0.0 {
                    continue;
                }
                let brow = b.row(kk);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aval * bv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::Fuse;
    use crate::ApproxEq;

    /// `try_matmul == naive` at one and two threads for shapes the packed
    /// default routes to `want`.
    fn try_matmul_is_naive(shapes: &[(usize, usize, usize)], want: Route) {
        let _guard = gemm::test_config_lock();
        gemm::set_default_kernel(Some(GemmKernel::Packed));
        for &(m, k, n) in shapes {
            assert_eq!(gemm::route(Op::Matmul, GemmKernel::Packed, m, k, n), want);
            let a = Matrix::random_uniform(m, k, (m * 7 + k) as u64);
            let b = Matrix::random_uniform(k, n, (k * 7 + n) as u64);
            let oracle = naive_matmul(&a, &b);
            for threads in [1, 2] {
                gemm::set_gemm_threads(Some(threads));
                let c = a.try_matmul(&b).unwrap();
                assert_eq!(c, oracle, "{m}x{k}x{n}, {threads} thread(s)");
            }
        }
        gemm::set_gemm_threads(None);
        gemm::set_default_kernel(None);
    }

    #[test]
    fn small_product_matches_hand_computed() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.try_matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rejects_inner_dim_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn try_matmul_below_the_small_product_gate_matches_naive() {
        // Only outputs with more than 16 rows and 32 columns reach the
        // gate; short and narrow ones stream whatever their size.
        try_matmul_is_naive(&[(17, 2, 33), (20, 1, 40)], Route::Small);
    }

    #[test]
    fn try_matmul_short_and_two_pass_outputs_match_naive() {
        try_matmul_is_naive(&[(1, 256, 256), (16, 40, 300), (3, 2, 40)], Route::Short);
        try_matmul_is_naive(
            &[(300, 40, 17), (512, 256, 26), (40, 30, 32)],
            Route::Skinny,
        );
    }

    #[test]
    fn try_matmul_above_the_small_product_gate_matches_naive() {
        try_matmul_is_naive(&[(64, 64, 64)], Route::Nest(Fuse::Exact));
    }

    #[test]
    fn try_matmul_dispatches_every_default_kernel() {
        let _guard = gemm::test_config_lock();
        let a = Matrix::random_uniform(40, 40, 13);
        let b = Matrix::random_uniform(40, 40, 14);
        let oracle = naive_matmul(&a, &b);
        for kernel in GemmKernel::ALL {
            gemm::set_default_kernel(Some(kernel));
            let c = a.try_matmul(&b).unwrap();
            if kernel.fuses() {
                assert!(c.approx_eq(&oracle, 1e-10), "{kernel}");
            } else {
                assert_eq!(c, oracle, "{kernel}");
            }
        }
        gemm::set_default_kernel(None);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random_uniform(20, 20, 5);
        let i = Matrix::identity(20);
        assert!(a.try_matmul(&i).unwrap().approx_eq(&a, 1e-12));
        assert!(i.try_matmul(&a).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::random_uniform(12, 8, 6);
        let v = Matrix::random_uniform(8, 1, 7);
        let fast = a.matvec(&v).unwrap();
        let slow = a.try_matmul(&v).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn vecmat_matches_transpose_matmul() {
        let a = Matrix::random_uniform(8, 12, 8);
        let v = Matrix::random_uniform(8, 1, 9);
        let fast = a.vecmat(&v).unwrap();
        let slow = v.transpose().try_matmul(&a).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn outer_and_dot() {
        let u = Matrix::col_vector(&[1.0, 2.0]);
        let v = Matrix::col_vector(&[3.0, 4.0, 5.0]);
        let o = Matrix::outer(&u, &v).unwrap();
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o.get(1, 2), 10.0);
        let w = Matrix::col_vector(&[1.0, 1.0, 2.0]);
        assert_eq!(Matrix::dot(&v, &w).unwrap(), 17.0);
        assert!(Matrix::dot(&u, &v).is_err());
    }

    #[test]
    fn matmul_counts_flops() {
        let _guard = gemm::test_config_lock();
        let a = Matrix::identity(10);
        let before = flops::read();
        let _ = a.try_matmul(&a).unwrap();
        assert!(flops::read() - before >= 2000);
    }
}
