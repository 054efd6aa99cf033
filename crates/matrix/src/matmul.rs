//! Matrix multiplication entry points.
//!
//! The actual kernels live in [`gemm`](crate::gemm) (packed
//! register-blocked microkernel, the default), this module (cache-blocked
//! `i-k-j` and the row-band parallel wrapper over the persistent worker
//! pool) and [`strassen`](crate::Matrix::matmul_strassen). Dispatch:
//!
//! * [`Matrix::try_matmul`] — the public entry point. Routes through the
//!   process-wide default [`GemmKernel`](crate::GemmKernel) (`Packed`
//!   unless overridden via [`crate::set_default_kernel`] / `LINVIEW_GEMM`)
//!   with size-based fallbacks: products too small to amortize packing run
//!   the serial blocked kernel instead.
//! * [`Matrix::matmul_with`](crate::Matrix::matmul_with) — explicit kernel
//!   choice, no size dispatch (the differential suite's entry point).
//! * [`Matrix::matmul_serial`] / [`Matrix::matmul_parallel`] — the blocked
//!   kernel pinned serial / row-band parallel, kept for ablation.
//! * [`Matrix::try_matmul_tn`] — `selfᵀ · rhs` without forming the
//!   transpose; [`Matrix::matmul_into`] / [`Matrix::matmul_tn_into`] write
//!   either product into a column block of an existing matrix.
//!
//! Skinny products (`matvec`, `outer`, and the `n×n · n×k` / `(n×n)ᵀ · n×k`
//! block products of the in-crate `skinny` module) are the `O(n²)`-class
//! primitives that incremental maintenance is built from.

use crate::gemm::{self, Fuse, GemmKernel};
use crate::skinny::{self, SKINNY_MAX_COLS};
use crate::{flops, pool, rankk, Matrix, MatrixError, Result};

/// Cache block edge for the serial blocked kernel.
const BLOCK: usize = 64;

impl Matrix {
    /// General matrix product `self · rhs` through the default kernel.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(MatrixError::DimMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let work = self.rows() * self.cols() * rhs.cols();
        let kernel = gemm::default_kernel();
        if takes_tall_skinny(kernel, rhs.cols()) {
            let mut out = Matrix::zeros(self.rows(), rhs.cols());
            self.matmul_into(rhs, &mut out, 0)?;
            return Ok(out);
        }
        // Size-based fallback: packing three buffers for a tiny product
        // costs more than the multiply. (Large low-rank shapes never
        // reach this arm — they pass the work gate and take the packed
        // kernels' rank-k fast path, which does not pack at all.)
        if matches!(kernel, GemmKernel::Packed | GemmKernel::PackedFma)
            && work < gemm::PACKED_MIN_WORK
        {
            flops::add((2 * work) as u64);
            return Ok(self.blocked_matmul_auto(rhs));
        }
        self.matmul_with(rhs, kernel)
    }

    /// `selfᵀ · rhs` without materializing the transpose (counts
    /// `2·m·n·k` FLOPs for `self: m×n`, `rhs: m×k`).
    ///
    /// Right-hand blocks of at most 16 columns — the `Pᵀ V` of every
    /// factored delta — stream the rows of `self` once through the skinny
    /// kernel under every [`GemmKernel`]; wider products run the packed
    /// nest with its `A` panels packed straight from the transposed
    /// operand. Shapes the packed nest would not take anyway (tiny
    /// products, a non-packed default kernel) form the transpose and
    /// defer to [`Matrix::try_matmul`]. The exact kernels are
    /// bit-identical to `self.transpose().try_matmul(rhs)`.
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
        if self.cols() != rhs.rows() {
            return Err(MatrixError::DimMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        check_block(out, self.rows(), c0, rhs.cols())?;
        if rhs.cols() == 0 {
            return Ok(());
        }
        let kernel = gemm::default_kernel();
        if !takes_tall_skinny(kernel, rhs.cols()) {
            let (m, inner, n) = (self.rows(), self.cols(), rhs.cols());
            if out.cols() == n
                && matches!(kernel, GemmKernel::Packed | GemmKernel::PackedFma)
                && m * inner * n >= gemm::PACKED_MIN_WORK
                && !rankk::eligible(m, inner, n)
            {
                flops::add((2 * m * inner * n) as u64);
                gemm::packed_matmul_into(self, rhs, out.as_mut_slice(), Fuse::of(kernel));
                return Ok(());
            }
            return out.set_submatrix(0, c0, &self.try_matmul(rhs)?);
        }
        flops::add((2 * self.rows() * self.cols() * rhs.cols()) as u64);
        let ld = out.cols();
        skinny::tall_skinny_into(self, rhs, out.as_mut_slice(), ld, c0);
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
        let (inner, m) = self.shape();
        let n = rhs.cols();
        check_block(out, m, c0, n)?;
        if n == 0 {
            return Ok(());
        }
        if n <= SKINNY_MAX_COLS {
            flops::add((2 * m * inner * n) as u64);
            let ld = out.cols();
            skinny::tn_skinny_into(self, rhs, out.as_mut_slice(), ld, c0);
            return Ok(());
        }
        let kernel = gemm::default_kernel();
        let product = if matches!(kernel, GemmKernel::Packed | GemmKernel::PackedFma)
            && m * inner * n >= gemm::PACKED_MIN_WORK
            && !rankk::eligible(m, inner, n)
        {
            flops::add((2 * m * inner * n) as u64);
            gemm::packed_matmul_tn(self, rhs, Fuse::of(kernel))
        } else {
            self.transpose().try_matmul(rhs)?
        };
        out.set_submatrix(0, c0, &product)
    }

    /// Serial cache-blocked product (for benchmarking the kernels in
    /// isolation; [`Matrix::try_matmul`] picks automatically).
    pub fn matmul_serial(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(MatrixError::DimMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        flops::add((2 * self.rows() * self.cols() * rhs.cols()) as u64);
        Ok(self.matmul_serial_impl(rhs))
    }

    /// Blocked product with row bands on the persistent worker pool.
    pub fn matmul_parallel(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(MatrixError::DimMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        flops::add((2 * self.rows() * self.cols() * rhs.cols()) as u64);
        Ok(self.matmul_parallel_impl(rhs))
    }

    fn matmul_serial_impl(&self, rhs: &Matrix) -> Matrix {
        let (m, k) = self.shape();
        let n = rhs.cols();
        let mut out = Matrix::zeros(m, n);
        mul_into(self, rhs, out.as_mut_slice(), 0, m, k, n);
        out
    }

    fn matmul_parallel_impl(&self, rhs: &Matrix) -> Matrix {
        let (m, k) = self.shape();
        let n = rhs.cols();
        let threads = gemm::gemm_threads().min(m.max(1));
        if threads <= 1 {
            return self.matmul_serial_impl(rhs);
        }
        let mut out = Matrix::zeros(m, n);
        let band = m.div_ceil(threads);
        // Row bands accumulate disjoint output rows in the same per-element
        // order as the serial kernel, so any thread count is bit-identical.
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        let mut rest = out.as_mut_slice();
        let mut r0 = 0;
        while r0 < m {
            let h = band.min(m - r0);
            let (head, tail) = rest.split_at_mut(h * n);
            tasks.push(Box::new(move || mul_into(self, rhs, head, r0, h, k, n)));
            rest = tail;
            r0 += h;
        }
        pool::run_scoped(tasks);
        out
    }

    /// Blocked kernel with the historical size gate: serial below the
    /// parallel threshold, row-band parallel above it.
    pub(crate) fn blocked_matmul_auto(&self, rhs: &Matrix) -> Matrix {
        if self.rows() * self.cols() * rhs.cols() >= gemm::PARALLEL_THRESHOLD {
            self.matmul_parallel_impl(rhs)
        } else {
            self.matmul_serial_impl(rhs)
        }
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

/// True when [`Matrix::try_matmul`] hands a product with `cols` output
/// columns to the tall-skinny kernel: under the packed family, anything
/// narrower than a register tile (the packed nest would pad it to `NR`
/// and the blocked kernel would run one scalar chain per row).
fn takes_tall_skinny(kernel: GemmKernel, cols: usize) -> bool {
    matches!(kernel, GemmKernel::Packed | GemmKernel::PackedFma)
        && (1..=SKINNY_MAX_COLS).contains(&cols)
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

/// Cache-blocked i-k-j kernel writing `a[r0..r0+h] · b` into `out`.
fn mul_into(a: &Matrix, b: &Matrix, out: &mut [f64], r0: usize, h: usize, k: usize, n: usize) {
    for kb in (0..k).step_by(BLOCK) {
        let kend = (kb + BLOCK).min(k);
        for i in 0..h {
            let arow = a.row(r0 + i);
            let orow = &mut out[i * n..(i + 1) * n];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApproxEq;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
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
    fn serial_matches_naive_rectangular() {
        let a = Matrix::random_uniform(17, 33, 1);
        let b = Matrix::random_uniform(33, 9, 2);
        let fast = a.matmul_serial(&b).unwrap();
        assert!(fast.approx_eq(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn parallel_matches_serial() {
        let a = Matrix::random_uniform(130, 70, 3);
        let b = Matrix::random_uniform(70, 110, 4);
        let p = a.matmul_parallel(&b).unwrap();
        let s = a.matmul_serial(&b).unwrap();
        assert!(p.approx_eq(&s, 1e-10));
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_for_any_thread_count() {
        let _guard = gemm::test_config_lock();
        let a = Matrix::random_uniform(97, 64, 11);
        let b = Matrix::random_uniform(64, 55, 12);
        let s = a.matmul_serial(&b).unwrap();
        for threads in [1, 2, 5] {
            gemm::set_gemm_threads(Some(threads));
            assert_eq!(a.matmul_parallel(&b).unwrap(), s, "threads = {threads}");
        }
        gemm::set_gemm_threads(None);
    }

    #[test]
    fn try_matmul_dispatches_every_default_kernel() {
        let _guard = gemm::test_config_lock();
        let a = Matrix::random_uniform(40, 40, 13);
        let b = Matrix::random_uniform(40, 40, 14);
        let oracle = naive(&a, &b);
        for kernel in GemmKernel::ALL {
            gemm::set_default_kernel(Some(kernel));
            let c = a.try_matmul(&b).unwrap();
            assert!(c.approx_eq(&oracle, 1e-10), "{kernel}");
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
