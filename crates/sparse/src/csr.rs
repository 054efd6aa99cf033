//! Compressed-sparse-row matrix kernel.

use linview_matrix::{flops, Matrix};

use crate::coo::CooBuilder;
use crate::{Result, SparseError};

/// An immutable CSR matrix over `f64`.
///
/// Mutation happens at the [`crate::Graph`] level (or by rebuilding through
/// [`CooBuilder`]); the CSR itself is a read-optimized snapshot, which
/// matches its role here: the *re-evaluation baseline* operand that
/// incremental maintenance is compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from raw parts (used by [`CooBuilder`]).
    ///
    /// Invariants (`row_ptr` monotone, indices sorted in-row and in bounds)
    /// are the builder's responsibility and asserted in debug builds.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), vals.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_idx.iter().all(|&c| c < cols));
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// An all-zero `rows×cols` sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The `n×n` sparse identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Converts a dense matrix, keeping entries with `|x| > tol`.
    pub fn from_dense(m: &Matrix, tol: f64) -> Self {
        let mut b = CooBuilder::new(m.rows(), m.cols());
        for (r, c, v) in m.iter() {
            if v.abs() > tol {
                b.push(r, c, v).expect("iter stays in bounds");
            }
        }
        b.build()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Density `nnz / (rows·cols)` (0 for an empty shape).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Reads entry `(r, c)` — `O(log nnz(row))`; zero for absent entries.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(i) => self.vals[lo + i],
            Err(_) => 0.0,
        }
    }

    /// Iterates the stored `(col, value)` pairs of row `r`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Iterates all stored `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sparse × dense product `self · x` for `x : (cols×p)`, `O(nnz·p)`.
    ///
    /// This is the PageRank workhorse: the per-iteration cost is `O(nnz)`
    /// rather than the dense `O(n²)`. Explicitly-stored zeros (which an
    /// update stream can legitimately leave behind) are skipped — they
    /// contribute nothing and would only burn FLOPs.
    pub fn spmm(&self, x: &Matrix) -> Result<Matrix> {
        if x.rows() != self.cols {
            return Err(SparseError::DimMismatch {
                op: "spmm",
                lhs: self.shape(),
                rhs: x.shape(),
            });
        }
        let p = x.cols();
        let mut out = Matrix::zeros(self.rows, p);
        let mut work = 0usize;
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let out_row = out.row_mut(r);
            for i in lo..hi {
                let v = self.vals[i];
                if v == 0.0 {
                    continue;
                }
                work += 1;
                let x_row = x.row(self.col_idx[i]);
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
        flops::add((2 * work * p) as u64);
        Ok(out)
    }

    /// Accumulating sparse × dense product: `out += self · x`.
    ///
    /// This is the shape an `ApplyDelta` fold actually needs — it avoids
    /// materializing an `n×p` temporary and paying a second elementwise
    /// add per fold. Each output row is accumulated into a scratch row
    /// first (stored entries in column order) and added into `out` with a
    /// single `+=` per element, so the result is bit-identical to
    /// [`spmm`](Self::spmm) followed by an elementwise add. Rows of `self`
    /// with no (nonzero) stored entries are skipped entirely.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) -> Result<()> {
        if x.rows() != self.cols {
            return Err(SparseError::DimMismatch {
                op: "spmm_into",
                lhs: self.shape(),
                rhs: x.shape(),
            });
        }
        if out.shape() != (self.rows, x.cols()) {
            return Err(SparseError::DimMismatch {
                op: "spmm_into",
                lhs: (self.rows, x.cols()),
                rhs: out.shape(),
            });
        }
        let p = x.cols();
        let mut scratch = vec![0.0f64; p];
        let mut work = 0usize;
        let mut rows_touched = 0usize;
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            if self.vals[lo..hi].iter().all(|&v| v == 0.0) {
                continue;
            }
            rows_touched += 1;
            scratch.iter_mut().for_each(|s| *s = 0.0);
            for i in lo..hi {
                let v = self.vals[i];
                if v == 0.0 {
                    continue;
                }
                work += 1;
                let x_row = x.row(self.col_idx[i]);
                for (s, &xv) in scratch.iter_mut().zip(x_row) {
                    *s += v * xv;
                }
            }
            for (o, &s) in out.row_mut(r).iter_mut().zip(&scratch) {
                *o += s;
            }
        }
        flops::add((2 * work * p + rows_touched * p) as u64);
        Ok(())
    }

    /// Sparse matrix–vector product with a column vector (`cols×1`).
    pub fn spmv(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != 1 {
            return Err(SparseError::DimMismatch {
                op: "spmv",
                lhs: self.shape(),
                rhs: x.shape(),
            });
        }
        self.spmm(x)
    }

    /// Sparse × sparse product (Gustavson's row-wise algorithm),
    /// `O(Σ_i Σ_{j ∈ row i} nnz(row j of rhs))` — the substrate for sparse
    /// reachability/adjacency powers where densification is unaffordable.
    pub fn spgemm(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        if rhs.rows != self.cols {
            return Err(SparseError::DimMismatch {
                op: "spgemm",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        // Dense accumulator + touched list per output row. A separate seen
        // flag (not `acc == 0`) so intermediate cancellations don't register
        // a column twice.
        let mut acc = vec![0.0f64; rhs.cols];
        let mut seen = vec![false; rhs.cols];
        let mut touched: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            for (k, v) in self.row_entries(r) {
                for (c, w) in rhs.row_entries(k) {
                    if !seen[c] {
                        seen[c] = true;
                        touched.push(c);
                    }
                    acc[c] += v * w;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                if acc[c] != 0.0 {
                    col_idx.push(c);
                    vals.push(acc[c]);
                }
                acc[c] = 0.0;
                seen[c] = false;
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        flops::add(2 * vals.len() as u64);
        Ok(CsrMatrix::from_parts(
            self.rows, rhs.cols, row_ptr, col_idx, vals,
        ))
    }

    /// Transpose, `O(nnz + rows + cols)` (counting sort by column).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut next = counts;
        for (r, c, v) in self.iter() {
            let slot = next[c];
            col_idx[slot] = r;
            vals[slot] = v;
            next[c] += 1;
        }
        CsrMatrix::from_parts(self.cols, self.rows, row_ptr, col_idx, vals)
    }

    /// Materializes as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m.set(r, c, v);
        }
        m
    }

    /// Scales every entry by `lambda`.
    pub fn scale(&self, lambda: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.vals {
            *v *= lambda;
        }
        out
    }

    /// Normalizes each row to sum 1, leaving all-zero rows untouched
    /// (dangling vertices are handled at the PageRank level). Returns the
    /// row-stochastic matrix.
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let lo = out.row_ptr[r];
            let hi = out.row_ptr[r + 1];
            let sum: f64 = out.vals[lo..hi].iter().sum();
            if sum != 0.0 {
                for v in &mut out.vals[lo..hi] {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Sum of the stored entries in row `r`.
    pub fn row_sum(&self, r: usize) -> f64 {
        self.row_entries(r).map(|(_, v)| v).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut b = CooBuilder::new(3, 3);
        for &(r, c, v) in &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)] {
            b.push(r, c, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn get_and_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let x = Matrix::random_uniform(3, 2, 1);
        let sparse = m.spmm(&x).unwrap();
        let dense = m.to_dense().try_matmul(&x).unwrap();
        assert!(sparse.approx_eq(&dense, 1e-12));
        assert!(m.spmm(&Matrix::zeros(4, 1)).is_err());
    }

    #[test]
    fn spmm_skips_explicitly_stored_zeros() {
        // `CooBuilder` drops zeros, so assemble the stored zero directly.
        // (The FLOP charge is asserted in `tests/flop_accounting.rs`.)
        let m = CsrMatrix::from_parts(2, 2, vec![0, 2, 2], vec![0, 1], vec![0.0, 2.0]);
        assert_eq!(m.nnz(), 2); // structurally stored, numerically one zero
        let x = Matrix::random_uniform(2, 3, 8);
        let got = m.spmm(&x).unwrap();
        assert!(got.approx_eq(&m.to_dense().try_matmul(&x).unwrap(), 1e-12));
    }

    #[test]
    fn spmm_into_is_bit_identical_to_spmm_plus_add() {
        let m = sample();
        let x = Matrix::random_uniform(3, 4, 5);
        let base = Matrix::random_uniform(3, 4, 6);
        let mut accumulated = base.clone();
        m.spmm_into(&x, &mut accumulated).unwrap();
        let mut reference = base.clone();
        reference
            .add_assign_from(&m.spmm(&x).unwrap())
            .expect("shapes agree");
        assert_eq!(accumulated, reference);
        // Row 1 of `sample` is empty: it must be left untouched (bitwise).
        assert_eq!(accumulated.row(1), base.row(1));
    }

    #[test]
    fn spmm_into_rejects_bad_shapes() {
        let m = sample();
        let x = Matrix::zeros(3, 2);
        assert!(m
            .spmm_into(&Matrix::zeros(4, 2), &mut Matrix::zeros(3, 2))
            .is_err());
        assert!(m.spmm_into(&x, &mut Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn spmv_requires_column_vector() {
        let m = sample();
        assert!(m.spmv(&Matrix::zeros(3, 2)).is_err());
        let x = Matrix::col_vector(&[1.0, 1.0, 1.0]);
        let y = m.spmv(&x).unwrap();
        assert_eq!(y.get(0, 0), 3.0);
        assert_eq!(y.get(2, 0), 7.0);
    }

    #[test]
    fn spgemm_matches_dense_matmul() {
        let m = sample();
        let t = m.transpose();
        let prod = m.spgemm(&t).unwrap();
        let expected = m.to_dense().try_matmul(&t.to_dense()).unwrap();
        assert!(prod.to_dense().approx_eq(&expected, 1e-12));
        assert!(m.spgemm(&CsrMatrix::zeros(4, 4)).is_err());
    }

    #[test]
    fn spgemm_identity_is_neutral() {
        let m = sample();
        let i = CsrMatrix::identity(3);
        assert_eq!(m.spgemm(&i).unwrap(), m);
        assert_eq!(i.spgemm(&m).unwrap(), m);
    }

    #[test]
    fn spgemm_drops_cancelled_entries() {
        // [1 1] · [ 1]  = [0] — exact cancellation must not produce a
        //         [-1]
        // stored zero (and must not double-register the column).
        let mut b1 = CooBuilder::new(1, 2);
        b1.push(0, 0, 1.0).unwrap();
        b1.push(0, 1, 1.0).unwrap();
        let a = b1.build();
        let mut b2 = CooBuilder::new(2, 1);
        b2.push(0, 0, 1.0).unwrap();
        b2.push(1, 0, -1.0).unwrap();
        let b = b2.build();
        let prod = a.spgemm(&b).unwrap();
        assert_eq!(prod.nnz(), 0);
        assert_eq!(prod.shape(), (1, 1));
    }

    #[test]
    fn spgemm_powers_track_graph_walks() {
        // (adjacency²)[i][j] counts length-2 paths.
        let mut b = CooBuilder::new(3, 3);
        for &(r, c) in &[(0usize, 1usize), (1, 2), (2, 0), (0, 2)] {
            b.push(r, c, 1.0).unwrap();
        }
        let adj = b.build();
        let two = adj.spgemm(&adj).unwrap();
        // Paths of length 2 from 0: 0->1->2 and 0->2->0.
        assert_eq!(two.get(0, 2), 1.0);
        assert_eq!(two.get(0, 0), 1.0);
        assert_eq!(two.get(0, 1), 0.0);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert!(t.to_dense().approx_eq(&m.to_dense().transpose(), 1e-12));
        // Double transpose is the identity.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = Matrix::random_uniform(5, 4, 2);
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert!(s.to_dense().approx_eq(&d, 1e-15));
        // Thresholding drops small entries.
        let s2 = CsrMatrix::from_dense(&Matrix::filled(2, 2, 1e-12), 1e-9);
        assert_eq!(s2.nnz(), 0);
    }

    #[test]
    fn row_normalized_is_stochastic_except_dangling() {
        let m = sample().row_normalized();
        assert!((m.row_sum(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.row_sum(1), 0.0); // dangling row untouched
        assert!((m.row_sum(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_and_scale() {
        let i = CsrMatrix::identity(4);
        let x = Matrix::random_uniform(4, 3, 3);
        assert!(i.spmm(&x).unwrap().approx_eq(&x, 1e-15));
        let half = i.scale(0.5);
        assert_eq!(half.get(2, 2), 0.5);
    }

    #[test]
    fn memory_scales_with_nnz() {
        let small = sample();
        let big = CsrMatrix::identity(100);
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
