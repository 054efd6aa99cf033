//! Block-matrix assembly.
//!
//! The factored delta representation of §4.2–4.3 stacks column vectors and
//! previously computed blocks into `(n×k)` block matrices:
//!
//! > "A sum of k outer products is equivalent to a single product of two
//! >  matrices of sizes (n×k) and (k×n), which are obtained by stacking the
//! >  corresponding vectors together."
//!
//! `hstack` builds the `U`/`V` block matrices of trigger programs like
//! Example 4.6 (`U_B := [ u_A  (A u_A + u_A (v_Aᵀ u_A)) ]`).

use crate::{Matrix, MatrixError, Result};

impl Matrix {
    /// Horizontally concatenates matrices that share a row count.
    pub fn hstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Err(MatrixError::Empty);
        }
        let rows = parts[0].rows();
        let mut cols = 0;
        for p in parts {
            if p.rows() != rows {
                return Err(MatrixError::DimMismatch {
                    op: "hstack",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            cols += p.cols();
        }
        let mut out = Matrix::zeros(rows, cols);
        let mut c0 = 0;
        for p in parts {
            out.set_submatrix(0, c0, p)?;
            c0 += p.cols();
        }
        Ok(out)
    }

    /// Vertically concatenates matrices that share a column count.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Err(MatrixError::Empty);
        }
        let cols = parts[0].cols();
        let mut rows = 0;
        for p in parts {
            if p.cols() != cols {
                return Err(MatrixError::DimMismatch {
                    op: "vstack",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            rows += p.rows();
        }
        let mut out = Matrix::zeros(rows, cols);
        let mut r0 = 0;
        for p in parts {
            out.set_submatrix(r0, 0, p)?;
            r0 += p.rows();
        }
        Ok(out)
    }

    /// Splits a matrix into `g×g` equally sized grid blocks (the hybrid
    /// partitioning of §6). Requires both dimensions divisible by `g`.
    pub fn grid_split(&self, g: usize) -> Result<Vec<Vec<Matrix>>> {
        if g == 0 || !self.rows().is_multiple_of(g) || !self.cols().is_multiple_of(g) {
            return Err(MatrixError::DimMismatch {
                op: "grid_split",
                lhs: self.shape(),
                rhs: (g, g),
            });
        }
        let bh = self.rows() / g;
        let bw = self.cols() / g;
        let mut blocks = Vec::with_capacity(g);
        for br in 0..g {
            let mut row = Vec::with_capacity(g);
            for bc in 0..g {
                row.push(self.submatrix(br * bh, bc * bw, bh, bw)?);
            }
            blocks.push(row);
        }
        Ok(blocks)
    }

    /// Reassembles a matrix from a grid of equally sized blocks.
    pub fn grid_join(blocks: &[Vec<Matrix>]) -> Result<Matrix> {
        if blocks.is_empty() || blocks[0].is_empty() {
            return Err(MatrixError::Empty);
        }
        let bh = blocks[0][0].rows();
        let bw = blocks[0][0].cols();
        let g_rows = blocks.len();
        let g_cols = blocks[0].len();
        let mut out = Matrix::zeros(g_rows * bh, g_cols * bw);
        for (br, row) in blocks.iter().enumerate() {
            if row.len() != g_cols {
                return Err(MatrixError::RaggedRows {
                    row: br,
                    expected: g_cols,
                    got: row.len(),
                });
            }
            for (bc, b) in row.iter().enumerate() {
                if b.shape() != (bh, bw) {
                    return Err(MatrixError::DimMismatch {
                        op: "grid_join",
                        lhs: (bh, bw),
                        rhs: b.shape(),
                    });
                }
                out.set_submatrix(br * bh, bc * bw, b)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hstack_vectors() {
        let u = Matrix::col_vector(&[1.0, 2.0]);
        let v = Matrix::col_vector(&[3.0, 4.0]);
        let s = Matrix::hstack(&[&u, &v]).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(1, 1), 4.0);
    }

    #[test]
    fn hstack_rejects_mismatched_rows() {
        let u = Matrix::col_vector(&[1.0, 2.0]);
        let v = Matrix::col_vector(&[3.0]);
        assert!(Matrix::hstack(&[&u, &v]).is_err());
        assert!(Matrix::hstack(&[]).is_err());
    }

    #[test]
    fn vstack_rows() {
        let a = Matrix::row_vector(&[1.0, 2.0]);
        let b = Matrix::from_rows(vec![vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.get(2, 0), 5.0);
        assert!(Matrix::vstack(&[&a, &Matrix::zeros(1, 3)]).is_err());
    }

    #[test]
    fn grid_split_join_roundtrip() {
        let m = Matrix::random_uniform(12, 12, 3);
        let blocks = m.grid_split(3).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0][0].shape(), (4, 4));
        let back = Matrix::grid_join(&blocks).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn grid_split_requires_divisibility() {
        assert!(Matrix::zeros(10, 10).grid_split(3).is_err());
        assert!(Matrix::zeros(10, 10).grid_split(0).is_err());
    }
}
