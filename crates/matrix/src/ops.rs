//! Entrywise arithmetic, scaling, transpose, and the operator impls.

use crate::{flops, Matrix, MatrixError, Result};
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

impl Matrix {
    /// Entrywise sum. Errors on shape mismatch.
    pub fn try_add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        flops::add(self.len() as u64);
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Entrywise difference. Errors on shape mismatch.
    pub fn try_sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        flops::add(self.len() as u64);
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// In-place entrywise accumulation `self += other`.
    pub fn add_assign_from(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        flops::add(self.len() as u64);
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place entrywise subtraction `self -= other`.
    pub fn sub_assign_from(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimMismatch {
                op: "sub_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        flops::add(self.len() as u64);
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a -= b;
        }
        Ok(())
    }

    /// Scalar multiple `λ · self`.
    pub fn scale(&self, lambda: f64) -> Matrix {
        flops::add(self.len() as u64);
        self.map(|x| lambda * x)
    }

    /// In-place scalar multiple.
    pub fn scale_inplace(&mut self, lambda: f64) {
        flops::add(self.len() as u64);
        self.map_inplace(|x| lambda * x);
    }

    /// Transpose.
    ///
    /// A vector keeps its storage order, so it is a copy. Every other
    /// shape writes contiguous output runs, gathering along a source
    /// column: scattering along source rows instead keeps `c` output rows
    /// in flight at stride `r`, which alias in L1 when `r` is a power of
    /// two. A narrow input (at most 32 columns: every `n×k` delta factor)
    /// gathers whole output rows; a wider one works in 32-row bands so the
    /// source lines a band reads stay in L1 across its columns. On a
    /// 2-vCPU AVX2 Xeon: 256×26 took 27 µs scattered and takes 4.3 µs
    /// gathered (a clone 1.6–1.8 µs); 512×512 took 1.3 ms in scattered
    /// 32×32 blocks and takes 0.44 ms in bands.
    pub fn transpose(&self) -> Matrix {
        let (r, c) = self.shape();
        if r <= 1 || c <= 1 {
            return Matrix::from_vec(c, r, self.as_slice().to_vec()).expect("same length");
        }
        let src = self.as_slice();
        let mut out = Matrix::zeros(c, r);
        let band = if c <= 32 { r } else { 32 };
        let dst = out.as_mut_slice();
        for rb in (0..r).step_by(band) {
            let re = (rb + band).min(r);
            for j in 0..c {
                for (o, srow) in dst[j * r + rb..j * r + re]
                    .iter_mut()
                    .zip(src[rb * c..re * c].chunks_exact(c))
                {
                    *o = srow[j];
                }
            }
        }
        out
    }

    /// Rank-1 in-place update `self += u vᵀ` where `u` is `n×1` and `v` is `m×1`.
    ///
    /// This is the primitive applied by every trigger update statement
    /// (`X += u_A v_Aᵀ` in Example 4.6 of the paper); it costs `O(nm)`.
    pub fn add_outer(&mut self, u: &Matrix, v: &Matrix) -> Result<()> {
        if u.cols() != 1 || v.cols() != 1 || u.rows() != self.rows() || v.rows() != self.cols() {
            return Err(MatrixError::DimMismatch {
                op: "add_outer",
                lhs: u.shape(),
                rhs: v.shape(),
            });
        }
        flops::add((self.len() * 2) as u64);
        for r in 0..self.rows() {
            let ur = u.get(r, 0);
            if ur == 0.0 {
                continue;
            }
            for (x, &vc) in self.row_mut(r).iter_mut().zip(v.as_slice()) {
                *x += ur * vc;
            }
        }
        Ok(())
    }
}

macro_rules! binary_op {
    ($trait:ident, $method:ident, $try:ident) => {
        impl $trait<&Matrix> for &Matrix {
            type Output = Result<Matrix>;
            fn $method(self, rhs: &Matrix) -> Result<Matrix> {
                self.$try(rhs)
            }
        }
        impl $trait<Matrix> for Matrix {
            type Output = Result<Matrix>;
            fn $method(self, rhs: Matrix) -> Result<Matrix> {
                self.$try(&rhs)
            }
        }
    };
}

binary_op!(Add, add, try_add);
binary_op!(Sub, sub, try_sub);

impl Mul<&Matrix> for &Matrix {
    type Output = Result<Matrix>;
    fn mul(self, rhs: &Matrix) -> Result<Matrix> {
        self.try_matmul(rhs)
    }
}

impl Mul<Matrix> for Matrix {
    type Output = Result<Matrix>;
    fn mul(self, rhs: Matrix) -> Result<Matrix> {
        self.try_matmul(&rhs)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_assign_from(rhs).expect("AddAssign shape mismatch");
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.sub_assign_from(rhs).expect("SubAssign shape mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2() -> Matrix {
        Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m2();
        let b = a.scale(2.0);
        let s = a.try_add(&b).unwrap();
        assert_eq!(s.get(1, 1), 12.0);
        let d = s.try_sub(&b).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn add_rejects_mismatch() {
        let err = m2().try_add(&Matrix::zeros(3, 2)).unwrap_err();
        assert!(matches!(err, MatrixError::DimMismatch { op: "add", .. }));
    }

    #[test]
    fn assign_ops() {
        let mut a = m2();
        let b = m2();
        a += &b;
        assert_eq!(a.get(0, 0), 2.0);
        a -= &b;
        assert_eq!(a, m2());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_large_blocked_path() {
        let n = 70;
        let a = Matrix::from_vec(n, n, (0..n * n).map(|i| i as f64).collect()).unwrap();
        let t = a.transpose();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(t.get(j, i), a.get(i, j));
            }
        }
    }

    /// Element-wise `out[j][i] = a[i][j]`: the reference a transpose
    /// must equal.
    fn naive_transpose(a: &Matrix) -> Matrix {
        let (r, c) = a.shape();
        let mut out = Matrix::zeros(c, r);
        for i in 0..r {
            for j in 0..c {
                out.set(j, i, a.get(i, j));
            }
        }
        out
    }

    #[test]
    fn transpose_matches_the_naive_copy_on_every_path() {
        // Empty and vector shapes (the copy), widths either side of the
        // narrow gather at 32 columns, the delta-factor shapes, a wide
        // block and a ragged square for the 32-row bands.
        let mut shapes = vec![(0, 7), (7, 0), (0, 0), (1, 9), (9, 1), (1, 1)];
        for w in [31, 32, 33] {
            shapes.extend([(w, w), (70, w), (w, 70)]);
        }
        shapes.extend([(256, 26), (512, 16), (26, 256), (513, 511)]);
        for (seed, &(r, c)) in shapes.iter().enumerate() {
            let a = Matrix::random_uniform(r, c, seed as u64);
            assert_eq!(a.transpose(), naive_transpose(&a), "{r}x{c}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn transpose_is_the_naive_copy(r in 0usize..80, c in 0usize..80, seed in 0u64..1000) {
            let a = Matrix::random_uniform(r, c, seed);
            proptest::prop_assert_eq!(a.transpose(), naive_transpose(&a));
        }
    }

    #[test]
    fn scale_and_neg() {
        let a = m2();
        assert_eq!((&a * 2.0).get(0, 1), 4.0);
        assert_eq!((-&a).get(1, 0), -3.0);
    }

    #[test]
    fn add_outer_matches_explicit_product() {
        let mut a = Matrix::zeros(3, 2);
        let u = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        let v = Matrix::col_vector(&[10.0, 20.0]);
        a.add_outer(&u, &v).unwrap();
        assert_eq!(a.get(2, 1), 60.0);
        assert_eq!(a.get(0, 0), 10.0);
        assert!(a.add_outer(&v, &u).is_err());
    }

    #[test]
    fn ops_count_flops() {
        let before = crate::flops::read();
        let _ = m2().try_add(&m2()).unwrap();
        assert!(crate::flops::read() >= before + 4);
    }
}
