//! Numerical recompression of factored deltas `Δ = U·Vᵀ`.
//!
//! §4.3 of the paper keeps factored deltas small by *syntactic*
//! common-factor extraction and explicitly rejects value inspection:
//! "computing the exact rank of the delta matrix requires inspection of the
//! matrix values, which we deem too expensive". That is the right call when
//! the only tool considered is a full decomposition of the `n×n` delta — but
//! the factored form makes rank inspection cheap: for `U : (n×k)`,
//! `V : (m×k)` a *numerically minimal* refactoring costs only
//! `O((n+m)k² + k³)`, asymptotically free next to the `O(k(n²+nm))` the next
//! propagation step pays per unit of rank.
//!
//! [`recompress`] implements that pass: it projects the pair onto
//! orthonormal bases (via SVD of each skinny factor), decomposes the small
//! `k×k` core, and drops singular directions below `rel_tol · σ_max`. The
//! result is the Eckart–Young-optimal factored representation of the same
//! delta. The runtime's maintenance engine applies it to a coalesced batch
//! before the batch fires, where [`keeps_full_rank`] cannot rule a shed
//! out; a firing never recompresses the blocks it propagates.

use crate::svd::Svd;
use crate::{flops, Cholesky, Matrix, MatrixError, Result};

/// Outcome of a [`recompress`] call.
#[derive(Debug, Clone)]
pub struct Recompressed {
    /// New left factor `U' : (n×r)`.
    pub u: Matrix,
    /// New right factor `V' : (m×r)`.
    pub v: Matrix,
    /// Rank before recompression (`k`).
    pub rank_before: usize,
    /// Numerical rank after recompression (`r ≤ k`).
    pub rank_after: usize,
}

impl Recompressed {
    /// True when the pass actually shrank the representation.
    pub fn reduced(&self) -> bool {
        self.rank_after < self.rank_before
    }
}

/// Recompresses the factored delta `U·Vᵀ` to its numerical rank.
///
/// `u` is `(n×k)`, `v` is `(m×k)`; both must have the same number of
/// columns. Singular values of the product below `rel_tol · σ_max` are
/// dropped. A delta that is numerically zero is returned as a rank-1 pair
/// of zero vectors (rank 0 has no matrix representation here, and a zero
/// outer product is harmless downstream).
pub fn recompress(u: &Matrix, v: &Matrix, rel_tol: f64) -> Result<Recompressed> {
    let k = u.cols();
    if v.cols() != k {
        return Err(MatrixError::DimMismatch {
            op: "recompress",
            lhs: u.shape(),
            rhs: v.shape(),
        });
    }
    if k == 0 {
        return Err(MatrixError::Empty);
    }
    let (n, m) = (u.rows(), v.rows());
    flops::add((4 * (n + m) * k * k + 8 * k * k * k) as u64);

    // Orthonormalize each skinny factor: U = Pu·Su·Wuᵀ, V = Pv·Sv·Wvᵀ.
    let su = Svd::factorize(u)?;
    let sv = Svd::factorize(v)?;

    // Core C = (Su Wuᵀ)(Sv Wvᵀ)ᵀ : (k×k); then U Vᵀ = Pu · C · Pvᵀ.
    let mut left = su.v().transpose(); // Wuᵀ
    for (i, &s) in su.singular_values().iter().enumerate() {
        for c in 0..k {
            left.set(i, c, left.get(i, c) * s);
        }
    }
    let mut right = sv.v().transpose(); // Wvᵀ
    for (i, &s) in sv.singular_values().iter().enumerate() {
        for c in 0..k {
            right.set(i, c, right.get(i, c) * s);
        }
    }
    let core = left.try_matmul(&right.transpose())?;
    let sc = Svd::factorize(&core)?;

    // The cutoff is relative to the *input* scale, not the core's own
    // largest singular value: a delta that cancels to numerical zero must
    // report rank 0, not rank 1.
    let scale = su.spectral_norm() * sv.spectral_norm();
    let cutoff = rel_tol * scale;
    let numeric_rank = sc.singular_values().iter().filter(|&&s| s > cutoff).count();

    if numeric_rank == 0 {
        return Ok(Recompressed {
            u: Matrix::zeros(n, 1),
            v: Matrix::zeros(m, 1),
            rank_before: k,
            rank_after: 0,
        });
    }
    let (p, q) = sc.truncate(numeric_rank)?; // core ≈ P·Qᵀ, σ folded into P
    let new_u = su.u().try_matmul(&p)?;
    let new_v = sv.u().try_matmul(&q)?;
    Ok(Recompressed {
        u: new_u,
        v: new_v,
        rank_before: k,
        rank_after: numeric_rank,
    })
}

/// How far above `rel_tol` the rank estimate of [`keeps_full_rank`] must
/// clear it: six decimal orders, against the roundoff of forming two Gram
/// matrices and their Cholesky factors, and the slack in
/// `σ_k(U Vᵀ) ≥ σ_k(U)·σ_k(V)`.
const FULL_RANK_SAFETY: f64 = 1e6;

/// True when [`recompress`] at `rel_tol` provably cannot shed rank from
/// `U·Vᵀ`, decided from the two `k×k` Gram matrices alone.
///
/// [`recompress`] drops directions below `rel_tol·σ₁(U)·σ₁(V)`, and
/// `σ_k(U Vᵀ) ≥ σ_k(U)·σ_k(V)`. So when the product of the factors'
/// `σ_k/σ₁` ratios clears `rel_tol` by six decimal orders, the
/// `O((n+m)k²)`-per-sweep SVD pass would return the pair at its original
/// rank — and a caller that only acts on a *reduced* rank can skip it for
/// one `O((n+m)k²)` Gram product per factor.
///
/// Each ratio is bounded from below without an eigensolver. The
/// eigenvalues `λ₁ ≥ … ≥ λ_k` of `G = FᵀF` are the squared singular
/// values of the factor `F`. Scale `G` to unit trace (the ratio does not
/// change) and factor it `G = L·Lᵀ`. Then:
/// - `λ₁ ≤ tr G = 1`, since every eigenvalue is positive;
/// - `G⁻¹ = L⁻ᵀL⁻¹`, so `1/λ_k ≤ Σᵢ 1/λᵢ = tr G⁻¹ = ‖L⁻¹‖²_F`.
///
/// Together, `σ_k(F)²/σ₁(F)² = λ_k/λ₁ ≥ 1/‖L⁻¹‖²_F`. The bound is never
/// above the true ratio, so this test answers `true` only where the
/// exact-eigenvalue test would; it is low by at most a factor `k`
/// (`tr G ≤ k·λ₁` and `tr G⁻¹ ≤ k/λ_k`), which the safety margin dwarfs.
/// A factorization that fails — a pivot under the Cholesky tolerance, a
/// zero or non-finite trace — answers `false`, which is always safe: it
/// just means "run the real pass".
pub fn keeps_full_rank(u: &Matrix, v: &Matrix, rel_tol: f64) -> Result<bool> {
    let k = u.cols();
    if v.cols() != k || k == 0 || k > u.rows().min(v.rows()) {
        return Ok(false);
    }
    let mut margin = 1.0;
    for factor in [u, v] {
        let mut gram = factor.try_matmul_tn(factor)?;
        let trace = gram.trace()?;
        if !(trace > 0.0 && trace.is_finite()) {
            return Ok(false);
        }
        gram.scale_inplace(1.0 / trace);
        let Ok(chol) = Cholesky::factorize(&gram) else {
            return Ok(false);
        };
        margin *= inverse_frobenius_sq(chol.factor()).recip().sqrt();
    }
    Ok(margin >= FULL_RANK_SAFETY * rel_tol)
}

/// `‖L⁻¹‖²_F` for a lower-triangular `l` with a positive diagonal: column
/// `j` of `L⁻¹` solves `L·x = e_j` by forward substitution, and is zero
/// above row `j`. `k³/3` FLOPs.
fn inverse_frobenius_sq(l: &Matrix) -> f64 {
    let k = l.rows();
    flops::add((k * k * k / 3) as u64);
    let mut x = vec![0.0; k];
    let mut sum = 0.0;
    for j in 0..k {
        for i in j..k {
            let row = l.row(i);
            let dot: f64 = row[j..i].iter().zip(&x[j..i]).map(|(a, b)| a * b).sum();
            let e = if i == j { 1.0 } else { 0.0 };
            x[i] = (e - dot) / row[i];
            sum += x[i] * x[i];
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApproxEq;

    fn product(u: &Matrix, v: &Matrix) -> Matrix {
        u.try_matmul(&v.transpose()).unwrap()
    }

    #[test]
    fn preserves_the_delta_exactly_at_full_rank() {
        let u = Matrix::random_uniform(12, 3, 1);
        let v = Matrix::random_uniform(9, 3, 2);
        let r = recompress(&u, &v, 1e-12).unwrap();
        assert_eq!(r.rank_after, 3);
        assert!(product(&r.u, &r.v).approx_eq(&product(&u, &v), 1e-9));
    }

    #[test]
    fn collapses_duplicated_columns() {
        // The §4.3 motivating case: U_B / V_B with linearly dependent
        // columns. Stack the same rank-1 pair three times.
        let ucol = Matrix::random_col(10, 3);
        let vcol = Matrix::random_col(8, 4);
        let u = Matrix::hstack(&[&ucol, &ucol, &ucol]).unwrap();
        let v = Matrix::hstack(&[&vcol, &vcol.scale(2.0), &vcol.scale(-0.5)]).unwrap();
        let r = recompress(&u, &v, 1e-10).unwrap();
        assert_eq!(r.rank_after, 1);
        assert!(r.reduced());
        assert!(product(&r.u, &r.v).approx_eq(&product(&u, &v), 1e-9));
    }

    #[test]
    fn finds_hidden_rank_deficiency_across_factors() {
        // Columns of U independent, columns of V independent, but the
        // *product* has lower rank: v2 chosen so contributions cancel.
        let u1 = Matrix::random_col(10, 5);
        let u2 = Matrix::random_col(10, 6);
        let w = Matrix::random_col(6, 7);
        let u = Matrix::hstack(&[&u1, &u2, &u1.try_add(&u2).unwrap()]).unwrap();
        // Third column of V cancels the first two: (u1+u2)w − u1w − u2w = 0.
        let v = Matrix::hstack(&[&w.scale(-1.0), &w.scale(-1.0), &w]).unwrap();
        let r = recompress(&u, &v, 1e-9).unwrap();
        assert_eq!(r.rank_after, 0);
        assert!(product(&r.u, &r.v).max_abs() < 1e-9);
    }

    #[test]
    fn zero_delta_compresses_to_zero_pair() {
        let u = Matrix::zeros(6, 2);
        let v = Matrix::zeros(5, 2);
        let r = recompress(&u, &v, 1e-12).unwrap();
        assert_eq!(r.rank_after, 0);
        assert_eq!(r.u.cols(), 1);
        assert!(product(&r.u, &r.v).max_abs() == 0.0);
    }

    #[test]
    fn full_rank_estimate_never_contradicts_the_real_pass() {
        let tol = 1e-12;
        let u = Matrix::random_uniform(60, 5, 31);
        let v = Matrix::random_uniform(40, 5, 32);
        // Comfortably full rank: the estimate says so, the pass agrees.
        assert!(keeps_full_rank(&u, &v, tol).unwrap());
        assert!(!recompress(&u, &v, tol).unwrap().reduced());
        // Basis-vector factors (coalesced row updates) are orthonormal.
        let mut basis = Matrix::zeros(60, 5);
        for c in 0..5 {
            basis.set(7 * c + 3, c, 1.0);
        }
        assert!(keeps_full_rank(&basis, &v, tol).unwrap());
        // A repeated column — exact (the pass sheds it) or off by 1e-9
        // (it does not, but the estimate cannot tell) — goes to the pass.
        for wobble in [0.0, 1e-9] {
            let mut dup = u.clone();
            for r in 0..60 {
                dup.set(r, 4, u.get(r, 0) * (1.0 + wobble * r as f64));
            }
            assert!(!keeps_full_rank(&dup, &v, tol).unwrap(), "wobble {wobble}");
            assert!(!keeps_full_rank(&v, &dup, tol).unwrap(), "wobble {wobble}");
            assert_eq!(recompress(&dup, &v, tol).unwrap().reduced(), wobble == 0.0);
        }
        // Degenerate shapes never claim full rank.
        assert!(!keeps_full_rank(&Matrix::zeros(60, 5), &v, tol).unwrap());
        assert!(!keeps_full_rank(&u, &Matrix::random_uniform(40, 4, 33), tol).unwrap());
        let wide = Matrix::random_uniform(3, 5, 34);
        assert!(!keeps_full_rank(&wide, &v, tol).unwrap());
    }

    #[test]
    fn a_full_rank_answer_is_kept_by_the_real_pass() {
        // Seeded pairs whose last column of one factor moves from an
        // independent direction through near-copies of the first column
        // (off by 10^-e) to an exact copy: wherever the Cholesky bound says `true`, the SVD pass
        // returns the pair at its rank. Both answers must occur.
        let tol = 1e-12;
        let (mut kept, mut sent_on) = (0, 0);
        for seed in 0..60u64 {
            let k = 2 + (seed % 15) as usize;
            let (n, m) = (
                k + 3 + (seed as usize * 7) % 40,
                k + 1 + (seed as usize * 5) % 30,
            );
            let mut u = Matrix::random_uniform(n, k, 100 + seed);
            let v = Matrix::random_uniform(m, k, 200 + seed);
            let wobble = [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 0.0][(seed % 7) as usize];
            for r in 0..n {
                let near = u.get(r, 0) + wobble * u.get(r, k - 1);
                u.set(r, k - 1, near);
            }
            let (a, b) = if seed % 2 == 0 { (&u, &v) } else { (&v, &u) };
            if keeps_full_rank(a, b, tol).unwrap() {
                kept += 1;
                let r = recompress(a, b, tol).unwrap();
                assert_eq!(r.rank_after, k, "seed {seed}: k = {k}, wobble {wobble}");
            } else {
                sent_on += 1;
            }
        }
        assert!(
            kept >= 10 && sent_on >= 10,
            "kept {kept}, sent on {sent_on}"
        );
    }

    #[test]
    fn rejects_mismatched_ranks() {
        let u = Matrix::zeros(6, 2);
        let v = Matrix::zeros(5, 3);
        assert!(recompress(&u, &v, 1e-12).is_err());
    }

    #[test]
    fn rank_never_increases() {
        for seed in 0..5u64 {
            let u = Matrix::random_uniform(15, 6, seed * 2 + 1);
            let v = Matrix::random_uniform(11, 6, seed * 2 + 2);
            let r = recompress(&u, &v, 1e-10).unwrap();
            assert!(r.rank_after <= r.rank_before);
            assert!(product(&r.u, &r.v).approx_eq(&product(&u, &v), 1e-8));
        }
    }

    #[test]
    fn loose_tolerance_truncates_small_directions() {
        // A dominant rank-1 part plus a tiny rank-1 perturbation: with a
        // loose tolerance the pass keeps only the dominant direction.
        let u = Matrix::hstack(&[
            &Matrix::random_col(12, 9),
            &Matrix::random_col(12, 10).scale(1e-8),
        ])
        .unwrap();
        let v =
            Matrix::hstack(&[&Matrix::random_col(12, 11), &Matrix::random_col(12, 12)]).unwrap();
        let r = recompress(&u, &v, 1e-6).unwrap();
        assert_eq!(r.rank_after, 1);
        // The dropped energy is bounded by the tolerance.
        assert!(product(&r.u, &r.v).rel_diff(&product(&u, &v)) < 1e-6);
    }
}
