//! Matrix exponential by truncated Taylor series, incrementally maintained —
//! the "solving systems of linear differential equations using matrix
//! exponentials" motivation §5.2 gives for the matrix-powers workload.
//!
//! The maintained view is the degree-`k` truncation
//!
//! ```text
//! E = Σ_{i=0}^{k} Aⁱ / i!        (so  x(t=1) = E·x₀  solves  ẋ = A·x)
//! ```
//!
//! Under a rank-1 update `ΔA = u·vᵀ`, every power picks up the factored
//! delta of the linear model (Appendix A):
//!
//! ```text
//! ΔM₁ = u·vᵀ
//! ΔMᵢ = [u | A·Uᵢ₋₁ + u·(vᵀUᵢ₋₁)] · [Mᵢ₋₁ᵀ·v | Vᵢ₋₁]ᵀ
//! ΔE  = Σ ΔMᵢ / i!
//! ```
//!
//! so one refresh costs `O(n²k²)` versus the `O(nᵞk)` re-evaluation — the
//! same trade Table 2 records for matrix powers.

use linview_matrix::Matrix;
use linview_runtime::RankOneUpdate;

use crate::Result;

/// Re-evaluation baseline: recomputes the truncated series per update.
#[derive(Debug, Clone)]
pub struct ReevalExpm {
    a: Matrix,
    k: usize,
    e: Matrix,
}

impl ReevalExpm {
    /// Evaluates `Σ_{i≤k} Aⁱ/i!` for a square `a`.
    pub fn new(a: Matrix, k: usize) -> Result<Self> {
        assert!(k >= 1, "need at least the linear term");
        let e = Self::evaluate(&a, k)?;
        Ok(ReevalExpm { a, k, e })
    }

    fn evaluate(a: &Matrix, k: usize) -> Result<Matrix> {
        let n = a.rows();
        let mut e = Matrix::identity(n);
        let mut term = Matrix::identity(n);
        let mut fact = 1.0;
        for i in 1..=k {
            term = term.try_matmul(a)?;
            fact *= i as f64;
            e.add_assign_from(&term.scale(1.0 / fact))?;
        }
        Ok(e)
    }

    /// Applies an update to `A` and recomputes the series.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        upd.apply_to(&mut self.a)?;
        self.e = Self::evaluate(&self.a, self.k)?;
        Ok(())
    }

    /// The maintained truncation of `exp(A)`.
    pub fn value(&self) -> &Matrix {
        &self.e
    }
}

/// Incremental maintainer: materializes every power `Mᵢ = Aⁱ` and folds
/// factored deltas into the series view.
#[derive(Debug, Clone)]
pub struct IncrExpm {
    a: Matrix,
    k: usize,
    /// Materialized powers `M₁ … M_k` (`m[i-1]` holds `Aⁱ`).
    m: Vec<Matrix>,
    e: Matrix,
}

impl IncrExpm {
    /// Builds the view, materializing all `k` powers.
    pub fn new(a: Matrix, k: usize) -> Result<Self> {
        assert!(k >= 1, "need at least the linear term");
        let n = a.rows();
        let mut m: Vec<Matrix> = Vec::with_capacity(k);
        let mut e = Matrix::identity(n);
        let mut fact = 1.0;
        for i in 1..=k {
            let next = if i == 1 {
                a.clone()
            } else {
                m[i - 2].try_matmul(&a)?
            };
            fact *= i as f64;
            e.add_assign_from(&next.scale(1.0 / fact))?;
            m.push(next);
        }
        Ok(IncrExpm { a, k, m, e })
    }

    /// The maintained truncation of `exp(A)`.
    pub fn value(&self) -> &Matrix {
        &self.e
    }

    /// The maintained power `Aⁱ` (`1 ≤ i ≤ k`).
    pub fn power(&self, i: usize) -> Option<&Matrix> {
        (i >= 1).then(|| self.m.get(i - 1)).flatten()
    }

    /// Solution operator applied to a state: `x(1) = E·x₀`.
    pub fn evolve(&self, x0: &Matrix) -> Result<Matrix> {
        Ok(self.e.try_matmul(x0)?)
    }

    /// Current system matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Applies `ΔA = u·vᵀ`, propagating factored deltas through all powers
    /// and the series view.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        // Factored deltas of M₁ … M_k against the *old* state. The linear
        // recurrence here multiplies A on the LEFT of the delta chain
        // (Mᵢ = Mᵢ₋₁·A maintained as ΔMᵢ = ΔMᵢ₋₁·A + Mᵢ₋₁·ΔA + ΔMᵢ₋₁·ΔA;
        // we use the transposed-dual form with Mᵢ = A·Mᵢ₋₁, identical by
        // symmetry of the power computation).
        let mut deltas: Vec<(Matrix, Matrix)> = Vec::with_capacity(self.k);
        deltas.push((upd.u.clone(), upd.v.clone()));
        for i in 1..self.k {
            let (prev_u, prev_v) = &deltas[i - 1];
            let mid = self
                .a
                .try_matmul(prev_u)?
                .try_add(&upd.u.try_matmul(&upd.v.transpose().try_matmul(prev_u)?)?)?;
            let new_u = Matrix::hstack(&[&upd.u, &mid])?;
            // deltas[i] is ΔM_{i+1}; the recurrence references M_i.
            let left = self.m[i - 1].try_matmul_tn(&upd.v)?;
            let new_v = Matrix::hstack(&[&left, prev_v])?;
            deltas.push((new_u, new_v));
        }

        // Fold the deltas: powers first, then the series.
        let mut fact = 1.0;
        for (i, (du, dv)) in deltas.iter().enumerate() {
            let dense = du.try_matmul(&dv.transpose())?;
            self.m[i].add_assign_from(&dense)?;
            fact *= (i + 1) as f64;
            self.e.add_assign_from(&dense.scale(1.0 / fact))?;
        }
        upd.apply_to(&mut self.a)?;
        Ok(())
    }

    /// Bytes held by all persistent state (the Table 3-style overhead of
    /// materializing every power).
    pub fn memory_bytes(&self) -> usize {
        self.a.memory_bytes()
            + self.e.memory_bytes()
            + self.m.iter().map(Matrix::memory_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;
    use linview_runtime::UpdateStream;

    #[test]
    fn diagonal_matrix_exponentiates_entrywise() {
        // exp(diag(d)) = diag(exp(d)); k = 20 terms is plenty for |d| <= 1.
        let d = [0.5, -0.3, 1.0];
        let a = Matrix::diagonal(&d);
        let e = IncrExpm::new(a, 20).unwrap();
        for (i, &di) in d.iter().enumerate() {
            assert!((e.value().get(i, i) - di.exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_matrix_gives_identity() {
        let e = IncrExpm::new(Matrix::zeros(4, 4), 8).unwrap();
        assert!(e.value().approx_eq(&Matrix::identity(4), 1e-15));
    }

    #[test]
    fn initial_value_matches_reevaluation() {
        let a = Matrix::random_spectral(10, 3, 0.7);
        let incr = IncrExpm::new(a.clone(), 12).unwrap();
        let reeval = ReevalExpm::new(a, 12).unwrap();
        assert!(incr.value().approx_eq(reeval.value(), 1e-12));
    }

    #[test]
    fn updates_track_reevaluation() {
        let n = 12;
        let a = Matrix::random_spectral(n, 5, 0.6);
        let mut incr = IncrExpm::new(a.clone(), 10).unwrap();
        let mut reeval = ReevalExpm::new(a, 10).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 7);
        for _ in 0..10 {
            let upd = stream.next_rank_one();
            incr.apply(&upd).unwrap();
            reeval.apply(&upd).unwrap();
        }
        assert!(incr.value().approx_eq(reeval.value(), 1e-8));
    }

    #[test]
    fn maintained_powers_stay_exact() {
        let n = 8;
        let a = Matrix::random_spectral(n, 9, 0.7);
        let mut incr = IncrExpm::new(a.clone(), 6).unwrap();
        let mut a_ref = a;
        let mut stream = UpdateStream::new(n, n, 0.01, 11);
        for _ in 0..6 {
            let upd = stream.next_rank_one();
            incr.apply(&upd).unwrap();
            upd.apply_to(&mut a_ref).unwrap();
        }
        let mut expected = a_ref.clone();
        for i in 1..=6 {
            assert!(
                incr.power(i).unwrap().approx_eq(&expected, 1e-8),
                "power {i} drifted"
            );
            if i < 6 {
                expected = expected.try_matmul(&a_ref).unwrap();
            }
        }
        assert!(incr.power(0).is_none());
        assert!(incr.power(7).is_none());
    }

    #[test]
    fn evolve_solves_a_known_ode() {
        // ẋ = -x  =>  x(1) = e⁻¹·x₀, per coordinate.
        let n = 3;
        let a = Matrix::identity(n).scale(-1.0);
        let e = IncrExpm::new(a, 25).unwrap();
        let x0 = Matrix::col_vector(&[2.0, -1.0, 0.5]);
        let x1 = e.evolve(&x0).unwrap();
        for i in 0..n {
            assert!((x1.get(i, 0) - x0.get(i, 0) * (-1.0f64).exp()).abs() < 1e-10);
        }
    }

    #[test]
    fn series_identity_exp_a_times_exp_minus_a() {
        // exp(A)·exp(−A) = I up to truncation error.
        let a = Matrix::random_spectral(6, 13, 0.4);
        let pos = IncrExpm::new(a.clone(), 18).unwrap();
        let neg = IncrExpm::new(a.scale(-1.0), 18).unwrap();
        let prod = pos.value().try_matmul(neg.value()).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(6), 1e-9));
    }

    #[test]
    fn memory_grows_with_truncation_order() {
        let a = Matrix::random_spectral(8, 15, 0.5);
        let small = IncrExpm::new(a.clone(), 4).unwrap();
        let large = IncrExpm::new(a, 12).unwrap();
        assert!(large.memory_bytes() > small.memory_bytes());
    }
}
