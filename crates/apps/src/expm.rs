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
//! [`IncrExpm`] writes it as the straight-line program
//!
//! ```text
//! M1 := A;   Mi := A Mi-1  (i = 2..k);   E := I + Σ (1/i!) Mi
//! ```
//!
//! and Algorithm 1 derives the linear model's power deltas (Appendix A) from
//! it: a rank-1 `ΔA` gives each `ΔMᵢ` rank `i`, so one refresh costs
//! `O(n²k²)` versus the `O(nᵞk)` re-evaluation — the same trade Table 2
//! records for matrix powers.

use linview_compiler::Program;
use linview_expr::{Catalog, Expr};
use linview_matrix::Matrix;
use linview_runtime::{IncrementalView, RankOneUpdate, RuntimeError};

use crate::Result;

/// A truncation order below the linear term is [`RuntimeError::InvalidArgument`].
fn check_order(k: usize) -> Result<()> {
    if k == 0 {
        return Err(RuntimeError::InvalidArgument(
            "the series needs at least the linear term (k >= 1)".into(),
        ));
    }
    Ok(())
}

/// Re-evaluation baseline: recomputes the truncated series per update.
#[derive(Debug, Clone)]
pub struct ReevalExpm {
    a: Matrix,
    k: usize,
    e: Matrix,
}

impl ReevalExpm {
    /// Evaluates `Σ_{i≤k} Aⁱ/i!` for a square `a`; `k = 0` is
    /// [`RuntimeError::InvalidArgument`].
    pub fn new(a: Matrix, k: usize) -> Result<Self> {
        check_order(k)?;
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

/// Name of the view holding the power `Mᵢ = Aⁱ`.
fn m_view(i: usize) -> String {
    format!("M{i}")
}

/// The series program over `A : n×n`; the coefficients `1/i!` are the same
/// `f64` values [`ReevalExpm`] scales by.
fn expm_program(k: usize, n: usize) -> Program {
    let mut prog = Program::new();
    let mut e = Expr::identity(n);
    let mut fact = 1.0;
    for i in 1..=k {
        let m = match i {
            1 => Expr::var("A"),
            _ => Expr::var("A") * Expr::var(m_view(i - 1)),
        };
        prog.assign(m_view(i), m);
        fact *= i as f64;
        e = e + Expr::var(m_view(i)).scale(1.0 / fact);
    }
    prog.assign("E", e);
    prog
}

/// Incremental maintainer: the compiled view over the series program,
/// materializing every power `Mᵢ = Aⁱ` and the series `E`.
#[derive(Debug, Clone)]
pub struct IncrExpm {
    view: IncrementalView,
}

impl IncrExpm {
    /// Builds the view, materializing all `k` powers; `k = 0` is
    /// [`RuntimeError::InvalidArgument`].
    pub fn new(a: Matrix, k: usize) -> Result<Self> {
        check_order(k)?;
        let mut cat = Catalog::new();
        cat.declare("A", a.rows(), a.cols());
        let view = IncrementalView::build(&expm_program(k, a.rows()), &[("A", a)], &cat)?;
        Ok(IncrExpm { view })
    }

    /// The maintained truncation of `exp(A)`.
    pub fn value(&self) -> &Matrix {
        self.view.get("E").expect("E is a view")
    }

    /// The maintained power `Aⁱ` (`1 ≤ i ≤ k`).
    pub fn power(&self, i: usize) -> Option<&Matrix> {
        self.view.get(&m_view(i)).ok()
    }

    /// Solution operator applied to a state: `x(1) = E·x₀`.
    pub fn evolve(&self, x0: &Matrix) -> Result<Matrix> {
        Ok(self.value().try_matmul(x0)?)
    }

    /// Current system matrix `A`.
    pub fn a(&self) -> &Matrix {
        self.view.get("A").expect("A is an input")
    }

    /// Applies `ΔA = u·vᵀ` by firing the compiled trigger.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        self.view.apply("A", upd)
    }

    /// Bytes held by all persistent state (the Table 3-style overhead of
    /// materializing every power).
    pub fn memory_bytes(&self) -> usize {
        self.view.memory_bytes()
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

    #[test]
    fn order_zero_is_an_error() {
        let a = Matrix::random_spectral(4, 17, 0.5);
        assert!(ReevalExpm::new(a.clone(), 0).is_err());
        assert!(IncrExpm::new(a, 0).is_err());
    }
}
