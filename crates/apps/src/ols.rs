//! Ordinary Least Squares `β* = (XᵀX)⁻¹ XᵀY` (§5.1) — the application that
//! exercises incremental matrix-inverse maintenance via Sherman–Morrison.
//!
//! Re-evaluation pays `O(nᵞ + mn²)` per update (the inversion dominates);
//! the incremental trigger pays `O(n² + mn)` (Example 4.2/4.3, Fig. 3e).
//!
//! Three maintainers are provided: [`ReevalOls`] (baseline), [`IncrOls`]
//! (the compiled Sherman–Morrison trigger), and [`CholOls`] — the §4.2
//! factorization-update extension ("rank-1 updates in different matrix
//! factorizations, like SVD and Cholesky decomposition … we can further use
//! these new primitives to enrich our language"), which maintains the
//! Cholesky factor of the Gram matrix instead of its explicit inverse.

use linview_compiler::parse::parse_program;
use linview_expr::Catalog;
use linview_matrix::{Cholesky, Matrix};
use linview_runtime::{ExecBackend, IncrementalView, LocalBackend, RankOneUpdate, RuntimeError};

use crate::Result;

/// The textual OLS program fed to the compiler frontend.
pub const OLS_PROGRAM: &str = "Z := X' * X;\nW := inv(Z);\nbeta := W * X' * Y;";

/// Re-evaluation baseline: recomputes the estimator from scratch.
#[derive(Debug, Clone)]
pub struct ReevalOls {
    x: Matrix,
    y: Matrix,
    beta: Matrix,
}

impl ReevalOls {
    /// Builds the estimator for predictors `x : (m×n)` and responses
    /// `y : (m×p)`.
    pub fn new(x: Matrix, y: Matrix) -> Result<Self> {
        let beta = Self::solve(&x, &y)?;
        Ok(ReevalOls { x, y, beta })
    }

    fn solve(x: &Matrix, y: &Matrix) -> Result<Matrix> {
        let z = x.transpose().try_matmul(x)?;
        let w = z.inverse()?;
        Ok(w.try_matmul(&x.transpose().try_matmul(y)?)?)
    }

    /// Applies an update to `X` and recomputes `β*`.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        upd.apply_to(&mut self.x)?;
        self.beta = Self::solve(&self.x, &self.y)?;
        Ok(())
    }

    /// The current estimate.
    pub fn beta(&self) -> &Matrix {
        &self.beta
    }
}

/// Incremental estimator: the compiled trigger program maintains `Z = XᵀX`,
/// `W = Z⁻¹` (via Sherman–Morrison), and `β*` under updates to `X`, on any
/// [`ExecBackend`].
#[derive(Debug, Clone)]
pub struct IncrOls<B: ExecBackend = LocalBackend> {
    view: IncrementalView<B>,
}

impl IncrOls {
    /// Compiles the OLS program and materializes `Z`, `W`, `β*`.
    pub fn new(x: Matrix, y: Matrix) -> Result<Self> {
        Self::new_on(LocalBackend, x, y)
    }
}

impl<B: ExecBackend> IncrOls<B> {
    /// As [`IncrOls::new`] on an explicit execution backend.
    pub fn new_on(backend: B, x: Matrix, y: Matrix) -> Result<Self> {
        let mut cat = Catalog::new();
        cat.declare("X", x.rows(), x.cols());
        cat.declare("Y", y.rows(), y.cols());
        let program = parse_program(OLS_PROGRAM)
            .map_err(|e| RuntimeError::Unbound(format!("OLS program parse failure: {e}")))?;
        let view = IncrementalView::build_on(backend, &program, &[("X", x), ("Y", y)], &cat)?;
        Ok(IncrOls { view })
    }

    /// Fires the trigger for an update to `X`.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        self.view.apply("X", upd)
    }

    /// The current estimate.
    pub fn beta(&self) -> &Matrix {
        self.view.get("beta").expect("beta is materialized")
    }

    /// The maintained inverse `W = (XᵀX)⁻¹` (for tests and diagnostics).
    pub fn inverse_view(&self) -> &Matrix {
        self.view.get("W").expect("W is materialized")
    }

    /// The compiled trigger program.
    pub fn trigger_program(&self) -> &linview_compiler::TriggerProgram {
        self.view.trigger_program()
    }

    /// Turns on the wait-free snapshot read path over `Z`, `W`, and `β*`
    /// (see [`linview_runtime::snapshot`]). Returns a cloneable reader
    /// handle.
    pub fn enable_serving(&mut self, publish_every: u64) -> linview_runtime::ViewHandle {
        self.view.enable_serving(publish_every)
    }

    /// A reader handle onto the published snapshots, when serving is on.
    pub fn serving_handle(&self) -> Option<linview_runtime::ViewHandle> {
        self.view.serving_handle()
    }
}

/// Cholesky-based incremental estimator: maintains `L·Lᵀ = XᵀX` under
/// rank-1 updates to `X` and solves for `β*` by two triangular solves.
///
/// For `ΔX = u·vᵀ` the Gram update is the symmetric rank-2(+1) change
///
/// ```text
/// ΔZ = v·sᵀ + s·vᵀ + α·v·vᵀ      with s = Xᵀu, α = uᵀu
///    = ½(v+s)(v+s)ᵀ − ½(v−s)(v−s)ᵀ + α·v·vᵀ
/// ```
///
/// i.e. two hyperbolic updates and one downdate of the factor — `O(n²)`
/// each, the same asymptotics as Sherman–Morrison but without ever forming
/// `(XᵀX)⁻¹` explicitly (the numerically preferred route when `XᵀX` is
/// ill-conditioned).
#[derive(Debug, Clone)]
pub struct CholOls {
    x: Matrix,
    y: Matrix,
    chol: Cholesky,
    /// Maintained right-hand side `XᵀY : (n×p)`.
    xty: Matrix,
    beta: Matrix,
}

impl CholOls {
    /// Factorizes `XᵀX` and solves for the initial estimate.
    pub fn new(x: Matrix, y: Matrix) -> Result<Self> {
        let z = x.transpose().try_matmul(&x)?;
        let chol = Cholesky::factorize(&z)?;
        let xty = x.transpose().try_matmul(&y)?;
        let beta = chol.solve(&xty)?;
        Ok(CholOls {
            x,
            y,
            chol,
            xty,
            beta,
        })
    }

    /// Applies `ΔX = u·vᵀ`: three rank-1 factor operations, one rank-1
    /// right-hand-side update, and a triangular re-solve — `O(n² + mn + n²p)`.
    ///
    /// Fails with a singular error if the update destroys positive
    /// definiteness (`X` lost full column rank); the state is left
    /// untouched in that case.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        let s = self.x.try_matmul_tn(&upd.u)?;
        let alpha = Matrix::dot(&upd.u, &upd.u)?;
        let half = 0.5_f64.sqrt();
        let w_plus = upd.v.try_add(&s)?.scale(half);
        let w_minus = upd.v.try_sub(&s)?.scale(half);
        // Apply on a copy so a failed downdate leaves the state intact;
        // updates first keeps the intermediate factor safely PD.
        let mut chol = self.chol.clone();
        chol.update(&w_plus)?;
        if alpha > 0.0 {
            chol.update(&upd.v.scale(alpha.sqrt()))?;
        }
        chol.downdate(&w_minus)?;
        self.chol = chol;
        // Δ(XᵀY) = v·(uᵀY) — rank 1, O(mp + np).
        let uty = self.y.try_matmul_tn(&upd.u)?; // p×1
        self.xty.add_assign_from(&Matrix::outer(&upd.v, &uty)?)?;
        upd.apply_to(&mut self.x)?;
        self.beta = self.chol.solve(&self.xty)?;
        Ok(())
    }

    /// The current estimate.
    pub fn beta(&self) -> &Matrix {
        &self.beta
    }

    /// The maintained Cholesky factor of `XᵀX`.
    pub fn factor(&self) -> &Cholesky {
        &self.chol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;
    use linview_runtime::UpdateStream;

    fn well_conditioned_x(n: usize, seed: u64) -> Matrix {
        Matrix::random_diag_dominant(n, seed)
    }

    #[test]
    fn beta_solves_the_normal_equations() {
        // With square invertible X, β = X⁻¹Y exactly.
        let x = well_conditioned_x(10, 3);
        let y = Matrix::random_uniform(10, 2, 4);
        let ols = ReevalOls::new(x.clone(), y.clone()).unwrap();
        let direct = x.inverse().unwrap().try_matmul(&y).unwrap();
        assert!(ols.beta().approx_eq(&direct, 1e-6));
    }

    #[test]
    fn incremental_tracks_reeval_under_updates() {
        let n = 12;
        let x = well_conditioned_x(n, 5);
        let y = Matrix::random_uniform(n, 1, 6);
        let mut reeval = ReevalOls::new(x.clone(), y.clone()).unwrap();
        let mut incr = IncrOls::new(x, y).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.001, 7);
        for _ in 0..12 {
            let upd = stream.next_rank_one();
            reeval.apply(&upd).unwrap();
            incr.apply(&upd).unwrap();
        }
        assert!(incr.beta().approx_eq(reeval.beta(), 1e-6));
    }

    #[test]
    fn maintained_inverse_stays_consistent() {
        let n = 10;
        let x = well_conditioned_x(n, 8);
        let y = Matrix::random_uniform(n, 1, 9);
        let mut incr = IncrOls::new(x.clone(), y).unwrap();
        let mut x_ref = x;
        let mut stream = UpdateStream::new(n, n, 0.001, 10);
        for _ in 0..8 {
            let upd = stream.next_rank_one();
            incr.apply(&upd).unwrap();
            upd.apply_to(&mut x_ref).unwrap();
        }
        let z = x_ref.transpose().try_matmul(&x_ref).unwrap();
        assert!(incr.inverse_view().approx_eq(&z.inverse().unwrap(), 1e-6));
    }

    #[test]
    fn trigger_uses_sherman_morrison() {
        let x = well_conditioned_x(8, 11);
        let y = Matrix::random_uniform(8, 1, 12);
        let incr = IncrOls::new(x, y).unwrap();
        let text = incr.trigger_program().to_string();
        assert!(text.contains("sherman_morrison"));
    }

    #[test]
    fn cholesky_ols_tracks_reevaluation() {
        let n = 12;
        let x = well_conditioned_x(n, 21);
        let y = Matrix::random_uniform(n, 2, 22);
        let mut reeval = ReevalOls::new(x.clone(), y.clone()).unwrap();
        let mut chol = CholOls::new(x, y).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.001, 23);
        for _ in 0..15 {
            let upd = stream.next_rank_one();
            reeval.apply(&upd).unwrap();
            chol.apply(&upd).unwrap();
        }
        assert!(chol.beta().approx_eq(reeval.beta(), 1e-6));
    }

    #[test]
    fn cholesky_factor_stays_consistent_with_gram_matrix() {
        let n = 10;
        let x = well_conditioned_x(n, 25);
        let y = Matrix::random_col(n, 26);
        let mut chol = CholOls::new(x.clone(), y).unwrap();
        let mut x_ref = x;
        let mut stream = UpdateStream::new(n, n, 0.001, 27);
        for _ in 0..10 {
            let upd = stream.next_rank_one();
            chol.apply(&upd).unwrap();
            upd.apply_to(&mut x_ref).unwrap();
        }
        let z = x_ref.transpose().try_matmul(&x_ref).unwrap();
        assert!(chol.factor().reconstruct().approx_eq(&z, 1e-7));
    }

    #[test]
    fn cholesky_and_sherman_morrison_agree() {
        // The two §4.2 primitives maintain the same estimator.
        let n = 10;
        let x = well_conditioned_x(n, 31);
        let y = Matrix::random_col(n, 32);
        let mut sm = IncrOls::new(x.clone(), y.clone()).unwrap();
        let mut ch = CholOls::new(x, y).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.001, 33);
        for _ in 0..10 {
            let upd = stream.next_rank_one();
            sm.apply(&upd).unwrap();
            ch.apply(&upd).unwrap();
        }
        assert!(ch.beta().approx_eq(sm.beta(), 1e-7));
    }

    #[test]
    fn rank_destroying_update_fails_atomically() {
        // Make X rank deficient: X := X - X e0 e0ᵀ... a rank-1 update that
        // zeroes column 0 of X makes XᵀX singular; the downdate must fail
        // and leave beta unchanged.
        let n = 6;
        let x = well_conditioned_x(n, 41);
        let y = Matrix::random_col(n, 42);
        let mut ch = CholOls::new(x.clone(), y).unwrap();
        let before = ch.beta().clone();
        let mut e0 = Matrix::zeros(n, 1);
        e0.set(0, 0, 1.0);
        let upd = RankOneUpdate {
            u: x.col_matrix(0).scale(-1.0),
            v: e0,
        };
        assert!(ch.apply(&upd).is_err());
        assert!(ch.beta().approx_eq(&before, 1e-15));
    }

    #[test]
    fn multi_response_ols() {
        // p > 1 responses maintained simultaneously.
        let n = 10;
        let x = well_conditioned_x(n, 13);
        let y = Matrix::random_uniform(n, 4, 14);
        let mut reeval = ReevalOls::new(x.clone(), y.clone()).unwrap();
        let mut incr = IncrOls::new(x, y).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.001, 15);
        for _ in 0..6 {
            let upd = stream.next_rank_one();
            reeval.apply(&upd).unwrap();
            incr.apply(&upd).unwrap();
        }
        assert_eq!(incr.beta().shape(), (10, 4));
        assert!(incr.beta().approx_eq(reeval.beta(), 1e-6));
    }
}
