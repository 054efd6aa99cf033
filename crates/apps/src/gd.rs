//! Batch gradient descent for linear regression (§7 "General Form", B ≠ 0):
//! `Θᵢ₊₁ = Θᵢ − λ·Xᵀ(X·Θᵢ − Y)`, rewritten to the general iterative form
//! with `A = I − λ·XᵀX` and `B = λ·XᵀY`.
//!
//! A rank-1 update `ΔX = u vᵀ` to the observation matrix induces a *rank-2*
//! factored update to `A` (the `Δ(XᵀX)` of Example 4.3, negated and scaled)
//! and a rank-1 update to `B` — both handed to the [`GeneralForm`]
//! maintainer simultaneously. This is the workload of Fig. 3h.

use linview_matrix::Matrix;
use linview_runtime::RankOneUpdate;

use crate::general::{GeneralForm, Strategy};
use crate::{IterModel, Result};

/// Gradient-descent linear regression maintained under data updates.
#[derive(Debug, Clone)]
pub struct GradientDescentLR {
    x: Matrix,
    y: Matrix,
    lambda: f64,
    gf: GeneralForm,
}

impl GradientDescentLR {
    /// Builds the maintainer: `x : (m×n)` observations, `y : (m×p)` targets,
    /// learning rate `lambda`, `k` descent steps from `theta0 : (n×p)`.
    pub fn new(
        x: Matrix,
        y: Matrix,
        lambda: f64,
        theta0: Matrix,
        model: IterModel,
        k: usize,
        strategy: Strategy,
    ) -> Result<Self> {
        let n = x.cols();
        // A = I − λ·XᵀX.
        let xtx = x.transpose().try_matmul(&x)?;
        let a = Matrix::identity(n).try_sub(&xtx.scale(lambda))?;
        // B = λ·XᵀY.
        let b = x.transpose().try_matmul(&y)?.scale(lambda);
        let gf = GeneralForm::new(a, b, theta0, model, k, strategy)?;
        Ok(GradientDescentLR { x, y, lambda, gf })
    }

    /// Applies `ΔX = u vᵀ`: derives the induced `ΔA` (rank 2) and `ΔB`
    /// (rank 1) from the *old* `X` per Example 4.3, then fires the
    /// general-form maintainer.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        let u = &upd.u;
        let v = &upd.v;
        // Δ(XᵀX) = v·(uᵀX) + (Xᵀu + v·(uᵀu))·vᵀ  =  P Qᵀ with
        //   P = [v | Xᵀu + v·(uᵀu)],  Q = [Xᵀu | v].
        let xtu = self.x.try_matmul_tn(u)?;
        let utu = Matrix::dot(u, u)?;
        let p2 = xtu.try_add(&v.scale(utu))?;
        let p = Matrix::hstack(&[v, &p2])?;
        let q = Matrix::hstack(&[&xtu, v])?;
        // ΔA = −λ·ΔZ.
        let dau = p.scale(-self.lambda);
        let dav = q;
        // ΔB = λ·(ΔXᵀ)·Y = λ·v·(uᵀY)ᵀ = (λ·v)·(Yᵀu)ᵀ.
        let dbu = v.scale(self.lambda);
        let dbv = self.y.try_matmul_tn(u)?;
        self.gf.apply_factored(&dau, &dav, Some((&dbu, &dbv)))?;
        upd.apply_to(&mut self.x)?;
        Ok(())
    }

    /// The current parameter estimate `Θ_k`.
    pub fn theta(&self) -> &Matrix {
        self.gf.result()
    }

    /// The maintained iteration matrix `A = I − λXᵀX`.
    pub fn a(&self) -> &Matrix {
        self.gf.a()
    }

    /// Mean squared residual `‖XΘ − Y‖_F² / m` — convergence diagnostic.
    pub fn mse(&self) -> Result<f64> {
        let pred = self.x.try_matmul(self.theta())?;
        let resid = pred.try_sub(&self.y)?;
        let m = self.x.rows() as f64;
        Ok(resid.frobenius_norm().powi(2) / m)
    }

    /// Bytes held by the maintainer (views included).
    pub fn memory_bytes(&self) -> usize {
        self.x.memory_bytes() + self.y.memory_bytes() + self.gf.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;
    use linview_runtime::UpdateStream;

    fn setup(m: usize, n: usize, p: usize, seed: u64) -> (Matrix, Matrix, Matrix, f64) {
        // Small-scale X keeps ‖I − λXᵀX‖ < 1 so descent converges.
        let x = Matrix::random_uniform(m, n, seed).scale(0.3);
        let y = Matrix::random_uniform(m, p, seed + 1);
        let theta0 = Matrix::zeros(n, p);
        (x, y, theta0, 0.5)
    }

    fn brute_descent(x: &Matrix, y: &Matrix, lambda: f64, theta0: &Matrix, k: usize) -> Matrix {
        let mut th = theta0.clone();
        for _ in 0..k {
            let grad = x
                .transpose()
                .try_matmul(&x.try_matmul(&th).unwrap().try_sub(y).unwrap())
                .unwrap();
            th = th.try_sub(&grad.scale(lambda)).unwrap();
        }
        th
    }

    #[test]
    fn initial_theta_matches_direct_descent() {
        let (x, y, theta0, lambda) = setup(12, 8, 2, 101);
        let gd = GradientDescentLR::new(
            x.clone(),
            y.clone(),
            lambda,
            theta0.clone(),
            IterModel::Linear,
            8,
            Strategy::Incremental,
        )
        .unwrap();
        let expected = brute_descent(&x, &y, lambda, &theta0, 8);
        assert!(gd.theta().approx_eq(&expected, 1e-9));
    }

    #[test]
    fn all_strategies_and_models_track_updates() {
        let (x, y, theta0, lambda) = setup(10, 6, 1, 103);
        for model in [
            IterModel::Linear,
            IterModel::Exponential,
            IterModel::Skip(2),
        ] {
            for strategy in [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid] {
                let mut gd = GradientDescentLR::new(
                    x.clone(),
                    y.clone(),
                    lambda,
                    theta0.clone(),
                    model,
                    8,
                    strategy,
                )
                .unwrap();
                let mut x_ref = x.clone();
                let mut stream = UpdateStream::new(10, 6, 0.01, 107);
                for _ in 0..5 {
                    let upd = stream.next_rank_one();
                    gd.apply(&upd).unwrap();
                    upd.apply_to(&mut x_ref).unwrap();
                }
                let expected = brute_descent(&x_ref, &y, lambda, &theta0, 8);
                assert!(
                    gd.theta().approx_eq(&expected, 1e-7),
                    "{model}/{} diverged",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn descent_reduces_mse() {
        let (x, y, theta0, lambda) = setup(16, 8, 1, 109);
        let short = GradientDescentLR::new(
            x.clone(),
            y.clone(),
            lambda,
            theta0.clone(),
            IterModel::Linear,
            2,
            Strategy::Incremental,
        )
        .unwrap();
        let long = GradientDescentLR::new(
            x,
            y,
            lambda,
            theta0,
            IterModel::Linear,
            32,
            Strategy::Incremental,
        )
        .unwrap();
        assert!(long.mse().unwrap() < short.mse().unwrap());
    }

    #[test]
    fn iteration_matrix_is_maintained() {
        let (x, y, theta0, lambda) = setup(10, 6, 1, 113);
        let mut gd = GradientDescentLR::new(
            x.clone(),
            y,
            lambda,
            theta0,
            IterModel::Linear,
            4,
            Strategy::Incremental,
        )
        .unwrap();
        let upd = RankOneUpdate::row_update(10, 6, 3, 0.05, 5);
        gd.apply(&upd).unwrap();
        let mut x_new = x;
        upd.apply_to(&mut x_new).unwrap();
        let expected_a = Matrix::identity(6)
            .try_sub(&x_new.transpose().try_matmul(&x_new).unwrap().scale(lambda))
            .unwrap();
        assert!(gd.a().approx_eq(&expected_a, 1e-9));
    }
}
