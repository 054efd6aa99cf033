//! Expression evaluation.
//!
//! The evaluator is *chain-order aware*: product trees are flattened and
//! re-associated with the DP of `linview_expr::chain` before execution. This
//! is load-bearing for the whole system — the factored delta `U Vᵀ B` is
//! only `O(kn²)` if evaluated as `U (Vᵀ B)`; the naive left-to-right order
//! would re-introduce the `O(nᵞ)` avalanche the paper's §4.2 eliminates.
//! [`Evaluator::with_chain_opt`] can disable the reordering to reproduce
//! that pathology in the ablation benchmarks.

use linview_expr::chain::{self, ChainTree};
use linview_expr::cost::CostModel;
use linview_expr::{Dim, Expr};
use linview_matrix::Matrix;

use crate::{Env, Result};

/// A configurable expression evaluator.
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Cost model used for chain ordering decisions.
    pub model: CostModel,
    /// When false, products are evaluated left-to-right as written
    /// (ablation: demonstrates the avalanche cost).
    pub chain_opt: bool,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator {
            model: CostModel::cubic(),
            chain_opt: true,
        }
    }
}

impl Evaluator {
    /// Default evaluator (cubic model, chain optimization on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluator with chain optimization toggled.
    pub fn with_chain_opt(chain_opt: bool) -> Self {
        Evaluator {
            chain_opt,
            ..Self::default()
        }
    }

    /// Evaluates `expr` against `env`.
    pub fn eval(&self, expr: &Expr, env: &Env) -> Result<Matrix> {
        match expr {
            Expr::Var(name) => Ok(env.get(name)?.clone()),
            Expr::Add(a, b) => Ok(self.eval(a, env)?.try_add(&self.eval(b, env)?)?),
            Expr::Sub(a, b) => Ok(self.eval(a, env)?.try_sub(&self.eval(b, env)?)?),
            Expr::Scale(s, e) => Ok(self.eval(e, env)?.scale(s.0)),
            Expr::Transpose(e) => Ok(self.eval(e, env)?.transpose()),
            Expr::Inverse(e) => Ok(self.eval(e, env)?.inverse()?),
            Expr::Identity(n) => Ok(Matrix::identity(*n)),
            Expr::Zero(r, c) => Ok(Matrix::zeros(*r, *c)),
            Expr::HStack(parts) => {
                let blocks = parts
                    .iter()
                    .map(|p| self.eval(p, env))
                    .collect::<Result<Vec<_>>>()?;
                let refs: Vec<&Matrix> = blocks.iter().collect();
                Ok(Matrix::hstack(&refs)?)
            }
            Expr::Mul(_, _) => self.eval_product(expr, env),
        }
    }

    /// Evaluates a product chain in the modeled-optimal association.
    fn eval_product(&self, expr: &Expr, env: &Env) -> Result<Matrix> {
        let factors = chain::flatten_product(expr);
        // Evaluate the leaves first (each may itself contain products, which
        // recurse through here).
        let values = factors
            .iter()
            .map(|f| self.eval(f, env))
            .collect::<Result<Vec<_>>>()?;
        if !self.chain_opt {
            let mut acc = values[0].clone();
            for v in &values[1..] {
                acc = acc.try_matmul(v)?;
            }
            return Ok(acc);
        }
        let dims: Vec<Dim> = values
            .iter()
            .map(|m| Dim::new(m.rows(), m.cols()))
            .collect();
        let plan = chain::optimal_order(&dims, &self.model);
        fn run(tree: &ChainTree, values: &[Matrix]) -> Result<Matrix> {
            Ok(match tree {
                ChainTree::Leaf(i) => values[*i].clone(),
                ChainTree::Node(l, r) => run(l, values)?.try_matmul(&run(r, values)?)?,
            })
        }
        run(&plan.tree, &values)
    }
}

/// Evaluates with the default evaluator (convenience).
pub fn eval(expr: &Expr, env: &Env) -> Result<Matrix> {
    Evaluator::new().eval(expr, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;

    fn env() -> Env {
        let mut e = Env::new();
        e.bind("A", Matrix::random_spectral(16, 1, 0.9));
        e.bind("u", Matrix::random_col(16, 2));
        e.bind("v", Matrix::random_col(16, 3));
        e
    }

    #[test]
    fn evaluates_arithmetic() {
        let env = env();
        let a = env.get("A").unwrap().clone();
        let e = Expr::var("A") + Expr::var("A").scale(2.0) - Expr::var("A");
        let r = eval(&e, &env).unwrap();
        assert!(r.approx_eq(&a.scale(2.0), 1e-12));
    }

    #[test]
    fn evaluates_transpose_inverse_identity() {
        let mut env = Env::new();
        env.bind("M", Matrix::random_diag_dominant(8, 5));
        let e = Expr::var("M").inv() * Expr::var("M");
        let r = eval(&e, &env).unwrap();
        assert!(r.approx_eq(&Matrix::identity(8), 1e-8));
        let t = eval(&Expr::var("M").t().t(), &env).unwrap();
        assert_eq!(&t, env.get("M").unwrap());
        assert_eq!(eval(&Expr::identity(3), &env).unwrap(), Matrix::identity(3));
        assert_eq!(eval(&Expr::zero(2, 5), &env).unwrap(), Matrix::zeros(2, 5));
    }

    #[test]
    fn evaluates_hstack() {
        let env = env();
        let e = Expr::HStack(vec![Expr::var("u"), Expr::var("v")]);
        let r = eval(&e, &env).unwrap();
        assert_eq!(r.shape(), (16, 2));
    }

    #[test]
    fn unbound_variable_errors() {
        let env = Env::new();
        assert!(matches!(
            eval(&Expr::var("nope"), &env),
            Err(crate::RuntimeError::Unbound(_))
        ));
    }

    #[test]
    fn chain_order_matches_naive_result() {
        let env = env();
        // u (vᵀ A): optimal and naive orders must agree numerically.
        let e = Expr::var("u") * Expr::var("v").t() * Expr::var("A");
        let opt = Evaluator::with_chain_opt(true).eval(&e, &env).unwrap();
        let naive = Evaluator::with_chain_opt(false).eval(&e, &env).unwrap();
        assert!(opt.approx_eq(&naive, 1e-9));
    }

    #[test]
    fn mixed_nested_products() {
        let env = env();
        // (A u)(vᵀ A) is an outer-product-of-vectors sandwich.
        let e = (Expr::var("A") * Expr::var("u")) * (Expr::var("v").t() * Expr::var("A"));
        let r = eval(&e, &env).unwrap();
        assert_eq!(r.shape(), (16, 16));
    }
}
