//! Algebraic simplification of matrix expressions.
//!
//! Delta derivation generates expressions littered with structural noise —
//! products with identity literals (from the sums-of-powers recurrences),
//! zero blocks (from vanished deltas), nested scalar factors, and double
//! transposes. The simplifier normalizes these away bottom-up so that the
//! trigger programs the compiler emits match the clean forms in the paper
//! (e.g. Example 4.6) and so that common subexpression elimination can match
//! syntactically equal subtrees.
//!
//! One rule changes association rather than removing noise: a single-factor
//! multiplier distributes over a stacked block when some part of the block
//! is itself a product, `Yᵀ [X V | u] → [Yᵀ X V | Yᵀ u]`, and each new part
//! is written in the association the chain DP picks (here `(Yᵀ X) V`, a
//! row-vector product, instead of the `n×k` block `X V`). The stacked form
//! fixed the association of `X V` before the multiplier could join its
//! chain; distributing costs nothing (`M [P₁ | P₂]` is `M P₁` and `M P₂`
//! either way) and lets every later pass — runtime, cost analysis,
//! codegen — see the cheaper chain. Blocks of bare parts (`P [U₁ | U₂]`)
//! and chains of several multipliers are left alone: there is no chain to
//! reassociate, or the multiplier would be recomputed per part.

use crate::chain::{self, ChainTree};
use crate::cost::CostModel;
use crate::{Catalog, Expr, Result, Scalar};

/// Maximum fixpoint iterations (defensive bound; 2–3 suffice in practice).
const MAX_PASSES: usize = 8;

/// Simplifies `e` to a fixpoint under the rewrite rules described in the
/// module docs. Dimension information is needed to materialize `Zero`
/// literals of the right shape.
pub fn simplify(e: &Expr, cat: &Catalog) -> Result<Expr> {
    let mut cur = e.clone();
    for _ in 0..MAX_PASSES {
        let next = simplify_once(&cur, cat)?;
        if next == cur {
            return Ok(next);
        }
        cur = next;
    }
    Ok(cur)
}

/// True when the expression is a zero literal.
pub fn is_zero(e: &Expr) -> bool {
    matches!(e, Expr::Zero(_, _))
}

/// Pushes transposes down to the leaves: `(A·B)ᵀ → Bᵀ·Aᵀ`,
/// `(A±B)ᵀ → Aᵀ±Bᵀ`, `(E⁻¹)ᵀ → (Eᵀ)⁻¹`.
///
/// This canonicalization makes syntactically different spellings of the
/// same product comparable, which lets the optimizer's common-subexpression
/// elimination match e.g. `(Xᵀ·u)` hiding inside `(uᵀ·X)ᵀ`. It is opt-in
/// (not part of [`simplify`]) because it changes the printed trigger text.
pub fn push_transposes(e: &Expr, cat: &Catalog) -> Result<Expr> {
    let pushed = push_t(e);
    simplify(&pushed, cat)
}

fn push_t(e: &Expr) -> Expr {
    match e {
        Expr::Transpose(inner) => match &**inner {
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(push_t(&Expr::Transpose(b.clone()))),
                Box::new(push_t(&Expr::Transpose(a.clone()))),
            ),
            Expr::Add(a, b) => Expr::Add(
                Box::new(push_t(&Expr::Transpose(a.clone()))),
                Box::new(push_t(&Expr::Transpose(b.clone()))),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(push_t(&Expr::Transpose(a.clone()))),
                Box::new(push_t(&Expr::Transpose(b.clone()))),
            ),
            Expr::Scale(s, x) => Expr::Scale(*s, Box::new(push_t(&Expr::Transpose(x.clone())))),
            Expr::Transpose(x) => push_t(x),
            Expr::Inverse(x) => Expr::Inverse(Box::new(push_t(&Expr::Transpose(x.clone())))),
            Expr::Identity(n) => Expr::Identity(*n),
            Expr::Zero(r, c) => Expr::Zero(*c, *r),
            Expr::Var(_) | Expr::HStack(_) => Expr::Transpose(Box::new(push_t(inner))),
        },
        Expr::Var(_) | Expr::Identity(_) | Expr::Zero(_, _) => e.clone(),
        Expr::Add(a, b) => Expr::Add(Box::new(push_t(a)), Box::new(push_t(b))),
        Expr::Sub(a, b) => Expr::Sub(Box::new(push_t(a)), Box::new(push_t(b))),
        Expr::Mul(a, b) => Expr::Mul(Box::new(push_t(a)), Box::new(push_t(b))),
        Expr::Scale(s, x) => Expr::Scale(*s, Box::new(push_t(x))),
        Expr::Inverse(x) => Expr::Inverse(Box::new(push_t(x))),
        Expr::HStack(parts) => Expr::HStack(parts.iter().map(push_t).collect()),
    }
}

/// True when the expression is an identity literal.
pub fn is_identity(e: &Expr) -> bool {
    matches!(e, Expr::Identity(_))
}

/// The parts of `multiplier · block` distributed, when they should be:
/// the multiplier is one factor (a variable or its transpose), the block
/// is a stack with at least one product part, and the catalog knows every
/// shape the chain DP needs to associate each new part.
fn distribute(multiplier: &Expr, block: &Expr, cat: &Catalog) -> Option<Vec<Expr>> {
    let single = match multiplier {
        Expr::Var(_) => true,
        Expr::Transpose(x) => matches!(**x, Expr::Var(_)),
        _ => false,
    };
    match block {
        Expr::HStack(parts) if single && parts.iter().any(|p| matches!(p, Expr::Mul(..))) => parts
            .iter()
            .map(|p| {
                associate(
                    &Expr::Mul(Box::new(multiplier.clone()), Box::new(p.clone())),
                    cat,
                )
            })
            .collect(),
        _ => None,
    }
}

/// The product `e` rebuilt in the association the chain DP picks under
/// the cubic model — the one the runtime evaluates it in.
fn associate(e: &Expr, cat: &Catalog) -> Option<Expr> {
    let (factors, plan) = chain::plan_product(e, cat, &CostModel::cubic()).ok()?;
    fn build(tree: &ChainTree, factors: &[&Expr]) -> Expr {
        match tree {
            ChainTree::Leaf(i) => factors[*i].clone(),
            ChainTree::Node(l, r) => {
                Expr::Mul(Box::new(build(l, factors)), Box::new(build(r, factors)))
            }
        }
    }
    Some(build(&plan.tree, &factors))
}

fn simplify_once(e: &Expr, cat: &Catalog) -> Result<Expr> {
    Ok(match e {
        Expr::Var(_) | Expr::Identity(_) | Expr::Zero(_, _) => e.clone(),
        Expr::Add(a, b) => {
            let a = simplify_once(a, cat)?;
            let b = simplify_once(b, cat)?;
            if is_zero(&a) {
                b
            } else if is_zero(&b) {
                a
            } else {
                Expr::Add(Box::new(a), Box::new(b))
            }
        }
        Expr::Sub(a, b) => {
            let a = simplify_once(a, cat)?;
            let b = simplify_once(b, cat)?;
            if is_zero(&b) {
                a
            } else if is_zero(&a) {
                Expr::Scale(Scalar(-1.0), Box::new(b))
            } else if a == b {
                let d = a.dim(cat)?;
                Expr::Zero(d.rows, d.cols)
            } else {
                Expr::Sub(Box::new(a), Box::new(b))
            }
        }
        Expr::Mul(a, b) => {
            let a = simplify_once(a, cat)?;
            let b = simplify_once(b, cat)?;
            if is_zero(&a) || is_zero(&b) {
                let da = a.dim(cat)?;
                let db = b.dim(cat)?;
                Expr::Zero(da.rows, db.cols)
            } else if is_identity(&a) {
                b
            } else if is_identity(&b) {
                a
            } else if let Expr::Scale(s, inner) = a {
                // Pull scalars to the outside so chains stay pure products.
                Expr::Scale(s, Box::new(Expr::Mul(inner, Box::new(b))))
            } else if let Expr::Scale(s, inner) = b {
                Expr::Scale(s, Box::new(Expr::Mul(Box::new(a), inner)))
            } else if let Some(parts) = distribute(&a, &b, cat) {
                Expr::HStack(parts)
            } else {
                Expr::Mul(Box::new(a), Box::new(b))
            }
        }
        Expr::Scale(s, inner) => {
            let inner = simplify_once(inner, cat)?;
            if s.0 == 1.0 {
                inner
            } else if s.0 == 0.0 || is_zero(&inner) {
                let d = inner.dim(cat)?;
                Expr::Zero(d.rows, d.cols)
            } else if let Expr::Scale(s2, inner2) = inner {
                Expr::Scale(Scalar(s.0 * s2.0), inner2)
            } else {
                Expr::Scale(*s, Box::new(inner))
            }
        }
        Expr::Transpose(inner) => {
            let inner = simplify_once(inner, cat)?;
            match inner {
                Expr::Transpose(x) => *x,
                Expr::Identity(n) => Expr::Identity(n),
                Expr::Zero(r, c) => Expr::Zero(c, r),
                Expr::Scale(s, x) => Expr::Scale(s, Box::new(Expr::Transpose(x))),
                other => Expr::Transpose(Box::new(other)),
            }
        }
        Expr::Inverse(inner) => {
            let inner = simplify_once(inner, cat)?;
            match inner {
                Expr::Identity(n) => Expr::Identity(n),
                Expr::Inverse(x) => *x,
                other => Expr::Inverse(Box::new(other)),
            }
        }
        Expr::HStack(parts) => {
            let mut flat = Vec::with_capacity(parts.len());
            for p in parts {
                let p = simplify_once(p, cat)?;
                // Flatten nested stacks so block widths stay visible.
                if let Expr::HStack(inner) = p {
                    flat.extend(inner);
                } else {
                    flat.push(p);
                }
            }
            if flat.len() == 1 {
                flat.into_iter().next().expect("len checked")
            } else {
                Expr::HStack(flat)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.declare("A", 4, 4);
        c.declare("B", 4, 4);
        c.declare("u", 4, 1);
        c
    }

    #[test]
    fn identity_is_absorbed() {
        let c = cat();
        let e = Expr::identity(4) * Expr::var("A") * Expr::identity(4);
        assert_eq!(simplify(&e, &c).unwrap(), Expr::var("A"));
    }

    #[test]
    fn zero_annihilates_products() {
        let c = cat();
        let e = Expr::var("A") * Expr::zero(4, 4) + Expr::var("B");
        assert_eq!(simplify(&e, &c).unwrap(), Expr::var("B"));
    }

    #[test]
    fn zero_product_gets_result_shape() {
        let c = cat();
        let e = Expr::zero(4, 4) * Expr::var("u");
        assert_eq!(simplify(&e, &c).unwrap(), Expr::zero(4, 1));
    }

    #[test]
    fn sub_self_is_zero() {
        let c = cat();
        let e = Expr::var("A") - Expr::var("A");
        assert_eq!(simplify(&e, &c).unwrap(), Expr::zero(4, 4));
    }

    #[test]
    fn sub_from_zero_negates() {
        let c = cat();
        let e = Expr::zero(4, 4) - Expr::var("A");
        assert_eq!(simplify(&e, &c).unwrap(), Expr::var("A").scale(-1.0));
    }

    #[test]
    fn scalar_folding() {
        let c = cat();
        let e = Expr::var("A").scale(2.0).scale(3.0);
        assert_eq!(simplify(&e, &c).unwrap(), Expr::var("A").scale(6.0));
        let one = Expr::var("A").scale(1.0);
        assert_eq!(simplify(&one, &c).unwrap(), Expr::var("A"));
        let zero = Expr::var("A").scale(0.0);
        assert_eq!(simplify(&zero, &c).unwrap(), Expr::zero(4, 4));
    }

    #[test]
    fn scalars_pulled_out_of_products() {
        let c = cat();
        let e = Expr::var("A").scale(2.0) * Expr::var("B");
        assert_eq!(
            simplify(&e, &c).unwrap(),
            (Expr::var("A") * Expr::var("B")).scale(2.0)
        );
    }

    #[test]
    fn double_transpose_cancels() {
        let c = cat();
        let e = Expr::var("A").t().t();
        assert_eq!(simplify(&e, &c).unwrap(), Expr::var("A"));
        let z = Expr::zero(2, 3).t();
        assert_eq!(simplify(&z, &c).unwrap(), Expr::zero(3, 2));
    }

    #[test]
    fn inverse_of_identity_and_double_inverse() {
        let c = cat();
        assert_eq!(
            simplify(&Expr::identity(4).inv(), &c).unwrap(),
            Expr::identity(4)
        );
        assert_eq!(
            simplify(&Expr::var("A").inv().inv(), &c).unwrap(),
            Expr::var("A")
        );
    }

    #[test]
    fn nested_hstacks_flatten() {
        let c = cat();
        let e = Expr::HStack(vec![
            Expr::HStack(vec![Expr::var("u"), Expr::var("u")]),
            Expr::var("u"),
        ]);
        let s = simplify(&e, &c).unwrap();
        match s {
            Expr::HStack(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat stack, got {other}"),
        }
    }

    #[test]
    fn push_transposes_reverses_products() {
        let c = cat();
        let e = (Expr::var("A") * Expr::var("B")).t();
        assert_eq!(
            push_transposes(&e, &c).unwrap(),
            Expr::var("B").t() * Expr::var("A").t()
        );
        // Distributes over sums and cancels double transposes.
        let e2 = (Expr::var("A") + Expr::var("B").t()).t();
        assert_eq!(
            push_transposes(&e2, &c).unwrap(),
            Expr::var("A").t() + Expr::var("B")
        );
        // (E⁻¹)ᵀ = (Eᵀ)⁻¹.
        let e3 = Expr::var("A").inv().t();
        assert_eq!(push_transposes(&e3, &c).unwrap(), Expr::var("A").t().inv());
    }

    #[test]
    fn push_transposes_exposes_shared_subexpressions() {
        let c = cat();
        // (uᵀ A)ᵀ and Aᵀ u must canonicalize identically.
        let lhs = (Expr::var("u").t() * Expr::var("A")).t();
        let rhs = Expr::var("A").t() * Expr::var("u");
        assert_eq!(
            push_transposes(&lhs, &c).unwrap(),
            push_transposes(&rhs, &c).unwrap()
        );
    }

    fn stack_cat() -> Catalog {
        let mut c = Catalog::new();
        c.declare("X", 64, 32);
        c.declare("Y", 64, 1);
        c.declare("V", 32, 6);
        c.declare("u", 64, 3);
        c.declare("P", 64, 64);
        c.declare("U1", 64, 2);
        c.declare("U2", 64, 2);
        c
    }

    #[test]
    fn single_multiplier_distributes_over_a_stack_with_a_product_part() {
        let c = stack_cat();
        let (x, y, v, u) = (
            Expr::var("X"),
            Expr::var("Y"),
            Expr::var("V"),
            Expr::var("u"),
        );
        let e = y.clone().t() * Expr::HStack(vec![x.clone() * v.clone(), u.clone()]);
        let s = simplify(&e, &c).unwrap();
        // The row-vector chain Y' X V is written (Y' X) V, as the DP runs it.
        assert_eq!(s, Expr::HStack(vec![(y.clone().t() * x) * v, y.t() * u]));
        assert_eq!(s.to_string(), "[ Y' X V | Y' u ]");
    }

    #[test]
    fn bare_parts_and_multi_factor_multipliers_stay_stacked() {
        let c = stack_cat();
        let stack = || Expr::HStack(vec![Expr::var("U1"), Expr::var("U2")]);
        let bare = Expr::var("P") * stack();
        assert_eq!(simplify(&bare, &c).unwrap(), bare);
        // A multiplier that is itself a chain would be recomputed per part.
        let product_part = Expr::HStack(vec![Expr::var("P") * Expr::var("U1"), Expr::var("U2")]);
        let chained = (Expr::var("P") * Expr::var("P")) * product_part;
        assert_eq!(simplify(&chained, &c).unwrap(), chained);
    }

    #[test]
    fn fixpoint_handles_cascading_rules() {
        let c = cat();
        // ((A')')·I + 0 -> A
        let e = Expr::var("A").t().t() * Expr::identity(4) + Expr::zero(4, 4);
        assert_eq!(simplify(&e, &c).unwrap(), Expr::var("A"));
    }
}
