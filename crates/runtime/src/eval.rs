//! Expression evaluation over borrowed operands.
//!
//! There is one evaluator, and it runs in two steps. **Lowering** resolves
//! an [`Expr`] against the shapes it will meet — every variable becomes a
//! slot or environment index, every sub-expression gets its dimensions,
//! every product chain is flattened and given its association by the DP of
//! `linview_expr::chain` — and checks conformance while doing so.
//! **Execution** then walks the lowered tree against borrowed matrices:
//!
//! * a variable yields `&Matrix`, never a copy;
//! * a transpose is a flag on the operand, never a matrix: `Pᵀ V` runs
//!   [`Matrix::try_matmul_tn`], which streams `P` once, and `Pᵀ Qᵀ` is
//!   evaluated as `(Q P)ᵀ` with the flag carried outward;
//! * sums accumulate into their left operand, and a stacked block
//!   `[U | P U + U (Vᵀ U)]` is allocated once and filled part by part — a
//!   product that ends a part is written straight into its columns.
//!
//! Chain ordering is load-bearing for the whole system — the factored
//! delta `U Vᵀ B` is only `O(kn²)` if evaluated as `U (Vᵀ B)`; the
//! left-to-right order re-introduces the `O(nᵞ)` avalanche the paper's
//! §4.2 eliminates. [`Evaluator::with_chain_opt`] disables the reordering
//! to reproduce that pathology in the ablation tables.
//!
//! [`Evaluator::eval`] lowers and executes in one call (REEVAL, ablations,
//! tests). A trigger firing lowers its whole body first — see
//! [`crate::plan`] — then executes it. Either way the arithmetic is that of the
//! textbook tree walk: same products, same association, same elementwise
//! order, so results are bit-identical to it under the exact kernels.

use std::borrow::Cow;

use linview_expr::chain::{self, ChainTree};
use linview_expr::cost::CostModel;
use linview_expr::{Dim, Expr};
use linview_matrix::{flops, Matrix, MatrixError};

use crate::{Env, Result, RuntimeError};

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
        let mut scope = Scope::default();
        let node = self.lower(expr, &mut scope, env)?;
        let ext = resolve(&scope.ext_names, env)?;
        let frame = Frame {
            ext: &ext,
            slots: &[],
        };
        Ok(exec(&node, &frame)?.into_matrix())
    }

    /// Lowers `expr` against the block shapes `scope` knows and the
    /// matrices bound in `env`.
    pub(crate) fn lower(&self, expr: &Expr, scope: &mut Scope, env: &Env) -> Result<Node> {
        let binary = |op: &'static str, a: &Expr, b: &Expr, scope: &mut Scope| {
            let (a, b) = (self.lower(a, scope, env)?, self.lower(b, scope, env)?);
            if a.dim != b.dim {
                return Err(mismatch(op, a.dim, b.dim));
            }
            Ok((a.dim, Box::new(a), Box::new(b)))
        };
        Ok(match expr {
            Expr::Var(name) => scope.lookup(name, env)?,
            Expr::Add(a, b) => {
                let (dim, a, b) = binary("add", a, b, scope)?;
                Node::new(dim, Kind::Add(a, b))
            }
            Expr::Sub(a, b) => {
                let (dim, a, b) = binary("sub", a, b, scope)?;
                Node::new(dim, Kind::Sub(a, b))
            }
            Expr::Scale(s, e) => {
                let e = self.lower(e, scope, env)?;
                Node::new(e.dim, Kind::Scale(s.0, Box::new(e)))
            }
            Expr::Transpose(e) => {
                let e = self.lower(e, scope, env)?;
                Node::new(e.dim.transposed(), Kind::Transpose(Box::new(e)))
            }
            Expr::Inverse(e) => {
                let e = self.lower(e, scope, env)?;
                Node::new(e.dim, Kind::Inverse(Box::new(e)))
            }
            Expr::Identity(n) => Node::new(Dim::new(*n, *n), Kind::Identity),
            Expr::Zero(r, c) => Node::new(Dim::new(*r, *c), Kind::Zero),
            Expr::HStack(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.lower(p, scope, env))
                    .collect::<Result<Vec<_>>>()?;
                let rows = parts.first().ok_or(MatrixError::Empty)?.dim.rows;
                let mut cols = 0;
                for p in &parts {
                    if p.dim.rows != rows {
                        return Err(mismatch("hstack", Dim::new(rows, cols), p.dim));
                    }
                    cols += p.dim.cols;
                }
                Node::new(Dim::new(rows, cols), Kind::HStack(parts))
            }
            Expr::Mul(_, _) => {
                let leaves = chain::flatten_product(expr)
                    .into_iter()
                    .map(|f| self.lower(f, scope, env))
                    .collect::<Result<Vec<_>>>()?;
                for pair in leaves.windows(2) {
                    if pair[0].dim.cols != pair[1].dim.rows {
                        return Err(mismatch("matmul", pair[0].dim, pair[1].dim));
                    }
                }
                let tree = if self.chain_opt {
                    let dims: Vec<Dim> = leaves.iter().map(|l| l.dim).collect();
                    chain::optimal_order(&dims, &self.model).tree
                } else {
                    (1..leaves.len()).fold(ChainTree::Leaf(0), |acc, i| {
                        ChainTree::Node(Box::new(acc), Box::new(ChainTree::Leaf(i)))
                    })
                };
                let dim = Dim::new(leaves[0].dim.rows, leaves[leaves.len() - 1].dim.cols);
                Node::new(dim, Kind::Product(leaves, tree))
            }
        })
    }
}

/// Evaluates with the default evaluator (convenience).
pub fn eval(expr: &Expr, env: &Env) -> Result<Matrix> {
    Evaluator::new().eval(expr, env)
}

fn mismatch(op: &'static str, lhs: Dim, rhs: Dim) -> RuntimeError {
    RuntimeError::Matrix(MatrixError::DimMismatch {
        op,
        lhs: lhs.as_pair(),
        rhs: rhs.as_pair(),
    })
}

/// A lowered expression: its shape and how to compute it.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) dim: Dim,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    /// The `i`-th environment matrix the scope interned.
    Env(usize),
    /// The `i`-th block temporary of the firing.
    Slot(usize),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    Scale(f64, Box<Node>),
    Transpose(Box<Node>),
    Inverse(Box<Node>),
    Identity,
    Zero,
    HStack(Vec<Node>),
    /// A flattened product chain and its association over the leaves.
    Product(Vec<Node>, ChainTree),
}

impl Node {
    fn new(dim: Dim, kind: Kind) -> Node {
        Node { dim, kind }
    }

    /// The slot this node reads, when it is a bare block reference.
    pub(crate) fn as_slot(&self) -> Option<usize> {
        match self.kind {
            Kind::Slot(i) => Some(i),
            _ => None,
        }
    }
}

/// Name resolution for lowering: block temporaries defined so far, then
/// the environment. Environment names are interned in first-use order;
/// [`resolve`] turns them into references.
#[derive(Debug, Default)]
pub(crate) struct Scope {
    /// Interned environment names, indexed by [`Kind::Env`].
    pub(crate) ext_names: Vec<String>,
    /// Shapes of the interned names at lowering time.
    ext_dims: Vec<Dim>,
    /// Block temporaries defined so far: name and shape.
    pub(crate) slots: Vec<(String, Dim)>,
    /// Every slot reference lowered so far, in order, with multiplicity.
    pub(crate) slot_reads: Vec<usize>,
}

impl Scope {
    /// Defines (or redefines) the block temporary `name` and returns its
    /// index.
    pub(crate) fn slot(&mut self, name: &str, dim: Dim) -> usize {
        match self.slots.iter().position(|(n, _)| n == name) {
            Some(at) => {
                self.slots[at].1 = dim;
                at
            }
            None => {
                self.slots.push((name.to_string(), dim));
                self.slots.len() - 1
            }
        }
    }

    /// The node for a reference to `name`.
    pub(crate) fn lookup(&mut self, name: &str, env: &Env) -> Result<Node> {
        Ok(
            if let Some(i) = self.slots.iter().position(|(n, _)| n == name) {
                self.slot_reads.push(i);
                Node::new(self.slots[i].1, Kind::Slot(i))
            } else if let Some(i) = self.ext_names.iter().position(|n| n == name) {
                Node::new(self.ext_dims[i], Kind::Env(i))
            } else {
                let (rows, cols) = env.get(name)?.shape();
                self.ext_names.push(name.to_string());
                self.ext_dims.push(Dim::new(rows, cols));
                Node::new(Dim::new(rows, cols), Kind::Env(self.ext_names.len() - 1))
            },
        )
    }
}

/// Looks `names` up in `env`, in order.
pub(crate) fn resolve<'a>(names: &[String], env: &'a Env) -> Result<Vec<&'a Matrix>> {
    names.iter().map(|n| env.get(n)).collect()
}

/// What a lowered tree executes against: the resolved environment
/// matrices and the firing's block temporaries.
pub(crate) struct Frame<'a> {
    pub(crate) ext: &'a [&'a Matrix],
    pub(crate) slots: &'a [Option<Cow<'a, Matrix>>],
}

/// An evaluated operand: a matrix (borrowed where possible) standing for
/// itself or, with `t` set, for its transpose.
pub(crate) struct Val<'a> {
    m: Cow<'a, Matrix>,
    t: bool,
}

impl<'a> Val<'a> {
    fn owned(m: Matrix) -> Val<'a> {
        Val {
            m: Cow::Owned(m),
            t: false,
        }
    }

    /// The value as a matrix of its own (copies a borrow, forms a flagged
    /// transpose).
    pub(crate) fn into_matrix(self) -> Matrix {
        if self.t {
            self.m.transpose()
        } else {
            self.m.into_owned()
        }
    }

    /// The value as a plain (unflagged) matrix, borrowed when it already
    /// is one.
    pub(crate) fn plain(self) -> Cow<'a, Matrix> {
        if self.t {
            Cow::Owned(self.m.transpose())
        } else {
            self.m
        }
    }
}

/// Executes a lowered tree.
pub(crate) fn exec<'a>(node: &Node, frame: &Frame<'a>) -> Result<Val<'a>> {
    Ok(match &node.kind {
        Kind::Env(i) => Val {
            m: Cow::Borrowed(frame.ext[*i]),
            t: false,
        },
        Kind::Slot(i) => {
            let slots: &'a [Option<Cow<'a, Matrix>>] = frame.slots;
            let block = slots[*i]
                .as_ref()
                .expect("the schedule defines a block before any statement reads it");
            Val {
                m: Cow::Borrowed(&**block),
                t: false,
            }
        }
        Kind::Add(a, b) => {
            let mut x = exec(a, frame)?.into_matrix();
            x.add_assign_from(&exec(b, frame)?.plain())?;
            Val::owned(x)
        }
        Kind::Sub(a, b) => {
            let mut x = exec(a, frame)?.into_matrix();
            x.sub_assign_from(&exec(b, frame)?.plain())?;
            Val::owned(x)
        }
        Kind::Scale(s, e) => {
            let v = exec(e, frame)?;
            let m = match v.m {
                Cow::Owned(mut m) => {
                    m.scale_inplace(*s);
                    m
                }
                Cow::Borrowed(m) => m.scale(*s),
            };
            Val {
                m: Cow::Owned(m),
                t: v.t,
            }
        }
        Kind::Transpose(e) => {
            let v = exec(e, frame)?;
            Val { m: v.m, t: !v.t }
        }
        Kind::Inverse(e) => Val::owned(exec(e, frame)?.plain().inverse()?),
        Kind::Identity => Val::owned(Matrix::identity(node.dim.rows)),
        Kind::Zero => Val::owned(Matrix::zeros(node.dim.rows, node.dim.cols)),
        Kind::HStack(_) => {
            let mut out = Matrix::zeros(node.dim.rows, node.dim.cols);
            exec_into(node, frame, &mut out, 0)?;
            Val::owned(out)
        }
        Kind::Product(leaves, tree) => {
            let mut vals = leaf_values(leaves, frame)?;
            product(tree, &mut vals)?
        }
    })
}

/// Executes `node` into columns `c0..c0 + node.dim.cols` of `out`.
fn exec_into(node: &Node, frame: &Frame<'_>, out: &mut Matrix, c0: usize) -> Result<()> {
    match &node.kind {
        Kind::HStack(parts) => {
            let mut at = c0;
            for p in parts {
                exec_into(p, frame, out, at)?;
                at += p.dim.cols;
            }
        }
        Kind::Add(a, b) => {
            exec_into(a, frame, out, c0)?;
            accumulate_block(out, c0, &exec(b, frame)?.plain(), |o, y| *o += y);
        }
        Kind::Sub(a, b) => {
            exec_into(a, frame, out, c0)?;
            accumulate_block(out, c0, &exec(b, frame)?.plain(), |o, y| *o -= y);
        }
        Kind::Product(leaves, ChainTree::Node(l, r)) => {
            let mut vals = leaf_values(leaves, frame)?;
            let (l, r) = (product(l, &mut vals)?, product(r, &mut vals)?);
            match (l.t, r.t) {
                (false, false) => l.m.matmul_into(&r.m, out, c0)?,
                (true, false) => l.m.matmul_tn_into(&r.m, out, c0)?,
                _ => out.set_submatrix(0, c0, &multiply(l, r)?.into_matrix())?,
            }
        }
        _ => out.set_submatrix(0, c0, &exec(node, frame)?.plain())?,
    }
    Ok(())
}

/// `out[.., c0..c0 + y.cols()] (op)= y`, one FLOP per entry like the
/// whole-matrix `add_assign_from`/`sub_assign_from`.
fn accumulate_block(out: &mut Matrix, c0: usize, y: &Matrix, op: impl Fn(&mut f64, f64)) {
    flops::add(y.len() as u64);
    for r in 0..y.rows() {
        for (o, &v) in out.row_mut(r)[c0..c0 + y.cols()].iter_mut().zip(y.row(r)) {
            op(o, v);
        }
    }
}

/// Evaluates every chain leaf, in order.
fn leaf_values<'a>(leaves: &[Node], frame: &Frame<'a>) -> Result<Vec<Option<Val<'a>>>> {
    leaves.iter().map(|l| exec(l, frame).map(Some)).collect()
}

/// Multiplies the chain out in the lowered association; every leaf value
/// is consumed by the one tree position that names it.
fn product<'a>(tree: &ChainTree, vals: &mut [Option<Val<'a>>]) -> Result<Val<'a>> {
    match tree {
        ChainTree::Leaf(i) => Ok(vals[*i].take().expect("a chain tree names each leaf once")),
        ChainTree::Node(l, r) => {
            let (l, r) = (product(l, vals)?, product(r, vals)?);
            multiply(l, r)
        }
    }
}

/// One product step on flagged operands. `Lᵀ R` never forms `Lᵀ`, and
/// `Lᵀ Rᵀ` is `(R L)ᵀ` with the flag carried outward; only `L Rᵀ` — which
/// no delta rule emits — forms a transpose.
fn multiply<'a>(l: Val<'a>, r: Val<'a>) -> Result<Val<'a>> {
    Ok(match (l.t, r.t) {
        (false, false) => Val::owned(l.m.try_matmul(&r.m)?),
        (true, false) => Val::owned(l.m.try_matmul_tn(&r.m)?),
        (false, true) => Val::owned(l.m.try_matmul(&r.m.transpose())?),
        (true, true) => Val {
            m: Cow::Owned(r.m.try_matmul(&l.m)?),
            t: true,
        },
    })
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
    fn nonconforming_operands_are_typed_errors() {
        let env = env();
        for (e, op) in [
            (Expr::var("A") + Expr::var("u"), "add"),
            (Expr::var("u") * Expr::var("A"), "matmul"),
            (
                Expr::HStack(vec![Expr::var("u"), Expr::var("u").t()]),
                "hstack",
            ),
        ] {
            match eval(&e, &env) {
                Err(RuntimeError::Matrix(MatrixError::DimMismatch { op: got, .. })) => {
                    assert_eq!(got, op)
                }
                other => panic!("{op}: {other:?}"),
            }
        }
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
    fn transposes_are_flags_in_every_operand_position() {
        // Aᵀu, uᵀA, Aᵀ Aᵀ, u uᵀ and a stacked block of transposed parts,
        // each against the same expression over materialized transposes.
        let mut env = env();
        let at = env.get("A").unwrap().transpose();
        let ut = env.get("u").unwrap().transpose();
        env.bind("At", at);
        env.bind("ut", ut);
        let (a, u) = (|| Expr::var("A"), || Expr::var("u"));
        let (at, ut) = (|| Expr::var("At"), || Expr::var("ut"));
        for (flagged, formed) in [
            (a().t() * u(), at() * u()),
            (u().t() * a(), ut() * a()),
            (a().t() * a().t(), at() * at()),
            (u() * u().t(), u() * ut()),
            ((a() * u()).t(), ut() * at()),
            (
                Expr::HStack(vec![
                    a().t() * u(),
                    (u().t() * a()).t(),
                    a().t() * u() + u(),
                ]),
                Expr::HStack(vec![at() * u(), (ut() * a()).t(), at() * u() + u()]),
            ),
        ] {
            assert_eq!(
                eval(&flagged, &env).unwrap(),
                eval(&formed, &env).unwrap(),
                "{flagged}"
            );
        }
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
