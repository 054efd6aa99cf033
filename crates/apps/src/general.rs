//! The general iterative form `Tᵢ₊₁ = A·Tᵢ + B` (§5.3, Appendices A & B):
//! gradient descent, PageRank, linear solvers, and power iteration all share
//! this shape.
//!
//! [`general_program`] writes the form down under an iterative model — the
//! `Pₕ = Aʰ` and `Sₕ = I + A + … + Aʰ⁻¹` views of the powers and sums apps,
//! then the chain `Tᵢ := Pₕ·Tₕ + Sₕ·B` of Table 1 — and Algorithm 1 derives
//! the delta recurrences of Appendices A and B from it. Three maintenance
//! strategies are implemented, exactly the ones Table 2 analyzes and
//! Figs. 3g/3h measure:
//!
//! * **REEVAL** — update `A`/`B`, recompute with the model's minimal working
//!   set (`O(pn²k)` for LIN, `O((nᵞ+pn²)·log k)` for EXP, …). It is evaluated
//!   directly, not through the compiler, and is the reference the other two
//!   are tested against.
//! * **INCR** — one compiled [`IncrementalView`] over the whole program: a
//!   `ΔA` fires `A`'s trigger, and a simultaneous `ΔB` then fires `B`'s
//!   (sequential triggers are exact).
//! * **HYBRID** — a compiled view maintains only `A`, `Pₕ` and `Sₕ`; the
//!   `n×p` chain `Tᵢ` is re-evaluated from them after every update, `O(pn²)`
//!   per step instead of factored `ΔTᵢ` whose rank grows with each step. LIN
//!   has no `P`/`S` views, so HYBRID-LIN is the REEVAL chain: the `p = 1`
//!   PageRank regime where it wins (Fig. 3g).

use linview_compiler::Program;
use linview_expr::{Catalog, Expr};
use linview_matrix::Matrix;
use linview_runtime::{BatchUpdate, IncrementalView, RankOneUpdate, RuntimeError};
use std::collections::BTreeMap;

use crate::powers::power_view;
use crate::sums::{sum_view, sums_program};
use crate::{IterModel, Result};

/// Maintenance strategy for the general form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Full recomputation per update.
    Reeval,
    /// Compiled triggers over the whole program (Appendix B).
    Incremental,
    /// Compiled `P`/`S` views, re-evaluated `T` chain (§5.3 "Hybrid
    /// evaluation").
    Hybrid,
}

impl Strategy {
    /// Display label matching the paper's plots.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Reeval => "REEVAL",
            Strategy::Incremental => "INCR",
            Strategy::Hybrid => "HYBRID",
        }
    }
}

/// Name of the view holding iteration `Tᵢ` (`T0` is the starting input).
fn t_view(i: usize) -> String {
    format!("T{i}")
}

/// The largest `h` whose `Pₕ`/`Sₕ` the model reads (`k/2` for EXP, `s` for
/// SKIP-s); 0 for LIN, which reads `A` itself.
fn aux_top(model: IterModel, k: usize) -> usize {
    match model {
        IterModel::Linear => 0,
        IterModel::Exponential => k / 2,
        IterModel::Skip(s) => s,
    }
}

/// The `P`/`S` statements alone (Appendix A's views): the sums app's
/// exponential program up to `S_top`, plus the `P_top` it leaves out.
fn aux_program(model: IterModel, k: usize, n: usize) -> Program {
    let top = aux_top(model, k);
    if top == 0 {
        return Program::new();
    }
    let (mut prog, _) = sums_program(IterModel::Exponential, top, n);
    if top > 1 {
        let half = Expr::var(power_view(top / 2));
        prog.assign(power_view(top), half.clone() * half);
    }
    prog
}

/// `Tᵢ = P·T_prev + S·B` under `model`: the names of `P` and `S` and the
/// index `prev`. `S` is `None` where the term is `B` itself, as in
/// `T₁ = A·T₀ + B` and LIN's `Tᵢ = A·Tᵢ₋₁ + B`.
fn t_operands(model: IterModel, i: usize) -> (String, Option<String>, usize) {
    let (h, prev) = match model {
        _ if i == 1 => return ("A".into(), None, 0),
        IterModel::Linear => return ("A".into(), None, i - 1),
        IterModel::Skip(s) if i > s => (s, i - s),
        _ => (i / 2, i / 2),
    };
    (power_view(h), Some(sum_view(h)), prev)
}

/// Builds the program computing `T_k` under `model` over the inputs
/// `A : n×n` and `B`, `T0 : n×p` (the "General Form" column of Table 1):
/// the `Pₕ`/`Sₕ` statements EXP and SKIP read, then the `Tᵢ` chain, e.g.
/// `T2 := P1 T1 + S1 B`. Returns the program and the name of the final view.
///
/// Panics if `k` violates the model (see [`IterModel::validate`]).
pub fn general_program(model: IterModel, k: usize, n: usize) -> (Program, String) {
    let mut prog = aux_program(model, k, n);
    for i in model.iterations(k) {
        let (p, s, prev) = t_operands(model, i);
        let sb = match s {
            Some(s) => Expr::var(s) * Expr::var("B"),
            None => Expr::var("B"),
        };
        prog.assign(t_view(i), Expr::var(p) * Expr::var(t_view(prev)) + sb);
    }
    (prog, t_view(k))
}

/// Evaluates the `Tᵢ` statements of [`general_program`] in order, reading
/// `A`, `B`, `T0`, `Pₕ` and `Sₕ` through `get`.
fn chain<'a>(
    model: IterModel,
    k: usize,
    get: impl Fn(&str) -> Result<&'a Matrix>,
) -> Result<BTreeMap<usize, Matrix>> {
    let mut t = BTreeMap::new();
    for i in model.iterations(k) {
        let (p, s, prev) = t_operands(model, i);
        let t_prev = if prev == 0 { get("T0")? } else { &t[&prev] };
        let mut next = get(&p)?.try_matmul(t_prev)?;
        match s {
            Some(s) => next.add_assign_from(&get(&s)?.try_matmul(get("B")?)?)?,
            None => next.add_assign_from(get("B")?)?,
        }
        t.insert(i, next);
    }
    Ok(t)
}

/// REEVAL's full evaluation of `T_k`: `Pₕ`/`Sₕ` by repeated squaring, then
/// the chain.
fn reevaluate(model: IterModel, k: usize, a: &Matrix, b: &Matrix, t0: &Matrix) -> Result<Matrix> {
    let mut aux: BTreeMap<String, Matrix> = BTreeMap::new();
    let mut h = 1;
    while h <= aux_top(model, k) {
        let (p, s) = if h == 1 {
            (a.clone(), Matrix::identity(a.rows()))
        } else {
            let (p, s) = (&aux[&power_view(h / 2)], &aux[&sum_view(h / 2)]);
            (p.try_matmul(p)?, p.try_matmul(s)?.try_add(s)?)
        };
        aux.insert(power_view(h), p);
        aux.insert(sum_view(h), s);
        h *= 2;
    }
    let mut t = chain(model, k, |name| match name {
        "A" => Ok(a),
        "B" => Ok(b),
        "T0" => Ok(t0),
        _ => Ok(&aux[name]),
    })?;
    Ok(t.remove(&k).expect("the chain ends at T_k"))
}

/// `target += u vᵀ`.
fn fold(target: &mut Matrix, u: &Matrix, v: &Matrix) -> Result<()> {
    target.add_assign_from(&u.try_matmul(&v.transpose())?)?;
    Ok(())
}

/// What each strategy keeps between updates.
#[derive(Debug, Clone)]
enum State {
    /// The inputs and `T_k` alone (Table 2's space column).
    Reeval {
        a: Matrix,
        b: Matrix,
        t0: Matrix,
        t: Matrix,
    },
    /// The compiled view over [`aux_program`] (holding `A`), `B`, `T₀` and
    /// every re-evaluated `Tᵢ`.
    Hybrid {
        aux: IncrementalView,
        b: Matrix,
        t0: Matrix,
        t: BTreeMap<usize, Matrix>,
    },
    /// The compiled view over [`general_program`].
    Incremental(IncrementalView),
}

/// The maintained computation `T_k` with auxiliary views per model.
#[derive(Debug, Clone)]
pub struct GeneralForm {
    model: IterModel,
    k: usize,
    state: State,
}

impl GeneralForm {
    /// Builds the view: evaluates all scheduled iterations (and the
    /// auxiliary `P`/`S` views the model needs) once. A `k` the model
    /// rejects is [`RuntimeError::InvalidArgument`].
    pub fn new(
        a: Matrix,
        b: Matrix,
        t0: Matrix,
        model: IterModel,
        k: usize,
        strategy: Strategy,
    ) -> Result<Self> {
        model.validate(k).map_err(RuntimeError::InvalidArgument)?;
        let n = a.rows();
        let state = match strategy {
            Strategy::Reeval => State::Reeval {
                t: reevaluate(model, k, &a, &b, &t0)?,
                a,
                b,
                t0,
            },
            Strategy::Hybrid => {
                let mut cat = Catalog::new();
                cat.declare("A", n, a.cols());
                let aux = IncrementalView::build(&aux_program(model, k, n), &[("A", a)], &cat)?;
                let t = chain(model, k, hybrid_lookup(&aux, &b, &t0))?;
                State::Hybrid { aux, b, t0, t }
            }
            Strategy::Incremental => {
                let inputs = [("A", a), ("B", b), ("T0", t0)];
                let mut cat = Catalog::new();
                for (name, m) in &inputs {
                    cat.declare(*name, m.rows(), m.cols());
                }
                let (program, _) = general_program(model, k, n);
                State::Incremental(IncrementalView::build(&program, &inputs, &cat)?)
            }
        };
        Ok(GeneralForm { model, k, state })
    }

    /// The maintained `T_k`.
    pub fn result(&self) -> &Matrix {
        self.iteration(self.k).expect("T_k is always kept")
    }

    /// Reads a scheduled intermediate `Tᵢ` (INCR/HYBRID only; REEVAL keeps
    /// `T_k` alone).
    pub fn iteration(&self, i: usize) -> Option<&Matrix> {
        match &self.state {
            State::Reeval { t, .. } => (i == self.k).then_some(t),
            State::Hybrid { t, .. } => t.get(&i),
            State::Incremental(view) => (i > 0).then(|| view.get(&t_view(i)).ok()).flatten(),
        }
    }

    /// Current `A`.
    pub fn a(&self) -> &Matrix {
        match &self.state {
            State::Reeval { a, .. } => a,
            State::Hybrid { aux: view, .. } | State::Incremental(view) => {
                view.get("A").expect("A is an input")
            }
        }
    }

    /// Current `B`.
    pub fn b(&self) -> &Matrix {
        match &self.state {
            State::Reeval { b, .. } | State::Hybrid { b, .. } => b,
            State::Incremental(view) => view.get("B").expect("B is an input"),
        }
    }

    /// Bytes held by all persistent state — the Table 2/3 space comparison.
    pub fn memory_bytes(&self) -> usize {
        match &self.state {
            State::Reeval { a, b, t0, t } => {
                a.memory_bytes() + b.memory_bytes() + t0.memory_bytes() + t.memory_bytes()
            }
            State::Hybrid { aux, b, t0, t } => {
                aux.memory_bytes()
                    + b.memory_bytes()
                    + t0.memory_bytes()
                    + t.values().map(Matrix::memory_bytes).sum::<usize>()
            }
            State::Incremental(view) => view.memory_bytes(),
        }
    }

    /// Applies a rank-1 update to `A`.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        self.apply_factored(&upd.u, &upd.v, None)
    }

    /// Applies a batched rank-k update to `A` (Table 4's workload shape).
    pub fn apply_batch(&mut self, upd: &BatchUpdate) -> Result<()> {
        self.apply_factored(&upd.u, &upd.v, None)
    }

    /// Applies a factored rank-k update `ΔA = dau davᵀ` and optionally a
    /// simultaneous `ΔB = dbu dbvᵀ` (needed by gradient descent, where one
    /// observation update perturbs both `A` and `B`).
    pub fn apply_factored(
        &mut self,
        dau: &Matrix,
        dav: &Matrix,
        db: Option<(&Matrix, &Matrix)>,
    ) -> Result<()> {
        let (model, k) = (self.model, self.k);
        match &mut self.state {
            State::Reeval { a, b, t0, t } => {
                fold(a, dau, dav)?;
                if let Some((bu, bv)) = db {
                    fold(b, bu, bv)?;
                }
                *t = reevaluate(model, k, a, b, t0)?;
            }
            State::Hybrid { aux, b, t0, t } => {
                aux.apply_factored("A", dau, dav)?;
                if let Some((bu, bv)) = db {
                    fold(b, bu, bv)?;
                }
                *t = chain(model, k, hybrid_lookup(aux, b, t0))?;
            }
            State::Incremental(view) => {
                view.apply_factored("A", dau, dav)?;
                if let Some((bu, bv)) = db {
                    view.apply_factored("B", bu, bv)?;
                }
            }
        }
        Ok(())
    }
}

/// HYBRID's operands: `B` and `T₀` held beside the view, `A`/`Pₕ`/`Sₕ` in it.
fn hybrid_lookup<'a>(
    aux: &'a IncrementalView,
    b: &'a Matrix,
    t0: &'a Matrix,
) -> impl Fn(&str) -> Result<&'a Matrix> {
    move |name| match name {
        "B" => Ok(b),
        "T0" => Ok(t0),
        _ => aux.get(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;
    use linview_runtime::UpdateStream;

    /// Brute-force k iterations of T ← A·T + B.
    fn brute(a: &Matrix, b: &Matrix, t0: &Matrix, k: usize) -> Matrix {
        let mut t = t0.clone();
        for _ in 0..k {
            t = a.try_matmul(&t).unwrap().try_add(b).unwrap();
        }
        t
    }

    fn setup(n: usize, p: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        (
            Matrix::random_spectral(n, seed, 0.8),
            Matrix::random_uniform(n, p, seed + 1),
            Matrix::random_uniform(n, p, seed + 2),
        )
    }

    #[test]
    fn initial_evaluation_matches_brute_force() {
        let (a, b, t0) = setup(10, 3, 41);
        for model in IterModel::paper_lineup() {
            let gf = GeneralForm::new(
                a.clone(),
                b.clone(),
                t0.clone(),
                model,
                16,
                Strategy::Incremental,
            )
            .unwrap();
            assert!(
                gf.result().approx_eq(&brute(&a, &b, &t0, 16), 1e-9),
                "model {model} initial evaluation wrong"
            );
        }
    }

    #[test]
    fn all_strategies_track_updates_for_all_models() {
        let n = 12;
        let p = 3;
        let k = 8;
        let (a, b, t0) = setup(n, p, 43);
        for model in [
            IterModel::Linear,
            IterModel::Exponential,
            IterModel::Skip(2),
            IterModel::Skip(4),
        ] {
            for strategy in [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid] {
                let mut gf =
                    GeneralForm::new(a.clone(), b.clone(), t0.clone(), model, k, strategy).unwrap();
                let mut a_ref = a.clone();
                let mut stream = UpdateStream::new(n, n, 0.01, 47);
                for _ in 0..6 {
                    let upd = stream.next_rank_one();
                    gf.apply(&upd).unwrap();
                    upd.apply_to(&mut a_ref).unwrap();
                }
                let expected = brute(&a_ref, &b, &t0, k);
                assert!(
                    gf.result().approx_eq(&expected, 1e-7),
                    "{model}/{} diverged",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn simultaneous_a_and_b_updates() {
        // The gradient-descent pattern: ΔA rank-2, ΔB rank-1 per update.
        let n = 10;
        let p = 2;
        let k = 8;
        let (a, b, t0) = setup(n, p, 53);
        for strategy in [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid] {
            let mut gf = GeneralForm::new(
                a.clone(),
                b.clone(),
                t0.clone(),
                IterModel::Exponential,
                k,
                strategy,
            )
            .unwrap();
            let dau = Matrix::random_uniform(n, 2, 60).scale(0.01);
            let dav = Matrix::random_uniform(n, 2, 61);
            let dbu = Matrix::random_uniform(n, 1, 62).scale(0.01);
            let dbv = Matrix::random_uniform(p, 1, 63);
            gf.apply_factored(&dau, &dav, Some((&dbu, &dbv))).unwrap();
            let mut a_new = a.clone();
            a_new
                .add_assign_from(&dau.try_matmul(&dav.transpose()).unwrap())
                .unwrap();
            let mut b_new = b.clone();
            b_new
                .add_assign_from(&dbu.try_matmul(&dbv.transpose()).unwrap())
                .unwrap();
            let expected = brute(&a_new, &b_new, &t0, k);
            assert!(
                gf.result().approx_eq(&expected, 1e-8),
                "{} diverged on simultaneous update",
                strategy.label()
            );
        }
    }

    #[test]
    fn batched_updates_track_reevaluation() {
        let (a, b, t0) = setup(12, 2, 91);
        let mut incr = GeneralForm::new(
            a.clone(),
            b.clone(),
            t0.clone(),
            IterModel::Exponential,
            8,
            Strategy::Incremental,
        )
        .unwrap();
        let mut stream = linview_runtime::UpdateStream::new(12, 12, 0.01, 93);
        let batch = stream.next_batch_zipf(6, 1.5).unwrap();
        incr.apply_batch(&batch).unwrap();
        let mut a_ref = a;
        a_ref.add_assign_from(&batch.to_dense().unwrap()).unwrap();
        assert!(incr.result().approx_eq(&brute(&a_ref, &b, &t0, 8), 1e-8));
    }

    #[test]
    fn p1_column_vector_case() {
        // The PageRank regime: p = 1 where hybrid is designed to win.
        let (a, b, t0) = setup(16, 1, 71);
        let mut hybrid = GeneralForm::new(
            a.clone(),
            b.clone(),
            t0.clone(),
            IterModel::Linear,
            8,
            Strategy::Hybrid,
        )
        .unwrap();
        let mut a_ref = a;
        let mut stream = UpdateStream::new(16, 16, 0.01, 73);
        for _ in 0..10 {
            let upd = stream.next_rank_one();
            hybrid.apply(&upd).unwrap();
            upd.apply_to(&mut a_ref).unwrap();
        }
        assert!(hybrid.result().approx_eq(&brute(&a_ref, &b, &t0, 8), 1e-8));
    }

    #[test]
    fn reeval_stores_less_than_incremental() {
        let (a, b, t0) = setup(16, 4, 79);
        let reeval = GeneralForm::new(
            a.clone(),
            b.clone(),
            t0.clone(),
            IterModel::Exponential,
            16,
            Strategy::Reeval,
        )
        .unwrap();
        let incr =
            GeneralForm::new(a, b, t0, IterModel::Exponential, 16, Strategy::Incremental).unwrap();
        assert!(incr.memory_bytes() > reeval.memory_bytes());
        assert!(incr.iteration(8).is_some());
        assert!(reeval.iteration(8).is_none());
    }

    #[test]
    fn aux_views_match_direct_powers_after_updates() {
        let (a, b, t0) = setup(10, 2, 83);
        let mut gf = GeneralForm::new(
            a.clone(),
            b,
            t0,
            IterModel::Exponential,
            16,
            Strategy::Incremental,
        )
        .unwrap();
        let mut a_ref = a;
        let mut stream = UpdateStream::new(10, 10, 0.01, 89);
        for _ in 0..5 {
            let upd = stream.next_rank_one();
            gf.apply(&upd).unwrap();
            upd.apply_to(&mut a_ref).unwrap();
        }
        // P₈ must equal A⁸ of the updated A; S₄ must equal I+A+A²+A³.
        let State::Incremental(view) = &gf.state else {
            unreachable!("built with Strategy::Incremental")
        };
        let p8 = crate::powers::compute_power(&a_ref, IterModel::Exponential, 8).unwrap();
        assert!(view.get("P8").unwrap().approx_eq(&p8, 1e-8));
        let s4 = crate::sums::compute_sum(&a_ref, IterModel::Exponential, 4).unwrap();
        assert!(view.get("S4").unwrap().approx_eq(&s4, 1e-8));
    }

    #[test]
    fn invalid_model_parameters_are_errors() {
        let (a, b, t0) = setup(8, 2, 97);
        for strategy in [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid] {
            for (model, k) in [
                (IterModel::Linear, 0),
                (IterModel::Exponential, 12),
                (IterModel::Skip(3), 9),
                (IterModel::Skip(4), 10),
            ] {
                let built = GeneralForm::new(a.clone(), b.clone(), t0.clone(), model, k, strategy);
                assert!(built.is_err(), "{model}, k = {k}, {}", strategy.label());
            }
        }
    }
}
