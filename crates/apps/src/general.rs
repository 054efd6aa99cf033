//! The general iterative form `Tᵢ₊₁ = A·Tᵢ + B` (§5.3, Appendices A & B):
//! gradient descent, PageRank, linear solvers, and power iteration all share
//! this shape.
//!
//! Three maintenance strategies are implemented, exactly the ones Table 2
//! analyzes and Figs. 3g/3h measure:
//!
//! * **REEVAL** — update `A`/`B`, recompute with the model's minimal working
//!   set (`O(pn²k)` for LIN, `O((nᵞ+pn²)·log k)` for EXP, …).
//! * **INCR** — propagate *factored* deltas `ΔTᵢ = Uᵢ Vᵢᵀ` through the
//!   iterations, together with factored deltas of the auxiliary power and
//!   sum views `Pᵢ`, `Sᵢ` (the recurrences of Appendix B, implemented here
//!   numerically with block stacking).
//! * **HYBRID** — maintain `Pᵢ`/`Sᵢ` in factored form but represent `ΔTᵢ` as
//!   a single dense `n×p` matrix: when `p` is small (the `p = 1` PageRank
//!   regime), the factored form's bookkeeping costs more than the dense
//!   delta, and hybrid wins (Fig. 3g).
//!
//! The incremental path here is deliberately *hand-derived* (it mirrors the
//! appendix algebra) rather than routed through the compiler; integration
//! tests cross-validate it against both full re-evaluation and the compiled
//! triggers of the powers/sums apps.

use linview_matrix::Matrix;
use linview_runtime::RankOneUpdate;
use std::collections::BTreeMap;

use crate::{IterModel, Result};

/// Maintenance strategy for the general form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Full recomputation per update.
    Reeval,
    /// Factored delta propagation (Appendix B).
    Incremental,
    /// Factored `P`/`S` deltas, dense `ΔT` (§5.3 "Hybrid evaluation").
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

/// A numeric factored delta `Δ = u · vᵀ` (`u : rows_u×r`, `v : rows_v×r`).
/// Rank 0 (zero delta) is represented by zero-width factors, which lets the
/// block algebra below treat "no change" uniformly.
#[derive(Debug, Clone)]
struct Fd {
    u: Matrix,
    v: Matrix,
}

impl Fd {
    fn new(u: Matrix, v: Matrix) -> Self {
        debug_assert_eq!(u.cols(), v.cols());
        Fd { u, v }
    }

    fn zero(rows_u: usize, rows_v: usize) -> Self {
        Fd {
            u: Matrix::zeros(rows_u, 0),
            v: Matrix::zeros(rows_v, 0),
        }
    }

    fn rank(&self) -> usize {
        self.u.cols()
    }

    /// Materializes the dense delta.
    fn to_dense(&self) -> Result<Matrix> {
        if self.rank() == 0 {
            return Ok(Matrix::zeros(self.u.rows(), self.v.rows()));
        }
        Ok(self.u.try_matmul(&self.v.transpose())?)
    }

    /// Applies `target += u vᵀ`.
    fn apply_to(&self, target: &mut Matrix) -> Result<()> {
        if self.rank() == 0 {
            return Ok(());
        }
        target.add_assign_from(&self.to_dense()?)?;
        Ok(())
    }
}

/// The maintained computation `T_k` with auxiliary views per model.
#[derive(Debug, Clone)]
pub struct GeneralForm {
    model: IterModel,
    strategy: Strategy,
    k: usize,
    a: Matrix,
    b: Matrix,
    t0: Matrix,
    /// Materialized iterations (INCR/HYBRID: all scheduled; REEVAL: only k).
    t: BTreeMap<usize, Matrix>,
    /// Auxiliary matrix powers `Pᵢ` (EXP/SKIP models).
    p: BTreeMap<usize, Matrix>,
    /// Auxiliary power sums `Sᵢ` (EXP/SKIP models).
    s: BTreeMap<usize, Matrix>,
}

impl GeneralForm {
    /// Builds the view: evaluates all scheduled iterations (and the
    /// auxiliary `P`/`S` views the model needs) once.
    pub fn new(
        a: Matrix,
        b: Matrix,
        t0: Matrix,
        model: IterModel,
        k: usize,
        strategy: Strategy,
    ) -> Result<Self> {
        model.validate(k).expect("invalid model parameters");
        let mut gf = GeneralForm {
            model,
            strategy,
            k,
            a,
            b,
            t0,
            t: BTreeMap::new(),
            p: BTreeMap::new(),
            s: BTreeMap::new(),
        };
        gf.evaluate_all()?;
        if strategy == Strategy::Reeval {
            gf.drop_intermediates();
        }
        Ok(gf)
    }

    /// The indices of `P`/`S` views this model materializes.
    fn aux_indices(&self) -> Vec<usize> {
        match self.model {
            IterModel::Linear => vec![],
            IterModel::Exponential => {
                let mut v = vec![];
                let mut i = 1;
                while i <= self.k / 2 {
                    v.push(i);
                    i *= 2;
                }
                v
            }
            IterModel::Skip(s) => {
                let mut v = vec![];
                let mut i = 1;
                while i <= s {
                    v.push(i);
                    i *= 2;
                }
                v
            }
        }
    }

    /// Full evaluation of every scheduled `Tᵢ` (and `Pᵢ`, `Sᵢ`).
    fn evaluate_all(&mut self) -> Result<()> {
        let n = self.a.rows();
        // Auxiliary views by repeated squaring.
        self.p.clear();
        self.s.clear();
        let aux = self.aux_indices();
        if !aux.is_empty() {
            self.p.insert(1, self.a.clone());
            self.s.insert(1, Matrix::identity(n));
            let mut prev = 1;
            for &i in &aux[1..] {
                let ph = &self.p[&prev];
                let sh = &self.s[&prev];
                let s_new = ph.try_matmul(sh)?.try_add(sh)?;
                let p_new = ph.try_matmul(ph)?;
                self.p.insert(i, p_new);
                self.s.insert(i, s_new);
                prev = i;
            }
        }
        // Scheduled iterations.
        self.t.clear();
        let t1 = self.a.try_matmul(&self.t0)?.try_add(&self.b)?;
        self.t.insert(1, t1);
        for &i in self.model.iterations(self.k).iter().skip(1) {
            let next = match self.model {
                IterModel::Linear => self.a.try_matmul(&self.t[&(i - 1)])?.try_add(&self.b)?,
                IterModel::Exponential => {
                    let h = i / 2;
                    self.p[&h]
                        .try_matmul(&self.t[&h])?
                        .try_add(&self.s[&h].try_matmul(&self.b)?)?
                }
                IterModel::Skip(s) => {
                    if i <= s {
                        let h = i / 2;
                        self.p[&h]
                            .try_matmul(&self.t[&h])?
                            .try_add(&self.s[&h].try_matmul(&self.b)?)?
                    } else {
                        self.p[&s]
                            .try_matmul(&self.t[&(i - s)])?
                            .try_add(&self.s[&s].try_matmul(&self.b)?)?
                    }
                }
            };
            self.t.insert(i, next);
        }
        Ok(())
    }

    /// REEVAL keeps only the final iteration (Table 2's space column).
    fn drop_intermediates(&mut self) {
        let final_t = self.t.remove(&self.k);
        self.t.clear();
        if let Some(t) = final_t {
            self.t.insert(self.k, t);
        }
        self.p.clear();
        self.s.clear();
    }

    /// The maintained `T_k`.
    pub fn result(&self) -> &Matrix {
        &self.t[&self.k]
    }

    /// Reads a scheduled intermediate `Tᵢ` (INCR/HYBRID only).
    pub fn iteration(&self, i: usize) -> Option<&Matrix> {
        self.t.get(&i)
    }

    /// Current `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Current `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// Bytes held by all persistent state — the Table 2/3 space comparison.
    pub fn memory_bytes(&self) -> usize {
        self.a.memory_bytes()
            + self.b.memory_bytes()
            + self.t0.memory_bytes()
            + self.t.values().map(Matrix::memory_bytes).sum::<usize>()
            + self.p.values().map(Matrix::memory_bytes).sum::<usize>()
            + self.s.values().map(Matrix::memory_bytes).sum::<usize>()
    }

    /// Applies a rank-1 update to `A`.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        self.apply_factored(&upd.u, &upd.v, None)
    }

    /// Applies a batched rank-k update to `A` (Table 4's workload shape).
    pub fn apply_batch(&mut self, upd: &linview_runtime::BatchUpdate) -> Result<()> {
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
        match self.strategy {
            Strategy::Reeval => {
                let da = Fd::new(dau.clone(), dav.clone());
                da.apply_to(&mut self.a)?;
                if let Some((bu, bv)) = db {
                    Fd::new(bu.clone(), bv.clone()).apply_to(&mut self.b)?;
                }
                self.evaluate_all()?;
                self.drop_intermediates();
                Ok(())
            }
            Strategy::Incremental => self.apply_incremental(dau, dav, db, false),
            Strategy::Hybrid => self.apply_incremental(dau, dav, db, true),
        }
    }

    /// Shared INCR/HYBRID path; `dense_t` selects the hybrid representation
    /// for `ΔT`.
    fn apply_incremental(
        &mut self,
        dau: &Matrix,
        dav: &Matrix,
        db: Option<(&Matrix, &Matrix)>,
        dense_t: bool,
    ) -> Result<()> {
        let n = self.a.rows();
        let p_dim = self.b.cols();
        let da = Fd::new(dau.clone(), dav.clone());
        let dbf = match db {
            Some((bu, bv)) => Fd::new(bu.clone(), bv.clone()),
            None => Fd::zero(n, p_dim),
        };

        // Phase 1: factored deltas of the auxiliary views (Appendix A).
        let (dq, dz) = self.aux_deltas(&da)?;

        // Phase 2: deltas of the scheduled iterations (Appendix B).
        enum TDelta {
            Factored(Fd),
            Dense(Matrix),
        }
        let mut dt: BTreeMap<usize, TDelta> = BTreeMap::new();
        for &i in &self.model.iterations(self.k) {
            let delta = if i == 1 {
                // T₁ = A·T₀ + B: ΔT₁ = ΔA·T₀ + ΔB.
                if dense_t {
                    let mut d = da.u.try_matmul(&da.v.transpose().try_matmul(&self.t0)?)?;
                    d.add_assign_from(&dbf.to_dense()?)?;
                    TDelta::Dense(d)
                } else {
                    let u = Matrix::hstack(&[&da.u, &dbf.u])?;
                    let v = Matrix::hstack(&[&self.t0.try_matmul_tn(&da.v)?, &dbf.v])?;
                    TDelta::Factored(Fd::new(u, v))
                }
            } else {
                // Pick the recurrence operands for this model and index:
                // T_i = P·T_prev + S·B with (P, S, prev) below; for LIN,
                // P = A with ΔP = ΔA and S·B collapses into +B (ΔS = 0).
                let (p_mat, dp, s_pair, prev): (&Matrix, &Fd, Option<(&Matrix, &Fd)>, usize) =
                    match self.model {
                        IterModel::Linear => (&self.a, &da, None, i - 1),
                        IterModel::Exponential => {
                            let h = i / 2;
                            (&self.p[&h], &dq[&h], Some((&self.s[&h], &dz[&h])), h)
                        }
                        IterModel::Skip(s) => {
                            if i <= s {
                                let h = i / 2;
                                (&self.p[&h], &dq[&h], Some((&self.s[&h], &dz[&h])), h)
                            } else {
                                (&self.p[&s], &dq[&s], Some((&self.s[&s], &dz[&s])), i - s)
                            }
                        }
                    };
                let t_prev = &self.t[&prev];
                match (&dt[&prev], dense_t) {
                    (TDelta::Factored(dt_prev), false) => {
                        // U = [ΔP.u | P·U + ΔP.u·(ΔP.vᵀ·U) | sum-terms…]
                        let mid = p_mat.try_matmul(&dt_prev.u)?.try_add(
                            &dp.u.try_matmul(&dp.v.transpose().try_matmul(&dt_prev.u)?)?,
                        )?;
                        let mut us = vec![dp.u.clone(), mid];
                        let mut vs = vec![t_prev.try_matmul_tn(&dp.v)?, dt_prev.v.clone()];
                        if let Some((s_mat, ds)) = s_pair {
                            // ΔS·B term.
                            us.push(ds.u.clone());
                            vs.push(self.b.try_matmul_tn(&ds.v)?);
                            // (S + ΔS)·ΔB term.
                            if dbf.rank() > 0 {
                                let sbu = s_mat.try_matmul(&dbf.u)?.try_add(
                                    &ds.u.try_matmul(&ds.v.transpose().try_matmul(&dbf.u)?)?,
                                )?;
                                us.push(sbu);
                                vs.push(dbf.v.clone());
                            }
                        } else if dbf.rank() > 0 {
                            // Linear model: + ΔB directly.
                            us.push(dbf.u.clone());
                            vs.push(dbf.v.clone());
                        }
                        let urefs: Vec<&Matrix> = us.iter().collect();
                        let vrefs: Vec<&Matrix> = vs.iter().collect();
                        TDelta::Factored(Fd::new(Matrix::hstack(&urefs)?, Matrix::hstack(&vrefs)?))
                    }
                    (TDelta::Dense(dt_prev), true) => {
                        // Dense: ΔT = ΔP·T_prev + P·ΔT + ΔP·ΔT + Δ(S·B).
                        let mut d = dp.u.try_matmul(&dp.v.transpose().try_matmul(t_prev)?)?;
                        d.add_assign_from(&p_mat.try_matmul(dt_prev)?)?;
                        d.add_assign_from(
                            &dp.u.try_matmul(&dp.v.transpose().try_matmul(dt_prev)?)?,
                        )?;
                        if let Some((s_mat, ds)) = s_pair {
                            if ds.rank() > 0 {
                                d.add_assign_from(
                                    &ds.u.try_matmul(&ds.v.transpose().try_matmul(&self.b)?)?,
                                )?;
                            }
                            if dbf.rank() > 0 {
                                let db_dense = dbf.to_dense()?;
                                d.add_assign_from(&s_mat.try_matmul(&db_dense)?)?;
                                if ds.rank() > 0 {
                                    d.add_assign_from(
                                        &ds.u
                                            .try_matmul(&ds.v.transpose().try_matmul(&db_dense)?)?,
                                    )?;
                                }
                            }
                        } else if dbf.rank() > 0 {
                            d.add_assign_from(&dbf.to_dense()?)?;
                        }
                        TDelta::Dense(d)
                    }
                    _ => unreachable!("delta representation is uniform per strategy"),
                }
            };
            dt.insert(i, delta);
        }

        // Phase 3: apply all deltas (old values were used throughout).
        for (i, d) in &dq {
            d.apply_to(self.p.get_mut(i).expect("aux view exists"))?;
        }
        for (i, d) in &dz {
            d.apply_to(self.s.get_mut(i).expect("aux view exists"))?;
        }
        for (i, d) in dt {
            let target = self.t.get_mut(&i).expect("iteration view exists");
            match d {
                TDelta::Factored(fd) => fd.apply_to(target)?,
                TDelta::Dense(m) => target.add_assign_from(&m)?,
            }
        }
        da.apply_to(&mut self.a)?;
        dbf.apply_to(&mut self.b)?;
        Ok(())
    }

    /// Appendix A: factored deltas of `Pᵢ` and `Sᵢ` for all materialized
    /// auxiliary indices, given `ΔA = da`.
    fn aux_deltas(&self, da: &Fd) -> Result<(BTreeMap<usize, Fd>, BTreeMap<usize, Fd>)> {
        let n = self.a.rows();
        let mut dq = BTreeMap::new();
        let mut dz = BTreeMap::new();
        let aux = self.aux_indices();
        if aux.is_empty() {
            return Ok((dq, dz));
        }
        dq.insert(1, da.clone());
        dz.insert(1, Fd::zero(n, n)); // S₁ = I is constant.
        let mut prev = 1;
        for &i in &aux[1..] {
            let ph = &self.p[&prev];
            let sh = &self.s[&prev];
            let q: &Fd = &dq[&prev];
            let z: &Fd = &dz[&prev];
            // ΔP_i: U = [Q | P·Q + Q·(RᵀQ)], V = [PᵀR | R].
            let mid = ph
                .try_matmul(&q.u)?
                .try_add(&q.u.try_matmul(&q.v.transpose().try_matmul(&q.u)?)?)?;
            let qu = Matrix::hstack(&[&q.u, &mid])?;
            let qv = Matrix::hstack(&[&ph.try_matmul_tn(&q.v)?, &q.v])?;
            // ΔS_i for S_i = P·S + S:
            //   U = [Q | P·Z + Q·(RᵀZ) + Z], V = [SᵀR | W].
            let mut s_mid = ph.try_matmul(&z.u)?;
            s_mid.add_assign_from(&q.u.try_matmul(&q.v.transpose().try_matmul(&z.u)?)?)?;
            s_mid.add_assign_from(&z.u)?;
            let zu = Matrix::hstack(&[&q.u, &s_mid])?;
            let zv = Matrix::hstack(&[&sh.try_matmul_tn(&q.v)?, &z.v])?;
            dq.insert(i, Fd::new(qu, qv));
            dz.insert(i, Fd::new(zu, zv));
            prev = i;
        }
        Ok((dq, dz))
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
        let p8 = crate::powers::compute_power(&a_ref, IterModel::Exponential, 8).unwrap();
        assert!(gf.p[&8].approx_eq(&p8, 1e-8));
        let s4 = crate::sums::compute_sum(&a_ref, IterModel::Exponential, 4).unwrap();
        assert!(gf.s[&4].approx_eq(&s4, 1e-8));
    }
}
