//! Matrix powers `Aᵏ` (§5.2): program generation for the three iterative
//! models, plus the REEVAL and INCR maintainers that Fig. 3a–3c compare.

use linview_compiler::Program;
use linview_expr::{Catalog, Expr};
use linview_matrix::Matrix;
use linview_runtime::{BatchUpdate, ExecBackend, IncrementalView, LocalBackend, RankOneUpdate};

use crate::{IterModel, Result};

/// Name of the view holding `Aⁱ`.
pub fn power_view(i: usize) -> String {
    format!("P{i}")
}

/// Builds the straight-line program computing `Aᵏ` under `model`
/// (the "Matrix Powers" column of Table 1). Returns the program and the
/// name of the final view.
pub fn powers_program(model: IterModel, k: usize) -> (Program, String) {
    let mut prog = Program::new();
    let iters = model.iterations(k);
    for &i in &iters {
        let stmt = power_statement(model, i);
        prog.assign(power_view(i), stmt);
    }
    (prog, power_view(k))
}

/// The defining expression of `Pᵢ` under `model` (Table 1).
fn power_statement(model: IterModel, i: usize) -> Expr {
    if i == 1 {
        return Expr::var("A");
    }
    match model {
        IterModel::Linear => Expr::var("A") * Expr::var(power_view(i - 1)),
        IterModel::Exponential => Expr::var(power_view(i / 2)) * Expr::var(power_view(i / 2)),
        IterModel::Skip(s) => {
            if i <= s {
                Expr::var(power_view(i / 2)) * Expr::var(power_view(i / 2))
            } else {
                Expr::var(power_view(s)) * Expr::var(power_view(i - s))
            }
        }
    }
}

/// Directly computes `Aᵏ` with the working set the given model needs —
/// the re-evaluation strategy's memory profile (Table 2: space `n²`,
/// independent of `k`).
pub fn compute_power(a: &Matrix, model: IterModel, k: usize) -> Result<Matrix> {
    let mut p = Matrix::zeros(a.rows(), a.cols());
    power_into(a, model, k, &mut p, &mut Matrix::zeros(a.rows(), a.cols()))?;
    Ok(p)
}

/// [`compute_power`] into `p`, multiplying back and forth between `p` and
/// `spare` (both `A`-shaped; contents overwritten): no matrix is allocated
/// per product, so a maintainer that keeps the pair re-evaluates without
/// touching the allocator.
fn power_into(
    a: &Matrix,
    model: IterModel,
    k: usize,
    p: &mut Matrix,
    spare: &mut Matrix,
) -> Result<()> {
    model.validate(k).expect("invalid model parameters");
    // `p := lhs · p` (`p · p` without an `lhs`), through `spare`.
    let mut step = |lhs: Option<&Matrix>, p: &mut Matrix| -> Result<()> {
        lhs.unwrap_or(&*p).matmul_into(&*p, spare, 0)?;
        std::mem::swap(p, spare);
        Ok(())
    };
    match model {
        IterModel::Linear => {
            p.as_mut_slice().copy_from_slice(a.as_slice());
            for _ in 2..=k {
                step(Some(a), p)?;
            }
        }
        IterModel::Exponential => {
            p.as_mut_slice().copy_from_slice(a.as_slice());
            let mut i = 1;
            while i < k {
                step(None, p)?;
                i *= 2;
            }
        }
        IterModel::Skip(s) => {
            let ps = compute_power(a, IterModel::Exponential, s)?;
            p.as_mut_slice().copy_from_slice(ps.as_slice());
            let mut i = s;
            while i < k {
                step(Some(&ps), p)?;
                i += s;
            }
        }
    }
    Ok(())
}

/// Re-evaluation maintainer for `Aᵏ`: applies the update to `A`, then
/// recomputes from scratch under the chosen model.
#[derive(Debug, Clone)]
pub struct ReevalPowers {
    model: IterModel,
    k: usize,
    a: Matrix,
    result: Matrix,
    /// The second buffer re-evaluation multiplies through. Kept between
    /// updates so that a re-evaluation costs its products, not page faults
    /// on freshly mapped result matrices — a fifth of its time at
    /// `n = 512`, or nothing, depending on what the rest of the process
    /// had just freed.
    spare: Matrix,
}

impl ReevalPowers {
    /// Builds the view (one full evaluation).
    pub fn new(a: Matrix, model: IterModel, k: usize) -> Result<Self> {
        let mut v = ReevalPowers {
            model,
            k,
            result: Matrix::zeros(a.rows(), a.cols()),
            spare: Matrix::zeros(a.rows(), a.cols()),
            a,
        };
        v.reevaluate()?;
        Ok(v)
    }

    fn reevaluate(&mut self) -> Result<()> {
        power_into(
            &self.a,
            self.model,
            self.k,
            &mut self.result,
            &mut self.spare,
        )
    }

    /// Applies a rank-1 update and re-evaluates.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        upd.apply_to(&mut self.a)?;
        self.reevaluate()
    }

    /// Applies a batched update and re-evaluates.
    pub fn apply_batch(&mut self, upd: &BatchUpdate) -> Result<()> {
        let delta = upd.to_dense()?;
        self.a.add_assign_from(&delta)?;
        self.reevaluate()
    }

    /// The maintained `Aᵏ`.
    pub fn result(&self) -> &Matrix {
        &self.result
    }

    /// Persistent state: `A` and the result only (Table 2's `n²` space).
    /// The buffer the products go through is working memory, as the
    /// per-product results it replaces were, and is not state.
    pub fn memory_bytes(&self) -> usize {
        self.a.memory_bytes() + self.result.memory_bytes()
    }
}

/// Incremental maintainer for `Aᵏ`: Algorithm 1 applied to the generated
/// program, executed by the runtime on any [`ExecBackend`] (defaulting to
/// in-process dense views).
#[derive(Debug, Clone)]
pub struct IncrPowers<B: ExecBackend = LocalBackend> {
    view: IncrementalView<B>,
    final_view: String,
}

impl IncrPowers {
    /// Compiles the model's program and materializes every iteration's view.
    pub fn new(a: Matrix, model: IterModel, k: usize) -> Result<Self> {
        Self::new_with_options(a, model, k, &linview_compiler::CompileOptions::default())
    }

    /// As [`IncrPowers::new`] with explicit compiler options (used by the
    /// common-factor-extraction ablation of Table 2).
    pub fn new_with_options(
        a: Matrix,
        model: IterModel,
        k: usize,
        opts: &linview_compiler::CompileOptions,
    ) -> Result<Self> {
        Self::new_on_with_options(LocalBackend, a, model, k, opts)
    }
}

impl<B: ExecBackend> IncrPowers<B> {
    /// As [`IncrPowers::new`] on an explicit execution backend (e.g. a
    /// [`ThreadedBackend`](linview_runtime::ThreadedBackend) cluster).
    pub fn new_on(backend: B, a: Matrix, model: IterModel, k: usize) -> Result<Self> {
        Self::new_on_with_options(
            backend,
            a,
            model,
            k,
            &linview_compiler::CompileOptions::default(),
        )
    }

    /// As [`IncrPowers::new_on`] with explicit compiler options.
    pub fn new_on_with_options(
        backend: B,
        a: Matrix,
        model: IterModel,
        k: usize,
        opts: &linview_compiler::CompileOptions,
    ) -> Result<Self> {
        let n = a.rows();
        let (program, final_view) = powers_program(model, k);
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let view =
            IncrementalView::build_on_with_options(backend, &program, &[("A", a)], &cat, opts)?;
        Ok(IncrPowers { view, final_view })
    }

    /// Fires the compiled trigger for a rank-1 update.
    pub fn apply(&mut self, upd: &RankOneUpdate) -> Result<()> {
        self.view.apply("A", upd)
    }

    /// Fires the compiled trigger for a batched rank-k update.
    pub fn apply_batch(&mut self, upd: &BatchUpdate) -> Result<()> {
        self.view.apply_batch("A", upd)
    }

    /// The maintained `Aᵏ`.
    pub fn result(&self) -> &Matrix {
        self.view.get(&self.final_view).expect("final view exists")
    }

    /// Reads any intermediate power view `Aⁱ`.
    pub fn power(&self, i: usize) -> Result<&Matrix> {
        self.view.get(&power_view(i))
    }

    /// Persistent state: `A` plus *every* materialized iteration — the
    /// memory overhead Table 3 quantifies.
    pub fn memory_bytes(&self) -> usize {
        self.view.memory_bytes()
    }

    /// Access to the compiled trigger program (codegen, plan inspection).
    pub fn trigger_program(&self) -> &linview_compiler::TriggerProgram {
        self.view.trigger_program()
    }

    /// Turns on the wait-free snapshot read path over every maintained
    /// power view (see [`linview_runtime::snapshot`]): readers get
    /// epoch-stamped, round-consistent copies without ever blocking
    /// trigger firings. Returns a cloneable reader handle.
    pub fn enable_serving(&mut self, publish_every: u64) -> linview_runtime::ViewHandle {
        self.view.enable_serving(publish_every)
    }

    /// A reader handle onto the published snapshots, when serving is on.
    pub fn serving_handle(&self) -> Option<linview_runtime::ViewHandle> {
        self.view.serving_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;
    use linview_runtime::UpdateStream;

    fn brute_power(a: &Matrix, k: usize) -> Matrix {
        let mut p = a.clone();
        for _ in 1..k {
            p = p.try_matmul(a).unwrap();
        }
        p
    }

    #[test]
    fn programs_match_table_1_structure() {
        let (lin, fin) = powers_program(IterModel::Linear, 4);
        assert_eq!(fin, "P4");
        assert_eq!(lin.statements()[3].to_string(), "P4 := A P3;");
        let (exp, _) = powers_program(IterModel::Exponential, 8);
        assert_eq!(exp.statements()[2].to_string(), "P4 := P2 P2;");
        let (skip, _) = powers_program(IterModel::Skip(4), 16);
        // 1, 2, 4 exponential, then 8, 12, 16 strided.
        assert_eq!(skip.statements()[3].to_string(), "P8 := P4 P4;");
        assert_eq!(skip.statements()[4].to_string(), "P12 := P4 P8;");
    }

    #[test]
    fn compute_power_agrees_across_models() {
        let a = Matrix::random_spectral(10, 3, 0.9);
        let expected = brute_power(&a, 16);
        for model in IterModel::paper_lineup() {
            let p = compute_power(&a, model, 16).unwrap();
            assert!(
                p.approx_eq(&expected, 1e-9),
                "model {model} disagrees with brute force"
            );
        }
    }

    #[test]
    fn reeval_through_kept_buffers_is_the_plain_product_chain() {
        // 56³ is past the packed kernel's work gate, so the products are
        // written in place; 10 stays on the allocate-and-copy path.
        for n in [10, 56] {
            let mut a = Matrix::random_spectral(n, 4, 0.9);
            // Exponential A⁸ as the allocating chain it replaces.
            let chain = |a: &Matrix| {
                let p2 = a.try_matmul(a).unwrap();
                let p4 = p2.try_matmul(&p2).unwrap();
                p4.try_matmul(&p4).unwrap()
            };
            assert_eq!(
                compute_power(&a, IterModel::Exponential, 8).unwrap(),
                chain(&a)
            );
            for model in [
                IterModel::Linear,
                IterModel::Exponential,
                IterModel::Skip(2),
            ] {
                let mut reeval = ReevalPowers::new(a.clone(), model, 8).unwrap();
                let mut stream = UpdateStream::new(n, n, 0.01, 29);
                for _ in 0..3 {
                    let upd = stream.next_rank_one();
                    reeval.apply(&upd).unwrap();
                    upd.apply_to(&mut a).unwrap();
                    // Odd and even product counts end in either buffer.
                    assert_eq!(reeval.result(), &compute_power(&a, model, 8).unwrap());
                }
            }
        }
    }

    #[test]
    fn incremental_matches_reeval_for_every_model() {
        let n = 12;
        let k = 8;
        let a = Matrix::random_spectral(n, 5, 0.8);
        for model in [
            IterModel::Linear,
            IterModel::Exponential,
            IterModel::Skip(2),
            IterModel::Skip(4),
        ] {
            let mut reeval = ReevalPowers::new(a.clone(), model, k).unwrap();
            let mut incr = IncrPowers::new(a.clone(), model, k).unwrap();
            let mut stream = UpdateStream::new(n, n, 0.01, 17);
            for _ in 0..8 {
                let upd = stream.next_rank_one();
                reeval.apply(&upd).unwrap();
                incr.apply(&upd).unwrap();
            }
            assert!(
                incr.result().approx_eq(reeval.result(), 1e-7),
                "model {model} diverged"
            );
        }
    }

    #[test]
    fn batch_updates_agree() {
        let n = 16;
        let a = Matrix::random_spectral(n, 6, 0.8);
        let mut reeval = ReevalPowers::new(a.clone(), IterModel::Exponential, 8).unwrap();
        let mut incr = IncrPowers::new(a, IterModel::Exponential, 8).unwrap();
        let mut stream = UpdateStream::new(n, n, 0.01, 23);
        let batch = stream.next_batch_zipf(6, 1.0).unwrap();
        reeval.apply_batch(&batch).unwrap();
        incr.apply_batch(&batch).unwrap();
        assert!(incr.result().approx_eq(reeval.result(), 1e-8));
    }

    #[test]
    fn incremental_materializes_more_memory() {
        let n = 16;
        let a = Matrix::random_spectral(n, 7, 0.8);
        let reeval = ReevalPowers::new(a.clone(), IterModel::Exponential, 16).unwrap();
        let incr = IncrPowers::new(a, IterModel::Exponential, 16).unwrap();
        // INCR holds A, P2, P4, P8, P16 (+P1); REEVAL holds A and P16.
        assert!(incr.memory_bytes() > 2 * reeval.memory_bytes());
    }

    #[test]
    fn intermediate_views_are_correct_powers() {
        let n = 10;
        let a = Matrix::random_spectral(n, 8, 0.9);
        let mut incr = IncrPowers::new(a.clone(), IterModel::Exponential, 8).unwrap();
        let upd = RankOneUpdate::row_update(n, n, 3, 0.01, 5);
        incr.apply(&upd).unwrap();
        let mut a_new = a;
        upd.apply_to(&mut a_new).unwrap();
        assert!(incr
            .power(4)
            .unwrap()
            .approx_eq(&brute_power(&a_new, 4), 1e-8));
    }
}
