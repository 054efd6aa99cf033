//! `powers_point`: the paper's headline experiment (Fig. 3a/b). `A¹⁶`
//! under the exponential model on `LocalBackend`, one compiled-trigger
//! firing per uniform rank-1 row update. All time is delta-block evaluation
//! plus rank-k folds with the delta rank doubling 1→16 down the chain;
//! coalescing, wire, WAL and publish do nothing here, so a gain claimed in
//! those layers must show no change on this workload.

use crate::gen::{self, EventStream};
use crate::surface::{
    self, compute_power, powers_program, Catalog, CompileProbe, IncrPowers, IterModel,
    LocalBackend, RankOneUpdate, ReevalPowers, Timed,
};

use super::{rel_frobenius, Ctx, Measured, Report, Workload};

const MODEL: IterModel = IterModel::Exponential;
const POWER: usize = 16;
/// Relative Frobenius tolerance of the maintained `A¹⁶` against
/// `compute_power` on the final `A` (observed ≈ 1e-13 after 1100 updates).
const TOLERANCE: f64 = 1e-9;

pub struct PowersPoint {
    view: IncrPowers<Timed<LocalBackend>>,
}

fn initial_a(ctx: &Ctx) -> surface::Matrix {
    let n = ctx.sizes().n;
    surface::matrix(n, n, gen::contraction(ctx.seed, 1, n, 0.9))
}

impl Workload for PowersPoint {
    const NAME: &'static str = "powers_point";
    const INPUTS: usize = 1;
    const GEMM_THREADS: usize = 2;
    const EVENTS_PER_FIRING: usize = 1;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        let view = IncrPowers::new_on(Timed::new(LocalBackend), initial_a(ctx), MODEL, POWER)
            .map_err(|e| e.to_string())?;
        Ok(PowersPoint { view })
    }

    fn stream(ctx: &Ctx) -> EventStream {
        let n = ctx.sizes().n;
        EventStream::new(ctx.seed, n, &[n], 0.0, 0.01)
    }

    fn compile_probe(ctx: &Ctx) -> Result<CompileProbe, String> {
        let n = ctx.sizes().n;
        let (program, _) = powers_program(MODEL, POWER);
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        surface::compile_probe(&program, &["A"], &cat, "A")
    }

    fn submit(&mut self, _input: usize, upd: RankOneUpdate) -> Result<(), String> {
        self.view.apply(&upd).map_err(|e| e.to_string())
    }

    fn reeval(ctx: &Ctx) -> Result<super::ReevalFn, String> {
        let mut reeval =
            ReevalPowers::new(initial_a(ctx), MODEL, POWER).map_err(|e| e.to_string())?;
        Ok(Box::new(move |_, upd| {
            reeval.apply(upd).map_err(|e| e.to_string())
        }))
    }

    fn finish(self, ctx: &Ctx, run: &mut Measured<'_>, report: &mut Report) -> Result<(), String> {
        let a = self.view.power(1).map_err(|e| e.to_string())?;
        let expected = compute_power(a, MODEL, POWER).map_err(|e| e.to_string())?;
        let err = rel_frobenius(self.view.result(), &expected);
        report.check(
            format!("A^16 within {TOLERANCE:e} of compute_power on the final A (got {err:e})"),
            err <= TOLERANCE,
        );
        if ctx.trace {
            super::local_fold_metrics(run, report);
        }
        Ok(())
    }
}
