//! `ols_batch`: Table 4's batch regime on §5.1's inverse maintenance.
//! `Z := X'X; W := inv(Z); beta := W X' Y` with X 512×256 behind a
//! `MaintenanceEngine` that coalesces 16 Zipf(1.0) row events per firing
//! (rank ≈ 13). Uses the matrix layer differently from `powers_point`:
//! cache-resident 0.5 MB views, rank at the `RANK_K_MAX_K` boundary,
//! Woodbury instead of plain folds — and `runtime.updates` coalescing plus
//! `matrix.compress` recompression do real work here and none there.

use crate::gen::{self, EventStream};
use crate::surface::{
    self, parse_program, Catalog, CompileProbe, ExecOptions, FlushPolicy, IncrementalView,
    InversePrimitive, LocalBackend, MaintenanceEngine, Matrix, RankOneUpdate, ReevalOls,
    StageDelta, Timed, OLS_PROGRAM,
};

use super::{probe_engine_front, rel_frobenius, Ctx, Measured, Probes, Report, Workload};

const BATCH: usize = 16;
const SKEW: f64 = 1.0;
/// Relative tolerance of the maintained `beta` against `ReevalOls` on the
/// final X (observed ≈ 1e-11 after 25 000 events).
const TOLERANCE: f64 = 1e-7;

pub struct OlsBatch {
    engine: MaintenanceEngine<Timed<LocalBackend>>,
    y: Matrix,
}

fn shapes(ctx: &Ctx) -> (usize, usize) {
    let n = ctx.sizes().n;
    (n, n / 2)
}

fn inputs(ctx: &Ctx) -> (Matrix, Matrix) {
    let (rows, cols) = shapes(ctx);
    (
        surface::matrix(rows, cols, gen::dense(ctx.seed, 1, rows, cols, 1.0)),
        surface::matrix(rows, 1, gen::dense(ctx.seed, 4, rows, 1, 1.0)),
    )
}

fn catalog(ctx: &Ctx) -> Catalog {
    let (rows, cols) = shapes(ctx);
    let mut cat = Catalog::new();
    cat.declare("X", rows, cols);
    cat.declare("Y", rows, 1);
    cat
}

impl Workload for OlsBatch {
    const NAME: &'static str = "ols_batch";
    const INPUTS: usize = 1;
    const GEMM_THREADS: usize = 2;
    const EVENTS_PER_FIRING: usize = BATCH;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        let program = parse_program(OLS_PROGRAM).map_err(|e| e.to_string())?;
        let (x, y) = inputs(ctx);
        let mut view = IncrementalView::build_on(
            Timed::new(LocalBackend),
            &program,
            &[("X", x), ("Y", y.clone())],
            &catalog(ctx),
        )
        .map_err(|e| e.to_string())?;
        // One rank-k Woodbury solve per firing (§4.2's batch form) rather
        // than k sequential Sherman–Morrison steps.
        view.set_exec_options(ExecOptions {
            inverse_primitive: InversePrimitive::Woodbury,
            ..ExecOptions::default()
        });
        Ok(OlsBatch {
            engine: MaintenanceEngine::new(view, FlushPolicy::Count(BATCH)),
            y,
        })
    }

    fn stream(ctx: &Ctx) -> EventStream {
        let (rows, cols) = shapes(ctx);
        EventStream::new(ctx.seed, rows, &[cols], SKEW, 0.01)
    }

    fn compile_probe(ctx: &Ctx) -> Result<CompileProbe, String> {
        let program = parse_program(OLS_PROGRAM).map_err(|e| e.to_string())?;
        surface::compile_probe(&program, &["X", "Y"], &catalog(ctx), "X")
    }

    fn submit(&mut self, _input: usize, upd: RankOneUpdate) -> Result<(), String> {
        self.engine.ingest("X", upd).map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.engine.flush_all().map_err(|e| e.to_string())
    }

    fn probe_firing(
        &mut self,
        _input: usize,
        batch: &[RankOneUpdate],
        deltas: &[StageDelta],
        probes: &mut Probes,
    ) -> Result<(), String> {
        probe_engine_front(batch, probes)?;
        // The Z-delta factors are exactly the (P, Q) the inverse statement
        // consumed; replaying them against W costs what the firing paid.
        if let Some(z) = deltas.iter().find(|d| d.target == "Z") {
            let w = self.engine.get("W").map_err(|e| e.to_string())?;
            probes
                .timed("probe.woodbury", 0.0, || surface::woodbury(w, &z.u, &z.v))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn reeval(ctx: &Ctx) -> Result<super::ReevalFn, String> {
        let (x, y) = inputs(ctx);
        let mut reeval = ReevalOls::new(x, y).map_err(|e| e.to_string())?;
        Ok(Box::new(move |_, upd| {
            reeval.apply(upd).map_err(|e| e.to_string())
        }))
    }

    fn finish(self, ctx: &Ctx, run: &mut Measured<'_>, report: &mut Report) -> Result<(), String> {
        report.check(
            "nothing left buffered after flush_all",
            self.engine.pending_total() == 0,
        );
        let stats = self.engine.stats();
        report.check(
            format!(
                "engine counted {} events / {} firings, harness {} / {}",
                stats.events,
                stats.firings,
                run.submitted,
                surface::firing_counts().firings
            ),
            stats.events == run.submitted,
        );
        let x = self.engine.get("X").map_err(|e| e.to_string())?.clone();
        let expected = ReevalOls::new(x, self.y.clone()).map_err(|e| e.to_string())?;
        let beta = self.engine.get("beta").map_err(|e| e.to_string())?;
        let err = rel_frobenius(beta, expected.beta());
        report.check(
            format!("beta within {TOLERANCE:e} of ReevalOls on the final X (got {err:e})"),
            err <= TOLERANCE,
        );
        if ctx.trace {
            super::local_fold_metrics(run, report);
            report.layer("matrix.compress.rank_shed", stats.sparse.rank_saved as f64);
            let firings = run.probes.count("probe.woodbury").max(1) as f64;
            report.layer(
                "runtime.exec.woodbury_us_per_firing",
                run.probes.sum_ns("probe.woodbury") / 1e3 / firings,
            );
        }
        Ok(())
    }
}
