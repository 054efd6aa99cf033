//! Experiment drivers — one function per table/figure of §7.
//!
//! All workloads follow the paper's protocol: build the view(s), generate a
//! seeded "continuous random stream of rank-1 updates where each update
//! affects one row of an input matrix", and report the **average view
//! refresh time** per strategy. Sizes are laptop-scale; EXPERIMENTS.md
//! records how the measured *shapes* (who wins, by what factor, where the
//! crossovers sit) compare to the paper's cluster-scale numbers.

use linview_apps::gd::GradientDescentLR;
use linview_apps::general::{GeneralForm, Strategy};
use linview_apps::ols::{IncrOls, ReevalOls};
use linview_apps::powers::{IncrPowers, ReevalPowers};
use linview_apps::sums::{IncrSums, ReevalSums};
use linview_apps::IterModel;
use linview_compiler::CompileOptions;
use linview_dist::{dist_matmul, Cluster, DistMatrix};
use linview_expr::DeltaOptions;
use linview_matrix::{flops, GemmKernel, Matrix};
use linview_runtime::{
    Env, Evaluator, ExecBackend, FlushPolicy, IncrementalView, MaintenanceEngine, ThreadedBackend,
    UpdateStream,
};
use std::time::{Duration, Instant};

use crate::report::{fmt_bytes, fmt_duration, fmt_speedup, Table};
use crate::Config;

/// Mean wall time of `iters` invocations of `f`.
fn avg_time(iters: usize, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed() / iters.max(1) as u32
}

/// Mean FLOPs of `iters` invocations of `f`.
fn avg_flops(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = flops::read();
    for _ in 0..iters {
        f();
    }
    (flops::read() - start) as f64 / iters.max(1) as f64
}

/// Fig. 3a — matrix powers `Aᵏ` across the five evaluation models,
/// REEVAL vs INCR average refresh time.
pub fn fig3a(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 3a - Matrix Powers A^k: evaluation models (n = {}, k = {})",
            cfg.n, cfg.k
        ),
        &["model", "REEVAL", "INCR", "speedup"],
    );
    let a = Matrix::random_spectral(cfg.n, 7, 0.9);
    for model in IterModel::paper_lineup() {
        let mut reeval = ReevalPowers::new(a.clone(), model, cfg.k).expect("reeval builds");
        let mut incr = IncrPowers::new(a.clone(), model, cfg.k).expect("incr builds");
        let mut s1 = UpdateStream::new(cfg.n, cfg.n, 0.01, 42);
        let re = avg_time(cfg.updates, || {
            reeval.apply(&s1.next_rank_one()).expect("reeval update")
        });
        let mut s2 = UpdateStream::new(cfg.n, cfg.n, 0.01, 42);
        let inc = avg_time(cfg.updates, || {
            incr.apply(&s2.next_rank_one()).expect("incr update")
        });
        t.row(vec![
            model.label(),
            fmt_duration(re),
            fmt_duration(inc),
            fmt_speedup(re, inc),
        ]);
    }
    t.note("paper: INCR wins in every model; EXP dominates (16-25x on Octave/Spark)");
    t
}

/// Fig. 3b — powers scalability in the dimension `n` (EXP model).
pub fn fig3b(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 3b - Matrix Powers A^k: scalability in n (k = {})",
            cfg.k
        ),
        &["n", "REEVAL-EXP", "INCR-EXP", "speedup"],
    );
    for &n in &[cfg.n / 2, cfg.n * 2 / 3, cfg.n, cfg.n * 4 / 3, cfg.n * 2] {
        let a = Matrix::random_spectral(n, 11, 0.9);
        let mut reeval =
            ReevalPowers::new(a.clone(), IterModel::Exponential, cfg.k).expect("reeval builds");
        let mut incr = IncrPowers::new(a, IterModel::Exponential, cfg.k).expect("incr builds");
        let mut s1 = UpdateStream::new(n, n, 0.01, 43);
        let re = avg_time(cfg.updates, || {
            reeval.apply(&s1.next_rank_one()).expect("reeval update")
        });
        let mut s2 = UpdateStream::new(n, n, 0.01, 43);
        let inc = avg_time(cfg.updates, || {
            incr.apply(&s2.next_rank_one()).expect("incr update")
        });
        t.row(vec![
            n.to_string(),
            fmt_duration(re),
            fmt_duration(inc),
            fmt_speedup(re, inc),
        ]);
    }
    t.note("paper: speedup grows with n (6.2x @ 4K to 31.3x @ 20K on Octave)");
    t
}

/// Fig. 3c — powers scalability in the iteration count `k` (EXP model).
pub fn fig3c(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 3c - Matrix Powers A^k: scalability in k (n = {})",
            cfg.n
        ),
        &["k", "REEVAL-EXP", "INCR-EXP", "speedup"],
    );
    let a = Matrix::random_spectral(cfg.n, 13, 0.9);
    for &k in &[4, 8, 16, 32, 64] {
        let mut reeval =
            ReevalPowers::new(a.clone(), IterModel::Exponential, k).expect("reeval builds");
        let mut incr = IncrPowers::new(a.clone(), IterModel::Exponential, k).expect("incr builds");
        let mut s1 = UpdateStream::new(cfg.n, cfg.n, 0.01, 44);
        let re = avg_time(cfg.updates, || {
            reeval.apply(&s1.next_rank_one()).expect("reeval update")
        });
        let mut s2 = UpdateStream::new(cfg.n, cfg.n, 0.01, 44);
        let inc = avg_time(cfg.updates, || {
            incr.apply(&s2.next_rank_one()).expect("incr update")
        });
        t.row(vec![
            k.to_string(),
            fmt_duration(re),
            fmt_duration(inc),
            fmt_speedup(re, inc),
        ]);
    }
    t.note("paper: gap narrows once delta rank (~k) becomes comparable to n");
    t
}

/// Fig. 3d — sums of matrix powers vs `n` (EXP model).
pub fn fig3d(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 3d - Sums of Powers I + A + ... + A^(k-1) (k = {})",
            cfg.k
        ),
        &["n", "REEVAL-EXP", "INCR-EXP", "speedup"],
    );
    for &n in &[cfg.n / 2, cfg.n, cfg.n * 2] {
        let a = Matrix::random_spectral(n, 17, 0.9);
        let mut reeval =
            ReevalSums::new(a.clone(), IterModel::Exponential, cfg.k).expect("reeval builds");
        let mut incr = IncrSums::new(a, IterModel::Exponential, cfg.k).expect("incr builds");
        let mut s1 = UpdateStream::new(n, n, 0.01, 45);
        let re = avg_time(cfg.updates, || {
            reeval.apply(&s1.next_rank_one()).expect("reeval update")
        });
        let mut s2 = UpdateStream::new(n, n, 0.01, 45);
        let inc = avg_time(cfg.updates, || {
            incr.apply(&s2.next_rank_one()).expect("incr update")
        });
        t.row(vec![
            n.to_string(),
            fmt_duration(re),
            fmt_duration(inc),
            fmt_speedup(re, inc),
        ]);
    }
    t.note("paper: same complexity class as matrix powers; speedup grows with n");
    t
}

/// Fig. 3e — OLS `(XᵀX)⁻¹XᵀY` vs `n`, REEVAL (LU) vs INCR
/// (Sherman–Morrison).
pub fn fig3e(cfg: &Config) -> Table {
    let mut t = Table::new(
        "Fig 3e - Ordinary Least Squares (X'X)^-1 X'Y (p = 1)",
        &["n", "REEVAL", "INCR", "speedup"],
    );
    for &n in &[cfg.n / 2, cfg.n * 2 / 3, cfg.n, cfg.n * 4 / 3] {
        let x = Matrix::random_diag_dominant(n, 19);
        let y = Matrix::random_col(n, 20);
        let mut reeval = ReevalOls::new(x.clone(), y.clone()).expect("reeval builds");
        let mut incr = IncrOls::new(x, y).expect("incr builds");
        let mut s1 = UpdateStream::new(n, n, 0.001, 46);
        let re = avg_time(cfg.updates, || {
            reeval.apply(&s1.next_rank_one()).expect("reeval update")
        });
        let mut s2 = UpdateStream::new(n, n, 0.001, 46);
        let inc = avg_time(cfg.updates, || {
            incr.apply(&s2.next_rank_one()).expect("incr update")
        });
        t.row(vec![
            n.to_string(),
            fmt_duration(re),
            fmt_duration(inc),
            fmt_speedup(re, inc),
        ]);
    }
    t.note("paper: 3.6x @ 4K growing to 11.5x @ 20K — asymptotically different curves");
    t
}

/// Fig. 3f — distributed powers vs worker count: refresh time and
/// communication volume for REEVAL (metered block-SUMMA shuffles) vs INCR
/// (real factor frames to worker threads).
pub fn fig3f(cfg: &Config) -> Table {
    let n = 240; // divisible by every grid side used
    let mut t = Table::new(
        format!("Fig 3f - Distributed A^4 vs cluster size (n = {n})"),
        &["workers", "REEVAL", "REEVAL comm", "INCR", "INCR comm"],
    );
    let a = Matrix::random_spectral(n, 23, 0.9);
    let program =
        linview_compiler::parse::parse_program("B := A * A; C := B * B;").expect("program parses");
    let mut cat = linview_expr::Catalog::new();
    cat.declare("A", n, n);

    for &workers in &[1usize, 4, 9, 16] {
        let grid = (workers as f64).sqrt() as usize;
        // REEVAL: per update, repartition A and run two distributed products.
        let cluster = Cluster::new(workers);
        let mut a_cur = a.clone();
        let mut s1 = UpdateStream::new(n, n, 0.01, 47);
        let re = avg_time(cfg.updates, || {
            let upd = s1.next_rank_one();
            upd.apply_to(&mut a_cur).expect("update applies");
            let da = DistMatrix::from_dense(&a_cur, grid).expect("partitions");
            let d2 = dist_matmul(&da, &da, &cluster).expect("A^2");
            let _d4 = dist_matmul(&d2, &d2, &cluster).expect("A^4");
        });
        let re_comm = cluster.comm().reset();

        // INCR: the same compiled triggers as the local path, executed on
        // the ThreadedBackend — central delta-block evaluation, broadcast
        // factor frames, block-local partition updates on the workers.
        let backend = ThreadedBackend::new(workers).expect("square worker count");
        let mut incr = IncrementalView::build_on(backend, &program, &[("A", a.clone())], &cat)
            .expect("incr builds");
        incr.reset_comm();
        let mut s2 = UpdateStream::new(n, n, 0.01, 47);
        // `apply` returns once its frames are queued, so the timed batch
        // ends with a gather: the workers reply only after folding every
        // delta sent before it.
        let t0 = Instant::now();
        for _ in 0..cfg.updates {
            incr.apply("A", &s2.next_rank_one()).expect("incr update");
        }
        incr.backend().view("C").expect("gather barrier");
        let inc = t0.elapsed() / cfg.updates.max(1) as u32;
        let inc_comm = incr.reset_comm();
        t.row(vec![
            workers.to_string(),
            fmt_duration(re),
            fmt_bytes(re_comm.total_bytes() / cfg.updates as u64),
            fmt_duration(inc),
            fmt_bytes(inc_comm.total_bytes() / cfg.updates as u64),
        ]);
    }
    t.note(
        "paper: INCR is far less sensitive to cluster size (10-26s flat vs shuffles); INCR time is \
         the whole batch up to one final gather of C (worker folds included), per update",
    );
    t
}

/// Fig. 3g — general form with `B = 0` (`Tᵢ₊₁ = A·Tᵢ`), varying `p`:
/// REEVAL vs INCR vs HYBRID under the linear model.
pub fn fig3g(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 3g - T(i+1) = A T(i), LIN model, varying p (n = {}, k = {})",
            cfg.n, cfg.k
        ),
        &["p", "REEVAL-LIN", "INCR-LIN", "HYBRID-LIN"],
    );
    let a = Matrix::random_spectral(cfg.n, 29, 0.9);
    for &p in &[1usize, 8, 64] {
        let b = Matrix::zeros(cfg.n, p);
        let t0m = Matrix::random_uniform(cfg.n, p, 31);
        let mut cells = vec![p.to_string()];
        for strategy in [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid] {
            let mut gf = GeneralForm::new(
                a.clone(),
                b.clone(),
                t0m.clone(),
                IterModel::Linear,
                cfg.k,
                strategy,
            )
            .expect("builds");
            let mut s = UpdateStream::new(cfg.n, cfg.n, 0.01, 48);
            let d = avg_time(cfg.updates, || {
                gf.apply(&s.next_rank_one()).expect("update applies")
            });
            cells.push(fmt_duration(d));
        }
        t.row(cells);
    }
    t.note("paper: HYBRID wins at p = 1; INCR wins once p is large enough to justify factoring");
    t
}

/// Fig. 3h — gradient-descent linear regression `Tᵢ₊₁ = A·Tᵢ + B` across
/// the model lineup, REEVAL vs INCR (log-scale plot in the paper).
pub fn fig3h(cfg: &Config) -> Table {
    let m = cfg.n;
    let nf = cfg.n / 2;
    let p = 32;
    let mut t = Table::new(
        format!(
            "Fig 3h - Gradient descent LR (m = {m}, n = {nf}, p = {p}, k = {})",
            cfg.k
        ),
        &["model", "REEVAL", "INCR", "speedup"],
    );
    let x = Matrix::random_uniform(m, nf, 37).scale(0.3);
    let y = Matrix::random_uniform(m, p, 38);
    let theta0 = Matrix::zeros(nf, p);
    for model in IterModel::paper_lineup() {
        let mut row = vec![model.label()];
        let mut times = Vec::new();
        for strategy in [Strategy::Reeval, Strategy::Incremental] {
            let mut gd = GradientDescentLR::new(
                x.clone(),
                y.clone(),
                0.05,
                theta0.clone(),
                model,
                cfg.k,
                strategy,
            )
            .expect("builds");
            let mut s = UpdateStream::new(m, nf, 0.01, 49);
            let d = avg_time(cfg.updates, || {
                gd.apply(&s.next_rank_one()).expect("update applies")
            });
            times.push(d);
            row.push(fmt_duration(d));
        }
        row.push(fmt_speedup(times[0], times[1]));
        t.row(row);
    }
    t.note("paper: REEVAL best with LIN; INCR best with SKIP-4; overall INCR wins 36.7x");
    t
}

/// Table 2 — empirical verification of the asymptotic complexity table via
/// FLOP counters, plus the common-factor-extraction ablation (§4.3).
pub fn table2(cfg: &Config) -> Table {
    let n = cfg.n / 2;
    let k = cfg.k;
    let mut t = Table::new(
        format!("Table 2 - complexity shapes from FLOP counters (n = {n}, k = {k})"),
        &["quantity", "measured", "predicted"],
    );

    let measure_powers = |model: IterModel, k: usize, incremental: bool, factored: bool| -> f64 {
        let a = Matrix::random_spectral(n, 53, 0.9);
        let mut s = UpdateStream::new(n, n, 0.01, 50);
        if incremental {
            let opts = CompileOptions {
                update_rank: 1,
                delta: DeltaOptions {
                    factor_common: factored,
                },
            };
            let mut v = IncrPowers::new_with_options(a, model, k, &opts).expect("builds");
            avg_flops(cfg.updates, || v.apply(&s.next_rank_one()).expect("update"))
        } else {
            let mut v = ReevalPowers::new(a, model, k).expect("builds");
            avg_flops(cfg.updates, || v.apply(&s.next_rank_one()).expect("update"))
        }
    };

    // INCR-LIN scales ~k²: doubling k quadruples the work.
    let lin_k = measure_powers(IterModel::Linear, k, true, true);
    let lin_2k = measure_powers(IterModel::Linear, 2 * k, true, true);
    t.row(vec![
        "INCR-LIN flops ratio k->2k (n²k²)".into(),
        format!("{:.2}", lin_2k / lin_k),
        "~4".into(),
    ]);

    // INCR-EXP scales ~k: doubling k doubles the work.
    let exp_k = measure_powers(IterModel::Exponential, k, true, true);
    let exp_2k = measure_powers(IterModel::Exponential, 2 * k, true, true);
    t.row(vec![
        "INCR-EXP flops ratio k->2k (n²k)".into(),
        format!("{:.2}", exp_2k / exp_k),
        "~2".into(),
    ]);

    // REEVAL-EXP scales ~log k: k→2k adds one squaring.
    let re_k = measure_powers(IterModel::Exponential, k, false, true);
    let re_2k = measure_powers(IterModel::Exponential, 2 * k, false, true);
    t.row(vec![
        "REEVAL-EXP flops ratio k->2k (n³·log k)".into(),
        format!("{:.2}", re_2k / re_k),
        format!(
            "~{:.2}",
            (2.0 * k as f64).log2().ceil() / (k as f64).log2().ceil()
        ),
    ]);

    // REEVAL vs INCR at fixed (n, k): n³ vs n²k class separation.
    t.row(vec![
        "REEVAL-EXP / INCR-EXP flops at (n, k)".into(),
        format!("{:.1}", re_k / exp_k),
        format!("~n/k = {:.1} (class separation)", n as f64 / k as f64),
    ]);

    // Ablation: disabling §4.3 common-factor extraction blows ranks up
    // (2 per squaring → 3 per squaring ⇒ (3/2)^log2(k) more block width).
    let unfactored = measure_powers(IterModel::Exponential, k, true, false);
    t.row(vec![
        "ablation: unfactored / factored INCR-EXP flops".into(),
        format!("{:.2}", unfactored / exp_k),
        format!(
            "~{:.2} ((3/2)^log2 k rank blow-up, cost-weighted)",
            (1.5f64).powf((k as f64).log2())
        ),
    ]);
    t.note("ratios are the paper's Table 2 exponents observed through kernel FLOP counters");
    t
}

/// Table 3 — memory vs speedup for `A¹⁶`: REEVAL-EXP vs INCR-EXP.
pub fn table3(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!("Table 3 - memory vs speedup for A^{} (EXP model)", cfg.k),
        &[
            "n",
            "REEVAL mem",
            "INCR mem",
            "REEVAL time",
            "INCR time",
            "speedup/mem-cost",
        ],
    );
    for &n in &[cfg.n / 2, cfg.n, cfg.n * 2] {
        let a = Matrix::random_spectral(n, 59, 0.9);
        let mut reeval =
            ReevalPowers::new(a.clone(), IterModel::Exponential, cfg.k).expect("builds");
        let mut incr = IncrPowers::new(a, IterModel::Exponential, cfg.k).expect("builds");
        let mut s1 = UpdateStream::new(n, n, 0.01, 51);
        let re = avg_time(cfg.updates, || {
            reeval.apply(&s1.next_rank_one()).expect("update")
        });
        let mut s2 = UpdateStream::new(n, n, 0.01, 51);
        let inc = avg_time(cfg.updates, || {
            incr.apply(&s2.next_rank_one()).expect("update")
        });
        let speedup = re.as_secs_f64() / inc.as_secs_f64();
        let mem_cost = incr.memory_bytes() as f64 / reeval.memory_bytes() as f64;
        t.row(vec![
            n.to_string(),
            fmt_bytes(reeval.memory_bytes() as u64),
            fmt_bytes(incr.memory_bytes() as u64),
            fmt_duration(re),
            fmt_duration(inc),
            format!("{:.2}", speedup / mem_cost),
        ]);
    }
    t.note("paper: the benefit of investing memory grows with dimensionality (2.99 -> 16.0)");
    t
}

/// Table 4 — batched updates with Zipf-distributed row frequency:
/// INCR-EXP average refresh time per batch, across skew factors.
pub fn table4(cfg: &Config) -> Table {
    let batch = 64;
    let mut t = Table::new(
        format!(
            "Table 4 - batch updates (batch = {batch}, A^{}, n = {})",
            cfg.k, cfg.n
        ),
        &["zipf", "distinct rows", "INCR", "REEVAL"],
    );
    let a = Matrix::random_spectral(cfg.n, 61, 0.9);
    for &z in &[5.0, 4.0, 3.0, 2.0, 1.0, 0.0] {
        let mut incr = IncrPowers::new(a.clone(), IterModel::Exponential, cfg.k).expect("builds");
        let mut reeval =
            ReevalPowers::new(a.clone(), IterModel::Exponential, cfg.k).expect("builds");
        let mut s = UpdateStream::new(cfg.n, cfg.n, 0.01, 52);
        let batches: Vec<_> = (0..cfg.updates)
            .map(|_| s.next_batch_zipf(batch, z).expect("batch generates"))
            .collect();
        let ranks: usize = batches.iter().map(|b| b.rank()).sum::<usize>() / batches.len();
        let mut it = batches.iter();
        let inc = avg_time(batches.len(), || {
            incr.apply_batch(it.next().expect("batch available"))
                .expect("update")
        });
        let mut it2 = batches.iter();
        let re = avg_time(batches.len(), || {
            reeval
                .apply_batch(it2.next().expect("batch available"))
                .expect("update")
        });
        t.row(vec![
            format!("{z:.1}"),
            ranks.to_string(),
            fmt_duration(inc),
            fmt_duration(re),
        ]);
    }
    t.note("paper: INCR loses its advantage as updates become uniform (rank -> batch size)");
    t
}

/// MaintenanceEngine — batched multi-input ingestion on the local and
/// threaded backends side by side: a Zipf-skewed stream of rank-1 events
/// over TWO inputs, coalesced under a count policy and fired through the
/// unified `ExecBackend` path, with ONE joint trigger per final flush
/// round. The threaded backend's comm bytes are exact serialized-frame
/// lengths.
pub fn engine_batching(cfg: &Config) -> Table {
    let n = cfg.n;
    let events = (cfg.updates * 16).max(16);
    let zipf = 2.0;
    let mut t = Table::new(
        format!(
            "MaintenanceEngine - batched multi-input ingestion (n = {n}, {events} events, zipf = {zipf})"
        ),
        &[
            "backend",
            "batch",
            "firings",
            "fired rank",
            "joint saved",
            "refresh/event",
            "static flops/firing",
            "comm bytes",
        ],
    );
    let program =
        linview_compiler::parse::parse_program("C := A * B; D := C * C;").expect("program parses");
    let mut cat = linview_expr::Catalog::new();
    cat.declare("A", n, n);
    cat.declare("B", n, n);
    let a = Matrix::random_spectral(n, 33, 0.8);
    let b = Matrix::random_spectral(n, 34, 0.8);
    let inputs = [("A", a), ("B", b)];

    fn run<B: ExecBackend>(
        t: &mut Table,
        view: IncrementalView<B>,
        batch: usize,
        events: usize,
        zipf: f64,
        n: usize,
    ) {
        view.reset_comm();
        // The analyzer's per-firing FLOP estimate (mean over the program's
        // triggers, priced at the compiled update rank) — printed next to
        // the measured refresh so estimate-vs-actual drift is visible.
        let static_est = {
            let report = linview_compiler::analyze_program(
                view.trigger_program(),
                &linview_compiler::AnalyzeOptions::default(),
            );
            let triggers = report.triggers.len().max(1) as f64;
            report.triggers.iter().map(|t| t.cost.flops).sum::<f64>() / triggers
        };
        let mut engine = MaintenanceEngine::new(
            view,
            if batch <= 1 {
                FlushPolicy::Immediate
            } else {
                FlushPolicy::Count(batch)
            },
        );
        let mut stream = UpdateStream::new(n, n, 0.01, 35);
        for i in 0..events {
            let input = if i % 2 == 0 { "A" } else { "B" };
            engine
                .ingest(input, stream.next_rank_one_zipf(zipf))
                .expect("event ingests");
        }
        engine.flush_all().expect("final flush");
        let stats = engine.stats();
        let per_event = stats.refresh.mean_wall() * stats.firings as u32 / events.max(1) as u32;
        t.row(vec![
            engine.view().backend().name().into(),
            batch.to_string(),
            stats.firings.to_string(),
            stats.fired_rank.to_string(),
            stats.triggers_saved.to_string(),
            fmt_duration(per_event),
            format!("{static_est:.2e}"),
            fmt_bytes(engine.comm().total_bytes()),
        ]);
    }

    for &batch in &[1usize, 4, 16] {
        let view = IncrementalView::build(&program, &inputs, &cat).expect("local builds");
        run(&mut t, view, batch, events, zipf, n);
    }
    for &batch in &[1usize, 4, 16] {
        let backend = ThreadedBackend::new(4).expect("square worker count");
        let view =
            IncrementalView::build_on(backend, &program, &inputs, &cat).expect("threaded builds");
        run(&mut t, view, batch, events, zipf, n);
    }
    t.note("skewed batches compact below their event count; comm bytes are the frames moved");
    t
}

/// Scheduler — DAG-staged trigger execution vs the sequential opt-out on
/// the local and threaded backends: stage structure, overlapped
/// broadcasts, and the wall-clock of one full update stream (`A⁸` powers,
/// the widest shipped trigger). Staged and sequential views are asserted
/// bit-identical, so the table measures pure scheduling effects.
pub fn scheduler(cfg: &Config) -> Table {
    use linview_runtime::ExecOptions;

    // Past the runtime's parallel threshold, so stage evaluation actually
    // fans out; divisible by the 2×2 grid of the 4-worker backends.
    let n = 256;
    let mut t = Table::new(
        format!(
            "Scheduler - DAG-staged vs sequential trigger execution (A^8, n = {n}, {} updates)",
            cfg.updates
        ),
        &[
            "backend",
            "mode",
            "stages/firing",
            "stmts/firing",
            "overlapped bcasts",
            "refresh",
            "static flops/firing",
        ],
    );
    let program = linview_compiler::parse::parse_program("B := A * A; C := B * B; D := C * C;")
        .expect("program parses");
    let mut cat = linview_expr::Catalog::new();
    cat.declare("A", n, n);
    let a = Matrix::random_spectral(n, 71, 0.8);
    let inputs = [("A", a)];

    fn run<B: ExecBackend>(
        t: &mut Table,
        mut view: IncrementalView<B>,
        sequential: bool,
        cfg: &Config,
        n: usize,
    ) -> Matrix {
        view.set_exec_options(ExecOptions {
            sequential,
            ..ExecOptions::default()
        });
        // Static per-firing FLOP estimate of the single A-trigger, for
        // drift comparison against the measured refresh column.
        let static_est = linview_compiler::analyze_program(
            view.trigger_program(),
            &linview_compiler::AnalyzeOptions::default(),
        )
        .triggers
        .iter()
        .map(|t| t.cost.flops)
        .sum::<f64>();
        let mut stream = UpdateStream::new(n, n, 0.01, 72);
        // Untimed warmup so the first-measured mode does not absorb the
        // process-wide cold start (page faults, frequency ramp).
        for _ in 0..2 {
            view.apply("A", &stream.next_rank_one()).expect("warmup");
        }
        view.reset_sched_stats();
        view.backend_mut().reset_sched();
        let time = avg_time(cfg.updates, || {
            view.apply("A", &stream.next_rank_one()).expect("update")
        });
        let sched = view.sched_stats();
        t.row(vec![
            view.backend().name().into(),
            if sequential { "sequential" } else { "staged" }.into(),
            (sched.stages / sched.firings).to_string(),
            (sched.stmts / sched.firings).to_string(),
            view.backend().sched().overlapped.to_string(),
            fmt_duration(time),
            format!("{static_est:.2e}"),
        ]);
        view.get("D").expect("D is maintained").clone()
    }

    for sequential in [false, true] {
        let view = IncrementalView::build(&program, &inputs, &cat).expect("local builds");
        let d_local = run(&mut t, view, sequential, cfg, n);
        let backend = ThreadedBackend::new(4).expect("square worker count");
        let view =
            IncrementalView::build_on(backend, &program, &inputs, &cat).expect("threaded builds");
        let d_threaded = run(&mut t, view, sequential, cfg, n);
        assert_eq!(
            d_local.max_abs_diff(&d_threaded),
            0.0,
            "staged/sequential threaded diverged from local"
        );
    }
    t.note(
        "stages < stmts is the scheduler's parallelism; overlapped bcasts count frames that \
         left before the previous one was awaited — volume is identical in both modes",
    );
    t
}

/// GEMM — the dense kernels in isolation. Square rows time every
/// [`GemmKernel`] at three sizes against `packed`, the default, and assert
/// that each exact kernel's product is bitwise the naive one. `try_matmul`
/// rows set the serial small-product kernel the default routes tiny
/// products to against the packed nest, on both sides of the size gate;
/// then the rank-k fast path and the fused fold against the general nest,
/// and the transposes of a firing's `n×k` factors against a clone.
pub fn gemm(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "GEMM kernels - GFLOP/s by kernel and size (threads = {})",
            linview_matrix::gemm_threads()
        ),
        &["n", "kernel", "time", "GFLOP/s", "vs packed"],
    );
    for &n in &[cfg.n / 2, cfg.n, cfg.n * 2] {
        let a = Matrix::random_uniform(n, n, 91);
        let b = Matrix::random_uniform(n, n, 92);
        let ops = 2 * (n as u64).pow(3);
        // The product checked against naive is computed untimed; it also
        // wakes the pool workers the serial naive run let park.
        let runs: Vec<(GemmKernel, Duration, Matrix)> = GemmKernel::ALL
            .into_iter()
            .map(|kernel| {
                let c = a.matmul_with(&b, kernel).expect("shapes conform");
                let d = avg_time(cfg.updates, || {
                    a.matmul_with(&b, kernel).expect("shapes conform");
                });
                (kernel, d, c)
            })
            .collect();
        let (naive, packed) = (&runs[0].2, runs[1].1);
        for (kernel, d, c) in &runs {
            assert!(
                kernel.fuses() || c == naive,
                "{kernel} is not bit-identical to naive at n = {n}"
            );
            t.row(vec![
                n.to_string(),
                kernel.label().into(),
                fmt_duration(*d),
                format!("{:.2}", flops::gflops(ops, *d)),
                fmt_speedup(packed, *d),
            ]);
        }
    }
    // `try_matmul` around the small-product gate (17^3 multiply-adds),
    // each against `matmul_packed`, which pins the packed path without
    // gates (the rank-k fast path or the nest). Only products with more
    // than 16 output rows and 32 output columns reach the gate: the first
    // two shapes are below it and run the serial i-k-j kernel, the rest
    // are above it.
    for (m, k, n) in [
        (17, 1, 33),
        (17, 2, 33),
        (40, 1, 40),
        (17, 8, 33),
        (17, 17, 33),
        (33, 33, 33),
        (47, 47, 47),
        (64, 64, 64),
    ] {
        let a = Matrix::random_uniform(m, k, 97);
        let b = Matrix::random_uniform(k, n, 98);
        let samples = 100 * cfg.updates;
        let pinned = p50(samples, || {
            a.matmul_packed(&b).expect("shapes conform");
        });
        let routed = p50(samples, || {
            a.try_matmul(&b).expect("shapes conform");
        });
        gemm_pair(
            &mut t,
            &format!("{m}x{k}x{n}"),
            ("packed", pinned),
            ("try_matmul", routed),
            2 * (m * k * n) as u64,
        );
    }
    // The shapes a firing's delta blocks have, each beside the route it
    // replaced: a 1-row output (OLS's `Y'X`) and a 26-column block
    // (Woodbury's `W·P` at a fired rank of 26, and `X·V_W`) against the
    // pinned packed nest; a basis-column block (a row update's `A·dU`) and
    // a 13-row selection (`ols_batch`'s `X'·dU_X`) against the same
    // product over a dense block, which is what the skinny kernels did
    // before they skipped all-zero rows. Every routed product is asserted
    // `==` to the naive kernel.
    let basis = |rows: usize, cols: usize| {
        let mut u = Matrix::zeros(rows, cols);
        for c in 0..cols {
            u.set((37 * c + 11) % rows, c, 1.0);
        }
        u
    };
    let y = Matrix::random_uniform(1, 512, 101);
    let x = Matrix::random_uniform(512, 256, 102);
    let v26 = Matrix::random_uniform(256, 26, 103);
    let a512 = Matrix::random_uniform(512, 512, 104);
    let e1 = basis(512, 1);
    let d1 = Matrix::random_uniform(512, 1, 105);
    let du13 = basis(512, 13);
    let d13 = Matrix::random_uniform(512, 13, 106);
    type Run<'a> = (&'a str, &'a dyn Fn() -> linview_matrix::Result<Matrix>);
    let pairs: [(&str, Run, Run, u64); 4] = [
        (
            "1x512x256 (Y'X)",
            ("packed nest", &|| y.matmul_packed(&x)),
            ("short", &|| y.try_matmul(&x)),
            2 * 512 * 256,
        ),
        (
            "512x256x26 (X V_W)",
            ("packed nest", &|| x.matmul_packed(&v26)),
            ("two skinny", &|| x.try_matmul(&v26)),
            2 * 512 * 256 * 26,
        ),
        (
            "512x512x1 basis (A dU)",
            ("dense column", &|| a512.try_matmul(&d1)),
            ("row skip", &|| a512.try_matmul(&e1)),
            2 * 512 * 512,
        ),
        (
            "512x256'x13 basis (X' dU)",
            ("dense block", &|| x.try_matmul_tn(&d13)),
            ("row skip", &|| x.try_matmul_tn(&du13)),
            2 * 512 * 256 * 13,
        ),
    ];
    for (label, old, new, ops) in pairs {
        let time = |f: &dyn Fn() -> linview_matrix::Result<Matrix>| {
            p50(20 * cfg.updates, || {
                f().expect("shapes conform");
            })
        };
        gemm_pair(
            &mut t,
            label,
            (old.0, time(old.1)),
            (new.0, time(new.1)),
            ops,
        );
    }
    for (a, b, tn) in [
        (&y, &x, false),
        (&x, &v26, false),
        (&a512, &e1, false),
        (&x, &du13, true),
    ] {
        let (routed, oracle) = if tn {
            let formed = a.transpose();
            (a.try_matmul_tn(b), formed.matmul_with(b, GemmKernel::Naive))
        } else {
            (a.try_matmul(b), a.matmul_with(b, GemmKernel::Naive))
        };
        assert!(
            routed.expect("shapes conform") == oracle.expect("shapes conform"),
            "a routed {}x{} product is not bit-identical to naive",
            a.rows(),
            b.cols()
        );
    }
    // Skinny rank-k rows — the `n×k · k×n` products of rank at most 16.
    // Each shape is measured twice: through the dedicated rank-k fast path
    // (the default dispatch) and with the fast path disabled so the same
    // product runs the general packed nest.
    let nest_then_fast = |f: &mut dyn FnMut()| {
        linview_matrix::force_general_nest(true);
        let nest = p50(cfg.samples, &mut *f);
        linview_matrix::force_general_nest(false);
        (nest, p50(cfg.samples, f))
    };
    for &n in &[512usize, 2048] {
        for &k in &[1usize, 4, 8, 16] {
            let a = Matrix::random_uniform(n, k, 93);
            let b = Matrix::random_uniform(k, n, 94);
            let (nest, fast) = nest_then_fast(&mut || {
                a.matmul_packed(&b).expect("shapes conform");
            });
            gemm_pair(
                &mut t,
                &format!("{n}x{k}x{n}"),
                ("packed-nest", nest),
                ("rank-k", fast),
                2 * (n * k * n) as u64,
            );
        }
    }
    // The fold itself (`X += U·Vᵀ`): the fused rank-k fold against the
    // GEMM-then-add two-step it replaces. At n = 2048 the fold is
    // memory-bound and skipping the n×n delta temporary removes most of
    // the traffic; ranks 24–32 are the batch regime (`ols_batch` folds
    // `Z` and `W`, 256×256, at rank 26).
    for (n, ranks) in [
        (2048usize, &[1usize, 4, 8, 16, 24, 26, 32][..]),
        (256, &[24, 26, 32]),
    ] {
        for &k in ranks {
            let u = Matrix::random_uniform(n, k, 95);
            let v = Matrix::random_uniform(n, k, 96);
            let mut x = Matrix::zeros(n, n);
            let (nest, fast) = nest_then_fast(&mut || {
                linview_matrix::fold_low_rank(&mut x, &u, &v, false).expect("shapes conform");
            });
            gemm_pair(
                &mut t,
                &format!("fold {n}x{k}"),
                ("gemm-then-add", nest),
                ("rank-k fold", fast),
                (2 * n * k * n + n * n) as u64,
            );
        }
    }
    // The transposes a firing forms of its `n×k` factors (every dense
    // fold's `Vᵀ`, Woodbury's `Pᵀ`), against a clone of the same block —
    // the floor of any pass that writes it once. GFLOP/s counts one
    // operation per element.
    for (r, c) in [(256usize, 26usize), (512, 16)] {
        let f = Matrix::random_uniform(r, c, 99);
        let clone = p50(cfg.samples, || drop(f.clone()));
        let transpose = p50(cfg.samples, || drop(f.transpose()));
        gemm_pair(
            &mut t,
            &format!("transpose {r}x{c}"),
            ("clone", clone),
            ("transpose", transpose),
            (r * c) as u64,
        );
    }
    t.note(
        "square rows (n = cfg.n/2, cfg.n, 2*cfg.n) are checked packed == naive bitwise; \
         try_matmul rows are p50s, small-product kernel below 17^3 multiply-adds, packed \
         path from it on; delta-block rows are p50s, each new route == naive; the skinny \
         rows (n = 512 and 2048, k <= 16) set the rank-k product against the packed nest, \
         the fold rows (n = 2048 at k <= 32, n = 256 at k = 24-32) the fused rank-k fold \
         against gemm-then-add, both p50s of cfg.samples calls after a warm-up; transpose \
         rows are p50s against a clone",
    );
    t
}

/// Two timed routes of one product as a row pair: `base` at 1.00x, then
/// `new` with its speedup over it.
fn gemm_pair(t: &mut Table, shape: &str, base: (&str, Duration), new: (&str, Duration), ops: u64) {
    for (label, d) in [base, new] {
        t.row(vec![
            shape.to_string(),
            label.into(),
            fmt_duration(d),
            format!("{:.2}", flops::gflops(ops, d)),
            fmt_speedup(base.1, d),
        ]);
    }
}

/// The median wall time of `samples` invocations of `f`, after one
/// untimed warm-up call.
fn p50(samples: usize, f: impl FnMut()) -> Duration {
    let times = sorted_times(samples, f);
    times[times.len() / 2]
}

/// The sorted wall times of `samples` invocations of `f`, after one
/// untimed warm-up call.
fn sorted_times(samples: usize, mut f: impl FnMut()) -> Vec<Duration> {
    f();
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times
}

/// Firing kernels — the three streaming passes a trigger firing is made
/// of (`P·U`, `Pᵀ·V`, `X += U·Vᵀ`) at the benchmark's n = 512, per
/// rendering (portable forced vs the host's best exact one) and at one and
/// two GEMM threads: median time, GFLOP/s, and the effective bandwidth of
/// the n×n view traffic (one read for the products, a read and a write for
/// the fold) — the per-k roofline. The last row is what a fork-join costs
/// with nothing to do, i.e. what the two-thread columns have to amortize.
pub fn firing_kernels(cfg: &Config) -> Table {
    let n = 512;
    let samples = cfg.updates * cfg.updates;
    let mut t = Table::new(
        format!("Firing kernels at n = {n} - p50 of {samples} runs, by rendering and GEMM threads"),
        &[
            "kernel",
            "k",
            "rendering",
            "1 thread",
            "GFLOP/s",
            "GB/s",
            "2 threads",
            "GFLOP/s",
            "GB/s",
        ],
    );
    let p = Matrix::random_uniform(n, n, 97);
    let mut x = Matrix::random_uniform(n, n, 98);
    let view_bytes = (8 * n * n) as f64;
    for (kernel, passes) in [("P*U", 1.0), ("P'*V", 1.0), ("X += U*V'", 2.0)] {
        for k in [1usize, 2, 4, 16] {
            let u = Matrix::random_uniform(n, k, 99);
            let v = Matrix::random_uniform(n, k, 100);
            let mut block = Matrix::zeros(n, k);
            let ops = (2 * n * n * k) as u64;
            for portable in [true, false] {
                linview_matrix::force_portable_microkernel(portable);
                let mut cells = vec![
                    kernel.to_string(),
                    k.to_string(),
                    if portable { "portable" } else { "host" }.to_string(),
                ];
                for threads in [1, 2] {
                    linview_matrix::set_gemm_threads(Some(threads));
                    let times = sorted_times(samples, || match kernel {
                        "P*U" => p.matmul_into(&u, &mut block, 0).expect("shapes conform"),
                        "P'*V" => p.matmul_tn_into(&v, &mut block, 0).expect("shapes conform"),
                        _ => {
                            linview_matrix::fold_low_rank(&mut x, &u, &v, false)
                                .expect("shapes conform");
                        }
                    });
                    let p50 = times[times.len() / 2];
                    cells.push(fmt_duration(p50));
                    cells.push(format!("{:.2}", flops::gflops(ops, p50)));
                    cells.push(format!(
                        "{:.1}",
                        passes * view_bytes / p50.as_secs_f64() / 1e9
                    ));
                }
                t.row(cells);
            }
        }
    }
    linview_matrix::force_portable_microkernel(false);
    linview_matrix::set_gemm_threads(None);
    let times = sorted_times(200 * cfg.updates, || {
        linview_matrix::gemm::fork_join_probe(2, 4)
    });
    let dash = || "-".to_string();
    t.row(vec![
        "empty fork-join".into(),
        dash(),
        "2 workers, 4 chunks".into(),
        dash(),
        dash(),
        dash(),
        format!(
            "{} / {}",
            fmt_duration(times[times.len() / 2]),
            fmt_duration(times[times.len() * 9 / 10])
        ),
        "p50 / p90".into(),
        dash(),
    ]);
    t.note(
        "host = the widest exact rendering this CPU runs (AVX2 where detected; P*U at k = 1 runs \
         portable everywhere, its 4-lane tiles measured slower), bit-identical to portable; GB/s \
         counts the 8n^2-byte view once for the products and twice (read + write) \
         for the fold; before PR 20 (SSE2 only, both fork-join hand-offs on condvars) the \
         2-thread column read P*U 80/142/351 us, P'*V 83/196/386, fold 102/278/552 (k = 1/4/16) \
         and the empty fork-join 39 us p50",
    );
    t
}

/// Sparsity — sparse-aware delta execution and rank-compressed broadcasts
/// vs forced-dense execution, across density × n × backend. Each row
/// drives the same seeded batches through two views of the same backend —
/// auto (the runtime picks sparse folds and compressed frames) and
/// `sparse_folds: false` — asserts the maintained views are
/// bit-identical, and reports the fold-path split plus the broadcast bytes
/// compression saved.
pub fn sparsity(cfg: &Config) -> Table {
    use linview_runtime::{BatchUpdate, ExecOptions};

    let k = 4;
    let mut t = Table::new(
        format!("Sparsity - sparse folds + compressed broadcasts vs forced dense (rank {k})"),
        &[
            "backend",
            "n",
            "density",
            "auto",
            "forced dense",
            "speedup",
            "sparse/dense folds",
            "comm saved",
        ],
    );
    let program = linview_compiler::parse::parse_program("B := A * A;").expect("program parses");

    // A deterministic n×k factor keeping every `stride`-th entry (row-major)
    // of a seeded dense factor — density 1/stride, exactly reproducible.
    fn strided_factor(n: usize, k: usize, stride: usize, seed: u64) -> Matrix {
        let dense = Matrix::random_uniform(n, k, seed);
        let mut m = Matrix::zeros(n, k);
        for i in 0..n {
            for j in 0..k {
                if (i * k + j).is_multiple_of(stride) {
                    m.set(i, j, dense.get(i, j));
                }
            }
        }
        m
    }

    fn run<B: ExecBackend>(
        t: &mut Table,
        name: &str,
        make: impl Fn() -> IncrementalView<B>,
        n: usize,
        k: usize,
        stride: usize,
        updates: usize,
    ) {
        let batches: Vec<BatchUpdate> = (0..updates.max(1) as u64)
            .map(|s| {
                BatchUpdate::new(
                    strided_factor(n, k, stride, 100 + s),
                    Matrix::random_uniform(n, k, 200 + s),
                )
                .expect("factors conform")
            })
            .collect();
        let drive = |force_dense: bool| {
            let mut view = make();
            view.set_exec_options(ExecOptions {
                sparse_folds: !force_dense,
                ..Default::default()
            });
            view.reset_comm();
            let t0 = Instant::now();
            for b in &batches {
                view.apply_batch("A", b).expect("update applies");
            }
            let wall = t0.elapsed() / batches.len().max(1) as u32;
            let stats = view.sparse_stats();
            let bytes = view.comm().total_bytes();
            let maintained = view.get("B").expect("B is maintained").clone();
            (wall, stats, bytes, maintained)
        };
        let (auto_t, stats, auto_bytes, auto_b) = drive(false);
        let (dense_t, _, dense_bytes, dense_b) = drive(true);
        assert_eq!(
            auto_b.max_abs_diff(&dense_b),
            0.0,
            "sparse and forced-dense executions must stay bit-identical"
        );
        t.row(vec![
            name.into(),
            n.to_string(),
            format!("1/{stride}"),
            fmt_duration(auto_t),
            fmt_duration(dense_t),
            fmt_speedup(dense_t, auto_t),
            format!("{}/{}", stats.sparse_folds, stats.dense_folds),
            fmt_bytes(dense_bytes.saturating_sub(auto_bytes)),
        ]);
    }

    // Densities straddle both thresholds: 1/64 takes the sparse fold path
    // (below the 5% crossover) AND compressed frames; 1/16 folds dense but
    // still compresses on the wire; 1/1 is fully dense on both axes.
    for &n in &[cfg.n, cfg.n * 2] {
        for &stride in &[64usize, 16, 1] {
            let view = || IncrementalView::build(&program, &inputs(n), &cat(n)).expect("builds");
            run(&mut t, "local", view, n, k, stride, cfg.updates);
            let threaded = || {
                IncrementalView::build_on(
                    ThreadedBackend::new(4).expect("square worker count"),
                    &program,
                    &inputs(n),
                    &cat(n),
                )
                .expect("builds")
            };
            run(&mut t, "threaded", threaded, n, k, stride, cfg.updates);
        }
    }
    fn cat(n: usize) -> linview_expr::Catalog {
        let mut cat = linview_expr::Catalog::new();
        cat.declare("A", n, n);
        cat
    }
    fn inputs(n: usize) -> [(&'static str, Matrix); 1] {
        [("A", Matrix::random_spectral(n, 17, 0.8))]
    }
    t.note(
        "auto == dense bit-for-bit by construction; below the 5% crossover the fold replays \
         stored entries, and triplet frames shrink broadcasts until density 1/2",
    );
    t
}

/// Ablations — the design-choice studies DESIGN.md calls out, as printable
/// tables.
pub fn ablations(cfg: &Config) -> Vec<Table> {
    vec![ablation_factoring(cfg), ablation_inverse(cfg)]
}

/// §4.3 common-factor extraction on/off: one `A⁸` trigger firing.
fn ablation_factoring(cfg: &Config) -> Table {
    use linview_compiler::{compile, Program};
    use linview_expr::{Catalog, Expr};
    use linview_runtime::fire_trigger;

    let n = cfg.n;
    let mut t = Table::new(
        format!("Ablation - common-factor extraction (A^8 trigger, n = {n})"),
        &["variant", "block ranks dB/dC/dD", "refresh", "flops"],
    );
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let mut prog = Program::new();
    prog.assign("B", Expr::var("A") * Expr::var("A"));
    prog.assign("C", Expr::var("B") * Expr::var("B"));
    prog.assign("D", Expr::var("C") * Expr::var("C"));
    let a = Matrix::random_spectral(n, 3, 0.8);
    let du = Matrix::random_col(n, 5).scale(0.01);
    let dv = Matrix::random_col(n, 6);
    let ev = Evaluator::new();
    let build_env = || {
        let b = a.try_matmul(&a).expect("square");
        let c = b.try_matmul(&b).expect("square");
        let d = c.try_matmul(&c).expect("square");
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", b);
        env.bind("C", c);
        env.bind("D", d);
        env
    };
    for (label, factored) in [("factored (§4.3)", true), ("unfactored", false)] {
        let opts = CompileOptions {
            update_rank: 1,
            delta: DeltaOptions {
                factor_common: factored,
            },
        };
        let tp = compile(&prog, &["A"], &cat, &opts).expect("compiles");
        let ranks = ["U_B", "U_C", "U_D"]
            .iter()
            .map(|v| tp.catalog.get(v).expect("declared").cols.to_string())
            .collect::<Vec<_>>()
            .join("/");
        let mut env = build_env();
        let time = p50(cfg.samples, || {
            fire_trigger(&mut env, &ev, &tp.triggers[0], &du, &dv).expect("fires")
        });
        let mut env2 = build_env();
        let fl = avg_flops(cfg.updates, || {
            fire_trigger(&mut env2, &ev, &tp.triggers[0], &du, &dv).expect("fires")
        });
        t.row(vec![
            label.into(),
            ranks,
            fmt_duration(time),
            format!("{:.2e}", fl),
        ]);
    }
    t.note(
        "block ranks grow additively (2/4/8) with §4.3, multiplicatively (3/9/27) without; \
         refresh is the p50 of cfg.samples firings after a warm-up",
    );
    t
}

/// Sherman–Morrison (k sequential steps) vs Woodbury (one rank-k solve).
fn ablation_inverse(cfg: &Config) -> Table {
    use linview_runtime::{sherman_morrison, woodbury};

    let n = cfg.n;
    let mut t = Table::new(
        format!("Ablation - inverse maintenance primitive (n = {n})"),
        &["k", "Sherman-Morrison", "Woodbury"],
    );
    let e = Matrix::random_diag_dominant(n, 1);
    let w = e.inverse().expect("invertible");
    for k in [1usize, 4, 16, 64] {
        let p = Matrix::random_uniform(n, k, 2).scale(0.01);
        let q = Matrix::random_uniform(n, k, 3).scale(0.01);
        let sm = p50(cfg.samples, || {
            sherman_morrison(&w, &p, &q).expect("nonsingular");
        });
        let wb = p50(cfg.samples, || {
            woodbury(&w, &p, &q).expect("nonsingular");
        });
        t.row(vec![k.to_string(), fmt_duration(sm), fmt_duration(wb)]);
    }
    t.note(
        "both are O(kn²); Woodbury amortizes the k passes over W into two GEMMs + a k×k solve; \
         p50s of cfg.samples calls after a warm-up",
    );
    t
}

/// Extension studies — the §3.1/§4.2 "future work" features, measured.
pub fn extensions(cfg: &Config) -> Vec<Table> {
    vec![ext_convergence(cfg), ext_expm(cfg), ext_warm_pagerank(cfg)]
}

/// Convergence-threshold maintenance: horizon behaviour and refresh cost.
fn ext_convergence(cfg: &Config) -> Table {
    use linview_apps::convergence::ConvergentIteration;

    let n = cfg.n;
    let mut t = Table::new(
        format!("Extension - convergence-threshold iteration (n = {n}, eps = 1e-9)"),
        &["event", "k (horizon)", "extended", "truncated", "refresh"],
    );
    let m = Matrix::random_stochastic(n, 11).transpose();
    let a = m.scale(0.85);
    let b = Matrix::filled(n, 1, 0.15 / n as f64);
    let mut t0 = Matrix::zeros(n, 1);
    t0.set(0, 0, 1.0);
    let mut it = ConvergentIteration::new(a, b, t0, 1e-9, 10_000).expect("converges");
    t.row(vec![
        "initial run".into(),
        it.iterations().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    let mut stream = UpdateStream::new(n, n, 0.002, 13);
    for i in 0..3 {
        let upd = stream.next_rank_one();
        let t1 = Instant::now();
        it.apply(&upd).expect("maintains");
        t.row(vec![
            format!("link update #{}", i + 1),
            it.iterations().to_string(),
            it.last_extension().to_string(),
            it.last_truncation().to_string(),
            fmt_duration(t1.elapsed()),
        ]);
    }
    t.note("§3.1's future work: the horizon adapts per update (footnote-3 extension / truncation)");
    t
}

/// Matrix exponential: INCR vs REEVAL refresh for the truncated series.
fn ext_expm(cfg: &Config) -> Table {
    use linview_apps::expm::{IncrExpm, ReevalExpm};

    let n = cfg.n;
    let k = 12;
    let mut t = Table::new(
        format!("Extension - matrix exponential, {k}-term Taylor (n = {n})"),
        &["strategy", "refresh", "speedup"],
    );
    let a = Matrix::random_spectral(n, 5, 0.6);
    let mut reeval = ReevalExpm::new(a.clone(), k).expect("builds");
    let mut incr = IncrExpm::new(a, k).expect("builds");
    let mut s1 = UpdateStream::new(n, n, 0.01, 21);
    let re = avg_time(cfg.updates, || {
        reeval.apply(&s1.next_rank_one()).expect("update")
    });
    let mut s2 = UpdateStream::new(n, n, 0.01, 21);
    let inc = avg_time(cfg.updates, || {
        incr.apply(&s2.next_rank_one()).expect("update")
    });
    t.row(vec!["REEVAL".into(), fmt_duration(re), "1.0x".into()]);
    t.row(vec!["INCR".into(), fmt_duration(inc), fmt_speedup(re, inc)]);
    t.note("§5.2's ODE motivation: exp(A)·x0 maintained under rank-1 updates to A");
    t
}

/// Warm-started sparse PageRank after one edge mutation.
fn ext_warm_pagerank(cfg: &Config) -> Table {
    use linview_sparse::{pagerank, pagerank_warm, Graph, PageRankOptions};

    let n = cfg.n * 4; // sparse scales further
    let mut t = Table::new(
        format!("Extension - warm-started sparse PageRank (n = {n}, tol = 1e-10)"),
        &["strategy", "iterations", "solve"],
    );
    let mut g = Graph::random(n, 6, 29);
    let opts = PageRankOptions {
        tol: 1e-10,
        max_iterations: 1000,
        ..PageRankOptions::default()
    };
    let before = pagerank(&g.transition(), &opts).expect("converges");
    g.insert_edge(3, n / 2).expect("new edge");
    let p_new = g.transition();
    let t1 = Instant::now();
    let cold = pagerank(&p_new, &opts).expect("converges");
    let cold_t = t1.elapsed();
    let t2 = Instant::now();
    let warm = pagerank_warm(&p_new, &opts, &before).expect("converges");
    let warm_t = t2.elapsed();
    t.row(vec![
        "cold (uniform start)".into(),
        cold.iterations().to_string(),
        fmt_duration(cold_t),
    ]);
    t.row(vec![
        "warm (previous scores)".into(),
        warm.iterations().to_string(),
        fmt_duration(warm_t),
    ]);
    t.note("after one edge flip the old solution is near the new fixed point");
    t
}

/// Serving layer: wait-free snapshot reads under live maintenance —
/// read throughput, staleness, latency percentiles, and what serving costs
/// the maintainer: the publish itself (serving on, no readers, against a
/// serving-off baseline) and then the reader population on top of it
/// (readers x flush policy x backend).
pub fn serving(cfg: &Config) -> Table {
    use linview_runtime::{percentile_ns, ReaderPool, ReaderReport};

    let n = cfg.n;
    let events = (cfg.updates * 32).max(64);
    let mut t = Table::new(
        format!("Serving - wait-free snapshot reads under maintenance (n = {n}, {events} events)"),
        &[
            "backend",
            "policy",
            "readers",
            "maint wall",
            "writer cost",
            "reads/s",
            "stale max",
            "p50 read",
            "p99 read",
        ],
    );
    let program =
        linview_compiler::parse::parse_program("C := A * B; D := C * C;").expect("program");
    let mut cat = linview_expr::Catalog::new();
    cat.declare("A", n, n);
    cat.declare("B", n, n);
    let a = Matrix::random_spectral(n, 7, 0.8);
    let b = Matrix::random_spectral(n, 8, 0.8);
    let inputs = [("A", a), ("B", b)];

    // One grid cell: ingest `events` rank-1 updates, serving the view to
    // `readers` closed-loop readers meanwhile (`None`: serving never
    // enabled, so no firing publishes). Returns the maintenance wall, the
    // pool's whole lifetime (reads are rated over it, since readers also
    // run during warmup), and the reader reports.
    fn run_cell<B: ExecBackend>(
        mut engine: MaintenanceEngine<B>,
        readers: Option<usize>,
        events: usize,
        n: usize,
    ) -> (Duration, Duration, Vec<ReaderReport>) {
        let handle = readers.map(|_| engine.enable_serving(1));
        let spawned = Instant::now();
        let pool = match (&handle, readers) {
            (Some(handle), Some(readers)) if readers > 0 => {
                Some(ReaderPool::spawn(handle, readers, &[]))
            }
            _ => None,
        };
        if pool.is_some() {
            // Let the reader threads reach steady state so the measured
            // window prices contention, not thread spawn.
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut stream = UpdateStream::new(n, n, 0.01, 3131);
        let start = Instant::now();
        for i in 0..events {
            let input = if i % 2 == 0 { "A" } else { "B" };
            engine
                .ingest(input, stream.next_rank_one())
                .expect("event ingests");
        }
        engine.flush_all().expect("final flush");
        let wall = start.elapsed();
        let reports = pool.map(ReaderPool::stop).unwrap_or_default();
        (wall, spawned.elapsed(), reports)
    }

    let policies = [
        ("count", FlushPolicy::Count(4)),
        ("immediate", FlushPolicy::Immediate),
    ];
    for backend_name in ["local", "threaded"] {
        for (policy_name, policy) in policies {
            let mut baseline: Option<Duration> = None;
            for readers in [None, Some(0usize), Some(2), Some(4)] {
                let (wall, pool_wall, reports) = if backend_name == "threaded" {
                    let view = IncrementalView::build_on(
                        ThreadedBackend::with_cluster(Cluster::with_grid(2, 2)),
                        &program,
                        &inputs,
                        &cat,
                    )
                    .expect("build");
                    run_cell(MaintenanceEngine::new(view, policy), readers, events, n)
                } else {
                    let view = IncrementalView::build(&program, &inputs, &cat).expect("build");
                    run_cell(MaintenanceEngine::new(view, policy), readers, events, n)
                };
                let cost = match baseline {
                    None => {
                        baseline = Some(wall);
                        "1.00x (baseline)".to_string()
                    }
                    Some(base) => {
                        format!("{:.2}x", wall.as_secs_f64() / base.as_secs_f64().max(1e-12))
                    }
                };
                let mut total = ReaderReport {
                    epochs_monotone: true,
                    ..ReaderReport::default()
                };
                for r in &reports {
                    total.merge(r);
                }
                assert!(total.epochs_monotone, "serving epochs regressed");
                let reads_per_s = total.reads as f64 / pool_wall.as_secs_f64().max(1e-12);
                let p50 = percentile_ns(&mut total.latencies_ns, 50.0);
                let p99 = percentile_ns(&mut total.latencies_ns, 99.0);
                let reading = readers.is_some_and(|r| r > 0);
                let or_dash = |cell: String| if reading { cell } else { "-".into() };
                t.row(vec![
                    backend_name.into(),
                    policy_name.into(),
                    readers.map_or("serving off".into(), |r| r.to_string()),
                    fmt_duration(wall),
                    cost,
                    or_dash(format!("{reads_per_s:.2e}")),
                    or_dash(total.max_staleness.to_string()),
                    or_dash(format!("{p50} ns")),
                    or_dash(format!("{p99} ns")),
                ]);
            }
        }
    }
    t.note(
        "writer cost is maintenance wall vs the serving-off baseline of the same backend and \
         policy: the 0-reader row is what publishing costs the writer (snapshots share the \
         views, so that is the copy-on-write of the views each firing touches), the reader rows \
         add interference; closed-loop readers spin, so on few-core hosts those price CPU \
         sharing, not blocking - the wait-free evidence is the flat O(100 ns) read path and \
         bounded staleness at every reader count",
    );
    t
}

/// An experiment driver: builds its workload at `cfg` scale, measures it,
/// and returns the tables to print.
type Driver = fn(&Config) -> Vec<Table>;

/// Every experiment under its CLI name, in paper order and then the
/// system studies: the one list from which [`by_name`], [`all`] and the
/// harness usage text are derived.
pub const REGISTRY: &[(&str, Driver)] = &[
    ("fig3a", |cfg| vec![fig3a(cfg)]),
    ("fig3b", |cfg| vec![fig3b(cfg)]),
    ("fig3c", |cfg| vec![fig3c(cfg)]),
    ("fig3d", |cfg| vec![fig3d(cfg)]),
    ("fig3e", |cfg| vec![fig3e(cfg)]),
    ("fig3f", |cfg| vec![fig3f(cfg)]),
    ("fig3g", |cfg| vec![fig3g(cfg)]),
    ("fig3h", |cfg| vec![fig3h(cfg)]),
    ("table2", |cfg| vec![table2(cfg)]),
    ("table3", |cfg| vec![table3(cfg)]),
    ("table4", |cfg| vec![table4(cfg)]),
    ("engine", |cfg| vec![engine_batching(cfg)]),
    ("scheduler", |cfg| vec![scheduler(cfg)]),
    ("gemm", |cfg| vec![gemm(cfg), firing_kernels(cfg)]),
    ("sparsity", |cfg| vec![sparsity(cfg)]),
    ("serving", |cfg| vec![serving(cfg)]),
    ("ablations", ablations),
    ("extensions", extensions),
];

/// Runs every registered experiment, in registry order.
pub fn all(cfg: &Config) -> Vec<Table> {
    REGISTRY.iter().flat_map(|(_, run)| run(cfg)).collect()
}

/// Resolves a CLI name — a [`REGISTRY`] entry or `"all"` — to its driver
/// without running it.
pub fn by_name(name: &str) -> Option<Driver> {
    if name == "all" {
        return Some(all);
    }
    REGISTRY
        .iter()
        .find(|(registered, _)| *registered == name)
        .map(|&(_, run)| run)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests at quick scale: every experiment driver must run and
    // produce a fully populated table.
    #[test]
    fn every_experiment_runs_at_quick_scale() {
        let cfg = Config::quick();
        for name in [
            "fig3a",
            "fig3c",
            "fig3g",
            "table2",
            "table4",
            "engine",
            "scheduler",
            "gemm",
            "sparsity",
            "serving",
        ] {
            let tables = by_name(name).expect("known experiment")(&cfg);
            for t in tables {
                assert!(!t.rows.is_empty(), "{name} produced no rows");
            }
        }
    }

    #[test]
    fn ablation_and_extension_tables_run_at_quick_scale() {
        let cfg = Config::quick();
        for (name, count) in [("ablations", 2), ("extensions", 3)] {
            let tables = by_name(name).expect("known experiment")(&cfg);
            assert_eq!(tables.len(), count, "{name} table count");
            for t in tables {
                assert!(!t.rows.is_empty(), "{name} produced no rows");
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolve() {
        for (i, (name, _)) in REGISTRY.iter().enumerate() {
            assert_ne!(*name, "all", "'all' is derived, not registered");
            assert!(
                REGISTRY[..i].iter().all(|(earlier, _)| earlier != name),
                "{name} is registered twice"
            );
            assert!(by_name(name).is_some(), "{name} does not resolve");
        }
        assert!(by_name("all").is_some());
        assert!(by_name("fig9z").is_none());
    }
}
