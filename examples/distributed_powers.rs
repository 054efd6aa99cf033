//! Distributed matrix powers over a worker grid (§6, Fig. 3f).
//!
//! Re-evaluation shuffles full matrix blocks on every product; incremental
//! maintenance runs the compiled trigger to obtain the factored delta
//! `ΔC = U_C V_Cᵀ` and only *broadcasts* those skinny factors to the
//! workers holding the partitioned view. This example makes the §6
//! communication claim concrete by metering both. The incremental side is
//! the generic `IncrementalView` on a `ThreadedBackend` — the same triggers
//! and interpreter that drive local maintenance, with the partitions owned
//! by worker threads and every factor broadcast a serialized byte frame
//! moved over a channel, so its traffic numbers are exact frame lengths.
//!
//! Run with: `cargo run --release --example distributed_powers`

use linview::prelude::*;
use linview::runtime::ThreadedBackend;
use std::time::Instant;

fn main() {
    let n = 240;
    let updates = 3;

    // Program: C = A^4 via two squarings.
    let program = parse_program("B := A * A; C := B * B;").expect("program parses");
    let mut cat = Catalog::new();
    cat.declare("A", n, n);

    let a = Matrix::random_spectral(n, 5, 0.9);

    for workers in [4, 16] {
        let grid = (workers as f64).sqrt() as usize;

        // --- Distributed re-evaluation: recompute A² and A⁴ per update. ---
        let reeval_cluster = Cluster::new(workers);
        let mut a_cur = a.clone();
        let mut stream = UpdateStream::new(n, n, 0.01, 55);
        let t0 = Instant::now();
        let mut reeval_c = None;
        for _ in 0..updates {
            let upd = stream.next_rank_one();
            upd.apply_to(&mut a_cur).expect("update applies");
            let da = DistMatrix::from_dense(&a_cur, grid).expect("partitions");
            let d2 = dist_matmul(&da, &da, &reeval_cluster).expect("A^2");
            let d4 = dist_matmul(&d2, &d2, &reeval_cluster).expect("A^4");
            reeval_c = Some(d4);
        }
        let reeval_time = t0.elapsed();
        let reeval_comm = reeval_cluster.comm().reset();

        // --- Distributed incremental: the compiled trigger fires through
        //     the ThreadedBackend — delta blocks evaluate centrally (they
        //     are O(kn), tiny), factors are serialized into frames and
        //     broadcast, worker threads update the partitions they own
        //     with no shuffle. The closing gather is the barrier that
        //     waits for every queued fold. ---
        let backend = ThreadedBackend::new(workers).expect("square worker count");
        let mut incr = IncrementalView::build_on(backend, &program, &[("A", a.clone())], &cat)
            .expect("incremental view builds");
        incr.reset_comm();
        let mut stream = UpdateStream::new(n, n, 0.01, 55);
        let t0 = Instant::now();
        for _ in 0..updates {
            incr.apply("A", &stream.next_rank_one())
                .expect("trigger fires");
        }
        let dist_c = incr.backend().view("C").expect("C is partitioned");
        let incr_time = t0.elapsed();
        let incr_comm = incr.reset_comm();
        assert_eq!(
            &dist_c,
            incr.get("C").expect("C is mirrored"),
            "worker-owned partitions diverged from the coordinator mirror"
        );

        let diff = dist_c.rel_diff(&reeval_c.expect("ran").to_dense());
        println!("workers = {workers} (grid {grid}x{grid}), n = {n}, {updates} updates of A^4:");
        println!(
            "  REEVAL:        {:>9.2?}, shuffle {:>12} B, broadcast {:>10} B",
            reeval_time, reeval_comm.shuffle_bytes, reeval_comm.broadcast_bytes
        );
        println!(
            "  INCR:          {:>9.2?}, shuffle {:>12} B, broadcast {:>10} B (frames moved)",
            incr_time, incr_comm.shuffle_bytes, incr_comm.broadcast_bytes
        );
        println!(
            "  comm reduction: {:.0}x   divergence: {:.2e}\n",
            reeval_comm.total_bytes() as f64 / incr_comm.total_bytes().max(1) as f64,
            diff
        );
        assert!(diff < 1e-7);
        assert_eq!(incr_comm.shuffle_bytes, 0);
    }
}
