//! Integration tests for the distributed execution path: the §6 claims
//! checked end to end on worker-owned partitions — correctness of
//! partitioned maintenance and the shuffle-vs-broadcast communication
//! asymmetry, measured in exact frame bytes.

use linview::prelude::*;
use linview::runtime::ThreadedBackend;

fn build(
    program: &Program,
    a: Matrix,
    cat: &Catalog,
    workers: usize,
) -> IncrementalView<ThreadedBackend> {
    let backend = ThreadedBackend::new(workers).unwrap();
    IncrementalView::build_on(backend, program, &[("A", a)], cat).unwrap()
}

fn square_catalog(n: usize) -> Catalog {
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    cat
}

#[test]
fn distributed_incremental_tracks_single_node_reevaluation() {
    let n = 32;
    let program = parse_program("B := A * A; C := B * B; D := C * C;").unwrap();
    let cat = square_catalog(n);
    let a = Matrix::random_spectral(n, 5, 0.8);
    let mut reeval = ReevalView::build(&program, &[("A", a.clone())], &cat).unwrap();
    let mut local = IncrementalView::build(&program, &[("A", a.clone())], &cat).unwrap();
    let mut dist = build(&program, a, &cat, 16);
    let mut stream = UpdateStream::new(n, n, 0.01, 7);
    for _ in 0..10 {
        let upd = stream.next_rank_one();
        reeval.apply("A", &upd).unwrap();
        local.apply("A", &upd).unwrap();
        dist.apply("A", &upd).unwrap();
    }
    let gathered = dist.backend().view("D").unwrap();
    assert!(gathered.approx_eq(reeval.get("D").unwrap(), 1e-7));
    // Worker-owned blocks, the coordinator mirror, and single-node
    // incremental maintenance agree exactly: one interpreter, one fold.
    assert_eq!(&gathered, dist.get("D").unwrap());
    assert_eq!(&gathered, local.get("D").unwrap());
}

#[test]
fn incremental_broadcast_traffic_is_orders_below_reeval_shuffle() {
    let n = 128;
    let grid = 4;
    let workers = grid * grid;

    // One distributed re-evaluation of A^4.
    let a = Matrix::random_spectral(n, 9, 0.9);
    let reeval_cluster = Cluster::new(workers);
    let da = DistMatrix::from_dense(&a, grid).unwrap();
    let d2 = dist_matmul(&da, &da, &reeval_cluster).unwrap();
    let _d4 = dist_matmul(&d2, &d2, &reeval_cluster).unwrap();
    let reeval_bytes = reeval_cluster.comm().snapshot().total_bytes();

    // One incremental refresh of the same view set.
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let mut dist = build(&program, a, &square_catalog(n), workers);
    dist.reset_comm();
    dist.apply("A", &RankOneUpdate::row_update(n, n, 3, 0.01, 11))
        .unwrap();
    let incr = dist.comm();

    assert_eq!(incr.shuffle_bytes, 0, "incremental path must not shuffle");
    assert!(incr.broadcast_bytes > 0);
    assert!(
        incr.total_bytes() * 4 < reeval_bytes,
        "incr {} !<< reeval {}",
        incr.total_bytes(),
        reeval_bytes
    );
}

#[test]
fn batched_updates_flow_through_distributed_triggers() {
    let n = 24;
    let program = parse_program("B := A * A;").unwrap();
    let a = Matrix::random_spectral(n, 13, 0.8);
    let mut dist = build(&program, a.clone(), &square_catalog(n), 4);
    let mut stream = UpdateStream::new(n, n, 0.01, 17);
    let batch = stream.next_batch_zipf(8, 1.0).unwrap();
    dist.apply_factored("A", &batch.u, &batch.v).unwrap();

    let mut a_new = a;
    a_new.add_assign_from(&batch.to_dense().unwrap()).unwrap();
    let expected = a_new.try_matmul(&a_new).unwrap();
    assert!(dist.backend().view("B").unwrap().approx_eq(&expected, 1e-9));
}

#[test]
fn worker_count_scales_traffic_but_does_not_change_results() {
    let n = 36;
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let a = Matrix::random_spectral(n, 19, 0.8);
    let upd = RankOneUpdate::row_update(n, n, 5, 0.02, 23);
    let mut results = Vec::new();
    let mut per_worker = Vec::new();
    for workers in [1u64, 4, 9, 36] {
        let mut dist = build(&program, a.clone(), &square_catalog(n), workers as usize);
        dist.reset_comm();
        dist.apply("A", &upd).unwrap();
        let comm = dist.comm();
        assert_eq!(comm.shuffle_bytes, 0);
        assert_eq!(comm.broadcast_bytes % workers, 0);
        per_worker.push(comm.broadcast_bytes / workers);
        results.push(dist.backend().view("C").unwrap());
    }
    // Every worker receives the same whole O(kn) factor frames, so INCR
    // traffic is exactly proportional to the worker count.
    assert!(per_worker[0] > 0);
    assert!(per_worker.iter().all(|&b| b == per_worker[0]));
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn bad_geometry_and_unknown_names_are_errors() {
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    // 8 workers cannot form a square grid.
    assert!(ThreadedBackend::new(8).is_err());
    // 10 is not divisible by the 3×3 grid side.
    let backend = ThreadedBackend::new(9).unwrap();
    let a = Matrix::random_spectral(10, 5, 0.8);
    assert!(
        IncrementalView::build_on(backend, &program, &[("A", a)], &square_catalog(10)).is_err()
    );

    let a = Matrix::random_spectral(16, 5, 0.8);
    let mut dist = build(&program, a, &square_catalog(16), 4);
    let upd = RankOneUpdate::row_update(16, 16, 0, 0.01, 1);
    assert!(dist.apply("Z", &upd).is_err());
    assert!(dist.backend().view("nope").is_err());
}
