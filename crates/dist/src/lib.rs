//! # linview-dist
//!
//! The distribution layer standing in for the paper's Spark backend (§6):
//! grid partitioning of dense matrices, a frame transport that moves
//! factored deltas to the workers owning the partitions, and byte/message
//! metering of everything that moves — so the §6 claim (re-evaluation
//! *shuffles* `O(n²)` blocks per refresh, incremental maintenance only
//! *broadcasts* `O(kn)` factors) is an assertion over metered traffic.
//!
//! * [`Cluster`] — a `√w × √w` (or explicitly rectangular) worker grid with
//!   a communication meter ([`CommStats`]).
//! * [`DistMatrix`] — a dense matrix split into equally-sized grid blocks;
//!   what [`FramePool::install`] scatters to the workers.
//! * [`FramePool`] ([`transport`]) — the INCR side: one worker per grid
//!   cell owns its view blocks, and every coordinator interaction is a
//!   serialized byte frame, over in-process channels ([`WorkerPool`]) or
//!   TCP/Unix sockets ([`SocketTransport`]). The `FrameBackend` in
//!   `linview-runtime` builds on this, so its metered byte counts are
//!   exact frame lengths.
//! * [`dist_matmul`] — the REEVAL side: a block-SUMMA product that meters
//!   the block shuffles re-evaluation pays (Fig. 3f's baseline).
//!
//! ```
//! use linview_dist::{delta_frame, dist_matmul, Cluster, DistMatrix, WorkerPool};
//! use linview_matrix::{fold_low_rank, ApproxEq, Matrix};
//!
//! let cluster = Cluster::new(4); // 2×2 grid
//! let a = Matrix::random_spectral(8, 1, 0.9);
//! let da = DistMatrix::from_dense(&a, cluster.grid()).unwrap();
//!
//! // Distributed squaring matches the single-node kernel...
//! let d2 = dist_matmul(&da, &da, &cluster).unwrap();
//! assert!(d2.to_dense().approx_eq(&a.try_matmul(&a).unwrap(), 1e-12));
//! // ...and pays shuffle traffic, which the meter records.
//! assert!(cluster.comm().snapshot().shuffle_bytes > 0);
//!
//! // A low-rank update only broadcasts its skinny factors: one frame per
//! // worker, each of which folds the rows it owns.
//! let pool = WorkerPool::spawn(2, 2);
//! let squared = d2.to_dense();
//! pool.install("V", &squared).unwrap();
//! let u = Matrix::random_uniform(8, 2, 7);
//! let v = Matrix::random_uniform(8, 2, 8);
//! let sent = pool.broadcast_delta("V", &u, &v).unwrap();
//! assert_eq!(sent, delta_frame("V", &u, &v).len() as u64);
//!
//! // The gathered blocks equal the unpartitioned fold bit for bit.
//! let mut dense = squared;
//! fold_low_rank(&mut dense, &u, &v, false).unwrap();
//! let blocks = pool.gather("V").unwrap();
//! assert_eq!(blocks[3], dense.submatrix(4, 4, 4, 4).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod comm;
mod matrix;
mod ops;
pub mod socket;
pub mod transport;

pub use cluster::{Cluster, ClusterError};
pub use comm::{CommSnapshot, CommStats};
pub use matrix::DistMatrix;
pub use ops::dist_matmul;
pub use socket::{
    bind, serve_worker, spawn_local_grid, PeerAddr, ServeOptions, SocketConfig, SocketTransport,
    WorkerListener, WorkerServer,
};
pub use transport::{
    decode_delta_frame, delta_frame, factor_prefers_sparse, sparse_delta_frame, ChannelTransport,
    FramePool, Transport, TransportError, TransportResult, WorkerPool,
};

/// Crate-wide result type (all fallible paths surface dense-kernel errors).
pub type Result<T> = std::result::Result<T, linview_matrix::MatrixError>;
