//! Message-passing transport: long-lived workers, byte frames.
//!
//! The coordinator side is [`FramePool`], generic over a [`Transport`] that
//! carries opaque [`Bytes`] frames to one worker per grid partition. Two
//! transports exist:
//!
//! * [`ChannelTransport`] — one OS thread per partition inside this
//!   process, connected by bounded `mpsc` channels ([`WorkerPool`] is the
//!   pool over it). The channel bound applies back-pressure: a coordinator
//!   that outruns its workers blocks instead of buffering unboundedly.
//! * [`SocketTransport`](crate::socket::SocketTransport) — workers in other
//!   processes reached over TCP or Unix-domain sockets (see
//!   [`socket`](crate::socket)).
//!
//! Byte counts reported for these transports are exact frame lengths (tag +
//! view name + matrix headers + payload).
//!
//! Protocol (all integers little-endian):
//!
//! ```text
//! coordinator -> worker        worker -> coordinator
//!   0  shutdown
//!   1  install  name block       (no reply)
//!   2  delta    name U V         (no reply; worker slices its own rows)
//!   3  gather   name             status 0, name, block   — ok
//!                                status 1, message       — protocol error
//!   4  reset                     (no reply)
//!   5  delta*   name U V         (as 2, factors flag-encoded dense|sparse)
//! ```
//!
//! The tag-5 frame carries each factor behind a one-byte encoding flag:
//! dense (the tag-2 layout) or sparse triplets `(u32 row, u32 col, f64)` in
//! row-major order, keeping only entries `x != 0.0`. A factor is encoded
//! sparse exactly when that is the shorter form (`2·nnz < rows·cols`), so a
//! compressed broadcast's wire bytes scale with the factors' nonzero count
//! rather than their dense footprint.
//!
//! # Protocol errors poison, they never panic
//!
//! A malformed frame, an unknown tag, or a delta for a view that was never
//! installed marks the worker *poisoned* instead of killing it: the worker
//! drops further state-changing frames and answers every gather with a
//! status-1 error reply carrying the original failure, which the
//! coordinator surfaces as [`TransportError::Worker`]. A reset (the first
//! step of every re-materialize) clears the poison, so recovery needs no
//! process restart. No input on this path can panic a worker or hang the
//! coordinator.
//!
//! Because each worker processes its frames in FIFO order, a gather reply
//! is only produced after every previously sent delta has been applied —
//! [`FramePool::gather`] is the synchronization point coordinators use
//! before reading distributed state.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use linview_matrix::{factor_nnz, Matrix};

use crate::DistMatrix;

pub(crate) const TAG_SHUTDOWN: u8 = 0;
const TAG_INSTALL: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_GATHER: u8 = 3;
const TAG_RESET: u8 = 4;
const TAG_DELTA_SPARSE: u8 = 5;

/// Flag byte: the matrix that follows uses the dense (tag-2) layout.
const ENC_DENSE: u8 = 0;
/// Flag byte: the matrix that follows is a triplet list of its nonzeros.
const ENC_SPARSE: u8 = 1;

/// Gather reply status byte: the reply carries the view name and block.
const REPLY_OK: u8 = 0;
/// Gather reply status byte: the reply carries a protocol-error message.
const REPLY_ERR: u8 = 1;

/// How many frames a coordinator may queue per in-process worker before
/// sends block (back-pressure against unbounded buffering).
const CHANNEL_BOUND: usize = 64;

/// Errors surfaced by the message-passing transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A worker's connection hung up: its thread or process exited.
    WorkerDisconnected {
        /// Row-major index of the dead worker.
        worker: usize,
    },
    /// A frame could not be decoded.
    Malformed(&'static str),
    /// A worker reported a protocol error (poisoned state) in a reply.
    Worker {
        /// Row-major index of the reporting worker.
        worker: usize,
        /// The worker's description of the original failure.
        message: String,
    },
    /// A socket-level I/O failure talking to a worker.
    Io {
        /// Row-major index of the affected worker.
        worker: usize,
        /// Rendered `std::io::Error`.
        message: String,
    },
    /// A peer answered the connection handshake incorrectly.
    Handshake {
        /// Row-major index of the affected worker.
        worker: usize,
        /// What was wrong with the handshake.
        message: String,
    },
    /// A worker did not reply within the configured read timeout — the
    /// peer is presumed dead or stalled.
    Timeout {
        /// Row-major index of the unresponsive worker.
        worker: usize,
    },
    /// A transport was configured inconsistently (bad address, grid/worker
    /// count mismatch).
    Config(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::WorkerDisconnected { worker } => {
                write!(f, "worker {worker} disconnected")
            }
            TransportError::Malformed(what) => write!(f, "malformed transport frame: {what}"),
            TransportError::Worker { worker, message } => {
                write!(f, "worker {worker} protocol error: {message}")
            }
            TransportError::Io { worker, message } => {
                write!(f, "i/o error talking to worker {worker}: {message}")
            }
            TransportError::Handshake { worker, message } => {
                write!(f, "handshake with worker {worker} failed: {message}")
            }
            TransportError::Timeout { worker } => {
                write!(f, "worker {worker} timed out (peer dead or stalled)")
            }
            TransportError::Config(what) => write!(f, "transport configuration error: {what}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Result alias for transport operations.
pub type TransportResult<T> = std::result::Result<T, TransportError>;

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

fn put_name(buf: &mut BytesMut, name: &str) {
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name.as_bytes());
}

fn get_name(buf: &mut Bytes) -> TransportResult<String> {
    if buf.remaining() < 4 {
        return Err(TransportError::Malformed("name header"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(TransportError::Malformed("name payload"));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| TransportError::Malformed("name utf-8"))
}

fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u32_le(m.rows() as u32);
    buf.put_u32_le(m.cols() as u32);
    for &x in m.as_slice() {
        buf.put_f64_le(x);
    }
}

fn get_matrix(buf: &mut Bytes) -> TransportResult<Matrix> {
    if buf.remaining() < 8 {
        return Err(TransportError::Malformed("matrix header"));
    }
    let rows = buf.get_u32_le() as usize;
    let cols = buf.get_u32_le() as usize;
    let len = rows * cols;
    if buf.remaining() < 8 * len {
        return Err(TransportError::Malformed("matrix payload"));
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(buf.get_f64_le());
    }
    Matrix::from_vec(rows, cols, data).map_err(|_| TransportError::Malformed("matrix shape"))
}

/// Whether the flagged encoding of `m` is shorter sparse than dense.
///
/// Sparse spends 16 bytes per stored entry plus a 4-byte count against the
/// dense form's 8 bytes per cell, so sparse wins exactly when
/// `2·nnz < rows·cols`. Exposed so coordinators (and their byte-accounting
/// models) can predict a frame's layout without serializing it.
pub fn factor_prefers_sparse(m: &Matrix) -> bool {
    2 * factor_nnz(m) < m.len()
}

fn put_matrix_auto(buf: &mut BytesMut, m: &Matrix) {
    if factor_prefers_sparse(m) {
        buf.put_u8(ENC_SPARSE);
        buf.put_u32_le(m.rows() as u32);
        buf.put_u32_le(m.cols() as u32);
        buf.put_u32_le(factor_nnz(m) as u32);
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let x = m.get(r, c);
                if x != 0.0 {
                    buf.put_u32_le(r as u32);
                    buf.put_u32_le(c as u32);
                    buf.put_f64_le(x);
                }
            }
        }
    } else {
        buf.put_u8(ENC_DENSE);
        put_matrix(buf, m);
    }
}

fn get_matrix_auto(buf: &mut Bytes) -> TransportResult<Matrix> {
    if buf.remaining() < 1 {
        return Err(TransportError::Malformed("encoding flag"));
    }
    match buf.get_u8() {
        ENC_DENSE => get_matrix(buf),
        ENC_SPARSE => {
            if buf.remaining() < 12 {
                return Err(TransportError::Malformed("sparse matrix header"));
            }
            let rows = buf.get_u32_le() as usize;
            let cols = buf.get_u32_le() as usize;
            let nnz = buf.get_u32_le() as usize;
            if buf.remaining() < 16 * nnz {
                return Err(TransportError::Malformed("sparse matrix payload"));
            }
            let mut m = Matrix::zeros(rows, cols);
            for _ in 0..nnz {
                let r = buf.get_u32_le() as usize;
                let c = buf.get_u32_le() as usize;
                let x = buf.get_f64_le();
                if r >= rows || c >= cols {
                    return Err(TransportError::Malformed("sparse entry out of bounds"));
                }
                m.set(r, c, x);
            }
            Ok(m)
        }
        _ => Err(TransportError::Malformed("unknown matrix encoding")),
    }
}

pub(crate) fn control_frame(tag: u8) -> Bytes {
    let mut buf = BytesMut::with_capacity(1);
    buf.put_u8(tag);
    buf.freeze()
}

/// The frame installing the `shape` block of `m` whose top-left cell is
/// `at` — the same bytes as the block's own matrix encoding.
fn install_frame(view: &str, m: &Matrix, at: (usize, usize), shape: (usize, usize)) -> Bytes {
    let ((r0, c0), (rows, cols)) = (at, shape);
    let mut buf = BytesMut::with_capacity(1 + 4 + view.len() + 8 + 8 * rows * cols);
    buf.put_u8(TAG_INSTALL);
    put_name(&mut buf, view);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(cols as u32);
    for r in r0..r0 + rows {
        for &x in &m.row(r)[c0..c0 + cols] {
            buf.put_f64_le(x);
        }
    }
    buf.freeze()
}

/// The broadcast frame carrying one factored delta `ΔX = U Vᵀ` for `view`.
///
/// Public so tests (and accounting audits) can recompute a backend's
/// metered byte counts from the *same* serialization the workers receive:
/// the frame length — tag, name, two matrix headers, and the `f64` payloads
/// — is exactly what [`FramePool::broadcast_delta`] reports per worker.
/// The engine's delta event log stores these same bytes, so replay after a
/// crash folds bit-identical updates.
pub fn delta_frame(view: &str, u: &Matrix, v: &Matrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 + view.len() + 16 + 8 * (u.len() + v.len()));
    buf.put_u8(TAG_DELTA);
    put_name(&mut buf, view);
    put_matrix(&mut buf, u);
    put_matrix(&mut buf, v);
    buf.freeze()
}

/// The compressed broadcast frame: same delta as [`delta_frame`], but each
/// factor is flag-encoded and switches to a triplet list of its nonzeros
/// whenever that is the shorter form.
///
/// Public for the same reason as [`delta_frame`]: byte-accounting audits
/// recompute a backend's metered counts from the serialization the workers
/// actually receive. Decoding reconstructs each factor cell for cell, so a
/// worker folding a sparse frame stays bit-identical to one folding the
/// dense frame (only the signs of zeros can differ, which `==` ignores).
pub fn sparse_delta_frame(view: &str, u: &Matrix, v: &Matrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 + view.len() + 18 + 8 * (u.len() + v.len()));
    buf.put_u8(TAG_DELTA_SPARSE);
    put_name(&mut buf, view);
    put_matrix_auto(&mut buf, u);
    put_matrix_auto(&mut buf, v);
    buf.freeze()
}

/// Decodes a [`delta_frame`] or [`sparse_delta_frame`] back into
/// `(view, U, V)`.
///
/// The engine's delta event log stores broadcast frames verbatim; recovery
/// replays them through this decoder, so the replayed factors are exactly
/// the bytes every worker folded the first time.
pub fn decode_delta_frame(mut frame: Bytes) -> TransportResult<(String, Matrix, Matrix)> {
    if !frame.has_remaining() {
        return Err(TransportError::Malformed("empty delta frame"));
    }
    let tag = frame.get_u8();
    let (name, u, v) = match tag {
        TAG_DELTA => {
            let name = get_name(&mut frame)?;
            (name, get_matrix(&mut frame)?, get_matrix(&mut frame)?)
        }
        TAG_DELTA_SPARSE => {
            let name = get_name(&mut frame)?;
            (
                name,
                get_matrix_auto(&mut frame)?,
                get_matrix_auto(&mut frame)?,
            )
        }
        _ => return Err(TransportError::Malformed("not a delta frame")),
    };
    if frame.has_remaining() {
        return Err(TransportError::Malformed(
            "trailing bytes after delta frame",
        ));
    }
    Ok((name, u, v))
}

fn gather_frame(view: &str) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 + view.len());
    buf.put_u8(TAG_GATHER);
    put_name(&mut buf, view);
    buf.freeze()
}

fn ok_reply(view: &str, block: &Matrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 + view.len() + 8 + 8 * block.len());
    buf.put_u8(REPLY_OK);
    put_name(&mut buf, view);
    put_matrix(&mut buf, block);
    buf.freeze()
}

fn err_reply(message: &str) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 + message.len());
    buf.put_u8(REPLY_ERR);
    put_name(&mut buf, message);
    buf.freeze()
}

// ---------------------------------------------------------------------------
// Worker state machine
// ---------------------------------------------------------------------------

/// What a worker does after handling one frame.
pub(crate) enum FrameOutcome {
    /// Keep reading frames.
    Continue,
    /// Send this reply to the coordinator, then keep reading.
    Reply(Bytes),
    /// Leave the frame loop (shutdown frame received).
    Shutdown,
}

/// One worker's installed blocks plus its poison flag: the frame-handling
/// state machine shared by the in-process channel workers and the socket
/// worker processes, so both transports have identical protocol semantics.
///
/// Protocol violations (an undecodable frame, an unknown tag, a delta for
/// a view that was never installed) *poison* the worker: state-changing
/// frames are dropped from then on and every gather answers with an error
/// reply carrying the original failure. A reset clears the poison.
pub(crate) struct WorkerState {
    br: usize,
    bc: usize,
    blocks: BTreeMap<String, Matrix>,
    poisoned: Option<String>,
}

impl WorkerState {
    pub(crate) fn new(br: usize, bc: usize) -> WorkerState {
        WorkerState {
            br,
            bc,
            blocks: BTreeMap::new(),
            poisoned: None,
        }
    }

    fn poison(&mut self, message: String) {
        // First failure wins: later errors are usually knock-on effects.
        if self.poisoned.is_none() {
            self.poisoned = Some(message);
        }
    }

    fn fold_delta(&mut self, name: &str, u: &Matrix, v: &Matrix) -> Result<(), String> {
        let (br, bc) = (self.br, self.bc);
        let block = self
            .blocks
            .get_mut(name)
            .ok_or_else(|| format!("delta for uninstalled view '{name}'"))?;
        if u.cols() == 0 {
            return Ok(()); // rank-0 delta: nothing to fold
        }
        // Slice this worker's own rows out of the broadcast factors: each
        // entry accumulates the same ascending-k chain as the unpartitioned
        // fold, so worker state stays bit-identical to the coordinator
        // mirror.
        let (bh, bw) = (block.rows(), block.cols());
        let ui = u
            .submatrix(br * bh, 0, bh, u.cols())
            .map_err(|_| format!("delta factor U does not conform to view '{name}'"))?;
        let vj = v
            .submatrix(bc * bw, 0, bw, v.cols())
            .map_err(|_| format!("delta factor V does not conform to view '{name}'"))?;
        let delta = ui
            .try_matmul(&vj.transpose())
            .map_err(|_| format!("delta factor ranks disagree for view '{name}'"))?;
        block
            .add_assign_from(&delta)
            .map_err(|_| format!("delta block shape mismatch for view '{name}'"))?;
        Ok(())
    }

    /// Handles one coordinator frame. Never panics: every malformed input
    /// poisons the worker (reported at the next gather) instead.
    pub(crate) fn handle(&mut self, mut frame: Bytes) -> FrameOutcome {
        if !frame.has_remaining() {
            self.poison("empty frame".to_string());
            return FrameOutcome::Continue;
        }
        match frame.get_u8() {
            TAG_SHUTDOWN => FrameOutcome::Shutdown,
            TAG_RESET => {
                self.blocks.clear();
                self.poisoned = None;
                FrameOutcome::Continue
            }
            TAG_INSTALL => {
                if self.poisoned.is_some() {
                    return FrameOutcome::Continue;
                }
                match get_name(&mut frame).and_then(|name| Ok((name, get_matrix(&mut frame)?))) {
                    Ok((name, block)) => {
                        self.blocks.insert(name, block);
                    }
                    Err(e) => self.poison(format!("undecodable install frame: {e}")),
                }
                FrameOutcome::Continue
            }
            tag @ (TAG_DELTA | TAG_DELTA_SPARSE) => {
                if self.poisoned.is_some() {
                    return FrameOutcome::Continue;
                }
                let decoded = get_name(&mut frame).and_then(|name| {
                    let (u, v) = if tag == TAG_DELTA {
                        (get_matrix(&mut frame)?, get_matrix(&mut frame)?)
                    } else {
                        (get_matrix_auto(&mut frame)?, get_matrix_auto(&mut frame)?)
                    };
                    Ok((name, u, v))
                });
                match decoded {
                    Ok((name, u, v)) => {
                        if let Err(msg) = self.fold_delta(&name, &u, &v) {
                            self.poison(msg);
                        }
                    }
                    Err(e) => self.poison(format!("undecodable delta frame: {e}")),
                }
                FrameOutcome::Continue
            }
            TAG_GATHER => {
                let name = match get_name(&mut frame) {
                    Ok(name) => name,
                    Err(e) => {
                        let msg = format!("undecodable gather frame: {e}");
                        self.poison(msg.clone());
                        return FrameOutcome::Reply(err_reply(&msg));
                    }
                };
                if let Some(msg) = &self.poisoned {
                    return FrameOutcome::Reply(err_reply(msg));
                }
                match self.blocks.get(&name) {
                    Some(block) => FrameOutcome::Reply(ok_reply(&name, block)),
                    None => {
                        // A read miss does not poison: the worker's state is
                        // still sound, the coordinator just asked for a view
                        // that is not installed here.
                        FrameOutcome::Reply(err_reply(&format!(
                            "gather of uninstalled view '{name}'"
                        )))
                    }
                }
            }
            other => {
                self.poison(format!("unknown frame tag {other}"));
                FrameOutcome::Continue
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Transport abstraction
// ---------------------------------------------------------------------------

/// Moves opaque byte frames between a coordinator and its grid workers.
///
/// Implementations differ only in *where* the workers live (threads in this
/// process, processes behind sockets); the frame protocol and the
/// `WorkerState` machine interpreting it are shared, which is what keeps
/// every transport bit-identical to every other.
pub trait Transport: fmt::Debug + Send {
    /// Short name for diagnostics and backend labels (e.g. `"threaded"`).
    fn label(&self) -> &'static str;

    /// Number of workers (row-major over the grid).
    fn workers(&self) -> usize;

    /// Sends one frame to worker `worker`. Blocks under back-pressure.
    fn send(&self, worker: usize, frame: Bytes) -> TransportResult<()>;

    /// Sends a batch of frames to worker `worker`. Transports that write to
    /// a wire coalesce the batch into a single write; the default just
    /// loops [`Transport::send`].
    fn send_batch(&self, worker: usize, frames: &[Bytes]) -> TransportResult<()> {
        for frame in frames {
            self.send(worker, frame.clone())?;
        }
        Ok(())
    }

    /// Receives the next reply frame from worker `worker`. Must detect a
    /// dead or disconnected peer (error, not a hang).
    fn recv_reply(&self, worker: usize) -> TransportResult<Bytes>;

    /// Reconnects or respawns every dead worker, returning how many were
    /// brought back. Revived workers start with *empty* state; the caller
    /// must re-install views (a re-materialize does exactly that).
    fn revive(&mut self) -> TransportResult<usize>;
}

// ---------------------------------------------------------------------------
// In-process channel transport
// ---------------------------------------------------------------------------

fn channel_worker_loop(br: usize, bc: usize, rx: Receiver<Bytes>, reply: Sender<Bytes>) {
    let mut state = WorkerState::new(br, bc);
    while let Ok(frame) = rx.recv() {
        match state.handle(frame) {
            FrameOutcome::Continue => {}
            FrameOutcome::Reply(bytes) => {
                if reply.send(bytes).is_err() {
                    break; // coordinator went away
                }
            }
            FrameOutcome::Shutdown => break,
        }
    }
}

struct ChannelLink {
    br: usize,
    bc: usize,
    tx: SyncSender<Bytes>,
    reply: Receiver<Bytes>,
    handle: Option<JoinHandle<()>>,
}

impl ChannelLink {
    fn spawn(br: usize, bc: usize) -> ChannelLink {
        let (tx, rx) = mpsc::sync_channel(CHANNEL_BOUND);
        let (reply_tx, reply_rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name(format!("linview-worker-{br}-{bc}"))
            .spawn(move || channel_worker_loop(br, bc, rx, reply_tx))
            .expect("worker thread spawns");
        ChannelLink {
            br,
            bc,
            tx,
            reply: reply_rx,
            handle: Some(handle),
        }
    }

    fn is_dead(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }
}

/// One worker thread per grid partition inside this process, connected by
/// bounded byte-frame channels.
///
/// The send channel is bounded (`CHANNEL_BOUND` = 64 frames), so a coordinator
/// that outruns its workers blocks — back-pressure, not unbounded memory.
/// Dropping the transport sends every live worker a shutdown frame and
/// joins the threads.
pub struct ChannelTransport {
    links: Vec<ChannelLink>,
}

impl ChannelTransport {
    /// Spawns one worker thread per cell of a `grid_rows × grid_cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or a thread cannot be spawned.
    pub fn spawn(grid_rows: usize, grid_cols: usize) -> ChannelTransport {
        assert!(
            grid_rows > 0 && grid_cols > 0,
            "worker grid must have at least one row and column"
        );
        let mut links = Vec::with_capacity(grid_rows * grid_cols);
        for br in 0..grid_rows {
            for bc in 0..grid_cols {
                links.push(ChannelLink::spawn(br, bc));
            }
        }
        ChannelTransport { links }
    }

    /// Terminates worker `worker` (its queued frames are lost) and joins
    /// the thread — the in-process equivalent of `SIGKILL`ing a worker
    /// process. Subsequent sends observe [`TransportError::WorkerDisconnected`].
    pub fn kill_worker(&mut self, worker: usize) {
        let link = &mut self.links[worker];
        let _ = link.tx.send(control_frame(TAG_SHUTDOWN));
        if let Some(handle) = link.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Transport for ChannelTransport {
    fn label(&self) -> &'static str {
        "threaded"
    }

    fn workers(&self) -> usize {
        self.links.len()
    }

    fn send(&self, worker: usize, frame: Bytes) -> TransportResult<()> {
        self.links[worker]
            .tx
            .send(frame)
            .map_err(|_| TransportError::WorkerDisconnected { worker })
    }

    fn recv_reply(&self, worker: usize) -> TransportResult<Bytes> {
        self.links[worker]
            .reply
            .recv()
            .map_err(|_| TransportError::WorkerDisconnected { worker })
    }

    fn revive(&mut self) -> TransportResult<usize> {
        let mut revived = 0;
        for idx in 0..self.links.len() {
            if self.links[idx].is_dead() {
                let (br, bc) = (self.links[idx].br, self.links[idx].bc);
                if let Some(handle) = self.links[idx].handle.take() {
                    let _ = handle.join();
                }
                self.links[idx] = ChannelLink::spawn(br, bc);
                revived += 1;
            }
        }
        Ok(revived)
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        let frame = control_frame(TAG_SHUTDOWN);
        for link in &self.links {
            let _ = link.tx.send(frame.clone());
        }
        for link in &mut self.links {
            if let Some(handle) = link.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("workers", &self.links.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Coordinator pool
// ---------------------------------------------------------------------------

/// A grid of frame-protocol workers behind any [`Transport`].
///
/// [`WorkerPool`] (over [`ChannelTransport`]) keeps the historical
/// in-process behavior; a pool over
/// [`SocketTransport`](crate::socket::SocketTransport) talks to worker
/// processes instead. All coordinator-side protocol logic — scatter
/// installs, delta broadcasts, barrier gathers, reply draining — lives
/// here, once.
pub struct FramePool<T: Transport> {
    grid_rows: usize,
    grid_cols: usize,
    transport: T,
}

/// A grid of long-lived worker threads connected by byte-frame channels
/// (the [`FramePool`] over [`ChannelTransport`]).
pub type WorkerPool = FramePool<ChannelTransport>;

impl WorkerPool {
    /// Spawns one worker thread per cell of a `grid_rows × grid_cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or a thread cannot be spawned.
    pub fn spawn(grid_rows: usize, grid_cols: usize) -> WorkerPool {
        FramePool {
            grid_rows,
            grid_cols,
            transport: ChannelTransport::spawn(grid_rows, grid_cols),
        }
    }

    /// Terminates one worker thread abruptly (see
    /// [`ChannelTransport::kill_worker`]); the fault-injection hook used by
    /// recovery tests.
    pub fn kill_worker(&mut self, worker: usize) {
        self.transport.kill_worker(worker);
    }
}

impl<T: Transport> FramePool<T> {
    /// Wraps an already-connected transport as a `grid_rows × grid_cols`
    /// pool. Errors if the transport's worker count does not match.
    pub fn from_transport(
        grid_rows: usize,
        grid_cols: usize,
        transport: T,
    ) -> TransportResult<FramePool<T>> {
        if grid_rows == 0 || grid_cols == 0 {
            return Err(TransportError::Config(
                "worker grid must have at least one row and column".to_string(),
            ));
        }
        if transport.workers() != grid_rows * grid_cols {
            return Err(TransportError::Config(format!(
                "{} workers cannot form a {grid_rows}x{grid_cols} grid",
                transport.workers()
            )));
        }
        Ok(FramePool {
            grid_rows,
            grid_cols,
            transport,
        })
    }

    /// Short name of the underlying transport (e.g. `"threaded"`).
    pub fn label(&self) -> &'static str {
        self.transport.label()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.transport.workers()
    }

    /// Grid rows.
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Grid columns.
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The underlying transport, mutably (fault injection, reconfiguration).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn send_to(&self, idx: usize, frame: Bytes) -> TransportResult<()> {
        self.transport.send(idx, frame)
    }

    fn send_all(&self, frame: &Bytes) -> TransportResult<()> {
        for idx in 0..self.workers() {
            self.send_to(idx, frame.clone())?;
        }
        Ok(())
    }

    /// Clears every worker's installed views and poison flags (precedes a
    /// re-materialize).
    pub fn reset(&self) -> TransportResult<()> {
        self.send_all(&control_frame(TAG_RESET))
    }

    /// Reconnects or respawns dead workers (see [`Transport::revive`]),
    /// returning how many came back. Revived workers are empty; follow with
    /// a re-materialize.
    pub fn revive(&mut self) -> TransportResult<usize> {
        self.transport.revive()
    }

    /// Scatter-installs the dense `m` as `view`, one block per worker. Each
    /// block is copied from `m` straight into its frame, so installing
    /// holds no partitioned copy of `m`. Returns the per-worker frame
    /// length in bytes (blocks are equally sized, so every frame is the
    /// same length).
    ///
    /// # Panics
    ///
    /// If `m` does not partition evenly over the pool's grid (see
    /// [`DistMatrix::check_grid`]).
    pub fn install(&self, view: &str, m: &Matrix) -> TransportResult<u64> {
        if let Err(e) = DistMatrix::check_grid(m.shape(), self.grid_rows, self.grid_cols) {
            panic!("cannot install '{view}': {e}");
        }
        let block = (m.rows() / self.grid_rows, m.cols() / self.grid_cols);
        let mut frame_len = 0;
        for br in 0..self.grid_rows {
            for bc in 0..self.grid_cols {
                let frame = install_frame(view, m, (br * block.0, bc * block.1), block);
                frame_len = frame.len() as u64;
                self.send_to(br * self.grid_cols + bc, frame)?;
            }
        }
        Ok(frame_len)
    }

    /// Broadcasts the factored delta `ΔX = U Vᵀ` for `view` to every
    /// worker, returning the serialized frame length actually sent to each
    /// (the exact per-worker byte cost of the broadcast).
    pub fn broadcast_delta(&self, view: &str, u: &Matrix, v: &Matrix) -> TransportResult<u64> {
        let frame = delta_frame(view, u, v);
        let len = frame.len() as u64;
        self.send_all(&frame)?;
        Ok(len)
    }

    /// Broadcasts the factored delta as a compressed
    /// ([`sparse_delta_frame`]) frame instead of a dense one, returning the
    /// serialized frame length sent to each worker. Workers fold the
    /// reconstructed factors through the same arithmetic as
    /// [`FramePool::broadcast_delta`], so the two frames are
    /// interchangeable in everything but wire bytes.
    pub fn broadcast_delta_sparse(
        &self,
        view: &str,
        u: &Matrix,
        v: &Matrix,
    ) -> TransportResult<u64> {
        let frame = sparse_delta_frame(view, u, v);
        let len = frame.len() as u64;
        self.send_all(&frame)?;
        Ok(len)
    }

    /// Broadcasts a pre-serialized batch of frames (one flush round's worth
    /// of deltas) to every worker, batched per worker so wire transports
    /// coalesce the round into one write.
    ///
    /// Unlike the fail-fast single broadcasts, a dead worker does **not**
    /// stop delivery to the survivors — they all receive the full batch, so
    /// live workers and the coordinator's mirror agree even when one peer
    /// died mid-round. Returns one result per worker; the caller decides
    /// whether a partial broadcast is an error (it is for the backends,
    /// which surface the first failure after metering the survivors).
    pub fn broadcast_frames(&self, frames: &[Bytes]) -> Vec<TransportResult<()>> {
        (0..self.workers())
            .map(|idx| self.transport.send_batch(idx, frames))
            .collect()
    }

    /// Gathers `view`'s blocks back from the workers, in row-major grid
    /// order. Doubles as a barrier: every worker has applied all previously
    /// broadcast deltas by the time its reply arrives.
    ///
    /// A dead or unresponsive peer surfaces as
    /// [`TransportError::WorkerDisconnected`] / [`TransportError::Timeout`]
    /// instead of blocking forever, and a poisoned worker's status-1 reply
    /// surfaces as [`TransportError::Worker`] carrying the original
    /// protocol failure. Replies from *all* live workers are drained even
    /// when one errors, so a failed gather never leaves stale replies
    /// queued for the next one.
    ///
    /// Replies are tagged with the view name; a reply for a *different*
    /// view (a stale frame left queued by an earlier gather that errored
    /// out mid-collection) surfaces as [`TransportError::Malformed`]
    /// rather than silently returning another view's data.
    pub fn gather(&self, view: &str) -> TransportResult<Vec<Matrix>> {
        // Send the gather frame everywhere first (it is the barrier), then
        // drain every reachable worker's reply even if some error — leaving
        // replies queued would desynchronize the next gather.
        let sent: Vec<TransportResult<()>> = (0..self.workers())
            .map(|idx| self.send_to(idx, gather_frame(view)))
            .collect();
        let results: Vec<TransportResult<Matrix>> = sent
            .into_iter()
            .enumerate()
            .map(|(idx, sent)| {
                sent?;
                let mut reply = self.transport.recv_reply(idx)?;
                if !reply.has_remaining() {
                    return Err(TransportError::Malformed("empty gather reply"));
                }
                match reply.get_u8() {
                    REPLY_OK => {
                        let replied_view = get_name(&mut reply)?;
                        if replied_view != view {
                            return Err(TransportError::Malformed("gather reply for another view"));
                        }
                        get_matrix(&mut reply)
                    }
                    REPLY_ERR => {
                        let message = get_name(&mut reply)?;
                        Err(TransportError::Worker {
                            worker: idx,
                            message,
                        })
                    }
                    _ => Err(TransportError::Malformed("unknown gather reply status")),
                }
            })
            .collect();
        results.into_iter().collect()
    }
}

impl<T: Transport> fmt::Debug for FramePool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramePool")
            .field("transport", &self.transport)
            .field("grid_rows", &self.grid_rows)
            .field("grid_cols", &self.grid_cols)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::{fold_low_rank, ApproxEq};

    #[test]
    fn matrix_codec_round_trips() {
        let m = Matrix::random_uniform(5, 3, 7);
        let mut buf = BytesMut::new();
        put_matrix(&mut buf, &m);
        assert_eq!(buf.len(), 8 + 8 * 15);
        let mut frame = buf.freeze();
        let back = get_matrix(&mut frame).unwrap();
        assert_eq!(back, m);
        assert!(!frame.has_remaining());
    }

    #[test]
    fn truncated_frames_are_malformed_not_panics() {
        let m = Matrix::random_uniform(4, 4, 9);
        let mut buf = BytesMut::new();
        put_matrix(&mut buf, &m);
        let full = buf.freeze();
        let mut truncated = full.slice(0..full.len() - 1);
        assert!(matches!(
            get_matrix(&mut truncated),
            Err(TransportError::Malformed(_))
        ));
        let mut header_only = full.slice(0..6);
        assert!(matches!(
            get_matrix(&mut header_only),
            Err(TransportError::Malformed(_))
        ));
        let mut name = Bytes::from(vec![3, 0, 0, 0, b'a']);
        assert!(matches!(
            get_name(&mut name),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn delta_frame_length_is_deterministic_and_header_exact() {
        let u = Matrix::random_uniform(8, 2, 1);
        let v = Matrix::random_uniform(8, 2, 2);
        let frame = delta_frame("view", &u, &v);
        // tag + (len + "view") + 2 matrix headers + payloads.
        assert_eq!(frame.len(), 1 + 4 + 4 + 16 + 8 * (16 + 16));
        assert_eq!(frame.len(), delta_frame("view", &u, &v).len());
    }

    #[test]
    fn delta_frames_decode_back_to_their_factors() {
        let u = Matrix::random_uniform(8, 2, 61);
        let v = Matrix::random_uniform(8, 2, 62);
        for frame in [delta_frame("X", &u, &v), sparse_delta_frame("X", &u, &v)] {
            let (name, du, dv) = decode_delta_frame(frame).unwrap();
            assert_eq!(name, "X");
            assert_eq!(du, u);
            assert_eq!(dv, v);
        }
        assert!(matches!(
            decode_delta_frame(control_frame(TAG_GATHER)),
            Err(TransportError::Malformed(_))
        ));
        assert!(matches!(
            decode_delta_frame(Bytes::new()),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn pool_applies_deltas_identically_to_the_unpartitioned_fold() {
        for (gr, gc) in [(1, 1), (2, 2), (2, 4), (3, 1)] {
            let pool = WorkerPool::spawn(gr, gc);
            let m0 = Matrix::random_uniform(24, 24, 11);
            pool.install("X", &m0).unwrap();

            let u = Matrix::random_uniform(24, 3, 12);
            let v = Matrix::random_uniform(24, 3, 13);
            let sent = pool.broadcast_delta("X", &u, &v).unwrap();
            assert_eq!(sent, delta_frame("X", &u, &v).len() as u64);

            // Reference: the dense fold of the unpartitioned matrix.
            let mut dense = m0.clone();
            fold_low_rank(&mut dense, &u, &v, false).unwrap();
            let reference = DistMatrix::from_dense_grid(&dense, gr, gc).unwrap();

            let gathered = pool.gather("X").unwrap();
            for (idx, block) in gathered.iter().enumerate() {
                let (br, bc) = (idx / gc, idx % gc);
                assert_eq!(
                    block,
                    reference.block(br, bc),
                    "worker ({br},{bc}) block diverged on grid {gr}x{gc}"
                );
            }
        }
    }

    #[test]
    fn gather_is_a_barrier_over_many_queued_deltas() {
        let pool = WorkerPool::spawn(2, 2);
        let m0 = Matrix::zeros(8, 8);
        pool.install("X", &m0).unwrap();
        let mut expected = m0;
        for seed in 0..20 {
            let u = Matrix::random_uniform(8, 1, seed);
            let v = Matrix::random_uniform(8, 1, seed + 100);
            pool.broadcast_delta("X", &u, &v).unwrap();
            expected
                .add_assign_from(&u.try_matmul(&v.transpose()).unwrap())
                .unwrap();
        }
        let blocks = pool.gather("X").unwrap();
        let mut got = Matrix::zeros(8, 8);
        for (idx, block) in blocks.iter().enumerate() {
            let (br, bc) = (idx / 2, idx % 2);
            got.set_submatrix(br * 4, bc * 4, block).unwrap();
        }
        assert!(got.approx_eq(&expected, 0.0), "pipelined deltas were lost");
    }

    #[test]
    fn reset_forgets_installed_views_and_reinstall_replaces() {
        let pool = WorkerPool::spawn(1, 2);
        let a = Matrix::random_uniform(4, 4, 21);
        let b = Matrix::random_uniform(4, 4, 22);
        pool.install("X", &a).unwrap();
        pool.reset().unwrap();
        pool.install("X", &b).unwrap();
        let blocks = pool.gather("X").unwrap();
        assert_eq!(blocks[0], b.submatrix(0, 0, 4, 2).unwrap());
        assert_eq!(blocks[1], b.submatrix(0, 2, 4, 2).unwrap());
    }

    #[test]
    fn flagged_codec_round_trips_both_encodings() {
        // Sparse-preferring: 2 nonzeros in a 6×2 factor (2·2 < 12).
        let mut sp = Matrix::zeros(6, 2);
        sp.set(1, 0, 3.5);
        sp.set(4, 1, -2.25);
        // Dense-preferring: every cell nonzero.
        let dn = Matrix::random_uniform(3, 3, 17);
        for m in [&sp, &dn] {
            let mut buf = BytesMut::new();
            put_matrix_auto(&mut buf, m);
            let mut frame = buf.freeze();
            let back = get_matrix_auto(&mut frame).unwrap();
            assert_eq!(&back, m);
            assert!(!frame.has_remaining());
        }
        assert!(factor_prefers_sparse(&sp));
        assert!(!factor_prefers_sparse(&dn));
        // Exact lengths: sparse = 1+8+4+16·nnz, dense = 1+8+8·len.
        let mut buf = BytesMut::new();
        put_matrix_auto(&mut buf, &sp);
        assert_eq!(buf.len(), 13 + 16 * 2);
        let mut buf = BytesMut::new();
        put_matrix_auto(&mut buf, &dn);
        assert_eq!(buf.len(), 9 + 8 * 9);
    }

    #[test]
    fn sparse_encoding_engages_exactly_when_shorter() {
        // Densities straddling the 2·nnz = len threshold on an 8×4 factor
        // (len 32): nnz 15 → sparse (30 < 32), nnz 16 → dense (32 ≮ 32).
        for (nnz, expect_sparse) in [(15usize, true), (16usize, false)] {
            let mut m = Matrix::zeros(8, 4);
            for i in 0..nnz {
                m.set(i / 4, i % 4, 1.0 + i as f64);
            }
            assert_eq!(factor_prefers_sparse(&m), expect_sparse, "nnz {nnz}");
            let mut buf = BytesMut::new();
            put_matrix_auto(&mut buf, &m);
            let dense_len = 9 + 8 * m.len();
            if expect_sparse {
                assert!(buf.len() < dense_len);
            } else {
                assert_eq!(buf.len(), dense_len);
            }
            let back = get_matrix_auto(&mut buf.freeze()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn truncated_sparse_frames_are_malformed_not_panics() {
        let mut sp = Matrix::zeros(6, 2);
        sp.set(2, 1, 9.0);
        let mut buf = BytesMut::new();
        put_matrix_auto(&mut buf, &sp);
        let full = buf.freeze();
        for cut in [0, 5, full.len() - 1] {
            let mut truncated = full.slice(0..cut);
            assert!(matches!(
                get_matrix_auto(&mut truncated),
                Err(TransportError::Malformed(_))
            ));
        }
        // An out-of-bounds triplet is a decode error, not a panic.
        let mut bad = BytesMut::new();
        bad.put_u8(ENC_SPARSE);
        bad.put_u32_le(2);
        bad.put_u32_le(2);
        bad.put_u32_le(1);
        bad.put_u32_le(7); // row 7 of a 2×2 matrix
        bad.put_u32_le(0);
        bad.put_f64_le(1.0);
        assert!(matches!(
            get_matrix_auto(&mut bad.freeze()),
            Err(TransportError::Malformed(_))
        ));
        // Unknown flag byte likewise.
        let mut unknown = Bytes::from(vec![9u8]);
        assert!(matches!(
            get_matrix_auto(&mut unknown),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn sparse_broadcast_folds_identically_to_dense_and_costs_fewer_bytes() {
        for (gr, gc) in [(1, 1), (2, 2), (2, 4)] {
            let n = 24;
            let m0 = Matrix::random_uniform(n, n, 41);

            // A sparse rank-2 delta: two touched rows, a handful of cols.
            let mut u = Matrix::zeros(n, 2);
            u.set(3, 0, 1.0);
            u.set(17, 1, 1.0);
            let mut v = Matrix::zeros(n, 2);
            v.set(0, 0, 2.5);
            v.set(9, 0, -1.25);
            v.set(4, 1, 0.75);

            let dense_pool = WorkerPool::spawn(gr, gc);
            dense_pool.install("X", &m0).unwrap();
            let dense_len = dense_pool.broadcast_delta("X", &u, &v).unwrap();

            let sparse_pool = WorkerPool::spawn(gr, gc);
            sparse_pool.install("X", &m0).unwrap();
            let sparse_len = sparse_pool.broadcast_delta_sparse("X", &u, &v).unwrap();

            assert!(
                sparse_len < dense_len,
                "sparse frame ({sparse_len}B) not shorter than dense ({dense_len}B)"
            );
            assert_eq!(sparse_len, sparse_delta_frame("X", &u, &v).len() as u64);

            let dense_blocks = dense_pool.gather("X").unwrap();
            let sparse_blocks = sparse_pool.gather("X").unwrap();
            assert_eq!(
                dense_blocks, sparse_blocks,
                "sparse frame diverged from dense on grid {gr}x{gc}"
            );
        }
    }

    #[test]
    fn sparse_frame_with_dense_factors_still_decodes() {
        // Both factors dense-preferring: the tag-5 frame degenerates to
        // flag-prefixed dense payloads and must still fold correctly.
        let pool = WorkerPool::spawn(2, 2);
        let m0 = Matrix::random_uniform(8, 8, 51);
        pool.install("X", &m0).unwrap();
        let u = Matrix::random_uniform(8, 2, 52);
        let v = Matrix::random_uniform(8, 2, 53);
        pool.broadcast_delta_sparse("X", &u, &v).unwrap();
        let mut expected = m0;
        expected
            .add_assign_from(&u.try_matmul(&v.transpose()).unwrap())
            .unwrap();
        let blocks = pool.gather("X").unwrap();
        for (idx, block) in blocks.iter().enumerate() {
            let (br, bc) = (idx / 2, idx % 2);
            assert_eq!(block, &expected.submatrix(br * 4, bc * 4, 4, 4).unwrap());
        }
    }

    #[test]
    fn rank_zero_deltas_are_noops() {
        let pool = WorkerPool::spawn(2, 1);
        let m0 = Matrix::random_uniform(6, 6, 31);
        pool.install("X", &m0).unwrap();
        pool.broadcast_delta("X", &Matrix::zeros(6, 0), &Matrix::zeros(6, 0))
            .unwrap();
        let blocks = pool.gather("X").unwrap();
        assert_eq!(blocks[0], m0.submatrix(0, 0, 3, 6).unwrap());
    }

    #[test]
    fn delta_for_uninstalled_view_poisons_instead_of_panicking() {
        let pool = WorkerPool::spawn(2, 2);
        let u = Matrix::random_uniform(8, 1, 71);
        let v = Matrix::random_uniform(8, 1, 72);
        // No view installed: historically this panicked the worker thread
        // and the next gather hung forever. Now it poisons, and the gather
        // surfaces the original failure as a typed error.
        pool.broadcast_delta("X", &u, &v).unwrap();
        let err = pool.gather("X").unwrap_err();
        match err {
            TransportError::Worker { message, .. } => {
                assert!(message.contains("uninstalled view 'X'"), "got: {message}");
            }
            other => panic!("expected a Worker protocol error, got {other:?}"),
        }
        // The worker thread is still alive: a reset clears the poison and
        // the pool is fully usable again.
        pool.reset().unwrap();
        let m0 = Matrix::random_uniform(8, 8, 73);
        pool.install("X", &m0).unwrap();
        pool.broadcast_delta("X", &u, &v).unwrap();
        let blocks = pool.gather("X").unwrap();
        let mut expected = m0;
        expected
            .add_assign_from(&u.try_matmul(&v.transpose()).unwrap())
            .unwrap();
        assert_eq!(blocks[0], expected.submatrix(0, 0, 4, 4).unwrap());
    }

    #[test]
    fn unknown_frame_tag_poisons_instead_of_panicking() {
        let pool = WorkerPool::spawn(1, 1);
        let m0 = Matrix::random_uniform(4, 4, 81);
        pool.install("X", &m0).unwrap();
        pool.transport().send(0, control_frame(42)).unwrap();
        let err = pool.gather("X").unwrap_err();
        assert!(matches!(err, TransportError::Worker { .. }), "{err:?}");
        assert!(err.to_string().contains("unknown frame tag 42"));
        // Reset + reinstall recovers without respawning the thread.
        pool.reset().unwrap();
        pool.install("X", &m0).unwrap();
        assert_eq!(pool.gather("X").unwrap()[0], m0);
    }

    #[test]
    fn gather_of_uninstalled_view_errors_without_poisoning() {
        let pool = WorkerPool::spawn(1, 2);
        let m0 = Matrix::random_uniform(4, 4, 91);
        pool.install("X", &m0).unwrap();
        let err = pool.gather("Y").unwrap_err();
        assert!(matches!(err, TransportError::Worker { .. }), "{err:?}");
        // A read miss is not poison: the installed view is still gatherable
        // with no reset in between, and no stale replies are left queued.
        let blocks = pool.gather("X").unwrap();
        assert_eq!(blocks[0], m0.submatrix(0, 0, 4, 2).unwrap());
    }

    #[test]
    fn killed_worker_surfaces_as_disconnect_not_a_hang() {
        let mut pool = WorkerPool::spawn(2, 2);
        let m0 = Matrix::random_uniform(8, 8, 95);
        pool.install("X", &m0).unwrap();
        pool.kill_worker(2);
        let err = pool.gather("X").unwrap_err();
        assert_eq!(err, TransportError::WorkerDisconnected { worker: 2 });
        // Revive respawns the dead thread; after a re-install the pool is
        // whole again (revived workers start empty, like a fresh process).
        assert_eq!(pool.revive().unwrap(), 1);
        pool.reset().unwrap();
        pool.install("X", &m0).unwrap();
        let blocks = pool.gather("X").unwrap();
        assert_eq!(blocks[2], m0.submatrix(4, 0, 4, 4).unwrap());
    }

    #[test]
    fn failed_gather_drains_replies_so_the_next_gather_is_clean() {
        let pool = WorkerPool::spawn(2, 2);
        let m0 = Matrix::random_uniform(8, 8, 97);
        pool.install("X", &m0).unwrap();
        // Poison a single worker: the gather errors on it, but the other
        // three workers' OK replies must be drained, not left queued.
        pool.transport().send(1, control_frame(99)).unwrap();
        assert!(pool.gather("X").is_err());
        pool.reset().unwrap();
        pool.install("X", &m0).unwrap();
        let blocks = pool.gather("X").unwrap();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0], m0.submatrix(0, 0, 4, 4).unwrap());
    }
}
