//! Multi-process transport: the byte-frame protocol over TCP or Unix
//! sockets.
//!
//! [`SocketTransport`] is the coordinator's side: one connection per grid
//! worker, each carrying length-prefixed [`transport`](crate::transport)
//! frames. [`serve_worker`] is the worker's side: an accept loop that runs
//! the same [`WorkerState`](crate::transport) frame machine as the
//! in-process channel workers, so a worker *process* is bit-identical to a
//! worker *thread* (the `linview worker` subcommand is a thin wrapper over
//! it). [`WorkerServer`] hosts that loop on a thread inside the current
//! process — the self-hosted deployment used by tests and the CLI's
//! default socket mode — and exposes an abrupt [`WorkerServer::kill`] for
//! fault-injection.
//!
//! # Wire format
//!
//! Every frame (both directions) is `u32` little-endian length followed by
//! that many payload bytes; payloads are exactly the channel transport's
//! frames. Lengths above [`MAX_FRAME_LEN`] are rejected before allocation,
//! so a corrupt or hostile length header cannot make either side allocate
//! unboundedly. A connection opens with a handshake: the coordinator sends
//! `"LVWK"`, a protocol version, and the worker's grid position; the worker
//! echoes `"LVOK"` and the version. Everything is validated — a peer that
//! answers wrongly is a [`TransportError::Handshake`], not undefined
//! behavior.
//!
//! # Failure model
//!
//! Reads on the coordinator side carry a timeout, so a dead or stalled
//! peer surfaces as [`TransportError::Timeout`] instead of blocking a
//! gather forever. Any I/O error drops that worker's connection; a
//! subsequent [`Transport::revive`] redials with bounded
//! exponential backoff ([`SocketConfig`]), which is how recovery waits out
//! a worker that is being restarted. Reconnected workers start empty —
//! exactly like a freshly spawned process — and the caller re-installs
//! state (a re-materialize, or the engine's checkpoint/replay recovery).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use crate::transport::{
    control_frame, FrameOutcome, Transport, TransportError, TransportResult, WorkerState,
    TAG_SHUTDOWN,
};

/// Largest frame either side will accept: 1 GiB. A length header above
/// this is rejected *before* allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

const HELLO_MAGIC: &[u8; 4] = b"LVWK";
const ACK_MAGIC: &[u8; 4] = b"LVOK";
const PROTOCOL_VERSION: u32 = 1;

/// Where one worker listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// A TCP endpoint, e.g. `127.0.0.1:7401`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl PeerAddr {
    /// Parses `tcp:HOST:PORT` or `unix:/path/to.sock` (a bare string
    /// containing `/` is treated as a Unix path).
    pub fn parse(spec: &str) -> TransportResult<PeerAddr> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            if rest.rsplit_once(':').is_none() {
                return Err(TransportError::Config(format!(
                    "tcp address '{rest}' is not HOST:PORT"
                )));
            }
            Ok(PeerAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = spec.strip_prefix("unix:") {
            Ok(PeerAddr::Unix(PathBuf::from(rest)))
        } else if spec.contains('/') {
            Ok(PeerAddr::Unix(PathBuf::from(spec)))
        } else {
            Err(TransportError::Config(format!(
                "address '{spec}' is neither tcp:HOST:PORT nor unix:/path"
            )))
        }
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerAddr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
            PeerAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Dial/read behavior of a [`SocketTransport`].
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// How many connection attempts before giving up on a peer.
    pub connect_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff_start: Duration,
    /// Upper bound on the per-retry backoff.
    pub backoff_cap: Duration,
    /// Reply-read timeout; `None` blocks forever (not recommended — a dead
    /// peer then hangs gathers).
    pub read_timeout: Option<Duration>,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            connect_attempts: 10,
            backoff_start: Duration::from_millis(30),
            backoff_cap: Duration::from_millis(500),
            read_timeout: Some(Duration::from_secs(10)),
        }
    }
}

// ---------------------------------------------------------------------------
// Streams and framing
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn write_frame(stream: &mut Stream, frame: &[u8]) -> io::Result<()> {
    debug_assert!(frame.len() as u64 <= MAX_FRAME_LEN as u64);
    let mut buf = Vec::with_capacity(4 + frame.len());
    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame);
    stream.write_all(&buf)?;
    stream.flush()
}

/// Writes a whole batch of frames as one `write_all` — the per-stage frame
/// batching that keeps a flush round to a single syscall per worker.
fn write_frame_batch(stream: &mut Stream, frames: &[Bytes]) -> io::Result<()> {
    let total: usize = frames.iter().map(|f| 4 + f.len()).sum();
    let mut buf = Vec::with_capacity(total);
    for frame in frames {
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(frame);
    }
    stream.write_all(&buf)?;
    stream.flush()
}

fn read_frame(stream: &mut Stream) -> io::Result<Bytes> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(Bytes::from(payload))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

fn map_io(worker: usize, e: io::Error) -> TransportError {
    if is_timeout(&e) {
        TransportError::Timeout { worker }
    } else if is_disconnect(&e) {
        TransportError::WorkerDisconnected { worker }
    } else {
        TransportError::Io {
            worker,
            message: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

fn hello_frame(grid_rows: usize, grid_cols: usize, br: usize, bc: usize) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 4 * 5);
    buf.put_slice(HELLO_MAGIC);
    buf.put_u32_le(PROTOCOL_VERSION);
    buf.put_u32_le(grid_rows as u32);
    buf.put_u32_le(grid_cols as u32);
    buf.put_u32_le(br as u32);
    buf.put_u32_le(bc as u32);
    buf.freeze()
}

fn ack_frame() -> Bytes {
    let mut buf = BytesMut::with_capacity(8);
    buf.put_slice(ACK_MAGIC);
    buf.put_u32_le(PROTOCOL_VERSION);
    buf.freeze()
}

struct Hello {
    br: usize,
    bc: usize,
}

fn parse_hello(mut frame: Bytes) -> Result<Hello, String> {
    if frame.remaining() != 4 + 4 * 5 {
        return Err(format!(
            "hello frame has {} bytes, expected 24",
            frame.len()
        ));
    }
    let mut magic = [0u8; 4];
    frame.copy_to_slice(&mut magic);
    if &magic != HELLO_MAGIC {
        return Err("bad hello magic (not a linview coordinator?)".to_string());
    }
    let version = frame.get_u32_le();
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version {version}, this worker speaks {PROTOCOL_VERSION}"
        ));
    }
    let _grid_rows = frame.get_u32_le();
    let _grid_cols = frame.get_u32_le();
    let br = frame.get_u32_le() as usize;
    let bc = frame.get_u32_le() as usize;
    Ok(Hello { br, bc })
}

fn check_ack(mut frame: Bytes) -> Result<(), String> {
    if frame.remaining() != 8 {
        return Err(format!("ack frame has {} bytes, expected 8", frame.len()));
    }
    let mut magic = [0u8; 4];
    frame.copy_to_slice(&mut magic);
    if &magic != ACK_MAGIC {
        return Err("bad ack magic (not a linview worker?)".to_string());
    }
    let version = frame.get_u32_le();
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "worker speaks protocol version {version}, expected {PROTOCOL_VERSION}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

fn connect_once(addr: &PeerAddr) -> io::Result<Stream> {
    match addr {
        PeerAddr::Tcp(hostport) => Ok(Stream::Tcp(TcpStream::connect(hostport.as_str())?)),
        PeerAddr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
    }
}

fn dial(
    worker: usize,
    addr: &PeerAddr,
    grid: (usize, usize),
    config: &SocketConfig,
) -> TransportResult<Stream> {
    let (grid_rows, grid_cols) = grid;
    let (br, bc) = (worker / grid_cols, worker % grid_cols);
    let mut backoff = config.backoff_start;
    let mut last_err = String::new();
    for attempt in 0..config.connect_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(config.backoff_cap);
        }
        match connect_once(addr) {
            Ok(mut stream) => {
                stream
                    .set_read_timeout(config.read_timeout)
                    .map_err(|e| map_io(worker, e))?;
                write_frame(&mut stream, &hello_frame(grid_rows, grid_cols, br, bc))
                    .map_err(|e| map_io(worker, e))?;
                let ack = match read_frame(&mut stream) {
                    Ok(ack) => ack,
                    Err(e) if is_timeout(&e) || is_disconnect(&e) => {
                        // Listener accepted but never answered (flaky peer,
                        // wrong service): that attempt failed, keep retrying
                        // under the same bounded backoff.
                        last_err = format!("no handshake ack: {e}");
                        continue;
                    }
                    Err(e) => return Err(map_io(worker, e)),
                };
                check_ack(ack).map_err(|message| TransportError::Handshake { worker, message })?;
                return Ok(stream);
            }
            Err(e) => last_err = e.to_string(),
        }
    }
    Err(TransportError::Io {
        worker,
        message: format!(
            "connect to {addr} failed after {} attempts: {last_err}",
            config.connect_attempts.max(1)
        ),
    })
}

/// The byte-frame protocol carried over one socket per worker.
///
/// See the [module docs](self) for the wire format and failure model. All
/// operations take `&self`; each peer's connection sits behind its own
/// mutex, and any I/O error tears that connection down so the failure mode
/// is always "dead peer", never "desynchronized stream".
pub struct SocketTransport {
    addrs: Vec<PeerAddr>,
    grid: (usize, usize),
    config: SocketConfig,
    peers: Vec<Mutex<Option<Stream>>>,
}

impl SocketTransport {
    /// Connects to one worker per address, in row-major grid order, with
    /// bounded backoff per peer. `addrs.len()` must equal
    /// `grid_rows * grid_cols`.
    pub fn connect(
        grid_rows: usize,
        grid_cols: usize,
        addrs: Vec<PeerAddr>,
        config: SocketConfig,
    ) -> TransportResult<SocketTransport> {
        if grid_rows == 0 || grid_cols == 0 {
            return Err(TransportError::Config(
                "worker grid must have at least one row and column".to_string(),
            ));
        }
        if addrs.len() != grid_rows * grid_cols {
            return Err(TransportError::Config(format!(
                "{} worker addresses cannot form a {grid_rows}x{grid_cols} grid",
                addrs.len()
            )));
        }
        let mut peers = Vec::with_capacity(addrs.len());
        for (worker, addr) in addrs.iter().enumerate() {
            let stream = dial(worker, addr, (grid_rows, grid_cols), &config)?;
            peers.push(Mutex::new(Some(stream)));
        }
        Ok(SocketTransport {
            addrs,
            grid: (grid_rows, grid_cols),
            config,
            peers,
        })
    }

    /// The worker addresses, row-major.
    pub fn addrs(&self) -> &[PeerAddr] {
        &self.addrs
    }

    /// Drops worker `worker`'s connection without any protocol goodbye —
    /// from the worker's side this is indistinguishable from a coordinator
    /// crash; from the coordinator's side the worker is now dead until
    /// [`Transport::revive`].
    pub fn disconnect(&self, worker: usize) {
        if let Some(stream) = self.peers[worker].lock().take() {
            stream.shutdown();
        }
    }

    fn with_peer<R>(
        &self,
        worker: usize,
        op: impl FnOnce(&mut Stream) -> io::Result<R>,
    ) -> TransportResult<R> {
        let mut slot = self.peers[worker].lock();
        let stream = slot
            .as_mut()
            .ok_or(TransportError::WorkerDisconnected { worker })?;
        match op(stream) {
            Ok(value) => Ok(value),
            Err(e) => {
                // Any I/O failure (including a timeout — the stream is now
                // desynchronized) kills the connection; revive() redials.
                if let Some(dead) = slot.take() {
                    dead.shutdown();
                }
                Err(map_io(worker, e))
            }
        }
    }
}

impl Transport for SocketTransport {
    fn label(&self) -> &'static str {
        "socket"
    }

    fn workers(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, worker: usize, frame: Bytes) -> TransportResult<()> {
        self.with_peer(worker, |stream| write_frame(stream, &frame))
    }

    fn send_batch(&self, worker: usize, frames: &[Bytes]) -> TransportResult<()> {
        self.with_peer(worker, |stream| write_frame_batch(stream, frames))
    }

    fn recv_reply(&self, worker: usize) -> TransportResult<Bytes> {
        self.with_peer(worker, read_frame)
    }

    fn revive(&mut self) -> TransportResult<usize> {
        let mut revived = 0;
        for worker in 0..self.peers.len() {
            if self.peers[worker].lock().is_some() {
                continue;
            }
            let stream = dial(worker, &self.addrs[worker], self.grid, &self.config)?;
            *self.peers[worker].lock() = Some(stream);
            revived += 1;
        }
        Ok(revived)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        let frame = control_frame(TAG_SHUTDOWN);
        for worker in 0..self.peers.len() {
            let _ = self.send(worker, frame.clone());
        }
    }
}

impl fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocketTransport")
            .field("addrs", &self.addrs)
            .field("grid", &self.grid)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// A bound listener for one worker (TCP or Unix).
#[derive(Debug)]
pub enum WorkerListener {
    /// Listening on TCP.
    Tcp(TcpListener),
    /// Listening on a Unix-domain socket path.
    Unix(UnixListener),
}

/// Binds a listener at `addr`.
///
/// For Unix sockets the bind is attempted *first*; only when the path is
/// already taken is the existing socket probed with a connection attempt.
/// A live socket (the probe connects) means another worker owns the
/// address, and the bind fails with `AddrInUse` — it must NOT be unlinked
/// out from under its owner. A dead socket (the probe is refused) is the
/// stale file a killed worker left behind: it is unlinked and the bind
/// retried, so `linview worker` restarts cleanly on the same address.
///
/// The old unlink-before-bind order had a race: two workers launched on
/// the same path could each unlink the other's freshly bound live socket,
/// leaving a coordinator dialing a listener whose filesystem name was
/// gone.
pub fn bind(addr: &PeerAddr) -> io::Result<WorkerListener> {
    match addr {
        PeerAddr::Tcp(hostport) => Ok(WorkerListener::Tcp(TcpListener::bind(hostport.as_str())?)),
        PeerAddr::Unix(path) => match UnixListener::bind(path) {
            Ok(l) => Ok(WorkerListener::Unix(l)),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(path).is_ok() {
                    // A live worker answers on this path: surface the
                    // collision instead of stealing the address.
                    return Err(e);
                }
                std::fs::remove_file(path)?;
                Ok(WorkerListener::Unix(UnixListener::bind(path)?))
            }
            Err(e) => Err(e),
        },
    }
}

impl WorkerListener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            WorkerListener::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
            WorkerListener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }

    /// The locally bound address (resolves `port 0` for TCP).
    pub fn local_addr(&self) -> io::Result<PeerAddr> {
        match self {
            WorkerListener::Tcp(l) => Ok(PeerAddr::Tcp(l.local_addr()?.to_string())),
            WorkerListener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("unnamed unix socket"))?;
                Ok(PeerAddr::Unix(path.to_path_buf()))
            }
        }
    }
}

/// One coordinator session: handshake, then the frame loop over a fresh
/// [`WorkerState`]. Returns `Ok(true)` on a protocol shutdown, `Ok(false)`
/// when the coordinator vanished (EOF / connection error) — the caller
/// goes back to accepting either way.
fn handle_session(mut stream: Stream) -> io::Result<bool> {
    let hello = match read_frame(&mut stream).map(parse_hello)? {
        Ok(hello) => hello,
        Err(reason) => {
            // A bad handshake is not worth a reply the peer could misread;
            // drop the connection and report locally.
            return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
        }
    };
    write_frame(&mut stream, &ack_frame())?;
    let mut state = WorkerState::new(hello.br, hello.bc);
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(e) if is_disconnect(&e) => return Ok(false),
            Err(e) => return Err(e),
        };
        match state.handle(frame) {
            FrameOutcome::Continue => {}
            FrameOutcome::Reply(reply) => write_frame(&mut stream, &reply)?,
            FrameOutcome::Shutdown => return Ok(true),
        }
    }
}

/// Options for [`serve_worker`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Exit after the first session ends with a protocol shutdown instead
    /// of accepting the next coordinator.
    pub once: bool,
}

/// Runs a worker's accept loop on the current thread: one coordinator
/// session at a time, each with fresh state (a reconnecting coordinator
/// always re-installs, so carrying blocks across sessions would only mask
/// bugs). Returns when `once` is set and a session ends with a protocol
/// shutdown. This is the body of the `linview worker` subcommand.
pub fn serve_worker(listener: WorkerListener, options: ServeOptions) -> io::Result<()> {
    loop {
        let stream = listener.accept()?;
        match handle_session(stream) {
            Ok(clean_shutdown) => {
                if options.once && clean_shutdown {
                    return Ok(());
                }
            }
            Err(_) => {
                // A failed session (bad handshake, I/O error mid-frame)
                // never takes the worker down; the next coordinator gets a
                // fresh session.
            }
        }
    }
}

struct ServerShared {
    stop: AtomicBool,
    active: Mutex<Option<Stream>>,
}

/// A worker accept loop hosted on a thread in this process — the
/// self-hosted deployment used by tests and the CLI's default socket mode.
///
/// [`WorkerServer::kill`] tears the worker down *abruptly* (active
/// connection reset, no protocol goodbye): the coordinator-visible
/// behavior is identical to `SIGKILL` of a worker process, which is what
/// the fault-tolerance suite injects. A killed server's address can be
/// re-bound by a fresh `WorkerServer::spawn` to model a restart.
pub struct WorkerServer {
    addr: PeerAddr,
    shared: Arc<ServerShared>,
    handle: Option<JoinHandle<()>>,
}

impl WorkerServer {
    /// Binds `addr` and serves sessions on a background thread.
    pub fn spawn(addr: &PeerAddr) -> io::Result<WorkerServer> {
        let listener = bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            active: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("linview-socket-worker".to_string())
            .spawn(move || {
                while !thread_shared.stop.load(Ordering::SeqCst) {
                    let Ok(stream) = listener.accept() else {
                        break;
                    };
                    if thread_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Keep a clone so kill() can reset the live session.
                    *thread_shared.active.lock() = stream.try_clone().ok();
                    let _ = handle_session(stream);
                    *thread_shared.active.lock() = None;
                }
            })?;
        Ok(WorkerServer {
            addr,
            shared,
            handle: Some(handle),
        })
    }

    /// Where this worker listens.
    pub fn addr(&self) -> &PeerAddr {
        &self.addr
    }

    fn shutdown_thread(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(stream) = self.shared.active.lock().take() {
            stream.shutdown();
        }
        // Unblock the accept() call; the loop re-checks the stop flag
        // before serving whatever this dummy connection is.
        let _ = connect_once(&self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        if let PeerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Kills the worker abruptly: the active session's connection is reset
    /// mid-protocol and the listener goes away — the in-process equivalent
    /// of `SIGKILL`ing a `linview worker` process.
    pub fn kill(mut self) {
        self.shutdown_thread();
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.shutdown_thread();
    }
}

impl fmt::Debug for WorkerServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Spawns `grid_rows * grid_cols` self-hosted workers on fresh Unix-domain
/// socket paths under the system temp directory, returning the servers and
/// their addresses (row-major). The convenience constructor behind the
/// CLI's self-hosted socket mode and the test suites.
pub fn spawn_local_grid(
    grid_rows: usize,
    grid_cols: usize,
    tag: &str,
) -> io::Result<(Vec<WorkerServer>, Vec<PeerAddr>)> {
    let pid = std::process::id();
    let mut servers = Vec::with_capacity(grid_rows * grid_cols);
    let mut addrs = Vec::with_capacity(grid_rows * grid_cols);
    for idx in 0..grid_rows * grid_cols {
        let path = std::env::temp_dir().join(format!("lv-{tag}-{pid}-{idx}.sock"));
        let server = WorkerServer::spawn(&PeerAddr::Unix(path))?;
        addrs.push(server.addr().clone());
        servers.push(server);
    }
    Ok((servers, addrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FramePool;
    use linview_matrix::Matrix;

    fn local_pool(
        gr: usize,
        gc: usize,
        tag: &str,
    ) -> (Vec<WorkerServer>, FramePool<SocketTransport>) {
        let (servers, addrs) = spawn_local_grid(gr, gc, tag).unwrap();
        let transport = SocketTransport::connect(gr, gc, addrs, SocketConfig::default()).unwrap();
        (
            servers,
            FramePool::from_transport(gr, gc, transport).unwrap(),
        )
    }

    #[test]
    fn addr_parsing_round_trips_and_rejects_garbage() {
        assert_eq!(
            PeerAddr::parse("tcp:127.0.0.1:7401").unwrap(),
            PeerAddr::Tcp("127.0.0.1:7401".to_string())
        );
        assert_eq!(
            PeerAddr::parse("unix:/tmp/w0.sock").unwrap(),
            PeerAddr::Unix(PathBuf::from("/tmp/w0.sock"))
        );
        assert_eq!(
            PeerAddr::parse("/tmp/w1.sock").unwrap(),
            PeerAddr::Unix(PathBuf::from("/tmp/w1.sock"))
        );
        assert!(matches!(
            PeerAddr::parse("carrier-pigeon"),
            Err(TransportError::Config(_))
        ));
        assert!(matches!(
            PeerAddr::parse("tcp:no-port"),
            Err(TransportError::Config(_))
        ));
        assert_eq!(
            PeerAddr::parse("unix:/tmp/w0.sock").unwrap().to_string(),
            "unix:/tmp/w0.sock"
        );
    }

    #[test]
    fn socket_pool_matches_the_channel_pool_bit_for_bit() {
        let (gr, gc) = (2, 2);
        let (_servers, pool) = local_pool(gr, gc, "bitident");
        let channel_pool = crate::transport::WorkerPool::spawn(gr, gc);

        let m0 = Matrix::random_uniform(16, 16, 301);
        pool.install("X", &m0).unwrap();
        channel_pool.install("X", &m0).unwrap();

        for seed in 0..6 {
            let u = Matrix::random_uniform(16, 2, 400 + seed);
            let v = Matrix::random_uniform(16, 2, 500 + seed);
            let socket_len = pool.broadcast_delta("X", &u, &v).unwrap();
            let channel_len = channel_pool.broadcast_delta("X", &u, &v).unwrap();
            assert_eq!(socket_len, channel_len, "frame lengths diverged");
        }
        assert_eq!(pool.gather("X").unwrap(), channel_pool.gather("X").unwrap());
    }

    #[test]
    fn batched_sends_fold_identically_to_singles() {
        let (gr, gc) = (1, 2);
        let (_servers, pool) = local_pool(gr, gc, "batch");
        let m0 = Matrix::random_uniform(8, 8, 311);
        pool.install("X", &m0).unwrap();
        let frames: Vec<Bytes> = (0..5)
            .map(|seed| {
                let u = Matrix::random_uniform(8, 1, 600 + seed);
                let v = Matrix::random_uniform(8, 1, 700 + seed);
                crate::transport::delta_frame("X", &u, &v)
            })
            .collect();
        for result in pool.broadcast_frames(&frames) {
            result.unwrap();
        }

        let reference = crate::transport::WorkerPool::spawn(gr, gc);
        reference.install("X", &m0).unwrap();
        for frame in &frames {
            reference.transport().send(0, frame.clone()).unwrap();
            reference.transport().send(1, frame.clone()).unwrap();
        }
        assert_eq!(pool.gather("X").unwrap(), reference.gather("X").unwrap());
    }

    #[test]
    fn dead_peer_is_a_typed_error_then_revive_reconnects() {
        let (gr, gc) = (1, 2);
        let (servers, mut pool) = local_pool(gr, gc, "revive");
        let m0 = Matrix::random_uniform(8, 8, 321);
        pool.install("X", &m0).unwrap();

        // Kill worker 1 abruptly and restart a fresh server on its address.
        let mut servers = servers;
        let addr = servers[1].addr().clone();
        servers.remove(1).kill();
        let err = pool.gather("X").unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::WorkerDisconnected { worker: 1 }
                    | TransportError::Timeout { worker: 1 }
                    | TransportError::Io { worker: 1, .. }
            ),
            "unexpected error for the dead peer: {err:?}"
        );
        servers.push(WorkerServer::spawn(&addr).unwrap());

        assert_eq!(pool.revive().unwrap(), 1);
        pool.reset().unwrap();
        pool.install("X", &m0).unwrap();
        let blocks = pool.gather("X").unwrap();
        assert_eq!(blocks[1], m0.submatrix(0, 4, 8, 4).unwrap());
    }

    #[test]
    fn binding_a_live_socket_path_fails_without_unlinking_it() {
        // Two workers racing the same path: the second bind must lose with
        // AddrInUse and must NOT unlink the first worker's live socket
        // (the old unlink-before-bind order did exactly that).
        let path = std::env::temp_dir().join(format!("lv-collide-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addr = PeerAddr::Unix(path.clone());
        let first = WorkerServer::spawn(&addr).unwrap();
        let err = WorkerServer::spawn(&addr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err:?}");
        // The loser left the winner fully intact: the socket file is still
        // there and the worker still completes a handshake on it.
        assert!(path.exists(), "collision unlinked the live socket");
        let mut stream = connect_once(&addr).unwrap();
        write_frame(&mut stream, &hello_frame(1, 1, 0, 0)).unwrap();
        check_ack(read_frame(&mut stream).unwrap()).unwrap();
        drop(stream);
        first.kill();
    }

    #[test]
    fn stale_socket_file_is_reclaimed_on_bind() {
        // A SIGKILLed worker leaves its socket file behind with nobody
        // accepting: the connect-probe fails, so the next bind reclaims
        // the address.
        let path = std::env::temp_dir().join(format!("lv-stale-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        drop(UnixListener::bind(&path).unwrap()); // dead listener, file remains
        assert!(path.exists(), "the stale file must exist for the test");
        let addr = PeerAddr::Unix(path);
        let server = WorkerServer::spawn(&addr).unwrap();
        let mut stream = connect_once(&addr).unwrap();
        write_frame(&mut stream, &hello_frame(1, 1, 0, 0)).unwrap();
        check_ack(read_frame(&mut stream).unwrap()).unwrap();
        drop(stream);
        server.kill();
    }

    #[test]
    fn connect_to_nothing_fails_bounded_not_forever() {
        let path = std::env::temp_dir().join(format!("lv-nobody-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = SocketConfig {
            connect_attempts: 3,
            backoff_start: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(10),
            read_timeout: Some(Duration::from_millis(200)),
        };
        let started = std::time::Instant::now();
        let err = SocketTransport::connect(1, 1, vec![PeerAddr::Unix(path)], config).unwrap_err();
        assert!(
            matches!(err, TransportError::Io { worker: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("after 3 attempts"));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn reconnect_backoff_rides_out_a_late_listener() {
        let path = std::env::temp_dir().join(format!("lv-late-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addr = PeerAddr::Unix(path);
        // The listener only appears after a delay; bounded backoff must
        // ride it out instead of failing fast or spinning.
        let spawn_addr = addr.clone();
        let spawner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            WorkerServer::spawn(&spawn_addr).unwrap()
        });
        let config = SocketConfig {
            connect_attempts: 30,
            backoff_start: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(50),
            read_timeout: Some(Duration::from_secs(2)),
        };
        let transport = SocketTransport::connect(1, 1, vec![addr], config).unwrap();
        assert_eq!(transport.workers(), 1);
        drop(transport);
        spawner.join().unwrap().kill();
    }

    #[test]
    fn oversized_length_header_is_rejected_before_allocation() {
        let (_servers, addrs) = spawn_local_grid(1, 1, "oversize").unwrap();
        // Speak raw bytes: a valid-looking connection that then announces a
        // 3 GiB frame must be cut off, not trusted with an allocation.
        let mut stream = connect_once(&addrs[0]).unwrap();
        write_frame(&mut stream, &hello_frame(1, 1, 0, 0)).unwrap();
        let ack = read_frame(&mut stream).unwrap();
        check_ack(ack).unwrap();
        stream.write_all(&(3u32 << 30).to_le_bytes()).unwrap();
        stream.flush().unwrap();
        // The worker drops the session; our next read sees EOF/reset.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut scratch = [0u8; 1];
        match stream.read(&mut scratch) {
            Ok(0) => {} // clean EOF
            Ok(_) => panic!("worker kept talking after an oversized header"),
            Err(e) => assert!(is_disconnect(&e) || is_timeout(&e), "{e:?}"),
        }
    }

    #[test]
    fn handshake_garbage_is_rejected_and_worker_survives() {
        let (_servers, addrs) = spawn_local_grid(1, 1, "garbage").unwrap();
        // A client that speaks the wrong magic is dropped...
        let mut stream = connect_once(&addrs[0]).unwrap();
        write_frame(&mut stream, b"HTTP/1.1 GET /").unwrap();
        let mut scratch = [0u8; 16];
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match stream.read(&mut scratch) {
            Ok(0) => {}
            Ok(_) => panic!("worker acked a garbage handshake"),
            Err(e) => assert!(is_disconnect(&e) || is_timeout(&e), "{e:?}"),
        }
        drop(stream);
        // ...and the worker still serves the next, well-behaved coordinator.
        let transport = SocketTransport::connect(1, 1, addrs, SocketConfig::default()).unwrap();
        assert_eq!(transport.workers(), 1);
    }
}
