//! Message-plane abstraction and the real byte-stream transport.
//!
//! The [`Transport`] trait is the master-side message plane: everything a
//! session scheduler needs from "the cluster" — typed sends, session-routed
//! receives, liveness probes, byte counters. Two implementations exist:
//!
//! * the in-process [`Cluster`](crate::Cluster) (worker threads and
//!   channels, no simulated latency) — every in-process test and
//!   experiment runs on it; and
//! * [`SocketTransport`]: real worker **processes** reached over TCP or
//!   Unix-domain sockets, speaking length-prefixed [`SessionEnvelope`]
//!   frames in the same little-endian [`codec`](crate::codec). Latency is
//!   whatever the wire provides, byte counters are fed from actual socket
//!   I/O, and connection loss surfaces as the same typed [`ClusterError`]s
//!   the in-process plane produces — so the MPQ retry / steal machinery is
//!   exercised by genuine loss as well as by seeded
//!   [`FaultPlan`](crate::FaultPlan)s.
//!
//! Neither plane injects faults itself: a [`Faulty`](crate::Faulty)
//! worker decorator does, the same way behind a thread or a socket.
//!
//! # Wire protocol
//!
//! One master connects to each worker process (the worker listens, see
//! [`serve_worker`]). After a 12-byte [`Hello`] handshake (magic + worker
//! id, echoed back by the worker), both directions carry a stream of
//! frames:
//!
//! ```text
//! [u32 LE: n = frame length] [n bytes: SessionEnvelope = 8-byte QueryId + payload]
//! ```
//!
//! TCP segments its byte stream without regard for frame boundaries, so
//! [`FrameBuffer`] reassembles explicitly: frames split at arbitrary
//! offsets, several frames coalesced into one read, and a truncated final
//! frame at EOF all decode to exact frames or a typed [`DecodeError`] —
//! never a panic (see the reassembly tests and the framed-stream fuzz
//! suite).

use crate::codec::{DecodeError, Decoder, Encoder, FixedSize, QueryId, SessionEnvelope, Wire};
use crate::metrics::NetworkMetrics;
use crate::runtime::{ClusterError, Control, Inbox, Wait, WorkerCtx, WorkerLogic};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Size of the `u32` little-endian frame-length prefix. Socket byte
/// counters charge `payload + SessionEnvelope::HEADER_BYTES +
/// LENGTH_PREFIX_BYTES` per message — the bytes that actually cross the
/// wire (the in-process plane charges only `payload + header`, since no
/// length prefix exists there).
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Sanity cap on a frame's length prefix; anything larger is treated as
/// stream corruption ([`DecodeError::LengthOverflow`]) rather than an
/// allocation request. Matches the codec's collection-length cap.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// The master-side message plane: what session schedulers require from a
/// cluster, whether in-process ([`Cluster`](crate::Cluster)) or over
/// sockets ([`SocketTransport`]).
///
/// Both planes meet the semantics documented here observably — same
/// typed errors, same session demultiplexing (replies for other sessions
/// are parked, never dropped) — so schedulers cannot tell the planes
/// apart except by wall-clock behavior.
pub trait Transport: Send {
    /// Number of worker nodes.
    fn num_workers(&self) -> usize;

    /// The shared network counters.
    fn metrics(&self) -> &NetworkMetrics;

    /// Whether worker `id` is still reachable (thread running / socket
    /// connected): the analogue of a cluster manager's liveness probe,
    /// consulted when deciding whether a missing reply means a straggler
    /// or a dead node.
    fn is_worker_alive(&self, id: usize) -> bool;

    /// Sends a serialized message to worker `id` on behalf of session
    /// `query`. `is_assignment` marks task-assignment messages; every
    /// plane ignores it (none simulates a launch overhead). It stays, with
    /// [`Cluster::spawn`](crate::Cluster::spawn)'s latency argument, until
    /// ROADMAP 15(d).
    ///
    /// Returns [`ClusterError::WorkerLost`] if the worker is gone.
    ///
    /// # Panics
    /// Panics if `id` is out of range (a protocol bug, not a fault).
    fn send(
        &self,
        id: usize,
        query: QueryId,
        payload: Bytes,
        is_assignment: bool,
    ) -> Result<(), ClusterError>;

    /// Receives the next worker reply for **any** session, blocking.
    /// Parked replies are drained first. Returns
    /// [`ClusterError::AllWorkersLost`] if every worker is gone and no
    /// replies remain.
    fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError>;

    /// Receives the next worker reply for any session, waiting at most
    /// `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Result<(usize, QueryId, Bytes), ClusterError>;

    /// Non-blocking receive: the next reply for any session if one is
    /// already waiting, else [`ClusterError::Timeout`] with a zero wait.
    fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError>;

    /// Session-routed receive: blocks until the next reply owned by
    /// `query`; replies for other sessions are parked for their owners —
    /// the demultiplexer that lets independent sessions share one plane.
    ///
    /// Blocks indefinitely: if the session's worker can crash while other
    /// workers stay alive, the awaited reply may never come. Use
    /// [`Transport::recv_for_timeout`] plus [`Transport::is_worker_alive`]
    /// whenever faults are possible. No master calls either (the MPQ
    /// master routes replies itself); both stay because the frozen
    /// `benchmark/` harness's transport wrapper implements them
    /// (ROADMAP 15).
    fn recv_for(&self, query: QueryId) -> Result<(usize, Bytes), ClusterError>;

    /// Session-routed receive with a deadline: gives up with
    /// [`ClusterError::Timeout`] once `timeout` has elapsed without a reply
    /// for `query`.
    fn recv_for_timeout(
        &self,
        query: QueryId,
        timeout: Duration,
    ) -> Result<(usize, Bytes), ClusterError>;

    /// Shuts the message plane down: workers are told to stop (threads)
    /// or disconnected (sockets), and transport threads are joined.
    /// Idempotent.
    fn shutdown(&mut self);
}

/// Prepends the `u32` little-endian length prefix to a framed
/// [`SessionEnvelope`]: the exact bytes one message occupies on a socket.
pub fn frame_with_prefix(query: QueryId, payload: &[u8]) -> Vec<u8> {
    let framed = SessionEnvelope::frame(query, payload);
    let mut buf = Vec::with_capacity(LENGTH_PREFIX_BYTES + framed.len());
    buf.extend_from_slice(&(framed.len() as u32).to_le_bytes());
    buf.extend_from_slice(&framed);
    buf
}

/// Reassembles [`SessionEnvelope`] frames from an arbitrarily-segmented
/// byte stream.
///
/// Push every `read()` result in with [`FrameBuffer::push`], then drain
/// complete frames with [`FrameBuffer::next_frame`]; at EOF,
/// [`FrameBuffer::finish`] turns leftover bytes — a frame the peer never
/// finished writing — into a typed [`DecodeError::Truncated`] instead of
/// silently discarding them.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends raw bytes as they arrived from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether no partial frame is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Extracts the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes"; errors are stream corruption
    /// (an insane length prefix, or a frame too short to carry its
    /// session header) and poison the connection — the stream cannot be
    /// resynchronized past a corrupt length prefix.
    pub fn next_frame(&mut self) -> Result<Option<SessionEnvelope>, DecodeError> {
        if self.buf.len() < LENGTH_PREFIX_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(DecodeError::LengthOverflow(len as u64));
        }
        if len < SessionEnvelope::HEADER_BYTES {
            // Every frame carries at least its 8-byte session id.
            return Err(DecodeError::Truncated {
                needed: SessionEnvelope::HEADER_BYTES,
                available: len,
            });
        }
        if self.buf.len() < LENGTH_PREFIX_BYTES + len {
            return Ok(None);
        }
        let env =
            SessionEnvelope::unframe(&self.buf[LENGTH_PREFIX_BYTES..LENGTH_PREFIX_BYTES + len])?;
        self.buf.drain(..LENGTH_PREFIX_BYTES + len);
        Ok(Some(env))
    }

    /// Declares the stream ended. Leftover bytes mean the final frame was
    /// truncated mid-write — a typed error, never a silent drop.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let needed = if self.buf.len() < LENGTH_PREFIX_BYTES {
            LENGTH_PREFIX_BYTES
        } else {
            let len =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            LENGTH_PREFIX_BYTES + len
        };
        Err(DecodeError::Truncated {
            needed,
            available: self.buf.len(),
        })
    }
}

/// Address of one worker process: a TCP host:port, or (on Unix) a
/// filesystem socket path written as `unix:/path/to.sock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerAddr {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl std::str::FromStr for WorkerAddr {
    type Err = String;
    fn from_str(s: &str) -> Result<WorkerAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err("empty unix socket path".into());
                }
                return Ok(WorkerAddr::Unix(std::path::PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("unix sockets are not available on this platform".into());
            }
        }
        if s.is_empty() {
            return Err("empty address".into());
        }
        Ok(WorkerAddr::Tcp(s.to_string()))
    }
}

impl fmt::Display for WorkerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerAddr::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            WorkerAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A listening socket of either family, for the worker side.
pub enum WireListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl WireListener {
    /// Binds a listener on `addr`. For TCP, port 0 picks a free port —
    /// see [`WireListener::local_addr`] for the resolved one.
    pub fn bind(addr: &WorkerAddr) -> std::io::Result<WireListener> {
        match addr {
            WorkerAddr::Tcp(a) => Ok(WireListener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            WorkerAddr::Unix(path) => Ok(WireListener::Unix(UnixListener::bind(path)?)),
        }
    }

    /// Accepts one master connection.
    pub fn accept(&self) -> std::io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            #[cfg(unix)]
            WireListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(WireStream::Unix(stream))
            }
        }
    }

    /// The bound address, printable in the `--connect` syntax.
    pub fn local_addr(&self) -> std::io::Result<WorkerAddr> {
        match self {
            WireListener::Tcp(l) => Ok(WorkerAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            WireListener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "unnamed unix socket")
                })?;
                Ok(WorkerAddr::Unix(path.to_path_buf()))
            }
        }
    }
}

/// A connected byte stream of either family.
pub enum WireStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Connects to a listening worker.
    pub fn connect(addr: &WorkerAddr) -> std::io::Result<WireStream> {
        match addr {
            WorkerAddr::Tcp(a) => {
                let stream = TcpStream::connect(a)?;
                // Protocol frames are small; Nagle's algorithm would add
                // round-trip-scale delays to every exchange.
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            #[cfg(unix)]
            WorkerAddr::Unix(path) => Ok(WireStream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// A second handle to the same connection (separate read/write
    /// ownership, e.g. a reader thread plus a writer).
    pub fn try_clone(&self) -> std::io::Result<WireStream> {
        match self {
            WireStream::Tcp(s) => Ok(WireStream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            WireStream::Unix(s) => Ok(WireStream::Unix(s.try_clone()?)),
        }
    }

    /// Severs both directions; blocked reads on other clones return EOF.
    /// Errors are ignored — the peer may already be gone.
    pub fn shutdown_both(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            WireStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// The connection handshake: the master sends it right after connecting,
/// the worker validates and echoes it back verbatim. The magic's last
/// byte is the protocol version — bumped on every change to a wire
/// layout (`tests/wire_spec.rs` pins it to a hash of the declared
/// layouts) — so a mismatched or non-pqopt peer fails the handshake with a
/// typed error instead of desynchronizing the frame stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The worker id the master assigns to this connection (its index in
    /// the `--connect` list); the worker adopts it.
    pub worker_id: u64,
}

impl Hello {
    /// `b"MPQ3"` read as a little-endian `u32`: version 3, a plan one
    /// byte per operator and table statistics without a join domain.
    pub const MAGIC: u32 = u32::from_le_bytes(*b"MPQ3");
    /// Encoded size: the magic plus the worker id.
    pub const WIRE_SIZE: usize = <Self as FixedSize>::SIZE;
}

impl FixedSize for Hello {
    const SIZE: usize = u32::SIZE + u64::SIZE;
}

impl Wire for Hello {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(Hello::MAGIC);
        enc.put_u64(self.worker_id);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let magic = dec.get_u32()?;
        if magic != Hello::MAGIC {
            return Err(DecodeError::BadTag {
                tag: (magic >> 24) as u8,
                ty: "Hello",
            });
        }
        Ok(Hello {
            worker_id: dec.get_u64()?,
        })
    }
}

/// Highest worker id [`serve_worker`] accepts in a handshake: ids index
/// per-worker metric vectors, so an insane id from a corrupt or hostile
/// master must not drive an allocation.
const MAX_HANDSHAKE_WORKER_ID: u64 = 4096;

/// The real message plane: one socket per worker process, master side.
///
/// Construction connects and handshakes every worker eagerly
/// ([`SocketTransport::connect`]); a per-connection reader thread then
/// reassembles reply frames into a shared inbox, so the blocking receive
/// methods mirror the in-process channel semantics exactly — including
/// [`ClusterError::AllWorkersLost`] when every reader has exited and the
/// inbox is drained.
pub struct SocketTransport {
    writers: Vec<Mutex<WireStream>>,
    alive: Vec<Arc<AtomicBool>>,
    inbox: Inbox,
    readers: Vec<JoinHandle<()>>,
    metrics: Arc<NetworkMetrics>,
}

impl SocketTransport {
    /// Connects to one listening worker process per address; the position
    /// in `addrs` becomes the worker id, carried to the worker in the
    /// [`Hello`] handshake.
    ///
    /// Any refused connection or failed handshake aborts construction
    /// with [`ClusterError::SpawnFailed`] for that worker — a cluster
    /// that never fully forms is an error, matching thread-spawn
    /// semantics — after the connections made so far are severed and
    /// their reader threads joined, so no worker is left serving a master
    /// that gave up. An empty address list is `SpawnFailed { worker: 0 }`.
    pub fn connect(addrs: &[WorkerAddr]) -> Result<SocketTransport, ClusterError> {
        if addrs.is_empty() {
            return Err(ClusterError::SpawnFailed { worker: 0 });
        }
        // The master keeps no sender of its own (`tx` dies with this
        // call), so the inbox disconnects exactly when every reader
        // thread has exited — the socket analogue of "all worker threads
        // terminated".
        let (tx, inbox) = unbounded::<(usize, SessionEnvelope)>();
        // Built up in place: an early return drops the partial plane, and
        // `Drop` is the teardown.
        let mut plane = SocketTransport {
            writers: Vec::with_capacity(addrs.len()),
            alive: Vec::with_capacity(addrs.len()),
            inbox: Inbox::new(inbox),
            readers: Vec::with_capacity(addrs.len()),
            metrics: Arc::new(NetworkMetrics::with_workers(addrs.len())),
        };
        for (id, addr) in addrs.iter().enumerate() {
            let spawn_failed = |_| ClusterError::SpawnFailed { worker: id };
            let mut stream = WireStream::connect(addr).map_err(spawn_failed)?;
            handshake_as_master(&mut stream, id as u64).map_err(spawn_failed)?;
            let reader = stream.try_clone().map_err(spawn_failed)?;
            let flag = Arc::new(AtomicBool::new(true));
            // Registered before its reader is spawned: if the spawn fails
            // this connection is severed with the others.
            plane.writers.push(Mutex::new(stream));
            plane.alive.push(Arc::clone(&flag));
            let tx = tx.clone();
            let metrics = Arc::clone(&plane.metrics);
            let thread = std::thread::Builder::new()
                .name(format!("mpq-socket-reader-{id}"))
                .spawn(move || reader_loop(id, reader, &tx, &flag, &metrics))
                .map_err(spawn_failed)?;
            plane.readers.push(thread);
        }
        Ok(plane)
    }

    fn mark_dead(&self, id: usize) {
        self.alive[id].store(false, Ordering::Release);
    }
}

impl Transport for SocketTransport {
    fn num_workers(&self) -> usize {
        self.writers.len()
    }

    fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    fn is_worker_alive(&self, id: usize) -> bool {
        self.alive[id].load(Ordering::Acquire)
    }

    fn send(
        &self,
        id: usize,
        query: QueryId,
        payload: Bytes,
        _is_assignment: bool,
    ) -> Result<(), ClusterError> {
        if !self.is_worker_alive(id) {
            return Err(ClusterError::WorkerLost { worker: id });
        }
        let frame = frame_with_prefix(query, &payload);
        let mut writer = self.writers[id]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match writer.write_all(&frame).and_then(|()| writer.flush()) {
            Ok(()) => {
                self.metrics.record_to_worker(frame.len() as u64);
                Ok(())
            }
            Err(_) => {
                // A failed write is how a real master observes worker
                // death; sever the connection so the reader exits too.
                writer.shutdown_both();
                drop(writer);
                self.mark_dead(id);
                Err(ClusterError::WorkerLost { worker: id })
            }
        }
    }

    fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.inbox.pump(Wait::Forever, None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.inbox.pump(Wait::AtMost(timeout), None)
    }

    fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        self.inbox.pump(Wait::Poll, None)
    }

    fn recv_for(&self, query: QueryId) -> Result<(usize, Bytes), ClusterError> {
        let (worker, _, payload) = self.inbox.pump(Wait::Forever, Some(query))?;
        Ok((worker, payload))
    }

    fn recv_for_timeout(
        &self,
        query: QueryId,
        timeout: Duration,
    ) -> Result<(usize, Bytes), ClusterError> {
        let (worker, _, payload) = self.inbox.pump(Wait::AtMost(timeout), Some(query))?;
        Ok((worker, payload))
    }

    fn shutdown(&mut self) {
        for (id, writer) in self.writers.iter().enumerate() {
            writer
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .shutdown_both();
            self.mark_dead(id);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        Transport::shutdown(self);
    }
}

/// Master side of the [`Hello`] handshake: send, then require the
/// worker's verbatim echo.
fn handshake_as_master(stream: &mut WireStream, worker_id: u64) -> std::io::Result<()> {
    let hello = Hello { worker_id }.to_bytes();
    stream.write_all(&hello)?;
    stream.flush()?;
    let mut echo = [0u8; Hello::WIRE_SIZE];
    stream.read_exact(&mut echo)?;
    if echo[..] != hello[..] {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "worker handshake echo mismatch",
        ));
    }
    Ok(())
}

/// Per-connection reader: reassemble reply frames, count their wire
/// bytes, forward them to the shared inbox. Exits — marking the worker
/// dead — on EOF, any I/O error, or stream corruption (a corrupt length
/// prefix cannot be resynchronized past).
fn reader_loop(
    worker: usize,
    mut stream: WireStream,
    tx: &Sender<(usize, SessionEnvelope)>,
    alive: &AtomicBool,
    metrics: &NetworkMetrics,
) {
    let mut fb = FrameBuffer::new();
    let mut buf = vec![0u8; 64 * 1024];
    'stream: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'stream,
            Ok(n) => n,
        };
        fb.push(&buf[..n]);
        loop {
            match fb.next_frame() {
                Ok(Some(env)) => {
                    let wire_bytes =
                        env.payload.len() + SessionEnvelope::HEADER_BYTES + LENGTH_PREFIX_BYTES;
                    metrics.record_reply(worker, wire_bytes as u64);
                    if tx.send((worker, env)).is_err() {
                        // The master dropped its inbox: shutdown path.
                        break 'stream;
                    }
                }
                Ok(None) => break,
                Err(_) => break 'stream,
            }
        }
    }
    alive.store(false, Ordering::Release);
}

/// Runs one worker **process**: accepts a single master connection on
/// `listener`, handshakes, then delivers every inbound frame to `logic` —
/// the same [`WorkerLogic`] the in-process [`Cluster`](crate::Cluster)
/// drives, so the algorithm crates' worker code runs unmodified over real
/// sockets.
///
/// Returns when the logic requests [`Control::Shutdown`] or the master
/// disconnects cleanly (EOF on a frame boundary). A truncated final
/// frame, a corrupt length prefix, or a bad handshake yield
/// `InvalidData` errors carrying the typed [`DecodeError`].
pub fn serve_worker<L: WorkerLogic>(listener: &WireListener, mut logic: L) -> std::io::Result<()> {
    let mut reader = listener.accept()?;
    let mut writer = reader.try_clone()?;

    let mut hello_buf = [0u8; Hello::WIRE_SIZE];
    reader.read_exact(&mut hello_buf)?;
    let hello = Hello::from_bytes(&hello_buf).map_err(invalid_data)?;
    if hello.worker_id > MAX_HANDSHAKE_WORKER_ID {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("handshake worker id {} exceeds the cap", hello.worker_id),
        ));
    }
    writer.write_all(&hello_buf)?;
    writer.flush()?;

    let worker_id = hello.worker_id as usize;
    // Worker-side ledger: sized so this worker's own reply counters index
    // validly. The master keeps its own authoritative ledger.
    let metrics = Arc::new(NetworkMetrics::with_workers(worker_id + 1));
    let mut ctx = WorkerCtx::for_stream(worker_id, metrics, Box::new(writer));

    let mut fb = FrameBuffer::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            // Clean EOF only on a frame boundary; otherwise the master
            // died mid-write and the partial frame is typed corruption.
            return fb.finish().map_err(invalid_data);
        }
        fb.push(&buf[..n]);
        while let Some(env) = fb.next_frame().map_err(invalid_data)? {
            ctx.set_current_query(env.query);
            if logic.on_message(env.query, env.payload, &mut ctx) == Control::Shutdown {
                return Ok(());
            }
        }
    }
}

fn invalid_data(e: DecodeError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}
