//! Integration tests for the real byte-stream transport.
//!
//! Three layers, bottom-up:
//!
//! 1. **Frame reassembly** — [`FrameBuffer`] must reconstruct exact
//!    [`SessionEnvelope`]s from a stream split at *every* byte offset,
//!    coalesce back-to-back frames arriving in one read, and turn a
//!    truncated final frame into a typed [`DecodeError`] — never a panic,
//!    never a silent drop.
//! 2. **Loopback sockets** — a [`SocketTransport`] master against
//!    [`serve_worker`] peers over real TCP and Unix-domain sockets:
//!    echo round-trips, session demultiplexing, byte counters fed from
//!    actual wire traffic (length prefix included).
//! 3. **Connection loss** — a worker that exits mid-conversation, or a
//!    peer that violates the handshake, surfaces as the same typed
//!    [`ClusterError`]s the in-process plane produces; so does a seeded
//!    [`Faulty`] worker's crash, after its drops and stragglers acted on
//!    the socket.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros,
    clippy::disallowed_methods
)]

use bytes::Bytes;
use mpq_cluster::transport::MAX_FRAME_BYTES;
use mpq_cluster::{
    frame_with_prefix, serve_worker, ClusterError, Control, DecodeError, FaultAction, FaultPlan,
    Faulty, FrameBuffer, Hello, QueryId, SessionEnvelope, SocketTransport, Transport, Wire,
    WireListener, WorkerAddr, WorkerCtx, LENGTH_PREFIX_BYTES,
};
use std::io::{Read, Write};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Layer 1: frame reassembly.
// ---------------------------------------------------------------------------

/// Three representative frames: small payload, empty payload, longer
/// payload — concatenated as they would appear on the wire.
fn sample_frames() -> (Vec<(QueryId, Vec<u8>)>, Vec<u8>) {
    let frames = vec![
        (QueryId(1), vec![0xAA, 0xBB, 0xCC]),
        (QueryId(0xDEAD_BEEF), Vec::new()),
        (QueryId(2), (0u8..32).collect::<Vec<u8>>()),
    ];
    let mut stream = Vec::new();
    for (query, payload) in &frames {
        stream.extend_from_slice(&frame_with_prefix(*query, payload));
    }
    (frames, stream)
}

/// Drains every complete frame currently buffered.
fn drain(fb: &mut FrameBuffer) -> Vec<(QueryId, Vec<u8>)> {
    let mut out = Vec::new();
    while let Some(env) = fb.next_frame().expect("sample stream is well formed") {
        out.push((env.query, env.payload.to_vec()));
    }
    out
}

#[test]
fn frames_survive_a_split_at_every_byte_offset() {
    let (expected, stream) = sample_frames();
    for cut in 0..=stream.len() {
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        fb.push(&stream[..cut]);
        got.extend(drain(&mut fb));
        fb.push(&stream[cut..]);
        got.extend(drain(&mut fb));
        assert_eq!(got, expected, "split at byte {cut} corrupted the frames");
        assert!(fb.is_empty(), "split at byte {cut} left residue");
        fb.finish()
            .expect("clean stream end must not be a truncation");
    }
}

#[test]
fn frames_survive_byte_at_a_time_delivery() {
    let (expected, stream) = sample_frames();
    let mut fb = FrameBuffer::new();
    let mut got = Vec::new();
    for byte in &stream {
        fb.push(std::slice::from_ref(byte));
        got.extend(drain(&mut fb));
    }
    assert_eq!(got, expected);
    fb.finish().expect("clean stream end");
}

#[test]
fn coalesced_frames_in_one_read_all_drain() {
    let (expected, stream) = sample_frames();
    let mut fb = FrameBuffer::new();
    fb.push(&stream);
    assert_eq!(drain(&mut fb), expected);
    assert!(fb.is_empty());
}

#[test]
fn truncated_final_frame_is_a_typed_error() {
    let (expected, stream) = sample_frames();
    // Sever the stream at every offset that leaves a partial final frame.
    let first_two = frame_with_prefix(expected[0].0, &expected[0].1).len()
        + frame_with_prefix(expected[1].0, &expected[1].1).len();
    for cut in first_two + 1..stream.len() {
        let mut fb = FrameBuffer::new();
        fb.push(&stream[..cut]);
        assert_eq!(drain(&mut fb), expected[..2], "cut at {cut}");
        assert!(
            matches!(fb.finish(), Err(DecodeError::Truncated { .. })),
            "EOF with a partial frame at {cut} must be a typed truncation"
        );
    }
}

#[test]
fn insane_length_prefix_is_length_overflow() {
    let mut fb = FrameBuffer::new();
    fb.push(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
    assert!(matches!(
        fb.next_frame(),
        Err(DecodeError::LengthOverflow(_))
    ));
}

#[test]
fn runt_frame_shorter_than_session_header_is_truncated() {
    // A "frame" of 3 bytes cannot even carry its 8-byte session id.
    let mut fb = FrameBuffer::new();
    fb.push(&3u32.to_le_bytes());
    fb.push(&[1, 2, 3]);
    assert!(matches!(
        fb.next_frame(),
        Err(DecodeError::Truncated {
            needed: SessionEnvelope::HEADER_BYTES,
            available: 3,
        })
    ));
}

#[test]
fn empty_buffer_is_clean() {
    let mut fb = FrameBuffer::new();
    assert!(fb.next_frame().expect("no bytes, no error").is_none());
    fb.finish().expect("empty stream end is clean");
    assert!(fb.is_empty());
}

// ---------------------------------------------------------------------------
// Layer 2 & 3: loopback sockets.
// ---------------------------------------------------------------------------

/// Worker logic for the loopback tests: echoes every payload back on the
/// session that sent it, and shuts down on the `b"die"` payload.
fn echo_logic(_query: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
    if &payload[..] == b"die" {
        return Control::Shutdown;
    }
    ctx.send_to_master(payload);
    Control::Continue
}

/// Binds a listener, serves `echo_logic` on a background thread, and
/// returns the bound address plus the server thread handle.
fn spawn_echo_worker(
    bind: &WorkerAddr,
) -> (WorkerAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = WireListener::bind(bind).expect("bind loopback listener");
    let addr = listener.local_addr().expect("bound listener has an addr");
    let handle = std::thread::spawn(move || serve_worker(&listener, echo_logic));
    (addr, handle)
}

fn tcp_any() -> WorkerAddr {
    "127.0.0.1:0".parse().expect("tcp addr parses")
}

/// One echo round-trip plus the exact byte accounting: both directions
/// charge payload + 8-byte session header + 4-byte length prefix — the
/// bytes that actually crossed the socket.
fn roundtrip_and_count(master: &SocketTransport) {
    let payload = Bytes::from_static(&[1, 2, 3]);
    let wire_bytes = (payload.len() + SessionEnvelope::HEADER_BYTES + LENGTH_PREFIX_BYTES) as u64;
    master
        .send(0, QueryId(7), payload.clone(), true)
        .expect("send to live worker");
    let (worker, got) = master
        .recv_for_timeout(QueryId(7), Duration::from_secs(10))
        .expect("echo reply arrives");
    assert_eq!(worker, 0);
    assert_eq!(got, payload);
    let snap = master.metrics().snapshot();
    assert_eq!(snap.master_to_worker_bytes, wire_bytes);
    assert_eq!(snap.worker_to_master_bytes, wire_bytes);
}

/// Replies for other sessions are parked, never dropped: ask for the
/// *second* session's reply first.
fn sessions_demultiplex(master: &SocketTransport) {
    let (q1, q2) = (QueryId(101), QueryId(202));
    master
        .send(0, q1, Bytes::from_static(b"first"), false)
        .expect("send q1");
    master
        .send(0, q2, Bytes::from_static(b"second"), false)
        .expect("send q2");
    let (_, got2) = master
        .recv_for_timeout(q2, Duration::from_secs(10))
        .expect("q2 routed past q1's parked reply");
    assert_eq!(&got2[..], b"second");
    let (_, got1) = master
        .recv_for_timeout(q1, Duration::from_secs(10))
        .expect("q1's parked reply is still owed");
    assert_eq!(&got1[..], b"first");
}

/// Tells the worker to exit, then checks that loss is typed: sends fail
/// with `WorkerLost`, blocking receives report `AllWorkersLost` (the
/// single worker is gone), and the liveness probes agree.
fn death_is_typed(mut master: SocketTransport) {
    master
        .send(0, QueryId(9), Bytes::from_static(b"die"), false)
        .expect("the kill message still goes out");
    // The reader thread notices the close asynchronously; the blocking
    // receive is the synchronization point.
    match master.recv_for_timeout(QueryId(9), Duration::from_secs(10)) {
        Err(ClusterError::AllWorkersLost) => {}
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
    assert!(!master.is_worker_alive(0));
    let dead: Vec<usize> = (0..master.num_workers())
        .filter(|&w| !master.is_worker_alive(w))
        .collect();
    assert_eq!(dead, vec![0], "exactly worker 0 is dead");
    assert!(matches!(
        master.send(0, QueryId(9), Bytes::from_static(b"x"), false),
        Err(ClusterError::WorkerLost { worker: 0 })
    ));
    master.shutdown();
}

fn exercise_loopback(bind: &WorkerAddr) {
    let (addr, server) = spawn_echo_worker(bind);
    let master =
        SocketTransport::connect(std::slice::from_ref(&addr)).expect("connect to loopback worker");
    assert_eq!(master.num_workers(), 1);
    assert!(master.is_worker_alive(0));
    roundtrip_and_count(&master);
    sessions_demultiplex(&master);
    // An idle session times out typed instead of stealing another
    // session's reply.
    assert!(matches!(
        master.recv_for_timeout(QueryId(999), Duration::from_millis(10)),
        Err(ClusterError::Timeout { .. })
    ));
    death_is_typed(master);
    server
        .join()
        .expect("worker thread")
        .expect("worker exits cleanly on Control::Shutdown");
}

#[test]
fn tcp_loopback_echo_sessions_and_loss() {
    exercise_loopback(&tcp_any());
}

#[cfg(unix)]
#[test]
fn unix_loopback_echo_sessions_and_loss() {
    let path = std::env::temp_dir().join(format!("mpq-transport-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr: WorkerAddr = format!("unix:{}", path.display())
        .parse()
        .expect("unix addr parses");
    exercise_loopback(&addr);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn two_workers_survive_one_death() {
    let (addr_a, server_a) = spawn_echo_worker(&tcp_any());
    let (addr_b, server_b) = spawn_echo_worker(&tcp_any());
    let mut master = SocketTransport::connect(&[addr_a, addr_b]).expect("connect both");
    assert_eq!(master.num_workers(), 2);

    master
        .send(0, QueryId(1), Bytes::from_static(b"die"), false)
        .expect("kill worker 0");
    // Worker 1 keeps answering while worker 0's death propagates.
    master
        .send(1, QueryId(1), Bytes::from_static(b"ping"), false)
        .expect("worker 1 is alive");
    let (worker, got) = master
        .recv_for_timeout(QueryId(1), Duration::from_secs(10))
        .expect("survivor echoes");
    assert_eq!((worker, &got[..]), (1, &b"ping"[..]));

    // The dead worker is reported individually; the cluster is not lost.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while master.is_worker_alive(0) {
        assert!(
            std::time::Instant::now() < deadline,
            "worker 0's death never surfaced"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let dead: Vec<usize> = (0..master.num_workers())
        .filter(|&w| !master.is_worker_alive(w))
        .collect();
    assert_eq!(dead, vec![0], "exactly worker 0 is dead");
    assert!(matches!(
        master.send(0, QueryId(2), Bytes::from_static(b"x"), false),
        Err(ClusterError::WorkerLost { worker: 0 })
    ));
    master
        .send(1, QueryId(2), Bytes::from_static(b"still here"), false)
        .expect("survivor still reachable");
    let (_, got) = master
        .recv_for_timeout(QueryId(2), Duration::from_secs(10))
        .expect("survivor still echoes");
    assert_eq!(&got[..], b"still here");

    master.shutdown();
    server_a
        .join()
        .expect("worker 0 thread")
        .expect("clean exit");
    server_b
        .join()
        .expect("worker 1 thread")
        .expect("clean exit");
}

/// The fault decorator needs nothing from the plane: behind a socket, a
/// seeded worker drops its first reply, holds back its second, and dies
/// after its third — which closes the connection, so the master sees the
/// same typed loss as a killed process.
#[test]
fn faulty_worker_drops_straggles_and_crashes_over_a_socket() {
    const STRAGGLE: Duration = Duration::from_millis(30);
    let plan = FaultPlan {
        crash_prob: 1.0,
        crash_after_reply_prob: 1.0,
        min_survivors: 0,
        drop_prob: 0.5,
        straggle_prob: 0.5,
        straggle_us: STRAGGLE.as_micros() as u64,
        ..FaultPlan::NONE
    }
    .with_seed_where(1, 4096, |s| {
        s.action(0, 0) == FaultAction::DropReply
            && s.action(0, 1) == FaultAction::Straggle(STRAGGLE)
            && s.action(0, 2) == FaultAction::CrashAfterReply
    })
    .expect("some seed drops, straggles, then crashes");
    let listener = WireListener::bind(&tcp_any()).expect("bind loopback listener");
    let addr = listener.local_addr().expect("bound listener has an addr");
    let faulty = Faulty::new(echo_logic, plan.schedule(1).worker(0));
    let server = std::thread::spawn(move || serve_worker(&listener, faulty));
    let mut master = SocketTransport::connect(&[addr]).expect("connect");

    let ask = |payload: &'static [u8], wait: Duration| {
        master
            .send(0, QueryId(1), Bytes::from_static(payload), false)
            .expect("the worker is alive");
        master.recv_for_timeout(QueryId(1), wait)
    };
    assert!(
        matches!(
            ask(b"dropped", Duration::from_millis(50)),
            Err(ClusterError::Timeout { .. })
        ),
        "the first reply is lost on the wire"
    );
    assert!(master.is_worker_alive(0), "a drop is not a crash");
    let sent = std::time::Instant::now();
    let (_, got) = ask(b"late", Duration::from_secs(10)).expect("a straggler still replies");
    assert_eq!(&got[..], b"late");
    assert!(sent.elapsed() >= STRAGGLE, "the reply was held back");
    let (_, got) = ask(b"last words", Duration::from_secs(10)).expect("replies, then dies");
    assert_eq!(&got[..], b"last words");
    assert_eq!(
        master.recv_for_timeout(QueryId(1), Duration::from_secs(10)),
        Err(ClusterError::AllWorkersLost),
        "the crash closed the connection"
    );
    assert!(!master.is_worker_alive(0));
    master.shutdown();
    server
        .join()
        .expect("worker thread")
        .expect("a crash is a clean Control::Shutdown");
}

#[test]
fn empty_address_list_is_spawn_failed() {
    assert!(matches!(
        SocketTransport::connect(&[]),
        Err(ClusterError::SpawnFailed { worker: 0 })
    ));
}

#[test]
fn refused_connection_is_spawn_failed() {
    // Bind-then-drop guarantees a port with no listener behind it.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        WorkerAddr::Tcp(probe.local_addr().expect("probe addr").to_string())
    };
    assert!(matches!(
        SocketTransport::connect(std::slice::from_ref(&addr)),
        Err(ClusterError::SpawnFailed { worker: 0 })
    ));
}

/// A cluster that never fully forms must not leave its first workers
/// serving a master that gave up: the connections made before the
/// refusal are severed (and their reader threads joined) before the typed
/// error surfaces, so the connected worker sees a clean EOF and returns.
#[test]
fn failed_connect_releases_the_workers_already_connected() {
    let listener = WireListener::bind(&tcp_any()).expect("bind loopback listener");
    let good = listener.local_addr().expect("bound listener has an addr");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let _ = done_tx.send(serve_worker(&listener, echo_logic));
    });
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        WorkerAddr::Tcp(probe.local_addr().expect("probe addr").to_string())
    };
    assert!(matches!(
        SocketTransport::connect(&[good, dead]),
        Err(ClusterError::SpawnFailed { worker: 1 })
    ));
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the connected worker is released, not left blocked in read")
        .expect("and sees a clean end of stream");
    server.join().expect("worker thread");
}

/// A peer that mangles the handshake echo is rejected at construction —
/// the master never mistakes an arbitrary service for a worker.
#[test]
fn corrupted_handshake_echo_is_spawn_failed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = WorkerAddr::Tcp(listener.local_addr().expect("addr").to_string());
    let impostor = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut hello = [0u8; Hello::WIRE_SIZE];
        sock.read_exact(&mut hello).expect("read hello");
        hello[0] ^= 0xFF; // corrupt the magic before echoing
        sock.write_all(&hello).expect("write mangled echo");
    });
    assert!(matches!(
        SocketTransport::connect(std::slice::from_ref(&addr)),
        Err(ClusterError::SpawnFailed { worker: 0 })
    ));
    impostor.join().expect("impostor thread");
}

/// `serve_worker` rejects a client that opens with the wrong magic: the
/// typed decode error travels up as `InvalidData`.
#[test]
fn serve_worker_rejects_bad_magic() {
    let listener = WireListener::bind(&tcp_any()).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || serve_worker(&listener, echo_logic));
    let WorkerAddr::Tcp(tcp) = &addr else {
        panic!("bound a tcp listener");
    };
    let mut sock = std::net::TcpStream::connect(tcp).expect("connect raw");
    sock.write_all(b"NOTMPQ1XXXXX")
        .expect("write garbage hello");
    let err = server
        .join()
        .expect("server thread")
        .expect_err("bad magic must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A master that dies mid-frame leaves the worker with a typed
/// truncation, not a silently-absorbed partial message.
#[test]
fn serve_worker_types_a_truncated_final_frame() {
    let listener = WireListener::bind(&tcp_any()).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || serve_worker(&listener, echo_logic));
    let WorkerAddr::Tcp(tcp) = &addr else {
        panic!("bound a tcp listener");
    };
    let mut sock = std::net::TcpStream::connect(tcp).expect("connect raw");
    // Complete the handshake honestly...
    let hello = Hello { worker_id: 0 }.to_bytes();
    sock.write_all(&hello).expect("write hello");
    let mut echo = [0u8; Hello::WIRE_SIZE];
    sock.read_exact(&mut echo).expect("read echo");
    assert_eq!(&echo[..], &hello[..]);
    // ...then die mid-write: a full prefix announcing 64 bytes, only 5 sent.
    sock.write_all(&64u32.to_le_bytes()).expect("write prefix");
    sock.write_all(&[1, 2, 3, 4, 5])
        .expect("write partial frame");
    drop(sock);
    let err = server
        .join()
        .expect("server thread")
        .expect_err("truncated frame must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
