//! Multi-process socket-transport suite: `pqopt worker` processes reached
//! over Unix-domain sockets, driven by an in-process master through
//! [`OptimizerService::connect`].
//!
//! This is the differential + chaos story of `tests/differential.rs` and
//! `tests/chaos.rs` replayed over a **real** wire: worker code runs in
//! separate OS processes, frames cross real sockets, and "worker crash"
//! means `SIGKILL` to a live process — or a seeded fault plan whose
//! [`Faulty`] workers end their connection. The invariants are unchanged:
//!
//! * fault-free socket runs return plans **bit-identical** to the
//!   in-process plane's (same algorithm, same partitioning, same
//!   tie-breaks — the transport must be invisible);
//! * killing a worker process mid-session surfaces as the typed loss the
//!   retry machinery recovers from: surviving workers complete every
//!   query and the answers stay bit-identical to the fault-free run.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros
)]

use pqopt::cluster::{serve_worker, Faulty, SocketTransport, WireListener, WorkerAddr, WorkerCtx};
use pqopt::dp::optimize_serial;
use pqopt::model::{Query, WorkloadConfig, WorkloadGenerator};
use pqopt::mpq::MpqService;
use pqopt::partition::PlanSpace;
use pqopt::prelude::{
    FaultPlan, MpqConfig, MpqError, Objective, OptimizerService, Plan, RetryPolicy, ServiceConfig,
};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_pqopt");

/// One `pqopt worker` child process; killed (if still running) on drop so
/// a failing assertion never leaks orphans.
struct Worker {
    child: Child,
    addr: WorkerAddr,
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `pqopt worker --listen <addr>` and waits for
/// its `listening on <addr>` banner, so the socket is accepting before the
/// master dials.
fn spawn_worker(listen: &str) -> Worker {
    let mut child = Command::new(BIN)
        .args(["worker", "--listen", listen])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pqopt worker");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read worker banner");
    let addr: WorkerAddr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {banner:?}"))
        .parse()
        .expect("worker banner carries its bound address");
    Worker { child, addr }
}

/// A fresh socket path under the system temp dir, unique per test within
/// this process.
fn socket_path(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("pqopt-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    format!("unix:{}", path.display())
}

fn spawn_workers(tag: &str, count: usize) -> Vec<Worker> {
    (0..count)
        .map(|i| spawn_worker(&socket_path(&format!("{tag}-{i}"))))
        .collect()
}

fn addrs(workers: &[Worker]) -> Vec<WorkerAddr> {
    workers.iter().map(|w| w.addr.clone()).collect()
}

/// The shared query set: seeded paper-style workloads, large enough that
/// a mid-batch kill lands while work is genuinely in flight.
fn batch(count: u64) -> Vec<Query> {
    (0..count)
        .map(|seed| {
            let n = 4 + (seed % 4) as usize; // 4..=7 tables
            WorkloadGenerator::new(WorkloadConfig::paper_default(n), 1000 + seed).next_query()
        })
        .collect()
}

/// Runs every query through a service, in submit-all-then-wait order, so
/// queries overlap on the cluster.
fn run_batch(service: &mut OptimizerService, queries: &[Query]) -> Vec<Vec<Plan>> {
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .submit(q, PlanSpace::Linear, Objective::Single)
                .expect("submit")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| service.wait(h).expect("every query completes"))
        .collect()
}

/// The fault-free in-process reference at the same worker count: the
/// answer the socket runs must reproduce bit-for-bit.
fn in_process_reference(queries: &[Query], workers: usize) -> Vec<Vec<Plan>> {
    let config = ServiceConfig::new(workers);
    let mut service = OptimizerService::spawn(config).expect("spawn in-process reference");
    let out = run_batch(&mut service, queries);
    service.shutdown();
    out
}

fn mpq_socket_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        mpq: MpqConfig {
            // A receive timeout so a killed worker is *detected*; retries
            // re-issue its partitions to the survivors.
            retry: RetryPolicy::with_timeout(64, Duration::from_millis(100)),
            ..MpqConfig::default()
        },
        ..ServiceConfig::new(workers)
    }
}

#[cfg(unix)]
#[test]
fn mpq_over_real_sockets_is_bit_identical_to_in_process() {
    let queries = batch(8);
    let workers = spawn_workers("diff", 2);
    let mut service =
        OptimizerService::connect(mpq_socket_config(2), &addrs(&workers)).expect("connect");
    let over_wire = run_batch(&mut service, &queries);
    service.shutdown();
    assert_eq!(
        over_wire,
        in_process_reference(&queries, 2),
        "the transport changed the answer"
    );
}

#[cfg(unix)]
#[test]
fn killing_a_worker_process_mid_session_recovers_exactly() {
    let queries = batch(10);
    let mut workers = spawn_workers("kill", 3);
    let mut service =
        OptimizerService::connect(mpq_socket_config(3), &addrs(&workers)).expect("connect");

    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .submit(q, PlanSpace::Linear, Objective::Single)
                .expect("submit")
        })
        .collect();
    // SIGKILL a worker process while the batch is in flight: its socket
    // drops mid-session and its partitions must be re-issued.
    workers[0].child.kill().expect("kill worker 0");
    let over_wire: Vec<Vec<Plan>> = handles
        .into_iter()
        .map(|h| service.wait(h).expect("survivors complete every query"))
        .collect();
    service.shutdown();

    assert_eq!(
        over_wire,
        in_process_reference(&queries, 3),
        "recovery changed the answer"
    );
}

/// MPQ socket workers served from threads of this process, each running
/// its [`Faulty`] slice of `plan`: a crash ends
/// `serve_worker` and closes the connection, and a
/// drop loses the reply on the wire. Returns the addresses and the server
/// threads.
#[cfg(unix)]
fn faulty_socket_workers(
    tag: &str,
    plan: &FaultPlan,
    workers: usize,
) -> (
    Vec<WorkerAddr>,
    Vec<std::thread::JoinHandle<std::io::Result<()>>>,
) {
    let schedule = plan.schedule(workers);
    let mut addrs = Vec::new();
    let mut threads = Vec::new();
    for w in 0..workers {
        let addr: WorkerAddr = socket_path(&format!("{tag}-{w}")).parse().unwrap();
        let listener = WireListener::bind(&addr).expect("bind a worker socket");
        let mut inner = pqopt::mpq::worker_logic(0);
        let unboxed = move |q, p, ctx: &mut WorkerCtx| inner.on_message(q, p, ctx);
        let faulty = Faulty::new(unboxed, schedule.worker(w));
        threads.push(std::thread::spawn(move || serve_worker(&listener, faulty)));
        addrs.push(addr);
    }
    (addrs, threads)
}

/// A seeded fault plan over real sockets: a crash-on-first-task plan with
/// dropped replies. The master sees only sockets; its retries must recover
/// every query to the serial DP's optimum, bit for bit.
#[cfg(unix)]
#[test]
fn seeded_crash_and_drop_plan_over_real_sockets_is_exact() {
    const WORKERS: usize = 3;
    let plan = FaultPlan {
        drop_prob: 0.2,
        ..FaultPlan::crash_on_first_task(WORKERS, 1)
    };
    let (addrs, threads) = faulty_socket_workers("faulty", &plan, WORKERS);
    let config = MpqConfig {
        retry: RetryPolicy::with_timeout(64, Duration::from_millis(100)),
        ..MpqConfig::default()
    };
    let transport = SocketTransport::connect(&addrs).expect("connect");
    let mut service = MpqService::with_transport(Box::new(transport), config).expect("service");
    let mut retries = 0;
    for q in batch(6) {
        let handle = service
            .submit(&q, PlanSpace::Linear, Objective::Single)
            .expect("submit");
        let out = service.wait(handle).expect("retries recover every query");
        let serial = optimize_serial(&q, PlanSpace::Linear, Objective::Single);
        assert_eq!(
            out.plans[0].cost().time.to_bits(),
            serial.plans[0].cost().time.to_bits(),
            "a fault changed the answer"
        );
        retries += out.metrics.retries;
    }
    service.shutdown();
    for thread in threads {
        // A crashed worker returned when it shut down; the survivors return
        // once the master disconnects.
        thread
            .join()
            .expect("worker thread")
            .expect("clean worker exit");
    }
    assert!(retries >= 1, "the seeded crash must cost a retry");
}

/// Coalesced sessions over the real wire under a real fault (ISSUE 9
/// satellite): three coalitions of three members each are in flight when
/// a worker process is SIGKILLed. The survivors must complete every
/// flight, every member must redeem plans bit-identical to the
/// fault-free in-process reference (redemption in reverse order, so
/// followers redeem before leaders), and the counters must prove that
/// the nine sessions cost three backend optimizations.
#[cfg(unix)]
#[test]
fn coalesced_sessions_over_real_sockets_survive_a_worker_kill() {
    const MEMBERS: usize = 3;
    let distinct = batch(3);
    let mut workers = spawn_workers("coalesce", 3);
    let mut config = mpq_socket_config(3);
    config.coalesce = true;
    let mut service = OptimizerService::connect(config, &addrs(&workers)).expect("connect");
    let mut handles = Vec::new();
    for _ in 0..MEMBERS {
        for (qi, q) in distinct.iter().enumerate() {
            let handle = service
                .submit(q, PlanSpace::Linear, Objective::Single)
                .expect("submit");
            handles.push((qi, handle));
        }
    }
    assert_eq!(
        service.open_flights(),
        distinct.len(),
        "identical submissions coalesce over the wire"
    );
    // SIGKILL a worker while every flight is up: its socket drops
    // mid-session and the shared backend sessions must be re-issued.
    workers[0].child.kill().expect("kill worker 0");
    let mut results: Vec<Vec<Vec<Plan>>> = distinct.iter().map(|_| Vec::new()).collect();
    for (qi, handle) in handles.into_iter().rev() {
        results[qi].push(
            service
                .wait(handle)
                .expect("survivors complete every coalition"),
        );
    }
    let stats = service.coalesce_stats();
    assert_eq!(
        (stats.coalesced_sessions, stats.saved_optimizations),
        (9, 6),
        "three coalitions of three, one optimization each"
    );
    assert_eq!(service.open_flights(), 0);
    service.shutdown();
    let reference = in_process_reference(&distinct, 3);
    for (qi, members) in results.iter().enumerate() {
        assert_eq!(members.len(), MEMBERS);
        for plans in members {
            assert_eq!(
                plans, &reference[qi],
                "query {qi}: a coalesced member diverged from the fault-free reference"
            );
        }
    }
}

/// The admission limit configured on the facade reaches the socket plane
/// too: the third concurrent submission refuses typed at a limit of two,
/// and `submit_wait` parks instead.
#[cfg(unix)]
#[test]
fn admission_limit_holds_over_real_sockets() {
    let workers = spawn_workers("admit", 2);
    let mut config = mpq_socket_config(2);
    config.max_in_flight = 2;
    let mut service = OptimizerService::connect(config, &addrs(&workers)).expect("connect");
    let queries = batch(3);
    let a = service
        .submit(&queries[0], PlanSpace::Linear, Objective::Single)
        .expect("first admits");
    let b = service
        .submit(&queries[1], PlanSpace::Linear, Objective::Single)
        .expect("second admits");
    match service.submit(&queries[2], PlanSpace::Linear, Objective::Single) {
        Err(MpqError::Overloaded { in_flight, limit }) => {
            assert_eq!((in_flight, limit), (2, 2));
        }
        other => panic!("expected Overloaded over the wire, got {other:?}"),
    }
    let c = service
        .submit_wait(&queries[2], PlanSpace::Linear, Objective::Single)
        .expect("submit_wait parks until capacity frees");
    for handle in [a, b, c] {
        service
            .wait(handle)
            .expect("every admitted session completes");
    }
    service.shutdown();
}

/// `pqopt serve --connect` runs the in-process serve loop over `pqopt
/// worker` processes: it prints what went on the wire and checks every
/// answer against the serial DP before it exits 0.
#[cfg(unix)]
#[test]
fn cli_serve_over_connect_matches_the_serial_dp() {
    let workers = spawn_workers("cli", 2);
    let connect: Vec<String> = addrs(&workers).iter().map(|a| a.to_string()).collect();
    let out = Command::new(BIN)
        .args(["serve", "--queries", "8", "--clients", "4", "--tables", "6"])
        .args(["--connect", &connect.join(",")])
        .output()
        .expect("run pqopt serve");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "pqopt serve --connect failed: {text}");
    for shown in [
        "on 2 socket workers",
        "\nnetwork: ",
        "all 8 results match the serial DP reference",
    ] {
        assert!(text.contains(shown), "{text}");
    }
}
