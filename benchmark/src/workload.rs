//! The five workloads: what each feeds the optimizer and why, the
//! correctness oracle, and the service each one runs against.

use crate::gen::{shaped_queries, star_queries, Rng, Round, ZipfStream};
use crate::trace::{Tracer, TracingTransport, TracingWorker};
use mpq_algo::{serve_socket_worker, worker_logic};
use mpq_cluster::{Cluster, LatencyModel, SocketTransport, Transport, WireListener, WorkerAddr};
use mpq_cost::Objective;
use mpq_dp::{exhaustive_linear_best_time, optimize_partition_id, optimize_serial, ParallelPolicy};
use mpq_model::Query;
use mpq_partition::{effective_workers, PlanSpace};
use mpq_plan::{Plan, PruningPolicy};
use pqopt::service::{Backend, OptimizerService, ServiceConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where a workload's queries come from.
#[derive(Clone, Copy, Debug)]
pub enum Inputs {
    /// `per_shape` queries of each join-graph shape; every round replays
    /// them (the large-query workloads).
    Shaped { tables: usize, per_shape: usize },
    /// `count` distinct star queries, submitted once per round. Rounds
    /// replay the same queries: nothing in the service remembers them
    /// (cache and coalescing are off), so every round does the same work.
    Stars { tables: usize, count: usize },
    /// `round` draws per round: Zipf(s) over a hot set of `hot` queries,
    /// except a `cold_share` of never-seen queries, fresh every round.
    Zipf {
        tables: usize,
        hot: usize,
        s: f64,
        cold_share: f64,
        round: usize,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub space: PlanSpace,
    pub objective: Objective,
    pub workers: usize,
    /// Closed loop: the one load-generator thread keeps this many
    /// queries in flight and submits the next when the oldest returns.
    pub window: usize,
    /// Per-worker cross-query cache budget (0 = off).
    pub cache_bytes: usize,
    pub coalesce: bool,
    /// Real Unix-domain sockets instead of in-process channels.
    pub sockets: bool,
    pub inputs: Inputs,
    /// Queries decomposed into 8 partitions for `wtime_ms_m8`; the first
    /// of them is also the query a set-up cycle redeems.
    pub wtime_sample: usize,
    /// Listed in `BENCHMARK.json`, so the driver runs and gates it.
    pub gated: bool,
}

impl Spec {
    pub fn is_large(&self) -> bool {
        matches!(self.inputs, Inputs::Shaped { .. })
    }
}

/// Queries per stream round (about 0.1 s). Rates are best-of-rounds, and
/// on a host whose quiet spells are short a short round fits into one.
const STREAM_ROUND: usize = 2000;

/// The workloads at full size, or at roughly 1/20 size for the smoke test.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let div = if smoke { 20 } else { 1 };
    let linear = Spec {
        name: "",
        why: "",
        space: PlanSpace::Linear,
        objective: Objective::Single,
        workers: 2,
        window: 32,
        cache_bytes: 0,
        coalesce: false,
        sockets: false,
        inputs: Inputs::Stars {
            tables: 6,
            count: STREAM_ROUND / div,
        },
        wtime_sample: 8,
        gated: true,
    };
    vec![
        Spec {
            name: "large_linear",
            why: "One big left-deep single-objective query at a time: dp and cost do nearly all the work",
            window: 1,
            inputs: Inputs::Shaped {
                tables: if smoke { 10 } else { 15 },
                per_shape: 1,
            },
            wtime_sample: 2,
            ..linear
        },
        Spec {
            name: "large_bushy_multi",
            why: "Same dp layer used differently: bushy triples, Pareto frontiers, prune hot, large replies",
            space: PlanSpace::Bushy,
            objective: Objective::Multi { alpha: 2.0 },
            window: 1,
            inputs: Inputs::Shaped {
                tables: if smoke { 6 } else { 9 },
                per_shape: if smoke { 1 } else { 2 },
            },
            wtime_sample: 4,
            ..linear
        },
        Spec {
            name: "stream_unique",
            why: "Distinct small queries, cache and coalescing off: the per-query overhead floor of mpq, codec, runtime",
            ..linear
        },
        Spec {
            name: "stream_zipf",
            why: "Skewed repeats over a hot set larger than the cache: cache, coalescer and key hashing carry the load",
            cache_bytes: 48 * 1024,
            coalesce: true,
            inputs: Inputs::Zipf {
                tables: 8,
                hot: 64,
                s: 1.1,
                cold_share: 0.05,
                round: STREAM_ROUND / div,
            },
            ..linear
        },
        Spec {
            name: "stream_socket",
            why: "The unique stream over Unix sockets to 4 workers: the only number for the real wire path",
            workers: 4,
            sockets: true,
            gated: false,
            ..linear
        },
    ]
}

/// What a correct answer looks like: the sorted cost bits of the plans.
/// Single-objective answers are compared on time only (a tie on time may
/// legitimately pick a plan with another buffer footprint).
pub type Digest = Vec<(u64, u64)>;

pub fn digest(objective: Objective, plans: &[Plan]) -> Digest {
    let mut d: Digest = plans
        .iter()
        .map(|p| {
            let c = p.cost();
            match objective {
                Objective::Single => (c.time.to_bits(), 0),
                Objective::Multi { .. } => (c.time.to_bits(), c.buffer.to_bits()),
            }
        })
        .collect();
    d.sort_unstable();
    d
}

/// The reference answer, computed without service, codec or transport.
/// Single-objective: the serial DP optimum, which every backend must
/// reproduce bit for bit. Multi-objective: α-pruning is insertion-order
/// dependent, so the bit-exact reference is the same partition cut solved
/// by direct calls and merged by `final_prune`.
pub fn reference(spec: &Spec, query: &Query) -> Digest {
    match spec.objective {
        Objective::Single => digest(
            spec.objective,
            &optimize_serial(query, spec.space, spec.objective).plans,
        ),
        Objective::Multi { .. } => {
            // The cut the service will make: one partition per worker.
            let m = effective_workers(spec.space, query.num_tables(), spec.workers as u64);
            let mut plans: Vec<Plan> = (0..m)
                .flat_map(|p| optimize_partition_id(query, spec.space, spec.objective, p, m).plans)
                .collect();
            PruningPolicy::new(spec.objective, query.num_tables()).final_prune(&mut plans);
            digest(spec.objective, &plans)
        }
    }
}

/// Checks a seeded sample of 32 references against code that shares
/// nothing with the dynamic program: exhaustive enumeration, which is
/// feasible for linear single-objective queries of at most 8 tables (the
/// stream workloads). Returns the number of disagreements.
pub fn cross_check(spec: &Spec, round: &Round, refs: &[Digest], seed: u64) -> u64 {
    if spec.space != PlanSpace::Linear || spec.objective != Objective::Single {
        return 0;
    }
    let mut rng = Rng::new(seed);
    (0..32)
        .map(|_| (rng.next_u64() % round.pool.len() as u64) as usize)
        .filter(|&i| round.pool[i].num_tables() <= 8)
        .filter(|&i| {
            let want = exhaustive_linear_best_time(&round.pool[i]);
            let got = f64::from_bits(refs[i][0].0);
            (want - got).abs() > 1e-9 * want.abs().max(1.0)
        })
        .count() as u64
}

/// A round of inputs with the reference answer of every pool query.
pub struct Prepared {
    pub round: Round,
    pub refs: Vec<Digest>,
}

/// The workload's input stream, with references computed between rounds
/// (outside any timed window).
pub struct Feed {
    spec: Spec,
    zipf: Option<(ZipfStream, usize, usize)>,
    current: Prepared,
}

impl Feed {
    pub fn new(spec: &Spec, seed: u64) -> Feed {
        let (round, zipf) = match spec.inputs {
            Inputs::Shaped { tables, per_shape } => (shaped_queries(seed, tables, per_shape), None),
            Inputs::Stars { tables, count } => (star_queries(seed, tables, count), None),
            Inputs::Zipf {
                tables,
                hot,
                s,
                cold_share,
                round,
            } => {
                let mut stream = ZipfStream::new(seed, tables, hot, s, cold_share);
                (stream.next_round(round), Some((stream, hot, round)))
            }
        };
        let refs = round.pool.iter().map(|q| reference(spec, q)).collect();
        Feed {
            spec: *spec,
            zipf,
            current: Prepared { round, refs },
        }
    }

    pub fn current(&self) -> &Prepared {
        &self.current
    }

    /// Moves to the next round. Only the Zipf stream changes: its hot set
    /// (and the hot references) stay, its cold queries are replaced.
    pub fn advance(&mut self) {
        if let Some((stream, hot, size)) = &mut self.zipf {
            let round = stream.next_round(*size);
            self.current.refs.truncate(*hot);
            let spec = self.spec;
            self.current
                .refs
                .extend(round.pool[*hot..].iter().map(|q| reference(&spec, q)));
            self.current.round = round;
        }
    }
}

/// A running service plus whatever had to be started around it.
pub struct Harness {
    pub svc: OptimizerService,
    socket_workers: Vec<JoinHandle<std::io::Result<()>>>,
    socket_dir: Option<PathBuf>,
}

/// Directory for everything a run writes; inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

static SOCKET_DIRS: AtomicU64 = AtomicU64::new(0);

impl Harness {
    /// Brings the workload's service up: worker threads (or socket
    /// workers plus handshake) and the facade on top. With a tracer, the
    /// same pieces are assembled through the public `Transport` and
    /// `WorkerLogic` traits with span recorders in between.
    pub fn bring_up(spec: &Spec, tracer: Option<&Arc<Tracer>>) -> Result<Harness, String> {
        let config = ServiceConfig {
            backend: Backend::Mpq,
            workers: spec.workers,
            cache_bytes: spec.cache_bytes,
            coalesce: spec.coalesce,
            ..ServiceConfig::default()
        };
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
        let mut socket_workers = Vec::new();
        let mut socket_dir = None;
        let mut addrs = Vec::new();
        if spec.sockets {
            // A relative path keeps the socket name short (sun_path holds
            // 108 bytes) wherever the checkout lives.
            let dir = out_dir().join(format!(
                "s{}-{}",
                std::process::id(),
                SOCKET_DIRS.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).map_err(|e| err(&e))?;
            for w in 0..spec.workers {
                let addr = WorkerAddr::Unix(dir.join(format!("w{w}.sock")));
                let listener = WireListener::bind(&addr).map_err(|e| err(&e))?;
                let cache_bytes = spec.cache_bytes;
                let tracer = tracer.cloned();
                socket_workers.push(std::thread::spawn(move || match tracer {
                    None => serve_socket_worker(&listener, cache_bytes, ParallelPolicy::serial()),
                    Some(t) => mpq_cluster::serve_worker(
                        &listener,
                        TracingWorker::new(worker_logic(cache_bytes), t, w),
                    ),
                }));
                addrs.push(addr);
            }
            socket_dir = Some(dir);
        }
        let svc = match (tracer, spec.sockets) {
            (None, false) => OptimizerService::spawn(config).map_err(|e| err(&e))?,
            (None, true) => OptimizerService::connect(config, &addrs).map_err(|e| err(&e))?,
            (Some(t), sockets) => {
                let plane: Box<dyn Transport> = if sockets {
                    Box::new(SocketTransport::connect(&addrs).map_err(|e| err(&e))?)
                } else {
                    let cache_bytes = spec.cache_bytes;
                    Box::new(
                        Cluster::spawn(spec.workers, LatencyModel::ZERO, |w| {
                            TracingWorker::new(worker_logic(cache_bytes), Arc::clone(t), w)
                        })
                        .map_err(|e| err(&e))?,
                    )
                };
                let traced = TracingTransport::new(plane, Arc::clone(t));
                OptimizerService::with_transport(config, Box::new(traced)).map_err(|e| err(&e))?
            }
        };
        Ok(Harness {
            svc,
            socket_workers,
            socket_dir,
        })
    }

    /// Stops the service and waits for every thread it started.
    pub fn shut_down(self) {
        self.svc.shutdown();
        for worker in self.socket_workers {
            // A worker that saw its master disconnect returns Ok or a
            // typed I/O error; either way it has ended.
            let _ = worker.join();
        }
        if let Some(dir) = self.socket_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
