//! `pqopt` — command-line front end to the MPQ parallel query optimizer.
//!
//! ```text
//! pqopt optimize  [--tables N] [--graph star|chain|cycle|clique]
//!                 [--space linear|bushy] [--workers M] [--seed S]
//!                 [--multi ALPHA]
//! pqopt serve     [--queries N] [--clients C] [--workers M]
//!                 stream queries through one resident service
//! pqopt compare   [--tables N] [--workers M] [--seed S]       MPQ vs SMA
//! pqopt scaling   [--tables N] [--max-workers M] [--seed S]   exact work per worker count
//! pqopt partitions [--tables N] [--space linear|bushy] [--workers M]
//!                 show the constraint sets of every partition
//! pqopt worker    --listen ADDR
//!                 run one worker process serving a socket master
//! ```
//!
//! `serve --connect addr1,addr2,...` runs the same stream over
//! already-running `pqopt worker` processes on real sockets instead of
//! the in-process cluster (see the README's "Cluster transports"
//! section). Running a chosen plan on data is the `execute_plan`
//! example's job, and the resident-versus-spawn-per-query comparison the
//! `service` example's.
//!
//! Argument parsing is deliberately dependency-free.

#![forbid(unsafe_code)]

use pqopt::dp::{optimize_serial, WorkerStats};
use pqopt::model::JoinGraph;
use pqopt::partition::partition_constraints;
use pqopt::prelude::*;
use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = match cmd.as_str() {
        "optimize" => cmd_optimize(&opts),
        "serve" => cmd_serve(&opts),
        "compare" => cmd_compare(&opts),
        "scaling" => cmd_scaling(&opts),
        "partitions" => cmd_partitions(&opts),
        "worker" => cmd_worker(&opts),
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: pqopt <optimize|serve|compare|scaling|partitions|worker> [options]
options:
  --tables N        number of tables to join        (default 10)
  --graph G         star|chain|cycle|clique         (default star)
  --space S         linear|bushy                    (default linear)
  --workers M       simulated worker nodes          (default 8)
  --max-workers M   upper end of the scaling sweep  (default 64)
  --seed S          workload seed                   (default 0)
  --multi ALPHA     multi-objective mode with approximation factor ALPHA
serve options:
  --queries N       queries to stream through the service   (default 64, must be > 0)
  --clients C       concurrent in-flight submissions        (default 8, must be > 0)
  --cache-bytes N   the service's result-cache budget, bytes (default 0 = disabled)
  --max-in-flight N admission limit: most sessions the cluster keeps in flight;
                    further submissions park until capacity frees
                    (must be > 0 when given; default unlimited)
  --repeat P        percent of the serve stream drawn from a small hot set of
                    repeated queries (0-100, default 0)
  --coalesce        coalesce identical in-flight submissions onto one
                    optimization (needs --clients >= 2 and --repeat >= 1)
  --steal           straggler-adaptive work redistribution
  --connect A,B,..  drive already-running `pqopt worker` processes at these
                    addresses (host:port or unix:/path) over real sockets
                    instead of the in-process cluster
worker options:
  --listen ADDR     address to serve one master on (host:port or unix:/path;
                    TCP port 0 picks a free port, printed on stdout)";

#[derive(Debug)]
struct Options {
    tables: usize,
    graph: JoinGraph,
    space: PlanSpace,
    workers: u64,
    max_workers: u64,
    seed: u64,
    objective: Objective,
    queries: usize,
    clients: usize,
    cache_bytes: usize,
    steal: bool,
    max_in_flight: usize,
    coalesce: bool,
    repeat: usize,
    listen: Option<String>,
    connect: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            tables: 10,
            graph: JoinGraph::Star,
            space: PlanSpace::Linear,
            workers: 8,
            max_workers: 64,
            seed: 0,
            objective: Objective::Single,
            queries: 64,
            clients: 8,
            cache_bytes: 0,
            steal: false,
            max_in_flight: 0,
            coalesce: false,
            repeat: 0,
            listen: None,
            connect: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--tables" => o.tables = parse_num(&value("--tables")?)?,
                "--workers" => o.workers = parse_num(&value("--workers")?)?,
                "--max-workers" => o.max_workers = parse_num(&value("--max-workers")?)?,
                "--seed" => o.seed = parse_num(&value("--seed")?)?,
                "--multi" => {
                    let alpha: f64 = value("--multi")?
                        .parse()
                        .map_err(|_| "ALPHA must be a number".to_string())?;
                    o.objective = Objective::Multi { alpha };
                    if !o.objective.is_valid() {
                        return Err("ALPHA must be a finite number >= 1".into());
                    }
                }
                "--graph" => {
                    o.graph = match value("--graph")?.as_str() {
                        "star" => JoinGraph::Star,
                        "chain" => JoinGraph::Chain,
                        "cycle" => JoinGraph::Cycle,
                        "clique" => JoinGraph::Clique,
                        g => return Err(format!("unknown graph `{g}`")),
                    }
                }
                "--space" => {
                    o.space = match value("--space")?.as_str() {
                        "linear" => PlanSpace::Linear,
                        "bushy" => PlanSpace::Bushy,
                        s => return Err(format!("unknown plan space `{s}`")),
                    }
                }
                "--queries" => o.queries = parse_num(&value("--queries")?)?,
                "--clients" => o.clients = parse_num(&value("--clients")?)?,
                "--cache-bytes" => o.cache_bytes = parse_num(&value("--cache-bytes")?)?,
                "--max-in-flight" => {
                    let limit: usize = parse_num(&value("--max-in-flight")?)?;
                    if limit == 0 {
                        // `0` is the library's internal "unlimited"
                        // sentinel; on the CLI, omitting the flag says
                        // that, so an explicit zero is a usage error.
                        return Err("--max-in-flight must be at least 1".into());
                    }
                    o.max_in_flight = limit;
                }
                "--coalesce" => o.coalesce = true,
                "--repeat" => {
                    let percent: usize = parse_num(&value("--repeat")?)?;
                    if percent > 100 {
                        return Err("--repeat is a percentage (0-100)".into());
                    }
                    o.repeat = percent;
                }
                "--steal" => o.steal = true,
                "--listen" => o.listen = Some(value("--listen")?),
                "--connect" => {
                    o.connect = value("--connect")?
                        .split(',')
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect();
                    if o.connect.is_empty() {
                        return Err("--connect needs at least one address".into());
                    }
                }
                f => return Err(format!("unknown flag `{f}`")),
            }
        }
        if o.tables == 0 || o.tables > 24 {
            return Err("--tables must be between 1 and 24".into());
        }
        // A zero-query or zero-client serve run would silently do nothing;
        // reject it as a usage error instead.
        if o.queries == 0 {
            return Err("--queries must be at least 1".into());
        }
        if o.clients == 0 {
            return Err("--clients must be at least 1".into());
        }
        // Coalescing elides identical *concurrent* submissions: with one
        // client or a repetition-free stream there is nothing it could
        // ever merge, so asking for it is a usage error, not a silent
        // no-op run.
        if o.coalesce && o.clients < 2 {
            return Err(
                "--coalesce needs --clients >= 2 (coalescing merges concurrent submissions)".into(),
            );
        }
        if o.coalesce && o.repeat == 0 {
            return Err(
                "--coalesce needs --repeat >= 1 (a repetition-free stream has nothing to coalesce)"
                    .into(),
            );
        }
        Ok(o)
    }

    fn query(&self) -> Query {
        WorkloadGenerator::new(
            WorkloadConfig::with_graph(self.tables, self.graph),
            self.seed,
        )
        .next_query()
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("`{s}` is not a valid number"))
}

fn cmd_optimize(o: &Options) -> Result<(), String> {
    let query = o.query();
    let out = MpqOptimizer::default().optimize(&query, o.space, o.objective, o.workers);
    println!(
        "{} tables, {:?} graph, {:?} space, {} partitions over {} workers",
        o.tables, o.graph, o.space, out.metrics.partitions, out.metrics.workers_used
    );
    for (i, p) in out.plans.iter().enumerate() {
        if out.plans.len() > 1 {
            println!("\n-- frontier plan {} of {} --", i + 1, out.plans.len());
        }
        let tree = explain(&query, p).map_err(|e| format!("cannot explain a plan: {e}"))?;
        println!("{tree}");
    }
    println!(
        "total time:        {:.2} ms",
        out.metrics.total_micros as f64 / 1e3
    );
    println!(
        "max worker time:   {:.2} ms",
        out.metrics.max_worker_micros as f64 / 1e3
    );
    println!(
        "network:           {} bytes in {} round(s)",
        out.metrics.network.total_bytes(),
        out.metrics.network.rounds
    );
    println!(
        "max worker memory: {} relations",
        out.metrics.max_worker_stored_sets
    );
    Ok(())
}

/// Streams `--queries` random queries through one resident
/// [`OptimizerService`] with up to `--clients` submissions in flight, on
/// either plane: the in-process cluster, or with `--connect` the
/// already-running `pqopt worker` processes at those addresses. Prints
/// what the service did, checks every single-objective result against
/// the serial DP reference — so a corrupted wire cannot pass silently —
/// and reports the throughput.
fn cmd_serve(o: &Options) -> Result<(), String> {
    let queries = serve_workload(o);
    let addrs = parse_addrs(&o.connect)?;
    let (workers, plane) = if addrs.is_empty() {
        (o.workers as usize, "in-process workers")
    } else {
        (addrs.len(), "socket workers")
    };
    let config = service_config(o, workers);
    println!(
        "serving {} queries ({} tables, {:?} graph, {}% repeated) on {} {plane}, {} clients, \
         cache {} bytes, steal {}, in-flight limit {}, coalescing {}",
        queries.len(),
        o.tables,
        o.graph,
        o.repeat,
        workers,
        o.clients,
        o.cache_bytes,
        if o.steal { "on" } else { "off" },
        if o.max_in_flight > 0 {
            o.max_in_flight.to_string()
        } else {
            "unlimited".to_string()
        },
        if o.coalesce { "on" } else { "off" },
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI report: the printed wall-clock time of the run; no decision reads it"
    )]
    let t0 = Instant::now();
    let mut service = if addrs.is_empty() {
        OptimizerService::spawn(config).map_err(|e| format!("service spawn failed: {e}"))?
    } else {
        OptimizerService::connect(config, &addrs)
            .map_err(|e| format!("service connect failed: {e}"))?
    };
    let results = run_resident(&mut service, &queries, o)?;
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI report: the printed wall-clock time of the run; no decision reads it"
    )]
    let elapsed = t0.elapsed();
    print_service(&service, queries.len(), o);
    service.shutdown();
    if o.objective == Objective::Single {
        for (i, (query, plans)) in queries.iter().zip(&results).enumerate() {
            let reference = optimize_serial(query, o.space, o.objective).plans[0]
                .cost()
                .time;
            let cost = plans[0].cost().time;
            if cost.to_bits() != reference.to_bits() {
                return Err(format!("query {i}: {cost} vs serial {reference}"));
            }
        }
        println!(
            "all {} results match the serial DP reference",
            queries.len()
        );
    }
    println!(
        "throughput: {} queries in {:.1} ms ({:.1} queries/sec)",
        queries.len(),
        elapsed.as_secs_f64() * 1e3,
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    Ok(())
}

/// The service `serve` runs over `workers` workers: `--steal` is the MPQ
/// engine's switch, and `--max-in-flight` the facade's one admission limit.
fn service_config(o: &Options, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        mpq: MpqConfig {
            steal: o.steal,
            ..MpqConfig::default()
        },
        cache_bytes: o.cache_bytes,
        max_in_flight: o.max_in_flight,
        coalesce: o.coalesce,
        ..ServiceConfig::default()
    }
}

/// Generates the serve workload: `--queries` queries where `--repeat`
/// percent of the stream positions (striped deterministically) repeat a
/// small hot set, and the rest are fresh random queries. At `--repeat 0`
/// this is exactly the pre-repetition stream.
fn serve_workload(o: &Options) -> Vec<Query> {
    let config = || WorkloadConfig::with_graph(o.tables, o.graph);
    let mut cold = WorkloadGenerator::new(config(), o.seed);
    if o.repeat == 0 {
        return (0..o.queries).map(|_| cold.next_query()).collect();
    }
    // A small hot set, disjoint from the cold stream by seed. Hot ranks
    // are drawn Zipf-skewed (s = 1.1) from a seeded generator, so the
    // same hot query recurs in quick succession — with `--coalesce`,
    // those duplicates overlap in flight and share one optimization.
    let hot: Vec<Query> = (0..4)
        .map(|i| WorkloadGenerator::new(config(), 1_000 + i).next_query())
        .collect();
    let cdf: Vec<f64> = {
        let weights: Vec<f64> = (1..=hot.len())
            .map(|r| 1.0 / (r as f64).powf(1.1))
            .collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect()
    };
    let mut state = o.seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..o.queries)
        .map(|i| {
            if i % 100 < o.repeat {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let rank = cdf.iter().position(|&c| u <= c).unwrap_or(hot.len() - 1);
                hot[rank].clone()
            } else {
                cold.next_query()
            }
        })
        .collect()
}

/// Streams the workload through `service` with up to `--clients`
/// submissions in flight, returning the plans in query order. With an
/// admission limit set, submissions park at the limit (`submit_wait`) so
/// a limit below `--clients` exercises backpressure instead of failing.
fn run_resident(
    service: &mut OptimizerService,
    queries: &[Query],
    o: &Options,
) -> Result<Vec<Vec<Plan>>, String> {
    let mut results = Vec::with_capacity(queries.len());
    let mut in_flight = VecDeque::new();
    let mut pending = queries.iter();
    loop {
        while in_flight.len() < o.clients {
            let Some(q) = pending.next() else { break };
            let handle = if o.max_in_flight > 0 {
                service.submit_wait(q, o.space, o.objective)
            } else {
                service.submit(q, o.space, o.objective)
            }
            .map_err(|e| format!("submit failed: {e}"))?;
            in_flight.push_back(handle);
        }
        // Handles are redeemed in submission order, so the results land
        // in query order.
        let Some(handle) = in_flight.pop_front() else {
            return Ok(results);
        };
        let plans = service
            .wait(handle)
            .map_err(|e| format!("query {} failed: {e}", results.len()))?;
        results.push(plans);
    }
}

/// What the resident run did: what it put on the wire per query — the
/// numbers the benchmark reports as `mpq.msgs_per_query` and
/// `net_bytes_per_query`, which show how the master placed the stream
/// and, with `--steal`, the steals and worker progress reports behind
/// them — then what the result cache and the coalescer saved, when
/// enabled.
fn print_service(service: &OptimizerService, queries: usize, o: &Options) {
    if let Some(net) = service.network_snapshot() {
        let per_query = |v: u64| v as f64 / queries.max(1) as f64;
        println!(
            "network: {:.2} messages and {:.1} bytes per query",
            per_query(net.messages),
            per_query(net.total_bytes())
        );
        if o.steal {
            println!(
                "steal: {:.2} steals and {:.2} progress reports per query",
                per_query(net.steals),
                per_query(net.progress_reports)
            );
        }
    }
    if o.cache_bytes > 0 {
        let cache = service.cache_stats();
        println!(
            "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions / {} declined \
             admissions, ~{} bytes of results served without a message",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.evictions,
            cache.declined,
            cache.bytes_saved
        );
    }
    if o.coalesce {
        let coalesce = service.coalesce_stats();
        println!(
            "coalescing: {} session(s) shared a flight, {} optimization(s) saved",
            coalesce.coalesced_sessions, coalesce.saved_optimizations
        );
    }
}

fn parse_addrs(specs: &[String]) -> Result<Vec<pqopt::cluster::WorkerAddr>, String> {
    specs
        .iter()
        .map(|s| s.parse().map_err(|e| format!("--connect `{s}`: {e}")))
        .collect()
}

/// `pqopt worker --listen ADDR`: one worker process of a socket cluster.
/// Prints the bound address (TCP port 0 resolves to a free port), then
/// serves a single master connection until it disconnects or orders
/// shutdown.
fn cmd_worker(o: &Options) -> Result<(), String> {
    let Some(listen) = &o.listen else {
        return Err("worker requires --listen ADDR".into());
    };
    if o.cache_bytes > 0 {
        return Err("--cache-bytes is a serve option: workers hold no cache".into());
    }
    let addr: pqopt::cluster::WorkerAddr = listen.parse().map_err(|e| format!("--listen: {e}"))?;
    let listener = pqopt::cluster::WireListener::bind(&addr)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    println!("listening on {bound}");
    // The coordinating parent process reads this address from our pipe;
    // pipes are block-buffered, so flush past the buffering.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    pqopt::mpq::serve_socket_worker(&listener, 0, ParallelPolicy::serial())
        .map_err(|e| format!("worker terminated abnormally: {e}"))
}

fn cmd_compare(o: &Options) -> Result<(), String> {
    let query = o.query();
    let mpq = MpqOptimizer::default()
        .try_optimize(&query, o.space, o.objective, o.workers)
        .map_err(|e| e.to_string())?;
    let sma = SmaOptimizer
        .try_optimize(&query, o.space, o.objective, o.workers as usize)
        .map_err(|e| e.to_string())?;
    println!(
        "{:<6} {:>14} {:>10} {:>8}",
        "", "network (B)", "messages", "rounds"
    );
    for (name, net, rounds) in [
        ("MPQ", mpq.metrics.network, mpq.metrics.network.rounds),
        ("SMA", sma.metrics.network, sma.metrics.rounds),
    ] {
        println!(
            "{name:<6} {:>14} {:>10} {rounds:>8}",
            net.total_bytes(),
            net.messages
        );
    }
    let a = mpq.plans[0].cost().time;
    let b = sma.plans[0].cost().time;
    if a.to_bits() != b.to_bits() {
        return Err(format!("optimizers disagree: {a} vs {b}"));
    }
    println!("both found the same optimal plan cost: {a:.4e}");
    Ok(())
}

/// The exact work and byte counters of one query per worker count — the
/// `fig1`/`fig2` bench series for a single query: partitions, the largest
/// per-worker splits, stored sets and generated plans, and the bytes on
/// the wire, with the ratio of max splits to the previous row (the paper
/// predicts a constant factor per doubling).
fn cmd_scaling(o: &Options) -> Result<(), String> {
    let query = o.query();
    println!(
        "{:>8} {:>11} {:>12} {:>9} {:>12} {:>12} {:>10}",
        "workers", "partitions", "max splits", "x splits", "max sets", "max plans", "net (B)"
    );
    let mut previous_splits = None;
    // Past the query's partition limit a row only repeats the last one
    // (and doubling towards `u64::MAX` would wrap).
    let last = o
        .max_workers
        .min(o.space.max_partitions(query.num_tables()));
    let mut w = 1u64;
    while w <= last {
        let out = MpqOptimizer::default().optimize(&query, o.space, o.objective, w);
        let max = out
            .metrics
            .worker_stats
            .iter()
            .fold(WorkerStats::default(), |a, s| a.max(s));
        let ratio = match previous_splits {
            Some(prev) => format!("{:.3}", max.splits_tried as f64 / prev as f64),
            None => "-".to_string(),
        };
        println!(
            "{:>8} {:>11} {:>12} {:>9} {:>12} {:>12} {:>10}",
            w,
            out.metrics.partitions,
            max.splits_tried,
            ratio,
            max.stored_sets,
            max.plans_generated,
            out.metrics.network.total_bytes()
        );
        previous_splits = Some(max.splits_tried.max(1));
        w *= 2;
    }
    Ok(())
}

fn cmd_partitions(o: &Options) -> Result<(), String> {
    let workers = pqopt::partition::effective_workers(o.space, o.tables, o.workers);
    println!(
        "{} tables, {:?} space: {} partitions (log2 = {} constraints each)",
        o.tables,
        o.space,
        workers,
        workers.trailing_zeros()
    );
    for id in 0..workers {
        let cs = partition_constraints(o.tables, o.space, id, workers);
        let desc: Vec<String> = cs
            .iter()
            .map(|c| match c {
                pqopt::partition::Constraint::Precedence { before, after } => {
                    format!("Q{before} ≺ Q{after}")
                }
                pqopt::partition::Constraint::BushyPrecedence { x, y, z } => {
                    format!("Q{x} ⪯ Q{y} | Q{z}")
                }
            })
            .collect();
        println!("  partition {id:>3}: {}", desc.join(", "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]

    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    /// `--max-in-flight 0` is the library's internal "unlimited" sentinel;
    /// on the CLI an explicit zero is a usage error (mirrors `--queries 0`).
    #[test]
    fn serve_rejects_zero_max_in_flight() {
        let err = parse(&["--max-in-flight", "0"]).unwrap_err();
        assert!(err.contains("--max-in-flight"), "{err}");
    }

    #[test]
    fn serve_accepts_admission_and_coalescing_flags() {
        let o = parse(&[
            "--max-in-flight",
            "4",
            "--coalesce",
            "--clients",
            "8",
            "--repeat",
            "80",
        ])
        .unwrap();
        assert_eq!(o.max_in_flight, 4);
        assert!(o.coalesce);
        assert_eq!(o.repeat, 80);
    }

    /// Coalescing without its prerequisites — concurrency and repetition —
    /// could never merge anything; both misuses are typed usage errors.
    #[test]
    fn coalesce_requires_concurrency_and_repetition() {
        let err = parse(&["--coalesce", "--clients", "1", "--repeat", "50"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        let err = parse(&["--coalesce", "--clients", "4"]).unwrap_err();
        assert!(err.contains("--repeat"), "{err}");
    }

    /// Stealing is one switch: the tuning flags it once had are unknown,
    /// and so is `--execute` (the `execute_plan` example runs a plan).
    #[test]
    fn steal_tuning_flags_are_unknown() {
        assert!(parse(&["--steal"]).unwrap().steal);
        for flag in ["--steal-lag", "--steal-min", "--execute"] {
            let err = parse(&[flag, "2"]).unwrap_err();
            assert_eq!(err, format!("unknown flag `{flag}`"));
        }
    }

    #[test]
    fn repeat_is_a_percentage() {
        let err = parse(&["--repeat", "101"]).unwrap_err();
        assert!(err.contains("0-100"), "{err}");
        assert!(parse(&["--repeat", "100"]).is_ok());
    }

    /// The hot-set striping injects exactly the requested repetition
    /// ratio (on a stream length divisible by 100) and is deterministic.
    #[test]
    fn serve_workload_honors_the_repeat_knob() {
        let mut o = parse(&["--queries", "100", "--repeat", "80", "--tables", "6"]).unwrap();
        let stream = serve_workload(&o);
        let hot: Vec<Query> = (0..4)
            .map(|i| {
                WorkloadGenerator::new(WorkloadConfig::with_graph(o.tables, o.graph), 1_000 + i)
                    .next_query()
            })
            .collect();
        let repeated = stream.iter().filter(|q| hot.contains(q)).count();
        assert_eq!(repeated, 80);
        assert_eq!(stream, serve_workload(&o), "stream is deterministic");
        o.repeat = 0;
        let cold = serve_workload(&o);
        assert!(cold.iter().all(|q| !hot.contains(q)));
    }
}
