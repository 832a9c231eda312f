//! The untraced run: the end-to-end metrics a user of the system sees.
//!
//! All runs use `LatencyModel::ZERO` (simulated latency is `sleep`, not
//! program work) and one load-generator thread. The run is a sequence of
//! slices, each of which samples every metric once; as many slices as fit
//! into `--seconds`, and at least three.

use crate::est::{mean, mean_of_min, median};
use crate::gen::Round;
use crate::sys::CpuClock;
use crate::workload::{digest, Feed, Harness, Prepared, Spec};
use mpq_algo::{MasterMessage, WorkerMsg, WorkerReply};
use mpq_cluster::Wire;
use mpq_dp::{optimize_partition_id, PartitionOutcome};
use mpq_model::Query;
use mpq_plan::{Plan, PruningPolicy};
use pqopt::service::{OptimizerService, ServiceHandle};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hooks around the facade calls. [`NoProbe`] compiles to nothing.
pub trait Probe {
    fn submit_start(&mut self, _slot: usize) {}
    fn submit_end(&mut self, _slot: usize) {}
    fn wait_start(&mut self, _slot: usize) {}
    fn wait_end(&mut self, _slot: usize, _plans: usize) {}
}

pub struct NoProbe;
impl Probe for NoProbe {}

/// Submit-to-plans wall time of each slot in milliseconds and, on
/// request, the process CPU time spent meanwhile (two `/proc` scans and
/// two yields per query: only worth it when queries are large).
pub struct QueryProbe {
    with_cpu: bool,
    started: Vec<Option<(Instant, Option<CpuClock>)>>,
    pub ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
}

impl QueryProbe {
    pub fn new(slots: usize, with_cpu: bool) -> QueryProbe {
        QueryProbe {
            with_cpu,
            started: (0..slots).map(|_| None).collect(),
            ms: vec![0.0; slots],
            cpu_ms: vec![0.0; slots],
        }
    }
}

impl Probe for QueryProbe {
    fn submit_start(&mut self, slot: usize) {
        self.started[slot] = Some((Instant::now(), self.with_cpu.then(CpuClock::now)));
    }
    fn wait_end(&mut self, slot: usize, _plans: usize) {
        if let Some((t0, cpu0)) = &self.started[slot] {
            self.ms[slot] = t0.elapsed().as_secs_f64() * 1e3;
            self.cpu_ms[slot] = cpu0.as_ref().map_or(0.0, |c| c.elapsed_ns() as f64 / 1e6);
        }
    }
}

/// Operations attempted and failed. A typed error, a refusal and a wrong
/// answer all count as failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `order` through the service as a closed loop of `window`
/// outstanding queries, checking every answer against its reference.
pub fn drive<P: Probe>(
    svc: &mut OptimizerService,
    spec: &Spec,
    input: &Prepared,
    order: &[u32],
    window: usize,
    probe: &mut P,
    tally: &mut Tally,
) {
    let mut in_flight: VecDeque<(usize, ServiceHandle)> = VecDeque::with_capacity(window);
    let redeem = |svc: &mut OptimizerService,
                  slot: usize,
                  handle: ServiceHandle,
                  probe: &mut P,
                  tally: &mut Tally| {
        probe.wait_start(slot);
        let out = svc.wait(handle);
        probe.wait_end(slot, out.as_ref().map_or(0, Vec::len));
        let reference = &input.refs[order[slot] as usize];
        if !matches!(out, Ok(plans) if &digest(spec.objective, &plans) == reference) {
            tally.failed += 1;
        }
    };
    for (slot, &qi) in order.iter().enumerate() {
        if in_flight.len() == window {
            if let Some((s, h)) = in_flight.pop_front() {
                redeem(svc, s, h, probe, tally);
            }
        }
        tally.attempted += 1;
        probe.submit_start(slot);
        let handle = svc.submit(&input.round.pool[qi as usize], spec.space, spec.objective);
        probe.submit_end(slot);
        match handle {
            Ok(h) => in_flight.push_back((slot, h)),
            Err(_) => tally.failed += 1,
        }
    }
    while let Some((s, h)) = in_flight.pop_front() {
        redeem(svc, s, h, probe, tally);
    }
}

/// One timed round: wall time, process CPU time and network bytes.
pub struct RoundSample {
    pub queries: usize,
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub net_bytes: u64,
}

pub fn timed_round<P: Probe>(
    harness: &mut Harness,
    spec: &Spec,
    input: &Prepared,
    order: &[u32],
    window: usize,
    probe: &mut P,
    tally: &mut Tally,
) -> RoundSample {
    let bytes = |h: &Harness| h.svc.network_snapshot().map_or(0, |s| s.total_bytes());
    let net0 = bytes(harness);
    let cpu0 = CpuClock::now();
    let t0 = Instant::now();
    drive(&mut harness.svc, spec, input, order, window, probe, tally);
    let wall_s = t0.elapsed().as_secs_f64();
    RoundSample {
        queries: order.len(),
        wall_s,
        cpu_ns: cpu0.elapsed_ns(),
        net_bytes: bytes(harness) - net0,
    }
}

/// Repeats `body` until `deadline`, at least `min` and at most `max`
/// times; returns how often it ran.
pub fn repeat_until(deadline: Instant, min: usize, max: usize, mut body: impl FnMut()) -> usize {
    let mut runs = 0;
    while runs < max && (runs < min || Instant::now() < deadline) {
        body();
        runs += 1;
    }
    runs
}

/// Set-up as a user pays it: bring the service up (threads, or sockets
/// plus handshake) and redeem the first query.
fn setup_cycle(spec: &Spec, input: &Prepared, tally: &mut Tally) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut harness = Harness::bring_up(spec, None)?;
    drive(
        &mut harness.svc,
        spec,
        input,
        &input.round.order[..1],
        1,
        &mut NoProbe,
        tally,
    );
    let seconds = t0.elapsed().as_secs_f64();
    harness.shut_down();
    Ok(seconds)
}

/// What one query costs as the paper's W-time on an `m`-node cluster,
/// measured on any host: the master's serial steps plus the slowest
/// partition, each partition solved alone (uncontended).
pub struct WTime {
    query: Query,
    pub m: u64,
    encode_ns: u64,
    pub partition_ns: Vec<u64>,
    pub outcomes: Vec<PartitionOutcome>,
    decode_ns: u64,
    pub prune_ns: u64,
}

impl WTime {
    pub fn new(spec: &Spec, query: &Query, m: u64) -> WTime {
        WTime {
            query: query.clone(),
            m: m.min(spec.space.max_partitions(query.num_tables())),
            encode_ns: u64::MAX,
            partition_ns: Vec::new(),
            outcomes: Vec::new(),
            decode_ns: u64::MAX,
            prune_ns: u64::MAX,
        }
    }

    /// One more repeat; every component keeps its minimum.
    pub fn repeat(&mut self, spec: &Spec) {
        let (q, m) = (&self.query, self.m);
        let t = Instant::now();
        for p in 0..m {
            black_box(
                MasterMessage {
                    query: q.clone(),
                    space: spec.space,
                    objective: spec.objective,
                    first_partition: p,
                    partition_count: 1,
                    total_partitions: m,
                    progress_every: 0,
                }
                .to_bytes(),
            );
        }
        self.encode_ns = self.encode_ns.min(t.elapsed().as_nanos() as u64);

        self.partition_ns.resize(m as usize, u64::MAX);
        self.outcomes.clear();
        for p in 0..m {
            let t = Instant::now();
            let out = optimize_partition_id(q, spec.space, spec.objective, p, m);
            let ns = t.elapsed().as_nanos() as u64;
            self.partition_ns[p as usize] = self.partition_ns[p as usize].min(ns);
            self.outcomes.push(out);
        }

        let replies: Vec<_> = self
            .outcomes
            .iter()
            .enumerate()
            .map(|(p, out)| {
                WorkerMsg::Reply(WorkerReply {
                    first_partition: p as u64,
                    partition_count: 1,
                    plans: out.plans.clone(),
                    stats: out.stats,
                    cache_hits: 0,
                    cache_misses: 0,
                })
                .to_bytes()
            })
            .collect();
        let t = Instant::now();
        for bytes in &replies {
            black_box(WorkerMsg::from_bytes(bytes).is_ok());
        }
        self.decode_ns = self.decode_ns.min(t.elapsed().as_nanos() as u64);

        let mut merged = self.merged_plans();
        let policy = PruningPolicy::new(spec.objective, q.num_tables());
        let t = Instant::now();
        policy.final_prune(&mut merged);
        self.prune_ns = self.prune_ns.min(t.elapsed().as_nanos() as u64);
        black_box(merged);
    }

    pub fn merged_plans(&self) -> Vec<Plan> {
        self.outcomes
            .iter()
            .flat_map(|o| o.plans.iter().cloned())
            .collect()
    }

    pub fn slowest_partition_ns(&self) -> u64 {
        self.partition_ns.iter().copied().max().unwrap_or(0)
    }

    pub fn total_ms(&self) -> f64 {
        (self.encode_ns + self.slowest_partition_ns() + self.decode_ns + self.prune_ns) as f64 / 1e6
    }
}

/// Name, unit, direction and the share of the parent's median by which
/// the metric may worsen: the gating contract, mirrored in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("opt_ms_best", "ms", "lower", 0.25),
    ("wtime_ms_m8", "ms", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("net_bytes_per_query", "bytes", "lower", 0.10),
];

/// Stream rates, latencies and CPU times are taken over this many of
/// the fastest rounds: few enough to be undisturbed rounds, enough to
/// average out what one short round's clock readings are off by.
const FASTEST_ROUNDS: usize = 3;

pub struct Outcome {
    pub metrics: Vec<(String, &'static str, f64)>,
    pub tally: Tally,
    /// Reference answers that an independent method disputes.
    pub oracle_disputes: u64,
}

/// The end-to-end run.
///
/// The host this was sized on has phases, seconds to minutes long and
/// on each core independently, in which the same code runs up to 1.7x
/// slower (another tenant contending for cache; measured with a fixed
/// single-thread kernel). The optimizer is deterministic, so the
/// disturbance only ever adds time. Two consequences shape this function.
/// Every timing estimator is a best-of: minimum time per large query,
/// the fastest rounds of a stream, the quickest slice for set-up. And the
/// run is cut into slices that each take one sample for every metric, so
/// each estimator sees the whole run and not one phase of it. Stream
/// rounds are short (about 0.1 s) because the quiet spells can be.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut feed = Feed::new(spec, seed);
    let oracle_disputes = {
        let input = feed.current();
        crate::workload::cross_check(spec, &input.round, &input.refs, seed)
    };
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Small set-ups come in bursts, and a slice's set-up time is the
    // burst's median: the first few cycles after a round run cold (2-3x).
    let setups_per_slice = if spec.is_large() { 1 } else { 32 };

    // Set-up and W-time use the same few queries in every slice, so
    // best-of compares like with like (on the Zipf stream they are the
    // head of the hot set).
    let sample = sample_of(feed.current(), spec.wtime_sample);
    let mut wtimes: Vec<WTime> = sample
        .round
        .pool
        .iter()
        .map(|q| WTime::new(spec, q, 8))
        .collect();

    let mut harness = Harness::bring_up(spec, None)?;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut latency_ms: Vec<Vec<f64>> = Vec::new();
    let mut cpu_ms: Vec<Vec<f64>> = Vec::new();
    let mut rounds: Vec<RoundSample> = Vec::new();
    // A slice that would not fit is not started: the run ends by
    // `--seconds`, give or take nothing but the floor of three slices.
    let mut longest = Duration::ZERO;
    let mut slices = 0;
    while slices < 3 || Instant::now() + longest < deadline {
        let slice_start = Instant::now();
        slices += 1;
        // Fresh services beside the resident one, which sits idle meanwhile.
        let burst = (0..setups_per_slice)
            .map(|_| setup_cycle(spec, &sample, &mut tally))
            .collect::<Result<Vec<f64>, String>>()?;
        setup_s.push(median(&burst));
        let input = feed.current();
        // Large queries (window 1, each its own round) also get their own
        // CPU reading: two `/proc` scans per query.
        let mut probe = QueryProbe::new(input.round.order.len(), spec.is_large());
        rounds.push(timed_round(
            &mut harness,
            spec,
            input,
            &input.round.order,
            spec.window,
            &mut probe,
            &mut tally,
        ));
        if spec.is_large() {
            latency_ms.push(probe.ms);
            cpu_ms.push(probe.cpu_ms);
        } else {
            // A stream's queries are interchangeable: one latency per round.
            latency_ms.push(vec![mean(&probe.ms)]);
        }
        // W-time runs on one thread, which the host disturbs least, so
        // it gets by with half the repeats and leaves the time to the rest.
        if slices % 2 == 1 {
            wtimes.iter_mut().for_each(|w| w.repeat(spec));
        }
        feed.advance();
        longest = longest.max(slice_start.elapsed());
    }
    harness.shut_down();

    let queries: usize = rounds.iter().map(|r| r.queries).sum();
    let net_bytes: u64 = rounds.iter().map(|r| r.net_bytes).sum();
    let (opt_ms_best, qps, cpu_ms_per_query) = if spec.is_large() {
        let opt_ms = mean_of_min(&latency_ms);
        (opt_ms, 1e3 / opt_ms, mean_of_min(&cpu_ms))
    } else {
        // The fastest rounds are the ones the host left alone. All three
        // metrics come from the same rounds: CPU time per query depends on
        // how the threads are spread over the cores, so its own minimum
        // would pick rounds of another regime.
        let mut fastest: Vec<usize> = (0..rounds.len()).collect();
        fastest.sort_by(|&a, &b| rounds[a].wall_s.total_cmp(&rounds[b].wall_s));
        fastest.truncate(FASTEST_ROUNDS);
        let sum = |f: fn(&RoundSample) -> f64| fastest.iter().map(|&i| f(&rounds[i])).sum::<f64>();
        let n = sum(|r| r.queries as f64);
        (
            mean(&fastest.iter().map(|&i| latency_ms[i][0]).collect::<Vec<_>>()),
            n / sum(|r| r.wall_s),
            sum(|r| r.cpu_ns as f64) / 1e6 / n,
        )
    };
    let values = [
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        opt_ms_best,
        mean(&wtimes.iter().map(WTime::total_ms).collect::<Vec<_>>()),
        qps,
        cpu_ms_per_query,
        net_bytes as f64 / queries.max(1) as f64,
    ];
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), v)| (name.to_string(), unit, v))
            .collect(),
        tally,
        oracle_disputes,
    })
}

/// The first `n` pool queries of `input` as a round of their own. Every
/// fixed round submits its pool in order, so these are its first `n`
/// submissions; on the Zipf stream they are the `n` most popular hot
/// queries, whatever the draw.
fn sample_of(input: &Prepared, n: usize) -> Prepared {
    let n = n.min(input.round.pool.len());
    Prepared {
        round: Round {
            pool: input.round.pool[..n].to_vec(),
            order: (0..n as u32).collect(),
        },
        refs: input.refs[..n].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_until_honours_floor_and_ceiling() {
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(repeat_until(past, 3, 9, || {}), 3);
        let future = Instant::now() + Duration::from_secs(3600);
        assert_eq!(repeat_until(future, 3, 9, || {}), 9);
    }
}
