//! The traced run: per-layer numbers, measured from outside.
//!
//! One untraced pass gives the baseline, then the same inputs run again
//! with [`TracingTransport`](crate::trace::TracingTransport) and
//! [`TracingWorker`](crate::trace::TracingWorker) in place and spans
//! around `submit`/`wait`. After the service is down, the recorded
//! payloads are replayed through each layer's public functions for busy
//! time, and one query is swept over partition counts for the `dp`,
//! `partition`, `cost` and `prune` layers. Diagnostic only: nothing here
//! gates a change.

use crate::est::{mean, median, quantile};
use crate::gen::Rng;
use crate::measure::{
    drive, repeat_until, timed_round, NoProbe, Outcome, Probe, RoundSample, Tally, WTime,
};
use crate::sys::{context_switches, peak_rss_mb, CpuClock};
use crate::trace::{self_time_ns, write_jsonl, Captured, MasterLog, Span, Tracer, NONE};
use crate::workload::{cross_check, out_dir, Feed, Harness, Spec};
use mpq_algo::{MasterMessage, WorkerMsg, WorkerReply};
use mpq_cluster::{frame_with_prefix, FrameBuffer, NetworkSnapshot, QueryId, Wire};
use mpq_cost::{CardinalityEstimator, CostVector, Objective, Order, ScanOp, JOIN_OPS};
use mpq_dp::cached::partition_cache_key;
use mpq_dp::optimize_serial;
use mpq_model::{Query, TableSet};
use mpq_partition::{partition_constraints, AdmissibleSets};
use mpq_plan::{query_signature, MemoCache, Plan, PlanEntry, PruningPolicy};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Partition counts the `dp` sweep visits (those the query supports).
pub const SWEEP: [u64; 5] = [1, 2, 4, 8, 16];

/// Most recorded messages / sessions replayed per layer: enough for a
/// stable mean, bounded so replay never dominates the run.
const REPLAY_CAP: usize = 2000;

/// Runner-side record of one submission.
#[derive(Clone, Debug)]
struct Session {
    submit: Span,
    wait: Span,
    plans: usize,
}

struct SpanProbe<'a> {
    tracer: &'a Tracer,
    sessions: Vec<Session>,
}

impl<'a> SpanProbe<'a> {
    fn new(tracer: &'a Tracer, slots: usize) -> SpanProbe<'a> {
        let blank = |name| Span {
            id: NONE,
            parent: NONE,
            name,
            qid: NONE,
            worker: NONE,
            start: 0,
            end: 0,
        };
        SpanProbe {
            tracer,
            sessions: vec![
                Session {
                    submit: blank("facade.submit"),
                    wait: blank("facade.wait"),
                    plans: 0,
                };
                slots
            ],
        }
    }
}

impl Probe for SpanProbe<'_> {
    fn submit_start(&mut self, slot: usize) {
        let span = &mut self.sessions[slot].submit;
        span.id = self.tracer.next_id();
        self.tracer.enter(span.id);
        span.start = self.tracer.now();
    }
    fn submit_end(&mut self, slot: usize) {
        let s = &mut self.sessions[slot];
        s.submit.end = self.tracer.now();
        // A coalesced follower sends nothing and so has no session id.
        s.submit.qid = self.tracer.sent_qid();
        s.wait.qid = s.submit.qid;
    }
    fn wait_start(&mut self, slot: usize) {
        let span = &mut self.sessions[slot].wait;
        span.id = self.tracer.next_id();
        self.tracer.enter(span.id);
        span.start = self.tracer.now();
    }
    fn wait_end(&mut self, slot: usize, plans: usize) {
        let s = &mut self.sessions[slot];
        s.wait.end = self.tracer.now();
        s.plans = plans;
    }
}

/// Counters read at the edges of the traced window.
#[derive(Clone, Copy, Default)]
struct Edge {
    ctx: u64,
    net: NetworkSnapshot,
}

fn edge(harness: &Harness) -> Edge {
    Edge {
        ctx: context_switches(),
        net: harness.svc.network_snapshot().unwrap_or_default(),
    }
}

type Values = HashMap<String, f64>;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Evenly strided sample of at most [`REPLAY_CAP`] items.
fn sample<T>(items: &[T]) -> impl Iterator<Item = &T> {
    let step = items.len().div_ceil(REPLAY_CAP).max(1);
    items.iter().step_by(step)
}

/// Mean nanoseconds of `f` over `items`, each call timed on its own.
fn mean_ns<T>(items: impl Iterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    let (mut total, mut n) = (0u128, 0u64);
    for item in items {
        let t = Instant::now();
        f(item);
        total += t.elapsed().as_nanos();
        n += 1;
    }
    ratio(total as f64, n as f64)
}

pub fn per_layer(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let rounds = if spec.is_large() { 1 } else { 12 };

    // Untraced baseline on the very inputs the traced pass will see.
    let mut feed = Feed::new(spec, seed);
    let oracle_disputes = {
        let input = feed.current();
        cross_check(spec, &input.round, &input.refs, seed)
    };
    let mut harness = Harness::bring_up(spec, None)?;
    let plain = run_rounds(&mut harness, spec, &mut feed, rounds, &mut tally, None);
    harness.shut_down();
    // Read before any tracing state exists: oracle, service and runner.
    let peak_rss = peak_rss_mb();

    let tracer = Tracer::new();
    let mut feed = Feed::new(spec, seed);
    let mut harness = Harness::bring_up(spec, Some(&tracer))?;
    let traced = run_rounds(
        &mut harness,
        spec,
        &mut feed,
        rounds,
        &mut tally,
        Some(&tracer),
    );
    let coalesce = harness.svc.coalesce_stats();
    harness.shut_down();

    let (master, worker_spans) = tracer.drain();
    let worker_spans: Vec<Span> = worker_spans
        .into_iter()
        .filter(|s| s.start >= traced.window_start)
        .collect();

    let mut values = Values::new();
    let mut put = |name: &str, value: f64| values.insert(name.to_string(), value);

    // facade: the calls the user makes.
    let sessions = &traced.sessions;
    let n = sessions.len() as f64;
    let latency_ms: Vec<f64> = sessions
        .iter()
        .map(|s| (s.wait.end - s.submit.start) as f64 / 1e6)
        .collect();
    put(
        "facade.submit_us_p50",
        median(
            &sessions
                .iter()
                .map(|s| s.submit.dur_us())
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "facade.wait_us_p50",
        median(&sessions.iter().map(|s| s.wait.dur_us()).collect::<Vec<_>>()),
    );
    put("facade.latency_ms_p50", median(&latency_ms));
    put("facade.latency_ms_p99", quantile(&latency_ms, 0.99));
    put("facade.opt_ms_p50", median(&latency_ms));
    put("facade.opt_ms_p90", quantile(&latency_ms, 0.90));
    put("facade.samples", n);
    let input = feed.current();
    let keyed: Vec<&Query> = sample(&input.round.order)
        .map(|&qi| &input.round.pool[qi as usize])
        .collect();
    put(
        "facade.key_us",
        mean_ns(keyed.iter(), |q| {
            let mut key = query_signature(q);
            mpq_dp::push_scope(&mut key, spec.space, spec.objective);
            black_box(key.finish());
        }) / 1e3,
    );
    put(
        "facade.coalesced_share",
        ratio(coalesce.coalesced_sessions as f64, n),
    );
    put(
        "facade.saved_share",
        ratio(coalesce.saved_optimizations as f64, n),
    );

    // mpq: scheduler time is what submit and wait spend outside the
    // transport (the facade's own share is in there too; from outside
    // the two cannot be told apart).
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &master.spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let own = |span: &Span| self_time_ns(span, children.get(&span.id).map_or(&[], Vec::as_slice));
    let self_ns: u64 = sessions.iter().map(|s| own(&s.submit) + own(&s.wait)).sum();
    let net =
        |f: fn(&NetworkSnapshot) -> u64| (f(&traced.after.net) - f(&traced.before.net)) as f64;
    put("mpq.session_self_us", ratio(us(self_ns), n));
    put("mpq.msgs_per_query", ratio(net(|s| s.messages), n));
    put("mpq.retries", net(|s| s.retries));
    put("mpq.duplicate_replies", net(|s| s.duplicate_replies));
    let replies = decode_replies(&master.replies);
    let mut by_session: HashMap<u64, Vec<Plan>> = HashMap::new();
    for (c, reply) in &replies {
        if by_session.len() < REPLAY_CAP || by_session.contains_key(&c.qid) {
            by_session
                .entry(c.qid)
                .or_default()
                .extend(reply.plans.iter().cloned());
        }
    }
    let policy_of = |plans: &[Plan]| {
        PruningPolicy::new(
            spec.objective,
            plans.first().map_or(2, |p| p.tables().len()),
        )
    };
    let mut merged: Vec<Vec<Plan>> = by_session.into_values().collect();
    put(
        "mpq.final_prune_us",
        mean_ns(merged.iter_mut(), |plans| {
            policy_of(plans).final_prune(plans)
        }) / 1e3,
    );

    // codec: replay of the recorded payloads.
    let tasks: Vec<MasterMessage> = sample(&master.tasks)
        .filter_map(|c| MasterMessage::from_bytes(&c.payload).ok())
        .collect();
    put(
        "codec.task_encode_us",
        mean_ns(tasks.iter(), |m| drop(black_box(m.to_bytes()))) / 1e3,
    );
    put(
        "codec.task_decode_us",
        mean_ns(sample(&master.tasks), |c| {
            drop(black_box(MasterMessage::from_bytes(&c.payload)))
        }) / 1e3,
    );
    let reply_msgs: Vec<WorkerMsg> = sample(&replies)
        .map(|(_, r)| WorkerMsg::Reply(r.clone()))
        .collect();
    put(
        "codec.reply_encode_us",
        mean_ns(reply_msgs.iter(), |m| drop(black_box(m.to_bytes()))) / 1e3,
    );
    put(
        "codec.reply_decode_us",
        mean_ns(sample(&master.replies), |c| {
            drop(black_box(WorkerMsg::from_bytes(&c.payload)))
        }) / 1e3,
    );
    let payload_mean = |cs: &[Captured]| {
        mean(
            &cs.iter()
                .map(|c| c.payload.len() as f64)
                .collect::<Vec<_>>(),
        )
    };
    put("codec.task_bytes", payload_mean(&master.tasks));
    put("codec.reply_bytes", payload_mean(&master.replies));

    // runtime / socket: the message plane, named after the one in use.
    let plane = Plane::measure(&master, &worker_spans);
    let ctx_per_query = ratio((traced.after.ctx - traced.before.ctx) as f64, n);
    let (threads, sockets) = if spec.sockets {
        (Plane::default(), plane)
    } else {
        (plane, Plane::default())
    };
    put("runtime.send_us_p50", threads.send_us_p50);
    put("runtime.recv_wait_us_p50", threads.recv_wait_us_p50);
    put("runtime.handoff_us_p50", threads.handoff_us_p50);
    put("runtime.ctx_switches_per_query", ctx_per_query);
    put("socket.send_us_p50", sockets.send_us_p50);
    put("socket.recv_wait_us_p50", sockets.recv_wait_us_p50);
    put("socket.handoff_us_p50", sockets.handoff_us_p50);
    let wire: Vec<&Captured> = if spec.sockets {
        sample(&master.tasks)
            .chain(sample(&master.replies))
            .collect()
    } else {
        Vec::new()
    };
    put(
        "socket.frame_us",
        mean_ns(wire.iter(), |c| {
            let frame = frame_with_prefix(QueryId(c.qid), &c.payload);
            let mut buffer = FrameBuffer::new();
            buffer.push(&frame);
            black_box(buffer.next_frame().is_ok());
        }) / 1e3,
    );
    let on_sockets = if spec.sockets { 1.0 } else { 0.0 };
    put(
        "socket.frames_per_query",
        on_sockets * ratio(net(|s| s.messages), n),
    );
    put(
        "socket.bytes_per_query",
        on_sockets * ratio(net(NetworkSnapshot::total_bytes), n),
    );

    // cache: the service's own counters, then a replay of the run's key
    // stream through caches of the same budget for what they hide.
    let lookups = net(|s| s.cache_hits) + net(|s| s.cache_misses);
    put("cache.lookups", lookups);
    put("cache.hit_ratio", ratio(net(|s| s.cache_hits), lookups));
    put("cache.bytes_saved", net(|s| s.cache_bytes_saved));
    let replay = replay_cache(spec, &master.tasks, &replies);
    put("cache.evictions", replay.evictions);
    put("cache.get_us", replay.get_us);
    put("cache.insert_us", replay.insert_us);

    // trace: what tracing costs and whether the stages add up.
    // Best round of each pass: the host's slow phases (see `measure`)
    // would otherwise pass for tracing cost, or hide it.
    let rate = |rounds: &[RoundSample]| {
        rounds
            .iter()
            .map(|r| r.queries as f64 / r.wall_s)
            .fold(0.0, f64::max)
    };
    put(
        "trace.overhead_share",
        1.0 - ratio(rate(&traced.rounds), rate(&plain.rounds)),
    );
    put(
        "trace.stage_sum_share",
        stage_sum_share(sessions, &master, &worker_spans),
    );
    put("process.peak_rss_mb", peak_rss);

    // dp, partition, cost, prune: one query swept over partition counts.
    let optimize_us: u64 = replies.iter().map(|(_, r)| r.stats.optimize_micros).sum();
    let dp_cpu_share = ratio(optimize_us as f64 * 1e3, traced.cpu_ns as f64);
    let frontier_mean = mean(&sessions.iter().map(|s| s.plans as f64).collect::<Vec<_>>());
    let query = &input.round.pool[input.round.order[0] as usize];
    sweep(
        spec,
        query,
        deadline,
        dp_cpu_share,
        frontier_mean,
        &mut values,
    );

    let mut spans: Vec<Span> = sessions
        .iter()
        .flat_map(|s| [s.submit.clone(), s.wait.clone()])
        .collect();
    spans.extend(master.spans.iter().cloned());
    spans.extend(adopt(worker_spans, &master));
    spans.sort_by_key(|s| (s.start, s.id));
    let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
    write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;

    // The contract: a traced run reports every per-layer metric, in the
    // table's order and with the table's unit.
    let table = per_layer_table();
    if values.len() != table.len() {
        return Err("per-layer metrics do not match per_layer_table()".into());
    }
    let metrics = table
        .into_iter()
        .map(|(name, unit, _)| match values.get(&name) {
            Some(&value) => Ok((name, unit, value)),
            None => Err(format!("per-layer metric {name} was not measured")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        metrics,
        tally,
        oracle_disputes,
    })
}

struct Pass {
    rounds: Vec<RoundSample>,
    sessions: Vec<Session>,
    window_start: u64,
    before: Edge,
    after: Edge,
    cpu_ns: u64,
}

/// A warm-up round (streams only), then `rounds` timed rounds.
fn run_rounds(
    harness: &mut Harness,
    spec: &Spec,
    feed: &mut Feed,
    rounds: usize,
    tally: &mut Tally,
    tracer: Option<&Arc<Tracer>>,
) -> Pass {
    if !spec.is_large() {
        let warm = feed.current();
        drive(
            &mut harness.svc,
            spec,
            warm,
            &warm.round.order,
            spec.window,
            &mut NoProbe,
            tally,
        );
    }
    // Warm-up traffic is not part of the trace.
    let window_start = tracer.map_or(0, |t| {
        t.drain();
        t.now()
    });
    let before = edge(harness);
    let cpu = CpuClock::now();
    let mut pass = Pass {
        rounds: Vec::new(),
        sessions: Vec::new(),
        window_start,
        before,
        after: before,
        cpu_ns: 0,
    };
    for _ in 0..rounds {
        feed.advance();
        let input = feed.current();
        let order = &input.round.order;
        match tracer {
            None => pass.rounds.push(timed_round(
                harness,
                spec,
                input,
                order,
                spec.window,
                &mut NoProbe,
                tally,
            )),
            Some(t) => {
                let mut probe = SpanProbe::new(t, order.len());
                pass.rounds.push(timed_round(
                    harness,
                    spec,
                    input,
                    order,
                    spec.window,
                    &mut probe,
                    tally,
                ));
                pass.sessions.append(&mut probe.sessions);
            }
        }
    }
    pass.after = edge(harness);
    pass.cpu_ns = cpu.elapsed_ns();
    pass
}

fn decode_replies(captured: &[Captured]) -> Vec<(&Captured, WorkerReply)> {
    captured
        .iter()
        .filter_map(|c| match WorkerMsg::from_bytes(&c.payload) {
            Ok(WorkerMsg::Reply(reply)) => Some((c, reply)),
            _ => None,
        })
        .collect()
}

/// Send, receive-wait and hand-off medians of the message plane.
#[derive(Default)]
struct Plane {
    send_us_p50: f64,
    recv_wait_us_p50: f64,
    handoff_us_p50: f64,
}

impl Plane {
    fn measure(master: &MasterLog, worker_spans: &[Span]) -> Plane {
        let durations = |name: &str| -> Vec<f64> {
            master
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur_us)
                .collect()
        };
        let sends = sends_by_key(master);
        // Hand-off: from the send returning at the master to the worker
        // entering `on_message` — queueing plus thread wake-up.
        let handoff: Vec<f64> = worker_spans
            .iter()
            .filter_map(|w| {
                sends
                    .get(&(w.qid, w.worker))
                    .map(|s| us(w.start.saturating_sub(s.end)))
            })
            .collect();
        Plane {
            send_us_p50: median(&durations("transport.send")),
            recv_wait_us_p50: median(&durations("transport.recv")),
            handoff_us_p50: median(&handoff),
        }
    }
}

fn sends_by_key(master: &MasterLog) -> HashMap<(u64, u64), &Span> {
    master
        .spans
        .iter()
        .filter(|s| s.name == "transport.send")
        .map(|s| ((s.qid, s.worker), s))
        .collect()
}

/// Gives each worker span its cause: the send that delivered its task.
fn adopt(worker_spans: Vec<Span>, master: &MasterLog) -> Vec<Span> {
    let sends = sends_by_key(master);
    worker_spans
        .into_iter()
        .map(|mut w| {
            w.parent = sends.get(&(w.qid, w.worker)).map_or(NONE, |s| s.id);
            w
        })
        .collect()
}

/// Per session, the consecutive stages on the path of its last-arriving
/// reply — submit up to the send, hand-off, `on_message`, reply hand-off,
/// redeem — summed and divided by the session's submit-to-redeem latency.
/// Each stage comes from its own pair of spans, so a mis-joined or
/// missing span shows as a share away from 1. Median over sessions.
fn stage_sum_share(sessions: &[Session], master: &MasterLog, worker_spans: &[Span]) -> f64 {
    let sends = sends_by_key(master);
    let workers: HashMap<(u64, u64), &Span> = worker_spans
        .iter()
        .map(|w| ((w.qid, w.worker), w))
        .collect();
    let span_by_id: HashMap<u64, &Span> = master.spans.iter().map(|s| (s.id, s)).collect();
    let mut last_reply: HashMap<u64, &Span> = HashMap::new();
    for c in &master.replies {
        if let Some(recv) = span_by_id.get(&c.span) {
            let slot = last_reply.entry(c.qid).or_insert(recv);
            if recv.end > slot.end {
                *slot = recv;
            }
        }
    }
    let shares: Vec<f64> = sessions
        .iter()
        .filter_map(|s| {
            let recv = last_reply.get(&s.submit.qid)?;
            let key = (recv.qid, recv.worker);
            let (send, work) = (sends.get(&key)?, workers.get(&key)?);
            let stages = [
                send.end.saturating_sub(s.submit.start),
                work.start.saturating_sub(send.end),
                work.end - work.start,
                recv.end.saturating_sub(work.end),
                s.wait.end.saturating_sub(recv.end),
            ];
            Some(ratio(
                stages.iter().sum::<u64>() as f64,
                (s.wait.end - s.submit.start) as f64,
            ))
        })
        .collect();
    median(&shares)
}

struct CacheReplay {
    evictions: f64,
    get_us: f64,
    insert_us: f64,
}

/// Replays the run's partition-key stream, in send order, through one
/// runner-owned `MemoCache` per worker with the workload's budget. The
/// worker shard caches expose hits and misses only; this shows what a
/// lookup and an insert cost and how often the budget evicts.
fn replay_cache(
    spec: &Spec,
    tasks: &[Captured],
    replies: &[(&Captured, WorkerReply)],
) -> CacheReplay {
    if spec.cache_bytes == 0 {
        return CacheReplay {
            evictions: 0.0,
            get_us: 0.0,
            insert_us: 0.0,
        };
    }
    let plans_of: HashMap<(u64, u64), &Vec<Plan>> = replies
        .iter()
        .map(|(c, r)| ((c.qid, c.worker), &r.plans))
        .collect();
    let mut caches: Vec<MemoCache<Vec<Plan>>> = (0..spec.workers)
        .map(|_| MemoCache::new(spec.cache_bytes))
        .collect();
    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    for task in tasks {
        let Ok(msg) = MasterMessage::from_bytes(&task.payload) else {
            continue;
        };
        let cache = &mut caches[task.worker as usize];
        for part in msg.first_partition..msg.first_partition + msg.partition_count {
            let key = partition_cache_key(
                &msg.query,
                0,
                msg.space,
                msg.objective,
                part,
                msg.total_partitions,
            );
            let t = Instant::now();
            let hit = black_box(cache.get(&key)).is_some();
            get_ns += t.elapsed().as_nanos();
            gets += 1;
            if let (false, Some(plans)) = (hit, plans_of.get(&(task.qid, task.worker))) {
                let value = (*plans).clone();
                let t = Instant::now();
                cache.insert(key, value);
                insert_ns += t.elapsed().as_nanos();
                inserts += 1;
            }
        }
    }
    CacheReplay {
        evictions: caches.iter().map(|c| c.stats().evictions as f64).sum(),
        get_us: ratio(get_ns as f64, gets as f64) / 1e3,
        insert_us: ratio(insert_ns as f64, inserts as f64) / 1e3,
    }
}

/// The `dp`, `partition`, `cost` and `prune` layers on one query.
fn sweep(
    spec: &Spec,
    query: &Query,
    deadline: Instant,
    dp_cpu_share: f64,
    frontier_mean: f64,
    values: &mut Values,
) {
    let mut put = |name: String, value: f64| values.insert(name, value);
    let n = query.num_tables();
    let max = spec.space.max_partitions(n);
    let mut points: Vec<WTime> = SWEEP
        .iter()
        .filter(|&&m| m <= max)
        .map(|&m| WTime::new(spec, query, m))
        .collect();
    let mut serial_ns = u64::MAX;
    repeat_until(deadline, 1, 64, || {
        let t = Instant::now();
        black_box(optimize_serial(query, spec.space, spec.objective));
        serial_ns = serial_ns.min(t.elapsed().as_nanos() as u64);
        points.iter_mut().for_each(|w| w.repeat(spec));
    });

    // partition: the fixed cost every partition pays before its DP.
    let widest = points.last().map_or(1, |w| w.m);
    let constraints_ns = (0..5)
        .map(|_| {
            mean_ns(0..widest, |p| {
                let constraints = partition_constraints(n, spec.space, p, widest);
                black_box(AdmissibleSets::new(&constraints).len());
            })
        })
        .fold(f64::INFINITY, f64::min);
    put("partition.constraints_us".into(), constraints_ns / 1e3);

    let at = |m: u64| points.iter().find(|w| w.m == m);
    for m in SWEEP {
        let sets = at(m).map_or(0, |_| {
            AdmissibleSets::new(&partition_constraints(n, spec.space, 0, m)).len()
        });
        put(format!("partition.admissible_sets.m{m}"), sets as f64);
    }

    put("dp.serial_ms_best".into(), serial_ns as f64 / 1e6);
    for m in SWEEP {
        let max_of = |f: fn(&mpq_dp::WorkerStats) -> u64| {
            at(m).map_or(0, |w| {
                w.outcomes.iter().map(|o| f(&o.stats)).max().unwrap_or(0)
            }) as f64
        };
        put(
            format!("dp.partition_ms_best.m{m}"),
            at(m).map_or(0.0, |w| w.slowest_partition_ns() as f64 / 1e6),
        );
        put(format!("dp.splits_max.m{m}"), max_of(|s| s.splits_tried));
        put(
            format!("dp.plans_generated_max.m{m}"),
            max_of(|s| s.plans_generated),
        );
        put(
            format!("dp.stored_sets_max.m{m}"),
            max_of(|s| s.stored_sets),
        );
        put(format!("dp.entries_max.m{m}"), max_of(|s| s.total_entries));
    }
    // Work per partition should shrink by the paper's factor each time
    // the partition count doubles; the counts are exact on any host.
    let plans_max = |w: &WTime| {
        w.outcomes
            .iter()
            .map(|o| o.stats.plans_generated)
            .max()
            .unwrap_or(0) as f64
    };
    let work_ratio = match (points.first(), points.last()) {
        (Some(lo), Some(hi)) if hi.m > lo.m => {
            ratio(plans_max(hi), plans_max(lo)).powf(1.0 / (hi.m as f64 / lo.m as f64).log2())
        }
        _ => 0.0,
    };
    put("dp.work_ratio_per_doubling".into(), work_ratio);
    put(
        "dp.work_ratio_paper".into(),
        spec.space.time_reduction_factor(),
    );
    let eight = at(8).or(points.last());
    put(
        "dp.imbalance.m8".into(),
        eight.map_or(0.0, |w| {
            ratio(
                w.slowest_partition_ns() as f64,
                mean(
                    &w.partition_ns
                        .iter()
                        .map(|&ns| ns as f64)
                        .collect::<Vec<_>>(),
                ),
            )
        }),
    );
    put(
        "dp.ns_per_plan".into(),
        ratio(serial_ns as f64, points.first().map_or(0.0, plans_max)),
    );
    put("dp.cpu_share".into(), dp_cpu_share);

    put("cost.join_cost_ns".into(), join_cost_ns(query));
    put("prune.try_insert_ns".into(), try_insert_ns());
    put("prune.frontier_size_mean".into(), frontier_mean);
    put(
        "prune.final_prune_us".into(),
        eight.map_or(0.0, |w| us(w.prune_ns)),
    );
}

/// Nanoseconds per candidate costed through the public `JoinOp::apply`
/// on a fixed batch: every left-deep extension of up to 4096 table sets,
/// all three operators. The estimator is warmed first, as it is inside
/// the DP.
fn join_cost_ns(query: &Query) -> f64 {
    let n = query.num_tables();
    let mut est = CardinalityEstimator::new(query);
    let batch: Vec<(TableSet, TableSet)> = (3u64..(1u64 << n).min(4096))
        .map(|bits| TableSet::from_tables((0..n).filter(|t| bits >> t & 1 == 1)))
        .filter(|set| set.len() >= 2)
        .flat_map(|set| {
            set.iter()
                .map(move |t| (set.remove(t), TableSet::singleton(t)))
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        for &(left, right) in &batch {
            for op in JOIN_OPS {
                black_box(op.apply(&mut est, left, right, Order::None, Order::None));
            }
        }
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    ratio(best, (batch.len() * JOIN_OPS.len()) as f64)
}

/// Nanoseconds per `PruningPolicy::try_insert` on a fixed α = 2 stream:
/// 2000 memo slots, 64 seeded log-uniform candidates each.
fn try_insert_ns() -> f64 {
    let policy = PruningPolicy::new(Objective::Multi { alpha: 2.0 }, 10);
    let mut rng = Rng::new(0x5eed);
    let slots: Vec<Vec<PlanEntry>> = (0..2000)
        .map(|_| {
            (0..64)
                .map(|_| {
                    let cost = CostVector::new(
                        (rng.next_f64() * 14.0).exp(),
                        (rng.next_f64() * 14.0).exp(),
                    );
                    PlanEntry::scan(0, ScanOp::Full, cost)
                })
                .collect()
        })
        .collect();
    let t = Instant::now();
    for candidates in &slots {
        let mut slot = Vec::new();
        for &c in candidates {
            black_box(policy.try_insert(&mut slot, c));
        }
        black_box(slot);
    }
    t.elapsed().as_nanos() as f64 / (2000.0 * 64.0)
}

/// Every per-layer metric — name, unit, and which direction is better —
/// in print order; mirrored in `BENCHMARK.json`.
pub fn per_layer_table() -> Vec<(String, &'static str, &'static str)> {
    let mut table: Vec<(String, &'static str, &'static str)> = [
        ("facade.submit_us_p50", "us", "lower"),
        ("facade.wait_us_p50", "us", "lower"),
        ("facade.latency_ms_p50", "ms", "lower"),
        ("facade.latency_ms_p99", "ms", "lower"),
        ("facade.opt_ms_p50", "ms", "lower"),
        ("facade.opt_ms_p90", "ms", "lower"),
        ("facade.samples", "count", "higher"),
        ("facade.key_us", "us", "lower"),
        ("facade.coalesced_share", "ratio", "higher"),
        ("facade.saved_share", "ratio", "higher"),
        ("mpq.session_self_us", "us", "lower"),
        ("mpq.msgs_per_query", "count", "lower"),
        ("mpq.retries", "count", "lower"),
        ("mpq.duplicate_replies", "count", "lower"),
        ("mpq.final_prune_us", "us", "lower"),
        ("codec.task_encode_us", "us", "lower"),
        ("codec.task_decode_us", "us", "lower"),
        ("codec.reply_encode_us", "us", "lower"),
        ("codec.reply_decode_us", "us", "lower"),
        ("codec.task_bytes", "bytes", "lower"),
        ("codec.reply_bytes", "bytes", "lower"),
        ("runtime.send_us_p50", "us", "lower"),
        ("runtime.recv_wait_us_p50", "us", "lower"),
        ("runtime.handoff_us_p50", "us", "lower"),
        ("runtime.ctx_switches_per_query", "count", "lower"),
        ("socket.send_us_p50", "us", "lower"),
        ("socket.recv_wait_us_p50", "us", "lower"),
        ("socket.handoff_us_p50", "us", "lower"),
        ("socket.frame_us", "us", "lower"),
        ("socket.frames_per_query", "count", "lower"),
        ("socket.bytes_per_query", "bytes", "lower"),
        ("cache.lookups", "count", "higher"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.bytes_saved", "bytes", "higher"),
        ("cache.evictions", "count", "lower"),
        ("cache.get_us", "us", "lower"),
        ("cache.insert_us", "us", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.stage_sum_share", "ratio", "higher"),
        ("process.peak_rss_mb", "MB", "lower"),
        ("partition.constraints_us", "us", "lower"),
    ]
    .map(|(name, unit, better)| (name.to_string(), unit, better))
    .to_vec();
    table.extend(SWEEP.map(|m| (format!("partition.admissible_sets.m{m}"), "count", "lower")));
    table.push(("dp.serial_ms_best".into(), "ms", "lower"));
    for m in SWEEP {
        table.push((format!("dp.partition_ms_best.m{m}"), "ms", "lower"));
        for series in [
            "splits_max",
            "plans_generated_max",
            "stored_sets_max",
            "entries_max",
        ] {
            table.push((format!("dp.{series}.m{m}"), "count", "lower"));
        }
    }
    table.extend(
        [
            ("dp.work_ratio_per_doubling", "ratio", "lower"),
            ("dp.work_ratio_paper", "ratio", "lower"),
            ("dp.imbalance.m8", "ratio", "lower"),
            ("dp.ns_per_plan", "ns", "lower"),
            ("dp.cpu_share", "ratio", "higher"),
            ("cost.join_cost_ns", "ns", "lower"),
            ("prune.try_insert_ns", "ns", "lower"),
            ("prune.frontier_size_mean", "count", "lower"),
            ("prune.final_prune_us", "us", "lower"),
        ]
        .map(|(name, unit, better)| (name.to_string(), unit, better)),
    );
    table
}
