//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer, through public traits only.
//!
//! [`TracingTransport`] wraps the real message plane (the in-process
//! `Cluster` or the `SocketTransport`) behind the object-safe `Transport`
//! trait, and [`TracingWorker`] wraps the real MPQ worker behind
//! `WorkerLogic`. Both keep spans and the raw payloads in memory; nothing
//! is decoded or written inside the timed window.

use bytes::Bytes;
use mpq_cluster::{
    ClusterError, Control, NetworkMetrics, QueryId, Transport, WorkerCtx, WorkerLogic,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Marks "no span" / "no session" / "no worker" in a [`Span`].
pub const NONE: u64 = u64::MAX;

/// One timed interval at a layer boundary. Times are nanoseconds since
/// the tracer's epoch, on one monotonic clock shared by all threads.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one ([`NONE`] for a root).
    pub parent: u64,
    pub name: &'static str,
    /// The session's `QueryId` ([`NONE`] when the call served no session,
    /// e.g. a receive that found nothing).
    pub qid: u64,
    pub worker: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// A message captured at the transport boundary, decoded after the run.
pub struct Captured {
    pub span: u64,
    pub qid: u64,
    pub worker: u64,
    pub payload: Bytes,
}

#[derive(Default)]
pub struct MasterLog {
    pub spans: Vec<Span>,
    pub tasks: Vec<Captured>,
    pub replies: Vec<Captured>,
}

/// Shared span sink. The master thread and every worker thread write
/// through it; ids are unique across threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The runner's open `submit`/`wait` span, parent of transport spans.
    current: AtomicU64,
    /// `QueryId` of the last task sent; lets the runner learn which
    /// session a `submit` created (the facade's handle does not say).
    last_sent_qid: AtomicU64,
    master: Mutex<MasterLog>,
    workers: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            current: AtomicU64::new(NONE),
            last_sent_qid: AtomicU64::new(NONE),
            master: Mutex::new(MasterLog::default()),
            workers: Mutex::new(Vec::new()),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a runner-side scope: transport spans recorded until the next
    /// call name `id` as their parent.
    pub fn enter(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
        self.last_sent_qid.store(NONE, Ordering::Relaxed);
    }

    /// The session the scope opened by [`Tracer::enter`] sent a task for.
    pub fn sent_qid(&self) -> u64 {
        self.last_sent_qid.load(Ordering::Relaxed)
    }

    /// Takes everything recorded so far, leaving the tracer empty.
    pub fn drain(&self) -> (MasterLog, Vec<Span>) {
        let master = std::mem::take(&mut *self.master.lock().expect("tracer lock"));
        let workers = std::mem::take(&mut *self.workers.lock().expect("tracer lock"));
        (master, workers)
    }

    fn master_span(&self, name: &'static str, qid: u64, worker: u64, start: u64) -> u64 {
        let id = self.next_id();
        let span = Span {
            id,
            parent: self.current.load(Ordering::Relaxed),
            name,
            qid,
            worker,
            start,
            end: self.now(),
        };
        self.master.lock().expect("tracer lock").spans.push(span);
        id
    }
}

/// The real transport behind a span recorder.
pub struct TracingTransport {
    inner: Box<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracingTransport {
    pub fn new(inner: Box<dyn Transport>, tracer: Arc<Tracer>) -> TracingTransport {
        TracingTransport { inner, tracer }
    }

    fn received(
        &self,
        name: &'static str,
        start: u64,
        out: Result<(usize, QueryId, Bytes), ClusterError>,
    ) -> Result<(usize, QueryId, Bytes), ClusterError> {
        match &out {
            Ok((worker, qid, payload)) => {
                let span = self.tracer.master_span(name, qid.0, *worker as u64, start);
                self.tracer
                    .master
                    .lock()
                    .expect("tracer lock")
                    .replies
                    .push(Captured {
                        span,
                        qid: qid.0,
                        worker: *worker as u64,
                        payload: payload.clone(),
                    });
            }
            Err(_) => {
                self.tracer
                    .master_span("transport.recv_empty", NONE, NONE, start);
            }
        }
        out
    }
}

impl Transport for TracingTransport {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn metrics(&self) -> &NetworkMetrics {
        self.inner.metrics()
    }

    fn is_worker_alive(&self, id: usize) -> bool {
        self.inner.is_worker_alive(id)
    }

    fn send(
        &self,
        id: usize,
        query: QueryId,
        payload: Bytes,
        is_assignment: bool,
    ) -> Result<(), ClusterError> {
        let captured = payload.clone();
        let start = self.tracer.now();
        let out = self.inner.send(id, query, payload, is_assignment);
        let span = self
            .tracer
            .master_span("transport.send", query.0, id as u64, start);
        self.tracer.last_sent_qid.store(query.0, Ordering::Relaxed);
        self.tracer
            .master
            .lock()
            .expect("tracer lock")
            .tasks
            .push(Captured {
                span,
                qid: query.0,
                worker: id as u64,
                payload: captured,
            });
        out
    }

    fn recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        let start = self.tracer.now();
        self.received("transport.recv", start, self.inner.recv())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(usize, QueryId, Bytes), ClusterError> {
        let start = self.tracer.now();
        self.received("transport.recv", start, self.inner.recv_timeout(timeout))
    }

    fn try_recv(&self) -> Result<(usize, QueryId, Bytes), ClusterError> {
        let start = self.tracer.now();
        self.received("transport.try_recv", start, self.inner.try_recv())
    }

    fn recv_for(&self, query: QueryId) -> Result<(usize, Bytes), ClusterError> {
        let start = self.tracer.now();
        let out = self.inner.recv_for(query).map(|(w, p)| (w, query, p));
        self.received("transport.recv", start, out)
            .map(|(w, _, p)| (w, p))
    }

    fn recv_for_timeout(
        &self,
        query: QueryId,
        timeout: Duration,
    ) -> Result<(usize, Bytes), ClusterError> {
        let start = self.tracer.now();
        let out = self
            .inner
            .recv_for_timeout(query, timeout)
            .map(|(w, p)| (w, query, p));
        self.received("transport.recv", start, out)
            .map(|(w, _, p)| (w, p))
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// The real worker behind a span recorder. Spans stay in the worker
/// thread's own buffer and reach the shared sink when the worker ends.
pub struct TracingWorker {
    inner: Box<dyn WorkerLogic>,
    tracer: Arc<Tracer>,
    worker: u64,
    spans: Vec<Span>,
}

impl TracingWorker {
    pub fn new(inner: Box<dyn WorkerLogic>, tracer: Arc<Tracer>, worker: usize) -> TracingWorker {
        TracingWorker {
            inner,
            tracer,
            worker: worker as u64,
            spans: Vec::new(),
        }
    }
}

impl WorkerLogic for TracingWorker {
    fn on_message(&mut self, query: QueryId, payload: Bytes, ctx: &mut WorkerCtx) -> Control {
        let start = self.tracer.now();
        let out = self.inner.on_message(query, payload, ctx);
        self.spans.push(Span {
            id: self.tracer.next_id(),
            // Filled in after the run: the `transport.send` span that
            // delivered this task.
            parent: NONE,
            name: "worker.on_message",
            qid: query.0,
            worker: self.worker,
            start,
            end: self.tracer.now(),
        });
        out
    }
}

impl Drop for TracingWorker {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.tracer.workers.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other and may stick out
/// of the parent; only covered time inside the parent is subtracted.
pub fn self_time_ns(span: &Span, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.start), e.min(span.end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end - span.start) - covered
}

/// Writes spans as JSON lines: `name, start, end, parent, qid, worker`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: u64| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"qid\":{},\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.qid),
            opt(s.worker),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            id: 0,
            parent: NONE,
            name: "t",
            qid: NONE,
            worker: NONE,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(100, 200);
        // 110..150 and 140..170 overlap: union covers 60, not 70.
        assert_eq!(self_time_ns(&parent, &[(110, 150), (140, 170)]), 40);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(&parent, &[(110, 170), (120, 130)]), 40);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time_ns(&parent, &[(50, 120), (190, 400)]), 70);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[(0, 1000)]), 0);
    }
}
