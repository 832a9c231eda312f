//! Network and fault accounting.
//!
//! Every byte crossing the simulated network is counted here; the totals
//! are the "Network (bytes)" series of Figures 1, 2, 4 and 5. Counters are
//! atomic because workers send concurrently.
//!
//! Beyond the byte counters, the metrics record every injected fault
//! (crashes, dropped replies, stragglers) and every master-side recovery
//! action (retries, timeouts, duplicate replies), globally and per worker,
//! so chaos tests can assert that no fault goes unaccounted.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe network counters for one cluster.
#[derive(Debug, Default)]
pub struct NetworkMetrics {
    master_to_worker_bytes: AtomicU64,
    worker_to_master_bytes: AtomicU64,
    messages: AtomicU64,
    rounds: AtomicU64,
    // Fault-injection counters (recorded worker-side at injection).
    crashes: AtomicU64,
    drops: AtomicU64,
    straggles: AtomicU64,
    // Recovery counters (recorded master-side).
    retries: AtomicU64,
    timeouts: AtomicU64,
    duplicate_replies: AtomicU64,
    // Straggler-adaptive work redistribution counters (master-side):
    // steal events (one straggler's unstarted remainder split and
    // re-issued) and worker progress reports received.
    steals: AtomicU64,
    progress_reports: AtomicU64,
    // Cross-query result-cache counters, recorded by the service facade
    // that keeps the one cache in front of this plane.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_bytes_saved: AtomicU64,
    /// Per-worker counters; empty when the cluster size is unknown.
    per_worker: Vec<PerWorkerCounters>,
}

#[derive(Debug, Default)]
struct PerWorkerCounters {
    replies: AtomicU64,
    reply_bytes: AtomicU64,
    failures: AtomicU64,
    retries: AtomicU64,
}

impl NetworkMetrics {
    /// Creates zeroed counters without per-worker resolution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed counters with per-worker counters for `num_workers`
    /// workers.
    pub fn with_workers(num_workers: usize) -> Self {
        NetworkMetrics {
            per_worker: (0..num_workers)
                .map(|_| PerWorkerCounters::default())
                .collect(),
            ..NetworkMetrics::default()
        }
    }

    /// Records a master → worker message of `bytes` bytes.
    pub fn record_to_worker(&self, bytes: u64) {
        self.master_to_worker_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker → master message of `bytes` bytes without
    /// attributing it to a worker.
    pub fn record_to_master(&self, bytes: u64) {
        self.worker_to_master_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a delivered reply from `worker` of `bytes` bytes.
    pub fn record_reply(&self, worker: usize, bytes: u64) {
        self.record_to_master(bytes);
        if let Some(pw) = self.per_worker.get(worker) {
            pw.replies.fetch_add(1, Ordering::Relaxed);
            pw.reply_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records a crash injected at `worker`.
    pub fn record_crash(&self, worker: usize) {
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.record_failure(worker);
    }

    /// Records a dropped reply injected at `worker`.
    pub fn record_drop(&self, worker: usize) {
        self.drops.fetch_add(1, Ordering::Relaxed);
        self.record_failure(worker);
    }

    /// Records a straggling reply injected at `worker`.
    pub fn record_straggle(&self, worker: usize) {
        self.straggles.fetch_add(1, Ordering::Relaxed);
        self.record_failure(worker);
    }

    fn record_failure(&self, worker: usize) {
        if let Some(pw) = self.per_worker.get(worker) {
            pw.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a master-side re-issue of a task, targeted at `worker`.
    pub fn record_retry(&self, worker: usize) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if let Some(pw) = self.per_worker.get(worker) {
            pw.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a master-side receive timeout.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a reply discarded as a duplicate of an already-completed
    /// task (speculative re-execution overlap).
    pub fn record_duplicate(&self) {
        self.duplicate_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one steal event: a straggler's unstarted remainder was
    /// split and re-issued to idle workers.
    pub fn record_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker progress report received by the master.
    pub fn record_progress_report(&self) {
        self.progress_reports.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the start of a new coordination round (the MPQ algorithm has
    /// exactly one; SMA has one per join-result cardinality).
    pub fn record_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cross-query cache hit that served `bytes_saved`
    /// approximate bytes of finished results without sending anything.
    pub fn record_cache_hit(&self, bytes_saved: u64) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.cache_bytes_saved
            .fetch_add(bytes_saved, Ordering::Relaxed);
    }

    /// Records a cross-query cache miss (the query went to the workers).
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            master_to_worker_bytes: self.master_to_worker_bytes.load(Ordering::Relaxed),
            worker_to_master_bytes: self.worker_to_master_bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            straggles: self.straggles.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            duplicate_replies: self.duplicate_replies.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            progress_reports: self.progress_reports.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_bytes_saved: self.cache_bytes_saved.load(Ordering::Relaxed),
        }
    }

    /// Snapshots the per-worker counters (empty unless the metrics were
    /// built with [`NetworkMetrics::with_workers`]).
    pub fn worker_counters(&self) -> Vec<WorkerCounters> {
        self.per_worker
            .iter()
            .map(|pw| WorkerCounters {
                replies: pw.replies.load(Ordering::Relaxed),
                reply_bytes: pw.reply_bytes.load(Ordering::Relaxed),
                failures: pw.failures.load(Ordering::Relaxed),
                retries: pw.retries.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// A point-in-time copy of the [`NetworkMetrics`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkSnapshot {
    /// Bytes sent from the master to workers.
    pub master_to_worker_bytes: u64,
    /// Bytes sent from workers to the master.
    pub worker_to_master_bytes: u64,
    /// Total number of messages.
    pub messages: u64,
    /// Number of coordination rounds.
    pub rounds: u64,
    /// Injected worker crashes (before or after replying).
    pub crashes: u64,
    /// Injected reply drops.
    pub drops: u64,
    /// Injected straggling replies.
    pub straggles: u64,
    /// Master-side task re-issues.
    pub retries: u64,
    /// Master-side receive timeouts.
    pub timeouts: u64,
    /// Replies discarded as duplicates of completed tasks.
    pub duplicate_replies: u64,
    /// Steal events: a straggler's unstarted remainder split and
    /// re-issued to idle workers.
    pub steals: u64,
    /// Worker progress reports received by the master.
    pub progress_reports: u64,
    /// Cross-query result-cache hits of the service facade in front of
    /// this plane: queries answered without a message.
    pub cache_hits: u64,
    /// Cross-query result-cache misses: queries sent to the workers.
    pub cache_misses: u64,
    /// Approximate bytes of finished results served from the cache
    /// instead of being recomputed.
    pub cache_bytes_saved: u64,
}

impl NetworkSnapshot {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.master_to_worker_bytes + self.worker_to_master_bytes
    }

    /// Total number of injected faults of any kind.
    pub fn faults_injected(&self) -> u64 {
        self.crashes + self.drops + self.straggles
    }
}

/// A point-in-time copy of one worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Replies this worker delivered to the master.
    pub replies: u64,
    /// Bytes of those replies.
    pub reply_bytes: u64,
    /// Faults injected at this worker (crashes + drops + straggles).
    pub failures: u64,
    /// Task re-issues the master directed at this worker.
    pub retries: u64,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_macros)]
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = NetworkMetrics::new();
        m.record_to_worker(100);
        m.record_to_worker(50);
        m.record_to_master(7);
        m.record_round();
        let s = m.snapshot();
        assert_eq!(s.master_to_worker_bytes, 150);
        assert_eq!(s.worker_to_master_bytes, 7);
        assert_eq!(s.total_bytes(), 157);
        assert_eq!(s.messages, 3);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.faults_injected(), 0);
    }

    #[test]
    fn per_worker_attribution() {
        let m = NetworkMetrics::with_workers(3);
        m.record_reply(0, 10);
        m.record_reply(0, 20);
        m.record_reply(2, 5);
        m.record_crash(1);
        m.record_drop(2);
        m.record_straggle(2);
        m.record_retry(0);
        let w = m.worker_counters();
        assert_eq!(w[0].replies, 2);
        assert_eq!(w[0].reply_bytes, 30);
        assert_eq!(w[0].retries, 1);
        assert_eq!(w[1].failures, 1);
        assert_eq!(w[2].failures, 2);
        let s = m.snapshot();
        assert_eq!(s.worker_to_master_bytes, 35);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.drops, 1);
        assert_eq!(s.straggles, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.faults_injected(), 3);
    }

    #[test]
    fn cache_counters_accumulate() {
        let m = NetworkMetrics::new();
        m.record_cache_hit(100);
        m.record_cache_hit(50);
        m.record_cache_miss();
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_bytes_saved, 150);
    }

    #[test]
    fn steal_and_progress_counters_accumulate() {
        let m = NetworkMetrics::new();
        m.record_steal();
        m.record_progress_report();
        m.record_progress_report();
        let s = m.snapshot();
        assert_eq!(s.steals, 1);
        assert_eq!(s.progress_reports, 2);
    }

    #[test]
    fn out_of_range_worker_is_tolerated() {
        // Metrics without per-worker resolution must not panic on
        // attributed records.
        let m = NetworkMetrics::new();
        m.record_reply(7, 3);
        m.record_crash(7);
        assert_eq!(m.snapshot().crashes, 1);
        assert!(m.worker_counters().is_empty());
    }

    #[test]
    fn concurrent_updates() {
        use std::sync::Arc;
        let m = Arc::new(NetworkMetrics::with_workers(1));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_reply(0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().worker_to_master_bytes, 8000);
        assert_eq!(m.worker_counters()[0].replies, 8000);
    }
}
