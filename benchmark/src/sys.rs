//! Process-level resource readers, pure `std` over `/proc`.

use std::collections::HashMap;
use std::fs;

/// CPU time of each live thread of this process, in nanoseconds
/// (`/proc/self/task/*/schedstat`, first field), keyed by thread id.
pub struct CpuClock(HashMap<u64, u64>);

impl CpuClock {
    pub fn now() -> CpuClock {
        // The kernel brings a running thread's figure up to date only at
        // a timer tick (4 ms) or when the thread leaves the CPU. Blocked
        // threads are exact; yielding makes the caller exact too.
        std::thread::yield_now();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return CpuClock(HashMap::new());
        };
        CpuClock(
            tasks
                .flatten()
                .filter_map(|t| {
                    let tid = t.file_name().to_str()?.parse().ok()?;
                    let stat = fs::read_to_string(t.path().join("schedstat")).ok()?;
                    Some((tid, stat.split_whitespace().next()?.parse().ok()?))
                })
                .collect(),
        )
    }

    /// CPU time consumed since `self` was taken, summed over the threads
    /// alive now. A thread that ended in between is left out rather than
    /// subtracted: an exiting thread lingers in `/proc` for a moment after
    /// it was joined, and would otherwise count negative.
    pub fn elapsed_ns(&self) -> u64 {
        let now = CpuClock::now();
        now.0
            .iter()
            .map(|(tid, ns)| ns.saturating_sub(self.0.get(tid).copied().unwrap_or(0)))
            .sum()
    }
}

/// Context switches (voluntary + involuntary) summed over live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| {
                    l.starts_with("voluntary_ctxt_switches")
                        || l.starts_with("nonvoluntary_ctxt_switches")
                })
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Host facts stamped into `result.json`, so a number is never read
/// without the machine it came from.
pub fn host_stamp() -> Vec<(&'static str, String)> {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let loadavg = fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        ("loadavg_at_start", loadavg),
        (
            "rustc",
            std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        ),
        (
            "git_rev",
            std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}
