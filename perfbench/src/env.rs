//! The environment recorded beside every result, and the process
//! counters (CPU time, peak RSS) read from `/proc`.

use std::path::Path;

use crate::json::Json;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU seconds of the whole process (both parties run
/// in it), from `/proc/self/stat` at `USER_HZ` = 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Steal and busy ticks of the machine (`/proc/stat`): time the
/// hypervisor gave this machine's CPUs to someone else, and time the
/// CPUs wanted to run (user, nice, system, irq, softirq and steal).
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let field = |i: usize| ticks.get(i).copied().unwrap_or(0);
    (field(7), [0, 1, 2, 5, 6, 7].into_iter().map(field).sum())
}

/// Share of the machine's busy CPU time stolen since `since`, a reading
/// of [`steal_ticks`]. Busy time is the base because steal only hits a
/// CPU that wants to run: over all time, a lightly loaded phase would
/// hide a contended host behind its idle ticks.
pub fn steal_share_since(since: (u64, u64)) -> f64 {
    let now = steal_ticks();
    crate::stats::ratio((now.0 - since.0) as f64, (now.1 - since.1) as f64)
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; checkouts without `.git` say so.
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

pub fn environment(workload: &str, scale: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    Json::obj()
        .with("workload", workload)
        .with("scale", scale)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trace", trace)
        .with("nproc", nproc())
        .with("aes_backend", haac_gc::active_backend().name())
        // The benchmark compiles against `haac_gc::ot::base`, which only
        // exists under this feature, so the feature is on in every run.
        .with("cargo_features", "haac-gc default: insecure-ot (base OT over Z/(2^127-1))")
        .with(
            "haac_scale_env",
            std::env::var("HAAC_SCALE").map_or("unset".to_string(), |v| format!("{v} (ignored)")),
        )
        .with("git_revision", git_revision())
}
