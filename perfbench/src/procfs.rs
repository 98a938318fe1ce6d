//! What the benchmark reads from `/proc`: per-process CPU time, context
//! switches and peak RSS of the chain processes, and the machine
//! fingerprint every result carries.

use std::fs;

/// CPU nanoseconds of process `pid`, summed over its live threads
/// (`/proc/<pid>/task/*/schedstat`).
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let tasks = fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|err| format!("cannot list /proc/{pid}/task: {err}"))?;
    let mut total = 0;
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join("schedstat")) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(total)
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Voluntary + involuntary context switches over every thread of `pid`.
pub fn ctx_switches(pid: u32) -> Result<u64, String> {
    let tasks = fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|err| format!("cannot list /proc/{pid}/task: {err}"))?;
    let mut total = 0;
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join("status")) {
            total += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(total)
}

/// Peak resident set size of `pid`, in kB.
pub fn peak_rss_kb(pid: u32) -> Result<u64, String> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|err| format!("cannot read /proc/{pid}/status: {err}"))?;
    status_field(&text, "VmHWM:").ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// The machine a result was measured on, as one JSON object.
pub fn fingerprint() -> vuvuzela::serde_json::Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim())
        .to_string();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("flags"))
        .and_then(|rest| rest.split_once(':'))
        .map_or(Vec::new(), |(_, flags)| flags.split_whitespace().collect());
    let has = |flag: &str| flags.contains(&flag);
    vuvuzela::serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu_model": model,
        "avx2": has("avx2"),
        "avx512f": has("avx512f"),
        "avx512ifma": has("avx512ifma"),
        "target_cpu": env!("PERFBENCH_TARGET_CPU"),
    })
}
