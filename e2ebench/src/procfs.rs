//! Process-level readings from `/proc`: resident memory, page faults and
//! run-queue wait. A value that cannot be read is 0, so the benchmark still
//! runs where `/proc` lacks a field.

fn status_kb(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") as f64 / 1024.0
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Minor page faults of the process so far.
pub fn minor_faults() -> u64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // minflt the eighth (field 10 of proc(5)).
    text.rsplit_once(") ")
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU.
pub fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}
