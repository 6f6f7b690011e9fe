//! Host-side process measurements.
//!
//! These numbers vary run to run (they depend on the allocator, the
//! kernel, and co-tenants), so they must **never** land in the
//! deterministic per-tool metric sidecars, which `cli.rs`'s
//! `sidecars_and_table_agree_across_threads` compares
//! gauge for gauge. They belong on a command's own output, as in
//! `repro scale`'s result line, or in `benchmark/`'s reports.

/// Peak resident set size of this process, in bytes.
///
/// Reads `VmHWM` from `/proc/self/status` on Linux — the kernel's
/// high-water mark of physical pages mapped, which is exactly what a
/// "did the run fit in memory" report wants. Returns 0 on platforms
/// without procfs or if the field is missing; callers should treat 0 as
/// "unavailable", not "no memory used".
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                // Format: "VmHWM:      123456 kB"
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
                    return kib * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_nonzero_on_linux() {
        let rss = peak_rss_bytes();
        // Any running test binary has at least a page resident.
        assert!(rss > 4096, "VmHWM reported {rss} B");
    }
}
