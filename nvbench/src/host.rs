//! Host measurements: process CPU time, memory high-water mark, and the
//! provenance printed with every result.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// Linux's per-process CPU clock: user plus system time of every thread,
/// including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, user plus system.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, so
    // `Timespec` matches it; `ts` is a live, writable local for the whole
    // call, and the kernel writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux kernel");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The process's resident-memory high-water mark, in megabytes
/// (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// What produced a result, as one JSON object: host parallelism, the
/// fan-out width, the seed, the input sizes, the git revision of the
/// checkout (`unknown` outside a repository) and `rustc -V` (`unknown`
/// when no compiler is on the path).
pub fn provenance_json(jobs: usize, seed: u64, scale: &str) -> String {
    use nvfs_obs::json::escape;
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"available_parallelism\":{},\"jobs\":{jobs},\"seed\":{seed},\"scale\":\"{}\",\"git_rev\":\"{}\",\"rustc\":\"{}\"}}",
        available_parallelism(),
        escape(scale),
        escape(&nvfs_obs::manifest::git_rev()),
        escape(&rustc)
    )
}

/// Hardware threads available to this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
