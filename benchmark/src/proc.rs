//! Process-level readings (`/proc/self`) and the timer-slack pin.

use std::time::Duration;

const PR_SET_TIMERSLACK: i32 = 29;
const PR_GET_TIMERSLACK: i32 = 30;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Pins the calling thread's timer slack to 1 ns and returns the value in
/// force afterwards. Must run in `main` before any thread exists: threads
/// inherit the slack of their creator.
///
/// The simulated device sync is `thread::sleep(100 µs)`; Linux's default
/// 50 µs slack stretches that to 150–160 µs with jitter, which alone
/// spread `uip_durable` throughput by ±8 % in probes (±1.5 % pinned).
pub fn pin_timer_slack() -> Result<u64, String> {
    // SAFETY: prctl with PR_SET_TIMERSLACK / PR_GET_TIMERSLACK takes
    // integer arguments only and touches no memory of ours.
    let (set, got) =
        unsafe { (prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0), prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) };
    if set != 0 || got != 1 {
        return Err(format!(
            "prctl(PR_SET_TIMERSLACK, 1) refused (set={set}, slack now {got} ns): \
             sync-latency workloads would not be reproducible"
        ));
    }
    Ok(got as u64)
}

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads alive in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User + system CPU time this process has consumed.
pub fn cpu_time() -> Duration {
    let ticks = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) may hold spaces; fields resume after
        // its closing parenthesis. utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')')? + 2..];
        let mut f = rest.split(' ').skip(11);
        Some(f.next()?.parse::<u64>().ok()? + f.next()?.parse::<u64>().ok()?)
    };
    // SAFETY: sysconf takes an integer and returns one.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Duration::from_nanos(ticks().unwrap_or(0) * 1_000_000_000 / hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        let before = cpu_time();
        let mut x = 0u64;
        while cpu_time() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time() > before);
    }
}
