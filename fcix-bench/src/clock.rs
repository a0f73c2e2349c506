//! Host clock and the two `/proc` readers the ledger needs: peak
//! resident memory (`VmHWM`) and process CPU time.
//!
//! Every figure these functions return is *host* time or memory. The
//! simulated Cray-X1 clocks never pass through here.

use std::sync::OnceLock;
use std::time::Instant;

/// Host seconds since the first call in this process (monotonic).
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint: allow(wallclock) — the benchmark measures host time by design
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_secs_f64()
}

/// Run `f` and return its result with the host seconds it took.
pub fn stopwatch<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = now_s();
    let r = f();
    (r, now_s() - t0)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture (it is fixed by the kernel ABI, not by
/// `CONFIG_HZ`).
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// after it come `state` (field 3) … `utime` (field 14), `stime` (15).
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_s(&stat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_from_status_text() {
        let status =
            "Name:\tfcix-bench\nVmPeak:\t  912340 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(524_288));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn cpu_time_from_stat_text() {
        // utime = 250 ticks, stime = 50 ticks → 3.0 s; the command name
        // holds a space and a ')' to exercise the last-paren rule.
        let stat =
            "4242 (fcix b)nch) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) R 1 2"), None);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(cpu_s().is_some_and(|s| s >= 0.0));
        let (_, dt) = stopwatch(|| std::hint::black_box((0..1000u64).sum::<u64>()));
        assert!(dt >= 0.0);
    }
}
