//! Peak resident memory of another process, read from `/proc/<pid>/status`,
//! and the host's CPU steal, read from `/proc/stat`.
//!
//! `VmHWM` disappears once a process exits (a zombie has no address
//! space), and std exposes no `wait4` rusage, so a sampler thread polls
//! the live process; the high-water mark only grows, so the last reading
//! before exit is the peak up to within one poll interval.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Parses the `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// The current `VmHWM` of `pid` in kB, `None` once it has exited.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `(steal, total)` CPU time of all cores from the `cpu` line of a
/// `/proc/stat` text, in clock ticks.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line["cpu ".len()..]
        .split_whitespace()
        .map(|w| w.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // guest time being counted in user time already.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// The host's `(steal, total)` CPU ticks so far; steal is time a virtual
/// CPU was ready to run but the host ran something else.
pub fn cpu_steal() -> Option<(u64, u64)> {
    parse_cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Polls the `VmHWM` of a child until [`HwmSampler::finish`].
pub struct HwmSampler {
    done: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

/// Poll period: short against the shortest process measured (~2 ms),
/// long enough that reading `/proc` costs the child little.
const POLL: Duration = Duration::from_millis(1);

impl HwmSampler {
    /// Starts polling `pid`.
    pub fn start(pid: u32) -> HwmSampler {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let thread = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                match vm_hwm_kb(pid) {
                    Some(kb) => peak = peak.max(kb),
                    None => break,
                }
                std::thread::sleep(POLL);
            }
            peak
        });
        HwmSampler { done, thread }
    }

    /// Stops polling (call after the child was reaped) and returns the
    /// highest `VmHWM` seen, in kB.
    pub fn finish(self) -> u64 {
        self.done.store(true, Ordering::Relaxed);
        self.thread.join().expect("sampler thread does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_lines() {
        let status = "Name:\tsimc\nVmPeak:\t  20000 kB\nVmHWM:\t   34816 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(34816));
        assert_eq!(
            parse_vm_hwm_kb("Name:\tsimc\nState:\tZ (zombie)\n"),
            None,
            "zombies have none"
        );
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None, "unit must be kB");
    }

    #[test]
    fn parses_cpu_steal() {
        let stat =
            "cpu  845393 0 105701 1843632 24989 0 19126 33152 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let total = 845393 + 105701 + 1843632 + 24989 + 19126 + 33152;
        assert_eq!(parse_cpu_steal(stat), Some((33152, total)));
        assert_eq!(parse_cpu_steal("cpu  1 2 3\n"), None, "no steal column");
        assert_eq!(parse_cpu_steal("intr 5\n"), None);
    }

    #[test]
    fn reads_own_peak() {
        let kb = vm_hwm_kb(std::process::id()).expect("own status is readable");
        assert!(kb > 0);
    }
}
