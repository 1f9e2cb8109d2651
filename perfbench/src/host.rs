//! Host and process readings from `/proc` and `/sys`: peak memory of the
//! generating process, and the CPU facts that let a noisy run be traced to
//! the host. The CPU facts are diagnostics, not metrics.

/// `VmHWM` (peak resident set) of `pid`, or of this process for `None`,
/// in MB (2^20 bytes).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time of one [`reference_work`] on the host the scale is pinned to: a
/// 2-vCPU x86-64 VM in its fast state.
pub const REFERENCE_WORK_MS: f64 = 0.8;

/// A fixed piece of work that uses no repository code: fill, sort, format
/// and hash. Its duration tracks how fast the host is running right now.
pub fn reference_work() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut s = String::new();
    for (i, n) in v.iter().take(2_000).enumerate() {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("row {i} value {n}"));
    }
    let h = s
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    std::hint::black_box(h ^ v[100])
}

/// Scales wall times to the host's speed. The host this benchmark was
/// calibrated on alternates between a fast and a slow state (up to ~40%
/// slower, for seconds to minutes at a time) that moves every CPU-bound
/// time alike; timing [`reference_work`] next to each measured call and
/// scaling by `REFERENCE_WORK_MS / its recent median` removes that shift.
#[derive(Default)]
pub struct SpeedProbe {
    recent: std::collections::VecDeque<f64>,
    pub probes_ms: Vec<f64>,
}

impl SpeedProbe {
    /// Probes the host once; returns the factor that maps this moment's
    /// wall times onto the reference speed.
    pub fn scale(&mut self) -> f64 {
        let started = std::time::Instant::now();
        reference_work();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.probes_ms.push(ms);
        if self.recent.len() == 5 {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_WORK_MS / crate::stats::median(&recent)
    }
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// CPUs the kernel reports online (`/sys/devices/system/cpu/online`).
pub fn cpus_online() -> Option<usize> {
    let mask = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut count = 0;
    for range in mask.trim().split(',') {
        count += match range.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?,
            None => {
                range.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(count)
}

/// The aggregate `cpu` line of `/proc/stat`: total and steal jiffies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/stat").ok().and_then(|s| parse_cpu_line(&s)).unwrap_or_default()
}

fn parse_cpu_line(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so only the first eight add up.
    let total = fields.iter().take(8).sum();
    Some(CpuTimes { total, steal: *fields.get(7)? })
}

/// Share of all CPU time between two readings that the hypervisor stole.
pub fn steal_share(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
        let t = parse_cpu_line(stat).expect("cpu line");
        assert_eq!(t, CpuTimes { total: 1000, steal: 35 });
        let later = CpuTimes { total: 1100, steal: 45 };
        assert!((steal_share(t, later) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(t, t), 0.0);
    }

    #[test]
    fn probe_scales_by_the_median_of_recent_probes() {
        let mut p = SpeedProbe::default();
        let mut last = 0.0;
        for _ in 0..7 {
            last = p.scale();
            assert!(last.is_finite() && last > 0.0);
        }
        assert_eq!(p.probes_ms.len(), 7);
        assert_eq!(last, REFERENCE_WORK_MS / crate::stats::median(&p.probes_ms[2..]));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        assert!(nproc() >= 1);
    }
}
