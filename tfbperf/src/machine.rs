//! Process and host counters read from the kernel: CPU time, peak RSS,
//! host steal, and the machine facts recorded with every run.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process, all threads.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Host-wide (steal, total) jiffies from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        CpuTicks {
            // user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already counted in user time.
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen since `earlier`, in percent.
    pub fn steal_pct_since(&self, earlier: CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cores, kernel release and the SIMD flags the build can use, as JSON
/// members.
pub fn facts_json() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, f)| f.split_whitespace().collect())
        .unwrap_or_default();
    let simd: Vec<String> = ["sse4_2", "avx", "avx2", "fma", "avx512f"]
        .iter()
        .filter(|f| flags.contains(f))
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "\"cores\":{},\"kernel\":\"{}\",\"cpu_flags\":[{}]",
        cores(),
        kernel.trim().replace(['"', '\\'], ""),
        simd.join(",")
    )
}
