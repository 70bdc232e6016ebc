//! Process and host facts read from the operating system (Linux procfs).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines this process — and every thread it spawns from here on — to
/// one CPU, the highest-numbered one it may use (device interrupts tend to
/// land on CPU 0). Returns that CPU, or `None` if the kernel refused.
///
/// On the 2-core reference host the same run repeats within ±3 % on one
/// CPU and within ±12 % on two (README, "Noise evidence"): with thirteen
/// threads handing each exchange to one another, where the scheduler places
/// the wakee decides the run. What the benchmark gates is the CPU cost of
/// the data path, which one CPU measures; it makes no claim about scaling
/// across cores.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes that
    // outlives the call; pid 0 means the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << bit;
    // SAFETY: `only` is a readable buffer of exactly `size` bytes that
    // outlives the call; pid 0 means the calling thread, and threads
    // spawned later inherit its mask.
    (unsafe { sched_setaffinity(0, size, &only) } == 0).then_some(word * 64 + bit)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32).as_secs_f64()
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Threads in this process right now.
pub fn thread_count() -> usize {
    status_field("Threads:").unwrap_or(0) as usize
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` facts about the host and build, for the run's record.
pub fn facts() -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        ("kernel", first_line("/proc/sys/kernel/osrelease")),
        ("loadavg_at_start", first_line("/proc/loadavg")),
        (
            "git_commit",
            std::env::var("RDDR_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}
