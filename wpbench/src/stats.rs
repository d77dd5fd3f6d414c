//! Order statistics, process memory, and the machine calibration.

use std::hint::black_box;
use std::time::Instant;

/// The `q` quantile (0..=1) of `v` by linear interpolation between
/// order statistics; `0.0` for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`: the parallelism the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

/// Fixed, allocation-free integer work (~20 ms on one core).
fn spin(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..8_000_000u32 {
        x = black_box(x ^ (x << 13));
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn time_threads(n: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..n {
            s.spawn(move || black_box(spin(i as u64)));
        }
    });
    t0.elapsed().as_secs_f64()
}

/// The parallel-capacity ratio: `n` threads each doing the same fixed
/// work, against one thread doing it once (`n × t1 / tn`, median of
/// three interleaved trials). `n` on a machine with `n` free cores.
/// Also returns the median single-thread time in ms, a machine-speed
/// reading to set beside the run's own times.
pub fn parallel_capacity(n: usize) -> (f64, f64) {
    let (mut ratios, mut singles) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t1 = time_threads(1);
        let tn = time_threads(n);
        ratios.push(n as f64 * t1 / tn);
        singles.push(t1 * 1e3);
    }
    (median(&ratios), median(&singles))
}
