//! Process readings and order statistics.

use std::time::{Duration, Instant};

/// Linux reports `/proc/self/stat` CPU times in USER_HZ ticks, which the
/// kernel fixes at 100 for user space on every architecture it ships.
const USER_HZ: f64 = 100.0;

/// User + system CPU of the whole process (all threads, live and exited),
/// in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `rest`
    // starts at field 3.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 1000.0 / USER_HZ,
        _ => f64::NAN,
    }
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM` or `Threads`
/// (which has no unit and is returned as is).
fn status_field(name: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .unwrap_or(f64::NAN)
}

pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM") / 1024.0
}

/// Restarts `VmHWM` at the current resident set (Linux 4.0 and later).
/// Returns whether the kernel took the request.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Machine-wide (steal, total) CPU ticks from the first line of
/// `/proc/stat`; NaN when it cannot be read.
pub fn cpu_steal() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    match ticks.get(..8) {
        Some(t) => (t[7], t.iter().sum()),
        None => (f64::NAN, f64::NAN),
    }
}

/// Share of CPU time stolen between two `cpu_steal` readings.
pub fn steal_share(before: (f64, f64), after: (f64, f64)) -> f64 {
    (after.0 - before.0) / (after.1 - before.1).max(1.0)
}

/// Readings of the machine's speed that no change to the program moves:
/// the median of five timings of a fixed single-thread integer loop, and
/// of a dependent walk over a 32 MiB buffer in 4 MiB strides, so that each
/// step misses the caches and the TLB. `[alu_ms, mem_ms]`.
pub fn calibrate_ms() -> [f64; 2] {
    let alu = || {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0..2_000_000_u64 {
            x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
        }
        x
    };
    const WORDS: usize = 8 << 20;
    const STRIDE: usize = 1_048_583; // prime, so the walk visits every word
    let buffer: Vec<u32> = (0..WORDS).map(|i| ((i + STRIDE) % WORDS) as u32).collect();
    let mem = || {
        let mut i = 0_usize;
        for _ in 0..1_000_000 {
            i = buffer[i] as usize;
        }
        i as u64
    };
    let time = |f: &dyn Fn() -> u64| {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                ms(t.elapsed())
            })
            .collect();
        median(&times)
    };
    [time(&alu), time(&mem)]
}

pub fn threads() -> f64 {
    status_field("Threads")
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values; NaN when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    (percentile(values, 75.0) - percentile(values, 25.0)) / m.abs().max(f64::MIN_POSITIVE)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        // p95 of 200 values leaves exactly 10 above it.
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1.0);
        assert!(calibrate_ms().iter().all(|&t| t > 0.0));
        let (steal, total) = cpu_steal();
        assert!(steal >= 0.0 && total > 0.0);
    }
}
