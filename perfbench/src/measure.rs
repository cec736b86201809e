//! What every workload shares: the round loop, order statistics, the
//! seeded input generator, peak memory, and the result line.

use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run: the metrics plus the operation and check tallies.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Builds an outcome: `failed` of the `attempted` operations returned
    /// an error or were refused, and `failures` are the correctness
    /// checks that did not hold on the others (empty means correct).
    pub fn new(attempted: u64, failed: u64, failures: &[String]) -> Self {
        Outcome {
            correct: failures.is_empty(),
            attempted,
            failed,
            metrics: Vec::new(),
            notes: failures
                .iter()
                .map(|f| format!("CHECK FAILED: {f}"))
                .collect(),
        }
    }

    /// Adds another run's operations, checks, notes and metrics.
    pub fn absorb(&mut self, other: Outcome) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// Notes every round's wall time and its operations' p50 and p99,
    /// in round order.
    pub fn note_rounds(&mut self, walls: &[f64], op_times: &[Vec<f64>]) {
        let line = |v: &mut dyn Iterator<Item = f64>| {
            v.map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(" ")
        };
        self.notes.push(format!(
            "round walls (s): {}",
            line(&mut walls.iter().copied())
        ));
        for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
            self.notes.push(format!(
                "round {name} (s): {}",
                line(&mut op_times.iter().map(|ops| quantile(ops, q)))
            ));
        }
    }

    /// The end-to-end metrics every workload reports, from its set-up
    /// time, the timed rounds' wall times, the work items one round
    /// completes, and each round's per-operation times in seconds.
    /// Latencies are each round's own quantile over its operations,
    /// then the median over the rounds.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        walls: &[f64],
        items_per_round: f64,
        op_times: &[Vec<f64>],
    ) -> Result<(), String> {
        let wall = median(walls);
        let latency_ms = |q: f64| {
            median(
                &op_times
                    .iter()
                    .map(|ops| quantile(ops, q) * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        self.metric("setup_s", setup_s, "s");
        self.metric("wall_s", wall, "s");
        self.metric("peak_rss_mb", peak_rss_mib()?, "MiB");
        self.metric("throughput_per_s", items_per_round / wall, "1/s");
        self.metric("latency_p50_ms", latency_ms(0.5), "ms");
        self.metric("latency_p99_ms", latency_ms(0.99), "ms");
        Ok(())
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints one line per metric, then the JSON result as the last line.
    pub fn print(&self) {
        for note in &self.notes {
            eprintln!("{note}");
        }
        for m in &self.metrics {
            println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "attempted {}  failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        let mut line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            // Rust's f64 Display never uses an exponent, so this is JSON;
            // a non-finite value would not be, and is a benchmark bug.
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            line.push_str(&format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Runs `round` at least `min_rounds` times and until `seconds` have
/// passed since the first round began. Every round does the same work,
/// so counts per run are whole multiples of one round's.
pub fn rounds<T>(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || started.elapsed() < budget {
        out.push(round(out.len())?);
    }
    Ok(out)
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// The `q` quantile (0..=1) by linear interpolation between order
/// statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// The worker count: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Linux's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from then
/// on, to the lowest-numbered CPU it may run on.
pub fn pin_to_first_cpu() -> Result<(), String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t` of the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU is allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a mask that is only read.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs
/// depend on `--seed` alone and not on any crate's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn rounds_runs_at_least_the_minimum() {
        let n = rounds(1e-9, 3, Ok::<_, String>).unwrap();
        assert_eq!(n, vec![0, 1, 2]);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
