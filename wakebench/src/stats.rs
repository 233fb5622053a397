//! Exact order statistics over samples the benchmark owns, process resource
//! readers, the run checksum and the machine stamp.

use std::fmt::Write as _;

/// One exact quantile of a sample set, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at rank `ceil(q * n)`.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked strictly above the returned one.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a percentile before it is printed.
pub const MIN_BEYOND: usize = 10;

impl Quantile {
    /// `true` when at least [`MIN_BEYOND`] samples lie beyond the value,
    /// so the percentile is an estimate rather than the largest sample.
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The exact nearest-rank `q`-quantile of `samples` (unsorted, finite), or
/// `None` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// A median of per-window medians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// The median across windows of each window's exact median.
    pub value: f64,
    /// Windows that held at least [`MIN_WINDOW_SAMPLES`] samples.
    pub windows: usize,
    /// Samples in those windows.
    pub samples: usize,
}

/// Fewest samples a window needs to count in [`windowed_median`].
pub const MIN_WINDOW_SAMPLES: usize = 10;

/// Splits samples into `window_ns` windows by their timestamps `at`, takes
/// each window's exact median, and returns the median of those. A stall
/// that spoils a few windows moves it far less than the pooled median.
/// `None` when no window holds [`MIN_WINDOW_SAMPLES`] samples.
pub fn windowed_median(at: &[u64], values: &[f64], window_ns: u64) -> Option<Windowed> {
    assert_eq!(at.len(), values.len(), "one timestamp per sample");
    let mut by_window: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&t, &v) in at.iter().zip(values) {
        by_window.entry(t / window_ns).or_default().push(v);
    }
    let full: Vec<&Vec<f64>> = by_window
        .values()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .collect();
    let medians: Vec<f64> = full
        .iter()
        .filter_map(|w| quantile(w, 0.5).map(|q| q.value))
        .collect();
    Some(Windowed {
        value: quantile(&medians, 0.5)?.value,
        windows: medians.len(),
        samples: full.iter().map(|w| w.len()).sum(),
    })
}

/// CPU seconds consumed by every thread of this process so far, exited
/// threads included.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned local whose layout
    // (two `long`s) matches the Linux C definition on 64-bit targets.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, the run checksum.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct MachineStamp {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Total `ht-par` pool width the run pinned.
    pub ht_threads: usize,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

impl MachineStamp {
    /// Collects the stamp for this process.
    pub fn collect(ht_threads: usize, seed: u64) -> MachineStamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // Stop git at the working directory: a checkout that is not a git
        // work tree must read as "unknown", not as some enclosing repo.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_path_buf()))
            .unwrap_or_default();
        MachineStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"], None),
            ht_threads,
            commit: command_line(
                "git",
                &["rev-parse", "--verify", "HEAD"],
                Some(("GIT_CEILING_DIRECTORIES", ceiling.as_os_str())),
            ),
            seed,
        }
    }

    /// One `key=value` line per field, for the text report.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "stamp.nproc       {}", self.nproc);
        let _ = writeln!(s, "stamp.cpu_model   {}", self.cpu_model);
        let _ = writeln!(s, "stamp.rustc       {}", self.rustc);
        let _ = writeln!(s, "stamp.ht_threads  {}", self.ht_threads);
        let _ = writeln!(s, "stamp.commit      {}", self.commit);
        let _ = write!(s, "stamp.seed        {}", self.seed);
        s
    }
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str], env: Option<(&str, &std::ffi::OsStr)>) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p50 = quantile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (500.0, 1000, 500));
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.reportable());
        let max = quantile(&samples, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (1000.0, 0));
        assert!(!max.reportable());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.reportable(), "999 samples cannot support a p99");
        assert!(quantile(&[], 0.5).is_none());
        let one = quantile(&[7.5], 0.5).unwrap();
        assert_eq!((one.value, one.beyond), (7.5, 0));
    }

    #[test]
    fn quantiles_ignore_input_order_and_duplicates() {
        let a = [3.0, 1.0, 2.0, 2.0, 5.0, 4.0];
        let mut b = a;
        b.reverse();
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
        assert_eq!(quantile(&a, 0.5).unwrap().value, 2.0);
    }

    #[test]
    fn windowed_median_shrugs_off_a_stalled_window() {
        // Five 1 s windows of 100 samples near 1 ms; window 2 stalled at
        // 50 ms throughout and window 4 for 40 % of its samples. Two spoiled
        // windows of five leave the result at a clean window's median.
        let mut at = Vec::new();
        let mut v = Vec::new();
        for w in 0..5u64 {
            for i in 0..100u64 {
                at.push(w * 1_000_000_000 + i * 10_000_000);
                v.push(if w == 2 || (w == 4 && i < 40) {
                    50.0
                } else {
                    1.0 + i as f64 * 1e-3
                });
            }
        }
        let m = windowed_median(&at, &v, 1_000_000_000).unwrap();
        assert_eq!((m.windows, m.samples), (5, 500));
        assert_eq!(m.value, 1.049);
    }

    #[test]
    fn windowed_median_skips_thin_windows() {
        let at = [0, 1, 2, 3_000_000_000];
        let v = [1.0, 2.0, 3.0, 99.0];
        assert!(windowed_median(&at, &v, 1_000_000_000).is_none());
        let at: Vec<u64> = (0..25)
            .map(|i| if i < 20 { i } else { 5_000_000_000 })
            .collect();
        let v: Vec<f64> = (0..25).map(|i| if i < 20 { 2.0 } else { 7.0 }).collect();
        let m = windowed_median(&at, &v, 1_000_000_000).unwrap();
        assert_eq!((m.value, m.windows, m.samples), (2.0, 1, 20));
    }

    /// User plus system CPU of this process from `/proc/self/stat`: the
    /// kernel's independent account, in 10 ms ticks (`USER_HZ` = 100).
    fn proc_stat_cpu_seconds() -> f64 {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        // utime and stime are the 12th and 13th fields after the
        // parenthesised command name.
        let rest = &stat[stat.rfind(')').unwrap() + 2..];
        let ticks: u64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .map(|f| f.parse::<u64>().unwrap())
            .sum();
        ticks as f64 / 100.0
    }

    /// Spins until the process has used `cpu` more seconds; a wall
    /// deadline keeps a starved runner from hanging the test.
    fn burn(cpu: f64) {
        let start = process_cpu_seconds();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut x = 0u64;
        while process_cpu_seconds() - start < cpu && Instant::now() < deadline {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        }
    }

    #[test]
    fn cpu_time_agrees_with_the_kernel_account_including_exited_threads() {
        // Other tests share this process, and a loaded runner steals wall
        // time, so hold the reader to the kernel's own per-process account
        // over the same intervals instead of to wall time.
        let (a0, k0) = (process_cpu_seconds(), proc_stat_cpu_seconds());
        burn(0.2);
        let (a1, k1) = (process_cpu_seconds(), proc_stat_cpu_seconds());
        assert!(a1 - a0 >= 0.2, "spinning read {} s", a1 - a0);
        assert!(
            ((a1 - a0) - (k1 - k0)).abs() < 0.05,
            "reader {} s vs kernel {} s",
            a1 - a0,
            k1 - k0
        );

        // 0.2 s burnt on a thread that has exited: were it missing from the
        // reader, the two accounts would part by that much.
        std::thread::spawn(|| burn(0.2)).join().unwrap();
        let (a2, k2) = (process_cpu_seconds(), proc_stat_cpu_seconds());
        assert!(a2 - a1 >= 0.2, "worker spin read {} s", a2 - a1);
        assert!(
            ((a2 - a1) - (k2 - k1)).abs() < 0.05,
            "reader {} s vs kernel {} s after a thread exited",
            a2 - a1,
            k2 - k1
        );
        assert!(process_cpu_seconds() >= a2, "CPU time went backwards");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn peak_rss_reads_a_positive_size() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
