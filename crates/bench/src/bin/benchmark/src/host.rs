//! Host context recorded with every result.

use collapois_nn::kernels;
use std::hint::black_box;
use std::time::Instant;

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// SIMD extensions the kernels detected.
    pub cpu_features: String,
    /// Kernel tier the dispatchers route to.
    pub kernel_tier: &'static str,
    /// Median of five [`calibrate`] samples at start-up, so drift between
    /// sets of runs can be traced to the host.
    pub calibration_ms: f64,
}

impl Host {
    /// Probes the host, calibrating on `lanes` threads.
    pub fn probe(lanes: usize) -> Self {
        let mut samples: Vec<f64> = (0..5).map(|_| calibrate(lanes)).collect();
        samples.sort_by(f64::total_cmp);
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: kernels::cpu_features(),
            kernel_tier: kernels::active_tier().name(),
            calibration_ms: samples[2],
        }
    }

    /// One JSON object, printed before the result line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_parallelism\": {}, \"cpu_features\": \"{}\", \"kernel_tier\": \"{}\", \"calibration_ms\": {}}}",
            self.parallelism, self.cpu_features, self.kernel_tier, self.calibration_ms
        )
    }
}

/// Wall milliseconds for `lanes` threads to each finish 2^23 dependent
/// xorshift steps. The work touches no repository code, so a change to the
/// program cannot move it; only the host can.
fn calibrate(lanes: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for lane in 0..lanes as u64 {
            s.spawn(move || {
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64 ^ lane);
                for _ in 0..1u32 << 23 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                black_box(x)
            });
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
