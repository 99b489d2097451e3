//! Host measurements: the monotonic clock, and the CPU time, peak
//! resident memory and CPU model of this process's machine.

// lint:allow(no-wall-clock, the benchmark measures host time by definition; the values go to its own stdout and never into an artifact)
use std::time::Instant;

/// A started host-time measurement.
#[derive(Clone, Copy, Debug)]
// lint:allow(no-wall-clock, the stopwatch wraps the one clock reading the benchmark takes)
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        // lint:allow(no-wall-clock, the stopwatch wraps the one clock reading the benchmark takes)
        Stopwatch(Instant::now())
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// CPU seconds, user plus system, that this process's threads have run,
/// exited threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after_name = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("no field {} in /proc/self/stat", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident memory of this process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The CPU model, for the machine fingerprint.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| {
                    v.trim_start_matches([' ', '\t', ':'])
                        .trim()
                        .replace('"', "'")
                })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
