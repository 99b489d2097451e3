//! Estimated memory CPI — the metric the paper declined to compute.
//!
//! §4.2 argues for hit rate over execution time: "hit rates indicate the
//! maximum benefit that streams can provide" and anything further is
//! memory-system-specific. With the simulators in hand we can supply the
//! missing step for a *parameterised* memory system and see how much of
//! the maximum benefit survives:
//!
//! * every reference costs 1 cycle (the processor side);
//! * an L1 miss serviced by memory stalls `memory_latency` cycles;
//! * a stream hit whose prefetch has had time to return costs
//!   `buffer_latency` cycles (no RAM lookup — the paper argues this can
//!   undercut even a cache hit); one still in flight stalls for the
//!   *residual* latency;
//! * a conventional L2 hit costs `l2_latency`.
//!
//! In-flight residuals come from the measured lead-time distribution: a
//! hit with a lead of `k` misses has covered `k × (refs / misses)` cycles
//! of the memory latency. The output compares memory CPI (cycles per
//! reference beyond the processor's 1.0) for: no backing, the paper's
//! stream system, and a 1 MB L2 — plus the speedup of streams over the
//! bare machine.

use std::fmt;
use std::sync::Arc;

use streamsim_cache::{CacheConfig, TwoLevel};
use streamsim_streams::{StreamConfig, StreamStats};
use streamsim_trace::BlockSize;

use crate::experiments::{workload_set, ExperimentOptions};
use crate::sink::{col, Artifact, ArtifactSink, Cell};
use crate::MissTrace;

/// The assumed memory-system timing, in processor cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Main-memory access latency.
    pub memory_latency: u64,
    /// Stream-buffer hit latency (a tag compare and a transfer).
    pub buffer_latency: u64,
    /// Secondary-cache hit latency.
    pub l2_latency: u64,
}

impl Default for Timing {
    /// Mid-1990s-flavoured defaults: 50-cycle memory, 2-cycle buffer,
    /// 10-cycle off-chip SRAM.
    fn default() -> Self {
        Timing {
            memory_latency: 50,
            buffer_latency: 2,
            l2_latency: 10,
        }
    }
}

/// One benchmark's estimated memory CPI under each system.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Total references (the cycle baseline).
    pub refs: u64,
    /// L1 misses.
    pub misses: u64,
    /// Stream statistics (10 filtered streams).
    pub streams: StreamStats,
    /// L2 local hit rate of the 1 MB conventional system.
    pub l2_hit: f64,
    /// Memory stall cycles per reference: [no backing, streams, L2].
    pub memory_cpi: [f64; 3],
}

impl Row {
    /// Speedup of the stream system over the bare L1+memory machine.
    pub fn stream_speedup(&self) -> f64 {
        (1.0 + self.memory_cpi[0]) / (1.0 + self.memory_cpi[1])
    }
}

/// Results of the CPI estimation.
#[derive(Clone, Debug)]
pub struct Cpi {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
    /// The timing assumptions used.
    pub timing: Timing,
}

impl Cpi {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Average stall per stream hit, from the lead-time distribution: hits
/// with lead `k` have covered `k × inter_miss` cycles of the memory
/// latency (conservatively using each bucket's lower bound).
fn stream_hit_stall(stats: &StreamStats, inter_miss: f64, timing: Timing) -> f64 {
    let buckets = stats.leads.buckets();
    let lower_bounds = [1u64, 2, 3, 4, 8, 16];
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return timing.buffer_latency as f64;
    }
    let mut stall = 0.0;
    for (count, lb) in buckets.iter().zip(lower_bounds) {
        let covered = lb as f64 * inter_miss;
        let residual = (timing.memory_latency as f64 - covered).max(0.0);
        stall += *count as f64 * (timing.buffer_latency as f64 + residual);
    }
    stall / total as f64
}

fn measure(
    name: String,
    trace: &Arc<MissTrace>,
    workload: &dyn streamsim_workloads::Workload,
    options: &ExperimentOptions,
    timing: Timing,
) -> Row {
    let refs = trace.l1().refs();
    let misses = trace.l1().misses();
    let streams =
        options.replay_streams(trace, &[StreamConfig::paper_filtered(10).expect("valid")])[0];

    // Conventional 1 MB L2 over the same reference stream.
    let record = options.record_options();
    let l2_cfg = CacheConfig::new(1 << 20, 2, BlockSize::default()).expect("valid");
    let mut two_level = TwoLevel::new(record.icache, record.dcache, l2_cfg).expect("valid");
    workload.generate(&mut |a| {
        two_level.access(a);
    });
    let l2_hit = two_level.l2_stats().hit_rate();

    let inter_miss = refs as f64 / misses.max(1) as f64;
    let lm = timing.memory_latency as f64;

    let bare = misses as f64 * lm / refs as f64;
    let hit_stall = stream_hit_stall(&streams, inter_miss, timing);
    let with_streams =
        (streams.hits as f64 * hit_stall + streams.misses() as f64 * lm) / refs as f64;
    let with_l2 =
        (misses as f64) * (l2_hit * timing.l2_latency as f64 + (1.0 - l2_hit) * lm) / refs as f64;

    Row {
        name,
        refs,
        misses,
        streams,
        l2_hit,
        memory_cpi: [bare, with_streams, with_l2],
    }
}

/// Runs the estimation with [`Timing::default`].
pub fn run(options: &ExperimentOptions) -> Cpi {
    run_with_timing(options, Timing::default())
}

/// Runs the estimation with explicit timing assumptions.
pub fn run_with_timing(options: &ExperimentOptions, timing: Timing) -> Cpi {
    let record = options.record_options();
    let opts = options.clone();
    let rows = options.parallel_map(workload_set(options.scale), move |w| {
        let trace = opts.store.record(w.as_ref(), &record).expect("valid L1");
        measure(w.name().to_owned(), &trace, w.as_ref(), &opts, timing)
    });
    Cpi { rows, timing }
}

impl Artifact for Cpi {
    fn artifact(&self) -> &'static str {
        "cpi"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "memory_cpi",
            &format!(
                "Estimated memory CPI (stall cycles/ref; memory {} cyc, buffer {}, L2 {})",
                self.timing.memory_latency, self.timing.buffer_latency, self.timing.l2_latency
            ),
            &[
                col("bench", "bench"),
                col("bare", "bare_cpi"),
                col("streams", "streams_cpi"),
                col("1 MB L2", "l2_cpi"),
                col("stream speedup", "stream_speedup"),
            ],
        );
        for r in &self.rows {
            sink.row(&[
                Cell::text(r.name.clone()),
                Cell::num(r.memory_cpi[0], format!("{:.2}", r.memory_cpi[0])),
                Cell::num(r.memory_cpi[1], format!("{:.2}", r.memory_cpi[1])),
                Cell::num(r.memory_cpi[2], format!("{:.2}", r.memory_cpi[2])),
                Cell::num(r.stream_speedup(), format!("{:.2}x", r.stream_speedup())),
            ]);
        }
        sink.note(
            "streams recover most of the hit-rate benefit whenever their lead times\n\
             cover the memory latency (see the latency experiment for the breakdown)",
        );
    }
}

impl fmt::Display for Cpi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_never_slow_the_machine_down() {
        let cpi = run(&ExperimentOptions::quick());
        assert_eq!(cpi.rows.len(), 15);
        for r in &cpi.rows {
            assert!(
                r.memory_cpi[1] <= r.memory_cpi[0] + 1e-9,
                "{}: streams {} vs bare {}",
                r.name,
                r.memory_cpi[1],
                r.memory_cpi[0]
            );
            assert!(r.stream_speedup() >= 1.0 - 1e-9, "{}", r.name);
        }
    }

    #[test]
    fn stream_friendly_codes_speed_up_most() {
        let cpi = run(&ExperimentOptions::quick());
        let embar = cpi.row("embar").unwrap().stream_speedup();
        let adm = cpi.row("adm").unwrap().stream_speedup();
        assert!(embar > adm, "embar speedup {embar} should exceed adm {adm}");
    }

    #[test]
    fn zero_memory_latency_collapses_all_systems() {
        let timing = Timing {
            memory_latency: 0,
            buffer_latency: 0,
            l2_latency: 0,
        };
        let cpi = run_with_timing(&ExperimentOptions::quick(), timing);
        for r in &cpi.rows {
            for c in r.memory_cpi {
                assert!(c.abs() < 1e-9, "{}", r.name);
            }
        }
    }

    #[test]
    fn hit_stall_is_bounded_by_buffer_plus_memory() {
        let cpi = run(&ExperimentOptions::quick());
        let t = cpi.timing;
        for r in &cpi.rows {
            if r.streams.hits == 0 {
                continue;
            }
            let inter_miss = r.refs as f64 / r.misses.max(1) as f64;
            let stall = stream_hit_stall(&r.streams, inter_miss, t);
            assert!(stall >= t.buffer_latency as f64 - 1e-9, "{}", r.name);
            assert!(
                stall <= (t.buffer_latency + t.memory_latency) as f64 + 1e-9,
                "{}",
                r.name
            );
        }
    }
}
