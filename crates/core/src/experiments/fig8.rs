//! Figure 8 — performance of the non-unit-stride detection scheme.
//!
//! Ten streams, a 16-entry unit-stride filter backed by a 16-entry czone
//! filter (the paper's configuration). The driver compares unit-only
//! (filtered) streams against the full constant-stride configuration.
//! Paper anchors: fftpde 26 %→71 %, appsp 33 %→65 %, trfd 50 %→65 %,
//! "gains in other benchmarks are minor".

use std::fmt;

use streamsim_streams::{StreamConfig, StreamStats};

use crate::experiments::{miss_traces, ExperimentOptions};
use crate::paper;
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// Czone size (bits of the word address) used when a benchmark has no
/// tuned value: large enough for plane-sized strides, small enough to
/// keep distinct arrays in distinct partitions.
pub const DEFAULT_CZONE_BITS: u32 = 16;

/// One benchmark's unit-only vs constant-stride comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Unit-stride-only streams (16-entry filter).
    pub unit_only: StreamStats,
    /// Unit filter backed by the czone filter.
    pub strided: StreamStats,
}

/// Results of the Figure 8 reproduction.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
    /// The czone size used.
    pub czone_bits: u32,
}

impl Fig8 {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment with the default czone size.
pub fn run(options: &ExperimentOptions) -> Fig8 {
    run_with_czone(options, DEFAULT_CZONE_BITS)
}

/// Runs the experiment with an explicit czone size. Both configurations
/// share one replay pass per benchmark.
pub fn run_with_czone(options: &ExperimentOptions, czone_bits: u32) -> Fig8 {
    let configs = [
        StreamConfig::paper_filtered(10).expect("valid"),
        StreamConfig::paper_strided(10, czone_bits).expect("valid"),
    ];
    let rows = options.parallel_map(miss_traces(options), |(name, trace)| {
        let mut stats = options.replay_streams(&trace, &configs).into_iter();
        Row {
            name,
            unit_only: stats.next().expect("two configs"),
            strided: stats.next().expect("two configs"),
        }
    });
    Fig8 { rows, czone_bits }
}

impl Artifact for Fig8 {
    fn artifact(&self) -> &'static str {
        "fig8"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "stride_detection",
            &format!(
                "Figure 8: non-unit-stride detection (10 streams, 16-entry filters, czone {} bits)",
                self.czone_bits
            ),
            &[
                col("bench", "bench"),
                col("unit-only %", "unit_only_pct"),
                col("w/ strides %", "strided_pct"),
                col("paper unit %", "paper_unit_only_pct"),
                col("paper strided %", "paper_strided_pct"),
            ],
        );
        for r in &self.rows {
            let p = paper::benchmark(&r.name);
            let unit = r.unit_only.hit_rate() * 100.0;
            let strided = r.strided.hit_rate() * 100.0;
            sink.row(&[
                Cell::text(r.name.clone()),
                Cell::num(unit, format!("{unit:.0}")),
                Cell::num(strided, format!("{strided:.0}")),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.hit_filtered_pct, format!("~{:.0}", p.hit_filtered_pct))
                }),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.hit_strided_pct, format!("~{:.0}", p.hit_strided_pct))
                }),
            ]);
        }
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_detection_lifts_strided_benchmarks() {
        let result = run(&ExperimentOptions::quick());
        for name in ["fftpde", "trfd"] {
            let r = result.row(name).unwrap();
            assert!(
                r.strided.hit_rate() > r.unit_only.hit_rate() + 0.1,
                "{name}: {} -> {}",
                r.unit_only.hit_rate(),
                r.strided.hit_rate()
            );
        }
    }

    #[test]
    fn gains_are_minor_for_sequential_codes() {
        let result = run(&ExperimentOptions::quick());
        let r = result.row("embar").unwrap();
        assert!(
            (r.strided.hit_rate() - r.unit_only.hit_rate()).abs() < 0.15,
            "embar should barely change: {} -> {}",
            r.unit_only.hit_rate(),
            r.strided.hit_rate()
        );
    }

    #[test]
    fn strided_allocations_happen_only_with_the_czone_filter() {
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            assert_eq!(r.unit_only.strided_allocations, 0, "{}", r.name);
        }
        assert!(result.row("fftpde").unwrap().strided.strided_allocations > 0);
    }
}
