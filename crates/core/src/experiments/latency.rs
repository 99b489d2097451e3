//! Timing extension — quantifying the paper's §8 caveat.
//!
//! The paper compares streams and caches by hit *ratio* while conceding
//! that "a stream buffer entry may have been prefetched but the data
//! hasn't returned from memory yet … The probability of this situation
//! depends highly on the particular memory system design." This
//! experiment quantifies that probability: every stream hit records its
//! *lead time* — how many stream lookups before the hit its prefetch was
//! issued. If the main-memory latency spans `R` inter-miss intervals,
//! only hits with lead > `R` have their data waiting; the rest are
//! partial (the processor stalls for the residue).
//!
//! The sweep reports, per benchmark and per `R ∈ {1, 2, 4, 8}`, the
//! *covered hit rate* — the fraction of all primary-cache misses fully
//! serviced from a stream buffer — next to the raw hit rate the paper
//! reports. The paper's judgement that "in many realistic system designs
//! the depth of the streams will be sufficient" corresponds to the small
//! gap at low `R`; the deep-buffer ablation shows how depth recovers the
//! gap at high `R`.

use std::fmt;

use streamsim_streams::{Allocation, StreamConfig, StreamStats};

use crate::experiments::{miss_traces, ExperimentOptions};
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// Memory latencies swept, in units of the mean inter-miss interval.
pub const LATENCY_RATIOS: [u64; 4] = [1, 2, 4, 8];

/// One benchmark's timing profile.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Depth-2 (paper) stream statistics with lead-time histogram.
    pub depth2: StreamStats,
    /// Depth-8 statistics, showing how depth buys latency tolerance.
    pub depth8: StreamStats,
}

impl Row {
    /// Covered hit rate at latency ratio `r` with the paper's depth-2
    /// buffers: hits whose prefetch had at least `r` lookups of lead,
    /// as a fraction of all misses.
    pub fn covered_hit_rate(&self, r: u64) -> f64 {
        self.depth2.hit_rate() * self.depth2.leads.coverage(r)
    }
}

/// Results of the latency extension.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Latency {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment. Both depths share one replay pass per benchmark.
pub fn run(options: &ExperimentOptions) -> Latency {
    let configs = [
        StreamConfig::new(10, 2, Allocation::OnMiss).expect("valid"),
        StreamConfig::new(10, 8, Allocation::OnMiss).expect("valid"),
    ];
    let rows = options.parallel_map(miss_traces(options), |(name, trace)| {
        let mut stats = options.replay_streams(&trace, &configs).into_iter();
        Row {
            name,
            depth2: stats.next().expect("two configs"),
            depth8: stats.next().expect("two configs"),
        }
    });
    Latency { rows }
}

impl Artifact for Latency {
    fn artifact(&self) -> &'static str {
        "latency"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let mut columns = vec![col("bench", "bench"), col("raw hit", "raw_hit_pct")];
        columns.extend(
            LATENCY_RATIOS
                .iter()
                .map(|r| col(format!("R={r} (d=2)"), format!("covered_pct_r{r}_d2"))),
        );
        columns.push(col("R=8 (d=8)", "covered_pct_r8_d8"));
        sink.begin_table(
            self.artifact(),
            "covered_hit_rate",
            "Timing extension (§8): covered hit rate (%) vs memory latency R (in inter-miss intervals)",
            &columns,
        );
        for r in &self.rows {
            let raw = r.depth2.hit_rate() * 100.0;
            let mut cells = vec![
                Cell::text(r.name.clone()),
                Cell::num(raw, format!("{raw:.0}")),
            ];
            cells.extend(LATENCY_RATIOS.iter().map(|&ratio| {
                let covered = r.covered_hit_rate(ratio) * 100.0;
                Cell::num(covered, format!("{covered:.0}"))
            }));
            let deep = r.depth8.hit_rate() * r.depth8.leads.coverage(8) * 100.0;
            cells.push(Cell::num(deep, format!("{deep:.0}")));
            sink.row(&cells);
        }
        sink.note(
            "depth 2 covers short latencies (the paper's assumption); depth 8 restores\n\
             coverage when memory latency spans many inter-miss intervals",
        );
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_decreases_with_latency() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), 15);
        for r in &result.rows {
            let mut prev = f64::INFINITY;
            for &ratio in &LATENCY_RATIOS {
                let covered = r.covered_hit_rate(ratio);
                assert!(covered <= prev + 1e-12, "{}", r.name);
                assert!(covered <= r.depth2.hit_rate() + 1e-12, "{}", r.name);
                prev = covered;
            }
        }
    }

    #[test]
    fn depth_buys_latency_tolerance_for_streaming_codes() {
        let result = run(&ExperimentOptions::quick());
        let embar = result.row("embar").unwrap();
        let d2_at8 = embar.depth2.hit_rate() * embar.depth2.leads.coverage(8);
        let d8_at8 = embar.depth8.hit_rate() * embar.depth8.leads.coverage(8);
        assert!(
            d8_at8 > d2_at8 + 0.2,
            "depth 8 ({d8_at8}) should far exceed depth 2 ({d2_at8}) at R=8"
        );
    }

    #[test]
    fn display_renders_sweep() {
        let result = run(&ExperimentOptions::quick());
        let text = result.to_string();
        assert!(text.contains("R=4"));
        assert!(text.contains("embar"));
    }
}
