//! Figure 5 — the unit-stride filter's effect on hit rate and bandwidth.
//!
//! Ten streams with and without the 16-entry unit-stride filter. The
//! paper's findings this driver reproduces: the filter cuts extra
//! bandwidth drastically (often by more than half; trfd 96 %→11 %, is
//! 48 %→7 %) at little hit-rate cost for most codes, *increases* the
//! fftpde hit rate by protecting active streams, and hurts short-burst
//! `appbt` (65 %→45 %).

use std::fmt;

use streamsim_streams::{StreamConfig, StreamStats};

use crate::experiments::{miss_traces, ExperimentOptions};
use crate::paper;
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// One benchmark's with/without-filter comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Ten unfiltered streams.
    pub unfiltered: StreamStats,
    /// Ten streams behind the 16-entry unit filter.
    pub filtered: StreamStats,
}

/// Results of the Figure 5 reproduction.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Fig5 {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment. Both configurations share one replay pass per
/// benchmark.
pub fn run(options: &ExperimentOptions) -> Fig5 {
    let configs = [
        StreamConfig::paper_basic(10).expect("valid"),
        StreamConfig::paper_filtered(10).expect("valid"),
    ];
    let rows = options.parallel_map(miss_traces(options), |(name, trace)| {
        let mut stats = options.replay_streams(&trace, &configs).into_iter();
        Row {
            name,
            unfiltered: stats.next().expect("two configs"),
            filtered: stats.next().expect("two configs"),
        }
    });
    Fig5 { rows }
}

impl Artifact for Fig5 {
    fn artifact(&self) -> &'static str {
        "fig5"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "filter_effect",
            "Figure 5: effect of the unit-stride filter (10 streams, 16-entry filter)",
            &[
                col("bench", "bench"),
                col("hit w/o", "hit_unfiltered_pct"),
                col("hit w/", "hit_filtered_pct"),
                col("paper w/o", "paper_hit_unfiltered_pct"),
                col("paper w/", "paper_hit_filtered_pct"),
                col("EB w/o", "eb_unfiltered_pct"),
                col("EB w/", "eb_filtered_pct"),
                col("paper w/o", "paper_eb_unfiltered_pct"),
                col("paper w/", "paper_eb_filtered_pct"),
            ],
        );
        for r in &self.rows {
            let p = paper::benchmark(&r.name);
            let hit_wo = r.unfiltered.hit_rate() * 100.0;
            let hit_w = r.filtered.hit_rate() * 100.0;
            let eb_wo = r.unfiltered.extra_bandwidth() * 100.0;
            let eb_w = r.filtered.extra_bandwidth() * 100.0;
            sink.row(&[
                Cell::text(r.name.clone()),
                Cell::num(hit_wo, format!("{hit_wo:.0}")),
                Cell::num(hit_w, format!("{hit_w:.0}")),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.hit_basic_pct, format!("~{:.0}", p.hit_basic_pct))
                }),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.hit_filtered_pct, format!("~{:.0}", p.hit_filtered_pct))
                }),
                Cell::num(eb_wo, format!("{eb_wo:.0}")),
                Cell::num(eb_w, format!("{eb_w:.0}")),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.eb_basic_pct, format!("{:.0}", p.eb_basic_pct))
                }),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.eb_filtered_pct, format!("{:.0}", p.eb_filtered_pct))
                }),
            ]);
        }
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_always_reduces_bandwidth() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), 15);
        for r in &result.rows {
            assert!(
                r.filtered.extra_bandwidth() <= r.unfiltered.extra_bandwidth() + 1e-9,
                "{}: filter increased EB",
                r.name
            );
        }
    }

    #[test]
    fn filter_cuts_bandwidth_sharply_for_irregular_codes() {
        let result = run(&ExperimentOptions::quick());
        let adm = result.row("adm").unwrap();
        assert!(
            adm.filtered.extra_bandwidth() < adm.unfiltered.extra_bandwidth() / 2.0,
            "adm EB {} -> {}",
            adm.unfiltered.extra_bandwidth(),
            adm.filtered.extra_bandwidth()
        );
    }

    #[test]
    fn filter_costs_little_for_long_stream_codes() {
        let result = run(&ExperimentOptions::quick());
        let embar = result.row("embar").unwrap();
        assert!(
            embar.unfiltered.hit_rate() - embar.filtered.hit_rate() < 0.10,
            "embar hit {} -> {}",
            embar.unfiltered.hit_rate(),
            embar.filtered.hit_rate()
        );
    }
}
