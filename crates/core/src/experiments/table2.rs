//! Table 2 — extra bandwidth consumed by ordinary streams.
//!
//! Ten unfiltered streams: every stream miss reallocates a buffer and
//! flushes up to `depth` speculative prefetches. We report the *measured*
//! extra bandwidth (every prefetch tracked to a useful/useless
//! disposition) alongside the paper's closed-form
//! `allocations × depth / misses` approximation and Table 2's values.

use std::fmt;

use streamsim_streams::{StreamConfig, StreamStats};

use crate::experiments::{miss_traces, ExperimentOptions};
use crate::paper;
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// One benchmark's bandwidth accounting.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Full stream statistics (10 streams, no filter).
    pub stats: StreamStats,
}

impl Row {
    /// Measured extra bandwidth (fraction of demand traffic).
    pub fn eb(&self) -> f64 {
        self.stats.extra_bandwidth()
    }
}

/// Results of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Table2 {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment.
pub fn run(options: &ExperimentOptions) -> Table2 {
    let config = StreamConfig::paper_basic(10).expect("ten streams is valid");
    let rows = options.parallel_map(miss_traces(options), move |(name, trace)| Row {
        name,
        stats: options.replay_streams(&trace, &[config])[0],
    });
    Table2 { rows }
}

impl Artifact for Table2 {
    fn artifact(&self) -> &'static str {
        "table2"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "extra_bandwidth",
            "Table 2: extra bandwidth of ordinary streams (10 streams, depth 2, no filter)",
            &[
                col("bench", "bench"),
                col("EB %", "eb_pct"),
                col("formula %", "formula_pct"),
                col("paper %", "paper_eb_pct"),
                col("hit %", "hit_pct"),
            ],
        );
        for r in &self.rows {
            let p = paper::benchmark(&r.name);
            let eb = r.eb() * 100.0;
            let formula = r.stats.extra_bandwidth_paper_formula(2) * 100.0;
            let hit = r.stats.hit_rate() * 100.0;
            sink.row(&[
                Cell::text(r.name.clone()),
                Cell::num(eb, format!("{eb:.0}")),
                Cell::num(formula, format!("{formula:.0}")),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(p.eb_basic_pct, format!("{:.0}", p.eb_basic_pct))
                }),
                Cell::num(hit, format!("{hit:.0}")),
            ]);
        }
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eb_tracks_miss_rate() {
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            // With depth-2 unfiltered streams, measured EB can never
            // exceed 2× the miss fraction (each allocation issues ≤ 2).
            let bound = 2.0 * (1.0 - r.stats.hit_rate()) + 0.05;
            assert!(
                r.eb() <= bound,
                "{}: EB {} exceeds bound {bound}",
                r.name,
                r.eb()
            );
            assert!(r.stats.prefetch_accounting_balances(), "{}", r.name);
        }
    }

    #[test]
    fn irregular_benchmarks_waste_more_bandwidth() {
        let result = run(&ExperimentOptions::quick());
        let adm = result.row("adm").unwrap().eb();
        let embar = result.row("embar").unwrap().eb();
        assert!(adm > embar, "adm ({adm}) must out-waste embar ({embar})");
    }

    #[test]
    fn formula_upper_bounds_measurement() {
        // The paper's formula assumes every allocation flushes a full
        // depth of prefetches, so it should not undershoot measurement
        // by much.
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            let formula = r.stats.extra_bandwidth_paper_formula(2);
            assert!(
                formula + 0.05 >= r.eb(),
                "{}: formula {formula} < measured {}",
                r.name,
                r.eb()
            );
        }
    }
}
