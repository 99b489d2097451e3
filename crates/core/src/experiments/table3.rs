//! Table 3 — distribution of stream lengths.
//!
//! With ten unfiltered streams, each (re)allocation closes a *run*; the
//! run's length is the number of hits the stream supplied. Table 3
//! reports, per benchmark, the percentage of all hits contributed by runs
//! in each length bucket. The distribution explains Figure 5: programs
//! with many short runs (appbt) lose hits to the filter's two-miss
//! verification cost.

use std::fmt;

use streamsim_streams::{LengthBucket, LengthHistogram, StreamConfig};

use crate::experiments::{miss_traces, ExperimentOptions};
use crate::paper;
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// One benchmark's length distribution.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// The measured histogram (10 streams, no filter).
    pub lengths: LengthHistogram,
}

/// Results of the Table 3 reproduction.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Table3 {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment.
pub fn run(options: &ExperimentOptions) -> Table3 {
    let config = StreamConfig::paper_basic(10).expect("valid");
    let rows = options.parallel_map(miss_traces(options), |(name, trace)| Row {
        name,
        lengths: options.replay_streams(&trace, &[config])[0].lengths,
    });
    Table3 { rows }
}

impl Artifact for Table3 {
    fn artifact(&self) -> &'static str {
        "table3"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let mut columns = vec![col("bench", "bench")];
        columns.extend(LengthBucket::ALL.iter().map(|b| {
            let label = b.to_string();
            let key = format!(
                "len_{}_pct",
                label.replace('-', "_").replace('>', "over_").to_lowercase()
            );
            col(label, key)
        }));
        columns.push(col("paper 1-5", "paper_len_1_5_pct"));
        columns.push(col("paper >20", "paper_len_over_20_pct"));
        sink.begin_table(
            self.artifact(),
            "length_distribution",
            "Table 3: stream-length distribution, % of hits per bucket (10 streams)",
            &columns,
        );
        for r in &self.rows {
            let p = paper::benchmark(&r.name);
            let fractions = r.lengths.hit_fractions();
            let mut cells = vec![Cell::text(r.name.clone())];
            cells.extend(
                fractions
                    .iter()
                    .map(|x| Cell::num(x * 100.0, format!("{:.0}", x * 100.0))),
            );
            cells.push(p.map_or(Cell::text(""), |p| {
                Cell::num(p.len_1_5_pct, format!("{:.0}", p.len_1_5_pct))
            }));
            cells.push(p.map_or(Cell::text(""), |p| {
                Cell::num(p.len_over_20_pct, format!("{:.0}", p.len_over_20_pct))
            }));
            sink.row(&cells);
        }
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_hits_exist() {
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            if r.lengths.total_hits() > 0 {
                let sum: f64 = r.lengths.hit_fractions().iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", r.name);
            }
        }
    }

    #[test]
    fn sequential_codes_have_long_runs() {
        let result = run(&ExperimentOptions::quick());
        let embar = result.row("embar").unwrap();
        let long = embar.lengths.hit_fractions()[LengthBucket::Over20.as_index()];
        assert!(long > 0.5, "embar long-run fraction {long}");
    }

    #[test]
    fn irregular_codes_have_short_runs() {
        let result = run(&ExperimentOptions::quick());
        let adm = result.row("adm").unwrap();
        let embar = result.row("embar").unwrap();
        let adm_short = adm.lengths.hit_fractions()[LengthBucket::B1to5.as_index()];
        let embar_short = embar.lengths.hit_fractions()[LengthBucket::B1to5.as_index()];
        assert!(
            adm_short > embar_short,
            "adm short {adm_short} vs embar {embar_short}"
        );
    }
}
