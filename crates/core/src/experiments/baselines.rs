//! Prefetcher family tree — from OBL to the paper's full configuration.
//!
//! The paper's related-work section traces a lineage: Smith's
//! one-block-lookahead (OBL) prefetching, Jouppi's stream buffers as "an
//! extension to OBL", multi-way streams, and finally this paper's filter
//! and stride extensions. This experiment lines them up on the same miss
//! traces:
//!
//! 1. **OBL (tagged)** — prefetch block *i+1* on a miss to *i*: one
//!    stream buffer of depth 1.
//! 2. **Jouppi single stream** — one buffer of depth 2.
//! 3. **Multi-way streams** — ten buffers (§5).
//! 4. **+ unit filter** — ten buffers behind the 16-entry filter (§6).
//! 5. **+ czone strides** — the paper's full configuration (§7).
//!
//! The table shows each step's contribution: multi-way buys interleaved
//! loops, the filter buys bandwidth (shown as EB), strides buy the
//! FFT-style codes.

use std::fmt;

use streamsim_streams::{Allocation, StreamConfig, StreamStats};

use crate::experiments::{miss_traces, ExperimentOptions};
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// The five configurations compared, in lineage order.
pub const CONFIGS: [&str; 5] = [
    "OBL (1x1)",
    "1 stream",
    "10 streams",
    "+ filter",
    "+ strides",
];

/// One benchmark's results across the lineage.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Statistics per entry of [`CONFIGS`].
    pub stats: Vec<StreamStats>,
}

/// Results of the baselines comparison.
#[derive(Clone, Debug)]
pub struct Baselines {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Baselines {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

fn configs() -> Vec<StreamConfig> {
    vec![
        StreamConfig::new(1, 1, Allocation::OnMiss).expect("valid"),
        StreamConfig::new(1, 2, Allocation::OnMiss).expect("valid"),
        StreamConfig::paper_basic(10).expect("valid"),
        StreamConfig::paper_filtered(10).expect("valid"),
        StreamConfig::paper_strided(10, 16).expect("valid"),
    ]
}

/// Runs the experiment. The whole lineage replays over each benchmark's
/// trace in a single pass.
pub fn run(options: &ExperimentOptions) -> Baselines {
    let rows = options.parallel_map(miss_traces(options), |(name, trace)| Row {
        name,
        stats: options.replay_streams(&trace, &configs()),
    });
    Baselines { rows }
}

impl Artifact for Baselines {
    fn artifact(&self) -> &'static str {
        "baselines"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let keys = [
            "obl_hit_pct",
            "one_stream_hit_pct",
            "ten_streams_hit_pct",
            "filtered_hit_pct",
            "strided_hit_pct",
        ];
        let mut columns = vec![col("bench", "bench")];
        columns.extend(
            CONFIGS
                .iter()
                .zip(keys)
                .map(|(header, key)| col(*header, key)),
        );
        sink.begin_table(
            self.artifact(),
            "lineage",
            "Prefetcher lineage: hit rate % (EB %) from OBL to the paper's full system",
            &columns,
        );
        for r in &self.rows {
            let mut cells = vec![Cell::text(r.name.clone())];
            cells.extend(r.stats.iter().map(|s| {
                Cell::num(
                    s.hit_rate() * 100.0,
                    format!(
                        "{:.0} ({:.0})",
                        s.hit_rate() * 100.0,
                        s.extra_bandwidth() * 100.0
                    ),
                )
            }));
            sink.row(&cells);
        }
        sink.note(
            "multi-way buys interleaved loops; the filter buys bandwidth; czone\n\
             strides buy the FFT-style codes",
        );
    }
}

impl fmt::Display for Baselines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_of_the_lineage_runs() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), 15);
        for r in &result.rows {
            assert_eq!(r.stats.len(), CONFIGS.len());
            for s in &r.stats {
                assert!(s.prefetch_accounting_balances(), "{}", r.name);
            }
        }
    }

    #[test]
    fn multiway_dominates_obl_on_interleaved_codes() {
        let result = run(&ExperimentOptions::quick());
        let mgrid = result.row("mgrid").unwrap();
        let obl = mgrid.stats[0].hit_rate();
        let multi = mgrid.stats[2].hit_rate();
        assert!(
            multi > obl + 0.2,
            "10 streams ({multi}) must far exceed OBL ({obl}) on mgrid"
        );
    }

    #[test]
    fn filter_cuts_bandwidth_along_the_lineage() {
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            let unfiltered = r.stats[2].extra_bandwidth();
            let filtered = r.stats[3].extra_bandwidth();
            assert!(filtered <= unfiltered + 1e-9, "{}", r.name);
        }
    }

    #[test]
    fn strides_help_fftpde_most() {
        let result = run(&ExperimentOptions::quick());
        let fftpde = result.row("fftpde").unwrap();
        assert!(
            fftpde.stats[4].hit_rate() > fftpde.stats[3].hit_rate() + 0.1,
            "strides must lift fftpde"
        );
    }
}
