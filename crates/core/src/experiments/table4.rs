//! Table 4 — stream buffers versus secondary caches as data sets scale.
//!
//! For five benchmarks at two input sizes each: measure the stream hit
//! rate (ten streams, unit + czone filters — the paper's full
//! configuration), then find the minimum secondary cache achieving the
//! same *local* hit rate over the identical miss trace. L2 capacities
//! and associativities follow the paper (64 KB–4 MB, 1–4-way); the L2
//! block size is held equal to the primary cache's 32 bytes. (The paper
//! swept 64/128-byte L2 blocks against an unstated L1 block size; with a
//! 32-byte L1 block, larger L2 blocks would hand small caches a 4×
//! spatial-prefetch subsidy on sequential miss streams that the paper's
//! multi-megabyte results demonstrably did not include, so we hold block
//! size constant to keep *capacity* the operative variable, as in the
//! paper.) The conclusion this driver reproduces: streams scale
//! *better* — the equivalent cache grows with the data set (except the
//! cgm anomaly, where the large scattered matrix defeats streams).

use std::fmt;

use streamsim_cache::CacheConfig;
use streamsim_streams::StreamConfig;

use crate::experiments::{table4_pairs, ExperimentOptions};
use crate::paper;
use crate::report::size;
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// The L2 capacities swept, smallest to largest.
pub const L2_SIZES: [u64; 7] = [
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
];

/// Czone size used for the stream configuration.
pub const CZONE_BITS: u32 = 16;

/// One (benchmark, input) measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// `true` for the larger input.
    pub large: bool,
    /// Modelled data-set size in bytes.
    pub data_set_bytes: u64,
    /// Stream hit rate (fraction).
    pub stream_hit: f64,
    /// Minimum L2 size (bytes) whose best-geometry local hit rate matches
    /// the streams, or `None` if even 4 MB falls short.
    pub min_l2_bytes: Option<u64>,
    /// The best L2 local hit rate observed at `min_l2_bytes` (or at 4 MB
    /// when `None`).
    pub l2_hit: f64,
}

/// Results of the Table 4 reproduction.
#[derive(Clone, Debug)]
pub struct Table4 {
    /// Two rows (small, large) per benchmark.
    pub rows: Vec<Row>,
}

impl Table4 {
    /// The (small, large) rows for one benchmark.
    pub fn pair(&self, name: &str) -> Option<(&Row, &Row)> {
        let small = self.rows.iter().find(|r| r.name == name && !r.large)?;
        let large = self.rows.iter().find(|r| r.name == name && r.large)?;
        Some((small, large))
    }
}

fn measure(
    name: &str,
    large: bool,
    workload: &dyn streamsim_workloads::Workload,
    options: &ExperimentOptions,
) -> Row {
    let trace = options
        .store
        .record(workload, &options.record_options())
        .expect("paper L1 configuration is valid");
    let block = trace.l1_block();

    // The stream cell and the full capacity × associativity L2 grid
    // replay in one request; the minimum-capacity scan then runs over
    // the collected hit rates.
    let stream =
        StreamConfig::paper_strided(10, CZONE_BITS).expect("paper stream configuration is valid");
    let (caps, cells): (Vec<u64>, Vec<_>) = L2_SIZES
        .iter()
        .flat_map(|&cap| [1u32, 2, 4].map(|assoc| (cap, assoc)))
        .filter_map(|(cap, assoc)| {
            Some((cap, (CacheConfig::secondary(cap, assoc, block).ok()?, None)))
        })
        .unzip();
    let (streams, l2_stats) = options
        .replay(&trace, &[stream], &cells)
        .expect("secondary caches are valid");

    let stream_hit = streams[0].hit_rate();
    let mut min_l2_bytes = None;
    let mut l2_hit = 0.0;
    for &cap in &L2_SIZES {
        let best = caps
            .iter()
            .zip(&l2_stats)
            .filter(|(c, _)| **c == cap)
            .map(|(_, s)| s.hit_rate())
            .fold(0.0f64, f64::max);
        l2_hit = best;
        if best >= stream_hit {
            min_l2_bytes = Some(cap);
            break;
        }
    }
    Row {
        name: name.to_owned(),
        large,
        data_set_bytes: workload.data_set_bytes(),
        stream_hit,
        min_l2_bytes,
        l2_hit,
    }
}

/// Runs the experiment.
pub fn run(options: &ExperimentOptions) -> Table4 {
    let mut cells = Vec::new();
    for (name, small, large) in table4_pairs(options.scale) {
        cells.push((name, false, small));
        cells.push((name, true, large));
    }
    let opts = options.clone();
    let rows = options.parallel_map(cells, move |(name, large, workload)| {
        measure(name, large, workload.as_ref(), &opts)
    });
    Table4 { rows }
}

impl Artifact for Table4 {
    fn artifact(&self) -> &'static str {
        "table4"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "scaling",
            "Table 4: streams vs minimum secondary cache for equal local hit rate",
            &[
                col("bench", "bench"),
                col("input", "input_mb"),
                col("stream hit %", "stream_hit_pct"),
                col("paper %", "paper_stream_hit_pct"),
                col("min L2", "min_l2_bytes"),
                col("paper L2", "paper_min_l2_bytes"),
                col("L2 hit %", "l2_hit_pct"),
            ],
        );
        for r in &self.rows {
            let p = paper::TABLE4
                .iter()
                .find(|p| p.name == r.name && p.large == r.large);
            let input_mb = r.data_set_bytes as f64 / (1 << 20) as f64;
            let stream_hit = r.stream_hit * 100.0;
            let l2_hit = r.l2_hit * 100.0;
            sink.row(&[
                Cell::text(r.name.clone()),
                Cell::num(input_mb, format!("{input_mb:.1} MB")),
                Cell::num(stream_hit, format!("{stream_hit:.0}")),
                p.map_or(Cell::text(""), |p| {
                    Cell::num(f64::from(p.stream_hit_pct), format!("{}", p.stream_hit_pct))
                }),
                match r.min_l2_bytes {
                    Some(bytes) => Cell::int(bytes as i64, size(bytes)),
                    None => Cell::text(">4 MB"),
                },
                p.map_or(Cell::text(""), |p| {
                    Cell::int(p.min_l2_bytes as i64, size(p.min_l2_bytes))
                }),
                Cell::num(l2_hit, format!("{l2_hit:.0}")),
            ]);
        }
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_pairs() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len() % 2, 0);
        assert!(result.pair("appsp").is_some());
        let text = result.to_string();
        assert!(text.contains("min L2"));
    }

    #[test]
    fn equivalent_cache_grows_with_data_set_for_regular_codes() {
        let result = run(&ExperimentOptions::quick());
        let (small, large) = result.pair("mgrid").unwrap();
        let s = small.min_l2_bytes.unwrap_or(u64::MAX);
        let l = large.min_l2_bytes.unwrap_or(u64::MAX);
        assert!(l >= s, "mgrid: small {s} vs large {l}");
    }

    #[test]
    fn stream_hit_rates_are_sane() {
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            assert!((0.0..=1.0).contains(&r.stream_hit), "{}", r.name);
        }
    }
}
