//! Correctness: which operations failed, and how far the scorecard
//! lands from the paper.
//!
//! An operation is one artifact run or one oracle cell. An artifact run
//! fails when it panics, emits a non-finite or out-of-range value, or
//! emits rows that differ from the first iteration's. An oracle cell
//! fails when the public replay entry point disagrees with the frozen
//! reference model on a seeded trace.

use std::panic::{catch_unwind, AssertUnwindSafe};

use streamsim_cache::reference::ReferenceCache;
use streamsim_cache::{CacheConfig, CacheStats, Replacement};
use streamsim_core::experiments::table4::L2_SIZES;
use streamsim_core::{
    parse_flat_json_line, record_miss_trace, replay_l2, replay_streams, JsonValue, MissEvent,
    MissTrace, RecordOptions, StreamConfig, StreamStats, Workload,
};
use streamsim_prng::SplitMix64;
use streamsim_streams::reference::ReferenceStreamSystem;
use streamsim_trace::BlockSize;
use streamsim_workloads::kernels;

use crate::workload::{panic_message, Iteration, Output};

/// Attempted and failed operations, with the reason for each failure.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn record(&mut self, op: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{op}: {why}"));
        }
    }

    /// Failed operations divided by attempted ones.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The rows of every artifact of one iteration, as checked.
pub type Rows = Vec<Vec<String>>;

/// Checks one iteration: its set-up, then [`check_outputs`].
pub fn check_iteration(
    workload: &str,
    iteration: &Iteration,
    first: Option<&Rows>,
    tally: &mut Tally,
) -> Rows {
    check_setup(workload, iteration.setup_error.clone(), tally);
    check_outputs(workload, &iteration.outputs, first, tally)
}

/// Counts a failed set-up as a failed operation.
pub fn check_setup(workload: &str, error: Option<String>, tally: &mut Tally) {
    if let Some(why) = error {
        tally.record(&format!("{workload}/prefill"), Err(why));
    }
}

/// Checks one iteration's artifact runs against the first iteration's
/// rows, counting each as an operation, and returns this iteration's
/// rows (the reference rows when `first` is `None`).
pub fn check_outputs(
    workload: &str,
    outputs: &[Output],
    first: Option<&Rows>,
    tally: &mut Tally,
) -> Rows {
    let mut rows = Vec::with_capacity(outputs.len());
    for (i, output) in outputs.iter().enumerate() {
        let checked = output
            .result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|rendered| comparable_rows(&rendered.json));
        let outcome = match (&checked, first.and_then(|f| f.get(i))) {
            (Err(why), _) => Err(why.clone()),
            (Ok(now), Some(then)) if now != then => Err(first_difference(then, now)),
            (Ok(_), _) => Ok(()),
        };
        tally.record(&format!("{workload}/{}", output.artifact), outcome);
        rows.push(checked.unwrap_or_default());
    }
    rows
}

fn first_difference(then: &[String], now: &[String]) -> String {
    match then.iter().zip(now).find(|(a, b)| a != b) {
        Some((a, b)) => format!("row changed from the first iteration: {a} -> {b}"),
        None => format!(
            "row count changed from the first iteration: {} -> {}",
            then.len(),
            now.len()
        ),
    }
}

/// Parses and range-checks JSON rows, dropping provenance: the
/// `manifest` and `profile` artifacts and every `run_*` key.
pub fn comparable_rows(json: &[String]) -> Result<Vec<String>, String> {
    let mut rows = Vec::with_capacity(json.len());
    for line in json {
        let fields = parse_flat_json_line(line)?;
        let provenance = fields.iter().any(|(k, v)| {
            k == "artifact" && matches!(v, JsonValue::Text(s) if s == "manifest" || s == "profile")
        });
        if provenance {
            continue;
        }
        let mut row = String::new();
        for (key, value) in fields.iter().filter(|(k, _)| !k.starts_with("run_")) {
            match value {
                JsonValue::Num(n) => check_value(key, *n)?,
                JsonValue::Null => return Err(format!("'{key}' is not a finite number")),
                _ => {}
            }
            row.push_str(&format!("{key}={value:?};"));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// A value is out of range when it is not finite, when a percentage is
/// negative, or when a hit-rate percentage exceeds 100.
pub fn check_value(key: &str, value: f64) -> Result<(), String> {
    let pct = key.ends_with("_pct") || key == "measured" || key == "reported";
    if !value.is_finite() {
        Err(format!("'{key}' is not finite"))
    } else if pct && value < 0.0 {
        Err(format!("'{key}' = {value} is a negative percentage"))
    } else if pct && key.contains("hit") && value > 100.0 {
        Err(format!("'{key}' = {value} is a hit rate above 100%"))
    } else {
        Ok(())
    }
}

/// The value of `key` in a parsed JSON row.
pub fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Signed and absolute error of measured against paper values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PaperError {
    /// Cells compared.
    pub cells: u64,
    /// Mean |measured - paper|, in percentage points.
    pub mae_pts: f64,
    /// Mean (measured - paper), in percentage points.
    pub bias_pts: f64,
}

/// The scorecard's error over its hit-rate cells and over its
/// extra-bandwidth cells.
pub type PaperErrors = (PaperError, PaperError);

/// The scorecard's error against the paper over its hit-rate cells and
/// its extra-bandwidth cells, read from the `verdicts` rows. Both are
/// empty for a workload that does not run the scorecard.
pub fn paper_error(outputs: &[Output]) -> PaperErrors {
    let mut hit = Vec::new();
    let mut eb = Vec::new();
    let rendered = outputs
        .iter()
        .filter(|o| o.artifact == "scorecard")
        .filter_map(|o| o.result.as_ref().ok());
    for line in rendered.flat_map(|r| &r.json) {
        let Ok(fields) = parse_flat_json_line(line) else {
            continue;
        };
        let text = |key| match field(&fields, key) {
            Some(JsonValue::Text(s)) => Some(s.as_str()),
            _ => None,
        };
        let num = |key| match field(&fields, key) {
            Some(JsonValue::Num(n)) => Some(*n),
            _ => None,
        };
        if text("table") != Some("verdicts") {
            continue;
        }
        let (Some(metric), Some(measured), Some(reported)) =
            (text("metric"), num("measured"), num("reported"))
        else {
            continue;
        };
        if metric.starts_with("hit") {
            hit.push(measured - reported);
        } else if metric.starts_with("EB") {
            eb.push(measured - reported);
        }
    }
    (summarize(&hit), summarize(&eb))
}

fn summarize(errors: &[f64]) -> PaperError {
    let n = errors.len() as f64;
    PaperError {
        cells: errors.len() as u64,
        mae_pts: ratio(errors.iter().map(|e| e.abs()).sum(), n),
        bias_pts: ratio(errors.iter().sum(), n),
    }
}

/// A stream-family reference: replays a trace through frozen models.
pub type StreamReference = fn(&MissTrace, &[StreamConfig]) -> Vec<StreamStats>;
/// An L2 reference: replays a trace through frozen cache models.
pub type L2Reference = fn(&MissTrace, &[CacheConfig]) -> Vec<CacheStats>;

/// The six seeded quick kernels and the L1 replacement seed, drawn from
/// `seed`.
pub fn seeded_inputs(seed: u64) -> (Vec<Box<dyn Workload>>, RecordOptions) {
    let mut rng = SplitMix64::new(seed);
    let kernels: Vec<Box<dyn Workload>> = vec![
        Box::new(kernels::Cgm {
            rows: 400,
            nnz: 12_000,
            bandwidth: Some(60),
            iters: 3,
            seed: rng.next(),
        }),
        Box::new(kernels::Is {
            keys: 16 * 1024,
            max_key: 1024,
            iters: 3,
            seed: rng.next(),
        }),
        Box::new(kernels::Adm {
            cells: 16 * 1024,
            steps: 2,
            indirect_pct: 65,
            seed: rng.next(),
        }),
        Box::new(kernels::Bdna {
            atoms: 4096,
            neighbours: 12,
            window: 96,
            steps: 1,
            seed: rng.next(),
        }),
        Box::new(kernels::Dyfesm {
            elements: 2048,
            nodes: 8192,
            nodes_per_elem: 8,
            steps: 2,
            seed: rng.next(),
        }),
        Box::new(kernels::Mdg {
            molecules: 128,
            steps: 2,
            seed: rng.next(),
        }),
    ];
    let l1 = CacheConfig::new(16 * 1024, 4, BlockSize::default())
        .expect("the quick L1 geometry is valid")
        .with_replacement(Replacement::Random { seed: rng.next() });
    let options = RecordOptions {
        icache: l1,
        dcache: l1,
        sampling: None,
    };
    (kernels, options)
}

/// The stream families the oracle checks, by family name.
pub fn stream_families() -> Vec<(&'static str, Vec<StreamConfig>)> {
    let family = |make: fn(usize) -> Result<StreamConfig, _>| {
        (1..=10)
            .map(|n| make(n).expect("paper stream configurations are valid"))
            .collect::<Vec<_>>()
    };
    vec![
        ("stream", family(StreamConfig::paper_basic)),
        ("filter", family(StreamConfig::paper_filtered)),
        (
            "czone",
            vec![StreamConfig::paper_strided(10, 16).expect("paper czone configuration is valid")],
        ),
    ]
}

/// Table 4's L2 grid (every capacity at 1, 2 and 4 ways) for a trace's
/// block size.
pub fn l2_grid(block: BlockSize) -> Vec<CacheConfig> {
    L2_SIZES
        .iter()
        .flat_map(|&cap| [1u32, 2, 4].map(|assoc| (cap, assoc)))
        .filter_map(|(cap, assoc)| CacheConfig::secondary(cap, assoc, block).ok())
        .collect()
}

/// Records the seeded kernels and checks every replay family's public
/// entry point against the references, one operation per cell.
pub fn oracle(seed: u64, streams: StreamReference, l2: L2Reference, tally: &mut Tally) {
    let (kernels, options) = seeded_inputs(seed);
    for kernel in &kernels {
        let name = kernel.name();
        let recorded = catch_unwind(AssertUnwindSafe(|| {
            record_miss_trace(kernel.as_ref(), &options)
        }));
        let trace = match recorded {
            Ok(Ok(trace)) => trace,
            Ok(Err(e)) => {
                tally.record(&format!("oracle/{name}"), Err(e.to_string()));
                continue;
            }
            Err(p) => {
                tally.record(&format!("oracle/{name}"), Err(panic_message(p.as_ref())));
                continue;
            }
        };
        for (family, configs) in stream_families() {
            let public = catch_unwind(AssertUnwindSafe(|| replay_streams(&trace, &configs)));
            let frozen = streams(&trace, &configs);
            compare_cells(name, family, configs.len(), public, &frozen, tally);
        }
        let grid = l2_grid(trace.l1_block());
        let cells: Vec<_> = grid.iter().map(|&c| (c, None)).collect();
        let public = catch_unwind(AssertUnwindSafe(|| {
            replay_l2(&trace, &cells).expect("Table 4's grid is valid")
        }));
        let frozen = l2(&trace, &grid);
        compare_cells(name, "l2", grid.len(), public, &frozen, tally);
    }
}

fn compare_cells<T: PartialEq + std::fmt::Debug>(
    kernel: &str,
    family: &str,
    cells: usize,
    public: std::thread::Result<Vec<T>>,
    frozen: &[T],
    tally: &mut Tally,
) {
    for i in 0..cells {
        let outcome = match &public {
            Err(p) => Err(panic_message(p.as_ref())),
            Ok(got) => match (got.get(i), frozen.get(i)) {
                (Some(a), Some(b)) if a == b => Ok(()),
                (a, b) => Err(format!("public {a:?} != reference {b:?}")),
            },
        };
        tally.record(&format!("oracle/{kernel}/{family}/{i}"), outcome);
    }
}

/// The frozen stream model, driven one event and one cell at a time.
pub fn reference_streams(trace: &MissTrace, configs: &[StreamConfig]) -> Vec<StreamStats> {
    configs
        .iter()
        .map(|&config| {
            let mut sys = ReferenceStreamSystem::new(config);
            for event in trace.events() {
                match *event {
                    MissEvent::Fetch { addr, .. } => {
                        sys.on_l1_miss(addr);
                    }
                    MissEvent::Writeback { base } => sys.on_writeback(base.block(config.block())),
                }
            }
            sys.finalize();
            sys.stats()
        })
        .collect()
}

/// The frozen cache model as an L2: fetches are demand accesses and
/// write-backs are stores.
pub fn reference_l2(trace: &MissTrace, configs: &[CacheConfig]) -> Vec<CacheStats> {
    configs
        .iter()
        .map(|&config| {
            let mut cache = ReferenceCache::new(config).expect("Table 4's grid is valid");
            for event in trace.events() {
                match *event {
                    MissEvent::Fetch { addr, kind } => {
                        cache.access(addr, kind);
                    }
                    MissEvent::Writeback { base } => {
                        cache.access(base, streamsim_trace::AccessKind::Store);
                    }
                }
            }
            *cache.stats()
        })
        .collect()
}
