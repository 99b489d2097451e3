//! Drivers that regenerate every table and figure of the paper.
//!
//! Each submodule reproduces one artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark characteristics |
//! | [`fig3`] | Figure 3 — hit rate vs number of streams |
//! | [`table2`] | Table 2 — extra bandwidth of ordinary streams |
//! | [`fig5`] | Figure 5 — the unit-stride filter's effect |
//! | [`table3`] | Table 3 — stream-length distribution |
//! | [`fig8`] | Figure 8 — non-unit-stride detection |
//! | [`fig9`] | Figure 9 — czone-size sensitivity |
//! | [`table4`] | Table 4 — streams vs secondary-cache scaling |
//! | [`ablations`] | design-choice studies beyond the paper's figures |
//! | [`latency`] | timing extension quantifying the §8 caveat |
//! | [`traffic`] | memory-traffic comparison: streams vs a 1 MB L2 |
//! | [`multiprogramming`] | context-switch penalty under time slicing |
//! | [`baselines`] | prefetcher lineage: OBL → Jouppi → multi-way → filter → strides |
//! | [`scorecard`] | machine-checked paper-vs-measured verdicts |
//! | [`cpi`] | estimated memory CPI / execution-time extension |
//! | [`topology`] | §3 stream placement: from memory (paper) vs from an L2 (Jouppi) |
//! | [`sweep`] | whole design-space sweep with an optional analytical pre-screen |
//!
//! Every driver takes [`ExperimentOptions`]; [`Scale::Quick`] runs
//! reduced inputs for smoke tests, [`Scale::Paper`] the paper-sized
//! inputs used by the bench harness.

pub mod ablations;
pub mod baselines;
pub mod cpi;
pub mod fig3;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod latency;
pub mod multiprogramming;
pub mod scorecard;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod topology;
pub mod traffic;

use std::sync::Arc;

use streamsim_cache::{CacheConfigError, CacheStats};
use streamsim_streams::{StreamConfig, StreamStats};
use streamsim_workloads::{all_benchmarks, kernels, Workload};

use crate::sink::Artifact;
use crate::{ExecutorHandle, L2Cell, MissTrace, RecordOptions, TraceStore};

/// Every experiment driver's artifact name, in report order.
///
/// `sweep` is the whole-design-space driver; it is listed here (so it
/// can be selected by name and `--prescreen` applies to it) but a
/// default `streamsim-report` run excludes it — the full grid is ~60×
/// the cost of any single figure.
pub const ARTIFACT_NAMES: [&str; 17] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig3",
    "fig5",
    "fig8",
    "fig9",
    "ablations",
    "baselines",
    "latency",
    "traffic",
    "multiprogramming",
    "scorecard",
    "cpi",
    "topology",
    "sweep",
];

/// Artifacts a no-selection `streamsim-report` run regenerates: all of
/// [`ARTIFACT_NAMES`] except the on-demand `sweep`.
pub fn default_artifacts() -> Vec<&'static str> {
    ARTIFACT_NAMES
        .iter()
        .copied()
        .filter(|&n| n != "sweep")
        .collect()
}

/// Runs one experiment driver by artifact name, returning its result as
/// a sink-ready [`Artifact`]. Returns `None` for unknown names (see
/// [`ARTIFACT_NAMES`]).
///
/// All drivers run against the options' shared [`TraceStore`], so a
/// sequence of `run_artifact` calls with one options value simulates
/// each L1 configuration exactly once.
pub fn run_artifact(name: &str, options: &ExperimentOptions) -> Option<Box<dyn Artifact>> {
    let artifact: Box<dyn Artifact> = match name {
        "table1" => Box::new(table1::run(options)),
        "table2" => Box::new(table2::run(options)),
        "table3" => Box::new(table3::run(options)),
        "table4" => Box::new(table4::run(options)),
        "fig3" => Box::new(fig3::run(options)),
        "fig5" => Box::new(fig5::run(options)),
        "fig8" => Box::new(fig8::run(options)),
        "fig9" => Box::new(fig9::run(options)),
        "ablations" => Box::new(ablations::run(options)),
        "baselines" => Box::new(baselines::run(options)),
        "latency" => Box::new(latency::run(options)),
        "traffic" => Box::new(traffic::run(options)),
        "multiprogramming" => Box::new(multiprogramming::run(options)),
        "scorecard" => Box::new(scorecard::run(options)),
        "cpi" => Box::new(cpi::run(options)),
        "topology" => Box::new(topology::run(options)),
        "sweep" => Box::new(sweep::run(options)),
        _ => return None,
    };
    Some(artifact)
}

/// Input-size scale for an experiment run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// The paper's input sizes (used by the bench harness).
    #[default]
    Paper,
    /// Reduced inputs for fast smoke tests.
    Quick,
}

/// Options shared by all experiment drivers.
///
/// Cloning is cheap and *shares* the [`TraceStore`]: drivers run with
/// clones of one options value reuse each other's recorded miss traces,
/// which is what makes a full multi-driver sweep simulate each L1
/// exactly once.
#[derive(Clone, Debug, Default)]
pub struct ExperimentOptions {
    /// Input-size scale.
    pub scale: Scale,
    /// Optional time sampling `(on, off)` applied while recording miss
    /// traces (the paper's configuration is `(10_000, 90_000)`).
    pub sampling: Option<(u64, u64)>,
    /// The shared store of recorded miss traces.
    pub store: TraceStore,
    /// Pre-screen configuration sweeps with the analytical model: score
    /// every cell in closed form from memoized locality profiles and
    /// simulate only the predicted Pareto frontier plus a tolerance
    /// band (see [`sweep`]). Off by default — drivers that don't sweep
    /// ignore it.
    pub prescreen: bool,
    /// The executor every concurrent fan-out in this run goes through —
    /// trace-store prefills and the drivers' (cell × config) sweeps
    /// alike. Defaults to the production thread pool; DST tests swap in
    /// a seeded [`streamsim_dst::SimExecutor`] via
    /// [`ExperimentOptions::with_executor`] so a whole experiment runs
    /// under one reproducible interleaving.
    pub executor: ExecutorHandle,
}

impl ExperimentOptions {
    /// Quick-scale options for tests.
    pub fn quick() -> Self {
        ExperimentOptions {
            scale: Scale::Quick,
            ..ExperimentOptions::default()
        }
    }

    /// Options at the given scale (fresh store, no sampling).
    pub fn at_scale(scale: Scale) -> Self {
        ExperimentOptions {
            scale,
            ..ExperimentOptions::default()
        }
    }

    /// These options with a different executor (keeping store, scale
    /// and sampling).
    pub fn with_executor(mut self, executor: ExecutorHandle) -> Self {
        self.executor = executor;
        self
    }

    /// [`parallel_map`](crate::parallel_map) over this run's executor.
    ///
    /// Drivers route every fan-out through here instead of the free
    /// function, so one `ExperimentOptions` value pins the scheduling
    /// of an entire experiment.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.executor.parallel_map(items, f)
    }

    /// [`TraceStore::replay`] on the shared store: drivers holding
    /// clones of one options value simulate each (trace, cell) pair once
    /// between them.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if any L2 cell is invalid.
    pub fn replay(
        &self,
        trace: &Arc<MissTrace>,
        streams: &[StreamConfig],
        l2: &[L2Cell],
    ) -> Result<(Vec<StreamStats>, Vec<CacheStats>), CacheConfigError> {
        self.store.replay(trace, streams, l2)
    }

    /// [`ExperimentOptions::replay`] with stream cells only, which
    /// cannot be rejected.
    pub fn replay_streams(
        &self,
        trace: &Arc<MissTrace>,
        configs: &[StreamConfig],
    ) -> Vec<StreamStats> {
        self.replay(trace, configs, &[])
            .expect("stream cells are always valid")
            .0
    }

    /// The [`RecordOptions`] (L1 geometry + sampling) these experiment
    /// options record miss traces with. Quick-scale runs shrink the L1
    /// along with the inputs so the miss-stream structure matches the
    /// paper-scale runs.
    pub fn record_options(&self) -> RecordOptions {
        match self.scale {
            Scale::Paper => RecordOptions {
                sampling: self.sampling,
                ..RecordOptions::default()
            },
            // Quick runs shrink the L1 along with the inputs so the
            // miss-stream structure (which arrays out-size the cache)
            // matches the paper-scale runs.
            Scale::Quick => {
                let cfg = streamsim_cache::CacheConfig::new(
                    16 * 1024,
                    4,
                    streamsim_trace::BlockSize::default(),
                )
                .expect("valid quick L1")
                .with_replacement(streamsim_cache::Replacement::Random { seed: 0x5eed });
                RecordOptions {
                    icache: cfg,
                    dcache: cfg,
                    sampling: self.sampling,
                }
            }
        }
    }
}

/// The fifteen benchmarks at the requested scale, in Table 1 order.
pub fn workload_set(scale: Scale) -> Vec<Box<dyn Workload>> {
    match scale {
        Scale::Paper => all_benchmarks(),
        Scale::Quick => vec![
            Box::new(kernels::Embar {
                chunk: 512,
                batches: 24,
                compute_refs: 8,
            }),
            Box::new(kernels::Mgrid { n: 16, cycles: 1 }),
            Box::new(kernels::Cgm {
                rows: 400,
                nnz: 12_000,
                bandwidth: Some(60),
                iters: 3,
                seed: 0xc6,
            }),
            Box::new(kernels::Fftpde {
                n: 32,
                steps: 1,
                passes: 1,
            }),
            Box::new(kernels::Is {
                keys: 16 * 1024,
                max_key: 1024,
                iters: 3,
                seed: 0x15,
            }),
            Box::new(kernels::Appsp { n: 12, iters: 2 }),
            Box::new(kernels::Appbt { n: 10, iters: 1 }),
            Box::new(kernels::Applu { n: 10, iters: 1 }),
            Box::new(kernels::Spec77 {
                waves: 32,
                lats: 48,
                levels: 4,
                steps: 1,
            }),
            Box::new(kernels::Adm {
                cells: 16 * 1024,
                steps: 2,
                indirect_pct: 65,
                seed: 0xad,
            }),
            Box::new(kernels::Bdna {
                atoms: 4096,
                neighbours: 12,
                window: 96,
                steps: 1,
                seed: 0xb0,
            }),
            Box::new(kernels::Dyfesm {
                elements: 2048,
                nodes: 8192,
                nodes_per_elem: 8,
                steps: 2,
                seed: 0xd7,
            }),
            Box::new(kernels::Mdg {
                molecules: 128,
                steps: 2,
                seed: 0x3d,
            }),
            Box::new(kernels::Qcd { l: 6, sweeps: 1 }),
            Box::new(kernels::Trfd {
                n: 192,
                unit_passes: 1,
                strided_passes: 1,
                compute_refs: 1,
            }),
        ],
    }
}

/// A Table 4 benchmark: its name with the small and large input
/// workloads.
pub type Table4Pair = (&'static str, Box<dyn Workload>, Box<dyn Workload>);

/// The Table 4 benchmarks with their small and large inputs.
pub fn table4_pairs(scale: Scale) -> Vec<Table4Pair> {
    match scale {
        Scale::Paper => vec![
            (
                "appsp",
                Box::new(kernels::Appsp::small()) as Box<dyn Workload>,
                Box::new(kernels::Appsp::large()) as Box<dyn Workload>,
            ),
            (
                "appbt",
                Box::new(kernels::Appbt::small()),
                Box::new(kernels::Appbt::large()),
            ),
            (
                "applu",
                Box::new(kernels::Applu::small()),
                Box::new(kernels::Applu::large()),
            ),
            (
                "cgm",
                Box::new(kernels::Cgm::small()),
                Box::new(kernels::Cgm::large()),
            ),
            (
                "mgrid",
                Box::new(kernels::Mgrid::small()),
                Box::new(kernels::Mgrid::large()),
            ),
        ],
        Scale::Quick => vec![
            (
                "appsp",
                Box::new(kernels::Appsp { n: 8, iters: 2 }) as Box<dyn Workload>,
                Box::new(kernels::Appsp { n: 16, iters: 1 }) as Box<dyn Workload>,
            ),
            (
                "cgm",
                Box::new(kernels::Cgm {
                    rows: 400,
                    nnz: 12_000,
                    bandwidth: Some(60),
                    iters: 2,
                    seed: 0xc6,
                }),
                Box::new(kernels::Cgm {
                    rows: 1600,
                    nnz: 20_000,
                    bandwidth: None,
                    iters: 2,
                    seed: 0xc6,
                }),
            ),
            (
                "mgrid",
                Box::new(kernels::Mgrid { n: 16, cycles: 3 }),
                Box::new(kernels::Mgrid { n: 32, cycles: 2 }),
            ),
        ],
    }
}

/// The miss trace of every benchmark at the requested scale, in Table 1
/// order.
///
/// Traces come from the options' shared [`TraceStore`]: the first caller
/// records them (in parallel), every later caller — any driver holding a
/// clone of the same options — gets the stored `Arc`s back without
/// re-simulating the L1.
pub fn miss_traces(options: &ExperimentOptions) -> Vec<(String, Arc<MissTrace>)> {
    let workloads = workload_set(options.scale);
    let traces = options
        .store
        .prefill_on(
            &workloads,
            &options.record_options(),
            options.executor.executor(),
        )
        .expect("paper L1 configuration is valid");
    workloads
        .iter()
        .map(|w| w.name().to_owned())
        .zip(traces)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_scales_provide_all_benchmarks() {
        assert_eq!(workload_set(Scale::Paper).len(), 15);
        assert_eq!(workload_set(Scale::Quick).len(), 15);
        let paper: Vec<String> = workload_set(Scale::Paper)
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        let quick: Vec<String> = workload_set(Scale::Quick)
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(paper, quick, "same benchmarks in the same order");
    }

    #[test]
    fn quick_is_smaller_than_paper() {
        for (p, q) in workload_set(Scale::Paper)
            .iter()
            .zip(workload_set(Scale::Quick).iter())
        {
            assert!(
                q.data_set_bytes() <= p.data_set_bytes(),
                "{} quick should not exceed paper size",
                p.name()
            );
        }
    }

    #[test]
    fn quick_miss_traces_record() {
        let traces = miss_traces(&ExperimentOptions::quick());
        assert_eq!(traces.len(), 15);
        for (name, trace) in &traces {
            assert!(trace.fetches() > 0, "{name} produced no misses");
        }
    }

    #[test]
    fn table4_pairs_scale_up() {
        for (name, small, large) in table4_pairs(Scale::Quick) {
            assert!(
                large.data_set_bytes() > small.data_set_bytes(),
                "{name} large must out-size small"
            );
        }
        assert_eq!(table4_pairs(Scale::Paper).len(), 5);
    }
}
