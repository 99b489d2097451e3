//! The benchmark's workloads and the timed iteration they share.
//!
//! Every workload runs the paper's canonical kernel inputs; only the
//! held-out oracle check (see [`crate::check`]) takes the seed. Why each
//! workload exists:
//!
//! * `report-quick` is the whole report: the 16 default artifacts at
//!   quick scale. Every replay family runs and the trace store is reused
//!   across artifacts, so cross-artifact sharing shows here. It runs at
//!   quick scale because one paper-scale report takes 22-27 s on a
//!   2-core Xeon VM, too long to repeat often enough in a run for a
//!   steady median.
//! * `table4-paper` is Table 4 alone at paper scale: recording plus one
//!   stream and 21 L2 observers per trace. Each trace is written and
//!   read once, so store reuse cannot help it.
//! * `sweep-prescreen` is the 975-cell design-space sweep at quick scale
//!   with the analytical pre-screen: the model's profile pass and fused
//!   stream replay, with no L2 and almost no recording.

use std::panic::{catch_unwind, AssertUnwindSafe};

use streamsim_core::experiments::{self, table4_pairs, workload_set, ExperimentOptions, Scale};
use streamsim_core::{render_json_lines, render_text, Artifact, ExecutorHandle, Workload};

use crate::host::Stopwatch;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["report-quick", "table4-paper", "sweep-prescreen"];

/// One benchmark workload: which artifacts it regenerates, at which
/// scale, from which prefilled inputs.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The workload name.
    pub name: &'static str,
    /// Input scale of the drivers.
    pub scale: Scale,
    /// Artifacts run in order, each through `experiments::run_artifact`.
    pub artifacts: Vec<&'static str>,
    /// Whether sweeps are pruned by the analytical model.
    pub prescreen: bool,
    /// What the set-up prefills.
    inputs: Inputs,
}

/// The kernel inputs a workload prefills.
#[derive(Clone, Copy, Debug)]
enum Inputs {
    /// The fifteen Table 1 benchmarks.
    Benchmarks,
    /// Table 4's small and large input of each of its benchmarks.
    Table4Pairs,
}

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "report-quick" => Spec {
                name: "report-quick",
                scale: Scale::Quick,
                artifacts: experiments::default_artifacts(),
                prescreen: false,
                inputs: Inputs::Benchmarks,
            },
            "table4-paper" => Spec {
                name: "table4-paper",
                scale: Scale::Paper,
                artifacts: vec!["table4"],
                prescreen: false,
                inputs: Inputs::Table4Pairs,
            },
            "sweep-prescreen" => Spec {
                name: "sweep-prescreen",
                scale: Scale::Quick,
                artifacts: vec!["sweep"],
                prescreen: true,
                inputs: Inputs::Benchmarks,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Experiment options with a cold trace store and a pool of
    /// `threads` workers.
    pub fn options(&self, threads: usize) -> ExperimentOptions {
        ExperimentOptions {
            scale: self.scale,
            prescreen: self.prescreen,
            executor: ExecutorHandle::threads(threads),
            ..ExperimentOptions::default()
        }
    }

    /// The kernel inputs the workload's first driver records; prefilling
    /// them is the workload's set-up. The report's later drivers record
    /// what else they need (the Table 4 pairs among it) on demand.
    pub fn inputs(&self) -> Vec<Box<dyn Workload>> {
        match self.inputs {
            Inputs::Benchmarks => workload_set(self.scale),
            Inputs::Table4Pairs => table4_pairs(self.scale)
                .into_iter()
                .flat_map(|(_, small, large)| [small, large])
                .collect(),
        }
    }
}

/// One artifact's rendered output.
#[derive(Clone, Debug)]
pub struct Rendered {
    /// The text report.
    pub text: String,
    /// One flat JSON object per row.
    pub json: Vec<String>,
}

/// One artifact run of an iteration.
#[derive(Clone, Debug)]
pub struct Output {
    /// Artifact name.
    pub artifact: &'static str,
    /// The rendering, or why the run failed.
    pub result: Result<Rendered, String>,
    /// Host seconds spent in `run_artifact` (traced iterations only).
    pub run_s: f64,
    /// Host seconds spent rendering (traced iterations only).
    pub render_s: f64,
}

/// One iteration: cold store, prefill, every artifact, rendered.
#[derive(Debug)]
pub struct Iteration {
    /// Host seconds from the cold store to the last rendering.
    pub wall_s: f64,
    /// Host seconds of the prefill.
    pub setup_s: f64,
    /// Why the prefill failed, if it did.
    pub setup_error: Option<String>,
    /// Each artifact's output, in run order.
    pub outputs: Vec<Output>,
    /// Trace-store requests served from memory.
    pub store_hits: u64,
    /// Trace-store requests that recorded a trace.
    pub store_misses: u64,
}

/// Runs one iteration of `spec` on `threads` workers. A traced
/// iteration additionally times each artifact's run and rendering.
pub fn run_iteration(spec: &Spec, threads: usize, traced: bool) -> Iteration {
    let wall = Stopwatch::start();
    let options = spec.options(threads);
    let (setup_s, setup_error) = prefill(spec, &options);
    let mut outputs = Vec::with_capacity(spec.artifacts.len());
    for &artifact in &spec.artifacts {
        let run = traced.then(Stopwatch::start);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            experiments::run_artifact(artifact, &options)
        }));
        let run_s = run.map_or(0.0, |t| t.seconds());
        let render = traced.then(Stopwatch::start);
        let result = match ran {
            Ok(Some(done)) => render_artifact(done.as_ref()),
            Ok(None) => Err(format!("unknown artifact '{artifact}'")),
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        let render_s = render.map_or(0.0, |t| t.seconds());
        outputs.push(Output {
            artifact,
            result,
            run_s,
            render_s,
        });
    }
    Iteration {
        wall_s: wall.seconds(),
        setup_s,
        setup_error,
        outputs,
        store_hits: options.store.hits(),
        store_misses: options.store.misses(),
    }
}

/// Prefills `options`' store with the workload's inputs: the set-up's
/// host seconds, and why it failed, if it did.
pub fn prefill(spec: &Spec, options: &ExperimentOptions) -> (f64, Option<String>) {
    let inputs = spec.inputs();
    let setup = Stopwatch::start();
    let prefilled = catch_unwind(AssertUnwindSafe(|| {
        options.store.prefill_on(
            &inputs,
            &options.record_options(),
            options.executor.executor(),
        )
    }));
    let setup_s = setup.seconds();
    let error = match prefilled {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(payload) => Some(panic_message(payload.as_ref())),
    };
    (setup_s, error)
}

fn render_artifact(artifact: &dyn Artifact) -> Result<Rendered, String> {
    catch_unwind(AssertUnwindSafe(|| Rendered {
        text: render_text(artifact),
        json: render_json_lines(artifact),
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// The message a panic carried.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload");
    format!("panicked: {text}")
}
