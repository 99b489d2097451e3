//! The traced run: host time and work counts for each layer.
//!
//! Every number here is taken from the benchmark's own code, around
//! calls into each layer's public functions; nothing is read from
//! `--profile` spans. Two iterations of the workload give the
//! whole-run ratios (`--profile` overhead, parallel efficiency) and the
//! per-artifact times, and a layer pass over the workload's own inputs gives
//! the per-unit costs. Layer busy times are summed over the executor's
//! workers, so they are host seconds of work, not wall seconds.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::mem::size_of;
use std::sync::Arc;

use streamsim_core::experiments::{self, ExperimentOptions, ARTIFACT_NAMES};
use streamsim_core::{
    parse_flat_json_line, replay_l2, replay_streams, JsonValue, MissEvent, MissTrace, Workload,
};
use streamsim_obs::Level;

use crate::check::{self, check_iteration, ratio, PaperErrors, Tally};
use crate::host::{self, Stopwatch};
use crate::workload::{run_iteration, Output, Spec};

/// The layer metrics the traced run prints, with their units, in print
/// order.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("failed_frac", "ratio"),
        ("paper_hit_mae_pts", "points"),
        ("paper_hit_cells", "count"),
        ("paper_eb_mae_pts", "points"),
        ("paper_eb_cells", "count"),
        ("workloads.refs", "count"),
        ("workloads.gen_s", "s"),
        ("workloads.ns_per_ref", "ns"),
        ("cache.l1_s", "s"),
        ("cache.l1_ns_per_ref", "ns"),
        ("cache.l1_miss_ratio", "ratio"),
        ("trace_store.record_s", "s"),
        ("trace_store.hits", "count"),
        ("trace_store.misses", "count"),
        ("trace_store.hit_ratio", "ratio"),
        ("trace_store.mb", "MB"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_owned(), unit))
    .collect();
    for family in FAMILIES {
        names.push((format!("replay.{family}_s"), "s"));
        names.push((format!("replay.{family}_deliveries"), "count"));
        names.push((format!("replay.{family}_ns_per_delivery"), "ns"));
    }
    names.extend(
        [
            ("model.profile_s", "s"),
            ("model.cells_simulated", "count"),
            ("model.simulated_frac", "ratio"),
            ("model.frontier_exact", "bool"),
        ]
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit)),
    );
    for artifact in ARTIFACT_NAMES {
        names.push((format!("experiments.{artifact}_s"), "s"));
    }
    names.extend(
        [
            ("sink.render_s", "s"),
            ("sink.rows", "count"),
            ("sink.bytes", "bytes"),
            ("runner.parallel_eff", "ratio"),
            ("obs.profile_overhead_frac", "ratio"),
            ("trace.overhead_frac", "ratio"),
        ]
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit)),
    );
    names
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The replay families, in print order.
const FAMILIES: [&str; 4] = ["stream", "filter", "czone", "l2"];

/// Runs the traced measurement of `spec` on `threads` workers, counting
/// every artifact run and the frontier check in `tally`. Returns each
/// [`catalog`] metric's value except `failed_frac`, which the caller
/// adds once the oracle has run too, and the scorecard's error against
/// the paper over hit-rate and extra-bandwidth cells.
pub fn measure(
    spec: &Spec,
    threads: usize,
    tally: &mut Tally,
) -> Result<(Values, PaperErrors), String> {
    let mut m = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };

    // Whole-run ratios of the traced iteration. It differs from an
    // untraced one only by two stopwatches per artifact, so its tracing
    // overhead is their measured cost, and its parallel efficiency is
    // the CPU time its workers were busy over the core time it had.
    // Ratios against whole untraced or one-worker iterations would set
    // one iteration against another, and measure the host's drift
    // between them more than the harness or the fan-out.
    streamsim_obs::set_level(Level::Off);
    let cpu_s = host::cpu_seconds()?;
    let traced = run_iteration(spec, threads, true);
    let busy_s = host::cpu_seconds()? - cpu_s;
    let first = check_iteration(spec.name, &traced, None, tally);
    streamsim_obs::set_level(Level::Info);
    let profiled = run_iteration(spec, threads, false);
    streamsim_obs::set_level(Level::Off);
    streamsim_obs::reset();
    check_iteration(spec.name, &profiled, Some(&first), tally);
    let tracing_s = 2.0 * traced.outputs.len() as f64 * stopwatch_cost_s();
    set(
        "trace.overhead_frac",
        tracing_s / (traced.wall_s - tracing_s),
    );
    set(
        "obs.profile_overhead_frac",
        profiled.wall_s / traced.wall_s - 1.0,
    );
    set(
        "runner.parallel_eff",
        busy_s / (traced.wall_s * threads as f64),
    );

    for artifact in ARTIFACT_NAMES {
        let run_s = total(
            traced
                .outputs
                .iter()
                .filter(|o| o.artifact == artifact)
                .map(|o| o.run_s),
        );
        set(&format!("experiments.{artifact}_s"), run_s);
    }
    let rendered = || traced.outputs.iter().filter_map(|o| o.result.as_ref().ok());
    set(
        "sink.render_s",
        total(traced.outputs.iter().map(|o| o.render_s)),
    );
    set(
        "sink.rows",
        rendered().map(|r| r.json.len()).sum::<usize>() as f64,
    );
    set(
        "sink.bytes",
        rendered()
            .map(|r| r.text.len() + r.json.iter().map(|l| l.len() + 1).sum::<usize>())
            .sum::<usize>() as f64,
    );

    let (hits, misses) = (traced.store_hits as f64, traced.store_misses as f64);
    set("trace_store.hits", hits);
    set("trace_store.misses", misses);
    set("trace_store.hit_ratio", ratio(hits, hits + misses));

    let (hit, eb) = check::paper_error(&traced.outputs);
    set("paper_hit_mae_pts", hit.mae_pts);
    set("paper_hit_cells", hit.cells as f64);
    set("paper_eb_mae_pts", eb.mae_pts);
    set("paper_eb_cells", eb.cells as f64);

    let options = spec.options(threads);
    let traces = record_layers(spec, &options, &mut set);
    replay_layers(&options, traces, &mut set);
    model_layer(spec, &options, &traced.outputs, tally, &mut set);
    Ok((m, (hit, eb)))
}

/// Host seconds of one stopwatch started and read, averaged over many.
fn stopwatch_cost_s() -> f64 {
    const REPS: u32 = 1_000_000;
    let t = Stopwatch::start();
    for _ in 0..REPS {
        black_box(Stopwatch::start().seconds());
    }
    t.seconds() / f64::from(REPS)
}

/// The sum of `values`, 0 when there are none (`Iterator::sum` of
/// floats starts from -0).
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |sum, v| sum + v)
}

/// Generation and recording of each input, into `options`' cold store.
fn record_layers(
    spec: &Spec,
    options: &ExperimentOptions,
    set: &mut impl FnMut(&str, f64),
) -> Vec<Arc<MissTrace>> {
    let record = options.record_options();
    let inputs = spec.inputs();
    let items: Vec<&dyn Workload> = inputs.iter().map(Box::as_ref).collect();
    let per_input = options.parallel_map(items, |w: &dyn Workload| {
        let gen = Stopwatch::start();
        let mut refs = 0u64;
        w.generate_chunks(&mut Vec::new(), &mut |chunk| refs += chunk.len() as u64);
        let gen_s = gen.seconds();
        let rec = Stopwatch::start();
        let trace = options
            .store
            .record(w, &record)
            .expect("the workload's L1 configuration is valid");
        (refs, gen_s, rec.seconds(), trace)
    });
    let refs: u64 = per_input.iter().map(|p| p.0).sum();
    let gen_s = total(per_input.iter().map(|p| p.1));
    let record_s = total(per_input.iter().map(|p| p.2));
    let traces: Vec<Arc<MissTrace>> = per_input.into_iter().map(|p| p.3).collect();
    let events: usize = traces.iter().map(|t| t.events().len()).sum();
    let l1_s = record_s - gen_s;
    set("workloads.refs", refs as f64);
    set("workloads.gen_s", gen_s);
    set("workloads.ns_per_ref", ratio(gen_s * 1e9, refs as f64));
    set("trace_store.record_s", record_s);
    set("cache.l1_s", l1_s);
    set("cache.l1_ns_per_ref", ratio(l1_s * 1e9, refs as f64));
    set("cache.l1_miss_ratio", ratio(events as f64, refs as f64));
    set(
        "trace_store.mb",
        (events * size_of::<MissEvent>()) as f64 / (1u64 << 20) as f64,
    );
    traces
}

/// Each replay family over every trace: busy seconds and deliveries
/// (events times cells).
fn replay_layers(
    options: &ExperimentOptions,
    traces: Vec<Arc<MissTrace>>,
    set: &mut impl FnMut(&str, f64),
) {
    let families = check::stream_families();
    let per_trace = options.parallel_map(traces, |trace: Arc<MissTrace>| {
        let events = trace.events().len() as f64;
        let mut out = Vec::with_capacity(FAMILIES.len());
        for (_, configs) in &families {
            let t = Stopwatch::start();
            black_box(replay_streams(&trace, configs));
            out.push((t.seconds(), events * configs.len() as f64));
        }
        let cells: Vec<_> = check::l2_grid(trace.l1_block())
            .into_iter()
            .map(|c| (c, None))
            .collect();
        let t = Stopwatch::start();
        black_box(replay_l2(&trace, &cells).expect("Table 4's grid is valid"));
        out.push((t.seconds(), events * cells.len() as f64));
        out
    });
    for (i, family) in FAMILIES.iter().enumerate() {
        let busy_s = total(per_trace.iter().map(|t| t[i].0));
        let deliveries = total(per_trace.iter().map(|t| t[i].1));
        set(&format!("replay.{family}_s"), busy_s);
        set(&format!("replay.{family}_deliveries"), deliveries);
        set(
            &format!("replay.{family}_ns_per_delivery"),
            ratio(busy_s * 1e9, deliveries),
        );
    }
}

/// For a pre-screened sweep: the profile pass on a store holding the
/// workload's traces, and whether the sweep kept the full grid's
/// frontier. Every model metric is 0 on a workload that runs no model.
fn model_layer(
    spec: &Spec,
    options: &ExperimentOptions,
    traced: &[Output],
    tally: &mut Tally,
    set: &mut impl FnMut(&str, f64),
) {
    let sweep = SweepRows::read(traced);
    set("model.cells_simulated", sweep.cells_simulated);
    set(
        "model.simulated_frac",
        ratio(sweep.cells_simulated, sweep.cells_total),
    );
    let mut profile_s = 0.0;
    let mut exact = false;
    if spec.prescreen && spec.artifacts.contains(&"sweep") {
        let t = Stopwatch::start();
        options
            .store
            .profiles_on(
                &spec.inputs(),
                &options.record_options(),
                options.executor.executor(),
            )
            .expect("the workload's L1 configuration is valid");
        profile_s = t.seconds();

        let full = ExperimentOptions {
            prescreen: false,
            ..options.clone()
        };
        let grid = experiments::sweep::run(&full);
        exact = grid.frontier_labels() == sweep.frontier;
        let outcome = if exact {
            Ok(())
        } else {
            Err(format!(
                "pre-screened frontier {:?} != full-grid frontier {:?}",
                sweep.frontier,
                grid.frontier_labels()
            ))
        };
        tally.record(&format!("{}/frontier", spec.name), outcome);
    }
    set("model.profile_s", profile_s);
    set("model.frontier_exact", if exact { 1.0 } else { 0.0 });
}

/// What the traced iteration's sweep rows say, if it ran a sweep.
#[derive(Debug, Default)]
struct SweepRows {
    cells_total: f64,
    cells_simulated: f64,
    frontier: Vec<String>,
}

impl SweepRows {
    fn read(outputs: &[Output]) -> SweepRows {
        let mut rows = SweepRows::default();
        let lines = outputs
            .iter()
            .filter(|o| o.artifact == "sweep")
            .filter_map(|o| o.result.as_ref().ok())
            .flat_map(|r| &r.json);
        for line in lines {
            let Ok(fields) = parse_flat_json_line(line) else {
                continue;
            };
            let get = |key: &str| check::field(&fields, key);
            match (get("table"), get("cell"), get("frontier")) {
                (Some(JsonValue::Text(t)), _, _) if t == "prescreen" => {
                    if let Some(JsonValue::Num(n)) = get("cells_total") {
                        rows.cells_total = *n;
                    }
                    if let Some(JsonValue::Num(n)) = get("cells_simulated") {
                        rows.cells_simulated = *n;
                    }
                }
                (_, Some(JsonValue::Text(cell)), Some(JsonValue::Num(f))) if *f == 1.0 => {
                    rows.frontier.push(cell.clone());
                }
                _ => {}
            }
        }
        rows
    }
}
