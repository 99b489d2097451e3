//! Timing: the analytically pre-screened design-space sweep against the
//! full simulation of the same grid.
//!
//! The sweep artifact scores every cell of the stream-buffer design
//! space — [`sweep::cells`]` ≈ 1000` configurations — on the (hit rate,
//! extra bandwidth) plane. The fast path scores all cells in closed
//! form from each workload's memoized locality profile, keeps only the
//! predicted Pareto frontier plus the validated tolerance band, and
//! simulates just those survivors. Each sample gives each path its own
//! fresh trace store, prefilled untimed — exactly how the report driver
//! amortizes recording across artifacts — then times the path on its
//! trace-hot store. Separate stores keep the full path from being served
//! the survivors' replay results the fast path memoized. The cold
//! profile pass the fast path depends on is inside its measurement. The
//! contract is asserted before timing anything:
//!
//! * the pruned sweep reproduces the full sweep's Pareto frontier
//!   exactly, with byte-identical measurements on every frontier cell;
//! * the pre-screen simulates at most a quarter of the grid.
//!
//! Output: one human + JSON line per path in the usual harness shape,
//! plus a summary. With `STREAMSIM_BENCH_WRITE=1` the summary is
//! written to `BENCH_model.json` at the repo root — the tracked
//! artifact EXPERIMENTS.md describes. With
//! `STREAMSIM_BENCH_ENFORCE=<min>` the run exits non-zero unless the
//! full/pre-screened wall-clock ratio reaches `<min>` (the CI model
//! smoke uses this).
//!
//! Knobs: `STREAMSIM_BENCH_SAMPLES` (default 1 here — each sample runs
//! the full thousand-cell sweep) and `STREAMSIM_BENCH_WARMUP`
//! (default 0).

use std::time::Instant;

use streamsim_core::experiments::sweep::{self, Sweep};
use streamsim_core::experiments::{miss_traces, ExperimentOptions};

fn env_u32(key: &str, default: u32) -> u32 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One sample: each path gets a fresh store prefilled with recorded
/// miss traces untimed (the report driver amortizes recording across
/// artifacts the same way), then runs on its trace-hot store. The cold
/// profile pass the fast path depends on lands inside its own
/// measurement; the full path replays every cell of the grid.
fn sample() -> ((Sweep, u128), (Sweep, u128)) {
    let timed = |prescreen: bool| {
        let options = ExperimentOptions {
            prescreen,
            ..ExperimentOptions::quick()
        };
        miss_traces(&options);
        let start = Instant::now();
        let sweep = std::hint::black_box(sweep::run(&options));
        (sweep, start.elapsed().as_nanos())
    };
    let pre = timed(true);
    let full = timed(false);
    (full, pre)
}

fn report_line(path: &str, ns: u128, cells: usize) {
    println!(
        "bench model/sweep/{path:<9} median {:>10.2} ms  ({cells} cells simulated)",
        ns as f64 / 1e6
    );
    println!(
        "{{\"benchmark\":\"model/sweep/{path}\",\"median_ns\":{ns},\"cells_simulated\":{cells}}}"
    );
}

fn main() {
    let samples = env_u32("STREAMSIM_BENCH_SAMPLES", 1);
    let warmup = env_u32("STREAMSIM_BENCH_WARMUP", 0);

    // Contract first, clock second: the run below doubles as warmup.
    let ((full, mut full_ns), (pruned, mut pre_ns)) = sample();
    assert_eq!(full.cells_simulated, full.cells_total);
    assert!(pruned.prescreened);
    assert!(
        pruned.cells_simulated * 4 <= pruned.cells_total,
        "pre-screen must prune at least three quarters of the grid \
         ({} of {} simulated)",
        pruned.cells_simulated,
        pruned.cells_total
    );
    assert_eq!(
        full.frontier_labels(),
        pruned.frontier_labels(),
        "pruned sweep must reproduce the full sweep's Pareto frontier"
    );
    for label in full.frontier_labels() {
        let f = full.row(label).expect("frontier row in full sweep");
        let p = pruned.row(label).expect("frontier row in pruned sweep");
        assert_eq!(
            (f.hit, f.eb),
            (p.hit, p.eb),
            "{label}: frontier measurements must be byte-identical"
        );
    }

    for _ in 1..warmup {
        sample();
    }
    let mut full_samples = vec![full_ns];
    let mut pre_samples = vec![pre_ns];
    for _ in 1..samples {
        let ((_, f), (_, p)) = sample();
        full_samples.push(f);
        pre_samples.push(p);
    }
    full_samples.sort_unstable();
    pre_samples.sort_unstable();
    full_ns = full_samples[full_samples.len() / 2];
    pre_ns = pre_samples[pre_samples.len() / 2];

    report_line("full", full_ns, full.cells_simulated);
    report_line("prescreen", pre_ns, pruned.cells_simulated);

    let speedup = full_ns as f64 / pre_ns as f64;
    let fraction = pruned.cells_simulated as f64 / pruned.cells_total as f64;
    let frontier_cells = full.frontier_labels().len();
    println!(
        "bench model/sweep: {} of {} cells simulated ({:.1}%), frontier {} cells \
         reproduced exactly, speedup {speedup:.2}x",
        pruned.cells_simulated,
        pruned.cells_total,
        fraction * 100.0,
        frontier_cells
    );

    // The shared streamsim-bench-v2 artifact: one flat summary row the
    // perf ledger ingests (full sweep is the reference, the pruned sweep
    // the current path), then the provenance note as its own row.
    let config_text = format!(
        "model quick cells {} frontier {frontier_cells}",
        pruned.cells_total
    );
    let header = streamsim_bench::bench_summary_line(
        "model",
        "quick",
        samples,
        &config_text,
        pruned.cells_simulated as u64,
        "cells",
        &[
            ("reference_ns", full_ns as f64),
            ("current_ns", pre_ns as f64),
            ("cells_total", pruned.cells_total as f64),
            ("cells_simulated", pruned.cells_simulated as f64),
            ("simulated_fraction", (fraction * 1e4).round() / 1e4),
            ("frontier_cells", frontier_cells as f64),
            ("speedup", (speedup * 1e3).round() / 1e3),
        ],
    );
    let note_line = streamsim_bench::bench_detail_line(
        "model",
        "note",
        "\"frontier_reproduced_exactly\":true,\"text\":\"recording amortized in a \
         shared prefilled store as the report driver does; the cold profile pass \
         is inside the fast path's measurement\"",
    );
    let summary = format!("{header}\n{note_line}\n");

    if std::env::var("STREAMSIM_BENCH_WRITE").as_deref() == Ok("1") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_model.json");
        std::fs::write(path, &summary).expect("write BENCH_model.json");
        println!("model summary written to {path}");
    }

    if let Ok(min) = std::env::var("STREAMSIM_BENCH_ENFORCE") {
        let min: f64 = min
            .trim()
            .parse()
            .expect("STREAMSIM_BENCH_ENFORCE is a float");
        if speedup < min {
            eprintln!("model pre-screen speedup {speedup:.3}x below enforced minimum {min}x");
            std::process::exit(1);
        }
        println!("model pre-screen speedup {speedup:.3}x meets enforced minimum {min}x");
    }
}
