//! The paper-regeneration benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The workloads are described in [`workload`]; which end-to-end metric
//! each per-layer metric should move, on which workload, is written
//! down in `perfbench/layers.json`.
//!
//! An untraced run (`--trace 0`) runs the workload once from a cold
//! trace store as a warm-up, then repeats it for at least `S` seconds
//! and at least three more iterations, checks every artifact's rows,
//! then runs the seeded oracle check. It prints the end-to-end metrics:
//! `wall_s` and `setup_s` (medians over the timed iterations, with extra
//! cold set-ups), `peak_rss_mb` (the peak after the warm-up: one
//! regeneration per process, as a user runs it; later iterations would
//! only add the allocator's fragmentation from repeated cold stores),
//! `failed_frac`, and the scorecard's error against the paper. A traced run (`--trace 1`) prints the per-layer
//! table of [`layers::catalog`] instead. Both end with one JSON line
//! holding `correct`, `attempted`, `failed` and the metrics that
//! `BENCHMARK.json` lists for the mode; every line before it is stamped
//! with the seed, the thread count and the machine.
//!
//! All times are host seconds. The modelled caches start empty, as in
//! the paper's cold-start traces. The executor has one worker per
//! available core.

mod check;
mod host;
mod layers;
mod workload;

#[cfg(test)]
mod tests;

use std::io::Write;
use std::process::ExitCode;

use check::{PaperErrors, Tally};
use host::{cpu_model, cpu_seconds, peak_rss_mb, Stopwatch};
use workload::{run_iteration, Spec};

/// The end-to-end metrics an untraced run prints, with their units.
const UNTRACED: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
    ("paper_hit_mae_pts", "points"),
    ("paper_eb_mae_pts", "points"),
];

/// The end-to-end metrics of its JSON line: those of [`UNTRACED`] that
/// are never 0 and whose spread a bound can hold. `failed_frac` and the
/// paper errors are in the traced run's per-layer table as well.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Timed iterations every untraced run makes at least after its
/// warm-up, so that even a slow workload's median rests on three
/// values.
const MIN_ITERATIONS: usize = 3;

/// Set-ups every untraced run times at least: each timed iteration's
/// prefill, then cold prefills alone until there are this many.
const MIN_SETUPS: usize = 15;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "error: unknown workload '{}' (expected one of {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    match run(&spec, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec: &Spec, args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    streamsim_obs::set_level(streamsim_obs::Level::Off);
    let stamp = format!(
        "seed={} threads={} nproc={} cpu=\"{}\" workload={} trace={}",
        args.seed,
        threads,
        threads,
        cpu_model(),
        spec.name,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let mut lines = vec![format!("# {stamp}")];
    let (catalog, mut values, paper) = if args.trace {
        let (values, paper) = layers::measure(spec, threads, &mut tally)?;
        (layers::catalog(), values, paper)
    } else {
        let catalog = UNTRACED.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        let (values, paper) = untraced(spec, args, threads, &mut tally, &mut lines)?;
        (catalog, values, paper)
    };
    check::oracle(
        args.seed,
        check::reference_streams,
        check::reference_l2,
        &mut tally,
    );
    values.insert("failed_frac".to_owned(), tally.failed_frac());
    lines.extend(paper_lines(paper));
    let mut body = Vec::new();
    for (name, unit) in catalog {
        let value = values
            .remove(&name)
            .filter(|v| v.is_finite())
            .ok_or(format!("the run measured no finite '{name}'"))?;
        lines.push(format!("# {name:<34} {value:>16.6} {unit:<7} [{stamp}]"));
        if args.trace || END_TO_END.iter().any(|&(listed, _)| listed == name) {
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    for failure in &tally.failures {
        lines.push(format!("# FAILED {failure}"));
    }
    lines.push(format!(
        "# {} of {} operations failed [{stamp}]",
        tally.failed, tally.attempted
    ));
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    ));
    let mut out = std::io::stdout().lock();
    for line in &lines {
        writeln!(out, "{line}").map_err(|e| format!("cannot write stdout: {e}"))?;
    }
    out.flush().map_err(|e| format!("cannot write stdout: {e}"))
}

/// The untraced run's timed iterations and extra set-ups: every
/// [`UNTRACED`] metric but `failed_frac`, and the first iteration's
/// error against the paper.
fn untraced(
    spec: &Spec,
    args: &Args,
    threads: usize,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Result<(layers::Values, PaperErrors), String> {
    // The warm-up: its rows are the ones later iterations must repeat,
    // and its first touches of code and memory stay out of the medians.
    let warmup = run_iteration(spec, threads, false);
    let first = check::check_iteration(spec.name, &warmup, None, tally);
    let paper = check::paper_error(&warmup.outputs);
    let peak_mb = peak_rss_mb()?;
    eprintln!(
        "{} warm-up: wall {:.3} s, setup {:.3} s, peak {:.1} MB",
        spec.name, warmup.wall_s, warmup.setup_s, peak_mb
    );
    drop(warmup);

    let started = Stopwatch::start();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    while walls.len() < MIN_ITERATIONS || started.seconds() < args.seconds {
        let cpu_s = cpu_seconds()?;
        let iteration = run_iteration(spec, threads, false);
        eprintln!(
            "{} iteration {}: wall {:.3} s, setup {:.3} s, cpu {:.2} s",
            spec.name,
            walls.len() + 1,
            iteration.wall_s,
            iteration.setup_s,
            cpu_seconds()? - cpu_s
        );
        check::check_iteration(spec.name, &iteration, Some(&first), tally);
        walls.push(iteration.wall_s);
        setups.push(iteration.setup_s);
    }
    while setups.len() < MIN_SETUPS {
        let (setup_s, error) = workload::prefill(spec, &spec.options(threads));
        check::check_setup(spec.name, error, tally);
        setups.push(setup_s);
    }
    lines.push(format!("# {} iterations, wall_s {:?}", walls.len(), walls));
    let values = [
        ("wall_s", median(&walls)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_mb),
        ("paper_hit_mae_pts", paper.0.mae_pts),
        ("paper_eb_mae_pts", paper.1.mae_pts),
    ];
    let values = values.iter().map(|&(n, v)| (n.to_owned(), v)).collect();
    Ok((values, paper))
}

/// The scorecard's error against the paper, with its cell counts and
/// its sign.
fn paper_lines((hit, eb): PaperErrors) -> Vec<String> {
    [("paper_hit", hit), ("paper_eb", eb)]
        .into_iter()
        .map(|(name, error)| {
            if error.cells == 0 {
                format!("# {name}: 0 cells (the workload runs no scorecard)")
            } else {
                format!(
                    "# {name}: {} cells, mean |measured - paper| {:.4} points, \
                     mean signed error {:+.4} points",
                    error.cells, error.mae_pts, error.bias_pts
                )
            }
        })
        .collect()
}

/// The median of `values` (the mean of the middle two for an even
/// count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
