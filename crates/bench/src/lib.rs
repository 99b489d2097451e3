//! Shared plumbing for the self-timed bench targets.
//!
//! Each `[[bench]]` target has `harness = false` and times one layer of
//! the simulator: `micro` the components, `record_replay` the
//! record-once/replay-many engine, and `recording`, `replay` and `model`
//! a rebuilt path against a frozen reference; with
//! `STREAMSIM_BENCH_WRITE=1` those three write the tracked `BENCH_*.json`
//! artifacts the perf ledger reads. This crate holds their
//! [`timing`] harness and the flat `streamsim-bench-v2` row builders.
//!
//! The paper's tables and figures are regenerated by the report binary,
//! not by a bench: `streamsim-report [--quick] [--sampling]
//! [--prescreen] EXPERIMENT`.

pub mod timing;

/// Builds the shared `streamsim-bench-v2` summary row every tracked
/// `BENCH_*.json` artifact leads with (see `streamsim_obs::BENCH_SCHEMA`
/// and the ledger docs). The row is flat JSONL: header keys first
/// (`run_config` is the [`streamsim_obs::fingerprint64`] of
/// `config_text`, `run_steps` the wall-clock-free work count), then the
/// benchmark's numeric metrics in the given order.
pub fn bench_summary_line(
    benchmark: &str,
    scale: &str,
    samples: u32,
    config_text: &str,
    run_steps: u64,
    work_unit: &str,
    metrics: &[(&str, f64)],
) -> String {
    use streamsim_obs::{fingerprint64, json_escape, BENCH_SCHEMA};
    let mut line = format!(
        "{{\"schema\":{},\"table\":\"summary\",\"benchmark\":{},\"scale\":{},\
         \"samples\":{samples},\"run_config\":\"{:016x}\",\"run_steps\":{run_steps},\
         \"work_unit\":{}",
        json_escape(BENCH_SCHEMA),
        json_escape(benchmark),
        json_escape(scale),
        fingerprint64(config_text),
        json_escape(work_unit),
    );
    for (key, value) in metrics {
        line.push_str(&format!(",{}:{value}", streamsim_obs::json_escape(key)));
    }
    line.push('}');
    line
}

/// A flat `streamsim-bench-v2` detail row (`table` names the row kind,
/// e.g. `workload` / `family` / `cell`); `fields` are pre-rendered
/// `"key":value` fragments.
pub fn bench_detail_line(benchmark: &str, table: &str, fields: &str) -> String {
    use streamsim_obs::{json_escape, BENCH_SCHEMA};
    format!(
        "{{\"schema\":{},\"table\":{},\"benchmark\":{},{fields}}}",
        json_escape(BENCH_SCHEMA),
        json_escape(table),
        json_escape(benchmark),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_is_flat_and_schema_tagged() {
        let line = bench_summary_line(
            "recording",
            "quick",
            9,
            "cfg",
            3_514_559,
            "refs",
            &[("speedup", 1.488), ("reference_ns", 60269845.0)],
        );
        assert!(line.starts_with("{\"schema\":\"streamsim-bench-v2\",\"table\":\"summary\""));
        assert!(line.contains("\"benchmark\":\"recording\""), "{line}");
        assert!(line.contains("\"run_steps\":3514559"), "{line}");
        assert!(line.contains("\"speedup\":1.488"), "{line}");
        assert!(!line.contains('\n'), "one flat line: {line}");
        let detail = bench_detail_line("recording", "workload", "\"name\":\"embar\",\"refs\":7");
        assert!(detail.contains("\"table\":\"workload\""), "{detail}");
        assert!(detail.ends_with("\"refs\":7}"), "{detail}");
    }
}
