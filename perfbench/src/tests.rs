//! Self-tests: no gate of the benchmark passes vacuously, and the
//! metric names agree with `BENCHMARK.json` and the layer map.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the oracle and traced-run tests simulate quick-scale kernels.

use std::collections::BTreeSet;

use streamsim_core::experiments::Scale;

use crate::check::{self, check_outputs, Tally};
use crate::layers;
use crate::workload::{run_iteration, Spec, WORKLOADS};
use crate::END_TO_END;

/// A quick-scale spec running `artifacts` (prefilling the fifteen quick
/// benchmarks).
fn quick(artifacts: Vec<&'static str>) -> Spec {
    let mut spec = Spec::named("sweep-prescreen").expect("known workload");
    spec.scale = Scale::Quick;
    spec.prescreen = false;
    spec.artifacts = artifacts;
    spec
}

#[test]
fn an_unknown_artifact_fails_its_operation() {
    let iteration = run_iteration(&quick(vec!["table2", "no-such-artifact"]), 2, false);
    let mut tally = Tally::default();
    check_outputs("test", &iteration.outputs, None, &mut tally);
    assert_eq!(
        (tally.attempted, tally.failed),
        (2, 1),
        "{:?}",
        tally.failures
    );
    assert!(tally.failed_frac() > 0.0);
    assert!(tally.failures[0].contains("unknown artifact"));
}

#[test]
fn a_nondeterministic_row_fails_its_operation() {
    let iteration = run_iteration(&quick(vec!["table2"]), 2, false);
    let mut tally = Tally::default();
    let first = check_outputs("test", &iteration.outputs, None, &mut tally);
    check_outputs("test", &iteration.outputs, Some(&first), &mut tally);
    assert_eq!(tally.failed, 0, "identical rows pass: {:?}", tally.failures);

    let mut drifted = iteration.outputs.clone();
    let rendered = drifted[0].result.as_mut().expect("table2 runs");
    let row = rendered
        .json
        .iter_mut()
        .find(|l| l.contains("\"bench\":\"cgm\""))
        .expect("table2 has a cgm row");
    *row = row.replacen("\"bench\":\"cgm\"", "\"bench\":\"cgm-drifted\"", 1);
    check_outputs("test", &drifted, Some(&first), &mut tally);
    assert_eq!(tally.failed, 1);
    assert!(tally.failed_frac() > 0.0);
    assert!(tally.failures[0].contains("changed from the first iteration"));
}

#[test]
fn out_of_range_values_fail() {
    assert!(check::check_value("hit_pct", 42.0).is_ok());
    assert!(check::check_value("eb_pct", 154.0).is_ok());
    assert!(check::check_value("hit_pct", 100.5).is_err());
    assert!(check::check_value("eb_pct", -1.0).is_err());
    assert!(check::check_value("size_mb", f64::NAN).is_err());
    let rows = vec![r#"{"artifact":"t","table":"x","hit_pct":null}"#.to_owned()];
    assert!(
        check::comparable_rows(&rows).is_err(),
        "a null number fails"
    );
}

#[test]
fn the_oracle_passes_and_an_injected_mismatch_fails() {
    let mut clean = Tally::default();
    check::oracle(7, check::reference_streams, check::reference_l2, &mut clean);
    assert!(clean.attempted >= 6 * 42, "{} cells", clean.attempted);
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);

    let mut injected = Tally::default();
    check::oracle(
        7,
        |trace, configs| {
            let mut stats = check::reference_streams(trace, configs);
            stats[0] = Default::default();
            stats
        },
        check::reference_l2,
        &mut injected,
    );
    assert_eq!(injected.attempted, clean.attempted);
    assert!(injected.failed > 0 && injected.failed_frac() > 0.0);
}

#[test]
fn the_seed_changes_the_oracle_inputs() {
    let (a, ra) = check::seeded_inputs(1);
    let (b, rb) = check::seeded_inputs(2);
    assert_eq!(a.len(), 6);
    assert_ne!(format!("{ra:?}"), format!("{rb:?}"));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name(), y.name());
        assert_ne!(x.fingerprint(), y.fingerprint());
    }
}

#[test]
fn the_traced_run_measures_every_catalog_metric() {
    let mut tally = Tally::default();
    let (values, (hit, eb)) =
        layers::measure(&quick(vec!["table2", "scorecard"]), 2, &mut tally).expect("measured");
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    let measured: BTreeSet<&str> = values.keys().map(String::as_str).collect();
    let expected: BTreeSet<String> = layers::catalog()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name != "failed_frac")
        .collect();
    let expected: BTreeSet<&str> = expected.iter().map(String::as_str).collect();
    assert_eq!(measured, expected);
    assert!(values.values().all(|v| v.is_finite()));
    assert!(values["replay.l2_deliveries"] > 0.0);
    assert!(values["experiments.scorecard_s"] > 0.0);
    let eff = values["runner.parallel_eff"];
    assert!(eff > 0.0 && eff <= 1.05, "parallel efficiency {eff}");
    assert_eq!(values["experiments.table4_s"], 0.0);
    assert_eq!(values["paper_hit_cells"], 45.0);
    assert_eq!(values["paper_eb_cells"], 15.0);
    assert!(hit.mae_pts > 0.0 && hit.mae_pts >= hit.bias_pts.abs());
    assert!(eb.mae_pts > 0.0 && eb.mae_pts >= eb.bias_pts.abs());
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_and_workload_name_is_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(layers::catalog().into_iter().map(|(n, _)| n))
        .chain(WORKLOADS.iter().map(|w| w.to_string()));
    for name in names {
        assert!(valid_name(&name), "{name}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
    }
    assert!(!valid_name("wall s") && !valid_name(".x") && !valid_name("a/b"));
}

/// A parsed JSON value (enough of JSON for `BENCHMARK.json` and the
/// layer map).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing text after the JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key '{key}'")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            other => panic!("not a list: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&byte),
            "at byte {}",
            self.pos
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.bytes.get(self.pos).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Object(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::List(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len() && !b",]} \n\t\r".contains(&self.bytes[self.pos])
                {
                    self.pos += 1;
                }
                match std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad literal {n}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.bytes[self.pos];
            self.pos += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let escaped = self.bytes[self.pos];
                    self.pos += 1;
                    out.push(match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }
}

fn read_json(relative: &str) -> Json {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text)
}

fn names_and_units(metrics: &Json) -> Vec<(String, String)> {
    metrics
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_benchmark_prints() {
    let bench = read_json("../BENCHMARK.json");
    assert_eq!(
        bench.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = bench
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(bench.get("end_to_end")), e2e);
    let layer: Vec<(String, String)> = layers::catalog()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(names_and_units(bench.get("per_layer")), layer);
    for m in bench.get("end_to_end").list() {
        assert!(matches!(m.get("bound"), Json::Num(b) if *b > 0.0 && *b <= 0.25));
    }
}

#[test]
fn every_layer_map_entry_names_a_per_layer_metric_an_end_to_end_metric_and_a_workload() {
    let bench = read_json("../BENCHMARK.json");
    let listed = |section: &str| -> BTreeSet<String> {
        bench
            .get(section)
            .list()
            .iter()
            .map(|m| m.get("name").str().to_owned())
            .collect()
    };
    let (per_layer, end_to_end, workloads) = (
        listed("per_layer"),
        listed("end_to_end"),
        listed("workloads"),
    );
    let map = read_json("layers.json");
    let entries = map.get("predictions").list();
    assert!(!entries.is_empty());
    for entry in entries {
        let layer = entry.get("layer_metric").str();
        let moves = entry.get("end_to_end").str();
        let workload = entry.get("workload").str();
        assert!(
            per_layer.contains(layer),
            "{layer} is not a per_layer metric"
        );
        assert!(
            end_to_end.contains(moves),
            "{moves} is not an end_to_end metric"
        );
        assert!(workloads.contains(workload), "{workload} is not a workload");
        assert!(
            matches!(entry.get("effect").str(), "moves" | "flat"),
            "{entry:?}"
        );
    }
}
