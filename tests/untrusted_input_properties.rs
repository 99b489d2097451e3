//! Arbitrary-input properties for the parsers that read text from
//! outside the process: the flat JSON reader behind `--diff`,
//! `--ledger` and `--trace-check` ([`parse_flat_json_line`]), and the
//! fault-plan DSL ([`FaultPlan::parse`]). Each must answer `Ok` or `Err`
//! for any input and never panic; the harness turns a panic into a
//! failure with a `STREAMSIM_QC_SEED` replay line (see
//! `streamsim_prng::quickcheck`).
//!
//! Inputs are drawn three ways: arbitrary bytes (made UTF-8 lossily),
//! strings over the grammar's own alphabet, and valid inputs with a few
//! random edits, which reach the parsers' deeper states.

use streamsim::parse_flat_json_line;
use streamsim_dst::FaultPlan;
use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

/// Characters the JSON reader treats specially, plus a few it must
/// pass through or refuse (a raw tab, multi-byte text).
const JSON_ALPHABET: [&str; 31] = [
    "{", "}", "\"", ":", ",", "\\", "u", "d", "8", "0", "a", "f", "e", "E", "+", "-", ".", "1",
    "9", "t", "r", "n", "l", "s", " ", "\t", "\n", "é", "≤", "😀", "\u{1}",
];

/// Valid lines to mutate: every value kind, every escape.
const JSON_SEEDS: [&str; 3] = [
    r#"{"artifact":"demo","table":"t","bench":"mgrid","hit_pct":77.95831,"n":-1.5e3}"#,
    r#"{"s":"he said \"hi\\there\"\n\t\u0001","b":true,"f":false,"z":null}"#,
    r#"{"e":"😀é café ≤ 3","/":"\/"}"#,
];

/// Fragments of the fault-plan grammar, valid and not.
const PLAN_ALPHABET: [&str; 16] = [
    "panic@",
    "slow:",
    "starve:",
    "sink-fail@",
    ",",
    " ",
    "none",
    "0",
    "7",
    "42",
    "-1",
    "x",
    "@",
    ":",
    "18446744073709551616",
    "é",
];

const PLAN_SEEDS: [&str; 3] = ["panic@7,slow:2,starve:0,sink-fail@3", "none", ""];

fn arbitrary_bytes(g: &mut Gen) -> String {
    let bytes = g.vec(0usize..64, |g| g.gen_range(0u32..256) as u8);
    String::from_utf8_lossy(&bytes).into_owned()
}

fn from_alphabet(g: &mut Gen, alphabet: &[&str]) -> String {
    g.vec(0usize..40, |g| g.pick(alphabet)).concat()
}

/// `seed` with one to four random edits: insert or replace a piece of
/// `alphabet`, delete a character, or truncate.
fn mutated(g: &mut Gen, seed: &str, alphabet: &[&str]) -> String {
    let mut chars: Vec<String> = seed.chars().map(String::from).collect();
    for _ in 0..g.gen_range(1usize..5) {
        let at = g.gen_range(0..=chars.len());
        match g.gen_range(0u32..4) {
            0 => chars.insert(at, g.pick(alphabet).to_owned()),
            1 if at < chars.len() => chars[at] = g.pick(alphabet).to_owned(),
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.truncate(at),
        }
    }
    chars.concat()
}

fn arbitrary_input(g: &mut Gen, alphabet: &[&str], seeds: &[&str]) -> String {
    match g.gen_range(0u32..3) {
        0 => arbitrary_bytes(g),
        1 => from_alphabet(g, alphabet),
        _ => {
            let seed = g.pick(seeds);
            mutated(g, seed, alphabet)
        }
    }
}

/// The JSON reader never panics, and never accepts a line holding a raw
/// U+0001: outside a string it is not JSON, inside one it is a control
/// byte strict JSON forbids.
#[test]
fn flat_json_reader_never_panics() {
    check_with("flat_json_reader_never_panics", 2048, |g| {
        let line = arbitrary_input(g, &JSON_ALPHABET, &JSON_SEEDS);
        if parse_flat_json_line(&line).is_ok() {
            assert!(!line.contains('\u{1}'), "{line:?}");
        }
    });
}

/// The fault-plan parser never panics, and a plan it accepts prints
/// back to text that parses to the same plan.
#[test]
fn fault_plan_parser_never_panics() {
    check_with("fault_plan_parser_never_panics", 2048, |g| {
        let text = arbitrary_input(g, &PLAN_ALPHABET, &PLAN_SEEDS);
        if let Ok(plan) = FaultPlan::parse(&text) {
            assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan), "{text:?}");
        }
    });
}

/// The seeds themselves parse, so the mutation arm starts from inputs
/// that reach every branch of both grammars.
#[test]
fn unmutated_seeds_parse() {
    for line in JSON_SEEDS {
        assert!(parse_flat_json_line(line).is_ok(), "{line}");
    }
    for text in PLAN_SEEDS {
        assert!(FaultPlan::parse(text).is_ok(), "{text}");
    }
}
