//! Every rule must fire on a seeded violation and fall silent under a
//! reasoned suppression — exercised both on inline snippets and on the
//! on-disk fixture trees the CI smoke points the binary at.

use std::path::Path;

use streamsim_lint::{check_manifest, check_rust_source, lint_tree, Level, LintConfig, RULES};

fn config() -> LintConfig {
    LintConfig::default()
}

/// Deny rule names from linting `source` at a library path.
fn denies(source: &str) -> Vec<String> {
    denies_at("crates/core/src/probe.rs", source)
}

fn denies_at(path: &str, source: &str) -> Vec<String> {
    check_rust_source(path, source, &config())
        .into_iter()
        .filter(|f| f.level == Level::Deny)
        .map(|f| f.rule.to_owned())
        .collect()
}

/// Asserts `source` trips exactly `rule`, and that prefixing the
/// violating line with a reasoned suppression clears it while leaving an
/// allow record behind.
fn fires_and_suppresses(rule: &str, source: &str) {
    let fired = denies(source);
    assert_eq!(fired, vec![rule.to_owned()], "seed for {rule}: {source:?}");

    // Insert the annotation directly above the (single) violating line.
    let violating_line = check_rust_source("crates/core/src/probe.rs", source, &config())
        .into_iter()
        .find(|f| f.level == Level::Deny)
        .map(|f| f.line as usize)
        .unwrap();
    let mut lines: Vec<&str> = source.lines().collect();
    let annotation = format!("// lint:allow({rule}, seeded fixture justification)");
    lines.insert(violating_line - 1, &annotation);
    let suppressed = lines.join("\n");

    let findings = check_rust_source("crates/core/src/probe.rs", &suppressed, &config());
    assert!(
        findings.iter().all(|f| f.level == Level::Allow),
        "suppression for {rule} left denies: {findings:?}"
    );
    let allow = findings
        .iter()
        .find(|f| f.level == Level::Allow)
        .expect("suppression recorded");
    assert_eq!(allow.rule, rule);
    assert_eq!(allow.reason, "seeded fixture justification");
}

#[test]
fn no_hash_collections_fires_and_suppresses() {
    fires_and_suppresses("no-hash-collections", "use std::collections::HashMap;\n");
    fires_and_suppresses(
        "no-hash-collections",
        "pub fn f() { let _s: std::collections::HashSet<u8> = Default::default(); }\n",
    );
}

/// Lines of the no-hash-collections denies for `source`.
fn hash_deny_lines(source: &str) -> Vec<u32> {
    check_rust_source("crates/core/src/probe.rs", source, &config())
        .into_iter()
        .filter(|f| f.level == Level::Deny)
        .map(|f| {
            assert_eq!(f.rule, "no-hash-collections", "{f}");
            f.line
        })
        .collect()
}

#[test]
fn hash_aliases_are_tracked_through_use_as() {
    // The declaration fires once (on the HashSet ident); each use of
    // the alias fires on its own line — a single suppression on the
    // `use` cannot launder the whole file.
    let source = "use std::collections::HashSet as FastSet;\n\
                  pub fn f() { let _s: FastSet<u8> = FastSet::default(); }\n";
    assert_eq!(
        hash_deny_lines(source),
        vec![1, 2, 2],
        "decl once, each alias use once"
    );
}

#[test]
fn hash_aliases_are_tracked_through_type_aliases() {
    let source = "type Lookup = std::collections::HashMap<u32, u32>;\n\
                  pub fn f() -> Lookup { Lookup::new() }\n";
    assert_eq!(
        hash_deny_lines(source),
        vec![1, 2, 2],
        "decl once, each alias use once"
    );
    // The item-level parser does not look inside fn bodies; the token
    // tracker is what catches a function-local alias and its uses.
    let fn_local = "pub fn f() {\n\
                    \x20   type M = std::collections::HashMap<u32, u32>;\n\
                    \x20   let _m = M::new();\n\
                    }\n";
    assert_eq!(hash_deny_lines(fn_local), vec![2, 3]);
}

#[test]
fn hash_aliases_are_tracked_through_re_exports() {
    // A `pub use … as` re-export is still a declaration; uses of the
    // re-exported name in the same file are flagged.
    let source = "pub use std::collections::HashMap as Map;\n\
                  pub fn f() { let _m: Map<u8, u8> = Map::new(); }\n";
    assert_eq!(
        hash_deny_lines(source),
        vec![1, 2, 2],
        "re-export decl + two uses"
    );
    // Through an inline module the resolver also binds `inner::Fast`;
    // the token tracker already owns every `Fast` ident, so each line
    // fires once.
    let inline_mod = "mod inner {\n\
                      \x20   pub use std::collections::HashMap as Fast;\n\
                      }\n\
                      use inner::Fast;\n\
                      pub fn f() { let _m: Fast<u8, u8> = Default::default(); }\n";
    assert_eq!(hash_deny_lines(inline_mod), vec![2, 4, 5]);
}

#[test]
fn no_wall_clock_fires_and_suppresses() {
    fires_and_suppresses(
        "no-wall-clock",
        "pub fn f() { let _t = std::time::Instant::now(); }\n",
    );
    fires_and_suppresses(
        "no-wall-clock",
        "pub fn f() { let _t = std::time::SystemTime::now(); }\n",
    );
    fires_and_suppresses(
        "no-wall-clock",
        "pub fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    );
}

#[test]
fn no_env_read_fires_and_suppresses() {
    fires_and_suppresses(
        "no-env-read",
        "pub fn f() -> Option<String> { std::env::var(\"X\").ok() }\n",
    );
}

#[test]
fn no_external_include_fires_and_suppresses() {
    fires_and_suppresses(
        "no-external-include",
        "pub const DATA: &str = include_str!(\"../../secret.txt\");\n",
    );
    // In-crate includes are fine.
    assert!(denies("pub const DATA: &str = include_str!(\"data.txt\");\n").is_empty());
}

#[test]
fn safety_comment_fires_and_suppresses() {
    fires_and_suppresses("safety-comment", "pub unsafe fn f() {}\n");
    // A SAFETY: justification on the preceding lines satisfies the rule.
    assert!(
        denies("// SAFETY: fixture invariant holds by construction\npub unsafe fn f() {}\n")
            .is_empty()
    );
}

#[test]
fn ordering_seqcst_fires_and_suppresses() {
    fires_and_suppresses(
        "ordering-seqcst",
        "pub fn f(a: &std::sync::atomic::AtomicBool) { a.store(true, std::sync::atomic::Ordering::SeqCst); }\n",
    );
    assert!(denies(
        "// ORDERING: the flag gates a full-fence handshake in the fixture\npub fn f(a: &std::sync::atomic::AtomicBool) { a.store(true, std::sync::atomic::Ordering::SeqCst); }\n"
    )
    .is_empty());
}

#[test]
fn no_unwrap_hot_fires_only_in_hot_modules() {
    let source = "pub fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    let hot = LintConfig {
        hot_modules: vec!["crates/cache/src/cache.rs".into()],
        ..LintConfig::default()
    };
    let denies_with = |path: &str, src: &str| -> Vec<String> {
        check_rust_source(path, src, &hot)
            .into_iter()
            .filter(|f| f.level == Level::Deny)
            .map(|f| f.rule.to_owned())
            .collect()
    };
    assert_eq!(
        denies_with("crates/cache/src/cache.rs", source),
        vec!["no-unwrap-hot".to_owned()]
    );
    // The same code outside the hot list is quiet.
    assert!(denies_with("crates/core/src/probe.rs", source).is_empty());

    // A marker comment in the source puts a file on the hot list at
    // whatever path — that is how the scan-derived list works.
    let marked = format!("// lint:hot-module — fixture\n{source}");
    assert_eq!(
        denies_at("crates/core/src/probe.rs", &marked),
        Vec::<String>::new(),
        "check_rust_source alone does not scan markers; the engine does"
    );
}

/// The hot-module list is derived from `lint:hot-module` markers in the
/// actual crate tree — this pins the scan against the workspace so a
/// marker added or dropped anywhere shows up here.
#[test]
fn hot_module_scan_matches_the_crate_tree() {
    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let scanned = streamsim_lint::scan_hot_modules(&workspace_root, true).unwrap();
    assert_eq!(
        scanned,
        vec![
            "crates/cache/src/cache.rs".to_owned(),
            "crates/cache/src/stack_grid.rs".to_owned(),
            "crates/core/src/replay.rs".to_owned(),
            "crates/obs/src/hist.rs".to_owned(),
            "crates/streams/src/buffer.rs".to_owned(),
            "crates/streams/src/czone.rs".to_owned(),
            "crates/streams/src/scan.rs".to_owned(),
            "crates/streams/src/system.rs".to_owned(),
            "crates/streams/src/unit_filter.rs".to_owned(),
        ],
        "hot-module markers moved; update this pin alongside the markers"
    );
    // lint_tree applies the same scan and records it on the report.
    let report = lint_tree(&workspace_root, true, &config()).unwrap();
    assert_eq!(report.hot_modules, scanned);
}

#[test]
fn no_debug_print_fires_and_suppresses() {
    fires_and_suppresses("no-debug-print", "pub fn f() { println!(\"x\"); }\n");
    fires_and_suppresses("no-debug-print", "pub fn f(v: u8) { dbg!(v); }\n");
    // Binaries may print.
    assert!(denies_at(
        "src/bin/streamsim-report.rs",
        "pub fn f() { println!(\"x\"); }\n"
    )
    .is_empty());
}

#[test]
fn todo_tag_fires_and_suppresses() {
    fires_and_suppresses("todo-tag", "// TODO finish this later\npub fn f() {}\n");
    // A tagged marker is fine.
    assert!(denies("// TODO(#42): finish this later\npub fn f() {}\n").is_empty());
}

#[test]
fn hermetic_deps_fires_and_suppresses_in_manifests() {
    let bad = "[dependencies]\nrand = \"0.8\"\n";
    let fired: Vec<&str> = check_manifest("crates/x/Cargo.toml", bad)
        .iter()
        .filter(|f| f.level == Level::Deny)
        .map(|f| f.rule)
        .collect();
    assert_eq!(fired, vec!["hermetic-deps"]);

    let ok =
        "[dependencies]\nstreamsim-core = { path = \"../core\" }\nstreamsim-obs.workspace = true\n";
    assert!(check_manifest("crates/x/Cargo.toml", ok)
        .iter()
        .all(|f| f.level == Level::Allow));

    let suppressed = format!("# lint:allow(hermetic-deps, fixture reason)\n{bad}");
    let findings = check_manifest("crates/x/Cargo.toml", &suppressed);
    assert!(findings.iter().all(|f| f.level == Level::Allow));
    assert_eq!(findings.len(), 1);
}

#[test]
fn git_dependencies_are_rejected_even_with_path() {
    let sneaky = "[dependencies]\nx = { git = \"https://example.com/x\", path = \"vendor/x\" }\n";
    let fired: Vec<&str> = check_manifest("crates/x/Cargo.toml", sneaky)
        .iter()
        .filter(|f| f.level == Level::Deny)
        .map(|f| f.rule)
        .collect();
    assert_eq!(fired, vec!["hermetic-deps"]);
}

#[test]
fn no_build_script_fires_in_manifest_and_file() {
    let manifest = "[package]\nname = \"x\"\nbuild = \"build.rs\"\n";
    let fired: Vec<&str> = check_manifest("crates/x/Cargo.toml", manifest)
        .iter()
        .filter(|f| f.level == Level::Deny)
        .map(|f| f.rule)
        .collect();
    assert_eq!(fired, vec!["no-build-script"]);
    assert_eq!(
        denies_at("crates/x/build.rs", "fn main() {}\n"),
        vec!["no-build-script".to_owned()]
    );
}

#[test]
fn cfg_test_modules_are_masked_for_scaffolding_rules() {
    let source =
        "#[cfg(test)]\nmod tests {\n    pub fn t() { let _ = std::time::Instant::now(); }\n}\n";
    assert!(
        denies(source).is_empty(),
        "cfg(test) clock read must not fire"
    );
    // Determinism rules still apply inside test modules.
    let hashy = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert_eq!(denies(hashy), vec!["no-hash-collections".to_owned()]);
}

#[test]
fn suppression_scope_ends_after_the_next_code_line() {
    let source = "// lint:allow(no-hash-collections, covers only the next line)\n\
                  use std::collections::HashMap;\n\
                  use std::collections::HashSet;\n";
    let fired = denies(source);
    assert_eq!(
        fired,
        vec!["no-hash-collections".to_owned()],
        "the second use is past the suppression's scope"
    );

    // A block comment is one annotation, read once at its own line,
    // however many lines the comment spans.
    let block = "/* Block-comment annotation: it covers the\n\
                 next code line only, however many lines\n\
                 the comment itself spans, so the two\n\
                 HashSet lines below must still fire.\n\
                 lint:allow(no-hash-collections, covers only line 6) */\n\
                 use std::collections::HashMap;\n\
                 pub fn between() {}\n\
                 pub type A = std::collections::HashSet<u8>;\n\
                 pub type B = std::collections::HashSet<u16>;\n";
    let findings = check_rust_source("crates/core/src/probe.rs", block, &config());
    let by_level = |level: Level| -> Vec<(u32, &str)> {
        findings
            .iter()
            .filter(|f| f.level == level)
            .map(|f| (f.line, f.rule))
            .collect()
    };
    assert_eq!(
        by_level(Level::Allow),
        vec![(5, "no-hash-collections")],
        "exactly one allow record: {findings:?}"
    );
    assert_eq!(
        by_level(Level::Deny),
        vec![(8, "no-hash-collections"), (9, "no-hash-collections")],
        "{findings:?}"
    );
    assert!(by_level(Level::Warn).is_empty(), "{findings:?}");

    let reasonless = "/* first\n\
                      second\n\
                      lint:allow(no-hash-collections) */\n\
                      use std::collections::HashMap;\n";
    let findings = check_rust_source("crates/core/src/probe.rs", reasonless, &config());
    let fired: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        fired,
        vec![
            (3, "suppression-missing-reason"),
            (4, "no-hash-collections")
        ],
        "one meta-rule deny per annotation"
    );
}

#[test]
fn meta_rules_flag_malformed_suppressions() {
    let missing = "// lint:allow(no-hash-collections)\nuse std::collections::HashMap;\n";
    let fired = denies(missing);
    assert!(
        fired.contains(&"suppression-missing-reason".to_owned()),
        "{fired:?}"
    );
    assert!(
        fired.contains(&"no-hash-collections".to_owned()),
        "{fired:?}"
    );

    let unknown = "// lint:allow(no-such-rule, reason text)\npub fn f() {}\n";
    assert_eq!(denies(unknown), vec!["suppression-unknown-rule".to_owned()]);

    let empty =
        "// lint:allow(no-wall-clock, )\npub fn f() { let _ = std::time::Instant::now(); }\n";
    let fired = denies(empty);
    assert!(
        fired.contains(&"suppression-missing-reason".to_owned()),
        "{fired:?}"
    );
}

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violating_fixture_trips_every_rule() {
    let report = lint_tree(&fixture("violating"), true, &config()).unwrap();
    let mut by_rule: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &report.findings {
        if f.level == Level::Allow {
            // The one annotation is the block-comment scope seed.
            assert_eq!((f.file.as_str(), f.line), ("src/lib.rs", 57), "{f}");
            continue;
        }
        assert_eq!(f.level, Level::Deny, "{f}");
        *by_rule.entry(f.rule).or_insert(0) += 1;
    }
    assert_eq!(
        report.allow_count(),
        1,
        "only the block-comment seed is suppressed"
    );
    for rule in RULES {
        assert!(
            by_rule.contains_key(rule),
            "rule {rule} never fired on the violating fixture; fired: {by_rule:?}"
        );
    }
    assert_eq!(
        by_rule["no-hash-collections"], 13,
        "3 direct idents + 2 alias declarations + 2 alias uses + the ident \
         two code lines below a block-comment allow (lib.rs), \
         1 decl ident (a.rs), cross-file decl + use (b.rs), \
         re-export decl + use (c.rs)"
    );
    assert_eq!(by_rule["no-wall-clock"], 4, "3 in lib.rs + taint seed");
    assert_eq!(by_rule["hermetic-deps"], 3);
    assert_eq!(by_rule["determinism-taint"], 1);
    assert_eq!(by_rule["executor-seam"], 1);
    assert_eq!(by_rule["hot-gate-ordering"], 1);
    assert_eq!(
        by_rule["no-build-script"], 2,
        "manifest key + build.rs file"
    );
    assert_eq!(
        by_rule["no-unwrap-hot"], 1,
        "hot-module path matched in the fixture tree"
    );
    assert_eq!(report.deny_count() + 1, report.findings.len());
}

#[test]
fn suppressed_fixture_is_clean_with_reasons() {
    let report = lint_tree(&fixture("suppressed"), true, &config()).unwrap();
    assert_eq!(report.deny_count(), 0, "findings: {:?}", report.findings);
    assert!(report.allow_count() >= 6, "every annotation is recorded");
    for f in &report.findings {
        assert_eq!(f.level, Level::Allow);
        assert!(!f.reason.is_empty(), "allow without a reason: {f}");
    }
}

#[test]
fn default_mode_skips_member_crates() {
    // Root-only mode must not reach crates/cache inside the fixture, so
    // the hot-module unwrap disappears while the root findings remain.
    let workspace = lint_tree(&fixture("violating"), true, &config()).unwrap();
    let root_only = lint_tree(&fixture("violating"), false, &config()).unwrap();
    assert!(workspace.findings.iter().any(|f| f.rule == "no-unwrap-hot"));
    assert!(root_only.findings.iter().all(|f| f.rule != "no-unwrap-hot"));
    assert!(root_only.files_scanned < workspace.files_scanned);
}

#[test]
fn json_lines_are_flat_and_ordered() {
    let report = lint_tree(&fixture("violating"), true, &config()).unwrap();
    let lines = report.json_lines();
    assert_eq!(lines.len(), report.findings.len() + 1, "findings + summary");
    for line in &lines {
        assert!(line.starts_with("{\"artifact\":\"lint\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'));
    }
    let summary = lines.last().unwrap();
    assert!(summary.contains("\"table\":\"summary\""), "{summary}");
    // Deterministic ordering: a second walk produces identical output.
    let again = lint_tree(&fixture("violating"), true, &config()).unwrap();
    assert_eq!(lines, again.json_lines());
}
