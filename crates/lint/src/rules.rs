//! The rule catalog and its engine.
//!
//! Every rule is a mechanical predicate over the token stream of one
//! file (or, for the hermeticity rules, over one `Cargo.toml`). The
//! catalog enforces the workspace's prose contracts:
//!
//! * **Determinism** — `no-hash-collections` (randomized iteration
//!   order has no place in simulation state or report plumbing; the
//!   rule also tracks in-file `use … as` and `type … =` aliases, so
//!   every use of the alias is flagged on its own line),
//!   `no-wall-clock` (the monotonic/wall clock belongs to
//!   `streamsim-obs` and the timing harness only), `no-env-read`
//!   (environment is configuration; it enters through sanctioned
//!   entry points, never ad hoc).
//! * **Hermeticity** — `hermetic-deps` (manifests may only name
//!   workspace path crates), `no-build-script`, `no-external-include`.
//! * **Safety** — `safety-comment` (every `unsafe` carries a
//!   `SAFETY:` justification), `ordering-seqcst` (a `SeqCst` ordering
//!   carries an `ORDERING:` justification), `no-unwrap-hot`
//!   (`.unwrap()`/`.expect(` in configured hot-loop modules carry a
//!   justification or disappear).
//! * **Hygiene** — `no-debug-print` (`dbg!`/`println!` outside the
//!   sanctioned output surfaces), `todo-tag` (to-do comments carry an
//!   issue tag, `TODO(#nnn): …` style).
//!
//! Since the static-analysis v2 rework the token rules are joined by
//! three **semantic** rule families computed over the parsed module
//! graph (see `parser`/`resolve`/`taint`): the determinism rules above
//! follow `use … as` / `type … =` / re-export chains across files
//! (cross-file alias resolution), `determinism-taint` tracks
//! nondeterministic values flowing into artifact sinks, and
//! `executor-seam` / `hot-gate-ordering` police the concurrency seams.
//! This module owns the token layer and the per-file merge: semantic
//! denies funnel through the same suppression machinery as token
//! denies.
//!
//! Findings are suppressed inline with a `lint:allow` comment naming
//! the rule and a mandatory reason; the suppression itself is recorded
//! as an `allow`-level finding so a report never hides one. Suppression
//! annotations with a missing reason or an unknown rule name are
//! violations in their own right (`suppression-missing-reason`,
//! `suppression-unknown-rule`), and a suppression whose rule no longer
//! fires on the covered span is a `dead-suppression` warning — the meta
//! rules are not suppressible.

use std::collections::BTreeMap;

use crate::config::LintConfig;
use crate::findings::Finding;
use crate::lexer::{lex, Token, TokenKind};
use crate::resolve::{BannedName, Resolver};

/// Every suppressible rule, in catalog order.
pub const RULES: &[&str] = &[
    "no-hash-collections",
    "no-wall-clock",
    "no-env-read",
    "hermetic-deps",
    "no-build-script",
    "no-external-include",
    "safety-comment",
    "ordering-seqcst",
    "no-unwrap-hot",
    "no-debug-print",
    "todo-tag",
    "determinism-taint",
    "executor-seam",
    "hot-gate-ordering",
];

/// One parsed `lint:allow` annotation.
#[derive(Clone, Debug)]
pub(crate) struct Suppression {
    pub(crate) rule: String,
    pub(crate) reason: String,
    pub(crate) line: u32,
    /// Last line the suppression covers (the next code line at or
    /// after the annotation).
    pub(crate) end_line: u32,
}

/// Per-line views of one lexed file.
struct FileView<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    /// Indices into `tokens` of code tokens (not whitespace/comments).
    code: Vec<usize>,
    /// Comment text per line (block comments register on every line
    /// they span).
    comments: BTreeMap<u32, Vec<String>>,
    /// Lines holding at least one code token.
    code_lines: Vec<u32>,
    /// Byte ranges covered by `#[cfg(test)] mod … { … }` bodies.
    test_mask: Vec<(usize, usize)>,
}

impl<'s> FileView<'s> {
    fn new(source: &'s str) -> Self {
        let tokens = lex(source);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut comments: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for t in &tokens {
            if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                let text = t.text(source);
                let lines_spanned = text.matches('\n').count() as u32;
                for line in t.line..=t.line + lines_spanned {
                    comments.entry(line).or_default().push(text.to_owned());
                }
            }
        }
        let mut code_lines: Vec<u32> = code.iter().map(|&i| tokens[i].line).collect();
        code_lines.dedup();
        let test_mask = test_module_ranges(source, &tokens, &code);
        FileView {
            source,
            tokens,
            code,
            comments,
            code_lines,
            test_mask,
        }
    }

    /// The code token at code-index `ci`.
    fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.source)
    }

    fn is_ident(&self, ci: usize, word: &str) -> bool {
        self.tok(ci).kind == TokenKind::Ident && self.text(ci) == word
    }

    fn is_punct(&self, ci: usize, p: &str) -> bool {
        self.tok(ci).kind == TokenKind::Punct && self.text(ci) == p
    }

    /// Whether the code token at `ci` sits inside a `#[cfg(test)]` mod.
    fn in_test_module(&self, ci: usize) -> bool {
        let at = self.tok(ci).start;
        self.test_mask.iter().any(|&(s, e)| s <= at && at < e)
    }

    /// First line at or after `line` holding code (for allow scoping).
    fn next_code_line(&self, line: u32) -> u32 {
        match self.code_lines.binary_search(&line) {
            Ok(_) => line,
            Err(i) => self.code_lines.get(i).copied().unwrap_or(line),
        }
    }

    /// Whether `needle` appears in a comment on `line` or in the
    /// contiguous run of comment-bearing lines directly above it.
    fn justified_by_comment(&self, line: u32, needle: &str) -> bool {
        let has = |l: u32| {
            self.comments
                .get(&l)
                .is_some_and(|cs| cs.iter().any(|c| c.contains(needle)))
        };
        if has(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.comments.contains_key(&l) {
            if has(l) {
                return true;
            }
            if l == 1 {
                break;
            }
            l -= 1;
        }
        false
    }
}

/// Byte ranges of `#[cfg(test)] mod name { … }` bodies, so scaffolding
/// rules skip unit-test code without a parser.
fn test_module_ranges(source: &str, tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let text = |ci: usize| tokens[code[ci]].text(source);
    let kind = |ci: usize| tokens[code[ci]].kind;
    let is = |ci: usize, t: &str| text(ci) == t;
    let mut ranges = Vec::new();
    let n = code.len();
    let mut i = 0;
    while i + 6 < n {
        let attr_start = tokens[code[i]].start;
        if is(i, "#")
            && is(i + 1, "[")
            && is(i + 2, "cfg")
            && is(i + 3, "(")
            && is(i + 4, "test")
            && is(i + 5, ")")
            && is(i + 6, "]")
        {
            // Skip any further attributes between the cfg and the item.
            let mut j = i + 7;
            while j + 1 < n && is(j, "#") && is(j + 1, "[") {
                let mut depth = 0i32;
                j += 1;
                while j < n {
                    if is(j, "[") {
                        depth += 1;
                    } else if is(j, "]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j < n && is(j, "mod") && kind(j + 1) == TokenKind::Ident {
                // Find the opening brace (a `mod name;` has none).
                let mut k = j + 2;
                if k < n && is(k, "{") {
                    let mut depth = 0i32;
                    while k < n {
                        if is(k, "{") {
                            depth += 1;
                        } else if is(k, "}") {
                            depth -= 1;
                            if depth == 0 {
                                ranges.push((attr_start, tokens[code[k]].end));
                                i = k;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
            }
        }
        i += 1;
    }
    ranges
}

/// Parses every `lint:allow` annotation in the file's comments,
/// recording well-formed ones and flagging malformed ones.
///
/// Each comment token is read once, from its start line: the per-line
/// `comments` map lists a block comment under every line it spans, so
/// reading annotations from it would repeat each one at later lines.
fn parse_suppressions(
    view: &FileView<'_>,
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in &view.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        for sup in suppressions_in_text(t.text(view.source), t.line, path, findings) {
            let end_line = view.next_code_line(sup.line);
            out.push(Suppression { end_line, ..sup });
        }
    }
    out
}

/// The `lint:allow` annotations inside one comment (or `#`-comment)
/// text. Malformed annotations append meta-rule violations instead.
fn suppressions_in_text(
    text: &str,
    line: u32,
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    const MARKER: &str = "lint:allow(";
    let mut out = Vec::new();
    let mut rest = text;
    let mut line = line;
    while let Some(at) = rest.find(MARKER) {
        line += rest[..at].matches('\n').count() as u32;
        let body_start = at + MARKER.len();
        let Some(close) = rest[body_start..].find(')') else {
            findings.push(Finding::deny(
                "suppression-missing-reason",
                path,
                line,
                "unclosed lint:allow annotation",
            ));
            break;
        };
        let body = &rest[body_start..body_start + close];
        match body.split_once(',') {
            Some((rule, reason)) => {
                let rule = rule.trim().to_owned();
                let reason = reason.trim().trim_matches('"').trim().to_owned();
                if reason.is_empty() {
                    findings.push(Finding::deny(
                        "suppression-missing-reason",
                        path,
                        line,
                        format!("lint:allow({rule}, …) has an empty reason"),
                    ));
                } else if !RULES.contains(&rule.as_str()) {
                    findings.push(Finding::deny(
                        "suppression-unknown-rule",
                        path,
                        line,
                        format!("lint:allow names unknown rule '{rule}'"),
                    ));
                } else {
                    out.push(Suppression {
                        rule,
                        reason,
                        line,
                        end_line: line,
                    });
                }
            }
            None => findings.push(Finding::deny(
                "suppression-missing-reason",
                path,
                line,
                format!(
                    "lint:allow({}) carries no reason — write lint:allow(rule, why)",
                    body.trim()
                ),
            )),
        }
        rest = &rest[body_start + close..];
    }
    out
}

/// Lints one Rust source file against the full catalog.
///
/// This is the single-file view of the analysis: the file roots its own
/// resolution scope, so in-file alias chains and taint flows are
/// checked, but imports from *other* files resolve only under
/// [`crate::engine::lint_tree`], which builds the workspace-wide module
/// graph.
pub fn check_rust_source(path: &str, source: &str, config: &LintConfig) -> Vec<Finding> {
    let mut asts = BTreeMap::new();
    asts.insert(path.to_owned(), crate::parser::parse(source));
    let resolver = Resolver::build(&[], &asts);
    let banned = resolver.banned_names(path);
    let mut extra = crate::taint::taint_findings(&resolver, config);
    extra.extend(crate::taint::seam_findings(&resolver, config));
    extra.extend(crate::taint::hot_gate_findings(&resolver));
    check_file_with_semantics(path, source, config, &banned, extra)
}

/// The full per-file pass: token rules plus the pre-computed semantic
/// inputs (resolved banned names for this file, and this file's share
/// of the workspace-wide taint/seam/hot-gate findings), all merged
/// through one suppression application.
pub(crate) fn check_file_with_semantics(
    path: &str,
    source: &str,
    config: &LintConfig,
    banned: &[BannedName],
    extra_denies: Vec<Finding>,
) -> Vec<Finding> {
    let view = FileView::new(source);
    let mut findings = Vec::new();
    let suppressions = parse_suppressions(&view, path, &mut findings);
    for sup in &suppressions {
        findings.push(Finding::allow(
            RULES
                .iter()
                .find(|r| **r == sup.rule)
                .copied()
                .unwrap_or("todo-tag"),
            path,
            sup.line,
            sup.reason.clone(),
        ));
    }

    let mut denies = Vec::new();
    if path == "build.rs" || path.ends_with("/build.rs") {
        denies.push(Finding::deny(
            "no-build-script",
            path,
            1,
            "build scripts are forbidden: the workspace builds hermetically from sources alone",
        ));
    }

    let aliases = if config.hash_applies(path) {
        hash_aliases(&view)
    } else {
        BTreeMap::new()
    };
    code_rules(&view, path, config, &aliases, &mut denies);
    comment_rules(&view, path, &mut denies);
    alias_findings(&view, path, config, banned, &aliases, &mut denies);
    denies.extend(extra_denies);

    // Apply suppressions: a deny whose rule has an allow covering its
    // line is dropped (the allow record above already reports it); a
    // suppression that drops nothing has rotted and is reported.
    let mut used = vec![false; suppressions.len()];
    denies.retain(|d| {
        let mut hit = false;
        for (i, s) in suppressions.iter().enumerate() {
            if s.rule == d.rule && (s.line..=s.end_line.max(s.line)).contains(&d.line) {
                used[i] = true;
                hit = true;
            }
        }
        !hit
    });
    for (sup, used) in suppressions.iter().zip(&used) {
        if !used {
            findings.push(Finding::warn(
                "dead-suppression",
                path,
                sup.line,
                format!(
                    "lint:allow({}, …) suppresses nothing — the rule no longer fires \
                     on the covered span; remove the annotation",
                    sup.rule
                ),
            ));
        }
    }
    findings.extend(denies);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// The cross-file alias arm of the determinism rules: every use of a
/// locally-bound name that resolves to a banned terminal is flagged,
/// with the resolution chain attached.
///
/// Division of labour with the token layer: a declaration that
/// literally spells the banned base ident (`use std::collections::
/// HashMap;`, `type L = HashMap<…>;`, `… as FastSet`) is the token
/// rules' business — they flag the declaration, and for hash
/// collections the in-file alias tracker flags the uses too. The
/// semantic arm fires where the token layer cannot see: names imported
/// from other files, and use-sites of in-file wall-clock/env aliases.
fn alias_findings(
    view: &FileView<'_>,
    path: &str,
    config: &LintConfig,
    banned: &[BannedName],
    aliases: &BTreeMap<String, HashAlias>,
    out: &mut Vec<Finding>,
) {
    for b in banned {
        let applies = match b.rule {
            "no-hash-collections" => config.hash_applies(path),
            "no-wall-clock" => config.wall_clock_applies(path),
            "no-env-read" => config.env_read_applies(path),
            _ => false,
        };
        if !applies {
            continue;
        }
        let base_idents: &[&str] = match b.rule {
            "no-hash-collections" => &["HashMap", "HashSet"],
            "no-wall-clock" => &["Instant", "SystemTime"],
            _ => &["env", "var", "var_os", "vars", "vars_os"],
        };
        let decl_spells_base = b
            .decl_segments
            .iter()
            .any(|s| base_idents.contains(&s.as_str()));
        // The token alias tracker already covers declaration *and* uses
        // of in-file hash aliases, including a name the resolver binds
        // again through an inline module (`use inner::Fast;` beside
        // `mod inner { pub use …HashMap as Fast; }`); re-flagging would
        // double-count.
        if b.rule == "no-hash-collections" && (decl_spells_base || aliases.contains_key(&b.name)) {
            continue;
        }
        // Lowercase std names (`var`…) are too collision-prone to match
        // by bare ident when the decl is token-visible anyway.
        if decl_spells_base && base_idents.contains(&b.name.as_str()) {
            continue;
        }
        let n = view.code.len();
        for ci in 0..n {
            if view.tok(ci).kind != TokenKind::Ident || view.text(ci) != b.name {
                continue;
            }
            let line = view.tok(ci).line;
            let in_test = view.in_test_module(ci);
            if in_test && b.rule != "no-hash-collections" {
                continue;
            }
            if decl_spells_base && line == b.decl_line {
                continue; // the token layer flags the declaration
            }
            if b.env_module {
                // A bound env module only leaks on `name::var*`.
                let getter = ci + 3 < n
                    && view.is_punct(ci + 1, ":")
                    && view.is_punct(ci + 2, ":")
                    && ["var", "var_os", "vars", "vars_os"]
                        .iter()
                        .any(|g| view.is_ident(ci + 3, g));
                if !getter {
                    continue;
                }
            }
            out.push(
                Finding::deny(
                    b.rule,
                    path,
                    line,
                    format!(
                        "{} resolves to {} through an alias chain; the {} rule \
                         applies to every name that reaches it",
                        b.name, b.terminal, b.rule
                    ),
                )
                .with_resolved_path(b.chain.clone()),
            );
        }
    }
}

/// One in-file alias of a hash collection: `use … HashMap as Map;` or
/// `type Map = HashMap<…>;`. The declaration line is already flagged by
/// the base ident check; tracking the alias closes the laundering hole
/// where every *use* of `Map` would otherwise slip through with a
/// single suppression on the declaration.
struct HashAlias {
    /// The aliased original (`HashMap` or `HashSet`).
    original: String,
    /// Line of the declaring `use`/`type` item.
    decl_line: u32,
    /// Code-token index of the alias ident in the declaration, so the
    /// declaration itself is not double-flagged.
    decl_ci: usize,
}

/// Collects `use … as` / `type … =` aliases of `HashMap`/`HashSet`.
fn hash_aliases(view: &FileView<'_>) -> BTreeMap<String, HashAlias> {
    let mut aliases = BTreeMap::new();
    let n = view.code.len();
    for ci in 0..n {
        if view.tok(ci).kind != TokenKind::Ident {
            continue;
        }
        match view.text(ci) {
            // `… HashMap as Map` — covers plain `use`, `pub use`
            // re-exports and grouped imports alike.
            word @ ("HashMap" | "HashSet")
                if ci + 2 < n
                    && view.is_ident(ci + 1, "as")
                    && view.tok(ci + 2).kind == TokenKind::Ident =>
            {
                aliases.insert(
                    view.text(ci + 2).to_owned(),
                    HashAlias {
                        original: word.to_owned(),
                        decl_line: view.tok(ci).line,
                        decl_ci: ci + 2,
                    },
                );
            }
            // `type Map = HashMap<…>;` — scan the right-hand side up
            // to the terminating semicolon.
            "type"
                if ci + 3 < n
                    && view.tok(ci + 1).kind == TokenKind::Ident
                    && view.is_punct(ci + 2, "=") =>
            {
                let mut j = ci + 3;
                while j < n && !view.is_punct(j, ";") {
                    if view.is_ident(j, "HashMap") || view.is_ident(j, "HashSet") {
                        aliases.insert(
                            view.text(ci + 1).to_owned(),
                            HashAlias {
                                original: view.text(j).to_owned(),
                                decl_line: view.tok(ci).line,
                                decl_ci: ci + 1,
                            },
                        );
                        break;
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
    aliases
}

/// The token-stream rules (everything except to-do tagging).
///
/// `aliases` are the file's in-file hash-collection aliases (empty where
/// the hash rule does not apply); every use of one is flagged.
fn code_rules(
    view: &FileView<'_>,
    path: &str,
    config: &LintConfig,
    aliases: &BTreeMap<String, HashAlias>,
    out: &mut Vec<Finding>,
) {
    let n = view.code.len();
    for ci in 0..n {
        if view.tok(ci).kind != TokenKind::Ident {
            // `include!`-family checks hinge on the ident; string and
            // punct tokens are only ever looked at relative to one.
            continue;
        }
        let word = view.text(ci);
        let line = view.tok(ci).line;
        let in_test = view.in_test_module(ci);

        match word {
            "HashMap" | "HashSet" if config.hash_applies(path) => {
                out.push(Finding::deny(
                    "no-hash-collections",
                    path,
                    line,
                    format!(
                        "{word} iterates in RandomState order; use BTreeMap/BTreeSet or a \
                         seeded hasher so replayed output is byte-stable"
                    ),
                ));
            }
            "Instant" | "SystemTime" if config.wall_clock_applies(path) && !in_test => {
                out.push(Finding::deny(
                    "no-wall-clock",
                    path,
                    line,
                    format!(
                        "{word} reads the clock outside streamsim-obs/the timing harness; \
                         route timing through obs spans"
                    ),
                ));
            }
            "sleep"
                if config.wall_clock_applies(path)
                    && !in_test
                    && ci >= 3
                    && view.is_punct(ci - 1, ":")
                    && view.is_punct(ci - 2, ":")
                    && view.is_ident(ci - 3, "thread") =>
            {
                out.push(Finding::deny(
                    "no-wall-clock",
                    path,
                    line,
                    "thread::sleep outside streamsim-obs/the timing harness",
                ));
            }
            "var" | "var_os" | "vars" | "vars_os"
                if config.env_read_applies(path)
                    && !in_test
                    && ci >= 3
                    && view.is_punct(ci - 1, ":")
                    && view.is_punct(ci - 2, ":")
                    && view.is_ident(ci - 3, "env") =>
            {
                out.push(Finding::deny(
                    "no-env-read",
                    path,
                    line,
                    format!(
                        "env::{word} outside the sanctioned config entry points \
                         (obs level, QC seed, bench knobs)"
                    ),
                ));
            }
            "include" | "include_str" | "include_bytes"
                if ci + 3 < n
                    && view.is_punct(ci + 1, "!")
                    && view.is_punct(ci + 2, "(")
                    && view.tok(ci + 3).kind == TokenKind::Str =>
            {
                let lit = view.text(ci + 3);
                let inner = lit.trim_matches(|c| c == '"' || c == '#' || c == 'r' || c == 'b');
                if inner.starts_with('/') || inner.contains("..") {
                    out.push(Finding::deny(
                        "no-external-include",
                        path,
                        line,
                        format!("{word}! of a path outside the crate: {inner}"),
                    ));
                }
            }
            "unsafe" if !view.justified_by_comment(line, "SAFETY:") => {
                out.push(Finding::deny(
                    "safety-comment",
                    path,
                    line,
                    "unsafe without a SAFETY: comment on the preceding lines",
                ));
            }
            "SeqCst" if !view.justified_by_comment(line, "ORDERING:") => {
                out.push(Finding::deny(
                    "ordering-seqcst",
                    path,
                    line,
                    "SeqCst without an ORDERING: justification — Relaxed/Acquire/Release \
                     usually suffice, and unjustified SeqCst hides the real protocol",
                ));
            }
            "unwrap" | "expect"
                if config.is_hot_module(path)
                    && !in_test
                    && ci >= 1
                    && view.is_punct(ci - 1, ".") =>
            {
                out.push(Finding::deny(
                    "no-unwrap-hot",
                    path,
                    line,
                    format!(
                        ".{word}( in a hot-loop module; return the error or justify the \
                         invariant with a lint:allow reason"
                    ),
                ));
            }
            "dbg" | "println" | "print"
                if config.print_applies(path)
                    && !in_test
                    && ci + 1 < n
                    && view.is_punct(ci + 1, "!") =>
            {
                out.push(Finding::deny(
                    "no-debug-print",
                    path,
                    line,
                    format!(
                        "{word}! outside binaries/examples/the bench harness; library \
                         output goes through ArtifactSink or streamsim-obs"
                    ),
                ));
            }
            word => {
                // Uses of an in-file alias of HashMap/HashSet (the
                // declaration site is flagged by the arms above; every
                // use of the alias inherits the same randomized
                // iteration order and is flagged on its own line).
                if let Some(alias) = aliases.get(word) {
                    if ci != alias.decl_ci {
                        out.push(Finding::deny(
                            "no-hash-collections",
                            path,
                            line,
                            format!(
                                "{word} aliases {} (declared on line {}) and iterates in \
                                 RandomState order; use BTreeMap/BTreeSet or a seeded hasher",
                                alias.original, alias.decl_line
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Comment-text rules: issue tags on to-do markers.
fn comment_rules(view: &FileView<'_>, path: &str, out: &mut Vec<Finding>) {
    for t in &view.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let comment = t.text(view.source);
        for word in ["TODO", "FIXME"] {
            let mut rest: &str = comment;
            let mut line = t.line;
            while let Some(at) = rest.find(word) {
                line += rest[..at].matches('\n').count() as u32;
                let after = &rest[at + word.len()..];
                let tagged = after.starts_with('(')
                    && after[1..]
                        .split(')')
                        .next()
                        .is_some_and(|tag| !tag.trim().is_empty());
                if !tagged {
                    out.push(Finding::deny(
                        "todo-tag",
                        path,
                        line,
                        format!("{word} without an issue tag — write {word}(#nnn): …"),
                    ));
                }
                rest = after;
            }
        }
    }
}

/// Lints one `Cargo.toml` manifest: dependency sections may only name
/// workspace path crates, and no build script may be declared.
/// Suppressions (`# lint:allow` comments) are file-scoped here.
pub fn check_manifest(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut file_allows: Vec<Suppression> = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let line = i as u32 + 1;
        if let Some(hash) = raw.find('#') {
            file_allows.extend(suppressions_in_text(
                &raw[hash..],
                line,
                path,
                &mut findings,
            ));
        }
    }
    for sup in &file_allows {
        findings.push(Finding::allow(
            RULES
                .iter()
                .find(|r| **r == sup.rule)
                .copied()
                .unwrap_or("hermetic-deps"),
            path,
            sup.line,
            sup.reason.clone(),
        ));
    }

    let mut denies = Vec::new();
    let mut section = String::new();
    // For `[dependencies.foo]`-style sections: defer judgement until
    // the section closes, then require a path/workspace key inside.
    let mut pending: Option<(String, u32, bool)> = None;
    let flush_pending = |pending: &mut Option<(String, u32, bool)>, denies: &mut Vec<Finding>| {
        if let Some((name, at, ok)) = pending.take() {
            if !ok {
                denies.push(Finding::deny(
                    "hermetic-deps",
                    path,
                    at,
                    format!("dependency '{name}' is not a workspace path crate"),
                ));
            }
        }
    };
    for (i, raw) in source.lines().enumerate() {
        let line_no = i as u32 + 1;
        let line = match raw.find('#') {
            Some(at) => &raw[..at],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_pending(&mut pending, &mut denies);
            section = line.trim_matches(['[', ']']).trim().to_owned();
            if let Some(dep) = section
                .strip_prefix("dependencies.")
                .or_else(|| section.strip_prefix("dev-dependencies."))
                .or_else(|| section.strip_prefix("build-dependencies."))
                .or_else(|| section.strip_prefix("workspace.dependencies."))
            {
                pending = Some((dep.to_owned(), line_no, false));
            }
            continue;
        }
        let in_dep_table = section == "dependencies"
            || section == "dev-dependencies"
            || section == "build-dependencies"
            || section == "workspace.dependencies"
            || section.ends_with(".dependencies");
        if let Some((_, _, ok)) = pending.as_mut() {
            if line.starts_with("path") || line.contains("workspace = true") {
                *ok = true;
            }
            continue;
        }
        if in_dep_table {
            if let Some((name, value)) = line.split_once('=') {
                let name = name.trim();
                let value = value.trim();
                let hermetic = value.contains("path")
                    || value.contains("workspace = true")
                    || name.ends_with(".workspace");
                let external =
                    value.contains("git =") || value.contains("git=") || value.starts_with('"');
                if !hermetic || external {
                    denies.push(Finding::deny(
                        "hermetic-deps",
                        path,
                        line_no,
                        format!(
                            "dependency '{name}' is not a workspace path crate — the \
                             workspace has zero crates.io dependencies by policy"
                        ),
                    ));
                }
            }
        }
        if section == "package" {
            if let Some((key, value)) = line.split_once('=') {
                if key.trim() == "build" && value.trim() != "false" {
                    denies.push(Finding::deny(
                        "no-build-script",
                        path,
                        line_no,
                        "package declares a build script; the workspace builds from sources alone",
                    ));
                }
            }
        }
    }
    flush_pending(&mut pending, &mut denies);

    let mut used = vec![false; file_allows.len()];
    denies.retain(|d| {
        let mut hit = false;
        for (i, s) in file_allows.iter().enumerate() {
            if s.rule == d.rule {
                used[i] = true;
                hit = true;
            }
        }
        !hit
    });
    for (sup, used) in file_allows.iter().zip(&used) {
        if !used {
            findings.push(Finding::warn(
                "dead-suppression",
                path,
                sup.line,
                format!(
                    "lint:allow({}, …) suppresses nothing — the rule no longer fires \
                     in this manifest; remove the annotation",
                    sup.rule
                ),
            ));
        }
    }
    findings.extend(denies);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}
