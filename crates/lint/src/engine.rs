//! Diagnostics, the shared analysis context, and the driver that runs
//! the rule table over a file set.
//!
//! The engine owns three cross-cutting concerns the rules stay out of:
//! **scoping** (a rule only runs on files its [`crate::rules::RuleSpec`]
//! covers), **suppression filtering** (a diagnostic on a line covered by
//! a matching `// lint:allow(rule): reason` comment is dropped) and
//! **suppression hygiene** (an allow without a reason, or naming an
//! unknown rule, is itself a diagnostic — suppressions are part of the
//! invariant surface, not an escape hatch).

use crate::callgraph::{self, FileSummaries, FnFacts};
use crate::rules::{RULES, RULE_NAMES};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// The rule name used for suppression-hygiene findings.
pub const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";

/// One finding, pointing at a workspace-relative `path:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl Diagnostic {
    /// `path:line:col: [rule] message` — the human rendering.
    pub fn human(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a stable JSON document (the CI artifact):
/// the findings, the total, and per-rule counts for every rule in the
/// catalogue (zeros included, so the artifact schema never shifts).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\"}}",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            d.col,
            json_escape(&d.message)
        );
        out.push_str(if i + 1 < diags.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"by_rule\": {\n");
    for (i, name) in RULE_NAMES.iter().enumerate() {
        let n = diags.iter().filter(|d| d.rule == *name).count();
        let _ = write!(out, "    \"{name}\": {n}");
        out.push_str(if i + 1 < RULE_NAMES.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(out, "  }},\n  \"count\": {}\n}}\n", diags.len());
    out
}

/// Workspace-level facts the rules consult: the obs name registry, the
/// length-source set (PR 8 cross-function taint), and the call-graph
/// facts (v3 — see [`crate::callgraph`]).
///
/// The registry is recovered by lexing its defining file
/// (`crates/obs/src/names.rs`) — the same shape its own self-parsing
/// test pins, so the two cannot drift.
pub struct Context {
    pub registered_names: BTreeSet<String>,
    pub length_sources: BTreeSet<String>,
    /// Workspace call-graph facts by function name (empty in
    /// single-file runs; rules union in a local per-file solve).
    pub facts: BTreeMap<String, FnFacts>,
}

impl Context {
    /// Build the context from a workspace root on disk. Length sources
    /// and call-graph facts start empty; [`check_files`] fills them in
    /// from the summary pre-pass.
    pub fn from_workspace(root: &Path) -> std::io::Result<Context> {
        let names_src = std::fs::read_to_string(root.join("crates/obs/src/names.rs"))?;
        Ok(Context {
            registered_names: parse_registered_names(&names_src),
            length_sources: BTreeSet::new(),
            facts: BTreeMap::new(),
        })
    }

    /// A synthetic context (fixture tests).
    pub fn with_names<I: IntoIterator<Item = String>>(names: I) -> Context {
        Context {
            registered_names: names.into_iter().collect(),
            length_sources: BTreeSet::new(),
            facts: BTreeMap::new(),
        }
    }
}

/// Extract every `const IDENT: &str = "value";` string from a source
/// file (token-based, so comments and test strings don't leak in).
pub fn parse_registered_names(src: &str) -> BTreeSet<String> {
    let f = SourceFile::new("names.rs".into(), src.to_string());
    let code = f.code_tokens();
    let text = |ci: usize| f.tokens[code[ci]].text(&f.src);
    let mut out = BTreeSet::new();
    for i in 0..code.len() {
        // const NAME : & str = "…"
        if text(i) == "const"
            && i + 6 < code.len()
            && text(i + 2) == ":"
            && text(i + 3) == "&"
            && text(i + 4) == "str"
            && text(i + 5) == "="
        {
            let lit = text(i + 6);
            if let Some(stripped) = lit.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
                out.insert(stripped.to_string());
            }
        }
    }
    out
}

/// Run every applicable rule over `file`, apply suppressions, and
/// append suppression-hygiene findings. Scope comes from the rule
/// table; a file no rule covers yields only hygiene findings.
pub fn check_file(file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
    let mut raw = Vec::new();
    for spec in RULES {
        if spec.applies_to(&file.path) {
            spec.rule().check(file, ctx, &mut raw);
        }
    }
    raw.retain(|d| !file.is_suppressed(d.rule, d.line));
    out.extend(raw);

    for s in &file.suppressions {
        if !RULE_NAMES.contains(&s.rule.as_str()) {
            out.push(Diagnostic {
                rule: SUPPRESSION_HYGIENE,
                path: file.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "lint:allow names unknown rule `{}` (known: {})",
                    s.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else if !s.has_reason {
            out.push(Diagnostic {
                rule: SUPPRESSION_HYGIENE,
                path: file.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "lint:allow({}) without a reason; write `lint:allow({}): why`",
                    s.rule, s.rule
                ),
            });
        }
    }
    // Hygiene findings on a line can themselves be silenced only by a
    // well-formed allow for suppression-hygiene.
    out.retain(|d| {
        d.rule != SUPPRESSION_HYGIENE || !file.is_suppressed(SUPPRESSION_HYGIENE, d.line)
    });
}

/// Check a whole file set, returning diagnostics sorted by path, line,
/// column, rule — a stable order for golden tests and CI artifacts.
///
/// Runs the call-graph pre-pass first ([`crate::callgraph::summarize`]
/// per file, one [`crate::callgraph::solve`] over the set) so the
/// cross-function rules see helpers defined in *other* files.
pub fn check_files(files: &[SourceFile], ctx: &Context) -> Vec<Diagnostic> {
    let summaries: Vec<FileSummaries> = files.iter().map(callgraph::summarize).collect();
    let facts = callgraph::solve(&summaries);
    let mut length_sources = ctx.length_sources.clone();
    length_sources.extend(
        facts
            .iter()
            .filter(|(_, f)| f.length_source)
            .map(|(n, _)| n.clone()),
    );
    let ctx = Context {
        registered_names: ctx.registered_names.clone(),
        length_sources,
        facts,
    };
    let mut out = Vec::new();
    for f in files {
        check_file(f, &ctx, &mut out);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_parsing_matches_const_shape() {
        let src = r#"
            //! docs mentioning "core/fake" in a comment
            pub const A: &str = "comm/recv";
            pub(crate) const B: &str = "kfac/step";
            pub const NOT_A_NAME: u32 = 7;
            #[cfg(test)]
            mod tests {
                const T: &str = "test/only";
            }
        "#;
        let names = parse_registered_names(src);
        assert!(names.contains("comm/recv"));
        assert!(names.contains("kfac/step"));
        assert!(names.contains("test/only")); // const-shaped, still collected
        assert!(!names.contains("core/fake")); // comments never leak in
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_flagged() {
        let src = "// lint:allow(no-such-rule): whatever\n\
                   // lint:allow(no-unwrap-on-comm-path)\n\
                   fn f() {}\n";
        let f = SourceFile::new("crates/comm/src/x.rs".into(), src.into());
        let ctx = Context::with_names(Vec::new());
        let mut out = Vec::new();
        check_file(&f, &ctx, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == SUPPRESSION_HYGIENE));
        assert!(out[0].message.contains("no-such-rule"));
        assert!(out[1].message.contains("without a reason"));
    }

    #[test]
    fn findings_follow_helpers_across_files() {
        let run = |wire_len: &str, helper_b: &str| -> Vec<(&str, String)> {
            let files = [
                (
                    "crates/ctrl/src/controller.rs",
                    "pub fn decide(&mut self) -> u64 { helper_a() }\n",
                ),
                (
                    "crates/foo/src/caller.rs",
                    "pub fn decode(r: &mut Reader<'_>) -> Vec<u8> {\n    \
                         let n = wire_len(r);\n    \
                         let out = Vec::with_capacity(n);\n    \
                         out\n}\n",
                ),
                ("crates/foo/src/helper.rs", wire_len),
                (
                    "crates/foo/src/helpers.rs",
                    "pub fn helper_a() -> u64 { helper_b() }\n",
                ),
                ("crates/foo/src/leaf.rs", helper_b),
            ]
            .map(|(path, src)| SourceFile::new(path.into(), src.into()));
            check_files(&files, &Context::with_names(Vec::new()))
                .into_iter()
                .map(|d| (d.rule, d.path))
                .collect()
        };
        // An unclamped wire length in one file taints its caller in
        // another; a clock read two calls below a critical root fires
        // at the read, in the leaf's file.
        assert_eq!(
            run(
                "pub fn wire_len(r: &mut Reader<'_>) -> usize {\n    r.u32() as usize\n}\n",
                "pub fn helper_b() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            [
                (
                    "unchecked-length-prefix",
                    "crates/foo/src/caller.rs".to_string()
                ),
                ("deterministic-state", "crates/foo/src/leaf.rs".to_string()),
            ]
        );
        // Clamping the helper clears the finding in the unchanged
        // caller; a pure leaf leaves the root's cone clean.
        assert_eq!(
            run(
                "pub fn wire_len(r: &mut Reader<'_>) -> usize {\n    \
                     checked_count(r.u32() as u64)\n}\n",
                "pub fn helper_b() -> u64 { 7 }\n",
            ),
            []
        );
    }

    #[test]
    fn json_is_well_formed_ish() {
        let diags = vec![Diagnostic {
            rule: "wire-magic-registry",
            path: "a/b.rs".into(),
            line: 3,
            col: 9,
            message: "bare \"magic\"".into(),
        }];
        let j = to_json(&diags);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\\\"magic\\\""));
        assert!(j.contains("\"wire-magic-registry\": 1"));
        assert!(
            j.contains("\"collective-order\": 0"),
            "zeros keep the schema"
        );
    }
}
