//! Workspace file discovery.
//!
//! Walks the repository's source roots (`crates/`, `src/`, `examples/`,
//! `tests/`, and optionally `shims/`) collecting `.rs` files in a
//! deterministic (sorted) order. `target/` build output and the lint
//! crate's own `fixtures/` corpus — files that deliberately contain
//! violations — are always skipped.

use std::path::{Path, PathBuf};

/// Source roots that carry first-party code subject to the rules.
pub(crate) const RULE_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Collect workspace `.rs` files under `root`. With `include_shims`,
/// the vendored `shims/` crates are included too (used by the lexer
/// tiling test, which must hold for *every* file we might ever lint).
pub fn collect_files(root: &Path, include_shims: bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in RULE_ROOTS {
        walk(&root.join(top), &mut out);
    }
    if include_shims {
        walk(&root.join("shims"), &mut out);
    }
    out.sort();
    out
}

/// Workspace-relative path with `/` separators (diagnostic identity).
pub(crate) fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every `.rs` file under `dir`, minus build output, fixture corpora and
/// dot-dirs, in directory order.
pub(crate) fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_file_but_not_fixtures() {
        // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let files = collect_files(&root, false);
        assert!(!files.is_empty());
        let rels: Vec<String> = files.iter().map(|p| rel_path(&root, p)).collect();
        assert!(rels.iter().any(|r| r == "crates/lint/src/walker.rs"));
        assert!(rels.iter().all(|r| !r.contains("/fixtures/")));
        assert!(rels.iter().all(|r| !r.contains("/target/")));
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "walk order must be deterministic");
    }
}
