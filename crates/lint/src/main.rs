//! The `compso-lint` CLI.
//!
//! ```text
//! compso-lint [--deny] [--json] [--json-out PATH] [--root PATH]
//! ```
//!
//! Walks the workspace (auto-detected by searching upward for the
//! `[workspace]` manifest, or given via `--root`), runs every rule over
//! production code, and prints human-readable `path:line:col` findings.
//! `--json` prints the machine-readable document to stdout instead;
//! `--json-out` writes it to a file (the CI artifact) in addition to
//! the human output.
//!
//! Exit status: `0` when clean, `1` on any finding with `--deny`, `2`
//! on usage or IO errors.

use compso_lint::{check_workspace, to_json};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut json_out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--json-out" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("compso-lint: --json-out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("compso-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: compso-lint [--deny] [--json] [--json-out PATH] [--root PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("compso-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("compso-lint: no [workspace] Cargo.toml found (use --root)");
        return ExitCode::from(2);
    };

    let start = Instant::now();
    let diags = match check_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("compso-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = start.elapsed();

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, to_json(&diags)) {
            eprintln!("compso-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.human());
        }
        println!(
            "compso-lint: {} finding{} in {:.2?}{}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            elapsed,
            if deny { " (--deny)" } else { "" },
        );
    }

    if deny && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
