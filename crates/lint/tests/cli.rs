//! The CLI's whole surface: `--deny`, `--json`, `--json-out PATH`,
//! `--root PATH` and `--help`. Every run is one cold pass, so there is no
//! cache to warm, no rewriter and no time budget: any other argument is a
//! usage error (exit 2).

use std::process::Command;

#[test]
fn the_cli_takes_its_four_flags_and_refuses_every_other() {
    let root = std::env::temp_dir().join(format!("compso-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(root.join("crates/obs/src")).expect("temp root");
    std::fs::write(root.join("crates/obs/src/names.rs"), "").expect("names.rs");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_compso-lint"))
            .args(args)
            .arg("--root")
            .arg(&root)
            .output()
            .expect("run compso-lint")
    };
    let out = root.join("r.json");
    let ok = run(&["--deny", "--json", "--json-out", out.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("\"count\": 0"));
    for retired in ["--cache", "--fix", "--budget-ms", "--no-cache", "-j"] {
        let refused = run(&[retired, "5"]);
        assert_eq!(refused.status.code(), Some(2), "{retired}: {refused:?}");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{retired}`")),
            "{retired}: {stderr}"
        );
    }
    let help = Command::new(env!("CARGO_BIN_EXE_compso-lint"))
        .arg("--help")
        .output()
        .expect("run compso-lint --help");
    assert_eq!(
        String::from_utf8_lossy(&help.stdout),
        "usage: compso-lint [--deny] [--json] [--json-out PATH] [--root PATH]\n"
    );
    let _ = std::fs::remove_dir_all(&root);
}
