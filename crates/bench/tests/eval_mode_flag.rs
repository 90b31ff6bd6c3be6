//! A table binary given an `--eval-mode` it has no engine for stops with a
//! usage error instead of silently running the default engine.

use std::process::Command;

#[test]
fn unknown_eval_mode_is_a_usage_error() {
    for mode in ["batch", "fast"] {
        let out = Command::new(env!("CARGO_BIN_EXE_table4"))
            .args(["--eval-mode", mode])
            .output()
            .expect("table4 runs");
        assert_eq!(out.status.code(), Some(2), "--eval-mode {mode}");
        assert!(out.stdout.is_empty(), "--eval-mode {mode} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--eval-mode takes `ast` or `bytecode`"),
            "--eval-mode {mode}: {stderr}"
        );
    }
}
