//! The command-line frontends reject malformed flags instead of falling
//! back to a default: each bad case exits non-zero and names the flag.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts `out` failed and its stderr names `flag`.
fn assert_rejects(out: &Output, flag: &str) {
    assert!(!out.status.success(), "exit {:?}", out.status);
    assert!(stderr(out).contains(flag), "stderr: {}", stderr(out));
}

const CLI: &str = env!("CARGO_BIN_EXE_edb-cli");
const ANALYZE: &str = env!("CARGO_BIN_EXE_edb-analyze");

#[test]
fn cli_rejects_a_non_numeric_seed() {
    assert_rejects(&run(CLI, &["--seed", "abc", "--script", "quit"]), "--seed");
    assert_rejects(&run(CLI, &["--seed"]), "--seed");
}

#[test]
fn cli_lists_every_app_and_builds_the_rfid_bench() {
    let out = run(CLI, &["--list"]);
    assert!(out.status.success());
    let names: Vec<String> = stdout(&out)
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next().map(String::from))
        .collect();
    assert_eq!(
        names,
        [
            "spin",
            "linked-list",
            "linked-list-assert",
            "linked-list-atomic",
            "fib-checked",
            "fib-guarded",
            "activity",
            "rfid"
        ]
    );
    let out = run(CLI, &["--app", "rfid", "--seed", "3", "--script", "quit"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("target: rfid"));
    assert_rejects(&run(CLI, &["--app", "nope"]), "nope");
}

#[test]
fn analyze_rejects_flags_without_values() {
    assert_rejects(&run(ANALYZE, &["--app", "fib", "--out"]), "--out");
    assert_rejects(&run(ANALYZE, &["--app"]), "--app");
}

#[test]
fn analyze_lists_its_apps() {
    let out = run(ANALYZE, &["--list-apps"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "fib\nlinked-list\nactivity\nrfid\n");
}
