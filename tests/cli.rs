//! The `edb` frontend, driven as a process: its modes reject malformed
//! flags and commands instead of falling back to a default (each bad
//! flag exits non-zero and names itself), `--list` reads the one app
//! registry, and the headless TUI reproduces its checked-in frames.

use std::path::Path;
use std::process::{Command, Output};

const EDB: &str = env!("CARGO_BIN_EXE_edb");

fn run(args: &[&str]) -> Output {
    Command::new(EDB).args(args).output().expect("binary runs")
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

#[test]
fn cli_rejects_a_non_numeric_seed() {
    assert_rejects(
        &run(&["console", "--seed", "abc", "--script", "quit"]),
        "--seed",
    );
    assert_rejects(&run(&["console", "--seed"]), "--seed");
}

#[test]
fn cli_lists_every_app_and_builds_the_rfid_bench() {
    let out = run(&["console", "--list"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
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
            "fib",
            "fib-checked",
            "fib-guarded",
            "activity",
            "activity-printf",
            "rfid",
            "assert",
            "spin-volatile",
            "guard"
        ]
    );
    let out = run(&[
        "console", "--app", "rfid", "--seed", "3", "--script", "quit",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("target: rfid"));
    assert_rejects(&run(&["console", "--app", "nope"]), "nope");
}

#[test]
fn analyze_rejects_flags_without_values() {
    assert_rejects(&run(&["analyze", "--app", "fib", "--out"]), "--out");
    assert_rejects(&run(&["analyze", "--app"]), "--app");
}

/// `analyze` lists the same registry as every other mode.
#[test]
fn analyze_lists_its_apps() {
    let console = stdout(&run(&["console", "--list"]));
    for mode in ["analyze", "tui"] {
        assert_eq!(stdout(&run(&[mode, "--list"])), console, "{mode} --list");
    }
    let out = run(&["analyze", "--app", "activity"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).starts_with(r#"{"target":"activity","#));
}

/// The headless walkthrough's stdout, frame for frame, against the
/// golden taken from the same script before the frontends merged.
#[test]
fn tui_script_matches_its_golden_frames() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = root.join("ci/tui-smoke.txt");
    let out = run(&["tui", "--script", script.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let golden = std::fs::read_to_string(root.join("ci/golden-tui-smoke.txt")).expect("golden");
    assert!(
        stdout(&out) == golden,
        "TUI frames differ from ci/golden-tui-smoke.txt"
    );
}

/// A malformed number earns the usage note and sends no request: the
/// clock, PC and breakpoint list stay as they were.
#[test]
fn tui_rejects_malformed_numbers() {
    let script = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tui-malformed.txt");
    std::fs::write(
        &script,
        "status\nrun abc\nstep x\nback x\nbreak 1 abc\ndisasm zz\nquit\n",
    )
    .expect("script written");
    let out = run(&["tui", "--script", script.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // Each command echoes `--- command` and then its frame; `quit`
    // draws none.
    let text = stdout(&out);
    let frames: Vec<&str> = text.split("\n--- ").collect();
    assert_eq!(frames.len(), 7, "{text}");
    let header = |frame: &str| frame.lines().nth(1).map(String::from);
    for (frame, usage) in frames[1..6].iter().zip([
        "usage: run [ms]",
        "usage: step [n]",
        "usage: back [n]",
        "usage: break <id> [energy-volts]",
        "usage: disasm [hex-addr]",
    ]) {
        assert!(frame.contains(&format!("- {usage} -")), "{frame}");
        assert_eq!(header(frame), header(frames[0]), "{frame}");
        assert!(frame.contains("(none)"), "no breakpoint was set: {frame}");
    }
}
