//! The checked-in golden transcripts must replay byte-identically, and
//! the `--threads` width must not leak into any connection's byte
//! stream: one connection's replies are a pure function of its request
//! sequence, whatever else the server is doing.

mod common;

use common::within;
use edb_serve::{Client, Server, ServerConfig, Transcript};

/// How long one test may take before a stalled server fails it.
const DEADLINE_S: u64 = 120;

/// The debugging walkthrough.
const WALKTHROUGH: &str = "serve-transcript.txt";
/// Hostile lines, each answered by a typed error on a connection that
/// keeps serving.
const HOSTILE: &str = "serve-hostile.txt";

fn golden(name: &str) -> Transcript {
    let path = format!("{}/../../ci/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("golden transcript exists");
    Transcript::parse(&text).expect("golden transcript parses")
}

/// Runs the golden request sequence against a fresh server of the given
/// `--threads` width and returns the server's actual reply lines.
fn record_with_threads(threads: usize) -> Vec<String> {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let recorded = golden(WALKTHROUGH)
        .record(&mut client)
        .expect("record completes");
    drop(client);
    server.stop();
    recorded.steps.into_iter().flat_map(|s| s.expect).collect()
}

fn assert_replays(name: &str, threads: usize) {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let report = golden(name).replay(&mut client).expect("replay completes");
    assert!(
        report.ok(),
        "{name} diverged at {threads} thread(s):\n{}",
        report.diff()
    );
    drop(client);
    server.stop();
}

#[test]
fn golden_transcript_is_byte_identical_at_one_thread() {
    within(DEADLINE_S, || assert_replays(WALKTHROUGH, 1));
}

#[test]
fn golden_transcript_is_byte_identical_at_four_threads() {
    within(DEADLINE_S, || assert_replays(WALKTHROUGH, 4));
}

#[test]
fn hostile_transcript_is_byte_identical_at_one_and_four_threads() {
    within(DEADLINE_S, || {
        assert_replays(HOSTILE, 1);
        assert_replays(HOSTILE, 4);
    });
}

#[test]
fn thread_count_does_not_change_the_byte_stream() {
    within(DEADLINE_S, || {
        assert_eq!(record_with_threads(1), record_with_threads(4));
    });
}
