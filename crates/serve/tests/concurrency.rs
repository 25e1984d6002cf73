//! Sixteen concurrent sessions on one server: every connection gets its
//! own isolated device, per-session state never bleeds across
//! connections, and event notifications only ever carry the session the
//! connection subscribed to. And at `--threads 1`, two connections that
//! interleave their requests both run to completion, each seeing the
//! bytes it would see alone.

use serde::Value;
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

use edb_serve::rpc::{obj, required};
use edb_serve::{Client, Server, ServerConfig};

const SESSIONS: u64 = 16;

/// The per-connection walkthrough: create a session, plant a distinct
/// word in FRAM, run a little, and read the word back. Returns the
/// session id and every notification seen on this connection.
fn exercise(addr: &str, index: u64) -> (u64, Vec<Value>) {
    let mut client = Client::connect(addr).expect("client connects");
    let mut seen = Vec::new();

    let out = client
        .call(
            "create",
            vec![
                ("firmware", Value::Str("assert".to_string())),
                ("seed", Value::U64(100 + index)),
                (
                    "harvester",
                    obj(vec![("voc", Value::F64(3.2)), ("r", Value::F64(220.0))]),
                ),
                ("wait_session_ms", Value::U64(2000)),
            ],
        )
        .expect("create call");
    let session: u64 = required(&out.outcome.expect("create succeeds"), "session")
        .expect("create returns a session id");
    seen.extend(out.notifications);

    let out = client
        .call("subscribe_events", vec![("from_start", Value::Bool(true))])
        .expect("subscribe call");
    out.outcome.expect("subscribe succeeds");
    seen.extend(out.notifications);

    let marker = 0xA000 + index;
    let out = client
        .call(
            "write",
            vec![("addr", Value::U64(0x6100)), ("value", Value::U64(marker))],
        )
        .expect("write call");
    out.outcome.expect("write succeeds");
    seen.extend(out.notifications);

    let out = client
        .call("run_until", vec![("ms", Value::U64(2))])
        .expect("run_until call");
    out.outcome.expect("run_until succeeds");
    seen.extend(out.notifications);

    let out = client
        .call("read", vec![("addr", Value::U64(0x6100))])
        .expect("read call");
    let value: u64 =
        required(&out.outcome.expect("read succeeds"), "value").expect("read returns a value");
    seen.extend(out.notifications);
    assert_eq!(
        value, marker,
        "session {session} read back another session's memory"
    );

    let out = client.call("destroy", vec![]).expect("destroy call");
    out.outcome.expect("destroy succeeds");
    seen.extend(out.notifications);

    (session, seen)
}

#[test]
fn sixteen_sessions_stay_isolated() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    let mut handles = Vec::new();
    for index in 0..SESSIONS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || exercise(&addr, index)));
    }
    let results: Vec<(u64, Vec<Value>)> = handles
        .into_iter()
        .map(|h| h.join().expect("connection thread completes"))
        .collect();
    server.stop();

    assert_eq!(results.len(), SESSIONS as usize);

    // Distinct sessions, and every notification tagged with the
    // connection's own session id — no cross-session event leakage.
    let ids: BTreeSet<u64> = results.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids.len(),
        SESSIONS as usize,
        "session ids collided: {ids:?}"
    );
    for (session, notes) in results.iter() {
        assert!(
            !notes.is_empty(),
            "session {session} subscribed from start but saw no events"
        );
        for note in notes {
            let params = note.get_field("params").expect("notification has params");
            let tagged: u64 = required(params, "session").expect("event carries a session id");
            assert_eq!(
                tagged, *session,
                "session {session} received an event for session {tagged}"
            );
        }
    }
}

/// Connection `index`'s request lines: `create` (the first line), then
/// `status`/`write`/`read` rounds with one `run_until` midway.
fn script(index: u64) -> Vec<String> {
    let mut lines = vec![format!(
        r#"{{"jsonrpc":"2.0","id":1,"method":"create","params":{{"firmware":"assert","seed":{},"harvester":{{"voc":3.2,"r":220.0}},"wait_session_ms":2000}}}}"#,
        100 + index
    )];
    for round in 0..12u64 {
        let id = 10 * round + 2;
        let value = 0xA000 + 0x100 * index + round;
        lines.push(format!(
            r#"{{"jsonrpc":"2.0","id":{id},"method":"status","params":{{}}}}"#
        ));
        lines.push(format!(
            r#"{{"jsonrpc":"2.0","id":{},"method":"write","params":{{"addr":24832,"value":{value}}}}}"#,
            id + 1
        ));
        lines.push(format!(
            r#"{{"jsonrpc":"2.0","id":{},"method":"read","params":{{"addr":24832}}}}"#,
            id + 2
        ));
        if round == 6 {
            lines.push(format!(
                r#"{{"jsonrpc":"2.0","id":{},"method":"run_until","params":{{"ms":2}}}}"#,
                id + 3
            ));
        }
    }
    lines
}

/// Sends `lines` in order and returns every reply line.
fn exchange(client: &mut Client, lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .flat_map(|line| client.exchange_line(line).expect("request answered"))
        .collect()
}

/// Both connections' reply streams at `--threads 1`: the sessions are
/// created in a fixed order, then the rest of the two scripts runs one
/// after the other or at once.
fn two_connections(together: bool) -> [Vec<String>; 2] {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
    })
    .expect("server starts");
    let mut clients = [0, 1].map(|_| Client::connect(server.addr()).expect("client connects"));
    let scripts = [script(0), script(1)];
    let mut replies = [0, 1].map(|k| exchange(&mut clients[k], &scripts[k][..1]));
    let rests: Vec<Vec<String>> = if together {
        std::thread::scope(|s| {
            let runs: Vec<_> = clients
                .iter_mut()
                .zip(&scripts)
                .map(|(client, lines)| s.spawn(move || exchange(client, &lines[1..])))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("connection finishes"))
                .collect()
        })
    } else {
        clients
            .iter_mut()
            .zip(&scripts)
            .map(|(client, lines)| exchange(client, &lines[1..]))
            .collect()
    };
    for (reply, rest) in replies.iter_mut().zip(rests) {
        reply.extend(rest);
    }
    drop(clients);
    server.stop();
    replies
}

/// One permit is shared fairly enough that neither connection starves,
/// and sharing it changes no byte either connection sees.
#[test]
fn one_permit_serves_two_interleaved_connections() {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send((two_connections(false), two_connections(true)));
    });
    let (alone, together) = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(streams) => streams,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a connection did not finish in time"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("the helper panicked"))
        }
    };
    for (index, (alone, together)) in alone.iter().zip(&together).enumerate() {
        assert!(
            alone.iter().any(|line| line.contains(r#""value":"#))
                && !alone.iter().any(|line| line.contains(r#""error":"#)),
            "connection {index} did not read and write cleanly: {alone:?}"
        );
        assert_eq!(alone, together, "connection {index}'s bytes changed");
    }
}
