//! Hostile input cannot take the server down.
//!
//! `fleet_verify` parses a file the client names. A Spec chunk nested
//! 200 000 levels deep, with valid chunk digests, used to recurse the
//! decoder off the end of the worker thread's stack and abort the whole
//! process. It must come back as a JSON-RPC error, with the server still
//! answering afterwards. So must a path that is not a regular file.
//!
//! A request that panics inside a session poisons that session's lock.
//! The session must then answer a typed error and leave the hub, while
//! every other session and the connection itself keep serving.

use edb_serve::rpc::{self, obj};
use edb_serve::{Client, Server, ServerConfig};
use serde::Value;

/// Appends one container chunk: tag, payload length, payload, and the
/// FNV-1a digest over all three.
fn push_chunk(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = edb_replay::fnv1a(&out[start..]);
    out.extend_from_slice(&digest.to_le_bytes());
}

/// An EDBR v1 recording whose Spec is a one-element sequence nested
/// `depth` deep, followed by a valid Meta and End chunk.
fn deeply_nested_recording(depth: usize) -> Vec<u8> {
    const TAG_SPEC: u8 = 1;
    const TAG_META: u8 = 2;
    const TAG_END: u8 = 6;
    const VAL_NULL: u8 = 0x00;
    const VAL_SEQ: u8 = 0x07;
    let mut out = b"EDBR".to_vec();
    out.extend_from_slice(&edb_replay::VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    let mut spec = Vec::with_capacity(5 * depth + 1);
    for _ in 0..depth {
        spec.push(VAL_SEQ);
        spec.extend_from_slice(&1u32.to_le_bytes());
    }
    spec.push(VAL_NULL);
    push_chunk(&mut out, TAG_SPEC, &spec);
    push_chunk(&mut out, TAG_META, &[0; 16]);
    push_chunk(&mut out, TAG_END, &[0; 16]);
    out
}

#[test]
fn fleet_verify_on_a_deeply_nested_file_is_an_rpc_error() {
    let dir = std::env::temp_dir().join(format!("edb-serve-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.edbr");
    std::fs::write(&path, deeply_nested_recording(200_000)).expect("write recording");

    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects");
    let out = client
        .call(
            "fleet_verify",
            vec![(
                "path",
                Value::Str(path.to_str().expect("utf-8 path").to_string()),
            )],
        )
        .expect("the server replies");
    let err = out.outcome.expect_err("a hostile recording is rejected");
    assert!(err.message.contains("nested deeper"), "{err:?}");

    // The same connection and a new one are both still served.
    let info = client.call("server_info", vec![]).expect("server replies");
    assert!(info.outcome.is_ok(), "{:?}", info.outcome);
    let mut other = Client::connect(&addr).expect("second client connects");
    let info = other.call("server_info", vec![]).expect("server replies");
    assert!(info.outcome.is_ok(), "{:?}", info.outcome);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fleet_verify` of `/dev/zero` used to read without end until the
/// worker ran out of memory. It is refused before a byte is read.
#[cfg(unix)]
#[test]
fn fleet_verify_of_dev_zero_is_an_rpc_error() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let out = client
        .call(
            "fleet_verify",
            vec![("path", Value::Str("/dev/zero".to_string()))],
        )
        .expect("the server replies");
    let err = out.outcome.expect_err("a device is not a recording");
    assert_eq!(err.code, -32600, "{err:?}");
    assert!(err.message.contains("not a regular file"), "{err:?}");
    let info = client.call("server_info", vec![]).expect("server replies");
    assert!(info.outcome.is_ok(), "{:?}", info.outcome);
    server.stop();
}

#[test]
fn a_poisoned_session_answers_a_typed_error_and_the_rest_keep_serving() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let create = |client: &mut Client| {
        let spec = vec![
            ("firmware", Value::Str("assert".to_string())),
            (
                "harvester",
                obj(vec![("voc", Value::F64(3.2)), ("r", Value::F64(220.0))]),
            ),
            ("wait_session_ms", Value::U64(2000)),
        ];
        let out = client.call("create", spec).expect("the server replies");
        let result = out.outcome.expect("create succeeds");
        rpc::required::<u64>(&result, "session").expect("a session id")
    };
    let mut victim = Client::connect(&addr).expect("client connects");
    let mut bystander = Client::connect(&addr).expect("second client connects");
    let poisoned = create(&mut victim);
    let healthy = create(&mut bystander);
    assert_ne!(poisoned, healthy);

    server.hub().poison_session(poisoned);

    // The poisoned session answers a typed error, then is gone.
    let out = victim.call("status", vec![]).expect("the server replies");
    let err = out.outcome.expect_err("a poisoned session is not served");
    assert_eq!(err.code, rpc::INTERNAL_ERROR, "{err:?}");
    let out = victim.call("status", vec![]).expect("the server replies");
    let err = out.outcome.expect_err("the session was removed");
    assert_eq!(err.code, rpc::INVALID_REQUEST, "{err:?}");
    assert!(err.message.contains("is gone"), "{err:?}");
    assert_eq!(server.hub().session_count(), 1);

    // The other session keeps serving, and so does the same connection.
    let out = bystander
        .call("read", vec![("addr", Value::U64(0x6000))])
        .expect("the server replies");
    assert!(out.outcome.is_ok(), "{:?}", out.outcome);
    let info = victim.call("server_info", vec![]).expect("server replies");
    let info = info.outcome.expect("server_info succeeds");
    assert_eq!(rpc::required::<u64>(&info, "sessions"), Ok(1));

    server.stop();
}
