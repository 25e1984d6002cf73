//! JSON-RPC 2.0 framing with a typed error surface.
//!
//! One request or response per line (newline-delimited JSON). Responses
//! and notifications are rendered with a **fixed key order**
//! (`jsonrpc`, `id`, `result` / `error`; `jsonrpc`, `method`, `params`)
//! so transcripts are byte-stable — the vendored `serde` keeps map
//! entries in insertion order, which this module relies on.
//!
//! Errors are not stringly typed: a failed request carries the standard
//! JSON-RPC `code`/`message` pair plus a `data` field holding the
//! serialized [`EdbError`] variant itself, so a programmatic client can
//! round-trip the exact workspace error out of the wire (the
//! `edb_errors_round_trip_the_wire` test holds every variant to that).

use edb_core::EdbError;
use edb_energy::SimTime;
use serde::{Deserialize, Serialize, Value};

/// The JSON-RPC protocol version string.
pub const VERSION: &str = "2.0";

/// Standard JSON-RPC: malformed JSON.
pub const PARSE_ERROR: i64 = -32700;
/// Standard JSON-RPC: not a valid request object.
pub const INVALID_REQUEST: i64 = -32600;
/// Standard JSON-RPC: unknown method.
pub const METHOD_NOT_FOUND: i64 = -32601;
/// Standard JSON-RPC: bad parameters.
pub const INVALID_PARAMS: i64 = -32602;

/// The EDB error-code block base: variant *k* of [`EdbError`] maps to
/// `EDB_ERROR_BASE - k`, giving each taxonomy variant a stable,
/// documented code in the JSON-RPC implementation-defined range.
pub const EDB_ERROR_BASE: i64 = -32000;

/// The stable JSON-RPC error code for an [`EdbError`] variant (1:1 —
/// the protocol table in DESIGN.md §10 documents the mapping).
pub fn edb_error_code(error: &EdbError) -> i64 {
    let k = match error {
        EdbError::NotAttached { .. } => 1,
        EdbError::NoSession { .. } => 2,
        EdbError::CommandTimeout { .. } => 3,
        EdbError::CorruptReply { .. } => 4,
        EdbError::AbortedByBrownout { .. } => 5,
        EdbError::Busy { .. } => 6,
        EdbError::LevelNotReached { .. } => 7,
        EdbError::SessionDidNotOpen => 8,
        EdbError::SessionDidNotClose => 9,
        EdbError::Device { .. } => 10,
        EdbError::Rfid { .. } => 11,
        EdbError::NoRecording { .. } => 12,
        EdbError::Replay { .. } => 13,
        // `EdbError` is non-exhaustive; a future variant gets the
        // block's generic tail until it is assigned a code here.
        _ => 99,
    };
    EDB_ERROR_BASE - k
}

/// A parsed JSON-RPC request line.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcRequest {
    /// The request ID (`None` for a client notification).
    pub id: Option<u64>,
    /// The method name.
    pub method: String,
    /// The `params` object (or `Value::Null` when absent).
    pub params: Value,
}

/// A JSON-RPC error: the standard code/message pair, plus the typed
/// [`EdbError`] when the failure came from the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcError {
    /// The JSON-RPC error code.
    pub code: i64,
    /// Human-readable message.
    pub message: String,
    /// The serialized [`EdbError`], when the failure is a typed engine
    /// error (absent for protocol-level failures).
    pub data: Option<Value>,
}

impl RpcError {
    /// A protocol-level failure (parse error, unknown method, …).
    pub fn protocol(code: i64, message: impl Into<String>) -> Self {
        RpcError {
            code,
            message: message.into(),
            data: None,
        }
    }

    /// Wraps a typed engine error, carrying the exact variant in `data`.
    pub fn engine(error: &EdbError) -> Self {
        RpcError {
            code: edb_error_code(error),
            message: error.to_string(),
            data: Some(error.to_value()),
        }
    }

    /// Recovers the typed [`EdbError`] from an error object's `data`
    /// field, if one is present and well-formed.
    pub fn to_edb_error(&self) -> Option<EdbError> {
        EdbError::from_value(self.data.as_ref()?).ok()
    }
}

impl From<EdbError> for RpcError {
    fn from(error: EdbError) -> Self {
        RpcError::engine(&error)
    }
}

/// Builds an object [`Value`] with the given entries, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

/// Renders a value as one line of JSON (no trailing newline).
fn line(value: &Value) -> String {
    serde_json::to_string(value).expect("Value always renders")
}

/// Renders a successful response line.
pub fn response_line(id: u64, result: Value) -> String {
    line(&obj(vec![
        ("jsonrpc", Value::Str(VERSION.to_string())),
        ("id", Value::U64(id)),
        ("result", result),
    ]))
}

/// Renders an error response line (`id` is `null` when the request ID
/// never parsed).
pub fn error_line(id: Option<u64>, error: &RpcError) -> String {
    let mut entries = vec![
        ("code", Value::I64(error.code)),
        ("message", Value::Str(error.message.clone())),
    ];
    if let Some(data) = &error.data {
        entries.push(("data", data.clone()));
    }
    line(&obj(vec![
        ("jsonrpc", Value::Str(VERSION.to_string())),
        ("id", id.map_or(Value::Null, Value::U64)),
        ("error", obj(entries)),
    ]))
}

/// Renders a server→client notification line.
pub fn notification_line(method: &str, params: Value) -> String {
    line(&obj(vec![
        ("jsonrpc", Value::Str(VERSION.to_string())),
        ("method", Value::Str(method.to_string())),
        ("params", params),
    ]))
}

/// Parses one request line. On failure the error carries the proper
/// protocol code (and the request ID when it could still be read, so
/// the reply can reference it).
pub fn parse_request(text: &str) -> Result<RpcRequest, (Option<u64>, RpcError)> {
    let value: Value = serde_json::from_str(text).map_err(|e| {
        (
            None,
            RpcError::protocol(PARSE_ERROR, format!("parse error: {e}")),
        )
    })?;
    let id = match value.get_field("id") {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    };
    if value.get_field("jsonrpc").and_then(Value::as_str) != Some(VERSION) {
        return Err((
            id,
            RpcError::protocol(INVALID_REQUEST, "missing or wrong jsonrpc version"),
        ));
    }
    let Some(method) = value.get_field("method").and_then(Value::as_str) else {
        return Err((
            id,
            RpcError::protocol(INVALID_REQUEST, "missing method name"),
        ));
    };
    let params = value.get_field("params").cloned().unwrap_or(Value::Null);
    Ok(RpcRequest {
        id,
        method: method.to_string(),
        params,
    })
}

// ---------------------------------------------------------------------
// Typed parameter extraction
// ---------------------------------------------------------------------

/// Reads an unsigned integer parameter.
pub fn param_u64(params: &Value, name: &str) -> Option<u64> {
    match params.get_field(name) {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Reads a millisecond duration parameter as simulated time, to be
/// counted from the clock reading `from`. Like [`param_u64`], a missing
/// or non-integer value reads as `None`; a duration whose nanoseconds
/// overflow `u64`, or that would carry the clock past `u64::MAX`, is an
/// `INVALID_PARAMS` error.
pub(crate) fn param_ms(
    params: &Value,
    name: &str,
    from: SimTime,
) -> Result<Option<SimTime>, RpcError> {
    let Some(ms) = param_u64(params, name) else {
        return Ok(None);
    };
    ms.checked_mul(1_000_000)
        .filter(|ns| from.as_ns().checked_add(*ns).is_some())
        .map(|ns| Some(SimTime::from_ns(ns)))
        .ok_or_else(|| {
            RpcError::protocol(
                INVALID_PARAMS,
                format!("`{name}` = {ms} ms overflows the simulation clock"),
            )
        })
}

/// Reads a float parameter (integers coerce).
pub fn param_f64(params: &Value, name: &str) -> Option<f64> {
    match params.get_field(name) {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::U64(n)) => Some(*n as f64),
        Some(Value::I64(n)) => Some(*n as f64),
        _ => None,
    }
}

/// Reads a string parameter.
pub fn param_str<'a>(params: &'a Value, name: &str) -> Option<&'a str> {
    params.get_field(name).and_then(Value::as_str)
}

/// Reads a boolean parameter.
pub fn param_bool(params: &Value, name: &str) -> Option<bool> {
    match params.get_field(name) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Reads a 16-bit address/word parameter, rejecting out-of-range values.
pub fn param_u16(params: &Value, name: &str) -> Result<Option<u16>, RpcError> {
    match params.get_field(name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::U64(n)) if *n <= u64::from(u16::MAX) => Ok(Some(*n as u16)),
        Some(other) => Err(RpcError::protocol(
            INVALID_PARAMS,
            format!("`{name}` must be a 16-bit unsigned integer, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every [`EdbError`] variant crosses the wire intact: serialize
    /// into an error line, parse the line back, recover the identical
    /// variant. This is the no-stringly-typed-errors guarantee.
    #[test]
    fn edb_errors_round_trip_the_wire() {
        let variants = vec![
            EdbError::NotAttached { op: "READ" },
            EdbError::NoSession { op: "WRITE" },
            EdbError::CommandTimeout {
                cmd: "READ",
                attempts: 4,
            },
            EdbError::CorruptReply {
                cmd: "GET_PC",
                detail: "bad checksum".to_string(),
            },
            EdbError::AbortedByBrownout { cmd: "WRITE" },
            EdbError::Busy { cmd: "READ" },
            EdbError::LevelNotReached { target_v: 2.4 },
            EdbError::SessionDidNotOpen,
            EdbError::SessionDidNotClose,
            EdbError::Device {
                detail: "firmware does not assemble".to_string(),
            },
            EdbError::Rfid {
                detail: "bad crc".to_string(),
            },
            EdbError::NoRecording { op: "step_back" },
            EdbError::Replay {
                detail: "target precedes the recording start".to_string(),
            },
        ];
        let mut seen_codes = std::collections::BTreeSet::new();
        for error in variants {
            let rendered = error_line(Some(7), &RpcError::engine(&error));
            let value: Value = serde_json::from_str(&rendered).expect("line parses");
            let err_obj = value.get_field("error").expect("has error");
            let code = match err_obj.get_field("code") {
                Some(Value::I64(c)) => *c,
                other => panic!("code must be an integer, got {other:?}"),
            };
            assert!(
                seen_codes.insert(code),
                "error codes must be distinct per variant (collision at {code})"
            );
            let data = err_obj.get_field("data").expect("typed data present");
            let recovered = EdbError::from_value(data).expect("typed error deserializes");
            assert_eq!(recovered, error, "variant must round-trip exactly");
        }
    }

    #[test]
    fn request_lines_parse_and_reject() {
        let ok = parse_request(r#"{"jsonrpc":"2.0","id":3,"method":"status","params":{}}"#)
            .expect("valid request");
        assert_eq!(ok.id, Some(3));
        assert_eq!(ok.method, "status");

        let (_, err) = parse_request("not json").unwrap_err();
        assert_eq!(err.code, PARSE_ERROR);

        let (id, err) = parse_request(r#"{"jsonrpc":"1.0","id":9,"method":"x"}"#).unwrap_err();
        assert_eq!(id, Some(9));
        assert_eq!(err.code, INVALID_REQUEST);

        let (id, err) = parse_request(r#"{"jsonrpc":"2.0","id":4}"#).unwrap_err();
        assert_eq!(id, Some(4));
        assert_eq!(err.code, INVALID_REQUEST);
    }

    #[test]
    fn rendered_lines_have_fixed_key_order() {
        let r = response_line(1, obj(vec![("value", Value::U64(0x5AFE))]));
        assert_eq!(r, r#"{"jsonrpc":"2.0","id":1,"result":{"value":23294}}"#);
        let n = notification_line("vcap", obj(vec![("v", Value::F64(2.5))]));
        assert!(
            n.starts_with(r#"{"jsonrpc":"2.0","method":"vcap","params":"#),
            "{n}"
        );
    }

    #[test]
    fn protocol_and_engine_codes_do_not_overlap() {
        assert!(edb_error_code(&EdbError::SessionDidNotOpen) < EDB_ERROR_BASE);
        for code in [
            PARSE_ERROR,
            INVALID_REQUEST,
            METHOD_NOT_FOUND,
            INVALID_PARAMS,
        ] {
            assert!(!(EDB_ERROR_BASE - 100..=EDB_ERROR_BASE).contains(&code));
        }
    }
}
