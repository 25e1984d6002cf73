//! A small blocking JSON-RPC client over one TCP connection.
//!
//! Used by the TUI, the transcript replay tool, and the integration
//! tests. One request is in flight at a time: [`Client::call`] writes a
//! line and reads until the matching response arrives, collecting any
//! server notifications that precede it.

use crate::rpc::{self, obj, RpcError};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Everything one request produced: the notifications the server
/// streamed ahead of the response, and the response itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// Server notifications (parsed `params`, with `method` under the
    /// `_method` key untouched — these are the raw notification
    /// objects, in arrival order).
    pub notifications: Vec<Value>,
    /// The response `result`, or the typed error.
    pub outcome: Result<Value, RpcError>,
}

/// A blocking JSON-RPC connection to a session server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends one raw request line and reads every reply line up to and
    /// including the response (the line carrying an `id`). The request
    /// must carry an `id` itself, or this blocks forever.
    pub fn exchange_line(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        // One write, so the request leaves as one segment.
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            let n = self.reader.read_line(&mut reply)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-request",
                ));
            }
            let reply = reply.trim_end().to_string();
            let is_response = serde_json::from_str::<Value>(&reply)
                .map(|v| v.get_field("id").is_some())
                .unwrap_or(false);
            lines.push(reply);
            if is_response {
                return Ok(lines);
            }
        }
    }

    /// Calls a method with an object of params, returning the parsed
    /// outcome. Engine failures come back as the typed [`RpcError`]
    /// (recover the exact [`edb_core::EdbError`] with
    /// [`RpcError::to_edb_error`]).
    pub fn call(
        &mut self,
        method: &str,
        params: Vec<(&str, Value)>,
    ) -> std::io::Result<CallOutcome> {
        let id = self.next_id;
        self.next_id += 1;
        let line = serde_json::to_string(&obj(vec![
            ("jsonrpc", Value::Str(rpc::VERSION.to_string())),
            ("id", Value::U64(id)),
            ("method", Value::Str(method.to_string())),
            ("params", obj(params)),
        ]))
        .expect("request renders");
        let lines = self.exchange_line(&line)?;
        let mut notifications = Vec::new();
        let mut outcome = None;
        for text in &lines {
            let Ok(value) = serde_json::from_str::<Value>(text) else {
                continue;
            };
            if value.get_field("id").is_none() {
                notifications.push(value);
                continue;
            }
            outcome = Some(match value.get_field("error") {
                Some(err) => Err(parse_error(err)),
                None => Ok(value.get_field("result").cloned().unwrap_or(Value::Null)),
            });
        }
        let outcome = outcome.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no response line")
        })?;
        Ok(CallOutcome {
            notifications,
            outcome,
        })
    }
}

/// Reconstructs a typed [`RpcError`] from a response's `error` object.
fn parse_error(err: &Value) -> RpcError {
    let code = match err.get_field("code") {
        Some(Value::I64(c)) => *c,
        Some(Value::U64(c)) => *c as i64,
        _ => 0,
    };
    let message = err
        .get_field("message")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    RpcError {
        code,
        message,
        data: err.get_field("data").cloned(),
    }
}
