//! Debugger-as-a-service: EDB sessions behind newline-delimited
//! JSON-RPC 2.0.
//!
//! The paper's debugger is a box on a bench wired to one target; this
//! crate turns the reproduction into a *service* hosting many simulated
//! targets at once, each one an [`edb_core::DebugSession`] driven
//! through the typed `DebugRequest` → `DebugResponse` engine API. The
//! split is deliberate (and mirrors the `edb-rs` exemplar): the engine
//! crate knows nothing about transports, and this crate knows nothing
//! about wire framing or energy models — it schedules engines and
//! speaks JSON-RPC.
//!
//! Determinism is the design constraint inherited from the rest of the
//! workspace: simulated time only advances inside an explicit request
//! (`run_until`, `step`, or a command exchange), each session is stepped
//! under its own lock, and every response and notification is rendered
//! with a fixed key order — so a scripted transcript replayed against
//! the server is **bit-reproducible** regardless of how many requests
//! run at once (`--threads 1` and `--threads 4` produce identical
//! bytes; the golden-transcript test in CI holds the server to that).
//!
//! Module map:
//!
//! * [`rpc`] — JSON-RPC 2.0 framing: request parsing, deterministic
//!   response rendering, and the 1:1 mapping from [`edb_core::EdbError`]
//!   variants onto RPC error codes (typed errors cross the wire intact).
//! * [`hub`] — the session hub: create/attach/destroy sessions, dispatch
//!   methods, stream event and `Vcap` notifications to subscribers.
//! * [`server`] — the TCP accept loop, the per-connection line protocol,
//!   and the `--threads` gate each request executes under on its
//!   connection's thread.
//! * [`client`] — a small blocking client (used by the TUI, the replay
//!   tool, and tests).
//! * [`transcript`] — scripted-session transcripts: parse, replay,
//!   record, diff.
//! * [`tui`] — the terminal frontend's frame renderer and view state,
//!   behind `edb tui`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod hub;
pub mod rpc;
pub mod server;
pub mod transcript;
pub mod tui;

pub use client::Client;
pub use hub::SessionHub;
pub use rpc::{RpcError, RpcRequest};
pub use server::{Server, ServerConfig};
pub use transcript::{ReplayReport, Transcript};
