//! The session hub: many hosted debug sessions behind one method table.
//!
//! The hub owns every [`DebugSession`] the server created, keyed by a
//! monotonically assigned session ID, each behind its own lock so
//! independent sessions make progress concurrently while any one
//! session steps strictly serially. All per-connection state (which
//! session is attached, event-stream cursors) lives in [`ConnState`] on
//! the connection, never in the hub — so two observers can stream the
//! same session independently and a dropped connection leaks nothing
//! into the next one.
//!
//! Determinism: simulated time advances only inside an explicit request
//! (`run_until`, `step`, a command exchange, `resume`, charge/
//! discharge), and [`dispatch`](SessionHub::dispatch) renders every
//! response and notification with a fixed key order. A scripted
//! transcript against one connection therefore replays bit-identically
//! at any worker-pool width.

use crate::rpc::{
    self, notification_line, obj, param_bool, param_f64, param_ms, param_str, param_u16, param_u64,
    param_us, parse_request, RpcError, RpcRequest,
};
use edb_core::fleet::{FleetConfig, FleetSim};
use edb_core::replay::verify_fleet;
use edb_core::{
    ChannelFaultConfig, DebugRequest, DebugResponse, DebugSession, FleetOp, FleetSpec, FleetTape,
    HarvesterSpec, SessionSpec, WorldSpec,
};
use edb_energy::SimTime;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Firmware presets a client can name in `create` instead of shipping
/// assembly source. Each is a small instrumented application over the
/// `libEDB` runtime.
pub const FIRMWARE_PRESETS: &[&str] = &["assert", "spin", "guard"];

/// Event tags excluded from an event subscription unless the client
/// names tags explicitly: the passive `Vcap` stream fires at the sample
/// rate and would drown an interactive feed.
pub const DEFAULT_EVENT_EXCLUDE: &[&str] = &["energy"];

fn preset_source(name: &str) -> Option<&'static str> {
    // Every preset wires the energy-breakpoint ISR vector so
    // `arm_energy_guard` is safe against any of them.
    match name {
        // Asserts ONCE at boot (so `wait_session_ms` catches an open
        // session), then — after the host resumes it — counts in FRAM,
        // pulsing watchpoint 2 every 256 iterations.
        "assert" => Some(
            r#"
            .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, 0x6000
            movi r0, 0x1101
            st   [r1], r0
            movi r0, 1
            call __edb_assert_fail
        loop:
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            mov  r2, r0
            and  r2, 0xFF
            jnz  loop
            movi r0, 2
            call __edb_watchpoint
            jmp  loop
            .org 0xFFFC
            .word __edb_isr
            .org 0xFFFE
            .word main
            "#,
        ),
        "spin" => Some(
            r#"
            .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, 0x6000
            movi r0, 0
        loop:
            add  r0, 1
            st   [r1], r0
            jmp  loop
            .org 0xFFFC
            .word __edb_isr
            .org 0xFFFE
            .word main
            "#,
        ),
        "guard" => Some(
            r#"
            .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, 0x6000
            movi r0, 0
        loop:
            add  r0, 1
            push r0
            push r1
            call __edb_guard_begin
            pop  r1
            pop  r0
            st   [r1], r0
            push r0
            push r1
            call __edb_guard_end
            pop  r1
            pop  r0
            jmp  loop
            .org 0xFFFC
            .word __edb_isr
            .org 0xFFFE
            .word main
            "#,
        ),
        _ => None,
    }
}

/// One event-stream subscription: which tags pass the filter and how
/// far into the session's log this connection has streamed.
#[derive(Debug, Clone)]
struct SubState {
    /// `None` means "everything except [`DEFAULT_EVENT_EXCLUDE`]".
    tags: Option<Vec<String>>,
    cursor: usize,
}

impl SubState {
    fn wants(&self, tag: &str) -> bool {
        match &self.tags {
            Some(tags) => tags.iter().any(|t| t == tag),
            None => !DEFAULT_EVENT_EXCLUDE.contains(&tag),
        }
    }
}

/// Per-connection state. Lives on the connection handler, not in the
/// hub, so every connection observes sessions independently.
#[derive(Debug, Default)]
pub struct ConnState {
    attached: Option<u64>,
    subs: BTreeMap<u64, SubState>,
}

impl ConnState {
    /// A fresh connection: attached to nothing, subscribed to nothing.
    pub fn new() -> Self {
        ConnState::default()
    }

    /// The session this connection is attached to, if any.
    pub fn attached(&self) -> Option<u64> {
        self.attached
    }
}

/// The outcome of dispatching one request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// Wire lines to send, in order: event notifications first, then
    /// exactly one response (none for a client notification).
    pub lines: Vec<String>,
    /// Whether the client asked the whole server to shut down.
    pub shutdown: bool,
}

struct HubInner {
    next_id: u64,
    sessions: BTreeMap<u64, Arc<Mutex<DebugSession>>>,
    next_fleet_id: u64,
    fleets: BTreeMap<u64, Arc<Mutex<FleetEntry>>>,
}

/// One hosted fleet: the simulation plus its replay tape. Everything
/// that advances the sim goes through [`FleetTape::run`], so an
/// exported `.edbr` recording replays the exact op sequence.
struct FleetEntry {
    sim: FleetSim,
    tape: FleetTape,
}

/// The shared registry of hosted sessions and the JSON-RPC method table
/// over them.
pub struct SessionHub {
    inner: Mutex<HubInner>,
}

impl std::fmt::Debug for SessionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("hub lock");
        f.debug_struct("SessionHub")
            .field("sessions", &inner.sessions.len())
            .finish_non_exhaustive()
    }
}

impl Default for SessionHub {
    fn default() -> Self {
        SessionHub::new()
    }
}

type MethodResult = Result<Value, RpcError>;

/// Parses recording container bytes into a typed error on failure.
fn edb_replay_recording(bytes: &[u8]) -> Result<edb_core::replay::Recording, RpcError> {
    edb_core::replay::Recording::from_bytes(bytes)
        .map_err(|e| RpcError::protocol(rpc::INVALID_REQUEST, format!("bad recording: {e}")))
}

impl SessionHub {
    /// An empty hub. Session IDs start at 1.
    pub fn new() -> Self {
        SessionHub {
            inner: Mutex::new(HubInner {
                next_id: 1,
                sessions: BTreeMap::new(),
                next_fleet_id: 1,
                fleets: BTreeMap::new(),
            }),
        }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.inner.lock().expect("hub lock").sessions.len()
    }

    fn session(&self, id: u64) -> Option<Arc<Mutex<DebugSession>>> {
        self.inner
            .lock()
            .expect("hub lock")
            .sessions
            .get(&id)
            .cloned()
    }

    fn fleet(&self, id: u64) -> Result<Arc<Mutex<FleetEntry>>, RpcError> {
        self.inner
            .lock()
            .expect("hub lock")
            .fleets
            .get(&id)
            .cloned()
            .ok_or_else(|| RpcError::protocol(rpc::INVALID_REQUEST, format!("fleet {id} is gone")))
    }

    /// Parses and executes one request line for one connection,
    /// returning the wire lines to send back (notifications first, then
    /// the response).
    pub fn dispatch(&self, conn: &mut ConnState, line: &str) -> Dispatch {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err((id, error)) => {
                return Dispatch {
                    lines: vec![rpc::error_line(id, &error)],
                    shutdown: false,
                }
            }
        };
        let mut shutdown = false;
        let result = self.execute(conn, &request, &mut shutdown);
        // Stream any events the request produced (or that other
        // connections produced since we last looked) before the
        // response, so a client reads causes before effects.
        let mut lines = self.drain_notifications(conn);
        if let Some(id) = request.id {
            lines.push(match result {
                Ok(value) => rpc::response_line(id, value),
                Err(error) => rpc::error_line(Some(id), &error),
            });
        }
        Dispatch { lines, shutdown }
    }

    /// Collects pending event notifications for every subscription this
    /// connection holds, advancing its cursors.
    fn drain_notifications(&self, conn: &mut ConnState) -> Vec<String> {
        let mut lines = Vec::new();
        let mut dead = Vec::new();
        for (&sid, sub) in conn.subs.iter_mut() {
            let Some(session) = self.session(sid) else {
                dead.push(sid);
                continue;
            };
            let session = session.lock().expect("session lock");
            let events = session.events();
            for (k, logged) in events.iter().enumerate().skip(sub.cursor) {
                let tag = logged.event.tag();
                if !sub.wants(tag) {
                    continue;
                }
                lines.push(notification_line(
                    "event",
                    obj(vec![
                        ("session", Value::U64(sid)),
                        ("seq", Value::U64(k as u64)),
                        ("time_ns", Value::U64(logged.at.as_ns())),
                        ("tag", Value::Str(tag.to_string())),
                        ("label", Value::Str(logged.event.label())),
                    ]),
                ));
            }
            sub.cursor = events.len();
        }
        for sid in dead {
            conn.subs.remove(&sid);
        }
        lines
    }

    fn attached_session(&self, conn: &ConnState) -> Result<Arc<Mutex<DebugSession>>, RpcError> {
        let sid = conn
            .attached
            .ok_or_else(|| RpcError::protocol(rpc::INVALID_REQUEST, "not attached to a session"))?;
        self.session(sid).ok_or_else(|| {
            RpcError::protocol(rpc::INVALID_REQUEST, format!("session {sid} is gone"))
        })
    }

    fn execute(
        &self,
        conn: &mut ConnState,
        request: &RpcRequest,
        shutdown: &mut bool,
    ) -> MethodResult {
        let p = &request.params;
        match request.method.as_str() {
            "server_info" => Ok(obj(vec![
                ("name", Value::Str("edb-serve".to_string())),
                ("version", Value::Str(env!("CARGO_PKG_VERSION").to_string())),
                ("jsonrpc", Value::Str(rpc::VERSION.to_string())),
                ("sessions", Value::U64(self.session_count() as u64)),
            ])),
            "create" => self.create(conn, p),
            "attach" => {
                let sid = param_u64(p, "session")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `session`"))?;
                if self.session(sid).is_none() {
                    return Err(RpcError::protocol(
                        rpc::INVALID_PARAMS,
                        format!("no session {sid}"),
                    ));
                }
                conn.attached = Some(sid);
                Ok(obj(vec![("session", Value::U64(sid))]))
            }
            "destroy" => {
                let sid = param_u64(p, "session")
                    .or(conn.attached)
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `session`"))?;
                let removed = self
                    .inner
                    .lock()
                    .expect("hub lock")
                    .sessions
                    .remove(&sid)
                    .is_some();
                if conn.attached == Some(sid) {
                    conn.attached = None;
                }
                conn.subs.remove(&sid);
                Ok(obj(vec![
                    ("session", Value::U64(sid)),
                    ("destroyed", Value::Bool(removed)),
                ]))
            }
            "sessions" => {
                let ids: Vec<Value> = self
                    .inner
                    .lock()
                    .expect("hub lock")
                    .sessions
                    .keys()
                    .map(|&id| Value::U64(id))
                    .collect();
                Ok(obj(vec![("sessions", Value::Seq(ids))]))
            }
            "subscribe_events" => {
                let sid = param_u64(p, "session")
                    .or(conn.attached)
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `session`"))?;
                if self.session(sid).is_none() {
                    return Err(RpcError::protocol(
                        rpc::INVALID_PARAMS,
                        format!("no session {sid}"),
                    ));
                }
                let tags = match p.get_field("tags") {
                    Some(Value::Seq(items)) => {
                        let mut tags = Vec::new();
                        for item in items {
                            match item.as_str() {
                                Some(tag) => tags.push(tag.to_string()),
                                None => {
                                    return Err(RpcError::protocol(
                                        rpc::INVALID_PARAMS,
                                        "`tags` must be an array of strings",
                                    ))
                                }
                            }
                        }
                        Some(tags)
                    }
                    _ => None,
                };
                // `from_start` replays the whole log; the default
                // streams only what happens from now on.
                let cursor = if param_bool(p, "from_start").unwrap_or(false) {
                    0
                } else {
                    let session = self.session(sid).expect("checked above");
                    let n = session.lock().expect("session lock").events().len();
                    n
                };
                let echo = match &tags {
                    Some(tags) => Value::Seq(tags.iter().map(|t| Value::Str(t.clone())).collect()),
                    None => Value::Null,
                };
                conn.subs.insert(sid, SubState { tags, cursor });
                Ok(obj(vec![("session", Value::U64(sid)), ("tags", echo)]))
            }
            "run_until" => {
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                let timeout = param_ms(p, "ms", session.now())?
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `ms`"))?;
                let opened = session.run_until_session(timeout);
                let mut status = session.status().to_value();
                push_field(&mut status, "session_opened", Value::Bool(opened));
                Ok(status)
            }
            "step" => {
                let count = param_u64(p, "count").unwrap_or(1);
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                for _ in 0..count {
                    session.step();
                }
                Ok(session.status().to_value())
            }
            "read" => {
                let addr = required_u16(p, "addr")?;
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                match session.perform(DebugRequest::ReadWord { addr })? {
                    DebugResponse::Word { value } => Ok(obj(vec![
                        ("addr", Value::U64(u64::from(addr))),
                        ("value", Value::U64(u64::from(value))),
                    ])),
                    other => Err(RpcError::protocol(
                        rpc::INVALID_REQUEST,
                        format!("engine returned {other:?} for a read"),
                    )),
                }
            }
            "write" => {
                let addr = required_u16(p, "addr")?;
                let value = required_u16(p, "value")?;
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                session.perform(DebugRequest::WriteWord { addr, value })?;
                Ok(obj(vec![
                    ("addr", Value::U64(u64::from(addr))),
                    ("value", Value::U64(u64::from(value))),
                    ("ack", Value::Bool(true)),
                ]))
            }
            "get_pc" => {
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                match session.perform(DebugRequest::GetPc)? {
                    DebugResponse::Pc { pc } => Ok(obj(vec![("pc", Value::U64(u64::from(pc)))])),
                    other => Err(RpcError::protocol(
                        rpc::INVALID_REQUEST,
                        format!("engine returned {other:?} for get_pc"),
                    )),
                }
            }
            "set_breakpoint" => {
                let id = param_u64(p, "id")
                    .filter(|&id| id <= u64::from(u8::MAX))
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "`id` must be a byte"))?
                    as u8;
                let energy = param_f64(p, "energy");
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                session.set_breakpoint(id, energy)?;
                Ok(obj(vec![
                    ("id", Value::U64(u64::from(id))),
                    ("energy", energy.map_or(Value::Null, Value::F64)),
                ]))
            }
            "clear_breakpoint" => {
                let id = param_u64(p, "id")
                    .filter(|&id| id <= u64::from(u8::MAX))
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "`id` must be a byte"))?
                    as u8;
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                session.clear_breakpoint(id)?;
                Ok(obj(vec![("id", Value::U64(u64::from(id)))]))
            }
            "breakpoints" => {
                let session = self.attached_session(conn)?;
                let session = session.lock().expect("session lock");
                let list: Vec<Value> = session
                    .breakpoints()
                    .into_iter()
                    .map(|(id, energy)| {
                        obj(vec![
                            ("id", Value::U64(u64::from(id))),
                            ("energy", energy.map_or(Value::Null, Value::F64)),
                        ])
                    })
                    .collect();
                Ok(obj(vec![("breakpoints", Value::Seq(list))]))
            }
            "arm_energy_guard" => {
                let threshold = param_f64(p, "threshold").ok_or_else(|| {
                    RpcError::protocol(rpc::INVALID_PARAMS, "missing `threshold`")
                })?;
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                session.arm_energy_guard(threshold)?;
                Ok(obj(vec![("threshold", Value::F64(threshold))]))
            }
            "charge" | "discharge" => {
                let to = param_f64(p, "to")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `to`"))?;
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                let v_cap = if request.method == "charge" {
                    session.charge_to(to)?
                } else {
                    session.discharge_to(to)?
                };
                Ok(obj(vec![
                    ("target", Value::F64(to)),
                    ("v_cap", Value::F64(v_cap)),
                ]))
            }
            "resume" => {
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                session.resume()?;
                Ok(session.status().to_value())
            }
            "step_back" => {
                let n = param_u64(p, "n").unwrap_or(1);
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                let landed = session.step_back(n)?;
                let mut status = session.status().to_value();
                push_field(&mut status, "landed_ns", Value::U64(landed.as_ns()));
                Ok(status)
            }
            "goto_time" => {
                let target = match param_u64(p, "ns") {
                    Some(ns) => SimTime::from_ns(ns),
                    None => param_ms(p, "ms", SimTime::ZERO)?.ok_or_else(|| {
                        RpcError::protocol(
                            rpc::INVALID_PARAMS,
                            "need `ns` or `ms` (absolute sim time)",
                        )
                    })?,
                };
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                let landed = session.goto_time(target)?;
                let mut status = session.status().to_value();
                push_field(&mut status, "landed_ns", Value::U64(landed.as_ns()));
                Ok(status)
            }
            "reverse_continue" => {
                let session = self.attached_session(conn)?;
                let mut session = session.lock().expect("session lock");
                let stopped = session.reverse_continue()?;
                let mut status = session.status().to_value();
                push_field(
                    &mut status,
                    "stopped_at_ns",
                    stopped.map_or(Value::Null, |t| Value::U64(t.as_ns())),
                );
                Ok(status)
            }
            "record_export" => {
                let session = self.attached_session(conn)?;
                let session = session.lock().expect("session lock");
                let recording = session.export_recording().ok_or_else(|| {
                    RpcError::protocol(rpc::INVALID_REQUEST, "session is not recording")
                })?;
                let bytes = recording.to_bytes();
                if let Some(path) = param_str(p, "path") {
                    std::fs::write(path, &bytes).map_err(|e| {
                        RpcError::protocol(
                            rpc::INVALID_REQUEST,
                            format!("cannot write `{path}`: {e}"),
                        )
                    })?;
                }
                Ok(obj(vec![
                    ("ops", Value::U64(recording.op_count() as u64)),
                    ("snapshots", Value::U64(recording.snapshot_count() as u64)),
                    ("bytes", Value::U64(bytes.len() as u64)),
                ]))
            }
            "status" => {
                let session = self.attached_session(conn)?;
                let session = session.lock().expect("session lock");
                Ok(session.status().to_value())
            }
            "disasm" => {
                let session = self.attached_session(conn)?;
                let session = session.lock().expect("session lock");
                let addr = param_u16(p, "addr")
                    .ok()
                    .flatten()
                    .unwrap_or(session.status().pc);
                let count = param_u64(p, "count").unwrap_or(8) as usize;
                let lines: Vec<Value> = session
                    .disasm(addr, count.min(64))
                    .into_iter()
                    .map(|(at, text)| {
                        obj(vec![
                            ("addr", Value::U64(u64::from(at))),
                            ("text", Value::Str(text)),
                        ])
                    })
                    .collect();
                Ok(obj(vec![
                    ("addr", Value::U64(u64::from(addr))),
                    ("lines", Value::Seq(lines)),
                ]))
            }
            "analyze" => {
                let session = self.attached_session(conn)?;
                let session = session.lock().expect("session lock");
                // Entry: explicit address, a symbol name, or (default)
                // wherever the PC currently sits.
                let entry = match (param_u16(p, "entry")?, param_str(p, "name")) {
                    (Some(addr), _) => Some(addr),
                    (None, Some(name)) => Some(session.symbol(name).ok_or_else(|| {
                        RpcError::protocol(rpc::INVALID_PARAMS, format!("unknown symbol `{name}`"))
                    })?),
                    (None, None) => None,
                };
                let v_start = param_f64(p, "v");
                Ok(session.analyze(entry, v_start).to_value())
            }
            "symbol" => {
                let name = param_str(p, "name")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `name`"))?;
                let session = self.attached_session(conn)?;
                let session = session.lock().expect("session lock");
                Ok(obj(vec![
                    ("name", Value::Str(name.to_string())),
                    (
                        "addr",
                        session
                            .symbol(name)
                            .map_or(Value::Null, |a| Value::U64(u64::from(a))),
                    ),
                ]))
            }
            "fleet_create" => {
                let tags = param_u64(p, "tags")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `tags`"))?
                    as usize;
                if tags == 0 || tags > 100_000 {
                    return Err(RpcError::protocol(
                        rpc::INVALID_PARAMS,
                        "`tags` must be in 1..=100000",
                    ));
                }
                let seed = param_u64(p, "seed").unwrap_or(1);
                let mut config = FleetConfig::standard(tags);
                if let Some(t) = param_ms(p, "duration_ms", SimTime::ZERO)? {
                    config.duration = t;
                }
                if let Some(d) = param_f64(p, "d_min") {
                    config.d_min = d;
                }
                if let Some(d) = param_f64(p, "d_max") {
                    config.d_max = d;
                }
                if let Some(b) = param_f64(p, "ber") {
                    config.ber_ref = b;
                }
                if config.d_min <= 0.0 || config.d_max < config.d_min {
                    return Err(RpcError::protocol(
                        rpc::INVALID_PARAMS,
                        "need 0 < d_min <= d_max",
                    ));
                }
                let spec = FleetSpec { config, seed };
                let sim = spec.build();
                let tape = FleetTape::new(spec, &sim);
                let fid = {
                    let mut inner = self.inner.lock().expect("hub lock");
                    let fid = inner.next_fleet_id;
                    inner.next_fleet_id += 1;
                    inner
                        .fleets
                        .insert(fid, Arc::new(Mutex::new(FleetEntry { sim, tape })));
                    fid
                };
                Ok(obj(vec![
                    ("fleet", Value::U64(fid)),
                    ("tags", Value::U64(tags as u64)),
                    ("seed", Value::U64(seed)),
                ]))
            }
            "fleet_run" => {
                let fid = param_u64(p, "fleet")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `fleet`"))?;
                let entry = self.fleet(fid)?;
                let mut entry = entry.lock().expect("fleet lock");
                let op = match (param_ms(p, "ms", entry.sim.now())?, param_u64(p, "slots")) {
                    (Some(t), _) => FleetOp::RunMs(t.as_ns() / 1_000_000),
                    (None, Some(slots)) => FleetOp::RunSlots(slots),
                    (None, None) => {
                        return Err(RpcError::protocol(
                            rpc::INVALID_PARAMS,
                            "need `ms` (carrier time) or `slots` (slot count)",
                        ))
                    }
                };
                // The tape both records the op and advances the sim, so
                // live runs and replays share one advance path.
                let FleetEntry { sim, tape } = &mut *entry;
                tape.run(sim, op);
                let stats = entry.sim.stats();
                Ok(obj(vec![
                    ("fleet", Value::U64(fid)),
                    ("sim_ms", Value::F64(entry.sim.now().as_millis_f64())),
                    ("rounds", Value::U64(stats.gen2.rounds)),
                    ("epcs", Value::U64(stats.gen2.epcs_read)),
                ]))
            }
            "fleet_export" => {
                let fid = param_u64(p, "fleet")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `fleet`"))?;
                let entry = self.fleet(fid)?;
                let entry = entry.lock().expect("fleet lock");
                let recording = entry.tape.export(&entry.sim);
                let bytes = recording.to_bytes();
                if let Some(path) = param_str(p, "path") {
                    std::fs::write(path, &bytes).map_err(|e| {
                        RpcError::protocol(
                            rpc::INVALID_REQUEST,
                            format!("cannot write `{path}`: {e}"),
                        )
                    })?;
                }
                Ok(obj(vec![
                    ("fleet", Value::U64(fid)),
                    ("ops", Value::U64(entry.tape.op_count() as u64)),
                    ("bytes", Value::U64(bytes.len() as u64)),
                ]))
            }
            "fleet_verify" => {
                let path = param_str(p, "path")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `path`"))?;
                let bytes = std::fs::read(path).map_err(|e| {
                    RpcError::protocol(rpc::INVALID_REQUEST, format!("cannot read `{path}`: {e}"))
                })?;
                let recording = edb_replay_recording(&bytes)?;
                let ops = verify_fleet(&recording).map_err(|e| {
                    RpcError::protocol(rpc::INVALID_REQUEST, format!("replay diverged: {e}"))
                })?;
                Ok(obj(vec![
                    ("ok", Value::Bool(true)),
                    ("ops", Value::U64(ops as u64)),
                ]))
            }
            "fleet_status" => {
                let fid = param_u64(p, "fleet")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `fleet`"))?;
                let entry = self.fleet(fid)?;
                let entry = entry.lock().expect("fleet lock");
                let sim = &entry.sim;
                let stats = sim.stats();
                let mut status = obj(vec![
                    ("fleet", Value::U64(fid)),
                    ("tags", Value::U64(stats.tags)),
                    ("sim_ms", Value::F64(sim.now().as_millis_f64())),
                    ("q", Value::U64(u64::from(sim.reader().q()))),
                    ("rounds", Value::U64(stats.gen2.rounds)),
                    ("slots", Value::U64(stats.gen2.slots())),
                    ("epcs", Value::U64(stats.gen2.epcs_read)),
                    ("collisions", Value::U64(stats.gen2.collision_slots)),
                    ("unique_tags_read", Value::U64(stats.unique_tags_read)),
                    ("powered", Value::U64(stats.powered_at_end)),
                    ("power_cycles", Value::U64(stats.power_cycles)),
                ]);
                if let Some(tag) = param_u64(p, "tag") {
                    let detail = sim.tag_status(tag as usize).ok_or_else(|| {
                        RpcError::protocol(
                            rpc::INVALID_PARAMS,
                            format!("tag {tag} is outside the fleet"),
                        )
                    })?;
                    push_field(
                        &mut status,
                        "tag",
                        obj(vec![
                            ("index", Value::U64(detail.index as u64)),
                            ("distance_m", Value::F64(detail.distance_m)),
                            ("v_cap", Value::F64(detail.v_cap)),
                            ("powered", Value::Bool(detail.powered)),
                            ("inventoried", Value::Bool(detail.inventoried)),
                            ("ever_read", Value::Bool(detail.ever_read)),
                            ("power_cycles", Value::U64(u64::from(detail.power_cycles))),
                            ("active_secs", Value::F64(detail.active_secs)),
                        ]),
                    );
                }
                Ok(status)
            }
            "fleet_destroy" => {
                let fid = param_u64(p, "fleet")
                    .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, "missing `fleet`"))?;
                let removed = self
                    .inner
                    .lock()
                    .expect("hub lock")
                    .fleets
                    .remove(&fid)
                    .is_some();
                if !removed {
                    return Err(RpcError::protocol(
                        rpc::INVALID_REQUEST,
                        format!("fleet {fid} is gone"),
                    ));
                }
                Ok(obj(vec![("destroyed", Value::U64(fid))]))
            }
            "shutdown" => {
                *shutdown = true;
                Ok(obj(vec![("ok", Value::Bool(true))]))
            }
            other => Err(RpcError::protocol(
                rpc::METHOD_NOT_FOUND,
                format!("unknown method `{other}`"),
            )),
        }
    }

    fn create(&self, conn: &mut ConnState, p: &Value) -> MethodResult {
        // Sessions are described by a rebuildable `SessionSpec` (not a
        // bare builder) so the hub can record them: the spec is embedded
        // in the tape and the recording replays in a fresh process.
        let source = match (param_str(p, "firmware"), param_str(p, "source")) {
            (Some(preset), _) => preset_source(preset).ok_or_else(|| {
                RpcError::protocol(
                    rpc::INVALID_PARAMS,
                    format!(
                        "unknown firmware preset `{preset}` (have: {})",
                        FIRMWARE_PRESETS.join(", ")
                    ),
                )
            })?,
            (None, Some(source)) => source,
            (None, None) => {
                return Err(RpcError::protocol(
                    rpc::INVALID_PARAMS,
                    "need `firmware` (a preset name) or `source` (assembly text)",
                ))
            }
        };
        let mut spec = SessionSpec::bench(source);
        if let Some(seed) = param_u64(p, "seed") {
            spec.seed = seed;
        }
        if let Some(h) = p.get_field("harvester") {
            spec.world = WorldSpec::Harvester {
                spec: HarvesterSpec::Thevenin {
                    v_oc: param_f64(h, "voc").unwrap_or(3.2),
                    r_src: param_f64(h, "r").unwrap_or(1500.0),
                },
            };
        } else if let Some(rfid) = p.get_field("rfid") {
            let distance = param_f64(rfid, "distance").ok_or_else(|| {
                RpcError::protocol(rpc::INVALID_PARAMS, "rfid needs `distance` (metres)")
            })?;
            spec.world = WorldSpec::Rfid {
                distance_m: distance,
            };
        }
        if let Some(deadline) = param_us(p, "deadline_us")? {
            spec.edb.cmd_timeout = deadline;
        }
        if let Some(retries) = param_u64(p, "retries") {
            spec.edb.cmd_retries = u32::try_from(retries).map_err(|_| {
                RpcError::protocol(
                    rpc::INVALID_PARAMS,
                    format!("`retries` = {retries} exceeds {}", u32::MAX),
                )
            })?;
        }
        if let Some(flush) = param_us(p, "retry_flush_us")? {
            spec.edb.retry_flush = flush;
        }
        if let Some(fault) = p.get_field("fault") {
            spec.channel_fault = Some(ChannelFaultConfig {
                bit_flip: param_f64(fault, "bit_flip").unwrap_or(0.0),
                drop: param_f64(fault, "drop").unwrap_or(0.0),
                duplicate: param_f64(fault, "duplicate").unwrap_or(0.0),
                seed: param_u64(fault, "seed").unwrap_or(0),
            });
        }
        let record = param_bool(p, "record").unwrap_or(true);
        let stride = param_u64(p, "record_stride").unwrap_or(32);
        let mut session = if record {
            spec.record(stride)
        } else {
            spec.build()
        }
        .map_err(|e| RpcError::engine(&e))?;
        let opened = match param_ms(p, "wait_session_ms", session.now())? {
            Some(timeout) => session.run_until_session(timeout),
            None => false,
        };
        let sid = {
            let mut inner = self.inner.lock().expect("hub lock");
            let sid = inner.next_id;
            inner.next_id += 1;
            inner.sessions.insert(sid, Arc::new(Mutex::new(session)));
            sid
        };
        conn.attached = Some(sid);
        Ok(obj(vec![
            ("session", Value::U64(sid)),
            ("session_active", Value::Bool(opened)),
            ("recording", Value::Bool(record)),
        ]))
    }
}

/// Appends a field to an object [`Value`] (no-op on non-objects).
fn push_field(value: &mut Value, name: &str, field: Value) {
    if let Value::Map(entries) = value {
        entries.push((Value::Str(name.to_string()), field));
    }
}

fn required_u16(params: &Value, name: &str) -> Result<u16, RpcError> {
    param_u16(params, name)?
        .ok_or_else(|| RpcError::protocol(rpc::INVALID_PARAMS, format!("missing `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(hub: &SessionHub, conn: &mut ConnState, id: u64, method: &str, params: &str) -> String {
        let line =
            format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#);
        let out = hub.dispatch(conn, &line);
        assert!(!out.shutdown);
        out.lines.last().expect("a response").clone()
    }

    #[test]
    fn create_read_write_walkthrough() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        let created = call(
            &hub,
            &mut conn,
            1,
            "create",
            r#"{"firmware":"assert","seed":7,"harvester":{"voc":3.2,"r":220.0},"wait_session_ms":2000}"#,
        );
        assert!(created.contains(r#""session":1"#), "{created}");
        assert!(created.contains(r#""session_active":true"#), "{created}");

        let read = call(&hub, &mut conn, 2, "read", r#"{"addr":24576}"#);
        assert!(read.contains(r#""value":4353"#), "{read}"); // 0x1101

        let write = call(
            &hub,
            &mut conn,
            3,
            "write",
            r#"{"addr":24576,"value":48879}"#,
        );
        assert!(write.contains(r#""ack":true"#), "{write}");
        let read = call(&hub, &mut conn, 4, "read", r#"{"addr":24576}"#);
        assert!(read.contains(r#""value":48879"#), "{read}"); // 0xBEEF

        let pc = call(&hub, &mut conn, 5, "get_pc", "{}");
        assert!(pc.contains(r#""pc":"#), "{pc}");
    }

    #[test]
    fn engine_errors_surface_typed_on_the_wire() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        // No wait_session: no open session, so a read is a typed
        // NoSession error, not a string.
        call(&hub, &mut conn, 1, "create", r#"{"firmware":"spin"}"#);
        let err = call(&hub, &mut conn, 2, "read", r#"{"addr":24576}"#);
        assert!(err.contains(r#""code":-32002"#), "{err}");
        assert!(err.contains("NoSession"), "{err}");
    }

    /// Satellite: time travel against a session created with
    /// `record:false` is the dedicated typed `NoRecording` error with
    /// its own stable wire code, not a generic replay failure.
    #[test]
    fn time_travel_without_recording_has_a_dedicated_wire_code() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        call(
            &hub,
            &mut conn,
            1,
            "create",
            r#"{"firmware":"spin","record":false}"#,
        );
        let err = call(&hub, &mut conn, 2, "step_back", r#"{"n":1}"#);
        assert!(err.contains(r#""code":-32012"#), "{err}");
        assert!(err.contains("NoRecording"), "{err}");
        assert!(err.contains("step_back"), "{err}");
        let err = call(&hub, &mut conn, 3, "goto_time", r#"{"ms":1}"#);
        assert!(err.contains(r#""code":-32012"#), "{err}");
        let err = call(&hub, &mut conn, 4, "reverse_continue", "{}");
        assert!(err.contains(r#""code":-32012"#), "{err}");
    }

    #[test]
    fn analyze_reports_over_rpc() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        call(
            &hub,
            &mut conn,
            1,
            "create",
            r#"{"firmware":"spin","record":false}"#,
        );
        // The spin preset loops forever: the honest verdict from its
        // entry is unbounded, with the CFG fully recovered.
        let report = call(&hub, &mut conn, 2, "analyze", r#"{"name":"main"}"#);
        assert!(report.contains(r#""wcec_cycles":null"#), "{report}");
        assert!(report.contains(r#""unbounded_reason":"#), "{report}");
        assert!(report.contains(r#""blocks":"#), "{report}");
        assert!(report.contains(r#""ckpt_advice":"#), "{report}");
        // An unknown symbol is a parameter error, not a panic.
        let err = call(&hub, &mut conn, 3, "analyze", r#"{"name":"nope"}"#);
        assert!(err.contains(r#""code":-32602"#), "{err}");
    }

    #[test]
    fn unknown_method_and_bad_params_are_protocol_errors() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        let err = call(&hub, &mut conn, 1, "frobnicate", "{}");
        assert!(err.contains(r#""code":-32601"#), "{err}");
        let err = call(&hub, &mut conn, 2, "create", r#"{"firmware":"nope"}"#);
        assert!(err.contains(r#""code":-32602"#), "{err}");
        let err = call(&hub, &mut conn, 3, "read", r#"{"addr":99999}"#);
        assert!(err.contains(r#""code":-32602"#), "{err}");

        // Durations whose nanoseconds overflow `u64`, or that would carry
        // the clock past it, are rejected before they reach a session,
        // and the session keeps answering afterwards.
        let create = |wait_ms: u64| {
            format!(
                r#"{{"firmware":"assert","harvester":{{"voc":3.2,"r":220.0}},"wait_session_ms":{wait_ms}}}"#
            )
        };
        let max = u64::MAX;
        let err = call(&hub, &mut conn, 4, "create", &create(max));
        assert!(err.contains(r#""code":-32602"#), "{err}");
        assert_eq!(hub.session_count(), 0, "a rejected create adds no session");
        let created = call(&hub, &mut conn, 5, "create", &create(2000));
        assert!(created.contains(r#""session_active":true"#), "{created}");
        let past_the_clock = max / 1_000_000; // fits in ns, but not added to `now`
        for (id, method, params) in [
            (6, "run_until", format!(r#"{{"ms":{max}}}"#)),
            (7, "run_until", format!(r#"{{"ms":{past_the_clock}}}"#)),
            (8, "goto_time", format!(r#"{{"ms":{max}}}"#)),
            (
                9,
                "fleet_create",
                format!(r#"{{"tags":4,"duration_ms":{max}}}"#),
            ),
        ] {
            let err = call(&hub, &mut conn, id, method, &params);
            assert!(err.contains(r#""code":-32602"#), "{method} {params}: {err}");
            let status = call(&hub, &mut conn, 100 + id, "status", "{}");
            assert!(status.contains(r#""session_active":true"#), "{status}");
        }
        let fleet = call(&hub, &mut conn, 10, "fleet_create", r#"{"tags":4}"#);
        assert!(fleet.contains(r#""fleet":1"#), "{fleet}");
        let params = format!(r#"{{"fleet":1,"ms":{max}}}"#);
        let err = call(&hub, &mut conn, 11, "fleet_run", &params);
        assert!(err.contains(r#""code":-32602"#), "{err}");
        let ran = call(&hub, &mut conn, 12, "fleet_run", r#"{"fleet":1,"ms":5}"#);
        assert!(ran.contains(r#""result""#), "{ran}");

        // The debugger's wire budget: microsecond durations that overflow
        // the clock and retry counts past `u32` are rejected, not
        // truncated or wrapped.
        let sessions = hub.session_count();
        let create = |extra: &str| {
            format!(
                r#"{{"firmware":"assert","harvester":{{"voc":3.2,"r":220.0}},"wait_session_ms":2000,{extra}}}"#
            )
        };
        for (id, extra) in [
            (13, format!(r#""deadline_us":{max}"#)),
            (14, format!(r#""retry_flush_us":{max}"#)),
            (15, format!(r#""retries":{}"#, u64::from(u32::MAX) + 1)),
        ] {
            let err = call(&hub, &mut conn, id, "create", &create(&extra));
            assert!(err.contains(r#""code":-32602"#), "{extra}: {err}");
        }
        assert_eq!(
            hub.session_count(),
            sessions,
            "rejected creates add nothing"
        );
        // The largest budget that fits still runs: the per-command
        // timeout times the retry budget saturates instead of
        // overflowing.
        let huge = create(&format!(
            r#""deadline_us":{},"retries":{}"#,
            max / 1_000,
            u32::MAX
        ));
        let created = call(&hub, &mut conn, 16, "create", &huge);
        assert!(created.contains(r#""session_active":true"#), "{created}");
        let read = call(&hub, &mut conn, 17, "read", r#"{"addr":17408}"#);
        assert!(read.contains(r#""result""#), "{read}");
    }

    #[test]
    fn event_subscription_streams_session_events() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        call(
            &hub,
            &mut conn,
            1,
            "create",
            r#"{"firmware":"assert","harvester":{"voc":3.2,"r":220.0}}"#,
        );
        // Subscribe from the start, then run until the assert opens a
        // session: the subscription must deliver the session-open event.
        call(
            &hub,
            &mut conn,
            2,
            "subscribe_events",
            r#"{"from_start":true}"#,
        );
        let line = r#"{"jsonrpc":"2.0","id":3,"method":"run_until","params":{"ms":2000}}"#;
        let out = hub.dispatch(&mut conn, line);
        let notes: Vec<&String> = out
            .lines
            .iter()
            .filter(|l| l.contains(r#""method":"event""#))
            .collect();
        assert!(
            notes.iter().any(|l| l.contains(r#""tag":"session-open""#)),
            "expected a session-open event, got {notes:?}"
        );
        // The default filter excludes the high-volume Vcap stream.
        assert!(
            notes.iter().all(|l| !l.contains(r#""tag":"energy""#)),
            "energy samples must be filtered by default"
        );
    }

    #[test]
    fn sessions_are_isolated() {
        let hub = SessionHub::new();
        let mut a = ConnState::new();
        let mut b = ConnState::new();
        let spec =
            r#"{"firmware":"assert","harvester":{"voc":3.2,"r":220.0},"wait_session_ms":2000}"#;
        call(&hub, &mut a, 1, "create", spec);
        call(&hub, &mut b, 1, "create", spec);
        assert_eq!(hub.session_count(), 2);
        call(&hub, &mut a, 2, "write", r#"{"addr":24576,"value":17}"#);
        call(&hub, &mut b, 2, "write", r#"{"addr":24576,"value":34}"#);
        let ra = call(&hub, &mut a, 3, "read", r#"{"addr":24576}"#);
        let rb = call(&hub, &mut b, 3, "read", r#"{"addr":24576}"#);
        assert!(ra.contains(r#""value":17"#), "{ra}");
        assert!(rb.contains(r#""value":34"#), "{rb}");
    }

    #[test]
    fn shutdown_flag_propagates() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        let out = hub.dispatch(
            &mut conn,
            r#"{"jsonrpc":"2.0","id":9,"method":"shutdown","params":{}}"#,
        );
        assert!(out.shutdown);
    }

    #[test]
    fn fleet_lifecycle_over_rpc() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        let created = call(
            &hub,
            &mut conn,
            1,
            "fleet_create",
            r#"{"tags":40,"seed":42,"d_min":0.4,"d_max":1.0}"#,
        );
        assert!(created.contains(r#""fleet":1"#), "{created}");
        assert!(created.contains(r#""tags":40"#), "{created}");

        let ran = call(&hub, &mut conn, 2, "fleet_run", r#"{"fleet":1,"ms":1500}"#);
        assert!(ran.contains(r#""rounds":"#), "{ran}");

        let status = call(&hub, &mut conn, 3, "fleet_status", r#"{"fleet":1,"tag":7}"#);
        assert!(status.contains(r#""tags":40"#), "{status}");
        assert!(status.contains(r#""unique_tags_read":"#), "{status}");
        assert!(status.contains(r#""distance_m":"#), "{status}");
        assert!(status.contains(r#""v_cap":"#), "{status}");

        // After 1.5 s of carrier at close range, most of a 40-tag
        // fleet has been read at least once.
        let unique: u64 = status
            .split(r#""unique_tags_read":"#)
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("parsable unique count");
        assert!(unique >= 20, "{status}");

        // Out-of-range tag detail is a parameter error, not a panic.
        let err = call(
            &hub,
            &mut conn,
            4,
            "fleet_status",
            r#"{"fleet":1,"tag":99}"#,
        );
        assert!(err.contains("outside the fleet"), "{err}");

        let gone = call(&hub, &mut conn, 5, "fleet_destroy", r#"{"fleet":1}"#);
        assert!(gone.contains(r#""destroyed":1"#), "{gone}");
        let err = call(&hub, &mut conn, 6, "fleet_status", r#"{"fleet":1}"#);
        assert!(err.contains("fleet 1 is gone"), "{err}");

        // Fleet IDs and session IDs are separate namespaces.
        let err = call(&hub, &mut conn, 7, "fleet_run", r#"{"fleet":1,"slots":1}"#);
        assert!(err.contains("error"), "{err}");
    }

    /// Satellite: `fleet_*` ops land on the replay tape, and the
    /// exported `.edbr` recording replays divergence-free — both
    /// through `verify_fleet` directly and over the `fleet_verify` RPC.
    #[test]
    fn fleet_sessions_export_verifiable_recordings() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        call(
            &hub,
            &mut conn,
            1,
            "fleet_create",
            r#"{"tags":30,"seed":5,"d_min":0.4,"d_max":0.9}"#,
        );
        call(&hub, &mut conn, 2, "fleet_run", r#"{"fleet":1,"ms":600}"#);
        call(&hub, &mut conn, 3, "fleet_run", r#"{"fleet":1,"slots":40}"#);
        call(&hub, &mut conn, 4, "fleet_run", r#"{"fleet":1,"ms":300}"#);

        let dir = std::env::temp_dir().join("edb-serve-fleet-tape-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.edbr");
        let path_str = path.to_str().unwrap().to_string();
        let exported = call(
            &hub,
            &mut conn,
            5,
            "fleet_export",
            &format!(r#"{{"fleet":1,"path":"{path_str}"}}"#),
        );
        assert!(exported.contains(r#""ops":3"#), "{exported}");

        // The artifact on disk replays from its embedded spec.
        let bytes = std::fs::read(&path).unwrap();
        let recording = edb_core::replay::Recording::from_bytes(&bytes).expect("parses");
        assert_eq!(verify_fleet(&recording), Ok(3));

        // And the RPC surface agrees.
        let verified = call(
            &hub,
            &mut conn,
            6,
            "fleet_verify",
            &format!(r#"{{"path":"{path_str}"}}"#),
        );
        assert!(verified.contains(r#""ok":true"#), "{verified}");
        assert!(verified.contains(r#""ops":3"#), "{verified}");

        // A corrupted artifact is rejected with a typed error.
        let mut broken = bytes.clone();
        let k = broken.len() / 2;
        broken[k] ^= 0x40;
        let broken_path = dir.join("broken.edbr");
        std::fs::write(&broken_path, &broken).unwrap();
        let err = call(
            &hub,
            &mut conn,
            7,
            "fleet_verify",
            &format!(r#"{{"path":"{}"}}"#, broken_path.to_str().unwrap()),
        );
        assert!(err.contains("error"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_determinism_over_rpc() {
        // Two fleets with the same seed must report identical status
        // after identical runs — the RPC surface keeps the engine's
        // reproducibility.
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        call(
            &hub,
            &mut conn,
            1,
            "fleet_create",
            r#"{"tags":25,"seed":9}"#,
        );
        call(
            &hub,
            &mut conn,
            2,
            "fleet_create",
            r#"{"tags":25,"seed":9}"#,
        );
        call(
            &hub,
            &mut conn,
            3,
            "fleet_run",
            r#"{"fleet":1,"slots":400}"#,
        );
        call(
            &hub,
            &mut conn,
            4,
            "fleet_run",
            r#"{"fleet":2,"slots":400}"#,
        );
        let a = call(&hub, &mut conn, 5, "fleet_status", r#"{"fleet":1,"tag":3}"#);
        let b = call(&hub, &mut conn, 6, "fleet_status", r#"{"fleet":2,"tag":3}"#);
        assert_eq!(
            a.replace(r#""fleet":1"#, "").replace(r#""id":5"#, ""),
            b.replace(r#""fleet":2"#, "").replace(r#""id":6"#, "")
        );
    }
}
