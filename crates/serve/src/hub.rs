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
//! at any `--threads` width.

use crate::rpc::{
    self, duration, notification_line, obj, param, parse_request, required, RpcError, RpcRequest,
};
use edb_apps::registry;
use edb_core::fleet::{FleetConfig, FleetSim};
use edb_core::replay::{verify_fleet, Recording};
use edb_core::{
    ChannelFaultConfig, DebugRequest, DebugResponse, DebugSession, Firmware, FleetOp, FleetSpec,
    FleetTape, HarvesterSpec, SessionSpec, WorldSpec,
};
use edb_energy::SimTime;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Event tags excluded from an event subscription unless the client
/// names tags explicitly: the passive `Vcap` stream fires at the sample
/// rate and would drown an interactive feed.
pub const DEFAULT_EVENT_EXCLUDE: &[&str] = &["energy"];

/// The most simulated time one request may run a model forward:
/// `run_until`'s and `fleet_run`'s `ms`, `create`'s `wait_session_ms`,
/// and how far a `goto_time` target lies past the session clock. A
/// request runs holding its session's lock and a `--threads` permit,
/// so a typed-valid far-future request is refused instead of run.
/// Sized above the 2 s the transcripts, benchmark and tests ask for at
/// most. Measured at the limit on a 2-core host: a session request
/// answers in under 0.5 s, `fleet_run` on a 10^5-tag fleet (the largest
/// `fleet_create` allows) in about 1.6 s.
pub const SIM_BUDGET: SimTime = SimTime::from_ms(2_500);

/// The most steps one request may take: `step`'s `count` (one quantum
/// each) and `fleet_run`'s `slots`. Sized above the 400 the tests ask
/// for at most; 1 000 slots of a 10^5-tag fleet take about 0.8 s on a
/// 2-core host.
pub const STEP_LIMIT: u64 = 1_000;

/// The largest recording file `fleet_verify` reads. A fleet tape holds
/// its spec and about 75 bytes per recorded op (the op and a digest, no
/// snapshots), so the limit leaves room for most of a million ops.
pub const VERIFY_READ_LIMIT: u64 = 64 << 20;

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

    /// The `session` param, defaulting to the attached session.
    fn session_param(&self, p: &Value) -> Result<u64, RpcError> {
        match self.attached {
            Some(sid) => Ok(param(p, "session")?.unwrap_or(sid)),
            None => required(p, "session"),
        }
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

/// Hosted objects of one kind under monotonically assigned IDs (from
/// 1), each behind its own lock.
struct Registry<T> {
    next_id: u64,
    entries: BTreeMap<u64, Arc<Mutex<T>>>,
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry {
            next_id: 1,
            entries: BTreeMap::new(),
        }
    }
}

impl<T> Registry<T> {
    fn insert(&mut self, value: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(id, Arc::new(Mutex::new(value)));
        id
    }
}

#[derive(Default)]
struct HubInner {
    sessions: Registry<DebugSession>,
    fleets: Registry<FleetEntry>,
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
#[derive(Default)]
pub struct SessionHub {
    inner: Mutex<HubInner>,
}

impl std::fmt::Debug for SessionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHub")
            .field("sessions", &self.session_count())
            .finish_non_exhaustive()
    }
}

type MethodResult = Result<Value, RpcError>;

impl SessionHub {
    /// An empty hub. Session IDs start at 1.
    pub fn new() -> Self {
        SessionHub::default()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.hub().sessions.entries.len()
    }

    /// The registry. Its critical sections only insert, look up and
    /// remove map entries, which cannot panic halfway, so a poisoned
    /// registry lock is still consistent and is entered as usual.
    fn hub(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on entry `id` of a registry under the entry's own lock:
    /// the one place a session or a fleet is locked. An entry whose lock
    /// a panicking request poisoned is removed from the hub and answers
    /// `INTERNAL_ERROR`, so no request can hurt another session.
    fn with_entry<T, R>(
        &self,
        kind: &str,
        registry: fn(&mut HubInner) -> &mut Registry<T>,
        id: u64,
        f: impl FnOnce(&mut T) -> Result<R, RpcError>,
    ) -> Result<R, RpcError> {
        let gone = || RpcError::invalid_request(format!("{kind} {id} is gone"));
        let entry = registry(&mut self.hub()).entries.get(&id).cloned();
        let entry = entry.ok_or_else(gone)?;
        let mut guard = entry.lock().map_err(|_| {
            registry(&mut self.hub()).entries.remove(&id);
            RpcError::internal(format!("{kind} {id} was removed after a panic"))
        })?;
        f(&mut guard)
    }

    /// Runs `f` on session `sid` (`None`: the connection is attached to
    /// nothing) under its lock.
    fn with_session<R>(
        &self,
        sid: Option<u64>,
        f: impl FnOnce(&mut DebugSession) -> Result<R, RpcError>,
    ) -> Result<R, RpcError> {
        let sid = sid.ok_or_else(|| RpcError::invalid_request("not attached to a session"))?;
        self.with_entry("session", |hub| &mut hub.sessions, sid, f)
    }

    /// Runs `f` on the fleet the `fleet` param names, under its lock.
    fn with_fleet(
        &self,
        p: &Value,
        f: impl FnOnce(u64, &mut FleetEntry) -> MethodResult,
    ) -> MethodResult {
        let fid = required(p, "fleet")?;
        self.with_entry("fleet", |hub| &mut hub.fleets, fid, |entry| f(fid, entry))
    }

    /// `sid`, if the hub hosts that session.
    fn existing(&self, sid: u64) -> Result<u64, RpcError> {
        let hosted = self.hub().sessions.entries.contains_key(&sid);
        hosted
            .then_some(sid)
            .ok_or_else(|| RpcError::invalid_params(format!("no session {sid}")))
    }

    /// Test hook, unreachable over the wire: poisons session `sid`'s
    /// lock the way a request that panics inside the session does.
    #[doc(hidden)]
    pub fn poison_session(&self, sid: u64) {
        let poison = || self.with_session(Some(sid), |_| -> MethodResult { panic!("test hook") });
        let _ = catch_unwind(AssertUnwindSafe(poison));
    }

    /// Parses and executes one request line for one connection,
    /// returning the wire lines to send back (notifications first, then
    /// the response).
    pub fn dispatch(&self, conn: &mut ConnState, line: &str) -> Dispatch {
        let mut shutdown = false;
        let lines = match parse_request(line) {
            Err((id, error)) => vec![rpc::error_line(id, &error)],
            Ok(request) => {
                // A panicking method answers a typed error; the session
                // whose lock it poisoned is quarantined when next used.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    self.execute(conn, &request, &mut shutdown)
                }))
                .unwrap_or_else(|panic| {
                    let what = (panic.downcast_ref::<String>().map(String::as_str))
                        .or_else(|| panic.downcast_ref::<&str>().copied());
                    let what = what.unwrap_or("no message");
                    Err(RpcError::internal(format!("the request panicked: {what}")))
                });
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
                lines
            }
        };
        Dispatch { lines, shutdown }
    }

    /// Collects pending event notifications for every subscription this
    /// connection holds, advancing its cursors. A subscription whose
    /// session is gone ends.
    fn drain_notifications(&self, conn: &mut ConnState) -> Vec<String> {
        let mut lines = Vec::new();
        conn.subs.retain(|&sid, sub| {
            self.with_session(Some(sid), |session| {
                let events = session.events();
                for (k, logged) in (sub.cursor..).zip(events.events_from(sub.cursor)) {
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
                Ok(())
            })
            .is_ok()
        });
        lines
    }

    /// The method table: each arm reads its params first, then runs
    /// under [`with_session`](Self::with_session) or
    /// [`with_fleet`](Self::with_fleet).
    fn execute(
        &self,
        conn: &mut ConnState,
        request: &RpcRequest,
        shutdown: &mut bool,
    ) -> MethodResult {
        let p = &request.params;
        let attached = conn.attached;
        match request.method.as_str() {
            "server_info" => Ok(fields(&[
                ("name", &"edb-serve"),
                ("version", &env!("CARGO_PKG_VERSION")),
                ("jsonrpc", &rpc::VERSION),
                ("sessions", &self.session_count()),
            ])),
            "create" => self.create(conn, p),
            "attach" => {
                let sid = self.existing(required(p, "session")?)?;
                conn.attached = Some(sid);
                Ok(fields(&[("session", &sid)]))
            }
            "destroy" => {
                let sid = conn.session_param(p)?;
                let removed = self.hub().sessions.entries.remove(&sid).is_some();
                if conn.attached == Some(sid) {
                    conn.attached = None;
                }
                conn.subs.remove(&sid);
                Ok(fields(&[("session", &sid), ("destroyed", &removed)]))
            }
            "sessions" => {
                let ids: Vec<u64> = self.hub().sessions.entries.keys().copied().collect();
                Ok(fields(&[("sessions", &ids)]))
            }
            "subscribe_events" => {
                let sid = self.existing(conn.session_param(p)?)?;
                let tags: Option<Vec<String>> = param(p, "tags")?;
                // `from_start` replays the whole log; the default
                // streams only what happens from now on.
                let cursor = if param(p, "from_start")?.unwrap_or(false) {
                    0
                } else {
                    self.with_session(Some(sid), |s| Ok(s.events().len()))?
                };
                let result = fields(&[("session", &sid), ("tags", &tags)]);
                conn.subs.insert(sid, SubState { tags, cursor });
                Ok(result)
            }
            "run_until" => self.with_session(attached, |s| {
                let timeout = duration(p, "ms", s.now())?.ok_or_else(|| RpcError::missing("ms"))?;
                let timeout = within_sim_budget(timeout, "`ms`")?;
                let opened = s.run_until_session(timeout);
                Ok(status_with(s, "session_opened", opened))
            }),
            "step" => {
                let count = within_step_limit(param(p, "count")?.unwrap_or(1), "count")?;
                self.with_session(attached, |s| {
                    for _ in 0..count {
                        s.step();
                    }
                    Ok(s.status().to_value())
                })
            }
            "read" => {
                let addr: u16 = required(p, "addr")?;
                self.with_session(attached, |s| {
                    match s.perform(DebugRequest::ReadWord { addr })? {
                        DebugResponse::Word { value } => {
                            Ok(fields(&[("addr", &addr), ("value", &value)]))
                        }
                        other => Err(unexpected(other, "read")),
                    }
                })
            }
            "write" => {
                let addr: u16 = required(p, "addr")?;
                let value: u16 = required(p, "value")?;
                self.with_session(attached, |s| {
                    s.perform(DebugRequest::WriteWord { addr, value })?;
                    Ok(fields(&[
                        ("addr", &addr),
                        ("value", &value),
                        ("ack", &true),
                    ]))
                })
            }
            "get_pc" => self.with_session(attached, |s| match s.perform(DebugRequest::GetPc)? {
                DebugResponse::Pc { pc } => Ok(fields(&[("pc", &pc)])),
                other => Err(unexpected(other, "get_pc")),
            }),
            "set_breakpoint" => {
                let id: u8 = required(p, "id")?;
                let energy: Option<f64> = param(p, "energy")?;
                self.with_session(attached, |s| {
                    s.set_breakpoint(id, energy)?;
                    Ok(fields(&[("id", &id), ("energy", &energy)]))
                })
            }
            "clear_breakpoint" => {
                let id: u8 = required(p, "id")?;
                self.with_session(attached, |s| {
                    s.clear_breakpoint(id)?;
                    Ok(fields(&[("id", &id)]))
                })
            }
            "breakpoints" => self.with_session(attached, |s| {
                let list = s.breakpoints().into_iter();
                let list = list.map(|(id, energy)| fields(&[("id", &id), ("energy", &energy)]));
                Ok(fields(&[("breakpoints", &list.collect::<Vec<_>>())]))
            }),
            "arm_energy_guard" => {
                let threshold: f64 = required(p, "threshold")?;
                self.with_session(attached, |s| {
                    s.arm_energy_guard(threshold)?;
                    Ok(fields(&[("threshold", &threshold)]))
                })
            }
            method @ ("charge" | "discharge") => {
                let to: f64 = required(p, "to")?;
                self.with_session(attached, |s| {
                    let v_cap = if method == "charge" {
                        s.charge_to(to)?
                    } else {
                        s.discharge_to(to)?
                    };
                    Ok(fields(&[("target", &to), ("v_cap", &v_cap)]))
                })
            }
            "resume" => self.with_session(attached, |s| {
                s.resume()?;
                Ok(s.status().to_value())
            }),
            "step_back" => {
                let n = param(p, "n")?.unwrap_or(1);
                self.with_session(attached, |s| {
                    let landed = s.step_back(n)?;
                    Ok(status_with(s, "landed_ns", landed.as_ns()))
                })
            }
            "goto_time" => {
                let target = match param(p, "ns")? {
                    Some(ns) => SimTime::from_ns(ns),
                    None => duration(p, "ms", SimTime::ZERO)?.ok_or_else(|| {
                        RpcError::invalid_params("need `ns` or `ms` (absolute sim time)")
                    })?,
                };
                self.with_session(attached, |s| {
                    within_sim_budget(target.since(s.now()), "the run to the target")?;
                    let landed = s.goto_time(target)?;
                    Ok(status_with(s, "landed_ns", landed.as_ns()))
                })
            }
            "reverse_continue" => self.with_session(attached, |s| {
                let stopped = s.reverse_continue()?.map(SimTime::as_ns);
                Ok(status_with(s, "stopped_at_ns", stopped))
            }),
            "record_export" => {
                let path = param(p, "path")?;
                self.with_session(attached, |s| {
                    let recording = s
                        .export_recording()
                        .ok_or_else(|| RpcError::invalid_request("session is not recording"))?;
                    Ok(fields(&[
                        ("ops", &recording.op_count()),
                        ("snapshots", &recording.snapshot_count()),
                        ("bytes", &save(path, &recording)?),
                    ]))
                })
            }
            "status" => self.with_session(attached, |s| Ok(s.status().to_value())),
            "disasm" => {
                let addr: Option<u16> = param(p, "addr")?;
                let count = param(p, "count")?.unwrap_or(8u64).min(64) as usize;
                self.with_session(attached, |s| {
                    let addr = addr.unwrap_or(s.status().pc);
                    let lines = s.disasm(addr, count).into_iter();
                    let lines = lines.map(|(at, text)| fields(&[("addr", &at), ("text", &text)]));
                    Ok(fields(&[
                        ("addr", &addr),
                        ("lines", &lines.collect::<Vec<_>>()),
                    ]))
                })
            }
            "analyze" => {
                // Entry: explicit address, a symbol name, or (default)
                // wherever the PC currently sits.
                let entry: Option<u16> = param(p, "entry")?;
                let name: Option<&str> = param(p, "name")?;
                let v_start = param(p, "v")?;
                self.with_session(attached, |s| {
                    let entry = match (entry, name) {
                        (None, Some(name)) => Some(s.symbol(name).ok_or_else(|| {
                            RpcError::invalid_params(format!("unknown symbol `{name}`"))
                        })?),
                        _ => entry,
                    };
                    Ok(s.analyze(entry, v_start).to_value())
                })
            }
            "symbol" => {
                let name: &str = required(p, "name")?;
                self.with_session(attached, |s| {
                    Ok(fields(&[("name", &name), ("addr", &s.symbol(name))]))
                })
            }
            "fleet_create" => {
                let tags: u64 = required(p, "tags")?;
                if !(1..=100_000).contains(&tags) {
                    return Err(RpcError::invalid_params("`tags` must be in 1..=100000"));
                }
                let seed: u64 = param(p, "seed")?.unwrap_or(1);
                let mut config = FleetConfig::standard(tags as usize);
                config.duration =
                    duration(p, "duration_ms", SimTime::ZERO)?.unwrap_or(config.duration);
                config.d_min = param(p, "d_min")?.unwrap_or(config.d_min);
                config.d_max = param(p, "d_max")?.unwrap_or(config.d_max);
                config.ber_ref = param(p, "ber")?.unwrap_or(config.ber_ref);
                if config.d_min <= 0.0 || config.d_max < config.d_min {
                    return Err(RpcError::invalid_params("need 0 < d_min <= d_max"));
                }
                let spec = FleetSpec { config, seed };
                let sim = spec.build();
                let tape = FleetTape::new(spec, &sim);
                let fid = self.hub().fleets.insert(FleetEntry { sim, tape });
                Ok(fields(&[("fleet", &fid), ("tags", &tags), ("seed", &seed)]))
            }
            "fleet_run" => {
                let slots = param(p, "slots")?;
                self.with_fleet(p, |fid, FleetEntry { sim, tape }| {
                    let op = match (duration(p, "ms", sim.now())?, slots) {
                        (Some(t), _) => {
                            FleetOp::RunMs(within_sim_budget(t, "`ms`")?.as_ns() / 1_000_000)
                        }
                        (None, Some(slots)) => {
                            FleetOp::RunSlots(within_step_limit(slots, "slots")?)
                        }
                        (None, None) => {
                            return Err(RpcError::invalid_params(
                                "need `ms` (carrier time) or `slots` (slot count)",
                            ))
                        }
                    };
                    // The tape both records the op and advances the sim,
                    // so live runs and replays share one advance path.
                    tape.run(sim, op);
                    let gen2 = sim.stats().gen2;
                    Ok(fields(&[
                        ("fleet", &fid),
                        ("sim_ms", &sim.now().as_millis_f64()),
                        ("rounds", &gen2.rounds),
                        ("epcs", &gen2.epcs_read),
                    ]))
                })
            }
            "fleet_export" => {
                let path = param(p, "path")?;
                self.with_fleet(p, |fid, FleetEntry { sim, tape }| {
                    Ok(fields(&[
                        ("fleet", &fid),
                        ("ops", &tape.op_count()),
                        ("bytes", &save(path, &tape.export(sim))?),
                    ]))
                })
            }
            "fleet_verify" => {
                let path: &str = required(p, "path")?;
                let bytes = read_recording(path, VERIFY_READ_LIMIT)?;
                let recording = Recording::from_bytes(&bytes)
                    .map_err(|e| RpcError::invalid_request(format!("bad recording: {e}")))?;
                let ops = verify_fleet(&recording)
                    .map_err(|e| RpcError::invalid_request(format!("replay diverged: {e}")))?;
                Ok(fields(&[("ok", &true), ("ops", &ops)]))
            }
            "fleet_status" => {
                let tag: Option<u64> = param(p, "tag")?;
                self.with_fleet(p, |fid, FleetEntry { sim, .. }| {
                    let stats = sim.stats();
                    let status = fields(&[
                        ("fleet", &fid),
                        ("tags", &stats.tags),
                        ("sim_ms", &sim.now().as_millis_f64()),
                        ("q", &sim.reader().q()),
                        ("rounds", &stats.gen2.rounds),
                        ("slots", &stats.gen2.slots()),
                        ("epcs", &stats.gen2.epcs_read),
                        ("collisions", &stats.gen2.collision_slots),
                        ("unique_tags_read", &stats.unique_tags_read),
                        ("powered", &stats.powered_at_end),
                        ("power_cycles", &stats.power_cycles),
                    ]);
                    let Some(tag) = tag else {
                        return Ok(status);
                    };
                    let detail = usize::try_from(tag).ok().and_then(|k| sim.tag_status(k));
                    let outside =
                        || RpcError::invalid_params(format!("tag {tag} is outside the fleet"));
                    Ok(with_field(status, "tag", detail.ok_or_else(outside)?))
                })
            }
            "fleet_destroy" => {
                let fid = required(p, "fleet")?;
                if self.hub().fleets.entries.remove(&fid).is_none() {
                    return Err(RpcError::invalid_request(format!("fleet {fid} is gone")));
                }
                Ok(fields(&[("destroyed", &fid)]))
            }
            "shutdown" => {
                *shutdown = true;
                Ok(fields(&[("ok", &true)]))
            }
            other => Err(RpcError::protocol(
                rpc::METHOD_NOT_FOUND,
                format!("unknown method `{other}`"),
            )),
        }
    }

    fn create(&self, conn: &mut ConnState, p: &Value) -> MethodResult {
        // A session is built from its rebuildable `SessionSpec`, so the
        // hub can record it: the spec is embedded in the tape and the
        // recording replays in a fresh process.
        let firmware = match (param::<&str>(p, "firmware")?, param::<&str>(p, "source")?) {
            (Some(name), _) => registry::find(name)
                .map(|app| app.firmware.clone())
                .ok_or_else(|| {
                    let names: Vec<&str> = registry::apps().iter().map(|app| app.name).collect();
                    RpcError::invalid_params(format!(
                        "unknown firmware `{name}` (have: {})",
                        names.join(", ")
                    ))
                })?,
            (None, Some(source)) => Firmware {
                source: String::from(source),
                wrap: true,
            },
            (None, None) => {
                return Err(RpcError::invalid_params(
                    "need `firmware` (a bundled app's name) or `source` (assembly text)",
                ))
            }
        };
        let mut spec = SessionSpec {
            firmware: Some(firmware),
            ..SessionSpec::bench("")
        };
        spec.seed = param(p, "seed")?.unwrap_or(spec.seed);
        if let Some(h) = param::<&Value>(p, "harvester")? {
            spec.world = WorldSpec::Harvester {
                spec: HarvesterSpec::Thevenin {
                    v_oc: param(h, "voc")?.unwrap_or(3.2),
                    r_src: positive(param(h, "r")?.unwrap_or(1500.0), "r")?,
                },
            };
        } else if let Some(rfid) = param::<&Value>(p, "rfid")? {
            spec.world = WorldSpec::Rfid {
                distance_m: positive(required(rfid, "distance")?, "distance")?,
            };
        }
        let edb = &mut spec.edb;
        edb.cmd_timeout = duration(p, "deadline_us", SimTime::ZERO)?.unwrap_or(edb.cmd_timeout);
        edb.cmd_retries = param(p, "retries")?.unwrap_or(edb.cmd_retries);
        edb.retry_flush = duration(p, "retry_flush_us", SimTime::ZERO)?.unwrap_or(edb.retry_flush);
        if let Some(fault) = param::<&Value>(p, "fault")? {
            spec.channel_fault = Some(ChannelFaultConfig {
                bit_flip: param(fault, "bit_flip")?.unwrap_or(0.0),
                drop: param(fault, "drop")?.unwrap_or(0.0),
                duplicate: param(fault, "duplicate")?.unwrap_or(0.0),
                seed: param(fault, "seed")?.unwrap_or(0),
            });
        }
        let record = param(p, "record")?.unwrap_or(true);
        let stride = param(p, "record_stride")?.unwrap_or(32);
        // A new session's clock reads zero.
        let wait = duration(p, "wait_session_ms", SimTime::ZERO)?;
        let wait = wait
            .map(|t| within_sim_budget(t, "`wait_session_ms`"))
            .transpose()?;
        let mut session = if record {
            spec.record(stride)
        } else {
            spec.build()
        }?;
        let opened = wait.is_some_and(|timeout| session.run_until_session(timeout));
        let sid = self.hub().sessions.insert(session);
        conn.attached = Some(sid);
        Ok(fields(&[
            ("session", &sid),
            ("session_active", &opened),
            ("recording", &record),
        ]))
    }
}

/// An object result: `(name, value)` fields, in order.
fn fields(entries: &[(&str, &dyn Serialize)]) -> Value {
    obj(entries
        .iter()
        .map(|&(name, v)| (name, v.to_value()))
        .collect())
}

/// Appends a field to an object [`Value`] (no-op on non-objects).
fn with_field(mut value: Value, name: &str, field: impl Serialize) -> Value {
    if let Value::Map(entries) = &mut value {
        entries.push((Value::Str(name.to_string()), field.to_value()));
    }
    value
}

/// The session's status with one more field appended.
fn status_with(session: &DebugSession, name: &str, field: impl Serialize) -> Value {
    with_field(session.status().to_value(), name, field)
}

/// `run`, if it is within [`SIM_BUDGET`]; `what` names it in the error.
fn within_sim_budget(run: SimTime, what: &str) -> Result<SimTime, RpcError> {
    if run <= SIM_BUDGET {
        return Ok(run);
    }
    let message =
        format!("{what} is {run} of simulated time, over the per-request budget of {SIM_BUDGET}");
    Err(RpcError::invalid_params(message))
}

/// `n`, if it is within [`STEP_LIMIT`]; `name` is the parameter.
fn within_step_limit(n: u64, name: &str) -> Result<u64, RpcError> {
    if n <= STEP_LIMIT {
        return Ok(n);
    }
    let message = format!("`{name}` = {n} is over the per-request step limit of {STEP_LIMIT}");
    Err(RpcError::invalid_params(message))
}

/// A physical parameter that must be positive and finite: a zero source
/// resistance or reader distance has no model.
fn positive(value: f64, name: &str) -> Result<f64, RpcError> {
    if value > 0.0 && value.is_finite() {
        return Ok(value);
    }
    let message = format!("`{name}` must be positive and finite, got {value}");
    Err(RpcError::invalid_params(message))
}

/// The error for an engine reply that does not answer the request.
fn unexpected(response: DebugResponse, method: &str) -> RpcError {
    RpcError::invalid_request(format!("engine returned {response:?} for {method}"))
}

/// Streams an exported recording to the client-named `path`, if any,
/// and returns its length in bytes; without a path it only counts them.
fn save(path: Option<&str>, recording: &Recording) -> Result<usize, RpcError> {
    let Some(path) = path else {
        return Ok(recording.encoded_len());
    };
    let cannot = |e: io::Error| RpcError::invalid_request(format!("cannot write `{path}`: {e}"));
    let file = File::create(path).map_err(cannot)?;
    recording.write_to(BufWriter::new(file)).map_err(cannot)
}

/// Reads the client-named recording at `path`: a regular file of at
/// most `cap` bytes. Anything else (a directory, a device such as
/// `/dev/zero`, a FIFO that would block the connection) is refused before
/// it is read, and a file that grows past `cap` while it is read stops
/// there.
fn read_recording(path: &str, cap: u64) -> Result<Vec<u8>, RpcError> {
    let refuse = |why: String| RpcError::invalid_request(format!("cannot read `{path}`: {why}"));
    let regular = |meta: std::fs::Metadata| {
        if !meta.is_file() {
            return Err(refuse("not a regular file".into()));
        }
        if meta.len() > cap {
            return Err(refuse(format!("over the {cap}-byte limit")));
        }
        Ok(())
    };
    // Checked before the open, which would block on a FIFO, and again
    // on the opened file.
    regular(std::fs::metadata(path).map_err(|e| refuse(e.to_string()))?)?;
    let file = File::open(path).map_err(|e| refuse(e.to_string()))?;
    regular(file.metadata().map_err(|e| refuse(e.to_string()))?)?;
    let mut bytes = Vec::new();
    file.take(cap + 1)
        .read_to_end(&mut bytes)
        .map_err(|e| refuse(e.to_string()))?;
    if bytes.len() as u64 > cap {
        return Err(refuse(format!("over the {cap}-byte limit")));
    }
    Ok(bytes)
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
        call(
            &hub,
            &mut conn,
            1,
            "create",
            r#"{"firmware":"spin-volatile"}"#,
        );
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
            r#"{"firmware":"spin-volatile","record":false}"#,
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
            r#"{"firmware":"spin-volatile","record":false}"#,
        );
        // The spin-volatile app loops forever: the honest verdict from its
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

        // Physical values with no model, and params of the wrong type,
        // are rejected: never handed to the engine, never read as absent.
        let sessions = hub.session_count();
        for (id, method, params) in [
            (
                18,
                "create",
                r#"{"firmware":"spin-volatile","harvester":{"r":0}}"#,
            ),
            (
                19,
                "create",
                r#"{"firmware":"spin-volatile","rfid":{"distance":0}}"#,
            ),
            (
                20,
                "create",
                r#"{"firmware":"spin-volatile","record":"no"}"#,
            ),
            (
                21,
                "create",
                r#"{"firmware":"assert","wait_session_ms":"2000"}"#,
            ),
            (22, "create", r#"{"firmware":"spin-volatile","seed":"7"}"#),
            (
                23,
                "create",
                r#"{"firmware":"spin-volatile","harvester":5}"#,
            ),
            (24, "step", r#"{"count":"3"}"#),
            (25, "subscribe_events", r#"{"tags":"energy"}"#),
            (26, "disasm", r#"{"addr":99999}"#),
        ] {
            let err = call(&hub, &mut conn, id, method, params);
            assert!(err.contains(r#""code":-32602"#), "{method} {params}: {err}");
        }
        assert_eq!(
            hub.session_count(),
            sessions,
            "rejected creates add nothing"
        );
        let status = call(&hub, &mut conn, 27, "status", "{}");
        assert!(status.contains(r#""session_active":true"#), "{status}");

        // Typed-valid requests past the per-request budgets are refused
        // before they run, naming the limit, and the session keeps
        // answering.
        let over_ms = SIM_BUDGET.as_ns() / 1_000_000 + 1;
        for (id, method, params, limit) in [
            (28, "goto_time", format!(r#"{{"ns":{max}}}"#), "budget"),
            (29, "step", format!(r#"{{"count":{max}}}"#), "step limit"),
            (30, "run_until", format!(r#"{{"ms":{over_ms}}}"#), "budget"),
        ] {
            let err = call(&hub, &mut conn, id, method, &params);
            assert!(err.contains(r#""code":-32602"#), "{method} {params}: {err}");
            assert!(err.contains(limit), "{method} {params}: {err}");
            let status = call(&hub, &mut conn, 100 + id, "status", "{}");
            assert!(status.contains(r#""session_active":true"#), "{status}");
        }
        let at_limits = [
            ("step", format!(r#"{{"count":{STEP_LIMIT}}}"#)),
            ("run_until", format!(r#"{{"ms":{}}}"#, over_ms - 1)),
        ];
        for (method, params) in at_limits {
            let ran = call(&hub, &mut conn, 31, method, &params);
            assert!(ran.contains(r#""result""#), "{method} {params}: {ran}");
        }
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
    fn record_export_streams_the_exported_bytes() {
        let hub = SessionHub::new();
        let mut conn = ConnState::new();
        let created = call(
            &hub,
            &mut conn,
            1,
            "create",
            r#"{"firmware":"assert","seed":3,"wait_session_ms":2000}"#,
        );
        assert!(created.contains(r#""recording":true"#), "{created}");
        call(&hub, &mut conn, 2, "resume", "{}");
        call(&hub, &mut conn, 3, "run_until", r#"{"ms":30}"#);

        let dir = std::env::temp_dir().join(format!("edb-serve-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.edbr");
        let params = format!(r#"{{"path":"{}"}}"#, path.to_str().unwrap());
        let saved = call(&hub, &mut conn, 4, "record_export", &params);
        let counted = call(&hub, &mut conn, 5, "record_export", "{}");
        let file = std::fs::read(&path).unwrap();
        let expected = hub
            .with_session(Some(1), |s| {
                Ok(s.export_recording().expect("recording").to_bytes())
            })
            .unwrap();
        assert!(file == expected, "the file is not the exported recording");
        let bytes = format!(r#""bytes":{}"#, file.len());
        assert!(saved.contains(&bytes), "{saved}");
        assert!(counted.contains(&bytes), "{counted}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recording_reads_are_bounded() {
        let dir = std::env::temp_dir().join(format!("edb-serve-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hundred.edbr");
        std::fs::write(&path, [7u8; 100]).unwrap();
        let path = path.to_str().unwrap();
        assert_eq!(read_recording(path, 100).expect("at the cap"), vec![7; 100]);
        let over = read_recording(path, 99).expect_err("over the cap");
        assert_eq!(over.code, -32600);
        assert!(over.message.contains("over the 99-byte limit"), "{over:?}");
        let not_file = read_recording(dir.to_str().unwrap(), 100).expect_err("a directory");
        assert!(
            not_file.message.contains("not a regular file"),
            "{not_file:?}"
        );
        let missing = read_recording(&format!("{path}.gone"), 100).expect_err("missing");
        assert_eq!(missing.code, -32600);
        #[cfg(unix)]
        {
            let zero = read_recording("/dev/zero", 100).expect_err("a device");
            assert!(zero.message.contains("not a regular file"), "{zero:?}");
        }
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
