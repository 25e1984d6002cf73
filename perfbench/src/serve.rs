//! `timetravel-serve`: an in-process `edb_serve::Server` (pool width
//! [`POOL_WIDTH`]) under a closed loop of [`CONNECTIONS`] blocking
//! `Client` connections. Each connection sends its next request only
//! after the previous reply, and loops one debug episode shaped like
//! the golden serve transcript: create a recording session and wait for
//! the boot assert, subscribe to events, an inspection burst, a
//! breakpoint, energy guard and disassembly, resume / run_until / step,
//! step_back / goto_time / reverse_continue, then record_export and
//! destroy.
//!
//! Every episode also exports the recording of its forward run, after
//! step and before time travel cuts the tape, outside the episode's
//! timing: that recording gives `recording_bytes`. The first [`SAVED`]
//! episodes write it to disk; after the loop each is loaded,
//! re-encoded and replayed with `edb_core::replay::verify`. A traced
//! pass additionally times the snapshot codec and time travel on a
//! replayed session, and runs [`DIRECT`] episodes straight through
//! `SessionHub::dispatch` to split the call latency into dispatch and
//! transport.

use crate::bench::{ms, Budget, Metrics, Pass};
use crate::stats::median;
use crate::trace::{SpanRec, Tracer};
use edb_bench::runner::seed_for;
use edb_core::replay::{self, Recording};
use edb_energy::SimTime;
use edb_serve::hub::ConnState;
use edb_serve::rpc::{self, obj};
use edb_serve::{Client, Server, ServerConfig, SessionHub};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "timetravel-serve";

/// Server worker-pool width.
pub const POOL_WIDTH: usize = 2;

/// Closed-loop client connections, one load-generator thread each.
pub const CONNECTIONS: usize = 2;

/// Episodes whose recordings are saved and verified.
pub const SAVED: usize = 4;

/// Episodes run straight through `SessionHub::dispatch` in a traced
/// pass.
pub const DIRECT: usize = 2;

/// Snapshot encode/decode repetitions per saved recording in a traced
/// pass.
const CODEC_REPS: usize = 5;

/// Interactive methods: the `rpc_p50_us` population.
const INTERACTIVE: [&str; 4] = ["status", "get_pc", "read", "write"];

/// Time-travel methods: the `timetravel_p50_ms` population.
const TIME_TRAVEL: [&str; 3] = ["step_back", "goto_time", "reverse_continue"];

/// Methods with their own per-layer latency metric.
const PER_METHOD: [(&str, &str); 8] = [
    ("create", "serve.create.p50_us"),
    ("run_until", "serve.run_until.p50_us"),
    ("step", "serve.step.p50_us"),
    ("step_back", "serve.step_back.p50_us"),
    ("goto_time", "serve.goto_time.p50_us"),
    ("record_export", "serve.record_export.p50_us"),
    ("read", "serve.read.p50_us"),
    ("status", "serve.status.p50_us"),
];

/// Event tags the episode subscribes to (the transcript's list).
const EVENT_TAGS: [&str; 8] = [
    "turn-on",
    "brown-out",
    "assert",
    "breakpoint",
    "session-open",
    "session-close",
    "guard-enter",
    "guard-exit",
];

/// The running server and its connected clients.
pub struct Served {
    // Clients drop first, so the server's connection threads see EOF.
    clients: Vec<Client>,
    _server: Server,
}

/// Set-up: start the server and connect every client, each confirmed
/// with a `server_info` round trip.
pub fn setup() -> Served {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: POOL_WIDTH,
    })
    .expect("the benchmark's server binds a loopback port");
    let clients = (0..CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(server.addr()).expect("client connects");
            let info = client.call("server_info", vec![]).expect("server_info");
            assert!(info.outcome.is_ok(), "server_info failed: {info:?}");
            client
        })
        .collect();
    Served {
        clients,
        _server: server,
    }
}

/// A way to issue one JSON-RPC call.
trait Transport {
    fn call(&mut self, method: &str, params: Vec<(&str, Value)>) -> Result<Value, String>;
}

impl Transport for Client {
    fn call(&mut self, method: &str, params: Vec<(&str, Value)>) -> Result<Value, String> {
        match Client::call(self, method, params) {
            Ok(out) => out
                .outcome
                .map_err(|e| format!("rpc error {}: {}", e.code, e.message)),
            Err(e) => Err(format!("transport: {e}")),
        }
    }
}

/// `SessionHub::dispatch` called directly on the lines a client sends.
struct Direct {
    hub: SessionHub,
    conn: ConnState,
    next_id: u64,
}

impl Transport for Direct {
    fn call(&mut self, method: &str, params: Vec<(&str, Value)>) -> Result<Value, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = serde_json::to_string(&obj(vec![
            ("jsonrpc", Value::Str(rpc::VERSION.to_string())),
            ("id", Value::U64(id)),
            ("method", Value::Str(method.to_string())),
            ("params", obj(params)),
        ]))
        .map_err(|e| format!("request does not render: {e:?}"))?;
        let out = self.hub.dispatch(&mut self.conn, &line);
        let reply = out.lines.last().ok_or("no reply line")?;
        let value: Value =
            serde_json::from_str(reply).map_err(|e| format!("malformed reply: {e:?}"))?;
        if let Some(err) = value.get_field("error") {
            return Err(format!("rpc error {err:?}"));
        }
        value
            .get_field("result")
            .cloned()
            .ok_or_else(|| "reply has neither result nor error".to_string())
    }
}

/// Issues calls for one episode, timing each.
struct Caller<'a, T: Transport> {
    transport: &'a mut T,
    tracer: &'a Tracer,
    pass: &'a mut Pass,
    /// Sample key prefix: `us` for client calls, `dispatch.us` for
    /// direct dispatch.
    prefix: &'static str,
    /// Time spent in calls excluded from the episode, nanoseconds.
    untimed_ns: u128,
}

impl<T: Transport> Caller<'_, T> {
    fn call(&mut self, method: &'static str, params: Vec<(&str, Value)>) -> Option<Value> {
        let t0 = Instant::now();
        let out = {
            let _g = self.tracer.span(span_name(self.prefix, method));
            self.transport.call(method, params)
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.pass.sample(&format!("{}.{method}", self.prefix), us);
        self.check_reply(method, out)
    }

    /// A call outside the episode's timing (saving a recording).
    fn call_untimed(&mut self, method: &'static str, params: Vec<(&str, Value)>) -> Option<Value> {
        let t0 = Instant::now();
        let out = self.transport.call(method, params);
        self.untimed_ns += t0.elapsed().as_nanos();
        self.check_reply(method, out)
    }

    fn check_reply(&mut self, method: &str, out: Result<Value, String>) -> Option<Value> {
        match out {
            Ok(v) => {
                self.pass.gate.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.pass
                    .gate
                    .check(false, || format!("{NAME}: {method}: {e}"));
                None
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.pass.gate.check(ok, what);
    }
}

fn span_name(prefix: &str, method: &str) -> &'static str {
    let direct = prefix != "us";
    match (direct, method) {
        (false, "create") => "serve.create",
        (false, "run_until") => "serve.run_until",
        (false, "step") => "serve.step",
        (false, "step_back") => "serve.step_back",
        (false, "goto_time") => "serve.goto_time",
        (false, "reverse_continue") => "serve.reverse_continue",
        (false, "record_export") => "serve.record_export",
        (false, "read") => "serve.read",
        (false, "write") => "serve.write",
        (false, "status") => "serve.status",
        (false, "get_pc") => "serve.get_pc",
        (false, _) => "serve.call",
        (true, _) => "serve.dispatch",
    }
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

fn field_u64(v: &Value, name: &str) -> Option<u64> {
    match v.get_field(name) {
        Some(Value::U64(x)) => Some(*x),
        _ => None,
    }
}

/// One debug episode; returns the size of the forward run's recording.
fn episode<T: Transport>(
    caller: &mut Caller<'_, T>,
    seed: u64,
    save: Option<&Path>,
) -> Option<u64> {
    let r_src = 200.0 + (seed % 41) as f64;
    // 1. A recording session on the assert firmware, parked at its
    // boot-time assert.
    let created = caller.call(
        "create",
        vec![
            ("firmware", Value::Str("assert".into())),
            ("seed", u(seed)),
            (
                "harvester",
                obj(vec![("voc", Value::F64(3.2)), ("r", Value::F64(r_src))]),
            ),
            ("wait_session_ms", u(2000)),
        ],
    )?;
    let active = created.get_field("session_active") == Some(&Value::Bool(true));
    caller.check(active, || {
        format!("{NAME}: create did not reach the assert")
    });
    // 2. Events.
    let tags = Value::Seq(
        EVENT_TAGS
            .iter()
            .map(|t| Value::Str(t.to_string()))
            .collect(),
    );
    caller.call(
        "subscribe_events",
        vec![("from_start", Value::Bool(true)), ("tags", tags)],
    )?;
    // 3. Inspection burst.
    for i in 0..3u64 {
        let value = ((seed >> 16) ^ i) & 0xFFFF;
        caller.call("status", vec![])?;
        caller.call("get_pc", vec![])?;
        caller.call("read", vec![("addr", u(0x6000))])?;
        caller.call("write", vec![("addr", u(0x6000)), ("value", u(value))])?;
        let back = caller.call("read", vec![("addr", u(0x6000))])?;
        let got = field_u64(&back, "value");
        caller.check(got == Some(value), || {
            format!("{NAME}: wrote {value:#x}, read back {got:?}")
        });
    }
    // 4. Breakpoint, energy guard, disassembly.
    let main = caller.call("symbol", vec![("name", Value::Str("main".into()))])?;
    let main = field_u64(&main, "addr").unwrap_or(0x4400);
    caller.call(
        "set_breakpoint",
        vec![("id", u(1)), ("energy", Value::F64(2.0))],
    )?;
    caller.call("arm_energy_guard", vec![("threshold", Value::F64(1.9))])?;
    caller.call("disasm", vec![("addr", u(main)), ("count", u(6))])?;
    // 5. Forward.
    caller.call("resume", vec![])?;
    caller.call("run_until", vec![("ms", u(40 + seed % 21))])?;
    caller.call("step", vec![("count", u(50))])?;
    // The recording of the forward run, exported outside the episode's
    // timing before time travel cuts the tape back to the boot assert.
    // This is the recording measured, saved and verified.
    let params = save.map_or_else(Vec::new, |path| {
        vec![("path", Value::Str(path.to_string_lossy().into_owned()))]
    });
    let forward = caller.call_untimed("record_export", params)?;
    let bytes = field_u64(&forward, "bytes");
    let ops = field_u64(&forward, "ops");
    caller.check(
        bytes.is_some_and(|b| b > 0) && ops.is_some_and(|n| n > 1),
        || format!("{NAME}: forward record_export reported {bytes:?} bytes, {ops:?} ops"),
    );
    // 6. Time travel.
    caller.call("step_back", vec![("n", u(1000))])?;
    caller.call("goto_time", vec![("ms", u(30))])?;
    let stopped = caller.call("reverse_continue", vec![])?;
    let at_assert = field_u64(&stopped, "stopped_at_ns").is_some();
    caller.check(at_assert, || {
        format!("{NAME}: reverse_continue found no stop")
    });
    // 7. Export and tear down.
    let exported = caller.call("record_export", vec![])?;
    let cut = field_u64(&exported, "bytes");
    caller.check(cut.is_some_and(|b| b > 0), || {
        format!("{NAME}: record_export reported {cut:?} bytes")
    });
    let gone = caller.call("destroy", vec![])?;
    let destroyed = gone.get_field("destroyed") == Some(&Value::Bool(true));
    caller.check(destroyed, || format!("{NAME}: destroy left the session"));
    bytes
}

fn episode_seed(seed: u64, k: usize) -> u64 {
    seed_for(seed, NAME, k as u64)
}

fn saved_path(out_dir: &Path, k: usize) -> PathBuf {
    out_dir.join(format!("episode-{k}.edbr"))
}

/// Runs episodes on every connection until the budget ends, then checks
/// the saved recordings.
///
/// The connections run in rounds: each starts one episode, and the next
/// round starts when all have finished. A referenced budget does its
/// between-episode work ([`Pass::between_episodes`]) between rounds,
/// while no client or server thread runs, and scales all of the round's
/// episodes by that reference timing.
pub fn pass(
    served: &mut Served,
    seed: u64,
    budget: Budget,
    tracer: &Tracer,
    out_dir: &Path,
) -> Pass {
    let barrier = Barrier::new(CONNECTIONS);
    let go = AtomicBool::new(true);
    let rounds = Mutex::new(Pass::default());
    let started = Instant::now();
    let mut pass = Pass::default();
    let per_conn: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (barrier, go, rounds) = (&barrier, &go, &rounds);
                s.spawn(move || {
                    let mut p = Pass::default();
                    for round in 0.. {
                        if barrier.wait().is_leader() {
                            go.store(budget.more(round * CONNECTIONS), Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        let k = round * CONNECTIONS + i;
                        if !matches!(budget, Budget::Count(n) if k >= n) {
                            run_client_episode(client, seed, k, tracer, out_dir, &mut p);
                        }
                        if barrier.wait().is_leader() && budget.referenced() {
                            let mut rounds = rounds.lock().expect("rounds lock");
                            rounds.between_episodes(CONNECTIONS);
                        }
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let rounds = rounds.into_inner().expect("rounds lock");
    for mut p in per_conn {
        if budget.referenced() {
            // One episode per round on every connection.
            p.reference_ms = rounds.reference_ms[..p.episode_ms.len()].to_vec();
        }
        pass.merge(p);
    }
    pass.peak_rss_mb = rounds.peak_rss_mb;
    pass.wall_s = started.elapsed().as_secs_f64();
    let episodes = pass.episode_ms.len();
    for k in 0..SAVED.min(episodes) {
        check_recording(&mut pass, &saved_path(out_dir, k), k == 0, tracer);
    }
    if tracer.is_on() {
        for k in 0..DIRECT.min(episodes) {
            let mut direct = Direct {
                hub: SessionHub::new(),
                conn: ConnState::new(),
                next_id: 1,
            };
            let mut caller = Caller {
                transport: &mut direct,
                tracer,
                pass: &mut pass,
                prefix: "dispatch.us",
                untimed_ns: 0,
            };
            episode(&mut caller, episode_seed(seed, k), None);
        }
    }
    pass
}

fn run_client_episode(
    client: &mut Client,
    seed: u64,
    k: usize,
    tracer: &Tracer,
    out_dir: &Path,
    p: &mut Pass,
) {
    let save = (k < SAVED).then(|| saved_path(out_dir, k));
    let t0 = Instant::now();
    let root = tracer.episode("serve.episode");
    let mut caller = Caller {
        transport: client,
        tracer,
        pass: p,
        prefix: "us",
        untimed_ns: 0,
    };
    let bytes = episode(&mut caller, episode_seed(seed, k), save.as_deref());
    let untimed_ns = caller.untimed_ns;
    drop(root);
    let wall = t0.elapsed().as_nanos().saturating_sub(untimed_ns);
    p.episode_ms.push(wall as f64 / 1e6);
    if let Some(bytes) = bytes {
        p.sample("recording_bytes", bytes as f64);
        if k == 0 {
            p.gate.pin(format!("{NAME}.recording_bytes"), bytes);
        }
    }
}

/// Loads, re-encodes and verifies one saved recording; in a traced pass
/// also times the snapshot codec and time travel on the replayed
/// session.
fn check_recording(pass: &mut Pass, path: &Path, first: bool, tracer: &Tracer) {
    let loaded = {
        let _g = tracer.span("replay.load");
        std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                let t0 = Instant::now();
                let rec = Recording::from_bytes(&bytes).map_err(|e| e.to_string());
                rec.map(|rec| (bytes, rec, ms(t0.elapsed())))
            })
    };
    let (bytes, rec, load_ms) = match loaded {
        Ok(x) => x,
        Err(e) => {
            pass.gate
                .check(false, || format!("{NAME}: load {}: {e}", path.display()));
            return;
        }
    };
    pass.sample("load_ms", load_ms);
    let t0 = Instant::now();
    let again = {
        let _g = tracer.span("replay.export");
        rec.to_bytes()
    };
    pass.sample("export_ms", ms(t0.elapsed()));
    pass.gate.check(again == bytes, || {
        format!(
            "{NAME}: {} does not re-encode byte-identically",
            path.display()
        )
    });
    let t0 = Instant::now();
    let verified = {
        let _g = tracer.span("replay.verify");
        replay::verify(&rec)
    };
    pass.sample("verify_s", t0.elapsed().as_secs_f64());
    let ops = rec.op_count();
    match verified {
        Ok(report) => {
            pass.gate.check(report.ops == ops, || {
                format!("{NAME}: verify re-ran {} of {ops} ops", report.ops)
            });
        }
        Err(e) => {
            pass.gate.check(false, || format!("{NAME}: verify: {e}"));
        }
    }
    if first {
        pass.set("ep0.snapshots", rec.snapshot_count() as f64);
        pass.set("ep0.ops", ops as f64);
        let gate = &mut pass.gate;
        gate.pin(format!("{NAME}.ops"), ops as u64);
        gate.pin(format!("{NAME}.snapshots"), rec.snapshot_count() as u64);
        let (end_ns, digest) = rec.end.unwrap_or((0, 0));
        gate.pin(format!("{NAME}.end_ns"), end_ns);
        gate.pin(format!("{NAME}.state_digest"), digest);
    }
    if tracer.is_on() {
        codec_and_time_travel(pass, &rec, tracer, first);
    }
}

fn codec_and_time_travel(pass: &mut Pass, rec: &Recording, tracer: &Tracer, first: bool) {
    let mut session = match replay::replay(rec) {
        Ok(s) => s,
        Err(e) => {
            pass.gate.check(false, || format!("{NAME}: replay: {e}"));
            return;
        }
    };
    let digest = session.system().state_digest();
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        let encoded = {
            let _g = tracer.span("codec.encode");
            session
                .system()
                .save_state()
                .map(|state| edb_replay::value_bytes(&state))
        };
        pass.sample("encode_us", t0.elapsed().as_secs_f64() * 1e6);
        let Some(encoded) = encoded else {
            pass.gate
                .check(false, || format!("{NAME}: bench cannot snapshot"));
            return;
        };
        if first {
            pass.set("ep0.snapshot_bytes", encoded.len() as f64);
        }
        let t0 = Instant::now();
        let restored = {
            let _g = tracer.span("codec.decode");
            let mut pos = 0;
            edb_replay::decode_value(&encoded, &mut pos)
                .map_err(|e| e.to_string())
                .and_then(|state| {
                    session
                        .system_mut()
                        .restore_state(&state)
                        .map_err(|e| e.to_string())
                })
        };
        pass.sample("decode_us", t0.elapsed().as_secs_f64() * 1e6);
        let same = restored.is_ok() && session.system().state_digest() == digest;
        pass.gate.check(same, || {
            format!("{NAME}: snapshot round trip changed the state ({restored:?})")
        });
    }
    // Time travel on the replayed session: record a 50 ms stretch, then
    // step back and jump into its middle.
    let start = session.now();
    session.start_recording(None, 32);
    session.advance(SimTime::from_ms(50));
    let t0 = Instant::now();
    let back = {
        let _g = tracer.span("replay.step_back");
        session.step_back(1000)
    };
    pass.sample("step_back_ms", ms(t0.elapsed()));
    let target = start + SimTime::from_ms(20);
    let t0 = Instant::now();
    let landed = {
        let _g = tracer.span("replay.goto_time");
        session.goto_time(target)
    };
    pass.sample("goto_time_ms", ms(t0.elapsed()));
    pass.gate
        .check(back.is_ok(), || format!("{NAME}: step_back: {back:?}"));
    // goto_time lands where running forward to the target lands (the
    // first instruction boundary at or after it), in the same state.
    let forward = replay::replay(rec).map(|mut forward| {
        forward.advance(target - start);
        (forward.now(), forward.system().state_digest())
    });
    let here = landed.map(|t| (t, session.system().state_digest()));
    pass.gate.check(
        matches!((&here, &forward), (Ok(h), Ok(f)) if h == f),
        || format!("{NAME}: goto_time reached {here:?}, running forward reached {forward:?}"),
    );
}

fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn pooled(pass: &Pass, prefix: &str, methods: &[&str]) -> Vec<f64> {
    methods
        .iter()
        .flat_map(|m| pass.samples_of(&format!("{prefix}.{m}")).iter().copied())
        .collect()
}

/// Per-layer metrics: the serve figures users see from the untraced
/// pass, layer times from the traced pass.
pub fn layers(untraced: &Pass, traced: &Pass, _spans: &[SpanRec], out: &mut Metrics) {
    out.insert(
        "timetravel-serve.rpc_p50_us",
        p50(&pooled(untraced, "us", &INTERACTIVE)),
    );
    out.insert(
        "timetravel-serve.timetravel_p50_ms",
        p50(&pooled(untraced, "us", &TIME_TRAVEL)) / 1e3,
    );
    out.insert(
        "timetravel-serve.recording_bytes",
        p50(untraced.samples_of("recording_bytes")),
    );
    out.insert(
        "timetravel-serve.verify_s",
        p50(untraced.samples_of("verify_s")),
    );
    out.insert("codec.snapshot_bytes", traced.get("ep0.snapshot_bytes"));
    out.insert("codec.encode_us", p50(traced.samples_of("encode_us")));
    out.insert("codec.decode_us", p50(traced.samples_of("decode_us")));
    out.insert(
        "replay.goto_time_ms",
        p50(traced.samples_of("goto_time_ms")),
    );
    out.insert(
        "replay.step_back_ms",
        p50(traced.samples_of("step_back_ms")),
    );
    out.insert("replay.export_ms", p50(traced.samples_of("export_ms")));
    out.insert("replay.load_ms", p50(traced.samples_of("load_ms")));
    out.insert("replay.snapshots", traced.get("ep0.snapshots"));
    out.insert("replay.ops", traced.get("ep0.ops"));
    for (method, metric) in PER_METHOD {
        out.insert(metric, p50(traced.samples_of(&format!("us.{method}"))));
    }
    let dispatch = p50(&pooled(traced, "dispatch.us", &INTERACTIVE));
    out.insert("serve.dispatch.p50_us", dispatch);
    out.insert(
        "serve.transport.p50_us",
        p50(&pooled(traced, "us", &INTERACTIVE)) - dispatch,
    );
}

/// Tail figures for the run's report: `(label, summary text)`.
pub fn tails(pass: &Pass) -> Vec<(String, String)> {
    use crate::stats::Summary;
    let mut out = Vec::new();
    if let Some(s) = Summary::of(&pooled(pass, "us", &INTERACTIVE)) {
        out.push(("rpc (status/get_pc/read/write)".into(), s.describe("us")));
    }
    let tt: Vec<f64> = pooled(pass, "us", &TIME_TRAVEL)
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    if let Some(s) = Summary::of(&tt) {
        out.push(("time travel".into(), s.describe("ms")));
    }
    if let Some(s) = Summary::of(pass.samples_of("recording_bytes")) {
        out.push(("recording".into(), s.describe("bytes")));
    }
    if let Some(s) = Summary::of(pass.samples_of("verify_s")) {
        out.push(("replay::verify".into(), s.describe("s")));
    }
    out
}
