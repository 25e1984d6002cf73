//! `edb tui`: a live terminal client for the session server.
//!
//! Shows the capacitor voltage, PC, disassembly around the PC, the
//! breakpoint list, and the event feed of one hosted session, and maps
//! console commands onto the JSON-RPC surface.
//!
//! Without `--connect`, a server is self-hosted in-process. With
//! `--script FILE`, commands are read from the file instead of stdin
//! and each resulting frame is printed to stdout — the headless mode CI
//! exercises.

use crate::Args;
use edb_apps::registry::App;
use edb_serve::tui::{field, TuiState};
use edb_serve::{Client, Server, ServerConfig};
use serde::Value;
use std::io::Write;

pub fn run(args: Args) {
    let app = args.app.expect("the TUI has a default app");
    let seed = args.number("--seed").unwrap_or(1);
    // Self-host unless pointed at a running server.
    let mut hosted = None;
    let addr = match args.value("--connect") {
        Some(addr) => addr.to_string(),
        None => {
            let server = Server::start(ServerConfig::default())
                .unwrap_or_else(|e| args.fail(format!("cannot self-host: {e}")));
            let addr = server.addr().to_string();
            hosted = Some(server);
            addr
        }
    };
    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| args.fail(format!("cannot connect to {addr}: {e}")));

    let mut state = TuiState::new();
    create_session(&mut client, &mut state, &args, app, seed);
    refresh(&mut client, &mut state);

    let script = args.value("--script").map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| args.fail(format!("cannot read {path}: {e}")))
    });
    let mut lines: Box<dyn Iterator<Item = String>> = match &script {
        Some(text) => Box::new(text.lines().map(String::from)),
        None => Box::new(std::io::stdin().lines().map_while(Result::ok)),
    };
    loop {
        // Interactively, the frame comes before the prompt; a script
        // echoes each command and prints the frame after it.
        if script.is_none() {
            print!("\x1b[2J\x1b[H{}edb> ", state.draw());
            std::io::stdout().flush().ok();
        }
        let Some(line) = lines.next() else { break };
        let command = line.trim();
        if command.is_empty() || (script.is_some() && command.starts_with('#')) {
            continue;
        }
        if script.is_some() {
            println!("--- {command}");
        }
        if !run_command(&mut client, &mut state, command) {
            break;
        }
        refresh(&mut client, &mut state);
        if script.is_some() {
            print!("{}", state.draw());
        }
    }
    drop(client);
    if let Some(mut server) = hosted {
        server.stop();
    }
}

fn create_session(client: &mut Client, state: &mut TuiState, args: &Args, app: &App, seed: u64) {
    let outcome = client
        .call(
            "create",
            vec![
                ("firmware", Value::Str(app.name.to_string())),
                ("seed", Value::U64(seed)),
                (
                    "harvester",
                    edb_serve::rpc::obj(vec![("voc", Value::F64(3.2)), ("r", Value::F64(220.0))]),
                ),
                ("wait_session_ms", Value::U64(2000)),
            ],
        )
        .unwrap_or_else(|e| args.fail(format!("create failed: {e}")));
    match &outcome.outcome {
        Ok(result) => {
            state.session = field(result, "session");
            state.note(format!(
                "session {} created ({})",
                state.session.unwrap_or(0),
                app.name
            ));
        }
        Err(e) => args.fail(format!("create failed: {} (code {})", e.message, e.code)),
    }
    let _ = client.call("subscribe_events", vec![("from_start", Value::Bool(true))]);
}

/// What a result updates besides the note line.
type Apply = fn(&mut TuiState, &Value);

/// A request: method, params, and what its result updates.
type Request<'a> = (&'a str, Vec<(&'a str, Value)>, Option<Apply>);

/// Quietly refreshes the panes (status, disassembly, breakpoints).
fn refresh(client: &mut Client, state: &mut TuiState) {
    let panes: [Request; 3] = [
        ("status", vec![], Some(TuiState::apply_status)),
        (
            "disasm",
            vec![("count", Value::U64(12))],
            Some(TuiState::apply_disasm),
        ),
        ("breakpoints", vec![], Some(TuiState::apply_breakpoints)),
    ];
    for (method, params, apply) in panes {
        if let Ok(out) = client.call(method, params) {
            absorb(state, &out.notifications);
            if let (Ok(result), Some(apply)) = (&out.outcome, apply) {
                apply(state, result);
            }
        }
    }
}

fn absorb(state: &mut TuiState, notifications: &[Value]) {
    for note in notifications {
        state.push_event(note);
    }
}

/// Sends one request and notes its result or error; returns the result.
fn call(
    client: &mut Client,
    state: &mut TuiState,
    method: &str,
    params: Vec<(&str, Value)>,
) -> Option<Value> {
    let out = match client.call(method, params) {
        Ok(out) => out,
        Err(e) => {
            state.note(format!("{method}: transport error: {e}"));
            return None;
        }
    };
    absorb(state, &out.notifications);
    match out.outcome {
        Ok(result) => {
            let json = serde_json::to_string(&result).unwrap_or_default();
            state.note(format!("{method}: {json}"));
            Some(result)
        }
        Err(e) => {
            // The no-recording code gets a remedial hint: rewinding
            // needs a recording session.
            let hint = if e.code == edb_serve::rpc::EDB_ERROR_BASE - 12 {
                " — hint: create the session with record:true to time-travel"
            } else {
                ""
            };
            state.note(format!("{method}: {} (code {}){hint}", e.message, e.code));
            None
        }
    }
}

/// `analyze [entry|symbol]`. The full report is large, so the note
/// carries its verdict; the JSON-RPC method (or `edb analyze`) has the
/// rest.
fn analyze(client: &mut Client, state: &mut TuiState, target: Option<&str>) {
    let params = match target {
        None => vec![],
        Some(target) => match parse_u16(target) {
            Some(addr) => vec![("entry", Value::U64(u64::from(addr)))],
            None => vec![("name", Value::Str(target.to_string()))],
        },
    };
    match client.call("analyze", params) {
        Ok(out) => {
            absorb(state, &out.notifications);
            match out.outcome {
                Ok(report) => state.note(summarize_analysis(&report)),
                Err(e) => state.note(format!("analyze: {} (code {})", e.message, e.code)),
            }
        }
        Err(e) => state.note(format!("analyze: transport error: {e}")),
    }
}

/// One-line digest of an `analyze` report for the event feed.
fn summarize_analysis(report: &Value) -> String {
    let blocks = field(report, "blocks").unwrap_or(0u64);
    let unresolved = field::<Vec<&Value>>(report, "unresolved").map_or(0, |items| items.len());
    match field::<u64>(report, "wcec_cycles") {
        Some(cycles) => {
            let completes = field(report, "completes_on_one_charge").unwrap_or(false);
            let charges = field(report, "charge_cycles").unwrap_or(0u64);
            format!(
                "analyze: WCEC {cycles} cycles, {} on one charge ({charges} charge cycle(s), \
                 {blocks} blocks, {unresolved} unresolved)",
                if completes {
                    "completes"
                } else {
                    "DOES NOT complete"
                }
            )
        }
        None => {
            let reason = field(report, "unbounded_reason").unwrap_or("unknown");
            format!("analyze: unbounded — {reason} ({blocks} blocks, {unresolved} unresolved)")
        }
    }
}

/// A hex number, with or without its `0x`.
fn parse_u16(token: &str) -> Option<u16> {
    let token = token.trim();
    let hex = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"));
    u16::from_str_radix(hex.unwrap_or(token), 16).ok()
}

/// An optional command argument: `Some(None)` when absent, `None` when
/// present but malformed — which earns the usage note, never a default.
fn optional<T>(arg: Option<&str>, parse: impl Fn(&str) -> Option<T>) -> Option<Option<T>> {
    match arg {
        None => Some(None),
        Some(text) => parse(text).map(Some),
    }
}

/// Executes one console command. Returns `false` to quit.
fn run_command(client: &mut Client, state: &mut TuiState, command: &str) -> bool {
    use Value::{F64, U64};
    let mut words = command.split_whitespace();
    let verb = words.next().unwrap_or("");
    let args: Vec<&str> = words.collect();
    let arg = |i: usize| args.get(i).copied();
    let count = |i| optional(arg(i), |s| s.parse::<u64>().ok());
    let number = |i| arg(i).and_then(|s| s.parse::<u64>().ok());
    let volts = |i| arg(i).and_then(|s| s.parse::<f64>().ok());
    let addr = |i| arg(i).and_then(parse_u16).map(|a| U64(u64::from(a)));
    let status: Option<Apply> = Some(TuiState::apply_status);
    // The request a command sends and what its result updates, or the
    // usage note it earns instead.
    let request: Result<Request, &str> = match verb {
        "quit" | "exit" | "q" => return false,
        "analyze" => {
            analyze(client, state, arg(0));
            return true;
        }
        "run" => count(0)
            .map(|ms| ("run_until", vec![("ms", U64(ms.unwrap_or(100)))], status))
            .ok_or("usage: run [ms]"),
        "step" => count(0)
            .map(|n| ("step", vec![("count", U64(n.unwrap_or(1)))], status))
            .ok_or("usage: step [n]"),
        "back" => count(0)
            .map(|n| ("step_back", vec![("n", U64(n.unwrap_or(1)))], status))
            .ok_or("usage: back [n]"),
        "read" => addr(0)
            .map(|a| ("read", vec![("addr", a)], None))
            .ok_or("usage: read <hex-addr>"),
        "write" => match (addr(0), addr(1)) {
            (Some(a), Some(v)) => Ok(("write", vec![("addr", a), ("value", v)], None)),
            _ => Err("usage: write <hex-addr> <hex-value>"),
        },
        "pc" => Ok(("get_pc", vec![], None)),
        "break" => match (number(0), optional(arg(1), |s| s.parse::<f64>().ok())) {
            (Some(id), Some(energy)) => {
                let mut params = vec![("id", U64(id))];
                params.extend(energy.map(|v| ("energy", F64(v))));
                Ok(("set_breakpoint", params, None))
            }
            _ => Err("usage: break <id> [energy-volts]"),
        },
        "clear" => number(0)
            .map(|id| ("clear_breakpoint", vec![("id", U64(id))], None))
            .ok_or("usage: clear <id>"),
        "guard" => volts(0)
            .map(|v| ("arm_energy_guard", vec![("threshold", F64(v))], None))
            .ok_or("usage: guard <volts>"),
        "charge" | "discharge" => volts(0)
            .map(|v| (verb, vec![("to", F64(v))], None))
            .ok_or("usage: charge|discharge <volts>"),
        "resume" => Ok(("resume", vec![], status)),
        "goto" => number(0)
            .map(|ms| ("goto_time", vec![("ms", U64(ms))], status))
            .ok_or("usage: goto <ms> (absolute sim time)"),
        "rc" => Ok(("reverse_continue", vec![], status)),
        "status" => Ok(("status", vec![], status)),
        "disasm" => optional(arg(0), parse_u16)
            .map(|a| {
                let mut params = vec![("count", U64(12))];
                params.extend(a.map(|a| ("addr", U64(u64::from(a)))));
                let apply: Apply = TuiState::apply_disasm;
                ("disasm", params, Some(apply))
            })
            .ok_or("usage: disasm [hex-addr]"),
        other => {
            state.note(format!(
                "unknown command `{other}` (try: run, step, analyze, read, pc)"
            ));
            return true;
        }
    };
    match request {
        Ok((method, params, apply)) => {
            if let (Some(result), Some(apply)) = (call(client, state, method, params), apply) {
                apply(state, &result);
            }
        }
        Err(usage) => state.note(usage),
    }
    true
}
