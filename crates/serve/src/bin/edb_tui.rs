//! `edb-tui`: a live terminal client for the session server.
//!
//! Shows the capacitor voltage, PC, disassembly around the PC, the
//! breakpoint list, and the event feed of one hosted session, and maps
//! console commands onto the JSON-RPC surface.
//!
//! ```text
//! edb-tui [--connect ADDR] [--firmware PRESET] [--seed N] [--script FILE]
//! ```
//!
//! Without `--connect`, a server is self-hosted in-process. With
//! `--script FILE`, commands are read from the file instead of stdin
//! and each resulting frame is printed to stdout — the headless mode CI
//! exercises.

use edb_serve::tui::{field, TuiState};
use edb_serve::{Client, Server, ServerConfig};
use serde::Value;
use std::io::{BufRead, Write};

struct Options {
    connect: Option<String>,
    firmware: String,
    seed: u64,
    script: Option<String>,
}

fn main() {
    let mut opts = Options {
        connect: None,
        firmware: "assert".to_string(),
        seed: 1,
        script: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                opts.connect = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--connect needs an address")),
                )
            }
            "--firmware" => {
                opts.firmware = args
                    .next()
                    .unwrap_or_else(|| usage("--firmware needs a preset"))
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"))
            }
            "--script" => {
                opts.script = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--script needs a file")),
                )
            }
            "--help" | "-h" => {
                println!(
                    "usage: edb-tui [--connect ADDR] [--firmware PRESET] [--seed N] [--script FILE]"
                );
                return;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    // Self-host unless pointed at a running server.
    let mut hosted = None;
    let addr = match &opts.connect {
        Some(addr) => addr.clone(),
        None => {
            let server = Server::start(ServerConfig::default()).unwrap_or_else(|e| {
                eprintln!("edb-tui: cannot self-host: {e}");
                std::process::exit(2);
            });
            let addr = server.addr().to_string();
            hosted = Some(server);
            addr
        }
    };
    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("edb-tui: cannot connect to {addr}: {e}");
        std::process::exit(2);
    });

    let mut state = TuiState::new();
    create_session(&mut client, &mut state, &opts);
    refresh(&mut client, &mut state);

    match opts.script.clone() {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("edb-tui: cannot read {path}: {e}");
                std::process::exit(2);
            });
            for command in text.lines() {
                let command = command.trim();
                if command.is_empty() || command.starts_with('#') {
                    continue;
                }
                println!("--- {command}");
                if !run_command(&mut client, &mut state, command) {
                    break;
                }
                refresh(&mut client, &mut state);
                print!("{}", state.draw());
            }
        }
        None => {
            let stdin = std::io::stdin();
            loop {
                print!("\x1b[2J\x1b[H{}", state.draw());
                print!("edb> ");
                std::io::stdout().flush().ok();
                let mut command = String::new();
                if stdin.lock().read_line(&mut command).unwrap_or(0) == 0 {
                    break;
                }
                let command = command.trim();
                if command.is_empty() {
                    continue;
                }
                if !run_command(&mut client, &mut state, command) {
                    break;
                }
                refresh(&mut client, &mut state);
            }
        }
    }
    drop(client);
    if let Some(mut server) = hosted {
        server.stop();
    }
}

fn usage(message: &str) -> ! {
    eprintln!(
        "edb-tui: {message}\nusage: edb-tui [--connect ADDR] [--firmware PRESET] [--seed N] [--script FILE]"
    );
    std::process::exit(2);
}

fn create_session(client: &mut Client, state: &mut TuiState, opts: &Options) {
    let outcome = client
        .call(
            "create",
            vec![
                ("firmware", Value::Str(opts.firmware.clone())),
                ("seed", Value::U64(opts.seed)),
                (
                    "harvester",
                    edb_serve::rpc::obj(vec![("voc", Value::F64(3.2)), ("r", Value::F64(220.0))]),
                ),
                ("wait_session_ms", Value::U64(2000)),
            ],
        )
        .unwrap_or_else(|e| {
            eprintln!("edb-tui: create failed: {e}");
            std::process::exit(2);
        });
    match &outcome.outcome {
        Ok(result) => {
            state.session = field(result, "session");
            state.note(format!(
                "session {} created ({})",
                state.session.unwrap_or(0),
                opts.firmware
            ));
        }
        Err(e) => {
            eprintln!("edb-tui: create failed: {} (code {})", e.message, e.code);
            std::process::exit(2);
        }
    }
    let _ = client.call("subscribe_events", vec![("from_start", Value::Bool(true))]);
}

/// Quietly refreshes the panes (status, disassembly, breakpoints).
fn refresh(client: &mut Client, state: &mut TuiState) {
    if let Ok(out) = client.call("status", vec![]) {
        absorb(state, &out.notifications);
        if let Ok(result) = &out.outcome {
            state.apply_status(result);
        }
    }
    if let Ok(out) = client.call("disasm", vec![("count", Value::U64(12))]) {
        absorb(state, &out.notifications);
        if let Ok(result) = &out.outcome {
            state.apply_disasm(result);
        }
    }
    if let Ok(out) = client.call("breakpoints", vec![]) {
        absorb(state, &out.notifications);
        if let Ok(result) = &out.outcome {
            state.apply_breakpoints(result);
        }
    }
}

fn absorb(state: &mut TuiState, notifications: &[Value]) {
    for note in notifications {
        state.push_event(note);
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

fn parse_u16(token: &str) -> Option<u16> {
    let token = token.trim();
    match token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        Some(hex) => u16::from_str_radix(hex, 16).ok(),
        None => u16::from_str_radix(token, 16).ok(),
    }
}

/// Executes one console command. Returns `false` to quit.
fn run_command(client: &mut Client, state: &mut TuiState, command: &str) -> bool {
    let mut words = command.split_whitespace();
    let verb = words.next().unwrap_or("");
    let args: Vec<&str> = words.collect();
    let call =
        |client: &mut Client, state: &mut TuiState, method: &str, params: Vec<(&str, Value)>| {
            match client.call(method, params) {
                Ok(out) => {
                    absorb(state, &out.notifications);
                    match out.outcome {
                        Ok(result) => {
                            state.note(format!(
                                "{method}: {}",
                                serde_json::to_string(&result).unwrap_or_default()
                            ));
                            Some(result)
                        }
                        Err(e) => {
                            // The no-recording code gets a remedial hint:
                            // rewinding needs a recording session.
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
                Err(e) => {
                    state.note(format!("{method}: transport error: {e}"));
                    None
                }
            }
        };
    match verb {
        "quit" | "exit" | "q" => return false,
        "run" => {
            let ms = args.first().and_then(|s| s.parse().ok()).unwrap_or(100);
            if let Some(result) = call(client, state, "run_until", vec![("ms", Value::U64(ms))]) {
                state.apply_status(&result);
            }
        }
        "step" => {
            let n = args.first().and_then(|s| s.parse().ok()).unwrap_or(1);
            if let Some(result) = call(client, state, "step", vec![("count", Value::U64(n))]) {
                state.apply_status(&result);
            }
        }
        "read" => match args.first().copied().and_then(parse_u16) {
            Some(addr) => {
                call(
                    client,
                    state,
                    "read",
                    vec![("addr", Value::U64(u64::from(addr)))],
                );
            }
            None => state.note("usage: read <hex-addr>"),
        },
        "write" => match (
            args.first().copied().and_then(parse_u16),
            args.get(1).copied().and_then(parse_u16),
        ) {
            (Some(addr), Some(value)) => {
                call(
                    client,
                    state,
                    "write",
                    vec![
                        ("addr", Value::U64(u64::from(addr))),
                        ("value", Value::U64(u64::from(value))),
                    ],
                );
            }
            _ => state.note("usage: write <hex-addr> <hex-value>"),
        },
        "pc" => {
            call(client, state, "get_pc", vec![]);
        }
        "break" => match args.first().and_then(|s| s.parse::<u64>().ok()) {
            Some(id) => {
                let mut params = vec![("id", Value::U64(id))];
                if let Some(energy) = args.get(1).and_then(|s| s.parse::<f64>().ok()) {
                    params.push(("energy", Value::F64(energy)));
                }
                call(client, state, "set_breakpoint", params);
            }
            None => state.note("usage: break <id> [energy-volts]"),
        },
        "clear" => match args.first().and_then(|s| s.parse::<u64>().ok()) {
            Some(id) => {
                call(
                    client,
                    state,
                    "clear_breakpoint",
                    vec![("id", Value::U64(id))],
                );
            }
            None => state.note("usage: clear <id>"),
        },
        "guard" => match args.first().and_then(|s| s.parse::<f64>().ok()) {
            Some(threshold) => {
                call(
                    client,
                    state,
                    "arm_energy_guard",
                    vec![("threshold", Value::F64(threshold))],
                );
            }
            None => state.note("usage: guard <volts>"),
        },
        "charge" | "discharge" => match args.first().and_then(|s| s.parse::<f64>().ok()) {
            Some(to) => {
                call(client, state, verb, vec![("to", Value::F64(to))]);
            }
            None => state.note("usage: charge|discharge <volts>"),
        },
        "resume" => {
            if let Some(result) = call(client, state, "resume", vec![]) {
                state.apply_status(&result);
            }
        }
        "back" => {
            let n = args.first().and_then(|s| s.parse().ok()).unwrap_or(1);
            if let Some(result) = call(client, state, "step_back", vec![("n", Value::U64(n))]) {
                state.apply_status(&result);
            }
        }
        "goto" => match args.first().and_then(|s| s.parse::<u64>().ok()) {
            Some(ms) => {
                if let Some(result) = call(client, state, "goto_time", vec![("ms", Value::U64(ms))])
                {
                    state.apply_status(&result);
                }
            }
            None => state.note("usage: goto <ms> (absolute sim time)"),
        },
        "rc" => {
            if let Some(result) = call(client, state, "reverse_continue", vec![]) {
                state.apply_status(&result);
            }
        }
        "status" => {
            if let Some(result) = call(client, state, "status", vec![]) {
                state.apply_status(&result);
            }
        }
        "disasm" => {
            let mut params = vec![("count", Value::U64(12))];
            if let Some(addr) = args.first().copied().and_then(parse_u16) {
                params.push(("addr", Value::U64(u64::from(addr))));
            }
            if let Some(result) = call(client, state, "disasm", params) {
                state.apply_disasm(&result);
            }
        }
        "analyze" => {
            let mut params = vec![];
            if let Some(first) = args.first() {
                match parse_u16(first) {
                    Some(addr) => params.push(("entry", Value::U64(u64::from(addr)))),
                    None => params.push(("name", Value::Str((*first).to_string()))),
                }
            }
            // The full report is large; surface the verdict and point
            // at the JSON-RPC method (or `edb-analyze`) for the rest.
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
        other => state.note(format!(
            "unknown command `{other}` (try: run, step, analyze, read, pc)"
        )),
    }
    true
}
