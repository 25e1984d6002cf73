//! The debug console: Table 1's command-line interface.
//!
//! > "The debug console is a command-line interface for interacting
//! > directly with EDB and indirectly with the target ... During
//! > interactive debugging in active mode, the console reports assert
//! > failures and breakpoints hits and provides commands to inspect
//! > target memory. During passive mode debugging, the console delivers
//! > traces of energy state, watchpoint hits, monitored I/O events, and
//! > the output of printf calls."
//!
//! Commands:
//!
//! ```text
//! charge <volts>                     discharge <volts>
//! break en <id> [<volts>]            break dis <id>
//! ebreak en <volts>                  ebreak dis <volts>
//! watch en <id>                      watch dis <id>
//! trace energy|iobus|rfid|watchpoints|printf
//! read <addr> [<n>]                  write <addr> <value>
//! run <ms>                           resume
//! status                             help
//! ```

use crate::events::DebugEvent;
use crate::system::System;
use edb_energy::SimTime;
use std::fmt;
use std::fmt::Write as _;

/// A console command failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsoleError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ConsoleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ConsoleError {}

impl From<crate::EdbError> for ConsoleError {
    fn from(e: crate::EdbError) -> Self {
        ConsoleError {
            message: e.to_string(),
        }
    }
}

fn cerr<T>(message: impl Into<String>) -> Result<T, ConsoleError> {
    Err(ConsoleError {
        message: message.into(),
    })
}

/// The interactive console, operating on a [`System`].
///
/// # Example
///
/// ```no_run
/// use edb_core::{Console, System};
/// use edb_device::DeviceConfig;
/// let mut sys = System::builder(DeviceConfig::wisp5())
///     .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
///     .build();
/// let mut console = Console::new();
/// let out = console.execute("charge 2.4", &mut sys)?;
/// println!("{out}");
/// # Ok::<(), edb_core::ConsoleError>(())
/// ```
#[derive(Debug, Default)]
pub struct Console {
    /// Index into the event log up to which traces have been printed.
    trace_cursor: usize,
}

impl Console {
    /// Creates a console.
    pub fn new() -> Self {
        Console::default()
    }

    /// Parses and executes one command line, returning its output text.
    ///
    /// # Errors
    ///
    /// Returns a [`ConsoleError`] for unknown commands, bad arguments, or
    /// operations that require state the system is not in (e.g. `read`
    /// without an active session).
    pub fn execute(&mut self, line: &str, sys: &mut System) -> Result<String, ConsoleError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = tokens.split_first() else {
            return Ok(String::new());
        };
        match cmd {
            "help" => Ok(HELP.to_string()),
            "charge" => {
                let v = parse_volts(args.first())?;
                let got = sys.charge_to(v)?;
                Ok(format!("charged to {got:.3} V (target {v:.3} V)"))
            }
            "discharge" => {
                let v = parse_volts(args.first())?;
                let got = sys.discharge_to(v)?;
                Ok(format!("discharged to {got:.3} V (target {v:.3} V)"))
            }
            "break" => match args {
                ["en", id, rest @ ..] => {
                    let id = parse_u8(id)?;
                    let energy = match rest.first() {
                        Some(v) => Some(parse_volts(Some(v))?),
                        None => None,
                    };
                    let System { .. } = sys;
                    let now = sys.now();
                    let _ = now;
                    // Split borrows via the accessor pair:
                    let (edb, dev) = split_edb_device(sys)?;
                    edb.enable_breakpoint(dev, id, energy);
                    Ok(match energy {
                        Some(e) => format!("breakpoint {id} enabled below {e:.2} V (combined)"),
                        None => format!("breakpoint {id} enabled"),
                    })
                }
                ["dis", id] => {
                    let id = parse_u8(id)?;
                    let (edb, dev) = split_edb_device(sys)?;
                    edb.disable_breakpoint(dev, id);
                    Ok(format!("breakpoint {id} disabled"))
                }
                _ => cerr("usage: break en <id> [<volts>] | break dis <id>"),
            },
            "ebreak" => match args {
                ["en", v] => {
                    let v = parse_volts(Some(v))?;
                    sys.edb_mut().arm_energy_breakpoint(v);
                    Ok(format!("energy breakpoint armed at {v:.2} V"))
                }
                ["dis", v] => {
                    let v = parse_volts(Some(v))?;
                    sys.edb_mut().disarm_energy_breakpoint(v);
                    Ok(format!("energy breakpoint at {v:.2} V disarmed"))
                }
                _ => cerr("usage: ebreak en|dis <volts>"),
            },
            "watch" => match args {
                ["en", id] => {
                    let id = parse_u8(id)?;
                    sys.edb_mut().enable_watchpoint(id);
                    Ok(format!("watchpoint {id} enabled"))
                }
                ["dis", id] => {
                    let id = parse_u8(id)?;
                    sys.edb_mut().disable_watchpoint(id);
                    Ok(format!("watchpoint {id} disabled"))
                }
                _ => cerr("usage: watch en|dis <id>"),
            },
            "trace" => {
                let stream = args.first().copied().unwrap_or("energy");
                let tag = match stream {
                    "energy" => "energy",
                    "iobus" => "io",
                    "rfid" => "rfid",
                    "watchpoints" => "watchpoint",
                    "printf" => "printf",
                    other => return cerr(format!("unknown trace stream `{other}`")),
                };
                Ok(self.render_trace(sys, tag))
            }
            "read" => {
                let addr = parse_addr(args.first(), sys)?;
                let count = match args.get(1) {
                    Some(n) => parse_u16(Some(n))? as usize,
                    None => 1,
                };
                if sys.edb().is_none_or(|e| !e.session_active()) {
                    return cerr(
                        "read requires an active session (hit a breakpoint or assert first)",
                    );
                }
                let mut out = String::new();
                for k in 0..count.min(64) {
                    let a = addr.wrapping_add((k * 2) as u16);
                    match sys.read_word(a) {
                        Ok(v) => {
                            let _ = writeln!(out, "{a:#06x}: {v:#06x}");
                        }
                        Err(e) => return cerr(format!("read of {a:#06x} failed: {e}")),
                    }
                }
                Ok(out)
            }
            "write" => {
                let addr = parse_addr(args.first(), sys)?;
                let value = parse_u16(args.get(1))?;
                if sys.edb().is_none_or(|e| !e.session_active()) {
                    return cerr("write requires an active session");
                }
                match sys.write_word(addr, value) {
                    Ok(()) => Ok(format!("{addr:#06x} <- {value:#06x}")),
                    Err(e) => cerr(format!("write failed: {e}")),
                }
            }
            "run" => {
                let ms = parse_u16(args.first())? as u64;
                sys.run_for(SimTime::from_ms(ms));
                Ok(format!("ran {ms} ms (now {})", sys.now()))
            }
            "sym" => match args.first() {
                Some(name) => match sys.symbol(name) {
                    Some(addr) => Ok(format!("{name} = {addr:#06x}")),
                    None => cerr(format!("no symbol `{name}` in the flashed image")),
                },
                None => {
                    // No argument: list the application-level symbols.
                    let mut out = String::new();
                    for (name, addr) in sys.symbols() {
                        if !name.starts_with("__") && addr >= 0x4400 {
                            let _ = writeln!(out, "{addr:#06x} {name}");
                        }
                    }
                    Ok(out)
                }
            },
            "disasm" => {
                let addr = parse_addr(args.first(), sys)?;
                let count = match args.get(1) {
                    Some(n) => parse_u16(Some(n))? as usize,
                    None => 8,
                };
                // Disassemble from the device's *actual* memory (through
                // the debugger's image view), so corruption is visible.
                let mut bytes = Vec::with_capacity(count * 4);
                for k in 0..(count * 4) as u16 {
                    bytes.push(sys.device().mem().peek_byte(addr.wrapping_add(k)));
                }
                let listing = edb_mcu::asm::disassemble(&bytes, addr);
                let mut out = String::new();
                for (at, text) in listing.into_iter().take(count) {
                    let label = sys
                        .symbols()
                        .find(|&(_, a)| a == at)
                        .map(|(n, _)| format!("{n}:"))
                        .unwrap_or_default();
                    let _ = writeln!(out, "{at:#06x}  {text:<24} {label}");
                }
                Ok(out)
            }
            "where" => {
                if sys.edb().is_none_or(|e| !e.session_active()) {
                    return cerr("where requires an active session");
                }
                match sys.resume_pc() {
                    Ok(pc) => {
                        // Annotate with the nearest preceding symbol.
                        let nearest = sys
                            .symbols()
                            .filter(|&(n, a)| a <= pc && !n.starts_with('.') && a >= 0x4400)
                            .max_by_key(|&(_, a)| a);
                        Ok(match nearest {
                            Some((name, addr)) => {
                                format!("resume at {pc:#06x} ({name}+{:#x})", pc - addr)
                            }
                            None => format!("resume at {pc:#06x}"),
                        })
                    }
                    Err(e) => cerr(format!("target did not answer: {e}")),
                }
            }
            "resume" => {
                if sys.edb().is_none_or(|e| !e.session_active()) {
                    return cerr("no active session to resume from");
                }
                sys.resume()?;
                Ok("target resumed".to_string())
            }
            "status" => {
                let dev = sys.device();
                let mut out = String::new();
                let _ = writeln!(out, "time        : {}", dev.now());
                let _ = writeln!(out, "Vcap        : {:.3} V", dev.v_cap());
                let _ = writeln!(out, "Vreg        : {:.3} V", dev.v_reg());
                let _ = writeln!(out, "powered     : {}", dev.powered());
                let _ = writeln!(out, "reboots     : {}", dev.reboots());
                let _ = writeln!(out, "instructions: {}", dev.total_instructions());
                if let Some(edb) = sys.edb() {
                    let _ = writeln!(out, "session     : {}", edb.session_active());
                    let _ = writeln!(out, "events      : {}", edb.log().len());
                }
                Ok(out)
            }
            other => cerr(format!("unknown command `{other}` (try `help`)")),
        }
    }

    fn render_trace(&mut self, sys: &System, tag: &str) -> String {
        let Some(edb) = sys.edb() else {
            return "EDB not attached".to_string();
        };
        let log = edb.log();
        let mut out = String::new();
        for e in log.events_from(self.trace_cursor) {
            let matches = match tag {
                "io" => matches!(
                    e.event,
                    DebugEvent::Gpio { .. } | DebugEvent::UartByte { .. } | DebugEvent::I2c { .. }
                ),
                t => e.event.tag() == t,
            };
            if matches {
                let _ = writeln!(out, "{e}");
            }
        }
        self.trace_cursor = log.len();
        if out.is_empty() {
            out.push_str("(no new events)\n");
        }
        out
    }
}

fn split_edb_device(
    sys: &mut System,
) -> Result<(&mut crate::debugger::Edb, &mut edb_device::Device), ConsoleError> {
    // SAFETY-free split: go through the System's two accessors one at a
    // time is impossible with the borrow checker, so expose a combined
    // accessor on System instead.
    sys.edb_and_device().ok_or_else(|| ConsoleError {
        message: "EDB not attached".to_string(),
    })
}

fn parse_volts(tok: Option<&&str>) -> Result<f64, ConsoleError> {
    let Some(tok) = tok else {
        return cerr("missing voltage argument");
    };
    match tok.parse::<f64>() {
        Ok(v) if (0.0..=5.5).contains(&v) => Ok(v),
        Ok(v) => cerr(format!("voltage {v} out of range (0–5.5)")),
        Err(_) => cerr(format!("bad voltage `{tok}`")),
    }
}

fn parse_u8(tok: &str) -> Result<u8, ConsoleError> {
    tok.parse::<u8>().map_err(|_| ConsoleError {
        message: format!("bad id `{tok}`"),
    })
}

/// Parses an address argument: hex/decimal, or a symbol from the
/// flashed image.
fn parse_addr(tok: Option<&&str>, sys: &System) -> Result<u16, ConsoleError> {
    let Some(tok) = tok else {
        return cerr("missing address argument");
    };
    if let Some(addr) = sys.symbol(tok) {
        return Ok(addr);
    }
    parse_u16(Some(tok))
}

fn parse_u16(tok: Option<&&str>) -> Result<u16, ConsoleError> {
    let Some(tok) = tok else {
        return cerr("missing argument");
    };
    let parsed = if let Some(hex) = tok.strip_prefix("0x") {
        u16::from_str_radix(hex, 16)
    } else {
        tok.parse::<u16>()
    };
    parsed.map_err(|_| ConsoleError {
        message: format!("bad value `{tok}`"),
    })
}

const HELP: &str = "\
commands:
  charge <volts>          charge the target capacitor to a level
  discharge <volts>       discharge the target capacitor to a level
  break en <id> [<volts>] enable a code (or combined) breakpoint
  break dis <id>          disable a code breakpoint
  ebreak en|dis <volts>   arm/disarm an energy breakpoint
  watch en|dis <id>       enable/disable a watchpoint id
  trace <stream>          print new events: energy|iobus|rfid|watchpoints|printf
  read <addr> [<n>]       read target memory (active session only)
  write <addr> <value>    write target memory (active session only)
  sym [<name>]            resolve a symbol / list application symbols
  where                   show where execution will resume (active session)
  disasm <addr> [<n>]     disassemble target memory (addresses or symbols)
  run <ms>                advance the simulation
  resume                  restore energy and resume from a session
  status                  bench status
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libedb;
    use edb_device::DeviceConfig;
    use edb_mcu::asm::assemble;

    fn bench(app: &str) -> System {
        let image = assemble(&libedb::wrap_program(app)).expect("assembles");
        let mut sys = System::builder(DeviceConfig::wisp5())
            .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
            .build();
        sys.flash(&image);
        sys
    }

    const SPIN: &str = r#"
        .org 0x4400
        main:
            movi sp, 0x2400
        loop:
            add r0, 1
            jmp loop
        .org 0xFFFE
        .word main
    "#;

    #[test]
    fn charge_discharge_round_trip() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let out = console.execute("charge 2.45", &mut sys).expect("charges");
        assert!(out.contains("charged to"), "{out}");
        let out = console
            .execute("discharge 2.0", &mut sys)
            .expect("discharges");
        assert!(out.contains("discharged to"), "{out}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let err = console.execute("frobnicate", &mut sys).unwrap_err();
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn read_without_session_is_refused() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let err = console.execute("read 0x6000", &mut sys).unwrap_err();
        assert!(err.message.contains("session"));
    }

    #[test]
    fn status_reports_bench_state() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let out = console.execute("status", &mut sys).expect("status");
        assert!(out.contains("Vcap"));
        assert!(out.contains("powered"));
    }

    #[test]
    fn trace_prints_only_new_events() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        console.execute("charge 2.45", &mut sys).expect("charge");
        console.execute("run 10", &mut sys).expect("run");
        let first = console.execute("trace energy", &mut sys).expect("trace");
        assert!(first.contains("EnergySample"), "{first}");
        let second = console.execute("trace energy", &mut sys).expect("trace");
        assert!(second.contains("no new events"));
    }

    #[test]
    fn watch_and_break_commands_parse() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        assert!(console.execute("watch en 2", &mut sys).is_ok());
        assert!(console.execute("watch dis 2", &mut sys).is_ok());
        assert!(console.execute("break en 1", &mut sys).is_ok());
        assert!(console.execute("break en 2 2.3", &mut sys).is_ok());
        assert!(console.execute("break dis 1", &mut sys).is_ok());
        assert!(console.execute("ebreak en 2.2", &mut sys).is_ok());
        assert!(console.execute("ebreak dis 2.2", &mut sys).is_ok());
    }

    #[test]
    fn sym_resolves_and_lists() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let out = console.execute("sym main", &mut sys).expect("sym");
        assert!(out.contains("0x4400"), "{out}");
        let err = console.execute("sym nonsense", &mut sys).unwrap_err();
        assert!(err.message.contains("nonsense"));
        let listing = console.execute("sym", &mut sys).expect("list");
        assert!(listing.contains("main"));
        assert!(!listing.contains("__edb_service_loop"), "internals hidden");
    }

    #[test]
    fn disasm_shows_target_memory() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let out = console.execute("disasm main 4", &mut sys).expect("disasm");
        assert!(out.contains("movi sp, 0x2400"), "{out}");
        assert!(out.contains("main:"), "label annotation: {out}");
        let out = console
            .execute("disasm 0x4400 2", &mut sys)
            .expect("hex ok");
        assert!(out.contains("0x4400"));
    }

    #[test]
    fn where_requires_session_and_reports_resume_point() {
        // An app that asserts immediately so a session opens.
        let mut sys = bench(
            r#"
            .org 0x4400
            main:
                movi sp, 0x2400
                movi r0, 1
                call __edb_assert_fail
                halt
            .org 0xFFFE
            .word main
            "#,
        );
        let mut console = Console::new();
        let err = console.execute("where", &mut sys).unwrap_err();
        assert!(err.message.contains("session"));
        console.execute("charge 2.45", &mut sys).expect("charge");
        assert!(sys.run_until(edb_energy::SimTime::from_ms(200), |s| s
            .edb()
            .is_some_and(|e| e.session_active())));
        let out = console.execute("where", &mut sys).expect("where");
        assert!(out.contains("resume at"), "{out}");
        // The immediate resume point is inside the assert shim (which
        // then returns into main).
        assert!(out.contains("__edb_assert_fail+"), "symbolized: {out}");
    }

    #[test]
    fn help_lists_table_one_commands() {
        let mut sys = bench(SPIN);
        let mut console = Console::new();
        let out = console.execute("help", &mut sys).expect("help");
        for cmd in [
            "charge",
            "discharge",
            "break",
            "watch",
            "trace",
            "read",
            "write",
        ] {
            assert!(out.contains(cmd), "help missing {cmd}");
        }
    }
}
