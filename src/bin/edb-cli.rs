//! `edb-cli` — the interactive debug console against a simulated bench.
//!
//! The closest thing this reproduction has to plugging the real EDB
//! board into a WISP and opening the Python console: pick a bundled
//! target application, get a prompt, and drive the Table 1 command set
//! (plus `sym`/`disasm`) against a live intermittent device.
//!
//! ```sh
//! cargo run --release --bin edb-cli -- --app linked-list-assert
//! cargo run --release --bin edb-cli -- --app activity --script "charge 2.4; run 500; trace printf"
//! ```

use edb_suite::apps::{activity, fib, linked_list, rfid_fw};
use edb_suite::core::{libedb, Console, System};
use edb_suite::device::DeviceConfig;
use edb_suite::energy::{Fading, SimTime, TheveninSource};
use edb_suite::mcu::asm::assemble;
use edb_suite::mcu::Image;
use edb_suite::rfid::ReaderConfig;
use std::io::{BufRead, Write};

/// A bundled target application: its name, a description, and the
/// seeded bench that runs it.
type App = (&'static str, &'static str, fn(u64) -> System);

const APPS: &[App] = &[
    ("spin", "a bare counting loop (default)", |seed| {
        harvested(seed, spin_image())
    }),
    (
        "linked-list",
        "the Figure 6 intermittence bug, uninstrumented",
        |seed| harvested(seed, linked_list::image(linked_list::Variant::Plain)),
    ),
    (
        "linked-list-assert",
        "the same bug with the keep-alive assert",
        |seed| harvested(seed, linked_list::image(linked_list::Variant::Assert)),
    ),
    (
        "linked-list-atomic",
        "the DINO-style task-atomic fix",
        |seed| harvested(seed, linked_list::image(linked_list::Variant::TaskAtomic)),
    ),
    (
        "fib-checked",
        "Fibonacci list with the O(n) consistency check",
        |seed| harvested(seed, fib::image(fib::Variant::Checked)),
    ),
    (
        "fib-guarded",
        "the same check inside energy guards",
        |seed| harvested(seed, fib::image(fib::Variant::Guarded)),
    ),
    ("activity", "activity recognition with EDB printf", |seed| {
        harvested(seed, activity::image(activity::Variant::EdbPrintf))
    }),
    (
        "rfid",
        "the WISP RFID firmware under a reader (RF world)",
        rfid_bench,
    ),
];

fn spin_image() -> Image {
    assemble(&libedb::wrap_program(
        r#"
        .equ COUNTER, 0x6000
        .org 0x4400
        main:
            movi sp, 0x2400
            ei
        loop:
            movi r1, COUNTER
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            jmp  loop
        .org 0xFFFC
        .word __edb_isr
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("spin app assembles")
}

/// `image` flashed on the harvested supply.
fn harvested(seed: u64, image: Image) -> System {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, seed))
        .build();
    sys.flash(&image);
    sys
}

/// The WISP RFID firmware in the RF world, 1 m from a reader on a brisk
/// inventory schedule.
fn rfid_bench(seed: u64) -> System {
    let device = DeviceConfig {
        i_active: 0.95e-3,
        ..DeviceConfig::wisp5()
    };
    let reader = ReaderConfig {
        query_period: SimTime::from_ms(260),
        rep_gap: SimTime::from_ms(65),
        reps_per_round: 3,
        ..ReaderConfig::paper_setup()
    };
    let mut sys = System::builder(device)
        .rfid(1.0)
        .reader_config(reader)
        .seed(seed)
        .build();
    sys.flash(&rfid_fw::image());
    sys
}

/// One `  name  description` line per bundled app.
fn app_list() -> String {
    APPS.iter()
        .map(|(name, what, _)| format!("  {name:<20} {what}\n"))
        .collect()
}

/// The value after flag `args[i]`; exits naming the flag when it is
/// missing.
fn flag_value(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(value) => value,
        None => {
            eprintln!("error: {} needs a value", args[i]);
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut app = "spin".to_string();
    let mut script: Option<String> = None;
    let mut seed = 1u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--app" => app = flag_value(&args, i).to_string(),
            "--script" => script = Some(flag_value(&args, i).to_string()),
            "--seed" => {
                let value = flag_value(&args, i);
                seed = value.parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed takes a number, got `{value}`");
                    std::process::exit(2);
                });
            }
            "--list" => {
                print!("bundled target applications:\n{}", app_list());
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --list)");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let Some((_, _, bench)) = APPS.iter().find(|(name, _, _)| *name == app) else {
        eprint!("unknown app `{app}`; options:\n{}", app_list());
        std::process::exit(2);
    };
    let mut sys = bench(seed);
    let mut console = Console::new();

    println!("edb-cli — energy-interference-free debugging of a simulated intermittent device");
    println!("target: {app}   (type `help` for commands, `quit` to exit)");
    println!("tip: `run 500` advances simulated time; nothing happens until you run.");

    let handle_line = |line: &str, sys: &mut System, console: &mut Console| -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        if line == "quit" || line == "exit" {
            return false;
        }
        match console.execute(line, sys) {
            Ok(out) if out.is_empty() => {}
            Ok(out) if out.ends_with('\n') => print!("{out}"),
            Ok(out) => println!("{out}"),
            Err(e) => println!("error: {e}"),
        }
        true
    };

    if let Some(script) = script {
        for cmd in script.split(';') {
            println!("(edb) {}", cmd.trim());
            if !handle_line(cmd, &mut sys, &mut console) {
                break;
            }
        }
        return;
    }

    let stdin = std::io::stdin();
    loop {
        print!("(edb) ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !handle_line(&line, &mut sys, &mut console) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
