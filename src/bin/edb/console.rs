//! `edb console`: the Table 1 command console (plus `sym`/`disasm`)
//! against a live simulated bench — the closest thing this
//! reproduction has to plugging the EDB board into a WISP and opening
//! its Python console.
//!
//! ```sh
//! cargo run --release --bin edb -- console --app linked-list-assert
//! cargo run --release --bin edb -- console --app activity-printf --script "charge 2.4; run 500; trace printf"
//! ```

use crate::Args;
use edb_core::{Console, System};
use std::io::{BufRead, Write};

pub fn run(args: Args) {
    let app = args.app.expect("the console has a default app");
    let mut sys = app.system(args.number("--seed").unwrap_or(1));
    let mut console = Console::new();

    // The banner keeps the console's historical name, so scripted
    // transcripts stay byte-identical.
    println!("edb-cli — energy-interference-free debugging of a simulated intermittent device");
    println!(
        "target: {}   (type `help` for commands, `quit` to exit)",
        app.name
    );
    println!("tip: `run 500` advances simulated time; nothing happens until you run.");

    if let Some(script) = args.value("--script") {
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
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if !handle_line(&line, &mut sys, &mut console) {
                    break;
                }
            }
        }
    }
}

/// Runs one console line; returns `false` on `quit`/`exit`.
fn handle_line(line: &str, sys: &mut System, console: &mut Console) -> bool {
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
}
