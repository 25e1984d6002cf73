//! `edb-analyze`: static WCEC analysis of an IVM-16 firmware image,
//! emitting a JSON report.
//!
//! Usage:
//!
//! ```text
//! edb-analyze <source.s>            analyze an assembly file
//! edb-analyze --app <name>          analyze a bundled app
//! edb-analyze --list-apps           list bundled app names
//!
//! Options:
//!   --v-start <volts>   starting capacitor voltage (default 3.0)
//!   --pretty            pretty-print the JSON report
//!   --out <path>        write the report to a file instead of stdout
//! ```
//!
//! The device/capacitor spec is the WISP5 reference configuration; the
//! cost model is regressed from the simulator at startup, so reports
//! track whatever the simulator's energy accounting says.

use std::process::ExitCode;

use edb_analyze::analyze_image;
use edb_apps::{activity, fib, linked_list, rfid_fw};
use edb_device::DeviceConfig;
use edb_mcu::asm::assemble;
use edb_mcu::Image;

/// A bundled app `--app` analyzes: its name and image builder.
type App = (&'static str, fn() -> Image);

const APPS: &[App] = &[
    ("fib", || fib::image(fib::Variant::Release)),
    ("linked-list", || {
        linked_list::image(linked_list::Variant::Plain)
    }),
    ("activity", || activity::image(activity::Variant::NoPrint)),
    ("rfid", rfid_fw::image),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut app: Option<String> = None;
    let mut v_start = 3.0f64;
    let mut pretty = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list-apps" => {
                for (name, _) in APPS {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--app" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("edb-analyze: --app needs an app name");
                    return ExitCode::FAILURE;
                };
                app = Some(name.clone());
            }
            "--v-start" => {
                i += 1;
                v_start = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("edb-analyze: --v-start needs a voltage");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--pretty" => pretty = true,
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("edb-analyze: --out needs a path");
                    return ExitCode::FAILURE;
                };
                out = Some(path.clone());
            }
            other if !other.starts_with('-') => target = Some(other.to_string()),
            other => {
                eprintln!("edb-analyze: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let (name, image) = if let Some(app_name) = app {
        match APPS.iter().find(|(name, _)| *name == app_name) {
            Some((_, image)) => (app_name, image()),
            None => {
                let names: Vec<&str> = APPS.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "edb-analyze: unknown app {app_name:?} (try one of: {})",
                    names.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = target {
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("edb-analyze: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match assemble(&source) {
            Ok(image) => (path, image),
            Err(e) => {
                eprintln!("edb-analyze: assembly of {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("edb-analyze: nothing to analyze (pass a source file or --app <name>)");
        return ExitCode::FAILURE;
    };

    let config = DeviceConfig::wisp5();
    let report = analyze_image(&name, &image, &config, v_start);
    let json = if pretty {
        serde_json::to_string_pretty(&report)
    } else {
        serde_json::to_string(&report)
    };
    let json = match json {
        Ok(j) => j,
        Err(e) => {
            eprintln!("edb-analyze: serialization failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("edb-analyze: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("edb-analyze: report written to {path}");
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
