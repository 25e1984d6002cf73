//! `edb` — the debugger's one frontend, in three modes over one table
//! of bundled target applications ([`edb_apps::registry`]).
//!
//! ```text
//! edb console [--app NAME] [--seed N] [--script "CMD; CMD; ..."]
//! edb tui     [--app NAME] [--seed N] [--script FILE] [--connect ADDR]
//! edb analyze [--app NAME | SOURCE.s] [--v-start VOLTS] [--pretty] [--out PATH]
//! ```
//!
//! `--list` in any mode prints the bundled apps. `console` is the
//! Table 1 command console against a simulated bench, `tui` the 80x24
//! client of the session server, and `analyze` the static WCEC
//! analyzer's JSON report.

mod analyze;
mod console;
mod tui;

use edb_apps::registry::{self, App};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// One mode: its flags besides `--app` and `--list`, and its body.
struct Mode {
    name: &'static str,
    usage: &'static str,
    /// Flags that take a value.
    valued: &'static [&'static str],
    /// Flags that take none.
    switches: &'static [&'static str],
    /// Whether a bare argument (a source file) is accepted.
    positional: bool,
    /// The app when `--app` is absent.
    default_app: Option<&'static str>,
    run: fn(Args),
}

const MODES: &[Mode] = &[
    Mode {
        name: "console",
        usage: "edb console [--app NAME] [--seed N] [--script \"CMD; CMD; ...\"] [--list]",
        valued: &["--seed", "--script"],
        switches: &[],
        positional: false,
        default_app: Some("spin"),
        run: console::run,
    },
    Mode {
        name: "tui",
        usage: "edb tui [--app NAME] [--seed N] [--script FILE] [--connect ADDR] [--list]",
        valued: &["--seed", "--script", "--connect"],
        switches: &[],
        positional: false,
        default_app: Some("assert"),
        run: tui::run,
    },
    Mode {
        name: "analyze",
        usage:
            "edb analyze [--app NAME | SOURCE.s] [--v-start VOLTS] [--pretty] [--out PATH] [--list]",
        valued: &["--v-start", "--out"],
        switches: &["--pretty"],
        positional: true,
        default_app: None,
        run: analyze::run,
    },
];

/// A mode's parsed command line.
pub struct Args {
    mode: &'static Mode,
    /// The `--app` named, or the mode's default.
    pub app: Option<&'static App>,
    /// Each flag given, with its value (empty for a switch).
    values: BTreeMap<&'static str, String>,
    /// The bare argument, if the mode takes one.
    pub positional: Option<String>,
}

impl Args {
    /// The value given to `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value given to `flag` as a number; a malformed one is a
    /// usage error, never a default.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|text| {
            text.parse()
                .unwrap_or_else(|_| self.usage(format!("{flag} takes a number, got `{text}`")))
        })
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// Exits 2 with `message` and the mode's usage line.
    pub fn usage(&self, message: impl Display) -> ! {
        eprintln!(
            "edb {}: {message}\nusage: {}",
            self.mode.name, self.mode.usage
        );
        std::process::exit(2);
    }

    /// Exits 1 with `message`: the command line was fine, the run failed.
    pub fn fail(&self, message: impl Display) -> ! {
        eprintln!("edb {}: {message}", self.mode.name);
        std::process::exit(1);
    }
}

/// One `  name  description` line per bundled app.
fn app_list() -> String {
    registry::apps()
        .iter()
        .map(|app| format!("  {:<20} {}\n", app.name, app.about))
        .collect()
}

fn parse(mode: &'static Mode, argv: &[String]) -> Args {
    let mut args = Args {
        mode,
        app: None,
        values: BTreeMap::new(),
        positional: None,
    };
    let mut app = mode.default_app.map(String::from);
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let arg = arg.as_str();
        let mut value = || match argv.next() {
            Some(value) => value.clone(),
            None => args.usage(format!("{arg} needs a value")),
        };
        if arg == "--list" {
            print!("bundled target applications:\n{}", app_list());
            std::process::exit(0);
        } else if arg == "--help" || arg == "-h" {
            println!("usage: {}", mode.usage);
            std::process::exit(0);
        } else if arg == "--app" {
            app = Some(value());
        } else if let Some(flag) = mode.valued.iter().find(|flag| **flag == arg) {
            let value = value();
            args.values.insert(flag, value);
        } else if let Some(flag) = mode.switches.iter().find(|flag| **flag == arg) {
            args.values.insert(flag, String::new());
        } else if mode.positional && !arg.starts_with('-') {
            args.positional = Some(arg.to_string());
        } else {
            args.usage(format!("unknown argument `{arg}` (try --list)"));
        }
    }
    args.app = app.map(|name| {
        registry::find(&name).unwrap_or_else(|| {
            args.usage(format!("unknown app `{name}`; options:\n{}", app_list()))
        })
    });
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        let modes: Vec<&str> = MODES.iter().map(|mode| mode.usage).collect();
        eprintln!("usage:\n  {}", modes.join("\n  "));
        std::process::exit(2);
    };
    let Some(mode) = argv
        .first()
        .and_then(|name| MODES.iter().find(|mode| mode.name == name))
    else {
        usage()
    };
    (mode.run)(parse(mode, &argv[1..]));
}
