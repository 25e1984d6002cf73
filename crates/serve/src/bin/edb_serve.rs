//! `edb-serve`: the debugger-as-a-service session server.
//!
//! Hosts any number of simulated intermittent targets behind
//! newline-delimited JSON-RPC 2.0. Connect with `edb tui`, a line of
//! `nc`, or the `serve-replay` transcript tool.
//!
//! ```text
//! edb-serve [--listen ADDR] [--threads N]
//! ```

use edb_serve::{Server, ServerConfig};

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4557".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                config.addr = args
                    .next()
                    .unwrap_or_else(|| usage("--listen needs an address"));
            }
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--help" | "-h" => {
                println!("usage: edb-serve [--listen ADDR] [--threads N]");
                return;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("edb-serve: cannot listen: {e}");
            std::process::exit(2);
        }
    };
    println!("edb-serve listening on {}", server.addr());
    server.wait();
}

fn usage(message: &str) -> ! {
    eprintln!("edb-serve: {message}\nusage: edb-serve [--listen ADDR] [--threads N]");
    std::process::exit(2);
}
