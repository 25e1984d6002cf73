//! The repository's benchmark: one command, four workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload harvest-span --seed 42 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` sets the named workload up several times (reporting the
//! median set-up time), then runs its episodes for `--seconds` and
//! reports the end-to-end metrics, each time scaled by a reference kernel
//! timed right after it (see `bench::reference_ms`). `--trace 1` runs
//! every workload, each for a quarter of `--seconds`: first untraced,
//! then the same episodes with spans around every call into a layer.
//! Per-layer metrics come from the traced episodes, rates and latencies
//! users see from the untraced ones, and `trace.overhead_share` compares
//! the two on the named workload. Spans and a self-time table go to
//! `perfbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod bench;
mod catalog;
mod fleet;
mod gate;
mod harvest;
mod serve;
mod stats;
mod stepped;
mod trace;

use bench::{Budget, Metrics, Pass};
use gate::{Gate, DEFAULT_SEED};
use stats::median;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order a traced run executes them.
pub const WORKLOADS: [&str; 4] = [harvest::NAME, stepped::NAME, serve::NAME, fleet::NAME];

/// Set-ups per untraced run: at least `MIN`, and more while the run has
/// spent under `SECONDS` setting up (and timing the reference after each
/// set-up), up to `MAX`. The median is reported.
const SETUP_REPS: (usize, f64, usize) = (5, 1.0, 5000);

/// Where spans, self-time tables and saved recordings go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WORKLOADS.into_iter().find(|w| *w == name).ok_or(format!(
                    "unknown workload `{name}` (have: {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A workload's state after set-up.
enum State {
    Harvest(harvest::Apps),
    Stepped(stepped::Firmware),
    Serve(serve::Served),
    Fleet(edb_core::FleetConfig),
}

fn setup(workload: &str, seed: u64) -> State {
    match workload {
        harvest::NAME => State::Harvest(harvest::setup()),
        stepped::NAME => State::Stepped(stepped::setup()),
        serve::NAME => State::Serve(serve::setup()),
        fleet::NAME => State::Fleet(fleet::setup(seed)),
        other => unreachable!("unknown workload {other}"),
    }
}

fn run_pass(state: &mut State, seed: u64, budget: Budget, tracer: &Tracer) -> Pass {
    match state {
        State::Harvest(apps) => harvest::pass(apps, seed, budget, tracer),
        State::Stepped(fw) => stepped::pass(fw, seed, budget, tracer),
        State::Serve(served) => serve::pass(served, seed, budget, tracer, Path::new(OUT_DIR)),
        State::Fleet(config) => fleet::pass(config, seed, budget, tracer),
    }
}

fn layers(
    workload: &str,
    untraced: &Pass,
    traced: &Pass,
    spans: &[trace::SpanRec],
    out: &mut Metrics,
) {
    match workload {
        harvest::NAME => harvest::layers(untraced, traced, spans, out),
        stepped::NAME => stepped::layers(untraced, traced, spans, out),
        serve::NAME => serve::layers(untraced, traced, spans, out),
        fleet::NAME => fleet::layers(untraced, traced, spans, out),
        other => unreachable!("unknown workload {other}"),
    }
}

fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn print_header(args: &Args) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto=thin, codegen-units=1)"
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: nproc {}", fleet::threads());
    println!(
        "serve load: closed loop, {} client connections on {} load-generator threads, server pool width {}",
        serve::CONNECTIONS,
        serve::CONNECTIONS,
        serve::POOL_WIDTH
    );
    println!(
        "fleet: {} tags in {}-tag cells, {} runner threads",
        fleet::TAGS,
        edb_bench::fleet::CELL_SIZE,
        fleet::threads()
    );
    println!("build: commit {}, profile {profile}", commit());
}

/// The untraced run of one workload: end-to-end metrics.
fn end_to_end(args: &Args, gate: &mut Gate) -> Metrics {
    // `timetravel-serve`'s set-up is mostly the server's accept loop
    // sleeping between 5 ms polls until the clients' connections arrive:
    // the host's speed does not move a sleep, so scaling it would only
    // add the reference's drift.
    let scale_setup = args.workload != serve::NAME;
    let mut setup_times = Vec::new();
    let mut setup_scaled = Vec::new();
    let mut state = None;
    let (min_reps, min_secs, max_reps) = SETUP_REPS;
    let started = Instant::now();
    while setup_times.len() < min_reps
        || (started.elapsed().as_secs_f64() < min_secs && setup_times.len() < max_reps)
    {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(args.workload, args.seed));
        let secs = t0.elapsed().as_secs_f64();
        setup_times.push(secs);
        if scale_setup {
            setup_scaled.push(bench::scaled(secs, bench::reference_ms()));
        }
    }
    let mut state = state.expect("at least one set-up");
    // Each episode's own memory high-water mark where the kernel lets the
    // mark be reset; otherwise the whole run's.
    let per_episode_rss = bench::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let pass = run_pass(
        &mut state,
        args.seed,
        Budget::Referenced(deadline),
        &Tracer::new(false),
    );
    drop(state);

    let mut metrics = Metrics::new();
    metrics.insert(
        "setup_s",
        median(if scale_setup {
            &setup_scaled
        } else {
            &setup_times
        }),
    );
    metrics.insert("episode_p50_ms", median(&pass.scaled_episode_ms()));
    let peak_rss = if per_episode_rss && !pass.peak_rss_mb.is_empty() {
        Some(median(&pass.peak_rss_mb))
    } else {
        bench::peak_rss_mb()
    };
    match peak_rss {
        Some(mb) => {
            metrics.insert("peak_rss_mb", mb);
        }
        None => {
            gate.check(false, || "cannot read VmHWM from /proc/self/status".into());
        }
    }
    println!("set-ups: {}", setup_times.len());
    if let Some(s) = stats::Summary::of(&pass.scaled_episode_ms()) {
        println!("episode: {}", s.describe("ms"));
    }
    // The unscaled figures, for comparing spreads with and without the
    // reference (`spread.py` reads this line).
    println!(
        "raw {{\"setup_s\": {}, \"episode_p50_ms\": {}, \"reference_ms\": {}}}",
        median(&setup_times),
        median(&pass.episode_ms),
        median(&pass.reference_ms),
    );
    println!(
        "peak_rss_mb: {}",
        if per_episode_rss {
            "median over episodes of the memory high-water mark each reached"
        } else {
            "the whole run's memory high-water mark (the mark cannot be reset here)"
        }
    );

    // What users of this workload see, for the report lines.
    let mut native = Metrics::new();
    layers(args.workload, &pass, &pass, &[], &mut native);
    for metric in catalog::PER_LAYER
        .iter()
        .filter(|m| m.layer == "workload" && m.workload == args.workload)
    {
        if let Some(v) = native.get(metric.name) {
            println!("  {:<40} {v:>16.4} {}", metric.name, metric.unit);
        }
    }
    if args.workload == serve::NAME {
        for (label, text) in serve::tails(&pass) {
            println!("  {label:<40} {text}");
        }
    }
    gate.merge(pass.gate);
    metrics
}

/// The traced run: every workload, untraced then traced on the same
/// episodes.
fn per_layer(args: &Args, gate: &mut Gate) -> Metrics {
    let out_dir = Path::new(OUT_DIR);
    let slot = Duration::from_secs_f64(args.seconds as f64 / WORKLOADS.len() as f64);
    let mut metrics = Metrics::new();
    for workload in WORKLOADS {
        let mut state = setup(workload, args.seed);
        let off = Tracer::new(false);
        let untraced = run_pass(
            &mut state,
            args.seed,
            Budget::Until(Instant::now() + slot / 2),
            &off,
        );
        let on = Tracer::new(true);
        let traced = run_pass(
            &mut state,
            args.seed,
            Budget::Count(untraced.episode_ms.len()),
            &on,
        );
        drop(state);
        if workload == args.workload {
            metrics.insert(
                "trace.overhead_share",
                traced.wall_s / untraced.wall_s - 1.0,
            );
        }
        let spans = on.spans();
        let table = trace::render_table(&trace::self_time_table(&spans));
        println!(
            "{workload}: untraced {:.3} s, traced {:.3} s, episode p50 {:.4} ms untraced, {:.4} ms traced",
            untraced.wall_s,
            traced.wall_s,
            median(&untraced.episode_ms),
            median(&traced.episode_ms),
        );
        println!(
            "self time, {workload} ({} traced episodes):",
            traced.episode_ms.len()
        );
        print!("{table}");
        let written = on
            .write(&out_dir.join(format!("spans-{workload}.jsonl")))
            .and_then(|()| {
                std::fs::write(out_dir.join(format!("self-time-{workload}.txt")), &table)
            });
        gate.check(written.is_ok(), || {
            format!("writing spans of {workload}: {written:?}")
        });
        layers(workload, &untraced, &traced, &spans, &mut metrics);
        gate.merge(untraced.gate);
        gate.merge(traced.gate);
    }
    metrics
}

fn json_line(gate: &Gate, metrics: &Metrics, wanted: &[catalog::Metric]) -> String {
    let body: Vec<String> = wanted
        .iter()
        .filter_map(|m| {
            metrics.get(m.name).filter(|v| v.is_finite()).map(|v| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed() == 0,
        gate.attempted(),
        gate.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = catalog::check(catalog::END_TO_END, catalog::PER_LAYER) {
        eprintln!("error: metric catalogue: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    print_header(&args);

    let mut gate = Gate::new();
    let (metrics, wanted) = if args.trace {
        (per_layer(&args, &mut gate), catalog::PER_LAYER)
    } else {
        (end_to_end(&args, &mut gate), catalog::END_TO_END)
    };
    if args.seed == DEFAULT_SEED {
        gate.check_pins();
        let pins: std::collections::BTreeMap<_, _> = gate.pins().iter().cloned().collect();
        for (name, value) in pins {
            println!("pin {name} {value}");
        }
    }
    for m in wanted {
        let v = metrics.get(m.name).copied();
        gate.check(v.is_some_and(f64::is_finite), || {
            format!("metric {} not measured ({v:?})", m.name)
        });
        if let Some(v) = v {
            println!(
                "{:<40} {v:>16.4} {:<12} {:<6} {:<20} {:<16} moves {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.layer,
                m.workload,
                m.moves
            );
        }
    }
    for failure in gate.failures() {
        println!("FAILED: {failure}");
    }
    println!("{}", json_line(&gate, &metrics, wanted));
    ExitCode::SUCCESS
}
