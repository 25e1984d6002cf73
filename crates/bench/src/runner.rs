//! Deterministic parallel experiment engine.
//!
//! Every experiment in this crate is a pile of independent seeded
//! simulations — Monte Carlo trials, per-connection sweeps, per-variant
//! profiles. The [`Runner`] executes those piles on a work-stealing
//! thread pool while keeping the results **bit-identical at any thread
//! count**:
//!
//! * each trial's seed is derived from the root seed with the stable
//!   hash [`seed_for`]`(root, experiment, trial)` — never from "which
//!   worker got there first";
//! * trial outputs are collected with their trial index and re-sorted,
//!   so `map_trials` returns the same `Vec` regardless of scheduling;
//! * experiments themselves fan out through the same pool
//!   ([`Runner::run_experiments`]), sharing one thread budget with the
//!   trials inside them, so `--threads N` bounds total parallelism no
//!   matter how the work nests.
//!
//! A run also produces a machine-readable [`Manifest`]
//! (`target/experiments/manifest.json`) with per-experiment wall time,
//! trial counts, and metrics — the same data as the text reports,
//! serialized instead of re-formatted.
//!
//! The sequential path is just `--threads 1`.

use crate::{write_artifact, Report};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Derives the seed for one trial of one experiment from the run's root
/// seed.
///
/// The derivation is a pure function of `(root_seed, experiment,
/// trial)` — an FNV-1a hash of the experiment name mixed with the root
/// seed and trial index through a SplitMix64 finalizer — so a trial's
/// randomness never depends on scheduling, thread count, or the other
/// experiments in the run.
pub fn seed_for(root_seed: u64, experiment: &str, trial: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h
        ^ root_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ trial.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one trial is allowed to know about the run: who it is and
/// what seed to use. Handed to the closure of [`Runner::map_trials`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx<'a> {
    /// The experiment (or sub-experiment) this trial belongs to.
    pub experiment: &'a str,
    /// Trial index within the experiment, `0..n`.
    pub trial: usize,
    /// The trial's derived seed — the only sanctioned source of
    /// randomness inside a trial.
    pub seed: u64,
}

/// Non-blocking permit pool for *extra* worker threads.
///
/// The calling thread always participates in its own fan-out, so a
/// nested `map_trials` that finds the pool empty simply runs inline —
/// nesting can starve parallelism but never deadlock.
#[derive(Debug)]
struct Budget {
    permits: Mutex<usize>,
}

impl Budget {
    fn try_acquire(&self, want: usize) -> usize {
        let mut p = self.permits.lock().unwrap();
        let got = want.min(*p);
        *p -= got;
        got
    }

    fn release(&self, n: usize) {
        *self.permits.lock().unwrap() += n;
    }
}

/// One experiment the suite knows how to run, as data.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable machine name (`table3`, `fig11`, ...), used for seed
    /// derivation and the manifest.
    pub name: &'static str,
    /// Human-readable one-liner.
    pub title: &'static str,
    /// Entry point. Receives the runner so the experiment can fan its
    /// own trials out through the shared pool.
    pub run: fn(&Runner) -> Report,
}

/// A completed experiment: its report plus the wall time it took.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The spec's `name`.
    pub name: &'static str,
    /// The report the experiment produced.
    pub report: Report,
    /// Wall-clock seconds this experiment took (trials included).
    pub wall_s: f64,
}

/// The machine-readable record of one run, written to
/// `target/experiments/manifest.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Manifest {
    /// Root seed the run derived every trial seed from.
    pub root_seed: u64,
    /// Thread budget the run was given.
    pub threads: usize,
    /// End-to-end wall time, seconds.
    pub total_wall_s: f64,
    /// Per-experiment entries, in execution (spec) order.
    pub experiments: Vec<ManifestEntry>,
    /// Aggregated observability metrics, present only when the run had
    /// ambient recording enabled (`--obs`). Deliberately *not* part of
    /// `ManifestEntry::metrics`, which the golden-manifest gate compares
    /// bit-exactly with no extra keys allowed.
    pub obs: Option<edb_obs::MetricsSnapshot>,
}

// Serialization is hand-written (deserialization is derived: a missing
// `obs` key reads as `None`) so that a run *without* recording produces
// a manifest byte-identical to the pre-observability format — the
// derive would emit `"obs": null`. The golden-manifest CI gate depends
// on attached-vs-detached runs differing only by the presence of this
// one key.
impl Serialize for Manifest {
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.map(4 + usize::from(self.obs.is_some()));
        sink.str("root_seed");
        self.root_seed.serialize(sink);
        sink.str("threads");
        self.threads.serialize(sink);
        sink.str("total_wall_s");
        self.total_wall_s.serialize(sink);
        sink.str("experiments");
        self.experiments.serialize(sink);
        if let Some(obs) = &self.obs {
            sink.str("obs");
            obs.serialize(sink);
        }
    }
}

/// One experiment's row in the [`Manifest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The spec's machine name.
    pub name: String,
    /// The report title.
    pub title: String,
    /// Wall-clock seconds for this experiment.
    pub wall_s: f64,
    /// Trials executed under this experiment (sub-sweeps included).
    pub trials: u64,
    /// The report's named metrics.
    pub metrics: BTreeMap<String, f64>,
}

/// The deterministic parallel trial pool.
///
/// Construct one with a thread budget and root seed, then hand it to
/// experiments ([`ExperimentSpec::run`]) or call
/// [`map_trials`](Runner::map_trials) directly.
#[derive(Debug)]
pub struct Runner {
    threads: usize,
    root_seed: u64,
    progress: bool,
    write_manifest: bool,
    max_trials: Option<usize>,
    budget: Budget,
    trials_run: Mutex<BTreeMap<String, u64>>,
}

impl Runner {
    /// A runner with progress lines on stderr and manifest writing
    /// enabled — what the bins use.
    pub fn new(threads: usize, root_seed: u64) -> Self {
        Self::build(threads, root_seed, true)
    }

    /// A silent runner that also skips the manifest — what tests use.
    pub fn quiet(threads: usize, root_seed: u64) -> Self {
        Self::build(threads, root_seed, false)
    }

    fn build(threads: usize, root_seed: u64, chatty: bool) -> Self {
        let threads = threads.max(1);
        Runner {
            threads,
            root_seed,
            progress: chatty,
            write_manifest: chatty,
            max_trials: None,
            budget: Budget {
                permits: Mutex::new(threads - 1),
            },
            trials_run: Mutex::new(BTreeMap::new()),
        }
    }

    /// Caps every [`map_trials`](Runner::map_trials) call at `n` trials.
    ///
    /// This is the CI smoke budget: the suite runs end to end with the
    /// same seed derivation (trial `i` keeps the exact seed it would
    /// have in a full run — the cap truncates, it never re-derives), so
    /// a capped run's metrics are a deterministic function of the root
    /// seed and the cap, comparable against a golden manifest produced
    /// with the same cap. `None` (the default) runs every trial.
    pub fn with_max_trials(mut self, max_trials: Option<usize>) -> Self {
        self.max_trials = max_trials;
        self
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The run's root seed.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// [`seed_for`] with this runner's root seed filled in.
    pub fn seed_for(&self, experiment: &str, trial: u64) -> u64 {
        seed_for(self.root_seed, experiment, trial)
    }

    fn say(&self, msg: std::fmt::Arguments<'_>) {
        if self.progress {
            eprintln!("[runner] {msg}");
        }
    }

    /// Work-stealing fan-out of `n` index-addressed jobs, results
    /// returned in index order. The calling thread always works;
    /// `extra` threads join if the budget allows.
    fn fan_out<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = f(i);
            slots.lock().unwrap().push((i, out));
        };
        let extra = self.budget.try_acquire(n - 1);
        if extra == 0 {
            work();
        } else {
            std::thread::scope(|s| {
                for _ in 0..extra {
                    s.spawn(work);
                }
                work();
            });
            self.budget.release(extra);
        }
        let mut v = slots.into_inner().unwrap();
        v.sort_unstable_by_key(|&(i, _)| i);
        v.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs `n` trials of `experiment` through the pool and returns
    /// their outputs in trial order.
    ///
    /// Each trial gets a [`TrialCtx`] carrying its derived seed; as long
    /// as the closure takes its randomness from `ctx.seed`, the returned
    /// `Vec` is bit-identical at any thread count.
    pub fn map_trials<T, F>(&self, experiment: &str, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&TrialCtx) -> T + Sync,
    {
        let n = match self.max_trials {
            Some(m) => n.min(m.max(1)),
            None => n,
        };
        if n == 0 {
            return Vec::new();
        }
        *self
            .trials_run
            .lock()
            .unwrap()
            .entry(experiment.to_string())
            .or_insert(0) += n as u64;
        self.fan_out(n, |i| {
            let ctx = TrialCtx {
                experiment,
                trial: i,
                seed: seed_for(self.root_seed, experiment, i as u64),
            };
            f(&ctx)
        })
    }

    /// Trials executed so far for `experiment`, sub-experiments
    /// (`name/...`) included.
    fn trials_under(&self, name: &str) -> u64 {
        let prefix = format!("{name}/");
        self.trials_run
            .lock()
            .unwrap()
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Runs a suite of experiments through the pool — whole experiments
    /// and the trials inside them share the same thread budget — then
    /// writes the run [`Manifest`].
    ///
    /// Results come back in spec order regardless of which finished
    /// first.
    pub fn run_experiments(&self, specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
        let t0 = Instant::now();
        self.say(format_args!(
            "{} experiment(s), {} thread(s), root seed {}",
            specs.len(),
            self.threads,
            self.root_seed
        ));
        let results = self.fan_out(specs.len(), |i| {
            let spec = &specs[i];
            self.say(format_args!("{:<12} start", spec.name));
            let t = Instant::now();
            let report = (spec.run)(self);
            let wall_s = t.elapsed().as_secs_f64();
            self.say(format_args!("{:<12} done in {wall_s:.2} s", spec.name));
            ExperimentResult {
                name: spec.name,
                report,
                wall_s,
            }
        });
        let total_wall_s = t0.elapsed().as_secs_f64();
        let manifest = self.manifest(specs, &results, total_wall_s);
        if self.write_manifest {
            match serde_json::to_string_pretty(&manifest) {
                Ok(json) => {
                    let path = write_artifact("manifest.json", &json);
                    self.say(format_args!("manifest: {path}"));
                }
                Err(e) => self.say(format_args!("manifest serialization failed: {e}")),
            }
        }
        self.say(format_args!("suite wall time {total_wall_s:.2} s"));
        results
    }

    /// Builds the [`Manifest`] for a completed set of experiments.
    pub fn manifest(
        &self,
        specs: &[ExperimentSpec],
        results: &[ExperimentResult],
        total_wall_s: f64,
    ) -> Manifest {
        Manifest {
            root_seed: self.root_seed,
            threads: self.threads,
            total_wall_s,
            obs: edb_obs::ambient::snapshot(),
            experiments: results
                .iter()
                .zip(specs)
                .map(|(r, s)| ManifestEntry {
                    name: r.name.to_string(),
                    title: s.title.to_string(),
                    wall_s: r.wall_s,
                    trials: self.trials_under(r.name),
                    metrics: r.report.metrics.clone(),
                })
                .collect(),
        }
    }
}

/// Shared command-line handling for the experiment bins: `--threads N`,
/// `--seed S`, `--max-trials N`, plus the observability flags `--obs
/// CATS`, `--trace-out PATH`, and `--profile-out PATH`, with the rest
/// of the arguments left for the bin.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Thread budget (defaults to the machine's parallelism).
    pub threads: usize,
    /// Root seed (defaults to 42 — the suite's published numbers).
    pub root_seed: u64,
    /// Per-call trial cap (defaults to none — the full budget).
    pub max_trials: Option<usize>,
    /// Categories to record (`--obs all`, `--obs cpu,energy`, ...).
    /// `None` when `--obs` was not passed; recording stays off.
    pub obs: Option<edb_obs::CategoryMask>,
    /// Where to write a Perfetto trace, for bins that export one.
    pub trace_out: Option<String>,
    /// Where to write the sampling energy profile, for bins that export
    /// one.
    pub profile_out: Option<String>,
    rest: Vec<String>,
}

impl Cli {
    /// Parses the process arguments and applies `--obs` (every bench
    /// bin honors the flag; [`parse`](Cli::parse) stays side-effect
    /// free for tests).
    pub fn from_env() -> Self {
        let cli = Self::parse(std::env::args().skip(1));
        cli.enable_obs();
        cli
    }

    /// Parses an explicit argument list (testable).
    ///
    /// Exits with status 2 on a malformed `--threads` / `--seed` /
    /// `--max-trials`.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
            value
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(flag))
        }
        fn usage(flag: &str) -> ! {
            eprintln!(
                "error: {flag} takes a number (usage: [--threads N] [--seed S] [--max-trials N] \
                 [--obs CATS] [--trace-out PATH] [--profile-out PATH])"
            );
            std::process::exit(2);
        }
        fn mask(value: Option<String>) -> edb_obs::CategoryMask {
            let raw = value.unwrap_or_default();
            edb_obs::CategoryMask::parse(&raw).unwrap_or_else(|e| {
                eprintln!("error: --obs: {e} (try `all` or a list like `cpu,energy`)");
                std::process::exit(2);
            })
        }
        fn path(flag: &str, value: Option<String>) -> String {
            value.unwrap_or_else(|| {
                eprintln!("error: {flag} takes a path");
                std::process::exit(2);
            })
        }
        let mut threads = default_threads();
        let mut root_seed = 42;
        let mut max_trials = None;
        let mut obs = None;
        let mut trace_out = None;
        let mut profile_out = None;
        let mut rest = Vec::new();
        let mut it = args;
        while let Some(a) = it.next() {
            if let Some(v) = a.strip_prefix("--threads=") {
                threads = number("--threads", Some(v.to_string()));
            } else if a == "--threads" {
                threads = number("--threads", it.next());
            } else if let Some(v) = a.strip_prefix("--seed=") {
                root_seed = number("--seed", Some(v.to_string()));
            } else if a == "--seed" {
                root_seed = number("--seed", it.next());
            } else if let Some(v) = a.strip_prefix("--max-trials=") {
                max_trials = Some(number("--max-trials", Some(v.to_string())));
            } else if a == "--max-trials" {
                max_trials = Some(number("--max-trials", it.next()));
            } else if let Some(v) = a.strip_prefix("--obs=") {
                obs = Some(mask(Some(v.to_string())));
            } else if a == "--obs" {
                obs = Some(mask(it.next()));
            } else if let Some(v) = a.strip_prefix("--trace-out=") {
                trace_out = Some(v.to_string());
            } else if a == "--trace-out" {
                trace_out = Some(path("--trace-out", it.next()));
            } else if let Some(v) = a.strip_prefix("--profile-out=") {
                profile_out = Some(v.to_string());
            } else if a == "--profile-out" {
                profile_out = Some(path("--profile-out", it.next()));
            } else {
                rest.push(a);
            }
        }
        Cli {
            threads,
            root_seed,
            max_trials,
            obs,
            trace_out,
            profile_out,
            rest,
        }
    }

    /// Whether a leftover flag (e.g. `--sweep`) was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    /// A [`Runner`] configured from the parsed arguments.
    pub fn runner(&self) -> Runner {
        Runner::new(self.threads, self.root_seed).with_max_trials(self.max_trials)
    }

    /// Turn ambient recording on when `--obs` was passed. Every
    /// [`edb_core::SystemBuilder::build`] after this call attaches a
    /// recorder with the requested categories, and the aggregated
    /// metrics land in the manifest's `obs` block.
    pub fn enable_obs(&self) {
        if let Some(mask) = self.obs {
            edb_obs::ambient::enable(edb_obs::RecorderConfig::with_categories(mask));
        }
    }
}

/// The machine's available parallelism (1 if unknowable).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_for_is_stable_and_well_spread() {
        // Pure function: same inputs, same seed.
        assert_eq!(seed_for(42, "table3", 7), seed_for(42, "table3", 7));
        // Distinct along every axis.
        let base = seed_for(42, "table3", 0);
        assert_ne!(base, seed_for(42, "table3", 1));
        assert_ne!(base, seed_for(42, "table2", 0));
        assert_ne!(base, seed_for(43, "table3", 0));
        // Trial seeds within an experiment are all distinct.
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|t| seed_for(42, "x", t)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn max_trials_truncates_without_reseeding() {
        let job = |ctx: &TrialCtx| (ctx.trial, ctx.seed);
        let full = Runner::quiet(1, 9).map_trials("exp", 64, job);
        let capped = Runner::quiet(1, 9)
            .with_max_trials(Some(5))
            .map_trials("exp", 64, job);
        // The capped run is an exact prefix of the full run: same trial
        // indices, same derived seeds.
        assert_eq!(capped, full[..5]);
        // A cap larger than the budget changes nothing.
        let roomy = Runner::quiet(1, 9)
            .with_max_trials(Some(1000))
            .map_trials("exp", 64, job);
        assert_eq!(roomy, full);
        // The cap never drops below one trial per call.
        let floor = Runner::quiet(1, 9)
            .with_max_trials(Some(0))
            .map_trials("exp", 64, job);
        assert_eq!(floor, full[..1]);
        // Cli wires the flag through in both spellings.
        let cli = Cli::parse(["--max-trials", "3"].iter().map(|s| s.to_string()));
        assert_eq!(cli.max_trials, Some(3));
        let cli = Cli::parse(["--max-trials=7"].iter().map(|s| s.to_string()));
        assert_eq!(cli.max_trials, Some(7));
        let cli = Cli::parse(std::iter::empty());
        assert_eq!(cli.max_trials, None);
    }

    #[test]
    fn map_trials_is_bit_identical_across_thread_counts() {
        let job = |ctx: &TrialCtx| (ctx.trial, ctx.seed, (ctx.seed as f64).sqrt());
        let seq = Runner::quiet(1, 9).map_trials("exp", 64, job);
        for threads in [2, 4, 8] {
            let par = Runner::quiet(threads, 9).map_trials("exp", 64, job);
            assert_eq!(seq, par, "divergence at {threads} threads");
        }
        // Results arrive in trial order.
        for (i, (trial, seed, _)) in seq.iter().enumerate() {
            assert_eq!(*trial, i);
            assert_eq!(*seed, seed_for(9, "exp", i as u64));
        }
    }

    #[test]
    fn nested_fan_out_shares_the_budget_without_deadlock() {
        let runner = Runner::quiet(3, 1);
        let out = runner.map_trials("outer", 8, |outer| {
            runner
                .map_trials("outer/inner", 8, |inner| inner.seed % 97)
                .iter()
                .sum::<u64>()
                + outer.trial as u64
        });
        assert_eq!(out.len(), 8);
        let again = {
            let r = Runner::quiet(1, 1);
            r.map_trials("outer", 8, |outer| {
                r.map_trials("outer/inner", 8, |inner| inner.seed % 97)
                    .iter()
                    .sum::<u64>()
                    + outer.trial as u64
            })
        };
        assert_eq!(out, again);
        // Sub-experiment trials count toward the parent.
        assert_eq!(runner.trials_under("outer"), 8 + 64);
    }

    #[test]
    fn run_experiments_preserves_spec_order_and_counts_trials() {
        fn fast(r: &Runner) -> Report {
            let vals = r.map_trials("fast", 4, |ctx| ctx.seed as f64);
            let mut rep = Report::new("fast");
            rep.metric("sum", vals.iter().sum());
            rep
        }
        fn slow(r: &Runner) -> Report {
            let vals = r.map_trials("slow", 2, |ctx| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ctx.seed as f64
            });
            let mut rep = Report::new("slow");
            rep.metric("sum", vals.iter().sum());
            rep
        }
        let specs = [
            ExperimentSpec {
                name: "slow",
                title: "slow one",
                run: slow,
            },
            ExperimentSpec {
                name: "fast",
                title: "fast one",
                run: fast,
            },
        ];
        let runner = Runner::quiet(4, 5);
        let results = runner.run_experiments(&specs);
        assert_eq!(results[0].name, "slow");
        assert_eq!(results[1].name, "fast");
        let manifest = runner.manifest(&specs, &results, 0.1);
        assert_eq!(manifest.experiments[0].trials, 2);
        assert_eq!(manifest.experiments[1].trials, 4);
        assert_eq!(
            manifest.experiments[1].metrics["sum"],
            results[1].report.get("sum")
        );
        // The manifest round-trips through JSON.
        let json = serde_json::to_string_pretty(&manifest).unwrap();
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.experiments.len(), 2);
        assert_eq!(back.root_seed, 5);
    }

    #[test]
    fn cli_parses_threads_seed_and_leftovers() {
        let cli = Cli::parse(
            ["--threads", "3", "--sweep", "--seed=7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cli.threads, 3);
        assert_eq!(cli.root_seed, 7);
        assert!(cli.flag("--sweep"));
        assert!(!cli.flag("--other"));
        let default = Cli::parse(std::iter::empty());
        assert_eq!(default.root_seed, 42);
        assert!(default.threads >= 1);
    }
}
