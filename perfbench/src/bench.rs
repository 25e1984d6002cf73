//! What every workload shares: the pass budget, the pass record, the
//! host-speed reference, and span arithmetic.

use crate::gate::Gate;
use crate::trace::SpanRec;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// How many episodes a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start episodes until this instant.
    Until(Instant),
    /// Start episodes until this instant, timing the host-speed
    /// reference after each one (the end-to-end runs).
    Referenced(Instant),
    /// Run exactly this many episodes.
    Count(usize),
}

impl Budget {
    /// Whether episode number `done` (0-based) should start.
    pub fn more(&self, done: usize) -> bool {
        match *self {
            Budget::Until(t) | Budget::Referenced(t) => Instant::now() < t,
            Budget::Count(n) => done < n,
        }
    }

    /// Whether each episode is followed by a reference timing.
    pub fn referenced(&self) -> bool {
        matches!(self, Budget::Referenced(_))
    }
}

/// Instructions the reference interpreter runs per timing.
const REFERENCE_STEPS: u32 = 300_000;

/// Source lines the reference parser reads per timing.
const REFERENCE_LINES: u64 = 3_000;

/// The reference kernel's time on the reference host (the host the
/// benchmark's baselines were taken on), milliseconds. Scaled times read
/// as that host's times.
pub const REFERENCE_MS: f64 = 1.5;

/// Times the reference kernel once, milliseconds.
///
/// The host this benchmark runs on shares its cores: its speed drifts by
/// tens of percent over seconds, and every timed thing drifts with it.
/// The kernel is fixed work shaped like the two kinds the benchmark
/// times — a small register-machine interpreter (the simulator's
/// episodes) and assembly-like text parsed into a symbol table (the
/// set-ups) — so its time moves with the host's speed at that moment. It
/// calls no program code, holds well under a megabyte, and drops what it
/// allocates before returning.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(interpret(REFERENCE_STEPS));
    std::hint::black_box(parse(REFERENCE_LINES));
    ms(t0.elapsed())
}

/// The reference interpreter: a 16-register machine looping a
/// 16-instruction program over 16 KiB of word memory, counting cycles
/// and charging energy as it goes.
fn interpret(steps: u32) -> (u64, f64) {
    const WORDS: usize = 8192;
    // (opcode, destination, source)
    const PROGRAM: [(u8, u8, u8); 16] = [
        (1, 1, 2),
        (0, 1, 3),
        (2, 1, 4),
        (4, 5, 1),
        (5, 5, 2),
        (0, 6, 5),
        (1, 7, 6),
        (6, 7, 1),
        (2, 7, 6),
        (0, 2, 0),
        (3, 7, 0),
        (4, 3, 7),
        (0, 4, 8),
        (5, 8, 3),
        (0, 9, 9),
        (7, 10, 0),
    ];
    const CYCLES: [u32; 8] = [1, 2, 2, 1, 1, 1, 3, 1];
    let mut mem = [0u16; WORDS];
    let mut regs = [1u16; 16];
    let (mut pc, mut cycles, mut energy, mut volts) = (0usize, 0u64, 0.0f64, 3.0f64);
    for _ in 0..steps {
        let (op, a, b) = PROGRAM[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        pc = (pc + 1) % PROGRAM.len();
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b]).wrapping_add(1),
            1 => regs[a] = mem[usize::from(regs[b]) % WORDS],
            2 => mem[usize::from(regs[b]) % WORDS] = regs[a],
            3 => {
                if regs[a] & 1 == 0 {
                    pc = (pc + 1) % PROGRAM.len();
                }
            }
            4 => regs[a] ^= regs[b],
            5 => regs[a] = regs[a].rotate_left(u32::from(regs[b] & 7)),
            6 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            _ => regs[a] = regs[a].wrapping_add(1),
        }
        let c = CYCLES[usize::from(op)];
        cycles += u64::from(c);
        energy += f64::from(c) * 1.5e-9 * volts;
        volts = if volts < 1.8 { 3.0 } else { volts - 1e-7 };
    }
    std::hint::black_box(&mem);
    (cycles, energy)
}

/// The reference parser: formats assembly-like lines, splits them into
/// tokens, counts labels in a symbol table and sums immediates and
/// symbol references.
fn parse(lines: u64) -> u64 {
    let mut symbols: HashMap<String, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..lines {
        let line = format!("label_{}: mov r{}, #{}  ; comment", i % 97, i % 16, i * 7);
        let mut tokens = line.split([' ', ',', ':']).filter(|t| !t.is_empty());
        let label = tokens.next().unwrap_or_default().to_string();
        *symbols.entry(label).or_insert(0) += 1;
        for token in tokens {
            if let Some(n) = token.strip_prefix('#') {
                acc += n.parse::<u64>().unwrap_or(0);
            } else if let Some(&v) = symbols.get(token) {
                acc += v;
            }
        }
    }
    acc
}

/// Times the reference kernel on `threads` threads at once (the calling
/// thread and `threads - 1` more) and returns their mean, milliseconds:
/// the speed the host gives a workload that keeps that many threads
/// busy.
pub fn reference_ms_on(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_ms();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(reference_ms)).collect();
        let mut times = vec![reference_ms()];
        times.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("reference thread")),
        );
        times
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// `raw` (any time unit) as the reference host would have taken, given
/// the reference kernel took `reference_ms` next to it here.
pub fn scaled(raw: f64, reference_ms: f64) -> f64 {
    raw * REFERENCE_MS / reference_ms
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time of each episode, milliseconds.
    pub episode_ms: Vec<f64>,
    /// The reference kernel's time right after each episode,
    /// milliseconds (empty unless the budget asks for it).
    pub reference_ms: Vec<f64>,
    /// The process's memory high-water mark over each episode,
    /// megabytes (empty unless the budget asks for it and the mark can
    /// be reset).
    pub peak_rss_mb: Vec<f64>,
    /// Wall time of the whole pass (episodes only), seconds.
    pub wall_s: f64,
    /// Named sums and first-episode values the workload accumulates.
    pub values: BTreeMap<String, f64>,
    /// Named samples (per call, per cell, ...).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Operations and checks.
    pub gate: Gate,
}

impl Pass {
    /// Records one episode's host time. When the budget asks for it,
    /// also records the memory high-water mark the episode reached, times
    /// the reference kernel, and resets the mark for the next episode.
    pub fn episode(&mut self, ms: f64, budget: Budget) {
        self.episode_ms.push(ms);
        if budget.referenced() {
            self.between_episodes(1);
        }
    }

    /// What a referenced budget does after each episode (or, on a
    /// workload whose connections run episodes side by side, after each
    /// round of them): reads the memory high-water mark, times the
    /// reference kernel on as many threads as the episode keeps busy,
    /// and resets the mark.
    pub fn between_episodes(&mut self, threads: usize) {
        if let Some(mb) = peak_rss_mb() {
            self.peak_rss_mb.push(mb);
        }
        self.reference_ms.push(reference_ms_on(threads));
        reset_peak_rss();
    }

    /// Episode times scaled to the reference host, each by the reference
    /// timing that followed it (the raw times when there are none).
    pub fn scaled_episode_ms(&self) -> Vec<f64> {
        if self.reference_ms.is_empty() {
            return self.episode_ms.clone();
        }
        self.episode_ms
            .iter()
            .zip(&self.reference_ms)
            .map(|(&e, &r)| scaled(e, r))
            .collect()
    }

    /// Adds `v` to the named sum.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.values.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Sets a named value.
    pub fn set(&mut self, key: &str, v: f64) {
        self.values.insert(key.to_string(), v);
    }

    /// A named value (0 when never set).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Appends a named sample.
    pub fn sample(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    /// The named samples (empty when none).
    pub fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Summed episode time, seconds.
    pub fn episode_secs(&self) -> f64 {
        self.episode_ms.iter().sum::<f64>() / 1e3
    }

    /// Folds another pass (e.g. one connection's) into this one.
    pub fn merge(&mut self, other: Pass) {
        self.episode_ms.extend(other.episode_ms);
        self.reference_ms.extend(other.reference_ms);
        self.peak_rss_mb.extend(other.peak_rss_mb);
        for (k, v) in other.values {
            *self.values.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.gate.merge(other.gate);
    }
}

/// The process's resident-set high-water mark, megabytes (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the process's resident-set high-water mark to its current
/// resident set, so the next reading covers only what follows. Returns
/// whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Durations (nanoseconds) of the spans named `name`.
pub fn durations_ns(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Summed duration over summed work of the spans named `name`:
/// nanoseconds per unit of work (0 when no work was recorded).
pub fn ns_per_work(spans: &[SpanRec], name: &str) -> f64 {
    let (dur, work) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(d, w), s| (d + s.dur_ns(), w + s.work));
    if work == 0 {
        0.0
    } else {
        dur as f64 / work as f64
    }
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, work: u64) -> SpanRec {
        SpanRec {
            id: 1,
            parent: 0,
            episode: 1,
            name,
            start_ns,
            end_ns,
            work,
        }
    }

    #[test]
    fn ns_per_work_divides_summed_time_by_summed_work() {
        let spans = [
            span("a", 0, 100, 10),
            span("a", 100, 400, 20),
            span("b", 0, 9, 1),
        ];
        assert_eq!(ns_per_work(&spans, "a"), 400.0 / 30.0);
        assert_eq!(ns_per_work(&spans, "missing"), 0.0);
        assert_eq!(durations_ns(&spans, "a"), vec![100.0, 300.0]);
    }

    #[test]
    fn scaled_episodes_divide_by_the_reference_that_followed() {
        let mut p = Pass {
            episode_ms: vec![10.0, 20.0],
            ..Pass::default()
        };
        assert_eq!(p.scaled_episode_ms(), [10.0, 20.0]);
        p.reference_ms = vec![REFERENCE_MS, 2.0 * REFERENCE_MS];
        assert_eq!(p.scaled_episode_ms(), [10.0, 10.0]);
        assert_eq!(scaled(3.0, 0.5 * REFERENCE_MS), 6.0);
    }

    #[test]
    fn the_reference_kernel_does_fixed_work() {
        assert_eq!(interpret(10_000), interpret(10_000));
        assert_eq!(parse(200), parse(200));
        assert!(reference_ms_on(2) > 0.0);
    }

    #[test]
    fn merge_sums_values_and_concatenates_samples() {
        let mut a = Pass::default();
        a.add("x", 1.0);
        a.sample("s", 1.0);
        a.episode_ms.push(2.0);
        let mut b = Pass::default();
        b.add("x", 2.0);
        b.sample("s", 3.0);
        b.episode_ms.push(4.0);
        a.merge(b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.samples_of("s"), [1.0, 3.0]);
        assert_eq!(a.episode_secs(), 0.006);
    }
}
