//! **edb-obs** — the energy-interference-free observability bus.
//!
//! EDB's thesis is *passive* monitoring: watch the target's program
//! events, I/O, and energy state without perturbing any of them. This
//! crate is the simulation's own application of that principle to
//! itself. Every layer of the bench (CPU, device, energy, debugger,
//! RFID) publishes structured observations into a [`Recorder`], and the
//! recorder is held to the same standard as EDB's hardware: it only
//! *reads* simulation state, never draws from any RNG, and never alters
//! event ordering — with a recorder attached, experiment outputs stay
//! bit-identical at any thread count.
//!
//! The pieces:
//!
//! * [`Recorder`] — bounded per-category ring buffers of timestamped
//!   events, gated by a [`CategoryMask`]; zero work when a category (or
//!   the whole recorder) is disabled.
//! * [`metrics`] — a registry of counters and fixed-bucket histograms
//!   whose merge is commutative, so totals aggregated across a parallel
//!   experiment run are thread-count-deterministic.
//! * [`perfetto`] / [`vcd`] — exporters: Chrome `trace_event` JSON (one
//!   track per subsystem, timestamps in simulated microseconds, open in
//!   ui.perfetto.dev) and VCD for digital lines (gtkwave & friends).
//! * [`profile`] — a sampling energy profiler: PC-histogram samples
//!   correlated with the capacitor voltage at configurable sim-time
//!   intervals, the paper's watchpoint energy profiles as an artifact.
//! * [`ambient`] — a process-global recorder configuration consulted by
//!   the bench harness, so `--obs` on an experiment binary attaches a
//!   recorder inside every `System` the experiments build.
//!
//! # Example
//!
//! ```
//! use edb_obs::{Category, Recorder, RecorderConfig};
//! use edb_energy::SimTime;
//!
//! let mut rec = Recorder::new(RecorderConfig::default());
//! rec.instant(Category::Device, SimTime::from_us(10), "turn-on");
//! rec.counter(Category::Energy, SimTime::from_us(10), "Vcap", 2.4);
//! let json = rec.perfetto_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ambient;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod vcd;

pub use edb_energy::trace::EventMark;
pub use edb_energy::SimTime;
pub use metrics::{Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use profile::EnergyProfiler;
pub use vcd::LineTrace;

use edb_energy::Trace;
use std::collections::VecDeque;

/// The subsystem an observation came from. Each category maps to one
/// track in the Perfetto export and one ring buffer in the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// The CPU: PC/opcode samples, decode-cache statistics.
    Cpu,
    /// The target device: power cycles, peripheral activity, faults.
    Device,
    /// The energy substrate: capacitor voltage, charge/discharge ops.
    Energy,
    /// EDB itself: wire-protocol commands, retries, sessions, guards.
    Core,
    /// The RFID world: reader frames, backscatter replies.
    Rfid,
}

/// Number of categories (ring buffers, Perfetto tracks).
pub const CATEGORY_COUNT: usize = 5;

impl Category {
    /// Every category, in track order.
    pub const ALL: [Category; CATEGORY_COUNT] = [
        Category::Cpu,
        Category::Device,
        Category::Energy,
        Category::Core,
        Category::Rfid,
    ];

    /// Stable lowercase name (`cpu`, `device`, ...), as accepted by
    /// [`CategoryMask::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Category::Cpu => "cpu",
            Category::Device => "device",
            Category::Energy => "energy",
            Category::Core => "core",
            Category::Rfid => "rfid",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// A set of enabled [`Category`]s, stored as a bitmask.
///
/// # Example
///
/// ```
/// use edb_obs::{Category, CategoryMask};
/// let mask = CategoryMask::parse("cpu,energy").unwrap();
/// assert!(mask.contains(Category::Cpu));
/// assert!(!mask.contains(Category::Rfid));
/// assert_eq!(CategoryMask::parse("all"), Ok(CategoryMask::ALL));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(u8);

impl CategoryMask {
    /// No categories enabled.
    pub const NONE: CategoryMask = CategoryMask(0);
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask((1 << CATEGORY_COUNT as u8) - 1);

    /// A mask of exactly the given categories.
    pub fn of(categories: &[Category]) -> Self {
        categories
            .iter()
            .fold(CategoryMask::NONE, |m, &c| m.with(c))
    }

    /// This mask with `category` also enabled.
    #[must_use]
    pub fn with(self, category: Category) -> Self {
        CategoryMask(self.0 | category.bit())
    }

    /// Whether `category` is enabled.
    pub fn contains(self, category: Category) -> bool {
        self.0 & category.bit() != 0
    }

    /// Whether no category is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated category list (`cpu,energy`), or the
    /// words `all` / `none`.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized word.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "all" => return Ok(CategoryMask::ALL),
            "none" | "" => return Ok(CategoryMask::NONE),
            _ => {}
        }
        let mut mask = CategoryMask::NONE;
        for word in s.split(',') {
            let word = word.trim();
            let cat = Category::ALL
                .iter()
                .find(|c| c.name() == word)
                .ok_or_else(|| format!("unknown category `{word}`"))?;
            mask = mask.with(*cat);
        }
        Ok(mask)
    }
}

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// Which categories to record. Disabled categories cost nothing.
    pub categories: CategoryMask,
    /// Ring-buffer capacity per category; when full, the oldest events
    /// are dropped (and counted in [`Recorder::dropped`]).
    pub ring_capacity: usize,
    /// Decimation period of the capacitor-voltage trace.
    pub energy_period: SimTime,
    /// Sampling period of the PC/energy profiler.
    pub pc_sample_period: SimTime,
    /// Address-bucket width of the PC profile, bytes.
    pub pc_bucket_bytes: u16,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            categories: CategoryMask::ALL,
            ring_capacity: 1 << 16,
            energy_period: SimTime::from_us(500),
            pc_sample_period: SimTime::from_us(100),
            pc_bucket_bytes: 64,
        }
    }
}

impl RecorderConfig {
    /// The default configuration restricted to `categories`.
    pub fn with_categories(categories: CategoryMask) -> Self {
        RecorderConfig {
            categories,
            ..RecorderConfig::default()
        }
    }
}

/// What kind of observation an [`ObsEvent`] is — a direct mapping onto
/// the Perfetto `trace_event` phases the exporter emits.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsKind {
    /// A point event (`ph: "i"`).
    Instant {
        /// Event label.
        name: String,
    },
    /// The start of a duration slice (`ph: "B"`).
    Begin {
        /// Slice label (must match the closing [`ObsKind::End`]).
        name: String,
    },
    /// The end of a duration slice (`ph: "E"`).
    End {
        /// Slice label.
        name: String,
    },
    /// A sampled counter value (`ph: "C"`).
    Counter {
        /// Counter-track name.
        name: &'static str,
        /// The sampled value.
        value: f64,
    },
}

/// One timestamped observation in a category ring.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Simulation time of the observation.
    pub at: SimTime,
    /// What was observed.
    pub kind: ObsKind,
}

/// A bounded ring of events plus the count of evictions.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<ObsEvent>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, event: ObsEvent) {
        if self.events.len() >= capacity.max(1) {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// The structured, deterministic observation sink all layers publish
/// into.
///
/// A recorder never samples wall clocks, never draws randomness, and
/// only ever *reads* the simulation state handed to it — attaching one
/// cannot change an experiment's outcome. Publishing to a disabled
/// category is a single mask test.
#[derive(Debug)]
pub struct Recorder {
    config: RecorderConfig,
    rings: [Ring; CATEGORY_COUNT],
    /// The counters and histograms this recorder accumulates.
    pub metrics: Metrics,
    vcap: Trace,
    profiler: EnergyProfiler,
    lines: Vec<LineTrace>,
    ambient: bool,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new(config: RecorderConfig) -> Self {
        let vcap = Trace::new("Vcap", config.energy_period);
        let profiler = EnergyProfiler::new(config.pc_sample_period, config.pc_bucket_bytes);
        Recorder {
            config,
            rings: Default::default(),
            metrics: Metrics::new(),
            vcap,
            profiler,
            lines: Vec::new(),
            ambient: false,
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// Marks this recorder as ambient-attached: its metrics are flushed
    /// into the [`ambient`] global registry when the owning bench drops
    /// it. Explicitly-attached recorders stay private.
    pub fn mark_ambient(&mut self) {
        self.ambient = true;
    }

    /// Whether this recorder was attached by the [`ambient`] mechanism.
    pub fn is_ambient(&self) -> bool {
        self.ambient
    }

    /// Whether `category` is being recorded.
    #[inline]
    pub fn enabled(&self, category: Category) -> bool {
        self.config.categories.contains(category)
    }

    /// Records a point event.
    pub fn instant(&mut self, category: Category, at: SimTime, name: impl Into<String>) {
        if self.enabled(category) {
            let event = ObsEvent {
                at,
                kind: ObsKind::Instant { name: name.into() },
            };
            self.rings[category.index()].push(self.config.ring_capacity, event);
        }
    }

    /// Opens a duration slice.
    pub fn begin(&mut self, category: Category, at: SimTime, name: impl Into<String>) {
        if self.enabled(category) {
            let event = ObsEvent {
                at,
                kind: ObsKind::Begin { name: name.into() },
            };
            self.rings[category.index()].push(self.config.ring_capacity, event);
        }
    }

    /// Closes a duration slice.
    pub fn end(&mut self, category: Category, at: SimTime, name: impl Into<String>) {
        if self.enabled(category) {
            let event = ObsEvent {
                at,
                kind: ObsKind::End { name: name.into() },
            };
            self.rings[category.index()].push(self.config.ring_capacity, event);
        }
    }

    /// Records a counter sample.
    pub fn counter(&mut self, category: Category, at: SimTime, name: &'static str, value: f64) {
        if self.enabled(category) {
            let event = ObsEvent {
                at,
                kind: ObsKind::Counter { name, value },
            };
            self.rings[category.index()].push(self.config.ring_capacity, event);
        }
    }

    /// Offers a capacitor-voltage sample to the decimating energy trace.
    /// No-op unless [`Category::Energy`] is enabled.
    #[inline]
    pub fn energy_sample(&mut self, at: SimTime, v_cap: f64) {
        if self.enabled(Category::Energy) {
            self.vcap.record(at, v_cap);
        }
    }

    /// Places a labeled mark on the energy trace (exported to CSV and
    /// as a Core instant).
    pub fn energy_mark(&mut self, at: SimTime, label: impl Into<String>) {
        if self.enabled(Category::Energy) {
            self.vcap.mark(at, label);
        }
    }

    /// Offers a PC/energy sample to the profiler; the profiler keeps it
    /// only if its sampling period has elapsed. No-op unless
    /// [`Category::Cpu`] is enabled. Returns whether the sample was
    /// kept, so callers can attach further sampled observations (e.g.
    /// histograms) at exactly the profiler's cadence.
    #[inline]
    pub fn pc_sample(&mut self, at: SimTime, pc: u16, v_cap: f64) -> bool {
        self.enabled(Category::Cpu) && self.profiler.offer(at, pc, v_cap)
    }

    /// The earliest simulation time at which this recorder wants to be
    /// offered another sample — `System::span_deadline` caps each span
    /// here so the profiler sees boundaries at its configured resolution.
    /// (Extra span breaks are bit-identity-safe by the `run_span`
    /// contract.) `None` when nothing is sampling.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.enabled(Category::Cpu) {
            Some(self.profiler.next_due())
        } else {
            None
        }
    }

    /// Whether any periodic sampler (PC profiler, Vcap trace) wants a
    /// sample at `at`. The publish fast path skips all observation work
    /// on steps where nothing is due and nothing changed.
    #[inline]
    pub fn sample_due(&self, at: SimTime) -> bool {
        (self.enabled(Category::Cpu) && at >= self.profiler.next_due())
            || (self.enabled(Category::Energy) && self.vcap.store_due(at))
    }

    /// Advances the PC profiler's deadline past `at` without recording —
    /// called when a sample is due but the CPU is unpowered, so the
    /// sampling cadence keeps moving and the fast path re-arms.
    #[inline]
    pub fn profiler_catch_up(&mut self, at: SimTime) {
        if self.enabled(Category::Cpu) {
            self.profiler.catch_up(at);
        }
    }

    /// A named digital line for the VCD export, created on first use.
    /// `width` is the bit width (1 for a wire, 16 for a bus).
    pub fn line_mut(&mut self, name: &'static str, width: u16) -> &mut LineTrace {
        if let Some(i) = self.lines.iter().position(|l| l.name() == name) {
            return &mut self.lines[i];
        }
        self.lines.push(LineTrace::new(name, width));
        self.lines.last_mut().expect("just pushed")
    }

    /// The recorded digital lines, in creation order.
    pub fn lines(&self) -> &[LineTrace] {
        &self.lines
    }

    /// The decimated capacitor-voltage trace.
    pub fn vcap(&self) -> &Trace {
        &self.vcap
    }

    /// The PC/energy profiler.
    pub fn profiler(&self) -> &EnergyProfiler {
        &self.profiler
    }

    /// Events recorded under `category`, oldest first.
    pub fn events(&self, category: Category) -> impl Iterator<Item = &ObsEvent> {
        self.rings[category.index()].events.iter()
    }

    /// How many events were evicted from `category`'s ring.
    pub fn dropped(&self, category: Category) -> u64 {
        self.rings[category.index()].dropped
    }

    /// The Perfetto/Chrome `trace_event` JSON export (open the file in
    /// ui.perfetto.dev).
    pub fn perfetto_json(&self) -> String {
        perfetto::export(self)
    }

    /// The VCD export of the recorded digital lines.
    pub fn vcd(&self) -> String {
        vcd::export(self.lines())
    }

    /// The PC/energy profile as a `profile.json` artifact.
    pub fn profile_json(&self) -> String {
        self.profiler.to_json()
    }

    /// The energy trace as CSV (the pre-existing exporter, kept for
    /// spreadsheet workflows).
    pub fn vcap_csv(&self) -> String {
        self.vcap.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parses_lists_and_keywords() {
        assert_eq!(CategoryMask::parse("all"), Ok(CategoryMask::ALL));
        assert_eq!(CategoryMask::parse("none"), Ok(CategoryMask::NONE));
        let m = CategoryMask::parse("cpu, rfid").unwrap();
        assert!(m.contains(Category::Cpu));
        assert!(m.contains(Category::Rfid));
        assert!(!m.contains(Category::Energy));
        assert!(CategoryMask::parse("bogus").is_err());
        assert_eq!(
            CategoryMask::of(&[Category::Cpu, Category::Rfid]),
            m,
            "of() and parse() agree"
        );
    }

    #[test]
    fn disabled_categories_record_nothing() {
        let mut rec = Recorder::new(RecorderConfig::with_categories(CategoryMask::of(&[
            Category::Device,
        ])));
        rec.instant(Category::Cpu, SimTime::ZERO, "dropped");
        rec.instant(Category::Device, SimTime::ZERO, "kept");
        rec.energy_sample(SimTime::ZERO, 2.0); // Energy disabled
        assert_eq!(rec.events(Category::Cpu).count(), 0);
        assert_eq!(rec.events(Category::Device).count(), 1);
        assert!(rec.vcap().is_empty());
        assert_eq!(rec.next_deadline(), None, "no Cpu sampling deadline");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let config = RecorderConfig {
            ring_capacity: 4,
            ..RecorderConfig::default()
        };
        let mut rec = Recorder::new(config);
        for k in 0..10u64 {
            rec.instant(Category::Core, SimTime::from_us(k), format!("e{k}"));
        }
        let names: Vec<_> = rec
            .events(Category::Core)
            .map(|e| match &e.kind {
                ObsKind::Instant { name } => name.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(names, ["e6", "e7", "e8", "e9"]);
        assert_eq!(rec.dropped(Category::Core), 6);
    }

    #[test]
    fn line_mut_reuses_by_name() {
        let mut rec = Recorder::new(RecorderConfig::default());
        rec.line_mut("powered", 1).record(SimTime::ZERO, 0);
        rec.line_mut("powered", 1).record(SimTime::from_us(5), 1);
        assert_eq!(rec.lines().len(), 1);
        assert_eq!(rec.lines()[0].changes().len(), 2);
    }
}
