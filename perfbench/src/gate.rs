//! The correctness gate: operations and checks attempted and failed,
//! plus the simulated counts pinned at the default seed.

/// The seed used when `--seed` is not given; the pins hold at it.
pub const DEFAULT_SEED: u64 = 42;

/// Simulated counts and state digests of each workload's first episode
/// at [`DEFAULT_SEED`]. A host-side change (faster stepping, a new
/// codec, a hub rewrite) must leave every one of them unchanged.
pub const PINS: &[(&str, u64)] = &[
    ("fleet-10k.collision_slots", 2422),
    ("fleet-10k.epcs", 2098),
    ("fleet-10k.power_cycles", 23),
    ("fleet-10k.slots", 7562),
    ("fleet-10k.state_digest", 14562376247765548882),
    ("harvest-span.activity.instructions", 324457),
    ("harvest-span.activity.power_cycles", 1),
    ("harvest-span.activity.state_digest", 4683028986567185569),
    ("harvest-span.fib_guarded.guard_episodes", 115),
    ("harvest-span.fib_guarded.instructions", 418774),
    ("harvest-span.fib_guarded.power_cycles", 0),
    ("harvest-span.fib_guarded.state_digest", 3375690527157736563),
    ("harvest-span.fib_release.instructions", 157018),
    ("harvest-span.fib_release.power_cycles", 4),
    (
        "harvest-span.fib_release.state_digest",
        15103637678328111442,
    ),
    ("stepped.counter.bytes_written", 67504),
    ("stepped.counter.commits", 463),
    ("stepped.counter.restores", 2),
    ("stepped.counter.state_digest", 3286533330731460037),
    ("stepped.filter.bytes_written", 76950),
    ("stepped.filter.commits", 487),
    ("stepped.filter.restores", 2),
    ("stepped.filter.state_digest", 3022595576335613424),
    ("stepped.matrix.bytes_written", 160094),
    ("stepped.matrix.commits", 347),
    ("stepped.matrix.restores", 2),
    ("stepped.matrix.state_digest", 11657420377339402974),
    ("stepped.rfid.commands", 4),
    ("stepped.rfid.instructions", 303589),
    ("stepped.rfid.replies_corrupt", 0),
    ("stepped.rfid.replies_ok", 2),
    ("stepped.rfid.state_digest", 17489112834174219634),
    ("stepped.watch.instructions", 418774),
    ("stepped.watch.state_digest", 3375690527157736563),
    ("timetravel-serve.end_ns", 74780750),
    ("timetravel-serve.ops", 67),
    ("timetravel-serve.recording_bytes", 1468456),
    ("timetravel-serve.snapshots", 3),
    ("timetravel-serve.state_digest", 16719120404198967649),
];

/// Attempts and failures of one workload pass.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    pins: Vec<(String, u64)>,
}

impl Gate {
    /// An empty gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Counts one operation or check; on failure records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Records a simulated count of a first episode; checked against
    /// [`PINS`] by [`Gate::check_pins`].
    pub fn pin(&mut self, name: impl Into<String>, observed: u64) {
        self.pins.push((name.into(), observed));
    }

    /// Checks every recorded pin against [`PINS`] (only meaningful at
    /// [`DEFAULT_SEED`]).
    pub fn check_pins(&mut self) {
        let pins = std::mem::take(&mut self.pins);
        for (name, observed) in &pins {
            let expected = PINS.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            self.check(expected == Some(*observed), || {
                format!("pin {name}: observed {observed}, pinned {expected:?}")
            });
        }
        self.pins = pins;
    }

    /// Folds another gate (e.g. one connection's) into this one.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.pins.extend(other.pins);
    }

    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations and checks that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first recorded failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Recorded pins, in recording order.
    pub fn pins(&self) -> &[(String, u64)] {
        &self.pins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_and_failures() {
        let mut g = Gate::new();
        assert!(g.check(true, || unreachable!()));
        assert!(!g.check(false, || "boom".into()));
        let mut other = Gate::new();
        other.check(false, || "bang".into());
        g.merge(other);
        assert_eq!((g.attempted(), g.failed()), (3, 2));
        assert_eq!(g.failures(), ["boom", "bang"]);
    }

    #[test]
    fn an_unknown_pin_fails() {
        let mut g = Gate::new();
        g.pin("no.such.pin", 1);
        g.check_pins();
        assert_eq!(g.failed(), 1);
    }
}
