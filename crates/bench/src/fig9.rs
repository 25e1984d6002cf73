//! **Figures 8 & 9** — instrumentation of arbitrary energy cost via
//! energy guards.
//!
//! The Fibonacci app's debug build runs an O(n) consistency check each
//! pass. Without guards the check eventually consumes the entire
//! charge-discharge budget and the main loop starves (Figure 9 top).
//! With the check wrapped in `__edb_guard_begin`/`__edb_guard_end` it
//! runs on tethered power and the main loop always executes (bottom).

use crate::harness;
use crate::runner::{ExperimentSpec, Runner};
use crate::Report;
use edb_apps::fib::{self, Variant};
use edb_core::System;
use edb_device::DeviceConfig;
use edb_energy::SimTime;

/// The suite entry for this experiment (a single scripted scenario —
/// the runner's trial pool is not used).
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig9",
    title: "Figure 9: consistency check without / with energy guards",
    run: run_spec,
};

fn run_spec(_runner: &Runner) -> Report {
    run()
}

/// A hungrier compute current halves the per-cycle budget, pulling the
/// starvation point toward the paper's ~555 items without changing the
/// phenomenon (see DESIGN.md).
fn device_config() -> DeviceConfig {
    DeviceConfig {
        i_active: 4.4e-3,
        ..DeviceConfig::wisp5()
    }
}

fn run_variant(variant: Variant, budget: SimTime) -> (u16, u16, bool, u64, u64) {
    let mut sys = System::builder(device_config())
        .harvester(harness::harvested(9))
        .build();
    sys.flash(&fib::image(variant));
    // Stall detector: the item count has not moved for 2 s of simulated
    // time. Evaluated after every quantum, so the stall lands on the
    // same instruction however the bench batches in between.
    let mut last_count = 0u16;
    let mut last_change = SimTime::ZERO;
    let stalled = sys.run_until(budget, |s| {
        let c = s.device().mem().peek_word(fib::COUNT);
        if c != last_count {
            last_count = c;
            last_change = s.now();
            return false;
        }
        s.now().since(last_change) > SimTime::from_secs(2)
    });
    let count = sys.device().mem().peek_word(fib::COUNT);
    let violations = sys.device().mem().peek_word(fib::VIOLATIONS);
    let guards = sys
        .edb()
        .map(|e| e.log().with_tag("guard-enter").count() as u64)
        .unwrap_or(0);
    (count, violations, stalled, guards, sys.device().reboots())
}

/// Runs the Figure 9 experiment.
pub fn run() -> Report {
    let mut report = Report::new("Figure 9: consistency check without / with energy guards");
    let budget = SimTime::from_secs(30);

    let (count_checked, viol_checked, stalled_checked, _, reboots_checked) =
        run_variant(Variant::Checked, budget);
    report.line(format!(
        "checked (no guards): added {count_checked} items, then the check ate the whole budget \
         (stalled: {stalled_checked}; paper hung after ~555 items); reboots = {reboots_checked}"
    ));
    report.line(format!(
        "consistency violations the check caught en route: {viol_checked} \
         (paper: \"the invariant was violated in several experimental trials\")"
    ));

    let (count_guarded, viol_guarded, stalled_guarded, guards, reboots_guarded) =
        run_variant(Variant::Guarded, budget);
    report.line(format!(
        "guarded: added {count_guarded} items in the same wall time, never stalled \
         (stalled: {stalled_guarded}); {guards} guard episodes on tethered power; reboots = {reboots_guarded}"
    ));
    report.line(format!(
        "guarded-build violations: {viol_guarded} (the check still runs — it just costs nothing)"
    ));

    report.metric("checked_count", count_checked as f64);
    report.metric("checked_stalled", stalled_checked as u8 as f64);
    report.metric("guarded_count", count_guarded as f64);
    report.metric("guarded_stalled", stalled_guarded as u8 as f64);
    report.metric("guard_episodes", guards as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_prevent_starvation() {
        let r = run();
        assert_eq!(r.get("checked_stalled"), 1.0, "unguarded build must hang");
        assert_eq!(r.get("guarded_stalled"), 0.0, "guarded build must not");
        assert!(
            r.get("guarded_count") > r.get("checked_count"),
            "guards restore forward progress"
        );
        assert!(r.get("guard_episodes") > 10.0);
        let stalled_at = r.get("checked_count");
        assert!(
            (100.0..2500.0).contains(&stalled_at),
            "stall point {stalled_at} (paper: ~555)"
        );
    }
}
