//! The voltage supervisor that gates intermittent operation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An edge reported by the [`Supervisor`] when the stored voltage crosses
/// one of its thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerEdge {
    /// Voltage rose past the turn-on threshold: the device resets and
    /// begins executing.
    TurnOn,
    /// Voltage fell past the brown-out threshold: the device loses power,
    /// volatile state is gone.
    BrownOut,
}

impl fmt::Display for PowerEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerEdge::TurnOn => write!(f, "turn-on"),
            PowerEdge::BrownOut => write!(f, "brown-out"),
        }
    }
}

/// Hysteretic power-good comparator.
///
/// Models the supervisor on a WISP-class tag: the device turns on when the
/// capacitor first reaches `v_on` (2.4 V on the WISP5) and keeps running
/// until the capacitor droops below `v_off` (1.8 V). The gap between the
/// thresholds is the per-cycle energy budget that all of the paper's
/// "iteration success rate" arithmetic is denominated in.
///
/// # Example
///
/// ```
/// use edb_energy::{Supervisor, PowerEdge};
/// let mut sup = Supervisor::wisp5();
/// assert_eq!(sup.update(2.0), None);               // still charging
/// assert_eq!(sup.update(2.4), Some(PowerEdge::TurnOn));
/// assert_eq!(sup.update(2.0), None);               // hysteresis: stays on
/// assert_eq!(sup.update(1.79), Some(PowerEdge::BrownOut));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Supervisor {
    v_on: f64,
    v_off: f64,
    powered: bool,
}

impl Supervisor {
    /// Creates a supervisor with the given thresholds, initially
    /// unpowered.
    ///
    /// # Panics
    ///
    /// Panics unless `v_on > v_off > 0`.
    pub fn new(v_on: f64, v_off: f64) -> Self {
        assert!(v_off > 0.0, "brown-out threshold must be positive");
        assert!(v_on > v_off, "turn-on must exceed brown-out for hysteresis");
        Supervisor {
            v_on,
            v_off,
            powered: false,
        }
    }

    /// The WISP5 thresholds from the paper: turn-on 2.4 V, brown-out 1.8 V.
    pub fn wisp5() -> Self {
        Supervisor::new(crate::budget::WISP5_V_ON, crate::budget::WISP5_V_OFF)
    }

    /// Turn-on threshold, volts.
    pub fn v_on(&self) -> f64 {
        self.v_on
    }

    /// Brown-out threshold, volts.
    pub fn v_off(&self) -> f64 {
        self.v_off
    }

    /// Whether the device is currently powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Feeds the present capacitor voltage; returns an edge if one of the
    /// thresholds was crossed in the gating direction.
    pub fn update(&mut self, v_cap: f64) -> Option<PowerEdge> {
        if !self.powered && v_cap >= self.v_on {
            self.powered = true;
            Some(PowerEdge::TurnOn)
        } else if self.powered && v_cap < self.v_off {
            self.powered = false;
            Some(PowerEdge::BrownOut)
        } else {
            None
        }
    }

    /// Forces the supervisor state (used when a debugger tethers the target
    /// to continuous power and the comparator is effectively bypassed).
    pub fn force_powered(&mut self, powered: bool) {
        self.powered = powered;
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::wisp5()
    }
}

/// Falling-edge detector for the Vcap "knee": the last moment a
/// speculative checkpoint strategy can still commit before the brown-out
/// comparator fires.
///
/// A speculative strategy defers committing its pending snapshot until
/// the capacitor sags through `v_knee = v_off + margin`. The detector is
/// direction-sensitive — it arms while the voltage sits *above* the knee
/// and fires exactly once per sag through it, so a capacitor hovering in
/// the band does not re-trigger. An abrupt discharge that jumps from
/// above the knee straight past `v_off` (a yanked supply, an injected
/// fault) crosses both thresholds in one sample; the consumer must rank
/// the supervisor's brown-out edge above the knee, because there is no
/// commit headroom left to spend.
///
/// # Example
///
/// ```
/// use edb_energy::KneeDetector;
/// let mut knee = KneeDetector::wisp5();
/// assert!(!knee.update(2.4)); // above: arms
/// assert!(knee.update(1.95)); // sagged through v_off + margin
/// assert!(!knee.update(1.90)); // once per sag
/// assert!(!knee.update(2.4)); // recharge re-arms...
/// assert!(knee.update(1.85)); // ...and the next sag fires again
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KneeDetector {
    v_knee: f64,
    armed: bool,
}

impl KneeDetector {
    /// Creates a detector firing at `v_off + margin`, initially disarmed
    /// (the first sample above the knee arms it).
    ///
    /// # Panics
    ///
    /// Panics unless `margin > 0`.
    pub fn new(v_off: f64, margin: f64) -> Self {
        assert!(margin > 0.0, "knee margin must leave commit headroom");
        KneeDetector {
            v_knee: v_off + margin,
            armed: false,
        }
    }

    /// The WISP5 knee: 200 mV of commit headroom above the 1.8 V
    /// brown-out floor.
    pub fn wisp5() -> Self {
        KneeDetector::new(crate::budget::WISP5_V_OFF, 0.2)
    }

    /// The knee voltage, volts.
    pub fn v_knee(&self) -> f64 {
        self.v_knee
    }

    /// Whether the last sample sat at or above the knee, so a sample
    /// below it fires. [`KneeDetector::update`] changes nothing while
    /// `(v_cap >= v_knee) == armed`.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Feeds the present capacitor voltage; `true` exactly when this
    /// sample crosses the knee downward from an armed state.
    pub fn update(&mut self, v_cap: f64) -> bool {
        if v_cap >= self.v_knee {
            self.armed = true;
            false
        } else if self.armed {
            self.armed = false;
            true
        } else {
            false
        }
    }
}

impl Default for KneeDetector {
    fn default() -> Self {
        KneeDetector::wisp5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle_produces_two_edges() {
        let mut sup = Supervisor::wisp5();
        let mut edges = Vec::new();
        for v in [1.0, 2.0, 2.4, 2.2, 1.9, 1.7, 1.9, 2.4] {
            if let Some(e) = sup.update(v) {
                edges.push(e);
            }
        }
        assert_eq!(
            edges,
            vec![PowerEdge::TurnOn, PowerEdge::BrownOut, PowerEdge::TurnOn]
        );
    }

    #[test]
    fn no_retrigger_while_powered() {
        let mut sup = Supervisor::wisp5();
        assert_eq!(sup.update(2.5), Some(PowerEdge::TurnOn));
        assert_eq!(sup.update(2.6), None);
        assert_eq!(sup.update(2.4), None);
    }

    #[test]
    fn hysteresis_band_is_quiet() {
        let mut sup = Supervisor::wisp5();
        sup.update(2.4);
        for _ in 0..100 {
            assert_eq!(sup.update(2.0), None);
            assert_eq!(sup.update(1.9), None);
        }
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn rejects_inverted_thresholds() {
        let _ = Supervisor::new(1.8, 2.4);
    }

    #[test]
    fn knee_fires_once_per_sag() {
        let mut knee = KneeDetector::wisp5();
        assert!((knee.v_knee() - 2.0).abs() < 1e-12);
        // Starts disarmed: a voltage already below the knee never fires.
        assert!(!knee.update(1.9));
        assert!(!knee.update(1.85));
        // Charge above, sag through: exactly one firing.
        assert!(!knee.update(2.4));
        assert!(!knee.update(2.1));
        assert!(knee.update(1.99));
        assert!(!knee.update(1.9));
        assert!(!knee.update(1.85));
        // Hovering right at the knee re-arms (>= is "above").
        assert!(!knee.update(2.0));
        assert!(knee.update(1.999));
    }

    #[test]
    fn knee_fires_even_on_an_abrupt_collapse() {
        // One sample jumping from full charge to a dead rail still
        // reports the (missed) knee; the engine must rank the brown-out
        // edge first because both fire on the same sample.
        let mut knee = KneeDetector::wisp5();
        let mut sup = Supervisor::wisp5();
        sup.update(2.4);
        knee.update(2.4);
        assert_eq!(sup.update(1.0), Some(PowerEdge::BrownOut));
        assert!(knee.update(1.0));
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn knee_rejects_zero_margin() {
        let _ = KneeDetector::new(1.8, 0.0);
    }
}
