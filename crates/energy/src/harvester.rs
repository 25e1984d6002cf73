//! Ambient energy sources.
//!
//! A [`Harvester`] answers one question every integration step: *how much
//! current flows into the storage capacitor right now?* All of the paper's
//! qualitative behaviour — the sawtooth of Figure 2B, charge times that
//! grow with reader distance, executions that stall mid-instruction —
//! falls out of this interface combined with the per-cycle load model.

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A source of harvested energy.
///
/// Implementations receive the present capacitor voltage (real harvesting
/// front-ends deliver less current into a higher-voltage store), the
/// simulation time, and the integration step.
///
/// `Send` is a supertrait so a bench (and the session hosting it) can
/// move between threads — the `edb-serve` session server runs each
/// request on its connection's thread, so a hosted bench runs on
/// whichever thread serves the request for it.
pub trait Harvester: Send {
    /// Current (amps, ≥ 0) delivered into the storage capacitor during the
    /// next `dt` seconds, given the capacitor sits at `v_cap` volts.
    fn current_into(&mut self, v_cap: f64, now: SimTime, dt: f64) -> f64;

    /// Snapshot of the harvester's evolving state (RNG streams, fading
    /// factors, trace cursors) for the record/replay layer. Sources whose
    /// output is a pure function of `(v_cap, now)` have nothing to save
    /// and keep the default [`serde::Value::Null`].
    fn save_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores a snapshot produced by [`Harvester::save_state`] on a
    /// harvester constructed with the same parameters. After a
    /// round-trip the current stream must continue bit-identically —
    /// replay correctness rests on this.
    fn load_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let _ = state;
        Ok(())
    }
}

/// A fixed charging current, useful in unit tests and for idealized
/// experiments.
///
/// # Example
///
/// ```
/// use edb_energy::{ConstantCurrent, Harvester, SimTime};
/// let mut h = ConstantCurrent::new(1e-3);
/// assert_eq!(h.current_into(2.0, SimTime::ZERO, 1e-6), 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantCurrent {
    amps: f64,
}

impl ConstantCurrent {
    /// Creates a source that always delivers `amps`.
    pub fn new(amps: f64) -> Self {
        ConstantCurrent {
            amps: amps.max(0.0),
        }
    }
}

impl Harvester for ConstantCurrent {
    fn current_into(&mut self, _v_cap: f64, _now: SimTime, _dt: f64) -> f64 {
        self.amps
    }
}

/// A Thévenin-equivalent ambient source: open-circuit voltage `v_oc`
/// behind a (large) source resistance `r_src`.
///
/// This is the model the paper sketches in Figure 2A — "the ambient energy
/// source has a high source resistance that limits its usable power,
/// resulting in the characteristic 'sawtooth' RC charging behavior". The
/// delivered current is `max(0, (v_oc − v_cap) / r_src)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheveninSource {
    v_oc: f64,
    r_src: f64,
}

impl TheveninSource {
    /// Creates a source with open-circuit voltage `v_oc` (volts) and source
    /// resistance `r_src` (ohms).
    ///
    /// # Panics
    ///
    /// Panics if `r_src` is not strictly positive.
    pub fn new(v_oc: f64, r_src: f64) -> Self {
        assert!(r_src > 0.0, "source resistance must be positive");
        TheveninSource { v_oc, r_src }
    }

    /// Open-circuit voltage in volts.
    pub fn v_oc(&self) -> f64 {
        self.v_oc
    }

    /// Source resistance in ohms.
    pub fn r_src(&self) -> f64 {
        self.r_src
    }
}

impl Harvester for TheveninSource {
    fn current_into(&mut self, v_cap: f64, _now: SimTime, _dt: f64) -> f64 {
        ((self.v_oc - v_cap) / self.r_src).max(0.0)
    }
}

/// An RF energy field produced by an RFID reader, as harvested by a
/// WISP-class tag.
///
/// The field behaves as a [`TheveninSource`] whose strength depends on
/// distance (far-field power density falls as `d⁻²`, so the rectified
/// open-circuit voltage falls roughly as `d⁻¹`) and on whether the reader
/// carrier is currently on. The reader model in `edb-rfid` drives
/// [`RfField::set_carrier`] as it transmits; command modulation (brief ASK
/// dips) is modeled as a small duty-cycle derating rather than per-bit
/// carrier gaps, which keeps the integrator step independent of the RF
/// symbol rate.
///
/// Calibration: at the reference distance of 1 m (the paper's setup) the
/// defaults deliver ~0.5–0.9 mA into a capacitor sitting between 1.8 V and
/// 2.4 V — enough to charge 47 µF through that window in some tens of
/// milliseconds, matching the cadence on the paper's Figure 7/9 time axes.
#[derive(Debug, Clone, PartialEq)]
pub struct RfField {
    /// Rectifier open-circuit voltage at the reference distance, volts.
    v_oc_ref: f64,
    /// Source resistance of the rectifier + matching network, ohms.
    r_src: f64,
    /// Reference distance for `v_oc_ref`, meters.
    d_ref: f64,
    /// Present tag-to-antenna distance, meters.
    distance: f64,
    /// Whether the reader carrier is radiating.
    carrier_on: bool,
    /// Fraction of carrier power retained while the reader modulates
    /// commands (ASK dips remove a little energy).
    modulation_derate: f64,
    /// Whether the reader is currently modulating a command.
    modulating: bool,
}

impl RfField {
    /// The paper's physical setup: reader antenna at 1 m from the tag,
    /// 30 dBm transmit power, carrier initially on.
    pub fn paper_setup() -> Self {
        RfField {
            v_oc_ref: 3.2,
            r_src: 1500.0,
            d_ref: 1.0,
            distance: 1.0,
            carrier_on: true,
            modulation_derate: 0.9,
            modulating: false,
        }
    }

    /// Creates a field with explicit electrical parameters at `d_ref`.
    ///
    /// # Panics
    ///
    /// Panics if `r_src`, `d_ref` is not strictly positive.
    pub fn new(v_oc_ref: f64, r_src: f64, d_ref: f64) -> Self {
        assert!(r_src > 0.0, "source resistance must be positive");
        assert!(d_ref > 0.0, "reference distance must be positive");
        RfField {
            v_oc_ref,
            r_src,
            d_ref,
            distance: d_ref,
            carrier_on: true,
            modulation_derate: 0.9,
            modulating: false,
        }
    }

    /// Moves the tag to `meters` from the reader antenna.
    ///
    /// "The amount of harvestable energy is inversely proportional to this
    /// distance" (§5.1): open-circuit voltage scales as `d_ref / d`.
    ///
    /// # Panics
    ///
    /// Panics if `meters` is not strictly positive.
    pub fn set_distance(&mut self, meters: f64) {
        assert!(meters > 0.0, "distance must be positive");
        self.distance = meters;
    }

    /// Present tag-to-antenna distance in meters.
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Turns the reader carrier on or off (driven by the reader model).
    pub fn set_carrier(&mut self, on: bool) {
        self.carrier_on = on;
    }

    /// Whether the carrier is radiating.
    pub fn carrier_on(&self) -> bool {
        self.carrier_on
    }

    /// Marks the reader as presently modulating a command (slightly less
    /// average power at the tag).
    pub fn set_modulating(&mut self, on: bool) {
        self.modulating = on;
    }

    /// Effective open-circuit voltage at the present distance.
    pub fn v_oc(&self) -> f64 {
        let v = self.v_oc_ref * self.d_ref / self.distance;
        if self.modulating {
            v * self.modulation_derate
        } else {
            v
        }
    }

    /// Open-circuit voltage the field would deliver to a tag at
    /// `meters`, independent of the field's own tag position — how a
    /// fleet evaluates one shared carrier at N distances without
    /// cloning the field per tag (modulation derate not applied; fleet
    /// slot timing absorbs it).
    ///
    /// # Panics
    ///
    /// Panics if `meters` is not strictly positive.
    pub fn v_oc_at(&self, meters: f64) -> f64 {
        assert!(meters > 0.0, "distance must be positive");
        self.v_oc_ref * self.d_ref / meters
    }

    /// Source resistance of the rectifier + matching network, ohms —
    /// with the capacitance this sets the charging time constant the
    /// analytic fleet path uses.
    pub fn r_src(&self) -> f64 {
        self.r_src
    }
}

impl Harvester for RfField {
    fn current_into(&mut self, v_cap: f64, _now: SimTime, _dt: f64) -> f64 {
        if !self.carrier_on {
            return 0.0;
        }
        ((self.v_oc() - v_cap) / self.r_src).max(0.0)
    }

    fn save_state(&self) -> serde::Value {
        RfFieldState {
            distance: self.distance,
            carrier_on: self.carrier_on,
            modulating: self.modulating,
        }
        .to_value()
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let state = RfFieldState::from_value(state)?;
        self.distance = state.distance;
        self.carrier_on = state.carrier_on;
        self.modulating = state.modulating;
        Ok(())
    }
}

/// [`RfField`]'s run state: the knobs the reader turns mid-run.
#[derive(Serialize, Deserialize)]
struct RfFieldState {
    distance: f64,
    carrier_on: bool,
    modulating: bool,
}

/// A slowly varying solar/indoor-light source with stochastic cloud or
/// occlusion events.
///
/// Modeled as a Thévenin source whose open-circuit voltage follows a slow
/// sinusoid scaled by a random occlusion factor that changes on a Poisson
/// schedule. Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct SolarHarvester {
    v_oc_peak: f64,
    r_src: f64,
    period_s: f64,
    occlusion: f64,
    next_occlusion_change: SimTime,
    rng: StdRng,
}

impl SolarHarvester {
    /// Creates a solar source peaking at `v_oc_peak` volts behind `r_src`
    /// ohms, completing one brightness cycle every `period_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `r_src` or `period_s` is not strictly positive.
    pub fn new(v_oc_peak: f64, r_src: f64, period_s: f64, seed: u64) -> Self {
        assert!(r_src > 0.0, "source resistance must be positive");
        assert!(period_s > 0.0, "period must be positive");
        SolarHarvester {
            v_oc_peak,
            r_src,
            period_s,
            occlusion: 1.0,
            next_occlusion_change: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Harvester for SolarHarvester {
    fn current_into(&mut self, v_cap: f64, now: SimTime, _dt: f64) -> f64 {
        if now >= self.next_occlusion_change {
            // New occlusion factor in [0.3, 1.0]; next change 50–500 ms out.
            self.occlusion = self.rng.gen_range(0.3..=1.0);
            let hold_ms = self.rng.gen_range(50u64..500);
            self.next_occlusion_change = now.advance_ns(hold_ms * 1_000_000);
        }
        let phase = (now.as_secs_f64() / self.period_s) * std::f64::consts::TAU;
        let brightness = 0.5 * (1.0 + phase.sin());
        let v_oc = self.v_oc_peak * brightness * self.occlusion;
        ((v_oc - v_cap) / self.r_src).max(0.0)
    }

    fn save_state(&self) -> serde::Value {
        SolarState {
            occlusion: self.occlusion,
            next_occlusion_change: self.next_occlusion_change,
            rng: self.rng.clone(),
        }
        .to_value()
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let state = SolarState::from_value(state)?;
        self.occlusion = state.occlusion;
        self.next_occlusion_change = state.next_occlusion_change;
        self.rng = state.rng;
        Ok(())
    }
}

/// [`SolarHarvester`]'s run state: the occlusion schedule and its RNG.
#[derive(Serialize, Deserialize)]
struct SolarState {
    occlusion: f64,
    next_occlusion_change: SimTime,
    rng: StdRng,
}

/// Multiplicative slow fading around an inner harvester.
///
/// Real ambient sources are never as clean as a Thévenin equivalent: RF
/// channels fade, people walk past antennas, light flickers. `Fading`
/// scales the inner source's current by a log-normal random walk updated
/// every millisecond (clamped to `[0.5, 1.5]`), deterministic per seed.
/// Besides realism, the fading decorrelates charge-cycle phase from
/// program phase — without it, a deterministic source can phase-lock
/// with a program loop and systematically miss (or hit) a narrow
/// vulnerability window like the paper's Figure 6 append race.
///
/// # Example
///
/// ```
/// use edb_energy::{Fading, TheveninSource, Harvester, SimTime};
/// let mut h = Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, 7);
/// let i = h.current_into(2.0, SimTime::from_ms(3), 1e-6);
/// assert!(i > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Fading<H> {
    inner: H,
    factor: f64,
    sigma: f64,
    next_update: SimTime,
    rng: StdRng,
}

impl<H> Fading<H> {
    /// Wraps `inner` with fading of per-millisecond log-sigma `sigma`.
    pub fn new(inner: H, sigma: f64, seed: u64) -> Self {
        Fading {
            inner,
            factor: 1.0,
            sigma,
            next_update: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The present fading factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl<H: Harvester> Harvester for Fading<H> {
    fn current_into(&mut self, v_cap: f64, now: SimTime, dt: f64) -> f64 {
        if now >= self.next_update {
            self.next_update = now.advance_ns(1_000_000);
            let u1: f64 = self.rng.gen_range(1e-12..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            self.factor = (self.factor * (z * self.sigma).exp()).clamp(0.5, 1.5);
        }
        self.inner.current_into(v_cap, now, dt) * self.factor
    }

    fn save_state(&self) -> serde::Value {
        FadingState {
            factor: self.factor,
            next_update: self.next_update,
            rng: self.rng.clone(),
            inner: self.inner.save_state(),
        }
        .to_value()
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let state = FadingState::from_value(state)?;
        self.factor = state.factor;
        self.next_update = state.next_update;
        self.rng = state.rng;
        self.inner.load_state(&state.inner)
    }
}

/// [`Fading`]'s run state: the fading walk, its RNG, and the inner
/// source's own state.
#[derive(Serialize, Deserialize)]
struct FadingState {
    factor: f64,
    next_update: SimTime,
    rng: StdRng,
    inner: serde::Value,
}

/// Deterministic on/off gating around an inner harvester: the source
/// delivers for `on` out of every `on + off` of simulated time,
/// starting on.
///
/// Unlike [`Fading`] this needs no RNG, so two independently
/// constructed instances with the same parameters produce *bit-equal*
/// current streams — the property differential tests (per-quantum vs.
/// batched integration, cached vs. cold decode) rely on when they run
/// paired devices through repeated, cleanly phased power failures.
///
/// # Example
///
/// ```
/// use edb_energy::{PulsedSource, TheveninSource, Harvester, SimTime};
/// let mut h = PulsedSource::new(
///     TheveninSource::new(3.2, 1500.0),
///     SimTime::from_ms(20),
///     SimTime::from_ms(30),
/// );
/// assert!(h.current_into(2.0, SimTime::from_ms(5), 1e-6) > 0.0);   // on
/// assert_eq!(h.current_into(2.0, SimTime::from_ms(25), 1e-6), 0.0); // off
/// assert!(h.current_into(2.0, SimTime::from_ms(51), 1e-6) > 0.0);  // on again
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsedSource<H> {
    inner: H,
    on_ns: u64,
    period_ns: u64,
}

impl<H> PulsedSource<H> {
    /// Gates `inner` on for `on`, then off for `off`, repeating.
    ///
    /// # Panics
    ///
    /// Panics if `on` is zero (the source would never deliver).
    pub fn new(inner: H, on: SimTime, off: SimTime) -> Self {
        assert!(on > SimTime::ZERO, "on window must be non-empty");
        PulsedSource {
            inner,
            on_ns: on.as_ns(),
            period_ns: on.as_ns() + off.as_ns(),
        }
    }
}

impl<H: Harvester> Harvester for PulsedSource<H> {
    fn current_into(&mut self, v_cap: f64, now: SimTime, dt: f64) -> f64 {
        if now.as_ns() % self.period_ns < self.on_ns {
            self.inner.current_into(v_cap, now, dt)
        } else {
            0.0
        }
    }

    fn save_state(&self) -> serde::Value {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        self.inner.load_state(state)
    }
}

/// Playback of a recorded harvesting trace, in the spirit of Ekho
/// (Hester et al., SenSys 2014): a sequence of `(time, v_oc)` samples
/// replayed with step interpolation behind a fixed source resistance.
///
/// # Example
///
/// ```
/// use edb_energy::{TraceHarvester, Harvester, SimTime};
/// let h = TraceHarvester::new(vec![
///     (SimTime::ZERO, 3.0),
///     (SimTime::from_ms(10), 0.0),   // reader turns off at 10 ms
///     (SimTime::from_ms(30), 3.0),
/// ], 1500.0);
/// let mut h = h;
/// assert!(h.current_into(2.0, SimTime::from_ms(5), 1e-6) > 0.0);
/// assert_eq!(h.current_into(2.0, SimTime::from_ms(15), 1e-6), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHarvester {
    samples: Vec<(SimTime, f64)>,
    r_src: f64,
    cursor: usize,
    looped: bool,
}

impl TraceHarvester {
    /// Creates a playback source. `samples` must be sorted by time; the
    /// last sample's `v_oc` holds forever (or the trace loops, see
    /// [`TraceHarvester::looping`]).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, not sorted by time, or `r_src` is not
    /// strictly positive.
    pub fn new(samples: Vec<(SimTime, f64)>, r_src: f64) -> Self {
        assert!(!samples.is_empty(), "trace must contain samples");
        assert!(r_src > 0.0, "source resistance must be positive");
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0),
            "trace samples must be sorted by time"
        );
        TraceHarvester {
            samples,
            r_src,
            cursor: 0,
            looped: false,
        }
    }

    /// Makes the trace repeat from the beginning after its last sample.
    #[must_use]
    pub fn looping(mut self) -> Self {
        self.looped = true;
        self
    }

    fn v_oc_at(&mut self, now: SimTime) -> f64 {
        let span = self.samples.last().expect("non-empty").0;
        let t = if self.looped && span > SimTime::ZERO {
            SimTime::from_ns(now.as_ns() % (span.as_ns() + 1))
        } else {
            now
        };
        if t < self.samples[self.cursor].0 {
            self.cursor = 0; // time wrapped (looping) — rescan
        }
        while self.cursor + 1 < self.samples.len() && self.samples[self.cursor + 1].0 <= t {
            self.cursor += 1;
        }
        self.samples[self.cursor].1
    }
}

impl Harvester for TraceHarvester {
    fn current_into(&mut self, v_cap: f64, now: SimTime, _dt: f64) -> f64 {
        let v_oc = self.v_oc_at(now);
        ((v_oc - v_cap) / self.r_src).max(0.0)
    }

    // The cursor is a pure cache over `now` (v_oc_at rescans when time
    // runs backwards), but saving it keeps the replayed scan cost — and
    // hence nothing observable — identical to the recorded run.
    fn save_state(&self) -> serde::Value {
        serde::Value::U64(self.cursor as u64)
    }

    fn load_state(&mut self, state: &serde::Value) -> Result<(), serde::DeError> {
        let cursor: u64 = serde::Deserialize::from_value(state)?;
        if cursor as usize >= self.samples.len() {
            return Err(serde::DeError::new("TraceHarvester cursor out of range"));
        }
        self.cursor = cursor as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thevenin_current_drops_with_voltage() {
        let mut h = TheveninSource::new(3.0, 1000.0);
        let i_low = h.current_into(1.0, SimTime::ZERO, 1e-6);
        let i_high = h.current_into(2.5, SimTime::ZERO, 1e-6);
        assert!(i_low > i_high);
        assert!((i_low - 2.0e-3).abs() < 1e-12);
    }

    #[test]
    fn thevenin_never_reverses() {
        let mut h = TheveninSource::new(3.0, 1000.0);
        assert_eq!(h.current_into(3.5, SimTime::ZERO, 1e-6), 0.0);
    }

    #[test]
    fn rf_field_scales_with_distance() {
        let mut f = RfField::paper_setup();
        let i_1m = f.current_into(2.0, SimTime::ZERO, 1e-6);
        f.set_distance(2.0);
        let i_2m = f.current_into(2.0, SimTime::ZERO, 1e-6);
        assert!(i_2m < i_1m, "more distance, less harvest");
    }

    #[test]
    fn rf_field_carrier_gates_harvest() {
        let mut f = RfField::paper_setup();
        assert!(f.current_into(2.0, SimTime::ZERO, 1e-6) > 0.0);
        f.set_carrier(false);
        assert_eq!(f.current_into(2.0, SimTime::ZERO, 1e-6), 0.0);
    }

    #[test]
    fn rf_field_modulation_derates() {
        let mut f = RfField::paper_setup();
        let i_cw = f.current_into(1.0, SimTime::ZERO, 1e-6);
        f.set_modulating(true);
        let i_mod = f.current_into(1.0, SimTime::ZERO, 1e-6);
        assert!(i_mod < i_cw);
    }

    #[test]
    fn rf_paper_setup_charges_in_tens_of_ms() {
        // Charging 47 µF from 1.8 V to 2.4 V with the device off must take
        // on the order of tens of milliseconds for the sawtooth cadence of
        // Figure 7 to come out right.
        let mut f = RfField::paper_setup();
        let mut cap = crate::Capacitor::new(47e-6);
        cap.set_voltage(1.8);
        let dt = 1e-6;
        let mut t = SimTime::ZERO;
        while cap.voltage() < 2.4 {
            let i = f.current_into(cap.voltage(), t, dt);
            assert!(i > 0.0, "must keep charging");
            cap.apply_current(i, dt);
            t = t.advance_secs(dt);
            assert!(t < SimTime::from_ms(500), "charging unreasonably slow");
        }
        let ms = t.as_millis_f64();
        assert!(
            (10.0..120.0).contains(&ms),
            "charge time {ms} ms out of band"
        );
    }

    #[test]
    fn pulsed_source_gates_on_schedule() {
        let mut h = PulsedSource::new(
            ConstantCurrent::new(1e-3),
            SimTime::from_ms(10),
            SimTime::from_ms(5),
        );
        assert_eq!(h.current_into(2.0, SimTime::ZERO, 1e-6), 1e-3);
        assert_eq!(h.current_into(2.0, SimTime::from_ms(9), 1e-6), 1e-3);
        assert_eq!(h.current_into(2.0, SimTime::from_ms(12), 1e-6), 0.0);
        assert_eq!(h.current_into(2.0, SimTime::from_ms(16), 1e-6), 1e-3);
        // Bit-equal across independently constructed instances.
        let mut a = PulsedSource::new(
            TheveninSource::new(3.2, 1500.0),
            SimTime::from_ms(7),
            SimTime::from_ms(3),
        );
        let mut b = PulsedSource::new(
            TheveninSource::new(3.2, 1500.0),
            SimTime::from_ms(7),
            SimTime::from_ms(3),
        );
        for k in 0..1000u64 {
            let t = SimTime::from_us(k * 13);
            assert_eq!(
                a.current_into(1.9, t, 1e-6).to_bits(),
                b.current_into(1.9, t, 1e-6).to_bits()
            );
        }
    }

    #[test]
    fn solar_is_deterministic_per_seed() {
        let mut a = SolarHarvester::new(3.0, 2000.0, 1.0, 42);
        let mut b = SolarHarvester::new(3.0, 2000.0, 1.0, 42);
        for k in 0..1000u64 {
            let t = SimTime::from_us(k * 37);
            assert_eq!(a.current_into(1.5, t, 1e-6), b.current_into(1.5, t, 1e-6));
        }
    }

    #[test]
    fn save_load_resumes_bit_identically() {
        // Run a stateful stack (fading over solar: two RNGs, a fading
        // factor, an occlusion schedule) halfway, snapshot, keep running;
        // then restore the snapshot onto a fresh same-parameter instance
        // and check the tails are bit-equal.
        let build = || Fading::new(SolarHarvester::new(3.0, 2000.0, 1.0, 9), 0.05, 4);
        let mut live = build();
        for k in 0..500u64 {
            live.current_into(1.5, SimTime::from_us(k * 37), 1e-6);
        }
        let snap = live.save_state();
        let mut restored = build();
        restored.load_state(&snap).unwrap();
        for k in 500..1500u64 {
            let t = SimTime::from_us(k * 37);
            assert_eq!(
                live.current_into(1.5, t, 1e-6).to_bits(),
                restored.current_into(1.5, t, 1e-6).to_bits()
            );
        }
    }

    #[test]
    fn stateless_sources_save_null() {
        assert_eq!(ConstantCurrent::new(1e-3).save_state(), serde::Value::Null);
        assert_eq!(
            TheveninSource::new(3.0, 1000.0).save_state(),
            serde::Value::Null
        );
        // Trace cursors and RF field knobs round-trip.
        let mut f = RfField::paper_setup();
        f.set_distance(2.5);
        f.set_carrier(false);
        let snap = f.save_state();
        let mut g = RfField::paper_setup();
        g.load_state(&snap).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn trace_steps_between_samples() {
        let mut h = TraceHarvester::new(
            vec![(SimTime::ZERO, 3.0), (SimTime::from_ms(10), 0.0)],
            1000.0,
        );
        assert!(h.current_into(1.0, SimTime::from_ms(9), 1e-6) > 0.0);
        assert_eq!(h.current_into(1.0, SimTime::from_ms(11), 1e-6), 0.0);
    }

    #[test]
    fn trace_loops_when_asked() {
        let mut h = TraceHarvester::new(
            vec![(SimTime::ZERO, 3.0), (SimTime::from_ms(10), 0.0)],
            1000.0,
        )
        .looping();
        // At t = 21 ms the looped trace is at phase 1 ms → v_oc = 3.0.
        assert!(h.current_into(1.0, SimTime::from_ms(21), 1e-6) > 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn trace_rejects_unsorted() {
        let _ = TraceHarvester::new(
            vec![(SimTime::from_ms(10), 1.0), (SimTime::ZERO, 2.0)],
            1000.0,
        );
    }
}
