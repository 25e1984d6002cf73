//! Struct-of-arrays fleet of reduced-order Gen2 tags.
//!
//! The full [`Device`](crate::Device) integrates one instruction at a
//! time — roughly 4 × 10⁶ steps per simulated second. That is exactly
//! right for debugging *one* tag, and exactly wrong for a warehouse: a
//! 10⁴-tag fleet over 30 s would cost ~10¹² CPU steps. The fleet path
//! therefore models each tag as what it electrically is between RF
//! events — a first-order RC node (Thévenin harvester into the 47 µF
//! storage cap) with a piecewise-constant load — and advances *every*
//! tag from one Gen2 slot boundary to the next in closed form. One
//! decay factor per span ([`rc_decay`]) is shared by every tag, so a
//! tag costs one multiply-add ([`rc_settle`]) plus a crossing
//! pre-filter ([`rc_span_misses`]); `ln` runs only for tags near a
//! threshold, which take the exact piecewise path ([`rc_time_to`] /
//! [`rc_advance`]) through the `v_on` turn-on and `v_off` brown-out
//! crossings inside the span.
//!
//! State is laid out struct-of-arrays: one `Vec` per field (`v_cap`,
//! `mode`, `slot`, `rng`, …), so the hot span-advance loop streams
//! through contiguous memory instead of hopping across 10⁴ boxed
//! devices. Each tag owns a SplitMix64 stream seeded from the trial
//! seed and its *global* tag index, which is what makes a fleet
//! bit-reproducible regardless of how tags are sharded across threads.
//!
//! Work the tag "computes" while powered is accounted as
//! `active-seconds × clock-rate` in [`Fleet::tag_cycles`] — the
//! numerator of the benchmark's tag·cycles/sec throughput metric.

use edb_energy::{rc_advance, rc_decay, rc_settle, rc_span_misses, rc_time_to, SimTime};
use edb_energy::{WISP5_CAPACITANCE, WISP5_V_OFF, WISP5_V_ON};
use serde::{Deserialize, Serialize};

/// SplitMix64 step — the per-tag deterministic stream generator.
///
/// Chosen over a shared PCG for two reasons: each tag's stream depends
/// only on `(trial seed, global tag index)`, never on how many other
/// tags drew before it (shard-order invariance), and the generator is
/// four integer ops, which matters at 10⁴ streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Electrical and timing parameters shared by every tag in a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagParams {
    /// Storage capacitance (F).
    pub capacitance: f64,
    /// Harvester source resistance (Ω) — Thévenin equivalent.
    pub r_src: f64,
    /// Open-circuit harvested voltage at the reference distance (V).
    pub v_oc_ref: f64,
    /// Reference distance for `v_oc_ref` (m); harvested `v_oc` scales
    /// as `d_ref / d`.
    pub d_ref: f64,
    /// Supervisor turn-on threshold (V).
    pub v_on: f64,
    /// Supervisor brown-out threshold (V).
    pub v_off: f64,
    /// Load current while powered and listening (A).
    pub i_listen: f64,
    /// Extra drain while backscattering a reply (A).
    pub i_tx: f64,
    /// Effective MCU clock while powered (Hz) — converts powered time
    /// into tag cycles for the throughput metric.
    pub clock_hz: f64,
}

impl TagParams {
    /// WISP5-flavored defaults, matching the single-tag device's
    /// electrical constants where they overlap.
    pub fn wisp5() -> Self {
        TagParams {
            capacitance: WISP5_CAPACITANCE,
            r_src: 1500.0,
            v_oc_ref: 3.2,
            d_ref: 1.0,
            v_on: WISP5_V_ON,
            v_off: WISP5_V_OFF,
            i_listen: 0.4e-3,
            i_tx: 2.0e-3,
            clock_hz: 4.0e6,
        }
    }

    /// Loaded asymptote `v_oc − i·R` for a tag with open-circuit
    /// voltage `v_oc` drawing `i` amps.
    fn v_inf(&self, v_oc: f64, i: f64) -> f64 {
        v_oc - i * self.r_src
    }

    /// RC time constant.
    fn tau(&self) -> f64 {
        self.r_src * self.capacitance
    }
}

/// Power state of one tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum TagMode {
    /// Below turn-on: charging, deaf to commands.
    Off = 0,
    /// Powered and participating in inventory.
    On = 1,
}

/// A struct-of-arrays population of reduced-order tags.
///
/// All per-tag state lives in parallel vectors indexed by the tag's
/// position *within this fleet*; `global_base + i` recovers the fleet-
/// wide index used for seeding, so a cell of a sharded fleet behaves
/// identically wherever it executes.
#[derive(Debug, Clone)]
pub struct Fleet {
    params: TagParams,
    global_base: usize,
    /// Capacitor voltage (V).
    v_cap: Vec<f64>,
    /// Power mode.
    mode: Vec<TagMode>,
    /// Harvested open-circuit voltage, distance-scaled (V).
    v_oc: Vec<f64>,
    /// Gen2 slot counter for the round in progress.
    slot: Vec<u32>,
    /// Per-tag SplitMix64 stream state.
    rng: Vec<u64>,
    /// Inventoried flag (session flag A→B); cleared by brown-out.
    inventoried: Vec<bool>,
    /// Cumulative powered time (s).
    active_s: Vec<f64>,
    /// Brown-out → turn-on cycles survived.
    power_cycles: Vec<u32>,
}

impl Fleet {
    /// Builds `n` tags with global indices `global_base..global_base+n`.
    ///
    /// `distance_of(global_index)` gives each tag its reader distance in
    /// meters; `seed` is the trial seed every tag stream derives from.
    /// Tags start discharged (`v_off`) and off — the carrier has to
    /// charge them up before they hear anything.
    pub fn new(
        params: TagParams,
        global_base: usize,
        n: usize,
        seed: u64,
        distance_of: impl Fn(usize) -> f64,
    ) -> Self {
        let mut v_oc = Vec::with_capacity(n);
        let mut rng = Vec::with_capacity(n);
        for i in 0..n {
            let g = global_base + i;
            let d = distance_of(g);
            assert!(d > 0.0, "tag {g}: distance must be positive");
            v_oc.push(params.v_oc_ref * params.d_ref / d);
            // Decorrelate the stream from the raw index with one
            // splitmix scramble of (seed, global index).
            let mut s = seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            splitmix64(&mut s);
            rng.push(s);
        }
        Fleet {
            params,
            global_base,
            v_cap: vec![params.v_off; n],
            mode: vec![TagMode::Off; n],
            v_oc,
            slot: vec![u32::MAX; n],
            rng,
            inventoried: vec![false; n],
            active_s: vec![0.0; n],
            power_cycles: vec![0; n],
        }
    }

    /// Number of tags in this fleet (or cell).
    pub fn len(&self) -> usize {
        self.v_cap.len()
    }

    /// True when the fleet holds no tags.
    pub fn is_empty(&self) -> bool {
        self.v_cap.is_empty()
    }

    /// The shared tag parameters.
    pub fn params(&self) -> &TagParams {
        &self.params
    }

    /// Global index of local tag `i`.
    pub fn global_index(&self, i: usize) -> usize {
        self.global_base + i
    }

    /// Capacitor voltage of local tag `i`.
    pub fn v_cap(&self, i: usize) -> f64 {
        self.v_cap[i]
    }

    /// Power mode of local tag `i`.
    pub fn mode(&self, i: usize) -> TagMode {
        self.mode[i]
    }

    /// Whether local tag `i` has been inventoried this session.
    pub fn inventoried(&self, i: usize) -> bool {
        self.inventoried[i]
    }

    /// Brown-out → turn-on cycles local tag `i` has survived.
    pub fn power_cycles(&self, i: usize) -> u32 {
        self.power_cycles[i]
    }

    /// Cumulative powered seconds of local tag `i`.
    pub fn active_secs(&self, i: usize) -> f64 {
        self.active_s[i]
    }

    /// Total tag cycles executed across the fleet: Σ active·clock.
    ///
    /// Deterministic (derived from simulated time, not wall time) — the
    /// numerator of tag·cycles/sec.
    pub fn tag_cycles(&self) -> f64 {
        let hz = self.params.clock_hz;
        self.active_s.iter().map(|s| s * hz).sum()
    }

    /// Number of currently powered tags.
    pub fn powered_count(&self) -> usize {
        self.mode.iter().filter(|m| **m == TagMode::On).count()
    }

    /// Advances every tag `span` of carrier time with closed-form RC
    /// arithmetic, handling turn-on and brown-out crossings inside the
    /// span (piecewise, at most a few segments per tag per slot).
    ///
    /// Powered tags draw `i_listen`; unpowered tags charge unloaded.
    /// The span's decay factor is computed once: a tag whose settled
    /// voltage [`rc_span_misses`] its threshold takes it in one
    /// [`rc_settle`], the same operations [`rc_advance`] runs; only a
    /// tag that may cross goes through the exact crossing loop.
    pub fn advance_span(&mut self, span: SimTime) {
        let dt = span.as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let p = self.params;
        let tau = p.tau();
        let decay = rc_decay(tau, dt);
        for i in 0..self.v_cap.len() {
            let on = self.mode[i] == TagMode::On;
            let (i_load, v_target) = if on {
                (p.i_listen, p.v_off)
            } else {
                (0.0, p.v_on)
            };
            let v = self.v_cap[i];
            let v_inf = p.v_inf(self.v_oc[i], i_load);
            let v_end = rc_settle(v, v_inf, decay);
            if rc_span_misses(v, v_inf, v_target, v_end) {
                debug_assert!(
                    rc_time_to(v, v_inf, tau, v_target).is_none_or(|t| t > dt),
                    "tag {i}: pre-filter passed a crossing"
                );
                self.v_cap[i] = v_end;
                if on {
                    self.active_s[i] += dt;
                }
            } else {
                self.advance_tag_exact(i, dt, tau);
            }
        }
    }

    /// Advances tag `i` by `dt` seconds through every threshold it
    /// crosses on the way: one closed-form segment per crossing.
    fn advance_tag_exact(&mut self, i: usize, dt: f64, tau: f64) {
        let mut remaining = dt;
        // A tag can cross at most a handful of thresholds per
        // millisecond-scale span; the loop converges because every
        // iteration either consumes the whole remainder or moves
        // strictly past a crossing.
        while remaining > 0.0 {
            let v = self.v_cap[i];
            match self.mode[i] {
                TagMode::Off => {
                    let v_inf = self.params.v_inf(self.v_oc[i], 0.0);
                    match rc_time_to(v, v_inf, tau, self.params.v_on) {
                        Some(t) if t <= remaining => {
                            // Turn-on mid-span: power up, lose volatile
                            // slot state, keep charging under load for
                            // the rest.
                            self.v_cap[i] = self.params.v_on;
                            self.mode[i] = TagMode::On;
                            self.slot[i] = u32::MAX;
                            remaining -= t;
                        }
                        _ => {
                            self.v_cap[i] = rc_advance(v, v_inf, tau, remaining);
                            remaining = 0.0;
                        }
                    }
                }
                TagMode::On => {
                    let v_inf = self.params.v_inf(self.v_oc[i], self.params.i_listen);
                    match rc_time_to(v, v_inf, tau, self.params.v_off) {
                        Some(t) if t <= remaining => {
                            // Brown-out mid-span: all volatile state
                            // dies — slot counter, session inventoried
                            // flag.
                            self.v_cap[i] = self.params.v_off;
                            self.mode[i] = TagMode::Off;
                            self.slot[i] = u32::MAX;
                            self.inventoried[i] = false;
                            self.power_cycles[i] += 1;
                            self.active_s[i] += t;
                            remaining -= t;
                        }
                        _ => {
                            self.v_cap[i] = rc_advance(v, v_inf, tau, remaining);
                            self.active_s[i] += remaining;
                            remaining = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// Starts an inventory round of `2^q` slots: every powered,
    /// un-inventoried tag draws a fresh slot counter from its own
    /// stream. Unpowered tags miss the Query entirely.
    pub fn begin_round(&mut self, q: u8) {
        let mask = (1u64 << q) - 1;
        for i in 0..self.v_cap.len() {
            if self.mode[i] == TagMode::On && !self.inventoried[i] {
                self.slot[i] = (splitmix64(&mut self.rng[i]) & mask) as u32;
            } else {
                self.slot[i] = u32::MAX;
            }
        }
    }

    /// Opens the next slot of the round in one pass: fills `responders`
    /// (cleared first) with the local indices of tags replying in it
    /// (counter 0), takes them out of the round, and counts every other
    /// live counter down (QueryRep). A responder contends again only
    /// through [`redraw_after_collision`](Self::redraw_after_collision)
    /// or the next round's draw, as a real tag whose reply went
    /// unanswered does. Reusing one buffer across slots keeps the pass
    /// allocation-free.
    pub fn open_slot(&mut self, responders: &mut Vec<usize>) {
        responders.clear();
        for (i, s) in self.slot.iter_mut().enumerate() {
            match *s {
                u32::MAX => {}
                0 => {
                    responders.push(i);
                    *s = u32::MAX;
                }
                n => *s = n - 1,
            }
        }
    }

    /// Redraws tag `i`'s counter after a collision in the slot just
    /// opened (the Gen2 spec lets collided tags re-arbitrate within the
    /// round): uniform over the next `2^q` slots, so it contends on a
    /// strictly later slot.
    pub fn redraw_after_collision(&mut self, i: usize, q: u8) {
        let mask = (1u64 << q) - 1;
        self.slot[i] = (splitmix64(&mut self.rng[i]) & mask) as u32;
    }

    /// Marks tag `i` inventoried and charges its reply: the EPC
    /// backscatter burns `i_tx` for `air` seconds out of the cap.
    /// The voltage droop is linearized (`ΔV = i·t/C`) — reply air times
    /// are ~1 ms, far below τ = 70 ms, so the RC correction is < 1%.
    pub fn complete_reply(&mut self, i: usize, air: SimTime, inventoried: bool) {
        let dv = self.params.i_tx * air.as_secs_f64() / self.params.capacitance;
        self.v_cap[i] = (self.v_cap[i] - dv).max(0.0);
        if inventoried {
            self.inventoried[i] = true;
        }
        self.slot[i] = u32::MAX;
        if self.v_cap[i] < self.params.v_off {
            self.mode[i] = TagMode::Off;
            self.slot[i] = u32::MAX;
            self.inventoried[i] = false;
            self.power_cycles[i] += 1;
        }
    }

    /// Count of tags currently holding the inventoried flag.
    pub fn inventoried_count(&self) -> usize {
        self.inventoried.iter().filter(|b| **b).count()
    }

    /// Draws a uniform value in `[0, 1)` from tag `i`'s own stream —
    /// used for per-reply corruption so the draw order, like the slot
    /// draws, depends only on the tag's own history (shard-invariant).
    pub fn draw_unit(&mut self, i: usize) -> f64 {
        (splitmix64(&mut self.rng[i]) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TagParams {
        TagParams::wisp5()
    }

    fn one_tag(seed: u64, d: f64) -> Fleet {
        Fleet::new(params(), 0, 1, seed, |_| d)
    }

    #[test]
    fn tags_start_off_and_charge_to_turn_on() {
        let mut f = one_tag(1, 0.5);
        assert_eq!(f.mode(0), TagMode::Off);
        // At 0.5 m, v_oc = 6.4 V ≫ v_on: the tag must power up within
        // a few time constants (τ = 70.5 ms).
        f.advance_span(SimTime::from_ms(500));
        assert_eq!(f.mode(0), TagMode::On);
        assert!(f.v_cap(0) >= params().v_on - 1e-9);
        assert!(f.active_secs(0) > 0.0, "powered time accrues after turn-on");
    }

    #[test]
    fn distant_tag_never_powers_on() {
        // At 2 m, v_oc = 1.6 V < v_on = 2.4 V: can never turn on.
        let mut f = one_tag(1, 2.0);
        f.advance_span(SimTime::from_secs(10));
        assert_eq!(f.mode(0), TagMode::Off);
        assert!(f.v_cap(0) < 1.6 + 1e-9);
        assert_eq!(f.active_secs(0), 0.0);
    }

    #[test]
    fn heavy_load_browns_out_and_clears_volatile_state() {
        let p = TagParams {
            // Listening load pulls the asymptote below v_off:
            // v_inf = 2.0 − 1.2e-3·1500 = 0.2 V.
            i_listen: 1.2e-3,
            v_oc_ref: 2.0,
            ..params()
        };
        let mut f = Fleet::new(p, 0, 1, 7, |_| 1.0);
        // Force it on with a full cap, mid-round.
        f.mode[0] = TagMode::On;
        f.v_cap[0] = 2.6;
        f.inventoried[0] = true;
        f.slot[0] = 3;
        f.advance_span(SimTime::from_secs(1));
        assert_eq!(f.mode(0), TagMode::Off);
        assert!(!f.inventoried(0), "brown-out clears the session flag");
        assert_eq!(f.slot[0], u32::MAX, "brown-out clears the slot counter");
        assert_eq!(f.power_cycles(0), 1);
    }

    #[test]
    fn span_advance_is_piecewise_consistent() {
        // Advancing 10 ms in one span must equal 10 × 1 ms spans
        // bit-for-bit when no threshold is crossed... not guaranteed
        // bitwise for chained exponentials, so assert tight closeness.
        let mut a = one_tag(3, 1.0);
        let mut b = one_tag(3, 1.0);
        a.advance_span(SimTime::from_ms(10));
        for _ in 0..10 {
            b.advance_span(SimTime::from_ms(1));
        }
        assert!((a.v_cap(0) - b.v_cap(0)).abs() < 1e-9);
    }

    /// The span advance as it was before the decay factor was hoisted,
    /// kept verbatim: every tag runs the exact crossing loop. The
    /// oracle for `hoisted_span_matches_per_tag_loop_bit_for_bit`.
    fn advance_span_reference(f: &mut Fleet, span: SimTime) {
        let dt_total = span.as_secs_f64();
        if dt_total <= 0.0 {
            return;
        }
        let tau = f.params.tau();
        for i in 0..f.v_cap.len() {
            let mut remaining = dt_total;
            while remaining > 0.0 {
                let v = f.v_cap[i];
                match f.mode[i] {
                    TagMode::Off => {
                        let v_inf = f.params.v_inf(f.v_oc[i], 0.0);
                        match rc_time_to(v, v_inf, tau, f.params.v_on) {
                            Some(t) if t <= remaining => {
                                f.v_cap[i] = f.params.v_on;
                                f.mode[i] = TagMode::On;
                                f.slot[i] = u32::MAX;
                                remaining -= t;
                            }
                            _ => {
                                f.v_cap[i] = rc_advance(v, v_inf, tau, remaining);
                                remaining = 0.0;
                            }
                        }
                    }
                    TagMode::On => {
                        let v_inf = f.params.v_inf(f.v_oc[i], f.params.i_listen);
                        match rc_time_to(v, v_inf, tau, f.params.v_off) {
                            Some(t) if t <= remaining => {
                                f.v_cap[i] = f.params.v_off;
                                f.mode[i] = TagMode::Off;
                                f.slot[i] = u32::MAX;
                                f.inventoried[i] = false;
                                f.power_cycles[i] += 1;
                                f.active_s[i] += t;
                                remaining -= t;
                            }
                            _ => {
                                f.v_cap[i] = rc_advance(v, v_inf, tau, remaining);
                                f.active_s[i] += remaining;
                                remaining = 0.0;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hoisted_span_matches_per_tag_loop_bit_for_bit() {
        // 2 000 spans × 64 tags = 128 000 seeded cases. Each tag draws
        // its mode, v ∈ [0, 3] V and d ∈ [0.3, 2] m; every span, from
        // 1 µs to 10 ms log-uniform, is shared by its 64 tags. A third
        // of the tags sit within ±1e-6 V of their threshold, and a sixth
        // start exactly where the span ends at the crossing, so the
        // pre-filter must hand them to the exact loop.
        const TAGS: usize = 64;
        fn unit(rng: &mut u64) -> f64 {
            (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
        }
        let p = params();
        let tau = p.tau();
        let mut rng = 0x5EED_F1EE_u64;
        let mut crossings = 0u32;
        for _ in 0..2_000 {
            let span = SimTime::from_ns((1e3 * 1e4f64.powf(unit(&mut rng))) as u64);
            let dt = span.as_secs_f64();
            let d: Vec<f64> = (0..TAGS).map(|_| 0.3 + 1.7 * unit(&mut rng)).collect();
            let mut fast = Fleet::new(p, 0, TAGS, 0, |g| d[g]);
            for i in 0..TAGS {
                let on = unit(&mut rng) < 0.5;
                let (mode, i_load, target) = if on {
                    (TagMode::On, p.i_listen, p.v_off)
                } else {
                    (TagMode::Off, 0.0, p.v_on)
                };
                let v_inf = p.v_inf(fast.v_oc[i], i_load);
                fast.mode[i] = mode;
                fast.v_cap[i] = match i % 6 {
                    0 | 1 => target + 2e-6 * (unit(&mut rng) - 0.5),
                    2 => (v_inf + (target - v_inf) / rc_decay(tau, dt)).max(0.0),
                    _ => 3.0 * unit(&mut rng),
                };
                fast.slot[i] = if on {
                    (splitmix64(&mut rng) % 16) as u32
                } else {
                    u32::MAX
                };
                fast.inventoried[i] = on && unit(&mut rng) < 0.5;
                fast.power_cycles[i] = (splitmix64(&mut rng) % 4) as u32;
                fast.active_s[i] = unit(&mut rng);
            }
            let mut exact = fast.clone();
            fast.advance_span(span);
            advance_span_reference(&mut exact, span);
            for i in 0..TAGS {
                let case = format!("span {dt:e} s, tag {i}");
                assert_eq!(fast.v_cap[i].to_bits(), exact.v_cap[i].to_bits(), "{case}");
                assert_eq!(fast.mode[i], exact.mode[i], "{case}");
                assert_eq!(fast.slot[i], exact.slot[i], "{case}");
                assert_eq!(fast.inventoried[i], exact.inventoried[i], "{case}");
                assert_eq!(fast.power_cycles[i], exact.power_cycles[i], "{case}");
                assert_eq!(
                    fast.active_s[i].to_bits(),
                    exact.active_s[i].to_bits(),
                    "{case}"
                );
            }
            // A turn-on leaves the slot cleared; a brown-out the mode Off.
            crossings += (0..TAGS)
                .filter(|&i| exact.slot[i] == u32::MAX && exact.mode[i] == TagMode::On)
                .count() as u32;
        }
        assert!(
            crossings > 1_000,
            "only {crossings} turn-ons: the fallback barely ran"
        );
    }

    #[test]
    fn round_draws_and_slot_flow() {
        let mut f = Fleet::new(params(), 0, 8, 42, |_| 0.5);
        f.advance_span(SimTime::from_secs(1));
        assert_eq!(f.powered_count(), 8);
        f.begin_round(2);
        for i in 0..8 {
            assert!(f.slot[i] < 4, "drawn within 2^q");
        }
        let before = f.slot.clone();
        let mut responders = vec![usize::MAX; 3];
        f.open_slot(&mut responders);
        let zeros: Vec<usize> = (0..8).filter(|&i| before[i] == 0).collect();
        assert_eq!(responders, zeros, "the buffer holds exactly the 0-holders");
        for (i, &b) in before.iter().enumerate() {
            let want = if b == 0 { u32::MAX } else { b - 1 };
            assert_eq!(
                f.slot[i], want,
                "0-holders leave the round, the rest count down"
            );
        }
    }

    #[test]
    fn unpowered_tags_do_not_draw() {
        let mut f = Fleet::new(params(), 0, 2, 9, |g| if g == 0 { 0.5 } else { 2.0 });
        f.advance_span(SimTime::from_secs(2));
        f.begin_round(4);
        assert_ne!(f.slot[0], u32::MAX);
        assert_eq!(f.slot[1], u32::MAX, "a dead tag cannot hear the Query");
    }

    #[test]
    fn streams_depend_on_global_index_not_local_position() {
        // Tag with global index 5 must produce the same draws whether
        // it lives in a fleet alone or among others — the property that
        // makes sharding invisible.
        let mut alone = Fleet::new(params(), 5, 1, 77, |_| 0.5);
        let mut among = Fleet::new(params(), 0, 10, 77, |_| 0.5);
        alone.advance_span(SimTime::from_secs(1));
        among.advance_span(SimTime::from_secs(1));
        for _ in 0..5 {
            alone.begin_round(8);
            among.begin_round(8);
            assert_eq!(alone.slot[0], among.slot[5]);
        }
    }

    #[test]
    fn reply_droop_and_inventory_flag() {
        let mut f = one_tag(11, 0.5);
        f.advance_span(SimTime::from_secs(1));
        let v_before = f.v_cap(0);
        f.complete_reply(0, SimTime::from_ms(1), true);
        let droop = v_before - f.v_cap(0);
        let expect = 2.0e-3 * 1e-3 / WISP5_CAPACITANCE;
        assert!((droop - expect).abs() < 1e-12);
        assert!(f.inventoried(0));
        assert_eq!(f.inventoried_count(), 1);
    }

    #[test]
    fn tag_cycles_track_active_time() {
        let mut f = one_tag(13, 0.5);
        f.advance_span(SimTime::from_secs(1));
        let cycles = f.tag_cycles();
        assert!((cycles - f.active_secs(0) * 4.0e6).abs() < 1e-6, "{cycles}");
        assert!(cycles > 0.0);
    }
}
