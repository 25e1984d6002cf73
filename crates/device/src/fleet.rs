//! Struct-of-arrays fleet of reduced-order Gen2 tags.
//!
//! The full [`Device`](crate::Device) integrates one instruction at a
//! time — roughly 4 × 10⁶ steps per simulated second. That is exactly
//! right for debugging *one* tag, and exactly wrong for a warehouse: a
//! 10⁴-tag fleet over 30 s would cost ~10¹² CPU steps. The fleet path
//! therefore models each tag as what it electrically is between RF
//! events — a first-order RC node (Thévenin harvester into the 47 µF
//! storage cap) with a piecewise-constant load — and advances *every*
//! tag through a run of carrier spans in closed form. One decay factor
//! per span ([`rc_decay`]) is shared by every tag, so a tag costs one
//! multiply-add ([`rc_settle`]) plus a crossing pre-filter
//! ([`rc_span_misses`]) per span, in one select-only pass over the
//! arrays ([`Fleet::advance_spans`]). `ln` runs only for the tags that
//! pass lists as near a threshold: a sparse fix-up takes them through
//! the exact piecewise path ([`rc_time_to`] / [`rc_advance`]) across
//! the `v_on` turn-on and `v_off` brown-out crossings.
//!
//! A tag whose state must be read before the next full pass (a reply's
//! responders) catches up alone ([`Fleet::catch_up`]), with the same
//! per-span step the fix-up runs; the next full pass
//! ([`Fleet::advance_spans_past`]) gives it only the spans it has not
//! had, so every tag sees each span once.
//!
//! Slot bookkeeping costs only the tags that reply. Each tag holds the
//! *absolute* slot of the round it replies in, and sits in that slot's
//! intrusive list (a `head` per slot, a `link` per tag). Opening slot
//! `k` walks list `k` alone; a brown-out, turn-on or finished reply
//! just clears the tag's slot, and the walk skips entries whose slot no
//! longer matches.
//!
//! State is laid out struct-of-arrays: one `Vec` per field (`v_cap`,
//! `mode`, `slot`, `rng`, …), so the span pass streams through
//! contiguous memory instead of hopping across 10⁴ boxed devices. Each
//! tag owns a SplitMix64 stream seeded from the trial seed and its
//! *global* tag index, which is what makes a fleet bit-reproducible
//! regardless of how tags are sharded across threads.
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

/// End of a slot list, and the slot of a tag that replies in none.
const NONE: u32 = u32::MAX;
/// `link` of a tag that sits in no list still to be walked.
const UNLINKED: u32 = u32::MAX - 1;
/// Most spans one pass of [`Fleet::advance_spans`] fuses; a longer run
/// goes in chunks.
const FUSED_SPANS: usize = 4;

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
    /// Absolute slot of the round in progress the tag replies in, or
    /// `NONE`.
    slot: Vec<u32>,
    /// The slot [`open_slot`](Fleet::open_slot) opens next.
    next_slot: u32,
    /// First tag of each slot's list (`NONE`: empty).
    head: Vec<u32>,
    /// Next tag in the same slot list (`NONE`: last), or `UNLINKED`;
    /// sized by the first round.
    link: Vec<u32>,
    /// Per-tag SplitMix64 stream state.
    rng: Vec<u64>,
    /// Inventoried flag (session flag A→B); cleared by brown-out.
    inventoried: Vec<bool>,
    /// Cumulative powered time (s).
    active_s: Vec<f64>,
    /// Brown-out → turn-on cycles survived.
    power_cycles: Vec<u32>,
    /// Span-pass scratch: the tags it left for the exact fix-up.
    crossing: Vec<usize>,
    /// [`advance_spans_past`](Fleet::advance_spans_past) scratch: the
    /// caught-up tags' state while the full pass runs over them.
    aside: Vec<TagEnergy>,
}

/// The per-tag state a carrier span can change.
#[derive(Debug, Clone, Copy)]
struct TagEnergy {
    v_cap: f64,
    mode: TagMode,
    slot: u32,
    inventoried: bool,
    active_s: f64,
    power_cycles: u32,
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
        assert!(n < UNLINKED as usize, "{n} tags overflow the slot lists");
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
            slot: vec![NONE; n],
            next_slot: 0,
            head: Vec::new(),
            link: Vec::new(),
            rng,
            inventoried: vec![false; n],
            active_s: vec![0.0; n],
            power_cycles: vec![0; n],
            crossing: Vec::new(),
            aside: Vec::new(),
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

    /// Advances every tag `span` of carrier time: the one-span case of
    /// [`advance_spans`](Self::advance_spans).
    pub fn advance_span(&mut self, span: SimTime) {
        self.advance_spans(&[span]);
    }

    /// Advances every tag through `spans` of carrier time, in order,
    /// with closed-form RC arithmetic, handling turn-on and brown-out
    /// crossings inside each span. Bit for bit the same as advancing
    /// the spans one at a time, because tags do not interact while the
    /// carrier runs: each tag sees the same float operations in the
    /// same order.
    ///
    /// Powered tags draw `i_listen`; unpowered tags charge unloaded.
    /// Each span's decay factor is computed once. One select-only pass
    /// settles every tag through all the spans with [`rc_settle`] — the
    /// same operations [`rc_advance`] runs — and writes back the tags
    /// whose settled voltage [`rc_span_misses`] its threshold in every
    /// span. It lists the rest, which may cross; only when it listed
    /// one does a sparse fix-up take those tags, span by span, through
    /// the exact crossing loop. The pre-filter keeps its short-circuit:
    /// most tags settle far from a threshold and leave it at its first
    /// test, which measured faster than evaluating every term to make
    /// the pass branch-free.
    pub fn advance_spans(&mut self, spans: &[SimTime]) {
        let tau = self.params.tau();
        for chunk in spans.chunks(FUSED_SPANS) {
            let mut steps = [(0.0, 0.0); FUSED_SPANS];
            let mut k = 0;
            for span in chunk {
                let dt = span.as_secs_f64();
                if dt > 0.0 {
                    steps[k] = (dt, rc_decay(tau, dt));
                    k += 1;
                }
            }
            // A span count fixed at compile time unrolls the per-tag
            // span loop; a slice here made `fleet-10k` ~35% slower.
            match k {
                0 => continue,
                1 => self.settle_pass([steps[0]]),
                2 => self.settle_pass([steps[0], steps[1]]),
                3 => self.settle_pass([steps[0], steps[1], steps[2]]),
                _ => self.settle_pass(steps),
            }
            if !self.crossing.is_empty() {
                self.fix_crossings(&steps[..k], tau);
            }
        }
    }

    /// The select-only pass of [`advance_spans`](Self::advance_spans)
    /// over `K` spans of `(dt, decay)`: writes every tag that settles
    /// clear of its threshold in all of them, and leaves the others as
    /// they were, listed in `crossing`.
    fn settle_pass<const K: usize>(&mut self, steps: [(f64, f64); K]) {
        let p = self.params;
        self.crossing.clear();
        let tags = self
            .v_cap
            .iter_mut()
            .zip(&mut self.active_s)
            .zip(&self.mode)
            .zip(&self.v_oc);
        for (i, (((v_cap, active_s), mode), &v_oc)) in tags.enumerate() {
            let on = *mode == TagMode::On;
            let (i_load, v_target) = if on {
                (p.i_listen, p.v_off)
            } else {
                (0.0, p.v_on)
            };
            let v_inf = p.v_inf(v_oc, i_load);
            let (mut v, mut active, mut cross) = (*v_cap, *active_s, false);
            for (dt, decay) in steps {
                let v_end = rc_settle(v, v_inf, decay);
                let misses = rc_span_misses(v, v_inf, v_target, v_end);
                debug_assert!(
                    cross
                        || !misses
                        || rc_time_to(v, v_inf, p.tau(), v_target).is_none_or(|t| t > dt),
                    "pre-filter passed a crossing"
                );
                cross |= !misses;
                v = v_end;
                active = if on { active + dt } else { active };
            }
            if cross {
                self.crossing.push(i);
            } else {
                *v_cap = v;
                *active_s = active;
            }
        }
    }

    /// The sparse fix-up of [`advance_spans`](Self::advance_spans):
    /// runs every tag the settle pass listed through `steps` one span
    /// at a time, each by [`step_tag`](Self::step_tag).
    fn fix_crossings(&mut self, steps: &[(f64, f64)], tau: f64) {
        for k in 0..self.crossing.len() {
            let i = self.crossing[k];
            for &(dt, decay) in steps {
                self.step_tag(i, dt, decay, tau);
            }
        }
    }

    /// One span of `dt` seconds and decay factor `decay` for tag `i`
    /// alone: one [`rc_settle`] when it misses its threshold, the exact
    /// crossing loop when it may not. The fix-up and
    /// [`catch_up`](Self::catch_up) both step tags with it, so a tag
    /// sees the same float operations whichever path it takes.
    fn step_tag(&mut self, i: usize, dt: f64, decay: f64, tau: f64) {
        let p = self.params;
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
            self.v_cap[i] = v_end;
            if on {
                self.active_s[i] += dt;
            }
        } else {
            self.advance_tag_exact(i, dt, tau);
        }
    }

    /// Advances the tags in `tags` alone through `spans`, span by span,
    /// each span's decay factor computed once: bit for bit what
    /// [`advance_spans`](Self::advance_spans) gives them. Costs the
    /// listed tags, not the fleet; the full pass that follows must skip
    /// these spans for them
    /// ([`advance_spans_past`](Self::advance_spans_past)).
    pub fn catch_up(&mut self, tags: &[usize], spans: &[SimTime]) {
        let tau = self.params.tau();
        for span in spans {
            let dt = span.as_secs_f64();
            if dt > 0.0 {
                let decay = rc_decay(tau, dt);
                for &i in tags {
                    self.step_tag(i, dt, decay, tau);
                }
            }
        }
    }

    /// [`advance_spans`](Self::advance_spans) for a fleet some of whose
    /// tags ran ahead: each `(i, done)` of `caught` names a distinct tag
    /// that [`catch_up`](Self::catch_up) already took through
    /// `spans[..done]`, and that gets only `spans[done..]` here. The
    /// fused pass still runs over every tag with no per-tag check: the
    /// caught-up tags' state is set aside before it and put back after,
    /// and they catch up through the rest alone.
    pub fn advance_spans_past(&mut self, spans: &[SimTime], caught: &[(usize, usize)]) {
        let mut aside = std::mem::take(&mut self.aside);
        aside.clear();
        aside.extend(caught.iter().map(|&(i, _)| self.energy(i)));
        self.advance_spans(spans);
        for (&(i, done), &state) in caught.iter().zip(&aside) {
            self.set_energy(i, state);
            self.catch_up(&[i], &spans[done..]);
        }
        self.aside = aside;
    }

    /// Everything a span can change of tag `i`.
    fn energy(&self, i: usize) -> TagEnergy {
        TagEnergy {
            v_cap: self.v_cap[i],
            mode: self.mode[i],
            slot: self.slot[i],
            inventoried: self.inventoried[i],
            active_s: self.active_s[i],
            power_cycles: self.power_cycles[i],
        }
    }

    fn set_energy(&mut self, i: usize, state: TagEnergy) {
        self.v_cap[i] = state.v_cap;
        self.mode[i] = state.mode;
        self.slot[i] = state.slot;
        self.inventoried[i] = state.inventoried;
        self.active_s[i] = state.active_s;
        self.power_cycles[i] = state.power_cycles;
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
                            self.slot[i] = NONE;
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
                            self.slot[i] = NONE;
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
    /// un-inventoried tag draws its reply slot from its own stream and
    /// joins that slot's list. Unpowered tags miss the Query entirely.
    pub fn begin_round(&mut self, q: u8) {
        let mask = (1u64 << q) - 1;
        self.next_slot = 0;
        self.head.clear();
        self.head.resize(1 << q, NONE);
        self.link.clear();
        self.link.resize(self.v_cap.len(), UNLINKED);
        for i in 0..self.v_cap.len() {
            if self.mode[i] == TagMode::On && !self.inventoried[i] {
                let slot = (splitmix64(&mut self.rng[i]) & mask) as u32;
                self.join(i, slot);
            } else {
                self.slot[i] = NONE;
            }
        }
    }

    /// Puts tag `i` in slot `slot`'s list, growing the lists when a
    /// draw lands past the round's last slot.
    fn join(&mut self, i: usize, slot: u32) {
        assert_eq!(self.link[i], UNLINKED, "tag {i} still sits in a slot list");
        let k = slot as usize;
        if k >= self.head.len() {
            self.head.resize(k + 1, NONE);
        }
        self.slot[i] = slot;
        self.link[i] = self.head[k];
        self.head[k] = i as u32;
    }

    /// Opens the next slot of the round: fills `responders` (cleared
    /// first) with the local indices of the tags replying in it, in
    /// ascending order, and takes them out of the round. Only the
    /// slot's own list is walked; an entry whose slot was cleared since
    /// it joined (brown-out, turn-on, finished reply) is skipped. A
    /// responder contends again only through
    /// [`redraw_after_collision`](Self::redraw_after_collision) or the
    /// next round's draw, as a real tag whose reply went unanswered
    /// does. Reusing one buffer across slots keeps the call
    /// allocation-free.
    pub fn open_slot(&mut self, responders: &mut Vec<usize>) {
        responders.clear();
        let k = self.next_slot;
        self.next_slot = k.saturating_add(1);
        let Some(head) = self.head.get_mut(k as usize) else {
            return;
        };
        let mut i = std::mem::replace(head, NONE);
        while i != NONE {
            let t = i as usize;
            if self.slot[t] == k {
                responders.push(t);
                self.slot[t] = NONE;
            }
            i = std::mem::replace(&mut self.link[t], UNLINKED);
        }
        responders.sort_unstable();
    }

    /// Redraws the reply slot of tag `i`, a responder of the slot just
    /// opened, after a collision (the Gen2 spec lets collided tags
    /// re-arbitrate within the round): uniform over the next `2^q`
    /// slots, so it contends on a strictly later slot.
    pub fn redraw_after_collision(&mut self, i: usize, q: u8) {
        let mask = (1u64 << q) - 1;
        let draw = (splitmix64(&mut self.rng[i]) & mask) as u32;
        self.join(i, self.next_slot + draw);
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
        self.slot[i] = NONE;
        if self.v_cap[i] < self.params.v_off {
            self.mode[i] = TagMode::Off;
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
        f.begin_round(2);
        let drawn = f.slot[0];
        assert!(drawn < 4, "an on, un-inventoried tag draws a slot");
        f.inventoried[0] = true;
        f.advance_span(SimTime::from_secs(1));
        assert_eq!(f.mode(0), TagMode::Off);
        assert!(!f.inventoried(0), "brown-out clears the session flag");
        assert_eq!(f.slot[0], NONE, "brown-out clears the reply slot");
        assert_eq!(f.power_cycles(0), 1);
        // The tag still sits in its slot's list; opening the slot skips
        // the stale entry.
        let mut responders = Vec::new();
        for _ in 0..4 {
            f.open_slot(&mut responders);
            assert!(responders.is_empty(), "a browned-out tag cannot reply");
        }
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
                                f.slot[i] = NONE;
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
                                f.slot[i] = NONE;
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
        // 2 000 span runs × 64 tags = 128 000 seeded cases. Each tag
        // draws its mode, v ∈ [0, 3] V and d ∈ [0.3, 2] m; run `c` is
        // `1 + c % 6` spans, each from 1 µs to 10 ms log-uniform, shared
        // by its 64 tags and fused into one `advance_spans` call (five
        // and six spans take two chunks). A third of the tags sit within
        // ±1e-6 V of their threshold, and a sixth start exactly where the
        // first span ends at the crossing, so the settle pass must leave
        // them to the exact loop; the rest of the run then goes on from
        // the crossing.
        const TAGS: usize = 64;
        fn unit(rng: &mut u64) -> f64 {
            (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
        }
        let p = params();
        let tau = p.tau();
        let mut rng = 0x5EED_F1EE_u64;
        let mut crossings = 0u32;
        for c in 0..2_000 {
            let spans: Vec<SimTime> = (0..=c % 6)
                .map(|_| SimTime::from_ns((1e3 * 1e4f64.powf(unit(&mut rng))) as u64))
                .collect();
            let dt = spans[0].as_secs_f64();
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
                    NONE
                };
                fast.inventoried[i] = on && unit(&mut rng) < 0.5;
                fast.power_cycles[i] = (splitmix64(&mut rng) % 4) as u32;
                fast.active_s[i] = unit(&mut rng);
            }
            let mut exact = fast.clone();
            fast.advance_spans(&spans);
            for &span in &spans {
                advance_span_reference(&mut exact, span);
            }
            for i in 0..TAGS {
                let case = format!("spans {spans:?}, tag {i}");
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
                .filter(|&i| exact.slot[i] == NONE && exact.mode[i] == TagMode::On)
                .count() as u32;
        }
        assert!(
            crossings > 1_000,
            "only {crossings} turn-ons: the fallback barely ran"
        );
    }

    /// A uniform draw in `[0, 1)` from a test's own stream.
    fn uniform(rng: &mut u64) -> f64 {
        (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn caught_up_tags_skip_their_spans_bit_for_bit() {
        // 2 000 seeded runs of 24 tags. Each run opens a one-slot round,
        // so its un-inventoried powered tags (those with `i % 6` of 2 or
        // 3) collide in slot 0. Those responders, and the tags with
        // `i % 6` of 0, 1 or 4, catch up alone through a prefix of 2–6
        // spans; the skipping pass then runs every tag through all. Tags
        // `i % 6 == 0` sit within a µV above `v_off` with their load
        // pulling them below, so they brown out in their own catch-up;
        // tags `i % 6 == 1` end the prefix just above `v_off`, close
        // enough that the skipped prefix would cross from there but the
        // remaining spans do not; tags `i % 6 == 4` turn on in theirs.
        // In odd runs each responder's reply drains it and a responder
        // still powered is redrawn between the catch-up and the pass,
        // and the oracle is `advance_spans` over the prefix and over the
        // rest around the same replies; in even runs the oracle is one
        // `advance_spans` over all the spans.
        const TAGS: usize = 24;
        let p = params();
        let tau = p.tau();
        let decays = |spans: &[SimTime]| -> f64 {
            spans
                .iter()
                .map(|s| rc_decay(tau, s.as_secs_f64()))
                .product()
        };
        let mut rng = 0xCA7C_0B0B_u64;
        let (mut browned, mut skipped_only, mut redrawn) = (0u32, 0u32, 0u32);
        for c in 0..2_000 {
            let n = 2 + c % 5;
            let done = if c % 7 == 0 { n } else { 1 + c % (n - 1) };
            // Half the runs end on µs-scale spans, which the tags
            // `i % 6 == 1` need to cross only in what they skip.
            let rest_scale: f64 = if c % 4 < 2 { 1e4 } else { 10.0 };
            let spans: Vec<SimTime> = (0..n)
                .map(|k| {
                    let scale = if k < done { 1e4 } else { rest_scale };
                    SimTime::from_ns((1e3 * scale.powf(uniform(&mut rng))) as u64)
                })
                .collect();
            let (d_prefix, d_rest) = (decays(&spans[..done]), decays(&spans[done..]));
            let mut fast = Fleet::new(p, 0, TAGS, c as u64, |g| {
                // Far tags' listening load pulls them below `v_off`.
                match g % 6 {
                    0 | 1 => 1.6 + 0.4 * (g as f64 / TAGS as f64),
                    4 => 0.5,
                    _ => 0.3 + 1.7 * (g as f64 / TAGS as f64),
                }
            });
            for i in 0..TAGS {
                let v_inf = p.v_inf(fast.v_oc[i], p.i_listen);
                let (on, v) = match i % 6 {
                    0 => (true, p.v_off + 1e-7 + 1e-6 * uniform(&mut rng)),
                    1 => {
                        // Ends the prefix `x` above `v_off`: a second
                        // prefix from there crosses, the rest does not.
                        let (gap_p, gap_r) = (1.0 / d_prefix - 1.0, 1.0 / d_rest - 1.0);
                        let x = (p.v_off - v_inf) * (gap_p * gap_r).sqrt();
                        (true, v_inf + (p.v_off + x - v_inf) / d_prefix)
                    }
                    2 | 3 => {
                        let near = uniform(&mut rng) < 0.5;
                        let up = if near { 0.06 } else { 1.2 };
                        (true, p.v_off + up * uniform(&mut rng))
                    }
                    4 => (false, p.v_on - 1e-6 * uniform(&mut rng)),
                    _ => (uniform(&mut rng) < 0.5, 3.0 * uniform(&mut rng)),
                };
                fast.mode[i] = if on { TagMode::On } else { TagMode::Off };
                fast.v_cap[i] = v;
                // Only tags 2 and 3 (mod 6) reply in the round.
                fast.inventoried[i] = on && !matches!(i % 6, 2 | 3);
                fast.power_cycles[i] = (splitmix64(&mut rng) % 4) as u32;
                fast.active_s[i] = uniform(&mut rng);
            }
            fast.begin_round(0);
            let mut responders = Vec::new();
            fast.open_slot(&mut responders);
            assert_eq!(responders.len(), 8, "run {c}");
            let mut ahead: Vec<usize> = (0..TAGS).filter(|i| i % 6 != 5).collect();
            let mut exact = fast.clone();
            let replies = |f: &mut Fleet| {
                for &i in &responders {
                    f.complete_reply(i, SimTime::from_us(800), false);
                    if f.mode[i] == TagMode::On {
                        f.redraw_after_collision(i, 2);
                    }
                }
            };

            fast.catch_up(&ahead, &spans[..done]);
            // `exact` still holds the state before the catch-up.
            browned += ahead
                .iter()
                .filter(|&&i| exact.mode[i] == TagMode::On && fast.mode[i] == TagMode::Off)
                .count() as u32;
            if c % 2 == 1 {
                replies(&mut fast);
                redrawn += responders.iter().filter(|&&i| fast.slot[i] != NONE).count() as u32;
            }
            let mut probe = fast.clone();
            probe.advance_spans(&spans[..done]);
            let caught: Vec<(usize, usize)> = ahead.iter().map(|&i| (i, done)).collect();
            let passing = fast.clone();
            fast.advance_spans_past(&spans, &caught);
            ahead.retain(|&i| {
                probe.power_cycles[i] != passing.power_cycles[i]
                    && fast.power_cycles[i] == passing.power_cycles[i]
            });
            skipped_only += ahead.len() as u32;

            if c % 2 == 1 {
                exact.advance_spans(&spans[..done]);
                replies(&mut exact);
                exact.advance_spans(&spans[done..]);
            } else {
                exact.advance_spans(&spans);
            }
            for i in 0..TAGS {
                let case = format!("run {c}, spans {spans:?} after {done}, tag {i}");
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
        }
        assert!(browned > 5_000, "only {browned} brown-outs in a catch-up");
        assert!(
            skipped_only > 3_000,
            "only {skipped_only} tags crossed in skipped spans alone"
        );
        assert!(redrawn > 3_000, "only {redrawn} redrawn responders");
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
        let drawn = f.slot.clone();
        let mut responders = vec![usize::MAX; 3];
        for k in 0..4 {
            f.open_slot(&mut responders);
            let want: Vec<usize> = (0..8).filter(|&i| drawn[i] == k).collect();
            assert_eq!(responders, want, "slot {k}: its holders, ascending");
            for (i, &d) in drawn.iter().enumerate() {
                let left = if d <= k { NONE } else { d };
                assert_eq!(f.slot[i], left, "responders leave the round");
            }
        }
        f.open_slot(&mut responders);
        assert!(responders.is_empty(), "past the round's last slot");
    }

    #[test]
    fn collided_tags_redraw_into_later_slots_even_past_the_round() {
        let mut f = Fleet::new(params(), 0, 64, 5, |_| 0.5);
        f.advance_span(SimTime::from_secs(1));
        f.begin_round(1);
        let mut responders = Vec::new();
        f.open_slot(&mut responders);
        assert!(responders.len() > 1, "64 tags in 2 slots collide");
        let collided = responders.clone();
        // A q raised inside the round: draws land up to slot 1 + 63,
        // far past the round's 2 lists.
        for &i in &collided {
            f.complete_reply(i, SimTime::from_us(100), false);
            f.redraw_after_collision(i, 6);
            assert!((1..65).contains(&f.slot[i]), "tag {i}: {}", f.slot[i]);
        }
        let target: Vec<u32> = collided.iter().map(|&i| f.slot[i]).collect();
        let mut seen = vec![None; 64];
        for k in 1..70 {
            f.open_slot(&mut responders);
            for &i in &responders {
                assert!(seen[i].is_none(), "tag {i} replied twice");
                seen[i] = Some(k);
            }
        }
        for (&i, &k) in collided.iter().zip(&target) {
            assert_eq!(seen[i], Some(k), "tag {i} replies in its redrawn slot");
        }
    }

    #[test]
    fn unpowered_tags_do_not_draw() {
        let mut f = Fleet::new(params(), 0, 2, 9, |g| if g == 0 { 0.5 } else { 2.0 });
        f.advance_span(SimTime::from_secs(2));
        f.begin_round(4);
        assert_ne!(f.slot[0], NONE);
        assert_eq!(f.slot[1], NONE, "a dead tag cannot hear the Query");
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
