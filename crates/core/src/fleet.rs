//! Fleet simulation: N reduced-order tags under one Gen2 reader cell.
//!
//! [`System`](crate::System) wires *one* full device to one reader for
//! instruction-level debugging. `FleetSim` is its population-scale
//! sibling: a [`Fleet`] of analytic tags (struct-of-arrays, closed-form
//! RC spans) driven slot-by-slot by a [`Gen2Reader`] with Q-slot
//! collision arbitration. Collided slots yield no EPC and push `q` up;
//! empty slots pull it down; a clean single completes the RN16 → Ack →
//! EPC handshake and sets the tag's inventoried flag (until brown-out
//! clears it, as volatile state loss must).
//!
//! Determinism contract: all randomness — slot draws, placement jitter,
//! reply corruption — comes from per-tag SplitMix64 streams keyed by
//! `(cell seed, global tag index)`, and a *cell* is a fixed unit of
//! `ceil(N / cell_size)` derived only from N. Executing cells in any
//! order on any number of threads and merging [`FleetCellStats`] in
//! cell order reproduces a serial run bit-for-bit.

use edb_device::fleet::splitmix64;
use edb_device::fleet::{Fleet, TagMode, TagParams};
use edb_energy::SimTime;
use edb_rfid::gen2::{Gen2Reader, Gen2Stats, Gen2Timing, QParams, SlotOutcome};
use edb_rfid::message::Command;
use serde::{Deserialize, Serialize};

/// Air bytes of an RN16 backscatter (the slot-claiming handshake half).
const RN16_BYTES: usize = 2;
/// Air bytes of the reader's Ack.
const ACK_BYTES: usize = 3;
/// Air bytes of the EPC reply (PC + EPC-96 + CRC-16).
const EPC_BYTES: usize = 12;

/// Configuration of a fleet trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Total tags across the whole fleet (all cells).
    pub n_tags: usize,
    /// Per-tag electrical parameters.
    pub tag: TagParams,
    /// Q algorithm parameters.
    pub q: QParams,
    /// Air-interface timing.
    pub timing: Gen2Timing,
    /// Gen2 session number carried in commands.
    pub session: u8,
    /// Nearest tag distance (m).
    pub d_min: f64,
    /// Farthest tag distance (m).
    pub d_max: f64,
    /// Seeded placement jitter amplitude (m, peak-to-peak).
    pub jitter_m: f64,
    /// Per-bit error rate of the backscatter link at the reference
    /// distance; a reply corrupts with probability
    /// `min(0.9, ber · bits · (d/d_ref)²)`.
    pub ber_ref: f64,
    /// Simulated carrier time per cell.
    pub duration: SimTime,
    /// Record a [`FleetEvent`] per round and slot (tests and
    /// interactive sessions; benchmarks leave it off).
    pub record_events: bool,
}

impl FleetConfig {
    /// A warehouse-shelf default: tags spread over 0.4–1.35 m with a
    /// little placement jitter, adaptive Q, dense-reader timing, 2 s of
    /// carrier per cell.
    pub fn standard(n_tags: usize) -> Self {
        FleetConfig {
            n_tags,
            tag: TagParams::wisp5(),
            q: QParams::adaptive(),
            timing: Gen2Timing::dense_reader(),
            session: 0,
            d_min: 0.4,
            d_max: 1.35,
            jitter_m: 0.05,
            ber_ref: 2e-4,
            duration: SimTime::from_secs(2),
            record_events: false,
        }
    }

    /// Distance of global tag `g` — a pure function of the trial seed
    /// and the fleet geometry, independent of sharding. Tags are spread
    /// evenly over `[d_min, d_max]` with a seeded jitter.
    pub fn distance_of(&self, seed: u64, g: usize) -> f64 {
        let base = if self.n_tags <= 1 {
            0.5 * (self.d_min + self.d_max)
        } else {
            self.d_min + (self.d_max - self.d_min) * g as f64 / (self.n_tags - 1) as f64
        };
        let mut s = seed ^ (g as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let u = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        (base + (u - 0.5) * self.jitter_m).max(0.05)
    }

    /// Probability a reply from distance `d` arrives corrupt.
    pub fn corrupt_probability(&self, d: f64) -> f64 {
        let bits = (8 * EPC_BYTES) as f64;
        let scale = (d / self.tag.d_ref) * (d / self.tag.d_ref);
        (self.ber_ref * bits * scale).min(0.9)
    }
}

/// One entry of the (optional) per-slot event log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A round opened (`Query`, or `QueryAdjust` when `adjust`).
    Round {
        /// Carrier time at the opening command.
        t: SimTime,
        /// Slot-count exponent of the round.
        q: u8,
        /// True when the round was opened by a mid-round `QueryAdjust`.
        adjust: bool,
    },
    /// A slot was arbitrated.
    Slot {
        /// Carrier time at slot end.
        t: SimTime,
        /// What the reader heard.
        outcome: SlotOutcome,
        /// Global index of the tag read (singles only).
        tag: Option<usize>,
    },
}

/// Mergeable per-cell results. Merging in cell order is associative
/// and reproduces the serial totals exactly (integer counts, and f64
/// sums taken in fixed cell order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetCellStats {
    /// Protocol counters from the cell's reader.
    pub gen2: Gen2Stats,
    /// Tags simulated in the cell.
    pub tags: u64,
    /// Distinct tags read at least once.
    pub unique_tags_read: u64,
    /// Σ powered-time × clock across the cell's tags.
    pub tag_cycles: f64,
    /// Brown-out → turn-on cycles across the cell.
    pub power_cycles: u64,
    /// Tags powered when the cell's run ended.
    pub powered_at_end: u64,
    /// Simulated carrier seconds the cell consumed.
    pub sim_seconds: f64,
    /// Lowest `q` any cell's reader used.
    pub q_lo: u8,
    /// Highest `q` any cell's reader used.
    pub q_hi: u8,
}

impl FleetCellStats {
    /// Folds `other` (the next cell in order) into this.
    pub fn merge(&mut self, other: &FleetCellStats) {
        self.gen2.merge(&other.gen2);
        // A default (zero-tag) accumulator adopts the first real range.
        if self.tags == 0 {
            self.q_lo = other.q_lo;
            self.q_hi = other.q_hi;
        } else {
            self.q_lo = self.q_lo.min(other.q_lo);
            self.q_hi = self.q_hi.max(other.q_hi);
        }
        self.tags += other.tags;
        self.unique_tags_read += other.unique_tags_read;
        self.tag_cycles += other.tag_cycles;
        self.power_cycles += other.power_cycles;
        self.powered_at_end += other.powered_at_end;
        self.sim_seconds += other.sim_seconds;
    }
}

/// Point-in-time view of one tag, for interactive inspection
/// (`fleet_status` over the debug-service RPC).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagStatus {
    /// Global tag index.
    pub index: usize,
    /// Reader distance (m).
    pub distance_m: f64,
    /// Capacitor voltage (V).
    pub v_cap: f64,
    /// True when powered.
    pub powered: bool,
    /// Session inventoried flag.
    pub inventoried: bool,
    /// Ever read during this run (survives brown-out).
    pub ever_read: bool,
    /// Brown-out cycles survived.
    pub power_cycles: u32,
    /// Powered seconds accumulated.
    pub active_secs: f64,
}

/// One reader cell: a contiguous range of the fleet under its own
/// Gen2 reader, simulated slot-by-slot.
#[derive(Debug, Clone)]
pub struct FleetSim {
    config: FleetConfig,
    fleet: Fleet,
    reader: Gen2Reader,
    global_base: usize,
    distances: Vec<f64>,
    ever_read: Vec<bool>,
    now: SimTime,
    round_open: bool,
    slots_left: u32,
    /// Responders of the slot in flight, reused from slot to slot.
    responders: Vec<usize>,
    /// Carrier spans already on the clock but not yet applied to the
    /// tags. Tags do not interact while the carrier runs, so the spans
    /// between two reads of tag state go to the fleet as one pass.
    pending: Vec<SimTime>,
    events: Vec<FleetEvent>,
}

impl FleetSim {
    /// Builds the cell covering global tags
    /// `global_base .. global_base + n_local` with the given cell seed.
    pub fn new_cell(config: FleetConfig, global_base: usize, n_local: usize, seed: u64) -> Self {
        let distances: Vec<f64> = (0..n_local)
            .map(|i| config.distance_of(seed, global_base + i))
            .collect();
        let d = distances.clone();
        let fleet = Fleet::new(config.tag, global_base, n_local, seed, move |g| {
            d[g - global_base]
        });
        FleetSim {
            config,
            fleet,
            reader: Gen2Reader::new(config.timing, config.session, config.q),
            global_base,
            distances,
            ever_read: vec![false; n_local],
            now: SimTime::ZERO,
            round_open: false,
            slots_left: 0,
            responders: Vec::new(),
            pending: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Builds the whole fleet as one cell (interactive use).
    pub fn new(config: FleetConfig, seed: u64) -> Self {
        Self::new_cell(config, 0, config.n_tags, seed)
    }

    /// Simulated carrier time elapsed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cell's reader (protocol counters, current q).
    pub fn reader(&self) -> &Gen2Reader {
        &self.reader
    }

    /// The recorded event log (empty unless `record_events`).
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// Runs until at least `duration` of carrier time has elapsed
    /// (finishes the in-flight slot).
    pub fn run(&mut self) {
        self.run_until(self.config.duration);
    }

    /// Runs slots until the carrier clock reaches `until` (finishes the
    /// in-flight slot).
    pub fn run_until(&mut self, until: SimTime) {
        while self.now < until {
            self.arbitrate_slot();
        }
        self.flush();
    }

    /// Runs `slots` arbitrated slots.
    pub fn run_slots(&mut self, slots: u64) {
        for _ in 0..slots {
            self.arbitrate_slot();
        }
        self.flush();
    }

    /// Advances the simulation by exactly one arbitrated slot,
    /// opening/reopening rounds as the reader demands.
    pub fn step_slot(&mut self) {
        self.run_slots(1);
    }

    /// One slot, leaving its trailing spans pending: the next slot's
    /// first read of tag state applies them together with its own.
    fn arbitrate_slot(&mut self) {
        if !self.round_open || self.slots_left == 0 {
            self.open_round();
        }
        // A QueryRep separates every slot after the round's first.
        let opening = self.slots_left == (1u32 << self.reader.q());
        if !opening {
            let cmd = self.reader.next_slot();
            self.put_on_air(&cmd);
        }
        self.slots_left -= 1;

        let mut responders = std::mem::take(&mut self.responders);
        // A crossing in a pending span clears a reply slot.
        self.flush();
        self.fleet.open_slot(&mut responders);
        let outcome = match responders.len() {
            0 => {
                self.advance(self.config.timing.empty_slot_timeout);
                SlotOutcome::Empty
            }
            1 => {
                let i = responders[0];
                // RN16 → Ack → EPC: the full handshake rides the air
                // whether or not the EPC survives the channel.
                let air = self
                    .config
                    .timing
                    .air_time(RN16_BYTES + ACK_BYTES + EPC_BYTES);
                self.advance(air);
                let p = self.config.corrupt_probability(self.distances[i]);
                let corrupt = self.fleet.draw_unit(i) < p;
                self.flush();
                self.fleet.complete_reply(i, air, !corrupt);
                if corrupt {
                    SlotOutcome::Corrupt
                } else {
                    self.ever_read[i] = true;
                    SlotOutcome::Single
                }
            }
            _ => {
                // Overlapping RN16s, then silence: the reader cannot
                // ACK what it cannot decode.
                let air = self.config.timing.air_time(RN16_BYTES);
                self.advance(air);
                self.advance(self.config.timing.empty_slot_timeout);
                self.flush();
                let q = self.reader.q();
                for &i in &responders {
                    self.fleet.complete_reply(i, air, false);
                    if self.fleet.mode(i) == TagMode::On {
                        self.fleet.redraw_after_collision(i, q);
                    }
                }
                SlotOutcome::Collision
            }
        };
        let restart = self.reader.report_slot(outcome);
        if self.config.record_events {
            self.events.push(FleetEvent::Slot {
                t: self.now,
                outcome,
                tag: match (outcome, responders.as_slice()) {
                    (SlotOutcome::Single, [i]) => Some(self.global_base + i),
                    _ => None,
                },
            });
        }
        self.responders = responders;
        if restart {
            self.slots_left = 0;
        }
    }

    fn open_round(&mut self) {
        let (cmd, slots) = self.reader.open_round();
        let adjust = matches!(cmd, Command::QueryAdjust { .. });
        self.put_on_air(&cmd);
        self.flush();
        self.fleet.begin_round(self.reader.q());
        self.round_open = true;
        self.slots_left = slots;
        if self.config.record_events {
            self.events.push(FleetEvent::Round {
                t: self.now,
                q: self.reader.q(),
                adjust,
            });
        }
    }

    fn put_on_air(&mut self, cmd: &Command) {
        let air = self.config.timing.air_time(cmd.encoded_len());
        self.advance(air);
    }

    /// Puts `span` on the clock; the tags catch up at the next
    /// [`flush`](Self::flush).
    fn advance(&mut self, span: SimTime) {
        self.pending.push(span);
        self.now = SimTime::from_ns(self.now.as_ns() + span.as_ns());
    }

    /// Applies the pending spans to every tag, in one pass.
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.fleet.advance_spans(&self.pending);
            self.pending.clear();
        }
    }

    /// Snapshot of one tag by *global* index (None when the tag lives
    /// in another cell).
    pub fn tag_status(&self, global: usize) -> Option<TagStatus> {
        debug_assert!(self.pending.is_empty(), "tag state read mid-slot");
        let i = global.checked_sub(self.global_base)?;
        if i >= self.fleet.len() {
            return None;
        }
        Some(TagStatus {
            index: global,
            distance_m: self.distances[i],
            v_cap: self.fleet.v_cap(i),
            powered: self.fleet.mode(i) == TagMode::On,
            inventoried: self.fleet.inventoried(i),
            ever_read: self.ever_read[i],
            power_cycles: self.fleet.power_cycles(i),
            active_secs: self.fleet.active_secs(i),
        })
    }

    /// The cell's mergeable results so far.
    pub fn stats(&self) -> FleetCellStats {
        debug_assert!(self.pending.is_empty(), "tag state read mid-slot");
        let (q_lo, q_hi) = self.reader.q_range_seen();
        FleetCellStats {
            gen2: self.reader.stats(),
            tags: self.fleet.len() as u64,
            unique_tags_read: self.ever_read.iter().filter(|b| **b).count() as u64,
            tag_cycles: self.fleet.tag_cycles(),
            power_cycles: (0..self.fleet.len())
                .map(|i| u64::from(self.fleet.power_cycles(i)))
                .sum(),
            powered_at_end: self.fleet.powered_count() as u64,
            sim_seconds: self.now.as_secs_f64(),
            q_lo,
            q_hi,
        }
    }
}

/// What [`single_tag_reference`] simulated: its event stream and the
/// tag's final electrical state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRun {
    /// Every round and slot, as `FleetSim` records them.
    pub events: Vec<FleetEvent>,
    /// Final capacitor voltage (V).
    pub v_cap: f64,
    /// True when the tag ended powered.
    pub powered: bool,
    /// Powered seconds accumulated over the run.
    pub active_secs: f64,
}

/// An independently written scalar single-tag simulation of the same
/// spec — plain locals, no struct-of-arrays, no [`Fleet`].
///
/// The fleet equivalence proptest holds `FleetSim` with `n_tags = 1`
/// to this function's event stream and final tag state: any drift
/// between the vectorized span-advance path and a straightforward
/// scalar implementation shows up as a diverging event or a differing
/// bit of the tag's voltage or powered time.
pub fn single_tag_reference(config: FleetConfig, seed: u64) -> ReferenceRun {
    use edb_energy::{rc_advance, rc_time_to};
    assert_eq!(config.n_tags, 1, "reference models exactly one tag");
    let p = config.tag;
    let tau = p.r_src * p.capacitance;
    let d = config.distance_of(seed, 0);
    let v_oc = p.v_oc_ref * p.d_ref / d;
    let p_corrupt = config.corrupt_probability(d);

    // Tag state: scalar mirror of the SoA vectors.
    let mut v = p.v_off;
    let mut on = false;
    let mut slot: Option<u32> = None;
    let mut inventoried = false;
    let mut active = 0.0f64;
    let mut rng = {
        let mut s = seed ^ 0u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut s);
        s
    };

    let mut reader = Gen2Reader::new(config.timing, config.session, config.q);
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    let mut slots_left = 0u32;

    // Scalar span advance with threshold crossings.
    let advance = |v: &mut f64,
                   on: &mut bool,
                   slot: &mut Option<u32>,
                   inventoried: &mut bool,
                   active: &mut f64,
                   now: &mut SimTime,
                   span: SimTime| {
        let mut remaining = span.as_secs_f64();
        while remaining > 0.0 {
            if *on {
                let v_inf = v_oc - p.i_listen * p.r_src;
                match rc_time_to(*v, v_inf, tau, p.v_off) {
                    Some(t) if t <= remaining => {
                        *v = p.v_off;
                        *on = false;
                        *slot = None;
                        *inventoried = false;
                        *active += t;
                        remaining -= t;
                    }
                    _ => {
                        *v = rc_advance(*v, v_inf, tau, remaining);
                        *active += remaining;
                        remaining = 0.0;
                    }
                }
            } else {
                match rc_time_to(*v, v_oc, tau, p.v_on) {
                    Some(t) if t <= remaining => {
                        *v = p.v_on;
                        *on = true;
                        *slot = None;
                        remaining -= t;
                    }
                    _ => {
                        *v = rc_advance(*v, v_oc, tau, remaining);
                        remaining = 0.0;
                    }
                }
            }
        }
        *now = SimTime::from_ns(now.as_ns() + span.as_ns());
    };

    while now < config.duration {
        if slots_left == 0 {
            let (cmd, slots) = reader.open_round();
            let adjust = matches!(cmd, Command::QueryAdjust { .. });
            let air = config.timing.air_time(cmd.encode().len());
            advance(
                &mut v,
                &mut on,
                &mut slot,
                &mut inventoried,
                &mut active,
                &mut now,
                air,
            );
            slot = if on && !inventoried {
                let mask = (1u64 << reader.q()) - 1;
                Some((splitmix64(&mut rng) & mask) as u32)
            } else {
                None
            };
            slots_left = slots;
            events.push(FleetEvent::Round {
                t: now,
                q: reader.q(),
                adjust,
            });
        }
        let opening = slots_left == (1u32 << reader.q());
        if !opening {
            let cmd = reader.next_slot();
            let air = config.timing.air_time(cmd.encode().len());
            advance(
                &mut v,
                &mut on,
                &mut slot,
                &mut inventoried,
                &mut active,
                &mut now,
                air,
            );
        }
        slots_left -= 1;

        let outcome = if slot == Some(0) {
            let air = config.timing.air_time(RN16_BYTES + ACK_BYTES + EPC_BYTES);
            advance(
                &mut v,
                &mut on,
                &mut slot,
                &mut inventoried,
                &mut active,
                &mut now,
                air,
            );
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            let corrupt = u < p_corrupt;
            v = (v - p.i_tx * air.as_secs_f64() / p.capacitance).max(0.0);
            if !corrupt {
                inventoried = true;
            }
            slot = None;
            if v < p.v_off {
                on = false;
                slot = None;
                inventoried = false;
            }
            if corrupt {
                SlotOutcome::Corrupt
            } else {
                SlotOutcome::Single
            }
        } else {
            advance(
                &mut v,
                &mut on,
                &mut slot,
                &mut inventoried,
                &mut active,
                &mut now,
                config.timing.empty_slot_timeout,
            );
            SlotOutcome::Empty
        };
        slot = match slot {
            Some(0) | None => None,
            Some(n) => Some(n - 1),
        };
        let restart = reader.report_slot(outcome);
        events.push(FleetEvent::Slot {
            t: now,
            outcome,
            tag: (outcome == SlotOutcome::Single).then_some(0),
        });
        if restart {
            slots_left = 0;
        }
    }
    ReferenceRun {
        events,
        v_cap: v,
        powered: on,
        active_secs: active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_inventories_most_of_a_small_population() {
        let mut cfg = FleetConfig::standard(50);
        cfg.duration = SimTime::from_secs(3);
        let mut sim = FleetSim::new(cfg, 42);
        sim.run();
        let stats = sim.stats();
        assert_eq!(stats.tags, 50);
        assert!(
            stats.unique_tags_read >= 25,
            "expected most near tags read: {stats:?}"
        );
        assert!(stats.gen2.epcs_read >= stats.unique_tags_read);
        assert!(stats.tag_cycles > 0.0);
        assert!(stats.sim_seconds >= 3.0);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let cfg = FleetConfig::standard(30);
        let mut a = FleetSim::new(cfg, 7);
        let mut b = FleetSim::new(cfg, 7);
        a.run();
        b.run();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.stats().tag_cycles.to_bits(),
            b.stats().tag_cycles.to_bits()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FleetConfig::standard(30);
        let mut a = FleetSim::new(cfg, 7);
        let mut b = FleetSim::new(cfg, 8);
        a.run();
        b.run();
        assert_ne!(a.stats(), b.stats());
    }

    #[test]
    fn cell_split_matches_monolithic_run() {
        // Two cells of 25 must together equal... nothing directly —
        // each cell has its own reader. What must hold: running cell 1
        // alone equals running cell 1 after cell 0 (no cross-cell
        // state), and tag streams key off global indices.
        let cfg = FleetConfig::standard(50);
        let mut alone = FleetSim::new_cell(cfg, 25, 25, 99);
        alone.run();
        let mut after = FleetSim::new_cell(cfg, 25, 25, 99);
        let mut first = FleetSim::new_cell(cfg, 0, 25, 31);
        first.run();
        after.run();
        assert_eq!(alone.stats(), after.stats());
        let _ = first.stats();
    }

    #[test]
    fn tag_status_reports_by_global_index() {
        let cfg = FleetConfig::standard(10);
        let mut sim = FleetSim::new_cell(cfg, 4, 3, 5);
        sim.run();
        assert!(sim.tag_status(3).is_none());
        assert!(sim.tag_status(7).is_none());
        let s = sim.tag_status(5).expect("in range");
        assert_eq!(s.index, 5);
        assert!(s.distance_m > 0.0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let cfg = FleetConfig::standard(20);
        let mut a = FleetSim::new_cell(cfg, 0, 10, 1);
        let mut b = FleetSim::new_cell(cfg, 10, 10, 2);
        a.run();
        b.run();
        let (sa, sb) = (a.stats(), b.stats());
        let mut merged = sa;
        merged.merge(&sb);
        assert_eq!(merged.tags, 20);
        assert_eq!(merged.gen2.epcs_read, sa.gen2.epcs_read + sb.gen2.epcs_read);
        assert_eq!(
            merged.tag_cycles.to_bits(),
            (sa.tag_cycles + sb.tag_cycles).to_bits()
        );
    }

    #[test]
    fn event_log_records_rounds_and_slots() {
        let mut cfg = FleetConfig::standard(5);
        cfg.duration = SimTime::from_ms(200);
        cfg.record_events = true;
        let mut sim = FleetSim::new(cfg, 3);
        sim.run();
        let events = sim.events();
        assert!(events.iter().any(|e| matches!(e, FleetEvent::Round { .. })));
        assert!(events.iter().any(|e| matches!(e, FleetEvent::Slot { .. })));
        // Timestamps never go backwards.
        let mut last = SimTime::ZERO;
        for e in events {
            let t = match e {
                FleetEvent::Round { t, .. } | FleetEvent::Slot { t, .. } => *t,
            };
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn reference_and_fleet_agree_on_one_tag() {
        // The dedicated proptest fuzzes this; pin one case here too.
        let mut cfg = FleetConfig::standard(1);
        cfg.duration = SimTime::from_ms(500);
        cfg.record_events = true;
        let mut sim = FleetSim::new(cfg, 1234);
        sim.run();
        let reference = single_tag_reference(cfg, 1234);
        assert_eq!(sim.events(), reference.events.as_slice());
        let tag = sim.tag_status(0).expect("one tag");
        assert_eq!(tag.v_cap.to_bits(), reference.v_cap.to_bits());
        assert_eq!(tag.powered, reference.powered);
        assert_eq!(tag.active_secs.to_bits(), reference.active_secs.to_bits());
    }
}
