//! The bucketed, deferred fleet against the countdown fleet it replaced.
//!
//! `FleetSim` opens a slot by walking that slot's list of tags and
//! applies the carrier spans between two reads of tag state in one
//! fused pass. The reference below is the design it replaced, kept as
//! it was: every tag holds a countdown that each slot decrements, and
//! every span is one pass that settles each tag or takes it through
//! the exact crossing loop. Both must agree bit for bit on every tag of
//! a cell — `v_cap`, mode, inventoried, ever-read, power cycles and
//! powered seconds — and on the recorded event stream. The cells are
//! the first and last of the `fleet-10k` benchmark fleet, both cells of
//! the `fleet` experiment's 1 000-tag fleet, whose tags brown out, and a
//! cell whose tags brown out while they wait for their slot.

use edb_bench::fleet::{cells_for, CELL_SIZE};
use edb_bench::runner::seed_for;
use edb_core::fleet::{FleetConfig, FleetEvent, FleetSim};
use edb_device::fleet::{splitmix64, TagParams};
use edb_energy::{rc_advance, rc_decay, rc_settle, rc_span_misses, rc_time_to, SimTime};
use edb_rfid::gen2::{Gen2Reader, SlotOutcome};
use edb_rfid::message::Command;

const RN16_BYTES: usize = 2;
const ACK_BYTES: usize = 3;
const EPC_BYTES: usize = 12;

/// One cell of the countdown fleet: struct-of-arrays tag state, a slot
/// countdown per tag, one pass per span and one pass per slot.
struct CountdownCell {
    config: FleetConfig,
    p: TagParams,
    reader: Gen2Reader,
    distances: Vec<f64>,
    v_cap: Vec<f64>,
    on: Vec<bool>,
    v_oc: Vec<f64>,
    slot: Vec<u32>,
    rng: Vec<u64>,
    inventoried: Vec<bool>,
    active_s: Vec<f64>,
    power_cycles: Vec<u32>,
    ever_read: Vec<bool>,
    now: SimTime,
    round_open: bool,
    slots_left: u32,
    events: Vec<FleetEvent>,
}

impl CountdownCell {
    fn new(config: FleetConfig, base: usize, n: usize, seed: u64) -> Self {
        let p = config.tag;
        let distances: Vec<f64> = (0..n).map(|i| config.distance_of(seed, base + i)).collect();
        let v_oc = distances.iter().map(|d| p.v_oc_ref * p.d_ref / d).collect();
        let rng = (0..n)
            .map(|i| {
                let mut s = seed ^ ((base + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                splitmix64(&mut s);
                s
            })
            .collect();
        CountdownCell {
            config,
            p,
            reader: Gen2Reader::new(config.timing, config.session, config.q),
            distances,
            v_cap: vec![p.v_off; n],
            on: vec![false; n],
            v_oc,
            slot: vec![u32::MAX; n],
            rng,
            inventoried: vec![false; n],
            active_s: vec![0.0; n],
            power_cycles: vec![0; n],
            ever_read: vec![false; n],
            now: SimTime::ZERO,
            round_open: false,
            slots_left: 0,
            events: Vec::new(),
        }
    }

    fn tau(&self) -> f64 {
        self.p.r_src * self.p.capacitance
    }

    fn advance(&mut self, span: SimTime) {
        let dt = span.as_secs_f64();
        if dt > 0.0 {
            let p = self.p;
            let tau = self.tau();
            let decay = rc_decay(tau, dt);
            for i in 0..self.v_cap.len() {
                let on = self.on[i];
                let (i_load, v_target) = if on {
                    (p.i_listen, p.v_off)
                } else {
                    (0.0, p.v_on)
                };
                let v = self.v_cap[i];
                let v_inf = self.v_oc[i] - i_load * p.r_src;
                let v_end = rc_settle(v, v_inf, decay);
                if rc_span_misses(v, v_inf, v_target, v_end) {
                    self.v_cap[i] = v_end;
                    if on {
                        self.active_s[i] += dt;
                    }
                } else {
                    self.advance_exact(i, dt, tau);
                }
            }
        }
        self.now = SimTime::from_ns(self.now.as_ns() + span.as_ns());
    }

    fn advance_exact(&mut self, i: usize, dt: f64, tau: f64) {
        let p = self.p;
        let mut remaining = dt;
        while remaining > 0.0 {
            let v = self.v_cap[i];
            if self.on[i] {
                let v_inf = self.v_oc[i] - p.i_listen * p.r_src;
                match rc_time_to(v, v_inf, tau, p.v_off) {
                    Some(t) if t <= remaining => {
                        self.v_cap[i] = p.v_off;
                        self.on[i] = false;
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
            } else {
                let v_inf = self.v_oc[i] - 0.0 * p.r_src;
                match rc_time_to(v, v_inf, tau, p.v_on) {
                    Some(t) if t <= remaining => {
                        self.v_cap[i] = p.v_on;
                        self.on[i] = true;
                        self.slot[i] = u32::MAX;
                        remaining -= t;
                    }
                    _ => {
                        self.v_cap[i] = rc_advance(v, v_inf, tau, remaining);
                        remaining = 0.0;
                    }
                }
            }
        }
    }

    fn draw(&mut self, i: usize, q: u8) -> u32 {
        (splitmix64(&mut self.rng[i]) & ((1u64 << q) - 1)) as u32
    }

    fn complete_reply(&mut self, i: usize, air: SimTime, inventoried: bool) {
        let dv = self.p.i_tx * air.as_secs_f64() / self.p.capacitance;
        self.v_cap[i] = (self.v_cap[i] - dv).max(0.0);
        if inventoried {
            self.inventoried[i] = true;
        }
        self.slot[i] = u32::MAX;
        if self.v_cap[i] < self.p.v_off {
            self.on[i] = false;
            self.inventoried[i] = false;
            self.power_cycles[i] += 1;
        }
    }

    fn step_slot(&mut self) {
        let timing = self.config.timing;
        if !self.round_open || self.slots_left == 0 {
            let (cmd, slots) = self.reader.open_round();
            let adjust = matches!(cmd, Command::QueryAdjust { .. });
            self.advance(timing.air_time(cmd.encode().len()));
            let q = self.reader.q();
            for i in 0..self.v_cap.len() {
                self.slot[i] = if self.on[i] && !self.inventoried[i] {
                    self.draw(i, q)
                } else {
                    u32::MAX
                };
            }
            self.round_open = true;
            self.slots_left = slots;
            self.events.push(FleetEvent::Round {
                t: self.now,
                q,
                adjust,
            });
        }
        if self.slots_left != 1u32 << self.reader.q() {
            let cmd = self.reader.next_slot();
            self.advance(timing.air_time(cmd.encode().len()));
        }
        self.slots_left -= 1;

        // Count every live counter down; the zeros reply.
        let mut responders = Vec::new();
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
        let outcome = match responders[..] {
            [] => {
                self.advance(timing.empty_slot_timeout);
                SlotOutcome::Empty
            }
            [i] => {
                let air = timing.air_time(RN16_BYTES + ACK_BYTES + EPC_BYTES);
                self.advance(air);
                let p = self.config.corrupt_probability(self.distances[i]);
                let u = (splitmix64(&mut self.rng[i]) >> 11) as f64 / (1u64 << 53) as f64;
                let corrupt = u < p;
                self.complete_reply(i, air, !corrupt);
                if corrupt {
                    SlotOutcome::Corrupt
                } else {
                    self.ever_read[i] = true;
                    SlotOutcome::Single
                }
            }
            _ => {
                let air = timing.air_time(RN16_BYTES);
                self.advance(air);
                self.advance(timing.empty_slot_timeout);
                let q = self.reader.q();
                for &i in &responders {
                    self.complete_reply(i, air, false);
                    if self.on[i] {
                        self.slot[i] = self.draw(i, q);
                    }
                }
                SlotOutcome::Collision
            }
        };
        let restart = self.reader.report_slot(outcome);
        self.events.push(FleetEvent::Slot {
            t: self.now,
            outcome,
            tag: None,
        });
        if restart {
            self.slots_left = 0;
        }
    }
}

/// Runs cell `trial` of an `n_tags` fleet both ways for `duration`,
/// with the cell seed the runner gives it, and compares every tag and
/// event. Returns the cell's power cycles.
fn bench_cell_matches(n_tags: usize, duration: SimTime, root_seed: u64, trial: usize) -> u64 {
    let config = FleetConfig {
        duration,
        ..FleetConfig::standard(n_tags)
    };
    let experiment = format!("fleet/{n_tags}");
    let seed = seed_for(root_seed, &experiment, trial as u64);
    let base = trial * CELL_SIZE;
    let n = CELL_SIZE.min(n_tags - base);
    cell_matches(config, base, n, seed, &format!("{experiment} cell {trial}"))
}

/// Runs the cell of `n` tags from global index `base` both ways and
/// compares every tag and event. Returns the cell's power cycles.
fn cell_matches(config: FleetConfig, base: usize, n: usize, seed: u64, cell: &str) -> u64 {
    let config = FleetConfig {
        record_events: true,
        ..config
    };
    let duration = config.duration;
    let mut sim = FleetSim::new_cell(config, base, n, seed);
    sim.run();
    let mut reference = CountdownCell::new(config, base, n, seed);
    while reference.now < duration {
        reference.step_slot();
    }

    let events = sim.events();
    assert_eq!(events.len(), reference.events.len(), "{cell}: event count");
    for (k, (got, want)) in events.iter().zip(&reference.events).enumerate() {
        // The reference does not name the tag a single read.
        let got = match *got {
            FleetEvent::Slot { t, outcome, .. } => FleetEvent::Slot {
                t,
                outcome,
                tag: None,
            },
            round => round,
        };
        assert_eq!(got, *want, "{cell}: event {k}");
    }
    let singles = events.iter().filter_map(|e| match e {
        FleetEvent::Slot {
            outcome: SlotOutcome::Single,
            tag,
            ..
        } => Some(tag.expect("a single names its tag")),
        _ => None,
    });
    for g in singles {
        assert!(reference.ever_read[g - base], "{cell}: tag {g} was read");
    }
    for i in 0..n {
        let tag = sim.tag_status(base + i).expect("tag in cell");
        let case = format!("{cell}, tag {}", base + i);
        assert_eq!(tag.v_cap.to_bits(), reference.v_cap[i].to_bits(), "{case}");
        assert_eq!(tag.powered, reference.on[i], "{case}");
        assert_eq!(tag.inventoried, reference.inventoried[i], "{case}");
        assert_eq!(tag.ever_read, reference.ever_read[i], "{case}");
        assert_eq!(tag.power_cycles, reference.power_cycles[i], "{case}");
        assert_eq!(
            tag.active_secs.to_bits(),
            reference.active_s[i].to_bits(),
            "{case}"
        );
    }
    assert_eq!(sim.reader().stats(), reference.reader.stats(), "{cell}");
    assert_eq!(sim.now(), reference.now, "{cell}");
    reference.power_cycles.iter().map(|&c| u64::from(c)).sum()
}

#[test]
fn fleet_10k_first_and_last_cells_match_the_countdown_fleet() {
    let last = cells_for(10_000) - 1;
    assert_eq!(last * CELL_SIZE, 9_375);
    for trial in [0, last] {
        bench_cell_matches(10_000, SimTime::from_ms(500), 42, trial);
    }
}

#[test]
fn brown_out_fleet_matches_the_countdown_fleet() {
    let power_cycles: u64 = (0..cells_for(1_000))
        .map(|trial| bench_cell_matches(1_000, SimTime::from_secs(2), 42, trial))
        .sum();
    // The golden manifest's `power_cycles_1000`: brown-outs and the
    // turn-ons after them run through both fleets' exact paths.
    assert_eq!(power_cycles, 47);
}

#[test]
fn other_seed_matches_the_countdown_fleet() {
    bench_cell_matches(10_000, SimTime::from_ms(500), 7, 3);
}

#[test]
fn brown_out_storm_matches_the_countdown_fleet() {
    // A listening load of 2 mA pulls the loaded asymptote 3 V below
    // `v_oc`, under `v_off` for every tag past about 0.67 m: those tags
    // turn on, listen, brown out and recharge every few tens of
    // milliseconds, mid-round, while they wait in a slot list. Opening
    // their slot must skip them.
    let mut config = FleetConfig::standard(400);
    config.tag.i_listen = 2.0e-3;
    config.duration = SimTime::from_secs(1);
    let power_cycles = cell_matches(config, 0, 400, 11, "brown-out storm");
    assert!(power_cycles > 1_000, "{power_cycles} brown-outs");
}
