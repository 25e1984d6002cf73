//! A 1-tag fleet must behave like a single tag.
//!
//! The fleet path re-implements tag electricals (closed-form RC spans
//! over struct-of-arrays state) and inventory (Gen2 Q-slot rounds)
//! for scale. These tests pin it to the single-tag world twice over:
//!
//! 1. a proptest holding `FleetSim { n_tags: 1 }` event-identical to
//!    [`single_tag_reference`], an independently written scalar
//!    simulation of the same spec (plain locals, no SoA, no `Fleet`),
//!    and bit-identical to it in the tag's final voltage, powered flag
//!    and powered seconds;
//! 2. a cadence test tying the Gen2 reader at a frozen `q` to the
//!    legacy single-tag [`Reader`]'s `CMD_QUERY` / `CMD_QUERYREP`
//!    round structure.

use edb_core::fleet::{single_tag_reference, FleetConfig, FleetSim};
use edb_energy::SimTime;
use edb_rfid::gen2::{Gen2Reader, Gen2Timing, QParams, SlotOutcome};
use edb_rfid::reader::{Reader, ReaderConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any seed, distance band, corruption level, and Q setting: the
    /// vectorized fleet and the scalar reference produce the same
    /// event stream, timestamp for timestamp.
    #[test]
    fn one_tag_fleet_matches_scalar_reference(
        seed in 0u64..u64::MAX,
        d in 0.3f64..2.0,
        ber in 0.0f64..5e-3,
        q0 in 0u8..4,
    ) {
        let mut cfg = FleetConfig::standard(1);
        cfg.d_min = d;
        cfg.d_max = d;
        cfg.jitter_m = 0.0;
        cfg.ber_ref = ber;
        cfg.q = QParams { q0, c: 0.35, q_min: 0, q_max: 15 };
        cfg.duration = SimTime::from_ms(400);
        cfg.record_events = true;

        let mut sim = FleetSim::new(cfg, seed);
        sim.run();
        let reference = single_tag_reference(cfg, seed);
        prop_assert_eq!(sim.events(), reference.events.as_slice());
        // Final state too, bit for bit: an ulp of drift in the voltage
        // or the powered time fails here even when no slot outcome moves.
        let tag = sim.tag_status(0).expect("one tag");
        prop_assert_eq!(tag.v_cap.to_bits(), reference.v_cap.to_bits());
        prop_assert_eq!(tag.powered, reference.powered);
        prop_assert_eq!(tag.active_secs.to_bits(), reference.active_secs.to_bits());
    }

    /// The scalar reference never emits a collision for one tag — the
    /// fleet can't either, by the equivalence above.
    #[test]
    fn one_tag_never_collides(seed in 0u64..u64::MAX) {
        let mut cfg = FleetConfig::standard(1);
        cfg.duration = SimTime::from_ms(300);
        cfg.record_events = true;
        let mut sim = FleetSim::new(cfg, seed);
        sim.run();
        for e in sim.events() {
            if let edb_core::FleetEvent::Slot { outcome, .. } = e {
                prop_assert_ne!(*outcome, SlotOutcome::Collision);
            }
        }
    }
}

/// The legacy paper-setup reader emits `CMD_QUERY` then
/// `reps_per_round = 3` `CMD_QUERYREP`s per round. The Gen2 reader
/// frozen at `q = 2` (4 slots: the Query carries the first) must put
/// the identical label cadence on the air.
#[test]
fn frozen_q2_matches_legacy_round_cadence() {
    // Legacy cadence, collected from the schedule-driven reader.
    let mut legacy = Reader::new(ReaderConfig::paper_setup());
    let mut legacy_labels = Vec::new();
    let mut t = SimTime::ZERO;
    while legacy_labels.len() < 12 {
        if let Some(event) = legacy.poll(t) {
            legacy_labels.push(event.command.label());
        }
        t = t.advance_ns(1_000_000);
    }

    // Gen2 cadence at frozen q = 2, all slots empty.
    let mut gen2 = Gen2Reader::new(Gen2Timing::dense_reader(), 0, QParams::frozen(2));
    let mut gen2_labels = Vec::new();
    while gen2_labels.len() < 12 {
        let (cmd, slots) = gen2.open_round();
        gen2_labels.push(cmd.label());
        for s in 0..slots {
            if s > 0 && gen2_labels.len() < 12 {
                gen2_labels.push(gen2.next_slot().label());
            }
            gen2.report_slot(SlotOutcome::Empty);
        }
    }

    assert_eq!(legacy_labels, gen2_labels);
    assert_eq!(
        legacy_labels,
        vec![
            "CMD_QUERY",
            "CMD_QUERYREP",
            "CMD_QUERYREP",
            "CMD_QUERYREP",
            "CMD_QUERY",
            "CMD_QUERYREP",
            "CMD_QUERYREP",
            "CMD_QUERYREP",
            "CMD_QUERY",
            "CMD_QUERYREP",
            "CMD_QUERYREP",
            "CMD_QUERYREP",
        ]
    );
}
