//! The `Value` tree `to_value` builds re-encodes to the streamed bytes.
//!
//! Tape snapshots, recordings and `System::state_digest` stream typed
//! state straight into `edb_replay`'s canonical-bytes and FNV sinks
//! through `Serialize::serialize`. Recordings on disk and restores from
//! them go through the `Value` tree, which `to_value` builds by
//! streaming the same `serialize` into serde's `TreeSink`. The tree must
//! re-encode to the streamed bytes, or a recording taken live would not
//! verify once reloaded. These tests hold every type reachable from a
//! bench snapshot, a session spec and a session op to that round trip.

use edb_replay::{digest, encode, value_bytes, Entry};
use edb_suite::apps::{activity, fib, linked_list, registry, rfid_fw};
use edb_suite::core::replay::{
    FleetOp, FleetSpec, FleetTape, HarvesterSpec, Recording, SessionOp, SessionSpec, WorldSpec,
};
use edb_suite::core::FleetConfig;
use edb_suite::core::{ChannelFaultConfig, DebugRequest, DebugSession, RequestId, System};
use edb_suite::device::DeviceConfig;
use edb_suite::energy::{Fading, Harvester, RfField, SimTime, SolarHarvester, TheveninSource};
use edb_suite::mcu::Image;
use edb_suite::runtime::ckpt::{CkptConfig, StrategyKind};
use serde::{Serialize, Value};
use std::path::Path;

/// Streaming bytes and digest of `x` equal those of `x.to_value()`.
fn assert_stream_matches_tree<T: Serialize + ?Sized>(x: &T, what: &str) {
    let tree = value_bytes(&x.to_value());
    let mut streamed = Vec::new();
    encode(x, &mut streamed);
    if streamed != tree {
        let at = streamed
            .iter()
            .zip(&tree)
            .position(|(a, b)| a != b)
            .unwrap_or(streamed.len().min(tree.len()));
        panic!(
            "{what}: streamed encoding ({} bytes) differs from to_value ({} bytes) at byte {at}",
            streamed.len(),
            tree.len()
        );
    }
    assert_eq!(digest(x), digest(&x.to_value()), "{what}: streamed digest");
}

/// `System::state_digest` (streamed) equals the digest of the tree it
/// covers.
fn assert_state_digest_matches_tree(sys: &System, what: &str) {
    let tree = Value::Map(vec![
        (Value::Str("device".into()), sys.device().to_value()),
        (Value::Str("edb".into()), sys.edb().to_value()),
    ]);
    assert_eq!(sys.state_digest(), digest(&tree), "{what}: state_digest");
}

fn bundled_images() -> Vec<(String, Image)> {
    let mut images = Vec::new();
    for v in [
        linked_list::Variant::Plain,
        linked_list::Variant::Assert,
        linked_list::Variant::TaskAtomic,
    ] {
        images.push((format!("linked_list {v:?}"), linked_list::image(v)));
    }
    for v in [
        fib::Variant::Release,
        fib::Variant::Checked,
        fib::Variant::Guarded,
    ] {
        images.push((format!("fib {v:?}"), fib::image(v)));
    }
    for v in [
        activity::Variant::NoPrint,
        activity::Variant::UartPrintf,
        activity::Variant::EdbPrintf,
    ] {
        images.push((format!("activity {v:?}"), activity::image(v)));
    }
    images
}

#[test]
fn every_bundled_app_streams_like_its_tree() {
    let engines = [
        None,
        Some(StrategyKind::FullDump),
        Some(StrategyKind::Differential),
    ];
    for (name, image) in bundled_images() {
        for engine in engines {
            let mut builder = System::builder(DeviceConfig::wisp5()).harvester(Fading::new(
                TheveninSource::new(3.2, 1500.0),
                0.05,
                7,
            ));
            if let Some(kind) = engine {
                builder = builder.with_checkpoint_strategy(CkptConfig::new(kind));
            }
            let mut sys = builder.build();
            sys.flash(&image);
            // Fresh, mid-charge, and after several power cycles.
            for step_ms in [0, 15, 60] {
                sys.run_for(SimTime::from_ms(step_ms));
                let what = format!("{name}, engine {engine:?}, t = {:?}", sys.now());
                let state = sys.snapshot().expect("harvester benches snapshot");
                assert_stream_matches_tree(&state, &what);
                assert_state_digest_matches_tree(&sys, &what);
                let dirty_key = sys
                    .device()
                    .mem()
                    .to_value()
                    .get_field("dirty_sram")
                    .is_some();
                assert_eq!(
                    dirty_key,
                    engine == Some(StrategyKind::Differential),
                    "{what}: the dirty_sram key appears exactly under Differential"
                );
            }
        }
    }
}

#[test]
fn rfid_bench_digest_streams_like_its_tree() {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .rfid(1.0)
        .seed(3)
        .build();
    sys.flash(&rfid_fw::image());
    assert!(sys.snapshot().is_none(), "RFID benches are digest-only");
    for step_ms in [0, 40, 120] {
        sys.run_for(SimTime::from_ms(step_ms));
        let what = format!("rfid, t = {:?}", sys.now());
        assert_state_digest_matches_tree(&sys, &what);
        assert_stream_matches_tree(sys.device(), &what);
    }
}

fn every_session_spec() -> Vec<SessionSpec> {
    let app = linked_list::source(linked_list::Variant::Assert);
    let harvesters = [
        HarvesterSpec::Constant { amps: 1e-3 },
        HarvesterSpec::Thevenin {
            v_oc: 3.2,
            r_src: 1500.0,
        },
        HarvesterSpec::Solar {
            v_oc_peak: 3.0,
            r_src: 800.0,
            period_s: 0.5,
            seed: 4,
        },
        HarvesterSpec::harvested(9),
        HarvesterSpec::Trace {
            samples: vec![(SimTime::ZERO, 3.0), (SimTime::from_ms(5), -0.0)],
            r_src: 1000.0,
        },
    ];
    let mut specs: Vec<SessionSpec> = harvesters
        .into_iter()
        .map(|spec| SessionSpec {
            world: WorldSpec::Harvester { spec },
            ..SessionSpec::bench(&app)
        })
        .collect();
    specs.push(SessionSpec {
        world: WorldSpec::Rfid { distance_m: 1.5 },
        channel_fault: Some(ChannelFaultConfig::noisy(2)),
        firmware: None,
        ..SessionSpec::bench(&app)
    });
    for kind in StrategyKind::ALL {
        specs.push(SessionSpec::harvested(&app, 5).with_checkpoint_strategy(CkptConfig::new(kind)));
    }
    specs
}

fn every_session_op() -> Vec<SessionOp> {
    let requests = [
        DebugRequest::ReadWord { addr: 0x6000 },
        DebugRequest::WriteWord {
            addr: 0x6002,
            value: 0xBEEF,
        },
        DebugRequest::GetPc,
    ];
    let mut ops = vec![
        SessionOp::Advance { ns: 1_000_000 },
        SessionOp::Step { n: 3 },
        SessionOp::RunUntilSession {
            timeout_ns: u64::MAX,
        },
        SessionOp::Poll { id: RequestId(7) },
        SessionOp::Resume,
        SessionOp::ChargeTo { volts: 2.45 },
        SessionOp::DischargeTo { volts: 1.9 },
        SessionOp::SetBreakpoint {
            id: 2,
            energy: Some(2.2),
        },
        SessionOp::SetBreakpoint {
            id: 3,
            energy: None,
        },
        SessionOp::ClearBreakpoint { id: 2 },
        SessionOp::ArmEnergyGuard { volts: f64::NAN },
    ];
    for request in requests {
        ops.push(SessionOp::Perform { request });
        ops.push(SessionOp::Submit { request });
    }
    // Adding a variant breaks this match until the list above covers it.
    for op in &ops {
        match op {
            SessionOp::Advance { .. }
            | SessionOp::Step { .. }
            | SessionOp::RunUntilSession { .. }
            | SessionOp::Perform { .. }
            | SessionOp::Submit { .. }
            | SessionOp::Poll { .. }
            | SessionOp::Resume
            | SessionOp::ChargeTo { .. }
            | SessionOp::DischargeTo { .. }
            | SessionOp::SetBreakpoint { .. }
            | SessionOp::ClearBreakpoint { .. }
            | SessionOp::ArmEnergyGuard { .. } => {}
        }
    }
    ops
}

#[test]
fn session_specs_and_ops_stream_like_their_trees() {
    for spec in every_session_spec() {
        assert_stream_matches_tree(&spec, &format!("spec {:?}", spec.world));
    }
    for op in every_session_op() {
        assert_stream_matches_tree(&op, &format!("{op:?}"));
    }
}

/// A recording of a harvested `linked_list` run under a differential
/// checkpoint engine, exported from its live tape.
fn live_recording() -> Recording {
    let mut spec = SessionSpec::harvested(&linked_list::source(linked_list::Variant::Assert), 11)
        .with_checkpoint_strategy(CkptConfig::new(StrategyKind::Differential));
    // The app source already carries the libEDB runtime.
    if let Some(fw) = &mut spec.firmware {
        fw.wrap = false;
    }
    let mut session = spec.record(2).expect("spec builds");
    let _ = session.charge_to(2.45);
    session.advance(SimTime::from_ms(30));
    let _ = session.set_breakpoint(1, Some(2.1));
    session.advance(SimTime::from_ms(10));
    session.export_recording().expect("recording")
}

#[test]
fn live_tape_snapshots_match_their_reloaded_bytes() {
    // A recording exported from a live tape holds typed snapshots; the
    // same recording reloaded from its bytes holds decoded trees. Both
    // must encode and digest identically.
    let live = live_recording();
    assert!(live.snapshot_count() >= 2);
    let reloaded = Recording::from_bytes(&live.to_bytes()).expect("parses");
    assert_eq!(reloaded, live);
    assert_eq!(reloaded.to_bytes(), live.to_bytes());

    // The decoder's nesting limit leaves a wide margin over the deepest
    // trees recordings hold.
    let deepest = live
        .entries
        .iter()
        .map(|entry| match entry {
            Entry::Op { value, .. } => depth(value),
            Entry::Snapshot { state, .. } => depth(&state.to_value()),
            Entry::Digest { .. } => 0,
        })
        .chain(live.spec.iter().map(depth))
        .max()
        .unwrap_or(0);
    assert!(2 * deepest <= edb_replay::MAX_DEPTH, "depth {deepest}");
}

/// The live tape's count of `session`'s export equals the export's
/// counted length, its bytes and the file a path export writes, and its
/// op and snapshot counts.
fn assert_count_matches_export(session: &DebugSession, path: &Path, what: &str) {
    let (ops, snapshots, bytes) = session.count_export().expect("recording");
    let rec = session.export_recording().expect("recording");
    assert_eq!(bytes, rec.encoded_len(), "{what}: encoded_len");
    assert_eq!(bytes, rec.to_bytes().len(), "{what}: to_bytes");
    rec.save(path).expect("saves");
    let saved = std::fs::metadata(path).expect("saved").len();
    assert_eq!(saved, bytes as u64, "{what}: saved file");
    assert_eq!(ops, rec.op_count(), "{what}: ops");
    assert_eq!(snapshots, rec.snapshot_count(), "{what}: snapshots");
}

/// One export, four views: the counted length, the bytes in memory, the
/// bytes streamed to a writer and the file saved to disk agree, for
/// every kind of recording. The live tape's count agrees with them as
/// the tape grows and as time travel cuts it.
#[test]
fn every_export_view_agrees() {
    let live = live_recording();
    let decoded = Recording::from_bytes(&live.to_bytes()).expect("parses");
    let rfid = {
        let spec = SessionSpec {
            world: WorldSpec::Rfid { distance_m: 1.0 },
            firmware: None,
            ..SessionSpec::bench("")
        };
        let mut session = spec.record(3).expect("spec builds");
        session.advance(SimTime::from_ms(20));
        let _ = session.perform(DebugRequest::ReadWord { addr: 0x6000 });
        session.advance(SimTime::from_ms(5));
        session.export_recording().expect("recording")
    };
    assert_eq!(
        rfid.snapshot_count(),
        0,
        "RFID recordings hold digests only"
    );
    let fleet = {
        let spec = FleetSpec {
            config: FleetConfig::standard(40),
            seed: 3,
        };
        let mut sim = spec.build();
        let mut tape = FleetTape::new(spec, &sim);
        tape.run(&mut sim, FleetOp::RunMs(50));
        tape.run(&mut sim, FleetOp::RunSlots(30));
        tape.export(&sim)
    };
    let specless = {
        let mut spec = SessionSpec::bench(&linked_list::source(linked_list::Variant::Assert));
        // The app source already carries the libEDB runtime.
        if let Some(fw) = &mut spec.firmware {
            fw.wrap = false;
        }
        let mut session = spec.build().expect("spec builds");
        session.start_recording(None, 2);
        session.advance(SimTime::from_ms(15));
        session.export_recording().expect("recording")
    };
    assert!(specless.spec.is_none());

    let dir = std::env::temp_dir().join(format!("edb-export-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("counted.edbr");

    // The live count, through a debug episode on the `assert` app. A
    // stride of 4 puts snapshot boundaries inside the run of steps.
    let assert_app = registry::find("assert").expect("bundled");
    let spec = SessionSpec {
        firmware: Some(assert_app.firmware.clone()),
        seed: 7,
        world: WorldSpec::Harvester {
            spec: HarvesterSpec::Thevenin {
                v_oc: 3.2,
                r_src: 220.0,
            },
        },
        ..SessionSpec::bench("")
    };
    let mut session = spec.record(4).expect("spec builds");
    assert_count_matches_export(&session, &path, "after create");
    assert!(session.run_until_session(SimTime::from_ms(2000)));
    let _ = session.resume();
    session.run_until_session(SimTime::from_ms(45));
    assert_count_matches_export(&session, &path, "after run_until");
    let mut boundaries = 0;
    for k in 0..10 {
        let before = session.count_export().expect("recording").1;
        session.step();
        let (_, snapshots, _) = session.count_export().expect("recording");
        boundaries += usize::from(snapshots > before);
        assert_count_matches_export(&session, &path, &format!("step {k}"));
    }
    assert!(
        boundaries >= 2,
        "{boundaries} stride boundaries in 10 steps"
    );
    session.step_back(1000).expect("recording");
    assert_count_matches_export(&session, &path, "after step_back");
    session.goto_time(SimTime::from_ms(30)).expect("recording");
    assert_count_matches_export(&session, &path, "after goto_time");
    let stop = session.reverse_continue().expect("recording");
    assert!(stop.is_some(), "the boot assert is behind");
    assert_count_matches_export(&session, &path, "after reverse_continue");
    // New ops, unlike the ones cut, extend the cut tape past a stride
    // boundary.
    let _ = session.perform(DebugRequest::ReadWord { addr: 0x6000 });
    let _ = session.set_breakpoint(1, Some(2.0));
    let _ = session.resume();
    session.advance(SimTime::from_ms(1));
    assert_count_matches_export(&session, &path, "after new ops on the cut tape");
    let mut digests_only = SessionSpec {
        world: WorldSpec::Rfid { distance_m: 1.0 },
        ..spec.clone()
    }
    .record(3)
    .expect("spec builds");
    digests_only.advance(SimTime::from_ms(20));
    let _ = digests_only.perform(DebugRequest::ReadWord { addr: 0x6000 });
    assert_count_matches_export(&digests_only, &path, "rfid");
    assert_eq!(digests_only.count_export().map(|c| c.1), Some(0));
    let mut unrecorded = spec.build().expect("spec builds");
    unrecorded.advance(SimTime::from_ms(5));
    assert_eq!(unrecorded.count_export(), None);

    let kinds = [
        ("live tape", live),
        ("decoded", decoded),
        ("rfid", rfid),
        ("fleet", fleet),
        ("no spec", specless),
    ];
    for (what, rec) in &kinds {
        let bytes = rec.to_bytes();
        assert_eq!(rec.encoded_len(), bytes.len(), "{what}");
        let mut streamed = Vec::new();
        let written = rec
            .write_to(&mut streamed)
            .expect("a Vec takes every write");
        assert_eq!(written, bytes.len(), "{what}");
        assert!(streamed == bytes, "{what}: streamed bytes differ");
        let path = dir.join("export.edbr");
        rec.save(&path).expect("saves");
        assert!(
            std::fs::read(&path).expect("reads") == bytes,
            "{what}: file differs"
        );
        assert_eq!(
            &Recording::from_bytes(&bytes).expect("parses"),
            rec,
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Container nesting depth of a tree (a scalar is 0).
fn depth(v: &Value) -> usize {
    match v {
        Value::Seq(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Map(pairs) => {
            1 + pairs
                .iter()
                .map(|(k, v)| depth(k).max(depth(v)))
                .max()
                .unwrap_or(0)
        }
        _ => 0,
    }
}

/// Each stateful harvester's `save_state` keeps the bytes recordings
/// already hold: the run-state structs derive the map the hand-built
/// trees spelled out, field for field. The hex is the canonical
/// encoding of the same states before the codec was derived.
#[test]
fn harvester_run_states_keep_their_bytes() {
    let mut rf = RfField::paper_setup();
    rf.set_distance(2.5);
    rf.set_carrier(false);
    rf.set_modulating(true);
    let mut solar = SolarHarvester::new(3.0, 2000.0, 1.0, 9);
    let mut fading = Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, 4);
    let mut stack = Fading::new(SolarHarvester::new(3.0, 2000.0, 1.0, 9), 0.05, 4);
    for k in 0..500u64 {
        let t = SimTime::from_us(k * 37);
        solar.current_into(1.5, t, 1e-6);
        fading.current_into(1.5, t, 1e-6);
        stack.current_into(1.5, t, 1e-6);
    }
    let pins: [(&str, &mut dyn Harvester, &str); 4] = [
        ("RfField", &mut rf, RF_STATE),
        ("SolarHarvester", &mut solar, SOLAR_STATE),
        ("Fading<TheveninSource>", &mut fading, FADING_STATE),
        ("Fading<SolarHarvester>", &mut stack, STACK_STATE),
    ];
    for (what, harvester, pinned) in pins {
        let state = harvester.save_state();
        let hex: String = value_bytes(&state)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, pinned, "{what}: encoded run state");
        harvester.load_state(&state).expect("own state loads");
        assert_eq!(harvester.save_state(), state, "{what}: round trip");
    }
}

const RF_STATE: &str = "0803000000060800000064697374616e6365050000000000000440060a000000636172726965725f6f6e01060a0000006d6f64756c6174696e6702";
const SOLAR_STATE: &str = "080300000006090000006f63636c7573696f6e0526f1273454a2da3f06150000006e6578745f6f63636c7573696f6e5f6368616e6765070100000003c0687804000000000603000000726e670363f374ca5961f832";
const FADING_STATE: &str = "08040000000606000000666163746f7205ad1ddfd98d07e83f060b0000006e6578745f75706461746507010000000320ff1b01000000000603000000726e6703326e59b2fc8b56360605000000696e6e657200";
const STACK_STATE: &str = "08040000000606000000666163746f7205ad1ddfd98d07e83f060b0000006e6578745f75706461746507010000000320ff1b01000000000603000000726e6703326e59b2fc8b56360605000000696e6e6572080300000006090000006f63636c7573696f6e0526f1273454a2da3f06150000006e6578745f6f63636c7573696f6e5f6368616e6765070100000003c0687804000000000603000000726e670363f374ca5961f832";
