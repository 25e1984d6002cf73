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
use edb_suite::apps::{activity, fib, linked_list, rfid_fw};
use edb_suite::core::replay::{HarvesterSpec, SessionOp, SessionSpec, WorldSpec};
use edb_suite::core::{ChannelFaultConfig, DebugRequest, RequestId, System};
use edb_suite::device::DeviceConfig;
use edb_suite::energy::{Fading, SimTime, TheveninSource};
use edb_suite::mcu::Image;
use edb_suite::runtime::ckpt::{CkptConfig, StrategyKind};
use serde::{Serialize, Value};

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

#[test]
fn live_tape_snapshots_match_their_reloaded_bytes() {
    // A recording exported from a live tape holds typed snapshots; the
    // same recording reloaded from its bytes holds decoded trees. Both
    // must encode and digest identically.
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
    let live = session.export_recording().expect("recording");
    assert!(live.snapshot_count() >= 2);
    let reloaded =
        edb_suite::core::replay::Recording::from_bytes(&live.to_bytes()).expect("parses");
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
