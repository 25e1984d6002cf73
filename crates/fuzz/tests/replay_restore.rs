//! Property: restoring at a snapshot and running forward is
//! bit-identical to the straight-line run.
//!
//! `goto_time` is exactly "restore the nearest snapshot at or before
//! the target, then re-execute forward" — so driving a recorded session
//! to its end, time-travelling back to a mid-point, and advancing to
//! the end again must land in the same state, bit for bit, as never
//! having left. Programs come from the `edb-fuzz` generator (weighted
//! over addressing modes, self-modifying stores, wild pointers), and
//! the property must hold at snapshot strides 1 (every op), 64, and
//! 4096 (snapshots rarer than ops — the rebuild-from-spec path).
//!
//! A live tape's snapshots hold typed state and restore by cloning it;
//! a recording reloaded from its bytes restores from decoded trees.
//! Both restores must reach the same state.
//!
//! A live tape also keeps in-memory keyframes, and `goto_time` restores
//! the latest admissible one when it is later than the snapshot. That
//! shortcut must land where re-executing from the snapshot lands: the
//! same time, the same state digest and the same tape bytes, for targets
//! inside an `Advance` and a `RunUntilSession`, on keyframe instants, on
//! op start times and on the instant of zero-duration ops.

use edb_core::replay::{self, Recording, SessionOp};
use edb_core::{DebugSession, SessionSpec};
use edb_energy::SimTime;
use edb_fuzz::gen;
use edb_replay::Entry;
use proptest::prelude::*;
use serde::Deserialize;

/// The per-stride check: straight line vs rewind-and-replay.
fn check_restore(spec: &SessionSpec, stride: u64) {
    const STEPS: u64 = 8;
    // Straight line: 8 × 1 ms, one recorded op per advance.
    let mut a = spec.record(stride).expect("spec builds");
    for _ in 0..STEPS {
        a.advance(SimTime::from_ms(1));
    }
    let straight = a.system().state_digest();

    // Same drive, then back to 3 ms (restores a snapshot and runs
    // forward) and onward to the same end time.
    let mut b = spec.record(stride).expect("spec builds");
    for _ in 0..STEPS {
        b.advance(SimTime::from_ms(1));
    }
    b.goto_time(SimTime::from_ms(3)).expect("time travel");
    prop_assert_eq!(b.now().as_ns(), SimTime::from_ms(3).as_ns());
    b.advance(SimTime::from_ms(STEPS - 3));
    prop_assert_eq!(
        b.system().state_digest(),
        straight,
        "stride {}: restore-then-forward diverged from straight line",
        stride
    );

    // A recording that starts mid-run stands up at its leading snapshot:
    // restored from the typed snapshot in memory, and from the tree
    // decoded out of the recording's bytes.
    let mut c = spec.build().expect("spec builds");
    c.advance(SimTime::from_ms(3));
    c.start_recording(Some(spec), stride);
    for _ in 3..STEPS {
        c.advance(SimTime::from_ms(1));
    }
    let live = c.export_recording().expect("recording");
    let reloaded = Recording::from_bytes(&live.to_bytes()).expect("recording parses");
    let from_typed = replay::replay(&live).expect("replays from the typed snapshot");
    let from_bytes = replay::replay(&reloaded).expect("replays from the decoded snapshot");
    prop_assert_eq!(
        from_typed.system().state_digest(),
        from_bytes.system().state_digest(),
        "stride {}: typed and decoded restores diverged",
        stride
    );
    prop_assert_eq!(
        from_typed.system().state_digest(),
        c.system().state_digest()
    );
}

/// A session of stepping ops long enough to take keyframes inside them
/// (a 20 ms `RunUntilSession` that times out on firmware without the
/// `libEDB` runtime, a 14 ms `Advance`), zero-duration ops between them
/// (breakpoint edits, a zero-length advance that re-execution skips),
/// and single steps at the end.
fn keyframed_drive(spec: &SessionSpec, stride: u64) -> DebugSession {
    let mut s = spec.record(stride).expect("spec builds");
    s.advance(SimTime::from_ms(5));
    s.run_until_session(SimTime::from_ms(20));
    let _ = s.set_breakpoint(1, None);
    s.advance(SimTime::from_ms(14));
    s.advance(SimTime::ZERO);
    let _ = s.clear_breakpoint(1);
    s.advance(SimTime::from_ms(9));
    s.step();
    s.step();
    s
}

/// What a backward travel to `target_ns` gave before keyframes: a fresh
/// recording runs `rec`'s ops up to its latest snapshot at or before
/// the target whole, later ops begun before the target with the
/// stepping ops cut at it (skipped when cut to nothing), then advances
/// to the target.
fn reference_travel(
    spec: &SessionSpec,
    stride: u64,
    rec: &Recording,
    target_ns: u64,
) -> DebugSession {
    let snapshot = rec
        .entries
        .iter()
        .rposition(|e| matches!(e, Entry::Snapshot { now_ns, .. } if *now_ns <= target_ns))
        .expect("the tape starts with a snapshot");
    let mut s = spec.record(stride).expect("spec builds");
    for (i, entry) in rec.entries.iter().enumerate() {
        let Entry::Op { now_ns, value } = entry else {
            continue;
        };
        let op = SessionOp::from_value(value).expect("op decodes");
        if i < snapshot {
            op.apply(&mut s);
            continue;
        }
        if *now_ns >= target_ns {
            break;
        }
        let left = target_ns - s.now().as_ns();
        match op {
            SessionOp::Advance { ns } if ns.min(left) > 0 => {
                s.advance(SimTime::from_ns(ns.min(left)));
            }
            SessionOp::RunUntilSession { timeout_ns } if timeout_ns.min(left) > 0 => {
                s.run_until_session(SimTime::from_ns(timeout_ns.min(left)));
            }
            SessionOp::Advance { .. } | SessionOp::RunUntilSession { .. } => {}
            other => other.apply(&mut s),
        }
    }
    let short = target_ns.saturating_sub(s.now().as_ns());
    if short > 0 {
        s.advance(SimTime::from_ns(short));
    }
    s
}

/// The per-stride check: keyframe travel vs re-execution from the
/// snapshot, at every interesting target, latest first (each travel
/// starts from the tape the previous one cut).
fn check_keyframe_travel(spec: &SessionSpec, stride: u64) {
    let mut s = keyframed_drive(spec, stride);
    let end_ns = s.now().as_ns();
    let rec = s.export_recording().expect("recording");
    let starts: Vec<u64> = rec
        .entries
        .iter()
        .filter_map(|e| match e {
            Entry::Op { now_ns, .. } => Some(*now_ns),
            _ => None,
        })
        .chain([end_ns])
        .collect();
    let mut targets: Vec<u64> = s.keyframe_times().iter().map(|t| t.as_ns()).collect();
    prop_assert!(targets.len() >= 3, "stride {}: keyframes taken", stride);
    targets.extend(&starts);
    for pair in starts.windows(2) {
        targets.push(pair[0] + (pair[1] - pair[0]) / 3);
    }
    let cycle_ns = (1e9 / s.system().device().config().clock_hz).round() as u64;
    targets.push(end_ns - 1000 * cycle_ns);
    targets.retain(|&t| t < end_ns);
    targets.sort_unstable();
    targets.dedup();
    for &target_ns in targets.iter().rev() {
        let rec = s.export_recording().expect("recording");
        let landed = s
            .goto_time(SimTime::from_ns(target_ns))
            .expect("time travel");
        let reference = reference_travel(spec, stride, &rec, target_ns);
        prop_assert_eq!(
            landed,
            reference.now(),
            "stride {}, target {}",
            stride,
            target_ns
        );
        prop_assert_eq!(
            s.system().state_digest(),
            reference.system().state_digest(),
            "stride {}, target {}: state",
            stride,
            target_ns
        );
        let ours = s.export_recording().expect("recording").to_bytes();
        let theirs = reference.export_recording().expect("recording").to_bytes();
        prop_assert!(
            ours == theirs,
            "stride {}, target {}: tapes differ",
            stride,
            target_ns
        );
        prop_assert!(s.keyframe_times().iter().all(|&t| t <= landed));
    }
    let rec = s.stop_recording().expect("recording");
    prop_assert!(s.keyframe_times().is_empty());
    replay::verify(&rec).unwrap_or_else(|e| panic!("stride {stride}: {e}"));
}

/// A generated program's spec, flashed as a raw image.
fn generated_spec(seed: u64) -> SessionSpec {
    let prog = gen::generate(seed);
    // Generated source is self-contained: flash the raw image.
    let mut spec = SessionSpec::harvested(&prog.render(), seed);
    if let Some(fw) = &mut spec.firmware {
        fw.wrap = false;
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn restore_at_snapshot_then_forward_is_bit_identical(seed in 1u64..10_000) {
        let spec = generated_spec(seed);
        for stride in [1u64, 64, 4096] {
            check_restore(&spec, stride);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn keyframe_travel_equals_reexecution_from_the_snapshot(seed in 1u64..10_000) {
        let spec = generated_spec(seed);
        for stride in [1u64, 32, 4096] {
            check_keyframe_travel(&spec, stride);
        }
    }
}
