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

use edb_core::replay::{self, Recording};
use edb_core::SessionSpec;
use edb_energy::SimTime;
use edb_fuzz::gen;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn restore_at_snapshot_then_forward_is_bit_identical(seed in 1u64..10_000) {
        let prog = gen::generate(seed);
        // Generated source is self-contained: flash the raw image.
        let mut spec = SessionSpec::harvested(&prog.render(), seed);
        if let Some(fw) = &mut spec.firmware {
            fw.wrap = false;
        }
        for stride in [1u64, 64, 4096] {
            check_restore(&spec, stride);
        }
    }
}
