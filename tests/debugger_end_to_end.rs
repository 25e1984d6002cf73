//! End-to-end integration tests of the debugger itself: every Table 1
//! primitive exercised against live intermittent targets.

use edb_suite::apps::{activity, linked_list as ll};
use edb_suite::core::{libedb, Console, DebugEvent, System};
use edb_suite::device::DeviceConfig;
use edb_suite::energy::{Fading, SimTime, TheveninSource};

fn harvested(seed: u64) -> Box<Fading<TheveninSource>> {
    Box::new(Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, seed))
}

#[test]
fn keep_alive_assert_preempts_the_crash_and_allows_diagnosis() {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(0))
        .build();
    sys.flash(&ll::image(ll::Variant::Assert));
    assert!(
        sys.run_until(SimTime::from_secs(30), |s| {
            s.edb().is_some_and(|e| e.session_active())
        }),
        "assert must fire"
    );
    // Keep-alive: the target rides the tether instead of browning out.
    let reboots_at_assert = sys.device().reboots();
    sys.run_for(SimTime::from_ms(50));
    assert!(sys.device().v_cap() > 2.6);
    assert_eq!(sys.device().reboots(), reboots_at_assert);
    // Live diagnosis through the real debug protocol.
    let tail = sys.read_word(ll::TAILP).expect("read");
    assert_eq!(tail, ll::HEAD, "tail points at the sentinel: the bug state");
    let tail_next = sys
        .read_word(tail.wrapping_add(ll::NODE_NEXT))
        .expect("read");
    assert_ne!(tail_next, 0, "the violated invariant is visible live");
    // And the device can even be repaired in place: restore the tail.
    sys.write_word(ll::TAILP, tail_next).expect("write");
    sys.write_word(tail_next.wrapping_add(ll::NODE_NEXT), 0)
        .expect("write");
    sys.resume().expect("session closes");
    let iters_now = sys.device().mem().peek_word(ll::ITER_COUNT);
    sys.run_for(SimTime::from_ms(100));
    assert!(
        sys.device().mem().peek_word(ll::ITER_COUNT) > iters_now,
        "the repaired app keeps running"
    );
}

#[test]
fn energy_breakpoint_fires_at_the_threshold() {
    let image = edb_suite::mcu::asm::assemble(&libedb::wrap_program(
        r#"
        .org 0x4400
        main:
            movi sp, 0x2400
            ei
        loop:
            add r0, 1
            jmp loop
        .org 0xFFFC
        .word __edb_isr
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("assembles");
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(2))
        .build();
    sys.flash(&image);
    sys.edb_mut().arm_energy_breakpoint(2.1);
    sys.charge_to(2.4).expect("charges");
    assert!(sys.wait_for_session(SimTime::from_secs(2)));
    // The session opened within the control error of the threshold.
    let v = sys.device().v_cap();
    assert!(
        (2.0..2.25).contains(&v),
        "session opened at {v} V, armed at 2.1 V"
    );
    sys.resume().expect("session closes");
    // After resume, execution continues and the breakpoint re-arms: it
    // fires again on the next pass through 2.1 V.
    sys.charge_to(2.4).expect("charges");
    assert!(
        sys.wait_for_session(SimTime::from_secs(2)),
        "re-armed and re-fired"
    );
}

#[test]
fn combined_breakpoint_respects_the_energy_condition() {
    let image = edb_suite::mcu::asm::assemble(&libedb::wrap_program(
        r#"
        .equ LAPS, 0x6000
        .org 0x4400
        main:
            movi sp, 0x2400
        loop:
            movi r1, LAPS
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            movi r0, 1
            call __edb_breakpoint
            jmp  loop
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("assembles");
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(3))
        .build();
    sys.flash(&image);
    // Enabled, but only below 2.0 V: iterations above that sail through.
    {
        let (edb, dev) = sys.edb_and_device().expect("attached");
        edb.enable_breakpoint(dev, 1, Some(2.0));
    }
    sys.charge_to(2.4).expect("charges");
    let hit = sys.run_until(SimTime::from_secs(2), |s| {
        s.edb().is_some_and(|e| e.session_active())
    });
    assert!(hit, "must trigger once energy droops below the condition");
    let v = sys.device().v_cap();
    assert!(v < 2.05, "triggered at {v} V, condition was 2.0 V");
    // Plenty of laps completed above the threshold before the hit.
    let laps = sys.device().mem().peek_word(0x6000);
    assert!(
        laps > 100,
        "breakpoint must not fire above the threshold ({laps} laps)"
    );
}

#[test]
fn edb_printf_reaches_the_host_intact() {
    let image = edb_suite::mcu::asm::assemble(&libedb::wrap_program(
        r#"
        .org 0x4400
        main:
            movi sp, 0x2400
            movi r0, msg
            call __edb_printf
            movi r0, 0xBEEF
            call __edb_print_hex16
        spin:
            jmp  spin
        msg: .asciz "hello intermittent world"
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("assembles");
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(4))
        .build();
    sys.flash(&image);
    let got = sys.run_until(SimTime::from_secs(2), |s| {
        s.edb().is_some_and(|e| e.log().printf_lines().len() >= 2)
    });
    assert!(got, "both lines must arrive");
    let edb = sys.edb().unwrap();
    let lines = edb.log().printf_lines();
    assert_eq!(lines[0], "hello intermittent world");
    assert_eq!(lines[1], "beef");
}

#[test]
fn console_drives_a_full_session() {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(0))
        .build();
    sys.flash(&ll::image(ll::Variant::Assert));
    let mut console = Console::new();
    console.execute("charge 2.4", &mut sys).expect("charge");
    assert!(sys.run_until(SimTime::from_secs(30), |s| {
        s.edb().is_some_and(|e| e.session_active())
    }));
    let out = console
        .execute(&format!("read {:#06x}", ll::TAILP), &mut sys)
        .expect("read");
    assert!(
        out.contains("0x6000"),
        "console showed the stale tail: {out}"
    );
    let out = console.execute("resume", &mut sys).expect("resume");
    assert!(out.contains("resumed"));
    let out = console.execute("status", &mut sys).expect("status");
    assert!(out.contains("session     : false"));
}

#[test]
fn watchpoints_stream_with_energy_snapshots() {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(5))
        .build();
    sys.flash(&activity::image(activity::Variant::NoPrint));
    sys.run_for(SimTime::from_secs(1));
    let edb = sys.edb().unwrap();
    let hits = edb.log().watchpoint_hits(activity::WP_ITER_START);
    assert!(hits.len() > 100, "steady watchpoint stream: {}", hits.len());
    for (_, v) in &hits {
        assert!(
            (1.7..2.6).contains(v),
            "energy snapshot {v} outside the operating band"
        );
    }
    // Snapshots span the operating band (the device really is cycling).
    let min = hits.iter().map(|h| h.1).fold(f64::INFINITY, f64::min);
    let max = hits.iter().map(|h| h.1).fold(0.0, f64::max);
    assert!(max - min > 0.3, "snapshots span {min:.2}..{max:.2} V");
}

#[test]
fn guard_exit_event_restores_close_to_entry_level() {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(6))
        .build();
    sys.flash(&activity::image(activity::Variant::EdbPrintf));
    sys.run_for(SimTime::from_secs(2));
    let edb = sys.edb().unwrap();
    let mut entries = Vec::new();
    let mut exits = Vec::new();
    for ev in edb.log().events() {
        match ev.event {
            DebugEvent::GuardEnter { saved_v } => entries.push(saved_v),
            DebugEvent::GuardExit { restored_v } => exits.push(restored_v),
            _ => {}
        }
    }
    assert!(entries.len() > 20, "many guard episodes: {}", entries.len());
    let n = entries.len().min(exits.len());
    let mean_err: f64 = entries
        .iter()
        .zip(&exits)
        .take(n)
        .map(|(s, r)| (r - s).abs())
        .sum::<f64>()
        / n as f64;
    assert!(
        mean_err < 0.02,
        "guard restore error {mean_err} V must stay within ~1 LSB-ish"
    );
}
