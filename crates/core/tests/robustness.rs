//! Robustness tests of the debugger crate: serialization of the event
//! log (scripting/export surface), console input fuzzing, and cross-
//! profile operation on a non-WISP target.

use edb_core::{libedb, Console, DebugEvent, Edb, EdbConfig, EventLog, System};
use edb_device::DeviceConfig;
use edb_energy::{Fading, SimTime, TheveninSource};
use edb_mcu::asm::assemble;
use proptest::prelude::*;

fn spin_system() -> System {
    let image = assemble(&libedb::wrap_program(
        r#"
        .org 0x4400
        main:
            movi sp, 0x2400
        loop:
            add r0, 1
            jmp loop
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("assembles");
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, 1))
        .build();
    sys.flash(&image);
    sys
}

#[test]
fn event_log_round_trips_through_json() {
    // The real EDB ships a Python scripting API fed by its event stream;
    // ours exports the same data as JSON.
    let mut sys = spin_system();
    sys.run_for(SimTime::from_ms(300));
    let log = sys.edb().expect("attached").log();
    assert!(log.len() > 100);
    let json = serde_json::to_string(log).expect("serializes");
    let back: EventLog = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.len(), log.len());
    for (i, (a, b)) in log.events().iter().zip(back.events()).enumerate() {
        assert_eq!(a, b, "first mismatch at event {i}");
    }
    // Spot-check one structured event survived.
    assert!(back
        .events()
        .iter()
        .any(|e| matches!(e.event, DebugEvent::EnergySample { .. })));
}

#[test]
fn edb_serves_a_non_wisp_target_profile() {
    // §4: "Our prototype hardware board can connect to any energy-
    // harvesting device with a microcontroller and a capacitor." A
    // solar-node-like profile: 100 µF store, higher thresholds, slower
    // clock.
    // Thresholds must sit below the charge circuit's ~3.1 V ceiling.
    let config = DeviceConfig {
        capacitance: 100e-6,
        v_on: 2.8,
        v_off: 2.2,
        clock_hz: 1e6,
        i_active: 1.5e-3,
        ..DeviceConfig::wisp5()
    };
    let image = assemble(&libedb::wrap_program(
        r#"
        .equ COUNT, 0x6000
        .org 0x4400
        main:
            movi sp, 0x2400
        loop:
            call __edb_guard_begin
            movi r2, 500
        burn:
            sub  r2, 1
            jnz  burn
            call __edb_guard_end
            movi r1, COUNT
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            jmp  loop
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("assembles");
    let mut sys = System::builder(config)
        .harvester(Fading::new(TheveninSource::new(3.8, 1500.0), 0.05, 4))
        .build();
    sys.flash(&image);
    // Charge below the turn-on threshold first (deterministic, no app
    // guard traffic), then let the strong solar source carry it up.
    let v = sys.charge_to(2.7).expect("charges");
    assert!(v >= 2.65, "charged a 100 µF store to {v}");
    sys.run_until(SimTime::from_secs(1), |s| s.device().powered());
    assert!(sys.device().powered());
    sys.run_for(SimTime::from_secs(2));
    assert!(
        sys.device().mem().peek_word(0x6000) > 20,
        "guarded app made progress on the solar profile"
    );
    let guards = sys.edb().unwrap().log().with_tag("guard-enter").count();
    assert!(guards > 20, "guards worked: {guards}");
}

#[test]
fn charge_delivery_accounting_tracks_the_tether() {
    let mut sys = spin_system();
    sys.charge_to(2.4).expect("charges");
    let before = sys.edb().unwrap().charge_delivered();
    // The harvester supplies much of the swing; EDB's circuit tops it
    // off — tens of microcoulombs at least.
    assert!(before > 1e-5, "charging delivered {before} C");
    // Further charging keeps accumulating.
    sys.discharge_to(2.0).expect("discharges");
    sys.charge_to(2.4).expect("charges");
    let after = sys.edb().unwrap().charge_delivered();
    assert!(
        after > before,
        "accounting accumulates: {after} vs {before}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Garbage console input never panics: it errors or produces output.
    #[test]
    fn console_is_total_on_garbage(
        cmd in "[a-z]{1,10}",
        arg1 in "[a-zA-Z0-9._-]{0,8}",
        arg2 in "[a-zA-Z0-9._-]{0,8}",
    ) {
        // Exclude the commands that legitimately advance simulation time
        // (they are slow, not unsafe).
        prop_assume!(!["run", "charge", "discharge"].contains(&cmd.as_str()));
        let mut sys = spin_system();
        let mut console = Console::new();
        let line = format!("{cmd} {arg1} {arg2}");
        let _ = console.execute(&line, &mut sys);
    }

    /// Any sequence of breakpoint/watchpoint management commands leaves
    /// the debugger consistent (and never panics).
    #[test]
    fn breakpoint_management_is_total(
        ops in prop::collection::vec((0u8..4, 0u8..16), 1..20)
    ) {
        let mut sys = spin_system();
        let mut console = Console::new();
        for (op, id) in ops {
            let line = match op {
                0 => format!("break en {id}"),
                1 => format!("break dis {id}"),
                2 => format!("watch en {id}"),
                _ => format!("watch dis {id}"),
            };
            console.execute(&line, &mut sys).expect("management commands succeed");
        }
    }
}

#[test]
fn custom_edb_config_is_respected() {
    let mut sys = spin_system();
    sys.attach_edb(Edb::new(EdbConfig {
        energy_trace: false,
        io_trace: false,
        ..EdbConfig::prototype()
    }));
    sys.run_for(SimTime::from_ms(200));
    let edb = sys.edb().unwrap();
    assert_eq!(edb.log().with_tag("energy").count(), 0, "tracing disabled");
    assert_eq!(edb.log().with_tag("gpio").count(), 0);
}
