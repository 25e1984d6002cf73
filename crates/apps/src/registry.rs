//! The one table of bundled target applications.
//!
//! Every frontend names its target from here: the `edb` binary's
//! `--app` and `--list` in all three modes (console, TUI, analyzer),
//! and the session server's `create {"firmware": NAME}`. An entry is a
//! name, a one-line description, the firmware as it rides in a
//! recording, and the world the console runs it in.
//!
//! The paper's applications come from their modules and carry the
//! `libEDB` runtime already (`wrap: false`). The small counting loops
//! below are bare programs the runtime is wrapped around at assembly
//! (`wrap: true`); their sources are embedded verbatim in every session
//! recording, so they must not change by a byte.

use crate::{activity, fib, linked_list, rfid_fw};
use edb_core::replay::Firmware;
use edb_core::System;
use edb_device::DeviceConfig;
use edb_energy::{Fading, SimTime, TheveninSource};
use edb_mcu::Image;
use edb_rfid::ReaderConfig;
use std::sync::OnceLock;

/// The energy world the console runs an app in. The session server
/// takes only an app's firmware: its world comes from the `create`
/// request, by default the stiff bench supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The stiff bench supply: 3.2 V behind 1.5 kΩ.
    Bench,
    /// The same source under seeded slow fading: the harvested supply.
    Harvested,
    /// A reader's carrier 1 m away on a brisk inventory schedule, with
    /// the RFID firmware's active current.
    Reader,
}

impl World {
    /// A fresh bench in this world, seeded with `seed`.
    pub fn system(self, seed: u64) -> System {
        match self {
            World::Bench => System::builder(DeviceConfig::wisp5())
                .seed(seed)
                .harvester(TheveninSource::new(3.2, 1500.0))
                .build(),
            World::Harvested => System::builder(DeviceConfig::wisp5())
                .harvester(Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, seed))
                .build(),
            World::Reader => {
                let device = DeviceConfig {
                    i_active: 0.95e-3,
                    ..DeviceConfig::wisp5()
                };
                let reader = ReaderConfig {
                    query_period: SimTime::from_ms(260),
                    rep_gap: SimTime::from_ms(65),
                    reps_per_round: 3,
                    ..ReaderConfig::paper_setup()
                };
                System::builder(device)
                    .rfid(1.0)
                    .reader_config(reader)
                    .seed(seed)
                    .build()
            }
        }
    }
}

/// A bundled target application.
#[derive(Debug)]
pub struct App {
    /// The name `--app` and `create` take.
    pub name: &'static str,
    /// One line for `--list`.
    pub about: &'static str,
    /// The program, as a session recording carries it.
    pub firmware: Firmware,
    /// Where the console runs it.
    pub world: World,
    /// The firmware, assembled on first use.
    image: OnceLock<Image>,
}

impl App {
    /// The assembled image. Each app is assembled once per process, the
    /// first time its image is asked for.
    pub fn image(&self) -> &Image {
        self.image
            .get_or_init(|| self.firmware.assemble().expect("bundled apps assemble"))
    }

    /// The app flashed on a fresh bench in its world.
    pub fn system(&self, seed: u64) -> System {
        let mut sys = self.world.system(seed);
        sys.flash(self.image());
        sys
    }
}

/// Every bundled app, in `--list` order.
pub fn apps() -> &'static [App] {
    use activity::Variant::{EdbPrintf, NoPrint};
    use fib::Variant::{Checked, Guarded, Release};
    use linked_list::Variant::{Assert, Plain, TaskAtomic};
    use World::{Bench, Harvested, Reader};
    static APPS: OnceLock<Vec<App>> = OnceLock::new();
    APPS.get_or_init(|| {
        // (name, description, world, source, whether assembly wraps the
        // source with the libEDB runtime)
        #[rustfmt::skip]
        let table = [
            ("spin", "a bare counting loop (the console's default)", Harvested, SPIN.into(), true),
            ("linked-list", "the Figure 6 intermittence bug, uninstrumented", Harvested, linked_list::source(Plain), false),
            ("linked-list-assert", "the same bug with the keep-alive assert", Harvested, linked_list::source(Assert), false),
            ("linked-list-atomic", "the DINO-style task-atomic fix", Harvested, linked_list::source(TaskAtomic), false),
            ("fib", "Fibonacci list, release build without the check", Harvested, fib::source(Release), false),
            ("fib-checked", "Fibonacci list with the O(n) consistency check", Harvested, fib::source(Checked), false),
            ("fib-guarded", "the same check inside energy guards", Harvested, fib::source(Guarded), false),
            ("activity", "activity recognition without debug output", Harvested, activity::source(NoPrint), false),
            ("activity-printf", "activity recognition with EDB printf", Harvested, activity::source(EdbPrintf), false),
            ("rfid", "the WISP RFID firmware under a reader (RF world)", Reader, rfid_fw::source(), false),
            ("assert", "asserts once at boot, then counts (the TUI's default)", Bench, ASSERT.into(), true),
            ("spin-volatile", "a counting loop that restarts at every boot", Bench, SPIN_VOLATILE.into(), true),
            ("guard", "that loop with each store inside an energy guard", Bench, GUARD.into(), true),
        ];
        table
            .into_iter()
            .map(|(name, about, world, source, wrap)| App {
                name,
                about,
                firmware: Firmware { source, wrap },
                world,
                image: OnceLock::new(),
            })
            .collect()
    })
}

/// The app called `name`.
pub fn find(name: &str) -> Option<&'static App> {
    apps().iter().find(|app| app.name == name)
}

/// `spin`: a bare counting loop over a FRAM counter, so the count
/// survives power failures.
const SPIN: &str = r#"
        .equ COUNTER, 0x6000
        .org 0x4400
        main:
            movi sp, 0x2400
            ei
        loop:
            movi r1, COUNTER
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            jmp  loop
        .org 0xFFFC
        .word __edb_isr
        .org 0xFFFE
        .word main
        "#;

/// `assert`: asserts ONCE at boot (so `wait_session_ms` catches an open
/// session), then — after the host resumes it — counts in FRAM,
/// pulsing watchpoint 2 every 256 iterations.
const ASSERT: &str = r#"
            .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, 0x6000
            movi r0, 0x1101
            st   [r1], r0
            movi r0, 1
            call __edb_assert_fail
        loop:
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            mov  r2, r0
            and  r2, 0xFF
            jnz  loop
            movi r0, 2
            call __edb_watchpoint
            jmp  loop
            .org 0xFFFC
            .word __edb_isr
            .org 0xFFFE
            .word main
            "#;

/// `spin-volatile`: counts in a register and stores each count to
/// FRAM, so the count restarts at every boot.
const SPIN_VOLATILE: &str = r#"
            .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, 0x6000
            movi r0, 0
        loop:
            add  r0, 1
            st   [r1], r0
            jmp  loop
            .org 0xFFFC
            .word __edb_isr
            .org 0xFFFE
            .word main
            "#;

/// `guard`: the `spin-volatile` loop with each store inside an energy
/// guard.
const GUARD: &str = r#"
            .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, 0x6000
            movi r0, 0
        loop:
            add  r0, 1
            push r0
            push r1
            call __edb_guard_begin
            pop  r1
            pop  r0
            st   [r1], r0
            push r0
            push r1
            call __edb_guard_end
            pop  r1
            pop  r0
            jmp  loop
            .org 0xFFFC
            .word __edb_isr
            .org 0xFFFE
            .word main
            "#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_app_assembles() {
        for app in apps() {
            let image = app.image();
            let fresh = app.firmware.assemble().expect("assembles");
            // Segments and symbols: the whole image.
            assert!(*image == fresh, "{}: the kept image differs", app.name);
            assert!(
                std::ptr::eq(image, app.image()),
                "{}: assembled twice",
                app.name
            );
        }
        assert_eq!(apps().len(), 13);
        let mut names: Vec<&str> = apps().iter().map(|app| app.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), apps().len(), "a name is listed twice");
        assert_eq!(find("rfid").map(|app| app.world), Some(World::Reader));
        assert!(find("nope").is_none());
    }
}
