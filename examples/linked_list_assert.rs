//! §5.3.1 — "Detecting memory corruption early": the paper's linked-list
//! intermittence bug, diagnosed live with EDB's keep-alive assertion and
//! the interactive console.
//!
//! ```sh
//! cargo run --release --example linked_list_assert
//! ```

use edb_suite::apps::linked_list as ll;
use edb_suite::core::System;
use edb_suite::device::DeviceConfig;
use edb_suite::energy::{Fading, SimTime, TheveninSource};
use edb_suite::mcu::RESET_VECTOR;

fn harvested(seed: u64) -> Fading<TheveninSource> {
    Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, seed)
}

fn main() {
    println!("--- act 1: the release build fails mysteriously ---");
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(1))
        .build();
    sys.flash(&ll::image(ll::Variant::Plain));
    let bricked = sys.run_until(SimTime::from_secs(30), |s| {
        s.device().mem().peek_word(RESET_VECTOR) != 0x4400
    });
    assert!(bricked, "the intermittence bug always strikes eventually");
    println!(
        "after {} and {} reboots on harvested power, the app corrupted its own reset vector.",
        sys.now(),
        sys.device().reboots()
    );
    println!("the main loop will never run again; only a reflash recovers. why?\n");

    println!("--- act 2: the same code, with one EDB assert ---");
    println!("ASSERT(list->tail->next == NULL) at the top of remove():\n");
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harvested(1))
        .build();
    sys.flash(&ll::image(ll::Variant::Assert));
    let caught = sys.run_until(SimTime::from_secs(60), |s| {
        s.edb().is_some_and(|e| e.session_active())
    });
    assert!(caught);
    println!(
        "[{}] assert FAILED — EDB tethered the target before it could brown out",
        sys.now()
    );
    sys.run_for(SimTime::from_ms(20)); // let the tether settle
    println!(
        "target alive at {:.2} V on tethered power; volatile state intact\n",
        sys.device().v_cap()
    );

    println!("interactive session (reads go through the live debug protocol):");
    let tail = sys.read_word(ll::TAILP).expect("read");
    println!("  (edb) read TAILP          -> {tail:#06x}");
    let head_next = sys.read_word(ll::HEAD + ll::NODE_NEXT).expect("read");
    println!("  (edb) read HEAD.next      -> {head_next:#06x}");
    let tail_next = sys
        .read_word(tail.wrapping_add(ll::NODE_NEXT))
        .expect("read");
    println!("  (edb) read tail->next     -> {tail_next:#06x}");
    let e_prev = sys
        .read_word(head_next.wrapping_add(ll::NODE_PREV))
        .expect("read");
    println!("  (edb) read e->prev        -> {e_prev:#06x}");
    println!();
    println!(
        "diagnosis: tail points at the sentinel ({:#06x}) while the sentinel's",
        ll::HEAD
    );
    println!("next already points at node e ({head_next:#06x}) — append was interrupted between");
    println!("`list->tail->next = e` and `list->tail = e`. One more remove() would have");
    println!("dereferenced e->next == NULL and memset a wild pointer over the reset vector.");
    println!("the assert caught it first; the device is still recoverable.");
}
