//! §5.3.4 — "Debugging and tuning RFID applications": EDB monitors the
//! RF lines externally and correlates messages with the energy level.
//!
//! ```sh
//! cargo run --release --example rfid_monitor
//! ```

use edb_suite::apps::{registry, rfid_fw};
use edb_suite::core::DebugEvent;
use edb_suite::energy::SimTime;

fn main() {
    // The paper's bench: reader at 1 m, continuously inventorying; the
    // tag decodes queries in software and backscatters its EPC (the
    // registry's `rfid` app in its reader world).
    let mut sys = registry::find("rfid").expect("bundled app").system(7);
    sys.run_for(SimTime::from_secs(10));

    let edb = sys.edb().expect("attached");
    let (mut cmds, mut rsps, mut corrupt) = (0u32, 0u32, 0u32);
    for ev in edb.log().with_tag("rfid") {
        if let DebugEvent::Rfid {
            downlink, valid, ..
        } = ev.event
        {
            match (downlink, valid) {
                (true, true) => cmds += 1,
                (false, true) => rsps += 1,
                (_, false) => corrupt += 1,
            }
        }
    }
    println!("10 s at 1 m from the reader:");
    println!("  commands reaching the tag : {cmds} ({corrupt} corrupted in flight)");
    println!("  tag replies               : {rsps}");
    println!(
        "  response rate             : {:.0} %  (paper measured 86 %)",
        rsps as f64 / cmds.max(1) as f64 * 100.0
    );
    println!(
        "  replies per second        : {:.1}  (paper: ~13)",
        rsps as f64 / 10.0
    );
    let fw = rfid_fw::read_stats(sys.device().mem());
    println!(
        "  target's own decode tally : {} ok / {} crc-rejected",
        fw.decoded_ok, fw.decoded_bad
    );

    println!("\nmessage/energy timeline (one excerpt):");
    let from = SimTime::from_secs(3);
    let to = SimTime::from_ms(3600);
    let mut last_v = 0.0;
    for ev in edb.log().window(from, to) {
        match &ev.event {
            DebugEvent::EnergySample { v_cap, .. } => last_v = *v_cap,
            DebugEvent::Rfid {
                label, downlink, ..
            } => {
                let arrow = if *downlink { "->" } else { "<-" };
                println!(
                    "  {:>9.1} ms  {arrow} {label:<13} Vcap={last_v:.2} V",
                    ev.at.as_millis_f64()
                );
            }
            _ => {}
        }
    }
    println!("\nEDB decoded every frame on its own power — including any the tag");
    println!("slept through — which is what lets it separate corrupted-in-flight");
    println!("frames from frames the target failed to parse (§5.3.4).");
}
