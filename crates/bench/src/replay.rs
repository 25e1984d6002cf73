//! The `replay` experiment: record the paper's flagship runs, replay
//! them with divergence assertions, and prove the recordings are
//! byte-stable.
//!
//! Two recordings anchor the time-travel layer to the paper's
//! evaluation:
//!
//! 1. **Figure 7, session-level** — the linked-list app's
//!    intermittence-aware assert on harvested power, driven through the
//!    [`edb_core::SessionSpec`] surface (wait for the assert session,
//!    read the broken data structure, advance under the keep-alive
//!    tether). Harvester worlds snapshot in full, so replay compares
//!    architectural state, memory images, and the energy trajectory
//!    bit-for-bit at every boundary.
//! 2. **A 100-tag fleet run** — the Gen2 inventory simulation, recorded
//!    digest-only into the same `EDBR` container: a state digest (Gen2
//!    counters plus every tag's capacitor-voltage bits) every
//!    `stride` slots. Replay re-runs the fleet from its embedded config
//!    and asserts every digest.
//!
//! Both recordings must verify divergence-free on any number of
//! threads, and two record passes of the same seed must serialize to
//! identical bytes — the `replay-smoke` CI job holds the tree to that.

use crate::Report;
use edb_apps::linked_list as ll;
use edb_core::fleet::{FleetConfig, FleetSim};
use edb_core::{
    replay as session_replay, DebugRequest, Firmware, HarvesterSpec, SessionSpec, WorldSpec,
};
use edb_energy::SimTime;
use edb_replay::{digest, Entry, Recording};
use serde::{Serialize, Value};

use crate::runner::{ExperimentSpec, Runner};

/// The suite entry for this experiment.
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "replay",
    title: "Record/replay: fig7 + 100-tag fleet, divergence-checked",
    run: run_spec,
};

fn run_spec(_runner: &Runner) -> Report {
    run(100, 400, 1, None)
}

/// The rebuildable spec of the session-level Figure 7 scenario: the
/// instrumented linked-list app on the standard harvested supply.
pub fn fig7_spec() -> SessionSpec {
    SessionSpec {
        world: WorldSpec::Harvester {
            spec: HarvesterSpec::harvested(1),
        },
        seed: 1,
        // The app carries its own runtime: flash the raw image.
        firmware: Some(Firmware {
            source: ll::source(ll::Variant::Assert),
            wrap: false,
        }),
        ..SessionSpec::bench("")
    }
}

/// Records the Figure 7 session: run until the assert opens a session,
/// inspect the stale tail pointer interactively, and let the keep-alive
/// tether hold the target for 30 ms.
pub fn record_fig7(stride: u64) -> Recording {
    let mut s = fig7_spec().record(stride).expect("fig7 spec builds");
    let caught = s.run_until_session(SimTime::from_secs(60));
    assert!(caught, "the assert must catch the inconsistency");
    let _ = s.perform(DebugRequest::ReadWord { addr: ll::TAILP });
    let _ = s.perform(DebugRequest::ReadWord {
        addr: ll::HEAD + ll::NODE_NEXT,
    });
    let _ = s.perform(DebugRequest::GetPc);
    s.advance(SimTime::from_ms(30));
    s.stop_recording().expect("was recording")
}

/// One fleet state digest: the merged Gen2 counters plus every tag's
/// capacitor-voltage bit pattern and powered flag — the energy
/// trajectory of the whole fleet at this instant.
fn fleet_digest(sim: &FleetSim) -> u64 {
    let stats = sim.stats();
    let mut tags = Vec::with_capacity(stats.tags as usize);
    for k in 0..stats.tags as usize {
        let t = sim.tag_status(k).expect("tag index in range");
        tags.push(Value::Seq(vec![
            Value::U64(t.v_cap.to_bits()),
            Value::Bool(t.powered),
        ]));
    }
    digest(&Value::Map(vec![
        (Value::Str("now_ns".into()), Value::U64(sim.now().as_ns())),
        (Value::Str("stats".into()), stats.to_value()),
        (Value::Str("tags".into()), Value::Seq(tags)),
    ]))
}

/// Records a fleet inventory run: `slots` Gen2 slots over `tags` tags,
/// with a digest boundary every `stride` slots. The config is embedded
/// so [`verify_fleet`] can re-run it from nothing but the recording.
pub fn record_fleet(tags: usize, seed: u64, slots: u64, stride: u64) -> Recording {
    let stride = stride.max(1);
    let mut sim = FleetSim::new(FleetConfig::standard(tags), seed);
    let mut entries = vec![Entry::Digest {
        now_ns: sim.now().as_ns(),
        digest: fleet_digest(&sim),
    }];
    for slot in 1..=slots {
        sim.step_slot();
        if slot % stride == 0 {
            entries.push(Entry::Digest {
                now_ns: sim.now().as_ns(),
                digest: fleet_digest(&sim),
            });
        }
    }
    let end = (sim.now().as_ns(), fleet_digest(&sim));
    Recording {
        spec: Some(Value::Map(vec![
            (Value::Str("kind".into()), Value::Str("fleet".into())),
            (Value::Str("tags".into()), Value::U64(tags as u64)),
            (Value::Str("seed".into()), Value::U64(seed)),
            (Value::Str("slots".into()), Value::U64(slots)),
        ])),
        stride,
        start_ns: 0,
        entries,
        end: Some(end),
    }
}

/// Re-runs a fleet recording from its embedded config and asserts every
/// digest boundary plus the End seal. Returns the number of digests
/// compared, or a description of the first divergence.
pub fn verify_fleet(recording: &Recording) -> Result<usize, String> {
    let spec = recording
        .spec
        .as_ref()
        .ok_or("fleet recording has no embedded config")?;
    let field = |name: &str| match spec.get_field(name) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("fleet config missing `{name}`")),
    };
    let tags = field("tags")? as usize;
    let seed = field("seed")?;
    let slots = field("slots")?;
    let stride = recording.stride.max(1);
    let mut sim = FleetSim::new(FleetConfig::standard(tags), seed);
    let mut digests = recording.entries.iter().filter_map(|e| match e {
        Entry::Digest { now_ns, digest } => Some((*now_ns, *digest)),
        _ => None,
    });
    let mut compared = 0;
    let mut check = |sim: &FleetSim, slot: u64| -> Result<(), String> {
        let Some((now_ns, digest)) = digests.next() else {
            return Err(format!("recording ran out of digests at slot {slot}"));
        };
        if sim.now().as_ns() != now_ns {
            return Err(format!(
                "slot {slot}: replay at {} ns, recording at {now_ns} ns",
                sim.now().as_ns()
            ));
        }
        let live = fleet_digest(sim);
        if live != digest {
            return Err(format!(
                "slot {slot}: fleet digest {live:#018x} != recorded {digest:#018x}"
            ));
        }
        compared += 1;
        Ok(())
    };
    check(&sim, 0)?;
    for slot in 1..=slots {
        sim.step_slot();
        if slot % stride == 0 {
            check(&sim, slot)?;
        }
    }
    let (end_ns, end_digest) = recording.end.ok_or("fleet recording has no End seal")?;
    if sim.now().as_ns() != end_ns || fleet_digest(&sim) != end_digest {
        return Err("fleet End seal diverged".to_string());
    }
    Ok(compared)
}

/// Runs the whole experiment: record both scenarios, verify each
/// divergence-free, and prove byte-stability across two record passes.
/// `threads` > 1 verifies concurrently (each thread gets its own decoded
/// copy) to show thread count cannot perturb replay. With `out` set, the
/// raw `.edbr` recordings land there so CI can attach them to a failure.
pub fn run(tags: usize, slots: u64, threads: usize, out: Option<&std::path::Path>) -> Report {
    let mut report = Report::new("Record/replay: fig7 + 100-tag fleet, divergence-checked");

    let fig7 = record_fig7(4);
    let fig7_bytes = fig7.to_bytes();
    report.line(format!(
        "fig7 session recorded: {} op(s), {} full snapshot(s), {} bytes",
        fig7.op_count(),
        fig7.snapshot_count(),
        fig7_bytes.len()
    ));
    let fig7_again = record_fig7(4).to_bytes();
    let fig7_stable = fig7_bytes == fig7_again;
    report.line(format!(
        "fig7 byte-stability across two record passes: {}",
        if fig7_stable { "identical" } else { "DIVERGED" }
    ));

    let fleet = record_fleet(tags, 42, slots, 25);
    let fleet_bytes = fleet.to_bytes();
    report.line(format!(
        "{tags}-tag fleet recorded: {slots} slots, {} digest boundaries, {} bytes",
        fleet.entries.len(),
        fleet_bytes.len()
    ));
    let fleet_again = record_fleet(tags, 42, slots, 25).to_bytes();
    let fleet_stable = fleet_bytes == fleet_again;
    report.line(format!(
        "fleet byte-stability across two record passes: {}",
        if fleet_stable {
            "identical"
        } else {
            "DIVERGED"
        }
    ));

    if let Some(dir) = out {
        if std::fs::create_dir_all(dir).is_ok() {
            for (name, rec) in [("fig7.edbr", &fig7), ("fleet.edbr", &fleet)] {
                let path = dir.join(name);
                match rec.save(&path) {
                    Ok(()) => report.line(format!("saved {}", path.display())),
                    Err(e) => report.line(format!("could not save {}: {e}", path.display())),
                }
            }
        }
    }

    // Verify on `threads` threads at once: replay state is rebuilt from
    // the recording alone, so concurrency cannot leak into the result.
    let mut divergences = 0usize;
    let mut ops = 0usize;
    let mut snapshots = 0usize;
    let mut fleet_digests = 0usize;
    let outcomes: Vec<(
        Result<session_replay::VerifyReport, String>,
        Result<usize, String>,
    )> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let fig7_bytes = &fig7_bytes;
                let fleet_bytes = &fleet_bytes;
                scope.spawn(move || {
                    let fig7 = Recording::from_bytes(fig7_bytes).expect("fig7 re-decodes");
                    let fleet = Recording::from_bytes(fleet_bytes).expect("fleet re-decodes");
                    (
                        session_replay::verify(&fig7).map_err(|e| e.to_string()),
                        verify_fleet(&fleet),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    for (k, (fig7_result, fleet_result)) in outcomes.iter().enumerate() {
        match fig7_result {
            Ok(r) => {
                ops = r.ops;
                snapshots = r.snapshots;
            }
            Err(e) => {
                divergences += 1;
                report.line(format!("thread {k}: fig7 replay DIVERGED: {e}"));
            }
        }
        match fleet_result {
            Ok(n) => fleet_digests = *n,
            Err(e) => {
                divergences += 1;
                report.line(format!("thread {k}: fleet replay DIVERGED: {e}"));
            }
        }
    }
    if divergences == 0 {
        report.line(format!(
            "replayed divergence-free on {threads} thread(s): fig7 {ops} op(s) / {snapshots} snapshot(s), fleet {fleet_digests} digest(s)"
        ));
    }

    report.metric("divergences", divergences as f64);
    report.metric("fig7_ops", ops as f64);
    report.metric("fig7_snapshots", snapshots as f64);
    report.metric("fleet_digests", fleet_digests as f64);
    report.metric("fig7_byte_stable", fig7_stable as u8 as f64);
    report.metric("fleet_byte_stable", fleet_stable as u8 as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_recording_verifies_and_tamper_is_caught() {
        let rec = record_fleet(12, 7, 60, 10);
        let n = verify_fleet(&rec).expect("verifies");
        assert_eq!(n, 7, "initial digest + one per 10 slots");
        let mut bad = rec.clone();
        if let Some(Entry::Digest { digest, .. }) = bad.entries.last_mut() {
            *digest ^= 1;
        }
        let err = verify_fleet(&bad).expect_err("tamper caught");
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn fleet_recording_is_byte_stable() {
        let a = record_fleet(10, 3, 40, 8).to_bytes();
        let b = record_fleet(10, 3, 40, 8).to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn fig7_session_records_and_verifies() {
        let rec = record_fig7(2);
        assert!(rec.op_count() >= 4);
        let report = session_replay::verify(&rec).expect("divergence-free");
        assert_eq!(report.ops, rec.op_count());
        assert!(report.snapshots >= 2);
    }
}
