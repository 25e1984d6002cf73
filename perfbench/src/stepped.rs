//! `stepped`: the three cases that force one `System::step` per
//! quantum — the RFID firmware under reader power at 1 m (Figure 12's
//! setup), the checkpoint-suite apps under a `Differential` engine, and
//! `System::run_until` watching a memory word. The watch phase re-runs
//! harvest-span's Fibonacci guarded build on the same fade seed, so its
//! cost per instruction compares directly with `System::run_for`'s.

use crate::bench::{ms, ns_per_work, Budget, Metrics, Pass};
use crate::harvest;
use crate::trace::{SpanRec, Tracer};
use edb_apps::{fib, rfid_fw};
use edb_bench::ckpt::{self as suite, CkptApp};
use edb_bench::harness;
use edb_bench::runner::seed_for;
use edb_core::System;
use edb_device::DeviceConfig;
use edb_energy::SimTime;
use edb_mcu::Image;
use edb_rfid::ReaderConfig;
use edb_runtime::ckpt::{CkptConfig, StrategyKind};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "stepped";

/// Simulated RFID time per episode, milliseconds.
pub const RFID_MS: u64 = 250;

/// Simulated time per checkpoint app per episode, milliseconds.
pub const CKPT_MS: u64 = 250;

/// The assembled firmware.
pub struct Firmware {
    rfid: Image,
    ckpt: Vec<(&'static str, Image)>,
    fib: Image,
}

/// Set-up: assemble every image and stand up and flash one bench per
/// case.
pub fn setup() -> Firmware {
    let ckpt = suite::apps()
        .into_iter()
        .map(|CkptApp { name, source }| {
            let image = edb_mcu::asm::assemble(&source)
                .unwrap_or_else(|e| panic!("ckpt app `{name}` does not assemble: {e}"));
            (name, image)
        })
        .collect();
    let firmware = Firmware {
        rfid: rfid_fw::image(),
        ckpt,
        fib: harvest::fib_guarded(),
    };
    std::hint::black_box(rfid_bench(&firmware.rfid, 0));
    for (_, image) in &firmware.ckpt {
        std::hint::black_box(ckpt_bench(image, 0));
    }
    std::hint::black_box(harvest::bench(&firmware.fib, 0));
    firmware
}

/// Figure 12's bench: the RFID firmware powered by the reader at 1 m.
fn rfid_bench(image: &Image, channel_seed: u64) -> System {
    // The firmware idles polling the demodulator; an Impinj-like
    // inventory cadence of ~15 commands/s.
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
    let mut sys = System::builder(device)
        .rfid(1.0)
        .reader_config(reader)
        .seed(channel_seed)
        .build();
    sys.flash(image);
    sys
}

/// A checkpoint-suite app under the fading supply with a DiCA-style
/// differential engine attached.
fn ckpt_bench(image: &Image, fade_seed: u64) -> System {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harness::harvested(fade_seed))
        .with_checkpoint_strategy(
            CkptConfig::new(StrategyKind::Differential).interval(suite::INTERVAL),
        )
        .build();
    sys.flash(image);
    sys
}

/// Runs episodes until the budget ends.
pub fn pass(fw: &Firmware, seed: u64, budget: Budget, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut k = 0;
    while budget.more(k) {
        let t0 = Instant::now();
        let episode = tracer.episode("stepped.episode");
        let s = seed_for(seed, NAME, k as u64);
        let first = k == 0;

        let mut sys = {
            let _g = tracer.span("system.build");
            rfid_bench(&fw.rfid, s)
        };
        {
            let mut g = tracer.span("system.rfid");
            sys.run_for(SimTime::from_ms(RFID_MS));
            g.work(RFID_MS);
        }
        account_rfid(&mut pass, &sys, first);

        for (app, image) in &fw.ckpt {
            let mut sys = {
                let _g = tracer.span("system.build");
                ckpt_bench(image, s)
            };
            {
                let mut g = tracer.span("system.ckpt");
                sys.run_for(SimTime::from_ms(CKPT_MS));
                g.work(CKPT_MS);
            }
            account_ckpt(&mut pass, app, &sys, first);
        }

        let mut sys = {
            let _g = tracer.span("system.build");
            harvest::bench(&fw.fib, harvest::fade_seed(seed, k))
        };
        {
            let mut g = tracer.span("system.run_until");
            // The watched word is the guarded build's consistency-check
            // failure counter: the classic "stop when the bug shows".
            sys.run_until(SimTime::from_ms(harvest::SIM_MS), |s| {
                s.device().mem().peek_word(fib::VIOLATIONS) != 0
            });
            g.work(sys.device().total_instructions());
        }
        account_common(&mut pass, &sys);
        let ok = harvest::fib_list_ok(&sys);
        pass.gate
            .check(ok, || format!("{NAME}/watch: fib list is not Fibonacci"));
        if first {
            pass.gate.pin(
                format!("{NAME}.watch.instructions"),
                sys.device().total_instructions(),
            );
            pass.gate
                .pin(format!("{NAME}.watch.state_digest"), sys.state_digest());
        }

        drop(episode);
        pass.episode(ms(t0.elapsed()), budget);
        k += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

fn account_common(pass: &mut Pass, sys: &System) {
    pass.add("instructions", sys.device().total_instructions() as f64);
    pass.add("sim_s", sys.now().as_secs_f64());
}

fn account_rfid(pass: &mut Pass, sys: &System, first: bool) {
    account_common(pass, sys);
    let Some(reader) = sys.reader() else {
        pass.gate.check(false, || format!("{NAME}/rfid: no reader"));
        return;
    };
    let (sent, ok, corrupt) = (
        reader.commands_sent(),
        reader.replies_ok(),
        reader.replies_corrupt(),
    );
    pass.gate.check(ok + corrupt <= sent, || {
        format!("{NAME}/rfid: {ok} ok + {corrupt} corrupt replies > {sent} commands")
    });
    if first {
        pass.set("ep0.rfid.commands", sent as f64);
        pass.set("ep0.rfid.replies_ok", ok as f64);
        pass.set("ep0.rfid.replies_corrupt", corrupt as f64);
        let gate = &mut pass.gate;
        gate.pin(format!("{NAME}.rfid.commands"), sent);
        gate.pin(format!("{NAME}.rfid.replies_ok"), ok);
        gate.pin(format!("{NAME}.rfid.replies_corrupt"), corrupt);
        gate.pin(
            format!("{NAME}.rfid.instructions"),
            sys.device().total_instructions(),
        );
        gate.pin(format!("{NAME}.rfid.state_digest"), sys.state_digest());
    }
}

fn account_ckpt(pass: &mut Pass, app: &str, sys: &System, first: bool) {
    account_common(pass, sys);
    let Some(engine) = sys.ckpt() else {
        pass.gate
            .check(false, || format!("{NAME}/{app}: no checkpoint engine"));
        return;
    };
    let stats = engine.stats();
    if first {
        pass.add("ep0.ckpt.commits", stats.commits as f64);
        pass.add("ep0.ckpt.bytes_written", stats.bytes_written as f64);
        pass.add("ep0.ckpt.restores", stats.restores as f64);
        let gate = &mut pass.gate;
        gate.pin(format!("{NAME}.{app}.commits"), stats.commits);
        gate.pin(format!("{NAME}.{app}.bytes_written"), stats.bytes_written);
        gate.pin(format!("{NAME}.{app}.restores"), stats.restores);
        gate.pin(format!("{NAME}.{app}.state_digest"), sys.state_digest());
    }
}

/// Per-layer metrics: rates from the untraced pass, counts from the
/// first episode, times from the traced pass's spans.
pub fn layers(untraced: &Pass, traced: &Pass, spans: &[SpanRec], out: &mut Metrics) {
    let secs = untraced.episode_secs();
    out.insert(
        "stepped.sim_mips",
        untraced.get("instructions") / secs / 1e6,
    );
    out.insert("stepped.sim_speed", untraced.get("sim_s") / secs);
    let run_until = ns_per_work(spans, "system.run_until");
    // harvest-span runs first in a traced run, so its figure is here.
    out.insert("system.run_until.ns_per_instr", run_until);
    if let Some(&run_for) = out.get("system.run_for.ns_per_instr") {
        out.insert("system.run_until.overhead_ratio", run_until / run_for);
    }
    out.insert(
        "system.rfid.ns_per_sim_ms",
        ns_per_work(spans, "system.rfid"),
    );
    out.insert(
        "system.ckpt.ns_per_sim_ms",
        ns_per_work(spans, "system.ckpt"),
    );
    for (metric, key) in [
        ("ckpt.commits", "ep0.ckpt.commits"),
        ("ckpt.bytes_written", "ep0.ckpt.bytes_written"),
        ("ckpt.restores", "ep0.ckpt.restores"),
        ("rfid.commands", "ep0.rfid.commands"),
        ("rfid.replies_ok", "ep0.rfid.replies_ok"),
        ("rfid.replies_corrupt", "ep0.rfid.replies_corrupt"),
    ] {
        out.insert(metric, traced.get(key));
    }
}
