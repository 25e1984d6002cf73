//! `harvest-span`: the Fibonacci app (guarded and release builds) and
//! the activity-recognition app under a fading harvester, EDB attached,
//! each driven by one `System::run_for` on the batched span path.
//!
//! One episode builds a fresh bench per app (empty decode cache, as in
//! a user's run) and simulates [`SIM_MS`] of each under the fade seed
//! of that episode.

use crate::bench::{ms, ns_per_work, Budget, Metrics, Pass};
use crate::trace::{SpanRec, Tracer};
use edb_apps::{activity, fib};
use edb_bench::harness;
use edb_bench::runner::seed_for;
use edb_core::System;
use edb_device::DeviceConfig;
use edb_energy::SimTime;
use edb_mcu::Image;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "harvest-span";

/// Simulated time per app per episode, milliseconds.
pub const SIM_MS: u64 = 300;

/// The assembled apps, by case name.
pub struct Apps {
    cases: Vec<(&'static str, Image)>,
}

/// Set-up: assemble the three apps and stand up and flash one bench
/// for each.
pub fn setup() -> Apps {
    let cases = vec![
        ("fib_guarded", fib::image(fib::Variant::Guarded)),
        ("fib_release", fib::image(fib::Variant::Release)),
        ("activity", activity::image(activity::Variant::EdbPrintf)),
    ];
    for (_, image) in &cases {
        std::hint::black_box(bench(image, 0));
    }
    Apps { cases }
}

/// The Fibonacci guarded build, for the stepped workload's watch phase.
pub fn fib_guarded() -> Image {
    fib::image(fib::Variant::Guarded)
}

/// A WISP-class bench under the harvested fading supply, `image`
/// flashed.
pub fn bench(image: &Image, fade_seed: u64) -> System {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harness::harvested(fade_seed))
        .build();
    sys.flash(image);
    sys
}

/// The fade seed of episode `k`; the stepped workload's watch phase
/// reuses it so both paths simulate the same trace.
pub fn fade_seed(seed: u64, k: usize) -> u64 {
    seed_for(seed, NAME, k as u64)
}

/// Checks that the values on the app's FRAM list, walked forward from
/// the head, follow the Fibonacci recurrence.
///
/// The walk ignores the tail pointer on purpose: the app publishes a
/// node with two separate stores (`tail->next`, then `tail`), so a run
/// that ends, or a brown-out that strikes, between them leaves the tail
/// pointer one node behind while every value stays correct.
pub fn fib_list_ok(sys: &System) -> bool {
    let mem = sys.device().mem();
    let mut values = Vec::new();
    let mut node = mem.peek_word(fib::HEADP);
    while node != 0 {
        if values.len() > usize::from(fib::POOL_END - fib::POOL) / 6 {
            return false; // a cycle
        }
        values.push(mem.peek_word(node.wrapping_add(fib::NODE_VALUE)));
        node = mem.peek_word(node.wrapping_add(fib::NODE_NEXT));
    }
    fib::is_fibonacci(&values)
}

/// Runs episodes until the budget ends.
pub fn pass(apps: &Apps, seed: u64, budget: Budget, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut k = 0;
    while budget.more(k) {
        let t0 = Instant::now();
        let episode = tracer.episode("harvest-span.episode");
        let fade = fade_seed(seed, k);
        for (case, image) in &apps.cases {
            let mut sys = {
                let _g = tracer.span("system.build");
                bench(image, fade)
            };
            {
                let mut g = tracer.span("system.run_for");
                sys.run_for(SimTime::from_ms(SIM_MS));
                g.work(sys.device().total_instructions());
            }
            account(&mut pass, case, &sys, k == 0);
        }
        drop(episode);
        pass.episode(ms(t0.elapsed()), budget);
        k += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

fn account(pass: &mut Pass, case: &str, sys: &System, first: bool) {
    let dev = sys.device();
    pass.add("instructions", dev.total_instructions() as f64);
    pass.add("sim_s", sys.now().as_secs_f64());
    if case != "activity" {
        let ok = fib_list_ok(sys);
        pass.gate
            .check(ok, || format!("{NAME}/{case}: fib list is not Fibonacci"));
    }
    if first {
        let (hits, misses) = dev.mem().decode_cache_stats();
        pass.add("ep0.instructions", dev.total_instructions() as f64);
        pass.add("ep0.decode_hits", hits as f64);
        pass.add("ep0.decode_misses", misses as f64);
        pass.add("ep0.power_cycles", dev.reboots() as f64);
        let gate = &mut pass.gate;
        gate.pin(
            format!("{NAME}.{case}.instructions"),
            dev.total_instructions(),
        );
        gate.pin(format!("{NAME}.{case}.power_cycles"), dev.reboots());
        gate.pin(format!("{NAME}.{case}.state_digest"), sys.state_digest());
        if case == "fib_guarded" {
            let guards = guard_episodes(sys);
            pass.set("ep0.guard_episodes", guards as f64);
            pass.gate
                .pin(format!("{NAME}.{case}.guard_episodes"), guards);
        }
    }
}

/// Energy-guard episodes EDB logged.
fn guard_episodes(sys: &System) -> u64 {
    sys.edb()
        .map_or(0, |e| e.log().with_tag("guard-enter").count() as u64)
}

/// Per-layer metrics: rates from the untraced pass, counts from the
/// first episode, times from the traced pass's spans.
pub fn layers(untraced: &Pass, traced: &Pass, spans: &[SpanRec], out: &mut Metrics) {
    let secs = untraced.episode_secs();
    out.insert(
        "harvest-span.sim_mips",
        untraced.get("instructions") / secs / 1e6,
    );
    out.insert("harvest-span.sim_speed", untraced.get("sim_s") / secs);
    let hits = traced.get("ep0.decode_hits");
    let misses = traced.get("ep0.decode_misses");
    out.insert("mcu.instructions", traced.get("ep0.instructions"));
    out.insert("mcu.decode_hit_rate", hits / (hits + misses).max(1.0));
    out.insert("mcu.decode_misses", misses);
    out.insert(
        "system.run_for.ns_per_instr",
        ns_per_work(spans, "system.run_for"),
    );
    out.insert("device.power_cycles", traced.get("ep0.power_cycles"));
    out.insert("edb.guard_episodes", traced.get("ep0.guard_episodes"));
}
