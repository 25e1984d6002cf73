//! `fleet-10k`: the Gen2 fleet at 10⁴ tags in 625-tag reader cells,
//! fanned out over the experiment runner with at most `nproc` threads.
//! No interpreter, no snapshots: the bypass workload for every change
//! to the single-device stack.

use crate::bench::{durations_ns, ms, Budget, Metrics, Pass};
use crate::stats::median;
use crate::trace::{SpanRec, Tracer};
use edb_bench::fleet::{cells_for, CELL_SIZE};
use edb_bench::runner::{seed_for, Runner};
use edb_core::fleet::{FleetCellStats, FleetConfig, FleetSim};
use edb_energy::SimTime;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "fleet-10k";

/// Tags in the fleet.
pub const TAGS: usize = 10_000;

/// Runner threads: the host's parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Carrier time per cell, milliseconds. Shorter than the fleet
/// experiment's 2 s so a run holds enough episodes for a steady median.
pub const CARRIER_MS: u64 = 500;

/// The runner experiment name; cell seeds derive from it.
const EXPERIMENT: &str = "fleet/10000";

/// Set-up: create every cell of one fleet, with the seeds the runner
/// would give them. The cells are created on the calling thread, so the
/// set-up time is cell creation's own and not the runner's thread starts.
pub fn setup(seed: u64) -> FleetConfig {
    let config = FleetConfig {
        duration: SimTime::from_ms(CARRIER_MS),
        ..FleetConfig::standard(TAGS)
    };
    let cells: Vec<FleetSim> = (0..cells_for(TAGS))
        .map(|trial| {
            let base = trial * CELL_SIZE;
            let cell_seed = seed_for(seed, EXPERIMENT, trial as u64);
            FleetSim::new_cell(config, base, CELL_SIZE.min(TAGS - base), cell_seed)
        })
        .collect();
    std::hint::black_box(cells);
    config
}

/// Runs episodes (whole fleets) until the budget ends.
pub fn pass(config: &FleetConfig, seed: u64, budget: Budget, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut k = 0;
    while budget.more(k) {
        let t0 = Instant::now();
        let episode = tracer.episode("fleet.episode");
        let ep = episode.ctx();
        let runner = Runner::quiet(threads(), seed_for(seed, NAME, k as u64));
        let cells = runner.map_trials(EXPERIMENT, cells_for(TAGS), |ctx| {
            let mut g = tracer.span_under(ep, "fleet.cell");
            let base = ctx.trial * CELL_SIZE;
            let mut sim = FleetSim::new_cell(*config, base, CELL_SIZE.min(TAGS - base), ctx.seed);
            sim.run();
            g.work(1);
            (sim.stats(), edb_core::replay::fleet_digest(&sim))
        });
        let mut total = FleetCellStats::default();
        let mut digest = edb_replay::Fnv::new();
        for (stats, cell_digest) in &cells {
            total.merge(stats);
            digest.write(&cell_digest.to_le_bytes());
        }
        drop(episode);
        pass.episode_ms.push(ms(t0.elapsed()));
        if budget.referenced() {
            pass.between_episodes(threads());
        }
        account(&mut pass, &total, digest.finish(), k == 0);
        k += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

fn account(pass: &mut Pass, total: &FleetCellStats, digest: u64, first: bool) {
    pass.add("tag_cycles", total.tag_cycles);
    let tags = total.tags;
    let epcs = total.gen2.epcs_read;
    pass.gate.check(tags == TAGS as u64, || {
        format!("{NAME}: simulated {tags} tags, want {TAGS}")
    });
    pass.gate.check(epcs <= tags, || {
        format!("{NAME}: {epcs} EPCs read from {tags} tags")
    });
    let unique = total.unique_tags_read;
    pass.gate.check(unique <= tags, || {
        format!("{NAME}: {unique} distinct tags read out of {tags}")
    });
    if first {
        let slots = total.gen2.slots();
        pass.set("ep0.slots", slots as f64);
        pass.set("ep0.epcs", epcs as f64);
        pass.set(
            "ep0.collided_share",
            total.gen2.collision_slots as f64 / slots.max(1) as f64,
        );
        pass.set("ep0.power_cycles", total.power_cycles as f64);
        let gate = &mut pass.gate;
        gate.pin(format!("{NAME}.slots"), slots);
        gate.pin(format!("{NAME}.epcs"), epcs);
        gate.pin(
            format!("{NAME}.collision_slots"),
            total.gen2.collision_slots,
        );
        gate.pin(format!("{NAME}.power_cycles"), total.power_cycles);
        gate.pin(format!("{NAME}.state_digest"), digest);
    }
}

/// Per-layer metrics: throughput from the untraced pass, counts from
/// the first episode, cell times from the traced pass's spans.
pub fn layers(untraced: &Pass, traced: &Pass, spans: &[SpanRec], out: &mut Metrics) {
    out.insert(
        "fleet-10k.tag_cycles_per_s",
        untraced.get("tag_cycles") / untraced.episode_secs(),
    );
    let cells = durations_ns(spans, "fleet.cell");
    out.insert(
        "fleet.cell_ms",
        if cells.is_empty() {
            0.0
        } else {
            median(&cells) / 1e6
        },
    );
    out.insert("fleet.slots", traced.get("ep0.slots"));
    out.insert("fleet.epcs", traced.get("ep0.epcs"));
    out.insert("fleet.collided_share", traced.get("ep0.collided_share"));
    out.insert("fleet.power_cycles", traced.get("ep0.power_cycles"));
}
