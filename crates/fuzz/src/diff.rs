//! The differential executor: one generated program, paired
//! configurations, bit-level comparison at every sync point.
//!
//! Three arms, ordered cheap-to-expensive:
//!
//! 1. **`mcu`** — bare `Cpu` + `Memory`, predecode cache on vs. off,
//!    lockstep per instruction with seeded power cycles in between.
//!    Architectural state is compared after *every* step, memory images
//!    and port logs periodically and at the end.
//! 2. **`device`** — a full [`edb_device::Device`] on a harvester:
//!    per-step integration vs. `run_span` batching, and per-step with
//!    the cache vs. per-step cold decode. Capacitor voltage is compared
//!    to the last bit, along with every wire-observable event.
//! 3. **`system`** — the whole bench with EDB attached, on a harvester,
//!    an RFID reader's carrier, or a harvester with a checkpoint engine
//!    of any strategy: `System::run_for` (batched spans of
//!    `Device::span_quantum` quanta) vs. a manual `step()` loop (one
//!    `Device::step` quantum each), and `System::run_until` on a random
//!    SRAM word vs. a step loop checking the same predicate, all
//!    through `System`'s one observation flow. Compared on energy, time, instruction and reboot
//!    counts, the debugger's own observations, memory images, the state
//!    digest, the reader's counters and the checkpoint statistics.

use crate::gen::Program;
use edb_core::SystemBuilder;
use edb_device::{Device, DeviceConfig, DeviceEvent, Horizon};
use edb_energy::{Fading, Harvester, PulsedSource, SimTime, TheveninSource};
use edb_mcu::asm::assemble;
use edb_mcu::{Cpu, CpuState, Image, Memory, PortBus};
use edb_runtime::ckpt::{CkptConfig, StrategyKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A confirmed mismatch between two configurations that must agree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which arm caught it (`mcu`, `device`, `system`, `fault`,
    /// `checkpoint`, `generator`).
    pub arm: &'static str,
    /// Human-readable description of the first mismatching observable.
    pub detail: String,
}

impl Divergence {
    pub(crate) fn new(arm: &'static str, detail: impl Into<String>) -> Self {
        Divergence {
            arm,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.arm, self.detail)
    }
}

/// The ambient-energy scenario a case runs under, derived from the case
/// seed. Paired executions each build their own instance with
/// [`HarvesterSpec::build`], which is guaranteed bit-equivalent.
#[derive(Debug, Clone, Copy)]
pub enum HarvesterSpec {
    /// Plain Thévenin source (sawtooth intermittence).
    Thevenin {
        /// Open-circuit voltage, volts.
        v_oc: f64,
        /// Source resistance, ohms.
        r_src: f64,
    },
    /// Thévenin source under seeded log-normal fading.
    Fading {
        /// Open-circuit voltage, volts.
        v_oc: f64,
        /// Source resistance, ohms.
        r_src: f64,
        /// Fading seed.
        seed: u64,
    },
    /// Thévenin source gated on/off on a fixed schedule.
    Pulsed {
        /// Open-circuit voltage, volts.
        v_oc: f64,
        /// Source resistance, ohms.
        r_src: f64,
        /// On-window, milliseconds.
        on_ms: u64,
        /// Off-window, milliseconds.
        off_ms: u64,
    },
}

impl HarvesterSpec {
    /// Draws a scenario from the case RNG.
    pub fn draw(rng: &mut SmallRng) -> Self {
        let v_oc = rng.gen_range(2.8f64..3.6);
        let r_src = rng.gen_range(1200.0f64..2200.0);
        match rng.gen_range(0u32..3) {
            0 => HarvesterSpec::Thevenin { v_oc, r_src },
            1 => HarvesterSpec::Fading {
                v_oc,
                r_src,
                seed: rng.gen(),
            },
            _ => HarvesterSpec::Pulsed {
                v_oc,
                r_src,
                on_ms: rng.gen_range(8u64..25),
                off_ms: rng.gen_range(4u64..15),
            },
        }
    }

    /// Builds a fresh harvester instance for this scenario, for the
    /// device-level arms that step a bare [`Device`].
    pub fn build(&self) -> Box<dyn Harvester> {
        match *self {
            HarvesterSpec::Thevenin { v_oc, r_src } => Box::new(TheveninSource::new(v_oc, r_src)),
            HarvesterSpec::Fading { v_oc, r_src, seed } => {
                Box::new(Self::fading(v_oc, r_src, seed))
            }
            HarvesterSpec::Pulsed {
                v_oc,
                r_src,
                on_ms,
                off_ms,
            } => Box::new(Self::pulsed(v_oc, r_src, on_ms, off_ms)),
        }
    }

    /// Powers `builder` from a fresh instance of this scenario, handing
    /// over the concrete type so the bench boxes it once.
    pub fn power(&self, builder: SystemBuilder) -> SystemBuilder {
        match *self {
            HarvesterSpec::Thevenin { v_oc, r_src } => {
                builder.harvester(TheveninSource::new(v_oc, r_src))
            }
            HarvesterSpec::Fading { v_oc, r_src, seed } => {
                builder.harvester(Self::fading(v_oc, r_src, seed))
            }
            HarvesterSpec::Pulsed {
                v_oc,
                r_src,
                on_ms,
                off_ms,
            } => builder.harvester(Self::pulsed(v_oc, r_src, on_ms, off_ms)),
        }
    }

    fn fading(v_oc: f64, r_src: f64, seed: u64) -> Fading<TheveninSource> {
        Fading::new(TheveninSource::new(v_oc, r_src), 0.05, seed)
    }

    fn pulsed(v_oc: f64, r_src: f64, on_ms: u64, off_ms: u64) -> PulsedSource<TheveninSource> {
        PulsedSource::new(
            TheveninSource::new(v_oc, r_src),
            SimTime::from_ms(on_ms),
            SimTime::from_ms(off_ms),
        )
    }
}

/// Assembles a program, reporting failure as a `generator` divergence
/// (the generator's contract is that everything it emits assembles).
pub fn assemble_program(prog: &Program) -> Result<Image, Divergence> {
    assemble(&prog.render()).map_err(|e| {
        Divergence::new(
            "generator",
            format!("generated program does not assemble: {e}"),
        )
    })
}

/// A deterministic scripted port bus for the bare-MCU arm: `in` returns
/// a mixed function of the port and call count, `out` is logged. Both
/// sides of a differential pair see identical streams.
#[derive(Debug, Default)]
struct ScriptedBus {
    reads: u64,
    log_hash: u64,
    log_len: u64,
}

impl ScriptedBus {
    fn absorb(&mut self, a: u64, b: u64) {
        let mut z = self
            .log_hash
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(a)
            .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z ^= z >> 29;
        self.log_hash = z;
        self.log_len += 1;
    }
}

impl PortBus for ScriptedBus {
    fn port_in(&mut self, port: u8) -> u16 {
        self.reads += 1;
        let mut z = (port as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(self.reads.wrapping_mul(0x94d0_49bb_1331_11eb));
        z ^= z >> 31;
        z as u16
    }

    fn port_out(&mut self, port: u8, value: u16) {
        self.absorb(port as u64, value as u64);
    }
}

fn flags_tuple(cpu: &Cpu) -> (bool, bool, bool, bool) {
    (cpu.flags.z, cpu.flags.n, cpu.flags.c, cpu.flags.v)
}

/// Arm 1: predecode cache vs. cold decode on the bare CPU, in lockstep,
/// across seeded power cycles.
pub fn diff_mcu(prog: &Program, seed: u64, steps: usize) -> Option<Divergence> {
    let image = match assemble_program(prog) {
        Ok(i) => i,
        Err(d) => return Some(d),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4D43_5543);
    let n_cuts = rng.gen_range(0u32..3);
    let mut cuts: Vec<usize> = (0..n_cuts)
        .map(|_| rng.gen_range(steps / 8..steps))
        .collect();
    cuts.sort_unstable();

    let mut mem_a = Memory::new();
    let mut mem_b = Memory::new();
    image.load_into(&mut mem_a);
    image.load_into(&mut mem_b);
    mem_b.set_decode_cache_enabled(false);
    let mut cpu_a = Cpu::new();
    let mut cpu_b = Cpu::new();
    cpu_a.reset(&mem_a);
    cpu_b.reset(&mem_b);
    let mut bus_a = ScriptedBus::default();
    let mut bus_b = ScriptedBus::default();

    let mismatch = |what: &str, i: usize, a: String, b: String| {
        Divergence::new(
            "mcu",
            format!("step {i}: {what} diverged: cached={a} cold={b}"),
        )
    };

    for i in 0..steps {
        if cuts.first() == Some(&i) {
            cuts.remove(0);
            mem_a.power_cycle();
            mem_b.power_cycle();
            cpu_a.reset(&mem_a);
            cpu_b.reset(&mem_b);
        }
        if !cpu_a.is_running() && !cpu_b.is_running() {
            break;
        }
        let oa = cpu_a.step(&mut mem_a, &mut bus_a);
        let ob = cpu_b.step(&mut mem_b, &mut bus_b);
        if oa.cycles != ob.cycles {
            return Some(mismatch(
                "cycle cost",
                i,
                oa.cycles.to_string(),
                ob.cycles.to_string(),
            ));
        }
        if cpu_a.pc != cpu_b.pc {
            return Some(mismatch(
                "pc",
                i,
                format!("{:#06x}", cpu_a.pc),
                format!("{:#06x}", cpu_b.pc),
            ));
        }
        if cpu_a.regs != cpu_b.regs {
            return Some(mismatch(
                "registers",
                i,
                format!("{:x?}", cpu_a.regs),
                format!("{:x?}", cpu_b.regs),
            ));
        }
        if flags_tuple(&cpu_a) != flags_tuple(&cpu_b) {
            return Some(mismatch(
                "flags",
                i,
                format!("{:?}", flags_tuple(&cpu_a)),
                format!("{:?}", flags_tuple(&cpu_b)),
            ));
        }
        if cpu_a.state() != cpu_b.state() {
            return Some(mismatch(
                "cpu state",
                i,
                format!("{:?}", cpu_a.state()),
                format!("{:?}", cpu_b.state()),
            ));
        }
        if mem_a.bus_faults() != mem_b.bus_faults() {
            return Some(mismatch(
                "bus faults",
                i,
                mem_a.bus_faults().to_string(),
                mem_b.bus_faults().to_string(),
            ));
        }
        if i % 64 == 63 && (mem_a.sram() != mem_b.sram() || mem_a.fram() != mem_b.fram()) {
            return Some(mismatch("memory image", i, String::new(), String::new()));
        }
    }

    if mem_a.sram() != mem_b.sram() {
        let at = mem_a
            .sram()
            .iter()
            .zip(mem_b.sram())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Some(Divergence::new(
            "mcu",
            format!("final SRAM image diverged at +{at:#x}"),
        ));
    }
    if mem_a.fram() != mem_b.fram() {
        let at = mem_a
            .fram()
            .iter()
            .zip(mem_b.fram())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Some(Divergence::new(
            "mcu",
            format!("final FRAM image diverged at +{at:#x}"),
        ));
    }
    if (bus_a.log_hash, bus_a.log_len) != (bus_b.log_hash, bus_b.log_len) {
        return Some(Divergence::new("mcu", "port output stream diverged"));
    }
    if matches!(cpu_a.state(), CpuState::Running) != matches!(cpu_b.state(), CpuState::Running) {
        return Some(Divergence::new("mcu", "final run state diverged"));
    }
    None
}

/// Everything a device-level execution leaves behind, for comparison.
struct DeviceTrace {
    dev: Device,
    events: Vec<DeviceEvent>,
}

fn flash_device(image: &Image, v0: f64, cache: bool) -> Device {
    let mut dev = Device::new(DeviceConfig::wisp5());
    dev.flash(image);
    dev.set_v_cap(v0);
    dev.set_decode_cache_enabled(cache);
    dev
}

fn run_device_stepped(
    image: &Image,
    spec: &HarvesterSpec,
    v0: f64,
    cache: bool,
    end: SimTime,
) -> DeviceTrace {
    let mut dev = flash_device(image, v0, cache);
    let mut h = spec.build();
    let mut events = Vec::new();
    while dev.now() < end {
        let step = dev.step(&mut *h, 0.0);
        events.extend(step.events);
    }
    DeviceTrace { dev, events }
}

fn run_device_spanned(image: &Image, spec: &HarvesterSpec, v0: f64, end: SimTime) -> DeviceTrace {
    let mut dev = flash_device(image, v0, true);
    let mut h = spec.build();
    let mut events = Vec::new();
    while dev.now() < end {
        let mut cap = end;
        if let Some(t) = dev.next_silent_deadline() {
            cap = cap.min(t);
        }
        let span = if cap > dev.now() {
            dev.run_span(&mut *h, &mut |_| 0.0, &Horizon::until(cap))
        } else {
            dev.step(&mut *h, 0.0)
        };
        events.extend(span.events);
    }
    DeviceTrace { dev, events }
}

fn compare_device_traces(pair: &str, a: &DeviceTrace, b: &DeviceTrace) -> Option<Divergence> {
    let d = |what: &str, va: String, vb: String| {
        Divergence::new("device", format!("{pair}: {what} diverged: {va} vs {vb}"))
    };
    if a.dev.v_cap().to_bits() != b.dev.v_cap().to_bits() {
        return Some(d(
            "v_cap bits",
            format!("{:.9}", a.dev.v_cap()),
            format!("{:.9}", b.dev.v_cap()),
        ));
    }
    if a.dev.now() != b.dev.now() {
        return Some(d(
            "sim time",
            format!("{:?}", a.dev.now()),
            format!("{:?}", b.dev.now()),
        ));
    }
    if a.dev.total_instructions() != b.dev.total_instructions() {
        return Some(d(
            "instruction count",
            a.dev.total_instructions().to_string(),
            b.dev.total_instructions().to_string(),
        ));
    }
    if a.dev.reboots() != b.dev.reboots() {
        return Some(d(
            "reboots",
            a.dev.reboots().to_string(),
            b.dev.reboots().to_string(),
        ));
    }
    if a.dev.turn_ons() != b.dev.turn_ons() {
        return Some(d(
            "turn-ons",
            a.dev.turn_ons().to_string(),
            b.dev.turn_ons().to_string(),
        ));
    }
    if a.events != b.events {
        let at = a
            .events
            .iter()
            .zip(&b.events)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.events.len().min(b.events.len()));
        return Some(d(
            "wire events",
            format!("{} events (first mismatch #{at})", a.events.len()),
            format!("{} events", b.events.len()),
        ));
    }
    if a.dev.peripherals.uart.sent() != b.dev.peripherals.uart.sent() {
        return Some(d("UART stream", String::new(), String::new()));
    }
    if a.dev.cpu().pc != b.dev.cpu().pc || a.dev.cpu().regs != b.dev.cpu().regs {
        return Some(d(
            "final cpu state",
            format!("pc={:#06x}", a.dev.cpu().pc),
            format!("pc={:#06x}", b.dev.cpu().pc),
        ));
    }
    if a.dev.mem().sram() != b.dev.mem().sram() || a.dev.mem().fram() != b.dev.mem().fram() {
        return Some(d("final memory image", String::new(), String::new()));
    }
    if a.dev.mem().bus_faults() != b.dev.mem().bus_faults() {
        return Some(d(
            "bus faults",
            a.dev.mem().bus_faults().to_string(),
            b.dev.mem().bus_faults().to_string(),
        ));
    }
    None
}

/// Arm 2: full device — per-step vs. span-batched integration, and
/// cached vs. cold decode — on a seeded harvesting scenario.
pub fn diff_device(prog: &Program, seed: u64, sim_ms: u64) -> Option<Divergence> {
    let image = match assemble_program(prog) {
        Ok(i) => i,
        Err(d) => return Some(d),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDE_71CE);
    let spec = HarvesterSpec::draw(&mut rng);
    let v0 = rng.gen_range(2.0f64..2.6);
    let end = SimTime::from_ms(sim_ms);

    let stepped = run_device_stepped(&image, &spec, v0, true, end);
    let spanned = run_device_spanned(&image, &spec, v0, end);
    if let Some(d) = compare_device_traces("stepped-vs-spanned", &stepped, &spanned) {
        return Some(d);
    }
    let cold = run_device_stepped(&image, &spec, v0, false, end);
    compare_device_traces("cached-vs-cold", &stepped, &cold)
}

/// The bench a `system` case runs on: one of the worlds whose
/// participants bound a batched span.
#[derive(Debug, Clone, Copy)]
enum SystemWorld {
    /// A plain harvester: the debugger, the device's silent deadlines
    /// and the recorder bound spans.
    Harvester(HarvesterSpec),
    /// An RFID reader's carrier: its transmission edges and in-flight
    /// frames bound spans too.
    Rfid {
        /// Reader-to-tag distance, metres.
        distance_m: f64,
    },
    /// A harvester with a checkpoint engine: its instruction triggers
    /// and knee threshold bound spans too.
    Checkpointed(HarvesterSpec, CkptConfig),
}

impl SystemWorld {
    /// Draws a world from the case RNG.
    fn draw(rng: &mut SmallRng) -> Self {
        let spec = HarvesterSpec::draw(rng);
        match rng.gen_range(0u32..3) {
            0 => SystemWorld::Harvester(spec),
            1 => SystemWorld::Rfid {
                distance_m: rng.gen_range(0.5f64..2.0),
            },
            _ => {
                let kind = StrategyKind::ALL[rng.gen_range(0..StrategyKind::ALL.len())];
                // Log-uniform: short intervals stage and commit often;
                // long ones leave the knee to commit emergency dumps.
                let interval = 1u64 << rng.gen_range(6u32..20);
                SystemWorld::Checkpointed(spec, CkptConfig::new(kind).interval(interval))
            }
        }
    }

    /// Builds a fresh bench in this world, EDB attached, the RFID
    /// channel seeded with `seed`.
    fn build(&self, seed: u64) -> edb_core::System {
        let builder = edb_core::System::builder(DeviceConfig::wisp5()).seed(seed);
        match *self {
            SystemWorld::Harvester(spec) => spec.power(builder),
            SystemWorld::Rfid { distance_m } => builder.rfid(distance_m),
            SystemWorld::Checkpointed(spec, config) => {
                spec.power(builder).with_checkpoint_strategy(config)
            }
        }
        .build()
    }
}

/// Arm 3: the whole system with EDB attached — `run_for` (batched) vs.
/// a manual step loop, and `run_until` vs. a manual step loop checking
/// the same predicate, on a harvester, RFID or checkpointed bench.
pub fn diff_system(prog: &Program, seed: u64, sim_ms: u64) -> Option<Divergence> {
    use edb_core::System;
    let image = match assemble_program(prog) {
        Ok(i) => i,
        Err(d) => return Some(d),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E_57_E4);
    let world = SystemWorld::draw(&mut rng);
    let v0 = rng.gen_range(2.0f64..2.6);
    let watched = rng.gen_range(edb_mcu::mem::SRAM_START..edb_mcu::mem::SRAM_END) & !1;
    let end = SimTime::from_ms(sim_ms);

    let build = || {
        let mut sys = world.build(seed);
        sys.flash(&image);
        sys.device_mut().set_v_cap(v0);
        sys
    };

    let mut a = build();
    while a.now() < end {
        a.step();
    }
    let mut b = build();
    b.run_for(end);
    if let Some(d) = compare_systems(&format!("run_for vs step loop ({world:?})"), &a, &b) {
        return Some(d);
    }

    // The watch: a random SRAM word leaving zero (or the stack top
    // being written, or nothing at all before the timeout).
    let pred = |s: &System| s.device().mem().peek_word(watched) != 0;
    let mut a = build();
    let mut a_fired = pred(&a);
    while !a_fired && a.now() < end {
        a.step();
        a_fired = pred(&a);
    }
    let mut b = build();
    let b_fired = b.run_until(end, pred);
    let what = format!("run_until({watched:#06x} != 0) vs step loop ({world:?})");
    if a_fired != b_fired {
        return Some(Divergence::new(
            "system",
            format!("{what}: fired diverged: {a_fired} vs {b_fired}"),
        ));
    }
    compare_systems(&what, &a, &b)
}

/// Compares two benches that must agree: energy, time, instruction and
/// power-cycle counts, the debugger's observations, memory images, the
/// state digest, the reader's counters and the checkpoint engine's
/// statistics.
fn compare_systems(what: &str, a: &edb_core::System, b: &edb_core::System) -> Option<Divergence> {
    let d = |field: &str, va: String, vb: String| {
        Some(Divergence::new(
            "system",
            format!("{what}: {field} diverged: {va} vs {vb}"),
        ))
    };
    let (da, db) = (a.device(), b.device());
    if da.v_cap().to_bits() != db.v_cap().to_bits() {
        return d(
            "v_cap bits",
            format!("{:.9}", da.v_cap()),
            format!("{:.9}", db.v_cap()),
        );
    }
    let counts = [
        ("sim time ns", a.now().as_ns(), b.now().as_ns()),
        (
            "instruction count",
            da.total_instructions(),
            db.total_instructions(),
        ),
        ("reboots", da.reboots(), db.reboots()),
        ("turn-ons", da.turn_ons(), db.turn_ons()),
    ];
    for (field, va, vb) in counts {
        if va != vb {
            return d(field, va.to_string(), vb.to_string());
        }
    }
    let (ea, eb) = (
        a.edb().expect("edb attached"),
        b.edb().expect("edb attached"),
    );
    if ea.log().len() != eb.log().len() {
        return d(
            "EDB event log length",
            ea.log().len().to_string(),
            eb.log().len().to_string(),
        );
    }
    if ea.last_reading().to_bits() != eb.last_reading().to_bits() {
        return d(
            "EDB ADC reading bits",
            ea.last_reading().to_string(),
            eb.last_reading().to_string(),
        );
    }
    if ea.charge_delivered().to_bits() != eb.charge_delivered().to_bits() {
        return d(
            "EDB charge delivered bits",
            ea.charge_delivered().to_string(),
            eb.charge_delivered().to_string(),
        );
    }
    if da.mem().sram() != db.mem().sram() || da.mem().fram() != db.mem().fram() {
        return d("final memory image", String::new(), String::new());
    }
    if a.state_digest() != b.state_digest() {
        return d(
            "state digest",
            format!("{:#018x}", a.state_digest()),
            format!("{:#018x}", b.state_digest()),
        );
    }
    let reader = |s: &edb_core::System| {
        s.reader()
            .map(|r| (r.commands_sent(), r.replies_ok(), r.replies_corrupt()))
    };
    if reader(a) != reader(b) {
        return d(
            "reader counters",
            format!("{:?}", reader(a)),
            format!("{:?}", reader(b)),
        );
    }
    let stats = |s: &edb_core::System| s.ckpt().map(|e| e.stats());
    if stats(a) != stats(b) {
        return d(
            "checkpoint stats",
            format!("{:?}", stats(a)),
            format!("{:?}", stats(b)),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_arm_draws_every_world_and_strategy() {
        let (mut harvester, mut rfid) = (0, 0);
        let mut kinds = Vec::new();
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            match SystemWorld::draw(&mut rng) {
                SystemWorld::Harvester(_) => harvester += 1,
                SystemWorld::Rfid { distance_m } => {
                    assert!((0.5..2.0).contains(&distance_m));
                    rfid += 1;
                }
                SystemWorld::Checkpointed(_, config) => {
                    if !kinds.contains(&config.strategy) {
                        kinds.push(config.strategy);
                    }
                }
            }
        }
        assert!(harvester > 0 && rfid > 0, "{harvester} {rfid}");
        assert_eq!(kinds.len(), StrategyKind::ALL.len(), "{kinds:?}");
    }
}
