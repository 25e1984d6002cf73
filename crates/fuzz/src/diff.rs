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
//! 3. **`system`** — the whole bench with EDB attached:
//!    `System::run_for` (batched `Device::run_span` spans) vs. a manual
//!    `step()` loop (one `Device::step` quantum each), both through
//!    `System`'s one observation flow, compared on energy, time,
//!    instruction and reboot counts, and the debugger's own observations.

use crate::gen::Program;
use edb_device::{Device, DeviceConfig, DeviceEvent};
use edb_energy::{Fading, Harvester, PulsedSource, SimTime, TheveninSource};
use edb_mcu::asm::assemble;
use edb_mcu::{Cpu, CpuState, Image, Memory, PortBus};
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

    /// Builds a fresh harvester instance for this scenario.
    pub fn build(&self) -> Box<dyn Harvester> {
        match *self {
            HarvesterSpec::Thevenin { v_oc, r_src } => Box::new(TheveninSource::new(v_oc, r_src)),
            HarvesterSpec::Fading { v_oc, r_src, seed } => {
                Box::new(Fading::new(TheveninSource::new(v_oc, r_src), 0.05, seed))
            }
            HarvesterSpec::Pulsed {
                v_oc,
                r_src,
                on_ms,
                off_ms,
            } => Box::new(PulsedSource::new(
                TheveninSource::new(v_oc, r_src),
                SimTime::from_ms(on_ms),
                SimTime::from_ms(off_ms),
            )),
        }
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
            dev.run_span(&mut *h, &mut |_| 0.0, cap)
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

/// Arm 3: the whole system with EDB attached — `run_for` (batched) vs.
/// a manual step loop.
pub fn diff_system(prog: &Program, seed: u64, sim_ms: u64) -> Option<Divergence> {
    use edb_core::System;
    let image = match assemble_program(prog) {
        Ok(i) => i,
        Err(d) => return Some(d),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E_57_E4);
    let spec = HarvesterSpec::draw(&mut rng);
    let v0 = rng.gen_range(2.0f64..2.6);
    let end = SimTime::from_ms(sim_ms);

    let build = || {
        let mut sys = System::builder(DeviceConfig::wisp5())
            .harvester(spec.build())
            .seed(seed)
            .build();
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

    let d = |what: &str, va: String, vb: String| {
        Divergence::new(
            "system",
            format!("run_for vs step loop: {what} diverged: {va} vs {vb}"),
        )
    };
    if a.device().v_cap().to_bits() != b.device().v_cap().to_bits() {
        return Some(d(
            "v_cap bits",
            format!("{:.9}", a.device().v_cap()),
            format!("{:.9}", b.device().v_cap()),
        ));
    }
    if a.now() != b.now() {
        return Some(d(
            "sim time",
            format!("{:?}", a.now()),
            format!("{:?}", b.now()),
        ));
    }
    if a.device().total_instructions() != b.device().total_instructions() {
        return Some(d(
            "instruction count",
            a.device().total_instructions().to_string(),
            b.device().total_instructions().to_string(),
        ));
    }
    if a.device().reboots() != b.device().reboots() {
        return Some(d(
            "reboots",
            a.device().reboots().to_string(),
            b.device().reboots().to_string(),
        ));
    }
    if a.device().turn_ons() != b.device().turn_ons() {
        return Some(d(
            "turn-ons",
            a.device().turn_ons().to_string(),
            b.device().turn_ons().to_string(),
        ));
    }
    let (ea, eb) = (
        a.edb().expect("edb attached"),
        b.edb().expect("edb attached"),
    );
    if ea.log().len() != eb.log().len() {
        return Some(d(
            "EDB event log length",
            ea.log().len().to_string(),
            eb.log().len().to_string(),
        ));
    }
    if ea.last_reading().to_bits() != eb.last_reading().to_bits() {
        return Some(d(
            "EDB ADC reading bits",
            format!("{}", ea.last_reading()),
            format!("{}", eb.last_reading()),
        ));
    }
    if ea.charge_delivered().to_bits() != eb.charge_delivered().to_bits() {
        return Some(d(
            "EDB charge delivered bits",
            format!("{}", ea.charge_delivered()),
            format!("{}", eb.charge_delivered()),
        ));
    }
    if a.device().mem().sram() != b.device().mem().sram()
        || a.device().mem().fram() != b.device().mem().fram()
    {
        return Some(d("final memory image", String::new(), String::new()));
    }
    None
}
