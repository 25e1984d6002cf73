//! The intermittent device: CPU + memory + power system + peripherals,
//! stepped with per-instruction energy integration.
//!
//! [`Device::step`] is the heart of the reproduction. Each call executes
//! at most one instruction, integrates exactly that instruction's worth
//! of charge out of the storage capacitor, and then lets the supervisor
//! decide whether the device browns out — so a power failure interrupts
//! software *between* any two instructions, the defining property of the
//! intermittent execution model the paper debugs.

use crate::accel::Accelerometer;
use crate::peripherals::{DebugLink, Gpio, SelfAdc, Timer, Uart};
use crate::ports;
use crate::rf_frontend::RfFrontend;
use edb_energy::{Capacitor, Harvester, Ldo, PowerEdge, SimTime, Supervisor};
use edb_mcu::{Cpu, CpuState, Fault, Image, Memory, PortBus};
use serde::{Deserialize, Serialize};

/// Electrical and timing parameters of the target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// CPU clock, hertz.
    pub clock_hz: f64,
    /// Storage capacitance, farads.
    pub capacitance: f64,
    /// Turn-on threshold, volts.
    pub v_on: f64,
    /// Brown-out threshold, volts.
    pub v_off: f64,
    /// Supply current with the CPU executing, amps. Calibrated so the
    /// 2.4 → 1.8 V discharge takes ~20 ms on 47 µF, matching the
    /// charge-discharge cadence of the paper's scope traces.
    pub i_active: f64,
    /// Supply current with the CPU halted but the rail up, amps.
    pub i_halted: f64,
    /// Leakage while the device is off, amps.
    pub i_off_leak: f64,
    /// Integration quantum while off or halted.
    pub idle_step: SimTime,
    /// Seed for the synthetic accelerometer.
    pub accel_seed: u64,
    /// GPIO lines allocated to the code-marker function; EDB can
    /// distinguish `2^n - 1` watchpoint IDs (§4.1.3).
    pub marker_lines: u8,
}

impl DeviceConfig {
    /// The WISP5-like defaults used throughout the reproduction.
    pub fn wisp5() -> Self {
        DeviceConfig {
            clock_hz: 4e6,
            capacitance: edb_energy::budget::WISP5_CAPACITANCE,
            v_on: edb_energy::budget::WISP5_V_ON,
            v_off: edb_energy::budget::WISP5_V_OFF,
            i_active: 2.2e-3,
            i_halted: 0.1e-3,
            i_off_leak: 1e-6,
            idle_step: SimTime::from_us(2),
            accel_seed: 0xACCE1,
            marker_lines: 2,
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::wisp5()
    }
}

/// The full peripheral complement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Peripherals {
    /// GPIO latch (LED + progress pins).
    pub gpio: Gpio,
    /// Target-powered user console UART.
    pub uart: Uart,
    /// Debug wiring to EDB.
    pub debug: DebugLink,
    /// Self-measurement ADC.
    pub adc: SelfAdc,
    /// Cycle timer.
    pub timer: Timer,
    /// Accelerometer.
    pub accel: Accelerometer,
    /// RFID front-end.
    pub rf: RfFrontend,
}

impl Peripherals {
    fn new(accel_seed: u64) -> Self {
        Peripherals {
            gpio: Gpio::new(),
            uart: Uart::new(),
            debug: DebugLink::new(),
            adc: SelfAdc::new(),
            timer: Timer::new(),
            accel: Accelerometer::new(accel_seed),
            rf: RfFrontend::new(),
        }
    }

    fn reset(&mut self) {
        self.gpio.reset();
        self.uart.reset();
        self.debug.reset();
        self.adc.reset();
        self.timer.reset();
        self.accel.reset();
        self.rf.reset();
    }
}

/// Something externally observable that happened during a step — these
/// are the "wires" EDB watches.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceEvent {
    /// The GPIO latch changed.
    GpioChange {
        /// Previous latch value.
        old: u16,
        /// New latch value.
        new: u16,
    },
    /// A code-marker pulse (watchpoint) with its ID.
    CodeMarker {
        /// Watchpoint identifier (1 ..= 2ⁿ−1 for n marker lines).
        id: u8,
    },
    /// The target raised a debug request on the signal port.
    DebugSignal {
        /// Raw signal word (see `edb-core`'s protocol encoding).
        value: u16,
    },
    /// A byte went out on the user UART.
    UartByte {
        /// The byte.
        byte: u8,
    },
    /// The target queued a byte to EDB on the debug UART.
    DbgUartByte {
        /// The byte.
        byte: u8,
    },
    /// An I²C accelerometer transaction completed.
    I2c(crate::accel::I2cTransaction),
    /// The tag backscattered a reply frame.
    RfTx(crate::rf_frontend::Backscatter),
    /// Firmware sampled its own supply voltage.
    AdcSelfSample {
        /// 12-bit conversion result.
        code: u16,
    },
    /// The CPU faulted (illegal instruction — e.g. vectored into garbage
    /// after non-volatile corruption).
    CpuFault(Fault),
}

/// The result of one [`Device::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStep {
    /// Simulated time consumed by this step.
    pub elapsed: SimTime,
    /// Wire-observable events, in order.
    pub events: Vec<DeviceEvent>,
    /// A power edge, if the supervisor tripped.
    pub power_edge: Option<PowerEdge>,
    /// The instruction that retired, if one did.
    pub retired: Option<edb_mcu::Instr>,
}

/// Where a batched span must end, besides the device's own breaks (port
/// traffic, events, power edges, the CPU leaving the running state).
/// Each participant of the bench contributes the event it schedules;
/// an extra break is always safe, a missing one is not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horizon {
    /// Run quanta while `now < deadline` (the last one may overshoot).
    pub deadline: SimTime,
    /// End on the quantum after which [`Device::total_instructions`]
    /// has reached this count with the CPU running.
    pub instructions: Option<u64>,
    /// End on the quantum after which the capacitor voltage, with the
    /// CPU running, sits on the other side of a threshold.
    pub v_cross: Option<VCross>,
}

impl Horizon {
    /// A horizon bounded only by `deadline`.
    pub fn until(deadline: SimTime) -> Self {
        Horizon {
            deadline,
            instructions: None,
            v_cross: None,
        }
    }
}

/// A voltage threshold a span must not cross unobserved: the span ends
/// on the quantum where `(v_cap >= v) != above`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VCross {
    /// The threshold, volts.
    pub v: f64,
    /// Which side of it the observer last saw.
    pub above: bool,
}

/// A batched span in progress: what [`Device::span_quantum`] accumulates
/// between quanta.
#[derive(Debug)]
pub struct Span {
    start: SimTime,
    events: Vec<DeviceEvent>,
    retired: Option<edb_mcu::Instr>,
    power_edge: Option<PowerEdge>,
    /// The load current, cached until a quantum may change it.
    i_load: Option<f64>,
}

impl Span {
    /// Opens a span at `now`.
    pub fn new(now: SimTime) -> Self {
        Span {
            start: now,
            events: Vec::new(),
            retired: None,
            power_edge: None,
            i_load: None,
        }
    }

    /// Closes the span at `now` into the [`DeviceStep`] it amounts to.
    pub fn finish(self, now: SimTime) -> DeviceStep {
        DeviceStep {
            elapsed: SimTime::from_ns(now.as_ns() - self.start.as_ns()),
            events: self.events,
            power_edge: self.power_edge,
            retired: self.retired,
        }
    }
}

/// The WISP-like intermittent target device.
///
/// # Example
///
/// Run a program on harvested power and observe intermittent reboots:
///
/// ```
/// use edb_device::{Device, DeviceConfig};
/// use edb_energy::TheveninSource;
/// use edb_mcu::asm::assemble;
///
/// let image = assemble(r#"
///     .org 0x4400
/// start:
///     add r0, 1
///     jmp start
///     .org 0xFFFE
///     .word start
/// "#)?;
/// let mut dev = Device::new(DeviceConfig::wisp5());
/// dev.flash(&image);
/// let mut rf = TheveninSource::new(3.2, 1500.0);
/// for _ in 0..4_000_000 {
///     dev.step(&mut rf, 0.0);
/// }
/// assert!(dev.reboots() >= 1, "the device must power-cycle");
/// # Ok::<(), edb_mcu::asm::AsmError>(())
/// ```
///
/// `Device` is `Clone`: exhaustive analyses snapshot a device and replay
/// it from every possible power-failure point (see `edb-apps`'s oracle).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    config: DeviceConfig,
    cpu: Cpu,
    mem: Memory,
    cap: Capacitor,
    supervisor: Supervisor,
    ldo: Ldo,
    /// The peripheral complement (public so the debugger can reach its
    /// ends of the wires).
    pub peripherals: Peripherals,
    now: SimTime,
    reboots: u64,
    turn_ons: u64,
    total_instructions: u64,
    i_load_last: f64,
    /// Nanoseconds per CPU cycle, hoisted out of the step loop
    /// (`config` is immutable after construction).
    cycle_ns: u64,
    /// Code-marker ID mask, likewise hoisted.
    marker_mask: u16,
}

impl Device {
    /// Creates an unpowered device with an empty flash.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            cpu: Cpu::new(),
            mem: Memory::new(),
            cap: Capacitor::new(config.capacitance),
            supervisor: Supervisor::new(config.v_on, config.v_off),
            ldo: Ldo::wisp5(),
            peripherals: Peripherals::new(config.accel_seed),
            now: SimTime::ZERO,
            reboots: 0,
            turn_ons: 0,
            total_instructions: 0,
            i_load_last: 0.0,
            cycle_ns: (1e9 / config.clock_hz).round() as u64,
            marker_mask: (1u16 << config.marker_lines.min(8)) - 1,
            config,
        }
    }

    /// "Reflash": writes the image into FRAM. Usable any time (the paper's
    /// recovery from bricking is exactly a reflash).
    pub fn flash(&mut self, image: &Image) {
        image.load_into(&mut self.mem);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Storage-capacitor voltage (ground truth — EDB must go through its
    /// ADC).
    pub fn v_cap(&self) -> f64 {
        self.cap.voltage()
    }

    /// Regulated logic-supply voltage (sags in dropout).
    pub fn v_reg(&self) -> f64 {
        self.ldo.output(self.cap.voltage())
    }

    /// Whether the supervisor says the device is powered.
    pub fn powered(&self) -> bool {
        self.supervisor.powered()
    }

    /// Count of brown-outs so far.
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Count of turn-ons so far.
    pub fn turn_ons(&self) -> u64 {
        self.turn_ons
    }

    /// Instructions retired across all power cycles.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// The load current drawn during the most recent step, amps.
    pub fn load_current(&self) -> f64 {
        self.i_load_last
    }

    /// The device configuration.
    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// Read-only CPU view.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU access — the host-side checkpoint engine restores
    /// architectural state through here (the paper's EDB writes a target's
    /// context back over the debug link; we reach into the simulated core
    /// directly, with the same zero energy cost to the target).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Read-only memory view (ground truth / debugger back-channel).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access — the debug protocol's `write` command and
    /// test fixtures go through here.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Enables or disables the predecode cache on the device's memory.
    ///
    /// The flag is sticky across power cycles (it is bench/test
    /// plumbing, not target state), which is what lets a differential
    /// harness run a cold-decode twin of an intermittent execution.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.mem.set_decode_cache_enabled(enabled);
    }

    /// Forces the capacitor voltage (test initial conditions; EDB's
    /// charge circuit uses currents through [`Device::step`]).
    pub fn set_v_cap(&mut self, volts: f64) {
        self.cap.set_voltage(volts);
    }

    /// Latches the external interrupt (EDB's energy-breakpoint line).
    pub fn raise_irq(&mut self) {
        self.cpu.raise_irq();
    }

    /// The storage capacitor (for energy arithmetic).
    pub fn capacitor(&self) -> &Capacitor {
        &self.cap
    }

    /// Advances the device by one instruction (or one idle quantum),
    /// integrating `i_external` amps (positive charges the capacitor —
    /// this is EDB's only electrical influence) along with harvest and
    /// load currents.
    pub fn step(&mut self, harvester: &mut dyn Harvester, i_external: f64) -> DeviceStep {
        let powered = self.supervisor.powered();
        let mut events = Vec::new();
        let mut retired = None;

        let dt_ns = if powered && self.cpu.is_running() {
            let outcome = {
                let mut bus = BusCtx {
                    peripherals: &mut self.peripherals,
                    events: &mut events,
                    now: self.now,
                    v_cap: self.cap.voltage(),
                    cycles: self.cpu.cycles,
                    marker_mask: self.marker_mask,
                    touched: false,
                };
                self.cpu.step(&mut self.mem, &mut bus)
            };
            retired = outcome.retired;
            if outcome.retired.is_some() {
                self.total_instructions += 1;
            }
            if let CpuState::Faulted(f) = self.cpu.state() {
                events.push(DeviceEvent::CpuFault(f));
            }
            (outcome.cycles.max(1) as u64) * self.cycle_ns
        } else {
            self.config.idle_step.as_ns()
        };
        let dt = dt_ns as f64 * 1e-9;

        let i_load = self.i_load_now(powered);
        self.i_load_last = i_load;
        edb_energy::integrate_quantum(&mut self.cap, harvester, i_external, i_load, self.now, dt);
        self.now = self.now.advance_ns(dt_ns);

        // Peripheral clocks that complete asynchronously.
        if powered {
            if let Some(txn) = self.peripherals.accel.tick(self.now) {
                events.push(DeviceEvent::I2c(txn));
            }
        }

        // Supervisor last: a brown-out lands *between* instructions.
        let power_edge = self.supervisor.update(self.cap.voltage());
        self.apply_power_edge(power_edge);

        DeviceStep {
            elapsed: SimTime::from_ns(dt_ns),
            events,
            power_edge,
            retired,
        }
    }

    /// Advances the device to the first of `horizon`'s limits or the
    /// first span-breaking occurrence, integrating each quantum with
    /// exactly the arithmetic of [`Device::step`] but skipping redundant
    /// load-model recomputation in between.
    ///
    /// This is the batched fast path: [`Device::span_quantum`] until it
    /// asks to stop or the deadline passes. Its contract is *bit
    /// identity* with a loop of `step` calls: it may only elide work that
    /// is provably a no-op in that loop. The span ends — leaving the
    /// caller to re-establish its invariants — at the first of:
    ///
    /// * the horizon's deadline (callers cap it with every event they
    ///   schedule by time: the next debugger wakeup, the reader's next
    ///   transmission edge, [`Device::next_silent_deadline`]);
    /// * the quantum on which the horizon's instruction count or
    ///   voltage threshold is reached;
    /// * any port write or FIFO-popping port read (these can change
    ///   peripheral currents, wire states, and RF bookkeeping);
    /// * any wire-observable event, a power edge, or the CPU leaving
    ///   the running state.
    ///
    /// Note the final quantum may overshoot the deadline, exactly like
    /// the unbatched `while now < deadline { step() }` loop it replaces.
    ///
    /// `i_external` is sampled per quantum with the present capacitor
    /// voltage, matching the per-step closure evaluation order.
    pub fn run_span(
        &mut self,
        harvester: &mut dyn Harvester,
        i_external: &mut dyn FnMut(f64) -> f64,
        horizon: &Horizon,
    ) -> DeviceStep {
        let mut span = Span::new(self.now);
        while self.now < horizon.deadline
            && !self.span_quantum(&mut span, harvester, i_external, horizon)
        {}
        span.finish(self.now)
    }

    /// Runs one quantum of `span` and returns whether the span must end
    /// after it (see [`Device::run_span`] for the reasons). The caller
    /// owns the deadline check, so it can also inspect the device
    /// between quanta — `System::run_until` evaluates its predicate
    /// here.
    #[inline]
    pub fn span_quantum(
        &mut self,
        span: &mut Span,
        harvester: &mut dyn Harvester,
        i_external: &mut dyn FnMut(f64) -> f64,
        horizon: &Horizon,
    ) -> bool {
        let powered = self.supervisor.powered();
        let mut refresh = span.i_load.is_none();
        let mut stop = false;

        let dt_ns = if powered && self.cpu.is_running() {
            let had_events = span.events.len();
            let outcome = {
                let mut bus = BusCtx {
                    peripherals: &mut self.peripherals,
                    events: &mut span.events,
                    now: self.now,
                    v_cap: self.cap.voltage(),
                    cycles: self.cpu.cycles,
                    marker_mask: self.marker_mask,
                    touched: false,
                };
                let o = self.cpu.step(&mut self.mem, &mut bus);
                if bus.touched {
                    refresh = true;
                    stop = true;
                }
                o
            };
            if outcome.retired.is_some() {
                self.total_instructions += 1;
                span.retired = outcome.retired;
            }
            if let CpuState::Faulted(f) = self.cpu.state() {
                span.events.push(DeviceEvent::CpuFault(f));
            }
            if !self.cpu.is_running() {
                refresh = true;
                stop = true;
            }
            if span.events.len() > had_events {
                stop = true;
            }
            (outcome.cycles.max(1) as u64) * self.cycle_ns
        } else {
            self.config.idle_step.as_ns()
        };
        let dt = dt_ns as f64 * 1e-9;

        let i_load = match span.i_load {
            Some(i_load) if !refresh => i_load,
            _ => {
                let i_load = self.i_load_now(powered);
                span.i_load = Some(i_load);
                i_load
            }
        };
        self.i_load_last = i_load;
        let i_ext = i_external(self.cap.voltage());
        edb_energy::integrate_quantum(&mut self.cap, harvester, i_ext, i_load, self.now, dt);
        self.now = self.now.advance_ns(dt_ns);

        if powered {
            if let Some(txn) = self.peripherals.accel.tick(self.now) {
                span.events.push(DeviceEvent::I2c(txn));
                stop = true;
            }
        }

        let edge = self.supervisor.update(self.cap.voltage());
        if edge.is_some() {
            self.apply_power_edge(edge);
            span.power_edge = edge;
            stop = true;
        }

        // Horizon limits bind only while the CPU runs: that is when the
        // caller's per-quantum hooks (checkpoint triggers, knee samples)
        // act at all.
        if !stop && self.supervisor.powered() && self.cpu.is_running() {
            if horizon
                .instructions
                .is_some_and(|n| self.total_instructions >= n)
            {
                stop = true;
            }
            if let Some(cross) = horizon.v_cross {
                stop |= (self.cap.voltage() >= cross.v) != cross.above;
            }
        }
        stop
    }

    /// The earliest future instant at which a peripheral's load current
    /// changes *without* any port access or event — UART byte done, ADC
    /// conversion done, RF burst off the air. [`Device::run_span`]
    /// callers must not batch past this (the accelerometer needs no
    /// entry here: its completion emits an I²C event, which already
    /// breaks the span).
    pub fn next_silent_deadline(&self) -> Option<SimTime> {
        let mut deadline: Option<SimTime> = None;
        for t in [
            self.peripherals.uart.busy_deadline(),
            self.peripherals.adc.busy_deadline(),
            self.peripherals.rf.busy_deadline(),
        ]
        .into_iter()
        .flatten()
        {
            if t > self.now {
                deadline = Some(deadline.map_or(t, |d| d.min(t)));
            }
        }
        deadline
    }

    /// The instantaneous load model — shared verbatim by the per-step
    /// and batched paths.
    fn i_load_now(&self, powered: bool) -> f64 {
        if powered {
            let base = if self.cpu.is_running() {
                self.config.i_active
            } else {
                self.config.i_halted
            };
            base + self.peripherals.gpio.current()
                + self.peripherals.uart.current(self.now)
                + self.peripherals.adc.current(self.now)
                + self.peripherals.accel.current()
                + self.peripherals.rf.current(self.now)
                + self.ldo.quiescent_current()
        } else {
            self.config.i_off_leak
        }
    }

    fn apply_power_edge(&mut self, edge: Option<PowerEdge>) {
        match edge {
            Some(PowerEdge::TurnOn) => {
                self.peripherals.reset();
                self.cpu.reset(&self.mem);
                self.turn_ons += 1;
            }
            Some(PowerEdge::BrownOut) => {
                self.mem.power_cycle();
                self.peripherals.reset();
                self.reboots += 1;
            }
            None => {}
        }
    }
}

/// The port-bus adapter connecting the CPU's `in`/`out` instructions to
/// the peripheral set, emitting wire events as side effects.
struct BusCtx<'a> {
    peripherals: &'a mut Peripherals,
    events: &'a mut Vec<DeviceEvent>,
    now: SimTime,
    v_cap: f64,
    cycles: u64,
    marker_mask: u16,
    /// Set on every `out` and on the `in`s that pop a FIFO or emit an
    /// event: those may change peripheral state (and thus the load
    /// model) or what an observer sees, so a batched span must end here.
    /// Status, latch and sample reads leave both alone.
    touched: bool,
}

impl PortBus for BusCtx<'_> {
    fn port_in(&mut self, port: u8) -> u16 {
        match port {
            ports::GPIO_OUT => self.peripherals.gpio.read(),
            ports::GPIO_IN => 0,
            ports::DEBUG_STATUS => self.peripherals.debug.status(),
            ports::DBG_UART_RX => {
                self.touched = true;
                self.peripherals
                    .debug
                    .rx_from_debugger
                    .pop_front()
                    .map_or(0, u16::from)
            }
            ports::DBG_UART_STATUS => self.peripherals.debug.uart_status(self.now),
            ports::UART_STATUS => self.peripherals.uart.status(self.now),
            ports::ADC_SELF => {
                self.touched = true;
                let code = self.peripherals.adc.sample(self.now, self.v_cap);
                self.events.push(DeviceEvent::AdcSelfSample { code });
                code
            }
            ports::TIMER_LO => self.peripherals.timer.read_lo(self.cycles),
            ports::TIMER_HI => self.peripherals.timer.read_hi(),
            ports::ACCEL_STATUS => self.peripherals.accel.status(),
            ports::ACCEL_X => self.peripherals.accel.axis(0),
            ports::ACCEL_Y => self.peripherals.accel.axis(1),
            ports::ACCEL_Z => self.peripherals.accel.axis(2),
            ports::RF_RX_DATA => {
                self.touched = true;
                self.peripherals.rf.pop_rx()
            }
            ports::RF_RX_STATUS => self.peripherals.rf.rx_status(),
            _ => 0,
        }
    }

    fn port_out(&mut self, port: u8, value: u16) {
        self.touched = true;
        match port {
            ports::GPIO_OUT => {
                if let Some((old, new)) = self.peripherals.gpio.write(value) {
                    self.events.push(DeviceEvent::GpioChange { old, new });
                }
            }
            ports::CODE_MARKER => {
                // n marker lines → IDs 1..=2^n−1; zero is "no pulse".
                let id = (value & self.marker_mask) as u8;
                if id != 0 {
                    self.events.push(DeviceEvent::CodeMarker { id });
                }
            }
            ports::DEBUG_SIGNAL => {
                self.peripherals.debug.raise_signal(value);
                self.events.push(DeviceEvent::DebugSignal { value });
            }
            ports::DBG_UART_TX => {
                let byte = (value & 0xFF) as u8;
                if self.peripherals.debug.write_tx(self.now, byte) {
                    self.events.push(DeviceEvent::DbgUartByte { byte });
                }
            }
            ports::UART_TX => {
                let byte = (value & 0xFF) as u8;
                if self.peripherals.uart.write(self.now, byte) {
                    self.events.push(DeviceEvent::UartByte { byte });
                }
            }
            ports::ACCEL_CTRL if value & 1 != 0 => {
                self.peripherals.accel.start_transaction(self.now);
            }
            ports::RF_TX_DATA => self.peripherals.rf.push_tx((value & 0xFF) as u8),
            ports::RF_TX_CTRL if value & 1 != 0 => {
                if let Some(frame) = self.peripherals.rf.flush_tx(self.now) {
                    self.events.push(DeviceEvent::RfTx(frame));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edb_energy::{ConstantCurrent, TheveninSource};
    use edb_mcu::asm::assemble;

    fn counter_image() -> Image {
        assemble(
            r#"
            .equ COUNTER, 0x6000
            .org 0x4400
            start:
                movi r1, COUNTER
                ld   r0, [r1]
                add  r0, 1
                st   [r1], r0
                jmp  start + 4      ; skip re-loading r1
            .org 0xFFFE
            .word start
            "#,
        )
        .expect("assembles")
    }

    #[test]
    fn device_boots_at_turn_on_threshold() {
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&counter_image());
        let mut src = ConstantCurrent::new(1e-3);
        assert!(!dev.powered());
        let mut saw_turn_on = false;
        for _ in 0..1_000_000 {
            let step = dev.step(&mut src, 0.0);
            if step.power_edge == Some(PowerEdge::TurnOn) {
                saw_turn_on = true;
                break;
            }
        }
        assert!(saw_turn_on);
        assert!(dev.v_cap() >= 2.39);
        assert!(dev.powered());
    }

    #[test]
    fn sawtooth_charge_discharge_cycles() {
        // Figure 2B: with a weak source and a hungry CPU, the device
        // cycles between turn-on and brown-out repeatedly.
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&counter_image());
        let mut src = TheveninSource::new(3.2, 1500.0);
        let mut edges = 0;
        let end = SimTime::from_ms(500);
        while dev.now() < end {
            let step = dev.step(&mut src, 0.0);
            if step.power_edge.is_some() {
                edges += 1;
            }
        }
        assert!(
            edges >= 8,
            "expected several charge-discharge cycles, saw {edges} edges"
        );
        assert!(dev.reboots() >= 4);
        // "tens to hundreds of times per second": ≥ 8 reboots/second.
        let per_sec = dev.reboots() as f64 / dev.now().as_secs_f64();
        assert!(per_sec >= 8.0, "{per_sec} reboots/s");
    }

    #[test]
    fn progress_survives_reboots_in_fram() {
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&counter_image());
        let mut src = TheveninSource::new(3.2, 1500.0);
        let end = SimTime::from_ms(300);
        while dev.now() < end {
            dev.step(&mut src, 0.0);
        }
        let counter = dev.mem().peek_word(0x6000);
        assert!(dev.reboots() >= 1, "must have rebooted");
        assert!(
            counter > 1000,
            "counter {counter} keeps growing across reboots"
        );
    }

    #[test]
    fn volatile_register_state_is_lost_on_reboot() {
        // A program that counts in a register only: the count restarts
        // from zero after each reboot, so it never exceeds what one
        // charge cycle allows.
        let image = assemble(
            r#"
            .equ SNAPSHOT, 0x6000
            .org 0x4400
            start:
                add  r0, 1
                movi r1, SNAPSHOT
                st   [r1], r0       ; publish for inspection
                jmp  start
            .org 0xFFFE
            .word start
            "#,
        )
        .expect("assembles");
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&image);
        let mut src = TheveninSource::new(3.2, 1500.0);
        let mut max_snapshot = 0u16;
        let end = SimTime::from_ms(400);
        while dev.now() < end {
            let step = dev.step(&mut src, 0.0);
            if step.power_edge == Some(PowerEdge::BrownOut) {
                max_snapshot = max_snapshot.max(dev.mem().peek_word(0x6000));
            }
        }
        assert!(dev.reboots() >= 2);
        // One discharge window at ~2.2 mA from 2.4 to 1.8 V is ~20 ms
        // ≈ 80k cycles ≈ ~8k loop iterations. Far less than u16::MAX
        // iterations would need; and crucially each cycle starts over.
        assert!(max_snapshot > 100);
        let final_snapshot = dev.mem().peek_word(0x6000);
        assert!(
            final_snapshot < 30_000,
            "register counter must restart each cycle (got {final_snapshot})"
        );
    }

    #[test]
    fn continuous_power_never_reboots() {
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&counter_image());
        // A strong tethered supply: 3 V behind 10 Ω.
        let mut tether = TheveninSource::new(3.0, 10.0);
        let end = SimTime::from_ms(200);
        while dev.now() < end {
            dev.step(&mut tether, 0.0);
        }
        assert_eq!(dev.reboots(), 0);
        assert_eq!(dev.turn_ons(), 1);
    }

    #[test]
    fn external_current_is_the_debugger_knob() {
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&counter_image());
        let mut none = ConstantCurrent::new(0.0);
        // Charge purely from the "EDB" external current.
        for _ in 0..500_000 {
            dev.step(&mut none, 5e-3);
            if dev.powered() {
                break;
            }
        }
        assert!(dev.powered(), "external charging must boot the device");
    }

    #[test]
    fn gpio_events_surface_from_port_writes() {
        let image = assemble(&format!(
            "{}\n.org 0x4400\nstart:\n movi r0, PIN_MAIN_LOOP\n out GPIO_OUT, r0\n movi r0, 0\n out GPIO_OUT, r0\n halt\n.org 0xFFFE\n.word start\n",
            crate::ports::asm_equates()
        ))
        .expect("assembles");
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&image);
        dev.set_v_cap(2.5);
        let mut src = ConstantCurrent::new(0.0);
        let mut changes = Vec::new();
        for _ in 0..100 {
            let step = dev.step(&mut src, 0.0);
            for e in step.events {
                if let DeviceEvent::GpioChange { old, new } = e {
                    changes.push((old, new));
                }
            }
            if !dev.cpu().is_running() {
                break;
            }
        }
        assert_eq!(changes, vec![(0, 2), (2, 0)]);
    }

    #[test]
    fn code_markers_and_debug_signals_emit_events() {
        let image = assemble(
            r#"
            .org 0x4400
            start:
                movi r0, 2
                out  0x02, r0      ; CODE_MARKER id 2
                movi r0, 0x31
                out  0x03, r0      ; DEBUG_SIGNAL
                halt
            .org 0xFFFE
            .word start
            "#,
        )
        .expect("assembles");
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(&image);
        dev.set_v_cap(2.5);
        let mut src = ConstantCurrent::new(0.0);
        let mut markers = Vec::new();
        let mut signals = Vec::new();
        for _ in 0..100 {
            let step = dev.step(&mut src, 0.0);
            for e in step.events {
                match e {
                    DeviceEvent::CodeMarker { id } => markers.push(id),
                    DeviceEvent::DebugSignal { value } => signals.push(value),
                    _ => {}
                }
            }
            if !dev.cpu().is_running() {
                break;
            }
        }
        assert_eq!(markers, vec![2]);
        assert_eq!(signals, vec![0x31]);
        assert_eq!(
            dev.peripherals.debug.signals.front().copied(),
            Some(0x31),
            "signal also queued for the debugger to drain"
        );
    }

    #[test]
    fn marker_width_caps_distinct_ids() {
        // §4.1.3: n marker lines distinguish 2^n - 1 watchpoint IDs.
        // With 1 line, ID 2 masks to zero (no pulse) and 3 aliases to 1.
        for (lines, expect) in [
            (1u8, vec![1, 1]),
            (2, vec![1, 2, 3]),
            (3, vec![1, 2, 3, 4, 5, 6, 7]),
        ] {
            let n = if lines == 3 { 7 } else { 3 };
            let mut body = String::new();
            for id in 1..=n {
                body.push_str(&format!(
                    " movi r0, {id}
 out 0x02, r0
"
                ));
            }
            let src_text = format!(
                ".org 0x4400
main:
{body} halt
.org 0xFFFE
.word main
"
            );
            let image = edb_mcu::asm::assemble(&src_text).expect("assembles");
            let mut dev = Device::new(DeviceConfig {
                marker_lines: lines,
                ..DeviceConfig::wisp5()
            });
            dev.flash(&image);
            dev.set_v_cap(2.5);
            let mut src = ConstantCurrent::new(0.0);
            let mut ids = Vec::new();
            for _ in 0..200 {
                let step = dev.step(&mut src, 0.0);
                for e in step.events {
                    if let DeviceEvent::CodeMarker { id } = e {
                        ids.push(id);
                    }
                }
                if !dev.cpu().is_running() {
                    break;
                }
            }
            assert_eq!(ids, expect, "{lines} marker lines");
        }
    }

    #[test]
    fn run_span_is_bit_identical_to_stepping() {
        // A workload that exercises the span breakers: port traffic
        // (UART bytes, ADC self-samples, code markers), intermittent
        // power edges, and silent peripheral deadlines.
        let image = assemble(
            r#"
            .org 0x4400
            start:
                movi r3, 0
            loop:
                add  r3, 1
                movi r0, 1
                out  0x02, r0      ; code marker
                in   r2, 0x0A      ; ADC self-sample (50 us busy window)
                movi r0, 0x41
                out  0x08, r0      ; UART byte (86.8 us busy window)
            spin:
                add  r1, 1
                cmpi r1, 400
                jnz  spin
                movi r1, 0
                jmp  loop
            .org 0xFFFE
            .word start
            "#,
        )
        .expect("assembles");
        let end = SimTime::from_ms(400);

        let mut a = Device::new(DeviceConfig::wisp5());
        a.flash(&image);
        let mut src_a = TheveninSource::new(3.2, 1500.0);
        let mut events_a = 0usize;
        while a.now() < end {
            events_a += a.step(&mut src_a, 0.0).events.len();
        }

        let mut b = Device::new(DeviceConfig::wisp5());
        b.flash(&image);
        let mut src_b = TheveninSource::new(3.2, 1500.0);
        let mut events_b = 0usize;
        while b.now() < end {
            let mut cap = end;
            if let Some(t) = b.next_silent_deadline() {
                cap = cap.min(t);
            }
            let span = if cap > b.now() {
                b.run_span(&mut src_b, &mut |_| 0.0, &Horizon::until(cap))
            } else {
                b.step(&mut src_b, 0.0)
            };
            events_b += span.events.len();
        }

        assert_eq!(
            a.v_cap().to_bits(),
            b.v_cap().to_bits(),
            "capacitor voltage must match to the last bit"
        );
        assert_eq!(a.now(), b.now());
        assert_eq!(a.total_instructions(), b.total_instructions());
        assert_eq!(a.reboots(), b.reboots());
        assert_eq!(a.turn_ons(), b.turn_ons());
        assert_eq!(events_a, events_b, "same wire events either way");
        assert_eq!(
            a.peripherals.uart.sent(),
            b.peripherals.uart.sent(),
            "same UART bytes at the same timestamps"
        );
        assert!(a.reboots() >= 1, "workload must actually be intermittent");
        assert!(events_a > 100, "workload must actually emit events");
    }

    #[test]
    fn serde_snapshot_resumes_bit_identically() {
        // Snapshot a device mid-run (having already crossed power edges),
        // restore it into a fresh instance, and run both forward: every
        // observable must stay bit-identical. This is the foundation the
        // record/replay layer's full-state snapshots stand on.
        let mut live = Device::new(DeviceConfig::wisp5());
        live.flash(&counter_image());
        let mut src = TheveninSource::new(3.2, 1500.0);
        while live.now() < SimTime::from_ms(150) {
            live.step(&mut src, 0.0);
        }
        assert!(live.reboots() >= 1, "snapshot must straddle power cycles");
        let snap = live.to_value();
        let mut restored = Device::from_value(&snap).expect("round-trips");
        let mut src_r = src;
        while live.now() < SimTime::from_ms(300) {
            live.step(&mut src, 0.0);
            restored.step(&mut src_r, 0.0);
        }
        assert_eq!(live.now(), restored.now());
        assert_eq!(live.v_cap().to_bits(), restored.v_cap().to_bits());
        assert_eq!(live.total_instructions(), restored.total_instructions());
        assert_eq!(live.reboots(), restored.reboots());
        assert_eq!(
            live.mem().peek_word(0x6000),
            restored.mem().peek_word(0x6000)
        );
    }

    #[test]
    fn led_accelerates_discharge() {
        // §2.2: LED-based tracing changes intermittent behaviour. With
        // the LED on, the discharge phase is much shorter.
        let busy_loop = |led: bool| {
            let pin = if led { 1 } else { 0 };
            let src_txt = format!(
                ".org 0x4400\nstart:\n movi r0, {pin}\n out 0x00, r0\nloop:\n add r1, 1\n jmp loop\n.org 0xFFFE\n.word start\n"
            );
            let image = assemble(&src_txt).expect("assembles");
            let mut dev = Device::new(DeviceConfig::wisp5());
            dev.flash(&image);
            dev.set_v_cap(2.45);
            let mut none = ConstantCurrent::new(0.0);
            while dev.powered() || dev.reboots() == 0 {
                dev.step(&mut none, 0.0);
                if dev.reboots() > 0 {
                    break;
                }
                if dev.now() > SimTime::from_secs(1) {
                    break;
                }
            }
            dev.now()
        };
        let t_plain = busy_loop(false);
        let t_led = busy_loop(true);
        assert!(
            t_led.as_ns() * 2 < t_plain.as_ns(),
            "LED must drain at least 2x faster: {t_led} vs {t_plain}"
        );
    }

    #[test]
    fn self_adc_costs_energy() {
        let sample_loop = |with_adc: bool| {
            let body = if with_adc { "in r2, 0x0A" } else { "nop" };
            let src_txt = format!(
                ".org 0x4400\nstart:\nloop:\n {body}\n add r1, 1\n jmp loop\n.org 0xFFFE\n.word start\n"
            );
            let image = assemble(&src_txt).expect("assembles");
            let mut dev = Device::new(DeviceConfig::wisp5());
            dev.flash(&image);
            dev.set_v_cap(2.45);
            let mut none = ConstantCurrent::new(0.0);
            while dev.reboots() == 0 && dev.now() < SimTime::from_secs(1) {
                dev.step(&mut none, 0.0);
            }
            dev.now()
        };
        let t_plain = sample_loop(false);
        let t_adc = sample_loop(true);
        assert!(
            t_adc < t_plain,
            "self-measurement must shorten the discharge: {t_adc} vs {t_plain}"
        );
    }
}
