//! The debugger: passive monitoring, active energy manipulation, and the
//! intermittence-aware debugging primitives.
//!
//! [`Edb`] is the host/board side of the system. Its only *electrical*
//! influence on the target flows through
//! [`Edb::electrical_current_with_drain`] — the charge/discharge circuit
//! plus the sub-µA wiring leakage — so energy-interference-freedom is
//! checkable by comparing runs with and without the debugger attached.
//! Its *informational* inputs are the wire-observable [`DeviceEvent`]s
//! and the debug-signal/UART queues; its decisions run on a periodic
//! firmware tick with realistic latency.

use crate::adc::Adc;
use crate::charge::{ChargeCircuit, ChargeMode, LevelController};
use crate::error::EdbError;
use crate::events::{DebugEvent, EventLog};
use crate::protocol::{self, HostCommand, ReplyDecoder};
use crate::wiring::{ChannelFault, ChannelFaultConfig, LineStates, Wiring};
use edb_device::{Device, DeviceEvent};
use edb_energy::{PowerEdge, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Debugger firmware parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdbConfig {
    /// Passive energy-trace sampling period.
    pub adc_sample_period: SimTime,
    /// Firmware main-loop period — the latency with which signals are
    /// noticed and acknowledged.
    pub tick_period: SimTime,
    /// Charge/discharge control-loop sampling period.
    pub control_period: SimTime,
    /// Early-stop margin when restoring energy after a breakpoint or
    /// assert session, volts. Conservative (positive) so a resumed target
    /// never finds *less* energy than it saved — the source of Table 3's
    /// positive mean ΔV.
    pub restore_guard_band: f64,
    /// Early-stop margin for energy-guard exits, volts. Kept tight (a
    /// small positive bias) because guard exits happen constantly and
    /// their error must not accumulate into application-visible energy.
    pub guard_band: f64,
    /// Whether passive energy samples are logged as events.
    pub energy_trace: bool,
    /// Whether GPIO/UART/I²C events are logged.
    pub io_trace: bool,
    /// RNG seed for the ADC and wiring instances.
    pub seed: u64,
    /// Per-attempt sim-time deadline for a framed debug command: if no
    /// checksum-valid reply completes within this window, the command is
    /// re-sent (or aborted once the retry budget runs out).
    pub cmd_timeout: SimTime,
    /// Bounded re-sends after a command's first attempt.
    pub cmd_retries: u32,
    /// Minimum backoff before a re-send. Sized to cover the worst-case
    /// tail of a torn reply still pacing out of the target's UART, so
    /// stale bytes arrive (and are discarded) *during* the backoff
    /// instead of rotating into the retry's reply decoder.
    pub retry_flush: SimTime,
}

impl EdbConfig {
    /// The prototype defaults.
    pub fn prototype() -> Self {
        EdbConfig {
            adc_sample_period: SimTime::from_us(200),
            tick_period: SimTime::from_us(20),
            control_period: SimTime::from_us(150),
            restore_guard_band: 0.055,
            guard_band: 0.004,
            energy_trace: true,
            io_trace: true,
            seed: 0xEDB,
            cmd_timeout: SimTime::from_ms(5),
            cmd_retries: 3,
            // Four reply bytes at the ~174 µs/byte debug-UART pacing.
            retry_flush: SimTime::from_us(700),
        }
    }
}

impl Default for EdbConfig {
    fn default() -> Self {
        EdbConfig::prototype()
    }
}

/// Why an interactive session is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionKind {
    /// A `libEDB` assertion failed (keep-alive engaged).
    Assert {
        /// Assertion site ID.
        id: u8,
    },
    /// An internal code breakpoint hit.
    Breakpoint {
        /// Breakpoint ID.
        id: u8,
    },
    /// An energy breakpoint (threshold crossing) fired.
    EnergyBreakpoint,
    /// The console requested a session on demand.
    Console,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Mode {
    /// Watching only.
    Passive,
    /// Inside an energy-guarded region: tethered, level saved.
    Guard { saved: f64 },
    /// Discharging back to the pre-guard level; ack stays up until done.
    GuardRestore { saved: f64 },
    /// Interactive session: tethered, target in its service loop.
    Session { kind: SessionKind, saved: f64 },
    /// Post-session restore: discharging to the saved level before
    /// releasing the target.
    SessionRestore { saved: f64 },
}

/// An in-flight framed debug-UART exchange with the target.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct InFlight {
    /// The submitted request this exchange resolves.
    id: RequestId,
    /// The command being exchanged.
    cmd: HostCommand,
    /// Incremental reply parser (reset on every retry and torn attempt).
    decoder: ReplyDecoder,
    /// Send attempts so far (1 = first try).
    attempts: u32,
    /// When the current attempt times out.
    attempt_deadline: SimTime,
    /// Backoff: when to send the next attempt (None while one is live).
    resend_at: Option<SimTime>,
    /// The target browned out mid-exchange; the command is parked until
    /// it re-enters its service loop (a new session opens).
    await_service: bool,
    /// While parked: give up if no service loop appears by then.
    park_deadline: SimTime,
}

/// How the last framed command exchange ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionOutcome {
    /// The first attempt completed with a checksum-valid reply.
    Completed,
    /// Completed after `retries` re-sends (timeouts or corrupt replies).
    Retried {
        /// Number of re-sends beyond the first attempt.
        retries: u32,
    },
    /// The target browned out mid-command and never re-entered its
    /// service loop within the recovery window.
    AbortedByBrownout,
    /// Gave up for another reason (retry budget exhausted, persistent
    /// corruption).
    Aborted {
        /// The surfaced error.
        error: EdbError,
    },
}

/// Handle for a submitted [`DebugRequest`], returned by [`Edb::submit`]
/// and redeemed with [`Edb::poll`]. IDs are monotonically increasing per
/// debugger instance; a later `submit` supersedes an earlier one (the
/// wire protocol runs one exchange at a time).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

/// A typed debugger operation over the framed debug-UART protocol — the
/// request half of the engine API. Each variant maps 1:1 onto a wire
/// [`HostCommand`] that expects a reply (`CMD_CONTINUE` is fire-and-
/// forget and is driven by [`Edb::resume`], not a request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DebugRequest {
    /// Read one word of target memory.
    ReadWord {
        /// Target address (even).
        addr: u16,
    },
    /// Write one word of target memory and await the acknowledge.
    WriteWord {
        /// Target address (even).
        addr: u16,
        /// Word to store.
        value: u16,
    },
    /// Ask the target where execution will resume (the service loop's
    /// return address).
    GetPc,
}

impl DebugRequest {
    /// The wire command this request is carried by.
    pub fn host_command(&self) -> HostCommand {
        match *self {
            DebugRequest::ReadWord { addr } => HostCommand::Read { addr },
            DebugRequest::WriteWord { addr, value } => HostCommand::Write { addr, value },
            DebugRequest::GetPc => HostCommand::GetPc,
        }
    }

    /// The typed request carried by `cmd`, or `None` for `CMD_CONTINUE`
    /// (which expects no reply and is not a tracked exchange).
    pub fn from_host_command(cmd: HostCommand) -> Option<Self> {
        match cmd {
            HostCommand::Read { addr } => Some(DebugRequest::ReadWord { addr }),
            HostCommand::Write { addr, value } => Some(DebugRequest::WriteWord { addr, value }),
            HostCommand::GetPc => Some(DebugRequest::GetPc),
            HostCommand::Continue => None,
        }
    }

    /// The wire-protocol name of the command (`READ`, `WRITE`, `GET_PC`).
    pub fn name(&self) -> &'static str {
        self.host_command().name()
    }
}

/// The typed completion of a [`DebugRequest`] — the response half of the
/// engine API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DebugResponse {
    /// A read's value.
    Word {
        /// The word read from target memory.
        value: u16,
    },
    /// A write's checksum-valid acknowledge.
    WriteAck,
    /// The target's resume address.
    Pc {
        /// Where execution will resume after the session closes.
        pc: u16,
    },
}

impl DebugResponse {
    /// Builds the typed response for `cmd` from the raw reply word.
    fn from_wire(cmd: HostCommand, word: u16) -> Self {
        match cmd {
            HostCommand::Read { .. } => DebugResponse::Word { value: word },
            HostCommand::Write { .. } => DebugResponse::WriteAck,
            HostCommand::GetPc | HostCommand::Continue => DebugResponse::Pc { pc: word },
        }
    }

    /// The raw reply word this response was decoded from (a write's
    /// acknowledge renders as the protocol `ACK` byte) — the bridge for
    /// callers that fold wire words into digests.
    pub fn word(&self) -> u16 {
        match *self {
            DebugResponse::Word { value } => value,
            DebugResponse::WriteAck => u16::from(protocol::ACK),
            DebugResponse::Pc { pc } => pc,
        }
    }
}

/// What [`Edb::poll`] found for a given [`RequestId`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionPoll<T> {
    /// The exchange is still on the wire (or parked across a brown-out).
    Pending {
        /// Send attempts so far.
        attempts: u32,
    },
    /// The exchange finished: a typed response, or a typed error.
    /// Consumed by the poll that observes it.
    Ready(Result<T, EdbError>),
    /// The ID does not name the live exchange: its result was already
    /// consumed, or a later [`Edb::submit`] preempted it.
    Superseded,
}

/// A finished exchange waiting for its [`Edb::poll`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Finished {
    id: RequestId,
    cmd: HostCommand,
    result: Result<u16, EdbError>,
}

/// A pending energy breakpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct EnergyBreakpoint {
    threshold: f64,
    armed: bool,
}

/// The Energy-interference-free Debugger.
///
/// Construct, [`attach`](Edb::attach) to an assembled image (so the
/// debugger knows `libEDB`'s breakpoint-mask address), then let the
/// system harness drive [`Edb::electrical_current_with_drain`],
/// [`Edb::observe`] and [`Edb::tick`] every device step. Higher-level
/// operations (charge, breakpoints, memory reads) are exposed for the
/// console and the experiment harnesses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Edb {
    config: EdbConfig,
    adc: Adc,
    wiring: Wiring,
    circuit: ChargeCircuit,
    log: EventLog,
    mode: Mode,
    controller: Option<LevelController>,
    /// Completion flag for console-initiated charge/discharge.
    level_op_done: bool,
    next_tick: SimTime,
    next_adc: SimTime,
    last_reading: f64,
    /// Breakpoint ID → optional energy condition. Ordered so that a
    /// serialized snapshot of the debugger is canonical (iteration order
    /// is part of the recording's byte identity).
    code_breakpoints: BTreeMap<u8, Option<f64>>,
    energy_breakpoints: Vec<EnergyBreakpoint>,
    watch_enabled: BTreeSet<u8>,
    watch_all: bool,
    printf_buf: Vec<u8>,
    inflight: Option<InFlight>,
    /// Monotonic source for [`RequestId`]s.
    next_request: u64,
    /// The finished exchange waiting to be consumed by [`Edb::poll`].
    finished: Option<Finished>,
    last_outcome: Option<SessionOutcome>,
    /// Injectable noise on both directions of the debug UART.
    channel_fault: Option<ChannelFault>,
    /// Backoff RNG — seeded from the config, drawn ONLY when a retry is
    /// scheduled, so fault-free runs consume zero draws and stay
    /// bit-identical to the golden manifests.
    retry_rng: StdRng,
    bkpt_mask_addr: Option<u16>,
    /// Charge delivered through the tether/charge circuit, coulombs
    /// (instrumentation).
    charge_delivered: f64,
    /// Memoized passive wire drain for the last-seen line states —
    /// `Wiring::drain_amps` is deterministic in the states, so the
    /// (states → amps) pair caches the common all-idle case.
    drain_cache: Option<(LineStates, f64)>,
}

impl Edb {
    /// Creates a debugger with the given configuration.
    pub fn new(config: EdbConfig) -> Self {
        Edb {
            adc: Adc::new(config.seed),
            wiring: Wiring::standard(config.seed.wrapping_add(1)),
            circuit: ChargeCircuit::new(),
            log: EventLog::new(),
            mode: Mode::Passive,
            controller: None,
            level_op_done: false,
            next_tick: SimTime::ZERO,
            next_adc: SimTime::ZERO,
            last_reading: 0.0,
            code_breakpoints: BTreeMap::new(),
            energy_breakpoints: Vec::new(),
            watch_enabled: BTreeSet::new(),
            watch_all: true,
            printf_buf: Vec::new(),
            inflight: None,
            next_request: 0,
            finished: None,
            last_outcome: None,
            channel_fault: None,
            retry_rng: StdRng::seed_from_u64(config.seed.wrapping_add(0x5EED)),
            bkpt_mask_addr: None,
            charge_delivered: 0.0,
            drain_cache: None,
            config,
        }
    }

    /// Records image metadata (the `libEDB` breakpoint-mask address).
    pub fn attach(&mut self, image: &edb_mcu::Image) {
        self.bkpt_mask_addr = crate::libedb::bkpt_mask_addr(image);
    }

    /// The configuration.
    pub fn config(&self) -> EdbConfig {
        self.config
    }

    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Mutable event log access (experiments clear it between phases).
    pub fn log_mut(&mut self) -> &mut EventLog {
        &mut self.log
    }

    /// The most recent ADC reading of `Vcap`, volts.
    pub fn last_reading(&self) -> f64 {
        self.last_reading
    }

    /// Whether an interactive session is open (including the
    /// energy-restore phase before the target is released).
    pub fn session_active(&self) -> bool {
        matches!(
            self.mode,
            Mode::Session { .. } | Mode::SessionRestore { .. }
        )
    }

    /// Whether the target is inside an energy-guarded region.
    pub fn in_guard(&self) -> bool {
        matches!(self.mode, Mode::Guard { .. } | Mode::GuardRestore { .. })
    }

    /// Whether a console-initiated charge/discharge just completed
    /// (cleared by the next level operation).
    pub fn level_op_done(&self) -> bool {
        self.level_op_done
    }

    /// Total charge delivered into the target, coulombs.
    pub fn charge_delivered(&self) -> f64 {
        self.charge_delivered
    }

    /// The charge-circuit mode right now (instrumentation).
    pub fn charge_mode(&self) -> ChargeMode {
        self.circuit.mode()
    }

    // ---------------------------------------------------------------
    // Console-facing operations
    // ---------------------------------------------------------------

    /// Begins charging the target to `volts` (Table 1's `charge` command).
    pub fn start_charge(&mut self, volts: f64, now: SimTime) {
        self.controller = Some(LevelController::raise(
            volts,
            self.config.control_period,
            0.0,
            now,
        ));
        self.level_op_done = false;
    }

    /// Begins discharging the target to `volts` (`discharge` command).
    pub fn start_discharge(&mut self, volts: f64, now: SimTime) {
        self.controller = Some(LevelController::lower(
            volts,
            self.config.control_period,
            0.0,
            now,
        ));
        self.level_op_done = false;
    }

    /// Enables an internal code breakpoint, optionally conditioned on the
    /// energy level (`break en id [energy]` — a *combined* breakpoint).
    /// Writes the target-side enable mask through the back channel.
    pub fn enable_breakpoint(&mut self, dev: &mut Device, id: u8, energy: Option<f64>) {
        self.code_breakpoints.insert(id, energy);
        self.sync_bkpt_mask(dev);
    }

    /// Disables an internal code breakpoint.
    pub fn disable_breakpoint(&mut self, dev: &mut Device, id: u8) {
        self.code_breakpoints.remove(&id);
        self.sync_bkpt_mask(dev);
    }

    fn sync_bkpt_mask(&mut self, dev: &mut Device) {
        if let Some(addr) = self.bkpt_mask_addr {
            let mask = self
                .code_breakpoints
                .keys()
                .fold(0u16, |m, &id| m | (1 << (id as u16 & 0xF)));
            dev.mem_mut().poke_word(addr, mask);
        }
    }

    /// Arms an energy breakpoint at `threshold` volts.
    pub fn arm_energy_breakpoint(&mut self, threshold: f64) {
        self.energy_breakpoints.push(EnergyBreakpoint {
            threshold,
            armed: true,
        });
    }

    /// Disarms all energy breakpoints at `threshold` (±1 mV).
    pub fn disarm_energy_breakpoint(&mut self, threshold: f64) {
        self.energy_breakpoints
            .retain(|b| (b.threshold - threshold).abs() > 1e-3);
    }

    /// The enabled code breakpoints: `(id, energy)` pairs in ID order.
    pub fn code_breakpoints(&self) -> Vec<(u8, Option<f64>)> {
        self.code_breakpoints
            .iter()
            .map(|(&id, &e)| (id, e))
            .collect()
    }

    /// The energy-breakpoint thresholds, volts, in arming order.
    pub fn energy_thresholds(&self) -> Vec<f64> {
        self.energy_breakpoints
            .iter()
            .map(|b| b.threshold)
            .collect()
    }

    /// Enables a watchpoint ID (when any ID has been explicitly enabled,
    /// only enabled IDs are logged; by default all are).
    pub fn enable_watchpoint(&mut self, id: u8) {
        self.watch_all = false;
        self.watch_enabled.insert(id);
    }

    /// Disables a watchpoint ID.
    pub fn disable_watchpoint(&mut self, id: u8) {
        self.watch_all = false;
        self.watch_enabled.remove(&id);
    }

    /// Installs (or clears) the injectable channel-fault model on both
    /// directions of the debug UART.
    pub fn set_channel_fault(&mut self, config: Option<ChannelFaultConfig>) {
        self.channel_fault = config.map(ChannelFault::new);
    }

    /// The channel-fault configuration, if fault injection is on.
    pub fn channel_fault_config(&self) -> Option<ChannelFaultConfig> {
        self.channel_fault.as_ref().map(ChannelFault::config)
    }

    /// Submits a typed request, starting its framed exchange on the
    /// wire. The target must be parked in its service loop (session
    /// active). Redeem the returned [`RequestId`] with [`Edb::poll`];
    /// the state machine re-sends on timeout or corruption with bounded,
    /// deterministic backoff, and surfaces a typed [`EdbError`] when the
    /// retry budget runs out. A prior in-flight request is preempted
    /// (logged, discarded — its ID polls as `Superseded`).
    pub fn submit(&mut self, dev: &mut Device, request: DebugRequest, now: SimTime) -> RequestId {
        self.preempt_stale(now);
        let id = self.next_request_id();
        let cmd = request.host_command();
        let decoder = ReplyDecoder::new(cmd).expect("every DebugRequest expects a reply");
        self.inflight = Some(InFlight {
            id,
            cmd,
            decoder,
            attempts: 0,
            attempt_deadline: now,
            resend_at: None,
            await_service: false,
            park_deadline: now,
        });
        self.send_attempt(dev, now);
        id
    }

    /// Polls the outcome of the exchange named by `id`: still pending,
    /// finished with a typed response or error (consumed by this call),
    /// or superseded — the result was already consumed, or a later
    /// [`Edb::submit`] preempted the request.
    pub fn poll(&mut self, id: RequestId) -> SessionPoll<DebugResponse> {
        if self.finished.as_ref().is_some_and(|fin| fin.id == id) {
            let fin = self.finished.take().expect("checked above");
            return SessionPoll::Ready(
                fin.result
                    .map(|word| DebugResponse::from_wire(fin.cmd, word)),
            );
        }
        match &self.inflight {
            Some(fl) if fl.id == id => SessionPoll::Pending {
                attempts: fl.attempts,
            },
            _ => SessionPoll::Superseded,
        }
    }

    /// Whether request `id` is still in flight: [`Edb::poll`] would
    /// answer `Pending`. Unlike `poll`, this consumes nothing.
    pub(crate) fn is_pending(&self, id: RequestId) -> bool {
        self.finished.as_ref().is_none_or(|fin| fin.id != id)
            && self.inflight.as_ref().is_some_and(|fl| fl.id == id)
    }

    /// Logs and discards a stale in-flight exchange, and clears the
    /// finished slot and outcome, making way for a new submission.
    fn preempt_stale(&mut self, now: SimTime) {
        if let Some(stale) = self.inflight.take() {
            self.log.push(
                now,
                DebugEvent::CommandAborted {
                    cmd: stale.cmd.name().to_string(),
                    error: "preempted by a new command".to_string(),
                },
            );
        }
        self.finished = None;
        self.last_outcome = None;
    }

    /// Draws the next monotonic request ID.
    fn next_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    /// Abandons the in-flight command, if any, and discards an
    /// unconsumed finished result. Returns how many send attempts had
    /// been made.
    pub fn cancel_command(&mut self) -> u32 {
        self.finished = None;
        self.inflight.take().map_or(0, |fl| fl.attempts)
    }

    /// How the most recent framed exchange ended — `None` while one is
    /// still in flight, or before any ran.
    pub fn last_outcome(&self) -> Option<&SessionOutcome> {
        self.last_outcome.as_ref()
    }

    /// Pushes host→target bytes through the (optional) noisy channel.
    fn push_host_bytes(&mut self, dev: &mut Device, bytes: &[u8]) {
        for &raw in bytes {
            let (delivered, n) = match &mut self.channel_fault {
                Some(fault) => fault.corrupt(raw),
                None => ([raw, 0], 1),
            };
            dev.peripherals
                .debug
                .rx_from_debugger
                .extend(delivered[..n].iter().copied());
        }
    }

    /// Releases the target's service loop with a framed `CMD_CONTINUE`.
    fn send_continue(&mut self, dev: &mut Device) {
        let frame = HostCommand::Continue.encode();
        self.push_host_bytes(dev, &frame);
    }

    fn send_attempt(&mut self, dev: &mut Device, now: SimTime) {
        let (frame, cmd, attempts) = {
            let Some(fl) = &mut self.inflight else {
                return;
            };
            fl.attempts += 1;
            fl.decoder.reset();
            fl.resend_at = None;
            fl.attempt_deadline = now.saturating_add(self.config.cmd_timeout);
            (fl.cmd.encode(), fl.cmd.name(), fl.attempts)
        };
        if attempts > 1 {
            self.log.push(
                now,
                DebugEvent::CommandRetry {
                    cmd: cmd.to_string(),
                    attempt: attempts,
                },
            );
        }
        self.push_host_bytes(dev, &frame);
    }

    /// Schedules a retry with deterministic backoff, or aborts with
    /// `error` once the budget (`1 + cmd_retries` attempts) is spent.
    fn retry_or_abort(&mut self, now: SimTime, error: EdbError) {
        let budget = self.config.cmd_retries.saturating_add(1);
        let exhausted = self
            .inflight
            .as_ref()
            .is_some_and(|fl| fl.attempts >= budget);
        if exhausted {
            self.abort_inflight(now, error);
            return;
        }
        if let Some(fl) = &mut self.inflight {
            fl.decoder.reset();
            // Deterministic backoff: the flush window (so any stale
            // bytes of the torn attempt drain into the swallow path
            // first) plus 1–4 firmware ticks of seeded jitter, drawn
            // only on this (faulty) path — clean runs never touch it.
            let ticks = self.retry_rng.gen_range(1..=4u64);
            fl.resend_at = Some(
                now.saturating_add(self.config.retry_flush)
                    .saturating_add(SimTime::from_ns(self.config.tick_period.as_ns() * ticks)),
            );
        }
    }

    fn abort_inflight(&mut self, now: SimTime, error: EdbError) {
        let Some(fl) = self.inflight.take() else {
            return;
        };
        self.log.push(
            now,
            DebugEvent::CommandAborted {
                cmd: fl.cmd.name().to_string(),
                error: error.to_string(),
            },
        );
        self.last_outcome = Some(match &error {
            EdbError::AbortedByBrownout { .. } => SessionOutcome::AbortedByBrownout,
            _ => SessionOutcome::Aborted {
                error: error.clone(),
            },
        });
        self.finished = Some(Finished {
            id: fl.id,
            cmd: fl.cmd,
            result: Err(error),
        });
    }

    /// Drives the in-flight command's deadlines: parked commands give up
    /// past their recovery window, backoffs fire their re-send, and live
    /// attempts time out into [`Edb::retry_or_abort`].
    fn service_inflight(&mut self, dev: &mut Device, now: SimTime) {
        enum Due {
            ParkExpired(&'static str),
            Resend,
            AttemptTimeout(&'static str, u32),
        }
        let due = {
            let Some(fl) = &self.inflight else {
                return;
            };
            if fl.await_service {
                if now >= fl.park_deadline {
                    Due::ParkExpired(fl.cmd.name())
                } else {
                    return;
                }
            } else if let Some(at) = fl.resend_at {
                if now >= at {
                    Due::Resend
                } else {
                    return;
                }
            } else if now >= fl.attempt_deadline {
                Due::AttemptTimeout(fl.cmd.name(), fl.attempts)
            } else {
                return;
            }
        };
        match due {
            Due::ParkExpired(cmd) => {
                self.abort_inflight(now, EdbError::AbortedByBrownout { cmd });
            }
            Due::Resend => self.send_attempt(dev, now),
            Due::AttemptTimeout(cmd, attempts) => {
                self.retry_or_abort(now, EdbError::CommandTimeout { cmd, attempts });
            }
        }
    }

    /// Resumes the target from an interactive session: restores the saved
    /// energy level, then releases the service loop.
    pub fn resume(&mut self, now: SimTime) {
        if let Mode::Session { saved, .. } = self.mode {
            self.controller = Some(LevelController::lower(
                saved,
                self.config.control_period,
                self.config.restore_guard_band,
                now,
            ));
            self.mode = Mode::SessionRestore { saved };
        }
    }

    // ---------------------------------------------------------------
    // Harness-facing hooks
    // ---------------------------------------------------------------

    /// The passive wire drain for the given line states, memoized.
    /// `Wiring::drain_amps` is a pure function of the states, so a
    /// repeated lookup returns the identical `f64`.
    pub fn drain_for(&mut self, states: LineStates) -> f64 {
        match self.drain_cache {
            Some((cached, amps)) if cached == states => amps,
            _ => {
                let amps = self.wiring.drain_amps(states);
                self.drain_cache = Some((states, amps));
                amps
            }
        }
    }

    /// The debugger's net electrical contribution to the target's storage
    /// capacitor right now (amps, positive = charging), given the
    /// ground-truth node voltage and the passive drain for the present
    /// line states (from [`Edb::drain_for`]). This is the *only*
    /// electrical path from debugger to target. The system harness
    /// looks the drain up once per span and calls this every quantum,
    /// which is sound because line states cannot change within a span.
    pub fn electrical_current_with_drain(&mut self, v_cap: f64, drain: f64, dt: f64) -> f64 {
        let circuit = self.circuit.current_into(v_cap);
        if circuit > 0.0 {
            self.charge_delivered += circuit * dt;
        }
        circuit - drain
    }

    /// The next instant at which [`Edb::tick`] does anything at all —
    /// before this, a `tick` call is provably a no-op (the ADC schedule
    /// and the firmware tick are both in the future), so the batched
    /// span path may skip the calls entirely.
    pub fn next_wakeup(&self) -> SimTime {
        self.next_adc.min(self.next_tick)
    }

    /// Ingests one device step's wire-observable events.
    pub fn observe(&mut self, dev: &Device, events: &[DeviceEvent], at: SimTime) {
        for event in events {
            match event {
                DeviceEvent::CodeMarker { id } => {
                    if self.watch_all || self.watch_enabled.contains(id) {
                        let v = self.adc.read_volts(dev.v_cap());
                        self.log
                            .push(at, DebugEvent::Watchpoint { id: *id, v_cap: v });
                    }
                }
                DeviceEvent::GpioChange { old, new } => {
                    if self.config.io_trace {
                        self.log.push(
                            at,
                            DebugEvent::Gpio {
                                old: *old,
                                new: *new,
                            },
                        );
                    }
                }
                DeviceEvent::UartByte { byte } => {
                    if self.config.io_trace {
                        self.log.push(at, DebugEvent::UartByte { byte: *byte });
                    }
                }
                DeviceEvent::I2c(txn) => {
                    if self.config.io_trace {
                        self.log.push(
                            at,
                            DebugEvent::I2c {
                                x: txn.sample.x,
                                y: txn.sample.y,
                                z: txn.sample.z,
                            },
                        );
                    }
                }
                DeviceEvent::CpuFault(f) => {
                    self.log.push(
                        at,
                        DebugEvent::TargetFault {
                            description: f.to_string(),
                        },
                    );
                }
                // Debug-UART and signal traffic is handled on the tick.
                DeviceEvent::DbgUartByte { .. }
                | DeviceEvent::DebugSignal { .. }
                | DeviceEvent::AdcSelfSample { .. }
                | DeviceEvent::RfTx(_) => {}
            }
        }
    }

    /// Logs a power edge. On a brown-out, additionally tears down any
    /// open session (the target fell out of its service loop; the link
    /// queues died with the power) and parks the in-flight command so it
    /// re-arms when the target next enters a service loop — or aborts
    /// with a typed error if that never happens.
    pub fn observe_power_edge(&mut self, dev: &mut Device, edge: PowerEdge, at: SimTime) {
        let ev = match edge {
            PowerEdge::TurnOn => DebugEvent::TurnOn,
            PowerEdge::BrownOut => DebugEvent::BrownOut,
        };
        self.log.push(at, ev);
        if !matches!(edge, PowerEdge::BrownOut) {
            return;
        }
        if self.session_active() {
            self.log.push(
                at,
                DebugEvent::SessionAborted {
                    reason: "target browned out mid-session".to_string(),
                },
            );
            dev.peripherals.debug.set_session_active(false);
            self.circuit.set_mode(ChargeMode::Idle);
            self.controller = None;
            self.mode = Mode::Passive;
        }
        if let Some(fl) = &mut self.inflight {
            // Torn exchange: whatever reply bytes were in flight are
            // gone. Discard the partial parse and wait for the target's
            // next service-loop entry, bounded by a recovery window.
            fl.decoder.reset();
            fl.resend_at = None;
            fl.await_service = true;
            fl.park_deadline = at.saturating_add(SimTime::from_ns(
                self.config
                    .cmd_timeout
                    .as_ns()
                    .saturating_mul(u64::from(self.config.cmd_retries) + 2),
            ));
        }
    }

    /// Logs an RFID message observed on the monitored RF lines, decoding
    /// it independently of the target.
    pub fn observe_rfid(&mut self, bytes: &[u8], downlink: bool, at: SimTime) {
        let label = if downlink {
            edb_rfid::Command::decode(bytes)
                .map(|c| c.label().to_string())
                .unwrap_or_else(|_| "CORRUPT".to_string())
        } else {
            edb_rfid::TagReply::decode(bytes)
                .map(|r| r.label().to_string())
                .unwrap_or_else(|_| "CORRUPT".to_string())
        };
        let valid = label != "CORRUPT";
        self.log.push(
            at,
            DebugEvent::Rfid {
                label,
                downlink,
                valid,
            },
        );
    }

    /// The debugger firmware loop: run once per device step; internally
    /// rate-limited to the configured tick period (plus the ADC schedule).
    pub fn tick(&mut self, dev: &mut Device, now: SimTime) {
        // Passive ADC sampling runs on its own schedule.
        if now >= self.next_adc {
            self.next_adc = now + self.config.adc_sample_period;
            let v = self.adc.read_volts(dev.v_cap());
            self.last_reading = v;
            if self.config.energy_trace {
                let v_reg = self.adc.read_volts(dev.v_reg());
                self.log
                    .push(now, DebugEvent::EnergySample { v_cap: v, v_reg });
            }
            self.check_energy_breakpoints(dev, now, v);
        }

        if now < self.next_tick {
            return;
        }
        self.next_tick = now + self.config.tick_period;

        self.drain_signals(dev, now);
        self.drain_uart(dev, now);
        self.service_inflight(dev, now);
        self.run_controller(dev, now);
    }

    fn check_energy_breakpoints(&mut self, dev: &mut Device, now: SimTime, v: f64) {
        if !matches!(self.mode, Mode::Passive) {
            return;
        }
        let mut fire_at: Option<f64> = None;
        for bp in &mut self.energy_breakpoints {
            if bp.armed && dev.powered() && v <= bp.threshold {
                bp.armed = false;
                fire_at = Some(bp.threshold);
                break;
            }
            if !bp.armed && v > bp.threshold + 0.05 {
                bp.armed = true; // re-arm with hysteresis
            }
        }
        if let Some(threshold) = fire_at {
            self.log.push(
                now,
                DebugEvent::EnergyBreakpoint {
                    threshold,
                    v_cap: v,
                },
            );
            self.open_session(dev, now, SessionKind::EnergyBreakpoint, v);
            dev.raise_irq();
        }
    }

    fn open_session(&mut self, dev: &mut Device, now: SimTime, kind: SessionKind, saved: f64) {
        self.circuit.set_mode(ChargeMode::Tether);
        dev.peripherals.debug.set_session_active(true);
        self.mode = Mode::Session { kind, saved };
        self.log.push(
            now,
            DebugEvent::SessionOpened {
                reason: format!("{kind:?}"),
            },
        );
        // A command parked by a brown-out re-arms now: the target is
        // back in a service loop, so re-send on the next tick.
        if let Some(fl) = &mut self.inflight {
            if fl.await_service {
                fl.await_service = false;
                fl.resend_at = Some(now);
            }
        }
    }

    /// Opens a console-requested session by interrupting the target, as
    /// the `break` console command does on demand.
    pub fn open_console_session(&mut self, dev: &mut Device, now: SimTime) {
        let v = self.adc.read_volts(dev.v_cap());
        self.open_session(dev, now, SessionKind::Console, v);
        dev.raise_irq();
    }

    fn drain_signals(&mut self, dev: &mut Device, now: SimTime) {
        while let Some(word) = dev.peripherals.debug.signals.pop_front() {
            let (code, id) = protocol::decode_signal(word);
            match code {
                protocol::SIG_ASSERT => {
                    // Keep-alive: tether before the target can brown out.
                    let v = self.adc.read_volts(dev.v_cap());
                    self.log.push(now, DebugEvent::AssertFailed { id });
                    self.open_session(dev, now, SessionKind::Assert { id }, v);
                }
                protocol::SIG_BREAKPOINT => {
                    let v = self.adc.read_volts(dev.v_cap());
                    let enabled = match self.code_breakpoints.get(&id) {
                        Some(None) => true,
                        Some(Some(threshold)) => v <= *threshold,
                        None => false,
                    };
                    if enabled {
                        self.log
                            .push(now, DebugEvent::BreakpointHit { id, v_cap: v });
                        self.open_session(dev, now, SessionKind::Breakpoint { id }, v);
                    } else {
                        // Not interesting: release the service loop.
                        self.send_continue(dev);
                    }
                }
                protocol::SIG_GUARD_BEGIN => {
                    let saved = self.adc.read_volts(dev.v_cap());
                    self.circuit.set_mode(ChargeMode::Tether);
                    dev.peripherals.debug.set_ack(true);
                    self.mode = Mode::Guard { saved };
                    self.log
                        .push(now, DebugEvent::GuardEnter { saved_v: saved });
                }
                protocol::SIG_GUARD_END => {
                    if let Mode::Guard { saved } = self.mode {
                        if self.controller.is_some() {
                            // A console-initiated level operation was in
                            // flight; the guard's mandatory restore
                            // pre-empts it.
                            self.level_op_done = true;
                        }
                        self.controller = Some(LevelController::lower(
                            saved,
                            self.config.control_period,
                            self.config.guard_band,
                            now,
                        ));
                        self.mode = Mode::GuardRestore { saved };
                    }
                }
                _ => {}
            }
        }
    }

    fn drain_uart(&mut self, dev: &mut Device, now: SimTime) {
        while let Some(raw) = dev.peripherals.debug.tx_to_debugger.pop_front() {
            let (delivered, n) = match &mut self.channel_fault {
                Some(fault) => fault.corrupt(raw),
                None => ([raw, 0], 1),
            };
            for &byte in &delivered[..n] {
                self.ingest_target_byte(byte, now);
            }
        }
    }

    /// Routes one target→host byte: into the in-flight reply decoder
    /// when an exchange is live, discarded when the exchange is parked
    /// or backing off (stale bytes of a torn attempt), otherwise into
    /// the printf line buffer.
    fn ingest_target_byte(&mut self, byte: u8, now: SimTime) {
        enum Step {
            Printf,
            Swallowed,
            Complete { word: u16, attempts: u32 },
            BadAck { cmd: &'static str, word: u16 },
            Corrupt { cmd: &'static str, detail: String },
        }
        let step = match &mut self.inflight {
            None => Step::Printf,
            Some(fl) if fl.await_service || fl.resend_at.is_some() => Step::Swallowed,
            Some(fl) => match fl.decoder.push(byte) {
                None => Step::Swallowed,
                Some(Ok(word)) => {
                    let write = matches!(fl.cmd, HostCommand::Write { .. });
                    if write && word != u16::from(protocol::ACK) {
                        Step::BadAck {
                            cmd: fl.cmd.name(),
                            word,
                        }
                    } else {
                        Step::Complete {
                            word,
                            attempts: fl.attempts,
                        }
                    }
                }
                Some(Err(e)) => Step::Corrupt {
                    cmd: fl.cmd.name(),
                    detail: e.to_string(),
                },
            },
        };
        match step {
            Step::Swallowed => {}
            Step::Printf => {
                if byte == b'\n' {
                    let line = String::from_utf8_lossy(&self.printf_buf).into_owned();
                    self.printf_buf.clear();
                    self.log.push(now, DebugEvent::Printf { line });
                } else {
                    self.printf_buf.push(byte);
                }
            }
            Step::Complete { word, attempts } => {
                let fl = self
                    .inflight
                    .take()
                    .expect("a Complete step has an exchange");
                self.finished = Some(Finished {
                    id: fl.id,
                    cmd: fl.cmd,
                    result: Ok(word),
                });
                self.last_outcome = Some(if attempts <= 1 {
                    SessionOutcome::Completed
                } else {
                    SessionOutcome::Retried {
                        retries: attempts - 1,
                    }
                });
            }
            Step::BadAck { cmd, word } => {
                self.retry_or_abort(
                    now,
                    EdbError::CorruptReply {
                        cmd,
                        detail: format!("acknowledge byte {word:#06x}"),
                    },
                );
            }
            Step::Corrupt { cmd, detail } => {
                self.retry_or_abort(now, EdbError::CorruptReply { cmd, detail });
            }
        }
    }

    fn run_controller(&mut self, dev: &mut Device, now: SimTime) {
        let Some(mut ctl) = self.controller else {
            return;
        };
        // The controller owns the circuit while active — except a session
        // tether, which only SessionRestore may override.
        self.circuit.set_mode(ctl.desired_mode());
        let truth = dev.v_cap();
        let adc = &mut self.adc;
        let finished = ctl.update(now, &mut || adc.read_volts(truth));
        self.controller = Some(ctl);
        if finished {
            self.controller = None;
            // A finished level operation must not tear down an active
            // tether (assert keep-alive or energy guard).
            let fallback = match self.mode {
                Mode::Session { .. } | Mode::Guard { .. } => ChargeMode::Tether,
                _ => ChargeMode::Idle,
            };
            self.circuit.set_mode(fallback);
            let v = self.adc.read_volts(dev.v_cap());
            match self.mode {
                Mode::GuardRestore { .. } => {
                    dev.peripherals.debug.set_ack(false);
                    self.mode = Mode::Passive;
                    self.log.push(now, DebugEvent::GuardExit { restored_v: v });
                }
                Mode::SessionRestore { .. } => {
                    dev.peripherals.debug.set_session_active(false);
                    self.send_continue(dev);
                    self.mode = Mode::Passive;
                    self.log
                        .push(now, DebugEvent::SessionClosed { restored_v: v });
                }
                _ => {
                    self.level_op_done = true;
                    self.log.push(
                        now,
                        DebugEvent::LevelReached {
                            target: ctl.target,
                            v_cap: v,
                        },
                    );
                }
            }
        } else if matches!(self.mode, Mode::Session { .. } | Mode::Guard { .. }) {
            // A console charge/discharge during a tethered session or
            // guard must not fight the tether.
            self.circuit.set_mode(ChargeMode::Tether);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = EdbConfig::prototype();
        assert!(c.restore_guard_band > c.guard_band);
        assert!(c.tick_period < SimTime::from_ms(1));
    }

    #[test]
    fn watchpoint_filtering() {
        let mut edb = Edb::new(EdbConfig::prototype());
        let dev = Device::new(edb_device::DeviceConfig::wisp5());
        let ev = [DeviceEvent::CodeMarker { id: 2 }];
        edb.observe(&dev, &ev, SimTime::from_ms(1));
        assert_eq!(edb.log().with_tag("watchpoint").count(), 1);
        edb.enable_watchpoint(1); // now only ID 1 is logged
        edb.observe(&dev, &ev, SimTime::from_ms(2));
        assert_eq!(edb.log().with_tag("watchpoint").count(), 1);
        edb.enable_watchpoint(2);
        edb.observe(&dev, &ev, SimTime::from_ms(3));
        assert_eq!(edb.log().with_tag("watchpoint").count(), 2);
    }

    #[test]
    fn rfid_observation_validates_independently() {
        let mut edb = Edb::new(EdbConfig::prototype());
        let good = edb_rfid::Command::Query { q: 0, session: 0 }.encode();
        edb.observe_rfid(&good, true, SimTime::from_ms(1));
        let mut bad = good.clone();
        bad[1] ^= 0x40;
        edb.observe_rfid(&bad, true, SimTime::from_ms(2));
        let events: Vec<_> = edb.log().with_tag("rfid").collect();
        assert_eq!(events.len(), 2);
        match (&events[0].event, &events[1].event) {
            (
                DebugEvent::Rfid {
                    label: a,
                    valid: va,
                    ..
                },
                DebugEvent::Rfid {
                    label: b,
                    valid: vb,
                    ..
                },
            ) => {
                assert_eq!(a, "CMD_QUERY");
                assert!(*va);
                assert_eq!(b, "CORRUPT");
                assert!(!*vb);
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn printf_lines_assemble_from_bytes() {
        let mut edb = Edb::new(EdbConfig::prototype());
        let mut dev = Device::new(edb_device::DeviceConfig::wisp5());
        for &b in b"v=2a\n" {
            dev.peripherals.debug.tx_to_debugger.push_back(b);
        }
        edb.tick(&mut dev, SimTime::from_ms(1));
        assert_eq!(edb.log().printf_lines(), vec!["v=2a"]);
    }

    #[test]
    fn electrical_current_is_tiny_when_idle() {
        let mut edb = Edb::new(EdbConfig::prototype());
        let drain = edb.drain_for(LineStates::default());
        let i = edb.electrical_current_with_drain(2.2, drain, 1e-6);
        assert!(i.abs() < 1e-6, "idle influence {i} A must be sub-µA");
    }
}
