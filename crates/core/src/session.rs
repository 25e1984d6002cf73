//! The session-level debugging engine: one simulated target, one EDB,
//! one typed command surface.
//!
//! [`DebugSession`] wraps a [`System`] behind the typed
//! [`DebugRequest`] → [`DebugResponse`] API and adds the bookkeeping an
//! interactive frontend needs — breakpoint lists, an event cursor, a
//! status snapshot, disassembly around the resume point. It is the
//! engine the `edb-serve` JSON-RPC server hosts per session and the TUI
//! client renders, and it is deliberately transport-free: everything
//! here is synchronous, deterministic, and steppable, so a scripted
//! session replays bit-identically.
//!
//! [`SessionBuilder`] mirrors [`SystemBuilder`] one level up: it gathers
//! the *session* knobs — command deadlines, retry budget, channel-fault
//! injection, firmware — in one place and assembles the bench in a
//! fixed order, so two sessions built from equal specs behave
//! identically.

use crate::debugger::{DebugRequest, DebugResponse, EdbConfig, RequestId, SessionPoll};
use crate::error::EdbError;
use crate::events::LoggedEvent;
use crate::system::{System, SystemBuilder};
use crate::wiring::ChannelFaultConfig;
use edb_device::DeviceConfig;
use edb_energy::{Harvester, SimTime, TheveninSource};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A point-in-time snapshot of everything a frontend shows about a
/// session. All fields are ground-truth simulation state (the snapshot
/// is observational — taking it perturbs nothing).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    /// Simulation time, nanoseconds.
    pub time_ns: u64,
    /// Storage-capacitor voltage, volts.
    pub v_cap: f64,
    /// Regulated rail voltage, volts.
    pub v_reg: f64,
    /// Whether the target is powered right now.
    pub powered: bool,
    /// Completed power cycles (brown-outs) so far.
    pub reboots: u64,
    /// Instructions retired across all power cycles.
    pub instructions: u64,
    /// Whether an interactive debug session is open (target parked in
    /// its service loop).
    pub session_active: bool,
    /// Whether the target is inside an energy-guarded region.
    pub in_guard: bool,
    /// The program counter, from the simulator's ground truth (use
    /// [`DebugRequest::GetPc`] for the wire-observed resume address).
    pub pc: u16,
}

/// Builder for a [`DebugSession`] — the session-level mirror of
/// [`SystemBuilder`].
///
/// Where `SystemBuilder` assembles the electrical bench (device, world,
/// debugger attachment), `SessionBuilder` collects the knobs a debugging
/// *session* cares about — per-command deadline, retry budget,
/// channel-fault injection, the firmware to flash — and applies them in
/// one place. Defaults are the paper-prototype configuration over a
/// stiff Thévenin bench supply.
///
/// # Example
///
/// ```
/// use edb_core::SessionBuilder;
/// use edb_energy::SimTime;
///
/// let session = SessionBuilder::new()
///     .deadline(SimTime::from_ms(5))
///     .retries(3)
///     .firmware(
///         r#"
///         .org 0x4400
///     main:
///         movi sp, 0x2400
///     loop:
///         movi r0, 1
///         call __edb_assert_fail
///         jmp  loop
///         .org 0xFFFE
///         .word main
///         "#,
///     )
///     .build()
///     .expect("firmware assembles");
/// assert!(!session.status().session_active);
/// ```
pub struct SessionBuilder {
    device: DeviceConfig,
    harvester: Option<Box<dyn Harvester>>,
    rfid_distance: Option<f64>,
    seed: u64,
    edb_config: EdbConfig,
    channel_fault: Option<ChannelFaultConfig>,
    source: Option<String>,
    image: Option<edb_mcu::Image>,
    ckpt: Option<edb_runtime::ckpt::CkptConfig>,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("seed", &self.seed)
            .field(
                "has_firmware",
                &(self.source.is_some() || self.image.is_some()),
            )
            .finish_non_exhaustive()
    }
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder::new()
    }
}

impl SessionBuilder {
    /// Starts a session spec with the defaults: a WISP-class target on a
    /// stiff Thévenin bench supply, EDB attached with the prototype
    /// configuration, a quiet channel, and no firmware.
    pub fn new() -> Self {
        SessionBuilder {
            device: DeviceConfig::wisp5(),
            harvester: None,
            rfid_distance: None,
            seed: 0,
            edb_config: EdbConfig::prototype(),
            channel_fault: None,
            source: None,
            image: None,
            ckpt: None,
        }
    }

    /// Attaches a host-side checkpoint engine from the strategy zoo
    /// (see [`SystemBuilder::with_checkpoint_strategy`]). Recorded
    /// sessions carry this in their spec so replays race the same
    /// strategy.
    pub fn with_checkpoint_strategy(mut self, config: edb_runtime::ckpt::CkptConfig) -> Self {
        self.ckpt = Some(config);
        self
    }

    /// Overrides the target device configuration.
    pub fn device(mut self, config: DeviceConfig) -> Self {
        self.device = config;
        self
    }

    /// Powers the target from a plain harvester instead of the default
    /// bench supply.
    pub fn harvester(mut self, harvester: impl Harvester + 'static) -> Self {
        self.harvester = Some(Box::new(harvester));
        self.rfid_distance = None;
        self
    }

    /// Powers the target from an RFID reader's carrier at `distance_m`
    /// metres — the paper's experimental setup.
    pub fn rfid(mut self, distance_m: f64) -> Self {
        self.rfid_distance = Some(distance_m);
        self.harvester = None;
        self
    }

    /// Seeds every stochastic element of the bench (ADC noise, retry
    /// backoff, RF channel).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the whole debugger configuration at once. The granular
    /// setters ([`deadline`](SessionBuilder::deadline),
    /// [`retries`](SessionBuilder::retries), …) edit this same config.
    pub fn edb_config(mut self, config: EdbConfig) -> Self {
        self.edb_config = config;
        self
    }

    /// Per-attempt sim-time deadline for a framed debug command.
    pub fn deadline(mut self, timeout: SimTime) -> Self {
        self.edb_config.cmd_timeout = timeout;
        self
    }

    /// Bounded re-sends after a command's first attempt.
    pub fn retries(mut self, retries: u32) -> Self {
        self.edb_config.cmd_retries = retries;
        self
    }

    /// Minimum backoff before a re-send (the torn-reply flush window).
    pub fn retry_flush(mut self, flush: SimTime) -> Self {
        self.edb_config.retry_flush = flush;
        self
    }

    /// Injects noise (bit flips, drops, duplicates) on both directions
    /// of the debug UART.
    pub fn channel_fault(mut self, config: ChannelFaultConfig) -> Self {
        self.channel_fault = Some(config);
        self
    }

    /// Flashes firmware from assembly source. The source is wrapped
    /// with the `libEDB` runtime ([`crate::libedb::wrap_program`]) and
    /// assembled at [`build`](SessionBuilder::build) time.
    pub fn firmware(mut self, source: &str) -> Self {
        self.source = Some(source.to_string());
        self.image = None;
        self
    }

    /// Flashes an already-assembled image (no `libEDB` wrapping).
    pub fn image(mut self, image: edb_mcu::Image) -> Self {
        self.image = Some(image);
        self.source = None;
        self
    }

    /// Assembles the firmware (if given as source), stands up the bench,
    /// and flashes the target. Assembly failures surface as
    /// [`EdbError::Device`].
    pub fn build(self) -> Result<DebugSession, EdbError> {
        let image = match (self.image, self.source) {
            (Some(image), _) => Some(image),
            (None, Some(source)) => Some(
                edb_mcu::asm::assemble(&crate::libedb::wrap_program(&source)).map_err(|e| {
                    EdbError::Device {
                        detail: format!("firmware does not assemble: {e}"),
                    }
                })?,
            ),
            (None, None) => None,
        };
        let mut builder = SystemBuilder::new(self.device)
            .seed(self.seed)
            .edb_config(self.edb_config);
        builder = match (self.harvester, self.rfid_distance) {
            (Some(h), _) => builder.harvester(h),
            (None, Some(d)) => builder.rfid(d),
            (None, None) => builder.harvester(TheveninSource::new(3.2, 1500.0)),
        };
        if let Some(fault) = self.channel_fault {
            builder = builder.channel_fault(fault);
        }
        if let Some(ckpt) = self.ckpt {
            builder = builder.with_checkpoint_strategy(ckpt);
        }
        let mut sys = builder.build();
        if let Some(image) = &image {
            sys.flash(image);
        }
        Ok(DebugSession {
            sys,
            breakpoints: BTreeMap::new(),
            energy_guards: Vec::new(),
            tape: None,
        })
    }
}

/// One hosted debugging session: a simulated target with EDB attached,
/// driven through the typed engine API.
///
/// Everything a frontend does flows through this type: submit or
/// perform typed requests, advance simulated time, manage breakpoints,
/// and read back events and status. Time only advances through the
/// explicit stepping methods, so a caller replaying the same calls gets
/// the same bytes.
#[derive(Debug)]
pub struct DebugSession {
    sys: System,
    /// Code breakpoints this session enabled: ID → optional energy
    /// threshold (a combined breakpoint).
    breakpoints: BTreeMap<u8, Option<f64>>,
    /// Energy-guard thresholds armed through this session, volts.
    energy_guards: Vec<f64>,
    /// The active recording, when one is (see [`crate::replay`]).
    pub(crate) tape: Option<crate::replay::Tape>,
}

impl DebugSession {
    /// Starts a session spec (see [`SessionBuilder`]).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The underlying bench, for observational access.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable bench access, for harnesses that need to reach around
    /// the session surface (fault injection, recorder harvest).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sys.now()
    }

    /// Submits a typed request without advancing time. The caller owns
    /// the stepping loop: interleave [`step`](DebugSession::step) (or
    /// [`advance`](DebugSession::advance)) with
    /// [`poll`](DebugSession::poll) until the request resolves.
    pub fn submit(&mut self, request: DebugRequest) -> Result<RequestId, EdbError> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::Submit { request });
        let result = (|| {
            let op = request.name();
            let Some(edb) = self.sys.edb() else {
                return Err(EdbError::NotAttached { op });
            };
            if !edb.session_active() {
                return Err(EdbError::NoSession { op });
            }
            let now = self.sys.now();
            let (edb, dev) = self.sys.edb_and_device().expect("attached");
            Ok(edb.submit(dev, request, now))
        })();
        crate::replay::tape_boundary(self);
        result
    }

    /// Polls a submitted request. Does not advance time.
    pub fn poll(&mut self, id: RequestId) -> SessionPoll<DebugResponse> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::Poll { id });
        let result = match self.sys.edb() {
            Some(_) => self.sys.edb_mut().poll(id),
            None => SessionPoll::Superseded,
        };
        crate::replay::tape_boundary(self);
        result
    }

    /// One complete typed exchange: submit, then drive the bench until
    /// the state machine reports a typed response or a typed abort.
    pub fn perform(&mut self, request: DebugRequest) -> Result<DebugResponse, EdbError> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::Perform { request });
        let result = self.sys.perform(request);
        crate::replay::tape_boundary(self);
        result
    }

    /// Advances the simulation by one device step.
    pub fn step(&mut self) {
        crate::replay::tape_op(self, &crate::replay::SessionOp::Step { n: 1 });
        self.sys.step();
        crate::replay::tape_boundary(self);
    }

    /// Advances the simulation by `duration`.
    pub fn advance(&mut self, duration: SimTime) {
        crate::replay::tape_op(
            self,
            &crate::replay::SessionOp::Advance {
                ns: duration.as_ns(),
            },
        );
        self.sys.run_for(duration);
        crate::replay::tape_boundary(self);
    }

    /// Runs until an interactive session opens, up to `timeout`.
    /// Returns whether one is open.
    pub fn run_until_session(&mut self, timeout: SimTime) -> bool {
        crate::replay::tape_op(
            self,
            &crate::replay::SessionOp::RunUntilSession {
                timeout_ns: timeout.as_ns(),
            },
        );
        let result = self.sys.wait_for_session(timeout);
        crate::replay::tape_boundary(self);
        result
    }

    /// Resumes the target from an open session (restore energy, release
    /// the service loop) and waits for the session to close.
    pub fn resume(&mut self) -> Result<(), EdbError> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::Resume);
        let result = self.sys.resume();
        crate::replay::tape_boundary(self);
        result
    }

    /// Charges the target to `volts` and waits for convergence.
    pub fn charge_to(&mut self, volts: f64) -> Result<f64, EdbError> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::ChargeTo { volts });
        let result = self.sys.charge_to(volts);
        crate::replay::tape_boundary(self);
        result
    }

    /// Discharges the target to `volts` and waits for convergence.
    pub fn discharge_to(&mut self, volts: f64) -> Result<f64, EdbError> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::DischargeTo { volts });
        let result = self.sys.discharge_to(volts);
        crate::replay::tape_boundary(self);
        result
    }

    /// Enables a code breakpoint, optionally conditioned on the energy
    /// level (a combined breakpoint).
    pub fn set_breakpoint(&mut self, id: u8, energy: Option<f64>) -> Result<(), EdbError> {
        crate::replay::tape_op(
            self,
            &crate::replay::SessionOp::SetBreakpoint { id, energy },
        );
        let result = (|| {
            let Some((edb, dev)) = self.sys.edb_and_device() else {
                return Err(EdbError::NotAttached {
                    op: "set_breakpoint",
                });
            };
            edb.enable_breakpoint(dev, id, energy);
            self.breakpoints.insert(id, energy);
            Ok(())
        })();
        crate::replay::tape_boundary(self);
        result
    }

    /// Disables a code breakpoint.
    pub fn clear_breakpoint(&mut self, id: u8) -> Result<(), EdbError> {
        crate::replay::tape_op(self, &crate::replay::SessionOp::ClearBreakpoint { id });
        let result = (|| {
            let Some((edb, dev)) = self.sys.edb_and_device() else {
                return Err(EdbError::NotAttached {
                    op: "clear_breakpoint",
                });
            };
            edb.disable_breakpoint(dev, id);
            self.breakpoints.remove(&id);
            Ok(())
        })();
        crate::replay::tape_boundary(self);
        result
    }

    /// The code breakpoints this session enabled: `(id, energy)` pairs
    /// in ID order.
    pub fn breakpoints(&self) -> Vec<(u8, Option<f64>)> {
        self.breakpoints.iter().map(|(&id, &e)| (id, e)).collect()
    }

    /// Arms an energy breakpoint at `threshold` volts (the energy
    /// guard of the console's `break energy` command).
    pub fn arm_energy_guard(&mut self, threshold: f64) -> Result<(), EdbError> {
        crate::replay::tape_op(
            self,
            &crate::replay::SessionOp::ArmEnergyGuard { volts: threshold },
        );
        let result = (|| {
            if self.sys.edb().is_none() {
                return Err(EdbError::NotAttached {
                    op: "arm_energy_guard",
                });
            }
            self.sys.edb_mut().arm_energy_breakpoint(threshold);
            self.energy_guards.push(threshold);
            Ok(())
        })();
        crate::replay::tape_boundary(self);
        result
    }

    /// The energy-guard thresholds armed through this session, volts,
    /// in arming order.
    pub fn energy_guards(&self) -> &[f64] {
        &self.energy_guards
    }

    /// Every event the debugger has logged so far. Frontends keep their
    /// own cursor into this slice, so multiple observers (connections)
    /// can stream the same session independently.
    pub fn events(&self) -> &[LoggedEvent] {
        match self.sys.edb() {
            Some(edb) => edb.log().events(),
            None => &[],
        }
    }

    /// The observational status snapshot.
    pub fn status(&self) -> SessionStatus {
        let dev = self.sys.device();
        let edb = self.sys.edb();
        SessionStatus {
            time_ns: self.sys.now().as_ns(),
            v_cap: dev.v_cap(),
            v_reg: dev.v_reg(),
            powered: dev.powered(),
            reboots: dev.reboots(),
            instructions: dev.total_instructions(),
            session_active: edb.is_some_and(|e| e.session_active()),
            in_guard: edb.is_some_and(|e| e.in_guard()),
            pc: dev.cpu().pc,
        }
    }

    /// Overwrites the session-level bookkeeping (breakpoint list, guard
    /// thresholds) when a snapshot restore rewinds the bench underneath
    /// it (see [`crate::replay`]).
    pub(crate) fn restore_bookkeeping(
        &mut self,
        breakpoints: BTreeMap<u8, Option<f64>>,
        energy_guards: Vec<f64>,
    ) {
        self.breakpoints = breakpoints;
        self.energy_guards = energy_guards;
    }

    /// Resolves a symbol from the flashed image.
    pub fn symbol(&self, name: &str) -> Option<u16> {
        self.sys.symbol(name)
    }

    /// Statically analyzes the flashed firmware from `entry` (default:
    /// the current PC), assuming the capacitor starts at `v_start`
    /// volts (default: the live capacitor voltage): CFG recovery, WCEC
    /// bound, charge-cycle verdict, and a checkpoint-placement
    /// advisory, bundled as one serializable report. Reads the
    /// device's *actual* memory, so the analysis covers what is really
    /// flashed (patches and corruption included), not the original
    /// image.
    pub fn analyze(&self, entry: Option<u16>, v_start: Option<f64>) -> edb_analyze::AnalysisReport {
        let dev = self.sys.device();
        let entry = entry.unwrap_or(dev.cpu().pc);
        let v_start = v_start.unwrap_or_else(|| dev.v_cap());
        let config = dev.config();
        edb_analyze::analyze_memory(
            &format!("session@{entry:#06x}"),
            dev.mem(),
            entry,
            &config,
            v_start,
        )
    }

    /// Disassembles `count` instructions of target memory starting at
    /// `addr`, from the device's *actual* memory so corruption is
    /// visible.
    pub fn disasm(&self, addr: u16, count: usize) -> Vec<(u16, String)> {
        let mut bytes = Vec::with_capacity(count * 4);
        for k in 0..(count * 4) as u16 {
            bytes.push(self.sys.device().mem().peek_byte(addr.wrapping_add(k)));
        }
        edb_mcu::asm::disassemble(&bytes, addr)
            .into_iter()
            .take(count)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASSERT_APP: &str = r#"
        .org 0x4400
    main:
        movi sp, 0x2400
        movi r1, 0x6000
        movi r0, 0x1101
        st   [r1], r0
    again:
        movi r0, 1
        call __edb_assert_fail
        jmp  again
        .org 0xFFFE
        .word main
        "#;

    fn open_session() -> DebugSession {
        let mut s = SessionBuilder::new()
            .harvester(TheveninSource::new(3.2, 220.0))
            .firmware(ASSERT_APP)
            .build()
            .expect("firmware assembles");
        assert!(s.run_until_session(SimTime::from_secs(2)));
        s
    }

    #[test]
    fn submit_poll_resolves_a_read() {
        let mut s = open_session();
        let id = s.submit(DebugRequest::ReadWord { addr: 0x6000 }).unwrap();
        let deadline = s.now() + SimTime::from_ms(200);
        loop {
            match s.poll(id) {
                SessionPoll::Ready(outcome) => {
                    assert_eq!(outcome, Ok(DebugResponse::Word { value: 0x1101 }));
                    break;
                }
                SessionPoll::Pending { .. } => {
                    assert!(s.now() < deadline, "exchange stuck");
                    s.step();
                }
                SessionPoll::Superseded => panic!("nobody preempted this request"),
            }
        }
        // The result was consumed: the same ID now polls as superseded.
        assert_eq!(s.poll(id), SessionPoll::Superseded);
    }

    #[test]
    fn perform_round_trips_write_and_pc() {
        let mut s = open_session();
        assert_eq!(
            s.perform(DebugRequest::WriteWord {
                addr: 0x6000,
                value: 0xBEEF,
            }),
            Ok(DebugResponse::WriteAck)
        );
        assert_eq!(
            s.perform(DebugRequest::ReadWord { addr: 0x6000 }),
            Ok(DebugResponse::Word { value: 0xBEEF })
        );
        assert!(matches!(
            s.perform(DebugRequest::GetPc),
            Ok(DebugResponse::Pc { .. })
        ));
    }

    #[test]
    fn submit_without_a_session_is_a_typed_error() {
        let mut s = SessionBuilder::new()
            .firmware(ASSERT_APP)
            .build()
            .expect("assembles");
        assert_eq!(
            s.submit(DebugRequest::GetPc),
            Err(EdbError::NoSession { op: "GET_PC" })
        );
    }

    #[test]
    fn a_later_submit_supersedes_the_earlier_request() {
        let mut s = open_session();
        let first = s.submit(DebugRequest::ReadWord { addr: 0x6000 }).unwrap();
        let second = s.submit(DebugRequest::GetPc).unwrap();
        assert_ne!(first, second);
        assert_eq!(s.poll(first), SessionPoll::Superseded);
        assert!(matches!(s.poll(second), SessionPoll::Pending { .. }));
    }

    #[test]
    fn breakpoint_bookkeeping_lists_in_id_order() {
        let mut s = open_session();
        s.set_breakpoint(3, None).unwrap();
        s.set_breakpoint(1, Some(2.1)).unwrap();
        assert_eq!(s.breakpoints(), vec![(1, Some(2.1)), (3, None)]);
        s.clear_breakpoint(3).unwrap();
        assert_eq!(s.breakpoints(), vec![(1, Some(2.1))]);
    }

    #[test]
    fn builder_deadline_and_retries_land_in_the_edb_config() {
        let s = SessionBuilder::new()
            .deadline(SimTime::from_ms(2))
            .retries(7)
            .build()
            .expect("builds");
        let config = s.system().edb().expect("attached").config();
        assert_eq!(config.cmd_timeout, SimTime::from_ms(2));
        assert_eq!(config.cmd_retries, 7);
    }

    #[test]
    fn equal_specs_build_equal_sessions() {
        let run = || {
            let mut s = SessionBuilder::new()
                .harvester(TheveninSource::new(3.2, 220.0))
                .seed(9)
                .firmware(ASSERT_APP)
                .build()
                .expect("assembles");
            assert!(s.run_until_session(SimTime::from_secs(2)));
            let pc = s.perform(DebugRequest::GetPc);
            (s.now(), s.status(), pc)
        };
        assert_eq!(run(), run());
    }
}
