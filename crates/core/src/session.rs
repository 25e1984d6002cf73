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
//! One type describes a session: [`SessionSpec`](crate::SessionSpec)
//! (device, energy world, seed, debugger config, channel faults,
//! checkpoint strategy, firmware) builds the bench through
//! [`SystemBuilder`](crate::SystemBuilder) in a fixed order, so two sessions built from equal specs behave
//! identically, and the same spec rides in every recording. As on the
//! paper's board, the debugger ([`Edb`]) holds the breakpoint and
//! energy-guard state and writes the enable mask into the target; the
//! session only reads it back. Every recorded call goes through one
//! wrapper that puts the op on the tape and marks its boundary.

use crate::debugger::{DebugRequest, DebugResponse, Edb, RequestId, SessionPoll};
use crate::error::EdbError;
use crate::events::EventLog;
use crate::replay::SessionOp;
use crate::system::System;
use edb_energy::SimTime;
use serde::{Deserialize, Serialize};

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

/// One hosted debugging session: a simulated target with EDB attached,
/// driven through the typed engine API.
///
/// Everything a frontend does flows through this type: submit or
/// perform typed requests, advance simulated time, manage breakpoints,
/// and read back events and status. Time only advances through the
/// explicit stepping methods, so a caller replaying the same calls gets
/// the same bytes. Build one from a [`SessionSpec`](crate::SessionSpec).
#[derive(Debug)]
pub struct DebugSession {
    sys: System,
    /// The active recording, when one is (see [`crate::replay`]).
    pub(crate) tape: Option<crate::replay::Tape>,
}

impl DebugSession {
    /// Wraps a flashed bench, not yet recording.
    pub(crate) fn new(sys: System) -> Self {
        DebugSession { sys, tape: None }
    }

    /// Runs one session call on the bench, recording it: the op goes on
    /// the tape (stamped with the pre-call time) before `body` runs, and
    /// the op boundary is marked after. Both are no-ops when the session
    /// is not recording.
    fn recorded<R>(&mut self, op: SessionOp, body: impl FnOnce(&mut System) -> R) -> R {
        crate::replay::tape_op(self, &op);
        let result = body(&mut self.sys);
        crate::replay::tape_boundary(self);
        result
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
        self.recorded(SessionOp::Submit { request }, |sys| {
            let op = request.name();
            let now = sys.now();
            let (edb, dev) = sys.edb_and_device().ok_or(EdbError::NotAttached { op })?;
            if !edb.session_active() {
                return Err(EdbError::NoSession { op });
            }
            Ok(edb.submit(dev, request, now))
        })
    }

    /// Polls a submitted request. Does not advance time.
    pub fn poll(&mut self, id: RequestId) -> SessionPoll<DebugResponse> {
        self.recorded(SessionOp::Poll { id }, |sys| {
            sys.edb_and_device()
                .map_or(SessionPoll::Superseded, |(edb, _)| edb.poll(id))
        })
    }

    /// One complete typed exchange: submit, then drive the bench until
    /// the state machine reports a typed response or a typed abort.
    pub fn perform(&mut self, request: DebugRequest) -> Result<DebugResponse, EdbError> {
        self.recorded(SessionOp::Perform { request }, |sys| sys.perform(request))
    }

    /// Advances the simulation by one device step.
    pub fn step(&mut self) {
        self.recorded(SessionOp::Step { n: 1 }, System::step);
    }

    /// Advances the simulation by `duration`.
    pub fn advance(&mut self, duration: SimTime) {
        let op = SessionOp::Advance {
            ns: duration.as_ns(),
        };
        let end = self.now() + duration;
        self.recorded_stepping(op, end);
    }

    /// Runs until an interactive session opens, up to `timeout`.
    /// Returns whether one is open.
    pub fn run_until_session(&mut self, timeout: SimTime) -> bool {
        let op = SessionOp::RunUntilSession {
            timeout_ns: timeout.as_ns(),
        };
        let end = self.now().saturating_add(timeout);
        self.recorded_stepping(op, end)
    }

    /// [`recorded`](Self::recorded) for the two stepping ops, which run
    /// to the absolute instant `end` through
    /// [`run_stepping`](Self::run_stepping).
    fn recorded_stepping(&mut self, op: SessionOp, end: SimTime) -> bool {
        crate::replay::tape_op(self, &op);
        let opened = self.run_stepping(&op, end);
        crate::replay::tape_boundary(self);
        opened
    }

    /// Runs a stepping op from now to the instant `end`: an `Advance`
    /// runs to it, a `RunUntilSession` stops early when a session opens
    /// (and returns `true`). While recording, the run stops at every
    /// keyframe instant before `end` to take a keyframe and then goes on
    /// to the same `end`; a stop is one more span break, so the run lands
    /// on the same bits as without it.
    pub(crate) fn run_stepping(&mut self, op: &SessionOp, end: SimTime) -> bool {
        let waits = matches!(op, SessionOp::RunUntilSession { .. });
        let chunk = |sys: &mut System, until: SimTime| {
            if waits {
                sys.wait_for_session_until(until)
            } else {
                sys.run_to(until);
                false
            }
        };
        while let Some(at) = crate::replay::next_keyframe(self).filter(|&at| at < end) {
            if chunk(&mut self.sys, at) {
                return true;
            }
            if self.now() >= end {
                break;
            }
            crate::replay::push_keyframe(self, true);
        }
        chunk(&mut self.sys, end)
    }

    /// Resumes the target from an open session (restore energy, release
    /// the service loop) and waits for the session to close.
    pub fn resume(&mut self) -> Result<(), EdbError> {
        self.recorded(SessionOp::Resume, System::resume)
    }

    /// Charges the target to `volts` and waits for convergence.
    pub fn charge_to(&mut self, volts: f64) -> Result<f64, EdbError> {
        self.recorded(SessionOp::ChargeTo { volts }, |sys| sys.charge_to(volts))
    }

    /// Discharges the target to `volts` and waits for convergence.
    pub fn discharge_to(&mut self, volts: f64) -> Result<f64, EdbError> {
        self.recorded(SessionOp::DischargeTo { volts }, |sys| {
            sys.discharge_to(volts)
        })
    }

    /// Enables a code breakpoint, optionally conditioned on the energy
    /// level (a combined breakpoint).
    pub fn set_breakpoint(&mut self, id: u8, energy: Option<f64>) -> Result<(), EdbError> {
        self.recorded(SessionOp::SetBreakpoint { id, energy }, |sys| {
            let (edb, dev) = sys.edb_and_device().ok_or(EdbError::NotAttached {
                op: "set_breakpoint",
            })?;
            edb.enable_breakpoint(dev, id, energy);
            Ok(())
        })
    }

    /// Disables a code breakpoint.
    pub fn clear_breakpoint(&mut self, id: u8) -> Result<(), EdbError> {
        self.recorded(SessionOp::ClearBreakpoint { id }, |sys| {
            let (edb, dev) = sys.edb_and_device().ok_or(EdbError::NotAttached {
                op: "clear_breakpoint",
            })?;
            edb.disable_breakpoint(dev, id);
            Ok(())
        })
    }

    /// The debugger's enabled code breakpoints: `(id, energy)` pairs in
    /// ID order.
    pub fn breakpoints(&self) -> Vec<(u8, Option<f64>)> {
        self.sys.edb().map_or_else(Vec::new, Edb::code_breakpoints)
    }

    /// Arms an energy breakpoint at `threshold` volts (the energy
    /// guard of the console's `break energy` command).
    pub fn arm_energy_guard(&mut self, threshold: f64) -> Result<(), EdbError> {
        self.recorded(SessionOp::ArmEnergyGuard { volts: threshold }, |sys| {
            let (edb, _) = sys.edb_and_device().ok_or(EdbError::NotAttached {
                op: "arm_energy_guard",
            })?;
            edb.arm_energy_breakpoint(threshold);
            Ok(())
        })
    }

    /// The debugger's energy-guard thresholds, volts, in arming order.
    pub fn energy_guards(&self) -> Vec<f64> {
        self.sys.edb().map_or_else(Vec::new, Edb::energy_thresholds)
    }

    /// Every event the debugger has logged so far (an empty log without
    /// a debugger). Frontends keep their own cursor into it
    /// ([`EventLog::events_from`]), so multiple observers (connections)
    /// can stream the same session independently.
    pub fn events(&self) -> &EventLog {
        static NONE: EventLog = EventLog::new();
        self.sys.edb().map_or(&NONE, Edb::log)
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
    use crate::replay::{HarvesterSpec, SessionSpec, WorldSpec};
    use crate::system::SystemBuilder;
    use crate::wiring::ChannelFaultConfig;
    use edb_device::DeviceConfig;
    use edb_energy::{ConstantCurrent, Fading, SolarHarvester, TheveninSource, TraceHarvester};
    use edb_runtime::ckpt::{CkptConfig, StrategyKind};

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

    /// The default bench on a stiffer (220 Ω) supply.
    fn stiff_spec() -> SessionSpec {
        SessionSpec {
            world: WorldSpec::Harvester {
                spec: HarvesterSpec::Thevenin {
                    v_oc: 3.2,
                    r_src: 220.0,
                },
            },
            ..SessionSpec::bench(ASSERT_APP)
        }
    }

    fn open_session() -> DebugSession {
        let mut s = stiff_spec().build().expect("firmware assembles");
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
        let mut s = SessionSpec::bench(ASSERT_APP).build().expect("assembles");
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
        s.arm_energy_guard(2.2).unwrap();
        s.arm_energy_guard(1.9).unwrap();
        assert_eq!(s.energy_guards(), vec![2.2, 1.9]);
    }

    #[test]
    fn equal_specs_build_equal_sessions() {
        let run = || {
            let mut s = SessionSpec {
                seed: 9,
                ..stiff_spec()
            }
            .build()
            .expect("assembles");
            assert!(s.run_until_session(SimTime::from_secs(2)));
            let pc = s.perform(DebugRequest::GetPc);
            (s.now(), s.status(), pc)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spec_built_sessions_equal_hand_built_benches() {
        let harvester = |spec| WorldSpec::Harvester { spec };
        let samples = vec![(SimTime::ZERO, 3.0), (SimTime::from_ms(60), 2.4)];
        let hand = || SystemBuilder::new(DeviceConfig::wisp5()).seed(3);
        let fault = ChannelFaultConfig::noisy(2);
        let ckpt = CkptConfig::new(StrategyKind::Differential);
        let cases = [
            (
                harvester(HarvesterSpec::Constant { amps: 1e-3 }),
                hand().harvester(ConstantCurrent::new(1e-3)),
            ),
            (
                harvester(HarvesterSpec::Thevenin {
                    v_oc: 3.2,
                    r_src: 1500.0,
                }),
                hand().harvester(TheveninSource::new(3.2, 1500.0)),
            ),
            (
                harvester(HarvesterSpec::Solar {
                    v_oc_peak: 3.0,
                    r_src: 800.0,
                    period_s: 0.05,
                    seed: 4,
                }),
                hand().harvester(SolarHarvester::new(3.0, 800.0, 0.05, 4)),
            ),
            (
                harvester(HarvesterSpec::harvested(9)),
                hand().harvester(Fading::new(TheveninSource::new(3.2, 1500.0), 0.05, 9)),
            ),
            (
                harvester(HarvesterSpec::Trace {
                    samples: samples.clone(),
                    r_src: 1000.0,
                }),
                hand().harvester(TraceHarvester::new(samples, 1000.0)),
            ),
            (WorldSpec::Rfid { distance_m: 1.5 }, hand().rfid(1.5)),
        ];
        let image = edb_mcu::asm::assemble(&crate::libedb::wrap_program(ASSERT_APP)).unwrap();
        let mut digests = Vec::new();
        for (k, (world, hand_built)) in cases.into_iter().enumerate() {
            // The last two worlds also carry a checkpoint engine and a
            // noisy debug UART, so both knobs are checked too.
            let extras = k >= 4;
            let spec = SessionSpec {
                world,
                seed: 3,
                channel_fault: extras.then_some(fault),
                ckpt: extras.then_some(ckpt),
                ..SessionSpec::bench(ASSERT_APP)
            };
            let mut session = spec.build().expect("builds");
            let mut sys = if extras {
                hand_built
                    .channel_fault(fault)
                    .with_checkpoint_strategy(ckpt)
            } else {
                hand_built
            }
            .build();
            sys.flash(&image);
            session.advance(SimTime::from_ms(120));
            sys.run_for(SimTime::from_ms(120));
            let digest = session.system().state_digest();
            assert_eq!(digest, sys.state_digest(), "{:?}", spec.world);
            digests.push(digest);
        }
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 6, "every world runs differently");
    }
}
