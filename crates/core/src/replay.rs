//! Deterministic record/replay and time travel for debug sessions.
//!
//! Everything below the [`DebugSession`] API is a pure function of the
//! session spec and the seed, so a recording needs only three things to
//! reconstruct *any* instant of a run:
//!
//! 1. the rebuildable [`SessionSpec`] (device, world, seeds, firmware),
//! 2. the sequence of typed [`SessionOp`]s the frontend issued — the
//!    run's only inputs, and
//! 3. periodic full-state snapshots (every `stride` operations)
//!    so replay can restore near a target instant instead of
//!    re-executing from the beginning.
//!
//! On top of that substrate sit the time-travel verbs —
//! [`DebugSession::goto_time`], [`DebugSession::step_back`],
//! [`DebugSession::reverse_continue`] — and the divergence checker
//! [`verify`], which re-executes a whole recording and asserts *bit*
//! identity (IEEE-754 bit patterns included) against every recorded
//! snapshot and digest.
//!
//! Worlds that serialize completely (every plain harvester) snapshot in
//! full; RFID worlds record state *digests* only and travel by
//! re-execution from the start. The container format itself — canonical
//! value encoding, FNV-digested chunks — lives in the `edb-replay`
//! crate.

use crate::debugger::{DebugRequest, EdbConfig, RequestId};
use crate::error::EdbError;
use crate::fleet::{FleetConfig, FleetSim};
use crate::session::{DebugSession, SessionBuilder};
use crate::system::SystemState;
use crate::wiring::ChannelFaultConfig;
use edb_device::DeviceConfig;
use edb_energy::{
    ConstantCurrent, Fading, SimTime, SolarHarvester, TheveninSource, TraceHarvester,
};
pub use edb_replay::Recording;
use edb_replay::{digest, CanonicalDigest, Entry, SnapshotState};
use edb_runtime::ckpt::CkptConfig;
use serde::{DeError, Deserialize, Serialize, Sink, Value};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The rebuildable session spec
// ---------------------------------------------------------------------

/// A rebuildable description of a harvester — enough to reconstruct the
/// exact energy environment from a recording in a fresh process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HarvesterSpec {
    /// [`ConstantCurrent`].
    Constant {
        /// Source current, amps.
        amps: f64,
    },
    /// [`TheveninSource`] — the stiff bench supply.
    Thevenin {
        /// Open-circuit voltage, volts.
        v_oc: f64,
        /// Source resistance, ohms.
        r_src: f64,
    },
    /// [`SolarHarvester`].
    Solar {
        /// Peak open-circuit voltage, volts.
        v_oc_peak: f64,
        /// Source resistance, ohms.
        r_src: f64,
        /// Occlusion period, seconds.
        period_s: f64,
        /// Occlusion RNG seed.
        seed: u64,
    },
    /// [`Fading`] multipath over a Thévenin source — the standard
    /// harvested supply of the experiment harnesses
    /// (`Fading::new(TheveninSource::new(v_oc, r_src), sigma, seed)`).
    FadingThevenin {
        /// Inner open-circuit voltage, volts.
        v_oc: f64,
        /// Inner source resistance, ohms.
        r_src: f64,
        /// Log-normal fade sigma.
        sigma: f64,
        /// Fade RNG seed.
        seed: u64,
    },
    /// [`TraceHarvester`] — recorded `(time, open-circuit volts)`
    /// samples, embedded so the recording is self-contained.
    Trace {
        /// The trace samples.
        samples: Vec<(SimTime, f64)>,
        /// Source resistance, ohms.
        r_src: f64,
    },
}

impl HarvesterSpec {
    /// The standard harvested supply used across the experiment
    /// harnesses: 5 % log-normal fading over a 3.2 V / 1.5 kΩ Thévenin
    /// source (the fig. 7 energy environment).
    pub fn harvested(seed: u64) -> Self {
        HarvesterSpec::FadingThevenin {
            v_oc: 3.2,
            r_src: 1500.0,
            sigma: 0.05,
            seed,
        }
    }

    /// Applies this spec to a [`SessionBuilder`].
    fn install(&self, builder: SessionBuilder) -> SessionBuilder {
        match self {
            HarvesterSpec::Constant { amps } => builder.harvester(ConstantCurrent::new(*amps)),
            HarvesterSpec::Thevenin { v_oc, r_src } => {
                builder.harvester(TheveninSource::new(*v_oc, *r_src))
            }
            HarvesterSpec::Solar {
                v_oc_peak,
                r_src,
                period_s,
                seed,
            } => builder.harvester(SolarHarvester::new(*v_oc_peak, *r_src, *period_s, *seed)),
            HarvesterSpec::FadingThevenin {
                v_oc,
                r_src,
                sigma,
                seed,
            } => builder.harvester(Fading::new(
                TheveninSource::new(*v_oc, *r_src),
                *sigma,
                *seed,
            )),
            HarvesterSpec::Trace { samples, r_src } => {
                builder.harvester(TraceHarvester::new(samples.clone(), *r_src))
            }
        }
    }
}

/// The energy world of a recorded session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorldSpec {
    /// A plain harvester; supports full-state snapshots.
    Harvester {
        /// Which harvester.
        spec: HarvesterSpec,
    },
    /// An RFID reader's carrier at `distance_m` metres; recordings of
    /// this world are digest-only (see [`crate::System::supports_snapshots`]).
    Rfid {
        /// Reader distance, metres.
        distance_m: f64,
    },
}

/// The session's firmware, carried as source inside the recording so
/// replay never depends on files outside the container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Firmware {
    /// Assembly source.
    pub source: String,
    /// Whether to wrap with the `libEDB` runtime
    /// ([`crate::libedb::wrap_program`]) before assembling, matching
    /// [`SessionBuilder::firmware`] (`true`) vs a raw image (`false`).
    pub wrap: bool,
}

/// Everything needed to rebuild a [`DebugSession`] bit-identically:
/// the initial image plus every seed. This is the `Spec` chunk of a
/// recording.
#[derive(Debug, Clone, Deserialize)]
pub struct SessionSpec {
    /// Target device configuration.
    pub device: DeviceConfig,
    /// The energy world.
    pub world: WorldSpec,
    /// Bench seed (ADC noise, retry backoff, RF channel).
    pub seed: u64,
    /// Debugger firmware parameters.
    pub edb: EdbConfig,
    /// Debug-UART fault injection, if any.
    pub channel_fault: Option<ChannelFaultConfig>,
    /// Firmware to flash, if any.
    pub firmware: Option<Firmware>,
    /// Host-side checkpoint strategy, if one is attached — recorded so
    /// reproducers replay under the same zoo member.
    pub ckpt: Option<CkptConfig>,
}

// Hand-written so specs without a checkpoint engine keep the historical
// byte layout (the `ckpt` key appears only when set; the derived
// Deserialize reads a missing key as `None`).
impl Serialize for SessionSpec {
    fn serialize(&self, sink: &mut dyn Sink) {
        sink.map(6 + usize::from(self.ckpt.is_some()));
        sink.str("device");
        self.device.serialize(sink);
        sink.str("world");
        self.world.serialize(sink);
        sink.str("seed");
        self.seed.serialize(sink);
        sink.str("edb");
        self.edb.serialize(sink);
        sink.str("channel_fault");
        self.channel_fault.serialize(sink);
        sink.str("firmware");
        self.firmware.serialize(sink);
        if self.ckpt.is_some() {
            sink.str("ckpt");
            self.ckpt.serialize(sink);
        }
    }
}

impl SessionSpec {
    /// The default bench: a WISP-class target on the stiff Thévenin
    /// supply, EDB in the prototype configuration, `source` wrapped with
    /// the `libEDB` runtime.
    pub fn bench(source: &str) -> Self {
        SessionSpec {
            device: DeviceConfig::wisp5(),
            world: WorldSpec::Harvester {
                spec: HarvesterSpec::Thevenin {
                    v_oc: 3.2,
                    r_src: 1500.0,
                },
            },
            seed: 0,
            edb: EdbConfig::prototype(),
            channel_fault: None,
            firmware: Some(Firmware {
                source: source.to_string(),
                wrap: true,
            }),
            ckpt: None,
        }
    }

    /// Runs the session under a checkpoint-strategy-zoo engine
    /// ([`edb_runtime::ckpt`]); the strategy rides in the recording.
    pub fn with_checkpoint_strategy(mut self, ckpt: CkptConfig) -> Self {
        self.ckpt = Some(ckpt);
        self
    }

    /// Like [`SessionSpec::bench`] but on the harvested (fading)
    /// supply of the experiment harnesses.
    pub fn harvested(source: &str, seed: u64) -> Self {
        SessionSpec {
            world: WorldSpec::Harvester {
                spec: HarvesterSpec::harvested(seed),
            },
            seed,
            ..SessionSpec::bench(source)
        }
    }

    /// Builds the session this spec describes.
    pub fn build(&self) -> Result<DebugSession, EdbError> {
        let mut builder = SessionBuilder::new()
            .device(self.device)
            .seed(self.seed)
            .edb_config(self.edb);
        builder = match &self.world {
            WorldSpec::Harvester { spec } => spec.install(builder),
            WorldSpec::Rfid { distance_m } => builder.rfid(*distance_m),
        };
        if let Some(fault) = self.channel_fault {
            builder = builder.channel_fault(fault);
        }
        if let Some(ckpt) = self.ckpt {
            builder = builder.with_checkpoint_strategy(ckpt);
        }
        if let Some(fw) = &self.firmware {
            builder = if fw.wrap {
                builder.firmware(&fw.source)
            } else {
                let image = edb_mcu::asm::assemble(&fw.source).map_err(|e| EdbError::Device {
                    detail: format!("firmware does not assemble: {e}"),
                })?;
                builder.image(image)
            };
        }
        builder.build()
    }

    /// Builds the session *and* starts recording it with the given
    /// snapshot stride (full state every `stride` operations; clamped to
    /// at least 1). The spec is embedded in the tape, so the resulting
    /// recording replays in a fresh process.
    pub fn record(&self, stride: u64) -> Result<DebugSession, EdbError> {
        let mut session = self.build()?;
        session.start_recording(Some(self), stride);
        Ok(session)
    }
}

// ---------------------------------------------------------------------
// Session operations: the run's only inputs
// ---------------------------------------------------------------------

/// One typed operation against the [`DebugSession`] surface — the unit
/// of the recording tape. Applying the same ops to a session built from
/// the same spec reproduces the same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionOp {
    /// [`DebugSession::advance`].
    Advance {
        /// Duration, nanoseconds.
        ns: u64,
    },
    /// [`DebugSession::step`], `n` times.
    Step {
        /// Step count.
        n: u64,
    },
    /// [`DebugSession::run_until_session`].
    RunUntilSession {
        /// Timeout, nanoseconds.
        timeout_ns: u64,
    },
    /// [`DebugSession::perform`].
    Perform {
        /// The typed request.
        request: DebugRequest,
    },
    /// [`DebugSession::submit`].
    Submit {
        /// The typed request.
        request: DebugRequest,
    },
    /// [`DebugSession::poll`].
    Poll {
        /// The polled request ID.
        id: RequestId,
    },
    /// [`DebugSession::resume`].
    Resume,
    /// [`DebugSession::charge_to`].
    ChargeTo {
        /// Target level, volts.
        volts: f64,
    },
    /// [`DebugSession::discharge_to`].
    DischargeTo {
        /// Target level, volts.
        volts: f64,
    },
    /// [`DebugSession::set_breakpoint`].
    SetBreakpoint {
        /// Breakpoint ID.
        id: u8,
        /// Optional energy condition, volts.
        energy: Option<f64>,
    },
    /// [`DebugSession::clear_breakpoint`].
    ClearBreakpoint {
        /// Breakpoint ID.
        id: u8,
    },
    /// [`DebugSession::arm_energy_guard`].
    ArmEnergyGuard {
        /// Threshold, volts.
        volts: f64,
    },
}

impl SessionOp {
    /// Re-executes this operation against `session`. Results and errors
    /// are discarded: determinism guarantees the same outcomes recur,
    /// and the divergence checker asserts it through state digests.
    pub fn apply(&self, session: &mut DebugSession) {
        match self {
            SessionOp::Advance { ns } => session.advance(SimTime::from_ns(*ns)),
            SessionOp::Step { n } => {
                for _ in 0..*n {
                    session.step();
                }
            }
            SessionOp::RunUntilSession { timeout_ns } => {
                let _ = session.run_until_session(SimTime::from_ns(*timeout_ns));
            }
            SessionOp::Perform { request } => {
                let _ = session.perform(*request);
            }
            SessionOp::Submit { request } => {
                let _ = session.submit(*request);
            }
            SessionOp::Poll { id } => {
                let _ = session.poll(*id);
            }
            SessionOp::Resume => {
                let _ = session.resume();
            }
            SessionOp::ChargeTo { volts } => {
                let _ = session.charge_to(*volts);
            }
            SessionOp::DischargeTo { volts } => {
                let _ = session.discharge_to(*volts);
            }
            SessionOp::SetBreakpoint { id, energy } => {
                let _ = session.set_breakpoint(*id, *energy);
            }
            SessionOp::ClearBreakpoint { id } => {
                let _ = session.clear_breakpoint(*id);
            }
            SessionOp::ArmEnergyGuard { volts } => {
                let _ = session.arm_energy_guard(*volts);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The in-memory tape
// ---------------------------------------------------------------------

/// The live recording attached to a [`DebugSession`]: entries in tape
/// order plus the snapshot-stride counter.
#[derive(Debug)]
pub(crate) struct Tape {
    spec: Option<Value>,
    stride: u64,
    start_ns: u64,
    entries: Vec<Entry>,
    ops_since_boundary: u64,
}

/// Appends an `Op` entry for `op` (stamped with the *pre-execution*
/// time). Called at the top of every recorded `DebugSession` method;
/// no-op when the session is not recording.
pub(crate) fn tape_op(session: &mut DebugSession, op: &SessionOp) {
    if session.tape.is_none() {
        return;
    }
    let now_ns = session.now().as_ns();
    let value = op.to_value();
    let tape = session.tape.as_mut().expect("checked above");
    tape.entries.push(Entry::Op { now_ns, value });
}

/// Marks an operation boundary: counts the op and, every `stride` ops,
/// appends a full-state snapshot (or a digest, for worlds that cannot
/// serialize). Called at the bottom of every recorded method.
pub(crate) fn tape_boundary(session: &mut DebugSession) {
    let Some(tape) = session.tape.as_mut() else {
        return;
    };
    tape.ops_since_boundary += 1;
    if tape.ops_since_boundary < tape.stride {
        return;
    }
    push_boundary(session);
}

/// Unconditionally appends a snapshot/digest boundary entry and resets
/// the stride counter.
fn push_boundary(session: &mut DebugSession) {
    if session.tape.is_none() {
        return;
    }
    let now_ns = session.now().as_ns();
    let entry = match snapshot_state(session) {
        Some(state) => Entry::Snapshot {
            now_ns,
            state: SnapshotState::Shared(Arc::new(state)),
        },
        None => Entry::Digest {
            now_ns,
            digest: session.system().state_digest(),
        },
    };
    let tape = session.tape.as_mut().expect("checked above");
    tape.ops_since_boundary = 0;
    tape.entries.push(entry);
}

/// The full session state a tape snapshot holds: the bench plus the
/// session-level bookkeeping (breakpoint list, guard thresholds).
struct SessionState {
    sys: SystemState,
    breakpoints: Vec<(u8, Option<f64>)>,
    guards: Vec<f64>,
}

impl Serialize for SessionState {
    fn serialize(&self, sink: &mut dyn Sink) {
        sink.map(3);
        sink.str("sys");
        self.sys.serialize(sink);
        sink.str("breakpoints");
        self.breakpoints.serialize(sink);
        sink.str("guards");
        self.guards.serialize(sink);
    }
}

impl Deserialize for SessionState {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| DeError::new(format!("session snapshot missing `{name}`")))
        };
        Ok(SessionState {
            sys: SystemState::from_value(field("sys")?)?,
            breakpoints: Deserialize::from_value(field("breakpoints")?)?,
            guards: Deserialize::from_value(field("guards")?)?,
        })
    }
}

/// The session's full state, or `None` for worlds that cannot snapshot.
fn snapshot_state(session: &DebugSession) -> Option<SessionState> {
    Some(SessionState {
        sys: session.system().snapshot()?,
        breakpoints: session.breakpoints(),
        guards: session.energy_guards().to_vec(),
    })
}

/// Restores a snapshot entry's state: shared typed state from a live
/// tape, or a tree decoded from recording bytes.
fn restore_snapshot(session: &mut DebugSession, state: &SnapshotState) -> Result<(), DeError> {
    let decoded;
    let state = match state {
        SnapshotState::Decoded(v) => {
            decoded = SessionState::from_value(v)?;
            &decoded
        }
        SnapshotState::Shared(_) => state
            .downcast::<SessionState>()
            .ok_or_else(|| DeError::new("snapshot holds state of another recorder"))?,
    };
    session.system_mut().restore(&state.sys)?;
    session.restore_bookkeeping(
        state.breakpoints.iter().copied().collect(),
        state.guards.clone(),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Recording control and time travel on DebugSession
// ---------------------------------------------------------------------

impl DebugSession {
    /// Starts recording this session: every subsequent operation through
    /// the session surface lands on the tape, with a full-state snapshot
    /// (or digest) every `stride` operations (clamped to at least 1).
    /// An initial boundary is taken immediately so time travel can reach
    /// the recording start.
    ///
    /// Pass the spec the session was built from so the recording can
    /// replay in a fresh process ([`SessionSpec::record`] does both in
    /// one call); without it, the recording verifies only in-process.
    pub fn start_recording(&mut self, spec: Option<&SessionSpec>, stride: u64) {
        self.tape = Some(Tape {
            spec: spec.map(Serialize::to_value),
            stride: stride.max(1),
            start_ns: self.now().as_ns(),
            entries: Vec::new(),
            ops_since_boundary: 0,
        });
        push_boundary(self);
    }

    /// Whether a recording is active.
    pub fn is_recording(&self) -> bool {
        self.tape.is_some()
    }

    /// Stops recording and returns the finished [`Recording`], sealed
    /// with a final boundary and the end-of-tape state digest. `None`
    /// when no recording was active.
    pub fn stop_recording(&mut self) -> Option<Recording> {
        // Seal with a final boundary so the last stretch of ops is
        // covered by a snapshot, then stamp the End digest.
        if self.tape.is_some() {
            push_boundary(self);
        }
        let end = (self.now().as_ns(), self.system().state_digest());
        self.tape.take().map(|tape| Recording {
            spec: tape.spec,
            stride: tape.stride,
            start_ns: tape.start_ns,
            entries: tape.entries,
            end: Some(end),
        })
    }

    /// A copy of the recording as it stands, sealed at the current
    /// state, without stopping the tape. `None` when not recording.
    pub fn export_recording(&self) -> Option<Recording> {
        let tape = self.tape.as_ref()?;
        Some(Recording {
            spec: tape.spec.clone(),
            stride: tape.stride,
            start_ns: tape.start_ns,
            entries: tape.entries.clone(),
            end: Some((self.now().as_ns(), self.system().state_digest())),
        })
    }

    /// Travels to simulated time `target`.
    ///
    /// Forward travel is plain [`advance`](DebugSession::advance).
    /// Backward travel restores the nearest recorded snapshot at or
    /// before `target` (or rebuilds from the embedded spec when none
    /// exists — always the case for digest-only RFID recordings) and
    /// re-executes the recorded operations forward. An `Advance` or
    /// `RunUntilSession` that straddles `target` is split exactly at
    /// `target` (both are pure stepping); an op of any other kind that
    /// began before `target` — a command exchange, a charge loop —
    /// re-executes in full, so the session lands at that op's
    /// completion time. The tape is
    /// truncated at the landing point: the future beyond it is
    /// discarded and new operations extend the new timeline.
    ///
    /// Returns the time actually landed on. Requires an active
    /// recording.
    pub fn goto_time(&mut self, target: SimTime) -> Result<SimTime, EdbError> {
        if self.tape.is_none() {
            return Err(EdbError::NoRecording { op: "goto_time" });
        }
        let now = self.now();
        if target >= now {
            if target > now {
                self.advance(SimTime::from_ns(target.as_ns() - now.as_ns()));
            }
            return Ok(self.now());
        }
        let target_ns = target.as_ns();
        let tape = self.tape.take().expect("checked above");
        if target_ns < tape.start_ns {
            let start_ns = tape.start_ns;
            self.tape = Some(tape);
            return Err(EdbError::Replay {
                detail: format!(
                    "target {target_ns} ns precedes the recording start ({start_ns} ns)"
                ),
            });
        }

        // The latest full snapshot at or before the target.
        let mut restore_idx = None;
        for (i, entry) in tape.entries.iter().enumerate() {
            if let Entry::Snapshot { now_ns, .. } = entry {
                if *now_ns <= target_ns {
                    restore_idx = Some(i);
                }
            }
        }

        // The prefix of the tape that survives, and the ops to re-run.
        let keep = match restore_idx {
            Some(i) => i + 1,
            // No usable snapshot: keep only the leading boundary entries
            // and rebuild the session from its spec.
            None => tape
                .entries
                .iter()
                .take_while(|e| !matches!(e, Entry::Op { .. }))
                .count(),
        };
        let replay_ops: Vec<SessionOp> = tape.entries[keep..]
            .iter()
            .filter_map(|entry| match entry {
                Entry::Op { now_ns, value } if *now_ns < target_ns => {
                    SessionOp::from_value(value).ok()
                }
                _ => None,
            })
            .collect();

        match restore_idx {
            Some(i) => {
                let Entry::Snapshot { state, .. } = &tape.entries[i] else {
                    unreachable!("restore_idx points at a snapshot");
                };
                restore_snapshot(self, state).map_err(|e| EdbError::Replay {
                    detail: format!("snapshot restore failed: {e}"),
                })?;
            }
            None => {
                let spec_value = tape.spec.as_ref().ok_or_else(|| EdbError::Replay {
                    detail: "no snapshot covers the target and the recording carries no spec"
                        .into(),
                })?;
                let spec = SessionSpec::from_value(spec_value).map_err(|e| EdbError::Replay {
                    detail: format!("embedded spec does not decode: {e}"),
                })?;
                *self = spec.build()?;
            }
        }

        // Re-install the truncated tape, then re-execute forward. The
        // re-executed ops re-record, so the tape's entries (and boundary
        // snapshots) regrow exactly as they stood the first time.
        let mut tape = tape;
        tape.entries.truncate(keep);
        tape.ops_since_boundary = 0;
        self.tape = Some(tape);
        for op in replay_ops {
            match op {
                SessionOp::Advance { ns } => {
                    let remaining = target_ns.saturating_sub(self.now().as_ns());
                    let ns = ns.min(remaining);
                    if ns > 0 {
                        self.advance(SimTime::from_ns(ns));
                    }
                }
                // Waiting for a session is pure stepping, so the state
                // at any instant inside it equals a plain advance:
                // clamping the timeout to the target reproduces the
                // prefix exactly and stops on time.
                SessionOp::RunUntilSession { timeout_ns } => {
                    let remaining = target_ns.saturating_sub(self.now().as_ns());
                    let timeout = timeout_ns.min(remaining);
                    if timeout > 0 {
                        let _ = self.run_until_session(SimTime::from_ns(timeout));
                    }
                }
                other => other.apply(self),
            }
        }
        // Land exactly on the target when it falls in open time.
        let short = target_ns.saturating_sub(self.now().as_ns());
        if short > 0 {
            self.advance(SimTime::from_ns(short));
        }
        Ok(self.now())
    }

    /// Steps backward `n` CPU cycles (clamped to the recording start).
    /// Returns the time landed on. Requires an active recording.
    pub fn step_back(&mut self, n: u64) -> Result<SimTime, EdbError> {
        if self.tape.is_none() {
            return Err(EdbError::NoRecording { op: "step_back" });
        }
        let cycle_ns = (1e9 / self.system().device().config().clock_hz).round() as u64;
        let back = n.max(1).saturating_mul(cycle_ns.max(1));
        let start_ns = self.tape.as_ref().map_or(0, |t| t.start_ns);
        let target = self.now().as_ns().saturating_sub(back).max(start_ns);
        self.goto_time(SimTime::from_ns(target))
    }

    /// Runs *backward* to the most recent debugger stop event —
    /// breakpoint hit, energy breakpoint, or assert failure — strictly
    /// before the current time. Returns the time landed on, or `None`
    /// (and does not move) when no earlier stop event exists. Requires
    /// an active recording.
    pub fn reverse_continue(&mut self) -> Result<Option<SimTime>, EdbError> {
        if self.tape.is_none() {
            return Err(EdbError::NoRecording {
                op: "reverse_continue",
            });
        }
        let now_ns = self.now().as_ns();
        let stop = self
            .events()
            .iter()
            .rev()
            .find(|e| {
                e.at.as_ns() < now_ns
                    && matches!(e.event.tag(), "breakpoint" | "energy-breakpoint" | "assert")
            })
            .map(|e| e.at);
        match stop {
            Some(at) => Ok(Some(self.goto_time(at)?)),
            None => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------
// Whole-recording replay and divergence checking
// ---------------------------------------------------------------------

/// A replayed run disagreed with its recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Recorded sim time of the diverging entry.
    pub now_ns: u64,
    /// Index of the diverging entry in [`Recording::entries`] (or
    /// `entries.len()` for the End digest).
    pub entry_index: usize,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at entry {} ({} ns): {}",
            self.entry_index, self.now_ns, self.detail
        )
    }
}

/// What [`verify`] checked when a recording replayed divergence-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Operations re-executed.
    pub ops: usize,
    /// Full snapshots compared bit-for-bit.
    pub snapshots: usize,
    /// Digest boundaries compared.
    pub digests: usize,
    /// Sim time at the end of the tape, nanoseconds.
    pub end_ns: u64,
}

fn divergence(now_ns: u64, entry_index: usize, detail: impl Into<String>) -> EdbError {
    EdbError::Replay {
        detail: Divergence {
            now_ns,
            entry_index,
            detail: detail.into(),
        }
        .to_string(),
    }
}

/// Rebuilds the recorded session from its embedded spec, positioned at
/// the start of the tape (restoring the leading snapshot when the
/// recording began mid-run).
fn session_at_start(recording: &Recording) -> Result<DebugSession, EdbError> {
    let spec_value = recording.spec.as_ref().ok_or_else(|| EdbError::Replay {
        detail: "recording carries no session spec".into(),
    })?;
    let spec = SessionSpec::from_value(spec_value).map_err(|e| EdbError::Replay {
        detail: format!("embedded spec does not decode: {e}"),
    })?;
    let mut session = spec.build()?;
    if recording.start_ns != session.now().as_ns() {
        // The recording began mid-run: the first entry must be a full
        // snapshot to stand the session up at the start of the tape.
        match recording.entries.first() {
            Some(Entry::Snapshot { state, .. }) => {
                restore_snapshot(&mut session, state).map_err(|e| EdbError::Replay {
                    detail: format!("leading snapshot restore failed: {e}"),
                })?;
            }
            _ => {
                return Err(EdbError::Replay {
                    detail: format!(
                        "recording starts at {} ns but has no leading snapshot",
                        recording.start_ns
                    ),
                });
            }
        }
    }
    Ok(session)
}

/// Re-executes `recording` end to end without divergence checking and
/// returns the session at the end of the tape.
pub fn replay(recording: &Recording) -> Result<DebugSession, EdbError> {
    let mut session = session_at_start(recording)?;
    for entry in &recording.entries {
        if let Entry::Op { value, .. } = entry {
            let op = SessionOp::from_value(value).map_err(|e| EdbError::Replay {
                detail: format!("recorded op does not decode: {e}"),
            })?;
            op.apply(&mut session);
        }
    }
    Ok(session)
}

/// Re-executes `recording` end to end, asserting **bit identity**
/// against every recorded boundary: full snapshots compare as canonical
/// encodings (architectural state, memory images, and the energy
/// trajectory down to IEEE-754 bit patterns), digest boundaries compare
/// state digests, op entries compare their timestamps, and the End
/// chunk seals the final state.
pub fn verify(recording: &Recording) -> Result<VerifyReport, EdbError> {
    let mut session = session_at_start(recording)?;
    let mut report = VerifyReport {
        ops: 0,
        snapshots: 0,
        digests: 0,
        end_ns: 0,
    };
    let started_mid_run = recording.start_ns != 0;
    for (i, entry) in recording.entries.iter().enumerate() {
        match entry {
            Entry::Op { now_ns, value } => {
                let now = session.now().as_ns();
                if now != *now_ns {
                    return Err(divergence(
                        *now_ns,
                        i,
                        format!("op began at {now} ns on replay, {now_ns} ns when recorded"),
                    ));
                }
                let op = SessionOp::from_value(value).map_err(|e| EdbError::Replay {
                    detail: format!("recorded op does not decode: {e}"),
                })?;
                op.apply(&mut session);
                report.ops += 1;
            }
            Entry::Snapshot { now_ns, state } => {
                if i == 0 && started_mid_run {
                    // The leading snapshot stood the session up; nothing
                    // to compare against yet.
                    continue;
                }
                let now = session.now().as_ns();
                if now != *now_ns {
                    return Err(divergence(
                        *now_ns,
                        i,
                        format!("snapshot at {now} ns on replay, {now_ns} ns when recorded"),
                    ));
                }
                let live = snapshot_state(&session)
                    .ok_or_else(|| divergence(*now_ns, i, "world no longer supports snapshots"))?;
                if digest(&live) != digest(state) {
                    return Err(divergence(
                        *now_ns,
                        i,
                        snapshot_mismatch_detail(&state.to_value(), &live.to_value()),
                    ));
                }
                report.snapshots += 1;
            }
            Entry::Digest { now_ns, digest } => {
                let now = session.now().as_ns();
                if now != *now_ns {
                    return Err(divergence(
                        *now_ns,
                        i,
                        format!("digest at {now} ns on replay, {now_ns} ns when recorded"),
                    ));
                }
                let live = session.system().state_digest();
                if live != *digest {
                    return Err(divergence(
                        *now_ns,
                        i,
                        format!("state digest {live:#018x} != recorded {digest:#018x}"),
                    ));
                }
                report.digests += 1;
            }
        }
    }
    let (end_ns, end_digest) = recording.end.ok_or_else(|| EdbError::Replay {
        detail: "recording has no End seal".into(),
    })?;
    let now = session.now().as_ns();
    if now != end_ns {
        return Err(divergence(
            end_ns,
            recording.entries.len(),
            format!("tape ends at {now} ns on replay, {end_ns} ns when recorded"),
        ));
    }
    let live = session.system().state_digest();
    if live != end_digest {
        return Err(divergence(
            end_ns,
            recording.entries.len(),
            format!("final state digest {live:#018x} != recorded {end_digest:#018x}"),
        ));
    }
    report.end_ns = end_ns;
    Ok(report)
}

/// Names the top-level snapshot fields that disagree, so a divergence
/// report says *where* (device vs debugger vs harvester) instead of
/// just *that*.
fn snapshot_mismatch_detail(recorded: &Value, live: &Value) -> String {
    let mut parts = Vec::new();
    for name in ["sys", "breakpoints", "guards"] {
        match (recorded.get_field(name), live.get_field(name)) {
            (Some(a), Some(b)) if digest(a) != digest(b) => {
                if name == "sys" {
                    for sub in ["device", "edb", "symbols", "obs", "world"] {
                        if let (Some(sa), Some(sb)) = (a.get_field(sub), b.get_field(sub)) {
                            if digest(sa) != digest(sb) {
                                parts.push(format!("sys.{sub}"));
                            }
                        }
                    }
                } else {
                    parts.push(name.to_string());
                }
            }
            (Some(_), Some(_)) => {}
            _ => parts.push(format!("{name} (missing)")),
        }
    }
    if parts.is_empty() {
        "snapshot encodings differ".to_string()
    } else {
        format!("snapshot fields differ: {}", parts.join(", "))
    }
}

// ---------------------------------------------------------------------
// Fleet recordings: the `fleet_*` RPC surface on the replay tape
// ---------------------------------------------------------------------

/// One recorded fleet operation — the only inputs a fleet session has
/// (everything inside [`FleetSim`] is a pure function of the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetOp {
    /// Advance by carrier milliseconds (`fleet_run {ms}`).
    RunMs(u64),
    /// Advance by inventory slots (`fleet_run {slots}`).
    RunSlots(u64),
}

/// The rebuildable spec embedded in a fleet recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// The fleet configuration.
    pub config: FleetConfig,
    /// The trial seed.
    pub seed: u64,
}

impl FleetSpec {
    /// Builds the simulation this spec describes.
    pub fn build(&self) -> FleetSim {
        FleetSim::new(self.config, self.seed)
    }
}

/// Digest of a fleet simulation's observable state: the aggregate
/// stats plus the electrical state (capacitor bits, mode, inventory
/// flag, power cycles) of every tag whose global index is below the
/// sim's tag count — every tag of a whole fleet; of a cell based at a
/// nonzero index, only those below its length. Two sims digest equal
/// iff a replay is bit-faithful at the level the RPC surface can
/// observe.
///
/// The nodes stream straight into the canonical digest, in the order
/// and shape of the map `now_ns, q, rounds, slots, epcs, collisions,
/// unique, tag_cycles, tags` whose `tags` entry is a sequence of
/// `[v_cap, powered, inventoried, ever_read, power_cycles,
/// active_secs]` — the digest of that `Value` tree, built without it.
pub fn fleet_digest(sim: &FleetSim) -> u64 {
    let stats = sim.stats();
    let tags = || (0..stats.tags as usize).filter_map(|g| sim.tag_status(g));
    let mut sink = CanonicalDigest::default();
    sink.map(9);
    for (key, value) in [
        ("now_ns", sim.now().as_ns()),
        ("q", u64::from(sim.reader().q())),
        ("rounds", stats.gen2.rounds),
        ("slots", stats.gen2.slots()),
        ("epcs", stats.gen2.epcs_read),
        ("collisions", stats.gen2.collision_slots),
        ("unique", stats.unique_tags_read),
    ] {
        sink.str(key);
        sink.u64(value);
    }
    sink.str("tag_cycles");
    sink.f64(stats.tag_cycles);
    sink.str("tags");
    sink.seq(tags().count());
    for t in tags() {
        sink.seq(6);
        sink.f64(t.v_cap);
        sink.bool(t.powered);
        sink.bool(t.inventoried);
        sink.bool(t.ever_read);
        sink.u64(u64::from(t.power_cycles));
        sink.f64(t.active_secs);
    }
    sink.0.finish()
}

/// Applies one recorded op to a live simulation — the single advance
/// path shared by the RPC handler and replay, so both execute
/// identically.
pub fn apply_fleet_op(sim: &mut FleetSim, op: FleetOp) {
    match op {
        FleetOp::RunMs(ms) => {
            let until = SimTime::from_ns(sim.now().as_ns() + ms * 1_000_000);
            while sim.now() < until {
                sim.step_slot();
            }
        }
        FleetOp::RunSlots(slots) => {
            for _ in 0..slots {
                sim.step_slot();
            }
        }
    }
}

/// The live tape of one fleet session: spec, recorded ops, and a state
/// digest at every op boundary. Sealed into a [`Recording`] by
/// [`export`](FleetTape::export) at any time.
#[derive(Debug, Clone)]
pub struct FleetTape {
    spec: FleetSpec,
    start_ns: u64,
    entries: Vec<Entry>,
}

impl FleetTape {
    /// Starts a tape for a freshly built sim, stamping the initial
    /// boundary digest.
    pub fn new(spec: FleetSpec, sim: &FleetSim) -> Self {
        FleetTape {
            spec,
            start_ns: sim.now().as_ns(),
            entries: vec![Entry::Digest {
                now_ns: sim.now().as_ns(),
                digest: fleet_digest(sim),
            }],
        }
    }

    /// Records one op and applies it to the sim, sealing the boundary
    /// with a post-op digest.
    pub fn run(&mut self, sim: &mut FleetSim, op: FleetOp) {
        self.entries.push(Entry::Op {
            now_ns: sim.now().as_ns(),
            value: op.to_value(),
        });
        apply_fleet_op(sim, op);
        self.entries.push(Entry::Digest {
            now_ns: sim.now().as_ns(),
            digest: fleet_digest(sim),
        });
    }

    /// Ops recorded so far.
    pub fn op_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Op { .. }))
            .count()
    }

    /// Seals a copy of the tape into a verifiable recording (digest
    /// boundaries at every op; no full snapshots — fleets rebuild from
    /// the embedded spec).
    pub fn export(&self, sim: &FleetSim) -> Recording {
        Recording {
            spec: Some(self.spec.to_value()),
            stride: 1,
            start_ns: self.start_ns,
            entries: self.entries.clone(),
            end: Some((sim.now().as_ns(), fleet_digest(sim))),
        }
    }
}

/// Replays a fleet recording from its embedded spec and checks every
/// boundary digest and the end-of-tape digest. Returns the number of
/// ops verified.
pub fn verify_fleet(recording: &Recording) -> Result<usize, String> {
    let spec_value = recording
        .spec
        .as_ref()
        .ok_or("recording has no embedded fleet spec")?;
    let spec = FleetSpec::from_value(spec_value).map_err(|e| format!("bad fleet spec: {e}"))?;
    let mut sim = spec.build();
    let mut ops = 0usize;
    for (k, entry) in recording.entries.iter().enumerate() {
        match entry {
            Entry::Op { value, .. } => {
                let op =
                    FleetOp::from_value(value).map_err(|e| format!("entry {k}: bad op: {e}"))?;
                apply_fleet_op(&mut sim, op);
                ops += 1;
            }
            Entry::Digest { now_ns, digest } => {
                if sim.now().as_ns() != *now_ns || fleet_digest(&sim) != *digest {
                    return Err(format!(
                        "entry {k}: replay diverged after {ops} op(s) \
                         (at {} ns, recorded {} ns)",
                        sim.now().as_ns(),
                        now_ns
                    ));
                }
            }
            Entry::Snapshot { .. } => {
                return Err(format!("entry {k}: fleet recordings are digest-only"));
            }
        }
    }
    if let Some((end_ns, end_digest)) = recording.end {
        if sim.now().as_ns() != end_ns || fleet_digest(&sim) != end_digest {
            return Err(format!("end-of-tape digest mismatch after {ops} op(s)"));
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debugger::DebugRequest;

    /// The `Value` tree `fleet_digest` once built and digested.
    fn fleet_state_tree(sim: &FleetSim) -> Value {
        let stats = sim.stats();
        let mut tags = Vec::new();
        for g in 0..stats.tags as usize {
            if let Some(t) = sim.tag_status(g) {
                tags.push(Value::Seq(vec![
                    Value::F64(t.v_cap),
                    Value::Bool(t.powered),
                    Value::Bool(t.inventoried),
                    Value::Bool(t.ever_read),
                    Value::U64(u64::from(t.power_cycles)),
                    Value::F64(t.active_secs),
                ]));
            }
        }
        let u = |k: &str, v: u64| (Value::Str(k.into()), Value::U64(v));
        Value::Map(vec![
            u("now_ns", sim.now().as_ns()),
            u("q", u64::from(sim.reader().q())),
            u("rounds", stats.gen2.rounds),
            u("slots", stats.gen2.slots()),
            u("epcs", stats.gen2.epcs_read),
            u("collisions", stats.gen2.collision_slots),
            u("unique", stats.unique_tags_read),
            (
                Value::Str("tag_cycles".into()),
                Value::F64(stats.tag_cycles),
            ),
            (Value::Str("tags".into()), Value::Seq(tags)),
        ])
    }

    #[test]
    fn streamed_fleet_digest_equals_the_value_tree_digest() {
        let mut cfg = FleetConfig::standard(1_250);
        cfg.duration = SimTime::from_ms(150);
        // A cell at global base 0 digests its tags; one at a nonzero
        // base only those whose global index is below its length.
        for (base, n) in [(0, 625), (625, 625), (400, 500)] {
            let mut sim = FleetSim::new_cell(cfg, base, n, 7 + base as u64);
            assert_eq!(fleet_digest(&sim), digest(&fleet_state_tree(&sim)));
            sim.run();
            assert_eq!(fleet_digest(&sim), digest(&fleet_state_tree(&sim)));
        }
    }

    #[test]
    fn fleet_recordings_replay_and_verify() {
        let spec = FleetSpec {
            config: FleetConfig::standard(40),
            seed: 9,
        };
        let mut sim = spec.build();
        let mut tape = FleetTape::new(spec, &sim);
        tape.run(&mut sim, FleetOp::RunMs(300));
        tape.run(&mut sim, FleetOp::RunSlots(50));
        tape.run(&mut sim, FleetOp::RunMs(200));
        assert_eq!(tape.op_count(), 3);
        let rec = tape.export(&sim);

        // The container round-trips and replays divergence-free.
        let back = Recording::from_bytes(&rec.to_bytes()).expect("parses");
        assert_eq!(verify_fleet(&back), Ok(3));

        // Tampering is caught: drop the tail, keep the end digest.
        let mut broken = back.clone();
        broken.entries.truncate(broken.entries.len() - 2);
        assert!(verify_fleet(&broken).is_err());
    }

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

    /// A recorded interactive run with a little of everything: charge,
    /// session open, reads, a write, resume, plain time.
    fn recorded_run(stride: u64) -> (DebugSession, SessionSpec) {
        let spec = SessionSpec::bench(ASSERT_APP);
        let mut s = spec.record(stride).expect("builds");
        let _ = s.charge_to(2.45);
        assert!(s.run_until_session(SimTime::from_secs(2)));
        let _ = s.perform(DebugRequest::ReadWord { addr: 0x6000 });
        let _ = s.perform(DebugRequest::WriteWord {
            addr: 0x6002,
            value: 0xBEEF,
        });
        let _ = s.perform(DebugRequest::ReadWord { addr: 0x6002 });
        let _ = s.resume();
        s.advance(SimTime::from_ms(20));
        (s, spec)
    }

    #[test]
    fn recording_replays_divergence_free() {
        for stride in [1, 3, 64] {
            let (mut s, _) = recorded_run(stride);
            let rec = s.stop_recording().expect("was recording");
            assert!(rec.op_count() > 5, "stride {stride}: ops recorded");
            let report = verify(&rec).unwrap_or_else(|e| panic!("stride {stride}: {e}"));
            assert_eq!(report.ops, rec.op_count());
            assert!(report.snapshots >= 1, "stride {stride}");
        }
    }

    #[test]
    fn recordings_are_byte_stable_across_passes() {
        let rec_a = {
            let (mut s, _) = recorded_run(4);
            s.stop_recording().expect("recording")
        };
        let rec_b = {
            let (mut s, _) = recorded_run(4);
            s.stop_recording().expect("recording")
        };
        assert_eq!(
            rec_a.to_bytes(),
            rec_b.to_bytes(),
            "two passes over the same spec must serialize identically"
        );
    }

    #[test]
    fn tampered_recording_fails_verification() {
        let (mut s, _) = recorded_run(2);
        let mut rec = s.stop_recording().expect("recording");
        // Corrupt one recorded digest/snapshot boundary.
        let idx = rec
            .entries
            .iter()
            .rposition(|e| matches!(e, Entry::Snapshot { .. }))
            .expect("has a snapshot");
        if let Entry::Snapshot { state, .. } = &mut rec.entries[idx] {
            *state = Value::Map(vec![(Value::Str("sys".into()), Value::Null)]).into();
        }
        let err = verify(&rec).expect_err("tamper must be caught");
        assert!(err.to_string().contains("divergence"), "{err}");
    }

    #[test]
    fn goto_time_lands_exactly_and_truncates_forward() {
        let (mut s, _) = recorded_run(4);
        let end = s.now();
        let target = SimTime::from_ns(end.as_ns() / 2);
        let landed = s.goto_time(target).expect("travels");
        assert!(
            landed.as_ns() >= target.as_ns(),
            "landed {landed:?} before target {target:?}"
        );
        assert!(landed < end, "went backward");
        assert_eq!(s.now(), landed);
        // The new timeline extends from the landing point and still
        // verifies end to end.
        s.advance(SimTime::from_ms(5));
        let rec = s.stop_recording().expect("recording survived travel");
        verify(&rec).expect("new timeline verifies");
    }

    #[test]
    fn goto_time_back_to_start_matches_a_fresh_session() {
        let (mut s, spec) = recorded_run(4);
        let landed = s.goto_time(SimTime::ZERO).expect("travels to start");
        assert_eq!(landed, SimTime::ZERO);
        let fresh = spec.build().expect("builds");
        assert_eq!(
            s.system().state_digest(),
            fresh.system().state_digest(),
            "travelling to t=0 must reproduce the pristine bench"
        );
    }

    #[test]
    fn step_back_moves_strictly_backward() {
        let (mut s, _) = recorded_run(4);
        let before = s.now();
        let landed = s.step_back(1000).expect("steps back");
        assert!(landed < before, "{landed:?} !< {before:?}");
        assert_eq!(s.now(), landed);
    }

    #[test]
    fn reverse_continue_returns_to_the_assert_stop() {
        let (mut s, _) = recorded_run(4);
        let stop = s
            .reverse_continue()
            .expect("travels")
            .expect("an assert fired earlier in this run");
        assert_eq!(s.now(), stop);
        // The stop event is the latest assert strictly before the old
        // now; the event log (restored + re-executed) still contains it
        // at exactly that time.
        assert!(
            s.events()
                .iter()
                .any(|e| e.at == stop && e.event.tag() == "assert"),
            "assert event present at the landing time"
        );
    }

    #[test]
    fn time_travel_requires_a_recording() {
        let mut s = SessionSpec::bench(ASSERT_APP).build().expect("builds");
        assert!(matches!(
            s.goto_time(SimTime::ZERO),
            Err(EdbError::NoRecording { op: "goto_time" })
        ));
        assert!(matches!(
            s.step_back(1),
            Err(EdbError::NoRecording { op: "step_back" })
        ));
        assert!(matches!(
            s.reverse_continue(),
            Err(EdbError::NoRecording {
                op: "reverse_continue"
            })
        ));
    }

    #[test]
    fn divergent_replay_names_the_layer() {
        // Bit-flip the recorded capacitor voltage inside a snapshot: the
        // divergence report must point at the device.
        let (mut s, _) = recorded_run(1);
        let rec = s.stop_recording().expect("recording");
        let mut bad = rec.clone();
        let idx = bad
            .entries
            .iter()
            .rposition(|e| matches!(e, Entry::Snapshot { .. }))
            .expect("has snapshots");
        if let Entry::Snapshot { state, .. } = &mut bad.entries[idx] {
            let mut tree = state.to_value();
            flip_first_f64(&mut tree);
            *state = tree.into();
        }
        let err = verify(&bad).expect_err("must diverge");
        assert!(err.to_string().contains("sys."), "{err}");
    }

    fn flip_first_f64(v: &mut Value) -> bool {
        match v {
            Value::F64(x) => {
                *x = f64::from_bits(x.to_bits() ^ 1);
                true
            }
            Value::Seq(items) => items.iter_mut().any(flip_first_f64),
            Value::Map(pairs) => pairs.iter_mut().any(|(_, val)| flip_first_f64(val)),
            _ => false,
        }
    }

    #[test]
    fn spec_round_trips_through_value() {
        let spec = SessionSpec::harvested(ASSERT_APP, 7);
        let back = SessionSpec::from_value(&spec.to_value()).expect("round-trips");
        assert_eq!(back.seed, 7);
        assert_eq!(back.world, spec.world);
        assert_eq!(back.firmware, spec.firmware);
    }
}
