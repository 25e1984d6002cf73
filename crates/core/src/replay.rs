//! Deterministic record/replay and time travel for debug sessions.
//!
//! Everything below the [`DebugSession`] API is a pure function of the
//! session spec and the seed, so a recording needs only three things to
//! reconstruct *any* instant of a run:
//!
//! 1. the rebuildable [`SessionSpec`] (device, world, seeds, firmware),
//!    the one description a session is built from,
//! 2. the sequence of typed [`SessionOp`]s the frontend issued — the
//!    run's only inputs, and
//! 3. periodic full-state snapshots of the bench (every `stride`
//!    operations) so replay can restore near a target instant instead
//!    of re-executing from the beginning. The debugger inside the bench
//!    holds the breakpoints and energy guards, so restoring the bench
//!    restores them; nothing above it keeps a copy to rewind.
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

use crate::debugger::{DebugRequest, Edb, EdbConfig, RequestId};
use crate::error::EdbError;
use crate::fleet::{FleetConfig, FleetSim};
use crate::session::DebugSession;
use crate::system::{SystemBuilder, SystemState};
use crate::wiring::ChannelFaultConfig;
use edb_device::DeviceConfig;
use edb_energy::{
    ConstantCurrent, Fading, SimTime, SolarHarvester, TheveninSource, TraceHarvester,
};
use edb_mcu::Image;
pub use edb_replay::Recording;
use edb_replay::{digest, CanonicalDigest, Entry, SnapshotState};
use edb_runtime::ckpt::CkptConfig;
use serde::{DeError, Deserialize, Serialize, Sink, Value};
use std::sync::{Arc, OnceLock};

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

    /// Powers `builder` from the harvester this spec describes, fresh at
    /// time zero. Each variant hands over its concrete type, so the bench
    /// boxes it once.
    fn power(&self, builder: SystemBuilder) -> SystemBuilder {
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
    /// ([`crate::libedb::wrap_program`]) before assembling (`true`), or
    /// to assemble the source as a complete raw image (`false`).
    pub wrap: bool,
}

impl Firmware {
    /// The assembled image, wrapped with the `libEDB` runtime first when
    /// `wrap` says so. Assembly failures surface as [`EdbError::Device`].
    pub fn assemble(&self) -> Result<Image, EdbError> {
        let wrapped;
        let source = if self.wrap {
            wrapped = crate::libedb::wrap_program(&self.source);
            &wrapped
        } else {
            &self.source
        };
        edb_mcu::asm::assemble(source).map_err(|e| EdbError::Device {
            detail: format!("firmware does not assemble: {e}"),
        })
    }
}

/// Everything needed to rebuild a [`DebugSession`] bit-identically:
/// the initial image plus every seed. This is the one description of a
/// session: [`build`](SessionSpec::build) stands it up and
/// [`record`](SessionSpec::record) also starts its tape, whose `Spec`
/// chunk is this value.
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
    /// the `libEDB` runtime. Every field is public, so a variant is
    /// struct-update syntax away.
    ///
    /// # Example
    ///
    /// ```
    /// use edb_core::{EdbConfig, SessionSpec};
    /// use edb_energy::SimTime;
    ///
    /// let spec = SessionSpec {
    ///     edb: EdbConfig {
    ///         cmd_timeout: SimTime::from_ms(5),
    ///         cmd_retries: 3,
    ///         ..EdbConfig::prototype()
    ///     },
    ///     ..SessionSpec::bench(
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
    /// };
    /// let session = spec.build().expect("firmware assembles");
    /// assert!(!session.status().session_active);
    /// let config = session.system().edb().expect("attached").config();
    /// assert_eq!(config.cmd_retries, 3);
    /// ```
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

    /// Builds the session this spec describes: the bench (device, seed,
    /// debugger config, world, channel faults, checkpoint engine, in that
    /// order), flashed with the firmware. Assembly failures surface as
    /// [`EdbError::Device`].
    pub fn build(&self) -> Result<DebugSession, EdbError> {
        Ok(self.build_assembled(self.assemble()?.as_ref(), None))
    }

    /// Builds the session *and* starts recording it with the given
    /// snapshot stride (full state every `stride` operations; clamped to
    /// at least 1). The spec is embedded in the tape, so the resulting
    /// recording replays in a fresh process.
    pub fn record(&self, stride: u64) -> Result<DebugSession, EdbError> {
        Ok(self.build_assembled(self.assemble()?.as_ref(), Some(stride)))
    }

    /// The spec's firmware, assembled.
    fn assemble(&self) -> Result<Option<Image>, EdbError> {
        self.firmware.as_ref().map(Firmware::assemble).transpose()
    }

    /// The one build path under [`build`](SessionSpec::build) and
    /// [`record`](SessionSpec::record), for a caller that holds the
    /// firmware already assembled: `image` must be what the spec's
    /// [`Firmware::assemble`] returns (`None` without firmware). With a
    /// `stride`, the session records as [`record`](SessionSpec::record)'s
    /// does.
    pub fn build_assembled(&self, image: Option<&Image>, stride: Option<u64>) -> DebugSession {
        let mut builder = SystemBuilder::new(self.device)
            .seed(self.seed)
            .edb_config(self.edb);
        builder = match &self.world {
            WorldSpec::Harvester { spec } => spec.power(builder),
            WorldSpec::Rfid { distance_m } => builder.rfid(*distance_m),
        };
        if let Some(fault) = self.channel_fault {
            builder = builder.channel_fault(fault);
        }
        if let Some(ckpt) = self.ckpt {
            builder = builder.with_checkpoint_strategy(ckpt);
        }
        let mut sys = builder.build();
        if let Some(image) = image {
            sys.flash(image);
        }
        let mut session = DebugSession::new(sys);
        if let Some(stride) = stride {
            session.start_recording(Some(self), stride);
        }
        session
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
    /// This op as re-execution up to `target_ns` runs it when it began
    /// at `now_ns`: a stepping op cut at the target (both are pure
    /// stepping, so the cut prefix equals the whole op's), any other op
    /// whole. `None` for a stepping op cut to nothing, which
    /// re-execution skips.
    fn cut_at(&self, now_ns: u64, target_ns: u64) -> Option<SessionOp> {
        let left = target_ns.saturating_sub(now_ns);
        match *self {
            SessionOp::Advance { ns } => {
                let ns = ns.min(left);
                (ns > 0).then_some(SessionOp::Advance { ns })
            }
            SessionOp::RunUntilSession { timeout_ns } => {
                let timeout_ns = timeout_ns.min(left);
                (timeout_ns > 0).then_some(SessionOp::RunUntilSession { timeout_ns })
            }
            _ => Some(self.clone()),
        }
    }

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

/// Simulated time between a live tape's keyframes, nanoseconds, until
/// the [`KEYFRAME_CAP`] doubles it.
pub const KEYFRAME_NS: u64 = 8_000_000;

/// The most keyframes a live tape holds. When one more is taken, every
/// other keyframe is dropped (counting back from the newest) and the
/// spacing doubles, so a tape keeps at most this many, spread over the
/// whole session.
pub const KEYFRAME_CAP: usize = 8;

/// The live recording attached to a [`DebugSession`]: entries in tape
/// order, the snapshot-stride counter, and the in-memory keyframes.
#[derive(Debug)]
pub(crate) struct Tape {
    spec: Option<Value>,
    /// The bytes an export holds around the entries
    /// ([`Recording::envelope_len`]), counted when recording starts.
    envelope_len: usize,
    stride: u64,
    start_ns: u64,
    /// Written through [`Tape::push`], cut through [`Tape::truncate`],
    /// so the lengths and the latest snapshot below follow them.
    entries: Vec<Entry>,
    /// Each entry's [`Entry::chunk_len`]: an op's or a digest's is
    /// counted when it is written, a snapshot's on the first export
    /// count.
    chunk_lens: Vec<OnceLock<usize>>,
    /// The index of the latest snapshot entry.
    last_snapshot: Option<usize>,
    ops_since_boundary: u64,
    /// Restore points between the tape's snapshots, oldest first. They
    /// only shorten time travel and never reach a [`Recording`].
    keyframes: Vec<Keyframe>,
    /// Simulated time between keyframes, nanoseconds.
    keyframe_ns: u64,
    /// When the latest restore point (tape snapshot or keyframe) was
    /// taken; the next keyframe falls due `keyframe_ns` after it.
    restore_ns: u64,
}

impl Tape {
    /// Appends `entry` to the tape. An op's or a digest's chunk length
    /// is counted now; a snapshot's, whose walk is the costly one, waits
    /// for the first export count, which a tape may never get.
    fn push(&mut self, entry: Entry) {
        let len = OnceLock::new();
        if matches!(entry, Entry::Snapshot { .. }) {
            self.last_snapshot = Some(self.entries.len());
        } else {
            let _ = len.set(entry.chunk_len());
        }
        self.entries.push(entry);
        self.chunk_lens.push(len);
    }

    /// Cuts the tape back to its first `keep` entries.
    fn truncate(&mut self, keep: usize) {
        self.entries.truncate(keep);
        self.chunk_lens.truncate(keep);
        if self.last_snapshot.is_some_and(|i| i >= keep) {
            self.last_snapshot = self
                .entries
                .iter()
                .rposition(|entry| matches!(entry, Entry::Snapshot { .. }));
        }
    }

    /// Replaces the op at entry `i` with `op`, and re-counts its chunk.
    fn replace_op(&mut self, i: usize, op: &SessionOp) {
        if let Entry::Op { value, .. } = &mut self.entries[i] {
            *value = op.to_value();
            self.chunk_lens[i] = OnceLock::from(self.entries[i].chunk_len());
        }
    }
}

/// An in-memory restore point: the session's typed state at `now_ns`
/// and where the tape stood then.
#[derive(Debug)]
struct Keyframe {
    now_ns: u64,
    state: Box<SessionState>,
    /// Tape entries written before it. Taken inside a stepping op
    /// (`mid_op`), the last of them is that op's entry.
    entries: usize,
    /// The stride counter; inside an op, before the op is counted.
    ops_since_boundary: u64,
    mid_op: bool,
}

/// Appends an `Op` entry for `op` (stamped with the *pre-execution*
/// time). Called by the session's recording wrapper before each
/// recorded call; no-op when the session is not recording.
pub(crate) fn tape_op(session: &mut DebugSession, op: &SessionOp) {
    if session.tape.is_none() {
        return;
    }
    let now_ns = session.now().as_ns();
    let value = op.to_value();
    let tape = session.tape.as_mut().expect("checked above");
    tape.push(Entry::Op { now_ns, value });
}

/// Marks an operation boundary: counts the op and, every `stride` ops,
/// appends a full-state snapshot (or a digest, for worlds that cannot
/// serialize). Called by the session's recording wrapper after each
/// recorded call.
///
/// Between snapshots, takes an op-boundary keyframe once the next
/// keyframe instant has passed.
pub(crate) fn tape_boundary(session: &mut DebugSession) {
    let Some(tape) = session.tape.as_mut() else {
        return;
    };
    tape.ops_since_boundary += 1;
    if tape.ops_since_boundary >= tape.stride {
        push_boundary(session);
    } else if next_keyframe(session).is_some_and(|at| session.now() >= at) {
        push_keyframe(session, false);
    }
}

/// The instant the next keyframe falls due, or `None` when the session
/// takes none: it is not recording, or its world cannot snapshot.
pub(crate) fn next_keyframe(session: &DebugSession) -> Option<SimTime> {
    let tape = session.tape.as_ref()?;
    let at = tape.restore_ns.saturating_add(tape.keyframe_ns);
    session
        .system()
        .supports_snapshots()
        .then(|| SimTime::from_ns(at))
}

/// Takes a keyframe of the session as it stands: at an op boundary, or
/// inside the stepping op whose entry is the tape's last (`mid_op`).
/// Past [`KEYFRAME_CAP`], thins the keyframes and doubles the spacing.
pub(crate) fn push_keyframe(session: &mut DebugSession, mid_op: bool) {
    if session.tape.is_none() {
        return;
    }
    let Some(state) = snapshot_state(session) else {
        return;
    };
    let now_ns = session.now().as_ns();
    let tape = session.tape.as_mut().expect("checked above");
    tape.keyframes.push(Keyframe {
        now_ns,
        state: Box::new(state),
        entries: tape.entries.len(),
        ops_since_boundary: tape.ops_since_boundary,
        mid_op,
    });
    tape.restore_ns = now_ns;
    if tape.keyframes.len() > KEYFRAME_CAP {
        let newest = tape.keyframes.len() - 1;
        let mut i = 0;
        tape.keyframes.retain(|_| {
            let keep = (newest - i).is_multiple_of(2);
            i += 1;
            keep
        });
        tape.keyframe_ns = tape.keyframe_ns.saturating_mul(2);
    }
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
    if matches!(entry, Entry::Snapshot { .. }) {
        tape.restore_ns = now_ns;
    }
    tape.ops_since_boundary = 0;
    tape.push(entry);
}

/// The full session state a tape snapshot holds: the bench. It encodes
/// as a map of the bench (`sys`) and, under their own keys, the
/// debugger's code breakpoints and energy-guard thresholds, read from
/// the bench's [`Edb`] at encode time. Restore reads only
/// `sys`, which carries the debugger; [`verify`] re-encodes live state,
/// so a tampered list is still caught.
#[derive(Debug)]
struct SessionState(SystemState);

impl Serialize for SessionState {
    fn serialize(&self, sink: &mut dyn Sink) {
        let edb = self.0.edb();
        sink.map(3);
        sink.str("sys");
        self.0.serialize(sink);
        sink.str("breakpoints");
        edb.map_or_else(Vec::new, Edb::code_breakpoints)
            .serialize(sink);
        sink.str("guards");
        edb.map_or_else(Vec::new, Edb::energy_thresholds)
            .serialize(sink);
    }
}

/// The session's full state, or `None` for worlds that cannot snapshot.
/// It shares every unchanged FRAM page with the tape's latest restore
/// point.
fn snapshot_state(session: &DebugSession) -> Option<SessionState> {
    let prev = session.tape.as_ref().and_then(latest_state);
    session.system().snapshot_after(prev).map(SessionState)
}

/// The state of the tape's latest restore point: its last tape snapshot
/// or, when taken after that, its last keyframe.
fn latest_state(tape: &Tape) -> Option<&SystemState> {
    match (tape.last_snapshot, tape.keyframes.last()) {
        (Some(i), Some(kf)) if kf.entries > i => Some(&kf.state.0),
        (Some(i), _) => match &tape.entries[i] {
            Entry::Snapshot { state, .. } => state.downcast::<SessionState>().map(|s| &s.0),
            _ => unreachable!("the latest snapshot entry is a snapshot"),
        },
        (None, kf) => kf.map(|kf| &kf.state.0),
    }
}

/// Restores a snapshot entry's state: shared typed state from a live
/// tape, or a tree decoded from recording bytes.
fn restore_snapshot(session: &mut DebugSession, state: &SnapshotState) -> Result<(), DeError> {
    let sys = session.system_mut();
    match state {
        SnapshotState::Decoded(v) => sys.restore_state(
            v.get_field("sys")
                .ok_or_else(|| DeError::new("session snapshot missing `sys`"))?,
        ),
        SnapshotState::Shared(_) => sys.restore(
            &state
                .downcast::<SessionState>()
                .ok_or_else(|| DeError::new("snapshot holds state of another recorder"))?
                .0,
        ),
    }
}

/// Where a backward [`DebugSession::goto_time`] restarts, how it cuts
/// the tape, and what it re-executes.
struct Travel {
    from: Restore,
    /// Tape entries kept.
    keep: usize,
    /// Keyframes kept.
    keyframes: usize,
    /// The stride counter at the restore point.
    ops_since_boundary: u64,
    /// When the restore point was taken.
    restore_ns: u64,
    /// Kept op entries whose stepping op re-execution would cut at the
    /// target, by entry index, with the cut op.
    clipped: Vec<(usize, SessionOp)>,
    /// The stepping op a mid-op keyframe sits inside, cut at the
    /// target, and the instant it runs to.
    unfinished: Option<(SessionOp, SimTime)>,
    /// The ops after the restore point that began before the target.
    ops: Vec<SessionOp>,
}

/// A travel's restore point.
enum Restore {
    /// The tape snapshot at this entry index.
    Snapshot(usize),
    /// The keyframe at this index.
    Keyframe(usize),
    /// No snapshot: rebuild the session from the embedded spec.
    Spec,
}

/// Plans a backward travel to `target_ns`: the reference restore point
/// is the latest tape snapshot at or before the target, and re-execution
/// runs every op after it that began before the target, stepping ops
/// cut at the target. The latest keyframe that re-execution would pass
/// through replaces it: one past the snapshot, at or before the target,
/// with every op before it (the one it sits inside included) begun
/// strictly before the target and none a stepping op cut to nothing,
/// which re-execution skips.
fn plan_travel(tape: &Tape, target_ns: u64) -> Result<Travel, EdbError> {
    if target_ns < tape.start_ns {
        return Err(EdbError::Replay {
            detail: format!(
                "target {target_ns} ns precedes the recording start ({} ns)",
                tape.start_ns
            ),
        });
    }
    let snapshot = tape
        .entries
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, entry)| match entry {
            Entry::Snapshot { now_ns, .. } if *now_ns <= target_ns => Some((i, *now_ns)),
            _ => None,
        });
    // The entries after the snapshot; without one, after the leading
    // boundary entries.
    let base = match snapshot {
        Some((i, _)) => i + 1,
        None => tape
            .entries
            .iter()
            .take_while(|e| !matches!(e, Entry::Op { .. }))
            .count(),
    };
    // Op start times never decrease, so the ops begun before the target
    // are the ones before `late`.
    let mut ops = Vec::new();
    let mut late = tape.entries.len();
    for (i, entry) in tape.entries.iter().enumerate().skip(base) {
        let Entry::Op { now_ns, value } = entry else {
            continue;
        };
        if *now_ns >= target_ns {
            late = i;
            break;
        }
        let op = SessionOp::from_value(value).map_err(|e| EdbError::Replay {
            detail: format!("recorded op at entry {i} does not decode: {e}"),
        })?;
        ops.push((i, *now_ns, op));
    }
    let keyframe = tape.keyframes.iter().rposition(|kf| {
        kf.entries > base
            && kf.entries <= late
            && kf.now_ns <= target_ns
            && ops
                .iter()
                .take_while(|(i, ..)| *i < kf.entries)
                .all(|(_, now_ns, op)| op.cut_at(*now_ns, target_ns).is_some())
    });
    let kept_before = |base| {
        tape.keyframes
            .iter()
            .take_while(|kf| kf.entries <= base)
            .count()
    };
    let (from, keep, keyframes, ops_since_boundary, restore_ns) = match (keyframe, snapshot) {
        (Some(k), _) => {
            let kf = &tape.keyframes[k];
            let counter = kf.ops_since_boundary;
            (Restore::Keyframe(k), kf.entries, k + 1, counter, kf.now_ns)
        }
        (None, Some((i, now_ns))) => (Restore::Snapshot(i), base, kept_before(base), 0, now_ns),
        (None, None) => (Restore::Spec, base, kept_before(base), 0, tape.start_ns),
    };
    let mut travel = Travel {
        from,
        keep,
        keyframes,
        ops_since_boundary,
        restore_ns,
        clipped: Vec::new(),
        unfinished: None,
        ops: Vec::new(),
    };
    let mid_op = keyframe.is_some_and(|k| tape.keyframes[k].mid_op);
    for (i, now_ns, op) in ops {
        if i >= travel.keep {
            travel.ops.push(op);
            continue;
        }
        let cut = op
            .cut_at(now_ns, target_ns)
            .expect("an admissible keyframe follows no skipped op");
        if mid_op && i + 1 == travel.keep {
            let (SessionOp::Advance { ns } | SessionOp::RunUntilSession { timeout_ns: ns }) = cut
            else {
                unreachable!("mid-op keyframes sit inside stepping ops");
            };
            travel.unfinished = Some((cut.clone(), SimTime::from_ns(now_ns + ns)));
        }
        if cut != op {
            travel.clipped.push((i, cut));
        }
    }
    Ok(travel)
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
        let start_ns = self.now().as_ns();
        let spec = spec.map(Serialize::to_value);
        self.tape = Some(Tape {
            envelope_len: Recording::envelope_len(spec.as_ref(), true),
            spec,
            stride: stride.max(1),
            start_ns,
            entries: Vec::new(),
            chunk_lens: Vec::new(),
            last_snapshot: None,
            ops_since_boundary: 0,
            keyframes: Vec::new(),
            keyframe_ns: KEYFRAME_NS,
            restore_ns: start_ns,
        });
        push_boundary(self);
    }

    /// Whether a recording is active.
    pub fn is_recording(&self) -> bool {
        self.tape.is_some()
    }

    /// When the live tape's in-memory keyframes were taken, oldest
    /// first; empty when not recording. Keyframes only shorten time
    /// travel: no recording ever holds one.
    pub fn keyframe_times(&self) -> Vec<SimTime> {
        self.tape.as_ref().map_or_else(Vec::new, |tape| {
            tape.keyframes
                .iter()
                .map(|kf| SimTime::from_ns(kf.now_ns))
                .collect()
        })
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

    /// Counts the recording as it stands without exporting it: `(ops,
    /// snapshots, bytes)`, where `bytes` is the length of
    /// [`export_recording`](DebugSession::export_recording)'s
    /// [`Recording::to_bytes`]. Builds no recording and digests no state
    /// (the End chunk's length does not depend on its digest); each
    /// snapshot is measured once, on the first count that meets it.
    /// `None` when not recording.
    pub fn count_export(&self) -> Option<(usize, usize, usize)> {
        let tape = self.tape.as_ref()?;
        let (mut ops, mut snapshots, mut bytes) = (0, 0, tape.envelope_len);
        for (entry, len) in tape.entries.iter().zip(&tape.chunk_lens) {
            match entry {
                Entry::Op { .. } => ops += 1,
                Entry::Snapshot { .. } => snapshots += 1,
                Entry::Digest { .. } => {}
            }
            bytes += len.get_or_init(|| entry.chunk_len());
        }
        Some((ops, snapshots, bytes))
    }

    /// Travels to simulated time `target`.
    ///
    /// Forward travel is plain [`advance`](DebugSession::advance).
    /// Backward travel restores the latest restore point at or before
    /// `target` and re-executes the recorded operations forward from
    /// it. The restore point is the nearest recorded snapshot at or
    /// before `target` (or a rebuild from the embedded spec when none
    /// exists — always the case for digest-only RFID recordings), or a
    /// later in-memory keyframe when one is admissible (see
    /// [`KEYFRAME_NS`]): every op between that snapshot and the
    /// keyframe, the one it sits inside included, began strictly before
    /// `target`. An `Advance` or `RunUntilSession` that straddles
    /// `target` is split exactly at `target` (both are pure stepping);
    /// an op of any other kind that began before `target` — a command
    /// exchange, a charge loop — re-executes in full, so the session
    /// lands at that op's completion time. Either restore point lands on
    /// the same bits and leaves the same tape. The tape is truncated at
    /// the landing point: the future beyond it (keyframes included) is
    /// discarded and new operations extend the new timeline.
    ///
    /// Returns the time actually landed on. Requires an active
    /// recording. On an error (a target before the recording start, an
    /// op or snapshot that does not decode) the session keeps its tape.
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
        let mut tape = self.tape.take().expect("checked above");
        // Everything that can fail runs before the tape changes.
        let planned = plan_travel(&tape, target_ns)
            .and_then(|travel| self.restore_point(&tape, &travel.from).map(|()| travel));
        let travel = match planned {
            Ok(travel) => travel,
            Err(e) => {
                self.tape = Some(tape);
                return Err(e);
            }
        };

        // Cut the tape back to the restore point as re-execution from
        // the snapshot would leave it, then re-execute forward. The
        // re-executed ops re-record, so the tape's entries (and boundary
        // snapshots) regrow exactly as they stood the first time.
        tape.truncate(travel.keep);
        for (i, op) in travel.clipped {
            tape.replace_op(i, &op);
        }
        tape.keyframes.truncate(travel.keyframes);
        tape.ops_since_boundary = travel.ops_since_boundary;
        tape.restore_ns = travel.restore_ns;
        self.tape = Some(tape);
        if let Some((op, end)) = travel.unfinished {
            self.run_stepping(&op, end);
            tape_boundary(self);
        }
        for op in travel.ops {
            if let Some(op) = op.cut_at(self.now().as_ns(), target_ns) {
                op.apply(self);
            }
        }
        // Land exactly on the target when it falls in open time.
        let short = target_ns.saturating_sub(self.now().as_ns());
        if short > 0 {
            self.advance(SimTime::from_ns(short));
        }
        Ok(self.now())
    }

    /// Stands the session up at a travel's restore point.
    fn restore_point(&mut self, tape: &Tape, from: &Restore) -> Result<(), EdbError> {
        let failed = |e: DeError| EdbError::Replay {
            detail: format!("snapshot restore failed: {e}"),
        };
        match *from {
            Restore::Snapshot(i) => {
                let Entry::Snapshot { state, .. } = &tape.entries[i] else {
                    unreachable!("the restore point is a snapshot");
                };
                restore_snapshot(self, state).map_err(failed)
            }
            Restore::Keyframe(k) => {
                let state = tape.keyframes[k].state.0.clone();
                self.system_mut().install(state).map_err(failed)
            }
            Restore::Spec => {
                let spec_value = tape.spec.as_ref().ok_or_else(|| EdbError::Replay {
                    detail: "no snapshot covers the target and the recording carries no spec"
                        .into(),
                })?;
                let spec = SessionSpec::from_value(spec_value).map_err(|e| EdbError::Replay {
                    detail: format!("embedded spec does not decode: {e}"),
                })?;
                *self = spec.build()?;
                Ok(())
            }
        }
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
            .events()
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
            sim.run_until(SimTime::from_ns(sim.now().as_ns() + ms * 1_000_000));
        }
        FleetOp::RunSlots(slots) => sim.run_slots(slots),
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
                .events()
                .any(|e| e.at == stop && e.event.tag() == "assert"),
            "assert event present at the landing time"
        );
    }

    #[test]
    fn breakpoints_follow_time_travel() {
        for stride in [1, 2, 64] {
            let mut s = SessionSpec::bench(ASSERT_APP)
                .record(stride)
                .expect("builds");
            assert!(s.run_until_session(SimTime::from_secs(2)));
            let mask_addr = s.symbol(crate::libedb::BKPT_MASK_SYMBOL).expect("libEDB");
            let mask = |s: &DebugSession| s.system().device().mem().peek_word(mask_addr);
            let mask_before = mask(&s);
            s.advance(SimTime::from_ms(2));
            let calls = s.now();
            s.set_breakpoint(1, Some(2.0)).unwrap();
            s.arm_energy_guard(1.9).unwrap();
            let mask_set = mask(&s);
            assert_ne!(mask_set, mask_before, "stride {stride}: mask written");
            s.advance(SimTime::from_ms(10));

            // Back to a point past the calls: restored and re-executed
            // state carries them.
            let past = calls + SimTime::from_ms(5);
            assert_eq!(s.goto_time(past), Ok(past), "stride {stride}");
            assert_eq!(s.breakpoints(), vec![(1, Some(2.0))], "stride {stride}");
            assert_eq!(s.energy_guards(), vec![1.9], "stride {stride}");
            assert_eq!(mask(&s), mask_set, "stride {stride}");

            // A millisecond before the calls: all three are gone.
            let cycle_ns = (1e9 / s.system().device().config().clock_hz).round() as u64;
            let back_ns = (s.now() - calls).as_ns() + 1_000_000;
            let landed = s.step_back(back_ns / cycle_ns).expect("steps back");
            assert!(landed < calls, "stride {stride}: {landed:?} !< {calls:?}");
            assert!(s.breakpoints().is_empty(), "stride {stride}");
            assert!(s.energy_guards().is_empty(), "stride {stride}");
            assert_eq!(mask(&s), mask_before, "stride {stride}");

            // Travelling back truncated the tape, so the new timeline
            // runs past the old call times without them.
            assert_eq!(s.goto_time(past), Ok(past), "stride {stride}");
            assert!(s.breakpoints().is_empty(), "stride {stride}");
            assert_eq!(mask(&s), mask_before, "stride {stride}");
            let rec = s.stop_recording().expect("recording");
            verify(&rec).unwrap_or_else(|e| panic!("stride {stride}: {e}"));
        }
    }

    /// A recorded run that crosses keyframes inside an `Advance` and a
    /// long `RunUntilSession`, with zero-duration ops (breakpoint, guard,
    /// a zero-length advance) at op boundaries, exchanges (one writing
    /// FRAM), a resume and single steps.
    fn keyframed_run(stride: u64) -> (DebugSession, SessionSpec) {
        let spec = SessionSpec::bench(ASSERT_APP);
        let mut s = spec.record(stride).expect("builds");
        s.advance(SimTime::from_ms(3));
        assert!(s.run_until_session(SimTime::from_secs(2)));
        s.set_breakpoint(1, Some(2.0)).unwrap();
        let _ = s.perform(DebugRequest::ReadWord { addr: 0x6000 });
        // An FRAM write between keyframes: the pages it lands on are no
        // longer shared with the keyframes before it.
        let _ = s.perform(DebugRequest::WriteWord {
            addr: 0x6002,
            value: 0xBEEF,
        });
        let _ = s.resume();
        s.advance(SimTime::from_ms(30));
        // Re-execution skips a zero-length advance, so no keyframe after
        // it is admissible before the next snapshot.
        s.advance(SimTime::ZERO);
        s.arm_energy_guard(1.9).unwrap();
        s.advance(SimTime::from_ms(12));
        for _ in 0..3 {
            s.step();
        }
        (s, spec)
    }

    /// The travel a tape gave before keyframes existed, rebuilt from
    /// scratch: a fresh recording of `spec` runs the tape's ops up to
    /// the latest snapshot at or before the target whole, later ops that
    /// began before the target with `Advance`/`RunUntilSession` cut at
    /// it (skipped when cut to nothing), then advances to the target.
    fn reference_travel(
        spec: &SessionSpec,
        stride: u64,
        rec: &Recording,
        target_ns: u64,
    ) -> DebugSession {
        let snapshot = rec
            .entries
            .iter()
            .rposition(|e| matches!(e, Entry::Snapshot { now_ns, .. } if *now_ns <= target_ns))
            .expect("the tape starts with a snapshot");
        let mut s = spec.record(stride).expect("builds");
        for (i, entry) in rec.entries.iter().enumerate() {
            let Entry::Op { now_ns, value } = entry else {
                continue;
            };
            let op = SessionOp::from_value(value).expect("op decodes");
            if i < snapshot {
                op.apply(&mut s);
                continue;
            }
            if *now_ns >= target_ns {
                break;
            }
            let left = target_ns - s.now().as_ns();
            match op {
                SessionOp::Advance { ns } if ns.min(left) > 0 => {
                    s.advance(SimTime::from_ns(ns.min(left)));
                }
                SessionOp::RunUntilSession { timeout_ns } if timeout_ns.min(left) > 0 => {
                    s.run_until_session(SimTime::from_ns(timeout_ns.min(left)));
                }
                SessionOp::Advance { .. } | SessionOp::RunUntilSession { .. } => {}
                other => other.apply(&mut s),
            }
        }
        let short = target_ns.saturating_sub(s.now().as_ns());
        if short > 0 {
            s.advance(SimTime::from_ns(short));
        }
        s
    }

    /// Travels `s` back to each target in turn (descending, so each
    /// travel starts from the tape the previous one cut) and checks the
    /// landing time, state digest and exported tape bytes against
    /// [`reference_travel`] on the tape as it stood. Returns how many
    /// travels restored a keyframe.
    fn check_travels(
        s: &mut DebugSession,
        spec: &SessionSpec,
        stride: u64,
        targets: &[u64],
    ) -> usize {
        let mut from_keyframes = 0;
        for &target_ns in targets {
            let rec = s.export_recording().expect("recording");
            let tape = s.tape.as_ref().expect("recording");
            let plan = plan_travel(tape, target_ns).expect("plans");
            from_keyframes += usize::from(matches!(plan.from, Restore::Keyframe(_)));
            let landed = s.goto_time(SimTime::from_ns(target_ns)).expect("travels");
            let reference = reference_travel(spec, stride, &rec, target_ns);
            let what = format!("stride {stride}, target {target_ns} ns");
            assert_eq!(landed, reference.now(), "{what}");
            assert_eq!(
                s.system().state_digest(),
                reference.system().state_digest(),
                "{what}"
            );
            let ours = s.export_recording().expect("recording").to_bytes();
            let theirs = reference.export_recording().expect("recording").to_bytes();
            assert!(ours == theirs, "{what}: tapes differ");
            let tape = s.tape.as_ref().expect("recording");
            assert!(
                tape.keyframes.iter().all(|kf| kf.now_ns <= landed.as_ns()),
                "{what}: a keyframe outlived the travel"
            );
        }
        from_keyframes
    }

    #[test]
    fn keyframe_travel_equals_reexecution_from_the_snapshot() {
        // At stride 2 the long `RunUntilSession` is the second op after
        // a snapshot, so finishing it from a keyframe inside it takes a
        // snapshot: the stride counter the keyframe restores shows in the
        // tape bytes.
        for stride in [1, 2, 32, 4096] {
            let (mut s, spec) = keyframed_run(stride);
            let rec = s.export_recording().expect("recording");
            let tape = s.tape.as_ref().expect("recording");
            let end_ns = s.now().as_ns();
            // Every op start (the zero-duration ops' instants among them),
            // every keyframe instant, points inside every op, and the
            // instant a 1 000-cycle step back lands on.
            let mut targets: Vec<u64> = tape.keyframes.iter().map(|kf| kf.now_ns).collect();
            let starts: Vec<u64> = rec
                .entries
                .iter()
                .filter_map(|e| match e {
                    Entry::Op { now_ns, .. } => Some(*now_ns),
                    _ => None,
                })
                .chain([end_ns])
                .collect();
            targets.extend(&starts);
            for pair in starts.windows(2) {
                targets.push(pair[0] + (pair[1] - pair[0]) / 3);
            }
            let cycle_ns = (1e9 / s.system().device().config().clock_hz).round() as u64;
            targets.push(end_ns - 1000 * cycle_ns);
            targets.retain(|&t| t < end_ns);
            targets.sort_unstable();
            targets.dedup();
            targets.reverse();
            assert!(
                tape.keyframes.len() >= 4,
                "stride {stride}: keyframes taken"
            );

            let from_keyframes = check_travels(&mut s, &spec, stride, &targets);
            if stride > 1 {
                assert!(
                    from_keyframes > 0,
                    "stride {stride}: no travel used a keyframe"
                );
            }
            let rec = s.stop_recording().expect("recording");
            verify(&rec).unwrap_or_else(|e| panic!("stride {stride}: {e}"));
        }
    }

    #[test]
    fn keyframe_travel_from_a_travelled_timeline() {
        // Travel back, run a new future (re-taking keyframes), then
        // travel into it and across the old landing point.
        for stride in [1, 32, 4096] {
            let (mut s, spec) = keyframed_run(stride);
            let first = s.now().as_ns() / 2;
            s.goto_time(SimTime::from_ns(first)).expect("travels");
            s.advance(SimTime::from_ms(25));
            let _ = s.run_until_session(SimTime::from_ms(20));
            s.advance(SimTime::from_ms(9));
            let end = s.now().as_ns();
            let targets = [
                end - 3_000_000,
                first + 11_000_000,
                first,
                first - 5_000_000,
            ];
            check_travels(&mut s, &spec, stride, &targets);
            let rec = s.stop_recording().expect("recording");
            verify(&rec).unwrap_or_else(|e| panic!("stride {stride}: {e}"));
        }
    }

    #[test]
    fn keyframes_stay_under_the_cap_and_spread_out() {
        let mut s = SessionSpec::bench(ASSERT_APP).record(4096).expect("builds");
        let mut spacing = KEYFRAME_NS;
        let mut doublings = 0;
        for _ in 0..20 {
            let before = s.tape.as_ref().expect("recording").keyframes.len();
            s.advance(SimTime::from_ms(100));
            let tape = s.tape.as_ref().expect("recording");
            assert!(tape.keyframes.len() <= KEYFRAME_CAP);
            if tape.keyframe_ns != spacing {
                // The cap was hit: the spacing doubles.
                assert_eq!(tape.keyframe_ns, spacing * 2);
                spacing *= 2;
                doublings += 1;
            } else {
                assert!(tape.keyframes.len() >= before, "thinned without doubling");
            }
            for pair in tape.keyframes.windows(2) {
                assert!(pair[1].now_ns - pair[0].now_ns >= KEYFRAME_NS);
            }
        }
        assert!(doublings >= 3, "2 s at 8 ms spacing must hit the cap");
        let tape = s.tape.as_ref().expect("recording");
        assert_eq!(tape.keyframes.len(), KEYFRAME_CAP);
        // The newest keyframes sit a whole (doubled) spacing apart.
        let newest = &tape.keyframes[KEYFRAME_CAP - 2..];
        assert!(newest[1].now_ns - newest[0].now_ns >= spacing);

        // Travel drops the keyframes past the landing point.
        let target = SimTime::from_ms(900);
        let landed = s.goto_time(target).expect("travels");
        let tape = s.tape.as_ref().expect("recording");
        assert!(tape.keyframes.iter().all(|kf| kf.now_ns <= landed.as_ns()));
        assert!(s.keyframe_times().len() < KEYFRAME_CAP);
        assert!(!s.keyframe_times().is_empty());
        // Stopping the recording drops them all; none reached it.
        let rec = s.stop_recording().expect("recording");
        assert!(s.keyframe_times().is_empty());
        assert_eq!(rec.snapshot_count(), 2, "start and seal only");
        verify(&rec).expect("verifies");
    }

    /// A fresh recording of `spec` run through the ops among
    /// `entries[..upto]`, the last cut at `cut_ns` when given: the state
    /// a restore point taken there holds.
    fn rerun(
        spec: &SessionSpec,
        stride: u64,
        entries: &[Entry],
        upto: usize,
        cut_ns: Option<u64>,
    ) -> DebugSession {
        let mut s = spec.record(stride).expect("builds");
        for (i, entry) in entries[..upto].iter().enumerate() {
            let Entry::Op { now_ns, value } = entry else {
                continue;
            };
            let op = SessionOp::from_value(value).expect("op decodes");
            match cut_ns.filter(|_| i + 1 == upto) {
                Some(cut_ns) => {
                    if let Some(cut) = op.cut_at(*now_ns, cut_ns) {
                        cut.apply(&mut s);
                    }
                }
                None => op.apply(&mut s),
            }
        }
        s
    }

    #[test]
    fn restore_points_share_unchanged_pages_and_sealed_chunks() {
        for stride in [3, 32] {
            let (mut s, spec) = keyframed_run(stride);
            // Long enough for the event log to seal chunks, with
            // more FRAM writes between restore points.
            for k in 0..6u16 {
                let _ = s.run_until_session(SimTime::from_ms(20));
                let _ = s.perform(DebugRequest::WriteWord {
                    addr: 0x7000 + 0x400 * k,
                    value: k,
                });
                let _ = s.resume();
                s.advance(SimTime::from_ms(7));
            }
            let tape = s.tape.as_ref().expect("recording");
            // Each restore point in the order taken: the tape entries
            // before it, snapshots after keyframes at the same place.
            let mut order: Vec<(usize, bool, Option<&Keyframe>, &SessionState)> = tape
                .keyframes
                .iter()
                .map(|kf| (kf.entries, false, Some(kf), &*kf.state))
                .collect();
            for (i, entry) in tape.entries.iter().enumerate() {
                if let Entry::Snapshot { state, .. } = entry {
                    let state = state.downcast::<SessionState>().expect("typed state");
                    order.push((i, true, None, state));
                }
            }
            order.sort_by_key(|&(at, snap, ..)| (at, snap));
            let snapshots = order.iter().filter(|p| p.1).count();
            assert!(tape.keyframes.len() >= 4 && snapshots >= 2);

            let (mut shared, mut rewritten, mut chunks) = (0, 0, 0);
            for pair in order.windows(2) {
                let (a, b) = (&pair[0].3 .0, &pair[1].3 .0);
                let pages = a.mem().fram_pages().iter().zip(b.mem().fram_pages());
                for (k, (pa, pb)) in pages.enumerate() {
                    if pa[..] == pb[..] {
                        assert!(Arc::ptr_eq(pa, pb), "stride {stride}: page {k} copied");
                        shared += 1;
                    } else {
                        rewritten += 1;
                    }
                }
                let (la, lb) = (a.edb().expect("edb").log(), b.edb().expect("edb").log());
                assert!(la.sealed().len() <= lb.sealed().len());
                for (ca, cb) in la.sealed().iter().zip(lb.sealed()) {
                    assert!(Arc::ptr_eq(ca, cb), "stride {stride}: event chunk copied");
                    chunks += 1;
                }
            }
            assert!(shared > 0 && rewritten > 0 && chunks > 0, "stride {stride}");

            // Restoring each point lands on the state a fresh run to it
            // reaches.
            let rec = s.export_recording().expect("recording");
            for &(at, _, kf, state) in &order {
                let cut_ns = kf.filter(|kf| kf.mid_op).map(|kf| kf.now_ns);
                let reference = rerun(&spec, stride, &rec.entries, at, cut_ns);
                let mut restored = spec.build().expect("builds");
                restored.system_mut().restore(&state.0).expect("restores");
                assert_eq!(
                    restored.system().state_digest(),
                    reference.system().state_digest(),
                    "stride {stride}: restore point at entry {at}"
                );
                assert_eq!(
                    digest(&restored.system().save_state()),
                    digest(&reference.system().save_state()),
                    "stride {stride}: restore point at entry {at}"
                );
            }
        }
    }

    #[test]
    fn failed_travel_keeps_the_tape() {
        let (mut s, _) = recorded_run(4);
        let before = s.export_recording().expect("recording").to_bytes();
        let now = s.now();
        // A tape op that does not decode is a typed error, and the
        // session keeps its clock and tape.
        let tape = s.tape.as_mut().expect("recording");
        let first_op = tape
            .entries
            .iter()
            .position(|e| matches!(e, Entry::Op { .. }))
            .expect("ops recorded");
        let Entry::Op { value, .. } = &mut tape.entries[first_op] else {
            unreachable!()
        };
        let good = std::mem::replace(value, Value::Str("not an op".into()));
        let err = s.goto_time(SimTime::from_ms(1)).expect_err("must fail");
        assert!(matches!(err, EdbError::Replay { .. }), "{err}");
        assert!(err.to_string().contains("does not decode"), "{err}");
        assert!(s.is_recording(), "the tape survived the error");
        assert_eq!(s.now(), now);
        // So does a target before the recording start.
        let tape = s.tape.as_mut().expect("recording");
        if let Entry::Op { value, .. } = &mut tape.entries[first_op] {
            *value = good;
        }
        tape.start_ns = 5;
        assert!(s.goto_time(SimTime::from_ns(1)).is_err());
        s.tape.as_mut().expect("recording").start_ns = 0;
        assert_eq!(s.export_recording().expect("recording").to_bytes(), before);
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
