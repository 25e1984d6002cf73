//! The test-bench harness: target device + EDB + the RF world, stepped
//! in lockstep.
//!
//! [`System`] is the experimental setup of §5.1 in one struct: the WISP
//! target, the EDB board on its header, and (optionally) the RFID reader
//! whose carrier powers the tag. All experiment harnesses and examples
//! drive a `System`.

use crate::debugger::{DebugRequest, DebugResponse, Edb, EdbConfig, SessionPoll};
use crate::error::EdbError;
use crate::events::{DebugEvent, LoggedEvent};
use crate::wiring::{ChannelFaultConfig, LineStates};
use edb_device::{Device, DeviceConfig, DeviceEvent, DeviceStep, Horizon, Span};
use edb_energy::RfField;
use edb_energy::{Harvester, PowerEdge, SimTime};
use edb_obs::{Category, Recorder, RecorderConfig};
use edb_rfid::{Channel, Reader, ReaderConfig};
use edb_runtime::ckpt::{CkptConfig, CkptEngine};
use serde::{DeError, Deserialize, Serialize, Value};

/// The energy-and-RF environment around the target.
#[allow(clippy::large_enum_variant)] // one World per System; size is irrelevant
enum World {
    /// A plain harvester (constant, Thévenin, solar, trace playback).
    Harvester(Box<dyn Harvester>),
    /// The paper's lab: an RFID reader powering the tag and talking to it.
    Rfid {
        field: RfField,
        reader: Reader,
        channel: Channel,
        /// Downlink frames in flight: `(deliver_at, bytes)`.
        inflight: Vec<(SimTime, Vec<u8>)>,
    },
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            World::Harvester(_) => write!(f, "World::Harvester(..)"),
            World::Rfid { reader, .. } => f
                .debug_struct("World::Rfid")
                .field("commands_sent", &reader.commands_sent())
                .finish(),
        }
    }
}

/// What powers the target while the bench runs.
enum WorldSpec {
    /// A plain harvester (constant, Thévenin, solar, trace playback).
    Harvester(Box<dyn Harvester>),
    /// An RFID reader's carrier at `distance_m` metres.
    Rfid { distance_m: f64 },
}

/// Builder for a [`System`] — the one way to stand up a bench.
///
/// Exactly one energy world must be chosen: [`harvester`] or [`rfid`].
/// Everything else has the defaults the paper's setup uses: EDB attached
/// with [`EdbConfig::prototype`], the paper's reader schedule, channel
/// seed 0.
///
/// [`harvester`]: SystemBuilder::harvester
/// [`rfid`]: SystemBuilder::rfid
///
/// # Example
///
/// ```
/// use edb_core::System;
/// use edb_device::DeviceConfig;
/// use edb_energy::TheveninSource;
///
/// let tethered = System::builder(DeviceConfig::wisp5())
///     .harvester(TheveninSource::new(3.0, 10.0))
///     .build();
/// assert!(tethered.edb().is_some());
///
/// let bare_rfid = System::builder(DeviceConfig::wisp5())
///     .rfid(1.0)
///     .seed(42)
///     .no_edb()
///     .build();
/// assert!(bare_rfid.edb().is_none());
/// ```
pub struct SystemBuilder {
    device_config: DeviceConfig,
    world: Option<WorldSpec>,
    reader_config: ReaderConfig,
    seed: u64,
    edb: bool,
    edb_config: EdbConfig,
    channel_fault: Option<ChannelFaultConfig>,
    recorder: Option<RecorderConfig>,
    ckpt: Option<CkptConfig>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("seed", &self.seed)
            .field("edb", &self.edb)
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// Starts a bench around a target with the given configuration.
    pub fn new(device_config: DeviceConfig) -> Self {
        SystemBuilder {
            device_config,
            world: None,
            reader_config: ReaderConfig::paper_setup(),
            seed: 0,
            edb: true,
            edb_config: EdbConfig::prototype(),
            channel_fault: None,
            recorder: None,
            ckpt: None,
        }
    }

    /// Attaches a host-side checkpoint engine from the strategy zoo
    /// ([`edb_runtime::ckpt`]): the debugger snapshots volatile state
    /// over its side channel and restores it on every turn-on, at zero
    /// energy cost to the target. Leave unset for the bare bench every
    /// experiment manifest is golden against.
    pub fn with_checkpoint_strategy(mut self, config: CkptConfig) -> Self {
        self.ckpt = Some(config);
        self
    }

    /// Overrides the debugger firmware parameters — command deadlines,
    /// retry budget, trace switches. Defaults to
    /// [`EdbConfig::prototype`], the configuration every golden
    /// manifest was recorded against.
    pub fn edb_config(mut self, config: EdbConfig) -> Self {
        self.edb_config = config;
        self
    }

    /// Powers the target from a plain harvester.
    pub fn harvester(mut self, harvester: impl Harvester + 'static) -> Self {
        self.world = Some(WorldSpec::Harvester(Box::new(harvester)));
        self
    }

    /// Powers the target from an RFID reader's carrier at `distance_m`
    /// metres — the paper's experimental setup.
    pub fn rfid(mut self, distance_m: f64) -> Self {
        self.world = Some(WorldSpec::Rfid { distance_m });
        self
    }

    /// Overrides the reader schedule (experiments tune the inventory
    /// cadence). Only meaningful with [`rfid`](SystemBuilder::rfid).
    pub fn reader_config(mut self, config: ReaderConfig) -> Self {
        self.reader_config = config;
        self
    }

    /// Seeds the RF channel's packet-loss randomness. Only meaningful
    /// with [`rfid`](SystemBuilder::rfid).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the bench without a debugger — the control condition for
    /// energy-interference experiments.
    pub fn no_edb(mut self) -> Self {
        self.edb = false;
        self
    }

    /// Injects noise (bit flips, drops, duplicates) on both directions
    /// of the debug UART — the fault model the robustness tests and the
    /// channel-noise fuzz engine drive sessions through. Leave unset for
    /// the perfect channel every experiment manifest is golden against.
    pub fn channel_fault(mut self, config: ChannelFaultConfig) -> Self {
        self.channel_fault = Some(config);
        self
    }

    /// Attaches an [`edb_obs::Recorder`] to the bench: every layer
    /// publishes structured observations into it as the system runs.
    /// Recording is passive by construction — the recorder only reads
    /// ground-truth simulation state, so outputs are bit-identical with
    /// and without it. Retrieve it with [`System::take_recorder`].
    ///
    /// Without this call, `build` still consults
    /// [`edb_obs::ambient::config`] so experiment binaries can attach
    /// recorders fleet-wide via `--obs`.
    pub fn with_recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self
    }

    /// Builds the [`System`].
    ///
    /// # Panics
    ///
    /// Panics if no energy world was chosen.
    pub fn build(self) -> System {
        let world = match self.world {
            Some(WorldSpec::Harvester(h)) => World::Harvester(h),
            Some(WorldSpec::Rfid { distance_m }) => {
                let mut field = RfField::paper_setup();
                field.set_distance(distance_m);
                let mut channel = Channel::new(self.seed);
                channel.set_distance(distance_m);
                World::Rfid {
                    field,
                    reader: Reader::new(self.reader_config),
                    channel,
                    inflight: Vec::new(),
                }
            }
            None => panic!("SystemBuilder: choose an energy world (.harvester(..) or .rfid(..))"),
        };
        let channel_fault = self.channel_fault;
        let edb_config = self.edb_config;
        let recorder = match self.recorder {
            Some(config) => Some(Box::new(Recorder::new(config))),
            None => edb_obs::ambient::config().map(|config| {
                let mut rec = Recorder::new(config);
                rec.mark_ambient();
                Box::new(rec)
            }),
        };
        let mut device = Device::new(self.device_config);
        let ckpt = self.ckpt.map(|config| {
            let mut engine = CkptEngine::new(config);
            engine.attach(device.mem_mut());
            engine
        });
        System {
            device,
            edb: self.edb.then(|| {
                let mut edb = Edb::new(edb_config);
                edb.set_channel_fault(channel_fault);
                edb
            }),
            world,
            symbols: Default::default(),
            recorder,
            obs: ObsState::default(),
            ckpt,
        }
    }
}

/// The complete bench: device, debugger, energy environment.
#[derive(Debug)]
pub struct System {
    device: Device,
    edb: Option<Edb>,
    world: World,
    symbols: std::collections::BTreeMap<String, u16>,
    recorder: Option<Box<Recorder>>,
    obs: ObsState,
    ckpt: Option<CkptEngine>,
}

/// Bookkeeping the observability publisher keeps between steps.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ObsState {
    /// How much of the debugger's event log has been harvested.
    log_cursor: usize,
    /// `Device::total_instructions` at the last turn-on, for the
    /// instructions-per-power-cycle histogram.
    cycle_base_instructions: u64,
    /// Wire retries observed inside the currently open session.
    session_retries: u64,
    /// Level saved at the last guard entry, volts.
    guard_saved_v: Option<f64>,
    /// Power state at the last publish, for the quiet fast path and the
    /// `powered` digital line.
    last_powered: Option<bool>,
    /// Session state at the last publish, likewise.
    last_session: Option<bool>,
}

// Observation-only histogram bucket edges (documented in DESIGN.md §9).
// Bounds live at the observation site: the registry creates a histogram
// on first use, and merge asserts all shapes agree.
const INSTR_PER_CYCLE_BOUNDS: &[f64] = &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];
const RETRIES_PER_SESSION_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 5.0, 10.0];
const GUARD_PCT_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 25.0];
const VCAP_BOUNDS: &[f64] = &[1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0];

/// The `dt` hint passed to the debugger's electrical model each quantum
/// (charge-delivered bookkeeping only; the capacitor uses exact per-
/// quantum `dt`s).
const DT_GUESS: f64 = 1e-6;

/// The debugger's electrical influence per quantum, given the drain
/// [`System::advance`] hoisted for the span (`None` without a debugger).
fn electrical(edb: &mut Option<Edb>, drain: Option<f64>) -> impl FnMut(f64) -> f64 + '_ {
    move |v| match (edb.as_mut(), drain) {
        (Some(e), Some(d)) => e.electrical_current_with_drain(v, d, DT_GUESS),
        _ => 0.0,
    }
}

/// What charges the capacitor in `world`.
fn source(world: &mut World) -> &mut dyn Harvester {
    match world {
        World::Harvester(h) => h.as_mut(),
        World::Rfid { field, .. } => field,
    }
}

impl System {
    /// Starts a [`SystemBuilder`] around a target with the given
    /// configuration.
    pub fn builder(device_config: DeviceConfig) -> SystemBuilder {
        SystemBuilder::new(device_config)
    }

    /// Detaches the debugger entirely — the control condition for
    /// energy-interference experiments.
    pub fn detach_edb(&mut self) -> Option<Edb> {
        self.edb.take()
    }

    /// Attaches (or replaces) the debugger.
    pub fn attach_edb(&mut self, edb: Edb) {
        self.edb = Some(edb);
    }

    /// Flashes an image and informs the debugger of its symbols.
    pub fn flash(&mut self, image: &edb_mcu::Image) {
        self.device.flash(image);
        self.symbols = image.symbols().map(|(n, a)| (n.to_string(), a)).collect();
        if let Some(edb) = &mut self.edb {
            edb.attach(image);
        }
    }

    /// Resolves a symbol from the flashed image.
    pub fn symbol(&self, name: &str) -> Option<u16> {
        self.symbols.get(name).copied()
    }

    /// All flashed-image symbols, sorted by name.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u16)> {
        self.symbols.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable target access (test fixtures, ground-truth checks).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// The debugger, if attached.
    pub fn edb(&self) -> Option<&Edb> {
        self.edb.as_ref()
    }

    /// The host-side checkpoint engine, if one was attached with
    /// [`SystemBuilder::with_checkpoint_strategy`].
    pub fn ckpt(&self) -> Option<&CkptEngine> {
        self.ckpt.as_ref()
    }

    /// Mutable debugger access.
    ///
    /// # Panics
    ///
    /// Panics if the debugger has been detached.
    pub fn edb_mut(&mut self) -> &mut Edb {
        self.edb.as_mut().expect("EDB not attached")
    }

    /// Simultaneous mutable access to the debugger and the device, for
    /// operations (like breakpoint-mask sync) that touch both ends of
    /// the header.
    pub fn edb_and_device(&mut self) -> Option<(&mut Edb, &mut Device)> {
        match &mut self.edb {
            Some(edb) => Some((edb, &mut self.device)),
            None => None,
        }
    }

    /// The RFID reader, when the world has one.
    pub fn reader(&self) -> Option<&Reader> {
        match &self.world {
            World::Rfid { reader, .. } => Some(reader),
            World::Harvester(_) => None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.device.now()
    }

    /// Line states for the leakage model, derived from observable device
    /// state.
    fn line_states(&self) -> LineStates {
        let now = self.device.now();
        LineStates {
            uart_tx_high: self.device.peripherals.uart.busy(now),
            rf_tx_high: self.device.peripherals.rf.current(now) > 0.0,
            i2c_scl_high: self.device.peripherals.accel.busy(),
            i2c_sda_high: self.device.peripherals.accel.busy(),
            ..LineStates::default()
        }
    }

    /// Advances the bench by exactly one device quantum (one instruction
    /// or one idle step) and runs the observation flow after it.
    pub fn step(&mut self) -> DeviceStep {
        self.advance(self.now(), None).0
    }

    /// Advances the bench by one *span*: a batch of device quanta ending
    /// at [`System::span_deadline`] (and a checkpoint engine's
    /// [`CkptEngine::bound`]), or a single quantum when there is no
    /// batchable window. Both paths feed the same electrical closure and
    /// run the same observation flow afterwards; a span is bit-identical
    /// to stepping quantum by quantum because it ends on the quantum on
    /// which any participant would act: the device breaks it on port
    /// writes, FIFO pops, wire events, power edges and CPU state changes,
    /// and the horizon on every instant the debugger, the reader, the
    /// recorder or a checkpoint engine schedules. So `Edb::observe` (a
    /// no-op on empty event lists), the reader and the checkpoint hook
    /// see every change exactly when the per-step loop would.
    ///
    /// The span is driven here one [`Device::span_quantum`] at a time.
    /// A `watch` predicate is evaluated after each quantum but the last
    /// (which the caller evaluates after the observation flow); no
    /// non-device state changes mid-span, so it sees what the step loop
    /// would. Returns the step and whether the watch fired mid-span.
    fn advance(
        &mut self,
        limit: SimTime,
        watch: Option<&mut dyn FnMut(&System) -> bool>,
    ) -> (DeviceStep, bool) {
        let now = self.device.now();

        // RF world bookkeeping before the step.
        if let World::Rfid {
            field,
            reader,
            channel,
            inflight,
        } = &mut self.world
        {
            while let Some(ev) = reader.poll(now) {
                let frame = channel.transmit(ev.frame);
                inflight.push((ev.end, frame.bytes));
            }
            field.set_modulating(reader.modulating(now));
            // Deliver frames whose air time has completed.
            let mut idx = 0;
            while idx < inflight.len() {
                if inflight[idx].0 <= now {
                    let (at, bytes) = inflight.remove(idx);
                    if self.device.powered() {
                        for &b in &bytes {
                            self.device.peripherals.rf.deliver_byte(b);
                        }
                    }
                    if let Some(edb) = &mut self.edb {
                        edb.observe_rfid(&bytes, true, at);
                    }
                } else {
                    idx += 1;
                }
            }
        }

        // Electrical influence of the debugger. Line states cannot change
        // within a span, so the drain lookup is hoisted out of the
        // per-quantum closure.
        let states = self.line_states();
        let drain = self.edb.as_mut().map(|e| e.drain_for(states));
        let horizon = self.span_deadline(limit).map(|deadline| {
            let mut horizon = Horizon::until(deadline);
            if let Some(engine) = &self.ckpt {
                engine.bound(&mut horizon);
            }
            horizon
        });
        let mut fired = false;
        let step = match horizon {
            None => {
                let System {
                    device, edb, world, ..
                } = self;
                let i_ext = electrical(edb, drain)(device.v_cap());
                device.step(source(world), i_ext)
            }
            Some(horizon) => {
                let mut watch = watch;
                let mut span = Span::new(now);
                loop {
                    let System {
                        device, edb, world, ..
                    } = self;
                    let stop = device.span_quantum(
                        &mut span,
                        source(world),
                        &mut electrical(edb, drain),
                        &horizon,
                    );
                    if stop || device.now() >= horizon.deadline {
                        break;
                    }
                    if watch.as_mut().is_some_and(|pred| pred(self)) {
                        fired = true;
                        break;
                    }
                }
                span.finish(self.device.now())
            }
        };
        let now = self.device.now();

        // Events only occur on a span's final quantum, so every
        // timestamp below matches the per-step loop.
        for event in &step.events {
            if let DeviceEvent::RfTx(frame) = event {
                if let World::Rfid {
                    reader, channel, ..
                } = &mut self.world
                {
                    let out = channel.transmit(edb_rfid::Frame {
                        bytes: frame.bytes.clone(),
                        downlink: false,
                    });
                    reader.on_reply(&out.bytes);
                }
                if let Some(edb) = &mut self.edb {
                    edb.observe_rfid(&frame.bytes, false, frame.at);
                }
            }
        }

        if let Some(edb) = &mut self.edb {
            edb.observe(&self.device, &step.events, now);
            if let Some(edge) = step.power_edge {
                edb.observe_power_edge(&mut self.device, edge, now);
            }
            edb.tick(&mut self.device, now);
        }

        if let Some(engine) = &mut self.ckpt {
            engine.observe(&mut self.device, step.power_edge);
        }

        self.publish_obs(&step.events, step.power_edge);

        (step, fired)
    }

    /// Where the next [`System::advance`] may batch to, or `None` for a
    /// single quantum (when `limit` is not in the future, or a wakeup is
    /// due right now).
    ///
    /// Every participant that acts on its own clock bounds the span with
    /// the next instant it would act:
    ///
    /// * the debugger's next wakeup ([`Edb::next_wakeup`] — before it,
    ///   `Edb::tick` returns without touching anything);
    /// * the device's next silent peripheral deadline
    ///   ([`Device::next_silent_deadline`] — before it, the load model
    ///   and line states are constant);
    /// * the recorder's sampling deadline;
    /// * in the RFID world, the reader's next transmission edge
    ///   ([`Reader::next_change`] — before it, `poll` emits nothing and
    ///   the field's modulation holds) and the end of the earliest
    ///   downlink frame in flight (when it is delivered).
    ///
    /// A checkpoint engine acts on instruction counts and voltages, not
    /// on time: it bounds the span through the [`Horizon`] instead
    /// ([`CkptEngine::bound`]).
    ///
    /// The span is bit-identical to stepping for *any* horizon, so extra
    /// breaks (the recorder's cap) observe more often without changing
    /// the simulation.
    fn span_deadline(&self, limit: SimTime) -> Option<SimTime> {
        let now = self.device.now();
        if limit <= now {
            return None;
        }
        let mut deadline = limit;
        if let World::Rfid {
            reader, inflight, ..
        } = &self.world
        {
            deadline = deadline.min(reader.next_change(now));
            for &(end, _) in inflight {
                deadline = deadline.min(end);
            }
        }
        if let Some(edb) = &self.edb {
            deadline = deadline.min(edb.next_wakeup());
        }
        if let Some(t) = self.device.next_silent_deadline() {
            deadline = deadline.min(t);
        }
        if let Some(t) = self.recorder.as_ref().and_then(|rec| rec.next_deadline()) {
            deadline = deadline.min(t);
        }
        // A wakeup due right now leaves no batchable window: the single
        // quantum handles it.
        (deadline > now).then_some(deadline)
    }

    /// Runs the bench for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimTime) {
        self.run_to(self.device.now() + duration);
    }

    /// Runs the bench to the first quantum boundary at or after the
    /// instant `end`. Running to an earlier instant first and then on to
    /// `end` lands on the same bits: the stop is one more span break.
    pub(crate) fn run_to(&mut self, end: SimTime) {
        while self.device.now() < end {
            self.advance(end, None);
        }
    }

    /// Runs until `pred` holds or `timeout` elapses; returns whether the
    /// predicate fired.
    ///
    /// The predicate is evaluated after every device quantum (it may
    /// watch arbitrary ground-truth state, e.g. a memory word the target
    /// writes) and stops the bench on the first quantum where it holds,
    /// exactly as a loop of [`System::step`] calls would; the bench
    /// still advances span-at-a-time in between.
    pub fn run_until(&mut self, timeout: SimTime, pred: impl FnMut(&System) -> bool) -> bool {
        self.wait(timeout, pred)
    }

    /// Advances until `pred` holds or `timeout` elapses; returns whether
    /// the predicate fired.
    fn wait(&mut self, timeout: SimTime, pred: impl FnMut(&System) -> bool) -> bool {
        self.wait_until(self.device.now().saturating_add(timeout), pred)
    }

    /// Advances until `pred` holds or the instant `end` passes; returns
    /// whether the predicate fired. `pred` is evaluated once before the
    /// first quantum and once after each quantum, so a wait that stops
    /// at an earlier instant and is then resumed to `end` evaluates it
    /// on the same quanta.
    fn wait_until(&mut self, end: SimTime, mut pred: impl FnMut(&System) -> bool) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            if self.device.now() >= end {
                return false;
            }
            if self.advance(end, Some(&mut pred)).1 {
                return true;
            }
        }
    }

    // ---------------------------------------------------------------
    // Blocking console-style operations
    // ---------------------------------------------------------------

    /// Charges the target to `volts` and waits for convergence.
    /// Returns the ground-truth voltage afterwards.
    pub fn charge_to(&mut self, volts: f64) -> Result<f64, EdbError> {
        self.level_op("charge", volts, Edb::start_charge)
    }

    /// Discharges the target to `volts` and waits for convergence.
    /// Returns the ground-truth voltage afterwards.
    pub fn discharge_to(&mut self, volts: f64) -> Result<f64, EdbError> {
        self.level_op("discharge", volts, Edb::start_discharge)
    }

    /// Starts a charge or discharge with `start` and waits for the
    /// debugger's level controller to converge.
    fn level_op(
        &mut self,
        op: &'static str,
        volts: f64,
        start: fn(&mut Edb, f64, SimTime),
    ) -> Result<f64, EdbError> {
        let now = self.now();
        let Some(edb) = &mut self.edb else {
            return Err(EdbError::NotAttached { op });
        };
        start(edb, volts, now);
        if self.wait(SimTime::from_secs(2), |s| {
            s.edb().is_some_and(Edb::level_op_done)
        }) {
            Ok(self.device.v_cap())
        } else {
            Err(EdbError::LevelNotReached { target_v: volts })
        }
    }

    /// Waits for an interactive session to open (assert, breakpoint, or
    /// energy breakpoint), up to `timeout`.
    pub fn wait_for_session(&mut self, timeout: SimTime) -> bool {
        self.wait_for_session_until(self.device.now().saturating_add(timeout))
    }

    /// [`System::wait_for_session`] up to the instant `end`.
    pub(crate) fn wait_for_session_until(&mut self, end: SimTime) -> bool {
        self.wait_until(end, |s| s.edb().is_some_and(Edb::session_active))
    }

    /// One complete typed exchange: submit the request, then drive the
    /// bench until the debugger's state machine reports a typed response
    /// or a typed abort. The harness deadline generously covers the
    /// state machine's own retry budget plus a brown-out recovery
    /// window, so in practice the typed outcome always arrives first.
    ///
    /// This is the blocking convenience over [`Edb::submit`] /
    /// [`Edb::poll`]; callers that interleave their own stepping (the
    /// fuzz session engine, the serve scheduler) drive the non-blocking
    /// pair directly.
    pub fn perform(&mut self, request: DebugRequest) -> Result<DebugResponse, EdbError> {
        let op = request.name();
        let now = self.now();
        let System { edb, device, .. } = self;
        let Some(edb) = edb else {
            return Err(EdbError::NotAttached { op });
        };
        if !edb.session_active() {
            return Err(EdbError::NoSession { op });
        }
        let config = edb.config();
        let id = edb.submit(device, request, now);
        let budget = config
            .cmd_timeout
            .as_ns()
            .saturating_mul(u64::from(config.cmd_retries) + 2);
        let timeout = SimTime::from_ns(budget).saturating_add(SimTime::from_ms(50));
        self.wait(timeout, |s| s.edb().is_some_and(|e| !e.is_pending(id)));
        match self.edb_mut().poll(id) {
            SessionPoll::Ready(result) => result,
            SessionPoll::Superseded => Err(EdbError::Busy { cmd: op }),
            SessionPoll::Pending { .. } => {
                let attempts = self.edb_mut().cancel_command();
                Err(EdbError::CommandTimeout { cmd: op, attempts })
            }
        }
    }

    /// Reads a word of target memory through the live debug protocol.
    /// Requires an active session (the target must be in its service
    /// loop).
    pub fn read_word(&mut self, addr: u16) -> Result<u16, EdbError> {
        match self.perform(DebugRequest::ReadWord { addr })? {
            DebugResponse::Word { value } => Ok(value),
            other => Err(EdbError::CorruptReply {
                cmd: "READ",
                detail: format!("mismatched response {other:?}"),
            }),
        }
    }

    /// Writes a word of target memory through the live debug protocol
    /// and waits for the target's acknowledge.
    pub fn write_word(&mut self, addr: u16, value: u16) -> Result<(), EdbError> {
        match self.perform(DebugRequest::WriteWord { addr, value })? {
            DebugResponse::WriteAck => Ok(()),
            other => Err(EdbError::CorruptReply {
                cmd: "WRITE",
                detail: format!("mismatched response {other:?}"),
            }),
        }
    }

    /// Asks the target where execution will resume, through the live
    /// debug protocol. Requires an active session.
    pub fn resume_pc(&mut self) -> Result<u16, EdbError> {
        match self.perform(DebugRequest::GetPc)? {
            DebugResponse::Pc { pc } => Ok(pc),
            other => Err(EdbError::CorruptReply {
                cmd: "GET_PC",
                detail: format!("mismatched response {other:?}"),
            }),
        }
    }

    /// Resumes the target from a session: restore energy, release the
    /// service loop, wait for the session to close.
    pub fn resume(&mut self) -> Result<(), EdbError> {
        let now = self.now();
        let Some(edb) = &mut self.edb else {
            return Err(EdbError::NotAttached { op: "resume" });
        };
        if !edb.session_active() {
            return Err(EdbError::NoSession { op: "resume" });
        }
        edb.resume(now);
        if self.wait(SimTime::from_secs(1), |s| {
            s.edb().is_some_and(|e| !e.session_active())
        }) {
            Ok(())
        } else {
            Err(EdbError::SessionDidNotClose)
        }
    }

    // ---------------------------------------------------------------
    // Snapshots (the record/replay layer's substrate)
    // ---------------------------------------------------------------

    /// Whether this bench supports full-state snapshots.
    ///
    /// Harvester worlds do: the device, debugger, and harvester all
    /// serialize completely. RFID worlds don't — the reader/channel
    /// stack keeps state the snapshot layer does not capture — so
    /// recordings of RFID benches carry state *digests* only and replay
    /// by re-execution from the start.
    pub fn supports_snapshots(&self) -> bool {
        matches!(self.world, World::Harvester(_))
    }

    /// Captures the complete simulation state — device (CPU, memory,
    /// capacitor, peripherals), debugger, harvester run state, symbols,
    /// the observability cursor and the checkpoint engine — as a typed
    /// [`SystemState`]. Restoring it with [`System::restore`] and
    /// stepping forward is bit-identical to never having snapshotted
    /// (proven by test).
    ///
    /// Returns `None` for benches where
    /// [`System::supports_snapshots`] is false. The recorder is *not*
    /// part of the snapshot: recording is passive by construction, so
    /// replay re-observes rather than restoring observations.
    pub fn snapshot(&self) -> Option<SystemState> {
        self.snapshot_after(None)
    }

    /// [`System::snapshot`] as the next of a series of restore points:
    /// the state shares with `prev`, an earlier one, every FRAM page
    /// whose bytes are unchanged (see [`edb_mcu::Memory::park`]), and
    /// the debugger's event log shares its sealed chunks with the live
    /// log as any clone of it does.
    pub(crate) fn snapshot_after(&self, prev: Option<&SystemState>) -> Option<SystemState> {
        let World::Harvester(h) = &self.world else {
            return None;
        };
        let mut device = self.device.clone();
        device.mem_mut().park(prev.map(|p| p.device.mem()));
        Some(SystemState {
            device,
            edb: self.edb.clone(),
            symbols: self.symbols.clone(),
            obs: self.obs.clone(),
            world: h.save_state(),
            ckpt: self.ckpt.clone(),
        })
    }

    /// Restores a [`SystemState`] onto this bench. The bench must have
    /// been built with the same world shape (a harvester world); the
    /// harvester's own parameters are rebuilt by the caller (see the
    /// replay layer's session spec) and only its run state is loaded
    /// here.
    pub fn restore(&mut self, state: &SystemState) -> Result<(), DeError> {
        self.install(state.clone())
    }

    pub(crate) fn install(&mut self, state: SystemState) -> Result<(), DeError> {
        let World::Harvester(h) = &mut self.world else {
            return Err(DeError::new(
                "RFID benches do not support snapshot restore (digest-only replay)",
            ));
        };
        h.load_state(&state.world)?;
        self.device = state.device;
        self.device.mem_mut().unpark();
        self.edb = state.edb;
        self.symbols = state.symbols;
        self.obs = state.obs;
        self.ckpt = state.ckpt;
        Ok(())
    }

    /// [`System::snapshot`] as a [`Value`] tree, for storage outside the
    /// process.
    pub fn save_state(&self) -> Option<Value> {
        let World::Harvester(h) = &self.world else {
            return None;
        };
        let world = h.save_state();
        let view = StateView {
            device: &self.device,
            edb: &self.edb,
            symbols: &self.symbols,
            obs: &self.obs,
            world: &world,
            ckpt: &self.ckpt,
        };
        Some(view.to_value())
    }

    /// Restores a tree captured by [`System::save_state`] (see
    /// [`System::restore`]).
    pub fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.install(SystemState::from_value(state)?)
    }

    /// A deterministic 64-bit digest of the architectural state: the
    /// device (CPU registers, memory image, capacitor bits, clock) and
    /// the debugger. Computable for *every* world — RFID benches, whose
    /// recordings are digest-only, verify replay equivalence through
    /// this value. Streams the state into the digest without building
    /// a tree.
    pub fn state_digest(&self) -> u64 {
        edb_replay::digest(&DigestedState {
            device: &self.device,
            edb: &self.edb,
        })
    }

    // ---------------------------------------------------------------
    // Observability
    // ---------------------------------------------------------------

    /// The attached observability recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Detaches the recorder with its whole-run counters finalized from
    /// ground-truth device state — call this at the end of a run to
    /// export traces and profiles.
    pub fn take_recorder(&mut self) -> Option<Box<Recorder>> {
        self.finalize_recorder();
        self.recorder.take()
    }

    /// Writes run totals that are cheaper read off simulation state at
    /// teardown than accumulated step by step.
    fn finalize_recorder(&mut self) {
        let Some(rec) = self.recorder.as_deref_mut() else {
            return;
        };
        rec.metrics.set("power_cycles", self.device.reboots());
        rec.metrics.set("turn_ons", self.device.turn_ons());
        rec.metrics
            .set("instructions", self.device.total_instructions());
        let (hits, misses) = self.device.mem().decode_cache_stats();
        rec.metrics.set("decode_cache_hits", hits);
        rec.metrics.set("decode_cache_misses", misses);
    }

    /// Publishes one step's (or span's) worth of observations into the
    /// attached recorder. Read-only with respect to the simulation:
    /// everything here is ground truth the step already produced, so a
    /// detached recorder and an attached one run bit-identical benches.
    ///
    /// Quiet fast path: nothing happened this step and no periodic
    /// sampler is due — skip all observation work. This is what keeps an
    /// attached recorder within a few percent of a detached one on the
    /// hot loop: the common step publishes nothing. Ordered cheapest
    /// check first so `&&` short-circuits before touching the debugger.
    #[inline]
    fn publish_obs(&mut self, events: &[DeviceEvent], power_edge: Option<PowerEdge>) {
        let System {
            device,
            edb,
            recorder,
            obs,
            ..
        } = self;
        let Some(rec) = recorder.as_deref_mut() else {
            return;
        };
        let powered = device.powered();
        if events.is_empty()
            && power_edge.is_none()
            && obs.last_powered == Some(powered)
            && !rec.sample_due(device.now())
            && edb.as_ref().map_or(0, |e| e.log().len()) == obs.log_cursor
            && obs.last_session == Some(edb.as_ref().is_some_and(|e| e.session_active()))
        {
            return;
        }
        publish_obs_slow(device, edb.as_ref(), rec, obs, events, power_edge);
    }
}

/// The non-quiet half of [`System::publish_obs`]: samples, lines, ring
/// events, and debugger-log harvesting. Out of line so the quiet check
/// inlines into the step loop without this body.
fn publish_obs_slow(
    device: &Device,
    edb: Option<&Edb>,
    rec: &mut Recorder,
    obs: &mut ObsState,
    events: &[DeviceEvent],
    power_edge: Option<PowerEdge>,
) {
    {
        let now = device.now();
        let powered = device.powered();
        let session = edb.is_some_and(|e| e.session_active());
        obs.last_powered = Some(powered);
        obs.last_session = Some(session);
        let v_cap = device.v_cap();

        // Energy: the ground-truth capacitor voltage — never EDB's ADC,
        // which draws measurement noise from the RNG. Offered only on
        // non-quiet steps; the trace decimates internally.
        rec.energy_sample(now, v_cap);

        // CPU: PC/energy correlation at the profiler's cadence. While
        // unpowered there is no PC to sample; the deadline still
        // advances so the fast path re-arms.
        if powered {
            if rec.pc_sample(now, device.cpu().pc, v_cap) {
                rec.metrics.observe("vcap_volts", VCAP_BOUNDS, v_cap);
            }
        } else {
            rec.profiler_catch_up(now);
        }

        // Device: peripheral activity, power cycles, digital lines.
        if rec.enabled(Category::Device) {
            rec.line_mut("powered", 1).record(now, u64::from(powered));
            for event in events {
                match event {
                    DeviceEvent::GpioChange { old, new } => {
                        rec.line_mut("gpio", 16).record(now, u64::from(*new));
                        rec.instant(
                            Category::Device,
                            now,
                            format!("gpio {old:#06x} -> {new:#06x}"),
                        );
                    }
                    DeviceEvent::CodeMarker { id } => {
                        rec.instant(Category::Device, now, format!("marker {id}"));
                    }
                    DeviceEvent::DebugSignal { value } => {
                        rec.line_mut("debug_signal", 1)
                            .record(now, u64::from(*value != 0));
                    }
                    DeviceEvent::UartByte { byte } => {
                        rec.metrics.incr("uart_bytes", 1);
                        rec.instant(Category::Device, now, format!("uart {byte:#04x}"));
                    }
                    DeviceEvent::I2c(_) => {
                        rec.instant(Category::Device, now, "i2c");
                    }
                    DeviceEvent::CpuFault(fault) => {
                        rec.instant(Category::Device, now, format!("fault: {fault}"));
                    }
                    // Debug-UART traffic surfaces as Core events via the
                    // debugger's log; ADC self-samples are internal.
                    DeviceEvent::DbgUartByte { .. } | DeviceEvent::AdcSelfSample { .. } => {}
                    DeviceEvent::RfTx(_) => {} // Rfid category, below
                }
            }
            match power_edge {
                Some(PowerEdge::TurnOn) => {
                    rec.instant(Category::Device, now, "turn-on");
                    obs.cycle_base_instructions = device.total_instructions();
                }
                Some(PowerEdge::BrownOut) => {
                    rec.instant(Category::Device, now, "brown-out");
                    let ran = device
                        .total_instructions()
                        .saturating_sub(obs.cycle_base_instructions);
                    rec.metrics.observe(
                        "instructions_per_power_cycle",
                        INSTR_PER_CYCLE_BOUNDS,
                        ran as f64,
                    );
                }
                None => {}
            }
        }

        // RFID: the tag's own backscatter (reader-side frames arrive via
        // the debugger's log below).
        if rec.enabled(Category::Rfid) {
            for event in events {
                if let DeviceEvent::RfTx(frame) = event {
                    rec.instant(
                        Category::Rfid,
                        frame.at,
                        format!("backscatter {} B", frame.bytes.len()),
                    );
                }
            }
        }

        // Core / RFID: harvest debugger log entries appended since the
        // last publish.
        if let Some(edb) = edb.as_ref() {
            let log = edb.log();
            if obs.log_cursor > log.len() {
                obs.log_cursor = 0; // the log was cleared; start over
            }
            for entry in log.events_from(obs.log_cursor) {
                obs_log_entry(rec, obs, entry);
            }
            obs.log_cursor = log.len();
            if rec.enabled(Category::Core) {
                rec.line_mut("session", 1).record(now, u64::from(session));
            }
        }
    }
}

/// Publishes one debugger-log entry into the recorder (Core track, or
/// Rfid for reader/tag frames) and folds it into the metrics registry.
fn obs_log_entry(rec: &mut Recorder, obs: &mut ObsState, entry: &LoggedEvent) {
    match &entry.event {
        // The raw ADC stream is high-volume and the ground-truth voltage
        // is already traced under Energy; skip it.
        DebugEvent::EnergySample { .. } => {}
        DebugEvent::Rfid { .. } => {
            if rec.enabled(Category::Rfid) {
                rec.metrics.incr("rfid_frames", 1);
                rec.instant(Category::Rfid, entry.at, entry.event.label());
            }
        }
        other => {
            if !rec.enabled(Category::Core) {
                return;
            }
            match other {
                DebugEvent::SessionOpened { .. } => {
                    rec.metrics.incr("sessions", 1);
                    obs.session_retries = 0;
                    rec.begin(Category::Core, entry.at, "session");
                }
                DebugEvent::SessionClosed { .. } | DebugEvent::SessionAborted { .. } => {
                    rec.metrics.observe(
                        "retries_per_session",
                        RETRIES_PER_SESSION_BOUNDS,
                        obs.session_retries as f64,
                    );
                    obs.session_retries = 0;
                    rec.end(Category::Core, entry.at, "session");
                }
                DebugEvent::CommandRetry { .. } => {
                    rec.metrics.incr("wire_retries", 1);
                    obs.session_retries += 1;
                    rec.instant(Category::Core, entry.at, other.label());
                }
                DebugEvent::GuardEnter { saved_v } => {
                    obs.guard_saved_v = Some(*saved_v);
                    rec.begin(Category::Core, entry.at, "guard");
                }
                DebugEvent::GuardExit { restored_v } => {
                    if let Some(saved) = obs.guard_saved_v.take() {
                        rec.metrics.observe(
                            "energy_per_guard_pct",
                            GUARD_PCT_BOUNDS,
                            edb_energy::budget::delta_e_percent(saved, *restored_v).abs(),
                        );
                    }
                    rec.end(Category::Core, entry.at, "guard");
                }
                DebugEvent::Printf { .. } => {
                    rec.metrics.incr("printf_lines", 1);
                    rec.instant(Category::Core, entry.at, other.label());
                }
                _ => {
                    rec.instant(Category::Core, entry.at, other.label());
                }
            }
        }
    }
}

impl Drop for System {
    /// Ambient-attached recorders flush their metrics into the global
    /// registry when the bench tears down, so `--obs` runs aggregate
    /// every system any experiment built. (Explicit recorders are
    /// retrieved with [`System::take_recorder`] instead.)
    fn drop(&mut self) {
        let is_ambient = self.recorder.as_deref().is_some_and(Recorder::is_ambient);
        if is_ambient {
            self.finalize_recorder();
            if let Some(rec) = self.recorder.take() {
                edb_obs::ambient::flush(&rec.metrics);
            }
        }
    }
}

/// What [`System::state_digest`] covers.
struct DigestedState<'a> {
    device: &'a Device,
    edb: &'a Option<Edb>,
}

impl Serialize for DigestedState<'_> {
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.map(2);
        sink.str("device");
        self.device.serialize(sink);
        sink.str("edb");
        self.edb.serialize(sink);
    }
}

/// A typed snapshot of a harvester-world bench, taken by
/// [`System::snapshot`]: the bench's own state, so taking and restoring
/// it are clones, except that it holds the FRAM image as shared 1 KiB
/// pages (a parked [`edb_mcu::Memory`]), made flat again on restore. It
/// serializes to the tree [`System::save_state`] returns.
#[derive(Debug, Clone)]
pub struct SystemState {
    device: Device,
    edb: Option<Edb>,
    symbols: std::collections::BTreeMap<String, u16>,
    obs: ObsState,
    /// The harvester's run state, in the form harvesters save it.
    world: Value,
    ckpt: Option<CkptEngine>,
}

impl SystemState {
    /// The debugger's state, if one was attached.
    pub fn edb(&self) -> Option<&Edb> {
        self.edb.as_ref()
    }

    /// The target memory's state, its FRAM image parked in shared
    /// pages.
    #[cfg(test)]
    pub(crate) fn mem(&self) -> &edb_mcu::Memory {
        self.device.mem()
    }

    fn view(&self) -> StateView<'_> {
        StateView {
            device: &self.device,
            edb: &self.edb,
            symbols: &self.symbols,
            obs: &self.obs,
            world: &self.world,
            ckpt: &self.ckpt,
        }
    }
}

impl Serialize for SystemState {
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        self.view().serialize(sink);
    }
}

/// The snapshot tree over borrowed parts, so [`System::save_state`]
/// serializes the live bench without cloning it first.
struct StateView<'a> {
    device: &'a Device,
    edb: &'a Option<Edb>,
    symbols: &'a std::collections::BTreeMap<String, u16>,
    obs: &'a ObsState,
    world: &'a Value,
    ckpt: &'a Option<CkptEngine>,
}

// Hand-written so benches without a checkpoint engine keep the
// historical byte layout: the `ckpt` key appears only when one is
// attached.
impl Serialize for StateView<'_> {
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.map(5 + usize::from(self.ckpt.is_some()));
        sink.str("device");
        self.device.serialize(sink);
        sink.str("edb");
        self.edb.serialize(sink);
        sink.str("symbols");
        self.symbols.serialize(sink);
        sink.str("obs");
        self.obs.serialize(sink);
        sink.str("world");
        self.world.serialize(sink);
        if let Some(engine) = self.ckpt {
            sink.str("ckpt");
            engine.serialize(sink);
        }
    }
}

impl Deserialize for SystemState {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| DeError::new(format!("System state missing `{name}`")))
        };
        Ok(SystemState {
            device: Device::from_value(field("device")?)?,
            edb: <Option<Edb>>::from_value(field("edb")?)?,
            symbols: <std::collections::BTreeMap<String, u16>>::from_value(field("symbols")?)?,
            obs: ObsState::from_value(field("obs")?)?,
            world: field("world")?.clone(),
            ckpt: v
                .get_field("ckpt")
                .map(CkptEngine::from_value)
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libedb;
    use edb_mcu::asm::assemble;

    fn flashed_system(app: &str) -> System {
        let image = assemble(&libedb::wrap_program(app)).expect("assembles");
        let mut sys = System::builder(DeviceConfig::wisp5())
            .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
            .build();
        sys.flash(&image);
        sys
    }

    #[test]
    fn charge_command_boots_the_target() {
        let mut sys = flashed_system(
            r#"
            .org 0x4400
            main:
                movi sp, 0x2400
            loop:
                add r0, 1
                jmp loop
            .org 0xFFFE
            .word main
            "#,
        );
        let v = sys.charge_to(2.45).expect("charges");
        assert!(v >= 2.4, "charged to {v}");
        assert!(sys.device().powered());
    }

    #[test]
    fn discharge_command_lowers_level() {
        let mut sys = flashed_system(
            r#"
            .org 0x4400
            main: halt
            .org 0xFFFE
            .word main
            "#,
        );
        sys.charge_to(2.45).expect("charges");
        let v = sys.discharge_to(2.0).expect("discharges");
        assert!((1.9..2.1).contains(&v), "discharged to {v}");
    }

    #[test]
    fn assert_failure_opens_keep_alive_session() {
        // Program asserts immediately: r0 != r1 → assert fail id 3.
        let mut sys = flashed_system(
            r#"
            .org 0x4400
            main:
                movi sp, 0x2400
                movi r0, 1
                movi r1, 2
                cmp  r0, r1
                jz   ok
                movi r0, 3
                call __edb_assert_fail
            ok: halt
            .org 0xFFFE
            .word main
            "#,
        );
        sys.charge_to(2.45).expect("charges");
        assert!(
            sys.wait_for_session(SimTime::from_ms(100)),
            "assert must open a session"
        );
        // Keep-alive: voltage is pulled up toward tether level and the
        // device never browns out.
        sys.run_for(SimTime::from_ms(50));
        assert!(
            sys.device().v_cap() > 2.6,
            "tethered: {}",
            sys.device().v_cap()
        );
        assert_eq!(sys.device().reboots(), 0);
        assert_eq!(sys.edb().unwrap().log().with_tag("assert").count(), 1);
    }

    #[test]
    fn interactive_memory_read_and_write() {
        let mut sys = flashed_system(
            r#"
            .equ MAGIC, 0x6000
            .org 0x4400
            main:
                movi sp, 0x2400
                movi r1, MAGIC
                movi r0, 0x5AFE
                st   [r1], r0
                movi r0, 7
                call __edb_assert_fail
                halt
            .org 0xFFFE
            .word main
            "#,
        );
        sys.charge_to(2.45).expect("charges");
        assert!(sys.wait_for_session(SimTime::from_ms(100)));
        let value = sys.read_word(0x6000).expect("read completes");
        assert_eq!(value, 0x5AFE);
        sys.write_word(0x6002, 0xD00D).expect("write acknowledged");
        assert_eq!(sys.read_word(0x6002), Ok(0xD00D));
        // Ground truth agrees.
        assert_eq!(sys.device().mem().peek_word(0x6002), 0xD00D);
    }

    #[test]
    fn energy_guard_compensates_cost() {
        // The guarded region burns a lot of cycles; the level after the
        // guard must be close to the level before it.
        let mut sys = flashed_system(
            r#"
            .org 0x4400
            main:
                movi sp, 0x2400
                call __edb_guard_begin
                movi r1, 6000
            burn:
                sub  r1, 1
                jnz  burn
                call __edb_guard_end
                movi r2, 0x6000
                movi r3, 0xCAFE
                st   [r2], r3        ; marker: got past the guard
            spin:
                jmp  spin
            .org 0xFFFE
            .word main
            "#,
        );
        sys.charge_to(2.45).expect("charges");
        let ok = sys.run_until(SimTime::from_ms(400), |s| {
            s.device().mem().peek_word(0x6000) == 0xCAFE
        });
        assert!(ok, "target must complete the guarded region");
        let log = sys.edb().unwrap().log();
        let enter = log
            .with_tag("guard-enter")
            .next()
            .expect("guard entry logged");
        let exit = log
            .with_tag("guard-exit")
            .next()
            .expect("guard exit logged");
        let (saved, restored) = match (&enter.event, &exit.event) {
            (
                crate::events::DebugEvent::GuardEnter { saved_v },
                crate::events::DebugEvent::GuardExit { restored_v },
            ) => (*saved_v, *restored_v),
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            (restored - saved).abs() < 0.08,
            "restore error too large: saved {saved}, restored {restored}"
        );
    }

    #[test]
    fn detached_edb_means_zero_influence() {
        let mut sys = flashed_system(
            r#"
            .org 0x4400
            main:
                add r0, 1
                jmp main
            .org 0xFFFE
            .word main
            "#,
        );
        sys.detach_edb();
        sys.run_for(SimTime::from_ms(100));
        assert!(sys.device().turn_ons() > 0, "device runs without EDB");
    }

    #[test]
    fn rfid_world_powers_the_device() {
        let image = assemble(&libedb::wrap_program(
            r#"
            .org 0x4400
            main:
                add r0, 1
                jmp main
            .org 0xFFFE
            .word main
            "#,
        ))
        .expect("assembles");
        let mut sys = System::builder(DeviceConfig::wisp5())
            .rfid(1.0)
            .seed(42)
            .build();
        sys.flash(&image);
        sys.run_for(SimTime::from_ms(300));
        assert!(sys.device().turn_ons() > 0, "RF field must boot the tag");
        let edb = sys.edb().unwrap();
        let downlink = edb
            .log()
            .with_tag("rfid")
            .filter(|e| {
                matches!(
                    e.event,
                    crate::events::DebugEvent::Rfid { downlink: true, .. }
                )
            })
            .count();
        assert!(
            downlink >= 4,
            "EDB must see reader commands, saw {downlink}"
        );
        assert!(sys.reader().unwrap().commands_sent() >= 4);
    }

    #[test]
    fn recorder_does_not_perturb_the_simulation() {
        // The whole contract of edb-obs in one assertion: an attached
        // recorder observes everything and changes nothing.
        let app = r#"
            .org 0x4400
            main:
                movi sp, 0x2400
            loop:
                add  r0, 1
                movi r1, 1
                out  0x02, r1      ; code marker
                jmp  loop
            .org 0xFFFE
            .word main
        "#;
        let end = SimTime::from_ms(250);

        let mut plain = flashed_system(app);
        plain.run_for(end);

        let image = assemble(&libedb::wrap_program(app)).expect("assembles");
        let mut traced = System::builder(DeviceConfig::wisp5())
            .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
            .with_recorder(edb_obs::RecorderConfig::default())
            .build();
        traced.flash(&image);
        traced.run_for(end);

        assert_eq!(
            plain.device().v_cap().to_bits(),
            traced.device().v_cap().to_bits(),
            "recording must not move a single bit of simulation state"
        );
        assert_eq!(plain.now(), traced.now());
        assert_eq!(
            plain.device().total_instructions(),
            traced.device().total_instructions()
        );
        assert_eq!(plain.device().reboots(), traced.device().reboots());
        assert_eq!(
            plain.edb().unwrap().log().len(),
            traced.edb().unwrap().log().len()
        );

        let rec = traced.take_recorder().expect("recorder attached");
        assert!(!rec.is_ambient(), "explicitly attached");
        assert!(!rec.vcap().is_empty(), "energy trace recorded");
        assert!(rec.profiler().samples() > 0, "PC profile sampled");
        assert!(
            rec.events(Category::Device).count() > 0,
            "device activity recorded"
        );
        assert!(
            rec.metrics.counter("instructions") > 0,
            "finalized counters present"
        );
        assert_eq!(
            rec.metrics.counter("power_cycles"),
            plain.device().reboots(),
            "metrics agree with ground truth"
        );
        assert!(
            rec.lines().iter().any(|l| l.name() == "powered"),
            "digital lines recorded"
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // The substrate of time travel: save mid-run, restore onto a
        // fresh bench, and the two futures must agree to the last bit.
        let app = r#"
            .org 0x4400
            main:
                movi sp, 0x2400
            loop:
                add  r0, 1
                movi r1, 1
                out  0x02, r1      ; code marker
                jmp  loop
            .org 0xFFFE
            .word main
        "#;
        let mut live = flashed_system(app);
        live.run_for(SimTime::from_ms(120));
        assert!(live.device().turn_ons() >= 1, "workload must run");
        let snap = live.save_state().expect("harvester world snapshots");
        let digest_at_snap = live.state_digest();

        let mut restored = flashed_system(app);
        restored.restore_state(&snap).expect("state round-trips");
        assert_eq!(
            restored.state_digest(),
            digest_at_snap,
            "restore reproduces the digest at the snapshot point"
        );

        live.run_for(SimTime::from_ms(120));
        restored.run_for(SimTime::from_ms(120));
        assert_eq!(live.now(), restored.now());
        assert_eq!(
            live.device().v_cap().to_bits(),
            restored.device().v_cap().to_bits(),
            "restored future must match the original to the last bit"
        );
        assert_eq!(
            live.device().total_instructions(),
            restored.device().total_instructions()
        );
        assert_eq!(live.device().reboots(), restored.device().reboots());
        assert_eq!(live.state_digest(), restored.state_digest());
    }

    #[test]
    fn checkpointed_system_restores_and_snapshots_round_trip() {
        // A System with a zoo engine attached: the engine must commit
        // and restore across real brown-outs, and its state must ride
        // System::save_state so a restored bench continues bit-identically.
        let app = r#"
            .equ PROGRESS, 0x6000
            .org 0x4400
            main:
                movi sp, 0x2400
                movi r1, PROGRESS
                ld   r0, [r1]
            loop:
                add  r0, 1
                st   [r1], r0
                jmp  loop
            .org 0xFFFE
            .word main
        "#;
        let build = || {
            let image = assemble(&libedb::wrap_program(app)).expect("assembles");
            let mut sys = System::builder(DeviceConfig::wisp5())
                .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
                .with_checkpoint_strategy(
                    CkptConfig::new(edb_runtime::ckpt::StrategyKind::Differential).interval(200),
                )
                .build();
            sys.flash(&image);
            sys
        };
        let mut live = build();
        let restored_once = live.run_until(SimTime::from_ms(2000), |s| {
            s.ckpt().expect("engine attached").stats().restores > 0
        });
        let stats = live.ckpt().unwrap().stats();
        assert!(stats.commits > 0, "engine must commit: {stats:?}");
        assert!(
            restored_once,
            "a brown-out must restore from the record: {stats:?}"
        );

        let snap = live.save_state().expect("snapshots with engine attached");
        let mut restored = build();
        restored
            .restore_state(&snap)
            .expect("ckpt state round-trips");
        assert_eq!(restored.state_digest(), live.state_digest());
        live.run_for(SimTime::from_ms(150));
        restored.run_for(SimTime::from_ms(150));
        assert_eq!(live.state_digest(), restored.state_digest());
        assert_eq!(
            live.ckpt().unwrap().stats(),
            restored.ckpt().unwrap().stats(),
            "engine statistics are part of the restored trajectory"
        );
    }

    #[test]
    fn rfid_world_is_digest_only() {
        let sys = System::builder(DeviceConfig::wisp5()).rfid(1.0).build();
        assert!(!sys.supports_snapshots());
        assert!(sys.save_state().is_none());
        let _ = sys.state_digest(); // digests still work for RFID benches
    }

    #[test]
    fn builder_covers_every_bench_configuration() {
        // The configurations the removed `System::new`/`with_rfid*`
        // wrappers used to stand up, spelled with the builder.
        let sys = System::builder(DeviceConfig::wisp5())
            .harvester(edb_energy::TheveninSource::new(3.0, 10.0))
            .build();
        assert!(sys.edb().is_some());
        assert!(sys.reader().is_none());
        let sys = System::builder(DeviceConfig::wisp5())
            .rfid(1.0)
            .seed(42)
            .build();
        assert!(sys.edb().is_some());
        assert!(sys.reader().is_some());
        let sys = System::builder(DeviceConfig::wisp5())
            .rfid(1.0)
            .reader_config(edb_rfid::ReaderConfig::paper_setup())
            .seed(42)
            .build();
        assert!(sys.reader().is_some());
    }

    #[test]
    #[should_panic(expected = "energy world")]
    fn builder_requires_an_energy_world() {
        let _ = System::builder(DeviceConfig::wisp5()).build();
    }

    #[test]
    fn step_is_exactly_one_quantum() {
        // `step` is `advance(now)`. Whatever the bench, it must take one
        // instruction or one idle quantum, never a span: the fuzzer's
        // `system` arm uses the step loop as the per-quantum reference.
        let app = r#"
            .org 0x4400
            main:
                movi sp, 0x2400
            loop:
                add  r0, 1
                movi r1, 1
                out  0x02, r1      ; code marker
                jmp  loop
            .org 0xFFFE
            .word main
        "#;
        let image = assemble(&libedb::wrap_program(app)).expect("assembles");
        let config = DeviceConfig::wisp5();
        let cycle_ns = (1e9 / config.clock_hz).round() as u64;
        let idle_ns = config.idle_step.as_ns();

        let mut open = flashed_system(app);
        open.detach_edb();
        let far = SimTime::from_secs(10);
        assert_eq!(open.span_deadline(far), Some(far), "span window wide open");
        let mut rfid = System::builder(config).rfid(1.0).seed(42).build();
        rfid.flash(&image);
        let mut ckpt = System::builder(config)
            .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
            .with_checkpoint_strategy(CkptConfig::new(
                edb_runtime::ckpt::StrategyKind::Differential,
            ))
            .build();
        ckpt.flash(&image);

        for (name, mut sys) in [("harvester", open), ("rfid", rfid), ("differential", ckpt)] {
            let (mut idle, mut ran) = (0u64, 0u64);
            while ran < 2_000 && sys.now() < SimTime::from_ms(400) {
                let instructions = sys.device().total_instructions();
                let cycles = sys.device().cpu().cycles;
                let step = sys.step();
                let retired = sys.device().total_instructions() - instructions;
                assert!(retired <= 1, "{name}: one step retired {retired}");
                assert_eq!(step.retired.is_some(), retired == 1, "{name}");
                let elapsed = step.elapsed.as_ns();
                let spent = sys.device().cpu().cycles.saturating_sub(cycles).max(1);
                if elapsed == idle_ns {
                    idle += 1;
                } else {
                    assert_eq!(elapsed, spent * cycle_ns, "{name}: not one quantum");
                }
                ran += retired;
            }
            assert!(idle > 0 && ran >= 2_000, "{name}: idle {idle}, ran {ran}");
        }
    }

    /// A counter loop with no port traffic: nothing breaks a span but
    /// the bench's own horizon.
    const QUIET_COUNTER: &str = r#"
        .equ COUNT, 0x6000
        .org 0x4400
        main:
            movi sp, 0x2400
            movi r1, COUNT
        loop:
            ld   r0, [r1]
            add  r0, 1
            st   [r1], r0
            jmp  loop
        .org 0xFFFE
        .word main
    "#;

    /// Steps `a` quantum by quantum and runs `b` span-at-a-time for
    /// `ms` each; both must end in the same state.
    fn assert_run_for_matches_steps(name: &str, mut a: System, mut b: System, ms: u64) {
        let end = SimTime::from_ms(ms);
        while a.now() < end {
            a.step();
        }
        b.run_for(end);
        assert_eq!(a.now(), b.now(), "{name}: sim time");
        assert_eq!(
            a.device().total_instructions(),
            b.device().total_instructions(),
            "{name}: instructions"
        );
        assert_eq!(a.state_digest(), b.state_digest(), "{name}: state digest");
        assert_eq!(
            a.ckpt().map(CkptEngine::stats),
            b.ckpt().map(CkptEngine::stats),
            "{name}: checkpoint stats"
        );
        let counters = |s: &System| {
            s.reader()
                .map(|r| (r.commands_sent(), r.replies_ok(), r.replies_corrupt()))
        };
        assert_eq!(counters(&a), counters(&b), "{name}: reader counters");
    }

    #[test]
    fn rfid_and_checkpointed_benches_batch() {
        // The reader and the checkpoint engine bound spans with their
        // own horizons instead of forcing one quantum per advance.
        let image = assemble(&libedb::wrap_program(QUIET_COUNTER)).expect("assembles");
        let rfid = |reader: ReaderConfig| {
            let mut sys = System::builder(DeviceConfig::wisp5())
                .rfid(1.0)
                .reader_config(reader)
                .seed(7)
                .build();
            sys.flash(&image);
            sys
        };
        // Commands overlap on the air, so a frame can end while the
        // reader's own next change is a later one.
        let overlapping = ReaderConfig {
            query_period: SimTime::from_ms(20),
            rep_gap: SimTime::from_ms(2),
            byte_time: SimTime::from_ms(1),
            ..ReaderConfig::paper_setup()
        };
        let differential = || {
            let mut sys = System::builder(DeviceConfig::wisp5())
                .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
                .with_checkpoint_strategy(
                    CkptConfig::new(edb_runtime::ckpt::StrategyKind::Differential).interval(200),
                )
                .build();
            sys.flash(&image);
            sys.device_mut().set_v_cap(2.5);
            sys
        };
        let far = SimTime::from_secs(10);
        let paper = ReaderConfig::paper_setup();
        for (name, mut sys) in [("rfid", rfid(paper)), ("differential", differential())] {
            sys.run_for(SimTime::from_ms(5));
            let deadline = sys.span_deadline(far);
            assert!(
                deadline.is_some_and(|d| d > sys.now()),
                "{name}: no span at {:?}: {deadline:?}",
                sys.now()
            );
        }
        assert_run_for_matches_steps("rfid", rfid(paper), rfid(paper), 80);
        let (a, b) = (rfid(overlapping), rfid(overlapping));
        assert_run_for_matches_steps("rfid, overlapping commands", a, b, 80);
        let (a, b) = (differential(), differential());
        assert_run_for_matches_steps("differential", a, b, 80);
    }

    #[test]
    fn run_until_stops_mid_span_where_the_step_loop_does() {
        let build = || {
            let mut sys = flashed_system(QUIET_COUNTER);
            sys.detach_edb();
            sys
        };
        let watched = |s: &System| s.device().mem().peek_word(0x6000) >= 1_000;
        let timeout = SimTime::from_ms(400);

        let mut a = build();
        let mut stepped_fired = false;
        while a.now() < timeout {
            if watched(&a) {
                stepped_fired = true;
                break;
            }
            a.step();
        }
        let mut b = build();
        // With no debugger and no port traffic, the window to the
        // predicate's quantum is one span.
        assert_eq!(b.span_deadline(timeout), Some(timeout));
        let fired = b.run_until(timeout, watched);
        assert!(stepped_fired && fired, "the counter must reach 1000");
        assert_eq!(a.now(), b.now(), "same instant");
        assert_eq!(
            a.device().total_instructions(),
            b.device().total_instructions(),
            "same instruction"
        );
        assert_eq!(a.device().mem().peek_word(0x6000), 1_000);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn speculative_knee_commits_on_the_same_quantum_batched() {
        // Speculative commits when the capacitor sags through the knee;
        // the span must stop on exactly that quantum.
        let image = assemble(&libedb::wrap_program(QUIET_COUNTER)).expect("assembles");
        // No trigger fires within a power cycle, so every knee commit
        // is an emergency dump of the live context at that quantum.
        let build = || {
            let mut sys = System::builder(DeviceConfig::wisp5())
                .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
                .with_checkpoint_strategy(
                    CkptConfig::new(edb_runtime::ckpt::StrategyKind::Speculative).interval(1 << 30),
                )
                .build();
            sys.flash(&image);
            sys
        };
        let mut probe = build();
        probe.run_for(SimTime::from_ms(300));
        let stats = probe.ckpt().unwrap().stats();
        assert!(
            stats.emergency_dumps > 0 && stats.restores > 0,
            "the knee must commit and a turn-on restore: {stats:?}"
        );
        assert_run_for_matches_steps("speculative", build(), build(), 300);
    }

    #[test]
    fn batched_run_for_is_bit_identical_to_stepping() {
        // An intermittent workload with code markers and printf-style
        // debug traffic, so the span batcher crosses power edges, wire
        // events, ADC samples, and debugger ticks.
        let app = r#"
            .org 0x4400
            main:
                movi sp, 0x2400
            loop:
                add  r0, 1
                movi r1, 1
                out  0x02, r1      ; code marker
                jmp  loop
            .org 0xFFFE
            .word main
        "#;
        let end = SimTime::from_ms(250);

        let mut a = flashed_system(app);
        while a.now() < end {
            a.step();
        }

        let mut b = flashed_system(app);
        b.run_for(end);

        assert_eq!(
            a.device().v_cap().to_bits(),
            b.device().v_cap().to_bits(),
            "capacitor voltage must match to the last bit"
        );
        assert_eq!(a.now(), b.now());
        assert_eq!(
            a.device().total_instructions(),
            b.device().total_instructions()
        );
        assert_eq!(a.device().reboots(), b.device().reboots());
        assert_eq!(a.device().turn_ons(), b.device().turn_ons());
        let (ea, eb) = (a.edb().unwrap(), b.edb().unwrap());
        assert_eq!(ea.log().len(), eb.log().len(), "same debug events");
        assert_eq!(
            ea.last_reading().to_bits(),
            eb.last_reading().to_bits(),
            "same ADC sample sequence"
        );
        assert_eq!(
            ea.charge_delivered().to_bits(),
            eb.charge_delivered().to_bits()
        );
        assert!(a.device().turn_ons() >= 1, "workload must actually run");
        assert!(ea.log().len() > 10, "workload must actually log events");
    }
}
