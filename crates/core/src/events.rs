//! The debugger's time-stamped event log.
//!
//! Everything EDB observes or does lands here: energy samples, watchpoint
//! hits, I/O activity, RFID messages, assert/breakpoint sessions, energy
//! guard entries and exits, printf lines. The experiment harnesses read
//! this log to regenerate the paper's figures; the console prints from it
//! in "trace" mode.

use edb_energy::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One observation or action, without its timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DebugEvent {
    /// A passive energy sample (the `Vcap` stream).
    EnergySample {
        /// ADC reading converted to volts.
        v_cap: f64,
        /// Regulated-rail reading, volts.
        v_reg: f64,
    },
    /// A watchpoint (code-marker pulse) decoded from the marker lines.
    Watchpoint {
        /// Watchpoint ID, 1–3 with two marker lines.
        id: u8,
        /// Energy snapshot taken with the pulse, volts.
        v_cap: f64,
    },
    /// The target reported a failed assertion and was tethered alive.
    AssertFailed {
        /// Assertion site ID.
        id: u8,
    },
    /// An internal breakpoint triggered and opened a session.
    BreakpointHit {
        /// Breakpoint ID.
        id: u8,
        /// Energy at the hit, volts.
        v_cap: f64,
    },
    /// An energy breakpoint (threshold crossing) fired.
    EnergyBreakpoint {
        /// The armed threshold, volts.
        threshold: f64,
        /// The reading that crossed it, volts.
        v_cap: f64,
    },
    /// The target entered an energy-guarded region; EDB tethered it.
    GuardEnter {
        /// Saved (pre-guard) level, volts, as measured by EDB's ADC.
        saved_v: f64,
    },
    /// The target left the guarded region; EDB restored the saved level.
    GuardExit {
        /// The level EDB restored to (ADC reading after discharge).
        restored_v: f64,
    },
    /// A complete `printf` line arrived over the debug UART.
    Printf {
        /// The line, without the trailing newline.
        line: String,
    },
    /// A byte was observed on the target-powered user UART.
    UartByte {
        /// The byte.
        byte: u8,
    },
    /// An I²C transaction was observed on the monitored bus.
    I2c {
        /// Transaction summary (sample values).
        x: i16,
        /// Y axis.
        y: i16,
        /// Z axis.
        z: i16,
    },
    /// A GPIO pin change was observed.
    Gpio {
        /// Previous latch.
        old: u16,
        /// New latch.
        new: u16,
    },
    /// An RFID message crossed the monitored RF lines.
    Rfid {
        /// The paper-style label (`CMD_QUERY`, `RSP_GENERIC`, ...), or
        /// `CORRUPT` when EDB's decoder rejects the frame.
        label: String,
        /// `true` for reader→tag.
        downlink: bool,
        /// Whether EDB's decoder validated the frame.
        valid: bool,
    },
    /// An interactive session opened (assert, breakpoint, or console).
    SessionOpened {
        /// Why the session opened.
        reason: String,
    },
    /// The interactive session closed and the target resumed.
    SessionClosed {
        /// The level EDB restored to before releasing the target (ADC
        /// reading), volts.
        restored_v: f64,
    },
    /// A charge/discharge operation completed.
    LevelReached {
        /// The requested target, volts.
        target: f64,
        /// The ADC reading at completion, volts.
        v_cap: f64,
    },
    /// The target CPU faulted (observable as the device wedging).
    TargetFault {
        /// Description of the fault.
        description: String,
    },
    /// The device browned out.
    BrownOut,
    /// The device turned on.
    TurnOn,
    /// A framed debug command was re-sent (timeout or corrupt reply).
    CommandRetry {
        /// The command (`READ`, `WRITE`, `GET_PC`).
        cmd: String,
        /// Which send attempt this is (2 = first retry).
        attempt: u32,
    },
    /// A framed debug command gave up and surfaced a typed error.
    CommandAborted {
        /// The command.
        cmd: String,
        /// The rendered [`crate::EdbError`].
        error: String,
    },
    /// An interactive session was torn down without a clean resume (the
    /// target browned out mid-session).
    SessionAborted {
        /// Why the session could not continue.
        reason: String,
    },
}

impl DebugEvent {
    /// A short stable tag for filtering (`energy`, `watchpoint`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            DebugEvent::EnergySample { .. } => "energy",
            DebugEvent::Watchpoint { .. } => "watchpoint",
            DebugEvent::AssertFailed { .. } => "assert",
            DebugEvent::BreakpointHit { .. } => "breakpoint",
            DebugEvent::EnergyBreakpoint { .. } => "energy-breakpoint",
            DebugEvent::GuardEnter { .. } => "guard-enter",
            DebugEvent::GuardExit { .. } => "guard-exit",
            DebugEvent::Printf { .. } => "printf",
            DebugEvent::UartByte { .. } => "uart",
            DebugEvent::I2c { .. } => "i2c",
            DebugEvent::Gpio { .. } => "gpio",
            DebugEvent::Rfid { .. } => "rfid",
            DebugEvent::SessionOpened { .. } => "session-open",
            DebugEvent::SessionClosed { .. } => "session-close",
            DebugEvent::LevelReached { .. } => "level",
            DebugEvent::TargetFault { .. } => "fault",
            DebugEvent::BrownOut => "brown-out",
            DebugEvent::TurnOn => "turn-on",
            DebugEvent::CommandRetry { .. } => "cmd-retry",
            DebugEvent::CommandAborted { .. } => "cmd-abort",
            DebugEvent::SessionAborted { .. } => "session-abort",
        }
    }

    /// A one-line human-readable label — what the observability
    /// exporters show as the event name on a timeline track.
    pub fn label(&self) -> String {
        match self {
            DebugEvent::EnergySample { v_cap, .. } => format!("energy {v_cap:.3} V"),
            DebugEvent::Watchpoint { id, v_cap } => format!("watchpoint {id} @ {v_cap:.3} V"),
            DebugEvent::AssertFailed { id } => format!("assert {id}"),
            DebugEvent::BreakpointHit { id, v_cap } => format!("breakpoint {id} @ {v_cap:.3} V"),
            DebugEvent::EnergyBreakpoint { threshold, v_cap } => {
                format!("energy-breakpoint {threshold:.3} V (read {v_cap:.3} V)")
            }
            DebugEvent::GuardEnter { saved_v } => format!("guard-enter {saved_v:.3} V"),
            DebugEvent::GuardExit { restored_v } => format!("guard-exit {restored_v:.3} V"),
            DebugEvent::Printf { line } => format!("printf: {line}"),
            DebugEvent::UartByte { byte } => format!("uart {byte:#04x}"),
            DebugEvent::I2c { x, y, z } => format!("i2c ({x}, {y}, {z})"),
            DebugEvent::Gpio { old, new } => format!("gpio {old:#06x} -> {new:#06x}"),
            DebugEvent::Rfid {
                label,
                downlink,
                valid,
            } => format!(
                "{} {label}{}",
                if *downlink { "rfid-down" } else { "rfid-up" },
                if *valid { "" } else { " (invalid)" }
            ),
            DebugEvent::SessionOpened { reason } => format!("session open: {reason}"),
            DebugEvent::SessionClosed { restored_v } => {
                format!("session close ({restored_v:.3} V)")
            }
            DebugEvent::LevelReached { target, v_cap } => {
                format!("level {target:.3} V (read {v_cap:.3} V)")
            }
            DebugEvent::TargetFault { description } => format!("fault: {description}"),
            DebugEvent::BrownOut => "brown-out".to_string(),
            DebugEvent::TurnOn => "turn-on".to_string(),
            DebugEvent::CommandRetry { cmd, attempt } => format!("{cmd} retry #{attempt}"),
            DebugEvent::CommandAborted { cmd, error } => format!("{cmd} aborted: {error}"),
            DebugEvent::SessionAborted { reason } => format!("session abort: {reason}"),
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub event: DebugEvent,
}

impl fmt::Display for LoggedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] {:?}", self.at.to_string(), self.event)
    }
}

// A logged debugger event *is* a trace event mark; the conversions let
// harnesses pin log entries directly onto energy traces (and the
// observability exporters reuse the same type, re-exported as
// `edb_obs::EventMark`).
impl From<&LoggedEvent> for edb_obs::EventMark {
    fn from(e: &LoggedEvent) -> Self {
        edb_obs::EventMark {
            at: e.at,
            label: e.event.label(),
        }
    }
}

impl From<LoggedEvent> for edb_obs::EventMark {
    fn from(e: LoggedEvent) -> Self {
        (&e).into()
    }
}

/// The append-only event log.
///
/// The log is sealed chunks of [`EventLog::CHUNK`] events, shared
/// through `Arc`, plus one open tail. A clone (every tape snapshot and
/// keyframe holds one) copies the tail and shares the sealed chunks, so
/// it costs at most a chunk of events however long the log grows. It
/// serializes as one sequence of events, as the flat log it replaced
/// did.
///
/// # Example
///
/// ```
/// use edb_core::events::{DebugEvent, EventLog};
/// use edb_energy::SimTime;
/// let mut log = EventLog::new();
/// log.push(SimTime::from_ms(1), DebugEvent::Watchpoint { id: 1, v_cap: 2.2 });
/// log.push(SimTime::from_ms(2), DebugEvent::BrownOut);
/// assert_eq!(log.with_tag("watchpoint").count(), 1);
/// ```
#[derive(Clone, Default)]
pub struct EventLog {
    /// Full chunks, oldest first, each exactly [`EventLog::CHUNK`] long.
    sealed: Vec<Arc<[LoggedEvent]>>,
    /// The newest events, fewer than [`EventLog::CHUNK`].
    tail: Vec<LoggedEvent>,
}

impl EventLog {
    /// Events per sealed chunk.
    pub const CHUNK: usize = 256;

    /// Creates an empty log.
    pub const fn new() -> Self {
        EventLog {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Appends an event at `at`.
    pub fn push(&mut self, at: SimTime, event: DebugEvent) {
        self.tail.push(LoggedEvent { at, event });
        if self.tail.len() == Self::CHUNK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(Self::CHUNK));
            self.sealed.push(full.into());
        }
    }

    /// All events in arrival order.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &LoggedEvent> {
        self.sealed.iter().flat_map(|c| c.iter()).chain(&self.tail)
    }

    /// The events from the `from`-th on, in arrival order (none when
    /// `from` is past the end), found without walking the ones before.
    pub fn events_from(&self, from: usize) -> impl Iterator<Item = &LoggedEvent> {
        let chunk = from / Self::CHUNK;
        let tail = if chunk <= self.sealed.len() {
            &self.tail[..]
        } else {
            &[]
        };
        self.sealed
            .get(chunk..)
            .unwrap_or_default()
            .iter()
            .flat_map(|c| c.iter())
            .chain(tail)
            .skip(from % Self::CHUNK)
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.sealed.len() * Self::CHUNK + self.tail.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events matching a tag (see [`DebugEvent::tag`]).
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a LoggedEvent> + 'a {
        self.events().filter(move |e| e.event.tag() == tag)
    }

    /// Events within the half-open time window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &LoggedEvent> {
        self.events().filter(move |e| e.at >= from && e.at < to)
    }

    /// All printf lines in order.
    pub fn printf_lines(&self) -> Vec<&str> {
        self.events()
            .filter_map(|e| match &e.event {
                DebugEvent::Printf { line } => Some(line.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Timestamps of watchpoint hits for a given ID, with their energy
    /// snapshots — the raw material of the paper's Figure 11 profile.
    pub fn watchpoint_hits(&self, id: u8) -> Vec<(SimTime, f64)> {
        self.events()
            .filter_map(|e| match e.event {
                DebugEvent::Watchpoint { id: got, v_cap } if got == id => Some((e.at, v_cap)),
                _ => None,
            })
            .collect()
    }

    /// Drops all events (the console's implicit behaviour when switching
    /// trace streams).
    pub fn clear(&mut self) {
        self.sealed.clear();
        self.tail.clear();
    }

    /// The sealed chunks, to see which a clone shares.
    #[cfg(test)]
    pub(crate) fn sealed(&self) -> &[Arc<[LoggedEvent]>] {
        &self.sealed
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.events().eq(other.events())
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Events<'a>(&'a EventLog);
        impl fmt::Debug for Events<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.events()).finish()
            }
        }
        f.debug_struct("EventLog")
            .field("events", &Events(self))
            .finish()
    }
}

// By hand, with the layout a struct of one `events: Vec<LoggedEvent>`
// derives, so recordings and digests keep their bytes.
impl Serialize for EventLog {
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.map(1);
        sink.str("events");
        sink.seq(self.len());
        for event in self.events() {
            event.serialize(sink);
        }
    }
}

impl Deserialize for EventLog {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_map().is_none() {
            return Err(serde::DeError::expected("map", "EventLog"));
        }
        let events = v.get_field("events").unwrap_or(&serde::Value::Null);
        let mut log = EventLog::new();
        for LoggedEvent { at, event } in Vec::<LoggedEvent>::from_value(events)? {
            log.push(at, event);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut log = EventLog::new();
        log.push(SimTime::from_ms(1), DebugEvent::TurnOn);
        log.push(
            SimTime::from_ms(2),
            DebugEvent::Watchpoint { id: 2, v_cap: 2.0 },
        );
        log.push(SimTime::from_ms(3), DebugEvent::BrownOut);
        assert_eq!(log.len(), 3);
        assert_eq!(log.with_tag("watchpoint").count(), 1);
        assert_eq!(log.with_tag("brown-out").count(), 1);
    }

    #[test]
    fn window_is_half_open() {
        let mut log = EventLog::new();
        for ms in [1u64, 2, 3, 4] {
            log.push(SimTime::from_ms(ms), DebugEvent::BrownOut);
        }
        let n = log.window(SimTime::from_ms(2), SimTime::from_ms(4)).count();
        assert_eq!(n, 2);
    }

    #[test]
    fn printf_lines_extracted_in_order() {
        let mut log = EventLog::new();
        log.push(
            SimTime::from_ms(1),
            DebugEvent::Printf { line: "a=1".into() },
        );
        log.push(
            SimTime::from_ms(2),
            DebugEvent::Printf { line: "a=2".into() },
        );
        assert_eq!(log.printf_lines(), vec!["a=1", "a=2"]);
    }

    #[test]
    fn watchpoint_hits_capture_energy() {
        let mut log = EventLog::new();
        log.push(
            SimTime::from_ms(5),
            DebugEvent::Watchpoint { id: 1, v_cap: 2.3 },
        );
        log.push(
            SimTime::from_ms(6),
            DebugEvent::Watchpoint { id: 2, v_cap: 2.1 },
        );
        let hits = log.watchpoint_hits(1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 2.3);
    }

    /// The flat log [`EventLog`] replaced, with its derived layout.
    #[derive(Serialize)]
    struct VecLog {
        events: Vec<LoggedEvent>,
    }

    /// Event `k` of a test log: every third a watchpoint, the rest
    /// printf lines naming `k`.
    fn event(k: usize) -> LoggedEvent {
        let event = if k.is_multiple_of(3) {
            DebugEvent::Watchpoint {
                id: 1,
                v_cap: k as f64,
            }
        } else {
            DebugEvent::Printf {
                line: format!("k={k}"),
            }
        };
        LoggedEvent {
            at: SimTime::from_us(k as u64),
            event,
        }
    }

    #[test]
    fn chunked_log_reads_and_encodes_as_the_flat_log() {
        const C: usize = EventLog::CHUNK;
        for len in [0, C - 1, C, C + 1, 3 * C] {
            let flat: Vec<LoggedEvent> = (0..len).map(event).collect();
            let mut log = EventLog::new();
            for e in &flat {
                log.push(e.at, e.event.clone());
            }
            assert_eq!(log.len(), len);
            assert_eq!(log.is_empty(), len == 0);
            assert_eq!(log.sealed().len(), len / C, "len {len}");
            assert!(log.events().eq(&flat), "len {len}: order");
            assert!(log.events().rev().eq(flat.iter().rev()), "len {len}");
            for from in [0, 1, C - 1, C, C + 1, 2 * C + 5, len, len + 1, 4 * C] {
                assert!(
                    log.events_from(from).eq(flat.iter().skip(from)),
                    "len {len}, from {from}"
                );
            }
            let tagged = flat.iter().filter(|e| e.event.tag() == "watchpoint");
            assert!(log.with_tag("watchpoint").eq(tagged), "len {len}: with_tag");
            let reference = VecLog { events: flat };
            let mut ours = Vec::new();
            let mut theirs = Vec::new();
            edb_replay::encode(&log, &mut ours);
            edb_replay::encode(&reference, &mut theirs);
            assert!(ours == theirs, "len {len}: serialized bytes differ");
            assert_eq!(log.to_value(), reference.to_value());
            assert_eq!(EventLog::from_value(&log.to_value()).unwrap(), log);
            // A clone shares every sealed chunk.
            let clone = log.clone();
            assert_eq!(clone, log);
            assert!(clone
                .sealed()
                .iter()
                .zip(log.sealed())
                .all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }

    #[test]
    fn cleared_log_starts_over() {
        let mut log = EventLog::new();
        for k in 0..EventLog::CHUNK + 3 {
            let e = event(k);
            log.push(e.at, e.event);
        }
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.events().count(), 0);
        log.push(SimTime::from_ms(1), DebugEvent::BrownOut);
        assert_eq!(log.events_from(0).count(), 1);
    }

    #[test]
    fn every_event_has_a_tag() {
        // Compile-time-ish exhaustiveness: a few spot checks.
        assert_eq!(
            DebugEvent::SessionClosed { restored_v: 2.3 }.tag(),
            "session-close"
        );
        assert_eq!(
            DebugEvent::Rfid {
                label: "CMD_QUERY".into(),
                downlink: true,
                valid: true
            }
            .tag(),
            "rfid"
        );
    }
}
