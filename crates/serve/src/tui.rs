//! The terminal frontend: a hand-rolled frame renderer and the view
//! state behind the `edb tui` frontend.
//!
//! Offline stand-in note: the natural crate here is `ratatui`, but the
//! workspace vendors no TUI dependency, so this module draws fixed-size
//! character frames itself. Everything is pure: [`TuiState`] is updated
//! from parsed JSON-RPC values and [`TuiState::draw`] renders a frame
//! as a `String`, so the whole display is testable headlessly (and the
//! binary's `--script` mode prints the same frames to stdout).

use crate::rpc::{param, Param};
use edb_core::SessionStatus;
use serde::{Deserialize, Value};
use std::collections::VecDeque;

/// Frame width, characters.
pub const WIDTH: usize = 80;
/// Frame height, rows.
pub const HEIGHT: usize = 24;

/// A fixed-size character frame.
#[derive(Debug, Clone)]
pub struct Frame {
    cells: Vec<char>,
}

impl Default for Frame {
    fn default() -> Self {
        Frame::new()
    }
}

impl Frame {
    /// A blank frame.
    pub fn new() -> Self {
        Frame {
            cells: vec![' '; WIDTH * HEIGHT],
        }
    }

    /// Writes `text` at `(x, y)`, clipped to the frame.
    pub fn put(&mut self, x: usize, y: usize, text: &str) {
        if y >= HEIGHT {
            return;
        }
        for (k, ch) in text.chars().enumerate() {
            let col = x + k;
            if col >= WIDTH {
                break;
            }
            self.cells[y * WIDTH + col] = ch;
        }
    }

    /// A horizontal rule across the full width at row `y`.
    pub fn hline(&mut self, y: usize) {
        self.put(0, y, &"-".repeat(WIDTH));
    }

    /// Renders the frame as `HEIGHT` newline-terminated rows.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((WIDTH + 1) * HEIGHT);
        for row in 0..HEIGHT {
            let line: String = self.cells[row * WIDTH..(row + 1) * WIDTH].iter().collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Everything the TUI shows, updated from call results and event
/// notifications.
#[derive(Debug, Clone, Default)]
pub struct TuiState {
    /// The attached session ID.
    pub session: Option<u64>,
    /// The last status snapshot.
    pub status: SessionStatus,
    /// Recent `Vcap` readings, oldest first (bounded).
    pub vcap_history: VecDeque<f64>,
    /// Disassembly around the PC: `(addr, text)` rows.
    pub disasm: Vec<(u16, String)>,
    /// Enabled breakpoints: `(id, optional energy threshold)`.
    pub breakpoints: Vec<(u8, Option<f64>)>,
    /// Recent event labels, oldest first (bounded).
    pub events: VecDeque<String>,
    /// One-line result/err note from the last command.
    pub message: String,
}

const VCAP_KEEP: usize = 40;
const EVENTS_KEEP: usize = 6;

impl TuiState {
    /// Fresh, unattached state.
    pub fn new() -> Self {
        TuiState::default()
    }

    /// Applies a status result object (and samples its `Vcap`); one
    /// that does not parse as a status leaves the view as it was.
    pub fn apply_status(&mut self, value: &Value) {
        if let Ok(status) = SessionStatus::from_value(value) {
            self.push_vcap(status.v_cap);
            self.status = status;
        }
    }

    fn push_vcap(&mut self, v: f64) {
        self.vcap_history.push_back(v);
        while self.vcap_history.len() > VCAP_KEEP {
            self.vcap_history.pop_front();
        }
    }

    /// Applies a `disasm` result object.
    pub fn apply_disasm(&mut self, value: &Value) {
        let lines: Vec<&Value> = field(value, "lines").unwrap_or_default();
        let row = |line| {
            (
                field(line, "addr").unwrap_or(0),
                field(line, "text").unwrap_or_default(),
            )
        };
        self.disasm = lines.into_iter().map(row).collect();
    }

    /// Applies a `breakpoints` result object.
    pub fn apply_breakpoints(&mut self, value: &Value) {
        let list: Vec<&Value> = field(value, "breakpoints").unwrap_or_default();
        let row = |bp| (field(bp, "id").unwrap_or(0), field(bp, "energy"));
        self.breakpoints = list.into_iter().map(row).collect();
    }

    /// Applies one server notification (an `event` line's full object).
    pub fn push_event(&mut self, notification: &Value) {
        let Some(params) = field::<&Value>(notification, "params") else {
            return;
        };
        let time_ns = field(params, "time_ns").unwrap_or(0u64);
        let label = field(params, "label").unwrap_or("?");
        if field(params, "tag") == Some("energy") {
            if let Some(v) = label
                .strip_prefix("energy ")
                .and_then(|s| s.strip_suffix(" V"))
                .and_then(|s| s.parse::<f64>().ok())
            {
                self.push_vcap(v);
            }
            return;
        }
        self.events
            .push_back(format!("[{:>9.3} ms] {label}", time_ns as f64 * 1e-6));
        while self.events.len() > EVENTS_KEEP {
            self.events.pop_front();
        }
    }

    /// Sets the one-line message shown under the panes.
    pub fn note(&mut self, message: impl Into<String>) {
        self.message = message.into();
    }

    /// Renders the full frame.
    pub fn draw(&self) -> String {
        let mut f = Frame::new();
        let s = &self.status;
        let title = match self.session {
            Some(id) => format!(
                " edb-tui | session {id} | t={:.3} ms | pc={:#06x} | {} ",
                s.time_ns as f64 * 1e-6,
                s.pc,
                if s.session_active {
                    "session OPEN"
                } else if s.powered {
                    "running"
                } else {
                    "off"
                },
            ),
            None => " edb-tui | not attached ".to_string(),
        };
        f.put(0, 0, &format!("{title:=^width$}", width = WIDTH));

        // Left pane: disassembly around the PC.
        f.put(1, 2, "disassembly");
        for (row, (addr, text)) in self.disasm.iter().take(12).enumerate() {
            let marker = if *addr == s.pc { ">" } else { " " };
            f.put(0, 3 + row, &format!("{marker} {addr:#06x}  {text}"));
        }

        // Right pane: energy, status, breakpoints.
        let rx = 44;
        f.put(
            rx,
            2,
            &format!("Vcap {:.3} V   Vreg {:.3} V", s.v_cap, s.v_reg),
        );
        f.put(rx, 3, &sparkline(&self.vcap_history, WIDTH - rx - 1));
        f.put(
            rx,
            5,
            &format!("reboots {:<6} instrs {}", s.reboots, s.instructions),
        );
        f.put(
            rx,
            6,
            &format!(
                "powered {}   guard {}",
                if s.powered { "yes" } else { "no " },
                if s.in_guard { "yes" } else { "no" }
            ),
        );
        f.put(rx, 8, "breakpoints");
        if self.breakpoints.is_empty() {
            f.put(rx, 9, "  (none)");
        }
        for (row, (id, energy)) in self.breakpoints.iter().take(5).enumerate() {
            let line = match energy {
                Some(v) => format!("  #{id} @ {v:.2} V"),
                None => format!("  #{id}"),
            };
            f.put(rx, 9 + row, &line);
        }

        // Event feed.
        f.hline(15);
        f.put(1, 15, " events ");
        for (row, event) in self.events.iter().rev().take(EVENTS_KEEP).enumerate() {
            f.put(1, 16 + row, event);
        }

        // Message + help.
        f.hline(22);
        f.put(1, 22, &format!(" {} ", self.message));
        f.put(
            1,
            23,
            "run <ms> | step [n] | back [n] | goto <ms> | rc | analyze [sym] | read/write | break",
        );
        f.render()
    }
}

/// Field `name` of a result object the server rendered, if present and
/// of the expected type.
pub fn field<'a, T: Param<'a>>(value: &'a Value, name: &str) -> Option<T> {
    param(value, name).ok().flatten()
}

/// A one-row bar chart of recent readings, scaled to the data range.
fn sparkline(history: &VecDeque<f64>, width: usize) -> String {
    const LEVELS: &[char] = &['_', '.', ':', '-', '=', '+', '*', '#'];
    if history.is_empty() {
        return "(no samples)".to_string();
    }
    let lo = history.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    history
        .iter()
        .rev()
        .take(width)
        .rev()
        .map(|v| {
            let k = ((v - lo) / span * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[k.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::obj;

    #[test]
    fn frame_geometry_is_fixed() {
        let mut state = TuiState::new();
        state.session = Some(3);
        state.apply_status(&obj(vec![
            ("time_ns", Value::U64(1_500_000)),
            ("v_cap", Value::F64(2.8)),
            ("v_reg", Value::F64(1.8)),
            ("powered", Value::Bool(true)),
            ("reboots", Value::U64(2)),
            ("instructions", Value::U64(12345)),
            ("session_active", Value::Bool(true)),
            ("in_guard", Value::Bool(false)),
            ("pc", Value::U64(0x4412)),
        ]));
        state.disasm = vec![
            (0x4410, "movi r0, 1".to_string()),
            (0x4412, "call 0xe0d2".to_string()),
        ];
        state.breakpoints = vec![(1, None), (2, Some(2.25))];
        state
            .events
            .push_back("[    1.500 ms] assert 1".to_string());
        state.note("read 0x6000 -> 0x1101");
        let frame = state.draw();
        let lines: Vec<&str> = frame.lines().collect();
        assert_eq!(lines.len(), HEIGHT);
        assert!(lines.iter().all(|l| l.chars().count() <= WIDTH));
        assert!(frame.contains("session 3"), "{frame}");
        assert!(frame.contains("> 0x4412"), "{frame}"); // PC marker
        assert!(frame.contains("#2 @ 2.25 V"), "{frame}");
        assert!(frame.contains("assert 1"), "{frame}");
        assert!(frame.contains("read 0x6000 -> 0x1101"), "{frame}");
    }

    #[test]
    fn energy_events_feed_the_sparkline_not_the_feed() {
        let mut state = TuiState::new();
        let note = obj(vec![(
            "params",
            obj(vec![
                ("session", Value::U64(1)),
                ("seq", Value::U64(0)),
                ("time_ns", Value::U64(1000)),
                ("tag", Value::Str("energy".to_string())),
                ("label", Value::Str("energy 2.501 V".to_string())),
            ]),
        )]);
        state.push_event(&note);
        assert_eq!(state.vcap_history.len(), 1);
        assert!(state.events.is_empty());
        assert!((state.vcap_history[0] - 2.501).abs() < 1e-9);
    }

    #[test]
    fn sparkline_scales_to_range() {
        let mut h = VecDeque::new();
        h.extend([2.0, 2.5, 3.0]);
        let bar = sparkline(&h, 10);
        assert_eq!(bar.chars().count(), 3);
        assert!(bar.starts_with('_') && bar.ends_with('#'), "{bar}");
    }
}
