//! An Impinj-like RFID reader: carrier control plus a periodic inventory
//! state machine.
//!
//! The paper's setup: "The WISP is intermittently powered by RF radiation
//! from an Impinj Speedway Revolution RFID reader. The reader is
//! configured to continuously inventory tags at a transmit power of up to
//! 30 dBm ... its antenna is placed at a distance of 1 m from the WISP."
//!
//! The reader keeps its carrier on (that is what powers the tag) and
//! schedules `Query` / `QueryRep` commands in rounds. Replies are counted
//! so the Figure 12 experiment can report the response rate and
//! replies-per-second that the paper reports (86 %, ~13 replies/s in
//! their lab).

use crate::message::{Command, DecodeFailure, Frame, TagReply};
use edb_energy::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Timing and protocol parameters of the reader.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReaderConfig {
    /// Time between the `Query` commands that open inventory rounds.
    pub query_period: SimTime,
    /// Gap between successive `QueryRep`s within a round.
    pub rep_gap: SimTime,
    /// Number of `QueryRep`s after each `Query`.
    pub reps_per_round: u32,
    /// Air time per frame byte (sets command duration).
    pub byte_time: SimTime,
    /// Gen2 session number carried in commands.
    pub session: u8,
}

impl ReaderConfig {
    /// The calibrated stand-in for the paper's lab setup: one `Query`
    /// every 60 ms with three `QueryRep`s 15 ms apart — ~66 command
    /// opportunities per second, so a tag answering most of them yields
    /// the paper's "average of 13 replies per second" order of magnitude
    /// once its power duty cycle is factored in.
    pub fn paper_setup() -> Self {
        ReaderConfig {
            query_period: SimTime::from_ms(60),
            rep_gap: SimTime::from_ms(15),
            reps_per_round: 3,
            byte_time: SimTime::from_us(400),
            session: 0,
        }
    }
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig::paper_setup()
    }
}

/// A tag reply that failed to decode at the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyError {
    /// Why the frame was rejected.
    pub failure: DecodeFailure,
    /// How many bytes arrived.
    pub len: usize,
}

impl fmt::Display for ReplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reply of {} byte(s): {}", self.len, self.failure)
    }
}

impl std::error::Error for ReplyError {}

/// Something the reader put on the air.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReaderEvent {
    /// The transmitted frame (pre-channel; corruption happens in flight).
    pub frame: Frame,
    /// When modulation began.
    pub start: SimTime,
    /// When the last byte finished.
    pub end: SimTime,
    /// The decoded command (the reader knows what it sent).
    pub command: Command,
}

/// The inventory state machine.
///
/// Drive it with [`Reader::poll`] once per simulation slice; feed tag
/// replies back with [`Reader::on_reply`].
///
/// # Example
///
/// ```
/// use edb_rfid::{Reader, ReaderConfig};
/// use edb_energy::SimTime;
/// let mut reader = Reader::new(ReaderConfig::paper_setup());
/// let ev = reader.poll(SimTime::ZERO).expect("first query fires at t=0");
/// assert_eq!(ev.command.label(), "CMD_QUERY");
/// ```
#[derive(Debug, Clone)]
pub struct Reader {
    config: ReaderConfig,
    round_start: SimTime,
    reps_sent_this_round: u32,
    next_tx: SimTime,
    tx_end: SimTime,
    started: bool,
    queries_sent: u64,
    reps_sent: u64,
    replies_ok: u64,
    replies_corrupt: u64,
}

impl Reader {
    /// Creates a reader that will send its first `Query` immediately.
    pub fn new(config: ReaderConfig) -> Self {
        Reader {
            config,
            round_start: SimTime::ZERO,
            reps_sent_this_round: 0,
            next_tx: SimTime::ZERO,
            tx_end: SimTime::ZERO,
            started: false,
            queries_sent: 0,
            reps_sent: 0,
            replies_ok: 0,
            replies_corrupt: 0,
        }
    }

    /// The reader's configuration.
    pub fn config(&self) -> ReaderConfig {
        self.config
    }

    /// Whether the reader is modulating a command at `now` (the harvester
    /// derates slightly while this is true).
    pub fn modulating(&self, now: SimTime) -> bool {
        now < self.tx_end
    }

    /// The first instant after `now` at which the reader changes what it
    /// puts on the air: the end of the transmission in progress or the
    /// start of the next one. Until then [`Reader::poll`] returns `None`
    /// and [`Reader::modulating`] keeps its value. Call after draining
    /// [`Reader::poll`] at `now`.
    pub fn next_change(&self, now: SimTime) -> SimTime {
        if now < self.tx_end {
            self.tx_end.min(self.next_tx)
        } else {
            self.next_tx
        }
    }

    /// Advances the schedule; returns a transmission if one starts at or
    /// before `now`. Call repeatedly until it returns `None` to drain
    /// multiple due events after a large time jump.
    pub fn poll(&mut self, now: SimTime) -> Option<ReaderEvent> {
        if now < self.next_tx {
            return None;
        }
        let start = self.next_tx;
        let command = if !self.started || self.reps_sent_this_round >= self.config.reps_per_round {
            // Open a new round.
            self.started = true;
            self.round_start = start;
            self.reps_sent_this_round = 0;
            self.queries_sent += 1;
            Command::Query {
                q: 0,
                session: self.config.session,
            }
        } else {
            self.reps_sent_this_round += 1;
            self.reps_sent += 1;
            Command::QueryRep {
                session: self.config.session,
            }
        };
        let frame = Frame::command(command);
        let duration_ns = frame.bytes.len() as u64 * self.config.byte_time.as_ns();
        let end = start.advance_ns(duration_ns);
        self.tx_end = end;
        // Schedule the next transmission.
        self.next_tx = if self.reps_sent_this_round >= self.config.reps_per_round {
            self.round_start + self.config.query_period
        } else {
            start + self.config.rep_gap
        };
        Some(ReaderEvent {
            frame,
            start,
            end,
            command,
        })
    }

    /// Records a tag reply arriving at the reader (post-channel).
    ///
    /// # Errors
    ///
    /// [`ReplyError`] describing why the frame was rejected; the reply is
    /// still counted in [`Reader::replies_corrupt`].
    pub fn try_on_reply(&mut self, bytes: &[u8]) -> Result<TagReply, ReplyError> {
        match TagReply::decode(bytes) {
            Ok(reply) => {
                self.replies_ok += 1;
                Ok(reply)
            }
            Err(failure) => {
                self.replies_corrupt += 1;
                Err(ReplyError {
                    failure,
                    len: bytes.len(),
                })
            }
        }
    }

    /// Records a tag reply, discarding the reason when it fails to decode.
    /// Prefer [`Reader::try_on_reply`] where the cause matters.
    pub fn on_reply(&mut self, bytes: &[u8]) -> Option<TagReply> {
        self.try_on_reply(bytes).ok()
    }

    /// Total `Query` commands sent.
    pub fn queries_sent(&self) -> u64 {
        self.queries_sent
    }

    /// Total `QueryRep` commands sent.
    pub fn reps_sent(&self) -> u64 {
        self.reps_sent
    }

    /// Total commands (queries + reps) sent.
    pub fn commands_sent(&self) -> u64 {
        self.queries_sent + self.reps_sent
    }

    /// Replies that decoded cleanly at the reader.
    pub fn replies_ok(&self) -> u64 {
        self.replies_ok
    }

    /// Replies that arrived corrupted.
    pub fn replies_corrupt(&self) -> u64 {
        self.replies_corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_transmission_is_a_query() {
        let mut r = Reader::new(ReaderConfig::paper_setup());
        let ev = r.poll(SimTime::ZERO).expect("due at t=0");
        assert!(matches!(ev.command, Command::Query { .. }));
        assert_eq!(r.queries_sent(), 1);
    }

    #[test]
    fn next_change_is_the_next_edge_on_the_air() {
        // Between edges nothing happens: `poll` emits nothing and the
        // modulation holds, so a simulation may batch up to the edge.
        let cfg = ReaderConfig::paper_setup();
        let mut r = Reader::new(cfg);
        let first = r.poll(SimTime::ZERO).expect("due at t=0");
        assert!(r.poll(SimTime::ZERO).is_none());
        assert_eq!(r.next_change(SimTime::ZERO), first.end, "end of the query");
        let mid = SimTime::from_ns(first.end.as_ns() / 2);
        assert!(r.modulating(mid) && r.poll(mid).is_none());
        assert_eq!(r.next_change(first.end), cfg.rep_gap, "the first QueryRep");
        let quiet = first.end.advance_ns(1);
        assert!(!r.modulating(quiet) && r.poll(quiet).is_none());
        assert!(r.poll(cfg.rep_gap).is_some());
    }

    #[test]
    fn rounds_follow_query_rep_pattern() {
        let cfg = ReaderConfig::paper_setup();
        let mut r = Reader::new(cfg);
        let mut labels = Vec::new();
        let mut t = SimTime::ZERO;
        // Walk two full rounds.
        for _ in 0..200 {
            if let Some(ev) = r.poll(t) {
                labels.push(ev.command.label());
            }
            t = t.advance_ns(1_000_000); // 1 ms steps
            if labels.len() >= 8 {
                break;
            }
        }
        assert_eq!(
            labels,
            vec![
                "CMD_QUERY",
                "CMD_QUERYREP",
                "CMD_QUERYREP",
                "CMD_QUERYREP",
                "CMD_QUERY",
                "CMD_QUERYREP",
                "CMD_QUERYREP",
                "CMD_QUERYREP",
            ]
        );
    }

    #[test]
    fn query_cadence_matches_period() {
        let cfg = ReaderConfig::paper_setup();
        let mut r = Reader::new(cfg);
        let mut query_times = Vec::new();
        let mut t = SimTime::ZERO;
        while query_times.len() < 3 {
            if let Some(ev) = r.poll(t) {
                if matches!(ev.command, Command::Query { .. }) {
                    query_times.push(ev.start);
                }
            }
            t = t.advance_ns(100_000);
        }
        let gap = query_times[1].since(query_times[0]);
        assert_eq!(gap, cfg.query_period);
    }

    #[test]
    fn modulation_window_covers_frame_air_time() {
        let cfg = ReaderConfig::paper_setup();
        let mut r = Reader::new(cfg);
        let ev = r.poll(SimTime::ZERO).expect("query");
        let mid = SimTime::from_ns(ev.end.as_ns() / 2);
        assert!(r.modulating(mid));
        assert!(!r.modulating(ev.end.advance_ns(1)));
    }

    #[test]
    fn reply_accounting_separates_corruption() {
        let mut r = Reader::new(ReaderConfig::paper_setup());
        let good = TagReply::Epc { epc: [7; 12] }.encode();
        assert!(r.on_reply(&good).is_some());
        let mut bad = good.clone();
        bad[3] ^= 0xFF;
        assert!(r.on_reply(&bad).is_none());
        assert_eq!(r.replies_ok(), 1);
        assert_eq!(r.replies_corrupt(), 1);
    }

    #[test]
    fn try_on_reply_reports_the_failure() {
        let mut r = Reader::new(ReaderConfig::paper_setup());
        let mut bad = TagReply::Epc { epc: [7; 12] }.encode();
        bad[3] ^= 0xFF;
        let err = r.try_on_reply(&bad).expect_err("corrupted frame");
        assert_eq!(err.failure, DecodeFailure::BadCrc);
        assert_eq!(err.len, bad.len());
        assert_eq!(err.to_string(), "reply of 15 byte(s): crc mismatch");
        let truncated = r.try_on_reply(&bad[..2]).expect_err("short frame");
        assert_eq!(truncated.failure, DecodeFailure::BadLength);
        assert_eq!(r.replies_corrupt(), 2);
    }

    #[test]
    fn poll_before_due_time_returns_none() {
        let mut r = Reader::new(ReaderConfig::paper_setup());
        let _ = r.poll(SimTime::ZERO);
        assert!(r.poll(SimTime::from_ms(1)).is_none());
    }
}
