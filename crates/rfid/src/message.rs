//! Command and reply frames and their wire encoding.
//!
//! The wire format is byte-granular: the device's RF front-end presents
//! demodulated bytes to the firmware, which performs CRC validation and
//! dispatch *in target code*, as the real WISP firmware does. EDB's
//! monitor decodes the same bytes independently on the host side.
//!
//! Frame layouts (all little-endian):
//!
//! | frame       | bytes                                            |
//! |-------------|--------------------------------------------------|
//! | `Query`     | `0x51, (q<<4)\|session, crc5`                    |
//! | `QueryRep`  | `0x52, session, crc5`                            |
//! | `QueryAdjust` | `0x53, (updn<<4)\|session, crc5`               |
//! | `Ack`       | `0x41, rn_lo, rn_hi, crc5`                       |
//! | `Rn16`      | `0xA1, rn_lo, rn_hi, crc16_lo, crc16_hi`         |
//! | `Epc`       | `0xA2, epc[12], crc16_lo, crc16_hi`              |

use crate::crc::{crc16, crc5};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Leading byte of a `Query` command.
pub const TYPE_QUERY: u8 = 0x51;
/// Leading byte of a `QueryRep` command.
pub const TYPE_QUERY_REP: u8 = 0x52;
/// Leading byte of a `QueryAdjust` command.
pub const TYPE_QUERY_ADJUST: u8 = 0x53;
/// Leading byte of an `Ack` command.
pub const TYPE_ACK: u8 = 0x41;
/// Leading byte of an `Rn16` reply.
pub const TYPE_RN16: u8 = 0xA1;
/// Leading byte of an `Epc` reply.
pub const TYPE_EPC: u8 = 0xA2;

/// A reader→tag command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Command {
    /// Starts an inventory round. `q` sets the slot-count range
    /// (`2^q` slots); our tags run with `q = 0` (respond immediately).
    Query {
        /// Slot-count exponent, 0–15.
        q: u8,
        /// Session number, 0–15.
        session: u8,
    },
    /// Advances to the next slot of the round.
    QueryRep {
        /// Session number, 0–15.
        session: u8,
    },
    /// Restarts the round with the slot-count exponent nudged up or
    /// down — how the reader's Q algorithm reacts mid-round to
    /// collision storms or runs of empty slots. Tags redraw their slot
    /// counters on receipt.
    QueryAdjust {
        /// Session number, 0–15.
        session: u8,
        /// `+1` (more slots), `0`, or `−1` (fewer slots).
        updn: i8,
    },
    /// Acknowledges a tag's RN16.
    Ack {
        /// The random number being acknowledged.
        rn: u16,
    },
}

impl Command {
    /// Serializes the command, appending its CRC-5.
    pub fn encode(self) -> Vec<u8> {
        match self {
            Command::Query { q, session } => {
                let body = [TYPE_QUERY, (q << 4) | (session & 0xF)];
                let mut v = body.to_vec();
                v.push(crc5(&body));
                v
            }
            Command::QueryRep { session } => {
                let body = [TYPE_QUERY_REP, session & 0xF];
                let mut v = body.to_vec();
                v.push(crc5(&body));
                v
            }
            Command::QueryAdjust { session, updn } => {
                // Up/down field: 0 = unchanged, 1 = up, 2 = down.
                let code: u8 = match updn {
                    1.. => 1,
                    0 => 0,
                    _ => 2,
                };
                let body = [TYPE_QUERY_ADJUST, (code << 4) | (session & 0xF)];
                let mut v = body.to_vec();
                v.push(crc5(&body));
                v
            }
            Command::Ack { rn } => {
                let body = [TYPE_ACK, (rn & 0xFF) as u8, (rn >> 8) as u8];
                let mut v = body.to_vec();
                v.push(crc5(&body));
                v
            }
        }
    }

    /// Length in bytes of [`encode`](Self::encode)'s frame, CRC-5
    /// included, without building it.
    pub fn encoded_len(self) -> usize {
        match self {
            Command::Query { .. } | Command::QueryRep { .. } | Command::QueryAdjust { .. } => 3,
            Command::Ack { .. } => 4,
        }
    }

    /// Parses and CRC-checks a command frame.
    ///
    /// # Errors
    ///
    /// [`DecodeFailure::BadLength`] if the byte count does not match any
    /// command; [`DecodeFailure::UnknownType`] for an unrecognized leading
    /// byte; [`DecodeFailure::BadCrc`] when the CRC-5 check fails (a
    /// frame corrupted in flight).
    pub fn decode(bytes: &[u8]) -> Result<Command, DecodeFailure> {
        let (&last, body) = bytes.split_last().ok_or(DecodeFailure::BadLength)?;
        let check = |ok: bool, cmd: Command| {
            if ok {
                Ok(cmd)
            } else {
                Err(DecodeFailure::BadCrc)
            }
        };
        match (bytes.first(), bytes.len()) {
            (Some(&TYPE_QUERY), 3) => check(
                crc5(body) == last,
                Command::Query {
                    q: bytes[1] >> 4,
                    session: bytes[1] & 0xF,
                },
            ),
            (Some(&TYPE_QUERY_REP), 3) => check(
                crc5(body) == last,
                Command::QueryRep {
                    session: bytes[1] & 0xF,
                },
            ),
            (Some(&TYPE_QUERY_ADJUST), 3) => {
                let updn = match bytes[1] >> 4 {
                    1 => 1,
                    2 => -1,
                    _ => 0,
                };
                check(
                    crc5(body) == last,
                    Command::QueryAdjust {
                        session: bytes[1] & 0xF,
                        updn,
                    },
                )
            }
            (Some(&TYPE_ACK), 4) => check(
                crc5(body) == last,
                Command::Ack {
                    rn: bytes[1] as u16 | ((bytes[2] as u16) << 8),
                },
            ),
            (Some(&TYPE_QUERY | &TYPE_QUERY_REP | &TYPE_QUERY_ADJUST | &TYPE_ACK), _) => {
                Err(DecodeFailure::BadLength)
            }
            (Some(_), _) => Err(DecodeFailure::UnknownType),
            (None, _) => Err(DecodeFailure::BadLength),
        }
    }

    /// The label the paper's Figure 12 uses for this message.
    pub fn label(self) -> &'static str {
        match self {
            Command::Query { .. } => "CMD_QUERY",
            Command::QueryRep { .. } => "CMD_QUERYREP",
            Command::QueryAdjust { .. } => "CMD_QUERYADJ",
            Command::Ack { .. } => "CMD_ACK",
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A tag→reader reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TagReply {
    /// The RN16 handle sent in response to a query.
    Rn16 {
        /// Tag-chosen random number.
        rn: u16,
    },
    /// The tag's EPC identifier — the paper's `RSP_GENERIC`.
    Epc {
        /// 96-bit EPC.
        epc: [u8; 12],
    },
}

impl TagReply {
    /// Serializes the reply, appending its CRC-16.
    pub fn encode(self) -> Vec<u8> {
        match self {
            TagReply::Rn16 { rn } => {
                let body = [TYPE_RN16, (rn & 0xFF) as u8, (rn >> 8) as u8];
                let mut v = body.to_vec();
                let c = crc16(&body);
                v.extend_from_slice(&c.to_le_bytes());
                v
            }
            TagReply::Epc { epc } => {
                let mut body = Vec::with_capacity(15);
                body.push(TYPE_EPC);
                body.extend_from_slice(&epc);
                let c = crc16(&body);
                body.extend_from_slice(&c.to_le_bytes());
                body
            }
        }
    }

    /// Parses and CRC-checks a reply frame.
    ///
    /// # Errors
    ///
    /// See [`Command::decode`]; the same failure taxonomy applies with the
    /// CRC-16.
    pub fn decode(bytes: &[u8]) -> Result<TagReply, DecodeFailure> {
        if bytes.len() < 3 {
            return Err(DecodeFailure::BadLength);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 2);
        let wire_crc = u16::from_le_bytes([crc_bytes[0], crc_bytes[1]]);
        let crc_ok = crc16(body) == wire_crc;
        match (bytes.first(), bytes.len()) {
            (Some(&TYPE_RN16), 5) => {
                if crc_ok {
                    Ok(TagReply::Rn16 {
                        rn: bytes[1] as u16 | ((bytes[2] as u16) << 8),
                    })
                } else {
                    Err(DecodeFailure::BadCrc)
                }
            }
            (Some(&TYPE_EPC), 15) => {
                if crc_ok {
                    let mut epc = [0u8; 12];
                    epc.copy_from_slice(&bytes[1..13]);
                    Ok(TagReply::Epc { epc })
                } else {
                    Err(DecodeFailure::BadCrc)
                }
            }
            (Some(&TYPE_RN16 | &TYPE_EPC), _) => Err(DecodeFailure::BadLength),
            (Some(_), _) => Err(DecodeFailure::UnknownType),
            (None, _) => Err(DecodeFailure::BadLength),
        }
    }

    /// The label the paper's Figure 12 uses for this message.
    pub fn label(self) -> &'static str {
        match self {
            TagReply::Rn16 { .. } => "RSP_RN16",
            TagReply::Epc { .. } => "RSP_GENERIC",
        }
    }
}

impl fmt::Display for TagReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeFailure {
    /// Frame length does not match the frame type.
    BadLength,
    /// CRC mismatch — the frame was corrupted in flight.
    BadCrc,
    /// Unrecognized leading byte.
    UnknownType,
}

impl fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeFailure::BadLength => write!(f, "bad frame length"),
            DecodeFailure::BadCrc => write!(f, "crc mismatch"),
            DecodeFailure::UnknownType => write!(f, "unknown frame type"),
        }
    }
}

impl std::error::Error for DecodeFailure {}

/// A frame in flight: raw bytes plus direction metadata, used by the
/// channel and by EDB's I/O monitor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// The wire bytes (possibly corrupted).
    pub bytes: Vec<u8>,
    /// `true` for reader→tag, `false` for tag→reader.
    pub downlink: bool,
}

impl Frame {
    /// Wraps a command as a downlink frame.
    pub fn command(cmd: Command) -> Self {
        Frame {
            bytes: cmd.encode(),
            downlink: true,
        }
    }

    /// Wraps a reply as an uplink frame.
    pub fn reply(reply: TagReply) -> Self {
        Frame {
            bytes: reply.encode(),
            downlink: false,
        }
    }

    /// Attempts to decode according to the frame direction, returning the
    /// paper-style label (`CMD_QUERY`, `RSP_GENERIC`, ...) or the decode
    /// failure.
    pub fn describe(&self) -> Result<&'static str, DecodeFailure> {
        if self.downlink {
            Command::decode(&self.bytes).map(Command::label)
        } else {
            TagReply::decode(&self.bytes).map(TagReply::label)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trips() {
        for cmd in [
            Command::Query { q: 3, session: 1 },
            Command::QueryRep { session: 2 },
            Command::QueryAdjust {
                session: 1,
                updn: 1,
            },
            Command::QueryAdjust {
                session: 3,
                updn: -1,
            },
            Command::QueryAdjust {
                session: 0,
                updn: 0,
            },
            Command::Ack { rn: 0xBEEF },
        ] {
            let bytes = cmd.encode();
            assert_eq!(Command::decode(&bytes), Ok(cmd));
        }
    }

    #[test]
    fn reply_round_trips() {
        let epc = *b"WISP5-EDB-00";
        for reply in [TagReply::Rn16 { rn: 0x1234 }, TagReply::Epc { epc }] {
            let bytes = reply.encode();
            assert_eq!(TagReply::decode(&bytes), Ok(reply));
        }
    }

    #[test]
    fn corrupted_command_fails_crc() {
        let mut bytes = Command::Query { q: 0, session: 0 }.encode();
        bytes[1] ^= 0x10;
        assert_eq!(Command::decode(&bytes), Err(DecodeFailure::BadCrc));
    }

    #[test]
    fn corrupted_reply_fails_crc() {
        let mut bytes = TagReply::Rn16 { rn: 7 }.encode();
        bytes[2] ^= 1;
        assert_eq!(TagReply::decode(&bytes), Err(DecodeFailure::BadCrc));
    }

    #[test]
    fn wrong_length_detected() {
        let mut bytes = Command::Query { q: 0, session: 0 }.encode();
        bytes.push(0);
        assert_eq!(Command::decode(&bytes), Err(DecodeFailure::BadLength));
        assert_eq!(Command::decode(&[]), Err(DecodeFailure::BadLength));
    }

    #[test]
    fn unknown_type_detected() {
        assert_eq!(
            Command::decode(&[0x99, 0, 0]),
            Err(DecodeFailure::UnknownType)
        );
        assert_eq!(
            TagReply::decode(&[0x99, 0, 0]),
            Err(DecodeFailure::UnknownType)
        );
    }

    #[test]
    fn empty_and_truncated_frames_are_bad_length() {
        // Empty payloads must fail cleanly on both decode paths, as
        // must every truncation of a valid frame down to nothing.
        assert_eq!(Command::decode(&[]), Err(DecodeFailure::BadLength));
        assert_eq!(TagReply::decode(&[]), Err(DecodeFailure::BadLength));
        let full = TagReply::Epc { epc: [7; 12] }.encode();
        for len in 0..full.len() {
            assert_ne!(
                TagReply::decode(&full[..len]),
                Ok(TagReply::Epc { epc: [7; 12] }),
                "truncated to {len} bytes must not decode"
            );
        }
        assert_eq!(
            Command::decode(&[TYPE_QUERY]),
            Err(DecodeFailure::BadLength)
        );
        assert_eq!(
            TagReply::decode(&[TYPE_EPC, 0]),
            Err(DecodeFailure::BadLength)
        );
    }

    #[test]
    fn max_length_epc_frame_round_trips_and_rejects_resizing() {
        // The Epc frame is the longest on the wire (15 bytes); an
        // all-ones payload must survive byte-exact and any padding or
        // truncation must be rejected as a length error.
        let reply = TagReply::Epc { epc: [0xFF; 12] };
        let bytes = reply.encode();
        assert_eq!(bytes.len(), 15);
        assert_eq!(TagReply::decode(&bytes), Ok(reply));
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(TagReply::decode(&extended), Err(DecodeFailure::BadLength));
        assert_eq!(
            TagReply::decode(&bytes[..14]),
            Err(DecodeFailure::BadLength)
        );
    }

    #[test]
    fn every_corrupted_byte_position_is_detected() {
        // Single-bit corruption anywhere in a frame — type byte, payload,
        // or the CRC itself — must never decode as the original message.
        let epc_frame = TagReply::Epc {
            epc: *b"WISP5-EDB-00",
        }
        .encode();
        for byte in 0..epc_frame.len() {
            for bit in 0..8 {
                let mut bad = epc_frame.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(
                    TagReply::decode(&bad),
                    Ok(TagReply::Epc {
                        epc: *b"WISP5-EDB-00"
                    }),
                    "flip {byte}/{bit} slipped through"
                );
            }
        }
        let ack_frame = Command::Ack { rn: 0xBEEF }.encode();
        for byte in 0..ack_frame.len() {
            for bit in 0..8 {
                let mut bad = ack_frame.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(
                    Command::decode(&bad),
                    Ok(Command::Ack { rn: 0xBEEF }),
                    "flip {byte}/{bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Command::Query { q: 0, session: 0 }.label(), "CMD_QUERY");
        assert_eq!(Command::QueryRep { session: 0 }.label(), "CMD_QUERYREP");
        assert_eq!(
            Command::QueryAdjust {
                session: 0,
                updn: 1
            }
            .label(),
            "CMD_QUERYADJ"
        );
        assert_eq!(TagReply::Epc { epc: [0; 12] }.label(), "RSP_GENERIC");
    }

    #[test]
    fn frame_describe_reports_direction_sensitive_labels() {
        let f = Frame::command(Command::Query { q: 0, session: 0 });
        assert_eq!(f.describe(), Ok("CMD_QUERY"));
        let mut f2 = Frame::reply(TagReply::Rn16 { rn: 1 });
        assert_eq!(f2.describe(), Ok("RSP_RN16"));
        f2.bytes[1] ^= 0xFF;
        assert_eq!(f2.describe(), Err(DecodeFailure::BadCrc));
    }
}
