//! Property-based tests for the RFID substrate.

use edb_rfid::crc::{crc16, crc5};
use edb_rfid::{Channel, Command, DecodeFailure, Frame, Reader, ReaderConfig, TagReply};
use proptest::prelude::*;

proptest! {
    /// Every command encodes to bytes that decode back to itself.
    #[test]
    fn command_round_trip(q in 0u8..16, session in 0u8..16, rn in any::<u16>()) {
        for cmd in [
            Command::Query { q, session },
            Command::QueryRep { session },
            Command::Ack { rn },
        ] {
            prop_assert_eq!(Command::decode(&cmd.encode()), Ok(cmd));
        }
    }

    /// `encoded_len` is the length of the frame `encode` builds, for
    /// every command variant.
    #[test]
    fn command_encoded_len_matches_encode(
        q in 0u8..16,
        session in 0u8..16,
        updn in -1i8..=1,
        rn in any::<u16>(),
    ) {
        for cmd in [
            Command::Query { q, session },
            Command::QueryRep { session },
            Command::QueryAdjust { session, updn },
            Command::Ack { rn },
        ] {
            prop_assert_eq!(cmd.encoded_len(), cmd.encode().len());
        }
    }

    /// Every reply encodes to bytes that decode back to itself.
    #[test]
    fn reply_round_trip(rn in any::<u16>(), epc in any::<[u8; 12]>()) {
        for reply in [TagReply::Rn16 { rn }, TagReply::Epc { epc }] {
            prop_assert_eq!(TagReply::decode(&reply.encode()), Ok(reply));
        }
    }

    /// Any single bit flip in a command frame is detected (CRC-5 has
    /// Hamming distance ≥ 2 over these short frames).
    #[test]
    fn single_flip_never_passes_command_crc(
        q in 0u8..16,
        session in 0u8..16,
        byte_idx in 0usize..3,
        bit in 0u8..8,
    ) {
        let cmd = Command::Query { q, session };
        let mut bytes = cmd.encode();
        let idx = byte_idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        // Either the CRC catches it, or the type byte changed to garbage.
        prop_assert_ne!(Command::decode(&bytes), Ok(cmd));
    }

    /// Any single bit flip in a reply frame is detected.
    #[test]
    fn single_flip_never_passes_reply_crc(
        epc in any::<[u8; 12]>(),
        byte_idx in 0usize..15,
        bit in 0u8..8,
    ) {
        let reply = TagReply::Epc { epc };
        let mut bytes = reply.encode();
        let idx = byte_idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert_ne!(TagReply::decode(&bytes), Ok(reply));
    }

    /// CRC-16 linearity sanity: crc(x) == crc(y) iff their difference is
    /// in the code — for random unequal short messages expect inequality
    /// nearly always; we only assert determinism here.
    #[test]
    fn crcs_are_deterministic(data in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(crc16(&data), crc16(&data));
        prop_assert_eq!(crc5(&data), crc5(&data));
        prop_assert!(crc5(&data) < 32);
    }

    /// The channel at BER 0 is the identity; at any BER the frame length
    /// is preserved.
    #[test]
    fn channel_preserves_length(seed in any::<u64>(), ber in 0.0f64..0.4) {
        let mut ch = Channel::new(seed);
        ch.set_ber(ber);
        let frame = Frame::reply(TagReply::Epc { epc: [0xAB; 12] });
        let out = ch.transmit(frame.clone());
        prop_assert_eq!(out.bytes.len(), frame.bytes.len());
        prop_assert_eq!(out.downlink, frame.downlink);
    }

    /// Corrupted frames either fail CRC or (vanishingly) alias to another
    /// valid frame — they never panic the decoder.
    #[test]
    fn decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..32)) {
        let _ = Command::decode(&bytes);
        let _ = TagReply::decode(&bytes);
        // Reaching here without panic is the property.
    }

    /// The reader emits exactly `1 + reps_per_round` commands per round,
    /// all within one query period.
    #[test]
    fn reader_round_structure(reps in 1u32..6) {
        let base = ReaderConfig::paper_setup();
        let cfg = ReaderConfig {
            reps_per_round: reps,
            // Keep the round strictly inside the query period.
            query_period: edb_energy::SimTime::from_ns(
                base.rep_gap.as_ns() * (reps as u64 + 2),
            ),
            ..base
        };
        let mut r = Reader::new(cfg);
        let mut count_round1 = 0;
        let mut t = edb_energy::SimTime::ZERO;
        let end = cfg.query_period;
        while t < end {
            if let Some(ev) = r.poll(t) {
                if ev.start < end {
                    count_round1 += 1;
                }
            }
            t = t.advance_ns(500_000);
        }
        prop_assert_eq!(count_round1, 1 + reps as usize);
    }
}

#[test]
fn garbage_decode_is_an_error_not_a_panic() {
    assert_eq!(Command::decode(&[0x51]), Err(DecodeFailure::BadLength));
}
