//! Fuzz-style corpus for the wire decoder: the decoder must be *total* —
//! every byte sequence either decodes or returns a `WireError`, and a
//! successful decode must re-encode to a frame that decodes identically.
//! No input may panic, hang, or provoke an allocation larger than the
//! input itself justifies.

use broadmatch::{AdInfo, MatchType, QueryStats};
use broadmatch_net::wire::{
    self, ErrorCode, ErrorReply, Frame, Opcode, QueryReply, Request, Response, MAGIC, WIRE_VERSION,
};
use broadmatch_rng::{Pcg32, RandomSource};
use broadmatch_serve::UpdateOp;

fn valid_frames() -> Vec<Frame> {
    let requests = [
        Request::Query {
            text: "cheap used books online".into(),
            match_type: MatchType::Broad,
        },
        Request::Insert {
            phrase: "quantum mechanics books".into(),
            info: AdInfo::with_bid(42, 125),
        },
        Request::Remove {
            phrase: "used books".into(),
            listing_id: 7,
        },
        Request::Compact,
        Request::Metrics,
        Request::Health,
        Request::OplogSubscribe {
            from_seq: 12,
            max_ops: 256,
        },
    ];
    let responses = [
        (
            Response::Query(QueryReply {
                hits: Vec::new(),
                stats: QueryStats::default(),
                version: 3,
            }),
            Opcode::Query,
        ),
        (Response::Insert { ad: 9, seq: 4 }, Opcode::Insert),
        (
            Response::Oplog {
                ops: vec![
                    UpdateOp::Insert {
                        phrase: "a b c".into(),
                        info: AdInfo::with_bid(1, 10),
                    },
                    UpdateOp::Remove {
                        phrase: "a b c".into(),
                        listing_id: 1,
                    },
                ],
                next_seq: 2,
                head_seq: 2,
                base_epoch: 0,
            },
            Opcode::OplogSubscribe,
        ),
        (
            Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                retry_after_micros: 900,
                detail: "queue full".into(),
            }),
            Opcode::Query,
        ),
        (
            Response::Metrics {
                text: "# HELP a b\na 1\n".into(),
            },
            Opcode::Metrics,
        ),
    ];
    let mut frames: Vec<Frame> = requests.iter().map(|r| r.to_frame(7)).collect();
    frames.extend(responses.iter().map(|(r, op)| r.to_frame(*op, 8)));
    frames
}

/// Decoding must be deterministic and, when it succeeds, canonical:
/// re-encoding the decoded frame reproduces bytes that decode to the
/// same frame (the payload parse is additionally exercised when the
/// opcode admits one).
fn check_total(bytes: &[u8]) {
    // Rejection (`Err`) is a valid outcome; panicking is not.
    if let Ok((frame, used)) = wire::decode_frame(bytes) {
        assert!(used <= bytes.len());
        let mut re = Vec::new();
        wire::encode_frame(&frame, &mut re);
        let (again, _) = wire::decode_frame(&re).expect("re-encoded frame decodes");
        assert_eq!(again, frame);
        // Payload parsers must be total too.
        if frame.flags & wire::flags::RESPONSE == 0 {
            let _ = Request::from_frame(&frame);
        } else {
            let _ = Response::from_frame(&frame);
        }
    }
}

#[test]
fn random_buffers_never_panic_the_decoder() {
    let mut rng = Pcg32::seed_from_u64(0xF0AA_u64 ^ 0xDEAD_BEEF);
    for round in 0..4000 {
        let len = (rng.next_u32() % 96) as usize;
        let mut buf: Vec<u8> = (0..len).map(|_| (rng.next_u32() & 0xFF) as u8).collect();
        check_total(&buf);
        // Seed plausible prefixes so the fuzz reaches past the magic and
        // version checks on a good fraction of rounds.
        if buf.len() >= 5 && round % 2 == 0 {
            buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
            buf[4] = WIRE_VERSION;
            check_total(&buf);
        }
    }
}

#[test]
fn mutated_valid_frames_never_panic_the_decoder() {
    let mut rng = Pcg32::seed_from_u64(2026);
    for frame in valid_frames() {
        let mut bytes = Vec::new();
        wire::encode_frame(&frame, &mut bytes);
        // Single-byte corruptions at every offset.
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 1 << (rng.next_u32() % 8);
            check_total(&m);
        }
        // Every truncation point.
        for cut in 0..bytes.len() {
            check_total(&bytes[..cut]);
        }
        // Random splices of two frames.
        for _ in 0..50 {
            let cut = (rng.next_u32() as usize) % bytes.len();
            let mut m = bytes[..cut].to_vec();
            m.extend_from_slice(&bytes[bytes.len() - cut..]);
            check_total(&m);
        }
    }
}

#[test]
fn oversize_declarations_are_rejected_without_allocation() {
    // A header declaring a payload just over the cap must be rejected by
    // the header check (the slice is only HEADER_LEN long, so an attempt
    // to honor the length would fail loudly).
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC.to_le_bytes());
    bytes.push(WIRE_VERSION);
    bytes.push(0x06); // Health
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&(wire::MAX_PAYLOAD + 1).to_le_bytes());
    assert_eq!(
        wire::decode_frame(&bytes),
        Err(wire::WireError::PayloadTooLarge(wire::MAX_PAYLOAD + 1))
    );
}
