//! Property tests pinning the `ampc_dds::proto` wire format.
//!
//! Every `Request` / `Reply` variant must round-trip through the byte codec
//! for arbitrary payloads (batches, epoch ids, shard maps, epoch frames),
//! and malformed frames — truncated at any byte, oversized, carrying
//! unknown tags or trailing garbage — must be rejected with a typed error,
//! never a panic or a bogus decode.

use ampc_dds::proto::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
    EpochFrame, OwnerSlice, ProtoError, Reply, Request, ShardFrame, ShardMap, MAX_FRAME_BYTES,
};
use ampc_dds::{Key, KeyTag, Value};
use proptest::prelude::*;

fn arbitrary_key() -> impl Strategy<Value = Key> {
    (0u32..8, any::<u64>(), 0u64..16).prop_map(|(tag, a, b)| Key {
        tag: KeyTag::from_code(tag),
        a,
        b,
    })
}

fn arbitrary_value() -> impl Strategy<Value = Value> {
    (any::<u64>(), any::<u64>()).prop_map(|(x, y)| Value { x, y })
}

fn arbitrary_pairs() -> impl Strategy<Value = Vec<(Key, Value)>> {
    proptest::collection::vec((arbitrary_key(), arbitrary_value()), 0..20)
}

fn arbitrary_entries() -> impl Strategy<Value = Vec<(Key, Vec<Value>)>> {
    proptest::collection::vec(
        (
            arbitrary_key(),
            proptest::collection::vec(arbitrary_value(), 1..5),
        ),
        0..12,
    )
}

fn arbitrary_request() -> impl Strategy<Value = Request> {
    (
        0u32..6,
        0u64..1_000_000,
        any::<u64>(),
        proptest::collection::vec((0usize..64, arbitrary_pairs()), 0..6),
    )
        .prop_map(|(variant, epoch, seq, batches)| match variant {
            0 => Request::Commit {
                epoch: epoch as usize,
                seq,
                batches,
            },
            1 => Request::FreezeEpoch {
                epoch: epoch as usize,
            },
            2 => Request::Lease {
                session: seq,
                worker: epoch % 64,
                num_shards: (epoch % 1024).max(1),
                workers: (seq % 64).max(1),
                ttl_ms: epoch,
                generation: seq.rotate_left(7),
            },
            3 => Request::Goodbye,
            4 => Request::PublishEpoch {
                epoch: epoch as usize,
            },
            _ => Request::TotalWrites,
        })
}

/// Derive a shard map deterministically from one seed so the reply strategy
/// stays within the compat-proptest tuple arity while still covering `None`,
/// empty maps, multi-owner maps, and non-ASCII-boring endpoints.
fn shard_map_from(seed: u64) -> Option<ShardMap> {
    if seed.is_multiple_of(3) {
        return None;
    }
    let owners = seed % 5;
    let span = 1 + seed % 7;
    Some(ShardMap {
        epoch: seed.rotate_left(17),
        owners: (0..owners)
            .map(|i| OwnerSlice {
                endpoint: format!("[::{i}]:{}", 7000 + seed % 100),
                start: i * span,
                end: (i + 1) * span,
            })
            .collect(),
    })
}

fn arbitrary_frame() -> impl Strategy<Value = EpochFrame> {
    proptest::collection::vec(
        (any::<u64>(), arbitrary_entries())
            .prop_map(|(writes, entries)| ShardFrame { writes, entries }),
        0..5,
    )
    .prop_map(|shards| EpochFrame { shards })
}

fn arbitrary_reply() -> impl Strategy<Value = Reply> {
    (0u32..5, 0u64..1_000_000, any::<u64>(), arbitrary_frame()).prop_map(
        |(variant, epoch, count, frame)| match variant {
            0 => Reply::Committed {
                epoch: epoch as usize,
                accepted: count,
            },
            1 => Reply::Epoch(frame),
            2 => Reply::LeaseGranted {
                session: count,
                ttl_ms: epoch,
                resumed: count % 2 == 0,
                shard_map: shard_map_from(count),
            },
            3 => Reply::EpochFrozen {
                epoch: epoch as usize,
            },
            _ => Reply::TotalWrites(count),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Every request round-trips byte-exactly, and framing it through the
    /// length-prefixed stream returns the identical payload.
    #[test]
    fn requests_round_trip(request in arbitrary_request()) {
        let payload = encode_request(&request);
        prop_assert_eq!(decode_request(&payload), Ok(request));

        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("framing an in-range payload");
        let mut reader: &[u8] = &wire;
        let mut scratch = Vec::new();
        read_frame(&mut reader, &mut scratch).expect("reading the frame back");
        prop_assert_eq!(scratch, payload);
        prop_assert!(reader.is_empty());
    }

    /// Every reply round-trips byte-exactly, including full epoch frames.
    #[test]
    fn replies_round_trip(reply in arbitrary_reply()) {
        let payload = encode_reply(&reply);
        prop_assert_eq!(decode_reply(&payload), Ok(reply));
    }

    /// Chopping any suffix off an encoded request must fail the decode —
    /// no prefix of a valid message is itself a valid message.
    #[test]
    fn truncated_requests_are_rejected(request in arbitrary_request(), cut in any::<u64>()) {
        let payload = encode_request(&request);
        let len = (cut as usize) % payload.len();
        prop_assert!(decode_request(&payload[..len]).is_err());
    }

    /// Same for replies.
    #[test]
    fn truncated_replies_are_rejected(reply in arbitrary_reply(), cut in any::<u64>()) {
        let payload = encode_reply(&reply);
        let len = (cut as usize) % payload.len();
        prop_assert!(decode_reply(&payload[..len]).is_err());
    }

    /// Trailing garbage after a valid message is rejected, with the typed
    /// error naming the number of leftover bytes.
    #[test]
    fn trailing_bytes_are_rejected(request in arbitrary_request(), extra in 1usize..9) {
        let mut payload = encode_request(&request);
        payload.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(
            decode_request(&payload),
            Err(ProtoError::Trailing { remaining: extra })
        );
    }
}

#[test]
fn oversized_frames_are_rejected_without_allocating() {
    // A hostile length prefix just under u32::MAX must be rejected by the
    // cap check alone — read_frame returns InvalidData before touching (or
    // allocating) the payload.
    for len in [MAX_FRAME_BYTES + 1, u32::MAX as usize] {
        let header = (len as u32).to_le_bytes();
        let mut reader: &[u8] = &header;
        let mut scratch = Vec::new();
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        assert!(scratch.capacity() < 4096, "scratch must stay unallocated");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {len}");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    // And the writer refuses to produce such a frame in the first place.
    let oversized = vec![0u8; MAX_FRAME_BYTES + 1];
    let mut sink = Vec::new();
    let err = write_frame(&mut sink, &oversized).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(sink.is_empty(), "nothing may hit the wire");
}

#[test]
fn frames_cut_mid_payload_are_unexpected_eof() {
    let payload = encode_request(&Request::FreezeEpoch { epoch: 3 });
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut scratch = Vec::new();
    for len in 0..wire.len() {
        let mut reader = &wire[..len];
        let err = read_frame(&mut reader, &mut scratch).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "prefix of {len} bytes"
        );
    }
}
