//! Property tests for the wire codec and the transport framing: every
//! message variant must survive encode → frame → (split) → deframe →
//! decode, malformed/truncated bytes must be rejected without panics, and
//! the borrowed-slice entry points (`Message::decode_slice`,
//! `frame::payload_slices`, `frame::write_frame`) must agree with the
//! owned-type ones on every input.

use bytes::Bytes;
use pgrid::core::key::{DataEntry, DataId, Key};
use pgrid::core::path::Path;
use pgrid::core::routing::PeerId;
use pgrid::net::message::{ExchangeOutcome, Message};
use pgrid::transport::frame::{
    decode_frame, encode_frame, payload_slices, write_frame, FrameReader,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arbitrary_path(rng: &mut StdRng) -> Path {
    let len = rng.gen_range(0..=12);
    let mut path = Path::root();
    for _ in 0..len {
        path = path.child(rng.gen_bool(0.5));
    }
    path
}

fn arbitrary_entries(rng: &mut StdRng) -> Vec<DataEntry> {
    (0..rng.gen_range(0..20))
        .map(|_| DataEntry::new(Key(rng.gen()), DataId(rng.gen())))
        .collect()
}

fn arbitrary_outcome(rng: &mut StdRng) -> ExchangeOutcome {
    match rng.gen_range(0..4) {
        0 => ExchangeOutcome::Split {
            partition: arbitrary_path(rng),
            initiator_bit: rng.gen_bool(0.5),
            entries: arbitrary_entries(rng),
            complement: rng
                .gen_bool(0.5)
                .then(|| (PeerId(rng.gen()), arbitrary_path(rng))),
        },
        1 => ExchangeOutcome::Replicate {
            entries: arbitrary_entries(rng),
        },
        2 => ExchangeOutcome::Refer {
            peer: PeerId(rng.gen()),
            path: arbitrary_path(rng),
        },
        _ => ExchangeOutcome::Nothing,
    }
}

/// Number of shapes [`arbitrary_message`] cycles through: the eleven plain
/// message kinds, then the trace envelope.
const SHAPES: u8 = 12;

/// One random message; `variant` cycles so every shape is exercised no
/// matter what the seed draws.
fn arbitrary_message(variant: u8, rng: &mut StdRng) -> Message {
    match variant % SHAPES {
        0 => Message::Join {
            peer: PeerId(rng.gen()),
        },
        1 => Message::JoinAck {
            neighbours: (0..rng.gen_range(0..16))
                .map(|_| PeerId(rng.gen()))
                .collect(),
        },
        2 => Message::Replicate {
            entries: arbitrary_entries(rng),
        },
        3 => Message::Exchange {
            from: PeerId(rng.gen()),
            path: arbitrary_path(rng),
            entries: arbitrary_entries(rng),
        },
        4 => Message::ExchangeReply {
            from: PeerId(rng.gen()),
            path: arbitrary_path(rng),
            outcome: arbitrary_outcome(rng),
        },
        5 => Message::Query {
            origin: PeerId(rng.gen()),
            id: rng.gen(),
            key: Key(rng.gen()),
            hops: rng.gen_range(0..64),
        },
        6 => Message::QueryResponse {
            id: rng.gen(),
            entries: arbitrary_entries(rng),
            hops: rng.gen_range(0..64),
            found: rng.gen_bool(0.5),
        },
        7 => Message::RangeQuery {
            origin: PeerId(rng.gen()),
            id: rng.gen(),
            lo: Key(rng.gen()),
            hi: Key(rng.gen()),
            cursor: Key(rng.gen()),
            hops: rng.gen_range(0..2048),
        },
        8 => Message::RangeResponse {
            id: rng.gen(),
            from: Key(rng.gen()),
            upto: Key(rng.gen()),
            entries: arbitrary_entries(rng),
            hops: rng.gen_range(0..2048),
        },
        9 => Message::ReplicaPull {
            origin: PeerId(rng.gen()),
        },
        10 => Message::ReplicaPush {
            path: arbitrary_path(rng),
            entries: arbitrary_entries(rng),
            routing: (0..rng.gen_range(0..8))
                .map(|_| (rng.gen_range(0..12), PeerId(rng.gen()), arbitrary_path(rng)))
                .collect(),
            replicas: (0..rng.gen_range(0..6))
                .map(|_| PeerId(rng.gen()))
                .collect(),
        },
        _ => Message::Traced {
            trace_id: rng.gen_range(1..=u64::MAX),
            inner: Box::new(arbitrary_message(rng.gen_range(0..11), rng)),
        },
    }
}

fn arbitrary_batch(seed: u64, count: usize) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| arbitrary_message(i as u8, &mut rng))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

    #[test]
    fn every_message_variant_roundtrips(seed in any::<u64>(), variant in 0u8..SHAPES) {
        let mut rng = StdRng::seed_from_u64(seed);
        let message = arbitrary_message(variant, &mut rng);
        let encoded = message.encode();
        prop_assert_eq!(message.wire_size(), encoded.len());
        prop_assert_eq!(Message::decode_slice(encoded.as_slice()), Some(message.clone()));
        prop_assert_eq!(Message::decode(encoded), Some(message));
    }

    #[test]
    fn both_decoders_agree_on_damaged_encodings(
        seed in any::<u64>(),
        variant in 0u8..SHAPES,
        flip in any::<u32>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let message = arbitrary_message(variant, &mut rng);
        let valid = message.encode().as_slice().to_vec();
        // Every truncation is rejected (nothing may follow or be missing).
        for keep in 0..valid.len() {
            prop_assert_eq!(Message::decode_slice(&valid[..keep]), None);
            prop_assert_eq!(Message::decode(Bytes::from(&valid[..keep])), None);
        }
        // A flipped bit decodes to something or to nothing, identically.
        let mut damaged = valid;
        let bit = flip as usize % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        let by_slice = Message::decode_slice(&damaged);
        prop_assert_eq!(&by_slice, &Message::decode(Bytes::from(damaged.as_slice())));
        if let Some(decoded) = by_slice {
            prop_assert_eq!(decoded.encode().len(), damaged.len());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        tag in 0u8..16,
    ) {
        prop_assert_eq!(
            Message::decode_slice(&bytes),
            Message::decode(Bytes::from(bytes.as_slice()))
        );
        // Random first bytes rarely name a message; force each tag too.
        let mut tagged = bytes;
        tagged.insert(0, tag);
        prop_assert_eq!(
            Message::decode_slice(&tagged),
            Message::decode(Bytes::from(tagged.as_slice()))
        );
    }

    #[test]
    fn slice_framing_equals_owned_framing(
        seed in any::<u64>(),
        count in 0usize..12,
        damage in any::<u32>(),
    ) {
        let batch = arbitrary_batch(seed, count);
        let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
        let frame = encode_frame(&payloads);
        // One layout: the writer appends, byte for byte, what encode_frame
        // builds — also behind bytes that are already in the buffer.
        let mut written = vec![0xEE; 3];
        write_frame(&mut written, payloads.iter().map(Bytes::as_slice));
        prop_assert_eq!(&written[3..], frame.as_slice());
        // One validator: same verdict and same payloads on the intact
        // frame, a truncation, an extension and a flipped bit.
        let mut cases = vec![frame.as_slice().to_vec()];
        cases.push(frame.as_slice()[..damage as usize % frame.len()].to_vec());
        cases.push([frame.as_slice(), &[0]].concat());
        let mut flipped = frame.as_slice().to_vec();
        let bit = damage as usize % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        cases.push(flipped);
        for bytes in cases {
            let owned = decode_frame(&Bytes::from(bytes.as_slice()));
            match payload_slices(&bytes) {
                Ok(slices) => {
                    let owned = owned.expect("payload_slices accepted the frame");
                    prop_assert_eq!(slices.len(), owned.len());
                    for (slice, payload) in slices.zip(&owned) {
                        prop_assert_eq!(slice, payload.as_slice());
                    }
                }
                Err(error) => prop_assert_eq!(owned, Err(error)),
            }
        }
    }

    #[test]
    fn multi_message_batches_roundtrip_through_frames(seed in any::<u64>(), count in 0usize..12) {
        let batch = arbitrary_batch(seed, count);
        let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
        let frame = encode_frame(&payloads);
        let recovered = decode_frame(&frame).expect("own frames must decode");
        prop_assert_eq!(recovered.len(), batch.len());
        for (payload, original) in recovered.into_iter().zip(&batch) {
            let decoded = Message::decode(payload);
            prop_assert_eq!(decoded.as_ref(), Some(original));
        }
    }

    #[test]
    fn frames_split_at_arbitrary_boundaries_reassemble(
        seed in any::<u64>(),
        frames in 1usize..5,
        chunk in 1usize..97,
    ) {
        let mut stream = Vec::new();
        let mut sent = Vec::new();
        for f in 0..frames {
            let batch = arbitrary_batch(seed.wrapping_add(f as u64), f + 1);
            let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
            let frame = encode_frame(&payloads);
            stream.extend_from_slice(frame.as_slice());
            sent.push(batch);
        }
        let mut reader = FrameReader::new();
        let mut received = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.extend(piece);
            while let Some(frame) = reader.next_frame().expect("valid stream") {
                let batch: Vec<Message> = decode_frame(&frame)
                    .expect("complete frame")
                    .into_iter()
                    .map(|p| Message::decode(p).expect("valid payload"))
                    .collect();
                received.push(batch);
            }
        }
        prop_assert_eq!(reader.buffered(), 0);
        prop_assert_eq!(received, sent);
    }

    #[test]
    fn truncated_frames_are_incomplete_never_garbage(seed in any::<u64>(), keep in 0usize..64) {
        let batch = arbitrary_batch(seed, 3);
        let payloads: Vec<Bytes> = batch.iter().map(Message::encode).collect();
        let frame = encode_frame(&payloads);
        let keep = keep.min(frame.len().saturating_sub(1));
        // decode_frame on a truncated frame must error out, not panic.
        let truncated = Bytes::from(&frame.as_slice()[..keep]);
        prop_assert!(decode_frame(&truncated).is_err());
        // The incremental reader must simply wait for the rest.
        let mut reader = FrameReader::new();
        reader.extend(truncated.as_slice());
        prop_assert_eq!(reader.next_frame().expect("prefix of a valid frame"), None);
        reader.extend(&frame.as_slice()[keep..]);
        prop_assert_eq!(reader.next_frame().expect("now complete"), Some(frame));
    }
}
