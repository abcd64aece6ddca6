//! Property tests for the wire codec and the transport framing: every
//! message variant must survive encode → frame → (split) → deframe →
//! decode, malformed/truncated bytes must be rejected without panics, the
//! borrowed-slice entry points (`Message::decode_slice`,
//! `frame::payload_slices`, `frame::write_frame`) must agree with the
//! owned-type ones on every input, the bulk entry-list kernel must write
//! and read what a per-entry codec does, and the runtime's validated view
//! of an arrived payload (`Arrived::decode`) must accept exactly what
//! `Message::decode_slice` accepts and read the same fields.

use bytes::Bytes;
use pgrid::core::key::{DataEntry, DataId, Key};
use pgrid::core::path::Path;
use pgrid::core::routing::PeerId;
use pgrid::core::wire::{Be, Entries, Le, Order, Wire, ENTRY_BYTES};
use pgrid::net::message::{Arrived, ExchangeOutcome, Message};
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
    match rng.gen_range(0..5) {
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
        3 => ExchangeOutcome::Want {
            path: arbitrary_path(rng),
        },
        _ => ExchangeOutcome::Nothing,
    }
}

/// Number of shapes [`arbitrary_message`] cycles through: the twelve plain
/// message kinds, then the trace envelope.
const SHAPES: u8 = 13;

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
        11 => Message::Offer {
            from: PeerId(rng.gen()),
            path: arbitrary_path(rng),
            count: rng.gen(),
            digest: rng.gen(),
        },
        _ => Message::Traced {
            trace_id: rng.gen_range(1..=u64::MAX),
            inner: Box::new(arbitrary_message(rng.gen_range(0..SHAPES - 1), rng)),
        },
    }
}

/// An `Exchange` with up to 200 entries, so lists cross the encoder's
/// 64-entry blocks; in a trace envelope when `traced`.
fn arbitrary_exchange(rng: &mut StdRng, traced: bool) -> Message {
    let exchange = Message::Exchange {
        from: PeerId(rng.gen()),
        path: arbitrary_path(rng),
        entries: (0..rng.gen_range(0..=200))
            .map(|_| DataEntry::new(Key(rng.gen()), DataId(rng.gen())))
            .collect(),
    };
    if traced {
        Message::Traced {
            trace_id: rng.gen_range(1..=u64::MAX),
            inner: Box::new(exchange),
        }
    } else {
        exchange
    }
}

/// The entry list as a per-entry codec writes it: the count, then each
/// entry's key and id as two integers.
fn put_entries_per_entry<O: Order>(buf: &mut Vec<u8>, entries: &[DataEntry]) {
    O::put_count(buf, entries.len());
    for entry in entries {
        O::put_u64(buf, entry.key.0);
        O::put_u64(buf, entry.id.0);
    }
}

/// The entry list as a per-entry codec reads it.
fn entries_per_entry<O: Order>(data: &mut &[u8], cap: usize) -> Option<Vec<DataEntry>> {
    let n = O::count(data, cap, ENTRY_BYTES)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = Key(O::u64(data)?);
        entries.push(DataEntry::new(key, DataId(O::u64(data)?)));
    }
    Some(entries)
}

/// The bulk kernel of the entry-list impls against the per-entry
/// reference in one byte order: the same bytes out, and the same entries
/// and cursor back from the intact list, from a truncation and with bytes
/// behind it.
fn bulk_matches_per_entry<O: Order>(entries: &[DataEntry], cut: usize) -> Result<(), String> {
    let mut bulk = vec![0xEE];
    <DataEntry as Wire<O>>::put_list(entries, &mut bulk);
    let mut reference = vec![0xEE];
    put_entries_per_entry::<O>(&mut reference, entries);
    if bulk != reference {
        return Err(format!("{} entries encode differently", entries.len()));
    }
    let wire = &reference[1..];
    let truncated = &wire[..cut % (wire.len() + 1)];
    let extended = [wire, &[7, 7, 7]].concat();
    for (input, cap) in [
        (wire, entries.len()),
        (wire, entries.len().saturating_sub(1)),
        (truncated, usize::MAX),
        (&extended[..], usize::MAX),
    ] {
        let (mut by_bulk, mut by_reference) = (input, input);
        let (bulk, reference) = (
            O::get_capped::<Vec<DataEntry>>(&mut by_bulk, cap),
            entries_per_entry::<O>(&mut by_reference, cap),
        );
        if bulk != reference || (bulk.is_some() && by_bulk != by_reference) {
            return Err(format!("{} entries read differently", entries.len()));
        }
        let view = O::get_capped::<Entries<'_, O>>(&mut { input }, cap).map(|view| view.to_vec());
        if view != reference {
            return Err(format!("{} entries viewed differently", entries.len()));
        }
    }
    Ok(())
}

/// The runtime's view and the owned decoder agree on `bytes`: both refuse
/// it, or both accept it and read the same message — an `Exchange`'s
/// sender, path and entries through the view.
fn view_agrees_with_decode_slice(bytes: &[u8]) -> Result<(), String> {
    let owned = Message::decode_slice(bytes);
    match (Arrived::decode(bytes), owned) {
        (None, None) => Ok(()),
        (
            Some(Arrived::Exchange {
                trace_id,
                from,
                path,
                entries,
            }),
            Some(message),
        ) => {
            let (inner, enveloped) = match message {
                Message::Traced { trace_id, inner } => (*inner, trace_id),
                bare => (bare, 0),
            };
            let Message::Exchange {
                from: owned_from,
                path: owned_path,
                entries: owned_entries,
            } = inner
            else {
                return Err(format!("the view read an exchange from {bytes:?}"));
            };
            let read: Vec<DataEntry> = entries.iter().collect();
            if (trace_id, from, path, entries.len(), read)
                != (
                    enveloped,
                    owned_from,
                    owned_path,
                    owned_entries.len(),
                    owned_entries,
                )
            {
                return Err(format!("the view misread {bytes:?}"));
            }
            Ok(())
        }
        (Some(Arrived::Message(viewed)), Some(message)) => {
            let exchange = |m: &Message| match m {
                Message::Traced { inner, .. } => matches!(**inner, Message::Exchange { .. }),
                m => matches!(m, Message::Exchange { .. }),
            };
            if viewed != message || exchange(&viewed) {
                return Err(format!("the view misread {bytes:?}"));
            }
            Ok(())
        }
        (viewed, owned) => Err(format!(
            "the view says {} and decode_slice {} on {bytes:?}",
            viewed.is_some(),
            owned.is_some()
        )),
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
    fn offers_and_wants_are_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        seed in any::<u64>(),
    ) {
        // The offer's tag, and a reply whose outcome tag is the want's,
        // each followed by whatever came: refused, or read as a message of
        // exactly that length (a path's bits past its length are not
        // kept, so the bytes themselves need not come back).
        let mut rng = StdRng::seed_from_u64(seed);
        let reply = Message::ExchangeReply {
            from: PeerId(rng.gen()),
            path: arbitrary_path(&mut rng),
            outcome: ExchangeOutcome::Nothing,
        }
        .encode();
        let mut want = reply.as_slice().to_vec();
        *want.last_mut().expect("an outcome tag") = 4;
        for head in [vec![13u8], want] {
            let mut input = head;
            input.extend(&bytes);
            let decoded = Message::decode_slice(&input);
            prop_assert_eq!(&decoded, &Message::decode(Bytes::from(input.as_slice())));
            prop_assert_eq!(view_agrees_with_decode_slice(&input), Ok(()));
            if let Some(message) = decoded {
                prop_assert_eq!(message.encode().len(), input.len());
            }
        }
    }

    #[test]
    fn bulk_entry_lists_equal_the_per_entry_codec(
        seed in any::<u64>(),
        len in 0usize..=200,
        cut in any::<usize>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<DataEntry> = (0..len)
            .map(|_| DataEntry::new(Key(rng.gen()), DataId(rng.gen())))
            .collect();
        prop_assert_eq!(bulk_matches_per_entry::<Be>(&entries, cut), Ok(()));
        prop_assert_eq!(bulk_matches_per_entry::<Le>(&entries, cut), Ok(()));
    }

    #[test]
    fn the_exchange_view_accepts_what_decode_slice_accepts(
        seed in any::<u64>(),
        variant in 0u8..SHAPES + 2,
        flip in any::<u32>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let message = match variant {
            SHAPES => arbitrary_exchange(&mut rng, false),
            v if v > SHAPES => arbitrary_exchange(&mut rng, true),
            v => arbitrary_message(v, &mut rng),
        };
        let valid = message.encode().as_slice().to_vec();
        prop_assert_eq!(view_agrees_with_decode_slice(&valid), Ok(()));
        for keep in 0..valid.len() {
            prop_assert_eq!(view_agrees_with_decode_slice(&valid[..keep]), Ok(()));
        }
        let mut damaged = valid;
        let bit = flip as usize % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(view_agrees_with_decode_slice(&damaged), Ok(()));
    }

    #[test]
    fn the_exchange_view_agrees_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        tag in 0u8..16,
    ) {
        prop_assert_eq!(view_agrees_with_decode_slice(&bytes), Ok(()));
        // Force each tag, and each tag inside a trace envelope.
        let mut tagged = bytes.clone();
        tagged.insert(0, tag);
        prop_assert_eq!(view_agrees_with_decode_slice(&tagged), Ok(()));
        let mut enveloped = vec![10, 0, 0, 0, 0, 0, 0, 0, 1, tag];
        enveloped.extend(&bytes);
        prop_assert_eq!(view_agrees_with_decode_slice(&enveloped), Ok(()));
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
