//! Property tests for the mux wire codec: the reactor write path emits
//! `hello + records`, the kernel is free to split that stream at any byte
//! boundary (partial writes / short reads), and the reader must reassemble
//! bit-identical frames regardless of where the cuts land.

use pgrid_reactor::mux::{
    encode_record, hello, parse_hello, MuxError, MuxReader, HELLO_LEN, KIND_RAW, RECORD_HEADER,
};
use pgrid_transport::frame::MAX_FRAME_BYTES;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a batch of (dest, frame) pairs mixing short noise with longer
/// run-heavy payloads.
fn arbitrary_frames(rng: &mut StdRng, max: usize) -> Vec<(u64, Vec<u8>)> {
    let count = rng.gen_range(1..=max);
    (0..count)
        .map(|_| {
            let dest: u64 = rng.gen();
            let frame = if rng.gen_bool(0.5) {
                let len = rng.gen_range(0..300);
                (0..len).map(|_| rng.gen()).collect()
            } else {
                vec![rng.gen::<u8>(); rng.gen_range(513..2048)]
            };
            (dest, frame)
        })
        .collect()
}

/// Encodes a full sender-side stream exactly as the event loop would:
/// a hello followed by one record per frame.
fn encode_stream(frames: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut stream = Vec::new();
    stream.extend_from_slice(&hello());
    for (dest, frame) in frames {
        encode_record(&mut stream, KIND_RAW, *dest, frame);
    }
    stream
}

/// Feeds `stream` into a reader in chunks cut at `splits`, returning every
/// decoded record in order.
fn decode_split(stream: &[u8], splits: &[usize]) -> Vec<(u64, Vec<u8>)> {
    let mut reader = MuxReader::new();
    let mut out = Vec::new();
    let mut cuts: Vec<usize> = splits.iter().map(|s| s % (stream.len() + 1)).collect();
    cuts.push(stream.len());
    cuts.sort_unstable();
    let mut start = 0;
    let mut saw_hello = false;
    for cut in cuts {
        if cut > start {
            reader.extend(&stream[start..cut]);
            start = cut;
        }
        if !saw_hello {
            match reader.take_hello().expect("hello must parse") {
                Some(_flags) => saw_hello = true,
                None => continue,
            }
        }
        while let Some((_kind, dest, payload)) = reader.next_record().expect("records must parse") {
            out.push((dest, payload.as_slice().to_vec()));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Arbitrary split positions reassemble the exact frames in the exact
    // order.
    #[test]
    fn partial_writes_reassemble_identical_frames(
        seed in any::<u64>(),
        splits in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames = arbitrary_frames(&mut rng, 12);
        let stream = encode_stream(&frames);
        let decoded = decode_split(&stream, &splits);
        prop_assert_eq!(decoded, frames);
    }

    // Byte-at-a-time delivery — the worst partial write the kernel can
    // inflict — still yields identical frames.
    #[test]
    fn single_byte_trickle_reassembles(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames = arbitrary_frames(&mut rng, 4);
        let stream = encode_stream(&frames);
        let every_byte: Vec<usize> = (0..stream.len()).collect();
        let decoded = decode_split(&stream, &every_byte);
        prop_assert_eq!(decoded, frames);
    }

    // The read cursor is invisible from outside: after every `extend`,
    // `take_hello` and `next_record` step, `buffered()` is exactly the
    // bytes fed minus the bytes those calls consumed.
    #[test]
    fn buffered_is_bytes_fed_minus_bytes_consumed(
        seed in any::<u64>(),
        splits in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = encode_stream(&arbitrary_frames(&mut rng, 12));
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut reader = MuxReader::new();
        let (mut fed, mut consumed, mut saw_hello) = (0, 0, false);
        for cut in cuts {
            reader.extend(&stream[fed..cut]);
            fed = cut;
            prop_assert_eq!(reader.buffered(), fed - consumed);
            if !saw_hello {
                saw_hello = reader.take_hello().expect("hello must parse").is_some();
                consumed += if saw_hello { HELLO_LEN } else { 0 };
                prop_assert_eq!(reader.buffered(), fed - consumed);
            }
            if !saw_hello {
                continue;
            }
            while let Some((_, _, payload)) = reader.next_record().expect("records must parse") {
                consumed += RECORD_HEADER + payload.len();
                prop_assert_eq!(reader.buffered(), fed - consumed);
            }
            prop_assert_eq!(reader.buffered(), fed - consumed);
        }
        prop_assert_eq!(consumed, stream.len());
    }

    // Arbitrary bytes at arbitrary chunking: the reader never panics, never
    // yields a record longer than the bytes it was fed, reports a bad kind
    // or an oversized length as exactly that, and otherwise consumes what
    // it yields and nothing more.
    #[test]
    fn arbitrary_streams_never_panic_and_never_yield_more_than_was_fed(
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        splits in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        // Honest records first, so the garbage is met mid-stream too; half
        // the time its first byte is a valid kind, so the length field is
        // what gets judged.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::new();
        for (dest, frame) in arbitrary_frames(&mut rng, 3) {
            encode_record(&mut stream, KIND_RAW, dest, &frame);
        }
        if rng.gen_bool(0.5) {
            stream.push(KIND_RAW);
        }
        stream.extend(noise);
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut reader = MuxReader::new();
        let (mut fed, mut consumed) = (0, 0);
        'feed: for cut in cuts {
            reader.extend(&stream[fed..cut]);
            fed = cut;
            loop {
                // What the reader is looking at, read independently.
                let head = &stream[consumed..fed];
                match reader.next_record() {
                    Ok(Some((kind, dest, payload))) => {
                        prop_assert_eq!(kind, KIND_RAW);
                        prop_assert!(RECORD_HEADER + payload.len() <= head.len());
                        prop_assert_eq!(&dest.to_be_bytes()[..], &head[1..9]);
                        prop_assert_eq!(
                            payload.as_slice(),
                            &head[RECORD_HEADER..RECORD_HEADER + payload.len()]
                        );
                        consumed += RECORD_HEADER + payload.len();
                        prop_assert_eq!(reader.buffered(), fed - consumed);
                    }
                    Ok(None) => {
                        prop_assert_eq!(reader.buffered(), fed - consumed);
                        break;
                    }
                    Err(MuxError::BadKind(kind)) => {
                        prop_assert!(head.len() >= RECORD_HEADER);
                        prop_assert_eq!(kind, head[0]);
                        prop_assert_ne!(kind, KIND_RAW);
                        break 'feed;
                    }
                    Err(MuxError::Oversized(len)) => {
                        let field: [u8; 4] = head[9..13].try_into().unwrap();
                        prop_assert_eq!(len, u32::from_be_bytes(field) as usize);
                        prop_assert!(len > MAX_FRAME_BYTES + 4);
                        break 'feed;
                    }
                    Err(other) => prop_assert!(false, "a record error of the hello: {other}"),
                }
            }
        }
    }

    // Whatever the reserved flags byte carries, a hello with the right
    // magic and version parses and hands the byte back.
    #[test]
    fn hello_roundtrips(flags in any::<u8>()) {
        let mut bytes = hello();
        bytes[5] = flags;
        prop_assert_eq!(parse_hello(&bytes), Ok(flags));
    }

    // Corrupting the magic or version is rejected, never mis-parsed.
    #[test]
    fn corrupt_hellos_are_rejected(pos in 0usize..5, delta in 1u8..=255) {
        let mut bytes = hello();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let mut reader = MuxReader::new();
        reader.extend(&bytes);
        prop_assert!(reader.take_hello().is_err());
    }
}

/// A 1 MiB stream of the benchmark's 207-byte records parses to the same
/// records whether it arrives in the event loop's 64 KiB reads (≈316
/// records per `extend`, most chunks ending mid-record) or byte by byte.
#[test]
fn socket_sized_chunks_parse_like_a_byte_trickle() {
    let frames: Vec<(u64, Vec<u8>)> = (0..(1usize << 20) / 207)
        .map(|i| (i as u64, (0..194).map(|j| (i * 31 + j) as u8).collect()))
        .collect();
    let stream = encode_stream(&frames);
    let chunked: Vec<usize> = (0..stream.len()).step_by(64 << 10).collect();
    let trickled: Vec<usize> = (0..stream.len()).collect();
    let by_chunk = decode_split(&stream, &chunked);
    assert_eq!(by_chunk.len(), frames.len());
    assert!(by_chunk == frames, "64 KiB chunks changed a record");
    assert!(decode_split(&stream, &trickled) == by_chunk);
}

/// The bytes of one record, spelled out: kind, big-endian destination,
/// big-endian payload length, payload.  A refactor of the mux codec leaves
/// them as they are.
#[test]
fn record_bytes_are_pinned() {
    let mut wire = vec![0xEE];
    encode_record(&mut wire, KIND_RAW, 0x0102_0304_0506_0708, b"pgrid");
    assert_eq!(
        wire,
        [0xEE, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 5, b'p', b'g', b'r', b'i', b'd']
    );
    let mut reader = MuxReader::new();
    reader.extend(&wire[1..]);
    let (kind, dest, payload) = reader.next_record().unwrap().unwrap();
    assert_eq!((kind, dest), (KIND_RAW, 0x0102_0304_0506_0708));
    assert_eq!(payload.as_slice(), b"pgrid");
}
