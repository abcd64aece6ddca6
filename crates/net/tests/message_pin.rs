//! Pins the bytes of the peer protocol.
//!
//! One seeded message of every [`Message`] kind and every
//! [`ExchangeOutcome`] is encoded, and an FNV-1a hash over the encodings
//! is compared with a constant recorded once.  The entry lists are drawn
//! at 0, 1, 63, 64, 65 and 200 entries, so a codec that works on blocks
//! of entries is checked on both sides of every block boundary.  A change
//! to the codec that is not meant to move a wire byte must leave this test
//! green without touching its constant.

use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_net::message::{ExchangeOutcome, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FNV-1a hash of the encodings, each preceded by its length.
const PINNED: u64 = 3_092_797_443_812_290_622;

/// Entry-list lengths that straddle the codec's block boundaries.
const LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 200];

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

fn path(rng: &mut StdRng) -> Path {
    (0..rng.gen_range(0..=20)).fold(Path::root(), |path, _| path.child(rng.gen_bool(0.5)))
}

fn entries(rng: &mut StdRng, n: usize) -> Vec<DataEntry> {
    (0..n)
        .map(|_| DataEntry::new(Key(rng.gen()), DataId(rng.gen())))
        .collect()
}

fn peers(rng: &mut StdRng, n: usize) -> Vec<PeerId> {
    (0..n).map(|_| PeerId(rng.gen())).collect()
}

/// Every message kind once, every entry list at every length of
/// [`LENGTHS`], every outcome of an exchange, and a trace envelope around
/// a query and around an exchange.
fn messages() -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0040);
    let rng = &mut rng;
    let mut all = vec![
        Message::Join {
            peer: PeerId(rng.gen()),
        },
        Message::JoinAck {
            neighbours: peers(rng, 5),
        },
    ];
    for n in LENGTHS {
        all.push(Message::Replicate {
            entries: entries(rng, n),
        });
        all.push(Message::Exchange {
            from: PeerId(rng.gen()),
            path: path(rng),
            entries: entries(rng, n),
        });
        let outcomes = [
            ExchangeOutcome::Split {
                partition: path(rng),
                initiator_bit: rng.gen_bool(0.5),
                entries: entries(rng, n),
                complement: None,
            },
            ExchangeOutcome::Split {
                partition: path(rng),
                initiator_bit: rng.gen_bool(0.5),
                entries: entries(rng, n),
                complement: Some((PeerId(rng.gen()), path(rng))),
            },
            ExchangeOutcome::Replicate {
                entries: entries(rng, n),
            },
        ];
        for outcome in outcomes {
            all.push(Message::ExchangeReply {
                from: PeerId(rng.gen()),
                path: path(rng),
                outcome,
            });
        }
        all.push(Message::QueryResponse {
            id: rng.gen(),
            entries: entries(rng, n),
            hops: rng.gen_range(0..64),
            found: rng.gen_bool(0.5),
        });
        all.push(Message::RangeResponse {
            id: rng.gen(),
            from: Key(rng.gen()),
            upto: Key(rng.gen()),
            entries: entries(rng, n),
            hops: rng.gen_range(0..2048),
        });
        all.push(Message::ReplicaPush {
            path: path(rng),
            entries: entries(rng, n),
            routing: (0..3)
                .map(|_| (rng.gen_range(0..20), PeerId(rng.gen()), path(rng)))
                .collect(),
            replicas: peers(rng, 2),
        });
    }
    for outcome in [
        ExchangeOutcome::Refer {
            peer: PeerId(rng.gen()),
            path: path(rng),
        },
        ExchangeOutcome::Nothing,
    ] {
        all.push(Message::ExchangeReply {
            from: PeerId(rng.gen()),
            path: path(rng),
            outcome,
        });
    }
    let query = Message::Query {
        origin: PeerId(rng.gen()),
        id: rng.gen(),
        key: Key(rng.gen()),
        hops: rng.gen_range(0..64),
    };
    let exchange = Message::Exchange {
        from: PeerId(rng.gen()),
        path: path(rng),
        entries: entries(rng, 65),
    };
    all.extend([
        query.clone(),
        Message::RangeQuery {
            origin: PeerId(rng.gen()),
            id: rng.gen(),
            lo: Key(rng.gen()),
            hi: Key(rng.gen()),
            cursor: Key(rng.gen()),
            hops: rng.gen_range(0..2048),
        },
        Message::ReplicaPull {
            origin: PeerId(rng.gen()),
        },
        Message::Traced {
            trace_id: rng.gen_range(1..=u64::MAX),
            inner: Box::new(query),
        },
        Message::Traced {
            trace_id: rng.gen_range(1..=u64::MAX),
            inner: Box::new(exchange),
        },
    ]);
    all
}

#[test]
fn message_bytes_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for message in messages() {
        let encoded = message.encode();
        assert_eq!(message.wire_size(), encoded.len(), "{message:?}");
        assert_eq!(
            Message::decode_slice(encoded.as_slice()).as_ref(),
            Some(&message)
        );
        fnv(&mut hash, &(encoded.len() as u64).to_le_bytes());
        fnv(&mut hash, encoded.as_slice());
    }
    assert_eq!(hash, PINNED, "a wire byte of the peer protocol moved");
}
