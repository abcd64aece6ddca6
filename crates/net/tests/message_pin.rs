//! Pins the bytes of the peer protocol.
//!
//! One seeded message of every [`Message`] kind and every
//! [`ExchangeOutcome`] is encoded, and an FNV-1a hash over the encodings
//! is compared with a constant recorded once.  The entry lists are drawn
//! at 0, 1, 63, 64, 65 and 200 entries, so a codec that works on blocks
//! of entries is checked on both sides of every block boundary.  The
//! `Offer` kind and the `Want` outcome are drawn after every older kind,
//! and the hash over the older kinds alone is pinned on its own: it is the
//! constant recorded before they existed.  A change to the codec that is
//! not meant to move a wire byte must leave this test green without
//! touching its constants.  Two literal encodings sit beside it: an
//! `Exchange` body, byte for byte as it was before the `Offer`, and the
//! 30-byte `Offer`.

use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_net::message::{ExchangeOutcome, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FNV-1a hash of the encodings, each preceded by its length.
const PINNED: u64 = 4_496_788_461_318_740_610;

/// The same hash over the kinds older than the `Offer` alone.
const PINNED_BEFORE_OFFER: u64 = 3_092_797_443_812_290_622;

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
/// a query, an exchange and an offer: the kinds older than the `Offer`,
/// then the `Offer`s and `Want`s.
fn messages() -> (Vec<Message>, Vec<Message>) {
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
    let mut added: Vec<Message> = [0, 1, 64, u32::MAX]
        .into_iter()
        .map(|count| Message::Offer {
            from: PeerId(rng.gen()),
            path: path(rng),
            count,
            digest: rng.gen(),
        })
        .collect();
    for want in [Path::root(), path(rng)] {
        added.push(Message::ExchangeReply {
            from: PeerId(rng.gen()),
            path: path(rng),
            outcome: ExchangeOutcome::Want { path: want },
        });
    }
    let offer = added[1].clone();
    added.push(Message::Traced {
        trace_id: rng.gen_range(1..=u64::MAX),
        inner: Box::new(offer),
    });
    (all, added)
}

/// Folds one message into the hash after checking that it roundtrips.
fn fold(hash: &mut u64, message: &Message) {
    let encoded = message.encode();
    assert_eq!(message.wire_size(), encoded.len(), "{message:?}");
    assert_eq!(
        Message::decode_slice(encoded.as_slice()).as_ref(),
        Some(message)
    );
    fnv(hash, &(encoded.len() as u64).to_le_bytes());
    fnv(hash, encoded.as_slice());
}

#[test]
fn message_bytes_are_pinned() {
    let (older, added) = messages();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for message in &older {
        fold(&mut hash, message);
    }
    assert_eq!(
        hash, PINNED_BEFORE_OFFER,
        "a wire byte of a kind older than the offer moved"
    );
    for message in &added {
        fold(&mut hash, message);
    }
    assert_eq!(hash, PINNED, "a wire byte of the peer protocol moved");
}

#[test]
fn an_exchange_body_keeps_its_bytes() {
    // Tag 3 encodes as it did before the offer came to precede it: a body
    // shipped by a build of either side is read by the other.
    let exchange = Message::Exchange {
        from: PeerId(7),
        path: Path::parse("0110"),
        entries: vec![
            DataEntry::new(Key(0x0102_0304_0506_0708), DataId(9)),
            DataEntry::new(Key(u64::MAX), DataId(0x0A0B)),
        ],
    };
    let wire = [
        3, 0, 0, 0, 0, 0, 0, 0, 7, 4, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8,
        0, 0, 0, 0, 0, 0, 0, 9, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 10, 11,
    ];
    assert_eq!(exchange.encode().as_slice(), wire);
    assert_eq!(exchange.wire_size(), wire.len());
    assert_eq!(Message::decode_slice(&wire), Some(exchange));
}

#[test]
fn an_offer_is_thirty_bytes_whatever_it_summarises() {
    let offer = Message::Offer {
        from: PeerId(7),
        path: Path::parse("0110"),
        count: 2,
        digest: 0x1122_3344_5566_7788,
    };
    let wire = [
        13, 0, 0, 0, 0, 0, 0, 0, 7, 4, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0x11, 0x22, 0x33, 0x44,
        0x55, 0x66, 0x77, 0x88,
    ];
    assert_eq!(offer.encode().as_slice(), wire);
    assert_eq!(offer.wire_size(), 30);
    assert!(!offer.is_query_traffic());
    let big = Message::Offer {
        from: PeerId(u64::MAX),
        path: Path::parse(&"01".repeat(32)),
        count: u32::MAX,
        digest: u64::MAX,
    };
    assert_eq!(big.wire_size(), 30);
}
