//! Wire protocol of the deployment runtime.
//!
//! Peers only communicate through these messages; the encoded size of every
//! message is what the bandwidth accounting of the Figure 8 experiment
//! measures.  The codec is a simple hand-rolled big-endian binary format
//! built from the workspace's one codec kit ([`pgrid_core::wire`]):
//! self-describing enough for tests, compact enough that the byte counts
//! are meaningful.
//!
//! There is one encoder, generic over the kit's [`Sink`], and one decoder
//! over a byte slice.  The runtime encodes a message exactly once,
//! straight into the bytes that go on the wire (its staging arena, a
//! `Vec<u8>`), and decodes an arrived payload where it lies
//! ([`Message::decode_slice`] over a slice of the frame);
//! [`Message::encode`] / [`Message::decode`] are the owned-`Bytes` wrappers
//! of the same two functions and [`Message::wire_size`] runs the encoder
//! over a sink that only counts, so the three cannot disagree.  Decoding is
//! total: every read is bounds-checked, a claimed element count must fit
//! the bytes that are left before anything is reserved for it, envelope
//! nesting is refused on the inner tag (no recursion on hostile input), and
//! a payload must be consumed exactly.

use bytes::Bytes;
use pgrid_core::key::{DataEntry, Key};
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_core::wire::{Be, Order, Sink, UNCAPPED};

/// A protocol message exchanged between peers.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A joining peer announces itself to the bootstrap peer.
    Join {
        /// The joining peer.
        peer: PeerId,
    },
    /// The bootstrap peer's answer: a sample of already known peers that the
    /// joiner can use as its unstructured-overlay neighbours.
    JoinAck {
        /// Known peers.
        neighbours: Vec<PeerId>,
    },
    /// Replication-phase push of a peer's original entries to a random peer.
    Replicate {
        /// The entries to store redundantly.
        entries: Vec<DataEntry>,
    },
    /// Construction interaction request: the initiator presents its path and
    /// the entries of its current partition so the contacted peer can take a
    /// local decision (split / replicate / refer).
    Exchange {
        /// Initiator's identifier.
        from: PeerId,
        /// Initiator's current path.
        path: Path,
        /// Initiator's entries restricted to its current partition.
        entries: Vec<DataEntry>,
    },
    /// Reply to [`Message::Exchange`].
    ExchangeReply {
        /// Responder's identifier.
        from: PeerId,
        /// Responder's path at the time of the reply.
        path: Path,
        /// The decision taken.
        outcome: ExchangeOutcome,
    },
    /// Key lookup travelling through the overlay.
    Query {
        /// Peer that issued the query (receives the response directly).
        origin: PeerId,
        /// Query identifier for latency bookkeeping at the origin.
        id: u64,
        /// The requested key.
        key: Key,
        /// Hops taken so far.
        hops: u32,
    },
    /// Answer to a [`Message::Query`], sent directly to the origin.
    QueryResponse {
        /// Query identifier.
        id: u64,
        /// Entries with the requested key held by the responsible peer.
        entries: Vec<DataEntry>,
        /// Total forwarding hops the query took.
        hops: u32,
        /// Whether a responsible peer was reached.
        found: bool,
    },
    /// Order-preserving range query travelling through the overlay.
    ///
    /// The walk is a cursor-based trie traversal: the query routes towards
    /// `cursor`, the responsible peer answers the slice of `[lo, hi]` its
    /// partition covers (a [`Message::RangeResponse`] straight back to the
    /// origin) and forwards the query with the cursor advanced past its
    /// partition's upper bound.  The origin declares the range complete
    /// once the returned slices cover `[lo, hi]`.
    RangeQuery {
        /// Peer that issued the range query (receives every response).
        origin: PeerId,
        /// Query identifier for coverage bookkeeping at the origin.
        id: u64,
        /// Inclusive lower bound of the requested range.
        lo: Key,
        /// Inclusive upper bound of the requested range.
        hi: Key,
        /// Routing target: the smallest key not yet covered by a response.
        cursor: Key,
        /// Hops taken so far (across the whole walk).
        hops: u32,
    },
    /// One responsible peer's slice of a [`Message::RangeQuery`], sent
    /// directly to the origin.
    RangeResponse {
        /// Query identifier.
        id: u64,
        /// Lower bound (inclusive) of the key interval this response
        /// covers (the cursor the responsible peer was reached with).
        from: Key,
        /// Upper bound (inclusive) of the key interval this response
        /// covers; the origin merges `[from, upto]` into its coverage.
        upto: Key,
        /// Entries of the responsible peer falling inside the covered
        /// interval.
        entries: Vec<DataEntry>,
        /// Hops the walk had taken when this slice was answered.
        hops: u32,
    },
    /// Envelope routing `inner` to a *secondary* index hosted by the same
    /// peer population (see [`pgrid_core::index::IndexId`]).
    ///
    /// Primary-index traffic is never enveloped, so the byte stream of a
    /// single-index deployment is unchanged by the multi-index extension.
    /// Envelopes do not nest: a `ForIndex` inside a `ForIndex` is rejected
    /// at decode time.
    ForIndex {
        /// The secondary index the inner message belongs to (non-zero).
        index: u16,
        /// The enveloped protocol message.
        inner: Box<Message>,
    },
    /// Outermost envelope carrying the trace ID of a traced lookup, so a
    /// query's hop chain can be reassembled across peers (and across
    /// cluster worker processes).
    ///
    /// Only emitted while tracing is enabled and the runtime is handling
    /// a traced query — trace ID `0` means "not traced" and is never put
    /// on the wire, so a tracing-disabled run produces byte-identical
    /// frames.  `Traced` is strictly the outermost envelope: it may wrap
    /// a [`Message::ForIndex`], never another `Traced`.
    Traced {
        /// The trace the inner message belongs to (non-zero).
        trace_id: u64,
        /// The enveloped protocol message.
        inner: Box<Message>,
    },
    /// Recovery request: a peer rebuilt after a worker failure asks a live
    /// replica of its partition for a state snapshot.  This is the wire
    /// half of the paper's availability argument — the replication factor
    /// is what makes the lost state recoverable at all.
    ReplicaPull {
        /// The recovering peer (receives the [`Message::ReplicaPush`]).
        origin: PeerId,
    },
    /// Reply to [`Message::ReplicaPull`]: a full snapshot of the replica's
    /// partition — path, key-store entries, and routing references — from
    /// which the recovering peer rebuilds its `KeyStore` and routing table.
    ReplicaPush {
        /// The replica's current path (adopted by the recovering peer).
        path: Path,
        /// Every entry of the replica's key store.
        entries: Vec<DataEntry>,
        /// Flattened routing references as `(level, peer, path)`.
        routing: Vec<(u8, PeerId, Path)>,
        /// Peers the replica believes share its partition.
        replicas: Vec<PeerId>,
    },
}

/// Decision taken by the contacted peer of an [`Message::Exchange`].
#[derive(Clone, Debug, PartialEq)]
pub enum ExchangeOutcome {
    /// Split the common partition: the initiator takes `initiator_bit`, the
    /// responder the complement; `entries` are the responder's entries that
    /// now belong to the initiator's side.
    Split {
        /// The partition (path) the split decision applies to; the initiator
        /// only acts on the reply if this is still its current path, which
        /// protects against stale replies racing with concurrent exchanges.
        partition: Path,
        /// The bit the initiator extends its path with.
        initiator_bit: bool,
        /// Entries handed over to the initiator.
        entries: Vec<DataEntry>,
        /// A peer responsible for the complementary side, for the
        /// initiator's routing table when it joins the responder's own side
        /// (when the initiator takes the opposite side the responder itself
        /// is the reference and this is `None`).
        complement: Option<(PeerId, Path)>,
    },
    /// Become replicas: `entries` are the entries the initiator was missing.
    Replicate {
        /// Entries handed to the initiator.
        entries: Vec<DataEntry>,
    },
    /// The peers belong to different partitions: the responder refers the
    /// initiator to a peer closer to its partition.
    Refer {
        /// The referred peer.
        peer: PeerId,
        /// That peer's path as known by the responder.
        path: Path,
    },
    /// Nothing useful could be done.
    Nothing,
}

/// A [`Sink`] that keeps only the number of bytes written to it.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Message {
    /// Encodes the message into a byte buffer of its own.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the encoding to `buf` — the one encoder.  The runtime points
    /// it at its staging arena, [`Message::encode`] at a fresh vector,
    /// [`Message::wire_size`] at a byte counter, and an envelope at the
    /// buffer its own header just went into.
    pub(crate) fn encode_into<S: Sink>(&self, buf: &mut S) {
        match self {
            Message::Join { peer } => {
                Be::put_u8(buf, 0);
                Be::put_u64(buf, peer.0);
            }
            Message::JoinAck { neighbours } => {
                Be::put_u8(buf, 1);
                Be::put_peers(buf, neighbours);
            }
            Message::Replicate { entries } => {
                Be::put_u8(buf, 2);
                Be::put_entries(buf, entries);
            }
            Message::Exchange {
                from,
                path,
                entries,
            } => {
                Be::put_u8(buf, 3);
                Be::put_u64(buf, from.0);
                Be::put_path(buf, path);
                Be::put_entries(buf, entries);
            }
            Message::ExchangeReply {
                from,
                path,
                outcome,
            } => {
                Be::put_u8(buf, 4);
                Be::put_u64(buf, from.0);
                Be::put_path(buf, path);
                match outcome {
                    ExchangeOutcome::Split {
                        partition,
                        initiator_bit,
                        entries,
                        complement,
                    } => {
                        Be::put_u8(buf, 0);
                        Be::put_path(buf, partition);
                        Be::put_u8(buf, *initiator_bit as u8);
                        Be::put_entries(buf, entries);
                        match complement {
                            Some((peer, path)) => {
                                Be::put_u8(buf, 1);
                                Be::put_u64(buf, peer.0);
                                Be::put_path(buf, path);
                            }
                            None => Be::put_u8(buf, 0),
                        }
                    }
                    ExchangeOutcome::Replicate { entries } => {
                        Be::put_u8(buf, 1);
                        Be::put_entries(buf, entries);
                    }
                    ExchangeOutcome::Refer { peer, path } => {
                        Be::put_u8(buf, 2);
                        Be::put_u64(buf, peer.0);
                        Be::put_path(buf, path);
                    }
                    ExchangeOutcome::Nothing => Be::put_u8(buf, 3),
                }
            }
            Message::Query {
                origin,
                id,
                key,
                hops,
            } => {
                Be::put_u8(buf, 5);
                Be::put_u64(buf, origin.0);
                Be::put_u64(buf, *id);
                Be::put_u64(buf, key.0);
                Be::put_u32(buf, *hops);
            }
            Message::QueryResponse {
                id,
                entries,
                hops,
                found,
            } => {
                Be::put_u8(buf, 6);
                Be::put_u64(buf, *id);
                Be::put_entries(buf, entries);
                Be::put_u32(buf, *hops);
                Be::put_u8(buf, *found as u8);
            }
            Message::RangeQuery {
                origin,
                id,
                lo,
                hi,
                cursor,
                hops,
            } => {
                Be::put_u8(buf, 8);
                Be::put_u64(buf, origin.0);
                Be::put_u64(buf, *id);
                Be::put_u64(buf, lo.0);
                Be::put_u64(buf, hi.0);
                Be::put_u64(buf, cursor.0);
                Be::put_u32(buf, *hops);
            }
            Message::RangeResponse {
                id,
                from,
                upto,
                entries,
                hops,
            } => {
                Be::put_u8(buf, 9);
                Be::put_u64(buf, *id);
                Be::put_u64(buf, from.0);
                Be::put_u64(buf, upto.0);
                Be::put_entries(buf, entries);
                Be::put_u32(buf, *hops);
            }
            Message::ForIndex { index, inner } => {
                debug_assert!(
                    !matches!(**inner, Message::ForIndex { .. } | Message::Traced { .. }),
                    "index envelopes do not nest"
                );
                Be::put_u8(buf, 7);
                Be::put_u16(buf, *index);
                inner.encode_into(buf);
            }
            Message::Traced { trace_id, inner } => {
                debug_assert!(
                    !matches!(**inner, Message::Traced { .. }),
                    "trace envelopes do not nest"
                );
                debug_assert!(*trace_id != 0, "trace id 0 is never enveloped");
                Be::put_u8(buf, 10);
                Be::put_u64(buf, *trace_id);
                inner.encode_into(buf);
            }
            Message::ReplicaPull { origin } => {
                Be::put_u8(buf, 11);
                Be::put_u64(buf, origin.0);
            }
            Message::ReplicaPush {
                path,
                entries,
                routing,
                replicas,
            } => {
                Be::put_u8(buf, 12);
                Be::put_path(buf, path);
                Be::put_entries(buf, entries);
                Be::put_routing(buf, routing);
                Be::put_peers(buf, replicas);
            }
        }
    }

    /// Decodes a message previously produced by [`Message::encode`].
    ///
    /// Returns `None` for malformed input, which includes bytes left over
    /// after the message.
    pub fn decode(data: Bytes) -> Option<Message> {
        Message::decode_slice(data.as_slice())
    }

    /// [`Message::decode`] over a borrowed slice: what the runtime calls on
    /// each payload of an arrived frame, in place.  The message must
    /// consume `data` exactly.
    pub fn decode_slice(mut data: &[u8]) -> Option<Message> {
        let message = Message::decode_from(&mut data)?;
        data.is_empty().then_some(message)
    }

    /// Decodes one message from the front of `data` — the one decoder.
    /// Every read is bounds-checked and every claimed element count is
    /// checked against the bytes that are actually there before anything
    /// is allocated for it.
    fn decode_from(data: &mut &[u8]) -> Option<Message> {
        let tag = Be::u8(data)?;
        Some(match tag {
            0 => Message::Join {
                peer: PeerId(Be::u64(data)?),
            },
            1 => Message::JoinAck {
                neighbours: Be::peers(data, UNCAPPED)?,
            },
            2 => Message::Replicate {
                entries: Be::entries(data, MAX_ENTRIES)?,
            },
            3 => Message::Exchange {
                from: PeerId(Be::u64(data)?),
                path: Be::path(data)?,
                entries: Be::entries(data, MAX_ENTRIES)?,
            },
            4 => {
                let from = PeerId(Be::u64(data)?);
                let path = Be::path(data)?;
                let outcome = match Be::u8(data)? {
                    0 => {
                        let partition = Be::path(data)?;
                        let initiator_bit = Be::u8(data)? != 0;
                        let entries = Be::entries(data, MAX_ENTRIES)?;
                        let complement = if Be::u8(data)? != 0 {
                            Some((PeerId(Be::u64(data)?), Be::path(data)?))
                        } else {
                            None
                        };
                        ExchangeOutcome::Split {
                            partition,
                            initiator_bit,
                            entries,
                            complement,
                        }
                    }
                    1 => ExchangeOutcome::Replicate {
                        entries: Be::entries(data, MAX_ENTRIES)?,
                    },
                    2 => ExchangeOutcome::Refer {
                        peer: PeerId(Be::u64(data)?),
                        path: Be::path(data)?,
                    },
                    3 => ExchangeOutcome::Nothing,
                    _ => return None,
                };
                Message::ExchangeReply {
                    from,
                    path,
                    outcome,
                }
            }
            5 => Message::Query {
                origin: PeerId(Be::u64(data)?),
                id: Be::u64(data)?,
                key: Key(Be::u64(data)?),
                hops: Be::u32(data)?,
            },
            6 => Message::QueryResponse {
                id: Be::u64(data)?,
                entries: Be::entries(data, MAX_ENTRIES)?,
                hops: Be::u32(data)?,
                found: Be::u8(data)? != 0,
            },
            8 => Message::RangeQuery {
                origin: PeerId(Be::u64(data)?),
                id: Be::u64(data)?,
                lo: Key(Be::u64(data)?),
                hi: Key(Be::u64(data)?),
                cursor: Key(Be::u64(data)?),
                hops: Be::u32(data)?,
            },
            9 => Message::RangeResponse {
                id: Be::u64(data)?,
                from: Key(Be::u64(data)?),
                upto: Key(Be::u64(data)?),
                entries: Be::entries(data, MAX_ENTRIES)?,
                hops: Be::u32(data)?,
            },
            7 => {
                let index = Be::u16(data)?;
                // Envelopes carry a non-zero index and never nest; a trace
                // envelope is strictly outermost so it cannot appear here.
                // Decided on the inner tag, before recursing, so hostile
                // nesting is rejected at depth one instead of on the stack.
                if index == 0 || matches!(data.first(), Some(7 | 10)) {
                    return None;
                }
                Message::ForIndex {
                    index,
                    inner: Box::new(Message::decode_from(data)?),
                }
            }
            10 => {
                let trace_id = Be::u64(data)?;
                // Trace envelopes carry a non-zero ID and never nest.
                if trace_id == 0 || data.first() == Some(&10) {
                    return None;
                }
                Message::Traced {
                    trace_id,
                    inner: Box::new(Message::decode_from(data)?),
                }
            }
            11 => Message::ReplicaPull {
                origin: PeerId(Be::u64(data)?),
            },
            12 => Message::ReplicaPush {
                path: Be::path(data)?,
                entries: Be::entries(data, MAX_ENTRIES)?,
                routing: Be::routing(data, 65_536)?,
                replicas: Be::peers(data, 65_536)?,
            },
            _ => return None,
        })
    }

    /// Size of the encoded message in bytes (what the bandwidth accounting
    /// charges for this message).
    pub fn wire_size(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_into(&mut count);
        count.0
    }

    /// Whether this message belongs to the query traffic class (everything
    /// else is maintenance traffic in the Figure 8 breakdown).
    pub fn is_query_traffic(&self) -> bool {
        match self {
            Message::Query { .. }
            | Message::QueryResponse { .. }
            | Message::RangeQuery { .. }
            | Message::RangeResponse { .. } => true,
            Message::ForIndex { inner, .. } => inner.is_query_traffic(),
            Message::Traced { inner, .. } => inner.is_query_traffic(),
            _ => false,
        }
    }
}

/// Most entries one list of a message may carry.
const MAX_ENTRIES: usize = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use pgrid_core::key::DataId;
    use pgrid_core::wire::{ENTRY_BYTES, ROUTING_REF_BYTES};

    fn entries(n: u64) -> Vec<DataEntry> {
        (0..n)
            .map(|i| DataEntry::new(Key::from_fraction(i as f64 / 100.0), DataId(i)))
            .collect()
    }

    fn roundtrip(message: Message) {
        let encoded = message.encode();
        let decoded = Message::decode(encoded).expect("decode");
        assert_eq!(decoded, message);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        roundtrip(Message::Join { peer: PeerId(42) });
        roundtrip(Message::JoinAck {
            neighbours: vec![PeerId(1), PeerId(2), PeerId(3)],
        });
        roundtrip(Message::Replicate {
            entries: entries(5),
        });
        roundtrip(Message::Exchange {
            from: PeerId(7),
            path: Path::parse("0101"),
            entries: entries(3),
        });
        for outcome in [
            ExchangeOutcome::Split {
                partition: Path::parse("01"),
                initiator_bit: true,
                entries: entries(4),
                complement: None,
            },
            ExchangeOutcome::Split {
                partition: Path::root(),
                initiator_bit: false,
                entries: entries(2),
                complement: Some((PeerId(5), Path::parse("10"))),
            },
            ExchangeOutcome::Replicate {
                entries: entries(2),
            },
            ExchangeOutcome::Refer {
                peer: PeerId(9),
                path: Path::parse("110"),
            },
            ExchangeOutcome::Nothing,
        ] {
            roundtrip(Message::ExchangeReply {
                from: PeerId(8),
                path: Path::parse("01"),
                outcome,
            });
        }
        roundtrip(Message::Query {
            origin: PeerId(3),
            id: 77,
            key: Key::from_fraction(0.33),
            hops: 2,
        });
        roundtrip(Message::QueryResponse {
            id: 77,
            entries: entries(1),
            hops: 3,
            found: true,
        });
        roundtrip(Message::RangeQuery {
            origin: PeerId(4),
            id: 78,
            lo: Key::from_fraction(0.1),
            hi: Key::from_fraction(0.6),
            cursor: Key::from_fraction(0.25),
            hops: 1,
        });
        roundtrip(Message::RangeResponse {
            id: 78,
            from: Key::from_fraction(0.25),
            upto: Key::from_fraction(0.5),
            entries: entries(4),
            hops: 2,
        });
        roundtrip(Message::ReplicaPull { origin: PeerId(12) });
        roundtrip(Message::ReplicaPush {
            path: Path::parse("0110"),
            entries: entries(7),
            routing: vec![
                (0, PeerId(3), Path::parse("1")),
                (1, PeerId(4), Path::parse("00")),
            ],
            replicas: vec![PeerId(5), PeerId(9)],
        });
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = Message::Replicate {
            entries: entries(1),
        };
        let large = Message::Replicate {
            entries: entries(100),
        };
        assert!(large.wire_size() > small.wire_size() + 99 * 16 - 1);
    }

    #[test]
    fn traffic_classification() {
        assert!(Message::Query {
            origin: PeerId(0),
            id: 0,
            key: Key::MIN,
            hops: 0
        }
        .is_query_traffic());
        assert!(Message::RangeQuery {
            origin: PeerId(0),
            id: 0,
            lo: Key::MIN,
            hi: Key::MAX,
            cursor: Key::MIN,
            hops: 0
        }
        .is_query_traffic());
        assert!(Message::RangeResponse {
            id: 0,
            from: Key::MIN,
            upto: Key::MAX,
            entries: Vec::new(),
            hops: 0
        }
        .is_query_traffic());
        assert!(!Message::Join { peer: PeerId(0) }.is_query_traffic());
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(Message::decode(Bytes::from_static(&[])).is_none());
        assert!(Message::decode(Bytes::from_static(&[99])).is_none());
        assert!(Message::decode(Bytes::from_static(&[0, 1, 2])).is_none());
        // truncated entry list
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u32(10);
        buf.put_u64(1);
        assert!(Message::decode(buf.freeze()).is_none());
        // truncated replica pull
        assert!(Message::decode(Bytes::from_static(&[11, 0, 0])).is_none());
        // replica push with an absurd routing count
        let mut buf = BytesMut::new();
        buf.put_u8(12);
        buf.put_u8(0); // root path
        buf.put_u64(0);
        buf.put_u32(0); // no entries
        buf.put_u32(1 << 20); // routing count over the cap
        assert!(Message::decode(buf.freeze()).is_none());
        // bytes after the message: the frame layer rejects trailing bytes,
        // and so does a payload — through both entry points
        let query = Message::Query {
            origin: PeerId(3),
            id: 77,
            key: Key::from_fraction(0.33),
            hops: 2,
        };
        let mut bytes = query.encode().as_slice().to_vec();
        assert_eq!(Message::decode_slice(&bytes), Some(query.clone()));
        bytes.push(0);
        assert!(Message::decode_slice(&bytes).is_none());
        assert!(Message::decode(Bytes::from(bytes)).is_none());
        // ... including after an envelope's inner message
        let mut bytes = Message::Traced {
            trace_id: 9,
            inner: Box::new(query),
        }
        .encode()
        .as_slice()
        .to_vec();
        bytes.push(0);
        assert!(Message::decode_slice(&bytes).is_none());
    }

    #[test]
    fn claimed_counts_must_fit_the_input() {
        // The three counted shapes: an entry list, a peer list and the
        // routing references of a replica push.  A count the remaining
        // bytes cannot hold is rejected before anything is reserved for
        // it; a count that exactly fits decodes.
        let counted = |tag: u8, n: u32, body: usize| {
            let mut buf = vec![tag];
            buf.put_u32(n);
            buf.resize(buf.len() + body, 0);
            buf
        };
        let entry_list = |n, body| counted(2, n, body);
        let peer_list = |n, body| counted(1, n, body);
        let routing_refs = |n: u32, body: usize| {
            let mut buf = vec![12u8];
            buf.put_u8(0); // root path
            buf.put_u64(0);
            buf.put_u32(0); // no entries
            buf.put_u32(n);
            buf.resize(buf.len() + body, 0);
            buf.put_u32(0); // no replicas
            buf
        };
        type Shape<'a> = (&'a dyn Fn(u32, usize) -> Vec<u8>, u32, usize);
        let shapes: [Shape<'_>; 3] = [
            (&entry_list, 65_536, ENTRY_BYTES),
            (&peer_list, 4_096, 8),
            (&routing_refs, 4_096, ROUTING_REF_BYTES),
        ];
        for (shape, huge, element_bytes) in shapes {
            assert!(Message::decode_slice(&shape(huge, 0)).is_none());
            assert!(Message::decode_slice(&shape(3, 3 * element_bytes - 1)).is_none());
            assert!(Message::decode_slice(&shape(3, 3 * element_bytes)).is_some());
        }
        // The replica list of a push is the fourth counted field.
        let mut push = routing_refs(0, 0);
        let at = push.len() - 4;
        push[at..].copy_from_slice(&4_096u32.to_be_bytes());
        assert!(Message::decode_slice(&push).is_none());
    }

    #[test]
    fn hostile_envelope_nesting_is_rejected_without_recursing() {
        // A megabyte of trace-envelope headers: rejected at the second
        // header, not after a call frame per header.
        let mut buf = Vec::new();
        for _ in 0..(1 << 20) / 9 {
            buf.put_u8(10);
            buf.put_u64(1);
        }
        assert!(Message::decode_slice(&buf).is_none());
        let mut buf = Vec::new();
        for _ in 0..(1 << 20) / 3 {
            buf.put_u8(7);
            buf.put_u16(1);
        }
        assert!(Message::decode_slice(&buf).is_none());
    }

    #[test]
    fn recovery_messages_are_maintenance_traffic() {
        assert!(!Message::ReplicaPull { origin: PeerId(1) }.is_query_traffic());
        assert!(!Message::ReplicaPush {
            path: Path::root(),
            entries: Vec::new(),
            routing: Vec::new(),
            replicas: Vec::new(),
        }
        .is_query_traffic());
    }

    #[test]
    fn index_envelopes_roundtrip_and_classify() {
        let inner = Message::Query {
            origin: PeerId(3),
            id: 9,
            key: Key::from_fraction(0.5),
            hops: 1,
        };
        let enveloped = Message::ForIndex {
            index: 2,
            inner: Box::new(inner.clone()),
        };
        roundtrip(enveloped.clone());
        assert!(enveloped.is_query_traffic());
        assert!(!Message::ForIndex {
            index: 2,
            inner: Box::new(Message::Replicate {
                entries: entries(1)
            }),
        }
        .is_query_traffic());
        // The envelope costs exactly tag + index on the wire.
        assert_eq!(enveloped.wire_size(), inner.wire_size() + 3);
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        // Index 0 must never be enveloped.
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16(0);
        buf.put_slice(Message::Join { peer: PeerId(1) }.encode().as_slice());
        assert!(Message::decode(buf.freeze()).is_none());
        // Envelopes do not nest.
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16(1);
        buf.put_u8(7);
        buf.put_u16(2);
        buf.put_slice(Message::Join { peer: PeerId(1) }.encode().as_slice());
        assert!(Message::decode(buf.freeze()).is_none());
        // Truncated index.
        assert!(Message::decode(Bytes::from_static(&[7, 0])).is_none());
    }

    #[test]
    fn trace_envelopes_roundtrip_and_classify() {
        let inner = Message::Query {
            origin: PeerId(3),
            id: 9,
            key: Key::from_fraction(0.5),
            hops: 1,
        };
        let traced = Message::Traced {
            trace_id: (2 << 40) | 5,
            inner: Box::new(inner.clone()),
        };
        roundtrip(traced.clone());
        assert!(traced.is_query_traffic());
        // A traced secondary-index query nests Traced around ForIndex.
        let traced_secondary = Message::Traced {
            trace_id: 7,
            inner: Box::new(Message::ForIndex {
                index: 2,
                inner: Box::new(inner.clone()),
            }),
        };
        roundtrip(traced_secondary.clone());
        assert!(traced_secondary.is_query_traffic());
        // The envelope costs exactly tag + trace id on the wire.
        assert_eq!(traced.wire_size(), inner.wire_size() + 9);
    }

    #[test]
    fn malformed_trace_envelopes_are_rejected() {
        // Trace id 0 is the "not traced" sentinel and never enveloped.
        let mut buf = BytesMut::new();
        buf.put_u8(10);
        buf.put_u64(0);
        buf.put_slice(Message::Join { peer: PeerId(1) }.encode().as_slice());
        assert!(Message::decode(buf.freeze()).is_none());
        // Trace envelopes do not nest.
        let mut buf = BytesMut::new();
        buf.put_u8(10);
        buf.put_u64(1);
        buf.put_u8(10);
        buf.put_u64(2);
        buf.put_slice(Message::Join { peer: PeerId(1) }.encode().as_slice());
        assert!(Message::decode(buf.freeze()).is_none());
        // A trace envelope inside an index envelope is rejected: Traced is
        // strictly outermost.
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16(1);
        buf.put_u8(10);
        buf.put_u64(3);
        buf.put_slice(Message::Join { peer: PeerId(1) }.encode().as_slice());
        assert!(Message::decode(buf.freeze()).is_none());
        // Truncated trace id.
        assert!(Message::decode(Bytes::from_static(&[10, 0, 0])).is_none());
    }

    #[test]
    fn bytes_the_parent_commit_encoded_still_decode() {
        // A `ReplicaPush` as the codec wrote it before it moved onto the
        // kit: a peer of either build decodes the other's frames.
        let push = Message::ReplicaPush {
            path: Path::parse("0110"),
            entries: vec![DataEntry::new(Key(0x0102_0304_0506_0708), DataId(9))],
            routing: vec![(1, PeerId(0x0A0B), Path::parse("00"))],
            replicas: vec![PeerId(5), PeerId(0xFFFF_FFFF_FFFF_FFFE)],
        };
        let wire = [
            12, 4, 96, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0,
            0, 9, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 10, 11, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2,
            0, 0, 0, 0, 0, 0, 0, 5, 255, 255, 255, 255, 255, 255, 255, 254,
        ];
        assert_eq!(push.encode().as_slice(), wire);
        assert_eq!(push.wire_size(), wire.len());
        assert_eq!(Message::decode_slice(&wire), Some(push));
    }

    #[test]
    fn empty_path_roundtrips() {
        roundtrip(Message::Exchange {
            from: PeerId(1),
            path: Path::root(),
            entries: Vec::new(),
        });
    }
}
