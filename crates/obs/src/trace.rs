//! Structured tracing: cheap per-event records keyed by a trace ID that
//! the message envelope carries across peers and the cluster proto
//! carries across processes, so one lookup's full hop chain can be
//! reassembled from the merged event set.
//!
//! Tracing is **off by default**.  A disabled [`Tracer`] allocates no
//! buffer, records nothing, and hands out trace ID `0` — the sentinel the
//! message codec maps to "no envelope", so a disabled run produces
//! byte-identical wire streams.  Nothing here touches an RNG, so pinned
//! seeds stay bit-identical either way.

use crate::json;

/// The sentinel "not traced" ID (never allocated to a real trace).
pub const NO_TRACE: u64 = 0;

/// Reserved trace ID for *ambient* events: hot-path records that belong
/// to the runtime as a whole rather than to one lookup — exchange
/// decisions, sampled frame send/receive events.  Never allocated by
/// [`Tracer::new_trace`] and never put on the wire.
pub const AMBIENT_TRACE: u64 = u64::MAX;

/// One structured event on a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this event belongs to (never [`NO_TRACE`]).
    pub trace_id: u64,
    /// What happened (`query_issued`, `query_forwarded`, ...).
    pub kind: &'static str,
    /// The peer the event happened on.
    pub peer: u64,
    /// Virtual-time stamp (runtime clock, ms).
    pub virtual_ms: u64,
    /// Wall-clock stamp (microseconds since the Unix epoch).
    pub wall_micros: u64,
    /// Free-form detail (`path=0110 hop=2`, ...).
    pub detail: String,
}

impl TraceEvent {
    /// One-line JSON rendering (the `/trace` endpoint and the merged
    /// trace file are JSONL of exactly these).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\": {}, \"kind\": \"{}\", \"peer\": {}, \"virtual_ms\": {}, \
             \"wall_micros\": {}, \"detail\": \"{}\"}}",
            self.trace_id,
            json::escape(self.kind),
            self.peer,
            self.virtual_ms,
            self.wall_micros,
            json::escape(&self.detail)
        )
    }
}

/// A per-runtime trace sink with a bounded buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Events discarded because the buffer was full (between drains).
    dropped: u64,
    /// Next trace ID; the high bits carry a per-process base so IDs from
    /// different cluster workers never collide.
    next_id: u64,
}

/// Default event-buffer capacity of an enabled tracer.
pub const DEFAULT_CAPACITY: usize = 65_536;

impl Tracer {
    /// The no-op tracer every runtime starts with.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            capacity: 0,
            events: Vec::new(),
            dropped: 0,
            next_id: 1,
        }
    }

    /// An enabled tracer buffering up to `capacity` events between drains.
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            capacity: capacity.max(1),
            events: Vec::new(),
            dropped: 0,
            next_id: 1,
        }
    }

    /// An enabled tracer with the default capacity.
    pub fn enabled() -> Self {
        Self::enabled_with_capacity(DEFAULT_CAPACITY)
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Gives this tracer a disjoint ID space (cluster worker `shard`
    /// passes its shard index so merged trace IDs never collide).
    pub fn set_id_base(&mut self, base: u64) {
        self.next_id = (base << 40) | 1;
    }

    /// Allocates a fresh trace ID, or [`NO_TRACE`] when disabled — the
    /// codec treats `0` as "don't wrap", so disabled runs stay
    /// byte-identical on the wire.
    pub fn new_trace(&mut self) -> u64 {
        if !self.enabled {
            return NO_TRACE;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records an event on `trace_id`.  A no-op when the tracer is
    /// disabled or the ID is [`NO_TRACE`]; `detail` is only invoked when
    /// the event is actually recorded, so hot paths pay nothing when
    /// tracing is off.
    pub fn record(
        &mut self,
        trace_id: u64,
        kind: &'static str,
        peer: u64,
        virtual_ms: u64,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled || trace_id == NO_TRACE {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let wall_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        self.events.push(TraceEvent {
            trace_id,
            kind,
            peer,
            virtual_ms,
            wall_micros,
            detail: detail(),
        });
    }

    /// The buffered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Takes the buffered events (cluster workers drain at each barrier
    /// and ship the batch to the coordinator).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events discarded since the last drain because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Returns a `'static` copy of an event-kind string decoded off the wire.
///
/// Event kinds are `&'static str` so recording stays allocation-free, but
/// the cluster control plane ships events between processes as plain
/// strings.  Decoding maps each kind back onto the runtime's own literal
/// when it is a known one, and otherwise interns the string once (a
/// bounded leak: one allocation per *distinct* unknown kind, of which a
/// well-formed peer produces none).
pub fn intern_kind(name: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "query_issued",
        "query_hop",
        "query_replica_forward",
        "query_answered",
        "query_dead_end",
        "query_resolved",
        "query_timeout",
        "range_issued",
        "range_hop",
        "range_answered",
        "range_slice",
        "range_detour",
        "range_dead_end",
        "range_retry",
        "range_incomplete",
        "exchange_decision",
        "frame_sent",
        "frame_received",
    ];
    if let Some(kind) = KNOWN.iter().find(|k| **k == name) {
        return kind;
    }
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    static EXTRA: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut extra = EXTRA.get_or_init(Default::default).lock().unwrap();
    if let Some(kind) = extra.get(name) {
        return kind;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    extra.insert(name.to_string(), leaked);
    leaked
}

/// Groups events by trace ID and orders each group with [`order_chain`] —
/// the reassembly step the coordinator (and the `/trace` endpoint) applies
/// to a merged event set.
pub fn assemble(events: &[TraceEvent]) -> std::collections::BTreeMap<u64, Vec<TraceEvent>> {
    let mut chains: std::collections::BTreeMap<u64, Vec<TraceEvent>> = Default::default();
    for event in events {
        chains
            .entry(event.trace_id)
            .or_default()
            .push(event.clone());
    }
    for chain in chains.values_mut() {
        order_chain(chain);
    }
    chains
}

/// Orders one trace's events by wall time, then virtual time.  Wall time
/// first: the processes of a cluster run share one wall clock, while each
/// stamps virtual time on its own clock, coupled to the others only at
/// phase barriers — so virtual order can put an answer before its query
/// across processes.  Within one process both orders agree.
pub fn order_chain(chain: &mut [TraceEvent]) {
    chain.sort_by_key(|e| (e.wall_micros, e.virtual_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_no_ids() {
        let mut t = Tracer::disabled();
        assert_eq!(t.new_trace(), NO_TRACE);
        t.record(7, "query_issued", 1, 10, || unreachable!("must not format"));
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_tracer_allocates_distinct_ids_and_buffers_events() {
        let mut t = Tracer::enabled_with_capacity(4);
        let a = t.new_trace();
        let b = t.new_trace();
        assert_ne!(a, NO_TRACE);
        assert_ne!(a, b);
        t.record(a, "query_issued", 3, 100, || "key=42".to_string());
        t.record(b, "query_issued", 4, 101, String::new);
        assert_eq!(t.events().len(), 2);
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        assert!(t.events().is_empty());
    }

    #[test]
    fn buffer_is_bounded_and_counts_drops() {
        let mut t = Tracer::enabled_with_capacity(2);
        let id = t.new_trace();
        for _ in 0..5 {
            t.record(id, "hop", 0, 1, String::new);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn id_bases_give_disjoint_spaces() {
        let mut a = Tracer::enabled();
        let mut b = Tracer::enabled();
        a.set_id_base(1);
        b.set_id_base(2);
        assert_ne!(a.new_trace(), b.new_trace());
    }

    #[test]
    fn assemble_groups_and_orders_by_virtual_time() {
        let mk = |trace_id, virtual_ms, peer| TraceEvent {
            trace_id,
            kind: "hop",
            peer,
            virtual_ms,
            wall_micros: 0,
            detail: String::new(),
        };
        let chains = assemble(&[mk(2, 30, 1), mk(1, 20, 5), mk(2, 10, 0)]);
        assert_eq!(chains.len(), 2);
        assert_eq!(
            chains[&2].iter().map(|e| e.peer).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn a_chain_across_two_processes_follows_wall_time_over_their_virtual_clocks() {
        // Issued on a process whose virtual clock runs 9 s ahead of the
        // answering one's; the shared wall clock has the causal order.
        let mk = |kind, peer, virtual_ms, wall_micros| TraceEvent {
            trace_id: 3,
            kind,
            peer,
            virtual_ms,
            wall_micros,
            detail: String::new(),
        };
        let chain = assemble(&[
            mk("query_resolved", 1, 10_080, 500),
            mk("query_answered", 20, 1_040, 300),
            mk("query_issued", 1, 10_000, 100),
        ]);
        let kinds: Vec<&str> = chain[&3].iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["query_issued", "query_answered", "query_resolved"]);
    }

    #[test]
    fn interning_reuses_known_kinds_and_dedups_unknown_ones() {
        assert_eq!(intern_kind("query_issued"), "query_issued");
        let a = intern_kind("made_up_kind_for_tests");
        let b = intern_kind("made_up_kind_for_tests");
        assert!(std::ptr::eq(a, b), "unknown kinds must intern to one copy");
    }

    #[test]
    fn event_json_is_escaped() {
        let e = TraceEvent {
            trace_id: 9,
            kind: "query_issued",
            peer: 2,
            virtual_ms: 5,
            wall_micros: 6,
            detail: "path=\"01\"".to_string(),
        };
        let json = e.to_json();
        assert!(json.contains("\"trace_id\": 9"));
        assert!(json.contains("path=\\\"01\\\""));
    }
}
