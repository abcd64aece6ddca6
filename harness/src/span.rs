//! Harness-side spans: one record per call into a layer, kept in memory
//! and written out as JSONL when the run ends.
//!
//! A span is `{id, parent, workload, op, name, start_ns, end_ns, calls}`.
//! The *layer* of a span is the part of its name before the first `.`
//! (`net.drain` belongs to `net`).  A layer's **self time** is the
//! duration of its spans minus the part their child spans cover; the self
//! times of all spans under one root add up to the root's duration, so no
//! time in the window is unexplained.
//!
//! Calls made millions of times under one parent (`transport.send`) are
//! **folded**: one span per `(parent, name)` whose `calls` field counts
//! every invocation and whose duration is the busy time, estimated from
//! the one call in [`FOLD_TIMING_STRIDE`] that is actually timed (two
//! clock reads cost ≈90 ns here — timing every call of a 100 ns function
//! would double it).
//!
//! A disabled tracer runs the closure and records nothing, so the
//! untraced run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.  `parent == 0` marks a root; ids start at 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Harness-defined operation (batch, cut, session) the span belongs
    /// to; spans of one operation share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Invocations folded into this span (1 for an ordinary span).
    pub calls: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The root span every workload wraps its timed window in.
pub const WINDOW: &str = "harness.window";

/// One folded call in this many is timed; the first call under each
/// parent always is.
pub const FOLD_TIMING_STRIDE: u64 = 16;

/// A folded child of an open span.
struct Fold {
    name: &'static str,
    /// Index into `spans`.
    at: usize,
    calls: u64,
    timed_calls: u64,
    timed_ns: u64,
}

struct Open {
    /// Index into `spans`.
    at: usize,
    children_ns: u64,
    folds: Vec<Fold>,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    op: u64,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let start = self.now_ns();
        let parent = self.open.last().map_or(0, |o| self.spans[o.at].id);
        let at = self.spans.len();
        self.spans.push(Span {
            id: at as u32 + 1,
            parent,
            op: self.op,
            name,
            start_ns: start,
            end_ns: start,
            calls: 1,
            self_ns: 0,
        });
        self.open.push(Open {
            at,
            children_ns: 0,
            folds: Vec::new(),
        });
    }

    fn end(&mut self) {
        let end = self.now_ns();
        let mut open = self.open.pop().expect("span end without begin");
        for fold in &open.folds {
            // Scale the timed calls up to all calls.  The estimate can
            // overshoot what is left of the parent; clamp so that the
            // span stays inside it and self times still add up.
            let estimate = (fold.timed_ns as u128 * fold.calls as u128
                / fold.timed_calls.max(1) as u128) as u64;
            let parent_ns = end - self.spans[open.at].start_ns;
            let busy_ns = estimate
                .min(parent_ns.saturating_sub(open.children_ns))
                .min(end - self.spans[fold.at].start_ns);
            open.children_ns += busy_ns;
            let span = &mut self.spans[fold.at];
            span.end_ns = span.start_ns + busy_ns;
            span.self_ns = busy_ns;
            span.calls = fold.calls;
        }
        let span = &mut self.spans[open.at];
        span.end_ns = end;
        let duration = span.duration_ns();
        span.self_ns = duration.saturating_sub(open.children_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
        }
    }

    /// Counts one invocation of the folded child `name` of the innermost
    /// open span and says whether this one is to be timed.
    fn fold_begin(&mut self, name: &'static str) -> bool {
        let op = self.op;
        let parent = self
            .open
            .last_mut()
            .expect("a folded call needs an open parent span");
        let parent_id = self.spans[parent.at].id;
        let at = match parent.folds.iter().position(|f| f.name == name) {
            Some(at) => at,
            None => {
                let start_ns = self.epoch.elapsed().as_nanos() as u64;
                parent.folds.push(Fold {
                    name,
                    at: self.spans.len(),
                    calls: 0,
                    timed_calls: 0,
                    timed_ns: 0,
                });
                self.spans.push(Span {
                    id: self.spans.len() as u32 + 1,
                    parent: parent_id,
                    op,
                    name,
                    start_ns,
                    end_ns: start_ns,
                    calls: 0,
                    self_ns: 0,
                });
                parent.folds.len() - 1
            }
        };
        let fold = &mut parent.folds[at];
        fold.calls += 1;
        (fold.calls - 1) % FOLD_TIMING_STRIDE == 0
    }

    /// Books the duration of a timed invocation of `name`.
    fn fold_end(&mut self, name: &'static str, busy_ns: u64) {
        let parent = self.open.last_mut().expect("parent still open");
        let fold = parent
            .folds
            .iter_mut()
            .find(|f| f.name == name)
            .expect("fold_begin registered the name");
        fold.timed_calls += 1;
        fold.timed_ns += busy_ns;
    }
}

/// The span sink.  Single-threaded by design: every call into a layer is
/// made from the harness thread, and the transport wrapper that records
/// child spans runs on that same thread inside `Runtime::run_until`.
pub struct Tracer {
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer; span times count from now.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(RefCell::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the operation identifier stamped on spans begun from now on.
    pub fn set_op(&self, op: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().op = op;
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else {
            return f();
        };
        inner.borrow_mut().begin(name);
        let result = f();
        inner.borrow_mut().end();
        result
    }

    /// Runs `f` as one invocation of the folded child `name` of the
    /// innermost open span (there must be one).
    pub fn fold<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else {
            return f();
        };
        if !inner.borrow_mut().fold_begin(name) {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let busy_ns = start.elapsed().as_nanos() as u64;
        inner.borrow_mut().fold_end(name, busy_ns);
        result
    }

    /// All spans recorded so far (empty when disabled).
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => {
                let inner = inner.borrow();
                assert!(inner.open.is_empty(), "spans read while one is open");
                inner.spans.clone()
            }
            None => Vec::new(),
        }
    }
}

/// Per-layer roll-up of a span set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerRow {
    /// Time inside the layer's outermost spans (entered from another
    /// layer), waiting excluded.
    pub busy_s: f64,
    /// Busy time minus what the layer's child spans cover.
    pub self_s: f64,
    /// Time in `<layer>.wait` spans: work waited for this layer.
    pub waiting_s: f64,
    /// Calls into the layer (folded calls counted individually).
    pub calls: u64,
}

/// Whether a span records waiting *for* its layer rather than work in it.
fn is_wait(name: &str) -> bool {
    name.ends_with(".wait")
}

/// Rolls spans up by layer.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let layer_by_id: BTreeMap<u32, &'static str> =
        spans.iter().map(|s| (s.id, s.layer())).collect();
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for span in spans {
        let row = table.entry(span.layer()).or_default();
        if is_wait(span.name) {
            row.waiting_s += span.duration_ns() as f64 / 1e9;
            continue;
        }
        row.self_s += span.self_ns as f64 / 1e9;
        row.calls += span.calls;
        if layer_by_id.get(&span.parent) != Some(&span.layer()) {
            row.busy_s += span.duration_ns() as f64 / 1e9;
        }
    }
    table
}

/// The [`WINDOW`] spans and everything beneath them: the part of a trace
/// that lies inside the timed window (set-up spans fall outside).
pub fn in_window(spans: &[Span]) -> Vec<Span> {
    let mut inside = std::collections::BTreeSet::new();
    let mut kept = Vec::new();
    // Parents are recorded before their children, so one pass suffices.
    for span in spans {
        if span.name == WINDOW || inside.contains(&span.parent) {
            inside.insert(span.id);
            kept.push(span.clone());
        }
    }
    kept
}

/// Summed duration, in seconds, of every span called `name`.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Summed `calls` of every span called `name`.
#[cfg(test)]
pub fn calls(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.calls)
        .sum()
}

/// Writes the spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"op\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.id, s.parent, workload, s.op, s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn nap() {
        std::thread::sleep(Duration::from_millis(2));
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let tracer = Tracer::enabled();
        tracer.span("harness.window", || {
            nap();
            tracer.span("net.drain", || {
                nap();
                tracer.span("transport.poll", nap);
            });
            tracer.span("net.issue", nap);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, drain, poll, issue) = (
            by_name("harness.window"),
            by_name("net.drain"),
            by_name("transport.poll"),
            by_name("net.issue"),
        );
        assert_eq!(root.parent, 0);
        assert_eq!(drain.parent, root.id);
        assert_eq!(poll.parent, drain.id);
        assert_eq!(issue.parent, root.id);
        assert_eq!(
            root.self_ns,
            root.duration_ns() - drain.duration_ns() - issue.duration_ns()
        );
        assert_eq!(drain.self_ns, drain.duration_ns() - poll.duration_ns());
        assert_eq!(poll.self_ns, poll.duration_ns());
        // Self times under one root add up to the root: nothing unexplained.
        let total: u64 = spans.iter().map(|s| s.self_ns).sum();
        assert_eq!(total, root.duration_ns());
    }

    #[test]
    fn folded_calls_share_one_span_per_parent() {
        let tracer = Tracer::enabled();
        for op in 0..2u64 {
            tracer.set_op(op);
            tracer.span("net.drain", || {
                for _ in 0..5 {
                    tracer.fold("transport.send", nap);
                }
                tracer.fold("transport.poll", nap);
            });
        }
        let spans = tracer.spans();
        // Two parents, each with one folded send span and one poll span.
        assert_eq!(spans.len(), 6);
        let sends: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "transport.send")
            .collect();
        assert_eq!(sends.len(), 2);
        for (send, op) in sends.iter().zip(0..) {
            assert_eq!(send.calls, 5);
            assert_eq!(send.op, op);
            let parent = spans.iter().find(|s| s.id == send.parent).unwrap();
            assert_eq!(parent.name, "net.drain");
            assert!(send.start_ns >= parent.start_ns && send.end_ns <= parent.end_ns);
            assert!(send.duration_ns() >= 5 * 2_000_000);
        }
        let drain = &spans[0];
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == drain.id)
            .map(|s| s.duration_ns())
            .sum();
        assert_eq!(drain.self_ns, drain.duration_ns() - children);
        assert_eq!(calls(&spans, "transport.send"), 10);
    }

    #[test]
    fn layer_table_separates_busy_self_and_waiting() {
        let tracer = Tracer::enabled();
        tracer.span("harness.window", || {
            tracer.span("reactor.wait", nap);
            tracer.span("net.drain", || {
                tracer.span("net.inner", nap);
                tracer.fold("transport.poll", nap);
            });
        });
        let spans = tracer.spans();
        let table = layer_table(&spans);
        let net = &table["net"];
        let drain = spans.iter().find(|s| s.name == "net.drain").unwrap();
        // `net.inner` is entered from `net`, so it adds self time, not busy.
        assert!((net.busy_s - drain.duration_ns() as f64 / 1e9).abs() < 1e-12);
        assert_eq!(net.calls, 2);
        assert!(net.self_s < net.busy_s);
        assert!(table["reactor"].waiting_s > 0.0);
        assert_eq!(table["reactor"].busy_s, 0.0);
        assert_eq!(table["transport"].calls, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let value = tracer.span("net.drain", || tracer.fold("transport.send", || 7));
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let tracer = Tracer::enabled();
        tracer.span("sim.run_round", || ());
        let dir = crate::host::out_dir().join(format!("span-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        write_jsonl(&path, "construct-uniform", &tracer.spans()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"id\":1,\"parent\":0,\"workload\":\"construct-uniform\""));
        assert!(text.contains("\"name\":\"sim.run_round\""));
    }
}
