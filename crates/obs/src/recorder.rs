//! The flight recorder: a bounded ring of recent coarse events that can
//! be dumped as JSONL when something goes wrong (panic, query/range
//! timeout, coordinator-observed worker failure), so a misbehaving run
//! leaves a post-mortem artifact instead of a bare exit code.
//!
//! Notes are coarse by design — phase transitions, exchanges per minute,
//! timeouts, connection failures — never per-message hot-path records,
//! so keeping the recorder always on costs nothing measurable.

use crate::json;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One recorded note.
#[derive(Clone, Debug)]
pub struct FlightNote {
    /// Wall-clock stamp (microseconds since the Unix epoch).
    pub wall_micros: u64,
    /// Virtual-time stamp of the runtime that noted it (ms).
    pub virtual_ms: u64,
    /// Event class (`phase`, `query_timeout`, `worker_failure`, ...).
    pub kind: &'static str,
    /// Free-form detail.
    pub detail: String,
}

impl FlightNote {
    fn to_json(&self) -> String {
        format!(
            "{{\"wall_micros\": {}, \"virtual_ms\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
            self.wall_micros,
            self.virtual_ms,
            json::escape(self.kind),
            json::escape(&self.detail)
        )
    }
}

/// A bounded ring of [`FlightNote`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<FlightNote>,
    capacity: usize,
    /// Total notes ever recorded (including evicted ones).
    noted: u64,
}

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 512;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` notes.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            noted: 0,
        }
    }

    /// Records one note, evicting the oldest when the ring is full.
    pub fn note(&mut self, virtual_ms: u64, kind: &'static str, detail: String) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        let wall_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        self.ring.push_back(FlightNote {
            wall_micros,
            virtual_ms,
            kind,
            detail,
        });
        self.noted = self.noted.saturating_add(1);
    }

    /// Notes currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total notes ever recorded (including ones the ring evicted).
    pub fn noted(&self) -> u64 {
        self.noted
    }

    /// Renders the ring as JSONL, oldest note first, preceded by one
    /// header line naming the dump `reason`.
    pub fn to_jsonl(&self, reason: &str) -> String {
        let mut out = format!(
            "{{\"flight_recorder\": \"dump\", \"reason\": \"{}\", \"notes\": {}, \"recorded_total\": {}}}\n",
            json::escape(reason),
            self.ring.len(),
            self.noted
        );
        for note in &self.ring {
            out.push_str(&note.to_json());
            out.push('\n');
        }
        out
    }

    /// Dumps the ring as JSONL to `path` (overwriting a previous dump —
    /// the latest post-mortem wins).
    pub fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl(reason).as_bytes())?;
        file.flush()
    }
}

/// A recorder shareable across threads (the panic hook needs one).
pub type SharedRecorder = Arc<Mutex<FlightRecorder>>;

/// Wraps the recorder for sharing with [`install_panic_dump`].
pub fn shared(capacity: usize) -> SharedRecorder {
    Arc::new(Mutex::new(FlightRecorder::new(capacity)))
}

/// Installs a panic hook that dumps `recorder` to `path` before the
/// previous hook runs, so a crashed process still leaves its ring behind.
pub fn install_panic_dump(recorder: SharedRecorder, path: std::path::PathBuf) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Ok(ring) = recorder.lock() {
            let _ = ring.dump_to(&path, &format!("panic: {info}"));
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_keeps_the_most_recent() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.note(i, "tick", format!("i={i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.noted(), 10);
        let jsonl = r.to_jsonl("test");
        assert!(jsonl.contains("\"detail\": \"i=9\""));
        assert!(!jsonl.contains("\"detail\": \"i=6\""));
    }

    #[test]
    fn dump_writes_header_plus_one_line_per_note() {
        let mut r = FlightRecorder::new(8);
        r.note(5, "query_timeout", "query 3 expired".to_string());
        let dir = std::env::temp_dir().join("pgrid_obs_recorder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        r.dump_to(&path, "forced timeout").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"reason\": \"forced timeout\""));
        assert!(lines[1].contains("\"kind\": \"query_timeout\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
