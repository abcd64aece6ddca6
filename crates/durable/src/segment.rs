//! The on-disk layer: checksummed append-only segment files and the
//! [`Log`] that owns a directory of them.
//!
//! ## Segment layout
//!
//! ```text
//! seg-<seq>.log
//! +--------+---------+---------+----------------------------------+
//! | magic  | version | seq     | records ...                      |
//! | "PGDL" | u16 LE  | u64 LE  |                                  |
//! +--------+---------+---------+----------------------------------+
//!
//! record = | len u32 LE | crc32 u32 LE | payload (len bytes) |
//! ```
//!
//! Segments are strictly append-only and never reopened for writing: a
//! process that restarts always starts a fresh segment with a higher
//! sequence number, so a torn tail can only exist in the last segment a
//! crashed writer touched.  Recovery scans every segment in sequence
//! order, keeps the longest prefix of records whose checksums verify,
//! and truncates the file to that prefix — a half-written record is
//! discarded, never replayed.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Magic bytes of every segment file.
pub const MAGIC: [u8; 4] = *b"PGDL";

/// On-disk format version.
pub const FORMAT_VERSION: u16 = 1;

/// Bytes of the segment header (magic + version + sequence number).
pub const SEGMENT_HEADER_LEN: u64 = 14;

/// Bytes of a record header (length + checksum).
pub const RECORD_HEADER_LEN: u64 = 8;

/// Upper bound on a single record payload; anything larger in a length
/// field is treated as tail corruption.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// Slice-by-8 tables: `CRC_TABLES[t][b]` is byte `b` advanced through
/// `t` further zero bytes, so eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    while i < 8 * 256 {
        let prev = tables[i / 256 - 1][i % 256];
        tables[i / 256][i % 256] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
        i += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)")) ^ u64::from(c);
        c = 0;
        for (t, b) in word.to_le_bytes().into_iter().enumerate() {
            c ^= CRC_TABLES[7 - t][b as usize];
        }
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:010}.log")
}

fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One sealed (read-only) segment of the manifest.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// Sequence number (replay order).
    pub seq: u64,
    /// File path.
    pub path: PathBuf,
    /// Bytes of valid data (header + verified records).
    pub bytes: u64,
    /// Number of verified records.
    pub records: u64,
}

/// Reads a segment file, handing `on_record` each payload of the longest
/// checksum-valid prefix (a slice of the one file buffer).  Returns that
/// prefix and the file's length; what lies past `bytes` is a torn tail.
///
/// A file too short to hold the header (a crash immediately after
/// creation) scans as `bytes == 0` with no records — recovery deletes
/// it.  A wrong magic or format version is real corruption and an
/// error, not a torn tail.
pub fn read_segment(
    path: PathBuf,
    mut on_record: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<(SegmentInfo, u64)> {
    let mut data = Vec::new();
    File::open(&path)?.read_to_end(&mut data)?;
    let file_len = data.len() as u64;
    let mut info = SegmentInfo {
        seq: 0,
        path,
        bytes: 0,
        records: 0,
    };
    if file_len < SEGMENT_HEADER_LEN {
        return Ok((info, file_len));
    }
    if data[0..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a segment file (bad magic)", info.path.display()),
        ));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != FORMAT_VERSION {
        let path = info.path.display();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{path}: unsupported segment version {version}"),
        ));
    }
    info.seq = u64::from_le_bytes(data[6..14].try_into().unwrap());
    let mut at = SEGMENT_HEADER_LEN as usize;
    while let Some(header) = data.get(at..at + RECORD_HEADER_LEN as usize) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break;
        }
        let start = at + RECORD_HEADER_LEN as usize;
        let Some(payload) = data.get(start..start + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        on_record(payload)?;
        info.records += 1;
        at = start + len as usize;
    }
    info.bytes = at as u64;
    Ok((info, file_len))
}

/// Pending frames are written out once they pass this size, so a burst
/// of first observations does not sit in memory until the next sync.
const FLUSH_BYTES: usize = 1 << 20;

/// A segment being written — a [`Log`]'s active one, or the checkpoint
/// [`Log::compact`] fills.  Frames collect in `pending` until a flush.
pub struct SegmentWriter {
    file: File,
    /// What the file holds once `pending` is written out.
    info: SegmentInfo,
    pending: Vec<u8>,
}

impl SegmentWriter {
    fn create(dir: &Path, seq: u64) -> io::Result<SegmentWriter> {
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&seq.to_le_bytes());
        file.write_all(&header)?;
        let info = SegmentInfo {
            seq,
            path,
            bytes: SEGMENT_HEADER_LEN,
            records: 0,
        };
        let pending = Vec::new();
        Ok(SegmentWriter {
            file,
            info,
            pending,
        })
    }

    /// Frames the payload `encode` appends to the buffer, in place: the
    /// header is reserved first, then back-patched with length and
    /// checksum.  Returns the frame's bytes; on an error nothing was added.
    pub fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        if self.pending.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        let header = self.pending.len();
        let start = header + RECORD_HEADER_LEN as usize;
        self.pending.resize(start, 0);
        encode(&mut self.pending);
        let len = self.pending.len() - start;
        assert!(
            len as u64 <= MAX_RECORD_LEN as u64,
            "record payload exceeds MAX_RECORD_LEN"
        );
        let crc = crc32(&self.pending[start..]);
        self.pending[header..header + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.pending[header + 4..start].copy_from_slice(&crc.to_le_bytes());
        self.info.bytes += RECORD_HEADER_LEN + len as u64;
        self.info.records += 1;
        Ok(RECORD_HEADER_LEN + len as u64)
    }

    /// Hands the pending frames to the file in one write.
    fn flush(&mut self) -> io::Result<()> {
        self.file.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }
}

/// Best effort: a writer dropped without a sync still hands its frames
/// to the file, but only a sync acknowledges them.
impl Drop for SegmentWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Tuning knobs of a [`Log`].
#[derive(Copy, Clone, Debug)]
pub struct LogOptions {
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
}

impl Default for LogOptions {
    fn default() -> LogOptions {
        LogOptions {
            segment_bytes: 1 << 20,
        }
    }
}

/// What [`Log::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// Record payloads replayed, oldest first.
    pub records: usize,
    /// Segments whose torn tail was truncated away.
    pub torn_truncations: usize,
    /// Headerless or empty segment files deleted during recovery.
    pub deleted_segments: usize,
}

/// What one [`Log::compact`] call reclaimed.
#[derive(Clone, Debug, Default)]
pub struct CompactOutcome {
    /// Bytes of segment data deleted.
    pub reclaimed_bytes: u64,
    /// Bytes of the freshly written checkpoint segment.
    pub checkpoint_bytes: u64,
    /// Segments deleted.
    pub segments_removed: usize,
}

/// An append-only log over a directory of segment files with an
/// in-memory manifest: the sealed segments plus the active writer.
pub struct Log {
    dir: PathBuf,
    options: LogOptions,
    sealed: Vec<SegmentInfo>,
    writer: SegmentWriter,
}

impl Log {
    /// Opens (or creates) the log in `dir`, handing `replay` every
    /// verified record payload in segment order.  Torn tails are
    /// truncated on disk; headerless files are deleted; a fresh segment
    /// is started for new appends so sealed files are never rewritten.
    pub fn open(
        dir: &Path,
        options: LogOptions,
        mut replay: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<(Log, ReplayOutcome)> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_segment_file_name(name) {
                found.push((seq, entry.path()));
            }
        }
        found.sort_by_key(|(seq, _)| *seq);

        let mut outcome = ReplayOutcome::default();
        let mut sealed = Vec::new();
        let mut max_seq = 0u64;
        for (name_seq, path) in found {
            max_seq = max_seq.max(name_seq);
            let (info, file_len) = read_segment(path, &mut replay)?;
            if info.bytes == 0 {
                // Crash before the header made it to disk: nothing to keep.
                std::fs::remove_file(&info.path)?;
                outcome.deleted_segments += 1;
                continue;
            }
            if info.bytes < file_len {
                OpenOptions::new()
                    .write(true)
                    .open(&info.path)?
                    .set_len(info.bytes)?;
                outcome.torn_truncations += 1;
            }
            outcome.records += info.records as usize;
            sealed.push(info);
        }
        let writer = SegmentWriter::create(dir, max_seq + 1)?;
        let log = Log {
            dir: dir.to_path_buf(),
            options,
            sealed,
            writer,
        };
        Ok((log, outcome))
    }

    /// Appends the record `encode` writes, rotating the active segment
    /// first when it is full.  Returns the bytes appended (frame, not payload).
    pub fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        if self.writer.info.records > 0 && self.writer.info.bytes >= self.options.segment_bytes {
            self.rotate()?;
        }
        self.writer.append(encode)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.writer.sync()?;
        let next = SegmentWriter::create(&self.dir, self.writer.info.seq + 1)?;
        self.sealed.push(self.writer.info.clone());
        self.writer = next;
        Ok(())
    }

    /// Writes the pending frames out and fsyncs the active segment,
    /// returning the latency of the fsync alone.
    pub fn sync(&mut self) -> io::Result<Duration> {
        self.writer.flush()?;
        let started = Instant::now();
        self.writer.file.sync_data()?;
        Ok(started.elapsed())
    }

    /// Rewrites the log as one checkpoint: the records `write_live`
    /// appends go into a fresh segment, every older segment is deleted,
    /// and a new empty segment becomes the active writer.
    ///
    /// Crash-safe without a manifest file because replay is
    /// last-writer-wins: a crash *before* the deletions replays the old
    /// segments first and the (possibly partial) checkpoint after, and
    /// checkpoint records are full images, so whatever prefix of the
    /// checkpoint survived simply overwrites the corresponding state.
    pub fn compact(
        &mut self,
        write_live: impl FnOnce(&mut SegmentWriter) -> io::Result<()>,
    ) -> io::Result<CompactOutcome> {
        self.writer.sync()?;
        let checkpoint_seq = self.writer.info.seq + 1;
        let mut checkpoint = SegmentWriter::create(&self.dir, checkpoint_seq)?;
        write_live(&mut checkpoint)?;
        checkpoint.sync()?;

        let mut outcome = CompactOutcome {
            checkpoint_bytes: checkpoint.info.bytes,
            ..CompactOutcome::default()
        };
        let old_tail = self.writer.info.clone();
        for old in self.sealed.drain(..).chain(std::iter::once(old_tail)) {
            outcome.reclaimed_bytes += old.bytes;
            outcome.segments_removed += 1;
            std::fs::remove_file(&old.path)?;
        }
        self.sealed.push(checkpoint.info.clone());
        self.writer = SegmentWriter::create(&self.dir, checkpoint_seq + 1)?;
        Ok(outcome)
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.writer.info.bytes
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens the log, collecting a copy of every replayed payload.
    fn open_log(dir: &Path, options: LogOptions) -> (Log, Vec<Vec<u8>>, ReplayOutcome) {
        let mut payloads = Vec::new();
        let (log, outcome) = Log::open(dir, options, |payload| {
            payloads.push(payload.to_vec());
            Ok(())
        })
        .unwrap();
        (log, payloads, outcome)
    }

    /// Appends `payload` as one record.
    fn put(log: &mut Log, payload: &[u8]) {
        log.append(|buf| buf.extend_from_slice(payload)).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgrid-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The one-byte-per-step CRC the slice-by-8 version replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // 8-aligned backing store, so `offset` is the slice's alignment.
        let words: Vec<u64> = (0..10u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5)
            .collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn appends_reach_the_file_at_sync_and_in_one_piece() {
        let dir = temp_dir("group");
        // No rotation: everything below is about one segment file.
        let options = LogOptions {
            segment_bytes: u64::MAX,
        };
        let (mut log, _, _) = open_log(&dir, options);
        let seg = dir.join(segment_file_name(1));
        for i in 0u32..100 {
            put(&mut log, &i.to_le_bytes());
        }
        // Counted, but not yet written.
        assert_eq!(log.total_bytes(), SEGMENT_HEADER_LEN + 100 * 12);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), SEGMENT_HEADER_LEN);
        log.sync().unwrap();
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), log.total_bytes());
        // A buffer past FLUSH_BYTES is written out by the next append.
        let big = vec![7u8; FLUSH_BYTES];
        put(&mut log, &big);
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            SEGMENT_HEADER_LEN + 1_200
        );
        put(&mut log, b"x");
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            log.total_bytes() - 9
        );
        // Dropping the log writes the rest out, best effort.
        drop(log);
        let (_, replayed, _) = open_log(&dir, LogOptions::default());
        assert_eq!(replayed.len(), 102);
        assert_eq!(replayed[100], big);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_sync_reopen_replays_in_order() {
        let dir = temp_dir("basic");
        let (mut log, replayed, _) = open_log(&dir, LogOptions::default());
        assert!(replayed.is_empty());
        for i in 0u32..100 {
            put(&mut log, &i.to_le_bytes());
        }
        log.sync().unwrap();
        drop(log);
        let (_, replayed, outcome) = open_log(&dir, LogOptions::default());
        assert_eq!(outcome.records, 100);
        assert_eq!(outcome.torn_truncations, 0);
        let values: Vec<u32> = replayed
            .iter()
            .map(|p| u32::from_le_bytes(p[..].try_into().unwrap()))
            .collect();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_replay_spans_them() {
        let dir = temp_dir("rotate");
        let options = LogOptions { segment_bytes: 64 };
        let (mut log, _, _) = open_log(&dir, options);
        for i in 0u32..50 {
            put(&mut log, &i.to_le_bytes());
        }
        log.sync().unwrap();
        assert!(log.segment_count() > 2, "tiny segments must rotate");
        drop(log);
        let (_, replayed, _) = open_log(&dir, options);
        assert_eq!(replayed.len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torn");
        let (mut log, _, _) = open_log(&dir, LogOptions::default());
        for i in 0u64..10 {
            put(&mut log, &i.to_le_bytes());
        }
        log.sync().unwrap();
        drop(log);
        // Corrupt the tail: chop 3 bytes off the only data segment.
        let seg = dir.join(segment_file_name(1));
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (_, replayed, outcome) = open_log(&dir, LogOptions::default());
        assert_eq!(outcome.torn_truncations, 1);
        assert_eq!(replayed.len(), 9, "only the torn record is lost");
        // The truncated file now ends exactly at the valid prefix.
        let (info, file_len) = read_segment(seg, |_| Ok(())).unwrap();
        assert_eq!(info.bytes, file_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_history_and_survives_reopen() {
        let dir = temp_dir("compact");
        let options = LogOptions { segment_bytes: 128 };
        let (mut log, _, _) = open_log(&dir, options);
        for i in 0u64..200 {
            put(&mut log, &i.to_le_bytes());
        }
        log.sync().unwrap();
        let before = log.total_bytes();
        let live: Vec<Vec<u8>> = vec![b"live-1".to_vec(), b"live-2".to_vec()];
        let outcome = log
            .compact(|checkpoint| {
                for payload in &live {
                    checkpoint.append(|buf| buf.extend_from_slice(payload))?;
                }
                Ok(())
            })
            .unwrap();
        assert!(outcome.reclaimed_bytes > 0);
        assert!(outcome.segments_removed > 0);
        assert!(log.total_bytes() < before);
        assert_eq!(log.segment_count(), 2, "checkpoint + fresh active segment");
        drop(log);
        let (_, replayed, _) = open_log(&dir, options);
        assert_eq!(replayed, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
