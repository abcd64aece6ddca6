//! `wire`: two `ReactorTransport`s in one process, every frame crossing a
//! real socket on 127.0.0.1 (the loopback interface, not a link).  One
//! harness thread sends 194-byte `Exchange` frames round-robin to the
//! peers the other transport hosts, keeps at most 256 in flight, and
//! sleeps 100 µs on an empty `poll`.  The op is one frame; its time runs
//! from `send` to the `poll` that returns it.

use super::{check, CheckFailed, Context, RunConfig, UnitClock, Window};
use crate::host::{calibrate_ns, CpuTime};
use crate::probes;
use crate::span::{self, Tracer};
use crate::stats::Samples;
use bytes::Bytes;
use pgrid_core::key::{DataEntry, DataId, Key};
use pgrid_core::path::Path;
use pgrid_core::routing::PeerId;
use pgrid_net::message::Message;
use pgrid_reactor::{ReactorConfig, ReactorTransport};
use pgrid_transport::frame::{decode_frame, encode_frame};
use pgrid_transport::{PeerAddr, SocketTransport, Transport};
use std::time::{Duration, Instant};

/// Frames in flight before the sender waits for deliveries.
const IN_FLIGHT: u64 = 256;
/// Frames sent across during set-up, before the window.
const WARM_UP_FRAMES: u64 = 4 * IN_FLIGHT;
/// Pause after a `poll` that returned nothing.
const EMPTY_POLL_SLEEP: Duration = Duration::from_micros(100);
/// A window in which nothing arrives for this long has lost its frames.
const STALL: Duration = Duration::from_secs(10);
/// One frame in this many contributes a latency sample.
const LATENCY_STRIDE: u64 = 4;
/// Send/poll rounds grouped under one parent span.
const ROUNDS_PER_GROUP: usize = 256;
/// Frames kept for the codec and mux replay probes.
const PROBE_FRAMES: usize = 64 << 10;

pub struct Sizes {
    pub peers: u64,
    pub frames: u64,
    /// Entries per `Exchange` frame: 10 gives the 194-byte frame.
    pub entries: usize,
    pub setups: usize,
    /// The traced run's extra window of ≈6.4 KB frames.
    pub large_frames: u64,
    pub large_entries: usize,
}

impl Sizes {
    pub fn new(config: &RunConfig) -> Sizes {
        Sizes {
            peers: if config.quick { 200 } else { 1_000 },
            // ≈320 k frames/s on the reference host.
            frames: u64::from(config.seconds) * 320_000,
            entries: 10,
            // A set-up takes a few milliseconds; many repeats keep their
            // median steady.
            setups: 21,
            large_frames: if config.quick { 5_000 } else { 100_000 },
            large_entries: 400,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} frames of {} B round-robin to {} peers behind one reactor (n_event_threads 1 \
             each side), <= {IN_FLIGHT} in flight, 127.0.0.1 loopback interface",
            self.frames,
            FrameTemplate::new(self.entries).len(),
            self.peers
        )
    }
}

/// An `Exchange` frame whose last entry carries a sequence number (in its
/// `DataId`) and a checksum of the whole frame (in its `Key`).
///
/// The frame is built once through the public codecs; each send patches
/// the two fields in a copy.  Where the fields sit is found by encoding
/// the frame with different values and comparing, and confirmed by
/// decoding a patched frame through the public decoders — a codec change
/// that moves or resizes them fails the run instead of corrupting it.
struct FrameTemplate {
    bytes: Vec<u8>,
    seq_at: usize,
    sum_at: usize,
}

impl FrameTemplate {
    fn encode(entries: usize, sum: u64, seq: u64) -> Bytes {
        let mut batch: Vec<DataEntry> = (1..entries)
            .map(|j| {
                DataEntry::new(
                    Key::from_fraction(j as f64 / entries as f64),
                    DataId(j as u64),
                )
            })
            .collect();
        batch.push(DataEntry::new(Key(sum), DataId(seq)));
        let message = Message::Exchange {
            from: PeerId(0),
            path: Path::parse("0101"),
            entries: batch,
        };
        encode_frame(std::slice::from_ref(&message.encode()))
    }

    /// Offset of the 8 bytes that differ between two encodings.
    fn field_offset(zero: &[u8], ones: &[u8]) -> usize {
        assert_eq!(
            zero.len(),
            ones.len(),
            "frame length depends on field values"
        );
        let differing: Vec<usize> = (0..zero.len()).filter(|&i| zero[i] != ones[i]).collect();
        let at = differing[0];
        assert!(
            differing.len() == 8 && differing[7] == at + 7 && ones[at..at + 8] == [0xFF; 8],
            "the message codec no longer stores this field as 8 fixed bytes"
        );
        at
    }

    fn new(entries: usize) -> FrameTemplate {
        let zero = FrameTemplate::encode(entries, 0, 0);
        let template = FrameTemplate {
            sum_at: Self::field_offset(
                zero.as_slice(),
                FrameTemplate::encode(entries, u64::MAX, 0).as_slice(),
            ),
            seq_at: Self::field_offset(
                zero.as_slice(),
                FrameTemplate::encode(entries, 0, u64::MAX).as_slice(),
            ),
            bytes: zero.as_slice().to_vec(),
        };
        // A patched frame must read back through the public decoders.
        let seq = 0x0102_0304_0506_0708;
        let frame = template.stamp(seq);
        let payloads = decode_frame(&frame).expect("template frame decodes");
        let Some(Message::Exchange { entries, .. }) = Message::decode(payloads[0].clone()) else {
            panic!("template frame does not decode to an Exchange message");
        };
        let last = entries.last().expect("template has entries");
        assert_eq!(
            last.id,
            DataId(seq),
            "sequence number not where it was patched"
        );
        assert_eq!(template.verify(frame.as_slice()), Some(seq));
        template
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Word-wise multiplicative hash of the frame without its checksum
    /// field.
    fn checksum(&self, frame: &[u8]) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for part in [&frame[..self.sum_at], &frame[self.sum_at + 8..]] {
            let mut words = part.chunks_exact(8);
            for word in &mut words {
                let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                h = (h ^ word)
                    .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
                    .rotate_left(29);
            }
            for &byte in words.remainder() {
                h = (h ^ u64::from(byte)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
        }
        h
    }

    /// The frame carrying sequence number `seq`.
    fn stamp(&self, seq: u64) -> Bytes {
        let mut frame = self.bytes.clone();
        frame[self.seq_at..self.seq_at + 8].copy_from_slice(&seq.to_be_bytes());
        let sum = self.checksum(&frame);
        frame[self.sum_at..self.sum_at + 8].copy_from_slice(&sum.to_be_bytes());
        Bytes::from(frame)
    }

    /// The sequence number of an intact frame, `None` for a corrupted one.
    fn verify(&self, frame: &[u8]) -> Option<u64> {
        if frame.len() != self.bytes.len() {
            return None;
        }
        let field = |at: usize| u64::from_be_bytes(frame[at..at + 8].try_into().expect("8 bytes"));
        (field(self.sum_at) == self.checksum(frame)).then(|| field(self.seq_at))
    }
}

struct Pair {
    host: ReactorTransport,
    sender: ReactorTransport,
    register_ns_per_peer: f64,
}

/// Two started transports, every hosted peer known to the sender by
/// address, and the connection up and warm.
fn set_up(peers: u64, template: &FrameTemplate) -> Pair {
    let config = ReactorConfig {
        n_event_threads: 1,
        ..ReactorConfig::default()
    };
    let mut host = ReactorTransport::with_config(config);
    let mut sender = ReactorTransport::with_config(config);
    let start = Instant::now();
    let addrs: Vec<_> = (0..peers)
        .map(|p| match host.register(PeerId(p)).expect("host register") {
            PeerAddr::Socket(addr) => addr,
            PeerAddr::Local(_) => unreachable!("the reactor hands out socket addresses"),
        })
        .collect();
    let register_ns_per_peer = start.elapsed().as_nanos() as f64 / peers as f64;
    sender
        .register(PeerId(u64::MAX - 1))
        .expect("sender register");
    for (p, addr) in addrs.iter().enumerate() {
        sender
            .register_remote(PeerId(p as u64), *addr)
            .expect("register_remote");
    }
    // The connection comes up and the write path warms on frames that are
    // all consumed here; the window starts its own sequence at 0.
    for i in 0..WARM_UP_FRAMES {
        sender
            .send(0, PeerId(i % peers), template.stamp(u64::MAX - i))
            .expect("warm-up send");
    }
    let deadline = Instant::now() + STALL;
    let mut arrived = 0;
    while arrived < WARM_UP_FRAMES {
        let batch = host.poll(u64::MAX).len() as u64;
        if batch == 0 {
            assert!(Instant::now() < deadline, "warm-up frames never arrived");
            std::thread::sleep(EMPTY_POLL_SLEEP);
        }
        arrived += batch;
    }
    Pair {
        host,
        sender,
        register_ns_per_peer,
    }
}

#[derive(Default)]
struct Pumped {
    wall_s: f64,
    cpu: CpuTime,
    sent: u64,
    delivered: u64,
    /// Frames that arrived corrupted, misrouted or out of order.
    bad: u64,
    send_errors: u64,
    empty_polls: u64,
    /// One unit per group of rounds: identical frames, identical work.
    clock: UnitClock,
    /// Send-to-poll time of sampled frames, in microseconds, and where the
    /// samples of each closed unit end.
    latency_us: Vec<f64>,
    latency_ends: Vec<usize>,
    write_queue_peak_bytes: u64,
    sample: Vec<Bytes>,
}

/// Sends `frames` frames through the pair and checks every delivery.
fn pump(
    pair: &mut Pair,
    template: &FrameTemplate,
    frames: u64,
    peers: u64,
    tracer: &Tracer,
) -> Pumped {
    let Pair { host, sender, .. } = pair;
    let mut out = Pumped {
        latency_us: Vec::with_capacity((frames / LATENCY_STRIDE) as usize + 1),
        ..Pumped::default()
    };
    let mut clock = UnitClock::default();
    let mut stamps = vec![Instant::now(); IN_FLIGHT as usize];
    // Frames to one destination are `peers` apart and must arrive in order.
    let mut next_for: Vec<u64> = (0..peers).collect();
    let mut last_progress = Instant::now();
    let mut group = 0u64;

    let cpu_start = CpuTime::now();
    let start = Instant::now();
    'window: while out.delivered + out.bad < frames {
        tracer.set_op(group);
        group += 1;
        let delivered_before = out.delivered;
        let stalled = clock.time(|| {
            tracer.span("harness.group", || {
                for _ in 0..ROUNDS_PER_GROUP {
                    while out.sent < frames
                        && out.sent.saturating_sub(out.delivered + out.bad) < IN_FLIGHT
                    {
                        let frame = template.stamp(out.sent);
                        let to = PeerId(out.sent % peers);
                        stamps[(out.sent % IN_FLIGHT) as usize] = Instant::now();
                        if tracer
                            .fold("reactor.send", || sender.send(0, to, frame))
                            .is_err()
                        {
                            out.send_errors += 1;
                            out.bad += 1;
                        }
                        out.sent += 1;
                    }
                    let arrived = tracer.fold("reactor.poll", || host.poll(u64::MAX));
                    if arrived.is_empty() {
                        if out.delivered + out.bad >= frames {
                            return false;
                        }
                        if last_progress.elapsed() > STALL {
                            return true;
                        }
                        out.empty_polls += 1;
                        tracer.span("reactor.wait", || std::thread::sleep(EMPTY_POLL_SLEEP));
                        continue;
                    }
                    let now = Instant::now();
                    last_progress = now;
                    for (to, frame) in arrived {
                        let expected = next_for.get(to.0 as usize).copied();
                        match template.verify(frame.as_slice()) {
                            Some(seq) if Some(seq) == expected => {
                                next_for[to.0 as usize] += peers;
                                out.delivered += 1;
                                if seq % LATENCY_STRIDE == 0 {
                                    let sent_at = stamps[(seq % IN_FLIGHT) as usize];
                                    out.latency_us
                                        .push(now.duration_since(sent_at).as_nanos() as f64 / 1e3);
                                }
                                if tracer.is_enabled() && out.sample.len() < PROBE_FRAMES {
                                    out.sample.push(frame);
                                }
                            }
                            _ => out.bad += 1,
                        }
                    }
                }
                if tracer.is_enabled() {
                    let queued = sender.stats().reactor.map_or(0, |r| r.write_queue_bytes);
                    out.write_queue_peak_bytes = out.write_queue_peak_bytes.max(queued);
                }
                false
            })
        });
        if out.delivered > delivered_before {
            clock.close_unit(out.delivered - delivered_before);
            out.latency_ends.push(out.latency_us.len());
        }
        if stalled {
            break 'window;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu = CpuTime::now().since(cpu_start);
    out.clock = clock;
    out
}

impl Pumped {
    /// The send-to-poll times of the frames delivered in quiet units.
    fn quiet_latency_us(&self, is_quiet: &[bool]) -> Samples {
        let mut quiet = Vec::new();
        let mut start = 0;
        for (&end, &is_quiet) in self.latency_ends.iter().zip(is_quiet) {
            if is_quiet {
                quiet.extend_from_slice(&self.latency_us[start..end]);
            }
            start = end;
        }
        Samples::from(quiet)
    }
}

pub fn run(ctx: &mut Context<'_>) -> Result<Window, CheckFailed> {
    check(pgrid_reactor::supported(), || {
        "the reactor transport needs Linux epoll".to_string()
    })?;
    let sizes = Sizes::new(ctx.config);
    let template = FrameTemplate::new(sizes.entries);
    let tracer = ctx.tracer.clone();

    let setups = if ctx.traced() { 1 } else { sizes.setups };
    let mut setups_s = Vec::with_capacity(setups);
    let mut pair = None;
    for _ in 0..setups {
        // Dropping a transport joins its event threads.
        drop(pair.take());
        let start = Instant::now();
        let ready = set_up(sizes.peers, &template);
        setups_s.push(start.elapsed().as_secs_f64());
        pair = Some(ready);
    }
    let mut pair = pair.expect("at least one set-up ran");

    let host_before = pair.host.stats();
    let sender_before = pair.sender.stats();
    let calib_ns_before = calibrate_ns();
    let pumped = tracer.span(span::WINDOW, || {
        pump(&mut pair, &template, sizes.frames, sizes.peers, &tracer)
    });
    let calib_ns_after = calibrate_ns();
    let host_after = pair.host.stats();
    let sender_after = pair.sender.stats();

    let lost = sizes.frames.saturating_sub(pumped.delivered + pumped.bad);
    check(lost == 0 && pumped.bad == 0, || {
        format!(
            "{} of {} frames delivered intact and in order; {} lost, {} corrupted, misrouted, \
             reordered or refused ({} send errors)",
            pumped.delivered, sizes.frames, lost, pumped.bad, pumped.send_errors
        )
    })?;
    let bytes_delivered = host_after.bytes_delivered - host_before.bytes_delivered;
    check(
        host_after.frames_delivered - host_before.frames_delivered == sizes.frames,
        || "the transport's delivered-frame count disagrees with the harness".to_string(),
    )?;

    let reactor = |after: &pgrid_transport::TransportStats,
                   before: &pgrid_transport::TransportStats,
                   field: fn(&pgrid_transport::ReactorStats) -> u64| {
        let read = |s: &pgrid_transport::TransportStats| s.reactor.as_ref().map_or(0, field);
        (read(after) - read(before)) as f64
    };
    let layer = &mut *ctx.layer;
    layer.set("reactor.register_ns_per_peer", pair.register_ns_per_peer);
    layer.set("reactor.empty_polls", pumped.empty_polls as f64);
    layer.set(
        "reactor.epoll_wakeups_per_kframe",
        (reactor(&host_after, &host_before, |r| r.epoll_wakeups)
            + reactor(&sender_after, &sender_before, |r| r.epoll_wakeups))
            / sizes.frames as f64
            * 1_000.0,
    );
    layer.set(
        "reactor.partial_writes",
        reactor(&sender_after, &sender_before, |r| r.partial_writes),
    );
    layer.set(
        "reactor.sys_cpu_share",
        pumped.cpu.sys_s / pumped.cpu.total_s().max(f64::MIN_POSITIVE),
    );
    let timed = pumped.clock.quiet();
    let latency_us = pumped.quiet_latency_us(&timed.is_quiet);
    layer.set("reactor.frame_p99_us", latency_us.percentile(99.0));
    layer.set("host.median_unit_slowdown", timed.median_unit_slowdown);

    if tracer.is_enabled() {
        let spans = tracer.spans();
        layer.set("reactor.send_busy_s", span::busy_s(&spans, "reactor.send"));
        layer.set("reactor.poll_busy_s", span::busy_s(&spans, "reactor.poll"));
        layer.set(
            "reactor.write_queue_peak_bytes",
            pumped.write_queue_peak_bytes as f64,
        );
        probes::codecs(&pumped.sample, layer);
        probes::mux(&pumped.sample, layer);

        // The same pump with ≈6.4 KB frames: a small-frame gain must not
        // cost bytes per second.  Fresh transports, so the sequence
        // numbers start over.
        drop(pair);
        let large = FrameTemplate::new(sizes.large_entries);
        let mut pair = set_up(sizes.peers, &large);
        let pumped = pump(
            &mut pair,
            &large,
            sizes.large_frames,
            sizes.peers,
            &Tracer::disabled(),
        );
        check(pumped.delivered == sizes.large_frames, || {
            format!(
                "large frames: {} of {} delivered intact and in order",
                pumped.delivered, sizes.large_frames
            )
        })?;
        layer.set(
            "reactor.large_frame_mib_per_s",
            (pumped.delivered * large.len() as u64) as f64 / (1 << 20) as f64 / pumped.wall_s,
        );
    }

    Ok(Window {
        setups_s,
        elapsed_s: pumped.wall_s,
        wall_s: timed.wall_s,
        cpu_s: timed.cpu_s,
        ops_attempted: sizes.frames,
        ops_failed: 0,
        ops_timed: timed.ops,
        unit_us: latency_us,
        bytes_per_op: bytes_delivered as f64 / sizes.frames as f64,
        flushes: 0,
        calib_ns_before,
        calib_ns_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_small_frame_is_194_bytes_and_round_trips() {
        let template = FrameTemplate::new(10);
        assert_eq!(template.len(), 194);
        let frame = template.stamp(77);
        assert_eq!(template.verify(frame.as_slice()), Some(77));
    }

    #[test]
    fn a_flipped_bit_anywhere_fails_the_checksum() {
        let template = FrameTemplate::new(10);
        let frame = template.stamp(5).as_slice().to_vec();
        for at in 0..frame.len() {
            let mut corrupted = frame.clone();
            corrupted[at] ^= 0x10;
            // A flip inside the sequence field yields a different, still
            // consistent-looking number only if the checksum also matches.
            assert_ne!(template.verify(&corrupted), Some(5), "flip at byte {at}");
        }
        assert_eq!(template.verify(&frame[..frame.len() - 1]), None);
    }

    #[test]
    fn an_out_of_order_frame_is_counted_bad() {
        let template = FrameTemplate::new(10);
        let mut pair = set_up(4, &template);
        // Frame 4 reaches peer 0 before frame 0 does.
        pair.sender.send(0, PeerId(0), template.stamp(4)).unwrap();
        let pumped = pump(&mut pair, &template, 8, 4, &Tracer::disabled());
        assert_eq!(pumped.bad, 1);
        // The window closes once eight frames are accounted for, good or bad.
        assert!(pumped.delivered >= 7);
    }
}
