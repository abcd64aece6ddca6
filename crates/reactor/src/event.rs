//! The reactor event threads.
//!
//! Each thread owns one epoll instance plus every socket sharded onto it:
//! thread 0 additionally owns the shared listener, outbound connections
//! land on `hash(remote addr) % n_threads`, and accepted inbound
//! connections are dealt round-robin.  Everything is edge-triggered
//! (`EPOLLET`): readiness is latched into per-connection `readable` /
//! `writable` flags and serviced until `EAGAIN`, with partial writes
//! resuming from a per-connection cursor when `EPOLLOUT` fires again.
//!
//! The loop never blocks on anything but `epoll_wait`: a full inbox pauses
//! reading (retried on a short tick or when the caller's poll rings the
//! waker), and reconnects are driven by a timer list with capped
//! exponential backoff plus deterministic jitter ([`backoff_delay`]).
//!
//! **A frame pays a share of a batch's syscalls and locks, not its own.**
//! The write queue is taken up to [`BATCH_BYTES`] of records at a time
//! under one short lock (pairs are moved, nothing is encoded under it),
//! encoded into the out-buffer and handed to one `write`; a read's worth
//! of records is parsed into a connection-local queue and moved into the
//! inbox under one lock.  When a connection dies mid-batch the one record
//! the cursor cut in half is lost; the records behind it go back to the
//! head of the link queue ([`split_batch`]).
//!
//! **Park/wake.**  A sender rings the eventfd only when the thread is
//! parked: the thread stores `parked = true`, *then* looks once more at
//! what a caller can hand it (stop flag, command mailbox, write queues of
//! writable connections) and blocks only if that look found nothing; the
//! sender publishes its work first and then does
//! `if parked.swap(false) { ring }`.  Work published before the look is
//! seen by it; work published after it finds the flag set and rings — both
//! sides go through the mailbox or queue mutex, which orders the look
//! against the push.  The idle timeout is therefore never what delivers a
//! frame.  The rare rings (an accepted connection, `poll` freeing a full
//! inbox, shutdown) stay unconditional, which is always safe.

use crate::linux::{lock, Command, Link, Shared, ThreadShared};
use crate::mux::{encode_record, MuxError, MuxReader, KIND_RAW, RECORD_HEADER};
use crate::sys::{
    accept_nonblocking, close_fd, connect_nonblocking, read_fd, set_nodelay, take_socket_error,
    write_fd, Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::os::fd::RawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dial attempts before a link is declared failed.  A refused dial is
/// retried after [`backoff_delay`], so a listener that is still coming up
/// during startup — or restarting while a shard is reassigned — does not
/// make the first send fatal.
const CONNECT_ATTEMPTS: u32 = 3;

/// First reconnect backoff in milliseconds; doubles per attempt.
const CONNECT_BACKOFF_MS: u64 = 5;

/// Backoff cap in milliseconds.
const CONNECT_BACKOFF_CAP_MS: u64 = 40;

/// Idle `epoll_wait` bound: shutdown and command delivery are eventfd
/// driven, so this only caps how stale the timer scan can get.
const IDLE_TIMEOUT_MS: i32 = 500;

/// Retry tick while any connection is paused on a full inbox.
const INBOX_RETRY_MS: i32 = 5;

/// Encoded bytes one refill takes from a write queue (and one `read`
/// asks for): a batch always holds one record, then whole records up to
/// this.
const BATCH_BYTES: usize = 64 * 1024;

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// The reconnect backoff before dial `attempt`: doubling from
/// [`CONNECT_BACKOFF_MS`] up to [`CONNECT_BACKOFF_CAP_MS`], plus up to half
/// of it again as jitter derived from the address and the attempt (no RNG
/// state, so nothing observable by parity tests is consumed).
fn backoff_delay(addr: SocketAddr, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let delay_ms = (CONNECT_BACKOFF_MS << exp).min(CONNECT_BACKOFF_CAP_MS);
    let mut j = u64::from(addr.port()) ^ ((u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9));
    j ^= j << 13;
    j ^= j >> 7;
    j ^= j << 17;
    Duration::from_millis(delay_ms + j % (delay_ms / 2 + 1))
}

/// Where the write cursor `out_pos` left a batch encoded back to back from
/// offset 0: `(written, cut)` — records wholly on the wire, and whether
/// the next one is cut in half.  The records after those were not started.
/// A buffer holding only the hello has an empty batch.
fn split_batch(batch: &[(u64, Bytes)], out_pos: usize) -> (usize, bool) {
    let mut end = 0;
    for (written, (_, frame)) in batch.iter().enumerate() {
        let start = end;
        end += RECORD_HEADER + frame.len();
        if end > out_pos {
            return (written, start < out_pos);
        }
    }
    (batch.len(), false)
}

/// One connection owned by an event thread.
struct Conn {
    fd: RawFd,
    /// `Some` for outbound connections: the write queue this socket
    /// drains.  Inbound connections only read.
    link: Option<Arc<Link>>,
    /// Non-blocking connect still in flight (awaiting `EPOLLOUT`).
    connecting: bool,
    /// Peer hello received; resets the reconnect budget.
    established: bool,
    reader: MuxReader,
    /// Parsed records the inbox had no room for yet, oldest first.
    parsed: VecDeque<(u64, Bytes)>,
    /// The records encoded in `out_buf`, kept until the next refill so a
    /// dying connection can give back the ones it never started.
    batch: Vec<(u64, Bytes)>,
    out_buf: Vec<u8>,
    out_pos: usize,
    writable: bool,
    readable: bool,
    /// Reading stopped because the inbox was full; records wait in `parsed`.
    paused_on_inbox: bool,
    /// Dial attempt this connection represents (outbound, pre-hello).
    attempt: u32,
}

impl Conn {
    fn new(fd: RawFd, link: Option<Arc<Link>>, connecting: bool, attempt: u32) -> Conn {
        Conn {
            fd,
            link,
            connecting,
            established: false,
            reader: MuxReader::new(),
            parsed: VecDeque::new(),
            batch: Vec::new(),
            out_buf: Vec::new(),
            out_pos: 0,
            writable: false,
            readable: false,
            paused_on_inbox: false,
            attempt,
        }
    }
}

/// One event thread's whole world.
pub(crate) struct EventLoop {
    index: usize,
    epoll: Epoll,
    shared: Arc<Shared>,
    threads: Arc<Vec<Arc<ThreadShared>>>,
    listener: Option<RawFd>,
    conns: HashMap<u64, Conn>,
    by_addr: HashMap<SocketAddr, u64>,
    next_token: u64,
    /// Scheduled redials: `(due, link, attempt)`.
    timers: Vec<(Instant, Arc<Link>, u32)>,
    /// Round-robin target for accepted connections (thread 0 only).
    next_inbound: usize,
    /// Every connection's `read` lands here before its reader copies it.
    read_buf: Vec<u8>,
}

impl EventLoop {
    pub(crate) fn new(
        index: usize,
        shared: Arc<Shared>,
        threads: Arc<Vec<Arc<ThreadShared>>>,
        listener: Option<RawFd>,
    ) -> std::io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        epoll.add(threads[index].waker.fd(), EPOLLIN, TOKEN_WAKER)?;
        shared.registered_fds.fetch_add(1, Ordering::Relaxed);
        if let Some(fd) = listener {
            epoll.add(fd, EPOLLIN, TOKEN_LISTENER)?;
            shared.registered_fds.fetch_add(1, Ordering::Relaxed);
        }
        Ok(EventLoop {
            index,
            epoll,
            shared,
            threads,
            listener,
            conns: HashMap::new(),
            by_addr: HashMap::new(),
            next_token: TOKEN_BASE,
            timers: Vec::new(),
            next_inbound: 0,
            read_buf: vec![0; BATCH_BYTES],
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        loop {
            // Park protocol (module docs): flag, look again, only then block.
            let me = &self.threads[self.index];
            me.parked.store(true, Ordering::SeqCst);
            let timeout = if self.handed_work() {
                0
            } else {
                self.compute_timeout()
            };
            let n = self.epoll.wait(&mut events, timeout);
            me.parked.store(false, Ordering::SeqCst);
            let Ok(n) = n else {
                break;
            };
            if n > 0 {
                self.shared.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            for event in events.iter().take(n) {
                let token = event.data;
                let bits = event.events;
                match token {
                    TOKEN_WAKER => self.threads[self.index].waker.drain(),
                    TOKEN_LISTENER => self.accept_all(),
                    _ => self.note_readiness(token, bits),
                }
            }
            self.drain_commands();
            self.fire_timers();
            self.service_all();
        }
        self.shutdown();
    }

    /// Whether the caller has published work this thread has not picked up.
    fn handed_work(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
            || !lock(&self.threads[self.index].commands).is_empty()
            || self.conns.values().any(|conn| {
                conn.link.as_ref().is_some_and(|link| {
                    conn.writable && !conn.connecting && !lock(&link.queue).frames.is_empty()
                })
            })
    }

    fn compute_timeout(&self) -> i32 {
        let mut timeout = IDLE_TIMEOUT_MS;
        if self.conns.values().any(|c| c.paused_on_inbox) {
            timeout = INBOX_RETRY_MS;
        }
        if let Some(due) = self.timers.iter().map(|(due, _, _)| *due).min() {
            let until = due
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(i32::MAX as u128) as i32;
            timeout = timeout.min(until.max(0));
        }
        timeout
    }

    /// Latches epoll readiness bits into the connection's flags; actual I/O
    /// happens in [`EventLoop::service_all`].
    fn note_readiness(&mut self, token: u64, bits: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.connecting && bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
            match take_socket_error(conn.fd) {
                Ok(()) => {
                    conn.connecting = false;
                    conn.writable = true;
                    set_nodelay(conn.fd);
                    conn.out_buf = crate::mux::hello().to_vec();
                    conn.out_pos = 0;
                }
                Err(_) => {
                    self.close_conn(token, true);
                }
            }
            return;
        }
        if bits & EPOLLOUT != 0 {
            conn.writable = true;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            conn.readable = true;
        }
    }

    fn accept_all(&mut self) {
        let Some(listener) = self.listener else {
            return;
        };
        loop {
            match accept_nonblocking(listener) {
                Ok(Some(fd)) => {
                    let target = self.next_inbound % self.threads.len();
                    self.next_inbound = self.next_inbound.wrapping_add(1);
                    if target == self.index {
                        self.adopt_inbound(fd);
                    } else {
                        lock(&self.threads[target].commands).push(Command::Inbound(fd));
                        self.threads[target].waker.ring();
                    }
                }
                Ok(None) => return,
                Err(_) => return,
            }
        }
    }

    fn adopt_inbound(&mut self, fd: RawFd) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(fd, EPOLLIN | EPOLLOUT | EPOLLET, token)
            .is_err()
        {
            close_fd(fd);
            return;
        }
        set_nodelay(fd);
        self.shared.registered_fds.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn::new(fd, None, false, 0);
        conn.writable = true;
        conn.out_buf = crate::mux::hello().to_vec();
        self.conns.insert(token, conn);
    }

    fn drain_commands(&mut self) {
        let commands = std::mem::take(&mut *lock(&self.threads[self.index].commands));
        for command in commands {
            match command {
                Command::Dial(link) => {
                    if !self.by_addr.contains_key(&link.addr) {
                        self.dial(link, 0);
                    }
                }
                Command::Inbound(fd) => self.adopt_inbound(fd),
            }
        }
    }

    fn dial(&mut self, link: Arc<Link>, attempt: u32) {
        if self.shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match connect_nonblocking(link.addr) {
            Ok((fd, connected)) => {
                let token = self.next_token;
                self.next_token += 1;
                if self
                    .epoll
                    .add(fd, EPOLLIN | EPOLLOUT | EPOLLET, token)
                    .is_err()
                {
                    close_fd(fd);
                    self.redial_later(link, attempt);
                    return;
                }
                self.shared.registered_fds.fetch_add(1, Ordering::Relaxed);
                let addr = link.addr;
                let mut conn = Conn::new(fd, Some(link), !connected, attempt);
                if connected {
                    set_nodelay(fd);
                    conn.writable = true;
                    conn.out_buf = crate::mux::hello().to_vec();
                }
                self.conns.insert(token, conn);
                self.by_addr.insert(addr, token);
            }
            Err(_) => self.redial_later(link, attempt),
        }
    }

    /// Runs the reconnect policy after attempt `attempt` failed.
    fn redial_later(&mut self, link: Arc<Link>, attempt: u32) {
        let next = attempt + 1;
        if next >= CONNECT_ATTEMPTS {
            self.fail_link(&link);
            return;
        }
        self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
        self.timers
            .push((Instant::now() + backoff_delay(link.addr, next), link, next));
    }

    /// Declares a link dead: drops whatever is queued (the protocol
    /// tolerates loss; the runtime's link life-cycle sees the failure on
    /// the caller's next send) and releases ownership so that send can
    /// re-dial.
    fn fail_link(&mut self, link: &Arc<Link>) {
        let dropped = {
            let mut queue = lock(&link.queue);
            queue.failed = true;
            let dropped = queue.frames.len() as u64;
            queue.frames.clear();
            queue.bytes = 0;
            link.notify_space(&queue);
            dropped
        };
        if dropped > 0 {
            self.shared
                .dropped_frames
                .fetch_add(dropped, Ordering::Relaxed);
        }
        link.active.store(false, Ordering::SeqCst);
        pgrid_obs::warn!(
            "reactor",
            "link to {} failed after {} connect attempts ({} queued frames dropped)",
            link.addr,
            CONNECT_ATTEMPTS,
            dropped
        );
    }

    fn fire_timers(&mut self) {
        if self.timers.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        self.timers.retain(|(at, link, attempt)| {
            if *at <= now {
                due.push((link.clone(), *attempt));
                false
            } else {
                true
            }
        });
        for (link, attempt) in due {
            let closed = lock(&link.queue).closed;
            if !closed && !self.by_addr.contains_key(&link.addr) {
                self.dial(link, attempt);
            }
        }
    }

    fn service_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if self.service_read(token) {
                let _ = self.service_write(token);
            }
        }
    }

    /// Reads and parses as much as the socket and the inbox allow.
    /// Returns `false` when the connection was closed.
    fn service_read(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            // Parse buffered bytes first: hello, then records.
            if Self::deliver(&self.shared, conn).is_err() {
                self.close_conn(token, true);
                return false;
            }
            if conn.paused_on_inbox || !conn.readable {
                return true;
            }
            match read_fd(conn.fd, &mut self.read_buf) {
                Ok(0) => {
                    self.close_conn(token, true);
                    return false;
                }
                Ok(n) => conn.reader.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.readable = false;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, true);
                    return false;
                }
            }
        }
    }

    /// Past the peer's hello, parses every complete record out of the
    /// reader, then moves as many as the inbox has room for under one lock;
    /// the rest wait in `conn.parsed` with the connection paused.
    fn deliver(shared: &Shared, conn: &mut Conn) -> Result<(), MuxError> {
        if !conn.established {
            let Some(_reserved_flags) = conn.reader.take_hello()? else {
                return Ok(());
            };
            conn.established = true;
            conn.attempt = 0;
        }
        let parsed = loop {
            match conn.reader.next_record() {
                Ok(Some((_kind, dest, frame))) => conn.parsed.push_back((dest, frame)),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        if !conn.parsed.is_empty() {
            let mut inbox = lock(&shared.inbox);
            let room = shared.inbox_capacity.saturating_sub(inbox.len());
            inbox.extend(conn.parsed.drain(..room.min(conn.parsed.len())));
        }
        conn.paused_on_inbox = !conn.parsed.is_empty();
        // A corrupt record stays at the reader's cursor: it is reported once
        // the intact records before it have been delivered.
        if conn.paused_on_inbox {
            return Ok(());
        }
        parsed
    }

    /// Flushes the out-buffer and refills it from the link's write queue.
    /// Returns `false` when the connection was closed.
    fn service_write(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.connecting || !conn.writable {
                return true;
            }
            if conn.out_pos == conn.out_buf.len() && !Self::refill_out_buf(conn) {
                return true;
            }
            let remaining = conn.out_buf.len() - conn.out_pos;
            match write_fd(conn.fd, &conn.out_buf[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token, true);
                    return false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    if n < remaining {
                        self.shared.partial_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.writable = false;
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, true);
                    return false;
                }
            }
        }
    }

    /// Moves the next batch off the link's write queue and encodes it into
    /// the out-buffer.  Returns whether there is anything to write.
    fn refill_out_buf(conn: &mut Conn) -> bool {
        conn.out_buf.clear();
        conn.out_pos = 0;
        conn.batch.clear();
        // Inbound connections only ever write their hello.
        let Some(link) = &conn.link else {
            return false;
        };
        {
            let mut queue = lock(&link.queue);
            let mut encoded = 0;
            while let Some((_, frame)) = queue.frames.front() {
                encoded += RECORD_HEADER + frame.len();
                if encoded > BATCH_BYTES && !conn.batch.is_empty() {
                    break;
                }
                queue.bytes -= frame.len();
                conn.batch.extend(queue.frames.pop_front());
            }
            link.notify_space(&queue);
        }
        for (dest, frame) in &conn.batch {
            encode_record(&mut conn.out_buf, KIND_RAW, *dest, frame.as_slice());
        }
        !conn.batch.is_empty()
    }

    /// Closes a connection; when it carried a link, runs the reconnect
    /// policy (`errored` distinguishes failure from shutdown).
    fn close_conn(&mut self, token: u64, errored: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        self.epoll.del(conn.fd);
        close_fd(conn.fd);
        self.shared.registered_fds.fetch_sub(1, Ordering::Relaxed);
        let Some(link) = conn.link else {
            return;
        };
        self.by_addr.remove(&link.addr);
        // A record half-written when the connection died is gone for good
        // (the remote drops the truncated tail); the records of the batch
        // behind it rejoin the queued frames, ahead of them, and get
        // another chance after the redial.
        let (written, cut) = split_batch(&conn.batch, conn.out_pos);
        if cut {
            self.shared.dropped_frames.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut queue = lock(&link.queue);
            for (dest, frame) in conn.batch.drain(written + usize::from(cut)..).rev() {
                queue.bytes += frame.len();
                queue.frames.push_front((dest, frame));
            }
        }
        if !errored {
            return;
        }
        if conn.established {
            // A previously healthy connection died: immediate redial with a
            // fresh budget.
            self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
            self.dial(link, 0);
        } else {
            self.redial_later(link, conn.attempt);
        }
    }

    fn shutdown(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, false);
        }
        if let Some(fd) = self.listener.take() {
            self.epoll.del(fd);
            close_fd(fd);
            self.shared.registered_fds.fetch_sub(1, Ordering::Relaxed);
        }
        self.shared.registered_fds.fetch_sub(1, Ordering::Relaxed); // waker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every place a dying connection's write cursor can stand in a batch,
    /// against what is then on the wire, lost, and owed a second chance.
    #[test]
    fn split_batch_at_every_kind_of_cursor() {
        let batch: Vec<(u64, Bytes)> = [5usize, 0, 300]
            .iter()
            .map(|&len| (len as u64, Bytes::from(vec![0xAB; len])))
            .collect();
        // Record i occupies [bounds[i], bounds[i + 1]) of the out-buffer.
        let bounds = [0, 18, 31, 344];
        let mut encoded = Vec::new();
        for (dest, frame) in &batch {
            encode_record(&mut encoded, KIND_RAW, *dest, frame.as_slice());
        }
        assert_eq!(
            encoded.len(),
            bounds[3],
            "the table below assumes this layout"
        );
        // (out_pos, written, cut); requeued = batch[written + cut..].
        let table = [
            (0, 0, false),   // nothing started: all three go back
            (1, 0, true),    // mid-header of the first
            (12, 0, true),   // last header byte of the first
            (13, 0, true),   // header written, payload not
            (17, 0, true),   // mid-payload
            (18, 1, false),  // on the first boundary
            (19, 1, true),   // mid-header of the empty record
            (30, 1, true),   // one byte short of the second boundary
            (31, 2, false),  // on the second boundary
            (32, 2, true),   // third record's header
            (200, 2, true),  // third record's payload
            (343, 2, true),  // one byte short of the end
            (344, 3, false), // everything written
        ];
        for (out_pos, written, cut) in table {
            assert_eq!(
                split_batch(&batch, out_pos),
                (written, cut),
                "out_pos {out_pos}"
            );
            // The three parts account for every record exactly once.
            let requeued = &batch[written + usize::from(cut)..];
            assert_eq!(written + usize::from(cut) + requeued.len(), batch.len());
        }
        // A buffer holding only the hello carries no record: a half-written
        // hello is not a dropped frame, wherever the cursor stands.
        for out_pos in 0..=crate::mux::HELLO_LEN {
            assert_eq!(split_batch(&[], out_pos), (0, false));
        }
        // A batch of one: the cut record is the only loss, nothing requeues.
        assert_eq!(split_batch(&batch[..1], 9), (0, true));
        assert_eq!(split_batch(&batch[..1], 18), (1, false));
    }

    fn one_thread_loop() -> (EventLoop, Arc<ThreadShared>, Arc<Shared>) {
        let shared = Arc::new(Shared::new(16));
        let thread = Arc::new(ThreadShared {
            commands: Default::default(),
            waker: crate::sys::EventFd::new().unwrap(),
            parked: Default::default(),
        });
        let threads = Arc::new(vec![thread.clone()]);
        let event_loop = EventLoop::new(0, shared.clone(), threads, None).unwrap();
        (event_loop, thread, shared)
    }

    fn link_to_nowhere() -> Arc<Link> {
        Arc::new(Link::new("127.0.0.1:9".parse().unwrap(), 1 << 20, 1))
    }

    /// The two halves of the park protocol, each on its own: the look the
    /// thread takes after raising `parked` sees everything `send` publishes
    /// (and nothing it could not act on — that would spin), and `wake`
    /// rings exactly when the flag was up.
    #[test]
    fn the_look_sees_published_work_and_wake_rings_only_the_parked() {
        let (mut event_loop, thread, _shared) = one_thread_loop();
        let link = link_to_nowhere();
        assert!(!event_loop.handed_work());
        lock(&thread.commands).push(Command::Dial(link.clone()));
        assert!(event_loop.handed_work(), "a command in the mailbox");
        lock(&thread.commands).clear();

        // No descriptor behind it: nothing here touches the socket.
        let mut conn = Conn::new(-1, Some(link.clone()), false, 0);
        conn.writable = true;
        event_loop.conns.insert(TOKEN_BASE, conn);
        assert!(!event_loop.handed_work(), "an empty queue");
        lock(&link.queue).frames.push_back((1, Bytes::new()));
        assert!(event_loop.handed_work(), "a frame for a writable socket");
        event_loop.conns.get_mut(&TOKEN_BASE).unwrap().writable = false;
        assert!(!event_loop.handed_work(), "EPOLLOUT will wake for this one");

        let rung = || {
            let mut count = [0u8; 8];
            read_fd(thread.waker.fd(), &mut count).is_ok()
        };
        thread.wake();
        assert!(!rung(), "an awake thread is not rung");
        thread.parked.store(true, Ordering::SeqCst);
        thread.wake();
        assert!(rung(), "a parked thread is");
        assert!(!thread.parked.load(Ordering::SeqCst), "and only once");
        thread.wake();
        assert!(!rung());
    }

    /// `close_conn` acts on that split: the cut record is counted lost, the
    /// records behind it go back *ahead of* what was still queued, in order.
    #[test]
    fn a_dying_connection_requeues_what_it_never_started() {
        let (mut event_loop, _thread, shared) = one_thread_loop();
        let link = link_to_nowhere();
        let frame = |dest: u64| (dest, Bytes::from(vec![dest as u8; 100]));
        {
            let mut queue = lock(&link.queue);
            queue.frames.extend([frame(10), frame(11)]);
            queue.bytes = 200;
        }
        // No descriptor behind it: closing -1 fails harmlessly.
        let mut conn = Conn::new(-1, Some(link.clone()), false, 0);
        conn.batch = (0..4).map(frame).collect();
        for (dest, frame) in &conn.batch {
            encode_record(&mut conn.out_buf, KIND_RAW, *dest, frame.as_slice());
        }
        // Record 0 written, record 1 cut mid-payload, 2 and 3 never started.
        conn.out_pos = (RECORD_HEADER + 100) + RECORD_HEADER + 50;
        event_loop.conns.insert(TOKEN_BASE, conn);
        event_loop.close_conn(TOKEN_BASE, false);
        let queue = lock(&link.queue);
        let dests: Vec<u64> = queue.frames.iter().map(|(dest, _)| *dest).collect();
        assert_eq!(dests, [2, 3, 10, 11]);
        assert_eq!(queue.bytes, 400);
        assert_eq!(shared.dropped_frames.load(Ordering::Relaxed), 1);
    }
}
