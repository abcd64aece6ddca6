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
//! waker), write queues are drained frame-by-frame under a briefly held
//! lock, and reconnects are driven by a timer list with the same capped
//! backoff + deterministic jitter as the threaded backend's
//! `connect_with_backoff`.

use crate::linux::{Command, Link, Shared, ThreadShared};
use crate::mux::{encode_record, MuxReader, KIND_RAW};
use crate::sys::{
    accept_nonblocking, close_fd, connect_nonblocking, read_fd, set_nodelay, take_socket_error,
    write_fd, Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::os::fd::RawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dial attempts before a link is declared failed (parity with the
/// threaded backend's `CONNECT_ATTEMPTS`).
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

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// Deterministic jitter on the reconnect backoff, derived from the address
/// and attempt exactly like the threaded backend (no RNG state consumed).
fn backoff_delay(addr: SocketAddr, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let delay_ms = (CONNECT_BACKOFF_MS << exp).min(CONNECT_BACKOFF_CAP_MS);
    let mut j = u64::from(addr.port()) ^ ((u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9));
    j ^= j << 13;
    j ^= j >> 7;
    j ^= j << 17;
    Duration::from_millis(delay_ms + j % (delay_ms / 2 + 1))
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
    out_buf: Vec<u8>,
    out_pos: usize,
    writable: bool,
    readable: bool,
    /// Parsing stopped because the inbox was full; bytes wait in `reader`.
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
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.compute_timeout();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
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
                        self.threads[target]
                            .commands
                            .lock()
                            .expect("command mailbox poisoned")
                            .push(Command::Inbound(fd));
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
        let commands = std::mem::take(
            &mut *self.threads[self.index]
                .commands
                .lock()
                .expect("command mailbox poisoned"),
        );
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
            let mut queue = link.queue.lock().expect("link queue poisoned");
            queue.failed = true;
            let dropped = queue.frames.len() as u64;
            queue.frames.clear();
            queue.bytes = 0;
            dropped
        };
        if dropped > 0 {
            self.shared
                .dropped_frames
                .fetch_add(dropped, Ordering::Relaxed);
        }
        link.active.store(false, Ordering::SeqCst);
        link.space.notify_all();
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
            let closed = link.queue.lock().expect("link queue poisoned").closed;
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
            if !conn.established {
                match conn.reader.take_hello() {
                    Ok(Some(_reserved_flags)) => {
                        conn.established = true;
                        conn.attempt = 0;
                    }
                    Ok(None) => {}
                    Err(_) => {
                        self.close_conn(token, true);
                        return false;
                    }
                }
            }
            if self.conns.get(&token).map(|c| c.established) == Some(true) {
                match self.parse_records(token) {
                    Ok(()) => {}
                    Err(()) => {
                        self.close_conn(token, true);
                        return false;
                    }
                }
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.paused_on_inbox || !conn.readable {
                return true;
            }
            let mut buf = [0u8; 64 * 1024];
            match read_fd(conn.fd, &mut buf) {
                Ok(0) => {
                    self.close_conn(token, true);
                    return false;
                }
                Ok(n) => conn.reader.extend(&buf[..n]),
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

    /// Parses complete records into the inbox, pausing on a full inbox.
    fn parse_records(&mut self, token: u64) -> Result<(), ()> {
        loop {
            let capacity = self.shared.inbox_capacity;
            {
                let inbox = self.shared.inbox.lock().expect("inbox poisoned");
                if inbox.len() >= capacity {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.paused_on_inbox = conn.reader.buffered() > 0;
                        if conn.paused_on_inbox {
                            return Ok(());
                        }
                    }
                    return Ok(());
                }
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return Err(());
            };
            conn.paused_on_inbox = false;
            let record = match conn.reader.next_record() {
                Ok(Some(record)) => record,
                Ok(None) => return Ok(()),
                Err(_) => return Err(()),
            };
            let (_kind, dest, frame) = record;
            self.shared
                .inbox
                .lock()
                .expect("inbox poisoned")
                .push_back((dest, frame));
        }
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
            if conn.out_pos == conn.out_buf.len() && !self.refill_out_buf(token) {
                return true;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
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

    /// Encodes the next queued frame into the out-buffer.  Returns whether
    /// there is anything to write.
    fn refill_out_buf(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let Some(link) = conn.link.clone() else {
            // Inbound connections only ever write their hello.
            return false;
        };
        let next = {
            let mut queue = link.queue.lock().expect("link queue poisoned");
            match queue.frames.pop_front() {
                Some((dest, frame)) => {
                    queue.bytes -= frame.len();
                    Some((dest, frame))
                }
                None => None,
            }
        };
        let Some((dest, frame)) = next else {
            conn.out_buf.clear();
            conn.out_pos = 0;
            return false;
        };
        link.space.notify_all();
        conn.out_buf.clear();
        conn.out_pos = 0;
        encode_record(&mut conn.out_buf, KIND_RAW, dest, frame.as_slice());
        true
    }

    /// Closes a connection; when it carried a link, runs the reconnect
    /// policy (`errored` distinguishes failure from shutdown).
    fn close_conn(&mut self, token: u64, errored: bool) {
        let Some(conn) = self.conns.remove(&token) else {
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
        // (the remote drops the truncated tail); frames still queued get
        // another chance after the redial.
        if conn.out_pos > 0 && conn.out_pos < conn.out_buf.len() && conn.established {
            self.shared.dropped_frames.fetch_add(1, Ordering::Relaxed);
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
