//! The Linux reactor transport: caller-facing half.
//!
//! [`ReactorTransport`] owns the address book and the per-link bounded
//! write queues; a small fixed pool of event threads (see
//! [`crate::event`]) owns every socket.  The two halves meet at three
//! points, none of which ever blocks an event thread:
//!
//! * **write queues** — `send` parks the frame in the destination link's
//!   bounded queue and rings the owning event thread's eventfd *only when
//!   that thread is parked* ([`ThreadShared::wake`]; the protocol is in
//!   [`crate::event`]'s docs), so a burst of sends costs one ring; the
//!   thread takes the queue a batch at a time.  A full queue makes the
//!   *caller* wait (bounded, surfacing as a send error on timeout, which
//!   feeds the runtime's Suspect/Dead link life-cycle).
//! * **the shared inbox** — event threads move each read's reassembled
//!   frames in under one lock, `poll` takes the whole deque under one;
//!   when the inbox is at capacity they *pause reading* that connection
//!   instead of blocking, so TCP flow control pushes back on the remote
//!   writer and a slow receiver costs the sender wire backpressure, not
//!   the receiver unbounded memory.
//! * **commands** — new links and accepted connections are handed to the
//!   owning event thread through a tiny mailbox plus (unconditional)
//!   eventfd ring.
//!
//! Frames between two *locally hosted* peers never touch a socket: they go
//! straight into the inbox, which is what lets one worker host 50k+ peers
//! through a construction timeline without 50k listening sockets — the
//! whole transport uses one listener, one eventfd per event thread, and
//! one connection per remote process.

use crate::event::EventLoop;
use crate::sys::EventFd;
use crate::ReactorConfig;
use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_transport::{
    Millis, PeerAddr, ReactorStats, SocketTransport, Transport, TransportError, TransportStats,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{IntoRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks `mutex`, recovering the guard from a poisoned one: every critical
/// section in this crate leaves its data valid at each step, and one
/// panicking caller must not turn every later send, poll and event-loop
/// pass into a second panic.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the caller and every event thread.
pub(crate) struct Shared {
    /// Reassembled frames awaiting [`Transport::poll`], as
    /// `(destination peer, frame)`.
    pub inbox: Mutex<VecDeque<(u64, Bytes)>>,
    /// Wire-side inbox bound: event threads pause reading a connection
    /// rather than push past this.  Local deliveries are exempt (the
    /// caller pushing is also the only drainer — blocking it would
    /// deadlock).
    pub inbox_capacity: usize,
    pub stop: AtomicBool,
    pub epoll_wakeups: AtomicU64,
    pub partial_writes: AtomicU64,
    pub reconnects: AtomicU64,
    pub dropped_frames: AtomicU64,
    pub registered_fds: AtomicU64,
}

impl Shared {
    pub fn new(inbox_capacity: usize) -> Shared {
        Shared {
            inbox: Mutex::new(VecDeque::new()),
            inbox_capacity: inbox_capacity.max(1),
            stop: AtomicBool::new(false),
            epoll_wakeups: AtomicU64::new(0),
            partial_writes: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            dropped_frames: AtomicU64::new(0),
            registered_fds: AtomicU64::new(0),
        }
    }
}

/// The mutable interior of one link's write queue.
pub(crate) struct LinkQueue {
    /// Whole frames waiting to be written, with their destination peer
    /// (several peers share one link when they live in the same process).
    pub frames: VecDeque<(u64, Bytes)>,
    pub bytes: usize,
    /// Senders blocked in `space.wait_timeout` right now.
    pub waiters: usize,
    /// Set by the event thread when the link died with its reconnect
    /// budget exhausted; the next `send` consumes it as an error.
    pub failed: bool,
    /// Set at shutdown so nothing ever waits on a dead transport.
    pub closed: bool,
}

/// One outbound link: the bounded write queue feeding a remote process.
pub(crate) struct Link {
    pub addr: SocketAddr,
    pub queue: Mutex<LinkQueue>,
    pub space: Condvar,
    /// Whether an event thread currently owns (or is dialling) this link's
    /// connection; cleared when it gives up so a later send re-dials.
    pub active: AtomicBool,
    pub capacity_bytes: usize,
    /// Index of the event thread owning this link's connection.
    pub thread: usize,
}

impl Link {
    pub fn new(addr: SocketAddr, capacity_bytes: usize, n_threads: usize) -> Link {
        let mut hasher = DefaultHasher::new();
        addr.hash(&mut hasher);
        Link {
            addr,
            thread: (hasher.finish() as usize) % n_threads.max(1),
            queue: Mutex::new(LinkQueue {
                frames: VecDeque::new(),
                bytes: 0,
                waiters: 0,
                failed: false,
                closed: false,
            }),
            space: Condvar::new(),
            active: AtomicBool::new(false),
            capacity_bytes: capacity_bytes.max(1),
        }
    }

    /// Wakes senders waiting for queue space, if any: std's condvar pays
    /// a `futex_wake` whether or not anyone waits.
    pub fn notify_space(&self, queue: &LinkQueue) {
        if queue.waiters > 0 {
            self.space.notify_all();
        }
    }
}

/// Work handed from the caller (or a sibling thread) to an event thread.
pub(crate) enum Command {
    /// Open (or re-own) the connection for this link.
    Dial(Arc<Link>),
    /// Adopt an accepted inbound connection.
    Inbound(RawFd),
}

/// The caller-visible half of one event thread.
pub(crate) struct ThreadShared {
    pub commands: Mutex<Vec<Command>>,
    pub waker: EventFd,
    /// Set by the thread before it blocks in `epoll_wait`, cleared by
    /// whoever wakes it (or by itself on return).
    pub parked: AtomicBool,
}

impl ThreadShared {
    /// Rings the eventfd if the thread is parked; call *after* publishing
    /// the work.  An awake thread looks again before it parks.
    pub fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.waker.ring();
        }
    }
}

/// The poll-driven multiplexed transport (Linux).
///
/// See the crate docs for the architecture; the short version: all local
/// peers share one listening socket, all sockets live on `n_event_threads`
/// epoll loops, and the caller talks to them through bounded queues.
pub struct ReactorTransport {
    config: ReactorConfig,
    addrs: HashMap<PeerId, SocketAddr>,
    local: HashSet<PeerId>,
    listen_addr: Option<SocketAddr>,
    links: HashMap<SocketAddr, Arc<Link>>,
    threads: Vec<JoinHandle<()>>,
    thread_shared: Arc<Vec<Arc<ThreadShared>>>,
    shared: Arc<Shared>,
    stats: TransportStats,
    local_frames_sent: u64,
}

impl Default for ReactorTransport {
    fn default() -> ReactorTransport {
        ReactorTransport::new()
    }
}

impl ReactorTransport {
    /// Creates a transport with the default configuration.  Event threads
    /// and the listener start lazily on the first registration or remote
    /// send.
    pub fn new() -> ReactorTransport {
        ReactorTransport::with_config(ReactorConfig::default())
    }

    /// Creates a transport with an explicit configuration.
    pub fn with_config(config: ReactorConfig) -> ReactorTransport {
        let shared = Arc::new(Shared::new(config.inbox_capacity));
        ReactorTransport {
            config,
            addrs: HashMap::new(),
            local: HashSet::new(),
            listen_addr: None,
            links: HashMap::new(),
            threads: Vec::new(),
            thread_shared: Arc::new(Vec::new()),
            shared,
            stats: TransportStats::default(),
            local_frames_sent: 0,
        }
    }

    /// The shared mux listener address (every local peer's address), once
    /// started.
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.listen_addr
    }

    fn ensure_started(&mut self) -> Result<(), TransportError> {
        if self.listen_addr.is_some() {
            return Ok(());
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let listener_fd = listener.into_raw_fd();
        let n_threads = if self.config.n_event_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.n_event_threads
        };
        let mut thread_shared = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            thread_shared.push(Arc::new(ThreadShared {
                commands: Mutex::new(Vec::new()),
                waker: EventFd::new()?,
                parked: AtomicBool::new(false),
            }));
        }
        let thread_shared = Arc::new(thread_shared);
        let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(n_threads);
        for index in 0..n_threads {
            let event_loop = EventLoop::new(
                index,
                self.shared.clone(),
                thread_shared.clone(),
                (index == 0).then_some(listener_fd),
            );
            let Ok(event_loop) = event_loop else {
                // Unwind the half-started pool before reporting.  Thread 0
                // owns the listener once it is running; only close it here
                // when it never started.
                let close_listener = threads.is_empty();
                self.shared.stop.store(true, Ordering::SeqCst);
                for ts in thread_shared.iter() {
                    ts.waker.ring();
                }
                for handle in threads {
                    let _ = handle.join();
                }
                self.shared.stop.store(false, Ordering::SeqCst);
                if close_listener {
                    crate::sys::close_fd(listener_fd);
                }
                return Err(TransportError::Io(io::Error::other(
                    "reactor event loop setup failed",
                )));
            };
            threads.push(std::thread::spawn(move || event_loop.run()));
        }
        self.listen_addr = Some(addr);
        self.thread_shared = thread_shared;
        self.threads = threads;
        Ok(())
    }

    fn send_remote(
        &mut self,
        to: PeerId,
        addr: SocketAddr,
        frame: Bytes,
    ) -> Result<(), TransportError> {
        self.ensure_started()?;
        let (capacity, n_threads) = (self.config.write_queue_bytes, self.thread_shared.len());
        let link = self
            .links
            .entry(addr)
            .or_insert_with(|| Arc::new(Link::new(addr, capacity, n_threads)))
            .clone();
        let frame_len = frame.len();
        let enqueue_error: Option<io::Error> = {
            let mut queue = lock(&link.queue);
            let deadline = Instant::now() + self.config.send_timeout;
            let mut timed_out = false;
            while !queue.failed
                && !queue.closed
                && !queue.frames.is_empty()
                && queue.bytes + frame_len > link.capacity_bytes
            {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    timed_out = true;
                    break;
                };
                queue.waiters += 1;
                let (guard, wait) = link
                    .space
                    .wait_timeout(queue, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
                queue.waiters -= 1;
                if wait.timed_out() {
                    timed_out = true;
                    break;
                }
            }
            if queue.failed {
                // The event thread gave up on this link; this send reports
                // the failure (resetting the flag so a later send re-dials),
                // so the runtime's link life-cycle sees a dead endpoint as a
                // failed send, not as silence.
                queue.failed = false;
                Some(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "reactor link failed after reconnect attempts",
                ))
            } else if timed_out {
                Some(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "reactor write queue full",
                ))
            } else if queue.closed {
                Some(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "reactor transport shut down",
                ))
            } else {
                queue.frames.push_back((to.0, frame));
                queue.bytes += frame_len;
                None
            }
        };
        if let Some(error) = enqueue_error {
            return Err(TransportError::Io(error));
        }
        let thread = &self.thread_shared[link.thread];
        if !link.active.swap(true, Ordering::SeqCst) {
            lock(&thread.commands).push(Command::Dial(link.clone()));
        }
        thread.wake();
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame_len as u64;
        Ok(())
    }
}

impl Transport for ReactorTransport {
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        if self.local.contains(&peer) || self.addrs.contains_key(&peer) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        self.ensure_started()?;
        self.local.insert(peer);
        Ok(PeerAddr::Socket(self.listen_addr.expect("started")))
    }

    fn send(&mut self, _now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError> {
        if self.local.contains(&to) {
            // Local delivery: straight into the inbox, no socket, no
            // capacity wait (the caller is the drainer).
            let frame_len = frame.len() as u64;
            lock(&self.shared.inbox).push_back((to.0, frame));
            self.stats.frames_sent += 1;
            self.stats.bytes_sent += frame_len;
            self.local_frames_sent += 1;
            return Ok(());
        }
        let addr = *self.addrs.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        self.send_remote(to, addr, frame)
    }

    fn poll(&mut self, _now: Millis) -> Vec<(PeerId, Bytes)> {
        let drained = std::mem::take(&mut *lock(&self.shared.inbox));
        if drained.len() >= self.shared.inbox_capacity {
            // Event threads paused reading while the inbox was full; tell
            // them space opened up rather than waiting for their retry tick.
            for ts in self.thread_shared.iter() {
                ts.waker.ring();
            }
        }
        let mut delivered = Vec::with_capacity(drained.len());
        for (dest, frame) in drained {
            self.stats.frames_delivered += 1;
            self.stats.bytes_delivered += frame.len() as u64;
            delivered.push((PeerId(dest), frame));
        }
        delivered
    }

    fn next_due(&self) -> Option<Millis> {
        None
    }

    fn is_realtime(&self) -> bool {
        true
    }

    fn in_flight(&self) -> usize {
        // Only frames addressed to locally hosted peers can ever show up in
        // this process's poll; frames to remote peers are delivered by the
        // process that hosts them and must not stall the local clock.
        // Saturating: with remote peers this transport also receives frames
        // it never sent, so delivered may exceed the local send count.
        self.local_frames_sent
            .saturating_sub(self.stats.frames_delivered) as usize
    }

    fn stats(&self) -> TransportStats {
        let mut stats = self.stats.clone();
        let mut queue_frames = 0u64;
        let mut queue_bytes = 0u64;
        for link in self.links.values() {
            let queue = lock(&link.queue);
            queue_frames += queue.frames.len() as u64;
            queue_bytes += queue.bytes as u64;
        }
        stats.reactor = Some(ReactorStats {
            registered_peers: self.local.len() as u64,
            registered_fds: self.shared.registered_fds.load(Ordering::Relaxed),
            epoll_wakeups: self.shared.epoll_wakeups.load(Ordering::Relaxed),
            write_queue_frames: queue_frames,
            write_queue_bytes: queue_bytes,
            partial_writes: self.shared.partial_writes.load(Ordering::Relaxed),
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            dropped_frames: self.shared.dropped_frames.load(Ordering::Relaxed),
        });
        stats
    }

    fn addr_of(&self, peer: PeerId) -> Option<PeerAddr> {
        if self.local.contains(&peer) {
            return self.listen_addr.map(PeerAddr::Socket);
        }
        self.addrs.get(&peer).copied().map(PeerAddr::Socket)
    }
}

impl SocketTransport for ReactorTransport {
    fn register_remote(
        &mut self,
        peer: PeerId,
        addr: SocketAddr,
    ) -> Result<PeerAddr, TransportError> {
        if self.local.contains(&peer) || self.addrs.contains_key(&peer) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        self.addrs.insert(peer, addr);
        Ok(PeerAddr::Socket(addr))
    }

    fn update_remote(&mut self, peer: PeerId, addr: SocketAddr) -> Result<(), TransportError> {
        if self.local.contains(&peer) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        // Links are keyed by address, so re-pointing the peer is just a map
        // update: the next send dials (or reuses) the new endpoint's link.
        self.addrs.insert(peer, addr);
        Ok(())
    }

    fn register_takeover(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        if self.local.contains(&peer) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        self.ensure_started()?;
        // Adopting a peer costs no file descriptor: it joins the local set
        // behind the shared listener.
        self.addrs.remove(&peer);
        self.local.insert(peer);
        Ok(PeerAddr::Socket(self.listen_addr.expect("started")))
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for link in self.links.values() {
            let mut queue = lock(&link.queue);
            queue.closed = true;
            link.notify_space(&queue);
        }
        for ts in self.thread_shared.iter() {
            ts.waker.ring();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}
