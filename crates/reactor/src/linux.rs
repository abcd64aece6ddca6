//! The Linux reactor transport: caller-facing half.
//!
//! [`ReactorTransport`] owns the address book and the per-link bounded
//! write queues; a small fixed pool of event threads (see
//! [`crate::event`]) owns every socket.  The two halves meet at three
//! points, none of which ever blocks an event thread, and the two that
//! carry frames carry encoded bytes in reused buffers, so no event thread
//! allocates or frees anything per frame:
//!
//! * **a byte write queue per link** — `send` appends the frame's mux
//!   record to the destination link's bounded queue and rings the owning
//!   event thread's eventfd *only when that thread is parked*
//!   ([`ThreadShared::wake`]; the protocol is in [`crate::event`]'s docs),
//!   so a burst of sends costs one ring; the thread swaps the whole queue
//!   for its own drained out-buffer.  A full queue makes the *caller* wait
//!   (bounded, surfacing as a send error on timeout, which feeds the
//!   runtime's Suspect/Dead link life-cycle).
//! * **the byte inbox** — event threads copy each complete record out of
//!   their reader into it under one lock per read, a poll swaps it for a
//!   spare under one and copies it once: into the block its `Bytes` frames
//!   view (`poll_into`), or straight into the caller's reused
//!   [`pgrid_transport::Frames`] (`poll_frames`, what the runtime calls);
//!   when the inbox is at capacity they *pause reading* that connection
//!   instead of blocking, so TCP flow control pushes back on the remote
//!   writer and a slow receiver costs the sender wire backpressure, not
//!   the receiver unbounded memory.
//! * **the commands mailbox** — new links and accepted connections are
//!   handed to the owning event thread through a tiny mailbox plus
//!   (unconditional) eventfd ring.
//!
//! Frames between two *locally hosted* peers never touch a socket or a
//! lock: they wait in a queue only the caller touches, which is what lets
//! one worker host 50k+ peers through a construction timeline without 50k
//! listening sockets — the whole transport uses one listener, one eventfd
//! per event thread, and one connection per remote process.

use crate::event::EventLoop;
use crate::mux::{encode_record, records, KIND_RAW};
use crate::sys::EventFd;
use crate::ReactorConfig;
use bytes::Bytes;
use pgrid_core::routing::PeerId;
use pgrid_transport::{
    Frames, Millis, PeerAddr, ReactorStats, SocketTransport, Transport, TransportError,
    TransportStats,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
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

/// Capacity a drained byte buffer keeps: one that a large frame grew (a
/// multi-MiB `ReplicaPush`) gives the rest back instead of pinning the
/// largest burst for the life of the transport.
pub(crate) const RETAIN_BYTES: usize = 64 << 10;

/// Empties `buf` for reuse, giving back its capacity past [`RETAIN_BYTES`].
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(RETAIN_BYTES);
}

/// Mux records that event threads have read for [`Transport::poll`].
#[derive(Default)]
pub(crate) struct Inbox {
    /// Whole records back to back, in arrival order per connection.
    pub records: Vec<u8>,
    /// Records in `records`.
    pub frames: usize,
}

/// State shared between the caller and every event thread.
#[derive(Default)]
pub(crate) struct Shared {
    /// Wire records awaiting [`Transport::poll`].
    pub inbox: Mutex<Inbox>,
    /// Wire-side inbox bound in frames: event threads pause reading a
    /// connection rather than push past this.  Local deliveries do not go
    /// through the inbox (the caller pushing is also the only drainer —
    /// blocking it would deadlock).
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
            inbox_capacity: inbox_capacity.max(1),
            ..Shared::default()
        }
    }
}

/// The mutable interior of one link's write queue.
#[derive(Default)]
pub(crate) struct LinkQueue {
    /// Mux records waiting to be written, back to back, oldest first: each
    /// names its destination peer (several peers share one link when they
    /// live in the same process).
    pub records: Vec<u8>,
    /// Records in `records`.
    pub frames: usize,
    /// Frame bytes in `records`, headers not counted: what the capacity
    /// bound and the `write_queue_bytes` counter measure.
    pub bytes: usize,
    /// Senders blocked in `space.wait_timeout` right now.
    pub waiters: usize,
    /// Set by the event thread when the link died with its reconnect
    /// budget exhausted; the next `send` consumes it as an error.
    pub failed: bool,
    /// Set at shutdown so nothing ever waits on a dead transport.
    pub closed: bool,
}

impl LinkQueue {
    /// Appends `frame` for peer `dest` as one record.
    pub fn push(&mut self, dest: u64, frame: &[u8]) {
        encode_record(&mut self.records, KIND_RAW, dest, frame);
        self.frames += 1;
        self.bytes += frame.len();
    }
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
            queue: Mutex::new(LinkQueue::default()),
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
    /// the work.  An awake thread looks again before it parks.  The flag is
    /// read before it is swapped, so a send to an awake thread writes no
    /// shared cache line.
    pub fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.waker.ring();
        }
    }
}

/// Where frames for one peer go.
enum Route {
    /// Hosted here, behind the shared listener.
    Local,
    /// Hosted by the process listening at the address; the link to it once
    /// a send has looked it up (reset when the peer moves).
    Remote(SocketAddr, Option<Arc<Link>>),
}

/// The poll-driven multiplexed transport (Linux).
///
/// See the crate docs for the architecture; the short version: all local
/// peers share one listening socket, all sockets live on `n_event_threads`
/// epoll loops, and the caller talks to them through bounded queues.
///
/// `poll` hands out the frames read off the wire, then the frames sent
/// between hosted peers: first in, first out per connection and per local
/// sender, with no order promised across them.
pub struct ReactorTransport {
    config: ReactorConfig,
    /// Every known peer: one lookup per send.
    routes: HashMap<PeerId, Route>,
    listen_addr: Option<SocketAddr>,
    /// One link per remote address, shared by every peer behind it.
    links: HashMap<SocketAddr, Arc<Link>>,
    threads: Vec<JoinHandle<()>>,
    thread_shared: Arc<Vec<Arc<ThreadShared>>>,
    shared: Arc<Shared>,
    stats: TransportStats,
    /// Frames between hosted peers awaiting `poll`, oldest first; only the
    /// caller touches them.
    local: VecDeque<(PeerId, Bytes)>,
    /// The inbox buffer `poll` drained last, swapped in for the next one.
    spare: Vec<u8>,
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
            routes: HashMap::new(),
            listen_addr: None,
            links: HashMap::new(),
            threads: Vec::new(),
            thread_shared: Arc::new(Vec::new()),
            shared,
            stats: TransportStats::default(),
            local: VecDeque::new(),
            spare: Vec::new(),
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

    /// The link to `addr`, made on first use and cached in `to`'s route.
    fn link_to(&mut self, to: PeerId, addr: SocketAddr) -> Result<Arc<Link>, TransportError> {
        self.ensure_started()?;
        let (capacity, n_threads) = (self.config.write_queue_bytes, self.thread_shared.len());
        let link = self
            .links
            .entry(addr)
            .or_insert_with(|| Arc::new(Link::new(addr, capacity, n_threads)))
            .clone();
        self.routes
            .insert(to, Route::Remote(addr, Some(link.clone())));
        Ok(link)
    }

    /// Swaps the records the event threads have read into `spare`;
    /// returns how many there are.
    fn take_inbox(&mut self) -> usize {
        let frames = {
            let mut inbox = lock(&self.shared.inbox);
            std::mem::swap(&mut inbox.records, &mut self.spare);
            std::mem::take(&mut inbox.frames)
        };
        if frames >= self.shared.inbox_capacity {
            // Event threads paused reading while the inbox was full; tell
            // them space opened up rather than waiting for their retry tick.
            for ts in self.thread_shared.iter() {
                ts.waker.ring();
            }
        }
        frames
    }

    /// Appends `frame` to `link`'s write queue, waiting for space up to the
    /// send timeout, and makes sure an event thread drains it.
    fn enqueue(&self, link: &Arc<Link>, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        let mut queue = lock(&link.queue);
        // The clock is read only once the queue is found full.
        let (mut deadline, mut timed_out) = (None, false);
        while !timed_out
            && !queue.failed
            && !queue.closed
            && queue.frames > 0
            && queue.bytes + frame.len() > link.capacity_bytes
        {
            let deadline =
                *deadline.get_or_insert_with(|| Instant::now() + self.config.send_timeout);
            queue.waiters += 1;
            let (guard, wait) = link
                .space
                .wait_timeout(queue, deadline.saturating_duration_since(Instant::now()))
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
            queue.waiters -= 1;
            timed_out = wait.timed_out();
        }
        let (kind, error) = if std::mem::take(&mut queue.failed) {
            // The event thread gave up on this link; this send reports the
            // failure (resetting the flag so a later send re-dials), so the
            // runtime's link life-cycle sees a dead endpoint as a failed
            // send, not as silence.
            let error = "reactor link failed after reconnect attempts";
            (io::ErrorKind::BrokenPipe, error)
        } else if timed_out {
            (io::ErrorKind::TimedOut, "reactor write queue full")
        } else if queue.closed {
            (io::ErrorKind::NotConnected, "reactor transport shut down")
        } else {
            queue.push(to.0, frame);
            drop(queue);
            let thread = &self.thread_shared[link.thread];
            // Loaded first: a link that is already owned costs no write.
            if !link.active.load(Ordering::SeqCst) && !link.active.swap(true, Ordering::SeqCst) {
                lock(&thread.commands).push(Command::Dial(link.clone()));
            }
            thread.wake();
            return Ok(());
        };
        Err(TransportError::Io(io::Error::new(kind, error)))
    }
}

impl Transport for ReactorTransport {
    fn register(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        if self.routes.contains_key(&peer) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        self.ensure_started()?;
        self.routes.insert(peer, Route::Local);
        Ok(PeerAddr::Socket(self.listen_addr.expect("started")))
    }

    fn send(&mut self, now: Millis, to: PeerId, frame: Bytes) -> Result<(), TransportError> {
        self.send_slice(now, to, to, frame.as_slice())
    }

    fn send_slice(
        &mut self,
        _now: Millis,
        _from: PeerId,
        to: PeerId,
        frame: &[u8],
    ) -> Result<(), TransportError> {
        match self.routes.get(&to) {
            None => return Err(TransportError::UnknownPeer(to)),
            // Local delivery: no socket, no lock, no capacity wait (the
            // caller is the drainer).
            Some(Route::Local) => self.local.push_back((to, Bytes::copy_from_slice(frame))),
            Some(Route::Remote(_, Some(link))) => self.enqueue(link, to, frame)?,
            Some(&Route::Remote(addr, None)) => {
                let link = self.link_to(to, addr)?;
                self.enqueue(&link, to, frame)?;
            }
        }
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        Ok(())
    }

    fn poll_into(&mut self, _now: Millis, out: &mut Vec<(PeerId, Bytes)>) {
        let frames = self.take_inbox();
        let start = out.len();
        out.reserve(frames + self.local.len());
        if frames > 0 {
            // One copy and one allocation per poll: every wire frame is a
            // view of this block.
            let block = Bytes::copy_from_slice(&self.spare);
            let wire = records(block.as_slice());
            out.extend(wire.map(|(dest, frame)| (PeerId(dest), block.slice_ref(frame))));
            recycle(&mut self.spare);
        }
        out.extend(self.local.drain(..));
        for (_, frame) in &out[start..] {
            self.stats.frames_delivered += 1;
            self.stats.bytes_delivered += frame.len() as u64;
        }
    }

    fn poll_frames(&mut self, _now: Millis, out: &mut Frames) {
        self.take_inbox();
        let (frames, bytes) = (out.len(), out.byte_len());
        for (dest, frame) in records(&self.spare) {
            out.push(PeerId(dest), frame);
        }
        recycle(&mut self.spare);
        for (to, frame) in self.local.drain(..) {
            out.push(to, frame.as_slice());
        }
        self.stats.frames_delivered += (out.len() - frames) as u64;
        self.stats.bytes_delivered += (out.byte_len() - bytes) as u64;
    }

    fn next_due(&self) -> Option<Millis> {
        // Due now while a poll would hand out a frame: one sent between
        // hosted peers, or one the event threads have read off the wire.
        let holds = !self.local.is_empty() || lock(&self.shared.inbox).frames > 0;
        holds.then_some(0)
    }

    fn is_realtime(&self) -> bool {
        true
    }

    fn in_flight(&self) -> usize {
        // Frames to remote peers are delivered by the process that hosts
        // them, so only the ones between hosted peers count.
        self.local.len()
    }

    fn stats(&self) -> TransportStats {
        let mut stats = self.stats.clone();
        let mut queue_frames = 0u64;
        let mut queue_bytes = 0u64;
        for link in self.links.values() {
            let queue = lock(&link.queue);
            queue_frames += queue.frames as u64;
            queue_bytes += queue.bytes as u64;
        }
        stats.reactor = Some(ReactorStats {
            registered_peers: (self.routes.values())
                .filter(|route| matches!(route, Route::Local))
                .count() as u64,
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
        match self.routes.get(&peer)? {
            Route::Local => self.listen_addr.map(PeerAddr::Socket),
            Route::Remote(addr, _) => Some(PeerAddr::Socket(*addr)),
        }
    }
}

impl SocketTransport for ReactorTransport {
    fn register_remote(
        &mut self,
        peer: PeerId,
        addr: SocketAddr,
    ) -> Result<PeerAddr, TransportError> {
        if self.routes.contains_key(&peer) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        self.routes.insert(peer, Route::Remote(addr, None));
        Ok(PeerAddr::Socket(addr))
    }

    fn update_remote(&mut self, peer: PeerId, addr: SocketAddr) -> Result<(), TransportError> {
        if matches!(self.routes.get(&peer), Some(Route::Local)) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        // Links are keyed by address, so re-pointing the peer drops its
        // cached link: the next send dials (or reuses) the new endpoint's.
        self.routes.insert(peer, Route::Remote(addr, None));
        Ok(())
    }

    fn register_takeover(&mut self, peer: PeerId) -> Result<PeerAddr, TransportError> {
        if matches!(self.routes.get(&peer), Some(Route::Local)) {
            return Err(TransportError::AlreadyRegistered(peer));
        }
        self.ensure_started()?;
        // Adopting a peer costs no file descriptor: it joins the local set
        // behind the shared listener.
        self.routes.insert(peer, Route::Local);
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
