//! The nonblocking reactor: an `epoll(7)` event loop over raw FFI.
//!
//! One thread owns every socket. The listener, an `eventfd(2)` doorbell,
//! and all client connections are registered level-triggered on one
//! epoll instance; readiness drives the incremental parser
//! ([`crate::http::parse_buffered`]) and the write-buffer flusher, so a
//! slow or hostile client costs one bounded [`Conn`] instead of a
//! blocked thread. FFI is confined to this module (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait` / `eventfd` / `read` / `write` / `close`),
//! mirroring the `mmap(2)`/`signal(2)` precedents elsewhere in the
//! workspace — std already links libc, so no crate is needed.
//!
//! # Request flow
//!
//! Parsed requests are answered in arrival order per connection
//! (pipelining): each gets an ordered response slot. Cheap routes
//! (healthz, metrics, status queries, shutdown) are handled inline on
//! the loop; routes that touch the job store (submit, cascades, output
//! reads) are dispatched to a small request-worker pool whose
//! completions come back through a lock-protected queue plus the
//! eventfd doorbell — the reactor never blocks on disk or on the job
//! manager, and responses flush as soon as their turn comes.
//!
//! # Long-polls
//!
//! A `GET /v1/jobs/{id}?wait_ms=N` on a job that has not settled takes
//! no worker: its slot stays unfilled and a [`Parked`] entry records the
//! job and the deadline. When a job settles, its worker pushes the id to
//! the shared settled list and rings the doorbell; the loop then answers
//! only the entries parked on settled jobs, through the same status call
//! the inline route makes. Each pass also answers entries whose deadline
//! passed (the `epoll_wait` timeout shrinks to the nearest one). A drain
//! answers every parked request at once, and an entry whose connection
//! closed is dropped by the same generation check completions use.
//!
//! # Bounds and backpressure
//!
//! Everything a client can grow is capped:
//!
//! * the read buffer holds at most one partial request (head + body
//!   caps) plus one read chunk — requests are parsed out between read
//!   chunks, and while the write buffer is saturated the connection's
//!   read interest is deregistered entirely, letting TCP push back on
//!   the peer without the level-triggered loop spinning;
//! * more than [`Tuning::max_inflight_per_conn`] unanswered requests on
//!   one connection → `429` with `Retry-After`;
//! * a full request-worker queue → `503` (and a full job queue is the
//!   job manager's own `503`);
//! * more than [`Tuning::max_connections`] open connections → the
//!   accept is answered `503` and closed; a persistent `accept(2)`
//!   failure (fd exhaustion) deregisters the listener for a short
//!   backoff instead of spinning on the un-acceptable backlog entry;
//! * a request that does not complete within
//!   [`Tuning::request_read_timeout`] of its first byte → `408` and
//!   close (slowloris defense); a connection idle beyond
//!   [`Tuning::idle_timeout`] with nothing in flight is closed
//!   silently. Closing a connection never touches jobs the client
//!   submitted — they are owned by the [`crate::job::JobManager`].
//!
//! # Shutdown
//!
//! When the shutdown flag flips (signal, `POST /v1/shutdown`, or
//! [`crate::server::Server::request_shutdown`]), the reactor stops
//! accepting and stops reading, answers parked long-polls with the jobs'
//! current state, drains every in-flight response (bounded by
//! [`Tuning::drain_timeout`]), then joins the request workers. Job
//! workers are joined by the caller afterwards, preserving the PR-5
//! contract that in-flight jobs checkpoint and stay resumable.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{parse_buffered, truncation_error, Parsed, Request, Response};
use crate::server::{endpoint_metric, job_status, long_poll, route, route_is_heavy, Shared};

// ---------------------------------------------------------------------------
// Raw epoll / eventfd FFI. Linux-specific by design: the daemon targets
// the same hosts the benches run on, and std links libc already.

// Field layout must match the kernel ABI, which differs per target:
// x86/x86_64 pack the struct (`data` at offset 4, size 12); every other
// Linux architecture aligns it naturally (`data` at offset 8, size 16),
// mirroring libc's definition.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;

/// A level-triggered epoll instance.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 allocates a new fd; no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness; returns `(token, events)` pairs. A signal
    /// interruption returns an empty batch (the caller's loop re-checks
    /// its shutdown flags).
    fn wait(&self, buf: &mut Vec<(u64, u32)>, timeout: Duration) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        let mut events: [EpollEvent; MAX_EVENTS] = unsafe { std::mem::zeroed() };
        let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: the events array lives across the call and maxevents
        // matches its length.
        let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), MAX_EVENTS as c_int, ms) };
        buf.clear();
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in events.iter().take(n as usize) {
            buf.push((ev.data, ev.events));
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own.
        unsafe { close(self.epfd) };
    }
}

/// The `eventfd(2)` doorbell: request workers (and shutdown requests)
/// ring it to wake the reactor out of `epoll_wait` immediately.
pub(crate) struct Wakeup {
    fd: RawFd,
}

impl Wakeup {
    pub(crate) fn new() -> io::Result<Wakeup> {
        // SAFETY: eventfd allocates a new fd; no pointers involved.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Wakeup { fd })
    }

    /// Adds 1 to the eventfd counter, waking an `epoll_wait`er.
    pub(crate) fn ring(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a live stack value. An EAGAIN
        // (counter saturated) still leaves the fd readable, which is all
        // a doorbell needs.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Clears the counter so the level-triggered registration goes quiet.
    fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reading 8 bytes into a live stack value.
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Wakeup {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own.
        unsafe { close(self.fd) };
    }
}

// ---------------------------------------------------------------------------
// Request-worker pool: heavy routes run here so the loop never blocks.

struct WorkItem {
    token: u64,
    seq: u64,
    request: Request,
}

struct Completion {
    token: u64,
    seq: u64,
    response: Response,
}

pub(crate) struct WorkQueue {
    items: Mutex<VecDeque<WorkItem>>,
    ready: Condvar,
    cap: usize,
}

impl WorkQueue {
    fn new(cap: usize) -> WorkQueue {
        WorkQueue {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Enqueues unless the queue is at capacity (the 503 signal).
    fn try_push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut q = self.items.lock().expect("work queue lock");
        if q.len() >= self.cap {
            return Err(item);
        }
        q.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }
}

fn worker_loop(shared: &Shared, work: &WorkQueue, completions: &Mutex<Vec<Completion>>) {
    loop {
        let item = {
            let mut q = work.items.lock().expect("work queue lock");
            loop {
                if let Some(item) = q.pop_front() {
                    break item;
                }
                // Drain queued requests even while shutting down — the
                // reactor holds their connections open until answered.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = work
                    .ready
                    .wait_timeout(q, Duration::from_millis(200))
                    .expect("work queue lock")
                    .0;
            }
        };
        let response = route(shared, &item.request);
        completions
            .lock()
            .expect("completion lock")
            .push(Completion {
                token: item.token,
                seq: item.seq,
                response,
            });
        shared.wakeup.ring();
    }
}

// ---------------------------------------------------------------------------
// Connection state machine.

/// Reactor knobs; [`Default`] is production-shaped, tests shrink the
/// timeouts.
#[derive(Clone, Copy, Debug)]
pub struct Tuning {
    /// Open-connection cap; accepts beyond it are answered `503`.
    pub max_connections: usize,
    /// Unanswered pipelined requests allowed per connection before
    /// `429`.
    pub max_inflight_per_conn: usize,
    /// Close a connection with nothing buffered and nothing in flight
    /// after this long (advertised via `Keep-Alive: timeout=`).
    pub idle_timeout: Duration,
    /// A request must arrive completely within this long of its first
    /// byte, else `408` + close.
    pub request_read_timeout: Duration,
    /// How long a graceful shutdown waits for in-flight responses.
    pub drain_timeout: Duration,
    /// Request-worker queue capacity; overflow is `503`.
    pub worker_queue_cap: usize,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            max_connections: 1024,
            max_inflight_per_conn: 16,
            idle_timeout: Duration::from_secs(30),
            request_read_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            worker_queue_cap: 256,
        }
    }
}

/// Pause further reads once this much response data is buffered — the
/// client is not draining, so TCP should push back on it.
const WRITE_BUF_PAUSE: usize = 256 * 1024;

/// How long the listener stays deregistered after a persistent accept
/// failure (EMFILE/ENFILE fd exhaustion and the like) before retrying.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(100);

/// One ordered response slot: `bytes` is `None` while the request is in
/// flight on a worker.
struct SlotState {
    seq: u64,
    bytes: Option<Vec<u8>>,
    /// `Connection: close` (or protocol error): stop after flushing this
    /// response.
    close_after: bool,
    /// Telemetry captured at parse time, consumed when the response is
    /// recorded.
    started: Instant,
    metric: &'static str,
    method: String,
    path: String,
    request_id: String,
    /// A long-poll that was parked: its duration is a deliberate wait,
    /// so it never counts as a slow request.
    parked: bool,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written to the socket.
    written: usize,
    pending: VecDeque<SlotState>,
    next_seq: u64,
    /// Requests answered on this connection so far (for the keep-alive
    /// reuse counter).
    answered: u64,
    last_activity: Instant,
    /// When the current partial request started arriving.
    partial_since: Option<Instant>,
    /// No more requests will be read (close requested, protocol error,
    /// peer EOF, or shutdown drain).
    stop_reading: bool,
    /// Close once every pending response has flushed.
    close_after_flush: bool,
    /// Interest currently registered with epoll.
    registered: u32,
}

impl Conn {
    fn unanswered(&self) -> usize {
        self.pending.iter().filter(|s| s.bytes.is_none()).count()
    }

    /// Reads pause while this much response data sits unflushed: the
    /// peer is not draining, so read interest is dropped (level-
    /// triggered epoll would otherwise spin on the readable socket) and
    /// TCP pushes back until [`Reactor::flush_conn`] drains the buffer
    /// and re-arms it.
    fn read_paused(&self) -> bool {
        self.write_buf.len() - self.written > WRITE_BUF_PAUSE
    }
}

struct ConnSlot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_for(index: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | index as u64
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

/// How long one `epoll_wait` may block when no parked deadline is nearer.
const POLL_TICK: Duration = Duration::from_millis(100);

/// A long-poll waiting for `job` to settle: response slot `seq` on the
/// connection behind `token`, answered at `deadline` at the latest.
#[derive(Clone, Copy)]
struct Parked {
    token: u64,
    seq: u64,
    job: u64,
    deadline: Instant,
}

// ---------------------------------------------------------------------------
// The reactor proper.

pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<Shared>,
    tuning: Tuning,
    slots: Vec<ConnSlot>,
    free: Vec<usize>,
    open: usize,
    work: Arc<WorkQueue>,
    completions: Arc<Mutex<Vec<Completion>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    accepting: bool,
    /// Set after a persistent accept error: the listener is deregistered
    /// until this instant so the loop keeps servicing (and closing)
    /// existing connections instead of spinning on the dead accept.
    accept_paused_until: Option<Instant>,
    draining_since: Option<Instant>,
    last_sweep: Instant,
    parked: Vec<Parked>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        request_workers: usize,
        tuning: Tuning,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        poller.add(shared.wakeup.fd, EPOLLIN, TOKEN_WAKEUP)?;
        let work = Arc::new(WorkQueue::new(tuning.worker_queue_cap));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::new();
        for i in 0..request_workers.max(1) {
            let s = Arc::clone(&shared);
            let w = Arc::clone(&work);
            let c = Arc::clone(&completions);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("diffnet-http-{i}"))
                    .spawn(move || worker_loop(&s, &w, &c))?,
            );
        }
        Ok(Reactor {
            poller,
            listener,
            shared,
            tuning,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            work,
            completions,
            workers,
            accepting: true,
            accept_paused_until: None,
            draining_since: None,
            last_sweep: Instant::now(),
            parked: Vec::new(),
        })
    }

    /// Runs the event loop until shutdown completes. Returns after every
    /// connection is drained (or the drain deadline passes) and the
    /// request workers are joined.
    pub(crate) fn run(mut self) -> io::Result<()> {
        let mut events: Vec<(u64, u32)> = Vec::new();
        loop {
            let shutting_down =
                self.shared.shutdown.load(Ordering::SeqCst) || crate::server::signalled();
            if shutting_down {
                self.enter_drain();
                if self.drain_finished() {
                    break;
                }
            }
            self.poller.wait(&mut events, self.poll_timeout())?;
            self.shared.rec.add("reactor_wakeups", 1);
            for &(token, mask) in &events {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKEUP => self.shared.wakeup.drain(),
                    _ => self.conn_ready(token, mask),
                }
            }
            self.apply_completions();
            self.resolve_parked();
            self.sweep_timers();
            self.resume_accepts();
        }
        // Propagate shutdown to the worker pool and join it; queued
        // requests were answered during the drain above (or their
        // connections are closed, making completions no-ops).
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.work.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        Ok(())
    }

    // -- accept path ------------------------------------------------------

    fn accept_ready(&mut self) {
        if !self.accepting || self.accept_paused_until.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The peer aborted between readiness and accept: that
                // connection is gone, but the next one may be fine.
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionAborted
                        || e.kind() == io::ErrorKind::ConnectionReset =>
                {
                    continue
                }
                Err(_) => {
                    // Persistent failure (EMFILE/ENFILE fd exhaustion,
                    // ENOMEM, …): the pending connection stays in the
                    // backlog, so with level-triggered readiness an
                    // immediate retry would spin the loop forever.
                    // Deregister the listener for a backoff so the loop
                    // keeps servicing — and eventually closing, which
                    // frees fds — the connections it already has.
                    self.shared.rec.add("http_accept_errors", 1);
                    self.poller.delete(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                    break;
                }
            }
        }
    }

    /// Re-registers the listener once an accept-error backoff expires.
    fn resume_accepts(&mut self) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if !self.accepting {
            // A drain started meanwhile; it owns the listener's fate.
            self.accept_paused_until = None;
            return;
        }
        if Instant::now() >= until
            && self
                .poller
                .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                .is_ok()
        {
            self.accept_paused_until = None;
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.shared.fault.hit(crate::server::FAULT_ACCEPT).is_err() {
            // Injected accept fault: count it and drop the connection
            // without reading a byte.
            self.shared.rec.add("accept_faults", 1);
            return;
        }
        if self.open >= self.tuning.max_connections {
            // Best-effort rejection: the socket is fresh, so a small
            // response almost always fits in the send buffer without
            // blocking.
            self.shared.rec.add("http_rejected_capacity", 1);
            let mut s = stream;
            let _ = s.set_nonblocking(true);
            let _ = Response::error(503, "connection capacity reached").write_to(&mut s);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(ConnSlot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let gen = self.slots[index].gen;
        let token = token_for(index, gen);
        if self
            .poller
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            self.free.push(index);
            return;
        }
        self.slots[index].conn = Some(Conn {
            stream,
            token,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            answered: 0,
            last_activity: Instant::now(),
            partial_since: None,
            stop_reading: false,
            close_after_flush: false,
            registered: EPOLLIN | EPOLLRDHUP,
        });
        self.open += 1;
        self.shared.rec.add("http_connections_opened", 1);
        self.shared
            .rec
            .value("http_connections_open", self.open as f64);
    }

    // -- connection readiness ---------------------------------------------

    fn slot_index(&self, token: u64) -> Option<usize> {
        let index = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get(index)?;
        if slot.gen != gen || slot.conn.is_none() {
            return None; // stale event for a recycled slot
        }
        Some(index)
    }

    fn conn_ready(&mut self, token: u64, mask: u32) {
        let Some(index) = self.slot_index(token) else {
            return;
        };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(index);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_ready(index);
        }
        if self.slots[index].conn.is_some() && mask & EPOLLOUT != 0 {
            self.flush_conn(index);
        }
    }

    fn read_ready(&mut self, index: usize) {
        let mut chunk = [0u8; 64 * 1024];
        let mut peer_closed = false;
        loop {
            {
                let conn = self.slots[index].conn.as_mut().expect("live conn");
                if conn.stop_reading || conn.read_paused() {
                    // Readiness on a connection we will not read right
                    // now: level-triggered epoll would spin on it, so
                    // drop read interest (keeping write interest if a
                    // flush is still pending). A backpressure pause is
                    // re-armed by flush_conn once the buffer drains;
                    // stop_reading never is.
                    let still_writing = conn.written < conn.write_buf.len();
                    Self::update_interest(&self.poller, conn, still_writing);
                    return;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        peer_closed = true;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        if conn.partial_since.is_none() {
                            conn.partial_since = Some(conn.last_activity);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close_conn(index);
                        return;
                    }
                }
            }
            // Parse and flush between chunks, not after the whole burst:
            // a client pipelining at line rate keeps the socket readable,
            // and only parse/flush move the in-flight and write-buffer
            // budgets the pause check above reads — this bounds read_buf
            // to one partial request plus one chunk per iteration.
            self.parse_available(index);
            if self.slots[index].conn.is_none() {
                return;
            }
            self.flush_conn(index);
            if self.slots[index].conn.is_none() {
                return;
            }
            if peer_closed {
                break;
            }
        }
        if peer_closed {
            let partial = {
                let conn = self.slots[index].conn.as_mut().expect("live conn");
                conn.stop_reading = true;
                !conn.read_buf.is_empty()
            };
            if partial {
                // Half-sent request at EOF: nothing more will arrive, so
                // answer with the typed truncation error (mid-head vs
                // mid-body) the blocking path also produces.
                let e = {
                    let conn = self.slots[index].conn.as_mut().expect("live conn");
                    let e = truncation_error(&conn.read_buf);
                    conn.read_buf.clear();
                    conn.partial_since = None;
                    e
                };
                self.shared.rec.add("http_protocol_errors", 1);
                self.push_error_slot(index, Response::error(e.status(), e.to_string()));
            }
            let conn = self.slots[index].conn.as_mut().expect("live conn");
            if conn.pending.is_empty() && conn.write_buf.len() == conn.written {
                self.close_conn(index);
                return;
            }
            conn.close_after_flush = true;
        }
        self.flush_conn(index);
    }

    /// Runs the incremental parser over whatever is buffered, filling
    /// response slots for every complete request.
    fn parse_available(&mut self, index: usize) {
        loop {
            let conn = self.slots[index].conn.as_mut().expect("live conn");
            if conn.stop_reading || conn.read_buf.is_empty() {
                return;
            }
            match parse_buffered(&conn.read_buf, &self.shared.limits) {
                Ok(Parsed::NeedMore) => {
                    if conn.partial_since.is_none() {
                        conn.partial_since = Some(Instant::now());
                    }
                    return;
                }
                Ok(Parsed::Complete { request, consumed }) => {
                    conn.read_buf.drain(..consumed);
                    if conn.read_buf.is_empty() {
                        conn.partial_since = None;
                    }
                    self.handle_request(index, request);
                }
                Err(e) => {
                    // Protocol error: answer it, then close — framing is
                    // unrecoverable, so the rest of the buffer is dead.
                    self.shared.rec.add("http_protocol_errors", 1);
                    let conn = self.slots[index].conn.as_mut().expect("live conn");
                    conn.read_buf.clear();
                    conn.partial_since = None;
                    self.push_error_slot(index, Response::error(e.status(), e.to_string()));
                    return;
                }
            }
            if self.slots[index].conn.is_none() {
                return;
            }
        }
    }

    /// Appends a close-after error response (protocol error, truncation,
    /// read timeout) behind any requests already pending, preserving
    /// pipelined response order, and stops further reads.
    fn push_error_slot(&mut self, index: usize, response: Response) {
        let rid = self.shared.generated_request_id();
        let seq = {
            let conn = self.slots[index].conn.as_mut().expect("live conn");
            conn.stop_reading = true;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.pending.push_back(SlotState {
                seq,
                bytes: None,
                close_after: true,
                started: Instant::now(),
                metric: "http_request_seconds_other",
                method: "-".to_string(),
                path: "-".to_string(),
                request_id: rid,
                parked: false,
            });
            seq
        };
        self.fill_slot(index, seq, response);
    }

    fn handle_request(&mut self, index: usize, request: Request) {
        self.shared.rec.add("http_requests", 1);
        let keep_alive = request.wants_keep_alive() && self.draining_since.is_none();
        let rid = self.shared.request_id(&request);
        let metric = endpoint_metric(&request);
        let (seq, over_budget) = {
            let conn = self.slots[index].conn.as_mut().expect("live conn");
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if conn.answered > 0 || !conn.pending.is_empty() {
                self.shared.rec.add("http_keepalive_reuses", 1);
            }
            let over = conn.unanswered() >= self.tuning.max_inflight_per_conn;
            conn.pending.push_back(SlotState {
                seq,
                bytes: None,
                close_after: !keep_alive,
                started: Instant::now(),
                metric,
                method: request.method.to_string(),
                path: request.path.clone(),
                request_id: rid,
                parked: false,
            });
            if !keep_alive {
                conn.stop_reading = true;
            }
            (seq, over)
        };
        if over_budget {
            // The client has a full window of unanswered requests on
            // this connection: shed rather than buffer without bound.
            self.shared.rec.add("http_throttled_429", 1);
            let mut resp = Response::error(
                429,
                format!(
                    "more than {} requests in flight on this connection",
                    self.tuning.max_inflight_per_conn
                ),
            );
            resp.header("Retry-After", "1");
            self.fill_slot(index, seq, resp);
            return;
        }
        let token = self.slots[index].conn.as_ref().expect("live conn").token;
        if route_is_heavy(&request) {
            match self.work.try_push(WorkItem {
                token,
                seq,
                request,
            }) {
                Ok(()) => {}
                Err(_) => {
                    self.shared.rec.add("http_rejected_busy", 1);
                    self.fill_slot(index, seq, Response::error(503, "request queue full"));
                }
            }
        } else if let Some((job, wait)) = long_poll(&self.shared, &request) {
            // The job has not settled: hold the slot (and everything
            // pipelined behind it) until it does or the wait runs out.
            let conn = self.slots[index].conn.as_mut().expect("live conn");
            if let Some(slot) = conn.pending.back_mut() {
                slot.parked = true;
            }
            self.shared.rec.add("http_long_polls_parked", 1);
            self.parked.push(Parked {
                token,
                seq,
                job,
                deadline: Instant::now() + wait,
            });
        } else {
            let response = route(&self.shared, &request);
            self.fill_slot(index, seq, response);
        }
    }

    /// Stores a response into its ordered slot and records its
    /// telemetry; the caller flushes.
    fn fill_slot(&mut self, index: usize, seq: u64, mut response: Response) {
        let idle_secs = self.tuning.idle_timeout.as_secs();
        let Some(conn) = self.slots[index].conn.as_mut() else {
            return;
        };
        let Some(slot) = conn.pending.iter_mut().find(|s| s.seq == seq) else {
            return;
        };
        if response.status >= 400 {
            self.shared.rec.add("http_error_responses", 1);
        }
        response.header("X-Request-Id", slot.request_id.clone());
        // A drain closes every connection once it flushes.
        let keep_alive = !slot.close_after && self.draining_since.is_none();
        let mut bytes = Vec::with_capacity(256 + response.body.len());
        response.serialize_into(&mut bytes, keep_alive, idle_secs);
        slot.bytes = Some(bytes);

        let seconds = slot.started.elapsed().as_secs_f64();
        self.shared.rec.duration(slot.metric, seconds);
        let slow = !slot.parked && seconds > self.shared.slow_request_secs;
        if slow {
            self.shared.rec.add("http_slow_requests", 1);
        }
        if self.shared.access_log || slow {
            let mut line = diffnet_observe::Json::object();
            line.push("request_id", slot.request_id.as_str());
            line.push("method", slot.method.as_str());
            line.push("path", slot.path.as_str());
            line.push("status", u64::from(response.status));
            line.push("duration_s", seconds);
            line.push("bytes", response.body.len());
            if slow {
                line.push("slow", true);
                line.push("threshold_s", self.shared.slow_request_secs);
            }
            eprintln!("[access] {}", line.to_compact());
        }
    }

    /// Moves ready responses (in order) into the write buffer and writes
    /// as much as the socket accepts.
    fn flush_conn(&mut self, index: usize) {
        let close_now = {
            let conn = self.slots[index].conn.as_mut().expect("live conn");
            while let Some(front) = conn.pending.front() {
                if front.bytes.is_none() {
                    break;
                }
                let slot = conn.pending.pop_front().expect("front exists");
                conn.write_buf
                    .extend_from_slice(&slot.bytes.expect("ready"));
                conn.answered += 1;
                if slot.close_after {
                    conn.close_after_flush = true;
                    conn.stop_reading = true;
                    break;
                }
            }
            let mut failed = false;
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if conn.written == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.written = 0;
            } else if conn.written > WRITE_BUF_PAUSE {
                // Reclaim flushed bytes so a slow reader does not pin
                // the full history of its responses.
                conn.write_buf.drain(..conn.written);
                conn.written = 0;
            }
            failed
                || (conn.close_after_flush && conn.write_buf.is_empty() && conn.pending.is_empty())
        };
        if close_now {
            self.close_conn(index);
            return;
        }
        let conn = self.slots[index].conn.as_mut().expect("live conn");
        Self::update_interest(&self.poller, conn, !conn.write_buf.is_empty());
    }

    /// Re-registers epoll interest to match what the connection can
    /// currently make progress on. `EPOLLRDHUP` rides with read interest
    /// only: once reads stop — permanently (`stop_reading`) or for a
    /// backpressure pause (`read_paused`) — a readable or half-closed
    /// peer would otherwise keep the level-triggered event hot and spin
    /// the loop.
    fn update_interest(poller: &Poller, conn: &mut Conn, want_write: bool) {
        let mut events = 0;
        if !conn.stop_reading && !conn.read_paused() {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if want_write {
            events |= EPOLLOUT;
        }
        if events != conn.registered
            && poller
                .modify(conn.stream.as_raw_fd(), events, conn.token)
                .is_ok()
        {
            conn.registered = events;
        }
    }

    fn close_conn(&mut self, index: usize) {
        if let Some(conn) = self.slots[index].conn.take() {
            self.poller.delete(conn.stream.as_raw_fd());
            self.slots[index].gen = self.slots[index].gen.wrapping_add(1);
            self.free.push(index);
            self.open -= 1;
            self.shared.rec.add("http_connections_closed", 1);
            self.shared
                .rec
                .value("http_connections_open", self.open as f64);
        }
    }

    // -- completions, timers, shutdown ------------------------------------

    fn apply_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut q = self.completions.lock().expect("completion lock");
            std::mem::take(&mut *q)
        };
        for c in done {
            if let Some(index) = self.slot_index(c.token) {
                self.fill_slot(index, c.seq, c.response);
                self.flush_conn(index);
            }
            // A completion for a closed connection is dropped: the job
            // itself (if any) lives on in the manager.
        }
    }

    /// The `epoll_wait` timeout: [`POLL_TICK`], or less when a parked
    /// deadline comes sooner (rounded up to whole milliseconds, the
    /// syscall's unit, so the wake lands at or after the deadline).
    fn poll_timeout(&self) -> Duration {
        match self.parked.iter().map(|p| p.deadline).min() {
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                (left + Duration::from_micros(999)).min(POLL_TICK)
            }
            None => POLL_TICK,
        }
    }

    /// Answers the parked long-polls whose job settled since the last
    /// pass or whose wait ran out.
    fn resolve_parked(&mut self) {
        let settled = std::mem::take(&mut *self.shared.settled.lock().expect("settled list lock"));
        if self.parked.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        let mut expired = 0;
        self.parked.retain(|p| {
            let woken = settled.contains(&p.job);
            if !woken && p.deadline > now {
                return true;
            }
            expired += u64::from(!woken);
            due.push(*p);
            false
        });
        if expired > 0 {
            self.shared.rec.add("http_long_polls_expired", expired);
        }
        for p in due {
            self.answer_parked(p);
        }
    }

    /// Fills a parked slot with the job's status as of now. An entry
    /// whose connection closed is dropped, like a stale completion.
    fn answer_parked(&mut self, p: Parked) {
        if let Some(index) = self.slot_index(p.token) {
            let response = job_status(&self.shared, p.job);
            self.fill_slot(index, p.seq, response);
            self.flush_conn(index);
        }
    }

    fn sweep_timers(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < Duration::from_millis(250) {
            return;
        }
        self.last_sweep = now;
        for index in 0..self.slots.len() {
            let Some(conn) = self.slots[index].conn.as_ref() else {
                continue;
            };
            // Slowloris / stalled upload: a partial request must finish
            // within the read timeout of its first byte.
            if let Some(since) = conn.partial_since {
                if now.duration_since(since) > self.tuning.request_read_timeout {
                    self.shared.rec.add("http_read_timeouts", 1);
                    let conn = self.slots[index].conn.as_mut().expect("live conn");
                    conn.read_buf.clear();
                    conn.partial_since = None;
                    self.push_error_slot(index, Response::error(408, "request read timeout"));
                    self.flush_conn(index);
                    continue;
                }
            }
            let Some(conn) = self.slots[index].conn.as_ref() else {
                continue;
            };
            // Idle keep-alive connection with nothing in flight: close.
            // In-flight jobs are unaffected — they belong to the job
            // manager, not the connection.
            let idle = conn.pending.is_empty()
                && conn.read_buf.is_empty()
                && conn.write_buf.is_empty()
                && now.duration_since(conn.last_activity) > self.tuning.idle_timeout;
            if idle {
                self.shared.rec.add("http_idle_timeouts", 1);
                self.close_conn(index);
            }
        }
    }

    fn enter_drain(&mut self) {
        if self.draining_since.is_some() {
            return;
        }
        self.draining_since = Some(Instant::now());
        self.accepting = false;
        self.poller.delete(self.listener.as_raw_fd());
        // Parked long-polls get the jobs' current state now instead of
        // holding the drain open until their deadlines.
        for p in std::mem::take(&mut self.parked) {
            self.answer_parked(p);
        }
        for index in 0..self.slots.len() {
            let Some(conn) = self.slots[index].conn.as_mut() else {
                continue;
            };
            conn.stop_reading = true;
            conn.read_buf.clear();
            conn.partial_since = None;
            if conn.pending.is_empty() && conn.write_buf.len() == conn.written {
                self.close_conn(index);
            } else {
                conn.close_after_flush = true;
                Self::update_interest(
                    &self.poller,
                    self.slots[index].conn.as_mut().expect("live conn"),
                    true,
                );
            }
        }
    }

    fn drain_finished(&mut self) -> bool {
        let deadline_passed = self
            .draining_since
            .map(|t| t.elapsed() > self.tuning.drain_timeout)
            .unwrap_or(false);
        if deadline_passed {
            for index in 0..self.slots.len() {
                if self.slots[index].conn.is_some() {
                    self.close_conn(index);
                }
            }
            return true;
        }
        self.open == 0
    }
}
