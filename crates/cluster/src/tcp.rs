//! TCP transport: the wire-format codec over nonblocking `std::net`
//! sockets, one process per deployment unit.
//!
//! A [`TcpTransport`] plays both server and client:
//!
//! * **Hosted actors** (registered with [`TcpTransport::host`]) receive
//!   envelopes addressed to them from any accepted or outbound connection.
//! * **Static routes** ([`TcpTransport::add_route`]) say which remote
//!   address serves a given actor id — the deployment topology, identical
//!   on every `planetd`.
//! * **Learned routes**: when an envelope arrives from an actor with no
//!   static route (a load-driver client behind NAT, say), the transport
//!   remembers the connection it came in on and sends replies back down it.
//!   This is how coordinators answer clients that never [`listen`]. A path
//!   is learned once per (connection, sender), on the sender's first frame.
//!
//! Frames never overtake each other on a connection (TCP is FIFO, and so
//! is a connection's write queue), which preserves the same per-(src, dst)
//! ordering guarantee the simulator's scheduler and the in-process fabric
//! enforce.
//!
//! Writes are *coalesced*: a batch handed over via
//! [`Transport::send_many`] is split by destination connection as it is
//! encoded — each envelope goes straight onto the end of its connection's
//! pooled buffer ([`wire::BufPool`] — no allocation once warm) — and each
//! buffer goes out with one nonblocking `write`. One syscall per
//! destination per flush, instead of per message. [`TcpTransport::io_stats`]
//! reports the resulting flush and byte counts, from which `bytes / flush`
//! falls out directly. A write that would block queues its remainder on the
//! connection; later writes to it go behind the remainder, and the poll
//! below finishes them when the socket turns writable. A connection whose
//! queue passes [`MAX_QUEUED`] bytes — a peer that stopped reading — is
//! shut down and its queued frames counted in [`TcpTransport::dropped`]:
//! a stalled peer costs memory up to the bound, never a thread.
//!
//! Reads are readiness-driven. The listener and every connection sit in one
//! epoll set (`cluster/src/poll.rs`), and one function, the transport's *poll*,
//! does all of its socket I/O: it accepts new connections, reads every
//! readable one burst by burst — one `read` takes whatever the socket holds
//! into the connection's one buffer, and every frame of the burst is
//! decoded out of it ([`wire::FrameReader`]) — delivers each burst's frames
//! as one mailbox run per destination, and finishes queued writes. A
//! decoded envelope owns what it carries (a key is held inline, a byte
//! value is copied), so the next burst reuses the buffer whatever the
//! mailboxes still hold.
//!
//! Who polls: a reactor that spawns a task sending through the transport
//! *adopts* it ([`Transport::io`]), and its workers run the poll at their
//! loop top and park in a poller that the transport's sits nested in.
//! Until then — and for good, for a transport no reactor adopts — one
//! thread of the transport's own (`planet-tcp-io`) runs the same poll; it
//! exits on adoption.
//!
//! Local delivery applies the plane's policy, the one
//! [`ChannelTransport`](crate::ChannelTransport) applies: hosted mailboxes
//! are bounded, protocol traffic goes past the bound (nothing that runs
//! the poll may block), and a client submission (`Msg::Submit` or
//! `Msg::SubmitPlan`) is shed at it — bounced back to its `reply_to` as a
//! timed-out `TxnDone`, down the connection it came in on.
//!
//! [`listen`]: TcpTransport::listen

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use planet_sim::SimTime;

use crate::node::Packet;
use crate::plane::{MailboxSender, TrySendError};
use crate::poll::{Events, Interest, Poller};
use crate::transport::{shed_bounce, Envelope, Io, SocketIo, Transport};
use crate::wire;

/// Bytes a connection may hold queued behind a socket that would block
/// (past what the kernel buffers) before it is shut down as stalled.
pub const MAX_QUEUED: usize = 4 << 20;

/// The listener's token in the poller; connections count up from 1.
const LISTENER: u64 = 0;

/// Most bursts one poll reads from one connection before it moves on (the
/// next poll, level-triggered, comes back for the rest).
const MAX_BURSTS: usize = 16;

/// The own I/O thread's park backstop (a notify cuts it short).
const IO_WAIT: Duration = Duration::from_millis(500);

/// One connection: its socket, its read side (used by one poll at a time)
/// and its write side (every sender, and the poll when it turns writable).
struct Connection {
    /// Its token in the poller.
    token: u64,
    stream: TcpStream,
    read: Mutex<ReadSide>,
    write: Mutex<WriteSide>,
}

/// What reading a connection keeps between bursts.
struct ReadSide {
    reader: wire::FrameReader,
    /// Senders whose reply path this connection has settled.
    settled: HashSet<u32>,
    /// One burst's decoded frames, kept for the capacity.
    frames: Vec<Envelope>,
    /// One burst's destinations and their mailboxes (`None`: not hosted),
    /// looked up once per burst: a mailbox `host`ed later is seen by the
    /// next burst.
    mailboxes: Vec<(u32, Option<MailboxSender>)>,
}

/// A connection's unwritten bytes, in order.
#[derive(Default)]
struct WriteSide {
    /// Pooled buffers not fully written, each with its frame count.
    queued: VecDeque<(Vec<u8>, u64)>,
    /// Bytes of the front buffer already written.
    written: usize,
    /// Bytes queued and not written.
    bytes: usize,
    /// Shut down: a later write is a drop.
    closed: bool,
}

/// What [`Connection::offer`] did with a buffer.
enum Wrote {
    /// Written whole: count it and pool it.
    Whole(Vec<u8>),
    /// Queued behind the socket; the poll finishes it.
    Queued,
    /// Not sent, the connection being closed: its frames are dropped.
    Refused(Vec<u8>, u64),
    /// The write failed, or the queue passed [`MAX_QUEUED`]: close the
    /// connection, dropping the buffer too if it was not queued.
    Failed(Option<(Vec<u8>, u64)>),
}

/// What [`Connection::write_front`] did with the front of the queue.
enum Flushed {
    /// Written whole: count it and pool it.
    Whole(Vec<u8>),
    /// The socket would block again.
    Blocked,
    /// Nothing is queued any more.
    Empty,
    /// The write failed: close the connection.
    Failed,
}

impl Connection {
    /// Write `buf` under the write lock: behind an unwritten remainder it
    /// queues; otherwise it goes at once, as far as the socket takes it,
    /// and what is left queues. Every queueing asks `poller` for
    /// writability, under the lock that [`write_front`](Self::write_front)
    /// stops asking under, so a queued byte is always watched for.
    fn offer(&self, poller: &Poller, buf: Vec<u8>, frames: u64) -> Wrote {
        let mut side = self.write.lock().expect("lock poisoned");
        if side.closed {
            return Wrote::Refused(buf, frames);
        }
        let mut written = 0;
        if side.queued.is_empty() {
            match write_some(&self.stream, &buf) {
                Ok(n) if n == buf.len() => return Wrote::Whole(buf),
                Ok(n) => written = n,
                Err(_) => return Wrote::Failed(Some((buf, frames))),
            }
            side.written = written;
        }
        side.bytes += buf.len() - written;
        side.queued.push_back((buf, frames));
        let watched = poller.modify(&self.stream, self.token, Interest::ReadWrite);
        if watched.is_err() || side.bytes > MAX_QUEUED {
            return Wrote::Failed(None);
        }
        Wrote::Queued
    }

    /// Write the front of the queue as far as the socket takes it. Once the
    /// queue is empty, stop watching writability.
    fn write_front(&self, poller: &Poller) -> Flushed {
        let mut side = self.write.lock().expect("lock poisoned");
        let side = &mut *side;
        let Some((buf, _)) = side.queued.front() else {
            if !side.closed {
                let _ = poller.modify(&self.stream, self.token, Interest::Read);
            }
            return Flushed::Empty;
        };
        let rest = buf.get(side.written..).unwrap_or_default();
        match write_some(&self.stream, rest) {
            Ok(n) if n == rest.len() => {
                side.bytes -= n;
                side.written = 0;
                match side.queued.pop_front() {
                    Some((buf, _)) => Flushed::Whole(buf),
                    None => Flushed::Empty,
                }
            }
            Ok(n) => {
                side.bytes -= n;
                side.written += n;
                Flushed::Blocked
            }
            Err(_) => Flushed::Failed,
        }
    }
}

/// Open connections by token, and the next token.
#[derive(Default)]
struct Open {
    by_token: HashMap<u64, Arc<Connection>>,
    next: u64,
}

/// Who runs the transport's poll.
enum Runner {
    /// Nothing to poll yet.
    Idle,
    /// The transport's own thread.
    Own(JoinHandle<()>),
    /// The workers of the reactor that adopted it.
    Adopted,
    /// Nobody: the transport is stopped.
    Stopped,
}

/// Most emptied `send_many` scratch lists kept: one per concurrent sender is
/// all that is ever in use.
const SCRATCH_CAP: usize = 8;

/// One connection's share of a `send_many`: the frames bound for it, encoded
/// back-to-back, and how many there are (what a failed write drops).
struct ConnWrite {
    conn: Arc<Connection>,
    buf: Vec<u8>,
    frames: u64,
}

struct TcpInner {
    /// Static actor → address routes (the deployment topology).
    routes: Mutex<HashMap<u32, SocketAddr>>,
    /// Open outbound connections by remote address.
    conns: Mutex<HashMap<SocketAddr, Arc<Connection>>>,
    /// Learned actor → connection routes (reply paths for clients).
    peers: Mutex<HashMap<u32, Arc<Connection>>>,
    /// Locally hosted actors' mailboxes.
    local: Mutex<HashMap<u32, MailboxSender>>,
    /// Every open connection, by its token in the poller.
    open: Mutex<Open>,
    listener: Mutex<Option<TcpListener>>,
    /// The listener and every open connection, level-triggered.
    poller: Poller,
    runner: Mutex<Runner>,
    closed: AtomicBool,
    // Loss accounting only — never synchronizes. check:allow(atomics)
    dropped: AtomicU64,
    shed: AtomicU64, // check:allow(atomics)
    /// Reused encode buffers for the coalesced write path.
    pool: wire::BufPool,
    /// Emptied per-connection lists of `send_many`, kept for their capacity.
    flush_scratch: Mutex<Vec<Vec<ConnWrite>>>,
    /// Buffers written whole (one per destination per flush).
    flushes: AtomicU64, // check:allow(atomics)
    /// Payload bytes across those writes.
    bytes: AtomicU64, // check:allow(atomics)
}

/// The TCP transport.
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl TcpTransport {
    /// A transport with no routes and no listener yet.
    ///
    /// # Panics
    ///
    /// When the process is out of file descriptors for its poller.
    pub fn new() -> Arc<Self> {
        Arc::new(TcpTransport {
            inner: Arc::new(TcpInner {
                routes: Mutex::new(HashMap::new()),
                conns: Mutex::new(HashMap::new()),
                peers: Mutex::new(HashMap::new()),
                local: Mutex::new(HashMap::new()),
                open: Mutex::new(Open::default()),
                listener: Mutex::new(None),
                // Start-up, on the caller's thread: check:allow(panic)
                poller: Poller::new().expect("create the transport's poller"),
                runner: Mutex::new(Runner::Idle),
                closed: AtomicBool::new(false),
                dropped: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                pool: wire::BufPool::new(),
                flush_scratch: Mutex::new(Vec::new()),
                flushes: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }),
        })
    }

    /// Declare that `actor` is served at `addr` (may be this process).
    pub fn add_route(&self, actor: u32, addr: SocketAddr) {
        self.inner
            .routes
            .lock()
            .expect("lock poisoned")
            .insert(actor, addr);
    }

    /// Register a locally hosted actor's mailbox.
    pub fn host(&self, actor: u32, mailbox: MailboxSender) {
        self.inner
            .local
            .lock()
            .expect("lock poisoned")
            .insert(actor, mailbox);
    }

    /// Bind `addr` (port 0 allowed) and start accepting connections.
    /// Returns the bound address.
    pub fn listen(&self, addr: SocketAddr) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        self.serve(listener);
        Ok(bound)
    }

    /// Start accepting connections on a listener bound earlier; until
    /// then, peers' connections wait in its backlog. A listener that
    /// cannot be polled is dropped, which refuses them.
    pub fn serve(&self, listener: TcpListener) {
        let inner = &self.inner;
        if inner.closed.load(Ordering::SeqCst)
            || listener.set_nonblocking(true).is_err()
            || inner
                .poller
                .add(&listener, LISTENER, Interest::Read)
                .is_err()
        {
            return;
        }
        *inner.listener.lock().expect("lock poisoned") = Some(listener);
        TcpInner::ensure_driven(inner);
    }

    /// Messages that could not be delivered (connect/write failures,
    /// stalled connections, unroutable destinations).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Client submits shed so far: bounced back as timed-out `TxnDone`s
    /// because a hosted mailbox was full.
    pub fn shed(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }

    /// `(flushes, bytes)` written so far: coalesced buffers written whole
    /// and the total frame bytes they carried. `bytes / flushes` is the
    /// mean flush size — the direct measure of how well writes are
    /// batching.
    pub fn io_stats(&self) -> (u64, u64) {
        (
            self.inner.flushes.load(Ordering::Relaxed),
            self.inner.bytes.load(Ordering::Relaxed),
        )
    }

    /// Stop the transport's own I/O thread if it runs, close the listener
    /// and every connection (their queued frames count as dropped), and
    /// forget every connection route.
    pub fn stop(&self) {
        let inner = &self.inner;
        inner.closed.store(true, Ordering::SeqCst);
        let own = {
            let mut runner = inner.runner.lock().expect("lock poisoned");
            match std::mem::replace(&mut *runner, Runner::Stopped) {
                Runner::Own(handle) => Some(handle),
                _ => None,
            }
        };
        if let Some(handle) = own {
            inner.poller.notify();
            let _ = handle.join();
        }
        if let Some(listener) = inner.listener.lock().expect("lock poisoned").take() {
            let _ = inner.poller.delete(&listener);
        }
        let open: Vec<_> = {
            let mut open = inner.open.lock().expect("lock poisoned");
            open.by_token.drain().map(|(_, conn)| conn).collect()
        };
        for conn in &open {
            inner.close(conn);
        }
    }
}

impl TcpInner {
    /// Make sure someone runs the poll: the transport's own thread, unless
    /// a reactor has adopted the transport (or it is stopped).
    fn ensure_driven(inner: &Arc<TcpInner>) {
        let mut runner = inner.runner.lock().expect("lock poisoned");
        if !matches!(*runner, Runner::Idle) || inner.closed.load(Ordering::SeqCst) {
            return;
        }
        let own = Arc::clone(inner);
        // The runner lock is held across the spawn, so the thread's first
        // look at it finds itself installed.
        let spawned = std::thread::Builder::new()
            .name("planet-tcp-io".into())
            // `drive` runs on the new thread, not under the guard: check:allow(race)
            .spawn(move || TcpInner::drive(&own));
        if let Ok(handle) = spawned {
            *runner = Runner::Own(handle);
        }
    }

    /// The own I/O thread: poll, parked in the poller between polls, until
    /// a reactor adopts the transport or it stops.
    fn drive(inner: &Arc<TcpInner>) {
        while matches!(*inner.runner.lock().expect("lock poisoned"), Runner::Own(_)) {
            TcpInner::poll(inner, Some(IO_WAIT));
        }
    }

    /// A reactor runs the poll from now on: the own thread, if one runs,
    /// is told and joined.
    fn adopted(&self) {
        let own = {
            let mut runner = self.runner.lock().expect("lock poisoned");
            if matches!(*runner, Runner::Stopped) {
                return;
            }
            match std::mem::replace(&mut *runner, Runner::Adopted) {
                Runner::Own(handle) => Some(handle),
                _ => None,
            }
        };
        if let Some(handle) = own {
            self.poller.notify();
            let _ = handle.join();
        }
    }

    /// All of the transport's socket I/O: wait up to `wait` (`None`: not
    /// at all) for readiness, then accept, read and deliver, and finish
    /// queued writes, for every ready registration.
    fn poll(inner: &Arc<TcpInner>, wait: Option<Duration>) {
        let mut events = Events::new();
        if inner.poller.wait(&mut events, wait).is_err() {
            return;
        }
        for ready in events.iter() {
            if ready.token == LISTENER {
                TcpInner::accept_all(inner);
                continue;
            }
            let conn = inner
                .open
                .lock()
                .expect("lock poisoned")
                .by_token
                .get(&ready.token)
                .cloned();
            let Some(conn) = conn else {
                continue; // closed since the wait
            };
            if ready.writable() {
                inner.finish_writes(&conn);
            }
            if ready.readable() {
                TcpInner::read_ready(inner, &conn);
            }
        }
    }

    /// Accept every connection waiting on the listener.
    fn accept_all(inner: &Arc<TcpInner>) {
        loop {
            let accepted = match inner.listener.lock().expect("lock poisoned").as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let _ = TcpInner::register(inner, stream);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // `WouldBlock`: all taken. Anything else (out of
                // descriptors, say) leaves the rest for a later poll.
                Err(_) => return,
            }
        }
    }

    /// Wire up a new connection: nonblocking, in the poller for reads.
    fn register(inner: &Arc<TcpInner>, stream: TcpStream) -> Option<Arc<Connection>> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let conn = {
            let mut open = inner.open.lock().expect("lock poisoned");
            // Under the table lock, which `stop` drains after storing
            // `closed`: a connection that races the stop is refused or
            // closed with the rest.
            if inner.closed.load(Ordering::SeqCst) {
                return None;
            }
            open.next += 1;
            let conn = Arc::new(Connection {
                token: open.next,
                stream,
                read: Mutex::new(ReadSide {
                    reader: wire::FrameReader::new(),
                    settled: HashSet::new(),
                    frames: Vec::new(),
                    mailboxes: Vec::new(),
                }),
                write: Mutex::new(WriteSide::default()),
            });
            inner
                .poller
                .add(&conn.stream, conn.token, Interest::Read)
                .ok()?;
            open.by_token.insert(conn.token, Arc::clone(&conn));
            conn
        };
        TcpInner::ensure_driven(inner);
        Some(conn)
    }

    /// Read a readable connection, burst by burst, until it would block
    /// (or [`MAX_BURSTS`]), delivering each burst. A connection another
    /// poll is reading is left to it. End of stream, a read error or a
    /// frame that does not decode closes the connection.
    fn read_ready(inner: &Arc<TcpInner>, conn: &Arc<Connection>) {
        let Ok(mut side) = conn.read.try_lock() else {
            return;
        };
        for _ in 0..MAX_BURSTS {
            let open = match side.reader.fill(&mut &conn.stream) {
                Ok(0) => false,
                Ok(_) => TcpInner::deliver_burst(inner, conn, &mut side),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => false,
            };
            if !open {
                drop(side);
                inner.close(conn);
                return;
            }
        }
    }

    /// Decode every whole frame of the burst and deliver it: consecutive
    /// frames for one mailbox as one run, under one lock and with one
    /// wake. The tables are consulted per burst, not per frame: a sender's
    /// reply path is settled once per (connection, sender), and a
    /// destination's mailbox is looked up once per burst. `false` when a
    /// frame does not decode (the ones before it are delivered).
    fn deliver_burst(inner: &Arc<TcpInner>, conn: &Arc<Connection>, side: &mut ReadSide) -> bool {
        let ReadSide {
            reader,
            settled,
            frames,
            mailboxes,
        } = side;
        let decoded = loop {
            match reader.pop_frame() {
                Ok(Some(env)) => {
                    if settled.insert(env.from.0) {
                        inner.learn_reply_path(env.from.0, conn);
                    }
                    frames.push(env);
                }
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        let now = Instant::now();
        let mut burst = frames.drain(..).peekable();
        while let Some(first) = burst.next() {
            let to = first.to.0;
            let tx = match mailboxes.iter().find(|(id, _)| *id == to) {
                Some((_, tx)) => tx.clone(),
                None => {
                    let tx = inner.mailbox_of(to);
                    mailboxes.push((to, tx.clone()));
                    tx
                }
            };
            let Some(tx) = tx else {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let mut next = Some(first);
            let mut shed = None;
            {
                let mut run = tx.open_run();
                while let Some(env) = next.take() {
                    let bounded = env.msg.submission().is_some();
                    match run.push(now, Packet::Env(env), bounded) {
                        Ok(()) => {}
                        Err(TrySendError::Full(Packet::Env(env))) => {
                            shed = Some(env);
                            break;
                        }
                        // Destination node already stopped.
                        Err(_) => {
                            inner.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    next = burst.next_if(|env| env.to.0 == to);
                }
            }
            // The run has ended (and woken its task); the bounce may go to
            // any mailbox or connection, and the rest of the group opens a
            // run of its own.
            if let Some(env) = shed {
                TcpInner::shed_submission(inner, env);
            }
        }
        drop(burst);
        mailboxes.clear();
        decoded
    }

    /// A submission met a full mailbox: bounce it back to its client as a
    /// timeout, routed like any other send — a remote load generator sees the
    /// shed down its own connection.
    fn shed_submission(inner: &Arc<TcpInner>, env: Envelope) {
        inner.shed.fetch_add(1, Ordering::Relaxed);
        if let Some((reply_to, tag)) = env.msg.submission() {
            TcpInner::send_env(inner, shed_bounce(env.to, reply_to, tag, SimTime::ZERO));
        }
    }

    /// The sender is reachable down the connection its frame came in on,
    /// unless a static route says where it lives.
    fn learn_reply_path(&self, from: u32, conn: &Arc<Connection>) {
        let has_route = self
            .routes
            .lock()
            .expect("lock poisoned")
            .contains_key(&from);
        if !has_route {
            self.peers
                .lock()
                .expect("lock poisoned")
                .insert(from, Arc::clone(conn));
        }
    }

    /// The mailbox of a locally hosted actor. The table lock is released
    /// before any mailbox operation.
    fn mailbox_of(&self, actor: u32) -> Option<MailboxSender> {
        self.local
            .lock()
            .expect("lock poisoned")
            .get(&actor)
            .cloned()
    }

    /// Deliver one envelope into a hosted mailbox under the plane's policy:
    /// protocol traffic past the bound, submissions shed at it.
    fn deliver(inner: &Arc<TcpInner>, tx: &MailboxSender, env: Envelope) {
        let bounded = env.msg.submission().is_some();
        let pushed = tx
            .open_run()
            .push(Instant::now(), Packet::Env(env), bounded);
        match pushed {
            Ok(()) => {}
            Err(TrySendError::Full(Packet::Env(env))) => TcpInner::shed_submission(inner, env),
            Err(_) => {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Resolve the connection an envelope to `dst` should go down: learned
    /// reply route first, then static route (connecting on demand).
    /// Returns `None` (and counts a drop) if `dst` is unroutable.
    fn resolve(inner: &Arc<TcpInner>, dst: u32) -> Option<Arc<Connection>> {
        let peer = inner
            .peers
            .lock()
            .expect("lock poisoned")
            .get(&dst)
            .cloned();
        if peer.is_some() {
            return peer;
        }
        let addr = inner
            .routes
            .lock()
            .expect("lock poisoned")
            .get(&dst)
            .copied();
        let conn = addr.and_then(|addr| TcpInner::connection_to(inner, addr));
        if conn.is_none() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        conn
    }

    /// The open outbound connection to `addr`, connecting if there is none.
    /// Two senders that connect at once keep the first connection; the
    /// second is closed unused.
    fn connection_to(inner: &Arc<TcpInner>, addr: SocketAddr) -> Option<Arc<Connection>> {
        let existing = inner
            .conns
            .lock()
            .expect("lock poisoned")
            .get(&addr)
            .cloned();
        if existing.is_some() {
            return existing;
        }
        let fresh = TcpInner::register(inner, TcpStream::connect(addr).ok()?)?;
        let kept = Arc::clone(
            inner
                .conns
                .lock()
                .expect("lock poisoned")
                .entry(addr)
                .or_insert_with(|| Arc::clone(&fresh)),
        );
        if !Arc::ptr_eq(&kept, &fresh) {
            inner.close(&fresh);
        }
        Some(kept)
    }

    /// Shut a connection down: out of the poller and every table, its
    /// queued frames counted as dropped. A route that pointed at it is
    /// resolved afresh by the next send (for a static route, a reconnect).
    fn close(&self, conn: &Arc<Connection>) {
        let _ = self.poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.open
            .lock()
            .expect("lock poisoned")
            .by_token
            .remove(&conn.token);
        self.conns
            .lock()
            .expect("lock poisoned")
            .retain(|_, c| !Arc::ptr_eq(c, conn));
        self.peers
            .lock()
            .expect("lock poisoned")
            .retain(|_, c| !Arc::ptr_eq(c, conn));
        let queued = {
            let mut write = conn.write.lock().expect("lock poisoned");
            write.closed = true;
            write.written = 0;
            write.bytes = 0;
            std::mem::take(&mut write.queued)
        };
        for (buf, frames) in queued {
            self.dropped.fetch_add(frames, Ordering::Relaxed);
            self.pool.put(buf);
        }
    }

    /// Hand one connection's share of a flush — `frames` frames encoded
    /// back-to-back into a pooled buffer — to its socket
    /// ([`Connection::offer`]). A failed write closes the connection (half
    /// a frame may be on the wire, after which nothing the peer reads would
    /// parse), as does a queue past [`MAX_QUEUED`]. Every frame not sent is
    /// counted as dropped.
    fn write_buf(&self, conn: &Arc<Connection>, buf: Vec<u8>, frames: u64) {
        match conn.offer(&self.poller, buf, frames) {
            Wrote::Whole(buf) => self.count_flush(buf),
            Wrote::Queued => {}
            Wrote::Refused(buf, frames) => {
                self.dropped.fetch_add(frames, Ordering::Relaxed);
                self.pool.put(buf);
            }
            Wrote::Failed(unsent) => {
                if let Some((buf, frames)) = unsent {
                    self.dropped.fetch_add(frames, Ordering::Relaxed);
                    self.pool.put(buf);
                }
                self.close(conn);
            }
        }
    }

    /// The socket turned writable: write what is queued, in order, until
    /// it would block again or it is all out.
    fn finish_writes(&self, conn: &Arc<Connection>) {
        loop {
            match conn.write_front(&self.poller) {
                Flushed::Whole(buf) => self.count_flush(buf),
                Flushed::Blocked | Flushed::Empty => return,
                Flushed::Failed => {
                    self.close(conn);
                    return;
                }
            }
        }
    }

    /// A buffer went out whole: count it and give it back to the pool.
    fn count_flush(&self, buf: Vec<u8>) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.pool.put(buf);
    }

    /// Deliver one envelope: hosted mailbox, or down a resolved connection.
    fn send_env(inner: &Arc<TcpInner>, env: Envelope) {
        if let Some(tx) = inner.mailbox_of(env.to.0) {
            TcpInner::deliver(inner, &tx, env);
            return;
        }
        let Some(conn) = TcpInner::resolve(inner, env.to.0) else {
            return; // drop already counted
        };
        let mut buf = inner.pool.get();
        wire::encode_frame_into(&env, &mut buf);
        inner.write_buf(&conn, buf, 1);
    }
}

/// Write as much of `buf` as the socket takes without blocking; how much
/// that was. An error other than `WouldBlock` is the connection's end.
fn write_some(stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    let mut done = 0;
    while let Some(rest) = buf.get(done..).filter(|rest| !rest.is_empty()) {
        match (&*stream).write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// The transport's socket I/O as a reactor runs it.
struct TcpIo(Arc<TcpInner>);

impl SocketIo for TcpIo {
    fn poller(&self) -> &Poller {
        &self.0.poller
    }

    fn poll(&self) {
        TcpInner::poll(&self.0, None);
    }

    fn adopted(&self) {
        self.0.adopted();
    }
}

impl Transport for TcpTransport {
    fn send(&self, env: Envelope) {
        TcpInner::send_env(&self.inner, env);
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        let inner = &self.inner;
        // Each envelope is encoded, as it is resolved, onto the end of its
        // connection's buffer: order within a buffer follows batch order,
        // so per-pair FIFO is untouched. Local deliveries happen inline.
        let mut flush = inner.flush_scratch.lock().expect("lock poisoned").pop();
        let flush = flush.get_or_insert_default();
        for env in envs.drain(..) {
            if let Some(tx) = inner.mailbox_of(env.to.0) {
                TcpInner::deliver(inner, &tx, env);
                continue;
            }
            let Some(conn) = TcpInner::resolve(inner, env.to.0) else {
                continue; // drop already counted
            };
            let at = flush.iter().position(|w| Arc::ptr_eq(&w.conn, &conn));
            let at = at.unwrap_or_else(|| {
                flush.push(ConnWrite {
                    conn,
                    buf: inner.pool.get(),
                    frames: 0,
                });
                flush.len() - 1
            });
            if let Some(write) = flush.get_mut(at) {
                wire::encode_frame_into(&env, &mut write.buf);
                write.frames += 1;
            }
        }
        for write in flush.drain(..) {
            inner.write_buf(&write.conn, write.buf, write.frames);
        }
        let mut scratch = inner.flush_scratch.lock().expect("lock poisoned");
        if scratch.len() < SCRATCH_CAP {
            scratch.push(std::mem::take(flush));
        }
    }

    fn io(&self) -> Option<Io> {
        Some(Io {
            source: Arc::new(TcpIo(Arc::clone(&self.inner))),
        })
    }
}
