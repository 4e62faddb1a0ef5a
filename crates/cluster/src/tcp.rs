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
//! All three, and the open outbound link to each address, live in one
//! route table under one lock. A batch — a [`Transport::send_many`], or
//! one socket burst — resolves each of its destinations once, with one
//! probe, and releases the lock before it writes a socket or pushes into a
//! mailbox. The table is keyed by hash, not indexed by id: a sender's id
//! comes from a peer's frame, and no peer-chosen number sizes a table.
//! An address whose connect failed is left alone for [`REFUSED_BACKOFF`]:
//! what is sent to it meanwhile counts as dropped and costs no system
//! call ([`TcpTransport::connects`] counts the attempts).
//!
//! Frames never overtake each other on a connection (TCP is FIFO, and so
//! is a connection's write queue), which preserves the same per-(src, dst)
//! ordering guarantee the simulator's scheduler and the in-process fabric
//! enforce.
//!
//! Writes are *coalesced*. A batch handed over via
//! [`Transport::send_many`] is split by destination connection as it is
//! encoded — each envelope goes onto the end of its connection's share, a
//! pooled buffer ([`wire::BufPool`] — no allocation once warm). A
//! connection has one write queue, a byte buffer its frames leave in
//! order, whichever path queued them. A transport no reactor has adopted
//! writes a share at once, one nonblocking `write` per destination per
//! batch, and queues what the socket does not take. An adopted one
//! *stages* it: the share goes onto its connection's queue, so the sends
//! of many drives, of any task on any worker, leave in one write. The poll
//! below writes a connection's queue when the socket is writable and the
//! polling worker is about to park, or once the queue's oldest frame has
//! waited the adopting reactor's slack
//! ([`PlaneConfig::fabric_slack_us`], handed over on adoption). Queueing
//! asks the poller for writability, so a queued byte never strands.
//! [`TcpTransport::io_stats`] reports the resulting flush and byte counts,
//! from which `bytes / flush` falls out directly. A connection whose queue
//! passes [`MAX_QUEUED`] bytes — a peer that stopped reading — is shut
//! down and its queued frames counted in [`TcpTransport::dropped`]: a
//! stalled peer costs memory up to the bound, never a thread.
//!
//! Reads are readiness-driven. The listener and every connection sit in one
//! epoll set (`cluster/src/poll.rs`), and one function, the transport's *poll*,
//! does all of its socket I/O: it accepts new connections, reads every
//! readable one burst by burst — one `read` takes whatever the socket holds
//! into the connection's one buffer, and every frame of the burst is
//! decoded out of it ([`wire::FrameReader`]) — delivers each burst's frames
//! as one mailbox run per destination, and writes what is queued. A read
//! that comes back short of the room it had drained the socket, so it ends
//! that connection's turn: the poller is level-triggered and reports the
//! next bytes, and a readable socket costs one `read`, not a second that
//! says `WouldBlock`. A decoded envelope owns what it carries (a key is
//! held inline, a byte value is copied), so the next burst reuses the
//! buffer whatever the mailboxes still hold.
//!
//! Who polls: a reactor that spawns a task sending through the transport
//! *adopts* it ([`Transport::io`]), and its workers run the poll at their
//! loop top and park in a poller that the transport's sits nested in.
//! Until then — and for good, for a transport no reactor adopts — one
//! thread of the transport's own (`planet-tcp-io`) runs the same poll; it
//! exits on adoption.
//!
//! Local delivery — of a burst's frames and of a send to a hosted actor
//! alike — runs one loop: consecutive envelopes for one mailbox go in as
//! one run, stamped with one clock read, under the plane's policy, the one
//! [`ChannelTransport`](crate::ChannelTransport) applies: hosted mailboxes
//! are bounded, protocol traffic goes past the bound (nothing that runs
//! the poll may block), and a client submission (`Msg::Submit` or
//! `Msg::SubmitPlan`) is shed at it — bounced back to its `reply_to` as a
//! timed-out `TxnDone`, down the connection it came in on.
//!
//! [`listen`]: TcpTransport::listen
//! [`PlaneConfig::fabric_slack_us`]: crate::PlaneConfig::fabric_slack_us

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use planet_sim::{FastHash, SimTime};

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
    settled: HashSet<u32, FastHash>,
    /// One burst's decoded frames, kept for the capacity.
    frames: Vec<Envelope>,
    /// One burst's destinations, looked up once per burst: a mailbox
    /// `host`ed later is seen by the next burst.
    dests: Vec<(u32, Target)>,
}

/// A connection's unwritten frames.
#[derive(Default)]
struct WriteSide {
    /// Frame bytes not yet written, back-to-back and in order: what a
    /// socket would not take, and what an adopted transport staged.
    queued: Vec<u8>,
    /// Bytes written since `queued` last turned non-empty, and cut from
    /// its front: what its flush counts besides what is left.
    written: usize,
    /// Frames in `queued`: what a close drops.
    frames: u64,
    /// When `queued` last turned non-empty: the age of its oldest frame.
    since: Option<Instant>,
    /// The poller is asked to report the socket writable.
    watched: bool,
    /// Shut down: a later write is a drop.
    closed: bool,
}

/// What [`Connection::offer`] did with a buffer.
enum Wrote {
    /// Written whole.
    Whole,
    /// Queued; the poll writes it.
    Queued,
    /// Not sent, the connection being closed: its frames are dropped.
    Refused,
    /// The write failed, or the queue passed [`MAX_QUEUED`]: close the
    /// connection, dropping the buffer's frames too if they were not
    /// queued.
    Failed { queued: bool },
}

/// What [`Connection::write_queued`] did.
enum Flushed {
    /// The queue went out, this many bytes (0: nothing was queued).
    Out(usize),
    /// Bytes are left: the socket would block, or they are held.
    Left,
    /// The write failed: close the connection.
    Failed,
}

impl Connection {
    /// Send `buf`, `frames` frames back-to-back, under the write lock: onto
    /// the end of the queue when anything is queued or `stage` holds it
    /// back; otherwise at once, as far as the socket takes it, and what is
    /// left queues. Every queueing asks `poller` for writability, under the
    /// lock that [`write_queued`](Self::write_queued) stops asking under,
    /// so a queued byte is always watched for.
    fn offer(&self, poller: &Poller, buf: &[u8], frames: u64, stage: bool) -> Wrote {
        let mut side = self.write.lock().expect("lock poisoned");
        let side = &mut *side;
        if side.closed {
            return Wrote::Refused;
        }
        let mut rest = buf;
        if side.queued.is_empty() {
            if !stage {
                match write_some(&self.stream, buf) {
                    Ok(n) if n == buf.len() => return Wrote::Whole,
                    Ok(n) => {
                        side.written = n;
                        rest = buf.get(n..).unwrap_or_default();
                    }
                    Err(_) => return Wrote::Failed { queued: false },
                }
            }
            side.since = Some(Instant::now());
        }
        side.queued.extend_from_slice(rest);
        side.frames += frames;
        let watched = self.watch(side, poller, Interest::ReadWrite);
        if watched.is_err() || side.queued.len() > MAX_QUEUED {
            return Wrote::Failed { queued: true };
        }
        Wrote::Queued
    }

    /// Write what is queued, as far as the socket takes it, unless its
    /// oldest frame has waited less than `hold`. Once it is all out, stop
    /// watching writability.
    fn write_queued(&self, poller: &Poller, hold: Duration) -> Flushed {
        let mut side = self.write.lock().expect("lock poisoned");
        let side = &mut *side;
        if side.since.is_some_and(|since| since.elapsed() < hold) {
            return Flushed::Left;
        }
        match write_some(&self.stream, &side.queued) {
            Ok(n) if n == side.queued.len() => {
                let bytes = side.written + n;
                side.queued.clear();
                side.written = 0;
                side.frames = 0;
                side.since = None;
                if !side.closed {
                    let _ = self.watch(side, poller, Interest::Read);
                }
                Flushed::Out(bytes)
            }
            Ok(n) => {
                side.queued.drain(..n);
                side.written += n;
                Flushed::Left
            }
            Err(_) => Flushed::Failed,
        }
    }

    /// Ask `poller` to report the socket writable (`ReadWrite`) or stop
    /// asking (`Read`): a system call only when that changes.
    fn watch(&self, side: &mut WriteSide, poller: &Poller, interest: Interest) -> io::Result<()> {
        let writable = interest == Interest::ReadWrite;
        if side.watched != writable {
            poller.modify(&self.stream, self.token, interest)?;
            side.watched = writable;
        }
        Ok(())
    }
}

/// Open connections by token, and the next token.
#[derive(Default)]
struct Open {
    by_token: HashMap<u64, Arc<Connection>, FastHash>,
    next: u64,
}

/// Who runs the transport's poll.
enum Runner {
    /// Nothing to poll yet.
    Idle,
    /// The transport's own thread.
    Own(JoinHandle<()>),
    /// The workers of the reactor that adopted it; sends stage their
    /// frames for up to its slack.
    Adopted(Duration),
    /// Nobody: the transport is stopped.
    Stopped,
}

/// How long an address that refused a connect is left alone: envelopes
/// for it are dropped, without a system call, until the window ends and
/// the next send connects again.
pub const REFUSED_BACKOFF: Duration = Duration::from_millis(100);

/// What the transport knows about one actor id.
#[derive(Default)]
struct Route {
    /// Hosted here: its envelopes go into this mailbox, whatever else is
    /// known about it.
    local: Option<MailboxSender>,
    /// The static route: the address that serves it.
    addr: Option<SocketAddr>,
    /// The connection its envelopes go down: the open link to `addr`, or,
    /// with no `addr`, the reply path learned from its frames.
    conn: Option<Arc<Connection>>,
}

/// The outbound link to one address.
enum Link {
    Open(Arc<Connection>),
    /// A connect failed; the next one waits for this instant.
    Refused(Instant),
}

/// Every route, behind one lock: a batch resolves each of its destinations
/// with one probe here and releases the lock before any socket write or
/// mailbox push. Actor ids are hashed, not indexed: a learned one comes
/// from a peer's frame, and no peer-chosen number sizes a table. Probed per
/// batch, not per envelope, the table keeps `std`'s keyed hasher.
#[derive(Default)]
struct RouteTable {
    by_actor: HashMap<u32, Route>,
    by_addr: HashMap<SocketAddr, Link>,
}

impl RouteTable {
    /// Where envelopes to `actor` go; a connection's share is found or
    /// added in `writes`. `hosted_only`: anywhere but a hosted mailbox is
    /// nowhere.
    fn target(&mut self, actor: u32, hosted_only: bool, writes: &mut Vec<ConnWrite>) -> Target {
        let RouteTable { by_actor, by_addr } = self;
        let Some(route) = by_actor.get_mut(&actor) else {
            return Target::Dropped;
        };
        if let Some(tx) = &route.local {
            return Target::Local(tx.clone());
        }
        if hosted_only {
            return Target::Dropped;
        }
        if let Some(conn) = &route.conn {
            return Target::Write(write_for(writes, Arc::clone(conn)));
        }
        let Some(addr) = route.addr else {
            return Target::Dropped;
        };
        match by_addr.get(&addr) {
            Some(Link::Open(conn)) => {
                route.conn = Some(Arc::clone(conn));
                Target::Write(write_for(writes, Arc::clone(conn)))
            }
            Some(Link::Refused(until)) if Instant::now() < *until => Target::Dropped,
            _ => Target::Connect(addr),
        }
    }

    /// Forget `conn` wherever it is a route. An actor left with nothing
    /// known about it leaves the table.
    fn forget(&mut self, conn: &Arc<Connection>) {
        self.by_addr
            .retain(|_, link| !matches!(link, Link::Open(c) if Arc::ptr_eq(c, conn)));
        self.by_actor.retain(|_, route| {
            if route.conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, conn)) {
                route.conn = None;
            }
            route.local.is_some() || route.addr.is_some() || route.conn.is_some()
        });
    }
}

/// Where one destination of a batch goes, resolved once per batch.
enum Target {
    Local(MailboxSender),
    /// Onto `writes[i]`, the frames bound for one connection.
    Write(usize),
    /// Waiting for a connect to `addr`, made with the table lock released.
    Connect(SocketAddr),
    /// Nowhere: each envelope counts as dropped.
    Dropped,
}

/// One connection's share of a `send_many`: the frames bound for it, encoded
/// back-to-back, and how many there are (what a failed write drops).
struct ConnWrite {
    conn: Arc<Connection>,
    buf: Vec<u8>,
    frames: u64,
}

/// A send's working lists, emptied after each use and kept for their
/// capacity: a warm `send_many` allocates nothing.
#[derive(Default)]
struct Batch {
    /// Each destination of the batch and where it goes.
    dests: Vec<(u32, Target)>,
    /// One per connection the batch writes to.
    writes: Vec<ConnWrite>,
}

/// Most emptied batches kept: one per concurrent sender is all that is
/// ever in use.
const SCRATCH_CAP: usize = 8;

struct TcpInner {
    /// Hosted mailboxes, static routes, learned reply paths and outbound
    /// links.
    routes: Mutex<RouteTable>,
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
    /// Outbound connects attempted.
    connects: AtomicU64, // check:allow(atomics)
    /// Reused encode buffers for the coalesced write path.
    pool: wire::BufPool,
    /// Emptied batches, kept for their capacity.
    scratch: Mutex<Vec<Batch>>,
    /// Buffers written whole: a share written at once, or a connection's
    /// queue written out.
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
                routes: Mutex::new(RouteTable::default()),
                open: Mutex::new(Open::default()),
                listener: Mutex::new(None),
                // Start-up, on the caller's thread: check:allow(panic)
                poller: Poller::new().expect("create the transport's poller"),
                runner: Mutex::new(Runner::Idle),
                closed: AtomicBool::new(false),
                dropped: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                connects: AtomicU64::new(0),
                pool: wire::BufPool::new(),
                scratch: Mutex::new(Vec::new()),
                flushes: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }),
        })
    }

    /// Declare that `actor` is served at `addr` (may be this process).
    pub fn add_route(&self, actor: u32, addr: SocketAddr) {
        let mut table = self.inner.routes.lock().expect("lock poisoned");
        table.by_actor.entry(actor).or_default().addr = Some(addr);
    }

    /// Register a locally hosted actor's mailbox.
    pub fn host(&self, actor: u32, mailbox: MailboxSender) {
        let mut table = self.inner.routes.lock().expect("lock poisoned");
        table.by_actor.entry(actor).or_default().local = Some(mailbox);
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
    /// stalled connections, unroutable destinations, and every envelope
    /// sent to an address within its [`REFUSED_BACKOFF`]).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Client submits shed so far: bounced back as timed-out `TxnDone`s
    /// because a hosted mailbox was full.
    pub fn shed(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }

    /// Outbound connects attempted so far, refused ones included: at most
    /// one per address per [`REFUSED_BACKOFF`] while it refuses, from any
    /// one sender.
    pub fn connects(&self) -> u64 {
        self.inner.connects.load(Ordering::Relaxed)
    }

    /// `(flushes, bytes)` written so far: coalesced buffers written whole
    /// (a batch's share for one connection, or a connection's whole queue)
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
            TcpInner::poll(inner, Some(IO_WAIT), Duration::ZERO);
        }
    }

    /// A reactor runs the poll from now on, and sends stage for up to its
    /// `slack`: the own thread, if one runs, is told and joined.
    fn adopted(&self, slack: Duration) {
        let own = {
            let mut runner = self.runner.lock().expect("lock poisoned");
            if matches!(*runner, Runner::Stopped) {
                return;
            }
            match std::mem::replace(&mut *runner, Runner::Adopted(slack)) {
                Runner::Own(handle) => Some(handle),
                _ => None,
            }
        };
        if let Some(handle) = own {
            self.poller.notify();
            let _ = handle.join();
        }
    }

    /// The slack an adopting reactor handed over, if one has: how long a
    /// staged frame may wait for a worker to park.
    fn staging(&self) -> Option<Duration> {
        match *self.runner.lock().expect("lock poisoned") {
            Runner::Adopted(slack) => Some(slack),
            _ => None,
        }
    }

    /// All of the transport's socket I/O: wait up to `wait` (`None`: not
    /// at all) for readiness, then accept, read and deliver, and write
    /// what is queued, for every ready registration; a queue whose oldest
    /// frame has waited less than `hold` waits on.
    fn poll(inner: &Arc<TcpInner>, wait: Option<Duration>, hold: Duration) {
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
                inner.finish_writes(&conn, hold);
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
                    settled: HashSet::default(),
                    frames: Vec::new(),
                    dests: Vec::new(),
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

    /// Read a readable connection, burst by burst, delivering each burst,
    /// until a read comes back short of the room it had: the socket is
    /// drained, and the poller, level-triggered, reports the next bytes. A
    /// connection another poll is reading is left to it, and one poll
    /// reads at most [`MAX_BURSTS`] from one connection. End of stream, a
    /// read error or a frame that does not decode closes the connection.
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
            if !side.reader.filled_room() {
                return;
            }
        }
    }

    /// Decode every whole frame of the burst and deliver it to its hosted
    /// mailbox (a frame for an actor not hosted here is dropped, never
    /// forwarded), through the loop a send runs. A sender's reply path is
    /// settled once per (connection, sender). `false` when a frame does
    /// not decode (the ones before it are delivered).
    fn deliver_burst(inner: &Arc<TcpInner>, conn: &Arc<Connection>, side: &mut ReadSide) -> bool {
        let ReadSide {
            reader,
            settled,
            frames,
            dests,
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
        let mut no_writes = Vec::new();
        TcpInner::resolve(inner, frames, true, dests, &mut no_writes);
        TcpInner::deliver(inner, frames.drain(..), dests, &mut no_writes);
        dests.clear();
        decoded
    }

    /// Resolve each distinct destination of `envs` once, under one hold of
    /// the table lock, into `dests`, with one pooled buffer in `writes`
    /// (empty on entry) per connection. `hosted_only`: a destination that
    /// is not hosted here is dropped. Connects are made, and buffers
    /// taken, after the lock is released.
    fn resolve(
        inner: &Arc<TcpInner>,
        envs: &[Envelope],
        hosted_only: bool,
        dests: &mut Vec<(u32, Target)>,
        writes: &mut Vec<ConnWrite>,
    ) {
        let mut connect = false;
        {
            let mut table = inner.routes.lock().expect("lock poisoned");
            for env in envs {
                let actor = env.to.0;
                if dests.iter().any(|(id, _)| *id == actor) {
                    continue;
                }
                let target = table.target(actor, hosted_only, writes);
                connect |= matches!(target, Target::Connect(_));
                dests.push((actor, target));
            }
        }
        if connect {
            for (_, target) in dests.iter_mut() {
                if let Target::Connect(addr) = *target {
                    *target = match TcpInner::connection_to(inner, addr) {
                        Some(conn) => Target::Write(write_for(writes, conn)),
                        None => Target::Dropped,
                    };
                }
            }
        }
        for write in writes.iter_mut() {
            write.buf = inner.pool.get();
        }
    }

    /// Deliver `envs`, in order, where [`resolve`](Self::resolve) sent
    /// their destinations: each envelope for a connection is encoded onto
    /// the end of its buffer (batch order is buffer order, so per-pair FIFO
    /// holds), and consecutive envelopes for one hosted mailbox go in as
    /// one run — one lock, one wake — under the plane's policy: protocol
    /// traffic past the bound, a submission shed at it. Every envelope of
    /// one call is stamped with one clock read. No table lock is held.
    fn deliver(
        inner: &Arc<TcpInner>,
        envs: impl Iterator<Item = Envelope>,
        dests: &[(u32, Target)],
        writes: &mut [ConnWrite],
    ) {
        let target = |to: u32| dests.iter().find(|(id, _)| *id == to).map(|(_, t)| t);
        let mut now = None;
        let mut dropped = 0;
        let mut envs = envs.peekable();
        while let Some(env) = envs.next() {
            let tx = match target(env.to.0) {
                Some(Target::Local(tx)) => tx,
                Some(Target::Write(at)) => {
                    if let Some(write) = writes.get_mut(*at) {
                        wire::encode_frame_into(&env, &mut write.buf);
                        write.frames += 1;
                    }
                    continue;
                }
                _ => {
                    dropped += 1;
                    continue;
                }
            };
            let now = *now.get_or_insert_with(Instant::now);
            let mut next = Some(env);
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
                        Err(_) => dropped += 1,
                    }
                    next = envs.next_if(
                        |env| matches!(target(env.to.0), Some(Target::Local(to)) if to.same_as(tx)),
                    );
                }
            }
            // The run has ended (and woken its task); the bounce may go to
            // any mailbox or connection, and the rest of the group opens a
            // run of its own.
            if let Some(env) = shed {
                TcpInner::shed_submission(inner, env);
            }
        }
        if dropped > 0 {
            inner.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Send `envs` (drained): resolve, deliver, then write or stage each
    /// connection's buffer.
    fn send_all(inner: &Arc<TcpInner>, envs: &mut Vec<Envelope>, batch: &mut Batch) {
        let Batch { dests, writes } = batch;
        TcpInner::resolve(inner, envs, false, dests, writes);
        TcpInner::deliver(inner, envs.drain(..), dests, writes);
        dests.clear();
        if writes.is_empty() {
            return;
        }
        let stage = inner.staging().is_some();
        for write in writes.drain(..) {
            inner.write_buf(&write.conn, write.buf, write.frames, stage);
        }
    }

    /// Run `send` with an emptied batch, and keep the batch afterwards.
    fn with_batch(inner: &Arc<TcpInner>, send: impl FnOnce(&mut Batch)) {
        let mut batch = inner.scratch.lock().expect("lock poisoned").pop();
        let batch = batch.get_or_insert_default();
        send(batch);
        let mut scratch = inner.scratch.lock().expect("lock poisoned");
        if scratch.len() < SCRATCH_CAP {
            scratch.push(std::mem::take(batch));
        }
    }

    /// Send one envelope (a start-up injection, a shed bounce: not the
    /// path a drive's outbox takes).
    fn send_env(inner: &Arc<TcpInner>, env: Envelope) {
        TcpInner::with_batch(inner, |batch| {
            TcpInner::send_all(inner, &mut vec![env], batch)
        });
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
        let mut table = self.routes.lock().expect("lock poisoned");
        let route = table.by_actor.entry(from).or_default();
        if route.addr.is_none() {
            route.conn = Some(Arc::clone(conn));
        }
    }

    /// The open outbound connection to `addr`, connecting if there is none
    /// and the address has not refused one within [`REFUSED_BACKOFF`]. A
    /// failed connect starts that window. Two senders that connect at once
    /// keep the first connection; the second is closed unused.
    fn connection_to(inner: &Arc<TcpInner>, addr: SocketAddr) -> Option<Arc<Connection>> {
        match inner
            .routes
            .lock()
            .expect("lock poisoned")
            .by_addr
            .get(&addr)
        {
            Some(Link::Open(conn)) => return Some(Arc::clone(conn)),
            Some(Link::Refused(until)) if Instant::now() < *until => return None,
            _ => {}
        }
        inner.connects.fetch_add(1, Ordering::Relaxed);
        let fresh = TcpStream::connect(addr)
            .ok()
            .and_then(|stream| TcpInner::register(inner, stream));
        let kept = {
            let mut table = inner.routes.lock().expect("lock poisoned");
            match (table.by_addr.get(&addr), &fresh) {
                (Some(Link::Open(kept)), _) => Some(Arc::clone(kept)),
                (_, Some(fresh)) => {
                    table.by_addr.insert(addr, Link::Open(Arc::clone(fresh)));
                    Some(Arc::clone(fresh))
                }
                (_, None) => {
                    let until = Instant::now() + REFUSED_BACKOFF;
                    table.by_addr.insert(addr, Link::Refused(until));
                    None
                }
            }
        };
        if let (Some(kept), Some(fresh)) = (&kept, &fresh) {
            if !Arc::ptr_eq(kept, fresh) {
                inner.close(fresh);
            }
        }
        kept
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
        self.routes.lock().expect("lock poisoned").forget(conn);
        let frames = {
            let mut write = conn.write.lock().expect("lock poisoned");
            let write = &mut *write;
            write.closed = true;
            write.queued = Vec::new();
            write.written = 0;
            write.since = None;
            std::mem::take(&mut write.frames)
        };
        self.dropped.fetch_add(frames, Ordering::Relaxed);
    }

    /// Hand one connection's share of a batch — `frames` frames encoded
    /// back-to-back into a pooled buffer — to its socket, or stage it
    /// ([`Connection::offer`]). A failed write closes the connection (half
    /// a frame may be on the wire, after which nothing the peer reads would
    /// parse), as does a queue past [`MAX_QUEUED`]. Every frame not sent is
    /// counted as dropped.
    fn write_buf(&self, conn: &Arc<Connection>, buf: Vec<u8>, frames: u64, stage: bool) {
        match conn.offer(&self.poller, &buf, frames, stage) {
            Wrote::Whole => self.count_flush(buf.len()),
            Wrote::Queued => {}
            Wrote::Refused => {
                self.dropped.fetch_add(frames, Ordering::Relaxed);
            }
            Wrote::Failed { queued } => {
                if !queued {
                    self.dropped.fetch_add(frames, Ordering::Relaxed);
                }
                self.close(conn);
            }
        }
        self.pool.put(buf);
    }

    /// The socket turned writable: write what is queued, unless its oldest
    /// frame has waited less than `hold`.
    fn finish_writes(&self, conn: &Arc<Connection>, hold: Duration) {
        match conn.write_queued(&self.poller, hold) {
            Flushed::Out(bytes) => self.count_flush(bytes),
            Flushed::Left => {}
            Flushed::Failed => self.close(conn),
        }
    }

    /// A buffer of `bytes` went out whole: count it.
    fn count_flush(&self, bytes: usize) {
        if bytes > 0 {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }
}

/// The index in `writes` of `conn`'s share, added (bufferless) on first
/// use.
fn write_for(writes: &mut Vec<ConnWrite>, conn: Arc<Connection>) -> usize {
    match writes.iter().position(|w| Arc::ptr_eq(&w.conn, &conn)) {
        Some(at) => at,
        None => {
            writes.push(ConnWrite {
                conn,
                buf: Vec::new(),
                frames: 0,
            });
            writes.len() - 1
        }
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

    fn poll(&self, idle: bool) {
        let hold = if idle {
            Duration::ZERO
        } else {
            self.0.staging().unwrap_or_default()
        };
        TcpInner::poll(&self.0, None, hold);
    }

    fn adopted(&self, slack: Duration) {
        self.0.adopted(slack);
    }
}

impl Transport for TcpTransport {
    fn send(&self, env: Envelope) {
        TcpInner::send_env(&self.inner, env);
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        let inner = &self.inner;
        TcpInner::with_batch(inner, |batch| TcpInner::send_all(inner, envs, batch));
    }

    fn io(&self) -> Option<Io> {
        Some(Io {
            source: Arc::new(TcpIo(Arc::clone(&self.inner))),
        })
    }
}
