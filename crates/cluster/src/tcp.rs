//! TCP transport: the wire-format codec over `std::net`, one process per
//! deployment unit.
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
//! Frames never overtake each other on a connection (TCP is FIFO), which
//! preserves the same per-(src, dst) ordering guarantee the simulator's
//! scheduler and the in-process fabric enforce.
//!
//! Writes are *coalesced*: a batch handed over via
//! [`Transport::send_many`] is split by destination connection as it is
//! encoded — each envelope goes straight onto the end of its connection's
//! pooled buffer ([`wire::BufPool`] — no allocation once warm) — and each
//! buffer goes out as a single `write_all` under a single stream lock. One
//! syscall and one lock acquisition per destination per flush, instead of
//! per message. [`TcpTransport::io_stats`] reports the resulting flush and
//! byte counts, from which `bytes / flush` falls out directly.
//!
//! Reads take the batch back the same way: a connection's reader thread
//! issues one `read` per *burst* into a recycled chunk and decodes every
//! frame of the burst as views into it ([`wire::FrameReader`]) — no
//! allocation and a fraction of a syscall per frame. The envelopes handed
//! to mailboxes therefore share a burst chunk; it is recycled when the last
//! of them drops, which is why whatever keeps a key or a value past its
//! message stores a detached copy (see [`wire::FrameReader`]).
//!
//! Local delivery applies the plane's backpressure policy: hosted
//! mailboxes are bounded, protocol traffic blocks at a full one, and a
//! client submission (`Msg::Submit` or `Msg::SubmitPlan`) is shed — bounced
//! back to its `reply_to` as a timed-out `TxnDone` (see the module docs on
//! [`crate::channel`] for the rationale; both transports implement the
//! identical policy).
//!
//! [`listen`]: TcpTransport::listen

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use planet_sim::SimTime;

use crate::node::Packet;
use crate::plane::{MailboxSender, TrySendError};
use crate::transport::{shed_bounce, Envelope, Transport};
use crate::wire;

/// A write handle to one connection, shared by everyone routing to it.
type Conn = Arc<Mutex<TcpStream>>;

/// Which table a resolved connection came from, so a failed write can
/// invalidate the right entry.
enum ConnKey {
    /// A learned reply route (keyed by actor id).
    Peer(u32),
    /// A static-route connection (keyed by remote address).
    Addr(SocketAddr),
}

/// One connection's share of a `send_many`: the frames bound for it, encoded
/// back-to-back, and how many there are (what a failed write drops).
struct ConnWrite {
    conn: Conn,
    key: ConnKey,
    buf: Vec<u8>,
    frames: u64,
}

/// Most emptied `send_many` scratch lists kept: one per concurrent sender is
/// all that is ever in use.
const SCRATCH_CAP: usize = 8;

struct TcpInner {
    /// Static actor → address routes (the deployment topology).
    routes: Mutex<HashMap<u32, SocketAddr>>,
    /// Open outbound connections by remote address.
    conns: Mutex<HashMap<SocketAddr, Conn>>,
    /// Learned actor → connection routes (reply paths for clients).
    peers: Mutex<HashMap<u32, Conn>>,
    /// Locally hosted actors' mailboxes.
    local: Mutex<HashMap<u32, MailboxSender>>,
    /// Raw clones of every stream, so `stop` can unblock reader threads.
    streams: Mutex<Vec<TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    listen_addr: Mutex<Option<SocketAddr>>,
    closed: AtomicBool,
    // Loss accounting only — never synchronizes. check:allow(atomics)
    dropped: AtomicU64,
    shed: AtomicU64, // check:allow(atomics)
    /// Reused encode buffers for the coalesced write path.
    pool: wire::BufPool,
    /// Emptied per-connection lists of `send_many`, kept for their capacity.
    flush_scratch: Mutex<Vec<Vec<ConnWrite>>>,
    /// Successful coalesced writes (one per destination per flush).
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
    pub fn new() -> Arc<Self> {
        Arc::new(TcpTransport {
            inner: Arc::new(TcpInner {
                routes: Mutex::new(HashMap::new()),
                conns: Mutex::new(HashMap::new()),
                peers: Mutex::new(HashMap::new()),
                local: Mutex::new(HashMap::new()),
                streams: Mutex::new(Vec::new()),
                threads: Mutex::new(Vec::new()),
                listen_addr: Mutex::new(None),
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
    /// then, peers' connections wait in its backlog.
    pub fn serve(&self, listener: TcpListener) {
        *self.inner.listen_addr.lock().expect("lock poisoned") = listener.local_addr().ok();
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("planet-tcp-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner.closed.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let _ = TcpInner::adopt(&inner, stream);
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn tcp acceptor");
        self.inner
            .threads
            .lock()
            .expect("lock poisoned")
            .push(handle);
    }

    /// Messages that could not be delivered (connect/write failures,
    /// unroutable destinations).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Client submits shed so far: bounced back as timed-out `TxnDone`s
    /// because a hosted mailbox was full.
    pub fn shed(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }

    /// `(flushes, bytes)` written so far: coalesced socket writes and the
    /// total frame bytes they carried. `bytes / flushes` is the mean flush
    /// size — the direct measure of how well writes are batching.
    pub fn io_stats(&self) -> (u64, u64) {
        (
            self.inner.flushes.load(Ordering::Relaxed),
            self.inner.bytes.load(Ordering::Relaxed),
        )
    }

    /// Close every connection and stop the acceptor and reader threads.
    pub fn stop(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        for stream in self.inner.streams.lock().expect("lock poisoned").drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the acceptor with a throwaway connection.
        if let Some(addr) = *self.inner.listen_addr.lock().expect("lock poisoned") {
            let _ = TcpStream::connect(addr);
        }
        let threads: Vec<_> = self
            .inner
            .threads
            .lock()
            .expect("lock poisoned")
            .drain(..)
            .collect();
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl TcpInner {
    /// Wire up a new connection: keep a write handle, spawn a reader.
    fn adopt(inner: &Arc<TcpInner>, stream: TcpStream) -> Option<Conn> {
        if inner.closed.load(Ordering::SeqCst) {
            return None;
        }
        let _ = stream.set_nodelay(true);
        // Bound every write: `write_batch` holds the per-connection stream
        // lock across `write_all`, so a peer that stops draining must fail
        // the write (and drop the connection) rather than park the sender —
        // and everyone queued behind the lock — forever.
        let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(10)));
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => return None,
        };
        inner
            .streams
            .lock()
            .expect("lock poisoned")
            .push(match stream.try_clone() {
                Ok(raw) => raw,
                Err(_) => return None,
            });
        let conn: Conn = Arc::new(Mutex::new(stream));
        let inner2 = inner.clone();
        let conn2 = conn.clone();
        let handle = std::thread::Builder::new()
            .name("planet-tcp-read".into())
            .spawn(move || TcpInner::read_loop(&inner2, reader, conn2))
            .ok()?;
        inner.threads.lock().expect("lock poisoned").push(handle);
        Some(conn)
    }

    /// Receive on one connection until EOF, burst by burst: one `read`
    /// takes whatever the socket holds into a recycled chunk, and every
    /// frame of the burst is decoded zero-copy out of it
    /// ([`wire::FrameReader`]) and delivered locally.
    ///
    /// The tables are consulted per connection and per burst, not per
    /// frame. A sender's reply path is settled once per (connection,
    /// sender): it has a static route, or `peers` is pointed at this
    /// connection. That holds for the life of the connection — routes are
    /// never removed, and a connection whose write failed is shut down
    /// ([`TcpInner::write_buf`]), which ends this loop. A destination's
    /// mailbox is looked up once per burst, so a mailbox `host`ed later is
    /// seen by the next burst.
    fn read_loop(inner: &Arc<TcpInner>, mut stream: TcpStream, conn: Conn) {
        let mut reader = wire::FrameReader::new();
        let mut settled: HashSet<u32> = HashSet::new();
        let mut mailboxes: Vec<(u32, Option<MailboxSender>)> = Vec::new();
        while matches!(reader.fill(&mut stream), Ok(n) if n > 0) {
            loop {
                let env = match reader.pop_frame() {
                    Ok(Some(env)) => env,
                    Ok(None) => break,
                    Err(_) => return,
                };
                if settled.insert(env.from.0) {
                    inner.learn_reply_path(env.from.0, &conn);
                }
                let known = mailboxes.iter().position(|(id, _)| *id == env.to.0);
                let slot = known.unwrap_or_else(|| {
                    mailboxes.push((env.to.0, inner.mailbox_of(env.to.0)));
                    mailboxes.len() - 1
                });
                match mailboxes.get(slot) {
                    Some((_, Some(tx))) => TcpInner::deliver(inner, tx, env),
                    _ => {
                        inner.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            mailboxes.clear();
        }
    }

    /// The sender is reachable down the connection its frame came in on,
    /// unless a static route says where it lives.
    fn learn_reply_path(&self, from: u32, conn: &Conn) {
        let has_route = self
            .routes
            .lock()
            .expect("lock poisoned")
            .contains_key(&from);
        if !has_route {
            self.peers
                .lock()
                .expect("lock poisoned")
                .insert(from, conn.clone());
        }
    }

    /// The mailbox of a locally hosted actor. The table lock is released
    /// before any mailbox operation (sends may block).
    fn mailbox_of(&self, actor: u32) -> Option<MailboxSender> {
        self.local
            .lock()
            .expect("lock poisoned")
            .get(&actor)
            .cloned()
    }

    /// Deliver into a hosted mailbox under the plane's backpressure
    /// policy: block for protocol traffic, shed submissions.
    fn deliver(inner: &Arc<TcpInner>, tx: &MailboxSender, env: Envelope) {
        if let Some((reply_to, tag)) = env.msg.submission() {
            match tx.try_send(Packet::Env(env)) {
                Ok(()) => {}
                Err(TrySendError::Full(Packet::Env(env))) => {
                    inner.shed.fetch_add(1, Ordering::Relaxed);
                    // Routed like any other send, so a remote load driver
                    // sees the shed as a timeout down its own connection.
                    TcpInner::send_env(inner, shed_bounce(env.to, reply_to, tag, SimTime::ZERO));
                }
                Err(_) => {
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else if tx.send(Packet::Env(env)).is_err() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resolve the connection an envelope to `dst` should go down: learned
    /// reply route first, then static route (connecting on demand).
    /// Returns `None` (and counts a drop) if `dst` is unroutable.
    fn resolve(inner: &Arc<TcpInner>, dst: u32) -> Option<(Conn, ConnKey)> {
        let peer = inner
            .peers
            .lock()
            .expect("lock poisoned")
            .get(&dst)
            .cloned();
        if let Some(conn) = peer {
            return Some((conn, ConnKey::Peer(dst)));
        }
        let addr = inner
            .routes
            .lock()
            .expect("lock poisoned")
            .get(&dst)
            .copied();
        let Some(addr) = addr else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let existing = inner
            .conns
            .lock()
            .expect("lock poisoned")
            .get(&addr)
            .cloned();
        let conn = match existing {
            Some(conn) => Some(conn),
            None => match TcpStream::connect(addr) {
                Ok(stream) => {
                    let conn = TcpInner::adopt(inner, stream);
                    if let Some(conn) = &conn {
                        inner
                            .conns
                            .lock()
                            .expect("lock poisoned")
                            .insert(addr, conn.clone());
                    }
                    conn
                }
                Err(_) => None,
            },
        };
        match conn {
            Some(conn) => Some((conn, ConnKey::Addr(addr))),
            None => {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Forget a connection after a failed write, so the next send
    /// re-resolves (and, for static routes, reconnects).
    fn invalidate(&self, key: &ConnKey) {
        match key {
            ConnKey::Peer(id) => {
                self.peers.lock().expect("lock poisoned").remove(id);
            }
            ConnKey::Addr(addr) => {
                self.conns.lock().expect("lock poisoned").remove(addr);
            }
        }
    }

    /// Write one connection's share of a flush — frames encoded
    /// back-to-back into a pooled buffer — with a single `write_all` under
    /// a single stream lock, and hand the buffer back to the pool. A
    /// failed or timed-out write may have left half a frame on the wire,
    /// after which nothing the peer reads would parse: the connection is
    /// shut down, which also ends its reader thread.
    fn write_buf(&self, conn: &Conn, buf: Vec<u8>) -> bool {
        let ok = {
            let mut stream = conn.lock().expect("lock poisoned");
            // The wait is bounded: adopt() sets a write timeout on every
            // stream, so a stalled peer errors out instead of parking
            // writers behind this connection's lock forever.
            // check:allow(race)
            let ok = stream.write_all(&buf).and_then(|()| stream.flush()).is_ok();
            if !ok {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            ok
        };
        if ok {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        self.pool.put(buf);
        ok
    }

    /// Deliver one envelope: hosted mailbox, or down a resolved connection.
    fn send_env(inner: &Arc<TcpInner>, env: Envelope) {
        if let Some(tx) = inner.mailbox_of(env.to.0) {
            TcpInner::deliver(inner, &tx, env);
            return;
        }
        let Some((conn, key)) = TcpInner::resolve(inner, env.to.0) else {
            return; // drop already counted
        };
        let mut buf = inner.pool.get();
        wire::encode_frame_into(&env, &mut buf);
        if !inner.write_buf(&conn, buf) {
            inner.invalidate(&key);
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
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
            let Some((conn, key)) = TcpInner::resolve(inner, env.to.0) else {
                continue; // drop already counted
            };
            let at = flush.iter().position(|w| Arc::ptr_eq(&w.conn, &conn));
            let at = at.unwrap_or_else(|| {
                flush.push(ConnWrite {
                    conn,
                    key,
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
            if !inner.write_buf(&write.conn, write.buf) {
                inner.invalidate(&write.key);
                inner.dropped.fetch_add(write.frames, Ordering::Relaxed);
            }
        }
        let mut scratch = inner.flush_scratch.lock().expect("lock poisoned");
        if scratch.len() < SCRATCH_CAP {
            scratch.push(std::mem::take(flush));
        }
    }
}
