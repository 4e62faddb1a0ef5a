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
//!   This is how coordinators answer clients that never [`listen`].
//!
//! Frames never overtake each other on a connection (TCP is FIFO), which
//! preserves the same per-(src, dst) ordering guarantee the simulator's
//! scheduler and the in-process fabric enforce.
//!
//! Writes are *coalesced*: a batch handed over via
//! [`Transport::send_many`] is grouped by destination connection, each
//! group is encoded back-to-back into one pooled buffer
//! ([`wire::BufPool`] — no allocation once warm), and the whole group goes
//! out as a single `write_all` under a single stream lock. One syscall and
//! one lock acquisition per destination per flush, instead of per message.
//! [`TcpTransport::io_stats`] reports the resulting flush and byte counts,
//! from which `bytes / flush` falls out directly.
//!
//! Local delivery applies the plane's backpressure policy: hosted
//! mailboxes are bounded, protocol traffic blocks at a full one, and a
//! client submission (`Msg::Submit` or `Msg::SubmitPlan`) is shed — bounced
//! back to its `reply_to` as a timed-out `TxnDone` (see the module docs on
//! [`crate::channel`] for the rationale; both transports implement the
//! identical policy).
//!
//! [`listen`]: TcpTransport::listen

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use planet_mdcc::{Msg, Outcome, TxnStats};
use planet_sim::{ActorId, SimTime};
use planet_storage::TxnId;

use crate::node::Packet;
use crate::plane::{MailboxSender, TrySendError};
use crate::transport::{Envelope, Transport};
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
        *self.inner.listen_addr.lock().expect("lock poisoned") = Some(bound);
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
            })?;
        self.inner
            .threads
            .lock()
            .expect("lock poisoned")
            .push(handle);
        Ok(bound)
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

    /// Decode frames off one connection until EOF, delivering locally and
    /// learning reply routes. Frames are read into pooled `Arc<[u8]>`
    /// buffers and decoded zero-copy: payload fields (keys, byte values)
    /// borrow views of the receive buffer instead of allocating, and the
    /// buffer returns to the pool once every view of it is dropped.
    fn read_loop(inner: &Arc<TcpInner>, mut stream: TcpStream, conn: Conn) {
        let mut pool = wire::FramePool::new();
        loop {
            match wire::read_frame_pooled(&mut stream, &mut pool) {
                Ok(Some(env)) => {
                    // Learn the reply path: the sender is reachable down
                    // this connection (unless a static route exists).
                    let has_route = inner
                        .routes
                        .lock()
                        .expect("lock poisoned")
                        .contains_key(&env.from.0);
                    if !has_route {
                        inner
                            .peers
                            .lock()
                            .expect("lock poisoned")
                            .insert(env.from.0, conn.clone());
                    }
                    TcpInner::deliver_local(inner, env);
                }
                Ok(None) | Err(_) => return,
            }
        }
    }

    /// Deliver into a hosted mailbox under the plane's backpressure
    /// policy: block for protocol traffic, shed submissions. The table lock
    /// is released before any mailbox operation (sends may block).
    fn deliver_local(inner: &Arc<TcpInner>, env: Envelope) {
        let mailbox = inner
            .local
            .lock()
            .expect("lock poisoned")
            .get(&env.to.0)
            .cloned();
        let Some(tx) = mailbox else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if let Some((reply_to, tag)) = env.msg.submission() {
            match tx.try_send(Packet::Env(env)) {
                Ok(()) => {}
                Err(TrySendError::Full(Packet::Env(env))) => {
                    inner.shed.fetch_add(1, Ordering::Relaxed);
                    TcpInner::bounce_submit(inner, env.to, reply_to, tag);
                }
                Err(_) => {
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else if tx.send(Packet::Env(env)).is_err() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Turn a shed submission into a synthetic timed-out `TxnDone` to its
    /// `reply_to` — routed like any other send, so a remote load driver
    /// sees the shed as a timeout down its own connection.
    fn bounce_submit(inner: &Arc<TcpInner>, from: ActorId, reply_to: ActorId, tag: u64) {
        let bounce = Envelope {
            from,
            to: reply_to,
            msg: Msg::TxnDone {
                tag,
                txn: TxnId::new(0, 0),
                outcome: Outcome::TimedOut,
                stats: TxnStats {
                    submitted_at: SimTime::from_micros(0),
                    decided_at: SimTime::from_micros(0),
                    proposals_sent_at: SimTime::from_micros(0),
                    write_keys: 0,
                    votes_received: 0,
                    rejections: 0,
                },
            },
        };
        TcpInner::send_env(inner, bounce);
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

    /// Encode `envs` back-to-back into one pooled buffer and write the lot
    /// with a single `write_all` under a single stream lock.
    fn write_batch(&self, conn: &Conn, envs: &[Envelope]) -> bool {
        let mut buf = self.pool.get();
        for env in envs {
            wire::encode_frame_into(env, &mut buf);
        }
        let ok = {
            let mut stream = conn.lock().expect("lock poisoned");
            // The wait is bounded: adopt() sets a write timeout on every
            // stream, so a stalled peer errors out instead of parking
            // writers behind this connection's lock forever.
            // check:allow(race)
            stream.write_all(&buf).and_then(|()| stream.flush()).is_ok()
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
        if inner
            .local
            .lock()
            .expect("lock poisoned")
            .contains_key(&env.to.0)
        {
            TcpInner::deliver_local(inner, env);
            return;
        }
        let Some((conn, key)) = TcpInner::resolve(inner, env.to.0) else {
            return; // drop already counted
        };
        if !inner.write_batch(&conn, std::slice::from_ref(&env)) {
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
        // Group the batch by destination connection (order within a group
        // follows batch order, so per-pair FIFO is untouched). Local
        // deliveries happen inline.
        let mut groups: Vec<(Conn, ConnKey, Vec<Envelope>)> = Vec::new();
        for env in envs.drain(..) {
            if inner
                .local
                .lock()
                .expect("lock poisoned")
                .contains_key(&env.to.0)
            {
                TcpInner::deliver_local(inner, env);
                continue;
            }
            let Some((conn, key)) = TcpInner::resolve(inner, env.to.0) else {
                continue; // drop already counted
            };
            match groups.iter_mut().find(|(c, _, _)| Arc::ptr_eq(c, &conn)) {
                Some((_, _, group)) => group.push(env),
                None => groups.push((conn, key, vec![env])),
            }
        }
        for (conn, key, group) in groups {
            if !inner.write_batch(&conn, &group) {
                inner.invalidate(&key);
                inner
                    .dropped
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
            }
        }
    }
}
