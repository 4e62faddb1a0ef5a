//! The TCP wire format. Each [`Envelope`] is one frame: a little-endian
//! `u32` payload length, then the envelope field by field — fixed-width
//! little-endian integers, one tag byte per enum, a `u32` length before
//! every string, blob and collection. [`FrameReader`] reads frames back.
//!
//! Every wire type is one line of the `wire_types!` table, which `schema!`
//! turns into an encoder (an exhaustive `match`) and a decoder (struct
//! literals): a variant or field the table leaves out does not compile.
//! Only [`TxnProgram`] is hand-written. The tags are the only versioning:
//! a retired variant's tag is never reused (`Msg` tags 13 and 14, once the
//! harness's crash and recover faults, decode to an error).

use std::io::{self, Read, Write};
use std::sync::Mutex;

use planet_mdcc::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec, TxnStats};
use planet_plan::{
    DeltaRef, KeyRef, KeyTemplate, OpTemplate, PlanOp, PlanParam, TemplatePart, TxnProgram,
};
use planet_sim::{ActorId, SimTime, SiteId};
use planet_storage::{Bytes, Key, KeyList, RecordOption, RejectReason, TxnId, Value, WriteOp};

use crate::transport::Envelope;

/// A decoding failure (truncated buffer, unknown tag, oversized frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

fn err<T>(what: &str) -> Result<T> {
    Err(WireError(what.to_string()))
}

// ----------------------------------------------------------------- codec

/// Where encoded bytes go: a `Vec<u8>` (a pooled one on the TCP path, see
/// [`BufPool`]) or a counter ([`encoded_len`]), driven by one encoder.
trait Sink {
    fn raw(&mut self, bytes: &[u8]);
    fn len_prefix(&mut self, n: usize) {
        self.raw(&(n as u32).to_le_bytes());
    }
    fn blob(&mut self, bytes: &[u8]) {
        self.len_prefix(bytes.len());
        self.raw(bytes);
    }
}

impl Sink for Vec<u8> {
    fn raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct Measure(usize);

impl Sink for Measure {
    fn raw(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

struct Reader<'a> {
    /// What is left to decode.
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `N` bytes, for the fixed-width integers.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, rest)) = self.buf.split_first_chunk::<N>() else {
            return err("truncated frame");
        };
        self.buf = rest;
        Ok(*head)
    }
    /// A collection count or blob length, refused before anything is sized
    /// by it if it exceeds the bytes left: every element encodes to at
    /// least one byte, so no valid frame claims more.
    fn len_prefix(&mut self) -> Result<usize> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n > self.buf.len() {
            return err("count exceeds frame");
        }
        Ok(n)
    }
    /// A length-prefixed blob (`len_prefix` keeps it in bounds).
    fn blob(&mut self) -> Result<&'a [u8]> {
        let n = self.len_prefix()?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
}

/// A type on the wire. Its method names are unique: a by-name call graph cannot alias them.
trait Wire: Sized {
    fn wire_write(&self, w: &mut impl Sink);
    fn wire_read(r: &mut Reader<'_>) -> Result<Self>;
}

macro_rules! fixed_width {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn wire_write(&self, w: &mut impl Sink) {
                w.raw(&self.to_le_bytes());
            }
            #[inline]
            fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

fixed_width!(u8, u32, u64, i64);

/// Types carried as another wire type: `type: wire type = to, from`.
macro_rules! carried_as {
    ($($t:ty: $w:ty = |$v:ident| $to:expr, |$x:ident| $from:expr;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn wire_write(&self, w: &mut impl Sink) {
                let $v = self;
                <$w>::wire_write(&$to, w);
            }
            #[inline]
            fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
                let $x = <$w>::wire_read(r)?;
                $from
            }
        }
    )*};
}

carried_as! {
    bool: u8 = |v| u8::from(*v), |x| match x { 0 => Ok(false), 1 => Ok(true), _ => err("bad bool") };
    usize: u64 = |v| *v as u64, |x| Ok(x as usize);
    SimTime: u64 = |v| v.as_micros(), |x| Ok(SimTime::from_micros(x));
    ActorId: u32 = |v| v.0, |x| Ok(ActorId(x));
    SiteId: u8 = |v| v.0, |x| Ok(SiteId(x));
}

impl Wire for String {
    fn wire_write(&self, w: &mut impl Sink) {
        w.blob(self.as_bytes());
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        String::from_utf8(r.blob()?.to_vec()).map_err(|_| WireError("bad utf8".into()))
    }
}

/// A key decodes as a value: UTF-8 checked, then built (inline up to 23
/// bytes).
impl Wire for Key {
    #[inline]
    fn wire_write(&self, w: &mut impl Sink) {
        w.blob(self.as_bytes());
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.blob()?;
        std::str::from_utf8(raw)
            .map(Key::from)
            .map_err(|_| WireError("bad utf8".into()))
    }
}

/// A byte value decodes as a copy, so it owns its bytes.
impl Wire for Bytes {
    fn wire_write(&self, w: &mut impl Sink) {
        w.blob(self.as_slice());
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        r.blob().map(Bytes::copy_from_slice)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn wire_write(&self, w: &mut impl Sink) {
        self.is_some().wire_write(w);
        self.iter().for_each(|v| v.wire_write(w));
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        bool::wire_read(r)?.then(|| T::wire_read(r)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, w: &mut impl Sink) {
        w.len_prefix(self.len());
        self.iter().for_each(|v| v.wire_write(w));
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.len_prefix()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::wire_read(r)?);
        }
        Ok(out)
    }
}

/// Encodes exactly as a `Vec<Key>` of the same keys: the count, held to
/// the bytes left in the frame before anything is reserved, then the keys.
impl Wire for KeyList {
    fn wire_write(&self, w: &mut impl Sink) {
        w.len_prefix(self.len());
        self.iter().for_each(|k| k.wire_write(w));
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.len_prefix()?;
        let mut out = KeyList::with_capacity(n);
        for _ in 0..n {
            out.push(Key::wire_read(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_write(&self, w: &mut impl Sink) {
        self.0.wire_write(w);
        self.1.wire_write(w);
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::wire_read(r)?, B::wire_read(r)?))
    }
}

/// The key table is interned as it is read: a repeated key would shift every
/// later index, so it is refused here, not by a scan at every coordinator.
impl Wire for TxnProgram {
    fn wire_write(&self, w: &mut impl Sink) {
        let TxnProgram {
            name,
            table,
            ops,
            quorum_reads,
        } = self;
        name.wire_write(w);
        w.len_prefix(table.len());
        table.iter().for_each(|k| k.wire_write(w));
        ops.wire_write(w);
        quorum_reads.wire_write(w);
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        let mut program = TxnProgram::new(String::wire_read(r)?);
        for i in 0..r.len_prefix()? as u32 {
            if program.intern(Key::wire_read(r)?) != i {
                return err("repeated plan table key");
            }
        }
        program.ops = Wire::wire_read(r)?;
        program.quorum_reads = Wire::wire_read(r)?;
        Ok(program)
    }
}

/// Expands the `wire_types!` table into the codec. An entry is `struct T {
/// fields }` or `enum T { tag Variant { fields }, tag Variant(fields), .. }`.
macro_rules! schema {
    () => {};
    (struct $T:ident { $($f:ident),* } $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn wire_write(&self, w: &mut impl Sink) {
                let $T { $($f),* } = self;
                $($f.wire_write(w);)*
            }
            #[inline]
            fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
                $(let $f = Wire::wire_read(r)?;)*
                Ok($T { $($f),* })
            }
        }
        schema!($($rest)*);
    };
    (enum $T:ident {
        $($tag:literal $V:ident $({ $($f:ident),* })? $(( $($b:ident),* ))?),* $(,)?
    } $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn wire_write(&self, w: &mut impl Sink) {
                match self {
                    $($T::$V $({ $($f),* })? $(( $($b),* ))? => {
                        w.raw(&[$tag]);
                        $($($f.wire_write(w);)*)?
                        $($($b.wire_write(w);)*)?
                    })*
                }
            }
            #[deny(unreachable_patterns)]
            #[inline]
            fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
                Ok(match u8::wire_read(r)? {
                    $($tag => {
                        $($(let $f = Wire::wire_read(r)?;)*)?
                        $($(let $b = Wire::wire_read(r)?;)*)?
                        $T::$V $({ $($f),* })? $(( $($b),* ))?
                    })*
                    _ => return err(concat!("bad ", stringify!($T), " tag")),
                })
            }
        }
        schema!($($rest)*);
    };
}

/// The schema: one entry per wire type, handed to `$expand` — `schema!`
/// here, and the tests' generator of arbitrary values.
macro_rules! wire_types {
    ($expand:ident) => { $expand! {
        struct Envelope { from, to, msg }
        enum Msg {
            0 Submit { spec, reply_to, tag }, 1 ReadReq { txn, keys },
            2 FastPropose { txn, key, option, round },
            3 Propose { txn, key, option, coordinator, round },
            4 Replicate { txn, key, option, coordinator, master, round },
            5 Decide { txn, key, option, commit }, 6 ReadResp { txn, results },
            7 Vote { txn, key, site, accept, reason, round }, 8 ReplicateAck { txn, key, site },
            9 Apply { key, version, value, txn }, 10 DropPending { key, txn },
            11 Progress { tag, txn, stage }, 12 TxnDone { tag, txn, outcome, stats },
            15 ReplicaServiceDone, 16 TxnTimeout { txn },
            17 ClientTimer { kind, tag }, 18 RegisterPlan { plan, program, reply_to },
            19 SubmitPlan { plan, params, reply_to, tag }, 20 PlanReady { plan },
        }
        enum ProgressStage { 0 Started, 1 ReadsDone { reads }, 2 Vote { key, site, accept, reason, elapsed_us }, 3 KeyFallback { key }, 4 KeyResolved { key, accepted } }
        enum Outcome { 0 Committed, 1 Aborted, 2 TimedOut }
        enum ReadLevel { 0 Local, 1 Quorum }
        struct TxnSpec { reads, writes, read_level }
        struct KeyRead { key, version, value, pending }
        struct TxnStats { submitted_at, decided_at, proposals_sent_at, write_keys, votes_received, rejections }
        struct TxnId { site, seq }
        struct RecordOption { txn, read_version, op }
        enum Value { 0 None, 1 Int(v), 2 Bytes(b) }
        enum WriteOp { 0 Set(value), 1 Delete, 2 Add { delta, lower, upper } }
        enum RejectReason { 0 StaleVersion { expected, actual }, 1 PendingConflict { holder }, 2 BoundViolation, 3 TypeMismatch, 4 DuplicateTxn }
        enum KeyRef { 0 Fixed(index), 1 Param(slot), 2 Derived(template) }
        struct KeyTemplate { parts }
        enum TemplatePart { 0 Lit(text), 1 Param(slot) }
        enum OpTemplate { 0 Set(value), 1 SetParam(slot), 2 Add { delta, lower, upper }, 3 Delete }
        enum DeltaRef { 0 Const(delta), 1 Param(slot) }
        enum PlanOp { 0 Read(key), 1 Write(key, op) }
        enum PlanParam { 0 Key(index), 1 Int(v) }
    } };
}

wire_types!(schema);

/// Exact payload size [`encode`] would produce for `env`, computed without
/// writing a byte.
pub fn encoded_len(env: &Envelope) -> usize {
    let mut m = Measure(0);
    env.wire_write(&mut m);
    m.0
}

/// Append the payload encoding of `env` (no frame header) to `buf`.
pub fn encode_into(env: &Envelope, buf: &mut Vec<u8>) {
    env.wire_write(buf);
}

/// Encode an envelope into a fresh payload `Vec` (no frame header).
pub fn encode(env: &Envelope) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(env));
    encode_into(env, &mut buf);
    buf
}

/// Decode a payload produced by [`encode`]. The whole buffer must be
/// consumed — trailing bytes indicate a framing bug. A key of up to 23
/// bytes is held inline and a byte value is copied out, so the envelope
/// refers to nothing of `buf`.
pub fn decode(buf: &[u8]) -> Result<Envelope> {
    let mut r = Reader { buf };
    let env = Envelope::wire_read(&mut r)?;
    let trailing = || WireError("trailing bytes".into());
    r.buf.is_empty().then_some(env).ok_or_else(trailing)
}

// ---------------------------------------------------------------- frames

/// Largest frame either side will accept: guards a malformed or hostile
/// length prefix from triggering a huge allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Append one length-prefixed frame for `env` to `buf`. The batched TCP
/// send path calls this repeatedly on a pooled buffer, then issues a single
/// socket write for the whole batch.
pub fn encode_frame_into(env: &Envelope, buf: &mut Vec<u8>) {
    let len = encoded_len(env);
    buf.reserve(4 + len);
    buf.len_prefix(len);
    let start = buf.len();
    encode_into(env, buf);
    debug_assert_eq!(buf.len() - start, len, "encoded_len disagrees with encode");
}

/// Write one length-prefixed frame as a single `write_all` (header and
/// payload together — one syscall on an unbuffered stream, and no partial
/// frame is ever observable from another writer's perspective).
pub fn write_frame(w: &mut impl Write, env: &Envelope) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + encoded_len(env));
    encode_frame_into(env, &mut frame);
    w.write_all(&frame)?;
    w.flush()
}

/// Size of a connection's receive buffer: what one socket `read` can
/// return. Four times the ~4 KB one write of a sender's staged frames
/// carries at saturation, so a read that found several writes queued
/// still takes them in one call.
const BUF_LEN: usize = 16 * 1024;

fn invalid_data(what: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The one way to read frames: a splitter over *bursts*.
///
/// The sender coalesces many frames into one socket write, so the receiver
/// takes them back the same way. [`fill`](Self::fill) issues **one**
/// `read` into the connection's one buffer for whatever the socket holds,
/// and [`pop_frame`](Self::pop_frame) then yields every complete frame of
/// that burst, [`decode`]d: an envelope owns what it carries, so holding
/// one holds nothing of the buffer, and the next `fill` reuses it. A frame
/// cut off by the end of the burst stays buffered; the next `fill` moves
/// that partial tail to the front.
///
/// `fill` and `pop_frame` never block beyond the one `read`, so the pair is
/// a plain state machine over bytes: a readiness-driven poller can call
/// `fill` when the socket is readable and drain `pop_frame`, and a fuzzer
/// can feed it any byte stream cut anywhere.
/// [`next_frame`](Self::next_frame) is the blocking loop over the two.
pub struct FrameReader {
    /// `buf[start..end]` is received and not yet yielded as frames.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The last [`fill`](Self::fill) read as many bytes as it had room for.
    filled_room: bool,
}

impl FrameReader {
    /// A reader with nothing buffered. The buffer is allocated by the first
    /// [`fill`](Self::fill).
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            filled_room: false,
        }
    }

    /// The received bytes not yet yielded as frames.
    fn unread(&self) -> &[u8] {
        self.buf.get(self.start..self.end).unwrap_or_default()
    }

    /// Payload length of the frame at the front of the unread bytes, once
    /// its header is there. A length above [`MAX_FRAME`] is refused here,
    /// before anything is sized by it.
    fn frame_len(&self) -> io::Result<Option<usize>> {
        let Some(header) = self.unread().first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header);
        if len > MAX_FRAME {
            return Err(invalid_data("frame too large"));
        }
        Ok(Some(len as usize))
    }

    /// The next complete frame already received, decoded; `Ok(None)` when
    /// what is buffered ends mid-frame (or is empty) and
    /// [`fill`](Self::fill) has to run first.
    pub fn pop_frame(&mut self) -> io::Result<Option<Envelope>> {
        let Some(len) = self.frame_len()? else {
            return Ok(None);
        };
        let Some(payload) = self.unread().get(4..4 + len) else {
            return Ok(None);
        };
        let env = decode(payload).map_err(invalid_data)?;
        self.start += 4 + len;
        if self.start == self.end && self.buf.len() > BUF_LEN {
            // That was a large frame, alone in a buffer of its size: give
            // the size back.
            self.buf.truncate(BUF_LEN);
            self.buf.shrink_to_fit();
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(env))
    }

    /// Receive one burst: a single `read` of whatever the stream holds, up
    /// to the room in the buffer. Call it when
    /// [`pop_frame`](Self::pop_frame) has returned `None`. Returns the byte
    /// count; `Ok(0)` is a clean end of stream (the peer closed between
    /// frames), and an end of stream inside a frame is `UnexpectedEof`.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        // A frame too large for the buffer gets one of exactly its size;
        // `read` then cannot run past the frame's end, and `pop_frame`
        // shrinks it back.
        let want = match self.frame_len()? {
            Some(len) if 4 + len > BUF_LEN => 4 + len,
            _ => BUF_LEN,
        };
        let unread = self.end - self.start;
        if self.buf.len() == want {
            self.buf.copy_within(self.start..self.end, 0);
        } else {
            let mut buf = Vec::with_capacity(want);
            buf.extend_from_slice(self.unread());
            buf.resize(want, 0);
            self.buf = buf;
        }
        (self.start, self.end) = (0, unread);
        let room = self.buf.get_mut(unread..).unwrap_or_default();
        let had = room.len();
        let n = loop {
            match r.read(room) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        self.end += n;
        self.filled_room = n == had;
        if n == 0 && self.end > 0 {
            let what = if self.end < 4 {
                "eof mid-header"
            } else {
                "eof mid-payload"
            };
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, what));
        }
        Ok(n)
    }

    /// True when the last [`fill`](Self::fill) read as many bytes as it
    /// had room for, so the stream may hold more. A short read drained it:
    /// a readiness-driven reader stops there, without a `read` that would
    /// only say `WouldBlock`.
    pub fn filled_room(&self) -> bool {
        self.filled_room
    }

    /// Read the next frame, blocking: [`pop_frame`](Self::pop_frame), and
    /// [`fill`](Self::fill) whenever that runs dry. `Ok(None)` on a clean
    /// end of stream.
    pub fn next_frame(&mut self, r: &mut impl Read) -> io::Result<Option<Envelope>> {
        loop {
            if let Some(env) = self.pop_frame()? {
                return Ok(Some(env));
            }
            if self.fill(r)? == 0 {
                return Ok(None);
            }
        }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

// ------------------------------------------------------------------ pool

/// A small free-list of encode buffers, shared by every sender thread of a
/// transport. `get` hands out a cleared buffer that keeps its previous
/// capacity, so after warm-up the encode path performs no allocation at
/// all; `put` returns it (the pool keeps at most a handful, dropping the
/// rest so a burst can't pin memory forever).
pub struct BufPool {
    pool: Mutex<Vec<Vec<u8>>>,
}

/// Most buffers the pool retains; beyond this, returned buffers are freed.
const POOL_CAP: usize = 8;

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Take a cleared buffer (reusing a pooled allocation when available).
    pub fn get(&self) -> Vec<u8> {
        self.pool
            .lock()
            .expect("buffer pool lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Return a buffer for reuse.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut pool = self.pool.lock().expect("buffer pool lock poisoned");
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_sim::DetRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// A seeded generator of arbitrary wire values. The wire types get it
    /// from the schema table (`arbitrary!` below); the rest are here.
    pub(super) trait Arb: Sized {
        /// An enum's tag bytes, in table order.
        const TAGS: &'static [u8] = &[];
        fn arb(rng: &mut DetRng) -> Self;
    }

    macro_rules! arbitrary {
        () => {};
        (struct $T:ident { $($f:ident),* } $($rest:tt)*) => {
            impl Arb for $T {
                fn arb(rng: &mut DetRng) -> Self {
                    $(let $f = Arb::arb(rng);)*
                    $T { $($f),* }
                }
            }
            arbitrary!($($rest)*);
        };
        (enum $T:ident {
            $($tag:literal $V:ident $({ $($f:ident),* })? $(( $($b:ident),* ))?),* $(,)?
        } $($rest:tt)*) => {
            impl Arb for $T {
                const TAGS: &'static [u8] = &[$($tag),*];
                fn arb(rng: &mut DetRng) -> Self {
                    match Self::TAGS[rng.index(Self::TAGS.len())] {
                        $($tag => {
                            $($(let $f = Arb::arb(rng);)*)?
                            $($(let $b = Arb::arb(rng);)*)?
                            $T::$V $({ $($f),* })? $(( $($b),* ))?
                        })*
                        _ => unreachable!("a tag of the table"),
                    }
                }
            }
            arbitrary!($($rest)*);
        };
    }

    wire_types!(arbitrary);

    macro_rules! arb_as {
        ($($t:ty = |$r:ident| $e:expr;)*) => {$(
            impl Arb for $t {
                fn arb($r: &mut DetRng) -> Self {
                    $e
                }
            }
        )*};
    }

    arb_as! {
        u8 = |r| r.next_u64() as u8;
        u32 = |r| r.next_u64() as u32;
        u64 = |r| r.next_u64();
        i64 = |r| r.next_u64() as i64;
        bool = |r| r.next_u64() & 1 == 1;
        usize = |r| r.next_u64() as usize;
        SimTime = |r| SimTime::from_micros(r.next_u64());
        ActorId = |r| ActorId(u32::arb(r));
        SiteId = |r| SiteId(u8::arb(r));
        String = |r| (0..r.index(8)).map(|_| ['a', 'k', ':', 'é', '中'][r.index(5)]).collect();
        Key = |r| Key::new(String::arb(r));
        KeyList = |r| Vec::<Key>::arb(r).into_iter().collect();
        Bytes = |r| Bytes::from((0..r.index(24)).map(|_| u8::arb(r)).collect::<Vec<u8>>());
        TxnProgram = |r| {
            let mut program = TxnProgram::new(String::arb(r));
            for _ in 0..r.index(4) {
                program.intern(Key::arb(r));
            }
            program.ops = Arb::arb(r);
            program.quorum_reads = Arb::arb(r);
            program
        };
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(rng: &mut DetRng) -> Self {
            bool::arb(rng).then(|| T::arb(rng))
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(rng: &mut DetRng) -> Self {
            (0..rng.index(4)).map(|_| T::arb(rng)).collect()
        }
    }

    impl<A: Arb, B: Arb> Arb for (A, B) {
        fn arb(rng: &mut DetRng) -> Self {
            (A::arb(rng), B::arb(rng))
        }
    }

    /// What the codec promises of every envelope. `Msg` has no
    /// `PartialEq`, so values compare through `Debug`, which prints every
    /// field.
    fn assert_codec_properties(env: &Envelope) {
        let payload = encode(env);
        assert_eq!(encoded_len(env), payload.len(), "encoded_len of {env:?}");
        let mut framed = Vec::new();
        encode_frame_into(env, &mut framed);
        assert_eq!(framed[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(framed[4..], payload[..], "frame body of {env:?}");

        let owned = decode(&payload).unwrap_or_else(|e| panic!("{e}: {env:?}"));
        assert_eq!(
            format!("{owned:?}"),
            format!("{env:?}"),
            "decode inverts encode"
        );

        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "{cut}-byte prefix of {env:?}"
            );
        }
        // Any one byte changed: an error or another message, never a panic.
        let mut flipped = payload.clone();
        for i in 0..flipped.len() {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[i] ^= mask;
                let _ = decode(&flipped);
                flipped[i] ^= mask;
            }
        }
    }

    fn envelope(msg: Msg) -> Envelope {
        Envelope {
            from: ActorId(3),
            to: ActorId(9),
            msg,
        }
    }

    fn sample_option() -> RecordOption {
        RecordOption::new(
            TxnId::new(2, 77),
            5,
            WriteOp::Add {
                delta: -3,
                lower: Some(0),
                upper: Some(100),
            },
        )
    }

    /// At least one instance of every variant of every wire enum, with
    /// payloads exercising nested components: the golden frames below are
    /// these, encoded.
    fn all_variants() -> Vec<Msg> {
        let spec = TxnSpec {
            reads: vec![Key::new("r1"), Key::new("r2")],
            writes: vec![
                (Key::new("w1"), WriteOp::Set(Value::Int(42))),
                (Key::new("w2"), WriteOp::Delete),
                (Key::new("w3"), WriteOp::Set(Value::bytes(&b"blob"[..]))),
            ],
            read_level: ReadLevel::Quorum,
        };
        let reads = vec![
            KeyRead {
                key: Key::new("a"),
                version: 7,
                value: Value::Int(1),
                pending: 3,
            },
            KeyRead {
                key: Key::new("b"),
                version: 0,
                value: Value::None,
                pending: 0,
            },
            KeyRead {
                key: Key::new("c"),
                version: 3,
                value: Value::bytes(&b"payload"[..]),
                pending: 1,
            },
        ];
        let stats = TxnStats {
            submitted_at: SimTime::from_micros(123),
            decided_at: SimTime::from_micros(456),
            proposals_sent_at: SimTime::from_micros(300),
            write_keys: 2,
            votes_received: 9,
            rejections: 1,
        };
        vec![
            Msg::Submit {
                spec,
                reply_to: ActorId(12),
                tag: 99,
            },
            Msg::Submit {
                spec: TxnSpec {
                    reads: vec![Key::new("r")],
                    writes: vec![
                        (Key::new("w1"), WriteOp::Set(Value::Int(5))),
                        (Key::new("w2"), WriteOp::Delete),
                        (Key::new("w3"), WriteOp::add(7)),
                    ],
                    read_level: ReadLevel::Local,
                },
                reply_to: ActorId(17),
                tag: 0xDEAD_BEEF,
            },
            Msg::ReadReq {
                txn: TxnId::new(1, 5),
                keys: [Key::new("x"), Key::new("y")].into_iter().collect(),
            },
            Msg::FastPropose {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                option: sample_option(),
                round: 1,
            },
            Msg::Propose {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                option: sample_option(),
                coordinator: ActorId(4),
                round: 2,
            },
            Msg::Replicate {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                option: sample_option(),
                coordinator: ActorId(4),
                master: ActorId(2),
                round: 0,
            },
            Msg::Decide {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                option: sample_option(),
                commit: true,
            },
            Msg::ReadResp {
                txn: TxnId::new(1, 5),
                results: reads.clone(),
            },
            Msg::Vote {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                site: SiteId(3),
                accept: false,
                reason: Some(RejectReason::StaleVersion {
                    expected: 4,
                    actual: 6,
                }),
                round: 1,
            },
            Msg::Vote {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                site: SiteId(0),
                accept: true,
                reason: None,
                round: 0,
            },
            Msg::Vote {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                site: SiteId(1),
                accept: false,
                reason: Some(RejectReason::PendingConflict {
                    holder: TxnId::new(7, 7),
                }),
                round: 3,
            },
            Msg::Vote {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                site: SiteId(2),
                accept: false,
                reason: Some(RejectReason::TypeMismatch),
                round: 0,
            },
            Msg::Vote {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                site: SiteId(2),
                accept: false,
                reason: Some(RejectReason::DuplicateTxn),
                round: 0,
            },
            Msg::ReplicateAck {
                txn: TxnId::new(1, 5),
                key: Key::new("k"),
                site: SiteId(2),
            },
            Msg::Apply {
                key: Key::new("k"),
                version: 8,
                value: Value::Int(-5),
                txn: TxnId::new(1, 5),
            },
            Msg::Apply {
                key: Key::new("k"),
                version: 44,
                value: Value::bytes(&b"v"[..]),
                txn: TxnId::new(1, 99),
            },
            Msg::DropPending {
                key: Key::new("k"),
                txn: TxnId::new(1, 5),
            },
            Msg::Progress {
                tag: 7,
                txn: TxnId::new(1, 5),
                stage: ProgressStage::Started,
            },
            Msg::Progress {
                tag: 7,
                txn: TxnId::new(1, 5),
                stage: ProgressStage::ReadsDone { reads },
            },
            Msg::Progress {
                tag: 7,
                txn: TxnId::new(1, 5),
                stage: ProgressStage::Vote {
                    key: Key::new("k"),
                    site: SiteId(1),
                    accept: true,
                    reason: None,
                    elapsed_us: 1234,
                },
            },
            Msg::Progress {
                tag: 5,
                txn: TxnId::new(1, 99),
                stage: ProgressStage::Vote {
                    key: Key::new("k"),
                    site: SiteId(4),
                    accept: false,
                    reason: Some(RejectReason::BoundViolation),
                    elapsed_us: 12_345,
                },
            },
            Msg::Progress {
                tag: 7,
                txn: TxnId::new(1, 5),
                stage: ProgressStage::KeyFallback { key: Key::new("k") },
            },
            Msg::Progress {
                tag: 7,
                txn: TxnId::new(1, 5),
                stage: ProgressStage::KeyResolved {
                    key: Key::new("k"),
                    accepted: true,
                },
            },
            Msg::TxnDone {
                tag: 7,
                txn: TxnId::new(1, 5),
                outcome: Outcome::Aborted,
                stats: stats.clone(),
            },
            Msg::TxnDone {
                tag: 5,
                txn: TxnId::new(1, 99),
                outcome: Outcome::TimedOut,
                stats: stats.clone(),
            },
            Msg::TxnDone {
                tag: 5,
                txn: TxnId::new(1, 99),
                outcome: Outcome::Committed,
                stats,
            },
            Msg::ReplicaServiceDone,
            Msg::TxnTimeout {
                txn: TxnId::new(1, 5),
            },
            Msg::ClientTimer { kind: 101, tag: 55 },
            Msg::ClientTimer {
                kind: 2,
                tag: u64::MAX,
            },
            Msg::RegisterPlan {
                plan: 3,
                program: sample_program(),
                reply_to: ActorId(12),
            },
            Msg::SubmitPlan {
                plan: 3,
                params: vec![PlanParam::Key(1), PlanParam::Int(-7)],
                reply_to: ActorId(12),
                tag: 42,
            },
            Msg::PlanReady { plan: 3 },
        ]
    }

    /// A program exercising every `KeyRef`, `OpTemplate` and `DeltaRef`
    /// shape the codec must carry.
    fn sample_program() -> TxnProgram {
        let mut prog = TxnProgram::new("wire-sample");
        let a = prog.intern(Key::new("stock:1"));
        let b = prog.intern(Key::new("event:1"));
        prog.read(KeyRef::Fixed(b))
            .write(
                KeyRef::Param(0),
                OpTemplate::Add {
                    delta: DeltaRef::Const(-1),
                    lower: Some(0),
                    upper: None,
                },
            )
            .write(
                KeyRef::Derived(KeyTemplate::new().lit("order:").param(1)),
                OpTemplate::SetParam(1),
            )
            .write(KeyRef::Fixed(a), OpTemplate::Delete)
            .write(
                KeyRef::Fixed(b),
                OpTemplate::Add {
                    delta: DeltaRef::Param(1),
                    lower: None,
                    upper: Some(100),
                },
            )
            .quorum_reads()
    }

    /// `all_variants()`, encoded: the frames of the hand-written codec the
    /// schema table replaced. The format has not changed since; only the
    /// frames of the two retired variants left.
    const GOLDEN: [&str; 33] = [
        "030000000900000000020000000200000072310200000072320300000002000000773100012a0000000000000002000000773201020000007733000204000000626c6f62010c0000006300000000000000",
        "03000000090000000001000000010000007203000000020000007731000105000000000000000200000077320102000000773302070000000000000000000011000000efbeadde00000000",
        "0300000009000000010105000000000000000200000001000000780100000079",
        "030000000900000002010500000000000000010000006b024d00000000000000050000000000000002fdffffffffffffff01000000000000000001640000000000000001",
        "030000000900000003010500000000000000010000006b024d00000000000000050000000000000002fdffffffffffffff0100000000000000000164000000000000000400000002",
        "030000000900000004010500000000000000010000006b024d00000000000000050000000000000002fdffffffffffffff010000000000000000016400000000000000040000000200000000",
        "030000000900000005010500000000000000010000006b024d00000000000000050000000000000002fdffffffffffffff01000000000000000001640000000000000001",
        "03000000090000000601050000000000000003000000010000006107000000000000000101000000000000000300000000000000010000006200000000000000000000000000000000000100000063030000000000000002070000007061796c6f61640100000000000000",
        "030000000900000007010500000000000000010000006b030001000400000000000000060000000000000001",
        "030000000900000007010500000000000000010000006b00010000",
        "030000000900000007010500000000000000010000006b0100010107070000000000000003",
        "030000000900000007010500000000000000010000006b0200010300",
        "030000000900000007010500000000000000010000006b0200010400",
        "030000000900000008010500000000000000010000006b02",
        "030000000900000009010000006b080000000000000001fbffffffffffffff010500000000000000",
        "030000000900000009010000006b2c00000000000000020100000076016300000000000000",
        "03000000090000000a010000006b010500000000000000",
        "03000000090000000b070000000000000001050000000000000000",
        "03000000090000000b07000000000000000105000000000000000103000000010000006107000000000000000101000000000000000300000000000000010000006200000000000000000000000000000000000100000063030000000000000002070000007061796c6f61640100000000000000",
        "03000000090000000b070000000000000001050000000000000002010000006b010100d204000000000000",
        "03000000090000000b050000000000000001630000000000000002010000006b040001023930000000000000",
        "03000000090000000b070000000000000001050000000000000003010000006b",
        "03000000090000000b070000000000000001050000000000000004010000006b01",
        "03000000090000000c0700000000000000010500000000000000017b00000000000000c8010000000000002c01000000000000020000000000000009000000000000000100000000000000",
        "03000000090000000c0500000000000000016300000000000000027b00000000000000c8010000000000002c01000000000000020000000000000009000000000000000100000000000000",
        "03000000090000000c0500000000000000016300000000000000007b00000000000000c8010000000000002c01000000000000020000000000000009000000000000000100000000000000",
        "03000000090000000f",
        "030000000900000010010500000000000000",
        "030000000900000011650000003700000000000000",
        "03000000090000001102000000ffffffffffffffff",
        "030000000900000012030000000b000000776972652d73616d706c65020000000700000073746f636b3a31070000006576656e743a31050000000000010000000101000200ffffffffffffffff0100000000000000000001020200000000060000006f726465723a010101010100000000000301000100000002010100016400000000000000010c000000",
        "0300000009000000130300000002000000000100000001f9ffffffffffffff0c0000002a00000000000000",
        "03000000090000001403000000",
    ];

    #[test]
    fn golden_frames_encode_and_re_encode_byte_for_byte() {
        let samples = all_variants();
        assert_eq!(samples.len(), GOLDEN.len());
        for (msg, hex) in samples.into_iter().zip(GOLDEN) {
            let golden: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect();
            let env = envelope(msg);
            assert_eq!(encode(&env), golden, "encode of {env:?}");
            let decoded = decode(&golden).expect("golden frame decodes");
            assert_eq!(encode(&decoded), golden, "re-encode of {env:?}");
        }
    }

    #[test]
    fn every_sample_keeps_the_codec_properties() {
        for msg in all_variants() {
            assert_codec_properties(&envelope(msg));
        }
    }

    /// Seeded arbitrary envelopes, drawn until every `Msg` variant of the
    /// table has come up.
    #[test]
    fn generated_envelopes_of_every_variant_keep_the_codec_properties() {
        let mut rng = DetRng::new(0x5C4E_3A00);
        let mut seen = BTreeSet::new();
        for _ in 0..1500 {
            let env = Envelope::arb(&mut rng);
            assert_codec_properties(&env);
            seen.insert(encode(&env)[8]);
        }
        assert_eq!(seen, Msg::TAGS.iter().copied().collect::<BTreeSet<u8>>());
    }

    /// A well-formed frame whose `Msg` tag is a retired one (13, 14) is an
    /// error, from `decode` and from the `FrameReader` alike.
    #[test]
    fn retired_msg_tags_are_refused() {
        for tag in [13, 14] {
            let mut payload = encode(&envelope(Msg::ReplicaServiceDone));
            *payload.last_mut().expect("the tag byte") = tag;
            assert!(decode(&payload).is_err(), "tag {tag} decodes");
            let mut stream = (payload.len() as u32).to_le_bytes().to_vec();
            stream.extend_from_slice(&payload);
            let got = FrameReader::new().next_frame(&mut io::Cursor::new(stream));
            let err = got.expect_err("a retired tag is not an envelope");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}");
        }
    }

    /// The key a frame carries, decoded.
    fn decoded_key(key: &Key) -> Key {
        let payload = encode(&envelope(Msg::DropPending {
            key: key.clone(),
            txn: TxnId::new(0, 1),
        }));
        match decode(&payload).expect("decodes").msg {
            Msg::DropPending { key, .. } => key,
            other => panic!("decoded to {other:?}"),
        }
    }

    /// Decoding gives the key that was sent, on both
    /// sides of the 23-byte inline edge: equal, hashing equally, in `str`
    /// order. (`types::tests` holds the other constructors to the same.)
    #[test]
    fn decoded_keys_equal_constructed_ones_across_the_inline_edge() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let strings: Vec<String> = [0, 1, 22, 23, 24, 200]
            .iter()
            .map(|&n| "k".repeat(n))
            .chain(["k".repeat(21) + "é", "k".repeat(22) + "é"])
            .collect();
        let mut decoded_all = Vec::new();
        for s in &strings {
            let sent = Key::from_fmt(format_args!("{s}"));
            let decoded = decoded_key(&sent);
            assert_eq!(decoded.as_str(), s);
            assert_eq!(decoded, sent);
            assert_eq!(hasher.hash_one(&decoded), hasher.hash_one(s.as_str()));
            decoded_all.push((decoded, s));
        }
        for (a, s) in &decoded_all {
            for (b, t) in &decoded_all {
                assert_eq!(a.cmp(b), s.cmp(t), "{s:?} vs {t:?}");
            }
        }
    }

    /// A key that is not UTF-8 is refused.
    #[test]
    fn a_non_utf8_key_is_refused() {
        let env = envelope(Msg::DropPending {
            key: Key::new("k"),
            txn: TxnId::new(0, 1),
        });
        let mut payload = encode(&env);
        let at = payload
            .iter()
            .position(|&b| b == b'k')
            .expect("the key's byte");
        payload[at] = 0xFF;
        let refused = WireError("bad utf8".into());
        assert_eq!(decode(&payload).unwrap_err(), refused);
    }

    /// A count is held to the bytes left in the frame before anything is
    /// reserved for it.
    #[test]
    fn a_count_past_the_end_of_the_frame_is_refused() {
        let read_resp = Msg::ReadResp {
            txn: TxnId::new(1, 5),
            results: Vec::new(),
        };
        let read_req = Msg::ReadReq {
            txn: TxnId::new(1, 5),
            keys: KeyList::new(),
        };
        for msg in [read_resp, read_req] {
            let mut payload = encode(&envelope(msg));
            // The results' or keys' count is the last field.
            let at = payload.len() - 4;
            payload[at..].copy_from_slice(&u32::MAX.to_le_bytes());
            let refused = WireError("count exceeds frame".into());
            assert_eq!(decode(&payload).unwrap_err(), refused);
        }
    }

    /// A key list is a `Vec<Key>` on the wire, byte for byte, inline or
    /// spilled, and decodes back to the same keys.
    #[test]
    fn a_key_list_encodes_as_a_vec_of_keys() {
        let long = "a key of more than twenty-three bytes";
        for n in 0..=4 {
            let keys: Vec<Key> = (0..n)
                .map(|i| {
                    Key::new(if i == 1 {
                        long.to_string()
                    } else {
                        format!("k{i}")
                    })
                })
                .collect();
            let list: KeyList = keys.iter().cloned().collect();
            let (mut as_list, mut as_vec) = (Vec::new(), Vec::new());
            list.wire_write(&mut as_list);
            keys.wire_write(&mut as_vec);
            assert_eq!(as_list, as_vec, "{n} keys");
            let mut r = Reader { buf: &as_vec };
            assert_eq!(KeyList::wire_read(&mut r).expect("decodes"), list);
        }
    }

    /// A `Read` that hands out the stream in pieces of the given sizes
    /// (cycled), however much room the caller offers.
    struct Dribble<'a> {
        rest: &'a [u8],
        sizes: Vec<usize>,
        turn: usize,
    }

    impl<'a> Dribble<'a> {
        fn new(stream: &'a [u8], sizes: Vec<usize>) -> Self {
            Dribble {
                rest: stream,
                sizes,
                turn: 0,
            }
        }
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = size.min(buf.len()).min(self.rest.len());
            let (head, rest) = self.rest.split_at(n);
            buf[..n].copy_from_slice(head);
            self.rest = rest;
            Ok(n)
        }
    }

    /// Every variant, then one frame larger than the buffer, then every
    /// variant again (so frames follow the one-off buffer too).
    fn splitter_envelopes() -> Vec<Envelope> {
        let big = Msg::Apply {
            key: Key::new("big"),
            version: 1,
            value: Value::bytes((0..BUF_LEN + 1000).map(|i| i as u8).collect::<Vec<u8>>()),
            txn: TxnId::new(0, 1),
        };
        let msgs = all_variants()
            .into_iter()
            .chain([big])
            .chain(all_variants());
        msgs.map(envelope).collect()
    }

    /// `envs` framed into one stream: the stream, each frame's range in
    /// it, and what `decode` makes of each frame's payload.
    fn framed(envs: &[Envelope]) -> (Vec<u8>, Vec<Range<usize>>, Vec<String>) {
        let (mut stream, mut frames, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for env in envs {
            let start = stream.len();
            encode_frame_into(env, &mut stream);
            frames.push(start..stream.len());
            want.push(format!(
                "{:?}",
                decode(&stream[start + 4..]).expect("decodes")
            ));
        }
        (stream, frames, want)
    }

    /// What a reader makes of `stream` read in pieces of `sizes`, driven
    /// as a poller drives it: `pop_frame` until it runs dry, then one
    /// `fill`. Returns every envelope it yielded, then the error it ended
    /// on (`None` for a clean end of stream). On the way the buffer's
    /// capacity never exceeds 4 + the largest length a header announced
    /// (or the usual 16 KiB), and is back at 16 KiB after every frame.
    fn split(stream: &[u8], sizes: Vec<usize>) -> (Vec<String>, Option<io::ErrorKind>) {
        let mut src = Dribble::new(stream, sizes);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut announced = 0;
        loop {
            match reader.pop_frame() {
                Ok(Some(env)) => {
                    assert_eq!(reader.buf.capacity(), BUF_LEN, "after a frame");
                    frames.push(format!("{env:?}"));
                    continue;
                }
                Ok(None) => {}
                Err(e) => return (frames, Some(e.kind())),
            }
            if let Ok(Some(len)) = reader.frame_len() {
                announced = announced.max(4 + len);
            }
            let filled = reader.fill(&mut src);
            let bound = BUF_LEN.max(announced);
            assert!(reader.buf.capacity() <= bound, "capacity over {bound}");
            match filled {
                Ok(0) => return (frames, None),
                Ok(_) => {}
                Err(e) => return (frames, Some(e.kind())),
            }
        }
    }

    /// Read sizes from one byte to more than the buffer has room for.
    fn seeded_sizes(rng: &mut DetRng) -> Vec<usize> {
        (0..32)
            .map(|_| match rng.index(4) {
                0 => 1 + rng.index(8),
                1 => 1 + rng.index(300),
                2 => 1 + rng.index(3 * BUF_LEN / 2),
                _ => usize::MAX,
            })
            .collect()
    }

    /// The splitter yields exactly the envelopes `decode` yields frame by
    /// frame, wherever the reads cut the stream.
    #[test]
    fn frame_reader_is_decode_frame_by_frame_for_every_split() {
        let (stream, _, want) = framed(&splitter_envelopes());
        let mut splits: Vec<Vec<usize>> = [1, 2, 3, 7, usize::MAX]
            .into_iter()
            .map(|n| vec![n])
            .collect();
        for seed in 0..8u64 {
            splits.push(seeded_sizes(&mut DetRng::new(0x5B11_7000 + seed)));
        }
        for sizes in splits {
            let label = format!("{:?}", &sizes[..sizes.len().min(4)]);
            assert_eq!(split(&stream, sizes), (want.clone(), None), "split {label}");
        }
    }

    #[test]
    fn frame_reader_tells_clean_eof_from_a_cut_frame() {
        let mut stream = Vec::new();
        encode_frame_into(&envelope(Msg::ClientTimer { kind: 1, tag: 2 }), &mut stream);
        let whole = stream.len();
        encode_frame_into(&envelope(Msg::ReplicaServiceDone), &mut stream);
        let read_all = |bytes: &[u8]| {
            let mut reader = FrameReader::new();
            let mut cursor = io::Cursor::new(bytes);
            let mut frames = 0;
            loop {
                match reader.next_frame(&mut cursor) {
                    Ok(Some(_)) => frames += 1,
                    Ok(None) => return (frames, None),
                    Err(e) => return (frames, Some((e.kind(), e.to_string()))),
                }
            }
        };
        assert_eq!(read_all(&[]), (0, None), "empty stream");
        assert_eq!(read_all(&stream[..whole]), (1, None), "eof between frames");
        assert_eq!(read_all(&stream), (2, None));
        for cut in [1, 3, whole + 2] {
            let (frames, err) = read_all(&stream[..cut]);
            assert_eq!(frames, cut / whole);
            let eof = io::ErrorKind::UnexpectedEof;
            assert_eq!(err, Some((eof, "eof mid-header".into())), "cut at {cut}");
        }
        for cut in [4, whole - 1, stream.len() - 1] {
            let (frames, err) = read_all(&stream[..cut]);
            assert_eq!(frames, cut / whole);
            let eof = io::ErrorKind::UnexpectedEof;
            assert_eq!(err, Some((eof, "eof mid-payload".into())), "cut at {cut}");
        }
    }

    /// A header above `MAX_FRAME` is refused when it is seen: no buffer is
    /// sized by it and nothing more is read.
    #[test]
    fn oversized_frame_header_is_rejected_before_anything_is_sized_by_it() {
        let mut stream = Vec::new();
        encode_frame_into(&envelope(Msg::ReplicaServiceDone), &mut stream);
        stream.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        stream.extend_from_slice(&[0u8; 64]);
        let mut cursor = io::Cursor::new(stream);
        let mut reader = FrameReader::new();
        assert!(reader
            .next_frame(&mut cursor)
            .expect("first frame")
            .is_some());
        let err = reader
            .next_frame(&mut cursor)
            .expect_err("oversized header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(reader.buf.capacity(), BUF_LEN, "nothing was sized by it");
        // The largest legal length is taken at its word (and then starves).
        let mut cursor = io::Cursor::new(MAX_FRAME.to_le_bytes().to_vec());
        let err = FrameReader::new().next_frame(&mut cursor).expect_err("eof");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// An envelope owns what it carries: with every envelope of eight
    /// bursts still held, each burst is read into the same buffer.
    #[test]
    fn held_envelopes_do_not_hold_the_buffer() {
        let env = envelope(Msg::Apply {
            key: Key::new("k"),
            version: 1,
            value: Value::bytes(&b"payload-bytes"[..]),
            txn: TxnId::new(0, 1),
        });
        let mut frame = Vec::new();
        encode_frame_into(&env, &mut frame);
        let stream = frame.repeat(8 * 4);
        let mut src = Dribble::new(&stream, vec![4 * frame.len()]);
        let mut reader = FrameReader::new();
        let mut held = Vec::new();
        let mut first = None;
        while let Some(got) = reader.next_frame(&mut src).expect("frame") {
            held.push(got);
            let buf = (reader.buf.as_ptr(), reader.buf.capacity());
            assert_eq!(buf, *first.get_or_insert(buf), "refilled in place");
        }
        assert_eq!(src.turn, 8 + 1, "eight bursts and the end");
        assert_eq!(held.len(), 8 * 4);
        for got in &held {
            assert_eq!(format!("{got:?}"), format!("{env:?}"));
        }
        assert_eq!(first.map(|(_, cap)| cap), Some(BUF_LEN));
    }

    /// Seeded envelopes until every `Msg` variant has come up, with one
    /// frame larger than the buffer among them.
    fn seeded_envelopes(rng: &mut DetRng) -> Vec<Envelope> {
        let mut envs = Vec::new();
        let mut seen = BTreeSet::new();
        while seen.len() < Msg::TAGS.len() {
            let env = Envelope::arb(rng);
            seen.insert(encode(&env)[8]);
            envs.push(env);
        }
        let len = BUF_LEN + rng.index(BUF_LEN);
        let big = Msg::Apply {
            key: Key::arb(rng),
            version: u64::arb(rng),
            value: Value::bytes((0..len).map(|_| u8::arb(rng)).collect::<Vec<u8>>()),
            txn: TxnId::arb(rng),
        };
        envs.insert(rng.index(envs.len() + 1), envelope(big));
        envs
    }

    /// The splitter fuzzed from the codec's generator: over seeded streams
    /// cut by seeded reads it yields exactly `decode`'s envelope per frame.
    /// With one byte flipped, or one header overwritten by a seeded length
    /// (above `MAX_FRAME` too), every frame before the damage still
    /// decodes equal, and after it the reader yields envelopes and ends
    /// cleanly or on `InvalidData` or `UnexpectedEof`, never a panic.
    /// `split` holds the buffer to its bounds throughout.
    #[test]
    fn frame_reader_splits_seeded_streams_and_survives_one_corruption() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        for seed in 0..200u64 {
            let mut rng = DetRng::new(0xF0A5_0000 + seed);
            let (mut stream, frames, want) = framed(&seeded_envelopes(&mut rng));
            let sizes = seeded_sizes(&mut rng);
            assert_eq!(
                split(&stream, sizes.clone()),
                (want.clone(), None),
                "seed {seed}"
            );

            let at = if rng.index(2) == 0 {
                let at = rng.index(stream.len());
                stream[at] ^= 1 + rng.index(255) as u8;
                at
            } else {
                let at = frames[rng.index(frames.len())].start;
                let len = match rng.index(3) {
                    0 => u32::arb(&mut rng),
                    1 => MAX_FRAME + 1 + rng.index(1 << 20) as u32,
                    _ => rng.index(4 * BUF_LEN) as u32,
                };
                stream[at..at + 4].copy_from_slice(&len.to_le_bytes());
                at
            };
            let intact = frames.iter().filter(|f| f.end <= at).count();
            let (got, end) = split(&stream, sizes);
            assert_eq!(got.get(..intact), Some(&want[..intact]), "seed {seed}");
            let ends = [None, Some(InvalidData), Some(UnexpectedEof)];
            assert!(ends.contains(&end), "seed {seed}: {end:?}");
        }
    }

    #[test]
    fn frame_round_trip_over_a_buffer() {
        let env = envelope(Msg::ClientTimer { kind: 1, tag: 2 });
        let mut buf = Vec::new();
        write_frame(&mut buf, &env).unwrap();
        write_frame(&mut buf, &env).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut reader = FrameReader::new();
        let a = reader
            .next_frame(&mut cursor)
            .unwrap()
            .expect("first frame");
        let b = reader
            .next_frame(&mut cursor)
            .unwrap()
            .expect("second frame");
        assert!(
            reader.next_frame(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );
        assert_eq!(format!("{env:?}"), format!("{a:?}"));
        assert_eq!(format!("{env:?}"), format!("{b:?}"));
    }

    /// Steady-state batch encoding is allocation-free: a pooled buffer,
    /// once warmed, is reused in place — same capacity, same allocation.
    #[test]
    fn pooled_frame_encode_reuses_the_allocation() {
        let pool = BufPool::new();
        let batch: Vec<Envelope> = all_variants().into_iter().map(envelope).collect();

        let mut buf = pool.get();
        for env in &batch {
            encode_frame_into(env, &mut buf);
        }
        let warmed_capacity = buf.capacity();
        pool.put(buf);

        let mut buf = pool.get();
        assert_eq!(buf.capacity(), warmed_capacity, "pool returned our buffer");
        let base = buf.as_ptr();
        for env in &batch {
            encode_frame_into(env, &mut buf);
        }
        assert_eq!(buf.capacity(), warmed_capacity, "no regrowth on reuse");
        assert_eq!(buf.as_ptr(), base, "no reallocation on reuse");
        pool.put(buf);
    }

    #[test]
    fn truncated_and_malformed_payloads_are_rejected() {
        let env = envelope(Msg::ReplicaServiceDone);
        let encoded = encode(&env);
        assert!(
            decode(&encoded[..encoded.len() - 1]).is_err(),
            "truncation detected"
        );
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing bytes detected");
        let mut bad_tag = encoded;
        *bad_tag.last_mut().unwrap() = 200;
        assert!(decode(&bad_tag).is_err(), "unknown tag detected");
    }
}
