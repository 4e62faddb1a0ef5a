//! The TCP wire format. Each [`Envelope`] is one frame: a little-endian
//! `u32` payload length, then the envelope field by field — fixed-width
//! little-endian integers, one tag byte per enum, a `u32` length before
//! every string, blob and collection. [`FrameReader`] reads frames back.
//!
//! Every wire type is one line of the `wire_types!` table, which `schema!`
//! turns into an encoder (an exhaustive `match`) and a decoder (struct
//! literals): a variant or field the table leaves out does not compile.
//! Only [`TxnProgram`] is hand-written. The tags are the only versioning.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

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
    /// When decoding off a shared buffer: the owning `Arc` and where the
    /// payload ends in it, for zero-copy byte values.
    shared: Option<(&'a Arc<[u8]>, usize)>,
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
    /// The blob just read as a view `(buffer, offset)` into a shared buffer.
    fn view(&self, blob: &[u8]) -> Option<(Arc<[u8]>, usize)> {
        let (owner, end) = self.shared?;
        Some((Arc::clone(owner), end - self.buf.len() - blob.len()))
    }
}

/// A whole payload as one envelope; trailing bytes are a framing bug.
fn decode_payload(buf: &[u8], shared: Option<(&Arc<[u8]>, usize)>) -> Result<Envelope> {
    let mut r = Reader { buf, shared };
    let env = Envelope::wire_read(&mut r)?;
    let trailing = || WireError("trailing bytes".into());
    r.buf.is_empty().then_some(env).ok_or_else(trailing)
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
/// bytes), never a view, so no key pins the buffer it was read from.
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

/// Byte values decode as views into a shared buffer, else copies.
impl Wire for Bytes {
    fn wire_write(&self, w: &mut impl Sink) {
        w.blob(self.as_slice());
    }
    fn wire_read(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.blob()?;
        Ok(match r.view(raw) {
            Some((owner, at)) => Bytes::shared(owner, at, raw.len()),
            None => Bytes::copy_from_slice(raw),
        })
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
            13 Crash, 14 Recover, 15 ReplicaServiceDone, 16 TxnTimeout { txn },
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
/// consumed — trailing bytes indicate a framing bug.
pub fn decode(buf: &[u8]) -> Result<Envelope> {
    decode_payload(buf, None)
}

/// Decode the payload at `buf[start..start + len]` *zero-copy*: every byte
/// value is a refcounted view into `buf`, and every key of up to 23 bytes
/// is held inline, so a frame decodes with no per-field allocation. Keys
/// are not views, so only byte values keep `buf` alive. Otherwise
/// identical to [`decode`] (the codec's property tests pin this).
pub fn decode_shared(buf: &Arc<[u8]>, start: usize, len: usize) -> Result<Envelope> {
    let range = start.checked_add(len).and_then(|end| buf.get(start..end));
    let Some(payload) = range else {
        return err("shared range out of bounds");
    };
    decode_payload(payload, Some((buf, start + len)))
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

/// Size of a burst chunk: what one socket `read` can return. Eight times
/// the ~1.9 KB a sender's coalesced flush carries at saturation, so a read
/// that found several flushes queued still takes them in one call.
const CHUNK_LEN: usize = 16 * 1024;

/// Most retired chunks a connection keeps for reuse (1 MiB).
const MAX_CHUNKS: usize = 64;

fn invalid_data(what: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// What `fill` returns should a chunk it is about to write turn out to be
/// shared. It takes only unique chunks, so this is a defined failure for a
/// bug in this file, not a state a peer can bring about.
fn not_writable() -> io::Error {
    io::Error::other("receive chunk is not writable")
}

/// The one way to read frames: a splitter over *burst chunks*.
///
/// The sender coalesces many frames into one socket write, so the receiver
/// takes them back the same way. [`fill`](Self::fill) issues **one**
/// `read` into a fixed-size chunk for whatever the socket holds, and
/// [`pop_frame`](Self::pop_frame) then yields every complete frame of that
/// burst, decoded zero-copy ([`decode_shared`]): the byte values of an
/// envelope are views into the chunk (its keys are values of their own).
/// A frame cut off by the end of the burst stays buffered; the next `fill`
/// moves that partial tail to the front of the chunk it reads into.
///
/// Chunks are recycled, never shared while written: a chunk is written
/// only while this reader holds the one reference to it, and once
/// `pop_frame` has handed out views nothing appends to it — the next `fill`
/// takes another chunk and retires this one, to be handed out again when
/// the last envelope decoded out of it has dropped (`strong_count == 1`).
/// So a view costs its holder nothing and costs the connection a 16 KiB
/// chunk for as long as it is held: **views are for the life of a
/// message**, and state that outlives one stores `Bytes::detached`
/// (`planet_storage` does so where a value enters a record or the log).
///
/// `fill` and `pop_frame` never block beyond the one `read`, so the pair is
/// a plain state machine over bytes: a readiness-driven poller can call
/// `fill` when the socket is readable and drain `pop_frame`, and a fuzzer
/// can feed it any byte stream cut anywhere.
/// [`next_frame`](Self::next_frame) is the blocking loop over the two.
pub struct FrameReader {
    /// The chunk being split. `chunk[start..end]` is received and not yet
    /// yielded; everything before `start` may be viewed by live envelopes.
    chunk: Arc<[u8]>,
    start: usize,
    end: usize,
    /// Chunks this reader filled before, oldest first.
    retired: Vec<Arc<[u8]>>,
}

impl FrameReader {
    /// A reader with nothing buffered. The first chunk is allocated by the
    /// first [`fill`](Self::fill).
    pub fn new() -> Self {
        FrameReader {
            chunk: Arc::from([]),
            start: 0,
            end: 0,
            retired: Vec::new(),
        }
    }

    /// The received bytes not yet yielded as frames.
    fn unread(&self) -> &[u8] {
        self.chunk.get(self.start..self.end).unwrap_or_default()
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

    /// The next complete frame already received, decoded as views into the
    /// chunk; `Ok(None)` when what is buffered ends mid-frame (or is
    /// empty) and [`fill`](Self::fill) has to run first.
    pub fn pop_frame(&mut self) -> io::Result<Option<Envelope>> {
        let Some(len) = self.frame_len()? else {
            return Ok(None);
        };
        let body = self.start + 4;
        if self.end - body < len {
            return Ok(None);
        }
        let env = decode_shared(&self.chunk, body, len).map_err(invalid_data)?;
        self.start = body + len;
        Ok(Some(env))
    }

    /// Receive one burst: a single `read` of whatever the stream holds, up
    /// to the room in the chunk. Call it when
    /// [`pop_frame`](Self::pop_frame) has returned `None`. Returns the byte
    /// count; `Ok(0)` is a clean end of stream (the peer closed between
    /// frames), and an end of stream inside a frame is `UnexpectedEof`.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        // A frame too large for a chunk gets a one-off buffer of exactly
        // its size; `read` then cannot run past the frame's end, and the
        // frames after it go back to chunks.
        let want = match self.frame_len()? {
            Some(len) if 4 + len > CHUNK_LEN => 4 + len,
            _ => CHUNK_LEN,
        };
        let (start, end) = (self.start, self.end);
        let unread = end - start;
        match Arc::get_mut(&mut self.chunk) {
            // Nothing views the current chunk (its envelopes are gone, or
            // it has yielded none yet): keep filling it.
            Some(buf) if buf.len() == want => {
                if start > 0 {
                    buf.copy_within(start..end, 0);
                }
            }
            _ => {
                let mut next = self.unique_chunk(want);
                let tail = self.chunk.get(start..end);
                let front = Arc::get_mut(&mut next).and_then(|buf| buf.get_mut(..unread));
                let (Some(tail), Some(front)) = (tail, front) else {
                    return Err(not_writable());
                };
                front.copy_from_slice(tail);
                let retiring = std::mem::replace(&mut self.chunk, next);
                self.retire(retiring);
            }
        }
        (self.start, self.end) = (0, unread);
        let room = Arc::get_mut(&mut self.chunk).and_then(|buf| buf.get_mut(unread..));
        let Some(room) = room else {
            return Err(not_writable());
        };
        let n = loop {
            match r.read(room) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        self.end += n;
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

    /// A buffer of `len` bytes nothing else refers to: for a chunk, the
    /// oldest retired one whose views have all dropped, else a fresh one.
    fn unique_chunk(&mut self, len: usize) -> Arc<[u8]> {
        if len == CHUNK_LEN {
            let free = self.retired.iter().position(|c| Arc::strong_count(c) == 1);
            if let Some(i) = free {
                return self.retired.remove(i);
            }
        }
        std::iter::repeat_n(0u8, len).collect()
    }

    /// Keep a filled chunk for reuse. One-off large buffers are not kept.
    /// A full list is a list of chunks that were all still viewed a moment
    /// ago, so the oldest is let go (its last view frees it): were the
    /// newcomer turned away instead, chunks pinned for good would occupy
    /// the list for the life of the connection and nothing would ever be
    /// reused again.
    fn retire(&mut self, chunk: Arc<[u8]>) {
        if chunk.len() != CHUNK_LEN {
            return;
        }
        if self.retired.len() >= MAX_CHUNKS {
            self.retired.remove(0);
        }
        self.retired.push(chunk);
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
        // Shared, at an offset inside a larger buffer, as a burst chunk holds it.
        let chunk: Arc<[u8]> = [&[0xEE; 7][..], &payload, &[0xEE; 3]].concat().into();
        let shared = decode_shared(&chunk, 7, payload.len()).expect("shared decode");
        assert_eq!(
            format!("{shared:?}"),
            format!("{owned:?}"),
            "shared ≡ owned"
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
                let _ = decode_shared(&Arc::from(&flipped[..]), 0, flipped.len());
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
            Msg::Crash,
            Msg::Recover,
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
    /// schema table replaced. The format has not changed since.
    const GOLDEN: [&str; 35] = [
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
        "03000000090000000d",
        "03000000090000000e",
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

    /// Shared decode really is zero-copy: byte values are views into the
    /// frame, not copies.
    #[test]
    fn shared_decode_views_byte_values() {
        let env = envelope(Msg::Apply {
            key: Key::new("k"),
            version: 1,
            value: Value::bytes(&b"payload"[..]),
            txn: TxnId::new(0, 1),
        });
        let payload: Arc<[u8]> = encode(&env).into();
        let decoded = decode_shared(&payload, 0, payload.len()).expect("decodes");
        let Msg::Apply {
            value: Value::Bytes(b),
            ..
        } = decoded.msg
        else {
            panic!("decoded to {decoded:?}");
        };
        assert!(b.is_view(), "shared decode must not copy byte values");
    }

    /// A key is decoded as a value, so interning it keeps nothing of the
    /// chunk: once the envelope drops, the chunk is free again.
    #[test]
    fn an_interned_key_does_not_pin_its_chunk() {
        let env = envelope(Msg::DropPending {
            key: Key::new("order:2:399999"),
            txn: TxnId::new(0, 1),
        });
        let payload = encode(&env);
        let chunk: Arc<[u8]> = [&[0xEE; 5][..], &payload].concat().into();
        let decoded = decode_shared(&chunk, 5, payload.len()).expect("decodes");
        let Msg::DropPending { key, .. } = &decoded.msg else {
            panic!("decoded to {decoded:?}");
        };
        let mut interner = planet_storage::KeyInterner::new();
        let id = interner.intern(key);
        drop(decoded);
        assert_eq!(
            Arc::strong_count(&chunk),
            1,
            "the message is gone, so is the pin"
        );
        assert_eq!(interner.name(id).as_str(), "order:2:399999");
    }

    /// The key a frame carries, decoded owned and shared.
    fn decoded_keys(key: &Key) -> [Key; 2] {
        let payload = encode(&envelope(Msg::DropPending {
            key: key.clone(),
            txn: TxnId::new(0, 1),
        }));
        let chunk: Arc<[u8]> = [&[0xEE; 3][..], &payload, &[0xEE; 2]].concat().into();
        let decoded = [
            decode(&payload).expect("owned decode"),
            decode_shared(&chunk, 3, payload.len()).expect("shared decode"),
        ];
        decoded.map(|env| match env.msg {
            Msg::DropPending { key, .. } => key,
            other => panic!("decoded to {other:?}"),
        })
    }

    /// Decoding, owned or shared, gives the key that was sent, on both
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
            for decoded in decoded_keys(&sent) {
                assert_eq!(decoded.as_str(), s);
                assert_eq!(decoded, sent);
                assert_eq!(hasher.hash_one(&decoded), hasher.hash_one(s.as_str()));
                decoded_all.push((decoded, s));
            }
        }
        for (a, s) in &decoded_all {
            for (b, t) in &decoded_all {
                assert_eq!(a.cmp(b), s.cmp(t), "{s:?} vs {t:?}");
            }
        }
    }

    /// A key that is not UTF-8 is refused, owned and shared.
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
        let shared: Arc<[u8]> = payload.clone().into();
        assert_eq!(
            decode_shared(&shared, 0, payload.len()).unwrap_err(),
            refused
        );
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
            let mut r = Reader {
                buf: &as_vec,
                shared: None,
            };
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

    /// Every variant, then one frame larger than a chunk, then every
    /// variant again (so frames follow the one-off buffer too), framed
    /// into one stream. Returns the stream and each frame's payload.
    fn splitter_stream() -> (Vec<u8>, Vec<Vec<u8>>) {
        let big = Msg::Apply {
            key: Key::new("big"),
            version: 1,
            value: Value::bytes((0..CHUNK_LEN + 1000).map(|i| i as u8).collect::<Vec<u8>>()),
            txn: TxnId::new(0, 1),
        };
        let msgs = all_variants()
            .into_iter()
            .chain([big])
            .chain(all_variants());
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for msg in msgs {
            let env = envelope(msg);
            encode_frame_into(&env, &mut stream);
            payloads.push(encode(&env));
        }
        (stream, payloads)
    }

    /// The splitter yields exactly the envelopes `decode` yields frame by
    /// frame, wherever the reads cut the stream.
    #[test]
    fn frame_reader_is_decode_frame_by_frame_for_every_split() {
        let (stream, payloads) = splitter_stream();
        let mut splits: Vec<Vec<usize>> = [1, 2, 3, 7, usize::MAX]
            .into_iter()
            .map(|n| vec![n])
            .collect();
        for seed in 0..8u64 {
            let mut rng = DetRng::new(0x5B11_7000 + seed);
            splits.push(
                (0..64)
                    .map(|_| 1 + (rng.next_u64() % 3000) as usize)
                    .collect(),
            );
        }
        for sizes in splits {
            let label = format!("{:?}", &sizes[..sizes.len().min(4)]);
            let mut src = Dribble::new(&stream, sizes);
            let mut reader = FrameReader::new();
            for payload in &payloads {
                let want = decode(payload).expect("owned decode");
                let got = reader
                    .next_frame(&mut src)
                    .unwrap_or_else(|e| panic!("split {label}: {e}"))
                    .unwrap_or_else(|| panic!("split {label}: premature eof"));
                assert_eq!(format!("{want:?}"), format!("{got:?}"), "split {label}");
            }
            assert!(
                reader.next_frame(&mut src).expect("clean eof").is_none(),
                "split {label}: clean EOF after the last frame"
            );
        }
    }

    #[test]
    fn frame_reader_tells_clean_eof_from_a_cut_frame() {
        let mut stream = Vec::new();
        encode_frame_into(&envelope(Msg::ClientTimer { kind: 1, tag: 2 }), &mut stream);
        let whole = stream.len();
        encode_frame_into(&envelope(Msg::Recover), &mut stream);
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
        encode_frame_into(&envelope(Msg::Recover), &mut stream);
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
        assert_eq!(reader.chunk.len(), CHUNK_LEN, "still the burst chunk");
        assert!(reader.retired.is_empty(), "nothing was allocated for it");
        // The largest legal length is taken at its word (and then starves).
        let mut cursor = io::Cursor::new(MAX_FRAME.to_le_bytes().to_vec());
        let err = FrameReader::new().next_frame(&mut cursor).expect_err("eof");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A chunk is handed out again once the envelopes decoded out of it
    /// have dropped, and left alone while one is still held.
    #[test]
    fn frame_reader_reuses_only_unpinned_chunks() {
        let env = envelope(Msg::Apply {
            key: Key::new("k"),
            version: 1,
            value: Value::bytes(&b"payload-bytes"[..]),
            txn: TxnId::new(0, 1),
        });
        let mut frame = Vec::new();
        encode_frame_into(&env, &mut frame);
        // One frame per read: each burst is one frame.
        let stream = frame.repeat(4);
        let mut src = Dribble::new(&stream, vec![frame.len()]);
        let mut reader = FrameReader::new();
        let chunk_of = |r: &FrameReader| r.chunk.as_ptr();

        let first = reader.next_frame(&mut src).unwrap().expect("first frame");
        let first_chunk = chunk_of(&reader);
        // `first`'s value view pins the first chunk, so the second burst
        // must go into a distinct one.
        let second = reader.next_frame(&mut src).unwrap().expect("second frame");
        let second_chunk = chunk_of(&reader);
        assert_ne!(first_chunk, second_chunk, "a viewed chunk is not written");
        assert_eq!(
            format!("{first:?}"),
            format!("{env:?}"),
            "and not disturbed"
        );
        assert_eq!(reader.retired.len(), 1);
        // Drop the first envelope only: the third burst recycles its chunk
        // and leaves the second's alone.
        drop(first);
        let third = reader.next_frame(&mut src).unwrap().expect("third frame");
        assert_eq!(chunk_of(&reader), first_chunk, "recycled, not allocated");
        assert_eq!(reader.retired.len(), 1, "recycled, not grown");
        assert_eq!(format!("{second:?}"), format!("{env:?}"));
        // With nothing viewing the current chunk it is simply kept.
        drop(third);
        let fourth = reader.next_frame(&mut src).unwrap().expect("fourth frame");
        assert_eq!(chunk_of(&reader), first_chunk, "an unviewed chunk is kept");
        assert_eq!(format!("{fourth:?}"), format!("{env:?}"));
    }

    /// Chunks pinned for good do not end reuse: when the list is full the
    /// oldest is let go, so chunks retired later are still found again.
    /// (A byte value pins; a key would not.)
    #[test]
    fn frame_reader_evicts_pinned_chunks_when_the_list_is_full() {
        let mut frame = Vec::new();
        encode_frame_into(
            &envelope(Msg::Apply {
                key: Key::new("k"),
                version: 1,
                value: Value::bytes(&b"payload-bytes"[..]),
                txn: TxnId::new(0, 1),
            }),
            &mut frame,
        );
        let stream = frame.repeat(MAX_CHUNKS + 20);
        let mut src = Dribble::new(&stream, vec![frame.len()]);
        let mut reader = FrameReader::new();
        // Hold one envelope per burst, past the capacity of the list.
        let pinned: Vec<Envelope> = (0..MAX_CHUNKS + 8)
            .map(|_| reader.next_frame(&mut src).unwrap().expect("frame"))
            .collect();
        assert_eq!(reader.retired.len(), MAX_CHUNKS, "bounded");
        // Now hold only the previous envelope, as a mailbox would: the
        // chunk being split is viewed at every fill, so each burst needs
        // another one — and after the first, finds it in the list.
        let mut held = reader.next_frame(&mut src).unwrap().expect("frame");
        for burst in 0..8 {
            let listed: Vec<*const u8> = reader.retired.iter().map(|c| c.as_ptr()).collect();
            held = reader.next_frame(&mut src).unwrap().expect("frame");
            // (The first still finds every listed chunk pinned.)
            assert!(
                burst == 0 || listed.contains(&reader.chunk.as_ptr()),
                "reused"
            );
            assert_eq!(reader.retired.len(), MAX_CHUNKS);
        }
        drop(held);
        drop(pinned);
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
        let env = envelope(Msg::Recover);
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
