//! The TCP wire format: a hand-rolled, length-prefixed binary codec for
//! [`Envelope`]s.
//!
//! Framing: each envelope is one frame — a little-endian `u32` payload
//! length followed by the payload. Frames are written many to a socket
//! write and read back many to a socket `read`: [`FrameReader`] is the one
//! way to read them, splitting each received burst into envelopes whose
//! keys and byte values are views into the burst's chunk. The payload is
//! `from: u32`, `to: u32`, then the [`Msg`] encoded with one leading tag
//! byte per enum and fixed-width little-endian integers throughout. Strings
//! and byte blobs are length-prefixed (`u32`). There is no external
//! serialization dependency by design: the workspace builds offline, so the
//! codec is written out by hand and covered by round-trip tests over every
//! message variant.
//!
//! The encoder is generic over a byte [`Sink`], which gives three shapes
//! from one set of putters: [`encode_into`] appends to a caller-owned
//! buffer (the batched TCP path reuses pooled buffers via [`BufPool`], so
//! steady-state encoding allocates nothing), [`encoded_len`] runs the same
//! putters against a counting sink to size a frame without materialising
//! it, and [`encode`] is the allocate-a-fresh-`Vec` convenience.
//!
//! The format is symmetric (what `encode` writes, `decode` reads back) and
//! versioned only implicitly by the enum tags — both ends of a connection
//! are expected to run the same build, which is the deployment model of the
//! `planetd` server and `planet-load` driver.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

use planet_mdcc::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec, TxnStats};
use planet_plan::{
    DeltaRef, KeyRef, KeyTemplate, OpTemplate, PlanOp, PlanParam, TemplatePart, TxnProgram,
};
use planet_sim::{ActorId, SimTime, SiteId};
use planet_storage::{Bytes, Key, RecordOption, RejectReason, TxnId, Value, WriteOp};

use crate::transport::Envelope;

/// Largest frame either side will accept: guards a malformed or hostile
/// length prefix from triggering a huge allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

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

// ----------------------------------------------------------------- sinks

/// Where encoded bytes go. One implementation appends to a `Vec<u8>`
/// (actual encoding); one just counts ([`encoded_len`]). The putters below
/// are written once against this trait, so the two can never disagree.
trait Sink {
    fn raw(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                self.i64(x);
            }
        }
    }
}

impl Sink for Vec<u8> {
    fn raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that discards bytes and keeps only their count.
struct Measure(usize);

impl Sink for Measure {
    fn raw(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    /// What is left to decode.
    buf: &'a [u8],
    /// Bytes decoded so far: the offset of `buf[0]` in the payload.
    pos: usize,
    /// When decoding off a shared buffer: the owning `Arc` and the offset
    /// of the payload within it. Keys and byte values then decode as
    /// zero-copy views into the buffer instead of per-field allocations.
    shared: Option<(&'a Arc<[u8]>, usize)>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            shared: None,
        }
    }

    /// A reader over `owner[base..base + len]` that decodes blob fields as
    /// views into `owner`.
    fn new_shared(owner: &'a Arc<[u8]>, base: usize, len: usize) -> Result<Self> {
        let range = base.checked_add(len).and_then(|end| owner.get(base..end));
        let Some(buf) = range else {
            return err("shared range out of bounds");
        };
        Ok(Reader {
            buf,
            pos: 0,
            shared: Some((owner, base)),
        })
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return err("truncated frame");
        };
        self.buf = rest;
        self.pos += n;
        Ok(head)
    }
    /// The next `N` bytes, for the fixed-width integers.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some((head, rest)) = self.buf.split_first_chunk::<N>() else {
            return err("truncated frame");
        };
        self.buf = rest;
        self.pos += N;
        Ok(*head)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => err("bad bool"),
        }
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn blob(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// A length-prefixed blob as [`Bytes`]: a zero-copy view into the
    /// owning frame buffer when one is attached, an owned copy otherwise.
    fn blob_bytes(&mut self) -> Result<Bytes> {
        let n = self.u32()? as usize;
        let start = self.pos;
        let raw = self.take(n)?;
        match self.shared {
            Some((owner, base)) => Ok(Bytes::shared(Arc::clone(owner), base + start, n)),
            None => Ok(Bytes::copy_from_slice(raw)),
        }
    }
    /// A length-prefixed string as [`Key`]: a zero-copy, UTF-8-validated
    /// view into the owning frame buffer when one is attached.
    fn blob_key(&mut self) -> Result<Key> {
        let n = self.u32()? as usize;
        let start = self.pos;
        let raw = self.take(n)?;
        match self.shared {
            Some((owner, base)) => Key::shared(Arc::clone(owner), base + start, n)
                .ok_or_else(|| WireError("bad utf8".into())),
            None => {
                let s = std::str::from_utf8(raw).map_err(|_| WireError("bad utf8".into()))?;
                Ok(Key::new(s))
            }
        }
    }
    fn string(&mut self) -> Result<String> {
        let raw = self.blob()?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError("bad utf8".into()))
    }
    fn opt_i64(&mut self) -> Result<Option<i64>> {
        Ok(if self.bool()? {
            Some(self.i64()?)
        } else {
            None
        })
    }
    fn finished(&self) -> bool {
        self.buf.is_empty()
    }
}

// ------------------------------------------------------------- components

fn put_key(w: &mut impl Sink, k: &Key) {
    w.str(k.as_str());
}
fn get_key(r: &mut Reader) -> Result<Key> {
    r.blob_key()
}

fn put_txn_id(w: &mut impl Sink, t: TxnId) {
    w.u8(t.site);
    w.u64(t.seq);
}
fn get_txn_id(r: &mut Reader) -> Result<TxnId> {
    Ok(TxnId {
        site: r.u8()?,
        seq: r.u64()?,
    })
}

fn put_value(w: &mut impl Sink, v: &Value) {
    match v {
        Value::None => w.u8(0),
        Value::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        Value::Bytes(b) => {
            w.u8(2);
            w.bytes(b.as_slice());
        }
    }
}
fn get_value(r: &mut Reader) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::None),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Bytes(r.blob_bytes()?)),
        _ => err("bad Value tag"),
    }
}

fn put_write_op(w: &mut impl Sink, op: &WriteOp) {
    match op {
        WriteOp::Set(v) => {
            w.u8(0);
            put_value(w, v);
        }
        WriteOp::Delete => w.u8(1),
        WriteOp::Add {
            delta,
            lower,
            upper,
        } => {
            w.u8(2);
            w.i64(*delta);
            w.opt_i64(*lower);
            w.opt_i64(*upper);
        }
    }
}
fn get_write_op(r: &mut Reader) -> Result<WriteOp> {
    match r.u8()? {
        0 => Ok(WriteOp::Set(get_value(r)?)),
        1 => Ok(WriteOp::Delete),
        2 => Ok(WriteOp::Add {
            delta: r.i64()?,
            lower: r.opt_i64()?,
            upper: r.opt_i64()?,
        }),
        _ => err("bad WriteOp tag"),
    }
}

fn put_option(w: &mut impl Sink, o: &RecordOption) {
    put_txn_id(w, o.txn);
    w.u64(o.read_version);
    put_write_op(w, &o.op);
}
fn get_option(r: &mut Reader) -> Result<RecordOption> {
    Ok(RecordOption {
        txn: get_txn_id(r)?,
        read_version: r.u64()?,
        op: get_write_op(r)?,
    })
}

fn put_reject(w: &mut impl Sink, reason: &RejectReason) {
    match reason {
        RejectReason::StaleVersion { expected, actual } => {
            w.u8(0);
            w.u64(*expected);
            w.u64(*actual);
        }
        RejectReason::PendingConflict { holder } => {
            w.u8(1);
            put_txn_id(w, *holder);
        }
        RejectReason::BoundViolation => w.u8(2),
        RejectReason::TypeMismatch => w.u8(3),
        RejectReason::DuplicateTxn => w.u8(4),
    }
}
fn get_reject(r: &mut Reader) -> Result<RejectReason> {
    Ok(match r.u8()? {
        0 => RejectReason::StaleVersion {
            expected: r.u64()?,
            actual: r.u64()?,
        },
        1 => RejectReason::PendingConflict {
            holder: get_txn_id(r)?,
        },
        2 => RejectReason::BoundViolation,
        3 => RejectReason::TypeMismatch,
        4 => RejectReason::DuplicateTxn,
        _ => return err("bad RejectReason tag"),
    })
}

fn put_opt_reject(w: &mut impl Sink, reason: &Option<RejectReason>) {
    match reason {
        None => w.bool(false),
        Some(x) => {
            w.bool(true);
            put_reject(w, x);
        }
    }
}
fn get_opt_reject(r: &mut Reader) -> Result<Option<RejectReason>> {
    Ok(if r.bool()? {
        Some(get_reject(r)?)
    } else {
        None
    })
}

fn put_spec(w: &mut impl Sink, spec: &TxnSpec) {
    w.u32(spec.reads.len() as u32);
    for k in &spec.reads {
        put_key(w, k);
    }
    w.u32(spec.writes.len() as u32);
    for (k, op) in &spec.writes {
        put_key(w, k);
        put_write_op(w, op);
    }
    w.u8(match spec.read_level {
        ReadLevel::Local => 0,
        ReadLevel::Quorum => 1,
    });
}
fn get_spec(r: &mut Reader) -> Result<TxnSpec> {
    let n = r.u32()? as usize;
    let mut reads = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        reads.push(get_key(r)?);
    }
    let n = r.u32()? as usize;
    let mut writes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        writes.push((get_key(r)?, get_write_op(r)?));
    }
    let read_level = match r.u8()? {
        0 => ReadLevel::Local,
        1 => ReadLevel::Quorum,
        _ => return err("bad ReadLevel tag"),
    };
    Ok(TxnSpec {
        reads,
        writes,
        read_level,
    })
}

fn put_key_read(w: &mut impl Sink, kr: &KeyRead) {
    put_key(w, &kr.key);
    w.u64(kr.version);
    put_value(w, &kr.value);
    w.u64(kr.pending as u64);
}
fn get_key_read(r: &mut Reader) -> Result<KeyRead> {
    Ok(KeyRead {
        key: get_key(r)?,
        version: r.u64()?,
        value: get_value(r)?,
        pending: r.u64()? as usize,
    })
}

fn put_stage(w: &mut impl Sink, stage: &ProgressStage) {
    match stage {
        ProgressStage::Started => w.u8(0),
        ProgressStage::ReadsDone { reads } => {
            w.u8(1);
            w.u32(reads.len() as u32);
            for kr in reads {
                put_key_read(w, kr);
            }
        }
        ProgressStage::Vote {
            key,
            site,
            accept,
            reason,
            elapsed_us,
        } => {
            w.u8(2);
            put_key(w, key);
            w.u8(site.0);
            w.bool(*accept);
            put_opt_reject(w, reason);
            w.u64(*elapsed_us);
        }
        ProgressStage::KeyFallback { key } => {
            w.u8(3);
            put_key(w, key);
        }
        ProgressStage::KeyResolved { key, accepted } => {
            w.u8(4);
            put_key(w, key);
            w.bool(*accepted);
        }
    }
}
fn get_stage(r: &mut Reader) -> Result<ProgressStage> {
    Ok(match r.u8()? {
        0 => ProgressStage::Started,
        1 => {
            let n = r.u32()? as usize;
            let mut reads = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                reads.push(get_key_read(r)?);
            }
            ProgressStage::ReadsDone { reads }
        }
        2 => ProgressStage::Vote {
            key: get_key(r)?,
            site: SiteId(r.u8()?),
            accept: r.bool()?,
            reason: get_opt_reject(r)?,
            elapsed_us: r.u64()?,
        },
        3 => ProgressStage::KeyFallback { key: get_key(r)? },
        4 => ProgressStage::KeyResolved {
            key: get_key(r)?,
            accepted: r.bool()?,
        },
        _ => return err("bad ProgressStage tag"),
    })
}

fn put_outcome(w: &mut impl Sink, o: Outcome) {
    w.u8(match o {
        Outcome::Committed => 0,
        Outcome::Aborted => 1,
        Outcome::TimedOut => 2,
    });
}
fn get_outcome(r: &mut Reader) -> Result<Outcome> {
    Ok(match r.u8()? {
        0 => Outcome::Committed,
        1 => Outcome::Aborted,
        2 => Outcome::TimedOut,
        _ => return err("bad Outcome tag"),
    })
}

fn put_stats(w: &mut impl Sink, s: &TxnStats) {
    w.u64(s.submitted_at.as_micros());
    w.u64(s.decided_at.as_micros());
    w.u64(s.proposals_sent_at.as_micros());
    w.u64(s.write_keys as u64);
    w.u64(s.votes_received as u64);
    w.u64(s.rejections as u64);
}
fn get_stats(r: &mut Reader) -> Result<TxnStats> {
    Ok(TxnStats {
        submitted_at: SimTime::from_micros(r.u64()?),
        decided_at: SimTime::from_micros(r.u64()?),
        proposals_sent_at: SimTime::from_micros(r.u64()?),
        write_keys: r.u64()? as usize,
        votes_received: r.u64()? as usize,
        rejections: r.u64()? as usize,
    })
}

// ----------------------------------------------------------------- plans

fn put_key_ref(w: &mut impl Sink, k: &KeyRef) {
    match k {
        KeyRef::Fixed(i) => {
            w.u8(0);
            w.u32(*i);
        }
        KeyRef::Param(p) => {
            w.u8(1);
            w.u8(*p);
        }
        KeyRef::Derived(tmpl) => {
            w.u8(2);
            w.u32(tmpl.parts.len() as u32);
            for part in &tmpl.parts {
                match part {
                    TemplatePart::Lit(s) => {
                        w.u8(0);
                        w.str(s);
                    }
                    TemplatePart::Param(p) => {
                        w.u8(1);
                        w.u8(*p);
                    }
                }
            }
        }
    }
}
fn get_key_ref(r: &mut Reader) -> Result<KeyRef> {
    Ok(match r.u8()? {
        0 => KeyRef::Fixed(r.u32()?),
        1 => KeyRef::Param(r.u8()?),
        2 => {
            let n = r.u32()? as usize;
            let mut parts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                parts.push(match r.u8()? {
                    0 => TemplatePart::Lit(r.string()?),
                    1 => TemplatePart::Param(r.u8()?),
                    _ => return err("bad TemplatePart tag"),
                });
            }
            KeyRef::Derived(KeyTemplate { parts })
        }
        _ => return err("bad KeyRef tag"),
    })
}

fn put_op_template(w: &mut impl Sink, t: &OpTemplate) {
    match t {
        OpTemplate::Set(v) => {
            w.u8(0);
            put_value(w, v);
        }
        OpTemplate::SetParam(p) => {
            w.u8(1);
            w.u8(*p);
        }
        OpTemplate::Add {
            delta,
            lower,
            upper,
        } => {
            w.u8(2);
            match delta {
                DeltaRef::Const(d) => {
                    w.u8(0);
                    w.i64(*d);
                }
                DeltaRef::Param(p) => {
                    w.u8(1);
                    w.u8(*p);
                }
            }
            w.opt_i64(*lower);
            w.opt_i64(*upper);
        }
        OpTemplate::Delete => w.u8(3),
    }
}
fn get_op_template(r: &mut Reader) -> Result<OpTemplate> {
    Ok(match r.u8()? {
        0 => OpTemplate::Set(get_value(r)?),
        1 => OpTemplate::SetParam(r.u8()?),
        2 => OpTemplate::Add {
            delta: match r.u8()? {
                0 => DeltaRef::Const(r.i64()?),
                1 => DeltaRef::Param(r.u8()?),
                _ => return err("bad DeltaRef tag"),
            },
            lower: r.opt_i64()?,
            upper: r.opt_i64()?,
        },
        3 => OpTemplate::Delete,
        _ => return err("bad OpTemplate tag"),
    })
}

fn put_program(w: &mut impl Sink, p: &TxnProgram) {
    w.str(&p.name);
    w.u32(p.table.len() as u32);
    for k in p.table.iter() {
        put_key(w, k);
    }
    w.u32(p.ops.len() as u32);
    for op in &p.ops {
        match op {
            PlanOp::Read(k) => {
                w.u8(0);
                put_key_ref(w, k);
            }
            PlanOp::Write(k, t) => {
                w.u8(1);
                put_key_ref(w, k);
                put_op_template(w, t);
            }
        }
    }
    w.bool(p.quorum_reads);
}
fn get_program(r: &mut Reader) -> Result<TxnProgram> {
    let mut program = TxnProgram::new(r.string()?);
    // The table is interned as it is read, so entry `i` must come back as
    // index `i`: a repeated key would shift every later index, and is
    // refused here rather than found by a scan at every coordinator.
    for i in 0..r.u32()? {
        if program.intern(get_key(r)?) != i {
            return err("repeated plan table key");
        }
    }
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ops.push(match r.u8()? {
            0 => PlanOp::Read(get_key_ref(r)?),
            1 => PlanOp::Write(get_key_ref(r)?, get_op_template(r)?),
            _ => return err("bad PlanOp tag"),
        });
    }
    program.ops = ops;
    program.quorum_reads = r.bool()?;
    Ok(program)
}

fn put_params(w: &mut impl Sink, params: &[PlanParam]) {
    w.u32(params.len() as u32);
    for p in params {
        match p {
            PlanParam::Key(i) => {
                w.u8(0);
                w.u32(*i);
            }
            PlanParam::Int(v) => {
                w.u8(1);
                w.i64(*v);
            }
        }
    }
}
fn get_params(r: &mut Reader) -> Result<Vec<PlanParam>> {
    let n = r.u32()? as usize;
    let mut params = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        params.push(match r.u8()? {
            0 => PlanParam::Key(r.u32()?),
            1 => PlanParam::Int(r.i64()?),
            _ => return err("bad PlanParam tag"),
        });
    }
    Ok(params)
}

// ------------------------------------------------------------------ msg

fn put_msg(w: &mut impl Sink, msg: &Msg) {
    match msg {
        Msg::Submit {
            spec,
            reply_to,
            tag,
        } => {
            w.u8(0);
            put_spec(w, spec);
            w.u32(reply_to.0);
            w.u64(*tag);
        }
        Msg::ReadReq { txn, keys } => {
            w.u8(1);
            put_txn_id(w, *txn);
            w.u32(keys.len() as u32);
            for k in keys {
                put_key(w, k);
            }
        }
        Msg::FastPropose {
            txn,
            key,
            option,
            round,
        } => {
            w.u8(2);
            put_txn_id(w, *txn);
            put_key(w, key);
            put_option(w, option);
            w.u8(*round);
        }
        Msg::Propose {
            txn,
            key,
            option,
            coordinator,
            round,
        } => {
            w.u8(3);
            put_txn_id(w, *txn);
            put_key(w, key);
            put_option(w, option);
            w.u32(coordinator.0);
            w.u8(*round);
        }
        Msg::Replicate {
            txn,
            key,
            option,
            coordinator,
            master,
            round,
        } => {
            w.u8(4);
            put_txn_id(w, *txn);
            put_key(w, key);
            put_option(w, option);
            w.u32(coordinator.0);
            w.u32(master.0);
            w.u8(*round);
        }
        Msg::Decide {
            txn,
            key,
            option,
            commit,
        } => {
            w.u8(5);
            put_txn_id(w, *txn);
            put_key(w, key);
            put_option(w, option);
            w.bool(*commit);
        }
        Msg::ReadResp { txn, results } => {
            w.u8(6);
            put_txn_id(w, *txn);
            w.u32(results.len() as u32);
            for kr in results {
                put_key_read(w, kr);
            }
        }
        Msg::Vote {
            txn,
            key,
            site,
            accept,
            reason,
            round,
        } => {
            w.u8(7);
            put_txn_id(w, *txn);
            put_key(w, key);
            w.u8(site.0);
            w.bool(*accept);
            put_opt_reject(w, reason);
            w.u8(*round);
        }
        Msg::ReplicateAck { txn, key, site } => {
            w.u8(8);
            put_txn_id(w, *txn);
            put_key(w, key);
            w.u8(site.0);
        }
        Msg::Apply {
            key,
            version,
            value,
            txn,
        } => {
            w.u8(9);
            put_key(w, key);
            w.u64(*version);
            put_value(w, value);
            put_txn_id(w, *txn);
        }
        Msg::DropPending { key, txn } => {
            w.u8(10);
            put_key(w, key);
            put_txn_id(w, *txn);
        }
        Msg::Progress { tag, txn, stage } => {
            w.u8(11);
            w.u64(*tag);
            put_txn_id(w, *txn);
            put_stage(w, stage);
        }
        Msg::TxnDone {
            tag,
            txn,
            outcome,
            stats,
        } => {
            w.u8(12);
            w.u64(*tag);
            put_txn_id(w, *txn);
            put_outcome(w, *outcome);
            put_stats(w, stats);
        }
        Msg::Crash => w.u8(13),
        Msg::Recover => w.u8(14),
        Msg::ReplicaServiceDone => w.u8(15),
        Msg::TxnTimeout { txn } => {
            w.u8(16);
            put_txn_id(w, *txn);
        }
        Msg::ClientTimer { kind, tag } => {
            w.u8(17);
            w.u32(*kind);
            w.u64(*tag);
        }
        Msg::RegisterPlan {
            plan,
            program,
            reply_to,
        } => {
            w.u8(18);
            w.u32(*plan);
            put_program(w, program);
            w.u32(reply_to.0);
        }
        Msg::SubmitPlan {
            plan,
            params,
            reply_to,
            tag,
        } => {
            w.u8(19);
            w.u32(*plan);
            put_params(w, params);
            w.u32(reply_to.0);
            w.u64(*tag);
        }
        Msg::PlanReady { plan } => {
            w.u8(20);
            w.u32(*plan);
        }
    }
}

fn get_msg(r: &mut Reader) -> Result<Msg> {
    Ok(match r.u8()? {
        0 => Msg::Submit {
            spec: get_spec(r)?,
            reply_to: ActorId(r.u32()?),
            tag: r.u64()?,
        },
        1 => {
            let txn = get_txn_id(r)?;
            let n = r.u32()? as usize;
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(get_key(r)?);
            }
            Msg::ReadReq { txn, keys }
        }
        2 => Msg::FastPropose {
            txn: get_txn_id(r)?,
            key: get_key(r)?,
            option: get_option(r)?,
            round: r.u8()?,
        },
        3 => Msg::Propose {
            txn: get_txn_id(r)?,
            key: get_key(r)?,
            option: get_option(r)?,
            coordinator: ActorId(r.u32()?),
            round: r.u8()?,
        },
        4 => Msg::Replicate {
            txn: get_txn_id(r)?,
            key: get_key(r)?,
            option: get_option(r)?,
            coordinator: ActorId(r.u32()?),
            master: ActorId(r.u32()?),
            round: r.u8()?,
        },
        5 => Msg::Decide {
            txn: get_txn_id(r)?,
            key: get_key(r)?,
            option: get_option(r)?,
            commit: r.bool()?,
        },
        6 => {
            let txn = get_txn_id(r)?;
            let n = r.u32()? as usize;
            let mut results = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                results.push(get_key_read(r)?);
            }
            Msg::ReadResp { txn, results }
        }
        7 => Msg::Vote {
            txn: get_txn_id(r)?,
            key: get_key(r)?,
            site: SiteId(r.u8()?),
            accept: r.bool()?,
            reason: get_opt_reject(r)?,
            round: r.u8()?,
        },
        8 => Msg::ReplicateAck {
            txn: get_txn_id(r)?,
            key: get_key(r)?,
            site: SiteId(r.u8()?),
        },
        9 => Msg::Apply {
            key: get_key(r)?,
            version: r.u64()?,
            value: get_value(r)?,
            txn: get_txn_id(r)?,
        },
        10 => Msg::DropPending {
            key: get_key(r)?,
            txn: get_txn_id(r)?,
        },
        11 => Msg::Progress {
            tag: r.u64()?,
            txn: get_txn_id(r)?,
            stage: get_stage(r)?,
        },
        12 => Msg::TxnDone {
            tag: r.u64()?,
            txn: get_txn_id(r)?,
            outcome: get_outcome(r)?,
            stats: get_stats(r)?,
        },
        13 => Msg::Crash,
        14 => Msg::Recover,
        15 => Msg::ReplicaServiceDone,
        16 => Msg::TxnTimeout {
            txn: get_txn_id(r)?,
        },
        17 => Msg::ClientTimer {
            kind: r.u32()?,
            tag: r.u64()?,
        },
        18 => Msg::RegisterPlan {
            plan: r.u32()?,
            program: get_program(r)?,
            reply_to: ActorId(r.u32()?),
        },
        19 => Msg::SubmitPlan {
            plan: r.u32()?,
            params: get_params(r)?,
            reply_to: ActorId(r.u32()?),
            tag: r.u64()?,
        },
        20 => Msg::PlanReady { plan: r.u32()? },
        _ => return err("bad Msg tag"),
    })
}

// ------------------------------------------------------------- envelopes

/// Exact payload size [`encode`] would produce for `env`, computed without
/// writing a byte. Lets framing code reserve buffer space ahead of encoding
/// and write the length prefix before the payload exists.
pub fn encoded_len(env: &Envelope) -> usize {
    let mut m = Measure(0);
    m.u32(env.from.0);
    m.u32(env.to.0);
    put_msg(&mut m, &env.msg);
    m.0
}

/// Append the payload encoding of `env` (no frame header) to `buf`.
pub fn encode_into(env: &Envelope, buf: &mut Vec<u8>) {
    buf.u32(env.from.0);
    buf.u32(env.to.0);
    put_msg(buf, &env.msg);
}

/// Append one length-prefixed frame for `env` to `buf`. The batched TCP
/// send path calls this repeatedly on a pooled buffer, then issues a single
/// socket write for the whole batch.
pub fn encode_frame_into(env: &Envelope, buf: &mut Vec<u8>) {
    let len = encoded_len(env);
    buf.reserve(4 + len);
    buf.u32(len as u32);
    let start = buf.len();
    encode_into(env, buf);
    debug_assert_eq!(buf.len() - start, len, "encoded_len disagrees with encode");
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
    let mut r = Reader::new(buf);
    let from = ActorId(r.u32()?);
    let to = ActorId(r.u32()?);
    let msg = get_msg(&mut r)?;
    if !r.finished() {
        return err("trailing bytes");
    }
    Ok(Envelope { from, to, msg })
}

/// Decode the payload at `buf[start..start + len]` *zero-copy*: every key
/// and byte value in the resulting message is a refcounted view into
/// `buf`, so a frame decodes with no per-field allocation — the buffer
/// stays alive until the last decoded field drops. Semantically identical
/// to [`decode`] of the same range (the round-trip property tests pin
/// this).
pub fn decode_shared(buf: &Arc<[u8]>, start: usize, len: usize) -> Result<Envelope> {
    let mut r = Reader::new_shared(buf, start, len)?;
    let from = ActorId(r.u32()?);
    let to = ActorId(r.u32()?);
    let msg = get_msg(&mut r)?;
    if !r.finished() {
        return err("trailing bytes");
    }
    Ok(Envelope { from, to, msg })
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

// ----------------------------------------------------------- frame reader

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
/// burst, decoded zero-copy ([`decode_shared`]): the keys and byte values
/// of an envelope are views into the chunk. A frame cut off by the end of
/// the burst stays buffered; the next `fill` moves that partial tail to the
/// front of the chunk it reads into.
///
/// Chunks are recycled, never shared while written: a chunk is written
/// only while this reader holds the one reference to it, and once
/// `pop_frame` has handed out views nothing appends to it — the next `fill`
/// takes another chunk and retires this one, to be handed out again when
/// the last envelope decoded out of it has dropped (`strong_count == 1`).
/// So a view costs its holder nothing and costs the connection a 16 KiB
/// chunk for as long as it is held: **views are for the life of a
/// message**, and state that outlives one stores `Key::detached` /
/// `Bytes::detached` (`planet_storage` does so where a key is interned and
/// where a value enters a record or the log).
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

    fn round_trip(env: Envelope) {
        let encoded = encode(&env);
        let decoded = decode(&encoded).expect("decode");
        // Msg has no PartialEq (it carries closures-free but heterogeneous
        // payloads); compare via Debug, which prints every field.
        assert_eq!(format!("{env:?}"), format!("{decoded:?}"));
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

    /// One instance of every `Msg` variant (every `ProgressStage` included),
    /// with payloads exercising nested components. Shared by the round-trip
    /// and `encoded_len` tests so new variants are covered by both.
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
            Msg::ReadReq {
                txn: TxnId::new(1, 5),
                keys: vec![Key::new("x"), Key::new("y")],
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
                stats,
            },
            Msg::Crash,
            Msg::Recover,
            Msg::ReplicaServiceDone,
            Msg::TxnTimeout {
                txn: TxnId::new(1, 5),
            },
            Msg::ClientTimer { kind: 101, tag: 55 },
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

    #[test]
    fn round_trips_every_msg_variant() {
        for msg in all_variants() {
            round_trip(envelope(msg));
        }
    }

    #[test]
    fn encoded_len_matches_encode_for_every_variant() {
        for msg in all_variants() {
            let env = envelope(msg);
            let encoded = encode(&env);
            assert_eq!(
                encoded_len(&env),
                encoded.len(),
                "encoded_len mismatch for {env:?}"
            );
            let mut framed = Vec::new();
            encode_frame_into(&env, &mut framed);
            assert_eq!(framed.len(), 4 + encoded.len());
            assert_eq!(&framed[4..], &encoded[..], "frame body differs");
        }
    }

    /// Property: `encoded_len` matches the materialised encoding for
    /// randomised payloads too — variable-length keys, blobs and
    /// collection sizes, not just the fixed samples above.
    #[test]
    fn encoded_len_matches_encode_for_random_payloads() {
        for trial in 0..200u64 {
            let mut rng = DetRng::new(0x57AB_1E00 + trial);
            let key_of = |r: &mut DetRng| {
                let len = (r.next_u64() % 40) as usize;
                Key::new("k".repeat(len.max(1)))
            };
            let value_of = |r: &mut DetRng| match r.next_u64() % 3 {
                0 => Value::None,
                1 => Value::Int(r.next_u64() as i64),
                _ => {
                    let len = (r.next_u64() % 300) as usize;
                    Value::bytes(vec![0xAB; len])
                }
            };
            let msg = match trial % 4 {
                0 => {
                    let reads = (0..(rng.next_u64() % 8))
                        .map(|_| key_of(&mut rng))
                        .collect();
                    let writes = (0..(rng.next_u64() % 8))
                        .map(|_| (key_of(&mut rng), WriteOp::Set(value_of(&mut rng))))
                        .collect();
                    Msg::Submit {
                        spec: TxnSpec {
                            reads,
                            writes,
                            read_level: ReadLevel::Local,
                        },
                        reply_to: ActorId(rng.next_u64() as u32),
                        tag: rng.next_u64(),
                    }
                }
                1 => Msg::ReadResp {
                    txn: TxnId::new(1, rng.next_u64()),
                    results: (0..(rng.next_u64() % 6))
                        .map(|_| KeyRead {
                            key: key_of(&mut rng),
                            version: rng.next_u64(),
                            value: value_of(&mut rng),
                            pending: (rng.next_u64() % 10) as usize,
                        })
                        .collect(),
                },
                2 => Msg::Apply {
                    key: key_of(&mut rng),
                    version: rng.next_u64(),
                    value: value_of(&mut rng),
                    txn: TxnId::new(2, rng.next_u64()),
                },
                _ => Msg::Vote {
                    txn: TxnId::new(3, rng.next_u64()),
                    key: key_of(&mut rng),
                    site: SiteId((rng.next_u64() % 5) as u8),
                    accept: rng.next_u64().is_multiple_of(2),
                    reason: if rng.next_u64().is_multiple_of(2) {
                        Some(RejectReason::PendingConflict {
                            holder: TxnId::new(0, rng.next_u64()),
                        })
                    } else {
                        None
                    },
                    round: (rng.next_u64() % 4) as u8,
                },
            };
            let env = Envelope {
                from: ActorId(rng.next_u64() as u32),
                to: ActorId(rng.next_u64() as u32),
                msg,
            };
            let encoded = encode(&env);
            assert_eq!(
                encoded_len(&env),
                encoded.len(),
                "encoded_len mismatch for {env:?}"
            );
            round_trip(env);
        }
    }

    /// Property: zero-copy decode off a shared buffer is observably
    /// identical to owned decode, for every variant. Also pins that the
    /// shared path really is zero-copy: decoded byte values are views
    /// into the frame, not copies.
    #[test]
    fn shared_decode_is_equivalent_to_owned_decode() {
        for msg in all_variants() {
            let env = envelope(msg);
            let encoded = encode(&env);
            // Embed the payload at a nonzero offset inside a larger
            // buffer, as a pooled frame would be.
            let mut framed = vec![0xEE; 7];
            framed.extend_from_slice(&encoded);
            framed.extend_from_slice(&[0xEE; 3]);
            let arc: Arc<[u8]> = Arc::from(framed.into_boxed_slice());
            let owned = decode(&encoded).expect("owned decode");
            let shared = decode_shared(&arc, 7, encoded.len()).expect("shared decode");
            assert_eq!(
                format!("{owned:?}"),
                format!("{shared:?}"),
                "owned and shared decode disagree"
            );
            if let Msg::Submit { spec, .. } = &shared.msg {
                for (_, op) in &spec.writes {
                    if let WriteOp::Set(Value::Bytes(b)) = op {
                        assert!(b.is_view(), "shared decode must not copy byte values");
                    }
                }
            }
        }
    }

    /// Property: shared ≡ owned decode under randomized payloads —
    /// variable-length keys, blobs and collection sizes, including empty
    /// ones.
    #[test]
    fn shared_decode_matches_owned_for_random_payloads() {
        for trial in 0..200u64 {
            let mut rng = DetRng::new(0xC0DE_C0DE ^ trial);
            let key_of = |r: &mut DetRng| {
                let len = (r.next_u64() % 40) as usize;
                Key::new("q".repeat(len.max(1)))
            };
            let value_of = |r: &mut DetRng| match r.next_u64() % 4 {
                0 => Value::None,
                1 => Value::Int(r.next_u64() as i64),
                2 => Value::bytes(&b""[..]),
                _ => {
                    let len = (r.next_u64() % 300) as usize;
                    let body: Vec<u8> = (0..len).map(|i| (i as u8) ^ 0x5A).collect();
                    Value::bytes(body)
                }
            };
            let msg = match trial % 3 {
                0 => Msg::Apply {
                    key: key_of(&mut rng),
                    version: rng.next_u64(),
                    value: value_of(&mut rng),
                    txn: TxnId::new(1, rng.next_u64()),
                },
                1 => Msg::ReadResp {
                    txn: TxnId::new(2, rng.next_u64()),
                    results: (0..(rng.next_u64() % 6))
                        .map(|_| KeyRead {
                            key: key_of(&mut rng),
                            version: rng.next_u64(),
                            value: value_of(&mut rng),
                            pending: (rng.next_u64() % 10) as usize,
                        })
                        .collect(),
                },
                _ => Msg::Submit {
                    spec: TxnSpec {
                        reads: (0..(rng.next_u64() % 8))
                            .map(|_| key_of(&mut rng))
                            .collect(),
                        writes: (0..(rng.next_u64() % 8))
                            .map(|_| (key_of(&mut rng), WriteOp::Set(value_of(&mut rng))))
                            .collect(),
                        read_level: ReadLevel::Quorum,
                    },
                    reply_to: ActorId(rng.next_u64() as u32),
                    tag: rng.next_u64(),
                },
            };
            let env = Envelope {
                from: ActorId(rng.next_u64() as u32),
                to: ActorId(rng.next_u64() as u32),
                msg,
            };
            let encoded = encode(&env);
            let arc: Arc<[u8]> = Arc::from(encoded.clone().into_boxed_slice());
            let owned = decode(&encoded).expect("owned decode");
            let shared = decode_shared(&arc, 0, encoded.len()).expect("shared decode");
            assert_eq!(format!("{owned:?}"), format!("{shared:?}"));
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
        // `first`'s key/value views pin the first chunk, so the second
        // burst must go into a distinct one.
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
    #[test]
    fn frame_reader_evicts_pinned_chunks_when_the_list_is_full() {
        let mut frame = Vec::new();
        encode_frame_into(
            &envelope(Msg::DropPending {
                key: Key::new("k"),
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
    fn round_trips_every_reject_reason() {
        let reasons = vec![
            RejectReason::StaleVersion {
                expected: 1,
                actual: 2,
            },
            RejectReason::PendingConflict {
                holder: TxnId::new(3, 9),
            },
            RejectReason::BoundViolation,
            RejectReason::TypeMismatch,
            RejectReason::DuplicateTxn,
        ];
        for reason in reasons {
            round_trip(envelope(Msg::Vote {
                txn: TxnId::new(0, 1),
                key: Key::new("k"),
                site: SiteId(0),
                accept: false,
                reason: Some(reason),
                round: 0,
            }));
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
