//! Core identifier and value types shared across the storage and protocol
//! layers.
//!
//! A [`Key`] is a value: one of up to 23 bytes lives inline, so making,
//! cloning or decoding one allocates nothing, and no key ever refers to a
//! receive buffer. [`Bytes`] is shared: a byte value decoded off the wire is
//! a view into the buffer it arrived in, and is detached where it comes to
//! rest.

use std::num::NonZeroU8;
use std::sync::Arc;

/// Immutable, cheaply cloneable byte string: a `(start, len)` view into a
/// shared `Arc<[u8]>` buffer. Replaces the external `bytes` crate: values
/// are written once and shared thereafter, so reference-counted sharing is
/// all the protocol needs — and because a view needs no allocation of its
/// own, the wire decoder can carve every payload field of a frame out of
/// the receive buffer the frame arrived in (zero-copy decode) instead of
/// copying each field into a fresh allocation.
///
/// That receive buffer is a *burst chunk*: one 16 KiB buffer shared by
/// every frame one socket `read` returned, recycled once the last view
/// into it drops. A view is therefore for the life of a message, not for
/// keeping: state that outlives the drive that decoded it stores
/// [`Bytes::detached`] instead, or one 20-byte value pins a whole chunk.
/// (Application code never sees a view: the client stores every value it
/// reads through [`Value::own_at_rest`], so a transaction record that a
/// tcp front end decoded holds its own bytes.)
///
/// Equality, ordering and hashing are on the viewed *contents*, so an
/// owned value and a zero-copy view of the same bytes are
/// indistinguishable.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    start: u32,
    len: u32,
}

impl Bytes {
    /// Copy a slice into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            buf: Arc::from(data),
            start: 0,
            len: data.len() as u32,
        }
    }

    /// A zero-copy view of `buf[start..start + len]`. The buffer stays
    /// alive (and its bytes immutable) as long as any view does.
    ///
    /// # Panics
    /// If the range is out of bounds or exceeds `u32` addressing (wire
    /// frames are far smaller).
    pub fn shared(buf: Arc<[u8]>, start: usize, len: usize) -> Self {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= buf.len()),
            "byte view out of bounds"
        );
        assert!(start <= u32::MAX as usize && len <= u32::MAX as usize);
        Bytes {
            buf,
            start: start as u32,
            len: len as u32,
        }
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        // In bounds: every constructor sets the range inside `buf` (`shared`
        // asserts it), and `Arc<[u8]>` contents never change or shrink.
        // check:allow(panic)
        &self.buf[self.start as usize..(self.start + self.len) as usize]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if this value is a view into a larger shared buffer (i.e. it
    /// keeps more bytes alive than it exposes). Introspection for tests
    /// and pool accounting.
    pub fn is_view(&self) -> bool {
        (self.len as usize) != self.buf.len()
    }

    /// The same bytes, owning exactly their own storage: what state that
    /// is kept at rest stores. An owned value shares its buffer (a
    /// refcount bump, no allocation); a view copies its bytes out once, so
    /// the buffer it was carved from can be recycled.
    pub fn detached(&self) -> Self {
        if self.is_view() {
            Bytes::copy_from_slice(self.as_slice())
        } else {
            self.clone()
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::copy_from_slice(&[])
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Bytes").field(&self.as_slice()).finish()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len() as u32;
        Bytes {
            buf: Arc::from(v.into_boxed_slice()),
            start: 0,
            len,
        }
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

/// Longest key held inline: with its length byte it fills the 24 bytes a
/// key occupies anyway.
const INLINE_CAP: usize = 23;

/// A record key: a short string like `"event:42:stock"`. Inside a store the
/// hot path works on interned [`KeyId`]s; this form is for the wire and API
/// boundary.
///
/// A key is a value. One of up to 23 bytes is held inline, in the 24 bytes
/// of the key itself, so building, cloning, decoding and interning it
/// allocates nothing. Every key the workloads use fits: `event:9999:stock`
/// is 16 bytes, `order:2:399999` is 14. A longer key is an `Arc<str>`, so
/// cloning it is a refcount bump. The trade: decoding a key longer than 23
/// bytes off the wire costs one allocation. Wire keys are never views into
/// the receive buffer, so no key pins a burst chunk.
///
/// Equality, ordering and hashing are on the bytes, exactly as `str`'s, so
/// an inline and a heap key of the same string are indistinguishable; which
/// one a string becomes depends on its length alone.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline(Inline),
    Heap(Arc<str>),
}

/// The bytes of a key of at most [`INLINE_CAP`] bytes. Only whole `str`s
/// are ever copied in, so the bytes are UTF-8.
#[derive(Clone)]
struct Inline {
    /// The length plus one: zero is the niche that tells [`KeyRepr::Heap`]
    /// apart, which keeps a key at 24 bytes.
    len: NonZeroU8,
    bytes: [u8; INLINE_CAP],
}

impl Inline {
    const EMPTY: Inline = Inline {
        len: NonZeroU8::MIN,
        bytes: [0; INLINE_CAP],
    };

    /// `s` inline, if it fits.
    fn new(s: &str) -> Option<Self> {
        let mut inline = Inline::EMPTY;
        inline.push(s).then_some(inline)
    }

    /// Append `s` if it fits; false (and nothing appended) if not.
    fn push(&mut self, s: &str) -> bool {
        let at = usize::from(self.len.get() - 1);
        let end = at + s.len();
        let len = u8::try_from(end + 1).ok().and_then(NonZeroU8::new);
        let (Some(room), Some(len)) = (self.bytes.get_mut(at..end), len) else {
            return false;
        };
        room.copy_from_slice(s.as_bytes());
        self.len = len;
        true
    }

    fn as_bytes(&self) -> &[u8] {
        let len = usize::from(self.len.get() - 1);
        self.bytes.get(..len).unwrap_or_default()
    }

    fn as_str(&self) -> &str {
        // UTF-8: `push` copies in whole `str`s only.
        // check:allow(panic)
        std::str::from_utf8(self.as_bytes()).expect("inline key bytes are UTF-8")
    }
}

/// Where [`Key::from_fmt`] writes: the inline buffer until a piece no longer
/// fits, then a `String`.
enum KeyBuf {
    Inline(Inline),
    Spilled(String),
}

impl std::fmt::Write for KeyBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let spilled = match self {
            KeyBuf::Spilled(spilled) => {
                spilled.push_str(s);
                return Ok(());
            }
            KeyBuf::Inline(inline) => {
                if inline.push(s) {
                    return Ok(());
                }
                [inline.as_str(), s].concat()
            }
        };
        *self = KeyBuf::Spilled(spilled);
        Ok(())
    }
}

impl Key {
    /// Build a key from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Key::from(s.as_ref())
    }

    /// Build a key from format arguments, written straight into the key:
    /// `Key::from_fmt(format_args!("event:{n}:stock"))` allocates nothing
    /// for a key of up to 23 bytes, and moves to the heap only past that.
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Self {
        if let Some(s) = args.as_str() {
            return Key::from(s);
        }
        let mut buf = KeyBuf::Inline(Inline::EMPTY);
        // Writing into memory cannot fail.
        let _ = std::fmt::write(&mut buf, args);
        Key(match buf {
            KeyBuf::Inline(inline) => KeyRepr::Inline(inline),
            KeyBuf::Spilled(s) => KeyRepr::Heap(Arc::from(s)),
        })
    }

    /// The key's bytes: what equality, ordering, hashing, routing and the
    /// wire use, with no UTF-8 check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline(inline) => inline.as_bytes(),
            KeyRepr::Heap(s) => s.as_bytes(),
        }
    }

    /// The key as a string slice. An inline key checks its bytes are UTF-8
    /// on every call, so hot paths use [`Key::as_bytes`].
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline(inline) => inline.as_str(),
            KeyRepr::Heap(s) => s,
        }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Contents only: the representation is not part of a key's value.
        f.debug_tuple("Key").field(&self.as_str()).finish()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // What `str`'s `Hash` feeds a hasher: the bytes, then 0xff.
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(match Inline::new(s) {
            Some(inline) => KeyRepr::Inline(inline),
            None => KeyRepr::Heap(Arc::from(s)),
        })
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::from(s.as_str())
    }
}

/// A store-local dense handle for an interned [`Key`]: index into the
/// owning [`KeyInterner`](crate::KeyInterner). Resolving a key to its id
/// costs one hash at the message boundary; every subsequent store
/// operation on the id is a plain vector index — no string hashing, no
/// comparisons, no cloning.
///
/// Ids are meaningful only within the interner (and thus the store/replica)
/// that issued them: they never cross the wire and are never compared
/// across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub u32);

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A stored value. Integers get a first-class representation because
/// commutative (demarcation-style) updates operate on them; everything else
/// is opaque bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Absent / deleted.
    None,
    /// A 64-bit integer, the domain of commutative `Add` operations.
    Int(i64),
    /// Opaque application bytes.
    Bytes(Bytes),
}

impl Value {
    /// Interpret as an integer; `None` counts as 0, bytes as no integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::None => Some(0),
            Value::Bytes(_) => None,
        }
    }

    /// Convenience constructor for byte values.
    pub fn bytes(b: impl Into<Bytes>) -> Self {
        Value::Bytes(b.into())
    }

    /// True if this value is `None` (absent).
    pub fn is_none(&self) -> bool {
        matches!(self, Value::None)
    }

    /// Own at rest: a byte value about to be kept — in a record, the log,
    /// or an application's transaction record — lets go of the receive
    /// buffer it may have been decoded out of (see [`Bytes::detached`]);
    /// owned bytes keep their buffer. Keys need no such step: a key is
    /// never a view.
    pub fn own_at_rest(&mut self) {
        if let Value::Bytes(bytes) = self {
            *bytes = bytes.detached();
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Bytes(Bytes::copy_from_slice(v.as_bytes()))
    }
}

/// A globally unique transaction identifier: the originating site plus a
/// per-site sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Site (data center) where the transaction originated.
    pub site: u8,
    /// Per-site sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Build a transaction id.
    pub fn new(site: u8, seq: u64) -> Self {
        TxnId { site, seq }
    }
}

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}.{}", self.site, self.seq)
    }
}

/// A committed record version number. Version 0 is "never written".
pub type VersionNo = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_conversions() {
        let k: Key = "a".into();
        assert_eq!(k, Key::new("a"));
        assert_eq!(k.as_str(), "a");
        assert_eq!(k.to_string(), "a");
    }

    /// A string of `len` bytes whose last character is multi-byte, so a
    /// cut at any other length is not UTF-8.
    fn ending_in_two_byte_char(len: usize) -> String {
        "k".repeat(len - 2) + "é"
    }

    #[test]
    fn a_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn keys_of_every_length_keep_their_string() {
        let mut strings: Vec<String> = [0, 1, 22, 23, 24, 200]
            .iter()
            .map(|&n| "x".repeat(n))
            .collect();
        // A two-byte character ending at byte 22 or 23 (inline), and one
        // straddling the edge, bytes 23 and 24: the key goes to the heap
        // whole, not cut inside the character.
        strings.extend([22, 23, 24].map(ending_in_two_byte_char));
        for s in &strings {
            let key = Key::new(s);
            assert_eq!(key.as_str(), s);
            assert_eq!(key.as_bytes(), s.as_bytes());
            assert_eq!(key.to_string(), *s);
            assert_eq!(format!("{key:?}"), format!("Key({s:?})"));
            let inline = matches!(key.0, KeyRepr::Inline(_));
            assert_eq!(inline, s.len() <= INLINE_CAP, "{} bytes", s.len());
        }
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(value)
    }

    /// Every constructor gives the same key, which compares and hashes as
    /// its string does, on either side of the inline/heap edge.
    #[test]
    fn every_constructor_agrees_and_keys_order_and_hash_as_strings() {
        let strings = [
            String::new(),
            "a".into(),
            "order:2:399999".into(),
            "x".repeat(22),
            "x".repeat(23),
            "x".repeat(24),
            "y".repeat(200),
            ending_in_two_byte_char(23),
            ending_in_two_byte_char(24),
        ];
        for s in &strings {
            let (head, tail) = s.split_at(s.len() / 2);
            let made = [
                Key::from(s.as_str()),
                Key::from(s.clone()),
                Key::new(s),
                Key::new(s.clone()),
                Key::from_fmt(format_args!("{s}")),
                Key::from_fmt(format_args!("{head}{tail}")),
            ];
            for key in &made {
                assert_eq!(key, &made[0]);
                assert_eq!(key.as_str(), s);
                assert_eq!(hash_of(key), hash_of(&s.as_str()), "{s:?}");
            }
            for t in &strings {
                assert_eq!(Key::new(s).cmp(&Key::new(t)), s.cmp(t), "{s:?} vs {t:?}");
                assert_eq!(Key::new(s) == Key::new(t), s == t);
            }
        }
        // Formatting spills to the heap mid-way, and a literal is taken as is.
        let long = Key::from_fmt(format_args!("{}:{}", "p".repeat(20), 123_456));
        assert_eq!(long.as_str(), format!("{}:123456", "p".repeat(20)));
        assert_eq!(Key::from_fmt(format_args!("event:1")), Key::new("event:1"));
    }

    #[test]
    fn value_as_int() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::None.as_int(), Some(0));
        assert_eq!(Value::from("x").as_int(), None);
        assert!(Value::None.is_none());
        assert!(!Value::Int(0).is_none());
    }

    #[test]
    fn txn_id_orders_by_site_then_seq() {
        assert!(TxnId::new(0, 5) < TxnId::new(1, 0));
        assert!(TxnId::new(1, 1) < TxnId::new(1, 2));
        assert_eq!(TxnId::new(2, 3).to_string(), "t2.3");
    }
}
