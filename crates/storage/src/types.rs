//! Core identifier and value types shared across the storage and protocol
//! layers.

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
/// (Application code never sees a view today: the one application front
/// end, `LivePlanet`, runs on the channel cluster, which decodes nothing.)
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

/// A record key. Keys are short strings like `"stock:42"`, shared so
/// cloning one (message fan-out, WAL records) is a refcount bump rather
/// than a heap copy. Inside a store the hot path goes further and works on
/// interned [`KeyId`]s; this form is for the wire and API boundary.
///
/// Two representations share the type: an owned `Arc<str>` (the
/// constructor path) and a zero-copy view into a shared byte buffer (the
/// wire-decode path, UTF-8 validated once at construction). Equality,
/// ordering and hashing are on the string contents, so the two are
/// indistinguishable — an interner lookup keyed by an owned key finds a
/// wire-decoded view of the same key and vice versa.
///
/// As with [`Bytes`], a view is into a burst chunk and must not be kept at
/// rest: whatever outlives the message (the interner, the log) stores
/// [`Key::detached`].
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Owned(Arc<str>),
    Shared {
        buf: Arc<[u8]>,
        start: u32,
        len: u32,
    },
}

impl Key {
    /// Build a key from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        Key(KeyRepr::Owned(Arc::from(s.into())))
    }

    /// A zero-copy key view of `buf[start..start + len]`. Returns `None`
    /// if the range is out of bounds or not valid UTF-8 (validated here,
    /// once, so `as_str` never re-checks failure paths at use sites).
    pub fn shared(buf: Arc<[u8]>, start: usize, len: usize) -> Option<Self> {
        let end = start.checked_add(len)?;
        if len > u32::MAX as usize || start > u32::MAX as usize {
            return None;
        }
        std::str::from_utf8(buf.get(start..end)?).ok()?;
        Some(Key(KeyRepr::Shared {
            buf,
            start: start as u32,
            len: len as u32,
        }))
    }

    /// The same key, owning exactly its own storage: an owned key shares
    /// its `Arc` (no allocation), a view copies its string out once and
    /// lets go of the buffer it was carved from.
    pub fn detached(&self) -> Self {
        match &self.0 {
            KeyRepr::Owned(_) => self.clone(),
            KeyRepr::Shared { .. } => Key::from(self.as_str()),
        }
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Owned(s) => s,
            KeyRepr::Shared { buf, start, len } => {
                // In bounds: `shared` checked the range at construction and
                // `Arc<[u8]>` contents never change or shrink.
                // check:allow(panic)
                let bytes = &buf[*start as usize..(*start + *len) as usize];
                // UTF-8 validated in `shared`, once, for the same reason.
                // check:allow(panic)
                std::str::from_utf8(bytes).expect("key validated at construction")
            }
        }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Contents only: an owned key and a view of the same string are
        // semantically identical, so they print identically too.
        f.debug_tuple("Key").field(&self.as_str()).finish()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
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
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(KeyRepr::Owned(Arc::from(s)))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(KeyRepr::Owned(Arc::from(s)))
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

    #[test]
    fn detached_shares_an_owned_value_and_copies_a_view_once() {
        // Owned: the same allocation, so nothing was allocated.
        let key = Key::new("stock:42");
        assert!(std::ptr::eq(key.as_str(), key.detached().as_str()));
        let bytes = Bytes::from(&b"payload"[..]);
        assert!(std::ptr::eq(bytes.as_slice(), bytes.detached().as_slice()));

        // A view: equal contents, and the buffer is let go of.
        let buf: Arc<[u8]> = Arc::from(&b"..stock:42payload.."[..]);
        let key_view = Key::shared(buf.clone(), 2, 8).expect("valid utf-8");
        let bytes_view = Bytes::shared(buf.clone(), 10, 7);
        let (key_owned, bytes_owned) = (key_view.detached(), bytes_view.detached());
        assert_eq!(key_owned, key);
        assert_eq!(bytes_owned, bytes);
        assert!(!bytes_owned.is_view());
        drop((key_view, bytes_view));
        assert_eq!(Arc::strong_count(&buf), 1, "detached values pin nothing");
        // Detaching what is already detached is again a refcount bump.
        assert!(std::ptr::eq(
            key_owned.as_str(),
            key_owned.detached().as_str()
        ));
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
