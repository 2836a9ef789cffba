//! A minimal cheaply-cloneable immutable byte buffer.
//!
//! Frames are cloned at every tap, mirror port and retransmission, so
//! payloads must be reference-counted rather than deep-copied. The
//! workspace used to pull the `bytes` crate for this; a hermetic,
//! offline-buildable workspace only needs this small subset: an
//! `Arc<[u8]>` with slice ergonomics. Construction from a `Vec<u8>` or
//! slice copies once; every subsequent clone is a pointer bump.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply-cloneable contiguous byte buffer.
///
/// Dereferences to `&[u8]`, so all slice methods (`len`, `iter`,
/// indexing, `to_vec`, ...) apply directly.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// A new empty buffer. Every empty buffer shares one process-wide
    /// allocation, so after the first call this never allocates and a
    /// zero-length payload costs a refcount bump.
    pub fn new() -> Bytes {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Bytes(Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..]))))
    }

    /// Buffer backed by a static slice (copied once into the Arc; the
    /// name mirrors `bytes::Bytes::from_static` for the call sites).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes(Arc::from(data))
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Mutable access when this is the sole reference to the buffer.
    ///
    /// Returns `None` if any clone is alive, preserving the immutable
    /// sharing contract. Lets hot paths (e.g. in-flight corruption)
    /// flip bytes in place instead of copying the whole payload.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes(Arc::from(s))
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Bytes {
        Bytes(Arc::from(&a[..]))
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == **other
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == **other
    }
}

/// Most buffers a [`BytesPool`] parks per payload length before new
/// requests fall back to plain allocation.
const MAX_POOLED_PER_LEN: usize = 1024;

/// Slots probed per request before giving up and allocating fresh.
/// When a long-lived observer (a tap, a capture) pins every parked
/// buffer, an unbounded probe would rescan the whole class on every
/// take — O(class size) atomic loads per frame. Eight probes cover the
/// recycling steady state (a handful of buffers in flight) while
/// keeping the pinned-pool worst case a small constant.
const PROBE_LIMIT: usize = 8;

/// Free-list recycler for frame payload buffers.
///
/// Every frame a traffic source emits used to allocate a fresh
/// `Vec<u8>` plus an `Arc` header; at campus scale that is millions of
/// allocator round-trips inside the measured event loop. The pool
/// instead parks one clone of each buffer it hands out and recycles a
/// buffer once its `Arc` strong count drops back to 1 — i.e. every
/// frame, tap capture and pending event that referenced it has been
/// dropped. Shared buffers are never written: a recycled slot is
/// reinitialized only while the pool holds the sole reference, so the
/// copy-on-write contract of [`Bytes`] is preserved by construction.
///
/// Buffers are grouped by exact payload length (scenarios use a handful
/// of distinct frame sizes) in a `BTreeMap`, keeping iteration order —
/// and therefore simulation behavior — deterministic. Each length class
/// probes round-robin from a cursor and grows up to
/// [`MAX_POOLED_PER_LEN`] slots; beyond that, requests degrade to plain
/// one-off allocations rather than growing without bound.
#[derive(Debug, Default)]
pub struct BytesPool {
    classes: std::collections::BTreeMap<usize, PoolClass>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Default)]
struct PoolClass {
    bufs: Vec<Arc<[u8]>>,
    cursor: usize,
}

impl BytesPool {
    /// An empty pool; classes appear on first use.
    pub fn new() -> BytesPool {
        BytesPool::default()
    }

    /// A buffer of exactly `len` bytes, contents written by `init`.
    ///
    /// `init` always receives the full `len`-byte slice and must
    /// initialize all of it — recycled buffers carry whatever the
    /// previous user wrote.
    pub fn take_with(&mut self, len: usize, init: impl FnOnce(&mut [u8])) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let class = self.classes.entry(len).or_default();
        // Round-robin probe for a slot nobody references but us.
        let n = class.bufs.len();
        for step in 0..n.min(PROBE_LIMIT) {
            let i = (class.cursor + step) % n;
            if Arc::strong_count(&class.bufs[i]) == 1 {
                // steelcheck: allow(unwrap-in-lib): strong_count == 1 above proves unique ownership
                let slot = Arc::get_mut(&mut class.bufs[i]).expect("sole pool reference");
                init(slot);
                class.cursor = (i + 1) % n;
                self.hits += 1;
                return Bytes(Arc::clone(&class.bufs[i]));
            }
        }
        self.misses += 1;
        let mut fresh = vec![0u8; len];
        init(&mut fresh);
        let arc: Arc<[u8]> = Arc::from(fresh);
        if class.bufs.len() < MAX_POOLED_PER_LEN {
            class.bufs.push(Arc::clone(&arc));
        }
        // Advance past the probed window so consecutive misses do not
        // re-test the same pinned slots.
        class.cursor = if n == 0 { 0 } else { (class.cursor + PROBE_LIMIT) % n };
        Bytes(arc)
    }

    /// A zero-filled buffer of exactly `len` bytes — the common case
    /// for synthetic traffic payloads.
    pub fn take_zeroed(&mut self, len: usize) -> Bytes {
        self.take_with(len, |b| b.fill(0))
    }

    /// Buffers recycled from the free list.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that had to allocate (cold start or all slots busy).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total buffers currently parked across all length classes.
    pub fn pooled(&self) -> usize {
        self.classes.values().map(|c| c.bufs.len()).sum()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            // Matches bytes::Bytes's readable escape style.
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_deref() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::from_static(b"pong").len(), 4);
        assert_eq!(Bytes::from(&[9u8, 8][..]), Bytes::from(vec![9u8, 8]));
    }

    #[test]
    fn empty_buffers_share_storage() {
        let a = Bytes::new();
        let b = Bytes::new();
        assert!(Arc::ptr_eq(&a.0, &b.0), "Bytes::new() must not allocate per call");
        assert!(Arc::ptr_eq(&a.0, &Bytes::default().0));
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![7u8; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        // Same backing allocation, not a deep copy.
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
    }

    #[test]
    fn cross_type_equality() {
        let b = Bytes::from(vec![1u8, 2]);
        assert_eq!(b, vec![1u8, 2]);
        assert_eq!(b, &[1u8, 2][..]);
        assert_eq!(vec![1u8, 2], b);
    }

    #[test]
    fn get_mut_only_when_unshared() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        a.get_mut().expect("sole owner")[1] = 9;
        assert_eq!(a, &[1u8, 9, 3][..]);
        let b = a.clone();
        assert!(a.get_mut().is_none(), "shared buffer must stay immutable");
        drop(b);
        assert!(a.get_mut().is_some(), "unique again after clone drops");
    }

    #[test]
    fn debug_is_readable() {
        let b = Bytes::from(&b"ok\x01"[..]);
        assert_eq!(format!("{b:?}"), "b\"ok\\x01\"");
    }

    #[test]
    fn pool_recycles_dropped_buffers() {
        let mut pool = BytesPool::new();
        let a = pool.take_zeroed(46);
        assert_eq!(a.len(), 46);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);
        // `a` still alive: the parked clone is shared, so a second take
        // of the same length must allocate.
        let b = pool.take_zeroed(46);
        assert_eq!(pool.misses(), 2);
        drop(a);
        drop(b);
        // Both buffers returned; the next take recycles.
        let c = pool.take_zeroed(46);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.pooled(), 2);
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn pool_take_with_initializes_full_slice() {
        let mut pool = BytesPool::new();
        let a = pool.take_with(4, |b| b.copy_from_slice(&[1, 2, 3, 4]));
        assert_eq!(a, &[1u8, 2, 3, 4][..]);
        drop(a);
        // Recycled slot is dirty until init runs; take_with must hand
        // the caller a fully reinitialized view.
        let b = pool.take_with(4, |b| b.copy_from_slice(&[9, 9, 9, 9]));
        assert_eq!(b, &[9u8, 9, 9, 9][..]);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn pool_never_mutates_shared_buffers() {
        let mut pool = BytesPool::new();
        let a = pool.take_zeroed(8);
        let snapshot = a.clone();
        // Exhaust and refill: none of this may touch `a`'s contents.
        for _ in 0..16 {
            let _ = pool.take_with(8, |b| b.fill(0xEE));
        }
        assert_eq!(a, snapshot);
        assert!(a.iter().all(|&x| x == 0));
    }

    #[test]
    fn pool_zero_len_is_free() {
        let mut pool = BytesPool::new();
        let a = pool.take_zeroed(0);
        assert!(a.is_empty());
        assert_eq!(pool.pooled(), 0);
        assert_eq!(pool.misses(), 0);
    }

    #[test]
    fn pool_classes_are_per_length() {
        let mut pool = BytesPool::new();
        let a = pool.take_zeroed(46);
        let b = pool.take_zeroed(1500);
        assert_eq!(a.len(), 46);
        assert_eq!(b.len(), 1500);
        drop(a);
        // Freeing the 46B buffer must not satisfy a 1500B request.
        let _ = pool.take_zeroed(1500);
        assert_eq!(pool.misses(), 3);
        let _ = pool.take_zeroed(46);
        assert_eq!(pool.hits(), 1);
    }
}
