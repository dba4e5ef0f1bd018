//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! This workspace builds without network access, so instead of the crates.io
//! `bytes` it uses this shim, which exposes exactly the API surface the
//! workspace needs with the same semantics:
//!
//! * [`Bytes`] — an immutable, cheaply cloneable byte buffer. Clones share
//!   the backing allocation (`Arc`), matching upstream's zero-copy clone
//!   guarantee that Hermes' early value propagation relies on.
//! * [`BytesMut`] — a growable buffer that [freezes](BytesMut::freeze) into
//!   [`Bytes`].
//! * [`BufMut`] — the subset of the buffer-writing trait used by the codec
//!   and batching layers (little-endian puts and raw slices).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer; clones are shallow.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[inline]
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wraps a static slice without copying.
    #[inline]
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    /// Copies `data` into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Repr::Shared(Arc::from(data)))
    }

    /// The buffer contents as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Repr::Shared(Arc::from(v)))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
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

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with at least `capacity` bytes preallocated.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Empties the buffer, keeping its allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Converts the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.0.len())
            .finish()
    }
}

/// The subset of the upstream `BufMut` trait used by this workspace:
/// appending fixed-width little-endian integers and raw slices.
pub trait BufMut {
    /// Appends a single byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a raw slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(1);
        m.put_u16_le(0x0203);
        m.put_u32_le(7);
        m.put_u64_le(9);
        m.put_slice(b"xy");
        assert_eq!(m.len(), 1 + 2 + 4 + 8 + 2);
        let frozen = m.freeze();
        assert_eq!(&frozen[..3], &[1, 3, 2]);
    }

    #[test]
    fn static_and_copied_compare_equal() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
        assert!(Bytes::new().is_empty());
    }
}
