//! The checked reader under every binary decoder in the workspace: the
//! `PDEC1`/`PDEC2` snapshot table and its sections, and the `pardec serve`
//! wire requests, responses and `STATS` bodies.
//!
//! A [`Reader`] is a cursor over a borrowed `&[u8]` with three promises:
//!
//! * a read past the end returns an `InvalidData` [`io::Error`], never a
//!   panic;
//! * an array read multiplies `count × width` with checked arithmetic and
//!   compares it with the bytes left **before** it allocates, so a hostile
//!   count field costs nothing;
//! * [`Reader::finish`] rejects trailing bytes, so a decoder that ends with
//!   it accepts exactly one length for each header.
//!
//! Encoders need no counterpart: they append `to_le_bytes()` to a `Vec<u8>`.
//! All integers are little-endian.

use std::io;

/// An `InvalidData` error carrying `msg` — what every decoder returns.
pub fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A checked little-endian read cursor over a byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes, borrowed.
    pub fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let left = self.bytes.len() - self.pos;
        if n > left {
            return Err(invalid_data(format!(
                "truncated: {n} bytes wanted, {left} left"
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const W: usize>(&mut self) -> io::Result<[u8; W]> {
        Ok(self.bytes(W)?.try_into().expect("bytes(W) is W long"))
    }

    /// One byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// One `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// One `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// One `u64` length or count field, as a `usize`.
    pub fn usize(&mut self) -> io::Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| invalid_data(format!("{v} does not fit in usize")))
    }

    /// The next `n` records of `width` bytes each, as a reader of their own.
    pub(crate) fn records(&mut self, n: usize, width: usize) -> io::Result<Reader<'a>> {
        let len = n
            .checked_mul(width)
            .ok_or_else(|| invalid_data(format!("{n} records of {width} bytes overflow")))?;
        Ok(Reader::new(self.bytes(len)?))
    }

    /// `n` fixed-width items, each decoded from its `W` bytes by `decode`.
    /// Allocates only after all `n × W` bytes are known to be present.
    pub fn items<const W: usize, T>(
        &mut self,
        n: usize,
        decode: impl FnMut([u8; W]) -> T,
    ) -> io::Result<Vec<T>> {
        let raw = self.records(n, W)?.rest();
        Ok(raw
            .chunks_exact(W)
            .map(|c| c.try_into().expect("chunks_exact(W) yields W bytes"))
            .map(decode)
            .collect())
    }

    /// `n` `u32`s.
    pub fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        self.items(n, u32::from_le_bytes)
    }

    /// `n` `u64`s.
    pub fn u64s(&mut self, n: usize) -> io::Result<Vec<u64>> {
        self.items(n, u64::from_le_bytes)
    }

    /// Everything not yet read (a trailing free-form payload).
    pub fn rest(self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Ends a decode: any byte left over is an error.
    pub fn finish(self) -> io::Result<()> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            extra => Err(invalid_data(format!("{extra} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_and_tracks_position() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.position(), 13);
        assert_eq!(r.rest(), b"tail");
    }

    #[test]
    fn short_reads_are_errors() {
        for len in 0..8 {
            let buf = vec![0u8; len];
            assert!(Reader::new(&buf).u64().is_err(), "{len} bytes");
        }
        assert!(Reader::new(&[1, 2, 3]).u32().is_err());
        assert!(Reader::new(&[]).u8().is_err());
        assert!(Reader::new(&[0; 4]).bytes(5).is_err());
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        let buf = [0u8; 16];
        let mut r = Reader::new(&buf);
        assert!(r.u64s(usize::MAX).is_err());
        assert!(r.u32s(usize::MAX / 2).is_err());
        assert!(r.records(usize::MAX, usize::MAX).is_err());
        assert!(r.u32s(5).is_err());
        // A failed read consumes nothing.
        assert_eq!(r.u32s(4).unwrap(), [0; 4]);
        r.finish().unwrap();
    }

    #[test]
    fn arrays_and_records_round_trip() {
        let mut buf = Vec::new();
        for v in [1u32, 2, 3] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for v in [u64::MAX, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32s(3).unwrap(), [1, 2, 3]);
        let mut rec = r.records(2, 8).unwrap();
        assert_eq!(rec.u64().unwrap(), u64::MAX);
        assert_eq!(rec.u64().unwrap(), 0);
        rec.finish().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[0, 0, 0, 0, 9]);
        r.u32().unwrap();
        assert!(r.clone().finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn usize_reads_a_u64_count() {
        assert_eq!(Reader::new(&5u64.to_le_bytes()).usize().unwrap(), 5);
        assert!(Reader::new(&[1, 2]).usize().is_err());
    }
}
