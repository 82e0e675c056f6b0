//! The `tfb-artifact/v1` byte codec: little-endian, length-prefixed,
//! no external dependencies.
//!
//! Layout (all integers little-endian):
//!
//! | field            | encoding                                   |
//! |------------------|--------------------------------------------|
//! | magic            | 4 bytes `TFBA`                             |
//! | schema version   | `u32` (currently 1)                        |
//! | method id        | string: `u64` length + UTF-8 bytes         |
//! | config hash      | string                                     |
//! | norm scheme      | string (`ZScore` / `MinMax` / `None`)      |
//! | lookback         | `u64`                                      |
//! | horizon          | `u64`                                      |
//! | dim              | `u64`                                      |
//! | norm offset      | vector: `u64` length + `f64` values        |
//! | norm scale       | vector                                     |
//! | payload tag      | `u32` (0 = naive, 1 = linear, 2 = deep)    |
//! | payload          | tag-specific (see `lib.rs`)                |
//! | checksum         | `u64` FNV-1a over every preceding byte     |
//!
//! Tensors encode as `rows: u64, cols: u64, rows*cols f64 values`.
//! Every read is bounds-checked and length-sanity-checked, so a
//! truncated or corrupt file surfaces as a structured decode error —
//! never a panic or an unbounded allocation.

/// File magic: the first four bytes of every artifact.
pub const MAGIC: [u8; 4] = *b"TFBA";

/// Current schema version.
pub const SCHEMA_VERSION: u32 = 1;

/// Human-readable schema name (`tfb-artifact/v1` together with
/// [`SCHEMA_VERSION`]).
pub const SCHEMA_NAME: &str = "tfb-artifact";

/// Upper bound on an encoded string length (method ids, hashes, labels).
const MAX_STRING_LEN: u64 = 4096;

/// Upper bound on a single tensor's element count (~2 GiB of f64).
pub(crate) const MAX_TENSOR_LEN: u64 = 1 << 28;

/// 64-bit FNV-1a over a byte slice — the artifact's integrity trailer.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only encoder for the artifact body.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_string(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` vector.
    pub fn put_vec(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Appends a shaped tensor (`rows`, `cols`, `rows*cols` values).
    pub fn put_tensor(&mut self, data: &[f64], rows: usize, cols: usize) {
        debug_assert_eq!(data.len(), rows * cols);
        self.put_u64(rows as u64);
        self.put_u64(cols as u64);
        for &x in data {
            self.put_f64(x);
        }
    }

    /// Appends the FNV-1a trailer and returns the finished byte buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.put_u64(sum);
        self.buf
    }
}

/// Bounds-checked cursor over an artifact's bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verifies the FNV-1a trailer and returns a cursor over the body
    /// (trailer excluded).
    pub fn checked(bytes: &'a [u8]) -> Result<Reader<'a>, String> {
        if bytes.len() < 8 {
            return Err(format!("artifact too short: {} bytes", bytes.len()));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let actual = fnv1a64(body);
        if stored != actual {
            return Err(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ));
        }
        Ok(Reader {
            bytes: body,
            pos: 0,
        })
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated artifact: {what} needs {n} bytes, {} left",
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads raw bytes.
    pub fn get_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        self.take(n, what)
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self, what: &str) -> Result<String, String> {
        let len = self.get_u64(what)?;
        if len > MAX_STRING_LEN {
            return Err(format!("{what}: string length {len} exceeds limit"));
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what}: invalid UTF-8"))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_vec(&mut self, what: &str) -> Result<Vec<f64>, String> {
        let len = self.get_u64(what)?;
        if len > MAX_TENSOR_LEN {
            return Err(format!("{what}: vector length {len} exceeds limit"));
        }
        let n = len as usize;
        if self.remaining() < n * 8 {
            return Err(format!(
                "truncated artifact: {what} declares {n} values, {} bytes left",
                self.remaining()
            ));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64(what)?);
        }
        Ok(out)
    }

    /// Reads a shaped tensor.
    pub fn get_tensor(&mut self, what: &str) -> Result<(Vec<f64>, usize, usize), String> {
        let rows = self.get_u64(what)?;
        let cols = self.get_u64(what)?;
        let len = rows.checked_mul(cols).filter(|&l| l <= MAX_TENSOR_LEN);
        let Some(len) = len else {
            return Err(format!("{what}: tensor shape {rows}x{cols} exceeds limit"));
        };
        let n = len as usize;
        if self.remaining() < n * 8 {
            return Err(format!(
                "truncated artifact: {what} declares {rows}x{cols} tensor, {} bytes left",
                self.remaining()
            ));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.get_f64(what)?);
        }
        Ok((data, rows as usize, cols as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u32(SCHEMA_VERSION);
        w.put_string("LR");
        w.put_u64(42);
        w.put_f64(-0.5);
        w.put_vec(&[1.0, 2.5]);
        w.put_tensor(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let bytes = w.finish();

        let mut r = Reader::checked(&bytes).unwrap();
        assert_eq!(r.get_bytes(4, "magic").unwrap(), MAGIC);
        assert_eq!(r.get_u32("version").unwrap(), SCHEMA_VERSION);
        assert_eq!(r.get_string("method").unwrap(), "LR");
        assert_eq!(r.get_u64("answer").unwrap(), 42);
        assert_eq!(r.get_f64("x").unwrap(), -0.5);
        assert_eq!(r.get_vec("v").unwrap(), vec![1.0, 2.5]);
        let (data, rows, cols) = r.get_tensor("t").unwrap();
        assert_eq!((rows, cols), (2, 3));
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn checksum_rejects_flipped_bit() {
        let mut w = Writer::new();
        w.put_string("hello");
        let mut bytes = w.finish();
        bytes[3] ^= 0x40;
        let err = Reader::checked(&bytes).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_reads_are_errors_not_panics() {
        let mut w = Writer::new();
        w.put_vec(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();
        // Drop the trailer and a value, then re-checksum so only the
        // structural truncation (not the trailer) trips.
        let body = &bytes[..bytes.len() - 16];
        let mut forged = body.to_vec();
        forged.extend_from_slice(&fnv1a64(body).to_le_bytes());
        let mut r = Reader::checked(&forged).unwrap();
        let err = r.get_vec("v").unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn huge_declared_length_is_an_error() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = Reader::checked(&bytes).unwrap();
        assert!(r.get_vec("v").is_err());
        let mut r2 = Reader::checked(&bytes).unwrap();
        assert!(r2.get_string("s").is_err());
    }
}
