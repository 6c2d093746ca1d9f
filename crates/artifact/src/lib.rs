//! Versioned, checksummed binary containers for trained model state.
//!
//! Every persisted artifact in the workspace — acoustic models, supervector
//! scalers, SVM weight matrices, fusion backends, the supervector cache, and
//! whole serving bundles — shares one container layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "LREA"
//! 4       4     kind   (per-type tag, e.g. "GMM0")
//! 8       4     version (u32 LE, per-type)
//! 12      8     payload length (u64 LE)
//! 20      n     payload
//! 20+n    4     CRC-32 (IEEE) over bytes [0, 20+n)
//! ```
//!
//! Readers verify magic, kind, version, length and checksum before a single
//! payload byte is interpreted, so corruption detection lives here instead
//! of being re-implemented ad hoc at every call site. All multi-byte fields
//! are little-endian; floats travel as their IEEE-754 bit patterns, which
//! makes save→load round trips bit-identical by construction.
//!
//! Types opt in by implementing [`ArtifactWrite`] (and [`ArtifactRead`] for
//! loading); the provided methods handle sealing, opening, and file I/O.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Container magic: present in every artifact file, first four bytes.
pub const MAGIC: [u8; 4] = *b"LREA";

/// Fixed header size (magic + kind + version + payload length).
pub const HEADER_LEN: usize = 20;

/// CRC trailer size.
pub const TRAILER_LEN: usize = 4;

// ------------------------------------------------------------------ errors

/// Typed failure modes for artifact encoding/decoding. Corrupt or truncated
/// input always surfaces as an `Err`, never a panic.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The first four bytes are not [`MAGIC`] — not an artifact file.
    BadMagic,
    /// The container holds a different artifact type than requested.
    WrongKind { expected: [u8; 4], found: [u8; 4] },
    /// The artifact type matches but was written by an incompatible format
    /// revision.
    UnsupportedVersion { expected: u32, found: u32 },
    /// The CRC-32 trailer does not match the header + payload bytes.
    ChecksumMismatch,
    /// The byte stream ends before the declared structure does.
    Truncated,
    /// Well-formed container, but bytes remain after the payload was fully
    /// decoded — the file is not what the writer produced.
    TrailingBytes,
    /// A decoded value violates a structural invariant (impossible count,
    /// unknown enum tag, …). The message names the failed invariant.
    Corrupt(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic => write!(f, "not an artifact file (bad magic)"),
            ArtifactError::WrongKind { expected, found } => write!(
                f,
                "wrong artifact kind: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            ArtifactError::UnsupportedVersion { expected, found } => {
                write!(
                    f,
                    "unsupported artifact version {found} (expected {expected})"
                )
            }
            ArtifactError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::TrailingBytes => write!(f, "artifact has trailing bytes"),
            ArtifactError::Corrupt(what) => write!(f, "artifact corrupt: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

// ------------------------------------------------------------------- crc32

/// Slicing-by-16 tables for CRC-32 (IEEE 802.3, reflected polynomial
/// 0xEDB88320). `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the register contribution of byte `b` followed by
/// `k` zero bytes, so one step folds 16 input bytes with 16 independent
/// lookups.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of a byte slice, 16 bytes per step. The value is the
/// bytewise algorithm's for every input (`crc32_bytewise` in the tests is
/// that algorithm); only table lookups and shifts, so it cannot depend on
/// the target ISA.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.value()
}

/// CRC-32 fed a piece at a time: the bytes handed to [`Crc32::update`], in
/// any split, give [`crc32`] of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    /// The register, before the final inversion.
    reg: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32 { reg: 0xFFFF_FFFF }
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32::default()
    }

    /// Fold `bytes` in, 16 per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.reg;
        let mut blocks = bytes.chunks_exact(16);
        let t = &CRC_TABLES;
        for b in &mut blocks {
            // Byte `i` of the block still has `15 - i` bytes to travel, hence
            // table `15 - i`. The register overlaps only bytes 0..4, so the
            // other twelve lookups are folded first and only four lookups and
            // two levels of XOR sit between one step's register and the next.
            // (Written as one flat 16-way XOR, the AVX-512 build turned the
            // lookups into gathers and ran at a quarter of this speed.)
            let rest = t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
            let r = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
            c = rest
                ^ (t[15][r[0] as usize] ^ t[14][r[1] as usize])
                ^ (t[13][r[2] as usize] ^ t[12][r[3] as usize]);
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.reg = c;
    }

    /// The CRC-32 of everything fed so far.
    pub fn value(&self) -> u32 {
        self.reg ^ 0xFFFF_FFFF
    }
}

/// The identity of a sealed bundle, as serving handles, stage and commit
/// acks and lineage entries carry it: the container's CRC-32 trailer, the
/// CRC of every byte before it ([`SealedId::crc`]). Two containers that
/// differ in any byte before the trailer have different identities (up to
/// a CRC-32 collision). Every place that names or compares a bundle's
/// identity calls this one function. It reads the trailer and checks
/// nothing: a damaged container keeps its trailer, so damage is caught by
/// the container's own check ([`open`], [`check_stream`]). A slice too
/// short to hold a trailer has identity 0.
pub fn bundle_checksum(sealed: &[u8]) -> u32 {
    match sealed.len().checked_sub(TRAILER_LEN) {
        Some(at) => u32::from_le_bytes(sealed[at..].try_into().unwrap()),
        None => 0,
    }
}

/// The bytewise loop `crc32` replaced: one table lookup per byte.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------------ writer

/// Append-only payload encoder. All methods are infallible; the buffer grows
/// as needed.
#[derive(Default)]
pub struct ArtifactWriter {
    buf: Vec<u8>,
}

impl ArtifactWriter {
    pub fn new() -> ArtifactWriter {
        ArtifactWriter::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern — round trips are bit-identical, NaNs included.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed slice of fixed-width little-endian values, reserved
    /// once.
    fn put_le_slice<T: Copy, const N: usize>(&mut self, v: &[T], to_le: fn(T) -> [u8; N]) {
        self.put_u32(v.len() as u32);
        self.buf.reserve(v.len() * N);
        for &x in v {
            self.buf.extend_from_slice(&to_le(x));
        }
    }

    /// Length-prefixed `f32` slice (bit patterns).
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_le_slice(v, f32::to_le_bytes);
    }

    /// Length-prefixed `f64` slice (bit patterns).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_le_slice(v, f64::to_le_bytes);
    }

    /// Length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_le_slice(v, u32::to_le_bytes);
    }

    /// Length-prefixed `u64` slice (section offset tables).
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_le_slice(v, u64::to_le_bytes);
    }

    /// Length-prefixed opaque blob (e.g. a nested sealed artifact).
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Open a container at the end of the buffer: its header, with a zero
    /// payload length that [`ArtifactWriter::end_container`] patches.
    /// Returns the offset the container starts at.
    fn begin_container(&mut self, kind: [u8; 4], version: u32) -> usize {
        let start = self.buf.len();
        put_header(&mut self.buf, kind, version, 0);
        start
    }

    /// Close the container opened at `start`: patch its payload length and
    /// append the CRC trailer. The bytes from `start` on are then exactly
    /// what [`seal`] returns for the same payload.
    fn end_container(&mut self, start: usize) {
        let payload_len = (self.buf.len() - start - HEADER_LEN) as u64;
        self.buf[start + 12..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&self.buf[start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }
}

// ------------------------------------------------------------------ reader

/// Checked cursor over a payload. Every read validates the remaining length
/// first, so a truncated or lying payload yields [`ArtifactError::Truncated`]
/// instead of a panic or an oversized allocation.
pub struct ArtifactReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ArtifactReader<'a> {
    pub fn new(data: &'a [u8]) -> ArtifactReader<'a> {
        ArtifactReader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Bytes consumed so far — lets callers record where a section of the
    /// payload starts (offset tables for lazily mapped sections).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    pub fn get_f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `u32` element count and verify the remaining payload can hold
    /// `count * elem_size` bytes **before** any allocation, so a corrupt
    /// count cannot trigger a huge `Vec::with_capacity`.
    pub fn get_count(&mut self, elem_size: usize) -> Result<usize, ArtifactError> {
        let n = self.get_u32()? as usize;
        let need = n.checked_mul(elem_size).ok_or(ArtifactError::Truncated)?;
        if self.remaining() < need {
            return Err(ArtifactError::Truncated);
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, ArtifactError> {
        let n = self.get_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::Corrupt("invalid utf-8"))
    }

    /// Length-prefixed slice of fixed-width little-endian values: the count
    /// is checked against the remaining payload, then the whole span is
    /// taken once and converted into a `Vec` allocated at its final size.
    fn get_le_slice<T, const N: usize>(
        &mut self,
        from_le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ArtifactError> {
        let n = self.get_count(N)?;
        let bytes = self.take(n * N)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|b| from_le(b.try_into().unwrap()))
            .collect())
    }

    /// Length-prefixed `f32` slice.
    pub fn get_f32_slice(&mut self) -> Result<Vec<f32>, ArtifactError> {
        self.get_le_slice(f32::from_le_bytes)
    }

    /// Length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, ArtifactError> {
        self.get_le_slice(f64::from_le_bytes)
    }

    /// Length-prefixed `u32` slice.
    pub fn get_u32_slice(&mut self) -> Result<Vec<u32>, ArtifactError> {
        self.get_le_slice(u32::from_le_bytes)
    }

    /// Length-prefixed `u64` slice (section offset tables).
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, ArtifactError> {
        self.get_le_slice(u64::from_le_bytes)
    }

    /// Length-prefixed opaque blob.
    pub fn get_blob(&mut self) -> Result<&'a [u8], ArtifactError> {
        let n = self.get_count(1)?;
        self.take(n)
    }

    /// Exactly `n` raw bytes with no length prefix — for sections whose
    /// extent comes from an offset table elsewhere in the payload.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }
}

/// The per-element readers the bulk `get_*_slice` replaced: one checked
/// read and one `Result` per element, collected into a `Vec` that cannot
/// see its length.
#[cfg(test)]
impl ArtifactReader<'_> {
    fn get_f32_slice_per_element(&mut self) -> Result<Vec<f32>, ArtifactError> {
        let n = self.get_count(4)?;
        (0..n).map(|_| self.get_f32()).collect()
    }

    fn get_f64_slice_per_element(&mut self) -> Result<Vec<f64>, ArtifactError> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    fn get_u32_slice_per_element(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let n = self.get_count(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    fn get_u64_slice_per_element(&mut self) -> Result<Vec<u64>, ArtifactError> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }
}

// --------------------------------------------------------------- container

/// Append a container header: magic + kind + version + payload length.
fn put_header(out: &mut Vec<u8>, kind: [u8; 4], version: u32, payload_len: u64) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
}

/// Wrap a payload in the container: magic + kind + version + length +
/// payload + CRC trailer.
pub fn seal(kind: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    put_header(&mut out, kind, version, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validate a container's magic, kind, version, declared length and CRC,
/// returning the payload slice. Any deviation is a typed error.
pub fn open(bytes: &[u8], kind: [u8; 4], version: u32) -> Result<&[u8], ArtifactError> {
    let payload = open_framed(bytes, kind, version)?;
    let body_end = bytes.len() - TRAILER_LEN;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(ArtifactError::ChecksumMismatch);
    }
    Ok(payload)
}

/// [`open`] without the CRC: magic, kind, version and an exact declared
/// length are checked, the trailer is not. Only for a container nested in
/// a payload whose own CRC was verified, which covers every byte here.
pub fn open_framed(bytes: &[u8], kind: [u8; 4], version: u32) -> Result<&[u8], ArtifactError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ArtifactError::Truncated);
    }
    let expect_total = container_len(check_header(bytes, kind, version)?)?;
    match (bytes.len() as u64).cmp(&expect_total) {
        std::cmp::Ordering::Less => return Err(ArtifactError::Truncated),
        std::cmp::Ordering::Greater => return Err(ArtifactError::TrailingBytes),
        std::cmp::Ordering::Equal => {}
    }
    Ok(&bytes[HEADER_LEN..bytes.len() - TRAILER_LEN])
}

/// Check the magic, kind and version of the header at the start of
/// `bytes` (at least [`HEADER_LEN`] long), in that order, and return the
/// declared payload length.
fn check_header(bytes: &[u8], kind: [u8; 4], version: u32) -> Result<u64, ArtifactError> {
    if bytes[0..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let found_kind: [u8; 4] = bytes[4..8].try_into().unwrap();
    if found_kind != kind {
        return Err(ArtifactError::WrongKind {
            expected: kind,
            found: found_kind,
        });
    }
    let found_version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if found_version != version {
        return Err(ArtifactError::UnsupportedVersion {
            expected: version,
            found: found_version,
        });
    }
    Ok(u64::from_le_bytes(bytes[12..20].try_into().unwrap()))
}

/// The whole length of a container declaring `payload_len` payload bytes;
/// a length no container can have is [`ArtifactError::Truncated`].
fn container_len(payload_len: u64) -> Result<u64, ArtifactError> {
    (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64))
        .ok_or(ArtifactError::Truncated)
}

/// Validate a sealed container sitting at the *head* of a longer buffer —
/// the shape of an append-only log where sealed records are concatenated
/// back to back. Returns the payload slice and the total number of bytes
/// the container occupies (header + payload + trailer), so callers can
/// advance to the next record.
///
/// Unlike [`open`], trailing bytes are expected and never an error. The
/// error taxonomy is what log-replay code needs to classify damage:
///
/// * [`ArtifactError::Truncated`] — the buffer ends before the declared
///   container does (header cut short, or `payload length` promises more
///   bytes than remain). A record torn mid-write by a crash looks exactly
///   like this.
/// * [`ArtifactError::ChecksumMismatch`] — all the declared bytes are
///   present but the CRC trailer disagrees: the tail of the record was
///   never written (the length field landed but the flush died), or the
///   media corrupted it.
/// * `BadMagic` / `WrongKind` / `UnsupportedVersion` — the buffer head is
///   not a record of the expected type at all; the stream is unframed from
///   here on.
pub fn open_prefix(
    bytes: &[u8],
    kind: [u8; 4],
    version: u32,
) -> Result<(&[u8], usize), ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::Truncated);
    }
    let total = container_len(check_header(bytes, kind, version)?)?;
    if (bytes.len() as u64) < total {
        return Err(ArtifactError::Truncated);
    }
    let total = total as usize;
    let body_end = total - TRAILER_LEN;
    let stored_crc = u32::from_le_bytes(bytes[body_end..total].try_into().unwrap());
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(ArtifactError::ChecksumMismatch);
    }
    Ok((&bytes[HEADER_LEN..body_end], total))
}

// --------------------------------------------------------------- streaming

/// What reading a whole sealed container proved of it: its length and its
/// CRC-32 trailer, which is [`bundle_checksum`] of its bytes. Two reads of
/// one file that agree on it read the same container (up to a CRC-32
/// collision).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealedId {
    /// Header + payload + trailer, in bytes.
    pub len: u64,
    /// The CRC-32 trailer.
    pub crc: u32,
}

/// A sealed container in a file and the identity it was read with: what
/// a holder keeps instead of the bytes. Every read of it checks that the
/// file still holds that container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedFile {
    pub path: PathBuf,
    pub id: SealedId,
}

impl SealedFile {
    /// The file opened for a streamed read, refused unless it still has
    /// the container's length. A reader that decodes it holds what its
    /// [`ArtifactStream::finish`] returns to [`SealedFile::check`].
    pub fn open(&self) -> Result<File, ArtifactError> {
        let file = File::open(&self.path)?;
        if file.metadata()?.len() != self.id.len {
            return Err(ArtifactError::Corrupt(
                "sealed file changed since it was read",
            ));
        }
        Ok(file)
    }

    /// The whole file, refused unless it is an intact container with this
    /// identity.
    pub fn read(&self) -> Result<Vec<u8>, ArtifactError> {
        let mut bytes = Vec::with_capacity(self.id.len as usize);
        self.open()?.read_to_end(&mut bytes)?;
        self.check(copy_sealed(&bytes[..], std::io::sink())?)?;
        Ok(bytes)
    }

    /// `Ok` when `found`, what a read of the file proved, is this identity.
    pub fn check(&self, found: SealedId) -> Result<(), ArtifactError> {
        if found != self.id {
            return Err(ArtifactError::Corrupt(
                "sealed file changed since it was read",
            ));
        }
        Ok(())
    }
}

/// Fill `buf` from `src` unless it ends first; the bytes read.
fn read_full(src: &mut impl Read, buf: &mut [u8]) -> Result<usize, ArtifactError> {
    let mut got = 0;
    while got < buf.len() {
        match src.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ArtifactError::Io(e)),
        }
    }
    Ok(got)
}

/// Read a whole sealed container from `src`, 64 KiB at a time, and check
/// it as [`open`] checks a slice: the same checks in the same order, so
/// the same bytes fail with the same error. Nothing of the payload is
/// kept; a reader that must act only on checked bytes runs this pass
/// first and then decodes with an [`ArtifactStream`].
pub fn check_stream(
    src: impl Read,
    kind: [u8; 4],
    version: u32,
) -> Result<SealedId, ArtifactError> {
    stream_sealed(src, &mut std::io::sink(), Some((kind, version)))
}

/// Copy a whole sealed container of any kind from `src` to `dst`, 64 KiB
/// at a time, checking it on the way as [`check_stream`] does, kind and
/// version aside: the magic, the declared length (the source must end
/// exactly there) and the CRC. `dst` has been handed every byte read when
/// a check fails, so a caller copies into a file it discards on `Err`.
pub fn copy_sealed(src: impl Read, mut dst: impl Write) -> Result<SealedId, ArtifactError> {
    stream_sealed(src, &mut dst, None)
}

/// [`check_stream`] and [`copy_sealed`]: the header checked against
/// `expect` (or its magic alone), every byte passed on to `dst`.
fn stream_sealed(
    mut src: impl Read,
    dst: &mut dyn Write,
    expect: Option<([u8; 4], u32)>,
) -> Result<SealedId, ArtifactError> {
    let mut chunk = vec![0u8; 1 << 16];
    let mut n = read_full(&mut src, &mut chunk[..HEADER_LEN + TRAILER_LEN])?;
    if n < HEADER_LEN + TRAILER_LEN {
        return Err(ArtifactError::Truncated);
    }
    let payload_len = match expect {
        Some((kind, version)) => check_header(&chunk, kind, version)?,
        None if chunk[0..4] != MAGIC => return Err(ArtifactError::BadMagic),
        None => u64::from_le_bytes(chunk[12..20].try_into().unwrap()),
    };
    let total = container_len(payload_len)?;
    let body = total - TRAILER_LEN as u64;
    let (mut crc, mut trailer) = (Crc32::new(), [0u8; TRAILER_LEN]);
    let mut at = 0u64;
    while n > 0 {
        let (lo, hi) = (at, at + n as u64);
        if hi > total {
            return Err(ArtifactError::TrailingBytes);
        }
        let piece = |from: u64, to: u64| &chunk[(from - lo) as usize..(to - lo) as usize];
        if lo < body {
            crc.update(piece(lo, hi.min(body)));
        }
        if hi > body {
            let from = lo.max(body);
            trailer[(from - body) as usize..(hi - body) as usize].copy_from_slice(piece(from, hi));
        }
        dst.write_all(&chunk[..n])?;
        at = hi;
        n = read_full(&mut src, &mut chunk)?;
    }
    if at < total {
        return Err(ArtifactError::Truncated);
    }
    let stored = u32::from_le_bytes(trailer);
    if crc.value() != stored {
        return Err(ArtifactError::ChecksumMismatch);
    }
    Ok(SealedId {
        len: total,
        crc: stored,
    })
}

/// A sealed container decoded from a [`Read`] a piece at a time: the
/// header when opened, then plain fields ([`ArtifactStream::fields`]) and
/// one nested container at a time ([`ArtifactStream::nested`],
/// [`ArtifactStream::section`]), then the trailer
/// ([`ArtifactStream::finish`]). It holds the piece being decoded and
/// little more, in one buffer it reuses.
///
/// The CRC is computed as the bytes arrive and checked only at the end,
/// so what was decoded before [`ArtifactStream::finish`] succeeded is
/// unchecked: a caller that must not act on damaged bytes checks the
/// container with [`check_stream`] first, or discards what it decoded
/// when the finish fails.
pub struct ArtifactStream<R> {
    src: R,
    crc: Crc32,
    len: u64,
    /// Payload bytes not yet read from `src`.
    unread: u64,
    /// Bytes read and not yet handed out: `buf[at..]`.
    buf: Vec<u8>,
    at: usize,
}

impl<R: Read> ArtifactStream<R> {
    /// Read and check the header (magic, kind, version, in [`open`]'s
    /// order).
    pub fn open(mut src: R, kind: [u8; 4], version: u32) -> Result<Self, ArtifactError> {
        let mut head = [0u8; HEADER_LEN];
        if read_full(&mut src, &mut head)? < HEADER_LEN {
            return Err(ArtifactError::Truncated);
        }
        let payload_len = check_header(&head, kind, version)?;
        let len = container_len(payload_len)?;
        let mut crc = Crc32::new();
        crc.update(&head);
        Ok(ArtifactStream {
            src,
            crc,
            len,
            unread: payload_len,
            buf: Vec::new(),
            at: 0,
        })
    }

    /// Payload bytes not yet handed out.
    pub fn remaining(&self) -> u64 {
        self.unread + (self.buf.len() - self.at) as u64
    }

    /// Have at least `n` payload bytes buffered, or all that remain.
    fn fill(&mut self, n: usize) -> Result<(), ArtifactError> {
        let have = self.buf.len() - self.at;
        if have >= n || self.unread == 0 {
            return Ok(());
        }
        self.buf.drain(..self.at);
        self.at = 0;
        let want = ((n - have) as u64).min(self.unread) as usize;
        self.buf.reserve_exact(want);
        self.buf.resize(have + want, 0);
        let got = read_full(&mut self.src, &mut self.buf[have..])?;
        self.crc.update(&self.buf[have..have + got]);
        self.unread -= got as u64;
        if got < want {
            return Err(ArtifactError::Truncated);
        }
        Ok(())
    }

    /// Decode plain fields with `read` over the payload from here on,
    /// reading more of it for as long as `read` finds the bytes it was
    /// given too short. `read` sees the buffered bytes only: it may refuse
    /// them as [`ArtifactError::Truncated`] by [`ArtifactReader::remaining`],
    /// but must decide nothing else by it, and it reads no nested
    /// container (that is [`ArtifactStream::nested`]).
    pub fn fields<T>(
        &mut self,
        mut read: impl FnMut(&mut ArtifactReader) -> Result<T, ArtifactError>,
    ) -> Result<T, ArtifactError> {
        let mut want = 4096;
        loop {
            self.fill(want)?;
            let mut r = ArtifactReader::new(&self.buf[self.at..]);
            match read(&mut r) {
                Ok(v) => {
                    self.at += r.position();
                    return Ok(v);
                }
                Err(ArtifactError::Truncated) if self.unread > 0 => want *= 2,
                Err(e) => return Err(e),
            }
        }
    }

    /// The next `n` payload bytes as a sealed container of its own, opened
    /// with its CRC and decoded (a section addressed by an offset table).
    pub fn section<T: ArtifactRead>(&mut self, n: usize) -> Result<T, ArtifactError> {
        self.raw(n, T::from_artifact_bytes)
    }

    /// The next `n` payload bytes, as stored, handed to `read` in one
    /// slice: a section read or copied some other way than decoded whole.
    pub fn raw<T>(
        &mut self,
        n: usize,
        read: impl FnOnce(&[u8]) -> Result<T, ArtifactError>,
    ) -> Result<T, ArtifactError> {
        if n as u64 > self.remaining() {
            return Err(ArtifactError::Truncated);
        }
        self.fill(n)?;
        let out = read(&self.buf[self.at..self.at + n]);
        self.at += n;
        out
    }

    /// A nested container written by [`ArtifactRead::write_nested`]: what
    /// [`ArtifactRead::read_nested`] reads from a slice.
    pub fn nested<T: ArtifactRead>(&mut self) -> Result<T, ArtifactError> {
        let n = self.fields(|r| r.get_u32())? as usize;
        self.section(n)
    }

    /// Check the end: every payload byte handed out, the trailer, nothing
    /// after it, and the CRC over everything read.
    pub fn finish(mut self) -> Result<SealedId, ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::TrailingBytes);
        }
        let mut trailer = [0u8; TRAILER_LEN];
        if read_full(&mut self.src, &mut trailer)? < TRAILER_LEN {
            return Err(ArtifactError::Truncated);
        }
        if read_full(&mut self.src, &mut [0u8; 1])? != 0 {
            return Err(ArtifactError::TrailingBytes);
        }
        let stored = u32::from_le_bytes(trailer);
        if self.crc.value() != stored {
            return Err(ArtifactError::ChecksumMismatch);
        }
        Ok(SealedId {
            len: self.len,
            crc: stored,
        })
    }
}

/// A sealed container written to a [`Write`] a piece at a time: the
/// header, with the payload length declared up front, then the payload in
/// any split (it is itself a [`Write`], so a nested container is a
/// `SealWriter` over another), then the trailer at
/// [`SealWriter::finish`]. The bytes are [`seal`]'s for the same payload.
pub struct SealWriter<W: Write> {
    dst: W,
    crc: Crc32,
    len: u64,
    /// Declared payload bytes not yet written.
    left: u64,
}

impl<W: Write> SealWriter<W> {
    /// Write the header of a container of `payload_len` payload bytes.
    pub fn begin(
        mut dst: W,
        kind: [u8; 4],
        version: u32,
        payload_len: u64,
    ) -> Result<Self, ArtifactError> {
        let len = container_len(payload_len)?;
        let mut head = Vec::with_capacity(HEADER_LEN);
        put_header(&mut head, kind, version, payload_len);
        dst.write_all(&head)?;
        let mut crc = Crc32::new();
        crc.update(&head);
        Ok(SealWriter {
            dst,
            crc,
            len,
            left: payload_len,
        })
    }

    /// Write the trailer once every declared payload byte is written
    /// (fewer is [`ArtifactError::Truncated`]); the destination and the
    /// container's identity.
    pub fn finish(mut self) -> Result<(W, SealedId), ArtifactError> {
        if self.left != 0 {
            return Err(ArtifactError::Truncated);
        }
        let crc = self.crc.value();
        self.dst.write_all(&crc.to_le_bytes())?;
        Ok((self.dst, SealedId { len: self.len, crc }))
    }
}

impl<W: Write> Write for SealWriter<W> {
    /// Refuses bytes past the declared payload length.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.len() as u64 > self.left {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "write past the declared payload length",
            ));
        }
        let n = self.dst.write(buf)?;
        self.crc.update(&buf[..n]);
        self.left -= n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.dst.flush()
    }
}

// ------------------------------------------------------------------ traits

/// A type that can serialize itself into a sealed artifact container.
pub trait ArtifactWrite {
    /// Four-byte type tag stored in the container header.
    const KIND: [u8; 4];
    /// Format revision; bump on any payload layout change.
    const VERSION: u32;

    /// Encode the payload (no header/trailer — the container adds those).
    /// The writer may already hold bytes before the payload: the container's
    /// own header, or an enclosing payload.
    fn write_payload(&self, w: &mut ArtifactWriter);

    /// Sealed container bytes: header + payload + CRC. The payload is
    /// written after the header in the one buffer and sealed there, never
    /// copied; the bytes are [`seal`]'s.
    fn to_artifact_bytes(&self) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        let start = w.begin_container(Self::KIND, Self::VERSION);
        self.write_payload(&mut w);
        w.end_container(start);
        w.into_bytes()
    }

    /// Write the sealed container to a file, creating parent directories.
    fn save_artifact(&self, path: &Path) -> Result<(), ArtifactError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_artifact_bytes())?;
        Ok(())
    }
}

/// A type that can reconstruct itself from a sealed artifact container.
pub trait ArtifactRead: ArtifactWrite + Sized {
    /// Decode the payload written by [`ArtifactWrite::write_payload`].
    fn read_payload(r: &mut ArtifactReader) -> Result<Self, ArtifactError>;

    /// Open + verify a sealed container and decode the payload. The payload
    /// must be consumed exactly; leftover bytes are an error.
    fn from_artifact_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        Self::from_payload(open(bytes, Self::KIND, Self::VERSION)?)
    }

    /// Decode a payload whose container was already verified (by [`open`]
    /// or [`open_prefix`]). The payload must be consumed exactly.
    fn from_payload(payload: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = ArtifactReader::new(payload);
        let out = Self::read_payload(&mut r)?;
        if r.remaining() != 0 {
            return Err(ArtifactError::TrailingBytes);
        }
        Ok(out)
    }

    /// Read + decode a sealed container from a file.
    fn load_artifact(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::from_artifact_bytes(&bytes)
    }

    /// Decode a nested artifact stored as a blob inside another payload.
    fn read_nested(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let blob = r.get_blob()?;
        Self::from_artifact_bytes(blob)
    }

    /// [`ArtifactRead::read_nested`] without the nested container's own CRC
    /// ([`open_framed`]): for a `read_payload` that only ever runs on a
    /// payload whose container was just verified, whose CRC covers these
    /// bytes already. Frame and lengths are still checked.
    fn read_nested_covered(r: &mut ArtifactReader) -> Result<Self, ArtifactError> {
        let blob = r.get_blob()?;
        Self::from_payload(open_framed(blob, Self::KIND, Self::VERSION)?)
    }

    /// Counterpart to [`ArtifactRead::read_nested`]: seal `self` and embed it
    /// as a length-prefixed blob. The container is sealed in place inside
    /// `w`, and its length prefix patched afterwards; the bytes are
    /// `put_blob(&self.to_artifact_bytes())`'s.
    fn write_nested(&self, w: &mut ArtifactWriter) {
        let prefix = w.len();
        w.put_u32(0);
        let start = w.begin_container(Self::KIND, Self::VERSION);
        self.write_payload(w);
        w.end_container(start);
        let blob_len = (w.len() - start) as u32;
        w.buf[prefix..start].copy_from_slice(&blob_len.to_le_bytes());
    }
}

/// Test support shared by the per-crate property suites: assert that
/// damaging a sealed artifact — truncating it at probed cut points, or
/// flipping a single probed bit — always surfaces as a typed `Err` from
/// [`ArtifactRead::from_artifact_bytes`], never a panic. `probe` selects the
/// damage site (callers feed it from a property-test generator so the whole
/// byte range gets exercised across cases).
pub fn check_damage_detected<T: ArtifactRead>(sealed: &[u8], probe: usize) {
    assert!(
        sealed.len() > HEADER_LEN + TRAILER_LEN,
        "sealed artifact implausibly small"
    );
    for cut in [
        0,
        HEADER_LEN - 1,
        sealed.len() / 2,
        probe % sealed.len(),
        sealed.len() - 1,
    ] {
        assert!(
            T::from_artifact_bytes(&sealed[..cut]).is_err(),
            "truncation to {cut} bytes must fail"
        );
    }
    // CRC-32 detects every single-bit error, so any flip must be refused.
    let mut bad = sealed.to_vec();
    let byte = probe % sealed.len();
    bad[byte] ^= 1 << (probe % 8);
    assert!(
        T::from_artifact_bytes(&bad).is_err(),
        "bit flip at byte {byte} must fail"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"hello payload".to_vec();
        let sealed = seal(*b"TEST", 3, &payload);
        assert_eq!(open(&sealed, *b"TEST", 3).unwrap(), &payload[..]);
    }

    #[test]
    fn open_rejects_every_truncation_point() {
        let sealed = seal(*b"TEST", 1, b"some payload bytes");
        for cut in 0..sealed.len() {
            assert!(
                matches!(
                    open(&sealed[..cut], *b"TEST", 1),
                    Err(ArtifactError::Truncated)
                ),
                "cut at {cut} of {}",
                sealed.len()
            );
        }
    }

    #[test]
    fn open_rejects_every_single_bit_flip() {
        // 20 + 53 checksummed bytes: four whole 16-byte blocks and a 9-byte
        // ragged tail, so flips land in every lane of the block step.
        let payload: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let sealed = seal(*b"TEST", 1, &payload);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open(&bad, *b"TEST", 1).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn open_rejects_trailing_bytes() {
        let mut sealed = seal(*b"TEST", 1, b"payload");
        sealed.push(0);
        assert!(matches!(
            open(&sealed, *b"TEST", 1),
            Err(ArtifactError::TrailingBytes)
        ));
    }

    #[test]
    fn open_rejects_wrong_kind_and_version() {
        let sealed = seal(*b"AAAA", 2, b"x");
        assert!(matches!(
            open(&sealed, *b"BBBB", 2),
            Err(ArtifactError::WrongKind { .. })
        ));
        assert!(matches!(
            open(&sealed, *b"AAAA", 3),
            Err(ArtifactError::UnsupportedVersion {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn open_rejects_bad_magic() {
        let mut sealed = seal(*b"TEST", 1, b"x");
        sealed[0] = b'X';
        assert!(matches!(
            open(&sealed, *b"TEST", 1),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn oversized_count_is_rejected_before_allocation() {
        // A slice claiming ~1 billion floats backed by 4 bytes.
        let mut w = ArtifactWriter::new();
        w.put_u32(1_000_000_000);
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = ArtifactReader::new(&bytes);
        assert!(matches!(r.get_f32_slice(), Err(ArtifactError::Truncated)));
    }

    #[test]
    fn float_roundtrip_is_bit_identical() {
        let values = [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE,
            f32::NAN,
            f32::INFINITY,
            -123.456,
        ];
        let mut w = ArtifactWriter::new();
        w.put_f32_slice(&values);
        w.put_f64(-0.0f64);
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ArtifactReader::new(&bytes);
        let back = r.get_f32_slice().unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn str_and_blob_roundtrip() {
        let mut w = ArtifactWriter::new();
        w.put_str("héllo");
        w.put_blob(&[1, 2, 3]);
        w.put_u32_slice(&[9, 8, 7]);
        let bytes = w.into_bytes();
        let mut r = ArtifactReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_blob().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_u32_slice().unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn u64_slice_roundtrip_and_position() {
        let offsets = [0u64, 1024, u64::MAX];
        let mut w = ArtifactWriter::new();
        w.put_u64_slice(&offsets);
        w.put_u8(0xAB);
        let bytes = w.into_bytes();
        let mut r = ArtifactReader::new(&bytes);
        assert_eq!(r.position(), 0);
        assert_eq!(r.get_u64_slice().unwrap(), offsets.to_vec());
        // 4-byte count + 3×8 payload bytes consumed.
        assert_eq!(r.position(), 4 + 24);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn oversized_u64_count_is_rejected_before_allocation() {
        let mut w = ArtifactWriter::new();
        w.put_u32(u32::MAX); // claims ~4 billion u64s backed by nothing
        let bytes = w.into_bytes();
        let mut r = ArtifactReader::new(&bytes);
        assert!(matches!(r.get_u64_slice(), Err(ArtifactError::Truncated)));
    }

    struct Point {
        x: f32,
        y: f32,
    }

    impl ArtifactWrite for Point {
        const KIND: [u8; 4] = *b"PNT0";
        const VERSION: u32 = 1;
        fn write_payload(&self, w: &mut ArtifactWriter) {
            w.put_f32(self.x);
            w.put_f32(self.y);
        }
    }

    impl ArtifactRead for Point {
        fn read_payload(r: &mut ArtifactReader) -> Result<Point, ArtifactError> {
            Ok(Point {
                x: r.get_f32()?,
                y: r.get_f32()?,
            })
        }
    }

    #[test]
    fn trait_roundtrip_and_file_io() {
        let p = Point { x: 1.25, y: -3.5 };
        let bytes = p.to_artifact_bytes();
        let q = Point::from_artifact_bytes(&bytes).unwrap();
        assert_eq!((q.x, q.y), (1.25, -3.5));

        let dir = std::env::temp_dir().join("lre_artifact_trait_test");
        let path = dir.join("point.lre");
        p.save_artifact(&path).unwrap();
        let r = Point::load_artifact(&path).unwrap();
        assert_eq!((r.x, r.y), (1.25, -3.5));
        std::fs::remove_dir_all(&dir).ok();

        assert!(matches!(
            Point::load_artifact(Path::new("/nonexistent/nowhere.lre")),
            Err(ArtifactError::Io(_))
        ));
    }

    #[test]
    fn payload_must_be_fully_consumed() {
        // A Point container with an extra trailing f32 in the payload.
        let mut w = ArtifactWriter::new();
        w.put_f32(1.0);
        w.put_f32(2.0);
        w.put_f32(3.0);
        let sealed = seal(Point::KIND, Point::VERSION, &w.into_bytes());
        assert!(matches!(
            Point::from_artifact_bytes(&sealed),
            Err(ArtifactError::TrailingBytes)
        ));
    }

    #[test]
    fn open_prefix_walks_concatenated_records() {
        let mut log = Vec::new();
        let payloads: [&[u8]; 3] = [b"first", b"second record", b""];
        for p in payloads {
            log.extend_from_slice(&seal(*b"TEST", 1, p));
        }
        let mut at = 0;
        for p in payloads {
            let (payload, used) = open_prefix(&log[at..], *b"TEST", 1).unwrap();
            assert_eq!(payload, p);
            at += used;
        }
        assert_eq!(at, log.len());
        // An exhausted buffer reads as a (zero-byte) torn record.
        assert!(matches!(
            open_prefix(&log[at..], *b"TEST", 1),
            Err(ArtifactError::Truncated)
        ));
    }

    #[test]
    fn open_prefix_classifies_a_torn_tail() {
        let sealed = seal(*b"TEST", 1, b"torn tail record payload");
        // Partial record: every cut inside the declared extent is Truncated,
        // even when a full header promises the rest.
        for cut in 0..sealed.len() {
            assert!(
                matches!(
                    open_prefix(&sealed[..cut], *b"TEST", 1),
                    Err(ArtifactError::Truncated)
                ),
                "cut at {cut} of {}",
                sealed.len()
            );
        }
        // Truncated trailer that got zero-padded to the declared length
        // (e.g. a filesystem extending the file without the data landing):
        // all bytes present, CRC disagrees.
        let mut padded = sealed[..sealed.len() - TRAILER_LEN].to_vec();
        padded.extend_from_slice(&[0u8; TRAILER_LEN]);
        assert!(matches!(
            open_prefix(&padded, *b"TEST", 1),
            Err(ArtifactError::ChecksumMismatch)
        ));
        // Garbage after a valid record must not disturb the record itself.
        let mut followed = sealed.clone();
        followed.extend_from_slice(b"\xFF\xFF junk that is not a header");
        let (payload, used) = open_prefix(&followed, *b"TEST", 1).unwrap();
        assert_eq!(payload, b"torn tail record payload");
        assert_eq!(used, sealed.len());
        assert!(matches!(
            open_prefix(&followed[used..], *b"TEST", 1),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn nested_artifacts_roundtrip() {
        let mut w = ArtifactWriter::new();
        Point { x: 5.0, y: 6.0 }.write_nested(&mut w);
        let bytes = w.into_bytes();
        let mut r = ArtifactReader::new(&bytes);
        let p = Point::read_nested(&mut r).unwrap();
        assert_eq!((p.x, p.y), (5.0, 6.0));
        let mut r = ArtifactReader::new(&bytes);
        let p = Point::read_nested_covered(&mut r).unwrap();
        assert_eq!((p.x, p.y), (5.0, 6.0));
    }

    /// Two points nested covered in one sealed container.
    struct Pair(Point, Point);

    impl ArtifactWrite for Pair {
        const KIND: [u8; 4] = *b"PAIR";
        const VERSION: u32 = 1;
        fn write_payload(&self, w: &mut ArtifactWriter) {
            self.0.write_nested(w);
            self.1.write_nested(w);
        }
    }

    impl ArtifactRead for Pair {
        fn read_payload(r: &mut ArtifactReader) -> Result<Pair, ArtifactError> {
            Ok(Pair(
                Point::read_nested_covered(r)?,
                Point::read_nested_covered(r)?,
            ))
        }
    }

    #[test]
    fn covered_nesting_is_framed_and_the_outer_crc_catches_every_flip() {
        let sealed = Pair(Point { x: 1.0, y: 2.0 }, Point { x: 3.0, y: -4.0 }).to_artifact_bytes();
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Pair::from_artifact_bytes(&bad).is_err(),
                    "flip {byte}:{bit}"
                );
            }
        }
        for cut in 0..sealed.len() {
            assert!(Pair::from_artifact_bytes(&sealed[..cut]).is_err());
        }
        // A nested frame is still checked without its CRC: a wrong kind or
        // a length that disagrees with the blob is refused, a bad trailer
        // is not looked at.
        let nested = Point { x: 1.0, y: 2.0 }.to_artifact_bytes();
        let (kind, version) = (Point::KIND, Point::VERSION);
        let mut trailer = nested.clone();
        *trailer.last_mut().unwrap() ^= 1;
        assert!(open_framed(&trailer, kind, version).is_ok());
        assert!(open(&trailer, kind, version).is_err());
        let mut wrong_kind = nested.clone();
        wrong_kind[4] ^= 1;
        assert!(open_framed(&wrong_kind, kind, version).is_err());
        assert!(open_framed(&nested[..nested.len() - 1], kind, version).is_err());
        let mut longer = nested.clone();
        longer.push(0);
        assert!(matches!(
            open_framed(&longer, kind, version),
            Err(ArtifactError::TrailingBytes)
        ));
    }

    /// A reader that hands out at most `step` bytes per call, so every
    /// piece boundary of a streamed decode is exercised.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The error text of a result, or "ok".
    fn outcome<T>(r: Result<T, ArtifactError>) -> String {
        r.map_or_else(|e| e.to_string(), |_| "ok".into())
    }

    #[test]
    fn check_stream_fails_every_cut_flip_and_extension_like_open() {
        let payload: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let sealed = seal(*b"TEST", 1, &payload);
        let same = |bytes: &[u8]| {
            for step in [1, 7, 1 << 16] {
                let streamed = check_stream(Trickle { bytes, step }, *b"TEST", 1);
                assert_eq!(outcome(streamed), outcome(open(bytes, *b"TEST", 1)));
            }
        };
        for cut in 0..=sealed.len() {
            same(&sealed[..cut]);
        }
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                same(&bad);
            }
        }
        let mut longer = sealed.clone();
        longer.push(0);
        same(&longer);
        let id = check_stream(&sealed[..], *b"TEST", 1).unwrap();
        assert_eq!(id.len, sealed.len() as u64);
        assert_eq!(id.crc.to_le_bytes(), sealed[sealed.len() - TRAILER_LEN..]);
        assert_eq!(id.crc, bundle_checksum(&sealed));
        assert!(matches!(
            check_stream(&sealed[..], *b"TEST", 2),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
    }

    /// A copy is the source byte for byte, with [`check_stream`]'s identity
    /// whatever the kind, and fails every cut, flip and extension as
    /// [`check_stream`] does (kind and version bytes aside: any kind is
    /// copied).
    #[test]
    fn copy_sealed_copies_any_kind_and_refuses_damage_like_check_stream() {
        let payload: Vec<u8> = (0..70u8).map(|i| i.wrapping_mul(91) ^ 0x33).collect();
        let sealed = seal(*b"TEST", 1, &payload);
        for step in [1, 7, 1 << 16] {
            let mut out = Vec::new();
            let id = copy_sealed(
                Trickle {
                    bytes: &sealed,
                    step,
                },
                &mut out,
            )
            .unwrap();
            assert!(out == sealed);
            assert_eq!(id, check_stream(&sealed[..], *b"TEST", 1).unwrap());
        }
        let same = |bytes: &[u8]| {
            let copied = copy_sealed(bytes, std::io::sink());
            assert_eq!(outcome(copied), outcome(check_stream(bytes, *b"TEST", 1)));
        };
        for cut in 0..sealed.len() {
            same(&sealed[..cut]);
        }
        for byte in (0..4).chain(HEADER_LEN - 8..sealed.len()) {
            let mut bad = sealed.clone();
            bad[byte] ^= 0x10;
            same(&bad);
        }
        let mut longer = sealed.clone();
        longer.push(0);
        same(&longer);
        let other = seal(*b"ELSE", 9, &payload);
        assert_eq!(
            copy_sealed(&other[..], std::io::sink()).unwrap().len,
            other.len() as u64
        );
    }

    /// The identity tells containers apart: every one-byte change of a
    /// payload, resealed, and every pair of different payloads get
    /// different checksums, each the trailer [`check_stream`] reads.
    #[test]
    fn different_containers_have_different_checksums() {
        let payload: Vec<u8> = (0..53u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let sealed = seal(*b"TEST", 1, &payload);
        let mut seen = std::collections::HashSet::from([bundle_checksum(&sealed)]);
        for byte in 0..payload.len() {
            let mut other = payload.clone();
            other[byte] ^= 0x01;
            let resealed = seal(*b"TEST", 1, &other);
            let id = check_stream(&resealed[..], *b"TEST", 1).unwrap();
            assert_eq!(id.crc, bundle_checksum(&resealed));
            assert!(seen.insert(id.crc), "payload byte {byte}: checksum repeats");
        }
        assert_ne!(
            bundle_checksum(&seal(*b"TEST", 1, b"one bundle")),
            bundle_checksum(&seal(*b"TEST", 1, b"another bundle"))
        );
        assert_eq!(bundle_checksum(&sealed[..3]), 0);
    }

    /// A pair streamed: both points nested, read one at a time.
    fn stream_pair(src: impl Read) -> Result<(Pair, SealedId), ArtifactError> {
        let mut s = ArtifactStream::open(src, Pair::KIND, Pair::VERSION)?;
        let pair = Pair(s.nested()?, s.nested()?);
        Ok((pair, s.finish()?))
    }

    #[test]
    fn streamed_nested_decode_matches_the_slice_decode_and_refuses_damage() {
        let sealed = Pair(Point { x: 1.0, y: 2.0 }, Point { x: 3.0, y: -4.0 }).to_artifact_bytes();
        for step in [1, 3, 64] {
            let (p, id) = stream_pair(Trickle {
                bytes: &sealed,
                step,
            })
            .unwrap();
            assert_eq!((p.0.x, p.0.y, p.1.x, p.1.y), (1.0, 2.0, 3.0, -4.0));
            assert_eq!(
                id,
                check_stream(&sealed[..], Pair::KIND, Pair::VERSION).unwrap()
            );
        }
        for cut in 0..sealed.len() {
            assert!(stream_pair(&sealed[..cut]).is_err(), "cut {cut}");
        }
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(stream_pair(&bad[..]).is_err(), "flip {byte}:{bit}");
            }
        }
        let mut longer = sealed.clone();
        longer.push(0);
        assert!(matches!(
            stream_pair(&longer[..]),
            Err(ArtifactError::TrailingBytes)
        ));
    }

    #[test]
    fn fields_read_past_the_first_buffer_and_sections_reuse_it() {
        // A 10 000-float slice (more than one first read), a raw section,
        // then a string.
        let floats: Vec<f32> = (0..10_000).map(|i| i as f32 * 0.5).collect();
        let section = Point { x: 7.0, y: 8.0 }.to_artifact_bytes();
        let mut w = ArtifactWriter::new();
        w.put_f32_slice(&floats);
        w.put_bytes(&section);
        w.put_str("end");
        let sealed = seal(*b"MIXD", 1, &w.into_bytes());
        let mut s = ArtifactStream::open(
            Trickle {
                bytes: &sealed,
                step: 999,
            },
            *b"MIXD",
            1,
        )
        .unwrap();
        assert_eq!(s.fields(|r| r.get_f32_slice()).unwrap(), floats);
        let p: Point = s.section(section.len()).unwrap();
        assert_eq!((p.x, p.y), (7.0, 8.0));
        assert_eq!(s.remaining(), 4 + 3);
        assert_eq!(s.fields(|r| r.get_str()).unwrap(), "end");
        assert_eq!(s.finish().unwrap().len, sealed.len() as u64);
        // A section longer than what remains is refused before any read.
        let mut s = ArtifactStream::open(&sealed[..], *b"MIXD", 1).unwrap();
        assert!(matches!(
            s.section::<Point>(sealed.len()),
            Err(ArtifactError::Truncated)
        ));
        // Payload left unread is the slice decode's trailing bytes.
        let s = ArtifactStream::open(&sealed[..], *b"MIXD", 1).unwrap();
        assert!(matches!(s.finish(), Err(ArtifactError::TrailingBytes)));
    }

    /// A container written a piece at a time, a nested one inside it, is
    /// [`seal`]'s bytes, with its identity; a short or long payload is
    /// refused.
    #[test]
    fn seal_writer_writes_seal_s_bytes_nested_and_refuses_a_wrong_length() {
        let inner = Point { x: 7.0, y: -8.5 }.to_artifact_bytes();
        let inner_payload = open(&inner, Point::KIND, Point::VERSION).unwrap();
        let mut w = ArtifactWriter::new();
        w.put_str("head");
        let head = w.into_bytes();
        let want = seal(*b"MIXD", 1, &[&head[..], &inner].concat());
        for split in [0, 1, 5] {
            let len = (head.len() + inner.len()) as u64;
            let mut out = SealWriter::begin(Vec::new(), *b"MIXD", 1, len).unwrap();
            out.write_all(&head).unwrap();
            let n = inner_payload.len() as u64;
            let mut sec = SealWriter::begin(&mut out, Point::KIND, Point::VERSION, n).unwrap();
            sec.write_all(&inner_payload[..split]).unwrap();
            sec.write_all(&inner_payload[split..]).unwrap();
            assert_eq!(sec.finish().unwrap().1.crc, bundle_checksum(&inner));
            let (bytes, id) = out.finish().unwrap();
            assert!(bytes == want, "split {split}");
            assert_eq!(id, check_stream(&want[..], *b"MIXD", 1).unwrap());
        }
        let short = SealWriter::begin(Vec::new(), *b"MIXD", 1, 4).unwrap();
        assert!(matches!(short.finish(), Err(ArtifactError::Truncated)));
        let mut long = SealWriter::begin(Vec::new(), *b"MIXD", 1, 2).unwrap();
        assert!(long.write_all(b"abc").is_err());
    }

    /// A sealed file reads back only as the container it was read as: a
    /// file replaced by another container, of the same length or not, or
    /// damaged in place, is refused.
    #[test]
    fn a_sealed_file_reads_back_only_as_the_container_it_was() {
        let dir = std::env::temp_dir().join(format!("lre_artifact_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        let sealed = seal(*b"TEST", 1, b"payload one");
        std::fs::write(&path, &sealed).unwrap();
        let id = check_stream(File::open(&path).unwrap(), *b"TEST", 1).unwrap();
        let file = SealedFile {
            path: path.clone(),
            id,
        };
        assert!(file.read().unwrap() == sealed);
        let changed = |f: &SealedFile| {
            let read = f.read().map(|_| ()).map_err(|e| e.to_string());
            assert!(read.is_err(), "{read:?}");
        };
        std::fs::write(&path, seal(*b"TEST", 1, b"payload two")).unwrap();
        changed(&file);
        std::fs::write(&path, seal(*b"TEST", 1, b"payload one, longer")).unwrap();
        assert!(file.open().is_err());
        changed(&file);
        let mut flipped = sealed.clone();
        flipped[HEADER_LEN + 2] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(file.read(), Err(ArtifactError::ChecksumMismatch)));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(file.read(), Err(ArtifactError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Deterministic bytes without a dependency (xorshift64*).
    fn pseudo_random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bytewise_on_a_3mb_buffer() {
        let buf = pseudo_random_bytes(3 << 20, 28);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        // Every ragged tail length behind the same long head.
        for cut in 0..16 {
            let s = &buf[..buf.len() - cut];
            assert_eq!(crc32(s), crc32_bytewise(s), "cut {cut}");
        }
    }

    /// A payload written verbatim, to seal arbitrary bytes through the
    /// trait's in-place container.
    struct Raw(Vec<u8>);

    impl ArtifactWrite for Raw {
        const KIND: [u8; 4] = *b"RAW0";
        const VERSION: u32 = 7;
        fn write_payload(&self, w: &mut ArtifactWriter) {
            w.put_bytes(&self.0);
        }
    }

    impl ArtifactRead for Raw {
        fn read_payload(r: &mut ArtifactReader) -> Result<Raw, ArtifactError> {
            Ok(Raw(r.get_bytes(r.remaining())?.to_vec()))
        }
    }

    /// Encode `bits` as a length-prefixed slice the per-element way.
    fn per_element_u32s(bits: &[u32]) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.put_u32(bits.len() as u32);
        for &b in bits {
            w.put_u32(b);
        }
        w.into_bytes()
    }

    fn per_element_u64s(bits: &[u64]) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.put_u32(bits.len() as u32);
        for &b in bits {
            w.put_u64(b);
        }
        w.into_bytes()
    }

    /// `f32` bit patterns that stress a bit-pattern codec: quiet and
    /// signalling NaNs with payloads, ±0, ±∞, subnormals, and anything.
    fn f32_bits() -> impl Strategy<Value = u32> {
        prop_oneof![
            any::<u32>().boxed(),
            (0u32..1 << 22).prop_map(|p| 0x7FC0_0000 | p).boxed(),
            (1u32..1 << 22).prop_map(|p| 0xFF80_0000 | p).boxed(),
            prop::sample::select(vec![0x8000_0000, 0, 0x7F80_0000, 0xFF80_0000]).boxed(),
            (1u32..0x0080_0000).prop_map(|m| m | (m & 1) << 31).boxed(),
        ]
    }

    fn f64_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>().boxed(),
            (0u64..1 << 51)
                .prop_map(|p| 0x7FF8_0000_0000_0000 | p)
                .boxed(),
            (1u64..1 << 51)
                .prop_map(|p| 0xFFF0_0000_0000_0000 | p)
                .boxed(),
            prop::sample::select(vec![0x8000_0000_0000_0000, 0, 0x7FF0_0000_0000_0000]).boxed(),
            (1u64..1 << 52).prop_map(|m| m | (m & 1) << 63).boxed(),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn crc32_matches_bytewise_at_every_length_and_offset(
            buf in proptest::collection::vec(any::<u8>(), 96)
        ) {
            for start in 0..16 {
                for len in 0..=80 {
                    let s = &buf[start..start + len];
                    prop_assert_eq!(crc32(s), crc32_bytewise(s), "start {} len {}", start, len);
                }
            }
        }

        #[test]
        fn crc32_fed_in_pieces_is_crc32_of_the_whole(
            buf in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(any::<usize>(), 0..6)
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (buf.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([buf.len()]) {
                crc.update(&buf[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.value(), crc32_bytewise(&buf));
        }

        #[test]
        fn bulk_f32_and_u32_slices_match_per_element(
            bits in proptest::collection::vec(f32_bits(), 0..41)
        ) {
            let bytes = per_element_u32s(&bits);
            let floats: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut w = ArtifactWriter::new();
            w.put_f32_slice(&floats);
            prop_assert_eq!(w.into_bytes(), bytes.clone());
            let mut w = ArtifactWriter::new();
            w.put_u32_slice(&bits);
            prop_assert_eq!(w.into_bytes(), bytes.clone());

            let bulk = ArtifactReader::new(&bytes).get_f32_slice().unwrap();
            let reference = ArtifactReader::new(&bytes).get_f32_slice_per_element().unwrap();
            let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(to_bits(&bulk), to_bits(&reference));
            prop_assert_eq!(to_bits(&bulk), bits.clone());
            let bulk = ArtifactReader::new(&bytes).get_u32_slice().unwrap();
            prop_assert_eq!(&bulk, &ArtifactReader::new(&bytes).get_u32_slice_per_element().unwrap());
            prop_assert_eq!(bulk, bits);

            for cut in 0..bytes.len() {
                let s = &bytes[..cut];
                prop_assert!(matches!(ArtifactReader::new(s).get_f32_slice(), Err(ArtifactError::Truncated)));
                prop_assert!(matches!(ArtifactReader::new(s).get_u32_slice(), Err(ArtifactError::Truncated)));
            }
        }

        #[test]
        fn bulk_f64_and_u64_slices_match_per_element(
            bits in proptest::collection::vec(f64_bits(), 0..41)
        ) {
            let bytes = per_element_u64s(&bits);
            let floats: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut w = ArtifactWriter::new();
            w.put_f64_slice(&floats);
            prop_assert_eq!(w.into_bytes(), bytes.clone());
            let mut w = ArtifactWriter::new();
            w.put_u64_slice(&bits);
            prop_assert_eq!(w.into_bytes(), bytes.clone());

            let bulk = ArtifactReader::new(&bytes).get_f64_slice().unwrap();
            let reference = ArtifactReader::new(&bytes).get_f64_slice_per_element().unwrap();
            let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(to_bits(&bulk), to_bits(&reference));
            prop_assert_eq!(to_bits(&bulk), bits.clone());
            let bulk = ArtifactReader::new(&bytes).get_u64_slice().unwrap();
            prop_assert_eq!(&bulk, &ArtifactReader::new(&bytes).get_u64_slice_per_element().unwrap());
            prop_assert_eq!(bulk, bits);

            for cut in 0..bytes.len() {
                let s = &bytes[..cut];
                prop_assert!(matches!(ArtifactReader::new(s).get_f64_slice(), Err(ArtifactError::Truncated)));
                prop_assert!(matches!(ArtifactReader::new(s).get_u64_slice(), Err(ArtifactError::Truncated)));
            }
        }

        #[test]
        fn sealing_in_place_matches_seal(
            payload in proptest::collection::vec(any::<u8>(), 0..5001),
            before in proptest::collection::vec(any::<u8>(), 0..40)
        ) {
            let raw = Raw(payload);
            let sealed = seal(Raw::KIND, Raw::VERSION, &raw.0);
            prop_assert_eq!(&raw.to_artifact_bytes(), &sealed);

            // Nested behind arbitrary bytes of an enclosing payload.
            let mut w = ArtifactWriter::new();
            w.put_bytes(&before);
            raw.write_nested(&mut w);
            let mut expect = ArtifactWriter::new();
            expect.put_bytes(&before);
            expect.put_blob(&sealed);
            let nested = w.into_bytes();
            prop_assert_eq!(&nested, &expect.into_bytes());

            let mut r = ArtifactReader::new(&nested[before.len()..]);
            prop_assert_eq!(Raw::read_nested(&mut r).unwrap().0, raw.0);
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
