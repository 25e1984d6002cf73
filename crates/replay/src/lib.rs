//! The recording container for deterministic record/replay.
//!
//! A recording captures one simulated debugging run as a byte-stable
//! artifact: the session's rebuildable *spec*, the sequence of typed
//! session operations (the run's only inputs — everything below the
//! session API is a pure function of the seed), periodic full-state
//! *snapshots*, and per-boundary state *digests*. Replay reconstructs
//! any instant by restoring the nearest snapshot and re-executing
//! forward; divergence checking re-executes the whole tape and asserts
//! bit-identity against every recorded snapshot and digest.
//!
//! This crate owns only the format: a canonical binary encoding of the
//! workspace's [`serde::Value`] tree (floats encoded as their IEEE-754
//! bit patterns, so identity means *bit* identity, not `==`), and a
//! chunked container with an FNV-1a digest per chunk. The semantic
//! layers — what a snapshot contains, how an operation re-executes —
//! live in `edb-core`'s `replay` module and in `edb-bench`.
//!
//! The encoder is a [`serde::Sink`]: any `Serialize` type streams into
//! [`CanonicalBytes`] (the encoding) or [`CanonicalDigest`] (its FNV-1a
//! digest) without building a `Value` tree first, and a `Value` streams
//! through the same sink, so there is exactly one encoder.
//!
//! # Container layout
//!
//! ```text
//! "EDBR" | version u16 LE | flags u16 LE | chunk*
//! chunk := tag u8 | payload_len u32 LE | payload | fnv u64 LE
//! ```
//!
//! The trailing FNV-1a digest covers the tag, the length bytes, and the
//! payload, so a flipped bit anywhere in a chunk is caught before its
//! payload is interpreted. Unknown chunk tags are an error: a recording
//! is a precision artifact, not a best-effort log.

use serde::{Serialize, Sink, Value};
use std::any::Any;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// Container magic: the first four bytes of every recording.
pub const MAGIC: [u8; 4] = *b"EDBR";

/// Current container version.
pub const VERSION: u16 = 1;

const TAG_SPEC: u8 = 1;
const TAG_META: u8 = 2;
const TAG_OP: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_DIGEST: u8 = 5;
const TAG_END: u8 = 6;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: folding a zero byte into FNV-1a is
/// a bare multiply (XOR with 0 changes nothing), so a run of `k` zeros
/// is one multiply by `FNV_PRIME^k`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Streaming FNV-1a, the digest used for chunks and state encodings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut zeros = 0usize;
        for &b in bytes {
            if b == 0 {
                zeros += 1;
                continue;
            }
            h = fold_zeros(h, zeros);
            zeros = 0;
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = fold_zeros(h, zeros);
    }

    /// Folds one byte into the digest.
    fn write_byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Folds the 8 little-endian bytes of `x`; its high zero bytes cost
    /// one multiply.
    fn write_u64(&mut self, x: u64) {
        let significant = 8 - (x.leading_zeros() / 8) as usize;
        for k in 0..significant {
            self.write_byte((x >> (8 * k)) as u8);
        }
        self.0 = fold_zeros(self.0, 8 - significant);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Folds `k` zero bytes into the FNV-1a state `h`.
#[inline]
fn fold_zeros(mut h: u64, mut k: usize) -> u64 {
    while k > 8 {
        h = h.wrapping_mul(FNV_PRIME_POW[8]);
        k -= 8;
    }
    h.wrapping_mul(FNV_PRIME_POW[k])
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// A malformed or corrupt recording, with the byte offset of the fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// Byte offset at which the fault was detected.
    pub offset: usize,
    /// What was wrong.
    pub detail: String,
}

impl FormatError {
    fn new(offset: usize, detail: impl Into<String>) -> Self {
        FormatError {
            offset,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recording byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for FormatError {}

// ---------------------------------------------------------------------
// Canonical Value encoding
// ---------------------------------------------------------------------

const VAL_NULL: u8 = 0x00;
const VAL_FALSE: u8 = 0x01;
const VAL_TRUE: u8 = 0x02;
const VAL_U64: u8 = 0x03;
const VAL_I64: u8 = 0x04;
const VAL_F64: u8 = 0x05;
const VAL_STR: u8 = 0x06;
const VAL_SEQ: u8 = 0x07;
const VAL_MAP: u8 = 0x08;

/// The canonical encoder: a [`Sink`] that appends the canonical binary
/// encoding of every streamed node to a buffer.
///
/// The encoding is injective over `Value` trees and encodes floats as
/// their `to_bits` pattern, so two states encode identically iff they
/// are bit-identical — `-0.0` vs `0.0` and differing NaN payloads are
/// divergences here even though `==` would blur them.
#[derive(Debug)]
pub struct CanonicalBytes<'a>(pub &'a mut Vec<u8>);

impl CanonicalBytes<'_> {
    fn header(&mut self, tag: u8, len: usize) {
        self.0.push(tag);
        self.0.extend_from_slice(&(len as u32).to_le_bytes());
    }
}

impl Sink for CanonicalBytes<'_> {
    fn null(&mut self) {
        self.0.push(VAL_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.0.push(if v { VAL_TRUE } else { VAL_FALSE });
    }

    fn u64(&mut self, v: u64) {
        self.0.push(VAL_U64);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.0.push(VAL_I64);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.0.push(VAL_F64);
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.header(VAL_STR, v.len());
        self.0.extend_from_slice(v.as_bytes());
    }

    fn seq(&mut self, len: usize) {
        self.header(VAL_SEQ, len);
    }

    fn map(&mut self, len: usize) {
        self.header(VAL_MAP, len);
    }

    fn byte_items(&mut self, v: &[u8]) {
        self.0.reserve(9 * v.len());
        for &b in v {
            self.0.extend_from_slice(&[VAL_U64, b, 0, 0, 0, 0, 0, 0, 0]);
        }
    }
}

/// The canonical digest: a [`Sink`] folding the canonical encoding of
/// every streamed node into FNV-1a without producing the bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalDigest(pub Fnv);

impl Sink for CanonicalDigest {
    fn null(&mut self) {
        self.0.write_byte(VAL_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.0.write_byte(if v { VAL_TRUE } else { VAL_FALSE });
    }

    fn u64(&mut self, v: u64) {
        self.0.write_byte(VAL_U64);
        self.0.write_u64(v);
    }

    fn i64(&mut self, v: i64) {
        self.0.write_byte(VAL_I64);
        self.0.write_u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.0.write_byte(VAL_F64);
        self.0.write_u64(v.to_bits());
    }

    fn str(&mut self, v: &str) {
        self.0.write_byte(VAL_STR);
        self.0.write(&(v.len() as u32).to_le_bytes());
        self.0.write(v.as_bytes());
    }

    fn seq(&mut self, len: usize) {
        self.0.write_byte(VAL_SEQ);
        self.0.write(&(len as u32).to_le_bytes());
    }

    fn map(&mut self, len: usize) {
        self.0.write_byte(VAL_MAP);
        self.0.write(&(len as u32).to_le_bytes());
    }

    fn byte_items(&mut self, v: &[u8]) {
        let mut h = self.0 .0;
        for &b in v {
            // `VAL_U64`, the byte, then seven zero bytes.
            h = (h ^ u64::from(VAL_U64)).wrapping_mul(FNV_PRIME);
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME_POW[8]);
        }
        self.0 .0 = h;
    }
}

/// The canonical length: a [`Sink`] counting the bytes of the canonical
/// encoding of every streamed node without producing them, so a writer
/// can size a payload before it encodes one.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalLen(pub usize);

impl Sink for CanonicalLen {
    fn null(&mut self) {
        self.0 += 1;
    }

    fn bool(&mut self, _: bool) {
        self.0 += 1;
    }

    fn u64(&mut self, _: u64) {
        self.0 += 9;
    }

    fn i64(&mut self, _: i64) {
        self.0 += 9;
    }

    fn f64(&mut self, _: f64) {
        self.0 += 9;
    }

    fn str(&mut self, v: &str) {
        self.0 += 5 + v.len();
    }

    fn seq(&mut self, _: usize) {
        self.0 += 5;
    }

    fn map(&mut self, _: usize) {
        self.0 += 5;
    }

    fn byte_items(&mut self, v: &[u8]) {
        self.0 += 9 * v.len();
    }
}

/// Appends the canonical encoding of `x` to `out`.
pub fn encode<T: Serialize + ?Sized>(x: &T, out: &mut Vec<u8>) {
    x.serialize(&mut CanonicalBytes(out));
}

/// FNV-1a digest of the canonical encoding of `x` — the "state digest"
/// used at snapshot boundaries — computed without allocating.
pub fn digest<T: Serialize + ?Sized>(x: &T) -> u64 {
    let mut sink = CanonicalDigest::default();
    x.serialize(&mut sink);
    sink.0.finish()
}

/// The length of the canonical encoding of `x`, counted without
/// encoding it.
fn canonical_len<T: Serialize + ?Sized>(x: &T) -> usize {
    let mut sink = CanonicalLen::default();
    x.serialize(&mut sink);
    sink.0
}

/// The canonical encoding of `v` as an owned buffer.
pub fn value_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode(v, &mut out);
    out
}

/// How deeply [`decode_value`] lets containers nest. The deepest trees
/// the workspace writes — session snapshots, specs and ops — nest eight
/// levels; the limit leaves wide margin while keeping a crafted
/// recording from recursing the decoder off the end of its thread's
/// stack.
pub const MAX_DEPTH: usize = 64;

/// Decodes one canonical `Value` starting at `*pos`, advancing `*pos`.
/// Containers nested deeper than [`MAX_DEPTH`] are a format error.
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, FormatError> {
    decode_nested(bytes, pos, 0)
}

fn decode_nested(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, FormatError> {
    let at = *pos;
    let tag = *bytes
        .get(at)
        .ok_or_else(|| FormatError::new(at, "truncated value"))?;
    *pos += 1;
    match tag {
        VAL_NULL => Ok(Value::Null),
        VAL_FALSE => Ok(Value::Bool(false)),
        VAL_TRUE => Ok(Value::Bool(true)),
        VAL_U64 => Ok(Value::U64(take_u64(bytes, pos)?)),
        VAL_I64 => Ok(Value::I64(take_u64(bytes, pos)? as i64)),
        VAL_F64 => Ok(Value::F64(f64::from_bits(take_u64(bytes, pos)?))),
        VAL_STR => {
            let len = take_u32(bytes, pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| FormatError::new(*pos, "truncated string"))?;
            let s = std::str::from_utf8(&bytes[*pos..end])
                .map_err(|_| FormatError::new(*pos, "invalid UTF-8 in string"))?
                .to_string();
            *pos = end;
            Ok(Value::Str(s))
        }
        VAL_SEQ | VAL_MAP if depth >= MAX_DEPTH => Err(FormatError::new(
            at,
            format!("containers nested deeper than {MAX_DEPTH} levels"),
        )),
        VAL_SEQ => {
            let n = take_u32(bytes, pos)? as usize;
            let mut items = Vec::new();
            for _ in 0..n {
                items.push(decode_nested(bytes, pos, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        VAL_MAP => {
            let n = take_u32(bytes, pos)? as usize;
            let mut pairs = Vec::new();
            for _ in 0..n {
                let k = decode_nested(bytes, pos, depth + 1)?;
                let v = decode_nested(bytes, pos, depth + 1)?;
                pairs.push((k, v));
            }
            Ok(Value::Map(pairs))
        }
        other => Err(FormatError::new(
            at,
            format!("unknown value tag {other:#x}"),
        )),
    }
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, FormatError> {
    let end = *pos + 4;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| FormatError::new(*pos, "truncated u32"))?;
    *pos = end;
    Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, FormatError> {
    let end = *pos + 8;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| FormatError::new(*pos, "truncated u64"))?;
    *pos = end;
    Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

// ---------------------------------------------------------------------
// Snapshot payloads
// ---------------------------------------------------------------------

/// Typed state a recorder shares with the snapshots of its recordings:
/// any `Serialize` type that can cross threads. Its canonical encoding
/// and digest stream straight from the typed state.
pub trait SharedState: Serialize + Send + Sync + Any {}

impl<T: Serialize + Send + Sync + Any> SharedState for T {}

/// The state a snapshot carries: a tree decoded from recording bytes,
/// or typed state shared with the live tape that took it. Both encode
/// to the same canonical bytes, and two payloads are equal iff their
/// canonical bytes are.
#[derive(Clone)]
pub enum SnapshotState {
    /// Decoded from a recording's bytes.
    Decoded(Value),
    /// Shared with the live tape; cloning is a reference-count bump.
    Shared(Arc<dyn SharedState>),
}

impl SnapshotState {
    /// The typed state, when shared by a live tape and of type `T`.
    pub fn downcast<T: Any>(&self) -> Option<&T> {
        match self {
            SnapshotState::Decoded(_) => None,
            SnapshotState::Shared(s) => (&**s as &dyn Any).downcast_ref(),
        }
    }
}

impl Serialize for SnapshotState {
    fn serialize(&self, sink: &mut dyn Sink) {
        match self {
            SnapshotState::Decoded(v) => v.serialize(sink),
            SnapshotState::Shared(s) => s.serialize(sink),
        }
    }
}

impl fmt::Debug for SnapshotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotState::Decoded(v) => f.debug_tuple("Decoded").field(v).finish(),
            SnapshotState::Shared(_) => f.write_str("Shared(..)"),
        }
    }
}

impl PartialEq for SnapshotState {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode(self, &mut a);
        encode(other, &mut b);
        a == b
    }
}

impl From<Value> for SnapshotState {
    fn from(v: Value) -> Self {
        SnapshotState::Decoded(v)
    }
}

// ---------------------------------------------------------------------
// Chunked container
// ---------------------------------------------------------------------

/// One chunk of a recording.
#[derive(Debug, Clone, PartialEq)]
pub enum Chunk {
    /// The rebuildable session spec (present when the recorder knew how
    /// the session was constructed, so a fresh process can replay).
    Spec {
        /// The spec as a serialized tree; its meaning belongs to the
        /// layer that recorded it.
        value: Value,
    },
    /// Recording parameters.
    Meta {
        /// Snapshot stride: the recorder's boundary cadence. The unit is
        /// the recorder's to choose; `edb-core`'s replay layer strides by
        /// recorded *operations* between full snapshots.
        stride: u64,
        /// Sim time at which recording started.
        start_ns: u64,
    },
    /// One recorded session operation.
    Op {
        /// Sim time immediately before the operation ran.
        now_ns: u64,
        /// The serialized operation.
        value: Value,
    },
    /// A full-state snapshot at an operation boundary.
    Snapshot {
        /// Sim time of the snapshot.
        now_ns: u64,
        /// The full state.
        state: SnapshotState,
    },
    /// A state digest at an operation boundary (worlds that cannot
    /// serialize in full still digest).
    Digest {
        /// Sim time of the digest.
        now_ns: u64,
        /// FNV-1a over the canonical state encoding.
        digest: u64,
    },
    /// End of recording, with the final state digest.
    End {
        /// Sim time when recording stopped.
        now_ns: u64,
        /// Final state digest.
        digest: u64,
    },
}

/// Bytes of the container header: magic, version and flags.
const HEADER_LEN: usize = 8;

/// Bytes a chunk adds around its payload: the tag, the payload length
/// and the trailing digest.
const CHUNK_FRAME: usize = 1 + 4 + 8;

/// One chunk as the writer sees it: its tag, the little-endian words
/// that open its payload (a timestamp, a stride, a digest), and the
/// canonical value that ends it, with that value's encoded length,
/// counted with [`CanonicalLen`] when the frame is made.
struct Frame<'a> {
    tag: u8,
    words: [u64; 2],
    n_words: usize,
    value: Option<(&'a dyn Serialize, usize)>,
}

impl<'a> Frame<'a> {
    fn new(tag: u8, words: &[u64], value: Option<&'a dyn Serialize>) -> Self {
        let mut fixed = [0; 2];
        fixed[..words.len()].copy_from_slice(words);
        Frame {
            tag,
            words: fixed,
            n_words: words.len(),
            value: value.map(|v| (v, canonical_len(v))),
        }
    }

    fn spec(value: &'a Value) -> Self {
        Frame::new(TAG_SPEC, &[], Some(value))
    }

    fn meta(stride: u64, start_ns: u64) -> Self {
        Frame::new(TAG_META, &[stride, start_ns], None)
    }

    /// An `Op` or `Snapshot` chunk: the time, then the value.
    fn stamped(tag: u8, now_ns: u64, value: &'a dyn Serialize) -> Self {
        Frame::new(tag, &[now_ns], Some(value))
    }

    /// A `Digest` or `End` chunk.
    fn digest(tag: u8, now_ns: u64, digest: u64) -> Self {
        Frame::new(tag, &[now_ns, digest], None)
    }

    fn words(&self) -> &[u64] {
        &self.words[..self.n_words]
    }

    fn payload_len(&self) -> usize {
        8 * self.n_words + self.value.map_or(0, |(_, len)| len)
    }

    /// The whole chunk's length: payload and frame.
    fn chunk_len(&self) -> usize {
        CHUNK_FRAME + self.payload_len()
    }
}

impl Chunk {
    fn frame(&self) -> Frame<'_> {
        match self {
            Chunk::Spec { value } => Frame::spec(value),
            Chunk::Meta { stride, start_ns } => Frame::meta(*stride, *start_ns),
            Chunk::Op { now_ns, value } => Frame::stamped(TAG_OP, *now_ns, value),
            Chunk::Snapshot { now_ns, state } => Frame::stamped(TAG_SNAPSHOT, *now_ns, state),
            Chunk::Digest { now_ns, digest } => Frame::digest(TAG_DIGEST, *now_ns, *digest),
            Chunk::End { now_ns, digest } => Frame::digest(TAG_END, *now_ns, *digest),
        }
    }

    fn decode(tag: u8, payload: &[u8], base: usize) -> Result<Chunk, FormatError> {
        let mut pos = 0usize;
        let chunk = match tag {
            TAG_SPEC => Chunk::Spec {
                value: decode_value(payload, &mut pos)?,
            },
            TAG_META => Chunk::Meta {
                stride: take_u64(payload, &mut pos)?,
                start_ns: take_u64(payload, &mut pos)?,
            },
            TAG_OP => Chunk::Op {
                now_ns: take_u64(payload, &mut pos)?,
                value: decode_value(payload, &mut pos)?,
            },
            TAG_SNAPSHOT => Chunk::Snapshot {
                now_ns: take_u64(payload, &mut pos)?,
                state: SnapshotState::Decoded(decode_value(payload, &mut pos)?),
            },
            TAG_DIGEST => Chunk::Digest {
                now_ns: take_u64(payload, &mut pos)?,
                digest: take_u64(payload, &mut pos)?,
            },
            TAG_END => Chunk::End {
                now_ns: take_u64(payload, &mut pos)?,
                digest: take_u64(payload, &mut pos)?,
            },
            other => {
                return Err(FormatError::new(base, format!("unknown chunk tag {other}")));
            }
        };
        if pos != payload.len() {
            return Err(FormatError::new(
                base + pos,
                format!(
                    "chunk tag {tag}: {} trailing payload bytes",
                    payload.len() - pos
                ),
            ));
        }
        Ok(chunk)
    }
}

/// The container header: magic, version and (zero) flags.
fn header() -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header
}

/// The one chunk encoder: appends `frame` as a chunk to `buf`. The
/// payload is sized with [`CanonicalLen`] when the frame is made (its
/// length precedes it), so `buf` is reserved to fit and never doubles.
fn encode_chunk(buf: &mut Vec<u8>, frame: &Frame<'_>) -> io::Result<()> {
    let len = frame.payload_len();
    let len32 = u32::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "chunk over 4 GiB"))?;
    let start = buf.len();
    buf.reserve_exact(frame.chunk_len());
    buf.push(frame.tag);
    buf.extend_from_slice(&len32.to_le_bytes());
    for word in frame.words() {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    if let Some((value, _)) = frame.value {
        encode(value, buf);
    }
    if buf.len() - start != 5 + len {
        return Err(io::Error::other("chunk payload length miscounted"));
    }
    let digest = fnv1a(&buf[start..]);
    buf.extend_from_slice(&digest.to_le_bytes());
    Ok(())
}

/// Writes the container header, then `frames`, to `out`, one chunk at a
/// time, and returns the bytes written: it holds one chunk, never the
/// recording.
fn write_frames<'a, W: Write>(
    mut out: W,
    frames: impl IntoIterator<Item = Frame<'a>>,
) -> io::Result<usize> {
    out.write_all(&header())?;
    let mut written = HEADER_LEN;
    let mut chunk = Vec::new();
    for frame in frames {
        chunk.clear();
        encode_chunk(&mut chunk, &frame)?;
        out.write_all(&chunk)?;
        written += chunk.len();
    }
    out.flush()?;
    Ok(written)
}

/// The container bytes of `frames`, in a buffer of exactly their length.
fn frames_to_bytes<'a>(frames: impl IntoIterator<Item = Frame<'a>>) -> Vec<u8> {
    // Each chunk's length is counted once, here; the encoder reads it
    // back from the frame.
    let frames: Vec<Frame<'a>> = frames.into_iter().collect();
    let len = HEADER_LEN + frames.iter().map(Frame::chunk_len).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&header());
    for frame in &frames {
        encode_chunk(&mut out, frame)
            .expect("an in-memory chunk is under 4 GiB and counted as encoded");
    }
    out
}

/// Serializes `chunks` into a complete recording byte stream.
pub fn write_chunks(chunks: &[Chunk]) -> Vec<u8> {
    frames_to_bytes(chunks.iter().map(Chunk::frame))
}

/// Parses a recording byte stream, verifying every chunk digest.
pub fn read_chunks(bytes: &[u8]) -> Result<Vec<Chunk>, FormatError> {
    if bytes.get(..4) != Some(&MAGIC[..]) {
        return Err(FormatError::new(0, "bad magic (not an EDBR recording)"));
    }
    let mut pos = 4usize;
    let version = u16::from_le_bytes(
        bytes
            .get(pos..pos + 2)
            .ok_or_else(|| FormatError::new(pos, "truncated header"))?
            .try_into()
            .expect("2 bytes"),
    );
    if version != VERSION {
        return Err(FormatError::new(
            pos,
            format!("unsupported version {version} (expected {VERSION})"),
        ));
    }
    pos += 2;
    let flags = u16::from_le_bytes(
        bytes
            .get(pos..pos + 2)
            .ok_or_else(|| FormatError::new(pos, "truncated header"))?
            .try_into()
            .expect("2 bytes"),
    );
    if flags != 0 {
        return Err(FormatError::new(
            pos,
            format!("unsupported flags {flags:#06x}"),
        ));
    }
    pos += 2;
    let mut chunks = Vec::new();
    while pos < bytes.len() {
        let base = pos;
        let tag = bytes[pos];
        pos += 1;
        let len = take_u32(bytes, &mut pos)? as usize;
        let payload = bytes
            .get(pos..pos + len)
            .ok_or_else(|| FormatError::new(pos, "truncated chunk payload"))?;
        pos += len;
        let stored = take_u64(bytes, &mut pos)?;
        let mut h = Fnv::new();
        h.write(&[tag]);
        h.write(&(len as u32).to_le_bytes());
        h.write(payload);
        if h.finish() != stored {
            return Err(FormatError::new(
                base,
                format!("chunk tag {tag}: digest mismatch (corrupt chunk)"),
            ));
        }
        chunks.push(Chunk::decode(tag, payload, base)?);
    }
    Ok(chunks)
}

// ---------------------------------------------------------------------
// Recording: the convenience view over the chunk stream
// ---------------------------------------------------------------------

/// A recording's body entry: the chunk kinds that appear in tape order.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A recorded operation.
    Op {
        /// Sim time immediately before the operation.
        now_ns: u64,
        /// The serialized operation.
        value: Value,
    },
    /// A full-state snapshot.
    Snapshot {
        /// Sim time of the snapshot.
        now_ns: u64,
        /// The full state.
        state: SnapshotState,
    },
    /// A digest-only boundary.
    Digest {
        /// Sim time of the digest.
        now_ns: u64,
        /// The state digest.
        digest: u64,
    },
}

/// A parsed recording: header fields plus the ordered tape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// The rebuildable session spec, when recorded.
    pub spec: Option<Value>,
    /// Snapshot stride: recorded operations between full snapshots (see
    /// [`Chunk::Meta`]).
    pub stride: u64,
    /// Sim time at which recording started.
    pub start_ns: u64,
    /// Ops, snapshots, and digests in tape order.
    pub entries: Vec<Entry>,
    /// Final `(now_ns, digest)` pair, once the recording is finished.
    pub end: Option<(u64, u64)>,
}

impl Entry {
    fn frame(&self) -> Frame<'_> {
        match self {
            Entry::Op { now_ns, value } => Frame::stamped(TAG_OP, *now_ns, value),
            Entry::Snapshot { now_ns, state } => Frame::stamped(TAG_SNAPSHOT, *now_ns, state),
            Entry::Digest { now_ns, digest } => Frame::digest(TAG_DIGEST, *now_ns, *digest),
        }
    }

    /// The bytes this entry's chunk takes in a recording: frame and
    /// payload, its value counted with [`CanonicalLen`].
    pub fn chunk_len(&self) -> usize {
        self.frame().chunk_len()
    }
}

impl Recording {
    /// The recording's chunks in container order.
    fn frames(&self) -> impl Iterator<Item = Frame<'_>> {
        let end = self
            .end
            .map(|(now_ns, digest)| Frame::digest(TAG_END, now_ns, digest));
        self.spec
            .iter()
            .map(Frame::spec)
            .chain([Frame::meta(self.stride, self.start_ns)])
            .chain(self.entries.iter().map(Entry::frame))
            .chain(end)
    }

    /// The bytes a recording takes around its entries: the header, the
    /// Spec chunk of `spec` (when there is one), the Meta chunk and, when
    /// `sealed`, the End chunk. None of them depends on the values of
    /// the stride, the times or the digest, which are fixed-width words.
    pub fn envelope_len(spec: Option<&Value>, sealed: bool) -> usize {
        let end = sealed.then(|| Frame::digest(TAG_END, 0, 0));
        let frames = spec.map(Frame::spec).into_iter();
        let frames = frames.chain([Frame::meta(0, 0)]).chain(end);
        HEADER_LEN + frames.map(|frame| frame.chunk_len()).sum::<usize>()
    }

    /// The length of [`Recording::to_bytes`], counted without encoding:
    /// the [envelope](Recording::envelope_len) and each entry's
    /// [`Entry::chunk_len`].
    pub fn encoded_len(&self) -> usize {
        let entries = self.entries.iter().map(Entry::chunk_len).sum::<usize>();
        Recording::envelope_len(self.spec.as_ref(), self.end.is_some()) + entries
    }

    /// Writes the container byte stream to `out` chunk by chunk, and
    /// returns its length. Holds one chunk's bytes at a time, not the
    /// recording's.
    pub fn write_to<W: Write>(&self, out: W) -> io::Result<usize> {
        write_frames(out, self.frames())
    }

    /// Serializes to the container byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        frames_to_bytes(self.frames())
    }

    /// Parses a recording from the container byte stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, FormatError> {
        let mut rec = Recording::default();
        let mut saw_meta = false;
        for chunk in read_chunks(bytes)? {
            if rec.end.is_some() {
                return Err(FormatError::new(bytes.len(), "chunk after End chunk"));
            }
            match chunk {
                Chunk::Spec { value } => rec.spec = Some(value),
                Chunk::Meta { stride, start_ns } => {
                    rec.stride = stride;
                    rec.start_ns = start_ns;
                    saw_meta = true;
                }
                Chunk::Op { now_ns, value } => rec.entries.push(Entry::Op { now_ns, value }),
                Chunk::Snapshot { now_ns, state } => {
                    rec.entries.push(Entry::Snapshot { now_ns, state });
                }
                Chunk::Digest { now_ns, digest } => {
                    rec.entries.push(Entry::Digest { now_ns, digest });
                }
                Chunk::End { now_ns, digest } => rec.end = Some((now_ns, digest)),
            }
        }
        if !saw_meta {
            return Err(FormatError::new(8, "recording has no Meta chunk"));
        }
        // The End chunk doubles as the terminator: a stream truncated at
        // a clean chunk boundary would otherwise parse as a silently
        // shorter recording.
        if rec.end.is_none() {
            return Err(FormatError::new(bytes.len(), "recording has no End chunk"));
        }
        Ok(rec)
    }

    /// Writes the recording to `path`, streamed through a `BufWriter`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.write_to(BufWriter::new(File::create(path)?)).map(drop)
    }

    /// Reads a recording from `path`.
    pub fn load(path: &Path) -> std::io::Result<Recording> {
        let bytes = std::fs::read(path)?;
        Recording::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The number of recorded operations.
    pub fn op_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Op { .. }))
            .count()
    }

    /// The number of snapshot entries.
    pub fn snapshot_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Snapshot { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recording() -> Recording {
        Recording {
            spec: Some(Value::Map(vec![(
                Value::Str("kind".into()),
                Value::Str("demo".into()),
            )])),
            stride: 50_000_000,
            start_ns: 0,
            entries: vec![
                Entry::Snapshot {
                    now_ns: 0,
                    state: Value::Seq(vec![Value::U64(1), Value::F64(2.5)]).into(),
                },
                Entry::Op {
                    now_ns: 0,
                    value: Value::Map(vec![(
                        Value::Str("Advance".into()),
                        Value::Map(vec![(Value::Str("ns".into()), Value::U64(1000))]),
                    )]),
                },
                Entry::Digest {
                    now_ns: 1000,
                    digest: 0xDEAD_BEEF,
                },
            ],
            end: Some((1000, 0xDEAD_BEEF)),
        }
    }

    #[test]
    fn container_round_trips() {
        let rec = sample_recording();
        let bytes = rec.to_bytes();
        assert_eq!(&bytes[..4], b"EDBR");
        let back = Recording::from_bytes(&bytes).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.op_count(), 1);
        assert_eq!(back.snapshot_count(), 1);
    }

    #[test]
    fn encoding_is_byte_stable() {
        let rec = sample_recording();
        assert_eq!(rec.to_bytes(), rec.to_bytes());
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        // Flip one bit at a time across the whole stream: every
        // corruption must surface as an error, never as a silently
        // different recording.
        let rec = sample_recording();
        let bytes = rec.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match Recording::from_bytes(&bad) {
                Err(_) => {}
                Ok(parsed) => {
                    panic!("flip at byte {i} parsed silently: {parsed:?}");
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_recording().to_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Recording::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn float_encoding_is_bitwise() {
        // -0.0 vs 0.0 compare equal as floats but are different states.
        let a = value_bytes(&Value::F64(0.0));
        let b = value_bytes(&Value::F64(-0.0));
        assert_ne!(a, b);
        // NaN payloads round-trip exactly.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let enc = value_bytes(&Value::F64(nan));
        let mut pos = 0;
        match decode_value(&enc, &mut pos).expect("decodes") {
            Value::F64(x) => assert_eq!(x.to_bits(), nan.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_codec_round_trips_nested_trees() {
        let v = Value::Map(vec![
            (Value::Str("null".into()), Value::Null),
            (
                Value::Str("bools".into()),
                Value::Seq(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            (Value::U64(7), Value::I64(-12)),
            (
                Value::Str("nested".into()),
                Value::Map(vec![(Value::Str("s".into()), Value::Str("héllo".into()))]),
            ),
        ]);
        let enc = value_bytes(&v);
        let mut pos = 0;
        let back = decode_value(&enc, &mut pos).expect("decodes");
        assert_eq!(pos, enc.len());
        assert_eq!(back, v);
        assert_eq!(digest(&back), digest(&v));
    }

    /// FNV-1a one byte at a time, as the format defines it.
    fn naive_fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(FNV_OFFSET, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }

    #[test]
    fn zero_runs_fold_into_one_multiply() {
        let mut bytes = vec![0u8; 40];
        bytes.extend_from_slice(&[7, 0, 0, 9, 0]);
        bytes.extend([0; 17]);
        bytes.push(1);
        for cut in 0..bytes.len() {
            for start in 0..cut {
                assert_eq!(fnv1a(&bytes[start..cut]), naive_fnv(&bytes[start..cut]));
            }
        }
    }

    #[test]
    fn both_sinks_agree_with_the_value_encoding() {
        let memory: Vec<u8> = (0..300u32).map(|i| (i * 37 % 7) as u8).collect();
        let v = Value::Map(vec![
            (
                Value::Str("mem".into()),
                serde::Serialize::to_value(&memory),
            ),
            (Value::Str("f".into()), Value::F64(-0.0)),
            (Value::Str("i".into()), Value::I64(-3)),
            (Value::Str("u".into()), Value::U64(1 << 40)),
            (Value::Str("b".into()), Value::Bool(true)),
            (Value::Str("n".into()), Value::Null),
        ]);
        // The `bytes` fast paths match the per-item stream.
        let mut fast = Vec::new();
        CanonicalBytes(&mut fast).bytes(&memory);
        let mut slow = Vec::new();
        let mut per_item = CanonicalBytes(&mut slow);
        per_item.seq(memory.len());
        for &b in &memory {
            per_item.u64(u64::from(b));
        }
        assert_eq!(fast, slow);
        let mut sink = CanonicalDigest::default();
        sink.bytes(&memory);
        assert_eq!(sink.0.finish(), naive_fnv(&slow));
        assert_eq!(value_bytes(&serde::Serialize::to_value(&memory)), slow);
        // And the digest sink hashes exactly what the encoder writes,
        // and the length sink counts it.
        assert_eq!(digest(&v), naive_fnv(&value_bytes(&v)));
        assert_eq!(canonical_len(&v), value_bytes(&v).len());
        let mut pieces = CanonicalLen::default();
        pieces.seq(memory.len());
        for piece in memory.chunks(7) {
            pieces.byte_items(piece);
        }
        assert_eq!(pieces.0, slow.len());
    }

    #[test]
    fn streamed_chunks_match_the_direct_encoding() {
        // A snapshot chunk of some 450 KB.
        let image: Vec<u8> = (0..50_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let state = Value::Map(vec![
            (
                Value::Str("image".into()),
                serde::Serialize::to_value(&image),
            ),
            (Value::Str("f".into()), Value::F64(-0.0)),
        ]);
        let mut rec = sample_recording();
        rec.entries.push(Entry::Snapshot {
            now_ns: 1000,
            state: state.clone().into(),
        });
        // The container as the format defines it, each payload encoded
        // whole.
        let mut expected = Vec::new();
        expected.extend_from_slice(b"EDBR\x01\x00\x00\x00");
        raw_chunk(
            &mut expected,
            TAG_SPEC,
            &value_bytes(rec.spec.as_ref().unwrap()),
        );
        let meta = [50_000_000u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        raw_chunk(&mut expected, TAG_META, &meta);
        for entry in &rec.entries {
            let (tag, now_ns, body) = match entry {
                Entry::Op { now_ns, value } => (TAG_OP, now_ns, value_bytes(value)),
                Entry::Snapshot { now_ns, state } => {
                    let mut body = Vec::new();
                    encode(state, &mut body);
                    (TAG_SNAPSHOT, now_ns, body)
                }
                Entry::Digest { now_ns, digest } => {
                    (TAG_DIGEST, now_ns, digest.to_le_bytes().to_vec())
                }
            };
            raw_chunk(
                &mut expected,
                tag,
                &[&now_ns.to_le_bytes()[..], &body].concat(),
            );
        }
        let end = [1000u64.to_le_bytes(), 0xDEAD_BEEFu64.to_le_bytes()].concat();
        raw_chunk(&mut expected, TAG_END, &end);

        assert_eq!(rec.to_bytes(), expected);
        assert_eq!(rec.encoded_len(), expected.len());
        let mut streamed = Vec::new();
        assert_eq!(rec.write_to(&mut streamed).expect("writes"), expected.len());
        assert_eq!(streamed, expected);
        let back = Recording::from_bytes(&expected).expect("parses");
        assert_eq!(back, rec);
    }

    /// A writer that takes `room` bytes, then fails.
    struct Cramped {
        room: usize,
    }

    impl Write for Cramped {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_fails_the_export() {
        let rec = sample_recording();
        let len = rec.encoded_len();
        for room in [0, 3, len / 2, len - 1] {
            let err = rec
                .write_to(Cramped { room })
                .expect_err("runs out of room");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "room {room}");
        }
        assert_eq!(rec.write_to(Cramped { room: len }).expect("fits"), len);
    }

    #[test]
    fn shared_and_decoded_snapshots_encode_alike() {
        let state = vec![(1u8, Some(2.5f64)), (2, None)];
        let shared = SnapshotState::Shared(Arc::new(state.clone()));
        let decoded = SnapshotState::Decoded(serde::Serialize::to_value(&state));
        assert_eq!(shared, decoded);
        assert_eq!(digest(&shared), digest(&decoded));
        assert_eq!(shared.downcast::<Vec<(u8, Option<f64>)>>(), Some(&state));
        assert_eq!(decoded.downcast::<Vec<(u8, Option<f64>)>>(), None);
        let mut rec = sample_recording();
        rec.entries[0] = Entry::Snapshot {
            now_ns: 0,
            state: shared,
        };
        let back = Recording::from_bytes(&rec.to_bytes()).expect("parses");
        assert_eq!(back, rec);
        assert!(matches!(
            &back.entries[0],
            Entry::Snapshot {
                state: SnapshotState::Decoded(_),
                ..
            }
        ));
    }

    /// Appends a chunk of tag `tag` around the raw `payload`, with a
    /// valid digest.
    fn raw_chunk(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
        let start = out.len();
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        let digest = fnv1a(&out[start..]);
        out.extend_from_slice(&digest.to_le_bytes());
    }

    /// A recording whose Spec chunk is a sequence nested `depth` levels
    /// deep, with valid chunk digests throughout.
    fn deeply_nested_recording(depth: usize) -> Vec<u8> {
        let mut spec = Vec::new();
        for _ in 0..depth {
            spec.push(VAL_SEQ);
            spec.extend_from_slice(&1u32.to_le_bytes());
        }
        spec.push(VAL_NULL);
        let mut out = write_chunks(&[]);
        raw_chunk(&mut out, TAG_SPEC, &spec);
        out.extend(
            write_chunks(&[
                Chunk::Meta {
                    stride: 1,
                    start_ns: 0,
                },
                Chunk::End {
                    now_ns: 0,
                    digest: 0,
                },
            ])[HEADER_LEN..]
                .iter(),
        );
        out
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_a_format_error() {
        let bytes = deeply_nested_recording(200_000);
        assert!(bytes.len() > 1_000_000);
        let err = Recording::from_bytes(&bytes).expect_err("too deep");
        assert!(err.detail.contains("nested deeper"), "{err}");
        // The limit itself still parses.
        let rec = Recording::from_bytes(&deeply_nested_recording(MAX_DEPTH)).expect("parses");
        assert!(rec.spec.is_some());
        assert!(Recording::from_bytes(&deeply_nested_recording(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unknown_chunk_tags_are_rejected() {
        let mut bytes = write_chunks(&[]);
        raw_chunk(&mut bytes, 99, &[]);
        let err = read_chunks(&bytes).unwrap_err();
        assert!(err.detail.contains("unknown chunk tag"), "{err}");
    }
}
