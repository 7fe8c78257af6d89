//! The length-prefixed binary wire protocol of `sitm-serve`.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! [ u32 payload length (LE) ][ u8 opcode ][ payload bytes ... ]
//! ```
//!
//! The length counts the opcode byte plus the payload, so an empty
//! request like `BEGIN` is the five bytes `01 00 00 00 01`. Frames are
//! bounded by [`MAX_FRAME`]; a peer announcing a larger frame is
//! rejected *before* any allocation happens, so a hostile length
//! prefix cannot balloon server memory. All integers are
//! little-endian; values are signed 64-bit (`i64`), keys unsigned
//! 64-bit (`u64`).
//!
//! Decoding is total: any byte sequence either decodes into a
//! [`Request`]/[`Response`] or returns a structured [`WireError`] —
//! never a panic — which is what the fuzzed round-trip tests in
//! `tests/wire_proptests.rs` pin. Trailing garbage after a payload is
//! an error too (a frame is exactly its announced length).
//!
//! The protocol has two transaction shapes (see DESIGN.md §16):
//!
//! * **interactive** — `BEGIN` … `READ`/`WRITE` … `COMMIT`/`ABORT`,
//!   one open snapshot per connection, held across frames;
//! * **one-shot** — a single [`Request::Txn`] frame carrying a batch
//!   of [`TxnOp`]s executed atomically by a shard worker (the group
//!   commit path).

use std::io::{self, Read, Write};

/// Hard bound on one frame's announced length (opcode + payload).
/// Large enough for a [`Request::Txn`] of thousands of ops, small
/// enough that a hostile length prefix cannot balloon allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Everything that can go wrong turning bytes into messages. The
/// server answers protocol-level errors with [`Response::Err`] and
/// keeps serving; only I/O errors tear a connection down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame header announced more than [`MAX_FRAME`] bytes.
    Oversized(usize),
    /// The payload ended before the message was complete.
    Truncated,
    /// The payload had bytes left over after the message was complete.
    TrailingBytes(usize),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown [`TxnOp`] kind byte inside a `TXN` batch.
    BadOpKind(u8),
    /// A `TXN` batch announced more ops than its payload could hold.
    BadOpCount(u32),
    /// Unknown error code in a [`Response::Err`] frame.
    BadErrCode(u16),
    /// Unknown conflict code in a [`Response::Aborted`] frame.
    BadConflict(u8),
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::BadOpKind(b) => write!(f, "unknown txn-op kind {b:#04x}"),
            WireError::BadOpCount(n) => write!(f, "txn op count {n} exceeds payload"),
            WireError::BadErrCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadConflict(c) => write!(f, "unknown conflict code {c}"),
            WireError::BadBool(b) => write!(f, "byte {b:#04x} is not a boolean"),
        }
    }
}

impl std::error::Error for WireError {}

/// One operation of a one-shot [`Request::Txn`] batch. The batch
/// executes atomically under snapshot isolation: every `Get` reads
/// from one consistent snapshot, every mutation commits at one
/// timestamp, or the whole batch aborts and is retried by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOp {
    /// Read a key; answers with its value (or absent).
    Get {
        /// Key to read.
        key: u64,
    },
    /// Set a key to a value, creating it if absent.
    Put {
        /// Key to write.
        key: u64,
        /// Value to install.
        value: i64,
    },
    /// Add a signed delta to a key (absent keys count as 0) — the
    /// multi-key read-modify-write primitive: a transfer is
    /// `Add{from, -amount}, Add{to, +amount}` and conserves the total
    /// unconditionally.
    Add {
        /// Key to adjust.
        key: u64,
        /// Signed delta to apply.
        delta: i64,
    },
    /// Delete a key (idempotent).
    Del {
        /// Key to delete.
        key: u64,
    },
}

impl TxnOp {
    /// The key this op touches (its conflict footprint — the server's
    /// group-commit packer merges batches whose footprints are
    /// disjoint).
    pub fn key(&self) -> u64 {
        match *self {
            TxnOp::Get { key }
            | TxnOp::Put { key, .. }
            | TxnOp::Add { key, .. }
            | TxnOp::Del { key } => key,
        }
    }
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open an interactive transaction on this connection.
    Begin,
    /// Read `key` (inside the open transaction, or as a one-shot
    /// snapshot read when none is open).
    Read {
        /// Key to read.
        key: u64,
    },
    /// Buffer a write of `key = value` (inside the open transaction,
    /// or as a one-shot auto-committed write when none is open).
    Write {
        /// Key to write.
        key: u64,
        /// Value to install.
        value: i64,
    },
    /// Commit the open interactive transaction.
    Commit,
    /// Roll back the open interactive transaction.
    Abort,
    /// Execute a batch of ops as one atomic snapshot-isolated
    /// transaction (the group-commit path through the shard workers).
    Txn {
        /// The ops, executed in order against one snapshot.
        ops: Vec<TxnOp>,
    },
    /// Fetch server-side commit/abort/GC counters.
    Stats,
}

/// Error codes of [`Response::Err`]: the server's protocol-level
/// complaints, after which the connection stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// `COMMIT`/`ABORT` without an open transaction (e.g. a duplicate
    /// `COMMIT` — the first one consumed the transaction).
    NoTxn,
    /// `BEGIN` while a transaction is already open on this connection.
    TxnOpen,
    /// The request frame failed to decode; the payload is the
    /// [`WireError`] rendered as text.
    Malformed,
    /// An empty `TXN` batch (nothing to execute or reply to).
    EmptyTxn,
}

impl ErrCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrCode::NoTxn => 1,
            ErrCode::TxnOpen => 2,
            ErrCode::Malformed => 3,
            ErrCode::EmptyTxn => 4,
        }
    }

    fn from_u16(code: u16) -> Result<Self, WireError> {
        Ok(match code {
            1 => ErrCode::NoTxn,
            2 => ErrCode::TxnOpen,
            3 => ErrCode::Malformed,
            4 => ErrCode::EmptyTxn,
            other => return Err(WireError::BadErrCode(other)),
        })
    }
}

/// Why a commit was refused, as reported to the client. Mirrors
/// [`sitm_stm::Conflict`] (the server maps it 1:1). Codes 1 and 3 keep
/// their values so existing captures still parse; code 2 is retired and
/// decodes as [`WireError::BadConflict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireConflict {
    /// First-committer-wins write-write validation failed.
    WriteWrite,
    /// Serializable-mode read validation failed.
    ReadValidation,
}

impl WireConflict {
    fn to_u8(self) -> u8 {
        match self {
            WireConflict::WriteWrite => 1,
            WireConflict::ReadValidation => 3,
        }
    }

    fn from_u8(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            1 => WireConflict::WriteWrite,
            3 => WireConflict::ReadValidation,
            other => return Err(WireError::BadConflict(other)),
        })
    }
}

/// Server-side counters answered to [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Committed transactions (interactive + one-shot + auto-commit).
    pub commits: u64,
    /// Aborted commit attempts, all causes.
    pub aborts: u64,
    /// Versions reclaimed by epoch GC during commits.
    pub versions_retired: u64,
    /// Versions reclaimed by the server's periodic `compact` GC ticks.
    pub gc_reclaimed: u64,
    /// GC ticks the compaction thread has run.
    pub gc_ticks: u64,
    /// Live snapshots currently registered process-wide.
    pub live_snapshots: u64,
    /// Keys currently in the store.
    pub keys: u64,
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded and carries no data (`BEGIN`, `ABORT`,
    /// auto-committed `WRITE`).
    Ok,
    /// A read's result: the value, or absent.
    Value {
        /// The value, `None` when the key is absent.
        value: Option<i64>,
    },
    /// An interactive commit succeeded at `commit_ts` (0 for read-only
    /// transactions, which take no timestamp).
    Committed {
        /// Commit timestamp, 0 if the transaction published nothing.
        commit_ts: u64,
    },
    /// A commit attempt was refused; the interactive transaction is
    /// consumed (the client may `BEGIN` again).
    Aborted {
        /// What conflicted.
        conflict: WireConflict,
    },
    /// A one-shot [`Request::Txn`] batch committed: one entry per
    /// `Get` op (in op order), plus the batch's commit timestamp.
    TxnResult {
        /// `Get` results in op order.
        reads: Vec<Option<i64>>,
        /// Commit timestamp (0 for read-only batches).
        commit_ts: u64,
    },
    /// Protocol-level error; the connection stays usable.
    Err {
        /// What the server objected to.
        code: ErrCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Counters answered to [`Request::Stats`].
    Stats(WireStats),
}

// --------------------------------------------------------------------------
// Opcodes.
// --------------------------------------------------------------------------

const OP_BEGIN: u8 = 0x01;
const OP_READ: u8 = 0x02;
const OP_WRITE: u8 = 0x03;
const OP_COMMIT: u8 = 0x04;
const OP_ABORT: u8 = 0x05;
const OP_TXN: u8 = 0x06;
const OP_STATS: u8 = 0x07;

const OP_OK: u8 = 0x81;
const OP_VALUE: u8 = 0x82;
const OP_COMMITTED: u8 = 0x83;
const OP_ABORTED: u8 = 0x84;
const OP_TXN_RESULT: u8 = 0x85;
const OP_ERR: u8 = 0x86;
const OP_STATS_RESULT: u8 = 0x87;

const K_GET: u8 = 0;
const K_PUT: u8 = 1;
const K_ADD: u8 = 2;
const K_DEL: u8 = 3;

// --------------------------------------------------------------------------
// A tiny cursor for total, panic-free decoding.
// --------------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.remaining() < N {
            return Err(WireError::Truncated);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn optional_i64(&mut self) -> Result<Option<i64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            other => Err(WireError::BadBool(other)),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            Err(WireError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

fn push_optional_i64(out: &mut Vec<u8>, v: Option<i64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

// --------------------------------------------------------------------------
// Encoding.
// --------------------------------------------------------------------------

impl Request {
    /// Serializes the request body (opcode + payload, no length
    /// prefix). [`write_frame`] adds the prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Request::Begin => out.push(OP_BEGIN),
            Request::Read { key } => {
                out.push(OP_READ);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Write { key, value } => {
                out.push(OP_WRITE);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            Request::Commit => out.push(OP_COMMIT),
            Request::Abort => out.push(OP_ABORT),
            Request::Txn { ops } => {
                out.push(OP_TXN);
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for op in ops {
                    match *op {
                        TxnOp::Get { key } => {
                            out.push(K_GET);
                            out.extend_from_slice(&key.to_le_bytes());
                        }
                        TxnOp::Put { key, value } => {
                            out.push(K_PUT);
                            out.extend_from_slice(&key.to_le_bytes());
                            out.extend_from_slice(&value.to_le_bytes());
                        }
                        TxnOp::Add { key, delta } => {
                            out.push(K_ADD);
                            out.extend_from_slice(&key.to_le_bytes());
                            out.extend_from_slice(&delta.to_le_bytes());
                        }
                        TxnOp::Del { key } => {
                            out.push(K_DEL);
                            out.extend_from_slice(&key.to_le_bytes());
                        }
                    }
                }
            }
            Request::Stats => out.push(OP_STATS),
        }
        out
    }

    /// Decodes one request body (opcode + payload).
    ///
    /// # Errors
    ///
    /// Any malformed input returns a [`WireError`]; decoding never
    /// panics.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(bytes);
        let req = match c.u8()? {
            OP_BEGIN => Request::Begin,
            OP_READ => Request::Read { key: c.u64()? },
            OP_WRITE => Request::Write {
                key: c.u64()?,
                value: c.i64()?,
            },
            OP_COMMIT => Request::Commit,
            OP_ABORT => Request::Abort,
            OP_TXN => {
                let n = c.u32()?;
                // Every op costs at least 9 bytes; reject counts the
                // payload cannot possibly hold before allocating.
                if n as usize > c.remaining() / 9 {
                    return Err(WireError::BadOpCount(n));
                }
                let mut ops = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    ops.push(match c.u8()? {
                        K_GET => TxnOp::Get { key: c.u64()? },
                        K_PUT => TxnOp::Put {
                            key: c.u64()?,
                            value: c.i64()?,
                        },
                        K_ADD => TxnOp::Add {
                            key: c.u64()?,
                            delta: c.i64()?,
                        },
                        K_DEL => TxnOp::Del { key: c.u64()? },
                        other => return Err(WireError::BadOpKind(other)),
                    });
                }
                Request::Txn { ops }
            }
            OP_STATS => Request::Stats,
            other => return Err(WireError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response body (opcode + payload, no length
    /// prefix). [`write_frame`] adds the prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::Ok => out.push(OP_OK),
            Response::Value { value } => {
                out.push(OP_VALUE);
                push_optional_i64(&mut out, *value);
            }
            Response::Committed { commit_ts } => {
                out.push(OP_COMMITTED);
                out.extend_from_slice(&commit_ts.to_le_bytes());
            }
            Response::Aborted { conflict } => {
                out.push(OP_ABORTED);
                out.push(conflict.to_u8());
            }
            Response::TxnResult { reads, commit_ts } => {
                out.push(OP_TXN_RESULT);
                out.extend_from_slice(&(reads.len() as u32).to_le_bytes());
                for r in reads {
                    push_optional_i64(&mut out, *r);
                }
                out.extend_from_slice(&commit_ts.to_le_bytes());
            }
            Response::Err { code, detail } => {
                out.push(OP_ERR);
                out.extend_from_slice(&code.to_u16().to_le_bytes());
                let bytes = detail.as_bytes();
                let len = bytes.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&bytes[..len]);
            }
            Response::Stats(s) => {
                out.push(OP_STATS_RESULT);
                for field in [
                    s.commits,
                    s.aborts,
                    s.versions_retired,
                    s.gc_reclaimed,
                    s.gc_ticks,
                    s.live_snapshots,
                    s.keys,
                ] {
                    out.extend_from_slice(&field.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes one response body (opcode + payload).
    ///
    /// # Errors
    ///
    /// Any malformed input returns a [`WireError`]; decoding never
    /// panics.
    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(bytes);
        let resp = match c.u8()? {
            OP_OK => Response::Ok,
            OP_VALUE => Response::Value {
                value: c.optional_i64()?,
            },
            OP_COMMITTED => Response::Committed {
                commit_ts: c.u64()?,
            },
            OP_ABORTED => Response::Aborted {
                conflict: WireConflict::from_u8(c.u8()?)?,
            },
            OP_TXN_RESULT => {
                let n = c.u32()?;
                if n as usize > c.remaining() {
                    return Err(WireError::BadOpCount(n));
                }
                let mut reads = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    reads.push(c.optional_i64()?);
                }
                Response::TxnResult {
                    reads,
                    commit_ts: c.u64()?,
                }
            }
            OP_ERR => {
                let code = ErrCode::from_u16(c.u16()?)?;
                let len = c.u16()? as usize;
                let detail = String::from_utf8_lossy(c.take(len)?).into_owned();
                Response::Err { code, detail }
            }
            OP_STATS_RESULT => Response::Stats(WireStats {
                commits: c.u64()?,
                aborts: c.u64()?,
                versions_retired: c.u64()?,
                gc_reclaimed: c.u64()?,
                gc_ticks: c.u64()?,
                live_snapshots: c.u64()?,
                keys: c.u64()?,
            }),
            other => return Err(WireError::BadOpcode(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

// --------------------------------------------------------------------------
// Framing over a byte stream.
// --------------------------------------------------------------------------

/// Writes one frame (length prefix + body) to `w`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME, "callers encode bounded messages");
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame body from `r`. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed between messages).
///
/// # Errors
///
/// I/O errors (including EOF mid-frame, surfaced as
/// [`io::ErrorKind::UnexpectedEof`]) propagate; an announced length
/// over [`MAX_FRAME`] or a zero-length frame (every message has at
/// least an opcode) comes back as [`io::ErrorKind::InvalidData`]
/// carrying a [`WireError`], *before* any payload allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn prefix.
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len),
        ));
    }
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Truncated,
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// --------------------------------------------------------------------------
// Incremental framing for nonblocking streams.
// --------------------------------------------------------------------------

/// Incremental frame decoder for the event-loop server: bytes arrive
/// from a nonblocking socket in arbitrary slices (a frame may be torn
/// across any number of reads, or several frames may land in one), and
/// [`FrameBuffer::next_frame`] yields each complete frame body exactly
/// once, in order.
///
/// Errors are sticky: an oversized or zero-length announced frame
/// poisons the stream (there is no way to resynchronize a
/// length-prefixed protocol past a bad prefix), and every subsequent
/// `next_frame` call reports the same error so the caller can tear the
/// connection down at its leisure.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
    poisoned: Option<WireError>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is dead.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame body, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] for a length prefix over [`MAX_FRAME`]
    /// and [`WireError::Truncated`] for a zero-length frame (every
    /// message has at least an opcode). Both are sticky — the stream
    /// cannot be resynchronized — and are reported *before* any
    /// payload allocation.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            self.poisoned = Some(WireError::Oversized(len));
            return Err(WireError::Oversized(len));
        }
        if len == 0 {
            self.poisoned = Some(WireError::Truncated);
            return Err(WireError::Truncated);
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Begin,
            Request::Read { key: 7 },
            Request::Write { key: 7, value: -3 },
            Request::Commit,
            Request::Abort,
            Request::Txn {
                ops: vec![
                    TxnOp::Get { key: 1 },
                    TxnOp::Put { key: 2, value: 9 },
                    TxnOp::Add { key: 3, delta: -4 },
                    TxnOp::Del { key: 4 },
                ],
            },
            Request::Stats,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Ok,
            Response::Value { value: None },
            Response::Value { value: Some(-9) },
            Response::Committed { commit_ts: 42 },
            Response::Aborted {
                conflict: WireConflict::WriteWrite,
            },
            Response::TxnResult {
                reads: vec![Some(1), None, Some(i64::MIN)],
                commit_ts: 8,
            },
            Response::Err {
                code: ErrCode::NoTxn,
                detail: "no open transaction".into(),
            },
            Response::Stats(WireStats {
                commits: 1,
                aborts: 2,
                versions_retired: 3,
                gc_reclaimed: 4,
                gc_ticks: 5,
                live_snapshots: 6,
                keys: 7,
            }),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn conflict_codes_are_pinned_and_code_2_is_retired() {
        // Literal bytes, so captures made by older peers still parse.
        for (conflict, code) in [
            (WireConflict::WriteWrite, 1),
            (WireConflict::ReadValidation, 3),
        ] {
            let resp = Response::Aborted { conflict };
            assert_eq!(resp.encode(), [OP_ABORTED, code]);
            assert_eq!(Response::decode(&[OP_ABORTED, code]), Ok(resp));
        }
        for code in [0, 2, 4, u8::MAX] {
            assert_eq!(
                Response::decode(&[OP_ABORTED, code]),
                Err(WireError::BadConflict(code))
            );
        }
    }

    #[test]
    fn hostile_op_count_is_rejected_before_allocating() {
        // opcode TXN + count u32::MAX, no ops behind it.
        let mut bytes = vec![OP_TXN];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::BadOpCount(u32::MAX))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Begin.encode();
        bytes.push(0xAA);
        assert_eq!(Request::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn framing_round_trips_and_reports_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Read { key: 3 }.encode()).unwrap();
        write_frame(&mut buf, &Request::Commit.encode()).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()),
            Ok(Request::Read { key: 3 })
        );
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()),
            Ok(Request::Commit)
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_buffer_yields_frames_across_split_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Read { key: 1 }.encode()).unwrap();
        write_frame(&mut wire, &Request::Commit.encode()).unwrap();

        // Feed one byte at a time: both frames still come out whole.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().expect("clean stream") {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(
            Request::decode(&got[0]),
            Ok(Request::Read { key: 1 }),
            "first frame intact"
        );
        assert_eq!(Request::decode(&got[1]), Ok(Request::Commit));
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_poisons_on_oversized_and_stays_poisoned() {
        let mut fb = FrameBuffer::new();
        fb.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Oversized(_))));
        fb.extend(&Request::Begin.encode());
        assert!(
            matches!(fb.next_frame(), Err(WireError::Oversized(_))),
            "poisoned stream never recovers"
        );
    }

    #[test]
    fn frame_buffer_rejects_zero_length_frames() {
        let mut fb = FrameBuffer::new();
        fb.extend(&0u32.to_le_bytes());
        assert_eq!(fb.next_frame(), Err(WireError::Truncated));
    }
}
