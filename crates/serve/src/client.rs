//! A blocking client for the sitm-serve wire protocol.
//!
//! One [`Client`] wraps one TCP connection and therefore at most one
//! open interactive transaction (the protocol ties transaction
//! ownership to the connection). The convenience methods ([`begin`],
//! [`txn`], …) are synchronous request/response round-trips; the
//! split [`send`]/[`recv`] half lets a caller keep several requests
//! in flight on one connection — the server guarantees responses come
//! back in request order, so matching is positional.
//!
//! [`begin`]: Client::begin
//! [`txn`]: Client::txn
//! [`send`]: Client::send
//! [`recv`]: Client::recv

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use crate::wire::{read_frame, write_frame, Request, Response, TxnOp, WireConflict, WireStats};

/// What a request round-trip can fail with, beyond transport errors.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or the server hung up.
    Io(io::Error),
    /// The server answered something the request doesn't admit (a
    /// protocol bug on one side or the other).
    Unexpected(Response),
    /// The server refused the request at the protocol level
    /// (`ERR` frame: no transaction open, transaction already open,
    /// malformed payload, empty batch).
    Refused {
        /// The server's error code.
        code: crate::wire::ErrCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
            ClientError::Refused { code, detail } => write!(f, "refused ({code:?}): {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Outcome of a commit attempt: the timestamp, or the conflict that
/// aborted it (after which the client may simply `begin` again).
pub type CommitResult = Result<u64, WireConflict>;

/// A blocking connection to a sitm-serve server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// One request/response round-trip.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the transport fails or the server
    /// closes the connection mid-exchange.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.flush()?;
        self.recv()
    }

    /// Queues one request without waiting for its response (pipelined
    /// use). Buffered — call [`Client::flush`] to push queued frames
    /// onto the wire, then collect responses with [`Client::recv`] in
    /// the same order the requests were sent.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        Ok(())
    }

    /// Flushes queued frames onto the wire.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Blocks for the next in-order response on this connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the transport fails or the server
    /// closes the connection with responses still owed.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader)? {
            Some(frame) => Ok(Response::decode(&frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<(), ClientError> {
        match self.roundtrip(req)? {
            Response::Ok => Ok(()),
            Response::Err { code, detail } => Err(ClientError::Refused { code, detail }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Opens an interactive transaction on this connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] when one is already open.
    pub fn begin(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Begin)
    }

    /// Reads `key` — inside the open transaction, or as a one-shot
    /// snapshot read when none is open. `None` means the key is absent
    /// at the transaction's snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unexpected`] carrying [`Response::Aborted`] if
    /// the server had to kill the open transaction to serve the read
    /// (the protocol allows it; the server's snapshot reads never
    /// conflict today).
    pub fn read(&mut self, key: u64) -> Result<Option<i64>, ClientError> {
        match self.roundtrip(&Request::Read { key })? {
            Response::Value { value } => Ok(value),
            Response::Err { code, detail } => Err(ClientError::Refused { code, detail }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Writes `key = value` — buffered in the open transaction, or
    /// auto-committed when none is open.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn write(&mut self, key: u64, value: i64) -> Result<(), ClientError> {
        self.expect_ok(&Request::Write { key, value })
    }

    /// Commits the open transaction.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] when no transaction is open (e.g. a
    /// duplicate commit).
    pub fn commit(&mut self) -> Result<CommitResult, ClientError> {
        match self.roundtrip(&Request::Commit)? {
            Response::Committed { commit_ts } => Ok(Ok(commit_ts)),
            Response::Aborted { conflict } => Ok(Err(conflict)),
            Response::Err { code, detail } => Err(ClientError::Refused { code, detail }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Rolls back the open transaction.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] when no transaction is open.
    pub fn abort(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Abort)
    }

    /// Executes `ops` as one atomic snapshot-isolated batch through
    /// the server's group-commit path. Returns the `Get` results in op
    /// order plus the batch's commit timestamp.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] on an empty batch.
    pub fn txn(&mut self, ops: Vec<TxnOp>) -> Result<(Vec<Option<i64>>, u64), ClientError> {
        match self.roundtrip(&Request::Txn { ops })? {
            Response::TxnResult { reads, commit_ts } => Ok((reads, commit_ts)),
            Response::Err { code, detail } => Err(ClientError::Refused { code, detail }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fetches the server's commit/abort/GC counters.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Err { code, detail } => Err(ClientError::Refused { code, detail }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The underlying stream's peer address (for diagnostics).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.writer.get_ref().peer_addr()
    }
}
