//! sitm-serve: a network-facing snapshot-isolated transactional KV
//! service over the sitm-stm runtime.
//!
//! The crate turns the workspace's software SI-TM into an actual
//! service: `u64 → i64` keys stored in multiversioned
//! [`sitm_stm::TVar`]s, exposed over a length-prefixed binary wire
//! protocol on TCP. Clients get the full SI-TM contract end to end —
//! consistent snapshot reads that never abort, first-committer-wins
//! write-write detection, multi-key atomic batches — and the server's
//! recorded histories are certifiable by the sitm-check oracle.
//!
//! # Architecture (DESIGN.md §16–§17)
//!
//! - [`wire`] — the frame format and message types. Total, panic-free
//!   decoding: truncated, oversized and garbage frames come back as
//!   [`wire::WireError`]s, never panics. [`wire::FrameBuffer`]
//!   reassembles frames incrementally from arbitrary read boundaries
//!   for the pipelined event loop.
//! - [`reactor`] — a minimal readiness poller: raw `epoll` via direct
//!   syscalls (no external crates). sitm-serve runs on Linux
//!   x86_64/aarch64; elsewhere the crate builds but `Server::start`
//!   fails with `Unsupported`. The only `unsafe` in the crate lives in
//!   its private syscall layer.
//! - [`store`] — the sharded `key → TVar` directory. Directory locks
//!   cover only handle lookup; value concurrency is all STM. Hot
//!   paths additionally cache the immutable `key → TVar` binding
//!   thread-locally, so a steady-state request touches no directory
//!   lock at all.
//! - [`server`] — a fixed pool of event-loop threads multiplexing
//!   nonblocking connections (pipelined frames, in-order reply
//!   window, write backpressure), sharded deadline-bounded
//!   group-commit workers for one-shot `TXN` batches, and a periodic
//!   [`sitm_stm::TVar::compact`] GC tick.
//! - [`client`] — a blocking connection wrapper, plus split
//!   send/receive halves for pipelined use.
//! - [`loadgen`] — seeded load generation (the bank workload:
//!   conserved transfers + audits) in both closed-loop and pipelined
//!   open-loop modes, used by the serve crate's determinism tests.
//!
//! # Example
//!
//! ```
//! use sitm_serve::{Client, Server, ServerConfig, TxnOp};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! // One-shot atomic transfer: both legs or neither.
//! client
//!     .txn(vec![
//!         TxnOp::Add { key: 1, delta: 100 },
//!         TxnOp::Add { key: 2, delta: -100 },
//!     ])
//!     .unwrap();
//!
//! // Interactive transaction: reads see one snapshot.
//! client.begin().unwrap();
//! let a = client.read(1).unwrap();
//! let b = client.read(2).unwrap();
//! assert_eq!(a.unwrap() + b.unwrap(), 0);
//! client.commit().unwrap().unwrap();
//! server.shutdown();
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
mod conn;
pub mod loadgen;
pub mod reactor;
pub mod server;
pub mod store;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys;
pub mod wire;

pub use client::{Client, ClientError, CommitResult};
pub use loadgen::{percentile, LoadConfig, LoadReport};
pub use server::{Server, ServerConfig};
pub use store::Store;
pub use wire::{
    ErrCode, FrameBuffer, Request, Response, TxnOp, WireConflict, WireError, WireStats, MAX_FRAME,
};
