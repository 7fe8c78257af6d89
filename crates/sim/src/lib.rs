//! # sitm-sim — deterministic multicore timing model for SI-TM
//!
//! The SI-TM paper evaluates its proposal on a cycle-accurate x86
//! simulator (ZSim). This crate is the reproduction's stand-in substrate:
//! a deterministic **discrete-event simulator** over logical threads with
//! per-core virtual cycle clocks, a set-associative L1/L2/L3+DRAM cache
//! model with the paper's Table 1 latencies, and interleaving at
//! memory-access granularity.
//!
//! The crate defines the three interfaces that tie the system together:
//!
//! * [`TxProgram`] / [`ThreadWorkload`] / [`Workload`] — benchmarks as
//!   resumable op-level state machines (`sitm-workloads` implements the
//!   paper's ten benchmarks against these traits),
//! * [`TmProtocol`] — the protocol driver interface implemented by
//!   SI-TM, SSI-TM, 2PL, and SONTM in `sitm-core`,
//! * [`Engine`] — the scheduler binding the two, with abort/retry,
//!   exponential backoff, and statistics collection.
//!
//! Relative results (abort ratios, speedup curves) are the paper's
//! claims; this model preserves the three ingredients those depend on —
//! realistic hierarchical access latencies, access-granularity
//! interleaving, and re-execution cost for aborted work — while leaving
//! out out-of-order core microarchitecture, which cancels out of the
//! comparisons.
//!
//! # Examples
//!
//! Running a workload requires a protocol implementation; see the
//! `sitm-core` crate for the four protocol models and `sitm` (the facade
//! crate) for end-to-end examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod engine;
mod program;
mod protocol;
mod stats;

pub use cache::{Cache, MemorySystem, ServedBy};
pub use config::{BackoffConfig, CacheParams, Cycles, MachineConfig, LINE_BYTES};
pub use engine::{run_simulation, Engine};
pub use program::{QueueWorkload, ScriptedTx, ThreadWorkload, TxOp, TxProgram, Workload};
pub use protocol::{
    Abort, AbortCause, BeginOutcome, CommitOutcome, ReadOutcome, TmProtocol, Victim, Victims,
    WriteOutcome,
};
pub use stats::{RunStats, ThreadStats};
