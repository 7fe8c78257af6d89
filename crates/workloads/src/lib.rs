//! # sitm-workloads — the paper's benchmarks as transaction programs
//!
//! The ten benchmarks of the SI-TM evaluation (section 6.2): the three
//! RSTM microbenchmarks — [`mod@array`], [`list`], [`rbtree`] — and seven
//! STAMP-like application kernels under [`stamp`]. Each is a
//! [`sitm_sim::Workload`]: it lays its shared data structures out in
//! multiversioned memory and manufactures per-thread streams of
//! [`sitm_sim::TxProgram`]s for the discrete-event engine.
//!
//! Data-structure algorithms are written as ordinary Rust against the
//! [`txm`] transaction machine, which adapts straight-line logic into
//! the resumable op-level programs the engine interleaves.
//!
//! Use [`registry`] to enumerate the benchmark suite as the figure
//! harnesses do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod list;
pub mod rbtree;
pub mod registry;
pub mod stamp;
pub mod txm;

pub use array::{ArrayParams, ArrayWorkload};
pub use list::{ListOp, ListOpKind, ListParams, ListWorkload};
pub use rbtree::{check_tree, RbOp, RbOpKind, RbTree, RbTreeParams, RbTreeWorkload};
pub use registry::{all_workloads, microbenchmarks, stamp_kernels, Scale};
pub use txm::{run_on_store, Diverged, LogicTx, TxLogic, TxMemory};
