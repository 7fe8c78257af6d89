//! # sitm-skew — write-skew detection and read promotion
//!
//! Snapshot isolation is non-serializable: it permits the **write skew**
//! anomaly, where two overlapping transactions read an invariant's
//! variables and write disjoint subsets of them (section 5 of the SI-TM
//! paper; the classic example is Listing 1's bank withdraw). This crate
//! is the reproduction of the paper's dynamic-analysis tool:
//!
//! 1. record a globally ordered trace of transactional operations (the
//!    paper instruments binaries with PIN; here the `sitm-stm` runtime
//!    records every attempt into a [`sitm_obs::History`] when
//!    `Stm::with_history` is on — the same `sitm.txn.v1` stream the
//!    isolation oracle certifies),
//! 2. post-process: keep the committed transactions, take each one's
//!    lifetime from its begin/end sequence numbers and its
//!    read/write/promote sets from its operations,
//! 3. build the read-write anti-dependency graph over overlapping
//!    transactions and find its cycles — the necessary condition for a
//!    write skew ([`DependencyGraph`]),
//! 4. report each dangerous cycle and propose **read promotions** that
//!    turn the anomaly into an ordinary validation conflict
//!    ([`analyze`], [`WriteSkewReport`]).
//!
//! The analysis is best-effort in the same sense as the paper's tool:
//! it covers the schedules actually traced, flags false positives
//! rather than missing true ones within those schedules, and its value
//! grows with test coverage. Because the input is a plain `History`,
//! it can also be captured in one process and analysed offline: the
//! `skew_analyze` binary reads `History::to_jsonl` output.
//!
//! # Examples
//!
//! ```
//! use sitm_stm::{Stm, TVar};
//!
//! let stm = Stm::snapshot().with_history(1024);
//! let x = TVar::new_labeled("x", 1u64);
//! stm.atomically(|tx| {
//!     let v = tx.read(&x)?;
//!     tx.write(&x, v + 1);
//!     Ok(())
//! });
//! let report = sitm_skew::analyze(&stm.history().expect("recording is on"));
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod report;

pub use graph::{DependencyGraph, RwEdge};
pub use report::{analyze, Promotion, SkewFinding, SkewPattern, WriteSkewReport};
