//! # sitm — snapshot-isolation transactional memory
//!
//! A comprehensive reproduction of *SI-TM: Reducing Transactional Memory
//! Abort Rates through Snapshot Isolation* (Litz, Cheriton,
//! Firoozshahian, Azizi, Stevenson — ASPLOS 2014), as a family of Rust
//! crates re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`obs`] | `sitm-obs` | the observability layer: recorded histories, metrics, run reports, abort forensics |
//! | [`mvm`] | `sitm-mvm` | the multiversioned memory substrate: timestamped version lists, copy-on-write, coalescing, garbage collection (paper §3) |
//! | [`sim`] | `sitm-sim` | the deterministic discrete-event multicore + cache timing model standing in for ZSim (§6 platform) |
//! | [`core`] | `sitm-core` | the protocols: SI-TM (§4), SSI-TM (§5.2), and the 2PL / SONTM baselines (§6.1) |
//! | [`workloads`] | `sitm-workloads` | the ten benchmarks: array, list, red-black tree and seven STAMP-like kernels (§6.2) |
//! | [`stm`] | `sitm-stm` | a real-thread software snapshot-isolation STM with dynamically multiversioned [`stm::TVar`]s (epoch-GC'd version retention) |
//! | [`check`] | `sitm-check` | the isolation oracle: certifies recorded histories against each protocol's axioms |
//! | [`skew`] | `sitm-check` | write-skew detection on the oracle's serialization graph, with automatic read promotion (§5.1) |
//!
//! Start with the [`stm`] module to *use* snapshot isolation from Rust
//! threads, or with [`sim`]/[`core`]/[`workloads`] to *reproduce* the
//! paper's evaluation (the `sitm-bench` crate regenerates every table
//! and figure; see `EXPERIMENTS.md`).
//!
//! # Examples
//!
//! The headline property — read-only transactions and readers never
//! abort, even while writers commit under them:
//!
//! ```
//! use sitm::stm::{Stm, TVar};
//! use std::sync::Arc;
//! use std::thread;
//!
//! let stm = Arc::new(Stm::snapshot());
//! let cells: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
//!
//! thread::scope(|s| {
//!     // Writers update random cells...
//!     for t in 0..4u64 {
//!         let stm = Arc::clone(&stm);
//!         let cells = cells.clone();
//!         s.spawn(move || {
//!             for i in 0..100u64 {
//!                 stm.atomically(|tx| {
//!                     let idx = ((t * 100 + i) % 64) as usize;
//!                     let v = tx.read(&cells[idx])?;
//!                     tx.write(&cells[idx], v + 1);
//!                     Ok(())
//!                 });
//!             }
//!         });
//!     }
//!     // ...while a scanner repeatedly sums a consistent snapshot.
//!     let stm = Arc::clone(&stm);
//!     let cells = cells.clone();
//!     s.spawn(move || {
//!         for _ in 0..50 {
//!             let _sum: u64 = stm.atomically(|tx| {
//!                 let mut sum = 0;
//!                 for c in &cells {
//!                     sum += tx.read(c)?;
//!                 }
//!                 Ok(sum)
//!             });
//!         }
//!     });
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sitm_check as check;
pub use sitm_check::skew;
pub use sitm_core as core;
pub use sitm_mvm as mvm;
pub use sitm_obs as obs;
pub use sitm_serve as serve;
pub use sitm_sim as sim;
pub use sitm_stm as stm;
pub use sitm_workloads as workloads;
