//! # sitm-core — the SI-TM protocol and its baselines
//!
//! This crate implements the transactional-memory protocol models
//! evaluated in *SI-TM: Reducing Transactional Memory Abort Rates
//! through Snapshot Isolation* (ASPLOS 2014), all driving the
//! multiversioned memory substrate from `sitm-mvm` under the timing
//! model from `sitm-sim`:
//!
//! * [`SiTm`] — the paper's contribution (section 4): snapshot reads,
//!   invisible readers, lazy timestamp-based write-write validation,
//!   free read-only commits, unbounded transactions via transient
//!   version spill.
//! * [`SsiTm`] — serializable snapshot isolation (section 5.2): SI-TM
//!   plus a tracker of rw-edges that aborts any transaction completing a
//!   pivot (an incoming and an outgoing rw-edge).
//! * [`TwoPl`] — the eager requester-wins 2-phase-locking HTM baseline
//!   with perfect signatures and a bounded version buffer (section 6.1).
//! * [`Sontm`] — the conflict-serializable SONTM baseline with
//!   serializability-order-number ranges (section 6.1).
//!
//! All four implement [`sitm_sim::TmProtocol`] and can be driven either
//! directly (as the paper's hand schedules are, in this repo's
//! integration tests) or by the discrete-event engine over the workloads
//! in `sitm-workloads`.
//!
//! # Examples
//!
//! Two overlapping transactions conflict read-write; SI-TM commits both:
//!
//! ```
//! use sitm_core::SiTm;
//! use sitm_mvm::ThreadId;
//! use sitm_sim::{MachineConfig, TmProtocol, BeginOutcome, ReadOutcome, CommitOutcome};
//!
//! let mut tm = SiTm::new(&MachineConfig::with_cores(2));
//! let addr = tm.store_mut().alloc_words(1);
//! tm.store_mut().write_word(addr, 7);
//!
//! let reader = ThreadId(0);
//! let writer = ThreadId(1);
//! assert!(matches!(tm.begin(reader), BeginOutcome::Started { .. }));
//! assert!(matches!(tm.begin(writer), BeginOutcome::Started { .. }));
//! // The writer updates the word the reader is looking at…
//! tm.write(writer, addr, 8);
//! assert!(matches!(tm.commit(writer, 0), CommitOutcome::Committed { .. }));
//! // …and the reader still commits, reading its consistent snapshot.
//! match tm.read(reader, addr) {
//!     ReadOutcome::Ok { value, .. } => assert_eq!(value, 7),
//!     other => panic!("unexpected {other:?}"),
//! }
//! assert!(matches!(tm.commit(reader, 0), CommitOutcome::Committed { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod si_tm;
mod sontm;
mod ssi_tm;
mod two_pl;

pub use base::{ProtocolBase, WriteBuffer};
pub use si_tm::{SiTm, SiTmConfig};
pub use sontm::Sontm;
pub use ssi_tm::SsiTm;
pub use two_pl::TwoPl;
