//! Error and control-flow types of the software STM.
//!
//! Every [`Conflict`] is a commit-time validation failure. A snapshot
//! read has no failure path: retention is watermark-driven, so every
//! version a live snapshot can reach is still on its chain (DESIGN.md
//! §14).

use std::fmt;

/// Why a transaction attempt could not commit. The retry loop in
/// [`crate::Stm::atomically`] handles these internally; user code only
/// sees them through [`crate::Stm::try_atomically`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// Another transaction committed a newer version of a variable this
    /// transaction wrote (write-write conflict — the only conflict that
    /// aborts under plain snapshot isolation).
    WriteWrite,
    /// Under [`crate::IsolationLevel::Serializable`], a variable this
    /// transaction read (or explicitly promoted) changed before commit.
    ReadValidation,
}

impl Conflict {
    /// Short static label, used as the abort cause in recorded
    /// transaction histories (`sitm.txn.v1`).
    pub fn label(self) -> &'static str {
        match self {
            Conflict::WriteWrite => "write-write",
            Conflict::ReadValidation => "read-validation",
        }
    }
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conflict::WriteWrite => write!(f, "write-write conflict"),
            Conflict::ReadValidation => write!(f, "read-set validation failed"),
        }
    }
}

impl std::error::Error for Conflict {}

/// Error returned by transaction bodies to the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmError {
    /// The attempt conflicted and must be retried on a fresh snapshot.
    Conflict(Conflict),
}

impl fmt::Display for StmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmError::Conflict(c) => c.fmt(f),
        }
    }
}

impl std::error::Error for StmError {}

impl From<Conflict> for StmError {
    fn from(c: Conflict) -> Self {
        StmError::Conflict(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        for c in [Conflict::WriteWrite, Conflict::ReadValidation] {
            assert!(!c.to_string().is_empty());
            assert!(!StmError::from(c).to_string().is_empty());
            assert!(
                sitm_obs::ABORT_LABELS.contains(&c.label()),
                "{c}: a recorded history with this cause would not read back"
            );
        }
    }
}
