//! # comet-repo — versioned model repository
//!
//! Section 3 of the paper asks for "version management capabilities for
//! the model repository" and "an Undo/Redo facility for model
//! transformations", plus visual demarcation of model parts added by
//! different concrete transformations ("colors"). This crate provides:
//!
//! * [`Repository`] — linear-history-per-branch version store whose
//!   snapshots are XMI documents (via `comet-xmi`), content-hashed with
//!   FNV-1a; commit/undo/redo/branch/tag/checkout;
//! * each [`Commit`] stores the [`ModelDelta`](comet_model::ModelDelta)
//!   the transformation engine reported for its step, and
//!   [`Repository::diff`] computes the same record between any two
//!   commits;
//! * [`ColorReport`] — the per-concern element listing a visual tool
//!   would render as colors, plus the remaining-concern hint the paper
//!   suggests;
//! * durability without a second type: [`Repository::create`] and
//!   [`Repository::open`] give the repository a journal — an
//!   append-only, content-addressed segment store plus a write-ahead
//!   log ([`Wal`]). Each mutator then ships its operation to disk before
//!   applying it in memory, and open replays the journal, truncating
//!   torn tails, back to the last completed operation. A clone keeps
//!   the in-memory state only and never writes to the journal.
//!
//! ## Example
//!
//! ```
//! use comet_model::sample::banking_pim;
//! use comet_repo::Repository;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut repo = Repository::new("bank-models");
//! let mut model = banking_pim();
//! repo.commit(&model, "initial PIM", None)?;
//! let bank = model.find_class("Bank").unwrap();
//! model.apply_stereotype(bank, "Remote")?;
//! repo.commit(&model, "apply distribution CMT", Some("distribution"))?;
//! let before = repo.undo().unwrap()?;
//! assert!(!before.has_stereotype(before.find_class("Bank").unwrap(), "Remote")?);
//! let after = repo.redo().unwrap()?;
//! assert!(after.has_stereotype(after.find_class("Bank").unwrap(), "Remote")?);
//! # Ok(())
//! # }
//! ```

mod colors;
mod recover;
mod repo;
mod segment;
#[cfg(test)]
mod test_dir;
mod wal;

pub use colors::ColorReport;
pub use recover::{CompactionReport, DurableRepository, FsckReport, RecoveryReport};
pub use repo::{Commit, CommitId, RepoError, Repository, FAULT_POINT_COMMIT, FAULT_POINT_UNDO};
pub use wal::{CheckpointCommit, CheckpointState, Wal, WalOpenReport, WalRecord};
