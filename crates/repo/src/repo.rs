//! The repository proper: XMI snapshots, branches, tags, undo/redo,
//! and each mutator's journalling when the repository has a journal.

use crate::recover::Journal;
use crate::wal::WalRecord;
use comet_middleware::{FaultHook, MiddlewareError};
use comet_model::{Model, ModelDelta};
use comet_obs::fnv1a64;
use comet_xmi::{export_model, import_model, XmiError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Fault point name: the next commit fails ([`FaultHook`]).
pub const FAULT_POINT_COMMIT: &str = "repo.commit";
/// Fault point name: the next undo fails ([`FaultHook`]).
pub const FAULT_POINT_UNDO: &str = "repo.undo";

/// Identifier of a commit within one repository.
pub type CommitId = u64;

/// One committed model version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// The commit id.
    pub id: CommitId,
    /// Parent commit, if any.
    pub parent: Option<CommitId>,
    /// Commit message.
    pub message: String,
    /// The concern whose transformation produced this version, if any.
    pub concern: Option<String>,
    /// FNV-1a content hash of the snapshot.
    pub hash: u64,
    /// Element-level delta over the parent, as the transformation
    /// engine's change journal reported it, when the committer supplied
    /// one (see [`Repository::commit_with_delta`]). Stored so
    /// adjacent-version comparisons need no snapshot decode.
    pub delta: Option<ModelDelta>,
    /// Shared, not copied: a commit that reuses its parent's content
    /// and a lifecycle reading its head hold the same bytes.
    pub(crate) snapshot: Arc<str>,
}

impl Commit {
    /// The XMI snapshot text.
    pub fn snapshot_xmi(&self) -> &str {
        &self.snapshot
    }

    /// A shared handle on the XMI snapshot (an `Arc` clone, no copy).
    pub fn snapshot_shared(&self) -> Arc<str> {
        Arc::clone(&self.snapshot)
    }
}

/// Repository failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RepoError {
    /// A commit id does not exist.
    UnknownCommit(CommitId),
    /// A branch name does not exist.
    UnknownBranch(String),
    /// A branch with this name already exists.
    BranchExists(String),
    /// A tag name does not exist.
    UnknownTag(String),
    /// A snapshot failed to decode (repository corruption).
    Corrupt(XmiError),
    /// The storage backend rejected the operation (also the variant the
    /// fault-injection hooks raise in tests).
    Storage(String),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::UnknownCommit(id) => write!(f, "unknown commit {id}"),
            RepoError::UnknownBranch(b) => write!(f, "unknown branch `{b}`"),
            RepoError::BranchExists(b) => write!(f, "branch `{b}` already exists"),
            RepoError::UnknownTag(t) => write!(f, "unknown tag `{t}`"),
            RepoError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            RepoError::Storage(detail) => write!(f, "storage failure: {detail}"),
        }
    }
}

impl std::error::Error for RepoError {}

/// Imports a commit's XMI snapshot.
pub(crate) fn decode(commit: &Commit) -> Result<Model, RepoError> {
    import_model(&commit.snapshot).map_err(RepoError::Corrupt)
}

/// Direction of one head step through the current branch's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Undo: one commit back.
    Back,
    /// Redo: one commit forward.
    Forward,
}

/// A versioned model repository with linear history per branch.
///
/// Undo/redo is a position pointer into the current branch's history;
/// committing after an undo truncates the redo tail (like an editor).
///
/// [`Repository::new`] keeps everything in memory.
/// [`Repository::create`] and [`Repository::open`] attach a journal:
/// every mutator then ships its operation to disk before applying it,
/// and a crash at any byte boundary reopens to the last completed
/// operation (see the `recover` module).
#[derive(Debug)]
pub struct Repository {
    pub(crate) name: String,
    pub(crate) commits: BTreeMap<CommitId, Commit>,
    pub(crate) next_id: CommitId,
    pub(crate) branches: BTreeMap<String, Vec<CommitId>>,
    pub(crate) current_branch: String,
    /// Number of *visible* commits on the current branch (undo reduces
    /// it, redo restores it, commit truncates beyond it).
    pub(crate) position: usize,
    pub(crate) tags: BTreeMap<String, CommitId>,
    /// Fault injection for lifecycle consistency tests: when set, the
    /// next commit / undo fails with [`RepoError::Storage`].
    fail_next_commit: bool,
    fail_next_undo: bool,
    /// The on-disk journal; `None` for an in-memory repository.
    pub(crate) journal: Option<Journal>,
}

/// Copies the in-memory state only. The clone has no journal, so it
/// can never write to the files of the repository it was cloned from.
impl Clone for Repository {
    fn clone(&self) -> Self {
        Repository {
            name: self.name.clone(),
            commits: self.commits.clone(),
            next_id: self.next_id,
            branches: self.branches.clone(),
            current_branch: self.current_branch.clone(),
            position: self.position,
            tags: self.tags.clone(),
            fail_next_commit: self.fail_next_commit,
            fail_next_undo: self.fail_next_undo,
            journal: None,
        }
    }
}

impl Repository {
    /// Creates an empty in-memory repository with a `main` branch.
    pub fn new(name: impl Into<String>) -> Self {
        let mut branches = BTreeMap::new();
        branches.insert("main".to_owned(), Vec::new());
        Repository {
            name: name.into(),
            commits: BTreeMap::new(),
            next_id: 1,
            branches,
            current_branch: "main".to_owned(),
            position: 0,
            tags: BTreeMap::new(),
            fail_next_commit: false,
            fail_next_undo: false,
            journal: None,
        }
    }

    /// Repository name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current branch name.
    pub fn current_branch(&self) -> &str {
        &self.current_branch
    }

    fn branch_history(&self) -> &Vec<CommitId> {
        self.branches.get(&self.current_branch).expect("current branch always exists")
    }

    /// Whether every mutation is journalled to disk.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Durability barriers the write-ahead log issued since this handle
    /// opened — one `sync_data` per appended record; 0 without a
    /// journal. The segment store's syncs are not counted: it syncs only
    /// when a commit brings content it does not hold yet. Serving hosts
    /// bridge this into their metrics.
    pub fn wal_fsyncs(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::fsyncs)
    }

    /// Appends `record` to the journal, if there is one.
    fn journal(&mut self, record: &WalRecord) -> Result<(), RepoError> {
        self.journal.as_mut().map_or(Ok(()), |journal| journal.append(record))
    }

    /// Commits a snapshot of `model` on the current branch. Truncates any
    /// redo tail first.
    ///
    /// # Errors
    /// Fails on an injected storage fault, and with a journal on I/O
    /// failure.
    pub fn commit(
        &mut self,
        model: &Model,
        message: &str,
        concern: Option<&str>,
    ) -> Result<CommitId, RepoError> {
        self.commit_inner(model, message, concern, None)
    }

    /// Commits with a known element-level delta over the parent (the
    /// transformation journal's summary), stored on the commit for
    /// decode-free history queries.
    ///
    /// In memory, an **empty** delta skips the O(model) XMI export by
    /// reusing the parent's snapshot — a model identical to its parent
    /// serializes identically — and the claim is verified in debug
    /// builds only. With a journal the commit always exports and
    /// **verifies** an empty delta against the bytes: a stale snapshot
    /// persisted under a wrong hash would poison every later recovery.
    /// With a journal, a commit that re-creates content this handle
    /// already journalled from the same parent with the same delta ids
    /// takes its hash from the stored segment, after a full-byte
    /// compare, instead of hashing the snapshot.
    ///
    /// # Errors
    /// As [`commit`](Self::commit); with a journal also on a lying
    /// empty delta.
    pub fn commit_with_delta(
        &mut self,
        model: &Model,
        message: &str,
        concern: Option<&str>,
        delta: ModelDelta,
    ) -> Result<CommitId, RepoError> {
        self.commit_inner(model, message, concern, Some(delta))
    }

    fn commit_inner(
        &mut self,
        model: &Model,
        message: &str,
        concern: Option<&str>,
        delta: Option<ModelDelta>,
    ) -> Result<CommitId, RepoError> {
        if std::mem::take(&mut self.fail_next_commit) {
            return Err(RepoError::Storage("injected commit failure".to_owned()));
        }
        let head = self.head();
        let head_hash = head.map(|head| head.hash);
        let parent = head.filter(|_| delta.as_ref().is_some_and(ModelDelta::is_empty));
        let (snapshot, known_hash): (Arc<str>, Option<u64>) = match parent {
            Some(p) if self.journal.is_none() => {
                debug_assert_eq!(
                    fnv1a64(export_model(model).as_bytes()),
                    p.hash,
                    "empty ModelDelta for `{message}` but the model content \
                     differs from parent commit {}",
                    p.id
                );
                (p.snapshot_shared(), Some(p.hash))
            }
            _ => {
                let snapshot = export_model(model);
                // Only a journalled commit reaches here with a parent;
                // equal bytes mean the parent's hash too.
                if let Some(p) = parent.filter(|p| *p.snapshot != *snapshot) {
                    return Err(RepoError::Storage(format!(
                        "empty ModelDelta for `{message}` but the model content differs \
                         from parent commit {} — refusing to journal a lying delta",
                        p.id
                    )));
                }
                (snapshot.into(), None)
            }
        };
        let hash = match &mut self.journal {
            Some(journal) => {
                journal.commit(&snapshot, head_hash, message, concern, delta.as_ref())?
            }
            None => known_hash.unwrap_or_else(|| fnv1a64(snapshot.as_bytes())),
        };
        Ok(self.commit_raw(snapshot, hash, message, concern, delta))
    }

    /// The infallible commit core shared by [`commit`](Self::commit)
    /// and journal replay (which brings the stored bytes): truncates the
    /// redo tail, inserts the commit, advances the head, and
    /// garbage-collects commits the truncation orphaned.
    pub(crate) fn commit_raw(
        &mut self,
        snapshot: Arc<str>,
        hash: u64,
        message: &str,
        concern: Option<&str>,
        delta: Option<ModelDelta>,
    ) -> CommitId {
        let history =
            self.branches.get_mut(&self.current_branch).expect("current branch always exists");
        let truncated = history.split_off(self.position);
        let parent = history.last().copied();
        let id = self.next_id;
        self.next_id += 1;
        self.commits.insert(
            id,
            Commit {
                id,
                parent,
                message: message.to_owned(),
                concern: concern.map(str::to_owned),
                hash,
                delta,
                snapshot,
            },
        );
        let history =
            self.branches.get_mut(&self.current_branch).expect("current branch always exists");
        history.push(id);
        self.position = history.len();
        if !truncated.is_empty() {
            self.collect_orphans(&truncated);
        }
        id
    }

    /// Drops truncated commits that no branch or tag can reach any
    /// more. Without this, the serve-tier apply/undo/apply steady state
    /// grows `commits` without bound: every commit-after-undo truncates
    /// the redo tail from the branch history but used to leave the
    /// orphaned commits in the map forever.
    fn collect_orphans(&mut self, candidates: &[CommitId]) {
        let mut reachable: BTreeSet<CommitId> = self.branches.values().flatten().copied().collect();
        reachable.extend(self.tags.values().copied());
        // Parent closure: a reachable commit keeps its whole ancestry
        // (diffs and checkouts may address ancestors by id).
        let mut stack: Vec<CommitId> = reachable.iter().copied().collect();
        while let Some(id) = stack.pop() {
            if let Some(parent) = self.commits.get(&id).and_then(|c| c.parent) {
                if reachable.insert(parent) {
                    stack.push(parent);
                }
            }
        }
        for id in candidates {
            if !reachable.contains(id) {
                self.commits.remove(id);
            }
        }
    }

    /// The visible head commit of the current branch, if any.
    pub fn head(&self) -> Option<&Commit> {
        self.commit_at(self.position).ok().flatten()
    }

    /// The commit a head at `position` on the current branch shows
    /// (`None` at the root). Fails when the history names a commit the
    /// repository no longer holds.
    pub(crate) fn commit_at(&self, position: usize) -> Result<Option<&Commit>, RepoError> {
        let Some(index) = position.checked_sub(1) else { return Ok(None) };
        let id = self.branch_history()[index];
        self.commits.get(&id).map(Some).ok_or(RepoError::UnknownCommit(id))
    }

    /// Checks out the model at the visible head.
    ///
    /// # Errors
    /// Fails only on snapshot corruption.
    pub fn head_model(&self) -> Option<Result<Model, RepoError>> {
        self.head().map(decode)
    }

    /// Checks out an arbitrary commit.
    ///
    /// # Errors
    /// Fails on unknown ids or snapshot corruption.
    pub fn checkout(&self, id: CommitId) -> Result<Model, RepoError> {
        decode(self.commits.get(&id).ok_or(RepoError::UnknownCommit(id))?)
    }

    /// Steps the visible head one commit back; returns the model now at
    /// head (i.e. the state *before* the undone transformation), or
    /// `None` when there is nothing to undo.
    ///
    /// Atomic: on any `Err` — storage fault or snapshot corruption —
    /// the head position does not move and nothing is journalled, so
    /// callers never need a compensating [`redo`](Self::redo).
    pub fn undo(&mut self) -> Option<Result<Model, RepoError>> {
        self.step_model(Step::Back)
    }

    /// Steps the visible head one commit forward; returns the restored
    /// model, or `None` when there is nothing to redo.
    ///
    /// Atomic like [`undo`](Self::undo): on a snapshot-corruption `Err`
    /// the head position does not move and nothing is journalled.
    pub fn redo(&mut self) -> Option<Result<Model, RepoError>> {
        self.step_model(Step::Forward)
    }

    /// Steps the visible head one commit back *without* decoding the
    /// snapshot it lands on — for a caller that restores that commit's
    /// model itself (the lifecycle reverting the undone step's change
    /// journal). `None` when there is nothing to undo; atomic like
    /// [`undo`](Self::undo), and it fails on the same armed fault. Its
    /// journal record is the same `Undo` [`undo`](Self::undo) appends,
    /// so replay cannot tell them apart.
    pub fn undo_head(&mut self) -> Option<Result<(), RepoError>> {
        self.journalled_step(Step::Back, |_| Ok(()))
    }

    /// One undo/redo step that decodes the snapshot it lands on.
    fn step_model(&mut self, dir: Step) -> Option<Result<Model, RepoError>> {
        let landed = self.journalled_step(dir, |commit| commit.map(decode).transpose())?;
        // Undoing the initial commit lands on the root: the "model before
        // anything" is not stored; report an empty model of the same name.
        Some(landed.map(|model| model.unwrap_or_else(|| Model::new(self.name.clone()))))
    }

    /// The undo/redo mutator, in the order every mutator follows: it
    /// takes an armed undo fault, runs `check` on the commit the head
    /// lands on, journals the step, and only then moves the head — which
    /// cannot fail. A record therefore reaches the journal only for a
    /// step that has already succeeded.
    fn journalled_step<T>(
        &mut self,
        dir: Step,
        check: impl FnOnce(Option<&Commit>) -> Result<T, RepoError>,
    ) -> Option<Result<T, RepoError>> {
        let target = self.step_target(dir)?;
        if dir == Step::Back && std::mem::take(&mut self.fail_next_undo) {
            return Some(Err(RepoError::Storage("injected undo failure".to_owned())));
        }
        let checked = self.commit_at(target).and_then(check);
        Some(checked.and_then(|landed| {
            let record = if dir == Step::Back { WalRecord::Undo } else { WalRecord::Redo };
            self.journal(&record)?;
            self.position = target;
            Ok(landed)
        }))
    }

    /// The head position one step in `dir`, or `None` when there is
    /// nothing to step over. Shared by [`undo`](Self::undo),
    /// [`redo`](Self::redo) and journal replay.
    pub(crate) fn step_target(&self, dir: Step) -> Option<usize> {
        match dir {
            Step::Back => self.position.checked_sub(1),
            Step::Forward => {
                (self.position < self.branch_history().len()).then_some(self.position + 1)
            }
        }
    }

    /// Number of undoable steps.
    pub fn undo_depth(&self) -> usize {
        self.position
    }

    /// Number of redoable steps.
    pub fn redo_depth(&self) -> usize {
        self.branch_history().len() - self.position
    }

    /// Creates a branch starting from the current visible head and
    /// switches to it.
    ///
    /// # Errors
    /// Fails when the branch exists, and with a journal on I/O failure.
    pub fn branch(&mut self, name: &str) -> Result<(), RepoError> {
        if self.branches.contains_key(name) {
            return Err(RepoError::BranchExists(name.to_owned()));
        }
        self.journal(&WalRecord::Branch { name: name.to_owned() })?;
        let visible: Vec<CommitId> = self.branch_history()[..self.position].to_vec();
        self.branches.insert(name.to_owned(), visible);
        self.current_branch = name.to_owned();
        // position stays: same number of visible commits.
        Ok(())
    }

    /// Switches to an existing branch (head = its full history).
    ///
    /// # Errors
    /// Fails when the branch is unknown, and with a journal on I/O
    /// failure.
    pub fn switch_branch(&mut self, name: &str) -> Result<(), RepoError> {
        if !self.branches.contains_key(name) {
            return Err(RepoError::UnknownBranch(name.to_owned()));
        }
        self.journal(&WalRecord::SwitchBranch { name: name.to_owned() })?;
        self.current_branch = name.to_owned();
        self.position = self.branch_history().len();
        Ok(())
    }

    /// All branch names, sorted.
    pub fn branch_names(&self) -> Vec<&str> {
        self.branches.keys().map(String::as_str).collect()
    }

    /// Tags the current visible head.
    ///
    /// # Errors
    /// Fails when there is no head, and with a journal on I/O failure.
    pub fn tag(&mut self, name: &str) -> Result<CommitId, RepoError> {
        let head = self.head().ok_or(RepoError::UnknownCommit(0))?.id;
        self.journal(&WalRecord::Tag { name: name.to_owned() })?;
        self.tags.insert(name.to_owned(), head);
        Ok(head)
    }

    /// Checks out a tagged model.
    ///
    /// # Errors
    /// Fails on unknown tags or snapshot corruption.
    pub fn checkout_tag(&self, name: &str) -> Result<Model, RepoError> {
        let id = *self.tags.get(name).ok_or_else(|| RepoError::UnknownTag(name.to_owned()))?;
        self.checkout(id)
    }

    /// Element-level delta between two commits (from `a` to `b`).
    ///
    /// # Errors
    /// Fails on unknown ids or snapshot corruption.
    pub fn diff(&self, a: CommitId, b: CommitId) -> Result<ModelDelta, RepoError> {
        Ok(ModelDelta::between(&self.checkout(a)?, &self.checkout(b)?))
    }

    /// The visible commit log of the current branch, oldest first.
    pub fn log(&self) -> Vec<&Commit> {
        self.branch_history()[..self.position]
            .iter()
            .filter_map(|id| self.commits.get(id))
            .collect()
    }

    /// Total number of commits stored across branches.
    pub fn len(&self) -> usize {
        self.commits.len()
    }

    /// True when no commit was ever made.
    pub fn is_empty(&self) -> bool {
        self.commits.is_empty()
    }
}

/// The repository's one-shot fault points, unified with the middleware
/// runtime behind [`FaultHook`]: arming [`FAULT_POINT_COMMIT`] makes
/// the next commit fail with [`RepoError::Storage`] without touching
/// any state; [`FAULT_POINT_UNDO`] does the same for the next undo
/// without moving the head position. Both fire before anything is
/// journalled.
impl FaultHook for Repository {
    fn fault_points(&self) -> Vec<&'static str> {
        vec![FAULT_POINT_COMMIT, FAULT_POINT_UNDO]
    }

    fn arm_fault(&mut self, point: &str) -> Result<(), MiddlewareError> {
        match point {
            FAULT_POINT_COMMIT => self.fail_next_commit = true,
            FAULT_POINT_UNDO => self.fail_next_undo = true,
            other => return Err(MiddlewareError::UnknownFaultPoint(other.to_owned())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::banking_pim;

    fn repo_with_two_versions() -> (Repository, Model, Model) {
        let mut repo = Repository::new("bank");
        let v1 = banking_pim();
        repo.commit(&v1, "initial", None).unwrap();
        let mut v2 = v1.clone();
        let bank = v2.find_class("Bank").unwrap();
        v2.apply_stereotype(bank, "Remote").unwrap();
        repo.commit(&v2, "distribution", Some("distribution")).unwrap();
        (repo, v1, v2)
    }

    #[test]
    fn commit_and_head() {
        let (repo, _v1, v2) = repo_with_two_versions();
        assert_eq!(repo.len(), 2);
        assert!(!repo.is_empty());
        let head = repo.head().unwrap();
        assert_eq!(head.message, "distribution");
        assert_eq!(head.concern.as_deref(), Some("distribution"));
        assert_eq!(repo.head_model().unwrap().unwrap(), v2);
        assert!(head.snapshot_xmi().contains("Remote"));
    }

    #[test]
    fn undo_redo_inverse() {
        let (mut repo, v1, v2) = repo_with_two_versions();
        assert_eq!(repo.undo_depth(), 2);
        assert_eq!(repo.redo_depth(), 0);
        assert_eq!(repo.undo().unwrap().unwrap(), v1);
        assert_eq!(repo.redo_depth(), 1);
        assert_eq!(repo.redo().unwrap().unwrap(), v2);
        // Undo to the very beginning yields an empty model.
        repo.undo();
        let empty = repo.undo().unwrap().unwrap();
        assert_eq!(empty.len(), 1);
        assert!(repo.undo().is_none());
        // Redo all the way back.
        repo.redo();
        assert_eq!(repo.redo().unwrap().unwrap(), v2);
        assert!(repo.redo().is_none());
    }

    #[test]
    fn head_only_undo_moves_the_head_without_decoding() {
        let (mut repo, _v1, v2) = repo_with_two_versions();
        repo.arm_fault(FAULT_POINT_UNDO).unwrap();
        assert!(matches!(repo.undo_head(), Some(Err(RepoError::Storage(_)))));
        assert_eq!(repo.head_model().unwrap().unwrap(), v2, "a faulted step moved the head");
        let first = repo.log()[0].id;
        repo.commits.get_mut(&first).unwrap().snapshot = "<not xmi".into();
        // `undo` decodes the landing snapshot, fails, and stays put...
        assert!(matches!(repo.undo(), Some(Err(RepoError::Corrupt(_)))));
        assert_eq!(repo.undo_depth(), 2);
        // ...while the head-only step reads no snapshot at all.
        repo.undo_head().unwrap().unwrap();
        assert_eq!(repo.head().unwrap().id, first);
        repo.undo_head().unwrap().unwrap();
        assert!(repo.head().is_none());
        assert!(repo.undo_head().is_none(), "nothing left to undo");
    }

    #[test]
    fn commit_after_undo_truncates_redo() {
        let (mut repo, v1, _v2) = repo_with_two_versions();
        repo.undo();
        let mut v3 = v1.clone();
        v3.add_class(v3.root(), "Other").unwrap();
        repo.commit(&v3, "alternative", None).unwrap();
        assert!(repo.redo().is_none());
        assert_eq!(repo.head_model().unwrap().unwrap(), v3);
        assert_eq!(repo.log().len(), 2);
        // The truncated commit is unreachable and must be collected.
        assert_eq!(repo.len(), 2);
    }

    #[test]
    fn commit_after_undo_does_not_leak_orphaned_commits() {
        // The serve-tier steady state: apply, undo, apply, undo, ...
        // Every commit-after-undo truncates the redo tail; the orphans
        // must be garbage-collected or `commits` grows without bound.
        let mut repo = Repository::new("bank");
        let v1 = banking_pim();
        repo.commit(&v1, "initial", None).unwrap();
        let mut v2 = v1.clone();
        let bank = v2.find_class("Bank").unwrap();
        v2.apply_stereotype(bank, "Remote").unwrap();
        for i in 0..1000 {
            repo.commit(&v2, &format!("step {i}"), Some("distribution")).unwrap();
            repo.undo().unwrap().unwrap();
        }
        // One live commit (initial) plus at most one redo tail.
        assert!(
            repo.len() <= 2,
            "commits leaked: {} stored after 1000 apply/undo iterations",
            repo.len()
        );
        assert_eq!(repo.log().len(), 1);
        // The history itself is intact: redo still works.
        assert_eq!(repo.redo().unwrap().unwrap(), v2);
    }

    #[test]
    fn truncation_spares_tagged_and_branched_commits() {
        let (mut repo, v1, v2) = repo_with_two_versions();
        repo.tag("keep-me").unwrap();
        repo.undo();
        let mut v3 = v1.clone();
        v3.add_class(v3.root(), "Other").unwrap();
        repo.commit(&v3, "alternative", None).unwrap();
        // The truncated v2 commit survives: the tag still reaches it.
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.checkout_tag("keep-me").unwrap(), v2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty ModelDelta")]
    fn lying_empty_delta_trips_the_debug_verification() {
        let (mut repo, _v1, v2) = repo_with_two_versions();
        let mut v3 = v2.clone();
        v3.add_class(v3.root(), "Sneaky").unwrap();
        // The journal lies: the model changed but the delta says empty.
        repo.commit_with_delta(&v3, "lying", None, ModelDelta::default()).unwrap();
    }

    #[test]
    fn honest_empty_delta_reuses_the_parent_snapshot() {
        let (mut repo, _v1, v2) = repo_with_two_versions();
        let head_hash = repo.head().unwrap().hash;
        let id = repo
            .commit_with_delta(&v2, "no-op step", Some("transactions"), ModelDelta::default())
            .unwrap();
        let c = repo.commits.get(&id).unwrap();
        assert_eq!(c.hash, head_hash, "unchanged model shares the parent's content hash");
        assert_eq!(repo.checkout(id).unwrap(), v2);
    }

    #[test]
    fn hashes_distinguish_content() {
        let (repo, _, _) = repo_with_two_versions();
        let log = repo.log();
        assert_ne!(log[0].hash, log[1].hash);
        assert_eq!(log[1].parent, Some(log[0].id));
    }

    #[test]
    fn branches_and_tags() {
        let (mut repo, v1, v2) = repo_with_two_versions();
        repo.tag("psm-v1").unwrap();
        repo.undo();
        repo.branch("experiment").unwrap();
        assert_eq!(repo.current_branch(), "experiment");
        let mut v3 = v1.clone();
        v3.add_class(v3.root(), "Experimental").unwrap();
        repo.commit(&v3, "experiment", None).unwrap();
        assert_eq!(repo.head_model().unwrap().unwrap(), v3);
        // Main still has both commits.
        repo.switch_branch("main").unwrap();
        assert_eq!(repo.head_model().unwrap().unwrap(), v2);
        assert_eq!(repo.checkout_tag("psm-v1").unwrap(), v2);
        assert_eq!(repo.branch_names(), vec!["experiment", "main"]);
        assert!(matches!(repo.branch("main"), Err(RepoError::BranchExists(_))));
        assert!(matches!(repo.switch_branch("ghost"), Err(RepoError::UnknownBranch(_))));
        assert!(matches!(repo.checkout_tag("ghost"), Err(RepoError::UnknownTag(_))));
    }

    #[test]
    fn diff_between_commits() {
        let (repo, _, _) = repo_with_two_versions();
        let log: Vec<CommitId> = repo.log().iter().map(|c| c.id).collect();
        let d = repo.diff(log[0], log[1]).unwrap();
        assert_eq!(d.created.len(), 0);
        assert_eq!(d.modified.len(), 1);
        assert!(matches!(repo.diff(999, log[0]), Err(RepoError::UnknownCommit(999))));
    }

    #[test]
    fn fault_hook_arms_one_shot_failures() {
        let (mut repo, _v1, v2) = repo_with_two_versions();
        assert_eq!(repo.fault_points(), vec![FAULT_POINT_COMMIT, FAULT_POINT_UNDO]);
        repo.arm_fault(FAULT_POINT_COMMIT).unwrap();
        assert!(matches!(repo.commit(&v2, "x", None), Err(RepoError::Storage(_))));
        // One-shot: the retry goes through.
        repo.commit(&v2, "x", None).unwrap();
        repo.arm_fault(FAULT_POINT_UNDO).unwrap();
        assert!(matches!(repo.undo(), Some(Err(RepoError::Storage(_)))));
        assert!(repo.undo().unwrap().is_ok());
        assert!(matches!(
            repo.arm_fault("repo.reindex"),
            Err(MiddlewareError::UnknownFaultPoint(_))
        ));
    }

    #[test]
    fn empty_repo_behaviour() {
        let mut repo = Repository::new("empty");
        assert!(repo.head().is_none());
        assert!(repo.head_model().is_none());
        assert!(repo.undo().is_none());
        assert!(repo.redo().is_none());
        assert!(matches!(repo.tag("x"), Err(RepoError::UnknownCommit(0))));
        assert_eq!(repo.log().len(), 0);
    }
}
