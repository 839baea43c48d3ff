//! Crash recovery: the journal that makes a [`Repository`] durable.
//!
//! A repository made by [`Repository::create`] or [`Repository::open`]
//! holds a journal, and each of its mutators ships the operation to
//! disk *first*:
//!
//! 1. the snapshot bytes go to the append-only
//!    [`SegmentStore`](crate::segment::SegmentStore) (content-addressed
//!    by FNV-1a, full-byte-verified dedupe),
//! 2. the operation record goes to the [`Wal`](crate::wal::Wal),
//! 3. only then is the in-memory state updated.
//!
//! A crash between (1) and (2) leaves an orphan segment — garbage that
//! compaction reclaims, never corruption. A crash *during* (1) or (2)
//! leaves a torn tail that the checksummed framing detects and
//! truncates on the next open. [`Repository::open`] therefore recovers
//! exactly the state of the last completed operation.
//!
//! Replay applies commit records from the segment bytes without any
//! XMI work. Undo and redo records only move the head position, through
//! the same step core as [`Repository::undo`]/[`Repository::redo`]; the
//! snapshot each one lands on is still XMI-imported as a corruption
//! check, but each distinct content only once per open (keyed by hash
//! plus full bytes). A churn journal — many undos over a handful of
//! contents — therefore replays in time linear in its records plus a
//! few decodes, not one full decode per undo.
//!
//! Recovery invariants (checked by [`Repository::fsck`]):
//!
//! * every WAL commit record resolves to a byte-verified segment;
//! * replaying the WAL yields a repository whose branch histories,
//!   position and tags are internally consistent;
//! * segments unreachable from any live commit are garbage, not errors
//!   (compaction drops them and checkpoints the live state);
//! * compaction's two-file publish is itself crash-ordered: the
//!   checkpoint WAL lands first and resolves against the old *and* the
//!   new segment store (live snapshots keep their `(hash, ordinal)`
//!   address), so a crash between the renames still recovers — see
//!   [`Repository::compact`].

use crate::repo::{decode, Commit, RepoError, Repository, Step};
use crate::segment::{SegmentId, SegmentStore};
use crate::wal::{CheckpointCommit, CheckpointState, Wal, WalRecord};
use comet_model::ModelDelta;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WAL_FILE: &str = "wal.log";
const SEGMENTS_FILE: &str = "segments.log";

/// The former name of the journalled repository, kept only because the
/// benchmark harness in `e2ebench/` still calls
/// `DurableRepository::open` and `DurableRepository::fsck`; it goes when
/// ROADMAP item 9 moves the harness.
pub type DurableRepository = Repository;

fn io_err(e: std::io::Error) -> RepoError {
    RepoError::Storage(format!("io: {e}"))
}

/// Fsyncs `dir` itself so a just-performed rename is durable before any
/// later rename can reach disk (compaction's publish ordering).
fn sync_dir(dir: &Path) -> Result<(), RepoError> {
    if cfg!(unix) {
        std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io_err)?;
    }
    Ok(())
}

/// What [`Repository::open`] rebuilt and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed.
    pub records_replayed: usize,
    /// Torn/corrupt WAL tail bytes truncated.
    pub wal_truncated_bytes: u64,
    /// Verified segments indexed.
    pub segments: usize,
    /// Torn/corrupt segment tail bytes truncated.
    pub segment_truncated_bytes: u64,
    /// Snapshot XMI imports replay ran to verify undo/redo landings —
    /// at most one per distinct landed content, zero for a journal
    /// without undo/redo records.
    pub snapshots_decoded: usize,
}

impl RecoveryReport {
    /// True when the open found a fully clean pair of files.
    pub fn clean(&self) -> bool {
        self.wal_truncated_bytes == 0 && self.segment_truncated_bytes == 0
    }
}

/// What compaction reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments dropped as unreachable.
    pub segments_dropped: usize,
    /// Segments kept alive.
    pub segments_kept: usize,
    /// WAL records replaced by the checkpoint.
    pub wal_records_folded: usize,
}

/// The result of a consistency check over a durable repository
/// directory.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// The recovery the check performed to get a view of the state,
    /// including the torn tail bytes it truncated.
    pub recovery: RecoveryReport,
    /// Live commits reachable after replay.
    pub commits: usize,
    /// Branches.
    pub branches: usize,
    /// Tags.
    pub tags: usize,
    /// Segments no live commit references (compaction candidates).
    pub unreachable_segments: usize,
    /// Hard inconsistencies found (empty ⇒ healthy).
    pub problems: Vec<String>,
}

impl FsckReport {
    /// True when no hard inconsistency was found.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fsck: {} commits, {} branches, {} tags, {} unreachable segment(s)",
            self.commits, self.branches, self.tags, self.unreachable_segments
        )?;
        writeln!(
            f,
            "  wal: {} record(s) replayed, {} torn byte(s) truncated",
            self.recovery.records_replayed, self.recovery.wal_truncated_bytes
        )?;
        writeln!(
            f,
            "  segments: {} verified, {} torn byte(s) truncated",
            self.recovery.segments, self.recovery.segment_truncated_bytes
        )?;
        if self.problems.is_empty() {
            writeln!(f, "  status: OK")
        } else {
            for p in &self.problems {
                writeln!(f, "  PROBLEM: {p}")?;
            }
            writeln!(f, "  status: CORRUPT")
        }
    }
}

/// A repository's on-disk half: the write-ahead log, the segment store
/// it references, and their directory.
pub(crate) struct Journal {
    wal: Wal,
    segments: SegmentStore,
    dir: PathBuf,
    /// Set when the journal is known to have diverged from memory (a
    /// compensating append failed after its primary append succeeded).
    /// Every later mutation refuses with this reason: widening the
    /// divergence would silently corrupt the next recovery.
    poisoned: Option<String>,
}

/// Shows the journal's identity, not its file positions or counters,
/// so a reopened repository debug-prints like the live one it recovers.
impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl Journal {
    pub(crate) fn fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Once a compensating append has failed, the on-disk journal no
    /// longer matches memory and any further append would bake the
    /// divergence into the next recovery.
    pub(crate) fn check_poisoned(&self) -> Result<(), RepoError> {
        match &self.poisoned {
            Some(why) => Err(RepoError::Storage(format!(
                "durable repository poisoned ({why}); reopen the directory to recover the \
                 journalled state"
            ))),
            None => Ok(()),
        }
    }

    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), RepoError> {
        self.wal.append(record).map_err(io_err)
    }

    /// Journals a commit: the snapshot bytes to the segment store
    /// first, then the record that references them.
    pub(crate) fn commit(
        &mut self,
        snapshot: &str,
        hash: u64,
        message: &str,
        concern: Option<&str>,
        delta: Option<&ModelDelta>,
    ) -> Result<(), RepoError> {
        let seg = self.segments.append(snapshot.as_bytes()).map_err(io_err)?;
        self.append(&WalRecord::Commit {
            message: message.to_owned(),
            concern: concern.map(str::to_owned),
            hash,
            ordinal: seg.ordinal,
            delta: delta.cloned(),
        })
    }

    /// Appends `record` to cancel a just-journalled undo/redo whose
    /// in-memory half failed with `cause` (`fault` fails the append, as
    /// the armed compensation fault point). If the compensating append
    /// itself fails, the journal has permanently diverged from memory —
    /// it is poisoned (every later mutation refuses) and the combined
    /// failure is returned instead of the bare in-memory error, so the
    /// caller sees the divergence rather than a silently different
    /// recovery.
    pub(crate) fn compensate(
        &mut self,
        record: &WalRecord,
        op: &str,
        cause: RepoError,
        fault: bool,
    ) -> RepoError {
        let result = if fault {
            Err(std::io::Error::other("injected compensation failure"))
        } else {
            self.wal.append(record)
        };
        match result {
            Ok(()) => cause,
            Err(comp) => {
                let why = format!(
                    "in-memory {op} failed ({cause}) and the compensating journal append also \
                     failed ({comp}) — the journal no longer matches memory"
                );
                self.poisoned = Some(why.clone());
                RepoError::Storage(why)
            }
        }
    }
}

impl Repository {
    /// True when `dir` already holds a journal.
    pub fn exists(dir: &Path) -> bool {
        dir.join(WAL_FILE).is_file()
    }

    /// Creates a fresh journalled repository in `dir` (created if
    /// absent).
    ///
    /// # Errors
    /// Fails when `dir` already holds a journal, or on I/O failure.
    pub fn create(dir: &Path, name: &str) -> Result<Repository, RepoError> {
        if Self::exists(dir) {
            return Err(RepoError::Storage(format!(
                "refusing to create over an existing journal in {}",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let (segments, _) = SegmentStore::open(dir.join(SEGMENTS_FILE)).map_err(io_err)?;
        let mut wal = Wal::open_at(dir.join(WAL_FILE), 0).map_err(io_err)?;
        wal.append(&WalRecord::Init { name: name.to_owned() }).map_err(io_err)?;
        let mut repo = Repository::new(name);
        repo.journal = Some(Journal { wal, segments, dir: dir.to_owned(), poisoned: None });
        Ok(repo)
    }

    /// Opens an existing journalled repository, replaying the journal
    /// over the segment store. Torn tails in either file are truncated;
    /// the state recovered is exactly that of the last completed
    /// operation.
    ///
    /// # Errors
    /// Fails when no journal exists, when a commit record references a
    /// missing segment (real corruption, not a torn tail), or on I/O
    /// failure.
    pub fn open(dir: &Path) -> Result<(Repository, RecoveryReport), RepoError> {
        if !Self::exists(dir) {
            return Err(RepoError::Storage(format!("no journal in {}", dir.display())));
        }
        let (mut segments, seg_report) =
            SegmentStore::open(dir.join(SEGMENTS_FILE)).map_err(io_err)?;
        let wal_path = dir.join(WAL_FILE);
        let (records, wal_report, end) = Wal::read_all(&wal_path).map_err(io_err)?;
        let mut repo: Option<Repository> = None;
        let mut landings = LandingCheck::default();
        for record in &records {
            replay(&mut repo, record, &mut segments, &mut landings)?;
        }
        let mut repo = repo.ok_or_else(|| {
            RepoError::Storage(format!("journal in {} has no init record", dir.display()))
        })?;
        let wal = Wal::open_at(wal_path, end).map_err(io_err)?;
        repo.journal = Some(Journal { wal, segments, dir: dir.to_owned(), poisoned: None });
        let report = RecoveryReport {
            records_replayed: records.len(),
            wal_truncated_bytes: wal_report.truncated_bytes,
            segments: seg_report.segments,
            segment_truncated_bytes: seg_report.truncated_bytes,
            snapshots_decoded: landings.decoded,
        };
        Ok((repo, report))
    }

    /// Rewrites both journal files: live segments only, one checkpoint
    /// record instead of the full operation history. Reclaims segments
    /// no commit references (orphans from crashes between segment
    /// append and WAL append, and snapshots of garbage-collected
    /// commits).
    ///
    /// ## Crash safety
    ///
    /// The rewrite is published as two renames, and a crash may land
    /// between them, so every intermediate pairing must recover:
    ///
    /// * live snapshots keep their exact `(hash, ordinal)` address —
    ///   for every hash a live commit uses, **all** of the old store's
    ///   same-hash segments are copied in ordinal order (under an FNV
    ///   collision this carries a dead sibling along; a later
    ///   compaction reclaims it once the collision is gone). The
    ///   checkpoint therefore resolves against the old store and the
    ///   new one alike;
    /// * the WAL (one checkpoint record) is renamed into place *first*,
    ///   with a directory fsync ordering the two renames on disk. A
    ///   crash before the first rename leaves the old pair; between
    ///   them, checkpoint + old store — both replay. The reverse order
    ///   would pair the full old history with a store the GC'd
    ///   snapshots were dropped from, dangling those commits and
    ///   failing every later open.
    ///
    /// # Errors
    /// Fails without a journal or on a poisoned one; propagates I/O
    /// failures, and on error the original files are intact.
    pub fn compact(&mut self) -> Result<CompactionReport, RepoError> {
        let Some(journal) = &mut self.journal else {
            return Err(RepoError::Storage("an in-memory repository has no journal".to_owned()));
        };
        journal.check_poisoned()?;
        let dir = journal.dir.clone();
        let seg_tmp = dir.join("segments.log.compact");
        let wal_tmp = dir.join("wal.log.compact");
        let _ = std::fs::remove_file(&seg_tmp);
        let _ = std::fs::remove_file(&wal_tmp);
        let (mut new_segments, _) = SegmentStore::open(&seg_tmp).map_err(io_err)?;
        let live_hashes: BTreeSet<u64> = self.commits.values().map(|c| c.hash).collect();
        for &hash in &live_hashes {
            for ordinal in 0.. {
                match journal.segments.get(SegmentId { hash, ordinal }).map_err(io_err)? {
                    None => break,
                    Some(bytes) => {
                        new_segments.append(&bytes).map_err(io_err)?;
                    }
                }
            }
        }
        let mut commits = Vec::with_capacity(self.commits.len());
        for c in self.commits.values() {
            // Dedupe hit against the copy above — returns the preserved
            // (hash, ordinal) address.
            let seg = new_segments.append(c.snapshot.as_bytes()).map_err(io_err)?;
            commits.push(CheckpointCommit {
                id: c.id,
                parent: c.parent,
                message: c.message.clone(),
                concern: c.concern.clone(),
                hash: c.hash,
                ordinal: seg.ordinal,
                delta: c.delta.clone(),
            });
        }
        let state = CheckpointState {
            name: self.name.clone(),
            next_id: self.next_id,
            current_branch: self.current_branch.clone(),
            position: self.position as u64,
            commits,
            branches: self.branches.iter().map(|(name, ids)| (name.clone(), ids.clone())).collect(),
            tags: self.tags.iter().map(|(name, id)| (name.clone(), *id)).collect(),
        };
        let mut new_wal = Wal::open_at(&wal_tmp, 0).map_err(io_err)?;
        new_wal.append(&WalRecord::Checkpoint(state)).map_err(io_err)?;
        drop(new_wal);
        let (_, old_wal_report, _) = Wal::read_all(journal.wal.path()).map_err(io_err)?;
        let report = CompactionReport {
            segments_dropped: journal.segments.len() - new_segments.len(),
            segments_kept: new_segments.len(),
            wal_records_folded: old_wal_report.records,
        };
        drop(new_segments);
        // Publish: checkpoint first (resolves against both stores), the
        // segment store second, a directory fsync between and after so
        // the renames reach disk in that order.
        std::fs::rename(&wal_tmp, dir.join(WAL_FILE)).map_err(io_err)?;
        sync_dir(&dir)?;
        std::fs::rename(&seg_tmp, dir.join(SEGMENTS_FILE)).map_err(io_err)?;
        sync_dir(&dir)?;
        let (segments, _) = SegmentStore::open(dir.join(SEGMENTS_FILE)).map_err(io_err)?;
        let (_, _, end) = Wal::read_all(&dir.join(WAL_FILE)).map_err(io_err)?;
        journal.segments = segments;
        journal.wal = Wal::open_at(dir.join(WAL_FILE), end).map_err(io_err)?;
        Ok(report)
    }

    /// Simulates a crash cutting a journal append short (the chaos
    /// harness's kill point): appends a torn record to the WAL that the
    /// next [`open`](Self::open) must discard.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn simulate_torn_tail(dir: &Path) -> Result<(), RepoError> {
        Wal::append_torn(&dir.join(WAL_FILE)).map_err(io_err)
    }

    /// Consistency check of the journal in `dir`. It recovers the state
    /// through [`open`](Self::open), which **repairs** what it reads:
    /// torn tails in the WAL and the segment store are truncated, and
    /// [`FsckReport::recovery`] says how many bytes went. It then
    /// verifies that every commit resolves to a byte-verified segment
    /// and that branch histories and tags only reference live commits,
    /// and counts the unreachable segments compaction would reclaim.
    ///
    /// # Errors
    /// Fails only when the directory cannot be opened at all; found
    /// inconsistencies are reported in
    /// [`FsckReport::problems`], not as `Err`.
    pub fn fsck(dir: &Path) -> Result<FsckReport, RepoError> {
        let (mut repo, recovery) = Self::open(dir)?;
        let mut journal = repo.journal.take().expect("open attaches a journal");
        let mut report = FsckReport {
            recovery,
            commits: repo.commits.len(),
            branches: repo.branches.len(),
            tags: repo.tags.len(),
            ..FsckReport::default()
        };
        let mut live: BTreeSet<SegmentId> = BTreeSet::new();
        for (id, commit) in &repo.commits {
            let (hash, snapshot) = (commit.hash, commit.snapshot.as_bytes());
            let mut found = false;
            // Locate the segment holding this commit's bytes (ordinal
            // scan: collisions are possible, aliasing is not).
            for ordinal in 0.. {
                match journal.segments.get(SegmentId { hash, ordinal }).map_err(io_err)? {
                    None => break,
                    Some(bytes) if bytes == snapshot => {
                        live.insert(SegmentId { hash, ordinal });
                        found = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            if !found {
                report.problems.push(format!("commit {id}: snapshot missing from segment store"));
            }
            if comet_obs::fnv1a64(snapshot) != hash {
                report.problems.push(format!("commit {id}: content hash mismatch"));
            }
        }
        for (name, ids) in &repo.branches {
            for id in ids {
                if !repo.commits.contains_key(id) {
                    report.problems.push(format!("branch `{name}` references unknown commit {id}"));
                }
            }
        }
        if repo.position > repo.branches[&repo.current_branch].len() {
            report.problems.push("head position past the end of the current branch".to_owned());
        }
        for (name, id) in &repo.tags {
            if !repo.commits.contains_key(id) {
                report.problems.push(format!("tag `{name}` references unknown commit {id}"));
            }
        }
        report.unreachable_segments = journal.segments.len() - live.len();
        Ok(report)
    }
}

/// Replay's check of the snapshots undo/redo records land on: each
/// distinct content is XMI-imported once per open, then remembered.
/// Keyed by content — the FNV-1a hash plus a full-byte compare, the way
/// [`SegmentStore::append`] dedupes — so a hash collision can never
/// skip a decode.
#[derive(Debug, Default)]
struct LandingCheck {
    /// Contents that decoded, bucketed by hash.
    verified: BTreeMap<u64, Vec<Arc<str>>>,
    /// Imports performed (reported as
    /// [`RecoveryReport::snapshots_decoded`]).
    decoded: usize,
}

impl LandingCheck {
    /// Verifies the commit a replayed undo/redo lands on (`None` = the
    /// root, which has no snapshot).
    fn check(&mut self, landed: Option<&Commit>) -> Result<(), RepoError> {
        let Some(commit) = landed else { return Ok(()) };
        let seen = self.verified.entry(commit.hash).or_default();
        if seen.contains(&commit.snapshot) {
            return Ok(());
        }
        self.decoded += 1;
        decode(commit)?;
        seen.push(commit.snapshot_shared());
        Ok(())
    }
}

/// Applies one journal record to the repository being rebuilt. Undo
/// and redo move the head through the same step core as
/// [`Repository::undo`]/[`Repository::redo`], with `landings` in place
/// of a decode whose model replay would only drop.
fn replay(
    repo: &mut Option<Repository>,
    record: &WalRecord,
    segments: &mut SegmentStore,
    landings: &mut LandingCheck,
) -> Result<(), RepoError> {
    fn need(repo: &mut Option<Repository>) -> Result<&mut Repository, RepoError> {
        repo.as_mut()
            .ok_or_else(|| RepoError::Storage("journal record before init record".to_owned()))
    }
    match record {
        WalRecord::Init { name } => {
            *repo = Some(Repository::new(name.clone()));
        }
        WalRecord::Commit { message, concern, hash, ordinal, delta } => {
            let snapshot = fetch_snapshot(segments, *hash, *ordinal)?;
            need(repo)?.commit_raw(snapshot, *hash, message, concern.as_deref(), delta.clone());
        }
        WalRecord::Undo | WalRecord::Redo => {
            let dir = if matches!(record, WalRecord::Undo) { Step::Back } else { Step::Forward };
            if let Some(Err(e)) = need(repo)?.step(dir, |landed| landings.check(landed)) {
                return Err(e);
            }
        }
        WalRecord::Branch { name } => {
            need(repo)?.branch(name)?;
        }
        WalRecord::SwitchBranch { name } => {
            need(repo)?.switch_branch(name)?;
        }
        WalRecord::Tag { name } => {
            need(repo)?.tag(name)?;
        }
        WalRecord::Checkpoint(state) => {
            *repo = Some(repository_from_checkpoint(state, segments)?);
        }
    }
    Ok(())
}

fn fetch_snapshot(
    segments: &mut SegmentStore,
    hash: u64,
    ordinal: u32,
) -> Result<Arc<str>, RepoError> {
    let bytes = segments.get(SegmentId { hash, ordinal }).map_err(io_err)?.ok_or_else(|| {
        RepoError::Storage(format!("commit references missing segment {hash:016x}/{ordinal}"))
    })?;
    String::from_utf8(bytes)
        .map(Arc::from)
        .map_err(|_| RepoError::Storage(format!("segment {hash:016x}/{ordinal} is not UTF-8")))
}

fn repository_from_checkpoint(
    state: &CheckpointState,
    segments: &mut SegmentStore,
) -> Result<Repository, RepoError> {
    let mut repo = Repository::new(state.name.clone());
    repo.next_id = state.next_id;
    repo.commits = BTreeMap::new();
    for c in &state.commits {
        let snapshot = fetch_snapshot(segments, c.hash, c.ordinal)?;
        repo.commits.insert(
            c.id,
            crate::repo::Commit {
                id: c.id,
                parent: c.parent,
                message: c.message.clone(),
                concern: c.concern.clone(),
                hash: c.hash,
                delta: c.delta.clone(),
                snapshot,
            },
        );
    }
    repo.branches = state.branches.iter().cloned().collect();
    if repo.branches.is_empty() {
        return Err(RepoError::Storage("checkpoint with no branches".to_owned()));
    }
    if !repo.branches.contains_key(&state.current_branch) {
        return Err(RepoError::Storage(format!(
            "checkpoint's current branch `{}` is not in its branch set",
            state.current_branch
        )));
    }
    repo.current_branch = state.current_branch.clone();
    let history_len = repo.branches[&repo.current_branch].len() as u64;
    if state.position > history_len {
        return Err(RepoError::Storage("checkpoint position past branch end".to_owned()));
    }
    repo.position = state.position as usize;
    repo.tags = state.tags.iter().cloned().collect();
    Ok(repo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TempDir;
    use comet_middleware::FaultHook;
    use comet_model::sample::banking_pim;
    use comet_model::Model;

    fn tmp(name: &str) -> TempDir {
        TempDir::new("durable", name)
    }

    fn journal(dur: &mut Repository) -> &mut Journal {
        dur.journal.as_mut().expect("a journalled repository")
    }

    fn two_models() -> (Model, Model) {
        let v1 = banking_pim();
        let mut v2 = v1.clone();
        let bank = v2.find_class("Bank").unwrap();
        v2.apply_stereotype(bank, "Remote").unwrap();
        (v1, v2)
    }

    fn assert_same_state(a: &Repository, b: &Repository) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.current_branch(), b.current_branch());
        assert_eq!(a.branch_names(), b.branch_names());
        assert_eq!(a.undo_depth(), b.undo_depth());
        assert_eq!(a.redo_depth(), b.redo_depth());
        assert_eq!(a.len(), b.len());
        let log_a: Vec<_> = a.log().into_iter().cloned().collect();
        let log_b: Vec<_> = b.log().into_iter().cloned().collect();
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn create_commit_reopen_recovers_everything() {
        let dir = tmp("basic");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        dur.tag("psm-v1").unwrap();
        dur.undo().unwrap().unwrap();
        dur.branch("experiment").unwrap();
        dur.switch_branch("main").unwrap();
        let before = dur.clone();
        drop(dur);
        let (dur, report) = Repository::open(&dir).unwrap();
        assert!(report.clean());
        assert_eq!(report.records_replayed, 7);
        assert_same_state(&before, &dur);
        assert_eq!(dur.head_model().unwrap().unwrap(), v2);
        assert_eq!(dur.checkout_tag("psm-v1").unwrap(), v2);
    }

    #[test]
    fn a_clone_of_a_journalled_repository_never_writes_the_journal() {
        let dir = tmp("clone");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        let (fsyncs, wal_len) =
            (dur.wal_fsyncs(), std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        let mut clone = dur.clone();
        assert!(!clone.is_durable());
        clone.commit(&v2, "on the clone", Some("distribution")).unwrap();
        clone.undo().unwrap().unwrap();
        clone.redo().unwrap().unwrap();
        clone.branch("clone-only").unwrap();
        clone.tag("clone-tag").unwrap();
        assert_eq!(clone.wal_fsyncs(), 0);
        assert_eq!(dur.wal_fsyncs(), fsyncs);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), wal_len);
        drop(dur);
        let (dur, report) = Repository::open(&dir).unwrap();
        assert_eq!(report.records_replayed, 2, "init and the original's one commit");
        assert_eq!(dur.len(), 1);
    }

    #[test]
    fn a_failed_journal_append_leaves_memory_untouched() {
        let dir = tmp("append-fails");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        dur.undo().unwrap().unwrap();
        let before = dur.clone();
        journal(&mut dur).wal = Wal::read_only(&dir.join(WAL_FILE)).unwrap();
        // Each mutator journals before it applies, so a refused append
        // leaves memory where the journal is.
        let refused = |dur: &Repository, err: RepoError| {
            assert!(matches!(err, RepoError::Storage(_)), "{err}");
            assert_same_state(&before, dur);
        };
        let err = dur.commit(&v2, "lost", None).unwrap_err();
        refused(&dur, err);
        let err = dur.undo().unwrap().unwrap_err();
        refused(&dur, err);
        let err = dur.redo().unwrap().unwrap_err();
        refused(&dur, err);
        let err = dur.undo_head().unwrap().unwrap_err();
        refused(&dur, err);
        let err = dur.branch("lost").unwrap_err();
        refused(&dur, err);
        let err = dur.switch_branch("main").unwrap_err();
        refused(&dur, err);
        let err = dur.tag("lost").unwrap_err();
        refused(&dur, err);
        assert!(journal(&mut dur).poisoned.is_none(), "a refused primary append diverges nothing");
        drop(dur);
        let (dur, _) = Repository::open(&dir).unwrap();
        assert_same_state(&before, &dur);
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_complete_operation() {
        let dir = tmp("torn");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        let before = dur.clone();
        drop(dur);
        Repository::simulate_torn_tail(&dir).unwrap();
        let (mut dur, report) = Repository::open(&dir).unwrap();
        assert!(report.wal_truncated_bytes > 0);
        assert_same_state(&before, &dur);
        // The journal is clean again: new operations append and survive.
        dur.undo().unwrap().unwrap();
        drop(dur);
        let (dur, report) = Repository::open(&dir).unwrap();
        assert!(report.clean());
        assert_eq!(dur.head_model().unwrap().unwrap(), v1);
    }

    #[test]
    fn durable_backend_hard_errors_on_lying_empty_delta() {
        let dir = tmp("lying");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        let err = dur
            .commit_with_delta(&v2, "lying", Some("distribution"), ModelDelta::default())
            .unwrap_err();
        assert!(
            matches!(&err, RepoError::Storage(d) if d.contains("lying delta")),
            "unexpected error: {err}"
        );
        // Differential check: the in-memory path silently accepted the
        // same lie in release builds (the bug this PR pins down), the
        // durable path must leave no trace of it.
        assert_eq!(dur.len(), 1);
        drop(dur);
        let (dur, _) = Repository::open(&dir).unwrap();
        assert_eq!(dur.len(), 1);
        assert_eq!(dur.head_model().unwrap().unwrap(), v1);
        // An honest empty delta (model genuinely unchanged) is fine.
        let mut dur = dur;
        dur.commit_with_delta(&v1, "no-op", None, ModelDelta::default()).unwrap();
        assert_eq!(dur.len(), 2);
    }

    #[test]
    fn identical_snapshots_share_one_segment() {
        let dir = tmp("dedupe");
        let (v1, _) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "a", None).unwrap();
        dur.commit(&v1, "b", None).unwrap();
        dur.commit(&v1, "c", None).unwrap();
        assert_eq!(dur.len(), 3, "three commits");
        assert_eq!(journal(&mut dur).segments.len(), 1, "one deduped segment");
    }

    #[test]
    fn compaction_reclaims_orphaned_segments_and_survives_reopen() {
        let dir = tmp("compact");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        // Orphan a commit: undo + commit truncates v2's snapshot out.
        dur.commit(&v2, "doomed", Some("distribution")).unwrap();
        dur.undo().unwrap().unwrap();
        let mut v3 = v1.clone();
        v3.add_class(v3.root(), "Other").unwrap();
        dur.commit(&v3, "alternative", None).unwrap();
        assert_eq!(dur.len(), 2);
        assert_eq!(journal(&mut dur).segments.len(), 3, "v2's segment is now garbage");
        let before = dur.clone();
        let report = dur.compact().unwrap();
        assert_eq!(report.segments_dropped, 1);
        assert_eq!(report.segments_kept, 2);
        assert!(report.wal_records_folded >= 5);
        assert_same_state(&before, &dur);
        // Post-compaction state must replay from the checkpoint alone.
        drop(dur);
        let (mut dur, open_report) = Repository::open(&dir).unwrap();
        assert!(open_report.clean());
        assert_eq!(open_report.records_replayed, 1, "one checkpoint record");
        assert_same_state(&before, &dur);
        assert_eq!(dur.head_model().unwrap().unwrap(), v3);
        // And it keeps accepting operations afterwards.
        dur.commit(&v2, "after-compaction", None).unwrap();
        drop(dur);
        let (dur, _) = Repository::open(&dir).unwrap();
        assert_eq!(dur.head_model().unwrap().unwrap(), v2);
    }

    #[test]
    fn crash_between_compaction_renames_still_recovers() {
        let dir = tmp("compact-crash");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        // Garbage to reclaim: the GC'd commit's segment only exists in
        // the pre-compaction store, which is exactly what made the old
        // segments-first publish order dangle commits on a crash.
        dur.commit(&v2, "doomed", Some("distribution")).unwrap();
        dur.undo().unwrap().unwrap();
        let mut v3 = v1.clone();
        v3.add_class(v3.root(), "Other").unwrap();
        dur.commit(&v3, "alternative", None).unwrap();
        let old_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let old_segments = std::fs::read(dir.join(SEGMENTS_FILE)).unwrap();
        let before = dur.clone();
        dur.compact().unwrap();
        let new_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let new_segments = std::fs::read(dir.join(SEGMENTS_FILE)).unwrap();
        drop(dur);
        // Every state a crash during the publish can leave behind:
        // before the first rename, between the two, and after both.
        // Each must open to the same repository and pass fsck.
        for (label, wal, segments) in [
            ("pre-publish", &old_wal, &old_segments),
            ("between-renames", &new_wal, &old_segments),
            ("complete", &new_wal, &new_segments),
        ] {
            let crash_dir = tmp(&format!("compact-crash-{label}"));
            std::fs::create_dir_all(&*crash_dir).unwrap();
            std::fs::write(crash_dir.join(WAL_FILE), wal).unwrap();
            std::fs::write(crash_dir.join(SEGMENTS_FILE), segments).unwrap();
            let (mut dur, _) = Repository::open(&crash_dir)
                .unwrap_or_else(|e| panic!("{label}: open failed: {e}"));
            assert_same_state(&before, &dur);
            assert_eq!(dur.head_model().unwrap().unwrap(), v3, "{label}");
            // The recovered repository keeps accepting operations.
            dur.commit(&v2, "after-crash", None).unwrap();
            drop(dur);
            let report = Repository::fsck(&crash_dir).unwrap();
            assert!(report.ok(), "{label}: {report}");
        }
    }

    #[test]
    fn compensated_failed_undo_keeps_journal_matching_memory() {
        let dir = tmp("compensate");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        // Corrupt — in memory only — the snapshot undo would restore,
        // so the in-memory undo fails *after* its journal record is
        // already appended and the compensating append must cancel it.
        let first = *dur.commits.keys().next().unwrap();
        dur.commits.get_mut(&first).unwrap().snapshot = "<not xmi".into();
        let err = dur.undo().unwrap().unwrap_err();
        assert!(matches!(err, RepoError::Corrupt(_)), "unexpected error: {err}");
        // Compensation succeeded: the handle stays usable...
        dur.tag("still-alive").unwrap();
        drop(dur);
        // ...and replay (Undo cancelled by Redo) lands on the pre-undo
        // head, matching what memory saw.
        let (dur, _) = Repository::open(&dir).unwrap();
        assert_eq!(dur.head_model().unwrap().unwrap(), v2);
        assert_eq!(dur.checkout_tag("still-alive").unwrap(), v2);
    }

    #[test]
    fn compensated_failed_redo_keeps_journal_matching_memory() {
        let dir = tmp("compensate-redo");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        dur.undo().unwrap().unwrap();
        // Corrupt — in memory only — the snapshot redo would restore:
        // the in-memory redo fails after its journal record is appended,
        // and must leave the head where it was for the compensating
        // `Undo` to cancel exactly that record.
        let last = *dur.commits.keys().last().unwrap();
        dur.commits.get_mut(&last).unwrap().snapshot = "<not xmi".into();
        let err = dur.redo().unwrap().unwrap_err();
        assert!(matches!(err, RepoError::Corrupt(_)), "unexpected error: {err}");
        assert_eq!(dur.undo_depth(), 1, "a failed redo must not move the head");
        dur.tag("still-alive").unwrap();
        let live = dur.clone();
        drop(dur);
        // Replay: Undo, Redo cancelled by Undo — the head memory saw.
        let (dur, _) = Repository::open(&dir).unwrap();
        assert_same_state(&live, &dur);
        assert_eq!(dur.head_model().unwrap().unwrap(), v1);
        assert_eq!(dur.checkout_tag("still-alive").unwrap(), v1);
    }

    /// Journals a commit of `bytes` straight into the segment store and
    /// the WAL, bypassing the export a real commit performs.
    fn journal_raw_commit(dur: &mut Repository, bytes: &[u8]) {
        let journal = journal(dur);
        let seg = journal.segments.append(bytes).unwrap();
        journal
            .wal
            .append(&WalRecord::Commit {
                message: "raw".to_owned(),
                concern: None,
                hash: seg.hash,
                ordinal: seg.ordinal,
                delta: None,
            })
            .unwrap();
    }

    #[test]
    fn undo_landing_on_undecodable_snapshot_still_fails_open() {
        let dir = tmp("corrupt-undo");
        let (v1, _) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        // A checksum-valid segment that is not XMI, then a good commit
        // on top: the commit records replay fine, the undo lands on the
        // bad snapshot.
        journal_raw_commit(&mut dur, b"<not xmi");
        journal_raw_commit(&mut dur, comet_xmi::export_model(&v1).as_bytes());
        journal(&mut dur).wal.append(&WalRecord::Undo).unwrap();
        drop(dur);
        let err = Repository::open(&dir).unwrap_err();
        assert!(matches!(err, RepoError::Corrupt(_)), "unexpected error: {err}");
    }

    #[test]
    fn redo_landing_on_undecodable_snapshot_still_fails_open() {
        let dir = tmp("corrupt-redo");
        let (v1, _) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        journal_raw_commit(&mut dur, comet_xmi::export_model(&v1).as_bytes());
        journal_raw_commit(&mut dur, b"<not xmi");
        // The undo lands on the good snapshot; the redo on the bad one.
        journal(&mut dur).wal.append(&WalRecord::Undo).unwrap();
        journal(&mut dur).wal.append(&WalRecord::Redo).unwrap();
        drop(dur);
        let err = Repository::open(&dir).unwrap_err();
        assert!(matches!(err, RepoError::Corrupt(_)), "unexpected error: {err}");
    }

    #[test]
    fn replay_decodes_each_landed_content_once() {
        let dir = tmp("decode-once");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        for i in 0..20 {
            // Churn over two contents: every undo lands on v1 and every
            // redo on v2, re-committed content included.
            dur.commit(&v2, &format!("apply {i}"), Some("distribution")).unwrap();
            dur.undo().unwrap().unwrap();
            dur.redo().unwrap().unwrap();
            dur.undo().unwrap().unwrap();
        }
        dur.undo().unwrap().unwrap();
        drop(dur);
        let (dur, report) = Repository::open(&dir).unwrap();
        assert_eq!(report.segments, 2);
        assert_eq!(report.snapshots_decoded, 2, "one decode per distinct landed content");
        assert_eq!(dur.undo_depth(), 0);
        drop(dur);
        // A commit-only journal decodes nothing.
        let dir = tmp("decode-none");
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", None).unwrap();
        drop(dur);
        let (_, report) = Repository::open(&dir).unwrap();
        assert_eq!(report.snapshots_decoded, 0);
    }

    #[test]
    fn failed_compensation_poisons_the_handle() {
        let dir = tmp("poison");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        let first = *dur.commits.keys().next().unwrap();
        dur.commits.get_mut(&first).unwrap().snapshot = "<not xmi".into();
        dur.arm_fault(crate::repo::FAULT_POINT_WAL_COMPENSATION).unwrap();
        let err = dur.undo().unwrap().unwrap_err();
        assert!(
            matches!(&err, RepoError::Storage(d) if d.contains("no longer matches memory")),
            "unexpected error: {err}"
        );
        // The journal diverged from memory; every further mutation must
        // refuse rather than widen the divergence.
        let poisoned = |e: &RepoError| matches!(e, RepoError::Storage(d) if d.contains("poisoned"));
        assert!(poisoned(&dur.commit(&v1, "x", None).unwrap_err()));
        assert!(poisoned(&dur.undo().unwrap().unwrap_err()));
        assert!(poisoned(&dur.redo().unwrap().unwrap_err()));
        assert!(poisoned(&dur.branch("b").unwrap_err()));
        assert!(poisoned(&dur.switch_branch("main").unwrap_err()));
        assert!(poisoned(&dur.tag("t").unwrap_err()));
        assert!(poisoned(&dur.compact().unwrap_err()));
        // Reads still work on the poisoned handle.
        assert_eq!(dur.len(), 2);
        drop(dur);
        // Reopening replays the journalled (un-compensated) undo over
        // the intact on-disk snapshots: head steps back — the recovery
        // honours the journal, and the divergence was surfaced, not
        // silent.
        let (dur, report) = Repository::open(&dir).unwrap();
        assert!(report.clean());
        assert_eq!(dur.head_model().unwrap().unwrap(), v1);
    }

    #[test]
    fn head_only_undo_journals_one_undo_and_compensates_like_undo() {
        let dir = tmp("undo-head");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "distribution", Some("distribution")).unwrap();
        dur.commit(&v1, "back", None).unwrap();
        let fsyncs = dur.wal_fsyncs();
        dur.undo_head().unwrap().unwrap();
        assert_eq!(dur.wal_fsyncs(), fsyncs + 1, "one journal record per undo");
        assert_eq!(dur.head().unwrap().message, "distribution");
        // Drop — in memory only — the commit the next undo lands on, so
        // the in-memory step fails after its record is appended and the
        // compensating `Redo` must cancel it.
        let first = *dur.commits.keys().next().unwrap();
        let landing = dur.commits.remove(&first).unwrap();
        assert_eq!(dur.undo_head().unwrap().unwrap_err(), RepoError::UnknownCommit(first));
        assert_eq!(dur.wal_fsyncs(), fsyncs + 3, "undo record plus its compensation");
        assert_eq!(dur.head().unwrap().message, "distribution", "a failed step moved the head");
        // A failed compensation poisons the handle, as for `undo`.
        dur.arm_fault(crate::repo::FAULT_POINT_WAL_COMPENSATION).unwrap();
        let err = dur.undo_head().unwrap().unwrap_err();
        assert!(matches!(&err, RepoError::Storage(d) if d.contains("no longer matches")), "{err}");
        assert!(journal(&mut dur).poisoned.is_some());
        dur.commits.insert(first, landing);
        drop(dur);
        // Replay: the compensated pair cancels; the un-compensated undo
        // stands — exactly as for `undo`.
        let (dur, _) = Repository::open(&dir).unwrap();
        assert_eq!(dur.head().unwrap().message, "initial");
        assert_eq!(dur.head_model().unwrap().unwrap(), v1);
    }

    #[test]
    fn fsck_reports_health_and_garbage() {
        let dir = tmp("fsck");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.commit(&v2, "doomed", None).unwrap();
        dur.undo().unwrap().unwrap();
        dur.commit(&v2, "kept", None).unwrap();
        drop(dur);
        let report = Repository::fsck(&dir).unwrap();
        assert!(report.ok(), "{report}");
        assert_eq!(report.commits, 2);
        // "doomed" was GC'd in memory but its segment bytes equal
        // "kept"'s (same model) — so nothing is unreachable here.
        assert_eq!(report.unreachable_segments, 0);
        let text = report.to_string();
        assert!(text.contains("status: OK"), "{text}");
    }

    #[test]
    fn injected_faults_fail_before_touching_the_journal() {
        let dir = tmp("faults");
        let (v1, v2) = two_models();
        let mut dur = Repository::create(&dir, "bank").unwrap();
        dur.commit(&v1, "initial", None).unwrap();
        dur.arm_fault(crate::repo::FAULT_POINT_COMMIT).unwrap();
        assert!(matches!(dur.commit(&v2, "x", None), Err(RepoError::Storage(_))));
        dur.arm_fault(crate::repo::FAULT_POINT_UNDO).unwrap();
        assert!(matches!(dur.undo(), Some(Err(RepoError::Storage(_)))));
        let before = dur.clone();
        drop(dur);
        // Neither faulted operation reached the journal.
        let (dur, report) = Repository::open(&dir).unwrap();
        assert!(report.clean());
        assert_same_state(&before, &dur);
    }
}
