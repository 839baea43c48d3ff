//! The write-ahead journal: every repository mutation is shipped to
//! disk *before* it is applied in memory.
//!
//! Records are framed exactly like segments —
//! `[u32 payload len][u64 FNV-1a of payload][payload]` — and the reader
//! stops at the first incomplete or checksum-failing frame: a crash in
//! the middle of an append loses at most the in-flight record, never an
//! earlier one, and [`Wal::read_all`] reports how many tail bytes it
//! discarded so `open` can truncate the file back to the last complete
//! record.
//!
//! Payloads use a dependency-free little-endian encoding (tag byte +
//! length-prefixed fields). Commit records reference their snapshot by
//! [`SegmentId`](crate::segment::SegmentId) — `(hash, ordinal)` — so
//! the WAL stays small; the bytes live in the segment store, which is
//! flushed first (an orphan segment is garbage, a dangling commit
//! record would be corruption).

use crate::repo::CommitId;
use comet_model::{ElementId, ModelDelta};
use comet_obs::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header size: u32 length + u64 checksum.
const HEADER: u64 = 12;
/// Corruption guard for the length field.
const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// One journaled repository operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Repository creation; always the first record of a fresh journal.
    Init {
        /// Repository name.
        name: String,
    },
    /// A commit; the snapshot bytes live in the segment store under
    /// `(hash, ordinal)`.
    Commit {
        /// Commit message.
        message: String,
        /// Producing concern, if any.
        concern: Option<String>,
        /// FNV-1a content hash of the snapshot.
        hash: u64,
        /// Ordinal among same-hash segments (collision disambiguator).
        ordinal: u32,
        /// Element-level delta over the parent, when supplied.
        delta: Option<ModelDelta>,
    },
    /// Head stepped one commit back.
    Undo,
    /// Head stepped one commit forward.
    Redo,
    /// A branch was created from the visible head and switched to.
    Branch {
        /// New branch name.
        name: String,
    },
    /// The current branch changed.
    SwitchBranch {
        /// Target branch name.
        name: String,
    },
    /// The visible head was tagged.
    Tag {
        /// Tag name.
        name: String,
    },
    /// A compaction checkpoint: the full repository state at rewrite
    /// time. Replay resets to it; all earlier history was rewritten
    /// into the accompanying segment file.
    Checkpoint(CheckpointState),
}

/// The complete repository state a compaction writes as one record.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Repository name.
    pub name: String,
    /// Next commit id to allocate.
    pub next_id: CommitId,
    /// Current branch name.
    pub current_branch: String,
    /// Visible-commit count on the current branch.
    pub position: u64,
    /// Every live commit, snapshot referenced by `(hash, ordinal)`.
    pub commits: Vec<CheckpointCommit>,
    /// Branch name → commit ids, oldest first.
    pub branches: Vec<(String, Vec<CommitId>)>,
    /// Tag name → commit id.
    pub tags: Vec<(String, CommitId)>,
}

/// One commit inside a [`CheckpointState`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointCommit {
    /// Commit id.
    pub id: CommitId,
    /// Parent commit id, if any.
    pub parent: Option<CommitId>,
    /// Commit message.
    pub message: String,
    /// Producing concern, if any.
    pub concern: Option<String>,
    /// FNV-1a content hash of the snapshot.
    pub hash: u64,
    /// Segment ordinal.
    pub ordinal: u32,
    /// Element-level delta over the parent.
    pub delta: Option<ModelDelta>,
}

// ---- payload codec ----------------------------------------------------

const TAG_INIT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_UNDO: u8 = 3;
const TAG_REDO: u8 = 4;
const TAG_BRANCH: u8 = 5;
const TAG_SWITCH: u8 = 6;
const TAG_TAG: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[ElementId]) {
    put_u32(out, ids.len() as u32);
    for id in ids {
        put_u64(out, id.raw());
    }
}

fn put_opt_delta(out: &mut Vec<u8>, delta: Option<&ModelDelta>) {
    match delta {
        None => out.push(0),
        Some(d) => {
            out.push(1);
            put_ids(out, &d.created);
            put_ids(out, &d.modified);
            put_ids(out, &d.removed);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(bytes)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    fn ids(&mut self) -> Option<Vec<ElementId>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(ElementId::from_raw(self.u64()?));
        }
        Some(out)
    }

    fn opt_delta(&mut self) -> Option<Option<ModelDelta>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(ModelDelta {
                created: self.ids()?,
                modified: self.ids()?,
                removed: self.ids()?,
            })),
            _ => None,
        }
    }
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Init { name } => {
                out.push(TAG_INIT);
                put_str(&mut out, name);
            }
            WalRecord::Commit { message, concern, hash, ordinal, delta } => {
                out.push(TAG_COMMIT);
                put_str(&mut out, message);
                put_opt_str(&mut out, concern.as_deref());
                put_u64(&mut out, *hash);
                put_u32(&mut out, *ordinal);
                put_opt_delta(&mut out, delta.as_ref());
            }
            WalRecord::Undo => out.push(TAG_UNDO),
            WalRecord::Redo => out.push(TAG_REDO),
            WalRecord::Branch { name } => {
                out.push(TAG_BRANCH);
                put_str(&mut out, name);
            }
            WalRecord::SwitchBranch { name } => {
                out.push(TAG_SWITCH);
                put_str(&mut out, name);
            }
            WalRecord::Tag { name } => {
                out.push(TAG_TAG);
                put_str(&mut out, name);
            }
            WalRecord::Checkpoint(state) => {
                out.push(TAG_CHECKPOINT);
                put_str(&mut out, &state.name);
                put_u64(&mut out, state.next_id);
                put_str(&mut out, &state.current_branch);
                put_u64(&mut out, state.position);
                put_u32(&mut out, state.commits.len() as u32);
                for c in &state.commits {
                    put_u64(&mut out, c.id);
                    match c.parent {
                        None => out.push(0),
                        Some(p) => {
                            out.push(1);
                            put_u64(&mut out, p);
                        }
                    }
                    put_str(&mut out, &c.message);
                    put_opt_str(&mut out, c.concern.as_deref());
                    put_u64(&mut out, c.hash);
                    put_u32(&mut out, c.ordinal);
                    put_opt_delta(&mut out, c.delta.as_ref());
                }
                put_u32(&mut out, state.branches.len() as u32);
                for (name, ids) in &state.branches {
                    put_str(&mut out, name);
                    put_u32(&mut out, ids.len() as u32);
                    for id in ids {
                        put_u64(&mut out, *id);
                    }
                }
                put_u32(&mut out, state.tags.len() as u32);
                for (name, id) in &state.tags {
                    put_str(&mut out, name);
                    put_u64(&mut out, *id);
                }
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Reader { buf: payload, pos: 0 };
        let record = match r.u8()? {
            TAG_INIT => WalRecord::Init { name: r.str()? },
            TAG_COMMIT => WalRecord::Commit {
                message: r.str()?,
                concern: r.opt_str()?,
                hash: r.u64()?,
                ordinal: r.u32()?,
                delta: r.opt_delta()?,
            },
            TAG_UNDO => WalRecord::Undo,
            TAG_REDO => WalRecord::Redo,
            TAG_BRANCH => WalRecord::Branch { name: r.str()? },
            TAG_SWITCH => WalRecord::SwitchBranch { name: r.str()? },
            TAG_TAG => WalRecord::Tag { name: r.str()? },
            TAG_CHECKPOINT => {
                let name = r.str()?;
                let next_id = r.u64()?;
                let current_branch = r.str()?;
                let position = r.u64()?;
                let n = r.u32()? as usize;
                let mut commits = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let id = r.u64()?;
                    let parent = match r.u8()? {
                        0 => None,
                        1 => Some(r.u64()?),
                        _ => return None,
                    };
                    commits.push(CheckpointCommit {
                        id,
                        parent,
                        message: r.str()?,
                        concern: r.opt_str()?,
                        hash: r.u64()?,
                        ordinal: r.u32()?,
                        delta: r.opt_delta()?,
                    });
                }
                let nb = r.u32()? as usize;
                let mut branches = Vec::with_capacity(nb.min(1 << 16));
                for _ in 0..nb {
                    let name = r.str()?;
                    let ni = r.u32()? as usize;
                    let mut ids = Vec::with_capacity(ni.min(1 << 16));
                    for _ in 0..ni {
                        ids.push(r.u64()?);
                    }
                    branches.push((name, ids));
                }
                let nt = r.u32()? as usize;
                let mut tags = Vec::with_capacity(nt.min(1 << 16));
                for _ in 0..nt {
                    let name = r.str()?;
                    tags.push((name, r.u64()?));
                }
                WalRecord::Checkpoint(CheckpointState {
                    name,
                    next_id,
                    current_branch,
                    position,
                    commits,
                    branches,
                    tags,
                })
            }
            _ => return None,
        };
        // Trailing payload bytes are corruption, not a longer record.
        if r.pos != payload.len() {
            return None;
        }
        Some(record)
    }
}

/// What reading a journal found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Complete, checksum-valid records read.
    pub records: usize,
    /// Bytes of torn/corrupt tail discarded.
    pub truncated_bytes: u64,
}

/// The append-side handle to a journal file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    end: u64,
    fsyncs: u64,
}

impl Wal {
    /// Opens `path` for appending at `end` (the byte offset past the
    /// last complete record, as reported by [`Wal::read_all`]); the file
    /// is truncated there first, discarding any torn tail.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open_at(path: impl Into<PathBuf>, end: u64) -> io::Result<Wal> {
        let path = path.into();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        file.set_len(end)?;
        Ok(Wal { file, path, end, fsyncs: 0 })
    }

    /// The file backing this journal.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to disk.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(HEADER as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.end += frame.len() as u64;
        Ok(())
    }

    /// How many `sync_data` barriers this handle has issued — one per
    /// appended record. Exposed so serving hosts can bridge durability
    /// cost into their metrics.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Simulates a crash cutting an append short: writes the header and
    /// first bytes of a record, then stops. The chaos harness calls
    /// this at its kill point; the next [`Wal::read_all`] must discard
    /// exactly this tail.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn append_torn(path: &Path) -> io::Result<()> {
        let payload = WalRecord::Undo.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&64u32.to_le_bytes()); // claims 64 payload bytes
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload); // ...delivers 1
        let mut file = OpenOptions::new().append(true).create(true).open(path)?;
        file.write_all(&frame)?;
        file.sync_data()?;
        Ok(())
    }

    /// Reads every complete record of the journal at `path`, stopping at
    /// the first incomplete or checksum-failing frame. Returns the
    /// records, the report, and the byte offset past the last complete
    /// record (pass it to [`Wal::open_at`] to truncate the torn tail).
    ///
    /// # Errors
    /// Propagates I/O failures; torn tails are *not* errors.
    pub fn read_all(path: &Path) -> io::Result<(Vec<WalRecord>, WalOpenReport, u64)> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut report = WalOpenReport::default();
        let mut pos: usize = 0;
        while let Some(header) = bytes.get(pos..pos + HEADER as usize) {
            let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
            if len > MAX_RECORD {
                break;
            }
            let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
            let Some(payload) =
                bytes.get(pos + HEADER as usize..pos + HEADER as usize + len as usize)
            else {
                break;
            };
            if fnv1a64(payload) != checksum {
                break;
            }
            let Some(record) = WalRecord::decode(payload) else { break };
            records.push(record);
            report.records += 1;
            pos += HEADER as usize + len as usize;
        }
        report.truncated_bytes = (bytes.len() - pos) as u64;
        Ok((records, report, pos as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("comet-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Init { name: "bank".into() },
            WalRecord::Commit {
                message: "initial PIM".into(),
                concern: None,
                hash: 0xdead_beef,
                ordinal: 0,
                delta: None,
            },
            WalRecord::Commit {
                message: "AddTx<Bank.transfer>".into(),
                concern: Some("transactions".into()),
                hash: 42,
                ordinal: 1,
                delta: Some(ModelDelta {
                    created: vec![ElementId::from_raw(7)],
                    modified: vec![ElementId::from_raw(8), ElementId::from_raw(9)],
                    removed: vec![],
                }),
            },
            WalRecord::Undo,
            WalRecord::Redo,
            WalRecord::Branch { name: "experiment".into() },
            WalRecord::SwitchBranch { name: "main".into() },
            WalRecord::Tag { name: "psm-v1".into() },
            WalRecord::Checkpoint(CheckpointState {
                name: "bank".into(),
                next_id: 3,
                current_branch: "main".into(),
                position: 2,
                commits: vec![CheckpointCommit {
                    id: 1,
                    parent: None,
                    message: "initial PIM".into(),
                    concern: None,
                    hash: 0xdead_beef,
                    ordinal: 0,
                    delta: None,
                }],
                branches: vec![("main".into(), vec![1])],
                tags: vec![("psm-v1".into(), 1)],
            }),
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_record_kind() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(WalRecord::decode(&payload).as_ref(), Some(&record), "{record:?}");
        }
    }

    #[test]
    fn append_then_read_all_round_trips() {
        let path = tmp("round");
        let mut wal = Wal::open_at(&path, 0).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        let (records, report, _) = Wal::read_all(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_prefix() {
        let path = tmp("tear");
        let mut wal = Wal::open_at(&path, 0).unwrap();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let all = sample_records();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, _, end) = Wal::read_all(&path).unwrap();
            assert!(records.len() <= all.len());
            assert_eq!(records, all[..records.len()], "cut at {cut}");
            assert!(end <= cut as u64);
        }
    }

    #[test]
    fn torn_append_is_discarded_and_writes_resume() {
        let path = tmp("resume");
        let mut wal = Wal::open_at(&path, 0).unwrap();
        wal.append(&WalRecord::Init { name: "r".into() }).unwrap();
        drop(wal);
        Wal::append_torn(&path).unwrap();
        let (records, report, end) = Wal::read_all(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Init { name: "r".into() }]);
        assert!(report.truncated_bytes > 0);
        let mut wal = Wal::open_at(&path, end).unwrap();
        wal.append(&WalRecord::Undo).unwrap();
        let (records, report, _) = Wal::read_all(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Init { name: "r".into() }, WalRecord::Undo]);
        assert_eq!(report.truncated_bytes, 0);
    }

    #[test]
    fn checksum_corruption_stops_the_reader() {
        let path = tmp("chk");
        let mut wal = Wal::open_at(&path, 0).unwrap();
        wal.append(&WalRecord::Init { name: "r".into() }).unwrap();
        wal.append(&WalRecord::Undo).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip a bit inside the second record
        std::fs::write(&path, &bytes).unwrap();
        let (records, report, _) = Wal::read_all(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Init { name: "r".into() }]);
        assert!(report.truncated_bytes > 0);
    }
}
