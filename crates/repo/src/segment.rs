//! The append-only segment store: content-addressed snapshot payloads
//! on disk.
//!
//! One segment = one XMI snapshot, framed as
//! `[u32 payload len][u64 FNV-1a of payload][payload bytes]` and
//! appended to a single `segments.log` file. The FNV hash doubles as
//! the content address *and* the integrity checksum: on open the whole
//! file is scanned, every frame is re-hashed, and the first frame that
//! is incomplete or fails verification truncates the file there (a torn
//! write from a crash mid-append loses at most the in-flight segment).
//!
//! ## Collision safety
//!
//! FNV-1a is 64 bits, so two distinct snapshots *can* share a hash. The
//! store never trusts the hash alone: [`SegmentStore::find`], under
//! every dedupe, compares the candidate bytes against every stored
//! segment with the same hash and only matches on a **full byte
//! match**. Colliding-but-different payloads are stored side by side
//! and addressed by `(hash, ordinal)` — the [`SegmentId`] — so a
//! collision can never alias two snapshots.

use comet_obs::fnv1a64;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Frame header size: u32 length + u64 hash.
pub(crate) const HEADER: u64 = 12;
/// Upper bound on a single segment payload (corruption guard: a mangled
/// length field must not trigger a gigabyte allocation).
const MAX_SEGMENT: u32 = 64 * 1024 * 1024;

/// `len` as a frame's length field, or `InvalidInput` when the reader
/// would reject a frame that long as corruption (over `max`). Writers
/// check it before writing anything, so they never acknowledge a frame
/// the next open would truncate.
pub(crate) fn frame_len(len: usize, max: u32) -> io::Result<u32> {
    u32::try_from(len).ok().filter(|&len| len <= max).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {len}-byte payload exceeds the {max}-byte frame bound"),
        )
    })
}

/// One frame, `[u32 len][u64 hash][payload]` — the segment store's and
/// the WAL's on-disk unit.
pub(crate) fn frame(len: u32, hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER as usize + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&hash.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The frame at `pos` — its hash and payload — or `None` when the bytes
/// from `pos` on are not one complete frame of at most `max` payload
/// bytes whose payload hashes to its header.
pub(crate) fn read_frame(bytes: &[u8], pos: usize, max: u32) -> Option<(u64, &[u8])> {
    let header = bytes.get(pos..pos + HEADER as usize)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > max {
        return None;
    }
    let hash = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let start = pos + HEADER as usize;
    let payload = bytes.get(start..start + len as usize)?;
    (fnv1a64(payload) == hash).then_some((hash, payload))
}

/// Address of one stored payload: content hash plus the ordinal among
/// same-hash segments (0 for all payloads until a collision happens).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentId {
    /// FNV-1a content hash of the payload.
    pub hash: u64,
    /// Index among segments sharing `hash`, in append order.
    pub ordinal: u32,
}

/// Where one segment's payload lives in the file.
#[derive(Debug, Clone, Copy)]
struct SegRef {
    /// Byte offset of the payload (past the frame header).
    offset: u64,
    len: u32,
}

/// What opening a segment file found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentOpenReport {
    /// Complete, verified segments indexed.
    pub segments: usize,
    /// Bytes of torn/corrupt tail truncated away.
    pub truncated_bytes: u64,
}

/// The append-only, content-addressed segment file.
#[derive(Debug)]
pub struct SegmentStore {
    file: File,
    /// End of the last verified frame (= append position).
    end: u64,
    index: BTreeMap<u64, Vec<SegRef>>,
}

impl SegmentStore {
    /// Opens (or creates) the segment file at `path`, rebuilding the
    /// in-memory index by scanning and re-hashing every frame. A torn
    /// or corrupt tail is truncated; everything before it survives.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(SegmentStore, SegmentOpenReport)> {
        let path = path.into();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.seek(SeekFrom::End(0))?;
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut bytes)?;
        let mut index: BTreeMap<u64, Vec<SegRef>> = BTreeMap::new();
        let mut report = SegmentOpenReport::default();
        let mut pos: u64 = 0;
        while let Some((hash, payload)) = read_frame(&bytes, pos as usize, MAX_SEGMENT) {
            let len = payload.len() as u32;
            index.entry(hash).or_default().push(SegRef { offset: pos + HEADER, len });
            report.segments += 1;
            pos += HEADER + u64::from(len);
        }
        if pos < file_len {
            report.truncated_bytes = file_len - pos;
            file.set_len(pos)?;
        }
        file.seek(SeekFrom::Start(pos))?;
        Ok((SegmentStore { file, end: pos, index }, report))
    }

    /// Number of stored segments (post-dedupe).
    pub fn len(&self) -> usize {
        self.index.values().map(Vec::len).sum()
    }

    /// The stored segment under `hash` whose bytes equal `payload`, by
    /// **comparing the full bytes** of each same-hash candidate in
    /// ordinal order; `None` when no candidate matches. A match proves
    /// that `hash` is `payload`'s FNV-1a, since every frame's payload
    /// hashes to its address.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub(crate) fn find(&mut self, payload: &[u8], hash: u64) -> io::Result<Option<SegmentId>> {
        if let Some(refs) = self.index.get(&hash) {
            for (ordinal, seg) in refs.clone().iter().enumerate() {
                if self.read_ref(*seg)? == payload {
                    return Ok(Some(SegmentId { hash, ordinal: ordinal as u32 }));
                }
            }
        }
        Ok(None)
    }

    /// Appends `payload` unless [`find`](Self::find) locates its bytes
    /// already — a 64-bit hash collision yields a new ordinal, never an
    /// alias. `hash` is the payload's FNV-1a, which the caller already
    /// has (a commit hashes its snapshot once); debug builds check it.
    ///
    /// # Errors
    /// `InvalidInput`, before anything is written, for a payload over
    /// the 64 MiB segment bound; otherwise propagates I/O failures. The
    /// in-memory index is only updated after the frame (header +
    /// payload) reached the file.
    pub(crate) fn append_hashed(&mut self, payload: &[u8], hash: u64) -> io::Result<SegmentId> {
        debug_assert_eq!(hash, fnv1a64(payload), "append_hashed given another payload's hash");
        let len = frame_len(payload.len(), MAX_SEGMENT)?;
        if let Some(stored) = self.find(payload, hash)? {
            return Ok(stored);
        }
        let frame = frame(len, hash, payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        let seg = SegRef { offset: self.end + HEADER, len };
        self.end += frame.len() as u64;
        let refs = self.index.entry(hash).or_default();
        refs.push(seg);
        Ok(SegmentId { hash, ordinal: (refs.len() - 1) as u32 })
    }

    /// [`SegmentStore::append_hashed`], hashing `payload` here.
    #[cfg(test)]
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<SegmentId> {
        self.append_hashed(payload, fnv1a64(payload))
    }

    /// Reads one segment's payload, or `None` when the address is
    /// unknown.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn get(&mut self, id: SegmentId) -> io::Result<Option<Vec<u8>>> {
        let Some(seg) = self.index.get(&id.hash).and_then(|refs| refs.get(id.ordinal as usize))
        else {
            return Ok(None);
        };
        self.read_ref(*seg).map(Some)
    }

    fn read_ref(&mut self, seg: SegRef) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(seg.offset))?;
        let mut buf = vec![0u8; seg.len as usize];
        self.file.read_exact(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TempDir;

    /// The store file in a fresh scratch directory, which lives as
    /// long as the returned guard.
    fn tmp(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("seg", name);
        std::fs::create_dir_all(&*dir).unwrap();
        let path = dir.join("segments.log");
        (dir, path)
    }

    #[test]
    fn append_get_round_trip_and_dedupe() {
        let (_dir, path) = tmp("round");
        let (mut store, report) = SegmentStore::open(&path).unwrap();
        assert_eq!(report, SegmentOpenReport::default());
        let a = store.append(b"alpha").unwrap();
        let b = store.append(b"beta").unwrap();
        let a2 = store.append(b"alpha").unwrap();
        assert_eq!(a, a2, "identical payloads dedupe to one segment");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(a).unwrap().unwrap(), b"alpha");
        assert_eq!(store.get(b).unwrap().unwrap(), b"beta");
        assert_eq!(store.get(SegmentId { hash: 1, ordinal: 0 }).unwrap(), None);
    }

    #[test]
    fn reopen_rebuilds_the_index() {
        let (_dir, path) = tmp("reopen");
        let (mut store, _) = SegmentStore::open(&path).unwrap();
        let a = store.append(b"alpha").unwrap();
        let b = store.append(b"beta").unwrap();
        drop(store);
        let (mut store, report) = SegmentStore::open(&path).unwrap();
        assert_eq!(report.segments, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(store.get(a).unwrap().unwrap(), b"alpha");
        assert_eq!(store.get(b).unwrap().unwrap(), b"beta");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let (_dir, path) = tmp("torn");
        let (mut store, _) = SegmentStore::open(&path).unwrap();
        let a = store.append(b"alpha").unwrap();
        drop(store);
        let full = std::fs::read(&path).unwrap();
        // Tear the file at every byte boundary past the first frame; the
        // first segment must always survive, the torn tail never does.
        let first_frame = HEADER as usize + 5;
        for cut in first_frame..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            // Append garbage to exercise the checksum path too.
            if cut == first_frame + 3 {
                let mut torn = full[..cut].to_vec();
                torn.extend_from_slice(b"\xde\xad");
                std::fs::write(&path, &torn).unwrap();
            }
            let (mut store, report) = SegmentStore::open(&path).unwrap();
            assert_eq!(report.segments, 1, "cut at {cut}");
            assert!(report.truncated_bytes > 0 || cut == first_frame);
            assert_eq!(store.get(a).unwrap().unwrap(), b"alpha");
            // The file is clean again: a fresh append lands correctly.
            let b = store.append(b"beta").unwrap();
            assert_eq!(store.get(b).unwrap().unwrap(), b"beta");
        }
    }

    #[test]
    fn a_payload_over_the_bound_is_refused_before_any_write() {
        let (_dir, path) = tmp("oversized");
        let (mut store, _) = SegmentStore::open(&path).unwrap();
        let a = store.append(b"alpha").unwrap();
        let before = std::fs::read(&path).unwrap();
        // Zeroed and never read: the bound is checked before hashing.
        let oversized = vec![0u8; MAX_SEGMENT as usize + 1];
        let err = store.append(&oversized).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        drop(oversized);
        assert_eq!(std::fs::read(&path).unwrap(), before, "nothing was written");
        assert_eq!(store.len(), 1);
        // The reader agrees: the store reopens with what it acknowledged.
        drop(store);
        let (mut store, report) = SegmentStore::open(&path).unwrap();
        assert_eq!(report, SegmentOpenReport { segments: 1, truncated_bytes: 0 });
        assert_eq!(store.get(a).unwrap().unwrap(), b"alpha");
    }

    #[test]
    fn colliding_hashes_keep_distinct_payloads() {
        let (_dir, path) = tmp("collide");
        let (mut store, _) = SegmentStore::open(&path).unwrap();
        // Force a collision by editing the index: append two distinct
        // payloads, then verify ordinal addressing keeps them apart even
        // when both live under one hash bucket.
        let a = store.append(b"one").unwrap();
        store.index.get_mut(&a.hash).unwrap().push(SegRef { offset: store.end + HEADER, len: 3 });
        // Write the colliding frame by hand with a's hash.
        let mut frame = Vec::new();
        frame.extend_from_slice(&3u32.to_le_bytes());
        frame.extend_from_slice(&a.hash.to_le_bytes());
        frame.extend_from_slice(b"two");
        store.file.seek(SeekFrom::Start(store.end)).unwrap();
        store.file.write_all(&frame).unwrap();
        store.end += frame.len() as u64;
        let b = SegmentId { hash: a.hash, ordinal: 1 };
        assert_eq!(store.get(a).unwrap().unwrap(), b"one");
        assert_eq!(store.get(b).unwrap().unwrap(), b"two");
        // A re-append of "one" byte-compares and returns ordinal 0, not
        // the colliding sibling.
        assert_eq!(store.append(b"one").unwrap(), a);
    }
}
