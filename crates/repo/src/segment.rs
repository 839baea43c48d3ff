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
//! store never trusts the hash alone: [`SegmentStore::append`] compares
//! the candidate bytes against every stored segment with the same hash
//! and only dedupes on a **full byte match**. Colliding-but-different
//! payloads are stored side by side and addressed by `(hash, ordinal)`
//! — the [`SegmentId`] — so a collision can never alias two snapshots.

use comet_obs::fnv1a64;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header size: u32 length + u64 hash.
const HEADER: u64 = 12;
/// Upper bound on a single segment payload (corruption guard: a mangled
/// length field must not trigger a gigabyte allocation).
const MAX_SEGMENT: u32 = 64 * 1024 * 1024;

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
    path: PathBuf,
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
        while pos < file_len {
            let Some(frame) = read_frame(&bytes, pos) else { break };
            index
                .entry(frame.hash)
                .or_default()
                .push(SegRef { offset: pos + HEADER, len: frame.len });
            report.segments += 1;
            pos += HEADER + u64::from(frame.len);
        }
        if pos < file_len {
            report.truncated_bytes = file_len - pos;
            file.set_len(pos)?;
        }
        file.seek(SeekFrom::Start(pos))?;
        Ok((SegmentStore { file, path, end: pos, index }, report))
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of stored segments (post-dedupe).
    pub fn len(&self) -> usize {
        self.index.values().map(Vec::len).sum()
    }

    /// True when no segment is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Appends `payload`, deduplicating against stored segments with the
    /// same hash by **comparing the full bytes** — a 64-bit hash
    /// collision yields a new ordinal, never an alias.
    ///
    /// # Errors
    /// Propagates I/O failures; the in-memory index is only updated
    /// after the frame (header + payload) reached the file.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<SegmentId> {
        assert!(payload.len() as u64 <= u64::from(MAX_SEGMENT), "segment payload too large");
        let hash = fnv1a64(payload);
        if let Some(refs) = self.index.get(&hash) {
            for (ordinal, seg) in refs.clone().iter().enumerate() {
                if self.read_ref(*seg)? == payload {
                    return Ok(SegmentId { hash, ordinal: ordinal as u32 });
                }
            }
        }
        let mut frame = Vec::with_capacity(HEADER as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&hash.to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        let seg = SegRef { offset: self.end + HEADER, len: payload.len() as u32 };
        self.end += frame.len() as u64;
        let refs = self.index.entry(hash).or_default();
        refs.push(seg);
        Ok(SegmentId { hash, ordinal: (refs.len() - 1) as u32 })
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

struct Frame {
    hash: u64,
    len: u32,
}

/// Decodes and verifies the frame at `pos`, or `None` when the bytes
/// from `pos` on are not one complete, checksum-valid frame.
fn read_frame(bytes: &[u8], pos: u64) -> Option<Frame> {
    let pos = pos as usize;
    let header = bytes.get(pos..pos + HEADER as usize)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > MAX_SEGMENT {
        return None;
    }
    let hash = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let payload = bytes.get(pos + HEADER as usize..pos + HEADER as usize + len as usize)?;
    if fnv1a64(payload) != hash {
        return None;
    }
    Some(Frame { hash, len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("comet-seg-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("segments.log")
    }

    #[test]
    fn append_get_round_trip_and_dedupe() {
        let path = tmp("round");
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
        let path = tmp("reopen");
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
        let path = tmp("torn");
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
    fn colliding_hashes_keep_distinct_payloads() {
        let path = tmp("collide");
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
