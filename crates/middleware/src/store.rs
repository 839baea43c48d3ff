//! A simulated document store: the persistence backend the persistence
//! concern saves object snapshots into (the role a persistence service
//! or entity-bean container plays in a J2EE-era platform).
//!
//! `save` and `load` are fallible: they are fault-injection choke
//! points (`store.save` / `store.load`). A store built standalone via
//! [`StoreService::new`] has no injector attached and never fails.
//!
//! ## Durable mode
//!
//! [`StoreService::persist_to`] (available when the snapshot type
//! implements [`StoreBytes`]) attaches a backing directory: every save
//! writes through to one checksummed `.doc` file per key (atomic
//! tmp-file + rename), and opening the same directory later recovers
//! the surviving documents. A torn write — simulated by arming the
//! [`FAULT_POINT_STORE_TORN`] fault hook, which makes the next
//! write-through crash mid-file — fails the checksum on recovery and
//! the document is discarded, exactly like a torn WAL record in
//! `comet-repo`.

use crate::error::MiddlewareError;
use crate::faults::{FaultHook, FaultInjector, FaultOp};
use comet_obs::fnv1a64;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Fault point name: the next durable write-through is torn mid-file
/// ([`FaultHook`] on [`StoreService`]).
pub const FAULT_POINT_STORE_TORN: &str = "store.torn";

/// Store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Documents written (including overwrites).
    pub saves: u64,
    /// Successful loads.
    pub loads: u64,
    /// Loads that found nothing.
    pub misses: u64,
    /// Saves or loads rejected by an injected fault.
    pub faulted: u64,
}

/// Byte codec for snapshot types the durable mode can persist. The
/// decode side returns `None` on malformed bytes — corruption turns
/// into a skipped document, never a panic.
pub trait StoreBytes: Sized {
    /// Serializes the snapshot.
    fn to_store_bytes(&self) -> Vec<u8>;
    /// Deserializes a snapshot, or `None` when the bytes are invalid.
    fn from_store_bytes(bytes: &[u8]) -> Option<Self>;
}

impl StoreBytes for String {
    fn to_store_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    fn from_store_bytes(bytes: &[u8]) -> Option<String> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl StoreBytes for i64 {
    fn to_store_bytes(&self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }

    fn from_store_bytes(bytes: &[u8]) -> Option<i64> {
        Some(i64::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Durable-mode state. The codec is captured as monomorphized function
/// pointers when [`StoreService::persist_to`] is called, so the plain
/// `save`/`load` API keeps working for snapshot types that are not
/// [`StoreBytes`] (they just cannot enter durable mode).
struct DurableState<V> {
    dir: PathBuf,
    /// Armed via [`FAULT_POINT_STORE_TORN`]: the next write-through
    /// stops mid-file.
    torn_next: bool,
    encode: fn(&str, &V) -> Vec<u8>,
}

impl<V> Clone for DurableState<V> {
    fn clone(&self) -> Self {
        DurableState { dir: self.dir.clone(), torn_next: self.torn_next, encode: self.encode }
    }
}

impl<V> std::fmt::Debug for DurableState<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableState")
            .field("dir", &self.dir)
            .field("torn_next", &self.torn_next)
            .finish_non_exhaustive()
    }
}

/// A key-value document store, generic over the snapshot type (the
/// interpreter stores its runtime values).
#[derive(Debug, Clone, Default)]
pub struct StoreService<V> {
    documents: BTreeMap<String, V>,
    stats: StoreStats,
    faults: Option<Rc<RefCell<FaultInjector>>>,
    durable: Option<DurableState<V>>,
}

impl<V: Clone> StoreService<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        StoreService {
            documents: BTreeMap::new(),
            stats: StoreStats::default(),
            faults: None,
            durable: None,
        }
    }

    pub(crate) fn attach_faults(&mut self, faults: Rc<RefCell<FaultInjector>>) {
        self.faults = Some(faults);
    }

    fn check(&mut self, op: FaultOp) -> Result<(), MiddlewareError> {
        if let Some(faults) = &self.faults {
            if let Err(e) = faults.borrow_mut().check(op, &[]) {
                self.stats.faulted += 1;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// All keys, sorted.
    pub fn keys(&self) -> Vec<&str> {
        self.documents.keys().map(String::as_str).collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// True when a backing directory is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }
}

impl<V: Clone + StoreBytes> StoreService<V> {
    /// Attaches a backing directory (created if absent): documents that
    /// survived in it are recovered into the store first (a torn or
    /// corrupt `.doc` file is skipped), then every save writes through.
    /// Returns the number of documents recovered.
    ///
    /// # Errors
    /// Fails on I/O errors other than torn/corrupt document files.
    pub fn persist_to(&mut self, dir: &Path) -> Result<usize, MiddlewareError> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let mut recovered = 0;
        let entries = std::fs::read_dir(dir).map_err(io_err)?;
        for entry in entries {
            let path = entry.map_err(io_err)?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("doc") {
                continue;
            }
            let bytes = std::fs::read(&path).map_err(io_err)?;
            if let Some((key, value)) = decode_doc::<V>(&bytes) {
                self.documents.insert(key, value);
                recovered += 1;
            }
            // else: torn write from a crash — the document never
            // happened; leave the file to be overwritten by later saves.
        }
        self.durable =
            Some(DurableState { dir: dir.to_owned(), torn_next: false, encode: encode_doc::<V> });
        Ok(recovered)
    }
}

impl<V: Clone> StoreService<V> {
    /// Writes (or overwrites) a document.
    ///
    /// # Errors
    /// Fails when the fault injector perturbs `store.save` (the
    /// document is then *not* written) or on a durable-backend I/O
    /// error.
    pub fn save(&mut self, key: &str, snapshot: V) -> Result<(), MiddlewareError> {
        self.check(FaultOp::StoreSave)?;
        self.write_through(key, &snapshot)?;
        self.documents.insert(key.to_owned(), snapshot);
        self.stats.saves += 1;
        Ok(())
    }

    /// Reads a document.
    ///
    /// # Errors
    /// Fails only when the fault injector perturbs `store.load`.
    pub fn load(&mut self, key: &str) -> Result<Option<V>, MiddlewareError> {
        self.check(FaultOp::StoreLoad)?;
        match self.documents.get(key) {
            Some(v) => {
                self.stats.loads += 1;
                Ok(Some(v.clone()))
            }
            None => {
                self.stats.misses += 1;
                Ok(None)
            }
        }
    }

    /// Deletes a document (and its backing file); returns whether it
    /// existed.
    pub fn delete(&mut self, key: &str) -> bool {
        if let Some(state) = &self.durable {
            let _ = std::fs::remove_file(doc_path(&state.dir, key));
        }
        self.documents.remove(key).is_some()
    }

    fn write_through(&mut self, key: &str, value: &V) -> Result<(), MiddlewareError> {
        let Some(state) = &mut self.durable else { return Ok(()) };
        let frame = (state.encode)(key, value);
        let path = doc_path(&state.dir, key);
        if std::mem::take(&mut state.torn_next) {
            // Simulated crash mid-write: half the frame lands, straight
            // into the final path (no atomic rename happened). The save
            // itself reports success — the process "died" after the
            // in-memory apply; recovery discards the torn file.
            std::fs::write(&path, &frame[..frame.len() / 2]).map_err(io_err)?;
            return Ok(());
        }
        let tmp = path.with_extension("doc.tmp");
        std::fs::write(&tmp, &frame).map_err(io_err)?;
        std::fs::rename(&tmp, &path).map_err(io_err)?;
        Ok(())
    }
}

/// Arming [`FAULT_POINT_STORE_TORN`] makes the next durable
/// write-through stop mid-file; without a backing directory attached
/// there is nothing to tear and arming fails.
impl<V: Clone> FaultHook for StoreService<V> {
    fn fault_points(&self) -> Vec<&'static str> {
        vec![FAULT_POINT_STORE_TORN]
    }

    fn arm_fault(&mut self, point: &str) -> Result<(), MiddlewareError> {
        if point != FAULT_POINT_STORE_TORN {
            return Err(MiddlewareError::UnknownFaultPoint(point.to_owned()));
        }
        match &mut self.durable {
            Some(state) => {
                state.torn_next = true;
                Ok(())
            }
            None => {
                Err(MiddlewareError::UnknownFaultPoint(format!("{point} (store is not durable)")))
            }
        }
    }
}

fn io_err(e: std::io::Error) -> MiddlewareError {
    MiddlewareError::StorageIo(e.to_string())
}

/// One file per key; the name is the hex-encoded key (keys like
/// `model/v1` are not filesystem-safe verbatim).
fn doc_path(dir: &Path, key: &str) -> PathBuf {
    let mut name = String::with_capacity(key.len() * 2 + 4);
    for b in key.as_bytes() {
        name.push_str(&format!("{b:02x}"));
    }
    name.push_str(".doc");
    dir.join(name)
}

/// Frame: `[u32 key len][key][u32 value len][u64 fnv1a64(value)][value]`
/// — the embedded key makes files self-describing, the checksum makes
/// torn writes detectable.
fn encode_doc<V: StoreBytes>(key: &str, value: &V) -> Vec<u8> {
    let value = value.to_store_bytes();
    let mut out = Vec::with_capacity(16 + key.len() + value.len());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&value).to_le_bytes());
    out.extend_from_slice(&value);
    out
}

fn decode_doc<V: StoreBytes>(bytes: &[u8]) -> Option<(String, V)> {
    let key_len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let key = std::str::from_utf8(bytes.get(4..4 + key_len)?).ok()?;
    let rest = bytes.get(4 + key_len..)?;
    let value_len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(rest.get(4..12)?.try_into().ok()?);
    let value = rest.get(12..12 + value_len)?;
    if rest.len() != 12 + value_len || fnv1a64(value) != checksum {
        return None;
    }
    Some((key.to_owned(), V::from_store_bytes(value)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::faults::{FaultKind, FaultPlan};

    /// `comet-store-<pid>-<name>` under the system temp dir: empty
    /// when made, removed when dropped, so a test leaves nothing behind
    /// whether it passes or panics.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmp(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("comet-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    #[test]
    fn save_load_delete() {
        let mut s: StoreService<i64> = StoreService::new();
        assert!(s.is_empty());
        s.save("a/1", 10).unwrap();
        s.save("a/1", 20).unwrap(); // overwrite
        s.save("a/2", 30).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.load("a/1").unwrap(), Some(20));
        assert_eq!(s.load("ghost").unwrap(), None);
        assert_eq!(s.keys(), vec!["a/1", "a/2"]);
        assert!(s.delete("a/1"));
        assert!(!s.delete("a/1"));
        let st = s.stats();
        assert_eq!((st.saves, st.loads, st.misses, st.faulted), (3, 1, 1, 0));
    }

    #[test]
    fn faulted_save_writes_nothing() {
        let clock = Rc::new(RefCell::new(SimClock::default()));
        let faults = Rc::new(RefCell::new(FaultInjector::new(clock, 1)));
        faults.borrow_mut().install_plan(FaultPlan::new(1).at(
            FaultOp::StoreSave,
            1,
            FaultKind::Transient,
        ));
        let mut s: StoreService<i64> = StoreService::new();
        s.attach_faults(faults);
        let err = s.save("k", 1).unwrap_err();
        assert!(matches!(err, MiddlewareError::FaultInjected { ref op } if op == "store.save"));
        assert!(s.is_empty(), "a faulted save must not write");
        assert_eq!(s.stats().faulted, 1);
        s.save("k", 2).unwrap();
        assert_eq!(s.load("k").unwrap(), Some(2));
    }

    #[test]
    fn durable_store_recovers_documents_on_reopen() {
        let dir = tmp("reopen");
        let mut s: StoreService<String> = StoreService::new();
        s.persist_to(&dir.0).unwrap();
        s.save("model/v1", "<xmi v1/>".to_owned()).unwrap();
        s.save("model/v2", "<xmi v2/>".to_owned()).unwrap();
        s.save("model/head", "<xmi v2/>".to_owned()).unwrap();
        assert!(s.delete("model/v1"));
        drop(s);
        let mut s: StoreService<String> = StoreService::new();
        let recovered = s.persist_to(&dir.0).unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(s.keys(), vec!["model/head", "model/v2"]);
        assert_eq!(s.load("model/v2").unwrap().as_deref(), Some("<xmi v2/>"));
        assert_eq!(s.load("model/v1").unwrap(), None);
    }

    #[test]
    fn torn_write_through_is_discarded_on_recovery() {
        let dir = tmp("torn");
        let mut s: StoreService<String> = StoreService::new();
        s.persist_to(&dir.0).unwrap();
        s.save("kept", "survives".to_owned()).unwrap();
        s.arm_fault(FAULT_POINT_STORE_TORN).unwrap();
        // The torn save still "succeeds" — the simulated crash happens
        // after the in-memory apply — so memory and disk now disagree.
        s.save("lost", "never lands".to_owned()).unwrap();
        assert_eq!(s.load("lost").unwrap().as_deref(), Some("never lands"));
        drop(s);
        let mut s: StoreService<String> = StoreService::new();
        let recovered = s.persist_to(&dir.0).unwrap();
        assert_eq!(recovered, 1, "the torn document must not recover");
        assert_eq!(s.keys(), vec!["kept"]);
        // The torn file's slot is clean again: a retry of the save
        // lands and survives the next reopen.
        s.save("lost", "second try".to_owned()).unwrap();
        drop(s);
        let mut s: StoreService<String> = StoreService::new();
        assert_eq!(s.persist_to(&dir.0).unwrap(), 2);
        assert_eq!(s.load("lost").unwrap().as_deref(), Some("second try"));
    }

    #[test]
    fn torn_fault_point_requires_durable_mode() {
        let mut s: StoreService<String> = StoreService::new();
        assert_eq!(s.fault_points(), vec![FAULT_POINT_STORE_TORN]);
        assert!(matches!(
            s.arm_fault(FAULT_POINT_STORE_TORN),
            Err(MiddlewareError::UnknownFaultPoint(_))
        ));
        assert!(matches!(s.arm_fault("store.meteor"), Err(MiddlewareError::UnknownFaultPoint(_))));
        assert!(!s.is_durable());
        let dir = tmp("arm");
        s.persist_to(&dir.0).unwrap();
        assert!(s.is_durable());
        s.arm_fault(FAULT_POINT_STORE_TORN).unwrap();
    }
}
