//! On-disk compatibility: a journal directory written by an earlier
//! build must keep opening, checking clean and resuming.
//!
//! `fixtures/journal-v1/` is the data directory `comet-cli serve --seed
//! 7 --shards 2 --data-dir D` wrote before the write-ahead log grew its
//! zero-filled tail: each `wal.log` ends exactly at its last record.
//! `golden/journal_v1_resume.txt` is the stdout the same build printed
//! when it served that directory a second time. Neither file is
//! regenerated: they pin what an older build left on disk.

use comet_repo::Repository;
use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/journal-v1");
const RESUME_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/journal_v1_resume.txt");
const TENANTS: [&str; 4] = ["t00", "t01", "t02", "t03"];

/// Copies the fixture into a fresh scratch directory, so neither the
/// open's repairs nor the resumed run's appends touch the committed
/// files.
fn fixture_copy() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-journal-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for tenant in TENANTS {
        std::fs::create_dir_all(dir.join(tenant)).unwrap();
        for file in ["wal.log", "segments.log"] {
            let from = Path::new(FIXTURE).join(tenant).join(file);
            std::fs::copy(&from, dir.join(tenant).join(file))
                .unwrap_or_else(|e| panic!("{}: {e}", from.display()));
        }
    }
    dir
}

/// Fscks every tenant's journal under `dir`: healthy, nothing torn.
fn assert_every_tenant_clean(dir: &Path, when: &str) {
    for tenant in TENANTS {
        let report = Repository::fsck(&dir.join(tenant)).expect("journal opens");
        assert!(report.ok(), "{when} {tenant}:\n{report}");
        assert_eq!(report.recovery.wal_truncated_bytes, 0, "{when} {tenant}:\n{report}");
        assert_eq!(report.recovery.segment_truncated_bytes, 0, "{when} {tenant}:\n{report}");
    }
}

#[test]
fn v1_journal_passes_fsck_and_resumes_with_the_pinned_stdout() {
    let dir = fixture_copy();
    assert_every_tenant_clean(&dir, "before resume");
    let out = Command::new(env!("CARGO_BIN_EXE_comet-cli"))
        .args(["serve", "--seed", "7", "--shards", "2", "--data-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let golden = std::fs::read_to_string(RESUME_GOLDEN).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "resumed stdout drifted");
    // The resumed run appended to the old journals; they stay clean.
    assert_every_tenant_clean(&dir, "after resume");
    std::fs::remove_dir_all(&dir).unwrap();
}
