//! Scratch directories for the unit tests.

use std::path::{Path, PathBuf};

/// `comet-<kind>-<pid>-<name>` under the system temp dir: empty when
/// made, removed when dropped, so a test leaves nothing behind whether
/// it passes or panics.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    pub(crate) fn new(kind: &str, name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("comet-{kind}-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
