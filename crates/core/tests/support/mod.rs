//! Shared by the integration tests that compare output with the files
//! under `tests/golden/`.

/// The committed golden `tests/golden/<name>`. Under `UPDATE_GOLDEN=1`
/// the file is first rewritten with `actual`, so the caller's
/// comparison passes and the diff shows up in `git diff`.
pub fn golden(name: &str, actual: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} — run with UPDATE_GOLDEN=1 to create it"))
}
