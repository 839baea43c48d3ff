//! Property tests for the repository: undo/redo laws, snapshot
//! fidelity, and diff algebra over random version chains.

use comet_model::{Model, ModelDelta, Primitive};
use comet_repo::Repository;
use proptest::prelude::*;

/// Builds a chain of model versions, each extending the previous.
fn version_chain(extensions: &[u8]) -> Vec<Model> {
    let mut versions = Vec::new();
    let mut m = Model::new("chain");
    versions.push(m.clone());
    for (i, kind) in extensions.iter().enumerate() {
        let root = m.root();
        match kind % 3 {
            0 => {
                m.add_class(root, &format!("C{i}")).expect("unique");
            }
            1 => {
                let c = m.add_class(root, &format!("D{i}")).expect("unique");
                m.add_attribute(c, "x", Primitive::Int.into()).expect("unique");
            }
            _ => {
                if let Some(&class) = m.classes().first() {
                    m.apply_stereotype(class, &format!("S{i}")).expect("exists");
                } else {
                    m.add_class(root, &format!("E{i}")).expect("unique");
                }
            }
        }
        versions.push(m.clone());
    }
    versions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn head_after_commits_is_last_version(exts in prop::collection::vec(any::<u8>(), 1..12)) {
        let versions = version_chain(&exts);
        let mut repo = Repository::new("chain");
        for (i, v) in versions.iter().enumerate() {
            repo.commit(v, &format!("v{i}"), None).expect("commits");
        }
        let head = repo.head_model().expect("has head").expect("decodes");
        prop_assert_eq!(&head, versions.last().expect("non-empty"));
        prop_assert_eq!(repo.log().len(), versions.len());
    }

    #[test]
    fn undo_then_redo_is_identity(exts in prop::collection::vec(any::<u8>(), 1..10), steps in 1usize..5) {
        let versions = version_chain(&exts);
        let mut repo = Repository::new("chain");
        for (i, v) in versions.iter().enumerate() {
            repo.commit(v, &format!("v{i}"), None).expect("commits");
        }
        let before = repo.head_model().expect("head").expect("decodes");
        let steps = steps.min(repo.undo_depth());
        for _ in 0..steps {
            repo.undo();
        }
        for _ in 0..steps {
            repo.redo();
        }
        let after = repo.head_model().expect("head").expect("decodes");
        prop_assert_eq!(before, after);
    }

    #[test]
    fn undo_walks_versions_backwards(exts in prop::collection::vec(any::<u8>(), 2..10)) {
        let versions = version_chain(&exts);
        let mut repo = Repository::new("chain");
        for (i, v) in versions.iter().enumerate() {
            repo.commit(v, &format!("v{i}"), None).expect("commits");
        }
        for expected in versions.iter().rev().skip(1) {
            let undone = repo.undo().expect("undoable").expect("decodes");
            // Undoing the first commit yields the fresh empty model, not
            // a stored version; stop there.
            if repo.undo_depth() == 0 {
                break;
            }
            prop_assert_eq!(&undone, expected);
        }
    }

    #[test]
    fn diff_is_empty_iff_models_equal(exts in prop::collection::vec(any::<u8>(), 1..10)) {
        let versions = version_chain(&exts);
        for w in versions.windows(2) {
            let d = ModelDelta::between(&w[0], &w[1]);
            prop_assert_eq!(d.is_empty(), w[0] == w[1]);
            let self_diff = ModelDelta::between(&w[1], &w[1]);
            prop_assert!(self_diff.is_empty());
        }
    }

    #[test]
    fn diff_created_removed_are_mirror_images(exts in prop::collection::vec(any::<u8>(), 1..10)) {
        let versions = version_chain(&exts);
        let first = versions.first().expect("non-empty");
        let last = versions.last().expect("non-empty");
        let fwd = ModelDelta::between(first, last);
        let bwd = ModelDelta::between(last, first);
        prop_assert_eq!(&fwd.created, &bwd.removed);
        prop_assert_eq!(&fwd.removed, &bwd.created);
        let mut fm = fwd.modified.clone();
        let mut bm = bwd.modified.clone();
        fm.sort();
        bm.sort();
        prop_assert_eq!(fm, bm);
    }

    #[test]
    fn switch_branch_resets_the_redo_stack(
        exts in prop::collection::vec(any::<u8>(), 3..10),
        undos in 1usize..4,
    ) {
        let versions = version_chain(&exts);
        let mut repo = Repository::new("chain");
        for (i, v) in versions.iter().enumerate() {
            repo.commit(v, &format!("v{i}"), None).expect("commits");
        }
        // Open a redo window on main, then fork from the undone state.
        let undos = undos.min(repo.undo_depth().saturating_sub(1));
        for _ in 0..undos {
            repo.undo();
        }
        prop_assert_eq!(repo.redo_depth(), undos);
        repo.branch("side").expect("fresh branch name");
        // Branching keeps only the visible prefix: nothing to redo on
        // the new branch, ever.
        prop_assert_eq!(repo.redo_depth(), 0);

        // Switching back to main lands on the branch tip: the redo
        // window that was open before the switch is gone.
        repo.switch_branch("main").expect("main exists");
        prop_assert_eq!(repo.redo_depth(), 0);
        prop_assert_eq!(repo.undo_depth(), versions.len());
        let head = repo.head_model().expect("head").expect("decodes");
        prop_assert_eq!(&head, versions.last().expect("non-empty"));

        // Undo/redo still works after the round-trip of switches.
        repo.switch_branch("side").expect("side exists");
        prop_assert_eq!(repo.undo_depth(), versions.len() - undos);
        prop_assert_eq!(repo.redo_depth(), 0);
        if repo.undo_depth() > 1 {
            let before = repo.head_model().expect("head").expect("decodes");
            repo.undo().expect("undoable").expect("decodes");
            prop_assert_eq!(repo.redo_depth(), 1);
            let after = repo.redo().expect("redoable").expect("decodes");
            prop_assert_eq!(after, before);
        }
    }

    #[test]
    fn commit_hashes_collide_only_for_equal_snapshots(exts in prop::collection::vec(any::<u8>(), 1..10)) {
        let versions = version_chain(&exts);
        let mut repo = Repository::new("chain");
        for (i, v) in versions.iter().enumerate() {
            repo.commit(v, &format!("v{i}"), None).expect("commits");
        }
        let log = repo.log();
        for i in 0..log.len() {
            for j in (i + 1)..log.len() {
                if log[i].hash == log[j].hash {
                    prop_assert_eq!(log[i].snapshot_xmi(), log[j].snapshot_xmi());
                }
            }
        }
    }
}
