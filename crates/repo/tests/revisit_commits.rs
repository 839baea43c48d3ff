//! A durable commit that re-creates content its handle journalled
//! before takes the stored segment's hash instead of hashing the whole
//! snapshot. These tests pin that the shortcut changes nothing on disk:
//! a handle that takes it and a twin that reopens before every commit
//! (so it never can) write byte-identical journal files, and a revisit
//! key whose content differs falls back to hashing the snapshot.

use comet_model::sample::synthetic;
use comet_model::{ElementId, Model, UndoLog};
use comet_obs::fnv1a64;
use comet_repo::Repository;
use std::path::{Path, PathBuf};

fn tmp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-revisit-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The operations of the model's first `classes` classes.
fn operations(model: &Model, classes: usize) -> Vec<ElementId> {
    model.classes().into_iter().take(classes).flat_map(|c| model.operations_of(c)).collect()
}

/// A repository and the model it versions, mutated in place the way
/// the lifecycle mutates it: each step runs under a change journal and
/// commits the journal's delta; an undo reverts the step's undo log,
/// or decodes the landed snapshot for a step without one (a redone
/// step).
struct Session {
    dir: PathBuf,
    repo: Option<Repository>,
    model: Model,
    logs: Vec<Option<UndoLog>>,
    /// Reopen the journal before every commit, so each commit runs on
    /// a handle that has journalled nothing yet.
    reopen: bool,
}

impl Session {
    fn new(dir: &Path, reopen: bool) -> Session {
        let model = synthetic(50, 3, 6);
        let mut repo = Repository::create(dir, "revisit").expect("creates");
        repo.commit(&model, "base", None).expect("commits");
        assert_hashed(&repo);
        Session { dir: dir.to_owned(), repo: Some(repo), model, logs: Vec::new(), reopen }
    }

    fn repo(&mut self) -> &mut Repository {
        self.repo.as_mut().expect("open")
    }

    fn apply(&mut self, name: &str, step: impl FnOnce(&mut Model)) {
        if self.reopen {
            drop(self.repo.take());
            self.repo = Some(Repository::open(&self.dir).expect("reopens").0);
        }
        // The step's own bracket nests in one held open across the
        // commit, whose release hands back the undo log.
        self.model.begin_journal();
        self.model.begin_journal();
        step(&mut self.model);
        let (delta, _) = self.model.commit_journal().expect("the step's segment is open");
        let repo = self.repo.as_mut().expect("open");
        repo.commit_with_delta(&self.model, name, Some(name), delta).expect("commits");
        assert_hashed(repo);
        let (_, log) = self.model.commit_journal().expect("the outer segment is open");
        self.logs.push(log);
    }

    fn undo(&mut self) {
        match self.logs.pop().expect("a step to undo") {
            Some(log) => {
                self.repo().undo_head().expect("one step").expect("steps back");
                self.model.revert(log);
            }
            None => self.model = self.repo().undo().expect("one step").expect("decodes"),
        }
    }

    fn redo(&mut self) {
        self.model = self.repo().redo().expect("one step").expect("decodes");
        self.logs.push(None);
    }
}

/// The head commit's hash is the FNV-1a of its snapshot.
fn assert_hashed(repo: &Repository) {
    let head = repo.head().expect("a head");
    assert_eq!(head.hash, fnv1a64(head.snapshot_xmi().as_bytes()), "commit {}", head.id);
}

/// Tags the operations of the first ten classes `level = value`.
fn tag_operations(value: &'static str) -> impl FnOnce(&mut Model) {
    move |m| {
        for op in operations(m, 10) {
            m.set_tag(op, "level", value).expect("an operation");
        }
    }
}

/// Adds a class under the root and stereotypes the first class.
fn distribute(m: &mut Model) {
    let root = m.root();
    m.add_class(root, "Remote").expect("a fresh class name");
    let first = m.classes()[0];
    m.apply_stereotype(first, "Distributed").expect("a class");
}

/// Applies, undoes and re-applies two alternating steps, with a redo, a
/// branch, a tag and a compaction between them.
fn script(session: &mut Session) {
    for _ in 0..3 {
        session.apply("logging", tag_operations("debug"));
        session.undo();
        session.apply("distribution", distribute);
        session.undo();
    }
    session.redo();
    session.apply("logging", tag_operations("debug"));
    session.undo();
    session.undo();
    session.apply("logging", tag_operations("debug"));
    session.repo().branch("alternative").expect("a fresh branch");
    session.repo().tag("logged").expect("a head");
    session.undo();
    session.apply("distribution", distribute);
    session.repo().compact().expect("compacts");
    for _ in 0..2 {
        session.apply("logging", tag_operations("debug"));
        session.undo();
        session.undo();
        session.apply("distribution", distribute);
    }
    session.repo().switch_branch("main").expect("a known branch");
    session.model = session.repo().head_model().expect("a head").expect("decodes");
    session.logs.clear();
    session.apply("logging", tag_operations("debug"));
}

#[test]
fn a_handle_that_revisits_writes_the_journal_a_fresh_handle_writes() {
    let (hit_dir, cold_dir) = (tmp_dir("hit"), tmp_dir("cold"));
    let mut hit = Session::new(&hit_dir, false);
    let mut cold = Session::new(&cold_dir, true);
    script(&mut hit);
    script(&mut cold);
    for file in ["wal.log", "segments.log"] {
        let read = |dir: &Path| std::fs::read(dir.join(file)).expect("a journal file");
        assert!(read(&hit_dir) == read(&cold_dir), "{file} differs");
    }
    let (hit, cold) = (hit.repo.take().expect("open"), cold.repo.take().expect("open"));
    assert_eq!(hit.log(), cold.log());
    let live = format!("{hit:?}");
    drop(hit);
    drop(cold);
    for dir in [&hit_dir, &cold_dir] {
        let fsck = Repository::fsck(dir).expect("fsck runs");
        assert!(fsck.ok(), "{fsck}");
    }
    let (reopened, report) = Repository::open(&hit_dir).expect("reopens");
    assert!(report.clean());
    assert_eq!(format!("{reopened:?}"), live, "a reopen equals memory");
    for dir in [hit_dir, cold_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_revisit_key_whose_content_differs_falls_back_to_hashing() {
    let dir = tmp_dir("stale");
    let mut session = Session::new(&dir, false);
    session.apply("logging", tag_operations("debug"));
    session.repo().tag("debug").expect("a head");
    let debug = session.repo().head().expect("a head").hash;
    session.undo();
    // Same parent, same touched operations, other content.
    session.apply("logging", tag_operations("trace"));
    let head = session.repo().head().expect("a head");
    assert_ne!(head.hash, debug);
    assert_eq!(head.hash, fnv1a64(head.snapshot_xmi().as_bytes()));
    let (debug_model, trace_model) = {
        let mut debug_model = synthetic(50, 3, 6);
        tag_operations("debug")(&mut debug_model);
        let mut trace_model = synthetic(50, 3, 6);
        tag_operations("trace")(&mut trace_model);
        (debug_model, trace_model)
    };
    assert_eq!(session.model, trace_model);
    drop(session);
    let (repo, report) = Repository::open(&dir).expect("reopens");
    assert_eq!(report.segments, 3, "base, debug and trace each stored once");
    assert_eq!(repo.checkout_tag("debug").expect("decodes"), debug_model);
    assert_eq!(repo.head_model().expect("a head").expect("decodes"), trace_model);
    let fsck = Repository::fsck(&dir).expect("fsck runs");
    assert!(fsck.ok(), "{fsck}");
    let _ = std::fs::remove_dir_all(dir);
}
