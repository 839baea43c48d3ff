//! Emits `BENCH_transform.json`: machine-readable numbers for the
//! transformation engine's two rollback strategies — "before" is the
//! retained clone-and-restore engine
//! ([`ConcreteTransformation::apply_cloned`]), "after" the
//! delta-journaled engine ([`ConcreteTransformation::apply`]) — across
//! synthetic model sizes. The journal pays O(delta) on failure where
//! the clone engine pays O(model), so the gap widens with model size.
//!
//! The `undo` rows time stepping back over one committed application
//! of the same body: "decode" is the repository undo that imports the
//! landed XMI snapshot ([`Repository::undo`], O(model)), "revert" the
//! head-only step plus the change journal's inverse replay
//! ([`Repository::undo_head`] + [`Model::revert`], O(delta)) — the two
//! paths of `MdaLifecycle::undo_last`.
//!
//! The `apply_by_size` rows time lifecycle-large's write on models of
//! growing size: one committed 8-target `logging` apply through
//! [`MdaLifecycle::apply_concern`], each sample taken after an untimed
//! [`MdaLifecycle::undo_last`] of the same step.
//!
//! Usage: `cargo run --release -p comet-bench --bin bench_transform_json
//! [output-path]` (default `BENCH_transform.json` in the working
//! directory).

use comet::MdaLifecycle;
use comet_bench::harness::{median_secs, median_secs_after, Report};
use comet_bench::{obj, synthetic};
use comet_model::{Model, UndoLog};
use comet_repo::Repository;
use comet_transform::{
    specialize, ConcreteTransformation, ParamSet, ParamValue, TransformError, TransformationBuilder,
};
use comet_workflow::WorkflowModel;
use std::hint::black_box;

const SIZES: [usize; 4] = [10, 50, 100, 200];
const ATTRS: usize = 4;
const OPS: usize = 4;
const REPS: (usize, usize) = (2, 9);
/// The `apply_by_size` models: `synthetic(classes, APPLY_ATTRS,
/// APPLY_OPS)`, lifecycle-large's shape.
const APPLY_ATTRS: usize = 3;
const APPLY_OPS: usize = 6;
/// Classes the logging binding targets (`C<k>.*` each).
const LOG_TARGETS: usize = 8;

/// Applies `cmt` to `model` under a journal and commits the result to
/// `repo`, as `MdaLifecycle::apply_concern` does; returns the step's
/// undo log.
fn apply_and_commit(
    cmt: &ConcreteTransformation,
    model: &mut Model,
    repo: &mut Repository,
) -> UndoLog {
    model.begin_journal();
    let delta = cmt.apply(model).expect("applies");
    let (_, log) = model.commit_journal().expect("journal opened above");
    repo.commit_with_delta(model, &cmt.full_name(), None, delta).expect("commits");
    log.expect("outermost segment")
}

/// A repository holding `model` as its one commit.
fn repo_at(model: &Model) -> Repository {
    let mut repo = Repository::new("bench");
    repo.commit(model, "base", None).expect("commits");
    repo
}

/// A constant-size body: one class, one operation, one stereotype. The
/// delta does not grow with the model, isolating rollback/report cost.
fn small_delta(model: &mut Model) -> Result<(), TransformError> {
    let root = model.root();
    let audit = model.add_class(root, "AuditLog")?;
    model.add_operation(audit, "append")?;
    let c0 = model.find_class("C0").expect("synthetic class");
    model.apply_stereotype(c0, "Audited")?;
    Ok(())
}

fn failing_cmt() -> ConcreteTransformation {
    let gmt = TransformationBuilder::new("bench-fail", "bench")
        .body(|model, _| {
            small_delta(model)?;
            Err(TransformError::Custom("induced rollback".into()))
        })
        .build();
    specialize(gmt, ParamSet::new()).expect("empty schema validates")
}

fn succeeding_cmt() -> ConcreteTransformation {
    let gmt = TransformationBuilder::new("bench-ok", "bench").body(|model, _| small_delta(model));
    specialize(gmt.build(), ParamSet::new()).expect("empty schema validates")
}

/// Median seconds of one committed `LOG_TARGETS`-target logging apply
/// on `synthetic(classes, APPLY_ATTRS, APPLY_OPS)`, each sample taken
/// after an untimed undo of the same step; also returns the model's
/// element count.
fn logging_apply(classes: usize) -> (usize, f64) {
    let model = synthetic(classes, APPLY_ATTRS, APPLY_OPS);
    let elements = model.len();
    let workflow = WorkflowModel::new("apply-by-size").step("logging", false);
    let mut mda = MdaLifecycle::new(model, workflow).expect("lifecycle opens");
    let logging = comet_concerns::by_name("logging").expect("standard concern");
    let targets: Vec<String> =
        (0..LOG_TARGETS).map(|k| format!("C{}.*", k * classes / LOG_TARGETS)).collect();
    let si = ParamSet::new().with("targets", ParamValue::from(targets));
    mda.apply_concern(&logging, si.clone()).expect("applies");
    let secs = median_secs_after(
        REPS,
        &mut mda,
        |mda| mda.undo_last().expect("undoes"),
        |mda, ()| {
            black_box(mda.apply_concern(&logging, si.clone()).expect("applies"));
        },
    );
    (elements, secs)
}

fn main() {
    let failing = failing_cmt();
    let ok = succeeding_cmt();

    // Sanity: both engines agree on success report, model, and on
    // failure restoring the pristine input.
    {
        let pristine = synthetic(20, ATTRS, OPS);
        let mut a = pristine.clone();
        let mut b = pristine.clone();
        let ra = ok.apply(&mut a).expect("applies");
        let rb = ok.apply_cloned(&mut b).expect("applies");
        assert_eq!(ra, rb, "journal and sweep reports diverged");
        assert_eq!(a, b, "journal and clone final models diverged");
        let mut f = pristine.clone();
        assert!(failing.apply(&mut f).is_err());
        assert_eq!(f, pristine, "journal rollback left residue");
        // Both undo paths restore the same model, id watermark included.
        let mut repo = repo_at(&pristine);
        let mut reverted = pristine.clone();
        let log = apply_and_commit(&ok, &mut reverted, &mut repo);
        let decoded = repo.clone().undo().expect("one step").expect("decodes");
        repo.undo_head().expect("one step").expect("steps");
        reverted.revert(log);
        assert_eq!(reverted, decoded, "revert and decode undo diverged");
    }

    let mut rollback_rows = Vec::new();
    let mut success_rows = Vec::new();
    let mut undo_rows = Vec::new();
    let mut speedup_at_100 = 0.0f64;
    let mut undo_speedup_at_100 = 0.0f64;
    for classes in SIZES {
        let mut model = synthetic(classes, ATTRS, OPS);
        let elements = model.iter().count();

        // Failure path: body succeeds, then errors — the engine must
        // restore the model. `apply` replays the journal (O(delta));
        // `apply_cloned` restores a full upfront clone (O(model)).
        eprintln!("[{classes} classes] timing clone rollback (before) ...");
        let before = median_secs(REPS, || {
            let _ = black_box(failing.apply_cloned(black_box(&mut model)));
        });
        eprintln!("[{classes} classes] timing journal rollback (after) ...");
        let after = median_secs(REPS, || {
            let _ = black_box(failing.apply(black_box(&mut model)));
        });
        let speedup = before / after;
        if classes == 100 {
            speedup_at_100 = speedup;
        }
        rollback_rows.push(obj! {
            "classes": classes,
            "elements": elements,
            "before_median_secs": before,
            "after_median_secs": after,
            "speedup": speedup,
        });

        // Success path: each run starts from a fresh clone (identical
        // overhead in both arms); the arms differ in report derivation —
        // journal summary versus before/after full-model sweep.
        eprintln!("[{classes} classes] timing sweep-report apply (before) ...");
        let s_before = median_secs(REPS, || {
            let mut m = model.clone();
            black_box(ok.apply_cloned(black_box(&mut m)).expect("applies"));
        });
        eprintln!("[{classes} classes] timing journal-report apply (after) ...");
        let s_after = median_secs(REPS, || {
            let mut m = model.clone();
            black_box(ok.apply(black_box(&mut m)).expect("applies"));
        });
        success_rows.push(obj! {
            "classes": classes,
            "elements": elements,
            "before_median_secs": s_before,
            "after_median_secs": s_after,
            "speedup": s_before / s_after,
        });

        // Undo of one committed application: each run re-applies and
        // re-commits the step untimed, then times only the undo.
        let mut state = (model.clone(), repo_at(&model));
        let step = |(model, repo): &mut (Model, Repository)| apply_and_commit(&ok, model, repo);
        eprintln!("[{classes} classes] timing decode undo (before) ...");
        let decode = median_secs_after(REPS, &mut state, step, |(model, repo), _log| {
            *model = black_box(repo.undo().expect("one step").expect("decodes"));
        });
        eprintln!("[{classes} classes] timing revert undo (after) ...");
        let revert = median_secs_after(REPS, &mut state, step, |(model, repo), log| {
            repo.undo_head().expect("one step").expect("steps");
            model.revert(black_box(log));
        });
        let undo_speedup = decode / revert;
        if classes == 100 {
            undo_speedup_at_100 = undo_speedup;
        }
        undo_rows.push(obj! {
            "classes": classes,
            "elements": elements,
            "decode_median_secs": decode,
            "revert_median_secs": revert,
            "speedup": undo_speedup,
        });
    }

    let apply_rows: Vec<_> = SIZES
        .iter()
        .map(|&classes| {
            eprintln!("[{classes} classes] timing logging apply ...");
            let (elements, secs) = logging_apply(classes);
            obj! {"classes": classes, "elements": elements, "median_secs": secs}
        })
        .collect();

    let out_path = Report::new("e11_transform_rollback")
        .with(
            "workload",
            obj! {
                "sizes": SIZES.to_vec(),
                "attrs_per_class": ATTRS,
                "ops_per_class": OPS,
                "body": "constant 3-element delta, then induced failure",
            },
        )
        .with(
            "before",
            "apply_cloned (upfront clone, restore on failure, before/after sweep report)",
        )
        .with("after", "apply (change journal: inverse-op rollback, journal-derived report)")
        .with(
            "decode",
            "undo of one committed apply: Repository::undo, importing the landed XMI snapshot",
        )
        .with(
            "revert",
            "undo of one committed apply: Repository::undo_head + Model::revert of the apply's \
             UndoLog",
        )
        .with(
            "apply",
            format!(
                "MdaLifecycle::apply_concern of logging on {LOG_TARGETS} classes' operations, \
                 synthetic(classes, {APPLY_ATTRS}, {APPLY_OPS}), after an untimed undo_last"
            ),
        )
        .with("rollback", rollback_rows)
        .with("successful_apply", success_rows)
        .with("undo", undo_rows)
        .with("apply_by_size", apply_rows)
        .write("BENCH_transform.json");
    eprintln!(
        "wrote {out_path} (rollback speedup at 100 classes: {speedup_at_100:.2}x, undo: \
         {undo_speedup_at_100:.2}x)"
    );
    assert!(
        speedup_at_100 > 1.0,
        "journal rollback must beat clone rollback on the 100-class model"
    );
    assert!(undo_speedup_at_100 > 1.0, "revert undo must beat decode undo on the 100-class model");
}
