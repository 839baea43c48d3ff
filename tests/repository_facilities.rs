//! E6: the Section-3 repository facilities, driven through the full
//! lifecycle — version management, undo/redo, structural diff, and the
//! per-concern "colors" demarcation.

mod common;

use comet::MdaLifecycle;
use comet_concerns::{distribution, transactions};
use comet_model::ModelDelta;
use comet_repo::{ColorReport, Repository};
use comet_workflow::WorkflowModel;
use common::{dist_si, executable_banking_pim, tx_si};

fn lifecycle() -> MdaLifecycle {
    let workflow = WorkflowModel::new("e6").step("distribution", false).step("transactions", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();
    mda
}

#[test]
fn every_refinement_step_is_a_version() {
    let mda = lifecycle();
    let log = mda.repository().log();
    assert_eq!(log.len(), 3);
    assert_eq!(log[0].message, "initial PIM");
    assert!(log[1].message.starts_with("distribution<"));
    assert!(log[2].message.starts_with("transactions<"));
    assert_eq!(log[1].concern.as_deref(), Some("distribution"));
    // Hashes form a distinct chain.
    assert_ne!(log[0].hash, log[1].hash);
    assert_ne!(log[1].hash, log[2].hash);
    assert_eq!(log[2].parent, Some(log[1].id));
}

#[test]
fn diff_between_steps_shows_exactly_the_concern_space() {
    let mda = lifecycle();
    let ids: Vec<_> = mda.repository().log().iter().map(|c| c.id).collect();
    // PIM -> distribution: the proxy, register op, params and marks.
    let d1 = mda.repository().diff(ids[0], ids[1]).unwrap();
    assert!(!d1.created.is_empty(), "distribution creates elements");
    assert!(d1.removed.is_empty());
    // distribution -> transactions: only the transfer op is modified.
    let d2 = mda.repository().diff(ids[1], ids[2]).unwrap();
    assert!(d2.created.is_empty());
    assert_eq!(d2.modified.len(), 1);
    // Diffs agree with direct model diffing.
    let m1 = mda.repository().checkout(ids[1]).unwrap();
    let m2 = mda.repository().checkout(ids[2]).unwrap();
    assert_eq!(d2, ModelDelta::between(&m1, &m2));
}

#[test]
fn undo_redo_walks_the_refinement() {
    let mut repo = Repository::new("walk");
    let mut model = executable_banking_pim();
    repo.commit(&model, "v1", None).unwrap();
    let (cmt, _) = distribution::pair().specialize(dist_si()).unwrap();
    cmt.apply(&mut model).unwrap();
    repo.commit(&model, "v2", Some("distribution")).unwrap();

    let v1 = repo.undo().unwrap().unwrap();
    assert!(v1.find_class("BankProxy").is_none());
    let v2 = repo.redo().unwrap().unwrap();
    assert!(v2.find_class("BankProxy").is_some());
    assert_eq!(v2, model);
    // Undo/redo depths behave like an editor.
    assert_eq!(repo.undo_depth(), 2);
    assert_eq!(repo.redo_depth(), 0);
}

#[test]
fn colors_attribute_created_elements_to_their_concern() {
    let mda = lifecycle();
    let colors = ColorReport::for_model(mda.model());
    // Everything distribution created is colored distribution.
    let dist_elements = colors.per_concern.get("distribution").unwrap();
    assert!(!dist_elements.is_empty());
    for id in dist_elements {
        assert_eq!(mda.model().concern_of(*id), Some("distribution"));
    }
    // Transactions only modified existing elements; the functional model
    // stays functional-colored (uncolored).
    assert_eq!(colors.count("transactions"), 0);
    assert!(colors.functional.len() > 10);
    // The remaining-concern hint works against a plan.
    assert_eq!(
        colors.remaining(&["distribution", "transactions", "security"]),
        vec!["transactions", "security"],
        "transactions modified but created nothing; security never ran"
    );
}

#[test]
fn branches_isolate_alternative_refinements() {
    let mda = lifecycle();
    let main_model = mda.model().clone();
    // The lifecycle is its repository's only writer; explore a copy.
    let mut repo = mda.repository().clone();
    // Tag the current state, branch off an experiment from one step back.
    repo.tag("fig2-psm").unwrap();
    repo.undo().unwrap().unwrap();
    repo.branch("experiment").unwrap();
    let experiment_head = repo.head_model().unwrap().unwrap();
    assert!(experiment_head.find_class("BankProxy").is_some());
    // Back on main, the tagged PSM is intact.
    repo.switch_branch("main").unwrap();
    assert_eq!(repo.checkout_tag("fig2-psm").unwrap(), main_model);
    assert_eq!(repo.branch_names(), vec!["experiment", "main"]);
}
