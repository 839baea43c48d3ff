//! E7: XMI import/export (Section 3) — fidelity across the whole
//! refinement, including concern marks, plus property-based round-trip
//! coverage over randomly shaped models.

mod common;

use comet::MdaLifecycle;
use comet_codegen::marks;
use comet_concerns::{distribution, transactions};
use comet_model::{Model, Primitive, TagValue};
use comet_workflow::WorkflowModel;
use comet_xmi::{export_model, import_model};
use common::{dist_si, executable_banking_pim, tx_si};
use proptest::prelude::*;

#[test]
fn refined_psm_round_trips_with_all_marks() {
    let workflow = WorkflowModel::new("e7").step("distribution", false).step("transactions", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).unwrap();
    mda.apply_concern(&distribution::pair(), dist_si()).unwrap();
    mda.apply_concern(&transactions::pair(), tx_si()).unwrap();

    let xmi = export_model(mda.model());
    let back = import_model(&xmi).unwrap();
    assert_eq!(&back, mda.model());
    // The export above and the committed snapshot come from the model's
    // fragment cache, warmed by each step's commit; a clone's export
    // renders every element afresh and must write the same bytes.
    let cold = export_model(&mda.model().clone());
    assert_eq!(xmi, cold);
    assert_eq!(mda.snapshot_xmi(), cold);
    // The marks specifically survive.
    let bank = back.find_class("Bank").unwrap();
    assert!(back.has_stereotype(bank, "Remote").unwrap());
    let transfer = back.find_operation(bank, "transfer").unwrap();
    assert_eq!(
        back.element(transfer).unwrap().core().tag("comet.tx.isolation").unwrap().as_str(),
        Some("serializable")
    );
    assert_eq!(back.concern_of(back.find_class("BankProxy").unwrap()), Some("distribution"));
}

#[test]
fn import_rejects_tampered_snapshots() {
    let xmi = export_model(&executable_banking_pim());
    // Flip an owner reference to a dangling id.
    let tampered = xmi.replacen("owner=\"#1\"", "owner=\"#4242\"", 1);
    assert_ne!(xmi, tampered);
    assert!(import_model(&tampered).is_err());
}

/// A constraint body is text from the imported file; one nested far
/// past the OCL parser's depth bound is reported as undecidable instead
/// of overflowing the stack. Runs on a main thread's 8 MiB stack: the
/// harness's 2 MiB test threads are too small for an unoptimized parser
/// at the bound.
#[test]
fn imported_constraint_nested_too_deep_is_undecidable() {
    let mut model = executable_banking_pim();
    let bank = model.find_class("Bank").unwrap();
    let n = 100_000;
    let body = format!("{}true{}", "(".repeat(n), ")".repeat(n));
    model.add_constraint(bank, "deep", &body).unwrap();
    let back = import_model(&export_model(&model)).unwrap();
    let outcomes = std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(move || comet_ocl::check_model_constraints(&back))
        .unwrap()
        .join()
        .unwrap();
    let (_, _, outcome) = outcomes.iter().find(|(_, name, _)| name == "deep").unwrap();
    match outcome {
        comet_ocl::ConstraintOutcome::Undecidable(reason) => {
            assert!(reason.contains("nests deeper than"), "{reason}");
        }
        other => panic!("expected undecidable, got {other:?}"),
    }
}

/// Every concern stereotype the standard library can mark a model
/// with, paired with a representative `comet.*` tag from its concern
/// space — including the fault-tolerance triple and its `ft.*` tags.
const ALL_MARKS: [(&str, &str, &str); 9] = [
    (marks::STEREO_REMOTE, marks::TAG_DIST_NODE, "server"),
    (marks::STEREO_TRANSACTIONAL, marks::TAG_TX_ISOLATION, "serializable"),
    (marks::STEREO_SECURED, marks::TAG_SEC_POLICY, "deny"),
    (marks::STEREO_LOGGED, marks::TAG_LOG_LEVEL, "info"),
    (marks::STEREO_SYNCHRONIZED, marks::TAG_SYNC_LOCK, "mutex"),
    (marks::STEREO_PERSISTENT, marks::TAG_PERSIST_STORE, "kv"),
    (marks::STEREO_RETRYABLE, marks::TAG_FT_BACKOFF_US, "250"),
    (marks::STEREO_DEADLINE, marks::TAG_FT_DEADLINE_US, "5000"),
    (marks::STEREO_BREAKER, marks::TAG_FT_BREAKER_THRESHOLD, "3"),
];

/// Strategy: a model carrying every concern stereotype at once, with
/// per-class subsets drawn randomly on top of one fully marked class.
fn arb_fully_marked_model() -> impl Strategy<Value = Model> {
    (2usize..5, prop::collection::vec(0usize..ALL_MARKS.len(), 0..12)).prop_map(
        |(classes, extra)| {
            let mut m = Model::new("marked");
            let root = m.root();
            let mut ids = Vec::new();
            for c in 0..classes {
                let id = m.add_class(root, &format!("C{c}")).expect("unique");
                m.add_operation(id, "op").expect("unique");
                ids.push(id);
            }
            // One class wears every stereotype in the library.
            let full = ids[0];
            for (stereo, tag, value) in ALL_MARKS {
                m.apply_stereotype(full, stereo).expect("class exists");
                m.set_tag(full, tag, TagValue::Str(value.to_owned())).expect("class exists");
            }
            m.set_tag(full, marks::TAG_FT_MAX_ATTEMPTS, TagValue::Int(4)).expect("class exists");
            // Remaining classes get random subsets.
            for (i, pick) in extra.iter().enumerate() {
                let id = ids[1 + i % (ids.len() - 1)];
                let (stereo, tag, value) = ALL_MARKS[*pick];
                let _ = m.apply_stereotype(id, stereo);
                m.set_tag(id, tag, TagValue::Str(value.to_owned())).expect("class exists");
            }
            m
        },
    )
}

/// Strategy: a random small model built through the checked API (so it
/// is well-formed by construction).
fn arb_model() -> impl Strategy<Value = Model> {
    (
        1usize..6,                                  // classes
        0usize..4,                                  // attributes each
        0usize..3,                                  // operations each
        prop::collection::vec(any::<bool>(), 0..5), // generalization picks
        prop::collection::vec("[a-z]{1,8}", 0..4),  // stereotypes
    )
        .prop_map(|(classes, attrs, ops, gens, stereos)| {
            let mut m = Model::new("arb");
            let root = m.root();
            let mut class_ids = Vec::new();
            for c in 0..classes {
                let id = m.add_class(root, &format!("K{c}")).expect("unique");
                for a in 0..attrs {
                    m.add_attribute(id, &format!("f{a}"), Primitive::Int.into()).expect("unique");
                }
                for o in 0..ops {
                    let op = m.add_operation(id, &format!("m{o}")).expect("unique");
                    m.add_parameter(op, "x", Primitive::Str.into()).expect("unique");
                }
                class_ids.push(id);
            }
            for (i, pick) in gens.iter().enumerate() {
                if *pick && i + 1 < class_ids.len() {
                    let _ = m.add_generalization(class_ids[i + 1], class_ids[i]);
                }
            }
            for (i, s) in stereos.iter().enumerate() {
                if let Some(&id) = class_ids.get(i % class_ids.len().max(1)) {
                    m.apply_stereotype(id, s).expect("class exists");
                    m.set_tag(id, &format!("tag.{s}"), TagValue::Int(i as i64))
                        .expect("class exists");
                }
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xmi_round_trip_is_identity(model in arb_model()) {
        let xmi = export_model(&model);
        let back = import_model(&xmi).unwrap();
        prop_assert_eq!(back, model);
    }

    #[test]
    fn exported_documents_always_reparse_as_xml(model in arb_model()) {
        let xmi = export_model(&model);
        prop_assert!(comet_xmi::parse_xml(&xmi).is_ok());
    }

    #[test]
    fn double_export_is_stable(model in arb_model()) {
        let once = export_model(&model);
        let twice = export_model(&import_model(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn fully_marked_models_round_trip_byte_and_model_identically(
        model in arb_fully_marked_model()
    ) {
        let xmi = export_model(&model);
        let back = import_model(&xmi).unwrap();
        // Model-identical: every stereotype and comet.* tag survives.
        prop_assert_eq!(&back, &model);
        let full = back.find_class("C0").unwrap();
        for (stereo, tag, value) in ALL_MARKS {
            prop_assert!(back.has_stereotype(full, stereo).unwrap(), "lost {}", stereo);
            prop_assert_eq!(
                back.element(full).unwrap().core().tag(tag).unwrap().as_str(),
                Some(value),
                "lost {}", tag
            );
        }
        prop_assert_eq!(
            back.element(full).unwrap().core().tag(marks::TAG_FT_MAX_ATTEMPTS),
            Some(&TagValue::Int(4))
        );
        // Byte-identical: re-export reproduces the document exactly.
        prop_assert_eq!(export_model(&back), xmi);
    }
}
