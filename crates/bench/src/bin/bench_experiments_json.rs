//! Emits `BENCH_experiments.json`: the cost rows of experiments E1–E9
//! in EXPERIMENTS.md (E10's live in `BENCH_weaver.json`).
//!
//! * **E1** — the Fig. 1 pipeline: specializing a concern pair, applying
//!   its CMT with condition checking, generating + weaving one concern.
//! * **E2** — the Fig. 2 refinement with three concerns, generating and
//!   weaving their aspects, and one woven `transfer` called locally and
//!   through the simulated RPC path.
//! * **E3** — the concern-free `getBalance` query bare, under the
//!   `Si`-targeted transactional aspect, and under a naive
//!   wrap-everything one.
//! * **E4** — OCL condition parsing and evaluation against model size.
//! * **E5** — the functional generator plus weaving against the
//!   monolithic generator, and regenerating one aspect after an `Si`
//!   change.
//! * **E6** — repository commit, undo + redo, structural diff and the
//!   colors report against model size.
//! * **E7** — XMI export (cold, and warm from the model's fragment
//!   cache), import and round trip against model size.
//! * **E8** — workflow guidance against plan size.
//! * **E9** — middleware primitives and the advised-call overhead.
//!
//! "Generate" rows time a cold call on a fresh lifecycle: a repeated
//! call at the same state is a generate-cache hit, which
//! `BENCH_codegen.json` prices. Every row is microseconds per operation:
//! each sample times a batch sized so one sample takes about
//! [`SAMPLE_SECS`], and the row is the median sample over its batch.
//!
//! Usage: `cargo run --release -p comet-bench --bin
//! bench_experiments_json [output-path]` (default
//! `BENCH_experiments.json` in the working directory).

use comet::{Backend, MdaLifecycle};
use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect, Weaver};
use comet_bench::harness::{median_secs_after, JsonValue, Report};
use comet_bench::{
    banking_bodies, dist_si, executable_banking_pim, obj, ready_interp, sec_si, synthetic, tx_si,
};
use comet_codegen::{Block, Expr, FunctionalGenerator, IrType, Program, Stmt};
use comet_concerns::{distribution, security, transactions};
use comet_interp::{Interp, Value};
use comet_middleware::{Middleware, MiddlewareConfig};
use comet_model::{Model, ModelDelta};
use comet_ocl::{evaluate_bool, parse, Context};
use comet_repo::{ColorReport, Repository};
use comet_workflow::{OrderConstraint, WorkflowEngine, WorkflowModel};
use comet_xmi::{export_model, import_model};
use std::hint::black_box;
use std::time::Instant;

const REPS: (usize, usize) = (2, 9);
/// Wall time one timed sample aims at: far above the clock's
/// resolution, short enough that the whole bin runs in seconds.
const SAMPLE_SECS: f64 = 1e-2;
/// Model sizes (classes) of the E4, E6 and E7 rows.
const SIZES: [usize; 3] = [10, 50, 200];
/// Plan sizes (steps) of the E8 rows.
const STEPS: [usize; 3] = [5, 20, 80];

/// Median microseconds of one `op` on a value `fresh` builds untimed.
/// One untimed trial sizes the batch each sample runs.
fn us_each<T>(mut fresh: impl FnMut() -> T, mut op: impl FnMut(&mut T)) -> f64 {
    let mut trial = fresh();
    let t0 = Instant::now();
    op(&mut trial);
    let batch = (SAMPLE_SECS / t0.elapsed().as_secs_f64().max(1e-9)).clamp(1.0, 1e5) as usize;
    let secs = median_secs_after(
        REPS,
        &mut Vec::with_capacity(batch),
        |spent| {
            spent.clear();
            (0..batch).map(|_| fresh()).collect::<Vec<T>>()
        },
        |spent, inputs| {
            for mut input in inputs {
                op(&mut input);
                spent.push(input);
            }
        },
    );
    secs / batch as f64 * 1e6
}

/// [`us_each`] for an `op` that needs no fresh input.
fn us(mut op: impl FnMut()) -> f64 {
    us_each(|| (), |()| op())
}

/// A lifecycle on the banking PIM with `steps` applied in order, each
/// with its standard `Si`.
fn banking_lifecycle(steps: &[&str]) -> MdaLifecycle {
    let workflow = steps.iter().fold(WorkflowModel::new("bench"), |w, s| w.step(s, false));
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).expect("pim");
    for &step in steps {
        let (pair, si) = match step {
            "distribution" => (distribution::pair(), dist_si()),
            "transactions" => (transactions::pair(), tx_si()),
            _ => (security::pair(), sec_si()),
        };
        mda.apply_concern(&pair, si).expect("applies");
    }
    mda
}

/// Microseconds of one cold `generate` (functional codegen + weave) on
/// a fresh [`banking_lifecycle`].
fn cold_generate_us(steps: &[&str]) -> f64 {
    let bodies = banking_bodies();
    us_each(
        || banking_lifecycle(steps),
        |mda| {
            black_box(mda.generate(&bodies, Backend::JavaFunctional).expect("weaves"));
        },
    )
}

fn transfer(interp: &mut Interp, bank: &Value) {
    let args = vec![Value::from("A-1"), Value::from("A-2"), Value::Int(1)];
    black_box(interp.call(bank.clone(), "transfer", args).expect("transfers"));
}

fn functional() -> Program {
    FunctionalGenerator::new().generate(&executable_banking_pim(), &banking_bodies())
}

/// The E3 naive aspect: every execution in a transaction, with no `Si`
/// to say which methods need one.
fn naive_aspect() -> Aspect {
    Aspect::new("naive").with_advice(Advice::new(
        AdviceKind::Around,
        parse_pointcut("execution(*.*)").expect("valid"),
        Block::of(vec![
            Stmt::If {
                cond: Expr::intrinsic("tx.active", vec![]),
                then_block: Block::of(vec![Stmt::ret(Expr::Proceed(vec![]))]),
                else_block: None,
            },
            Stmt::Expr(Expr::intrinsic("tx.begin", vec![Expr::str("rc")])),
            Stmt::TryCatch {
                body: Block::of(vec![
                    Stmt::Local {
                        name: "__r".into(),
                        ty: IrType::Str,
                        init: Some(Expr::Proceed(vec![])),
                    },
                    Stmt::Expr(Expr::intrinsic("tx.commit", vec![])),
                    Stmt::ret(Expr::var("__r")),
                ]),
                var: "__e".into(),
                handler: Block::of(vec![
                    Stmt::Expr(Expr::intrinsic("tx.rollback", vec![])),
                    Stmt::Throw(Expr::var("__e")),
                ]),
                finally: None,
            },
        ]),
    ))
}

/// Microseconds of one concern-free `getBalance` on `program`.
fn query_us(program: Program) -> f64 {
    let (mut interp, bank) = ready_interp(program);
    us(|| {
        black_box(interp.call(bank.clone(), "getBalance", vec![Value::from("A-1")]).expect("q"));
    })
}

/// `model` plus one distribution-marked class and a `Remote` stereotype:
/// the second version of the E6 repository rows.
fn variant(model: &Model) -> Model {
    let mut v = model.clone();
    let root = v.root();
    let extra = v.add_class(root, "ExtraClass").expect("unique");
    v.mark_concern(extra, "distribution").expect("exists");
    let c0 = v.find_class("C0").expect("synthetic class");
    v.apply_stereotype(c0, "Remote").expect("exists");
    v
}

/// A chain plan of `steps` steps, each ordered after the previous one.
fn chain_plan(steps: usize) -> WorkflowModel {
    (1..steps).fold(WorkflowModel::new("bench").step("c0", false), |model, i| {
        model
            .step(&format!("c{i}"), false)
            .constraint(OrderConstraint::Before(format!("c{}", i - 1), format!("c{i}")))
    })
}

fn e1() -> JsonValue {
    eprintln!("E1 ...");
    let pair = transactions::pair();
    let specialize = us(|| {
        black_box(pair.specialize(black_box(tx_si())).expect("valid Si"));
    });
    let (cmt, _) = pair.specialize(tx_si()).expect("valid Si");
    let pim = executable_banking_pim();
    let apply = us_each(
        || pim.clone(),
        |model| {
            black_box(cmt.apply(model).expect("applies"));
        },
    );
    obj! {
        "specialize_pair_us": specialize,
        "apply_cmt_with_conditions_us": apply,
        "generate_and_weave_one_concern_us": cold_generate_us(&["transactions"]),
    }
}

fn e2() -> JsonValue {
    eprintln!("E2 ...");
    const FIG2: [&str; 3] = ["distribution", "transactions", "security"];
    let refine = us(|| drop(black_box(banking_lifecycle(&FIG2))));
    let system = banking_lifecycle(&FIG2)
        .generate(&banking_bodies(), Backend::JavaFunctional)
        .expect("weaves");
    let (mut local, local_bank) = ready_interp(system.woven().clone());
    let transfer_local = us(|| transfer(&mut local, &local_bank));
    let (mut remote, remote_bank) = ready_interp(system.woven().clone());
    remote.middleware_mut().bus.set_current_node("client").expect("node");
    let transfer_remote = us(|| transfer(&mut remote, &remote_bank));
    obj! {
        "refine_three_concerns_us": refine,
        "generate_weave_three_aspects_us": cold_generate_us(&FIG2),
        "transfer_local_us": transfer_local,
        "transfer_remote_client_us": transfer_remote,
        "remote_virtual_latency_us_per_message":
            remote.middleware().bus.stats().mean_latency_us(),
    }
}

fn e3() -> JsonValue {
    eprintln!("E3 ...");
    let (_, targeted) = transactions::pair().specialize(tx_si()).expect("valid Si");
    let weave = |aspect| Weaver::new(vec![aspect]).weave(&functional()).expect("weaves").program;
    obj! {
        "query_no_aspect_us": query_us(functional()),
        "query_si_targeted_aspect_us": query_us(weave(targeted)),
        "query_naive_wrap_everything_us": query_us(weave(naive_aspect())),
    }
}

fn e4() -> JsonValue {
    eprintln!("E4 ...");
    let typical = "Class.allInstances()->exists(c | c.name = 'C5' and \
                   c.operations->exists(o | o.name = 'op1'))";
    let parse_us = us(|| {
        black_box(parse(black_box(typical)).expect("parses"));
    });
    let nested = "Class.allInstances()->forAll(c | \
                  c.operations->forAll(o | o.parameters->size() = 2))";
    let rows: Vec<_> = SIZES
        .into_iter()
        .map(|classes| {
            let model = synthetic(classes, 3, 3);
            let ctx = Context::for_model(&model);
            let exists = format!("Class.allInstances()->exists(c | c.name = 'C{}')", classes - 1);
            obj! {
                "classes": classes,
                "exists_scan_us": us(|| {
                    black_box(evaluate_bool(black_box(&exists), &ctx).expect("evaluates"));
                }),
                "forall_nested_us": us(|| {
                    black_box(evaluate_bool(black_box(nested), &ctx).expect("evaluates"));
                }),
            }
        })
        .collect();
    obj! {"parse_typical_condition_us": parse_us, "by_size": rows}
}

fn e5() -> JsonValue {
    eprintln!("E5 ...");
    const ORDER: [&str; 3] = ["security", "distribution", "transactions"];
    let bodies = banking_bodies();
    let mda = banking_lifecycle(&ORDER);
    let monolithic = us(|| {
        black_box(mda.generate_monolithic(black_box(&bodies)));
    });
    // A changed isolation level regenerates only the transactions
    // aspect: one specialization of its pair.
    let pair = transactions::pair();
    let aspect_only = us(|| {
        black_box(pair.specialize(black_box(tx_si())).expect("valid Si"));
    });
    obj! {
        "functional_plus_weave_us": cold_generate_us(&ORDER),
        "monolithic_us": monolithic,
        "aspect_only_regen_us": aspect_only,
        "full_regen_over_aspect_regen": monolithic / aspect_only,
    }
}

fn e6() -> JsonValue {
    eprintln!("E6 ...");
    let rows: Vec<_> = SIZES
        .into_iter()
        .map(|classes| {
            let model = synthetic(classes, 3, 3);
            let modified = variant(&model);
            let commit = us(|| {
                let mut repo = Repository::new("bench");
                black_box(repo.commit(black_box(&model), "v1", None).expect("commits"));
            });
            let mut repo = Repository::new("bench");
            repo.commit(&model, "v1", None).expect("commits");
            repo.commit(&modified, "v2", Some("distribution")).expect("commits");
            let undo_redo = us(|| {
                repo.undo().expect("undoable").expect("decodes");
                black_box(repo.redo().expect("redoable").expect("decodes"));
            });
            obj! {
                "classes": classes,
                "commit_us": commit,
                "undo_redo_us": undo_redo,
                "diff_us": us(|| {
                    black_box(ModelDelta::between(black_box(&model), black_box(&modified)));
                }),
                "colors_us": us(|| {
                    black_box(ColorReport::for_model(black_box(&modified)));
                }),
            }
        })
        .collect();
    JsonValue::Arr(rows)
}

fn e7() -> JsonValue {
    eprintln!("E7 ...");
    let rows: Vec<_> = SIZES
        .into_iter()
        .map(|classes| {
            let model = synthetic(classes, 3, 3);
            let xmi = export_model(&model);
            obj! {
                "classes": classes,
                "xmi_bytes": xmi.len(),
                // A clone carries no rendered fragments, so exporting
                // it is a cold export; the clone is made untimed.
                "export_us": us_each(|| model.clone(), |m| {
                    black_box(export_model(black_box(m)));
                }),
                "export_warm_us": us(|| {
                    black_box(export_model(black_box(&model)));
                }),
                "import_us": us(|| {
                    black_box(import_model(black_box(&xmi)).expect("valid document"));
                }),
                "round_trip_us": us_each(|| model.clone(), |m| {
                    black_box(import_model(&export_model(black_box(m))).expect("round trips"));
                }),
            }
        })
        .collect();
    JsonValue::Arr(rows)
}

fn e8() -> JsonValue {
    eprintln!("E8 ...");
    let rows: Vec<_> = STEPS
        .into_iter()
        .map(|steps| {
            let plan = chain_plan(steps);
            let mut half = WorkflowEngine::new(plan.clone());
            for i in 0..steps / 2 {
                half.record(&format!("c{i}")).expect("chain order");
            }
            let fresh = WorkflowEngine::new(plan);
            let seq: Vec<String> = (0..steps).map(|i| format!("c{i}")).collect();
            let seq: Vec<&str> = seq.iter().map(String::as_str).collect();
            obj! {
                "steps": steps,
                "allowed_next_half_applied_us": us(|| {
                    black_box(half.allowed_next());
                }),
                "validate_full_sequence_us": us(|| {
                    fresh.validate_sequence(black_box(&seq)).expect("valid");
                }),
            }
        })
        .collect();
    JsonValue::Arr(rows)
}

fn e9() -> JsonValue {
    eprintln!("E9 ...");
    let mut mw: Middleware<i64> = Middleware::new(MiddlewareConfig::default());
    mw.bus.add_node("a");
    mw.bus.add_node("b");
    let bus = us(|| {
        black_box(mw.bus.round_trip("a", "b", 64, 16).expect("delivers"));
    });
    let local_tx = us(|| {
        let tx = mw.tx.begin("rc").expect("begins");
        mw.tx.log_write(tx, 1, "balance", black_box(100)).expect("logs");
        black_box(mw.tx.commit(tx).expect("commits"));
    });
    let two_pc = us(|| {
        let tx = mw.tx.begin("rc").expect("begins");
        mw.tx.touch_node(tx, "a").expect("touches");
        mw.tx.touch_node(tx, "b").expect("touches");
        mw.tx.log_write(tx, 1, "v", black_box(1)).expect("logs");
        black_box(mw.tx.commit(tx).expect("commits"));
    });
    let lock = us(|| {
        mw.locks.try_acquire("hot", 1).expect("free");
        mw.locks.release("hot", 1).expect("held");
    });
    let functional = functional();
    let (mut plain, plain_bank) = ready_interp(functional.clone());
    let call_functional = us(|| transfer(&mut plain, &plain_bank));
    let (_, aspect) = transactions::pair().specialize(tx_si()).expect("valid Si");
    let woven = Weaver::new(vec![aspect]).weave(&functional).expect("weaves").program;
    let (mut advised, advised_bank) = ready_interp(woven);
    let call_woven = us(|| transfer(&mut advised, &advised_bank));
    obj! {
        "bus_round_trip_us": bus,
        "local_tx_commit_us": local_tx,
        "distributed_tx_2pc_commit_us": two_pc,
        "lock_acquire_release_us": lock,
        "call_functional_transfer_us": call_functional,
        "call_woven_transactional_transfer_us": call_woven,
        "woven_over_functional": call_woven / call_functional,
    }
}

fn main() {
    let out_path = Report::new("e1_e9_characterization")
        .with("e1_fig1_pipeline", e1())
        .with("e2_fig2_three_concerns", e2())
        .with("e3_coupling", e3())
        .with("e4_conditions", e4())
        .with("e5_generator_ablation", e5())
        .with("e6_repository", e6())
        .with("e7_xmi", e7())
        .with("e8_workflow", e8())
        .with("e9_middleware", e9())
        .write("BENCH_experiments.json");
    eprintln!("wrote {out_path}");
}
