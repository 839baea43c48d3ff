//! E2 (Fig. 2): the full three-concern refinement — T1/T2/T3 applied,
//! A1/A2/A3 generated and woven — and the end-to-end execution
//! throughput of the resulting system.

use comet::MdaLifecycle;
use comet_bench::{banking_bodies, dist_si, executable_banking_pim, ready_interp, sec_si, tx_si};
use comet_concerns::{distribution, security, transactions};
use comet_interp::Value;
use comet_workflow::WorkflowModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn lifecycle() -> MdaLifecycle {
    let workflow = WorkflowModel::new("fig2")
        .step("distribution", false)
        .step("transactions", false)
        .step("security", false);
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow).expect("pim");
    mda.apply_concern(&distribution::pair(), dist_si()).expect("T1");
    mda.apply_concern(&transactions::pair(), tx_si()).expect("T2");
    mda.apply_concern(&security::pair(), sec_si()).expect("T3");
    mda
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_fig2_three_concerns");
    group.sample_size(20).measurement_time(Duration::from_secs(2));

    group.bench_function("refine_three_concerns", |b| {
        b.iter(|| black_box(lifecycle()));
    });

    group.bench_function("generate_weave_three_aspects", |b| {
        let mda = lifecycle();
        let bodies = banking_bodies();
        b.iter(|| {
            mda.generate(black_box(&bodies), comet::Backend::JavaFunctional).expect("weaves")
        });
    });

    group.bench_function("transfer_throughput_three_concerns_local", |b| {
        let mda = lifecycle();
        let system =
            mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).expect("weaves");
        let (mut interp, bank) = ready_interp(system.woven().clone());
        b.iter(|| {
            interp
                .call(
                    bank.clone(),
                    "transfer",
                    vec![Value::from("A-1"), Value::from("A-2"), Value::Int(1)],
                )
                .expect("transfers")
        });
    });

    group.bench_function("transfer_throughput_remote_client", |b| {
        let mda = lifecycle();
        let system =
            mda.generate(&banking_bodies(), comet::Backend::JavaFunctional).expect("weaves");
        let (mut interp, bank) = ready_interp(system.woven().clone());
        interp.middleware_mut().bus.set_current_node("client").expect("node");
        b.iter(|| {
            interp
                .call(
                    bank.clone(),
                    "transfer",
                    vec![Value::from("A-1"), Value::from("A-2"), Value::Int(1)],
                )
                .expect("transfers")
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
