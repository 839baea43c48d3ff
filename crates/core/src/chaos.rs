//! The deterministic chaos harness: runs the banking pipeline woven
//! with {distribution, transactions, faulttolerance} under a seeded
//! [`FaultPlan`] and reports how gracefully it degraded.
//!
//! The harness is the shared engine behind the `chaos` test suite and
//! the `comet-cli run --faults` / `pipeline --faults` commands. One run:
//!
//! 1. builds the executable banking PIM (a `Bank` holding two `Account`
//!    refs) and refines it through the three concerns — the FT/tx
//!    application *order* is a parameter, because the paper's §3 claim
//!    (aspect precedence follows transformation order) becomes
//!    observable here: FT applied before transactions wraps *outside*
//!    the transaction advice and retries whole transactions; applied
//!    after, it sits inside and a failed commit must not be retried;
//! 2. generates and weaves the system, installs the fault plan on the
//!    interpreter's middleware, and drives a deterministic workload of
//!    transfers;
//! 3. checks the degradation contract after every call: no hard
//!    interpreter error (typed exceptions only) and the conservation
//!    invariant — the two balances always sum to the initial total, so
//!    the account store never observes a partial transfer.
//!
//! Everything is closed over `(workload, plan seed)`: same config, same
//! [`FaultLog`], byte for byte.

use crate::{LifecycleError, MdaLifecycle};
use comet_codegen::{Block, BodyProvider, Expr, IrBinOp, IrType, LValue, Stmt};
use comet_concerns::{distribution, faulttolerance, transactions};
use comet_interp::{Interp, InterpError, Value};
use comet_middleware::{BusStats, FaultLog, FaultPlan, MiddlewareConfig, TxStats};
use comet_model::{Model, ModelBuilder, Primitive, TypeRef};
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use std::fmt;

/// Which of the two §3 precedence orders to weave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtOrder {
    /// Apply faulttolerance before transactions: FT advice is the outer
    /// layer and retries re-run the *whole* transaction.
    FtOutsideTx,
    /// Apply transactions before faulttolerance: the transaction advice
    /// is outer, so a failed commit propagates without a retry.
    TxOutsideFt,
}

impl FtOrder {
    /// The concern application order (distribution always outermost: it
    /// routes the call to the server before any other layer runs).
    pub fn concerns(self) -> [&'static str; 3] {
        match self {
            FtOrder::FtOutsideTx => ["distribution", "faulttolerance", "transactions"],
            FtOrder::TxOutsideFt => ["distribution", "transactions", "faulttolerance"],
        }
    }
}

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Middleware seed (bus latency stream).
    pub seed: u64,
    /// The fault plan to install (its own seed drives the fault draws).
    pub plan: FaultPlan,
    /// FT/tx precedence order.
    pub order: FtOrder,
    /// Number of transfer calls in the workload.
    pub transfers: u32,
    /// Whether `Bank.transfer` is declared idempotent in `Si` (grants
    /// the retry permission the generic aspect cannot invent).
    pub retry_transfer: bool,
    /// FT `max_attempts` slot.
    pub max_attempts: i64,
    /// FT `backoff_us` slot.
    pub backoff_us: i64,
    /// FT `deadline_us` slot (0 disables).
    pub deadline_us: i64,
    /// FT `breaker_threshold` slot.
    pub breaker_threshold: i64,
    /// FT `breaker_cooldown_us` slot.
    pub breaker_cooldown_us: i64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            plan: FaultPlan::new(42),
            order: FtOrder::FtOutsideTx,
            transfers: 12,
            retry_transfer: true,
            max_attempts: 3,
            backoff_us: 200,
            deadline_us: 0,
            breaker_threshold: 3,
            breaker_cooldown_us: 10_000,
        }
    }
}

/// The outcome of a chaos run (the "degradation summary").
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Transfer calls attempted.
    pub attempted: u32,
    /// Calls that returned normally.
    pub succeeded: u32,
    /// Typed (thrown) failures, in call order.
    pub typed_failures: Vec<String>,
    /// Hard interpreter failures — the degradation contract requires
    /// this to stay empty.
    pub hard_failures: Vec<String>,
    /// Conservation-invariant violations — must stay empty.
    pub invariant_violations: Vec<String>,
    /// Final balance of account `A-1`.
    pub balance_a1: i64,
    /// Final balance of account `A-2`.
    pub balance_a2: i64,
    /// The fault log of the run.
    pub fault_log: FaultLog,
    /// Transaction-manager statistics.
    pub tx: TxStats,
    /// Bus statistics.
    pub bus: BusStats,
    /// Final breaker state of `Bank.transfer`, if the breaker was used.
    pub breaker_state: Option<String>,
    /// Final sim time in µs.
    pub now_us: u64,
}

impl ChaosReport {
    /// True when the run met the graceful-degradation contract.
    pub fn degraded_gracefully(&self) -> bool {
        self.hard_failures.is_empty() && self.invariant_violations.is_empty()
    }

    /// Bridges this report into `reg` record-for-record, so a chaos run
    /// exports through the same Prometheus/JSON pipeline as a serving
    /// run: outcome and platform totals become counters, and every
    /// fault-log entry increments `comet_chaos_fault_events_total`
    /// labelled by its event type.
    pub fn record_metrics(&self, reg: &mut comet_metrics::MetricsRegistry) {
        let total = |reg: &mut comet_metrics::MetricsRegistry, name: &str, v: u64| {
            let h = reg.counter(name, &[]);
            reg.add(h, v);
        };
        total(reg, "comet_chaos_attempted_total", u64::from(self.attempted));
        total(reg, "comet_chaos_succeeded_total", u64::from(self.succeeded));
        total(reg, "comet_chaos_typed_failures_total", self.typed_failures.len() as u64);
        total(reg, "comet_chaos_hard_failures_total", self.hard_failures.len() as u64);
        total(
            reg,
            "comet_chaos_invariant_violations_total",
            self.invariant_violations.len() as u64,
        );
        total(reg, "comet_chaos_tx_committed_total", self.tx.committed);
        total(reg, "comet_chaos_tx_rolled_back_total", self.tx.rolled_back);
        total(reg, "comet_chaos_bus_delivered_total", self.bus.delivered);
        total(reg, "comet_chaos_bus_lost_total", self.bus.lost);
        for record in self.fault_log.records() {
            use comet_middleware::FaultEvent;
            let event = match &record.event {
                FaultEvent::Injected { .. } => "injected",
                FaultEvent::ArmedFired { .. } => "armed_fired",
                FaultEvent::Healed { .. } => "healed",
                FaultEvent::BreakerOpened { .. } => "breaker_opened",
                FaultEvent::BreakerHalfOpen { .. } => "breaker_half_open",
                FaultEvent::BreakerClosed { .. } => "breaker_closed",
            };
            let h = reg.counter("comet_chaos_fault_events_total", &[("event", event)]);
            reg.add(h, 1);
        }
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos run: {}/{} transfers succeeded", self.succeeded, self.attempted)?;
        writeln!(
            f,
            "balances: A-1 = {}, A-2 = {} (sum {})",
            self.balance_a1,
            self.balance_a2,
            self.balance_a1 + self.balance_a2
        )?;
        writeln!(
            f,
            "tx: {} begun, {} committed, {} rolled back",
            self.tx.begun, self.tx.committed, self.tx.rolled_back
        )?;
        writeln!(
            f,
            "bus: {} delivered, {} lost, sim time {}µs",
            self.bus.delivered, self.bus.lost, self.now_us
        )?;
        if let Some(state) = &self.breaker_state {
            writeln!(f, "breaker[Bank.transfer]: {state}")?;
        }
        writeln!(
            f,
            "degradation: {} typed failure(s), {} hard failure(s), {} invariant violation(s)",
            self.typed_failures.len(),
            self.hard_failures.len(),
            self.invariant_violations.len()
        )?;
        for e in &self.typed_failures {
            writeln!(f, "  typed: {e}")?;
        }
        for e in &self.hard_failures {
            writeln!(f, "  HARD: {e}")?;
        }
        for e in &self.invariant_violations {
            writeln!(f, "  INVARIANT: {e}")?;
        }
        writeln!(f, "fault log ({} record(s)):", self.fault_log.len())?;
        for r in self.fault_log.records() {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// The executable banking PIM: `Bank` holds two `Account` references;
/// `transfer(from, to, amount)` debits then credits, `getBalance` reads.
pub fn executable_banking_pim() -> Model {
    let mut model = ModelBuilder::new("bank")
        .class("Account", |c| {
            c.attribute("number", Primitive::Str)?.attribute("balance", Primitive::Int)
        })
        .expect("valid model")
        .build();
    let account = model.find_class("Account").expect("just added");
    let root = model.root();
    let bank = model.add_class(root, "Bank").expect("valid");
    model.add_attribute(bank, "a1", TypeRef::Element(account)).expect("valid");
    model.add_attribute(bank, "a2", TypeRef::Element(account)).expect("valid");
    let transfer = model.add_operation(bank, "transfer").expect("valid");
    for p in ["from", "to"] {
        model.add_parameter(transfer, p, Primitive::Str.into()).expect("valid");
    }
    model.add_parameter(transfer, "amount", Primitive::Int.into()).expect("valid");
    model.set_return_type(transfer, Primitive::Bool.into()).expect("valid");
    let get_balance = model.add_operation(bank, "getBalance").expect("valid");
    model.add_parameter(get_balance, "number", Primitive::Str.into()).expect("valid");
    model.set_return_type(get_balance, Primitive::Int.into()).expect("valid");
    model
}

fn select_account(var: &str, number_param: &str) -> Vec<Stmt> {
    vec![
        Stmt::local(var, IrType::Object("Account".into()), Expr::this_field("a1")),
        Stmt::If {
            cond: Expr::binary(
                IrBinOp::Ne,
                Expr::Field { recv: Box::new(Expr::var(var)), name: "number".into() },
                Expr::var(number_param),
            ),
            then_block: Block::of(vec![Stmt::set_var(var, Expr::this_field("a2"))]),
            else_block: None,
        },
    ]
}

/// The functional bodies for [`executable_banking_pim`].
pub fn banking_bodies() -> BodyProvider {
    let field =
        |obj: &str, name: &str| Expr::Field { recv: Box::new(Expr::var(obj)), name: name.into() };
    let mut transfer = Vec::new();
    transfer.extend(select_account("src", "from"));
    transfer.extend(select_account("dst", "to"));
    transfer.extend([
        Stmt::If {
            cond: Expr::binary(IrBinOp::Lt, field("src", "balance"), Expr::var("amount")),
            then_block: Block::of(vec![Stmt::Throw(Expr::str("insufficient funds"))]),
            else_block: None,
        },
        Stmt::Assign {
            target: LValue::Field { recv: Expr::var("src"), name: "balance".into() },
            value: Expr::binary(IrBinOp::Sub, field("src", "balance"), Expr::var("amount")),
        },
        Stmt::If {
            cond: Expr::binary(IrBinOp::Eq, Expr::var("amount"), Expr::int(13)),
            then_block: Block::of(vec![Stmt::Throw(Expr::str("simulated crash after debit"))]),
            else_block: None,
        },
        Stmt::Assign {
            target: LValue::Field { recv: Expr::var("dst"), name: "balance".into() },
            value: Expr::binary(IrBinOp::Add, field("dst", "balance"), Expr::var("amount")),
        },
        Stmt::ret(Expr::bool(true)),
    ]);
    let mut get_balance = select_account("acc", "number");
    get_balance.push(Stmt::ret(field("acc", "balance")));
    BodyProvider::new()
        .provide("Bank::transfer", Block::of(transfer))
        .provide("Bank::getBalance", Block::of(get_balance))
}

/// The distribution `Si` for the banking workload: `Bank` served on
/// node `server`, both operations remote.
pub fn dist_si() -> ParamSet {
    ParamSet::new()
        .with("server_class", ParamValue::from("Bank"))
        .with("node", ParamValue::from("server"))
        .with("operations", ParamValue::from(vec!["transfer".to_owned(), "getBalance".to_owned()]))
}

/// The transactions `Si` for the banking workload: `Bank.transfer`,
/// serializable.
pub fn tx_si() -> ParamSet {
    ParamSet::new()
        .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        .with("isolation", ParamValue::from("serializable"))
}

fn ft_si(cfg: &ChaosConfig) -> ParamSet {
    let idempotent: Vec<String> =
        if cfg.retry_transfer { vec!["Bank.transfer".to_owned()] } else { Vec::new() };
    ParamSet::new()
        .with("methods", ParamValue::from(vec!["Bank.transfer".to_owned()]))
        .with("idempotent", ParamValue::StrList(idempotent))
        .with("max_attempts", ParamValue::Int(cfg.max_attempts))
        .with("backoff_us", ParamValue::Int(cfg.backoff_us))
        .with("deadline_us", ParamValue::Int(cfg.deadline_us))
        .with("breaker_threshold", ParamValue::Int(cfg.breaker_threshold))
        .with("breaker_cooldown_us", ParamValue::Int(cfg.breaker_cooldown_us))
}

/// The deterministic transfer workload: `(from, to, amount)` for call
/// `i`. Calls come in mirrored pairs (A-1→A-2 then A-2→A-1 of the same
/// amount), so a fault-free workload of any length never runs out of
/// funds; amounts avoid the functional crash trigger (13) — chaos comes
/// from the fault plan, not the workload.
pub fn workload(i: u32) -> (&'static str, &'static str, i64) {
    const AMOUNTS: [i64; 4] = [40, 25, 55, 10];
    let amount = AMOUNTS[(i as usize / 2) % AMOUNTS.len()];
    if i.is_multiple_of(2) {
        ("A-1", "A-2", amount)
    } else {
        ("A-2", "A-1", amount)
    }
}

/// Initial balances: `(A-1, A-2)`; the conservation invariant is their
/// sum.
pub const INITIAL_BALANCES: (i64, i64) = (1_000, 50);

/// Runs one chaos scenario end to end.
///
/// # Errors
/// Fails only on lifecycle/setup errors (a concern failing to apply or
/// generate). Workload failures — typed or hard — land in the report.
pub fn run_banking_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, LifecycleError> {
    run_banking_chaos_traced(cfg, &comet_obs::Collector::disabled())
}

/// [`run_banking_chaos`] with an observability collector attached to
/// every layer: the lifecycle (concern/generate spans), the interpreter
/// (intrinsic counters), the middleware (fault events), plus one
/// `runtime` span per `Bank.transfer` call so fault events nest inside
/// the call that triggered them. With a disabled collector this is
/// byte-identical to the untraced run; with an enabled one, same seed +
/// same plan produce the same trace, byte for byte.
///
/// # Errors
/// Same as [`run_banking_chaos`].
pub fn run_banking_chaos_traced(
    cfg: &ChaosConfig,
    obs: &comet_obs::Collector,
) -> Result<ChaosReport, LifecycleError> {
    let mut workflow = WorkflowModel::new("chaos");
    for step in cfg.order.concerns() {
        workflow = workflow.step(step, false);
    }
    let mut mda = MdaLifecycle::new(executable_banking_pim(), workflow)?;
    mda.set_collector(obs.clone());
    for step in cfg.order.concerns() {
        match step {
            "distribution" => mda.apply_concern(&distribution::pair(), dist_si())?,
            "transactions" => mda.apply_concern(&transactions::pair(), tx_si())?,
            _ => mda.apply_concern(&faulttolerance::pair(), ft_si(cfg))?,
        };
    }
    let system = mda.generate(&banking_bodies(), comet_gen::Backend::JavaFunctional)?;

    let config = MiddlewareConfig { seed: cfg.seed, ..MiddlewareConfig::default() };
    let mut interp = Interp::with_config(system.woven().clone(), config);
    interp.set_collector(obs.clone());
    interp.add_node("client");
    interp.add_node("server");
    let bank = interp.create_on("Bank", "server").expect("Bank class generated");
    let a1 = interp.create_on("Account", "server").expect("Account class generated");
    let a2 = interp.create_on("Account", "server").expect("Account class generated");
    interp.set_field(&a1, "number", Value::from("A-1")).expect("field exists");
    interp.set_field(&a1, "balance", Value::Int(INITIAL_BALANCES.0)).expect("field exists");
    interp.set_field(&a2, "number", Value::from("A-2")).expect("field exists");
    interp.set_field(&a2, "balance", Value::Int(INITIAL_BALANCES.1)).expect("field exists");
    interp.set_field(&bank, "a1", a1.clone()).expect("field exists");
    interp.set_field(&bank, "a2", a2.clone()).expect("field exists");
    // Registers the bank in the naming service (distribution concern).
    interp
        .call(bank.clone(), comet_codegen::marks::DIST_REGISTER_OP, vec![])
        .expect("registerRemote generated by the distribution concern");
    interp.middleware_mut().bus.set_current_node("client").expect("node exists");

    interp.middleware().install_fault_plan(cfg.plan.clone());

    let total = INITIAL_BALANCES.0 + INITIAL_BALANCES.1;
    let balance = |interp: &Interp, acc: &Value| -> i64 {
        match interp.field(acc, "balance") {
            Ok(Value::Int(n)) => n,
            _ => i64::MIN, // surfaces as an invariant violation
        }
    };
    let mut report = ChaosReport {
        attempted: cfg.transfers,
        succeeded: 0,
        typed_failures: Vec::new(),
        hard_failures: Vec::new(),
        invariant_violations: Vec::new(),
        balance_a1: 0,
        balance_a2: 0,
        fault_log: FaultLog::default(),
        tx: TxStats::default(),
        bus: BusStats::default(),
        breaker_state: None,
        now_us: 0,
    };
    for i in 0..cfg.transfers {
        let (from, to, amount) = workload(i);
        let args = vec![Value::from(from), Value::from(to), Value::Int(amount)];
        let span = obs.is_enabled().then(|| {
            let s = obs.begin_span("runtime", "call:Bank.transfer", interp.middleware().now_us());
            obs.span_attr(s, "call_index", &i.to_string());
            s
        });
        let outcome = match interp.call(bank.clone(), "transfer", args) {
            Ok(_) => {
                report.succeeded += 1;
                "ok".to_owned()
            }
            Err(InterpError::Thrown(v)) => {
                let msg = v.as_str().map(str::to_owned).unwrap_or_else(|| format!("{v:?}"));
                report.typed_failures.push(format!("call {i}: {msg}"));
                format!("thrown: {msg}")
            }
            Err(hard) => {
                report.hard_failures.push(format!("call {i}: {hard:?}"));
                format!("hard: {hard:?}")
            }
        };
        if let Some(s) = span {
            obs.span_attr(s, "outcome", &outcome);
            obs.end_span(s, interp.middleware().now_us());
        }
        let (b1, b2) = (balance(&interp, &a1), balance(&interp, &a2));
        if b1 + b2 != total {
            report.invariant_violations.push(format!(
                "call {i}: partial transfer observed (A-1 {b1} + A-2 {b2} != {total})"
            ));
        }
    }
    report.balance_a1 = balance(&interp, &a1);
    report.balance_a2 = balance(&interp, &a2);
    report.fault_log = interp.middleware().fault_log();
    report.tx = interp.middleware().tx.stats();
    report.bus = interp.middleware().bus.stats();
    report.breaker_state =
        interp.middleware().faults.borrow().breaker_state("Bank.transfer").map(str::to_owned);
    report.now_us = interp.middleware().now_us();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_succeeds_everywhere() {
        let report = run_banking_chaos(&ChaosConfig::default()).unwrap();
        assert_eq!(report.succeeded, report.attempted);
        assert!(report.degraded_gracefully());
        assert!(report.fault_log.is_empty());
        assert_eq!(report.balance_a1 + report.balance_a2, 1_050);
        assert_eq!(report.tx.begun, u64::from(report.attempted));
    }

    #[test]
    fn workload_is_deterministic_and_crash_free() {
        for i in 0..64 {
            let (from, to, amount) = workload(i);
            assert_ne!(amount, 13, "workload must not trip the functional crash");
            assert_ne!(from, to);
        }
    }
}
