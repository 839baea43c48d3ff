//! # comet-workflow — guided refinement workflows
//!
//! Section 3 of the paper: *"Guidance in the refinement process. A
//! workflow model could track the refinement of a PIM or PSM through
//! transformations. The workflow model could define which generic
//! transformations can be applied at a certain refinement step, and
//! therefore could determine the allowed sequence of transformations."*
//!
//! * [`WorkflowModel`] — the planned concerns and ordering constraints;
//! * [`WorkflowEngine`] — tracks applied concerns, answers "what can I
//!   apply next?" and "what remains?", and rejects out-of-order steps.
//!
//! ## Example
//!
//! ```
//! use comet_workflow::{OrderConstraint, WorkflowEngine, WorkflowModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = WorkflowModel::new("fig2")
//!     .step("distribution", false)
//!     .step("transactions", false)
//!     .step("security", false)
//!     .constraint(OrderConstraint::Before("distribution".into(), "security".into()));
//! let mut engine = WorkflowEngine::new(model);
//! assert_eq!(engine.allowed_next(), vec!["distribution", "transactions"]);
//! engine.record("distribution")?;
//! assert!(engine.allowed_next().contains(&"security"));
//! # Ok(())
//! # }
//! ```

use std::fmt;

/// Ordering constraints between planned concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderConstraint {
    /// `Before(a, b)`: when both are applied, `a` must come first; `b`
    /// is not allowed until `a` has been applied.
    Before(String, String),
    /// `Requires(a, b)`: applying `a` requires `b` to be applied already.
    Requires(String, String),
    /// At most one of the two may ever be applied.
    MutuallyExclusive(String, String),
}

/// One planned refinement step (a concern dimension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepDef {
    /// The concern name.
    pub concern: String,
    /// Optional steps do not block completion.
    pub optional: bool,
}

/// The workflow model: planned steps plus constraints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkflowModel {
    name: String,
    steps: Vec<StepDef>,
    constraints: Vec<OrderConstraint>,
}

impl WorkflowModel {
    /// Creates an empty workflow model.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowModel { name: name.into(), ..WorkflowModel::default() }
    }

    /// Adds a planned step, builder style.
    pub fn step(mut self, concern: &str, optional: bool) -> Self {
        self.steps.push(StepDef { concern: concern.to_owned(), optional });
        self
    }

    /// Adds an ordering constraint, builder style.
    pub fn constraint(mut self, c: OrderConstraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Planned steps in order.
    pub fn steps(&self) -> &[StepDef] {
        &self.steps
    }

    /// Ordering constraints in declaration order.
    pub fn constraints(&self) -> &[OrderConstraint] {
        &self.constraints
    }

    /// Checks the model itself for construction mistakes: duplicate
    /// steps, self-referential constraints (`Before(a, a)` can never be
    /// satisfied, the other kinds of `(a, a)` are vacuous), and
    /// constraints naming concerns the plan does not contain — all of
    /// which would otherwise sit in the model as silently-dead (or
    /// silently-deadlocking) rules.
    ///
    /// # Errors
    /// Returns the first [`WorkflowBuildError`] found.
    pub fn validate(&self) -> Result<(), WorkflowBuildError> {
        let mut seen = std::collections::BTreeSet::new();
        for step in &self.steps {
            if !seen.insert(step.concern.as_str()) {
                return Err(WorkflowBuildError::DuplicateStep(step.concern.clone()));
            }
        }
        for constraint in &self.constraints {
            let (kind, a, b) = match constraint {
                OrderConstraint::Before(a, b) => ("Before", a, b),
                OrderConstraint::Requires(a, b) => ("Requires", a, b),
                OrderConstraint::MutuallyExclusive(a, b) => ("MutuallyExclusive", a, b),
            };
            if a == b {
                return Err(WorkflowBuildError::SelfConstraint {
                    constraint: kind.to_owned(),
                    concern: a.clone(),
                });
            }
            for concern in [a, b] {
                if !seen.contains(concern.as_str()) {
                    return Err(WorkflowBuildError::UnplannedConcern {
                        constraint: kind.to_owned(),
                        concern: concern.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Construction mistakes in a [`WorkflowModel`], caught by
/// [`WorkflowModel::validate`] / [`WorkflowEngine::try_new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowBuildError {
    /// The same concern was planned as a step twice.
    DuplicateStep(String),
    /// A constraint names the same concern on both sides.
    SelfConstraint {
        /// The constraint kind (`Before`, `Requires`, ...).
        constraint: String,
        /// The concern named twice.
        concern: String,
    },
    /// A constraint names a concern that is not a planned step.
    UnplannedConcern {
        /// The constraint kind.
        constraint: String,
        /// The unplanned concern.
        concern: String,
    },
}

impl fmt::Display for WorkflowBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowBuildError::DuplicateStep(c) => {
                write!(f, "step `{c}` is planned twice")
            }
            WorkflowBuildError::SelfConstraint { constraint, concern } => {
                write!(f, "{constraint} constraint names `{concern}` on both sides")
            }
            WorkflowBuildError::UnplannedConcern { constraint, concern } => {
                write!(f, "{constraint} constraint names unplanned concern `{concern}`")
            }
        }
    }
}

impl std::error::Error for WorkflowBuildError {}

/// Workflow enforcement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// The concern is not part of the plan.
    NotPlanned(String),
    /// The concern was already applied.
    AlreadyApplied(String),
    /// A constraint forbids the concern right now.
    ConstraintViolated {
        /// The concern being applied.
        concern: String,
        /// Why.
        detail: String,
    },
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::NotPlanned(c) => write!(f, "concern `{c}` is not in the workflow plan"),
            WorkflowError::AlreadyApplied(c) => write!(f, "concern `{c}` was already applied"),
            WorkflowError::ConstraintViolated { concern, detail } => {
                write!(f, "cannot apply `{concern}`: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Tracks one refinement in progress.
#[derive(Debug, Clone)]
pub struct WorkflowEngine {
    model: WorkflowModel,
    applied: Vec<String>,
}

impl WorkflowEngine {
    /// Starts an engine with nothing applied. The model is taken as-is;
    /// construction-checked entry points (the MDA lifecycle and the
    /// serving profile) go through [`WorkflowEngine::try_new`] instead.
    pub fn new(model: WorkflowModel) -> Self {
        WorkflowEngine { model, applied: Vec::new() }
    }

    /// Starts an engine after [`WorkflowModel::validate`]-ing the model,
    /// so duplicate steps and dead or deadlocking constraints are typed
    /// construction errors rather than latent behavior.
    ///
    /// # Errors
    /// Propagates the model's first [`WorkflowBuildError`].
    pub fn try_new(model: WorkflowModel) -> Result<Self, WorkflowBuildError> {
        model.validate()?;
        Ok(WorkflowEngine::new(model))
    }

    /// The underlying workflow model.
    pub fn model(&self) -> &WorkflowModel {
        &self.model
    }

    /// Concerns applied so far, in application order. This order is what
    /// the MDA lifecycle hands to the weaver as aspect precedence.
    pub fn applied(&self) -> &[String] {
        &self.applied
    }

    fn is_applied(&self, concern: &str) -> bool {
        self.applied.iter().any(|c| c == concern)
    }

    fn check(&self, concern: &str) -> Result<(), WorkflowError> {
        self.check_with(concern, &[])
    }

    /// The constraint check, treating `staged` as applied on top of the
    /// recorded state. Borrow-based so hypothetical sequences
    /// ([`WorkflowEngine::validate_sequence`]) need no engine or model
    /// clone.
    fn check_with(&self, concern: &str, staged: &[&str]) -> Result<(), WorkflowError> {
        let applied = |c: &str| self.is_applied(c) || staged.contains(&c);
        if !self.model.steps.iter().any(|s| s.concern == concern) {
            return Err(WorkflowError::NotPlanned(concern.to_owned()));
        }
        if applied(concern) {
            return Err(WorkflowError::AlreadyApplied(concern.to_owned()));
        }
        for c in &self.model.constraints {
            match c {
                OrderConstraint::Before(a, b) if b == concern && !applied(a) => {
                    return Err(WorkflowError::ConstraintViolated {
                        concern: concern.to_owned(),
                        detail: format!("`{a}` must be applied before `{b}`"),
                    });
                }
                OrderConstraint::Requires(a, b) if a == concern && !applied(b) => {
                    return Err(WorkflowError::ConstraintViolated {
                        concern: concern.to_owned(),
                        detail: format!("`{a}` requires `{b}`"),
                    });
                }
                OrderConstraint::MutuallyExclusive(a, b) => {
                    let other = if a == concern {
                        Some(b)
                    } else if b == concern {
                        Some(a)
                    } else {
                        None
                    };
                    if let Some(o) = other {
                        if applied(o) {
                            return Err(WorkflowError::ConstraintViolated {
                                concern: concern.to_owned(),
                                detail: format!("mutually exclusive with applied `{o}`"),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The concerns that may be applied next, in plan order.
    pub fn allowed_next(&self) -> Vec<&str> {
        self.model
            .steps
            .iter()
            .map(|s| s.concern.as_str())
            .filter(|c| self.check(c).is_ok())
            .collect()
    }

    /// Planned-but-unapplied concerns (the paper's "list of the remaining
    /// concerns"), in plan order.
    pub fn remaining(&self) -> Vec<&str> {
        self.model
            .steps
            .iter()
            .map(|s| s.concern.as_str())
            .filter(|c| !self.is_applied(c))
            .collect()
    }

    /// True when every non-optional step has been applied.
    pub fn is_complete(&self) -> bool {
        self.model.steps.iter().filter(|s| !s.optional).all(|s| self.is_applied(&s.concern))
    }

    /// Records that `concern` was applied.
    ///
    /// # Errors
    /// Rejects unplanned, duplicate, or constraint-violating applications.
    pub fn record(&mut self, concern: &str) -> Result<(), WorkflowError> {
        self.check(concern)?;
        self.applied.push(concern.to_owned());
        Ok(())
    }

    /// Compensates the most recent [`WorkflowEngine::record`]: pops the
    /// last applied entry if (and only if) it is `concern`. Returns
    /// whether anything was undone. Used by the MDA lifecycle to unwind
    /// the workflow when a later stage of an atomic refinement step
    /// fails.
    pub fn unrecord(&mut self, concern: &str) -> bool {
        if self.applied.last().map(String::as_str) == Some(concern) {
            self.applied.pop();
            true
        } else {
            false
        }
    }

    /// Checks a whole sequence against the plan without mutating state.
    /// Allocation-light: the hypothetical steps are tracked as borrows
    /// on top of the live state instead of cloning the whole model and
    /// applied list per call.
    ///
    /// # Errors
    /// Reports the first violating step.
    pub fn validate_sequence(&self, sequence: &[&str]) -> Result<(), WorkflowError> {
        let mut staged: Vec<&str> = Vec::with_capacity(sequence.len());
        for c in sequence {
            self.check_with(c, &staged)?;
            staged.push(c);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_model() -> WorkflowModel {
        WorkflowModel::new("fig2")
            .step("distribution", false)
            .step("transactions", false)
            .step("security", false)
            .step("logging", true)
            .constraint(OrderConstraint::Before("distribution".into(), "security".into()))
    }

    #[test]
    fn allowed_next_respects_before_constraint() {
        let mut e = WorkflowEngine::new(fig2_model());
        assert_eq!(e.allowed_next(), vec!["distribution", "transactions", "logging"]);
        assert_eq!(
            e.record("security").unwrap_err(),
            WorkflowError::ConstraintViolated {
                concern: "security".into(),
                detail: "`distribution` must be applied before `security`".into()
            }
        );
        e.record("distribution").unwrap();
        assert!(e.allowed_next().contains(&"security"));
        e.record("security").unwrap();
        assert_eq!(e.applied(), &["distribution".to_owned(), "security".to_owned()]);
    }

    #[test]
    fn remaining_and_completion() {
        let mut e = WorkflowEngine::new(fig2_model());
        assert_eq!(e.remaining().len(), 4);
        assert!(!e.is_complete());
        e.record("distribution").unwrap();
        e.record("transactions").unwrap();
        e.record("security").unwrap();
        // Logging is optional: complete without it.
        assert!(e.is_complete());
        assert_eq!(e.remaining(), vec!["logging"]);
    }

    #[test]
    fn duplicates_and_unplanned_rejected() {
        let mut e = WorkflowEngine::new(fig2_model());
        e.record("transactions").unwrap();
        assert_eq!(
            e.record("transactions").unwrap_err(),
            WorkflowError::AlreadyApplied("transactions".into())
        );
        assert_eq!(
            e.record("astrology").unwrap_err(),
            WorkflowError::NotPlanned("astrology".into())
        );
    }

    #[test]
    fn requires_and_mutual_exclusion() {
        let model = WorkflowModel::new("w")
            .step("a", false)
            .step("b", false)
            .step("c", false)
            .constraint(OrderConstraint::Requires("a".into(), "b".into()))
            .constraint(OrderConstraint::MutuallyExclusive("b".into(), "c".into()));
        let mut e = WorkflowEngine::new(model);
        assert!(matches!(e.record("a"), Err(WorkflowError::ConstraintViolated { .. })));
        e.record("b").unwrap();
        e.record("a").unwrap();
        assert!(matches!(e.record("c"), Err(WorkflowError::ConstraintViolated { .. })));
    }

    #[test]
    fn validate_sequence_is_side_effect_free() {
        let e = WorkflowEngine::new(fig2_model());
        assert!(e.validate_sequence(&["distribution", "security"]).is_ok());
        assert!(e.validate_sequence(&["security"]).is_err());
        assert!(e.applied().is_empty());
    }

    #[test]
    fn error_display() {
        assert!(WorkflowError::NotPlanned("x".into()).to_string().contains("not in the workflow"));
    }

    #[test]
    fn validate_accepts_wellformed_models() {
        fig2_model().validate().unwrap();
        WorkflowEngine::try_new(fig2_model()).unwrap();
        WorkflowModel::new("empty").validate().unwrap();
    }

    #[test]
    fn validate_rejects_duplicate_steps() {
        let model = WorkflowModel::new("w").step("a", false).step("a", true);
        assert_eq!(model.validate(), Err(WorkflowBuildError::DuplicateStep("a".into())));
        assert!(WorkflowEngine::try_new(model).is_err());
    }

    #[test]
    fn validate_rejects_self_constraints() {
        let model = WorkflowModel::new("w")
            .step("a", false)
            .constraint(OrderConstraint::Before("a".into(), "a".into()));
        assert_eq!(
            model.validate(),
            Err(WorkflowBuildError::SelfConstraint {
                constraint: "Before".into(),
                concern: "a".into()
            })
        );
        let model = WorkflowModel::new("w")
            .step("a", false)
            .constraint(OrderConstraint::MutuallyExclusive("a".into(), "a".into()));
        assert!(matches!(model.validate(), Err(WorkflowBuildError::SelfConstraint { .. })));
    }

    #[test]
    fn validate_rejects_unplanned_constraint_concerns() {
        let model = WorkflowModel::new("w")
            .step("a", false)
            .constraint(OrderConstraint::Requires("a".into(), "ghost".into()));
        assert_eq!(
            model.validate(),
            Err(WorkflowBuildError::UnplannedConcern {
                constraint: "Requires".into(),
                concern: "ghost".into()
            })
        );
        let err = model.validate().unwrap_err();
        assert!(err.to_string().contains("unplanned concern `ghost`"));
    }
}
