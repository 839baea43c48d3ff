//! `comet-gen` — the code generators: every code-generation target in
//! the suite is one variant of the closed [`Backend`] enum, which
//! describes and renders itself. This is the "generic" half of
//! *Generic* Concern-Oriented Model Transformations made concrete: the
//! PSM → code step is a transformation chosen per request, not a
//! hard-wired printer.
//!
//! Standard backends:
//!
//! | id                | artifact |
//! |-------------------|----------|
//! | `java-functional` | the Java-flavoured woven system source (functional generator + woven aspects) |
//! | `java-monolithic` | the tangled baseline the paper argues against ([`comet_codegen::MonolithicGenerator`]) |
//! | `rust-skeleton`   | a typed Rust skeleton lowered from the woven IR, intrinsic calls preserved |
//! | `report`          | a deterministic model + concern summary (text + JSON) |
//!
//! Backends are deterministic, so their artifacts can be cached by
//! content: the lifecycle (`comet::MdaLifecycle`) keeps each state's
//! artifacts, per backend, under the state's content hash, steps
//! fingerprint and bodies fingerprint, and serves a repeat byte-identical
//! to a cold render.

mod java;
mod report;
mod rust_skeleton;

use comet_codegen::{BodyProvider, Program};
use comet_model::Model;
use std::fmt;

/// The registered generation targets, mirroring the RAISE
/// `TransformationDomain` enum: one variant per backend, each with a
/// stable string id used in workload plans, CLI flags, and cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Java-flavoured functional target: the woven system source.
    JavaFunctional,
    /// The tangled monolithic baseline (paper experiment E5's control).
    JavaMonolithic,
    /// Typed Rust-skeleton lowering of the woven IR.
    RustSkeleton,
    /// Deterministic model + concern metrics summary.
    Report,
}

impl Backend {
    /// Every backend, in the canonical listing order.
    pub const ALL: [Backend; 4] =
        [Backend::JavaFunctional, Backend::JavaMonolithic, Backend::RustSkeleton, Backend::Report];

    /// The stable string id (plan TOML / CLI / cache-key spelling).
    pub fn id(self) -> &'static str {
        match self {
            Backend::JavaFunctional => "java-functional",
            Backend::JavaMonolithic => "java-monolithic",
            Backend::RustSkeleton => "rust-skeleton",
            Backend::Report => "report",
        }
    }

    /// Parses a backend id; `None` for unknown spellings.
    pub fn parse(id: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.id() == id)
    }

    /// One-line human description for `--list-backends`.
    pub fn describe(self) -> &'static str {
        match self {
            Backend::JavaFunctional => {
                "Java-flavoured woven system source (functional generator + woven aspects)"
            }
            Backend::JavaMonolithic => {
                "tangled monolithic Java baseline (concern code inlined from the PSM marks)"
            }
            Backend::RustSkeleton => {
                "typed Rust skeleton lowered from the woven IR (intrinsics preserved as rt:: calls)"
            }
            Backend::Report => {
                "deterministic model + concern summary (element counts, advised join points, tangling)"
            }
        }
    }

    /// Renders the artifact. Deterministic: the same [`GenInput`]
    /// renders byte-identical artifacts, which is what makes caching
    /// artifacts by content sound.
    pub fn render(self, input: &GenInput<'_>) -> String {
        match self {
            Backend::JavaFunctional => java::render_functional(input),
            Backend::JavaMonolithic => java::render_monolithic(input),
            Backend::RustSkeleton => rust_skeleton::render(input),
            Backend::Report => report::render(input),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Everything a backend may consult when rendering: the refined model,
/// the woven program (functional + aspects), the applied-concern names
/// in §3 precedence order, and the method bodies the functional
/// generator was given.
#[derive(Debug, Clone, Copy)]
pub struct GenInput<'a> {
    /// The refined (most-specialized) model the programs were generated
    /// from.
    pub model: &'a Model,
    /// The woven program: functional code + aspect advice.
    pub woven: &'a Program,
    /// Applied concern names, in application (precedence) order.
    pub concerns: &'a [String],
    /// Method bodies supplied to the functional generator.
    pub bodies: &'a BodyProvider,
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_aop::Weaver;
    use comet_codegen::FunctionalGenerator;
    use comet_model::sample::banking_pim;

    fn input_fixture() -> (Model, Program, Vec<String>, BodyProvider) {
        let model = banking_pim();
        let bodies = BodyProvider::default();
        let woven = FunctionalGenerator::new().generate(&model, &bodies);
        (model, woven, vec!["distribution".into()], bodies)
    }

    #[test]
    fn backend_ids_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(Backend::parse(backend.id()), Some(backend));
            assert_eq!(backend.to_string(), backend.id());
        }
        assert_eq!(Backend::parse("cobol"), None);
    }

    #[test]
    fn every_backend_mentions_every_class_and_method() {
        let (model, woven, concerns, bodies) = input_fixture();
        let input = GenInput { model: &model, woven: &woven, concerns: &concerns, bodies: &bodies };
        for backend in Backend::ALL {
            let artifact = backend.render(&input);
            for class_id in model.classes() {
                let class = model.element(class_id).expect("class exists");
                assert!(
                    artifact.contains(class.name()),
                    "backend {} omits class {}",
                    backend.id(),
                    class.name()
                );
                for op_id in model.operations_of(class_id) {
                    let op = model.element(op_id).expect("operation exists");
                    assert!(
                        artifact.contains(op.name()),
                        "backend {} omits method {}.{}",
                        backend.id(),
                        class.name(),
                        op.name()
                    );
                }
            }
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let (model, woven, concerns, bodies) = input_fixture();
        let input = GenInput { model: &model, woven: &woven, concerns: &concerns, bodies: &bodies };
        for backend in Backend::ALL {
            assert_eq!(backend.render(&input), backend.render(&input));
        }
    }

    #[test]
    fn woven_intrinsics_survive_the_rust_lowering() {
        use comet_aop::{parse_pointcut, Advice, AdviceKind, Aspect};
        use comet_codegen::{Block, Expr, Stmt};
        let model = banking_pim();
        let bodies = BodyProvider::default();
        let functional = FunctionalGenerator::new().generate(&model, &bodies);
        let aspect = Aspect::new("logging").with_advice(Advice::new(
            AdviceKind::Before,
            parse_pointcut("execution(*.*)").expect("valid pointcut"),
            Block::of(vec![Stmt::Expr(Expr::intrinsic(
                "log.emit",
                vec![Expr::str("info"), Expr::str("enter")],
            ))]),
        ));
        let woven = Weaver::new(vec![aspect]).weave(&functional).expect("weaves").program;
        let concerns = vec!["logging".to_owned()];
        let input = GenInput { model: &model, woven: &woven, concerns: &concerns, bodies: &bodies };
        let artifact = Backend::RustSkeleton.render(&input);
        assert!(artifact.contains("pub struct"), "{artifact}");
        assert!(artifact.contains("rt::intrinsic(\"log.emit\""), "{artifact}");
    }
}
