//! `comet-gen` — the **generator factory**: every code-generation
//! target in the suite lives behind one [`Generator`] trait, registered
//! in a [`GeneratorFactory`] keyed by a [`Backend`] id. This is the
//! "generic" half of *Generic* Concern-Oriented Model Transformations
//! made concrete: the PSM → code step is a pluggable transformation
//! chosen per request, not a hard-wired printer.
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

pub use java::{JavaFunctionalBackend, JavaMonolithicBackend};
pub use report::ReportBackend;
pub use rust_skeleton::{RustSkeletonBackend, RustType};

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

/// One code-generation target. Implementations must be deterministic:
/// the same [`GenInput`] renders byte-identical artifacts, which is
/// what makes caching artifacts by content sound.
pub trait Generator {
    /// Stable backend id; must agree with [`Backend::id`] for standard
    /// backends.
    fn id(&self) -> &'static str;
    /// One-line human description for `--list-backends`.
    fn describe(&self) -> &'static str;
    /// Renders the artifact.
    fn generate(&self, input: &GenInput<'_>) -> String;
}

/// The backend registry, in the style of the RAISE transformation
/// factory: ask it for a transformer by domain ([`Backend`]) or by raw
/// id, or iterate the registered set for listings.
pub struct GeneratorFactory {
    registry: Vec<Box<dyn Generator + Send + Sync>>,
}

impl GeneratorFactory {
    /// An empty registry (for tests that register custom backends).
    pub fn new() -> Self {
        GeneratorFactory { registry: Vec::new() }
    }

    /// The standard registry: all four [`Backend::ALL`] targets.
    pub fn with_standard_backends() -> Self {
        let mut factory = GeneratorFactory::new();
        factory.register(Box::new(JavaFunctionalBackend));
        factory.register(Box::new(JavaMonolithicBackend));
        factory.register(Box::new(RustSkeletonBackend));
        factory.register(Box::new(ReportBackend));
        factory
    }

    /// Registers a backend; a later registration with the same id wins
    /// over an earlier one (lookup is last-registered-first).
    pub fn register(&mut self, generator: Box<dyn Generator + Send + Sync>) {
        self.registry.push(generator);
    }

    /// Looks a backend up by enum variant.
    pub fn get(&self, backend: Backend) -> Option<&(dyn Generator + Send + Sync)> {
        self.by_id(backend.id())
    }

    /// Looks a backend up by raw id (the plan-TOML / CLI spelling).
    pub fn by_id(&self, id: &str) -> Option<&(dyn Generator + Send + Sync)> {
        self.registry.iter().rev().find(|g| g.id() == id).map(Box::as_ref)
    }

    /// The registered backends, in registration order.
    pub fn backends(&self) -> impl Iterator<Item = &(dyn Generator + Send + Sync)> {
        self.registry.iter().map(Box::as_ref)
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }
}

impl Default for GeneratorFactory {
    fn default() -> Self {
        GeneratorFactory::with_standard_backends()
    }
}

impl fmt::Debug for GeneratorFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<&str> = self.registry.iter().map(|g| g.id()).collect();
        f.debug_struct("GeneratorFactory").field("backends", &ids).finish()
    }
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
    fn standard_factory_registers_all_backends() {
        let factory = GeneratorFactory::with_standard_backends();
        assert_eq!(factory.len(), Backend::ALL.len());
        assert!(!factory.is_empty());
        for backend in Backend::ALL {
            let generator = factory.get(backend).expect("registered");
            assert_eq!(generator.id(), backend.id());
            assert!(!generator.describe().is_empty());
        }
        assert!(factory.by_id("cobol").is_none());
    }

    #[test]
    fn later_registration_shadows_earlier() {
        struct Custom;
        impl Generator for Custom {
            fn id(&self) -> &'static str {
                "report"
            }
            fn describe(&self) -> &'static str {
                "custom report"
            }
            fn generate(&self, _input: &GenInput<'_>) -> String {
                "custom".into()
            }
        }
        let mut factory = GeneratorFactory::with_standard_backends();
        factory.register(Box::new(Custom));
        assert_eq!(factory.by_id("report").expect("present").describe(), "custom report");
    }

    #[test]
    fn every_backend_mentions_every_class_and_method() {
        let (model, woven, concerns, bodies) = input_fixture();
        let input = GenInput { model: &model, woven: &woven, concerns: &concerns, bodies: &bodies };
        let factory = GeneratorFactory::with_standard_backends();
        for generator in factory.backends() {
            let artifact = generator.generate(&input);
            for class_id in model.classes() {
                let class = model.element(class_id).expect("class exists");
                assert!(
                    artifact.contains(class.name()),
                    "backend {} omits class {}",
                    generator.id(),
                    class.name()
                );
                for op_id in model.operations_of(class_id) {
                    let op = model.element(op_id).expect("operation exists");
                    assert!(
                        artifact.contains(op.name()),
                        "backend {} omits method {}.{}",
                        generator.id(),
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
        let factory = GeneratorFactory::with_standard_backends();
        for generator in factory.backends() {
            assert_eq!(generator.generate(&input), generator.generate(&input));
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
        let artifact = RustSkeletonBackend.generate(&input);
        assert!(artifact.contains("pub struct"), "{artifact}");
        assert!(artifact.contains("rt::intrinsic(\"log.emit\""), "{artifact}");
    }
}
