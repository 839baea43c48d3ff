//! The content-addressed generation cache. Artifacts are keyed by
//! *what was generated from what*: the model's content hash, a
//! fingerprint of the applied steps, a fingerprint of the supplied
//! method bodies, and the backend id. Content addressing makes the
//! cache immune to lying revision counters — two models with identical
//! content share entries, and an `undo` that restores an earlier
//! snapshot re-hits the artifact rendered before the edit.
//!
//! Both the content hash and the steps fingerprint are the caller's.
//! The content hash is FNV-1a over the model's canonical XMI export,
//! which the lifecycle already holds for the repository commit its
//! model equals, so a lookup never exports the model. The steps
//! fingerprint covers each applied concern *with its specialisation
//! `Si`*: an aspect is a function of both, and an `Si` value the
//! transformation never writes to the model still shapes the woven
//! program.

use crate::{GenInput, Generator};
use std::collections::BTreeMap;

/// Cache key: (content hash, steps fingerprint, bodies fingerprint,
/// backend id).
type CacheKey = (u64, u64, u64, &'static str);

/// Content-addressed artifact cache: a `Generate` against unchanged
/// content costs one map lookup instead of a render.
#[derive(Debug, Default)]
pub struct GenCache {
    entries: BTreeMap<CacheKey, String>,
    hits: u64,
    misses: u64,
}

impl GenCache {
    /// An empty cache.
    pub fn new() -> Self {
        GenCache::default()
    }

    /// Renders `input` through `generator`, consulting the cache first.
    /// `content_hash` must be FNV-1a over the canonical XMI export of
    /// `input.model`, and `steps` must fingerprint the applied concerns
    /// with their `Si`, in precedence order. Returns the artifact and
    /// whether it was a cache hit. A hit is byte-identical to the cold
    /// render that populated the entry.
    pub fn render(
        &mut self,
        generator: &dyn Generator,
        input: &GenInput<'_>,
        content_hash: u64,
        steps: u64,
    ) -> (String, bool) {
        let key = (content_hash, steps, input.bodies.fingerprint(), generator.id());
        if let Some(artifact) = self.entries.get(&key) {
            self.hits += 1;
            return (artifact.clone(), true);
        }
        let artifact = generator.generate(input);
        self.entries.insert(key, artifact.clone());
        self.misses += 1;
        (artifact, false)
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no artifact has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, GeneratorFactory};
    use comet_codegen::{BodyProvider, FunctionalGenerator};
    use comet_model::sample::banking_pim;
    use comet_model::Model;

    /// The steps fingerprint a caller passes in.
    const STEPS: u64 = 1;

    /// The content hash a caller passes in: FNV-1a over the export.
    fn hash(model: &Model) -> u64 {
        comet_obs::fnv1a64(comet_xmi::export_model(model).as_bytes())
    }

    fn fixture() -> (Model, comet_codegen::Program, Vec<String>, BodyProvider) {
        let model = banking_pim();
        let bodies = BodyProvider::default();
        let program = FunctionalGenerator::new().generate(&model, &bodies);
        (model, program, vec!["distribution".to_owned()], bodies)
    }

    fn input<'a>(
        model: &'a Model,
        program: &'a comet_codegen::Program,
        concerns: &'a [String],
        bodies: &'a BodyProvider,
    ) -> GenInput<'a> {
        GenInput { model, functional: program, woven: program, concerns, bodies }
    }

    #[test]
    fn hit_is_byte_identical_to_cold_render() {
        let (model, program, concerns, bodies) = fixture();
        let factory = GeneratorFactory::with_standard_backends();
        let mut cache = GenCache::new();
        for backend in Backend::ALL {
            let generator = factory.get(backend).expect("registered");
            let gen_input = input(&model, &program, &concerns, &bodies);
            let (cold, hit0) = cache.render(generator, &gen_input, hash(&model), STEPS);
            assert!(!hit0, "first render must miss");
            let (warm, hit1) = cache.render(generator, &gen_input, hash(&model), STEPS);
            assert!(hit1, "second render must hit");
            assert_eq!(cold, warm);
        }
        assert_eq!(cache.stats(), (Backend::ALL.len() as u64, Backend::ALL.len() as u64));
        assert_eq!(cache.len(), Backend::ALL.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn keys_separate_backends_and_steps() {
        let (model, program, concerns, bodies) = fixture();
        let factory = GeneratorFactory::with_standard_backends();
        let mut cache = GenCache::new();
        let functional = factory.get(Backend::JavaFunctional).expect("registered");
        let report = factory.get(Backend::Report).expect("registered");
        let gen_input = input(&model, &program, &concerns, &bodies);
        cache.render(functional, &gen_input, hash(&model), STEPS);
        let (_, hit) = cache.render(report, &gen_input, hash(&model), STEPS);
        assert!(!hit, "different backend must be a different entry");
        let (_, hit) = cache.render(functional, &gen_input, hash(&model), STEPS + 1);
        assert!(!hit, "different applied steps must be a different entry");
    }

    #[test]
    fn different_body_providers_never_alias() {
        use comet_codegen::{Block, Expr, Stmt};
        let model = banking_pim();
        let concerns = vec!["distribution".to_owned()];
        let factory = GeneratorFactory::with_standard_backends();
        let generator = factory.get(Backend::JavaFunctional).expect("registered");
        let mut cache = GenCache::new();
        let bodies1 = BodyProvider::default();
        let program1 = FunctionalGenerator::new().generate(&model, &bodies1);
        let input1 = input(&model, &program1, &concerns, &bodies1);
        let (cold1, hit) = cache.render(generator, &input1, hash(&model), STEPS);
        assert!(!hit);
        let bodies2 = BodyProvider::new().provide(
            "Bank::transfer",
            Block::of(vec![Stmt::Expr(Expr::intrinsic("audit.log", vec![Expr::str("transfer")]))]),
        );
        let program2 = FunctionalGenerator::new().generate(&model, &bodies2);
        let input2 = input(&model, &program2, &concerns, &bodies2);
        let (cold2, hit) = cache.render(generator, &input2, hash(&model), STEPS);
        assert!(!hit, "same model and concerns with different bodies must be a different entry");
        assert_ne!(cold1, cold2, "the two providers render different artifacts");
        // Each provider re-hits its own entry, byte-identically.
        let (warm, hit) = cache.render(generator, &input1, hash(&model), STEPS);
        assert!(hit);
        assert_eq!(warm, cold1);
    }

    #[test]
    fn edits_invalidate_and_restores_re_hit() {
        let (mut model, program, concerns, bodies) = fixture();
        let factory = GeneratorFactory::with_standard_backends();
        let generator = factory.get(Backend::Report).expect("registered");
        let mut cache = GenCache::new();
        let hash_before = hash(&model);
        cache.render(generator, &input(&model, &program, &concerns, &bodies), hash_before, STEPS);
        // Edit: new class changes the content hash → miss.
        let root = model.root();
        let added = model.add_class(root, "Ledger").expect("fresh name");
        assert_ne!(hash(&model), hash_before);
        let gen_input = input(&model, &program, &concerns, &bodies);
        let (_, hit) = cache.render(generator, &gen_input, hash(&model), STEPS);
        assert!(!hit, "edited model must miss");
        // Undo the edit: content is back, so the original entry re-hits
        // even though the revision counter moved on.
        model.remove_element(added).expect("removable");
        assert_eq!(hash(&model), hash_before);
        let gen_input = input(&model, &program, &concerns, &bodies);
        let (_, hit) = cache.render(generator, &gen_input, hash(&model), STEPS);
        assert!(hit, "restored content must re-hit the original entry");
    }
}
