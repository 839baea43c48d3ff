//! The content-addressed generation cache. Artifacts are keyed by
//! *what was generated from what*: the FNV-1a hash of the model's
//! canonical XMI export, a fingerprint of the supplied method bodies
//! (the remaining caller-controlled input a render depends on), the
//! backend id, and the applied-concern list in precedence order.
//! Content addressing makes the cache immune to lying revision
//! counters — two models with identical content share entries, and an
//! `undo` that restores an earlier snapshot re-hits the artifact
//! rendered before the edit.
//!
//! Hashing the XMI export is O(model), so the hash is memoized against
//! [`Model::revision`] — the same generation counter the incremental
//! weaver keys its cache on. The memo (never the artifact map) must be
//! dropped whenever the model *instance* is replaced, because revision
//! counters are per instance; see [`GenCache::forget_revision`].

use crate::{GenInput, Generator};
use comet_codegen::BodyProvider;
use comet_model::Model;
use comet_obs::fnv1a64;
use comet_xmi::export_model;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Cache key: (content hash, bodies fingerprint, backend id, applied
/// concerns in order).
type CacheKey = (u64, u64, String, Vec<String>);

/// FNV-1a over a canonical serialization of the provider's
/// `(qualified name, body)` pairs. The rendered artifact depends on the
/// bodies just as much as on the model, so two providers with different
/// bodies must never alias one cache entry.
fn bodies_fingerprint(bodies: &BodyProvider) -> u64 {
    let mut repr = String::new();
    for (name, body) in bodies.entries() {
        write!(repr, "{name}\0{body:?}\0").expect("writing to a String cannot fail");
    }
    fnv1a64(repr.as_bytes())
}

/// Content-addressed artifact cache with a revision-memoized content
/// hash, so a `Generate` against an unchanged model costs one map
/// lookup instead of a render.
#[derive(Debug, Default)]
pub struct GenCache {
    entries: BTreeMap<CacheKey, String>,
    /// `(revision, content hash)` of the most recently hashed model
    /// state — valid only while the same model instance stays at the
    /// same revision.
    memo: Option<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl GenCache {
    /// An empty cache.
    pub fn new() -> Self {
        GenCache::default()
    }

    /// The model's content hash: FNV-1a over the canonical XMI export,
    /// memoized by [`Model::revision`]. Two calls against an unchanged
    /// instance pay one export; an edited model re-exports once.
    pub fn content_hash(&mut self, model: &Model) -> u64 {
        let revision = model.revision();
        if let Some((memo_revision, hash)) = self.memo {
            if memo_revision == revision {
                return hash;
            }
        }
        let hash = fnv1a64(export_model(model).as_bytes());
        self.memo = Some((revision, hash));
        hash
    }

    /// Renders `input` through `generator`, consulting the cache first.
    /// Returns the artifact and whether it was a cache hit. A hit is
    /// byte-identical to the cold render that populated the entry.
    pub fn render(&mut self, generator: &dyn Generator, input: &GenInput<'_>) -> (String, bool) {
        let hash = self.content_hash(input.model);
        let key = (
            hash,
            bodies_fingerprint(input.bodies),
            generator.id().to_owned(),
            input.concerns.to_vec(),
        );
        if let Some(artifact) = self.entries.get(&key) {
            self.hits += 1;
            return (artifact.clone(), true);
        }
        let artifact = generator.generate(input);
        self.entries.insert(key, artifact.clone());
        self.misses += 1;
        (artifact, false)
    }

    /// Drops the revision memo (not the artifact entries). Call this
    /// whenever the model *instance* behind the cache may have been
    /// replaced — snapshot restore, journal rollback, recovery — since
    /// a fresh instance restarts its revision counter and could
    /// otherwise alias a stale hash. Entries stay: they are addressed
    /// by content, so a restored state re-hits its old artifacts.
    pub fn forget_revision(&mut self) {
        self.memo = None;
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
            let (cold, hit0) = cache.render(generator, &gen_input);
            assert!(!hit0, "first render must miss");
            let (warm, hit1) = cache.render(generator, &gen_input);
            assert!(hit1, "second render must hit");
            assert_eq!(cold, warm);
        }
        assert_eq!(cache.stats(), (Backend::ALL.len() as u64, Backend::ALL.len() as u64));
        assert_eq!(cache.len(), Backend::ALL.len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn keys_separate_backends_and_concern_lists() {
        let (model, program, concerns, bodies) = fixture();
        let factory = GeneratorFactory::with_standard_backends();
        let mut cache = GenCache::new();
        let functional = factory.get(Backend::JavaFunctional).expect("registered");
        let report = factory.get(Backend::Report).expect("registered");
        let gen_input = input(&model, &program, &concerns, &bodies);
        cache.render(functional, &gen_input);
        let (_, hit) = cache.render(report, &gen_input);
        assert!(!hit, "different backend must be a different entry");
        let reordered = vec!["transactions".to_owned()];
        let other = input(&model, &program, &reordered, &bodies);
        let (_, hit) = cache.render(functional, &other);
        assert!(!hit, "different concern list must be a different entry");
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
        let (cold1, hit) = cache.render(generator, &input(&model, &program1, &concerns, &bodies1));
        assert!(!hit);
        let bodies2 = BodyProvider::new().provide(
            "Bank::transfer",
            Block::of(vec![Stmt::Expr(Expr::intrinsic("audit.log", vec![Expr::str("transfer")]))]),
        );
        let program2 = FunctionalGenerator::new().generate(&model, &bodies2);
        let (cold2, hit) = cache.render(generator, &input(&model, &program2, &concerns, &bodies2));
        assert!(!hit, "same model and concerns with different bodies must be a different entry");
        assert_ne!(cold1, cold2, "the two providers render different artifacts");
        // Each provider re-hits its own entry, byte-identically.
        let (warm, hit) = cache.render(generator, &input(&model, &program1, &concerns, &bodies1));
        assert!(hit);
        assert_eq!(warm, cold1);
    }

    #[test]
    fn edits_invalidate_and_restores_re_hit() {
        let (mut model, program, concerns, bodies) = fixture();
        let factory = GeneratorFactory::with_standard_backends();
        let generator = factory.get(Backend::Report).expect("registered");
        let mut cache = GenCache::new();
        let hash_before = cache.content_hash(&model);
        {
            let gen_input = input(&model, &program, &concerns, &bodies);
            cache.render(generator, &gen_input);
        }
        // Edit: new class changes the content hash → miss.
        let root = model.root();
        let added = model.add_class(root, "Ledger").expect("fresh name");
        assert_ne!(cache.content_hash(&model), hash_before);
        {
            let gen_input = input(&model, &program, &concerns, &bodies);
            let (_, hit) = cache.render(generator, &gen_input);
            assert!(!hit, "edited model must miss");
        }
        // Undo the edit: content is back, so the original entry re-hits
        // even though the revision counter moved on.
        model.remove_element(added).expect("removable");
        assert_eq!(cache.content_hash(&model), hash_before);
        let gen_input = input(&model, &program, &concerns, &bodies);
        let (_, hit) = cache.render(generator, &gen_input);
        assert!(hit, "restored content must re-hit the original entry");
    }

    #[test]
    fn forget_revision_guards_against_instance_swaps() {
        let (model, program, concerns, bodies) = fixture();
        let mut cache = GenCache::new();
        let hash = cache.content_hash(&model);
        // A *different* instance with different content could reuse the
        // same revision number; forgetting the memo forces a re-hash.
        cache.forget_revision();
        let mut other = banking_pim();
        let root = other.root();
        other.add_class(root, "Imposter").expect("fresh name");
        assert_ne!(cache.content_hash(&other), hash);
        let _ = (program, concerns, bodies);
    }
}
