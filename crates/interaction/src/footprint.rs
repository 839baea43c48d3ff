//! Static footprint extraction for one `(ConcernPair, Si)` binding.
//!
//! A [`Footprint`] is everything a specialized concern *touches*: the
//! stereotypes and tagged values its CMT⟨Si⟩ writes into the model, the
//! elements it creates, and the join points its concrete aspect advises
//! in the program generated from the refined model. Footprints are
//! extracted by probing — the CMT is applied to a throwaway clone of the
//! probe model and the result is diffed element by element — so they
//! are exact for the probe, not an approximation of the pointcut
//! language.

use crate::InteractionError;
use comet_codegen::{BodyProvider, FunctionalGenerator};
use comet_model::Model;
use comet_transform::ParamSet;
use std::collections::{BTreeMap, BTreeSet};

/// Per-element stereotype set and rendered tag map, keyed for diffing.
type ElementMarks = (BTreeSet<String>, BTreeMap<String, String>);

/// What one specialized concern writes and advises on the probe model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// The concern name of the binding this footprint describes.
    pub concern: String,
    /// `(element, stereotype)` pairs the CMT writes; elements are
    /// identified by qualified name.
    pub stereotype_writes: BTreeSet<(String, String)>,
    /// `(element, tag key) -> rendered value` entries the CMT writes.
    pub tag_writes: BTreeMap<(String, String), String>,
    /// Qualified names of elements the CMT creates.
    pub created: BTreeSet<String>,
    /// `(class, method)` join points the concrete aspect advises in the
    /// program generated from the refined probe model.
    pub join_points: BTreeSet<(String, String)>,
}

/// Snapshot of every element's marks, keyed by qualified name.
fn snapshot(model: &Model) -> BTreeMap<String, ElementMarks> {
    let mut map = BTreeMap::new();
    for element in model.iter() {
        let name = model.qualified_name(element.id()).unwrap_or_else(|_| element.name().to_owned());
        let core = element.core();
        let stereotypes: BTreeSet<String> = core.stereotypes.iter().cloned().collect();
        let tags: BTreeMap<String, String> =
            core.tags.iter().map(|(k, v)| (k.clone(), v.to_string())).collect();
        map.insert(name, (stereotypes, tags));
    }
    map
}

/// Extracts the [`Footprint`] of one binding by probing: clones the
/// probe model, applies the CMT, diffs the marks, and matches the
/// concrete aspect's pointcuts against the program generated from the
/// refined model.
///
/// # Errors
/// Fails when `si` does not specialize the pair or the CMT cannot be
/// applied to the probe model on its own (a binding that cannot even
/// apply alone has no meaningful footprint).
pub fn extract_footprint(
    probe: &Model,
    bodies: &BodyProvider,
    pair: &comet_aspectgen::ConcernPair,
    si: &ParamSet,
) -> Result<Footprint, InteractionError> {
    let concern = pair.concern().to_owned();
    let (cmt, aspect) = pair.specialize(si.clone()).map_err(|e| InteractionError::Specialize {
        concern: concern.clone(),
        detail: e.to_string(),
    })?;
    let before = snapshot(probe);
    let mut refined = probe.clone();
    cmt.apply(&mut refined)
        .map_err(|e| InteractionError::Probe { concern: concern.clone(), detail: e.to_string() })?;
    let after = snapshot(&refined);

    let mut stereotype_writes = BTreeSet::new();
    let mut tag_writes = BTreeMap::new();
    let mut created = BTreeSet::new();
    for (element, (stereotypes, tags)) in &after {
        let (old_stereotypes, old_tags) = match before.get(element) {
            Some(marks) => marks.clone(),
            None => {
                created.insert(element.clone());
                ElementMarks::default()
            }
        };
        for s in stereotypes.difference(&old_stereotypes) {
            stereotype_writes.insert((element.clone(), s.clone()));
        }
        for (key, value) in tags {
            if old_tags.get(key) != Some(value) {
                tag_writes.insert((element.clone(), key.clone()), value.clone());
            }
        }
    }

    // Join points are enumerated against the program generated from the
    // *refined* model — the aspect's own structural additions (proxies,
    // reload operations, ...) are legitimate shadows.
    let program = FunctionalGenerator::new().generate(&refined, bodies);
    let mut join_points = BTreeSet::new();
    for class in &program.classes {
        for method in &class.methods {
            if aspect.advices.iter().any(|a| a.pointcut.matches_execution(class, method)) {
                join_points.insert((class.name.clone(), method.name.clone()));
            }
        }
    }

    Ok(Footprint { concern, stereotype_writes, tag_writes, created, join_points })
}
