//! The Java-flavoured backends: the paper's proposal (functional
//! generator + woven aspects, rendered from the woven IR) and the
//! monolithic baseline it argues against. Both reuse `comet-codegen` —
//! the IR home — and differ only in which program they print.

use crate::GenInput;
use comet_codegen::{pretty_print, MonolithicGenerator};

/// `java-functional`: the woven system source — functional code with
/// the applied concerns' advice woven in. This is the artifact the
/// original single-target `comet-codegen` pipeline produced; it is now
/// one backend among peers.
pub(crate) fn render_functional(input: &GenInput<'_>) -> String {
    pretty_print(input.woven)
}

/// `java-monolithic`: the tangled baseline — concern behaviour inlined
/// into every affected class by [`MonolithicGenerator`], regenerated
/// from the most-specialized PSM. Experiment E5's control arm.
pub(crate) fn render_monolithic(input: &GenInput<'_>) -> String {
    let program = MonolithicGenerator::new().generate(input.model, input.bodies);
    pretty_print(&program)
}
