//! The `report` backend: instead of source code it renders a
//! deterministic model + concern summary — element counts, the element
//! inventory, per-concern advised join points, and the tangling ratio —
//! as human-readable text followed by a machine-readable JSON document
//! produced through the shared `comet_obs::JsonValue` writer. Useful as
//! a cheap "what would generation see?" probe and as the third,
//! structurally different target proving generation generic.

use crate::GenInput;
use comet_aop::concern_metrics;
use comet_obs::JsonValue;
use std::fmt::Write as _;

/// Concern prefixes the woven program's intrinsics are attributed to —
/// the same set `comet-cli metrics` measures.
const CONCERN_PREFIXES: [&str; 5] = ["net", "tx", "sec", "log", "lock"];

/// `report`: deterministic model + concern summary (text + JSON).
pub(crate) fn render(input: &GenInput<'_>) -> String {
    let model = input.model;
    let classes = model.classes();
    let mut attributes = 0usize;
    let mut operations = 0usize;
    for &class_id in &classes {
        attributes += model.attributes_of(class_id).len();
        operations += model.operations_of(class_id).len();
    }
    let metrics = concern_metrics(input.woven, &CONCERN_PREFIXES);

    let mut out = String::new();
    let _ = writeln!(out, "comet-gen report — model `{}`", model.name());
    let _ = writeln!(
        out,
        "elements: {} total (classes={} associations={} packages={} attributes={} \
         operations={})",
        model.len(),
        classes.len(),
        model.associations().len(),
        model.packages().len(),
        attributes,
        operations
    );
    if input.concerns.is_empty() {
        let _ = writeln!(out, "concerns applied: none");
    } else {
        let _ = writeln!(out, "concerns applied (precedence order): {}", input.concerns.join(", "));
    }
    let _ = writeln!(out, "inventory:");
    for &class_id in &classes {
        let class = match model.element(class_id) {
            Ok(element) => element,
            Err(_) => continue,
        };
        let methods: Vec<String> = model
            .operations_of(class_id)
            .into_iter()
            .filter_map(|op| model.element(op).ok().map(|o| o.name().to_owned()))
            .collect();
        let _ = writeln!(out, "  class {}: {}", class.name(), methods.join(", "));
    }
    let _ = writeln!(
        out,
        "woven program: {} classes, {} methods, {} statements",
        input.woven.classes.len(),
        metrics.total_methods,
        metrics.total_statements
    );
    let _ = writeln!(out, "advised join points per concern:");
    for (prefix, m) in &metrics.concerns {
        let _ = writeln!(
            out,
            "  {prefix}: classes={} methods={} stmts={}",
            m.scattered_classes, m.scattered_methods, m.statements
        );
    }
    let _ = writeln!(out, "tangling ratio: {:.6}", metrics.tangling_ratio());

    let advised = metrics
        .concerns
        .iter()
        .map(|(prefix, m)| {
            (
                prefix.clone(),
                JsonValue::Obj(vec![
                    ("scattered_classes".into(), JsonValue::Num(m.scattered_classes as f64)),
                    ("advised_methods".into(), JsonValue::Num(m.scattered_methods as f64)),
                    ("statements".into(), JsonValue::Num(m.statements as f64)),
                ]),
            )
        })
        .collect();
    let json = JsonValue::Obj(vec![
        ("model".into(), JsonValue::Str(model.name().to_owned())),
        (
            "elements".into(),
            JsonValue::Obj(vec![
                ("total".into(), JsonValue::Num(model.len() as f64)),
                ("classes".into(), JsonValue::Num(classes.len() as f64)),
                ("associations".into(), JsonValue::Num(model.associations().len() as f64)),
                ("packages".into(), JsonValue::Num(model.packages().len() as f64)),
                ("attributes".into(), JsonValue::Num(attributes as f64)),
                ("operations".into(), JsonValue::Num(operations as f64)),
            ]),
        ),
        (
            "concerns".into(),
            JsonValue::Arr(input.concerns.iter().map(|c| JsonValue::Str(c.clone())).collect()),
        ),
        ("advised".into(), JsonValue::Obj(advised)),
        ("tangling_ratio".into(), JsonValue::Fixed(metrics.tangling_ratio(), 6)),
    ]);
    let _ = writeln!(out, "--- json ---");
    out.push_str(&json.to_pretty());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_codegen::{BodyProvider, FunctionalGenerator};
    use comet_model::sample::banking_pim;

    #[test]
    fn report_is_deterministic_and_parseable() {
        let model = banking_pim();
        let bodies = BodyProvider::default();
        let program = FunctionalGenerator::new().generate(&model, &bodies);
        let concerns = vec!["distribution".to_owned(), "transactions".to_owned()];
        let input =
            GenInput { model: &model, woven: &program, concerns: &concerns, bodies: &bodies };
        let first = render(&input);
        assert_eq!(first, render(&input));
        assert!(first.contains("concerns applied (precedence order): distribution, transactions"));
        assert!(first.contains("inventory:"));
        let json_part = first.split("--- json ---\n").nth(1).expect("json section");
        let doc = JsonValue::parse(json_part).expect("well-formed JSON");
        assert_eq!(doc.get("model").and_then(|v| v.as_str()), Some(model.name()));
        assert_eq!(
            doc.get("elements").and_then(|e| e.get("classes")).and_then(|v| v.as_u64()),
            Some(model.classes().len() as u64)
        );
        assert!(json_part.contains("\"tangling_ratio\": 0."), "{json_part}");
    }
}
