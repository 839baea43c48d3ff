//! Pins the exact bytes of `export_model`: the content hash, the
//! journal, dedupe and the generate-cache keys all key on them, so a
//! writer change that moves one byte must show here first.
//!
//! Each line of `golden/export_digests.txt` is a model's name and the
//! FNV-1a digest and length of its cold export. `UPDATE_GOLDEN=1
//! cargo test -p comet-xmi --test export_digests` rewrites the file.

use comet_model::sample::{auction_pim, banking_pim, synthetic};
use comet_model::{Model, TagValue};
use comet_xmi::export_model;

/// Applies a few stereotypes and tags of every value type, with
/// characters the writer must escape, to the first classes and their
/// first operations.
fn decorate(mut m: Model) -> Model {
    for (n, class) in m.classes().into_iter().take(2).enumerate() {
        m.apply_stereotype(class, "Remote").unwrap();
        m.set_tag(class, "comet.dist.node", format!("server-{n} <&> \"q\" 'a'")).unwrap();
        m.set_tag(class, "count", 42i64 - n as i64).unwrap();
        m.set_tag(class, "flag", n == 0).unwrap();
        m.set_tag(
            class,
            "list",
            TagValue::List(vec![
                TagValue::Real(0.5),
                TagValue::List(vec![]),
                TagValue::Str("x".into()),
            ]),
        )
        .unwrap();
        m.mark_concern(class, "distribution").unwrap();
        if let Some(&op) = m.operations_of(class).first() {
            m.apply_stereotype(op, "Logged").unwrap();
            m.set_tag(op, "comet.log.level", "debug").unwrap();
        }
    }
    m
}

fn digests() -> String {
    let mut out = String::new();
    for (name, model) in [
        ("banking_pim", decorate(banking_pim())),
        ("auction_pim", decorate(auction_pim())),
        ("synthetic(50,3,6)", decorate(synthetic(50, 3, 6))),
    ] {
        let xmi = export_model(&model.clone());
        out.push_str(&format!("{name} {:016x} {}\n", proptest::fnv(&xmi), xmi.len()));
    }
    out
}

#[test]
fn cold_export_bytes_match_the_pinned_digests() {
    let got = digests();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/export_digests.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, golden,
        "export bytes drifted from the pinned digests; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p comet-xmi --test export_digests"
    );
}
