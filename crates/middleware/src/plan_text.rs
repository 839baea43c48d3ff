//! The line reader shared by the two hand-rolled TOML-subset plan
//! formats: [`FaultPlan::parse_toml`](crate::FaultPlan::parse_toml) here
//! and `WorkloadPlan::parse_toml` in `comet-serve`. It understands
//! `key = value` lines, `[section]` headers, blank lines and `#`
//! comments, and rejects duplicate keys, repeated section headers and
//! trailing garbage after a header — a plan that pins a run must have
//! exactly one meaning. Each parser keeps its own section handling and
//! error type; the rules and messages below are the ones they share.

use std::collections::BTreeSet;

/// One meaningful line of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLine<'a> {
    /// A `[name]` section header, seen for the first time.
    Section(&'a str),
    /// A `key = value` line.
    Entry {
        /// The enclosing section; empty before the first header.
        section: &'a str,
        /// The key, with surrounding quotes trimmed.
        key: &'a str,
        /// The value, with surrounding quotes trimmed.
        value: &'a str,
        /// The whole line, comment stripped and trimmed.
        line: &'a str,
    },
}

/// A line the shared reader rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanLineError {
    /// Neither `key = value` nor an exact `[name]` header.
    BadLine(String),
    /// A key repeated within its section, or a repeated `[section]`
    /// header; the payload is the key (or `[section]`) as written.
    Duplicate(String),
}

/// Reads `text` lazily, one meaningful line at a time, so a parser that
/// stops at its first error reports the first bad line of the document.
pub fn plan_lines(text: &str) -> impl Iterator<Item = Result<PlanLine<'_>, PlanLineError>> {
    let mut section = "";
    let mut seen_sections = BTreeSet::new();
    let mut seen_keys = BTreeSet::new();
    text.lines().filter_map(move |raw| {
        let line = raw.find('#').map_or(raw, |i| &raw[..i]).trim();
        if line.is_empty() {
            return None;
        }
        Some(if line.starts_with('[') {
            // A header must be exactly `[name]` — anything trailing
            // the `]` (or a missing one) is garbage, not a key line.
            let name = line
                .strip_prefix('[')
                .and_then(|l| l.strip_suffix(']'))
                .map(str::trim)
                .filter(|n| !n.is_empty() && !n.contains('[') && !n.contains(']'));
            match name {
                None => Err(PlanLineError::BadLine(line.to_owned())),
                Some(name) if !seen_sections.insert(name) => {
                    Err(PlanLineError::Duplicate(format!("[{name}]")))
                }
                Some(name) => {
                    section = name;
                    Ok(PlanLine::Section(name))
                }
            }
        } else {
            // Keys may be quoted (standard TOML requires it for dotted
            // names like `"tx.commit"`) or bare.
            let entry = line
                .split_once('=')
                .map(|(k, v)| (k.trim().trim_matches('"'), v.trim().trim_matches('"')));
            match entry {
                None => Err(PlanLineError::BadLine(line.to_owned())),
                Some((key, _)) if !seen_keys.insert((section, key)) => {
                    Err(PlanLineError::Duplicate(key.to_owned()))
                }
                Some((key, value)) => Ok(PlanLine::Entry { section, key, value, line }),
            }
        })
    })
}
