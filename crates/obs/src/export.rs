//! Exporters: Chrome trace-event JSON (plus its reader), the CI text
//! tree, and the wall-clock profile table.

use crate::collector::{Event, Span, Trace};
use crate::json::{escape, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Argument keys the exporter itself owns; everything else in `args` is
/// a user attribute. Instrumentation never emits `_`-prefixed keys.
const RESERVED: [&str; 6] = ["_id", "_parent", "_sim_start_us", "_sim_end_us", "_sim_us", "_span"];

impl Trace {
    /// Serializes the trace in the Chrome trace-event format (JSON
    /// Object Format), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Timestamps are the logical ticks (`ts`/`dur`), which makes spans
    /// nest strictly and — because ticks and sim time are pure functions
    /// of the recorded call sequence — makes the output **byte-identical
    /// across same-seed runs**. Wall-clock time is deliberately absent;
    /// see [`Trace::to_profile`] for it.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * (self.spans.len() + self.events.len()));
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"comet-obs\"},");
        out.push_str("\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"comet\"}}",
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"name\":\"{}\",\
                 \"cat\":\"{}\",\"args\":{{\"_id\":\"{}\",\"_parent\":\"{}\",\
                 \"_sim_start_us\":\"{}\",\"_sim_end_us\":\"{}\"",
                s.start_seq,
                s.end_seq - s.start_seq,
                escape(&s.name),
                escape(&s.cat),
                s.id,
                s.parent.map(|p| p.to_string()).unwrap_or_default(),
                s.start_us,
                s.end_us,
            );
            push_attrs(&mut out, &s.attrs);
            out.push_str("}}");
        }
        for e in &self.events {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\
                 \"cat\":\"{}\",\"args\":{{\"_span\":\"{}\",\"_sim_us\":\"{}\"",
                e.seq,
                escape(&e.name),
                escape(&e.cat),
                e.span.map(|p| p.to_string()).unwrap_or_default(),
                e.at_us,
            );
            push_attrs(&mut out, &e.attrs);
            out.push_str("}}");
        }
        let last_tick = self
            .spans
            .iter()
            .map(|s| s.end_seq)
            .chain(self.events.iter().map(|e| e.seq))
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":{last_tick},\"name\":\"{}\",\
                 \"args\":{{\"value\":{value}}}}}",
                escape(name),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Reads a trace back from [`Trace::to_chrome_json`] output. The
    /// reconstruction is exact (wall-clock durations, never serialized,
    /// come back as 0 — the deterministic projection is unchanged).
    ///
    /// # Errors
    /// Returns a message on malformed JSON, missing trace fields, span
    /// ids that are not `0..n`, or a `_parent` or `_span` that names no
    /// earlier span (ids are assigned in open order, so a parent's id is
    /// always smaller than its child's).
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        let doc = JsonValue::parse(text)?;
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .ok_or("missing `traceEvents` array")?;
        let mut trace = Trace::default();
        for entry in events {
            let ph = entry.get("ph").and_then(JsonValue::as_str).unwrap_or("");
            match ph {
                "X" => trace.spans.push(read_span(entry)?),
                "i" => trace.events.push(read_event(entry)?),
                "C" => {
                    let name = req_str(entry, "name")?.to_owned();
                    let value = entry
                        .get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(JsonValue::as_u64)
                        .ok_or("counter without numeric `value`")?;
                    trace.counters.insert(name, value);
                }
                _ => {} // metadata and future phases: ignored
            }
        }
        trace.spans.sort_by_key(|s| s.id);
        for (i, s) in trace.spans.iter().enumerate() {
            if s.id as usize != i {
                return Err(format!("span table has a hole at id {i}"));
            }
            if s.parent.is_some_and(|p| p >= s.id) {
                return Err(format!("span {i} names a parent that is not an earlier span"));
            }
        }
        let spans = trace.spans.len();
        if let Some(e) = trace.events.iter().find(|e| e.span.is_some_and(|s| s as usize >= spans)) {
            return Err(format!("event at tick {} names a span the trace lacks", e.seq));
        }
        trace.events.sort_by_key(|e| e.seq);
        Ok(trace)
    }

    /// The compact deterministic text tree used by the CI golden test:
    /// span/event structure, categories, names and attributes — no
    /// ticks, no sim time, no wall-clock — so it only changes when the
    /// *shape* of the pipeline changes.
    pub fn to_text_tree(&self) -> String {
        let mut out = String::from("trace\n");
        for root in self.roots() {
            self.tree_span(&mut out, root, 1);
        }
        for e in self.events.iter().filter(|e| e.span.is_none()) {
            tree_line(&mut out, 1, '-', &e.cat, &e.name, &e.attrs);
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        out
    }

    fn tree_span(&self, out: &mut String, span: &Span, depth: usize) {
        tree_line(out, depth, '*', &span.cat, &span.name, &span.attrs);
        // Children and events interleaved in tick order.
        enum Item<'a> {
            S(&'a Span),
            E(&'a Event),
        }
        let mut items: Vec<(u64, Item<'_>)> = self
            .children(span.id)
            .into_iter()
            .map(|s| (s.start_seq, Item::S(s)))
            .chain(self.events_of(span.id).into_iter().map(|e| (e.seq, Item::E(e))))
            .collect();
        items.sort_by_key(|(seq, _)| *seq);
        for (_, item) in items {
            match item {
                Item::S(s) => self.tree_span(out, s, depth + 1),
                Item::E(e) => tree_line(out, depth + 1, '-', &e.cat, &e.name, &e.attrs),
            }
        }
    }

    /// A flat per-span-name profile: invocation count, total/self
    /// logical ticks, and total/self **wall-clock** time. This is the
    /// one human-facing exporter that reads wall time, so it is not
    /// byte-stable across runs — CI compares the text tree instead.
    pub fn to_profile(&self) -> String {
        #[derive(Default, Clone)]
        struct Row {
            count: u64,
            total_ticks: u64,
            self_ticks: u64,
            total_wall: u64,
            self_wall: u64,
        }
        let mut rows: BTreeMap<(String, String), Row> = BTreeMap::new();
        // Per-span self time = own minus sum of direct children.
        let mut child_ticks = vec![0u64; self.spans.len()];
        let mut child_wall = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ticks[p as usize] += s.end_seq - s.start_seq;
                child_wall[p as usize] += s.wall_ns;
            }
        }
        for s in &self.spans {
            let row = rows.entry((s.cat.clone(), s.name.clone())).or_default();
            let ticks = s.end_seq - s.start_seq;
            row.count += 1;
            row.total_ticks += ticks;
            row.self_ticks += ticks.saturating_sub(child_ticks[s.id as usize]);
            row.total_wall += s.wall_ns;
            row.self_wall += s.wall_ns.saturating_sub(child_wall[s.id as usize]);
        }
        let mut sorted: Vec<(&(String, String), &Row)> = rows.iter().collect();
        sorted.sort_by(|a, b| b.1.self_wall.cmp(&a.1.self_wall).then_with(|| a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<40} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "cat", "span", "count", "self-ticks", "total-ticks", "self-us", "total-us"
        );
        for ((cat, name), row) in sorted {
            let _ = writeln!(
                out,
                "{:<10} {:<40} {:>6} {:>12} {:>12} {:>12.1} {:>12.1}",
                cat,
                name,
                row.count,
                row.self_ticks,
                row.total_ticks,
                row.self_wall as f64 / 1_000.0,
                row.total_wall as f64 / 1_000.0,
            );
        }
        out
    }
}

fn push_attrs(out: &mut String, attrs: &[(String, String)]) {
    for (k, v) in attrs {
        let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(v));
    }
}

fn tree_line(
    out: &mut String,
    depth: usize,
    bullet: char,
    cat: &str,
    name: &str,
    attrs: &[(String, String)],
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(out, "{bullet} [{cat}] {name}");
    if !attrs.is_empty() {
        out.push_str(" {");
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push('}');
    }
    out.push('\n');
}

fn req_str<'a>(entry: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    entry.get(key).and_then(JsonValue::as_str).ok_or_else(|| format!("missing `{key}`"))
}

fn arg_str<'a>(entry: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    entry
        .get("args")
        .and_then(|a| a.get(key))
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing args.`{key}`"))
}

fn arg_u64(entry: &JsonValue, key: &str) -> Result<u64, String> {
    arg_str(entry, key)?.parse().map_err(|_| format!("args.`{key}` is not a number"))
}

fn arg_opt_u32(entry: &JsonValue, key: &str) -> Result<Option<u32>, String> {
    let s = arg_str(entry, key)?;
    if s.is_empty() {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| format!("args.`{key}` is not an id"))
    }
}

fn user_attrs(entry: &JsonValue) -> Vec<(String, String)> {
    match entry.get("args") {
        Some(JsonValue::Obj(members)) => members
            .iter()
            .filter(|(k, _)| !RESERVED.contains(&k.as_str()))
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
            .collect(),
        _ => Vec::new(),
    }
}

fn read_span(entry: &JsonValue) -> Result<Span, String> {
    let ts = entry.get("ts").and_then(JsonValue::as_u64).ok_or("span without `ts`")?;
    let dur = entry.get("dur").and_then(JsonValue::as_u64).ok_or("span without `dur`")?;
    Ok(Span {
        id: arg_opt_u32(entry, "_id")?.ok_or("span without `_id`")?,
        parent: arg_opt_u32(entry, "_parent")?,
        cat: req_str(entry, "cat")?.to_owned(),
        name: req_str(entry, "name")?.to_owned(),
        start_seq: ts,
        end_seq: ts.checked_add(dur).ok_or("span `ts` + `dur` overflows")?,
        start_us: arg_u64(entry, "_sim_start_us")?,
        end_us: arg_u64(entry, "_sim_end_us")?,
        wall_ns: 0,
        attrs: user_attrs(entry),
    })
}

fn read_event(entry: &JsonValue) -> Result<Event, String> {
    Ok(Event {
        seq: entry.get("ts").and_then(JsonValue::as_u64).ok_or("event without `ts`")?,
        at_us: arg_u64(entry, "_sim_us")?,
        span: arg_opt_u32(entry, "_span")?,
        cat: req_str(entry, "cat")?.to_owned(),
        name: req_str(entry, "name")?.to_owned(),
        attrs: user_attrs(entry),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    fn sample_trace() -> Trace {
        let obs = Collector::enabled();
        let run = obs.begin_span("lifecycle", "concern:distribution", 0);
        obs.span_attr(run, "si", "<node=server, \"quoted\">");
        let t = obs.begin_span("transform", "apply:distribution<...>", 0);
        obs.event(
            "transform",
            "model.created",
            0,
            vec![("element".into(), "Proxy".into()), ("concern".into(), "distribution".into())],
        );
        obs.end_span(t, 0);
        obs.end_span(run, 7);
        obs.event("fault", "fault.injected", 120, vec![("op".into(), "tx.commit".into())]);
        obs.incr("intrinsic.tx", 12);
        obs.take()
    }

    #[test]
    fn chrome_json_round_trips_exactly() {
        let trace = sample_trace();
        let json = trace.to_chrome_json();
        let back = Trace::from_chrome_json(&json).unwrap();
        assert_eq!(back, trace, "deterministic projection survives the round trip");
        assert_eq!(back.to_chrome_json(), json, "re-export is byte-identical");
    }

    #[test]
    fn deeply_nested_input_is_a_typed_error() {
        let arrays = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let objects = format!("{}1{}", "{\"traceEvents\":".repeat(100_000), "}".repeat(100_000));
        for text in [arrays, objects] {
            assert!(Trace::from_chrome_json(&text).is_err());
        }
        // Span nesting is not JSON nesting: a trace far deeper than the
        // parser's bound still round-trips.
        let obs = Collector::enabled();
        let spans: Vec<_> =
            (0..1_000).map(|i| obs.begin_span("deep", &format!("s{i}"), 0)).collect();
        for span in spans.into_iter().rev() {
            obs.end_span(span, 0);
        }
        let trace = obs.take();
        assert_eq!(Trace::from_chrome_json(&trace.to_chrome_json()).unwrap(), trace);
    }

    #[test]
    fn chrome_json_is_wall_clock_free() {
        let json = sample_trace().to_chrome_json();
        assert!(!json.contains("wall"), "wall time must not leak into the deterministic export");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn text_tree_shows_structure_only() {
        let tree = sample_trace().to_text_tree();
        assert!(tree.contains("* [lifecycle] concern:distribution"), "{tree}");
        assert!(tree.contains("  * [transform] apply:distribution"), "{tree}");
        assert!(tree.contains("- [transform] model.created"), "{tree}");
        assert!(tree.contains("intrinsic.tx = 12"), "{tree}");
        assert!(!tree.contains("120"), "no timestamps in the tree:\n{tree}");
    }

    #[test]
    fn profile_aggregates_by_span_name() {
        let obs = Collector::enabled();
        for _ in 0..3 {
            let s = obs.begin_span("runtime", "call:Bank.transfer", 0);
            obs.end_span(s, 0);
        }
        let profile = obs.take().to_profile();
        assert!(profile.contains("call:Bank.transfer"), "{profile}");
        assert!(profile.lines().any(|l| l.contains("call:Bank.transfer") && l.contains(" 3 ")));
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(Trace::from_chrome_json("{}").is_err());
        assert!(Trace::from_chrome_json("not json").is_err());
        // A span with a hole in the id space.
        let bad = r#"{"traceEvents":[{"ph":"X","ts":0,"dur":1,"name":"s","cat":"c",
            "args":{"_id":"5","_parent":"","_sim_start_us":"0","_sim_end_us":"0"}}]}"#;
        assert!(Trace::from_chrome_json(bad).is_err());
    }

    /// A span line with the given id, parent and ticks.
    fn span_line(id: u32, parent: &str, ts: u64, dur: u64) -> String {
        format!(
            r#"{{"ph":"X","ts":{ts},"dur":{dur},"name":"s{id}","cat":"c","args":{{"_id":"{id}",
            "_parent":"{parent}","_sim_start_us":"0","_sim_end_us":"0"}}}}"#
        )
    }

    fn trace_of(lines: &[String]) -> Result<Trace, String> {
        Trace::from_chrome_json(&format!(r#"{{"traceEvents":[{}]}}"#, lines.join(",")))
    }

    #[test]
    fn reader_rejects_references_to_missing_or_later_spans() {
        let event = |span: &str| {
            format!(
                r#"{{"ph":"i","ts":1,"s":"t","name":"model.created","cat":"transform",
                "args":{{"_span":"{span}","_sim_us":"0","element":"Bank"}}}}"#
            )
        };
        let root = span_line(0, "", 0, 3);
        assert!(trace_of(&[root.clone(), span_line(1, "0", 1, 1), event("1")]).is_ok());
        // An event naming a span the table lacks used to index out of
        // bounds in `ProvenanceIndex::build`.
        let err = trace_of(&[root.clone(), event("999")]).unwrap_err();
        assert!(err.contains("names a span the trace lacks"), "{err}");
        // Two spans naming each other as parent used to send the
        // provenance attribute lookup round the cycle forever.
        let cycle = [span_line(0, "1", 0, 3), span_line(1, "0", 1, 1), event("1")];
        let err = trace_of(&cycle).unwrap_err();
        assert!(err.contains("span 0 names a parent that is not an earlier span"), "{err}");
        assert!(trace_of(&[span_line(0, "0", 0, 1)]).is_err(), "a span is not its own parent");
        assert!(trace_of(&[span_line(0, "", u64::MAX, 1)]).is_err(), "`ts + dur` overflows");
        let wide = span_line(0, "", 0, 1).replace(r#""_id":"0""#, r#""_id":"4294967296""#);
        assert!(trace_of(&[wide]).is_err(), "an id past u32 is not read as span 0");
    }
}
