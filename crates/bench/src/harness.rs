//! The one timing and output harness every `bench_*_json` bin shares:
//! median (and quartile) wall-clock timing, the
//! `experiment`/`host_cores`/`revision` header, and a writer that
//! renders through [`JsonValue`].

pub use comet_obs::JsonValue;
use std::process::Command;
use std::time::Instant;

/// Median wall-clock seconds of `run` on `state` over `samples` timed
/// runs, after `warmup` untimed ones — `(warmup, samples)` is `reps`.
/// Each run is fed by an untimed `setup` on the same state.
pub fn median_secs_after<S, I>(
    reps: (usize, usize),
    state: &mut S,
    setup: impl FnMut(&mut S) -> I,
    run: impl FnMut(&mut S, I),
) -> f64 {
    quartile_secs_after(reps, state, setup, run)[1]
}

/// [`median_secs_after`] with the quartiles beside it: `[q1, median,
/// q3]` ([`quartiles`]).
pub fn quartile_secs_after<S, I>(
    reps: (usize, usize),
    state: &mut S,
    setup: impl FnMut(&mut S) -> I,
    run: impl FnMut(&mut S, I),
) -> [f64; 3] {
    quartiles(sample_secs_after(reps, state, setup, run))
}

/// [`median_secs`] with the quartiles beside it: `[q1, median, q3]`
/// ([`quartiles`]).
pub fn quartile_secs(reps: (usize, usize), mut run: impl FnMut()) -> [f64; 3] {
    quartile_secs_after(reps, &mut (), |_| (), |_, ()| run())
}

/// `[q1, median, q3]` of non-empty `samples`, each one of the samples
/// (of 5: the 2nd, 3rd and 4th smallest).
pub fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = samples.len();
    [samples[(n - 1) / 4], samples[n / 2], samples[3 * n / 4]]
}

/// The timed runs of [`median_secs_after`].
fn sample_secs_after<S, I>(
    (warmup, samples): (usize, usize),
    state: &mut S,
    mut setup: impl FnMut(&mut S) -> I,
    mut run: impl FnMut(&mut S, I),
) -> Vec<f64> {
    for _ in 0..warmup {
        let input = setup(state);
        run(state, input);
    }
    (0..samples)
        .map(|_| {
            let input = setup(state);
            let t0 = Instant::now();
            run(state, input);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// [`median_secs_after`] without a setup.
pub fn median_secs(reps: (usize, usize), mut run: impl FnMut()) -> f64 {
    median_secs_after(reps, &mut (), |_| (), |_, ()| run())
}

/// The host's available parallelism (1 when it cannot be read).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The measured code's revision: `git describe --always`, suffixed
/// `-dirty` when a tracked file other than a root `BENCH_*.json` has
/// uncommitted changes, or `unknown` outside a git checkout. The BENCH
/// files are what the bins write, so running them one after another
/// does not mark the later ones' revision dirty.
pub fn revision() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim_end().to_owned())
    };
    let Some(described) = git(&["describe", "--always"]) else {
        return "unknown".to_owned();
    };
    // Porcelain paths are relative to the repository root.
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    if status.is_none_or(|status| status.lines().any(changes_measured_code)) {
        format!("{described}-dirty")
    } else {
        described
    }
}

/// Whether one `git status --porcelain` line changes anything but a
/// BENCH file at the repository root.
fn changes_measured_code(line: &str) -> bool {
    // A rename lists both paths: `orig -> path`.
    line.get(3..).unwrap_or(line).split(" -> ").any(|path| {
        let path = path.trim_matches('"');
        let bench_file =
            !path.contains('/') && path.starts_with("BENCH_") && path.ends_with(".json");
        !bench_file
    })
}

/// A value a report member can hold. Floats keep four significant
/// digits, which is finer than any timing's run-to-run noise.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(self) -> JsonValue;
}

impl ToJson for JsonValue {
    fn to_json(self) -> JsonValue {
        self
    }
}

impl ToJson for f64 {
    fn to_json(self) -> JsonValue {
        JsonValue::Num(format!("{self:.3e}").parse().expect("a formatted float parses"))
    }
}

impl ToJson for usize {
    fn to_json(self) -> JsonValue {
        JsonValue::Num(self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(self) -> JsonValue {
        JsonValue::Num(self as f64)
    }
}

impl ToJson for bool {
    fn to_json(self) -> JsonValue {
        JsonValue::Bool(self)
    }
}

impl ToJson for &str {
    fn to_json(self) -> JsonValue {
        JsonValue::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(self) -> JsonValue {
        JsonValue::Str(self)
    }
}

/// `None` is `null`: a figure this host could not measure.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(self) -> JsonValue {
        self.map_or(JsonValue::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(self) -> JsonValue {
        JsonValue::Arr(self.into_iter().map(ToJson::to_json).collect())
    }
}

/// A JSON object from `"key": value` members, each value converted
/// through [`ToJson`]: `obj!{"shards": 4, "median_secs": secs}`.
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::harness::JsonValue::Obj(vec![
            $(($key.to_owned(), $crate::harness::ToJson::to_json($value))),*
        ])
    };
}

/// One `BENCH_*.json` file: the header, then the bin's members in
/// insertion order.
pub struct Report {
    members: Vec<(String, JsonValue)>,
}

impl Report {
    /// A report headed by `experiment`, the host's cores and the
    /// measured revision.
    pub fn new(experiment: &str) -> Report {
        Report { members: Vec::new() }
            .with("experiment", experiment)
            .with("host_cores", host_cores())
            .with("revision", revision())
    }

    /// Appends one member.
    pub fn with(mut self, key: &str, value: impl ToJson) -> Report {
        self.members.push((key.to_owned(), value.to_json()));
        self
    }

    /// Writes the report to the path given as the bin's first argument
    /// (`default_path` in the working directory without one), echoes it
    /// to stdout and returns the path written.
    pub fn write(self, default_path: &str) -> String {
        let path = std::env::args().nth(1).unwrap_or_else(|| default_path.to_owned());
        let json = JsonValue::Obj(self.members).to_pretty();
        std::fs::write(&path, &json).expect("writable output path");
        print!("{json}");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_taken_over_samples_with_setup_untimed() {
        let mut setups = 0;
        let mut runs = 0;
        let secs = median_secs_after(
            (2, 5),
            &mut setups,
            |setups| {
                *setups += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            },
            |_, ()| runs += 1,
        );
        assert_eq!((setups, runs), (7, 7));
        assert!(secs < 0.02, "setup time leaked into the sample: {secs}");
    }

    #[test]
    fn only_root_bench_files_leave_the_revision_clean() {
        for line in
            [" M BENCH_transform.json", "M  BENCH_persist.json", "R  BENCH_a.json -> BENCH_b.json"]
        {
            assert!(!changes_measured_code(line), "{line}");
        }
        for line in [
            " M crates/model/src/model.rs",
            " M crates/bench/BENCH_x.json",
            " M BENCH_notes.md",
            "R  BENCH_x.json -> notes.json",
            "R  notes.json -> BENCH_x.json",
            " D Cargo.lock",
        ] {
            assert!(changes_measured_code(line), "{line}");
        }
    }

    #[test]
    fn report_renders_header_then_members() {
        let doc = JsonValue::Obj(
            Report::new("e0")
                .with("ratio", 2.0 / 3.0)
                .with("rows", vec![obj! {"n": 3usize, "ok": true}])
                .members,
        );
        let text = doc.to_pretty();
        let parsed = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("experiment").and_then(JsonValue::as_str), Some("e0"));
        assert!(parsed.get("host_cores").and_then(JsonValue::as_u64).is_some_and(|n| n >= 1));
        assert!(parsed.get("revision").and_then(JsonValue::as_str).is_some());
        assert!(text.contains("\"ratio\": 0.6667"), "{text}");
        assert!(text.contains("{\"n\": 3, \"ok\": true}"), "{text}");
    }
}
