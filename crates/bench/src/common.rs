//! Shared harness plumbing: scales, configs, and run helpers used by every
//! experiment binary.

use oreo_core::OreoConfig;
use oreo_sim::{run_policy, PolicySetup, ReorgPolicy, RunResult, Technique};
use oreo_workload::{DatasetBundle, QueryStream, StreamConfig};
use std::fmt::Write as _;

/// Experiment scale, toggled by `--quick` on every binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced pass for smoke runs and CI: 8 000 queries, 10 segments.
    Quick,
    /// The paper's setup: 30 000 queries, 20 segments.
    Full,
}

impl Scale {
    /// Parse from CLI args (`--quick` selects [`Scale::Quick`]; default is
    /// the paper-scale run). Binaries reject misspelled flags first
    /// ([`check_args`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Stream length for this scale.
    pub fn total_queries(self) -> usize {
        match self {
            Scale::Quick => 8_000,
            Scale::Full => 30_000,
        }
    }

    /// Number of workload-drift segments in the stream.
    pub fn segments(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 20,
        }
    }

    /// Dataset rows (our laptop-scale substitute for SF100/SF10).
    pub fn rows(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 30_000,
        }
    }

    /// Human-readable name for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full (paper-scale)",
        }
    }
}

/// The defaults every harness starts from (§VI-A3: α=80, ε=0.08, γ=1,
/// window = 200 recent queries; partition count scaled to our substrate).
pub fn default_config(seed: u64) -> OreoConfig {
    OreoConfig {
        alpha: 80.0,
        epsilon: 0.08,
        gamma: 1.0,
        window: 200,
        generation_interval: 200,
        partitions: 64,
        data_sample_rows: 6_000,
        seed,
        ..Default::default()
    }
}

/// The default drifting stream for a bundle at a scale.
pub fn make_stream(bundle: &DatasetBundle, scale: Scale, seed: u64) -> QueryStream {
    bundle.stream(StreamConfig {
        total_queries: scale.total_queries(),
        segments: scale.segments(),
        seed,
        ..Default::default()
    })
}

/// Run one policy over a stream with no trajectory sampling.
pub fn run(policy: &mut dyn ReorgPolicy, stream: &QueryStream) -> RunResult {
    run_policy(policy, &stream.queries, 0)
}

/// Assemble the four Fig. 3 policies and run them over `stream`.
/// Returns results in order: Static, OREO, Greedy, Regret.
pub fn run_fig3_policies(setup: &PolicySetup, stream: &QueryStream) -> Vec<RunResult> {
    let mut static_p = setup.static_policy(&stream.queries);
    let mut oreo = setup.oreo();
    let mut greedy = setup.greedy();
    let mut regret = setup.regret();
    vec![
        run(&mut static_p, stream),
        run(&mut oreo, stream),
        run(&mut greedy, stream),
        run(&mut regret, stream),
    ]
}

/// All (dataset, technique) cells of Fig. 3.
pub fn fig3_grid(scale: Scale, seed: u64) -> Vec<(DatasetBundle, Technique)> {
    let mut out = Vec::new();
    for bundle in oreo_workload::all_bundles(scale.rows(), seed) {
        for technique in [Technique::QdTree, Technique::ZOrder] {
            out.push((bundle.clone(), technique));
        }
    }
    out
}

/// A JSON value for machine-readable benchmark output. The workspace has no
/// registry access (so no `serde_json`); benchmark payloads are flat enough
/// that this tiny emitter suffices for tracking `BENCH_*.json` perf
/// trajectories across PRs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (non-finite values emit as `null` per JSON's grammar).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{}", *v as i64);
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write_into(out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// The argument after `flag` on the command line, if `flag` is present.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    args.find(|a| a == flag)?;
    args.next()
}

/// Parse `--json <path>` from the CLI args, if present.
pub fn json_path_arg() -> Option<std::path::PathBuf> {
    arg_value("--json").map(std::path::PathBuf::from)
}

/// Check the command line against the flags a binary parses, or print the
/// error and those flags and exit with status 2 — so a mistyped flag fails
/// instead of silently running the paper-scale experiment. Each entry of
/// `accepted` is a bare flag (`"--quick"`), a flag taking any value
/// (`"--json <path>"`), or a flag taking one fixed value
/// (`"--scenario suite"`).
pub fn check_args(accepted: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = validate_args(&args, accepted) {
        eprintln!("{e}\naccepted flags: {}", accepted.join(", "));
        std::process::exit(2);
    }
}

/// The rule [`check_args`] applies to `args`, the arguments after the
/// program name.
fn validate_args(args: &[String], accepted: &[&str]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (flag, value) = accepted
            .iter()
            .map(|spec| spec.split_once(' ').unwrap_or((*spec, "")))
            .find(|(flag, _)| flag == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        if value.is_empty() {
            continue;
        }
        let given = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value: {flag} {value}"))?;
        if !value.starts_with('<') && given != value {
            return Err(format!("{flag} takes only {value:?}, got {given:?}"));
        }
    }
    Ok(())
}

/// Write a JSON report to `path` (creating parent directories) and echo
/// where it went.
pub fn write_json_report(path: &std::path::Path, value: &Json) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, value.render() + "\n") {
        Ok(()) => println!("(json report written to {})", path.display()),
        Err(e) => eprintln!("failed to write json report to {}: {e}", path.display()),
    }
}

/// Print the standard harness banner.
pub fn banner(what: &str, scale: Scale) {
    println!("== {what} ==");
    println!(
        "scale: {} ({} queries, {} segments, {} rows/table)",
        scale.label(),
        scale.total_queries(),
        scale.segments(),
        scale.rows()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_workload::tpch_bundle;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.total_queries() < Scale::Full.total_queries());
        assert!(Scale::Quick.segments() <= Scale::Full.segments());
        assert_eq!(Scale::Full.total_queries(), 30_000, "paper scale");
        assert_eq!(Scale::Full.segments(), 20, "paper scale");
    }

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = default_config(1);
        assert_eq!(c.alpha, 80.0);
        assert_eq!(c.epsilon, 0.08);
        assert_eq!(c.gamma, 1.0);
        assert_eq!(c.window, 200);
    }

    #[test]
    fn fig3_grid_covers_all_cells() {
        let grid = fig3_grid(Scale::Quick, 1);
        assert_eq!(grid.len(), 6, "3 datasets × 2 techniques");
        let qd = grid
            .iter()
            .filter(|(_, t)| *t == oreo_sim::Technique::QdTree)
            .count();
        assert_eq!(qd, 3);
    }

    #[test]
    fn json_renders_escaped_and_nested() {
        let j = Json::obj([
            ("name", Json::from("fig3 \"quick\"\n")),
            ("qps", Json::from(1234.5)),
            ("count", Json::from(8u64)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::from(1.0), Json::from(2.5)])),
        ]);
        assert_eq!(
            j.render(),
            "{\"name\":\"fig3 \\\"quick\\\"\\n\",\"qps\":1234.5,\"count\":8,\
             \"ok\":true,\"none\":null,\"rows\":[1,2.5]}"
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn args_outside_the_accepted_flags_are_rejected() {
        let accepted = ["--quick", "--json <path>", "--scenario suite"];
        let check = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            validate_args(&args, &accepted)
        };
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--quick", "--json", "out.json"]), Ok(()));
        assert_eq!(check(&["--scenario", "suite", "--quick"]), Ok(()));
        // a value-taking flag consumes the next argument, whatever it is
        assert_eq!(check(&["--json", "--quick"]), Ok(()));
        assert!(check(&["--tiered"]).unwrap_err().contains("--tiered"));
        assert!(check(&["--quick", "quick"]).is_err(), "a stray word");
        assert!(check(&["--json"]).unwrap_err().contains("needs a value"));
        assert!(check(&["--scenario", "diurnal"])
            .unwrap_err()
            .contains("\"diurnal\""));
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let bundle = tpch_bundle(1_000, 1);
        let a = make_stream(&bundle, Scale::Quick, 7);
        let b = make_stream(&bundle, Scale::Quick, 7);
        assert_eq!(a.queries.len(), Scale::Quick.total_queries());
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.queries[100], b.queries[100]);
    }
}
