//! `oreo-benchmark`: a repeatable end-to-end + per-layer benchmark of the
//! OREO serving loop. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 7
//!     every workload, repetitions round-robin, traced replays, full table
//! … -- --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     the driver's form: one workload, last stdout line is the result JSON
//! … -- --calibrate <N>
//!     the noise table of NOISE.md
//! ```

mod host;
mod metrics;
mod oracle;
mod rep;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use rep::RepOutput;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Inputs, Workload, WORKLOADS};

/// Repetitions per workload per run; never fewer (see the README).
const MIN_REPS: usize = 5;
/// `--seconds` may add rounds up to this many repetitions.
const MAX_REPS: usize = 12;
// The pooled p99.9 of a full-length run must lie inside the tails the
// repetitions report.
const _: () = assert!(MAX_REPS * 8 < rep::TAIL_SAMPLES);

/// Parsed command line.
#[derive(Clone, Debug)]
struct Options {
    /// `--workload`: one workload; `None` runs all, round-robin.
    workload: Option<&'static Workload>,
    /// `--seed`: drives table, stream and mutation generation.
    seed: u64,
    /// `--seconds`: keep adding rounds until each workload's measured
    /// phases add up to this.
    seconds: Option<f64>,
    /// `--trace 0|1`: make the traced replay (default 1).
    trace: bool,
    /// `--reps`: development only; recorded in the output.
    reps: Option<usize>,
    /// `--calibrate N`.
    calibrate: Option<usize>,
}

/// Internal: `--child-rep <workload> --seed <n> --root <dir>`.
struct ChildArgs {
    workload: &'static Workload,
    seed: u64,
    root: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: oreo-benchmark [--workload <{}>] [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--reps <n>] [--calibrate <N>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(Options, Option<ChildArgs>), String> {
    let mut opts = Options {
        workload: None,
        seed: 7,
        seconds: None,
        trace: true,
        reps: None,
        calibrate: None,
    };
    let mut child_workload = None;
    let mut root = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}\n{}", usage());
        let workload = |v: &String| workloads::find(v).ok_or_else(|| bad(v));
        match flag.as_str() {
            "--workload" => opts.workload = Some(workload(value()?)?),
            "--seed" => opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(v));
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--reps" => {
                let v = value()?;
                opts.reps = Some(v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(v))?);
            }
            "--calibrate" => {
                let v = value()?;
                opts.calibrate = Some(v.parse().ok().filter(|&n| n >= 6).ok_or_else(|| {
                    format!("--calibrate needs at least 6 invocations, got {v:?}")
                })?);
            }
            "--child-rep" => child_workload = Some(workload(value()?)?),
            "--root" => root = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let child = match (child_workload, root) {
        (Some(workload), Some(root)) => Some(ChildArgs {
            workload,
            seed: opts.seed,
            root,
        }),
        (None, None) => None,
        _ => return Err("--child-rep and --root go together".into()),
    };
    Ok((opts, child))
}

/// The order repetitions run in: round-robin across the workloads
/// (`A B C D A B C D …`), so a slow spell of the host is spread over all of
/// them instead of landing on one.
fn round_robin(workloads: usize, reps: usize) -> Vec<(usize, usize)> {
    (0..reps)
        .flat_map(|rep| (0..workloads).map(move |w| (w, rep)))
        .collect()
}

/// Everything gathered for one workload during a session.
struct WorkloadRun {
    workload: &'static Workload,
    inputs: Inputs,
    expected: BTreeMap<usize, u64>,
    reps: Vec<RepOutput>,
    calib_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    replay: Option<replay::Replay>,
    /// Whether the replay's ledger equalled `oreo-sim`'s (read-only
    /// workloads with a replay only).
    ledger_parity: Option<bool>,
}

impl WorkloadRun {
    fn measured_s(&self) -> f64 {
        self.reps.iter().map(|r| r.get("wall_s")).sum()
    }

    /// Hold one repetition's outputs against the oracle; every mismatch,
    /// ingest error, scan I/O error and tiered degradation is a failed
    /// operation.
    fn verify(&mut self, out: &RepOutput) {
        let w = self.workload;
        let batches = self
            .inputs
            .mutations
            .as_ref()
            .map_or(0, |m| m.batches.len());
        self.attempted += (self.inputs.queries.len() + batches) as u64;
        let mut failed = 0u64;
        let checks: BTreeMap<usize, u64> = out.checks.iter().copied().collect();
        for (index, want) in &self.expected {
            if checks.get(index) != Some(want) {
                failed += 1;
            }
        }
        let live = self
            .inputs
            .mutations
            .as_ref()
            .map_or(w.rows as u64, |m| m.expected_live) as f64;
        if out.get("live_rows") != live {
            failed += 1;
        }
        if w.tiered() && out.get("recovered_live_rows") != live {
            failed += 1;
        }
        if out.get("queries") != self.inputs.queries.len() as f64 {
            failed += 1;
        }
        failed += out.get("ingest_failures") as u64;
        failed += out.get("scan_io_errors") as u64;
        failed += out.errors.len() as u64;
        for e in &out.errors {
            eprintln!("[{}] engine degradation: {e}", w.name);
        }
        if failed > 0 {
            eprintln!("[{}] repetition had {failed} failed operations", w.name);
        }
        self.failed += failed;
    }
}

/// Run one repetition of `run`'s workload in a child process of its own.
fn run_child(run: &mut WorkloadRun, seed: u64, tmp: &Path) -> Result<(), String> {
    let w = run.workload;
    run.calib_us.push(host::calibration_spin_us());
    let root = tmp.join(format!("{}-rep{}", w.name, run.reps.len()));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--child-rep", w.name, "--seed", &seed.to_string(), "--root"])
        .arg(&root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start repetition: {e}"))?;
    let _ = std::fs::remove_dir_all(&root);
    if !output.status.success() {
        return Err(format!(
            "[{}] repetition exited with {}",
            w.name, output.status
        ));
    }
    let out = RepOutput::parse(&String::from_utf8_lossy(&output.stdout))?;
    run.verify(&out);
    run.reps.push(out);
    Ok(())
}

/// Make the traced replay of `run`'s workload and check it.
fn run_replay(run: &mut WorkloadRun, tmp: &Path, out_dir: &Path) -> Result<(), String> {
    let w = run.workload;
    let inputs = &run.inputs;
    let quarter = inputs.queries.len() / 4;
    let null_root = tmp.join(format!("{}-replay-null", w.name));
    let (null, _) = replay::drive(w, inputs, &null_root, quarter, false, &run.expected)?;
    let _ = std::fs::remove_dir_all(&null_root);

    let root = tmp.join(format!("{}-replay", w.name));
    let (mut traced, state) =
        replay::drive(w, inputs, &root, inputs.queries.len(), true, &run.expected)?;
    replay::probes(w, inputs, &mut traced, state)?;
    let spans = trace::finish();
    let _ = std::fs::remove_dir_all(&root);
    replay::summarize(&mut traced, &spans, null.quarter_wall_s);
    let trace_path = out_dir.join(format!("trace-{}.jsonl", w.name));
    trace::write_jsonl(&trace_path, &spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    run.attempted += inputs.queries.len() as u64;
    run.failed += traced.failed;
    let closure = traced.values["closure_ratio"];
    if !(0.95..=1.05).contains(&closure) {
        eprintln!(
            "[{}] trace.closure_ratio {closure:.3} is outside [0.95, 1.05]",
            w.name
        );
        run.failed += 1;
    }
    if inputs.mutations.is_none() {
        let (ledger, switches) = replay::sim_ledger(inputs);
        let equal = ledger == traced.ledger && switches == traced.switches;
        if !equal {
            eprintln!(
                "[{}] replay ledger {:?} differs from oreo-sim's {:?}",
                w.name, traced.ledger, ledger
            );
            run.failed += 1;
        }
        run.ledger_parity = Some(equal);
    }
    run.replay = Some(traced);
    Ok(())
}

/// Removes the per-invocation temp directory on every way out, panics
/// included.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One whole run of the selected workloads. Returns the per-workload
/// results in workload order.
fn session(opts: &Options, out_dir: &Path) -> Result<Vec<WorkloadRun>, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let tmp = TempDir(out_dir.join(format!("tmp-{}-{stamp}", std::process::id())));
    std::fs::create_dir_all(&tmp.0)
        .map_err(|e| format!("cannot create {}: {e}", tmp.0.display()))?;

    let selected: Vec<&'static Workload> = match opts.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut runs = Vec::with_capacity(selected.len());
    for w in selected {
        eprintln!(
            "[{}] generating inputs (seed {}) and oracle",
            w.name, opts.seed
        );
        let inputs = workloads::generate(w, opts.seed);
        let expected = oracle::expected_counts(&inputs)?;
        runs.push(WorkloadRun {
            workload: w,
            inputs,
            expected,
            reps: Vec::new(),
            calib_us: Vec::new(),
            attempted: 0,
            failed: 0,
            replay: None,
            ledger_parity: None,
        });
    }

    let reps = opts.reps.unwrap_or(MIN_REPS);
    for (index, rep) in round_robin(runs.len(), reps) {
        eprintln!("[{}] repetition {}", runs[index].workload.name, rep + 1);
        run_child(&mut runs[index], opts.seed, &tmp.0)?;
    }
    if let Some(seconds) = opts.seconds {
        // Extra rounds, still round-robin, for whoever is short of --seconds.
        loop {
            let short: Vec<usize> = (0..runs.len())
                .filter(|&i| runs[i].measured_s() < seconds && runs[i].reps.len() < MAX_REPS)
                .collect();
            if short.is_empty() {
                break;
            }
            for index in short {
                eprintln!(
                    "[{}] repetition {} ({:.1} s of {seconds} s measured)",
                    runs[index].workload.name,
                    runs[index].reps.len() + 1,
                    runs[index].measured_s()
                );
                run_child(&mut runs[index], opts.seed, &tmp.0)?;
            }
        }
    }
    if opts.trace {
        for run in &mut runs {
            eprintln!("[{}] traced replay", run.workload.name);
            run_replay(run, &tmp.0, out_dir)?;
        }
    }
    Ok(runs)
}

/// The benchmark's own output directory: `benchmark/out/`.
fn out_dir() -> PathBuf {
    // `cargo run` exports the manifest directory at run time; the
    // compile-time value covers a binary started by hand.
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest_dir.join("out")
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, child) = parse_args(&args)?;
    if let Some(child) = child {
        let inputs = workloads::generate(child.workload, child.seed);
        print!(
            "{}",
            rep::run(child.workload, &inputs, &child.root).render()
        );
        return Ok(0);
    }
    let out_dir = out_dir();
    if let Some(invocations) = opts.calibrate {
        return report::calibrate(&opts, invocations, &out_dir);
    }
    let runs = session(&opts, &out_dir)?;
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    report::print_tables(&opts, &runs);
    let document = report::document(&opts, &runs, &out_dir);
    let path = out_dir.join("result.json");
    std::fs::write(&path, document).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if let [run] = runs.as_slice() {
        // The driver's contract: the last stdout line is the result.
        println!("{}", report::contract_line(run, opts.trace));
    }
    Ok(i32::from(failed > 0))
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("oreo-benchmark: {message}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_run_round_robin_across_workloads() {
        assert_eq!(
            round_robin(4, 2),
            [
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 1)
            ]
        );
        assert_eq!(round_robin(1, 3), [(0, 0), (0, 1), (0, 2)]);
        // No workload ever runs twice before every other has run once.
        let order = round_robin(4, 5);
        for round in order.chunks(4) {
            let mut seen: Vec<usize> = round.iter().map(|&(w, _)| w).collect();
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn command_line_is_the_contracts() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (opts, child) = parse_args(&args(
            "--workload tiered-cold --seed 11 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert!(child.is_none());
        assert_eq!(opts.workload.map(|w| w.name), Some("tiered-cold"));
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace),
            (11, Some(12.0), false)
        );
        let (opts, _) = parse_args(&[]).unwrap();
        assert!(opts.workload.is_none() && opts.trace && opts.seed == 7);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--calibrate 5")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
        let (_, child) = parse_args(&args("--child-rep drift-small --seed 3 --root x")).unwrap();
        assert_eq!(
            child.map(|c| (c.workload.name, c.seed)),
            Some(("drift-small", 3))
        );
    }
}
