//! What the benchmark prints: the metric tables, the result document, the
//! driver's one-line result, and the noise calibration.

use crate::metrics::{self, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{highest_supported_percentile, iqr_share, median, samples_beyond, MIN_BEYOND};
use crate::workloads::WORKLOADS;
use crate::{host, session, Options, WorkloadRun};
use std::fmt::Write as _;
use std::path::Path;

/// A JSON number: every digit of a finite value, 0 for anything else.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The per-layer values of a run (`None` = not applicable).
fn layer_values(run: &WorkloadRun) -> Vec<Option<f64>> {
    metrics::per_layer(
        run.workload,
        &run.reps,
        run.replay.as_ref().map(|r| &r.values),
        &run.calib_us,
    )
}

/// The driver's result: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics` — every end-to-end metric without
/// the trace, every per-layer metric with it. The contract wants *every*
/// per-layer name on every workload, so a metric that does not apply to
/// this workload reads 0 here (the tables and `result.json` omit it).
pub fn contract_line(run: &WorkloadRun, trace: bool) -> String {
    let entries: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .zip(layer_values(run))
            .map(|(m, v)| (m.name, v.unwrap_or(0.0), m.unit))
            .map(entry)
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(metrics::end_to_end(&run.reps))
            .map(|(m, v)| (m.name, v, m.unit))
            .map(entry)
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        entries.join(", ")
    )
}

fn entry((name, value, unit): (&str, f64, &str)) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        quoted(name),
        number(value),
        quoted(unit)
    )
}

/// Latency samples of the run's pooled repetitions beyond their p99.9.
fn p999_samples_beyond(run: &WorkloadRun) -> usize {
    samples_beyond(run.inputs.queries.len() * run.reps.len(), 0.999)
}

/// Print every metric by name with unit, direction and bound.
pub fn print_tables(opts: &Options, runs: &[WorkloadRun]) {
    for run in runs {
        let w = run.workload;
        println!();
        println!(
            "== {} — seed {}, {} repetitions ({:.1} s measured), {} of {} operations failed",
            w.name,
            opts.seed,
            run.reps.len(),
            run.measured_s(),
            run.failed,
            run.attempted
        );
        println!("   {}", w.why);
        println!(
            "   {:<40} {:>16} {:<8} {:<7} bound",
            "end-to-end (median over repetitions)", "value", "unit", "better"
        );
        for (m, v) in END_TO_END.iter().zip(metrics::end_to_end(&run.reps)) {
            println!(
                "   {:<40} {:>16.4} {:<8} {:<7} {}",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                m.bound
            );
        }
        println!(
            "   query_p999_us is taken over the run's pooled latencies: {} samples lie beyond \
             it (one repetition alone supports p{} with {MIN_BEYOND} beyond)",
            p999_samples_beyond(run),
            highest_supported_percentile(run.inputs.queries.len()).map_or(0.0, |p| p * 100.0)
        );
        if run.replay.is_none() {
            continue;
        }
        println!(
            "   {:<40} {:>16} {:<8} better",
            "per-layer", "value", "unit"
        );
        for (m, v) in PER_LAYER.iter().zip(layer_values(run)) {
            if let Some(v) = v {
                println!(
                    "   {:<40} {:>16.4} {:<8} {}",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str()
                );
            }
        }
        if let Some(equal) = run.ledger_parity {
            println!(
                "   replay ledger vs oreo-sim: {}",
                if equal { "EXACT" } else { "MISMATCH" }
            );
        }
    }
}

/// The full result document written to `benchmark/out/result.json`.
pub fn document(opts: &Options, runs: &[WorkloadRun], out_dir: &Path) -> String {
    let host = host::info(out_dir);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"trace\": {},", opts.trace);
    if let Some(seconds) = opts.seconds {
        let _ = writeln!(s, "  \"seconds\": {},", number(seconds));
    }
    if let Some(reps) = opts.reps {
        let _ = writeln!(s, "  \"reps_override\": {reps},");
    }
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"tiered_root_on_tmpfs\": {}, \"rustc\": {}, \"git_rev\": {}}},",
        host.nproc,
        host.out_on_tmpfs,
        quoted(&host.rustc),
        quoted(&host.git_rev)
    );
    s += "  \"workloads\": [\n";
    let workloads: Vec<String> = runs
        .iter()
        .map(|run| {
            let mut w = String::from("    {\n");
            let _ = writeln!(w, "      \"name\": {},", quoted(run.workload.name));
            let _ = writeln!(w, "      \"repetitions\": {},", run.reps.len());
            let _ = writeln!(w, "      \"measured_s\": {},", number(run.measured_s()));
            let _ = writeln!(w, "      \"attempted\": {},", run.attempted);
            let _ = writeln!(w, "      \"failed\": {},", run.failed);
            let _ = writeln!(
                w,
                "      \"query_p999_samples_beyond\": {},",
                p999_samples_beyond(run)
            );
            if let Some(equal) = run.ledger_parity {
                let _ = writeln!(w, "      \"replay_ledger_equals_sim\": {equal},");
            }
            let per_rep: Vec<[f64; 7]> = run.reps.iter().map(metrics::end_to_end_of).collect();
            let end_to_end: Vec<String> = END_TO_END
                .iter()
                .zip(metrics::end_to_end(&run.reps))
                .enumerate()
                .map(|(index, (m, v))| {
                    let reps: Vec<String> = per_rep.iter().map(|r| number(r[index])).collect();
                    format!(
                        "        {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \
                         \"repetitions\": [{}]}}",
                        quoted(m.name),
                        number(v),
                        quoted(m.unit),
                        quoted(m.better.as_str()),
                        m.bound,
                        reps.join(", ")
                    )
                })
                .collect();
            let _ = writeln!(
                w,
                "      \"end_to_end\": {{\n{}\n      }},",
                end_to_end.join(",\n")
            );
            let per_layer: Vec<String> = PER_LAYER
                .iter()
                .zip(layer_values(run))
                .filter_map(|(m, v)| {
                    let v = v.filter(|_| run.replay.is_some())?;
                    Some(format!(
                        "        {}: {{\"value\": {}, \"unit\": {}, \"better\": {}}}",
                        quoted(m.name),
                        number(v),
                        quoted(m.unit),
                        quoted(m.better.as_str())
                    ))
                })
                .collect();
            let _ = writeln!(
                w,
                "      \"per_layer\": {{\n{}\n      }}",
                per_layer.join(",\n")
            );
            w += "    }";
            w
        })
        .collect();
    s += &workloads.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// Share by which `second` is worse than `first` (negative when better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `--calibrate N`: run every workload `N` times the way the driver does —
/// one workload per run, `run_seconds` each, no trace, another seed each
/// time — split the invocations alternately into two sets, and print per
/// workload × metric the set medians, how much worse the second is, each
/// set's quartile spread and the full range, as the markdown of `NOISE.md`.
pub fn calibrate(opts: &Options, invocations: usize, out_dir: &Path) -> Result<i32, String> {
    let seconds = opts.seconds.unwrap_or(RUN_SECONDS as f64);
    // values[workload][metric][invocation]
    let mut values = vec![vec![Vec::with_capacity(invocations); END_TO_END.len()]; WORKLOADS.len()];
    let mut calib = vec![Vec::with_capacity(invocations); WORKLOADS.len()];
    let mut failed = 0u64;
    for invocation in 0..invocations {
        for (index, w) in WORKLOADS.iter().enumerate() {
            let run_opts = Options {
                workload: Some(w),
                seed: opts.seed + invocation as u64,
                seconds: Some(seconds),
                trace: false,
                reps: opts.reps,
                calibrate: None,
            };
            let runs = session(&run_opts, out_dir)?;
            failed += runs[0].failed;
            calib[index].push(median(&runs[0].calib_us));
            for (metric, v) in metrics::end_to_end(&runs[0].reps).into_iter().enumerate() {
                values[index][metric].push(v);
            }
            eprintln!(
                "calibrate: invocation {}/{invocations} {} done",
                invocation + 1,
                w.name
            );
        }
    }

    println!(
        "Seeds {}..={}, {seconds} s per run, sets A = even invocations, B = odd. `worse` is how \
         much worse B's median is than A's (negative: better); `spread` is (Q3 − Q1) ÷ median \
         as `statistics.quantiles(n=4)` gives it.",
        opts.seed,
        opts.seed + invocations as u64 - 1
    );
    println!();
    println!(
        "| workload | metric | median A | median B | worse | spread A | spread B | spread all | min | max | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for (w, per_metric) in WORKLOADS.iter().zip(&values) {
        for (m, all) in END_TO_END.iter().zip(per_metric) {
            let set = |parity: usize| -> Vec<f64> {
                all.iter().copied().skip(parity).step_by(2).collect()
            };
            let (a, b) = (set(0), set(1));
            let spread = |s: &[f64]| {
                if s.len() >= 2 {
                    format!("{:.1} %", iqr_share(s) * 100.0)
                } else {
                    "–".into()
                }
            };
            println!(
                "| {} | {} | {:.4} | {:.4} | {:+.1} % | {} | {} | {} | {:.4} | {:.4} | {} |",
                w.name,
                m.name,
                median(&a),
                median(&b),
                worse_by(m.better, median(&a), median(&b)) * 100.0,
                spread(&a),
                spread(&b),
                spread(all),
                all.iter().copied().fold(f64::INFINITY, f64::min),
                all.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                m.bound
            );
        }
    }
    println!();
    println!("Workloads ordered by `qps` (highest first) and by `scan_fraction` (lowest first), per seed:");
    println!();
    println!("| seed | by qps | by scan_fraction |");
    println!("|---|---|---|");
    let metric_index = |name: &str| {
        END_TO_END
            .iter()
            .position(|m| m.name == name)
            .expect("published metric")
    };
    for (invocation, seed) in (opts.seed..).take(invocations).enumerate() {
        let order = |metric: usize, descending: bool, sign: &str| {
            let mut names: Vec<(f64, &str)> = WORKLOADS
                .iter()
                .zip(&values)
                .map(|(w, per_metric)| (per_metric[metric][invocation], w.name))
                .collect();
            names.sort_by(|x, y| x.0.total_cmp(&y.0));
            if descending {
                names.reverse();
            }
            let names: Vec<&str> = names.iter().map(|&(_, n)| n).collect();
            names.join(sign)
        };
        println!(
            "| {seed} | {} | {} |",
            order(metric_index("qps"), true, " > "),
            order(metric_index("scan_fraction"), false, " < ")
        );
    }
    println!();
    println!("Failed operations over all {invocations} invocations: {failed}.");
    for (index, (w, per_metric)) in WORKLOADS.iter().zip(&values).enumerate() {
        let raw = |all: &[f64]| all.iter().map(|&v| number(v)).collect::<Vec<_>>().join(" ");
        for (m, all) in END_TO_END.iter().zip(per_metric) {
            eprintln!("calibrate-raw {} {} {}", w.name, m.name, raw(all));
        }
        eprintln!(
            "calibrate-raw {} host.calib_us {}",
            w.name,
            raw(&calib[index])
        );
    }
    Ok(i32::from(failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_pieces_are_well_formed() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(8000.0), "8000");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(
            entry(("qps", 2500.5, "1/s")),
            "\"qps\": {\"value\": 2500.5, \"unit\": \"1/s\"}"
        );
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }
}
