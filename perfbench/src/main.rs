//! `waso-perfbench`: the repository's benchmark. One run executes one
//! workload for `--seconds` and prints, as its last stdout line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! waso-perfbench --workload plan-solve --seed 1 --seconds 20 --trace 0
//! ```

mod checks;
mod inputs;
mod measure;
mod replay;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use inputs::{Scale, FULL};
use measure::{median, percentile, spread};
use replay::Metric;
use workloads::{Ctx, Run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Always `FULL` from the command line; the self-tests use `TINY`.
    scale: Scale,
    out: PathBuf,
    /// Keys the determinism record; without it the record is not kept.
    commit: Option<String>,
}

const USAGE: &str = "usage: waso-perfbench --workload <plan-solve|serve-loopback|replan-delta> \
--seed <n> --seconds <s> --trace <0|1> [--out DIR] [--commit ID]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut commit = None;
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => out = PathBuf::from(value),
            "--commit" => commit = Some(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale: FULL,
        out,
        commit,
    })
}

fn main() {
    let result = parse_args(std::env::args()).and_then(|args| execute(&args));
    match result {
        Ok(report) => println!("{}", report.result_line()),
        Err(e) => {
            eprintln!("waso-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What one run reports.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite number as JSON; a figure that could not be measured is
/// reported as 0 (and the run has already been marked incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn execute(args: &Args) -> Result<Report, String> {
    let name = args.workload.name();
    let tag = format!("{name}-s{}-t{}", args.seed, u8::from(args.trace));
    let work = args.out.join("work").join(&tag);
    let inputs = inputs::generate(args.seed, &args.scale, &work)?;
    let calib_before = measure::calibrate_ms();
    // Generating the inputs (and the calibration buffer) peaks higher than
    // some workloads do; the high-water mark restarts here so
    // `peak_rss_mb` is the workload's.
    let rss_reset = measure::reset_peak_rss();
    let ctx = Ctx {
        workload: args.workload,
        scale: args.scale,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        inputs: &inputs,
    };
    eprintln!(
        "waso-perfbench: {name} seed {} (n={}, k={}) for {}s, trace {}",
        args.seed, args.scale.n, args.scale.k, args.seconds, args.trace
    );
    let steal_before = measure::cpu_steal();
    let mut run = workloads::run(&ctx)?;
    let machine = Machine {
        rss_reset,
        calib_ms: [calib_before, measure::calibrate_ms()],
        steal_share: measure::steal_share(steal_before, measure::cpu_steal()),
    };
    let ok_ops = run.successes().len();
    if ok_ops < args.scale.min_ops {
        run.global_failures.push(format!(
            "only {ok_ops} ops succeeded in the timed phase; the run needs {}",
            args.scale.min_ops
        ));
    }
    let (mean_w, digest) = determinism(&run, &args.scale);
    check_repeatable(args, &mut run, mean_w, digest)?;

    let mut accounting = Vec::new();
    let metrics = if args.trace {
        let layers = replay::layers(&ctx, &mut run)?;
        let spans_path = args.out.join(format!("trace-{tag}.jsonl"));
        replay::write_spans(&spans_path, &run.spans)?;
        eprintln!(
            "waso-perfbench: {} spans written to {}",
            run.spans.len(),
            spans_path.display()
        );
        accounting = layers.accounting;
        layers.metrics
    } else {
        end_to_end(&run, mean_w)
    };
    let _ = std::fs::remove_dir_all(&work);

    let attempted = run.ops.len() + run.global_failures.len();
    let failed = run.failed();
    let report = Report {
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    let meta = metadata(args, &run, &machine, mean_w, digest);
    print_summary(&report, &run, &accounting, &meta);
    let record = format!(
        "{{\"meta\": {meta}, \"accounting\": [{}], \"failures\": [{}], \"result\": {}, \"ops\": [{}]}}\n",
        accounting.iter().map(|a| json_string(a)).collect::<Vec<_>>().join(", "),
        failure_lines(&run).iter().map(|f| json_string(f)).collect::<Vec<_>>().join(", "),
        report.result_line(),
        op_rows(&run).join(", ")
    );
    let results = args.out.join("results");
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("creating {}: {e}", results.display()))?;
    let path = results.join(format!("{tag}.json"));
    std::fs::write(&path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report)
}

fn end_to_end(run: &Run, mean_w: f64) -> Vec<Metric> {
    let ok: Vec<f64> = run.successes().iter().map(|op| op.latency_ms).collect();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", median(&run.setup_s), "s"),
        m("latency_p50_ms", percentile(&ok, 50.0), "ms"),
        m("latency_p95_ms", percentile(&ok, 95.0), "ms"),
        m("throughput_ops_s", ok.len() as f64 / run.wall_s, "1/s"),
        m("cpu_ms_per_op", run.cpu_ms / ok.len() as f64, "ms"),
        m("mean_willingness", mean_w, "W"),
        m("peak_rss_mb", run.peak_rss_mib, "MiB"),
    ]
}

/// Mean W over the run's deterministic prefix, and a digest of every
/// answer and solver count in it. Both are functions of the seed alone.
fn determinism(run: &Run, scale: &Scale) -> (f64, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut ws = Vec::new();
    let mut prefix = run.prefix(scale);
    prefix.sort_by_key(|op| (op.conn, op.seq));
    for op in prefix {
        eat(op.conn as u64);
        eat(op.seq as u64);
        match &op.answer {
            Ok(a) => {
                ws.push(a.willingness);
                a.nodes.iter().for_each(|&v| eat(u64::from(v)));
                eat(a.willingness.to_bits());
                eat(a.samples);
                eat(a.pruned.map_or(u64::MAX, u64::from));
                eat(a.backtracks.map_or(u64::MAX, u64::from));
            }
            Err(_) => eat(u64::MAX),
        }
    }
    (measure::mean(&ws), hash)
}

/// Runs of one commit, workload and seed must agree on the
/// deterministic prefix. The first clean run of a key records it; later
/// runs compare. A run that already failed a check records nothing, and
/// a run with no commit neither records nor compares.
fn check_repeatable(args: &Args, run: &mut Run, mean_w: f64, digest: u64) -> Result<(), String> {
    let Some(commit) = &args.commit else {
        return Ok(());
    };
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let path = args.out.join("determinism.tsv");
    let key = format!("{commit}\t{}\t{}", args.workload.name(), args.seed);
    let line = format!("{key}\t{:016x}\t{digest:016x}", mean_w.to_bits());
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    match known.lines().find(|l| l.starts_with(&format!("{key}\t"))) {
        Some(prev) if prev != line => run.global_failures.push(format!(
            "mean_willingness or solver counts differ from an earlier run of this commit and seed ({prev:?} vs {line:?})"
        )),
        Some(_) => {}
        None if run.failed() > 0 => {}
        None => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, format!("{known}{line}\n"))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Readings of the machine around the workload, so that a set of runs
/// that straddles a change of machine speed shows it.
struct Machine {
    /// Whether `VmHWM` could be restarted after the inputs were made.
    rss_reset: bool,
    /// `measure::calibrate_ms` before and after the workload.
    calib_ms: [[f64; 2]; 2],
    /// Share of all CPU time the hypervisor took during the workload.
    steal_share: f64,
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Host, core count, commit, seed, and the run's own spread per
/// end-to-end metric: the IQR of set-up times over their median, and
/// for the timed metrics (max - min) / median of the metric recomputed
/// on each quarter of the timed phase (halves for p95, so each part has
/// 100 ops). `mean_willingness` is exact for a seed; `peak_rss_mb` is
/// one reading.
fn metadata(args: &Args, run: &Run, machine: &Machine, mean_w: f64, digest: u64) -> String {
    let ok = run.successes();
    let parts = |n: usize| -> Vec<Vec<&workloads::Op>> {
        let width = run.wall_s / n as f64;
        (0..n)
            .map(|q| {
                ok.iter()
                    .copied()
                    .filter(|op| ((op.end_s / width) as usize).min(n - 1) == q)
                    .collect()
            })
            .collect()
    };
    let range_share = |v: Vec<f64>| {
        let hi = v.iter().copied().fold(f64::MIN, f64::max);
        let lo = v.iter().copied().fold(f64::MAX, f64::min);
        json_number((hi - lo) / median(&v))
    };
    let latencies = |ops: &[&workloads::Op]| ops.iter().map(|op| op.latency_ms).collect::<Vec<_>>();
    let quarters = parts(4);
    let p50 = range_share(quarters.iter().map(|q| median(&latencies(q))).collect());
    let p95 = range_share(
        parts(2)
            .iter()
            .map(|h| percentile(&latencies(h), 95.0))
            .collect(),
    );
    let rate = range_share(
        quarters
            .iter()
            .map(|q| q.len() as f64 / (run.wall_s / 4.0))
            .collect(),
    );
    // CPU of a quarter: from the last completion before it to its own.
    let mut cpu_before = 0.0;
    let cpu = range_share(
        quarters
            .iter()
            .map(|q| {
                let end = q.iter().map(|op| op.cpu_ms_end).fold(cpu_before, f64::max);
                let per_op = (end - cpu_before) / q.len().max(1) as f64;
                cpu_before = end;
                per_op
            })
            .collect(),
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {}, \"nproc\": {nproc}, \"commit\": {}, \"workload\": {}, \"n\": {}, \"k\": {}, \"seed\": {}, \
\"calib_alu_ms\": [{}, {}], \"calib_mem_ms\": [{}, {}], \"steal_share\": {}, \"rss_reset\": {}, \
\"seconds\": {}, \"trace\": {}, \"ops\": {}, \"timed_s\": {}, \"mean_willingness_bits\": \"{:016x}\", \"digest\": \"{digest:016x}\", \
\"memo\": {{\"hits\": {}, \"planned_hits\": {}, \"misses\": {}, \"invalidated\": {}}}, \
\"setups_s\": [{}], \"spread\": {{\"setup_s\": {}, \"latency_p50_ms\": {p50}, \"latency_p95_ms\": {p95}, \"throughput_ops_s\": {rate}, \"cpu_ms_per_op\": {cpu}, \"mean_willingness\": 0.0}}}}",
        json_string(&host()),
        args.commit.as_deref().map_or("null".to_string(), json_string),
        json_string(args.workload.name()),
        args.scale.n,
        args.scale.k,
        args.seed,
        json_number(machine.calib_ms[0][0]),
        json_number(machine.calib_ms[1][0]),
        json_number(machine.calib_ms[0][1]),
        json_number(machine.calib_ms[1][1]),
        json_number(machine.steal_share),
        machine.rss_reset,
        args.seconds,
        args.trace,
        run.ops.len(),
        json_number(run.wall_s),
        mean_w.to_bits(),
        run.memo.hits,
        run.planned_hits,
        run.memo.misses,
        run.memo.invalidated,
        run.setup_s.iter().map(|&s| json_number(s)).collect::<Vec<_>>().join(", "),
        json_number(spread(&run.setup_s)),
    )
}

/// `[conn, seq, organizer, latency_ms, W]` per op, W null when it failed.
fn op_rows(run: &Run) -> Vec<String> {
    run.ops
        .iter()
        .map(|op| {
            let w = op
                .answer
                .as_ref()
                .map_or("null".to_string(), |a| json_number(a.willingness));
            format!(
                "[{}, {}, {}, {}, {w}]",
                op.conn,
                op.seq,
                op.organizer.0,
                json_number(op.latency_ms)
            )
        })
        .collect()
}

fn failure_lines(run: &Run) -> Vec<String> {
    let mut lines: Vec<String> = run.global_failures.clone();
    for (i, why) in &run.op_failures {
        if let Some(op) = run.ops.get(*i) {
            lines.push(format!("op {}.{} ({}): {why}", op.conn, op.seq, op.spec));
        }
    }
    lines
}

fn print_summary(report: &Report, run: &Run, accounting: &[String], meta: &str) {
    eprintln!(
        "waso-perfbench: {} ops attempted, {} failed, {} timed seconds",
        report.attempted, report.failed, run.wall_s
    );
    for m in &report.metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for a in accounting {
        eprintln!("  accounting: {a}");
    }
    for f in failure_lines(run).iter().take(20) {
        eprintln!("  FAILED: {f}");
    }
    eprintln!("  meta: {meta}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::TINY;
    use std::path::Path;

    /// The self-test: every workload at the tiny scale, untraced and
    /// traced, prints every metric by name with its unit and passes
    /// every check.
    #[test]
    fn every_workload_reports_every_metric_and_passes() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest");
        let _ = std::fs::remove_dir_all(&out);
        let spec = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark");
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 7,
                    seconds: 0.5,
                    trace,
                    scale: TINY,
                    out: out.clone(),
                    commit: Some("selftest".into()),
                };
                let report = execute(&args).expect("run");
                assert!(
                    report.correct,
                    "{} trace {trace} failed its checks",
                    workload.name()
                );
                assert_eq!(report.failed, 0);
                let line = report.result_line();
                for m in &report.metrics {
                    let named = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                    assert!(
                        spec.contains(&named),
                        "{} ({}) is not declared in BENCHMARK.json",
                        m.name,
                        m.unit
                    );
                    assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
                }
                let declared = spec.matches("\"better\": ").count();
                let e2e = end_to_end_names();
                let expected = if trace {
                    declared - e2e.len()
                } else {
                    e2e.len()
                };
                assert_eq!(
                    report.metrics.len(),
                    expected,
                    "{} trace {trace}",
                    workload.name()
                );
            }
        }
        // A second run of one seed agrees with the first.
        let again = Args {
            workload: Workload::PlanSolve,
            seed: 7,
            seconds: 0.5,
            trace: false,
            scale: TINY,
            out: out.clone(),
            commit: Some("selftest".into()),
        };
        assert!(execute(&again).expect("rerun").correct);
    }

    fn end_to_end_names() -> Vec<&'static str> {
        vec![
            "setup_s",
            "latency_p50_ms",
            "latency_p95_ms",
            "throughput_ops_s",
            "cpu_ms_per_op",
            "mean_willingness",
            "peak_rss_mb",
        ]
    }

    #[test]
    fn a_changed_answer_for_a_known_seed_is_a_failure() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest-repeat");
        let _ = std::fs::remove_dir_all(&out);
        let args = Args {
            workload: Workload::PlanSolve,
            seed: 3,
            seconds: 0.1,
            trace: false,
            scale: TINY,
            out,
            commit: Some("selftest".into()),
        };
        let mut run = workloads::run(&Ctx {
            workload: args.workload,
            scale: args.scale,
            seed: args.seed,
            seconds: args.seconds,
            trace: false,
            inputs: &inputs::generate(args.seed, &args.scale, &args.out.join("work"))
                .expect("inputs"),
        })
        .expect("run");
        let (w, digest) = determinism(&run, &args.scale);
        // A run that already failed a check leaves no record behind.
        run.global_failures.push("planted".into());
        check_repeatable(&args, &mut run, w + 2.0, digest).expect("skip");
        run.global_failures.clear();
        check_repeatable(&args, &mut run, w, digest).expect("record");
        assert!(run.global_failures.is_empty());
        check_repeatable(&args, &mut run, w + 1.0, digest).expect("compare");
        assert_eq!(run.global_failures.len(), 1);
        // Another commit may answer differently: it keeps its own record.
        run.global_failures.clear();
        let other = Args {
            commit: Some("other".into()),
            ..args
        };
        check_repeatable(&other, &mut run, w + 1.0, digest).expect("record other");
        check_repeatable(&other, &mut run, w + 1.0, digest).expect("compare other");
        assert!(run.global_failures.is_empty());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            parse_args(std::iter::once("bin".to_string()).chain(s.split(' ').map(String::from)))
        };
        assert!(parse("--workload plan-solve --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload plan-solve --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload plan-solve --seed 1 --trace 0").is_err());
        assert!(
            parse("--workload plan-solve --seed 1 --seconds 10 --trace 0 --scale tiny").is_err()
        );
    }
}
