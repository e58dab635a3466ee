//! The CHERIoT-rs simulator benchmark.
//!
//! ```text
//! perfbench --workload <coremark|campaign|farm|difffuzz|all> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! One workload per process, so `peak_rss_mb` is that workload's own;
//! `all` runs each in a child process. A run measures for about
//! `--seconds`, checks every simulated result it will report against the
//! program's own entry points (and, at the default seed, against
//! `expected.txt`), prints a report, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a traced pass
//! follows and the metrics are the per-layer ones. Any mismatch exits
//! with status 1 before a number is printed.

mod clock;
mod expect;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed whose results `expected.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
];

/// Per-layer metrics from the traced pass: `(name, unit)`. A `*_s`
/// metric without its own value is the inclusive time of the span of the
/// same name without `_s`.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("core.machine.run_s", "s"),
    ("core.machine.ns_per_instr", "ns"),
    ("core.machine.run_calls", "count"),
    ("core.machine.new_s", "s"),
    ("core.machine.load_s", "s"),
    ("core.machine.dma_s", "s"),
    ("core.machine.instructions", "count"),
    ("core.machine.sim_cycles", "count"),
    ("core.machine.cap_loads", "count"),
    ("core.machine.filter_strips", "count"),
    ("core.blockcache.builds", "count"),
    ("core.blockcache.hits", "count"),
    ("core.blockcache.chain_hits", "count"),
    ("core.blockcache.chain_ratio", "fraction"),
    ("core.blockcache.sentry_ic_hit_ratio", "fraction"),
    ("core.blockcache.instrs_per_build", "count"),
    ("core.blockcache.invalidated", "count"),
    ("core.snapshot.restore_s", "s"),
    ("core.snapshot.capture_s", "s"),
    ("core.snapshot.restores", "count"),
    ("core.snapshot.full_restores", "count"),
    ("core.snapshot.restore_bytes_per_seed", "B"),
    ("core.snapshot.fork_s", "s"),
    ("core.snapshot.fork_bytes_per_device", "B"),
    ("core.mem.cow_breaks", "count"),
    ("core.mem.cow_bytes_copied", "B"),
    ("core.mem.shared_pages", "count"),
    ("core.mem.unique_bytes", "B"),
    ("alloc.heap.allocs", "count"),
    ("alloc.heap.frees", "count"),
    ("alloc.heap.revocation_passes", "count"),
    ("fault.build_workload_s", "s"),
    ("fault.reference_s", "s"),
    ("fault.faulted_s", "s"),
    ("fault.invariant_s", "s"),
    ("fault.invariant_checks", "count"),
    ("fault.invariant_fraction", "fraction"),
    ("fault.inject_s", "s"),
    ("fault.faults_applied", "count"),
    ("soc.net.push_rx_s", "s"),
    ("soc.net.flush_rx_s", "s"),
    ("soc.net.take_tx_s", "s"),
    ("soc.net.frames_tx", "count"),
    ("soc.net.rx_dropped", "count"),
    ("farm.registry.boot_s", "s"),
    ("farm.round.quantum_s", "s"),
    ("farm.round.serial_s", "s"),
    ("farm.round.barrier_idle_s", "s"),
    ("farm.serial_fraction", "fraction"),
    ("farm.barrier_idle_fraction", "fraction"),
    ("farm.fabric.route_s", "s"),
    ("farm.fabric.route_calls", "count"),
    ("farm.fabric.host_publish_s", "s"),
    ("farm.fabric.deliveries", "count"),
    ("farm.fabric.cross_instance_frames", "count"),
    ("diff.generate_s", "s"),
    ("diff.golden_dry_s", "s"),
    ("diff.pair_stepwise_s", "s"),
    ("diff.pair_blocks_s", "s"),
    ("diff.pair_chained_s", "s"),
    ("diff.pairs", "count"),
    ("diff.golden_instructions", "count"),
];

/// The benchmark's own per-layer numbers, reported with the rest.
pub const TRACE_SELF: [(&str, &str); 3] = [
    ("workloads.coremark.generate_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
];

/// Traced passes per traced run.
const TRACED_PASSES: usize = 3;

/// Describes where a traced pass's results differ from the untraced run's.
fn replica_mismatch(traced: &[(String, String)], untraced: &[(String, String)]) -> String {
    let diff: Vec<String> = traced
        .iter()
        .zip(untraced)
        .filter(|(a, b)| a != b)
        .take(5)
        .map(|(a, b)| format!("traced {}={} untraced {}={}", a.0, a.1, b.0, b.1))
        .collect();
    format!(
        "the traced pass did not reproduce the untraced results ({} vs {} entries): {diff:?}",
        traced.len(),
        untraced.len()
    )
}

/// The end-to-end metric, `@` the workload, that a per-layer metric
/// should move: a saving claimed in a layer must show there.
pub fn moves(metric: &str) -> &'static str {
    match metric {
        "core.machine.run_s" | "core.machine.ns_per_instr" => {
            "throughput@coremark, throughput@farm"
        }
        "core.machine.run_calls" => "request_p50_ms@farm",
        "core.machine.new_s" => "throughput@difffuzz",
        "core.machine.load_s" => "throughput@campaign",
        "core.machine.dma_s" => "throughput@farm (farm_msgs_per_s)",
        "core.machine.instructions"
        | "core.machine.sim_cycles"
        | "core.machine.cap_loads"
        | "core.machine.filter_strips" => "none: simulated work, identical across changes",
        "core.blockcache.instrs_per_build" | "core.blockcache.invalidated" => {
            "throughput@campaign, throughput@difffuzz"
        }
        "core.snapshot.fork_s" | "core.snapshot.fork_bytes_per_device" => "setup_s@farm",
        "farm.registry.boot_s" => "setup_s@farm",
        "workloads.coremark.generate_s" => "setup_s@coremark",
        m if m.starts_with("core.blockcache.") => "throughput@coremark",
        m if m.starts_with("core.snapshot.") => "throughput@campaign",
        m if m.starts_with("core.mem.") => "peak_rss_mb@farm, throughput@campaign",
        m if m.starts_with("alloc.") || m.starts_with("fault.") => "throughput@campaign",
        m if m.starts_with("soc.net.") || m.starts_with("farm.fabric.") => {
            "throughput@farm (farm_msgs_per_s)"
        }
        m if m.starts_with("farm.") => "throughput@farm, request_tail_ms@farm",
        m if m.starts_with("diff.") => "throughput@difffuzz, request_tail_ms@difffuzz",
        _ => "none: the benchmark's own cost",
    }
}

/// The benchmark's directory: outputs go under it, whatever the working
/// directory.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// The recorded-results file; always `expected.txt` outside the
    /// self-tests.
    expected: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?} or all",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expected: bench_dir().join("expected.txt"),
    })
}

/// A number as measured, with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line. A run whose outputs failed a check prints none, so a
/// printed line is always `correct`.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Runs one workload; returns the report lines and the result line, or
/// the problems that make the run fail.
fn run_one(args: &Args) -> Result<(Vec<String>, String), Vec<String>> {
    let name = args.workload.as_str();
    let recorded = if args.seed == DEFAULT_SEED {
        let text = std::fs::read_to_string(&args.expected)
            .map_err(|e| vec![format!("reading {}: {e}", args.expected.display())])?;
        Some(expect::parse(&text).map_err(|e| vec![format!("{}: {e}", args.expected.display())])?)
    } else {
        None
    };
    let m = workloads::measure(name, args.seed, args.seconds).map_err(|e| vec![e])?;
    let mut problems = m.problems.clone();
    if let Some(rec) = &recorded {
        problems.extend(expect::compare(rec, name, &m.fingerprint));
    }
    let peak_rss_mb = clock::peak_rss_mb().map_err(|e| vec![e])?;
    let traced = if args.trace {
        // The pass runs a few times; the report uses the one of median
        // duration, and every repetition must reproduce the results.
        let mut passes = Vec::new();
        for _ in 0..TRACED_PASSES {
            let t = workloads::trace(name, args.seed).map_err(|e| vec![e])?;
            if t.replica != m.replica {
                problems.push(replica_mismatch(&t.replica, &m.replica));
            }
            passes.push(t);
        }
        let pass_s = |t: &workloads::Traced| trace::ledger(t.tracer.spans())["pass"].incl_s;
        passes.sort_by(|a, b| pass_s(a).total_cmp(&pass_s(b)));
        Some(passes.swap_remove(TRACED_PASSES / 2))
    } else {
        None
    };
    if !problems.is_empty() {
        return Err(problems);
    }
    let mut lines = Vec::new();
    lines.push(format!(
        "== {name} seed {} ({} s) ==",
        args.seed, args.seconds
    ));
    lines.push(format!(
        "results             {}",
        m.fingerprint
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let setup_s = stats::median(&m.setup_s);
    let p50 = stats::median(&m.latencies_ms);
    let (tail_p, tail) = stats::tail(&m.latencies_ms);
    lines.push(format!(
        "error_rate          {} failed / {} attempted ({}s)",
        m.failed, m.attempted, m.unit
    ));
    lines.push(format!(
        "setup_s             {setup_s:.6} s (median of {} set-ups)",
        m.setup_s.len()
    ));
    lines.push(format!("peak_rss_mb         {peak_rss_mb:.1} MiB"));
    lines.push(format!(
        "throughput          {:.3} /s: {}",
        m.throughput, m.throughput_of
    ));
    for (n, v, u) in &m.named {
        lines.push(format!("  {n:<20} {v:.3} {u}"));
    }
    lines.push(format!(
        "request_p50_ms      {p50:.4} ms per {} ({} samples)",
        m.request,
        m.latencies_ms.len()
    ));
    lines.push(format!(
        "request_tail_ms     {tail:.4} ms = p{tail_p} of {} samples",
        m.latencies_ms.len()
    ));
    let [q1, _, q3] = stats::quartiles(&m.latencies_ms);
    lines.push(format!("request quartiles   {q1:.4} / {q3:.4} ms"));

    let Some(t) = traced else {
        let metrics = [
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("throughput", m.throughput, "1/s"),
            ("request_p50_ms", p50, "ms"),
            ("request_tail_ms", tail, "ms"),
        ];
        debug_assert!(metrics
            .iter()
            .map(|x| x.0)
            .eq(END_TO_END.iter().map(|x| x.0)));
        return Ok((lines, result_line(m.attempted, m.failed, &metrics)));
    };

    let spans = t.tracer.spans();
    let rows = trace::ledger(spans);
    let pass_s = rows.get("pass").map_or(0.0, |r| r.incl_s);
    let mut values: BTreeMap<&str, f64> = t.values.iter().copied().collect();
    values.insert("trace.overhead_frac", pass_s / m.pass_wall_s - 1.0);
    values.insert("trace.unattributed_frac", trace::unattributed_frac(spans));
    let instructions = values
        .get("core.machine.instructions")
        .copied()
        .unwrap_or(0.0);
    let run_s = rows.get("core.machine.run").map_or(0.0, |r| r.incl_s);
    if instructions > 0.0 {
        values.insert("core.machine.ns_per_instr", run_s * 1e9 / instructions);
    }
    let value_of = |metric: &str| -> f64 {
        if let Some(v) = values.get(metric) {
            return *v;
        }
        metric
            .strip_suffix("_s")
            .and_then(|span| rows.get(span))
            .map_or(0.0, |r| r.incl_s)
    };

    let file = bench_dir()
        .join("out")
        .join(format!("{name}-seed{}.trace.json", args.seed));
    std::fs::create_dir_all(file.parent().expect("the trace file has a directory"))
        .and_then(|()| std::fs::write(&file, trace::chrome_json(spans, name)))
        .map_err(|e| vec![format!("writing {}: {e}", file.display())])?;

    lines.push(format!("-- traced pass: {} --", t.base));
    lines.push(format!(
        "pass {:.6} s traced vs {:.6} s untraced; {} spans in {}",
        pass_s,
        m.pass_wall_s,
        spans.len(),
        file.display()
    ));
    lines.push(format!(
        "{:<32} {:>8} {:>12} {:>12} {:>7}",
        "span", "calls", "incl s", "self s", "% pass"
    ));
    for (span, r) in &rows {
        lines.push(format!(
            "{span:<32} {:>8} {:>12.6} {:>12.6} {:>6.1}%",
            r.calls,
            r.incl_s,
            r.self_s,
            100.0 * r.incl_s / pass_s.max(1e-12)
        ));
    }
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .chain(&TRACE_SELF)
        .map(|&(n, u)| (n, value_of(n), u))
        .collect();
    lines.push(format!(
        "{:<40} {:>16} {:<9} should move",
        "per-layer metric", "value", "unit"
    ));
    for (n, v, u) in &metrics {
        if *v != 0.0 {
            lines.push(format!("{n:<40} {v:>16.6} {u:<9} {}", moves(n)));
        }
    }
    Ok((lines, result_line(m.attempted, m.failed, &metrics)))
}

/// `--workload all`: each workload in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in workloads::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: running {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        if !out.status.success() {
            eprintln!("perfbench: {name} failed ({})", out.status);
            ok = false;
            continue;
        }
        println!("{name}: {last}");
        attempted += field(last, "\"attempted\": ").unwrap_or(0);
        failed += field(last, "\"failed\": ").unwrap_or(0);
        metrics.push(format!("\"{name}\": {last}"));
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The unsigned integer after `key` in a result line.
fn field(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok((lines, result)) => {
            for l in lines {
                println!("{l}");
            }
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            eprintln!("perfbench: {} failed its output checks:", args.workload);
            for p in problems {
                eprintln!("  {p}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric in one list of BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let k = format!("\"{key}\": \"");
                    let rest = &entry[entry.find(&k).expect("field present") + k.len()..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_runs_print() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        let layer: Vec<(&str, &str)> = PER_LAYER.iter().chain(&TRACE_SELF).copied().collect();
        assert_eq!(listed("per_layer"), owned(&layer));
    }

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        for (n, _) in PER_LAYER {
            assert!(!moves(n).is_empty(), "{n}");
        }
        assert_eq!(moves("core.blockcache.hits"), "throughput@coremark");
        assert_eq!(moves("fault.inject_s"), "throughput@campaign");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(3, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(field(&line, "\"attempted\": "), Some(3));
    }

    fn difffuzz_at_the_default_seed(expected: PathBuf) -> Args {
        Args {
            workload: "difffuzz".into(),
            seed: DEFAULT_SEED,
            seconds: 1,
            trace: false,
            expected,
        }
    }

    #[test]
    fn the_recorded_results_pass() {
        let args = difffuzz_at_the_default_seed(bench_dir().join("expected.txt"));
        let (_, result) = run_one(&args).expect("the recorded results hold");
        assert!(result.starts_with("{\"correct\": true"), "{result}");
    }

    #[test]
    fn a_tampered_recorded_result_fails_the_run() {
        let text = std::fs::read_to_string(bench_dir().join("expected.txt")).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with("difffuzz.golden_instructions"))
            .expect("a recorded difffuzz count");
        let value: u64 = line.split('=').nth(1).unwrap().trim().parse().unwrap();
        let tampered = text.replace(
            line,
            &format!("difffuzz.golden_instructions = {}", value + 1),
        );
        let dir = bench_dir().join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tampered-expected.txt");
        std::fs::write(&file, tampered).unwrap();
        let problems = run_one(&difffuzz_at_the_default_seed(file))
            .expect_err("a tampered recorded result fails the run");
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("difffuzz.golden_instructions")),
            "{problems:?}"
        );
    }

    #[test]
    fn the_recorded_results_parse() {
        let text = std::fs::read_to_string(bench_dir().join("expected.txt")).unwrap();
        let rec = expect::parse(&text).unwrap();
        for w in workloads::NAMES {
            assert!(rec.keys().any(|k| k.starts_with(&format!("{w}."))), "{w}");
        }
    }
}
