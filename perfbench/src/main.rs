//! The repository benchmark: end-to-end and per-layer metrics of the
//! STEAC reproduction on four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <jpeg_verify|jpeg_replay|core_grading|zoo_flow> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process, so the peak
//! resident set it reports belongs to that workload alone. It sets up
//! several times and reports the median set-up time, runs one untimed
//! warm-up operation, then runs operations back to back (a closed loop,
//! at most two threads and one worker connection) until `--seconds`
//! have passed, checking every output. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it also times each layer's
//! public calls from here, prints the per-layer metrics and the tracing
//! overhead, and writes the spans to `.perfbench_out/`. The last line
//! of standard output is one JSON object; the exit code is non-zero
//! when any output check failed. See `perfbench/README.md` for what
//! each workload loads and bypasses.

mod grading;
mod jpeg;
mod stats;
mod trace;
mod zoo;

use stats::Tally;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use steac_suite::steac_dsc::{
    dsc_chip_config, dsc_test_tasks, PAPER_NONSESSION_CYCLES, PAPER_SESSION_CYCLES,
};
use steac_suite::steac_sched::{schedule_nonsession, schedule_sessions};
use steac_suite::steac_sim::{Exec, Threads};
use trace::Tracer;

/// End-to-end metrics, printed by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("dsc_cycles_err_pct", "%"),
];

/// Per-layer metrics, printed by every workload with tracing on; a
/// layer the workload bypasses reads 0. Times ending in `_s` are self
/// seconds per operation, or per set-up for set-up layers.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("trace.covered_pct", "%"),
    ("run.fail_ratio", "ratio"),
    ("netlist.build_s", "s"),
    ("sim.compile_s", "s"),
    ("sim.instrs", "count"),
    ("dsc.generate_s", "s"),
    ("dsc.generate_patterns_per_s", "1/s"),
    ("dsc.bytes_per_pattern", "B"),
    ("pattern.play_s", "s"),
    ("pattern.play_patterns_per_s", "1/s"),
    ("pattern.passes", "count"),
    ("pattern.compares", "count"),
    ("remote.play_s", "s"),
    ("remote.overhead_s", "s"),
    ("remote.requests", "count"),
    ("remote.unit_bytes", "B"),
    ("remote.program_bytes", "B"),
    ("remote.programs_shipped", "count"),
    ("remote.need_program_replies", "count"),
    ("exec.fallbacks", "count"),
    ("worker.requests_served", "count"),
    ("worker.units_served", "count"),
    ("worker.bytes_received", "B"),
    ("worker.cache_hits", "count"),
    ("worker.cache_misses", "count"),
    ("fault.enumerate_s", "s"),
    ("fault.stuck_at_s", "s"),
    ("fault.transition_s", "s"),
    ("fault.bridging_s", "s"),
    ("fault.stuck_at.detected_ratio", "ratio"),
    ("fault.transition.detected_ratio", "ratio"),
    ("fault.bridging.detected_ratio", "ratio"),
    ("exec.threads_speedup", "ratio"),
    ("zoo.socs", "count"),
    ("zoo.soc_p50_ms", "ms"),
    ("zoo.soc_p90_ms", "ms"),
    ("zoo.test_cycles", "cycles"),
    ("zoo.gen_s", "s"),
    ("tam.share_s", "s"),
    ("sched.session_s", "s"),
    ("sched.nonsession_s", "s"),
    ("sched.serial_s", "s"),
    ("sched.sessions", "count"),
    ("sched.exhaustive_socs", "count"),
    ("wrapper.balance_s", "s"),
    ("zoo.check_s", "s"),
    ("zoo.grade_s", "s"),
];

const WORKLOADS: [&str; 4] = ["jpeg_verify", "jpeg_replay", "core_grading", "zoo_flow"];

const USAGE: &str = "usage: perfbench --workload <jpeg_verify|jpeg_replay|core_grading|zoo_flow> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Threads every workload drives: the two cores the benchmark was
/// sized on.
const THREADS: usize = 2;

/// Set-ups per run, whose median is `setup_s`: at least `MIN_SETUPS`,
/// and more while they have taken under `SETUP_SECONDS` in all, up to
/// `MAX_SETUPS`, so millisecond set-ups still give a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_SECONDS: f64 = 1.0;

/// One run's settings, from the command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced: its tally, metrics by name, and lines
/// for the human-readable summary.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets the two timing end-to-end metrics from the timed loop's
    /// `(seconds, items)` samples, one per operation: `op_p50_ms`, and
    /// `items_per_s` as the median rate over operations, so a rare slow
    /// operation does not move it.
    pub fn set_throughput(&mut self, samples: &[(f64, f64)]) {
        let times: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let rates: Vec<f64> = samples.iter().map(|(secs, items)| items / secs).collect();
        self.set(
            "items_per_s",
            stats::median(&rates).expect("the timed loop ran"),
        );
        self.set(
            "op_p50_ms",
            stats::median(&times).expect("the timed loop ran") * 1e3,
        );
        let mut line = format!("{} ops", times.len());
        if let Some(q) = stats::quartiles(&times) {
            let [q1, q2, q3] = q.map(|v| v * 1e3);
            line += &format!(", op time quartiles {q1:.2}/{q2:.2}/{q3:.2} ms");
        }
        if let Some((p, v)) = stats::supported_tail(&times) {
            line += &format!(", p{p} {:.2} ms", v * 1e3);
        }
        self.note(line);
    }
}

/// The executor every workload drives.
pub fn exec() -> Exec {
    Exec::threads(Threads::exact(THREADS))
}

/// Runs `op` back to back until `seconds` have passed (at least once)
/// and returns each run's `(seconds, items)`; `op` returns the items
/// it took to a verdict.
pub fn timed_loop(seconds: f64, mut op: impl FnMut() -> f64) -> Vec<(f64, f64)> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let items = op();
        samples.push((t.elapsed().as_secs_f64(), items));
    }
    samples
}

/// Sets up several times (see [`MIN_SETUPS`]) in `setup` spans, keeping
/// the last result; each result is dropped before the next set-up
/// starts, so they never overlap in memory. Records the median wall
/// time as `setup_s`. Each set-up also schedules the DSC §3 instance,
/// the paper-accuracy reference behind `dsc_cycles_err_pct`.
pub fn set_up<T>(
    report: &mut Report,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> T {
    let mut times = Vec::new();
    let mut last = None;
    let mut totals = None;
    let start = Instant::now();
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        let (value, dsc) = tracer.span("setup", |tr| {
            let value = setup(tr);
            (value, tr.span("sched.dsc", |_| dsc_totals()))
        });
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
        totals = Some(dsc);
    }
    report.set("setup_s", stats::median(&times).expect("set-up ran"));
    let (session, nonsession) = totals.expect("set-up ran");
    let err_pct =
        100.0 * session.abs_diff(PAPER_SESSION_CYCLES) as f64 / PAPER_SESSION_CYCLES as f64;
    report.set("dsc_cycles_err_pct", err_pct);
    report.tally.record(
        err_pct < 1.0 && session < nonsession,
        &format!(
            "DSC §3 totals: session {session} (paper {PAPER_SESSION_CYCLES}), \
             non-session {nonsession} (paper {PAPER_NONSESSION_CYCLES})"
        ),
    );
    last.expect("set-up ran")
}

/// The DSC §3 instance's session-based and non-session test times in
/// cycles; an infeasible schedule reads as `u64::MAX`.
fn dsc_totals() -> (u64, u64) {
    let tasks = dsc_test_tasks();
    let config = dsc_chip_config();
    (
        schedule_sessions(&tasks, &config).map_or(u64::MAX, |s| s.total_cycles),
        schedule_nonsession(&tasks, &config).map_or(u64::MAX, |s| s.makespan),
    )
}

/// A line of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`); 0 where
/// the file is unavailable.
pub fn proc_status_kib(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Self seconds per operation of each layer, from the traced spans.
pub fn per_op(tracer: &Tracer, report: &mut Report, ops: usize, layers: &[(&'static str, &str)]) {
    let self_times = tracer.self_times();
    for &(metric, span) in layers {
        let total = self_times.get(span).copied().unwrap_or(0.0);
        report.set(metric, total / ops.max(1) as f64);
    }
}

/// Set-up layer times, mean per set-up: the `netlist.build` and
/// `sim.compile` spans directly inside `setup` spans.
pub fn setup_layers(tracer: &Tracer, report: &mut Report) {
    let spans = tracer.spans();
    let setups = spans.iter().filter(|s| s.name == "setup").count().max(1);
    for (metric, name) in [
        ("netlist.build_s", "netlist.build"),
        ("sim.compile_s", "sim.compile"),
    ] {
        let total: f64 = spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == "setup"))
            .map(trace::Span::duration)
            .sum();
        report.set(metric, total / setups as f64);
    }
}

/// `trace.covered_pct`: the share of the traced `op` spans' wall time
/// that their child layer spans cover, and the slowest child layer.
pub fn coverage(tracer: &Tracer, report: &mut Report) {
    let op_total = tracer.total("op");
    let self_times = tracer.self_times();
    let op_self = self_times.get("op").copied().unwrap_or(0.0);
    report.set("trace.covered_pct", 100.0 * (op_total - op_self) / op_total);
    let spans = tracer.spans();
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for s in spans {
        if s.parent.is_some_and(|p| spans[p].name == "op") {
            *layers.entry(s.name).or_insert(0.0) += s.duration();
        }
    }
    if let Some((name, secs)) = layers.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
        report.note(format!(
            "slowest layer: {name} ({:.1}% of traced op time)",
            100.0 * secs / op_total
        ));
    }
}

/// `trace.overhead_pct` from the median traced and untraced operation
/// times of the same work.
pub fn overhead(report: &mut Report, traced: &[f64], untraced: &[f64]) {
    let (t, u) = (
        stats::median(traced).expect("traced ops ran"),
        stats::median(untraced).expect("untraced ops ran"),
    );
    report.set("trace.overhead_pct", 100.0 * (t - u) / u);
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_result(report: &Report, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, addr] = args.as_slice() {
        if flag == "--serve" {
            return jpeg::serve(addr);
        }
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(cfg.trace);
    let mut report = Report::default();
    match cfg.workload.as_str() {
        "jpeg_verify" => jpeg::verify(&cfg, &mut tracer, &mut report),
        "jpeg_replay" => jpeg::replay(&cfg, &mut tracer, &mut report),
        "core_grading" => grading::run(&cfg, &mut tracer, &mut report),
        "zoo_flow" => zoo::run(&cfg, &mut tracer, &mut report),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    report.set("peak_rss_mib", proc_status_kib("VmHWM:") as f64 / 1024.0);

    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    if cfg.trace {
        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
        {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    }
    // Per-layer metrics of a bypassed layer read 0; an end-to-end metric
    // must always be measured.
    let unmeasured: Vec<&str> = table
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| match report.metrics.get(name) {
            Some(v) => !v.is_finite(),
            None => !cfg.trace,
        })
        .collect();
    report.tally.record(
        unmeasured.is_empty(),
        &format!("every metric is a finite number: {unmeasured:?} are not"),
    );
    if cfg.trace {
        let fail_ratio = report.tally.fail_ratio();
        report.set("run.fail_ratio", fail_ratio);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for &(name, unit) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  attempted {} failed {} (fail ratio {})",
        report.tally.attempted,
        report.tally.failed,
        report.tally.fail_ratio()
    );
    println!("{}", json_result(&report, table));
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric this binary prints is declared in `BENCHMARK.json`
    /// with the same unit, and names are unique.
    #[test]
    fn metric_tables_match_the_benchmark_file() {
        let json = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        assert_eq!(json.matches("\"unit\"").count(), seen.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args("--workload zoo_flow --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("zoo_flow", 7, 2.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args("--workload zoo_flow --seed 7 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&args("--workload zoo_flow --seed 7 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("--workload zoo_flow --seconds 2 --trace 0")).is_err());
    }

    #[test]
    fn result_line_holds_every_metric_of_the_table() {
        let mut report = Report::default();
        report.tally.record(true, "op");
        report.set("setup_s", 0.5);
        let line = json_result(&report, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
