//! Backend-vs-throughput scaling of the unified execution seam on the
//! paper's two throughput-bound workloads: PPSFP fault grading of the
//! JPEG core and batched ATE playback of its functional patterns —
//! ending with the paper's full 235,696-pattern JPEG functional set
//! driven through the process backend and a remote fleet over
//! localhost (override the pattern count with
//! `STEAC_SCALING_PATTERNS` for quick runs).
//!
//! Every row of the backend tables runs the **same** unified entry point
//! ([`steac_sim::fault::grade_vectors`],
//! [`steac_pattern::apply_cycle_patterns_batch`]) — only the [`Exec`]
//! backend changes: serial, threads 1/2/4/8, worker processes 1/2/4
//! (fleets of persistent stdio sessions), and a remote fleet of
//! `steac-worker --serve` listeners over localhost TCP. Before printing, the binary asserts that coverage
//! and mismatch reports are **bit-identical** on every backend —
//! scaling must never change a verdict, in-process, across processes
//! or across the wire.
//!
//! The closing table holds the backends fixed (single core, serial)
//! and sweeps the *per-core* axis instead: the optimizer (on/off: slot
//! renumbering with single-sweep settle, or neither) for both
//! workloads, each at its one lane width — grading at 256 lanes
//! ([`steac_sim::DEFAULT_LANE_GROUPS`]), playback at 64
//! ([`steac_pattern::PLAYBACK_LANE_GROUPS`]), widths this binary
//! asserts — again requiring byte-identical results in every cell. Each
//! cell builds its program explicitly
//! ([`SimProgram::compile_unoptimized`], then [`opt::optimize`] for the
//! optimized one); the grading cells run every pass of the stuck-at job
//! (kind 1) opened on that program, in-process. Its headline is
//! optimized vs unoptimized grading at 256 lanes; each grading cell is
//! the best of five runs, since one run takes a few milliseconds and a
//! single timing of it reads scheduler noise. A sustained-load table
//! closes the remote story: fixed-rate
//! pattern injection (the SAIBERSOC-style drill — validate the
//! pipeline under the load you claim it takes, not just at
//! saturation) against the TCP fleet, with the fleet's bytes-shipped
//! counters proving the program crossed the wire once per host that
//! ran work (a small set may keep every batch on one host).
//!
//! A fault-model table follows: the registry's other members —
//! transition/delay grading, bridging grading, and March inter-cell
//! coupling simulation — each timed through its unified entry point on
//! the serial backend as the best of five passes, publishing one
//! throughput row per model next to the stuck-at headline.
//!
//! A final table runs the fixed-seed SOC-zoo smoke corpus through the
//! full flow (wrap → share → schedule → grade) and publishes the
//! corpus-wide scheduling / test-time / coverage summary — the
//! standing stress workload's throughput row, on the serial backend
//! and again with grading dispatched through a two-child process fleet
//! (`STEAC_ZOO_SOCS` overrides the corpus size for quick runs).
//!
//! Before any of the materialized tables, a **streaming** table plays
//! the full set — and a 10x synthetic set — through the generate→play
//! pipeline ([`steac_dsc::jpeg_playback_stream`]) without ever holding
//! the pattern set, and records the peak RSS (`VmHWM`) per row: since
//! the high-water mark is monotonic, the streaming rows running first
//! is what makes their small numbers evidence of the bounded-queue
//! memory contract. Every row carries `peak_rss_kib`.
//! Pass `--json` to also write every full-set row to `BENCH_10.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use steac_bench::{header, splitmix_vectors};
use steac_dsc::{jpeg_core, jpeg_functional_patterns, jpeg_playback_stream};
use steac_membist::{enumerate_inter_cell_couplings, fault_coverage, MarchAlgorithm, SramConfig};
use steac_pattern::{apply_cycle_patterns_batch, CyclePattern, PLAYBACK_LANE_GROUPS};
use steac_sim::models::{self, bridging, transition};
use steac_sim::remote::{spawn_serve_process, FleetStatsSnapshot, ServeHandle};
use steac_sim::{
    enumerate_faults, fault, opt, shard, Backend, Exec, Fallback, RemoteFleet, SimProgram,
    Simulator, Threads, DEFAULT_LANE_GROUPS, LANES,
};
use steac_zoo::{run_corpus, RunOptions, ZooParams};

/// One machine-readable result row for `BENCH_10.json`.
struct BenchRow {
    workload: &'static str,
    backend: String,
    lanes: usize,
    opt: bool,
    rate: f64,
    /// `"patterns/s"`, `"faults/s"` or `"tasks/s"`; picks the JSON
    /// rate key.
    unit: &'static str,
    compares: u64,
    mismatches: usize,
    /// Fleet traffic counters for remote rows (program bytes vs unit
    /// bytes shipped); `None` on in-process backends.
    ship: Option<FleetStatsSnapshot>,
    /// Peak resident set (`VmHWM`) when the row was produced. The mark
    /// is process-lifetime monotonic, so the streaming rows — which run
    /// before anything materializes the full set — bound the pipeline's
    /// memory, while later rows carry the materialized set's footprint.
    peak_rss_kib: Option<u64>,
}

/// Peak resident set of this process so far (`VmHWM`), in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn write_json(path: &str, rows: &[BenchRow]) {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let rate_key = match r.unit {
            "faults/s" => "faults_per_s",
            "tasks/s" => "tasks_per_s",
            _ => "patterns_per_s",
        };
        let ship = r.ship.as_ref().map_or(String::new(), |s| {
            format!(
                ", \"program_bytes\": {}, \"unit_bytes\": {}, \"programs_shipped\": {}, \
                 \"need_program_replies\": {}",
                s.program_bytes, s.unit_bytes, s.programs_shipped, s.need_program_replies
            )
        });
        let rss = r
            .peak_rss_kib
            .map_or(String::new(), |kib| format!(", \"peak_rss_kib\": {kib}"));
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"backend\": \"{}\", \"lanes\": {}, \"opt\": {}, \
             \"{rate_key}\": {:.1}, \"compares\": {}, \"mismatches\": {}{ship}{rss}}}{sep}\n",
            r.workload, r.backend, r.lanes, r.opt, r.rate, r.compares, r.mismatches
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out).expect("benchmark JSON writes");
    println!("wrote {path}");
}

/// The fleet inside a remote exec — panics on any other backend, which
/// would be a bug in this binary's plumbing.
fn fleet_of(exec: &Exec) -> &RemoteFleet {
    match exec.backend() {
        Backend::Remote(fleet) => fleet,
        _ => panic!("expected a remote backend, got {exec}"),
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Best-of-`n` timing for the volatile local rows: on a box where the
/// driver, the workers, and the OS share one core, a single pass can
/// randomly pay 2-3x in scheduler interleave, so the committed artifact
/// takes the fastest of `n` identical passes (and asserts the repeats
/// agree bit-for-bit while it is at it).
fn best_of<T: PartialEq + std::fmt::Debug>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best_secs, first) = time(&mut f);
    for _ in 1..n.max(1) {
        let (secs, repeat) = time(&mut f);
        assert_eq!(repeat, first, "a repeated pass changed the result");
        best_secs = best_secs.min(secs);
    }
    (best_secs, first)
}

fn print_row(backend: &str, secs: f64, base_secs: f64, work: f64, unit: &str) {
    println!(
        "{backend:>12} {:>10.0} {unit:<12} {:>8.2}x",
        work / secs.max(1e-12),
        base_secs / secs.max(1e-12),
    );
}

/// The backend table every workload iterates: serial, threads at the
/// scaling widths, and (when the worker binary is discoverable) worker
/// processes at 1/2/4. Process execs use `Fallback::Fail` so a broken
/// worker aborts the run instead of silently timing the thread pool.
fn backends() -> Vec<Exec> {
    let mut execs = vec![Exec::serial()];
    execs.extend([1, 2, 4, 8].map(|t| Exec::threads(Threads::exact(t))));
    if shard::default_worker_binary().is_some() {
        for workers in [1usize, 2, 4] {
            if let Ok(exec) = Exec::parse(&format!("processes:{workers}")) {
                execs.push(exec.with_fallback(Fallback::Fail));
            }
        }
    } else {
        println!(
            "worker binary not found (build the root package first: `cargo build [--release]`); \
             process rows are skipped"
        );
    }
    execs
}

fn table_header() {
    println!(
        "{:>12} {:>10} {:<12} {:>9}",
        "backend", "rate", "", "speedup"
    );
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut rows: Vec<BenchRow> = Vec::new();
    let default_lanes = LANES * DEFAULT_LANE_GROUPS;
    let play_lanes = LANES * PLAYBACK_LANE_GROUPS;
    // The per-workload width choice is part of the measured contract:
    // settle-bound playback plays narrow, compare-dense grading runs
    // wide (BENCH_10's 64- and 256-lane cells are the evidence).
    assert_eq!(play_lanes, 64, "playback must play at the narrow width");
    assert_eq!(default_lanes, 256, "grading must run at the wide width");
    let (module, _) = jpeg_core().expect("jpeg core builds");
    let faults = enumerate_faults(&module);
    let pins: Vec<steac_netlist::NetId> = module
        .ports_with_dir(steac_netlist::PortDir::Input)
        .map(|p| p.net)
        .collect();
    let vectors = splitmix_vectors(&module, 128);

    let cores = Threads::auto().get();
    println!("host parallelism: {cores} core(s)");
    if cores < 8 {
        println!(
            "note: widths above {cores} time-share the available core(s); \
             speedup columns demonstrate determinism, not throughput, there"
        );
    }
    let execs = backends();

    println!(
        "{}",
        header("Exec scaling: JPEG fault grading (PPSFP passes, one API, every backend)")
    );
    println!(
        "{} faults, {} vectors, {} passes",
        faults.len(),
        vectors.len(),
        faults.len().div_ceil(fault::FAULTS_PER_PASS)
    );
    table_header();
    let mut baseline: Option<(f64, fault::CoverageReport)> = None;
    for exec in &execs {
        let (secs, rep) = time(|| {
            fault::grade_vectors(exec, &module, &faults, &pins, &vectors).expect("grading runs")
        });
        if let Some((base_secs, base_rep)) = &baseline {
            assert_eq!(
                &rep, base_rep,
                "coverage diverged on {exec} — dispatch changed a verdict"
            );
            print_row(
                &exec.to_string(),
                secs,
                *base_secs,
                faults.len() as f64,
                "faults/s",
            );
        } else {
            print_row(
                &exec.to_string(),
                secs,
                secs,
                faults.len() as f64,
                "faults/s",
            );
            baseline = Some((secs, rep));
        }
    }
    let (_, rep) = baseline.expect("at least one backend ran");
    println!("coverage on every backend: {rep}");

    let count = 2048;
    let (_, patterns) = jpeg_functional_patterns(&Exec::auto(), count).expect("patterns build");
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim: Simulator = Simulator::new(&module).expect("sim builds");
    println!(
        "{}",
        header("Exec scaling: batched ATE playback (one API, every backend)")
    );
    println!(
        "{count} two-cycle functional patterns, {} lanes/pass, {} passes",
        play_lanes,
        count.div_ceil(play_lanes)
    );
    table_header();
    let mut play_base: Option<(f64, steac_pattern::BatchPlayback)> = None;
    for exec in &execs {
        let (secs, reports) =
            time(|| apply_cycle_patterns_batch(exec, &sim, &refs).expect("plays"));
        if let Some((base_secs, base_reports)) = &play_base {
            assert_eq!(
                &reports, base_reports,
                "mismatch reports diverged on {exec}"
            );
            print_row(
                &exec.to_string(),
                secs,
                *base_secs,
                count as f64,
                "patterns/s",
            );
        } else {
            print_row(&exec.to_string(), secs, secs, count as f64, "patterns/s");
            play_base = Some((secs, reports));
        }
    }
    let (_, playback) = play_base.expect("at least one backend ran");
    let mismatches: usize = playback.reports.iter().map(|r| r.mismatches.len()).sum();
    println!("mismatches on every backend: {mismatches}");

    let full_count: usize = std::env::var("STEAC_SCALING_PATTERNS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(235_696);

    // ---- streaming pipeline: generate→play under bounded queues ----
    //
    // These rows run BEFORE anything materializes the full set: `VmHWM`
    // is a process-lifetime high-water mark, so sampling the streaming
    // rows first is what makes their peak-RSS numbers evidence that
    // pipeline memory is bounded by queue depth — the materialized
    // tables below push the mark to the full set's footprint and it
    // never comes back down. The 10x synthetic set (same generator,
    // ten times the pattern count) proves the bound does not move with
    // set size.
    println!(
        "{}",
        header("Streaming pipeline: generate->play, bounded queues, nothing materialized")
    );
    let sim_opt = sim.program().opt.scheduled;
    let stream_exec = Exec::threads(Threads::exact(4));
    for (workload, n) in [
        ("jpeg_streaming_playback", full_count),
        ("jpeg_streaming_playback_10x", full_count * 10),
    ] {
        let (secs, rep) = time(|| jpeg_playback_stream(&stream_exec, n).expect("streams"));
        assert_eq!(rep.patterns, n, "streaming must play the whole set");
        assert_eq!(rep.mismatches, 0, "streaming playback must be clean");
        let rss = peak_rss_kib();
        println!(
            "{workload:>28}: {n} patterns in {secs:.2}s ({:.0} patterns/s), peak RSS {}",
            n as f64 / secs.max(1e-12),
            rss.map_or("n/a".to_string(), |k| format!(
                "{:.1} MiB",
                k as f64 / 1024.0
            )),
        );
        rows.push(BenchRow {
            workload,
            backend: stream_exec.to_string(),
            lanes: play_lanes,
            opt: sim_opt,
            rate: n as f64 / secs.max(1e-12),
            unit: "patterns/s",
            compares: rep.compares,
            mismatches: rep.mismatches,
            ship: None,
            peak_rss_kib: rss,
        });
    }

    // ---- full-set table: the paper's JPEG functional set ----

    println!(
        "{}",
        header("Exec scaling: full JPEG ATE playback across steac-worker processes")
    );
    match shard::default_worker_binary() {
        Some(bin) => println!("worker binary: {}", bin.display()),
        None => println!("worker binary not found; process rows fall back to threads"),
    }
    println!(
        "{full_count} two-cycle functional patterns (paper set: 235,696), {} lanes/pass, {} passes",
        play_lanes,
        full_count.div_ceil(play_lanes)
    );
    let (gen_secs, (_, full_patterns)) =
        time(|| jpeg_functional_patterns(&Exec::auto(), full_count).expect("patterns build"));
    println!(
        "generated at {:.0} patterns/s",
        full_count as f64 / gen_secs.max(1e-12)
    );
    let full_refs: Vec<&CyclePattern> = full_patterns.iter().collect();
    let serial = Exec::threads(Threads::single());
    // Best-of-2 here: the first pass over the freshly generated set
    // also pays every first-touch page fault, which would otherwise
    // charge cold-memory noise to this reference row alone.
    let (base_secs, baseline) = best_of(2, || {
        apply_cycle_patterns_batch(&serial, &sim, &full_refs).expect("plays")
    });
    let full_compares: u64 = baseline.reports.iter().map(|r| r.compares).sum();
    let full_mismatches: usize = baseline.reports.iter().map(|r| r.mismatches.len()).sum();
    table_header();
    print_row(
        "threads:1",
        base_secs,
        base_secs,
        full_count as f64,
        "patterns/s",
    );
    println!("             ^ in-thread single-threaded reference");
    rows.push(BenchRow {
        workload: "jpeg_full_playback",
        backend: "threads:1".to_string(),
        lanes: play_lanes,
        opt: sim_opt,
        rate: full_count as f64 / base_secs.max(1e-12),
        unit: "patterns/s",
        compares: full_compares,
        mismatches: full_mismatches,
        ship: None,
        peak_rss_kib: peak_rss_kib(),
    });
    for workers in [1usize, 2, 4] {
        let exec = Exec::parse(&format!("processes:{workers}"))
            .expect("processes spec parses (falls back to threads without a binary)")
            .with_fallback(Fallback::Fail);
        let (secs, reports) = best_of(3, || {
            apply_cycle_patterns_batch(&exec, &sim, &full_refs).expect("plays")
        });
        assert_eq!(
            reports, baseline,
            "full-set reports diverged on {exec} — dispatch changed a verdict"
        );
        print_row(
            &exec.to_string(),
            secs,
            base_secs,
            full_count as f64,
            "patterns/s",
        );
        rows.push(BenchRow {
            workload: "jpeg_full_playback",
            backend: exec.to_string(),
            lanes: play_lanes,
            opt: sim_opt,
            rate: full_count as f64 / secs.max(1e-12),
            unit: "patterns/s",
            compares: full_compares,
            mismatches: full_mismatches,
            ship: None,
            peak_rss_kib: peak_rss_kib(),
        });
    }

    // The machine-level row over the same set: a two-host TCP fleet of
    // `steac-worker --serve` listeners on localhost — the wire-for-wire
    // rehearsal of a real multi-host deployment.
    if let Some(bin) = shard::default_worker_binary() {
        let servers: Vec<ServeHandle> = (0..2)
            .map_while(|_| spawn_serve_process(&bin).ok())
            .collect();
        if servers.len() == 2 {
            println!(
                "remote TCP hosts: {}",
                servers
                    .iter()
                    .map(ServeHandle::addr)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let fleet = RemoteFleet::tcp(servers.iter().map(|s| s.addr().to_string()))
                .expect("two addresses collected");
            let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
            let (secs, reports) =
                time(|| apply_cycle_patterns_batch(&exec, &sim, &full_refs).expect("plays"));
            assert_eq!(
                reports, baseline,
                "full-set reports diverged on {exec} — dispatch changed a verdict"
            );
            print_row(
                "remote:tcp*2",
                secs,
                base_secs,
                full_count as f64,
                "patterns/s",
            );
            let fleet = fleet_of(&exec);
            let ship = fleet.stats();
            let statuses = fleet.statuses();
            println!(
                "             ^ shipped {} program bytes ({} ships for {} hosts) + {} unit bytes \
                 over {} requests",
                ship.program_bytes,
                ship.programs_shipped,
                fleet.hosts(),
                ship.unit_bytes,
                ship.requests
            );
            for (endpoint, status) in &statuses {
                match status {
                    Ok(status) => println!("worker {endpoint}: {status}"),
                    Err(e) => println!("worker {endpoint}: status unavailable ({e})"),
                }
            }
            // The content-addressed cache contract, measured, not
            // assumed: on a clean run the program ships once to each
            // host that ran units. A set of a few batches may keep
            // every batch on one host, so the other never needs it.
            let working_hosts = statuses
                .iter()
                .filter(|(_, status)| status.as_ref().is_ok_and(|s| s.units_served > 0))
                .count();
            assert_eq!(
                ship.programs_shipped as usize, working_hosts,
                "the program must ship exactly once per host that ran units: {ship:?}"
            );
            assert_eq!(
                ship.need_program_replies, 0,
                "a clean run never draws a cache miss: {ship:?}"
            );
            rows.push(BenchRow {
                workload: "jpeg_full_playback",
                backend: "remote:tcp*2".to_string(),
                lanes: play_lanes,
                opt: sim_opt,
                rate: full_count as f64 / secs.max(1e-12),
                unit: "patterns/s",
                compares: full_compares,
                mismatches: full_mismatches,
                ship: Some(ship),
                peak_rss_kib: peak_rss_kib(),
            });

            // ---- sustained load: fixed-rate injection on the fleet ----
            //
            // The burst rows above measure saturation throughput; real
            // ATE floors (and the SAIBERSOC argument) care whether the
            // pipeline *sustains* a declared rate. Inject fixed-size
            // batches on a fixed schedule at 75% of the measured burst
            // rate and require the aggregate rate to hold — persistent
            // backlog means the claim was false. Individual slot misses
            // are reported but tolerated: when the injector shares one
            // core with the workers, any scheduler hiccup slips a slot
            // without the fleet actually falling behind.
            println!(
                "{}",
                header("Sustained load: fixed-rate injection over the TCP fleet")
            );
            let burst_rate = full_count as f64 / secs.max(1e-12);
            let batch = 4096.min(full_count.max(1));
            let target_rate = burst_rate * 0.75;
            let interval = Duration::from_secs_f64(batch as f64 / target_rate.max(1e-9));
            let batches: Vec<&[&CyclePattern]> = full_refs.chunks(batch).collect();
            println!(
                "{} batches of {batch} patterns injected every {:.0} ms \
                 (target {target_rate:.0} patterns/s, 75% of burst)",
                batches.len(),
                interval.as_secs_f64() * 1e3
            );
            let mut on_time = 0usize;
            let t0 = Instant::now();
            for (i, chunk) in batches.iter().enumerate() {
                let slot = interval * i as u32;
                if let Some(wait) = slot.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let reports = apply_cycle_patterns_batch(&exec, &sim, chunk).expect("plays");
                assert_eq!(
                    reports.reports,
                    baseline.reports[i * batch..(i * batch + chunk.len())],
                    "sustained-load batch {i} diverged from the serial baseline"
                );
                if t0.elapsed() <= slot + interval {
                    on_time += 1;
                }
            }
            let sustained_secs = t0.elapsed().as_secs_f64();
            let sustained_rate = full_count as f64 / sustained_secs.max(1e-12);
            println!(
                "sustained {sustained_rate:.0} patterns/s over {sustained_secs:.2}s, \
                 {on_time}/{} batches cleared within their slot",
                batches.len()
            );
            assert!(
                sustained_rate >= target_rate * 0.9,
                "the fleet fell behind the declared injection rate: \
                 sustained {sustained_rate:.0} < 90% of target {target_rate:.0}"
            );
            let sustained_ship = fleet.stats();
            assert_eq!(
                sustained_ship.need_program_replies, 0,
                "the cache must hold across sustained batches: {sustained_ship:?}"
            );
            rows.push(BenchRow {
                workload: "jpeg_sustained_playback",
                backend: "remote:tcp*2".to_string(),
                lanes: play_lanes,
                opt: sim_opt,
                rate: sustained_rate,
                unit: "patterns/s",
                compares: full_compares,
                mismatches: full_mismatches,
                ship: Some(sustained_ship),
                peak_rss_kib: peak_rss_kib(),
            });
        } else {
            println!("could not start two --serve workers; remote TCP row skipped");
        }
    }
    println!(
        "reports identical on every backend: {full_compares} compares, \
         {full_mismatches} mismatches"
    );

    // ---- per-core tables: optimizer on/off ----
    //
    // Backends held fixed (serial, one core); what varies is how much
    // work each pass does. Gate-level PPSFP grading of the full JPEG
    // fault set at its one 256-lane width is the headline: the
    // optimizer keeps every instruction (every net is a fault site) and
    // buys the verified-schedule single-sweep settle plus
    // cache-friendly slot renumbering. Reports must be byte-identical
    // in every cell — the optimizer may only change speed, never a
    // verdict.
    println!(
        "{}",
        header("Per-core scaling: optimizer on/off (serial backend)")
    );
    let raw = SimProgram::compile_unoptimized(&module).expect("unoptimized compile");
    let mut optimized = raw.clone();
    opt::optimize(&mut optimized);
    println!(
        "optimizer: {} instructions, slots renumbered, scheduled={}",
        optimized.opt.instrs_after, optimized.opt.scheduled,
    );
    let serial_exec = Exec::serial();
    println!(
        "JPEG fault grading, {} faults x {} vectors:",
        faults.len(),
        vectors.len()
    );
    println!(
        "{:>12} {:>6} {:>10} {:<12} {:>8}",
        "program", "lanes", "rate", "", "speedup"
    );
    // Each cell opens the kind-1 grading job on its own program and
    // times every pass through the job's `run_unit`: the same
    // `grade_pass` kernel `grade_vectors` runs, with the program chosen
    // here instead of by `SimProgram::compile`.
    let units: Vec<Vec<u8>> = faults
        .chunks(fault::FAULTS_PER_PASS)
        .map(models::encode_chunk)
        .collect();
    let mut grade_cell_base: Option<(f64, Vec<Vec<u8>>)> = None;
    let mut speedup = 1.0;
    for (is_opt, program) in [(false, &raw), (true, &optimized)] {
        let label = if is_opt { "optimized" } else { "unoptimized" };
        let job = models::encode_job(program, models::Mode::Grade, &pins, &vectors);
        let mut job = models::open_wire_job::<fault::Fault>(&job).expect("grading job opens");
        let (secs, masks) = best_of(5, || {
            units
                .iter()
                .map(|unit| job.run_unit(unit).expect("grading pass runs"))
                .collect::<Vec<_>>()
        });
        let base = if let Some((base, base_masks)) = &grade_cell_base {
            assert_eq!(&masks, base_masks, "grading masks diverged at opt={is_opt}");
            *base
        } else {
            grade_cell_base = Some((secs, masks));
            secs
        };
        speedup = base / secs.max(1e-12);
        println!(
            "{label:>12} {default_lanes:>6} {:>10.0} {:<12} {speedup:>7.2}x",
            faults.len() as f64 / secs.max(1e-12),
            "faults/s",
        );
        rows.push(BenchRow {
            workload: "jpeg_grading",
            backend: "serial".to_string(),
            lanes: default_lanes,
            opt: is_opt,
            rate: faults.len() as f64 / secs.max(1e-12),
            unit: "faults/s",
            compares: faults.len() as u64,
            mismatches: 0,
            ship: None,
            peak_rss_kib: peak_rss_kib(),
        });
    }
    println!(
        "single-core grading speedup, optimized vs unoptimized at {default_lanes} lanes: \
         {speedup:.2}x"
    );

    // The same two programs over full-set playback, at its one 64-lane
    // width; the reports must not change with the optimizer.
    println!("full-set JPEG playback, {full_count} patterns:");
    let (raw, opt) = (Arc::new(raw), Arc::new(optimized));
    let mut cell_base: Option<(f64, steac_pattern::BatchPlayback)> = None;
    println!(
        "{:>12} {:>6} {:>10} {:<12} {:>8}",
        "program", "lanes", "rate", "", "speedup"
    );
    for (label, is_opt, program) in [("unoptimized", false, &raw), ("optimized", true, &opt)] {
        let psim: Simulator = Simulator::from_program(Arc::clone(program));
        let (secs, reports) =
            time(|| apply_cycle_patterns_batch(&serial_exec, &psim, &full_refs).expect("plays"));
        let base = if let Some((base, base_reports)) = &cell_base {
            assert_eq!(&reports, base_reports, "reports diverged at opt={is_opt}");
            *base
        } else {
            cell_base = Some((secs, reports));
            secs
        };
        println!(
            "{label:>12} {:>6} {:>10.0} {:<12} {:>7.2}x",
            play_lanes,
            full_count as f64 / secs.max(1e-12),
            "patterns/s",
            base / secs.max(1e-12),
        );
        rows.push(BenchRow {
            workload: "jpeg_full_playback",
            backend: "serial".to_string(),
            lanes: play_lanes,
            opt: is_opt,
            rate: full_count as f64 / secs.max(1e-12),
            unit: "patterns/s",
            compares: full_compares,
            mismatches: full_mismatches,
            ship: None,
            peak_rss_kib: peak_rss_kib(),
        });
    }

    // ---- fault-model registry: per-model grading throughput ----
    //
    // The registry's other members, each through its own unified entry
    // point on the serial backend at the one 256-lane grading width:
    // transition/delay and bridging on the JPEG core, inter-cell
    // coupling March simulation on an SRAM sized so the fault list is
    // comparable. One committed row per model sits next to the
    // stuck-at headline above.
    println!(
        "{}",
        header("Fault-model registry: per-model grading throughput (serial backend)")
    );
    println!(
        "{:>12} {:>10} {:<12} {:>9}",
        "model", "rate", "", "detected"
    );
    let tfaults = transition::enumerate_transition_faults(&module);
    let (tsecs, trep) = best_of(5, || {
        transition::grade_transitions(&serial_exec, &module, &tfaults, &pins, &vectors)
            .expect("transition grading runs")
    });
    println!(
        "{:>12} {:>10.0} {:<12} {:>6}/{}",
        "transition",
        tfaults.len() as f64 / tsecs.max(1e-12),
        "faults/s",
        trep.detected,
        trep.total
    );
    rows.push(BenchRow {
        workload: "transition_grading",
        backend: "serial".to_string(),
        lanes: default_lanes,
        opt: sim_opt,
        rate: tfaults.len() as f64 / tsecs.max(1e-12),
        unit: "faults/s",
        compares: tfaults.len() as u64,
        mismatches: 0,
        ship: None,
        peak_rss_kib: peak_rss_kib(),
    });
    let bfaults = bridging::enumerate_bridges(&module).expect("jpeg core compiles");
    let (bsecs, brep) = best_of(5, || {
        bridging::grade_bridges(&serial_exec, &module, &bfaults, &pins, &vectors)
            .expect("bridging grading runs")
    });
    println!(
        "{:>12} {:>10.0} {:<12} {:>6}/{}",
        "bridging",
        bfaults.len() as f64 / bsecs.max(1e-12),
        "faults/s",
        brep.detected,
        brep.total
    );
    rows.push(BenchRow {
        workload: "bridging_grading",
        backend: "serial".to_string(),
        lanes: default_lanes,
        opt: sim_opt,
        rate: bfaults.len() as f64 / bsecs.max(1e-12),
        unit: "faults/s",
        compares: bfaults.len() as u64,
        mismatches: 0,
        ship: None,
        peak_rss_kib: peak_rss_kib(),
    });
    let sram = SramConfig::single_port(256, 8);
    let couplings = enumerate_inter_cell_couplings(&sram);
    let march = MarchAlgorithm::march_c_minus();
    let (csecs, crep) = best_of(5, || {
        fault_coverage(&serial_exec, &march, &sram, &couplings).expect("coupling march runs")
    });
    println!(
        "{:>12} {:>10.0} {:<12} {:>6}/{}",
        "coupling",
        couplings.len() as f64 / csecs.max(1e-12),
        "faults/s",
        crep.detected,
        crep.total
    );
    rows.push(BenchRow {
        workload: "coupling_march",
        backend: "serial".to_string(),
        lanes: default_lanes,
        opt: sim_opt,
        rate: couplings.len() as f64 / csecs.max(1e-12),
        unit: "faults/s",
        compares: couplings.len() as u64,
        mismatches: 0,
        ship: None,
        peak_rss_kib: peak_rss_kib(),
    });

    // ---- SOC zoo: the corpus-wide scheduling / test-time / coverage
    // table, and the standing stress workload's throughput row ----
    //
    // Every SOC runs the full flow (wrap-verify → control sharing →
    // session scheduling → seeded patterns → fault grading) with all
    // scheduler invariants checked; a single violation or infeasible
    // instance aborts the run. The gated rate is flow throughput in
    // scheduled tasks per second on the serial backend.
    println!(
        "{}",
        header("SOC zoo: full flow over the fixed-seed smoke corpus")
    );
    let zoo_socs: usize = std::env::var("STEAC_ZOO_SOCS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(ZooParams::smoke().socs);
    let zoo_params = ZooParams {
        socs: zoo_socs,
        ..ZooParams::smoke()
    };
    let zoo_opts = RunOptions {
        grade: true,
        vectors: 48,
        ..RunOptions::default()
    };
    let (zoo_secs, zoo_report) =
        time(
            || match run_corpus(&zoo_params, &Exec::serial(), &zoo_opts) {
                Ok(r) => r,
                Err((index, e)) => panic!("zoo soc{index:03} infeasible: {e}"),
            },
        );
    println!("{zoo_report}");
    assert_eq!(
        zoo_report.violations(),
        0,
        "the smoke corpus must schedule without invariant violations"
    );
    let zoo_tasks = zoo_report.total_tasks();
    let zoo_rate = zoo_tasks as f64 / zoo_secs.max(1e-12);
    println!(
        "{} SOCs, {zoo_tasks} tasks through the full flow in {zoo_secs:.2}s \
         ({zoo_rate:.0} tasks/s, serial backend)",
        zoo_report.rows.len()
    );
    rows.push(BenchRow {
        workload: "zoo_scheduling",
        backend: "serial".to_string(),
        lanes: 0,
        opt: sim_opt,
        rate: zoo_rate,
        unit: "tasks/s",
        compares: zoo_tasks as u64,
        mismatches: 0,
        ship: None,
        peak_rss_kib: peak_rss_kib(),
    });

    // The same corpus with grading dispatched through a two-child
    // process fleet — the standing stress workload as a *shipped*
    // customer of the exec seam. Scheduling stays in-process (it is
    // not an Exec workload); only the grading inner loops ship to the
    // fleet, and the corpus summary must come back identical. The row
    // keeps its historical `remote:spawn*2` label, under which the
    // BENCH_9 baseline gates it.
    if let Some(bin) = shard::default_worker_binary() {
        let remote = Exec::processes(&bin, 2).with_fallback(Fallback::Fail);
        let (rsecs, rreport) = time(|| match run_corpus(&zoo_params, &remote, &zoo_opts) {
            Ok(r) => r,
            Err((index, e)) => panic!("zoo soc{index:03} infeasible on {remote}: {e}"),
        });
        assert_eq!(rreport.violations(), 0);
        let serial_cov: Vec<Option<f64>> = zoo_report.rows.iter().map(|r| r.coverage).collect();
        let remote_cov: Vec<Option<f64>> = rreport.rows.iter().map(|r| r.coverage).collect();
        assert_eq!(
            remote_cov, serial_cov,
            "remote grading changed a corpus coverage verdict"
        );
        let remote_rate = zoo_tasks as f64 / rsecs.max(1e-12);
        println!(
            "process fleet: {zoo_tasks} tasks in {rsecs:.2}s \
             ({remote_rate:.0} tasks/s, {remote}, identical coverage)"
        );
        rows.push(BenchRow {
            workload: "zoo_scheduling",
            backend: "remote:spawn*2".to_string(),
            lanes: 0,
            opt: sim_opt,
            rate: remote_rate,
            unit: "tasks/s",
            compares: zoo_tasks as u64,
            mismatches: 0,
            ship: None,
            peak_rss_kib: peak_rss_kib(),
        });
    } else {
        println!("worker binary not found; the process-fleet zoo row is skipped");
    }

    if json {
        write_json("BENCH_10.json", &rows);
    }
}
