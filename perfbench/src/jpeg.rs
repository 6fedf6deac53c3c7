//! The JPEG workloads: `jpeg_verify` generates the paper's functional
//! set and plays it to a verdict; `jpeg_replay` replays a stored set on
//! a one-host TCP worker fleet. Neither takes a stimulus seed:
//! `steac_dsc::verify` generates one fixed set.

use crate::stats;
use crate::trace::Tracer;
use crate::{
    coverage, exec, overhead, per_op, proc_status_kib, set_up, setup_layers, timed_loop, Config,
    Report,
};
use std::io::Write as _;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use steac_suite::steac_dsc::{
    jpeg_core, jpeg_functional_patterns, jpeg_playback_batch, jpeg_playback_stream, PlaybackReport,
    TABLE1,
};
use steac_suite::steac_pattern::{
    apply_cycle_patterns_batch, stream_cycle_patterns, BatchPlayback, CyclePattern,
    PLAYBACK_LANE_GROUPS,
};
use steac_suite::steac_sim::remote::{serve_tcp_with_state, spawn_serve_process, ServeHandle};
use steac_suite::steac_sim::shard::{WorkerState, DEFAULT_PROGRAM_CACHE_CAPACITY};
use steac_suite::steac_sim::{
    Exec, Fallback, RemoteFleet, SimProgram, Simulator, TcpTransport, Threads, Transport, LANES,
};

/// The paper's JPEG functional set: Table 1's 235,696 patterns.
fn paper_set() -> usize {
    TABLE1[2].functional_patterns as usize
}

/// Compares per pattern: every JPEG primary output once.
fn compares_per_pattern() -> u64 {
    TABLE1[2].po as u64
}

/// Patterns of the untimed batch-vs-stream check, which also warms
/// `jpeg_verify` up.
const CHECK_PATTERNS: usize = 4_096;

/// Patterns in the stored `jpeg_replay` set: about 0.5 GiB resident.
const REPLAY_PATTERNS: usize = 32_768;

/// Patterns per `jpeg_verify` operation: a quarter of the paper set,
/// so a run holds a dozen operations to take the median of, and the
/// traced run, which materializes what it plays, stays near 1 GiB.
fn op_patterns() -> usize {
    paper_set() / 4
}

/// Packed playback passes for `n` patterns.
fn passes(n: usize) -> usize {
    n.div_ceil(LANES * PLAYBACK_LANE_GROUPS)
}

/// A playback verdict with every pattern compared and none mismatching.
fn clean(r: &PlaybackReport, n: usize) -> bool {
    r.patterns == n
        && r.cycles == 2 * n as u64
        && r.compares == compares_per_pattern() * n as u64
        && r.mismatches == 0
        && r.passes == passes(n)
        && r.process_fallbacks == 0
}

pub fn verify(cfg: &Config, tr: &mut Tracer, rep: &mut Report) {
    let exec = exec();
    let instrs = set_up(rep, tr, |tr| {
        let (module, _) = tr.span("netlist.build", |_| jpeg_core().expect("JPEG core builds"));
        let program = tr.span("sim.compile", |_| {
            SimProgram::compile(&module).expect("compiles")
        });
        program.opt.instrs_after
    });

    let batch = jpeg_playback_batch(&exec, CHECK_PATTERNS);
    let stream = jpeg_playback_stream(&exec, CHECK_PATTERNS);
    rep.tally.record(
        matches!((&batch, &stream), (Ok(b), Ok(s)) if b == s && clean(s, CHECK_PATTERNS)),
        "streamed and materialized reports agree at a small count",
    );

    let n = op_patterns();
    if !cfg.trace {
        let samples = timed_loop(cfg.seconds, || {
            let ok = jpeg_playback_stream(&exec, n).is_ok_and(|r| clean(&r, n));
            rep.tally.record(ok, "streamed verdict");
            n as f64
        });
        rep.set_throughput(&samples);
        return;
    }

    // Traced: the opaque streaming call, then the same count through
    // generation and materialized playback as separate layers, with
    // the reports required to agree.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = std::time::Instant::now();
        let streamed = jpeg_playback_stream(&exec, n);
        untraced.push(t.elapsed().as_secs_f64());

        let t = std::time::Instant::now();
        let fold = tr.span("op", |tr| {
            let (module, patterns) = tr.span("dsc.generate", |_| {
                jpeg_functional_patterns(&exec, n).expect("patterns generate")
            });
            let sim = tr.span("sim.compile", |_| {
                Simulator::new(&module).expect("compiles")
            });
            let cycles: u64 = patterns.iter().map(CyclePattern::cycle_count).sum();
            let mut fold = (0usize, cycles, 0u64, 0usize);
            let run = tr.span("pattern.play", |_| {
                stream_cycle_patterns(&exec, &sim, patterns.into_iter(), |r| {
                    fold.0 += 1;
                    fold.2 += r.compares;
                    fold.3 += r.mismatches.len();
                })
            });
            run.map(|_| fold)
        });
        traced.push(t.elapsed().as_secs_f64());
        let agree = match (&streamed, &fold) {
            (Ok(s), Ok(f)) => clean(s, n) && (s.patterns, s.cycles, s.compares, s.mismatches) == *f,
            _ => false,
        };
        rep.tally
            .record(agree, "decomposed verdict equals the streamed one");
    }
    let ops = traced.len();
    per_op(
        tr,
        rep,
        ops,
        &[
            ("dsc.generate_s", "dsc.generate"),
            ("pattern.play_s", "pattern.play"),
        ],
    );
    setup_layers(tr, rep);
    rep.set("sim.instrs", instrs as f64);
    let (gen, play) = (tr.total("dsc.generate"), tr.total("pattern.play"));
    rep.set("dsc.generate_patterns_per_s", (ops * n) as f64 / gen);
    rep.set("pattern.play_patterns_per_s", (ops * n) as f64 / play);
    rep.set("pattern.passes", passes(n) as f64);
    rep.set(
        "pattern.compares",
        (compares_per_pattern() * n as u64) as f64,
    );
    overhead(rep, &traced, &untraced);
    coverage(tr, rep);
    rep.note(format!(
        "{n} patterns: streamed {:.3} s, generate-then-play {:.3} s (median of {ops})",
        stats::median(&untraced).expect("ops ran"),
        stats::median(&traced).expect("ops ran"),
    ));
}

/// What one `jpeg_replay` set-up leaves behind.
struct Stored {
    /// Kills the worker when dropped.
    _worker: ServeHandle,
    exec: Exec,
    sim: Simulator,
    patterns: Vec<CyclePattern>,
    /// Resident-set growth across generation, per pattern.
    bytes_per_pattern: f64,
}

fn store(tr: &mut Tracer) -> Stored {
    let worker = tr.span("worker.spawn", |_| {
        let me = std::env::current_exe().expect("own executable path");
        spawn_serve_process(&me).expect("worker serves")
    });
    let transport: Box<dyn Transport> = Box::new(TcpTransport::new(worker.addr()).with_streams(1));
    let exec = Exec::remote(RemoteFleet::new(vec![transport])).with_fallback(Fallback::Fail);
    let (module, _) = tr.span("netlist.build", |_| jpeg_core().expect("JPEG core builds"));
    let sim = tr.span("sim.compile", |_| {
        Simulator::new(&module).expect("compiles")
    });
    let rss = proc_status_kib("VmRSS:");
    let (_, patterns) = tr.span("dsc.generate", |_| {
        jpeg_functional_patterns(&crate::exec(), REPLAY_PATTERNS).expect("patterns generate")
    });
    let bytes = (proc_status_kib("VmRSS:").saturating_sub(rss) * 1024) as f64;
    Stored {
        _worker: worker,
        exec,
        sim,
        patterns,
        bytes_per_pattern: bytes / REPLAY_PATTERNS as f64,
    }
}

fn fleet(exec: &Exec) -> &RemoteFleet {
    match exec.backend() {
        steac_suite::steac_sim::Backend::Remote(fleet) => fleet,
        _ => unreachable!("jpeg_replay plays on a remote exec"),
    }
}

pub fn replay(cfg: &Config, tr: &mut Tracer, rep: &mut Report) {
    // Only the first set-up's generation grows a fresh heap; later ones
    // reuse the memory their predecessors freed.
    let mut first_bytes = None;
    let stored = set_up(rep, tr, |tr| {
        let stored = store(tr);
        first_bytes.get_or_insert(stored.bytes_per_pattern);
        stored
    });
    let refs: Vec<&CyclePattern> = stored.patterns.iter().collect();
    let n = refs.len();
    let reference =
        apply_cycle_patterns_batch(&Exec::threads(Threads::single()), &stored.sim, &refs)
            .expect("in-process reference plays");
    let ref_compares: u64 = reference.reports.iter().map(|r| r.compares).sum();
    rep.tally.record(
        reference.passed() && ref_compares == compares_per_pattern() * n as u64,
        "in-process reference verdict is clean",
    );
    let mut fallbacks = 0usize;
    let mut remote_ops = 0usize;
    let mut play = |rep: &mut Report| -> Option<BatchPlayback> {
        remote_ops += 1;
        let out = apply_cycle_patterns_batch(&stored.exec, &stored.sim, &refs);
        let ok = out.as_ref().is_ok_and(|p| *p == reference);
        rep.tally
            .record(ok, "remote reports equal the in-process reference");
        let out = out.ok()?;
        fallbacks += out.process_fallbacks;
        Some(out)
    };
    play(rep); // warm-up: ships the program, fills the worker's cache

    if !cfg.trace {
        let samples = timed_loop(cfg.seconds, || {
            play(rep);
            n as f64
        });
        rep.set_throughput(&samples);
    } else {
        let local = crate::exec();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let (mut requests, mut unit_bytes) = (Vec::new(), Vec::new());
        let start = std::time::Instant::now();
        while traced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
            let t = std::time::Instant::now();
            play(rep);
            untraced.push(t.elapsed().as_secs_f64());

            let before = fleet(&stored.exec).stats();
            let t = std::time::Instant::now();
            tr.span("op", |tr| tr.span("remote.play", |_| play(rep)));
            traced.push(t.elapsed().as_secs_f64());
            let after = fleet(&stored.exec).stats();
            requests.push((after.requests - before.requests) as f64);
            unit_bytes.push((after.unit_bytes - before.unit_bytes) as f64);

            let local_play = tr.span("local", |tr| {
                tr.span("pattern.play", |_| {
                    apply_cycle_patterns_batch(&local, &stored.sim, &refs)
                })
            });
            rep.tally.record(
                local_play.is_ok_and(|p| p == reference),
                "threads reports equal the in-process reference",
            );
        }
        let ops = traced.len();
        per_op(
            tr,
            rep,
            ops,
            &[
                ("remote.play_s", "remote.play"),
                ("pattern.play_s", "pattern.play"),
            ],
        );
        setup_layers(tr, rep);
        rep.set("sim.instrs", stored.sim.program().opt.instrs_after as f64);
        let setups = tr.spans().iter().filter(|s| s.name == "setup").count();
        let generate = tr.total("dsc.generate") / setups as f64;
        rep.set("dsc.generate_s", generate);
        rep.set("dsc.generate_patterns_per_s", n as f64 / generate);
        rep.set("dsc.bytes_per_pattern", first_bytes.expect("set-up ran"));
        let m = |rep: &Report, k: &str| rep.metrics.get(k).copied().unwrap_or(0.0);
        let local_play = m(rep, "pattern.play_s");
        rep.set("pattern.play_patterns_per_s", n as f64 / local_play);
        rep.set("remote.overhead_s", m(rep, "remote.play_s") - local_play);
        rep.set("pattern.passes", passes(n) as f64);
        rep.set("pattern.compares", ref_compares as f64);
        rep.set(
            "remote.requests",
            stats::median(&requests).expect("ops ran"),
        );
        rep.set(
            "remote.unit_bytes",
            stats::median(&unit_bytes).expect("ops ran"),
        );
        worker_layers(&stored.exec, rep, remote_ops);
        overhead(rep, &traced, &untraced);
        coverage(tr, rep);
    }

    let ship = fleet(&stored.exec).stats();
    rep.tally.record(
        ship.programs_shipped == 1 && ship.need_program_replies == 0 && fallbacks == 0,
        &format!("program shipped once, no cache miss, no fallback: {ship:?}"),
    );
    if cfg.trace {
        rep.set("remote.program_bytes", ship.program_bytes as f64);
        rep.set("remote.programs_shipped", ship.programs_shipped as f64);
        rep.set(
            "remote.need_program_replies",
            ship.need_program_replies as f64,
        );
        rep.set("exec.fallbacks", fallbacks as f64);
    }
}

/// Worker-side counters per remote operation (hits, requests, units,
/// bytes) and in total (misses), from the worker's status reply.
fn worker_layers(exec: &Exec, rep: &mut Report, ops: usize) {
    for (endpoint, status) in fleet(exec).statuses() {
        match status {
            Ok(s) => {
                let per = |v: u64| v as f64 / ops as f64;
                rep.set("worker.requests_served", per(s.requests_served));
                rep.set("worker.units_served", per(s.units_served));
                rep.set("worker.bytes_received", per(s.bytes_received));
                rep.set("worker.cache_hits", per(s.cache_hits));
                rep.set("worker.cache_misses", s.cache_misses as f64);
            }
            Err(e) => rep
                .tally
                .record(false, &format!("worker {endpoint} status: {e}")),
        }
    }
}

/// `--serve <addr>`: the worker half of `jpeg_replay`, serving the
/// platform's job registry over TCP like `steac-worker --serve`. It
/// exits when the benchmark that spawned it is gone.
pub fn serve(addr: &str) -> ExitCode {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(0);
        }
    });
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: binding {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let bound = listener
        .local_addr()
        .map_or(addr.to_string(), |a| a.to_string());
    println!("perfbench worker: serving on {bound}");
    let _ = std::io::stdout().flush();
    let registry = steac_suite::worker_registry();
    let state = Arc::new(WorkerState::with_cache_capacity(
        DEFAULT_PROGRAM_CACHE_CAPACITY,
    ));
    match serve_tcp_with_state(listener, move |kind, job| registry.open(kind, job), state) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::from(2)
        }
    }
}
