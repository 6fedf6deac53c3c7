//! Negative-path and policy battery for process-level fan-out behind
//! the unified `Exec` seam: `processes:N`, a fleet of `N` persistent
//! `steac-worker` sessions. The differential (byte-identical) half lives
//! in `tests/exec_matrix.rs`; this file pins that the sessions persist
//! (program shipped once per child, sessions surviving unit errors),
//! that the stdio session itself is total, and what happens when
//! process dispatch **misbehaves**: every failure mode (missing binary,
//! dying worker, corrupt bytes, wrong version) is typed, deterministic
//! and panic-free, and the explicit `Fallback` policy decides — visibly
//! — between in-thread recomputation and a typed error.

use std::collections::BTreeSet;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use steac_membist::{faultsim, MarchAlgorithm, SramConfig};
use steac_netlist::{GateKind, Module, NetId, NetlistBuilder};
use steac_pattern::{apply_cycle_patterns_batch, CyclePattern, PinState};
use steac_sim::models::{encode_chunk, encode_job, FaultModel, Mode};
use steac_sim::shard;
use steac_sim::wire::WireReader;
use steac_sim::{
    fault, Backend, BridgingFault, Exec, Fallback, Fault, Logic, RemoteFleet, SimError, SimProgram,
    Simulator, TransitionFault, Transport, TransportError, STREAM_BATCH_UNITS,
};

/// The worker binary built alongside this test suite.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_steac-worker"))
}

/// A `processes:N` exec over the freshly built worker.
fn processes(workers: usize) -> Exec {
    Exec::processes(&worker_binary(), workers)
}

/// A process exec whose worker binary does not exist.
fn bogus() -> Exec {
    Exec::processes(Path::new("/nonexistent/steac-worker"), 2)
}

/// The fleet inside a process exec.
fn fleet(exec: &Exec) -> &RemoteFleet {
    match exec.backend() {
        Backend::Processes(fleet) => fleet,
        _ => unreachable!("built as a process exec"),
    }
}

/// A ~70-gate module whose fault list spans several passes and whose
/// two-vector test leaves escapes.
fn mixed_module() -> steac_netlist::Module {
    let mut b = NetlistBuilder::new("m");
    let a = b.input("a");
    let mut cur = a;
    for i in 0..70 {
        cur = if i % 3 == 0 {
            b.gate(GateKind::Inv, &[cur])
        } else {
            b.gate(GateKind::Nand2, &[cur, a])
        };
    }
    b.output("y", cur);
    b.finish().unwrap()
}

fn flop_pattern(bits: &[Logic]) -> CyclePattern {
    let mut p = CyclePattern::new(vec!["d".to_string(), "ck".to_string(), "q".to_string()]);
    for &bit in bits {
        p.push_cycle(vec![
            PinState::from_drive(bit),
            PinState::Pulse,
            PinState::from_expect(bit),
        ])
        .unwrap();
    }
    p
}

/// Forces on the dispatcher's simulator (fault injection) must carry
/// into worker processes exactly as they carry into in-thread clones.
#[test]
fn process_playback_carries_forces_across_the_wire() {
    use Logic::{One, Zero};
    let mut b = NetlistBuilder::new("m");
    let d = b.input("d");
    let ck = b.input("ck");
    let q = b.gate(GateKind::Dff, &[d, ck]);
    b.output("q", q);
    let m = b.finish().unwrap();
    let mut sim: Simulator = Simulator::new(&m).unwrap();
    // Stuck-at-0 on the output: every ExpectH pattern must now fail.
    sim.force(m.port("q").unwrap().net, Logic::Zero);
    let patterns: Vec<CyclePattern> = (0..70)
        .map(|i| flop_pattern(&[if i % 2 == 0 { One } else { Zero }]))
        .collect();
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
    assert!(!baseline.passed(), "force must bite");
    let procs = processes(2).with_fallback(Fallback::Fail);
    let processed = apply_cycle_patterns_batch(&procs, &sim, &refs).unwrap();
    assert_eq!(processed, baseline);
}

/// `processes:2` is two persistent sessions. Replaying one set ships
/// the program once per child, never once per dispatch, and each child
/// keeps it cached. A unit error (an unknown job kind) neither kills nor
/// respawns the session that served it: every worker's request counter
/// keeps growing across the runs, and a later valid run still goes by
/// hash without a single "need program" round trip.
#[test]
fn process_fleet_keeps_its_program_and_its_session() {
    use Logic::{One, Zero};
    let mut b = NetlistBuilder::new("m");
    let d = b.input("d");
    let ck = b.input("ck");
    let q = b.gate(GateKind::Dff, &[d, ck]);
    b.output("q", q);
    let m = b.finish().unwrap();
    let sim: Simulator = Simulator::new(&m).unwrap();
    // Eight 32-unit batches of 64 patterns, so both children take work
    // on every run.
    let patterns: Vec<CyclePattern> = (0..8 * STREAM_BATCH_UNITS * 64)
        .map(|i| flop_pattern(&[if i % 3 == 0 { One } else { Zero }]))
        .collect();
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();

    let exec = processes(2).with_fallback(Fallback::Fail);
    for _ in 0..2 {
        let played = apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap();
        assert_eq!(played, baseline);
    }
    let fleet = fleet(&exec);
    let stats = fleet.stats();
    assert_eq!(stats.programs_shipped, 2, "once per child: {stats:?}");
    assert_eq!(stats.need_program_replies, 0, "{stats:?}");
    // Each worker's lifetime request count; `cached` pins its cache size.
    let served = |cached: Option<u64>| -> Vec<u64> {
        let statuses = fleet.statuses();
        assert_eq!(statuses.len(), 2);
        statuses
            .into_iter()
            .map(|(endpoint, status)| {
                let status = status.unwrap_or_else(|e| panic!("{endpoint}: {e}"));
                if let Some(entries) = cached {
                    assert_eq!(status.cache_entries, entries, "{endpoint}: {status}");
                }
                status.requests_served
            })
            .collect()
    };
    let after_replays = served(Some(1));

    let Err(SimError::Worker { unit, diagnostic }) =
        fleet.run(999, b"whatever", &[vec![1], vec![2], vec![3]])
    else {
        panic!("expected a unit error");
    };
    assert_eq!(unit, 0);
    assert!(
        diagnostic.contains("unknown work-unit kind"),
        "{diagnostic}"
    );
    let after_error = served(None);
    // `run` ships its one batch to host 0 first; each worker also
    // answered one more status request.
    assert_eq!(after_error[0], after_replays[0] + 2, "{after_error:?}");
    assert_eq!(after_error[1], after_replays[1] + 1, "{after_error:?}");

    let played = apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap();
    assert_eq!(played, baseline);
    let after_rerun = served(None);
    for host in 0..2 {
        assert!(
            after_replays[host] < after_error[host] && after_error[host] < after_rerun[host],
            "worker {host} restarted: requests served {after_replays:?} -> {after_error:?} \
             -> {after_rerun:?}"
        );
    }
    let stats = fleet.stats();
    assert_eq!(
        stats.need_program_replies, 0,
        "no cache was lost: {stats:?}"
    );
    assert_eq!(exec.process_fallbacks(), 0);
}

/// The worker binary with `args`, its stdio piped.
fn worker_with_args(args: &[&str]) -> Child {
    Command::new(worker_binary())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker spawns")
}

/// Waits (polling, so a hang fails instead of blocking) for a worker to
/// exit on its own; returns its status, stdout and stderr.
fn finish(mut child: Child) -> (ExitStatus, String, String) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the worker did not exit on its own");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let (mut stdout, mut stderr) = (String::new(), String::new());
    let _ = child.stdout.take().unwrap().read_to_string(&mut stdout);
    let _ = child.stderr.take().unwrap().read_to_string(&mut stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    (status, stdout, stderr)
}

/// The stdio session every `processes:N` child runs is total: a status
/// request answers and closing stdin then ends the session with exit 0,
/// so a dead dispatcher leaves no orphan. A non-envelope frame, a
/// truncated header followed by a closed stdin, and an envelope whose
/// payload is no worker request each end it nonzero with a stderr
/// diagnostic — never a hang, never a panic.
#[test]
fn stdio_worker_session_is_total() {
    use std::io::Write as _;
    use steac_sim::remote::{encode_envelope, read_envelope};

    let spawn = || worker_with_args(&[]);

    // Protocol v3 status request: magic, version, tag 1.
    let mut status_request = b"STWQ".to_vec();
    status_request.extend_from_slice(&shard::PROTOCOL_VERSION.to_le_bytes());
    status_request.push(1);
    let mut child = spawn();
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(&encode_envelope(7, &status_request))
        .unwrap();
    let (id, reply) = read_envelope(child.stdout.as_mut().unwrap()).unwrap();
    assert_eq!(id, 7, "the response echoes the request id");
    assert!(reply.starts_with(b"STWR"), "{reply:?}");
    assert_eq!(reply[6], 2, "a status reply");
    drop(stdin);
    let (status, _, stderr) = finish(child);
    assert!(status.success(), "{status}: {stderr}");

    let header = &encode_envelope(1, b"payload")[..10];
    for (case, bytes, close) in [
        (
            "non-envelope frame",
            &b"this is not an envelope at all"[..],
            false,
        ),
        ("truncated header", header, true),
        (
            "non-request payload",
            &encode_envelope(1, b"not a request")[..],
            false,
        ),
    ] {
        let mut child = spawn();
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(bytes).unwrap();
        if close {
            drop(stdin);
        }
        let (status, _, stderr) = finish(child);
        assert!(!status.success(), "{case}: {status}");
        assert!(stderr.contains("steac-worker"), "{case}: {stderr}");
    }
}

/// The worker has no cache-size flag: `--serve` with one is a usage
/// error that exits 2 before binding, so no address is announced.
#[test]
fn cache_cap_flag_is_a_usage_error() {
    let child = worker_with_args(&["--serve", "127.0.0.1:0", "--cache-cap", "4"]);
    let (status, stdout, stderr) = finish(child);
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("usage: steac-worker [--serve <host:port> | --status <host:port>]"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "announced an address: {stdout}");
}

/// The default-discovery path (`shard::default_worker_binary`) must find
/// the freshly built worker from a test executable, and an
/// `Exec::parse("processes:2")` backend must report identically through
/// it.
#[test]
fn default_discovery_finds_the_worker_and_reports_identically() {
    assert!(
        shard::default_worker_binary().is_some(),
        "worker binary should be discoverable next to the test executable"
    );
    let discovered = Exec::parse("processes:2")
        .unwrap()
        .with_fallback(Fallback::Fail);
    assert_eq!(discovered.to_string(), "processes:2");
    let baseline = steac_dsc::jpeg_playback_batch(&Exec::serial(), 130).unwrap();
    let processed = steac_dsc::jpeg_playback_batch(&discovered, 130).unwrap();
    assert_eq!(processed, baseline);
    assert_eq!(discovered.process_fallbacks(), 0);
}

/// A worker binary that cannot be spawned at all degrades gracefully
/// under the default `Fallback::InThread` policy: same report, no
/// error — but the fallback is **surfaced**, counted on the exec and
/// recorded in the report (the old silent-policy bug, fixed).
#[test]
fn spawn_failure_falls_back_in_thread_and_is_counted() {
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero], vec![Logic::One]];
    let baseline = fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();

    let forgiving = bogus();
    let report = fault::grade_vectors(&forgiving, &m, &faults, &pins, &vectors).unwrap();
    assert_eq!(report.detected, baseline.detected);
    assert_eq!(report.undetected, baseline.undetected);
    assert_eq!(report.process_fallbacks, 1, "fallback must be recorded");
    assert!(
        report.to_string().contains("fell back in-thread"),
        "{report}"
    );
    assert_eq!(forgiving.process_fallbacks(), 1);

    // March: the workload that used to fall back silently. Same
    // verdicts, visible degradation.
    let cfg = SramConfig::single_port(16, 2);
    let mfaults = vec![steac_membist::MemFault::stuck_at(3, 0, true)];
    let alg = MarchAlgorithm::march_c_minus();
    let march_base = faultsim::fault_coverage(&Exec::serial(), &alg, &cfg, &mfaults).unwrap();
    let forgiving = bogus();
    let march = faultsim::fault_coverage(&forgiving, &alg, &cfg, &mfaults).unwrap();
    assert_eq!(march.detected, march_base.detected);
    assert_eq!(march.escaped, march_base.escaped);
    assert_eq!(march.process_fallbacks, 1);
    assert_eq!(forgiving.process_fallbacks(), 1);
}

/// Under `Fallback::Fail` the same spawn failure is a typed error on
/// unit 0 instead, naming the binary — for every workload, March
/// included.
#[test]
fn spawn_failure_is_a_typed_error_under_fail_policy() {
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero]];
    let strict = bogus().with_fallback(Fallback::Fail);
    match fault::grade_vectors(&strict, &m, &faults, &pins, &vectors).unwrap_err() {
        SimError::Worker { unit, diagnostic } => {
            assert_eq!(unit, 0);
            assert!(
                diagnostic.contains("/nonexistent/steac-worker"),
                "{diagnostic}"
            );
        }
        other => panic!("expected SimError::Worker, got {other:?}"),
    }
    let cfg = SramConfig::single_port(16, 2);
    let mfaults = vec![steac_membist::MemFault::stuck_at(3, 0, true)];
    let alg = MarchAlgorithm::march_c_minus();
    let strict = bogus().with_fallback(Fallback::Fail);
    match faultsim::fault_coverage(&strict, &alg, &cfg, &mfaults).unwrap_err() {
        SimError::Worker { unit, .. } => assert_eq!(unit, 0),
        other => panic!("expected SimError::Worker, got {other:?}"),
    }
    assert_eq!(strict.process_fallbacks(), 0);
}

/// A worker that dies without producing results surfaces as the
/// lowest-indexed unit under `Fallback::Fail` once the fleet's retries
/// (each respawning the child) are spent — and recomputes cleanly under
/// the default policy.
#[test]
fn dying_worker_follows_the_policy() {
    let false_bin = PathBuf::from("/bin/false");
    if !false_bin.is_file() {
        eprintln!("skipping: /bin/false not present");
        return;
    }
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero]];
    let dying = || Exec::processes(&false_bin, 2);

    let strict = dying().with_fallback(Fallback::Fail);
    match fault::grade_vectors(&strict, &m, &faults, &pins, &vectors).unwrap_err() {
        SimError::Worker { unit, diagnostic } => {
            assert_eq!(unit, 0, "lowest-indexed unit wins: {diagnostic}");
        }
        other => panic!("expected SimError::Worker, got {other:?}"),
    }

    let forgiving = dying();
    let baseline = fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
    let report = fault::grade_vectors(&forgiving, &m, &faults, &pins, &vectors).unwrap();
    assert_eq!(report.detected, baseline.detected);
    assert_eq!(report.process_fallbacks, 1);
}

/// An unknown job kind is reported per unit by a healthy worker — the
/// registry's diagnostic — and the dispatcher deterministically picks
/// unit 0.
#[test]
fn unknown_job_kind_is_a_lowest_indexed_unit_error() {
    let exec = processes(2);
    let Err(SimError::Worker { unit, diagnostic }) =
        fleet(&exec).run(999, b"whatever", &[vec![1], vec![2], vec![3]])
    else {
        panic!("expected a unit error");
    };
    assert_eq!(unit, 0);
    assert!(
        diagnostic.contains("unknown work-unit kind"),
        "{diagnostic}"
    );
}

/// Corrupt job bytes (valid protocol envelope, garbage payload) come
/// back as typed unit errors carrying the wire diagnostic — the worker
/// answers rather than panicking — for every registered kind, all on
/// one session.
#[test]
fn corrupt_job_bytes_are_typed_unit_errors() {
    let exec = processes(1);
    for (kind, _) in steac_suite::worker_registry().kinds() {
        let Err(SimError::Worker { unit, diagnostic }) =
            fleet(&exec).run(kind, &[0xDE, 0xAD, 0xBE, 0xEF], &[vec![0; 4]])
        else {
            panic!("kind {kind}: expected a unit error");
        };
        assert_eq!(unit, 0, "kind {kind}");
        assert!(!diagnostic.is_empty(), "kind {kind}");
    }
}

/// Worker totality for one `(kind, job, unit)`: every strict prefix of
/// the valid job or unit is a typed error, and every single-byte change
/// of either (each byte set to each of its 255 other values) opens and
/// runs to `Ok` or a typed `Err` — never a panic — through the registry
/// the worker binary routes by.
fn sweep_job(kind: u16, job: &[u8], unit: &[u8]) {
    sweep_job_where(kind, job, unit, |_| true);
}

/// [`sweep_job`], except that a changed job which opens runs the unit
/// only when `runnable` accepts its bytes.
fn sweep_job_where(kind: u16, job: &[u8], unit: &[u8], runnable: impl Fn(&[u8]) -> bool) {
    let registry = steac_suite::worker_registry();
    let mut opened = registry.open(kind, job).unwrap();
    assert!(opened.run_unit(unit).is_ok(), "kind {kind}");
    for cut in 0..job.len() {
        assert!(
            registry.open(kind, &job[..cut]).is_err(),
            "kind {kind} job prefix {cut}"
        );
    }
    for cut in 0..unit.len() {
        assert!(
            opened.run_unit(&unit[..cut]).is_err(),
            "kind {kind} unit prefix {cut}"
        );
    }
    for i in 0..job.len() {
        for flip in 1..=u8::MAX {
            let mut bad = job.to_vec();
            bad[i] ^= flip;
            if let Ok(mut flipped) = registry.open(kind, &bad) {
                if runnable(&bad) {
                    let _ = flipped.run_unit(unit);
                }
            }
        }
    }
    for i in 0..unit.len() {
        for flip in 1..=u8::MAX {
            let mut bad = unit.to_vec();
            bad[i] ^= flip;
            let _ = opened.run_unit(&bad);
        }
    }
}

/// A two-gate module with two outputs and three vectors over its pins.
fn nand_xor() -> (Module, [NetId; 2], Vec<Vec<Logic>>) {
    use Logic::{One, Zero};
    let mut b = NetlistBuilder::new("m");
    let a = b.input("a");
    let c = b.input("b");
    let y = b.gate(GateKind::Nand2, &[a, c]);
    let z = b.gate(GateKind::Xor2, &[y, a]);
    b.output("y", y);
    b.output("z", z);
    let vectors = vec![vec![Zero, One], vec![One, One], vec![One, Zero]];
    (b.finish().unwrap(), [a, c], vectors)
}

/// Sweeps one fault model's job in both modes over one pass's unit.
fn sweep_fault_jobs<F: FaultModel>(m: &Module, pins: &[NetId], vectors: &[Vec<Logic>]) {
    let program = SimProgram::compile(m).unwrap();
    let faults = F::enumerate(m).unwrap();
    let unit = encode_chunk(&faults[..faults.len().min(fault::FAULTS_PER_PASS)]);
    for mode in [Mode::Grade, Mode::Dictionary] {
        sweep_job(
            F::WIRE_KIND,
            &encode_job(&program, mode, pins, vectors),
            &unit,
        );
    }
}

#[test]
fn fault_jobs_are_total_under_truncation_and_byte_flips() {
    let (m, pins, vectors) = nand_xor();
    sweep_fault_jobs::<Fault>(&m, &pins, &vectors);
    sweep_fault_jobs::<TransitionFault>(&m, &pins, &vectors);
    sweep_fault_jobs::<BridgingFault>(&m, &pins, &vectors);
}

/// The March job (kind 3) is total too: a MATS+ job over a 16 x 2 SRAM
/// and a one-walk unit holding one fault of each of the eight classes.
/// A changed geometry word can declare up to 2^22 cells, which the job
/// accepts but a walk would take long over, so a changed job over more
/// than 4,096 cells is opened and not run.
#[test]
fn march_jobs_are_total_under_truncation_and_byte_flips() {
    use steac_membist::wire::{decode_march_job, encode_fault_unit, encode_march_job, WIRE_KIND};
    use steac_membist::MemFault;
    let cfg = SramConfig::single_port(16, 2);
    let job = encode_march_job(&MarchAlgorithm::mats_plus(), &cfg);
    let unit = encode_fault_unit(&[
        MemFault::stuck_at(3, 0, true),
        MemFault::Transition {
            addr: 5,
            bit: 1,
            rising: false,
        },
        MemFault::CouplingInversion {
            aggressor: (1, 0),
            victim: (2, 1),
            rising: true,
        },
        MemFault::CouplingIdempotent {
            aggressor: (4, 1),
            victim: (4, 0),
            rising: false,
            forced: true,
        },
        MemFault::CouplingState {
            aggressor: (7, 0),
            victim: (9, 1),
            state: true,
            forced: false,
        },
        MemFault::AfNoAccess { addr: 6 },
        MemFault::AfMultiAccess { addr: 10, also: 11 },
        MemFault::AfOtherAccess {
            addr: 12,
            other: 13,
        },
    ]);
    let small = |job: &[u8]| {
        decode_march_job(job).is_ok_and(|(_, geometry)| geometry.words * geometry.width <= 4_096)
    };
    sweep_job_where(WIRE_KIND, &job, &unit, small);
}

/// A one-host transport that records every request and serves it
/// in-process through the worker registry.
struct Recording {
    state: shard::WorkerState,
    requests: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Transport for Recording {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.requests.lock().unwrap().push(request.to_vec());
        let registry = steac_suite::worker_registry();
        let open = |kind, job: &[u8]| registry.open(kind, job);
        Ok(shard::process_request_with(request, open, &self.state).expect("a valid request"))
    }
    fn endpoint(&self) -> String {
        "recording".to_string()
    }
}

/// Runs `workload` on a one-host recording fleet under
/// `Fallback::Fail` and returns every request the host received.
fn recorded_requests(workload: impl FnOnce(&Exec)) -> Vec<Vec<u8>> {
    let requests = Arc::new(Mutex::new(Vec::new()));
    let host = Recording {
        state: shard::WorkerState::new(),
        requests: Arc::clone(&requests),
    };
    workload(&Exec::remote(RemoteFleet::new(vec![Box::new(host)])).with_fallback(Fallback::Fail));
    let requests = requests.lock().unwrap().clone();
    requests
}

/// Runs `workload` on a one-host recording fleet and returns the kind,
/// the job and the first unit of its first request — the one that
/// ships the job inline.
fn first_request(workload: impl FnOnce(&Exec)) -> (u16, Vec<u8>, Vec<u8>) {
    let request = recorded_requests(workload).swap_remove(0);
    // Past the magic, version and tag: kind, job hash, inline flag.
    let mut r = WireReader::new(&request[7..]);
    let kind = r.get_u16("kind").unwrap();
    let _hash = r.get_u64("job hash").unwrap();
    assert_eq!(r.get_u8("job present").unwrap(), 1, "shipped inline");
    let job = r.get_block("job").unwrap().to_vec();
    let _count = r.get_usize("unit count").unwrap();
    let _index = r.get_usize("unit index").unwrap();
    (kind, job, r.get_block("unit").unwrap().to_vec())
}

/// The sweep over the private encoders' bytes: a real playback request
/// (kind 2, with a force in its job), captured on the wire, and a
/// generation job (kind 7) over the same flop — the JPEG program is far
/// too large to flip every byte of. Diagnosis, which the name still
/// mentions, ranks in place and has no wire job to sweep.
#[test]
fn playback_and_diagnose_jobs_are_total_under_truncation_and_byte_flips() {
    use Logic::{One, Zero};
    let mut b = NetlistBuilder::new("m");
    let d = b.input("d");
    let ck = b.input("ck");
    let q = b.gate(GateKind::Dff, &[d, ck]);
    b.output("q", q);
    let flop = b.finish().unwrap();
    let mut sim: Simulator = Simulator::new(&flop).unwrap();
    sim.force(q, Zero);
    let patterns = [flop_pattern(&[One, Zero]), flop_pattern(&[Zero, One])];
    let (kind, job, unit) = first_request(|exec| {
        apply_cycle_patterns_batch(exec, &sim, &[&patterns[0], &patterns[1]]).unwrap();
    });
    assert_eq!(kind, steac_pattern::cycle::WIRE_KIND);
    sweep_job(kind, &job, &unit);

    let program = SimProgram::compile(&flop).unwrap();
    let job = steac_dsc::verify::encode_generate_job(&program, &[d], ck, &[q], 3);
    sweep_job(steac_dsc::verify::WIRE_KIND, &job, &0u64.to_le_bytes());
}

/// The streaming JPEG pipeline ships both of its dispatches: one
/// host receives generation blocks (kind 7) and playback blocks
/// (kind 2), and the report is the serial one, with no fallback.
#[test]
fn jpeg_stream_ships_generation_and_playback() {
    let mut report = None;
    let requests = recorded_requests(|exec| {
        report = Some(steac_dsc::jpeg_playback_stream(exec, 130).unwrap());
    });
    let kinds: BTreeSet<u16> = requests
        .iter()
        .map(|request| WireReader::new(&request[7..]).get_u16("kind").unwrap())
        .collect();
    assert_eq!(
        kinds,
        BTreeSet::from([
            steac_pattern::cycle::WIRE_KIND,
            steac_dsc::verify::WIRE_KIND
        ])
    );
    let report = report.unwrap();
    assert_eq!(report.process_fallbacks, 0);
    assert_eq!(
        report,
        steac_dsc::jpeg_playback_batch(&Exec::serial(), 130).unwrap()
    );
}

/// Corrupt *unit* bytes under a valid job: the decode failure is
/// attributed to exactly the corrupt unit — healthy units before it
/// still compute, proven by the error index pointing past them.
#[test]
fn corrupt_unit_bytes_fail_only_that_unit() {
    let cfg = SramConfig::single_port(16, 2);
    let alg = MarchAlgorithm::march_c_minus();
    let job = steac_membist::wire::encode_march_job(&alg, &cfg);
    let good =
        steac_membist::wire::encode_fault_unit(&[steac_membist::MemFault::stuck_at(3, 0, true)]);
    let corrupt = vec![0xFF; 3];
    let exec = processes(1);
    let Err(SimError::Worker { unit, diagnostic }) = fleet(&exec).run(
        steac_membist::wire::WIRE_KIND,
        &job,
        &[good.clone(), corrupt, good],
    ) else {
        panic!("expected a unit error");
    };
    assert_eq!(unit, 1, "only the corrupt unit fails: {diagnostic}");
}

/// Truncated and version-bumped program blobs decode to typed errors —
/// the wire layer's contract, checked here at the integration level on a
/// realistically sized program (the JPEG core).
#[test]
fn jpeg_program_wire_negative_paths_are_typed() {
    let (module, _) = steac_dsc::jpeg_core().unwrap();
    let program = steac_sim::SimProgram::compile(&module).unwrap();
    let bytes = steac_sim::wire::encode_program(&program);
    let back = steac_sim::wire::decode_program(&bytes).unwrap();
    assert_eq!(back, program);

    // Wrong version.
    let mut versioned = bytes.clone();
    versioned[4] = versioned[4].wrapping_add(1);
    assert!(matches!(
        steac_sim::wire::decode_program(&versioned),
        Err(steac_sim::WireError::UnsupportedVersion { .. })
    ));
    // Wrong magic.
    let mut magicked = bytes.clone();
    magicked[0] = b'?';
    assert!(matches!(
        steac_sim::wire::decode_program(&magicked),
        Err(steac_sim::WireError::BadMagic { .. })
    ));
    // Truncations at a spread of cut points (the exhaustive sweep runs
    // in the sim crate's unit tests on a small program).
    for cut in (0..bytes.len()).step_by(997) {
        assert!(
            steac_sim::wire::decode_program(&bytes[..cut]).is_err(),
            "prefix {cut}"
        );
    }
    // Single-byte corruption at a spread of positions never panics.
    for i in (0..bytes.len()).step_by(613) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x5A;
        let _ = steac_sim::wire::decode_program(&corrupt);
    }
}
