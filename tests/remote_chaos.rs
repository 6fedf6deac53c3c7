//! Chaos/differential battery for the Remote backend: every injected
//! transport failure — killed hosts, dropped/truncated/corrupted/
//! duplicated/delayed responses, rogue TCP peers — must resolve per
//! the explicit `Fallback` policy with **no panics** and a merge that
//! stays **byte-identical** to the serial baseline whenever the run
//! survives. This is the SAIBERSOC-style argument applied to the
//! distributed layer: the pipeline is validated by *injecting* the
//! failures, not by hoping the happy path generalises.
//!
//! The injection engine is [`FlakyTransport`], a deterministic-schedule
//! test double wrapping a real transport — the same persistent
//! `steac-worker` child sessions that `processes:N` deploys, so every
//! surviving byte still crosses a real process boundary. It counts the
//! injections it fires, by mode, and the schedule tests replay their
//! workload on the same fleet until every mode in the schedule has
//! fired — a chaos test whose injections never fire proves nothing.
//! `STEAC_CHAOS_SCALE` (default 1) multiplies the workload size —
//! CI's nightly chaos job runs the same battery at scale 8.

mod common;

use common::{spawn_serve_worker, worker_binary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use steac_netlist::{GateKind, NetlistBuilder};
use steac_pattern::{apply_cycle_patterns_batch, CyclePattern, PinState};
use steac_sim::remote::spawn_serve_process_at;
use steac_sim::{
    fault, shard, Backend, Exec, Fallback, Logic, ProcessTransport, RemoteFleet, SimError,
    Simulator, TcpTransport, Transport, TransportError, STREAM_BATCH_UNITS,
};

/// Chaos amplification knob: multiplies pattern counts.
fn chaos_scale() -> usize {
    std::env::var("STEAC_CHAOS_SCALE")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// One injected misbehaviour of a [`FlakyTransport`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Run the request, then lose the response (the work happened —
    /// retries must merge idempotently).
    Drop,
    /// Return only the first half of the response bytes.
    Truncate,
    /// Flip bytes in the response header (corrupt envelope/frame).
    Corrupt,
    /// Return the response twice, back to back.
    Duplicate,
    /// Deliver the response late.
    Delay,
    /// Refuse the call outright without running anything (dead host).
    Dead,
}

/// The injections fired so far, in firing order — shared by the flaky
/// hosts of one fleet, so a test can show its schedule actually bit.
#[derive(Clone, Default)]
struct Fired(Arc<Mutex<Vec<Injection>>>);

impl Fired {
    /// How many injections of `mode` have fired.
    fn count(&self, mode: Injection) -> usize {
        let fired = self.0.lock().unwrap();
        fired.iter().filter(|&&m| m == mode).count()
    }
}

/// Most times a schedule test replays its workload waiting for every
/// mode to fire.
const MAX_CHAOS_RUNS: usize = 40;

/// Runs `play` (which asserts its own report is byte-identical) on the
/// same fleet until every mode in `modes` has fired at least once, and
/// fails if that takes more than [`MAX_CHAOS_RUNS`] runs.
fn until_every_mode_fires(fired: &Fired, modes: &[Injection], mut play: impl FnMut()) {
    for _ in 0..MAX_CHAOS_RUNS {
        play();
        if modes.iter().all(|&mode| fired.count(mode) > 0) {
            return;
        }
    }
    let counts: Vec<_> = modes
        .iter()
        .map(|&mode| (mode, fired.count(mode)))
        .collect();
    panic!("not every injection fired in {MAX_CHAOS_RUNS} runs: {counts:?}");
}

/// Deterministic-schedule failure injector: wraps a real transport and
/// misbehaves per `schedule(call_index)`, recording each injection in
/// `fired`. The schedule is a pure function of the per-transport call
/// counter, so a test's injection plan is reproducible regardless of
/// thread interleaving — and the *report* must come out byte-identical
/// regardless of which calls the failures land on.
struct FlakyTransport<S: Fn(usize) -> Option<Injection> + Send + Sync> {
    inner: Box<dyn Transport>,
    schedule: S,
    calls: AtomicUsize,
    fired: Fired,
}

impl<S: Fn(usize) -> Option<Injection> + Send + Sync> FlakyTransport<S> {
    fn over(inner: Box<dyn Transport>, schedule: S, fired: &Fired) -> Box<Self> {
        Box::new(FlakyTransport {
            inner,
            schedule,
            calls: AtomicUsize::new(0),
            fired: fired.clone(),
        })
    }
}

impl<S: Fn(usize) -> Option<Injection> + Send + Sync> Transport for FlakyTransport<S> {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let injection = (self.schedule)(call);
        if let Some(mode) = injection {
            self.fired.0.lock().unwrap().push(mode);
        }
        match injection {
            None => self.inner.call(request),
            Some(Injection::Dead) => Err(TransportError::Unreachable {
                endpoint: self.endpoint(),
                diagnostic: "injected: host down".to_string(),
            }),
            Some(Injection::Drop) => {
                let _ = self.inner.call(request);
                Err(TransportError::Io {
                    diagnostic: "injected: response dropped".to_string(),
                })
            }
            Some(Injection::Truncate) => {
                let response = self.inner.call(request)?;
                Ok(response[..response.len() / 2].to_vec())
            }
            Some(Injection::Corrupt) => {
                let mut response = self.inner.call(request)?;
                for byte in response.iter_mut().take(6) {
                    *byte ^= 0xA5;
                }
                Ok(response)
            }
            Some(Injection::Duplicate) => {
                let response = self.inner.call(request)?;
                let mut doubled = response.clone();
                doubled.extend_from_slice(&response);
                Ok(doubled)
            }
            Some(Injection::Delay) => {
                std::thread::sleep(Duration::from_millis(20));
                self.inner.call(request)
            }
        }
    }

    fn endpoint(&self) -> String {
        format!("flaky({})", self.inner.endpoint())
    }
}

/// One persistent worker child, as each slot of `processes:N` runs it.
fn spawn() -> Box<dyn Transport> {
    Box::new(ProcessTransport::new(worker_binary()))
}

fn flaky(
    fired: &Fired,
    schedule: impl Fn(usize) -> Option<Injection> + Send + Sync + 'static,
) -> Box<dyn Transport> {
    FlakyTransport::over(spawn(), schedule, fired)
}

/// Patterns in one shipped batch: 32 units of 64 lanes each.
const BATCH_PATTERNS: usize = STREAM_BATCH_UNITS * 64;

/// A DFF playback workload with deliberately failing patterns, so the
/// mismatch logs (content AND order) cross every chaotic merge.
fn playback_case(patterns: usize) -> (steac_netlist::Module, Vec<CyclePattern>) {
    use Logic::{One, Zero};
    let mut b = NetlistBuilder::new("m");
    let d = b.input("d");
    let ck = b.input("ck");
    let q = b.gate(GateKind::Dff, &[d, ck]);
    b.output("q", q);
    let m = b.finish().unwrap();
    let patterns: Vec<CyclePattern> = (0..patterns as u32)
        .map(|i| {
            let mut p = CyclePattern::new(vec!["d".to_string(), "ck".to_string(), "q".to_string()]);
            for k in 0..4u32 {
                let bit = if (i >> (k % 5)) & 1 == 1 { One } else { Zero };
                p.push_cycle(vec![
                    PinState::from_drive(bit),
                    PinState::Pulse,
                    PinState::from_expect(bit),
                ])
                .unwrap();
            }
            if i % 49 == 7 {
                p.cycles[2][2] = PinState::ExpectH;
                p.cycles[2][0] = PinState::Drive0;
            }
            p
        })
        .collect();
    (m, patterns)
}

/// A ~70-gate cone whose fault list spans several passes and whose
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

/// Runs the playback workload on `exec` and asserts the report is
/// byte-identical to the serial baseline.
fn assert_playback_identical(exec: &Exec, patterns: usize) {
    let (m, patterns) = playback_case(patterns);
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim: Simulator = Simulator::new(&m).unwrap();
    let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
    assert!(!baseline.passed(), "the case must carry mismatches");
    let chaotic = apply_cycle_patterns_batch(exec, &sim, &refs).unwrap();
    assert_eq!(chaotic, baseline, "chaos changed a report on {exec}");
    assert_eq!(exec.process_fallbacks(), 0, "fleet retries must suffice");
}

/// A host that dies on its very first call: the batches homed on it
/// fail over onto the surviving host and the report stays
/// byte-identical — the killed-host drill.
#[test]
fn killed_host_requeues_and_the_report_is_identical() {
    let fired = Fired::default();
    let fleet = RemoteFleet::new(vec![flaky(&fired, |_| Some(Injection::Dead)), spawn()]);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    until_every_mode_fires(&fired, &[Injection::Dead], || {
        assert_playback_identical(&exec, 150 * chaos_scale());
    });
}

/// A host that dies mid-run (healthy for its first calls, gone after):
/// a dispatch of eight batches loses it part-way, its batches fail
/// over, the survivor finishes, same report. The streaming JPEG flow
/// then runs two dispatches, generation and playback, on the same
/// fleet at once; each loses the dead host, and the report is still
/// the serial one.
#[test]
fn host_lost_mid_run_requeues_its_in_flight_units() {
    let fired = Fired::default();
    let fleet = RemoteFleet::new(vec![
        flaky(&fired, |call| (call >= 2).then_some(Injection::Dead)),
        spawn(),
    ]);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    let jpeg_patterns = 4 * BATCH_PATTERNS * chaos_scale();
    let jpeg_base = steac_dsc::jpeg_playback_stream(&Exec::serial(), jpeg_patterns).unwrap();
    until_every_mode_fires(&fired, &[Injection::Dead], || {
        assert_playback_identical(&exec, 8 * BATCH_PATTERNS * chaos_scale());
        let before = fired.count(Injection::Dead);
        let jpeg = steac_dsc::jpeg_playback_stream(&exec, jpeg_patterns).unwrap();
        assert_eq!(jpeg, jpeg_base, "losing a host changed the JPEG report");
        assert!(
            fired.count(Injection::Dead) > before,
            "no dispatch probed the dead host"
        );
    });
}

/// Every transient failure mode at once, on both hosts, on a
/// deterministic schedule: drops (work done, response lost — the
/// duplicate-execution case), truncations, corrupt frames, duplicated
/// frames and delays. The fleet must retry its way to a byte-identical
/// report for every workload family, on every run until each mode has
/// fired.
#[test]
fn every_transient_failure_mode_recovers_bit_identically() {
    use Injection::{Corrupt, Delay, Drop, Duplicate, Truncate};
    let schedule = |call: usize| match call % 11 {
        1 => Some(Drop),
        3 => Some(Truncate),
        5 => Some(Corrupt),
        7 => Some(Duplicate),
        9 => Some(Delay),
        _ => None,
    };
    let modes = [Drop, Truncate, Corrupt, Duplicate, Delay];
    let chaotic_fleet = |fired: &Fired| {
        let fleet = RemoteFleet::new(vec![flaky(fired, schedule), flaky(fired, schedule)]);
        Exec::remote(fleet.with_max_retries(4)).with_fallback(Fallback::Fail)
    };
    let fired = Fired::default();
    let exec = chaotic_fleet(&fired);
    until_every_mode_fires(&fired, &modes, || {
        assert_playback_identical(&exec, 400 * chaos_scale());
    });

    // Gate-level grading with escapes, through the same chaos.
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero], vec![Logic::One]];
    let baseline = fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
    assert!(baseline.detected < baseline.total, "the case must escape");
    let fired = Fired::default();
    let exec = chaotic_fleet(&fired);
    until_every_mode_fires(&fired, &modes, || {
        let chaotic = fault::grade_vectors(&exec, &m, &faults, &pins, &vectors).unwrap();
        assert_eq!(chaotic, baseline, "chaos changed the coverage report");
    });
}

/// Every host gone and retries exhausted, under `Fallback::Fail`: the
/// typed workload error on the lowest-indexed unit — never a panic.
#[test]
fn exhausted_retries_fail_on_the_lowest_indexed_unit() {
    let dead = || flaky(&Fired::default(), |_| Some(Injection::Dead));
    let fleet = RemoteFleet::new(vec![dead(), dead()]).with_max_retries(1);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    let (m, patterns) = playback_case(100);
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim: Simulator = Simulator::new(&m).unwrap();
    match apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap_err() {
        steac_pattern::PatternError::Sim(SimError::Worker { unit, diagnostic }) => {
            assert_eq!(unit, 0, "lowest-indexed unit wins: {diagnostic}");
            assert!(!diagnostic.is_empty());
        }
        other => panic!("expected SimError::Worker, got {other:?}"),
    }
    assert_eq!(exec.process_fallbacks(), 0);
}

/// The same dead fleet under the default `Fallback::InThread` policy:
/// the run is recomputed in-process, the report is byte-identical and
/// the degradation is surfaced in the report and on the exec.
#[test]
fn exhausted_retries_fall_back_in_thread_when_allowed() {
    let dead = || flaky(&Fired::default(), |_| Some(Injection::Dead));
    let fleet = RemoteFleet::new(vec![dead(), dead()]).with_max_retries(1);
    let exec = Exec::remote(fleet);
    let (m, patterns) = playback_case(100);
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim: Simulator = Simulator::new(&m).unwrap();
    let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
    let fallback = apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap();
    assert_eq!(fallback.reports, baseline.reports);
    assert_eq!(fallback.process_fallbacks, 1, "degradation must be visible");
    assert_eq!(exec.process_fallbacks(), 1);
}

/// A fleet whose every response arrives with a corrupt envelope/frame:
/// a typed error on the lowest-indexed unit under `Fallback::Fail`,
/// never a panic.
#[test]
fn corrupt_envelope_is_a_typed_error_on_the_lowest_indexed_unit() {
    let corrupting = || flaky(&Fired::default(), |_| Some(Injection::Corrupt));
    let fleet = RemoteFleet::new(vec![corrupting(), corrupting()]).with_max_retries(1);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero]];
    match fault::grade_vectors(&exec, &m, &faults, &pins, &vectors).unwrap_err() {
        SimError::Worker { unit, diagnostic } => {
            assert_eq!(unit, 0, "lowest-indexed unit wins: {diagnostic}");
            assert!(!diagnostic.is_empty());
        }
        other => panic!("expected SimError::Worker, got {other:?}"),
    }
}

/// Real TCP chaos: a fleet pointing one host at a real `--serve` worker
/// and one at a rogue peer that answers garbage — the rogue host's
/// batches fail over, the real worker absorbs them, and the report is
/// byte-identical. Then the rogue listener alone, to pin the typed
/// failure.
#[test]
fn rogue_tcp_peer_is_survived_and_typed() {
    use std::io::{Read as _, Write as _};
    let rogue = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let rogue_addr = rogue.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in rogue.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut sink = [0u8; 1024];
            let _ = stream.read(&mut sink);
            let _ = stream.write_all(b"not an envelope, not even close");
        }
    });

    let server = spawn_serve_worker();
    let fleet = RemoteFleet::new(vec![
        Box::new(TcpTransport::new(rogue_addr.clone())) as Box<dyn Transport>,
        Box::new(TcpTransport::new(server.addr().to_string())) as Box<dyn Transport>,
    ]);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    assert_playback_identical(&exec, 150 * chaos_scale());

    let alone = RemoteFleet::new(vec![
        Box::new(TcpTransport::new(rogue_addr)) as Box<dyn Transport>
    ])
    .with_max_retries(1);
    let exec = Exec::remote(alone).with_fallback(Fallback::Fail);
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero]];
    match fault::grade_vectors(&exec, &m, &faults, &pins, &vectors).unwrap_err() {
        SimError::Worker { unit, .. } => assert_eq!(unit, 0),
        other => panic!("expected SimError::Worker, got {other:?}"),
    }
}

/// The program-cache loss drill: the fleet primes a real `--serve`
/// worker once, the worker is killed and restarted on the same port
/// (fresh process, empty cache), and the next batch — which goes
/// by hash, because the fleet's ledger still lists the program as
/// known there — draws a `NeedProgram` reply and heals by
/// transparently re-shipping the bytes. Both reports stay
/// byte-identical to serial, and the fleet stats pin the exact
/// resupply story: two ships, one need-program reply.
#[test]
fn worker_restart_reships_the_program_transparently() {
    let server = spawn_serve_worker();
    let addr = server.addr().to_string();
    // One stream so exactly one exchange discovers the cache loss.
    let fleet = RemoteFleet::new(vec![
        Box::new(TcpTransport::new(addr.clone()).with_streams(1)) as Box<dyn Transport>,
    ])
    .with_max_retries(3);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);

    let (m, patterns) = playback_case(150 * chaos_scale());
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim: Simulator = Simulator::new(&m).unwrap();
    let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
    assert!(!baseline.passed(), "the case must carry mismatches");

    let first = apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap();
    assert_eq!(first, baseline);

    // Kill the worker and restart one on the same port: the session
    // is lost and the new worker's cache is empty, but the client has
    // no way to know either yet.
    drop(server);
    let _server = spawn_serve_process_at(&worker_binary(), &addr).expect("restarting the worker");

    let second = apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap();
    assert_eq!(second, baseline, "the healed run must stay byte-identical");

    let Backend::Remote(fleet) = exec.backend() else {
        unreachable!("the exec was built remote")
    };
    let stats = fleet.stats();
    assert_eq!(
        stats.programs_shipped, 2,
        "primed once, resupplied once: {stats:?}"
    );
    assert_eq!(stats.need_program_replies, 1, "{stats:?}");
    assert_eq!(exec.process_fallbacks(), 0, "healing must not fall back");
}

/// A peer that flips one byte inside the job block of every run
/// request: the declared FNV-1a hash no longer matches the received
/// bytes, and the worker must refuse to execute anything — a typed
/// hash-mismatch error on the lowest-indexed unit under
/// `Fallback::Fail`. Corrupted program bytes must never produce a
/// wrong answer.
#[test]
fn corrupted_program_hash_is_a_typed_error_never_a_wrong_answer() {
    struct JobCorruptingTransport {
        inner: Box<dyn Transport>,
    }
    impl Transport for JobCorruptingTransport {
        fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
            let mut request = request.to_vec();
            // On an inline ship, 16 bytes past the job offset is safely
            // inside the program bytes (past any structure a decoder
            // would reject outright). A hash-mismatched program is never
            // cached, so every by-hash retry draws "need program" and
            // its inline re-ship is corrupted the same way.
            if let Some(byte) = request.get_mut(shard::RUN_REQUEST_JOB_OFFSET + 16) {
                *byte ^= 0xFF;
            }
            self.inner.call(&request)
        }
        fn endpoint(&self) -> String {
            format!("job-corrupting({})", self.inner.endpoint())
        }
    }

    let fleet = RemoteFleet::new(vec![
        Box::new(JobCorruptingTransport { inner: spawn() }) as Box<dyn Transport>
    ])
    .with_max_retries(1);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    let (m, patterns) = playback_case(100);
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim: Simulator = Simulator::new(&m).unwrap();
    match apply_cycle_patterns_batch(&exec, &sim, &refs).unwrap_err() {
        steac_pattern::PatternError::Sim(SimError::Worker { unit, diagnostic }) => {
            assert_eq!(unit, 0, "lowest-indexed unit wins: {diagnostic}");
            assert!(diagnostic.contains("hash mismatch"), "{diagnostic}");
        }
        other => panic!("expected SimError::Worker, got {other:?}"),
    }
}

/// TCP and process transports interoperate in one fleet, chaos
/// sprinkled on both — the full plumbing drill: the same envelope
/// session over a socket to a real `--serve` worker on one host and
/// over a child's stdin/stdout on the other, one deterministic merge.
#[test]
fn mixed_tcp_and_spawn_fleet_reports_identically_under_chaos() {
    let server = spawn_serve_worker();
    let schedule = |call: usize| (call % 5 == 2).then_some(Injection::Drop);
    let fired = Fired::default();
    let fleet = RemoteFleet::new(vec![
        FlakyTransport::over(
            Box::new(TcpTransport::new(server.addr().to_string())) as Box<dyn Transport>,
            schedule,
            &fired,
        ) as Box<dyn Transport>,
        flaky(&fired, schedule),
    ])
    .with_max_retries(3);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    until_every_mode_fires(&fired, &[Injection::Drop], || {
        assert_playback_identical(&exec, 200 * chaos_scale());
    });
}
