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
//! surviving byte still crosses a real process boundary. `STEAC_CHAOS_SCALE` (default 1) multiplies the workload
//! size and schedule length — CI's nightly chaos job runs the same
//! battery at scale 8.

mod common;

use common::{spawn_serve_worker, worker_binary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use steac_netlist::{GateKind, NetlistBuilder};
use steac_pattern::{apply_cycle_patterns_batch, CyclePattern, PinState};
use steac_sim::remote::spawn_serve_process_at;
use steac_sim::{
    fault, shard, Backend, Exec, Fallback, Logic, ProcessTransport, RemoteFleet, SimError,
    Simulator, TcpTransport, Transport, TransportError,
};

/// Chaos amplification knob: multiplies pattern counts and how long the
/// injection schedules stay active.
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

/// Deterministic-schedule failure injector: wraps a real transport and
/// misbehaves per `schedule(call_index)`. The schedule is a pure
/// function of the per-transport call counter, so a test's injection
/// plan is reproducible regardless of thread interleaving — and the
/// *report* must come out byte-identical regardless of which calls the
/// failures land on.
struct FlakyTransport<S: Fn(usize) -> Option<Injection> + Send + Sync> {
    inner: Box<dyn Transport>,
    schedule: S,
    calls: AtomicUsize,
}

impl<S: Fn(usize) -> Option<Injection> + Send + Sync> FlakyTransport<S> {
    fn over(inner: Box<dyn Transport>, schedule: S) -> Box<Self> {
        Box::new(FlakyTransport {
            inner,
            schedule,
            calls: AtomicUsize::new(0),
        })
    }
}

impl<S: Fn(usize) -> Option<Injection> + Send + Sync> Transport for FlakyTransport<S> {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match (self.schedule)(call) {
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
    schedule: impl Fn(usize) -> Option<Injection> + Send + Sync + 'static,
) -> Box<dyn Transport> {
    FlakyTransport::over(spawn(), schedule)
}

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

/// A host that dies on its very first call: its stolen units requeue
/// onto the surviving host and the report stays byte-identical — the
/// killed-host drill.
#[test]
fn killed_host_requeues_and_the_report_is_identical() {
    let fleet = RemoteFleet::new(vec![flaky(|_| Some(Injection::Dead)), spawn()]);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    assert_playback_identical(&exec, 150 * chaos_scale());
}

/// A host that dies mid-run (healthy for its first calls, gone after):
/// in-flight units requeue, the survivor finishes, same report.
#[test]
fn host_lost_mid_run_requeues_its_in_flight_units() {
    let fleet = RemoteFleet::new(vec![
        flaky(|call| (call >= 2).then_some(Injection::Dead)),
        spawn(),
    ]);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    assert_playback_identical(&exec, 300 * chaos_scale());
}

/// Every transient failure mode at once, on both hosts, on a
/// deterministic schedule: drops (work done, response lost — the
/// duplicate-execution case), truncations, corrupt frames, duplicated
/// frames and delays. The fleet must retry its way to a byte-identical
/// report for every workload family.
#[test]
fn every_transient_failure_mode_recovers_bit_identically() {
    let schedule = |call: usize| match call % 11 {
        1 => Some(Injection::Drop),
        3 => Some(Injection::Truncate),
        5 => Some(Injection::Corrupt),
        7 => Some(Injection::Duplicate),
        9 => Some(Injection::Delay),
        _ => None,
    };
    let fleet = RemoteFleet::new(vec![flaky(schedule), flaky(schedule)]).with_max_retries(4);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    assert_playback_identical(&exec, 400 * chaos_scale());

    // Gate-level grading with escapes, through the same chaos.
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero], vec![Logic::One]];
    let baseline = fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
    assert!(baseline.detected < baseline.total, "the case must escape");
    let fleet = RemoteFleet::new(vec![flaky(schedule), flaky(schedule)]).with_max_retries(4);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    let chaotic = fault::grade_vectors(&exec, &m, &faults, &pins, &vectors).unwrap();
    assert_eq!(chaotic, baseline, "chaos changed the coverage report");
}

/// Every host gone and retries exhausted, under `Fallback::Fail`: the
/// typed workload error on the lowest-indexed unit — never a panic.
#[test]
fn exhausted_retries_fail_on_the_lowest_indexed_unit() {
    let dead = || flaky(|_| Some(Injection::Dead));
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
    let dead = || flaky(|_| Some(Injection::Dead));
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
    let corrupting = || flaky(|_| Some(Injection::Corrupt));
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
/// and one at a rogue peer that answers garbage — the rogue host is
/// declared lost, the real worker absorbs the queue, and the report is
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
    let fleet = RemoteFleet::new(vec![
        FlakyTransport::over(
            Box::new(TcpTransport::new(server.addr().to_string())) as Box<dyn Transport>,
            schedule,
        ) as Box<dyn Transport>,
        flaky(schedule),
    ])
    .with_max_retries(3);
    let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
    assert_playback_identical(&exec, 200 * chaos_scale());
}
