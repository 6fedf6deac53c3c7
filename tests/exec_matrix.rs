//! The exec-matrix battery: one table spanning all **four** execution
//! backend families — `Serial`, `Threads(1/4)`, `Processes(1/2/3)` (a
//! fleet of persistent stdio sessions) and
//! `Remote(TcpTransport@localhost)` — driven through the **same**
//! unified entry points for every workload
//! (gate-level vector grading and dictionary building under the
//! stuck-at, transition and bridging fault models, batched ATE
//! playback, March fault simulation including inter-cell couplings,
//! JPEG playback), asserting the reports are
//! **byte-identical** to the serial baseline: counts, escape lists and
//! mismatch logs *including their order*. This is the determinism
//! contract behind `steac_sim::Exec::dispatch`, the one seam every
//! workload — materialized or streamed — routes through; its
//! differential leg proves streamed playback byte-identical to the
//! materialized batch on prefixes that end at every kind of chunk
//! boundary — proven across every backend from a single table of
//! cases.
//!
//! Process and remote backends pin the `steac-worker` binary Cargo
//! built for this package (the TCP legs run it as real `--serve`
//! listeners on ephemeral localhost ports) and run with
//! `Fallback::Fail`, so a broken worker fails the test loudly instead
//! of silently matching via the in-thread fallback.

mod common;

use common::{spawn_serve_workers, worker_binary};
use steac_membist::{faultsim, MarchAlgorithm, SramConfig};
use steac_netlist::{GateKind, Module, NetId, NetlistBuilder};
use steac_pattern::{apply_cycle_patterns_batch, CyclePattern, PinState};
use steac_sim::models::fault_dictionary;
use steac_sim::{
    fault, Exec, Fallback, FaultDictionary, FaultModel, Logic, RemoteFleet, Report, ServeHandle,
    Simulator, Threads,
};

/// The single backend table every workload case runs over: the four
/// backend families, with the shipped legs sending real wire bytes to
/// worker children over stdio and to `--serve` TCP listeners. The
/// first entry (serial) is the baseline the others must match
/// byte-for-byte.
fn backend_matrix(servers: &[ServeHandle]) -> Vec<(String, Exec)> {
    let mut matrix = vec![
        ("serial".to_string(), Exec::serial()),
        ("threads:1".to_string(), Exec::threads(Threads::exact(1))),
        ("threads:4".to_string(), Exec::threads(Threads::exact(4))),
    ];
    for workers in [1usize, 2, 3] {
        matrix.push((
            format!("processes:{workers}"),
            Exec::processes(&worker_binary(), workers).with_fallback(Fallback::Fail),
        ));
    }
    let tcp = RemoteFleet::tcp(servers.iter().map(|s| s.addr().to_string()))
        .expect("at least one serve worker");
    matrix.push((
        format!("remote-tcp:{}", servers.len()),
        Exec::remote(tcp).with_fallback(Fallback::Fail),
    ));
    matrix
}

/// A 300-gate module whose fault list spans several passes (602
/// stuck-at faults fill three 255-fault passes) and whose two-vector
/// test leaves escapes (so `undetected` order is exercised).
fn mixed_module() -> steac_netlist::Module {
    let mut b = NetlistBuilder::new("m");
    let a = b.input("a");
    let mut cur = a;
    for i in 0..300 {
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

/// Multi-chunk playback batch with deliberately failing patterns, so
/// the mismatch logs (content AND order) go through every merge.
fn playback_case() -> (steac_netlist::Module, Vec<CyclePattern>) {
    use Logic::{One, Zero};
    let mut b = NetlistBuilder::new("m");
    let d = b.input("d");
    let ck = b.input("ck");
    let q = b.gate(GateKind::Dff, &[d, ck]);
    b.output("q", q);
    let m = b.finish().unwrap();
    let patterns: Vec<CyclePattern> = (0..150u32)
        .map(|i| {
            let bits: Vec<Logic> = (0..4)
                .map(|k| if (i >> (k % 5)) & 1 == 1 { One } else { Zero })
                .collect();
            let mut p = flop_pattern(&bits);
            if i % 49 == 7 {
                p.cycles[2][2] = PinState::ExpectH;
                p.cycles[2][0] = PinState::Drive0;
            }
            p
        })
        .collect();
    (m, patterns)
}

/// Every workload under every backend, against the serial baseline.
/// Reports carry `process_fallbacks: 0` everywhere — `Fallback::Fail`
/// on the process rows guarantees nothing fell back — so plain
/// `assert_eq!` covers all fields.
#[test]
fn all_workloads_report_byte_identical_on_every_backend() {
    use rand::SeedableRng;

    // Case 1: gate-level vector grading over three passes, with escapes.
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    assert!(
        faults.len() > 2 * fault::FAULTS_PER_PASS,
        "need three passes"
    );
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero], vec![Logic::One]];

    // Case 2: batched ATE playback, with failing patterns.
    let (flop_m, patterns) = playback_case();
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let play_sim = Simulator::new(&flop_m).unwrap();

    // Case 3: March fault simulation, with escapes (MATS+ misses
    // couplings).
    let cfg = SramConfig::single_port(64, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mfaults = faultsim::random_fault_list(&cfg, 40, &mut rng);
    let alg = MarchAlgorithm::mats_plus();

    let servers = spawn_serve_workers(2);
    let matrix = backend_matrix(&servers);
    let (_, serial) = &matrix[0];
    let grade_base = fault::grade_vectors(serial, &m, &faults, &pins, &vectors).unwrap();
    assert!(grade_base.detected < grade_base.total, "need escapes");
    let play_base = apply_cycle_patterns_batch(serial, &play_sim, &refs).unwrap();
    assert!(!play_base.passed(), "need mismatches");
    let march_base = faultsim::fault_coverage(serial, &alg, &cfg, &mfaults).unwrap();
    assert!(march_base.detected < march_base.total, "need escapes");
    // Case 4: the JPEG playback experiment end to end (generation +
    // playback through the same exec), in both flavours: materialized
    // and the streaming pipeline, which must agree with each other.
    let jpeg_base = steac_dsc::jpeg_playback_batch(serial, 130).unwrap();
    assert_eq!(jpeg_base.patterns, 130);
    assert_eq!(
        steac_dsc::jpeg_playback_stream(serial, 130).unwrap(),
        jpeg_base,
        "streaming flavour diverged from materialized on serial"
    );

    for (name, exec) in &matrix[1..] {
        let grade = fault::grade_vectors(exec, &m, &faults, &pins, &vectors).unwrap();
        assert_eq!(grade, grade_base, "grading diverged on {name}");
        let play = apply_cycle_patterns_batch(exec, &play_sim, &refs).unwrap();
        assert_eq!(play, play_base, "playback diverged on {name}");
        let march = faultsim::fault_coverage(exec, &alg, &cfg, &mfaults).unwrap();
        assert_eq!(march, march_base, "March diverged on {name}");
        let jpeg = steac_dsc::jpeg_playback_batch(exec, 130).unwrap();
        assert_eq!(jpeg, jpeg_base, "JPEG playback diverged on {name}");
        let jpeg_stream = steac_dsc::jpeg_playback_stream(exec, 130).unwrap();
        assert_eq!(
            jpeg_stream, jpeg_base,
            "streaming JPEG playback diverged on {name}"
        );
        assert_eq!(exec.process_fallbacks(), 0, "{name} must not fall back");
    }
}

/// The streaming/materialized differential: owned patterns streamed
/// through the player are byte-identical to the materialized batch's
/// first reports on prefixes of 1, 7, 64, 65 and all 150 patterns, so
/// the last chunk holds 1, 7, 64, 1 and 22 patterns — including content
/// AND order of the mismatch logs — on every backend of the matrix.
/// Chunk boundaries must be invisible in the report; this is the
/// determinism contract behind `Exec::dispatch`.
#[test]
fn streaming_playback_reports_byte_identical_at_every_chunk_size() {
    use steac_pattern::stream_cycle_patterns;

    let (flop_m, patterns) = playback_case();
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let sim = Simulator::new(&flop_m).unwrap();

    let servers = spawn_serve_workers(2);
    let matrix = backend_matrix(&servers);
    let base = apply_cycle_patterns_batch(&matrix[0].1, &sim, &refs).unwrap();
    assert!(!base.passed(), "need mismatches to compare");

    for (name, exec) in &matrix {
        for prefix in [1usize, 7, 64, 65, patterns.len()] {
            let mut streamed = Vec::new();
            let run = stream_cycle_patterns(exec, &sim, patterns[..prefix].iter().cloned(), |r| {
                streamed.push(r)
            })
            .unwrap();
            assert_eq!(run.patterns, prefix, "{name} prefix {prefix}");
            assert_eq!(
                streamed,
                base.reports[..prefix],
                "streamed reports diverged on {name} at prefix {prefix}"
            );
        }
        assert_eq!(exec.process_fallbacks(), 0, "{name} must not fall back");
    }
}

/// Playback from an explicitly optimized dispatcher program matches the
/// unoptimized serial baseline byte for byte on every backend — the
/// renumbered slots and single-sweep settle (and the program's wire
/// image, on the process and remote legs) may only change speed, never
/// a verdict. Both programs come from `compile_unoptimized`, one run
/// through `opt::optimize`.
#[test]
fn optimized_program_reports_byte_identical_on_every_backend() {
    use std::sync::Arc;
    use steac_sim::SimProgram;

    let (flop_m, patterns) = playback_case();
    let refs: Vec<&CyclePattern> = patterns.iter().collect();
    let raw_program = SimProgram::compile_unoptimized(&flop_m).unwrap();
    let mut opt_program = raw_program.clone();
    steac_sim::opt::optimize(&mut opt_program);
    let raw: Simulator = Simulator::from_program(Arc::new(raw_program));
    let opt: Simulator = Simulator::from_program(Arc::new(opt_program));
    assert!(opt.program().opt.scheduled, "optimizer must have run");

    let servers = spawn_serve_workers(1);
    let matrix = backend_matrix(&servers);
    let base = apply_cycle_patterns_batch(&matrix[0].1, &raw, &refs).unwrap();
    assert!(!base.passed(), "need mismatches to compare");
    for (name, exec) in &matrix {
        let played = apply_cycle_patterns_batch(exec, &opt, &refs).unwrap();
        assert_eq!(played, base, "optimized playback diverged on {name}");
        assert_eq!(exec.process_fallbacks(), 0, "{name} must not fall back");
    }
}

/// One gate-level fault model under the full matrix: grading and
/// dictionary building report byte-identical to the serial baseline on
/// every backend, with every fault list spanning more than one 255-fault
/// pass (the merge crosses pass boundaries). Returns the serial baseline
/// report and dictionary.
fn check_model<F: FaultModel>(
    matrix: &[(String, Exec)],
    m: &Module,
    faults: &[F],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> (Report<F>, FaultDictionary) {
    let noun = F::NOUN;
    assert!(
        faults.len() > fault::FAULTS_PER_PASS,
        "{noun}: need more than one pass"
    );
    let serial = &matrix[0].1;
    let base = fault::grade_vectors(serial, m, faults, pins, vectors).unwrap();
    assert!(base.detected > 0, "{noun}: need detections");
    let dict_base = fault_dictionary(serial, m, faults, pins, vectors).unwrap();
    assert!(dict_base.detected_count() > 0, "{noun}: need detections");
    for (name, exec) in &matrix[1..] {
        let r = fault::grade_vectors(exec, m, faults, pins, vectors).unwrap();
        assert_eq!(r, base, "{noun} grading diverged on {name}");
        let dict = fault_dictionary(exec, m, faults, pins, vectors).unwrap();
        assert_eq!(dict, dict_base, "{noun} dictionary diverged on {name}");
    }
    (base, dict_base)
}

/// The fault-model subsystem under the full matrix: stuck-at,
/// transition/delay and bridging grading and dictionaries (through
/// [`check_model`]) report byte-identical to the serial baseline on
/// every backend at the one 256-lane width, each over several passes;
/// inter-cell memory-coupling grading (256-lane walks) reports
/// byte-identical on every backend, and diagnosis against the
/// transition dictionary ranks a real signature's fault at distance 0.
#[test]
fn fault_models_report_byte_identical_on_every_backend_and_width() {
    use steac_sim::models::{bridging, dictionary, transition};
    use Logic::{One, Zero};

    // The gate-level models share the mixed module; the 5-vector walk
    // launches both edges on the single input and leaves escapes.
    let m = mixed_module();
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Zero], vec![One], vec![Zero], vec![One], vec![Zero]];
    let sfaults = fault::enumerate_faults(&m);
    let tfaults = transition::enumerate_transition_faults(&m);
    let bfaults = bridging::enumerate_bridges(&m).unwrap();
    assert!(!bfaults.is_empty(), "mixed module must have bridge sites");

    // Memory coupling: the full inter-cell enumeration under MATS+
    // (which misses couplings, so escape lists merge).
    let cfg = SramConfig::single_port(24, 4);
    let cfaults = faultsim::enumerate_inter_cell_couplings(&cfg);
    let alg = MarchAlgorithm::mats_plus();

    let servers = spawn_serve_workers(2);
    let matrix = backend_matrix(&servers);
    let (_, serial) = &matrix[0];

    check_model(&matrix, &m, &sfaults, &pins, &vectors);
    let (t_base, dict_base) = check_model(&matrix, &m, &tfaults, &pins, &vectors);
    assert!(t_base.detected < t_base.total, "need escapes");
    check_model(&matrix, &m, &bfaults, &pins, &vectors);
    let c_base = faultsim::fault_coverage(serial, &alg, &cfg, &cfaults).unwrap();
    assert!(c_base.detected < c_base.total, "need coupling escapes");
    // Diagnose an observed failure that is a real dictionary signature;
    // the dictionary is byte-identical on every backend, so one ranking
    // covers them all.
    let truth = dict_base
        .entries
        .iter()
        .position(|e| e.first_pattern.is_some())
        .unwrap();
    let observed = dict_base.entries[truth].signature.clone();
    let diag = dictionary::diagnose(&dict_base, &observed).unwrap();
    let rank = diag.rank_of(truth).unwrap();
    assert_eq!(diag.ranked[rank].1, 0, "true fault matches itself");

    for (name, exec) in &matrix[1..] {
        let c = faultsim::fault_coverage(exec, &alg, &cfg, &cfaults).unwrap();
        assert_eq!(c, c_base, "coupling grading diverged on {name}");
        assert_eq!(exec.process_fallbacks(), 0, "{name} must not fall back");
    }
}

/// The serial-reference oracles agree with the serial backend, closing
/// the loop: matrix == serial backend == one-simulation-per-fault
/// reference, with the gate-level merge crossing pass boundaries.
#[test]
fn serial_backend_matches_the_serial_oracles() {
    let m = mixed_module();
    let faults = fault::enumerate_faults(&m);
    let pins = [m.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero], vec![Logic::One]];
    let graded = fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
    let oracle = fault::fault_coverage_serial(&m, &faults, |sim| {
        let mut obs = Vec::new();
        for vector in &vectors {
            for (&pin, &v) in pins.iter().zip(vector) {
                sim.set(pin, v);
            }
            sim.settle()?;
            obs.extend(sim.outputs());
        }
        Ok(obs)
    })
    .unwrap();
    assert_eq!(graded.detected, oracle.detected);
    assert_eq!(graded.undetected, oracle.undetected);

    use rand::SeedableRng;
    let cfg = SramConfig::single_port(32, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mfaults = faultsim::random_fault_list(&cfg, 12, &mut rng);
    let alg = MarchAlgorithm::mats_plus();
    let packed = faultsim::fault_coverage(&Exec::serial(), &alg, &cfg, &mfaults).unwrap();
    let serial = faultsim::fault_coverage_serial(&alg, &cfg, &mfaults);
    assert_eq!(packed, serial);
}
