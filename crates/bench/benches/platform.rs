//! Criterion benches: runtime of the platform's heavy paths.
//!
//! The paper's only runtime claim is the Fig. 1 insertion flow ("a new
//! SOC design with DFT will be ready in minutes... in 5 minutes, using a
//! SUN Blade 1000"); `full_flow` and `dft_insertion` measure our
//! equivalents. The rest characterise the substrates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Instant;
use steac::flow::{run_flow, CoreSource, FlowInput};
use steac::insert::{insert_dft, InsertSpec};
use steac_bench::splitmix_vectors as jpeg_vectors;
use steac_dsc::{build_chip, core_stil, dsc_brains, dsc_chip_config, jpeg_core, TABLE1};
use steac_membist::faultsim::{fault_coverage, fault_coverage_serial, random_fault_list};
use steac_membist::{MarchAlgorithm, SramConfig};
use steac_sched::{schedule_nonsession, schedule_sessions};
use steac_sim::{enumerate_faults, fault, Exec, Logic, Simulator};
use steac_stil::{parse_stil, to_stil_string};
use steac_wrapper::{balance_fixed, WrapOptions};

fn dsc_flow_input() -> FlowInput {
    let (_, params) = build_chip().expect("chip builds");
    FlowInput {
        cores: params
            .iter()
            .zip(&TABLE1)
            .map(|(p, row)| CoreSource::new(row.core, &to_stil_string(&core_stil(row, p))))
            .collect(),
        config: dsc_chip_config(),
        bist: Some(dsc_brains()),
        bist_powers: vec![1.3, 0.6],
    }
}

fn bench_full_flow(c: &mut Criterion) {
    let input = dsc_flow_input();
    c.bench_function("full_flow_dsc", |b| {
        b.iter(|| run_flow(&input).expect("flow runs"))
    });
}

fn bench_dft_insertion(c: &mut Criterion) {
    c.bench_function("dft_insertion_dsc", |b| {
        b.iter_batched(
            || build_chip().expect("chip builds"),
            |(mut design, params)| {
                let specs = vec![
                    InsertSpec {
                        core_module: "usb_core".to_string(),
                        wrap: WrapOptions {
                            clock_port: Some("ck0".to_string()),
                            scan_si: params[0].scan_si.clone(),
                            scan_so: params[0].scan_so.clone(),
                            scan_se: params[0].scan_enable.clone(),
                            passthrough_inputs: params[0].clocks[1..]
                                .iter()
                                .chain(&params[0].resets)
                                .chain(&params[0].test_enables)
                                .cloned()
                                .collect(),
                            passthrough_outputs: vec![],
                        },
                        plan: balance_fixed(TABLE1[0].scan_chains, TABLE1[0].pi, TABLE1[0].po, 2),
                        sessions_active: vec![1],
                        tam_offset: 0,
                    },
                    InsertSpec {
                        core_module: "jpeg_core".to_string(),
                        wrap: WrapOptions {
                            clock_port: Some("ck".to_string()),
                            ..WrapOptions::default()
                        },
                        plan: balance_fixed(&[], TABLE1[2].pi, TABLE1[2].po, 2),
                        sessions_active: vec![2],
                        tam_offset: 2,
                    },
                ];
                insert_dft(&mut design, &specs, 3, 8).expect("insertion succeeds")
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let tasks = steac_dsc::dsc_test_tasks();
    let config = dsc_chip_config();
    c.bench_function("schedule_sessions_dsc", |b| {
        b.iter(|| schedule_sessions(&tasks, &config))
    });
    c.bench_function("schedule_nonsession_dsc", |b| {
        b.iter(|| schedule_nonsession(&tasks, &config))
    });
}

fn bench_stil_parse(c: &mut Criterion) {
    let (_, params) = build_chip().expect("chip builds");
    let text = to_stil_string(&core_stil(&TABLE1[0], &params[0]));
    c.bench_function("stil_parse_usb", |b| {
        b.iter(|| parse_stil(&text).expect("parses"))
    });
}

fn bench_wrapper_balance(c: &mut Criterion) {
    c.bench_function("wrapper_balance_usb_w8", |b| {
        b.iter(|| balance_fixed(TABLE1[0].scan_chains, TABLE1[0].pi, TABLE1[0].po, 8))
    });
}

fn bench_march_faultsim(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cfg = SramConfig::single_port(64, 4);
    let mut rng = StdRng::seed_from_u64(7);
    let faults = random_fault_list(&cfg, 20, &mut rng);
    let alg = MarchAlgorithm::march_c_minus();
    let exec = Exec::from_env();
    c.bench_function("march_faultsim_packed_64x4_120f", |b| {
        b.iter(|| fault_coverage(&exec, &alg, &cfg, &faults).expect("grades"))
    });
    c.bench_function("march_faultsim_serial_64x4_120f", |b| {
        b.iter(|| fault_coverage_serial(&alg, &cfg, &faults))
    });
    report_speedup(
        "march_faultsim packed vs serial",
        || fault_coverage_serial(&alg, &cfg, &faults).detected,
        || {
            fault_coverage(&exec, &alg, &cfg, &faults)
                .expect("grades")
                .detected
        },
    );
}

/// Packed (PPSFP, up to 255 faults + good machine per 256-lane pass,
/// fault dropping) vs. serial (one full simulation per fault) stuck-at
/// grading of 126 faults on the DSC's JPEG core — the paper's largest
/// functional-pattern core; the 126 fit one pass. The recorded speedup
/// is the packed kernel's headline number.
fn bench_gate_faultsim(c: &mut Criterion) {
    let (module, _) = jpeg_core().expect("core builds");
    let faults: Vec<fault::Fault> = enumerate_faults(&module).into_iter().take(126).collect();
    let pins: Vec<steac_netlist::NetId> = module
        .ports_with_dir(steac_netlist::PortDir::Input)
        .map(|p| p.net)
        .collect();
    let vectors = jpeg_vectors(&module, 16);

    let exec = Exec::from_env();
    let packed = || {
        fault::grade_vectors(&exec, &module, &faults, &pins, &vectors)
            .expect("packed grading runs")
            .detected
    };
    let serial = || {
        fault_coverage_gate_serial(&module, &faults, &pins, &vectors)
            .expect("serial grading runs")
            .detected
    };
    assert_eq!(packed(), serial(), "packed and serial gradings must agree");

    c.bench_function("gate_faultsim_packed_jpeg_126f_16v", |b| b.iter(packed));
    c.bench_function("gate_faultsim_serial_jpeg_126f_16v", |b| b.iter(serial));
    report_speedup("gate_faultsim packed vs serial (jpeg core)", serial, packed);
}

/// The serial reference grading loop (what the interpreter used to do).
fn fault_coverage_gate_serial(
    module: &steac_netlist::Module,
    faults: &[fault::Fault],
    pins: &[steac_netlist::NetId],
    vectors: &[Vec<Logic>],
) -> Result<fault::CoverageReport, steac_sim::SimError> {
    fault::fault_coverage_serial(module, faults, |sim| {
        let mut obs = Vec::new();
        for vector in vectors {
            for (&pin, &v) in pins.iter().zip(vector) {
                sim.set(pin, v);
            }
            sim.settle()?;
            obs.extend(sim.outputs());
        }
        Ok(obs)
    })
}

/// Batched (64 lanes/pass) vs scalar playback of JPEG functional
/// patterns through the ATE cycle player.
fn bench_batched_playback(c: &mut Criterion) {
    let count = 128;
    let exec = Exec::from_env();
    let (module, patterns) =
        steac_dsc::jpeg_functional_patterns(&exec, count).expect("patterns build");
    let refs: Vec<&steac_pattern::CyclePattern> = patterns.iter().collect();
    c.bench_function("jpeg_playback_batched_128p", |b| {
        b.iter(|| {
            let sim: Simulator = Simulator::new(&module).expect("sim builds");
            steac_pattern::apply_cycle_patterns_batch(&exec, &sim, &refs).expect("plays")
        })
    });
    c.bench_function("jpeg_playback_scalar_128p", |b| {
        b.iter(|| {
            // One compile per iteration, like the batched path: the
            // comparison times the kernel, not repeated compilation.
            let mut sim: Simulator = Simulator::new(&module).expect("sim builds");
            patterns
                .iter()
                .map(|p| {
                    sim.reset_to_x();
                    steac_pattern::apply_cycle_pattern(&mut sim, p).expect("plays")
                })
                .count()
        })
    });
}

/// Times both closures and prints the ratio, so the packed kernel's
/// advantage is recorded in the bench output itself. A closure's time
/// is the median of five samples, each a loop of calls lasting at least
/// 20 ms divided by its call count, so a sub-millisecond call is timed
/// over many repeats and one preempted call cannot set the ratio.
fn report_speedup<A: PartialEq + std::fmt::Debug>(
    label: &str,
    baseline: impl Fn() -> A,
    candidate: impl Fn() -> A,
) {
    fn median_time<A>(f: &impl Fn() -> A) -> (std::time::Duration, A) {
        const SAMPLE: std::time::Duration = std::time::Duration::from_millis(20);
        let mut samples = Vec::with_capacity(5);
        let mut result = None;
        for _ in 0..5 {
            let (start, mut calls) = (Instant::now(), 0u32);
            while calls == 0 || start.elapsed() < SAMPLE {
                result = Some(f());
                calls += 1;
            }
            samples.push(start.elapsed() / calls);
        }
        samples.sort_unstable();
        (samples[2], result.expect("ran at least once"))
    }
    // Warm both paths (allocator, caches) before the timed runs.
    let a = baseline();
    let b = candidate();
    assert_eq!(a, b, "{label}: results diverge");
    let (base, a) = median_time(&baseline);
    let (cand, b) = median_time(&candidate);
    assert_eq!(a, b, "{label}: results diverge");
    let ratio = base.as_secs_f64() / cand.as_secs_f64().max(1e-12);
    println!("{label:<44} speedup: {ratio:.1}x ({base:.2?} -> {cand:.2?})");
}

criterion_group!(
    benches,
    bench_full_flow,
    bench_dft_insertion,
    bench_scheduler,
    bench_stil_parse,
    bench_wrapper_balance,
    bench_march_faultsim,
    bench_gate_faultsim,
    bench_batched_playback
);
criterion_main!(benches);
