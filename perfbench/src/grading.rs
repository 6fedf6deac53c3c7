//! `core_grading`: the USB core, the largest DSC core, graded under the
//! stuck-at, transition and bridging models over seeded random vectors.

use crate::trace::Tracer;
use crate::{coverage, exec, overhead, per_op, set_up, setup_layers, timed_loop, Config, Report};
use std::time::Instant;
use steac_suite::steac_dsc::usb_core;
use steac_suite::steac_netlist::{Module, NetId, PortDir};
use steac_suite::steac_sim::{
    enumerate_bridges, enumerate_faults, enumerate_transition_faults, grade_bridges,
    grade_transitions, grade_vectors, BridgingReport, CoverageReport, Exec, Logic, SimProgram,
    TransitionReport,
};
use steac_suite::steac_zoo::splitmix;

/// Vectors per model. Few enough that fault dropping rarely fires, so
/// the workload measures per-pass kernel cost.
const VECTORS: usize = 512;

/// Vectors of the untimed serial-vs-threads check, which also warms the
/// workload up: the first grading pass runs about 1.5 times slower than
/// later ones.
const CHECK_VECTORS: usize = 64;

type Reports = (CoverageReport, TransitionReport, BridgingReport);

/// `count` seeded random vectors over the module's inputs.
fn vectors(seed: u64, pins: usize, count: usize) -> Vec<Vec<Logic>> {
    (0..count)
        .map(|k| {
            let row = splitmix(seed, k as u64);
            (0..pins)
                .map(|i| Logic::from(splitmix(row, i as u64) & 1 == 1))
                .collect()
        })
        .collect()
}

/// The graded core and its stimulus.
#[derive(Clone)]
struct Rig {
    module: Module,
    pins: Vec<NetId>,
    vectors: Vec<Vec<Logic>>,
}

/// One operation: enumerate and grade each model. Returns the reports
/// and the number of faults graded.
fn grade(tr: &mut Tracer, exec: &Exec, rig: &Rig) -> (Reports, usize) {
    let Rig {
        module,
        pins,
        vectors,
    } = rig;
    tr.span("op", |tr| {
        let faults = tr.span("fault.enumerate", |_| enumerate_faults(module));
        let sa = tr.span("fault.stuck_at", |_| {
            grade_vectors(exec, module, &faults, pins, vectors)
        });
        let tfaults = tr.span("fault.enumerate", |_| enumerate_transition_faults(module));
        let tf = tr.span("fault.transition", |_| {
            grade_transitions(exec, module, &tfaults, pins, vectors)
        });
        let bfaults = tr.span("fault.enumerate", |_| {
            enumerate_bridges(module).expect("USB core compiles")
        });
        let bf = tr.span("fault.bridging", |_| {
            grade_bridges(exec, module, &bfaults, pins, vectors)
        });
        let reports = (
            sa.expect("stuck-at grading runs"),
            tf.expect("transition grading runs"),
            bf.expect("bridging grading runs"),
        );
        (reports, faults.len() + tfaults.len() + bfaults.len())
    })
}

pub fn run(cfg: &Config, tr: &mut Tracer, rep: &mut Report) {
    let (rig, instrs) = set_up(rep, tr, |tr| {
        let (module, _) = tr.span("netlist.build", |_| usb_core().expect("USB core builds"));
        let program = tr.span("sim.compile", |_| {
            SimProgram::compile(&module).expect("compiles")
        });
        let pins: Vec<NetId> = module
            .ports_with_dir(PortDir::Input)
            .map(|p| p.net)
            .collect();
        let vectors = vectors(cfg.seed, pins.len(), VECTORS);
        let rig = Rig {
            module,
            pins,
            vectors,
        };
        (rig, program.opt.instrs_after)
    });
    let exec = exec();
    let mut off = Tracer::new(false);

    // Warm-up and reference check in one, outside the timed loop: serial
    // and threaded grading agree on a short vector set.
    let short = Rig {
        vectors: rig.vectors[..CHECK_VECTORS].to_vec(),
        ..rig.clone()
    };
    let (serial, _) = grade(&mut off, &Exec::serial(), &short);
    let (threaded, _) = grade(&mut off, &exec, &short);
    rep.tally.record(
        serial == threaded && serial.0.total > 0 && serial.2.total > 0,
        "serial and threads(2) reports agree",
    );
    // Every timed operation must reproduce the first one exactly.
    let mut reference: Option<Reports> = None;
    let mut op = |tr: &mut Tracer, rep: &mut Report| {
        let (reports, graded) = grade(tr, &exec, &rig);
        let first = reference.get_or_insert_with(|| reports.clone());
        rep.tally.record(
            reports == *first && reports.0.process_fallbacks == 0,
            "threads(2) reports repeat exactly",
        );
        graded as f64
    };

    if !cfg.trace {
        let samples = timed_loop(cfg.seconds, || op(&mut off, rep));
        rep.set_throughput(&samples);
        return;
    }

    let t = Instant::now();
    let serial = grade_vectors(
        &Exec::serial(),
        &rig.module,
        &enumerate_faults(&rig.module),
        &rig.pins,
        &rig.vectors,
    );
    let serial_secs = t.elapsed().as_secs_f64();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        op(&mut off, rep);
        untraced.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        op(tr, rep);
        traced.push(t.elapsed().as_secs_f64());
    }
    let ops = traced.len();
    let (sa, tf, bf) = reference.expect("ops ran");
    rep.tally.record(
        serial.is_ok_and(|r| r == sa),
        "serial stuck-at run equals threads(2)",
    );
    per_op(
        tr,
        rep,
        ops,
        &[
            ("fault.enumerate_s", "fault.enumerate"),
            ("fault.stuck_at_s", "fault.stuck_at"),
            ("fault.transition_s", "fault.transition"),
            ("fault.bridging_s", "fault.bridging"),
        ],
    );
    setup_layers(tr, rep);
    rep.set("sim.instrs", instrs as f64);
    let ratio = |d: usize, t: usize| d as f64 / t as f64;
    rep.set(
        "fault.stuck_at.detected_ratio",
        ratio(sa.detected, sa.total),
    );
    rep.set(
        "fault.transition.detected_ratio",
        ratio(tf.detected, tf.total),
    );
    rep.set(
        "fault.bridging.detected_ratio",
        ratio(bf.detected, bf.total),
    );
    rep.set(
        "exec.threads_speedup",
        serial_secs / (tr.total("fault.stuck_at") / ops as f64),
    );
    rep.note(format!(
        "{VECTORS} vectors: stuck-at {}/{}, transition {}/{}, bridging {}/{} detected",
        sa.detected, sa.total, tf.detected, tf.total, bf.detected, bf.total
    ));
    overhead(rep, &traced, &untraced);
    coverage(tr, rep);
}
