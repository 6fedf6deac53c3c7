//! The per-SOC driver: wrap → share controls → schedule → generate
//! patterns → fault-grade, with invariant checks at every seam.
//!
//! This is the paper's Fig. 1 flow driven at corpus scale. The wrap
//! stage is *verified* rather than merely executed: each scheduled scan
//! task's wrapper plan is rebuilt at the granted width and its
//! chain-balance test time must equal the cycles the scheduler booked —
//! the wrapper and scheduler layers are only allowed to agree.

use crate::gen::{splitmix, SyntheticSoc};
use crate::invariants::{check_schedule, Violation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use steac_netlist::{GateKind, Module, NetId, NetlistBuilder};
use steac_sched::{
    schedule_nonsession, schedule_serial, schedule_sessions, NonSessionSchedule, ScheduleError,
    SessionSchedule, TestKind,
};
use steac_sim::exec::Exec;
use steac_sim::models::{grade_vectors, FaultModel, ModelKind};
use steac_sim::{BridgingFault, Fault, Logic, TransitionFault};
use steac_tam::{share_controls, ShareReport};
use steac_wrapper::chain::{balance_fixed, balance_soft};

/// Options for [`run_soc`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Run the fault-grading stage (builds the SOC's glue netlist and
    /// grades it through the supplied backend). Scheduling-only runs
    /// skip it for speed.
    pub grade: bool,
    /// Pseudo-random vectors per grading run.
    pub vectors: usize,
    /// Fault model the grading stage runs (stuck-at by default).
    pub model: ModelKind,
    /// Run the invariant checks and record violations.
    pub check: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            grade: true,
            vectors: 96,
            model: ModelKind::StuckAt,
            check: true,
        }
    }
}

/// Model-agnostic grading summary of one SOC's glue netlist: the
/// counts of a [`steac_sim::Report`], whichever
/// [`steac_sim::FaultModel`] produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradeSummary {
    /// Fault model graded.
    pub model: ModelKind,
    /// Total faults enumerated.
    pub total: usize,
    /// Faults detected by the seeded vectors.
    pub detected: usize,
    /// In-thread fallbacks taken by a process backend.
    pub process_fallbacks: usize,
}

impl GradeSummary {
    /// Coverage in percent (100 for an empty fault list).
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                100.0 * self.detected as f64 / self.total as f64
            }
        }
    }
}

impl fmt::Display for GradeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} detected ({:.2}%)",
            self.model,
            self.detected,
            self.total,
            self.coverage_percent()
        )
    }
}

/// Everything the flow produced for one SOC.
#[derive(Debug, Clone)]
pub struct SocRun {
    /// Whole-inventory control sharing (the static upper bound).
    pub control: ShareReport,
    /// The session-based schedule.
    pub schedule: SessionSchedule,
    /// Non-session baseline; `Err` when the static architecture cannot
    /// test this chip (a legitimate corpus outcome, not a failure).
    pub nonsession: Result<NonSessionSchedule, ScheduleError>,
    /// Idealised serial reference (always feasible by construction of
    /// the corpus budgets).
    pub serial: Result<NonSessionSchedule, ScheduleError>,
    /// Wrapper cells placed across all scheduled scan tasks.
    pub wrapped_cells: usize,
    /// Fault-grading coverage of the SOC's glue netlist under the
    /// requested model, when graded.
    pub grading: Option<GradeSummary>,
    /// Invariant violations found (empty = clean run).
    pub violations: Vec<Violation>,
}

/// Runs the full flow for one SOC.
///
/// # Errors
///
/// [`ScheduleError`] when the session scheduler finds no feasible
/// schedule — the corpus sizes budgets so this should not happen, and
/// the smoke tests treat it as a failure. Grading errors panic: they
/// mean the generated netlist or the sim stack is broken, not the SOC.
///
/// # Panics
///
/// Panics if the wrap-verify stage finds a scan task whose scheduled
/// cycles disagree with its rebuilt wrapper plan (the layers must
/// agree), or if the grading backend fails.
pub fn run_soc(
    soc: &SyntheticSoc,
    exec: &Exec,
    opts: &RunOptions,
) -> Result<SocRun, ScheduleError> {
    // Share the whole control inventory once: the static upper bound
    // every session must undercut.
    let control = share_controls(
        soc.tasks.iter().flat_map(|t| &t.controls),
        &soc.config.session_share,
    );

    let schedule = schedule_sessions(&soc.tasks, &soc.config)?;
    let wrapped_cells = verify_wrap(soc, &schedule);

    let nonsession = schedule_nonsession(&soc.tasks, &soc.config);
    let serial = schedule_serial(&soc.tasks, &soc.config);

    let mut violations = Vec::new();
    if opts.check {
        violations.extend(check_schedule(soc, &schedule));
        for sess in &schedule.sessions {
            if sess.control_pins > control.shared_pins() {
                violations.push(Violation::ControlMismatch {
                    session: usize::MAX,
                    recorded: sess.control_pins,
                    derived: control.shared_pins(),
                });
            }
        }
    }

    let grading = if opts.grade {
        let module = glue_netlist(soc);
        let pins: Vec<NetId> = module
            .ports_with_dir(steac_netlist::PortDir::Input)
            .map(|p| p.net)
            .collect();
        let vectors = seeded_vectors(soc.seed, pins.len(), opts.vectors);
        Some(grade_glue(exec, &module, &pins, &vectors, opts.model))
    } else {
        None
    };

    Ok(SocRun {
        control,
        schedule,
        nonsession,
        serial,
        wrapped_cells,
        grading,
        violations,
    })
}

/// Grades `module` under one fault model and flattens the
/// model-specific report into a [`GradeSummary`].
///
/// # Panics
///
/// Panics if the grading backend fails — that means the generated
/// netlist or the sim stack is broken, not the SOC.
#[must_use]
pub fn grade_glue(
    exec: &Exec,
    module: &Module,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
    model: ModelKind,
) -> GradeSummary {
    match model {
        ModelKind::StuckAt => grade_model::<Fault>(exec, module, pins, vectors, model),
        ModelKind::Transition => grade_model::<TransitionFault>(exec, module, pins, vectors, model),
        ModelKind::Bridging => grade_model::<BridgingFault>(exec, module, pins, vectors, model),
    }
}

fn grade_model<F: FaultModel>(
    exec: &Exec,
    module: &Module,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
    model: ModelKind,
) -> GradeSummary {
    let faults = F::enumerate(module)
        .unwrap_or_else(|e| panic!("the glue netlist compiles for {model} enumeration: {e}"));
    let r = grade_vectors(exec, module, &faults, pins, vectors)
        .unwrap_or_else(|e| panic!("{model} grading the glue netlist must not fail: {e}"));
    GradeSummary {
        model,
        total: r.total,
        detected: r.detected,
        process_fallbacks: r.process_fallbacks,
    }
}

/// Rebuilds every scheduled scan task's wrapper plan at its granted
/// width and checks the scheduler booked exactly the plan's test time;
/// returns total wrapper cells placed.
///
/// # Panics
///
/// Panics on any disagreement — this is the contract between the
/// `wrapper` and `sched` layers.
fn verify_wrap(soc: &SyntheticSoc, schedule: &SessionSchedule) -> usize {
    let mut cells = 0usize;
    for sess in &schedule.sessions {
        for st in &sess.tasks {
            let task = &soc.tasks[st.task_index];
            let TestKind::Scan {
                patterns,
                internal_chains,
                inputs,
                outputs,
                soft,
            } = &task.kind
            else {
                continue;
            };
            let width = st.pins / 2;
            assert!(
                width >= 1,
                "{}: scan task granted {} pins",
                task.name,
                st.pins
            );
            let plan = if *soft {
                balance_soft(internal_chains.iter().sum(), *inputs, *outputs, width)
            } else {
                balance_fixed(internal_chains, *inputs, *outputs, width)
            };
            let expected = plan.test_time(*patterns);
            assert_eq!(
                st.cycles, expected,
                "{}: scheduler booked {} cycles, wrapper plan says {expected}",
                task.name, st.cycles
            );
            let internal: usize = internal_chains.iter().sum();
            assert_eq!(
                plan.total_internal_cells(),
                internal,
                "{}: wrapper chains lost internal cells",
                task.name
            );
            assert_eq!(
                plan.total_boundary_cells(),
                inputs + outputs,
                "{}: wrapper chains lost boundary cells",
                task.name
            );
            cells += plan.total_internal_cells() + plan.total_boundary_cells();
        }
    }
    cells
}

/// Combinational gate kinds the glue netlist draws from.
const GLUE_KINDS: [GateKind; 10] = [
    GateKind::Inv,
    GateKind::Buf,
    GateKind::Nand2,
    GateKind::Nor2,
    GateKind::And2,
    GateKind::Or2,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::And3,
    GateKind::Or3,
];

/// Builds the SOC's seeded glue netlist: a random combinational DAG
/// whose size scales gently with the core count, used as the grading
/// workload so every corpus SOC exercises the sim stack.
#[must_use]
pub fn glue_netlist(soc: &SyntheticSoc) -> Module {
    let mut rng = StdRng::seed_from_u64(soc.seed ^ 0x6175_6c74);
    let mut b = NetlistBuilder::new(&soc.name);
    let n_in = rng.gen_range(4usize..=10);
    let gates = (20 + soc.cores / 2).min(160);
    let mut pool: Vec<NetId> = b.input_bus("pi", n_in);
    for _ in 0..gates {
        let kind = GLUE_KINDS[rng.gen_range(0..GLUE_KINDS.len())];
        let ins: Vec<NetId> = (0..kind.input_count())
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let out = b.gate(kind, &ins);
        pool.push(out);
    }
    // A couple of direct observation points plus an OR cone over late
    // nets so most of the DAG is observable.
    let last = pool[pool.len() - 1];
    b.output("po0", last);
    let cone: Vec<NetId> = (0..8.min(pool.len()))
        .map(|_| pool[rng.gen_range(pool.len().saturating_sub(24)..pool.len())])
        .collect();
    let or = b.or_tree(&cone);
    b.output("po1", or);
    b.finish()
        .expect("glue netlist is well-formed by construction")
}

/// Deterministic SplitMix64 vectors, independent of any other crate so
/// zoo grading stimulus is stable.
#[must_use]
pub fn seeded_vectors(seed: u64, pins: usize, count: usize) -> Vec<Vec<Logic>> {
    (0..count)
        .map(|k| {
            (0..pins)
                .map(|i| Logic::from(splitmix(seed ^ (k as u64), i as u64) & 1 == 1))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ZooParams;

    #[test]
    fn glue_netlist_is_deterministic_and_gradable() {
        let soc = ZooParams::smoke().soc(3);
        let m1 = glue_netlist(&soc);
        let m2 = glue_netlist(&soc);
        assert_eq!(m1.cells.len(), m2.cells.len());
        assert!(steac_sim::enumerate_faults(&m1).len() > 10);
    }

    #[test]
    fn run_soc_completes_cleanly_on_a_smoke_instance() {
        let soc = ZooParams::smoke().soc(0);
        let run = run_soc(&soc, &Exec::serial(), &RunOptions::default()).expect("feasible");
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let grading = run.grading.expect("graded");
        assert!(grading.total > 0);
        assert!(run.serial.is_ok(), "serial reference must exist");
    }

    /// The fixed-seed adversarial instance CI pins: spiky power under
    /// near-zero headroom must still schedule feasibly, wrap-verify
    /// cleanly and pass every invariant check.
    #[test]
    fn adversarial_instance_runs_cleanly() {
        let soc = ZooParams::adversarial().soc(0);
        let opts = RunOptions {
            vectors: 24,
            ..RunOptions::default()
        };
        let run = run_soc(&soc, &Exec::serial(), &opts).expect("adversarial soc000 feasible");
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.grading.expect("graded").total > 0);
        // The single-wire-TAM pressure is real: at least one scan task
        // runs at the minimum 2-pin (1-wire in, 1-wire out) grant.
        let min_grant = run
            .schedule
            .sessions
            .iter()
            .flat_map(|s| s.tasks.iter())
            .filter(|st| {
                matches!(
                    soc.tasks[st.task_index].kind,
                    steac_sched::TestKind::Scan { .. }
                )
            })
            .map(|st| st.pins)
            .min();
        assert_eq!(min_grant, Some(2), "no single-wire TAM grant rolled");
    }

    /// Every registered fault model grades the same glue netlist
    /// through the flow, each with a non-trivial fault universe.
    #[test]
    fn every_model_grades_the_glue_netlist() {
        let soc = ZooParams::smoke().soc(2);
        for model in ModelKind::ALL {
            let opts = RunOptions {
                vectors: 24,
                model,
                ..RunOptions::default()
            };
            let run = run_soc(&soc, &Exec::serial(), &opts).expect("feasible");
            let grading = run.grading.expect("graded");
            assert_eq!(grading.model, model);
            assert!(grading.total > 0, "{model}: empty fault universe");
            assert!(grading.detected > 0, "{model}: nothing detected");
            assert!(grading.to_string().contains(&model.to_string()));
        }
    }
}
