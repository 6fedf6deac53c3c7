//! `zoo_flow`: seeded synthetic SOCs from the smoke preset through the
//! full flow (generate, share controls, schedule, wrap-verify, check
//! invariants, grade the glue logic) on the serial backend. Nearly all
//! the time goes to the session scheduler and almost none to the
//! simulation kernel.

use crate::stats;
use crate::trace::Tracer;
use crate::{coverage, overhead, per_op, set_up, timed_loop, Config, Report};
use std::time::Instant;
use steac_suite::steac_sched::{
    schedule_nonsession, schedule_serial, schedule_sessions, SessionSchedule, TestKind,
    EXHAUSTIVE_LIMIT,
};
use steac_suite::steac_sim::{Exec, ModelKind};
use steac_suite::steac_tam::share_controls;
use steac_suite::steac_wrapper::chain::{balance_fixed, balance_soft};
use steac_suite::steac_zoo::{
    check_schedule, glue_netlist, grade_glue, run_soc, seeded_vectors, RunOptions, SocRun,
    SyntheticSoc, Violation, ZooParams,
};

/// Core counts of one round of SOCs. The smoke preset samples 4–150
/// cores log-uniformly; one 151-core SOC alone schedules for tens of
/// seconds, and an SOC with exactly [`EXHAUSTIVE_LIMIT`] tasks pays a
/// partition search thousands of times dearer than one with a task
/// fewer. A fixed ladder keeps every run's mix of sizes the same
/// whatever the seed: 4 cores (at most 8 tasks, always the exhaustive
/// search) and 10–24 cores (at least 10 tasks, always greedy), never the
/// rungs between, where the seed decides which search runs.
const LADDER: [usize; 7] = [4, 10, 12, 14, 16, 20, 24];

/// SOC `index` of the corpus drawn from `seed`: smoke-preset knobs with
/// the core count pinned to the ladder rung.
fn soc(seed: u64, index: usize) -> SyntheticSoc {
    let cores = LADDER[index % LADDER.len()];
    ZooParams {
        seed,
        min_cores: cores,
        max_cores: cores,
        ..ZooParams::smoke()
    }
    .soc(index)
}

fn options() -> RunOptions {
    RunOptions {
        model: ModelKind::StuckAt,
        ..RunOptions::default()
    }
}

/// A flow result free of invariant violations.
fn clean(run: &Result<SocRun, impl std::fmt::Debug>) -> bool {
    run.as_ref().is_ok_and(|r| r.violations.is_empty())
}

/// `run_soc`'s stages called one at a time, each in its own span; the
/// result must equal what `run_soc` returns for the same SOC.
fn staged(tr: &mut Tracer, seed: u64, index: usize) -> Option<(SocRun, usize)> {
    let opts = options();
    tr.span("op", |tr| {
        let soc = tr.span("zoo.gen", |_| soc(seed, index));
        let signals: Vec<_> = soc
            .tasks
            .iter()
            .flat_map(|t| t.controls.iter().cloned())
            .collect();
        let control = tr.span("tam.share", |_| {
            share_controls(&signals, &soc.config.session_share)
        });
        let schedule = tr
            .span("sched.session", |_| {
                schedule_sessions(&soc.tasks, &soc.config)
            })
            .ok()?;
        let wrapped_cells = tr.span("wrapper.balance", |_| wrapped_cells(&soc, &schedule))?;
        let nonsession = tr.span("sched.nonsession", |_| {
            schedule_nonsession(&soc.tasks, &soc.config)
        });
        let serial = tr.span("sched.serial", |_| schedule_serial(&soc.tasks, &soc.config));
        let violations = tr.span("zoo.check", |_| {
            let mut v = check_schedule(&soc, &schedule);
            for sess in &schedule.sessions {
                if sess.control_pins > control.shared_pins() {
                    v.push(Violation::ControlMismatch {
                        session: usize::MAX,
                        recorded: sess.control_pins,
                        derived: control.shared_pins(),
                    });
                }
            }
            v
        });
        let grading = tr.span("zoo.grade", |_| {
            let module = glue_netlist(&soc);
            let pins: Vec<_> = module
                .ports_with_dir(steac_suite::steac_netlist::PortDir::Input)
                .map(|p| p.net)
                .collect();
            let vectors = seeded_vectors(soc.seed, pins.len(), opts.vectors);
            grade_glue(&Exec::serial(), &module, &pins, &vectors, opts.model)
        });
        let run = SocRun {
            control,
            schedule,
            nonsession,
            serial,
            wrapped_cells,
            grading: Some(grading),
            violations,
        };
        Some((run, soc.tasks.len()))
    })
}

/// Rebuilds each scheduled scan task's wrapper chains at its granted
/// width and returns the cells placed; `None` when a plan's test time
/// disagrees with the cycles the scheduler booked.
fn wrapped_cells(soc: &SyntheticSoc, schedule: &SessionSchedule) -> Option<usize> {
    let mut cells = 0;
    for st in schedule.sessions.iter().flat_map(|s| &s.tasks) {
        let TestKind::Scan {
            patterns,
            internal_chains,
            inputs,
            outputs,
            soft,
        } = &soc.tasks[st.task_index].kind
        else {
            continue;
        };
        let width = st.pins / 2;
        let plan = if *soft {
            balance_soft(internal_chains.iter().sum(), *inputs, *outputs, width)
        } else {
            balance_fixed(internal_chains, *inputs, *outputs, width)
        };
        if plan.test_time(*patterns) != st.cycles {
            return None;
        }
        cells += plan.total_internal_cells() + plan.total_boundary_cells();
    }
    Some(cells)
}

/// Reports of two flow runs agree field by field.
fn same(a: &SocRun, b: &SocRun) -> bool {
    a.control == b.control
        && a.schedule == b.schedule
        && a.nonsession == b.nonsession
        && a.serial == b.serial
        && a.wrapped_cells == b.wrapped_cells
        && a.grading == b.grading
        && a.violations == b.violations
}

pub fn run(cfg: &Config, tr: &mut Tracer, rep: &mut Report) {
    // The only set-up is the DSC reference schedule every workload runs.
    set_up(rep, tr, |_| ());
    let seed = cfg.seed;
    let opts = options();
    let exec = Exec::serial();
    let flow = |rep: &mut Report, index: usize| -> (f64, Option<SocRun>) {
        let soc = soc(seed, index);
        let run = run_soc(&soc, &exec, &opts);
        rep.tally.record(
            clean(&run),
            &format!("{} schedules without violations", soc.name),
        );
        (soc.tasks.len() as f64, run.ok())
    };
    flow(rep, 0); // warm-up
    let mut index = 1;

    if !cfg.trace {
        // One operation is one round: an SOC of each ladder size. Per-SOC
        // latency is multimodal across the ladder, so its median would
        // jump between size classes; a round's is steady.
        let rounds = timed_loop(cfg.seconds, || {
            let mut tasks = 0.0;
            for _ in LADDER {
                tasks += flow(rep, index).0;
                index += 1;
            }
            tasks
        });
        rep.set_throughput(&rounds);
        return;
    }

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut cycles, mut sessions, mut exhaustive) = (0u64, 0usize, 0usize);
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        for _ in LADDER {
            let first_round = traced.len() < LADDER.len();
            let t = Instant::now();
            let (_, run) = flow(rep, index);
            untraced.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let staged = staged(tr, seed, index);
            index += 1;
            traced.push(t.elapsed().as_secs_f64());
            let agree = matches!((&run, &staged), (Some(a), Some((b, _))) if same(a, b));
            rep.tally.record(agree, "staged flow equals run_soc");
            if let (true, Some((run, tasks))) = (first_round, staged) {
                cycles += run.schedule.total_cycles;
                sessions += run.schedule.sessions.len();
                exhaustive += usize::from(tasks <= EXHAUSTIVE_LIMIT);
            }
        }
    }
    let ops = traced.len();
    per_op(
        tr,
        rep,
        ops,
        &[
            ("zoo.gen_s", "zoo.gen"),
            ("tam.share_s", "tam.share"),
            ("sched.session_s", "sched.session"),
            ("sched.nonsession_s", "sched.nonsession"),
            ("sched.serial_s", "sched.serial"),
            ("wrapper.balance_s", "wrapper.balance"),
            ("zoo.check_s", "zoo.check"),
            ("zoo.grade_s", "zoo.grade"),
        ],
    );
    rep.set("zoo.socs", ops as f64);
    rep.set(
        "zoo.soc_p50_ms",
        stats::median(&untraced).expect("ops ran") * 1e3,
    );
    match stats::supported_tail(&untraced) {
        Some((p, _)) if p >= 90.0 => {
            let p90 = stats::percentile(&untraced, 90.0).expect("ops ran");
            rep.set("zoo.soc_p90_ms", p90 * 1e3);
        }
        _ => rep.note(format!(
            "{ops} SOCs are too few for a p90; zoo.soc_p90_ms reads 0"
        )),
    }
    rep.set("zoo.test_cycles", cycles as f64);
    rep.set("sched.sessions", sessions as f64 / LADDER.len() as f64);
    rep.set("sched.exhaustive_socs", exhaustive as f64);
    overhead(rep, &traced, &untraced);
    coverage(tr, rep);
}
