//! Scheduler invariants checked over every corpus SOC.
//!
//! These are the properties the paper's scheduler must hold at any
//! scale, written against the *outputs* (schedules and allocations), so
//! they stay valid however the search heuristics evolve:
//!
//! * every task scheduled exactly once,
//! * no session exceeds its pin budget or the power cap,
//! * session makespans equal the slowest member, and each member's
//!   cycles match its task's time model at the granted width,
//! * the schedule total is the (saturating) sum of session makespans,
//! * water-filling allocation respects min/max bounds and the budget,
//!   and never worsens the minimum-allocation makespan,
//! * total test time is monotone non-increasing as the TAM budget
//!   grows (checked on the exact, exhaustive-search path — the greedy
//!   heuristic is only *near*-monotone, see
//!   [`check_tam_monotone`]).

use crate::gen::SyntheticSoc;
use std::fmt;
use steac_sched::{
    allocate_session, min_pins_needed, schedule_sessions_with, ChipConfig, SessionSchedule,
    Strategy, TestTask,
};
use steac_tam::{share_controls, PinBudget};

/// One invariant violation, with enough payload to reproduce.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The schedule does not contain each task exactly once.
    TaskCoverage {
        /// Task indices seen, sorted.
        seen: Vec<usize>,
        /// Number of tasks expected.
        expected: usize,
    },
    /// A session's member powers sum over the cap.
    PowerExceeded {
        /// Session position.
        session: usize,
        /// Sum of member powers.
        power: f64,
        /// The cap.
        limit: f64,
    },
    /// A session's granted pins exceed its data budget.
    PinsExceeded {
        /// Session position.
        session: usize,
        /// Granted data pins (incl. shared fixed interfaces).
        used: usize,
        /// Data pins available.
        available: usize,
    },
    /// A session's recorded control/data pins disagree with re-derived
    /// sharing.
    ControlMismatch {
        /// Session position.
        session: usize,
        /// Recorded control pins.
        recorded: usize,
        /// Re-derived control pins.
        derived: usize,
    },
    /// Session makespan is not the max of member cycles.
    MakespanMismatch {
        /// Session position.
        session: usize,
        /// Recorded makespan.
        makespan: u64,
        /// Max member cycles.
        slowest: u64,
    },
    /// A member's recorded cycles disagree with the task time model at
    /// its granted width.
    TimeModelMismatch {
        /// Task index.
        task: usize,
        /// Recorded cycles.
        cycles: u64,
        /// `task.time(pins)`.
        expected: u64,
    },
    /// Schedule total is not the saturating sum of session makespans.
    TotalMismatch {
        /// Recorded total.
        total: u64,
        /// Saturating sum of makespans.
        sum: u64,
    },
    /// Total test time grew when the TAM budget grew.
    NonMonotoneTam {
        /// Pin budget of the narrower chip.
        narrow_pins: usize,
        /// Pin budget of the wider chip.
        wide_pins: usize,
        /// Total at the narrower budget.
        narrow_total: u64,
        /// Total at the wider budget.
        wide_total: u64,
    },
    /// Water-filling broke an allocation bound or worsened the
    /// minimum-allocation makespan.
    AllocBound {
        /// Which bound broke, human-readable.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TaskCoverage { seen, expected } => {
                write!(f, "tasks not covered exactly once: {seen:?} of {expected}")
            }
            Violation::PowerExceeded {
                session,
                power,
                limit,
            } => write!(f, "session {session}: power {power:.3} > limit {limit:.3}"),
            Violation::PinsExceeded {
                session,
                used,
                available,
            } => write!(f, "session {session}: {used} pins > {available} available"),
            Violation::ControlMismatch {
                session,
                recorded,
                derived,
            } => write!(
                f,
                "session {session}: recorded {recorded} control pins, derived {derived}"
            ),
            Violation::MakespanMismatch {
                session,
                makespan,
                slowest,
            } => write!(
                f,
                "session {session}: makespan {makespan} != slowest member {slowest}"
            ),
            Violation::TimeModelMismatch {
                task,
                cycles,
                expected,
            } => write!(
                f,
                "task {task}: recorded {cycles} cycles, time model says {expected}"
            ),
            Violation::TotalMismatch { total, sum } => {
                write!(f, "total {total} != sum of makespans {sum}")
            }
            Violation::NonMonotoneTam {
                narrow_pins,
                wide_pins,
                narrow_total,
                wide_total,
            } => write!(
                f,
                "total grew with TAM width: {narrow_total} @ {narrow_pins} pins -> \
                 {wide_total} @ {wide_pins} pins"
            ),
            Violation::AllocBound { detail } => write!(f, "allocation bound: {detail}"),
        }
    }
}

/// Checks every session-schedule invariant for one SOC's schedule.
/// Returns all violations found (empty = clean).
#[must_use]
pub fn check_schedule(soc: &SyntheticSoc, schedule: &SessionSchedule) -> Vec<Violation> {
    let mut v = Vec::new();
    let config = &soc.config;
    let tasks = &soc.tasks;

    let mut seen: Vec<usize> = schedule
        .sessions
        .iter()
        .flat_map(|s| s.tasks.iter().map(|t| t.task_index))
        .collect();
    seen.sort_unstable();
    if seen != (0..tasks.len()).collect::<Vec<_>>() {
        v.push(Violation::TaskCoverage {
            seen,
            expected: tasks.len(),
        });
    }

    for (si, sess) in schedule.sessions.iter().enumerate() {
        if sess.power > config.power_limit + 1e-9 {
            v.push(Violation::PowerExceeded {
                session: si,
                power: sess.power,
                limit: config.power_limit,
            });
        }

        // Re-derive the session's control sharing and data budget from
        // its members; the recorded numbers must agree. The full report,
        // not `shared_pin_count`, on purpose: the scheduler counts
        // through the latter, so every checked session cross-checks the
        // two.
        let signals = sess
            .tasks
            .iter()
            .flat_map(|t| &tasks[t.task_index].controls);
        let control = share_controls(signals, &config.session_share).shared_pins();
        if control != sess.control_pins {
            v.push(Violation::ControlMismatch {
                session: si,
                recorded: sess.control_pins,
                derived: control,
            });
        }
        let data = config.budget.data_pins(config.global_pins + control);
        let members: Vec<&TestTask> = sess.tasks.iter().map(|t| &tasks[t.task_index]).collect();
        let fixed = min_pins_needed(&members) - members.iter().map(|t| t.min_pins()).sum::<usize>();
        let used = sess.tasks.iter().map(|t| t.pins).sum::<usize>() + fixed;
        if used > data.min(sess.data_pins_available) {
            v.push(Violation::PinsExceeded {
                session: si,
                used,
                available: data.min(sess.data_pins_available),
            });
        }

        let slowest = sess.tasks.iter().map(|t| t.cycles).max().unwrap_or(0);
        if sess.makespan != slowest {
            v.push(Violation::MakespanMismatch {
                session: si,
                makespan: sess.makespan,
                slowest,
            });
        }
        for t in &sess.tasks {
            let expected = tasks[t.task_index].time(t.pins.max(1));
            if t.cycles != expected {
                v.push(Violation::TimeModelMismatch {
                    task: t.task_index,
                    cycles: t.cycles,
                    expected,
                });
            }
        }
    }

    let sum = schedule
        .sessions
        .iter()
        .fold(0u64, |acc, s| acc.saturating_add(s.makespan));
    if schedule.total_cycles != sum {
        v.push(Violation::TotalMismatch {
            total: schedule.total_cycles,
            sum,
        });
    }
    v
}

/// Checks that total test time is monotone non-increasing as the TAM
/// (pin) budget grows, on the **exhaustive** search path.
///
/// The property is a theorem for the exact search: a wider budget only
/// enlarges every session's feasible allocation set, so the optimal
/// partition at the narrow width is still available at the wide one.
/// The greedy path makes no such promise (its local search can walk to
/// a different basin at a different width), which is why the zoo pins
/// the exact path and tracks the heuristic separately.
#[must_use]
pub fn check_tam_monotone(soc: &SyntheticSoc, widenings: &[usize]) -> Vec<Violation> {
    let mut v = Vec::new();
    let base = soc.config.budget.test_pins;
    let mut prev: Option<(usize, u64)> = None;
    for &extra in widenings {
        let config = ChipConfig {
            budget: PinBudget::with_reserved(base + extra, soc.config.budget.reserved),
            ..soc.config.clone()
        };
        let Ok(s) = schedule_sessions_with(&soc.tasks, &config, Strategy::Exhaustive) else {
            prev = None;
            continue;
        };
        if let Some((ppins, ptotal)) = prev {
            if s.total_cycles > ptotal {
                v.push(Violation::NonMonotoneTam {
                    narrow_pins: ppins,
                    wide_pins: base + extra,
                    narrow_total: ptotal,
                    wide_total: s.total_cycles,
                });
            }
        }
        prev = Some((base + extra, s.total_cycles));
    }
    v
}

/// Checks water-filling allocation bounds for one task set over a
/// budget sweep: never over budget, never below a task minimum or
/// above its useful maximum, terminates (returns at all), and never
/// worse than the minimum allocation it started from.
#[must_use]
pub fn check_alloc(tasks: &[&TestTask], budgets: &[usize]) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut prev: Option<(usize, u64)> = None;
    for &budget in budgets {
        let Some(alloc) = allocate_session(tasks, budget) else {
            prev = None;
            continue;
        };
        if alloc.total_pins() > budget {
            v.push(Violation::AllocBound {
                detail: format!("{} pins granted from budget {budget}", alloc.total_pins()),
            });
        }
        for (t, &p) in tasks.iter().zip(&alloc.pins) {
            if p < t.min_pins() || p > t.max_pins().max(t.min_pins()) {
                v.push(Violation::AllocBound {
                    detail: format!(
                        "task {} granted {p} pins outside [{}, {}]",
                        t.name,
                        t.min_pins(),
                        t.max_pins().max(t.min_pins())
                    ),
                });
            }
            if t.min_pins() > 0 && t.time(p) > t.time(t.min_pins()) {
                v.push(Violation::AllocBound {
                    detail: format!("task {} slower at {p} pins than at its minimum", t.name),
                });
            }
        }
        // Makespan must never worsen as the budget grows.
        if let Some((pb, pm)) = prev {
            if alloc.makespan() > pm {
                v.push(Violation::AllocBound {
                    detail: format!(
                        "makespan grew with budget: {pm} @ {pb} -> {} @ {budget}",
                        alloc.makespan()
                    ),
                });
            }
        }
        prev = Some((budget, alloc.makespan()));
    }
    v
}
