//! Baselines: non-session scheduling and pure-serial scheduling.
//!
//! A non-session architecture has neither a session controller nor a
//! session-reconfigured TAM multiplexer, which costs it twice:
//!
//! 1. **Static control IOs** — every core's control signals (and all
//!    shared interfaces) stay pinned for the whole test; test enables
//!    cannot be session-decoded.
//! 2. **Static TAM widths** — without the TAM mux, each core's wrapper
//!    terminals occupy *dedicated* chip pins, so the width split is fixed
//!    at design time across **all** cores, not per concurrent group.
//!
//! The ATE can still sequence tests in time (driving test enables), so
//! placement remains free subject to the power cap. This is the
//! architecture the paper compares against: its session-based schedule
//! (4,371,194 cycles) beat the non-session one (4,713,935 cycles) on the
//! DSC chip.

use crate::alloc::{allocate_session, min_pins_needed};
use crate::session::ScheduleError;
use crate::task::{ChipConfig, TestTask};
use steac_tam::shared_pin_count;

/// A placed task in a non-session schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Index into the input task slice.
    pub task_index: usize,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles.
    pub cycles: u64,
    /// Data pins statically dedicated to this task.
    pub pins: usize,
}

impl Placement {
    /// End cycle (exclusive); saturates instead of wrapping on
    /// zoo-scale cycle counts.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.cycles)
    }
}

/// A non-session (statically pinned) schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct NonSessionSchedule {
    /// Task placements.
    pub placements: Vec<Placement>,
    /// Total test time.
    pub makespan: u64,
    /// Static control pins held for the whole test.
    pub control_pins: usize,
    /// Data pins available for the static width split.
    pub data_pins_available: usize,
}

/// Static pin accounting shared by both baselines: all control signals of
/// all tasks are pinned simultaneously. Shared data interfaces (pin
/// groups such as the BIST port) are charged by the allocator inside the
/// data budget, exactly as in the session path.
fn static_budget(tasks: &[TestTask], config: &ChipConfig) -> (usize, usize) {
    let control = shared_pin_count(tasks.iter().flat_map(|t| &t.controls), &config.static_share);
    let data = config.budget.data_pins(config.global_pins + control);
    (control, data)
}

/// Schedules the non-session baseline: static widths via water-filling
/// over the whole task set, then earliest-feasible placement (longest
/// first) under the power cap.
///
/// An empty task set is a valid (empty) schedule with zero makespan.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when a task exceeds the power cap on
/// its own; [`ScheduleError::StaticBudget`] when the minimum widths of
/// all tasks together do not fit the static data budget.
pub fn schedule_nonsession(
    tasks: &[TestTask],
    config: &ChipConfig,
) -> Result<NonSessionSchedule, ScheduleError> {
    let (control_pins, data) = static_budget(tasks, config);
    let overpowered: Vec<usize> = (0..tasks.len())
        .filter(|&i| tasks[i].power > config.power_limit + 1e-9)
        .collect();
    if !overpowered.is_empty() {
        return Err(ScheduleError::Infeasible { tasks: overpowered });
    }
    let refs: Vec<&TestTask> = tasks.iter().collect();
    let Some(alloc) = allocate_session(&refs, data) else {
        return Err(ScheduleError::StaticBudget {
            needed: min_pins_needed(&refs),
            available: data,
        });
    };

    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(alloc.times[i]));

    let mut placed: Vec<Placement> = Vec::with_capacity(tasks.len());
    for &ti in &order {
        let cycles = alloc.times[ti];
        let power = tasks[ti].power;
        let mut candidates: Vec<u64> = vec![0];
        candidates.extend(placed.iter().map(Placement::end));
        candidates.sort_unstable();
        candidates.dedup();
        let start = candidates
            .into_iter()
            .find(|&s| power_fits(&placed, tasks, s, cycles, power, config))
            .expect("the end of the last task is always feasible");
        placed.push(Placement {
            task_index: ti,
            start,
            cycles,
            pins: alloc.pins[ti],
        });
    }
    // The empty-placement case (no tasks) yields a zero makespan
    // instead of panicking on `max()` of an empty iterator.
    let makespan = placed.iter().map(Placement::end).max().unwrap_or(0);
    Ok(NonSessionSchedule {
        placements: placed,
        makespan,
        control_pins,
        data_pins_available: data,
    })
}

fn power_fits(
    placed: &[Placement],
    tasks: &[TestTask],
    start: u64,
    cycles: u64,
    power: f64,
    config: &ChipConfig,
) -> bool {
    let end = start.saturating_add(cycles);
    let mut boundaries: Vec<u64> = vec![start];
    for p in placed {
        if p.start < end && p.end() > start {
            boundaries.push(p.start.max(start));
        }
    }
    for &t0 in &boundaries {
        let mut pw = power;
        for p in placed {
            if p.start <= t0 && p.end() > t0 {
                pw += tasks[p.task_index].power;
            }
        }
        if pw > config.power_limit + 1e-9 {
            return false;
        }
    }
    true
}

/// Pure-serial reference: one test at a time, each receiving every
/// available data pin (an idealised fully-reconfigurable serial tester),
/// under the same static control allocation.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] naming every task that cannot run even
/// alone — too wide for the data budget (its minimum width plus any
/// shared interface it drags in) or over the power cap.
pub fn schedule_serial(
    tasks: &[TestTask],
    config: &ChipConfig,
) -> Result<NonSessionSchedule, ScheduleError> {
    let (control_pins, data) = static_budget(tasks, config);
    let lone: Vec<usize> = (0..tasks.len())
        .filter(|&i| {
            data < min_pins_needed(&[&tasks[i]]) || tasks[i].power > config.power_limit + 1e-9
        })
        .collect();
    if !lone.is_empty() {
        return Err(ScheduleError::Infeasible { tasks: lone });
    }
    let mut placements = Vec::with_capacity(tasks.len());
    let mut clock = 0u64;
    for (i, t) in tasks.iter().enumerate() {
        let pins = t.max_pins().min(data).max(t.min_pins());
        let cycles = t.time(pins.max(1));
        placements.push(Placement {
            task_index: i,
            start: clock,
            cycles,
            pins,
        });
        clock = clock.saturating_add(cycles);
    }
    Ok(NonSessionSchedule {
        placements,
        makespan: clock,
        control_pins,
        data_pins_available: data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::dsc_like_tasks;

    #[test]
    fn static_widths_fit_the_dedicated_budget() {
        let tasks = dsc_like_tasks();
        let config = ChipConfig::default();
        let s = schedule_nonsession(&tasks, &config).expect("feasible schedule expected");
        let total: usize = s.placements.iter().map(|p| p.pins).sum();
        assert!(
            total + 7 <= s.data_pins_available + 7,
            "static split {total} exceeds data budget {}",
            s.data_pins_available
        );
    }

    #[test]
    fn power_cap_respected_at_all_times() {
        let tasks = dsc_like_tasks();
        let config = ChipConfig::default();
        let s = schedule_nonsession(&tasks, &config).expect("feasible");
        for p in &s.placements {
            let t0 = p.start;
            let pw: f64 = s
                .placements
                .iter()
                .filter(|q| q.start <= t0 && q.end() > t0)
                .map(|q| tasks[q.task_index].power)
                .sum();
            assert!(pw <= config.power_limit + 1e-9, "power {pw} at {t0}");
        }
    }

    #[test]
    fn all_tasks_placed_once() {
        let tasks = dsc_like_tasks();
        let s = schedule_nonsession(&tasks, &ChipConfig::default()).expect("feasible");
        let mut seen: Vec<usize> = s.placements.iter().map(|p| p.task_index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..tasks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn static_control_exceeds_session_control() {
        // The whole point: the non-session baseline pins more controls.
        let tasks = dsc_like_tasks();
        let config = ChipConfig::default();
        let (ctl, _) = static_budget(&tasks, &config);
        let s = crate::session::schedule_sessions(&tasks, &config).expect("feasible");
        for sess in &s.sessions {
            assert!(
                sess.control_pins <= ctl,
                "session control {} > static {}",
                sess.control_pins,
                ctl
            );
        }
    }

    #[test]
    fn nonsession_beats_idealised_serial_here() {
        // With power room for overlap, packing beats pure serial even
        // though serial gets full width per test.
        let tasks = dsc_like_tasks();
        let config = ChipConfig::default();
        let ns = schedule_nonsession(&tasks, &config).expect("feasible");
        let serial = schedule_serial(&tasks, &config).expect("feasible");
        assert!(ns.makespan <= serial.makespan);
    }

    #[test]
    fn makespan_is_last_end() {
        let tasks = dsc_like_tasks();
        let s = schedule_nonsession(&tasks, &ChipConfig::default()).expect("feasible");
        let last = s.placements.iter().map(Placement::end).max().unwrap();
        assert_eq!(s.makespan, last);
    }

    #[test]
    fn empty_task_set_is_an_empty_schedule() {
        let s = schedule_nonsession(&[], &ChipConfig::default()).expect("empty is feasible");
        assert!(s.placements.is_empty());
        assert_eq!(s.makespan, 0);
        let s = schedule_serial(&[], &ChipConfig::default()).expect("empty is feasible");
        assert_eq!(s.makespan, 0);
    }

    #[test]
    fn overpowered_single_task_is_a_typed_error() {
        let tasks = vec![crate::task::TestTask::bist("b", 10).with_power(99.0)];
        let err = schedule_nonsession(&tasks, &ChipConfig::default()).unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible { tasks: vec![0] });
        let err = schedule_serial(&tasks, &ChipConfig::default()).unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible { tasks: vec![0] });
    }

    #[test]
    fn static_budget_overflow_is_a_typed_error() {
        // 60 functional tasks want 8 pins each statically: 480 > the
        // default data budget.
        let tasks: Vec<_> = (0..60)
            .map(|i| crate::task::TestTask::functional(&format!("f{i}"), 100, 16, 16))
            .collect();
        let err = schedule_nonsession(&tasks, &ChipConfig::default()).unwrap_err();
        match err {
            ScheduleError::StaticBudget { needed, available } => {
                assert!(needed > available, "{needed} <= {available}");
            }
            other => panic!("expected StaticBudget, got {other:?}"),
        }
    }

    #[test]
    fn serial_rejects_a_task_whose_shared_interface_does_not_fit() {
        // 5 data pins; the BIST task's 7-pin mbist interface does not
        // fit, so no baseline may schedule it.
        let tasks = vec![crate::task::TestTask::bist("b", 100)];
        let config = ChipConfig {
            budget: steac_tam::PinBudget::with_reserved(11, 2),
            ..ChipConfig::default()
        };
        assert_eq!(static_budget(&tasks, &config).1, 5);
        let err = schedule_serial(&tasks, &config).unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible { tasks: vec![0] });
        let err = crate::session::schedule_sessions(&tasks, &config).unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible { tasks: vec![0] });
        let err = schedule_nonsession(&tasks, &config).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::StaticBudget {
                needed: 7,
                available: 5
            }
        );
    }

    #[test]
    fn placement_end_saturates() {
        let p = Placement {
            task_index: 0,
            start: u64::MAX - 5,
            cycles: 10,
            pins: 1,
        };
        assert_eq!(p.end(), u64::MAX);
    }
}
