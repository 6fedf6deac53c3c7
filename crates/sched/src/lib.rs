//! STEAC's Core Test Scheduler.
//!
//! The paper: *"Core Test Scheduler will schedule the core tests to reduce
//! the overall test time. The Scheduler partitions core tests into several
//! test sessions, and assigns the TAM wires to each core to meet the power
//! and IO resource constraints."* And the central observation of §3:
//! *"When the test IO resource constraint is considered, parallel testing
//! may not be better than serial testing. This is because more test
//! control IOs are needed for parallel testing, so fewer IO pins can be
//! used as the test data IOs (i.e., TAM IOs)."*
//!
//! This crate implements:
//!
//! * [`task`] — malleable test tasks (scan / functional / BIST) with
//!   width-dependent test-time models,
//! * [`alloc`] — water-filling pin allocation within a session, over
//!   each task's staircase of test times by pin count, filled lazily,
//! * [`session`] — the session-based scheduler (exhaustive partition
//!   search for small instances, greedy + local search beyond) under pin
//!   and power constraints, with session-scoped control-IO sharing.
//!   One call computes each task's time at each pin count at most once
//!   and evaluates each candidate session at most once,
//! * [`nonsession`] — the non-session baseline (2-D strip packing with a
//!   static, whole-test control-IO allocation) and the pure-serial
//!   baseline,
//! * [`report`] — schedule rendering (tables and a text Gantt chart).
//!
//! # Example
//!
//! ```
//! use steac_sched::{ChipConfig, TestTask, schedule_sessions};
//!
//! let tasks = vec![
//!     TestTask::scan("usb", 716, &[1629, 78, 293, 45], 221, 104, false),
//!     TestTask::functional("jpeg", 235_696, 165, 104),
//!     TestTask::bist("sram_bank", 1_000_000),
//! ];
//! let config = ChipConfig::default();
//! let schedule = schedule_sessions(&tasks, &config).expect("feasible under defaults");
//! assert!(schedule.total_cycles > 0);
//! assert!(schedule.sessions.len() <= config.max_sessions);
//! ```
//!
//! Infeasibility is a typed error, not a sentinel:
//!
//! ```
//! use steac_sched::{ChipConfig, ScheduleError, TestTask, schedule_sessions};
//!
//! let hot = vec![TestTask::bist("hot", 100).with_power(9.0)];
//! let err = schedule_sessions(&hot, &ChipConfig::default()).unwrap_err();
//! assert_eq!(err, ScheduleError::Infeasible { tasks: vec![0] });
//! ```

pub mod alloc;
pub mod nonsession;
pub mod report;
pub mod session;
pub mod task;

pub use alloc::{allocate_session, min_pins_needed, Allocation};
pub use nonsession::{schedule_nonsession, schedule_serial, NonSessionSchedule, Placement};
pub use session::{
    schedule_sessions, schedule_sessions_with, ScheduleError, ScheduledSession, ScheduledTask,
    SessionSchedule, Strategy, EXHAUSTIVE_LIMIT,
};
pub use task::{ChipConfig, TestKind, TestTask};

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline experiment shape: on a DSC-like instance, the
    /// session-based schedule beats the non-session baseline once IO
    /// constraints bind (paper: 4,371,194 vs 4,713,935 cycles).
    #[test]
    fn session_based_beats_nonsession_on_dsc_like_instance() {
        let tasks = task::dsc_like_tasks();
        let config = ChipConfig::default();
        let s = schedule_sessions(&tasks, &config).expect("feasible");
        let ns = schedule_nonsession(&tasks, &config).expect("feasible");
        assert!(
            s.total_cycles < ns.makespan,
            "session {} >= non-session {}",
            s.total_cycles,
            ns.makespan
        );
    }
}
