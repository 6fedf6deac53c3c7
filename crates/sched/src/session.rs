//! The session-based scheduler.
//!
//! Tests are partitioned into sessions executed back-to-back; within a
//! session tests run concurrently on disjoint pin allocations. Control
//! IOs are *session-scoped*: only the active cores' control signals
//! occupy pins (shared per [`ChipConfig::session_share`]), so a session
//! with few cores enjoys a wide TAM — the mechanism behind the paper's
//! "session-based approach has the shortest total test time".
//!
//! Small instances (≤ [`EXHAUSTIVE_LIMIT`] tasks) are solved by exhaustive
//! set-partition search; larger instances use greedy seeding plus a
//! move/swap local search.
//!
//! Every search step asks for the makespans of a few blocks (candidate
//! sessions), and most of those blocks were asked for before. One
//! scheduler call therefore keeps one evaluation context: each task's
//! staircase of times by pin count (see [`crate::alloc`]), filled as
//! water-filling reaches it, and a memo of every block's makespan
//! keyed by its ordered member list. The order is part of the key
//! because allocation ties break by position in the block. Searches
//! read makespans only; the full [`ScheduledSession`]s are built once,
//! for the winning partition.

use crate::alloc::{water_fill, Staircase};
use crate::task::{ChipConfig, TestTask};
use std::collections::HashMap;
use std::fmt;
use steac_tam::shared_pin_count;

/// Exhaustive partition search is used up to this many tasks.
pub const EXHAUSTIVE_LIMIT: usize = 9;

/// Why no schedule exists for a task set under a configuration.
///
/// Infeasibility used to be reported in-band (an empty schedule with
/// `total_cycles == u64::MAX`), which any caller summing totals over a
/// corpus would silently add up; it is now a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// These tasks (indices into the input slice) cannot run even in a
    /// session of their own: their minimum pin needs or power exceed
    /// the chip budget.
    Infeasible {
        /// Indices of the tasks that do not fit alone.
        tasks: Vec<usize>,
    },
    /// Every task fits in a session alone, but no partition into at
    /// most `max_sessions` sessions satisfies the pin and power
    /// constraints (within the search budget).
    NoPartition {
        /// The session budget the search ran under.
        max_sessions: usize,
    },
    /// Non-session static width split: the minimum widths of all tasks
    /// together exceed the static data-pin budget.
    StaticBudget {
        /// Data pins the minimum allocations need.
        needed: usize,
        /// Data pins available after static control allocation.
        available: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Infeasible { tasks } => {
                write!(
                    f,
                    "task(s) {tasks:?} cannot run even in a session of their own"
                )
            }
            ScheduleError::NoPartition { max_sessions } => write!(
                f,
                "no feasible partition into at most {max_sessions} session(s)"
            ),
            ScheduleError::StaticBudget { needed, available } => write!(
                f,
                "static width split needs {needed} data pins but only {available} are available"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Which partition search [`schedule_sessions_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Exhaustive up to [`EXHAUSTIVE_LIMIT`] tasks, greedy + local
    /// search beyond — what [`schedule_sessions`] does.
    #[default]
    Auto,
    /// Exhaustive set-partition search regardless of size. Optimal, but
    /// exponential: callers (differential tests, mostly) must keep the
    /// instance small.
    Exhaustive,
    /// Greedy seeding plus move-based local search regardless of size.
    Greedy,
}

/// One task inside a scheduled session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTask {
    /// Index into the input task slice.
    pub task_index: usize,
    /// Data pins allocated.
    pub pins: usize,
    /// Resulting test time in cycles.
    pub cycles: u64,
}

/// A scheduled session.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledSession {
    /// Member tasks with allocations.
    pub tasks: Vec<ScheduledTask>,
    /// Control pins occupied during the session (after sharing).
    pub control_pins: usize,
    /// Data pins available during the session.
    pub data_pins_available: usize,
    /// Session makespan in cycles.
    pub makespan: u64,
    /// Session power (sum of member powers).
    pub power: f64,
}

/// A complete session-based schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSchedule {
    /// Sessions in execution order (longest first, matching the DSC
    /// bring-up order).
    pub sessions: Vec<ScheduledSession>,
    /// Total test time: the sum of session makespans.
    pub total_cycles: u64,
}

impl SessionSchedule {
    fn from_sessions(mut sessions: Vec<ScheduledSession>) -> Self {
        sessions.sort_by_key(|s| std::cmp::Reverse(s.makespan));
        let total_cycles = sessions
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.makespan));
        SessionSchedule {
            sessions,
            total_cycles,
        }
    }
}

/// The evaluation context of one scheduler call: every task's
/// staircase and the makespan of every block evaluated so far. It lives
/// for one call, so its memory goes with the call.
struct Evaluator<'a> {
    tasks: &'a [TestTask],
    config: &'a ChipConfig,
    stairs: Vec<Staircase<'a>>,
    /// Makespan by ordered member list; `None` for an infeasible block.
    makespans: HashMap<Vec<usize>, Option<u64>>,
}

impl<'a> Evaluator<'a> {
    fn new(tasks: &'a [TestTask], config: &'a ChipConfig) -> Self {
        Evaluator {
            tasks,
            config,
            stairs: tasks.iter().map(Staircase::new).collect(),
            makespans: HashMap::new(),
        }
    }

    /// Evaluates one session (task indices in block order): power cap,
    /// control sharing, pin budget, allocation. `None` if infeasible.
    fn session(&mut self, block: &[usize]) -> Option<ScheduledSession> {
        let config = self.config;
        let power: f64 = block.iter().map(|&i| self.tasks[i].power).sum();
        if power > config.power_limit + 1e-9 {
            return None;
        }
        let control_pins = shared_pin_count(
            block.iter().flat_map(|&i| &self.tasks[i].controls),
            &config.session_share,
        );
        let data_pins = config.budget.data_pins(config.global_pins + control_pins);
        let alloc = water_fill(&mut self.stairs, block, data_pins)?;
        Some(ScheduledSession {
            makespan: alloc.makespan(),
            tasks: block
                .iter()
                .zip(alloc.pins.iter().zip(&alloc.times))
                .map(|(&task_index, (&pins, &cycles))| ScheduledTask {
                    task_index,
                    pins,
                    cycles,
                })
                .collect(),
            control_pins,
            data_pins_available: data_pins,
            power,
        })
    }

    /// The makespan of one block, evaluated at most once per call.
    fn makespan(&mut self, block: &[usize]) -> Option<u64> {
        if let Some(&makespan) = self.makespans.get(block) {
            return makespan;
        }
        let makespan = self.session(block).map(|s| s.makespan);
        self.makespans.insert(block.to_vec(), makespan);
        makespan
    }

    /// Total test time of a partition (empty blocks skipped); `None` if
    /// any block is infeasible.
    fn total(&mut self, blocks: &[Vec<usize>]) -> Option<u64> {
        let mut total = 0u64;
        for b in blocks.iter().filter(|b| !b.is_empty()) {
            total = total.saturating_add(self.makespan(b)?);
        }
        Some(total)
    }

    /// Builds the schedule of a partition.
    fn schedule(&mut self, blocks: &[Vec<usize>]) -> Option<SessionSchedule> {
        let sessions: Option<Vec<ScheduledSession>> = blocks
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| self.session(b))
            .collect();
        sessions.map(SessionSchedule::from_sessions)
    }

    /// Explains a failed partition search: names the tasks that do not
    /// fit even alone, or blames the session budget when every task
    /// does.
    fn diagnose(&mut self) -> ScheduleError {
        let lone: Vec<usize> = (0..self.tasks.len())
            .filter(|&i| self.makespan(&[i]).is_none())
            .collect();
        if lone.is_empty() {
            ScheduleError::NoPartition {
                max_sessions: self.config.max_sessions,
            }
        } else {
            ScheduleError::Infeasible { tasks: lone }
        }
    }
}

/// Schedules `tasks` into at most `config.max_sessions` sessions,
/// minimising total test time under pin and power constraints.
///
/// An empty task set is a valid (empty) schedule with zero cycles.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when some task cannot run even in a
/// session of its own; [`ScheduleError::NoPartition`] when every task
/// fits alone but no partition within `config.max_sessions` sessions
/// satisfies the constraints.
pub fn schedule_sessions(
    tasks: &[TestTask],
    config: &ChipConfig,
) -> Result<SessionSchedule, ScheduleError> {
    schedule_sessions_with(tasks, config, Strategy::Auto)
}

/// [`schedule_sessions`] with an explicit partition-search [`Strategy`].
///
/// The zoo's differential tests use this to run `Exhaustive` and
/// `Greedy` on the same instance and compare totals.
///
/// # Errors
///
/// Same contract as [`schedule_sessions`].
pub fn schedule_sessions_with(
    tasks: &[TestTask],
    config: &ChipConfig,
    strategy: Strategy,
) -> Result<SessionSchedule, ScheduleError> {
    if tasks.is_empty() {
        return Ok(SessionSchedule {
            sessions: vec![],
            total_cycles: 0,
        });
    }
    let mut ev = Evaluator::new(tasks, config);
    let best = match strategy {
        Strategy::Auto if tasks.len() <= EXHAUSTIVE_LIMIT => exhaustive(&mut ev),
        Strategy::Auto => greedy_local(&mut ev),
        Strategy::Exhaustive => exhaustive(&mut ev),
        Strategy::Greedy => greedy_local(&mut ev),
    };
    best.and_then(|blocks| ev.schedule(&blocks))
        .ok_or_else(|| ev.diagnose())
}

/// The partition with the smallest total over every set partition into
/// at most `max_sessions` blocks; the first found wins ties.
fn exhaustive(ev: &mut Evaluator<'_>) -> Option<Vec<Vec<usize>>> {
    // (total, blocks). The total rides inside the Option rather than
    // starting from a `u64::MAX` sentinel: a real schedule whose
    // saturated total *equals* `u64::MAX` must still beat "nothing
    // found yet".
    type Best = Option<(u64, Vec<Vec<usize>>)>;
    fn rec(ev: &mut Evaluator<'_>, i: usize, blocks: &mut Vec<Vec<usize>>, best: &mut Best) {
        if i == ev.tasks.len() {
            let Some(total) = ev.total(blocks) else {
                return;
            };
            if best.as_ref().is_none_or(|(t, _)| total < *t) {
                *best = Some((total, blocks.clone()));
            }
            return;
        }
        for bi in 0..blocks.len() {
            blocks[bi].push(i);
            rec(ev, i + 1, blocks, best);
            blocks[bi].pop();
        }
        if blocks.len() < ev.config.max_sessions {
            blocks.push(vec![i]);
            rec(ev, i + 1, blocks, best);
            blocks.pop();
        }
    }
    let mut best = None;
    rec(ev, 0, &mut Vec::new(), &mut best);
    best.map(|(_, blocks)| blocks)
}

fn greedy_local(ev: &mut Evaluator<'_>) -> Option<Vec<Vec<usize>>> {
    let mut blocks = seed_min_total(ev).or_else(|| seed_backtracking(ev))?;
    let max_sessions = ev.config.max_sessions;

    // Local search: single-task moves between blocks (including opening a
    // new block), first-improvement, bounded rounds.
    let mut cur_total = ev.total(&blocks)?;
    for _round in 0..32 {
        let mut improved = false;
        'moves: for from in 0..blocks.len() {
            for pos in 0..blocks[from].len() {
                let ti = blocks[from][pos];
                for to in 0..=blocks.len() {
                    if to == from || (to == blocks.len() && blocks.len() >= max_sessions) {
                        continue;
                    }
                    let mut cand = blocks.clone();
                    cand[from].remove(pos);
                    if to == cand.len() {
                        cand.push(vec![ti]);
                    } else {
                        cand[to].push(ti);
                    }
                    cand.retain(|b| !b.is_empty());
                    if let Some(total) = ev.total(&cand) {
                        if total < cur_total {
                            blocks = cand;
                            cur_total = total;
                            improved = true;
                            break 'moves;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    Some(blocks)
}

/// Myopic seeding: longest tasks first, each into the block whose
/// inclusion yields the smallest total; open a new block when
/// allowed/better. Fast and usually good, but can paint itself into a
/// corner on tightly power-packed instances.
fn seed_min_total(ev: &mut Evaluator<'_>) -> Option<Vec<Vec<usize>>> {
    let tasks = ev.tasks;
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].best_time()));
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    for &ti in &order {
        let mut best: Option<(usize, u64)> = None; // (block idx or usize::MAX for new, total)
        for bi in 0..blocks.len() {
            blocks[bi].push(ti);
            if let Some(total) = ev.total(&blocks) {
                if best.is_none_or(|(_, t)| total < t) {
                    best = Some((bi, total));
                }
            }
            blocks[bi].pop();
        }
        if blocks.len() < ev.config.max_sessions {
            blocks.push(vec![ti]);
            if let Some(total) = ev.total(&blocks) {
                if best.is_none_or(|(_, t)| total < t) {
                    best = Some((usize::MAX, total));
                }
            }
            blocks.pop();
        }
        match best {
            Some((usize::MAX, _)) => blocks.push(vec![ti]),
            Some((bi, _)) => blocks[bi].push(ti),
            None => return None, // stuck; caller falls back to backtracking
        }
    }
    Some(blocks)
}

/// Feasibility-only backtracking: tasks in descending power order, each
/// tried in every feasible block (or a new one), backtracking on dead
/// ends. Finds a feasible partition whenever one exists within the node
/// budget; quality is then recovered by local search.
fn seed_backtracking(ev: &mut Evaluator<'_>) -> Option<Vec<Vec<usize>>> {
    let tasks = ev.tasks;
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks[b]
            .power
            .partial_cmp(&tasks[a].power)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    const NODE_BUDGET: usize = 200_000;
    fn rec(
        pos: usize,
        order: &[usize],
        blocks: &mut Vec<Vec<usize>>,
        ev: &mut Evaluator<'_>,
        nodes: &mut usize,
    ) -> bool {
        if pos == order.len() {
            return true;
        }
        if *nodes >= NODE_BUDGET {
            return false;
        }
        *nodes += 1;
        let ti = order[pos];
        for bi in 0..blocks.len() {
            blocks[bi].push(ti);
            if ev.makespan(&blocks[bi]).is_some() && rec(pos + 1, order, blocks, ev, nodes) {
                return true;
            }
            blocks[bi].pop();
        }
        if blocks.len() < ev.config.max_sessions {
            blocks.push(vec![ti]);
            if ev.makespan(&blocks[blocks.len() - 1]).is_some()
                && rec(pos + 1, order, blocks, ev, nodes)
            {
                return true;
            }
            blocks.pop();
        }
        false
    }
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut nodes = 0usize;
    rec(0, &order, &mut blocks, ev, &mut nodes).then_some(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{dsc_like_tasks, TestKind};

    #[test]
    fn empty_input_is_empty_schedule() {
        let s = schedule_sessions(&[], &ChipConfig::default()).expect("empty is feasible");
        assert_eq!(s.total_cycles, 0);
        assert!(s.sessions.is_empty());
    }

    #[test]
    fn single_task_single_session() {
        let tasks = vec![TestTask::bist("b", 1000)];
        let s = schedule_sessions(&tasks, &ChipConfig::default()).expect("feasible");
        assert_eq!(s.sessions.len(), 1);
        assert_eq!(s.total_cycles, 1000);
    }

    #[test]
    fn all_tasks_scheduled_exactly_once() {
        let tasks = dsc_like_tasks();
        let s = schedule_sessions(&tasks, &ChipConfig::default()).expect("feasible");
        let mut seen: Vec<usize> = s
            .sessions
            .iter()
            .flat_map(|sess| sess.tasks.iter().map(|t| t.task_index))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..tasks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn constraints_hold_in_every_session() {
        let tasks = dsc_like_tasks();
        let config = ChipConfig::default();
        let s = schedule_sessions(&tasks, &config).expect("feasible");
        for sess in &s.sessions {
            assert!(sess.power <= config.power_limit + 1e-9);
            let used: usize = sess.tasks.iter().map(|t| t.pins).sum();
            assert!(
                used <= sess.data_pins_available,
                "used {used} > avail {}",
                sess.data_pins_available
            );
            let max = sess.tasks.iter().map(|t| t.cycles).max().unwrap();
            assert_eq!(sess.makespan, max);
        }
        let sum: u64 = s.sessions.iter().map(|s| s.makespan).sum();
        assert_eq!(s.total_cycles, sum);
    }

    #[test]
    fn respects_max_sessions() {
        // Regression: the DSC set draws 5.8 power total, so two
        // 2.2-capped sessions can never hold it — the sentinel-era
        // version of this test "passed" on the empty infeasible
        // schedule (0 sessions <= 2). The typed result makes the
        // infeasibility visible; three sessions are the real floor.
        let tasks = dsc_like_tasks();
        let config = ChipConfig {
            max_sessions: 2,
            ..ChipConfig::default()
        };
        let err = schedule_sessions(&tasks, &config).expect_err("5.8 power cannot fit 2 x 2.2");
        assert_eq!(err, ScheduleError::NoPartition { max_sessions: 2 });

        let config = ChipConfig {
            max_sessions: 3,
            ..ChipConfig::default()
        };
        let s = schedule_sessions(&tasks, &config).expect("feasible in 3 sessions");
        assert!((1..=3).contains(&s.sessions.len()));
    }

    #[test]
    fn power_cap_forces_serialisation() {
        // Two power-hungry tasks cannot share a session.
        let tasks = vec![
            TestTask::bist("a", 100).with_power(2.0),
            TestTask::bist("b", 100).with_power(2.0),
        ];
        let config = ChipConfig {
            power_limit: 3.0,
            ..ChipConfig::default()
        };
        let s = schedule_sessions(&tasks, &config).expect("feasible");
        assert_eq!(s.sessions.len(), 2);
        assert_eq!(s.total_cycles, 200);
    }

    #[test]
    fn parallelism_helps_when_pins_allow() {
        // Two small BIST banks share the interface: parallel in one
        // session halves the time.
        let tasks = vec![TestTask::bist("a", 500), TestTask::bist("b", 500)];
        let s = schedule_sessions(&tasks, &ChipConfig::default()).expect("feasible");
        assert_eq!(s.sessions.len(), 1);
        assert_eq!(s.total_cycles, 500);
    }

    #[test]
    fn overpowered_task_is_a_typed_infeasible_error() {
        // Task 1 alone exceeds the power cap: the old code reported an
        // empty schedule with `total_cycles == u64::MAX`; now the error
        // names the offender.
        let tasks = vec![
            TestTask::bist("ok", 100).with_power(1.0),
            TestTask::bist("hot", 100).with_power(9.0),
        ];
        let config = ChipConfig {
            power_limit: 2.0,
            ..ChipConfig::default()
        };
        let err = schedule_sessions(&tasks, &config).unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible { tasks: vec![1] });
        assert!(err.to_string().contains("[1]"), "{err}");
    }

    #[test]
    fn session_budget_too_small_is_no_partition() {
        // Three tasks that each fit alone but pairwise exceed the power
        // cap need three sessions; cap the budget at two.
        let tasks = vec![
            TestTask::bist("a", 100).with_power(1.5),
            TestTask::bist("b", 100).with_power(1.5),
            TestTask::bist("c", 100).with_power(1.5),
        ];
        let config = ChipConfig {
            power_limit: 2.0,
            max_sessions: 2,
            ..ChipConfig::default()
        };
        let err = schedule_sessions(&tasks, &config).unwrap_err();
        assert_eq!(err, ScheduleError::NoPartition { max_sessions: 2 });
    }

    #[test]
    fn explicit_strategies_agree_on_small_instances() {
        let tasks = dsc_like_tasks();
        let config = ChipConfig::default();
        let exact =
            schedule_sessions_with(&tasks, &config, Strategy::Exhaustive).expect("feasible");
        let greedy = schedule_sessions_with(&tasks, &config, Strategy::Greedy).expect("feasible");
        assert!(exact.total_cycles <= greedy.total_cycles);
    }

    #[test]
    fn totals_saturate_instead_of_overflowing() {
        // Two near-max BIST sessions (forced apart by power) must sum
        // with saturation, not wrap.
        let tasks = vec![
            TestTask::bist("a", u64::MAX - 1).with_power(2.0),
            TestTask::bist("b", u64::MAX - 1).with_power(2.0),
        ];
        let config = ChipConfig {
            power_limit: 3.0,
            ..ChipConfig::default()
        };
        let s = schedule_sessions(&tasks, &config).expect("feasible");
        assert_eq!(s.sessions.len(), 2);
        assert_eq!(s.total_cycles, u64::MAX);
    }

    #[test]
    fn greedy_path_matches_exhaustive_on_moderate_instance() {
        // 10 tasks puts `Auto` on the greedy path; compare against an
        // explicit exhaustive search of the same instance.
        let mut tasks = dsc_like_tasks();
        tasks.push(TestTask::bist("c", 300_000));
        tasks.push(TestTask::bist("d", 250_000));
        tasks.push(TestTask::functional("glue", 10_000, 30, 30));
        tasks.push(TestTask::bist("e", 50_000));
        assert_eq!(tasks.len(), 10);
        let config = ChipConfig::default();
        let greedy = schedule_sessions_with(&tasks, &config, Strategy::Greedy).expect("feasible");
        let exact =
            schedule_sessions_with(&tasks, &config, Strategy::Exhaustive).expect("feasible");
        assert!(
            greedy.total_cycles <= exact.total_cycles.saturating_mul(12) / 10,
            "greedy {} much worse than optimal {}",
            greedy.total_cycles,
            exact.total_cycles
        );
        assert!(exact.total_cycles <= greedy.total_cycles);
    }

    #[test]
    fn scan_tasks_get_even_pin_counts() {
        let tasks = dsc_like_tasks();
        let s = schedule_sessions(&tasks, &ChipConfig::default()).expect("feasible");
        for sess in &s.sessions {
            for st in &sess.tasks {
                if matches!(tasks[st.task_index].kind, TestKind::Scan { .. }) {
                    assert_eq!(st.pins % 2, 0, "TAM wires come in si/so pairs");
                }
            }
        }
    }
}
