//! Pin allocation within one test session (water-filling).
//!
//! Given the session's data-pin budget, every task first receives its
//! minimum allocation; remaining pins are then granted iteratively to the
//! current bottleneck task (the one defining the session makespan) until
//! it can no longer improve — the standard water-filling argument: only
//! shrinking the argmax shrinks the max.
//!
//! A task's test time over its legal pin counts (`min_pins` to
//! `max_pins` in `pin_step`s) is a staircase: wrapper chain balancing
//! gains nothing at most widths and drops at a few. A `Staircase`
//! computes each level's time at most once, and only when water-filling
//! reaches it, so one scheduler call that evaluates a task in many
//! sessions runs the wrapper balancer once per level, not once per
//! grant.

use crate::task::TestTask;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Result of allocating pins to a set of concurrent tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Data pins granted per task (parallel to the input slice).
    pub pins: Vec<usize>,
    /// Resulting per-task times.
    pub times: Vec<u64>,
    /// Fixed pins charged for shared interfaces (counted once per group).
    pub fixed_pins: usize,
}

impl Allocation {
    /// Session makespan: the slowest task.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.times.iter().copied().max().unwrap_or(0)
    }

    /// Total data pins consumed (allocated + fixed).
    #[must_use]
    pub fn total_pins(&self) -> usize {
        self.pins.iter().sum::<usize>() + self.fixed_pins
    }
}

/// Charges fixed pins, counting each pin group once.
fn fixed_pin_cost(tasks: &[&TestTask]) -> usize {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut cost = 0usize;
    for t in tasks {
        match &t.pin_group {
            Some(g) => {
                if seen.insert(g.as_str()) {
                    cost += t.fixed_pins;
                }
            }
            None => cost += t.fixed_pins,
        }
    }
    cost
}

/// Data pins the minimum allocations of `tasks` need to run
/// concurrently: per-task minimum widths plus shared-interface fixed
/// pins (each pin group counted once). [`allocate_session`] succeeds
/// exactly when this fits the budget.
#[must_use]
pub fn min_pins_needed(tasks: &[&TestTask]) -> usize {
    tasks.iter().map(|t| t.min_pins()).sum::<usize>() + fixed_pin_cost(tasks)
}

/// One task's test time over its legal pin counts, filled lazily.
///
/// Level `k` is `min_pins + k * pin_step` pins. Water-filling moves a
/// task from its current level only to the first wider level that is
/// strictly faster, so starting from level 0 it only ever stands on the
/// staircase's Pareto points (each strictly faster than every narrower
/// level): those are all this keeps, plus how far past the last one it
/// has looked.
pub(crate) struct Staircase<'a> {
    task: &'a TestTask,
    /// Pareto points found so far as `(level, time)`, level 0 first and
    /// times strictly falling.
    points: Vec<(usize, u64)>,
    /// Highest level whose time has been computed. No level between the
    /// last point and this one is faster than the last point.
    searched: usize,
    /// Highest legal level (`max_pins` rounded down to the step grid).
    top: usize,
}

impl<'a> Staircase<'a> {
    pub(crate) fn new(task: &'a TestTask) -> Self {
        let top = task
            .max_pins()
            .saturating_sub(task.min_pins())
            .checked_div(task.pin_step())
            .unwrap_or(0);
        Staircase {
            task,
            points: vec![(0, task.time(task.min_pins()))],
            searched: 0,
            top,
        }
    }

    /// The Pareto point after point `rank`, as `(extra pins, time)`,
    /// when it costs at most `spare` pins over point `rank`.
    fn next(&mut self, rank: usize, spare: usize) -> Option<(usize, u64)> {
        let step = self.task.pin_step();
        let (level, time) = self.points[rank];
        let reach = self.top.min(level + spare / step.max(1));
        if rank + 1 == self.points.len() {
            while self.searched < reach {
                self.searched += 1;
                let t = self.task.time(self.task.min_pins() + self.searched * step);
                if t < time {
                    self.points.push((self.searched, t));
                    break;
                }
            }
        }
        let &(next, t) = self.points.get(rank + 1)?;
        (next <= reach).then_some(((next - level) * step, t))
    }
}

/// Water-fills `data_pins` over `members` (indices into `stairs`, in
/// session order; ties go to the earlier position).
///
/// The grant loop is a max-heap on `(time, Reverse(position))`: the top
/// is the slowest task, the earliest on ties. It gets its next Pareto
/// point if that fits the spare pins. Otherwise it leaves the heap for
/// good, which loses nothing: its time and level no longer change, and
/// the spare pins only shrink, so that point never fits later either.
/// The result is the one a sort of every task by time before each
/// grant gives.
pub(crate) fn water_fill(
    stairs: &mut [Staircase<'_>],
    members: &[usize],
    data_pins: usize,
) -> Option<Allocation> {
    let tasks: Vec<&TestTask> = members.iter().map(|&i| stairs[i].task).collect();
    let fixed = fixed_pin_cost(&tasks);
    let mut pins: Vec<usize> = tasks.iter().map(|t| t.min_pins()).collect();
    let used: usize = pins.iter().sum::<usize>() + fixed;
    let mut spare = data_pins.checked_sub(used)?;
    let mut times: Vec<u64> = members.iter().map(|&i| stairs[i].points[0].1).collect();
    let mut rank = vec![0usize; members.len()];
    let mut heap: BinaryHeap<(u64, Reverse<usize>)> = times
        .iter()
        .enumerate()
        .map(|(pos, &t)| (t, Reverse(pos)))
        .collect();
    while let Some((_, Reverse(pos))) = heap.pop() {
        if let Some((extra, t)) = stairs[members[pos]].next(rank[pos], spare) {
            rank[pos] += 1;
            pins[pos] += extra;
            spare -= extra;
            times[pos] = t;
            heap.push((t, Reverse(pos)));
        }
    }
    Some(Allocation {
        pins,
        times,
        fixed_pins: fixed,
    })
}

/// Allocates `data_pins` among `tasks` running concurrently.
///
/// Returns `None` if even the minimum allocations do not fit.
///
/// When the bottleneck saturates (no reachable improvement), spare pins
/// flow to the next-slowest improvable task: harmless for the session
/// makespan and required when the same allocation is reused as a
/// *static* width assignment by the non-session baseline.
#[must_use]
pub fn allocate_session(tasks: &[&TestTask], data_pins: usize) -> Option<Allocation> {
    let mut stairs: Vec<Staircase<'_>> = tasks.iter().map(|t| Staircase::new(t)).collect();
    let members: Vec<usize> = (0..tasks.len()).collect();
    water_fill(&mut stairs, &members, data_pins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TestTask;
    use proptest::prelude::*;

    /// The sort-per-grant allocator, the reference [`allocate_session`]
    /// must equal: before every grant it sorts all tasks slowest first
    /// (stably, so the earlier position wins ties) and grants the first
    /// one that has a strictly faster width within the spare pins the
    /// smallest such step, computing every time it looks at afresh.
    fn sort_per_grant(tasks: &[&TestTask], data_pins: usize) -> Option<Allocation> {
        let fixed = fixed_pin_cost(tasks);
        let mut pins: Vec<usize> = tasks.iter().map(|t| t.min_pins()).collect();
        let used: usize = pins.iter().sum::<usize>() + fixed;
        if used > data_pins {
            return None;
        }
        let mut spare = data_pins - used;
        let mut times: Vec<u64> = tasks.iter().zip(&pins).map(|(t, &p)| t.time(p)).collect();
        loop {
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(times[i]));
            let mut granted = false;
            for &idx in &order {
                let step = tasks[idx].pin_step();
                if step == 0 || step > spare {
                    continue;
                }
                let mut extra = step;
                let mut improved = None;
                while pins[idx] + extra <= tasks[idx].max_pins() && extra <= spare {
                    let t = tasks[idx].time(pins[idx] + extra);
                    if t < times[idx] {
                        improved = Some((extra, t));
                        break;
                    }
                    extra += step;
                }
                if let Some((extra, t)) = improved {
                    pins[idx] += extra;
                    spare -= extra;
                    times[idx] = t;
                    granted = true;
                    break;
                }
            }
            if !granted {
                break;
            }
        }
        Some(Allocation {
            pins,
            times,
            fixed_pins: fixed,
        })
    }

    /// Decodes one generated task: hard or soft scan, functional, BIST
    /// on the shared `mbist` port, BIST on another shared group, BIST
    /// with a private interface, or a copy of an earlier task (equal
    /// times, so ties break by position).
    fn task_from(spec: (u8, u64, usize, usize, usize), earlier: &[TestTask]) -> TestTask {
        let (kind, n, x, y, z) = spec;
        let bist = |group: Option<String>, fixed: usize| TestTask {
            pin_group: group,
            fixed_pins: fixed,
            ..TestTask::bist("b", n * 97)
        };
        match kind {
            0 | 1 => {
                let chains: Vec<usize> = (0..=x % 6)
                    .map(|k| 1 + (y * (k + 3) + z * k) % 400)
                    .collect();
                TestTask::scan("s", n, &chains, y % 150, z % 150, kind == 1)
            }
            2 => TestTask::functional("f", n, x % 200, y % 200),
            3 => TestTask::bist("b", n * 97),
            4 => bist(Some(format!("g{}", x % 2)), y % 9),
            5 => bist(None, z % 5),
            _ if earlier.is_empty() => TestTask::functional("f", n, y % 64, z % 64),
            _ => earlier[x % earlier.len()].clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The staircase heap and the sort-per-grant loop grant the same
        /// pins and times, for budgets from below the minimum floor to
        /// above every task's useful maximum.
        #[test]
        fn heap_water_filling_equals_sort_per_grant(
            specs in prop::collection::vec((0u8..7, 1u64..5_000, 0usize..1_000, 0usize..1_000, 0usize..1_000), 1..12),
            pick in 0usize..10_000,
        ) {
            let mut tasks: Vec<TestTask> = Vec::new();
            for &spec in &specs {
                let t = task_from(spec, &tasks);
                tasks.push(t);
            }
            let refs: Vec<&TestTask> = tasks.iter().collect();
            let floor = min_pins_needed(&refs);
            let ceiling = refs.iter().map(|t| t.max_pins()).sum::<usize>() + fixed_pin_cost(&refs) + 8;
            let low = floor.saturating_sub(4);
            let budget = low + pick % (ceiling - low + 1);
            prop_assert_eq!(allocate_session(&refs, budget), sort_per_grant(&refs, budget), "budget {}", budget);
        }
    }

    #[test]
    fn single_task_gets_as_much_as_it_can_use() {
        let t = TestTask::scan("x", 100, &[100, 100, 100, 100], 10, 10, false);
        let alloc = allocate_session(&[&t], 100).unwrap();
        assert!(alloc.pins[0] >= 8, "{alloc:?}");
        assert!(alloc.total_pins() <= 100);
    }

    #[test]
    fn infeasible_when_minimums_exceed_budget() {
        let a = TestTask::functional("a", 10, 50, 50);
        let b = TestTask::functional("b", 10, 50, 50);
        assert!(allocate_session(&[&a, &b], 10).is_none());
    }

    #[test]
    fn bottleneck_is_served_before_others() {
        // With pins for only one task to saturate, the slow task wins.
        let slow = TestTask::scan("slow", 1000, &[2000], 10, 10, true);
        let fast = TestTask::scan("fast", 10, &[20], 2, 2, true);
        let alloc = allocate_session(&[&slow, &fast], 10).unwrap();
        assert!(
            alloc.pins[0] > alloc.pins[1],
            "slow task should get more pins: {:?}",
            alloc.pins
        );
        // With room for both, spare pins also flow to the fast task.
        let roomy = allocate_session(&[&slow, &fast], 24).unwrap();
        assert!(roomy.pins[1] >= alloc.pins[1]);
        assert!(roomy.makespan() <= alloc.makespan());
    }

    #[test]
    fn shared_pin_group_charged_once() {
        let b1 = TestTask::bist("a", 100);
        let b2 = TestTask::bist("b", 200);
        let alloc = allocate_session(&[&b1, &b2], 10).unwrap();
        assert_eq!(alloc.fixed_pins, 7);
        assert_eq!(alloc.makespan(), 200);
    }

    #[test]
    fn makespan_is_max_of_times() {
        let a = TestTask::bist("a", 100);
        let f = TestTask::functional("f", 10, 8, 8);
        let alloc = allocate_session(&[&a, &f], 30).unwrap();
        assert_eq!(alloc.makespan(), alloc.times.iter().copied().max().unwrap());
    }

    #[test]
    fn allocation_never_exceeds_budget() {
        let tasks = crate::task::dsc_like_tasks();
        let refs: Vec<&TestTask> = tasks.iter().collect();
        for budget in [20, 40, 80, 160] {
            if let Some(a) = allocate_session(&refs, budget) {
                assert!(a.total_pins() <= budget, "budget {budget}: {a:?}");
            }
        }
    }
}
