//! Differential test: the greedy+local-search heuristic against the
//! exhaustive set-partition search, over every tiny zoo instance within
//! [`EXHAUSTIVE_LIMIT`] and over instances just past it.
//!
//! Two properties must hold on every such instance:
//!
//! * the greedy total is never *better* than the exhaustive optimum
//!   (the exact search is a true lower bound), and
//! * greedy never reports infeasible when the exhaustive search found a
//!   feasible schedule (the seeded-greedy + backtracking fallback is a
//!   completeness guarantee, not just a heuristic).

use steac_sched::{schedule_sessions_with, Strategy, EXHAUSTIVE_LIMIT};
use steac_zoo::ZooParams;

#[test]
fn greedy_matches_or_trails_exhaustive_on_small_instances() {
    let params = ZooParams {
        socs: 80,
        ..ZooParams::tiny()
    };
    let mut compared = 0usize;
    for index in 0..params.socs {
        let soc = params.soc(index);
        if soc.tasks.len() > EXHAUSTIVE_LIMIT {
            continue;
        }
        let exact = schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Exhaustive);
        let greedy = schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Greedy);
        match (exact, greedy) {
            (Ok(e), Ok(g)) => {
                assert!(
                    g.total_cycles >= e.total_cycles,
                    "{}: greedy {} beat the exhaustive optimum {}",
                    soc.name,
                    g.total_cycles,
                    e.total_cycles
                );
                compared += 1;
            }
            (Ok(e), Err(err)) => panic!(
                "{}: exhaustive found a {}-cycle schedule but greedy says {err}",
                soc.name, e.total_cycles
            ),
            // Exhaustive infeasible: greedy may agree or not; nothing to
            // compare (the corpus shouldn't generate these anyway).
            (Err(e), _) => panic!("{}: tiny corpus instance infeasible: {e}", soc.name),
        }
    }
    assert!(
        compared >= 40,
        "only {compared} instances were small enough to compare — tiny() drifted"
    );
}

/// Just past [`EXHAUSTIVE_LIMIT`], where `Auto` switches to greedy, the
/// exact search is still cheap (each block is evaluated once per call),
/// so greedy is checked against the true optimum where it really runs:
/// 20 SOCs of 10–11 tasks. Greedy trails on some of them; it must never
/// win or fail.
#[test]
fn greedy_never_beats_exhaustive_just_past_the_limit() {
    let params = ZooParams {
        socs: 90,
        min_cores: 5,
        max_cores: 9,
        ..ZooParams::tiny()
    };
    let mut compared = 0usize;
    for index in 0..params.socs {
        let soc = params.soc(index);
        if !(EXHAUSTIVE_LIMIT + 1..=EXHAUSTIVE_LIMIT + 2).contains(&soc.tasks.len()) {
            continue;
        }
        let exact = schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Exhaustive)
            .unwrap_or_else(|e| panic!("{}: exhaustive: {e}", soc.name));
        let greedy = schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Greedy)
            .unwrap_or_else(|e| panic!("{}: greedy: {e}", soc.name));
        assert!(
            greedy.total_cycles >= exact.total_cycles,
            "{}: greedy {} beat the exhaustive optimum {}",
            soc.name,
            greedy.total_cycles,
            exact.total_cycles
        );
        compared += 1;
    }
    assert!(
        compared >= 12,
        "only {compared} SOCs rolled 10-11 tasks: the preset drifted"
    );
}

/// The auto strategy must agree with whichever path it dispatches to.
#[test]
fn auto_strategy_dispatches_consistently() {
    let params = ZooParams {
        socs: 20,
        ..ZooParams::tiny()
    };
    for index in 0..params.socs {
        let soc = params.soc(index);
        let auto = schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Auto)
            .expect("tiny corpus is feasible");
        let expected = if soc.tasks.len() <= EXHAUSTIVE_LIMIT {
            schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Exhaustive)
        } else {
            schedule_sessions_with(&soc.tasks, &soc.config, Strategy::Greedy)
        }
        .expect("tiny corpus is feasible");
        assert_eq!(auto.total_cycles, expected.total_cycles, "{}", soc.name);
    }
}
