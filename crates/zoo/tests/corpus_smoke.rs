//! The standing stress workload: the fixed-seed smoke corpus, run
//! end-to-end (wrap → share → schedule → patterns → grade) with every
//! invariant checked. Any violation or infeasible SOC fails the suite.

use steac_sim::exec::Exec;
use steac_zoo::{run_corpus, RunOptions, ZooParams};

/// The full 120-SOC corpus with grading, through the `STEAC_EXEC`
/// backend, so every CI test leg runs it on its own backend.
#[test]
fn smoke_corpus_runs_end_to_end_clean() {
    let params = ZooParams::smoke();
    let opts = RunOptions {
        grade: true,
        vectors: 48,
        ..RunOptions::default()
    };
    let report = match run_corpus(&params, &Exec::from_env(), &opts) {
        Ok(r) => r,
        Err((index, e)) => panic!("soc{index:03} infeasible: {e}"),
    };
    assert!(report.rows.len() >= 100, "corpus must span >=100 SOCs");
    assert_eq!(report.violations(), 0, "invariant violations:\n{report}");
    for row in &report.rows {
        let cov = row.coverage.expect("every SOC graded");
        assert!(cov > 0.0, "{}: zero coverage", row.name);
        assert!(
            row.serial_cycles.is_some(),
            "{}: serial reference infeasible",
            row.name
        );
        assert!(
            row.speedup().is_none_or(|s| s >= 1.0 - 1e-9),
            "{}: session schedule slower than serial",
            row.name
        );
    }
}

/// The adversarial corpus: pathological spiky power under near-zero
/// pin/power headroom. Feasibility and invariants must hold on every
/// instance even when the schedule is forced down to single-wire TAM
/// grants. Fixed seed, through the `STEAC_EXEC` backend like the smoke
/// corpus.
#[test]
fn adversarial_corpus_runs_end_to_end_clean() {
    let params = ZooParams::adversarial();
    let opts = RunOptions {
        grade: true,
        vectors: 32,
        ..RunOptions::default()
    };
    let report = match run_corpus(&params, &Exec::from_env(), &opts) {
        Ok(r) => r,
        Err((index, e)) => panic!("adversarial soc{index:03} infeasible: {e}"),
    };
    assert_eq!(report.rows.len(), 40);
    assert_eq!(report.violations(), 0, "invariant violations:\n{report}");
    for row in &report.rows {
        assert!(row.coverage.expect("graded") > 0.0, "{}", row.name);
    }
}

/// Scheduling-only pass over a reduced corpus (smoke knobs, smaller
/// core band), cheap enough for debug builds, so the ordinary test run
/// always exercises the zoo path.
#[test]
fn corpus_prefix_schedules_clean_in_debug() {
    let params = ZooParams {
        socs: 16,
        max_cores: 48,
        ..ZooParams::smoke()
    };
    let opts = RunOptions {
        grade: false,
        ..RunOptions::default()
    };
    let report = match run_corpus(&params, &Exec::serial(), &opts) {
        Ok(r) => r,
        Err((index, e)) => panic!("soc{index:03} infeasible: {e}"),
    };
    assert_eq!(report.violations(), 0, "invariant violations:\n{report}");
}

/// Two runs of the same corpus must produce identical schedules.
#[test]
fn corpus_is_deterministic() {
    let params = ZooParams {
        socs: 10,
        max_cores: 40,
        ..ZooParams::smoke()
    };
    let opts = RunOptions {
        grade: false,
        check: false,
        ..RunOptions::default()
    };
    let a = run_corpus(&params, &Exec::serial(), &opts).expect("feasible");
    let b = run_corpus(&params, &Exec::serial(), &opts).expect("feasible");
    let totals = |r: &steac_zoo::CorpusReport| -> Vec<(String, u64, usize)> {
        r.rows
            .iter()
            .map(|row| (row.name.clone(), row.total_cycles, row.sessions))
            .collect()
    };
    assert_eq!(totals(&a), totals(&b));
}
