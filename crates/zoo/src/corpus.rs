//! Corpus runner: drives [`run_soc`] across a
//! whole [`ZooParams`] corpus and aggregates a scheduling / test-time /
//! coverage table.

use crate::flow::{run_soc, RunOptions, SocRun};
use crate::gen::ZooParams;
use std::fmt;
use steac_sched::ScheduleError;
use steac_sim::exec::Exec;

/// One corpus SOC's flow results, flattened for reporting.
#[derive(Debug, Clone)]
pub struct CorpusRow {
    /// SOC name (`socNNN`).
    pub name: String,
    /// Logic cores + memories on the SOC.
    pub cores: usize,
    /// Test tasks generated.
    pub tasks: usize,
    /// Sessions in the schedule.
    pub sessions: usize,
    /// Session-scheduled total test time (cycles).
    pub total_cycles: u64,
    /// Static non-session baseline, when feasible.
    pub nonsession_cycles: Option<u64>,
    /// Serial reference, when feasible.
    pub serial_cycles: Option<u64>,
    /// Wrapper cells placed across scheduled scan tasks.
    pub wrapped_cells: usize,
    /// Glue-netlist fault coverage (percent), when graded.
    pub coverage: Option<f64>,
    /// Invariant violations found on this SOC.
    pub violations: usize,
}

impl CorpusRow {
    /// Serial-to-session speedup, when the serial reference exists.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        let serial = self.serial_cycles?;
        if self.total_cycles == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(serial as f64 / self.total_cycles as f64)
    }
}

/// Aggregated corpus results.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// The corpus seed (for reproduction).
    pub seed: u64,
    /// Per-SOC rows, in corpus order.
    pub rows: Vec<CorpusRow>,
}

impl CorpusReport {
    /// Total invariant violations across the corpus.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.rows.iter().map(|r| r.violations).sum()
    }

    /// Total tasks scheduled across the corpus.
    #[must_use]
    pub fn total_tasks(&self) -> usize {
        self.rows.iter().map(|r| r.tasks).sum()
    }

    /// Mean serial-to-session speedup over SOCs where both exist.
    #[must_use]
    pub fn mean_speedup(&self) -> f64 {
        let speedups: Vec<f64> = self.rows.iter().filter_map(CorpusRow::speedup).collect();
        if speedups.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = speedups.len() as f64;
        speedups.iter().sum::<f64>() / n
    }

    /// Mean glue-netlist coverage over graded SOCs.
    #[must_use]
    pub fn mean_coverage(&self) -> f64 {
        let covs: Vec<f64> = self.rows.iter().filter_map(|r| r.coverage).collect();
        if covs.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = covs.len() as f64;
        covs.iter().sum::<f64>() / n
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SOC zoo corpus (seed {:#x}, {} SOCs, {} tasks)",
            self.seed,
            self.rows.len(),
            self.total_tasks()
        )?;
        writeln!(
            f,
            "{:<8} {:>5} {:>5} {:>4} {:>14} {:>14} {:>14} {:>8} {:>7} {:>4}",
            "soc",
            "cores",
            "tasks",
            "sess",
            "session",
            "nonsession",
            "serial",
            "speedup",
            "cover%",
            "viol"
        )?;
        for r in &self.rows {
            let fmt_opt = |c: Option<u64>| c.map_or_else(|| "infeasible".into(), |c| c.to_string());
            writeln!(
                f,
                "{:<8} {:>5} {:>5} {:>4} {:>14} {:>14} {:>14} {:>8} {:>7} {:>4}",
                r.name,
                r.cores,
                r.tasks,
                r.sessions,
                r.total_cycles,
                fmt_opt(r.nonsession_cycles),
                fmt_opt(r.serial_cycles),
                r.speedup()
                    .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
                r.coverage.map_or_else(|| "-".into(), |c| format!("{c:.1}")),
                r.violations,
            )?;
        }
        writeln!(
            f,
            "mean speedup {:.2}x, mean coverage {:.1}%, {} violation(s)",
            self.mean_speedup(),
            self.mean_coverage(),
            self.violations()
        )
    }
}

/// Flattens one [`SocRun`] into a report row.
fn row_of(name: String, cores: usize, tasks: usize, run: &SocRun) -> CorpusRow {
    CorpusRow {
        name,
        cores,
        tasks,
        sessions: run.schedule.sessions.len(),
        total_cycles: run.schedule.total_cycles,
        nonsession_cycles: run.nonsession.as_ref().ok().map(|s| s.makespan),
        serial_cycles: run.serial.as_ref().ok().map(|s| s.makespan),
        wrapped_cells: run.wrapped_cells,
        coverage: run.grading.as_ref().map(|g| g.coverage_percent()),
        violations: run.violations.len(),
    }
}

/// Runs the full flow for every SOC in the corpus.
///
/// # Errors
///
/// Returns the first SOC index whose session schedule came back
/// infeasible — the corpus sizes budgets so that every SOC is
/// schedulable, and an infeasible instance is a generator or scheduler
/// bug worth failing loudly on.
pub fn run_corpus(
    params: &ZooParams,
    exec: &Exec,
    opts: &RunOptions,
) -> Result<CorpusReport, (usize, ScheduleError)> {
    let mut rows = Vec::with_capacity(params.socs);
    for index in 0..params.socs {
        let soc = params.soc(index);
        let run = run_soc(&soc, exec, opts).map_err(|e| (index, e))?;
        rows.push(row_of(
            soc.name.clone(),
            soc.cores + soc.memories,
            soc.tasks.len(),
            &run,
        ));
    }
    Ok(CorpusReport {
        seed: params.seed,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_runs_clean_without_grading() {
        let params = ZooParams {
            socs: 8,
            ..ZooParams::tiny()
        };
        let opts = RunOptions {
            grade: false,
            ..RunOptions::default()
        };
        let report = run_corpus(&params, &Exec::serial(), &opts).expect("corpus feasible");
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.violations(), 0, "{report}");
        assert!(report.mean_speedup() >= 1.0, "{report}");
    }

    #[test]
    fn report_renders_a_table() {
        let params = ZooParams {
            socs: 2,
            ..ZooParams::tiny()
        };
        let opts = RunOptions {
            grade: true,
            vectors: 24,
            ..RunOptions::default()
        };
        let report = run_corpus(&params, &Exec::serial(), &opts).expect("corpus feasible");
        let text = format!("{report}");
        assert!(text.contains("soc000"));
        assert!(text.contains("cover%"));
    }
}
