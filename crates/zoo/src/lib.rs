//! # steac-zoo — the seeded synthetic-SOC corpus
//!
//! A parameterized generator of synthetic SOCs plus a driver that runs
//! the paper's full flow (wrap → share controls → schedule sessions →
//! generate patterns → fault-grade) over each one, checking scheduler
//! invariants along the way. The zoo is the standing stress workload
//! that flushes out sentinel, overflow and heuristic bugs the
//! hand-built DSC reproduction is too small to reach.
//!
//! ## Knobs
//!
//! [`ZooParams`] controls everything and two presets cover the common
//! cases:
//!
//! * `seed` — master seed; SOC `i` derives its own seed via SplitMix64,
//!   so corpus membership is stable under `socs` changes.
//! * `socs` — corpus size.
//! * `min_cores` / `max_cores` — log-uniform band of cores per SOC
//!   (log-uniform keeps most SOCs small and a few in the hundreds).
//! * `memory_ratio` — fraction of cores that are memories (MBIST tasks).
//! * `soft_ratio` — fraction of logic cores with soft (rebalanceable)
//!   scan chains.
//! * `functional_ratio` — chance a logic core also gets a functional
//!   pin-multiplexed task.
//! * `mbist_groups` — range of shared MBIST interface groups.
//! * `max_sessions`, `power_headroom`, `pin_headroom` — budget sizing;
//!   headrooms scale the per-session share of total demand so every
//!   generated SOC is feasible *by construction*.
//!
//! [`ZooParams::smoke`] is the fixed-seed CI corpus (120 SOCs, 4–150
//! cores); [`ZooParams::tiny`] generates small instances whose task
//! counts fit under [`steac_sched::EXHAUSTIVE_LIMIT`], for differential
//! exhaustive-vs-greedy testing; [`ZooParams::adversarial`] rolls
//! pathological power profiles (`spiky_power`) under near-zero
//! headroom, pressing schedules toward single-wire TAM grants.
//!
//! The grading stage is model-parameterized: [`RunOptions::model`]
//! selects the gate-level fault model (stuck-at by default, transition
//! or bridging; see [`steac_sim::models::ModelKind`]), and the per-SOC
//! [`GradeSummary`] records which model produced the coverage figure.
//!
//! ## Invariants checked
//!
//! [`check_schedule`] re-derives every claim a schedule makes: each
//! task scheduled exactly once, per-session power under the cap,
//! granted pins within the (re-shared) data budget, makespans equal to
//! the slowest member, member cycles equal to the task time model at
//! the granted width, and the total equal to the saturating sum of
//! makespans. [`check_tam_monotone`] asserts total test time is
//! monotone non-increasing in TAM width on the exhaustive path, and
//! [`check_alloc`] sweeps water-filling bounds. The flow driver
//! additionally cross-checks the wrapper layer: every scheduled scan
//! task's plan is rebuilt at its granted width and must reproduce the
//! booked cycle count exactly.

pub mod corpus;
pub mod flow;
pub mod gen;
pub mod invariants;

pub use corpus::{run_corpus, CorpusReport, CorpusRow};
pub use flow::{
    glue_netlist, grade_glue, run_soc, seeded_vectors, GradeSummary, RunOptions, SocRun,
};
pub use gen::{splitmix, SyntheticSoc, ZooParams};
pub use invariants::{check_alloc, check_schedule, check_tam_monotone, Violation};
