//! STEAC suite — umbrella crate re-exporting the whole reproduction of
//! *"SOC Testing Methodology and Practice"* (DATE 2005).
//!
//! See the README for the map of the workspace; every subsystem is its
//! own crate:
//!
//! * [`steac`] — the platform (Fig. 1 flow, insertion, reports),
//! * [`steac_stil`] — STIL parsing and core test information,
//! * [`steac_sched`] — the session-based Core Test Scheduler,
//! * [`steac_wrapper`] / [`steac_tam`] — IEEE 1500-style wrappers, TAM,
//!   Test Controller, IO sharing,
//! * [`steac_membist`] — the BRAINS memory-BIST compiler,
//! * [`steac_pattern`] — pattern translation and the ATE cycle player,
//! * [`steac_netlist`] / [`steac_sim`] — the gate-level substrate,
//! * [`steac_dsc`] — the DSC test-chip model and the calibrated paper
//!   experiments,
//! * [`steac_zoo`] — the seeded synthetic-SOC corpus and scheduler
//!   invariant checks (the standing stress workload).

pub use steac;
pub use steac_dsc;
pub use steac_membist;
pub use steac_netlist;
pub use steac_pattern;
pub use steac_sched;
pub use steac_sim;
pub use steac_stil;
pub use steac_tam;
pub use steac_wrapper;
pub use steac_zoo;

use steac_sim::models::{open_wire_job, FaultModel};
use steac_sim::shard::JobRegistry;
use steac_sim::{BridgingFault, Fault, TransitionFault};

/// The platform's worker-side job registry: every distributable
/// workload, keyed by its wire `kind`. This is the one table the
/// `steac-worker` binary routes requests through — in its stdio session
/// (process fleets) and in `--serve` TCP mode (remote fleets) alike. Workload crates each contribute a single
/// `open_wire_job` constructor, and this umbrella crate is the only
/// place that knows them all.
///
/// | kind | workload | crate |
/// |------|----------|-------|
/// | 1 | stuck-at grading / dictionary chunk | `steac_sim::fault` |
/// | 2 | ATE playback of one bit-plane pattern block (up to 64 patterns) | `steac_pattern::cycle` |
/// | 3 | packed March walk over a memory-fault chunk | `steac_membist::wire` |
/// | 4 | transition-fault grading / dictionary chunk | `steac_sim::models::transition` |
/// | 5 | bridging-fault grading / dictionary chunk | `steac_sim::models::bridging` |
/// | 7 | 64-pattern JPEG functional-pattern generation block, answered as a pattern block | `steac_dsc::verify` |
///
/// Kinds 1, 4 and 5 are one generic job, [`open_wire_job`], opened for
/// each [`FaultModel`]. Kind 6 is retired: fault-dictionary diagnosis
/// (`steac_sim::models::dictionary::diagnose`) ranks in place, and a
/// worker answers a kind-6 request with its unknown-kind error.
#[must_use]
pub fn worker_registry() -> JobRegistry {
    let mut registry = JobRegistry::new();
    registry.register(
        Fault::WIRE_KIND,
        "gate-vector-grading",
        open_wire_job::<Fault>,
    );
    registry.register(
        steac_pattern::cycle::WIRE_KIND,
        "ate-playback-chunk",
        steac_pattern::cycle::open_wire_job,
    );
    registry.register(
        steac_membist::wire::WIRE_KIND,
        "march-walk",
        steac_membist::wire::open_wire_job,
    );
    registry.register(
        TransitionFault::WIRE_KIND,
        "transition-grading",
        open_wire_job::<TransitionFault>,
    );
    registry.register(
        BridgingFault::WIRE_KIND,
        "bridging-grading",
        open_wire_job::<BridgingFault>,
    );
    registry.register(
        steac_dsc::verify::WIRE_KIND,
        "jpeg-generation",
        steac_dsc::verify::open_wire_job,
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload registers exactly once, under its own kind, and
    /// the retired kind 6 opens nothing.
    #[test]
    fn registry_covers_every_distributable_workload() {
        let kinds: Vec<(u16, &str)> = worker_registry().kinds().collect();
        assert_eq!(
            kinds,
            [
                (1, "gate-vector-grading"),
                (2, "ate-playback-chunk"),
                (3, "march-walk"),
                (4, "transition-grading"),
                (5, "bridging-grading"),
                (7, "jpeg-generation"),
            ]
        );
        for kind in [6, 999] {
            let Err(err) = worker_registry().open(kind, b"") else {
                panic!("kind {kind} must not open");
            };
            assert!(
                err.starts_with(&format!("unknown work-unit kind {kind} ")),
                "{err}"
            );
        }
    }
}
