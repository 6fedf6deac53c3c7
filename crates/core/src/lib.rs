//! STEAC — SOC Test Aid Console.
//!
//! The test-integration platform of *"SOC Testing Methodology and
//! Practice"* (DATE 2005). The platform consists of the four modules of
//! the paper's Fig. 1 — the STIL Parser, the Core Test Scheduler, the
//! Test Insertion tool and the Pattern Translators — plus the BRAINS
//! memory-BIST compiler integrated per Fig. 4:
//!
//! ```text
//!   core STIL files ──► STIL Parser ──► Core Test Scheduler ──┐
//!          (steac-stil)        (steac-sched + steac-tam)      │
//!                                                             ▼
//!   DFT-ready netlist ◄── Test Insertion ◄── scheduling results
//!      (steac-netlist)  (steac-wrapper + steac-tam)           │
//!                                                             ▼
//!   chip-level ATE patterns ◄── Pattern Translator (steac-pattern)
//!                                        │
//!                                        ▼  verification (compile-then-execute)
//!   SimProgram IR ◄── levelize netlist once ── steac-sim
//!        │  flat instruction stream over one packed value buffer
//!        ▼
//!   64-lane packed execution: batch playback, PPSFP fault grading
//! ```
//!
//! [`flow::run_flow`] executes the whole pipeline; [`insert::insert_dft`]
//! performs netlist-level insertion on its own; [`report`] renders the
//! integration reports the paper's §3 quotes (test time, control IOs,
//! DFT area, overhead).
//!
//! Every simulation-backed step (scan-pattern verification, BIST fault
//! grading, wrapper equivalence) rides `steac-sim`'s compiled pipeline:
//! the flat netlist is levelized **once** into a `SimProgram` — a
//! contiguous instruction stream over a single flat value buffer — and
//! then executed over packed 4-value lanes, so pattern sets play 64
//! patterns per 64-lane pass and fault simulation grades a good machine
//! plus 255 faulty machines per 256-lane pass (with fault dropping).
//!
//! # Example
//!
//! ```
//! use steac::flow::{run_flow, CoreSource, FlowInput};
//!
//! # fn main() -> Result<(), steac::FlowError> {
//! let stil = r#"
//! STIL 1.0;
//! Signals { ck In; d In; q Out; si In { ScanIn; } so Out { ScanOut; } se In; }
//! SignalGroups { clocks = 'ck'; scan_enables = 'se'; pi = 'd'; po = 'q'; }
//! ScanStructures { ScanChain "c0" { ScanLength 16; ScanIn si; ScanOut so; } }
//! Procedures { "load_unload" { Shift { V { si=#; so=#; ck=P; } } } }
//! Pattern scan { Loop 10 { Call "load_unload"; } }
//! "#;
//! let input = FlowInput {
//!     cores: vec![CoreSource::new("tiny", stil)],
//!     ..FlowInput::default()
//! };
//! let result = run_flow(&input)?;
//! assert_eq!(result.infos.len(), 1);
//! assert!(result.schedule.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod flow;
pub mod insert;
pub mod report;

pub use flow::{run_flow, CoreSource, FlowInput, FlowResult, StageTiming};
pub use insert::{insert_dft, InsertSpec, InsertionReport};

use std::fmt;

/// Errors from the STEAC platform.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// STIL parsing or extraction failed for a core.
    Stil {
        /// The core whose STIL failed.
        core: String,
        /// Underlying error.
        source: steac_stil::StilError,
    },
    /// Netlist generation/insertion failed.
    Netlist(steac_netlist::NetlistError),
    /// BIST compilation failed.
    Bist(steac_membist::BistError),
    /// The scheduler found no feasible schedule; the payload says why
    /// (which tasks do not fit, or which budget ran out).
    Infeasible(steac_sched::ScheduleError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Stil { core, source } => {
                write!(f, "STIL for core `{core}`: {source}")
            }
            FlowError::Netlist(e) => write!(f, "netlist: {e}"),
            FlowError::Bist(e) => write!(f, "BIST: {e}"),
            FlowError::Infeasible(e) => {
                write!(f, "no feasible test schedule: {e}")
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Stil { source, .. } => Some(source),
            FlowError::Netlist(e) => Some(e),
            FlowError::Bist(e) => Some(e),
            FlowError::Infeasible(e) => Some(e),
        }
    }
}

impl From<steac_sched::ScheduleError> for FlowError {
    fn from(e: steac_sched::ScheduleError) -> Self {
        FlowError::Infeasible(e)
    }
}

impl From<steac_netlist::NetlistError> for FlowError {
    fn from(e: steac_netlist::NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

impl From<steac_membist::BistError> for FlowError {
    fn from(e: steac_membist::BistError) -> Self {
        FlowError::Bist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_core() {
        let e = FlowError::Stil {
            core: "usb".to_string(),
            source: steac_stil::StilError::Unresolved {
                name: "x".to_string(),
                context: "test".to_string(),
            },
        };
        assert!(e.to_string().contains("usb"));
    }
}
