//! BRAINS — the memory BIST compiler of the STEAC platform.
//!
//! The paper (Fig. 2): *"The tester can access all the on-chip memories
//! via a single shared BIST Controller, while one or more Sequencers can
//! be used to generate March-based test algorithms. Each Test Pattern
//! Generator (TPG) attached to the memory will translate the March-based
//! test commands to the respective RAM signals. With our automatic memory
//! BIST generation system, BRAINS, one can generate the BIST circuit
//! using the GUI or command shell, and evaluate the memory test efficiency
//! among different designs easily."*
//!
//! This crate provides all of it:
//!
//! * [`march`] — the March-algorithm DSL (notation parser, complexity,
//!   cycle counts) and a library of standard algorithms (MATS+,
//!   March C−, March X/Y/A/B, March LR, March SS),
//! * [`memory`] — behavioural single-port and two-port synchronous SRAM
//!   models with injectable functional faults (SAF, TF, CFin, CFid,
//!   CFst, AF); [`SramConfig`] owns the word mask and the rule for
//!   which faults fit a geometry,
//! * [`sequencer`], [`tpg`], [`controller`] — the Fig. 2 hardware, both
//!   as behavioural command streams and as generated gate netlists; the
//!   [`Sequencer`] command stream is the one March order every walk
//!   follows,
//! * [`faultsim`] — March fault simulation over that stream: the packed
//!   grading kernel behind [`fault_coverage`] and the scalar walk over
//!   an [`Sram`] behind [`run_march`], the failure logs of [`diagnose`]
//!   and the data backgrounds of [`background`],
//! * [`brains`] — the compiler: memory list + policy → BIST design with
//!   area, test time and measured coverage,
//! * [`shell`] — the BRAINS command-shell front end.
//!
//! # Example
//!
//! ```
//! use steac_membist::march::MarchAlgorithm;
//! use steac_membist::memory::{MemFault, SramConfig};
//! use steac_membist::faultsim::fault_coverage;
//! use steac_sim::Exec;
//!
//! # fn main() -> Result<(), steac_sim::SimError> {
//! let alg = MarchAlgorithm::march_c_minus();
//! assert_eq!(alg.complexity(), 10); // 10N
//! let cfg = SramConfig::single_port(1024, 8);
//! let faults = vec![
//!     MemFault::stuck_at(3, 0, true),
//!     MemFault::transition_up(17, 2),
//! ];
//! // One Exec value picks the backend: serial, threads or processes.
//! let report = fault_coverage(&Exec::from_env(), &alg, &cfg, &faults)?;
//! assert_eq!(report.coverage_percent(), 100.0);
//! # Ok(())
//! # }
//! ```

pub mod background;
pub mod brains;
pub mod controller;
pub mod diagnose;
pub mod faultsim;
pub mod march;
pub mod memory;
pub mod sequencer;
pub mod shell;
pub mod tpg;
pub mod wire;

pub use background::{
    background_coverage, run_march_with_backgrounds, standard_backgrounds, DataBackground,
};
pub use brains::{BistDesign, Brains, MemorySpec, SequencerPolicy};
pub use controller::{controller_netlist, BIST_IF_SIGNALS};
pub use diagnose::{
    coupling_dictionary, failure_log, first_failure, implicated_memories, march_signature,
    rank_candidates, signature_distance, FailureSite, MemDictionary,
};
pub use faultsim::{
    enumerate_inter_cell_couplings, fault_coverage, run_march, MemCoverageReport, FAULTS_PER_WALK,
};
pub use march::{Direction, MarchAlgorithm, MarchElement, MarchOp};
pub use memory::{MemFault, PortKind, Sram, SramConfig};
pub use sequencer::{sequencer_netlist, BistCommand, Sequencer};
pub use tpg::{tpg_netlist, RamSignals};

use std::fmt;

/// Errors from the BRAINS subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BistError {
    /// March notation failed to parse.
    MarchSyntax {
        /// Offending fragment.
        fragment: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A shell command is unknown or malformed.
    Shell {
        /// The command line.
        line: String,
        /// Explanation.
        reason: String,
    },
    /// A referenced memory/algorithm does not exist.
    Unknown {
        /// What kind of thing is missing.
        what: &'static str,
        /// Its name.
        name: String,
    },
    /// Netlist generation failed.
    Netlist(steac_netlist::NetlistError),
    /// A memory has no words or no bits per word, so there is nothing
    /// to test and no fault to draw.
    EmptyMemory {
        /// Instance name.
        name: String,
        /// Its geometry.
        config: SramConfig,
    },
    /// Coverage fault simulation failed to dispatch.
    Sim(steac_sim::SimError),
}

impl fmt::Display for BistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BistError::MarchSyntax { fragment, expected } => {
                write!(f, "march syntax error at `{fragment}`: expected {expected}")
            }
            BistError::Shell { line, reason } => {
                write!(f, "shell command `{line}`: {reason}")
            }
            BistError::Unknown { what, name } => write!(f, "unknown {what} `{name}`"),
            BistError::Netlist(e) => write!(f, "netlist generation: {e}"),
            BistError::EmptyMemory { name, config } => {
                write!(f, "memory `{name}` has an empty geometry ({config})")
            }
            BistError::Sim(e) => write!(f, "coverage simulation: {e}"),
        }
    }
}

impl std::error::Error for BistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BistError::Netlist(e) => Some(e),
            BistError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<steac_netlist::NetlistError> for BistError {
    fn from(e: steac_netlist::NetlistError) -> Self {
        BistError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = BistError::Unknown {
            what: "memory",
            name: "sram9".to_string(),
        };
        assert!(e.to_string().contains("sram9"));
    }
}
