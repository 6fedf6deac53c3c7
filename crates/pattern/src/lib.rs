//! The Pattern Translator of the STEAC flow.
//!
//! The paper: *"The core test patterns are generated at the core level.
//! After the cores are wrapped, the test patterns must be translated to
//! the wrapper level and then to the chip level. The test patterns are
//! cycle based, which can be applied by external ATE easily."*
//!
//! * [`cycle`] — cycle-based pattern representation ([`CyclePattern`]),
//!   its bit-plane playback unit ([`PatternBlock`]) and the ATE *cycle
//!   player* that applies patterns to the gate-level simulator and
//!   compares responses,
//! * [`corelevel`] — core-level scan vectors ([`ScanVector`]),
//! * [`translate`] — core → wrapper translation (mapping PI/PO and
//!   internal chains onto balanced wrapper chains) and wrapper → chip
//!   merging across TAM assignments and sessions,
//! * [`ate`] — ATE text export with repeat compression and cycle
//!   accounting.

pub mod ate;
pub mod corelevel;
pub mod cycle;
pub mod translate;

pub use ate::{export_ate, AteStats};
pub use corelevel::ScanVector;
pub use cycle::{
    apply_cycle_pattern, apply_cycle_patterns_batch, stream_cycle_patterns, stream_pattern_blocks,
    BatchPlayback, CyclePattern, MismatchReport, PatternBlock, PinPlanes, PinState, StreamPlayback,
    PLAYBACK_LANE_GROUPS,
};
pub use translate::{
    merge_sessions, scan_to_wrapper, wrapper_vectors_to_cycles, ChipPatternSet, SessionStream,
    WrapperPorts,
};

use std::fmt;

/// Errors from pattern handling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatternError {
    /// A vector has the wrong number of entries for its pin list or
    /// chain configuration.
    Shape {
        /// What was being translated.
        context: &'static str,
        /// Expected element count.
        expected: usize,
        /// Found element count.
        got: usize,
    },
    /// A pin referenced by a pattern does not exist on the module.
    UnknownPin {
        /// Pin name.
        name: String,
    },
    /// A [`PatternBlock`] position holds a plane combination no
    /// [`PinState`] sets.
    Planes {
        /// What is wrong.
        context: &'static str,
        /// Cycle of the first offending position.
        cycle: usize,
        /// Pin of the first offending position.
        pin: usize,
    },
    /// [`PatternBlock`] bytes did not decode.
    Wire(steac_sim::WireError),
    /// Simulation failed while playing a pattern.
    Sim(steac_sim::SimError),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Shape {
                context,
                expected,
                got,
            } => write!(f, "{context}: expected {expected} entries, got {got}"),
            PatternError::UnknownPin { name } => write!(f, "unknown pin `{name}`"),
            PatternError::Planes {
                context,
                cycle,
                pin,
            } => write!(f, "pattern block: {context} at cycle {cycle}, pin {pin}"),
            PatternError::Wire(e) => write!(f, "pattern block bytes: {e}"),
            PatternError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for PatternError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PatternError::Wire(e) => Some(e),
            PatternError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<steac_sim::WireError> for PatternError {
    fn from(e: steac_sim::WireError) -> Self {
        PatternError::Wire(e)
    }
}

impl From<steac_sim::SimError> for PatternError {
    fn from(e: steac_sim::SimError) -> Self {
        PatternError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = PatternError::Shape {
            context: "scan load",
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("scan load"));
    }
}
