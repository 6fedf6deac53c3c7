//! Bit-parallel four-value gate-level simulation for the STEAC platform.
//!
//! The paper applies cycle-based test patterns from an external ATE to the
//! fabricated DSC chip. In this reproduction the [`Simulator`] plays the
//! role of the silicon + ATE: it evaluates flattened
//! [`steac_netlist::Module`]s under 0/1/X/Z logic, detects clock edges
//! (including gated and divided clocks), applies scan shift/capture
//! sequences, and grades pattern sets against a registry of fault
//! models — stuck-at, transition/delay, and bridging (see [`models`]).
//!
//! # Compile once, optimize once, execute everywhere
//!
//! Simulation is a staged pipeline rather than a netlist interpreter:
//!
//! 1. **Compile** ([`program`]): the flat module is levelized once into a
//!    [`program::SimProgram`] — a contiguous instruction stream (opcode +
//!    input/output slot offsets) over a single flat value buffer, with
//!    flip-flops and latches lowered to side tables whose state lives in
//!    the same buffer, plus the port-name lookup tables. The program is
//!    self-contained: executors never touch the [`steac_netlist::Module`]
//!    again.
//! 2. **Optimize** ([`opt`]): a compile-time pass pipeline rewrites the
//!    instruction stream before any executor sees it — constant folding
//!    from tie cells, hash-consing CSE, dead-code elimination (fault
//!    sites and force targets declared live via [`opt::OptConfig`]), and
//!    level-aware slot renumbering for locality. Each pass records its
//!    deltas in [`opt::OptStats`] (surfaced by
//!    [`program::SimProgram::stats`] and carried on the wire), and the
//!    pipeline may only change speed, never a verdict: optimized and
//!    unoptimized programs produce byte-identical reports on every
//!    backend (proven by `tests/exec_matrix.rs` and the proptests).
//!    [`program::SimProgram::compile`] runs the pipeline by default;
//!    `STEAC_OPT=0` is the escape hatch, and
//!    [`program::SimProgram::compile_with`] /
//!    [`program::SimProgram::compile_unoptimized`] pin the choice in
//!    code.
//! 3. **Execute** ([`engine`]): a [`Simulator`] is an owned, `Send`
//!    executor over a shared `Arc<SimProgram>`
//!    ([`Simulator::from_program`]; [`Simulator::new`] is the
//!    compile-and-wrap convenience). Each pass runs the instruction
//!    stream over [`packed::PackedLogic`] words — a two-plane packed
//!    representation generic over its lane-group width `N`, carrying
//!    **`64 * N` independent simulation lanes** (`[u64; N]` per plane)
//!    whose word-parallel AND/OR/XOR/NOT/MUX are lane-exact against the
//!    scalar [`Logic`] algebra. The scalar API is the `N = 1` default;
//!    workload entry points dispatch at
//!    [`packed::DEFAULT_LANE_GROUPS`] (256 lanes) with monomorphized
//!    kernels for every width in [`SUPPORTED_LANE_GROUPS`], and reports
//!    are byte-identical at every width.
//! 4. **Dispatch** ([`exec`]): independent passes (fault-grading
//!    chunks, width-sized playback chunks, March walks, JPEG generation
//!    blocks) are *work units* of one [`ExecWork`] behind one
//!    execution-backend value, [`Exec`]: `Exec::serial()` runs them
//!    inline, `Exec::threads(..)` fans them across scoped dispatcher
//!    threads, and `Exec::processes(..)` serializes them ([`wire`]) to a
//!    fleet of persistent `steac-worker` children (step 5). Every
//!    workload entry point takes `&Exec` and routes through
//!    [`Exec::dispatch`], the only code that puts unit results in
//!    order. It pulls units from an iterator — a materialized batch's
//!    chunks or the receiving end of a bounded channel fed by another
//!    dispatch alike — and sinks outputs strictly in unit order, holding
//!    at most two batches per dispatcher in flight. So the
//!    merge-by-unit-index determinism contract — unit-order results,
//!    lowest-indexed-unit errors, **bit-identical reports on every
//!    backend** — and the bounded-memory promise live in exactly one
//!    place, proven bit-for-bit by `tests/exec_matrix.rs`.
//!    [`Exec::from_env`] resolves the one backend knob, `STEAC_EXEC`
//!    (`STEAC_OPT` gates stage 2 independently), and [`exec::Fallback`]
//!    makes the shipped-batch failure policy explicit (recompute
//!    in-thread and record it, or fail on the lowest-indexed unit).
//! 5. **Distribute across machines** ([`remote`]): the wire format and
//!    the worker protocol are transport-agnostic — one serialized
//!    request in, one serialized response out — so
//!    `Exec::remote(RemoteFleet)` ships the *same* bytes over a
//!    pluggable [`remote::Transport`]. [`remote::TcpTransport`] keeps
//!    **one persistent, pipelined session** per `steac-worker --serve
//!    <addr>` host: the address is resolved once per session, requests
//!    are framed by a versioned envelope (v2) carrying a request id,
//!    several ride in flight under a bounded window, and responses are
//!    matched back by id. The worker keeps a content-addressed
//!    **program cache** (FNV-1a 64 over the job bytes), so the fleet
//!    ships the serialized program once per host and references it by
//!    hash after that — a worker that restarted answers "need program"
//!    and the bytes are re-shipped transparently. The concurrent
//!    batches [`Exec::dispatch`] ships under one job are serialized
//!    through a per-host prime gate on the same ledger, so the program
//!    still crosses the wire exactly once per host no matter how many
//!    batches race. A status request
//!    (`steac-worker --status`, [`remote::query_status`]) surfaces the
//!    cache and traffic counters. [`remote::ProcessTransport`] runs the
//!    same session over the stdin/stdout of one long-lived local
//!    `steac-worker` child, so `processes:N` is a fleet of `N` such
//!    sessions with the same cache, pipelining and retries (and zero
//!    network). [`Exec::dispatch`] stays the only scheduler: it runs
//!    two dispatchers per host stream, each homed on one host, and
//!    ships each 32-unit batch as one run request. The
//!    [`remote::RemoteFleet`] only picks the host (failing over in
//!    fleet order), retries what a lost or damaged response left
//!    unresolved, and stops calling a host that fails repeatedly for
//!    the rest of that dispatch call. Results merge by unit index, so
//!    reports stay byte-identical to Serial even under injected host
//!    loss or cache loss, proven by `tests/remote_chaos.rs`. No
//!    workload crate changed to gain this backend; that was the point
//!    of the seam. `Exec::from_env` reaches it via
//!    `STEAC_EXEC=remote:host:port,…`.
//!
//! The scalar API below is a lane-0/broadcast view of that kernel, so
//! single-pattern callers are unchanged. Batch callers fill all lanes
//! with distinct patterns ([`Simulator::run_vectors`],
//! [`Simulator::set_lanes`]) or run PPSFP fault simulation — lane 0 good
//! machine, the remaining `64 * N - 1` lanes faulty machines via
//! per-lane forces.
//!
//! # The fault-model registry
//!
//! PPSFP grading is not a single workload but a *family*: a gate-level
//! fault model is one [`models::FaultModel`] impl — wire kind, per-fault
//! codec, fault list, pattern count and per-pass lane injection — and
//! one engine in [`models`] grades ([`grade_vectors`]) and builds fault
//! dictionaries ([`fault_dictionary`]) for any of them, so every model
//! inherits stages 1–5 above wholesale: the optimizer, the wide lane
//! groups, all five backends, and the byte-identical-reports contract.
//! Stuck-at ([`fault`], work-unit kind 1) is the founding member;
//! [`models::transition`] (kind 4) injects slow-to-rise/fall faults into
//! launch–capture vector pairs, [`models::bridging`] (kind 5) AND/OR
//! shorts between topologically adjacent nets, and inter-cell memory
//! coupling rides `steac-membist`'s March walks (kind 3). Kinds 1, 4 and
//! 5 each grade or build a dictionary (per-fault detecting-pattern/output
//! signatures, [`models::dictionary`]), and
//! [`models::dictionary::diagnose`] (kind 6) consumes a dictionary plus
//! an observed failure signature to rank candidate fault sites —
//! localization dispatched through the same `Exec` seam as grading.
//! Flows that grade "with the configured model" select it via
//! `STEAC_MODEL` ([`models::ModelKind::from_env`]).
//!
//! # Example
//!
//! ```
//! use steac_netlist::{NetlistBuilder, GateKind};
//! use steac_sim::{Logic, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("toggler");
//! let ck = b.input("ck");
//! let rstn = b.input("rstn");
//! let q = b.net("q");
//! let d = b.gate(GateKind::Inv, &[q]);
//! b.gate_into(GateKind::DffR, &[d, ck, rstn], q);
//! b.output("q", q);
//! let m = b.finish()?;
//!
//! let mut sim: Simulator = Simulator::new(&m)?;
//! sim.set_by_name("rstn", Logic::Zero)?;
//! sim.settle()?;
//! sim.set_by_name("rstn", Logic::One)?;
//! sim.clock_cycle_by_name("ck")?;
//! assert_eq!(sim.get_by_name("q")?, Logic::One);
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod exec;
pub mod fault;
pub mod logic;
pub mod models;
pub mod opt;
pub mod packed;
pub mod program;
pub mod remote;
pub mod scan;
pub mod shard;
pub mod wire;

pub use engine::Simulator;
pub use exec::{Backend, Dispatch, Exec, ExecWork, Fallback, SpecError, STREAM_BATCH_UNITS};
pub use fault::{
    enumerate_faults, faults_per_pass, CoverageReport, Fault, StuckAt, FAULTS_PER_PASS,
    SUPPORTED_LANE_GROUPS,
};
pub use logic::Logic;
pub use models::bridging::{
    enumerate_bridges, grade_bridges, BridgeKind, BridgingFault, BridgingReport,
};
pub use models::dictionary::{diagnose, Diagnosis, DictEntry, FaultDictionary};
pub use models::transition::{
    enumerate_transition_faults, grade_transitions, SlowEdge, TransitionFault, TransitionReport,
};
pub use models::{
    fault_dictionary, fault_dictionary_wide, grade_vectors, grade_vectors_wide, FaultModel,
    ModelKind, Report,
};
pub use opt::{OptConfig, OptStats};
pub use packed::{PackedLogic, DEFAULT_LANE_GROUPS, LANES};
pub use program::{ProgramStats, SimProgram};
pub use remote::{
    query_status, FleetStatsSnapshot, ProcessTransport, RemoteFleet, ServeHandle, TcpTransport,
    Transport, TransportError, DEFAULT_TCP_STREAMS,
};
pub use scan::ScanPorts;
pub use shard::{JobRegistry, Threads, WorkerState, WorkerStatus};
pub use wire::WireError;

use std::fmt;

/// Errors produced by simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A referenced pin/net name does not exist in the module.
    UnknownName {
        /// The missing name.
        name: String,
    },
    /// The value of an output net never stabilised (oscillation).
    Unstable {
        /// Iteration budget that was exhausted.
        iterations: usize,
    },
    /// The underlying netlist is malformed.
    Netlist(steac_netlist::NetlistError),
    /// A vector string had the wrong length for the pin set.
    VectorLength {
        /// Expected number of pin characters.
        expected: usize,
        /// Supplied number.
        got: usize,
    },
    /// A shipped work unit failed (the worker reported an error, died,
    /// or returned malformed results). Deterministic: always the
    /// lowest-indexed failing unit.
    Worker {
        /// Lowest-indexed failing unit.
        unit: usize,
        /// Worker- or dispatcher-provided diagnostic.
        diagnostic: String,
    },
    /// A lane-group width with no monomorphized kernel was requested
    /// (see [`fault::SUPPORTED_LANE_GROUPS`]).
    UnsupportedWidth {
        /// The requested lane-group count.
        groups: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownName { name } => write!(f, "unknown pin or net `{name}`"),
            SimError::Unstable { iterations } => {
                write!(f, "netlist did not stabilise after {iterations} iterations")
            }
            SimError::Netlist(e) => write!(f, "netlist error: {e}"),
            SimError::VectorLength { expected, got } => {
                write!(f, "vector has {got} characters, pin list has {expected}")
            }
            SimError::Worker { unit, diagnostic } => {
                write!(f, "work unit {unit} failed in worker process: {diagnostic}")
            }
            SimError::UnsupportedWidth { groups } => {
                write!(f, "no simulation kernel for {groups} lane groups")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<steac_netlist::NetlistError> for SimError {
    fn from(e: steac_netlist::NetlistError) -> Self {
        SimError::Netlist(e)
    }
}

impl From<shard::PoolError> for SimError {
    /// The one shipped-failure mapping every workload shares: the
    /// failing unit keeps its index.
    fn from(e: shard::PoolError) -> Self {
        let shard::PoolError::Unit { unit, diagnostic } = e;
        SimError::Worker { unit, diagnostic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_display() {
        let e = SimError::UnknownName {
            name: "ck".to_string(),
        };
        assert!(e.to_string().contains("ck"));
    }

    #[test]
    fn netlist_error_is_source() {
        use std::error::Error as _;
        let e = SimError::Netlist(steac_netlist::NetlistError::DuplicateName {
            name: "x".to_string(),
        });
        assert!(e.source().is_some());
    }
}
