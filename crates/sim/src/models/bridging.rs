//! Bridging fault model: AND/OR shorts between topologically adjacent
//! nets.
//!
//! A bridging fault shorts two nets so the pair resolves to the wired
//! AND (or wired OR) of the values the fault-free circuit would drive.
//! Candidate pairs come from [`SimProgram`]'s instruction stream —
//! nets feeding the same instruction are *topologically adjacent*, the
//! standard netlist proxy for physical proximity when no layout exists
//! (nets converging on a gate are routed to the same place). Adjacency
//! is derived from the **unoptimized** stream, whose slots are net ids,
//! so the candidate list does not depend on how the optimizer renumbers
//! slots.
//!
//! The packed pass evaluates each vector twice: an unforced settle
//! yields the fault-free values of every bridged net pair on lane 0,
//! then each faulty lane forces *both* nets of its pair to the wired
//! value (4-valued: `0 AND x = 0`, `1 OR x = 1`, else X when either
//! side is unknown) and the circuit settles again. Lane 0 stays
//! unforced — the good machine — and detection uses the same
//! masked-compare rule as every other model.

use crate::exec::Exec;
use crate::logic::Logic;
use crate::models::{grade_vectors, validate_vectors, FaultModel, Report};
use crate::packed::DEFAULT_LANE_GROUPS;
use crate::program::SimProgram;
use crate::wire::{WireError, WireReader, WireWriter};
use crate::{SimError, Simulator};
use std::collections::BTreeSet;
use std::fmt;
use steac_netlist::{Module, NetId};

/// How the shorted pair resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// Wired-AND: a 0 on either net wins.
    And,
    /// Wired-OR: a 1 on either net wins.
    Or,
}

impl BridgeKind {
    /// The 4-valued wired value of the shorted pair given the fault-free
    /// values of both nets: the dominant value wins outright, two
    /// recessive values stay recessive, anything else is unknown.
    #[must_use]
    pub fn wired(self, a: Logic, b: Logic) -> Logic {
        match self {
            BridgeKind::And => a.and(b),
            BridgeKind::Or => a.or(b),
        }
    }
}

impl fmt::Display for BridgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BridgeKind::And => "AND",
            BridgeKind::Or => "OR",
        })
    }
}

/// A single bridging fault: two distinct nets and the wired resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BridgingFault {
    /// One side of the short.
    pub a: NetId,
    /// The other side.
    pub b: NetId,
    /// Wired-AND or wired-OR resolution.
    pub kind: BridgeKind,
}

impl fmt::Display for BridgingFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bridge@{}+{}", self.kind, self.a, self.b)
    }
}

/// Distinct net pairs feeding the same instruction of `program`'s comb
/// stream, each ordered `(low, high)` and listed once, in first-seen
/// order — the topological-adjacency candidate list.
#[must_use]
pub fn adjacent_net_pairs(program: &SimProgram) -> Vec<(NetId, NetId)> {
    let mut seen = BTreeSet::new();
    let mut pairs = Vec::new();
    for instr in &program.comb {
        let ins = &instr.ins[..instr.op.arity()];
        for (i, &sa) in ins.iter().enumerate() {
            for &sb in &ins[i + 1..] {
                // Only value slots inside the net range name real nets
                // (state slots live past `net_count`).
                if sa == sb || sa as usize >= program.net_count || sb as usize >= program.net_count
                {
                    continue;
                }
                let (a, b) = (program.net_of_slot(sa), program.net_of_slot(sb));
                let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                if seen.insert(key) {
                    pairs.push((NetId(key.0), NetId(key.1)));
                }
            }
        }
    }
    pairs
}

/// Enumerates the bridging fault list of a module: an AND- and an
/// OR-bridge per adjacent net pair of the unoptimized instruction
/// stream (see [`adjacent_net_pairs`]).
///
/// # Errors
///
/// Compile errors from the netlist.
pub fn enumerate_bridges(m: &Module) -> Result<Vec<BridgingFault>, SimError> {
    let program = SimProgram::compile_unoptimized(m)?;
    let mut v = Vec::new();
    for (a, b) in adjacent_net_pairs(&program) {
        v.push(BridgingFault {
            a,
            b,
            kind: BridgeKind::And,
        });
        v.push(BridgingFault {
            a,
            b,
            kind: BridgeKind::Or,
        });
    }
    Ok(v)
}

/// Result of grading a vector set against a bridging fault list.
pub type BridgingReport = Report<BridgingFault>;

impl FaultModel for BridgingFault {
    const WIRE_KIND: u16 = 5;
    const NOUN: &'static str = "bridging faults";

    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.a.0);
        w.put_u32(self.b.0);
        w.put_u8(match self.kind {
            BridgeKind::And => 0,
            BridgeKind::Or => 1,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let a = NetId(r.get_u32("bridging fault net a")?);
        let b = NetId(r.get_u32("bridging fault net b")?);
        let kind = match r.get_u8("bridging fault kind")? {
            0 => BridgeKind::And,
            1 => BridgeKind::Or,
            _ => {
                return Err(WireError::Corrupt {
                    context: "bridging fault kind",
                })
            }
        };
        Ok(BridgingFault { a, b, kind })
    }

    fn in_range(&self, net_count: usize) -> bool {
        self.a.index() < net_count && self.b.index() < net_count
    }

    fn enumerate(m: &Module) -> Result<Vec<Self>, SimError> {
        enumerate_bridges(m)
    }

    /// Drives one vector for one fault chunk: unforced settle for the
    /// fault-free bridge values, then per-lane wired forces on both nets
    /// of each pair and a second settle. Afterwards the simulator holds
    /// the faulty state.
    fn apply(
        sim: &mut Simulator<DEFAULT_LANE_GROUPS>,
        pins: &[NetId],
        vectors: &[Vec<Logic>],
        pattern: usize,
        chunk: &[Self],
    ) -> Result<(), SimError> {
        sim.clear_forces();
        for (&pin, &v) in pins.iter().zip(&vectors[pattern]) {
            sim.set(pin, v);
        }
        sim.settle()?;
        let wired: Vec<Logic> = chunk
            .iter()
            .map(|f| f.kind.wired(sim.get_lane(f.a, 0), sim.get_lane(f.b, 0)))
            .collect();
        for (i, (f, &w)) in chunk.iter().zip(&wired).enumerate() {
            sim.force_lane(f.a, i + 1, w);
            sim.force_lane(f.b, i + 1, w);
        }
        sim.settle()
    }
}

/// Packed bridging grading of a static vector set — [`grade_vectors`]
/// under the bridging model.
///
/// # Errors
///
/// As [`grade_vectors`].
pub fn grade_bridges(
    exec: &Exec,
    m: &Module,
    faults: &[BridgingFault],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<BridgingReport, SimError> {
    grade_vectors(exec, m, faults, pins, vectors)
}

/// Serial reference implementation: one scalar simulation per fault,
/// mirroring the packed per-vector semantics exactly. Kept strictly as
/// the differential-test oracle.
///
/// # Errors
///
/// Propagates engine errors; the good-machine run is performed first.
#[doc(hidden)]
pub fn grade_bridges_serial(
    m: &Module,
    faults: &[BridgingFault],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<BridgingReport, SimError> {
    validate_vectors(pins, vectors)?;
    // Good per-vector output streams, plus the fault-free values of
    // every bridged net — the wired value is always computed from the
    // good machine, exactly as the packed pass reads lane 0.
    let mut bridged: Vec<NetId> = faults.iter().flat_map(|f| [f.a, f.b]).collect();
    bridged.sort_unstable();
    bridged.dedup();
    let mut good_sim: Simulator = Simulator::new(m)?;
    let mut good = Vec::new();
    let mut good_bridged = Vec::new();
    for vector in vectors {
        for (&pin, &v) in pins.iter().zip(vector) {
            good_sim.set(pin, v);
        }
        good_sim.settle()?;
        let outs: Vec<Logic> = good_sim
            .program()
            .output_nets
            .iter()
            .map(|&n| good_sim.get_lane(n, 0))
            .collect();
        good.push(outs);
        good_bridged.push(
            bridged
                .iter()
                .map(|&n| good_sim.get_lane(n, 0))
                .collect::<Vec<Logic>>(),
        );
    }
    let net_value = |values: &[Logic], net: NetId| {
        values[bridged.binary_search(&net).expect("bridged net recorded")]
    };
    let mut detected = 0usize;
    let mut undetected = Vec::new();
    for &fault in faults {
        let mut sim: Simulator = Simulator::new(m)?;
        let mut diff = false;
        for ((vector, good_outs), fault_free) in vectors.iter().zip(&good).zip(&good_bridged) {
            sim.clear_forces();
            for (&pin, &v) in pins.iter().zip(vector) {
                sim.set(pin, v);
            }
            sim.settle()?;
            let w = fault.kind.wired(
                net_value(fault_free, fault.a),
                net_value(fault_free, fault.b),
            );
            sim.force(fault.a, w);
            sim.force(fault.b, w);
            sim.settle()?;
            let nets: Vec<NetId> = sim.program().output_nets.clone();
            diff |= nets.iter().zip(good_outs).any(|(&n, g)| {
                let o = sim.get_lane(n, 0);
                g.is_known() && o.is_known() && *g != o
            });
        }
        if diff {
            detected += 1;
        } else {
            undetected.push(fault);
        }
    }
    Ok(Report {
        total: faults.len(),
        detected,
        undetected,
        process_fallbacks: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::{GateKind, NetlistBuilder};

    fn and2() -> Module {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::And2, &[a, c]);
        b.output("y", y);
        b.finish().unwrap()
    }

    fn pins(m: &Module) -> Vec<NetId> {
        [m.port("a").unwrap().net, m.port("b").unwrap().net].to_vec()
    }

    #[test]
    fn adjacency_pairs_the_gate_inputs() {
        let m = and2();
        let bridges = enumerate_bridges(&m).unwrap();
        // One adjacent pair (a, b feeding the AND), two bridge kinds.
        assert_eq!(bridges.len(), 2);
        assert_ne!(bridges[0].a, bridges[0].b);
    }

    /// An OR-bridge across an AND gate's inputs flips the output on the
    /// 01/10 vectors; an AND-bridge there is only visible on... nothing
    /// for y = a AND b (wired-AND equals the gate), so exactly the OR
    /// bridge is detected.
    #[test]
    fn wired_or_detected_wired_and_undetectable_on_and_gate() {
        use Logic::{One, Zero};
        let m = and2();
        let bridges = enumerate_bridges(&m).unwrap();
        let vectors = vec![
            vec![Zero, Zero],
            vec![Zero, One],
            vec![One, Zero],
            vec![One, One],
        ];
        let rep = grade_bridges(&Exec::serial(), &m, &bridges, &pins(&m), &vectors).unwrap();
        assert_eq!(rep.total, 2);
        assert_eq!(rep.detected, 1, "{rep}");
        assert_eq!(rep.undetected[0].kind, BridgeKind::And);
    }

    /// Packed grading equals the scalar oracle.
    #[test]
    fn packed_matches_serial_oracle() {
        use Logic::{One, Zero};
        let m = and2();
        let bridges = enumerate_bridges(&m).unwrap();
        let vectors = vec![vec![Zero, One], vec![One, Zero], vec![One, One]];
        let packed = grade_bridges(&Exec::serial(), &m, &bridges, &pins(&m), &vectors).unwrap();
        let serial = grade_bridges_serial(&m, &bridges, &pins(&m), &vectors).unwrap();
        assert_eq!(packed, serial);
    }
}
