//! Transition/delay fault model: slow-to-rise / slow-to-fall nets
//! graded with launch–capture vector pairs.
//!
//! A transition fault on a net means the net *eventually* reaches the
//! right value but misses the capture window. The classic zero-delay
//! abstraction: apply a **launch** vector, let the circuit settle, then
//! apply the **capture** vector — a faulty net whose launch value was
//! the slow edge's starting value (0 for slow-to-rise, 1 for
//! slow-to-fall) holds that stale value through the capture evaluation.
//! Consecutive vectors of the pattern set form the pairs
//! (`vectors.windows(2)`), so an `n`-vector set launches `n - 1`
//! transitions per fault site.
//!
//! The packed pass is the stuck-at PPSFP loop with a per-pair twist:
//! lane 0 runs the good machine, each other lane holds one fault's
//! stale launch value via a per-lane force **only when the good machine
//! actually launches that fault's slow edge** — the force value equals
//! the good value otherwise-idle pairs would produce anyway, so an
//! untriggered fault can never raise a spurious detection. Each pair is
//! evaluated from a reset state ([`Simulator::reset_to_x`]), which
//! makes the verdict a pure function of the pair and lets the engine's
//! edge machinery (first settle seeds clock-edge history, the capture
//! settle fires rising-edge captures) see exactly one launch→capture
//! event. Faulty capture values propagate into flop captures the same
//! way any forced value does.
//!
//! Detection uses the same masked-compare rule as stuck-at grading:
//! an output lane counts only where lane 0 and the faulty lane are both
//! known and differ.

use crate::exec::Exec;
use crate::logic::Logic;
use crate::models::dictionary::signature_words;
use crate::models::{grade_vectors, validate_vectors, FaultModel, Report};
use crate::packed::DEFAULT_LANE_GROUPS;
use crate::wire::{WireError, WireReader, WireWriter};
use crate::{SimError, Simulator};
use std::fmt;
use steac_netlist::{Module, NetId};

/// Which edge of the faulty net is slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlowEdge {
    /// Slow-to-rise: a 0→1 transition misses the capture window.
    Rise,
    /// Slow-to-fall: a 1→0 transition misses the capture window.
    Fall,
}

impl SlowEdge {
    /// The value the net holds *before* the slow edge — the stale value
    /// a triggered fault carries through the capture evaluation.
    #[must_use]
    pub fn stale_value(self) -> Logic {
        match self {
            SlowEdge::Rise => Logic::Zero,
            SlowEdge::Fall => Logic::One,
        }
    }
}

impl fmt::Display for SlowEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SlowEdge::Rise => "STR",
            SlowEdge::Fall => "STF",
        })
    }
}

/// A single transition fault: one net, one slow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// Faulty net.
    pub net: NetId,
    /// Which edge is slow.
    pub slow: SlowEdge,
}

impl fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.slow, self.net)
    }
}

/// Enumerates the full transition fault list: every net slow-to-rise
/// and slow-to-fall (the transition analogue of
/// [`crate::fault::enumerate_faults`]).
#[must_use]
pub fn enumerate_transition_faults(m: &Module) -> Vec<TransitionFault> {
    let mut v = Vec::with_capacity(m.nets.len() * 2);
    for i in 0..m.nets.len() {
        v.push(TransitionFault {
            net: NetId(i as u32),
            slow: SlowEdge::Rise,
        });
        v.push(TransitionFault {
            net: NetId(i as u32),
            slow: SlowEdge::Fall,
        });
    }
    v
}

/// Result of grading launch–capture pairs against a transition fault
/// list.
pub type TransitionReport = Report<TransitionFault>;

/// The good-machine launch values that trigger each chunk fault for one
/// pair, read after the launch settle. `None` = not triggered (the
/// launch value was not the slow edge's starting value).
fn triggered_forces(
    sim: &Simulator<DEFAULT_LANE_GROUPS>,
    chunk: &[TransitionFault],
) -> Vec<Option<Logic>> {
    chunk
        .iter()
        .map(|f| {
            let launch = sim.get_lane(f.net, 0);
            (launch == f.slow.stale_value()).then_some(launch)
        })
        .collect()
}

impl FaultModel for TransitionFault {
    const WIRE_KIND: u16 = 4;
    const NOUN: &'static str = "transition faults";

    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.net.0);
        w.put_u8(match self.slow {
            SlowEdge::Rise => 0,
            SlowEdge::Fall => 1,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let net = NetId(r.get_u32("transition fault net")?);
        let slow = match r.get_u8("transition fault edge")? {
            0 => SlowEdge::Rise,
            1 => SlowEdge::Fall,
            _ => {
                return Err(WireError::Corrupt {
                    context: "transition fault edge",
                })
            }
        };
        Ok(TransitionFault { net, slow })
    }

    fn in_range(&self, net_count: usize) -> bool {
        self.net.index() < net_count
    }

    fn enumerate(m: &Module) -> Result<Vec<Self>, SimError> {
        Ok(enumerate_transition_faults(m))
    }

    /// Consecutive vectors pair up: `n` vectors launch `n - 1`
    /// transitions.
    fn patterns(n: usize) -> usize {
        n.saturating_sub(1)
    }

    /// Drives launch–capture pair `pattern` for one fault chunk: reset,
    /// launch settle, per-lane stale forces for triggered faults,
    /// capture settle. Afterwards the simulator holds the capture state.
    fn apply(
        sim: &mut Simulator<DEFAULT_LANE_GROUPS>,
        pins: &[NetId],
        vectors: &[Vec<Logic>],
        pattern: usize,
        chunk: &[Self],
    ) -> Result<(), SimError> {
        let (launch, capture) = (&vectors[pattern], &vectors[pattern + 1]);
        sim.clear_forces();
        sim.reset_to_x();
        for (&pin, &v) in pins.iter().zip(launch) {
            sim.set(pin, v);
        }
        sim.settle()?;
        let forces = triggered_forces(sim, chunk);
        for (&pin, &v) in pins.iter().zip(capture) {
            sim.set(pin, v);
        }
        for (i, (f, force)) in chunk.iter().zip(&forces).enumerate() {
            if let Some(stale) = force {
                sim.force_lane(f.net, i + 1, *stale);
            }
        }
        sim.settle()
    }
}

/// Packed transition grading of launch–capture pairs drawn from
/// consecutive `vectors` — [`grade_vectors`] under the transition
/// model.
///
/// # Errors
///
/// As [`grade_vectors`].
pub fn grade_transitions(
    exec: &Exec,
    m: &Module,
    faults: &[TransitionFault],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<TransitionReport, SimError> {
    grade_vectors(exec, m, faults, pins, vectors)
}

/// Serial reference implementation: one scalar simulation per fault,
/// mirroring the packed pair semantics exactly (reset per pair, stale
/// force only when the good machine launches the slow edge). Kept
/// strictly as the differential-test oracle.
///
/// # Errors
///
/// Propagates engine errors; the good-machine run is performed first.
#[doc(hidden)]
pub fn grade_transitions_serial(
    m: &Module,
    faults: &[TransitionFault],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<TransitionReport, SimError> {
    validate_vectors(pins, vectors)?;
    let good = serial_pair_outputs(m, None, pins, vectors)?;
    let mut detected = 0usize;
    let mut undetected = Vec::new();
    for &fault in faults {
        let observed = serial_pair_outputs(m, Some(fault), pins, vectors)?;
        let diff = good
            .iter()
            .flatten()
            .zip(observed.iter().flatten())
            .any(|(g, o)| g.is_known() && o.is_known() && g != o);
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

/// Scalar per-pair output streams (one `Vec<Logic>` of `output_nets`
/// values per launch–capture pair), with an optional injected fault.
fn serial_pair_outputs(
    m: &Module,
    fault: Option<TransitionFault>,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<Vec<Vec<Logic>>, SimError> {
    let mut sim: Simulator = Simulator::new(m)?;
    let mut out = Vec::new();
    for pair in vectors.windows(2) {
        sim.clear_forces();
        sim.reset_to_x();
        for (&pin, &v) in pins.iter().zip(&pair[0]) {
            sim.set(pin, v);
        }
        sim.settle()?;
        let stale = fault.and_then(|f| {
            let launch = sim.get_lane(f.net, 0);
            (launch == f.slow.stale_value()).then_some((f.net, launch))
        });
        for (&pin, &v) in pins.iter().zip(&pair[1]) {
            sim.set(pin, v);
        }
        if let Some((net, value)) = stale {
            sim.force(net, value);
        }
        sim.settle()?;
        out.push(
            sim.program()
                .output_nets
                .iter()
                .map(|&n| sim.get_lane(n, 0))
                .collect(),
        );
    }
    Ok(out)
}

/// The failure signature an observed faulty device produces over the
/// launch–capture pairs of `vectors`: one bit per (pair, output)
/// position where the device provably differs from the good machine —
/// the "tester log" side of dictionary diagnosis, built scalar so the
/// end-to-end test injects a fault the diagnosis stack knows nothing
/// about.
///
/// # Errors
///
/// Propagates engine errors.
#[doc(hidden)]
pub fn observed_transition_signature(
    m: &Module,
    fault: TransitionFault,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<Vec<u64>, SimError> {
    validate_vectors(pins, vectors)?;
    let good = serial_pair_outputs(m, None, pins, vectors)?;
    let observed = serial_pair_outputs(m, Some(fault), pins, vectors)?;
    let outs = good.first().map_or(0, Vec::len);
    let pairs = good.len();
    let mut sig = vec![0u64; signature_words(pairs, outs)];
    for (p, (g, o)) in good.iter().zip(&observed).enumerate() {
        for (i, (gv, ov)) in g.iter().zip(o).enumerate() {
            if gv.is_known() && ov.is_known() && gv != ov {
                let bit = p * outs + i;
                sig[bit / 64] |= 1 << (bit % 64);
            }
        }
    }
    Ok(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::fault_dictionary;
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

    /// Walking both inputs through every edge detects every transition
    /// fault of an AND gate.
    #[test]
    fn exhaustive_pairs_cover_the_and_gate() {
        use Logic::{One, Zero};
        let m = and2();
        let faults = enumerate_transition_faults(&m);
        // 00 → 11 → 00 → 01 → 11 → 10 → 11 → 01 launches every edge
        // with the other input held at 1 (the propagating condition).
        let vectors = vec![
            vec![Zero, Zero],
            vec![One, One],
            vec![Zero, Zero],
            vec![Zero, One],
            vec![One, One],
            vec![One, Zero],
            vec![One, One],
            vec![Zero, One],
        ];
        let rep = grade_transitions(&Exec::serial(), &m, &faults, &pins(&m), &vectors).unwrap();
        assert_eq!(rep.coverage_percent(), 100.0, "{rep}");
    }

    /// A single vector forms no launch–capture pair, so nothing can be
    /// detected.
    #[test]
    fn one_vector_detects_nothing() {
        use Logic::One;
        let m = and2();
        let faults = enumerate_transition_faults(&m);
        let rep =
            grade_transitions(&Exec::serial(), &m, &faults, &pins(&m), &[vec![One, One]]).unwrap();
        assert_eq!(rep.detected, 0);
        assert_eq!(rep.undetected.len(), rep.total);
    }

    /// An untriggered fault (no launch of its slow edge) never raises a
    /// spurious detection: holding both inputs at 1 launches no rising
    /// edge on the output, so STR@y must escape.
    #[test]
    fn untriggered_faults_escape() {
        use Logic::One;
        let m = and2();
        let y = m.port("y").unwrap().net;
        let faults = [TransitionFault {
            net: y,
            slow: SlowEdge::Rise,
        }];
        let vectors = vec![vec![One, One], vec![One, One]];
        let rep = grade_transitions(&Exec::serial(), &m, &faults, &pins(&m), &vectors).unwrap();
        assert_eq!(rep.detected, 0);
    }

    /// Packed grading equals the scalar oracle on the exhaustive pairs.
    #[test]
    fn packed_matches_serial_oracle() {
        use Logic::{One, Zero};
        let m = and2();
        let faults = enumerate_transition_faults(&m);
        let vectors = vec![
            vec![Zero, Zero],
            vec![One, One],
            vec![One, Zero],
            vec![Zero, One],
        ];
        let packed = grade_transitions(&Exec::serial(), &m, &faults, &pins(&m), &vectors).unwrap();
        let serial = grade_transitions_serial(&m, &faults, &pins(&m), &vectors).unwrap();
        assert_eq!(packed, serial);
    }

    /// Dictionary entries agree with the grading verdicts and with the
    /// observed-signature helper.
    #[test]
    fn dictionary_agrees_with_grading_and_observation() {
        use Logic::{One, Zero};
        let m = and2();
        let faults = enumerate_transition_faults(&m);
        let p = pins(&m);
        let vectors = vec![
            vec![Zero, Zero],
            vec![One, One],
            vec![One, Zero],
            vec![One, One],
        ];
        let rep = grade_transitions(&Exec::serial(), &m, &faults, &p, &vectors).unwrap();
        let dict = fault_dictionary(&Exec::serial(), &m, &faults, &p, &vectors).unwrap();
        assert_eq!(dict.entries.len(), faults.len());
        for (f, e) in faults.iter().zip(&dict.entries) {
            let detected = !rep.undetected.contains(f);
            assert_eq!(e.first_pattern.is_some(), detected, "{f}");
            assert_eq!(e.signature.iter().any(|&w| w != 0), detected, "{f}");
            let observed = observed_transition_signature(&m, *f, &p, &vectors).unwrap();
            assert_eq!(e.signature, observed, "{f}");
        }
    }
}
