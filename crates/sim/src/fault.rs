//! Single-stuck-at fault model — the founding [`FaultModel`] — and the
//! PPSFP pass geometry every gate-level model shares: one packed pass
//! simulates the good machine on lane 0 and up to `64 * N - 1` faulty
//! machines on the other lanes, each stuck-at fault injected once per
//! pass as a per-lane force ([`Simulator::force_lane`]).
//!
//! Vector grading and fault dictionaries run on the generic engine in
//! [`crate::models`]; [`grade_vectors`] and [`grade_vectors_wide`] are
//! re-exported here from it.
//!
//! Used to check that generated DFT structures are themselves testable and
//! to grade scan/functional pattern sets in the examples and benches. The
//! memory-specific fault models (SAF/TF/CF/...) live in `steac-membist`;
//! this module covers the logic side.

use crate::engine::Simulator;
use crate::logic::Logic;
use crate::models::{FaultModel, Report};
use crate::packed::LANES;
use crate::wire::{WireError, WireReader, WireWriter};
use crate::SimError;
use std::fmt;
use steac_netlist::{Module, NetId};

pub use crate::models::{grade_vectors, grade_vectors_wide};

/// Faults simulated per classic 64-lane pass (lane 0 is the good
/// machine). Wide passes carry [`faults_per_pass`]`(groups)` faults.
pub const FAULTS_PER_PASS: usize = LANES - 1;

/// Faults simulated per `groups`-wide pass: lane 0 is the good machine,
/// every other one of the `groups`×64 lanes carries a fault (255 at the
/// default 4-group width).
#[must_use]
pub const fn faults_per_pass(groups: usize) -> usize {
    LANES * groups - 1
}

/// Lane-group widths the monomorphized grading kernels exist for.
pub const SUPPORTED_LANE_GROUPS: [usize; 4] = [1, 2, 4, 8];

/// Stuck-at polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckAt {
    /// Stuck-at-0.
    Zero,
    /// Stuck-at-1.
    One,
}

impl StuckAt {
    /// The logic value the fault forces.
    #[must_use]
    pub fn value(self) -> Logic {
        match self {
            StuckAt::Zero => Logic::Zero,
            StuckAt::One => Logic::One,
        }
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckAt::Zero => f.write_str("SA0"),
            StuckAt::One => f.write_str("SA1"),
        }
    }
}

/// A single stuck-at fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Faulty net.
    pub net: NetId,
    /// Polarity.
    pub stuck: StuckAt,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.stuck, self.net)
    }
}

/// Enumerates the collapsed-free fault list: every net stuck-at-0 and
/// stuck-at-1.
#[must_use]
pub fn enumerate_faults(m: &Module) -> Vec<Fault> {
    let mut v = Vec::with_capacity(m.nets.len() * 2);
    for i in 0..m.nets.len() {
        v.push(Fault {
            net: NetId(i as u32),
            stuck: StuckAt::Zero,
        });
        v.push(Fault {
            net: NetId(i as u32),
            stuck: StuckAt::One,
        });
    }
    v
}

/// Result of grading a pattern set against a stuck-at fault list.
pub type CoverageReport = Report<Fault>;

impl FaultModel for Fault {
    const WIRE_KIND: u16 = 1;
    const NOUN: &'static str = "faults";

    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.net.0);
        w.put_u8(match self.stuck {
            StuckAt::Zero => 0,
            StuckAt::One => 1,
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let net = NetId(r.get_u32("fault net")?);
        let stuck = match r.get_u8("fault polarity")? {
            0 => StuckAt::Zero,
            1 => StuckAt::One,
            _ => {
                return Err(WireError::Corrupt {
                    context: "fault polarity",
                })
            }
        };
        Ok(Fault { net, stuck })
    }

    fn in_range(&self, net_count: usize) -> bool {
        self.net.index() < net_count
    }

    fn enumerate(m: &Module) -> Result<Vec<Self>, SimError> {
        Ok(enumerate_faults(m))
    }

    /// A stuck-at fault holds for the whole pass: its force goes in once.
    fn begin_pass<const N: usize>(sim: &mut Simulator<N>, chunk: &[Self]) {
        for (i, f) in chunk.iter().enumerate() {
            sim.force_lane(f.net, i + 1, f.stuck.value());
        }
    }

    fn apply<const N: usize>(
        sim: &mut Simulator<N>,
        pins: &[NetId],
        vectors: &[Vec<Logic>],
        pattern: usize,
        _chunk: &[Self],
    ) -> Result<(), SimError> {
        for (&pin, &v) in pins.iter().zip(&vectors[pattern]) {
            sim.set(pin, v);
        }
        sim.settle()
    }
}

/// Serial reference implementation: one full simulation per fault, as the
/// original interpreter did. Kept strictly as the differential-test and
/// benchmark oracle — production callers use [`grade_vectors`] with an
/// [`Exec`](crate::Exec).
///
/// `run_test` returns the stream of observed lane-0 values; a fault is
/// detected when any position differs from the good run where both values
/// are known.
///
/// # Errors
///
/// Propagates errors from `run_test`; the good-machine run is performed
/// first.
#[doc(hidden)]
pub fn fault_coverage_serial<F>(
    m: &Module,
    faults: &[Fault],
    mut run_test: F,
) -> Result<CoverageReport, SimError>
where
    F: FnMut(&mut Simulator) -> Result<Vec<Logic>, SimError>,
{
    let mut good_sim = Simulator::new(m)?;
    let good = run_test(&mut good_sim)?;
    let mut detected = 0usize;
    let mut undetected = Vec::new();
    for &fault in faults {
        let mut sim: Simulator = Simulator::new(m)?;
        sim.force(fault.net, fault.stuck.value());
        let observed = run_test(&mut sim)?;
        let diff = good
            .iter()
            .zip(observed.iter())
            .any(|(g, o)| g.is_known() && o.is_known() && g != o);
        if diff {
            detected += 1;
        } else {
            undetected.push(fault);
        }
    }
    Ok(CoverageReport {
        total: faults.len(),
        detected,
        undetected,
        process_fallbacks: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::shard::Threads;
    use steac_netlist::{GateKind, NetlistBuilder};

    fn exec() -> Exec {
        Exec::from_env()
    }

    fn and2() -> Module {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::And2, &[a, c]);
        b.output("y", y);
        b.finish().unwrap()
    }

    /// The exhaustive 2-input test, as pins and vectors.
    fn exhaustive_and2(m: &Module) -> ([NetId; 2], Vec<Vec<Logic>>) {
        use Logic::{One, Zero};
        let pins = [m.port("a").unwrap().net, m.port("b").unwrap().net];
        let vectors = vec![
            vec![Zero, Zero],
            vec![Zero, One],
            vec![One, Zero],
            vec![One, One],
        ];
        (pins, vectors)
    }

    #[test]
    fn coverage_of_empty_fault_list_is_100() {
        let m = and2();
        let (pins, vectors) = exhaustive_and2(&m);
        let rep = grade_vectors::<Fault>(&exec(), &m, &[], &pins, &vectors).unwrap();
        assert_eq!(rep.total, 0);
        assert_eq!(rep.coverage_percent(), 100.0);
    }

    /// The packed passes and the serial reference agree fault-for-fault.
    #[test]
    fn packed_matches_serial_reference() {
        let m = and2();
        let faults = enumerate_faults(&m);
        let (pins, vectors) = exhaustive_and2(&m);
        let packed = grade_vectors(&exec(), &m, &faults, &pins, &vectors).unwrap();
        let serial = fault_coverage_serial(&m, &faults, |sim| {
            let mut obs = Vec::new();
            for v in &vectors {
                sim.set(pins[0], v[0]);
                sim.set(pins[1], v[1]);
                sim.settle()?;
                obs.push(sim.get_by_name("y")?);
            }
            Ok(obs)
        })
        .unwrap();
        assert_eq!(packed.detected, serial.detected);
        assert_eq!(packed.undetected, serial.undetected);
    }

    /// More than one pass: a chain of inverters has > 63 net faults, so
    /// chunking across 64-lane passes must still find everything
    /// detectable.
    #[test]
    fn multi_pass_chunking_covers_long_chains() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let mut cur = a;
        for _ in 0..80 {
            cur = b.gate(GateKind::Inv, &[cur]);
        }
        b.output("y", cur);
        let m = b.finish().unwrap();
        let faults = enumerate_faults(&m);
        assert!(faults.len() > 2 * faults_per_pass(1));
        let pins = [a];
        let vectors = vec![vec![Logic::Zero], vec![Logic::One]];
        let rep = grade_vectors_wide(&exec(), &m, &faults, &pins, &vectors, 1).unwrap();
        assert_eq!(rep.coverage_percent(), 100.0, "{rep}");
    }

    #[test]
    fn grade_vectors_detects_and_drops() {
        let m = and2();
        let faults = enumerate_faults(&m);
        let (pins, vectors) = exhaustive_and2(&m);
        let rep = grade_vectors(&exec(), &m, &faults, &pins, &vectors).unwrap();
        assert_eq!(rep.coverage_percent(), 100.0, "{rep}");
        // Fewer vectors leave escapes, and the report accounts for them.
        let rep = grade_vectors(&exec(), &m, &faults, &pins, &vectors[..1]).unwrap();
        assert!(rep.detected < rep.total);
        assert_eq!(rep.undetected.len(), rep.total - rep.detected);
    }

    /// Grading is bit-identical (counts AND `undetected` order) on the
    /// serial backend and at every thread count — the merge-by-unit-index
    /// contract behind one `Exec` seam.
    #[test]
    fn grading_is_backend_invariant_in_process() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let mut cur = a;
        for i in 0..70 {
            cur = if i % 3 == 0 {
                b.gate(GateKind::Inv, &[cur])
            } else {
                b.gate(GateKind::Nand2, &[cur, a])
            };
        }
        b.output("y", cur);
        let m = b.finish().unwrap();
        let faults = enumerate_faults(&m);
        let pins = [m.port("a").unwrap().net];
        let vectors = vec![vec![Logic::Zero], vec![Logic::One]];
        let baseline = grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
        for t in 1..=8 {
            let sharded = grade_vectors(
                &Exec::threads(Threads::exact(t)),
                &m,
                &faults,
                &pins,
                &vectors,
            )
            .unwrap();
            assert_eq!(sharded, baseline, "{t} threads");
        }
    }

    #[test]
    fn grade_vectors_validates_lengths() {
        let m = and2();
        let pins = [m.port("a").unwrap().net, m.port("b").unwrap().net];
        let bad = vec![vec![Logic::Zero]];
        assert!(matches!(
            grade_vectors(&exec(), &m, &enumerate_faults(&m), &pins, &bad),
            Err(SimError::VectorLength { .. })
        ));
    }
}
