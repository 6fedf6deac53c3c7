//! Scan-test drivers: shift/capture sequences over named scan ports.
//!
//! Mirrors what the ATE does when applying the translated scan patterns of
//! the paper's flow: shift in over `si` pins with `se = 1`, pulse the
//! capture clock with `se = 0`, shift out while shifting the next pattern
//! in.

use crate::engine::Simulator;
use crate::logic::Logic;
use crate::SimError;

/// Names of the scan-related ports of a module (one entry per chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPorts {
    /// Scan-in port per chain.
    pub si: Vec<String>,
    /// Scan-out port per chain.
    pub so: Vec<String>,
    /// Scan-enable port.
    pub se: String,
    /// Shift/capture clock port.
    pub clock: String,
}

impl ScanPorts {
    /// Conventional names produced by
    /// [`steac_netlist::stitch::stitch_scan`] with
    /// [`steac_netlist::StitchConfig::balanced`].
    #[must_use]
    pub fn conventional(chains: usize) -> Self {
        ScanPorts {
            si: (0..chains).map(|i| format!("scan_si[{i}]")).collect(),
            so: (0..chains).map(|i| format!("scan_so[{i}]")).collect(),
            se: "scan_se".to_string(),
            clock: "ck".to_string(),
        }
    }

    /// Number of chains.
    #[must_use]
    pub fn chain_count(&self) -> usize {
        self.si.len()
    }
}

/// Shifts `bits[chain][k]` into the chains (bit 0 first) while recording
/// what comes out of the `so` pins; all chains shift in lockstep for
/// `max(len)` cycles, shorter chains pad with `X`.
///
/// Returns the shifted-out bits per chain (same length as the shift).
///
/// # Errors
///
/// Returns [`SimError::UnknownName`] for bad port names or propagates
/// simulation errors.
pub fn shift(
    sim: &mut Simulator,
    ports: &ScanPorts,
    bits: &[Vec<Logic>],
) -> Result<Vec<Vec<Logic>>, SimError> {
    assert_eq!(bits.len(), ports.chain_count(), "one bit vector per chain");
    let len = bits.iter().map(Vec::len).max().unwrap_or(0);
    let mut out: Vec<Vec<Logic>> = vec![Vec::with_capacity(len); bits.len()];
    sim.set_by_name(&ports.se, Logic::One)?;
    for k in 0..len {
        for (c, chain_bits) in bits.iter().enumerate() {
            let v = chain_bits.get(k).copied().unwrap_or(Logic::X);
            sim.set_by_name(&ports.si[c], v)?;
        }
        // Sample scan-out before the shift pulse: so shows the current
        // last-flop state.
        sim.settle()?;
        for (c, o) in out.iter_mut().enumerate() {
            o.push(sim.get_by_name(&ports.so[c])?);
        }
        sim.clock_cycle_by_name(&ports.clock)?;
    }
    sim.set_by_name(&ports.se, Logic::Zero)?;
    sim.settle()?;
    Ok(out)
}

/// One functional capture cycle (`se = 0`, one clock pulse).
///
/// # Errors
///
/// Propagates name and stability errors.
pub fn capture(sim: &mut Simulator, ports: &ScanPorts) -> Result<(), SimError> {
    sim.set_by_name(&ports.se, Logic::Zero)?;
    sim.settle()?;
    sim.clock_cycle_by_name(&ports.clock)
}

/// Applies one full scan pattern: load `stimulus` (per chain), pulse
/// capture, then unload while loading `next` (or `X` padding when `None`).
/// Returns the unloaded response per chain.
///
/// # Bit ordering
///
/// For a chain of `L` flops (`si → f0 → … → f(L-1) → so`) shifted for `L`
/// cycles, bit `k` of both stimulus and response corresponds to flop
/// `L-1-k`: the first bit shifted in travels to the deepest flop, and the
/// deepest flop's capture value is the first bit shifted out. A pattern
/// shifted in therefore reads back identically if no capture intervenes
/// (FIFO property).
///
/// # Errors
///
/// Propagates name and stability errors.
pub fn load_capture_unload(
    sim: &mut Simulator,
    ports: &ScanPorts,
    stimulus: &[Vec<Logic>],
    next: Option<&[Vec<Logic>]>,
) -> Result<Vec<Vec<Logic>>, SimError> {
    shift(sim, ports, stimulus)?;
    capture(sim, ports)?;
    let pad: Vec<Vec<Logic>> = stimulus.iter().map(|c| vec![Logic::X; c.len()]).collect();
    let unload = shift(sim, ports, next.unwrap_or(&pad))?;
    Ok(unload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::{stitch_scan, GateKind, NetlistBuilder, StitchConfig};

    /// 4 flops, combinationally connected so capture inverts flop 0 into
    /// flop 1 and so on (a small pipeline).
    fn scan_module() -> steac_netlist::Module {
        let mut b = NetlistBuilder::new("m");
        let ck = b.input("ck");
        let d = b.input("d");
        let mut cur = d;
        for _ in 0..4 {
            let inv = b.gate(GateKind::Inv, &[cur]);
            cur = b.gate(GateKind::Dff, &[inv, ck]);
        }
        b.output("q", cur);
        let mut m = b.finish().unwrap();
        stitch_scan(&mut m, &StitchConfig::balanced(1)).unwrap();
        m
    }

    #[test]
    fn shift_through_whole_chain() {
        let m = scan_module();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        let mut ports = ScanPorts::conventional(1);
        ports.clock = "ck".to_string();
        sim.set_by_name("d", Logic::Zero).unwrap();
        // Load pattern 1,0,1,0.
        use Logic::{One, Zero};
        let loaded = vec![vec![One, Zero, One, Zero]];
        shift(&mut sim, &ports, &loaded).unwrap();
        // Unload: with 4 more shift cycles, the bits come out in order.
        let out = shift(&mut sim, &ports, &[vec![Zero; 4]]).unwrap();
        // First bit shifted in (One) reached the deepest flop, so it exits
        // first... chain order: si -> f0 -> f1 -> f2 -> f3 -> so. After 4
        // shifts, f3 holds the first-shifted bit.
        assert_eq!(out[0], vec![One, Zero, One, Zero]);
    }

    #[test]
    fn capture_replaces_chain_contents() {
        let m = scan_module();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        let mut ports = ScanPorts::conventional(1);
        ports.clock = "ck".to_string();
        use Logic::{One, Zero};
        sim.set_by_name("d", Logic::One).unwrap();
        let resp =
            load_capture_unload(&mut sim, &ports, &[vec![Zero, Zero, Zero, Zero]], None).unwrap();
        // Chain loaded with all zeros, PI d=1. Capture: f0 = inv(d) = 0,
        // f1..f3 = inv(previous stage's 0) = 1. Response bit k maps to
        // flop 3-k, so the stream is [f3, f2, f1, f0] = [1, 1, 1, 0].
        assert_eq!(resp[0], vec![One, One, One, Zero]);
    }
}
