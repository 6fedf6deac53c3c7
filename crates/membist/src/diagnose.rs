//! Failure diagnosis: from the controller's fail map to the failing
//! memory, and from a failing memory to the first offending March
//! operation.
//!
//! On the tester, `MSO` shifts out one fail bit per sequencer group
//! (see [`crate::controller`]); BRAINS maps those bits back to memory
//! instances, and re-running the March test against the behavioural
//! model pinpoints the first mismatching read — the starting point of
//! bitmap-based failure analysis.
//!
//! The second half of this module is the memory arm of the platform's
//! fault-dictionary diagnosis (`steac_sim::models::dictionary` is the
//! gate-level arm): [`coupling_dictionary`] pre-simulates a candidate
//! fault list — typically [`crate::faultsim::enumerate_inter_cell_couplings`] —
//! and records each fault's [`FailureSite`] signature under the chosen
//! March algorithm; [`rank_candidates`] then scores an observed failure
//! against every dictionary entry and returns the candidates in
//! best-match-first order.

use crate::brains::{BistDesign, PerMemory};
use crate::march::{Direction, MarchAlgorithm, MarchOp};
use crate::memory::{MemFault, Sram, SramConfig};
use std::fmt;

/// The first failing read observed while marching over a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSite {
    /// Index of the March element.
    pub element: usize,
    /// Word address of the failing read.
    pub addr: usize,
    /// The read operation that failed.
    pub op: MarchOp,
    /// Observed word value.
    pub observed: u64,
    /// Expected word value.
    pub expected: u64,
}

impl FailureSite {
    /// Bit positions that differ.
    #[must_use]
    pub fn failing_bits(&self) -> Vec<usize> {
        (0..64)
            .filter(|b| ((self.observed ^ self.expected) >> b) & 1 == 1)
            .collect()
    }
}

impl fmt::Display for FailureSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "element {} {} at address {:#x}: observed {:#x}, expected {:#x} (bits {:?})",
            self.element,
            self.op,
            self.addr,
            self.observed,
            self.expected,
            self.failing_bits()
        )
    }
}

/// Runs `alg` on `mem` and returns the first failing read, if any.
#[must_use]
pub fn first_failure(alg: &MarchAlgorithm, mem: &mut Sram) -> Option<FailureSite> {
    failure_log(alg, mem).into_iter().next()
}

/// Runs `alg` on `mem` to completion and returns *every* failing read
/// in walk order — the March analogue of a tester failure bitmap. The
/// walk never stops at the first mismatch (unlike the pass/fail BIST
/// result), because the trailing failures are what give a fault its
/// distinguishable dictionary signature.
#[must_use]
pub fn failure_log(alg: &MarchAlgorithm, mem: &mut Sram) -> Vec<FailureSite> {
    let words = mem.config().words;
    let mask = if mem.config().width == 64 {
        u64::MAX
    } else {
        (1u64 << mem.config().width) - 1
    };
    let mut log = Vec::new();
    for (ei, element) in alg.elements.iter().enumerate() {
        let addrs: Box<dyn Iterator<Item = usize>> = match element.dir {
            Direction::Up | Direction::Any => Box::new(0..words),
            Direction::Down => Box::new((0..words).rev()),
        };
        for addr in addrs {
            for &op in &element.ops {
                match op {
                    MarchOp::W0 => mem.write(addr, 0),
                    MarchOp::W1 => mem.write(addr, mask),
                    MarchOp::R0 | MarchOp::R1 => {
                        let expected = if op.value() { mask } else { 0 };
                        let observed = mem.read(addr);
                        if observed != expected {
                            log.push(FailureSite {
                                element: ei,
                                addr,
                                op,
                                observed,
                                expected,
                            });
                        }
                    }
                }
            }
        }
    }
    log
}

/// The March failure signature of one candidate fault: every failing
/// read on a behavioural model carrying exactly that fault, in walk
/// order. Empty when the algorithm cannot see the fault.
#[must_use]
pub fn march_signature(
    alg: &MarchAlgorithm,
    config: &SramConfig,
    fault: MemFault,
) -> Vec<FailureSite> {
    let mut mem = Sram::with_fault(*config, fault);
    failure_log(alg, &mut mem)
}

/// A memory fault dictionary: candidate faults paired with their March
/// failure signatures, ready for [`rank_candidates`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemDictionary {
    /// Algorithm the signatures were simulated under.
    pub algorithm: String,
    /// Candidate faults, in enumeration order.
    pub faults: Vec<MemFault>,
    /// `signatures[i]` is the failure log of `faults[i]` (empty = the
    /// algorithm does not detect the fault).
    pub signatures: Vec<Vec<FailureSite>>,
}

impl MemDictionary {
    /// Candidates the algorithm detects at all.
    #[must_use]
    pub fn detected_count(&self) -> usize {
        self.signatures.iter().filter(|s| !s.is_empty()).count()
    }
}

/// Builds the fault dictionary for `faults` on `config` under `alg` by
/// simulating each candidate with [`march_signature`]. Deterministic:
/// entry order follows the fault list.
#[must_use]
pub fn coupling_dictionary(
    alg: &MarchAlgorithm,
    config: &SramConfig,
    faults: &[MemFault],
) -> MemDictionary {
    MemDictionary {
        algorithm: alg.name.clone(),
        faults: faults.to_vec(),
        signatures: faults
            .iter()
            .map(|&f| march_signature(alg, config, f))
            .collect(),
    }
}

/// Mismatch weight between two individual failure sites. Fields are
/// weighted by how sharply they localize: element (8) and address (4)
/// pin the cell, the read op (2) the data background, and each
/// differing failing-bit position (1) the column.
#[must_use]
pub fn site_distance(a: &FailureSite, b: &FailureSite) -> u32 {
    let mut d = 0u32;
    if a.element != b.element {
        d += 8;
    }
    if a.addr != b.addr {
        d += 4;
    }
    if a.op != b.op {
        d += 2;
    }
    let sym_diff = (a.observed ^ a.expected) ^ (b.observed ^ b.expected);
    d + sym_diff.count_ones()
}

/// Weight of a failure present in one log but absent from the other —
/// worse than any single-site field mismatch.
const UNMATCHED_SITE: u32 = 16;

/// Mismatch weight between an observed failure log and a dictionary
/// signature: aligned sites compare with [`site_distance`], and every
/// unmatched trailing site on either side costs 16. An
/// undetected candidate (empty signature) can never explain an
/// observed failure and scores [`u32::MAX`].
#[must_use]
pub fn signature_distance(observed: &[FailureSite], candidate: &[FailureSite]) -> u32 {
    if candidate.is_empty() {
        return if observed.is_empty() { 0 } else { u32::MAX };
    }
    let paired: u32 = observed
        .iter()
        .zip(candidate)
        .map(|(o, c)| site_distance(o, c))
        .sum();
    let unmatched = observed.len().abs_diff(candidate.len()) as u32;
    paired.saturating_add(unmatched.saturating_mul(UNMATCHED_SITE))
}

/// Ranks the dictionary's candidates against an observed failure log:
/// returns `(fault index, distance)` pairs sorted best-first, ties
/// broken by enumeration index so the ranking is fully deterministic.
/// The true fault scores 0 when the observed log came from a fault in
/// the dictionary (same algorithm, same geometry).
#[must_use]
pub fn rank_candidates(dict: &MemDictionary, observed: &[FailureSite]) -> Vec<(usize, u32)> {
    let mut ranked: Vec<(usize, u32)> = dict
        .signatures
        .iter()
        .enumerate()
        .map(|(i, sig)| (i, signature_distance(observed, sig)))
        .collect();
    ranked.sort_by_key(|&(i, d)| (d, i));
    ranked
}

/// Maps the controller fail bits (one per sequencer group, in group
/// order) to the memories they implicate.
#[must_use]
pub fn implicated_memories<'d>(design: &'d BistDesign, seq_fail: &[bool]) -> Vec<&'d PerMemory> {
    // Group order in the design follows the sorted group keys used at
    // compile time; sequencer_cycles and per_memory share that order via
    // insertion sequence. Reconstruct group boundaries by walking
    // per_memory in order and changing groups when the sequencer index
    // advances.
    // per_memory was pushed group by group, so chunk it by the group
    // sizes implied by the sequencer count.
    let groups = design.sequencer_cycles.len();
    if groups == 0 {
        return Vec::new();
    }
    // Count memories per group by re-deriving the grouping from the
    // per-memory records: records were appended per group in order.
    // Without explicit markers we approximate by even association: walk
    // memories and assign to groups in contiguous runs recorded at
    // compile time via `group_sizes`.
    let sizes = design.group_sizes();
    let mut out = Vec::new();
    let mut idx = 0usize;
    for (g, &size) in sizes.iter().enumerate() {
        let failing = seq_fail.get(g).copied().unwrap_or(false);
        for m in &design.per_memory[idx..idx + size] {
            if failing {
                out.push(m);
            }
        }
        idx += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brains::{Brains, MemorySpec};
    use crate::memory::{MemFault, SramConfig};

    #[test]
    fn first_failure_locates_a_stuck_cell() {
        let cfg = SramConfig::single_port(64, 8);
        let alg = MarchAlgorithm::march_c_minus();
        let mut mem = Sram::with_fault(cfg, MemFault::stuck_at(0x21, 5, true));
        let site = first_failure(&alg, &mut mem).expect("fault detected");
        assert_eq!(site.addr, 0x21);
        assert_eq!(site.failing_bits(), vec![5]);
        // SA1 first seen by the first r0 after the w0 background.
        assert_eq!(site.op, MarchOp::R0);
        assert!(site.to_string().contains("0x21"));
    }

    #[test]
    fn clean_memory_has_no_failure_site() {
        let cfg = SramConfig::single_port(16, 4);
        let mut mem = Sram::new(cfg);
        assert!(first_failure(&MarchAlgorithm::march_c_minus(), &mut mem).is_none());
    }

    /// An injected inter-cell coupling fault's observed failure ranks
    /// its own dictionary entry first (distance 0) — and any seeded
    /// instance keeps the true site inside the top-3 candidates.
    #[test]
    fn coupling_dictionary_ranks_the_injected_fault_on_top() {
        let cfg = SramConfig::single_port(16, 4);
        let alg = MarchAlgorithm::march_c_minus();
        let candidates = crate::faultsim::enumerate_inter_cell_couplings(&cfg);
        assert_eq!(candidates.len(), 12 * cfg.width * (cfg.words - 1));
        let dict = coupling_dictionary(&alg, &cfg, &candidates);
        assert!(dict.detected_count() > 0);
        // Inject every 37th candidate and diagnose it from its observed
        // failure log alone.
        for (truth, &fault) in candidates.iter().enumerate().step_by(37) {
            let mut mem = Sram::with_fault(cfg, fault);
            let observed = failure_log(&alg, &mut mem);
            assert!(!observed.is_empty(), "March C- detects couplings");
            let ranked = rank_candidates(&dict, &observed);
            assert_eq!(ranked.len(), candidates.len());
            let pos = ranked
                .iter()
                .position(|&(i, _)| i == truth)
                .expect("true fault present");
            let (_, d) = ranked[pos];
            assert_eq!(d, 0, "true fault {fault:?} must match its own signature");
            assert!(
                pos < 3,
                "true fault {fault:?} ranked #{} (distance {d})",
                pos + 1
            );
        }
    }

    /// Signature distance weighting: element > addr > op > bits, an
    /// unmatched site outweighs any field mismatch, and an undetected
    /// candidate can never explain a failure.
    #[test]
    fn signature_distance_orders_mismatches() {
        let base = FailureSite {
            element: 1,
            addr: 5,
            op: MarchOp::R0,
            observed: 0b0010,
            expected: 0,
        };
        assert_eq!(signature_distance(&[base], &[base]), 0);
        let other_bit = FailureSite {
            observed: 0b0100,
            ..base
        };
        assert_eq!(signature_distance(&[base], &[other_bit]), 2);
        let other_addr = FailureSite { addr: 6, ..base };
        let other_element = FailureSite { element: 2, ..base };
        assert!(
            signature_distance(&[base], &[other_addr])
                < signature_distance(&[base], &[other_element])
        );
        assert!(
            signature_distance(&[base], &[other_element])
                < signature_distance(&[base], &[base, base])
        );
        assert_eq!(signature_distance(&[base], &[]), u32::MAX);
        assert_eq!(signature_distance(&[], &[]), 0);
    }

    #[test]
    fn fail_map_implicates_the_right_group() {
        let mut b = Brains::new();
        b.add_memory(MemorySpec::new("a0", SramConfig::single_port(64, 8), 0));
        b.add_memory(MemorySpec::new("a1", SramConfig::single_port(32, 8), 0));
        b.add_memory(MemorySpec::new("f0", SramConfig::two_port(16, 8), 1));
        let d = b.compile().unwrap();
        // Group 1 (the two-port FIFO) failed.
        let hits = implicated_memories(&d, &[false, true]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "f0");
        // Group 0 failed: both SP memories implicated.
        let hits = implicated_memories(&d, &[true, false]);
        assert_eq!(hits.len(), 2);
    }
}
