//! Data-background extension for word-oriented memories.
//!
//! Solid-background March tests cannot observe intra-word coupling
//! faults whose forced value coincides with the background (see the
//! escape test in [`crate::faultsim`]): aggressor and victim bits of one
//! word are always written together. The standard remedy — and the
//! extension BRAINS applies for word-oriented SRAMs — is to repeat the
//! March test under a set of *data backgrounds* (solid, checkerboard,
//! column-stripe, ...) such that every intra-word bit pair receives both
//! polarities. `log2(width) + 1` backgrounds suffice for pairwise
//! coverage.

use crate::faultsim::failing_reads;
use crate::march::MarchAlgorithm;
use crate::memory::{MemFault, Sram, SramConfig};
use std::fmt;

/// A data background: the word written for `w0`/`w1` ops (`w1` writes
/// the complement of `w0`'s pattern... by convention `pattern` is what
/// `w1` writes and its complement what `w0` writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataBackground {
    /// Bit pattern applied on `w1` (complemented on `w0`).
    pub pattern: u64,
    /// Descriptive name.
    pub name: &'static str,
}

impl fmt::Display for DataBackground {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:#06x})", self.name, self.pattern)
    }
}

/// The standard pairwise-covering background set for a `width`-bit word:
/// solid plus stripes of period 2, 4, 8, ... (`log2(width) + 1` entries).
#[must_use]
pub fn standard_backgrounds(width: usize) -> Vec<DataBackground> {
    // Alternating blocks of `half` ones and zeros from bit 0 up
    // (...11001100 for `half` = 2); one 64-bit block is the solid word.
    let stripes = |half: usize| {
        (0..width.min(64))
            .filter(|bit| (bit / half).is_multiple_of(2))
            .fold(0u64, |p, bit| p | 1 << bit)
    };
    let mut out = vec![DataBackground {
        pattern: stripes(64),
        name: "solid",
    }];
    let names = [
        "stripe2", "stripe4", "stripe8", "stripe16", "stripe32", "stripe64",
    ];
    for (k, name) in names.into_iter().enumerate() {
        let half = 1 << k;
        if 2 * half > width.max(2) {
            break;
        }
        out.push(DataBackground {
            pattern: stripes(half),
            name,
        });
    }
    out
}

/// Runs `alg` once per background; a read mismatch under any background
/// detects the fault, and the walk stops at the first one. Total cycles
/// = `backgrounds.len() × kN`.
#[must_use]
pub fn run_march_with_backgrounds(
    alg: &MarchAlgorithm,
    mem: &mut Sram,
    backgrounds: &[DataBackground],
) -> bool {
    backgrounds
        .iter()
        .any(|bg| failing_reads(alg, mem, bg.pattern).next().is_some())
}

/// Coverage of the multi-background test over a fault list.
#[must_use]
pub fn background_coverage(
    alg: &MarchAlgorithm,
    config: &SramConfig,
    faults: &[MemFault],
    backgrounds: &[DataBackground],
) -> (usize, usize) {
    let mut detected = 0;
    for &fault in faults {
        let mut mem = Sram::with_fault(*config, fault);
        if run_march_with_backgrounds(alg, &mut mem, backgrounds) {
            detected += 1;
        }
    }
    (detected, faults.len())
}

/// Test time multiplier: cycles per address with `n` backgrounds.
#[must_use]
pub fn background_cycles(alg: &MarchAlgorithm, words: usize, backgrounds: usize) -> u64 {
    alg.cycles(words) * backgrounds as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::run_march;

    const CFG: SramConfig = SramConfig {
        words: 32,
        width: 8,
        ports: crate::memory::PortKind::SinglePort,
    };

    #[test]
    fn background_set_size_is_logarithmic() {
        assert_eq!(standard_backgrounds(1).len(), 2);
        assert_eq!(standard_backgrounds(8).len(), 4); // solid + 2,4,8
        assert_eq!(standard_backgrounds(16).len(), 5);
        assert_eq!(standard_backgrounds(32).len(), 6);
    }

    #[test]
    fn solid_background_is_all_ones() {
        let bgs = standard_backgrounds(8);
        assert_eq!(bgs[0].pattern, 0xFF);
        assert_eq!(bgs[0].name, "solid");
        // stripe2 alternates bits: 0b01010101.
        assert_eq!(bgs[1].pattern, 0x55);
        // stripe4 alternates pairs: 0b00110011.
        assert_eq!(bgs[2].pattern, 0x33);
    }

    /// Every adjacent bit pair receives opposite values under at least
    /// one background — the pairwise-coverage property.
    #[test]
    fn backgrounds_separate_every_bit_pair() {
        for width in [2usize, 4, 8, 16, 32] {
            let bgs = standard_backgrounds(width);
            for i in 0..width {
                for j in (i + 1)..width {
                    let separated = bgs
                        .iter()
                        .any(|bg| ((bg.pattern >> i) & 1) != ((bg.pattern >> j) & 1));
                    assert!(separated, "width {width}: bits {i},{j} never separated");
                }
            }
        }
    }

    /// The masked intra-word CFid that escapes solid-background March C−
    /// is caught with the standard background set.
    #[test]
    fn intra_word_cfid_caught_with_backgrounds() {
        let fault = MemFault::CouplingIdempotent {
            aggressor: (5, 0),
            victim: (5, 1),
            rising: true,
            forced: true,
        };
        let alg = MarchAlgorithm::march_c_minus();
        // Escapes under solid background...
        let mut solid = Sram::with_fault(CFG, fault);
        assert!(!run_march(&alg, &mut solid), "premise: solid-only escape");
        // ...caught with the background set (stripe2 writes bit0 and
        // bit1 with opposite values).
        let mut multi = Sram::with_fault(CFG, fault);
        let bgs = standard_backgrounds(CFG.width);
        assert!(
            run_march_with_backgrounds(&alg, &mut multi, &bgs),
            "background extension must detect the intra-word CFid"
        );
    }

    #[test]
    fn clean_memory_still_passes() {
        let alg = MarchAlgorithm::march_c_minus();
        let bgs = standard_backgrounds(CFG.width);
        let mut mem = Sram::new(CFG);
        assert!(!run_march_with_backgrounds(&alg, &mut mem, &bgs));
    }

    #[test]
    fn coverage_and_cycles_account() {
        let alg = MarchAlgorithm::march_c_minus();
        let bgs = standard_backgrounds(CFG.width);
        let faults = vec![
            MemFault::stuck_at(3, 2, true),
            MemFault::CouplingIdempotent {
                aggressor: (7, 3),
                victim: (7, 4),
                rising: true,
                forced: true,
            },
        ];
        let (det, total) = background_coverage(&alg, &CFG, &faults, &bgs);
        assert_eq!((det, total), (2, 2));
        assert_eq!(
            background_cycles(&alg, 1024, bgs.len()),
            10 * 1024 * bgs.len() as u64
        );
    }

    /// All intra-word coupling polarities over random cell pairs are
    /// caught with backgrounds (the theory the extension exists for).
    #[test]
    fn random_intra_word_couplings_all_caught() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let alg = MarchAlgorithm::march_c_minus();
        let bgs = standard_backgrounds(CFG.width);
        for _ in 0..60 {
            let addr = rng.gen_range(0..CFG.words);
            let b1 = rng.gen_range(0..CFG.width);
            let mut b2 = rng.gen_range(0..CFG.width);
            while b2 == b1 {
                b2 = rng.gen_range(0..CFG.width);
            }
            let fault = MemFault::CouplingIdempotent {
                aggressor: (addr, b1),
                victim: (addr, b2),
                rising: rng.gen(),
                forced: rng.gen(),
            };
            let mut mem = Sram::with_fault(CFG, fault);
            assert!(
                run_march_with_backgrounds(&alg, &mut mem, &bgs),
                "escaped: {fault:?}"
            );
        }
    }
}
