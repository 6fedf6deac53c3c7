//! Bit-parallel packed 4-value logic: `64 × N` independent simulation
//! lanes per word-group pair.
//!
//! [`PackedLogic`] carries one [`Logic`] value per lane in two bit planes,
//! each plane an `[u64; N]` *lane group* (`N = 1`, the default, is the
//! 64-lane kernel cycle playback runs; `N = 4` is the 256-lane path of
//! grading and March walks, [`DEFAULT_LANE_GROUPS`]):
//!
//! | value | `ones` bit | `unknowns` bit |
//! |-------|------------|----------------|
//! | `0`   | 0          | 0              |
//! | `1`   | 1          | 0              |
//! | `X`   | 0          | 1              |
//! | `Z`   | 1          | 1              |
//!
//! Every operation is a handful of word-wide boolean instructions per
//! group — element-wise over the group array, so the compiler can keep
//! the `N = 4` case in vector registers — and is **lane-exact**: for each
//! lane, the packed result equals the scalar [`Logic`] algebra applied to
//! that lane's inputs (a property-tested invariant, see
//! `tests/proptests.rs`, which also checks the 64-lane player and the
//! 256-lane graders against scalar oracles). This is what lets the
//! engine evaluate `64 × N` patterns — or one good machine plus
//! `64 × N − 1` faulty machines — in a single pass over the compiled
//! netlist.
//!
//! Lane *masks* are plain `[u64; N]` arrays (bit `l % 64` of word
//! `l / 64` is lane `l`), manipulated with the free `mask_*` helpers
//! below so workload code never spells out per-word loops.

use crate::logic::Logic;

/// Number of independent simulation lanes in one `u64` lane group.
pub const LANES: usize = 64;

/// The one lane-group count of gate-level grading, fault dictionaries
/// and March walks: 4 groups = 256 lanes per pass, the good machine
/// plus 255 faults in a grading pass and 256 faults in a walk. (Cycle
/// playback runs at 64 lanes, `steac_pattern::PLAYBACK_LANE_GROUPS`.)
/// Grading speeds up with width up to here and barely past it.
/// `BENCH_10.json` grades the JPEG core's 668 stuck-at faults at
/// 646,933 faults/s at 256 lanes against 344,706 at 64 (optimized,
/// serial). A serial probe grading the USB core under the stuck-at,
/// transition and bridging models over 512 vectors at seed 7 took
/// 10.76 s at 64 lanes, 3.41 s at 128, 2.42 s at 256 and 2.35 s at 512
/// (best of two runs per width on a 2-core box).
pub const DEFAULT_LANE_GROUPS: usize = 4;

/// A lane mask over `N` lane groups: bit `l % 64` of word `l / 64`
/// covers lane `l`.
pub type LaneMask<const N: usize> = [u64; N];

/// The all-clear mask.
#[must_use]
pub const fn mask_none<const N: usize>() -> LaneMask<N> {
    [0; N]
}

/// The all-set mask.
#[must_use]
pub const fn mask_all<const N: usize>() -> LaneMask<N> {
    [u64::MAX; N]
}

/// Bitwise NOT.
#[inline]
#[must_use]
pub fn mask_not<const N: usize>(a: LaneMask<N>) -> LaneMask<N> {
    let mut out = [0; N];
    for g in 0..N {
        out[g] = !a[g];
    }
    out
}

/// Bitwise AND.
#[inline]
#[must_use]
pub fn mask_and<const N: usize>(a: LaneMask<N>, b: LaneMask<N>) -> LaneMask<N> {
    let mut out = [0; N];
    for g in 0..N {
        out[g] = a[g] & b[g];
    }
    out
}

/// Bitwise OR.
#[inline]
#[must_use]
pub fn mask_or<const N: usize>(a: LaneMask<N>, b: LaneMask<N>) -> LaneMask<N> {
    let mut out = [0; N];
    for g in 0..N {
        out[g] = a[g] | b[g];
    }
    out
}

/// `a & !b` (clears the lanes set in `b`).
#[inline]
#[must_use]
pub fn mask_andnot<const N: usize>(a: LaneMask<N>, b: LaneMask<N>) -> LaneMask<N> {
    let mut out = [0; N];
    for g in 0..N {
        out[g] = a[g] & !b[g];
    }
    out
}

/// Whether any lane is set.
#[inline]
#[must_use]
pub fn mask_any<const N: usize>(a: &LaneMask<N>) -> bool {
    a.iter().any(|&w| w != 0)
}

/// Reads one lane bit.
///
/// # Panics
///
/// Panics if `lane >= 64 * N`.
#[inline]
#[must_use]
pub fn mask_bit<const N: usize>(a: &LaneMask<N>, lane: usize) -> bool {
    a[lane / LANES] >> (lane % LANES) & 1 == 1
}

/// Sets one lane bit.
///
/// # Panics
///
/// Panics if `lane >= 64 * N`.
#[inline]
pub fn mask_set_bit<const N: usize>(a: &mut LaneMask<N>, lane: usize) {
    a[lane / LANES] |= 1u64 << (lane % LANES);
}

/// Mask with lanes `start .. start + len` set.
///
/// # Panics
///
/// Panics if `start + len > 64 * N`.
#[must_use]
pub fn mask_range<const N: usize>(start: usize, len: usize) -> LaneMask<N> {
    assert!(start + len <= LANES * N, "lane range out of bounds");
    let mut out = [0; N];
    for lane in start..start + len {
        mask_set_bit(&mut out, lane);
    }
    out
}

/// Number of set lanes.
#[inline]
#[must_use]
pub fn mask_count<const N: usize>(a: &LaneMask<N>) -> u32 {
    a.iter().map(|w| w.count_ones()).sum()
}

/// Replicates one 64-lane mask word across all `N` groups, so the same
/// per-lane pattern repeats every 64 lanes (see
/// [`crate::engine::Simulator::import_forces_replicated`]).
#[inline]
#[must_use]
pub fn mask_replicate<const N: usize>(word: u64) -> LaneMask<N> {
    [word; N]
}

/// `64 × N` lanes of 4-value logic in two bit planes of `N` lane groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedLogic<const N: usize = 1> {
    /// Value plane: lane bit set ⇒ the lane's known value is `1` (or the
    /// lane is `Z` when the `unknowns` bit is also set).
    pub ones: [u64; N],
    /// Unknown plane: lane bit set ⇒ the lane holds `X` or `Z`.
    pub unknowns: [u64; N],
}

impl<const N: usize> Default for PackedLogic<N> {
    fn default() -> Self {
        PackedLogic::ALL_X
    }
}

impl<const N: usize> PackedLogic<N> {
    /// Total independent lanes in this width (`64 × N`).
    pub const WIDTH: usize = LANES * N;

    /// All lanes `X` (power-on state).
    pub const ALL_X: PackedLogic<N> = PackedLogic {
        ones: [0; N],
        unknowns: [u64::MAX; N],
    };

    /// All lanes `0`.
    pub const ALL_ZERO: PackedLogic<N> = PackedLogic {
        ones: [0; N],
        unknowns: [0; N],
    };

    /// All lanes `1`.
    pub const ALL_ONE: PackedLogic<N> = PackedLogic {
        ones: [u64::MAX; N],
        unknowns: [0; N],
    };

    /// Broadcasts one scalar value to every lane.
    #[must_use]
    pub fn splat(v: Logic) -> Self {
        match v {
            Logic::Zero => PackedLogic::ALL_ZERO,
            Logic::One => PackedLogic::ALL_ONE,
            Logic::X => PackedLogic::ALL_X,
            Logic::Z => PackedLogic {
                ones: [u64::MAX; N],
                unknowns: [u64::MAX; N],
            },
        }
    }

    /// Packs up to `64 × N` scalar values (missing lanes become `X`).
    #[must_use]
    pub fn from_lanes(values: &[Logic]) -> Self {
        let mut p = PackedLogic::ALL_X;
        for (i, &v) in values.iter().take(Self::WIDTH).enumerate() {
            p.set_lane(i, v);
        }
        p
    }

    /// Replicates one 64-lane word pair across all `N` groups, so lane
    /// `l` of the wide value equals lane `l % 64` of `narrow`.
    #[inline]
    #[must_use]
    pub fn replicate(narrow: PackedLogic<1>) -> Self {
        PackedLogic {
            ones: [narrow.ones[0]; N],
            unknowns: [narrow.unknowns[0]; N],
        }
    }

    /// One 64-lane group of this value (lanes `g * 64 .. g * 64 + 64`).
    ///
    /// # Panics
    ///
    /// Panics if `g >= N`.
    #[inline]
    #[must_use]
    pub fn group(self, g: usize) -> PackedLogic<1> {
        PackedLogic {
            ones: [self.ones[g]],
            unknowns: [self.unknowns[g]],
        }
    }

    /// Reads one lane back as a scalar.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * N`.
    #[must_use]
    pub fn lane(self, lane: usize) -> Logic {
        assert!(lane < Self::WIDTH, "lane {lane} out of range");
        let (g, b) = (lane / LANES, lane % LANES);
        let one = (self.ones[g] >> b) & 1 == 1;
        let unk = (self.unknowns[g] >> b) & 1 == 1;
        match (one, unk) {
            (false, false) => Logic::Zero,
            (true, false) => Logic::One,
            (false, true) => Logic::X,
            (true, true) => Logic::Z,
        }
    }

    /// Writes one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * N`.
    pub fn set_lane(&mut self, lane: usize, v: Logic) {
        assert!(lane < Self::WIDTH, "lane {lane} out of range");
        let (g, b) = (lane / LANES, lane % LANES);
        let bit = 1u64 << b;
        let (one, unk) = match v {
            Logic::Zero => (false, false),
            Logic::One => (true, false),
            Logic::X => (false, true),
            Logic::Z => (true, true),
        };
        if one {
            self.ones[g] |= bit;
        } else {
            self.ones[g] &= !bit;
        }
        if unk {
            self.unknowns[g] |= bit;
        } else {
            self.unknowns[g] &= !bit;
        }
    }

    /// Unpacks all `64 × N` lanes.
    #[must_use]
    pub fn to_lanes(self) -> Vec<Logic> {
        (0..Self::WIDTH).map(|i| self.lane(i)).collect()
    }

    /// Lane mask of known (`0`/`1`) values.
    #[inline]
    #[must_use]
    pub fn known(self) -> LaneMask<N> {
        mask_not(self.unknowns)
    }

    /// Lane mask of lanes where `self` and `other` encode different
    /// values.
    #[inline]
    #[must_use]
    pub fn diff(self, other: PackedLogic<N>) -> LaneMask<N> {
        let mut out = [0; N];
        for (g, o) in out.iter_mut().enumerate() {
            *o = (self.ones[g] ^ other.ones[g]) | (self.unknowns[g] ^ other.unknowns[g]);
        }
        out
    }

    /// Lane mask of lanes holding exactly `0`.
    #[inline]
    #[must_use]
    pub fn is_zero(self) -> LaneMask<N> {
        let mut out = [0; N];
        for (g, o) in out.iter_mut().enumerate() {
            *o = !self.ones[g] & !self.unknowns[g];
        }
        out
    }

    /// Lane mask of lanes holding exactly `1`.
    #[inline]
    #[must_use]
    pub fn is_one(self) -> LaneMask<N> {
        let mut out = [0; N];
        for (g, o) in out.iter_mut().enumerate() {
            *o = self.ones[g] & !self.unknowns[g];
        }
        out
    }

    /// Lane mask of lanes holding exactly `Z`.
    #[inline]
    #[must_use]
    pub fn is_z(self) -> LaneMask<N> {
        let mut out = [0; N];
        for (g, o) in out.iter_mut().enumerate() {
            *o = self.ones[g] & self.unknowns[g];
        }
        out
    }

    /// Per-lane merge: lanes where `mask` is set take `self`, the rest
    /// take `other`.
    #[inline]
    #[must_use]
    pub fn select(self, other: PackedLogic<N>, mask: LaneMask<N>) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for (g, &m) in mask.iter().enumerate() {
            out.ones[g] = (self.ones[g] & m) | (other.ones[g] & !m);
            out.unknowns[g] = (self.unknowns[g] & m) | (other.unknowns[g] & !m);
        }
        out
    }

    /// Lane-wise NOT; `X`/`Z` lanes yield `X`.
    // Mirrors [`Logic::not`]; see the note there on `ops::Not`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    #[must_use]
    pub fn not(self) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for g in 0..N {
            out.ones[g] = !self.ones[g] & !self.unknowns[g];
            out.unknowns[g] = self.unknowns[g];
        }
        out
    }

    /// Lane-wise buffer: known values pass, `X`/`Z` yield `X`.
    #[inline]
    #[must_use]
    pub fn buf(self) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for g in 0..N {
            out.ones[g] = self.ones[g] & !self.unknowns[g];
            out.unknowns[g] = self.unknowns[g];
        }
        out
    }

    /// Lane-wise AND with X-pessimism (`0 AND anything = 0`).
    #[inline]
    #[must_use]
    pub fn and(self, other: PackedLogic<N>) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for g in 0..N {
            let zero = (!self.ones[g] & !self.unknowns[g]) | (!other.ones[g] & !other.unknowns[g]);
            let one = (self.ones[g] & !self.unknowns[g]) & (other.ones[g] & !other.unknowns[g]);
            out.ones[g] = one;
            out.unknowns[g] = !(zero | one);
        }
        out
    }

    /// Lane-wise OR with X-pessimism (`1 OR anything = 1`).
    #[inline]
    #[must_use]
    pub fn or(self, other: PackedLogic<N>) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for g in 0..N {
            let one = (self.ones[g] & !self.unknowns[g]) | (other.ones[g] & !other.unknowns[g]);
            let zero = (!self.ones[g] & !self.unknowns[g]) & (!other.ones[g] & !other.unknowns[g]);
            out.ones[g] = one;
            out.unknowns[g] = !(zero | one);
        }
        out
    }

    /// Lane-wise XOR; any `X`/`Z` input lane yields `X`.
    #[inline]
    #[must_use]
    pub fn xor(self, other: PackedLogic<N>) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for g in 0..N {
            let known = !self.unknowns[g] & !other.unknowns[g];
            out.ones[g] = (self.ones[g] ^ other.ones[g]) & known;
            out.unknowns[g] = !known;
        }
        out
    }

    /// Lane-wise 2-to-1 mux matching [`Logic::mux`]: `a` when `sel = 0`,
    /// `b` when `sel = 1`; with an unknown select, the common value of
    /// `a` and `b` when they agree and are not `Z`, else `X`.
    #[inline]
    #[must_use]
    pub fn mux(a: PackedLogic<N>, b: PackedLogic<N>, sel: PackedLogic<N>) -> PackedLogic<N> {
        let mut out = PackedLogic::ALL_ZERO;
        for g in 0..N {
            let sel0 = !sel.ones[g] & !sel.unknowns[g];
            let sel1 = sel.ones[g] & !sel.unknowns[g];
            let selu = sel.unknowns[g];
            // Lanes where a and b encode the identical value, and that
            // value is not Z (X-optimistic agreement).
            let agree = !((a.ones[g] ^ b.ones[g]) | (a.unknowns[g] ^ b.unknowns[g]))
                & !(a.ones[g] & a.unknowns[g]);
            out.ones[g] = (a.ones[g] & sel0) | (b.ones[g] & sel1) | (a.ones[g] & selu & agree);
            out.unknowns[g] =
                (a.unknowns[g] & sel0) | (b.unknowns[g] & sel1) | (selu & (!agree | a.unknowns[g]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    /// A packed word whose first four lanes hold `v` against each possible
    /// partner value in the other operand.
    fn pairs() -> Vec<(Logic, Logic)> {
        let mut v = Vec::new();
        for a in ALL {
            for b in ALL {
                v.push((a, b));
            }
        }
        v
    }

    #[test]
    fn splat_and_lane_round_trip() {
        for v in ALL {
            let p: PackedLogic = PackedLogic::splat(v);
            for lane in [0, 1, 31, 63] {
                assert_eq!(p.lane(lane), v, "splat({v}) lane {lane}");
            }
            let wide: PackedLogic<4> = PackedLogic::splat(v);
            for lane in [0, 63, 64, 128, 255] {
                assert_eq!(wide.lane(lane), v, "wide splat({v}) lane {lane}");
            }
        }
    }

    #[test]
    fn set_lane_round_trip() {
        let mut p: PackedLogic = PackedLogic::ALL_X;
        for (i, v) in ALL.iter().cycle().take(LANES).enumerate() {
            p.set_lane(i, *v);
        }
        for (i, v) in ALL.iter().cycle().take(LANES).enumerate() {
            assert_eq!(p.lane(i), *v);
        }
    }

    #[test]
    fn wide_set_lane_round_trips_across_groups() {
        let mut p: PackedLogic<4> = PackedLogic::ALL_X;
        for (i, v) in ALL.iter().cycle().take(PackedLogic::<4>::WIDTH).enumerate() {
            p.set_lane(i, *v);
        }
        for (i, v) in ALL.iter().cycle().take(PackedLogic::<4>::WIDTH).enumerate() {
            assert_eq!(p.lane(i), *v, "lane {i}");
        }
        assert_eq!(p.to_lanes().len(), 256);
    }

    #[test]
    fn binary_ops_match_scalar_exhaustively() {
        let cases = pairs();
        let a: PackedLogic =
            PackedLogic::from_lanes(&cases.iter().map(|c| c.0).collect::<Vec<_>>());
        let b: PackedLogic =
            PackedLogic::from_lanes(&cases.iter().map(|c| c.1).collect::<Vec<_>>());
        for (i, (sa, sb)) in cases.iter().enumerate() {
            assert_eq!(a.and(b).lane(i), sa.and(*sb), "and({sa},{sb})");
            assert_eq!(a.or(b).lane(i), sa.or(*sb), "or({sa},{sb})");
            assert_eq!(a.xor(b).lane(i), sa.xor(*sb), "xor({sa},{sb})");
        }
    }

    /// Every group of a wide value computes the same algebra as the
    /// narrow kernel fed that group's lanes.
    #[test]
    fn wide_ops_are_groupwise_identical_to_narrow() {
        let cases = pairs();
        let mut a: PackedLogic<4> = PackedLogic::ALL_X;
        let mut b: PackedLogic<4> = PackedLogic::ALL_X;
        for g in 0..4 {
            for (i, (sa, sb)) in cases.iter().enumerate() {
                // Stagger the pattern per group so groups are distinct.
                a.set_lane(g * LANES + i, *sa);
                b.set_lane(g * LANES + (i + g) % cases.len(), *sb);
            }
        }
        for g in 0..4 {
            assert_eq!(a.and(b).group(g), a.group(g).and(b.group(g)), "group {g}");
            assert_eq!(a.or(b).group(g), a.group(g).or(b.group(g)), "group {g}");
            assert_eq!(a.xor(b).group(g), a.group(g).xor(b.group(g)), "group {g}");
            assert_eq!(a.not().group(g), a.group(g).not(), "group {g}");
            assert_eq!(
                PackedLogic::mux(a, b, a).group(g),
                PackedLogic::mux(a.group(g), b.group(g), a.group(g)),
                "group {g}"
            );
        }
    }

    #[test]
    fn unary_ops_match_scalar_exhaustively() {
        let a: PackedLogic = PackedLogic::from_lanes(&ALL);
        for (i, v) in ALL.iter().enumerate() {
            assert_eq!(a.not().lane(i), v.not(), "not({v})");
            let expect_buf = match v {
                Logic::Z => Logic::X,
                x => *x,
            };
            assert_eq!(a.buf().lane(i), expect_buf, "buf({v})");
        }
    }

    #[test]
    fn mux_matches_scalar_exhaustively() {
        for sel in ALL {
            let cases = pairs();
            let a: PackedLogic =
                PackedLogic::from_lanes(&cases.iter().map(|c| c.0).collect::<Vec<_>>());
            let b: PackedLogic =
                PackedLogic::from_lanes(&cases.iter().map(|c| c.1).collect::<Vec<_>>());
            let s: PackedLogic = PackedLogic::splat(sel);
            let m = PackedLogic::mux(a, b, s);
            for (i, (sa, sb)) in cases.iter().enumerate() {
                assert_eq!(m.lane(i), Logic::mux(*sa, *sb, sel), "mux({sa},{sb},{sel})");
            }
        }
    }

    #[test]
    fn select_merges_lanes() {
        let a: PackedLogic = PackedLogic::splat(Logic::One);
        let b: PackedLogic = PackedLogic::splat(Logic::Zero);
        let m = a.select(b, [0b1010]);
        assert_eq!(m.lane(0), Logic::Zero);
        assert_eq!(m.lane(1), Logic::One);
        assert_eq!(m.lane(2), Logic::Zero);
        assert_eq!(m.lane(3), Logic::One);
        assert_eq!(m.lane(4), Logic::Zero);
    }

    #[test]
    fn predicates_report_lane_masks() {
        let p: PackedLogic = PackedLogic::from_lanes(&ALL);
        assert_eq!(p.is_zero()[0] & 0xF, 0b0001);
        assert_eq!(p.is_one()[0] & 0xF, 0b0010);
        assert_eq!(p.is_z()[0] & 0xF, 0b1000);
        assert_eq!(p.known()[0] & 0xF, 0b0011);
    }

    #[test]
    fn replicate_repeats_every_64_lanes() {
        let mut narrow: PackedLogic = PackedLogic::ALL_X;
        narrow.set_lane(3, Logic::One);
        narrow.set_lane(40, Logic::Zero);
        let wide: PackedLogic<4> = PackedLogic::replicate(narrow);
        for lane in 0..PackedLogic::<4>::WIDTH {
            assert_eq!(wide.lane(lane), narrow.lane(lane % LANES), "lane {lane}");
        }
        assert_eq!(mask_replicate::<4>(0b101), [0b101; 4]);
    }

    #[test]
    fn mask_helpers_cover_group_boundaries() {
        let mut m = mask_none::<4>();
        mask_set_bit(&mut m, 0);
        mask_set_bit(&mut m, 63);
        mask_set_bit(&mut m, 64);
        mask_set_bit(&mut m, 255);
        assert!(mask_bit(&m, 0) && mask_bit(&m, 63) && mask_bit(&m, 64) && mask_bit(&m, 255));
        assert!(!mask_bit(&m, 1) && !mask_bit(&m, 65));
        assert_eq!(mask_count(&m), 4);
        assert!(mask_any(&m));
        assert!(!mask_any(&mask_none::<4>()));
        assert_eq!(mask_and(m, mask_not(m)), mask_none::<4>());
        assert_eq!(mask_or(m, mask_not(m)), mask_all::<4>());
        assert_eq!(mask_andnot(m, m), mask_none::<4>());

        let r = mask_range::<4>(1, 255);
        assert!(!mask_bit(&r, 0));
        assert_eq!(mask_count(&r), 255);
        assert_eq!(mask_range::<4>(60, 8), [0xF000_0000_0000_0000, 0xF, 0, 0]);
    }
}
