//! Cycle-based patterns and the ATE cycle player.
//!
//! Real ATE flows never hold a full pattern set in memory — patterns
//! are translated and applied as they arrive — so there is one player,
//! and it streams blocks. A [`PatternBlock`] is the playback unit: up
//! to 64 patterns of one shape (pin count, cycle count, pulse timeline)
//! as bit planes, one pattern per simulation lane. Each (cycle, pin)
//! position holds one [`PinPlanes`] — five `u64` words, bit `l` of
//! each word belonging to lane `l`:
//!
//! | state | drive | expect | pulse | value | Z |
//! |-------|-------|--------|-------|-------|---|
//! | `0`   | 1     |        |       |       |   |
//! | `1`   | 1     |        |       | 1     |   |
//! | `Z`   | 1     |        |       | 1     | 1 |
//! | `X`   |       |        |       |       |   |
//! | `P`   |       |        | 1     |       |   |
//! | `L`   |       | 1      |       |       |   |
//! | `H`   |       | 1      |       | 1     |   |
//!
//! Every [`PinState`] has its own combination and every other
//! combination is refused, so a block converts to and from its
//! [`CyclePattern`]s losslessly ([`PatternBlock::from_patterns`],
//! [`PatternBlock::to_patterns`]). Its constructors, and the decoder of
//! its wire bytes, check that no bit lies past the live lanes, that each
//! lane has one state, and that a pulse covers every live lane or none,
//! so the player reads the pulse timeline from the pulse word alone.
//!
//! [`stream_pattern_blocks`] plays blocks as they are produced: it hands
//! the block iterator (typically the receiving end of a bounded channel
//! fed by a generating dispatch) to [`Exec::dispatch`] as one
//! [`steac_sim::ExecWork`] over the shared compiled program. The blocks
//! play inline (`Exec::serial()`), across cores (`Exec::threads(..)`),
//! or across `steac-worker` processes and remote hosts — there the
//! compiled program, pin bindings and force state ship once per worker
//! over the [`steac_sim::wire`] format, and each block ships as its
//! sparse bytes ([`PatternBlock::encode`]): per position a presence
//! byte, then only the non-zero plane words. [`stream_cycle_patterns`]
//! is the chunker in front of it: it pulls [`CyclePattern`]s (owned or
//! borrowed), validates them incrementally against the shape the first
//! pattern fixed, and converts each 64 into one block, column-wise.
//!
//! The player drives each pin with one word select and compares each
//! pin with one mismatch mask, walking lanes only inside a mismatching
//! word. Reports reach the caller's sink strictly in pattern order and
//! are byte-identical on every backend and wherever the stream ends:
//! every verdict is per-pattern, cycle indices are pattern-local and
//! padding lanes follow lane 0. The player has one width, 64 lanes (see
//! [`PLAYBACK_LANE_GROUPS`]). Peak memory follows the pipeline depth,
//! never the set size. [`apply_cycle_patterns_batch`], the materialized
//! entry point, is the same chunker and player over borrowed patterns
//! that collects the reports.

use crate::PatternError;
use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, Mutex};
use steac_netlist::NetId;
use steac_sim::shard;
use steac_sim::{wire, Exec, ExecWork, Logic, PackedLogic, SimProgram, Simulator, LANES};

/// Per-pin state in one tester cycle. Each discriminant is the state's
/// [`PinPlanes`] bits (drive, expect, pulse, value, Z from bit 0 up),
/// which the block conversion reads directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum PinState {
    /// Drive logic 0.
    Drive0 = 0b0_0001,
    /// Drive logic 1.
    Drive1 = 0b0_1001,
    /// Release (high impedance).
    DriveZ = 0b1_1001,
    /// Don't care / keep previous.
    #[default]
    DontCare = 0,
    /// Apply a full clock pulse (0 → 1 → 0) this cycle.
    Pulse = 0b0_0100,
    /// Compare for logic 0.
    ExpectL = 0b0_0010,
    /// Compare for logic 1.
    ExpectH = 0b0_1010,
}

impl PinState {
    /// STIL-style pattern character.
    #[must_use]
    pub fn to_char(self) -> char {
        match self {
            PinState::Drive0 => '0',
            PinState::Drive1 => '1',
            PinState::DriveZ => 'Z',
            PinState::DontCare => 'X',
            PinState::Pulse => 'P',
            PinState::ExpectL => 'L',
            PinState::ExpectH => 'H',
        }
    }

    /// Parses a pattern character (case-insensitive).
    #[must_use]
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            '0' => Some(PinState::Drive0),
            '1' => Some(PinState::Drive1),
            'Z' => Some(PinState::DriveZ),
            'X' => Some(PinState::DontCare),
            'P' => Some(PinState::Pulse),
            'L' => Some(PinState::ExpectL),
            'H' => Some(PinState::ExpectH),
            _ => None,
        }
    }

    /// Drive value, if this state drives.
    #[must_use]
    pub fn drive(self) -> Option<Logic> {
        match self {
            PinState::Drive0 => Some(Logic::Zero),
            PinState::Drive1 => Some(Logic::One),
            PinState::DriveZ => Some(Logic::Z),
            _ => None,
        }
    }

    /// Expected value, if this state compares.
    #[must_use]
    pub fn expect(self) -> Option<Logic> {
        match self {
            PinState::ExpectL => Some(Logic::Zero),
            PinState::ExpectH => Some(Logic::One),
            _ => None,
        }
    }

    /// Converts a stimulus logic value into a drive state.
    #[must_use]
    pub fn from_drive(v: Logic) -> Self {
        match v {
            Logic::Zero => PinState::Drive0,
            Logic::One => PinState::Drive1,
            Logic::Z => PinState::DriveZ,
            Logic::X => PinState::DontCare,
        }
    }

    /// Converts an expected logic value into a compare state.
    #[must_use]
    pub fn from_expect(v: Logic) -> Self {
        match v {
            Logic::Zero => PinState::ExpectL,
            Logic::One => PinState::ExpectH,
            _ => PinState::DontCare,
        }
    }
}

impl fmt::Display for PinState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// A cycle-based pattern: a pin table and one row of [`PinState`]s per
/// tester cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CyclePattern {
    /// Pin names, fixed for all cycles. The table is shared: the
    /// patterns of one set hold clones of one `Arc`, so storing or
    /// cloning a pattern never copies the names, and comparing two
    /// tables of one set is a pointer comparison.
    pub pins: Arc<[String]>,
    /// Cycle rows; each row has `pins.len()` states.
    pub cycles: Vec<Vec<PinState>>,
}

impl CyclePattern {
    /// Creates an empty pattern over the given pins: a `Vec<String>`,
    /// or a clone of a set's shared table.
    #[must_use]
    pub fn new(pins: impl Into<Arc<[String]>>) -> Self {
        CyclePattern {
            pins: pins.into(),
            cycles: Vec::new(),
        }
    }

    /// Appends one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Shape`] if the row width differs from the
    /// pin list.
    pub fn push_cycle(&mut self, row: Vec<PinState>) -> Result<(), PatternError> {
        if row.len() != self.pins.len() {
            return Err(PatternError::Shape {
                context: "cycle row",
                expected: self.pins.len(),
                got: row.len(),
            });
        }
        self.cycles.push(row);
        Ok(())
    }

    /// Number of tester cycles.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycles.len() as u64
    }
}

/// Result of playing a pattern against the simulator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MismatchReport {
    /// `(cycle, pin, expected, observed)` for every failed compare.
    pub mismatches: Vec<(usize, String, char, char)>,
    /// Number of compares performed.
    pub compares: u64,
}

impl MismatchReport {
    /// `true` when every compare passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Result of a batched playback run: one [`MismatchReport`] per
/// pattern, plus the dispatch bookkeeping for the run. Every
/// verdict-bearing field is backend-invariant; `process_fallbacks` is
/// nonzero only when shipped batches fell back in-thread under
/// [`steac_sim::Fallback::InThread`] (the verdicts are unaffected, the
/// degradation is just recorded instead of silent).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchPlayback {
    /// One report per pattern, in batch order.
    pub reports: Vec<MismatchReport>,
    /// Shipped batches this run recomputed in-thread — exactly this
    /// call's count, not a shared total (up to one per
    /// [`steac_sim::STREAM_BATCH_UNITS`] blocks).
    pub process_fallbacks: usize,
}

impl BatchPlayback {
    /// `true` when every compare of every pattern passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.reports.iter().all(MismatchReport::passed)
    }
}

/// Mismatch detail lines printed before the `(+N more)` tail.
const DISPLAYED_MISMATCHES: usize = 10;

impl fmt::Display for MismatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} compares, {} mismatches",
            self.compares,
            self.mismatches.len()
        )?;
        for (cyc, pin, exp, obs) in self.mismatches.iter().take(DISPLAYED_MISMATCHES) {
            write!(f, "\n  cycle {cyc}: {pin} expected {exp} observed {obs}")?;
        }
        if self.mismatches.len() > DISPLAYED_MISMATCHES {
            write!(
                f,
                "\n  (+{} more)",
                self.mismatches.len() - DISPLAYED_MISMATCHES
            )?;
        }
        Ok(())
    }
}

/// Plays a cycle pattern on the simulator, exactly as an ATE would:
/// drive states are applied, `P` pins get a full clock pulse after the
/// other pins settle, and `L`/`H` pins are compared at the end of the
/// cycle (before the next cycle's drives).
///
/// # Errors
///
/// Returns [`PatternError::UnknownPin`] for pins missing on the module
/// and propagates simulator errors.
pub fn apply_cycle_pattern(
    sim: &mut Simulator,
    pattern: &CyclePattern,
) -> Result<MismatchReport, PatternError> {
    let nets = resolve_pins(sim, &pattern.pins)?;
    let mut report = MismatchReport::default();
    for (ci, row) in pattern.cycles.iter().enumerate() {
        // Drive phase.
        let mut pulses = Vec::new();
        for (pi, state) in row.iter().enumerate() {
            if let Some(v) = state.drive() {
                sim.set(nets[pi], v);
            } else if *state == PinState::Pulse {
                sim.set(nets[pi], Logic::Zero);
                pulses.push(nets[pi]);
            }
        }
        sim.settle()?;
        // Clock phase.
        if !pulses.is_empty() {
            sim.clock_cycle_multi(&pulses)?;
        }
        // Compare phase.
        for (pi, state) in row.iter().enumerate() {
            if let Some(expected) = state.expect() {
                report.compares += 1;
                let observed = sim.get(nets[pi]);
                // An unknown where a value is expected is a fail on real
                // ATE too: it never equals the expected 0 or 1.
                if observed != expected {
                    report.mismatches.push((
                        ci,
                        pattern.pins[pi].clone(),
                        PinState::from_expect(expected).to_char(),
                        observed.to_char(),
                    ));
                }
            }
        }
    }
    Ok(report)
}

/// Resolves pattern pin names to nets via the simulator's compiled
/// program.
fn resolve_pins(sim: &Simulator, pins: &[String]) -> Result<Vec<NetId>, PatternError> {
    pins.iter()
        .map(|name| {
            sim.program()
                .port_net(name)
                .ok_or_else(|| PatternError::UnknownPin { name: name.clone() })
        })
        .collect()
}

/// The planes of one (cycle, pin) position of a [`PatternBlock`]: bit
/// `l` of each word belongs to lane `l` (see the module docs for the
/// combination each [`PinState`] sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PinPlanes {
    /// Lanes that drive the pin (`0`, `1` or `Z`).
    pub drive: u64,
    /// Lanes that compare the pin (`L` or `H`).
    pub expect: u64,
    /// Lanes that pulse the pin (`P`): every live lane or none.
    pub pulse: u64,
    /// The 1 of a driving or comparing lane (`1`, `Z` and `H`).
    pub value: u64,
    /// Lanes that release the pin (`Z`); each also drives a 1.
    pub z: u64,
}

/// The state of each five-bit plane code (the discriminants); a
/// block's checks keep every other code out, so those entries are
/// never read.
const STATE_OF_CODE: [PinState; 32] = {
    let mut table = [PinState::DontCare; 32];
    let states = [
        PinState::Drive0,
        PinState::Drive1,
        PinState::DriveZ,
        PinState::Pulse,
        PinState::ExpectL,
        PinState::ExpectH,
    ];
    let mut i = 0;
    while i < states.len() {
        table[states[i] as usize] = states[i];
        i += 1;
    }
    table
};

/// Low bit of each byte of a word.
const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Multiplying [`BYTE_LOW_BITS`]-masked bytes by this moves the low bit
/// of byte `j` to bit `56 + j`, with no carries in between.
const GATHER_BYTES: u64 = 0x0102_0408_1020_4080;

/// Bit `j` of byte `j`, for every byte of a word.
const SPREAD_BITS: u64 = 0x8040_2010_0804_0201;

impl PinPlanes {
    fn words(self) -> [u64; 5] {
        [self.drive, self.expect, self.pulse, self.value, self.z]
    }

    fn from_words([drive, expect, pulse, value, z]: [u64; 5]) -> Self {
        PinPlanes {
            drive,
            expect,
            pulse,
            value,
            z,
        }
    }

    /// Every lane's state code, eight lanes per word: byte `j` of word
    /// `g` holds lane `8g + j`'s. The inverse of [`PinPlanes::gather`].
    fn codes(self) -> [u64; 8] {
        std::array::from_fn(|g| {
            self.words().iter().enumerate().fold(0, |codes, (k, word)| {
                // Byte `j` of the product is plane `k`'s lane byte; the
                // mask keeps its bit `j`, and adding 0x7f moves any set
                // bit to bit 7 without a carry.
                let lanes = u64::from((word >> (8 * g)) as u8);
                let bits =
                    ((lanes * BYTE_LOW_BITS) & SPREAD_BITS).wrapping_add(0x7f * BYTE_LOW_BITS);
                codes | (bits >> 7 & BYTE_LOW_BITS) << k
            })
        })
    }

    /// The planes of position `pin` over `rows`, lane `l` reading
    /// `rows[l]`, eight lanes per step: their state codes are packed
    /// into the bytes of one word, and one multiply per plane gathers
    /// bit `k` of the eight bytes into eight lane bits of plane `k`.
    fn gather(rows: &[&[PinState]], pin: usize) -> Self {
        let mut words = [0u64; 5];
        for (g, group) in rows.chunks_exact(8).enumerate() {
            let codes = group.iter().enumerate().fold(0, |codes, (j, row)| {
                codes | u64::from(row[pin] as u8) << (8 * j)
            });
            for (k, word) in words.iter_mut().enumerate() {
                let lanes = ((codes >> k) & BYTE_LOW_BITS).wrapping_mul(GATHER_BYTES) >> 56;
                *word |= lanes << (8 * g);
            }
        }
        PinPlanes::from_words(words)
    }

    /// Why these planes are no [`PinState`] combination on `live`, if
    /// they are not.
    fn fault(self, live: u64) -> Option<&'static str> {
        let PinPlanes {
            drive,
            expect,
            pulse,
            value,
            z,
        } = self;
        if (drive | expect | pulse | value | z) & !live != 0 {
            Some("bit past the live lanes")
        } else if (drive & expect) | (drive & pulse) | (expect & pulse) != 0 {
            Some("lane in two of drive, expect and pulse")
        } else if value & !(drive | expect) != 0 {
            Some("value bit without a drive or expect")
        } else if z & !(drive & value) != 0 {
            Some("Z bit without a driven 1")
        } else {
            None
        }
    }
}

/// The mask of lanes `0..lanes`, for `lanes` in `1..=64`.
fn live_mask(lanes: usize) -> u64 {
    u64::MAX >> (LANES - lanes)
}

/// One playback unit: `lanes` patterns (1 to 64) of `cycles` cycles
/// over `pins` pins, as one [`PinPlanes`] per (cycle, pin) position in
/// cycle-major order. The pin names live with the caller. Every
/// constructor checks what the module docs list, so every block plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    lanes: usize,
    cycles: usize,
    pins: usize,
    planes: Vec<PinPlanes>,
}

impl PatternBlock {
    /// A block from its planes, `planes[cycle * pins + pin]`.
    ///
    /// # Errors
    ///
    /// [`PatternError::Shape`] for a lane count outside `1..=64` or a
    /// plane count other than `cycles * pins`; then, scanning positions
    /// in (cycle, pin) order, [`PatternError::Planes`] for a combination
    /// no [`PinState`] sets, and [`PatternError::Shape`] (`"batch pulse
    /// alignment"`) for a pulse on some live lanes but not all.
    pub fn from_planes(
        lanes: usize,
        cycles: usize,
        pins: usize,
        planes: Vec<PinPlanes>,
    ) -> Result<Self, PatternError> {
        if !(1..=PASS).contains(&lanes) {
            return Err(PatternError::Shape {
                context: "block lanes",
                expected: PASS,
                got: lanes,
            });
        }
        if cycles.checked_mul(pins) != Some(planes.len()) {
            return Err(PatternError::Shape {
                context: "block planes",
                expected: cycles.saturating_mul(pins),
                got: planes.len(),
            });
        }
        let live = live_mask(lanes);
        for (at, p) in planes.iter().enumerate() {
            if let Some(context) = p.fault(live) {
                return Err(PatternError::Planes {
                    context,
                    cycle: at / pins,
                    pin: at % pins,
                });
            }
            // Clock pulses are timeline events common to all lanes.
            if p.pulse != 0 && p.pulse != live {
                return Err(PatternError::Shape {
                    context: "batch pulse alignment",
                    expected: lanes,
                    got: p.pulse.count_ones() as usize,
                });
            }
        }
        Ok(PatternBlock {
            lanes,
            cycles,
            pins,
            planes,
        })
    }

    /// The block of `patterns`, pattern `l` on lane `l`, converted
    /// column-wise: each position's planes gather from every pattern's
    /// row at once ([`PinPlanes`]), with no branch on a state.
    ///
    /// # Errors
    ///
    /// [`PatternError::Shape`] for 0 or more than 64 patterns, a pattern
    /// whose pin count (`"batch pin list"`), cycle count (`"batch cycle
    /// count"`) or row width (`"cycle row"`) differs from the first's,
    /// and a misaligned pulse, as [`PatternBlock::from_planes`].
    pub fn from_patterns<P: Borrow<CyclePattern>>(patterns: &[P]) -> Result<Self, PatternError> {
        let lanes = patterns.len();
        let Some(first) = patterns.first().filter(|_| lanes <= PASS) else {
            return Err(PatternError::Shape {
                context: "block lanes",
                expected: PASS,
                got: lanes,
            });
        };
        let (pins, cycles) = (first.borrow().pins.len(), first.borrow().cycles.len());
        for p in patterns {
            check_shape(p.borrow(), pins, cycles)?;
        }
        let planes = transpose(patterns, pins, cycles);
        PatternBlock::from_planes(lanes, cycles, pins, planes)
    }

    /// The block's patterns, lane by lane, each holding a clone of the
    /// `pins` table.
    ///
    /// # Errors
    ///
    /// [`PatternError::Shape`] (`"batch pin list"`) when `pins` is not
    /// as wide as the block.
    pub fn to_patterns(&self, pins: &Arc<[String]>) -> Result<Vec<CyclePattern>, PatternError> {
        if pins.len() != self.pins {
            return Err(PatternError::Shape {
                context: "batch pin list",
                expected: self.pins,
                got: pins.len(),
            });
        }
        let codes: Vec<[u64; 8]> = self.planes.iter().map(|p| p.codes()).collect();
        Ok((0..self.lanes)
            .map(|lane| {
                let (group, shift) = (lane / 8, 8 * (lane % 8));
                let state = |codes: &[u64; 8]| STATE_OF_CODE[(codes[group] >> shift & 31) as usize];
                CyclePattern {
                    pins: Arc::clone(pins),
                    cycles: (0..self.cycles)
                        .map(|c| {
                            codes[c * self.pins..][..self.pins]
                                .iter()
                                .map(state)
                                .collect()
                        })
                        .collect(),
                }
            })
            .collect())
    }

    /// Patterns in the block, one per lane.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles of every pattern in the block.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The planes of cycle `c`, one per pin.
    fn row(&self, c: usize) -> &[PinPlanes] {
        &self.planes[c * self.pins..][..self.pins]
    }

    /// The block's wire bytes, the unit of a playback job and the result
    /// of a JPEG generation block: the lane and cycle counts (the pin
    /// count lives in the job), then per position in (cycle, pin) order
    /// a presence byte, bit `k` set when plane `k` (drive, expect,
    /// pulse, value, Z) is non-zero, followed by those planes' words.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = wire::WireWriter::new();
        w.reserve(16 + 9 * self.planes.len());
        w.put_usize(self.lanes);
        w.put_usize(self.cycles);
        for p in &self.planes {
            let words = p.words();
            let presence = words
                .iter()
                .enumerate()
                .fold(0, |bits, (k, &word)| bits | u8::from(word != 0) << k);
            w.put_u8(presence);
            words
                .iter()
                .filter(|&&word| word != 0)
                .for_each(|&word| w.put_u64(word));
        }
        w.finish()
    }

    /// Decodes [`PatternBlock::encode`]'s bytes for a `pins`-pin job,
    /// with [`PatternBlock::from_planes`]'s checks; a present plane
    /// must be non-zero, so every block has one encoding. It reserves
    /// no more positions than the bytes left can hold, one byte each.
    ///
    /// # Errors
    ///
    /// [`PatternError::Wire`] on truncated, corrupt or trailing bytes,
    /// and every error of [`PatternBlock::from_planes`].
    pub fn decode(bytes: &[u8], pins: usize) -> Result<Self, PatternError> {
        let mut r = wire::WireReader::new(bytes);
        let lanes = r.get_usize("block lanes")?;
        let cycles = r.get_count("block cycles", pins)?;
        let mut planes = Vec::with_capacity(cycles * pins);
        for _ in 0..cycles * pins {
            let presence = r.get_u8("block presence byte")?;
            if presence >> 5 != 0 {
                return Err(corrupt("block presence byte"));
            }
            let mut words = [0u64; 5];
            for (k, word) in words.iter_mut().enumerate() {
                if presence >> k & 1 == 1 {
                    *word = r.get_u64("block plane")?;
                    if *word == 0 {
                        return Err(corrupt("block plane"));
                    }
                }
            }
            planes.push(PinPlanes::from_words(words));
        }
        r.finish()?;
        PatternBlock::from_planes(lanes, cycles, pins, planes)
    }
}

/// The planes of `patterns`, which all have `cycles` rows of `pins`
/// states, pattern `l` on lane `l`.
fn transpose<P: Borrow<CyclePattern>>(
    patterns: &[P],
    pins: usize,
    cycles: usize,
) -> Vec<PinPlanes> {
    // Lanes past the last pattern read a blank row, which sets no bit.
    let blank = vec![PinState::DontCare; pins];
    let mut rows = [blank.as_slice(); PASS];
    let groups = patterns.len().div_ceil(8) * 8;
    let mut planes = Vec::with_capacity(cycles * pins);
    for c in 0..cycles {
        for (row, p) in rows.iter_mut().zip(patterns) {
            *row = &p.borrow().cycles[c];
        }
        let rows = &rows[..groups];
        planes.extend((0..pins).map(|pin| PinPlanes::gather(rows, pin)));
    }
    planes
}

fn corrupt(context: &'static str) -> PatternError {
    PatternError::Wire(wire::WireError::Corrupt { context })
}

/// Checks that `p` has `pins` pins and `cycles` rows of `pins` states.
fn check_shape(p: &CyclePattern, pins: usize, cycles: usize) -> Result<(), PatternError> {
    let shape = |context, expected, got| {
        if expected == got {
            Ok(())
        } else {
            Err(PatternError::Shape {
                context,
                expected,
                got,
            })
        }
    };
    shape("batch pin list", pins, p.pins.len())?;
    shape("batch cycle count", cycles, p.cycles.len())?;
    p.cycles
        .iter()
        .try_for_each(|row| shape("cycle row", pins, row.len()))
}

/// Per-lane counts kept bit-sliced: word `k` holds bit `k` of every
/// lane's count, so counting one for a set of lanes is a ripple-carry
/// add of one word, however many lanes it holds.
struct LaneCounts([u64; 64]);

impl LaneCounts {
    fn add(&mut self, lanes: u64) {
        let mut carry = lanes;
        for bit in &mut self.0 {
            if carry == 0 {
                break;
            }
            (*bit, carry) = (*bit ^ carry, *bit & carry);
        }
    }

    fn get(&self, lane: usize) -> u64 {
        self.0
            .iter()
            .enumerate()
            .fold(0, |count, (k, bits)| count | (bits >> lane & 1) << k)
    }
}

/// The player: plays `block`, one pattern per simulation lane, from the
/// state `sim` is currently in, and returns one report per pattern in
/// lane order. The in-thread unit and the worker both play through it.
/// Each cycle drives every pin with one select over its drive plane,
/// pulses the pins whose pulse plane is set, and compares every pin
/// with one mismatch mask, `expect & (unknowns | (ones ^ value))`.
fn play(
    sim: &mut Simulator<PLAYBACK_LANE_GROUPS>,
    nets: &[NetId],
    pins: &[String],
    block: &PatternBlock,
) -> Result<Vec<MismatchReport>, PatternError> {
    // Lanes beyond the block follow lane 0, so spare lanes never
    // oscillate differently from real ones.
    let spare = !live_mask(block.lanes);
    let mut reports = vec![MismatchReport::default(); block.lanes];
    let mut compares = LaneCounts([0; 64]);
    let mut pulses = Vec::new();
    for ci in 0..block.cycles {
        let row = block.row(ci);
        pulses.clear();
        for (&net, p) in nets.iter().zip(row) {
            // The block's checks proved a pulse covers every live lane.
            if p.pulse != 0 {
                sim.set(net, Logic::Zero);
                pulses.push(net);
            } else if p.drive != 0 {
                let follow = (p.drive & 1).wrapping_neg() & spare;
                let spread = |word: u64| word | ((word & 1).wrapping_neg() & follow);
                let driven = PackedLogic {
                    ones: [spread(p.value)],
                    unknowns: [spread(p.z)],
                };
                let merged = driven.select(sim.get_packed(net), [p.drive | follow]);
                sim.set_packed(net, merged);
            }
        }
        sim.settle()?;
        if !pulses.is_empty() {
            sim.clock_cycle_multi(&pulses)?;
        }
        for ((&net, pin), p) in nets.iter().zip(pins).zip(row) {
            if p.expect == 0 {
                continue;
            }
            compares.add(p.expect);
            let observed = sim.get_packed(net);
            // An unknown never equals the expected 0 or 1.
            let mut failed = p.expect & (observed.unknowns[0] | (observed.ones[0] ^ p.value));
            while failed != 0 {
                let lane = failed.trailing_zeros() as usize;
                failed &= failed - 1;
                let expected = if p.value >> lane & 1 == 1 { 'H' } else { 'L' };
                reports[lane].mismatches.push((
                    ci,
                    pin.clone(),
                    expected,
                    observed.lane(lane).to_char(),
                ));
            }
        }
    }
    for (lane, report) in reports.iter_mut().enumerate() {
        report.compares = compares.get(lane);
    }
    Ok(reports)
}

/// The lane-group width of cycle playback: one group, so every pass
/// plays one 64-pattern block, on every backend and in every call.
/// Playback is settle-bound, not compare-bound: wide words only pay off
/// when most lanes carry work per instruction, which fault grading
/// guarantees and playback does not. These numbers come from the
/// per-lane player that preceded the word-wise one: BENCH_10 records
/// 118.7k JPEG patterns/s at 64 lanes against 108.1k at
/// [`steac_sim::DEFAULT_LANE_GROUPS`] (256 lanes), and a serial probe
/// of 16,384 JPEG patterns on a 2-core box (5 alternating repetitions)
/// read 112–131k, 108–127k, 95–112k and 104–108k patterns/s at 64,
/// 128, 256 and 512 lanes. Grading keeps
/// [`steac_sim::DEFAULT_LANE_GROUPS`].
pub const PLAYBACK_LANE_GROUPS: usize = 1;

/// Patterns per playback pass and block: one per simulation lane.
const PASS: usize = LANES * PLAYBACK_LANE_GROUPS;

/// Plays cycle patterns one per simulation lane — 64 patterns per pass
/// ([`PLAYBACK_LANE_GROUPS`]) — and returns a [`BatchPlayback`] with one
/// [`MismatchReport`] per pattern — the batched ATE playback path (a
/// tester floor applying the same timing program to many dies at
/// once). This is [`stream_cycle_patterns`] over the borrowed batch,
/// collecting the reports; blocks dispatch on `exec` — inline, across
/// cores or across `steac-worker` processes — and the reports are
/// byte-identical on every backend.
///
/// All patterns of a batch must share the *shape* that fixes the timing
/// program: the same pin list, the same cycle count, and `P` (pulse) on
/// the same pins in the same cycles within each 64-pattern block —
/// clock pulses are timeline events common to all lanes. Drive values
/// and compare positions may differ freely per pattern. Patterns are
/// validated in pattern order, so of several defects the
/// lowest-indexed pattern's wins.
///
/// Every block plays on a worker-local clone of `sim`, reset to the
/// all-`X` state first, so every pattern observes power-on semantics
/// (reset your patterns' preambles accordingly); forces applied to `sim`
/// (fault injection) carry into every clone — including across the wire
/// into worker processes. `sim` itself is not mutated.
///
/// # Errors
///
/// Returns [`PatternError::Shape`] when pin lists, cycle counts or pulse
/// positions disagree, [`PatternError::UnknownPin`] for pins missing on
/// the module, and propagates simulator errors (lowest-indexed failing
/// block, deterministically). Shipped-batch failures surface as
/// [`steac_sim::SimError::Worker`] wrapped in [`PatternError::Sim`]
/// under [`steac_sim::Fallback::Fail`], and are otherwise recomputed
/// in-thread (counted on the `Exec`).
pub fn apply_cycle_patterns_batch(
    exec: &Exec,
    sim: &Simulator,
    patterns: &[&CyclePattern],
) -> Result<BatchPlayback, PatternError> {
    let mut reports = Vec::with_capacity(patterns.len());
    let run = stream_cycle_patterns(exec, sim, patterns.iter().copied(), |r| reports.push(r))?;
    Ok(BatchPlayback {
        reports,
        process_fallbacks: run.process_fallbacks,
    })
}

/// Bookkeeping of a streaming playback run — the reports themselves
/// were handed to the sink, one per pattern, in pattern order, as
/// blocks finished. The verdict-bearing stream is backend-invariant
/// and byte-identical to [`apply_cycle_patterns_batch`] on the same
/// patterns; only `process_fallbacks` reflects how the run went.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamPlayback {
    /// Patterns played (= reports delivered to the sink).
    pub patterns: usize,
    /// Shipped batches this run recomputed in-thread under
    /// [`steac_sim::Fallback::InThread`], as in
    /// [`BatchPlayback::process_fallbacks`].
    pub process_fallbacks: usize,
}

/// Plays cycle patterns **as they are produced**, without ever
/// materializing the set. Patterns — owned or borrowed — are pulled
/// from `patterns` (typically the receiving end of a bounded channel
/// fed by a generating dispatch), validated incrementally, converted
/// into 64-pattern [`PatternBlock`]s, and played through
/// [`stream_pattern_blocks`]; `sink` receives one [`MismatchReport`]
/// per pattern, **strictly in pattern order**, byte-identical on every
/// backend. Peak memory follows the pipeline depth (a bounded window of
/// blocks in flight), never the stream length.
///
/// The first pattern fixes the shape — pin list, cycle count — and
/// every later pattern is checked against it as it is pulled, raising
/// the typed [`PatternError::Shape`] values
/// [`apply_cycle_patterns_batch`] documents.
///
/// # Errors
///
/// Everything [`apply_cycle_patterns_batch`] raises, with streaming
/// delivery semantics: the sink has already received an in-order
/// prefix of the reports when an error surfaces (a mid-stream shape
/// violation truncates the stream at the offending pattern).
pub fn stream_cycle_patterns<P, I, S>(
    exec: &Exec,
    sim: &Simulator,
    mut patterns: I,
    sink: S,
) -> Result<StreamPlayback, PatternError>
where
    P: Borrow<CyclePattern> + Send + Sync,
    I: Iterator<Item = P> + Send,
    S: FnMut(MismatchReport),
{
    // The first pattern fixes the shape every later one must share —
    // and names the pins, which the job block binds to nets once.
    let Some(first) = patterns.next() else {
        return Ok(StreamPlayback::default());
    };
    let pins = Arc::clone(&first.borrow().pins);
    let cycles = first.borrow().cycles.len();
    // The head's rows are checked like every later pattern's.
    check_shape(first.borrow(), pins.len(), cycles)?;
    let chunks = Chunker {
        patterns,
        pins: &pins,
        cycles,
        pending: Some(first),
        failed: None,
    };
    dispatch_blocks(exec, sim, &pins, chunks, sink)
}

/// Plays [`PatternBlock`]s over the pin table `pins` **as they are
/// produced** — the one block-streaming dispatch, which
/// [`stream_cycle_patterns`] feeds with converted patterns and a
/// generator can feed directly. Blocks are pulled from `blocks`,
/// dispatched through [`Exec::dispatch`], and `sink` receives one
/// [`MismatchReport`] per lane, strictly in block and lane order,
/// byte-identical on every backend, with the memory bound and
/// power-on semantics of [`stream_cycle_patterns`].
///
/// # Errors
///
/// [`PatternError::UnknownPin`] for pins missing on the module,
/// [`PatternError::Shape`] for a block as wide as `pins` is not
/// (`"batch pin list"`) or of another cycle count than the first
/// (`"batch cycle count"`), truncating the stream there, and the
/// dispatch errors [`apply_cycle_patterns_batch`] documents.
pub fn stream_pattern_blocks<I, S>(
    exec: &Exec,
    sim: &Simulator,
    pins: &[String],
    blocks: I,
    sink: S,
) -> Result<StreamPlayback, PatternError>
where
    I: Iterator<Item = PatternBlock> + Send,
    S: FnMut(MismatchReport),
{
    let width = pins.len();
    let mut cycles = None;
    let checked = blocks.map(move |block| {
        let want = *cycles.get_or_insert(block.cycles);
        if block.pins != width {
            Err(PatternError::Shape {
                context: "batch pin list",
                expected: width,
                got: block.pins,
            })
        } else if block.cycles != want {
            Err(PatternError::Shape {
                context: "batch cycle count",
                expected: want,
                got: block.cycles,
            })
        } else {
            Ok(block)
        }
    });
    dispatch_blocks(exec, sim, pins, checked, sink)
}

/// The block dispatch behind both streaming entry points. A failed
/// block cannot surface through the unit iterator (units are
/// infallible values), so the first failure is recorded here and ends
/// the stream; it is returned once the dispatch drains, unless a
/// dispatch error — always at a lower index — comes first.
fn dispatch_blocks<I, S>(
    exec: &Exec,
    sim: &Simulator,
    pins: &[String],
    blocks: I,
    mut sink: S,
) -> Result<StreamPlayback, PatternError>
where
    I: Iterator<Item = Result<PatternBlock, PatternError>> + Send,
    S: FnMut(MismatchReport),
{
    let nets = resolve_pins(sim, pins)?;
    let work = PlaybackWork::new(sim, pins, &nets);
    let failed = Mutex::new(None);
    let units = blocks.map_while(|block| {
        block
            .map_err(|e| *failed.lock().expect("no panics hold the lock") = Some(e))
            .ok()
    });
    let mut delivered = 0usize;
    let dispatched = exec.dispatch(&work, units, |reports: Vec<MismatchReport>| {
        for report in reports {
            sink(report);
            delivered += 1;
        }
    })?;
    if let Some(e) = failed.into_inner().expect("no panics hold the lock") {
        return Err(e);
    }
    Ok(StreamPlayback {
        patterns: delivered,
        process_fallbacks: dispatched.fallbacks,
    })
}

/// The chunker: converts pulled patterns into [`PASS`]-pattern
/// [`PatternBlock`]s, checking each pattern against the shape the first
/// pattern fixed and each block's pulse alignment — *before* any
/// simulation, so a shape-invalid pattern raises the same typed
/// [`PatternError::Shape`] whether its block would have played
/// in-thread or shipped to a worker. A pattern that fails its check
/// ends the block before it, and its error follows that block.
struct Chunker<'a, I, P> {
    patterns: I,
    pins: &'a Arc<[String]>,
    cycles: usize,
    pending: Option<P>,
    failed: Option<PatternError>,
}

impl<I: Iterator<Item = P>, P: Borrow<CyclePattern>> Iterator for Chunker<'_, I, P> {
    type Item = Result<PatternBlock, PatternError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut batch: Vec<P> = Vec::with_capacity(PASS);
        batch.extend(self.pending.take());
        while self.failed.is_none() && batch.len() < PASS {
            let Some(p) = self.patterns.next() else {
                break;
            };
            // The patterns of one set share one table, so this compares
            // no names for them.
            let pins = &p.borrow().pins;
            let checked = if Arc::ptr_eq(pins, self.pins) || pins == self.pins {
                check_shape(p.borrow(), self.pins.len(), self.cycles)
            } else {
                Err(PatternError::Shape {
                    context: "batch pin list",
                    expected: self.pins.len(),
                    got: p.borrow().pins.len(),
                })
            };
            match checked {
                Ok(()) => batch.push(p),
                Err(e) => self.failed = Some(e),
            }
        }
        if batch.is_empty() {
            return self.failed.take().map(Err);
        }
        Some(PatternBlock::from_patterns(&batch))
    }
}

/// The [`ExecWork`] description of playback: one unit per
/// [`PatternBlock`], a job block carrying the compiled program + pin
/// bindings + force state, and per-block [`MismatchReport`] lists as
/// unit results.
struct PlaybackWork<'a> {
    sim: &'a Simulator,
    forces: Vec<(NetId, u64, PackedLogic<1>)>,
    pins: &'a [String],
    nets: &'a [NetId],
}

impl<'a> PlaybackWork<'a> {
    fn new(sim: &'a Simulator, pins: &'a [String], nets: &'a [NetId]) -> Self {
        // The dispatcher simulator's 64-lane force state, in the form
        // the job block ships and every player imports.
        let forces = sim
            .export_forces()
            .into_iter()
            .map(|(net, mask, values)| (net, mask[0], values))
            .collect();
        PlaybackWork {
            sim,
            forces,
            pins,
            nets,
        }
    }
}

impl ExecWork for PlaybackWork<'_> {
    type Unit = PatternBlock;
    type Output = Vec<MismatchReport>;
    type Error = PatternError;

    fn kind(&self) -> u16 {
        WIRE_KIND
    }

    fn encode_job(&self) -> Vec<u8> {
        encode_playback_job(self.sim.program(), self.pins, self.nets, &self.forces)
    }

    fn encode_unit(&self, unit: &PatternBlock) -> Vec<u8> {
        unit.encode()
    }

    fn run_unit_local(&self, unit: &PatternBlock) -> Result<Vec<MismatchReport>, PatternError> {
        let mut wsim = Simulator::from_program(self.sim.program_arc().clone());
        wsim.import_forces_replicated(&self.forces);
        play(&mut wsim, self.nets, self.pins, unit)
    }

    fn decode_result(
        &self,
        unit: &PatternBlock,
        bytes: &[u8],
    ) -> Result<Vec<MismatchReport>, String> {
        let reports = decode_reports(bytes).map_err(|e| format!("result: {e}"))?;
        // One report per pattern, positionally: a miscounted result
        // would misattribute every later report, so it is rejected like
        // any other malformed worker result.
        if reports.len() != unit.lanes {
            return Err(format!(
                "result has {} reports for {} patterns",
                reports.len(),
                unit.lanes
            ));
        }
        Ok(reports)
    }
}

// ---------- wire codecs + worker-side job ----------

/// Work-unit kind the worker-side job registry routes to
/// [`open_wire_job`]: one [`PatternBlock`] of up to 64 patterns.
pub const WIRE_KIND: u16 = 2;

/// Job block: compiled program, pin bindings (name + net) and the
/// dispatcher simulator's 64-lane force state (fault injection carries
/// into every worker, matching the in-thread semantics).
fn encode_playback_job(
    program: &SimProgram,
    pins: &[String],
    nets: &[NetId],
    forces: &[(NetId, u64, PackedLogic<1>)],
) -> Vec<u8> {
    let mut w = wire::WireWriter::new();
    w.put_block(&wire::encode_program(program));
    w.put_usize(pins.len());
    for (pin, net) in pins.iter().zip(nets) {
        w.put_str(pin);
        w.put_u32(net.0);
    }
    w.put_usize(forces.len());
    for (net, mask, values) in forces {
        w.put_u32(net.0);
        w.put_u64(*mask);
        w.put_u64(values.ones[0]);
        w.put_u64(values.unknowns[0]);
    }
    w.finish()
}

fn encode_reports(reports: &[MismatchReport]) -> Vec<u8> {
    let mut w = wire::WireWriter::new();
    w.put_usize(reports.len());
    for r in reports {
        w.put_u64(r.compares);
        w.put_usize(r.mismatches.len());
        for (cycle, pin, expected, observed) in &r.mismatches {
            w.put_usize(*cycle);
            w.put_str(pin);
            w.put_u8(*expected as u8);
            w.put_u8(*observed as u8);
        }
    }
    w.finish()
}

fn decode_reports(bytes: &[u8]) -> Result<Vec<MismatchReport>, wire::WireError> {
    let mut r = wire::WireReader::new(bytes);
    let count = r.get_count("report count", 16)?;
    let mut reports = Vec::with_capacity(count);
    for _ in 0..count {
        let compares = r.get_u64("report compares")?;
        let mism_count = r.get_count("mismatch count", 18)?;
        let mut mismatches = Vec::with_capacity(mism_count);
        for _ in 0..mism_count {
            let cycle = r.get_usize("mismatch cycle")?;
            let pin = r.get_str("mismatch pin")?;
            let expected = char::from(r.get_u8("mismatch expected")?);
            let observed = char::from(r.get_u8("mismatch observed")?);
            mismatches.push((cycle, pin, expected, observed));
        }
        reports.push(MismatchReport {
            mismatches,
            compares,
        });
    }
    r.finish()?;
    Ok(reports)
}

/// An opened playback job inside a worker process. Each unit decodes
/// into a [`PatternBlock`] — never a [`CyclePattern`] — and plays
/// through the same [`play`] as the in-thread path.
struct PlaybackJob {
    sim: Simulator<PLAYBACK_LANE_GROUPS>,
    pins: Vec<String>,
    nets: Vec<NetId>,
}

impl shard::WireJob for PlaybackJob {
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
        let block = PatternBlock::decode(unit, self.pins.len()).map_err(|e| e.to_string())?;
        let mut wsim = self.sim.clone();
        wsim.reset_to_x();
        let reports = play(&mut wsim, &self.nets, &self.pins, &block).map_err(|e| e.to_string())?;
        Ok(encode_reports(&reports))
    }
}

/// Decodes a [`WIRE_KIND`] job block into the executable playback job —
/// the `steac-worker` side of the cycle player's shipped backends.
///
/// # Errors
///
/// A diagnostic on corrupt job bytes.
pub fn open_wire_job(job: &[u8]) -> Result<Box<dyn shard::WireJob>, String> {
    let fail = |e: wire::WireError| format!("playback job: {e}");
    let mut r = wire::WireReader::new(job);
    let program = wire::decode_program(r.get_block("playback job program").map_err(fail)?)
        .map_err(|e| format!("playback job program: {e}"))?;
    let pin_count = r.get_count("playback job pins", 12).map_err(fail)?;
    let mut pins = Vec::with_capacity(pin_count);
    let mut nets = Vec::with_capacity(pin_count);
    for _ in 0..pin_count {
        pins.push(r.get_str("playback job pin name").map_err(fail)?);
        let net = r.get_u32("playback job pin net").map_err(fail)?;
        if net as usize >= program.net_count {
            return Err(format!("playback job pin net {net} out of range"));
        }
        nets.push(NetId(net));
    }
    let force_count = r.get_count("playback job forces", 28).map_err(fail)?;
    let mut forces = Vec::with_capacity(force_count);
    for _ in 0..force_count {
        let net = r.get_u32("playback job force net").map_err(fail)?;
        if net as usize >= program.net_count {
            return Err(format!("playback job force net {net} out of range"));
        }
        let mask = r.get_u64("playback job force mask").map_err(fail)?;
        let ones = r.get_u64("playback job force ones").map_err(fail)?;
        let unknowns = r.get_u64("playback job force unknowns").map_err(fail)?;
        forces.push((
            NetId(net),
            mask,
            PackedLogic {
                ones: [ones],
                unknowns: [unknowns],
            },
        ));
    }
    r.finish().map_err(fail)?;
    let mut sim = Simulator::from_program(Arc::new(program));
    sim.import_forces_replicated(&forces);
    Ok(Box::new(PlaybackJob { sim, pins, nets }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::{GateKind, NetlistBuilder};

    fn exec() -> Exec {
        Exec::from_env()
    }

    const ALL_STATES: [PinState; 7] = [
        PinState::Drive0,
        PinState::Drive1,
        PinState::DriveZ,
        PinState::DontCare,
        PinState::Pulse,
        PinState::ExpectL,
        PinState::ExpectH,
    ];

    #[test]
    fn char_round_trip() {
        for s in ALL_STATES {
            assert_eq!(PinState::from_char(s.to_char()), Some(s));
        }
        assert_eq!(PinState::from_char('q'), None);
    }

    #[test]
    fn push_cycle_validates_width() {
        let mut p = CyclePattern::new(vec!["a".to_string(), "b".to_string()]);
        assert!(p.push_cycle(vec![PinState::Drive0]).is_err());
        assert!(p
            .push_cycle(vec![PinState::Drive0, PinState::ExpectH])
            .is_ok());
        assert_eq!(p.cycle_count(), 1);
    }

    #[test]
    fn player_runs_a_flop_pattern() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Dff, &[d, ck]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();

        let mut p = CyclePattern::new(vec!["d".to_string(), "ck".to_string(), "q".to_string()]);
        use PinState::*;
        p.push_cycle(vec![Drive1, Pulse, ExpectH]).unwrap();
        p.push_cycle(vec![Drive0, Pulse, ExpectL]).unwrap();
        p.push_cycle(vec![Drive1, DontCare, ExpectL]).unwrap(); // no clock: q holds
        let rep = apply_cycle_pattern(&mut sim, &p).unwrap();
        assert!(rep.passed(), "{rep}");
        assert_eq!(rep.compares, 3);
    }

    #[test]
    fn player_reports_mismatches_with_location() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let y = b.gate(GateKind::Inv, &[a]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        let mut p = CyclePattern::new(vec!["a".to_string(), "y".to_string()]);
        use PinState::*;
        p.push_cycle(vec![Drive1, ExpectH]).unwrap(); // wrong: INV(1)=0
        let rep = apply_cycle_pattern(&mut sim, &p).unwrap();
        assert!(!rep.passed());
        assert_eq!(rep.mismatches[0].0, 0);
        assert_eq!(rep.mismatches[0].1, "y");
    }

    #[test]
    fn unknown_pin_is_an_error() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        b.output("y", a);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        let p = CyclePattern::new(vec!["ghost".to_string()]);
        assert!(matches!(
            apply_cycle_pattern(&mut sim, &p),
            Err(PatternError::UnknownPin { .. })
        ));
    }

    /// A DFF module and a pattern over (d, ck, q) with per-pattern data.
    fn flop_module() -> steac_netlist::Module {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Dff, &[d, ck]);
        b.output("q", q);
        b.finish().unwrap()
    }

    fn flop_pattern(bits: &[Logic]) -> CyclePattern {
        let mut p = CyclePattern::new(vec!["d".to_string(), "ck".to_string(), "q".to_string()]);
        for &bit in bits {
            p.push_cycle(vec![
                PinState::from_drive(bit),
                PinState::Pulse,
                PinState::from_expect(bit),
            ])
            .unwrap();
        }
        p
    }

    #[test]
    fn batch_player_matches_scalar_per_pattern() {
        use Logic::{One, Zero};
        let m = flop_module();
        let data: Vec<Vec<Logic>> = (0..6u32)
            .map(|i| {
                (0..5)
                    .map(|k| if (i >> (k % 3)) & 1 == 1 { One } else { Zero })
                    .collect()
            })
            .collect();
        let patterns: Vec<CyclePattern> = data.iter().map(|d| flop_pattern(d)).collect();
        let refs: Vec<&CyclePattern> = patterns.iter().collect();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let batch = apply_cycle_patterns_batch(&exec(), &sim, &refs)
            .unwrap()
            .reports;
        assert_eq!(batch.len(), patterns.len());
        for (i, p) in patterns.iter().enumerate() {
            let mut scalar_sim = Simulator::new(&m).unwrap();
            let scalar = apply_cycle_pattern(&mut scalar_sim, p).unwrap();
            assert_eq!(batch[i].compares, scalar.compares, "pattern {i}");
            assert_eq!(batch[i].mismatches, scalar.mismatches, "pattern {i}");
            assert!(batch[i].passed(), "pattern {i}: {}", batch[i]);
        }
    }

    #[test]
    fn batch_player_reports_per_lane_mismatches() {
        use Logic::{One, Zero};
        let m = flop_module();
        let good = flop_pattern(&[One, Zero]);
        // Corrupt the second pattern's expectation only.
        let mut bad = flop_pattern(&[One, Zero]);
        bad.cycles[1][2] = PinState::ExpectH;
        let sim: Simulator = Simulator::new(&m).unwrap();
        let reports = apply_cycle_patterns_batch(&exec(), &sim, &[&good, &bad])
            .unwrap()
            .reports;
        assert!(reports[0].passed(), "{}", reports[0]);
        assert!(!reports[1].passed());
        assert_eq!(reports[1].mismatches[0].1, "q");
    }

    #[test]
    fn batch_player_validates_shape() {
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        use Logic::{One, Zero};
        let a = flop_pattern(&[One]);
        let b = flop_pattern(&[One, Zero]);
        assert!(matches!(
            apply_cycle_patterns_batch(&exec(), &sim, &[&a, &b]),
            Err(PatternError::Shape {
                context: "batch cycle count",
                ..
            })
        ));
        // Misaligned pulse: pattern c clocks in cycle 0, a does not.
        let mut c = flop_pattern(&[One]);
        c.cycles[0][1] = PinState::Drive0;
        assert!(matches!(
            apply_cycle_patterns_batch(&exec(), &sim, &[&a, &c]),
            Err(PatternError::Shape {
                context: "batch pulse alignment",
                ..
            })
        ));
    }

    #[test]
    fn batch_player_empty_is_ok() {
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let empty = apply_cycle_patterns_batch(&exec(), &sim, &[]).unwrap();
        assert!(empty.reports.is_empty());
        assert!(empty.passed());
    }

    /// Sharded playback returns the same reports, in the same order, at
    /// every thread count (the merge-by-block-index contract), including
    /// batches spanning several blocks.
    #[test]
    fn batch_player_is_thread_count_invariant() {
        let m = flop_module();
        let patterns = flop_set(&[77]);
        let refs: Vec<&CyclePattern> = patterns.iter().collect();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
        assert!(!baseline.passed());
        for t in 1..=8 {
            let threaded = Exec::threads(steac_sim::Threads::exact(t));
            let sharded = apply_cycle_patterns_batch(&threaded, &sim, &refs).unwrap();
            assert_eq!(sharded, baseline, "{t} threads");
        }
    }

    /// 150 four-cycle flop patterns; the patterns in `failing` expect
    /// `H` in cycle 2 after driving a 0, so they fail there.
    fn flop_set(failing: &[usize]) -> Vec<CyclePattern> {
        use Logic::{One, Zero};
        (0..150usize)
            .map(|i| {
                let bits: Vec<Logic> = (0..4)
                    .map(|k| if (i >> (k % 5)) & 1 == 1 { One } else { Zero })
                    .collect();
                let mut p = flop_pattern(&bits);
                if failing.contains(&i) {
                    p.cycles[2][2] = PinState::ExpectH;
                    p.cycles[2][0] = PinState::Drive0;
                }
                p
            })
            .collect()
    }

    /// The six states that need no alignment across lanes.
    const UNPULSED: [PinState; 6] = [
        PinState::Drive0,
        PinState::Drive1,
        PinState::DriveZ,
        PinState::DontCare,
        PinState::ExpectL,
        PinState::ExpectH,
    ];

    /// Every state in every lane of a partial block: lane `l`, pin `p`,
    /// cycle `c` holds `UNPULSED[(l + 3p + 5c) % 6]`, except that pin 3
    /// pulses in every lane of cycle 1.
    fn every_state(lanes: usize) -> Vec<CyclePattern> {
        let pins: Arc<[String]> = (0..4).map(|p| format!("p{p}")).collect::<Vec<_>>().into();
        (0..lanes)
            .map(|l| CyclePattern {
                pins: Arc::clone(&pins),
                cycles: (0..2)
                    .map(|c| {
                        (0..4)
                            .map(|p| match (c, p) {
                                (1, 3) => PinState::Pulse,
                                _ => UNPULSED[(l + 3 * p + 5 * c) % 6],
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect()
    }

    /// Patterns go to blocks and back, and blocks to bytes and back,
    /// unchanged — every state, full and partial blocks — and each
    /// state sets exactly the planes of its discriminant.
    #[test]
    fn blocks_convert_losslessly() {
        for lanes in [1, 7, 8, 9, 63, 64] {
            let patterns = every_state(lanes);
            let block = PatternBlock::from_patterns(&patterns).unwrap();
            assert_eq!((block.lanes, block.cycles, block.pins), (lanes, 2, 4));
            assert_eq!(block.to_patterns(&patterns[0].pins).unwrap(), patterns);
            let bytes = block.encode();
            let decoded = PatternBlock::decode(&bytes, 4).unwrap();
            assert_eq!(decoded, block, "{lanes} lanes");
            assert!(decoded.planes.capacity() <= bytes.len());
        }
        for s in ALL_STATES {
            let mut p = CyclePattern::new(vec!["a".to_string()]);
            p.push_cycle(vec![s]).unwrap();
            let planes = PatternBlock::from_patterns(&[p]).unwrap().planes[0];
            let code = planes
                .words()
                .iter()
                .enumerate()
                .fold(0u8, |code, (k, &w)| code | (w as u8) << k);
            assert_eq!(code, s as u8, "{s}");
        }
        let wide = PatternBlock::from_patterns(&every_state(1)).unwrap();
        assert_eq!(
            wide.to_patterns(&Arc::from(vec!["a".to_string()])),
            Err(PatternError::Shape {
                context: "batch pin list",
                expected: 4,
                got: 1,
            })
        );
    }

    /// The checked constructor refuses every plane combination no state
    /// sets, naming the first offending position in (cycle, pin) order,
    /// and a pulse on some live lanes with the chunker's typed error.
    #[test]
    fn blocks_refuse_what_the_player_cannot_play() {
        let block = |lanes, planes: Vec<PinPlanes>| PatternBlock::from_planes(lanes, 2, 2, planes);
        let clean = || vec![PinPlanes::default(); 4];
        let at = |pos: usize, p: PinPlanes| {
            let mut planes = clean();
            planes[pos] = p;
            planes
        };
        let planes_err = |context, cycle, pin| {
            Err(PatternError::Planes {
                context,
                cycle,
                pin,
            })
        };
        let p = |drive, expect, pulse, value, z| PinPlanes {
            drive,
            expect,
            pulse,
            value,
            z,
        };
        assert!(block(3, clean()).is_ok());
        assert_eq!(
            block(3, at(3, p(0b1000, 0, 0, 0, 0))),
            planes_err("bit past the live lanes", 1, 1)
        );
        assert_eq!(
            block(3, at(2, p(0, 0, 0, 0, 0b1000))),
            planes_err("bit past the live lanes", 1, 0)
        );
        for (pos, two) in [
            (1, p(1, 1, 0, 0, 0)),
            (2, p(2, 0, 2, 0, 0)),
            (3, p(0, 4, 4, 0, 0)),
        ] {
            assert_eq!(
                block(3, at(pos, two)),
                planes_err("lane in two of drive, expect and pulse", pos / 2, pos % 2)
            );
        }
        assert_eq!(
            block(3, at(1, p(1, 2, 0, 4, 0))),
            planes_err("value bit without a drive or expect", 0, 1)
        );
        for z in [p(1, 0, 0, 0, 1), p(0, 1, 0, 1, 1), p(0, 0, 0, 0, 2)] {
            assert_eq!(
                block(3, at(2, z)),
                planes_err("Z bit without a driven 1", 1, 0)
            );
        }
        // The first misaligned pulse, scanning cycles and then pins.
        let mut pulses = clean();
        pulses[1].pulse = 0b011;
        pulses[2].pulse = 0b001;
        assert_eq!(
            block(3, pulses),
            Err(PatternError::Shape {
                context: "batch pulse alignment",
                expected: 3,
                got: 2,
            })
        );
        for lanes in [0, 65] {
            assert_eq!(
                block(lanes, clean()),
                Err(PatternError::Shape {
                    context: "block lanes",
                    expected: 64,
                    got: lanes,
                })
            );
        }
        assert_eq!(
            block(3, vec![PinPlanes::default(); 3]),
            Err(PatternError::Shape {
                context: "block planes",
                expected: 4,
                got: 3,
            })
        );
        let none: [&CyclePattern; 0] = [];
        assert!(PatternBlock::from_patterns(&none).is_err());
        let many = vec![flop_pattern(&[Logic::One]); 65];
        assert!(PatternBlock::from_patterns(&many).is_err());
    }

    /// Unit bytes assembled by hand in the kind-2 layout: the lane and
    /// cycle counts, then per position a presence byte and the non-zero
    /// plane words.
    fn hand_unit(lanes: u64, cycles: u64, positions: &[[u64; 5]]) -> Vec<u8> {
        let mut w = wire::WireWriter::new();
        w.put_u64(lanes);
        w.put_u64(cycles);
        for words in positions {
            let presence = (0..5).fold(0u8, |m, k| m | u8::from(words[k] != 0) << k);
            w.put_u8(presence);
            words
                .iter()
                .filter(|&&x| x != 0)
                .for_each(|&x| w.put_u64(x));
        }
        w.finish()
    }

    /// The block of `patterns` with none of the constructor's checks.
    fn raw_block(patterns: &[&CyclePattern]) -> PatternBlock {
        let (pins, cycles) = (patterns[0].pins.len(), patterns[0].cycles.len());
        PatternBlock {
            lanes: patterns.len(),
            cycles,
            pins,
            planes: transpose(patterns, pins, cycles),
        }
    }

    /// The worker-side decoder turns malformed block bytes into typed
    /// unit errors, never a panic. Also pins the block encoder to the
    /// hand-assembled layout and the report wire codec round trip.
    #[test]
    fn worker_rejects_malformed_block_units() {
        use Logic::{One, Zero};
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let two = flop_pattern(&[One, Zero]);
        let nets = resolve_pins(&sim, &two.pins).unwrap();
        let mut job =
            open_wire_job(&encode_playback_job(sim.program(), &two.pins, &nets, &[])).unwrap();
        // Two lanes of d=1/P/H, then d=0/P/L.
        let positions = [
            [0b11, 0, 0, 0b11, 0],
            [0, 0, 0b11, 0, 0],
            [0, 0b11, 0, 0b11, 0],
            [0b11, 0, 0, 0, 0],
            [0, 0, 0b11, 0, 0],
            [0, 0b11, 0, 0, 0],
        ];
        let unit = PatternBlock::from_patterns(&[&two, &two]).unwrap().encode();
        assert_eq!(unit, hand_unit(2, 2, &positions));
        let reports = decode_reports(&job.run_unit(&unit).unwrap()).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(MismatchReport::passed));
        assert_eq!(reports[0].compares, 2);

        let mut presence = hand_unit(2, 2, &positions);
        presence[16] |= 0b10_0000;
        let mut zero_word = hand_unit(2, 2, &positions);
        zero_word[17..25].fill(0);
        let mut trailing = unit.clone();
        trailing.push(0);
        for (bad, want) in [
            (hand_unit(0, 2, &positions), "block lanes"),
            (hand_unit(65, 2, &positions), "block lanes"),
            (hand_unit(2, 3, &positions), "truncated"),
            (hand_unit(2, 1000, &positions), "block cycles"),
            (hand_unit(2, 1, &positions), "trailing"),
            (trailing, "trailing"),
            (presence, "block presence byte"),
            (zero_word, "block plane"),
            (unit[..unit.len() - 1].to_vec(), "block plane"),
            (hand_unit(2, 2, &[[0b100, 0, 0, 0, 0]; 6]), "live lanes"),
        ] {
            let err = job.run_unit(&bad).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    /// A misaligned-pulse unit that bypassed the chunker fails on the
    /// worker with the text of the chunker's typed error.
    #[test]
    fn worker_rejects_misaligned_pulses_with_the_chunkers_error() {
        use Logic::{One, Zero};
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let a = flop_pattern(&[One, Zero]);
        let mut c = flop_pattern(&[One, Zero]);
        c.cycles[1][1] = PinState::Drive0;
        let typed = apply_cycle_patterns_batch(&exec(), &sim, &[&a, &c, &a]).unwrap_err();
        assert_eq!(
            typed,
            PatternError::Shape {
                context: "batch pulse alignment",
                expected: 3,
                got: 2,
            }
        );
        let nets = resolve_pins(&sim, &a.pins).unwrap();
        let mut job =
            open_wire_job(&encode_playback_job(sim.program(), &a.pins, &nets, &[])).unwrap();
        let err = job
            .run_unit(&raw_block(&[&a, &c, &a]).encode())
            .unwrap_err();
        assert_eq!(err, typed.to_string());
    }

    /// Plays `patterns` block by block both ways — `run_unit_local`, and
    /// the opened wire job on the encoded unit — requiring equal reports
    /// for every block. Returns the failing patterns' count.
    fn local_equals_worker(sim: &Simulator, patterns: &[CyclePattern]) -> usize {
        let pins = Arc::clone(&patterns[0].pins);
        let nets = resolve_pins(sim, &pins).unwrap();
        let work = PlaybackWork::new(sim, &pins, &nets);
        let mut job = open_wire_job(&work.encode_job()).unwrap();
        let chunks = Chunker {
            patterns: patterns.iter(),
            pins: &pins,
            cycles: patterns[0].cycles.len(),
            pending: None,
            failed: None,
        };
        let mut failing = 0;
        for (i, unit) in chunks.enumerate() {
            let unit = unit.unwrap();
            let local = work.run_unit_local(&unit).unwrap();
            let shipped = job.run_unit(&work.encode_unit(&unit)).unwrap();
            assert_eq!(local, decode_reports(&shipped).unwrap(), "block {i}");
            failing += local.iter().filter(|r| !r.passed()).count();
        }
        failing
    }

    /// The in-thread unit and the worker unit play the same block
    /// through the same player: on a set with a failing pattern and a
    /// simulator with a forced net, every block reports the same both
    /// ways — full blocks, and last blocks of 7, 22 and 1 patterns.
    #[test]
    fn local_and_worker_units_report_the_same() {
        use Logic::One;
        let m = flop_module();
        let patterns = flop_set(&[77]);
        let clean: Simulator = Simulator::new(&m).unwrap();
        let mut forced = clean.clone();
        let d = forced.program().port_net("d").unwrap();
        forced.force_lane(d, 5, One);
        assert_eq!(local_equals_worker(&clean, &patterns), 1);
        assert_eq!(local_equals_worker(&clean, &patterns[..65]), 0);
        // The force fails pattern 5, lane 5 of the first block, and
        // lane 5 of later blocks besides pattern 77.
        assert_eq!(local_equals_worker(&forced, &patterns[..7]), 1);
        let failing = local_equals_worker(&forced, &patterns);
        assert!(failing > 2, "{failing} failing patterns");
    }

    /// The word-wise player reports exactly what the scalar player
    /// reports for each pattern alone — compares, and every mismatch's
    /// cycle, pin and characters in order — on a set where many lanes
    /// of one word fail at once, some observing `X`.
    #[test]
    fn word_wise_compares_match_the_scalar_player() {
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let mut patterns = flop_set(&[]);
        for (i, p) in patterns.iter_mut().enumerate() {
            // Every third pattern expects the inverse in cycle 1, every
            // fifth releases d before a capture, and every seventh
            // compares nothing in cycle 3.
            if i % 3 == 0 {
                p.cycles[1][2] = match p.cycles[1][2] {
                    PinState::ExpectH => PinState::ExpectL,
                    _ => PinState::ExpectH,
                };
            }
            if i % 5 == 0 {
                p.cycles[2][0] = PinState::DriveZ;
            }
            if i % 7 == 0 {
                p.cycles[3][2] = PinState::DontCare;
            }
        }
        let refs: Vec<&CyclePattern> = patterns.iter().collect();
        let batch = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
        let mut failing = 0;
        for (p, report) in patterns.iter().zip(&batch.reports) {
            let alone = apply_cycle_pattern(&mut sim.clone(), p).unwrap();
            assert_eq!(report, &alone);
            failing += usize::from(!report.passed());
        }
        assert!(failing >= 50, "{failing} failing patterns");
    }

    /// The streaming player's reports are byte-identical to the
    /// materialized batch's on every prefix of the set, so the last
    /// block holds 1, 7, 64, 1 and 22 patterns — block boundaries must
    /// be invisible in the report stream.
    #[test]
    fn streaming_matches_materialized_at_every_chunk_size() {
        let m = flop_module();
        let patterns = flop_set(&[7, 56, 105]);
        let refs: Vec<&CyclePattern> = patterns.iter().collect();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
        assert!(!baseline.passed());
        for exec in [Exec::serial(), Exec::threads(steac_sim::Threads::exact(3))] {
            for prefix in [1, 7, 64, 65, patterns.len()] {
                let mut streamed = Vec::new();
                let run =
                    stream_cycle_patterns(&exec, &sim, patterns[..prefix].iter().cloned(), |r| {
                        streamed.push(r)
                    })
                    .unwrap();
                assert_eq!(run.patterns, prefix, "{exec} prefix {prefix}");
                assert_eq!(
                    streamed,
                    baseline.reports[..prefix],
                    "{exec} prefix {prefix}"
                );
            }
        }
    }

    /// Blocks streamed straight into the player report what their
    /// patterns report through the chunker; a block of another width
    /// or cycle count ends the stream with a typed error after the
    /// blocks before it.
    #[test]
    fn block_streaming_matches_the_chunker_and_checks_shape() {
        use Logic::One;
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let patterns = flop_set(&[77]);
        let refs: Vec<&CyclePattern> = patterns.iter().collect();
        let baseline = apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
        let blocks: Vec<PatternBlock> = patterns
            .chunks(64)
            .map(|chunk| PatternBlock::from_patterns(chunk).unwrap())
            .collect();
        let pins = &patterns[0].pins;
        for exec in [Exec::serial(), Exec::threads(steac_sim::Threads::exact(2))] {
            let mut streamed = Vec::new();
            let run = stream_pattern_blocks(&exec, &sim, pins, blocks.iter().cloned(), |r| {
                streamed.push(r)
            })
            .unwrap();
            assert_eq!(run.patterns, patterns.len());
            assert_eq!(streamed, baseline.reports, "{exec}");
        }
        let short = PatternBlock::from_patterns(&[flop_pattern(&[One])]).unwrap();
        let mut sunk = 0;
        let err = stream_pattern_blocks(
            &Exec::serial(),
            &sim,
            pins,
            [blocks[0].clone(), short].into_iter(),
            |_| sunk += 1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            PatternError::Shape {
                context: "batch cycle count",
                expected: 4,
                got: 1,
            }
        );
        assert_eq!(sunk, 64);
        let err = stream_pattern_blocks(
            &Exec::serial(),
            &sim,
            &pins[..2],
            blocks.into_iter(),
            |_| {},
        )
        .unwrap_err();
        assert_eq!(
            err,
            PatternError::Shape {
                context: "batch pin list",
                expected: 2,
                got: 3,
            }
        );
    }

    /// Mid-stream shape violations raise the same typed errors the
    /// materialized validator raises, after an in-order prefix of clean
    /// reports has already been delivered.
    #[test]
    fn streaming_validates_incrementally() {
        use Logic::{One, Zero};
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let good = flop_pattern(&[One, Zero]);
        let short = flop_pattern(&[One]);
        let mut sunk = 0usize;
        let err = stream_cycle_patterns(
            &Exec::serial(),
            &sim,
            vec![good.clone(), good.clone(), short].into_iter(),
            |_| sunk += 1,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PatternError::Shape {
                    context: "batch cycle count",
                    ..
                }
            ),
            "{err}"
        );
        assert!(sunk <= 2, "only the clean prefix may be delivered");
        // Misaligned pulse inside a block: rejected before simulation.
        let mut unclocked = flop_pattern(&[One, Zero]);
        unclocked.cycles[0][1] = PinState::Drive0;
        let err = stream_cycle_patterns(
            &Exec::serial(),
            &sim,
            vec![good.clone(), unclocked].into_iter(),
            |_| {},
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PatternError::Shape {
                    context: "batch pulse alignment",
                    ..
                }
            ),
            "{err}"
        );
        // An empty stream is a clean no-op.
        let none = std::iter::empty::<CyclePattern>();
        let run = stream_cycle_patterns(&Exec::serial(), &sim, none, |_| {}).unwrap();
        assert_eq!(run, StreamPlayback::default());
    }

    /// Patterns whose pin tables are equal but not shared play exactly
    /// like the shared-table set; a table of the same width with one pin
    /// renamed ends the stream with a typed error after the reports of
    /// the patterns before it.
    #[test]
    fn pin_tables_compare_by_pointer_then_by_name() {
        let m = flop_module();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let distinct = flop_set(&[7, 70]);
        assert!(!Arc::ptr_eq(&distinct[0].pins, &distinct[1].pins));
        let mut shared = distinct.clone();
        for p in &mut shared {
            p.pins = Arc::clone(&distinct[0].pins);
        }
        let play = |exec: &Exec, patterns: &[CyclePattern]| {
            let mut reports = Vec::new();
            let run = stream_cycle_patterns(exec, &sim, patterns.iter(), |r| reports.push(r));
            (run.map(|run| run.patterns), reports)
        };
        let (run, reports) = play(&Exec::serial(), &shared);
        assert_eq!(run, Ok(150));
        assert!(!reports[7].passed() && !reports[70].passed());
        for exec in [Exec::serial(), Exec::threads(steac_sim::Threads::exact(2))] {
            assert_eq!(play(&exec, &distinct), (Ok(150), reports.clone()), "{exec}");
        }
        let mut renamed = shared.clone();
        renamed[100].pins = vec!["d".to_string(), "ck".to_string(), "Q".to_string()].into();
        let (run, prefix) = play(&Exec::serial(), &renamed);
        assert_eq!(
            run,
            Err(PatternError::Shape {
                context: "batch pin list",
                expected: 3,
                got: 3,
            })
        );
        assert_eq!(prefix, reports[..100]);
    }

    #[test]
    fn lane_counts_count_each_lane() {
        let mut counts = LaneCounts([0; 64]);
        let words = [u64::MAX, 1, 0b110, 1 << 63, u64::MAX, 0b100];
        for _ in 0..300 {
            words.iter().for_each(|&w| counts.add(w));
        }
        for lane in 0..64 {
            let want = words.iter().filter(|&&w| w >> lane & 1 == 1).count() as u64 * 300;
            assert_eq!(counts.get(lane), want, "lane {lane}");
        }
    }

    #[test]
    fn display_truncates_with_a_more_tail() {
        let mut rep = MismatchReport::default();
        for i in 0..14 {
            rep.mismatches.push((i, "q".to_string(), 'H', 'L'));
            rep.compares += 1;
        }
        let s = rep.to_string();
        assert!(s.contains("cycle 9"), "{s}");
        assert!(!s.contains("cycle 10:"), "{s}");
        assert!(s.contains("(+4 more)"), "{s}");
        // No tail when everything fits.
        rep.mismatches.truncate(10);
        assert!(!rep.to_string().contains("more"), "{rep}");
    }
}
