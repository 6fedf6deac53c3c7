//! March fault simulation: runs an algorithm against faulty memory
//! models and grades coverage over a fault list.
//!
//! Grading is bit-parallel (PPSFP style): faulty machines are packed
//! into lane planes — one lane-mask word group per memory cell column,
//! one lane per fault — so a single March walk grades
//! [`FAULTS_PER_WALK`] (256) faults at once, at the one width
//! [`steac_sim::DEFAULT_LANE_GROUPS`]. March writes are uniform across
//! machines, so the walk broadcasts them word-parallel and then applies
//! each lane's fault perturbation as a constant-time bit fix; reads
//! compare every lane against the analytic expected value in one XOR
//! per word group. Detected lanes are dropped: once every fault of a
//! walk is caught, the walk stops early.
//!
//! Each walk is an independent work unit, so [`fault_coverage`]
//! describes the walks as a [`steac_sim::ExecWork`] over fault-list
//! chunks and feeds the chunk iterator to [`Exec::dispatch`] — inline,
//! thread-sharded, or fanned across `steac-worker` processes (walk
//! descriptors serialized by [`crate::wire`]) — whose sink collects the
//! per-walk detection masks in fault-list order: reports are
//! bit-identical on every backend and equal to the one-walk-per-fault
//! oracle [`fault_coverage_serial`].
//! Shipped batches follow the `Exec`'s explicit
//! [`steac_sim::Fallback`] policy, and every in-thread fallback is
//! logged and counted in [`MemCoverageReport::process_fallbacks`]
//! instead of happening silently.

use crate::diagnose::FailureSite;
use crate::march::MarchAlgorithm;
use crate::memory::{MemFault, Sram, SramConfig};
use crate::sequencer::Sequencer;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;
use steac_sim::packed::{
    mask_and, mask_andnot, mask_bit, mask_none, mask_or, mask_range, mask_set_bit, LaneMask,
};
use steac_sim::shard;
use steac_sim::{Exec, ExecWork, SimError, DEFAULT_LANE_GROUPS, LANES};

/// Faults graded per packed March walk: one per lane of
/// [`DEFAULT_LANE_GROUPS`] lane groups. Unlike gate-level PPSFP there
/// is no good-machine lane, so every one of the 256 lanes holds a
/// fault.
pub const FAULTS_PER_WALK: usize = LANES * DEFAULT_LANE_GROUPS;

/// The detected-lane mask of one walk.
type WalkMask = LaneMask<DEFAULT_LANE_GROUPS>;

/// Runs `alg` on `mem`; returns `true` if any read mismatches its
/// expected background value (fault detected). The scalar
/// single-machine walk stops at the first failing read; it is the
/// reference the packed kernel is tested against
/// ([`fault_coverage_serial`]).
#[must_use]
pub fn run_march(alg: &MarchAlgorithm, mem: &mut Sram) -> bool {
    failing_reads(alg, mem, u64::MAX).next().is_some()
}

/// The scalar March walk: runs `alg` on `mem` in [`Sequencer`] order
/// under the data background `background` (what `w1` writes and `r1`
/// expects; `w0` and `r0` use its complement, both within the word
/// mask) and yields each failing read as the walk reaches it. The walk
/// goes only as far as its caller pulls; `u64::MAX` is the solid
/// background.
pub(crate) fn failing_reads<'a>(
    alg: &'a MarchAlgorithm,
    mem: &'a mut Sram,
    background: u64,
) -> impl Iterator<Item = FailureSite> + 'a {
    let mask = mem.config().word_mask();
    let (one, zero) = (background & mask, !background & mask);
    Sequencer::new(alg, mem.config().words).filter_map(move |cmd| {
        let expected = if cmd.op.value() { one } else { zero };
        if !cmd.op.is_read() {
            mem.write(cmd.addr, expected);
            return None;
        }
        let observed = mem.read(cmd.addr);
        (observed != expected).then_some(FailureSite {
            element: cmd.element,
            addr: cmd.addr,
            op: cmd.op,
            observed,
            expected,
        })
    })
}

/// One packed March walk over a (pre-validated) fault chunk — the walk
/// body shared by the in-thread path and the `steac-worker` process
/// (`crate::wire`). Returns the detected-lane mask.
pub(crate) fn run_packed_march(
    alg: &MarchAlgorithm,
    config: &SramConfig,
    chunk: &[MemFault],
) -> WalkMask {
    PackedFaultSim::new(*config, chunk).run_march(alg)
}

/// [`FAULTS_PER_WALK`] faulty memories packed into lane planes:
/// `planes[addr * width + bit]` holds one bit per lane (per fault
/// machine). Lane semantics replicate [`Sram`]'s scalar fault behaviour
/// exactly (differentially tested).
#[derive(Debug, Clone)]
struct PackedFaultSim {
    config: SramConfig,
    planes: Vec<WalkMask>,
    /// `(lane, fault)` pairs of this pass.
    faults: Vec<(usize, MemFault)>,
    /// Per-address indices into `faults` that perturb writes to the
    /// address.
    write_hooks: Vec<Vec<u32>>,
    /// Per-address indices into `faults` that perturb reads of the
    /// address.
    read_hooks: Vec<Vec<u32>>,
    /// Per-address lane mask excluded from broadcast writes (decoder
    /// faults that lose or redirect the access).
    write_exclude: Vec<WalkMask>,
    /// Per-address lane mask whose reads need individual evaluation.
    read_exclude: Vec<WalkMask>,
    /// Lanes in use.
    active: WalkMask,
}

impl PackedFaultSim {
    fn new(config: SramConfig, chunk: &[MemFault]) -> Self {
        assert!(chunk.len() <= FAULTS_PER_WALK, "too many faults per walk");
        assert!(config.width <= 64, "model supports widths up to 64 bits");
        assert!(config.words > 0, "memory must have at least one word");
        let mut sim = PackedFaultSim {
            config,
            planes: vec![mask_none(); config.words * config.width],
            faults: chunk.iter().copied().enumerate().collect(),
            write_hooks: vec![Vec::new(); config.words],
            read_hooks: vec![Vec::new(); config.words],
            write_exclude: vec![mask_none(); config.words],
            read_exclude: vec![mask_none(); config.words],
            active: mask_range(0, chunk.len()),
        };
        for (i, &(lane, fault)) in sim.faults.clone().iter().enumerate() {
            assert!(
                config.fits(&fault),
                "fault {fault:?} out of range for {config}"
            );
            let hi = i as u32;
            match fault {
                MemFault::StuckAt { addr, .. } => {
                    sim.write_hooks[addr].push(hi);
                    sim.read_hooks[addr].push(hi);
                    mask_set_bit(&mut sim.read_exclude[addr], lane);
                }
                MemFault::Transition { addr, .. } => {
                    sim.write_hooks[addr].push(hi);
                }
                MemFault::CouplingInversion { aggressor, .. }
                | MemFault::CouplingIdempotent { aggressor, .. }
                | MemFault::CouplingState { aggressor, .. } => {
                    sim.write_hooks[aggressor.0].push(hi);
                }
                MemFault::AfNoAccess { addr } => {
                    mask_set_bit(&mut sim.write_exclude[addr], lane);
                    sim.read_hooks[addr].push(hi);
                    mask_set_bit(&mut sim.read_exclude[addr], lane);
                }
                MemFault::AfMultiAccess { addr, .. } => {
                    sim.write_hooks[addr].push(hi);
                    sim.read_hooks[addr].push(hi);
                    mask_set_bit(&mut sim.read_exclude[addr], lane);
                }
                MemFault::AfOtherAccess { addr, .. } => {
                    mask_set_bit(&mut sim.write_exclude[addr], lane);
                    sim.write_hooks[addr].push(hi);
                    sim.read_hooks[addr].push(hi);
                    mask_set_bit(&mut sim.read_exclude[addr], lane);
                }
            }
        }
        sim
    }

    #[inline]
    fn plane(&self, addr: usize, bit: usize) -> WalkMask {
        self.planes[addr * self.config.width + bit]
    }

    #[inline]
    fn get_bit(&self, addr: usize, bit: usize, lane: usize) -> bool {
        mask_bit(&self.plane(addr, bit), lane)
    }

    #[inline]
    fn set_bit(&mut self, addr: usize, bit: usize, lane: usize, v: bool) {
        let p = addr * self.config.width + bit;
        if v {
            self.planes[p][lane / 64] |= 1 << (lane % 64);
        } else {
            self.planes[p][lane / 64] &= !(1 << (lane % 64));
        }
    }

    /// Writes `value` (within the word mask) into every lane's copy of
    /// `addr`, then applies each lane's fault perturbation (matching
    /// `Sram::write` semantics).
    fn write(&mut self, addr: usize, value: u64) {
        // Capture the pre-write state the perturbations need.
        let hooks = self.write_hooks[addr].clone();
        let mut olds = Vec::with_capacity(hooks.len());
        for &hi in &hooks {
            let (lane, fault) = self.faults[hi as usize];
            let old = match fault {
                MemFault::Transition { addr: fa, bit, .. } => self.get_bit(fa, bit, lane),
                MemFault::CouplingInversion { aggressor, .. }
                | MemFault::CouplingIdempotent { aggressor, .. } => {
                    self.get_bit(aggressor.0, aggressor.1, lane)
                }
                _ => false,
            };
            olds.push(old);
        }
        // Broadcast the uniform write to all lanes whose decoder actually
        // reaches `addr`.
        let wmask = mask_andnot(self.active, self.write_exclude[addr]);
        for bit in 0..self.config.width {
            let p = addr * self.config.width + bit;
            for (g, &wm) in wmask.iter().enumerate() {
                if value >> bit & 1 == 1 {
                    self.planes[p][g] |= wm;
                } else {
                    self.planes[p][g] &= !wm;
                }
            }
        }
        // Per-lane perturbations (each lane holds exactly one fault).
        for (&hi, &old) in hooks.iter().zip(&olds) {
            let (lane, fault) = self.faults[hi as usize];
            match fault {
                MemFault::StuckAt {
                    addr: fa,
                    bit,
                    value: sv,
                } => {
                    self.set_bit(fa, bit, lane, sv);
                }
                MemFault::Transition {
                    addr: fa,
                    bit,
                    rising,
                } => {
                    let new = value >> bit & 1 == 1;
                    if rising && !old && new {
                        self.set_bit(fa, bit, lane, false); // 0->1 fails
                    } else if !rising && old && !new {
                        self.set_bit(fa, bit, lane, true); // 1->0 fails
                    }
                }
                MemFault::CouplingInversion {
                    aggressor,
                    victim,
                    rising,
                } => {
                    let new = value >> aggressor.1 & 1 == 1;
                    if new != old && new == rising {
                        let v = self.get_bit(victim.0, victim.1, lane);
                        self.set_bit(victim.0, victim.1, lane, !v);
                    }
                }
                MemFault::CouplingIdempotent {
                    aggressor,
                    victim,
                    rising,
                    forced,
                } => {
                    let new = value >> aggressor.1 & 1 == 1;
                    if new != old && new == rising {
                        self.set_bit(victim.0, victim.1, lane, forced);
                    }
                }
                MemFault::CouplingState {
                    aggressor,
                    victim,
                    state,
                    forced,
                } => {
                    // The aggressor bit equals the just-written value.
                    if (value >> aggressor.1 & 1 == 1) == state {
                        self.set_bit(victim.0, victim.1, lane, forced);
                    }
                }
                MemFault::AfOtherAccess { other, .. } => {
                    for bit in 0..self.config.width {
                        self.set_bit(other, bit, lane, value >> bit & 1 == 1);
                    }
                }
                MemFault::AfMultiAccess { also, .. } => {
                    for bit in 0..self.config.width {
                        self.set_bit(also, bit, lane, value >> bit & 1 == 1);
                    }
                }
                MemFault::AfNoAccess { .. } => {}
            }
        }
    }

    /// Reads `addr` in every lane and returns the mask of lanes whose
    /// value differs from `expected`, a word within the word mask
    /// (matching `Sram::read` semantics).
    fn read_mismatch(&self, addr: usize, expected: u64) -> WalkMask {
        let mut diff: WalkMask = mask_none();
        for bit in 0..self.config.width {
            let exp = if expected >> bit & 1 == 1 { !0u64 } else { 0 };
            for (d, p) in diff.iter_mut().zip(self.plane(addr, bit)) {
                *d |= p ^ exp;
            }
        }
        diff = mask_and(diff, mask_andnot(self.active, self.read_exclude[addr]));
        // Lanes whose decoder or stuck cell shapes the read individually.
        for &hi in &self.read_hooks[addr] {
            let (lane, fault) = self.faults[hi as usize];
            let word = match fault {
                MemFault::StuckAt {
                    addr: fa,
                    bit,
                    value: sv,
                } => {
                    let mut w = self.lane_word(fa, lane);
                    if sv {
                        w |= 1 << bit;
                    } else {
                        w &= !(1 << bit);
                    }
                    w
                }
                MemFault::AfNoAccess { .. } => 0,
                MemFault::AfOtherAccess { other, .. } => self.lane_word(other, lane),
                // Wired-AND of the two selected rows.
                MemFault::AfMultiAccess { also, .. } => {
                    self.lane_word(addr, lane) & self.lane_word(also, lane)
                }
                _ => unreachable!("read hooks cover read-affecting faults only"),
            };
            if word != expected {
                mask_set_bit(&mut diff, lane);
            }
        }
        diff
    }

    fn lane_word(&self, addr: usize, lane: usize) -> u64 {
        let mut w = 0u64;
        for bit in 0..self.config.width {
            w |= u64::from(mask_bit(&self.plane(addr, bit), lane)) << bit;
        }
        w
    }

    /// Runs the March walk over all lanes at once, in [`Sequencer`]
    /// order; returns the detected lane mask. Stops early once every
    /// active lane is detected (fault dropping).
    fn run_march(&mut self, alg: &MarchAlgorithm) -> WalkMask {
        let mask = self.config.word_mask();
        let mut detected: WalkMask = mask_none();
        for cmd in Sequencer::new(alg, self.config.words) {
            let value = if cmd.op.value() { mask } else { 0 };
            if cmd.op.is_read() {
                detected = mask_or(detected, self.read_mismatch(cmd.addr, value));
            } else {
                self.write(cmd.addr, value);
            }
            if detected == self.active {
                return detected; // every fault of this walk dropped
            }
        }
        detected
    }
}

/// Coverage of an algorithm over a fault list on one memory geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemCoverageReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Memory geometry description.
    pub memory: String,
    /// Total faults simulated.
    pub total: usize,
    /// Faults detected.
    pub detected: usize,
    /// Escapes per fault class.
    pub escapes_by_class: BTreeMap<&'static str, usize>,
    /// The escaped faults (for diagnosis).
    pub escaped: Vec<MemFault>,
    /// Shipped batches recomputed in-thread while producing this report
    /// (0 unless the `Exec` runs a process or remote backend under
    /// [`steac_sim::Fallback::InThread`] and batches failed; up to one
    /// per [`steac_sim::STREAM_BATCH_UNITS`] walks). The verdicts are
    /// unaffected — the fallback recomputes the identical walks — but
    /// the degradation is recorded instead of silent.
    pub process_fallbacks: usize,
}

impl MemCoverageReport {
    /// Coverage in percent (100 for an empty list).
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }
}

impl fmt::Display for MemCoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {}/{} detected ({:.2}%)",
            self.algorithm,
            self.memory,
            self.detected,
            self.total,
            self.coverage_percent()
        )?;
        if !self.escapes_by_class.is_empty() {
            write!(f, " escapes:")?;
            for (class, n) in &self.escapes_by_class {
                write!(f, " {class}={n}")?;
            }
        }
        if self.process_fallbacks > 0 {
            write!(
                f,
                " [process dispatch fell back in-thread x{}]",
                self.process_fallbacks
            )?;
        }
        Ok(())
    }
}

fn report_from_flags(
    alg: &MarchAlgorithm,
    config: &SramConfig,
    faults: &[MemFault],
    detected_flags: &[bool],
    process_fallbacks: usize,
) -> MemCoverageReport {
    let mut detected = 0usize;
    let mut escaped = Vec::new();
    let mut escapes_by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (&fault, &hit) in faults.iter().zip(detected_flags) {
        if hit {
            detected += 1;
        } else {
            *escapes_by_class.entry(fault.class()).or_insert(0) += 1;
            escaped.push(fault);
        }
    }
    MemCoverageReport {
        algorithm: alg.name.clone(),
        memory: config.to_string(),
        total: faults.len(),
        detected,
        escaped,
        escapes_by_class,
        process_fallbacks,
    }
}

/// The [`ExecWork`] description of March fault grading: one unit per
/// walk of up to [`FAULTS_PER_WALK`] faults, a job block carrying
/// geometry and algorithm ([`crate::wire`]), and the walk's detection
/// mask as each unit's result, in the codec gate-level grading shares
/// ([`shard::encode_lane_mask`]). The walk itself is infallible — errors
/// can only come from dispatch.
struct MarchWork<'a> {
    alg: &'a MarchAlgorithm,
    config: &'a SramConfig,
}

impl<'a> ExecWork for MarchWork<'a> {
    type Unit = &'a [MemFault];
    type Output = WalkMask;
    type Error = SimError;

    fn kind(&self) -> u16 {
        crate::wire::WIRE_KIND
    }

    fn encode_job(&self) -> Vec<u8> {
        crate::wire::encode_march_job(self.alg, self.config)
    }

    fn encode_unit(&self, unit: &&'a [MemFault]) -> Vec<u8> {
        crate::wire::encode_fault_unit(unit)
    }

    fn run_unit_local(&self, unit: &&'a [MemFault]) -> Result<WalkMask, SimError> {
        Ok(run_packed_march(self.alg, self.config, unit))
    }

    fn decode_result(&self, _unit: &&'a [MemFault], bytes: &[u8]) -> Result<WalkMask, String> {
        shard::decode_lane_mask(bytes)
    }
}

/// Simulates every fault in `faults` (single-fault assumption) under
/// `alg` and reports coverage. Packed: [`FAULTS_PER_WALK`] faults per
/// March walk, with fault dropping.
///
/// The single entry point for every backend: `exec` decides whether
/// walks run inline, across threads or across `steac-worker` processes
/// ([`Exec::dispatch`]). Merging is by walk index in every flavour, so
/// the report is byte-identical on every backend. The March walk itself
/// is infallible, so errors can only arise from process dispatch — and
/// only under [`steac_sim::Fallback::Fail`]; the default
/// [`steac_sim::Fallback::InThread`] policy recomputes in-thread and
/// records it in [`MemCoverageReport::process_fallbacks`] (this used to
/// happen silently — the silent-policy bug).
///
/// # Errors
///
/// [`SimError::Worker`] on the lowest-indexed failing walk, only under
/// [`steac_sim::Fallback::Fail`] on a process backend.
pub fn fault_coverage(
    exec: &Exec,
    alg: &MarchAlgorithm,
    config: &SramConfig,
    faults: &[MemFault],
) -> Result<MemCoverageReport, SimError> {
    let mut masks = Vec::new();
    let dispatched = exec.dispatch(
        &MarchWork { alg, config },
        faults.chunks(FAULTS_PER_WALK),
        |mask| masks.push(mask),
    )?;
    let flags = shard::flags_from_lane_masks(faults.len(), FAULTS_PER_WALK, 0, &masks);
    Ok(report_from_flags(
        alg,
        config,
        faults,
        &flags,
        dispatched.fallbacks,
    ))
}

/// Serial reference implementation: one full March walk per fault, as
/// the scalar model does. Kept strictly as the differential-test and
/// benchmark oracle — production callers use [`fault_coverage`] with an
/// [`Exec`].
#[doc(hidden)]
#[must_use]
pub fn fault_coverage_serial(
    alg: &MarchAlgorithm,
    config: &SramConfig,
    faults: &[MemFault],
) -> MemCoverageReport {
    let flags: Vec<bool> = faults
        .iter()
        .map(|&fault| {
            let mut mem = Sram::with_fault(*config, fault);
            run_march(alg, &mut mem)
        })
        .collect();
    report_from_flags(alg, config, faults, &flags, 0)
}

/// Enumerates the inter-cell coupling faults between vertically
/// adjacent cells — same bit column, consecutive word addresses, the
/// physical neighbours of a folded SRAM array. Each unordered neighbour
/// pair yields both aggressor directions, and each direction six
/// classically distinguished couplings: CFin on the rising and falling
/// aggressor edge, plus CFid and CFst in the two polarities whose
/// forced value tracks the trigger (the anti-tracking polarities are
/// the data-complement mirrors of these and add no diagnostic
/// resolution under solid backgrounds). `12 * width * (words - 1)`
/// faults total, in deterministic address-major order, ready for
/// [`fault_coverage`] or [`crate::diagnose::coupling_dictionary`].
#[must_use]
pub fn enumerate_inter_cell_couplings(config: &SramConfig) -> Vec<MemFault> {
    let mut out = Vec::new();
    if config.words < 2 {
        return out;
    }
    for addr in 0..config.words - 1 {
        for bit in 0..config.width {
            let lo = (addr, bit);
            let hi = (addr + 1, bit);
            for (aggressor, victim) in [(lo, hi), (hi, lo)] {
                for rising in [true, false] {
                    out.push(MemFault::CouplingInversion {
                        aggressor,
                        victim,
                        rising,
                    });
                }
                for (rising, forced) in [(true, true), (false, false)] {
                    out.push(MemFault::CouplingIdempotent {
                        aggressor,
                        victim,
                        rising,
                        forced,
                    });
                }
                for (state, forced) in [(true, true), (false, false)] {
                    out.push(MemFault::CouplingState {
                        aggressor,
                        victim,
                        state,
                        forced,
                    });
                }
            }
        }
    }
    out
}

/// Generates a random fault list over all classes with `per_class`
/// faults each (deduplicated cells are not required — the single-fault
/// assumption means every entry is simulated independently). The
/// coupling and address-decoder classes pair two words, so a one-word
/// memory gets only its SAF and TF faults.
pub fn random_fault_list<R: Rng>(
    config: &SramConfig,
    per_class: usize,
    rng: &mut R,
) -> Vec<MemFault> {
    let mut out = Vec::with_capacity(per_class * 6);
    let cell = |rng: &mut R| -> (usize, usize) {
        (
            rng.gen_range(0..config.words),
            rng.gen_range(0..config.width),
        )
    };
    for _ in 0..per_class {
        let (a, b) = cell(rng);
        out.push(MemFault::StuckAt {
            addr: a,
            bit: b,
            value: rng.gen(),
        });
    }
    for _ in 0..per_class {
        let (a, b) = cell(rng);
        out.push(MemFault::Transition {
            addr: a,
            bit: b,
            rising: rng.gen(),
        });
    }
    if config.words < 2 {
        return out;
    }
    // Inter-word pairs only: intra-word coupling faults are not
    // guaranteed detectable with the solid data backgrounds March tests
    // use (word-oriented memories need multiple backgrounds for those —
    // see the dedicated escape test), so the theory-grade fault list
    // sticks to the classically covered class.
    let distinct_pair = |rng: &mut R| -> ((usize, usize), (usize, usize)) {
        loop {
            let a = cell(rng);
            let v = cell(rng);
            if a.0 != v.0 {
                return (a, v);
            }
        }
    };
    for _ in 0..per_class {
        let (a, v) = distinct_pair(rng);
        out.push(MemFault::CouplingInversion {
            aggressor: a,
            victim: v,
            rising: rng.gen(),
        });
    }
    for _ in 0..per_class {
        let (a, v) = distinct_pair(rng);
        out.push(MemFault::CouplingIdempotent {
            aggressor: a,
            victim: v,
            rising: rng.gen(),
            forced: rng.gen(),
        });
    }
    for _ in 0..per_class {
        let (a, v) = distinct_pair(rng);
        out.push(MemFault::CouplingState {
            aggressor: a,
            victim: v,
            state: rng.gen(),
            forced: rng.gen(),
        });
    }
    for _ in 0..per_class {
        let a = rng.gen_range(0..config.words);
        let mut b = rng.gen_range(0..config.words);
        while b == a {
            b = rng.gen_range(0..config.words);
        }
        out.push(match rng.gen_range(0..3) {
            0 => MemFault::AfNoAccess { addr: a },
            1 => MemFault::AfMultiAccess { addr: a, also: b },
            _ => MemFault::AfOtherAccess { addr: a, other: b },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use steac_sim::Threads;

    fn exec() -> Exec {
        Exec::from_env()
    }

    const CFG: SramConfig = SramConfig {
        words: 64,
        width: 4,
        ports: crate::memory::PortKind::SinglePort,
    };

    #[test]
    fn clean_memory_passes_every_algorithm() {
        for alg in MarchAlgorithm::library() {
            let mut m = Sram::new(CFG);
            assert!(!run_march(&alg, &mut m), "{} false alarm", alg.name);
        }
    }

    #[test]
    fn march_c_minus_detects_all_standard_unlinked_faults() {
        let alg = MarchAlgorithm::march_c_minus();
        let mut rng = StdRng::seed_from_u64(42);
        let faults = random_fault_list(&CFG, 60, &mut rng);
        let rep = fault_coverage(&exec(), &alg, &CFG, &faults).unwrap();
        assert_eq!(
            rep.coverage_percent(),
            100.0,
            "March C- must detect all unlinked SAF/TF/CF/AF: {rep}"
        );
    }

    #[test]
    fn march_ss_also_reaches_full_coverage() {
        let alg = MarchAlgorithm::march_ss();
        let mut rng = StdRng::seed_from_u64(7);
        let faults = random_fault_list(&CFG, 40, &mut rng);
        let rep = fault_coverage(&exec(), &alg, &CFG, &faults).unwrap();
        assert_eq!(rep.coverage_percent(), 100.0, "{rep}");
    }

    #[test]
    fn mats_plus_catches_saf_and_af_but_misses_couplings() {
        let alg = MarchAlgorithm::mats_plus();
        let mut rng = StdRng::seed_from_u64(3);
        // SAFs and AFs: full detection.
        let safs: Vec<MemFault> = random_fault_list(&CFG, 50, &mut rng)
            .into_iter()
            .filter(|f| f.class() == "SAF" || f.class() == "AF")
            .collect();
        let rep = fault_coverage(&exec(), &alg, &CFG, &safs).unwrap();
        assert_eq!(rep.coverage_percent(), 100.0, "{rep}");
        // Couplings: escapes expected (MATS+ is only 5N).
        let cfs: Vec<MemFault> = random_fault_list(&CFG, 80, &mut rng)
            .into_iter()
            .filter(|f| f.class().starts_with("CF"))
            .collect();
        let rep = fault_coverage(&exec(), &alg, &CFG, &cfs).unwrap();
        assert!(
            rep.coverage_percent() < 100.0,
            "MATS+ should not catch every coupling fault: {rep}"
        );
        assert!(!rep.escaped.is_empty());
    }

    #[test]
    fn cheaper_algorithms_never_beat_march_ss() {
        let mut rng = StdRng::seed_from_u64(11);
        let faults = random_fault_list(&CFG, 30, &mut rng);
        let ss = fault_coverage(&exec(), &MarchAlgorithm::march_ss(), &CFG, &faults).unwrap();
        for alg in [MarchAlgorithm::mats_plus(), MarchAlgorithm::march_x()] {
            let rep = fault_coverage(&exec(), &alg, &CFG, &faults).unwrap();
            assert!(
                rep.detected <= ss.detected,
                "{} outperformed March SS",
                alg.name
            );
        }
    }

    /// The packed kernel and the scalar walk agree fault-for-fault, over
    /// every algorithm in the library and mixed fault lists (this is the
    /// contract that lets the packed path replace the scalar one).
    #[test]
    fn packed_matches_serial_on_every_algorithm() {
        let mut rng = StdRng::seed_from_u64(2024);
        for alg in MarchAlgorithm::library() {
            for (words, width) in [(16, 1), (64, 4), (9, 8)] {
                let cfg = SramConfig::single_port(words, width);
                let faults = random_fault_list(&cfg, 12, &mut rng);
                let packed = fault_coverage(&exec(), &alg, &cfg, &faults).unwrap();
                let serial = fault_coverage_serial(&alg, &cfg, &faults);
                assert_eq!(
                    packed.detected, serial.detected,
                    "{} on {}: packed {} vs serial {}",
                    alg.name, cfg, packed, serial
                );
                assert_eq!(packed.escaped, serial.escaped, "{} on {}", alg.name, cfg);
            }
        }
    }

    /// Walks with exactly [`FAULTS_PER_WALK`] faults exercise the
    /// full-lane mask path.
    #[test]
    fn full_lane_pass_and_chunking() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut faults = random_fault_list(&CFG, 90, &mut rng);
        faults.truncate(2 * FAULTS_PER_WALK + 2); // three walks
        let alg = MarchAlgorithm::march_c_minus();
        let packed = fault_coverage(&exec(), &alg, &CFG, &faults).unwrap();
        let serial = fault_coverage_serial(&alg, &CFG, &faults);
        assert_eq!(packed.detected, serial.detected);
        assert_eq!(packed.escaped, serial.escaped);
    }

    /// Word-oriented-memory theory: an intra-word CFid whose forced value
    /// equals the background written to the victim has no observable
    /// effect under solid backgrounds — no solid-background March can
    /// see it (multi-background extensions exist for exactly this).
    #[test]
    fn intra_word_masked_cfid_escapes_solid_background_march() {
        let fault = MemFault::CouplingIdempotent {
            aggressor: (5, 0),
            victim: (5, 1), // same word
            rising: true,
            forced: true, // matches the 1-background written alongside
        };
        for alg in MarchAlgorithm::library() {
            let mut m = Sram::with_fault(CFG, fault);
            assert!(
                !run_march(&alg, &mut m),
                "{} claimed to detect a masked intra-word CFid",
                alg.name
            );
            // Packed agrees.
            let rep = fault_coverage(&exec(), &alg, &CFG, &[fault]).unwrap();
            assert_eq!(rep.detected, 0, "{} packed disagreement", alg.name);
        }
        // The unmasked polarity (forced value opposite to the written
        // background) IS caught, because the disturbance follows the
        // write.
        let visible = MemFault::CouplingIdempotent {
            aggressor: (5, 0),
            victim: (5, 1),
            rising: true,
            forced: false,
        };
        let mut m = Sram::with_fault(CFG, visible);
        assert!(run_march(&MarchAlgorithm::march_c_minus(), &mut m));
        let rep =
            fault_coverage(&exec(), &MarchAlgorithm::march_c_minus(), &CFG, &[visible]).unwrap();
        assert_eq!(rep.detected, 1);
    }

    /// Sharded March grading reports identical coverage — including the
    /// `escaped` order — at every thread count.
    #[test]
    fn sharded_march_grading_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(99);
        let faults = random_fault_list(&CFG, 40, &mut rng);
        let alg = MarchAlgorithm::mats_plus(); // leaves escapes to merge
        let baseline = fault_coverage(&Exec::serial(), &alg, &CFG, &faults).unwrap();
        for t in 1..=8 {
            let threaded = Exec::threads(Threads::exact(t));
            let sharded = fault_coverage(&threaded, &alg, &CFG, &faults).unwrap();
            assert_eq!(sharded, baseline, "{t} threads");
        }
    }

    /// A one-word memory has no second word to pair, so its list holds
    /// only SAF and TF faults. The list is drawn on a helper thread, so
    /// a generator that keeps redrawing for a second word fails the
    /// receive timeout instead of hanging the suite.
    #[test]
    fn one_word_fault_list_holds_only_cell_faults() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = SramConfig::single_port(1, 8);
            let _ = tx.send(random_fault_list(&cfg, 5, &mut StdRng::seed_from_u64(1)));
        });
        let faults = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the one-word fault list never came back");
        let classes: Vec<&str> = faults.iter().map(MemFault::class).collect();
        assert_eq!(classes, [["SAF"; 5], ["TF"; 5]].concat());
    }

    #[test]
    fn report_display_contains_classes() {
        let alg = MarchAlgorithm::mats_plus();
        let faults = vec![MemFault::CouplingState {
            aggressor: (0, 0),
            victim: (1, 0),
            state: true,
            forced: true,
        }];
        let rep = fault_coverage(&exec(), &alg, &CFG, &faults).unwrap();
        if rep.detected == 0 {
            assert!(rep.to_string().contains("CFst"), "{rep}");
        }
    }
}
