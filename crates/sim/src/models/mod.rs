//! The fault-model subsystem: one [`FaultModel`] trait, one engine.
//!
//! Stuck-at grading ([`crate::fault`]) was the repo's founding workload;
//! this module generalises it into a *registry of fault models*. A model
//! is one [`FaultModel`] impl: its wire kind, its per-fault codec, its
//! fault list, how many patterns a vector set yields, and how a pass
//! injects its faults into the lanes. Everything else is written once
//! here, generic over the model — the [`Report`], the grading and
//! dictionary pass loops, one [`ExecWork`] per mode, the job codec
//! ([`encode_job`]) and the worker-side [`open_wire_job`] — so every
//! model inherits the whole platform: every backend (serial / threads /
//! processes / remote), the optimizer, 256-lane passes, per-pass fault
//! dropping, fault dictionaries and the byte-identical-reports contract.
//! A new model is one impl plus one `worker_registry()` line.
//!
//! Every pass runs at one width, [`DEFAULT_LANE_GROUPS`] (256 lanes):
//! lane 0 is the good machine and lanes 1–255 each carry one of the
//! pass's up to [`FAULTS_PER_PASS`] faults. Neither a caller nor a job
//! picks the width.
//!
//! | model | module | work-unit kind | fault site |
//! |---|---|---|---|
//! | stuck-at | [`crate::fault`] | 1 | net stuck at 0/1 |
//! | transition/delay | [`transition`] | 4 | net slow-to-rise/fall |
//! | bridging | [`bridging`] | 5 | AND/OR short between adjacent nets |
//!
//! (Inter-cell memory coupling is the fourth model; its faults are
//! `steac-membist` [`MemFault`]s and ride that crate's March walk
//! workload, kind 3.)
//!
//! Kinds 1, 4 and 5 each grade ([`grade_vectors`]) or build a **fault
//! dictionary** ([`fault_dictionary`]): per fault, the first detecting
//! pattern and a packed per-(pattern, output) detection signature.
//! [`dictionary::diagnose`] ranks a dictionary's candidate fault sites
//! against an observed failure signature by signature distance, in
//! place on the calling thread.
//!
//! # Wire layout (kinds 1, 4 and 5)
//!
//! ```text
//! job:     program block, mode u8 (0 = grade, 1 = dictionary),
//!          pin count u64 + one u32 net per pin, vector count u64 +
//!          per vector: length u64 + one logic byte per pin
//! unit:    fault count u64 (at most 255), then each fault in its
//!          model's codec
//! result:  grade — the pass's detection mask, four little-endian u64
//!          words (lane 0 is the good machine, lane i + 1 carries
//!          fault i; see [`shard::encode_lane_mask`]);
//!          dictionary — one entry per fault of the unit (see
//!          [`dictionary`])
//! ```
//!
//! # Model selection
//!
//! Flows that grade with a chosen model (the zoo corpus) take it as a
//! [`ModelKind`] value, stuck-at by default.
//!
//! [`MemFault`]: https://docs.rs/steac-membist

pub mod bridging;
pub mod dictionary;
pub mod transition;

use crate::engine::Simulator;
use crate::exec::{Exec, ExecWork};
use crate::fault::FAULTS_PER_PASS;
use crate::logic::Logic;
use crate::packed::{
    mask_and, mask_bit, mask_none, mask_or, mask_range, LaneMask, PackedLogic, DEFAULT_LANE_GROUPS,
};
use crate::program::SimProgram;
use crate::shard::{self, WireJob};
use crate::wire::{self, WireError, WireReader, WireWriter};
use crate::SimError;
use dictionary::{
    decode_dict_entries, encode_dict_entries, signature_words, DictEntry, FaultDictionary,
};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use steac_netlist::{Module, NetId};

/// A gate-level fault model: only what differs between models. The
/// engine in this module grades, builds dictionaries and opens worker
/// jobs for any implementation.
pub trait FaultModel: Copy + Eq + fmt::Debug + fmt::Display + Send + Sync + 'static {
    /// Work-unit kind the worker-side registry routes to
    /// [`open_wire_job`] for this model.
    const WIRE_KIND: u16;
    /// What a [`Report`] counts, e.g. `"transition faults"`.
    const NOUN: &'static str;

    /// Appends one fault to a work-unit payload; every fault takes at
    /// least five bytes (a `u32` net and a `u8` tag).
    fn encode(&self, w: &mut WireWriter);

    /// Reads one fault written by [`FaultModel::encode`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or corrupt bytes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Whether every net the fault names lies below `net_count`.
    fn in_range(&self, net_count: usize) -> bool;

    /// The module's full fault list.
    ///
    /// # Errors
    ///
    /// Compile errors, for models that enumerate from the compiled
    /// program.
    fn enumerate(m: &Module) -> Result<Vec<Self>, SimError>;

    /// Patterns an `n`-vector set yields: one per vector unless the
    /// model pairs vectors up.
    #[must_use]
    fn patterns(n: usize) -> usize {
        n
    }

    /// Injects a pass's faults once, before its first pattern; lane
    /// `i + 1` carries `chunk[i]`. Models that inject per pattern keep
    /// the empty default.
    fn begin_pass(_sim: &mut Simulator<DEFAULT_LANE_GROUPS>, _chunk: &[Self]) {}

    /// Drives pattern `pattern` of `vectors` onto `pins` with `chunk`'s
    /// per-pattern lane injection and settles: afterwards the outputs
    /// hold the pattern's observation.
    ///
    /// # Errors
    ///
    /// Engine errors.
    fn apply(
        sim: &mut Simulator<DEFAULT_LANE_GROUPS>,
        pins: &[NetId],
        vectors: &[Vec<Logic>],
        pattern: usize,
        chunk: &[Self],
    ) -> Result<(), SimError>;
}

/// Fewest bytes one encoded fault takes: the bound that keeps a corrupt
/// fault count from forcing a large allocation.
const MIN_FAULT_BYTES: usize = 5;

/// Result of grading a pattern set against a fault list of model `F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report<F> {
    /// Number of faults simulated.
    pub total: usize,
    /// Number of detected faults.
    pub detected: usize,
    /// Faults that escaped, for diagnosis.
    pub undetected: Vec<F>,
    /// Shipped batches recomputed in-thread while producing this report
    /// (0 unless the `Exec` runs a process or remote backend under
    /// [`crate::exec::Fallback::InThread`] and batches failed; up to one
    /// per [`crate::exec::STREAM_BATCH_UNITS`] passes). The verdicts are
    /// unaffected — the fallback recomputes the identical passes — but
    /// the degradation is recorded instead of silent.
    pub process_fallbacks: usize,
}

impl<F: Copy> Report<F> {
    /// Fault coverage in percent (100 for an empty fault list).
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }

    /// Folds per-fault detection flags (in fault-list order) into a
    /// report; `undetected` keeps exactly the order a single-threaded
    /// pass-by-pass loop would produce.
    pub(crate) fn from_flags(faults: &[F], flags: &[bool], process_fallbacks: usize) -> Self {
        let mut detected = 0usize;
        let mut undetected = Vec::new();
        for (&f, &hit) in faults.iter().zip(flags) {
            if hit {
                detected += 1;
            } else {
                undetected.push(f);
            }
        }
        Report {
            total: faults.len(),
            detected,
            undetected,
            process_fallbacks,
        }
    }
}

impl<F: FaultModel> fmt::Display for Report<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {} detected ({:.2}%)",
            self.detected,
            self.total,
            F::NOUN,
            self.coverage_percent()
        )?;
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

/// Accumulates, into a lane mask, the lanes whose observed value provably
/// differs from the good machine on lane 0 (both values known, values
/// differ — the masked-compare rule an ATE applies).
pub(crate) fn detection_lanes(
    obs: PackedLogic<DEFAULT_LANE_GROUPS>,
) -> LaneMask<DEFAULT_LANE_GROUPS> {
    let ones = obs.is_one();
    let zeros = obs.is_zero();
    if mask_bit(&ones, 0) {
        zeros
    } else if mask_bit(&zeros, 0) {
        ones
    } else {
        mask_none()
    }
}

pub(crate) fn validate_vectors(pins: &[NetId], vectors: &[Vec<Logic>]) -> Result<(), SimError> {
    for v in vectors {
        if v.len() != pins.len() {
            return Err(SimError::VectorLength {
                expected: pins.len(),
                got: v.len(),
            });
        }
    }
    Ok(())
}

// ---------- the pass loops ----------
//
// One pass of a fault chunk over the whole stimulus: lane 0 is the good
// machine, lanes `1..=chunk.len()` each carry one fault. The exact code
// every backend executes (inline, on a dispatcher thread, or inside a
// `steac-worker` process), so dispatch flavour can never change a
// result.

/// The grading pass: the mask of lanes that provably differ from lane 0
/// on some output, with per-pass fault dropping.
fn grade_pass<F: FaultModel>(
    program: &Arc<SimProgram>,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
    chunk: &[F],
) -> Result<LaneMask<DEFAULT_LANE_GROUPS>, SimError> {
    let mut sim: Simulator<DEFAULT_LANE_GROUPS> = Simulator::from_program(Arc::clone(program));
    F::begin_pass(&mut sim, chunk);
    // Lane mask with one bit per in-flight fault.
    let want = mask_range(1, chunk.len());
    let mut mask = mask_none();
    for pattern in 0..F::patterns(vectors.len()) {
        F::apply(&mut sim, pins, vectors, pattern, chunk)?;
        for &net in &sim.program().output_nets {
            mask = mask_or(mask, detection_lanes(sim.get_packed(net)));
        }
        if mask_and(mask, want) == want {
            break; // every fault in this pass dropped
        }
    }
    Ok(mask)
}

/// The dictionary pass: the grading loop without early exit, recording
/// per-(pattern, output) detection bits and the first detecting pattern
/// per fault.
fn dict_pass<F: FaultModel>(
    program: &Arc<SimProgram>,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
    chunk: &[F],
) -> Result<Vec<DictEntry>, SimError> {
    let outs = program.output_nets.len();
    let words = signature_words(F::patterns(vectors.len()), outs);
    let mut entries = vec![
        DictEntry {
            first_pattern: None,
            signature: vec![0u64; words],
        };
        chunk.len()
    ];
    let mut sim: Simulator<DEFAULT_LANE_GROUPS> = Simulator::from_program(Arc::clone(program));
    F::begin_pass(&mut sim, chunk);
    for p in 0..F::patterns(vectors.len()) {
        F::apply(&mut sim, pins, vectors, p, chunk)?;
        for (o, &net) in sim.program().output_nets.iter().enumerate() {
            let det = detection_lanes(sim.get_packed(net));
            let bit = p * outs + o;
            for (i, e) in entries.iter_mut().enumerate() {
                if mask_bit(&det, i + 1) {
                    e.signature[bit / 64] |= 1 << (bit % 64);
                    if e.first_pattern.is_none() {
                        e.first_pattern = Some(p as u32);
                    }
                }
            }
        }
    }
    Ok(entries)
}

// ---------- wire codecs ----------

/// What a fault job computes per pass: the job block's mode byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Coverage grading: each unit result is the pass's detection mask.
    Grade = 0,
    /// Dictionary building: each unit result is one entry per fault.
    Dictionary = 1,
}

/// Serializes a fault job block (see the module docs for the layout) —
/// the job every model's kind shares.
#[must_use]
pub fn encode_job(
    program: &SimProgram,
    mode: Mode,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_block(&wire::encode_program(program));
    w.put_u8(mode as u8);
    w.put_usize(pins.len());
    for pin in pins {
        w.put_u32(pin.0);
    }
    w.put_usize(vectors.len());
    for v in vectors {
        w.put_usize(v.len());
        for &value in v {
            w.put_logic(value);
        }
    }
    w.finish()
}

/// Serializes a fault chunk (a work-unit payload): the count, then each
/// fault in its model's codec.
#[must_use]
pub fn encode_chunk<F: FaultModel>(faults: &[F]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(faults.len());
    for f in faults {
        f.encode(&mut w);
    }
    w.finish()
}

/// Deserializes a fault chunk.
///
/// # Errors
///
/// [`WireError`] on truncated or corrupt bytes.
pub(crate) fn decode_chunk<F: FaultModel>(bytes: &[u8]) -> Result<Vec<F>, WireError> {
    let mut r = WireReader::new(bytes);
    let count = r.get_count("fault count", MIN_FAULT_BYTES)?;
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        faults.push(F::decode(&mut r)?);
    }
    r.finish()?;
    Ok(faults)
}

// ---------- Exec work descriptions ----------

/// One compiled program and stimulus that fault chunks pass over: the
/// state both [`ExecWork`]s share. Each unit is one pass's chunk of up
/// to [`FAULTS_PER_PASS`] faults.
struct Passes<'a, F> {
    program: Arc<SimProgram>,
    pins: &'a [NetId],
    vectors: &'a [Vec<Logic>],
    model: PhantomData<F>,
}

impl<'a, F: FaultModel> Passes<'a, F> {
    fn new(m: &Module, pins: &'a [NetId], vectors: &'a [Vec<Logic>]) -> Result<Self, SimError> {
        validate_vectors(pins, vectors)?;
        Ok(Passes {
            program: Arc::new(SimProgram::compile(m)?),
            pins,
            vectors,
            model: PhantomData,
        })
    }

    fn encode_job(&self, mode: Mode) -> Vec<u8> {
        encode_job(&self.program, mode, self.pins, self.vectors)
    }
}

/// Grading: one unit per pass, the pass's detection mask as its result.
struct GradeWork<'a, F>(Passes<'a, F>);

impl<'a, F: FaultModel> ExecWork for GradeWork<'a, F> {
    type Unit = &'a [F];
    type Output = LaneMask<DEFAULT_LANE_GROUPS>;
    type Error = SimError;

    fn kind(&self) -> u16 {
        F::WIRE_KIND
    }

    fn encode_job(&self) -> Vec<u8> {
        self.0.encode_job(Mode::Grade)
    }

    fn encode_unit(&self, unit: &&'a [F]) -> Vec<u8> {
        encode_chunk(unit)
    }

    fn run_unit_local(&self, unit: &&'a [F]) -> Result<LaneMask<DEFAULT_LANE_GROUPS>, SimError> {
        let p = &self.0;
        grade_pass(&p.program, p.pins, p.vectors, unit)
    }

    fn decode_result(
        &self,
        _unit: &&'a [F],
        bytes: &[u8],
    ) -> Result<LaneMask<DEFAULT_LANE_GROUPS>, String> {
        shard::decode_lane_mask(bytes)
    }
}

/// Dictionary building: the same units as [`GradeWork`], one
/// [`DictEntry`] per fault as each unit's result.
struct DictWork<'a, F>(Passes<'a, F>);

impl<'a, F: FaultModel> ExecWork for DictWork<'a, F> {
    type Unit = &'a [F];
    type Output = Vec<DictEntry>;
    type Error = SimError;

    fn kind(&self) -> u16 {
        F::WIRE_KIND
    }

    fn encode_job(&self) -> Vec<u8> {
        self.0.encode_job(Mode::Dictionary)
    }

    fn encode_unit(&self, unit: &&'a [F]) -> Vec<u8> {
        encode_chunk(unit)
    }

    fn run_unit_local(&self, unit: &&'a [F]) -> Result<Vec<DictEntry>, SimError> {
        let p = &self.0;
        dict_pass(&p.program, p.pins, p.vectors, unit)
    }

    /// Entries are flattened into fault-list order, so a reply with a
    /// wrong entry count would shift every later entry onto the wrong
    /// fault: it is rejected, as is any signature of the wrong width.
    fn decode_result(&self, unit: &&'a [F], bytes: &[u8]) -> Result<Vec<DictEntry>, String> {
        let p = &self.0;
        let words = signature_words(F::patterns(p.vectors.len()), p.program.output_nets.len());
        let entries = decode_dict_entries(bytes, words)?;
        if entries.len() != unit.len() {
            return Err(format!(
                "dictionary unit result has {} entries, the unit has {} faults",
                entries.len(),
                unit.len()
            ));
        }
        Ok(entries)
    }
}

// ---------- entry points ----------

/// Packed grading of a static vector set applied to `pins` under fault
/// model `F` — each model's drive-and-settle per pattern
/// ([`FaultModel::apply`]), compare output ports — with **per-pass
/// fault dropping**: once every fault of a pass is detected, that
/// worker skips the remaining patterns and pulls the next pass. Each
/// pass grades up to [`FAULTS_PER_PASS`] faults next to the good
/// machine.
///
/// The single entry point for every model and every backend: `exec`
/// decides whether passes run inline, across threads or across
/// `steac-worker` processes ([`Exec::dispatch`]). Merging is by pass
/// index in every flavour, so the reports are byte-identical — the
/// exec-matrix integration test pins this.
///
/// # Errors
///
/// Propagates engine errors; process-backend failures surface as
/// [`SimError::Worker`] on the lowest-indexed failing pass (under
/// [`crate::exec::Fallback::Fail`]) or are recomputed in-thread and
/// recorded in [`Report::process_fallbacks`].
pub fn grade_vectors<F: FaultModel>(
    exec: &Exec,
    m: &Module,
    faults: &[F],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<Report<F>, SimError> {
    let work = GradeWork(Passes::new(m, pins, vectors)?);
    let mut masks = Vec::new();
    let dispatched = exec.dispatch(&work, faults.chunks(FAULTS_PER_PASS), |m| masks.push(m))?;
    let flags = shard::flags_from_lane_masks(faults.len(), FAULTS_PER_PASS, 1, &masks);
    Ok(Report::from_flags(faults, &flags, dispatched.fallbacks))
}

/// Builds the fault dictionary of `faults` over the patterns of
/// `vectors`: per fault, the first detecting pattern and the packed
/// per-(pattern, output) detection signature
/// [`diagnose`](dictionary::diagnose) consumes. Dispatched through the
/// same `Exec` seam as grading and byte-identical on every backend.
///
/// # Errors
///
/// As [`grade_vectors`].
pub fn fault_dictionary<F: FaultModel>(
    exec: &Exec,
    m: &Module,
    faults: &[F],
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Result<FaultDictionary, SimError> {
    let work = DictWork(Passes::new(m, pins, vectors)?);
    let mut entries = Vec::with_capacity(faults.len());
    exec.dispatch(&work, faults.chunks(FAULTS_PER_PASS), |unit| {
        entries.extend(unit);
    })?;
    Ok(FaultDictionary {
        patterns: F::patterns(vectors.len()) as u32,
        outputs: work.0.program.output_nets.len() as u32,
        entries,
    })
}

// ---------- worker-side wire job ----------

/// An opened fault job inside a worker process.
struct FaultJob<F> {
    program: Arc<SimProgram>,
    pins: Vec<NetId>,
    vectors: Vec<Vec<Logic>>,
    mode: Mode,
    model: PhantomData<F>,
}

impl<F: FaultModel> WireJob for FaultJob<F> {
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
        let chunk = decode_chunk::<F>(unit).map_err(|e| format!("fault unit: {e}"))?;
        if chunk.len() > FAULTS_PER_PASS {
            return Err(format!(
                "fault unit has {} faults, a pass holds at most {FAULTS_PER_PASS}",
                chunk.len()
            ));
        }
        if let Some(f) = chunk.iter().find(|f| !f.in_range(self.program.net_count)) {
            return Err(format!("fault {f} out of range"));
        }
        let (program, pins, vectors) = (&self.program, &self.pins[..], &self.vectors[..]);
        match self.mode {
            Mode::Grade => {
                grade_pass(program, pins, vectors, &chunk).map(|m| shard::encode_lane_mask(&m))
            }
            Mode::Dictionary => {
                dict_pass(program, pins, vectors, &chunk).map(|e| encode_dict_entries(&e))
            }
        }
        .map_err(|e| e.to_string())
    }
}

/// Most (pattern, output) bits one fault's signature may hold in a
/// shipped dictionary job: 2^20, or 128 KiB per fault. The largest
/// dictionary the suite builds, over a zoo glue netlist with 48–96
/// vectors, needs a few thousand. A dictionary unit allocates every
/// fault's signature before its first pattern runs, and an empty vector
/// costs 8 job bytes, so an uncapped job could demand any amount of
/// memory. In-thread runs take their vectors from the caller and have
/// no such cap.
const MAX_SIGNATURE_BITS: usize = 1 << 20;

/// Decodes a fault job block of model `F` (see [`encode_job`]) into the
/// executable job the worker loop drives — the `steac-worker` side of
/// [`grade_vectors`] and [`fault_dictionary`], registered under
/// [`FaultModel::WIRE_KIND`].
///
/// # Errors
///
/// A diagnostic on corrupt job bytes, or on a dictionary job whose
/// per-fault signature exceeds 2^20 (pattern, output) bits.
pub fn open_wire_job<F: FaultModel>(job: &[u8]) -> Result<Box<dyn WireJob>, String> {
    let mut r = WireReader::new(job);
    let program = wire::decode_program(
        r.get_block("fault job program")
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("fault job program: {e}"))?;
    let fail = |e: WireError| format!("fault job: {e}");
    let mode = match r.get_u8("fault job mode").map_err(fail)? {
        0 => Mode::Grade,
        1 => Mode::Dictionary,
        mode => return Err(format!("fault job mode {mode} unknown")),
    };
    let pin_count = r.get_count("fault job pins", 4).map_err(fail)?;
    let mut pins = Vec::with_capacity(pin_count);
    for _ in 0..pin_count {
        let net = r.get_u32("fault job pin").map_err(fail)?;
        if net as usize >= program.net_count {
            return Err(format!("fault job pin net {net} out of range"));
        }
        pins.push(NetId(net));
    }
    let vector_count = r.get_count("fault job vectors", 8).map_err(fail)?;
    let mut vectors = Vec::with_capacity(vector_count);
    for _ in 0..vector_count {
        let len = r.get_count("fault job vector", 1).map_err(fail)?;
        if len != pins.len() {
            return Err(format!(
                "fault job vector has {len} values, pin list has {}",
                pins.len()
            ));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(r.get_logic("fault job vector value").map_err(fail)?);
        }
        vectors.push(v);
    }
    r.finish().map_err(fail)?;
    let (patterns, outputs) = (F::patterns(vectors.len()), program.output_nets.len());
    if mode == Mode::Dictionary
        && patterns
            .checked_mul(outputs)
            .is_none_or(|bits| bits > MAX_SIGNATURE_BITS)
    {
        return Err(format!(
            "fault job dictionary signature of {patterns} patterns x {outputs} outputs \
             exceeds {MAX_SIGNATURE_BITS} bits per fault"
        ));
    }
    Ok(Box::new(FaultJob::<F> {
        program: Arc::new(program),
        pins,
        vectors,
        mode,
        model: PhantomData,
    }))
}

/// Gate-level fault models a vector-grading flow can select between.
///
/// This is the registry key the zoo corpus and the benches dispatch on;
/// the memory coupling model lives in `steac-membist` and is selected
/// by algorithm, not by this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// Single stuck-at faults ([`crate::fault::Fault`]).
    #[default]
    StuckAt,
    /// Transition/delay faults ([`transition::TransitionFault`]).
    Transition,
    /// AND/OR bridging faults ([`bridging::BridgingFault`]).
    Bridging,
}

impl ModelKind {
    /// Every selectable model, in registry order.
    pub const ALL: [ModelKind; 3] = [
        ModelKind::StuckAt,
        ModelKind::Transition,
        ModelKind::Bridging,
    ];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelKind::StuckAt => "stuck-at",
            ModelKind::Transition => "transition",
            ModelKind::Bridging => "bridging",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::bridging::{enumerate_bridges, BridgingFault};
    use super::transition::{enumerate_transition_faults, TransitionFault};
    use super::*;
    use crate::fault::{enumerate_faults, Fault};
    use steac_netlist::{GateKind, NetlistBuilder};

    /// A dictionary job whose per-fault signature passes the cap fails
    /// to open, naming the size; it is never run, so nothing large is
    /// allocated. The same job in grading mode opens.
    #[test]
    fn an_oversized_dictionary_job_fails_to_open() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.input("a");
        for o in 0..1024 {
            b.output(&format!("y{o}"), a);
        }
        let program = SimProgram::compile(&b.finish().unwrap()).unwrap();
        // 2^17 empty vectors (1 MiB of job) × 1,024 outputs = 2^27 bits.
        let vectors = vec![Vec::new(); 1 << 17];
        let job = |mode| encode_job(&program, mode, &[], &vectors);
        let err = open_wire_job::<Fault>(&job(Mode::Dictionary))
            .err()
            .expect("the job is over the cap");
        assert_eq!(
            err,
            "fault job dictionary signature of 131072 patterns x 1024 outputs \
             exceeds 1048576 bits per fault"
        );
        assert!(open_wire_job::<Fault>(&job(Mode::Grade)).is_ok());
    }

    fn and2() -> Module {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::And2, &[a, c]);
        b.output("y", y);
        b.finish().unwrap()
    }

    /// A report prints its model's noun and, for every model, the
    /// fallback note — which is absent (the text unchanged) at 0.
    fn check_display<F: FaultModel>(clean: &str) {
        let mut rep = Report::<F> {
            total: 4,
            detected: 3,
            undetected: Vec::new(),
            process_fallbacks: 0,
        };
        assert_eq!(rep.to_string(), clean);
        rep.process_fallbacks = 2;
        assert_eq!(
            rep.to_string(),
            format!("{clean} [process dispatch fell back in-thread x2]")
        );
    }

    #[test]
    fn every_report_shows_its_fallbacks() {
        check_display::<Fault>("3/4 faults detected (75.00%)");
        check_display::<TransitionFault>("3/4 transition faults detected (75.00%)");
        check_display::<BridgingFault>("3/4 bridging faults detected (75.00%)");
    }

    /// Unit payloads survive the wire codec; a prefix or an impossible
    /// tag byte is a typed error.
    fn check_codec<F: FaultModel>(faults: &[F]) {
        let bytes = encode_chunk(faults);
        assert_eq!(decode_chunk::<F>(&bytes).unwrap(), faults);
        assert!(decode_chunk::<F>(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_chunk::<F>(&bad),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn fault_chunk_codec_round_trips_for_every_model() {
        let m = and2();
        check_codec::<Fault>(&enumerate_faults(&m));
        check_codec::<TransitionFault>(&enumerate_transition_faults(&m));
        check_codec::<BridgingFault>(&enumerate_bridges(&m).unwrap());
    }

    /// Every model's dictionary agrees with its grading verdicts.
    fn check_dictionary<F: FaultModel>(m: &Module, vectors: &[Vec<Logic>]) {
        let faults = F::enumerate(m).unwrap();
        let pins = [m.port("a").unwrap().net, m.port("b").unwrap().net];
        let rep = grade_vectors(&Exec::serial(), m, &faults, &pins, vectors).unwrap();
        let dict = fault_dictionary(&Exec::serial(), m, &faults, &pins, vectors).unwrap();
        assert_eq!(dict.entries.len(), faults.len());
        assert_eq!(dict.patterns as usize, F::patterns(vectors.len()));
        for (f, e) in faults.iter().zip(&dict.entries) {
            let detected = !rep.undetected.contains(f);
            assert_eq!(e.first_pattern.is_some(), detected, "{f}");
            assert_eq!(e.signature.iter().any(|&w| w != 0), detected, "{f}");
        }
    }

    #[test]
    fn every_dictionary_agrees_with_grading() {
        use Logic::{One, Zero};
        let m = and2();
        let vectors = vec![vec![Zero, One], vec![One, Zero], vec![One, One]];
        check_dictionary::<Fault>(&m, &vectors);
        check_dictionary::<TransitionFault>(&m, &vectors);
        check_dictionary::<BridgingFault>(&m, &vectors);
    }

    /// A 300-gate chain of inverters, NANDs with `b`, latches enabled by
    /// `b` and XORs with `a`: every model lists more than one pass of
    /// faults here, and the latches make a settle iterate.
    fn chain() -> Module {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let en = b.input("b");
        let mut cur = a;
        for i in 0..300 {
            cur = match i % 4 {
                0 => b.gate(GateKind::Inv, &[cur]),
                1 => b.gate(GateKind::Nand2, &[cur, en]),
                2 => b.gate(GateKind::Latch, &[cur, en]),
                _ => b.gate(GateKind::Xor2, &[cur, a]),
            };
        }
        b.output("y", cur);
        b.finish().unwrap()
    }

    /// Grades and builds the dictionary of every pass of `F`'s fault
    /// list on both programs, which must agree pass for pass.
    fn check_settles_agree<F: FaultModel>(
        m: &Module,
        [raw, opt]: [&Arc<SimProgram>; 2],
        vectors: &[Vec<Logic>],
    ) {
        let noun = F::NOUN;
        let faults = F::enumerate(m).unwrap();
        assert!(
            faults.len() > FAULTS_PER_PASS,
            "{noun}: need several passes"
        );
        let pins = [m.port("a").unwrap().net, m.port("b").unwrap().net];
        let mut detected = 0;
        for (pass, chunk) in faults.chunks(FAULTS_PER_PASS).enumerate() {
            let mask = grade_pass(raw, &pins, vectors, chunk).unwrap();
            let fast = grade_pass(opt, &pins, vectors, chunk).unwrap();
            assert_eq!(fast, mask, "{noun} pass {pass}: grading masks differ");
            let entries = dict_pass(raw, &pins, vectors, chunk).unwrap();
            let fast = dict_pass(opt, &pins, vectors, chunk).unwrap();
            assert_eq!(
                fast, entries,
                "{noun} pass {pass}: dictionary entries differ"
            );
            detected += entries.iter().filter(|e| e.first_pattern.is_some()).count();
        }
        assert!(detected > 0, "{noun}: need detections");
    }

    /// The single-sweep settle of the optimized program grades and
    /// builds dictionaries exactly like the raw program's
    /// change-detecting settle, for every gate-level model.
    #[test]
    fn optimized_program_passes_equal_the_raw_programs() {
        use Logic::{One, Zero};
        let m = chain();
        let raw = Arc::new(SimProgram::compile_unoptimized(&m).unwrap());
        let opt = Arc::new(SimProgram::compile(&m).unwrap());
        assert!(!raw.opt.scheduled && opt.opt.scheduled);
        let vectors = [
            [Zero, One],
            [One, One],
            [One, Zero],
            [Zero, One],
            [Zero, Zero],
        ]
        .map(Vec::from);
        check_settles_agree::<Fault>(&m, [&raw, &opt], &vectors);
        check_settles_agree::<TransitionFault>(&m, [&raw, &opt], &vectors);
        check_settles_agree::<BridgingFault>(&m, [&raw, &opt], &vectors);
    }

    /// A dictionary reply is checked against the unit it answers: a
    /// short, long or ragged reply is an error, never a shifted
    /// dictionary.
    #[test]
    fn dictionary_replies_must_match_their_unit() {
        use Logic::{One, Zero};
        let m = and2();
        let faults = enumerate_faults(&m);
        let pins = [m.port("a").unwrap().net, m.port("b").unwrap().net];
        let vectors = vec![vec![Zero, One], vec![One, One]];
        let work = DictWork(Passes::new(&m, &pins, &vectors).unwrap());
        let unit = &faults[..];
        let entries = work.run_unit_local(&unit).unwrap();
        assert_eq!(entries.len(), faults.len());
        let good = encode_dict_entries(&entries);
        assert_eq!(work.decode_result(&unit, &good).unwrap(), entries);
        let short = encode_dict_entries(&entries[1..]);
        assert!(work.decode_result(&unit, &short).is_err());
        let mut long = entries.clone();
        long.push(entries[0].clone());
        assert!(work
            .decode_result(&unit, &encode_dict_entries(&long))
            .is_err());
        let mut ragged = entries.clone();
        ragged[2].signature.push(0);
        assert!(work
            .decode_result(&unit, &encode_dict_entries(&ragged))
            .is_err());
    }

    /// A worker rejects a unit that overfills a pass or names a net the
    /// program lacks, instead of panicking on the lane or net index.
    #[test]
    fn worker_rejects_oversized_and_out_of_range_units() {
        let m = and2();
        let program = SimProgram::compile(&m).unwrap();
        let pins = [m.port("a").unwrap().net, m.port("b").unwrap().net];
        let vectors = [vec![Logic::One, Logic::One]];
        let job = encode_job(&program, Mode::Grade, &pins, &vectors);
        let mut opened = open_wire_job::<Fault>(&job).unwrap();
        let f = Fault {
            net: pins[0],
            stuck: crate::fault::StuckAt::Zero,
        };
        assert!(opened.run_unit(&encode_chunk(&[f; 255])).is_ok());
        assert!(opened.run_unit(&encode_chunk(&[f; 256])).is_err());
        let far = Fault {
            net: NetId(999),
            ..f
        };
        assert!(opened.run_unit(&encode_chunk(&[far])).is_err());
    }
}
