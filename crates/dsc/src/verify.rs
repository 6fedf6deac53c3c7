//! Pattern-verification experiments on the DSC cores, riding the
//! bit-parallel simulation kernel.
//!
//! The paper's flow ends with chip-level ATE patterns; verifying them
//! against the gate-level netlist is a pure simulation workload — the
//! experiment here is the JPEG core's functional-pattern verification,
//! the largest single pattern set of Table 1 (235,696 functional
//! patterns on silicon; `examples/jpeg_full_playback.rs` plays the
//! full set end to end, the tests a sampled subset the same way).
//!
//! Like a real ATE flow, verification is a **streaming pipeline**:
//! [`jpeg_playback_stream`] runs pattern generation as a producer —
//! generator threads computing [`LANES`]-sized blocks of stimulus +
//! expected responses, feeding a bounded block queue — while the cycle
//! player ([`steac_pattern::stream_cycle_patterns`]) consumes the
//! blocks as they arrive, so generation (the slow phase, ~11–12k
//! patterns/s) overlaps playback and peak memory is bounded by queue
//! depth, never set size. [`jpeg_playback_batch`] is the materialized
//! flavour — generate everything, then play — kept as the differential
//! baseline; the two produce byte-identical [`PlaybackReport`]s. One
//! [`Exec`] value picks the backend for the whole experiment: playback
//! chunks dispatch through [`Exec::dispatch`] (inline, threads,
//! `steac-worker` processes, or a remote fleet), and generation —
//! whose expected-response closures cannot cross a process boundary —
//! shards on the backend's in-process pool. Reports are byte-identical
//! on every backend.

use crate::cores::{jpeg_core, CoreParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use steac_netlist::Module;
use steac_pattern::{stream_cycle_patterns, CyclePattern, PatternError, PinState};
use steac_sim::{Exec, Logic, SimError, SimProgram, Simulator, LANES};

/// Outcome of a batched playback experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaybackReport {
    /// Patterns played.
    pub patterns: usize,
    /// Tester cycles represented (sum over patterns).
    pub cycles: u64,
    /// Compares performed (sum over patterns).
    pub compares: u64,
    /// Total mismatching compares (0 for a healthy netlist).
    pub mismatches: usize,
    /// Packed passes the player needed
    /// (⌈patterns / (64 · [`steac_pattern::PLAYBACK_LANE_GROUPS`])⌉).
    pub passes: usize,
    /// Shipped playback batches recomputed in-thread while producing
    /// this report (0 unless the `Exec` runs a process or remote backend
    /// under [`steac_sim::Fallback::InThread`] and batches failed); the
    /// verdicts are unaffected. Every other field is backend-invariant,
    /// so healthy reports compare equal across serial, thread and
    /// process execution.
    pub process_fallbacks: usize,
}

/// Deterministic per-pattern stimulus (SplitMix64, so the experiment is
/// reproducible without an RNG dependency).
fn stimulus_bit(pattern: usize, pin: usize) -> bool {
    let mut z = (pattern as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pin as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// Everything JPEG pattern generation and playback share: the module,
/// its compiled program (compiled exactly once), the core parameters
/// and the pattern pin list (PIs, then the clock, then POs).
struct JpegRig {
    module: Module,
    program: Arc<SimProgram>,
    params: CoreParams,
    pins: Vec<String>,
}

fn jpeg_rig() -> Result<JpegRig, PatternError> {
    let (module, params) = jpeg_core().map_err(|e| PatternError::Sim(SimError::Netlist(e)))?;
    let mut pins: Vec<String> = params.pi.clone();
    pins.push(params.clocks[0].clone());
    pins.extend(params.po.iter().cloned());
    let program = Arc::new(SimProgram::compile(&module)?);
    Ok(JpegRig {
        module,
        program,
        params,
        pins,
    })
}

/// Generates block `bi` (up to [`LANES`] two-cycle patterns: drive PIs +
/// pulse `ck`, then compare every PO) of the `count`-pattern JPEG set,
/// with expected responses computed by a scalar reference simulation of
/// each pattern. Pattern `k` depends only on `k`, so the output is
/// identical on every backend, at every width and in any block order —
/// the foundation of both the materialized and the streaming flow.
fn generate_block(
    rig: &JpegRig,
    bi: usize,
    count: usize,
) -> Result<Vec<CyclePattern>, PatternError> {
    let n_pi = rig.params.pi.len();
    let mut sim: Simulator = Simulator::from_program(Arc::clone(&rig.program));
    let mut block = Vec::with_capacity(LANES);
    for k in (bi * LANES..count).take(LANES) {
        let drives: Vec<Logic> = (0..n_pi).map(|i| Logic::from(stimulus_bit(k, i))).collect();
        // Scalar reference run from the power-on state (the batch
        // player resets each chunk the same way).
        sim.reset_to_x();
        for (name, &v) in rig.params.pi.iter().zip(&drives) {
            sim.set_by_name(name, v)?;
        }
        sim.clock_cycle_by_name(&rig.params.clocks[0])?;
        let expected: Vec<Logic> = rig
            .params
            .po
            .iter()
            .map(|name| sim.get_by_name(name))
            .collect::<Result<_, _>>()?;

        let mut p = CyclePattern::new(rig.pins.clone());
        let mut capture_row: Vec<PinState> =
            drives.iter().map(|&v| PinState::from_drive(v)).collect();
        capture_row.push(PinState::Pulse);
        capture_row.extend(std::iter::repeat_n(PinState::DontCare, rig.params.po.len()));
        p.push_cycle(capture_row)?;
        let mut compare_row: Vec<PinState> =
            drives.iter().map(|&v| PinState::from_drive(v)).collect();
        compare_row.push(PinState::Drive0);
        compare_row.extend(expected.iter().map(|&v| PinState::from_expect(v)));
        p.push_cycle(compare_row)?;
        block.push(p);
    }
    Ok(block)
}

/// Builds `count` two-cycle functional patterns for the JPEG core. The
/// expected-response simulations are independent per pattern, so
/// generation fans [`LANES`]-pattern blocks across the backend's
/// in-process pool ([`Exec::run_fallible`]); the output is identical on
/// every backend and at every width.
///
/// # Errors
///
/// Propagates netlist and simulation errors.
pub fn jpeg_functional_patterns(
    exec: &Exec,
    count: usize,
) -> Result<(Module, Vec<CyclePattern>), PatternError> {
    let (module, program, patterns) = jpeg_patterns_and_program(exec, count)?;
    drop(program);
    Ok((module, patterns))
}

/// Shared generation core: compiles the JPEG module once and returns the
/// program alongside the patterns, so playback never recompiles it.
#[allow(clippy::type_complexity)]
fn jpeg_patterns_and_program(
    exec: &Exec,
    count: usize,
) -> Result<(Module, Arc<SimProgram>, Vec<CyclePattern>), PatternError> {
    let rig = jpeg_rig()?;
    let blocks = count.div_ceil(LANES);
    let per_block = exec.run_fallible(blocks, |bi| generate_block(&rig, bi, count))?;
    Ok((
        rig.module,
        rig.program,
        per_block.into_iter().flatten().collect(),
    ))
}

/// Verifies `count` JPEG functional patterns the **materialized** way:
/// generate the whole set, then play it through the streaming cycle
/// player at full-width chunks (one pattern per lane,
/// `64 * PLAYBACK_LANE_GROUPS` per pass; see
/// [`steac_pattern::PLAYBACK_LANE_GROUPS`]) and aggregate the result.
/// `exec` decides whether playback chunks run inline, across threads,
/// across `steac-worker` processes or on a remote fleet, and the report
/// is byte-identical in every flavour — and to
/// [`jpeg_playback_stream`], the constant-memory pipeline this is the
/// differential baseline for.
///
/// # Errors
///
/// Propagates netlist, pattern and simulation errors; a failing worker
/// surfaces as the lowest-indexed failing chunk's error (under
/// [`steac_sim::Fallback::Fail`]).
pub fn jpeg_playback_batch(exec: &Exec, count: usize) -> Result<PlaybackReport, PatternError> {
    let (_module, program, patterns) = jpeg_patterns_and_program(exec, count)?;
    let sim: Simulator = Simulator::from_program(program);
    let cycles: u64 = patterns.iter().map(CyclePattern::cycle_count).sum();
    let mut fold = ReportFold::default();
    let run = stream_cycle_patterns(exec, &sim, patterns.into_iter(), |r| fold.add(&r))?;
    Ok(fold.into_report(cycles, count, run.process_fallbacks))
}

/// Verifies `count` JPEG functional patterns as a **streaming
/// pipeline**: generator threads (the backend's in-process width)
/// produce [`LANES`]-pattern blocks into a bounded queue while the
/// cycle player consumes them through [`Exec::dispatch`], so the
/// full pattern set is never materialized — peak memory follows the
/// queue depth, not `count` — and generation overlaps playback. Blocks
/// are re-ordered to pattern order before they reach the player, so the
/// report is byte-identical to [`jpeg_playback_batch`] on every
/// backend.
///
/// # Errors
///
/// Propagates netlist, pattern and simulation errors; the lowest-indexed
/// failure wins (a dispatch error always precedes a generation error's
/// truncation point in pattern order, so it takes precedence).
pub fn jpeg_playback_stream(exec: &Exec, count: usize) -> Result<PlaybackReport, PatternError> {
    let rig = jpeg_rig()?;
    let sim: Simulator = Simulator::from_program(Arc::clone(&rig.program));
    let blocks = count.div_ceil(LANES);
    let generators = exec.local_threads().get().min(blocks.max(1));
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let gen_error: Mutex<Option<PatternError>> = Mutex::new(None);
    let cycles = AtomicU64::new(0);
    // Bounded handoff: at most 2 blocks per generator queued, so the
    // producer side holds O(generators) blocks however far ahead
    // generation runs.
    let (tx, rx) = mpsc::sync_channel::<(usize, Vec<CyclePattern>)>(generators * 2);

    let mut fold = ReportFold::default();
    let streamed = std::thread::scope(|scope| {
        for _ in 0..generators {
            let tx = tx.clone();
            let (rig, cursor, abort, gen_error) = (&rig, &cursor, &abort, &gen_error);
            scope.spawn(move || loop {
                // Checked before pulling the next index so an error
                // leaves only already-in-flight blocks to drain — the
                // consumer's reorder buffer stays bounded past the hole.
                if abort.load(Ordering::Acquire) {
                    break;
                }
                let bi = cursor.fetch_add(1, Ordering::Relaxed);
                if bi >= blocks {
                    break;
                }
                match generate_block(rig, bi, count) {
                    Ok(block) => {
                        if tx.send((bi, block)).is_err() {
                            break; // consumer gone (dispatch error)
                        }
                    }
                    Err(e) => {
                        let mut cell = gen_error.lock().expect("generator poisoned");
                        if cell.is_none() {
                            *cell = Some(e);
                        }
                        abort.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
        drop(tx);
        let feed = BlockStream {
            rx,
            pending: BTreeMap::new(),
            next: 0,
            current: Vec::new().into_iter(),
            cycles: &cycles,
        };
        stream_cycle_patterns(exec, &sim, feed, |r| fold.add(&r))
    });
    // A dispatch error is always lower-indexed than a generation
    // error's truncation point, so it wins.
    let run = streamed?;
    if let Some(e) = gen_error.into_inner().expect("generator poisoned") {
        return Err(e);
    }
    Ok(fold.into_report(cycles.into_inner(), count, run.process_fallbacks))
}

/// In-order pattern feed for the streaming pipeline: receives
/// `(block index, block)` pairs from the generator threads — which race
/// and finish out of order — and yields the patterns in pattern order,
/// buffering at most the in-flight blocks. Counts tester cycles as
/// patterns flow past, since the streaming flow never holds the set to
/// sum over.
struct BlockStream<'a> {
    rx: mpsc::Receiver<(usize, Vec<CyclePattern>)>,
    pending: BTreeMap<usize, Vec<CyclePattern>>,
    next: usize,
    current: std::vec::IntoIter<CyclePattern>,
    cycles: &'a AtomicU64,
}

impl Iterator for BlockStream<'_> {
    type Item = CyclePattern;

    fn next(&mut self) -> Option<CyclePattern> {
        loop {
            if let Some(p) = self.current.next() {
                self.cycles.fetch_add(p.cycle_count(), Ordering::Relaxed);
                return Some(p);
            }
            loop {
                if let Some(block) = self.pending.remove(&self.next) {
                    self.next += 1;
                    self.current = block.into_iter();
                    break;
                }
                match self.rx.recv() {
                    Ok((bi, block)) => {
                        self.pending.insert(bi, block);
                    }
                    // Generators done (or aborted): the stream ends at
                    // the first hole.
                    Err(_) => return None,
                }
            }
        }
    }
}

/// Folds per-pattern mismatch reports into one [`PlaybackReport`] as
/// they arrive — shared by the materialized and streaming flows so the
/// aggregation can never diverge.
#[derive(Default)]
struct ReportFold {
    patterns: usize,
    compares: u64,
    mismatches: usize,
}

impl ReportFold {
    fn add(&mut self, r: &steac_pattern::MismatchReport) {
        self.patterns += 1;
        self.compares += r.compares;
        self.mismatches += r.mismatches.len();
    }

    fn into_report(self, cycles: u64, count: usize, process_fallbacks: usize) -> PlaybackReport {
        PlaybackReport {
            patterns: self.patterns,
            cycles,
            compares: self.compares,
            mismatches: self.mismatches,
            passes: count.div_ceil(LANES * steac_pattern::PLAYBACK_LANE_GROUPS),
            process_fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_pattern::apply_cycle_pattern;
    use steac_sim::Threads;

    fn exec() -> Exec {
        Exec::from_env()
    }

    /// The batched verdict must equal per-pattern scalar playback — and
    /// pass: the expectations were computed from the same netlist.
    #[test]
    fn jpeg_batched_playback_is_clean_and_matches_scalar() {
        let count = 70; // > 64: exercises chunking
        let (module, patterns) = jpeg_functional_patterns(&exec(), count).unwrap();
        let sim: Simulator = Simulator::new(&module).unwrap();
        let mut batch = Vec::new();
        stream_cycle_patterns(&exec(), &sim, patterns.iter().cloned(), |r| batch.push(r)).unwrap();
        assert_eq!(batch.len(), count);
        for (i, p) in patterns.iter().enumerate() {
            let mut scalar_sim = Simulator::new(&module).unwrap();
            let scalar = apply_cycle_pattern(&mut scalar_sim, p).unwrap();
            assert_eq!(batch[i].compares, scalar.compares, "pattern {i}");
            assert_eq!(batch[i].mismatches, scalar.mismatches, "pattern {i}");
            assert!(batch[i].passed(), "pattern {i}: {}", batch[i]);
        }
    }

    #[test]
    fn playback_report_aggregates() {
        let rep = jpeg_playback_batch(&Exec::threads(Threads::exact(2)), 10).unwrap();
        assert_eq!(rep.patterns, 10);
        assert_eq!(rep.cycles, 20);
        assert_eq!(rep.mismatches, 0);
        assert_eq!(rep.passes, 1);
        assert_eq!(rep.compares, 10 * 104); // every PO compared once
        assert_eq!(rep.process_fallbacks, 0);
    }

    /// Generation and the whole playback report are bit-identical on the
    /// serial backend and at every thread count — every field of
    /// `PlaybackReport` is backend-invariant now, so the reports compare
    /// equal as values.
    #[test]
    fn jpeg_generation_and_playback_are_backend_invariant_in_process() {
        let count = 130; // three blocks
        let (_, baseline) = jpeg_functional_patterns(&Exec::serial(), count).unwrap();
        let base_rep = jpeg_playback_batch(&Exec::serial(), count).unwrap();
        for t in [2, 4] {
            let threaded = Exec::threads(Threads::exact(t));
            let (_, sharded) = jpeg_functional_patterns(&threaded, count).unwrap();
            assert_eq!(sharded, baseline, "{t} threads");
            let rep = jpeg_playback_batch(&threaded, count).unwrap();
            assert_eq!(rep, base_rep, "{t} threads");
        }
    }

    #[test]
    fn corrupted_expectation_is_caught() {
        let (module, mut patterns) = jpeg_functional_patterns(&exec(), 3).unwrap();
        // Flip one expectation of pattern 1.
        let row = patterns[1].cycles.len() - 1;
        let col = patterns[1].pins.len() - 1;
        patterns[1].cycles[row][col] = match patterns[1].cycles[row][col] {
            PinState::ExpectH => PinState::ExpectL,
            _ => PinState::ExpectH,
        };
        let sim: Simulator = Simulator::new(&module).unwrap();
        let mut reports = Vec::new();
        stream_cycle_patterns(&exec(), &sim, patterns.into_iter(), |r| reports.push(r)).unwrap();
        assert!(reports[0].passed());
        assert!(!reports[1].passed());
        assert!(reports[2].passed());
    }

    /// The streaming pipeline's report must be byte-identical to the
    /// materialized flow's on the in-process backends — the streaming
    /// seam (bounded queues, racing generators, chunked dispatch) is
    /// invisible in the outcome.
    #[test]
    fn streaming_playback_matches_the_materialized_report() {
        let count = 150; // three generation blocks
        let base = jpeg_playback_batch(&Exec::serial(), count).unwrap();
        assert_eq!(base.patterns, count);
        assert_eq!(base.mismatches, 0);
        for (name, exec) in [
            ("serial", Exec::serial()),
            ("threads:3", Exec::threads(Threads::exact(3))),
        ] {
            let rep = jpeg_playback_stream(&exec, count).unwrap();
            assert_eq!(rep, base, "{name}");
        }
    }
}
