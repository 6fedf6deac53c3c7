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
//! Generation and playback are two [`ExecWork`]s dispatched through
//! [`Exec::dispatch`], so one [`Exec`] value runs both inline, across
//! threads, on `steac-worker` processes or on a remote fleet.
//! Generation's unit is a [`LANES`]-pattern block index. Its job
//! (wire kind [`WIRE_KIND`]) holds the compiled program, the PI, clock
//! and PO nets and the set size; a unit's result is each pattern's
//! expected PO values, computed by a scalar reference simulation from
//! the power-on state, and the dispatching side builds the
//! [`CyclePattern`]s from them. Pattern `k` depends only on `k`, so the
//! set is identical on every backend and in any block order.
//!
//! [`jpeg_playback_stream`] chains the two dispatches: generation runs
//! on one scoped thread, its sink feeds a bounded channel of blocks,
//! and the cycle player ([`steac_pattern::stream_cycle_patterns`])
//! reads that channel as its input. Both dispatches deliver in unit
//! order, so nothing else reorders, and the set is never materialized:
//! what is in flight is bounded by the generation dispatch window, four
//! blocks queued in the channel and the playback dispatch window, each
//! in 64-pattern blocks. A dispatch window is two batches per
//! dispatcher — 4 blocks on `threads:2`, 8 batches of 32 blocks on
//! `processes:2` — so the bound follows the backend, never the set
//! size. [`jpeg_playback_batch`] generates the whole set and then plays
//! it; it is the differential baseline, and the two produce
//! byte-identical [`PlaybackReport`]s.

use crate::cores::jpeg_core;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use steac_netlist::{Module, NetId};
use steac_pattern::{
    stream_cycle_patterns, CyclePattern, PatternError, PinState, PLAYBACK_LANE_GROUPS,
};
use steac_sim::shard::{self, PoolError};
use steac_sim::wire::{self, WireError, WireReader, WireWriter};
use steac_sim::{Dispatch, Exec, ExecWork, Logic, SimError, SimProgram, Simulator, LANES};

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
    /// Shipped generation and playback batches recomputed in-thread
    /// while producing this report (0 unless the `Exec` runs a process
    /// or remote backend under [`steac_sim::Fallback::InThread`] and
    /// batches failed); the verdicts are unaffected. Every other field
    /// is backend-invariant, so healthy reports compare equal across
    /// serial, thread and process execution.
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

/// Blocks the generation sink may queue for playback in
/// [`jpeg_playback_stream`].
const QUEUED_BLOCKS: usize = 4;

/// The patterns of block `bi` of a `count`-pattern set. A block at or
/// past ⌈count / 64⌉ is a typed error, checked so that no index
/// overflows.
fn block_patterns(bi: usize, count: usize) -> Result<Range<usize>, WireError> {
    bi.checked_mul(LANES)
        .filter(|&start| start < count)
        .map(|start| start..count.min(start.saturating_add(LANES)))
        .ok_or(WireError::Corrupt {
            context: "generation block index",
        })
}

/// JPEG pattern generation as an [`ExecWork`]: one unit per
/// [`LANES`]-pattern block index, one two-cycle [`CyclePattern`] per
/// pattern (drive the PIs and pulse the clock, then compare every PO).
/// A worker opens the same value from the job block, without the pin
/// names, and runs units as a [`shard::WireJob`].
struct GenerateWork {
    program: Arc<SimProgram>,
    /// The pattern pin list: PIs, then the clock, then POs. Empty in a
    /// worker, which only computes expected values.
    pins: Vec<String>,
    pi: Vec<NetId>,
    clock: NetId,
    po: Vec<NetId>,
    count: usize,
}

impl GenerateWork {
    /// Compiles the JPEG core once and resolves its pins, for a
    /// `count`-pattern set.
    fn jpeg(count: usize) -> Result<(Module, Self), PatternError> {
        let (module, params) = jpeg_core().map_err(|e| PatternError::Sim(SimError::Netlist(e)))?;
        let program = Arc::new(SimProgram::compile(&module)?);
        let net = |name: &String| {
            program
                .port_net(name)
                .ok_or_else(|| PatternError::UnknownPin { name: name.clone() })
        };
        let pi = params.pi.iter().map(net).collect::<Result<_, _>>()?;
        let clock = net(&params.clocks[0])?;
        let po = params.po.iter().map(net).collect::<Result<_, _>>()?;
        let mut pins = params.pi;
        pins.push(params.clocks[0].clone());
        pins.extend(params.po);
        let work = GenerateWork {
            program,
            pins,
            pi,
            clock,
            po,
            count,
        };
        Ok((module, work))
    }

    /// The dispatch input: every block index of the set.
    fn blocks(&self) -> Range<usize> {
        0..self.count.div_ceil(LANES)
    }

    /// The patterns of block `bi`, which the dispatch input produced.
    fn patterns(&self, bi: usize) -> Range<usize> {
        block_patterns(bi, self.count).expect("dispatched blocks lie inside the set")
    }

    /// Each pattern's expected PO values: pattern `k` drives PI `i` with
    /// `stimulus_bit(k, i)` from the power-on (all-`X`) state, pulses
    /// the clock once and reads every PO.
    fn expected(&self, patterns: Range<usize>) -> Result<Vec<Vec<Logic>>, SimError> {
        let mut sim: Simulator = Simulator::from_program(Arc::clone(&self.program));
        patterns
            .map(|k| {
                sim.reset_to_x();
                for (i, &net) in self.pi.iter().enumerate() {
                    sim.set(net, Logic::from(stimulus_bit(k, i)));
                }
                sim.clock_cycle(self.clock)?;
                Ok(self.po.iter().map(|&net| sim.get(net)).collect())
            })
            .collect()
    }

    /// Builds the patterns starting at `first` from their expected PO
    /// values.
    fn build(
        &self,
        first: usize,
        expected: Vec<Vec<Logic>>,
    ) -> Result<Vec<CyclePattern>, PatternError> {
        let mut block = Vec::with_capacity(expected.len());
        for (k, expected) in (first..).zip(expected) {
            let drives =
                (0..self.pi.len()).map(|i| PinState::from_drive(Logic::from(stimulus_bit(k, i))));
            let mut p = CyclePattern::new(self.pins.clone());
            let mut capture_row: Vec<PinState> = drives.clone().collect();
            capture_row.push(PinState::Pulse);
            capture_row.extend(std::iter::repeat_n(PinState::DontCare, self.po.len()));
            p.push_cycle(capture_row)?;
            let mut compare_row: Vec<PinState> = drives.collect();
            compare_row.push(PinState::Drive0);
            compare_row.extend(expected.into_iter().map(PinState::from_expect));
            p.push_cycle(compare_row)?;
            block.push(p);
        }
        Ok(block)
    }

    /// Opens a [`WIRE_KIND`] job block; a PI, clock or PO net at or past
    /// the program's net count is a typed error.
    fn decode(job: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(job);
        let program = wire::decode_program(r.get_block("generation job program")?)?;
        let net = |r: &mut WireReader<'_>, context| {
            let net = r.get_u32(context)?;
            if net as usize >= program.net_count {
                return Err(WireError::Corrupt { context });
            }
            Ok(NetId(net))
        };
        let nets = |r: &mut WireReader<'_>, list, context| -> Result<Vec<NetId>, WireError> {
            let count = r.get_count(list, 4)?;
            (0..count).map(|_| net(r, context)).collect()
        };
        let pi = nets(&mut r, "generation job PIs", "generation job PI net")?;
        let clock = net(&mut r, "generation job clock net")?;
        let po = nets(&mut r, "generation job POs", "generation job PO net")?;
        let count = r.get_usize("generation job pattern count")?;
        r.finish()?;
        Ok(GenerateWork {
            program: Arc::new(program),
            pins: Vec::new(),
            pi,
            clock,
            po,
            count,
        })
    }

    /// Decodes a unit's block index and returns its patterns.
    fn unit_patterns(&self, unit: &[u8]) -> Result<Range<usize>, WireError> {
        let mut r = WireReader::new(unit);
        let bi = r.get_usize("generation block index")?;
        r.finish()?;
        block_patterns(bi, self.count)
    }
}

impl ExecWork for GenerateWork {
    type Unit = usize;
    type Output = Vec<CyclePattern>;
    type Error = PatternError;

    fn kind(&self) -> u16 {
        WIRE_KIND
    }

    fn encode_job(&self) -> Vec<u8> {
        encode_generate_job(&self.program, &self.pi, self.clock, &self.po, self.count)
    }

    fn encode_unit(&self, bi: &usize) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_usize(*bi);
        w.finish()
    }

    fn run_unit_local(&self, bi: &usize) -> Result<Vec<CyclePattern>, PatternError> {
        let patterns = self.patterns(*bi);
        let expected = self.expected(patterns.clone())?;
        self.build(patterns.start, expected)
    }

    fn decode_result(&self, bi: &usize, bytes: &[u8]) -> Result<Vec<CyclePattern>, String> {
        let patterns = self.patterns(*bi);
        let expected = decode_expected(bytes, patterns.len(), self.po.len())
            .map_err(|e| format!("generation result: {e}"))?;
        self.build(patterns.start, expected)
            .map_err(|e| e.to_string())
    }

    fn pool_error(&self, error: PoolError) -> PatternError {
        PatternError::Sim(SimError::from(error))
    }
}

impl shard::WireJob for GenerateWork {
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
        let patterns = self
            .unit_patterns(unit)
            .map_err(|e| format!("generation unit: {e}"))?;
        let expected = self.expected(patterns).map_err(|e| e.to_string())?;
        Ok(encode_expected(&expected, self.po.len()))
    }
}

// ---------- wire codecs ----------

/// Work-unit kind the worker-side job registry routes to
/// [`open_wire_job`]: one 64-pattern block of the JPEG functional set.
pub const WIRE_KIND: u16 = 7;

/// Job block: compiled program, PI nets, clock net, PO nets and the
/// set size. Public only so the worker-totality sweeps can build a job
/// over a module small enough to flip every byte of.
#[doc(hidden)]
#[must_use]
pub fn encode_generate_job(
    program: &SimProgram,
    pi: &[NetId],
    clock: NetId,
    po: &[NetId],
    count: usize,
) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_block(&wire::encode_program(program));
    w.put_usize(pi.len());
    pi.iter().for_each(|net| w.put_u32(net.0));
    w.put_u32(clock.0);
    w.put_usize(po.len());
    po.iter().for_each(|net| w.put_u32(net.0));
    w.put_usize(count);
    w.finish()
}

/// Result payload: the pattern count, the values per pattern, then
/// every pattern's expected PO values.
fn encode_expected(expected: &[Vec<Logic>], values: usize) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(expected.len());
    w.put_usize(values);
    expected.iter().flatten().for_each(|&v| w.put_logic(v));
    w.finish()
}

/// Decodes a result payload that must hold `patterns` patterns of
/// `values` expected values each.
fn decode_expected(
    bytes: &[u8],
    patterns: usize,
    values: usize,
) -> Result<Vec<Vec<Logic>>, WireError> {
    let mut r = WireReader::new(bytes);
    for (context, want) in [
        ("generated pattern count", patterns),
        ("expected values per pattern", values),
    ] {
        if r.get_usize(context)? != want {
            return Err(WireError::Corrupt { context });
        }
    }
    let expected = (0..patterns)
        .map(|_| (0..values).map(|_| r.get_logic("expected value")).collect())
        .collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(expected)
}

/// Decodes a [`WIRE_KIND`] job block into the executable generation
/// job — the `steac-worker` side of shipped JPEG generation.
///
/// # Errors
///
/// A diagnostic on corrupt job bytes, including a PI, clock or PO net
/// outside the program.
pub fn open_wire_job(job: &[u8]) -> Result<Box<dyn shard::WireJob>, String> {
    let job = GenerateWork::decode(job).map_err(|e| format!("generation job: {e}"))?;
    Ok(Box::new(job))
}

// ---------- the experiments ----------

/// Collects one generation dispatch over the whole set.
fn generate_all(
    exec: &Exec,
    work: &GenerateWork,
) -> Result<(Vec<CyclePattern>, Dispatch), PatternError> {
    let mut patterns = Vec::with_capacity(work.count);
    let generated = exec.dispatch(work, work.blocks(), |block| patterns.extend(block))?;
    Ok((patterns, generated))
}

/// Builds `count` two-cycle functional patterns for the JPEG core: one
/// generation dispatch of [`LANES`]-pattern blocks on `exec`, collected
/// in pattern order. The output is identical on every backend and at
/// every width.
///
/// # Errors
///
/// Propagates netlist and simulation errors; a failing worker surfaces
/// as the lowest-indexed failing block's error (under
/// [`steac_sim::Fallback::Fail`]).
pub fn jpeg_functional_patterns(
    exec: &Exec,
    count: usize,
) -> Result<(Module, Vec<CyclePattern>), PatternError> {
    let (module, work) = GenerateWork::jpeg(count)?;
    let (patterns, _) = generate_all(exec, &work)?;
    Ok((module, patterns))
}

/// Verifies `count` JPEG functional patterns the **materialized** way:
/// generate the whole set, then play it through the streaming cycle
/// player at full-width chunks (one pattern per lane,
/// `64 * PLAYBACK_LANE_GROUPS` per pass; see
/// [`steac_pattern::PLAYBACK_LANE_GROUPS`]) and aggregate the result.
/// `exec` decides whether generation blocks and playback chunks run
/// inline, across threads, across `steac-worker` processes or on a
/// remote fleet, and the report is byte-identical in every flavour —
/// and to [`jpeg_playback_stream`], the constant-memory pipeline this
/// is the differential baseline for.
///
/// # Errors
///
/// Propagates netlist, pattern and simulation errors; a failing worker
/// surfaces as the lowest-indexed failing unit's error (under
/// [`steac_sim::Fallback::Fail`]).
pub fn jpeg_playback_batch(exec: &Exec, count: usize) -> Result<PlaybackReport, PatternError> {
    let (_module, work) = GenerateWork::jpeg(count)?;
    let (patterns, generated) = generate_all(exec, &work)?;
    let mut report = play(exec, &work, patterns.into_iter())?;
    report.process_fallbacks += generated.fallbacks;
    Ok(report)
}

/// Verifies `count` JPEG functional patterns as a **streaming
/// pipeline**: the generation dispatch runs on one scoped thread and
/// its sink feeds a bounded channel of blocks, which the playback
/// dispatch reads as its input. The full pattern set is never
/// materialized — peak memory follows the two dispatch windows and the
/// channel (see the module docs), not `count` — and generation overlaps
/// playback. The report is byte-identical to [`jpeg_playback_batch`]
/// on every backend.
///
/// # Errors
///
/// Propagates netlist, pattern and simulation errors; the
/// lowest-indexed failure wins (a playback error always precedes a
/// generation error's truncation point in pattern order, so it takes
/// precedence).
pub fn jpeg_playback_stream(exec: &Exec, count: usize) -> Result<PlaybackReport, PatternError> {
    let (_module, work) = GenerateWork::jpeg(count)?;
    let (played, generated) = chain(exec, &work, work.blocks(), |blocks| {
        play(exec, &work, blocks.flatten())
    });
    let mut report = played?;
    report.process_fallbacks += generated?.fallbacks;
    Ok(report)
}

/// Runs the generation dispatch over `units` on one scoped thread, its
/// sink feeding a channel of at most [`QUEUED_BLOCKS`] blocks, and hands
/// the receiving end to `consume` on the calling thread. When `consume`
/// returns, the channel closes and generation pulls no further block.
fn chain<R>(
    exec: &Exec,
    work: &GenerateWork,
    mut units: impl Iterator<Item = usize> + Send,
    consume: impl FnOnce(mpsc::IntoIter<Vec<CyclePattern>>) -> R,
) -> (R, Result<Dispatch, PatternError>) {
    let (tx, rx) = mpsc::sync_channel(QUEUED_BLOCKS);
    std::thread::scope(|scope| {
        // Owns the sender, so the channel closes when generation ends.
        let generation = scope.spawn(move || {
            // Checked before each pull: a closed channel ends the input.
            // Relaxed, as the flag publishes no other data; the dispatch
            // window bounds what a late read lets through.
            let stopped = AtomicBool::new(false);
            let units = std::iter::from_fn(|| {
                (!stopped.load(Ordering::Relaxed))
                    .then(|| units.next())
                    .flatten()
            });
            exec.dispatch(work, units, |block| {
                if tx.send(block).is_err() {
                    stopped.store(true, Ordering::Relaxed);
                }
            })
        });
        let consumed = consume(rx.into_iter());
        let generated = generation
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (consumed, generated)
    })
}

/// Plays `patterns` through the cycle player, folding the per-pattern
/// reports as they arrive and counting tester cycles as patterns flow
/// past; `process_fallbacks` counts playback batches only. Shared by
/// the materialized and streaming flows so the aggregation can never
/// diverge.
fn play(
    exec: &Exec,
    work: &GenerateWork,
    patterns: impl Iterator<Item = CyclePattern> + Send,
) -> Result<PlaybackReport, PatternError> {
    let sim: Simulator = Simulator::from_program(Arc::clone(&work.program));
    let mut report = PlaybackReport {
        patterns: 0,
        cycles: 0,
        compares: 0,
        mismatches: 0,
        passes: work.count.div_ceil(LANES * PLAYBACK_LANE_GROUPS),
        process_fallbacks: 0,
    };
    let mut cycles = 0;
    let patterns = patterns.inspect(|p| cycles += p.cycle_count());
    let run = stream_cycle_patterns(exec, &sim, patterns, |r| {
        report.patterns += 1;
        report.compares += r.compares;
        report.mismatches += r.mismatches.len();
    })?;
    report.cycles = cycles;
    report.process_fallbacks = run.process_fallbacks;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use steac_pattern::apply_cycle_pattern;
    use steac_sim::shard::WireJob as _;
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
    /// seam (a bounded channel between two chunked dispatches) is
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

    /// A consumer that stops after the first block closes the channel,
    /// and generation stops pulling blocks: past that first block, at
    /// most the dispatch window (two dispatchers, two one-block batches
    /// each on `threads:2`) and the channel's blocks are ever pulled,
    /// out of a 10,000-block set.
    #[test]
    fn a_stopped_consumer_stops_generation() {
        let blocks = 10_000;
        let (_, work) = GenerateWork::jpeg(blocks * LANES).unwrap();
        let pulled = AtomicUsize::new(0);
        let units = (0..blocks).inspect(|_| {
            pulled.fetch_add(1, Ordering::Relaxed);
        });
        let exec = Exec::threads(Threads::exact(2));
        let (first, generated) = chain(&exec, &work, units, |mut blocks| blocks.next());
        assert_eq!(first.map(|block| block.len()), Some(LANES));
        generated.unwrap();
        let window = 2 * 2;
        let pulled = pulled.into_inner();
        assert!(
            pulled <= 1 + window + QUEUED_BLOCKS,
            "{pulled} blocks pulled"
        );
    }

    /// Generation over a one-flop module: PI `d`, clock `ck`, PO `q`.
    fn flop(count: usize) -> GenerateWork {
        let mut b = steac_netlist::NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(steac_netlist::GateKind::Dff, &[d, ck]);
        b.output("q", q);
        let program = SimProgram::compile(&b.finish().unwrap()).unwrap();
        GenerateWork {
            program: Arc::new(program),
            pins: ["d", "ck", "q"].map(String::from).to_vec(),
            pi: vec![d],
            clock: ck,
            po: vec![q],
            count,
        }
    }

    fn flop_job(pi: NetId, clock: NetId, po: NetId, count: usize) -> Vec<u8> {
        encode_generate_job(&flop(count).program, &[pi], clock, &[po], count)
    }

    /// A block shipped through the worker job decodes to the patterns
    /// the in-process path builds, and the flop captures each pattern's
    /// stimulus.
    #[test]
    fn a_shipped_block_matches_the_local_one() {
        let local = flop(70);
        let mut worker = GenerateWork::decode(&local.encode_job()).unwrap();
        let bytes = worker.run_unit(&local.encode_unit(&1)).unwrap();
        let shipped = local.decode_result(&1, &bytes).unwrap();
        assert_eq!(shipped, local.run_unit_local(&1).unwrap());
        let captured: Vec<Vec<Logic>> = (64..70)
            .map(|k| vec![Logic::from(stimulus_bit(k, 0))])
            .collect();
        assert_eq!(decode_expected(&bytes, 6, 1), Ok(captured));
    }

    /// Opening a job rejects a PI, clock or PO net outside the program.
    #[test]
    fn a_net_outside_the_program_is_a_typed_error() {
        let GenerateWork {
            program,
            pi,
            clock,
            po,
            ..
        } = flop(3);
        let outside = NetId(program.net_count as u32);
        for (job, context) in [
            (flop_job(outside, clock, po[0], 3), "generation job PI net"),
            (
                flop_job(pi[0], outside, po[0], 3),
                "generation job clock net",
            ),
            (flop_job(pi[0], clock, outside, 3), "generation job PO net"),
        ] {
            assert_eq!(
                GenerateWork::decode(&job).err(),
                Some(WireError::Corrupt { context })
            );
        }
    }

    /// A block index at or past ⌈count / 64⌉ is a typed error, up to
    /// indices whose first pattern would overflow.
    #[test]
    fn a_block_past_the_set_is_a_typed_error() {
        let job = flop(65);
        let unit = |bi| job.encode_unit(&bi);
        assert_eq!(job.unit_patterns(&unit(0)), Ok(0..64));
        assert_eq!(job.unit_patterns(&unit(1)), Ok(64..65));
        let past = Err(WireError::Corrupt {
            context: "generation block index",
        });
        for bi in [2, usize::MAX / LANES + 1, usize::MAX] {
            assert_eq!(job.unit_patterns(&unit(bi)), past, "block {bi}");
        }
        let last = usize::MAX / LANES;
        assert_eq!(
            block_patterns(last, usize::MAX),
            Ok(last * LANES..usize::MAX)
        );
    }

    /// A reply with the wrong pattern count, or the wrong number of
    /// values per pattern, is a typed error.
    #[test]
    fn a_misshapen_reply_is_a_typed_error() {
        let expected = [vec![Logic::One, Logic::Zero], vec![Logic::X, Logic::Z]];
        let reply = encode_expected(&expected, 2);
        assert_eq!(decode_expected(&reply, 2, 2), Ok(expected.to_vec()));
        let count = Err(WireError::Corrupt {
            context: "generated pattern count",
        });
        assert_eq!(decode_expected(&reply, 1, 2), count);
        assert_eq!(decode_expected(&reply, 3, 2), count);
        let values = Err(WireError::Corrupt {
            context: "expected values per pattern",
        });
        assert_eq!(decode_expected(&reply, 2, 1), values);
        assert_eq!(decode_expected(&reply, 2, 3), values);
    }
}
