//! The simulation engine: a bit-parallel executor for compiled
//! [`SimProgram`]s.
//!
//! The engine is the **execute** third of a compile-once/execute-many
//! split: [`SimProgram::compile`] levelizes a module once into a flat
//! instruction stream ([`crate::program`]), [`crate::opt`] renumbers
//! its slots and proves its schedule, and any number of [`Simulator`]
//! executors run it over private buffers of [`PackedLogic`] words,
//! advancing **`N`×64 independent simulation lanes at once** (the
//! `Simulator<N>` lane-group parameter; `Simulator` = `Simulator<1>` is
//! the classic 64-lane machine, and the wide batch paths run `N = 4` for
//! 256 lanes). A `Simulator` owns all of its state (the program is
//! shared behind an [`Arc`]), so it is `Send` and can be handed to a
//! worker thread — one executor per dispatcher thread is how
//! [`crate::Exec::dispatch`] runs passes in parallel.
//!
//! A settle alternates a combinational fixpoint with a clock-edge
//! check. The edge check runs once per distinct flop clock, not once
//! per flop: a clock with no edge on any lane skips its flops, and the
//! flops of a clock with one sample D (or SI) before any of them changes
//! its Q, so a scan chain shifts one flop per edge.
//!
//! When the program's instruction stream is verified topologically
//! scheduled ([`crate::opt::OptStats::scheduled`], true for every
//! [`SimProgram::compile`] output), [`Simulator::settle`] takes a fast
//! path. One unconditional pass over the combinational stream reaches
//! the combinational fixpoint for the current sequential outputs, and
//! stability is decided by a sequential pass over the live elements
//! only: flops with an async reset, latches, and any reset-free flop
//! whose Q one of those reads before the flop's place in cell order. The
//! Q of every other flop moves only when the flop captures, so the
//! capture drives it there; one full sequential pass is due only after
//! something else may have moved such a Q (a new executor,
//! [`Simulator::reset_to_x`], removing a force, or writing the Q net).
//! [`SimProgram::compile_unoptimized`] returns unscheduled programs,
//! which settle through full sweeps with change detection and a full
//! sequential pass on every sweep — correct for any instruction order,
//! and the reference the fast path is tested against. The two share
//! only the edge check.
//!
//! The original scalar API (`set`/`get`/`settle`/`force`, clock-edge
//! capture, latches, async resets) is preserved: scalar writes broadcast
//! to all lanes and scalar reads return lane 0, so existing callers see
//! exactly the old 4-value semantics. Batch callers load distinct
//! patterns per lane ([`Simulator::set_lanes`]) or inject per-lane
//! faults ([`Simulator::force_lane`]) and read every lane back.
//! External callers address values by [`NetId`]; the engine translates
//! through the program's (possibly optimizer-permuted) `net_slot` table,
//! so slot renumbering is invisible to every API user.

use crate::logic::Logic;
use crate::packed::{
    mask_all, mask_and, mask_andnot, mask_any, mask_none, mask_or, mask_replicate, LaneMask,
    PackedLogic,
};
use crate::program::{Instr, SeqInstr, SimOp, SimProgram, NO_SLOT};
use crate::SimError;
use std::sync::Arc;
use steac_netlist::{Module, NetId};

/// Iteration budget for latch/feedback fixpoints within one settle call.
const MAX_SETTLE_ITERS: usize = 1024;

/// Gate-level executor for a compiled [`SimProgram`], carrying `N`
/// lane groups of [`LANES`](crate::LANES) lanes each per pass (`N`×64 lanes total).
///
/// Clocks are just nets: after every [`settle`](Simulator::settle) the
/// engine compares each flop clock's lanes against the previous settled
/// lanes and captures on rising edges, so gated clocks, divided clocks
/// and ripple counters simulate correctly — independently per lane.
///
/// The executor owns its value buffers and shares the immutable program,
/// so it is `Send + Sync`: clone it (or call
/// [`Simulator::from_program`] with a cloned `Arc`) to run independent
/// passes on several threads at once.
#[derive(Debug, Clone)]
pub struct Simulator<const N: usize = 1> {
    program: Arc<SimProgram>,
    /// Flat value buffer: net slots, flop/latch state slots, then each
    /// flop clock's previous value.
    buf: Vec<PackedLogic<N>>,
    /// Per-slot lane mask of forced lanes (net slots only).
    force_mask: Vec<LaneMask<N>>,
    /// Per-slot forced values (valid on `force_mask` lanes).
    force_val: Vec<PackedLogic<N>>,
    /// Per-slot "has any forced lane" fast check for the hot write path.
    forced: Vec<bool>,
    initialized: bool,
    /// The scheduled settle's next sequential pass must visit every
    /// element, not only the live ones: some reset-free flop's Q may
    /// differ from its forced state.
    full_pass_due: bool,
    /// Flops whose state the last edge check changed.
    captured: Vec<u32>,
}

impl<const N: usize> Simulator<N> {
    /// Total lanes per pass: `N` lane groups of [`LANES`](crate::LANES) lanes.
    pub const WIDTH: usize = PackedLogic::<N>::WIDTH;

    /// Compiles and prepares a simulator for a flat module (no
    /// [`steac_netlist::CellContents::Inst`] cells; flatten hierarchical
    /// designs first). Convenience wrapper over [`SimProgram::compile`] +
    /// [`Simulator::from_program`]; to run many executors over one
    /// design, compile once and share the `Arc`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] if the module has multiple drivers or
    /// a combinational loop.
    pub fn new(module: &Module) -> Result<Self, SimError> {
        Ok(Self::from_program(Arc::new(SimProgram::compile(module)?)))
    }

    /// Builds an executor over an already-compiled, shared program. This
    /// is the multi-core entry point: every worker gets its own
    /// `Simulator` (private buffers) over the same `Arc<SimProgram>`.
    #[must_use]
    pub fn from_program(program: Arc<SimProgram>) -> Self {
        let slots = program.slot_count;
        let nets = program.net_count;
        Simulator {
            program,
            buf: vec![PackedLogic::ALL_X; slots],
            force_mask: vec![mask_none(); nets],
            force_val: vec![PackedLogic::ALL_X; nets],
            forced: vec![false; nets],
            initialized: false,
            full_pass_due: true,
            captured: Vec::new(),
        }
    }

    /// The compiled program being executed.
    #[must_use]
    pub fn program(&self) -> &SimProgram {
        &self.program
    }

    /// The shared handle to the compiled program (cheap to clone; hand it
    /// to [`Simulator::from_program`] on another thread).
    #[must_use]
    pub fn program_arc(&self) -> &Arc<SimProgram> {
        &self.program
    }

    fn lookup(&self, name: &str) -> Result<NetId, SimError> {
        self.program
            .port_net(name)
            .ok_or_else(|| SimError::UnknownName {
                name: name.to_string(),
            })
    }

    /// Value-buffer slot of a net (identity unless the optimizer
    /// renumbered slots for locality).
    #[inline]
    fn slot(&self, net: NetId) -> usize {
        self.program.slot_of(net) as usize
    }

    /// Merges per-lane forces into a candidate value for slot `slot`.
    #[inline]
    fn apply_force(&self, slot: usize, v: PackedLogic<N>) -> PackedLogic<N> {
        if self.forced[slot] {
            self.force_val[slot].select(v, self.force_mask[slot])
        } else {
            v
        }
    }

    /// Sets a net on every lane (normally an input-port net). Forced
    /// lanes (see [`force`](Simulator::force)) keep their forced values.
    pub fn set(&mut self, net: NetId, v: Logic) {
        self.set_packed(net, PackedLogic::splat(v));
    }

    /// Sets a net to per-lane values from a packed word.
    pub fn set_packed(&mut self, net: NetId, v: PackedLogic<N>) {
        let slot = self.slot(net);
        self.buf[slot] = self.apply_force(slot, v);
        self.full_pass_due |= self.program.capture_drives[slot];
    }

    /// Sets a net per lane: lane `l` takes `values[l]`; when fewer than
    /// [`Self::WIDTH`] values are given, the remaining lanes replicate
    /// the first value (so unused lanes track lane 0).
    pub fn set_lanes(&mut self, net: NetId, values: &[Logic]) {
        let mut p = PackedLogic::splat(values.first().copied().unwrap_or(Logic::X));
        for (l, &v) in values.iter().take(Self::WIDTH).enumerate() {
            p.set_lane(l, v);
        }
        self.set_packed(net, p);
    }

    /// Sets an input by port name on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] if no such port exists.
    pub fn set_by_name(&mut self, name: &str, v: Logic) -> Result<(), SimError> {
        let net = self.lookup(name)?;
        self.set(net, v);
        Ok(())
    }

    /// Reads a net value on lane 0.
    #[must_use]
    pub fn get(&self, net: NetId) -> Logic {
        self.buf[self.slot(net)].lane(0)
    }

    /// Reads a net value on a specific lane.
    #[must_use]
    pub fn get_lane(&self, net: NetId, lane: usize) -> Logic {
        self.buf[self.slot(net)].lane(lane)
    }

    /// Reads all lanes of a net.
    #[must_use]
    pub fn get_packed(&self, net: NetId) -> PackedLogic<N> {
        self.buf[self.slot(net)]
    }

    /// Reads a lane-0 value by port name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] if no such port exists.
    pub fn get_by_name(&self, name: &str) -> Result<Logic, SimError> {
        Ok(self.get(self.lookup(name)?))
    }

    /// Forces a net on **every** lane until
    /// [`unforce`](Simulator::unforce) — the scalar fault-injection
    /// mechanism. Takes effect immediately and overrides both drivers and
    /// [`set`](Simulator::set).
    pub fn force(&mut self, net: NetId, v: Logic) {
        let slot = self.slot(net);
        self.force_mask[slot] = mask_all();
        self.force_val[slot] = PackedLogic::splat(v);
        self.forced[slot] = true;
        self.buf[slot] = PackedLogic::splat(v);
    }

    /// Forces a net on a single lane — the PPSFP fault-injection
    /// mechanism (one faulty machine per lane).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::WIDTH`.
    pub fn force_lane(&mut self, net: NetId, lane: usize, v: Logic) {
        assert!(lane < Self::WIDTH, "lane {lane} out of range");
        let slot = self.slot(net);
        crate::packed::mask_set_bit(&mut self.force_mask[slot], lane);
        self.force_val[slot].set_lane(lane, v);
        self.forced[slot] = true;
        let mut cur = self.buf[slot];
        cur.set_lane(lane, v);
        self.buf[slot] = cur;
    }

    /// Snapshots every per-lane force as `(net, lane mask, values)`
    /// triples — the state a remote executor needs to reproduce this
    /// simulator's fault injection (values are meaningful on the masked
    /// lanes only). Used by the process-dispatch paths to carry forces
    /// across the wire. Slot renumbering is translated back to net ids,
    /// so snapshots are portable between raw and optimized programs.
    #[must_use]
    pub fn export_forces(&self) -> Vec<(NetId, LaneMask<N>, PackedLogic<N>)> {
        self.force_mask
            .iter()
            .enumerate()
            .filter(|&(_, mask)| mask_any(mask))
            .map(|(i, &mask)| (self.program.net_of_slot(i as u32), mask, self.force_val[i]))
            .collect()
    }

    /// Applies 64-lane force snapshots replicated across all `N` lane
    /// groups: the force on lane `l` is repeated on lane `l + 64·g` for
    /// every group `g`. This is how a wide executor reproduces a narrow
    /// caller's forces so that chunk position `p` of a wide pass behaves
    /// exactly like chunk position `p % 64` of the equivalent 64-lane
    /// pass sequence.
    pub fn import_forces_replicated(&mut self, forces: &[(NetId, u64, PackedLogic<1>)]) {
        for &(net, mask, values) in forces {
            let i = self.slot(net);
            let mask = mask_replicate::<N>(mask);
            let values = PackedLogic::<N>::replicate(values);
            self.force_mask[i] = mask_or(self.force_mask[i], mask);
            self.force_val[i] = values.select(self.force_val[i], mask);
            self.forced[i] = true;
            self.buf[i] = values.select(self.buf[i], mask);
        }
    }

    /// Removes all forces from a net.
    pub fn unforce(&mut self, net: NetId) {
        let slot = self.slot(net);
        self.force_mask[slot] = mask_none();
        self.forced[slot] = false;
        self.full_pass_due = true;
    }

    /// Removes every force on every net.
    pub fn clear_forces(&mut self) {
        self.force_mask.fill(mask_none());
        self.forced.fill(false);
        self.full_pass_due = true;
    }

    /// Reads all output-port values on lane 0, in port order.
    #[must_use]
    pub fn outputs(&self) -> Vec<Logic> {
        self.outputs_lane(0)
    }

    /// Reads all output-port values on one lane, in port order.
    #[must_use]
    pub fn outputs_lane(&self, lane: usize) -> Vec<Logic> {
        self.program
            .output_slots()
            .iter()
            .map(|&s| self.buf[s as usize].lane(lane))
            .collect()
    }

    /// Writes a computed value (after force merging); returns whether any
    /// lane changed.
    fn write_net(&mut self, slot: usize, v: PackedLogic<N>) -> bool {
        let v = self.apply_force(slot, v);
        if self.buf[slot] != v {
            self.buf[slot] = v;
            true
        } else {
            false
        }
    }

    fn exec_instr(buf: &[PackedLogic<N>], i: &Instr) -> PackedLogic<N> {
        let a = |k: usize| buf[i.ins[k] as usize];
        match i.op {
            SimOp::Inv => a(0).not(),
            SimOp::Buf => a(0).buf(),
            SimOp::And2 => a(0).and(a(1)),
            SimOp::And3 => a(0).and(a(1)).and(a(2)),
            SimOp::Nand2 => a(0).and(a(1)).not(),
            SimOp::Nand3 => a(0).and(a(1)).and(a(2)).not(),
            SimOp::Nand4 => a(0).and(a(1)).and(a(2)).and(a(3)).not(),
            SimOp::Or2 => a(0).or(a(1)),
            SimOp::Or3 => a(0).or(a(1)).or(a(2)),
            SimOp::Nor2 => a(0).or(a(1)).not(),
            SimOp::Nor3 => a(0).or(a(1)).or(a(2)).not(),
            SimOp::Xor2 => a(0).xor(a(1)),
            SimOp::Xnor2 => a(0).xor(a(1)).not(),
            SimOp::Mux2 => PackedLogic::mux(a(0), a(1), a(2)),
            SimOp::Tie0 => PackedLogic::ALL_ZERO,
            SimOp::Tie1 => PackedLogic::ALL_ONE,
            SimOp::Unknown => PackedLogic::ALL_X,
        }
    }

    /// Sequential-element pass (async resets, state-to-output drive,
    /// latch transparency) in original cell order, over every element
    /// or only the live ones; returns whether any lane changed.
    fn seq_pass(&mut self, full: bool) -> bool {
        let p = Arc::clone(&self.program);
        let mut changed = false;
        for &element in if full { &p.seq_order } else { &p.live } {
            match element {
                SeqInstr::Flop(fi) => {
                    let f = p.flops[fi as usize];
                    let mut state = self.buf[f.state as usize];
                    if f.rstn != NO_SLOT {
                        let rstn = self.buf[f.rstn as usize];
                        // rstn = 0 clears the lane; unknown rstn degrades a
                        // non-zero lane to X (reset might be asserting).
                        let rz = rstn.is_zero();
                        let ru = mask_andnot(rstn.unknowns, state.is_zero());
                        state = PackedLogic::ALL_ZERO.select(state, rz);
                        state = PackedLogic::ALL_X.select(state, ru);
                        self.buf[f.state as usize] = state;
                    }
                    changed |= self.write_net(f.q as usize, state);
                }
                SeqInstr::Latch(li) => {
                    let l = p.latches[li as usize];
                    let d = self.buf[l.d as usize];
                    let en = self.buf[l.en as usize];
                    let mut state = self.buf[l.state as usize];
                    // en = 1: transparent; en = 0: hold; unknown en: lanes
                    // whose held value disagrees with d degrade to X.
                    let differs = state.diff(d);
                    state = d.select(state, en.is_one());
                    state = PackedLogic::ALL_X.select(state, mask_and(en.unknowns, differs));
                    self.buf[l.state as usize] = state;
                    changed |= self.write_net(l.q as usize, state);
                }
            }
        }
        changed
    }

    /// One evaluation sweep; returns whether any net changed on any lane.
    fn sweep(&mut self) -> bool {
        let mut changed = self.seq_pass(true);
        // Compiled combinational stream in topological order.
        for k in 0..self.program.comb.len() {
            let i = self.program.comb[k];
            let v = Self::exec_instr(&self.buf, &i);
            changed |= self.write_net(i.out as usize, v);
        }
        changed
    }

    /// One unconditional pass over the combinational stream: no per-write
    /// change detection, just evaluate-and-store. Sound only when the
    /// stream is verified topologically scheduled (each input is written
    /// before it is read), in which case one pass reaches the
    /// combinational fixpoint for the current sequential outputs.
    fn comb_pass_fast(&mut self) {
        let program = Arc::clone(&self.program);
        for i in &program.comb {
            let v = Self::exec_instr(&self.buf, i);
            let out = i.out as usize;
            self.buf[out] = if self.forced[out] {
                self.force_val[out].select(v, self.force_mask[out])
            } else {
                v
            };
        }
    }

    /// Inner fixpoint via full sweeps with per-write change detection —
    /// correct for any instruction order (the path of unoptimized
    /// programs, and the reference the fast path is tested against).
    fn comb_fixpoint_checked(&mut self) -> Result<(), SimError> {
        for _ in 0..MAX_SETTLE_ITERS {
            if !self.sweep() {
                return Ok(());
            }
        }
        Err(SimError::Unstable {
            iterations: MAX_SETTLE_ITERS,
        })
    }

    /// Inner fixpoint for scheduled streams: sequential pass, then one
    /// unconditional combinational pass; repeat until the sequential pass
    /// stops changing. Because the combinational stream is topological,
    /// a single pass fully propagates any sequential change, so stability
    /// is decided by the sequential pass alone — the per-gate
    /// change-detection compare/branch of the checked path disappears
    /// from the hot loop. The pass visits only the live elements unless
    /// a full one is due; captures drive the other flops' Qs.
    fn comb_fixpoint_fast(&mut self) -> Result<(), SimError> {
        for iter in 0..MAX_SETTLE_ITERS {
            let full = std::mem::take(&mut self.full_pass_due);
            let changed = self.seq_pass(full);
            if iter > 0 && !changed {
                return Ok(());
            }
            self.comb_pass_fast();
        }
        Err(SimError::Unstable {
            iterations: MAX_SETTLE_ITERS,
        })
    }

    /// Per-clock edge check and capture. Each distinct flop clock is
    /// compared with its value at the previous check; on a clock with an
    /// event on any lane, each of its flops samples D (or SI under scan)
    /// into its state. Only state slots are written, so every flop
    /// samples the nets as they settled. Flops whose state changed are
    /// left in `captured`; returns whether there are any. The first check
    /// after a reset only records the clocks.
    fn capture(&mut self) -> bool {
        let program = Arc::clone(&self.program);
        self.captured.clear();
        for clock in &program.clocks {
            let now = self.buf[clock.ck as usize];
            let prev = std::mem::replace(&mut self.buf[clock.prev as usize], now);
            if !self.initialized {
                continue;
            }
            // True rising edges sample D (or SI under scan); an edge
            // into or out of an unknown clock value captures X.
            let rising = mask_and(prev.is_zero(), now.is_one());
            let semi = mask_or(
                mask_and(prev.is_zero(), now.unknowns),
                mask_and(prev.unknowns, now.is_one()),
            );
            let events = mask_or(rising, semi);
            if !mask_any(&events) {
                continue;
            }
            for &fi in &clock.flops {
                let f = program.flops[fi as usize];
                let d = self.buf[f.d as usize];
                let next = if f.si != NO_SLOT {
                    PackedLogic::mux(d, self.buf[f.si as usize], self.buf[f.se as usize])
                } else {
                    d
                };
                let state = self.buf[f.state as usize];
                let cand = next.select(PackedLogic::ALL_X.select(state, semi), rising);
                // Async reset dominates the clock.
                let reset_active = if f.rstn != NO_SLOT {
                    self.buf[f.rstn as usize].is_zero()
                } else {
                    mask_none()
                };
                let new_state = cand.select(state, mask_andnot(events, reset_active));
                if new_state != state {
                    self.buf[f.state as usize] = new_state;
                    self.captured.push(fi);
                }
            }
        }
        !self.captured.is_empty()
    }

    /// The scheduled settle's second capture phase: each captured flop
    /// outside the live list drives its Q. (The sequential pass drives
    /// the live flops' Qs in cell order, as the checked settle's full
    /// pass drives every Q.)
    fn drive_captured(&mut self) {
        let program = Arc::clone(&self.program);
        for &fi in &self.captured {
            let f = program.flops[fi as usize];
            let q = f.q as usize;
            if program.capture_drives[q] {
                let v = self.apply_force(q, self.buf[f.state as usize]);
                self.buf[q] = v;
            }
        }
    }

    /// Evaluates the netlist to a fixpoint, then performs rising-edge
    /// captures on flip-flops (per lane), repeating until globally stable
    /// on every lane. Edges are checked once per distinct flop clock, and
    /// every flop on a clock with an edge samples its inputs before any
    /// Q changes. On a scheduled program a capture drives the Qs of
    /// reset-free flops itself, and the sequential pass of each fixpoint
    /// visits only the live elements — flops with an async reset,
    /// latches, and a reset-free flop one of those reads before its own
    /// place in cell order — except once after a new executor,
    /// [`reset_to_x`](Self::reset_to_x), a removed force or a write to a
    /// flop's Q, when it visits all. An unscheduled program runs the
    /// full pass on every sweep. Both reach the same values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if a feedback structure oscillates
    /// on any lane.
    pub fn settle(&mut self) -> Result<(), SimError> {
        let fast = self.program.opt.scheduled;
        for _ in 0..MAX_SETTLE_ITERS {
            // Inner fixpoint: combinational + latches.
            if fast {
                self.comb_fixpoint_fast()?;
            } else {
                self.comb_fixpoint_checked()?;
            }
            let any_capture = self.capture();
            if !self.initialized {
                self.initialized = true;
                // The check seeded every clock's previous value with the
                // settled one, so the first real pulse is a clean 0->1
                // edge. Nothing moved since the fixpoint, so the settle
                // is done.
                return Ok(());
            }
            if !any_capture {
                return Ok(());
            }
            if fast {
                self.drive_captured();
            }
        }
        Err(SimError::Unstable {
            iterations: MAX_SETTLE_ITERS,
        })
    }

    /// Applies a full clock cycle on `clock`: drive 0, settle, drive 1,
    /// settle (captures happen here), drive 0, settle.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Unstable`].
    pub fn clock_cycle(&mut self, clock: NetId) -> Result<(), SimError> {
        self.set(clock, Logic::Zero);
        self.settle()?;
        self.set(clock, Logic::One);
        self.settle()?;
        self.set(clock, Logic::Zero);
        self.settle()
    }

    /// [`clock_cycle`](Self::clock_cycle) by port name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for a bad name and propagates
    /// [`SimError::Unstable`].
    pub fn clock_cycle_by_name(&mut self, name: &str) -> Result<(), SimError> {
        let net = self.lookup(name)?;
        self.clock_cycle(net)
    }

    /// Applies one clock cycle on several clocks simultaneously (multi
    /// clock-domain step): all low, settle, all high, settle, all low.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Unstable`].
    pub fn clock_cycle_multi(&mut self, clocks: &[NetId]) -> Result<(), SimError> {
        for &c in clocks {
            self.set(c, Logic::Zero);
        }
        self.settle()?;
        for &c in clocks {
            self.set(c, Logic::One);
        }
        self.settle()?;
        for &c in clocks {
            self.set(c, Logic::Zero);
        }
        self.settle()
    }

    /// Resets all state (net values, flop/latch state, previous clocks) to
    /// `X` on every lane. Forces are kept, matching the interpreter's
    /// historical behaviour; use [`clear_forces`](Simulator::clear_forces)
    /// to drop them too.
    pub fn reset_to_x(&mut self) {
        self.full_pass_due = true;
        for (i, slot) in self.buf.iter_mut().enumerate() {
            *slot = if i < self.program.net_count && self.forced[i] {
                self.force_val[i].select(PackedLogic::ALL_X, self.force_mask[i])
            } else {
                PackedLogic::ALL_X
            };
        }
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn combinational_evaluation() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Nand2, &[a, c]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("a", Logic::One).unwrap();
        sim.set_by_name("b", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("y").unwrap(), Logic::Zero);
        sim.set_by_name("b", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("y").unwrap(), Logic::One);
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Dff, &[d, ck]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("d", Logic::One).unwrap();
        sim.set_by_name("ck", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::X); // not clocked yet
        sim.clock_cycle_by_name("ck").unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::One);
        // Falling edge must not capture.
        sim.set_by_name("d", Logic::Zero).unwrap();
        sim.set_by_name("ck", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::One);
    }

    #[test]
    fn async_reset_dominates() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let rstn = b.input("rstn");
        let q = b.gate(GateKind::DffR, &[d, ck, rstn]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("d", Logic::One).unwrap();
        sim.set_by_name("rstn", Logic::Zero).unwrap();
        sim.clock_cycle_by_name("ck").unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::Zero);
        sim.set_by_name("rstn", Logic::One).unwrap();
        sim.clock_cycle_by_name("ck").unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::One);
    }

    #[test]
    fn ripple_counter_divides_clock() {
        // Two DFFRs in ripple configuration: q1 clocks on falling q0 via
        // inverter. After 4 input cycles, q1 has toggled twice.
        let mut b = NetlistBuilder::new("m");
        let ck = b.input("ck");
        let rstn = b.input("rstn");
        let q0 = b.net("q0");
        let d0 = b.gate(GateKind::Inv, &[q0]);
        b.gate_into(GateKind::DffR, &[d0, ck, rstn], q0);
        let ck1 = b.gate(GateKind::Inv, &[q0]);
        let q1 = b.net("q1");
        let d1 = b.gate(GateKind::Inv, &[q1]);
        b.gate_into(GateKind::DffR, &[d1, ck1, rstn], q1);
        b.output("q0", q0);
        b.output("q1", q1);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("rstn", Logic::Zero).unwrap();
        sim.set_by_name("ck", Logic::Zero).unwrap();
        sim.settle().unwrap();
        sim.set_by_name("rstn", Logic::One).unwrap();
        sim.settle().unwrap();
        let mut seq = Vec::new();
        for _ in 0..4 {
            sim.clock_cycle_by_name("ck").unwrap();
            seq.push((
                sim.get_by_name("q0").unwrap(),
                sim.get_by_name("q1").unwrap(),
            ));
        }
        use Logic::{One, Zero};
        assert_eq!(
            seq,
            vec![(One, Zero), (Zero, One), (One, One), (Zero, Zero)]
        );
    }

    #[test]
    fn scan_flop_shifts_under_se() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let si = b.input("si");
        let se = b.input("se");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Sdff, &[d, si, se, ck]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("d", Logic::Zero).unwrap();
        sim.set_by_name("si", Logic::One).unwrap();
        sim.set_by_name("se", Logic::One).unwrap();
        sim.clock_cycle_by_name("ck").unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::One); // shifted si
        sim.set_by_name("se", Logic::Zero).unwrap();
        sim.clock_cycle_by_name("ck").unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::Zero); // captured d
    }

    #[test]
    fn forced_net_overrides_driver() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, &[a]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        let y_net = m.port("y").unwrap().net;
        sim.force(y_net, Logic::One);
        sim.set_by_name("a", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("y").unwrap(), Logic::One);
        sim.unforce(y_net);
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("y").unwrap(), Logic::Zero);
    }

    #[test]
    fn latch_is_transparent_when_enabled() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let en = b.input("en");
        let q = b.gate(GateKind::Latch, &[d, en]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("d", Logic::One).unwrap();
        sim.set_by_name("en", Logic::One).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::One);
        sim.set_by_name("en", Logic::Zero).unwrap();
        sim.set_by_name("d", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_by_name("q").unwrap(), Logic::One); // held
    }

    #[test]
    fn unknown_pin_is_an_error() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        b.output("y", a);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        assert!(matches!(
            sim.set_by_name("bogus", Logic::One),
            Err(SimError::UnknownName { .. })
        ));
    }

    // ------- batch / lane API -------

    #[test]
    fn lanes_are_independent_machines() {
        // y = a NAND b, with all four input combinations in lanes 0..4.
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Nand2, &[a, c]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        use Logic::{One, Zero};
        sim.set_lanes(m.port("a").unwrap().net, &[Zero, Zero, One, One]);
        sim.set_lanes(m.port("b").unwrap().net, &[Zero, One, Zero, One]);
        sim.settle().unwrap();
        let y_net = m.port("y").unwrap().net;
        assert_eq!(sim.get_lane(y_net, 0), One);
        assert_eq!(sim.get_lane(y_net, 1), One);
        assert_eq!(sim.get_lane(y_net, 2), One);
        assert_eq!(sim.get_lane(y_net, 3), Zero);
    }

    #[test]
    fn force_lane_affects_only_its_lane() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, &[a]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        let y_net = m.port("y").unwrap().net;
        sim.force_lane(y_net, 3, Logic::One);
        sim.set_by_name("a", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.get_lane(y_net, 0), Logic::Zero);
        assert_eq!(sim.get_lane(y_net, 2), Logic::Zero);
        assert_eq!(sim.get_lane(y_net, 3), Logic::One);
        sim.unforce(y_net);
        sim.settle().unwrap();
        assert_eq!(sim.get_lane(y_net, 3), Logic::Zero);
    }

    #[test]
    fn per_lane_capture_in_sequential_logic() {
        // One DFF; lanes carry different D values through the same clock.
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Dff, &[d, ck]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        use Logic::{One, Zero};
        let lanes: Vec<Logic> = (0..8)
            .map(|i| if i % 2 == 0 { Zero } else { One })
            .collect();
        sim.set_lanes(m.port("d").unwrap().net, &lanes);
        sim.clock_cycle_by_name("ck").unwrap();
        let q_net = m.port("q").unwrap().net;
        for (i, expect) in lanes.iter().enumerate() {
            assert_eq!(sim.get_lane(q_net, i), *expect, "lane {i}");
        }
    }

    /// The whole sharding layer rests on this: an executor can move to a
    /// worker thread and be shared by reference across them.
    #[test]
    fn simulator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Simulator>();
        assert_send_sync::<Simulator<4>>();
        assert_send_sync::<SimProgram>();
    }

    /// Executors built from one shared program are independent machines:
    /// state in one never leaks into another, on any thread.
    #[test]
    fn shared_program_executors_are_independent() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Dff, &[d, ck]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let program = Arc::new(SimProgram::compile(&m).unwrap());
        let mut one: Simulator = Simulator::from_program(Arc::clone(&program));
        let other = std::thread::spawn({
            let program = Arc::clone(&program);
            move || {
                let mut sim: Simulator = Simulator::from_program(program);
                sim.set_by_name("d", Logic::Zero).unwrap();
                sim.clock_cycle_by_name("ck").unwrap();
                sim.get_by_name("q").unwrap()
            }
        });
        one.set_by_name("d", Logic::One).unwrap();
        one.clock_cycle_by_name("ck").unwrap();
        assert_eq!(one.get_by_name("q").unwrap(), Logic::One);
        assert_eq!(other.join().unwrap(), Logic::Zero);
        assert_eq!(one.program().name, "m");
    }

    // ------- wide (N > 1) executors -------

    /// A 4-group (256-lane) executor agrees lane-for-lane with four
    /// 64-lane executors running the same patterns in sequence.
    #[test]
    fn wide_executor_matches_narrow_on_every_lane() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let c = b.input("b");
        let s = b.gate(GateKind::Xor2, &[a, c]);
        let k = b.gate(GateKind::Nand2, &[a, c]);
        b.output("s", s);
        b.output("k", k);
        let m = b.finish().unwrap();
        let program = Arc::new(SimProgram::compile(&m).unwrap());

        use Logic::{One, Zero};
        let pat = |i: usize| {
            (
                if i.is_multiple_of(2) { Zero } else { One },
                if (i / 2).is_multiple_of(2) { Zero } else { One },
            )
        };
        let a_net = m.port("a").unwrap().net;
        let b_net = m.port("b").unwrap().net;

        let mut wide: Simulator<4> = Simulator::from_program(Arc::clone(&program));
        let a_lanes: Vec<Logic> = (0..256).map(|i| pat(i).0).collect();
        let b_lanes: Vec<Logic> = (0..256).map(|i| pat(i).1).collect();
        wide.set_lanes(a_net, &a_lanes);
        wide.set_lanes(b_net, &b_lanes);
        wide.settle().unwrap();

        for chunk in 0..4 {
            let mut narrow: Simulator = Simulator::from_program(Arc::clone(&program));
            narrow.set_lanes(a_net, &a_lanes[chunk * 64..(chunk + 1) * 64]);
            narrow.set_lanes(b_net, &b_lanes[chunk * 64..(chunk + 1) * 64]);
            narrow.settle().unwrap();
            for l in 0..64 {
                assert_eq!(
                    wide.outputs_lane(chunk * 64 + l),
                    narrow.outputs_lane(l),
                    "chunk {chunk} lane {l}"
                );
            }
        }
    }

    /// Replicated forces make wide lane `l + 64g` behave like narrow
    /// lane `l` — the contract the wide grading paths rest on.
    #[test]
    fn replicated_forces_repeat_every_64_lanes() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, &[a]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut narrow = Simulator::new(&m).unwrap();
        let y_net = m.port("y").unwrap().net;
        narrow.force_lane(y_net, 5, Logic::One);
        let forces: Vec<(NetId, u64, PackedLogic<1>)> = narrow
            .export_forces()
            .into_iter()
            .map(|(n, mask, v)| (n, mask[0], v))
            .collect();

        let program = narrow.program_arc().clone();
        let mut wide: Simulator<4> = Simulator::from_program(program);
        wide.import_forces_replicated(&forces);
        wide.set_by_name("a", Logic::Zero).unwrap();
        wide.settle().unwrap();
        for g in 0..4 {
            assert_eq!(wide.get_lane(y_net, g * 64 + 5), Logic::One, "group {g}");
            assert_eq!(wide.get_lane(y_net, g * 64 + 4), Logic::Zero, "group {g}");
        }
    }

    /// Sequential logic (capture, reset) is group-independent on a wide
    /// executor.
    #[test]
    fn wide_sequential_capture_per_lane() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.gate(GateKind::Dff, &[d, ck]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut sim: Simulator<2> = Simulator::new(&m).unwrap();
        use Logic::{One, Zero};
        let lanes: Vec<Logic> = (0..128)
            .map(|i| if (i / 3) % 2 == 0 { Zero } else { One })
            .collect();
        sim.set_lanes(m.port("d").unwrap().net, &lanes);
        sim.clock_cycle_by_name("ck").unwrap();
        let q_net = m.port("q").unwrap().net;
        for (i, expect) in lanes.iter().enumerate() {
            assert_eq!(sim.get_lane(q_net, i), *expect, "lane {i}");
        }
    }
}
