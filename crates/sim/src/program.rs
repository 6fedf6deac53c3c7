//! Netlist compilation: levelize a flat [`Module`] once into a
//! [`SimProgram`] — a contiguous instruction stream over a single flat
//! value buffer — so the engine never touches the netlist data model on
//! the hot path.
//!
//! The pipeline mirrors a compiled-code simulator (flatten → schedule →
//! emit): combinational cells are topologically ordered by
//! [`steac_netlist::combinational_order`] and lowered to [`Instr`]s whose
//! operands are *slot offsets* into one buffer of
//! [`PackedLogic`](crate::packed::PackedLogic) words. Sequential cells
//! (flip-flops and latches) become side tables whose state slots are
//! appended to the same buffer, in original cell order so evaluation
//! order matches the interpreter it replaced. Every distinct flop clock
//! net gets one previous-value slot after them: all flops on one clock
//! see the same edges, so the engine checks each clock once.
//!
//! Buffer layout:
//!
//! ```text
//! [ net 0 .. net N-1 | flop states | latch states | clock prev-values ]
//! ```
//!
//! Tables the engine derives from these (the clock table, the live
//! sequential list, the output slots) are rebuilt once per program, on
//! compile, optimize and decode, never per executor.
//!
//! The program also carries the module's port tables (name → net, plus
//! the output-port net list), so an executor built from it never needs
//! the [`Module`] again: compile once, hand the `Arc<SimProgram>` to as
//! many [`Simulator`](crate::Simulator)s as there are cores.

use crate::opt::OptStats;
use crate::SimError;
use std::collections::HashMap;
use steac_netlist::{combinational_order, CellContents, GateKind, Module, NetId, PortDir};

/// Sentinel for an absent operand slot (e.g. `rstn` on a plain `Dff`).
pub const NO_SLOT: u32 = u32::MAX;

/// Opcode of one combinational instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SimOp {
    /// Inverter.
    Inv,
    /// Buffer (`Z` → `X`).
    Buf,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 mux `(a, b, sel)`.
    Mux2,
    /// Constant 0.
    Tie0,
    /// Constant 1.
    Tie1,
    /// Unrecognised gate kind: evaluates to `X` on every lane.
    Unknown,
}

impl SimOp {
    /// Number of leading `ins` entries the engine actually reads.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            SimOp::Tie0 | SimOp::Tie1 | SimOp::Unknown => 0,
            SimOp::Inv | SimOp::Buf => 1,
            SimOp::And2 | SimOp::Nand2 | SimOp::Or2 | SimOp::Nor2 | SimOp::Xor2 | SimOp::Xnor2 => 2,
            SimOp::And3 | SimOp::Nand3 | SimOp::Or3 | SimOp::Nor3 | SimOp::Mux2 => 3,
            SimOp::Nand4 => 4,
        }
    }

    /// All opcodes, in wire order: an opcode's byte in a serialized
    /// program is its index here.
    pub const ALL: [SimOp; 17] = [
        SimOp::Inv,
        SimOp::Buf,
        SimOp::And2,
        SimOp::And3,
        SimOp::Nand2,
        SimOp::Nand3,
        SimOp::Nand4,
        SimOp::Or2,
        SimOp::Or3,
        SimOp::Nor2,
        SimOp::Nor3,
        SimOp::Xor2,
        SimOp::Xnor2,
        SimOp::Mux2,
        SimOp::Tie0,
        SimOp::Tie1,
        SimOp::Unknown,
    ];
}

/// One combinational instruction: opcode plus input/output slot offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Opcode.
    pub op: SimOp,
    /// Input slots in pin order; unused trailing entries are [`NO_SLOT`].
    pub ins: [u32; 4],
    /// Output slot.
    pub out: u32,
}

/// Flip-flop record (evaluated outside the combinational stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlopInstr {
    /// Cell index in the source module (diagnostics).
    pub cell: u32,
    /// Functional data slot.
    pub d: u32,
    /// Scan-in slot, or [`NO_SLOT`] for non-scan flops.
    pub si: u32,
    /// Scan-enable slot, or [`NO_SLOT`].
    pub se: u32,
    /// Clock slot.
    pub ck: u32,
    /// Active-low async reset slot, or [`NO_SLOT`].
    pub rstn: u32,
    /// Output (Q) slot.
    pub q: u32,
    /// State slot in the flat buffer.
    pub state: u32,
}

/// Transparent-latch record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatchInstr {
    /// Cell index in the source module (diagnostics).
    pub cell: u32,
    /// Data slot.
    pub d: u32,
    /// Transparent-enable slot.
    pub en: u32,
    /// Output slot.
    pub q: u32,
    /// State slot in the flat buffer.
    pub state: u32,
}

/// A sequential element in original cell order (the order the interpreter
/// evaluated them, which callers' settle semantics depend on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqInstr {
    /// An edge-triggered flip-flop; the index points into
    /// [`SimProgram::flops`].
    Flop(u32),
    /// A level-sensitive latch; the index points into
    /// [`SimProgram::latches`].
    Latch(u32),
}

/// One distinct flop clock net (derived): its flops share one
/// previous-value slot and one edge check per settle iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClockDomain {
    /// Clock net slot.
    pub(crate) ck: u32,
    /// Slot of the clock's value at the last edge check.
    pub(crate) prev: u32,
    /// The flops it clocks, as indices into [`SimProgram::flops`].
    pub(crate) flops: Vec<u32>,
}

/// A module port carried into the compiled program (name → net binding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortInfo {
    /// Port name.
    pub name: String,
    /// Bound net.
    pub net: NetId,
    /// Direction.
    pub dir: PortDir,
}

/// A module compiled for bit-parallel execution.
///
/// Owns everything an executor needs — instruction stream, sequential
/// side tables, and the port lookup tables — so it can be shared behind
/// an [`Arc`](std::sync::Arc) by one [`Simulator`](crate::Simulator) per
/// core without borrowing the source [`Module`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimProgram {
    /// Source module name (diagnostics).
    pub name: String,
    /// Number of nets (the leading slots of the buffer).
    pub net_count: usize,
    /// Total buffer length (nets + flop states + latch states + one
    /// previous-value slot per distinct flop clock).
    pub slot_count: usize,
    /// Combinational instructions in evaluation (topological) order.
    pub comb: Vec<Instr>,
    /// Flip-flop records.
    pub flops: Vec<FlopInstr>,
    /// Latch records.
    pub latches: Vec<LatchInstr>,
    /// Sequential elements in original cell order.
    pub seq_order: Vec<SeqInstr>,
    /// Ports in module port order.
    pub ports: Vec<PortInfo>,
    /// Output-port nets in port order (the executor's observation set).
    pub output_nets: Vec<NetId>,
    /// Net → value-buffer-slot permutation (identity when unoptimized;
    /// see [`crate::opt`]'s renumbering pass). State slots
    /// (`>= net_count`) are never permuted.
    pub net_slot: Vec<u32>,
    /// What the optimizer did to this program.
    pub opt: OptStats,
    /// Port-name index into `ports`.
    port_index: HashMap<String, u32>,
    /// Inverse of `net_slot` (derived; rebuilt after decode/optimize).
    slot_net: Vec<u32>,
    /// `output_nets` pre-translated to slots (derived).
    output_slots: Vec<u32>,
    /// Distinct flop clocks in first-use flop order (derived); clock `k`
    /// keeps its previous value in slot `net_count + flops + latches + k`.
    pub(crate) clocks: Vec<ClockDomain>,
    /// The sequential elements the scheduled settle visits on every pass,
    /// in `seq_order` (derived): flops with an async reset, latches, and
    /// any reset-free flop whose Q one of those reads directly before the
    /// flop's own place in the order.
    pub(crate) live: Vec<SeqInstr>,
    /// Per net slot (derived): the Q of a flop outside `live`. The
    /// scheduled settle drives such a Q when its flop captures, and a
    /// write to it calls for one full sequential pass.
    pub(crate) capture_drives: Vec<bool>,
}

impl SimProgram {
    /// Compiles a flat module (no hierarchical instances — flatten first)
    /// and optimizes it ([`crate::opt`]: slot renumbering plus the
    /// schedule proof). The program computes every net, so any net may
    /// be forced or faulted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] if the module has multiple drivers or
    /// a combinational loop.
    pub fn compile(m: &Module) -> Result<Self, SimError> {
        let mut p = Self::compile_unoptimized(m)?;
        crate::opt::optimize(&mut p);
        Ok(p)
    }

    /// Compiles without optimizing: the raw levelized stream, an identity
    /// slot permutation, and `opt.scheduled = false` (so the engine takes
    /// its change-detecting settle). It is the reference that tests
    /// check the optimized program against, and the baseline for
    /// benchmarks; [`crate::opt::optimize`] turns it into what
    /// [`SimProgram::compile`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] if the module has multiple drivers or
    /// a combinational loop.
    pub fn compile_unoptimized(m: &Module) -> Result<Self, SimError> {
        let order = combinational_order(m)?;
        let net_count = m.nets.len();

        // First pass: assign state slots for sequential cells.
        let mut flops = Vec::new();
        let mut latches = Vec::new();
        let mut seq_order = Vec::new();
        let mut next_slot = net_count as u32;
        for (idx, cell) in m.cells.iter().enumerate() {
            if let CellContents::Gate {
                kind,
                inputs,
                output,
            } = &cell.contents
            {
                let slot = |i: usize| inputs[i].index() as u32;
                if kind.is_flop() {
                    let (d, si, se, ck, rstn) = match kind {
                        GateKind::Dff => (slot(0), NO_SLOT, NO_SLOT, slot(1), NO_SLOT),
                        GateKind::DffR => (slot(0), NO_SLOT, NO_SLOT, slot(1), slot(2)),
                        GateKind::Sdff => (slot(0), slot(1), slot(2), slot(3), NO_SLOT),
                        GateKind::SdffR => (slot(0), slot(1), slot(2), slot(3), slot(4)),
                        _ => unreachable!("is_flop covers exactly these kinds"),
                    };
                    seq_order.push(SeqInstr::Flop(flops.len() as u32));
                    flops.push(FlopInstr {
                        cell: idx as u32,
                        d,
                        si,
                        se,
                        ck,
                        rstn,
                        q: output.index() as u32,
                        state: 0, // patched below
                    });
                } else if *kind == GateKind::Latch {
                    seq_order.push(SeqInstr::Latch(latches.len() as u32));
                    latches.push(LatchInstr {
                        cell: idx as u32,
                        d: slot(0),
                        en: slot(1),
                        q: output.index() as u32,
                        state: 0, // patched below
                    });
                }
            }
        }
        for f in &mut flops {
            f.state = next_slot;
            next_slot += 1;
        }
        for l in &mut latches {
            l.state = next_slot;
            next_slot += 1;
        }

        // Second pass: lower scheduled combinational cells.
        let mut comb = Vec::with_capacity(order.len());
        let mut unknown_kinds: Vec<String> = Vec::new();
        for cid in order {
            let CellContents::Gate {
                kind,
                inputs,
                output,
            } = &m.cells[cid.index()].contents
            else {
                continue;
            };
            let op = match kind {
                GateKind::Inv => SimOp::Inv,
                GateKind::Buf => SimOp::Buf,
                GateKind::And2 => SimOp::And2,
                GateKind::And3 => SimOp::And3,
                GateKind::Nand2 => SimOp::Nand2,
                GateKind::Nand3 => SimOp::Nand3,
                GateKind::Nand4 => SimOp::Nand4,
                GateKind::Or2 => SimOp::Or2,
                GateKind::Or3 => SimOp::Or3,
                GateKind::Nor2 => SimOp::Nor2,
                GateKind::Nor3 => SimOp::Nor3,
                GateKind::Xor2 => SimOp::Xor2,
                GateKind::Xnor2 => SimOp::Xnor2,
                GateKind::Mux2 => SimOp::Mux2,
                GateKind::Tie0 => SimOp::Tie0,
                GateKind::Tie1 => SimOp::Tie1,
                other => {
                    let name = format!("{other:?}");
                    if !unknown_kinds.contains(&name) {
                        unknown_kinds.push(name);
                    }
                    SimOp::Unknown
                }
            };
            let mut ins = [NO_SLOT; 4];
            for (i, n) in inputs.iter().take(4).enumerate() {
                ins[i] = n.index() as u32;
            }
            comb.push(Instr {
                op,
                ins,
                out: output.index() as u32,
            });
        }

        let ports: Vec<PortInfo> = m
            .ports
            .iter()
            .map(|p| PortInfo {
                name: p.name.clone(),
                net: p.net,
                dir: p.dir,
            })
            .collect();
        let output_nets = ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .map(|p| p.net)
            .collect();

        if !unknown_kinds.is_empty() {
            // Once per compile, not per gate: the affected gates evaluate
            // to all-X, which silently depresses coverage if unnoticed.
            eprintln!(
                "steac-sim: module `{}`: {} gate kind(s) not recognised by the \
                 packed engine, lowered to all-X `SimOp::Unknown`: {}",
                m.name,
                unknown_kinds.len(),
                unknown_kinds.join(", ")
            );
        }

        let opt = OptStats {
            instrs_after: comb.len() as u32,
            scheduled: false,
        };
        let mut p = Self::assemble(
            m.name.clone(),
            net_count,
            0, // set from the clock table below
            comb,
            flops,
            latches,
            seq_order,
            ports,
            output_nets,
            (0..net_count as u32).collect(),
            opt,
        );
        p.slot_count = p.layout_slot_count();
        Ok(p)
    }

    /// Assembles a program from its parts (the compiler's and the wire
    /// decoder's constructor), building the port-name index and the
    /// derived tables.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        name: String,
        net_count: usize,
        slot_count: usize,
        comb: Vec<Instr>,
        flops: Vec<FlopInstr>,
        latches: Vec<LatchInstr>,
        seq_order: Vec<SeqInstr>,
        ports: Vec<PortInfo>,
        output_nets: Vec<NetId>,
        net_slot: Vec<u32>,
        opt: OptStats,
    ) -> Self {
        let port_index = ports
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i as u32))
            .collect();
        let mut p = SimProgram {
            name,
            net_count,
            slot_count,
            comb,
            flops,
            latches,
            seq_order,
            ports,
            output_nets,
            net_slot,
            opt,
            port_index,
            slot_net: Vec::new(),
            output_slots: Vec::new(),
            clocks: Vec::new(),
            live: Vec::new(),
            capture_drives: Vec::new(),
        };
        p.rebuild_derived();
        p
    }

    /// Rebuilds the derived tables (`slot_net`, `output_slots`, the
    /// clock table and the live sequential list) from the program's own
    /// fields — deterministic, so decoded and freshly-compiled programs
    /// compare equal field-for-field.
    pub(crate) fn rebuild_derived(&mut self) {
        let mut slot_net = vec![0u32; self.net_count];
        for (n, &s) in self.net_slot.iter().enumerate() {
            slot_net[s as usize] = n as u32;
        }
        self.slot_net = slot_net;
        self.output_slots = self
            .output_nets
            .iter()
            .map(|n| self.net_slot[n.index()])
            .collect();

        let base = self.net_count + self.flops.len() + self.latches.len();
        let mut index: HashMap<u32, usize> = HashMap::new();
        let mut clocks: Vec<ClockDomain> = Vec::new();
        for (fi, f) in self.flops.iter().enumerate() {
            let k = *index.entry(f.ck).or_insert_with(|| {
                clocks.push(ClockDomain {
                    ck: f.ck,
                    prev: (base + clocks.len()) as u32,
                    flops: Vec::new(),
                });
                clocks.len() - 1
            });
            clocks[k].flops.push(fi as u32);
        }
        self.clocks = clocks;

        // A reset-free flop's Q changes only when it captures, so the
        // scheduled settle drives it right then instead of on every
        // sequential pass. That is exact unless an element the pass
        // still visits reads that Q before the flop's place in
        // `seq_order`: such a flop stays on the pass.
        let mut read = vec![false; self.net_count];
        self.capture_drives = vec![false; self.net_count];
        self.live.clear();
        for &s in &self.seq_order {
            let reads = match s {
                SeqInstr::Latch(li) => {
                    let l = self.latches[li as usize];
                    [l.d, l.en]
                }
                SeqInstr::Flop(fi) => {
                    let f = self.flops[fi as usize];
                    if f.rstn == NO_SLOT && !read[f.q as usize] {
                        self.capture_drives[f.q as usize] = true;
                        continue;
                    }
                    [f.rstn, NO_SLOT]
                }
            };
            for slot in reads {
                if let Some(r) = read.get_mut(slot as usize) {
                    *r = true;
                }
            }
            self.live.push(s);
        }
    }

    /// The buffer length the side tables imply: nets, flop states, latch
    /// states, then one previous-value slot per distinct flop clock.
    pub(crate) fn layout_slot_count(&self) -> usize {
        self.net_count + self.flops.len() + self.latches.len() + self.clocks.len()
    }

    /// The value-buffer slot holding `net` (optimized programs permute
    /// net slots for locality; unoptimized programs are identity).
    #[inline]
    #[must_use]
    pub fn slot_of(&self, net: NetId) -> u32 {
        self.net_slot[net.index()]
    }

    /// The net occupying value-buffer slot `slot` (< `net_count`).
    #[inline]
    #[must_use]
    pub fn net_of_slot(&self, slot: u32) -> NetId {
        NetId(self.slot_net[slot as usize])
    }

    /// Output-port slots in port order (pre-translated `output_nets`).
    #[inline]
    #[must_use]
    pub fn output_slots(&self) -> &[u32] {
        &self.output_slots
    }

    /// Looks up a port by name.
    #[must_use]
    pub fn port(&self, name: &str) -> Option<&PortInfo> {
        self.port_index.get(name).map(|&i| &self.ports[i as usize])
    }

    /// Looks up a port's net by name.
    #[must_use]
    pub fn port_net(&self, name: &str) -> Option<NetId> {
        self.port(name).map(|p| p.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::NetlistBuilder;

    #[test]
    fn compile_orders_and_sizes() {
        let mut b = NetlistBuilder::new("m");
        let ck = b.input("ck");
        let a = b.input("a");
        let x = b.gate(GateKind::Inv, &[a]);
        let y = b.gate(GateKind::And2, &[a, x]);
        let q = b.gate(GateKind::Dff, &[y, ck]);
        let l = b.gate(GateKind::Latch, &[q, a]);
        b.output("l", l);
        let m = b.finish().unwrap();
        let p = SimProgram::compile(&m).unwrap();
        assert_eq!(p.net_count, m.nets.len());
        assert_eq!(p.comb.len(), 2);
        assert_eq!(p.flops.len(), 1);
        assert_eq!(p.latches.len(), 1);
        // nets + 1 flop state + 1 latch state + 1 clock prev-value
        assert_eq!(p.slot_count, m.nets.len() + 3);
        // Inv feeds And2, so it must be scheduled first.
        assert_eq!(p.comb[0].op, SimOp::Inv);
        assert_eq!(p.comb[1].op, SimOp::And2);
        // Sequential order follows cell order: flop before latch here.
        assert_eq!(p.seq_order, vec![SeqInstr::Flop(0), SeqInstr::Latch(0)]);
    }

    #[test]
    fn compile_rejects_comb_loops() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let x = b.net("x");
        let y = b.gate(GateKind::And2, &[a, x]);
        b.gate_into(GateKind::Inv, &[y], x);
        b.output("y", y);
        let m = b.finish().unwrap();
        assert!(matches!(SimProgram::compile(&m), Err(SimError::Netlist(_))));
    }

    #[test]
    fn scan_flop_slots_are_wired() {
        let mut b = NetlistBuilder::new("m");
        let d = b.input("d");
        let si = b.input("si");
        let se = b.input("se");
        let ck = b.input("ck");
        let rstn = b.input("rstn");
        let q = b.gate(GateKind::SdffR, &[d, si, se, ck, rstn]);
        b.output("q", q);
        let m = b.finish().unwrap();
        let p = SimProgram::compile(&m).unwrap();
        let f = &p.flops[0];
        assert_ne!(f.si, NO_SLOT);
        assert_ne!(f.se, NO_SLOT);
        assert_ne!(f.rstn, NO_SLOT);
        assert!(f.state as usize >= p.net_count);
        assert_eq!(p.clocks.len(), 1);
        assert_eq!(p.clocks[0].ck, f.ck);
        assert_eq!(p.clocks[0].prev as usize, p.net_count + 1);
        // A reset flop's Q stays on the sequential pass.
        assert_eq!(p.live, vec![SeqInstr::Flop(0)]);
        assert!(!p.capture_drives[f.q as usize]);
    }

    /// Flops share their clock's previous-value slot: three flops on two
    /// clocks take two slots after the state slots, in first-use order.
    /// A reset-free flop leaves the sequential pass unless a latch before
    /// it in cell order reads its Q.
    #[test]
    fn flops_share_one_slot_per_clock() {
        let mut b = NetlistBuilder::new("m");
        let ck0 = b.input("ck0");
        let ck1 = b.input("ck1");
        let d = b.input("d");
        let late_q = b.net("late_q");
        let l = b.gate(GateKind::Latch, &[late_q, d]);
        let q0 = b.gate(GateKind::Dff, &[d, ck0]);
        let q1 = b.gate(GateKind::Dff, &[l, ck1]);
        b.gate_into(GateKind::Dff, &[q1, ck0], late_q);
        b.output("q0", q0);
        let m = b.finish().unwrap();
        let p = SimProgram::compile_unoptimized(&m).unwrap();
        assert_eq!(p.slot_count, m.nets.len() + 3 + 1 + 2);
        let base = (m.nets.len() + 4) as u32;
        let table: Vec<(u32, u32, Vec<u32>)> = p
            .clocks
            .iter()
            .map(|c| (c.ck, c.prev, c.flops.clone()))
            .collect();
        assert_eq!(
            table,
            vec![(ck0.0, base, vec![0, 2]), (ck1.0, base + 1, vec![1])]
        );
        assert_eq!(p.live, vec![SeqInstr::Latch(0), SeqInstr::Flop(2)]);
        assert!(p.capture_drives[q0.index()] && p.capture_drives[q1.index()]);
        assert!(!p.capture_drives[late_q.index()]);
    }
}
