//! Compile-time optimizer: a pass pipeline over the [`SimProgram`] IR,
//! run between **compile** ([`crate::program`]) and **execute**
//! ([`crate::engine`]).
//!
//! The pipeline is on by default (`STEAC_OPT=0` is the escape hatch that
//! ships the raw compiler output) and runs four passes in order:
//!
//! 1. **Constant folding** — `Tie0`/`Tie1` (and all-X `Unknown`) fanin is
//!    propagated through the 4-value algebra: `And2(a, 1) → Buf(a)`,
//!    `And2(a, 0) → Tie0`, `Xor2(a, 1) → Inv(a)`, 3/4-input gates shrink
//!    an input at a time, and fully-constant cones collapse to tie
//!    instructions. Every rewrite is a per-lane identity of the packed
//!    algebra (including `X`/`Z` lanes), so folded programs are bit-exact.
//! 2. **Hash-consing / CSE** — structurally identical instructions (same
//!    opcode, same input slots after canonicalisation through earlier
//!    merges) share one computation; later consumers are rewired to the
//!    first occurrence.
//! 3. **Dead-instruction elimination** — instructions whose output nets
//!    are unobserved by any output port, flop/latch side-table read, or
//!    *forceable* slot are removed. Net slots are never deleted — a dead
//!    net's slot stays addressable so forces still land — but its
//!    computation disappears from the hot loop.
//! 4. **Slot renumbering** — net slots are permuted level-aware for cache
//!    locality: non-combinational nets (ports, flop/latch outputs) first,
//!    then combinational outputs in stream order (so the instruction
//!    stream writes the value buffer sequentially), with dead nets parked
//!    at the cold tail ([`OptStats::slots_reclaimed`]). The permutation is
//!    recorded in [`SimProgram::net_slot`] and applied transparently by
//!    the engine's net-addressed API.
//!
//! # Soundness under PPSFP forces
//!
//! Fault injection and pattern playback *force* net values at run time
//! ([`crate::engine::Simulator::force`]), and a rewrite that is a pure
//! value identity can still change behaviour under a force: folding
//! `And2(a, tie1)` to `Buf(a)` erases the detection of a stuck-at-0
//! *on the tie net itself*, and rewiring a CSE duplicate changes which
//! net's forces its consumers see. [`OptConfig::forceable`] therefore
//! declares the set of nets that may ever be forced or faulted:
//!
//! * constants are only propagated off nets **outside** the forceable
//!   set, and CSE only merges instructions whose outputs are both outside
//!   it;
//! * forceable nets are DCE roots (fault sites stay computed);
//! * `None` — the default, used by [`SimProgram::compile`] — means
//!   **every net** is forceable, which keeps folding/CSE/DCE inert and
//!   still enables the two unconditionally-sound passes: renumbering and
//!   schedule verification. That is exactly the contract whole-netlist
//!   fault grading needs: any net can carry a fault, so every net's
//!   computation is observable-in-principle.
//!
//! Callers that know their force surface (e.g. pure functional playback
//! driving only input ports) opt in to the aggressive passes with
//! [`SimProgram::compile_with`] and a restricted set; with a restricted
//! set, `Simulator::get` on an eliminated interior net reads the
//! parked slot (all-X) instead of a computed value, so reads should
//! stay within `forceable ∪ ports`.
//!
//! # Scheduling
//!
//! The final pass re-verifies that the (possibly rewritten) stream is
//! topologically ordered and sets [`OptStats::scheduled`]; the engine
//! uses that proof to run its single-sweep settle fast path
//! (`STEAC_OPT=0` programs are never marked scheduled and take the
//! legacy fixpoint loop — that is the honest baseline the speedup is
//! measured against).

use crate::logic::Logic;
use crate::program::{Instr, SimOp, SimProgram, NO_SLOT};
use steac_netlist::NetId;

/// Which passes run and which nets may be forced or faulted at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptConfig {
    /// Propagate `Tie0`/`Tie1`/all-X constants through gate fanin.
    pub fold: bool,
    /// Merge structurally identical instructions (hash-consing).
    pub cse: bool,
    /// Drop instructions behind unobservable nets.
    pub dce: bool,
    /// Permute net slots for cache locality.
    pub renumber: bool,
    /// Nets that may be forced or faulted at run time; `None` means all
    /// of them (the safe whole-netlist-PPSFP default, which keeps
    /// `fold`/`cse`/`dce` inert by construction).
    pub forceable: Option<Vec<NetId>>,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            fold: true,
            cse: true,
            dce: true,
            renumber: true,
            forceable: None,
        }
    }
}

impl OptConfig {
    /// The default pipeline with an explicit forceable-net set, enabling
    /// the aggressive passes outside that set.
    #[must_use]
    pub fn with_forceable(nets: Vec<NetId>) -> Self {
        OptConfig {
            forceable: Some(nets),
            ..OptConfig::default()
        }
    }
}

/// What the pipeline did to one program (carried in
/// [`SimProgram::opt`], round-tripped by the wire format, and surfaced
/// by [`SimProgram::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OptStats {
    /// Whether the pipeline ran at all (`false` under `STEAC_OPT=0`).
    pub enabled: bool,
    /// Instructions simplified by constant folding.
    pub folded: u32,
    /// Instructions whose consumers were rewired to an identical earlier
    /// instruction.
    pub cse_merged: u32,
    /// Dead instructions removed.
    pub dce_removed: u32,
    /// Net slots parked at the cold tail (dead nets).
    pub slots_reclaimed: u32,
    /// Instruction count before the pipeline.
    pub instrs_before: u32,
    /// Instruction count after the pipeline.
    pub instrs_after: u32,
    /// The stream is verified topologically ordered, licensing the
    /// engine's single-sweep settle fast path.
    pub scheduled: bool,
}

/// Runs the configured passes over `p` in place and records the
/// resulting [`OptStats`] (plus the slot permutation) on the program.
pub fn optimize(p: &mut SimProgram, cfg: &OptConfig) {
    let mut stats = OptStats {
        enabled: true,
        instrs_before: p.comb.len() as u32,
        ..OptStats::default()
    };
    let forceable = forceable_flags(p, cfg);
    if cfg.fold {
        fold_constants(p, &forceable, &mut stats);
    }
    if cfg.cse {
        merge_common_subexprs(p, &forceable, &mut stats);
    }
    // Which nets had a combinational driver *before* DCE, so renumbering
    // can tell dead comb nets (cold tail) from never-driven nets (ports,
    // sequential outputs).
    let comb_written: Vec<bool> = {
        let mut w = vec![false; p.net_count];
        for i in &p.comb {
            w[i.out as usize] = true;
        }
        w
    };
    if cfg.dce {
        eliminate_dead(p, &forceable, &mut stats);
    }
    if cfg.renumber {
        renumber_slots(p, &comb_written, &mut stats);
    }
    stats.scheduled = stream_is_scheduled(p);
    stats.instrs_after = p.comb.len() as u32;
    p.opt = stats;
    p.rebuild_derived();
}

/// Per-net forceable flags; `None` in the config means every net.
fn forceable_flags(p: &SimProgram, cfg: &OptConfig) -> Vec<bool> {
    match &cfg.forceable {
        None => vec![true; p.net_count],
        Some(nets) => {
            let mut f = vec![false; p.net_count];
            for n in nets {
                if n.index() < p.net_count {
                    f[n.index()] = true;
                }
            }
            f
        }
    }
}

/// One reduction step on `i` given the known constants. Returns the
/// simplified instruction, or `None` when nothing applies. Every rule is
/// a per-lane identity of the packed 4-value algebra (`X`/`Z` included),
/// so rewritten programs stay bit-exact; rules that drop a *constant*
/// input edge are only reachable when that constant's net is outside the
/// forceable set (the `consts` table never records forceable nets).
fn reduce(i: &Instr, consts: &[Option<Logic>]) -> Option<Instr> {
    use SimOp::*;
    let c = |slot: u32| consts[slot as usize];
    let tie = |v: Logic, out: u32| {
        let op = match v {
            Logic::Zero => Tie0,
            Logic::One => Tie1,
            _ => Unknown,
        };
        Instr {
            op,
            ins: [NO_SLOT; 4],
            out,
        }
    };
    let unary = |op: SimOp, a: u32, out: u32| Instr {
        op,
        ins: [a, NO_SLOT, NO_SLOT, NO_SLOT],
        out,
    };
    // Shrinks an n-ary AND/NAND/OR/NOR by one input once a neutral
    // constant is found at `drop`.
    let shrink = |op: SimOp, i: &Instr, drop: usize| {
        let mut ins = [NO_SLOT; 4];
        let mut n = 0;
        for (k, &s) in i.ins.iter().enumerate().take(i.op.arity()) {
            if k != drop {
                ins[n] = s;
                n += 1;
            }
        }
        Instr {
            op,
            ins,
            out: i.out,
        }
    };
    // First constant input (if any) for the n-ary gates.
    let const_in = |i: &Instr| (0..i.op.arity()).find_map(|k| c(i.ins[k]).map(|v| (k, v)));
    match i.op {
        Inv => match c(i.ins[0])? {
            Logic::Zero => Some(tie(Logic::One, i.out)),
            Logic::One => Some(tie(Logic::Zero, i.out)),
            _ => Some(tie(Logic::X, i.out)),
        },
        Buf => match c(i.ins[0])? {
            Logic::Zero => Some(tie(Logic::Zero, i.out)),
            Logic::One => Some(tie(Logic::One, i.out)),
            _ => Some(tie(Logic::X, i.out)),
        },
        And2 | And3 => {
            let (k, v) = const_in(i)?;
            match v {
                // 0 dominates for every other lane value.
                Logic::Zero => Some(tie(Logic::Zero, i.out)),
                Logic::One if i.op == And2 => Some(unary(Buf, i.ins[1 - k], i.out)),
                Logic::One => Some(shrink(And2, i, k)),
                _ => None,
            }
        }
        Nand2 | Nand3 | Nand4 => {
            let (k, v) = const_in(i)?;
            match v {
                Logic::Zero => Some(tie(Logic::One, i.out)),
                Logic::One if i.op == Nand2 => Some(unary(Inv, i.ins[1 - k], i.out)),
                Logic::One if i.op == Nand3 => Some(shrink(Nand2, i, k)),
                Logic::One => Some(shrink(Nand3, i, k)),
                _ => None,
            }
        }
        Or2 | Or3 => {
            let (k, v) = const_in(i)?;
            match v {
                Logic::One => Some(tie(Logic::One, i.out)),
                Logic::Zero if i.op == Or2 => Some(unary(Buf, i.ins[1 - k], i.out)),
                Logic::Zero => Some(shrink(Or2, i, k)),
                _ => None,
            }
        }
        Nor2 | Nor3 => {
            let (k, v) = const_in(i)?;
            match v {
                Logic::One => Some(tie(Logic::Zero, i.out)),
                Logic::Zero if i.op == Nor2 => Some(unary(Inv, i.ins[1 - k], i.out)),
                Logic::Zero => Some(shrink(Nor2, i, k)),
                _ => None,
            }
        }
        Xor2 | Xnor2 => {
            let (k, v) = const_in(i)?;
            let other = i.ins[1 - k];
            let inverting = (i.op == Xor2) == (v == Logic::One);
            match v {
                // Any X input makes XOR/XNOR X on that lane — and a
                // constant X input makes it X on *every* lane.
                Logic::X | Logic::Z => Some(tie(Logic::X, i.out)),
                _ if inverting => Some(unary(Inv, other, i.out)),
                _ => Some(unary(Buf, other, i.out)),
            }
        }
        Mux2 => {
            let (a, b, s) = (i.ins[0], i.ins[1], i.ins[2]);
            match c(s) {
                Some(Logic::Zero) => Some(unary(Buf, a, i.out)),
                Some(Logic::One) => Some(unary(Buf, b, i.out)),
                // Unknown select: mux(v, v, s) = buf(v) for every s
                // (agreement rule), so equal constant arms still fold.
                _ => match (c(a), c(b)) {
                    (Some(va), Some(vb)) if va == vb => Some(tie(va, i.out)),
                    _ => None,
                },
            }
        }
        Tie0 | Tie1 | Unknown => None,
    }
}

/// Pass 1: constant folding. Walks the (topological) stream once,
/// reducing each instruction to fixpoint against the constants known so
/// far; constants are only *recorded* for non-forceable output nets, so
/// a potential fault site is never folded away.
fn fold_constants(p: &mut SimProgram, forceable: &[bool], stats: &mut OptStats) {
    let mut consts: Vec<Option<Logic>> = vec![None; p.slot_count];
    for i in &mut p.comb {
        let mut changed = false;
        while let Some(next) = reduce(i, &consts) {
            *i = next;
            changed = true;
        }
        if changed {
            stats.folded += 1;
        }
        if !forceable[i.out as usize] {
            consts[i.out as usize] = match i.op {
                SimOp::Tie0 => Some(Logic::Zero),
                SimOp::Tie1 => Some(Logic::One),
                SimOp::Unknown => Some(Logic::X),
                _ => None,
            };
        }
    }
}

/// Pass 2: hash-consing / CSE. Consumers of a structurally identical
/// later instruction are rewired to the first occurrence; the duplicate
/// instruction itself stays (its net may be a port) and is removed by
/// DCE if nothing reads it any more. Only non-forceable outputs merge —
/// rewiring changes which net's run-time forces a consumer sees.
fn merge_common_subexprs(p: &mut SimProgram, forceable: &[bool], stats: &mut OptStats) {
    use std::collections::HashMap;
    let net_count = p.net_count;
    // replace[slot] is the canonical slot consumers should read.
    let mut replace: Vec<u32> = (0..p.slot_count as u32).collect();
    let mut seen: HashMap<(SimOp, [u32; 4]), u32> = HashMap::new();
    for i in &mut p.comb {
        for k in 0..i.op.arity() {
            i.ins[k] = replace[i.ins[k] as usize];
        }
        let key = (i.op, i.ins);
        match seen.get(&key) {
            Some(&first) if !forceable[i.out as usize] && !forceable[first as usize] => {
                replace[i.out as usize] = first;
                stats.cse_merged += 1;
            }
            Some(_) => {}
            None => {
                seen.insert(key, i.out);
            }
        }
    }
    // Sequential side tables read nets too.
    let fix = |s: &mut u32| {
        if *s != NO_SLOT && (*s as usize) < net_count {
            *s = replace[*s as usize];
        }
    };
    for f in &mut p.flops {
        fix(&mut f.d);
        fix(&mut f.si);
        fix(&mut f.se);
        fix(&mut f.ck);
        fix(&mut f.rstn);
    }
    for l in &mut p.latches {
        fix(&mut l.d);
        fix(&mut l.en);
    }
}

/// Pass 3: dead-instruction elimination. Roots are output ports, every
/// sequential side-table read, and every forceable net (fault sites and
/// force targets stay computed); one reverse walk over the topological
/// stream then drops instructions nobody observes. Slots survive — only
/// the computation goes.
fn eliminate_dead(p: &mut SimProgram, forceable: &[bool], stats: &mut OptStats) {
    let mut live = vec![false; p.slot_count];
    for (n, &f) in forceable.iter().enumerate() {
        if f {
            live[n] = true;
        }
    }
    for port in &p.ports {
        live[port.net.index()] = true;
    }
    for n in &p.output_nets {
        live[n.index()] = true;
    }
    let mut root = |s: u32| {
        if s != NO_SLOT {
            live[s as usize] = true;
        }
    };
    for f in &p.flops {
        root(f.d);
        root(f.si);
        root(f.se);
        root(f.ck);
        root(f.rstn);
    }
    for l in &p.latches {
        root(l.d);
        root(l.en);
    }
    for i in p.comb.iter().rev() {
        if live[i.out as usize] {
            for k in 0..i.op.arity() {
                live[i.ins[k] as usize] = true;
            }
        }
    }
    let before = p.comb.len();
    p.comb.retain(|i| live[i.out as usize]);
    stats.dce_removed = (before - p.comb.len()) as u32;
}

/// Pass 4: level-aware slot renumbering. Composes the permutation into
/// [`SimProgram::net_slot`] and rewrites every slot reference `<
/// net_count`; state slots (`>= net_count`) never move.
fn renumber_slots(p: &mut SimProgram, comb_written: &[bool], stats: &mut OptStats) {
    let net_count = p.net_count;
    let mut perm = vec![NO_SLOT; net_count];
    let mut next = 0u32;
    // Hot head: nets the stream only reads (ports, flop/latch outputs).
    for (n, item) in perm.iter_mut().enumerate() {
        if !comb_written[n] {
            *item = next;
            next += 1;
        }
    }
    // Then combinational outputs in stream order, so instruction `i`
    // writes a monotonically increasing slot — sequential stores.
    for i in &p.comb {
        if perm[i.out as usize] == NO_SLOT {
            perm[i.out as usize] = next;
            next += 1;
        }
    }
    // Cold tail: nets whose producers DCE removed.
    for item in perm.iter_mut() {
        if *item == NO_SLOT {
            *item = next;
            next += 1;
            stats.slots_reclaimed += 1;
        }
    }
    debug_assert_eq!(next as usize, net_count);
    let fix = |s: &mut u32| {
        if *s != NO_SLOT && (*s as usize) < net_count {
            *s = perm[*s as usize];
        }
    };
    for i in &mut p.comb {
        for k in 0..i.op.arity() {
            fix(&mut i.ins[k]);
        }
        fix(&mut i.out);
    }
    for f in &mut p.flops {
        fix(&mut f.d);
        fix(&mut f.si);
        fix(&mut f.se);
        fix(&mut f.ck);
        fix(&mut f.rstn);
        fix(&mut f.q);
    }
    for l in &mut p.latches {
        fix(&mut l.d);
        fix(&mut l.en);
        fix(&mut l.q);
    }
    for (n, slot) in p.net_slot.iter_mut().enumerate() {
        *slot = perm[n];
    }
}

/// Final pass: proves the stream is topologically ordered (every input
/// either has no combinational driver or was written earlier), which is
/// what licenses the engine's single-sweep settle.
#[must_use]
pub(crate) fn stream_is_scheduled(p: &SimProgram) -> bool {
    let mut comb_writes = vec![false; p.slot_count];
    for i in &p.comb {
        comb_writes[i.out as usize] = true;
    }
    let mut written = vec![false; p.slot_count];
    for i in &p.comb {
        for k in 0..i.op.arity() {
            let s = i.ins[k] as usize;
            if comb_writes[s] && !written[s] {
                return false;
            }
        }
        written[i.out as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::logic::Logic;
    use std::sync::Arc;
    use steac_netlist::{GateKind, NetlistBuilder};

    /// Ties feeding a cone of foldable gates, with the ties *outside*
    /// the forceable set so folding fires.
    fn foldable_module() -> (steac_netlist::Module, Vec<NetId>) {
        let mut b = NetlistBuilder::new("fold");
        let a = b.input("a");
        let one = b.gate(GateKind::Tie1, &[]);
        let zero = b.gate(GateKind::Tie0, &[]);
        let x1 = b.gate(GateKind::And2, &[a, one]); // -> Buf(a)
        let x2 = b.gate(GateKind::Or2, &[x1, zero]); // -> Buf(x1)
        let x3 = b.gate(GateKind::Xor2, &[x2, one]); // -> Inv(x2)
        let x4 = b.gate(GateKind::And3, &[x3, one, a]); // -> And2(x3, a)
        let dead = b.gate(GateKind::Nand2, &[a, one]); // unobserved
        let _ = dead;
        b.output("y", x4);
        let m = b.finish().unwrap();
        let ports = vec![m.port("a").unwrap().net, m.port("y").unwrap().net];
        (m, ports)
    }

    #[test]
    fn folding_cse_dce_fire_with_restricted_forceable_set() {
        let (m, ports) = foldable_module();
        let p = SimProgram::compile_with(&m, &OptConfig::with_forceable(ports)).unwrap();
        assert!(p.opt.enabled && p.opt.scheduled);
        assert!(p.opt.folded >= 3, "stats: {:?}", p.opt);
        assert!(p.opt.dce_removed >= 1, "stats: {:?}", p.opt);
        assert!(p.opt.slots_reclaimed >= 1, "stats: {:?}", p.opt);
        assert!(p.opt.instrs_after < p.opt.instrs_before);
    }

    #[test]
    fn default_pipeline_keeps_every_net_forceable_and_only_renumbers() {
        let (m, _) = foldable_module();
        // compile_with, not compile: the assertion must hold at any
        // STEAC_OPT setting (CI runs the suite with the escape hatch on).
        let p = SimProgram::compile_with(&m, &OptConfig::default()).unwrap();
        // All nets forceable: fold/CSE/DCE must stay inert.
        assert_eq!(p.opt.folded, 0);
        assert_eq!(p.opt.cse_merged, 0);
        assert_eq!(p.opt.dce_removed, 0);
        assert_eq!(p.opt.instrs_before, p.opt.instrs_after);
        assert!(p.opt.scheduled);
        // Renumbering still happened and is a permutation.
        let mut seen = vec![false; p.net_count];
        for &s in &p.net_slot {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    #[test]
    fn optimized_program_is_value_exact_against_unoptimized() {
        let (m, ports) = foldable_module();
        let unopt = Arc::new(SimProgram::compile_unoptimized(&m).unwrap());
        let opt =
            Arc::new(SimProgram::compile_with(&m, &OptConfig::with_forceable(ports)).unwrap());
        for v in [Logic::Zero, Logic::One, Logic::X, Logic::Z] {
            let mut s0: Simulator = Simulator::from_program(Arc::clone(&unopt));
            let mut s1: Simulator = Simulator::from_program(Arc::clone(&opt));
            for s in [&mut s0, &mut s1] {
                s.set_by_name("a", v).unwrap();
                s.settle().unwrap();
            }
            assert_eq!(s0.outputs(), s1.outputs(), "input {v}");
        }
    }

    #[test]
    fn cse_merges_identical_gates_outside_forceable_set() {
        let mut b = NetlistBuilder::new("cse");
        let a = b.input("a");
        let c = b.input("c");
        let d1 = b.gate(GateKind::Nand2, &[a, c]);
        let d2 = b.gate(GateKind::Nand2, &[a, c]);
        let y = b.gate(GateKind::Xor2, &[d1, d2]);
        b.output("y", y);
        let m = b.finish().unwrap();
        let ports: Vec<NetId> = m.ports.iter().map(|p| p.net).collect();
        let p = SimProgram::compile_with(&m, &OptConfig::with_forceable(ports)).unwrap();
        assert_eq!(p.opt.cse_merged, 1, "stats: {:?}", p.opt);
        // The duplicate's computation is dead once consumers are rewired.
        assert_eq!(p.opt.dce_removed, 1, "stats: {:?}", p.opt);
    }

    #[test]
    fn unoptimized_compile_is_identity_permutation_and_unscheduled() {
        let (m, _) = foldable_module();
        let p = SimProgram::compile_unoptimized(&m).unwrap();
        assert!(!p.opt.enabled && !p.opt.scheduled);
        assert!(p.net_slot.iter().enumerate().all(|(n, &s)| n as u32 == s));
    }
}
