//! Compile-time optimizer, run between **compile** ([`crate::program`])
//! and **execute** ([`crate::engine`]). It rewrites no instruction; it
//! changes where values live and which settle the engine may run:
//!
//! 1. **Slot renumbering** — net slots are permuted level-aware for cache
//!    locality: nets the stream only reads (ports, flop/latch outputs)
//!    first, then combinational outputs in stream order, so the
//!    instruction stream writes the value buffer sequentially. The
//!    permutation is recorded in [`SimProgram::net_slot`] and applied
//!    transparently by the engine's net-addressed API.
//! 2. **Schedule proof** — the stream is verified topologically ordered
//!    and [`OptStats::scheduled`] is set; the engine uses that proof to
//!    run its single-sweep settle.
//!
//! An optimized program is the raw compiler output under a slot
//! permutation: the same instructions in the same order, every net still
//! computed, so a force or fault on any net means what it meant before.
//! [`SimProgram::compile`] always runs both steps. The raw output,
//! [`SimProgram::compile_unoptimized`], keeps identity slots and is never
//! marked scheduled, so the engine takes its change-detecting settle.
//! That settle is the reference the fast path is tested against and the
//! baseline its speed is measured against.

use crate::program::{SimProgram, NO_SLOT};

/// What the optimizer did to one program (carried in
/// [`SimProgram::opt`] and on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptStats {
    /// Instructions in the stream, on either compile path (the wire
    /// carries no copy; decoding re-derives it).
    pub instrs_after: u32,
    /// The stream is verified topologically ordered, licensing the
    /// engine's single-sweep settle: set by [`optimize`], never for
    /// [`SimProgram::compile_unoptimized`] output.
    pub scheduled: bool,
}

/// Renumbers `p`'s net slots and proves its schedule, in place.
pub fn optimize(p: &mut SimProgram) {
    renumber_slots(p);
    p.opt = OptStats {
        instrs_after: p.comb.len() as u32,
        scheduled: stream_is_scheduled(p),
    };
    p.rebuild_derived();
}

/// Level-aware slot renumbering. Composes the permutation into
/// [`SimProgram::net_slot`] and rewrites every slot reference `<
/// net_count`; state slots (`>= net_count`) never move.
fn renumber_slots(p: &mut SimProgram) {
    let net_count = p.net_count;
    let mut comb_written = vec![false; net_count];
    for i in &p.comb {
        comb_written[i.out as usize] = true;
    }
    let mut perm = vec![NO_SLOT; net_count];
    let mut next = 0u32;
    // Hot head: nets the stream only reads (ports, flop/latch outputs).
    for (slot, written) in perm.iter_mut().zip(&comb_written) {
        if !written {
            *slot = next;
            next += 1;
        }
    }
    // Then combinational outputs in stream order, so instruction `i`
    // writes a monotonically increasing slot — sequential stores.
    for i in &p.comb {
        perm[i.out as usize] = next;
        next += 1;
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
    for slot in &mut p.net_slot {
        fix(slot);
    }
}

/// Proves the stream is topologically ordered (every input either has no
/// combinational driver or was written earlier), which is what licenses
/// the engine's single-sweep settle.
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
    use steac_netlist::{GateKind, Module, NetlistBuilder};

    /// Ties feeding a cone of gates, plus one unobserved gate: the
    /// optimizer must keep computing all of them. The output net is
    /// declared first, so renumbering has to move it behind the input.
    fn tie_module() -> Module {
        let mut b = NetlistBuilder::new("ties");
        let y = b.net("y");
        let a = b.input("a");
        let one = b.gate(GateKind::Tie1, &[]);
        let zero = b.gate(GateKind::Tie0, &[]);
        let x1 = b.gate(GateKind::And2, &[a, one]);
        let x2 = b.gate(GateKind::Or2, &[x1, zero]);
        let x3 = b.gate(GateKind::Xor2, &[x2, one]);
        b.gate_into(GateKind::And3, &[x3, one, a], y);
        let _unobserved = b.gate(GateKind::Nand2, &[a, one]);
        b.output("y", y);
        b.finish().unwrap()
    }

    /// The raw program, optimized in place.
    fn optimized(m: &Module) -> SimProgram {
        let mut p = SimProgram::compile_unoptimized(m).unwrap();
        optimize(&mut p);
        p
    }

    /// `compile` is the raw compile, optimized: the same program, field
    /// for field, on a module renumbering moves.
    #[test]
    fn compile_is_the_raw_compile_optimized() {
        let m = tie_module();
        let p = SimProgram::compile(&m).unwrap();
        assert_eq!(p, optimized(&m));
        assert!(p.opt.scheduled);
    }

    #[test]
    fn default_pipeline_keeps_every_net_forceable_and_only_renumbers() {
        let m = tie_module();
        let raw = SimProgram::compile_unoptimized(&m).unwrap();
        let p = optimized(&m);
        // Ties and the unobserved gate all stay computed.
        assert_eq!(p.comb.len(), raw.comb.len());
        assert_eq!(p.opt.instrs_after as usize, raw.comb.len());
        assert!(p.opt.scheduled);
        let ops = |q: &SimProgram| q.comb.iter().map(|i| i.op).collect::<Vec<_>>();
        assert_eq!(ops(&p), ops(&raw));
        // Renumbering happened and is a permutation.
        assert!(p.net_slot.iter().enumerate().any(|(n, &s)| n as u32 != s));
        let mut seen = vec![false; p.net_count];
        for &s in &p.net_slot {
            assert!(!seen[s as usize]);
            seen[s as usize] = true;
        }
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut p = optimized(&tie_module());
        let once = p.clone();
        optimize(&mut p);
        assert_eq!(p, once);
    }

    #[test]
    fn optimized_program_is_value_exact_against_unoptimized() {
        let m = tie_module();
        let unopt = Arc::new(SimProgram::compile_unoptimized(&m).unwrap());
        let opt = Arc::new(optimized(&m));
        for v in [Logic::Zero, Logic::One, Logic::X, Logic::Z] {
            let mut s0: Simulator = Simulator::from_program(Arc::clone(&unopt));
            let mut s1: Simulator = Simulator::from_program(Arc::clone(&opt));
            for s in [&mut s0, &mut s1] {
                s.set_by_name("a", v).unwrap();
                s.settle().unwrap();
            }
            assert_eq!(s0.outputs(), s1.outputs(), "input {v}");
            for n in 0..m.nets.len() as u32 {
                let net = steac_netlist::NetId(n);
                assert_eq!(s0.get(net), s1.get(net), "input {v}, net {n}");
            }
        }
    }

    #[test]
    fn unoptimized_compile_is_identity_permutation_and_unscheduled() {
        let p = SimProgram::compile_unoptimized(&tie_module()).unwrap();
        assert!(!p.opt.scheduled);
        assert_eq!(p.opt.instrs_after as usize, p.comb.len());
        assert!(p.net_slot.iter().enumerate().all(|(n, &s)| n as u32 == s));
    }
}
