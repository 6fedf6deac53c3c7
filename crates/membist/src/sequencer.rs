//! The BIST Sequencer: walks a March algorithm over the address space,
//! emitting one [`BistCommand`] per cycle (Fig. 2's "Sequencer" boxes).
//!
//! The behavioural iterator is the only code that orders a March walk:
//! each element in turn, ⇑ and ⇕ elements at ascending addresses, ⇓
//! elements at descending ones, and at each address the element's ops
//! in order. Fault simulation walks it, both the packed grading kernel
//! and the scalar walk over a [`crate::memory::Sram`] behind
//! [`crate::faultsim::run_march`], the failure logs and the
//! data-background extension. Scheduling needs only the command count,
//! [`MarchAlgorithm::cycles`]. [`sequencer_netlist`] generates the
//! corresponding hardware (address up/down counter, element and op
//! counters, done flag) for area accounting and structural checks.

use crate::march::{Direction, MarchAlgorithm, MarchOp};
use steac_netlist::{GateKind, Module, NetlistBuilder, NetlistError};

/// One cycle of BIST activity: apply `op` at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistCommand {
    /// Index of the March element issuing the command (the netlist's
    /// `elem_index`).
    pub element: usize,
    /// March operation.
    pub op: MarchOp,
    /// Word address.
    pub addr: usize,
}

/// Behavioural sequencer: an iterator over the command stream of one
/// algorithm on one address space.
#[derive(Debug, Clone)]
pub struct Sequencer<'a> {
    alg: &'a MarchAlgorithm,
    words: usize,
    element: usize,
    addr_step: usize,
    op: usize,
}

impl<'a> Sequencer<'a> {
    /// Creates a sequencer for `alg` over `words` addresses.
    #[must_use]
    pub fn new(alg: &'a MarchAlgorithm, words: usize) -> Self {
        Sequencer {
            alg,
            words,
            element: 0,
            addr_step: 0,
            op: 0,
        }
    }

    /// Total command count (= BIST cycles).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.alg.cycles(self.words)
    }
}

impl Iterator for Sequencer<'_> {
    type Item = BistCommand;

    fn next(&mut self) -> Option<BistCommand> {
        let index = self.element;
        let element = self.alg.elements.get(index).filter(|_| self.words > 0)?;
        let addr = match element.dir {
            Direction::Up | Direction::Any => self.addr_step,
            Direction::Down => self.words - 1 - self.addr_step,
        };
        let op = element.ops[self.op];
        // Advance: op fastest, then address, then element.
        self.op += 1;
        if self.op == element.ops.len() {
            self.op = 0;
            self.addr_step += 1;
            if self.addr_step == self.words {
                self.addr_step = 0;
                self.element += 1;
            }
        }
        Some(BistCommand {
            element: index,
            op,
            addr,
        })
    }
}

/// Generates the sequencer hardware for a memory with `addr_bits`
/// address bits running an algorithm with `elements` March elements of up
/// to `max_ops` operations each.
///
/// Ports: `bck` (BIST clock), `brst_n`, `run`; outputs `addr[k]`,
/// `op_index[k]`, `elem_index[k]`, `done`.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn sequencer_netlist(
    addr_bits: usize,
    elements: usize,
    max_ops: usize,
) -> Result<Module, NetlistError> {
    assert!(addr_bits > 0 && elements > 0 && max_ops > 0);
    let mut b = NetlistBuilder::new("steac_bist_sequencer");
    let bck = b.input("bck");
    let brst_n = b.input("brst_n");
    let run = b.input("run");

    let op_bits = bits_for(max_ops);
    let elem_bits = bits_for(elements);

    // Op counter (fastest): wraps at max_ops; its wrap enables the
    // address counter; the address wrap enables the element counter.
    let (op_q, op_wrap) = wrapping_counter(&mut b, op_bits, run, brst_n, bck, "op");
    let (addr_q, addr_wrap) = wrapping_counter(&mut b, addr_bits, op_wrap, brst_n, bck, "addr");
    let elem_en = b.gate(GateKind::And2, &[op_wrap, addr_wrap]);
    let (elem_q, elem_wrap) = wrapping_counter(&mut b, elem_bits, elem_en, brst_n, bck, "elem");

    // Done latch: set when the element counter wraps past the last
    // element.
    let done = b.net("done_q");
    let done_next = b.gate(GateKind::Or2, &[done, elem_wrap]);
    b.gate_into(GateKind::DffR, &[done_next, bck, brst_n], done);

    for (i, &q) in addr_q.iter().enumerate() {
        b.output(&format!("addr[{i}]"), q);
    }
    for (i, &q) in op_q.iter().enumerate() {
        b.output(&format!("op_index[{i}]"), q);
    }
    for (i, &q) in elem_q.iter().enumerate() {
        b.output(&format!("elem_index[{i}]"), q);
    }
    b.output("done", done);
    b.finish()
}

fn bits_for(n: usize) -> usize {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
}

/// Counter with enable; returns `(bits, wrap)` where `wrap` pulses with
/// the enable when all bits are 1 (terminal count).
fn wrapping_counter(
    b: &mut NetlistBuilder,
    bits: usize,
    enable: steac_netlist::NetId,
    clear_n: steac_netlist::NetId,
    ck: steac_netlist::NetId,
    prefix: &str,
) -> (Vec<steac_netlist::NetId>, steac_netlist::NetId) {
    let mut q = Vec::with_capacity(bits);
    for i in 0..bits {
        q.push(b.net(&format!("{prefix}_q{i}")));
    }
    let mut carry = enable;
    for (i, &qi) in q.iter().enumerate() {
        let d = b.gate(GateKind::Xor2, &[qi, carry]);
        if i + 1 < bits {
            carry = b.gate(GateKind::And2, &[carry, qi]);
        }
        b.gate_into(GateKind::DffR, &[d, ck, clear_n], qi);
    }
    let tc = b.and_tree(&q);
    let wrap = b.gate(GateKind::And2, &[tc, enable]);
    (q, wrap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::march::MarchAlgorithm;
    use steac_netlist::AreaReport;
    use steac_sim::{Logic, Simulator};

    #[test]
    fn command_stream_length_matches_kn() {
        let alg = MarchAlgorithm::march_c_minus();
        let seq = Sequencer::new(&alg, 32);
        assert_eq!(seq.clone().count() as u64, alg.cycles(32));
        assert_eq!(seq.total_cycles(), 320);
    }

    #[test]
    fn first_element_initialises_background() {
        let alg = MarchAlgorithm::march_c_minus();
        let mut seq = Sequencer::new(&alg, 4);
        // ⇕(w0): first 4 commands write 0 at ascending addresses.
        for i in 0..4 {
            let c = seq.next().unwrap();
            assert_eq!(c.op, MarchOp::W0);
            assert_eq!(c.addr, i);
        }
        // ⇑(r0,w1) at address 0 next.
        let c = seq.next().unwrap();
        assert_eq!(c.op, MarchOp::R0);
        assert_eq!(c.addr, 0);
    }

    /// MATS+ on two words, command by command: ⇕ ascends, ⇓ descends,
    /// ops run in order at each address, and every command names its
    /// element. An empty address space issues nothing.
    #[test]
    fn commands_follow_the_march_order() {
        use MarchOp::{R0, R1, W0, W1};
        let alg = MarchAlgorithm::mats_plus();
        let walk: Vec<(usize, MarchOp, usize)> = Sequencer::new(&alg, 2)
            .map(|c| (c.element, c.op, c.addr))
            .collect();
        let expected = [
            (0, W0, 0),
            (0, W0, 1),
            (1, R0, 0),
            (1, W1, 0),
            (1, R0, 1),
            (1, W1, 1),
            (2, R1, 1),
            (2, W0, 1),
            (2, R1, 0),
            (2, W0, 0),
        ];
        assert_eq!(walk, expected);
        assert_eq!(Sequencer::new(&alg, 0).count(), 0);
    }

    #[test]
    fn down_elements_descend() {
        let alg = MarchAlgorithm::parse("d", "{down(r0)}").unwrap();
        let addrs: Vec<usize> = Sequencer::new(&alg, 3).map(|c| c.addr).collect();
        assert_eq!(addrs, vec![2, 1, 0]);
    }

    #[test]
    fn netlist_builds_and_counts() {
        let m = sequencer_netlist(4, 6, 2).unwrap();
        let area = AreaReport::for_module(&m).total_ge();
        assert!(area > 50.0 && area < 300.0, "sequencer area {area}");

        // Drive it: after reset, run for 2 cycles (op counter has 1 bit
        // for max_ops=2) and watch the address counter tick.
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("bck", Logic::Zero).unwrap();
        sim.set_by_name("run", Logic::Zero).unwrap();
        sim.set_by_name("brst_n", Logic::Zero).unwrap();
        sim.settle().unwrap();
        sim.set_by_name("brst_n", Logic::One).unwrap();
        sim.set_by_name("run", Logic::One).unwrap();
        for _ in 0..2 {
            sim.clock_cycle_by_name("bck").unwrap();
        }
        assert_eq!(sim.get_by_name("addr[0]").unwrap(), Logic::One);
        assert_eq!(sim.get_by_name("done").unwrap(), Logic::Zero);
    }

    #[test]
    fn done_rises_after_full_walk() {
        // 1 address bit (2 words... we use full wrap), 1 element, 1 op:
        // done after op x addr wrap = 2 cycles... with 1-bit counters
        // all-ones TC means done after 2*1 cycles of run.
        let m = sequencer_netlist(1, 1, 1).unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        sim.set_by_name("bck", Logic::Zero).unwrap();
        sim.set_by_name("run", Logic::Zero).unwrap();
        sim.set_by_name("brst_n", Logic::Zero).unwrap();
        sim.settle().unwrap();
        sim.set_by_name("brst_n", Logic::One).unwrap();
        sim.set_by_name("run", Logic::One).unwrap();
        let mut done_at = None;
        for cycle in 0..8 {
            sim.clock_cycle_by_name("bck").unwrap();
            if sim.get_by_name("done").unwrap() == Logic::One {
                done_at = Some(cycle);
                break;
            }
        }
        assert!(done_at.is_some(), "sequencer never finished");
    }
}
