//! The Test Pattern Generator (TPG): per-memory adapter translating
//! March commands into RAM pin activity and comparing read data
//! (Fig. 2's "TPG" boxes).

use crate::march::MarchOp;
use crate::memory::{PortKind, SramConfig};
use steac_netlist::{GateKind, Module, NetlistBuilder, NetlistError};

/// RAM pin activity for one BIST cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamSignals {
    /// Word address driven on the address bus.
    pub addr: usize,
    /// Data bus value (background pattern).
    pub data: u64,
    /// Write enable, active low (`false` = writing).
    pub web: bool,
    /// Chip enable, active low (`false` = selected).
    pub ceb: bool,
    /// Expected read data, when the op is a read.
    pub expected: Option<u64>,
}

/// Translates one March command into RAM signals for `config`.
#[must_use]
pub fn translate(op: MarchOp, addr: usize, config: &SramConfig) -> RamSignals {
    let bg = if op.value() { config.word_mask() } else { 0 };
    RamSignals {
        addr,
        data: bg,
        web: op.is_read(),
        ceb: false,
        expected: op.is_read().then_some(bg),
    }
}

/// Generates the TPG hardware for one memory: background data expansion,
/// write-enable decode and the read comparator (XOR reduce + pass/fail
/// flop).
///
/// Ports: `op_read`, `op_value`, `bck`, `brst_n`, `q[k]` (RAM read
/// data) inputs; `d[k]`, `web`, `ceb`, `fail` outputs. Two-port
/// memories additionally get `web2` for the write port.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn tpg_netlist(config: &SramConfig) -> Result<Module, NetlistError> {
    let mut b = NetlistBuilder::new(format!(
        "steac_tpg_{}x{}_{}",
        config.words, config.width, config.ports
    ));
    let op_read = b.input("op_read");
    let op_value = b.input("op_value");
    let bck = b.input("bck");
    let brst_n = b.input("brst_n");
    let q = b.input_bus("q", config.width);

    // Background expansion: every data bit equals op_value.
    for i in 0..config.width {
        let d = b.gate(GateKind::Buf, &[op_value]);
        b.output(&format!("d[{i}]"), d);
    }
    // web: high (inactive) while reading.
    let web = b.gate(GateKind::Buf, &[op_read]);
    b.output("web", web);
    if config.ports == PortKind::TwoPort {
        let web2 = b.gate(GateKind::Buf, &[op_read]);
        b.output("web2", web2);
    }
    let ceb = b.tie0();
    b.output("ceb", ceb);

    // Comparator: any read bit != op_value while op_read sets the sticky
    // fail flop.
    let diffs: Vec<_> = q
        .iter()
        .map(|&bit| b.gate(GateKind::Xor2, &[bit, op_value]))
        .collect();
    let any_diff = b.or_tree(&diffs);
    let mismatch = b.gate(GateKind::And2, &[any_diff, op_read]);
    let fail = b.net("fail_q");
    let fail_next = b.gate(GateKind::Or2, &[fail, mismatch]);
    b.gate_into(GateKind::DffR, &[fail_next, bck, brst_n], fail);
    b.output("fail", fail);

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::AreaReport;
    use steac_sim::{Logic, Simulator};

    #[test]
    fn translate_write_ops() {
        let cfg = SramConfig::single_port(256, 8);
        let s = translate(MarchOp::W1, 7, &cfg);
        assert_eq!(s.addr, 7);
        assert_eq!(s.data, 0xFF);
        assert!(!s.web);
        assert!(s.expected.is_none());
    }

    #[test]
    fn translate_read_ops() {
        let cfg = SramConfig::single_port(256, 8);
        let s = translate(MarchOp::R0, 31, &cfg);
        assert!(s.web);
        assert_eq!(s.expected, Some(0));
    }

    #[test]
    fn netlist_fail_flag_is_sticky() {
        let cfg = SramConfig::single_port(16, 4);
        let m = tpg_netlist(&cfg).unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        for p in ["op_read", "op_value", "bck"] {
            sim.set_by_name(p, Logic::Zero).unwrap();
        }
        for i in 0..4 {
            sim.set_by_name(&format!("q[{i}]"), Logic::Zero).unwrap();
        }
        sim.set_by_name("brst_n", Logic::Zero).unwrap();
        sim.settle().unwrap();
        sim.set_by_name("brst_n", Logic::One).unwrap();
        // Read expecting 0 with q = 0: no fail.
        sim.set_by_name("op_read", Logic::One).unwrap();
        sim.clock_cycle_by_name("bck").unwrap();
        assert_eq!(sim.get_by_name("fail").unwrap(), Logic::Zero);
        // Corrupt one bit: fail latches.
        sim.set_by_name("q[2]", Logic::One).unwrap();
        sim.clock_cycle_by_name("bck").unwrap();
        assert_eq!(sim.get_by_name("fail").unwrap(), Logic::One);
        // And stays, even after the mismatch goes away.
        sim.set_by_name("q[2]", Logic::Zero).unwrap();
        sim.clock_cycle_by_name("bck").unwrap();
        assert_eq!(sim.get_by_name("fail").unwrap(), Logic::One);
    }

    #[test]
    fn two_port_gets_second_write_enable() {
        let m = tpg_netlist(&SramConfig::two_port(16, 4)).unwrap();
        assert!(m.port("web2").is_some());
        let sp = tpg_netlist(&SramConfig::single_port(16, 4)).unwrap();
        assert!(sp.port("web2").is_none());
    }

    #[test]
    fn area_scales_with_width() {
        let narrow = AreaReport::for_module(&tpg_netlist(&SramConfig::single_port(16, 4)).unwrap())
            .total_ge();
        let wide = AreaReport::for_module(&tpg_netlist(&SramConfig::single_port(16, 32)).unwrap())
            .total_ge();
        assert!(wide > narrow);
    }
}
