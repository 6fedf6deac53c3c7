//! Table 1 cores as synthetic gate-level netlists.
//!
//! Each generator produces a module whose port list, scan structure and
//! control-pin inventory match the paper exactly; internal logic is a
//! compact XOR-mix so that scan captures observe PI activity. The real
//! cores' logic sizes are recorded as declared GE so chip-level area
//! accounting matches the 0.25 µm DSC (see [`crate::chip`]).

use steac_netlist::{GateKind, Module, NetId, NetlistBuilder, NetlistError};

/// One row of the paper's Table 1 plus the §3 control-pin detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Core name.
    pub core: &'static str,
    /// Dedicated test inputs.
    pub ti: usize,
    /// Dedicated test outputs.
    pub to: usize,
    /// Functional inputs.
    pub pi: usize,
    /// Functional outputs.
    pub po: usize,
    /// Internal scan chain lengths.
    pub scan_chains: &'static [usize],
    /// Scan pattern count.
    pub scan_patterns: u64,
    /// Functional pattern count.
    pub functional_patterns: u64,
    /// Clock domains.
    pub clocks: usize,
    /// Reset pins.
    pub resets: usize,
    /// Scan-enable pins.
    pub scan_enables: usize,
    /// Test-enable pins.
    pub test_enables: usize,
}

/// The paper's Table 1 (USB, TV encoder, JPEG), with the §3 control
/// detail: "The USB core has 4 clock domains, 3 reset signals, 1 scan
/// enable (SE) signal, and 6 test signals... The TV encoder [...] test
/// pins include one clock, reset, SE, and test enable signals... The
/// legacy JPEG core has only functional patterns and one clock domain."
pub const TABLE1: [Table1Row; 3] = [
    Table1Row {
        core: "USB",
        ti: 18,
        to: 4,
        pi: 221,
        po: 104,
        scan_chains: &[1629, 78, 293, 45],
        scan_patterns: 716,
        functional_patterns: 0,
        clocks: 4,
        resets: 3,
        scan_enables: 1,
        test_enables: 6,
    },
    Table1Row {
        core: "TV",
        ti: 6,
        to: 1,
        pi: 25,
        po: 40,
        scan_chains: &[577, 576],
        scan_patterns: 229,
        functional_patterns: 202_673,
        clocks: 1,
        resets: 1,
        scan_enables: 1,
        test_enables: 1,
    },
    Table1Row {
        core: "JPEG",
        ti: 1,
        to: 0,
        pi: 165,
        po: 104,
        scan_chains: &[],
        scan_patterns: 0,
        functional_patterns: 235_696,
        clocks: 1,
        resets: 0,
        scan_enables: 0,
        test_enables: 0,
    },
];

/// Interface parameters of a generated core (port names for the wrapper
/// generator and the STIL emitter).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreParams {
    /// Module name.
    pub name: String,
    /// Clock port names.
    pub clocks: Vec<String>,
    /// Reset port names (active low).
    pub resets: Vec<String>,
    /// Scan-enable port name, if scanned.
    pub scan_enable: Option<String>,
    /// Test-enable port names.
    pub test_enables: Vec<String>,
    /// Scan-in ports per chain.
    pub scan_si: Vec<String>,
    /// Scan-out ports per chain.
    pub scan_so: Vec<String>,
    /// Functional input ports.
    pub pi: Vec<String>,
    /// Functional output ports.
    pub po: Vec<String>,
    /// Index of the PO shared with a scan-out, if any (the TV encoder's
    /// shared pin).
    pub shared_scan_out_po: Option<usize>,
}

/// Builds a scan chain of `len` SDFFs whose functional `D` mixes the
/// previous stage with a data tap (so captures depend on PIs).
fn build_chain(
    b: &mut NetlistBuilder,
    len: usize,
    si: NetId,
    se: NetId,
    ck: NetId,
    taps: &[NetId],
    label: &str,
) -> NetId {
    let mut prev_q = si;
    let mut func = taps.first().copied().unwrap_or(si);
    for j in 0..len {
        let d = b.gate(GateKind::Xor2, &[func, taps[j % taps.len().max(1)]]);
        let q = b.net(&format!("{label}_q{j}"));
        b.gate_into(GateKind::Sdff, &[d, prev_q, se, ck], q);
        prev_q = q;
        func = q;
    }
    prev_q
}

/// Generates the USB core: 4 clock domains, 3 resets, 1 SE, 6 test
/// signals, 4 scan chains (1629/78/293/45) with dedicated scan IO,
/// 221 PIs, 104 POs. TI = 4+3+1+6+4 = 18, TO = 4.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn usb_core() -> Result<(Module, CoreParams), NetlistError> {
    let row = &TABLE1[0];
    let mut b = NetlistBuilder::new("usb_core");
    let mut p = CoreParams {
        name: "usb_core".to_string(),
        ..CoreParams::default()
    };
    let clocks: Vec<NetId> = (0..row.clocks)
        .map(|i| {
            let n = format!("ck{i}");
            p.clocks.push(n.clone());
            b.input(&n)
        })
        .collect();
    for i in 0..row.resets {
        let n = format!("rst{i}");
        p.resets.push(n.clone());
        let _ = b.input(&n); // resets tie into test logic only
    }
    let se = b.input("se");
    p.scan_enable = Some("se".to_string());
    for i in 0..row.test_enables {
        let n = format!("test{i}");
        p.test_enables.push(n.clone());
        let _ = b.input(&n);
    }
    let pi: Vec<NetId> = (0..row.pi)
        .map(|i| {
            let n = format!("d[{i}]");
            p.pi.push(n.clone());
            b.input(&n)
        })
        .collect();

    // One chain per clock domain, as in the paper.
    let mut chain_ends = Vec::new();
    for (c, &len) in row.scan_chains.iter().enumerate() {
        let si_name = format!("si{c}");
        let si = b.input(&si_name);
        p.scan_si.push(si_name);
        let taps: Vec<NetId> = pi.iter().skip(c * 7 % 50).take(16).copied().collect();
        let end = build_chain(&mut b, len, si, se, clocks[c], &taps, &format!("u{c}"));
        chain_ends.push(end);
        let so_name = format!("so{c}");
        b.output(&so_name, end);
        p.scan_so.push(so_name);
    }
    // Functional outputs: XOR mixes of chain state and PIs.
    for i in 0..row.po {
        let a = chain_ends[i % chain_ends.len()];
        let t = pi[(i * 3) % pi.len()];
        let y = b.gate(GateKind::Xor2, &[a, t]);
        let n = format!("q[{i}]");
        b.output(&n, y);
        p.po.push(n);
    }
    // Real USB 1.1 device-core logic is on the order of 25 kGE beyond the
    // 2045 scan flops modelled explicitly.
    b.declare_extra_ge(25_000.0);
    Ok((b.finish()?, p))
}

/// Generates the TV encoder: 1 clock, 1 reset, 1 SE, 1 TE, 2 chains
/// (577/576) where chain 1's scan-out *shares* the functional output
/// `q[39]` (the paper: "one scan chain shares the output with a
/// functional output"), 25 PIs, 40 POs. TI = 1+1+1+1+2 = 6, TO = 1.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn tv_core() -> Result<(Module, CoreParams), NetlistError> {
    let row = &TABLE1[1];
    let mut b = NetlistBuilder::new("tv_core");
    let mut p = CoreParams {
        name: "tv_core".to_string(),
        ..CoreParams::default()
    };
    let ck = b.input("ck");
    p.clocks.push("ck".to_string());
    let _rst = b.input("rst");
    p.resets.push("rst".to_string());
    let se = b.input("se");
    p.scan_enable = Some("se".to_string());
    let _te = b.input("te");
    p.test_enables.push("te".to_string());
    let pi: Vec<NetId> = (0..row.pi)
        .map(|i| {
            let n = format!("d[{i}]");
            p.pi.push(n.clone());
            b.input(&n)
        })
        .collect();

    let mut chain_ends = Vec::new();
    for (c, &len) in row.scan_chains.iter().enumerate() {
        let si_name = format!("si{c}");
        let si = b.input(&si_name);
        p.scan_si.push(si_name);
        let end = build_chain(&mut b, len, si, se, ck, &pi, &format!("t{c}"));
        chain_ends.push(end);
    }
    // Chain 0: dedicated scan-out.
    b.output("so0", chain_ends[0]);
    p.scan_so.push("so0".to_string());
    // Functional outputs; q[39] doubles as chain 1's scan-out.
    for i in 0..row.po {
        let n = format!("q[{i}]");
        if i == 39 {
            b.output(&n, chain_ends[1]);
            p.shared_scan_out_po = Some(39);
        } else {
            let a = chain_ends[i % chain_ends.len()];
            let t = pi[(i * 5) % pi.len()];
            let y = b.gate(GateKind::Xor2, &[a, t]);
            b.output(&n, y);
        }
        p.po.push(n);
    }
    p.scan_so.push("q[39]".to_string());
    // NTSC/PAL encoder logic ~ 18 kGE beyond the 1153 scan flops.
    b.declare_extra_ge(18_000.0);
    Ok((b.finish()?, p))
}

/// Generates the legacy JPEG codec: one clock, no scan, no test pins
/// beyond the clock (TI = 1, TO = 0), 165 PIs, 104 POs, functional
/// patterns only.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn jpeg_core() -> Result<(Module, CoreParams), NetlistError> {
    let row = &TABLE1[2];
    let mut b = NetlistBuilder::new("jpeg_core");
    let mut p = CoreParams {
        name: "jpeg_core".to_string(),
        ..CoreParams::default()
    };
    let ck = b.input("ck");
    p.clocks.push("ck".to_string());
    let pi: Vec<NetId> = (0..row.pi)
        .map(|i| {
            let n = format!("d[{i}]");
            p.pi.push(n.clone());
            b.input(&n)
        })
        .collect();
    // A small pipeline: non-scanned flops (legacy core).
    let mut regs = Vec::new();
    for i in 0..32 {
        let d = b.gate(
            GateKind::Xor2,
            &[pi[i % pi.len()], pi[(i * 7 + 1) % pi.len()]],
        );
        regs.push(b.gate(GateKind::Dff, &[d, ck]));
    }
    for i in 0..row.po {
        let y = b.gate(
            GateKind::Xor2,
            &[regs[i % regs.len()], pi[(i * 11) % pi.len()]],
        );
        let n = format!("q[{i}]");
        b.output(&n, y);
        p.po.push(n);
    }
    // Legacy JPEG codec ~ 55 kGE.
    b.declare_extra_ge(55_000.0);
    Ok((b.finish()?, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::PortDir;

    fn count_dir(m: &Module, dir: PortDir) -> usize {
        m.ports_with_dir(dir).count()
    }

    #[test]
    fn usb_interface_matches_table1() {
        let (m, p) = usb_core().unwrap();
        // Inputs: 4 ck + 3 rst + 1 se + 6 test + 4 si + 221 d = 239.
        assert_eq!(count_dir(&m, PortDir::Input), 239);
        // Outputs: 4 so + 104 q = 108.
        assert_eq!(count_dir(&m, PortDir::Output), 108);
        // TI = clocks+resets+se+test+dedicated si = 18.
        let ti = p.clocks.len()
            + p.resets.len()
            + usize::from(p.scan_enable.is_some())
            + p.test_enables.len()
            + p.scan_si.len();
        assert_eq!(ti, TABLE1[0].ti);
        assert_eq!(m.flop_count(), 1629 + 78 + 293 + 45);
    }

    #[test]
    fn tv_interface_matches_table1_with_shared_pin() {
        let (m, p) = tv_core().unwrap();
        // Inputs: ck + rst + se + te + 2 si + 25 d = 31.
        assert_eq!(count_dir(&m, PortDir::Input), 31);
        // Outputs: so0 + 40 q = 41 (q[39] shared).
        assert_eq!(count_dir(&m, PortDir::Output), 41);
        assert_eq!(p.shared_scan_out_po, Some(39));
        // Dedicated scan outs = 1 -> TO = 1.
        let dedicated_so = p.scan_so.iter().filter(|s| !s.starts_with("q[")).count();
        assert_eq!(dedicated_so, TABLE1[1].to);
        assert_eq!(m.flop_count(), 577 + 576);
    }

    #[test]
    fn jpeg_has_no_scan() {
        let (m, p) = jpeg_core().unwrap();
        assert!(p.scan_si.is_empty());
        assert!(p.scan_enable.is_none());
        assert_eq!(count_dir(&m, PortDir::Input), 1 + 165);
        assert_eq!(count_dir(&m, PortDir::Output), 104);
        // Non-scan flops only.
        assert!(m.flop_count() > 0);
    }

    /// The compiled USB core keeps one previous-value slot per clock
    /// domain, not one per flop: nets, 2,045 flop states, no latch and
    /// four clocks.
    #[test]
    fn usb_program_has_one_previous_clock_slot_per_domain() {
        let (m, _) = usb_core().unwrap();
        let p = steac_sim::SimProgram::compile(&m).unwrap();
        assert_eq!(p.slot_count, m.nets.len() + 2045 + 4);
        assert_eq!(p.slot_count, 6482);
    }

    #[test]
    fn usb_scan_chain_shifts() {
        use steac_sim::{scan, Logic, ScanPorts, Simulator};
        let (m, p) = usb_core().unwrap();
        let mut sim: Simulator = Simulator::new(&m).unwrap();
        // Quiet all inputs.
        for port in m.ports_with_dir(PortDir::Input) {
            let net = port.net;
            sim.set(net, Logic::Zero);
        }
        sim.settle().unwrap();
        // Shift a short marker through the *shortest* chain (45 flops,
        // chain index 3) to keep the test fast.
        let ports = ScanPorts {
            si: vec![p.scan_si[3].clone()],
            so: vec![p.scan_so[3].clone()],
            se: "se".to_string(),
            clock: "ck3".to_string(),
        };
        use Logic::{One, Zero};
        let mut bits = vec![Zero; 45];
        bits[0] = One;
        bits[7] = One;
        scan::shift(&mut sim, &ports, &[bits.clone()]).unwrap();
        let out = scan::shift(&mut sim, &ports, &[vec![Zero; 45]]).unwrap();
        assert_eq!(out[0], bits, "chain must behave as a FIFO");
    }
}
