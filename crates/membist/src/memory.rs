//! Behavioural SRAM models with injectable functional faults.
//!
//! The DSC chip embeds "tens of single-port and two-port synchronous
//! SRAMs with different sizes"; BRAINS grades March algorithms against
//! the standard functional fault models on these models:
//!
//! * **SAF** — stuck-at fault: a cell permanently holds 0 or 1,
//! * **TF** — transition fault: a cell cannot make a 0→1 (or 1→0)
//!   transition,
//! * **CFin** — inversion coupling: an aggressor transition inverts the
//!   victim,
//! * **CFid** — idempotent coupling: an aggressor transition forces the
//!   victim to a fixed value,
//! * **CFst** — state coupling: writing the aggressor into a given state
//!   forces the victim,
//! * **AF** — address-decoder faults (no access / multi access / other
//!   access).

use std::fmt;

/// Port configuration of an SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// One read/write port.
    SinglePort,
    /// One read port plus one write port usable in the same cycle.
    TwoPort,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::SinglePort => f.write_str("SP"),
            PortKind::TwoPort => f.write_str("2P"),
        }
    }
}

/// Geometry of an SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SramConfig {
    /// Number of words.
    pub words: usize,
    /// Word width in bits.
    pub width: usize,
    /// Port configuration.
    pub ports: PortKind,
}

impl SramConfig {
    /// Single-port configuration.
    #[must_use]
    pub fn single_port(words: usize, width: usize) -> Self {
        SramConfig {
            words,
            width,
            ports: PortKind::SinglePort,
        }
    }

    /// Two-port configuration.
    #[must_use]
    pub fn two_port(words: usize, width: usize) -> Self {
        SramConfig {
            words,
            width,
            ports: PortKind::TwoPort,
        }
    }

    /// Capacity in bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.words * self.width
    }

    /// Address bus width.
    #[must_use]
    pub fn addr_bits(&self) -> usize {
        (usize::BITS - (self.words.max(2) - 1).leading_zeros()) as usize
    }

    /// The word with every one of the `width` bits set (all 64 bits
    /// from a width of 64 up).
    #[must_use]
    pub fn word_mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// `true` when every cell and address `fault` names exists in this
    /// geometry and the two cells or addresses it pairs differ: the
    /// faults [`Sram::with_fault`] and the packed walk accept, and the
    /// ones a decoded March work unit may carry.
    #[must_use]
    pub fn fits(&self, fault: &MemFault) -> bool {
        let cell = |(a, b): (usize, usize)| a < self.words && b < self.width;
        match *fault {
            MemFault::StuckAt { addr, bit, .. } | MemFault::Transition { addr, bit, .. } => {
                cell((addr, bit))
            }
            MemFault::CouplingInversion {
                aggressor, victim, ..
            }
            | MemFault::CouplingIdempotent {
                aggressor, victim, ..
            }
            | MemFault::CouplingState {
                aggressor, victim, ..
            } => cell(aggressor) && cell(victim) && aggressor != victim,
            MemFault::AfNoAccess { addr } => addr < self.words,
            MemFault::AfMultiAccess { addr, also: other }
            | MemFault::AfOtherAccess { addr, other } => {
                addr < self.words && other < self.words && addr != other
            }
        }
    }
}

impl fmt::Display for SramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} {}", self.words, self.width, self.ports)
    }
}

/// An injectable functional memory fault. Cell coordinates are
/// `(address, bit)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemFault {
    /// Stuck-at: the cell always reads `value` and cannot be changed.
    StuckAt {
        /// Word address of the faulty cell.
        addr: usize,
        /// Bit position of the faulty cell.
        bit: usize,
        /// The stuck value.
        value: bool,
    },
    /// Transition fault: the cell cannot transition in the given
    /// direction (`rising = true`: 0→1 fails).
    Transition {
        /// Word address of the faulty cell.
        addr: usize,
        /// Bit position of the faulty cell.
        bit: usize,
        /// Failing direction.
        rising: bool,
    },
    /// Inversion coupling: when the aggressor makes the `rising`
    /// transition, the victim inverts.
    CouplingInversion {
        /// Aggressor cell.
        aggressor: (usize, usize),
        /// Victim cell.
        victim: (usize, usize),
        /// Triggering aggressor transition direction.
        rising: bool,
    },
    /// Idempotent coupling: when the aggressor makes the `rising`
    /// transition, the victim is forced to `forced`.
    CouplingIdempotent {
        /// Aggressor cell.
        aggressor: (usize, usize),
        /// Victim cell.
        victim: (usize, usize),
        /// Triggering aggressor transition direction.
        rising: bool,
        /// Value forced onto the victim.
        forced: bool,
    },
    /// State coupling: whenever the aggressor is written into state
    /// `state`, the victim is forced to `forced`.
    CouplingState {
        /// Aggressor cell.
        aggressor: (usize, usize),
        /// Victim cell.
        victim: (usize, usize),
        /// Aggressor state that triggers the fault.
        state: bool,
        /// Value forced onto the victim.
        forced: bool,
    },
    /// Address decoder: `addr` cannot be accessed (writes lost, reads
    /// return 0).
    AfNoAccess {
        /// Unreachable address.
        addr: usize,
    },
    /// Address decoder: accessing `addr` also accesses `also`.
    AfMultiAccess {
        /// The address as issued.
        addr: usize,
        /// The additional address hit by the decoder.
        also: usize,
    },
    /// Address decoder: accessing `addr` actually accesses `other`.
    AfOtherAccess {
        /// The address as issued.
        addr: usize,
        /// The address actually accessed.
        other: usize,
    },
}

impl MemFault {
    /// Convenience: stuck-at fault.
    #[must_use]
    pub fn stuck_at(addr: usize, bit: usize, value: bool) -> Self {
        MemFault::StuckAt { addr, bit, value }
    }

    /// Convenience: up-transition fault (cell cannot go 0→1).
    #[must_use]
    pub fn transition_up(addr: usize, bit: usize) -> Self {
        MemFault::Transition {
            addr,
            bit,
            rising: true,
        }
    }

    /// Short class label (`SAF`, `TF`, `CFin`, ...).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            MemFault::StuckAt { .. } => "SAF",
            MemFault::Transition { .. } => "TF",
            MemFault::CouplingInversion { .. } => "CFin",
            MemFault::CouplingIdempotent { .. } => "CFid",
            MemFault::CouplingState { .. } => "CFst",
            MemFault::AfNoAccess { .. }
            | MemFault::AfMultiAccess { .. }
            | MemFault::AfOtherAccess { .. } => "AF",
        }
    }
}

/// A behavioural SRAM with at most one injected fault (single-fault
/// assumption, as in standard memory test theory).
#[derive(Debug, Clone)]
pub struct Sram {
    config: SramConfig,
    /// Cell array, bit-packed per word into `u64` limbs — widths ≤ 64
    /// are supported, which covers the DSC inventory.
    data: Vec<u64>,
    fault: Option<MemFault>,
}

impl Sram {
    /// A fault-free memory with all cells `0` (BIST initialises contents
    /// anyway; March tests start with a write element).
    ///
    /// # Panics
    ///
    /// Panics if `config.width > 64` or `config.words == 0`.
    #[must_use]
    pub fn new(config: SramConfig) -> Self {
        assert!(config.width <= 64, "model supports widths up to 64 bits");
        assert!(config.words > 0, "memory must have at least one word");
        Sram {
            config,
            data: vec![0; config.words],
            fault: None,
        }
    }

    /// A memory with one injected fault.
    ///
    /// # Panics
    ///
    /// Panics when `config` does not [fit](SramConfig::fits) the fault
    /// (programming error in the fault-list generator) or on unsupported
    /// geometry.
    #[must_use]
    pub fn with_fault(config: SramConfig, fault: MemFault) -> Self {
        let mut m = Self::new(config);
        assert!(
            config.fits(&fault),
            "fault {fault:?} out of range for {config}"
        );
        m.fault = Some(fault);
        m
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> SramConfig {
        self.config
    }

    fn get_bit(&self, addr: usize, bit: usize) -> bool {
        (self.data[addr] >> bit) & 1 == 1
    }

    fn set_bit(&mut self, addr: usize, bit: usize, v: bool) {
        if v {
            self.data[addr] |= 1 << bit;
        } else {
            self.data[addr] &= !(1 << bit);
        }
    }

    /// Raw write of a word into the cell array, honouring cell-level
    /// faults (SAF/TF) per bit, then applying coupling disturbances.
    ///
    /// Coupling effects fire *after* the word has latched (the
    /// disturbance follows the write), which makes the semantics
    /// independent of bit ordering within the word.
    fn write_cells(&mut self, addr: usize, value: u64) {
        let mut transitions: Vec<(usize, bool)> = Vec::new();
        for bit in 0..self.config.width {
            let new = (value >> bit) & 1 == 1;
            let old = self.get_bit(addr, bit);
            // Cell-level write faults.
            let mut effective = new;
            match self.fault {
                Some(MemFault::StuckAt {
                    addr: fa,
                    bit: fb,
                    value,
                }) if fa == addr && fb == bit => effective = value,
                Some(MemFault::Transition {
                    addr: fa,
                    bit: fb,
                    rising,
                }) if fa == addr && fb == bit => {
                    if rising && !old && new {
                        effective = false; // 0->1 fails
                    } else if !rising && old && !new {
                        effective = true; // 1->0 fails
                    }
                }
                _ => {}
            }
            self.set_bit(addr, bit, effective);
            if effective != old {
                transitions.push((bit, effective));
            }
        }
        // Coupling side effects after the word latches.
        for (bit, now) in transitions {
            self.aggressor_transition((addr, bit), now);
        }
        if let Some(MemFault::CouplingState {
            aggressor,
            victim,
            state,
            forced,
        }) = self.fault
        {
            if aggressor.0 == addr {
                let now = self.get_bit(aggressor.0, aggressor.1);
                if now == state {
                    self.set_bit(victim.0, victim.1, forced);
                }
            }
        }
    }

    fn aggressor_transition(&mut self, cell: (usize, usize), now: bool) {
        match self.fault {
            Some(MemFault::CouplingInversion {
                aggressor,
                victim,
                rising,
            }) if aggressor == cell && now == rising => {
                let v = self.get_bit(victim.0, victim.1);
                self.set_bit(victim.0, victim.1, !v);
            }
            Some(MemFault::CouplingIdempotent {
                aggressor,
                victim,
                rising,
                forced,
            }) if aggressor == cell && now == rising => {
                self.set_bit(victim.0, victim.1, forced);
            }
            _ => {}
        }
    }

    /// Writes `value` to `addr` through the (possibly faulty) decoder.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: usize, value: u64) {
        assert!(addr < self.config.words, "address {addr} out of range");
        let value = value & self.config.word_mask();
        match self.fault {
            Some(MemFault::AfNoAccess { addr: fa }) if fa == addr => { /* write lost */ }
            Some(MemFault::AfMultiAccess { addr: fa, also }) if fa == addr => {
                self.write_cells(addr, value);
                self.write_cells(also, value);
            }
            Some(MemFault::AfOtherAccess { addr: fa, other }) if fa == addr => {
                self.write_cells(other, value);
            }
            _ => self.write_cells(addr, value),
        }
    }

    /// Reads `addr` through the (possibly faulty) decoder.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[must_use]
    pub fn read(&self, addr: usize) -> u64 {
        assert!(addr < self.config.words, "address {addr} out of range");
        let raw = match self.fault {
            Some(MemFault::AfNoAccess { addr: fa }) if fa == addr => 0,
            Some(MemFault::AfOtherAccess { addr: fa, other }) if fa == addr => self.data[other],
            Some(MemFault::AfMultiAccess { addr: fa, also }) if fa == addr => {
                // Wired-AND of the two selected rows (typical CMOS
                // bit-line behaviour).
                self.data[addr] & self.data[also]
            }
            _ => self.data[addr],
        };
        let mut value = raw & self.config.word_mask();
        // A stuck cell reads stuck regardless of the array content.
        if let Some(MemFault::StuckAt {
            addr: fa,
            bit,
            value: v,
        }) = self.fault
        {
            if fa == addr {
                if v {
                    value |= 1 << bit;
                } else {
                    value &= !(1 << bit);
                }
            }
        }
        value
    }

    /// Simultaneous read+write for two-port memories (write takes effect
    /// after the read returns, write-after-read semantics).
    ///
    /// # Panics
    ///
    /// Panics if the memory is single-port or addresses are out of range.
    pub fn read_write(&mut self, raddr: usize, waddr: usize, value: u64) -> u64 {
        assert_eq!(
            self.config.ports,
            PortKind::TwoPort,
            "read_write needs a two-port memory"
        );
        let out = self.read(raddr);
        self.write(waddr, value);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_read_write() {
        let mut m = Sram::new(SramConfig::single_port(16, 8));
        m.write(3, 0xA5);
        assert_eq!(m.read(3), 0xA5);
        assert_eq!(m.read(4), 0);
    }

    #[test]
    fn width_mask_applies() {
        let mut m = Sram::new(SramConfig::single_port(4, 4));
        m.write(0, 0xFF);
        assert_eq!(m.read(0), 0x0F);
    }

    #[test]
    fn stuck_at_zero_never_reads_one() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::stuck_at(2, 3, false),
        );
        m.write(2, 0xFF);
        assert_eq!(m.read(2), 0xFF & !(1 << 3));
    }

    #[test]
    fn transition_up_fault_blocks_only_rising() {
        let mut m = Sram::with_fault(SramConfig::single_port(8, 8), MemFault::transition_up(1, 0));
        m.write(1, 0x00);
        m.write(1, 0x01); // 0->1 on bit 0 fails
        assert_eq!(m.read(1) & 1, 0);
        // Other bits and 1->0 unaffected.
        m.write(1, 0xFE);
        assert_eq!(m.read(1), 0xFE);
        m.write(1, 0x00);
        assert_eq!(m.read(1), 0x00);
    }

    #[test]
    fn coupling_inversion_fires_on_aggressor_transition() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::CouplingInversion {
                aggressor: (0, 0),
                victim: (1, 0),
                rising: true,
            },
        );
        m.write(1, 0x00);
        m.write(0, 0x01); // aggressor 0->1: victim inverts to 1
        assert_eq!(m.read(1) & 1, 1);
        m.write(0, 0x00); // falling: no effect
        assert_eq!(m.read(1) & 1, 1);
    }

    #[test]
    fn coupling_idempotent_forces_value() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::CouplingIdempotent {
                aggressor: (2, 1),
                victim: (5, 1),
                rising: false,
                forced: true,
            },
        );
        m.write(5, 0x00);
        m.write(2, 0x02);
        m.write(2, 0x00); // 1->0 on aggressor triggers
        assert_eq!((m.read(5) >> 1) & 1, 1);
    }

    #[test]
    fn coupling_state_forces_while_written() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::CouplingState {
                aggressor: (0, 0),
                victim: (3, 0),
                state: true,
                forced: false,
            },
        );
        m.write(3, 0x01);
        m.write(0, 0x01); // aggressor written to 1: victim forced to 0
        assert_eq!(m.read(3) & 1, 0);
    }

    #[test]
    fn af_no_access_loses_writes() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::AfNoAccess { addr: 4 },
        );
        m.write(4, 0xFF);
        assert_eq!(m.read(4), 0);
    }

    #[test]
    fn af_other_access_redirects() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::AfOtherAccess { addr: 2, other: 6 },
        );
        m.write(2, 0x55);
        assert_eq!(m.read(2), 0x55); // reads follow the same redirect
        assert_eq!(m.read(6), 0x55); // actually stored at 6
                                     // Direct write to 6 shows up at faulty address 2 as well.
        m.write(6, 0xAA);
        assert_eq!(m.read(2), 0xAA);
    }

    #[test]
    fn af_multi_access_wired_and() {
        let mut m = Sram::with_fault(
            SramConfig::single_port(8, 8),
            MemFault::AfMultiAccess { addr: 1, also: 3 },
        );
        m.write(3, 0x0F);
        m.write(1, 0xFF); // writes both 1 and 3
        assert_eq!(m.read(3), 0xFF);
        m.write(3, 0x0F);
        assert_eq!(m.read(1), 0x0F); // wired-AND of rows 1 and 3
    }

    #[test]
    fn two_port_read_write_same_cycle() {
        let mut m = Sram::new(SramConfig::two_port(8, 8));
        m.write(0, 0x11);
        let out = m.read_write(0, 1, 0x22);
        assert_eq!(out, 0x11);
        assert_eq!(m.read(1), 0x22);
    }

    #[test]
    #[should_panic(expected = "two-port")]
    fn single_port_rejects_read_write() {
        let mut m = Sram::new(SramConfig::single_port(8, 8));
        let _ = m.read_write(0, 1, 0);
    }

    #[test]
    fn fits_checks_every_named_cell_and_pair() {
        let cfg = SramConfig::single_port(4, 2);
        assert!(cfg.fits(&MemFault::stuck_at(3, 1, true)));
        assert!(!cfg.fits(&MemFault::stuck_at(4, 0, true)));
        assert!(!cfg.fits(&MemFault::transition_up(0, 2)));
        let cfst = |aggressor, victim| MemFault::CouplingState {
            aggressor,
            victim,
            state: true,
            forced: false,
        };
        assert!(cfg.fits(&cfst((0, 0), (0, 1))));
        assert!(!cfg.fits(&cfst((1, 1), (1, 1))));
        assert!(!cfg.fits(&cfst((0, 0), (4, 0))));
        assert!(!cfg.fits(&MemFault::AfNoAccess { addr: 4 }));
        assert!(!cfg.fits(&MemFault::AfMultiAccess { addr: 2, also: 2 }));
        assert!(cfg.fits(&MemFault::AfOtherAccess { addr: 2, other: 3 }));
        assert!(!cfg.fits(&MemFault::AfOtherAccess { addr: 2, other: 4 }));
    }

    #[test]
    #[should_panic(expected = "out of range for 4x2 SP")]
    fn with_fault_rejects_a_fault_that_does_not_fit() {
        let _ = Sram::with_fault(
            SramConfig::single_port(4, 2),
            MemFault::stuck_at(0, 2, true),
        );
    }

    #[test]
    fn class_labels() {
        assert_eq!(MemFault::stuck_at(0, 0, true).class(), "SAF");
        assert_eq!(MemFault::AfNoAccess { addr: 0 }.class(), "AF");
    }
}
