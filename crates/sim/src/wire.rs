//! Versioned, dependency-free binary wire format for compiled programs
//! and work-unit payloads — the serialization substrate that lets the
//! compile-once/execute-many pipeline fan out across *processes* (and,
//! eventually, machines) instead of just threads.
//!
//! # Layout
//!
//! Everything is little-endian and length-prefixed; there are no padding
//! bytes and no self-describing schema. Strings are a `u64` byte length
//! followed by UTF-8 bytes; nested blobs ("blocks") are a `u64` byte
//! length followed by raw bytes. A serialized [`SimProgram`] is:
//!
//! ```text
//! magic   b"SPRG"                        (4 bytes)
//! version u16                            (currently 10)
//! name    str
//! net_count, slot_count                  (u64 each)
//! comb    u64 count, then per instr:     op u8, ins 4 x u32, out u32
//! flops   u64 count, then per flop:      cell,d,si,se,ck,rstn,q,state (8 x u32)
//! latches u64 count, then per latch:     cell,d,en,q,state (5 x u32)
//! seq     u64 count, then per element:   tag u8 (0 = flop, 1 = latch), index u32
//! ports   u64 count, then per port:      name str, net u32, dir u8 (0 = in, 1 = out)
//! outputs u64 count, then per net:       u32
//! slots   u64 count (= net_count), then per net: slot u32 (a permutation)
//! opt     scheduled u8
//! ```
//!
//! Version 2 added the optimizer metadata (the `slots` permutation and
//! the `opt` record), so decoded programs carry their slot renumbering
//! and the engine knows whether the single-sweep settle fast path is
//! licensed. The `scheduled` flag is re-verified against the decoded
//! stream — bytes cannot claim a schedule they do not have. Version 3
//! added the fault-model subsystem's payloads (transition and bridging
//! job/unit layouts, the `SDCT` dictionary block and the diagnose
//! job — see [`crate::models`]); the program layout itself is
//! unchanged, but the whole family moves in lock step per the rule
//! below. Version 4 gave the stuck-at job (kind 1) the mode byte the
//! transition and bridging jobs carry, so all three kinds share one
//! job layout and stuck-at builds dictionaries too. Version 5 cut the
//! `opt` record to its two flags: the optimizer only renumbers slots,
//! and the instruction count it used to carry is re-derived from the
//! decoded stream. Version 6 took the lane-group byte out of the
//! playback (kind 2) and March (kind 3) job blocks: cycle playback
//! always runs 64 lanes and a March walk 256, so the width is no longer
//! the job's to choose. Version 7 took it out of the fault job block
//! (kinds 1, 4 and 5) too: gate-level grading and dictionaries always
//! run 256-lane passes of up to 255 faults, and a grading result is
//! four `u64` words, the same mask a March walk returns (see
//! [`crate::shard::encode_lane_mask`]). Version 8 made the playback
//! unit (kind 2) and the JPEG generation result (kind 7) one layout,
//! the sparse bytes of a `steac-pattern` bit-plane block: the lane and
//! cycle counts, then per (cycle, pin) a presence byte and only the
//! non-zero plane words. A kind-2 unit used to carry one state
//! character per (pattern, cycle, pin), and a kind-7 result each
//! pattern's expected PO values. Version 9 cut the `opt` record to the
//! `scheduled` byte: its `enabled` byte equalled `scheduled` on every
//! program either compile path returns. Version 10 took the
//! previous-clock slot out of the flop record: the engine keeps one per
//! distinct flop clock, after the latch states, so the slot count is
//! nets + flops + latches + distinct clocks, and the decoder rejects any
//! other.
//!
//! Work-unit payloads (fault chunks in [`crate::models`], pattern blocks
//! in `steac-pattern`, March chunks in `steac-membist`) carry no magic of
//! their own: they ride inside the versioned worker-protocol envelope
//! (see [`crate::shard`]), which pins the version for every byte of a
//! request.
//!
//! # Versioning rule
//!
//! [`WIRE_VERSION`] is bumped on **any** change to any byte layout in
//! this format family, however small; decoders accept exactly the
//! current version and reject everything else with
//! [`WireError::UnsupportedVersion`]. There is no in-band negotiation: a
//! mixed-version fleet is upgraded in lock step (program blobs are cheap
//! to re-encode from source netlists, so nothing durable is lost).
//!
//! # Robustness
//!
//! Decoding is total: truncated, corrupted or hostile bytes produce a
//! typed [`WireError`], never a panic and never an unbounded allocation
//! (vector counts are checked against the remaining byte budget before
//! reserving). Decoded programs are additionally validated structurally
//! — opcode and tag ranges, operand slots against `slot_count`, written
//! nets against `net_count`, sequential indices against their side
//! tables — so an executor can run a decoded program without re-checking
//! bounds on the hot path.

use crate::logic::Logic;
use crate::opt::OptStats;
use crate::program::{
    FlopInstr, Instr, LatchInstr, PortInfo, SeqInstr, SimOp, SimProgram, NO_SLOT,
};
use std::fmt;
use steac_netlist::{NetId, PortDir};

/// Magic bytes opening a serialized [`SimProgram`].
pub const PROGRAM_MAGIC: [u8; 4] = *b"SPRG";

/// FNV-1a 64-bit hash over a byte slice — the content address used by
/// the worker program cache (see [`crate::shard`]). Dependency-free,
/// stable across platforms (the wire bytes it digests are already
/// little-endian), and fast enough that hashing a multi-megabyte
/// program blob is noise next to serializing it.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Current wire-format version (see the module docs for the bump rule).
pub const WIRE_VERSION: u16 = 10;

/// Typed decode failure. Encoding cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the named field was complete.
    Truncated {
        /// Field being decoded.
        context: &'static str,
    },
    /// A magic prefix did not match.
    BadMagic {
        /// Field being decoded.
        context: &'static str,
    },
    /// The encoder's version is not the one this decoder speaks.
    UnsupportedVersion {
        /// Version found in the bytes.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// A field decoded but held an impossible value (bad tag, bad UTF-8,
    /// out-of-range slot or count).
    Corrupt {
        /// Field being decoded.
        context: &'static str,
    },
    /// Decoding finished with unconsumed bytes left over.
    Trailing {
        /// Number of leftover bytes.
        bytes: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "truncated wire bytes at {context}"),
            WireError::BadMagic { context } => write!(f, "bad magic for {context}"),
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "wire version {found} not supported (this build speaks {supported})"
                )
            }
            WireError::Corrupt { context } => write!(f, "corrupt wire bytes at {context}"),
            WireError::Trailing { bytes } => write!(f, "{bytes} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian append-only byte sink. Infallible.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The accumulated bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pre-allocates room for `additional` more bytes, so hot encoders
    /// with a known payload size append without reallocation churn.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a [`Logic`] value as one byte.
    pub fn put_logic(&mut self, v: Logic) {
        self.put_u8(match v {
            Logic::Zero => 0,
            Logic::One => 1,
            Logic::X => 2,
            Logic::Z => 3,
        });
    }

    /// Appends a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// Appends a length-prefixed nested blob.
    pub fn put_block(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_bytes(bytes);
    }
}

/// Bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at the end of the buffer.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at the end of the buffer.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at the end of the buffer.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at the end of the buffer.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Corrupt`] on overflow.
    pub fn get_usize(&mut self, context: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.get_u64(context)?).map_err(|_| WireError::Corrupt { context })
    }

    /// Reads a `bool` (strictly 0 or 1).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Corrupt`] on other bytes.
    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt { context }),
        }
    }

    /// Reads a [`Logic`] value.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Corrupt`] on a bad tag.
    pub fn get_logic(&mut self, context: &'static str) -> Result<Logic, WireError> {
        match self.get_u8(context)? {
            0 => Ok(Logic::Zero),
            1 => Ok(Logic::One),
            2 => Ok(Logic::X),
            3 => Ok(Logic::Z),
            _ => Err(WireError::Corrupt { context }),
        }
    }

    /// Reads an element count and sanity-checks it against the bytes
    /// that are actually left (each element needs at least
    /// `min_elem_bytes`), so corrupt counts cannot trigger huge
    /// allocations.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Corrupt`] on an
    /// impossible count.
    pub fn get_count(
        &mut self,
        context: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let count = self.get_usize(context)?;
        if count > self.remaining() / min_elem_bytes.max(1) {
            return Err(WireError::Corrupt { context });
        }
        Ok(count)
    }

    /// Reads a length-prefixed string.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Corrupt`] on bad UTF-8.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, WireError> {
        let bytes = self.get_block(context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt { context })
    }

    /// Reads a length-prefixed nested blob.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`].
    pub fn get_block(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_usize(context)?;
        if len > self.remaining() {
            return Err(WireError::Truncated { context });
        }
        self.take(len, context)
    }

    /// Consumes and checks a 4-byte magic prefix.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::BadMagic`].
    pub fn expect_magic(
        &mut self,
        magic: &[u8; 4],
        context: &'static str,
    ) -> Result<(), WireError> {
        if self.take(4, context)? == magic {
            Ok(())
        } else {
            Err(WireError::BadMagic { context })
        }
    }

    /// Consumes a `u16` version field and checks it.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::UnsupportedVersion`].
    pub fn expect_version(
        &mut self,
        supported: u16,
        context: &'static str,
    ) -> Result<(), WireError> {
        let found = self.get_u16(context)?;
        if found == supported {
            Ok(())
        } else {
            Err(WireError::UnsupportedVersion { found, supported })
        }
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] if bytes are left over.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            bytes => Err(WireError::Trailing { bytes }),
        }
    }
}

// ---------- SimProgram ----------

/// An opcode's wire byte: its index in [`SimOp::ALL`].
fn op_code(op: SimOp) -> u8 {
    SimOp::ALL
        .iter()
        .position(|&o| o == op)
        .expect("SimOp::ALL lists every opcode") as u8
}

/// The opcode a wire byte names, if any.
fn op_from_code(code: u8) -> Option<SimOp> {
    SimOp::ALL.get(usize::from(code)).copied()
}

/// Serializes a compiled program (see the module docs for the layout).
#[must_use]
pub fn encode_program(p: &SimProgram) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&PROGRAM_MAGIC);
    w.put_u16(WIRE_VERSION);
    w.put_str(&p.name);
    w.put_usize(p.net_count);
    w.put_usize(p.slot_count);
    w.put_usize(p.comb.len());
    for i in &p.comb {
        w.put_u8(op_code(i.op));
        for &slot in &i.ins {
            w.put_u32(slot);
        }
        w.put_u32(i.out);
    }
    w.put_usize(p.flops.len());
    for f in &p.flops {
        for v in [f.cell, f.d, f.si, f.se, f.ck, f.rstn, f.q, f.state] {
            w.put_u32(v);
        }
    }
    w.put_usize(p.latches.len());
    for l in &p.latches {
        for v in [l.cell, l.d, l.en, l.q, l.state] {
            w.put_u32(v);
        }
    }
    w.put_usize(p.seq_order.len());
    for s in &p.seq_order {
        match s {
            SeqInstr::Flop(i) => {
                w.put_u8(0);
                w.put_u32(*i);
            }
            SeqInstr::Latch(i) => {
                w.put_u8(1);
                w.put_u32(*i);
            }
        }
    }
    w.put_usize(p.ports.len());
    for port in &p.ports {
        w.put_str(&port.name);
        w.put_u32(port.net.0);
        w.put_u8(match port.dir {
            PortDir::Input => 0,
            PortDir::Output => 1,
        });
    }
    w.put_usize(p.output_nets.len());
    for n in &p.output_nets {
        w.put_u32(n.0);
    }
    w.put_usize(p.net_slot.len());
    for &s in &p.net_slot {
        w.put_u32(s);
    }
    w.put_bool(p.opt.scheduled);
    w.finish()
}

/// A slot operand that must address the value buffer.
fn check_slot(slot: u32, slot_count: usize, context: &'static str) -> Result<(), WireError> {
    if (slot as usize) < slot_count {
        Ok(())
    } else {
        Err(WireError::Corrupt { context })
    }
}

/// A slot operand that may be absent ([`NO_SLOT`]).
fn check_opt_slot(slot: u32, slot_count: usize, context: &'static str) -> Result<(), WireError> {
    if slot == NO_SLOT {
        Ok(())
    } else {
        check_slot(slot, slot_count, context)
    }
}

/// Deserializes and structurally validates a compiled program.
///
/// # Errors
///
/// A typed [`WireError`] on truncated, corrupted or version-mismatched
/// bytes; a successfully decoded program is safe to execute without
/// further bounds checks.
pub fn decode_program(bytes: &[u8]) -> Result<SimProgram, WireError> {
    let mut r = WireReader::new(bytes);
    r.expect_magic(&PROGRAM_MAGIC, "program magic")?;
    r.expect_version(WIRE_VERSION, "program version")?;
    let name = r.get_str("program name")?;
    // Every net costs at least a 4-byte net-slot entry later in the
    // stream, so a net count the remaining bytes cannot possibly hold is
    // corruption — and must be rejected *before* any count-sized
    // allocation happens.
    let net_count = r.get_count("net count", 4)?;
    let slot_count = r.get_usize("slot count")?;
    if slot_count < net_count {
        return Err(WireError::Corrupt {
            context: "slot count",
        });
    }

    let comb_count = r.get_count("instruction count", 21)?;
    let mut comb = Vec::with_capacity(comb_count);
    for _ in 0..comb_count {
        let op =
            op_from_code(r.get_u8("opcode")?).ok_or(WireError::Corrupt { context: "opcode" })?;
        let mut ins = [NO_SLOT; 4];
        for slot in &mut ins {
            *slot = r.get_u32("instruction input")?;
        }
        for &slot in ins.iter().take(op.arity()) {
            check_slot(slot, slot_count, "instruction input")?;
        }
        let out = r.get_u32("instruction output")?;
        // Outputs go through the force tables, which are net-sized.
        check_slot(out, net_count, "instruction output")?;
        comb.push(Instr { op, ins, out });
    }

    let flop_count = r.get_count("flop count", 32)?;
    let mut flops = Vec::with_capacity(flop_count);
    for _ in 0..flop_count {
        let mut v = [0u32; 8];
        for field in &mut v {
            *field = r.get_u32("flop record")?;
        }
        let f = FlopInstr {
            cell: v[0],
            d: v[1],
            si: v[2],
            se: v[3],
            ck: v[4],
            rstn: v[5],
            q: v[6],
            state: v[7],
        };
        check_slot(f.d, slot_count, "flop d slot")?;
        check_opt_slot(f.si, slot_count, "flop si slot")?;
        check_opt_slot(f.se, slot_count, "flop se slot")?;
        check_slot(f.ck, slot_count, "flop ck slot")?;
        check_opt_slot(f.rstn, slot_count, "flop rstn slot")?;
        check_slot(f.q, net_count, "flop q net")?;
        check_slot(f.state, slot_count, "flop state slot")?;
        flops.push(f);
    }

    let latch_count = r.get_count("latch count", 20)?;
    let mut latches = Vec::with_capacity(latch_count);
    for _ in 0..latch_count {
        let mut v = [0u32; 5];
        for field in &mut v {
            *field = r.get_u32("latch record")?;
        }
        let l = LatchInstr {
            cell: v[0],
            d: v[1],
            en: v[2],
            q: v[3],
            state: v[4],
        };
        check_slot(l.d, slot_count, "latch d slot")?;
        check_slot(l.en, slot_count, "latch en slot")?;
        check_slot(l.q, net_count, "latch q net")?;
        check_slot(l.state, slot_count, "latch state slot")?;
        latches.push(l);
    }

    let seq_count = r.get_count("sequential count", 5)?;
    let mut seq_order = Vec::with_capacity(seq_count);
    for _ in 0..seq_count {
        let tag = r.get_u8("sequential tag")?;
        let index = r.get_u32("sequential index")?;
        let s = match tag {
            0 if (index as usize) < flops.len() => SeqInstr::Flop(index),
            1 if (index as usize) < latches.len() => SeqInstr::Latch(index),
            _ => {
                return Err(WireError::Corrupt {
                    context: "sequential element",
                })
            }
        };
        seq_order.push(s);
    }

    let port_count = r.get_count("port count", 13)?;
    let mut ports = Vec::with_capacity(port_count);
    for _ in 0..port_count {
        let pname = r.get_str("port name")?;
        let net = r.get_u32("port net")?;
        check_slot(net, net_count, "port net")?;
        let dir = match r.get_u8("port direction")? {
            0 => PortDir::Input,
            1 => PortDir::Output,
            _ => {
                return Err(WireError::Corrupt {
                    context: "port direction",
                })
            }
        };
        ports.push(PortInfo {
            name: pname,
            net: NetId(net),
            dir,
        });
    }

    let out_count = r.get_count("output-net count", 4)?;
    let mut output_nets = Vec::with_capacity(out_count);
    for _ in 0..out_count {
        let net = r.get_u32("output net")?;
        check_slot(net, net_count, "output net")?;
        output_nets.push(NetId(net));
    }

    let slot_table_count = r.get_count("net-slot count", 4)?;
    if slot_table_count != net_count {
        return Err(WireError::Corrupt {
            context: "net-slot count",
        });
    }
    let mut net_slot = Vec::with_capacity(net_count);
    let mut seen = vec![false; net_count];
    for _ in 0..net_count {
        let slot = r.get_u32("net-slot entry")?;
        // The table must be a permutation of the net slots: in range and
        // collision-free, or two nets would share one buffer word.
        if (slot as usize) >= net_count || seen[slot as usize] {
            return Err(WireError::Corrupt {
                context: "net-slot entry",
            });
        }
        seen[slot as usize] = true;
        net_slot.push(slot);
    }

    let opt = OptStats {
        instrs_after: comb.len() as u32,
        scheduled: r.get_bool("opt scheduled")?,
    };

    r.finish()?;
    let p = SimProgram::assemble(
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
    );
    // The side tables fix the layout: nets, one state slot per flop and
    // per latch, then one previous-value slot per distinct flop clock
    // (slot renumbering never changes the count). Any other claim is
    // corrupt, and refusing it keeps every slot-sized buffer (engine
    // state, schedule verification) bounded by the bytes decoded.
    if p.slot_count != p.layout_slot_count() {
        return Err(WireError::Corrupt {
            context: "slot count",
        });
    }
    // A claimed schedule licenses the engine's single-sweep settle fast
    // path; re-verify it so hostile bytes cannot make the fast path
    // produce wrong values.
    if p.opt.scheduled && !crate::opt::stream_is_scheduled(&p) {
        return Err(WireError::Corrupt {
            context: "opt scheduled",
        });
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_netlist::{GateKind, NetlistBuilder};

    fn sample_program() -> SimProgram {
        let mut b = NetlistBuilder::new("wire_sample");
        let ck = b.input("ck");
        let rstn = b.input("rstn");
        let a = b.input("a");
        let x = b.gate(GateKind::Inv, &[a]);
        let y = b.gate(GateKind::And2, &[a, x]);
        let q = b.gate(GateKind::DffR, &[y, ck, rstn]);
        let l = b.gate(GateKind::Latch, &[q, a]);
        let z = b.gate(GateKind::Mux2, &[q, l, a]);
        b.output("z", z);
        SimProgram::compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Content addressing: same bytes, same hash; different bytes,
        // different hash (for these inputs).
        let p = encode_program(&sample_program());
        assert_eq!(fnv1a64(&p), fnv1a64(&p.clone()));
        let mut q = p.clone();
        q[p.len() / 2] ^= 1;
        assert_ne!(fnv1a64(&p), fnv1a64(&q));
    }

    #[test]
    fn program_round_trip_is_identity() {
        let p = sample_program();
        let bytes = encode_program(&p);
        let back = decode_program(&bytes).unwrap();
        assert_eq!(back, p);
    }

    /// Every strict prefix of a valid encoding fails with a typed error
    /// (all counts are explicit and trailing bytes are rejected, so no
    /// prefix can silently decode).
    #[test]
    fn truncation_always_errors_never_panics() {
        let bytes = encode_program(&sample_program());
        for cut in 0..bytes.len() {
            assert!(decode_program(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_program(&sample_program());
        bytes[0] = b'X';
        assert!(matches!(
            decode_program(&bytes),
            Err(WireError::BadMagic { .. })
        ));
        let mut bytes = encode_program(&sample_program());
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            decode_program(&bytes),
            Err(WireError::UnsupportedVersion { found, supported })
                if found != WIRE_VERSION && supported == WIRE_VERSION
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes.push(0);
        assert_eq!(
            decode_program(&bytes),
            Err(WireError::Trailing { bytes: 1 })
        );
    }

    /// Flipping any single byte never panics; it either fails decode or
    /// yields some (different but structurally safe) program.
    #[test]
    fn corruption_never_panics() {
        let bytes = encode_program(&sample_program());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xA5;
            let _ = decode_program(&corrupt);
        }
    }

    #[test]
    fn corrupt_count_cannot_force_huge_allocation() {
        let p = sample_program();
        let mut bytes = encode_program(&p);
        // The instruction count sits right after magic+version+name+2 u64s.
        let off = 4 + 2 + (8 + p.name.len()) + 8 + 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_program(&bytes),
            Err(WireError::Corrupt { .. })
        ));
    }

    /// Older blobs — version 1 (pre-optimizer, no slot table) through
    /// version 4 (a six-counter `opt` record), version 5 (kind-2 and
    /// kind-3 jobs with a lane-group byte), version 6 (fault jobs of
    /// kinds 1, 4 and 5 with one), version 8 (a two-flag `opt` record)
    /// and version 9 (a previous-clock slot in every flop record) — are
    /// rejected with a typed error rather than misparsed.
    #[test]
    fn old_version_is_rejected() {
        for old in 1..WIRE_VERSION {
            let mut bytes = encode_program(&sample_program());
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode_program(&bytes),
                Err(WireError::UnsupportedVersion {
                    found: old,
                    supported: WIRE_VERSION
                })
            );
        }
    }

    /// Every opcode keeps the byte it has always had on the wire, which
    /// is its index in `SimOp::ALL`; byte 17 and above name no opcode.
    #[test]
    fn opcode_bytes_are_pinned() {
        let pinned = [
            (SimOp::Inv, 0),
            (SimOp::Buf, 1),
            (SimOp::And2, 2),
            (SimOp::And3, 3),
            (SimOp::Nand2, 4),
            (SimOp::Nand3, 5),
            (SimOp::Nand4, 6),
            (SimOp::Or2, 7),
            (SimOp::Or3, 8),
            (SimOp::Nor2, 9),
            (SimOp::Nor3, 10),
            (SimOp::Xor2, 11),
            (SimOp::Xnor2, 12),
            (SimOp::Mux2, 13),
            (SimOp::Tie0, 14),
            (SimOp::Tie1, 15),
            (SimOp::Unknown, 16),
        ];
        assert_eq!(pinned.len(), SimOp::ALL.len());
        for (op, code) in pinned {
            assert_eq!(op_code(op), code, "{op:?}");
            assert_eq!(op_from_code(code), Some(op), "{code}");
        }
        for code in 17..=u8::MAX {
            assert_eq!(op_from_code(code), None, "{code}");
        }
    }

    /// An optimized program with a non-identity slot permutation
    /// round-trips field-for-field, including the stats record.
    #[test]
    fn optimized_program_round_trips() {
        // Nets declared out of topological order, so renumbering moves
        // them.
        let mut b = NetlistBuilder::new("wire_opt");
        let y = b.net("y");
        let x = b.net("x");
        let a = b.input("a");
        let t1 = b.tie1();
        b.gate_into(GateKind::And2, &[a, t1], x);
        b.gate_into(GateKind::Inv, &[x], y);
        b.output("y", y);
        let p = SimProgram::compile(&b.finish().unwrap()).unwrap();
        assert!(
            p.net_slot.iter().enumerate().any(|(n, &s)| n as u32 != s),
            "test premise: slots renumbered"
        );
        let back = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.opt, p.opt);
    }

    /// Bytes may not claim `scheduled` for a stream that is not
    /// topologically ordered — the claim is re-verified on decode.
    #[test]
    fn false_schedule_claim_is_rejected() {
        let mut p = {
            let mut b = NetlistBuilder::new("wire_sched");
            let a = b.input("a");
            let x = b.gate(GateKind::Inv, &[a]);
            let y = b.gate(GateKind::Inv, &[x]);
            b.output("y", y);
            SimProgram::compile(&b.finish().unwrap()).unwrap()
        };
        assert!(p.opt.scheduled);
        p.comb.reverse(); // y's instruction now reads x before it is written
        assert_eq!(
            decode_program(&encode_program(&p)),
            Err(WireError::Corrupt {
                context: "opt scheduled"
            })
        );
    }

    /// The slot count must be the one the side tables imply; one more
    /// or one fewer slot is corrupt.
    #[test]
    fn slot_count_must_match_the_layout() {
        let p = sample_program();
        assert_eq!(p.slot_count, p.net_count + 1 + 1 + 1);
        for slot_count in [p.slot_count - 1, p.slot_count + 1] {
            let mut bad = p.clone();
            bad.slot_count = slot_count;
            assert_eq!(
                decode_program(&encode_program(&bad)),
                Err(WireError::Corrupt {
                    context: "slot count"
                })
            );
        }
    }

    /// The net-slot table must be a permutation: duplicate slots are
    /// corrupt, not silently aliased.
    #[test]
    fn duplicate_slot_entries_are_corrupt() {
        let mut p = sample_program();
        p.net_slot[1] = p.net_slot[0];
        assert_eq!(
            decode_program(&encode_program(&p)),
            Err(WireError::Corrupt {
                context: "net-slot entry"
            })
        );
    }
}
