//! Core → wrapper → chip pattern translation.
//!
//! The wrapper generator threads each TAM wire through `[input cells…]
//! [internal chains…] [output cells…]`; translation places core-level
//! stimulus/response bits at the corresponding flop positions and
//! re-serialises per the workspace scan convention (stream bit `k` ↔
//! chain flop `L-1-k`).

use crate::corelevel::ScanVector;
use crate::cycle::{CyclePattern, PinState};
use crate::PatternError;
use std::fmt;
use steac_sim::Logic;
use steac_wrapper::WrapperPlan;

/// A wrapper-level scan vector: one load/expect stream per wrapper chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperVector {
    /// Shift-in stream per wrapper chain.
    pub loads: Vec<Vec<Logic>>,
    /// Expected shift-out stream per wrapper chain (`X` = masked).
    pub expects: Vec<Vec<Logic>>,
}

/// Translates a core-level scan vector onto the wrapper chains of
/// `plan`.
///
/// PI values fill the input cells (consumed in chain order, matching the
/// wrapper generator's assignment); internal chain loads land on their
/// `internal_indices` positions; expected POs fill the output cells.
/// Input-cell positions of the expect stream are masked (they capture
/// chip-side garbage during the capture pulse).
///
/// # Errors
///
/// Returns [`PatternError::Shape`] if the vector's chain count, chain
/// lengths or pin counts disagree with the plan.
pub fn scan_to_wrapper(v: &ScanVector, plan: &WrapperPlan) -> Result<WrapperVector, PatternError> {
    let plan_ins: usize = plan.chains.iter().map(|c| c.in_cells).sum();
    let plan_outs: usize = plan.chains.iter().map(|c| c.out_cells).sum();
    if v.pi.len() != plan_ins {
        return Err(PatternError::Shape {
            context: "PI values vs plan input cells",
            expected: plan_ins,
            got: v.pi.len(),
        });
    }
    if v.expect_po.len() != plan_outs {
        return Err(PatternError::Shape {
            context: "PO expects vs plan output cells",
            expected: plan_outs,
            got: v.expect_po.len(),
        });
    }
    let mut next_pi = 0usize;
    let mut next_po = 0usize;
    let mut loads = Vec::with_capacity(plan.chains.len());
    let mut expects = Vec::with_capacity(plan.chains.len());
    for chain in &plan.chains {
        let mut stim_flops: Vec<Logic> = Vec::with_capacity(chain.total_len());
        let mut exp_flops: Vec<Logic> = Vec::with_capacity(chain.total_len());
        // Input cells.
        for _ in 0..chain.in_cells {
            stim_flops.push(v.pi[next_pi]);
            exp_flops.push(Logic::X);
            next_pi += 1;
        }
        // Internal chains.
        for (pos, &idx) in chain.internal_indices.iter().enumerate() {
            let expected_len = chain.internal_lengths[pos];
            let load = v.loads.get(idx).ok_or(PatternError::Shape {
                context: "internal chain index vs core loads",
                expected: v.loads.len(),
                got: idx,
            })?;
            if load.len() != expected_len {
                return Err(PatternError::Shape {
                    context: "internal chain length",
                    expected: expected_len,
                    got: load.len(),
                });
            }
            let unload = &v.expect_unload[idx];
            if unload.len() != expected_len {
                return Err(PatternError::Shape {
                    context: "internal unload length",
                    expected: expected_len,
                    got: unload.len(),
                });
            }
            // Stream bit k of the core chain sits at flop L-1-k; in flop
            // order that is load[L-1-j] for flop j.
            for j in 0..expected_len {
                stim_flops.push(load[expected_len - 1 - j]);
                exp_flops.push(unload[expected_len - 1 - j]);
            }
        }
        // Output cells.
        for _ in 0..chain.out_cells {
            stim_flops.push(Logic::X);
            exp_flops.push(v.expect_po[next_po]);
            next_po += 1;
        }
        // Serialise: stream bit k corresponds to flop L-1-k.
        stim_flops.reverse();
        exp_flops.reverse();
        loads.push(stim_flops);
        expects.push(exp_flops);
    }
    Ok(WrapperVector { loads, expects })
}

/// Port names of a generated wrapper, as produced by
/// `steac_wrapper::gen::wrap_core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperPorts {
    /// `wsi[k]` pin names.
    pub wsi: Vec<String>,
    /// `wso[k]` pin names.
    pub wso: Vec<String>,
    /// Shift-enable pin.
    pub w_se: String,
    /// Capture-enable pin.
    pub w_capture: String,
    /// Update-enable pin.
    pub w_update: String,
    /// Intest mode pin.
    pub w_intest: String,
    /// Wrapper clock pin.
    pub wck: String,
}

impl WrapperPorts {
    /// Conventional names for a wrapper of `width` chains.
    #[must_use]
    pub fn conventional(width: usize) -> Self {
        WrapperPorts {
            wsi: (0..width).map(|k| format!("wsi[{k}]")).collect(),
            wso: (0..width).map(|k| format!("wso[{k}]")).collect(),
            w_se: "w_se".to_string(),
            w_capture: "w_capture".to_string(),
            w_update: "w_update".to_string(),
            w_intest: "w_intest".to_string(),
            wck: "wck".to_string(),
        }
    }
}

/// Expands wrapper-level scan vectors into a cycle-based pattern:
/// setup, then per vector *shift / update / capture*, with each unload
/// overlapped with the next load, and a final unload pass.
///
/// Cycle count is `1 + p·(L+2) + L` for `p` vectors and maximum chain
/// length `L` — the `(1 + max(si,so))·p + min(si,so)` wrapper model plus
/// one setup cycle and the 2-cycle update/capture overhead per vector
/// that a real 1500 wrapper needs.
#[must_use]
pub fn wrapper_vectors_to_cycles(vectors: &[WrapperVector], ports: &WrapperPorts) -> CyclePattern {
    let width = ports.wsi.len();
    let mut pins: Vec<String> = vec![
        ports.wck.clone(),
        ports.w_se.clone(),
        ports.w_capture.clone(),
        ports.w_update.clone(),
        ports.w_intest.clone(),
    ];
    pins.extend(ports.wsi.iter().cloned());
    pins.extend(ports.wso.iter().cloned());
    let mut p = CyclePattern::new(pins);
    let chain_len = vectors
        .iter()
        .flat_map(|v| v.loads.iter().map(Vec::len))
        .max()
        .unwrap_or(0);

    let mk_row = |se: PinState,
                  cap: PinState,
                  upd: PinState,
                  ck: PinState,
                  si: Vec<PinState>,
                  so: Vec<PinState>| {
        let mut row = vec![ck, se, cap, upd, PinState::Drive1];
        row.extend(si);
        row.extend(so);
        row
    };
    let idle_si = vec![PinState::DontCare; width];
    let idle_so = vec![PinState::DontCare; width];

    // Setup cycle: enter intest, everything quiet.
    p.push_cycle(mk_row(
        PinState::Drive0,
        PinState::Drive0,
        PinState::Drive0,
        PinState::Drive0,
        idle_si.clone(),
        idle_so.clone(),
    ))
    .expect("row width is constructed to match");

    // Strobe timing: the ATE compares at end-of-cycle, after the clock
    // pulse. Unload bit 0 is therefore observed on the *capture* cycle
    // (the captured value sits on `wso` right after the capture pulse),
    // and shift cycle `k` observes unload bit `k + 1`.
    let shift_phase = |p: &mut CyclePattern,
                       load: Option<&WrapperVector>,
                       unload: Option<&WrapperVector>| {
        for k in 0..chain_len {
            let si: Vec<PinState> = (0..width)
                .map(|c| match load {
                    Some(v) => PinState::from_drive(v.loads[c].get(k).copied().unwrap_or(Logic::X)),
                    None => PinState::DontCare,
                })
                .collect();
            let so: Vec<PinState> = (0..width)
                .map(|c| match unload {
                    Some(v) => {
                        PinState::from_expect(v.expects[c].get(k + 1).copied().unwrap_or(Logic::X))
                    }
                    None => PinState::DontCare,
                })
                .collect();
            p.push_cycle(mk_row(
                PinState::Drive1,
                PinState::Drive0,
                PinState::Drive0,
                PinState::Pulse,
                si,
                so,
            ))
            .expect("constructed row");
        }
    };

    for (i, v) in vectors.iter().enumerate() {
        let unload = if i > 0 { Some(&vectors[i - 1]) } else { None };
        shift_phase(&mut p, Some(v), unload);
        // Update (latch the stimulus into the functional side).
        p.push_cycle(mk_row(
            PinState::Drive0,
            PinState::Drive0,
            PinState::Drive1,
            PinState::Drive0,
            idle_si.clone(),
            idle_so.clone(),
        ))
        .expect("constructed row");
        // Capture; unload bit 0 of this vector is strobed here.
        let so_cap: Vec<PinState> = (0..width)
            .map(|c| PinState::from_expect(v.expects[c].first().copied().unwrap_or(Logic::X)))
            .collect();
        p.push_cycle(mk_row(
            PinState::Drive0,
            PinState::Drive1,
            PinState::Drive0,
            PinState::Pulse,
            idle_si.clone(),
            so_cap,
        ))
        .expect("constructed row");
    }
    // Final unload.
    if let Some(last) = vectors.last() {
        shift_phase(&mut p, None, Some(last));
    }
    p
}

/// One core's cycle stream within a chip-level session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStream {
    /// Session index.
    pub session: usize,
    /// Core name.
    pub core: String,
    /// First TAM wire assigned to this core.
    pub tam_offset: usize,
    /// The wrapper-level cycle pattern.
    pub pattern: CyclePattern,
}

/// A chip-level pattern set: per-session streams with TAM pin mapping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChipPatternSet {
    /// `(session, merged streams)` in execution order.
    pub sessions: Vec<(usize, Vec<SessionStream>)>,
}

impl ChipPatternSet {
    /// Cycles of one session: the longest member stream.
    #[must_use]
    pub fn session_cycles(&self, session: usize) -> u64 {
        self.sessions
            .iter()
            .find(|(s, _)| *s == session)
            .map(|(_, streams)| {
                streams
                    .iter()
                    .map(|st| st.pattern.cycle_count())
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Total chip test cycles: sessions run back-to-back.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.sessions
            .iter()
            .map(|(s, _)| self.session_cycles(*s))
            .sum()
    }
}

impl fmt::Display for ChipPatternSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chip pattern set: {} cycles total", self.total_cycles())?;
        for (s, streams) in &self.sessions {
            writeln!(f, "  session {s}: {} cycles", self.session_cycles(*s))?;
            for st in streams {
                writeln!(
                    f,
                    "    {:<12} {:>9} cycles on TAM wires {}+",
                    st.core,
                    st.pattern.cycle_count(),
                    st.tam_offset
                )?;
            }
        }
        Ok(())
    }
}

/// Merges per-core wrapper streams into a chip-level set: renames
/// `wsi[k]`/`wso[k]` to `tam_in[offset+k]`/`tam_out[offset+k]` and
/// groups by session.
#[must_use]
pub fn merge_sessions(mut streams: Vec<SessionStream>) -> ChipPatternSet {
    for st in &mut streams {
        // One renamed table per stream, shared like the one it replaces.
        let offset = st.tam_offset;
        st.pattern.pins = st.pattern.pins.iter().map(|p| tam_pin(p, offset)).collect();
    }
    let mut sessions: Vec<(usize, Vec<SessionStream>)> = Vec::new();
    streams.sort_by_key(|s| s.session);
    for st in streams {
        match sessions.iter_mut().find(|(s, _)| *s == st.session) {
            Some((_, v)) => v.push(st),
            None => sessions.push((st.session, vec![st])),
        }
    }
    ChipPatternSet { sessions }
}

/// `wsi[k]` → `tam_in[offset+k]`, `wso[k]` → `tam_out[offset+k]`;
/// any other pin keeps its name.
fn tam_pin(pin: &str, offset: usize) -> String {
    for (wrapper, tam) in [("wsi[", "tam_in"), ("wso[", "tam_out")] {
        let index = pin.strip_prefix(wrapper).and_then(|r| r.strip_suffix(']'));
        if let Some(k) = index.and_then(|k| k.parse::<usize>().ok()) {
            return format!("{tam}[{}]", offset + k);
        }
    }
    pin.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use steac_wrapper::chain::balance_fixed;

    #[test]
    fn scan_to_wrapper_places_bits_correctly() {
        // One chain: [in][int f0,f1][out], internal chain of 2.
        let plan = balance_fixed(&[2], 1, 1, 1);
        let mut v = ScanVector::shaped(&[2], 1, 1);
        use Logic::{One, Zero};
        v.pi = vec![One];
        v.loads[0] = vec![One, Zero]; // bit0 -> internal flop1, bit1 -> flop0
        v.expect_unload[0] = vec![Zero, One];
        v.expect_po = vec![One];
        let w = scan_to_wrapper(&v, &plan).unwrap();
        // Flop order: [in=1, f0=load[1]=0, f1=load[0]=1, out=X];
        // stream = reversed = [X, 1, 0, 1].
        assert_eq!(w.loads[0], vec![Logic::X, One, Zero, One]);
        // Expect flops: [X, unload[1]=1, unload[0]=0, po=1] reversed:
        assert_eq!(w.expects[0], vec![One, Zero, One, Logic::X]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let plan = balance_fixed(&[2], 1, 1, 1);
        let v = ScanVector::shaped(&[2], 3, 1); // wrong PI count
        assert!(matches!(
            scan_to_wrapper(&v, &plan),
            Err(PatternError::Shape { .. })
        ));
    }

    #[test]
    fn cycle_expansion_counts() {
        let plan = balance_fixed(&[2], 1, 1, 1);
        let v = ScanVector::shaped(&[2], 1, 1);
        let w = scan_to_wrapper(&v, &plan).unwrap();
        let ports = WrapperPorts::conventional(1);
        let p = wrapper_vectors_to_cycles(&[w.clone(), w], &ports);
        // 1 setup + 2*(4 shift + update + capture) + 4 final unload = 17.
        assert_eq!(p.cycle_count(), 1 + 2 * (4 + 2) + 4);
    }

    #[test]
    fn merge_renames_tam_pins_and_sums_sessions() {
        let mk = |session, core: &str, offset, cycles: usize| {
            let mut pat = CyclePattern::new(vec!["wsi[0]".to_string(), "wso[0]".to_string()]);
            for _ in 0..cycles {
                pat.push_cycle(vec![PinState::Drive0, PinState::DontCare])
                    .unwrap();
            }
            SessionStream {
                session,
                core: core.to_string(),
                tam_offset: offset,
                pattern: pat,
            }
        };
        let set = merge_sessions(vec![
            mk(0, "usb", 0, 10),
            mk(0, "tv", 12, 4),
            mk(1, "jpeg", 0, 7),
        ]);
        assert_eq!(set.session_cycles(0), 10);
        assert_eq!(set.session_cycles(1), 7);
        assert_eq!(set.total_cycles(), 17);
        let tv = &set.sessions[0].1[1];
        assert_eq!(tv.pattern.pins[0], "tam_in[12]");
        assert_eq!(tv.pattern.pins[1], "tam_out[12]");
    }
}
