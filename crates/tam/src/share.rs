//! Test control-IO sharing.
//!
//! The DSC chip's three large cores need 19 control IOs unshared: "6 clock
//! signals, 4 reset signals, 7 test enable signals, and 2 SE signals. With
//! shared test IOs, the test control IO counts are reduced." This module
//! implements the sharing optimizer: compatible control signals are merged
//! onto common pins subject to electrical/protocol rules.
//!
//! Sharing rules (each switchable in [`SharePolicy`]):
//!
//! * **Scan enables** are timing-identical across cores → one pin.
//! * **Resets** may be asserted together during test → one pin.
//! * **Clocks** share only within the same frequency class; when the SOC
//!   generates IP clocks from an internal PLL (the DSC does), all clock
//!   pins collapse to the PLL reference.
//! * **Test enables** select which core is under test; with a session
//!   controller on chip they are generated from the session counter, so
//!   the pins reduce to `ceil(log2(sessions + 1))` session-select pins
//!   (or stay per-core when `te_via_controller` is off).

use std::collections::BTreeMap;
use std::fmt;

/// Electrical class of a control signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ControlClass {
    /// Clock with a frequency class in MHz (signals in different classes
    /// never share).
    Clock {
        /// Frequency class used for compatibility.
        freq_mhz: u32,
    },
    /// Asynchronous reset.
    Reset,
    /// Scan enable.
    ScanEnable,
    /// Test enable / test mode select.
    TestEnable,
}

impl fmt::Display for ControlClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlClass::Clock { freq_mhz } => write!(f, "clock@{freq_mhz}MHz"),
            ControlClass::Reset => f.write_str("reset"),
            ControlClass::ScanEnable => f.write_str("scan-enable"),
            ControlClass::TestEnable => f.write_str("test-enable"),
        }
    }
}

/// One core-level control signal that needs a chip pin unless shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlSignal {
    /// Owning core.
    pub core: String,
    /// Signal name within the core.
    pub name: String,
    /// Sharing class.
    pub class: ControlClass,
}

impl ControlSignal {
    /// Convenience constructor.
    #[must_use]
    pub fn new(core: &str, name: &str, class: ControlClass) -> Self {
        ControlSignal {
            core: core.to_string(),
            name: name.to_string(),
            class,
        }
    }
}

/// Sharing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharePolicy {
    /// Merge all scan enables onto one pin.
    pub share_scan_enables: bool,
    /// Merge all resets onto one pin.
    pub share_resets: bool,
    /// Merge clocks within the same frequency class.
    pub share_clocks_same_freq: bool,
    /// All IP clocks come from an internal PLL: a single reference pin
    /// serves every clock (the DSC arrangement).
    pub pll_generated_clocks: bool,
    /// Generate test enables from the on-chip session controller; pin
    /// cost becomes `ceil(log2(sessions + 1))`.
    pub te_via_controller: bool,
    /// Number of test sessions (used with `te_via_controller`).
    pub sessions: usize,
}

impl Default for SharePolicy {
    fn default() -> Self {
        SharePolicy {
            share_scan_enables: true,
            share_resets: true,
            share_clocks_same_freq: true,
            pll_generated_clocks: false,
            te_via_controller: false,
            sessions: 1,
        }
    }
}

impl SharePolicy {
    /// The DSC configuration: PLL clocks, controller-generated TEs.
    #[must_use]
    pub fn dsc(sessions: usize) -> Self {
        SharePolicy {
            share_scan_enables: true,
            share_resets: true,
            share_clocks_same_freq: true,
            pll_generated_clocks: true,
            te_via_controller: true,
            sessions,
        }
    }

    /// No sharing at all (the "unshared" baseline that yields 19 pins on
    /// the DSC).
    #[must_use]
    pub fn unshared() -> Self {
        SharePolicy {
            share_scan_enables: false,
            share_resets: false,
            share_clocks_same_freq: false,
            pll_generated_clocks: false,
            te_via_controller: false,
            sessions: 1,
        }
    }
}

/// A group of signals sharing one chip pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareGroup {
    /// Name of the resulting chip pin.
    pub pin: String,
    /// The member signals (`core/name`).
    pub members: Vec<String>,
}

/// Result of control sharing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareReport {
    /// Pin count without sharing (one per signal; the paper's 19).
    pub unshared_pins: usize,
    /// Pin groups after sharing.
    pub groups: Vec<ShareGroup>,
    /// Extra pins introduced by the policy (session-select pins when test
    /// enables are controller-generated).
    pub extra_pins: usize,
}

impl ShareReport {
    /// Total chip pins after sharing.
    #[must_use]
    pub fn shared_pins(&self) -> usize {
        self.groups.len() + self.extra_pins
    }

    /// Pins saved by sharing.
    #[must_use]
    pub fn saved(&self) -> usize {
        self.unshared_pins.saturating_sub(self.shared_pins())
    }
}

impl fmt::Display for ShareReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "control IOs: {} unshared -> {} shared (saved {})",
            self.unshared_pins,
            self.shared_pins(),
            self.saved()
        )?;
        for g in &self.groups {
            writeln!(f, "  {}: {}", g.pin, g.members.join(", "))?;
        }
        if self.extra_pins > 0 {
            writeln!(f, "  + {} session-select pin(s)", self.extra_pins)?;
        }
        Ok(())
    }
}

/// Groups control signals onto shared pins under `policy`.
///
/// Identical `(core, name)` pairs are the same physical pin and are
/// deduplicated first (e.g. a core's scan task and functional task both
/// listing its clock).
#[must_use]
pub fn share_controls<'a>(
    signals: impl IntoIterator<Item = &'a ControlSignal>,
    policy: &SharePolicy,
) -> ShareReport {
    let sharing = Sharing::of(signals, policy);
    let groups = sharing
        .groups
        .iter()
        .map(|(pin, members)| ShareGroup {
            pin: pin.name(),
            members: members
                .iter()
                .map(|s| format!("{}/{}", s.core, s.name))
                .collect(),
        })
        .collect();
    ShareReport {
        unshared_pins: sharing.unshared_pins,
        groups,
        extra_pins: sharing.extra_pins,
    }
}

/// The chip pins `signals` occupy under `policy`: the
/// [`shared_pins`](ShareReport::shared_pins) of [`share_controls`]'s
/// report, without naming any pin or signal.
#[must_use]
pub fn shared_pin_count<'a>(
    signals: impl IntoIterator<Item = &'a ControlSignal>,
    policy: &SharePolicy,
) -> usize {
    let sharing = Sharing::of(signals, policy);
    sharing.groups.len() + sharing.extra_pins
}

/// How a shared pin is named in a [`ShareReport`].
enum Pin {
    /// The PLL reference every generated clock shares.
    PllRef,
    /// The clocks of one frequency class.
    Freq(u32),
    /// A clock on a pin of its own, named by its group's position.
    DedicatedClock(usize),
    /// A whole class merged onto one pin.
    Merged(&'static str),
    /// The `i`-th signal of a class that is not merged.
    Single(&'static str, usize),
}

impl Pin {
    fn name(&self) -> String {
        match self {
            Pin::PllRef => "clk_pll_ref".to_string(),
            Pin::Freq(f) => format!("clk_{f}mhz"),
            Pin::DedicatedClock(index) => format!("clk_dedicated_{index}"),
            Pin::Merged(base) => (*base).to_string(),
            Pin::Single(base, i) => format!("{base}_{i}"),
        }
    }
}

/// Deduplicated signals, borrowed, grouped onto pins under a policy:
/// the sharing rules, written once for the report and the count.
struct Sharing<'a> {
    unshared_pins: usize,
    /// One entry per chip pin, in report order.
    groups: Vec<(Pin, Vec<&'a ControlSignal>)>,
    extra_pins: usize,
}

impl<'a> Sharing<'a> {
    fn of(signals: impl IntoIterator<Item = &'a ControlSignal>, policy: &SharePolicy) -> Self {
        let mut dedup: Vec<&ControlSignal> = Vec::new();
        for s in signals {
            if !dedup.iter().any(|d| d.core == s.core && d.name == s.name) {
                dedup.push(s);
            }
        }
        let mut clock_bins: BTreeMap<Option<u32>, Vec<&ControlSignal>> = BTreeMap::new();
        let mut resets = Vec::new();
        let mut ses = Vec::new();
        let mut tes = Vec::new();
        let mut solo = 0usize;
        for &s in &dedup {
            match s.class {
                ControlClass::Clock { freq_mhz } => {
                    let key = if policy.pll_generated_clocks {
                        None // one bin for everything
                    } else if policy.share_clocks_same_freq {
                        Some(freq_mhz)
                    } else {
                        // Unique bin per signal.
                        solo += 1;
                        Some(u32::MAX - solo as u32)
                    };
                    clock_bins.entry(key).or_default().push(s);
                }
                ControlClass::Reset => resets.push(s),
                ControlClass::ScanEnable => ses.push(s),
                ControlClass::TestEnable => tes.push(s),
            }
        }

        let mut groups = Vec::new();
        for (key, members) in clock_bins {
            let pin = match key {
                None => Pin::PllRef,
                Some(f) if f < u32::MAX - 1_000_000 => Pin::Freq(f),
                _ => Pin::DedicatedClock(groups.len()),
            };
            groups.push((pin, members));
        }
        push_class(&mut groups, resets, policy.share_resets, "rst");
        push_class(&mut groups, ses, policy.share_scan_enables, "se");
        let mut extra_pins = 0usize;
        if policy.te_via_controller {
            if !tes.is_empty() {
                // Pins replaced by session-select inputs to the controller.
                let n = (usize::BITS - policy.sessions.max(1).leading_zeros()) as usize;
                extra_pins = n.max(1);
            }
        } else {
            push_class(&mut groups, tes, false, "te");
        }
        Sharing {
            unshared_pins: dedup.len(),
            groups,
            extra_pins,
        }
    }
}

fn push_class<'a>(
    groups: &mut Vec<(Pin, Vec<&'a ControlSignal>)>,
    members: Vec<&'a ControlSignal>,
    merge: bool,
    base: &'static str,
) {
    if members.is_empty() {
        return;
    }
    if merge {
        groups.push((Pin::Merged(base), members));
    } else {
        for (i, m) in members.into_iter().enumerate() {
            groups.push((Pin::Single(base, i), vec![m]));
        }
    }
}

/// The DSC control inventory from the paper: 6 clocks, 4 resets, 7 test
/// enables, 2 scan enables = 19 pins unshared.
///
/// USB: 4 clock domains, 3 resets, 6 test signals, 1 SE. TV: 1 clock,
/// 1 reset, 1 TE, 1 SE. JPEG: 1 clock.
#[must_use]
pub fn dsc_control_inventory() -> Vec<ControlSignal> {
    let mut v = Vec::new();
    for (i, f) in [48, 12, 480, 60].iter().enumerate() {
        v.push(ControlSignal::new(
            "USB",
            &format!("ck{i}"),
            ControlClass::Clock { freq_mhz: *f },
        ));
    }
    for i in 0..3 {
        v.push(ControlSignal::new(
            "USB",
            &format!("rst{i}"),
            ControlClass::Reset,
        ));
    }
    for i in 0..6 {
        v.push(ControlSignal::new(
            "USB",
            &format!("test{i}"),
            ControlClass::TestEnable,
        ));
    }
    v.push(ControlSignal::new("USB", "se", ControlClass::ScanEnable));
    v.push(ControlSignal::new(
        "TV",
        "ck",
        ControlClass::Clock { freq_mhz: 27 },
    ));
    v.push(ControlSignal::new("TV", "rst", ControlClass::Reset));
    v.push(ControlSignal::new("TV", "te", ControlClass::TestEnable));
    v.push(ControlSignal::new("TV", "se", ControlClass::ScanEnable));
    v.push(ControlSignal::new(
        "JPEG",
        "ck",
        ControlClass::Clock { freq_mhz: 54 },
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsc_inventory_matches_paper_breakdown() {
        let inv = dsc_control_inventory();
        assert_eq!(inv.len(), 19, "paper: 19 total control IOs");
        let count = |c: fn(&ControlClass) -> bool| inv.iter().filter(|s| c(&s.class)).count();
        assert_eq!(
            count(|c| matches!(c, ControlClass::Clock { .. })),
            6,
            "6 clock signals"
        );
        assert_eq!(count(|c| matches!(c, ControlClass::Reset)), 4, "4 resets");
        assert_eq!(
            count(|c| matches!(c, ControlClass::TestEnable)),
            7,
            "7 test enables"
        );
        assert_eq!(
            count(|c| matches!(c, ControlClass::ScanEnable)),
            2,
            "2 SE signals"
        );
    }

    #[test]
    fn unshared_policy_keeps_19_pins() {
        let rep = share_controls(&dsc_control_inventory(), &SharePolicy::unshared());
        assert_eq!(rep.unshared_pins, 19);
        assert_eq!(rep.shared_pins(), 19);
        assert_eq!(rep.saved(), 0);
    }

    #[test]
    fn dsc_policy_reduces_pins_substantially() {
        let rep = share_controls(&dsc_control_inventory(), &SharePolicy::dsc(3));
        // 1 PLL ref + 1 rst + 1 se + 2 session-select = 5.
        assert_eq!(rep.shared_pins(), 5, "{rep}");
        assert!(rep.saved() >= 14);
    }

    #[test]
    fn same_freq_clocks_share_without_pll() {
        let signals = vec![
            ControlSignal::new("A", "ck", ControlClass::Clock { freq_mhz: 100 }),
            ControlSignal::new("B", "ck", ControlClass::Clock { freq_mhz: 100 }),
            ControlSignal::new("C", "ck", ControlClass::Clock { freq_mhz: 50 }),
        ];
        let rep = share_controls(&signals, &SharePolicy::default());
        // Two frequency classes -> two pins.
        assert_eq!(rep.shared_pins(), 2);
    }

    #[test]
    fn te_pins_stay_per_core_without_controller() {
        let signals = vec![
            ControlSignal::new("A", "te", ControlClass::TestEnable),
            ControlSignal::new("B", "te", ControlClass::TestEnable),
        ];
        let rep = share_controls(&signals, &SharePolicy::default());
        assert_eq!(rep.shared_pins(), 2);
        let rep2 = share_controls(
            &signals,
            &SharePolicy {
                te_via_controller: true,
                sessions: 3,
                ..SharePolicy::default()
            },
        );
        // ceil(log2(4)) = 2 session-select pins, no TE pins.
        assert_eq!(rep2.shared_pins(), 2);
        assert_eq!(rep2.extra_pins, 2);
    }

    #[test]
    fn pin_count_equals_the_report_under_every_policy() {
        // The DSC inventory plus repeats: the same (core, name) pairs
        // again, one with a different class (the first listing wins).
        let mut signals = dsc_control_inventory();
        signals.extend(dsc_control_inventory().into_iter().step_by(3));
        signals.push(ControlSignal::new("TV", "ck", ControlClass::Reset));
        let mut policies = vec![
            SharePolicy::unshared(),
            SharePolicy::default(),
            SharePolicy {
                pll_generated_clocks: false,
                share_clocks_same_freq: false,
                ..SharePolicy::dsc(3)
            },
        ];
        policies.extend((1..=5).map(SharePolicy::dsc));
        for policy in &policies {
            let report = share_controls(&signals, policy);
            assert_eq!(report.unshared_pins, 19, "{policy:?}");
            assert_eq!(
                shared_pin_count(&signals, policy),
                report.shared_pins(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn report_display_lists_groups() {
        let rep = share_controls(&dsc_control_inventory(), &SharePolicy::dsc(3));
        let text = rep.to_string();
        assert!(text.contains("clk_pll_ref"), "{text}");
        assert!(text.contains("USB/se"), "{text}");
    }
}
