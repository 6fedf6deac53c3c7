//! Golden pin for gate-level grading of the DSC scan cores. For the USB
//! and TV cores it records, per fault model (stuck-at, transition,
//! bridging), the number of faults graded, the detected count and an
//! FNV-1a digest of the undetected list, graded on the serial backend
//! over seeded random vectors. The values were recorded with the engine
//! that walked every flop in its sequential pass and kept one
//! previous-clock slot per flop, so a faster settle must reproduce them
//! exactly. The clock-edge check is shared by the engine's fast and
//! checked settles, so this golden is what checks it against an answer
//! recorded outside the current code.
//!
//! The default test grades every 16th fault over 96 vectors whose clock
//! pins toggle, so it stays within seconds in a debug build. Known
//! values advance one flop per rising edge, and with toggling clocks the
//! USB core's 45-flop chain fills within the run, so stuck-at and
//! bridging faults are detected (with random clocks they are not before
//! about 200 vectors). The `#[ignore]`d variant grades the full lists
//! over 512 random vectors, clocks included (`cargo test --release -p
//! steac-dsc --test grading_golden -- --include-ignored`): the stimulus
//! of perfbench's `core_grading --seed 7`.

use std::fmt::{Display, Write};
use steac_dsc::{tv_core, usb_core, CoreParams};
use steac_netlist::{Module, PortDir};
use steac_sim::wire::fnv1a64;
use steac_sim::{
    enumerate_bridges, enumerate_faults, enumerate_transition_faults, grade_bridges,
    grade_transitions, grade_vectors, Exec, Logic, Report,
};

/// Stimulus seed.
const SEED: u64 = 7;

/// One model's pinned outcome: `(graded, detected, undetected digest)`.
type Pin = (usize, usize, u64);

/// SplitMix64 hop (the stimulus generator of perfbench's `core_grading`).
fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over the undetected faults' display forms, one per line.
fn digest<F: Display>(undetected: &[F]) -> u64 {
    let mut text = String::new();
    for f in undetected {
        writeln!(text, "{f}").expect("writing to a String");
    }
    fnv1a64(text.as_bytes())
}

fn pin<F: Display>(report: &Report<F>) -> Pin {
    (report.total, report.detected, digest(&report.undetected))
}

/// `count` seeded random vectors over every input. With `toggle`, the
/// core's clock pins instead alternate 0, 1, 0, … so every other vector
/// is a rising edge on each clock.
fn vectors(m: &Module, clocks: &[String], count: usize, toggle: bool) -> Vec<Vec<Logic>> {
    let inputs: Vec<_> = m.ports_with_dir(PortDir::Input).collect();
    (0..count)
        .map(|k| {
            let row = splitmix(SEED, k as u64);
            inputs
                .iter()
                .enumerate()
                .map(|(i, port)| {
                    if toggle && clocks.contains(&port.name) {
                        Logic::from(k % 2 == 1)
                    } else {
                        Logic::from(splitmix(row, i as u64) & 1 == 1)
                    }
                })
                .collect()
        })
        .collect()
}

/// Grades every `stride`-th fault of each model of `core` over its
/// `vectors`.
fn grade(core: &(Module, CoreParams), stride: usize, count: usize, toggle: bool) -> [Pin; 3] {
    let m = &core.0;
    let pins: Vec<_> = m.ports_with_dir(PortDir::Input).map(|p| p.net).collect();
    let vectors = vectors(m, &core.1.clocks, count, toggle);
    let sample = |n: usize| (0..n).step_by(stride);
    let exec = Exec::serial();
    let faults = enumerate_faults(m);
    let faults: Vec<_> = sample(faults.len()).map(|i| faults[i]).collect();
    let tfaults = enumerate_transition_faults(m);
    let tfaults: Vec<_> = sample(tfaults.len()).map(|i| tfaults[i]).collect();
    let bfaults = enumerate_bridges(m).expect("core compiles");
    let bfaults: Vec<_> = sample(bfaults.len()).map(|i| bfaults[i]).collect();
    [
        pin(&grade_vectors(&exec, m, &faults, &pins, &vectors).expect("stuck-at grades")),
        pin(&grade_transitions(&exec, m, &tfaults, &pins, &vectors).expect("transition grades")),
        pin(&grade_bridges(&exec, m, &bfaults, &pins, &vectors).expect("bridging grades")),
    ]
}

fn check(name: &str, got: [Pin; 3], want: [Pin; 3]) {
    for (model, (g, w)) in ["stuck-at", "transition", "bridging"]
        .iter()
        .zip(got.iter().zip(&want))
    {
        assert_eq!(
            g, w,
            "{name} {model}: (graded, detected, digest) {g:#x?} != golden {w:#x?}"
        );
    }
}

#[test]
fn sampled_scan_core_grading_matches_golden() {
    let usb = usb_core().expect("USB core builds");
    let tv = tv_core().expect("TV core builds");
    check(
        "usb",
        grade(&usb, 16, 96, true),
        [
            (555, 25, 0x5de8_18ab_0cf0_3b4d),
            (555, 0, 0x16f2_7663_b46c_6974),
            (269, 18, 0xfa68_47e2_2720_6c06),
        ],
    );
    check(
        "tv",
        grade(&tv, 16, 96, true),
        [
            (297, 0, 0x9731_235d_30e0_48bb),
            (297, 0, 0xbf42_d240_912d_849c),
            (146, 0, 0xe9b1_46ac_7cd6_2226),
        ],
    );
}

#[test]
#[ignore = "full fault lists over 512 vectors; run in release"]
fn full_scan_core_grading_matches_golden() {
    let usb = usb_core().expect("USB core builds");
    let tv = tv_core().expect("TV core builds");
    check(
        "usb",
        grade(&usb, 1, 512, false),
        [
            (8866, 744, 0x4c83_2c22_8896_57ca),
            (8866, 0, 0xeee9_911d_dfd6_8117),
            (4290, 357, 0x88da_c2eb_d268_3fdb),
        ],
    );
    check(
        "tv",
        grade(&tv, 1, 512, false),
        [
            (4752, 0, 0x4d8e_eadd_3659_8d7f),
            (4752, 0, 0x72dc_003c_67f5_691b),
            (2322, 0, 0xfe63_62d3_82aa_0ddf),
        ],
    );
}
