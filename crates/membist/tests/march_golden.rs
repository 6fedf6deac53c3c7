//! Golden figures for every March walk of the crate.
//!
//! On a 16 x 4 single-port SRAM carrying, one at a time, the 720
//! inter-cell couplings of `enumerate_inter_cell_couplings` plus
//! `random_fault_list` at seed 2005 (20 faults per class, 120), this
//! pins per library algorithm: `run_march` detections, the number of
//! failing reads `failure_log` records with a digest of every
//! `FailureSite`, a digest of the `first_failure` sites,
//! `background_coverage` under `standard_backgrounds(4)`, and the
//! packed grading's escapes by class. It also pins the table the
//! `march_tradeoff` binary prints (64 x 4, seed 2005, 80 faults per
//! class).
//!
//! The packed and the scalar walk both take their March order from the
//! one `Sequencer`, so their differential tests cannot see an order
//! bug (a ⇓ element walked upward, say). These figures, and the
//! `Sequencer`'s own order tests, can.

use rand::rngs::StdRng;
use rand::SeedableRng;
use steac_membist::faultsim::{fault_coverage, random_fault_list};
use steac_membist::{
    background_coverage, enumerate_inter_cell_couplings, failure_log, first_failure, run_march,
    standard_backgrounds, FailureSite, MarchAlgorithm, MemCoverageReport, MemFault, Sram,
    SramConfig,
};
use steac_sim::wire::fnv1a64;
use steac_sim::Exec;

fn escapes(rep: &MemCoverageReport) -> String {
    let classes: Vec<String> = rep
        .escapes_by_class
        .iter()
        .map(|(class, n)| format!("{class}={n}"))
        .collect();
    classes.join(" ")
}

fn push_site(bytes: &mut Vec<u8>, site: &FailureSite) {
    for word in [site.element, site.addr] {
        bytes.extend_from_slice(&(word as u64).to_le_bytes());
    }
    bytes.extend_from_slice(site.op.to_string().as_bytes());
    bytes.extend_from_slice(&site.observed.to_le_bytes());
    bytes.extend_from_slice(&site.expected.to_le_bytes());
}

/// One line per algorithm: detections, failing reads, the two site
/// digests, background detections and packed escapes.
fn walk_row(alg: &MarchAlgorithm, cfg: &SramConfig, faults: &[MemFault]) -> String {
    let mut detected = 0;
    let mut reads = 0;
    let (mut log_bytes, mut first_bytes) = (Vec::new(), Vec::new());
    for &fault in faults {
        if run_march(alg, &mut Sram::with_fault(*cfg, fault)) {
            detected += 1;
        }
        let log = failure_log(alg, &mut Sram::with_fault(*cfg, fault));
        reads += log.len();
        log_bytes.extend_from_slice(&(log.len() as u64).to_le_bytes());
        for site in &log {
            push_site(&mut log_bytes, site);
        }
        match first_failure(alg, &mut Sram::with_fault(*cfg, fault)) {
            Some(site) => {
                first_bytes.push(1);
                push_site(&mut first_bytes, &site);
            }
            None => first_bytes.push(0),
        }
    }
    let (bg_detected, _) = background_coverage(alg, cfg, faults, &standard_backgrounds(cfg.width));
    let packed = fault_coverage(&Exec::from_env(), alg, cfg, faults).unwrap();
    assert_eq!(packed.detected, detected, "{}: packed vs scalar", alg.name);
    format!(
        "{}: detected {detected}, failing reads {reads}, log {:016x}, first {:016x}, \
         backgrounds {bg_detected}, escapes [{}]",
        alg.name,
        fnv1a64(&log_bytes),
        fnv1a64(&first_bytes),
        escapes(&packed)
    )
}

#[test]
fn every_march_walk_matches_its_golden_figures() {
    let cfg = SramConfig::single_port(16, 4);
    let mut faults = enumerate_inter_cell_couplings(&cfg);
    assert_eq!(faults.len(), 720);
    faults.extend(random_fault_list(
        &cfg,
        20,
        &mut StdRng::seed_from_u64(2005),
    ));
    let rows: Vec<String> = MarchAlgorithm::library()
        .iter()
        .map(|alg| walk_row(alg, &cfg, &faults))
        .collect();
    let golden = [
        "MATS+: detected 506, failing reads 514, log 46a100f82bf0a5d9, first e1b73ae99f3de209, \
         backgrounds 755, escapes [CFid=130 CFin=63 CFst=131 TF=10]",
        "March X: detected 582, failing reads 601, log d59449a0e16f5c4f, first 842deac777bcd409, \
         backgrounds 774, escapes [CFid=128 CFst=130]",
        "March Y: detected 582, failing reads 648, log ab8fa01ea54fef34, first 2275b1e821ad0741, \
         backgrounds 774, escapes [CFid=128 CFst=130]",
        "March C-: detected 840, failing reads 1192, log e96162a259a3bc73, first 22d5174ef525e1e0, \
         backgrounds 840, escapes []",
        "March A: detected 840, failing reads 1403, log e8c5ce36399f9112, first 45c3d8d3d006213c, \
         backgrounds 840, escapes []",
        "March B: detected 840, failing reads 1450, log 84767084c3dfdd32, first 984a7527d211501c, \
         backgrounds 840, escapes []",
        "March LR: detected 840, failing reads 1606, log ed2ab84a2bd11817, first 30d2e43464674eb8, \
         backgrounds 840, escapes []",
        "March SS: detected 840, failing reads 2707, log a03bcb0756f65a7c, first 86a864b9d348d39e, \
         backgrounds 840, escapes []",
    ];
    assert_eq!(rows, golden);
}

/// The `march_tradeoff` table: coverage and escapes per algorithm on a
/// 64 x 4 memory with 80 faults per class at seed 2005.
#[test]
fn march_tradeoff_table_matches_its_golden_figures() {
    let cfg = SramConfig::single_port(64, 4);
    let faults = random_fault_list(&cfg, 80, &mut StdRng::seed_from_u64(2005));
    let rows: Vec<String> = MarchAlgorithm::library()
        .iter()
        .map(|alg| {
            let rep = fault_coverage(&Exec::from_env(), alg, &cfg, &faults).unwrap();
            format!(
                "{}: {:.2}% [{}]",
                alg.name,
                rep.coverage_percent(),
                escapes(&rep)
            )
        })
        .collect();
    let golden = [
        "MATS+: 65.62% [CFid=53 CFin=27 CFst=43 TF=42]",
        "March X: 85.42% [CFid=38 CFst=32]",
        "March Y: 85.42% [CFid=38 CFst=32]",
        "March C-: 100.00% []",
        "March A: 100.00% []",
        "March B: 100.00% []",
        "March LR: 100.00% []",
        "March SS: 100.00% []",
    ];
    assert_eq!(rows, golden);
}
