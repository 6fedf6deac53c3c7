//! Ablation: March algorithm trade-off — test time vs measured fault
//! coverage (the BRAINS "evaluate the memory test efficiency among
//! different designs" feature).
//!
//! Exits non-zero unless the table shows the March hierarchy: March C−,
//! A, B, LR and SS detect every sampled fault and MATS+ does not.

use rand::rngs::StdRng;
use rand::SeedableRng;
use steac_bench::header;
use steac_membist::faultsim::{fault_coverage, random_fault_list};
use steac_membist::{MarchAlgorithm, SramConfig};
use steac_sim::Exec;

fn main() {
    println!(
        "{}",
        header("Ablation: March algorithm time/coverage trade-off")
    );
    let exec = Exec::from_env();
    let cfg = SramConfig::single_port(64, 4);
    let mut rng = StdRng::seed_from_u64(2005);
    let faults = random_fault_list(&cfg, 80, &mut rng);
    println!(
        "{:<10} {:>5} {:>12} {:>10}  escapes by class",
        "algorithm", "kN", "cycles@8K", "coverage"
    );
    let mut broken = Vec::new();
    for alg in MarchAlgorithm::library() {
        let rep = fault_coverage(&exec, &alg, &cfg, &faults).expect("March grading dispatches");
        let must_detect_all = match alg.name.as_str() {
            "MATS+" => Some(false),
            "March C-" | "March A" | "March B" | "March LR" | "March SS" => Some(true),
            _ => None,
        };
        if must_detect_all.is_some_and(|all| all != (rep.detected == rep.total)) {
            broken.push(alg.name.clone());
        }
        let escapes: Vec<String> = rep
            .escapes_by_class
            .iter()
            .map(|(c, n)| format!("{c}={n}"))
            .collect();
        println!(
            "{:<10} {:>4}N {:>12} {:>9.2}%  {}",
            alg.name,
            alg.complexity(),
            alg.cycles(8192),
            rep.coverage_percent(),
            escapes.join(" ")
        );
    }
    println!(
        "\n({} faults sampled per run: SAF/TF/CFin/CFid/CFst/AF classes)",
        faults.len()
    );
    if !broken.is_empty() {
        eprintln!(
            "March hierarchy broken: {} (MATS+ must miss faults; March C-, A, B, LR \
             and SS must detect all)",
            broken.join(", ")
        );
        std::process::exit(1);
    }
}
