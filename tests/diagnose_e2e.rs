//! End-to-end fault-dictionary diagnosis on a seeded zoo instance, for
//! every gate-level fault model: build a glue netlist, produce a fault
//! dictionary through the `Exec::from_env` backend, observe the failure
//! signature of one injected fault, and diagnose it back — the true
//! site must land in the top-3 ranked candidates. The stuck-at and
//! transition models observe the injected fault with an independent
//! scalar simulation, the bridging model with the dictionary's own row.
//! CI runs it on the process backend too (and the matrix re-runs it per
//! backend).

use steac_suite::steac_netlist::{Module, NetId};
use steac_suite::steac_sim::models::{
    bridging, dictionary, fault_dictionary, transition, ModelKind,
};
use steac_suite::steac_sim::{fault, Exec, Fault, Logic, Simulator};
use steac_suite::steac_zoo::{glue_netlist, seeded_vectors, ZooParams};

fn glue_case() -> (Module, Vec<NetId>, Vec<Vec<Logic>>) {
    let soc = ZooParams::smoke().soc(1);
    let m = glue_netlist(&soc);
    let pins: Vec<NetId> = m
        .ports_with_dir(steac_suite::steac_netlist::PortDir::Input)
        .map(|p| p.net)
        .collect();
    let vectors = seeded_vectors(soc.seed, pins.len(), 48);
    (m, pins, vectors)
}

/// The first detected dictionary entry whose signature is unique — a
/// deterministic pick, and the uniqueness makes top-3 a meaningful
/// claim rather than a tie-break accident.
fn unique_detected_entry(dict: &dictionary::FaultDictionary) -> usize {
    dict.entries
        .iter()
        .enumerate()
        .position(|(i, e)| {
            e.first_pattern.is_some()
                && dict
                    .entries
                    .iter()
                    .enumerate()
                    .all(|(j, o)| j == i || o.signature != e.signature)
        })
        .expect("some detected fault has a unique signature")
}

/// The "silicon" observation of a stuck-at fault: one bit per (vector,
/// output) where a scalar simulation with the net forced provably
/// differs from a fault-free one.
fn stuck_at_signature(
    m: &Module,
    fault: Fault,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> Vec<u64> {
    let mut good: Simulator = Simulator::new(m).expect("glue compiles");
    let mut bad: Simulator = Simulator::new(m).expect("glue compiles");
    bad.force(fault.net, fault.stuck.value());
    let outs = good.program().output_nets.clone();
    let mut sig = vec![0u64; dictionary::signature_words(vectors.len(), outs.len())];
    for (p, vector) in vectors.iter().enumerate() {
        for sim in [&mut good, &mut bad] {
            for (&pin, &v) in pins.iter().zip(vector) {
                sim.set(pin, v);
            }
            sim.settle().expect("glue settles");
        }
        for (o, &net) in outs.iter().enumerate() {
            let (g, b) = (good.get_lane(net, 0), bad.get_lane(net, 0));
            if g.is_known() && b.is_known() && g != b {
                let bit = p * outs.len() + o;
                sig[bit / 64] |= 1 << (bit % 64);
            }
        }
    }
    sig
}

/// Builds `model`'s dictionary of the glue case on `exec` and returns
/// it with the observed signature of one injected fault and that
/// fault's entry index.
fn dictionary_case(
    model: ModelKind,
    exec: &Exec,
    m: &Module,
    pins: &[NetId],
    vectors: &[Vec<Logic>],
) -> (dictionary::FaultDictionary, Vec<u64>, usize) {
    match model {
        ModelKind::StuckAt => {
            let faults = fault::enumerate_faults(m);
            let dict = fault_dictionary(exec, m, &faults, pins, vectors).expect("dictionary build");
            let truth = unique_detected_entry(&dict);
            let observed = stuck_at_signature(m, faults[truth], pins, vectors);
            (dict, observed, truth)
        }
        ModelKind::Bridging => {
            let faults = bridging::enumerate_bridges(m).expect("glue compiles");
            let dict = fault_dictionary(exec, m, &faults, pins, vectors).expect("dictionary build");
            let truth = unique_detected_entry(&dict);
            // The "silicon" observation: the dictionary's own simulation
            // of the injected bridge.
            let observed = dict.entries[truth].signature.clone();
            (dict, observed, truth)
        }
        ModelKind::Transition => {
            let faults = transition::enumerate_transition_faults(m);
            let dict = fault_dictionary(exec, m, &faults, pins, vectors).expect("dictionary build");
            let truth = unique_detected_entry(&dict);
            // The "silicon" observation: an independent scalar
            // simulation of the injected fault, not the dictionary row.
            let observed =
                transition::observed_transition_signature(m, faults[truth], pins, vectors)
                    .expect("observation");
            (dict, observed, truth)
        }
    }
}

#[test]
fn dictionary_diagnosis_ranks_the_injected_fault_top3() {
    let (m, pins, vectors) = glue_case();
    let exec = Exec::from_env();
    for model in ModelKind::ALL {
        let (dict, observed, truth) = dictionary_case(model, &exec, &m, &pins, &vectors);
        assert!(
            dict.detected_count() > 0,
            "{model} dictionary must detect faults"
        );
        let diagnosis = dictionary::diagnose(&dict, &observed).expect("diagnose");
        let rank = diagnosis.rank_of(truth).expect("candidate present");
        assert!(
            rank < 3,
            "{model}: injected fault ranked #{} (distance {}), top-3 required",
            rank + 1,
            diagnosis.ranked[rank].1
        );
        assert_eq!(
            diagnosis.ranked[rank].1, 0,
            "{model}: the injected fault's observation must match its own signature"
        );
    }
}
