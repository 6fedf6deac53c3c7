//! Quickstart for the unified execution-backend API: one `Exec` value
//! picks *how* every batched workload runs — serially, across
//! in-process threads, across `steac-worker` processes, or across a
//! remote fleet of `steac-worker` hosts — while the workload calls
//! stay identical.
//!
//! ```sh
//! cargo run --example exec_backends
//! STEAC_EXEC=serial       cargo run --example exec_backends
//! STEAC_EXEC=threads:4    cargo run --example exec_backends
//! STEAC_EXEC=processes:2  cargo run --release --example exec_backends
//!
//! # machine-level: start one worker per host of the fleet ...
//! steac-worker --serve 10.0.0.12:7601 &   # (on each host)
//! # ... then point a remote spec at them:
//! STEAC_EXEC=remote:10.0.0.12:7601,10.0.0.13:7601 \
//!     cargo run --release --example exec_backends
//! ```
//!
//! (The process backend needs the worker binary: `cargo build
//! [--release]` first. Without it, `processes` degrades to threads with
//! a warning; a malformed spec — `threads:0`, a bad host list — panics
//! loudly instead of silently running something else.)
//!
//! When the worker binary is discoverable, this example also runs a
//! two-child process fleet — the shipped dispatch arm (persistent
//! sessions, one request per batch, failover and retries, wire codecs)
//! with zero network.

use rand::SeedableRng;
use steac_membist::faultsim::{self, random_fault_list};
use steac_membist::{MarchAlgorithm, SramConfig};
use steac_netlist::{GateKind, NetlistBuilder};
use steac_sim::{enumerate_faults, fault, shard, Exec, Logic, Threads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small scan-less circuit: an 80-deep inverter/NAND cone whose
    // fault list spans several packed passes.
    let mut b = NetlistBuilder::new("cone");
    let a = b.input("a");
    let mut cur = a;
    for i in 0..80 {
        cur = if i % 3 == 0 {
            b.gate(GateKind::Inv, &[cur])
        } else {
            b.gate(GateKind::Nand2, &[cur, a])
        };
    }
    b.output("y", cur);
    let module = b.finish()?;
    let faults = enumerate_faults(&module);
    let pins = [module.port("a").unwrap().net];
    let vectors = vec![vec![Logic::Zero], vec![Logic::One]];

    // And a March fault-simulation workload on a 64x4 SRAM.
    let cfg = SramConfig::single_port(64, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2005);
    let mem_faults = random_fault_list(&cfg, 20, &mut rng);
    let alg = MarchAlgorithm::march_c_minus();

    // Four backend families, one API. `Exec::from_env()` honours
    // STEAC_EXEC (serial | auto | threads[:N] | processes[:N] |
    // remote:host:port,…) and is `auto` without it.
    let mut backends = vec![
        Exec::serial(),
        Exec::threads(Threads::exact(4)),
        Exec::from_env(),
    ];
    if let Some(binary) = shard::default_worker_binary() {
        backends.push(Exec::processes(&binary, 2));
    }
    let mut reference = None;
    for exec in &backends {
        let gate = fault::grade_vectors(exec, &module, &faults, &pins, &vectors)?;
        let march = faultsim::fault_coverage(exec, &alg, &cfg, &mem_faults)?;
        println!("backend {exec:<12} gate: {gate}   March: {march}");
        // Verdicts are bit-identical on every backend — that is the
        // dispatch contract, not a coincidence. (Compare the verdict
        // fields, not `process_fallbacks`: an in-thread fallback under
        // the default policy changes the bookkeeping, never a verdict.)
        let verdicts = (
            gate.detected,
            gate.undetected,
            march.detected,
            march.escaped,
        );
        match &reference {
            None => reference = Some(verdicts),
            Some(expected) => assert!(expected == &verdicts, "backend changed a verdict"),
        }
    }
    println!("all backends agree, fault for fault");
    Ok(())
}
