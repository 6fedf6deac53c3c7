//! BRAINS walk-through: the command shell, fault injection, and the
//! serial-vs-parallel design trade-off (Fig. 2 territory).
//!
//! ```sh
//! cargo run --example memory_bist
//! ```

use steac_membist::faultsim::run_march;
use steac_membist::shell::Shell;
use steac_membist::{MarchAlgorithm, MemFault, Sram, SramConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Drive BRAINS through its command shell, as the paper describes
    //    ("one can generate the BIST circuit using the GUI or command
    //    shell").
    let mut shell = Shell::new();
    let transcript = shell.exec_script(
        "# a small heterogeneous memory subsystem
         add_memory frame0 words=8192 width=16 ports=sp group=0
         add_memory frame1 words=8192 width=16 ports=sp group=0
         add_memory dma    words=2048 width=32 ports=sp group=0
         add_memory fifo   words=256  width=32 ports=2p group=1
         set_algorithm march_c-
         set_policy per_group
         set_parallel on
         compile
         report
         coverage 15",
    )?;
    println!("--- BRAINS shell session ---\n{transcript}");

    // 2. Show a fault actually being caught: inject a coupling fault and
    //    run March C- against the behavioural memory.
    let cfg = SramConfig::single_port(1024, 8);
    let fault = MemFault::CouplingInversion {
        aggressor: (100, 3),
        victim: (612, 5),
        rising: true,
    };
    let mut faulty = Sram::with_fault(cfg, fault);
    let alg = MarchAlgorithm::march_c_minus();
    println!("injected {:?}", fault);
    let detected = run_march(&alg, &mut faulty);
    println!(
        "March C- verdict: {}",
        if detected { "DETECTED" } else { "escaped" }
    );
    if !detected {
        return Err(format!("injected {fault:?} escaped March C-").into());
    }

    // 3. The design-space question BRAINS answers: one sequencer or many?
    let design = shell.design().expect("compiled above");
    println!(
        "\nserial {} cycles vs parallel {} cycles over {} sequencers ({:.0} GE of BIST logic)",
        design.total_cycles_serial,
        design.total_cycles_parallel,
        design.sequencer_count(),
        design.total_area_ge()
    );
    Ok(())
}
