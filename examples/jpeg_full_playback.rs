//! The paper's headline workload, end to end: play the JPEG core's full
//! functional-pattern set — 235,696 patterns, the largest entry of
//! Table 1 — through the **streaming** generate→play pipeline on
//! whatever execution backend `Exec::from_env()` resolves.
//!
//! ```sh
//! cargo run --release --example jpeg_full_playback           # full set
//! cargo run --release --example jpeg_full_playback -- 10000  # subset
//! STEAC_EXEC=threads:4 cargo run --release --example jpeg_full_playback
//! STEAC_EXEC=processes:2 cargo run --release --example jpeg_full_playback
//! cargo run --release --example jpeg_full_playback -- 235696 --materialize
//! ```
//!
//! By default the set is never materialized: generator threads produce
//! 64-pattern blocks into a bounded queue while the cycle player
//! (`64 * PLAYBACK_LANE_GROUPS` patterns per pass) consumes them
//! through `Exec::dispatch`, so generation — the slow phase —
//! overlaps playback and peak memory follows the queue depth, not the
//! set size. `--materialize` switches to the old generate-everything-
//! then-play flow; the two print byte-identical reports. The binary
//! prints the backend, the sustained patterns/sec and the peak RSS, so
//! the constant-memory claim is checkable from the output alone.

use std::time::Instant;
use steac_dsc::{jpeg_playback_batch, jpeg_playback_stream, TABLE1};
use steac_sim::Exec;

/// Peak resident set of this process so far (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = TABLE1[2].functional_patterns as usize; // 235,696
    let args: Vec<String> = std::env::args().skip(1).collect();
    let materialize = args.iter().any(|a| a == "--materialize");
    let count = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.parse::<usize>())
        .transpose()?
        .unwrap_or(full);
    let exec = Exec::from_env();
    let flavour = if materialize {
        "materialized"
    } else {
        "streaming"
    };
    println!("JPEG functional playback ({flavour}): {count} of {full} patterns, backend {exec}");

    let t = Instant::now();
    let report = if materialize {
        jpeg_playback_batch(&exec, count)?
    } else {
        jpeg_playback_stream(&exec, count)?
    };
    let secs = t.elapsed().as_secs_f64();

    println!(
        "played {} patterns ({} cycles) in {secs:.2}s ({:.0} patterns/s, {} passes, {} compares)",
        report.patterns,
        report.cycles,
        report.patterns as f64 / secs.max(1e-9),
        report.passes,
        report.compares,
    );
    if let Some(rss) = peak_rss_bytes() {
        println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    if report.process_fallbacks > 0 {
        println!(
            "note: process dispatch fell back in-thread {} time(s)",
            report.process_fallbacks
        );
    }
    println!("mismatches: {}", report.mismatches);
    if report.mismatches != 0 {
        return Err("playback mismatches".into());
    }
    println!("PASS: netlist matches all expected responses");
    Ok(())
}
