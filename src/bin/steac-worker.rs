//! `steac-worker` — the worker of the STEAC platform's process and
//! remote fleets.
//!
//! Three modes, one session loop (`steac_sim::remote::serve_session`,
//! around the `steac_sim::shard::process_request_with` core), one job
//! table (`steac_suite::worker_registry`), so this binary contains no
//! per-workload knowledge at all. The kinds it routes:
//!
//! | kind | work unit |
//! |------|-----------|
//! | 1, 4, 5 | stuck-at, transition or bridging grading / dictionary chunk |
//! | 2 | ATE playback of one bit-plane pattern block (up to 64 patterns) |
//! | 3 | March walk over a memory-fault chunk |
//! | 7 | one 64-pattern block of the JPEG functional set, generated as a bit-plane pattern block |
//!
//! A `jpeg_playback_stream` run ships both its generation (kind 7) and
//! its playback (kind 2) to the same workers, and a generated block
//! comes back in the very bytes a playback unit ships in
//! (`steac_pattern::PatternBlock::encode`). The modes:
//!
//! * **stdio session (no arguments)**: serves envelope-framed requests
//!   (the versioned protocol in `steac_sim::shard`) from stdin and
//!   writes each response envelope to stdout as it finishes, with one
//!   worker state — program cache and status counters — for the whole
//!   life of the process. This is the child behind each slot of
//!   `STEAC_EXEC=processes:N` (`steac_sim::remote::ProcessTransport`).
//!   It exits 0 when stdin closes at a frame boundary, so a dead parent
//!   leaves no orphan, and nonzero, with a diagnostic on stderr, on a
//!   damaged frame or a request it cannot answer.
//! * **`--serve <host:port>`**: binds a TCP listener and serves the
//!   same sessions forever (`steac_sim::remote::serve_tcp_with_state`,
//!   the one serving loop): each connection is a framed request loop,
//!   each request runs on its own thread (at most four per connection
//!   at once), and one shared worker state carries the program cache
//!   and status counters across every connection the process ever
//!   accepts. This is the remote half of
//!   `STEAC_EXEC=remote:host:port,…` — start one per host of the fleet.
//!   The bound address is printed to stdout (bind to port 0 for an
//!   ephemeral port and scrape it from that line).
//! * **`--status <host:port>`**: queries a serving worker's status
//!   counters (uptime, program-cache entries/capacity/hits/misses/
//!   evictions, requests and units served, bytes received) and prints
//!   them — the observability half of the protocol's status request.
//!   Evictions while the cache sits full are flagged as pressure.
//!
//! Every mode's program cache holds
//! `steac_sim::shard::DEFAULT_PROGRAM_CACHE_CAPACITY` (8) programs;
//! there is no flag or variable to size it, and any other argument is a
//! usage error (exit 2, before anything is bound).
//!
//! Protocol errors end the session with a diagnostic on stderr: the
//! stdio worker exits nonzero, a serve connection closes (a misbehaving
//! client never takes the server down). Per-unit failures are reported
//! in-band so the dispatcher can attribute them to the lowest-indexed
//! failing unit.
//!
//! # Fault models and dictionaries
//!
//! The gate-level fault models (`steac_sim::models`) each register
//! their own kind — 1 (stuck-at), 4 (transition/delay), 5 (bridging) —
//! so a fleet worker needs no flag to serve a mixed-model campaign: the
//! dispatcher picks the model, this binary just routes kinds. Kinds 1,
//! 4 and 5 share one job layout (`steac_sim::models::open_wire_job`,
//! opened per model) whose mode byte chooses between coverage grading
//! (lane-mask results) and fault-dictionary building, whose unit
//! results are per-fault `(first detecting pattern, pattern x output
//! signature bitmap)` entries; the dispatcher concatenates them into
//! the dictionary, which has no other serialized form.
//! Diagnosing an observed failure signature against a dictionary
//! (`steac_sim::models::dictionary::diagnose`) runs in the caller's
//! process; no kind ships it.

use std::io::{stdin, stdout, Write as _};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use steac_sim::remote::{query_status, serve_session, serve_tcp_with_state, TcpTransport};
use steac_sim::shard::WorkerState;

const USAGE: &str = "usage: steac-worker [--serve <host:port> | --status <host:port>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = steac_suite::worker_registry();
    let result = match args.as_slice() {
        [] => serve_session(
            stdin().lock(),
            stdout(),
            // The session is the process: a request it cannot answer
            // ends it, so the dispatcher fails over without waiting.
            &|| std::process::exit(2),
            &|kind, job| registry.open(kind, job),
            &WorkerState::new(),
        ),
        [flag, addr] if flag == "--serve" => match TcpListener::bind(addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(bound) => println!("steac-worker: serving on {bound}"),
                    Err(_) => println!("steac-worker: serving on {addr}"),
                }
                let _ = stdout().flush();
                serve_tcp_with_state(
                    listener,
                    move |kind, job| registry.open(kind, job),
                    Arc::new(WorkerState::new()),
                )
            }
            Err(e) => Err(format!("binding {addr}: {e}")),
        },
        [flag, addr] if flag == "--status" => {
            let transport = TcpTransport::new(addr.clone());
            query_status(&transport).map(|status| println!("{addr}: {status}"))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("steac-worker: {e}");
            ExitCode::from(2)
        }
    }
}
