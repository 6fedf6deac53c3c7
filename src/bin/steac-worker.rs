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
//! | 2 | 64-pattern ATE playback chunk |
//! | 3 | March walk over a memory-fault chunk |
//! | 6 | fault-dictionary diagnosis chunk |
//! | 7 | expected responses of one 64-pattern block of the JPEG functional set |
//!
//! A `jpeg_playback_stream` run ships both its generation (kind 7) and
//! its playback (kind 2) to the same workers. The modes:
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
//! * **`--serve <host:port> [--cache-cap N]`**: binds a TCP listener
//!   and serves the same sessions forever
//!   (`steac_sim::remote::serve_tcp_with_state`): each connection is a
//!   framed request loop, each request runs on its own thread, and one
//!   shared worker state carries the program cache and status counters
//!   across every connection the process ever accepts.
//!   This is the remote half of `STEAC_EXEC=remote:host:port,…` — start
//!   one per host of the fleet. The bound address is printed to stdout
//!   (bind to port 0 for an ephemeral port and scrape it from that
//!   line). The program cache holds 8 entries by default — enough for a
//!   single campaign, but interleaved streaming workloads (grading +
//!   playback + March) cycle more distinct jobs than that and thrash;
//!   size it with `--cache-cap N` (or `STEAC_CACHE_CAP=N`, flag wins)
//!   when a fleet serves mixed campaigns. A stdio session reads
//!   `STEAC_CACHE_CAP` too.
//! * **`--status <host:port>`**: queries a serving worker's status
//!   counters (uptime, program-cache entries/capacity/hits/misses/
//!   evictions, requests and units served, bytes received) and prints
//!   them — the observability half of the protocol's status request.
//!   Evictions while the cache sits full are flagged as pressure, the
//!   signal to raise `--cache-cap`.
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
//! plus kind 6 (dictionary diagnosis), so a fleet worker needs no flag
//! to serve a mixed-model campaign: the dispatcher picks the model, this
//! binary just routes kinds. Flows that read the model from the
//! environment (`steac_zoo`, the scaling bench) select it with
//! `STEAC_MODEL=stuck-at|transition|bridging` — set on the
//! *dispatching* side, never on the worker. Kinds 1, 4 and 5 share one
//! job layout (`steac_sim::models::open_wire_job`, opened per model)
//! whose mode byte chooses between coverage grading (lane-mask results)
//! and fault-dictionary building, whose unit results are per-fault
//! `(first detecting pattern, pattern x output signature bitmap)`
//! entries; a full dictionary serializes as an `SDCT` block (magic,
//! wire version, pattern/output counts, entries) — the persistent
//! artifact kind 6 diagnoses observed failure signatures against.

use std::io::{stdin, stdout, Write as _};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use steac_sim::remote::{query_status, serve_session, serve_tcp_with_state, TcpTransport};
use steac_sim::shard::{env_cache_capacity, WorkerState, DEFAULT_PROGRAM_CACHE_CAPACITY};

const USAGE: &str =
    "usage: steac-worker [--serve <host:port> [--cache-cap N] | --status <host:port>]";

/// Program-cache capacity for `--serve`: the `--cache-cap` flag when
/// given, else `STEAC_CACHE_CAP`, else the built-in default.
fn serve_cache_capacity(rest: &[String]) -> Result<usize, String> {
    match rest {
        [] => Ok(env_cache_capacity().unwrap_or(DEFAULT_PROGRAM_CACHE_CAPACITY)),
        [flag, n] if flag == "--cache-cap" => match n.parse::<usize>() {
            Ok(cap) if cap > 0 => Ok(cap),
            _ => Err(format!("--cache-cap must be a positive integer, got `{n}`")),
        },
        _ => Err(USAGE.to_string()),
    }
}

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
            &WorkerState::with_cache_capacity(
                env_cache_capacity().unwrap_or(DEFAULT_PROGRAM_CACHE_CAPACITY),
            ),
        ),
        [flag, addr, rest @ ..] if flag == "--serve" => match serve_cache_capacity(rest) {
            Ok(capacity) => match TcpListener::bind(addr) {
                Ok(listener) => {
                    match listener.local_addr() {
                        Ok(bound) => println!("steac-worker: serving on {bound}"),
                        Err(_) => println!("steac-worker: serving on {addr}"),
                    }
                    let _ = stdout().flush();
                    serve_tcp_with_state(
                        listener,
                        move |kind, job| registry.open(kind, job),
                        Arc::new(WorkerState::with_cache_capacity(capacity)),
                    )
                }
                Err(e) => Err(format!("binding {addr}: {e}")),
            },
            Err(e) => Err(e),
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
