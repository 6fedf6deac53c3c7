//! The worker side of multi-process fan-out, and what both sides of
//! the wire share.
//!
//! Every batched workload in the platform — PPSFP fault grading, batched
//! ATE playback, March fault simulation, JPEG pattern generation —
//! decomposes into *work units*: independent passes over an immutable
//! compiled program. [`crate::Exec::dispatch`] schedules them and puts
//! their results in unit order; this module holds no pool of its own:
//!
//! * [`Threads`] picks the in-process dispatcher count (auto-detected
//!   or an explicit override);
//! * [`encode_lane_mask`] and [`decode_lane_mask`] carry one pass's
//!   256-lane detection mask across the wire, and
//!   [`flags_from_lane_masks`] flattens per-pass masks back to per-item
//!   verdicts in list order — the one result codec and the one merge
//!   every packed grading workload (gate-level and March) shares;
//! * [`JobRegistry`] is the worker-side routing table: the umbrella
//!   crate registers every workload's `open_wire_job` under its `kind`
//!   and the `steac-worker` binary routes requests through that one
//!   table.
//!
//! # Worker protocol (version 3)
//!
//! One request in, one response out, everything little-endian via
//! [`crate::wire`] primitives. Requests and responses are *tagged*:
//!
//! ```text
//! request:  magic b"STWQ", version u16, tag u8
//!   tag 0 (run):    kind u16, job hash u64 (FNV-1a 64 of the job
//!                   bytes), job-present u8 (0 = by hash, 1 = inline),
//!                   [job block when inline], unit count u64,
//!                   then per unit: index u64, unit block
//!   tag 1 (status): nothing further
//! response: magic b"STWR", version u16, tag u8
//!   tag 0 (results):      per unit: index u64, status u8 (0 = ok,
//!                         1 = error), payload block (result bytes, or
//!                         a UTF-8 diagnostic)
//!   tag 1 (need program): job hash u64 — the worker has no cached
//!                         program under that hash; the dispatcher
//!                         re-sends the same units with the job inline
//!   tag 2 (status):       uptime ms, cache entries/capacity/hits/
//!                         misses/evictions, requests served, units
//!                         served, bytes received (u64 each)
//! ```
//!
//! The **program cache** is what makes tag-0-by-hash worthwhile: a
//! persistent worker ([`WorkerState`]) keeps a small LRU of recently
//! seen job blocks keyed by their content hash, so a dispatch ships
//! the serialized program *once per host* and every subsequent request
//! is a 26-byte header plus unit bytes. An inline job whose bytes do
//! not hash to the declared value is never executed or cached — every
//! unit reports the mismatch, deterministically, so a corrupted
//! program can fail a run but never produce a wrong answer.
//!
//! The same request/response bytes travel unchanged over every
//! transport ([`crate::remote`]): each frames them with a
//! length-prefixed versioned envelope, over a socket or over a worker
//! child's stdin/stdout, and each worker keeps one [`WorkerState`] for
//! its whole life — [`process_request_with`] is the one execution core
//! behind every session. Framing belongs to the transport, not to this
//! protocol: a child's stdio and a socket carry the same envelope
//! frames, and neither this version nor the envelope's depends on which
//! pipe carries them.
//!
//! The worker opens the job once (`kind` selects the workload; the job
//! block carries the compiled program and shared parameters) and
//! executes its units in order. Protocol errors — truncated or
//! version-mismatched requests — surface as a typed diagnostic; the
//! dispatcher reports any worker failure as the **lowest-indexed**
//! affected unit's [`crate::SimError::Worker`], so failure reporting is
//! as deterministic as success merging.
//!
//! No dependencies beyond `std`.

use crate::packed::{mask_bit, LaneMask, DEFAULT_LANE_GROUPS};
use crate::wire::{fnv1a64, WireReader, WireWriter};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Dispatcher count of the thread backend: an explicit count
/// ([`Threads::exact`]) or the detected core count ([`Threads::auto`]),
/// always at least 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// Exactly `n` dispatchers (clamped to at least 1). Ignores the
    /// environment — use this in scaling experiments that must control
    /// the width.
    #[must_use]
    pub fn exact(n: usize) -> Self {
        Threads(n.max(1))
    }

    /// One dispatcher: units run inline on the calling thread.
    #[must_use]
    pub fn single() -> Self {
        Threads(1)
    }

    /// The detected core count
    /// ([`std::thread::available_parallelism`]), falling back to 1.
    #[must_use]
    pub fn auto() -> Self {
        Threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured dispatcher count (≥ 1).
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }
}

/// Serializes one pass's detection mask as a unit result: its
/// [`DEFAULT_LANE_GROUPS`] words, little-endian, 32 bytes. Gate-level
/// grading (kinds 1, 4 and 5) and March walks (kind 3) both answer
/// with it.
#[must_use]
pub fn encode_lane_mask(mask: &LaneMask<DEFAULT_LANE_GROUPS>) -> Vec<u8> {
    mask.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Reads a mask written by [`encode_lane_mask`].
///
/// # Errors
///
/// A diagnostic naming both lengths unless `bytes` is exactly 32 bytes.
pub fn decode_lane_mask(bytes: &[u8]) -> Result<LaneMask<DEFAULT_LANE_GROUPS>, String> {
    let mut mask = [0u64; DEFAULT_LANE_GROUPS];
    if bytes.len() != 8 * mask.len() {
        return Err(format!(
            "result has {} bytes, expected {}",
            bytes.len(),
            8 * mask.len()
        ));
    }
    for (word, le) in mask.iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(le.try_into().expect("8-byte chunk"));
    }
    Ok(mask)
}

/// Flattens per-pass detection masks (one mask per `per_pass` chunk of
/// the item list, in list order) into one `bool` per item. `first_lane`
/// is the lane carrying a pass's first item — 1 when lane 0 runs the
/// good machine (gate-level PPSFP, 255 items per pass), 0 when every
/// lane carries an item (March walks, 256 items per walk).
///
/// Because the flattening walks chunks in order, downstream reports keep
/// exactly the order a single-threaded pass-by-pass loop would produce,
/// regardless of which thread or process computed each mask.
#[must_use]
pub fn flags_from_lane_masks(
    item_count: usize,
    per_pass: usize,
    first_lane: usize,
    masks: &[LaneMask<DEFAULT_LANE_GROUPS>],
) -> Vec<bool> {
    let lanes = first_lane..first_lane + per_pass;
    masks
        .iter()
        .flat_map(|mask| lanes.clone().map(move |lane| mask_bit(mask, lane)))
        .take(item_count)
        .collect()
}

// ---------- the worker protocol ----------

const REQUEST_MAGIC: [u8; 4] = *b"STWQ";
const RESPONSE_MAGIC: [u8; 4] = *b"STWR";

/// Version of the worker request/response framing; bumped in lock step
/// with [`crate::wire::WIRE_VERSION`] discipline (see that module's
/// versioning rule). Version 3 added request/response tags, the
/// content-addressed program reference (hash + optional inline block)
/// and the status exchange.
pub const PROTOCOL_VERSION: u16 = 3;

/// Request tags (see the module docs for the full frame layouts).
const REQ_RUN: u8 = 0;
const REQ_STATUS: u8 = 1;

/// Response tags.
const REPLY_RESULTS: u8 = 0;
const REPLY_NEED_PROGRAM: u8 = 1;
const REPLY_STATUS: u8 = 2;

/// Byte offset of the first job-block byte inside an inline run
/// request: magic (4) + version (2) + tag (1) + kind (2) + hash (8) +
/// present flag (1) + block length (8). The hash-corruption chaos test
/// flips bytes from here on to prove a damaged program is a typed
/// error, never a wrong answer.
#[doc(hidden)]
pub const RUN_REQUEST_JOB_OFFSET: usize = 26;

/// Default number of programs a persistent worker keeps decoded-job
/// *bytes* for, most recently used last — what every `steac-worker`
/// runs with. Small on purpose: a fleet serves one or a handful of
/// distinct programs at a time, and a stale entry costs one extra round
/// trip, not a wrong answer. The status exchange reports capacity next
/// to the eviction counter so thrash is visible.
pub const DEFAULT_PROGRAM_CACHE_CAPACITY: usize = 8;

/// The content-addressed LRU of job blocks a persistent worker serves
/// by-hash requests from. Caches the wire *bytes*, not opened jobs:
/// [`WireJob`]s are stateful (`run_unit` takes `&mut self`), so each
/// request opens its own job from the cached bytes — decode cost is
/// noise next to executing even one unit.
#[derive(Debug)]
struct ProgramCache {
    /// `(hash, job bytes)`, least recently used first.
    entries: Vec<(u64, Vec<u8>)>,
    /// Entries kept before the LRU victim is dropped (≥ 1).
    capacity: usize,
}

impl ProgramCache {
    /// An empty cache holding at most `capacity` programs (clamped to
    /// at least 1 — a worker that cannot cache the program it is
    /// currently running would need-program forever).
    fn with_capacity(capacity: usize) -> Self {
        ProgramCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached bytes for `hash`, refreshing its LRU slot.
    fn get(&mut self, hash: u64) -> Option<Vec<u8>> {
        let pos = self.entries.iter().position(|&(h, _)| h == hash)?;
        let entry = self.entries.remove(pos);
        let bytes = entry.1.clone();
        self.entries.push(entry);
        Some(bytes)
    }

    /// Inserts (or refreshes) an entry; returns `true` when a victim
    /// was evicted to make room.
    fn insert(&mut self, hash: u64, bytes: Vec<u8>) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(h, _)| h == hash) {
            let _ = self.entries.remove(pos);
            self.entries.push((hash, bytes));
            return false;
        }
        self.entries.push((hash, bytes));
        if self.entries.len() > self.capacity {
            let _ = self.entries.remove(0);
            return true;
        }
        false
    }
}

/// The persistent state of one worker: the program cache plus the
/// counters behind the status exchange. One per worker process, shared
/// by every connection of a `--serve` listener or by every request of a
/// stdio session.
#[derive(Debug)]
pub struct WorkerState {
    started: Instant,
    cache: Mutex<ProgramCache>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    requests_served: AtomicU64,
    units_served: AtomicU64,
    bytes_received: AtomicU64,
}

impl Default for WorkerState {
    fn default() -> Self {
        WorkerState::new()
    }
}

impl WorkerState {
    /// A fresh state with an empty default-capacity cache and zeroed
    /// counters.
    #[must_use]
    pub fn new() -> Self {
        WorkerState::with_cache_capacity(DEFAULT_PROGRAM_CACHE_CAPACITY)
    }

    /// A fresh state whose program cache holds at most `capacity`
    /// programs (clamped to ≥ 1).
    #[must_use]
    pub fn with_cache_capacity(capacity: usize) -> Self {
        WorkerState {
            started: Instant::now(),
            cache: Mutex::new(ProgramCache::with_capacity(capacity)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            units_served: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
        }
    }

    /// A point-in-time snapshot of the counters — the payload of the
    /// status exchange.
    #[must_use]
    pub fn status(&self) -> WorkerStatus {
        let cache = self.cache.lock().expect("no panics hold the lock");
        let (cache_entries, cache_capacity) = (cache.entries.len() as u64, cache.capacity as u64);
        drop(cache);
        WorkerStatus {
            uptime_ms: self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            cache_entries,
            cache_capacity,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            units_served: self.units_served.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }
}

/// One worker's self-reported counters, as returned by the status
/// exchange ([`crate::remote::query_status`], `steac-worker --status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStatus {
    /// Milliseconds since the worker state was created.
    pub uptime_ms: u64,
    /// Programs currently held by the cache.
    pub cache_entries: u64,
    /// Programs the cache can hold before evicting — reported next to
    /// the eviction counter so cache thrash under interleaved
    /// streaming workloads is visible from `--status`.
    pub cache_capacity: u64,
    /// By-hash requests served from the cache.
    pub cache_hits: u64,
    /// By-hash requests answered "need program".
    pub cache_misses: u64,
    /// Cache entries evicted to make room.
    pub cache_evictions: u64,
    /// Requests processed (run and status alike).
    pub requests_served: u64,
    /// Work units executed.
    pub units_served: u64,
    /// Request bytes received (after transport framing).
    pub bytes_received: u64,
}

impl fmt::Display for WorkerStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "up {:.1}s · programs cached {}/{} (hits {}, misses {}, evictions {}{}) · \
             requests {} · units {} · bytes received {}",
            self.uptime_ms as f64 / 1000.0,
            self.cache_entries,
            self.cache_capacity,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            // A full cache that has already evicted is thrashing:
            // every additional distinct program costs a round trip.
            if self.cache_evictions > 0 && self.cache_entries == self.cache_capacity {
                " — cache under pressure"
            } else {
                ""
            },
            self.requests_served,
            self.units_served,
            self.bytes_received,
        )
    }
}

/// One opened job inside a worker process: decoded shared state plus the
/// per-unit execution step. Implementations live next to their workloads
/// (`crate::models`, `steac-pattern`, `steac-membist`); the `steac-worker`
/// binary routes a request's `kind` to the right `open_wire_job`
/// constructor.
pub trait WireJob {
    /// Executes one serialized work unit and returns the serialized
    /// result.
    ///
    /// # Errors
    ///
    /// A human-readable diagnostic; the dispatcher attaches it to this
    /// unit's index.
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String>;
}

/// How a registry entry constructs its job from the job block.
pub type OpenJobFn = fn(&[u8]) -> Result<Box<dyn WireJob>, String>;

/// The worker-side job registry: one table mapping a request's `kind`
/// to the workload that opens it. Replaces the per-crate routing that
/// `src/bin/steac-worker.rs` used to hand-write — the root crate
/// registers every workload (`steac_suite::worker_registry`) and the
/// worker binary, tests and any future remote agent all route through
/// the same table.
#[derive(Debug, Default)]
pub struct JobRegistry {
    entries: Vec<(u16, &'static str, OpenJobFn)>,
}

impl JobRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Registers a workload under `kind` with a human-readable `name`
    /// (used in diagnostics).
    ///
    /// # Panics
    ///
    /// If `kind` is already registered — kinds are a global protocol
    /// namespace and a duplicate is a programming error.
    pub fn register(&mut self, kind: u16, name: &'static str, open: OpenJobFn) {
        assert!(
            !self.entries.iter().any(|&(k, ..)| k == kind),
            "work-unit kind {kind} registered twice ({name})"
        );
        self.entries.push((kind, name, open));
    }

    /// Opens the job registered under `kind` from its job block — the
    /// single routing point of the worker protocol.
    ///
    /// # Errors
    ///
    /// A diagnostic for unknown kinds or corrupt job bytes.
    pub fn open(&self, kind: u16, job: &[u8]) -> Result<Box<dyn WireJob>, String> {
        match self.entries.iter().find(|&&(k, ..)| k == kind) {
            Some(&(_, name, open)) => open(job).map_err(|e| format!("opening {name} job: {e}")),
            None => {
                let known: Vec<String> = self
                    .entries
                    .iter()
                    .map(|&(k, name, _)| format!("{k}={name}"))
                    .collect();
                Err(format!(
                    "unknown work-unit kind {kind} (known: {})",
                    known.join(", ")
                ))
            }
        }
    }

    /// The registered `(kind, name)` pairs, in registration order.
    pub fn kinds(&self) -> impl Iterator<Item = (u16, &'static str)> + '_ {
        self.entries.iter().map(|&(k, name, _)| (k, name))
    }
}

/// Locates the `steac-worker` binary: the `STEAC_WORKER_BIN` environment
/// variable if it names an existing file, else a `steac-worker` sitting
/// next to the current executable or one directory up (which covers
/// `target/<profile>/` binaries and `target/<profile>/deps/` test
/// executables). `None` means process dispatch is unavailable and a
/// `processes` spec falls back to the thread backend.
#[must_use]
pub fn default_worker_binary() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("STEAC_WORKER_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let mut candidates = vec![dir.join("steac-worker")];
    if let Some(parent) = dir.parent() {
        candidates.push(parent.join("steac-worker"));
    }
    candidates.into_iter().find(|c| c.is_file())
}

/// Encodes one run request. `job` is `Some(bytes)` to ship the program
/// inline (its FNV-1a hash must be `job_hash`) or `None` to reference
/// the worker's cache by `job_hash` alone.
pub(crate) fn encode_request(
    kind: u16,
    job: Option<&[u8]>,
    job_hash: u64,
    unit_indices: &[usize],
    units: &[Vec<u8>],
) -> Vec<u8> {
    let unit_bytes: usize = unit_indices.iter().map(|&idx| units[idx].len()).sum();
    let mut w = WireWriter::new();
    w.reserve(
        RUN_REQUEST_JOB_OFFSET
            + job.map_or(0, <[u8]>::len)
            + unit_bytes
            + 24 * unit_indices.len()
            + 8,
    );
    w.put_bytes(&REQUEST_MAGIC);
    w.put_u16(PROTOCOL_VERSION);
    w.put_u8(REQ_RUN);
    w.put_u16(kind);
    w.put_u64(job_hash);
    match job {
        Some(job) => {
            w.put_u8(1);
            w.put_block(job);
        }
        None => w.put_u8(0),
    }
    w.put_usize(unit_indices.len());
    for &idx in unit_indices {
        w.put_usize(idx);
        w.put_block(&units[idx]);
    }
    w.finish()
}

/// Encodes a status request.
pub(crate) fn encode_status_request() -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&REQUEST_MAGIC);
    w.put_u16(PROTOCOL_VERSION);
    w.put_u8(REQ_STATUS);
    w.finish()
}

fn encode_need_program(hash: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&RESPONSE_MAGIC);
    w.put_u16(PROTOCOL_VERSION);
    w.put_u8(REPLY_NEED_PROGRAM);
    w.put_u64(hash);
    w.finish()
}

fn encode_status_reply(status: &WorkerStatus) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&RESPONSE_MAGIC);
    w.put_u16(PROTOCOL_VERSION);
    w.put_u8(REPLY_STATUS);
    for field in [
        status.uptime_ms,
        status.cache_entries,
        status.cache_capacity,
        status.cache_hits,
        status.cache_misses,
        status.cache_evictions,
        status.requests_served,
        status.units_served,
        status.bytes_received,
    ] {
        w.put_u64(field);
    }
    w.finish()
}

/// One parsed worker response.
pub(crate) enum Reply {
    /// Per-unit results recovered so far, plus an optional description
    /// of where parsing stopped (protocol damage after that point).
    Results(Vec<(usize, Result<Vec<u8>, String>)>, Option<String>),
    /// The worker has no cached program under this hash; re-send the
    /// same units with the job inline.
    NeedProgram(u64),
    /// The worker's status counters.
    Status(WorkerStatus),
}

/// Parses one worker's response bytes. Damage anywhere — header,
/// unknown tag, malformed record — degrades to
/// [`Reply::Results`] carrying whatever was recovered plus the
/// diagnostic, so every caller handles damage through one path.
pub(crate) fn parse_reply(bytes: &[u8], unit_count: usize) -> Reply {
    let mut r = WireReader::new(bytes);
    let header = (|| {
        r.expect_magic(&RESPONSE_MAGIC, "response magic")?;
        r.expect_version(PROTOCOL_VERSION, "response version")?;
        r.get_u8("response tag")
    })();
    let tag = match header {
        Ok(tag) => tag,
        Err(e) => return Reply::Results(Vec::new(), Some(e.to_string())),
    };
    match tag {
        REPLY_RESULTS => {
            let mut items = Vec::new();
            while r.remaining() > 0 {
                let record = (|| {
                    let idx = r.get_usize("result unit index")?;
                    let status = r.get_u8("result status")?;
                    let payload = r.get_block("result payload")?.to_vec();
                    Ok::<_, crate::wire::WireError>((idx, status, payload))
                })();
                match record {
                    Ok((idx, status, payload)) if idx < unit_count => {
                        let result = if status == 0 {
                            Ok(payload)
                        } else {
                            Err(String::from_utf8_lossy(&payload).into_owned())
                        };
                        items.push((idx, result));
                    }
                    Ok((idx, ..)) => {
                        return Reply::Results(
                            items,
                            Some(format!("unit index {idx} out of range")),
                        )
                    }
                    Err(e) => return Reply::Results(items, Some(e.to_string())),
                }
            }
            Reply::Results(items, None)
        }
        REPLY_NEED_PROGRAM => {
            let hash = (|| {
                let hash = r.get_u64("needed program hash")?;
                r.finish()?;
                Ok::<_, crate::wire::WireError>(hash)
            })();
            match hash {
                Ok(hash) => Reply::NeedProgram(hash),
                Err(e) => Reply::Results(Vec::new(), Some(e.to_string())),
            }
        }
        REPLY_STATUS => {
            let status = (|| {
                let mut fields = [0u64; 9];
                for field in &mut fields {
                    *field = r.get_u64("status field")?;
                }
                r.finish()?;
                Ok::<_, crate::wire::WireError>(WorkerStatus {
                    uptime_ms: fields[0],
                    cache_entries: fields[1],
                    cache_capacity: fields[2],
                    cache_hits: fields[3],
                    cache_misses: fields[4],
                    cache_evictions: fields[5],
                    requests_served: fields[6],
                    units_served: fields[7],
                    bytes_received: fields[8],
                })
            })();
            match status {
                Ok(status) => Reply::Status(status),
                Err(e) => Reply::Results(Vec::new(), Some(e.to_string())),
            }
        }
        other => Reply::Results(Vec::new(), Some(format!("unknown response tag {other}"))),
    }
}

/// The transport-independent worker core: parses one already-delivered
/// request against persistent `state`, opens the job via `open` (handed
/// the request's `kind` and job bytes — inline from the request, or
/// served from the program cache on a by-hash reference), executes
/// every unit in order, and returns the serialized response.
/// [`crate::remote::serve_session`] — the frame loop behind the stdio
/// worker and every `--serve` connection — is the one shell around this
/// function, so every transport executes requests identically.
///
/// Three non-fatal outcomes still produce a well-formed response:
///
/// * a by-hash request missing the cache returns "need program"
///   (counted as a miss) — the dispatcher re-ships the job inline;
/// * an inline job whose bytes do not match the declared hash makes
///   every unit report the mismatch — a corrupted program fails
///   deterministically, it never runs;
/// * a job that fails to open (unknown kind, corrupt job bytes) makes
///   every unit report the open diagnostic.
///
/// # Errors
///
/// A diagnostic when the request itself is unreadable (truncated bytes,
/// bad magic, version mismatch, unknown tag).
pub fn process_request_with<F>(data: &[u8], open: F, state: &WorkerState) -> Result<Vec<u8>, String>
where
    F: FnOnce(u16, &[u8]) -> Result<Box<dyn WireJob>, String>,
{
    state
        .bytes_received
        .fetch_add(data.len() as u64, Ordering::Relaxed);
    state.requests_served.fetch_add(1, Ordering::Relaxed);
    let mut r = WireReader::new(data);
    let header = (|| {
        r.expect_magic(&REQUEST_MAGIC, "request magic")?;
        r.expect_version(PROTOCOL_VERSION, "request version")?;
        r.get_u8("request tag")
    })();
    let tag = header.map_err(|e| e.to_string())?;
    if tag == REQ_STATUS {
        r.finish().map_err(|e| e.to_string())?;
        return Ok(encode_status_reply(&state.status()));
    }
    if tag != REQ_RUN {
        return Err(format!("unknown request tag {tag}"));
    }
    let run_header = (|| {
        let kind = r.get_u16("job kind")?;
        let hash = r.get_u64("job hash")?;
        let present = r.get_u8("job present flag")?;
        Ok::<_, crate::wire::WireError>((kind, hash, present))
    })();
    let (kind, hash, present) = run_header.map_err(|e| e.to_string())?;
    let mut hash_error = None;
    let cached: Vec<u8>;
    let job: &[u8] = match present {
        1 => {
            let job = r.get_block("job payload").map_err(|e| e.to_string())?;
            let computed = fnv1a64(job);
            if computed == hash {
                let evicted = state
                    .cache
                    .lock()
                    .expect("no panics hold the lock")
                    .insert(hash, job.to_vec());
                if evicted {
                    state.cache_evictions.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                hash_error = Some(format!(
                    "program hash mismatch: declared {hash:#018x}, computed {computed:#018x} \
                     over {} job bytes",
                    job.len()
                ));
            }
            job
        }
        0 => {
            let hit = state
                .cache
                .lock()
                .expect("no panics hold the lock")
                .get(hash);
            match hit {
                Some(bytes) => {
                    state.cache_hits.fetch_add(1, Ordering::Relaxed);
                    cached = bytes;
                    &cached
                }
                None => {
                    state.cache_misses.fetch_add(1, Ordering::Relaxed);
                    return Ok(encode_need_program(hash));
                }
            }
        }
        other => return Err(format!("bad job-present flag {other}")),
    };
    let count = r.get_usize("unit count").map_err(|e| e.to_string())?;
    let mut handler = match hash_error {
        Some(e) => Err(e),
        None => open(kind, job),
    };

    let mut w = WireWriter::new();
    w.put_bytes(&RESPONSE_MAGIC);
    w.put_u16(PROTOCOL_VERSION);
    w.put_u8(REPLY_RESULTS);
    for _ in 0..count {
        let unit = (|| {
            let idx = r.get_usize("unit index")?;
            let unit = r.get_block("unit payload")?;
            Ok::<_, crate::wire::WireError>((idx, unit))
        })();
        let (idx, unit) = unit.map_err(|e| e.to_string())?;
        let result = match &mut handler {
            Ok(job) => job.run_unit(unit),
            Err(e) => Err(e.clone()),
        };
        w.put_usize(idx);
        match result {
            Ok(bytes) => {
                w.put_u8(0);
                w.put_block(&bytes);
            }
            Err(diagnostic) => {
                w.put_u8(1);
                w.put_block(diagnostic.as_bytes());
            }
        }
    }
    r.finish().map_err(|e| e.to_string())?;
    state
        .units_served
        .fetch_add(count as u64, Ordering::Relaxed);
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::mask_set_bit;

    /// A mask survives the wire; any other length is a diagnostic.
    #[test]
    fn lane_mask_codec_round_trips_and_checks_length() {
        let mask = [1, u64::MAX, 0, 1 << 63];
        let bytes = encode_lane_mask(&mask);
        assert_eq!(bytes.len(), 32);
        assert_eq!(decode_lane_mask(&bytes), Ok(mask));
        assert!(decode_lane_mask(&bytes[..31]).is_err());
        assert!(decode_lane_mask(&[&bytes[..], &[0]].concat()).is_err());
    }

    /// Flags walk each pass's lanes from `first_lane` across word
    /// boundaries, pass after pass, and stop at the item count.
    #[test]
    fn flags_follow_lanes_in_list_order() {
        let mut a = [0u64; DEFAULT_LANE_GROUPS];
        for lane in [1, 64, 255] {
            mask_set_bit(&mut a, lane);
        }
        let b = [u64::MAX; DEFAULT_LANE_GROUPS];
        let flags = flags_from_lane_masks(257, 255, 1, &[a, b]);
        let hits: Vec<usize> = (0..flags.len()).filter(|&i| flags[i]).collect();
        assert_eq!(hits, [0, 63, 254, 255, 256]);
        assert_eq!(flags_from_lane_masks(3, 256, 0, &[a]), [false, true, false]);
    }

    #[test]
    fn threads_resolution_and_clamping() {
        assert_eq!(Threads::exact(0).get(), 1);
        assert_eq!(Threads::exact(7).get(), 7);
        assert_eq!(Threads::single().get(), 1);
        assert!(Threads::auto().get() >= 1);
    }

    struct EchoJob;
    impl WireJob for EchoJob {
        fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
            Ok(unit.to_vec())
        }
    }

    fn open_echo(_job: &[u8]) -> Result<Box<dyn WireJob>, String> {
        Ok(Box::new(EchoJob))
    }

    fn open_broken(job: &[u8]) -> Result<Box<dyn WireJob>, String> {
        Err(format!("{} bad bytes", job.len()))
    }

    #[test]
    fn job_registry_routes_by_kind() {
        let mut reg = JobRegistry::new();
        reg.register(7, "echo", open_echo);
        reg.register(8, "broken", open_broken);
        assert_eq!(
            reg.kinds().collect::<Vec<_>>(),
            [(7, "echo"), (8, "broken")]
        );
        let Ok(mut job) = reg.open(7, b"ignored") else {
            panic!("echo job should open");
        };
        assert_eq!(job.run_unit(b"abc").unwrap(), b"abc");
        let Err(err) = reg.open(8, b"xy") else {
            panic!("broken job should not open");
        };
        assert!(err.contains("opening broken job: 2 bad bytes"), "{err}");
        let Err(err) = reg.open(9, b"") else {
            panic!("unknown kind should not open");
        };
        assert!(err.contains("unknown work-unit kind 9"), "{err}");
        assert!(err.contains("7=echo"), "{err}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn job_registry_rejects_duplicate_kinds() {
        let mut reg = JobRegistry::new();
        reg.register(7, "echo", open_echo);
        reg.register(7, "echo2", open_echo);
    }

    // ---------- protocol v3: cache, hash verification, status ----------

    /// The kind-routing shape `process_request_with` expects (the registry
    /// adds the kind itself; here we take both).
    fn open_any(_kind: u16, _job: &[u8]) -> Result<Box<dyn WireJob>, String> {
        Ok(Box::new(EchoJob))
    }

    fn unit_list(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("u{i}").into_bytes()).collect()
    }

    fn run_results(reply: &[u8], count: usize) -> Vec<(usize, Result<Vec<u8>, String>)> {
        match parse_reply(reply, count) {
            Reply::Results(items, None) => items,
            Reply::Results(_, Some(e)) => panic!("damaged reply: {e}"),
            _ => panic!("expected results"),
        }
    }

    #[test]
    fn by_hash_request_misses_then_hits_a_persistent_cache() {
        let state = WorkerState::new();
        let units = unit_list(3);
        let job = b"the job bytes";
        let hash = fnv1a64(job);

        // Cold cache: by-hash draws "need program", nothing runs.
        let req = encode_request(7, None, hash, &[0, 1, 2], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        assert!(matches!(parse_reply(&reply, 3), Reply::NeedProgram(h) if h == hash));
        assert_eq!(state.status().cache_misses, 1);
        assert_eq!(state.status().units_served, 0);

        // Inline ship: runs, and primes the cache.
        let req = encode_request(7, Some(job), hash, &[0, 1, 2], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        assert_eq!(run_results(&reply, 3).len(), 3);
        assert_eq!(state.status().cache_entries, 1);

        // Warm cache: by-hash now runs without the job bytes.
        let req = encode_request(7, None, hash, &[1], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        let items = run_results(&reply, 3);
        assert_eq!(items, vec![(1, Ok(b"u1".to_vec()))]);
        let status = state.status();
        assert_eq!(status.cache_hits, 1);
        assert_eq!(status.cache_misses, 1);
        assert_eq!(status.units_served, 4);
        assert_eq!(status.requests_served, 3);
        assert!(status.bytes_received > 0);
    }

    #[test]
    fn hash_mismatch_fails_every_unit_and_never_caches() {
        let state = WorkerState::new();
        let units = unit_list(2);
        let job = b"honest bytes";
        let wrong = fnv1a64(job) ^ 0xdead_beef;
        let req = encode_request(7, Some(job), wrong, &[0, 1], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        let items = run_results(&reply, 2);
        assert_eq!(items.len(), 2);
        for (_, result) in items {
            let e = result.unwrap_err();
            assert!(e.contains("program hash mismatch"), "{e}");
        }
        // The poisoned program must not have entered the cache.
        assert_eq!(state.status().cache_entries, 0);
        let req = encode_request(7, None, wrong, &[0], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        assert!(matches!(parse_reply(&reply, 2), Reply::NeedProgram(_)));
    }

    #[test]
    fn program_cache_evicts_least_recently_used() {
        let state = WorkerState::new();
        let units = unit_list(1);
        let jobs: Vec<Vec<u8>> = (0..=DEFAULT_PROGRAM_CACHE_CAPACITY)
            .map(|i| format!("job {i}").into_bytes())
            .collect();
        for job in &jobs {
            let req = encode_request(7, Some(job), fnv1a64(job), &[0], &units);
            let _ = process_request_with(&req, open_any, &state).unwrap();
        }
        let status = state.status();
        assert_eq!(status.cache_entries, DEFAULT_PROGRAM_CACHE_CAPACITY as u64);
        assert_eq!(status.cache_capacity, DEFAULT_PROGRAM_CACHE_CAPACITY as u64);
        assert_eq!(status.cache_evictions, 1);
        // A full cache that has evicted reads as thrash in --status.
        assert!(status.to_string().contains("cache under pressure"));
        // The first program was the victim; the last is still warm.
        let req = encode_request(7, None, fnv1a64(&jobs[0]), &[0], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        assert!(matches!(parse_reply(&reply, 1), Reply::NeedProgram(_)));
        let req = encode_request(7, None, fnv1a64(jobs.last().unwrap()), &[0], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        assert_eq!(run_results(&reply, 1).len(), 1);
    }

    #[test]
    fn program_cache_capacity_is_configurable() {
        // A widened cache keeps every program an interleaved workload
        // mix ships; the default-capacity state above would have
        // evicted. Capacity 0 clamps to 1 so the running program
        // always fits.
        let state = WorkerState::with_cache_capacity(32);
        let units = unit_list(1);
        let jobs: Vec<Vec<u8>> = (0..=DEFAULT_PROGRAM_CACHE_CAPACITY)
            .map(|i| format!("job {i}").into_bytes())
            .collect();
        for job in &jobs {
            let req = encode_request(7, Some(job), fnv1a64(job), &[0], &units);
            let _ = process_request_with(&req, open_any, &state).unwrap();
        }
        let status = state.status();
        assert_eq!(status.cache_entries, jobs.len() as u64);
        assert_eq!(status.cache_capacity, 32);
        assert_eq!(status.cache_evictions, 0);
        assert!(!status.to_string().contains("cache under pressure"));
        // The oldest program is still warm — no need-program round trip.
        let req = encode_request(7, None, fnv1a64(&jobs[0]), &[0], &units);
        let reply = process_request_with(&req, open_any, &state).unwrap();
        assert_eq!(run_results(&reply, 1).len(), 1);

        assert_eq!(
            WorkerState::with_cache_capacity(0).status().cache_capacity,
            1
        );
    }

    #[test]
    fn status_exchange_round_trips() {
        let state = WorkerState::new();
        let reply = process_request_with(&encode_status_request(), open_any, &state).unwrap();
        match parse_reply(&reply, 0) {
            Reply::Status(status) => {
                assert_eq!(status.requests_served, 1);
                assert_eq!(status.units_served, 0);
                assert!(status.bytes_received >= 7);
                // The Display form is the `--status` output; smoke it.
                assert!(status.to_string().contains("requests 1"));
            }
            _ => panic!("expected a status reply"),
        }
    }

    #[test]
    fn inline_job_bytes_start_at_the_documented_offset() {
        let units = unit_list(1);
        let job = b"locate me";
        let req = encode_request(7, Some(job), fnv1a64(job), &[0], &units);
        assert_eq!(
            &req[RUN_REQUEST_JOB_OFFSET..RUN_REQUEST_JOB_OFFSET + job.len()],
            job
        );
    }
}
