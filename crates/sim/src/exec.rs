//! The unified execution-backend API: one `&Exec` value selects *how*
//! a batched workload runs — serially, across in-process threads,
//! across `steac-worker` processes, or across a fleet of remote
//! `steac-worker` hosts — while the workload code stays identical.
//!
//! Every batched workload in the platform (PPSFP fault grading, batched
//! ATE playback, March fault simulation, JPEG pattern playback)
//! decomposes into independent work units over shared immutable state.
//! Before this module each workload exposed a family of near-identical
//! entry points (`_with`, `_processes`, `_with_pool`, env sniffing in
//! the default); now each exposes exactly one, taking [`&Exec`](Exec):
//!
//! ```text
//! fault::grade_vectors(&exec, …)
//! fault::fault_coverage(&exec, …)
//! cycle::apply_cycle_patterns_batch(&exec, …)
//! membist::faultsim::fault_coverage(&exec, …)
//! dsc::verify::jpeg_playback_batch(&exec, …)
//! ```
//!
//! A workload describes itself to the dispatcher once, as an
//! [`ExecWork`] — how to run a unit in-process, and how to serialize
//! the job/units and decode results for process (and, later, remote)
//! transports. [`Exec::dispatch`] then owns the one merge-by-unit-index
//! determinism contract for every backend: unit `i`'s result (or the
//! lowest-indexed unit's error) is identical no matter which backend
//! ran it or how execution interleaved. [`Backend::Processes`] and
//! [`Backend::Remote`] are that seam paying off: the same wire bytes
//! ship through one work-stealing [`RemoteFleet`] over a pluggable
//! [`crate::remote::Transport`] — persistent local `steac-worker`
//! children, or TCP to `steac-worker --serve` listeners on other
//! machines — and no workload crate changed to gain either.
//!
//! Flows whose unit list is *produced* rather than materialized — the
//! streaming generate→play pipeline — use the sibling seam: a
//! [`StreamWork`] pulls owned units from an iterator (typically a
//! bounded channel fed by a generator thread) and
//! [`Exec::dispatch_stream`] plays them through the same backends under
//! the same determinism contract, holding only a bounded window of
//! units in flight so peak memory follows pipeline depth, not stream
//! length.
//!
//! # Fallback policy
//!
//! Shipped dispatch — processes or remote hosts — can fail for reasons
//! that have nothing to do with the workload (worker binary missing,
//! spawn failure, a worker dying, every remote host lost). The
//! [`Fallback`] policy makes the response explicit instead of
//! per-callsite folklore:
//!
//! * [`Fallback::InThread`] (the default): recompute the whole run on
//!   the in-thread pool. The fallback is **surfaced**, not silent — it
//!   is logged to stderr, counted on the `Exec`
//!   ([`Exec::process_fallbacks`]), and returned to the caller in
//!   [`Dispatch::fallback`] so reports can carry it.
//! * [`Fallback::Fail`]: surface the failure as the workload's typed
//!   error (deterministically the lowest-indexed affected unit).
//!
//! (Transient remote trouble is retried *inside* the fleet first; the
//! policy only decides what a run that could not be completed remotely
//! means. See [`crate::remote`] for the retry/requeue model.)
//!
//! # Environment resolution
//!
//! [`Exec::from_env`] reads one knob, `STEAC_EXEC` ([`Exec::parse`]
//! grammar; a malformed spec panics), and is [`Exec::auto`] without it.

use crate::remote::{ProcessTransport, RemoteFleet, Transport};
use crate::shard::{self, PoolError, Threads};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Where work units physically execute. `#[non_exhaustive]` so further
/// rungs can be added without breaking any workload crate — exactly how
/// [`Backend::Remote`] arrived after `Processes`.
#[derive(Debug)]
#[non_exhaustive]
pub enum Backend {
    /// Every unit runs inline on the calling thread, in unit order.
    Serial,
    /// Units fan across a `std::thread::scope` pool ([`shard::run_units`]).
    Threads(Threads),
    /// Units serialize to a fleet of persistent local `steac-worker`
    /// children, one stdio session each
    /// ([`crate::remote::ProcessTransport`]), through the same
    /// [`RemoteFleet`] as [`Backend::Remote`].
    Processes(RemoteFleet),
    /// Units serialize to `steac-worker` hosts behind pluggable
    /// transports ([`crate::remote`]), typically TCP to
    /// `steac-worker --serve` listeners on other machines — with
    /// work-stealing and retry/requeue across the fleet.
    Remote(RemoteFleet),
}

/// What [`Exec::dispatch`] does when shipped dispatch — the process
/// *or* remote backend — fails (spawn failure, a worker dying, a remote
/// host lost with retries exhausted, malformed results): the explicit
/// replacement for the per-callsite behaviour the `_processes` variants
/// used to hard-code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// Recompute in-process, logging and counting the fallback (see
    /// [`Exec::process_fallbacks`] and [`Dispatch::fallback`]). The
    /// run still produces exactly the result the in-thread pool would
    /// have produced — never a silently different one.
    #[default]
    InThread,
    /// Surface the failure as the workload's typed error, attributed to
    /// the lowest-indexed affected unit.
    Fail,
}

/// A rejected `STEAC_EXEC` backend spec — what was
/// supplied and why it does not parse. [`Exec::from_env`] turns this
/// into a panic so a misconfigured deployment cannot silently run a
/// different backend than it asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    spec: String,
    reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid exec spec `{}`: {}; expected serial | auto | threads[:N] | processes[:N] \
             | remote:host:port[,host:port...]",
            self.spec, self.reason
        )
    }
}

impl std::error::Error for SpecError {}

/// A single execution-backend value: backend + failure policy. Shared
/// by reference across workload calls; the only interior state is the
/// process-fallback counter.
#[derive(Debug)]
pub struct Exec {
    backend: Backend,
    on_process_failure: Fallback,
    fallbacks: AtomicUsize,
}

/// The outcome of a successful [`Exec::dispatch`]: per-unit results in
/// unit order, plus the fallback diagnostic when process dispatch
/// failed and the run was recomputed in-thread.
#[derive(Debug)]
pub struct Dispatch<T> {
    /// One result per work unit, merged **by unit index**.
    pub units: Vec<T>,
    /// `Some(diagnostic)` when the run fell back from processes to the
    /// in-thread pool under [`Fallback::InThread`]; `None` otherwise.
    pub fallback: Option<String>,
}

/// The outcome of a successful [`Exec::dispatch_stream`]: how many
/// outputs reached the sink, plus fallback accounting. A streaming run
/// ships many batches, so unlike [`Dispatch`] it can fall back more
/// than once.
#[derive(Debug)]
pub struct StreamDispatch {
    /// Outputs delivered to the sink, in unit order.
    pub units: usize,
    /// `Some(first diagnostic)` when any shipped batch fell back to the
    /// in-thread pull loop under [`Fallback::InThread`]; `None`
    /// otherwise.
    pub fallback: Option<String>,
    /// Number of shipped batches recomputed in-thread.
    pub fallbacks: usize,
}

impl StreamDispatch {
    fn clean(units: usize) -> Self {
        StreamDispatch {
            units,
            fallback: None,
            fallbacks: 0,
        }
    }

    /// Number of per-batch in-thread fallbacks this streaming dispatch
    /// folded in — the per-call count reports fold into their totals.
    #[must_use]
    pub fn fallback_count(&self) -> usize {
        self.fallbacks
    }
}

/// A batch of independent work units that every backend can execute:
/// in-process via [`ExecWork::run_unit_local`], or serialized to
/// `steac-worker` processes (and, later, remote hosts) via the
/// `kind`/`encode_*`/`decode_result` half, which must agree with the
/// worker-side [`shard::WireJob`] registered for the same `kind`.
///
/// Implementations live next to their workloads (`crate::models`,
/// `steac-pattern`, `steac-membist`); [`Exec::dispatch`] is the only
/// consumer.
pub trait ExecWork: Sync {
    /// Per-unit result.
    type Output: Send;
    /// Workload error type.
    type Error: Send;

    /// Work-unit kind routed by the worker-side job registry.
    fn kind(&self) -> u16;

    /// Number of independent work units.
    fn unit_count(&self) -> usize;

    /// Serializes the shared job block (shipped once per worker). Only
    /// called for process-backed dispatch.
    fn encode_job(&self) -> Vec<u8>;

    /// Serializes one work unit. Only called for process-backed
    /// dispatch.
    fn encode_unit(&self, unit: usize) -> Vec<u8>;

    /// Executes one unit in-process — the exact code the worker binary
    /// runs for the same unit, so dispatch flavour can never change a
    /// result.
    ///
    /// # Errors
    ///
    /// The workload's typed error for this unit.
    fn run_unit_local(&self, unit: usize) -> Result<Self::Output, Self::Error>;

    /// Decodes one worker result payload.
    ///
    /// # Errors
    ///
    /// A diagnostic for malformed payloads; the dispatcher treats it as
    /// a process-level failure of that unit (subject to the fallback
    /// policy).
    fn decode_result(&self, unit: usize, bytes: &[u8]) -> Result<Self::Output, String>;

    /// Wraps a fleet failure in the workload's error type (used
    /// under [`Fallback::Fail`]).
    fn pool_error(&self, error: PoolError) -> Self::Error;
}

/// Units a streaming dispatcher pulls from the producer per shipped
/// batch (process / remote backends). This bounds in-flight memory: at
/// most `dispatchers × STREAM_BATCH_UNITS` owned units (plus their
/// encoded wire bytes) sit between the producer and the wire at any
/// moment, independent of how many units the stream eventually yields.
pub const STREAM_BATCH_UNITS: usize = 32;

/// The producer-driven sibling of [`ExecWork`]: a workload whose units
/// are **owned values pulled from an iterator** (typically the
/// receiving end of a bounded channel fed by a generator thread)
/// rather than indices into a materialized batch.
/// [`Exec::dispatch_stream`] is the only consumer; the wire half must
/// agree with the same worker-side [`shard::WireJob`] kind as the
/// materialized path, so a worker cannot tell the flavours apart — and
/// the program cache dedupes both by the same job hash.
pub trait StreamWork: Sync {
    /// One owned work unit (`Sync` because the in-process pool fans a
    /// pulled window across threads by reference).
    type Unit: Send + Sync;
    /// Per-unit result.
    type Output: Send;
    /// Workload error type.
    type Error: Send;

    /// Work-unit kind routed by the worker-side job registry.
    fn kind(&self) -> u16;

    /// Serializes the shared job block. It is encoded once for the
    /// whole stream: every shipped batch reuses it, and the worker
    /// program cache dedupes the batches on its hash.
    fn encode_job(&self) -> Vec<u8>;

    /// Serializes one work unit for the wire.
    fn encode_unit(&self, unit: &Self::Unit) -> Vec<u8>;

    /// Executes one unit in-process — the exact code the worker binary
    /// runs for the same unit, so dispatch flavour can never change a
    /// result.
    ///
    /// # Errors
    ///
    /// The workload's typed error for this unit.
    fn run_unit_local(&self, unit: &Self::Unit) -> Result<Self::Output, Self::Error>;

    /// Decodes one worker result payload for `unit`.
    ///
    /// # Errors
    ///
    /// A diagnostic for malformed payloads; the dispatcher treats it as
    /// a shipped-level failure of that unit (subject to the fallback
    /// policy).
    fn decode_result(&self, unit: &Self::Unit, bytes: &[u8]) -> Result<Self::Output, String>;

    /// Wraps a pool/fleet failure in the workload's error type (used
    /// under [`Fallback::Fail`]).
    fn pool_error(&self, error: PoolError) -> Self::Error;
}

impl Exec {
    /// Serial backend: every unit runs inline, in unit order.
    #[must_use]
    pub fn serial() -> Self {
        Exec::with_backend(Backend::Serial)
    }

    /// In-process thread-pool backend of the given width.
    #[must_use]
    pub fn threads(threads: Threads) -> Self {
        Exec::with_backend(Backend::Threads(threads))
    }

    /// Process backend: a [`RemoteFleet`] of `workers` (≥ 1) persistent
    /// `binary` children, each behind a [`ProcessTransport`] that spawns
    /// it on first use.
    #[must_use]
    pub fn processes(binary: &Path, workers: usize) -> Self {
        let hosts = (0..workers.max(1))
            .map(|_| Box::new(ProcessTransport::new(binary.to_path_buf())) as Box<dyn Transport>)
            .collect();
        Exec::with_backend(Backend::Processes(RemoteFleet::new(hosts)))
    }

    /// Remote backend over a fleet of transport-connected `steac-worker`
    /// hosts ([`RemoteFleet`]) — machine-level fan-out with
    /// work-stealing and retry/requeue, same determinism contract.
    #[must_use]
    pub fn remote(fleet: RemoteFleet) -> Self {
        Exec::with_backend(Backend::Remote(fleet))
    }

    /// Thread backend over the detected core count (ignores the
    /// environment).
    #[must_use]
    pub fn auto() -> Self {
        Exec::threads(Threads::auto())
    }

    /// The deployment-level backend: the `STEAC_EXEC` spec, or
    /// [`Exec::auto`] when it is unset.
    ///
    /// Malformed specs are **loud**: a deployment that sets
    /// `STEAC_EXEC=threads:0` (or any other spec [`Exec::parse`]
    /// rejects) asked for a backend it is not getting, and silently
    /// running a default instead would invalidate whatever that run was
    /// measuring — so this panics with the parse diagnostic instead.
    /// The one tolerated degradation is environmental, not syntactic: a
    /// well-formed `processes` spec whose worker binary cannot be found
    /// falls back to threads with a warning on stderr.
    ///
    /// A variable that is set but blank (`STEAC_EXEC= cmd`, an empty CI
    /// yaml value) counts as unset — blanking a variable is the shell
    /// idiom for "without this knob", not a malformed spec.
    ///
    /// # Panics
    ///
    /// When `STEAC_EXEC` is non-blank but does not parse.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("STEAC_EXEC") {
            Ok(spec) if !spec.trim().is_empty() => {
                Exec::parse(&spec).unwrap_or_else(|e| panic!("steac exec: STEAC_EXEC: {e}"))
            }
            _ => Exec::auto(),
        }
    }

    /// Parses a `STEAC_EXEC`-style backend spec:
    ///
    /// * `serial` | `auto`
    /// * `threads[:N]` | `processes[:N]` (`N` > 0; bare forms use the
    ///   detected core count) — `processes:N` is [`Exec::processes`]
    ///   over the discovered worker binary
    /// * `remote:host:port[,host:port…]` — a [`RemoteFleet`] of
    ///   [`crate::remote::TcpTransport`]s, one per address
    ///
    /// Anything else is a typed [`SpecError`] naming what was wrong —
    /// never a silently substituted backend. One environmental (not
    /// syntactic) degradation remains: a well-formed `processes` spec
    /// whose worker binary cannot be found falls back to the thread
    /// backend with a warning, so a binary-less environment still runs.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] describing the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let raw = spec;
        let err = |reason: String| SpecError {
            spec: raw.to_string(),
            reason,
        };
        let spec = spec.trim();
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h.trim(), Some(a.trim())),
            None => (spec, None),
        };
        let width = |arg: Option<&str>| -> Result<Option<usize>, SpecError> {
            match arg {
                None => Ok(None),
                Some(s) => match s.parse::<usize>() {
                    Ok(n) if n > 0 => Ok(Some(n)),
                    _ => Err(err(format!(
                        "worker count must be a positive integer, got `{s}`"
                    ))),
                },
            }
        };
        match head {
            "serial" | "auto" if arg.is_some() => Err(err(format!("`{head}` takes no `:` suffix"))),
            "serial" => Ok(Exec::serial()),
            "auto" => Ok(Exec::auto()),
            "threads" => Ok(Exec::threads(match width(arg)? {
                Some(n) => Threads::exact(n),
                None => Threads::auto(),
            })),
            "processes" => {
                let workers = width(arg)?.unwrap_or_else(|| Threads::auto().get());
                Ok(match shard::default_worker_binary() {
                    Some(binary) => Exec::processes(&binary, workers),
                    None => {
                        eprintln!(
                            "steac exec: `{spec}` requested but no steac-worker binary found; \
                             using the thread backend"
                        );
                        Exec::auto()
                    }
                })
            }
            "remote" => {
                let Some(list) = arg.filter(|a| !a.is_empty()) else {
                    return Err(err(
                        "`remote` needs a comma-separated host:port list".to_string()
                    ));
                };
                let mut addrs = Vec::new();
                for entry in list.split(',') {
                    let entry = entry.trim();
                    let valid = entry.rsplit_once(':').is_some_and(|(host, port)| {
                        !host.is_empty() && port.parse::<u16>().is_ok()
                    });
                    if !valid {
                        return Err(err(format!("`{entry}` is not a host:port address")));
                    }
                    addrs.push(entry.to_string());
                }
                Ok(Exec::remote(
                    RemoteFleet::tcp(addrs).expect("host list verified non-empty"),
                ))
            }
            _ => Err(err(format!("unknown backend `{head}`"))),
        }
    }

    fn with_backend(backend: Backend) -> Self {
        Exec {
            backend,
            on_process_failure: Fallback::default(),
            fallbacks: AtomicUsize::new(0),
        }
    }

    /// Sets the process-failure policy (builder style; the default is
    /// [`Fallback::InThread`]).
    #[must_use]
    pub fn with_fallback(mut self, policy: Fallback) -> Self {
        self.on_process_failure = policy;
        self
    }

    /// The configured backend.
    #[must_use]
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The configured process-failure policy.
    #[must_use]
    pub fn on_process_failure(&self) -> Fallback {
        self.on_process_failure
    }

    /// Configured fan-out width: 1 for serial, the thread count, or the
    /// fleet's host count — worker children or remote hosts (runs
    /// additionally cap it at the unit count).
    #[must_use]
    pub fn width(&self) -> usize {
        match &self.backend {
            Backend::Serial => 1,
            Backend::Threads(t) => t.get(),
            Backend::Processes(fleet) | Backend::Remote(fleet) => fleet.hosts(),
        }
    }

    /// The in-process worker count this backend implies — what
    /// [`Exec::run_units`] / [`Exec::run_fallible`] use, and what
    /// shipped dispatch falls back to under [`Fallback::InThread`].
    /// `Serial` pins it to 1; `Processes` and `Remote` use
    /// [`Threads::auto`] for their local compute.
    #[must_use]
    pub fn local_threads(&self) -> Threads {
        match &self.backend {
            Backend::Serial => Threads::single(),
            Backend::Threads(t) => *t,
            Backend::Processes(_) | Backend::Remote(_) => Threads::auto(),
        }
    }

    /// How many times process dispatch on this `Exec` has fallen back
    /// to the in-thread pool (only ever nonzero under
    /// [`Fallback::InThread`]). Reports fold the per-call count in; this
    /// is the running total across calls.
    #[must_use]
    pub fn process_fallbacks(&self) -> usize {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Runs `work(0..unit_count)` on the backend's **in-process** pool
    /// and returns results in unit order — for workloads (or workload
    /// phases, like pattern generation) whose closures cannot cross a
    /// process boundary. `Serial` runs inline; `Processes` uses the
    /// local thread width ([`Exec::local_threads`]).
    pub fn run_units<T, F>(&self, unit_count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        shard::run_units(self.local_threads(), unit_count, work)
    }

    /// [`Exec::run_units`] for fallible work: all results in unit
    /// order, or the error of the lowest-indexed failing unit.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing unit.
    pub fn run_fallible<T, E, F>(&self, unit_count: usize, work: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        shard::run_fallible(self.local_threads(), unit_count, work)
    }

    /// Executes an [`ExecWork`] on the configured backend and merges
    /// the per-unit results **by unit index** — the single dispatch
    /// seam every workload entry point routes through, so the
    /// determinism contract (unit-order results, lowest-indexed-unit
    /// errors, bit-identical reports across backends) lives in exactly
    /// one place.
    ///
    /// # Errors
    ///
    /// The workload error of the lowest-indexed failing unit; under
    /// [`Fallback::Fail`], also the wrapped fleet failure.
    pub fn dispatch<W: ExecWork>(&self, work: &W) -> Result<Dispatch<W::Output>, W::Error> {
        let count = work.unit_count();
        let local =
            |threads: Threads| shard::run_fallible(threads, count, |i| work.run_unit_local(i));
        let fleet = match &self.backend {
            Backend::Serial => return Ok(Dispatch::clean(local(Threads::single())?)),
            Backend::Threads(t) => return Ok(Dispatch::clean(local(*t)?)),
            Backend::Processes(fleet) | Backend::Remote(fleet) => fleet,
        };
        if count == 0 {
            return Ok(Dispatch::clean(Vec::new()));
        }
        let job = work.encode_job();
        let units: Vec<Vec<u8>> = (0..count).map(|i| work.encode_unit(i)).collect();
        let failure = match fleet.run(work.kind(), &job, &units) {
            Ok(results) => {
                let mut decoded = Vec::with_capacity(count);
                let mut bad = None;
                for (unit, bytes) in results.iter().enumerate() {
                    match work.decode_result(unit, bytes) {
                        Ok(v) => decoded.push(v),
                        Err(diagnostic) => {
                            bad = Some(PoolError::Unit { unit, diagnostic });
                            break;
                        }
                    }
                }
                match bad {
                    None => return Ok(Dispatch::clean(decoded)),
                    Some(failure) => failure,
                }
            }
            Err(failure) => failure,
        };
        match self.on_process_failure {
            Fallback::Fail => Err(work.pool_error(failure)),
            Fallback::InThread => {
                let diagnostic = failure.to_string();
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "steac exec: {self} dispatch failed ({diagnostic}); \
                     recomputing on the in-thread pool"
                );
                Ok(Dispatch {
                    units: local(self.local_threads())?,
                    fallback: Some(diagnostic),
                })
            }
        }
    }

    /// Executes a [`StreamWork`] over units pulled from `units` as they
    /// become available, delivering outputs to `sink` **strictly in
    /// unit order** — the streaming sibling of [`Exec::dispatch`], for
    /// flows whose unit list is produced incrementally (a generator
    /// thread feeding a bounded channel) instead of materialized up
    /// front.
    ///
    /// Memory stays bounded by pipeline depth, never by stream length:
    /// the serial and thread backends pull a window of `4 × threads`
    /// units at a time; the process and remote backends pull
    /// [`STREAM_BATCH_UNITS`]-unit batches on two dispatcher threads and
    /// a merge loop re-orders finished batches back into unit order.
    /// Both reuse the in-flight window and content-addressed program
    /// cache of [`crate::remote`]: concurrent batches of the same job
    /// still ship the program to each host exactly once (the host-level
    /// prime gate), and every later batch goes by hash.
    ///
    /// Determinism contract: on success the sink sees exactly the
    /// outputs the materialized path would have produced, in unit
    /// order, regardless of backend, batch boundaries, or interleaving.
    /// On error the sink has seen an in-order prefix of those outputs
    /// (a backend may withhold outputs from the failing unit's own
    /// window or batch) and the error is the lowest-indexed failing
    /// unit's.
    ///
    /// # Errors
    ///
    /// The workload error of the lowest-indexed failing unit; under
    /// [`Fallback::Fail`], also the wrapped pool/fleet failure.
    pub fn dispatch_stream<W, I, S>(
        &self,
        work: &W,
        units: I,
        sink: S,
    ) -> Result<StreamDispatch, W::Error>
    where
        W: StreamWork,
        I: Iterator<Item = W::Unit> + Send,
        S: FnMut(W::Output),
    {
        match &self.backend {
            Backend::Serial | Backend::Threads(_) => {
                self.stream_local(work, units, sink, self.local_threads())
            }
            Backend::Processes(fleet) | Backend::Remote(fleet) => {
                self.stream_shipped(fleet, work, units, sink)
            }
        }
    }

    /// Serial/thread streaming: pull a bounded window off the producer,
    /// fan it across the in-process pool ([`shard::run_fallible`] — the
    /// same lowest-index error rule as materialized dispatch), sink it
    /// in order, repeat.
    fn stream_local<W, I, S>(
        &self,
        work: &W,
        mut units: I,
        mut sink: S,
        threads: Threads,
    ) -> Result<StreamDispatch, W::Error>
    where
        W: StreamWork,
        I: Iterator<Item = W::Unit>,
        S: FnMut(W::Output),
    {
        let window = threads.get() * 4;
        let mut delivered = 0usize;
        loop {
            let batch: Vec<W::Unit> = units.by_ref().take(window).collect();
            if batch.is_empty() {
                return Ok(StreamDispatch::clean(delivered));
            }
            let outputs =
                shard::run_fallible(threads, batch.len(), |i| work.run_unit_local(&batch[i]))?;
            for output in outputs {
                sink(output);
                delivered += 1;
            }
        }
    }

    /// Process/remote streaming: dispatcher threads pull bounded
    /// batches off the shared producer and ship each one through the
    /// fleet as a sub-run of the same job, while a merge loop on the
    /// calling thread re-orders finished batches back into unit order
    /// before sinking. In-flight state is bounded by the dispatcher
    /// count and the result-channel depth — never by the stream length.
    fn stream_shipped<W, I, S>(
        &self,
        fleet: &RemoteFleet,
        work: &W,
        units: I,
        mut sink: S,
    ) -> Result<StreamDispatch, W::Error>
    where
        W: StreamWork,
        I: Iterator<Item = W::Unit> + Send,
        S: FnMut(W::Output),
    {
        struct Feed<I> {
            units: I,
            next_seq: usize,
        }
        // Two dispatchers keep the fleet's pipeline full: one batch on
        // the wire while the next is pulled and encoded.
        let dispatchers = 2;
        let kind = work.kind();
        let job = work.encode_job();
        let feed = Mutex::new(Feed { units, next_seq: 0 });
        let abort = AtomicBool::new(false);
        let (tx, rx) = mpsc::sync_channel(dispatchers * 2);
        std::thread::scope(|scope| {
            for _ in 0..dispatchers {
                let tx = tx.clone();
                let (feed, abort, job) = (&feed, &abort, &job);
                scope.spawn(move || {
                    while !abort.load(Ordering::Relaxed) {
                        let (start, batch) = {
                            let mut feed = feed.lock().expect("no panics hold the lock");
                            let start = feed.next_seq;
                            let batch: Vec<W::Unit> =
                                feed.units.by_ref().take(STREAM_BATCH_UNITS).collect();
                            feed.next_seq += batch.len();
                            (start, batch)
                        };
                        if batch.is_empty() {
                            break;
                        }
                        let done = self.ship_stream_batch(fleet, work, kind, job, start, &batch);
                        if done.is_err() {
                            // Terminal under Fallback::Fail: stop pulling.
                            abort.store(true, Ordering::Relaxed);
                        }
                        if tx.send((start, batch.len(), done)).is_err() {
                            break; // the merge loop saw an earlier error
                        }
                    }
                });
            }
            drop(tx);
            let mut pending = BTreeMap::new();
            let mut head = 0usize;
            let mut delivered = 0usize;
            let mut fallbacks = 0usize;
            let mut fallback: Option<String> = None;
            let mut error: Option<W::Error> = None;
            'merge: for (start, len, done) in rx {
                pending.insert(start, (len, done));
                while let Some((len, done)) = pending.remove(&head) {
                    match done {
                        Ok((results, diagnostic)) => {
                            head += len;
                            if let Some(diagnostic) = diagnostic {
                                fallbacks += 1;
                                fallback.get_or_insert(diagnostic);
                            }
                            for result in results {
                                match result {
                                    Ok(output) => {
                                        sink(output);
                                        delivered += 1;
                                    }
                                    Err(e) => {
                                        error = Some(e);
                                        abort.store(true, Ordering::Relaxed);
                                        break 'merge;
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            error = Some(e);
                            break 'merge;
                        }
                    }
                }
            }
            match error {
                Some(e) => Err(e),
                None => Ok(StreamDispatch {
                    units: delivered,
                    fallback,
                    fallbacks,
                }),
            }
        })
    }

    /// Ships one streamed batch (units `start..start + batch.len()`)
    /// through the fleet and decodes it, applying the fallback
    /// policy per batch: `Ok` carries per-unit results in batch order
    /// (recomputed in-thread under [`Fallback::InThread`], with the
    /// diagnostic), `Err` is terminal under [`Fallback::Fail`].
    #[allow(clippy::type_complexity)]
    fn ship_stream_batch<W: StreamWork>(
        &self,
        fleet: &RemoteFleet,
        work: &W,
        kind: u16,
        job: &[u8],
        start: usize,
        batch: &[W::Unit],
    ) -> Result<(Vec<Result<W::Output, W::Error>>, Option<String>), W::Error> {
        let encoded: Vec<Vec<u8>> = batch.iter().map(|u| work.encode_unit(u)).collect();
        let failure = match fleet.run(kind, job, &encoded) {
            Ok(results) => {
                let mut decoded = Vec::with_capacity(batch.len());
                let mut bad = None;
                for (offset, (unit, bytes)) in batch.iter().zip(&results).enumerate() {
                    match work.decode_result(unit, bytes) {
                        Ok(v) => decoded.push(Ok(v)),
                        Err(diagnostic) => {
                            bad = Some(PoolError::Unit {
                                unit: start + offset,
                                diagnostic,
                            });
                            break;
                        }
                    }
                }
                match bad {
                    None => return Ok((decoded, None)),
                    Some(failure) => failure,
                }
            }
            // Re-key unit-level failures from batch-local to stream
            // indices so diagnostics name the true unit.
            Err(PoolError::Unit { unit, diagnostic }) => PoolError::Unit {
                unit: start + unit,
                diagnostic,
            },
        };
        match self.on_process_failure {
            Fallback::Fail => Err(work.pool_error(failure)),
            Fallback::InThread => {
                let diagnostic = failure.to_string();
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "steac exec: {self} stream dispatch failed ({diagnostic}); \
                     recomputing the batch in-thread"
                );
                let recomputed = batch.iter().map(|u| work.run_unit_local(u)).collect();
                Ok((recomputed, Some(diagnostic)))
            }
        }
    }
}

impl<T> Dispatch<T> {
    fn clean(units: Vec<T>) -> Self {
        Dispatch {
            units,
            fallback: None,
        }
    }

    /// 1 when this dispatch fell back from processes to the in-thread
    /// pool, else 0 — the per-call count reports fold in.
    #[must_use]
    pub fn fallback_count(&self) -> usize {
        usize::from(self.fallback.is_some())
    }
}

impl Default for Exec {
    fn default() -> Self {
        Exec::from_env()
    }
}

impl fmt::Display for Exec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.backend {
            Backend::Serial => f.write_str("serial"),
            Backend::Threads(t) => write!(f, "threads:{}", t.get()),
            Backend::Processes(fleet) => write!(f, "processes:{}", fleet.hosts()),
            Backend::Remote(fleet) => write!(f, "remote:{}", fleet.endpoints().join(",")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process backend whose worker binary does not exist.
    fn bogus(workers: usize) -> Exec {
        Exec::processes(Path::new("/nonexistent/steac-worker"), workers)
    }

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        assert_eq!(Exec::parse("serial").unwrap().to_string(), "serial");
        assert_eq!(Exec::parse(" threads:3 ").unwrap().to_string(), "threads:3");
        assert!(matches!(
            Exec::parse("auto").unwrap().backend(),
            Backend::Threads(_)
        ));
        assert!(Exec::parse("threads").is_ok());
        let remote = Exec::parse("remote:127.0.0.1:7601, 127.0.0.1:7602").unwrap();
        assert!(matches!(remote.backend(), Backend::Remote(f) if f.hosts() == 2));
        assert_eq!(
            remote.to_string(),
            "remote:127.0.0.1:7601,127.0.0.1:7602",
            "display round-trips the spec grammar"
        );
        assert_eq!(Exec::parse("remote:jpeg-farm-01:9000").unwrap().width(), 1);
    }

    /// Every malformed spec is a typed `SpecError` naming the offending
    /// spec — the loud-parse contract `from_env` panics with.
    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "",
            "serial:2",
            "auto:4",
            "threads:0",
            "threads:x",
            "threads:",
            "processes:0",
            "processes:",
            "processes:-1",
            "ssh:2",
            "remote",
            "remote:",
            "remote:,",
            "remote:hostonly",
            "remote:127.0.0.1:notaport",
            "remote::7601",
            "remote:127.0.0.1:7601,,127.0.0.1:7602",
        ] {
            let err = Exec::parse(bad).expect_err(&format!("`{bad}` should not parse"));
            assert!(err.to_string().contains("invalid exec spec"), "{err}");
            assert!(
                err.to_string().contains(&format!("`{bad}`")) || bad.is_empty(),
                "diagnostic names the spec: {err}"
            );
        }
    }

    #[test]
    fn widths_and_local_threads_follow_the_backend() {
        let serial = Exec::serial();
        assert_eq!(serial.width(), 1);
        assert_eq!(serial.local_threads().get(), 1);
        let threads = Exec::threads(Threads::exact(5));
        assert_eq!(threads.width(), 5);
        assert_eq!(threads.local_threads().get(), 5);
        let procs = bogus(3);
        assert_eq!(procs.width(), 3);
        assert!(procs.local_threads().get() >= 1);
        assert_eq!(procs.to_string(), "processes:3");
    }

    #[test]
    fn in_process_dispatch_is_unit_ordered_on_every_backend() {
        let expected: Vec<usize> = (0..50).map(|i| i * 3).collect();
        for exec in [
            Exec::serial(),
            Exec::threads(Threads::exact(1)),
            Exec::threads(Threads::exact(4)),
        ] {
            assert_eq!(exec.run_units(50, |i| i * 3), expected, "{exec}");
            let fallible: Result<Vec<usize>, usize> = exec.run_fallible(50, Ok);
            assert_eq!(fallible.unwrap().len(), 50, "{exec}");
        }
    }

    /// A minimal ExecWork that squares its unit index; the process
    /// backend has no real worker for it, which exercises both
    /// fallback policies.
    struct Squares(usize);

    impl ExecWork for Squares {
        type Output = usize;
        type Error = String;

        fn kind(&self) -> u16 {
            9999
        }
        fn unit_count(&self) -> usize {
            self.0
        }
        fn encode_job(&self) -> Vec<u8> {
            Vec::new()
        }
        fn encode_unit(&self, unit: usize) -> Vec<u8> {
            vec![unit as u8]
        }
        fn run_unit_local(&self, unit: usize) -> Result<usize, String> {
            Ok(unit * unit)
        }
        fn decode_result(&self, _unit: usize, _bytes: &[u8]) -> Result<usize, String> {
            Err("no decoder in this test".to_string())
        }
        fn pool_error(&self, error: PoolError) -> String {
            error.to_string()
        }
    }

    #[test]
    fn dispatch_merges_by_unit_index_on_in_process_backends() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for exec in [Exec::serial(), Exec::threads(Threads::exact(4))] {
            let d = exec.dispatch(&Squares(97)).unwrap();
            assert_eq!(d.units, expected, "{exec}");
            assert!(d.fallback.is_none());
            assert_eq!(d.fallback_count(), 0);
        }
    }

    #[test]
    fn process_failure_honours_the_fallback_policy() {
        let forgiving = bogus(2);
        let d = forgiving.dispatch(&Squares(10)).unwrap();
        assert_eq!(d.units, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert!(d.fallback.is_some(), "fallback must be surfaced");
        assert_eq!(d.fallback_count(), 1);
        assert_eq!(forgiving.process_fallbacks(), 1);

        let strict = bogus(2).with_fallback(Fallback::Fail);
        let err = strict.dispatch(&Squares(10)).unwrap_err();
        assert!(err.contains("work unit 0"), "{err}");
        assert!(err.contains("/nonexistent/steac-worker"), "{err}");
        assert_eq!(strict.process_fallbacks(), 0);
    }

    /// A fleet whose only host is unreachable: the Remote arm must obey
    /// the same `Fallback` policy as the process arm, through the same
    /// dispatch seam.
    #[test]
    fn remote_failure_honours_the_fallback_policy() {
        // Bind-then-drop to get a localhost port with no listener.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let dead_fleet = || {
            crate::remote::RemoteFleet::tcp([addr.clone()])
                .unwrap()
                .with_max_retries(0)
        };
        let forgiving = Exec::remote(dead_fleet());
        let d = forgiving.dispatch(&Squares(10)).unwrap();
        assert_eq!(d.units, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert!(d.fallback.is_some(), "fallback must be surfaced");
        assert_eq!(forgiving.process_fallbacks(), 1);

        let strict = Exec::remote(dead_fleet()).with_fallback(Fallback::Fail);
        let err = strict.dispatch(&Squares(10)).unwrap_err();
        assert!(err.contains("work unit 0"), "{err}");
        assert_eq!(strict.process_fallbacks(), 0);
    }

    #[test]
    fn empty_dispatch_never_touches_the_pool() {
        let exec = bogus(2).with_fallback(Fallback::Fail);
        let d = exec.dispatch(&Squares(0)).unwrap();
        assert!(d.units.is_empty());
        assert!(d.fallback.is_none());
    }

    /// Streaming sibling of `Squares`: owned `usize` units, squared;
    /// `usize::MAX` poisons the local path for error-order tests.
    struct SquareStream;

    impl StreamWork for SquareStream {
        type Unit = usize;
        type Output = usize;
        type Error = String;

        fn kind(&self) -> u16 {
            9999
        }
        fn encode_job(&self) -> Vec<u8> {
            Vec::new()
        }
        fn encode_unit(&self, unit: &usize) -> Vec<u8> {
            vec![*unit as u8]
        }
        fn run_unit_local(&self, unit: &usize) -> Result<usize, String> {
            if *unit == usize::MAX {
                return Err("poisoned unit".to_string());
            }
            Ok(unit * unit)
        }
        fn decode_result(&self, _unit: &usize, _bytes: &[u8]) -> Result<usize, String> {
            Err("no decoder in this test".to_string())
        }
        fn pool_error(&self, error: PoolError) -> String {
            error.to_string()
        }
    }

    #[test]
    fn stream_dispatch_sinks_in_unit_order_on_in_process_backends() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for exec in [
            Exec::serial(),
            Exec::threads(Threads::exact(1)),
            Exec::threads(Threads::exact(4)),
        ] {
            let mut got = Vec::new();
            let d = exec
                .dispatch_stream(&SquareStream, 0..97, |o| got.push(o))
                .unwrap();
            assert_eq!(got, expected, "{exec}");
            assert_eq!(d.units, 97, "{exec}");
            assert!(d.fallback.is_none());
            assert_eq!(d.fallback_count(), 0);
        }
    }

    #[test]
    fn stream_dispatch_surfaces_the_lowest_indexed_unit_error() {
        for exec in [Exec::serial(), Exec::threads(Threads::exact(4))] {
            let units = (0..40).map(|i| if i >= 17 { usize::MAX } else { i });
            let mut got = Vec::new();
            let err = exec
                .dispatch_stream(&SquareStream, units, |o| got.push(o))
                .unwrap_err();
            assert_eq!(err, "poisoned unit", "{exec}");
            assert!(got.len() <= 17, "{exec}: sink saw past the failing unit");
            assert_eq!(
                got,
                (0..got.len()).map(|i| i * i).collect::<Vec<_>>(),
                "{exec}: delivered prefix must be in unit order"
            );
        }
    }

    #[test]
    fn stream_dispatch_honours_the_fallback_policy_on_shipped_backends() {
        // No real worker binary: every shipped batch fails. InThread
        // recomputes per batch (so the count tracks batches), Fail
        // surfaces the wrapped fleet error.
        let forgiving = bogus(2);
        let mut got = Vec::new();
        let d = forgiving
            .dispatch_stream(&SquareStream, 0..100, |o| got.push(o))
            .unwrap();
        assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(d.units, 100);
        assert!(d.fallback.is_some(), "fallback must be surfaced");
        assert_eq!(d.fallback_count(), 100usize.div_ceil(STREAM_BATCH_UNITS));
        assert_eq!(forgiving.process_fallbacks(), d.fallback_count());

        let strict = bogus(2).with_fallback(Fallback::Fail);
        let err = strict
            .dispatch_stream(&SquareStream, 0..100, |_| {})
            .unwrap_err();
        assert!(err.contains("/nonexistent/steac-worker"), "{err}");
        assert_eq!(strict.process_fallbacks(), 0);
    }

    #[test]
    fn empty_stream_never_touches_the_pool() {
        let exec = bogus(2).with_fallback(Fallback::Fail);
        let d = exec
            .dispatch_stream(&SquareStream, std::iter::empty(), |_: usize| {})
            .unwrap();
        assert_eq!(d.units, 0);
        assert!(d.fallback.is_none());
    }
}
