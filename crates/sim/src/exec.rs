//! The unified execution-backend API: one `&Exec` value selects *how*
//! a batched workload runs — serially, across in-process threads,
//! across `steac-worker` processes, or across a fleet of remote
//! `steac-worker` hosts — while the workload code stays identical.
//!
//! Every batched workload in the platform (PPSFP fault grading, fault
//! dictionaries and diagnosis, ATE playback, March fault simulation,
//! JPEG pattern generation and playback) decomposes into independent
//! work units over shared immutable state. Each exposes exactly one
//! entry point taking [`&Exec`](Exec):
//!
//! ```text
//! fault::grade_vectors(&exec, …)
//! cycle::apply_cycle_patterns_batch(&exec, …)
//! cycle::stream_cycle_patterns(&exec, …)
//! membist::faultsim::fault_coverage(&exec, …)
//! dsc::verify::jpeg_playback_stream(&exec, …)
//! ```
//!
//! There is no in-process escape hatch: every workload is an
//! [`ExecWork`], so every backend can ship it, and no second pool puts
//! results in order next to [`Exec::dispatch`].
//!
//! # One trait, one dispatcher
//!
//! A workload describes itself once, as an [`ExecWork`]: its unit type,
//! how to run a unit in-process, and how to serialize the job and a
//! unit and decode a result for the worker protocol. [`Exec::dispatch`]
//! is the one consumer. It pulls units from any iterator — a
//! materialized batch passes its chunk iterator, a generate→play
//! pipeline the receiving end of a bounded channel — and hands every
//! output to a sink **strictly in unit order**. Unit `i`'s output (or
//! the lowest-indexed unit's error) is identical no matter which
//! backend ran it or how execution interleaved.
//!
//! The pipeline shape is fixed by the backend, with no option:
//!
//! * `Serial` and `Threads(1)` run inline on the calling thread, one
//!   unit at a time.
//! * `Threads(t)`, `t > 1`, runs `t` dispatcher threads with one unit
//!   per batch.
//! * [`Backend::Processes`] and [`Backend::Remote`] run two dispatcher
//!   threads per host stream — `2 × Σ streams` in all, summing
//!   [`crate::remote::Transport::streams`] over the [`RemoteFleet`]'s
//!   hosts — with [`STREAM_BATCH_UNITS`] units per batch. Each
//!   dispatcher is homed on one host (in fleet order, each host
//!   repeated `2 × streams` times) and ships every batch it pulls as
//!   **one** run request, to its home host while that is live, failing
//!   over otherwise. The hosts are persistent local `steac-worker`
//!   children, or TCP to `steac-worker --serve` listeners. This is the
//!   only scheduler of shipped work: the fleet chooses hosts, primes
//!   their program caches and retries, but never re-cuts a batch. The
//!   job is encoded when the first batch ships, and the fleet's
//!   per-host prime gate ships it once per host however many batches
//!   race. Host loss lasts for the dispatch call that saw it.
//!
//! Dispatcher threads pull batches from the input under one lock, and
//! the calling thread merges finished batches back into unit order
//! before sinking. **In-flight memory is bounded by the pipeline, never
//! by the input:** a dispatcher waits while the input is
//! `2 × dispatchers` batches ahead of the sink — 4 units on
//! `threads:2`, `128 × Σ streams` when shipped (128 for one
//! single-stream host, 256 on `processes:2`) — so one stalled batch
//! cannot let the others drain the input into the reorder buffer.
//!
//! # Fallback policy
//!
//! Shipped batches can fail for reasons that have nothing to do with
//! the workload (worker binary missing, a worker dying, every remote
//! host lost). The [`Fallback`] policy decides, per batch:
//!
//! * [`Fallback::InThread`] (the default): recompute the batch on the
//!   calling dispatcher. The fallback is **surfaced**, not silent — it
//!   is logged to stderr, counted on the `Exec`
//!   ([`Exec::process_fallbacks`]) and in [`Dispatch::fallbacks`], and
//!   the first diagnostic is kept in [`Dispatch::fallback`], so reports
//!   can carry it.
//! * [`Fallback::Fail`]: surface the failure as the workload's typed
//!   error (deterministically the lowest-indexed affected unit).
//!
//! (Transient remote trouble is retried *inside* the fleet first, on
//! the batch's dispatcher; the policy only decides what a batch that
//! could not be completed remotely means. See [`crate::remote`] for the
//! failover model.)
//!
//! # Environment resolution
//!
//! [`Exec::from_env`] reads one knob, `STEAC_EXEC` ([`Exec::parse`]
//! grammar; a malformed spec panics), and is [`Exec::auto`] without it.

use crate::remote::{ProcessTransport, RemoteFleet, Shipper, Transport};
use crate::shard::{self, PoolError, Threads};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock, PoisonError};

/// Where work units physically execute. `#[non_exhaustive]` so further
/// rungs can be added without breaking any workload crate — exactly how
/// [`Backend::Remote`] arrived after `Processes`.
#[derive(Debug)]
#[non_exhaustive]
pub enum Backend {
    /// Every unit runs inline on the calling thread, in unit order.
    Serial,
    /// Units fan across scoped dispatcher threads, one per configured
    /// thread (inline at width 1).
    Threads(Threads),
    /// Units serialize to a fleet of persistent local `steac-worker`
    /// children, one stdio session each
    /// ([`crate::remote::ProcessTransport`]), through the same
    /// [`RemoteFleet`] as [`Backend::Remote`].
    Processes(RemoteFleet),
    /// Units serialize to `steac-worker` hosts behind pluggable
    /// transports ([`crate::remote`]), typically TCP to
    /// `steac-worker --serve` listeners on other machines — with
    /// failover and retries across the fleet.
    Remote(RemoteFleet),
}

/// What [`Exec::dispatch`] does when a shipped batch — on the process
/// *or* remote backend — fails (spawn failure, a worker dying, a remote
/// host lost with retries exhausted, malformed results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// Recompute the batch in-process, logging and counting the
    /// fallback (see [`Exec::process_fallbacks`] and
    /// [`Dispatch::fallbacks`]). The run still produces exactly the
    /// result an in-process run would have produced — never a silently
    /// different one.
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

/// The outcome of a successful [`Exec::dispatch`]: how many outputs
/// reached the sink, plus fallback accounting.
#[derive(Debug, Default)]
pub struct Dispatch {
    /// Outputs delivered to the sink, in unit order.
    pub units: usize,
    /// `Some(first diagnostic)` when any shipped batch fell back to an
    /// in-process recompute under [`Fallback::InThread`]; `None`
    /// otherwise.
    pub fallback: Option<String>,
    /// Shipped batches recomputed in-process — the per-call count
    /// reports fold in (up to ⌈units / [`STREAM_BATCH_UNITS`]⌉).
    pub fallbacks: usize,
}

/// Units per shipped batch (process and remote backends): each batch is
/// one run request. With two dispatchers per host stream and a window
/// of two batches per dispatcher, at most `4 × STREAM_BATCH_UNITS` units
/// per stream (plus their encoded bytes) sit between the input and the
/// sink at any moment.
pub const STREAM_BATCH_UNITS: usize = 32;

/// A workload every backend can execute: in-process via
/// [`ExecWork::run_unit_local`], or serialized to `steac-worker`
/// processes and remote hosts via the `kind`/`encode_*`/`decode_result`
/// half, which must agree with the worker-side [`shard::WireJob`]
/// registered for the same `kind`.
///
/// Implementations live next to their workloads (`crate::models`,
/// `steac-pattern`, `steac-membist`); [`Exec::dispatch`] is the only
/// consumer.
pub trait ExecWork: Sync {
    /// One work unit, pulled from the dispatch input (`Sync` because
    /// dispatcher threads run units by reference).
    type Unit: Send + Sync;
    /// Per-unit result.
    type Output: Send;
    /// Workload error type.
    type Error: Send;

    /// Work-unit kind routed by the worker-side job registry.
    fn kind(&self) -> u16;

    /// Serializes the shared job block. Encoded at most once per
    /// dispatch, when the first shipped batch needs it; every batch
    /// reuses it, and the worker program cache dedupes them by its hash.
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

    /// Wraps a fleet failure in the workload's error type (used under
    /// [`Fallback::Fail`]).
    fn pool_error(&self, error: PoolError) -> Self::Error;
}

/// One finished batch: per-unit results in batch order, plus the
/// fallback diagnostic when it was recomputed in-process.
type Batch<W> = (
    Vec<Result<<W as ExecWork>::Output, <W as ExecWork>::Error>>,
    Option<String>,
);

/// The pipeline's shared input: the unit iterator plus how many
/// batches and units have been pulled from it.
struct Feed<I> {
    units: I,
    batches: usize,
    pulled: usize,
}

/// The in-flight gate: batches sunk so far, and whether the run has
/// stopped. It has its own lock so the merge loop never waits on a
/// dispatcher blocked inside the input iterator.
struct Gate {
    sunk: usize,
    abort: bool,
}

/// Runs its closure when dropped.
struct OnDrop<F: Fn()>(F);

impl<F: Fn()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
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
    /// hosts ([`RemoteFleet`]) — machine-level fan-out with failover and
    /// retries, same determinism contract.
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
    /// fleet's host count — worker children or remote hosts.
    #[must_use]
    pub fn width(&self) -> usize {
        match &self.backend {
            Backend::Serial => 1,
            Backend::Threads(t) => t.get(),
            Backend::Processes(fleet) | Backend::Remote(fleet) => fleet.hosts(),
        }
    }

    /// How many shipped batches on this `Exec` have fallen back to an
    /// in-process recompute (only ever nonzero under
    /// [`Fallback::InThread`]). Reports fold the per-call count in; this
    /// is the running total across calls.
    #[must_use]
    pub fn process_fallbacks(&self) -> usize {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Executes an [`ExecWork`] over the units pulled from `units`,
    /// delivering every output to `sink` **strictly in unit order** —
    /// the single dispatch seam every workload entry point routes
    /// through, so the determinism contract and the fallback decision
    /// live in exactly one place. See the module docs for the pipeline
    /// each backend runs and its in-flight bound.
    ///
    /// On success the sink has seen every output, exactly as a serial
    /// run would produce them, regardless of backend, batch boundaries
    /// or interleaving. On error the sink has seen an in-order prefix
    /// (a batch's outputs are withheld from its first failing unit on),
    /// and the error is the lowest-indexed failing unit's. An empty
    /// input encodes nothing and never touches the fleet.
    ///
    /// # Errors
    ///
    /// The workload error of the lowest-indexed failing unit; under
    /// [`Fallback::Fail`], also the wrapped fleet failure.
    pub fn dispatch<W, I, S>(&self, work: &W, units: I, mut sink: S) -> Result<Dispatch, W::Error>
    where
        W: ExecWork,
        I: IntoIterator<Item = W::Unit>,
        I::IntoIter: Send,
        S: FnMut(W::Output),
    {
        // One home host per dispatcher (unused in-process).
        let (homes, batch_units, shipper) = match &self.backend {
            Backend::Processes(fleet) | Backend::Remote(fleet) => {
                let homes = (0..fleet.hosts())
                    .flat_map(|host| vec![host; 2 * fleet.streams(host)])
                    .collect();
                (homes, STREAM_BATCH_UNITS, Some(fleet.shipper()))
            }
            Backend::Threads(t) if t.get() > 1 => (vec![0; t.get()], 1, None),
            Backend::Serial | Backend::Threads(_) => {
                let mut done = Dispatch::default();
                for unit in units {
                    sink(work.run_unit_local(&unit)?);
                    done.units += 1;
                }
                return Ok(done);
            }
        };
        let window = 2 * homes.len();
        let feed = Mutex::new(Feed {
            units: units.into_iter().fuse(),
            batches: 0,
            pulled: 0,
        });
        let gate = Mutex::new(Gate {
            sunk: 0,
            abort: false,
        });
        let wake = Condvar::new();
        // Every exit — the input drained, an error, a panic — stops
        // the pipeline, so no dispatcher waits on the gate forever.
        let stop = || {
            gate.lock().unwrap_or_else(PoisonError::into_inner).abort = true;
            wake.notify_all();
        };
        let job = OnceLock::new();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, Batch<W>)>();
            for &home in &homes {
                let tx = tx.clone();
                let (feed, gate, wake, stop, job) = (&feed, &gate, &wake, &stop, &job);
                let shipper = shipper.as_ref();
                scope.spawn(move || {
                    let _stop = OnDrop(stop);
                    loop {
                        let (seq, start, batch) = {
                            let mut feed = feed.lock().expect("no panics hold the lock");
                            let mut open = gate.lock().expect("no panics hold the lock");
                            while !open.abort && feed.batches >= open.sunk + window {
                                open = wake.wait(open).expect("no panics hold the lock");
                            }
                            if open.abort {
                                return;
                            }
                            drop(open);
                            let batch: Vec<W::Unit> =
                                feed.units.by_ref().take(batch_units).collect();
                            let (seq, start) = (feed.batches, feed.pulled);
                            feed.batches += 1;
                            feed.pulled += batch.len();
                            (seq, start, batch)
                        };
                        if batch.is_empty() {
                            return;
                        }
                        let done = match shipper {
                            Some(shipper) => {
                                self.ship_batch(shipper, home, work, job, start, &batch)
                            }
                            None => (batch.iter().map(|u| work.run_unit_local(u)).collect(), None),
                        };
                        // After an error every later batch is moot; after a
                        // failed send the merge loop has already returned.
                        let failed = done.0.iter().any(Result::is_err);
                        if tx.send((seq, done)).is_err() || failed {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            let _stop = OnDrop(&stop);
            let mut pending = BTreeMap::new();
            let mut out = Dispatch::default();
            let mut head = 0usize;
            for (seq, done) in rx {
                pending.insert(seq, done);
                while let Some((results, diagnostic)) = pending.remove(&head) {
                    if let Some(diagnostic) = diagnostic {
                        out.fallbacks += 1;
                        out.fallback.get_or_insert(diagnostic);
                    }
                    for result in results {
                        match result {
                            Ok(output) => {
                                sink(output);
                                out.units += 1;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    head += 1;
                    gate.lock().expect("no panics hold the lock").sunk = head;
                    wake.notify_all();
                }
            }
            Ok(out)
        })
    }

    /// Ships one batch (units `start..start + batch.len()`) as one run
    /// request from host `home` on, and decodes it, applying the
    /// fallback policy: under [`Fallback::InThread`] a failed batch is
    /// recomputed in-process and carries the diagnostic; under
    /// [`Fallback::Fail`] it is the single wrapped error.
    fn ship_batch<W: ExecWork>(
        &self,
        shipper: &Shipper,
        home: usize,
        work: &W,
        job: &OnceLock<Vec<u8>>,
        start: usize,
        batch: &[W::Unit],
    ) -> Batch<W> {
        let encoded: Vec<Vec<u8>> = batch.iter().map(|u| work.encode_unit(u)).collect();
        let job = job.get_or_init(|| work.encode_job());
        let failure = 'failed: {
            match shipper.ship(home, work.kind(), job, &encoded) {
                Ok(results) => {
                    let mut outputs = Vec::with_capacity(batch.len());
                    for (offset, (unit, bytes)) in batch.iter().zip(&results).enumerate() {
                        match work.decode_result(unit, bytes) {
                            Ok(output) => outputs.push(Ok(output)),
                            Err(diagnostic) => {
                                break 'failed PoolError::Unit {
                                    unit: start + offset,
                                    diagnostic,
                                }
                            }
                        }
                    }
                    return (outputs, None);
                }
                // Re-key from batch-local to input indices so
                // diagnostics name the true unit.
                Err(PoolError::Unit { unit, diagnostic }) => PoolError::Unit {
                    unit: start + unit,
                    diagnostic,
                },
            }
        };
        match self.on_process_failure {
            Fallback::Fail => (vec![Err(work.pool_error(failure))], None),
            Fallback::InThread => {
                let diagnostic = failure.to_string();
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "steac exec: {self} dispatch failed ({diagnostic}); \
                     recomputing the batch in-thread"
                );
                let recomputed = batch.iter().map(|u| work.run_unit_local(u)).collect();
                (recomputed, Some(diagnostic))
            }
        }
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
    use crate::remote::TransportError;
    use std::sync::Arc;
    use std::time::Duration;

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
    fn widths_follow_the_backend() {
        assert_eq!(Exec::serial().width(), 1);
        assert_eq!(Exec::threads(Threads::exact(5)).width(), 5);
        let procs = bogus(3);
        assert_eq!(procs.width(), 3);
        assert_eq!(procs.to_string(), "processes:3");
    }

    /// A minimal work over `usize` units: squares them in-process, and
    /// on the wire ships the unit's bytes and squares the echo.
    /// `usize::MAX` poisons the local path for error-order tests; the
    /// fields stall unit 0 and forbid encoding the job.
    #[derive(Default)]
    struct Squares {
        stall: Duration,
        jobless: bool,
    }

    impl ExecWork for Squares {
        type Unit = usize;
        type Output = usize;
        type Error = String;

        fn kind(&self) -> u16 {
            9999
        }
        fn encode_job(&self) -> Vec<u8> {
            assert!(!self.jobless, "this input must encode no job");
            Vec::new()
        }
        fn encode_unit(&self, unit: &usize) -> Vec<u8> {
            unit.to_le_bytes().to_vec()
        }
        fn run_unit_local(&self, unit: &usize) -> Result<usize, String> {
            if *unit == 0 {
                std::thread::sleep(self.stall);
            }
            if *unit == usize::MAX {
                return Err("poisoned unit".to_string());
            }
            Ok(unit * unit)
        }
        fn decode_result(&self, _unit: &usize, bytes: &[u8]) -> Result<usize, String> {
            let echoed: [u8; 8] = bytes.try_into().map_err(|_| "not a usize".to_string())?;
            let unit = usize::from_le_bytes(echoed);
            Ok(unit * unit)
        }
        fn pool_error(&self, error: PoolError) -> String {
            error.to_string()
        }
    }

    /// Dispatches `0..n` and checks every output arrives in unit order.
    fn squares(exec: &Exec, work: &Squares, n: usize) -> Dispatch {
        let mut got = Vec::new();
        let d = exec.dispatch(work, 0..n, |o| got.push(o)).unwrap();
        assert_eq!(got, (0..n).map(|i| i * i).collect::<Vec<_>>(), "{exec}");
        assert_eq!(d.units, n, "{exec}");
        d
    }

    #[test]
    fn dispatch_sinks_in_unit_order_on_in_process_backends() {
        for exec in [
            Exec::serial(),
            Exec::threads(Threads::exact(1)),
            Exec::threads(Threads::exact(4)),
        ] {
            let d = squares(&exec, &Squares::default(), 97);
            assert!(d.fallback.is_none());
            assert_eq!(d.fallbacks, 0);
        }
    }

    #[test]
    fn dispatch_surfaces_the_lowest_indexed_unit_error() {
        for exec in [Exec::serial(), Exec::threads(Threads::exact(4))] {
            let units = (0..40).map(|i| if i >= 17 { usize::MAX } else { i });
            let mut got = Vec::new();
            let err = exec
                .dispatch(&Squares::default(), units, |o| got.push(o))
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

    /// No real worker binary: every shipped batch fails. `InThread`
    /// recomputes per batch, so the count tracks batches; `Fail`
    /// surfaces the wrapped fleet error on unit 0.
    #[test]
    fn process_failure_honours_the_fallback_policy() {
        let forgiving = bogus(2);
        let d = squares(&forgiving, &Squares::default(), 100);
        assert!(d.fallback.is_some(), "fallback must be surfaced");
        assert_eq!(d.fallbacks, 100usize.div_ceil(STREAM_BATCH_UNITS));
        assert_eq!(forgiving.process_fallbacks(), d.fallbacks);

        let strict = bogus(2).with_fallback(Fallback::Fail);
        let err = strict
            .dispatch(&Squares::default(), 0..100, |_| {})
            .unwrap_err();
        assert!(err.contains("work unit 0"), "{err}");
        assert!(err.contains("/nonexistent/steac-worker"), "{err}");
        assert_eq!(strict.process_fallbacks(), 0);
    }

    /// A fleet whose only host is unreachable: the Remote arm obeys the
    /// same `Fallback` policy as the process arm, through the same
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
        let d = squares(&forgiving, &Squares::default(), 10);
        assert!(d.fallback.is_some(), "fallback must be surfaced");
        assert_eq!(forgiving.process_fallbacks(), 1);

        let strict = Exec::remote(dead_fleet()).with_fallback(Fallback::Fail);
        let err = strict
            .dispatch(&Squares::default(), 0..10, |_| {})
            .unwrap_err();
        assert!(err.contains("work unit 0"), "{err}");
        assert_eq!(strict.process_fallbacks(), 0);
    }

    #[test]
    fn empty_input_encodes_no_job_and_never_touches_the_fleet() {
        let exec = bogus(2).with_fallback(Fallback::Fail);
        let jobless = Squares {
            jobless: true,
            ..Squares::default()
        };
        let d = exec.dispatch(&jobless, 0..0, |_| {}).unwrap();
        assert_eq!(d.units, 0);
        assert!(d.fallback.is_none());
    }

    /// A panicking sink unwinds out of dispatch: the dispatchers waiting
    /// on the gate are woken and joined, never left waiting forever.
    #[test]
    fn a_panicking_sink_unwinds_out_of_the_pipeline() {
        for exec in [Exec::threads(Threads::exact(2)), bogus(2)] {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.dispatch(&Squares::default(), 0..1_000, |o| {
                    assert!(o < 100, "the sink refuses {o}");
                })
            }));
            assert!(run.is_err(), "{exec}");
        }
    }

    /// Dispatches `0..n` and returns the most units ever pulled from the
    /// input but not yet sunk, measured at every pull.
    fn most_pulled_ahead(exec: &Exec, work: &Squares, n: usize) -> usize {
        let (pulled, sunk, worst) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let units = (0..n).inspect(|_| {
            let pulled = pulled.fetch_add(1, Ordering::SeqCst) + 1;
            let ahead = pulled.saturating_sub(sunk.load(Ordering::SeqCst));
            worst.fetch_max(ahead, Ordering::SeqCst);
        });
        let d = exec
            .dispatch(work, units, |_| {
                sunk.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(d.units, n);
        worst.into_inner()
    }

    struct Echo;

    impl shard::WireJob for Echo {
        fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
            Ok(unit.to_vec())
        }
    }

    /// A host that answers in-process through the worker core with the
    /// echo job, once `before` has seen the call's index — which may
    /// stall the call or refuse it. It records every request it gets.
    struct EchoHost {
        state: shard::WorkerState,
        requests: Mutex<Vec<Vec<u8>>>,
        before: Box<dyn Fn(usize) -> Result<(), TransportError> + Send + Sync>,
    }

    impl EchoHost {
        fn new(
            before: impl Fn(usize) -> Result<(), TransportError> + Send + Sync + 'static,
        ) -> Arc<Self> {
            Arc::new(EchoHost {
                state: shard::WorkerState::new(),
                requests: Mutex::new(Vec::new()),
                before: Box::new(before),
            })
        }

        fn calls(&self) -> usize {
            self.requests.lock().unwrap().len()
        }
    }

    impl Transport for Arc<EchoHost> {
        fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
            let call = {
                let mut requests = self.requests.lock().unwrap();
                requests.push(request.to_vec());
                requests.len() - 1
            };
            (self.before)(call)?;
            let open = |_: u16, _: &[u8]| Ok(Box::new(Echo) as Box<dyn shard::WireJob>);
            Ok(shard::process_request_with(request, open, &self.state).expect("a valid request"))
        }
        fn endpoint(&self) -> String {
            "echo".to_string()
        }
    }

    /// One stalled shipped batch must not let the other dispatcher drain
    /// the input into the reorder buffer: one single-stream host gets two
    /// dispatchers, and at most two batches per dispatcher are ever
    /// pulled but not yet sunk.
    #[test]
    fn a_stalled_batch_cannot_pull_the_input_ahead() {
        // The first call is held behind the fleet's prime gate, so the
        // second is an ordinary batch.
        let host = EchoHost::new(|call| {
            if call == 1 {
                std::thread::sleep(Duration::from_millis(1500));
            }
            Ok(())
        });
        let exec =
            Exec::remote(RemoteFleet::new(vec![Box::new(host)])).with_fallback(Fallback::Fail);
        let ahead = most_pulled_ahead(&exec, &Squares::default(), 20_000);
        assert!(
            ahead <= 2 * 2 * STREAM_BATCH_UNITS,
            "{ahead} units pulled ahead"
        );
    }

    /// Each shipped batch is exactly one run request, and only the first
    /// ships the job inline: 100 units through a one-host fleet are
    /// ⌈100 / 32⌉ = 4 requests.
    #[test]
    fn each_shipped_batch_is_one_run_request() {
        let host = EchoHost::new(|_| Ok(()));
        let exec = Exec::remote(RemoteFleet::new(vec![Box::new(Arc::clone(&host))]))
            .with_fallback(Fallback::Fail);
        squares(&exec, &Squares::default(), 100);
        // The job-present flag sits just before the job block's length.
        let present = shard::RUN_REQUEST_JOB_OFFSET - 9;
        let inline: Vec<bool> = host
            .requests
            .lock()
            .unwrap()
            .iter()
            .map(|request| request[present] == 1)
            .collect();
        assert_eq!(inline, [true, false, false, false]);
    }

    /// A host that refuses every call, slowly, is lost after
    /// `max_retries + 1` strikes and gets no more requests in that
    /// dispatch call — at most one more per dispatcher homed on it, for
    /// calls already on their way. The next call probes it again.
    #[test]
    fn host_loss_lasts_for_one_dispatch_call() {
        let refusing = EchoHost::new(|_| {
            std::thread::sleep(Duration::from_millis(50));
            Err(TransportError::Unreachable {
                endpoint: "refusing".to_string(),
                diagnostic: "injected".to_string(),
            })
        });
        let fleet = RemoteFleet::new(vec![
            Box::new(Arc::clone(&refusing)),
            Box::new(EchoHost::new(|_| Ok(()))),
        ]);
        let exec = Exec::remote(fleet).with_fallback(Fallback::Fail);
        let bound = 2 * (crate::remote::DEFAULT_MAX_RETRIES + 1);
        let mut before = 0;
        for round in 1..=2 {
            squares(&exec, &Squares::default(), 3_200);
            let calls = refusing.calls();
            assert!(calls > before, "round {round} never probed the host");
            assert!(calls <= round * bound, "{calls} calls by round {round}");
            before = calls;
        }
    }

    /// The in-process twin: a slow unit 0 on `threads:2` holds the
    /// input to four units ahead of the sink.
    #[test]
    fn a_stalled_unit_cannot_pull_the_input_ahead() {
        let slow = Squares {
            stall: Duration::from_millis(300),
            ..Squares::default()
        };
        let ahead = most_pulled_ahead(&Exec::threads(Threads::exact(2)), &slow, 2_000);
        assert!(ahead <= 4, "{ahead} units pulled ahead");
    }
}
