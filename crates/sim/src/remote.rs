//! Work that leaves the process: the transport layer and the host fleet
//! behind [`crate::exec::Backend::Remote`] and
//! [`crate::exec::Backend::Processes`].
//!
//! The wire format ([`crate::wire`]) and the worker protocol
//! ([`crate::shard`]) are transport-agnostic: one serialized request in,
//! one serialized response out. This module makes "where the bytes go"
//! pluggable:
//!
//! * [`Transport`] is that one-request/one-response contract. A
//!   transport failure is a typed [`TransportError`] — never a panic —
//!   and is *retryable* by construction: the fleet may replay the same
//!   request on the same or another host.
//! * Every transport keeps **one long-lived session** to one persistent
//!   worker: the session is opened lazily and reopened lazily after a
//!   loss, and multiple requests are **pipelined** in flight on it under
//!   a bounded window — a dedicated reader thread routes responses back
//!   to callers by the envelope's request id, so responses may return in
//!   any order. The session runs over any byte pipe:
//!   [`TcpTransport`] over a socket to a `steac-worker --serve <addr>`
//!   listener (its address resolved once per session), and
//!   [`ProcessTransport`] over the stdin/stdout of one long-lived local
//!   `steac-worker` child — the host behind each slot of `processes:N`,
//!   which also makes the whole fleet testable in-repo with zero
//!   network.
//! * [`RemoteFleet`] ships batches to N transports. It does not schedule:
//!   [`crate::exec::Exec::dispatch`] cuts the work into batches and runs
//!   two dispatchers per host stream, each homed on one host, and every
//!   batch a dispatcher pulls is **one** run request. The fleet chooses
//!   the host (the home one while it is live, failing over in fleet
//!   order), retries what a lost or damaged response left unresolved,
//!   and keeps the merge-by-unit-index determinism contract: unit `i`'s
//!   result (or the lowest-indexed unit's error) is identical no matter
//!   which host ran it or which responses had to be retried. Because
//!   every worker persists, the fleet references the job by its content
//!   hash after the first successful inline ship, so the serialized
//!   program crosses the wire **once per host** instead of once per
//!   request — a worker that lost its cache (restart, eviction) answers
//!   "need program" and the fleet transparently re-ships inline.
//!   [`RemoteFleet::stats`] counts exactly what was shipped.
//!
//! # Envelope (version 2)
//!
//! A persistent session needs explicit framing, and pipelining needs
//! each frame to say which request it answers. Every payload travels
//! inside the envelope, over a socket and over a child's stdin/stdout
//! alike:
//!
//! ```text
//! magic      b"STEV"   (4 bytes)
//! version    u16       (currently 2; reject-on-mismatch, no negotiation)
//! request id u64       (echoed verbatim in the response's envelope)
//! length     u64       (payload byte count, little-endian)
//! payload    [u8; length]
//! ```
//!
//! Version 2 added the request id (version 1 frames are rejected with a
//! typed [`WireError::UnsupportedVersion`], loudly — a mixed-version
//! fleet upgrades in lock step). [`decode_envelope`] is strict —
//! truncated, corrupt or trailing bytes are typed [`WireError`]s,
//! property-tested in `tests/proptests.rs` alongside the program codec
//! sweeps. [`read_envelope`] is the streaming half used on live
//! sockets; a damaged length there surfaces as a short or over-long
//! read, which the worker-response parser rejects — either way a
//! corrupt frame is a typed error on the dispatcher side, never a
//! panic.
//!
//! # Program cache and status
//!
//! The payloads themselves are worker-protocol frames
//! ([`crate::shard`], version 3): run requests reference the job by
//! FNV-1a content hash and ship its bytes only when the worker's LRU
//! ([`crate::shard::WorkerState`]) might not hold them; a status
//! request ([`query_status`], `steac-worker --status <addr>`) returns
//! the worker's uptime and cache/traffic counters
//! ([`crate::shard::WorkerStatus`]) for fleet observability.
//! [`serve_session`] is the one worker-side frame loop: it serves each
//! request on its own thread so pipelined requests complete out of
//! order. [`serve_tcp`] runs it per connection with one `WorkerState`
//! per listener, shared by every connection; the worker's stdio mode
//! runs it once over stdin/stdout with one `WorkerState` for the
//! child's whole life.
//!
//! # Failure model
//!
//! Failover runs per batch, sequentially on the dispatcher that pulled
//! it — no thread of its own. The fleet distinguishes two kinds of
//! trouble:
//!
//! * **Transport-level loss** (connect refused, worker binary missing,
//!   dead session or child, truncated or corrupt envelope, a response
//!   missing some of its units): the batch keeps the units the response
//!   did resolve, the host takes a strike, and the unresolved units go
//!   to the next live host the batch has not failed on — or to any live
//!   host, once every live host has failed it. The batch fails, as
//!   [`PoolError::Unit`] on its **lowest-indexed** unresolved unit, when
//!   it has failed more than [`RemoteFleet::with_max_retries`] times
//!   and every live host has failed it, or when no live host remains.
//! * **Workload-level unit errors** (the worker ran the unit and
//!   reported a typed failure, e.g. corrupt unit bytes or a program
//!   hash mismatch): deterministic, so they are *not* retried; they
//!   fail the batch.
//!
//! A host that fails `max_retries + 1` calls in a row within one
//! dispatch call is lost: it gets no more requests in that call, and
//! its loss is logged once to stderr. A successful call resets the
//! count, and the next dispatch call starts with every host live.
//!
//! A "need program" reply is neither kind of trouble: it is part of the
//! normal cache protocol, answered by re-sending the same units with the
//! job inline (counted in [`FleetStats`], invisible to callers).
//!
//! What a failed batch *means* is the [`crate::exec::Fallback`] policy's
//! decision, made once, per batch, in its dispatcher: recompute the
//! batch in-thread (logged and counted) or surface the workload's typed
//! error.
//! `tests/remote_chaos.rs` drives every one of these paths with
//! injected failures — including a worker restarted mid-run (cache
//! wiped) and a corrupted inline program.

use crate::shard::{self, PoolError, Reply, WireJob, WorkerState, WorkerStatus};
use crate::wire::{fnv1a64, WireError, WireReader, WireWriter};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Magic bytes opening every stream-transport envelope.
pub const ENVELOPE_MAGIC: [u8; 4] = *b"STEV";

/// Envelope version; bumped on any change to the envelope layout, with
/// the same reject-on-mismatch discipline as [`crate::wire::WIRE_VERSION`].
/// Version 2 added the request id that pipelined sessions match
/// responses by.
pub const ENVELOPE_VERSION: u16 = 2;

/// Byte length of the fixed envelope header (magic + version +
/// request id + length).
pub const ENVELOPE_HEADER_LEN: usize = 22;

/// Frames a payload for a stream transport under `request_id` (see the
/// module docs for the layout). Responses echo the request's id.
/// Encoding cannot fail.
#[must_use]
pub fn encode_envelope(request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.reserve(ENVELOPE_HEADER_LEN + payload.len());
    w.put_bytes(&ENVELOPE_MAGIC);
    w.put_u16(ENVELOPE_VERSION);
    w.put_u64(request_id);
    w.put_block(payload);
    w.finish()
}

/// Strictly decodes one envelope from a complete buffer: the payload
/// must fill the buffer exactly. Returns `(request_id, payload)`.
///
/// # Errors
///
/// A typed [`WireError`] for truncated bytes, a bad magic, an
/// unsupported version, a length that disagrees with the buffer, or
/// trailing bytes. Never panics, never over-allocates (the length is
/// checked against the bytes actually present).
pub fn decode_envelope(bytes: &[u8]) -> Result<(u64, Vec<u8>), WireError> {
    let mut r = WireReader::new(bytes);
    r.expect_magic(&ENVELOPE_MAGIC, "envelope magic")?;
    r.expect_version(ENVELOPE_VERSION, "envelope version")?;
    let request_id = r.get_u64("envelope request id")?;
    let payload = r.get_block("envelope payload")?.to_vec();
    r.finish()?;
    Ok((request_id, payload))
}

/// Reads one envelope from a live stream: the header is read exactly,
/// then `length` payload bytes. Returns `(request_id, payload)`. The
/// allocation grows only as bytes actually arrive, so a hostile length
/// cannot balloon memory.
///
/// # Errors
///
/// [`TransportError::Envelope`] for framing damage (truncation, bad
/// magic, version mismatch), [`TransportError::Io`] for read failures.
pub fn read_envelope<R: Read>(input: &mut R) -> Result<(u64, Vec<u8>), TransportError> {
    let mut header = [0u8; ENVELOPE_HEADER_LEN];
    input.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TransportError::Envelope {
                diagnostic: "truncated envelope header".to_string(),
            }
        } else {
            TransportError::Io {
                diagnostic: format!("reading envelope header: {e}"),
            }
        }
    })?;
    let mut r = WireReader::new(&header);
    let (request_id, len) = r
        .expect_magic(&ENVELOPE_MAGIC, "envelope magic")
        .and_then(|()| r.expect_version(ENVELOPE_VERSION, "envelope version"))
        .and_then(|()| r.get_u64("envelope request id"))
        .and_then(|id| r.get_usize("envelope length").map(|len| (id, len)))
        .map_err(|e| TransportError::Envelope {
            diagnostic: e.to_string(),
        })?;
    let mut payload = Vec::new();
    input
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| TransportError::Io {
            diagnostic: format!("reading envelope payload: {e}"),
        })?;
    if payload.len() != len {
        return Err(TransportError::Envelope {
            diagnostic: format!(
                "truncated envelope payload: got {} of {len} bytes",
                payload.len()
            ),
        });
    }
    Ok((request_id, payload))
}

/// Failure of a single [`Transport::call`]. Every variant is retryable
/// at the fleet level: the same request can be replayed on the same or
/// another host without changing any result (work units are pure
/// functions of their bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// The host could not be reached at all (connect refused, worker
    /// binary missing). Nothing ran.
    Unreachable {
        /// The endpoint that was tried.
        endpoint: String,
        /// What failed.
        diagnostic: String,
    },
    /// The exchange died mid-flight (send/receive error, worker process
    /// exited abnormally). The request may or may not have executed.
    Io {
        /// What failed.
        diagnostic: String,
    },
    /// The response arrived but its framing was damaged (truncated or
    /// corrupt envelope, bad magic, version mismatch).
    Envelope {
        /// What failed.
        diagnostic: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Unreachable {
                endpoint,
                diagnostic,
            } => write!(f, "host {endpoint} unreachable: {diagnostic}"),
            TransportError::Io { diagnostic } => write!(f, "transport I/O failed: {diagnostic}"),
            TransportError::Envelope { diagnostic } => {
                write!(f, "corrupt response envelope: {diagnostic}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// One request in, one response out — the entire contract between the
/// dispatcher and a `steac-worker`, with the request/response bytes
/// exactly as the worker protocol defines them ([`crate::shard`]).
/// Implementations own connection management and framing; they must be
/// callable concurrently from dispatcher threads, and they must reach a
/// *persistent* worker whose program cache outlives a single call —
/// the fleet references a job by its content hash after the first
/// inline ship.
pub trait Transport: Send + Sync {
    /// Ships one request and returns the raw response bytes.
    ///
    /// # Errors
    ///
    /// A typed, retryable [`TransportError`]; implementations never
    /// panic on wire damage.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError>;

    /// Human-readable endpoint, used in diagnostics and
    /// `Exec` display (`remote:endpoint,endpoint`).
    fn endpoint(&self) -> String;

    /// How many dispatchers this host gets: [`crate::exec::Exec::dispatch`]
    /// runs two per stream, homed on this host, so `2 × streams` of its
    /// own batches can be in flight here at once. The default of 1 (two
    /// dispatchers) is what keeps a fleet of `N` [`ProcessTransport`]s
    /// computing `N`-wide; [`TcpTransport`] returns its configured
    /// stream count.
    fn streams(&self) -> usize {
        1
    }
}

/// Default pipelining width of a [`TcpTransport`]: streams whose
/// dispatchers share its one session.
pub const DEFAULT_TCP_STREAMS: usize = 2;

/// Bounded in-flight window of every session: requests written but not
/// yet answered. A caller needing a slot past the window blocks until
/// one frees — backpressure, not an unbounded queue.
const SESSION_WINDOW: usize = 4;

/// The channel a caller waits on for its routed response.
type ResponseSender = mpsc::Sender<Result<Vec<u8>, TransportError>>;

/// One live pipelined session over a byte pipe — a socket, or a worker
/// child's stdin/stdout — plus the response router state and the
/// in-flight window. Requests are written under the `writer` lock
/// (frames must not interleave); a dedicated reader thread
/// ([`Session::reader_loop`]) routes each response envelope to the
/// caller registered under its request id. Any read or write failure
/// marks the whole session dead, tears the pipe down (`close`) and
/// fails every outstanding caller — the owning [`SessionSlot`] then
/// opens a fresh session lazily on the next call.
struct Session {
    writer: Mutex<Box<dyn Write + Send>>,
    close: Box<dyn Fn() + Send + Sync>,
    pending: Mutex<HashMap<u64, ResponseSender>>,
    inflight: Mutex<usize>,
    slot_freed: Condvar,
    dead: AtomicBool,
}

impl Session {
    /// Starts a session over a pipe's two halves and the hook that tears
    /// the pipe down (which must wake a reader blocked on `reader`), and
    /// spawns the reader thread.
    fn start(
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
        close: impl Fn() + Send + Sync + 'static,
    ) -> Arc<Self> {
        let session = Arc::new(Session {
            writer: Mutex::new(Box::new(writer)),
            close: Box::new(close),
            pending: Mutex::new(HashMap::new()),
            inflight: Mutex::new(0),
            slot_freed: Condvar::new(),
            dead: AtomicBool::new(false),
        });
        let router = Arc::clone(&session);
        std::thread::spawn(move || router.reader_loop(reader));
        session
    }

    /// Marks the session dead, tears its pipe down, fails every
    /// outstanding caller with a clone of `error` (keeping its type — an
    /// envelope error stays an envelope error), and wakes anyone blocked
    /// on the window.
    fn die(&self, error: &TransportError) {
        self.dead.store(true, Ordering::SeqCst);
        (self.close)();
        let drained: Vec<_> = self
            .pending
            .lock()
            .expect("no panics hold the lock")
            .drain()
            .collect();
        for (_, tx) in drained {
            let _ = tx.send(Err(error.clone()));
        }
        self.slot_freed.notify_all();
    }

    /// The reader half: drains response envelopes off the pipe and
    /// routes them by request id until the session dies. A response to
    /// an id nobody is waiting on (a caller that already timed out) is
    /// dropped — late duplicates can never corrupt a later exchange.
    fn reader_loop(&self, mut reader: impl Read) {
        loop {
            match read_envelope(&mut reader) {
                Ok((id, payload)) => {
                    let tx = self
                        .pending
                        .lock()
                        .expect("no panics hold the lock")
                        .remove(&id);
                    if let Some(tx) = tx {
                        let _ = tx.send(Ok(payload));
                    }
                }
                Err(e) => {
                    self.die(&e);
                    return;
                }
            }
        }
    }
}

/// Releases one in-flight window slot on every exit path.
struct SlotGuard<'a>(&'a Session);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self.0.inflight.lock().expect("no panics hold the lock");
        *inflight = inflight.saturating_sub(1);
        self.0.slot_freed.notify_one();
    }
}

/// The pipe-independent half of every session transport: the live
/// [`Session`] (opened lazily through the transport's `open`, reopened
/// lazily after a loss — concurrent callers share one reopen), the
/// request-id counter, the in-flight window and the response timeout.
/// Dropping the slot kills the live session, so a dropped transport
/// leaves no reader thread, socket or child process behind.
struct SessionSlot {
    /// The transport's endpoint, named in diagnostics.
    endpoint: String,
    timeout: Option<Duration>,
    live: Mutex<Option<Arc<Session>>>,
    next_id: AtomicU64,
}

impl SessionSlot {
    /// A slot with no session yet and the default 120 s timeout.
    fn new(endpoint: String) -> Self {
        SessionSlot {
            endpoint,
            timeout: Some(Duration::from_secs(120)),
            live: Mutex::new(None),
            next_id: AtomicU64::new(0),
        }
    }

    /// A slot with this one's configuration and no session.
    fn fresh(&self) -> Self {
        let mut slot = SessionSlot::new(self.endpoint.clone());
        slot.timeout = self.timeout;
        slot
    }

    /// Ships one request through the live session, opening one with
    /// `open` when there is none or the last one died. A session that
    /// died while idle (worker restart, idle timeout) is only discovered
    /// on first use: retry once, transparently, when the request
    /// provably never left this machine.
    fn call(
        &self,
        request: &[u8],
        open: impl Fn() -> Result<Arc<Session>, TransportError>,
    ) -> Result<Vec<u8>, TransportError> {
        let mut last = None;
        for _ in 0..2 {
            let session = {
                let mut live = self.live.lock().expect("no panics hold the lock");
                match live.as_ref().filter(|s| !s.dead.load(Ordering::SeqCst)) {
                    Some(session) => Arc::clone(session),
                    None => {
                        let session = open()?;
                        *live = Some(Arc::clone(&session));
                        session
                    }
                }
            };
            match self.call_on(&session, request) {
                Ok(response) => return Ok(response),
                Err((e, retryable)) => {
                    last = Some(e);
                    if !retryable {
                        break;
                    }
                }
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    /// One attempt on one session. `Err((error, retryable))`:
    /// `retryable` is `true` only when the request was never delivered
    /// (dead session found before the write completed), so the caller
    /// may transparently try a fresh session without risking duplicate
    /// execution semantics at this layer.
    fn call_on(
        &self,
        session: &Arc<Session>,
        request: &[u8],
    ) -> Result<Vec<u8>, (TransportError, bool)> {
        // Acquire an in-flight window slot (backpressure).
        {
            let mut inflight = session.inflight.lock().expect("no panics hold the lock");
            loop {
                if session.dead.load(Ordering::SeqCst) {
                    return Err((
                        TransportError::Io {
                            diagnostic: "session died before the request was sent".to_string(),
                        },
                        true,
                    ));
                }
                if *inflight < SESSION_WINDOW {
                    *inflight += 1;
                    break;
                }
                inflight = session
                    .slot_freed
                    .wait(inflight)
                    .expect("no panics hold the lock");
            }
        }
        let _slot = SlotGuard(session);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        session
            .pending
            .lock()
            .expect("no panics hold the lock")
            .insert(id, tx);
        let framed = encode_envelope(id, request);
        let written = {
            let mut writer = session.writer.lock().expect("no panics hold the lock");
            writer.write_all(&framed).and_then(|()| writer.flush())
        };
        if let Err(e) = written {
            let never_sent = session
                .pending
                .lock()
                .expect("no panics hold the lock")
                .remove(&id)
                .is_some();
            let error = TransportError::Io {
                diagnostic: format!("sending request to {}: {e}", self.endpoint),
            };
            session.die(&error);
            return Err((error, never_sent));
        }
        let response = match self.timeout {
            Some(timeout) => rx.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    // Give up on this exchange and the whole session: a
                    // stalled pipe must not absorb further requests.
                    let _ = session
                        .pending
                        .lock()
                        .expect("no panics hold the lock")
                        .remove(&id);
                    let error = TransportError::Io {
                        diagnostic: format!("response from {} timed out", self.endpoint),
                    };
                    session.die(&error);
                    error
                }
                mpsc::RecvTimeoutError::Disconnected => TransportError::Io {
                    diagnostic: format!("session to {} closed", self.endpoint),
                },
            }),
            None => rx.recv().map_err(|_| TransportError::Io {
                diagnostic: format!("session to {} closed", self.endpoint),
            }),
        };
        match response {
            Ok(Ok(payload)) => Ok(payload),
            Ok(Err(e)) | Err(e) => Err((e, false)),
        }
    }
}

impl Drop for SessionSlot {
    fn drop(&mut self) {
        // Kill the live session so its reader thread exits promptly
        // instead of waiting out a read timeout, and its pipe (socket
        // or child) goes with it.
        if let Ok(live) = self.live.lock() {
            if let Some(session) = live.as_ref() {
                session.die(&TransportError::Io {
                    diagnostic: "transport dropped".to_string(),
                });
            }
        }
    }
}

/// Ships requests to a `steac-worker --serve <addr>` listening loop
/// over **one persistent TCP session**: the address is resolved once
/// per session, the connection is established lazily (and
/// re-established lazily after a loss — every failure stays a typed
/// [`TransportError`]), and up to four requests are pipelined in flight
/// at a time, matched to their responses by the envelope request id.
pub struct TcpTransport {
    streams: usize,
    /// Socket addresses resolved for the current session; dropped when
    /// every one of them fails to connect, so a DNS change can heal a
    /// moved host.
    resolved: Mutex<Option<Vec<SocketAddr>>>,
    /// How many times the address was actually resolved (unit-tested:
    /// a session resolves once, not once per request).
    resolutions: AtomicUsize,
    /// The session half; its endpoint is the `host:port` target.
    session: SessionSlot,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addr", &self.session.endpoint)
            .field("timeout", &self.session.timeout)
            .field("streams", &self.streams)
            .finish_non_exhaustive()
    }
}

impl Clone for TcpTransport {
    /// Clones the configuration; the clone starts with a fresh (lazy)
    /// session of its own.
    fn clone(&self) -> Self {
        TcpTransport {
            streams: self.streams,
            resolved: Mutex::new(None),
            resolutions: AtomicUsize::new(0),
            session: self.session.fresh(),
        }
    }
}

impl TcpTransport {
    /// A transport to `addr` (`host:port`), with the default 120 s
    /// connect/read/write timeout so a hung or blackholed host surfaces
    /// as a typed error instead of blocking a dispatcher forever, and
    /// the default pipelining width ([`DEFAULT_TCP_STREAMS`]).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        TcpTransport {
            streams: DEFAULT_TCP_STREAMS,
            resolved: Mutex::new(None),
            resolutions: AtomicUsize::new(0),
            session: SessionSlot::new(addr.into()),
        }
    }

    /// Overrides the connect/read/write timeout (`None` disables it).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.session.timeout = timeout;
        self
    }

    /// Sets this host's stream count, [`Transport::streams`] (clamped to
    /// ≥ 1; default [`DEFAULT_TCP_STREAMS`]).
    #[must_use]
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams.max(1);
        self
    }

    /// How many times the target address has been resolved so far —
    /// one per session, not one per request.
    #[must_use]
    pub fn resolutions(&self) -> usize {
        self.resolutions.load(Ordering::Relaxed)
    }

    fn unreachable(&self, diagnostic: String) -> TransportError {
        TransportError::Unreachable {
            endpoint: self.session.endpoint.clone(),
            diagnostic,
        }
    }

    /// The session's resolved addresses, resolving (and caching) on
    /// first use.
    fn resolve(&self) -> Result<Vec<SocketAddr>, TransportError> {
        let mut cached = self.resolved.lock().expect("no panics hold the lock");
        if let Some(addrs) = cached.as_ref() {
            return Ok(addrs.clone());
        }
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        let addrs: Vec<SocketAddr> = self
            .session
            .endpoint
            .to_socket_addrs()
            .map_err(|e| self.unreachable(e.to_string()))?
            .collect();
        if addrs.is_empty() {
            return Err(self.unreachable("address resolved to nothing".to_string()));
        }
        *cached = Some(addrs.clone());
        Ok(addrs)
    }

    /// Connects within the configured timeout (a plain blocking connect
    /// when the timeout is disabled) — a blackholed host must surface
    /// as a typed error on our schedule, not the kernel's.
    fn connect(&self) -> Result<TcpStream, TransportError> {
        let addrs = self.resolve()?;
        let mut last = None;
        for addr in &addrs {
            let attempt = match self.session.timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e.to_string()),
            }
        }
        // Every resolved address refused: forget them so the next
        // attempt re-resolves (the host may have moved).
        *self.resolved.lock().expect("no panics hold the lock") = None;
        Err(self.unreachable(last.unwrap_or_else(|| "no address to try".to_string())))
    }

    /// Connects and starts a session over the socket: reader and writer
    /// are clones of one stream, and closing shuts it down.
    fn open(&self) -> Result<Arc<Session>, TransportError> {
        let stream = self.connect()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(self.session.timeout);
        let _ = stream.set_write_timeout(self.session.timeout);
        let clone = || {
            stream
                .try_clone()
                .map_err(|e| self.unreachable(e.to_string()))
        };
        let (writer, closer) = (clone()?, clone()?);
        Ok(Session::start(stream, writer, move || {
            let _ = closer.shutdown(std::net::Shutdown::Both);
        }))
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.session.call(request, || self.open())
    }

    fn endpoint(&self) -> String {
        self.session.endpoint.clone()
    }

    fn streams(&self) -> usize {
        self.streams
    }
}

/// Ships requests to **one long-lived local `steac-worker` child** over
/// its stdin/stdout — the host behind each slot of `processes:N`. The
/// child is spawned on the first call and speaks the same envelope
/// session as a `--serve` worker, with one [`WorkerState`] for its
/// whole life, so the program ships once and later requests go by
/// hash. When the session dies, or the transport drops, the child is
/// killed and reaped; the next call spawns a fresh one, the way
/// [`TcpTransport`] reconnects. The child's stderr is inherited, so its
/// diagnostics reach the dispatcher's stderr as they happen. A binary
/// that cannot be spawned is [`TransportError::Unreachable`], naming the
/// path and the OS error.
///
/// It keeps the trait's default of one stream, so each child gets two
/// dispatchers homed on it and runs at most two of their batches at
/// once (more only while another host is failing over to it).
pub struct ProcessTransport {
    binary: PathBuf,
    /// The session half; its endpoint is the binary's path.
    session: SessionSlot,
}

impl ProcessTransport {
    /// A transport over the given worker binary. Nothing is spawned
    /// until the first call.
    #[must_use]
    pub fn new(binary: PathBuf) -> Self {
        ProcessTransport {
            session: SessionSlot::new(binary.display().to_string()),
            binary,
        }
    }

    /// Spawns the worker and starts a session over its stdio; closing
    /// kills and reaps it.
    fn open(&self) -> Result<Arc<Session>, TransportError> {
        let mut child = Command::new(&self.binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| TransportError::Unreachable {
                endpoint: self.session.endpoint.clone(),
                diagnostic: e.to_string(),
            })?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Mutex::new(child);
        Ok(Session::start(stdout, stdin, move || {
            let mut child = child.lock().expect("no panics hold the lock");
            let _ = child.kill();
            let _ = child.wait();
        }))
    }
}

impl Transport for ProcessTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.session.call(request, || self.open())
    }

    fn endpoint(&self) -> String {
        self.session.endpoint.clone()
    }
}

/// Default extra attempts a batch gets after a transport-level loss.
pub const DEFAULT_MAX_RETRIES: usize = 2;

/// Hashes a host is remembered to hold; bounded like the worker-side
/// cache so the two cannot drift unboundedly.
const KNOWN_HASHES_PER_HOST: usize = 8;

/// One fleet host: its transport plus the program hashes its worker is
/// believed to have cached (confirmed by a successful inline ship).
/// The belief is allowed to be stale — a worker that restarted or
/// evicted answers "need program" and the fleet re-ships — so this is
/// an optimization ledger, never a correctness input.
///
/// The slot also owns the **prime gate** for each program: the first
/// caller to ship a given hash inline claims it here, and every other
/// dispatcher — of the same dispatch call *or a concurrent one* — waits,
/// then proceeds by-hash. Keying the gate by hash on the slot, rather
/// than per call, is what keeps "the program crosses the wire once per
/// host" true when batches race.
struct HostSlot {
    transport: Box<dyn Transport>,
    known: Mutex<Vec<u64>>,
    /// Hashes whose first inline ship is currently in flight.
    priming: Mutex<Vec<u64>>,
    primed: Condvar,
}

impl HostSlot {
    fn new(transport: Box<dyn Transport>) -> Self {
        HostSlot {
            transport,
            known: Mutex::new(Vec::new()),
            priming: Mutex::new(Vec::new()),
            primed: Condvar::new(),
        }
    }

    fn knows(&self, hash: u64) -> bool {
        self.known
            .lock()
            .expect("no panics hold the lock")
            .contains(&hash)
    }

    fn mark_known(&self, hash: u64) {
        let mut known = self.known.lock().expect("no panics hold the lock");
        if let Some(pos) = known.iter().position(|&h| h == hash) {
            known.remove(pos);
        }
        known.push(hash);
        if known.len() > KNOWN_HASHES_PER_HOST {
            known.remove(0);
        }
    }

    fn forget(&self, hash: u64) {
        self.known
            .lock()
            .expect("no panics hold the lock")
            .retain(|&h| h != hash);
    }

    /// Returns `true` when the caller must prime the host (ship the
    /// program inline); `false` once the host is believed to hold
    /// `hash`. Blocks while a peer's priming attempt for the same hash
    /// is in flight — if that attempt fails, the next waiter claims.
    fn claim_prime(&self, hash: u64) -> bool {
        let mut priming = self.priming.lock().expect("no panics hold the lock");
        loop {
            if self.knows(hash) {
                return false;
            }
            if !priming.contains(&hash) {
                priming.push(hash);
                return true;
            }
            priming = self.primed.wait(priming).expect("no panics hold the lock");
        }
    }

    /// Resolves a [`HostSlot::claim_prime`] claim: on success the hash
    /// enters the known ledger (waiters proceed by-hash), on failure
    /// the gate reopens for the next claimant.
    fn release_prime(&self, hash: u64, shipped: bool) {
        if shipped {
            self.mark_known(hash);
        }
        let mut priming = self.priming.lock().expect("no panics hold the lock");
        priming.retain(|&h| h != hash);
        self.primed.notify_all();
    }
}

/// Wire-traffic counters a fleet accumulates across its lifetime, split
/// so the program-cache win is measurable: `program_bytes` is what the
/// serialized job cost on the wire, `unit_bytes` what the work units
/// cost. With caching transports a multi-request run ships the program
/// once per host, so `programs_shipped` stays at the host count while
/// `requests` keeps growing.
#[derive(Debug, Default)]
pub struct FleetStats {
    requests: AtomicU64,
    program_bytes: AtomicU64,
    unit_bytes: AtomicU64,
    programs_shipped: AtomicU64,
    need_program_replies: AtomicU64,
}

impl FleetStats {
    fn count_request(&self, inline_job_bytes: Option<usize>, unit_bytes: usize) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.unit_bytes
            .fetch_add(unit_bytes as u64, Ordering::Relaxed);
        if let Some(job_bytes) = inline_job_bytes {
            self.program_bytes
                .fetch_add(job_bytes as u64, Ordering::Relaxed);
            self.programs_shipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> FleetStatsSnapshot {
        FleetStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            program_bytes: self.program_bytes.load(Ordering::Relaxed),
            unit_bytes: self.unit_bytes.load(Ordering::Relaxed),
            programs_shipped: self.programs_shipped.load(Ordering::Relaxed),
            need_program_replies: self.need_program_replies.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a fleet's [`FleetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStatsSnapshot {
    /// Run requests sent (including cache re-ships and retries).
    pub requests: u64,
    /// Serialized-program bytes that crossed a transport.
    pub program_bytes: u64,
    /// Work-unit bytes that crossed a transport.
    pub unit_bytes: u64,
    /// Requests that carried the program inline.
    pub programs_shipped: u64,
    /// "Need program" round trips (worker cache cold or wiped).
    pub need_program_replies: u64,
}

/// A fleet of worker hosts behind [`crate::exec::Backend::Remote`] and
/// [`crate::exec::Backend::Processes`]. It ships batches; it does not
/// schedule them. [`crate::exec::Exec::dispatch`] runs two dispatchers
/// per host stream ([`Transport::streams`]), each homed on one host, and
/// ships every batch it pulls here as one run request. The fleet keeps
/// the jobs that are not scheduling: choosing the host with failover
/// (the module docs' failure model), the per-host prime gate and
/// program-cache handshake, retries, [`RemoteFleet::stats`] and
/// [`RemoteFleet::statuses`].
///
/// A batch's results merge **by unit index** (the first result for a
/// unit wins), and a failed batch surfaces its **lowest-indexed**
/// unresolved unit — so reports stay byte-identical to the serial
/// backend no matter which hosts answered, died or were retried.
pub struct RemoteFleet {
    hosts: Vec<HostSlot>,
    max_retries: usize,
    stats: FleetStats,
}

impl fmt::Debug for RemoteFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteFleet")
            .field("hosts", &self.endpoints())
            .field("max_retries", &self.max_retries)
            .finish()
    }
}

impl RemoteFleet {
    /// A fleet over explicit transports, with the default retry budget
    /// ([`DEFAULT_MAX_RETRIES`]).
    ///
    /// # Panics
    ///
    /// If `hosts` is empty — a fleet with nowhere to send work is a
    /// programming error, caught at construction.
    #[must_use]
    pub fn new(hosts: Vec<Box<dyn Transport>>) -> Self {
        assert!(!hosts.is_empty(), "remote fleet needs at least one host");
        RemoteFleet {
            hosts: hosts.into_iter().map(HostSlot::new).collect(),
            max_retries: DEFAULT_MAX_RETRIES,
            stats: FleetStats::default(),
        }
    }

    /// A fleet of [`TcpTransport`]s, one per address; `None` when the
    /// iterator is empty.
    pub fn tcp<I>(addrs: I) -> Option<Self>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let hosts: Vec<Box<dyn Transport>> = addrs
            .into_iter()
            .map(|a| Box::new(TcpTransport::new(a)) as Box<dyn Transport>)
            .collect();
        if hosts.is_empty() {
            None
        } else {
            Some(RemoteFleet::new(hosts))
        }
    }

    /// Sets how many transport-level losses a batch may take beyond the
    /// first before it fails, once every live host has failed it
    /// (builder style; default [`DEFAULT_MAX_RETRIES`]). A host is
    /// declared lost after `max_retries + 1` consecutive failed calls
    /// within one dispatch call.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Number of hosts in the fleet.
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The configured retry budget per batch.
    #[must_use]
    pub fn max_retries(&self) -> usize {
        self.max_retries
    }

    /// The host endpoints, in fleet order.
    #[must_use]
    pub fn endpoints(&self) -> Vec<String> {
        self.hosts.iter().map(|h| h.transport.endpoint()).collect()
    }

    /// The wire-traffic counters accumulated across this fleet's runs.
    #[must_use]
    pub fn stats(&self) -> FleetStatsSnapshot {
        self.stats.snapshot()
    }

    /// Queries every host's worker status ([`query_status`]), in fleet
    /// order. Hosts that cannot answer report the failure as a string —
    /// observability must never take a fleet down.
    #[must_use]
    pub fn statuses(&self) -> Vec<(String, Result<WorkerStatus, String>)> {
        self.hosts
            .iter()
            .map(|h| (h.transport.endpoint(), query_status(h.transport.as_ref())))
            .collect()
    }

    /// The streams host `host` declares ([`Transport::streams`], at
    /// least 1).
    pub(crate) fn streams(&self, host: usize) -> usize {
        self.hosts[host].transport.streams().max(1)
    }

    /// A shipper for one dispatch call, with every host live.
    pub(crate) fn shipper(&self) -> Shipper<'_> {
        Shipper {
            fleet: self,
            health: Mutex::new(vec![HostHealth::default(); self.hosts.len()]),
        }
    }

    /// Executes `units` under job `kind`/`job` as one batch — one run
    /// request from host 0 on, failing over as a dispatched batch does,
    /// with every host live — and returns the result payloads in unit
    /// order.
    ///
    /// # Errors
    ///
    /// [`PoolError::Unit`] for the lowest-indexed unit that could not be
    /// resolved: a workload-level unit error (never retried), exhausted
    /// retries after transport-level losses, or no live host left.
    pub fn run(&self, kind: u16, job: &[u8], units: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, PoolError> {
        self.shipper().ship(0, kind, job, units)
    }
}

/// One host's health within one dispatch call.
#[derive(Clone, Default)]
struct HostHealth {
    /// Consecutive failed calls.
    strikes: usize,
    /// Why the host was declared lost, once it is.
    lost: Option<String>,
}

/// One dispatch call's handle on a fleet: it ships the call's batches
/// and records host loss for the length of the call. Every dispatcher of
/// the call shares it; the next call makes a fresh one, with every host
/// live.
pub(crate) struct Shipper<'a> {
    fleet: &'a RemoteFleet,
    health: Mutex<Vec<HostHealth>>,
}

impl Shipper<'_> {
    /// Ships one batch of `units` under job `kind`/`job` as one run
    /// request to host `home` — or, when it is lost, to the next live
    /// host — failing over on the calling thread as the module docs'
    /// failure model describes. Returns the result payloads in unit
    /// order.
    ///
    /// # Errors
    ///
    /// [`PoolError::Unit`] for the lowest-indexed unit that could not be
    /// resolved: its workload error, or why the fleet gave up on it.
    pub(crate) fn ship(
        &self,
        home: usize,
        kind: u16,
        job: &[u8],
        units: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, PoolError> {
        let batch = Batch {
            kind,
            job,
            job_hash: fnv1a64(job),
            units,
            stats: &self.fleet.stats,
        };
        let mut results: Vec<Option<Result<Vec<u8>, String>>> = vec![None; units.len()];
        // The hosts that have failed this batch, and how often it failed.
        let (mut failed, mut failures) = (Vec::new(), 0usize);
        let mut next = self.pick(home, &failed);
        let unresolved = loop {
            let pending: Vec<usize> = (0..units.len()).filter(|&u| results[u].is_none()).collect();
            if pending.is_empty() {
                break String::new();
            }
            let Some(host) = next else {
                break format!(
                    "no live remote host left to run this unit ({})",
                    self.obituaries()
                );
            };
            let diagnostic = match batch.exchange(&self.fleet.hosts[host], &pending) {
                Ok((items, damage)) => {
                    // The first result for a unit wins, so a duplicated
                    // or replayed frame can never change a merge.
                    for (unit, result) in items {
                        results[unit].get_or_insert(result);
                    }
                    if pending.iter().all(|&u| results[u].is_some()) {
                        self.record(host, None);
                        continue;
                    }
                    match damage {
                        Some(e) => format!("response damaged: {e}"),
                        None => "response missing unit results".to_string(),
                    }
                }
                Err(e) => e,
            };
            failures += 1;
            if !failed.contains(&host) {
                failed.push(host);
            }
            self.record(host, Some(&diagnostic));
            next = self.pick(host + 1, &failed);
            if failures > self.fleet.max_retries && next.is_some_and(|h| failed.contains(&h)) {
                break format!(
                    "lost in transit {failures} times across {} host(s), retries exhausted: \
                     {diagnostic}",
                    failed.len()
                );
            }
        };
        results
            .into_iter()
            .enumerate()
            .map(|(unit, result)| {
                result
                    .unwrap_or_else(|| Err(unresolved.clone()))
                    .map_err(|diagnostic| PoolError::Unit { unit, diagnostic })
            })
            .collect()
    }

    /// The host a batch goes to next: the first live host from `from`
    /// on, in fleet order, that has not failed the batch — or the first
    /// live one, once every live host has. `None` when no host is live.
    fn pick(&self, from: usize, failed: &[usize]) -> Option<usize> {
        let health = self.health.lock().expect("no panics hold the lock");
        let n = health.len();
        let live: Vec<usize> = (from..from + n)
            .map(|h| h % n)
            .filter(|&h| health[h].lost.is_none())
            .collect();
        live.iter()
            .find(|h| !failed.contains(h))
            .or(live.first())
            .copied()
    }

    /// Records one call's outcome on `host`: a success clears its
    /// strikes; a failure adds one, and the `max_retries + 1`-th in a
    /// row declares the host lost for the rest of the call, logged once.
    fn record(&self, host: usize, failure: Option<&str>) {
        let mut health = self.health.lock().expect("no panics hold the lock");
        let health = &mut health[host];
        let Some(diagnostic) = failure else {
            health.strikes = 0;
            return;
        };
        health.strikes += 1;
        if health.strikes > self.fleet.max_retries && health.lost.is_none() {
            let line = format!(
                "host {host} ({}) lost after {} consecutive failures: {diagnostic}",
                self.fleet.hosts[host].transport.endpoint(),
                health.strikes
            );
            eprintln!("steac remote: {line}");
            health.lost = Some(line);
        }
    }

    /// Every lost host's loss line, for a batch no host is left to run.
    fn obituaries(&self) -> String {
        let health = self.health.lock().expect("no panics hold the lock");
        let lost: Vec<&str> = health.iter().filter_map(|h| h.lost.as_deref()).collect();
        lost.join("; ")
    }
}

/// One batch on its way to a host: the job it runs under (kind, program
/// bytes and their hash) and its encoded units.
struct Batch<'a> {
    kind: u16,
    job: &'a [u8],
    job_hash: u64,
    units: &'a [Vec<u8>],
    stats: &'a FleetStats,
}

impl Batch<'_> {
    /// Total payload bytes of the units at `indices`.
    fn unit_payload_bytes(&self, indices: &[usize]) -> usize {
        indices.iter().map(|&i| self.units[i].len()).sum()
    }

    /// Ships the units at `indices` inline (program bytes included) and
    /// parses the reply. The worker has everything it needs, so a
    /// `NeedProgram` answer here is a protocol violation, not a cache
    /// miss.
    fn exchange_inline(
        &self,
        transport: &dyn Transport,
        indices: &[usize],
    ) -> Result<RunReply, String> {
        let request = shard::encode_request(
            self.kind,
            Some(self.job),
            self.job_hash,
            indices,
            self.units,
        );
        self.stats
            .count_request(Some(self.job.len()), self.unit_payload_bytes(indices));
        let response = transport.call(&request).map_err(|e| e.to_string())?;
        match shard::parse_reply(&response, self.units.len()) {
            Reply::Results(items, damage) => Ok((items, damage)),
            Reply::NeedProgram(hash) => Err(format!(
                "worker requested program {hash:#018x} despite an inline ship"
            )),
            Reply::Status(_) => {
                Err("worker answered a run request with a status reply".to_string())
            }
        }
    }

    /// Ships the units at `indices` to a host as one run request,
    /// deciding inline vs by-hash from the slot's ledger and per-hash
    /// prime gate (which serializes the first inline ship across every
    /// dispatcher of every concurrent dispatch of this job). A
    /// `NeedProgram` reply (worker restarted, or its LRU evicted us) is
    /// healed transparently with one inline re-ship of the same units.
    fn exchange(&self, slot: &HostSlot, indices: &[usize]) -> Result<RunReply, String> {
        let transport = slot.transport.as_ref();
        if slot.claim_prime(self.job_hash) {
            let result = self.exchange_inline(transport, indices);
            slot.release_prime(self.job_hash, result.is_ok());
            return result;
        }
        let request = shard::encode_request(self.kind, None, self.job_hash, indices, self.units);
        self.stats
            .count_request(None, self.unit_payload_bytes(indices));
        let response = transport.call(&request).map_err(|e| e.to_string())?;
        match shard::parse_reply(&response, self.units.len()) {
            Reply::Results(items, damage) => Ok((items, damage)),
            Reply::NeedProgram(_) => {
                // The ledger was stale — the worker lost the program.
                // Re-ship inline once; the batch is identical, so the
                // merge cannot drift.
                self.stats
                    .need_program_replies
                    .fetch_add(1, Ordering::Relaxed);
                slot.forget(self.job_hash);
                let result = self.exchange_inline(transport, indices);
                if result.is_ok() {
                    slot.mark_known(self.job_hash);
                }
                result
            }
            Reply::Status(_) => {
                Err("worker answered a run request with a status reply".to_string())
            }
        }
    }
}

/// Unit results plus the optional damage diagnostic from one shipped
/// batch — the payload of a successful run exchange.
type RunReply = (Vec<(usize, Result<Vec<u8>, String>)>, Option<String>);

/// Asks a worker for its status counters over `transport` (see
/// [`WorkerStatus`]). Used by `steac-worker --status` and the scaling
/// harness to surface cache behaviour after a run.
///
/// # Errors
///
/// A diagnostic when the transport fails or the worker answers with
/// anything but a status reply.
pub fn query_status(transport: &dyn Transport) -> Result<WorkerStatus, String> {
    let request = shard::encode_status_request();
    let response = transport.call(&request).map_err(|e| e.to_string())?;
    match shard::parse_reply(&response, 0) {
        Reply::Status(status) => Ok(status),
        Reply::Results(_, damage) => Err(match damage {
            Some(e) => format!("status reply damaged: {e}"),
            None => "worker answered a status request with run results".to_string(),
        }),
        Reply::NeedProgram(_) => {
            Err("worker answered a status request with a program request".to_string())
        }
    }
}

/// The TCP serving loop behind `steac-worker --serve <addr>`: accepts
/// connections forever and serves each on its own thread as one
/// [`serve_session`] (with `open` routing the job kind — the worker
/// binary passes its [`crate::shard::JobRegistry`]).
///
/// One [`WorkerState`] is shared by every connection the listener ever
/// accepts, so the program cache survives reconnects and its counters
/// describe the whole process lifetime — exactly what the status
/// request reports.
///
/// Connection-level trouble (damaged envelope, unreadable request, dead
/// peer) is logged to stderr and closes only that connection — a
/// misbehaving client can never take the server down, which
/// `tests/remote_chaos.rs` relies on.
///
/// # Errors
///
/// Only a broken listener (accept failure) ends the loop.
pub fn serve_tcp<F>(listener: TcpListener, open: F) -> Result<(), String>
where
    F: Fn(u16, &[u8]) -> Result<Box<dyn WireJob>, String> + Send + Sync + 'static,
{
    serve_tcp_with_state(listener, open, Arc::new(WorkerState::new()))
}

/// [`serve_tcp`] over an explicit [`WorkerState`] — the hook behind
/// `steac-worker --serve --cache-cap N` / `STEAC_CACHE_CAP`, which
/// builds the state with [`WorkerState::with_cache_capacity`] so an
/// interleaved streaming workload mix (grading + playback + March
/// against one fleet) stops thrashing the default 8-entry program
/// cache.
///
/// # Errors
///
/// Only a broken listener (accept failure) ends the loop.
pub fn serve_tcp_with_state<F>(
    listener: TcpListener,
    open: F,
    state: Arc<WorkerState>,
) -> Result<(), String>
where
    F: Fn(u16, &[u8]) -> Result<Box<dyn WireJob>, String> + Send + Sync + 'static,
{
    let open = Arc::new(open);
    loop {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| format!("accepting connection: {e}"))?;
        let open = Arc::clone(&open);
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            if let Err(e) = serve_connection(stream, &*open, &state) {
                eprintln!("steac-worker: connection from {peer}: {e}");
            }
        });
    }
}

/// Serves one TCP connection as a [`serve_session`], with socket
/// timeouts so a client that stalls mid-request cannot pin the thread
/// forever; closing shuts the socket down.
fn serve_connection<F>(stream: TcpStream, open: &F, state: &WorkerState) -> Result<(), String>
where
    F: Fn(u16, &[u8]) -> Result<Box<dyn WireJob>, String> + Sync,
{
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(300)));
    let close = || {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    };
    serve_session(&stream, &stream, &close, open, state)
}

/// The one worker-side session loop, over any byte pipe: envelope-framed
/// requests are read from `input` until the peer closes at a frame
/// boundary (clean EOF) or a frame proves unreadable (the pipe is
/// desynchronized beyond repair, so the session ends and the peer's
/// retry path takes over). Each request runs on its own thread through
/// [`crate::shard::process_request_with`] against the one `state`, and
/// its response envelope is written to `output` as it finishes —
/// possibly out of request order, which is what the request id is for;
/// the writer lock keeps concurrently finishing responses from
/// interleaving mid-frame. A request that cannot be answered calls
/// `close`, which must tear the pipe down: an unanswered request would
/// otherwise strand the peer's pending call until its timeout. The loop
/// returns once every request thread has finished.
///
/// [`serve_tcp`] runs it per connection; `steac-worker` with no
/// arguments runs it once over its stdin/stdout and closes by exiting.
///
/// # Errors
///
/// A diagnostic when reading fails or a frame is unreadable.
pub fn serve_session<F>(
    mut input: impl Read,
    output: impl Write + Send,
    close: &(dyn Fn() + Sync),
    open: &F,
    state: &WorkerState,
) -> Result<(), String>
where
    F: Fn(u16, &[u8]) -> Result<Box<dyn WireJob>, String> + Sync,
{
    let output = Mutex::new(output);
    std::thread::scope(|scope| loop {
        // Peek the first byte by hand so a close between frames reads
        // as a clean end-of-session rather than a truncated envelope.
        let mut first = [0u8; 1];
        match input.read(&mut first) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading request: {e}")),
        }
        let (request_id, request) = read_envelope(&mut (&first[..]).chain(&mut input))
            .map_err(|e| format!("request frame: {e}"))?;
        let output = &output;
        scope.spawn(move || {
            let outcome = shard::process_request_with(&request, open, state).and_then(|response| {
                let frame = encode_envelope(request_id, &response);
                let mut output = output.lock().expect("no panics hold the lock");
                output
                    .write_all(&frame)
                    .and_then(|()| output.flush())
                    .map_err(|e| format!("writing response: {e}"))
            });
            if let Err(e) = outcome {
                eprintln!("steac-worker: request {request_id}: {e}");
                close();
            }
        });
    })
}

/// A locally spawned `steac-worker --serve` process: the child plus the
/// address it announced. Killed (and reaped) on drop. The launch-side
/// counterpart of [`serve_tcp`], shared by the test batteries and the
/// scaling harness so the announce-line scraping lives in one place.
#[derive(Debug)]
pub struct ServeHandle {
    child: std::process::Child,
    addr: String,
}

impl ServeHandle {
    /// The `host:port` the worker announced it is listening on.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `binary --serve 127.0.0.1:0` and scrapes the announced
/// ephemeral address from its first stdout line.
///
/// # Errors
///
/// A diagnostic when the process cannot be spawned or does not announce
/// an address.
pub fn spawn_serve_process(binary: &std::path::Path) -> Result<ServeHandle, String> {
    spawn_serve_process_at(binary, "127.0.0.1:0")
}

/// [`spawn_serve_process`] with an explicit bind address — port 0 for
/// ephemeral, or a concrete port to restart a worker on the address a
/// fleet already points at (the cache-loss drill).
///
/// # Errors
///
/// A diagnostic when the process cannot be spawned or does not announce
/// an address.
pub fn spawn_serve_process_at(binary: &std::path::Path, bind: &str) -> Result<ServeHandle, String> {
    use std::io::BufRead as _;
    let mut child = Command::new(binary)
        .args(["--serve", bind])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {} --serve: {e}", binary.display()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    let announced = std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("reading the serve announcement: {e}"));
    let addr = announced.and_then(|_| {
        line.trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .map(str::to_string)
            .ok_or_else(|| format!("unexpected serve announcement: {line:?}"))
    });
    match addr {
        Ok(addr) => Ok(ServeHandle { child, addr }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---------- envelope codec ----------

    #[test]
    fn envelope_round_trip_is_identity() {
        for (id, payload) in [
            (0u64, &b""[..]),
            (1, b"x"),
            (u64::MAX, b"hello envelope"),
            (42, &[0u8; 300]),
        ] {
            let framed = encode_envelope(id, payload);
            assert_eq!(framed.len(), ENVELOPE_HEADER_LEN + payload.len());
            assert_eq!(decode_envelope(&framed).unwrap(), (id, payload.to_vec()));
            let mut cursor = &framed[..];
            assert_eq!(read_envelope(&mut cursor).unwrap(), (id, payload.to_vec()));
        }
    }

    #[test]
    fn envelope_truncation_always_errors() {
        let framed = encode_envelope(9, b"some payload bytes");
        for cut in 0..framed.len() {
            assert!(decode_envelope(&framed[..cut]).is_err(), "prefix {cut}");
            let mut cursor = &framed[..cut];
            assert!(read_envelope(&mut cursor).is_err(), "stream prefix {cut}");
        }
    }

    /// Corrupting the magic, version, or length always errors; the
    /// request-id bytes (6..14) are payload-like — a flip there decodes
    /// cleanly but under a *different* id, which the session router
    /// drops (nobody is pending under it), so it still cannot corrupt
    /// an exchange.
    #[test]
    fn envelope_header_corruption_is_detected_or_changes_only_the_id() {
        let framed = encode_envelope(7, b"payload");
        for pos in 0..ENVELOPE_HEADER_LEN {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = framed.clone();
                corrupt[pos] ^= flip;
                let decoded = decode_envelope(&corrupt);
                if (6..14).contains(&pos) {
                    let (id, payload) = decoded.expect("id flips still decode");
                    assert_ne!(id, 7, "header byte {pos} flip {flip:#x}");
                    assert_eq!(payload, b"payload");
                } else {
                    assert!(decoded.is_err(), "header byte {pos} flip {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn envelope_version_and_magic_are_typed() {
        let mut framed = encode_envelope(0, b"p");
        framed[0] = b'X';
        assert!(matches!(
            decode_envelope(&framed),
            Err(WireError::BadMagic { .. })
        ));
        let mut framed = encode_envelope(0, b"p");
        framed[4] = framed[4].wrapping_add(1);
        assert!(matches!(
            decode_envelope(&framed),
            Err(WireError::UnsupportedVersion { .. })
        ));
        let mut framed = encode_envelope(0, b"p");
        framed.push(0);
        assert!(matches!(
            decode_envelope(&framed),
            Err(WireError::Trailing { .. })
        ));
    }

    /// A v1 envelope (no request id; length directly after the version)
    /// must be rejected loudly, not misparsed.
    #[test]
    fn envelope_v1_frames_are_rejected() {
        let payload = b"old-style";
        let mut framed = Vec::new();
        framed.extend_from_slice(&ENVELOPE_MAGIC);
        framed.extend_from_slice(&1u16.to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(payload);
        assert!(matches!(
            decode_envelope(&framed),
            Err(WireError::UnsupportedVersion { .. })
        ));
        let mut cursor = &framed[..];
        assert!(matches!(
            read_envelope(&mut cursor),
            Err(TransportError::Envelope { .. })
        ));
    }

    #[test]
    fn read_envelope_rejects_hostile_length_without_allocating_it() {
        let mut framed = encode_envelope(3, b"tiny");
        framed[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = &framed[..];
        assert!(matches!(
            read_envelope(&mut cursor),
            Err(TransportError::Envelope { .. })
        ));
    }

    // ---------- fleet over an in-memory transport ----------

    /// Runs requests through the real worker-protocol core in-process,
    /// against a job that echoes each unit's bytes and a *persistent*
    /// [`WorkerState`], so by-hash requests exercise the real cache
    /// path. Failure behaviour is injected per call index. The state
    /// handle can be shared with the test, which may swap in a fresh one
    /// to simulate a worker restart.
    struct Loopback<S: Fn(usize) -> Option<TransportError> + Send + Sync> {
        calls: AtomicUsize,
        inject: S,
        state: Arc<Mutex<Arc<WorkerState>>>,
    }

    struct EchoJob;
    impl WireJob for EchoJob {
        fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
            if unit == b"poison" {
                Err("poisoned unit".to_string())
            } else {
                Ok(unit.to_vec())
            }
        }
    }

    impl<S: Fn(usize) -> Option<TransportError> + Send + Sync> Transport for Loopback<S> {
        fn call(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if let Some(e) = (self.inject)(call) {
                return Err(e);
            }
            let state = Arc::clone(&self.state.lock().expect("no panics hold the lock"));
            shard::process_request_with(request, |_, _| Ok(Box::new(EchoJob)), &state)
                .map_err(|diagnostic| TransportError::Io { diagnostic })
        }
        fn endpoint(&self) -> String {
            "loopback".to_string()
        }
    }

    fn loopback<S: Fn(usize) -> Option<TransportError> + Send + Sync>(
        inject: S,
    ) -> Box<Loopback<S>> {
        Box::new(Loopback {
            calls: AtomicUsize::new(0),
            inject,
            state: Arc::new(Mutex::new(Arc::new(WorkerState::new()))),
        })
    }

    fn units(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("unit-{i}").into_bytes()).collect()
    }

    #[test]
    fn fleet_merges_by_unit_index_across_host_counts() {
        let expected = units(97);
        for hosts in 1..=4 {
            let fleet = RemoteFleet::new(
                (0..hosts)
                    .map(|_| loopback(|_| None) as Box<dyn Transport>)
                    .collect(),
            );
            let got = fleet.run(7, b"job", &expected).unwrap();
            assert_eq!(got, expected, "{hosts} hosts");
        }
    }

    /// Host 0 fails every third call: each batch it fails is retried on
    /// host 1, and every batch merges to the same units.
    #[test]
    fn transient_failures_are_retried_to_an_identical_merge() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let fleet = RemoteFleet::new(vec![
            loopback(move |call| {
                seen.fetch_add(1, Ordering::Relaxed);
                (call % 3 == 1).then(|| TransportError::Io {
                    diagnostic: "injected".to_string(),
                })
            }) as Box<dyn Transport>,
            loopback(|_| None) as Box<dyn Transport>,
        ]);
        let expected = units(40);
        for batch in expected.chunks(2) {
            assert_eq!(fleet.run(7, b"job", batch).unwrap(), batch);
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            20,
            "every batch tried host 0"
        );
        assert_eq!(fleet.stats().requests, 20 + 7, "7 injected losses retried");
    }

    fn dead() -> Box<dyn Transport> {
        loopback(|_| {
            Some(TransportError::Unreachable {
                endpoint: "dead".to_string(),
                diagnostic: "injected".to_string(),
            })
        })
    }

    #[test]
    fn dead_host_fails_over_onto_the_survivor() {
        let fleet = RemoteFleet::new(vec![dead(), loopback(|_| None)]);
        let expected = units(30);
        for batch in expected.chunks(3) {
            assert_eq!(fleet.run(7, b"job", batch).unwrap(), batch);
        }
    }

    /// A batch is only exhausted once every live host has failed it: two
    /// dead hosts ahead of one healthy host, with the tightest budget,
    /// must not burn the budget before the healthy host is tried.
    #[test]
    fn dead_majority_cannot_exhaust_a_batch_the_healthy_host_never_saw() {
        let fleet = RemoteFleet::new(vec![dead(), dead(), loopback(|_| None)]).with_max_retries(1);
        let expected = units(40);
        assert_eq!(fleet.run(7, b"job", &expected).unwrap(), expected);
    }

    /// Within one dispatch call a host that fails `max_retries + 1`
    /// calls in a row is lost and gets no more requests; the next call
    /// starts with every host live and probes it again.
    #[test]
    fn host_loss_lasts_for_one_shipper() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let refusing = loopback(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            Some(TransportError::Unreachable {
                endpoint: "dead".to_string(),
                diagnostic: "injected".to_string(),
            })
        });
        let fleet = RemoteFleet::new(vec![refusing, loopback(|_| None)]);
        let expected = units(40);
        for round in 1..=2 {
            let shipper = fleet.shipper();
            for batch in expected.chunks(2) {
                assert_eq!(shipper.ship(0, 7, b"job", batch).unwrap(), batch);
            }
            assert_eq!(
                calls.load(Ordering::Relaxed),
                round * (DEFAULT_MAX_RETRIES + 1)
            );
        }
    }

    #[test]
    fn all_hosts_dead_is_a_lowest_indexed_unit_error() {
        let fleet = RemoteFleet::new(vec![dead(), dead()]);
        let PoolError::Unit { unit, diagnostic } = fleet.run(7, b"job", &units(20)).unwrap_err();
        assert_eq!(unit, 0, "lowest-indexed unit wins");
        assert!(diagnostic.contains("retries exhausted"), "{diagnostic}");
    }

    #[test]
    fn workload_unit_errors_are_final_and_never_retried() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let host = loopback(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            None
        });
        let fleet = RemoteFleet::new(vec![host]);
        let mut work = units(5);
        work[3] = b"poison".to_vec();
        let PoolError::Unit { unit, diagnostic } = fleet.run(7, b"job", &work).unwrap_err();
        assert_eq!(unit, 3);
        assert!(diagnostic.contains("poisoned unit"), "{diagnostic}");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry of a unit error");
    }

    #[test]
    fn empty_unit_list_never_touches_a_host() {
        let touched = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&touched);
        let host = loopback(move |_| {
            seen.store(true, Ordering::Relaxed);
            None
        });
        let fleet = RemoteFleet::new(vec![host]);
        assert!(fleet.run(7, b"job", &[]).unwrap().is_empty());
        assert!(!touched.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_fleet_is_a_construction_error() {
        let _ = RemoteFleet::new(Vec::new());
    }

    // ---------- TCP transport negative paths ----------

    #[test]
    fn tcp_connect_refused_is_unreachable() {
        // Bind then drop to learn a port that is (momentarily) free.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let t = TcpTransport::new(addr.to_string());
        assert!(matches!(
            t.call(b"request"),
            Err(TransportError::Unreachable { .. })
        ));
    }

    #[test]
    fn tcp_rogue_server_is_a_typed_envelope_error() {
        // A server that answers with garbage, then one that slams the
        // connection shut: both must be typed errors, never panics.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let mut stream = stream.unwrap();
                if i == 0 {
                    let _ = read_envelope(&mut stream);
                    let _ = stream.write_all(b"this is not an envelope at all!!");
                }
                // i == 1: drop the connection without reading or replying.
            }
        });
        let t = TcpTransport::new(addr).with_timeout(Some(Duration::from_secs(10)));
        assert!(matches!(
            t.call(b"request"),
            Err(TransportError::Envelope { .. })
        ));
        // The slammed connection may race the write: when the request
        // provably never left, `call` transparently retries on a fresh
        // connection — and by then the `take(2)` listener is gone, so
        // the retry can legitimately land on `Unreachable`.
        match t.call(b"request") {
            Err(
                TransportError::Envelope { .. }
                | TransportError::Io { .. }
                | TransportError::Unreachable { .. },
            ) => {}
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn serve_tcp_round_trips_through_the_echo_job() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = serve_tcp(listener, |_, _| Ok(Box::new(EchoJob)));
        });
        let fleet = RemoteFleet::tcp([addr]).unwrap();
        let expected = units(12);
        let got = fleet.run(7, b"job", &expected).unwrap();
        assert_eq!(got, expected);
    }

    // ---------- program cache + session semantics ----------

    #[test]
    fn fleet_ships_the_program_once_then_goes_by_hash() {
        let job = b"a-reasonably-long-program-blob".to_vec();
        let expected = units(40);
        let fleet = RemoteFleet::new(vec![loopback(|_| None)]);
        for batch in expected.chunks(2) {
            assert_eq!(fleet.run(7, &job, batch).unwrap(), batch);
        }
        let stats = fleet.stats();
        assert_eq!(stats.requests, 20, "one request per run: {stats:?}");
        assert_eq!(stats.programs_shipped, 1, "{stats:?}");
        assert_eq!(stats.program_bytes, job.len() as u64, "{stats:?}");
        assert_eq!(stats.need_program_replies, 0, "{stats:?}");
        assert!(stats.unit_bytes > 0, "{stats:?}");
    }

    /// Dispatch ships many batches of one job against the same fleet,
    /// overlapping in time. The prime gate lives on the host slot keyed
    /// by job hash — not per batch — precisely so racing batches on a
    /// cold host cannot each decide to ship the program inline.
    #[test]
    fn concurrent_batches_of_one_job_still_ship_the_program_once() {
        let job = b"shared-program-blob".to_vec();
        let fleet = Arc::new(RemoteFleet::new(vec![loopback(|_| None)]));
        let racers: Vec<_> = (0..4)
            .map(|_| {
                let (fleet, job) = (Arc::clone(&fleet), job.clone());
                std::thread::spawn(move || {
                    let expected = units(12);
                    assert_eq!(fleet.run(7, &job, &expected).unwrap(), expected);
                })
            })
            .collect();
        for racer in racers {
            racer.join().unwrap();
        }
        let stats = fleet.stats();
        assert_eq!(stats.programs_shipped, 1, "{stats:?}");
        assert_eq!(stats.program_bytes, job.len() as u64, "{stats:?}");
        assert_eq!(stats.need_program_replies, 0, "{stats:?}");
    }

    #[test]
    fn worker_restart_mid_run_heals_via_need_program() {
        let expected = units(60);
        let host = loopback(|_| None);
        let state = Arc::clone(&host.state);
        let fleet = RemoteFleet::new(vec![host]);
        // Prime the cache with a first run, restart the "worker", then
        // run again: the fleet's ledger is now stale and must heal.
        let got = fleet.run(7, b"job-bytes", &expected).unwrap();
        assert_eq!(got, expected);
        assert_eq!(fleet.stats().programs_shipped, 1);
        *state.lock().unwrap() = Arc::new(WorkerState::new());
        let got = fleet.run(7, b"job-bytes", &expected).unwrap();
        assert_eq!(got, expected);
        let stats = fleet.stats();
        assert_eq!(
            stats.need_program_replies, 1,
            "stale ledger must surface as NeedProgram: {stats:?}"
        );
        assert_eq!(stats.programs_shipped, 2, "one re-ship heals it: {stats:?}");
    }

    /// The whole point of persistent sessions: racing runs over a
    /// 2-stream TCP transport share exactly one connection.
    #[test]
    fn tcp_fleet_run_uses_one_connection_per_transport() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&accepts);
        std::thread::spawn(move || {
            let open = |_: u16, _: &[u8]| Ok(Box::new(EchoJob) as Box<dyn WireJob>);
            let state = Arc::new(WorkerState::new());
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                seen.fetch_add(1, Ordering::Relaxed);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &open, &state);
                });
            }
        });
        let fleet = Arc::new(RemoteFleet::tcp([addr]).unwrap());
        let racers: Vec<_> = (0..4)
            .map(|_| {
                let fleet = Arc::clone(&fleet);
                std::thread::spawn(move || {
                    let expected = units(30);
                    for batch in expected.chunks(2) {
                        assert_eq!(fleet.run(7, b"job", batch).unwrap(), batch);
                    }
                })
            })
            .collect();
        for racer in racers {
            racer.join().unwrap();
        }
        assert_eq!(accepts.load(Ordering::Relaxed), 1);
        let stats = fleet.stats();
        assert_eq!(stats.programs_shipped, 1, "{stats:?}");
    }

    #[test]
    fn tcp_transport_reconnects_lazily_after_a_session_loss() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let state = Arc::new(WorkerState::new());
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { break };
                if i == 0 {
                    // First session: answer one frame, then slam the
                    // connection shut.
                    let mut reader = stream.try_clone().unwrap();
                    if let Ok((id, payload)) = read_envelope(&mut reader) {
                        let response = shard::process_request_with(
                            &payload,
                            |_, _| Ok(Box::new(EchoJob)),
                            &state,
                        )
                        .unwrap();
                        let mut w = &stream;
                        let _ = w.write_all(&encode_envelope(id, &response));
                    }
                    drop(stream);
                } else {
                    let open = |_: u16, _: &[u8]| Ok(Box::new(EchoJob) as Box<dyn WireJob>);
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || {
                        let _ = serve_connection(stream, &open, &state);
                    });
                }
            }
        });
        let t = TcpTransport::new(addr).with_timeout(Some(Duration::from_secs(10)));
        let request = shard::encode_request(7, Some(b"job"), fnv1a64(b"job"), &[0], &units(1));
        assert!(t.call(&request).is_ok(), "first session works");
        // Give the reader thread a moment to notice the server-side
        // close, then call again: the transport must reconnect on its
        // own rather than erroring or panicking.
        std::thread::sleep(Duration::from_millis(100));
        assert!(t.call(&request).is_ok(), "reconnected session works");
    }

    #[test]
    fn hostname_targets_resolve_once_per_session() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            let _ = serve_tcp(listener, |_, _| Ok(Box::new(EchoJob)));
        });
        // A *hostname* target (not a literal IP), so `to_socket_addrs`
        // does real resolution work worth caching.
        let t = TcpTransport::new(format!("localhost:{port}"));
        assert_eq!(t.resolutions(), 0, "resolution is lazy");
        let request = shard::encode_request(7, Some(b"job"), fnv1a64(b"job"), &[0], &units(1));
        for _ in 0..3 {
            t.call(&request).unwrap();
        }
        assert_eq!(t.resolutions(), 1, "one session, one resolution");
    }

    #[test]
    fn status_round_trips_over_tcp_and_counts_the_cache() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = serve_tcp(listener, |_, _| Ok(Box::new(EchoJob)));
        });
        let fleet = RemoteFleet::tcp([addr]).unwrap();
        let expected = units(12);
        assert_eq!(fleet.run(7, b"job", &expected).unwrap(), expected);
        let statuses = fleet.statuses();
        assert_eq!(statuses.len(), 1);
        let status = statuses[0].1.as_ref().expect("status reply");
        assert_eq!(status.units_served, 12, "{status:?}");
        assert_eq!(status.cache_entries, 1, "{status:?}");
        assert!(status.requests_served >= 1, "{status:?}");
        assert!(status.bytes_received > 0, "{status:?}");
    }

    // ---------- process transport lifecycle ----------

    /// A process transport over `cat`, which echoes every request
    /// envelope back as its own response: the session round-trips over
    /// the child's stdio, a killed child is reaped by its dying session
    /// and replaced by a fresh one on the next call, and dropping the
    /// transport kills and reaps the child (its `/proc` entry, zombie
    /// included, is gone).
    #[test]
    fn process_transport_respawns_and_reaps_its_child() {
        let cat = PathBuf::from("/bin/cat");
        if !cat.is_file() || !std::path::Path::new("/proc/self/stat").is_file() {
            eprintln!("skipping: needs /bin/cat and /proc");
            return;
        }
        // Live (non-zombie) `cat` children of this test process; no other
        // test in this crate spawns `cat`.
        let me = std::process::id();
        let cats = || -> Vec<u32> {
            let entries = std::fs::read_dir("/proc").expect("/proc lists");
            let mut pids: Vec<u32> = entries
                .filter_map(|entry| {
                    let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
                    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
                    let (comm, rest) = stat.split_once(" (")?.1.rsplit_once(") ")?;
                    let mut fields = rest.split(' ');
                    let state = fields.next()?;
                    let ppid: u32 = fields.next()?.parse().ok()?;
                    (comm == "cat" && ppid == me && state != "Z").then_some(pid)
                })
                .collect();
            pids.sort_unstable();
            pids
        };
        let t = ProcessTransport::new(cat);
        assert!(cats().is_empty(), "spawned lazily");
        assert_eq!(t.call(b"ping").unwrap(), b"ping");
        let first = cats();
        assert_eq!(first.len(), 1, "one child per transport");
        assert_eq!(t.call(b"again").unwrap(), b"again");
        assert_eq!(cats(), first, "the session persists across calls");

        let killed = Command::new("kill")
            .args(["-9", &first[0].to_string()])
            .status()
            .is_ok_and(|s| s.success());
        if killed {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while std::path::Path::new(&format!("/proc/{}", first[0])).exists() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the killed child was never reaped"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(t.call(b"pong").unwrap(), b"pong", "respawned lazily");
            let second = cats();
            assert_eq!(second.len(), 1);
            assert_ne!(second, first, "a fresh child replaced the killed one");
        }
        let last = cats();
        drop(t);
        assert!(cats().is_empty());
        assert!(
            !std::path::Path::new(&format!("/proc/{}", last[0])).exists(),
            "the dropped transport's child was reaped"
        );
    }
}
