//! The `pardec serve` wire protocol and server loop.
//!
//! ## Frame layout
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! len u32 LE | body (len bytes)
//! ```
//!
//! `len` counts the body only and must not exceed [`MAX_FRAME`] (16 MiB);
//! oversized declarations are answered with [`ERR_FRAME_TOO_LARGE`] and the
//! connection is closed without reading the body.
//!
//! ## Requests
//!
//! The body starts with an opcode byte:
//!
//! | opcode | name | payload |
//! |--------|------|---------|
//! | `0x01` | `INFO` | — |
//! | `0x02` | `DIST` | `count u32, count × (u u32, v u32)` |
//! | `0x03` | `CLUSTER_OF` | `count u32, count × v u32` |
//! | `0x04` | `ECC` | `count u32, count × v u32` |
//! | `0x05` | `NEAREST` | `n_sources u32, n_probes u32, sources, probes` |
//! | `0x06` | `SHUTDOWN` | — |
//! | `0x07` | `STATS` | — |
//! | `0x08` | `RELOAD` | `path_len u32, path (UTF-8; empty = configured default)` |
//!
//! Every body decodes through the checked [`Reader`]: a short or overlong
//! payload is [`ERR_MALFORMED`], never a panic. Batch counts are capped at
//! [`MAX_BATCH`] per request **before** any allocation happens; larger
//! declarations are refused with [`ERR_BATCH_TOO_LARGE`]. (The cap also
//! keeps every success body under [`MAX_FRAME`], so the response writer's
//! size invariant is unreachable from the network.)
//!
//! ## Responses
//!
//! ```text
//! status u8 | opcode u8 | batch u32 | waves u32 | wave_rounds u32 | strategy u8 | body
//! ```
//!
//! `status = 0` is success; the echoed opcode names the request answered.
//! The middle fields are the [`QueryLedger`]: how many queries the batch
//! held, how many frontier waves it launched (a batched `NEAREST` reports
//! **1** — the amortization the daemon exists for), how many wave rounds
//! those took, and the strategy byte (`0` top-down, `1` bottom-up, `2`
//! hybrid). Success bodies:
//!
//! | request | body |
//! |---------|------|
//! | `INFO` | `nodes u64, edges u64, clusters u64, max_radius u32, has_oracle u8, growth_steps u64` |
//! | `DIST` | `count × u64` (`u64::MAX` = unreachable) |
//! | `CLUSTER_OF` | `count × u32` |
//! | `ECC` | `count × u64` |
//! | `NEAREST` | `n_probes × (source u32, dist u32)` (`0xFFFFFFFF` = unreached) |
//! | `SHUTDOWN` | — |
//! | `STATS` | see below |
//! | `RELOAD` | `epoch u64` (the generation now serving) |
//!
//! `STATS` is answered by the **server loop** (not [`execute`] — the
//! counters live with the daemon, not the session) from its running
//! [`ServerStats`]. Body layout (all integers LE):
//!
//! ```text
//! uptime_us u64 | total_requests u64 | errors u64 | bytes_in u64 |
//! bytes_out u64 | epoch u64 | timeouts u64 | shed u64 |
//! panics_caught u64 | reloads_ok u64 | reloads_rolled_back u64 |
//! n_ops u8 | n_ops × op-entry
//! op-entry: opcode u8 | count u64 | hist_count u64 | hist_sum u64 |
//!           n_buckets u8 (= 65) | 65 × bucket u64
//! ```
//!
//! `epoch` is the snapshot generation (1 on boot, bumped by every
//! successful `RELOAD`); the five counters after it are the
//! fault-tolerance ledger: deadline/socket timeouts, requests shed by the
//! admission gate, panics caught and isolated, and reload outcomes.
//!
//! Op entries appear in ascending opcode order, only for opcodes seen at
//! least once (slot `0` aggregates frames whose opcode never decoded). The
//! per-op histogram is a [`pardec_obs`] log2 latency histogram of request
//! handling micros — p50/p90/p99 are integer bucket bounds, no floats on
//! the wire. `total_requests` counts requests answered **before** the
//! `STATS` request itself, so an idle daemon reports 0 on first query.
//!
//! Error responses carry the code in `status`, a zero ledger, and a UTF-8
//! message as the body:
//!
//! | code | meaning |
//! |------|---------|
//! | 1 | [`ERR_MALFORMED`] — body failed to decode |
//! | 2 | [`ERR_UNKNOWN_OPCODE`] |
//! | 3 | [`ERR_OUT_OF_RANGE`] — node id ≥ n |
//! | 4 | [`ERR_ORACLE_MISSING`] — `DIST`/`ECC` on an oracle-less session |
//! | 5 | [`ERR_FRAME_TOO_LARGE`] |
//! | 6 | [`ERR_INTERNAL`] |
//! | 7 | [`ERR_TIMEOUT`] — per-request deadline or socket timeout expired |
//! | 8 | [`ERR_OVERLOADED`] — shed by the admission gate; body = `retry_after_ms u32` + message |
//! | 9 | [`ERR_BATCH_TOO_LARGE`] — batch count above [`MAX_BATCH`] |
//! | 10 | [`ERR_RELOAD_FAILED`] — replacement snapshot refused; old epoch keeps serving |
//! | 11 | [`ERR_FORBIDDEN`] — `RELOAD` on a daemon started without `--allow-reload` |
//!
//! Responses are **deterministic**: the bytes answering a request depend
//! only on the session contents, never on the pool size or accept thread —
//! the property `bench_serve` asserts at 1 vs 4 threads.
//!
//! ## Server
//!
//! [`serve`] runs a thread-per-core accept loop: `threads` OS threads share
//! one non-cloned [`TcpListener`] (std listeners are `Sync`; `accept` is
//! kernel-serialized), each handling its accepted connection to completion
//! before accepting again. Query execution happens inside the shim rayon
//! pool passed at spawn time, so wave parallelism and connection
//! parallelism compose. `SHUTDOWN` (or [`ServerHandle::shutdown`]) flips a
//! flag and self-connects to unblock every acceptor.
//!
//! ## Fault tolerance
//!
//! [`serve_with`] takes a [`ServeConfig`] that arms the hardening layer:
//!
//! - **Deadlines** — per-connection socket read/write timeouts, an idle
//!   timeout that reaps connections parked between requests, and a
//!   per-request deadline budget measured from the first byte of the
//!   length prefix. A request whose budget expires is answered with
//!   [`ERR_TIMEOUT`]; a peer that stalls mid-frame gets the same code and
//!   the connection is closed (the stream is no longer in sync).
//! - **Admission gate** — a bounded count of concurrent requests and
//!   inflight request bytes, checked after the 4-byte length prefix and
//!   *before* the body is buffered. Shed requests are drained and answered
//!   with [`ERR_OVERLOADED`] carrying a `retry_after_ms` hint; the
//!   connection stays open.
//! - **Panic isolation** — request execution runs under `catch_unwind`; a
//!   panicking request is answered with [`ERR_INTERNAL`] and only its own
//!   connection is closed. The daemon keeps serving.
//! - **Hot reload** — `OP_RELOAD` (gated by [`ServeConfig::allow_reload`])
//!   loads a replacement PDEC2 snapshot through [`Session::load_checked`]
//!   (the validating loader the daemon also starts with) into a fresh
//!   [`Session`] and swaps it behind an `Arc`; in-flight requests finish on
//!   the epoch they started with, and a corrupt replacement rolls back to
//!   the serving snapshot with [`ERR_RELOAD_FAILED`] — never a crash, never
//!   a dropped connection.

use crate::session::{QueryLedger, Session, SessionError};
use pardec_graph::codec::{invalid_data, Reader};
use pardec_graph::frontier::FrontierStrategy;
use pardec_graph::NodeId;
use pardec_obs::{AtomicLog2Histogram, Log2Histogram, BUCKETS};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a frame body (16 MiB) — a batch of ~1M distance pairs.
pub const MAX_FRAME: u32 = 16 << 20;

/// Hard cap on a single request's batch count (queries per frame). With
/// 8-byte answers this keeps every success body at ≤ 8 MiB + header, safely
/// under [`MAX_FRAME`] — the reason [`write_frame`]'s size assert is a
/// programmer invariant rather than a remotely reachable panic.
pub const MAX_BATCH: u32 = 1 << 20;

/// Cap on the `RELOAD` path payload.
pub const MAX_RELOAD_PATH: u32 = 4096;

/// Request opcodes.
pub const OP_INFO: u8 = 0x01;
pub const OP_DIST: u8 = 0x02;
pub const OP_CLUSTER_OF: u8 = 0x03;
pub const OP_ECC: u8 = 0x04;
pub const OP_NEAREST: u8 = 0x05;
pub const OP_SHUTDOWN: u8 = 0x06;
pub const OP_STATS: u8 = 0x07;
pub const OP_RELOAD: u8 = 0x08;

/// Test-only opcode: panics inside the request handler when
/// [`ServeConfig::debug_panic_op`] is set (the chaos suite's probe for
/// panic isolation); an unknown opcode otherwise.
pub const OP_DEBUG_PANIC: u8 = 0x6F;

/// Error codes carried in a response's `status` byte.
pub const ERR_MALFORMED: u8 = 1;
pub const ERR_UNKNOWN_OPCODE: u8 = 2;
pub const ERR_OUT_OF_RANGE: u8 = 3;
pub const ERR_ORACLE_MISSING: u8 = 4;
pub const ERR_FRAME_TOO_LARGE: u8 = 5;
pub const ERR_INTERNAL: u8 = 6;
pub const ERR_TIMEOUT: u8 = 7;
pub const ERR_OVERLOADED: u8 = 8;
pub const ERR_BATCH_TOO_LARGE: u8 = 9;
pub const ERR_RELOAD_FAILED: u8 = 10;
pub const ERR_FORBIDDEN: u8 = 11;

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Session metadata.
    Info,
    /// Batched §4 distance upper bounds.
    Distance(Vec<(NodeId, NodeId)>),
    /// Batched cluster-membership lookups.
    ClusterOf(Vec<NodeId>),
    /// Batched eccentricity upper bounds.
    Eccentricity(Vec<NodeId>),
    /// Batched nearest-source queries (one frontier wave for the batch).
    Nearest {
        /// Wave sources, activated together.
        sources: Vec<NodeId>,
        /// Probe nodes; each answers with its claiming source + distance.
        probes: Vec<NodeId>,
    },
    /// Stop the daemon after acknowledging.
    Shutdown,
    /// Daemon-side request counters + latency histograms (answered by the
    /// server loop, not the session).
    Stats,
    /// Hot-swap the serving snapshot (answered by the server loop; admin
    /// gated). An empty path means "the daemon's configured default".
    Reload {
        /// Filesystem path of the replacement PDEC2 snapshot.
        path: String,
    },
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Info => OP_INFO,
            Request::Distance(_) => OP_DIST,
            Request::ClusterOf(_) => OP_CLUSTER_OF,
            Request::Eccentricity(_) => OP_ECC,
            Request::Nearest { .. } => OP_NEAREST,
            Request::Shutdown => OP_SHUTDOWN,
            Request::Stats => OP_STATS,
            Request::Reload { .. } => OP_RELOAD,
        }
    }
}

/// A response, decomposed (what [`decode_response`] returns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// 0 = success, else one of the `ERR_*` codes.
    pub status: u8,
    /// Echo of the request opcode (0 when the opcode never decoded).
    pub opcode: u8,
    /// Batch size of the answered request.
    pub batch: u32,
    /// Frontier waves the batch launched.
    pub waves: u32,
    /// Total wave rounds.
    pub wave_rounds: u32,
    /// Strategy byte (see [`strategy_to_byte`]).
    pub strategy: u8,
    /// Result payload (or UTF-8 error message).
    pub body: Vec<u8>,
}

impl Response {
    /// The error message of a failed response, if printable.
    pub fn error_message(&self) -> Option<String> {
        (self.status != 0).then(|| String::from_utf8_lossy(&self.body).into_owned())
    }
}

/// Stable byte encoding of a frontier strategy.
pub fn strategy_to_byte(s: FrontierStrategy) -> u8 {
    match s {
        FrontierStrategy::TopDown => 0,
        FrontierStrategy::BottomUp => 1,
        FrontierStrategy::Hybrid => 2,
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    assert!(body.len() <= MAX_FRAME as usize, "frame body too large");
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    w.write_all(&buf)
}

/// Reads one frame body. `Ok(None)` on clean EOF before the length prefix;
/// an error mid-frame is a broken peer.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

/// Encodes a request into a frame body (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = vec![req.opcode()];
    let mut put = |x: u32| buf.extend_from_slice(&x.to_le_bytes());
    match req {
        Request::Info | Request::Shutdown | Request::Stats => {}
        Request::Distance(pairs) => {
            put(pairs.len() as u32);
            for &(u, v) in pairs {
                put(u);
                put(v);
            }
        }
        Request::ClusterOf(nodes) | Request::Eccentricity(nodes) => {
            put(nodes.len() as u32);
            nodes.iter().for_each(|&v| put(v));
        }
        Request::Nearest { sources, probes } => {
            put(sources.len() as u32);
            put(probes.len() as u32);
            sources.iter().chain(probes).for_each(|&v| put(v));
        }
        Request::Reload { path } => {
            put(path.len() as u32);
            buf.extend_from_slice(path.as_bytes());
        }
    }
    buf
}

/// Decode failure: the error code + message the server answers with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// One of the `ERR_*` codes.
    pub code: u8,
    /// Human-readable detail (becomes the response body).
    pub message: String,
    /// Opcode to echo (0 if it never decoded).
    pub opcode: u8,
}

fn malformed(opcode: u8, msg: impl Into<String>) -> WireError {
    WireError {
        code: ERR_MALFORMED,
        message: msg.into(),
        opcode,
    }
}

/// Decodes a request frame body with the default [`MAX_BATCH`] cap.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    decode_request_limited(body, MAX_BATCH)
}

/// Decodes a request frame body, refusing batches above `max_batch`
/// **before** allocating for them. Declared counts are validated against
/// both the cap and the actual payload length, so a hostile 4-byte frame
/// claiming a billion queries costs nothing.
pub fn decode_request_limited(body: &[u8], max_batch: u32) -> Result<Request, WireError> {
    let mut r = Reader::new(body);
    let opcode = r.u8().map_err(|_| malformed(0, "empty request"))?;
    let bad = move |e: io::Error| malformed(opcode, format!("opcode {opcode:#04x}: {e}"));
    let cap = |count: u32| -> Result<usize, WireError> {
        if count > max_batch {
            return Err(WireError {
                code: ERR_BATCH_TOO_LARGE,
                message: format!("batch of {count} exceeds the {max_batch}-query cap"),
                opcode,
            });
        }
        Ok(count as usize)
    };
    let req = match opcode {
        OP_INFO => Request::Info,
        OP_SHUTDOWN => Request::Shutdown,
        OP_STATS => Request::Stats,
        OP_DIST => {
            let count = cap(r.u32().map_err(bad)?)?;
            let pairs = r.items(count, |b: [u8; 8]| {
                let x = u64::from_le_bytes(b);
                (x as NodeId, (x >> 32) as NodeId)
            });
            Request::Distance(pairs.map_err(bad)?)
        }
        OP_CLUSTER_OF | OP_ECC => {
            let count = cap(r.u32().map_err(bad)?)?;
            let nodes = r.u32s(count).map_err(bad)?;
            if opcode == OP_CLUSTER_OF {
                Request::ClusterOf(nodes)
            } else {
                Request::Eccentricity(nodes)
            }
        }
        OP_NEAREST => {
            let (n_sources, n_probes) = (r.u32().map_err(bad)?, r.u32().map_err(bad)?);
            let (n_sources, n_probes) = (cap(n_sources)?, cap(n_probes)?);
            Request::Nearest {
                sources: r.u32s(n_sources).map_err(bad)?,
                probes: r.u32s(n_probes).map_err(bad)?,
            }
        }
        OP_RELOAD => {
            let path_len = r.u32().map_err(bad)?;
            if path_len > MAX_RELOAD_PATH {
                return Err(malformed(opcode, "RELOAD: path too long"));
            }
            let path = std::str::from_utf8(r.bytes(path_len as usize).map_err(bad)?)
                .map_err(|_| malformed(opcode, "RELOAD: path is not UTF-8"))?;
            Request::Reload {
                path: path.to_owned(),
            }
        }
        other => {
            return Err(WireError {
                code: ERR_UNKNOWN_OPCODE,
                message: format!("unknown opcode {other:#04x}"),
                opcode: other,
            })
        }
    };
    r.finish().map_err(bad)?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

fn response_frame(status: u8, opcode: u8, ledger: Option<QueryLedger>, body: &[u8]) -> Vec<u8> {
    let (batch, waves, rounds, strategy) = ledger.map_or((0, 0, 0, 0), |l| {
        (
            l.batch,
            l.waves,
            l.wave_rounds,
            strategy_to_byte(l.strategy),
        )
    });
    let mut buf = Vec::with_capacity(15 + body.len());
    buf.extend_from_slice(&[status, opcode]);
    for x in [batch, waves, rounds] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.push(strategy);
    buf.extend_from_slice(body);
    buf
}

/// Decodes a response frame body (client side).
pub fn decode_response(body: &[u8]) -> io::Result<Response> {
    let mut r = Reader::new(body);
    Ok(Response {
        status: r.u8()?,
        opcode: r.u8()?,
        batch: r.u32()?,
        waves: r.u32()?,
        wave_rounds: r.u32()?,
        strategy: r.u8()?,
        body: r.rest().to_vec(),
    })
}

fn session_error_frame(opcode: u8, e: &SessionError) -> Vec<u8> {
    let code = match e {
        SessionError::NodeOutOfRange(_) => ERR_OUT_OF_RANGE,
        SessionError::OracleMissing => ERR_ORACLE_MISSING,
    };
    response_frame(code, opcode, None, e.to_string().as_bytes())
}

/// Executes one decoded request against a session, producing the response
/// frame body. Pure with respect to the session — this is the function the
/// golden-bytes tests pin down.
pub fn execute(session: &Session, req: &Request) -> Vec<u8> {
    let opcode = req.opcode();
    match req {
        Request::Info => {
            let (graph, clustering) = (session.graph(), session.clustering());
            let mut body = Vec::with_capacity(8 * 4 + 5);
            for x in [
                graph.num_nodes(),
                graph.num_edges(),
                clustering.num_clusters(),
            ] {
                body.extend_from_slice(&(x as u64).to_le_bytes());
            }
            body.extend_from_slice(&clustering.max_radius().to_le_bytes());
            body.push(session.oracle().is_some() as u8);
            body.extend_from_slice(&(session.growth_steps() as u64).to_le_bytes());
            let ledger = QueryLedger {
                batch: 0,
                waves: 0,
                wave_rounds: 0,
                strategy: session.frontier(),
            };
            response_frame(0, opcode, Some(ledger), &body)
        }
        Request::Shutdown => response_frame(
            0,
            opcode,
            Some(QueryLedger {
                batch: 0,
                waves: 0,
                wave_rounds: 0,
                strategy: session.frontier(),
            }),
            &[],
        ),
        // The counters live with the running daemon, not the session;
        // `execute` stays pure, so a bare session cannot answer STATS.
        Request::Stats => response_frame(
            ERR_INTERNAL,
            opcode,
            None,
            b"STATS is answered by the server loop, not a bare session",
        ),
        // Likewise RELOAD: the session swap lives with the daemon.
        Request::Reload { .. } => response_frame(
            ERR_INTERNAL,
            opcode,
            None,
            b"RELOAD is answered by the server loop, not a bare session",
        ),
        Request::Distance(pairs) => match session.distance(pairs) {
            Err(e) => session_error_frame(opcode, &e),
            Ok((dists, ledger)) => {
                let mut body = Vec::with_capacity(dists.len() * 8);
                for d in dists {
                    body.extend_from_slice(&d.to_le_bytes());
                }
                response_frame(0, opcode, Some(ledger), &body)
            }
        },
        Request::ClusterOf(nodes) => match session.cluster_of(nodes) {
            Err(e) => session_error_frame(opcode, &e),
            Ok((clusters, ledger)) => {
                let mut body = Vec::with_capacity(clusters.len() * 4);
                for c in clusters {
                    body.extend_from_slice(&c.to_le_bytes());
                }
                response_frame(0, opcode, Some(ledger), &body)
            }
        },
        Request::Eccentricity(nodes) => match session.eccentricity(nodes) {
            Err(e) => session_error_frame(opcode, &e),
            Ok((bounds, ledger)) => {
                let mut body = Vec::with_capacity(bounds.len() * 8);
                for b in bounds {
                    body.extend_from_slice(&b.to_le_bytes());
                }
                response_frame(0, opcode, Some(ledger), &body)
            }
        },
        Request::Nearest { sources, probes } => match session.nearest(sources, probes) {
            Err(e) => session_error_frame(opcode, &e),
            Ok((answers, ledger)) => {
                let mut body = Vec::with_capacity(answers.len() * 8);
                for (src, dist) in answers {
                    body.extend_from_slice(&src.to_le_bytes());
                    body.extend_from_slice(&dist.to_le_bytes());
                }
                response_frame(0, opcode, Some(ledger), &body)
            }
        },
    }
}

/// Answers one raw request frame body (decode → execute), mapping decode
/// failures to error responses. Never panics on hostile input.
pub fn answer(session: &Session, frame: &[u8]) -> (Vec<u8>, bool) {
    match decode_request(frame) {
        Ok(req) => {
            let shutdown = req == Request::Shutdown;
            (execute(session, &req), shutdown)
        }
        Err(e) => (
            response_frame(e.code, e.opcode, None, e.message.as_bytes()),
            false,
        ),
    }
}

// ---------------------------------------------------------------------
// Server-side stats (the STATS surface)
// ---------------------------------------------------------------------

/// Slots in the per-opcode table: index 0 aggregates frames whose opcode
/// never decoded; indices 1..=8 are the opcodes themselves.
const NUM_OP_SLOTS: usize = OP_RELOAD as usize + 1;

struct OpSlot {
    count: AtomicU64,
    latency: AtomicLog2Histogram,
}

/// Live request counters of a running daemon: relaxed atomics shared by all
/// accept threads, so recording never perturbs request handling. Snapshot
/// with [`ServerStats::snapshot`]; ship with [`encode_stats_body`].
pub struct ServerStats {
    started: Instant,
    total_requests: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Snapshot generation: 1 on boot, bumped by every successful reload.
    epoch: AtomicU64,
    timeouts: AtomicU64,
    shed: AtomicU64,
    panics_caught: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_rolled_back: AtomicU64,
    per_op: [OpSlot; NUM_OP_SLOTS],
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh counters; `uptime_us` is measured from this call.
    pub fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            total_requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            epoch: AtomicU64::new(1),
            timeouts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            reloads_ok: AtomicU64::new(0),
            reloads_rolled_back: AtomicU64::new(0),
            per_op: std::array::from_fn(|_| OpSlot {
                count: AtomicU64::new(0),
                latency: AtomicLog2Histogram::new(),
            }),
        }
    }

    /// Records one answered frame. `opcode` 0 (or out of table range) lands
    /// in the undecodable slot; `micros` is wall time from frame decode to
    /// response write.
    pub fn record(&self, opcode: u8, ok: bool, bytes_in: u64, bytes_out: u64, micros: u64) {
        let slot = if (opcode as usize) < NUM_OP_SLOTS {
            opcode as usize
        } else {
            0
        };
        self.total_requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.per_op[slot].count.fetch_add(1, Ordering::Relaxed);
        self.per_op[slot].latency.record(micros);
    }

    /// Records a deadline or socket timeout (idle reaps are lifecycle, not
    /// timeouts, and are deliberately not counted here).
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        pardec_obs::counter("serve.timeouts", 1);
    }

    /// Records a request shed by the admission gate.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        pardec_obs::counter("serve.shed", 1);
    }

    /// Records a panic caught and isolated on the request path.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
        pardec_obs::counter("serve.panics_caught", 1);
    }

    /// Records a reload outcome; a success bumps the epoch and returns the
    /// generation now serving.
    pub fn record_reload(&self, ok: bool) -> u64 {
        if ok {
            pardec_obs::counter("serve.reloads.ok", 1);
            self.reloads_ok.fetch_add(1, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            pardec_obs::counter("serve.reloads.rolled_back", 1);
            self.reloads_rolled_back.fetch_add(1, Ordering::Relaxed);
            self.epoch.load(Ordering::Relaxed)
        }
    }

    /// The snapshot generation now serving (1 until the first reload).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let per_op = self
            .per_op
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count.load(Ordering::Relaxed) > 0)
            .map(|(op, s)| OpStats {
                opcode: op as u8,
                count: s.count.load(Ordering::Relaxed),
                latency: s.latency.snapshot(),
            })
            .collect();
        StatsSnapshot {
            uptime_us: self.started.elapsed().as_micros() as u64,
            total_requests: self.total_requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            reloads_ok: self.reloads_ok.load(Ordering::Relaxed),
            reloads_rolled_back: self.reloads_rolled_back.load(Ordering::Relaxed),
            per_op,
        }
    }
}

/// Per-opcode slice of a [`StatsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStats {
    /// Request opcode (0 = frames whose opcode never decoded).
    pub opcode: u8,
    /// Frames answered under this opcode.
    pub count: u64,
    /// Request-handling latency distribution, in microseconds.
    pub latency: Log2Histogram,
}

/// What a `STATS` response carries (see the module docs for the layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Microseconds since the daemon started.
    pub uptime_us: u64,
    /// Frames answered before this snapshot (the STATS frame itself is
    /// recorded only after its response is written).
    pub total_requests: u64,
    /// Of those, how many were answered with a non-zero status.
    pub errors: u64,
    /// Wire bytes received (frames + length prefixes).
    pub bytes_in: u64,
    /// Wire bytes sent (frames + length prefixes).
    pub bytes_out: u64,
    /// Snapshot generation now serving (1 on boot; +1 per reload).
    pub epoch: u64,
    /// Requests answered with [`ERR_TIMEOUT`] (deadline or socket).
    pub timeouts: u64,
    /// Requests shed with [`ERR_OVERLOADED`] by the admission gate.
    pub shed: u64,
    /// Panics caught on the request path and isolated to one connection.
    pub panics_caught: u64,
    /// Successful hot reloads (each bumped `epoch`).
    pub reloads_ok: u64,
    /// Reload attempts refused and rolled back to the serving snapshot.
    pub reloads_rolled_back: u64,
    /// Per-opcode counts + latency histograms, ascending opcode, seen
    /// opcodes only.
    pub per_op: Vec<OpStats>,
}

/// Fixed `STATS` body header size: 11 × u64 + the `n_ops` byte.
pub const STATS_HEADER: usize = 89;

/// Encodes a stats snapshot into a `STATS` response body.
pub fn encode_stats_body(s: &StatsSnapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(STATS_HEADER + s.per_op.len() * (26 + BUCKETS * 8));
    for x in [
        s.uptime_us,
        s.total_requests,
        s.errors,
        s.bytes_in,
        s.bytes_out,
        s.epoch,
        s.timeouts,
        s.shed,
        s.panics_caught,
        s.reloads_ok,
        s.reloads_rolled_back,
    ] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.push(s.per_op.len() as u8);
    for op in &s.per_op {
        buf.push(op.opcode);
        for x in [op.count, op.latency.count(), op.latency.sum()] {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf.push(BUCKETS as u8);
        for &c in op.latency.counts() {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf
}

/// Decodes a `STATS` response body (client side).
pub fn decode_stats_body(body: &[u8]) -> io::Result<StatsSnapshot> {
    let mut r = Reader::new(body);
    let mut s = StatsSnapshot {
        uptime_us: r.u64()?,
        total_requests: r.u64()?,
        errors: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        epoch: r.u64()?,
        timeouts: r.u64()?,
        shed: r.u64()?,
        panics_caught: r.u64()?,
        reloads_ok: r.u64()?,
        reloads_rolled_back: r.u64()?,
        per_op: Vec::new(),
    };
    for _ in 0..r.u8()? {
        let (opcode, count, hist_count, hist_sum) = (r.u8()?, r.u64()?, r.u64()?, r.u64()?);
        if r.u8()? as usize != BUCKETS {
            return Err(invalid_data("STATS body: unexpected bucket count"));
        }
        let mut counts = [0u64; BUCKETS];
        for c in &mut counts {
            *c = r.u64()?;
        }
        s.per_op.push(OpStats {
            opcode,
            count,
            latency: Log2Histogram::from_parts(counts, hist_count, hist_sum),
        });
    }
    r.finish()?;
    Ok(s)
}

/// Builds the full `STATS` response frame (status 0, zero ledger).
pub fn stats_response_frame(s: &StatsSnapshot) -> Vec<u8> {
    response_frame(0, OP_STATS, None, &encode_stats_body(s))
}

// ---------------------------------------------------------------------
// Serve configuration, admission gate, deadlines
// ---------------------------------------------------------------------

/// Tunables of the fault-tolerance layer (see the module docs). The
/// defaults are generous enough that well-behaved clients — including the
/// in-process `bench_serve` load runs — never trip them.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Socket timeout for each read while inside a frame (slow-loris
    /// defense). Answered with [`ERR_TIMEOUT`], then the connection closes
    /// (the stream is out of sync).
    pub read_timeout: Duration,
    /// Socket timeout for writing a response to a peer that stopped
    /// reading.
    pub write_timeout: Duration,
    /// How long a connection may sit idle *between* requests before it is
    /// reaped — a plain close, deliberately not counted as a timeout.
    pub idle_timeout: Duration,
    /// Per-request deadline budget, measured from the first byte of the
    /// length prefix through decode and execute. `Duration::ZERO` means
    /// "already expired" (every request answers [`ERR_TIMEOUT`]) — useful
    /// for deterministic tests, not production.
    pub deadline: Duration,
    /// Per-request batch-count cap ([`ERR_BATCH_TOO_LARGE`] above it).
    pub max_batch: u32,
    /// Concurrent requests admitted across all connections; the gate sheds
    /// above this with [`ERR_OVERLOADED`].
    pub max_concurrent: u32,
    /// Total request-body bytes buffered at once across all connections.
    pub max_inflight_bytes: u64,
    /// Retry hint carried in [`ERR_OVERLOADED`] bodies.
    pub retry_after_ms: u32,
    /// Whether `OP_RELOAD` is honored ([`ERR_FORBIDDEN`] otherwise).
    pub allow_reload: bool,
    /// Snapshot path used when a `RELOAD` request carries an empty path.
    pub reload_default_path: Option<String>,
    /// Arms [`OP_DEBUG_PANIC`] — the chaos suite's probe for panic
    /// isolation. Never set outside tests.
    pub debug_panic_op: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            deadline: Duration::from_secs(60),
            max_batch: MAX_BATCH,
            max_concurrent: 256,
            max_inflight_bytes: 256 << 20,
            retry_after_ms: 100,
            allow_reload: false,
            reload_default_path: None,
            debug_panic_op: false,
        }
    }
}

/// Bounded admission: a request over the concurrency or inflight-byte cap
/// is shed with [`ERR_OVERLOADED`] instead of queueing unboundedly.
pub struct AdmissionGate {
    max_concurrent: u64,
    max_inflight_bytes: u64,
    concurrent: AtomicU64,
    inflight_bytes: AtomicU64,
}

/// An admitted request's slot; releases its count + bytes on drop.
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
    bytes: u64,
}

impl AdmissionGate {
    /// A gate sized from `config`.
    pub fn new(config: &ServeConfig) -> Self {
        AdmissionGate {
            max_concurrent: config.max_concurrent as u64,
            max_inflight_bytes: config.max_inflight_bytes,
            concurrent: AtomicU64::new(0),
            inflight_bytes: AtomicU64::new(0),
        }
    }

    /// Tries to admit one request whose body is `bytes` long; `None` means
    /// shed. Optimistic add-then-undo: one RMW per counter on the hot
    /// path; a race can only shed spuriously, never over-admit.
    pub fn try_admit(&self, bytes: u64) -> Option<AdmissionPermit<'_>> {
        let c = self.concurrent.fetch_add(1, Ordering::AcqRel);
        let b = self.inflight_bytes.fetch_add(bytes, Ordering::AcqRel);
        if c >= self.max_concurrent || b.saturating_add(bytes) > self.max_inflight_bytes {
            self.concurrent.fetch_sub(1, Ordering::AcqRel);
            self.inflight_bytes.fetch_sub(bytes, Ordering::AcqRel);
            None
        } else {
            Some(AdmissionPermit { gate: self, bytes })
        }
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.concurrent.fetch_sub(1, Ordering::AcqRel);
        self.gate
            .inflight_bytes
            .fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// A per-request deadline budget. Stored as start + budget (not an
/// absolute `Instant`) so a huge budget cannot overflow.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    fn start(budget: Duration) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget,
        }
    }

    fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

/// `set_read_timeout(Some(ZERO))` is an error in std; clamp to ≥ 1 ms.
fn socket_timeout(d: Duration) -> Option<Duration> {
    Some(d.max(Duration::from_millis(1)))
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Outcome of filling a buffer from a socket with timeouts armed.
enum ReadStep {
    /// Every byte arrived.
    Done,
    /// EOF — at the buffer's start (a clean goodbye) or mid-buffer (a torn
    /// frame); either way the connection is done.
    Eof,
    /// The socket timeout or the request deadline fired first.
    Timedout,
    /// A non-timeout transport error.
    Failed(io::Error),
}

/// Reads exactly `buf.len()` bytes, honoring the socket read timeout and
/// (between reads) the request deadline. The completeness check runs
/// *before* the deadline check: a buffer whose last byte just arrived is
/// complete, and the expired budget is the next stage's problem — that
/// ordering is what makes a `Duration::ZERO` deadline deterministic (the
/// polite pre-execute [`ERR_TIMEOUT`], never a spurious mid-read one).
fn read_full(stream: &mut TcpStream, buf: &mut [u8], deadline: Option<&Deadline>) -> ReadStep {
    let mut filled = 0;
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ReadStep::Eof,
            Ok(n) => {
                filled += n;
                if filled == buf.len() {
                    return ReadStep::Done;
                }
                if let Some(d) = deadline {
                    if d.expired() {
                        return ReadStep::Timedout;
                    }
                }
            }
            Err(e) if is_timeout(e.kind()) => return ReadStep::Timedout,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadStep::Failed(e),
        }
    }
}

// ---------------------------------------------------------------------
// Server loop
// ---------------------------------------------------------------------

/// Shared state of a running daemon: the swappable session, the counters,
/// the admission gate, and the config.
struct ServerState {
    /// The serving session. Every request clones the `Arc` under the read
    /// lock (nanoseconds), so a reload's write-lock swap waits only for
    /// those clones, never for request execution — in-flight requests
    /// finish on the epoch they started with.
    session: RwLock<Arc<Session>>,
    stats: Arc<ServerStats>,
    gate: AdmissionGate,
    config: ServeConfig,
    /// Worker pool for query execution (waves, oracle batches). Entered
    /// per request, never held across requests.
    pool: Arc<rayon::ThreadPool>,
    /// The daemon-wide stop flag. Idle connection handlers poll it so a
    /// shutdown never waits out a full idle timeout on open connections.
    stop: Arc<AtomicBool>,
}

impl ServerState {
    fn current_session(&self) -> Arc<Session> {
        // A poisoned lock is still a coherent lock: the swap is a single
        // assignment, never a half-state, so recover and keep serving.
        self.session
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// A running daemon: join handles + shutdown trigger.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port 0 bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the daemon's request counters — the same
    /// numbers an `OP_STATS` request reads over the wire.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }

    /// The snapshot generation now serving (1 until the first reload).
    pub fn epoch(&self) -> u64 {
        self.state.stats.epoch()
    }

    /// An in-process reload trigger that outlives [`Self::join`].
    pub fn reloader(&self) -> Reloader {
        Reloader {
            state: self.state.clone(),
        }
    }

    /// Requests shutdown and unblocks every acceptor.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.threads.len() {
            // Wake an acceptor blocked in `accept`; errors mean it is
            // already gone, which is fine.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Waits for every accept thread to exit. Call [`Self::shutdown`] first
    /// (or send an `OP_SHUTDOWN` request) or this blocks forever.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn error_response(code: u8, opcode: u8, msg: &str) -> Vec<u8> {
    response_frame(code, opcode, None, msg.as_bytes())
}

fn overload_response(opcode: u8, retry_after_ms: u32) -> Vec<u8> {
    let mut body = retry_after_ms.to_le_bytes().to_vec();
    body.extend_from_slice(b"overloaded; retry after the hinted delay");
    response_frame(ERR_OVERLOADED, opcode, None, &body)
}

/// Loads + validates the replacement through the checked loader **outside**
/// any lock, swaps on success, rolls back — keeps serving the old epoch —
/// on any failure. Returns the new epoch or the rollback message. Never
/// panics, never drops a connection.
fn reload_session(state: &ServerState, path: &str) -> Result<u64, String> {
    let path = if path.is_empty() {
        match &state.config.reload_default_path {
            Some(p) => p.clone(),
            None => {
                state.stats.record_reload(false);
                return Err("empty path and no default snapshot path configured".into());
            }
        }
    } else {
        path.to_owned()
    };
    let frontier = state.current_session().frontier();
    let loaded = std::fs::read(&path)
        .map_err(|e| format!("read {path}: {e}"))
        .and_then(|bytes| {
            Session::load_checked(&bytes, frontier).map_err(|e| format!("load {path}: {e}"))
        });
    match loaded {
        Ok(fresh) => {
            *state.session.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(fresh);
            Ok(state.stats.record_reload(true))
        }
        Err(msg) => {
            state.stats.record_reload(false);
            Err(format!("rolled back to the serving snapshot: {msg}"))
        }
    }
}

/// Answers `OP_RELOAD` over the wire: the admin gate first, then
/// [`reload_session`]'s swap-or-rollback.
fn handle_reload(state: &ServerState, path: &str) -> Vec<u8> {
    if !state.config.allow_reload {
        return error_response(
            ERR_FORBIDDEN,
            OP_RELOAD,
            "reload is disabled (start the daemon with --allow-reload)",
        );
    }
    match reload_session(state, path) {
        Ok(epoch) => response_frame(0, OP_RELOAD, None, &epoch.to_le_bytes()),
        Err(msg) => error_response(ERR_RELOAD_FAILED, OP_RELOAD, &msg),
    }
}

/// A cheap, cloneable in-process reload trigger — what the CLI's
/// `--reload-signal` watcher holds for the daemon's lifetime.
#[derive(Clone)]
pub struct Reloader {
    state: Arc<ServerState>,
}

impl Reloader {
    /// Same validation + rollback semantics as a wire `OP_RELOAD`, minus
    /// the admin gate (the holder owns the process). `None` reloads the
    /// configured default path. Returns the epoch now serving.
    pub fn reload(&self, path: Option<&str>) -> Result<u64, String> {
        reload_session(&self.state, path.unwrap_or(""))
    }

    /// The snapshot generation now serving.
    pub fn epoch(&self) -> u64 {
        self.state.stats.epoch()
    }
}

/// What the connection loop does after writing a response.
enum Outcome {
    /// Keep the connection and read the next frame.
    Continue,
    /// Close this connection only.
    Close,
    /// Stop the whole daemon.
    Shutdown,
}

/// Drains and discards the `len`-byte body of a shed request, returning
/// its first byte (the opcode) for the stats ledger.
fn drain_body(stream: &mut TcpStream, len: u32, deadline: &Deadline) -> io::Result<u8> {
    let mut opcode = 0u8;
    let mut left = len as usize;
    let mut scratch = [0u8; 8192];
    let mut first = true;
    while left > 0 {
        let take = left.min(scratch.len());
        match read_full(stream, &mut scratch[..take], Some(deadline)) {
            ReadStep::Done => {
                if first {
                    opcode = scratch[0];
                    first = false;
                }
                left -= take;
            }
            ReadStep::Failed(e) => return Err(e),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer stalled while its shed request was drained",
                ))
            }
        }
    }
    Ok(opcode)
}

/// Decode → deadline check → execute, for an admitted, fully buffered
/// frame. Returns `(response, outcome, opcode, ok)`. The caller wraps this
/// in `catch_unwind`, so a panic anywhere below answers `ERR_INTERNAL` and
/// costs one connection, not the process.
fn answer_admitted(
    state: &ServerState,
    frame: &[u8],
    deadline: &Deadline,
) -> (Vec<u8>, Outcome, u8, bool) {
    // A frame that arrived after its budget is answered politely: the
    // stream is in sync, so the connection survives.
    if deadline.expired() {
        state.stats.record_timeout();
        let opcode = frame.first().copied().unwrap_or(0);
        let resp = error_response(
            ERR_TIMEOUT,
            opcode,
            "request deadline expired before execution",
        );
        return (resp, Outcome::Continue, opcode, false);
    }
    if state.config.debug_panic_op && frame.first() == Some(&OP_DEBUG_PANIC) {
        panic!("debug panic opcode tripped (chaos harness)");
    }
    // STATS and RELOAD are answered here, from the daemon's state, with
    // the stats snapshot taken *before* this frame is recorded —
    // `total_requests` is exactly the number of previously answered
    // frames. Everything else goes through the pure `execute` path on the
    // session arc current at this instant.
    match decode_request_limited(frame, state.config.max_batch) {
        Ok(Request::Stats) => (
            stats_response_frame(&state.stats.snapshot()),
            Outcome::Continue,
            OP_STATS,
            true,
        ),
        Ok(Request::Reload { path }) => {
            let resp = handle_reload(state, &path);
            let ok = resp.first() == Some(&0);
            (resp, Outcome::Continue, OP_RELOAD, ok)
        }
        Ok(req) => {
            let shutdown = req == Request::Shutdown;
            let session = state.current_session();
            // Only query execution enters the worker pool — connections
            // themselves live on acceptor threads, so an open-but-idle
            // connection never pins a worker (or starves other clients
            // on a 1-worker pool).
            let resp = state.pool.install(|| execute(&session, &req));
            let ok = resp.first() == Some(&0);
            let outcome = if shutdown {
                Outcome::Shutdown
            } else {
                Outcome::Continue
            };
            (resp, outcome, req.opcode(), ok)
        }
        Err(e) => (
            error_response(e.code, e.opcode, &e.message),
            Outcome::Continue,
            e.opcode,
            false,
        ),
    }
}

fn handle_connection(state: &ServerState, stream: &mut TcpStream) -> io::Result<bool> {
    stream.set_nodelay(true).ok();
    let cfg = &state.config;
    let stats = &*state.stats;
    stream.set_write_timeout(socket_timeout(cfg.write_timeout))?;
    loop {
        // Idle phase: wait for the first byte of the next length prefix
        // under the idle timeout, polling in short slices so a daemon
        // shutdown never waits out the full timeout on an open-but-quiet
        // connection. Reaping here is lifecycle, not an error.
        let idle_since = Instant::now();
        stream.set_read_timeout(socket_timeout(
            cfg.idle_timeout.min(Duration::from_millis(100)),
        ))?;
        let mut prefix = [0u8; 4];
        loop {
            match read_full(stream, &mut prefix[..1], None) {
                ReadStep::Done => break,
                ReadStep::Eof => return Ok(false), // clean EOF
                ReadStep::Timedout => {
                    if state.stop.load(Ordering::SeqCst) {
                        return Ok(false); // daemon is shutting down
                    }
                    if idle_since.elapsed() >= cfg.idle_timeout {
                        return Ok(false); // idle reap
                    }
                }
                ReadStep::Failed(e) => return Err(e),
            }
        }
        // In-frame: the request deadline runs from its first byte.
        let deadline = Deadline::start(cfg.deadline);
        stream.set_read_timeout(socket_timeout(cfg.read_timeout))?;
        match read_full(stream, &mut prefix[1..], Some(&deadline)) {
            ReadStep::Done => {}
            ReadStep::Eof => return Ok(false), // torn prefix
            ReadStep::Timedout => {
                stats.record_timeout();
                let resp = error_response(ERR_TIMEOUT, 0, "timed out reading length prefix");
                let _ = write_frame(stream, &resp);
                stats.record(0, false, 1, 4 + resp.len() as u64, 0);
                return Ok(false);
            }
            ReadStep::Failed(e) => return Err(e),
        }
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME {
            // Oversized declaration: answer with the error code, then drop
            // the connection (the stream is no longer in sync).
            let resp = error_response(
                ERR_FRAME_TOO_LARGE,
                0,
                &format!("declared frame of {len} bytes exceeds MAX_FRAME"),
            );
            write_frame(stream, &resp)?;
            stats.record(0, false, 4, 4 + resp.len() as u64, 0);
            return Ok(false);
        }
        // Admission — checked on the declared length, *before* the body is
        // buffered; shed requests are drained and the connection survives.
        let Some(permit) = state.gate.try_admit(len as u64) else {
            let opcode = match drain_body(stream, len, &deadline) {
                Ok(op) => op,
                Err(_) => return Ok(false),
            };
            stats.record_shed();
            let resp = overload_response(opcode, cfg.retry_after_ms);
            write_frame(stream, &resp)?;
            stats.record(opcode, false, 4 + len as u64, 4 + resp.len() as u64, 0);
            continue;
        };
        let started = Instant::now();
        let mut frame = vec![0u8; len as usize];
        match read_full(stream, &mut frame, Some(&deadline)) {
            ReadStep::Done => {}
            ReadStep::Eof => return Ok(false), // mid-frame disconnect
            ReadStep::Timedout => {
                stats.record_timeout();
                let resp = error_response(ERR_TIMEOUT, 0, "timed out reading request body");
                let _ = write_frame(stream, &resp);
                stats.record(0, false, 4 + len as u64, 4 + resp.len() as u64, 0);
                return Ok(false);
            }
            ReadStep::Failed(e) => return Err(e),
        }
        let mut req_span = pardec_obs::span!("serve.request", bytes_in = frame.len());
        let answered = catch_unwind(AssertUnwindSafe(|| {
            answer_admitted(state, &frame, &deadline)
        }));
        drop(permit);
        let (resp, outcome, opcode, ok) = answered.unwrap_or_else(|_| {
            stats.record_panic_caught();
            let opcode = frame.first().copied().unwrap_or(0);
            (
                error_response(
                    ERR_INTERNAL,
                    opcode,
                    "panic in request handler; closing this connection",
                ),
                Outcome::Close,
                opcode,
                false,
            )
        });
        match write_frame(stream, &resp) {
            Ok(()) => {}
            Err(e) if is_timeout(e.kind()) => {
                // The peer stopped reading: count it and walk away.
                stats.record_timeout();
                stats.record(
                    opcode,
                    false,
                    4 + frame.len() as u64,
                    0,
                    started.elapsed().as_micros() as u64,
                );
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
        req_span.field("opcode", opcode);
        req_span.field("ok", ok);
        req_span.field("bytes_out", resp.len());
        drop(req_span);
        stats.record(
            opcode,
            ok,
            4 + frame.len() as u64,
            4 + resp.len() as u64,
            started.elapsed().as_micros() as u64,
        );
        match outcome {
            Outcome::Continue => {}
            Outcome::Close => return Ok(false),
            Outcome::Shutdown => return Ok(true),
        }
    }
}

/// Spawns the accept loop: `threads` OS threads sharing `listener`, each
/// executing its connections' queries inside `pool`. Returns immediately.
///
/// `threads` is clamped to ≥ 1. The pool is shared — wave execution uses
/// `pool.install`, which is safe from multiple OS threads concurrently (the
/// shim pool work-steals across external waiters).
pub fn serve(
    listener: TcpListener,
    session: Arc<Session>,
    pool: Arc<rayon::ThreadPool>,
    threads: usize,
) -> io::Result<ServerHandle> {
    serve_with(listener, session, pool, threads, ServeConfig::default())
}

/// [`serve`] with explicit fault-tolerance tunables.
pub fn serve_with(
    listener: TcpListener,
    session: Arc<Session>,
    pool: Arc<rayon::ThreadPool>,
    threads: usize,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let state = Arc::new(ServerState {
        session: RwLock::new(session),
        stats: Arc::new(ServerStats::new()),
        gate: AdmissionGate::new(&config),
        config,
        pool,
        stop: stop.clone(),
    });
    let listener = Arc::new(listener);
    let mut handles = Vec::new();
    for i in 0..threads.max(1) {
        let (listener, state, stop) = (listener.clone(), state.clone(), stop.clone());
        handles.push(
            std::thread::Builder::new()
                .name(format!("pardec-accept-{i}"))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let Ok((mut stream, _)) = listener.accept() else {
                            continue;
                        };
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // The connection lives on this acceptor thread;
                        // only query execution enters the worker pool.
                        // Per-request panics are already caught inside
                        // `handle_connection`; this outer net keeps the
                        // acceptor itself immortal if the connection
                        // plumbing ever panics.
                        let wants_shutdown = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&state, &mut stream)
                        }))
                        .unwrap_or_else(|_| {
                            state.stats.record_panic_caught();
                            Ok(false)
                        })
                        .unwrap_or(false);
                        if wants_shutdown {
                            stop.store(true, Ordering::SeqCst);
                            // Unblock sibling acceptors.
                            for _ in 0..threads {
                                let _ = TcpStream::connect(addr);
                            }
                        }
                    }
                })?,
        );
    }
    Ok(ServerHandle {
        addr,
        stop,
        threads: handles,
        state,
    })
}

/// Client-side helper: send one request over `stream`, read the response.
pub fn roundtrip(stream: &mut TcpStream, req: &Request) -> io::Result<Response> {
    write_frame(stream, &encode_request(req))?;
    let body = read_frame(stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    decode_response(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionParams;
    use pardec_graph::generators;

    fn tiny_session() -> Session {
        // path(2) with τ → singletons: two clusters, apsp [[0,1],[1,0]] —
        // small enough to pin golden bytes by hand. Strategy pinned so the
        // golden ledger byte is independent of PARDEC_FRONTIER.
        Session::build(
            generators::path(2),
            &SessionParams::new(100, 0).with_frontier(FrontierStrategy::TopDown),
        )
    }

    #[test]
    fn request_codec_round_trips() {
        let reqs = [
            Request::Info,
            Request::Shutdown,
            Request::Distance(vec![(0, 1), (1, 1)]),
            Request::ClusterOf(vec![0, 1, 0]),
            Request::Eccentricity(vec![1]),
            Request::Nearest {
                sources: vec![0],
                probes: vec![0, 1],
            },
            Request::Stats,
            Request::Reload {
                path: String::new(),
            },
            Request::Reload {
                path: "snapshots/b.pdec".into(),
            },
        ];
        for req in reqs {
            let body = encode_request(&req);
            assert_eq!(decode_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn golden_request_bytes() {
        // DIST [(2, 259)] : opcode, count=1, u=2, v=259.
        assert_eq!(
            encode_request(&Request::Distance(vec![(2, 259)])),
            [0x02, 1, 0, 0, 0, 2, 0, 0, 0, 3, 1, 0, 0]
        );
        // NEAREST {sources: [7], probes: [1, 2]}.
        assert_eq!(
            encode_request(&Request::Nearest {
                sources: vec![7],
                probes: vec![1, 2]
            }),
            [0x05, 1, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0]
        );
        assert_eq!(encode_request(&Request::Info), [0x01]);
        assert_eq!(encode_request(&Request::Shutdown), [0x06]);
        assert_eq!(encode_request(&Request::Stats), [0x07]);
        // RELOAD "ab": opcode, path_len=2, bytes.
        assert_eq!(
            encode_request(&Request::Reload { path: "ab".into() }),
            [0x08, 2, 0, 0, 0, b'a', b'b']
        );
    }

    #[test]
    fn every_truncated_or_padded_request_is_malformed() {
        for req in [
            Request::Info,
            Request::Distance(vec![(0, 1), (1, 0)]),
            Request::Eccentricity(vec![1]),
            Request::Nearest {
                sources: vec![0],
                probes: vec![1, 0],
            },
            Request::Reload { path: "ab".into() },
        ] {
            let body = encode_request(&req);
            for cut in 0..body.len() {
                let err = decode_request(&body[..cut]).unwrap_err();
                assert_eq!(err.code, ERR_MALFORMED, "{req:?} cut at {cut}");
            }
            let mut padded = body;
            padded.push(0);
            assert_eq!(decode_request(&padded).unwrap_err().code, ERR_MALFORMED);
        }
    }

    #[test]
    fn batch_caps_are_enforced_before_allocation() {
        // A 9-byte frame claiming a 2M-pair DIST batch must be refused by
        // the cap, not by the length check (the cap fires first).
        let mut big = vec![OP_DIST];
        big.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        big.extend_from_slice(&[0; 8]);
        let err = decode_request(&big).unwrap_err();
        assert_eq!(err.code, ERR_BATCH_TOO_LARGE);
        // Same via the limited entry point with a tiny cap.
        let body = encode_request(&Request::ClusterOf(vec![0, 1, 2]));
        assert_eq!(
            decode_request_limited(&body, 2).unwrap_err().code,
            ERR_BATCH_TOO_LARGE
        );
        assert_eq!(
            decode_request_limited(&body, 3).unwrap(),
            Request::ClusterOf(vec![0, 1, 2])
        );
        // NEAREST caps sources and probes independently.
        let near = encode_request(&Request::Nearest {
            sources: vec![0, 1],
            probes: vec![0],
        });
        assert_eq!(
            decode_request_limited(&near, 1).unwrap_err().code,
            ERR_BATCH_TOO_LARGE
        );
        // RELOAD path length is capped.
        let mut reload = vec![OP_RELOAD];
        reload.extend_from_slice(&(MAX_RELOAD_PATH + 1).to_le_bytes());
        assert_eq!(decode_request(&reload).unwrap_err().code, ERR_MALFORMED);
    }

    #[test]
    fn stats_body_codec_round_trips() {
        let mut latency = Log2Histogram::new();
        latency.record(12);
        latency.record(900);
        latency.record(0);
        let snap = StatsSnapshot {
            uptime_us: 123_456,
            total_requests: 3,
            errors: 1,
            bytes_in: 64,
            bytes_out: 512,
            epoch: 4,
            timeouts: 5,
            shed: 6,
            panics_caught: 7,
            reloads_ok: 3,
            reloads_rolled_back: 2,
            per_op: vec![
                OpStats {
                    opcode: 0,
                    count: 1,
                    latency: Log2Histogram::new(),
                },
                OpStats {
                    opcode: OP_NEAREST,
                    count: 2,
                    latency,
                },
            ],
        };
        let body = encode_stats_body(&snap);
        assert_eq!(decode_stats_body(&body).unwrap(), snap);
        // Truncations and bad bucket counts are refused, never panic.
        for cut in [0, 10, 40, body.len() - 1] {
            assert!(decode_stats_body(&body[..cut]).is_err(), "cut {cut}");
        }
        let mut wrong = body.clone();
        wrong[STATS_HEADER + 25] = 7; // n_buckets of the first op entry
        assert!(decode_stats_body(&wrong).is_err());
    }

    #[test]
    fn golden_stats_response_bytes() {
        // A young daemon's snapshot: no per-op entries, all counters zero
        // except uptime and the boot epoch. Frame = status 0, opcode 0x07,
        // zero ledger, then the 89-byte fixed stats header.
        let snap = StatsSnapshot {
            uptime_us: 2,
            total_requests: 0,
            errors: 0,
            bytes_in: 0,
            bytes_out: 0,
            epoch: 1,
            timeouts: 0,
            shed: 0,
            panics_caught: 0,
            reloads_ok: 0,
            reloads_rolled_back: 0,
            per_op: Vec::new(),
        };
        #[rustfmt::skip]
        let expected = [
            0u8,        // status ok
            0x07,       // opcode echo
            0, 0, 0, 0, // batch = 0
            0, 0, 0, 0, // waves = 0
            0, 0, 0, 0, // rounds = 0
            0,          // strategy = 0 (no ledger)
            2, 0, 0, 0, 0, 0, 0, 0, // uptime_us = 2
            0, 0, 0, 0, 0, 0, 0, 0, // total_requests
            0, 0, 0, 0, 0, 0, 0, 0, // errors
            0, 0, 0, 0, 0, 0, 0, 0, // bytes_in
            0, 0, 0, 0, 0, 0, 0, 0, // bytes_out
            1, 0, 0, 0, 0, 0, 0, 0, // epoch = 1 (boot generation)
            0, 0, 0, 0, 0, 0, 0, 0, // timeouts
            0, 0, 0, 0, 0, 0, 0, 0, // shed
            0, 0, 0, 0, 0, 0, 0, 0, // panics_caught
            0, 0, 0, 0, 0, 0, 0, 0, // reloads_ok
            0, 0, 0, 0, 0, 0, 0, 0, // reloads_rolled_back
            0,          // n_ops
        ];
        assert_eq!(expected.len(), 15 + STATS_HEADER);
        assert_eq!(stats_response_frame(&snap), expected);
    }

    #[test]
    fn stats_over_a_live_daemon() {
        let session = Arc::new(tiny_session());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap(),
        );
        let handle = serve(listener, session, pool, 2).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();

        // A fresh daemon has answered nothing.
        let first = roundtrip(&mut stream, &Request::Stats).unwrap();
        assert_eq!(first.status, 0);
        assert_eq!(first.opcode, OP_STATS);
        let snap = decode_stats_body(&first.body).unwrap();
        assert_eq!(snap.total_requests, 0);
        assert!(snap.per_op.is_empty());

        // Three queries (one of them failing) + the prior STATS frame.
        roundtrip(&mut stream, &Request::Info).unwrap();
        roundtrip(&mut stream, &Request::ClusterOf(vec![0, 1])).unwrap();
        let err = roundtrip(&mut stream, &Request::ClusterOf(vec![99])).unwrap();
        assert_eq!(err.status, ERR_OUT_OF_RANGE);

        let second = roundtrip(&mut stream, &Request::Stats).unwrap();
        let snap = decode_stats_body(&second.body).unwrap();
        assert_eq!(snap.total_requests, 4);
        assert_eq!(snap.errors, 1);
        assert!(snap.bytes_in > 0 && snap.bytes_out > 0);
        // No reload yet: boot epoch, untouched fault-tolerance ledger.
        assert_eq!(snap.epoch, 1);
        assert_eq!((snap.timeouts, snap.shed, snap.panics_caught), (0, 0, 0),);
        assert_eq!((snap.reloads_ok, snap.reloads_rolled_back), (0, 0));
        let by_op: Vec<(u8, u64)> = snap.per_op.iter().map(|o| (o.opcode, o.count)).collect();
        assert_eq!(by_op, [(OP_INFO, 1), (OP_CLUSTER_OF, 2), (OP_STATS, 1)]);
        for op in &snap.per_op {
            assert_eq!(op.latency.count(), op.count);
        }
        // The in-process view agrees with the wire view (modulo the frames
        // answered since).
        assert!(handle.stats().total_requests >= snap.total_requests);

        let bye = roundtrip(&mut stream, &Request::Shutdown).unwrap();
        assert_eq!(bye.status, 0);
        drop(stream);
        handle.join();
    }

    #[test]
    fn stats_against_bare_session_is_internal_error() {
        let s = tiny_session();
        let resp = decode_response(&execute(&s, &Request::Stats)).unwrap();
        assert_eq!(resp.status, ERR_INTERNAL);
        assert!(resp.error_message().unwrap().contains("server loop"));
    }

    #[test]
    fn golden_response_bytes() {
        let s = tiny_session();
        // DIST (0,1) on the 2-path with singleton clusters: centers are the
        // nodes themselves, apsp[0][1] = 1, so d = 0 + 1 + 0 = 1.
        let resp = execute(&s, &Request::Distance(vec![(0, 1)]));
        #[rustfmt::skip]
        let expected = [
            0u8,        // status ok
            0x02,       // opcode echo
            1, 0, 0, 0, // batch = 1
            0, 0, 0, 0, // waves = 0 (table lookup)
            0, 0, 0, 0, // rounds = 0
            0,          // strategy = top-down
            1, 0, 0, 0, 0, 0, 0, 0, // dist = 1 (u64)
        ];
        assert_eq!(resp, expected);

        // CLUSTER_OF [1] → cluster 1.
        let resp = execute(&s, &Request::ClusterOf(vec![1]));
        assert_eq!(&resp[..2], &[0, 0x03]);
        assert_eq!(&resp[15..], &[1, 0, 0, 0]);

        // NEAREST {sources: [0], probes: [0, 1]} → one wave, exact hops.
        let resp = execute(
            &s,
            &Request::Nearest {
                sources: vec![0],
                probes: vec![0, 1],
            },
        );
        let parsed = decode_response(&resp).unwrap();
        assert_eq!(parsed.status, 0);
        assert_eq!(parsed.batch, 2);
        assert_eq!(parsed.waves, 1);
        assert!(parsed.wave_rounds >= 1);
        assert_eq!(
            parsed.body,
            [
                0, 0, 0, 0, 0, 0, 0, 0, /* probe 0: src 0, dist 0 */
                0, 0, 0, 0, 1, 0, 0, 0
            ] /* probe 1: src 0, dist 1 */
        );
    }

    #[test]
    fn error_codes_on_the_wire() {
        let s = tiny_session();
        // Out-of-range node.
        let resp = decode_response(&execute(&s, &Request::ClusterOf(vec![99]))).unwrap();
        assert_eq!(resp.status, ERR_OUT_OF_RANGE);
        assert!(resp.error_message().unwrap().contains("99"));
        // Oracle missing.
        let no_oracle = Session::build(
            generators::path(2),
            &SessionParams::new(100, 0).without_oracle(),
        );
        let resp = decode_response(&execute(&no_oracle, &Request::Distance(vec![(0, 1)]))).unwrap();
        assert_eq!(resp.status, ERR_ORACLE_MISSING);
        // Unknown opcode / malformed payloads.
        let (resp, _) = answer(&s, &[0x7F]);
        assert_eq!(decode_response(&resp).unwrap().status, ERR_UNKNOWN_OPCODE);
        let (resp, _) = answer(&s, &[]);
        assert_eq!(decode_response(&resp).unwrap().status, ERR_MALFORMED);
        let (resp, _) = answer(&s, &[OP_DIST, 5, 0, 0, 0, 1]);
        assert_eq!(decode_response(&resp).unwrap().status, ERR_MALFORMED);
        // Declared count far beyond the payload must not allocate/panic:
        // the batch cap fires before any buffer is sized.
        let (resp, _) = answer(&s, &[OP_NEAREST, 255, 255, 255, 255, 255, 255, 255, 255]);
        assert_eq!(decode_response(&resp).unwrap().status, ERR_BATCH_TOO_LARGE);
    }

    #[test]
    fn tcp_serve_round_trip_and_shutdown() {
        let session = Arc::new(tiny_session());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap(),
        );
        let handle = serve(listener, session.clone(), pool, 2).unwrap();
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        let info = roundtrip(&mut stream, &Request::Info).unwrap();
        assert_eq!(info.status, 0);
        assert_eq!(&info.body[..8], &2u64.to_le_bytes());

        // Two requests on one connection (keep-alive).
        let r1 = roundtrip(&mut stream, &Request::ClusterOf(vec![0, 1])).unwrap();
        assert_eq!(r1.status, 0);
        let r2 = roundtrip(
            &mut stream,
            &Request::Nearest {
                sources: vec![1],
                probes: vec![0],
            },
        )
        .unwrap();
        assert_eq!(r2.waves, 1);
        assert_eq!(r2.body, [1, 0, 0, 0, 1, 0, 0, 0]);
        drop(stream);

        // A second client from another thread while the first was live is
        // covered by the bench; here just shut down cleanly via the wire.
        let mut stream = TcpStream::connect(addr).unwrap();
        let bye = roundtrip(&mut stream, &Request::Shutdown).unwrap();
        assert_eq!(bye.status, 0);
        drop(stream);
        handle.join();
        // The port is released: a fresh bind to the same address works.
        assert!(TcpStream::connect(addr).is_err() || TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn oversized_frame_is_refused() {
        let session = Arc::new(tiny_session());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap(),
        );
        let handle = serve(listener, session, pool, 1).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        let body = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(decode_response(&body).unwrap().status, ERR_FRAME_TOO_LARGE);
        // Server closed the connection afterwards.
        assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));
        handle.shutdown();
        handle.join();
    }

    fn tiny_pool(n: usize) -> Arc<rayon::ThreadPool> {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap(),
        )
    }

    fn serve_tiny(config: ServeConfig) -> ServerHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        serve_with(listener, Arc::new(tiny_session()), tiny_pool(2), 2, config).unwrap()
    }

    #[test]
    fn zero_deadline_times_out_politely() {
        // A ZERO budget is expired by the time any frame finishes reading,
        // so every request answers ERR_TIMEOUT — and because the frame was
        // fully consumed, the connection survives for the next one.
        let handle = serve_tiny(ServeConfig {
            deadline: Duration::ZERO,
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..2 {
            let resp = roundtrip(&mut stream, &Request::Info).unwrap();
            assert_eq!(resp.status, ERR_TIMEOUT);
            assert!(resp.error_message().unwrap().contains("deadline"));
        }
        assert!(handle.stats().timeouts >= 2);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn admission_gate_sheds_with_retry_hint() {
        // max_concurrent = 0: the gate sheds everything, deterministically.
        let handle = serve_tiny(ServeConfig {
            max_concurrent: 0,
            retry_after_ms: 250,
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..2 {
            let resp = roundtrip(&mut stream, &Request::Info).unwrap();
            assert_eq!(resp.status, ERR_OVERLOADED);
            assert_eq!(resp.opcode, OP_INFO); // captured from the drained body
            assert_eq!(&resp.body[..4], &250u32.to_le_bytes());
        }
        assert_eq!(handle.stats().shed, 2);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn oversized_batch_is_refused_but_connection_survives() {
        let handle = serve_tiny(ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(&mut stream, &Request::ClusterOf(vec![0, 1, 0])).unwrap();
        assert_eq!(resp.status, ERR_BATCH_TOO_LARGE);
        let ok = roundtrip(&mut stream, &Request::ClusterOf(vec![0, 1])).unwrap();
        assert_eq!(ok.status, 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn panic_is_isolated_to_its_connection() {
        let handle = serve_tiny(ServeConfig {
            debug_panic_op: true,
            ..ServeConfig::default()
        });
        let mut victim = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut victim, &[OP_DEBUG_PANIC]).unwrap();
        let body = read_frame(&mut victim).unwrap().unwrap();
        let resp = decode_response(&body).unwrap();
        assert_eq!(resp.status, ERR_INTERNAL);
        assert!(resp.error_message().unwrap().contains("panic"));
        // The poisoned connection is closed…
        assert!(matches!(read_frame(&mut victim), Ok(None) | Err(_)));
        // …but the daemon keeps answering fresh ones.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(roundtrip(&mut stream, &Request::Info).unwrap().status, 0);
        assert_eq!(handle.stats().panics_caught, 1);
        // Without the debug flag the same byte is just an unknown opcode.
        let plain = serve_tiny(ServeConfig::default());
        let mut stream = TcpStream::connect(plain.addr()).unwrap();
        write_frame(&mut stream, &[OP_DEBUG_PANIC]).unwrap();
        let body = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(decode_response(&body).unwrap().status, ERR_UNKNOWN_OPCODE);
        plain.shutdown();
        plain.join();
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn idle_connections_are_reaped_without_counting_as_timeouts() {
        let handle = serve_tiny(ServeConfig {
            idle_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(roundtrip(&mut stream, &Request::Info).unwrap().status, 0);
        // Sit idle past the reap threshold: the server walks away.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));
        assert_eq!(handle.stats().timeouts, 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn slow_loris_mid_frame_is_timed_out() {
        let handle = serve_tiny(ServeConfig {
            read_timeout: Duration::from_millis(50),
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Declare a 10-byte body, send only 2 bytes, then stall.
        stream.write_all(&10u32.to_le_bytes()).unwrap();
        stream.write_all(&[OP_DIST, 0]).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let body = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(decode_response(&body).unwrap().status, ERR_TIMEOUT);
        // Out-of-sync stream: the server hung up after answering.
        assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));
        assert_eq!(handle.stats().timeouts, 1);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn reload_swaps_epochs_and_rolls_back_on_corruption() {
        let dir = std::env::temp_dir().join(format!("pardec_wire_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.pdec");
        let bad = dir.join("bad.pdec");
        let mut bytes = Vec::new();
        tiny_session().save(&mut bytes).unwrap();
        std::fs::write(&good, &bytes).unwrap();
        std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();

        // Reload disabled: forbidden, nothing changes.
        let locked = serve_tiny(ServeConfig::default());
        let mut stream = TcpStream::connect(locked.addr()).unwrap();
        let resp = roundtrip(
            &mut stream,
            &Request::Reload {
                path: good.display().to_string(),
            },
        )
        .unwrap();
        assert_eq!(resp.status, ERR_FORBIDDEN);
        assert_eq!(locked.epoch(), 1);
        locked.shutdown();
        locked.join();

        // Reload enabled: corrupt file rolls back, valid file bumps the
        // epoch, and the connection survives the whole ordeal.
        let handle = serve_tiny(ServeConfig {
            allow_reload: true,
            reload_default_path: Some(good.display().to_string()),
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(
            &mut stream,
            &Request::Reload {
                path: bad.display().to_string(),
            },
        )
        .unwrap();
        assert_eq!(resp.status, ERR_RELOAD_FAILED);
        assert!(resp.error_message().unwrap().contains("rolled back"));
        assert_eq!(handle.epoch(), 1);
        // Still serving the old snapshot on the same connection.
        assert_eq!(roundtrip(&mut stream, &Request::Info).unwrap().status, 0);
        // Empty path → the configured default (the valid file).
        let resp = roundtrip(
            &mut stream,
            &Request::Reload {
                path: String::new(),
            },
        )
        .unwrap();
        assert_eq!(resp.status, 0);
        assert_eq!(&resp.body[..], &2u64.to_le_bytes());
        assert_eq!(handle.epoch(), 2);
        assert_eq!(roundtrip(&mut stream, &Request::Info).unwrap().status, 0);
        let snap = handle.stats();
        assert_eq!((snap.reloads_ok, snap.reloads_rolled_back), (1, 1));
        handle.shutdown();
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_against_bare_session_is_internal_error() {
        let s = tiny_session();
        let req = Request::Reload {
            path: String::new(),
        };
        let resp = decode_response(&execute(&s, &req)).unwrap();
        assert_eq!(resp.status, ERR_INTERNAL);
        assert!(resp.error_message().unwrap().contains("server loop"));
    }
}
