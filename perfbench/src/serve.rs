//! The serve phase: a session with an oracle over the workload's graph is
//! saved as a PDEC2 snapshot, loaded with `Session::load_checked` and served
//! in-process by `wire::serve_with` with reloads allowed. Two closed-loop
//! connections then drive it:
//!
//! - connection A sends lookup frames, a seeded mix of DIST, CLUSTER_OF and
//!   ECC with 256 queries each;
//! - connection B sends NEAREST frames (16 sources, 256 probes), and every
//!   `RELOAD_EVERY`-th frame on it is an `OP_RELOAD` of the same snapshot.
//!
//! The mixed traffic runs in segments, with a footprint child process
//! between two segments (see [`footprint`]); `reload_p50_ms` comes from
//! those children, so the reload share of the traffic stays low.
//!
//! Every response must be byte-identical to in-process `wire::execute` on
//! the session the snapshot was saved from, every reload must answer the
//! next epoch, and the daemon's `OP_STATS` count must cover the client's.

use crate::pipeline::timed;
use crate::report::{self, median, quantile, Report};
use crate::trace::{Role, SpanId, Tracer};
use crate::workload::Kind;
use crate::Ctx;
use pardec_core::wire::{self, Request, ServeConfig, ServerHandle};
use pardec_core::{DistanceOracle, Session, SessionParams};
use pardec_graph::{CcsrGraph, CsrGraph, FrontierStrategy, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server set-ups per run on `serve-mix` (`setup_s` is their median).
const SERVE_SETUPS: usize = 5;
/// Distinct lookup and NEAREST frames; each client cycles through its
/// frames in a seeded order, so every frame (and lookup kind, a third
/// each) is sent equally often whatever the seed.
const LOOKUP_FRAMES: usize = 96;
const NEAREST_FRAMES: usize = 16;
/// Queries per lookup frame and probes per NEAREST frame.
const BATCH: usize = 256;
/// Sources per NEAREST frame.
const NEAREST_SOURCES: usize = 16;
/// Every `RELOAD_EVERY`-th frame on connection B is a reload: one every
/// 2–4 s of waves on the three workloads, far more often than a deployment
/// publishes snapshots, so that every run's mixed traffic holds a few
/// reloads contending with the reads. It is the same on every workload.
const RELOAD_EVERY: usize = 32;
/// Reloads each footprint child times after its untimed warm-up reload,
/// at least `CHILD_RELOADS` and more until its `--seconds` have passed.
const CHILD_RELOADS: usize = 4;
/// Frames each connection sends at least, however short `--seconds` is.
const MIN_LOOKUPS: usize = 64;
const MIN_RELOADS: usize = 1;
/// STATS requests sent at most while waiting for the daemon's count.
const STATS_POLLS: u64 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Dist,
    ClusterOf,
    Ecc,
    Nearest,
}

const OPS: [(Op, &str); 4] = [
    (Op::Dist, "wire.execute_us.dist"),
    (Op::ClusterOf, "wire.execute_us.cluster_of"),
    (Op::Ecc, "wire.execute_us.ecc"),
    (Op::Nearest, "wire.execute_us.nearest"),
];

/// A request frame and the response it must get.
struct Frame {
    op: Op,
    body: Vec<u8>,
    expected: Vec<u8>,
    execute_s: f64,
}

/// A listening server and the session its snapshot was saved from.
struct Server {
    reference: Session,
    handle: ServerHandle,
    build_s: f64,
    save_s: f64,
    load_s: f64,
    listen_s: f64,
}

fn save(session: &Session, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    session.save(&mut w)?;
    w.flush()
}

/// Session build, snapshot save, checked load and the server listening.
fn start(
    ctx: &Ctx,
    graph: &CsrGraph,
    snapshot: &Path,
    parent: Option<SpanId>,
) -> Result<Server, String> {
    let t = ctx.tracer;
    let params = SessionParams::new(ctx.spec.tau, ctx.seed)
        .with_frontier(FrontierStrategy::TopDown)
        .with_backend(ctx.spec.backend);
    let input = graph.clone();
    let (reference, build_s) = timed(t, "session.build", parent, || {
        ctx.pool.install(|| Session::build(input, &params))
    });
    let (saved, save_s) = timed(t, "session.save", parent, || save(&reference, snapshot));
    saved.map_err(|e| format!("cannot save {}: {e}", snapshot.display()))?;
    let (loaded, load_s) = timed(t, "session.load_checked", parent, || {
        std::fs::read(snapshot).and_then(|b| Session::load_checked(&b, FrontierStrategy::TopDown))
    });
    let loaded = loaded.map_err(|e| format!("cannot load {}: {e}", snapshot.display()))?;
    let config = ServeConfig {
        allow_reload: true,
        reload_default_path: Some(snapshot.display().to_string()),
        ..ServeConfig::default()
    };
    let (handle, listen_s) = timed(t, "server.start", parent, || {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        // One acceptor per client connection: connections live on
        // acceptor threads, queries run on the shared worker pool.
        wire::serve_with(listener, Arc::new(loaded), ctx.pool.clone(), 2, config)
    });
    let handle = handle.map_err(|e| format!("cannot start the server: {e}"))?;
    Ok(Server {
        reference,
        handle,
        build_s,
        save_s,
        load_s,
        listen_s,
    })
}

fn stop(server: Server) {
    server.handle.shutdown();
    server.handle.join();
}

/// What one fresh `pardec` process measured.
pub struct Footprint {
    /// Its `VmHWM` once the daemon listens, MiB.
    pub peak_rss_mb: f64,
    /// Its reloads of the served snapshot.
    pub reloads: Lane,
}

impl Footprint {
    /// As one line, `peak passed failed t1 t2 …`, for a child process to
    /// print.
    pub fn to_line(&self) -> String {
        format!("{} {}", self.peak_rss_mb, self.reloads.to_line())
    }

    /// Reads what [`Footprint::to_line`] wrote.
    pub fn from_line(line: &str) -> Result<Footprint, String> {
        let (peak, rest) = line.trim().split_once(' ').unwrap_or((line, ""));
        Ok(Footprint {
            peak_rss_mb: peak
                .parse()
                .map_err(|_| format!("a footprint child printed {line:?}"))?,
            reloads: Lane::from_line(rest)?,
        })
    }
}

/// The daemon part of a footprint process, after its solve: build, save and
/// checked-load the serving session, start the daemon, and take `VmHWM`.
/// Then the daemon answers `OP_RELOAD`s of its snapshot sent in a row on
/// one connection for `ctx.seconds`; the first is a warm-up and untimed,
/// and every one is checked. Reload times depend on the state a process's
/// allocator is in and on the host's load, which moved a long-lived
/// process's reloads by a third from run to run, so they are taken in
/// several fresh processes spread over the run.
pub fn footprint(ctx: &Ctx, graph: &CsrGraph) -> Result<Footprint, String> {
    let snapshot = ctx.work.join("footprint.pdec2");
    let server = start(ctx, graph, &snapshot, None)?;
    let peak = report::peak_rss_mib();
    let body = wire::encode_request(&Request::Reload {
        path: snapshot.display().to_string(),
    });
    let reloads = connect(server.handle.addr()).map(|mut stream| {
        let mut lane = Lane::default();
        let start = Instant::now();
        let mut warm = false;
        while !warm
            || lane.latency.len() < CHILD_RELOADS
            || start.elapsed().as_secs_f64() < ctx.seconds
        {
            match reload(ctx.tracer, None, &mut stream, &body, &mut lane) {
                Some(s) if warm => lane.latency.push(s),
                Some(_) => warm = true,
                None => break,
            }
        }
        lane
    });
    stop(server);
    Ok(Footprint {
        peak_rss_mb: peak?,
        reloads: reloads?,
    })
}

/// The seeded request frames with their expected responses, timed through
/// in-process `wire::execute` on the reference session.
fn frames(ctx: &Ctx, reference: &Session, report: &mut Report) -> (Vec<Frame>, Vec<Frame>) {
    let frames_span = ctx.tracer.open("serve.frames", Role::Bench, ctx.root, 0);
    let span = Some(frames_span);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5e7e_f7a3);
    let n = reference.graph().num_nodes() as NodeId;
    let nodes = |rng: &mut StdRng, k: usize| -> Vec<NodeId> {
        (0..k).map(|_| rng.gen_range(0..n)).collect()
    };
    let mut decode_s = Vec::new();
    let mut frame = |op: Op, req: Request, report: &mut Report| {
        let body = wire::encode_request(&req);
        let begin = Instant::now();
        let decoded = wire::decode_request(&body);
        decode_s.push(begin.elapsed().as_secs_f64());
        report.check(decoded.as_ref() == Ok(&req), || {
            format!("{op:?} frame does not decode to its request")
        });
        let (mut expected, execute_s) = timed(ctx.tracer, "wire.execute", span, || {
            ctx.pool.install(|| wire::execute(reference, &req))
        });
        let status = wire::decode_response(&expected).map(|r| r.status);
        report.check(matches!(status, Ok(0)), || {
            format!("{op:?} reference answer has status {status:?}")
        });
        if ctx.wrong_reference {
            let last = expected.len() - 1;
            expected[last] ^= 1;
        }
        Frame {
            op,
            body,
            expected,
            execute_s,
        }
    };
    let mut lookups: Vec<Frame> = (0..LOOKUP_FRAMES)
        .map(|i| match i % 3 {
            0 => {
                let pairs = nodes(&mut rng, 2 * BATCH);
                let req = Request::Distance(pairs.chunks(2).map(|p| (p[0], p[1])).collect());
                frame(Op::Dist, req, report)
            }
            1 => frame(
                Op::ClusterOf,
                Request::ClusterOf(nodes(&mut rng, BATCH)),
                report,
            ),
            _ => frame(
                Op::Ecc,
                Request::Eccentricity(nodes(&mut rng, BATCH)),
                report,
            ),
        })
        .collect();
    let mut nearest: Vec<Frame> = (0..NEAREST_FRAMES)
        .map(|_| {
            let req = Request::Nearest {
                sources: nodes(&mut rng, NEAREST_SOURCES),
                probes: nodes(&mut rng, BATCH),
            };
            frame(Op::Nearest, req, report)
        })
        .collect();
    lookups.shuffle(&mut rng);
    nearest.shuffle(&mut rng);
    ctx.tracer.close(frames_span);
    report.metric("wire.decode_us", 1e6 * median(&decode_s));
    (lookups, nearest)
}

/// What one client connection saw.
#[derive(Default)]
pub struct Lane {
    /// Round trips of lookup or NEAREST frames, in seconds.
    latency: Vec<f64>,
    /// Reloads answered.
    reloads: u64,
    sent: u64,
    passed: u64,
    failed: u64,
    first_failure: Option<String>,
    elapsed_s: f64,
}

impl Lane {
    fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn into_report(self, name: &str, report: &mut Report) {
        let first = self.first_failure.unwrap_or_default();
        report.checks(self.passed, self.failed, || {
            format!("{name}, first: {first}")
        });
    }

    /// Round trips in seconds.
    pub fn latency(&self) -> &[f64] {
        &self.latency
    }

    /// Adds what `other` saw to this lane.
    pub fn merge(&mut self, other: Lane) {
        self.latency.extend(other.latency);
        self.reloads += other.reloads;
        self.sent += other.sent;
        self.passed += other.passed;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// The checks and round trips as one line, `passed failed t1 t2 …`;
    /// failures go to standard error.
    pub fn to_line(&self) -> String {
        if let Some(first) = &self.first_failure {
            eprintln!("perfbench: {first}");
        }
        let mut line = format!("{} {}", self.passed, self.failed);
        for s in &self.latency {
            line += &format!(" {s}");
        }
        line
    }

    /// Reads what [`Lane::to_line`] wrote.
    pub fn from_line(line: &str) -> Result<Lane, String> {
        let bad = || format!("a footprint child printed {line:?}");
        let mut it = line.split_whitespace();
        let mut count =
            || -> Result<u64, String> { it.next().and_then(|w| w.parse().ok()).ok_or_else(bad) };
        let (passed, failed) = (count()?, count()?);
        let latency = it
            .map(|w| w.parse().map_err(|_| bad()))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(Lane {
            latency,
            passed,
            failed,
            first_failure: (failed > 0).then(|| "printed by the footprint child".into()),
            ..Lane::default()
        })
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

fn round_trip(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<Vec<u8>> {
    wire::write_frame(stream, body)?;
    wire::read_frame(stream)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
    })
}

/// Connection A: lookups until the deadline, continuing `lane`.
fn lookup_client(
    t: &Tracer,
    parent: Option<SpanId>,
    stream: &mut TcpStream,
    frames: &[Frame],
    deadline: Instant,
    lane: &mut Lane,
) {
    let lane_span = t.open("client.lookups", Role::Bench, parent, 0);
    let start = Instant::now();
    while lane.latency.len() < MIN_LOOKUPS || Instant::now() < deadline {
        let f = &frames[lane.sent as usize % frames.len()];
        let span = t.open(
            "request.lookup",
            Role::Layer,
            Some(lane_span),
            2 * lane.sent,
        );
        let begin = Instant::now();
        let reply = round_trip(stream, &f.body);
        let s = begin.elapsed().as_secs_f64();
        t.close(span);
        lane.sent += 1;
        match reply {
            Ok(body) => {
                lane.latency.push(s);
                lane.tally(body == f.expected, || {
                    format!("{:?} response differs from wire::execute", f.op)
                });
            }
            Err(e) => {
                lane.tally(false, || format!("lookup round trip failed: {e}"));
                break;
            }
        }
    }
    lane.elapsed_s += start.elapsed().as_secs_f64();
    t.close(lane_span);
}

/// Sends one `OP_RELOAD` on connection B and checks that it answers the
/// next epoch; returns its round trip, or `None` if the connection failed.
fn reload(
    t: &Tracer,
    parent: Option<SpanId>,
    stream: &mut TcpStream,
    body: &[u8],
    lane: &mut Lane,
) -> Option<f64> {
    let id = 2 * lane.sent + 1;
    lane.sent += 1;
    let span = t.open("request.reload", Role::Layer, parent, id);
    let begin = Instant::now();
    let reply = round_trip(stream, body);
    let s = begin.elapsed().as_secs_f64();
    t.close(span);
    match reply.and_then(|b| wire::decode_response(&b)) {
        Ok(r) => {
            lane.reloads += 1;
            // The loaded snapshot is epoch 1.
            let epoch = 1 + lane.reloads;
            let ok = r.status == 0 && r.opcode == wire::OP_RELOAD && r.body == epoch.to_le_bytes();
            lane.tally(ok, || {
                format!("reload answered {r:?}, expected epoch {epoch}")
            });
            Some(s)
        }
        Err(e) => {
            lane.tally(false, || format!("reload round trip failed: {e}"));
            None
        }
    }
}

/// Connection B: NEAREST waves with a reload every `RELOAD_EVERY` frames,
/// continuing `lane`.
fn nearest_client(
    t: &Tracer,
    stream: &mut TcpStream,
    frames: &[Frame],
    reload_body: &[u8],
    deadline: Instant,
    lane: &mut Lane,
) {
    let lane_span = t.open("client.nearest", Role::Bench, None, 0);
    let start = Instant::now();
    while lane.reloads < MIN_RELOADS as u64 || Instant::now() < deadline {
        if (lane.sent + 1).is_multiple_of(RELOAD_EVERY as u64) {
            if reload(t, Some(lane_span), stream, reload_body, lane).is_none() {
                break;
            }
            continue;
        }
        let id = 2 * lane.sent + 1;
        lane.sent += 1;
        let f = &frames[lane.latency.len() % frames.len()];
        let span = t.open("request.nearest", Role::Layer, Some(lane_span), id);
        let begin = Instant::now();
        let reply = round_trip(stream, &f.body);
        let s = begin.elapsed().as_secs_f64();
        t.close(span);
        match reply {
            Ok(body) => {
                lane.latency.push(s);
                lane.tally(body == f.expected, || {
                    "NEAREST response differs from wire::execute".into()
                });
            }
            Err(e) => {
                lane.tally(false, || format!("NEAREST round trip failed: {e}"));
                break;
            }
        }
    }
    lane.elapsed_s += start.elapsed().as_secs_f64();
    t.close(lane_span);
}

/// Runs the serve phase for the rest of `--seconds`.
pub fn run(ctx: &Ctx, graph: CsrGraph, report: &mut Report) -> Result<(), String> {
    let t = ctx.tracer;
    let snapshot = ctx.work.join("session.pdec2");
    let setups = match ctx.spec.kind {
        Kind::Serve => SERVE_SETUPS,
        Kind::Pipeline => 1,
    };
    let setup_span = t.open("serve.setup", Role::Bench, ctx.root, 0);
    let (mut setup_s, mut build_s, mut save_s, mut load_s) = (vec![], vec![], vec![], vec![]);
    let mut server: Option<Server> = None;
    for _ in 0..setups {
        if let Some(old) = server.take() {
            stop(old);
        }
        let s = start(ctx, &graph, &snapshot, Some(setup_span))?;
        setup_s.push(s.build_s + s.save_s + s.load_s + s.listen_s);
        build_s.push(s.build_s);
        save_s.push(s.save_s);
        load_s.push(s.load_s);
        server = Some(s);
    }
    t.close(setup_span);
    let server = server.expect("at least one set-up");
    if ctx.spec.kind == Kind::Serve {
        report.metric("setup_s", median(&setup_s));
    }
    report.metric("session.build_s", median(&build_s));
    report.metric("session.save_s", median(&save_s));
    report.metric("session.load_checked_s", median(&load_s));
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    report.metric("snapshot.mb", snapshot_bytes as f64 / (1 << 20) as f64);
    let reference = &server.reference;
    let k = reference.clustering().num_clusters() as f64;
    report.metric("oracle.matrix_mb", k * k * 8.0 / (1 << 20) as f64);
    report.tag("backend", reference.backend());
    if t.on() {
        let (_, s) = timed(t, "oracle.build", ctx.root, || {
            ctx.pool.install(|| {
                DistanceOracle::from_clustering(reference.graph(), reference.clustering())
            })
        });
        report.metric("oracle.build_s", s);
        let ccsr_bytes = match reference.graph().as_compressed() {
            Some(c) => c.heap_bytes(),
            None => CcsrGraph::from_csr(&graph).heap_bytes(),
        };
        report.metric(
            "ccsr.bytes_per_edge",
            ccsr_bytes as f64 / graph.num_edges() as f64,
        );
    }
    drop(graph);

    let result = drive(ctx, &server, &snapshot, report);
    stop(server);
    result
}

fn drive(ctx: &Ctx, server: &Server, snapshot: &Path, report: &mut Report) -> Result<(), String> {
    let t = ctx.tracer;
    let (lookups, nearest) = frames(ctx, &server.reference, report);
    let addr = server.handle.addr();
    let (mut a, mut b) = (connect(addr)?, connect(addr)?);
    let snapshot = snapshot.display().to_string();
    let reload_body = wire::encode_request(&Request::Reload { path: snapshot });

    // The mixed traffic runs in one segment per footprint child of this
    // phase, each followed by its child.
    let segments = crate::FOOTPRINTS - crate::SOLVE_FOOTPRINTS;
    let segment =
        Duration::from_secs_f64(ctx.seconds * (1.0 - ctx.spec.solve_share) / segments as f64);
    let (mut lane_a, mut lane_b) = (Lane::default(), Lane::default());
    for _ in 0..segments {
        // Connection B runs on its own thread, so its spans form a lane of
        // their own (a root span).
        let deadline = Instant::now() + segment;
        std::thread::scope(|scope| {
            let b_lane = scope
                .spawn(|| nearest_client(t, &mut b, &nearest, &reload_body, deadline, &mut lane_b));
            lookup_client(t, ctx.root, &mut a, &lookups, deadline, &mut lane_a);
            b_lane.join().expect("the NEAREST client panicked");
        });
        ctx.footprint()?;
    }

    // The daemon counts a request after writing its response, so the last
    // replies may reach the clients before they are counted: ask again for
    // a while. Each STATS request is itself counted once answered.
    let sent = lane_a.sent + lane_b.sent;
    let mut stats = Err(String::new());
    for asked in 0..STATS_POLLS {
        stats = wire::roundtrip(&mut a, &Request::Stats)
            .map_err(|e| e.to_string())
            .and_then(|r| match r.status {
                0 => wire::decode_stats_body(&r.body).map_err(|e| e.to_string()),
                status => Err(format!("STATS answered status {status}")),
            });
        match &stats {
            Ok(s) if s.total_requests < sent + asked => {
                std::thread::sleep(Duration::from_millis(10))
            }
            _ => break,
        }
    }
    drop((a, b));
    report.check(
        stats.as_ref().is_ok_and(|s| s.total_requests >= sent),
        || format!("OP_STATS {stats:?} does not cover the {sent} requests sent"),
    );
    let stats = stats?;
    report.check(stats.errors == 0, || {
        format!("the server answered {} errors", stats.errors)
    });
    report.check(stats.reloads_ok == lane_b.reloads, || {
        format!(
            "{} reloads sent, the server counts {}",
            lane_b.reloads, stats.reloads_ok
        )
    });
    report.metric("server.requests", stats.total_requests as f64);
    report.metric("server.errors", stats.errors as f64);
    report.metric("server.shed", stats.shed as f64);
    report.metric("server.timeouts", stats.timeouts as f64);
    report.metric("server.reloads_ok", stats.reloads_ok as f64);

    report.metric("lookup_qps", lane_a.latency.len() as f64 / lane_a.elapsed_s);
    report.metric("lookup_p50_us", 1e6 * median(&lane_a.latency));
    report.metric("lookup_p90_us", 1e6 * quantile(&lane_a.latency, 0.90));
    report.metric("lookup_p99_us", 1e6 * quantile(&lane_a.latency, 0.99));
    report.metric("nearest_p50_ms", 1e3 * median(&lane_b.latency));
    report.metric("nearest_p90_ms", 1e3 * quantile(&lane_b.latency, 0.90));
    report.tag("lookups", lane_a.latency.len());
    report.tag("waves", lane_b.latency.len());
    report.tag("reloads", lane_b.reloads);

    let execute = |op: Op, v: &[Frame]| -> Vec<f64> {
        v.iter()
            .filter(|f| f.op == op)
            .map(|f| f.execute_s)
            .collect()
    };
    for (op, name) in OPS {
        let frames = if op == Op::Nearest {
            &nearest
        } else {
            &lookups
        };
        report.metric(name, 1e6 * median(&execute(op, frames)));
    }
    let lookup_exec: Vec<f64> = lookups.iter().map(|f| f.execute_s).collect();
    report.metric(
        "wire.wait_us.lookup",
        1e6 * (median(&lane_a.latency) - median(&lookup_exec)),
    );
    report.metric(
        "wire.wait_us.nearest",
        1e6 * (median(&lane_b.latency) - median(&execute(Op::Nearest, &nearest))),
    );
    lane_a.into_report("connection A", report);
    lane_b.into_report("connection B", report);
    Ok(())
}
