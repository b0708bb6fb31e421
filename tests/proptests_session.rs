//! Property tests for the PDEC2 session snapshot and the serve wire codec:
//! `Session::save` → `Session::load_checked` is the identity on bytes,
//! every strict prefix of a snapshot is an error (never a silently shorter
//! session), request encoding round-trips through the frame decoder, and
//! mutated snapshots, request frames and STATS bodies fail closed: an
//! error or a valid value, never a panic, never an allocation for a count
//! the input cannot hold.

use pardec::core::session::{SECTION_CLUSTERING, SECTION_ORACLE};
use pardec::core::wire;
use pardec::prelude::*;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

fn small_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (2usize..9, 2usize..9).prop_map(|(r, c)| generators::mesh(r, c)),
        (8usize..60, 1u64..500).prop_map(|(n, s)| generators::gnm(
            n,
            (n * 2).min(n * (n - 1) / 2),
            s
        )),
        (2usize..40).prop_map(generators::path),
    ]
}

fn params(tau: usize, seed: u64, oracle: bool) -> SessionParams {
    let p = SessionParams::new(tau, seed).with_frontier(FrontierStrategy::TopDown);
    if oracle {
        p
    } else {
        p.without_oracle()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load → save reproduces the exact bytes, and the reloaded
    /// session answers a distance query identically to the original.
    #[test]
    fn session_snapshot_round_trips(
        g in small_graph(),
        tau in 1usize..6,
        seed in any::<u64>(),
        oracle in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let s = Session::build(g, &params(tau, seed, oracle));
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();

        let loaded = Session::load_checked(&bytes, FrontierStrategy::TopDown).unwrap();
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        prop_assert_eq!(&bytes, &again, "re-saved snapshot differs");
        prop_assert_eq!(s.clustering(), loaded.clustering());
        prop_assert_eq!(s.oracle().is_some(), oracle);
        prop_assert_eq!(loaded.oracle(), s.oracle());

        if oracle && n >= 2 {
            let q = [(0 as NodeId, (n - 1) as NodeId)];
            let (a, _) = s.distance(&q).unwrap();
            let (b, _) = loaded.distance(&q).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Every strict prefix of a session snapshot fails to load — a torn
    /// write can never masquerade as a smaller valid session.
    #[test]
    fn session_every_truncation_errors(
        g in (2usize..7, 2usize..7).prop_map(|(r, c)| generators::mesh(r, c)),
        tau in 1usize..4,
        oracle in any::<bool>(),
    ) {
        let s = Session::build(g, &params(tau, 7, oracle));
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();
        for len in 0..bytes.len() {
            prop_assert!(
                Session::load_checked(&bytes[..len], FrontierStrategy::TopDown).is_err(),
                "prefix of {len}/{} bytes loaded", bytes.len()
            );
        }
    }

    /// The wire request codec is the identity on every batched request.
    #[test]
    fn wire_request_round_trips(
        pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..50),
        nodes in proptest::collection::vec(0u32..1000, 0..50),
        sources in proptest::collection::vec(0u32..1000, 0..20),
        path in proptest::collection::vec(0u32..26, 0..60)
            .prop_map(|v| v.into_iter().map(|b| (b'a' + b as u8) as char).collect::<String>()),
    ) {
        let reqs = [
            wire::Request::Info,
            wire::Request::Distance(pairs),
            wire::Request::ClusterOf(nodes.clone()),
            wire::Request::Eccentricity(nodes.clone()),
            wire::Request::Nearest { sources, probes: nodes },
            wire::Request::Reload { path },
            wire::Request::Shutdown,
            wire::Request::Stats,
        ];
        for req in reqs {
            let body = wire::encode_request(&req);
            let back = wire::decode_request(&body).expect("decode failed");
            prop_assert_eq!(back, req);
        }
    }

    /// The STATS body codec is the identity on arbitrary snapshots — any
    /// counter values, any opcode set, any latency distribution.
    #[test]
    fn wire_stats_body_round_trips(
        uptime_us in any::<u64>(),
        total_requests in any::<u64>(),
        errors in any::<u64>(),
        bytes_in in any::<u64>(),
        bytes_out in any::<u64>(),
        epoch in any::<u64>(),
        timeouts in any::<u64>(),
        shed in any::<u64>(),
        panics_caught in any::<u64>(),
        reloads_ok in any::<u64>(),
        reloads_rolled_back in any::<u64>(),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), proptest::collection::vec(any::<u64>(), 0..30)),
            0..6,
        ),
    ) {
        let per_op = ops
            .into_iter()
            .map(|(opcode, count, samples)| {
                let mut latency = pardec::obs::Log2Histogram::new();
                for s in samples {
                    latency.record(s);
                }
                wire::OpStats { opcode, count, latency }
            })
            .collect();
        let snap = wire::StatsSnapshot {
            uptime_us,
            total_requests,
            errors,
            bytes_in,
            bytes_out,
            epoch,
            timeouts,
            shed,
            panics_caught,
            reloads_ok,
            reloads_rolled_back,
            per_op,
        };
        let body = wire::encode_stats_body(&snap);
        prop_assert_eq!(wire::decode_stats_body(&body).unwrap(), snap.clone());

        // And through the full response frame: 15-byte header + body.
        let frame = wire::stats_response_frame(&snap);
        let resp = wire::decode_response(&frame).unwrap();
        prop_assert_eq!(resp.status, 0);
        prop_assert_eq!(resp.opcode, wire::OP_STATS);
        prop_assert_eq!(wire::decode_stats_body(&resp.body).unwrap(), snap);
    }

    /// Seeded bit flips in every fuzz input fail closed.
    #[test]
    fn bit_flipped_inputs_fail_closed(flips in proptest::collection::vec(any::<usize>(), 1..4)) {
        for bytes in snapshot_corpus() {
            check_snapshot(&bit_flips(bytes, &flips));
        }
        for (frame, _) in request_corpus() {
            check_request(&bit_flips(&frame, &flips));
        }
        check_stats_body(&bit_flips(&stats_corpus(), &flips));
    }
}

// ---------------------------------------------------------------------
// Mutation fuzzing
// ---------------------------------------------------------------------

/// Records, while armed by [`fails_closed`], the largest single allocation
/// the current thread asks for.
struct TrackingAlloc;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(m) = l.get() {
            l.set(Some(m.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; `note` only reads a size and touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Runs `decode` on `input`, asserting that no single allocation outgrew
/// the input: a decoder may expand what the bytes hold (the widest case is
/// a one-byte varint degree becoming an 8-byte CSR offset), never allocate
/// for a count they cannot hold. A panic fails the calling test.
fn fails_closed<T>(input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    LARGEST.with(|l| l.set(Some(0)));
    let out = decode(input);
    let largest = LARGEST.with(|l| l.take()).unwrap();
    assert!(
        largest <= 8 * input.len() + 4096,
        "a {}-byte input allocated {largest} bytes at once",
        input.len()
    );
    out
}

/// Session snapshots on both backends, with and without an `ORCL` section.
fn snapshot_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut out = Vec::new();
        for backend in [Backend::Plain, Backend::Compressed] {
            for oracle in [true, false] {
                let p = params(2, 3, oracle).with_backend(backend);
                let mut bytes = Vec::new();
                Session::build(generators::mesh(4, 5), &p)
                    .save(&mut bytes)
                    .unwrap();
                out.push(bytes);
            }
        }
        out
    })
}

/// `(offset, width)` of a little-endian count or length field.
type Field = (usize, usize);

/// Every count and length field of a snapshot: the section count, each
/// table entry's offset and length, and each known section's header words.
fn snapshot_fields(bytes: &[u8]) -> Vec<Field> {
    let snap = io::Snapshot::parse(bytes).unwrap();
    let mut fields = vec![(10, 4)];
    for (i, e) in snap.sections().iter().enumerate() {
        fields.extend([(22 + 24 * i, 8), (30 + 24 * i, 8)]);
        let words = match e.tag {
            io::SECTION_GRAPH => 2,            // n, arcs
            io::SECTION_GRAPH_COMPRESSED => 3, // n, arcs, data_len
            SECTION_CLUSTERING => 3,           // n, k, growth_steps
            SECTION_ORACLE => 1,               // q
            _ => 0,
        };
        fields.extend((0..words).map(|w| (e.offset + 8 * w, 8)));
    }
    fields
}

/// One request frame per opcode, with its count fields.
fn request_corpus() -> Vec<(Vec<u8>, Vec<Field>)> {
    use wire::Request::*;
    let near = Nearest {
        sources: vec![0, 1],
        probes: vec![2],
    };
    let path = "a.pdec".to_string();
    [
        (Info, vec![]),
        (Distance(vec![(0, 1), (2, 3)]), vec![(1, 4)]),
        (ClusterOf(vec![0, 1, 2]), vec![(1, 4)]),
        (Eccentricity(vec![4]), vec![(1, 4)]),
        (near, vec![(1, 4), (5, 4)]),
        (Shutdown, vec![]),
        (Stats, vec![]),
        (Reload { path }, vec![(1, 4)]),
    ]
    .into_iter()
    .map(|(req, fields)| (wire::encode_request(&req), fields))
    .collect()
}

/// A STATS body with two op entries.
fn stats_corpus() -> Vec<u8> {
    let stats = wire::ServerStats::new();
    stats.record(wire::OP_DIST, true, 40, 60, 17);
    stats.record(wire::OP_NEAREST, false, 30, 20, 900);
    wire::encode_stats_body(&stats.snapshot())
}

/// A STATS body's count fields: `n_ops` and each op entry's `n_buckets`.
const STATS_FIELDS: [Field; 3] = [(88, 1), (89 + 25, 1), (89 + 546 + 25, 1)];

/// `bytes` with the bit at each of `flips` (modulo the bit length) flipped.
fn bit_flips(bytes: &[u8], flips: &[usize]) -> Vec<u8> {
    let mut m = bytes.to_vec();
    for &f in flips {
        let bit = f % (8 * m.len());
        m[bit / 8] ^= 1 << (bit % 8);
    }
    m
}

/// `bytes` with `field` rewritten to 0, its value ± 1 and the type's
/// maximum.
fn field_rewrites(bytes: &[u8], (at, width): Field) -> Vec<Vec<u8>> {
    let mut raw = [0u8; 8];
    raw[..width].copy_from_slice(&bytes[at..at + width]);
    let (v, max) = (u64::from_le_bytes(raw), u64::MAX >> (64 - 8 * width));
    [0, v.wrapping_add(1) & max, v.wrapping_sub(1) & max, max]
        .into_iter()
        .map(|x| {
            let mut m = bytes.to_vec();
            m[at..at + width].copy_from_slice(&x.to_le_bytes()[..width]);
            m
        })
        .collect()
}

/// A snapshot either fails to load or loads as a session whose clustering
/// validates and whose queries answer.
fn check_snapshot(bytes: &[u8]) {
    let loaded = fails_closed(bytes, |b| {
        Session::load_checked(b, FrontierStrategy::TopDown)
    });
    let Ok(s) = loaded else { return };
    s.clustering().validate(s.graph()).unwrap();
    let n = s.graph().num_nodes() as NodeId;
    if n > 0 {
        s.nearest(&[0], &[n - 1]).unwrap();
        s.cluster_of(&[n - 1]).unwrap();
        if s.oracle().is_some() {
            s.distance(&[(0, n - 1)]).unwrap();
        }
    }
}

/// A request frame either decodes to a request that re-encodes to the same
/// bytes, or is refused with a decode error code.
fn check_request(frame: &[u8]) {
    match fails_closed(frame, wire::decode_request) {
        Ok(req) => assert_eq!(wire::encode_request(&req), frame, "{req:?}"),
        Err(e) => assert!(
            [
                wire::ERR_MALFORMED,
                wire::ERR_UNKNOWN_OPCODE,
                wire::ERR_BATCH_TOO_LARGE
            ]
            .contains(&e.code),
            "{e:?}"
        ),
    }
}

/// A STATS body either decodes to a snapshot that re-encodes to the same
/// bytes, or is an error.
fn check_stats_body(body: &[u8]) {
    if let Ok(snap) = fails_closed(body, wire::decode_stats_body) {
        assert_eq!(wire::encode_stats_body(&snap), body);
    }
}

/// Every count and length field rewritten to 0, ±1 and its maximum fails
/// closed, in every fuzz input.
#[test]
fn rewritten_count_fields_fail_closed() {
    for bytes in snapshot_corpus() {
        for m in snapshot_fields(bytes)
            .into_iter()
            .flat_map(|f| field_rewrites(bytes, f))
        {
            check_snapshot(&m);
        }
    }
    for (frame, fields) in request_corpus() {
        for m in fields.into_iter().flat_map(|f| field_rewrites(&frame, f)) {
            check_request(&m);
        }
    }
    let body = stats_corpus();
    for m in STATS_FIELDS
        .into_iter()
        .flat_map(|f| field_rewrites(&body, f))
    {
        check_stats_body(&m);
    }
}

/// An in-range, sorted, loop-free but asymmetric graph section — which a
/// structural-checks-only loader would accept — is refused at load, on
/// both backends.
#[test]
fn asymmetric_graph_section_is_rejected_at_load() {
    // path(4): adjacency 0:[1] 1:[0,2] 2:[1,3] 3:[2]. Rewriting the last
    // target (3 → 2) to 1 keeps every list in range, sorted and loop-free.
    // Plain: the last u32 target. Compressed: node 3's one-byte record
    // body, zigzag(2 − 3) = 1 becomes zigzag(1 − 3) = 3.
    for (backend, old, new) in [
        (
            Backend::Plain,
            &2u32.to_le_bytes()[..],
            &1u32.to_le_bytes()[..],
        ),
        (Backend::Compressed, &[1u8][..], &[3u8][..]),
    ] {
        let p = params(2, 1, true).with_backend(backend);
        let s = Session::build(generators::path(4), &p);
        let mut bytes = Vec::new();
        s.save(&mut bytes).unwrap();
        let graph = io::Snapshot::parse(&bytes).unwrap().sections()[0];
        let last = graph.offset + graph.len - old.len();
        assert_eq!(&bytes[last..last + old.len()], old, "{backend:?}");
        bytes[last..last + old.len()].copy_from_slice(new);
        let err = Session::load_checked(&bytes, FrontierStrategy::TopDown).unwrap_err();
        assert!(err.to_string().contains("asymmetric"), "{backend:?}: {err}");
    }
}

/// Golden wire bytes for the OP_STATS surface: the request is the bare
/// opcode, and a handcrafted snapshot encodes to exactly the frame the
/// module docs promise (15-byte response header, 89-byte fixed stats
/// header, 546-byte per-op entries). The expected bytes are derived here
/// by hand, independent of the encoder.
#[test]
fn wire_stats_golden_bytes() {
    assert_eq!(wire::encode_request(&wire::Request::Stats), vec![0x07]);

    let mut latency = pardec::obs::Log2Histogram::new();
    latency.record(0); // bucket 0
    latency.record(5); // bucket 3 (bit length of 5)
    latency.record(1000); // bucket 10
    let snap = wire::StatsSnapshot {
        uptime_us: 7,
        total_requests: 3,
        errors: 1,
        bytes_in: 100,
        bytes_out: 200,
        epoch: 2,
        timeouts: 4,
        shed: 5,
        panics_caught: 6,
        reloads_ok: 1,
        reloads_rolled_back: 9,
        per_op: vec![wire::OpStats {
            opcode: wire::OP_DIST,
            count: 3,
            latency,
        }],
    };

    // Response header: status 0, opcode STATS, zero ledger, strategy 0.
    let mut expect = vec![0u8, wire::OP_STATS];
    expect.extend_from_slice(&[0; 13]);
    // Fixed stats header: the five original counters, then the fault
    // ledger (epoch, timeouts, shed, panics, reloads ok / rolled back).
    for v in [7u64, 3, 1, 100, 200, 2, 4, 5, 6, 1, 9] {
        expect.extend_from_slice(&v.to_le_bytes());
    }
    expect.push(1); // n_ops
                    // The single per-op entry.
    expect.push(wire::OP_DIST);
    for v in [3u64, 3, 1005] {
        expect.extend_from_slice(&v.to_le_bytes());
    }
    expect.push(65); // n_buckets
    let mut buckets = [0u64; 65];
    buckets[0] = 1;
    buckets[3] = 1;
    buckets[10] = 1;
    for b in buckets {
        expect.extend_from_slice(&b.to_le_bytes());
    }
    assert_eq!(expect.len(), 15 + 89 + 546);

    let frame = wire::stats_response_frame(&snap);
    assert_eq!(frame, expect, "STATS frame layout drifted");
    assert_eq!(
        wire::decode_stats_body(&frame[15..]).unwrap(),
        snap,
        "golden frame no longer decodes to its snapshot"
    );
}

/// Live-daemon sibling of `session_every_truncation_errors`: a daemon
/// serving session A is asked to hot-reload **every strict prefix** of
/// snapshot B. Each attempt must be refused with `ERR_RELOAD_FAILED` and
/// rolled back — the daemon keeps answering for A in between — and the
/// final, untruncated B must swap in with an epoch bump.
#[test]
fn live_reload_rejects_every_truncated_snapshot() {
    use std::io::Write as _;

    let a = std::sync::Arc::new(Session::build(
        generators::mesh(4, 4),
        &SessionParams::new(2, 11).with_frontier(FrontierStrategy::TopDown),
    ));
    let b = Session::build(
        generators::mesh(3, 5),
        &SessionParams::new(2, 13)
            .with_frontier(FrontierStrategy::TopDown)
            .without_oracle(),
    );
    let mut b_bytes = Vec::new();
    b.save(&mut b_bytes).unwrap();

    let dir = std::env::temp_dir().join(format!("pardec_prop_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let replacement = dir.join("b.pdec");

    let pool = std::sync::Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = wire::serve_with(
        listener,
        a,
        pool,
        1,
        wire::ServeConfig {
            allow_reload: true,
            ..wire::ServeConfig::default()
        },
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let reload = |stream: &mut std::net::TcpStream, path: String| {
        wire::write_frame(
            stream,
            &wire::encode_request(&wire::Request::Reload { path }),
        )
        .unwrap();
        let body = wire::read_frame(stream).unwrap().unwrap();
        wire::decode_response(&body).unwrap()
    };

    for len in 0..b_bytes.len() {
        let mut f = std::fs::File::create(&replacement).unwrap();
        f.write_all(&b_bytes[..len]).unwrap();
        drop(f);
        let resp = reload(&mut stream, replacement.display().to_string());
        assert_eq!(
            resp.status,
            wire::ERR_RELOAD_FAILED,
            "truncated prefix {len}/{} swapped in",
            b_bytes.len()
        );
        assert_eq!(handle.epoch(), 1, "epoch moved on a rolled-back reload");
    }

    // Daemon still answers for A after the whole gauntlet…
    let resp = wire::roundtrip(&mut stream, &wire::Request::ClusterOf(vec![0, 15])).unwrap();
    assert_eq!(resp.status, 0);

    // …and the intact replacement swaps in with an epoch bump.
    std::fs::write(&replacement, &b_bytes).unwrap();
    let resp = reload(&mut stream, replacement.display().to_string());
    assert_eq!(resp.status, 0, "intact snapshot refused");
    assert_eq!(&resp.body[..], &2u64.to_le_bytes());
    assert_eq!(handle.epoch(), 2);

    let stats = handle.stats();
    assert_eq!(stats.reloads_ok, 1);
    assert_eq!(stats.reloads_rolled_back, b_bytes.len() as u64);

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
