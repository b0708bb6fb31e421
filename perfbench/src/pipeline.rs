//! The solve phase: load the edge list, then repeat exactly what
//! `pardec dist approx` runs after its load, `Session::build` without an
//! oracle plus `Session::diameter(true, None)`.
//!
//! Every repetition is checked. The clustering must validate, repetitions
//! must agree, and the bounds must bracket cheap references: the
//! double-sweep lower bound ≤ Δ″ ≤ Δ′ and Δ_C ≤ 2·ecc(0). The traced run
//! also replays the stages one public call at a time (cluster, frontier
//! BFS, quotient, quotient diameter, weighted quotient, weighted APSP) and
//! checks that they recompose the session's bounds exactly.

use crate::report::{median, Report};
use crate::trace::{Role, SpanId, Tracer};
use crate::workload::Kind;
use crate::Ctx;
use pardec_core::{cluster, ClusterParams, DiameterApprox, Session, SessionParams};
use pardec_graph::{
    components, diameter, frontier, io, traversal, CsrGraph, FrontierStrategy, NeighborAccess,
    NodeId, INFINITE_DIST,
};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Edge-list reads per run on the pipeline workloads: at least
/// `SETUP_READS`, and more until `SETUP_SECONDS` have passed (`setup_s` is
/// their median). The road input reads in under 0.1 s, so seven reads
/// alone would take its median from under a second of samples.
const SETUP_READS: usize = 7;
const SETUP_SECONDS: f64 = 2.0;
/// Solve repetitions per run, however short `--seconds` is.
const MIN_SOLVES: usize = 3;

/// Runs `f`, one call into a pardec module, inside a layer span and also
/// returns its wall time in seconds.
pub fn timed<R>(
    t: &Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let r = t.time(name, Role::Layer, parent, f);
    (r, start.elapsed().as_secs_f64())
}

/// Cheap reference answers the diameter bounds must bracket.
#[derive(Clone, Copy, Debug)]
struct References {
    /// Double-sweep lower bound on Δ.
    sweep_lower: u64,
    /// Eccentricity of node 0, so Δ ≤ 2·ecc(0) on a connected graph.
    ecc0: u64,
}

impl References {
    fn of(g: &CsrGraph, wrong: bool) -> References {
        let r = References {
            sweep_lower: diameter::double_sweep(g, 0).lower_bound as u64,
            ecc0: traversal::bfs(g, 0).levels as u64,
        };
        if wrong {
            // A sweep "lower bound" above any upper bound: every bracket
            // check must now fail.
            References {
                sweep_lower: u64::MAX / 2,
                ..r
            }
        } else {
            r
        }
    }

    fn bracket(&self, a: &DiameterApprox) -> bool {
        a.upper_bound_weighted
            .is_some_and(|w| self.sweep_lower <= w && w <= a.upper_bound && a.lower_bound <= w)
            && a.lower_bound <= 2 * self.ecc0
    }
}

/// Everything a repetition must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    bounds: (u64, u64, Option<u64>),
    radius: u32,
    quotient: (usize, usize),
    clusters: usize,
    growth_steps: usize,
}

impl Fingerprint {
    fn of(a: &DiameterApprox) -> Fingerprint {
        Fingerprint {
            bounds: (a.lower_bound, a.upper_bound, a.upper_bound_weighted),
            radius: a.radius,
            quotient: (a.quotient_nodes, a.quotient_edges),
            clusters: a.clustering.num_clusters(),
            growth_steps: a.growth_steps,
        }
    }
}

fn read_graph(path: &Path) -> Result<CsrGraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    io::read_edge_list(&mut BufReader::new(file))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// One `dist approx` solve; also returns the `Session::diameter` time.
fn solve(
    t: &Tracer,
    g: CsrGraph,
    params: &SessionParams,
    parent: Option<SpanId>,
) -> (Session, DiameterApprox, f64) {
    let session = t.time("session.build", Role::Layer, parent, || {
        Session::build(g, params)
    });
    let (approx, diameter_s) = timed(t, "session.diameter", parent, || {
        session.diameter(true, None)
    });
    (session, approx, diameter_s)
}

/// What `pardec dist approx` builds: no oracle, top-down frontier.
fn solve_params(ctx: &Ctx) -> SessionParams {
    SessionParams::new(ctx.spec.tau, ctx.seed)
        .with_frontier(FrontierStrategy::TopDown)
        .with_backend(ctx.spec.backend)
        .without_oracle()
}

/// One load and one untimed `dist approx` solve, as the `pardec` process
/// runs them; returns the loaded graph.
pub fn solve_once(ctx: &Ctx, input: &Path) -> Result<CsrGraph, String> {
    let g = read_graph(input)?;
    solve(ctx.tracer, g.clone(), &solve_params(ctx), None);
    Ok(g)
}

/// The routine `approximate_diameter_of_clustering` picks for Δ_C.
fn quotient_diameter(q: &CsrGraph) -> (u64, &'static str) {
    if q.num_nodes() <= 4096 {
        (diameter::apsp_diameter(q) as u64, "apsp")
    } else if components::is_connected(q) {
        (diameter::ifub(q, 0).0 as u64, "ifub")
    } else {
        (diameter::exact_diameter(q) as u64, "exact")
    }
}

/// Per-stage times of the traced run's replays.
#[derive(Default)]
struct Stages {
    cluster: Vec<f64>,
    bfs: Vec<f64>,
    quotient: Vec<f64>,
    qdiam: Vec<f64>,
    wquotient: Vec<f64>,
    wapsp: Vec<f64>,
    diameter: Vec<f64>,
}

impl Stages {
    /// Replays the solve one layer at a time and checks that the stages
    /// recompose the session's bounds.
    fn replay(
        &mut self,
        ctx: &Ctx,
        session: &Session,
        approx: &DiameterApprox,
        report: &mut Report,
    ) {
        let t = ctx.tracer;
        let stages = t.open("stages", Role::Bench, ctx.root, 0);
        let span = Some(stages);
        let g = session.graph();
        let params =
            ClusterParams::new(ctx.spec.tau, ctx.seed).with_frontier(FrontierStrategy::TopDown);
        let (c, s) = timed(t, "cluster", span, || cluster(g, &params));
        self.cluster.push(s);
        report.check(c.clustering == *session.clustering(), || {
            "replayed cluster() differs from the session's clustering".into()
        });
        report.metric("cluster.growth_steps", c.trace.total_growth_steps() as f64);
        report.metric("cluster.batches", c.trace.num_batches() as f64);
        report.metric("cluster.clusters", c.clustering.num_clusters() as f64);
        report.metric("cluster.radius", c.clustering.max_radius() as f64);

        let (bfs, s) = timed(t, "frontier.bfs", span, || {
            frontier::single_source_bfs(g, 0, FrontierStrategy::TopDown)
        });
        self.bfs.push(s);
        let scanned: usize = (0..g.num_nodes())
            .filter(|&v| bfs.dist[v] != INFINITE_DIST)
            .map(|v| g.degree(v as NodeId))
            .sum();
        report.metric("frontier.levels", bfs.levels as f64);
        report.metric("frontier.edges_per_s", scanned as f64 / median(&self.bfs));

        let ((q, kernel), s) = timed(t, "quotient", span, || c.clustering.quotient_with_stats(g));
        self.quotient.push(s);
        report.metric("quotient.cut_edges", kernel.input_pairs as f64);
        report.metric("quotient.edges", q.num_edges() as f64);
        let ((q_diam, routine), s) = timed(t, "qdiam", span, || quotient_diameter(&q));
        self.qdiam.push(s);
        report.metric("qdiam.nodes", q.num_nodes() as f64);
        let (wq, s) = timed(t, "wquotient", span, || c.clustering.weighted_quotient(g));
        self.wquotient.push(s);
        let (w_diam, s) = timed(t, "wapsp", span, || wq.apsp_diameter());
        self.wapsp.push(s);
        report.metric("wapsp.sources", wq.num_nodes() as f64);
        t.close(stages);

        let radius = c.clustering.max_radius() as u64;
        let recomposed = (
            q_diam,
            2 * radius * (q_diam + 1) + q_diam,
            Some(2 * radius + w_diam),
        );
        let reported = (
            approx.lower_bound,
            approx.upper_bound,
            approx.upper_bound_weighted,
        );
        report.check(recomposed == reported, || {
            format!("stages recompose to {recomposed:?}, Session::diameter reported {reported:?} (Δ_C by {routine})")
        });
    }

    fn report(&self, report: &mut Report) {
        let m = |v: &Vec<f64>| median(v);
        report.metric("cluster.s", m(&self.cluster));
        report.metric("frontier.bfs_s", m(&self.bfs));
        report.metric("quotient.s", m(&self.quotient));
        report.metric("qdiam.s", m(&self.qdiam));
        report.metric("wquotient.s", m(&self.wquotient));
        report.metric("wapsp.s", m(&self.wapsp));
        report.metric("diameter.s", m(&self.diameter));
        let stages = m(&self.quotient) + m(&self.qdiam) + m(&self.wquotient) + m(&self.wapsp);
        report.metric("diameter.coverage", stages / m(&self.diameter));
    }
}

/// Loads the input and runs the solve phase for its share of `--seconds`.
/// Returns the loaded graph for the serve phase.
pub fn run(ctx: &Ctx, input: &Path, report: &mut Report) -> Result<CsrGraph, String> {
    let t = ctx.tracer;
    let (reads, seconds) = match ctx.spec.kind {
        Kind::Pipeline => (SETUP_READS, SETUP_SECONDS),
        Kind::Serve => (1, 0.0),
    };
    let mut read_s = Vec::new();
    let mut graph = None;
    let start = Instant::now();
    while read_s.len() < reads || start.elapsed().as_secs_f64() < seconds {
        let (g, s) = timed(t, "io.read", ctx.root, || read_graph(input));
        graph = Some(g?);
        read_s.push(s);
    }
    let g = graph.expect("at least one read");
    let read = median(&read_s);
    if ctx.spec.kind == Kind::Pipeline {
        report.metric("setup_s", read);
    }
    let bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    report.metric("io.read_s", read);
    report.metric("io.read_mb_per_s", bytes as f64 / 1e6 / read);
    report.tag("n", g.num_nodes());
    report.tag("m", g.num_edges());

    let refs = t.time("check.references", Role::Bench, ctx.root, || {
        References::of(&g, ctx.wrong_reference)
    });
    let params = solve_params(ctx);
    // In the traced run every other repetition runs without layer spans,
    // so the two medians give the tracing overhead.
    let untraced = Tracer::new(false);
    let budget = ctx.seconds * ctx.spec.solve_share;
    let clock = ctx.clock();
    // The phase's footprint children run between repetitions, each once
    // its share of the budget has passed.
    let mut footprints = 0;
    let mut footprints_due = |progress: f64| -> Result<(), String> {
        while footprints < crate::SOLVE_FOOTPRINTS
            && progress >= (footprints as f64 + 0.5) / crate::SOLVE_FOOTPRINTS as f64
        {
            ctx.footprint()?;
            footprints += 1;
        }
        Ok(())
    };
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut stages = Stages::default();
    let mut first: Option<Fingerprint> = None;
    let mut reps = 0;
    while reps < MIN_SOLVES || clock() < budget {
        let traced = t.on() && reps % 2 == 1;
        let span = if traced {
            t.open("solve", Role::Bench, ctx.root, reps as u64)
        } else {
            t.open("solve.untraced", Role::Untraced, ctx.root, reps as u64)
        };
        let graph = g.clone();
        let begin = Instant::now();
        let (session, approx, diameter_s) = solve(
            if traced { t } else { &untraced },
            graph,
            &params,
            Some(span),
        );
        let solve_s = begin.elapsed().as_secs_f64();
        t.close(span);
        if traced {
            traced_s.push(solve_s);
            stages.diameter.push(diameter_s);
        } else {
            plain_s.push(solve_s);
        }

        let fp = Fingerprint::of(&approx);
        match &first {
            None => {
                let valid = t.time("check.validate", Role::Bench, ctx.root, || {
                    session.clustering().validate(session.graph())
                });
                report.check(valid.is_ok(), || format!("invalid clustering: {valid:?}"));
                report.tag("quotient_nodes", approx.quotient_nodes);
                report.tag("quotient_edges", approx.quotient_edges);
                report.tag("clusters", approx.clustering.num_clusters());
                first = Some(fp);
            }
            Some(f) => report.check(*f == fp, || {
                format!("repetition {reps} gave {fp:?}, not {f:?}")
            }),
        }
        report.check(refs.bracket(&approx), || {
            format!(
                "bounds {:?} do not bracket the references {refs:?}",
                Fingerprint::of(&approx).bounds
            )
        });
        if traced {
            stages.replay(ctx, &session, &approx, report);
        }
        reps += 1;
        footprints_due(clock() / budget)?;
    }
    footprints_due(f64::INFINITY)?;
    report.metric("solve_s", median(&plain_s));
    report.tag("solve_reps", plain_s.len());
    if t.on() {
        report.metric("trace.overhead", median(&traced_s) / median(&plain_s) - 1.0);
        stages.report(report);
    }
    Ok(g)
}
