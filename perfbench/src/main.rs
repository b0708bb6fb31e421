//! `perfbench` — the pardec benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the workload's input from the seed (untimed, in a
//! child process), then measures two phases through the public API:
//!
//! 1. **solve** — load the edge list and repeat `pardec dist approx`
//!    (`Session::build` + `Session::diameter(true, None)`);
//! 2. **serve** — save the session with an oracle as a PDEC2 snapshot, load
//!    it checked, serve it over TCP and drive it closed-loop from two
//!    connections.
//!
//! Spread over both phases, fresh *footprint* child processes each do
//! what `pardec` does with the input once (load it, solve once, start the
//! daemon) and then reload their daemon in a row: `peak_rss_mb` and
//! `reload_p50_ms` come from them.
//!
//! Every output is checked. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`, which holds the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. A traced run also prints the per-layer span table and
//! writes its spans under `.bench_work/traces/`.

mod pipeline;
mod report;
mod serve;
mod trace;
mod workload;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{Role, SpanId, Tracer};
use workload::{Scale, Spec};

/// Scratch space of a run, relative to the working directory.
const WORK_DIR: &str = ".bench_work";
/// Footprint children per run, `SOLVE_FOOTPRINTS` of them in the solve
/// phase and the rest in the serve phase. `peak_rss_mb` is the largest
/// `VmHWM` among them. One process's peak has two modes: building the
/// `serve-mix` session peaked at 53 or at 72 MiB, as two workers' buffers
/// did or did not overlap, and the largest of five lands on the upper one
/// in nearly every run. `reload_p50_ms` is the median of all their timed
/// reloads.
pub const FOOTPRINTS: usize = 5;
pub const SOLVE_FOOTPRINTS: usize = 2;
/// Share of `--seconds` the footprint children spend reloading, together;
/// the two phases measure for the rest. The children's loads and solves
/// come on top.
const RELOAD_SHARE: f64 = 0.15;

/// What the phases of one run share.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    /// Measuring time of the run, split between the phases.
    pub seconds: f64,
    pub tracer: &'a Tracer,
    /// The worker pool of the serve phase, `nproc` workers.
    pub pool: Arc<rayon::ThreadPool>,
    /// The worker pool of the solve phase.
    pub solve_pool: Arc<rayon::ThreadPool>,
    /// Per-run directory for the snapshot.
    pub work: &'a Path,
    /// The run's root span (traced runs only).
    pub root: Option<SpanId>,
    /// Self-test switch: corrupt one reference answer of each kind, so the
    /// checks must fail.
    pub wrong_reference: bool,
    /// Runs one footprint child (none in a child process).
    pub run_footprint: Option<&'a (dyn Fn() -> Result<serve::Footprint, String> + Sync)>,
    /// What the footprint children measured so far.
    pub footprints: Mutex<Vec<serve::Footprint>>,
    /// Seconds spent waiting on footprint children so far.
    pub footprint_s: Mutex<f64>,
}

impl Ctx<'_> {
    /// Runs one footprint child and keeps what it measured. Its time is
    /// left out of the phases' budgets and of a traced run's wall time.
    pub fn footprint(&self) -> Result<(), String> {
        let run = self.run_footprint.ok_or("a child runs no footprints")?;
        let mut footprints = lock(&self.footprints);
        let span = self.tracer.open(
            "footprint",
            Role::Untraced,
            self.root,
            footprints.len() as u64,
        );
        let begin = Instant::now();
        let measured = run();
        *lock(&self.footprint_s) += begin.elapsed().as_secs_f64();
        self.tracer.close(span);
        footprints.push(measured?);
        Ok(())
    }

    /// A phase's clock: seconds since this call, less the time spent in
    /// footprint children since.
    pub fn clock(&self) -> impl Fn() -> f64 + '_ {
        let (start, before) = (Instant::now(), *lock(&self.footprint_s));
        move || start.elapsed().as_secs_f64() - (*lock(&self.footprint_s) - before)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: only write the input edge list here.
    generate: Option<PathBuf>,
    /// Child mode: only print the footprint (`VmHWM`, MiB) of one solve
    /// and one daemon start on the input here, then the daemon's reloads.
    footprint: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut generate, mut footprint) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--generate" => generate = Some(PathBuf::from(value)),
            "--footprint" => footprint = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        generate,
        footprint,
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let spec = Spec::named(&args.workload, Scale::Full).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    if let Some(out) = &args.generate {
        return spec
            .write_input(args.seed, out)
            .map_err(|e| format!("cannot write {}: {e}", out.display()));
    }
    if let Some(input) = &args.footprint {
        let tracer = Tracer::new(false);
        let work = input.parent().unwrap_or(Path::new("."));
        let ctx = context(&spec, args.seed, args.seconds, &tracer, work, false, None)?;
        println!("{}", footprint(&ctx, input)?.to_line());
        return Ok(());
    }
    let work = Path::new(WORK_DIR).join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let input = work.join("graph.txt");
    let reload_seconds = args.seconds * RELOAD_SHARE / FOOTPRINTS as f64;
    let run_footprint = || {
        child(&args, "--footprint", &input, reload_seconds)
            .and_then(|out| serve::Footprint::from_line(&out))
    };
    let outcome = child(&args, "--generate", &input, args.seconds).and_then(|_| {
        measure(
            &spec,
            args.seed,
            args.seconds * (1.0 - RELOAD_SHARE),
            args.trace,
            &work,
            &input,
            &run_footprint,
            false,
        )
    });
    let _ = std::fs::remove_dir_all(&work);
    let (report, tracer) = outcome?;

    println!(
        "# perfbench {} seed {} trace {}",
        spec.name, args.seed, args.trace as u8
    );
    println!("# tags {}", report.tags_json());
    if args.trace {
        print!("{}", tracer.table().render());
        let dir = Path::new(WORK_DIR).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    println!(
        "{}",
        report.result_json(if args.trace { PER_LAYER } else { END_TO_END })?
    );
    Ok(())
}

/// Runs this binary in child mode `flag` on `input` for `seconds` and
/// returns what it printed.
fn child(args: &Args, flag: &str, input: &Path, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg(flag)
        .arg(input)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {flag} child: {e}"))?;
    if out.status.success() {
        String::from_utf8(out.stdout).map_err(|e| e.to_string())
    } else {
        Err(format!("the {flag} child failed: {}", out.status))
    }
}

/// The footprint of the `pardec` process: load the input, run one
/// `dist approx` solve, then build, save and checked-load the serving
/// session and start the daemon, which then reloads for `ctx.seconds`.
/// Its `VmHWM` means the real footprint only in a fresh process.
fn footprint(ctx: &Ctx, input: &Path) -> Result<serve::Footprint, String> {
    let graph = ctx
        .solve_pool
        .install(|| pipeline::solve_once(ctx, input))?;
    serve::footprint(ctx, &graph)
}

/// The git commit of the working directory's checkout, read from `.git`
/// without leaving the checkout; "unknown" outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r))
                .map(|l| l.trim().to_string())
        }),
        None => Some(head),
    };
    sha.map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The context of a run, on fresh worker pools.
fn context<'a>(
    spec: &'a Spec,
    seed: u64,
    seconds: f64,
    tracer: &'a Tracer,
    work: &'a Path,
    wrong_reference: bool,
    run_footprint: Option<&'a (dyn Fn() -> Result<serve::Footprint, String> + Sync)>,
) -> Result<Ctx<'a>, String> {
    let pool = |workers: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .map(Arc::new)
            .map_err(|e| format!("cannot build a worker pool: {e:?}"))
    };
    Ok(Ctx {
        spec,
        seed,
        seconds,
        tracer,
        pool: pool(nproc())?,
        solve_pool: pool(spec.solve_workers.unwrap_or(nproc()))?,
        work,
        root: tracer
            .on()
            .then(|| tracer.open("run", Role::Bench, None, 0)),
        wrong_reference,
        run_footprint,
        footprints: Mutex::new(Vec::new()),
        footprint_s: Mutex::new(0.0),
    })
}

/// Runs both phases on the input at `input`, with `run_footprint` called
/// between measurements, and returns the report (with every metric of
/// both kinds) and the spans.
#[allow(clippy::too_many_arguments)]
fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    input: &Path,
    run_footprint: &(dyn Fn() -> Result<serve::Footprint, String> + Sync),
    wrong_reference: bool,
) -> Result<(Report, Tracer), String> {
    let tracer = Tracer::new(traced);
    let ctx = context(
        spec,
        seed,
        seconds,
        &tracer,
        work,
        wrong_reference,
        Some(run_footprint),
    )?;
    let mut report = Report::default();
    report.tag("workload", spec.name);
    report.tag("seed", seed);
    report.tag("git_sha", git_sha());
    report.tag("nproc", nproc());
    report.tag("solve_pool", ctx.solve_pool.current_num_threads());
    report.tag("serve_pool", ctx.pool.current_num_threads());
    report.tag("tau", spec.tau);
    report.tag("frontier", "top-down");

    let graph = ctx
        .solve_pool
        .install(|| pipeline::run(&ctx, input, &mut report))?;
    serve::run(&ctx, graph, &mut report)?;
    let footprints = std::mem::take(&mut *lock(&ctx.footprints));
    report.check(footprints.len() == FOOTPRINTS, || {
        format!(
            "{} footprint children ran, not {FOOTPRINTS}",
            footprints.len()
        )
    });
    let peak = footprints.iter().map(|f| f.peak_rss_mb).fold(0.0, f64::max);
    report.metric("peak_rss_mb", peak);
    let each = |f: &dyn Fn(&serve::Footprint) -> String| {
        footprints.iter().map(f).collect::<Vec<_>>().join("/")
    };
    report.tag(
        "child_peak_rss_mb",
        each(&|f| format!("{:.1}", f.peak_rss_mb)),
    );
    report.tag(
        "child_reload_p50_ms",
        each(&|f| format!("{:.1}", 1e3 * report::median(f.reloads.latency()))),
    );
    let mut reloads = serve::Lane::default();
    for f in footprints {
        reloads.merge(f.reloads);
    }
    report.metric("reload_p50_ms", 1e3 * report::median(reloads.latency()));
    report.tag("child_reloads", reloads.latency().len());
    reloads.into_report("footprint reloads", &mut report);
    if let Some(root) = ctx.root {
        tracer.close(root);
        report.metric("trace.coverage", tracer.table().coverage);
    }
    Ok((report, tracer))
}

#[cfg(test)]
mod tests {
    //! Self-tests on tiny inputs.
    use super::*;

    fn tiny_run(name: &str, traced: bool, wrong_reference: bool) -> (Report, Tracer) {
        let spec = Spec::named(name, Scale::Tiny).unwrap();
        let work = Path::new(WORK_DIR).join(format!(
            "test-{name}-{}-{}-{}",
            traced as u8,
            wrong_reference as u8,
            std::process::id()
        ));
        std::fs::create_dir_all(&work).unwrap();
        let input = work.join("graph.txt");
        spec.write_input(7, &input).unwrap();
        let run_footprint = || {
            let tracer = Tracer::new(false);
            let ctx = context(&spec, 7, 0.05, &tracer, &work, false, None)?;
            footprint(&ctx, &input)
        };
        let out = measure(
            &spec,
            7,
            0.4,
            traced,
            &work,
            &input,
            &run_footprint,
            wrong_reference,
        );
        std::fs::remove_dir_all(&work).unwrap();
        out.unwrap()
    }

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn listed(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{list}\"")).unwrap();
        let body = &json[start..start + json[start..].find(']').unwrap()];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').unwrap() + 1;
            rest[open..open + rest[open..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
        for name in workload::NAMES {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for name in workload::NAMES {
            for traced in [false, true] {
                let (report, _) = tiny_run(name, traced, false);
                let list = if traced { PER_LAYER } else { END_TO_END };
                let line = report.result_json(list).unwrap();
                for (metric, unit) in list {
                    let printed = format!("\"{metric}\": {{\"value\": ");
                    let at = line
                        .find(&printed)
                        .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                    let unit_field = format!("\"unit\": \"{unit}\"}}");
                    assert!(
                        line[at..].contains(&unit_field),
                        "{name}: {metric} lacks unit {unit}"
                    );
                }
                assert_eq!(
                    report.failed, 0,
                    "{name} failed checks on a correct program"
                );
                assert!(line.starts_with("{\"correct\": true"));
            }
        }
    }

    #[test]
    fn wrong_reference_answers_are_counted_as_failures() {
        for name in workload::NAMES {
            let (report, _) = tiny_run(name, false, true);
            assert!(
                report.failed > 0,
                "{name}: a wrong reference passed silently"
            );
            let line = report.result_json(END_TO_END).unwrap();
            assert!(line.starts_with("{\"correct\": false"), "{line}");
            assert!(report.failed_frac() > 0.0);
        }
    }

    #[test]
    fn per_layer_table_sums_to_its_coverage() {
        let (report, tracer) = tiny_run("social-diameter", true, false);
        let table = tracer.table();
        let coverage = report.get("trace.coverage").unwrap();
        assert_eq!(coverage, table.coverage);
        // The layer spans never nest, so the layer rows sum to the union of
        // their intervals, and with the benchmark's own self time they tile
        // the wall time: time outside every layer span is not covered.
        let layers = table.share(Role::Layer);
        assert!((layers - coverage).abs() < 1e-9, "{layers} vs {coverage}");
        let tiled = layers + table.share(Role::Bench);
        assert!((tiled - 1.0).abs() < 1e-6, "layers + bench = {tiled}");
        assert!(coverage > 0.3 && coverage < 1.0, "coverage {coverage}");
        for (name, role) in [
            ("io.read", Role::Layer),
            ("cluster", Role::Layer),
            ("quotient", Role::Layer),
            ("qdiam", Role::Layer),
            ("wapsp", Role::Layer),
            ("request.nearest", Role::Layer),
            ("request.reload", Role::Layer),
            ("stages", Role::Bench),
            ("solve.untraced", Role::Untraced),
        ] {
            assert!(
                table.rows.iter().any(|r| r.name == name && r.role == role),
                "{name} has no {role:?} span"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload serve-mix --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload serve-mix --seconds 2").is_err());
        assert!(parse("--workload serve-mix --seed 3 --trace 2").is_err());
        assert!(parse("--workload serve-mix --seed 3 --seconds -1").is_err());
        assert!(parse("--workload serve-mix --seed 3 --bogus 1").is_err());
    }
}
