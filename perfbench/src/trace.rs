//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark itself, around its own calls into
//! each layer's public functions; the library's `pardec_obs` tracing stays
//! off. Each span has a name, a role, start, end, parent span and request
//! id. They are kept in memory and written out when the run ends, and the
//! per-layer table is computed from them.
//!
//! Spans nest on one thread: a span's children run on its thread and
//! inside its interval. A thread's outermost span has no parent (a *root*),
//! and each root is one lane of wall time, so a concurrent client thread
//! counts as a lane of its own. Deliberately untraced spans are left out of
//! the wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span (meaningless when tracing is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// What a span's time stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// One call into a pardec module: the time `trace.coverage` counts.
    Layer,
    /// The benchmark's own work: the run, phase containers and checks.
    /// Its self time is what the layer spans leave uncovered.
    Bench,
    /// A repetition run without layer spans, the baseline of
    /// `trace.overhead`; left out of the wall time.
    Untraced,
}

impl Role {
    fn as_str(self) -> &'static str {
        match self {
            Role::Layer => "layer",
            Role::Bench => "bench",
            Role::Untraced => "untraced",
        }
    }
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    role: Role,
    parent: Option<usize>,
    req: u64,
    start_ns: u64,
    end_ns: Option<u64>,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.end_ns.unwrap_or(self.start_ns)
    }

    fn dur_s(&self) -> f64 {
        (self.end_ns() - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder; a no-op when constructed disabled.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// One row of the per-layer table: every span of one name.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub role: Role,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// The per-layer table of a traced run.
#[derive(Clone, Debug)]
pub struct Table {
    /// Sum of the root spans' durations, less the untraced spans'.
    pub wall_s: f64,
    /// Share of the wall time inside at least one layer span, measured on
    /// the union of the layer spans' intervals of each lane.
    pub coverage: f64,
    /// Layer rows first, each role's rows largest self time first.
    pub rows: Vec<Row>,
}

impl Table {
    /// Summed share of wall time of the rows of `role`: total time for
    /// layers (a layer's children are part of it), self time otherwise.
    pub fn share(&self, role: Role) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.role == role)
            .map(|r| {
                if role == Role::Layer {
                    r.total_s
                } else {
                    r.self_s
                }
            })
            .sum::<f64>()
            / self.wall_s
    }

    /// The table as text, one row a line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# per-layer table (wall {:.3} s, coverage {:.4}, untraced {:.3} s)\n# {:<26} {:>8} {:>7} {:>11} {:>11} {:>8} {:>8}\n",
            self.wall_s,
            self.coverage,
            self.rows
                .iter()
                .filter(|r| r.role == Role::Untraced)
                .map(|r| r.total_s)
                .sum::<f64>(),
            "span",
            "role",
            "count",
            "total_s",
            "self_s",
            "share",
            "self%"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "# {:<26} {:>8} {:>7} {:>11.4} {:>11.4} {:>7.2}% {:>7.2}%",
                r.name,
                r.role.as_str(),
                r.count,
                r.total_s,
                r.self_s,
                100.0 * r.total_s / self.wall_s,
                100.0 * r.self_s / self.wall_s
            );
        }
        out
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span under `parent` (a root when `None`).
    pub fn open(&self, name: &'static str, role: Role, parent: Option<SpanId>, req: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            role,
            parent: parent.map(|p| p.0),
            req,
            start_ns,
            end_ns: None,
        });
        SpanId(spans.len() - 1)
    }

    pub fn close(&self, id: SpanId) {
        if self.on {
            let end = self.now_ns();
            self.spans()[id.0].end_ns = Some(end);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        role: Role,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, role, parent, 0);
        let r = f();
        self.close(id);
        r
    }

    /// Aggregates the closed spans by name and measures the coverage.
    pub fn table(&self) -> Table {
        let spans = self.spans();
        let mut child_s = vec![0.0; spans.len()];
        // Root (lane) of every span; parents precede their children.
        let mut lane = vec![0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
                lane[i] = lane[p];
            } else {
                lane[i] = i;
            }
        }
        let mut wall_s = 0.0;
        let mut by_name: BTreeMap<(Role, &'static str), Row> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.role == Role::Untraced {
                wall_s -= s.dur_s();
            }
            if s.parent.is_none() {
                wall_s += s.dur_s();
            }
            let r = by_name.entry((s.role, s.name)).or_insert(Row {
                name: s.name,
                role: s.role,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            r.count += 1;
            r.total_s += s.dur_s();
            r.self_s += (s.dur_s() - child_s[i]).max(0.0);
        }

        // Covered time: the union of each lane's layer intervals.
        let mut layers: Vec<(usize, u64, u64)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role == Role::Layer)
            .map(|(i, s)| (lane[i], s.start_ns, s.end_ns()))
            .collect();
        layers.sort_unstable();
        let mut covered_ns = 0u64;
        let mut open: Option<(usize, u64, u64)> = None;
        for (l, start, end) in layers {
            match &mut open {
                Some((ol, _, oe)) if *ol == l && start <= *oe => *oe = (*oe).max(end),
                _ => {
                    if let Some((_, os, oe)) = open {
                        covered_ns += oe - os;
                    }
                    open = Some((l, start, end));
                }
            }
        }
        if let Some((_, os, oe)) = open {
            covered_ns += oe - os;
        }

        let mut rows: Vec<Row> = by_name.into_values().collect();
        rows.sort_by(|a, b| a.role.cmp(&b.role).then(b.self_s.total_cmp(&a.self_s)));
        Table {
            wall_s,
            coverage: covered_ns as f64 / 1e9 / wall_s,
            rows,
        }
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"role\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.role.as_str(),
                s.req,
                s.start_ns,
                s.end_ns()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms))
    }

    /// A run whose container holds a layer with a nested layer, a gap, and
    /// a second piece of work that is a layer only if `span_second`.
    fn traced_run(span_second: bool) -> Table {
        let t = Tracer::new(true);
        let root = t.open("run", Role::Bench, None, 0);
        let outer = t.open("phase", Role::Bench, Some(root), 0);
        let layer = t.open("layer", Role::Layer, Some(outer), 0);
        t.time("nested", Role::Layer, Some(layer), || sleep_ms(3));
        t.close(layer);
        sleep_ms(2);
        if span_second {
            t.time("second", Role::Layer, Some(outer), || sleep_ms(4));
        } else {
            sleep_ms(4);
        }
        t.close(outer);
        t.time("baseline", Role::Untraced, Some(root), || sleep_ms(5));
        t.close(root);
        t.table()
    }

    #[test]
    fn coverage_counts_layers_only_and_drops_with_a_missing_span() {
        let full = traced_run(true);
        let missing = traced_run(false);
        for table in [&full, &missing] {
            assert!(table.coverage > 0.0 && table.coverage < 1.0);
            // Layers and the benchmark's own self time tile the wall.
            let tiled = table.share(Role::Bench) + table.coverage;
            assert!((tiled - 1.0).abs() < 1e-6, "{tiled}");
            let base = table.rows.iter().find(|r| r.name == "baseline").unwrap();
            assert!(base.total_s >= 0.005 && table.wall_s >= 0.009);
        }
        // The nested layer is counted once.
        assert!(full.share(Role::Layer) > full.coverage);
        assert!(
            missing.coverage < full.coverage - 0.1,
            "{} vs {}",
            missing.coverage,
            full.coverage
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("run", Role::Bench, None, 0);
        t.time("x", Role::Layer, Some(id), || ());
        t.close(id);
        assert!(t.to_jsonl().is_empty());
    }
}
