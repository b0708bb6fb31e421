//! Checks, metrics, tags and the result line of one run.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every run with `--trace 0`, with units.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("nearest_p50_ms", "ms"),
    ("nearest_p90_ms", "ms"),
    ("reload_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every run with `--trace 1`, with units.
/// Must match `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read_s", "s"),
    ("io.read_mb_per_s", "MB/s"),
    ("cluster.s", "s"),
    ("cluster.growth_steps", "count"),
    ("cluster.batches", "count"),
    ("cluster.clusters", "count"),
    ("cluster.radius", "hops"),
    ("frontier.bfs_s", "s"),
    ("frontier.levels", "count"),
    ("frontier.edges_per_s", "1/s"),
    ("quotient.s", "s"),
    ("quotient.cut_edges", "count"),
    ("quotient.edges", "count"),
    ("wquotient.s", "s"),
    ("qdiam.s", "s"),
    ("qdiam.nodes", "count"),
    ("wapsp.s", "s"),
    ("wapsp.sources", "count"),
    ("diameter.s", "s"),
    ("diameter.coverage", "ratio"),
    ("oracle.build_s", "s"),
    ("oracle.matrix_mb", "MiB"),
    ("session.build_s", "s"),
    ("session.save_s", "s"),
    ("session.load_checked_s", "s"),
    ("snapshot.mb", "MiB"),
    ("ccsr.bytes_per_edge", "B"),
    ("wire.decode_us", "us"),
    ("wire.execute_us.dist", "us"),
    ("wire.execute_us.cluster_of", "us"),
    ("wire.execute_us.ecc", "us"),
    ("wire.execute_us.nearest", "us"),
    ("wire.wait_us.lookup", "us"),
    ("wire.wait_us.nearest", "us"),
    ("lookup_qps", "1/s"),
    ("lookup_p50_us", "us"),
    ("lookup_p90_us", "us"),
    ("lookup_p99_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.shed", "count"),
    ("server.timeouts", "count"),
    ("server.reloads_ok", "count"),
    ("failed_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Median of `v` (mean of the middle two for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics; NaN if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    tags: Vec<(&'static str, String)>,
}

impl Report {
    /// Counts one correctness check; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks(ok as u64, !ok as u64, what);
    }

    /// Counts `passed + failed` checks; failures are described on stderr.
    pub fn checks(&mut self, passed: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += passed + failed;
        if failed > 0 {
            self.failed += failed;
            eprintln!("perfbench: {failed} check(s) failed: {}", what());
        }
    }

    /// Records (or overwrites) a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a tag that identifies the configuration measured.
    pub fn tag(&mut self, name: &'static str, value: impl ToString) {
        self.tags.push((name, value.to_string()));
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The tags as one JSON object.
    pub fn tags_json(&self) -> String {
        let fields: Vec<String> = self
            .tags
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace(['"', '\\'], "_")))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `names`. Errs if a metric is missing or not finite.
    pub fn result_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match *name {
                "ok_frac" => 1.0 - self.failed_frac(),
                "failed_frac" => self.failed_frac(),
                _ => self
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in the process status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn missing_or_infinite_metric_is_an_error() {
        let mut r = Report::default();
        r.check(true, String::new);
        assert!(r.result_json(&[("x", "s")]).is_err());
        r.metric("x", f64::INFINITY);
        assert!(r.result_json(&[("x", "s")]).is_err());
        r.metric("x", 1.5);
        let line = r.result_json(&[("x", "s"), ("ok_frac", "ratio")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"x\": {\"value\": 1.5, \"unit\": \"s\"}, \"ok_frac\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn failed_check_is_counted() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "planted".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failed_frac(), 0.5);
        assert!(r
            .result_json(&[])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
