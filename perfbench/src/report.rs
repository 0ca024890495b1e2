//! The benchmark's result: outcome counts, named metrics with units, and the final
//! JSON line.

/// Every end-to-end metric with its unit, in output order. An untraced run of every
/// workload prints all of them; each workload defines `ops_per_s` by its own unit of work
/// (see `NOTES.md`).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ops_per_s", "1/s")];

/// Every per-layer metric with its unit, in output order. A traced run prints all of
/// them; a layer the workload does not run reads 0 (see `NOTES.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flsys.build.calls", "count"),
    ("flsys.build.ms", "ms"),
    ("core.solve.calls", "count"),
    ("core.solve.ms", "ms"),
    ("core.solve.p50_us", "us"),
    ("core.solve.tail_us", "us"),
    ("core.outer_iters", "count"),
    ("core.jong_iters", "count"),
    ("core.kkt_solves", "count"),
    ("core.mu_evals", "count"),
    ("core.sp1_probes", "count"),
    ("core.fast_path_hits", "count"),
    ("core.degraded", "count"),
    ("core.sp1.call_us", "us"),
    ("core.sp2.call_us", "us"),
    ("core.sp2.reference.call_us", "us"),
    ("core.sp2.reference.share_est", "ratio"),
    ("core.sp2.reference.share_ab", "ratio"),
    ("baselines.benchmark.calls", "count"),
    ("baselines.benchmark.ms", "ms"),
    ("baselines.comm_only.calls", "count"),
    ("baselines.comm_only.ms", "ms"),
    ("baselines.comp_only.calls", "count"),
    ("baselines.comp_only.ms", "ms"),
    ("baselines.scheme1.calls", "count"),
    ("baselines.scheme1.ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.busy_share", "ratio"),
    ("report.render_ms", "ms"),
    ("json.emit_ms", "ms"),
    ("json.bytes", "bytes"),
    ("fresh.p50_ms", "ms"),
    ("fresh.tail_ms", "ms"),
    ("repeat.p50_ms", "ms"),
    ("repeat.tail_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_tail_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.busy_share", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.jong_per_request", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.warm_refreshes", "count"),
    ("gen.late_tail_ms", "ms"),
    ("rounds.re_solve.ms", "ms"),
    ("rounds.static.ms", "ms"),
    ("rounds.fedaecs.ms", "ms"),
    ("rounds.elastic.ms", "ms"),
    ("fedsim.step.calls", "count"),
    ("fedsim.step.us", "us"),
    ("sim.resolve_minus_static_j", "J"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, requests, or policy-round cells).
    pub attempted: u64,
    /// Operations that errored, were refused, or failed an output check.
    pub failed: u64,
    /// Run-level check failures that are not tied to one operation (e.g. a growing
    /// serve backlog); any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric (in insertion order).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a human-readable line printed above the JSON result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` more attempted operations, `bad` of which failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Puts the metrics in [`END_TO_END`] order.
    ///
    /// # Errors
    ///
    /// A metric of [`END_TO_END`] that was not recorded, or one recorded that is not in
    /// it.
    pub fn complete_end_to_end(&mut self) -> Result<(), String> {
        if let Some((name, _, unit)) =
            self.metrics.iter().find(|m| !END_TO_END.contains(&(m.0.as_str(), m.2)))
        {
            return Err(format!("end-to-end metric {name} ({unit}) is not declared"));
        }
        let mut ordered = Vec::new();
        for &(name, unit) in END_TO_END {
            let value = self
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?
                .1;
            ordered.push((name.to_string(), value, unit));
        }
        self.metrics = ordered;
        Ok(())
    }

    /// Puts the metrics in [`PER_LAYER`] order, adding 0 for every layer the workload
    /// did not run.
    ///
    /// # Errors
    ///
    /// A recorded metric that is not in [`PER_LAYER`] or carries another unit.
    pub fn complete_per_layer(&mut self) -> Result<(), String> {
        for (name, _, unit) in &self.metrics {
            if !PER_LAYER.contains(&(name.as_str(), *unit)) {
                return Err(format!("per-layer metric {name} ({unit}) is not declared"));
            }
        }
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                (name.to_string(), value, unit)
            })
            .collect();
        Ok(())
    }

    /// Prints the readable summary and, as the last stdout line, the JSON result.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for failure in &self.check_failures {
            println!("# CHECK FAILED: {failure}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON; they only arise from a broken run.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        // A run that attempted nothing counts as one failed attempt.
        let (attempted, failed) =
            if self.attempted == 0 { (1, 1) } else { (self.attempted, self.failed) };
        let correct = failed == 0
            && self.check_failures.is_empty()
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        println!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            members.join(",")
        );
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};
    use experiments::json::Json;

    /// The `(name, unit)` pairs `BENCHMARK.json` at the repository root declares under
    /// `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    /// `BENCHMARK.json` declares exactly [`PER_LAYER`].
    #[test]
    fn benchmark_json_declares_the_per_layer_metrics() {
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    /// `BENCHMARK.json` declares exactly [`END_TO_END`], in any order.
    #[test]
    fn benchmark_json_declares_the_end_to_end_metrics() {
        let mut declared = declared("end_to_end");
        let mut expected = owned(END_TO_END);
        declared.sort();
        expected.sort();
        assert_eq!(declared, expected);
    }
}
