//! Metric catalogue, correctness tally, and the one-line JSON result.

use fci_obs::JsonValue;

/// End-to-end metrics (timed run, `--trace 0`): every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tts_s", "s"),
    ("tts_p95_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run, `--trace 1`). A workload reports 0 for
/// a layer it does not exercise. Host time throughout, except names
/// starting with `sim_`, which are simulated Cray-X1 figures.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scf.rhf_s", "s"),
    ("scf.motran_s", "s"),
    ("core.hamiltonian_s", "s"),
    ("core.space_s", "s"),
    ("sigma.beta_beta_s", "s"),
    ("sigma.transpose_s", "s"),
    ("sigma.alpha_alpha_s", "s"),
    ("sigma.alpha_beta_s", "s"),
    ("sigma.apply_s", "s"),
    ("sigma.alpha_beta_gflops", "GF/s"),
    ("sigma.same_spin_gflops", "GF/s"),
    ("sigma.cpu_util", "cores"),
    ("linalg.dgemm_peak_gflops", "GF/s"),
    ("sigma.alpha_beta_frac_peak", "ratio"),
    ("ddi.net_bytes_per_iter", "bytes"),
    ("ddi.net_msgs_per_iter", "count"),
    ("diag.iterations", "count"),
    ("diag.precond_s", "s"),
    ("diag.vecops_s", "s"),
    ("c2.attributed_frac", "ratio"),
    ("c2.unattributed_s", "s"),
    ("sim_c2.iteration_s", "s"),
    ("sparse.conn_gen_s", "s"),
    ("sparse.connections", "count"),
    ("sparse.scan_gradient_us", "us"),
    ("cdfci.solve_s", "s"),
    ("cdfci.updates", "count"),
    ("cdfci.us_per_update", "us"),
    ("cdfci.support", "count"),
    ("cdfci.threads_speedup", "ratio"),
    ("selected.solve_s", "s"),
    ("selected.support", "count"),
    ("selected.rounds", "count"),
    ("selected.threads_speedup", "ratio"),
    ("net.submit_rtt_ms", "ms"),
    ("wal.append_us", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p95", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("serve.batched_frac", "ratio"),
    ("serve.unattributed_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a metric; `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Tally one checked operation; a failed check is kept for stderr.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Every operation attempted passed its check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line for the metric set of this mode. Metrics the
    /// workload did not set are reported as 0 (layer not exercised).
    pub fn to_json(&self, traced: bool) -> JsonValue {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |m| m.1);
                (
                    name,
                    JsonValue::obj(vec![
                        ("value", JsonValue::Num(value)),
                        ("unit", JsonValue::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Num(self.attempted as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and `BENCHMARK.json` at the repository root
    /// must name the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs: Vec<(String, String)> = spec
                .get(key)
                .and_then(JsonValue::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(theirs, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_mode_metrics() {
        let mut r = Report::default();
        r.set("tts_s", 1.5);
        r.tally(true, String::new);
        let v = r.to_json(false);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        let JsonValue::Obj(m) = v.get("metrics").expect("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[1].1.get_f64("value"), Some(1.5));
        r.tally(false, || "wrong energy".into());
        assert_eq!(
            r.to_json(true).get("correct"),
            Some(&JsonValue::Bool(false))
        );
        assert_eq!(r.failures, vec!["wrong energy".to_string()]);
    }
}
