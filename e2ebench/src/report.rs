//! Metric names, sample statistics and the result line.

use crate::cpus::Spread;
use crate::trace::LayerValues;
use std::time::Instant;

/// The tail percentile: a 56 s run makes at least 34 ops (the requests of
/// `serve-online`), so p65 keeps at least ten samples beyond it.
pub const TAIL: f64 = 0.65;

/// End-to-end metrics: name and unit (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p65_ms", "ms"),
    ("ops_per_min", "1/min"),
    ("success_share", "ratio"),
    ("slo_share", "ratio"),
    ("energy_mj", "mJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit (`BENCHMARK.json` `per_layer`). Every
/// workload reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("taskset.generate_ms", "ms"),
    ("platform.build_ms", "ms"),
    ("noc.build_ms", "ms"),
    ("core.problem_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.warmstart_ms", "ms"),
    ("core.phase1_ms", "ms"),
    ("core.phase2_ms", "ms"),
    ("core.phase3_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("milp.solve_ms", "ms"),
    ("milp.root_ms", "ms"),
    ("milp.cuts_ms", "ms"),
    ("milp.tree_ms", "ms"),
    ("milp.simplex_s", "s"),
    ("milp.factor_s", "s"),
    ("milp.separation_s", "s"),
    ("milp.heuristic_s", "s"),
    ("milp.propagation_s", "s"),
    ("milp.other_s", "s"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.refactorizations", "count"),
    ("milp.strong_branch_probes", "count"),
    ("milp.cuts_applied", "count"),
    ("milp.heuristic_incumbents", "count"),
    ("milp.cut_yield", "ratio"),
    ("milp.pivots_per_node", "ratio"),
    ("serve.pre_solve_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.hit_ms", "ms"),
    ("serve.delta_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.delta_zero_node_share", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.utilisation", "ratio"),
    ("loadgen.late_ms", "ms"),
    ("trace.p50_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
    ("witness.moved", "count"),
    ("witness.checked", "count"),
];

/// One named result with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What a workload run hands back to `main`.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// One line per wrong or failed op; the run is incorrect when any.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or empty (traced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer values (traced run) or empty (untraced run).
    pub layers: LayerValues,
}

impl RunResult {
    pub fn new() -> RunResult {
        RunResult {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            end_to_end: Vec::new(),
            layers: LayerValues::new(),
        }
    }

    /// Counts one op; `error` marks it failed.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(END_TO_END.iter().any(|m| m.0 == name), "unknown metric {name}");
        self.end_to_end.push(Metric { name, value, samples });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.0 == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Prints the metric table, then the JSON result as the last line.
    pub fn print(&self, trace: bool) {
        let correct = self.failed == 0 && self.errors.is_empty();
        for e in &self.errors {
            eprintln!("wrong: {e}");
        }
        let mut fields = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                println!("{name:<28} {v:>14.4} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                ));
            }
        } else {
            for (name, unit) in END_TO_END {
                let m =
                    self.end_to_end.iter().find(|m| m.name == name).expect("every metric reported");
                println!("{name:<16} {:>14.4} {unit:<6} n={}", m.value, m.samples);
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(m.value)
                ));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Linear-interpolated quantile `q` of `values` (which need not be sorted).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q`: a weighted mean of all order
/// statistics, the `i`-th weighted by the mass the Beta(q(n+1), (1-q)(n+1))
/// density puts on `[i/n, (i+1)/n]`. The latency percentiles use it: with
/// a few dozen ops of widely spread cost, the plain sample quantile jumps
/// between neighbouring instances (and across gaps in their costs) when
/// per-op noise reorders them, while this estimate moves smoothly.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return quantile(values, q);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (q * (n + 1) as f64 - 1.0, (1.0 - q) * (n + 1) as f64 - 1.0);
    // The density in log form, shifted by its value at the mode so that
    // large exponents cannot underflow; the weights are normalised below.
    let mode = (a / (a + b)).clamp(1e-9, 1.0 - 1e-9);
    let log_pdf = |t: f64| a * t.ln() + b * (1.0 - t).ln();
    let top = log_pdf(mode);
    const STEPS: usize = 32;
    let h = 1.0 / (n * STEPS) as f64;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            (0..STEPS)
                .map(|k| (log_pdf((i * STEPS + k) as f64 * h + h / 2.0) - top).exp())
                .sum::<f64>()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    v.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs the set-up `reps` times, each on the next CPU in turn
/// (`cpus::Spread`), adds the seconds of each repetition to `secs` and
/// returns the last repetition's result.
pub fn repeated_setup<T>(reps: usize, secs: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    let spread = Spread::new();
    for k in 0..reps {
        spread.pin(k);
        let t = Instant::now();
        let out = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    last.expect("at least one repetition")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_quantile_is_smooth_and_in_range() {
        assert!((hd_quantile(&[7.0; 9], 0.5) - 7.0).abs() < 1e-12);
        // Symmetric data: the median estimate is the centre.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 11.0).abs() < 1e-9);
        // It rises with q and stays inside the data.
        let p65 = hd_quantile(&v, 0.65);
        assert!(p65 > 11.0 && p65 < 21.0);
        // Order does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(hd_quantile(&r, 0.65), p65);
        // Against the estimate computed from the Beta CDF directly.
        let v = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0, 40.0, 41.0];
        assert!((hd_quantile(&v, 0.5) - 10.9206).abs() < 1e-3);
        assert!((hd_quantile(&v, 0.65) - 17.5170).abs() < 1e-3);
    }
}
