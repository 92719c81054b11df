//! What the workloads share: run arguments, solver options and the
//! instance-building layers.

use crate::cpus::Spread;
use crate::instances::Built;
use crate::report::{hd_quantile, mean, peak_rss_mb, quantile, RunResult, TAIL};
use crate::trace::{ms, per_op, Trace};
use ndp_core::OptimalConfig;
use ndp_milp::SolverOptions;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions before a run's measured ops, and again after them;
/// `setup_s` is the median of all. Even, so that a closed loop's set-ups
/// run equally often on each of two CPUs. A few hundred milliseconds of set-up
/// timed in one window caught the host's speed of that moment, which swings
/// more over a second than over a minute (`setup_s` spread 0.59 of its
/// median over ten runs); two windows a run apart follow the run's speed.
pub const SETUP_REPS: usize = 4;

/// The command line of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// Where a traced run writes its spans (inside the checkout).
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// The `OptimalConfig` defaults with a serial search: one proof uses one
/// core and its node and pivot counts repeat exactly. The server builds the
/// same options for a `RequestSpec` with `threads=1`.
pub fn serial_options() -> SolverOptions {
    OptimalConfig::default().solver.threads(1)
}

/// Mean per-instance build time of each layer over the run's instances.
pub fn build_layers(r: &mut RunResult, built: &[Built]) {
    let n = built.len();
    let avg =
        |f: &dyn Fn(&Built) -> std::time::Duration| per_op(built.iter().map(|b| ms(f(b))).sum(), n);
    r.layer("taskset.generate_ms", avg(&|b| b.generate));
    r.layer("platform.build_ms", avg(&|b| b.platform));
    r.layer("noc.build_ms", avg(&|b| b.noc));
    r.layer("core.problem_ms", avg(&|b| b.assemble));
}

/// What a closed loop measured.
pub struct ClosedLoop {
    pub latencies: Vec<f64>,
    pub energies: Vec<f64>,
    pub ok: usize,
    pub within_slo: usize,
    pub elapsed_s: f64,
}

/// Runs the ops of `order` one at a time, each on the next CPU in turn
/// (`cpus::Spread`), until `seconds` have passed since the first began (the
/// last op started runs to its end). `op(index,
/// op_id)` returns its own wall time in ms (so that per-op preparation
/// stays untimed) and the deployment's energy, or what was wrong.
/// `elapsed_s` sums the ops' own times.
pub fn closed_loop(
    r: &mut RunResult,
    order: &[usize],
    seconds: f64,
    slo_ms: f64,
    mut op: impl FnMut(usize, u64) -> (f64, Result<f64, String>),
) -> ClosedLoop {
    let mut out = ClosedLoop {
        latencies: Vec::new(),
        energies: Vec::new(),
        ok: 0,
        within_slo: 0,
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    let spread = Spread::new();
    for (op_id, &i) in order.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        spread.pin(op_id);
        let (wall, answer) = op(i, op_id as u64);
        out.latencies.push(wall);
        out.elapsed_s += wall / 1e3;
        match answer {
            Ok(energy) => {
                out.ok += 1;
                out.within_slo += usize::from(wall <= slo_ms);
                out.energies.push(energy);
                r.op(None);
            }
            Err(e) => r.op(Some(e)),
        }
    }
    out
}

/// Reports the end-to-end metrics of a closed loop.
pub fn closed_loop_metrics(r: &mut RunResult, setup_secs: &[f64], m: &ClosedLoop) {
    let n = m.latencies.len();
    let attempted = r.attempted as usize;
    r.metric("setup_s", quantile(setup_secs, 0.5), setup_secs.len());
    r.metric("p50_ms", hd_quantile(&m.latencies, 0.5), n);
    r.metric("p65_ms", hd_quantile(&m.latencies, TAIL), n);
    r.metric("ops_per_min", n as f64 / m.elapsed_s * 60.0, n);
    r.metric("success_share", m.ok as f64 / attempted.max(1) as f64, attempted);
    r.metric("slo_share", m.within_slo as f64 / attempted.max(1) as f64, attempted);
    r.metric("energy_mj", mean(&m.energies), m.energies.len());
    r.metric("peak_rss_mb", peak_rss_mb(), 1);
}

/// Writes the spans, prints the per-layer table and reports the op's
/// unattributed remainder (the `op` spans' self time).
pub fn finish_trace(r: &mut RunResult, trace: &Trace, ops: usize, args: &RunArgs) {
    let unattributed =
        trace.layers().iter().find(|row| row.name == "op").map_or(0.0, |row| row.self_ms);
    r.layer("trace.unattributed_ms", per_op(unattributed, ops));
    r.layer("trace.spans", trace.len() as f64);
    trace.print_table(ops);
    let path = args.trace_path();
    match trace.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
