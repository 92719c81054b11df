//! `exact-proof`: a closed loop, one op at a time, of serial exact solves.
//! One op takes a built instance to a validated, proven optimum through
//! `DeploymentSession` with the `OptimalConfig` defaults.

use crate::instances::{build, rounds, same_objective, ExactPin, Family, Pins, Rng};
use crate::report::{hd_quantile, repeated_setup, RunResult, TAIL};
use crate::trace::{ms, per_op, push_solve_spans, Marks, Trace};
use crate::workloads::{
    build_layers, closed_loop, closed_loop_metrics, finish_trace, serial_options, RunArgs,
    SETUP_REPS,
};
use ndp_core::{validate, DeploymentSession, OptimalOutcome, ProblemInstance};
use ndp_milp::{SolveStats, SolveStatus};
use std::time::Instant;

/// Instances in the pool: all the pinned ones. A run proves them in
/// `instances::rounds` order until `--seconds` have passed; at today's
/// speed a 56 s run makes 34 to 58 proofs, so no instance repeats.
const POOL: usize = 90;
/// Order entries generated per run; the clock ends the run long before.
const ORDER_LEN: usize = 10 * POOL;
/// Latency limit of one proof for `slo_share`: about 1.7 times the
/// dearest pinned proof.
const SLO_MS: f64 = 8000.0;

pub fn run(args: &RunArgs, pins: &Pins) -> RunResult {
    let pool = &pins.exact[..POOL];
    // Set-up: build the pool, then warm up with one proof of its cheapest
    // instance (which stays in the pool: proofs share no state).
    let cheapest =
        (0..pool.len()).min_by(|&a, &b| pool[a].ms.total_cmp(&pool[b].ms)).expect("non-empty pool");
    let mut setup = || {
        let built: Vec<_> = pool.iter().map(|p| build(Family::Exact, p.seed)).collect();
        let mut warm = DeploymentSession::builder(built[cheapest].problem.clone())
            .solver(serial_options())
            .build();
        let _ = std::hint::black_box(warm.solve());
        built
    };
    let mut setup_secs = Vec::new();
    let built = repeated_setup(SETUP_REPS, &mut setup_secs, &mut setup);
    let mut r = RunResult::new();
    let mut trace = Trace::new();
    let mut stats: Vec<SolveStats> = Vec::new();
    let mut moved = 0;
    let costs: Vec<f64> = pool.iter().map(|p| p.ms).collect();
    let order = rounds(&costs, ORDER_LEN, &mut Rng::new(args.seed));
    let m = closed_loop(&mut r, &order, args.seconds, SLO_MS, |i, op| {
        let (problem, pin) = (built[i].problem.clone(), &pool[i]);
        let t0 = Instant::now();
        let (session, out) = if args.trace {
            traced_op(problem, op, &mut trace)
        } else {
            let mut session = DeploymentSession::builder(problem).solver(serial_options()).build();
            let out = session.solve();
            (session, out)
        };
        let t1 = Instant::now();
        let answer = match &out {
            Ok(out) => check_answer(&session, out, pin),
            Err(e) => Err(e.to_string()),
        };
        let end = Instant::now();
        if args.trace {
            let root = trace.find_last("op", op).expect("traced op opened its root span");
            trace.push("core.validate", op, Some(root), t1, end);
            trace.set_end(root, end);
        }
        if let (Ok(_), Ok(out)) = (&answer, &out) {
            if out.nodes != pin.nodes || out.stats.simplex_iterations != pin.pivots {
                moved += 1;
                eprintln!(
                    "witness: seed {} took {} nodes / {} pivots, pinned {} / {}",
                    pin.seed, out.nodes, out.stats.simplex_iterations, pin.nodes, pin.pivots
                );
            }
            stats.push(out.stats);
        }
        (ms(end - t0), answer.map_err(|e| format!("seed {}: {e}", pin.seed)))
    });
    repeated_setup(SETUP_REPS, &mut setup_secs, &mut setup);

    if args.trace {
        let n = m.latencies.len();
        build_layers(&mut r, &built);
        for (name, span) in [
            ("core.warmstart_ms", "core.warmstart"),
            ("core.phase1_ms", "core.phase1"),
            ("core.phase2_ms", "core.phase2"),
            ("core.phase3_ms", "core.phase3"),
            ("core.assemble_ms", "core.assemble"),
            ("core.build_ms", "core.build"),
            ("milp.solve_ms", "milp.solve"),
            ("milp.root_ms", "milp.root"),
            ("milp.cuts_ms", "milp.cuts"),
            ("milp.tree_ms", "milp.tree"),
            ("core.validate_ms", "core.validate"),
        ] {
            r.layer(name, per_op(trace.total_ms(span), n));
        }
        stats_layers(&mut r, &stats);
        r.layer("trace.p50_ms", hd_quantile(&m.latencies, 0.5));
        finish_trace(&mut r, &trace, n, args);
    } else {
        closed_loop_metrics(&mut r, &setup_secs, &m);
    }
    r.layer("witness.moved", moved as f64);
    r.layer("witness.checked", stats.len() as f64);
    eprintln!(
        "exact-proof: {} proofs, p{:.0} {:.1} ms",
        m.latencies.len(),
        TAIL * 100.0,
        hd_quantile(&m.latencies, TAIL)
    );
    r
}

/// The traced op: the same work as the untraced `solve()` on a fresh
/// session, split into its public calls so each layer gets a span. The
/// heuristic seed is computed first and handed to the model build as the
/// session's warm start, which is exactly the candidate the default path
/// installs; the node and pivot witness checks that the split path does the
/// same search.
fn traced_op(
    problem: ProblemInstance,
    op: u64,
    trace: &mut Trace,
) -> (DeploymentSession, ndp_core::Result<OptimalOutcome>) {
    let (marks, observer) = Marks::observer();
    let mut options = serial_options();
    options.observer = observer;
    let start = Instant::now();
    let root = trace.push("op", op, None, start, start);

    let seed_session = DeploymentSession::builder(problem.clone()).solver(options.clone()).build();
    let warm = seed_session.heuristic().ok();
    let t = Instant::now();
    let span = trace.push("core.warmstart", op, Some(root), start, t);
    trace.push_marks(op, span, &marks.take(), t);

    let mut session = DeploymentSession::builder(problem)
        .warm_start_with_heuristic(false)
        .warm_start_deployment(warm)
        .solver(options)
        .build();
    let built = session.model().map(|_| ());
    let t2 = Instant::now();
    trace.push("core.build", op, Some(root), t, t2);
    marks.take();
    if let Err(e) = built {
        return (session, Err(e));
    }
    let out = session.solve();
    let t3 = Instant::now();
    let span = trace.push("milp.solve", op, Some(root), t2, t3);
    push_solve_spans(trace, op, span, &marks.take(), t2, t3);
    (session, out)
}

/// Status `Optimal`, no model violations, and the pinned optimum. Returns
/// the deployment's max per-processor energy.
fn check_answer(
    session: &DeploymentSession,
    out: &OptimalOutcome,
    pin: &ExactPin,
) -> Result<f64, String> {
    if out.status != SolveStatus::Optimal {
        return Err(format!("status {:?}", out.status));
    }
    let d = out.deployment.as_ref().ok_or("no deployment")?;
    let violations = validate(session.problem(), d);
    if !violations.is_empty() {
        return Err(format!("{} violations, first: {}", violations.len(), violations[0]));
    }
    let energy = d.energy_report(session.problem()).max_mj();
    let objective = out.objective_mj.ok_or("no objective")?;
    if !same_objective(objective, pin.objective_mj) || !same_objective(energy, pin.objective_mj) {
        return Err(format!(
            "objective {objective} / energy {energy}, pinned {}",
            pin.objective_mj
        ));
    }
    Ok(energy)
}

/// The `SolveStats` buckets, counts and ratios, as means per proof.
fn stats_layers(r: &mut RunResult, stats: &[SolveStats]) {
    let n = stats.len();
    let avg = |f: &dyn Fn(&SolveStats) -> f64| per_op(stats.iter().map(f).sum(), n);
    r.layer("milp.simplex_s", avg(&|s| s.simplex_seconds));
    r.layer("milp.factor_s", avg(&|s| s.factor_seconds));
    r.layer("milp.separation_s", avg(&|s| s.separation_seconds));
    r.layer("milp.heuristic_s", avg(&|s| s.heuristic_seconds));
    r.layer("milp.propagation_s", avg(&|s| s.propagation_seconds));
    r.layer("milp.other_s", avg(&|s| s.other_seconds() + s.presolve_seconds));
    r.layer("milp.nodes", avg(&|s| s.nodes as f64));
    r.layer("milp.pivots", avg(&|s| s.simplex_iterations as f64));
    r.layer("milp.refactorizations", avg(&|s| s.refactorizations as f64));
    r.layer("milp.strong_branch_probes", avg(&|s| s.strong_branch_probes as f64));
    r.layer("milp.cuts_applied", avg(&|s| s.cuts_applied as f64));
    r.layer("milp.heuristic_incumbents", avg(&|s| s.heuristic_incumbents as f64));
    let sum = |f: &dyn Fn(&SolveStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let generated = sum(&|s| s.cuts_generated);
    r.layer(
        "milp.cut_yield",
        if generated > 0.0 { sum(&|s| s.cuts_applied) / generated } else { 0.0 },
    );
    let nodes = sum(&|s| s.nodes);
    r.layer(
        "milp.pivots_per_node",
        if nodes > 0.0 { sum(&|s| s.simplex_iterations) / nodes } else { 0.0 },
    );
}
