//! Cross-method checks on one fixed paper-sized instance: 10 original tasks
//! deployed on the 4×4 mesh.
//!
//! The exact arm is warm-started by the heuristic (the default), so even
//! when the time limit stops the search at `Feasible` its incumbent can
//! never be worse than the heuristic deployment — which makes the paper's
//! ordering `E(optimal) ≤ E(heuristic)` assertable without waiting for a
//! proven optimum on an instance of this size.

use ndp_core::{
    validate, CommTimeModel, Deployment, DeploymentSession, MilpEncoding, OptimalConfig,
    OptimalOutcome, PathMode, ProblemInstance,
};
use ndp_milp::{SolveStatus, SolverOptions};
use ndp_noc::{Mesh2D, NocParams, PathKind, WeightedNoc};
use ndp_platform::{Platform, PowerModel, PowerParams, ReliabilityParams, VfTable};
use ndp_taskset::{generate, GeneratorConfig};

const SEED: u64 = 7;

fn fixed_instance() -> ProblemInstance {
    let cfg = GeneratorConfig::typical(10);
    let graph = generate(&cfg, SEED).unwrap();
    ProblemInstance::from_original(
        &graph,
        Platform::homogeneous(16).unwrap(),
        WeightedNoc::new(Mesh2D::square(4).unwrap(), NocParams::typical(), SEED).unwrap(),
        0.95,
        3.0,
    )
    .unwrap()
}

fn heuristic(p: &ProblemInstance) -> Deployment {
    DeploymentSession::new(p.clone()).heuristic().expect("heuristic must deploy the fixed instance")
}

/// One-shot exact solve of `p` under `cfg` through the session API.
fn exact(p: &ProblemInstance, cfg: OptimalConfig) -> OptimalOutcome {
    DeploymentSession::builder(p.clone())
        .path_mode(cfg.path_mode)
        .objective(cfg.objective)
        .warm_start_with_heuristic(cfg.warm_start_with_heuristic)
        .solver(cfg.solver)
        .build()
        .solve()
        .expect("exact solve must not error")
}

/// One-shot exact solve straight on the encoded MILP, with the solver's
/// presolve (sessions trade presolve for incremental re-solvability). The
/// node-count ablation contracts below were pinned on this presolved
/// pipeline; its callers seed no warm start, so none is set here.
fn exact_presolved(p: &ProblemInstance, cfg: OptimalConfig) -> OptimalOutcome {
    let enc = MilpEncoding::build(p, cfg.path_mode, cfg.objective).expect("encoding must build");
    let sol = enc.model.solve_with(&cfg.solver).expect("exact solve must not error");
    let deployment = sol.has_incumbent().then(|| enc.extract(p, &sol));
    OptimalOutcome {
        objective_mj: deployment.as_ref().map(|_| sol.objective_value()),
        deployment,
        status: sol.status(),
        best_bound_mj: sol.best_bound(),
        nodes: sol.node_count(),
        nodes_per_thread: sol.nodes_per_thread().to_vec(),
        solve_seconds: sol.solve_seconds(),
        stats: *sol.stats(),
    }
}

#[test]
fn referee_accepts_heuristic_on_the_fixed_instance() {
    let p = fixed_instance();
    let h = heuristic(&p);
    let violations = validate(&p, &h);
    assert!(violations.is_empty(), "heuristic deployment rejected: {violations:?}");
}

#[test]
fn referee_accepts_exact_incumbent_and_heuristic_is_never_better() {
    let p = fixed_instance();
    let h = heuristic(&p);
    let h_energy = h.energy_report(&p).max_mj();

    // The multi-path encoding of this instance runs to ~31k variables,
    // which the in-workspace solver cannot even root-solve within a test
    // budget; the single-path arm (~12k variables) keeps the test honest
    // about the full instance size while staying bounded.
    let cfg = OptimalConfig {
        path_mode: PathMode::SingleFixed(PathKind::EnergyOriented),
        solver: SolverOptions::default().time_limit(2.0),
        ..OptimalConfig::default()
    };
    let out = exact(&p, cfg);
    assert!(
        matches!(out.status, SolveStatus::Optimal | SolveStatus::Feasible),
        "warm-started solve must hold an incumbent, got {:?}",
        out.status
    );
    let d = out.deployment.expect("incumbent deployment");
    let violations = validate(&p, &d);
    assert!(violations.is_empty(), "exact deployment rejected: {violations:?}");

    let o_energy = out.objective_mj.expect("objective of the incumbent");
    assert!(
        o_energy <= h_energy + 1e-6,
        "exact incumbent {o_energy} mJ must not exceed heuristic {h_energy} mJ"
    );
}

/// Cutting planes on a fixed exact-arm instance: same proven optimum, no
/// larger a tree. The bench-sized sub-instance (3 tasks on a 2×2 mesh)
/// keeps both arms provably optimal inside a test budget so the node
/// counts are comparable.
#[test]
fn cuts_preserve_the_optimum_and_do_not_grow_the_tree() {
    let cfg = GeneratorConfig::typical(3);
    let graph = generate(&cfg, SEED).unwrap();
    let p = ProblemInstance::from_original(
        &graph,
        Platform::homogeneous(4).unwrap(),
        WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), SEED).unwrap(),
        0.95,
        3.0,
    )
    .unwrap();

    let solve = |cuts: bool| {
        let cfg = OptimalConfig {
            // No heuristic seed: both arms must prove optimality from
            // scratch so the node counts measure the search, not the seed.
            warm_start_with_heuristic: false,
            solver: SolverOptions::default().threads(1).time_limit(30.0).cuts(cuts),
            ..OptimalConfig::default()
        };
        exact_presolved(&p, cfg)
    };
    let off = solve(false);
    let on = solve(true);
    assert_eq!(off.status, SolveStatus::Optimal, "cuts-off must prove optimality");
    assert_eq!(on.status, SolveStatus::Optimal, "cuts-on must prove optimality");
    let (e_off, e_on) =
        (off.objective_mj.expect("cuts-off optimum"), on.objective_mj.expect("cuts-on optimum"));
    assert!(
        (e_on - e_off).abs() <= 1e-6 * e_off.abs().max(1.0),
        "cuts changed the optimum: {e_on} mJ vs {e_off} mJ"
    );
    assert!(
        on.nodes <= off.nodes,
        "cuts grew the tree: {} nodes with cuts vs {} without",
        on.nodes,
        off.nodes
    );
    assert!(on.stats.cuts_applied > 0, "instance must apply cuts");
}

/// Accelerator ablation on the bench-sized exact arm: disabling any single
/// accelerator (heuristics, propagation, conflict cuts) must leave the
/// proven optimum untouched, and the all-on configuration must not explore
/// a larger tree than the all-off one.
#[test]
fn accelerator_ablation_preserves_the_optimum_and_the_tree_size() {
    // A different seed than the cuts test: this sub-instance gives all
    // three accelerators observable work (heuristic incumbents and
    // propagation fixings) under a deterministic serial search.
    const ABLATION_SEED: u64 = 21;
    let cfg = GeneratorConfig::typical(3);
    let graph = generate(&cfg, ABLATION_SEED).unwrap();
    let p = ProblemInstance::from_original(
        &graph,
        Platform::homogeneous(4).unwrap(),
        WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), ABLATION_SEED).unwrap(),
        0.95,
        3.0,
    )
    .unwrap();

    let solve = |heuristics: bool, propagation: bool, conflicts: bool| {
        let cfg = OptimalConfig {
            // No external heuristic seed: the solver's own accelerators are
            // the variable under test.
            warm_start_with_heuristic: false,
            solver: SolverOptions::default()
                .threads(1)
                .time_limit(30.0)
                .heuristics(heuristics)
                .propagation(propagation)
                .conflict_cuts(conflicts),
            ..OptimalConfig::default()
        };
        exact_presolved(&p, cfg)
    };

    let all_on = solve(true, true, true);
    assert_eq!(all_on.status, SolveStatus::Optimal, "all-on must prove optimality");
    let reference = all_on.objective_mj.expect("all-on optimum");

    let arms = [
        ("all-off", solve(false, false, false)),
        ("no-heuristics", solve(false, true, true)),
        ("no-propagation", solve(true, false, true)),
        ("no-conflicts", solve(true, true, false)),
    ];
    for (name, out) in &arms {
        assert_eq!(out.status, SolveStatus::Optimal, "{name} must prove optimality");
        let e = out.objective_mj.expect("arm optimum");
        assert!(
            (e - reference).abs() <= 1e-6 * reference.abs().max(1.0),
            "{name} changed the optimum: {e} mJ vs {reference} mJ"
        );
    }
    let all_off_nodes = arms[0].1.nodes;
    assert!(
        all_on.nodes <= all_off_nodes,
        "accelerators grew the tree: {} nodes all-on vs {} all-off",
        all_on.nodes,
        all_off_nodes
    );
    assert!(
        all_on.stats.heuristic_incumbents > 0 || all_on.stats.propagated_bounds > 0,
        "the accelerators must do observable work on this instance"
    );
}

/// Conflict cuts do work on a deployment MILP, not only on the random
/// binary models of the solver's own tests: the solve server's default
/// request shape (M=3, 2×2 mesh, L=3, α=1.4, synthetic V/F corners on the
/// 70 nm power model, per-unit communication time) at seed 27, solved
/// serially under the exact arm's defaults, derives and applies no-goods
/// on its way to the proven optimum.
#[test]
fn conflict_cuts_fire_on_a_served_deployment_milp() {
    const SERVE_SEED: u64 = 27;
    let graph = generate(&GeneratorConfig::typical(3), SERVE_SEED).unwrap();
    let vf = VfTable::synthetic(3, (0.85, 1.10), (300.0, 1000.0)).unwrap();
    let platform = Platform::new(
        4,
        vf,
        PowerModel::new(PowerParams::bulk_70nm()),
        ReliabilityParams::typical(),
    )
    .unwrap();
    let noc =
        WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), SERVE_SEED).unwrap();
    let p = ProblemInstance::from_original(&graph, platform, noc, 0.95, 1.4)
        .unwrap()
        .with_comm_time_model(CommTimeModel::PerUnit);

    // Conflict no-goods are serial-only, so the solve runs on one thread.
    let cfg = OptimalConfig::default();
    let out = exact(&p, OptimalConfig { solver: cfg.solver.clone().threads(1), ..cfg });
    assert_eq!(out.status, SolveStatus::Optimal, "the served instance must prove optimality");
    let d = out.deployment.expect("optimal deployment");
    let violations = validate(&p, &d);
    assert!(violations.is_empty(), "optimal deployment rejected: {violations:?}");
    assert!(
        out.stats.conflict_cuts_applied > 0,
        "conflict cuts must fire on this instance ({} derived, {} nodes)",
        out.stats.conflict_cuts_generated,
        out.nodes
    );
}
