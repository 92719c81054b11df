//! Configuration and outcome of an exact solve of the deployment MILP.
//!
//! This is the paper's "Optimal" arm: problem (10) linearized by
//! [`MilpEncoding::build`](crate::MilpEncoding::build) and handed to the
//! `ndp-milp` branch-and-bound (substituting for Gurobi; see DESIGN.md) by
//! [`DeploymentSession::solve`](crate::DeploymentSession::solve). The
//! 3-phase heuristic can seed the search as a MIP warm start, which is the
//! standard way to make exact solvers practical on these models.

use crate::formulation::{DeployObjective, PathMode};
use crate::problem::ProblemInstance;
use crate::solution::Deployment;
use crate::validate::is_valid;
use ndp_milp::{BranchRule, SolveStats, SolveStatus, SolverOptions};

/// Configuration of an exact solve.
#[derive(Debug, Clone)]
pub struct OptimalConfig {
    /// Routing flexibility.
    pub path_mode: PathMode,
    /// BE or ME objective.
    pub objective: DeployObjective,
    /// Seed branch and bound with the heuristic solution when it is
    /// feasible (default: true).
    pub warm_start_with_heuristic: bool,
    /// An additional caller-provided warm start (e.g. the single-path
    /// optimum when solving the multi-path model). The better of this and
    /// the heuristic seed is used.
    pub warm_start_deployment: Option<Deployment>,
    /// Options forwarded to the MILP solver.
    pub solver: SolverOptions,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        OptimalConfig {
            path_mode: PathMode::Multi,
            objective: DeployObjective::BalanceEnergy,
            warm_start_with_heuristic: true,
            warm_start_deployment: None,
            // The exact arm defaults to reliability branching: the
            // strong-branching lookahead pays for itself on deployment
            // MILPs, whose early duplication/allocation choices dominate
            // the tree shape.
            solver: SolverOptions::default().branch_rule(BranchRule::Reliability),
        }
    }
}

/// Outcome of an exact solve.
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// The extracted deployment, when one exists.
    pub deployment: Option<Deployment>,
    /// Raw solver status.
    pub status: SolveStatus,
    /// Objective value (mJ) when a deployment exists.
    pub objective_mj: Option<f64>,
    /// Proven bound on the optimum (mJ).
    pub best_bound_mj: f64,
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Nodes processed by each solver worker thread (one entry under
    /// `threads = 1`, empty when presolve answers without a search).
    pub nodes_per_thread: Vec<u64>,
    /// Wall-clock seconds spent in the solver.
    pub solve_seconds: f64,
    /// Per-phase time attribution and work counters of the solve.
    pub stats: SolveStats,
}

impl OptimalOutcome {
    /// Whether a (not necessarily proven-optimal) deployment was found.
    pub fn is_feasible(&self) -> bool {
        self.deployment.is_some()
    }
}

/// Picks the best valid warm-start candidate under `objective` (shared by
/// [`DeploymentSession`](crate::DeploymentSession) and the batch solver).
pub(crate) fn best_warm_candidate(
    problem: &ProblemInstance,
    objective: DeployObjective,
    candidates: Vec<Deployment>,
) -> Option<Deployment> {
    let score = |d: &Deployment| match objective {
        DeployObjective::BalanceEnergy => d.energy_report(problem).max_mj(),
        DeployObjective::MinimizeTotalEnergy => d.energy_report(problem).total_mj(),
    };
    candidates
        .into_iter()
        .filter(|d| is_valid(problem, d))
        .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite energies"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DeploymentSession;
    use crate::validate::validate;
    use ndp_milp::SolveStatus;
    use ndp_noc::{Mesh2D, NocParams, PathKind, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig, GraphShape};

    fn small_instance(m: usize, seed: u64, alpha: f64) -> ProblemInstance {
        let mut cfg = GeneratorConfig::typical(m);
        cfg.shape = GraphShape::Chain;
        let g = generate(&cfg, seed).unwrap();
        ProblemInstance::from_original(
            &g,
            Platform::homogeneous(4).unwrap(),
            WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), seed).unwrap(),
            0.95,
            alpha,
        )
        .unwrap()
    }

    fn quick_solver() -> SolverOptions {
        SolverOptions::default().time_limit(20.0)
    }

    #[test]
    fn optimal_solution_is_valid() {
        let p = small_instance(3, 1, 3.0);
        let mut s = DeploymentSession::builder(p.clone()).solver(quick_solver()).build();
        let out = s.solve().unwrap();
        assert!(out.is_feasible(), "status {:?}", out.status);
        let d = out.deployment.unwrap();
        let v = validate(&p, &d);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn optimal_beats_or_matches_heuristic() {
        let p = small_instance(3, 2, 3.0);
        let mut s = DeploymentSession::builder(p.clone()).solver(quick_solver()).build();
        let h = s.heuristic().unwrap();
        let h_obj = h.energy_report(&p).max_mj();
        let out = s.solve().unwrap();
        if out.status == SolveStatus::Optimal {
            let o_obj = out.objective_mj.unwrap();
            assert!(o_obj <= h_obj + 1e-6, "optimal {o_obj} must not exceed heuristic {h_obj}");
        }
    }

    #[test]
    fn single_path_never_beats_multi_path() {
        let p = small_instance(3, 3, 3.0);
        let multi =
            DeploymentSession::builder(p.clone()).solver(quick_solver()).build().solve().unwrap();
        let single = DeploymentSession::builder(p)
            .path_mode(PathMode::SingleFixed(PathKind::EnergyOriented))
            .solver(quick_solver())
            .build()
            .solve()
            .unwrap();
        if multi.status == SolveStatus::Optimal && single.status == SolveStatus::Optimal {
            assert!(multi.objective_mj.unwrap() <= single.objective_mj.unwrap() + 1e-6);
        }
    }

    #[test]
    fn infeasible_under_impossible_horizon() {
        let p = small_instance(3, 4, 3.0).with_horizon(1e-4);
        let mut s = DeploymentSession::builder(p)
            .warm_start_with_heuristic(false)
            .solver(quick_solver())
            .build();
        let out = s.solve().unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(!out.is_feasible());
    }
}
