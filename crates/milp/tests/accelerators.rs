//! Safety of the branch-and-bound accelerators, cross-checked against
//! exhaustive enumeration.
//!
//! Primal heuristics, node propagation, conflict cuts and reliability
//! branching may change *how* the tree is searched — never the answer. Each proptest below isolates
//! one accelerator (the others off) and requires exact agreement with the
//! brute-force optimum on random binary MILPs, plus feasibility of every
//! returned incumbent; the all-on configuration is checked too, because
//! the features interact (heuristic incumbents prune, propagation feeds
//! conflict analysis).

mod common;

use common::{brute_force, build_binary, objective_of, random_milp, satisfies_rows, RandomMilp};
use ndp_milp::{BranchRule, SolveStatus, SolverOptions};
use proptest::prelude::*;

/// Solves under `opts` and checks exact agreement with enumeration.
fn check_against_enumeration(
    milp: &RandomMilp,
    opts: &SolverOptions,
    name: &str,
) -> std::result::Result<(), TestCaseError> {
    let truth = brute_force(milp);
    let (m, _) = build_binary(milp);
    let sol = m.solve_with(opts).expect("solver must not error");
    match truth {
        None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible, "{} status", name),
        Some(best) => {
            prop_assert_eq!(sol.status(), SolveStatus::Optimal, "{} status", name);
            prop_assert!(
                (sol.objective_value() - best).abs() < 1e-6,
                "{} found {} vs brute force {}",
                name,
                sol.objective_value(),
                best
            );
            prop_assert!(m.is_feasible(sol.values(), 1e-6), "{} incumbent infeasible", name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Node propagation in isolation: tightening a bound that excludes any
    /// integer-feasible point, or fathoming a box that still holds one,
    /// would change the proven optimum of some instance here.
    #[test]
    fn propagation_preserves_the_enumerated_optimum(milp in random_milp()) {
        let opts = SolverOptions::default()
            .threads(1)
            .cuts(false)
            .heuristics(false)
            .conflict_cuts(false)
            .propagation(true);
        check_against_enumeration(&milp, &opts, "propagation-only")?;
    }

    /// Conflict cuts in isolation: a no-good that cut off an integer-
    /// feasible point would corrupt the search globally (the cuts live in
    /// the worker LP for the rest of the solve).
    #[test]
    fn conflict_cuts_preserve_the_enumerated_optimum(milp in random_milp()) {
        let opts = SolverOptions::default()
            .threads(1)
            .cuts(false)
            .heuristics(false)
            .propagation(false)
            .conflict_cuts(true);
        check_against_enumeration(&milp, &opts, "conflicts-only")?;
    }

    /// Heuristics in isolation: a heuristic incumbent that failed validation
    /// (infeasible, or mis-scaled objective) would either surface as a wrong
    /// final objective or prune the true optimum away.
    #[test]
    fn heuristics_preserve_the_enumerated_optimum(milp in random_milp()) {
        let opts = SolverOptions::default()
            .threads(1)
            .cuts(false)
            .propagation(false)
            .conflict_cuts(false)
            .heuristics(true);
        check_against_enumeration(&milp, &opts, "heuristics-only")?;
    }

    /// Everything on at once — the production default plus in-tree cuts —
    /// still matches enumeration exactly.
    #[test]
    fn all_accelerators_match_enumeration(milp in random_milp()) {
        let opts = SolverOptions::default().threads(1).cut_node_interval(1);
        check_against_enumeration(&milp, &opts, "all-on")?;
    }

    /// Under a node budget too small to search, any incumbent the solver
    /// reports came from the root heuristics: it must satisfy every row
    /// and never beat the enumerated optimum.
    #[test]
    fn heuristic_incumbents_pass_validation(milp in random_milp()) {
        let opts = SolverOptions::default().threads(1).node_limit(1);
        let (m, _) = build_binary(&milp);
        let sol = m.solve_with(&opts).expect("solver must not error");
        if !sol.has_incumbent() {
            return Ok(());
        }
        prop_assert!(m.is_feasible(sol.values(), 1e-6), "heuristic incumbent infeasible");
        prop_assert!(satisfies_rows(&milp, sol.values()), "incumbent violates a raw row");
        let reported = sol.objective_value();
        prop_assert!(
            (objective_of(&milp, sol.values()) - reported).abs() < 1e-6,
            "reported objective {} disagrees with the point", reported
        );
        if let Some(best) = brute_force(&milp) {
            let ok = if milp.maximize { reported <= best + 1e-6 } else { reported >= best - 1e-6 };
            prop_assert!(ok, "incumbent {} beats the enumerated optimum {}", reported, best);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reliability branching is a tree-shaping change only: the proven
    /// optimum on plain random instances equals enumeration.
    #[test]
    fn reliability_matches_enumeration(milp in random_milp()) {
        let opts = SolverOptions::default().branch_rule(BranchRule::Reliability).threads(1);
        check_against_enumeration(&milp, &opts, "reliability")?;
    }
}

/// Repeated seeded-heuristic solves agree bit-for-bit on the incumbent:
/// the dive's tie-breaking RNG is seeded per solve, not global.
#[test]
fn repeated_heuristic_solves_agree_bitwise() {
    let opts = SolverOptions::default().threads(1);
    let a = common::hard_knapsack(14).solve_with(&opts).unwrap();
    let b = common::hard_knapsack(14).solve_with(&opts).unwrap();
    assert_eq!(a.objective_value().to_bits(), b.objective_value().to_bits());
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.stats().heuristic_incumbents, b.stats().heuristic_incumbents);
    assert_eq!(a.stats().propagated_bounds, b.stats().propagated_bounds);
    assert_eq!(a.stats().conflict_cuts_applied, b.stats().conflict_cuts_applied);
    let av: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
    let bv: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(av, bv, "incumbent points diverged between identical runs");
}
