//! Basis-kernel and node-LP microbench: dense inverse vs sparse LU, warm
//! vs cold node starts, and the three leaving-row pricing rules.
//!
//! Default mode solves the same fixed deployment instance(s) once per
//! kernel and reports wall time, branch-and-bound nodes, pivots and
//! throughput. The headline numbers are the node-throughput ratio
//! (sparse / dense) and the pivots/s column, which the warm-start and
//! pricing work targets directly.
//!
//! ```text
//! basis_kernel [--tasks M] [--seconds S] [--seed K] [--instances I]
//!              [--pricing dse|devex|dantzig] [--node-order dfs|best-bound]
//!              [--warm on|off] [--cuts on|off] [--heuristics on|off]
//!              [--propagation on|off] [--conflicts on|off]
//!              [--branch-rule most-frac|first-frac|pseudo|reliability]
//!              [--json PATH] [--append-json PATH]
//!              [--ablation] [--cuts-ablation] [--heuristics-ablation]
//!              [--branch-ablation] [--trace]
//! ```
//!
//! `--ablation` replaces the kernel A/B with the full
//! pricing × warm-start × kernel grid on one instance and **fails** (exit
//! code 1) if any warm-started configuration needs more pivots than its
//! cold-started twin — the regression guard CI runs on every push. All
//! configurations must agree on the optimum.
//!
//! `--cuts-ablation` runs the cutting-plane A/B on the sparse-lu/dse/warm
//! reference configuration and **fails** (exit code 1) if the cuts-on run
//! explores more nodes than cuts-off, or the two optima diverge — the
//! guard behind the cut engine's node-count claim.
//!
//! `--heuristics-ablation` runs the branch-and-bound accelerator grid
//! (all-on, each of heuristics / propagation / conflict cuts individually
//! off, all-off) on the same reference configuration and **fails** (exit
//! code 1) if any proven optima diverge, if the all-on run fails to prove
//! an optimum that some reduced configuration proves within the same
//! budget, or if the all-on tree is more than 5% larger than the all-off
//! tree (when both prove). When the budget stops both endpoint runs early
//! the gate compares incumbent gaps instead: all-on must not be worse.
//!
//! `--branch-ablation` runs the branching-rule A/B (most-fractional
//! baseline against reliability branching) on the same reference
//! configuration and **fails** (exit code 1) if proven optima diverge,
//! reliability branching loses an optimum the baseline proves, or its
//! tree is more than 5% larger than the baseline's.
//!
//! `--json PATH` additionally writes the run's records as a JSON array
//! (see `results/BENCH_milp.json` for the checked-in baseline);
//! `--append-json PATH` appends them to an existing array instead, the
//! convention behind the repo-root `BENCH_milp.json` trajectory file.
//!
//! Defaults reproduce the largest fixed exact-arm instance (`M = 6` on a
//! 2×2 mesh, 60 s budget). CI runs a smoke configuration
//! (`--tasks 4 --seconds 5 --instances 1`) to keep the binary exercised.
//! `--trace` streams solver events (presolve, root, incumbents,
//! termination) to stderr while the table prints to stdout.

use ndp_bench::{
    append_bench_json, branch_rule_name, node_order_name, parse_branch_rule, parse_node_order,
    parse_pricing, pricing_name, trace_observer, write_bench_json, BenchRecord, InstanceSpec,
};
use ndp_core::{DeployObjective, MilpEncoding, PathMode};
use ndp_milp::{BasisKernel, BranchRule, NodeOrder, Pricing, SolverOptions};

/// The branch-and-bound accelerator toggles threaded through every run.
#[derive(Debug, Clone, Copy)]
struct Accel {
    heuristics: bool,
    propagation: bool,
    conflicts: bool,
}

impl Accel {
    const ALL_ON: Accel = Accel { heuristics: true, propagation: true, conflicts: true };
    const ALL_OFF: Accel = Accel { heuristics: false, propagation: false, conflicts: false };
}

struct KernelRun {
    status: String,
    nodes: u64,
    iters: u64,
    seconds: f64,
    warm_starts: u64,
    cold_starts: u64,
    cuts_applied: u64,
    heuristic_incumbents: u64,
    propagated_bounds: u64,
    conflict_cuts_applied: u64,
    gap: f64,
    dual_bound: f64,
    objective: f64,
    strong_branch_probes: u64,
}

#[allow(clippy::too_many_arguments)]
fn run(
    kernel: BasisKernel,
    pricing: Pricing,
    order: NodeOrder,
    warm: bool,
    cuts: bool,
    accel: Accel,
    branch: BranchRule,
    tasks: usize,
    seconds: f64,
    seed: u64,
    trace: bool,
) -> KernelRun {
    let p = InstanceSpec::new(tasks, 2, 3.0, seed).build();
    let enc = MilpEncoding::build(&p, PathMode::Multi, DeployObjective::BalanceEnergy).unwrap();
    let mut opts = SolverOptions::default()
        .time_limit(seconds)
        .threads(1)
        .basis_kernel(kernel)
        .pricing(pricing)
        .node_order(order)
        .warm_start(warm)
        .cuts(cuts)
        .heuristics(accel.heuristics)
        .propagation(accel.propagation)
        .conflict_cuts(accel.conflicts)
        .branch_rule(branch);
    if trace {
        eprintln!(
            "[trace] --- kernel={kernel:?} pricing={} order={} warm={warm} cuts={cuts} \
             accel={accel:?} branch={} seed={seed} ---",
            pricing_name(pricing),
            node_order_name(order),
            branch_rule_name(branch)
        );
        opts = opts.observer(trace_observer());
    }
    let t0 = std::time::Instant::now();
    let sol = enc.model.solve_with(&opts).unwrap();
    KernelRun {
        status: format!("{:?}", sol.status()),
        nodes: sol.node_count(),
        iters: sol.simplex_iterations(),
        seconds: t0.elapsed().as_secs_f64(),
        warm_starts: sol.stats().warm_starts,
        cold_starts: sol.stats().cold_starts,
        cuts_applied: sol.stats().cuts_applied,
        heuristic_incumbents: sol.stats().heuristic_incumbents,
        propagated_bounds: sol.stats().propagated_bounds,
        conflict_cuts_applied: sol.stats().conflict_cuts_applied,
        gap: sol.gap(),
        dual_bound: sol.best_bound(),
        objective: if sol.has_incumbent() { sol.objective_value() } else { f64::NAN },
        strong_branch_probes: sol.stats().strong_branch_probes,
    }
}

fn kernel_name(k: BasisKernel) -> &'static str {
    match k {
        BasisKernel::Dense => "dense",
        BasisKernel::SparseLu => "sparse-lu",
    }
}

#[allow(clippy::too_many_arguments)]
fn record(
    r: &KernelRun,
    k: BasisKernel,
    p: Pricing,
    order: NodeOrder,
    warm: bool,
    cuts: bool,
    accel: Accel,
    branch: BranchRule,
    tasks: usize,
    s: u64,
) -> BenchRecord {
    BenchRecord {
        instance: format!("M{tasks}-N4-seed{s}"),
        kernel: kernel_name(k).into(),
        pricing: pricing_name(p).into(),
        node_order: node_order_name(order).into(),
        warm_start: warm,
        cuts,
        heuristics: accel.heuristics,
        propagation: accel.propagation,
        conflict_cuts: accel.conflicts,
        threads: 1,
        status: r.status.clone(),
        nodes: r.nodes,
        pivots: r.iters,
        warm_starts: r.warm_starts,
        cold_starts: r.cold_starts,
        cuts_applied: r.cuts_applied,
        heuristic_incumbents: r.heuristic_incumbents,
        propagated_bounds: r.propagated_bounds,
        conflict_cuts_applied: r.conflict_cuts_applied,
        gap: r.gap,
        dual_bound: r.dual_bound,
        seconds: r.seconds,
        speedup: None,
        batch: false,
        portfolio: false,
        sweep_wall_seconds: None,
        branch_rule: Some(branch_rule_name(branch).into()),
    }
}

fn print_row(name: &str, tasks: usize, s: u64, r: &KernelRun) {
    println!(
        "{name:<18} {tasks:>2} {s:>5}  {:<10} {:>6}  {:>13}  {:>7.2}  {:>7.0}  {:>8.0}  {:>4}/{:<4}",
        r.status,
        r.nodes,
        r.iters,
        r.seconds,
        r.nodes as f64 / r.seconds.max(1e-9),
        r.iters as f64 / r.seconds.max(1e-9),
        r.warm_starts,
        r.cold_starts,
    );
}

/// The full pricing × warm × kernel grid on one instance. Returns `false`
/// when any warm configuration needed more pivots than its cold twin or
/// the configurations disagree on the optimum.
#[allow(clippy::too_many_arguments)]
fn ablation(
    tasks: usize,
    seconds: f64,
    seed: u64,
    order: NodeOrder,
    cuts: bool,
    accel: Accel,
    branch: BranchRule,
    trace: bool,
    records: &mut Vec<BenchRecord>,
) -> bool {
    println!(
        "config              M  seed  status      nodes  simplex_iters  seconds  nodes/s  pivots/s  warm/cold"
    );
    let mut ok = true;
    let mut objective: Option<f64> = None;
    for kernel in [BasisKernel::SparseLu, BasisKernel::Dense] {
        for pricing in [Pricing::SteepestEdge, Pricing::Devex, Pricing::Dantzig] {
            let mut pivots = [0u64; 2]; // [warm, cold]
            for (slot, warm) in [(0usize, true), (1usize, false)] {
                let r = run(
                    kernel, pricing, order, warm, cuts, accel, branch, tasks, seconds, seed, trace,
                );
                let name = format!(
                    "{}/{}/{}",
                    kernel_name(kernel),
                    pricing_name(pricing),
                    if warm { "warm" } else { "cold" }
                );
                print_row(&name, tasks, seed, &r);
                pivots[slot] = r.iters;
                if r.status == "Optimal" {
                    match objective {
                        None => objective = Some(r.objective),
                        Some(o) => {
                            if (r.objective - o).abs() > 1e-4 * o.abs().max(1.0) {
                                eprintln!(
                                    "FAIL: {name} optimum {} disagrees with {}",
                                    r.objective, o
                                );
                                ok = false;
                            }
                        }
                    }
                }
                records.push(record(
                    &r, kernel, pricing, order, warm, cuts, accel, branch, tasks, seed,
                ));
            }
            if pivots[0] > pivots[1] {
                eprintln!(
                    "FAIL: warm start took more pivots than cold ({} > {}) for {}/{}",
                    pivots[0],
                    pivots[1],
                    kernel_name(kernel),
                    pricing_name(pricing)
                );
                ok = false;
            } else {
                println!(
                    "  warm/cold pivot ratio ({}/{}): {:.3}",
                    kernel_name(kernel),
                    pricing_name(pricing),
                    pivots[0] as f64 / pivots[1].max(1) as f64
                );
            }
        }
    }
    ok
}

/// Cutting-plane A/B on the sparse-lu/dse/warm reference configuration.
/// Returns `false` when the cuts-on run explored more nodes than cuts-off,
/// either run failed to prove optimality within the budget, or the two
/// optima diverge — the regression guard behind the cut engine.
#[allow(clippy::too_many_arguments)]
fn cuts_ablation(
    tasks: usize,
    seconds: f64,
    seed: u64,
    order: NodeOrder,
    accel: Accel,
    branch: BranchRule,
    trace: bool,
    records: &mut Vec<BenchRecord>,
) -> bool {
    println!(
        "config              M  seed  status      nodes  simplex_iters  seconds  nodes/s  pivots/s  warm/cold"
    );
    let mut ok = true;
    let kernel = BasisKernel::SparseLu;
    let pricing = Pricing::SteepestEdge;
    let on = run(kernel, pricing, order, true, true, accel, branch, tasks, seconds, seed, trace);
    let off = run(kernel, pricing, order, true, false, accel, branch, tasks, seconds, seed, trace);
    print_row("sparse-lu/dse/cuts-on", tasks, seed, &on);
    print_row("sparse-lu/dse/cuts-off", tasks, seed, &off);
    records.push(record(&on, kernel, pricing, order, true, true, accel, branch, tasks, seed));
    records.push(record(&off, kernel, pricing, order, true, false, accel, branch, tasks, seed));
    println!("  cuts applied (on-run): {}", on.cuts_applied);
    if on.status != "Optimal" || off.status != "Optimal" {
        eprintln!(
            "FAIL: cuts ablation needs both runs Optimal within the budget (got {} / {})",
            on.status, off.status
        );
        return false;
    }
    if (on.objective - off.objective).abs() > 1e-4 * off.objective.abs().max(1.0) {
        eprintln!(
            "FAIL: cuts-on optimum {} disagrees with cuts-off {}",
            on.objective, off.objective
        );
        ok = false;
    }
    if on.nodes > off.nodes {
        eprintln!("FAIL: cuts-on explored more nodes than cuts-off ({} > {})", on.nodes, off.nodes);
        ok = false;
    } else {
        println!(
            "  node reduction (off/on): {:.2}x ({} -> {})",
            off.nodes as f64 / on.nodes.max(1) as f64,
            off.nodes,
            on.nodes
        );
    }
    ok
}

/// Branch-and-bound accelerator grid (primal heuristics, node propagation,
/// conflict cuts) on the sparse-lu/dse/warm/cuts-on reference
/// configuration: all-on, each accelerator individually off, all-off.
///
/// Returns `false` when proven optima diverge, when the all-on run fails
/// to prove an optimum some reduced configuration proves within the same
/// budget, or when the all-on tree is more than 5% larger than the
/// all-off tree (both proven; the slack absorbs exploration-order noise
/// from propagation-tightened bounds). If the budget stops both endpoint
/// runs early the gate falls back to incumbent gaps: all-on must not be
/// worse than all-off.
#[allow(clippy::too_many_arguments)]
fn heuristics_ablation(
    tasks: usize,
    seconds: f64,
    seed: u64,
    order: NodeOrder,
    branch: BranchRule,
    trace: bool,
    records: &mut Vec<BenchRecord>,
) -> bool {
    println!(
        "config              M  seed  status      nodes  simplex_iters  seconds  nodes/s  pivots/s  warm/cold"
    );
    let mut ok = true;
    let kernel = BasisKernel::SparseLu;
    let pricing = Pricing::SteepestEdge;
    let arms = [
        ("accel-all-on", Accel::ALL_ON),
        ("no-heuristics", Accel { heuristics: false, ..Accel::ALL_ON }),
        ("no-propagation", Accel { propagation: false, ..Accel::ALL_ON }),
        ("no-conflicts", Accel { conflicts: false, ..Accel::ALL_ON }),
        ("accel-all-off", Accel::ALL_OFF),
    ];
    let mut runs = Vec::with_capacity(arms.len());
    for (name, accel) in arms {
        let r = run(kernel, pricing, order, true, true, accel, branch, tasks, seconds, seed, trace);
        print_row(name, tasks, seed, &r);
        records.push(record(&r, kernel, pricing, order, true, true, accel, branch, tasks, seed));
        runs.push((name, r));
    }
    let all_on = &runs[0].1;
    let all_off = &runs[runs.len() - 1].1;
    println!(
        "  all-on accelerator work: {} heuristic incumbent(s), {} propagated bound(s), \
         {} conflict cut(s)",
        all_on.heuristic_incumbents, all_on.propagated_bounds, all_on.conflict_cuts_applied
    );

    // Every proven optimum must agree with the first proven one.
    let mut objective: Option<f64> = None;
    for (name, r) in &runs {
        if r.status != "Optimal" {
            continue;
        }
        match objective {
            None => objective = Some(r.objective),
            Some(o) => {
                if (r.objective - o).abs() > 1e-4 * o.abs().max(1.0) {
                    eprintln!("FAIL: {name} optimum {} disagrees with {}", r.objective, o);
                    ok = false;
                }
            }
        }
    }
    // Turning an accelerator ON must never lose optimality: if any reduced
    // configuration proves within the budget, the all-on run must too.
    if all_on.status != "Optimal" {
        for (name, r) in &runs[1..] {
            if r.status == "Optimal" {
                eprintln!(
                    "FAIL: {name} proved the optimum but accel-all-on stopped at {}",
                    all_on.status
                );
                ok = false;
            }
        }
    }
    if all_on.status == "Optimal" && all_off.status == "Optimal" {
        // Exact node parity is not guaranteed: propagation tightens node
        // bounds, which perturbs the exploration order (visibly so under
        // best-bound). Allow 5% slack so the gate flags real blowups, not
        // ordering noise.
        if all_on.nodes as f64 > all_off.nodes as f64 * 1.05 {
            eprintln!(
                "FAIL: accelerators grew the tree by more than 5% ({} > {} nodes)",
                all_on.nodes, all_off.nodes
            );
            ok = false;
        } else {
            println!(
                "  node ratio (all-off/all-on): {:.2}x ({} -> {})",
                all_off.nodes as f64 / all_on.nodes.max(1) as f64,
                all_off.nodes,
                all_on.nodes
            );
        }
    } else if all_on.status != "Optimal" && all_off.status != "Optimal" {
        // Budget-limited at both endpoints: the accelerators must at least
        // not worsen the incumbent gap.
        if all_on.gap > all_off.gap + 1e-9 {
            eprintln!(
                "FAIL: accelerators worsened the {seconds} s gap ({:.6} > {:.6})",
                all_on.gap, all_off.gap
            );
            ok = false;
        } else {
            println!(
                "  gap improvement at the {seconds} s budget: {:.6} (all-off) -> {:.6} (all-on)",
                all_off.gap, all_on.gap
            );
        }
    }
    ok
}

/// Branching-rule A/B: the most-fractional baseline against reliability
/// branching on the sparse-lu/dse/warm/cuts-on reference configuration.
///
/// Returns `false` when the proven optima diverge, when reliability
/// branching fails to prove an optimum the baseline proves within the same
/// budget, or when its tree is more than 5% larger than the baseline tree
/// (both proven; the slack absorbs exploration-order noise).
fn branch_ablation(
    tasks: usize,
    seconds: f64,
    seed: u64,
    order: NodeOrder,
    accel: Accel,
    trace: bool,
    records: &mut Vec<BenchRecord>,
) -> bool {
    println!(
        "config              M  seed  status      nodes  simplex_iters  seconds  nodes/s  pivots/s  warm/cold"
    );
    let kernel = BasisKernel::SparseLu;
    let pricing = Pricing::SteepestEdge;
    let mut runs = Vec::with_capacity(2);
    for (name, branch) in
        [("search-baseline", BranchRule::MostFractional), ("reliability", BranchRule::Reliability)]
    {
        let r = run(kernel, pricing, order, true, true, accel, branch, tasks, seconds, seed, trace);
        print_row(name, tasks, seed, &r);
        records.push(record(&r, kernel, pricing, order, true, true, accel, branch, tasks, seed));
        runs.push(r);
    }
    let (baseline, reliability) = (&runs[0], &runs[1]);
    println!("  strong-branch probes (reliability): {}", reliability.strong_branch_probes);

    let mut ok = true;
    if baseline.status == "Optimal" && reliability.status == "Optimal" {
        let o = baseline.objective;
        if (reliability.objective - o).abs() > 1e-4 * o.abs().max(1.0) {
            eprintln!("FAIL: reliability optimum {} disagrees with {o}", reliability.objective);
            ok = false;
        }
    }
    // The rule must never lose optimality: whatever the baseline proves
    // within the budget, reliability branching must prove too.
    if baseline.status == "Optimal" {
        if reliability.status != "Optimal" {
            eprintln!(
                "FAIL: search-baseline proved the optimum but reliability stopped at {}",
                reliability.status
            );
            ok = false;
        // Nor grow the tree: that is the whole point of the rule.
        } else if reliability.nodes as f64 > baseline.nodes as f64 * 1.05 {
            eprintln!(
                "FAIL: reliability grew the tree by more than 5% ({} > {} nodes)",
                reliability.nodes, baseline.nodes
            );
            ok = false;
        } else {
            println!(
                "  node ratio (baseline/reliability): {:.2}x ({} -> {})",
                baseline.nodes as f64 / reliability.nodes.max(1) as f64,
                baseline.nodes,
                reliability.nodes
            );
        }
    }
    ok
}

fn main() {
    let mut tasks = 6usize;
    let mut seconds = 60.0f64;
    let mut seed = 7u64;
    let mut instances = 1usize;
    let mut trace = false;
    let mut pricing = Pricing::SteepestEdge;
    let mut order = NodeOrder::DepthFirst;
    let mut warm = true;
    let mut cuts = true;
    let mut accel = Accel::ALL_ON;
    let mut branch = BranchRule::MostFractional;
    let mut json: Option<String> = None;
    let mut append_json: Option<String> = None;
    let mut grid = false;
    let mut cuts_grid = false;
    let mut accel_grid = false;
    let mut branch_grid = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let on_off = |flag: &str, val: &str| match val {
        "on" => true,
        "off" => false,
        _ => {
            eprintln!("{flag} takes on|off");
            std::process::exit(2);
        }
    };
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace" {
            trace = true;
            i += 1;
            continue;
        }
        if args[i] == "--ablation" {
            grid = true;
            i += 1;
            continue;
        }
        if args[i] == "--cuts-ablation" {
            cuts_grid = true;
            i += 1;
            continue;
        }
        if args[i] == "--heuristics-ablation" {
            accel_grid = true;
            i += 1;
            continue;
        }
        if args[i] == "--branch-ablation" {
            branch_grid = true;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {}", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--tasks" => tasks = val.parse().expect("--tasks takes an integer"),
            "--seconds" => seconds = val.parse().expect("--seconds takes a float"),
            "--seed" => seed = val.parse().expect("--seed takes an integer"),
            "--instances" => instances = val.parse().expect("--instances takes an integer"),
            "--pricing" => {
                pricing = parse_pricing(val).unwrap_or_else(|| {
                    eprintln!("--pricing takes dse|devex|dantzig");
                    std::process::exit(2);
                })
            }
            "--node-order" => {
                order = parse_node_order(val).unwrap_or_else(|| {
                    eprintln!("--node-order takes dfs|best-bound");
                    std::process::exit(2);
                })
            }
            "--warm" => warm = on_off("--warm", val),
            "--cuts" => cuts = on_off("--cuts", val),
            "--heuristics" => accel.heuristics = on_off("--heuristics", val),
            "--propagation" => accel.propagation = on_off("--propagation", val),
            "--conflicts" => accel.conflicts = on_off("--conflicts", val),
            "--branch-rule" => {
                branch = parse_branch_rule(val).unwrap_or_else(|| {
                    eprintln!("--branch-rule takes most-frac|first-frac|pseudo|reliability");
                    std::process::exit(2);
                })
            }
            "--json" => json = Some(val.clone()),
            "--append-json" => append_json = Some(val.clone()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut failed = false;

    if branch_grid {
        failed = !branch_ablation(tasks, seconds, seed, order, accel, trace, &mut records);
    } else if accel_grid {
        failed = !heuristics_ablation(tasks, seconds, seed, order, branch, trace, &mut records);
    } else if cuts_grid {
        failed = !cuts_ablation(tasks, seconds, seed, order, accel, branch, trace, &mut records);
    } else if grid {
        failed = !ablation(tasks, seconds, seed, order, cuts, accel, branch, trace, &mut records);
    } else {
        println!(
            "kernel              M  seed  status      nodes  simplex_iters  seconds  nodes/s  pivots/s  warm/cold"
        );
        let mut ratio_sum = 0.0;
        for k in 0..instances {
            let s = seed + k as u64;
            let dense = run(
                BasisKernel::Dense,
                pricing,
                order,
                warm,
                cuts,
                accel,
                branch,
                tasks,
                seconds,
                s,
                trace,
            );
            let sparse = run(
                BasisKernel::SparseLu,
                pricing,
                order,
                warm,
                cuts,
                accel,
                branch,
                tasks,
                seconds,
                s,
                trace,
            );
            for (name, kernel, r) in [
                ("dense", BasisKernel::Dense, &dense),
                ("sparse-lu", BasisKernel::SparseLu, &sparse),
            ] {
                print_row(name, tasks, s, r);
                records
                    .push(record(r, kernel, pricing, order, warm, cuts, accel, branch, tasks, s));
            }
            let dense_tp = dense.nodes as f64 / dense.seconds.max(1e-9);
            let sparse_tp = sparse.nodes as f64 / sparse.seconds.max(1e-9);
            let ratio = sparse_tp / dense_tp.max(1e-9);
            ratio_sum += ratio;
            println!("  node-throughput ratio (sparse/dense): {ratio:.2}x");
            // Under a shared time budget one kernel may prove Optimal while
            // the other stops at Feasible, so only the solution-found/none
            // split must agree (true divergence is caught by the
            // equivalence suite).
            let found = |s: &str| s == "Optimal" || s == "Feasible";
            assert_eq!(
                found(&dense.status),
                found(&sparse.status),
                "kernels disagree on solution existence: {} vs {}",
                dense.status,
                sparse.status
            );
        }
        if instances > 1 {
            println!("mean ratio over {instances} instances: {:.2}x", ratio_sum / instances as f64);
        }
    }

    if let Some(path) = json {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} record(s) to {path}", records.len());
    }
    if let Some(path) = append_json {
        append_bench_json(&path, &records).expect("append --append-json output");
        println!("appended {} record(s) to {path}", records.len());
    }
    if failed {
        std::process::exit(1);
    }
}
