//! The whole fig2 family in one process on one shared
//! [`ExperimentContext`]: every figure's exact solves are scheduled
//! through the batch engine, and members that figures have in common
//! (the BE/ME grids of fig 2(d)–(g), fig 2(b)'s unscaled column, the
//! fig 2(h) ∩ fig 2(d) seeds) are solved once and replayed from the
//! shared [`SolveCache`](ndp_core::SolveCache).
//!
//! ```text
//! batch_sweep [--batch-smoke] [--append-json [PATH]] [--baseline-file PATH]
//! ```
//!
//! * Default: run fig 2(a)–(h) back to back, print each figure's table
//!   (identical to the standalone binaries) followed by a sweep summary
//!   (per-figure wall seconds and cache hits/misses).
//! * `--batch-smoke`: CI gate. Solves a small always-provable family
//!   once serially (one `DeploymentSession` per member) and once through
//!   a `BatchSession` (plus once more in portfolio mode), then exits
//!   non-zero if any batch result diverges from its serial counterpart
//!   (status, or objective bits for the non-racing batch) or if the
//!   batch wall-clock regresses past the serial wall-clock.
//! * `--append-json [PATH]`: append sweep/smoke trajectory records
//!   (`batch: true`, `sweep_wall_seconds`) to `PATH` (default
//!   `BENCH_milp.json`) in the accumulating array layout of
//!   [`append_bench_json`].
//! * `--baseline-file PATH`: per-figure serial wall times from a prior
//!   run of the standalone binaries, one `fig2X MILLIS ms rc=0` line
//!   each (the format of `results/baseline/times.txt`). When given, the
//!   summary and the appended records carry `speedup` (serial seconds /
//!   batched seconds, per figure and for the whole sweep).

use std::sync::Arc;
use std::time::Instant;

use ndp_bench::figs::{self, ExperimentContext};
use ndp_bench::{
    append_bench_json, exact_solver_options, node_order_name, pricing_name, BenchRecord,
};
use ndp_core::{BatchSession, DeployObjective, OptimalConfig, ProblemInstance};
use ndp_milp::{BasisKernel, SolverOptions};
use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
use ndp_platform::Platform;
use ndp_taskset::{generate, GeneratorConfig, GraphShape};

fn kernel_name(k: BasisKernel) -> &'static str {
    match k {
        BasisKernel::Dense => "dense",
        BasisKernel::SparseLu => "sparse-lu",
    }
}

/// Parses a `--baseline-file`: lines of `NAME MILLIS ms rc=CODE`
/// (the format written by a timed serial run of the figure binaries).
/// Unknown names are kept; lookups pick what they need.
fn parse_baseline(path: &str) -> Result<std::collections::HashMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut map = std::collections::HashMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(millis)) = (parts.next(), parts.next()) else { continue };
        if let Ok(ms) = millis.parse::<f64>() {
            map.insert(name.to_string(), ms / 1000.0);
        }
    }
    if map.is_empty() {
        return Err(format!("{path}: no `NAME MILLIS ...` lines found"));
    }
    Ok(map)
}

/// A sweep-level trajectory record: solver-configuration columns reflect
/// the figure defaults; work counters are not aggregated across members
/// (the per-solve records of the other binaries carry those).
fn sweep_record(
    instance: &str,
    portfolio: bool,
    seconds: f64,
    sweep_wall: f64,
    speedup: Option<f64>,
) -> BenchRecord {
    let o = exact_solver_options();
    BenchRecord {
        instance: instance.into(),
        kernel: kernel_name(o.basis_kernel).into(),
        pricing: pricing_name(o.pricing).into(),
        node_order: node_order_name(o.node_order).into(),
        warm_start: o.warm_start,
        cuts: o.cuts,
        heuristics: o.heuristics,
        propagation: o.propagation,
        conflict_cuts: o.conflict_cuts,
        threads: o.threads,
        status: "Sweep".into(),
        nodes: 0,
        pivots: 0,
        warm_starts: 0,
        cold_starts: 0,
        cuts_applied: 0,
        heuristic_incumbents: 0,
        propagated_bounds: 0,
        conflict_cuts_applied: 0,
        gap: f64::NAN,
        dual_bound: f64::NAN,
        seconds,
        speedup,
        batch: true,
        portfolio,
        sweep_wall_seconds: Some(sweep_wall),
        branch_rule: None,
    }
}

fn full_sweep(
    append: Option<&str>,
    baseline: Option<&std::collections::HashMap<String, f64>>,
) -> i32 {
    type FigFn = fn(&ExperimentContext);
    let figures: [(&str, FigFn, bool); 8] = [
        ("fig2a", figs::fig2a, true),
        ("fig2b", figs::fig2b, false),
        ("fig2c", figs::fig2c, false),
        ("fig2d", figs::fig2d, false),
        ("fig2e", figs::fig2e, false),
        ("fig2f", figs::fig2f, false),
        ("fig2g", figs::fig2g, false),
        ("fig2h", figs::fig2h, false),
    ];
    let ctx = ExperimentContext::new();
    let t_all = Instant::now();
    let mut rows: Vec<(&str, bool, f64, u64, u64)> = Vec::new();
    for (name, fig, portfolio) in figures {
        let (h0, m0) = (ctx.cache().hits(), ctx.cache().misses());
        let t0 = Instant::now();
        fig(&ctx);
        rows.push((
            name,
            portfolio,
            t0.elapsed().as_secs_f64(),
            ctx.cache().hits() - h0,
            ctx.cache().misses() - m0,
        ));
        println!();
    }
    let total = t_all.elapsed().as_secs_f64();
    // Per-figure serial baselines, when the caller timed the standalone
    // binaries beforehand; the total compares only figures present there.
    let figure_speedup = |name: &str, secs: f64| -> Option<f64> {
        baseline.and_then(|b| b.get(name)).map(|serial| serial / secs)
    };
    let total_speedup = baseline.and_then(|b| {
        let covered: Vec<f64> =
            rows.iter().filter_map(|(name, ..)| b.get(*name).copied()).collect();
        (covered.len() == rows.len()).then(|| covered.iter().sum::<f64>() / total)
    });
    println!("# batch sweep summary (shared context, one process)");
    println!("{:>8} {:>10} {:>6} {:>8} {:>9}", "figure", "seconds", "hits", "misses", "speedup");
    for (name, _, secs, hits, misses) in &rows {
        match figure_speedup(name, *secs) {
            Some(s) => println!("{name:>8} {secs:>10.1} {hits:>6} {misses:>8} {s:>8.2}x"),
            None => println!("{name:>8} {secs:>10.1} {hits:>6} {misses:>8} {:>9}", "-"),
        }
    }
    print!(
        "total {total:.1} s; cache: {} memoized solves, {} replays",
        ctx.cache().len(),
        ctx.cache().hits()
    );
    match total_speedup {
        Some(s) => println!("; {s:.2}x vs serial baseline"),
        None => println!(),
    }
    if let Some(path) = append {
        let mut records: Vec<BenchRecord> = rows
            .iter()
            .map(|(name, portfolio, secs, _, _)| {
                sweep_record(
                    &format!("batch-{name}"),
                    *portfolio,
                    *secs,
                    total,
                    figure_speedup(name, *secs),
                )
            })
            .collect();
        records.push(sweep_record("batch-fig2-sweep", false, total, total, total_speedup));
        if let Err(e) = append_bench_json(path, &records) {
            eprintln!("batch_sweep: cannot append to {path}: {e}");
            return 1;
        }
        println!("appended {} records to {path}", rows.len() + 1);
    }
    0
}

/// A small always-provable member family for the smoke gate: chain
/// graphs stay easy for the branch and bound, so every solve proves
/// within the budget and the serial-vs-batch comparison is
/// deterministic. One member per (seed, objective), plus a duplicate BE
/// member per seed so the gate also exercises the memo cache.
fn smoke_family() -> Vec<(Arc<ProblemInstance>, OptimalConfig)> {
    let quick = || OptimalConfig {
        solver: SolverOptions::default().time_limit(20.0).threads(1),
        ..OptimalConfig::default()
    };
    let mut members = Vec::new();
    for seed in 0..3u64 {
        let mut cfg = GeneratorConfig::typical(3);
        cfg.shape = GraphShape::Chain;
        let g = generate(&cfg, seed).expect("valid generator config");
        let problem = Arc::new(
            ProblemInstance::from_original(
                &g,
                Platform::homogeneous(4).expect("valid platform"),
                WeightedNoc::new(
                    Mesh2D::square(2).expect("positive side"),
                    NocParams::typical(),
                    seed,
                )
                .expect("valid NoC"),
                0.95,
                3.0,
            )
            .expect("valid problem"),
        );
        members.push((Arc::clone(&problem), quick()));
        members.push((
            Arc::clone(&problem),
            OptimalConfig { objective: DeployObjective::MinimizeTotalEnergy, ..quick() },
        ));
        members.push((problem, quick())); // duplicate BE: must replay
    }
    members
}

fn batch_smoke(append: Option<&str>) -> i32 {
    let members = smoke_family();
    println!("# batch smoke: {} members (serial vs batch vs portfolio)", members.len());

    let t0 = Instant::now();
    let serial: Vec<_> = members
        .iter()
        .map(|(p, cfg)| ndp_bench::session_for(p, cfg).solve().expect("serial solve"))
        .collect();
    let serial_wall = t0.elapsed().as_secs_f64();

    let mut batch = BatchSession::new();
    for (p, cfg) in &members {
        batch.add(Arc::clone(p), cfg.clone());
    }
    let t0 = Instant::now();
    let batched = batch.solve_all();
    let batch_wall = t0.elapsed().as_secs_f64();

    let mut race = BatchSession::new();
    for (p, cfg) in &members {
        race.add(Arc::clone(p), cfg.clone());
    }
    race.set_portfolio(true);
    let raced = race.solve_all();

    let mut failures = 0u32;
    for (i, (want, got)) in serial.iter().zip(&batched).enumerate() {
        let got = got.as_ref().expect("batch solve");
        if want.status != got.outcome.status
            || want.objective_mj.map(f64::to_bits) != got.outcome.objective_mj.map(f64::to_bits)
        {
            eprintln!(
                "member {i}: batch diverged (serial {:?}/{:?} vs batch {:?}/{:?})",
                want.status, want.objective_mj, got.outcome.status, got.outcome.objective_mj
            );
            failures += 1;
        }
    }
    for (i, (want, got)) in serial.iter().zip(&raced).enumerate() {
        let got = got.as_ref().expect("portfolio solve");
        let (a, b) =
            (want.objective_mj.unwrap_or(f64::NAN), got.outcome.objective_mj.unwrap_or(f64::NAN));
        if want.status != got.outcome.status || (a - b).abs() > 1e-5 * a.abs().max(1.0) {
            eprintln!(
                "member {i}: portfolio diverged (serial {:?}/{a} vs raced {:?}/{b})",
                want.status, got.outcome.status
            );
            failures += 1;
        }
    }
    let replays = batched.iter().filter(|r| r.as_ref().is_ok_and(|o| o.from_cache)).count();
    println!(
        "serial {serial_wall:.2} s, batch {batch_wall:.2} s ({replays} cache replays), \
         portfolio consistent"
    );
    if replays == 0 {
        eprintln!("batch smoke: duplicate members did not replay from the cache");
        failures += 1;
    }
    if batch_wall > serial_wall {
        eprintln!(
            "batch smoke: batch wall-clock {batch_wall:.2} s regressed past serial \
             {serial_wall:.2} s"
        );
        failures += 1;
    }
    if let Some(path) = append {
        let records = [
            sweep_record("batch-smoke-serial", false, serial_wall, serial_wall, None),
            sweep_record(
                "batch-smoke-batch",
                false,
                batch_wall,
                batch_wall,
                Some(serial_wall / batch_wall),
            ),
        ];
        if let Err(e) = append_bench_json(path, &records) {
            eprintln!("batch_sweep: cannot append to {path}: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("batch smoke FAILED ({failures} check(s))");
        1
    } else {
        println!("batch smoke passed");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut append: Option<String> = None;
    let mut baseline: Option<std::collections::HashMap<String, f64>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--batch-smoke" => smoke = true,
            "--append-json" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                append = Some(next.cloned().unwrap_or_else(|| "BENCH_milp.json".into()));
                if next.is_some() {
                    i += 1;
                }
            }
            "--baseline-file" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("batch_sweep: --baseline-file needs a PATH");
                    std::process::exit(2);
                };
                match parse_baseline(path) {
                    Ok(map) => baseline = Some(map),
                    Err(e) => {
                        eprintln!("batch_sweep: {e}");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            other => {
                eprintln!("batch_sweep: unknown flag {other}");
                eprintln!(
                    "usage: batch_sweep [--batch-smoke] [--append-json [PATH]] \
                     [--baseline-file PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let code = if smoke {
        batch_smoke(append.as_deref())
    } else {
        full_sweep(append.as_deref(), baseline.as_ref())
    };
    std::process::exit(code);
}
