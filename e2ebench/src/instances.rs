//! Instance families, the pinned answers that check them, and the seeded
//! stratified orders that give every run the same spread of work.

use ndp_core::{CommTimeModel, ProblemInstance};
use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
use ndp_platform::{Platform, PowerModel, PowerParams, ReliabilityParams, VfTable};
use ndp_taskset::{generate, GeneratorConfig};
use std::time::{Duration, Instant};

/// Reliability threshold `R_th` of every family.
const R_TH: f64 = 0.95;

/// One family of generated instances: the paper's knobs at a fixed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `exact-proof`: N=4 (2×2), L=4, α=1.6, M=3.
    Exact,
    /// `serve-online` cold solves: the server's own defaults at M=3, N=4,
    /// L=3, α=1.4 (`ndp_serve::RequestSpec`).
    Serve,
}

impl Family {
    /// `(tasks M, mesh side, levels L, alpha)`.
    pub fn shape(self) -> (usize, usize, usize, f64) {
        match self {
            Family::Exact => (3, 2, 4, 1.6),
            Family::Serve => (3, 2, 3, 1.4),
        }
    }
}

/// A built instance with the time each layer took to build it.
pub struct Built {
    pub problem: ProblemInstance,
    pub generate: Duration,
    pub platform: Duration,
    pub noc: Duration,
    pub assemble: Duration,
}

/// Builds one instance through the public constructors of `taskset`,
/// `platform`, `noc` and `core`, exactly as the bench harness and the
/// server do (synthetic V/F table on the 70 nm corners, per-unit
/// communication time).
pub fn build(family: Family, seed: u64) -> Built {
    let (tasks, side, levels, alpha) = family.shape();
    let t = Instant::now();
    let graph = generate(&GeneratorConfig::typical(tasks), seed).expect("valid generator config");
    let generate_t = t.elapsed();
    let t = Instant::now();
    let vf = VfTable::synthetic(levels, (0.85, 1.10), (300.0, 1000.0)).expect("valid V/F corners");
    let platform = Platform::new(
        side * side,
        vf,
        PowerModel::new(PowerParams::bulk_70nm()),
        ReliabilityParams::typical(),
    )
    .expect("valid platform");
    let platform_t = t.elapsed();
    let t = Instant::now();
    let noc =
        WeightedNoc::new(Mesh2D::square(side).expect("positive side"), NocParams::typical(), seed)
            .expect("valid NoC params");
    let noc_t = t.elapsed();
    let t = Instant::now();
    let problem = ProblemInstance::from_original(&graph, platform, noc, R_TH, alpha)
        .expect("valid problem")
        .with_comm_time_model(CommTimeModel::PerUnit);
    Built { problem, generate: generate_t, platform: platform_t, noc: noc_t, assemble: t.elapsed() }
}

/// Pinned answers and work counts, one line per instance or event
/// (`pins.tsv`, written by `e2ebench pin`).
pub struct Pins {
    pub exact: Vec<ExactPin>,
    pub serve: Vec<ServePin>,
}

/// A proven optimum with the serial search's node and pivot counts.
#[derive(Debug, Clone, Copy)]
pub struct ExactPin {
    pub seed: u64,
    pub objective_mj: f64,
    pub nodes: u64,
    pub pivots: u64,
    /// Proof time when pinned; only orders the pool into strata.
    pub ms: f64,
}

/// A server-sized instance: its cold optimum and the answers of a direct
/// `DeploymentSession` replay of its two follow-up events.
#[derive(Debug, Clone, Copy)]
pub struct ServePin {
    pub seed: u64,
    pub objective_mj: f64,
    pub nodes: u64,
    pub ms: f64,
    /// Core-fault event: the processor and the warm re-solve's answer.
    pub fault_processor: usize,
    pub fault_objective_mj: f64,
    pub fault_nodes: u64,
    /// Deadline-tightening event: original task, new deadline, answer.
    pub deadline_task: usize,
    pub deadline_ms: f64,
    pub deadline_objective_mj: f64,
    pub deadline_nodes: u64,
}

impl Pins {
    /// The pins compiled into the benchmark.
    pub fn load() -> Pins {
        Pins::parse(include_str!("../pins.tsv"))
    }

    fn parse(text: &str) -> Pins {
        let mut pins = Pins { exact: Vec::new(), serve: Vec::new() };
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            let u = |i: usize| f[i].parse::<u64>().expect("integer pin field");
            let x = |i: usize| f[i].parse::<f64>().expect("numeric pin field");
            match f[0] {
                "exact" => pins.exact.push(ExactPin {
                    seed: u(1),
                    objective_mj: x(2),
                    nodes: u(3),
                    pivots: u(4),
                    ms: x(5),
                }),
                "serve" => pins.serve.push(ServePin {
                    seed: u(1),
                    objective_mj: x(2),
                    nodes: u(3),
                    ms: x(4),
                    fault_processor: u(5) as usize,
                    fault_objective_mj: x(6),
                    fault_nodes: u(7),
                    deadline_task: u(8) as usize,
                    deadline_ms: x(9),
                    deadline_objective_mj: x(10),
                    deadline_nodes: u(11),
                }),
                other => panic!("unknown pin kind {other:?}"),
            }
        }
        pins
    }
}

/// Whether two objective values agree within the solver's relative gap.
pub fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

/// SplitMix64: a small seeded generator for the draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6532_6562_656e_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Draws `count` pool indices for one run, stratified on pinned cost: the
/// pool is sorted by cost and cut into `count` equal bands (as equal as
/// integer division allows), and the seed picks one instance in each band
/// and the order they run in. Every run therefore holds the same spread of
/// cost, from the cheapest band to the dearest, and its percentiles do not
/// depend on which instances it happened to draw. A count beyond the pool
/// takes whole shuffled passes first.
pub fn draw(costs: &[f64], count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut sorted: Vec<usize> = (0..costs.len()).collect();
    sorted.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    let pool = sorted.len();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let k = (count - out.len()).min(pool);
        let mut pass: Vec<usize> = (0..k)
            .map(|band| {
                let (lo, hi) = (band * pool / k, (band + 1) * pool / k);
                sorted[lo + (rng.next_u64() % (hi - lo) as u64) as usize]
            })
            .collect();
        rng.shuffle(&mut pass);
        out.extend(pass);
    }
    out
}

/// Cost bands of a closed loop's pool; even, since they run in pairs.
pub const STRATA: usize = 6;

/// The op order of a closed loop that stops on the clock: the pool is
/// sorted by pinned cost and cut into `STRATA` equal bands, and every round
/// runs one instance of each band, so the ops done by any point of a run
/// hold nearly the same spread of cost whatever the host's speed. Within a
/// round the bands run in pairs, a cheap band with a dear one (cheapest with
/// dearest, and so on), so a round the clock cuts short is still balanced.
/// The seed shuffles each band, the order of the pairs and which band of a
/// pair runs first. No instance repeats until every instance of its band
/// has run; the band then starts over in a new shuffle.
pub fn rounds(costs: &[f64], count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut sorted: Vec<usize> = (0..costs.len()).collect();
    sorted.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    let pool = sorted.len();
    assert!(pool >= STRATA, "pool smaller than its strata");
    let bands: Vec<&[usize]> =
        (0..STRATA).map(|b| &sorted[b * pool / STRATA..(b + 1) * pool / STRATA]).collect();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); STRATA];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut pairs: Vec<usize> = (0..STRATA / 2).collect();
        rng.shuffle(&mut pairs);
        for p in pairs {
            let mut pair = [p, STRATA - 1 - p];
            if rng.next_u64() % 2 == 1 {
                pair.swap(0, 1);
            }
            for b in pair {
                if queues[b].is_empty() {
                    queues[b] = bands[b].to_vec();
                    rng.shuffle(&mut queues[b]);
                }
                out.push(queues[b].pop().expect("refilled band"));
            }
        }
    }
    out.truncate(count);
    out
}
