//! `serve-online`: an open loop into an in-process `SolveServer` (two
//! runners, `threads=1` on every request) at a fixed arrival rate.
//!
//! The traffic comes in blocks of six requests, due at a fixed interval
//! without jitter: three cold solves, one `session=on` solve, one exact
//! repeat of a cold solve of the previous block (a cache hit) and one
//! `delta` on the previous block's session (a core fault or a deadline
//! tightening, in turn). The first block has only its four solves. A run
//! sends the whole blocks that fit in `--seconds`; their fresh instances
//! are drawn from the 40 pinned ones (the cheapest of the 41 warms the
//! server up) stratified on cost, so runs differ in which instance queues
//! behind which, which solve each hit repeats and which event each session
//! gets, but hardly in how much solving the run holds. Hits take a
//! millisecond; deltas and solves share one latency band, so `p50_ms` and
//! `p65_ms` sit inside that band.

use crate::instances::{draw, same_objective, Family, Pins, Rng, ServePin};
use crate::report::{hd_quantile, mean, peak_rss_mb, quantile, RunResult, TAIL};
use crate::trace::{ms, Trace};
use crate::workloads::{finish_trace, RunArgs, SETUP_REPS};
use ndp_core::ScenarioEvent;
use ndp_platform::ProcessorId;
use ndp_serve::{JobOutcome, JobStatus, RequestSpec, ServerConfig, SolveServer};
use ndp_taskset::TaskId;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const RUNNERS: usize = 2;
/// Fixed arrival interval of the open loop. At today's solve cost this
/// keeps the runners well under half busy (`serve.utilisation`), so that a
/// slower spell of the host does not build a queue that multiplies it.
const INTERVAL_MS: f64 = 1600.0;
/// Latency limit from due time to `done` for `slo_share`.
const SLO_MS: f64 = 4000.0;
/// Longest a run may wait for answers, as a multiple of `--seconds`
/// (and at most `HARD_LIMIT`): requests still open then are cancelled and
/// counted failed, so an overloaded server cannot hold the run past the
/// harness's time limit.
const STALL_FACTOR: f64 = 2.5;
const HARD_LIMIT: Duration = Duration::from_secs(140);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Session,
    Hit,
    Delta,
}

/// One scheduled request and the answer it must get.
struct Request {
    class: Class,
    pin: ServePin,
    /// The request a hit repeats or a delta re-solves (index).
    parent: Option<usize>,
    event: Option<ScenarioEvent>,
    /// Offset from the start of the traffic.
    due: Duration,
    objective_mj: f64,
    nodes: u64,
}

/// Completion times taken from the server's output lines.
#[derive(Default)]
struct Clock {
    state: Mutex<ClockState>,
    done_cv: Condvar,
}

#[derive(Default)]
struct ClockState {
    done: HashMap<u64, Instant>,
    first_event: HashMap<u64, Instant>,
}

impl Clock {
    fn on_line(&self, line: &str) {
        let now = Instant::now();
        let mut words = line.split(' ');
        let kind = words.next();
        let Some(id) =
            words.next().and_then(|w| w.strip_prefix("id=")).and_then(|v| v.parse().ok())
        else {
            return;
        };
        let mut s = self.state.lock().expect("clock lock poisoned");
        match kind {
            Some("done") => {
                s.done.insert(id, now);
                self.done_cv.notify_all();
            }
            Some("event") => {
                s.first_event.entry(id).or_insert(now);
            }
            _ => {}
        }
    }

    /// Waits until request `id` is done; `None` once `deadline` passes.
    fn wait_done(&self, id: u64, deadline: Instant) -> Option<Instant> {
        let mut s = self.state.lock().expect("clock lock poisoned");
        loop {
            if let Some(&t) = s.done.get(&id) {
                return Some(t);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            s = self.done_cv.wait_timeout(s, left).expect("clock lock poisoned").0;
        }
    }
}

fn start_server(clock: &Arc<Clock>) -> SolveServer {
    let sink_clock = Arc::clone(clock);
    SolveServer::start(
        ServerConfig { runners: RUNNERS, queue_capacity: 64 },
        Some(Arc::new(move |line: &str| sink_clock.on_line(line))),
    )
}

fn spec(pin: &ServePin, session: bool, events: bool) -> RequestSpec {
    let (tasks, mesh_side, levels, alpha) = Family::Serve.shape();
    RequestSpec {
        tasks,
        mesh_side,
        levels,
        alpha,
        seed: pin.seed,
        threads: 1,
        session,
        events,
        ..RequestSpec::default()
    }
}

/// The request's job id (ids are client-chosen on the public API).
fn job_id(i: usize) -> u64 {
    i as u64 + 1
}

/// Builds the seeded schedule: whole blocks of requests at the fixed
/// interval over `seconds`. Each block takes four fresh instances (a fresh
/// instance never repeats, or it would be a cache hit), drawn from `pool`
/// stratified on pinned cost, so a run that needs fewer than the whole pool
/// still holds the same spread of cost. The seed picks the instances, their
/// order, which cold solve each hit repeats, and so which instance each
/// event kind lands on.
fn schedule(pool: &[ServePin], seconds: f64, rng: &mut Rng) -> Vec<Request> {
    let slots = (seconds * 1e3 / INTERVAL_MS) as usize;
    // Whole blocks that fit: the first holds four requests, every later
    // one six.
    let blocks = (1 + slots.saturating_sub(4) / 6).min(pool.len() / 4);
    let costs: Vec<f64> = pool.iter().map(|p| p.ms).collect();
    let mut fresh = draw(&costs, 4 * blocks, rng).into_iter().map(|i| pool[i]);
    let mut requests: Vec<Request> = Vec::new();
    let mut prev_block: Vec<usize> = Vec::new();
    let mut block_no = 0;
    while block_no < blocks {
        // A fixed order spaces the solves out the same way in every run, so
        // runs differ in which instances queue behind which, not in how
        // often solves bunch up.
        let classes: &[Class] = if block_no == 0 {
            &[Class::Cold, Class::Cold, Class::Session, Class::Cold]
        } else {
            &[Class::Cold, Class::Hit, Class::Cold, Class::Session, Class::Delta, Class::Cold]
        };
        let mut block = Vec::new();
        for &class in classes {
            let due = Duration::from_secs_f64(requests.len() as f64 * INTERVAL_MS / 1e3);
            let request = match class {
                Class::Cold | Class::Session => {
                    let pin = fresh.next().expect("serve pool covers the run");
                    Request {
                        class,
                        pin,
                        parent: None,
                        event: None,
                        due,
                        objective_mj: pin.objective_mj,
                        nodes: pin.nodes,
                    }
                }
                Class::Hit => {
                    let colds: Vec<usize> = prev_block
                        .iter()
                        .copied()
                        .filter(|&i| requests[i].class == Class::Cold)
                        .collect();
                    let parent = colds[(rng.next_u64() % colds.len() as u64) as usize];
                    let pin = requests[parent].pin;
                    Request {
                        class,
                        pin,
                        parent: Some(parent),
                        event: None,
                        due,
                        objective_mj: pin.objective_mj,
                        nodes: 0,
                    }
                }
                Class::Delta => {
                    let parent = *prev_block
                        .iter()
                        .find(|&&i| requests[i].class == Class::Session)
                        .expect("every block has a session solve");
                    let pin = requests[parent].pin;
                    let (event, objective_mj, nodes) = if block_no % 2 == 1 {
                        let processor = ProcessorId(pin.fault_processor);
                        (
                            ScenarioEvent::CoreFault { processor },
                            pin.fault_objective_mj,
                            pin.fault_nodes,
                        )
                    } else {
                        let task = TaskId(pin.deadline_task);
                        let e =
                            ScenarioEvent::DeadlineChange { task, deadline_ms: pin.deadline_ms };
                        (e, pin.deadline_objective_mj, pin.deadline_nodes)
                    };
                    Request {
                        class,
                        pin,
                        parent: Some(parent),
                        event: Some(event),
                        due,
                        objective_mj,
                        nodes,
                    }
                }
            };
            requests.push(request);
            block.push(requests.len() - 1);
        }
        prev_block = block;
        block_no += 1;
    }
    requests
}

/// One run's traffic against one server, and what it observed.
struct Traffic<'a> {
    server: &'a SolveServer,
    clock: &'a Clock,
    requests: &'a [Request],
    /// Stream solver events (traced runs), for the pre-solve/solve split.
    events: bool,
    /// After this, open requests are cancelled and counted failed.
    deadline: Instant,
    due: Vec<Option<Instant>>,
    submitted: Vec<Option<Instant>>,
    queue_max: usize,
    errors: Vec<(usize, String)>,
}

impl Traffic<'_> {
    /// Submits every request at its due time (a follow-up also waits for
    /// its parent to finish) and waits until all are done.
    fn run(&mut self) {
        let start = Instant::now();
        for i in 0..self.requests.len() {
            let req = &self.requests[i];
            let due = start + req.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if let Some(parent) = req.parent {
                if self.clock.wait_done(job_id(parent), self.deadline).is_none() {
                    self.errors.push((i, "parent not answered within the stall limit".into()));
                    continue;
                }
            }
            self.due[i] = Some(due);
            self.submitted[i] = Some(Instant::now());
            let submitted = match (&req.event, req.parent) {
                (Some(event), Some(parent)) => {
                    self.server.submit_delta_with_id(job_id(i), job_id(parent), event.clone(), None)
                }
                _ => self.server.submit_with_id(
                    job_id(i),
                    spec(&req.pin, req.class == Class::Session, self.events),
                ),
            };
            if let Err(e) = submitted {
                self.errors.push((i, format!("rejected: {e}")));
                self.submitted[i] = None;
            }
            self.queue_max = self.queue_max.max(self.server.stats().queue_depth);
        }
        for i in 0..self.requests.len() {
            if self.submitted[i].is_some()
                && self.clock.wait_done(job_id(i), self.deadline).is_none()
            {
                self.server.cancel(job_id(i));
                self.errors.push((i, "no answer within the stall limit".into()));
            }
        }
    }
}

/// Status `Optimal`, the pinned objective (a hit: its miss's objective; a
/// delta: the direct session replay's), and the expected cache use.
fn check(req: &Request, out: &JobOutcome, parent: Option<&JobOutcome>) -> Result<(), String> {
    if out.status != JobStatus::Optimal {
        return Err(format!("status {} ({:?})", out.status.name(), out.error));
    }
    let objective = out.objective_mj.ok_or("no objective")?;
    if !same_objective(objective, req.objective_mj) {
        return Err(format!("objective {objective}, pinned {}", req.objective_mj));
    }
    if out.cache_hit != (req.class == Class::Hit) {
        return Err(format!("cache_hit {} on a {} request", out.cache_hit, class_name(req.class)));
    }
    if let (Class::Hit, Some(miss)) = (req.class, parent) {
        if miss.objective_mj != out.objective_mj {
            return Err(format!(
                "hit {:?} differs from its miss {:?}",
                out.objective_mj, miss.objective_mj
            ));
        }
    }
    Ok(())
}

/// Runner-busy seconds of the requests in `order`, reconstructed from
/// submit and done times: the server's queue is FIFO and each of its
/// `RUNNERS` runners takes the next job the moment it finishes one, so a
/// job starts at the later of its submission and the earliest time a
/// runner came free.
fn busy_seconds(order: &[usize], submitted: &[Option<Instant>], done: &[Option<Instant>]) -> f64 {
    let mut free: Vec<Option<Instant>> = vec![None; RUNNERS];
    let mut busy = 0.0;
    for &i in order {
        let (Some(sub), Some(end)) = (submitted[i], done[i]) else { continue };
        let runner = (0..RUNNERS).min_by_key(|&k| free[k]).expect("at least one runner");
        let start = free[runner].map_or(sub, |f| f.max(sub));
        busy += end.saturating_duration_since(start).as_secs_f64();
        free[runner] = Some(end);
    }
    busy
}

fn class_name(c: Class) -> &'static str {
    match c {
        Class::Cold => "cold",
        Class::Session => "session",
        Class::Hit => "hit",
        Class::Delta => "delta",
    }
}

pub fn run(args: &RunArgs, pins: &Pins) -> RunResult {
    // The cheapest instance warms the server up and is kept out of the run.
    let mut pool = pins.serve.clone();
    pool.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let warm = pool.remove(0);
    let requests = schedule(&pool, args.seconds, &mut Rng::new(args.seed));

    // Set-up: start the server and warm it up with a solve and its cache
    // hit, several times before the traffic (the last server is the
    // measured one) and again after it.
    let clock = Arc::new(Clock::default());
    let mut setup_secs = Vec::new();
    let mut reps = 0;
    let mut setup = |secs: &mut Vec<f64>| {
        let t = Instant::now();
        let s = start_server(&clock);
        for k in 0..2 {
            let id = 1_000_000 + (reps * 2 + k) as u64;
            s.submit_with_id(id, spec(&warm, false, false)).expect("warm-up accepted");
            s.wait(id);
        }
        secs.push(t.elapsed().as_secs_f64());
        reps += 1;
        s
    };
    for _ in 1..SETUP_REPS {
        setup(&mut setup_secs).shutdown();
    }
    let server = setup(&mut setup_secs);

    let n = requests.len();
    let mut trace = Trace::new();
    let limit = Duration::from_secs_f64(args.seconds * STALL_FACTOR).min(HARD_LIMIT);
    let mut traffic = Traffic {
        server: &server,
        clock: &clock,
        requests: &requests,
        events: args.trace,
        deadline: Instant::now() + limit,
        due: vec![None; n],
        submitted: vec![None; n],
        queue_max: 0,
        errors: Vec::new(),
    };
    traffic.run();
    let Traffic { due, submitted, queue_max, errors, .. } = traffic;
    let stats = server.stats();
    let outcomes: Vec<Option<JobOutcome>> =
        (0..n).map(|i| submitted[i].and_then(|_| server.wait(job_id(i)))).collect();
    server.shutdown();
    for _ in 0..SETUP_REPS {
        setup(&mut setup_secs).shutdown();
    }
    let clock_state = clock.state.lock().expect("clock lock poisoned");

    // Check every answer.
    let mut r = RunResult::new();
    let mut ok = vec![false; n];
    let mut witness_moved = 0;
    for (i, req) in requests.iter().enumerate() {
        let error = errors.iter().find(|e| e.0 == i).map(|e| e.1.clone()).or_else(|| {
            let out = outcomes[i].as_ref()?;
            let parent = req.parent.and_then(|p| outcomes[p].as_ref());
            check(req, out, parent).err()
        });
        let error = error.or_else(|| outcomes[i].is_none().then(|| "no outcome".to_string()));
        ok[i] = error.is_none();
        if let (true, Some(out)) = (ok[i], &outcomes[i]) {
            if out.nodes != req.nodes {
                witness_moved += 1;
                eprintln!(
                    "witness: {} seed {} took {} nodes, pinned {}",
                    class_name(req.class),
                    req.pin.seed,
                    out.nodes,
                    req.nodes
                );
            }
        }
        r.op(error.map(|e| format!("{} seed {}: {e}", class_name(req.class), req.pin.seed)));
    }

    let open: Vec<usize> = (0..n).filter(|&i| submitted[i].is_some()).collect();
    let latency = |i: usize| -> Option<f64> {
        Some(ms(clock_state.done.get(&job_id(i))?.saturating_duration_since(due[i]?)))
    };
    let latencies: Vec<f64> = open.iter().filter_map(|&i| latency(i)).collect();
    let done_at: Vec<Option<Instant>> =
        (0..n).map(|i| clock_state.done.get(&job_id(i)).copied()).collect();
    let busy = busy_seconds(&open, &submitted, &done_at);
    let first_due = open.iter().filter_map(|&i| due[i]).min();
    let last_done = open.iter().filter_map(|&i| done_at[i]).max();
    let window =
        first_due.zip(last_done).map_or(0.0, |(f, l)| l.saturating_duration_since(f).as_secs_f64());
    // Requests per minute the runners clear when never idle, from the
    // measured busy time (ops_per_min); the offered rate is fixed.
    let ops_per_min = RUNNERS as f64 * open.len() as f64 / busy.max(1e-9) * 60.0;
    let utilisation = busy / (RUNNERS as f64 * window.max(1e-9));

    if args.trace {
        let mut by_class: HashMap<&str, Vec<f64>> = HashMap::new();
        let (mut pre, mut solve) = (Vec::new(), Vec::new());
        for &i in &open {
            let (Some(due), Some(sub), Some(&done)) =
                (due[i], submitted[i], clock_state.done.get(&job_id(i)))
            else {
                continue;
            };
            let op = i as u64;
            let root = trace.push("op", op, None, due, done);
            trace.push("loadgen.late", op, Some(root), due, sub);
            let class = requests[i].class;
            by_class
                .entry(class_name(class))
                .or_default()
                .push(ms(done.saturating_duration_since(sub)));
            match (class, clock_state.first_event.get(&job_id(i))) {
                (Class::Cold | Class::Session, Some(&first)) => {
                    trace.push("serve.pre_solve", op, Some(root), sub, first);
                    trace.push("serve.solve", op, Some(root), first, done);
                    pre.push(ms(first.saturating_duration_since(sub)));
                    solve.push(ms(done.saturating_duration_since(first)));
                }
                (Class::Hit, _) => {
                    trace.push("serve.hit", op, Some(root), sub, done);
                }
                (Class::Delta, _) => {
                    trace.push("serve.delta", op, Some(root), sub, done);
                }
                // A solve that streamed no event was a wrong answer (a
                // cache hit); its time stays unattributed.
                _ => {}
            }
        }
        let class_ms = |c: &str| by_class.get(c).map_or(0.0, |v| mean(v));
        let colds: Vec<f64> = ["cold", "session"]
            .iter()
            .flat_map(|c| by_class.get(c).cloned().unwrap_or_default())
            .collect();
        r.layer("serve.pre_solve_ms", mean(&pre));
        r.layer("serve.solve_ms", mean(&solve));
        r.layer("serve.cold_ms", mean(&colds));
        r.layer("serve.hit_ms", class_ms("hit"));
        r.layer("serve.delta_ms", class_ms("delta"));
        let late: Vec<f64> = open
            .iter()
            .filter_map(|&i| Some(ms(submitted[i]?.saturating_duration_since(due[i]?))))
            .collect();
        r.layer("loadgen.late_ms", mean(&late));
        r.layer("trace.p50_ms", hd_quantile(&latencies, 0.5));
        finish_trace(&mut r, &trace, open.len(), args);
    } else {
        let within =
            open.iter().filter(|&&i| ok[i] && latency(i).is_some_and(|l| l <= SLO_MS)).count();
        let energies: Vec<f64> =
            (0..n).filter(|&i| ok[i]).filter_map(|i| outcomes[i].as_ref()?.objective_mj).collect();
        r.metric("setup_s", quantile(&setup_secs, 0.5), setup_secs.len());
        r.metric("p50_ms", hd_quantile(&latencies, 0.5), latencies.len());
        r.metric("p65_ms", hd_quantile(&latencies, TAIL), latencies.len());
        r.metric("ops_per_min", ops_per_min, open.len());
        r.metric("success_share", ok.iter().filter(|&&o| o).count() as f64 / n as f64, n);
        r.metric("slo_share", within as f64 / open.len().max(1) as f64, open.len());
        r.metric("energy_mj", mean(&energies), energies.len());
        r.metric("peak_rss_mb", peak_rss_mb(), 1);
    }
    let hits = outcomes.iter().flatten().filter(|o| o.cache_hit).count();
    let deltas: Vec<usize> = (0..n).filter(|&i| requests[i].class == Class::Delta).collect();
    let zero =
        deltas.iter().filter(|&&i| outcomes[i].as_ref().is_some_and(|o| o.nodes == 0)).count();
    r.layer("serve.hit_share", hits as f64 / n as f64);
    r.layer("serve.delta_zero_node_share", zero as f64 / deltas.len().max(1) as f64);
    r.layer("serve.queue_depth_max", queue_max as f64);
    r.layer("serve.rejected", stats.rejected as f64);
    r.layer("serve.utilisation", utilisation);
    r.layer("witness.moved", witness_moved as f64);
    r.layer("witness.checked", ok.iter().filter(|&&o| o).count() as f64);
    eprintln!(
        "serve-online: {} requests, runners {:.0} % busy, capacity {ops_per_min:.1}/min, \
         {hits} hits, {zero}/{} deltas at 0 nodes",
        open.len(),
        utilisation * 100.0,
        deltas.len()
    );
    r
}
