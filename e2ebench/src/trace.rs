//! Wall-clock spans recorded by the benchmark around each call into a
//! layer (and from observer timestamps inside a solve), kept in memory and
//! written out when the run ends.

use ndp_milp::{Observer, ObserverHandle, SolverEvent};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One span: a layer's work for one op.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// The run's spans; a span's `parent` indexes `spans`.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals: spans seen, summed duration and summed self time.
pub struct LayerRow {
    pub name: &'static str,
    pub spans: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a span and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { name, op, parent, start, end });
        self.spans.len() - 1
    }

    /// Closes span `i` at `end` (for a span opened before its end is known).
    pub fn set_end(&mut self, i: usize, end: Instant) {
        self.spans[i].end = end;
    }

    /// The latest span named `name` of op `op`.
    pub fn find_last(&self, name: &str, op: u64) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name && s.op == op)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records the spans between consecutive marks under `parent`: mark
    /// `i` opens a span named after it that ends at mark `i + 1`, the last
    /// one at `end`.
    pub fn push_marks(
        &mut self,
        op: u64,
        parent: usize,
        marks: &[(Instant, &'static str)],
        end: Instant,
    ) {
        for (i, &(start, name)) in marks.iter().enumerate() {
            let stop = marks.get(i + 1).map_or(end, |m| m.0);
            self.push(name, op, Some(parent), start, stop);
        }
    }

    /// Totals and self time (duration minus the child spans) per name, in
    /// first-seen order.
    pub fn layers(&self) -> Vec<LayerRow> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut rows: Vec<LayerRow> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let pos = match rows.iter().position(|r| r.name == s.name) {
                Some(p) => p,
                None => {
                    rows.push(LayerRow { name: s.name, spans: 0, total_ms: 0.0, self_ms: 0.0 });
                    rows.len() - 1
                }
            };
            let row = &mut rows[pos];
            row.spans += 1;
            row.total_ms += s.ms();
            row.self_ms += (s.ms() - child_ms[i]).max(0.0);
        }
        rows
    }

    /// Summed duration of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
    }

    /// Writes one JSON object per span: name, start and end in ms since
    /// the run began, parent index and op id.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e3;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ms\":{:.4},\"end_ms\":{:.4}}}",
                s.name,
                s.op,
                at(s.start),
                at(s.end)
            )?;
        }
        out.flush()
    }

    /// Prints the per-layer table: spans, total, self time and mean per op.
    pub fn print_table(&self, ops: usize) {
        eprintln!(
            "{:<22} {:>7} {:>12} {:>12} {:>12}",
            "layer", "spans", "total_ms", "self_ms", "ms/op"
        );
        for r in self.layers() {
            eprintln!(
                "{:<22} {:>7} {:>12.2} {:>12.2} {:>12.3}",
                r.name,
                r.spans,
                r.total_ms,
                r.self_ms,
                r.total_ms / ops.max(1) as f64
            );
        }
    }
}

/// Timestamps of the solver events that bound the `milp` and heuristic
/// spans, taken inside the observer closure, which ignores every per-node
/// event so that it stays cheap on the hot search path.
#[derive(Default)]
pub struct Marks {
    inner: Mutex<Vec<(Instant, &'static str)>>,
}

impl Marks {
    /// A fresh log and the observer that fills it.
    pub fn observer() -> (Arc<Marks>, ObserverHandle) {
        let marks = Arc::new(Marks::default());
        let sink = Arc::clone(&marks);
        let observer: Arc<dyn Observer> = Arc::new(move |e: &SolverEvent| sink.record(e));
        (marks, ObserverHandle::new(observer))
    }

    fn record(&self, e: &SolverEvent) {
        let name = match e {
            SolverEvent::Phase { name } => match *name {
                "phase1" => "core.phase1",
                "phase2" => "core.phase2",
                "phase3" => "core.phase3",
                "assemble" => "core.assemble",
                _ => return,
            },
            SolverEvent::RootRelaxation { .. } => "milp.root_done",
            SolverEvent::CutRound { .. } => "milp.cut_round",
            SolverEvent::Terminated { .. } => "milp.terminated",
            _ => return,
        };
        let now = Instant::now();
        self.inner.lock().expect("mark log lock poisoned").push((now, name));
    }

    /// Takes the recorded marks, leaving the log empty.
    pub fn take(&self) -> Vec<(Instant, &'static str)> {
        std::mem::take(&mut *self.inner.lock().expect("mark log lock poisoned"))
    }
}

/// Splits a solve `[start, end]` by its marks, in the order this solver
/// emits them: `milp.cuts` (call to the last `CutRound`: the root LP and
/// the cutting-plane rounds), `milp.root` (to `RootRelaxation`, which the
/// search emits when it evaluates the root node: the root primal
/// heuristics' dives and RENS/RINS sub-MILPs, then the root node LP) and
/// `milp.tree` (to `Terminated`: branching, with its strong-branching
/// probes, and every further node). A missing mark gives a zero-length
/// span; the rest of `[start, end]` is the solve span's self time.
pub fn push_solve_spans(
    trace: &mut Trace,
    op: u64,
    parent: usize,
    marks: &[(Instant, &'static str)],
    start: Instant,
    end: Instant,
) {
    let first = |name: &str| marks.iter().find(|m| m.1 == name).map(|m| m.0);
    let last = |name: &str| marks.iter().rev().find(|m| m.1 == name).map(|m| m.0);
    let cuts = last("milp.cut_round").unwrap_or(start);
    let root = first("milp.root_done").unwrap_or(cuts).max(cuts);
    let done = last("milp.terminated").unwrap_or(end).max(root);
    trace.push("milp.cuts", op, Some(parent), start, cuts);
    trace.push("milp.root", op, Some(parent), cuts, root);
    trace.push("milp.tree", op, Some(parent), root, done);
}

/// Mean of `total / ops`, 0 without ops.
pub fn per_op(total: f64, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// Named per-layer values for the result line.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
