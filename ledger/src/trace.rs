//! In-memory span recorder for the traced run.
//!
//! Every operation (one query, one enumeration, one request) is a root
//! span named [`OP`]; the calls the ledger makes into a layer's public
//! functions are its children, named after the layer. Nothing under
//! `crates/` carries a timer: all spans are taken from outside.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const OP: &str = "op";
const ROOT: u32 = u32::MAX;
/// Spans written to the trace file; the rest stay counted in memory.
const FILE_SPAN_CAP: usize = 100_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for an operation root.
    pub parent: u32,
    /// Operation number: shared by every span of one query/request.
    pub request: u32,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

/// Count and summed self time of the spans sharing one name.
#[derive(Default, Clone, Copy)]
pub struct Busy {
    pub count: u64,
    pub self_ns: u64,
}

/// What a finished trace says per layer.
pub struct Summary {
    pub busy: BTreeMap<&'static str, Busy>,
    pub wall_ns: u64,
}

impl Summary {
    /// Mean self time of `name` in microseconds, 0 when it never ran.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, |b| b.self_ns as f64 / b.count.max(1) as f64 / 1e3)
    }

    /// Share of the traced wall spent in spans whose name starts with
    /// `prefix`.
    pub fn busy_frac(&self, prefix: &str) -> f64 {
        let ns: u64 = self.busy.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, b)| b.self_ns).sum();
        ns as f64 / self.wall_ns.max(1) as f64
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::with_epoch(Instant::now())
    }

    /// A tracer whose clock starts at `t0`: tracers of concurrent
    /// clients share one epoch so [`Tracer::absorb`] keeps their spans
    /// on one time line.
    pub fn with_epoch(t0: Instant) -> Self {
        Tracer { t0, spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Appends another thread's finished spans, renumbering its parent
    /// links and operation numbers past this tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracers have no open span");
        let (base, requests) = (self.spans.len() as u32, self.request);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: if s.parent == ROOT { ROOT } else { s.parent + base },
            request: s.request + requests,
            ..s
        }));
        self.request += other.request;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; a span opened with
    /// nothing open starts a new operation.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        if parent == ROOT {
            self.request += 1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as one child span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus its children's,
    /// with the summed duration of the operation roots (the traced wall).
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut wall_ns = 0;
        for s in &self.spans {
            match s.parent {
                ROOT => wall_ns += s.end_ns - s.start_ns,
                p => child_ns[p as usize] += s.end_ns - s.start_ns,
            }
        }
        let mut busy: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let b = busy.entry(s.name).or_default();
            b.count += 1;
            b.self_ns += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        Summary { busy, wall_ns }
    }

    /// Every span has a parent that exists and encloses it, or is a root.
    pub fn well_formed(&self) -> bool {
        self.stack.is_empty()
            && self.spans.iter().enumerate().all(|(i, s)| {
                s.parent == ROOT || {
                    let p = &self.spans[s.parent as usize];
                    (s.parent as usize) < i && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
                }
            })
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(FILE_SPAN_CAP);
        write!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \"spans_written\": {written}, \"spans\": [",
            self.spans.len()
        )?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            write!(
                w,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let op = t.open(OP);
        t.span("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("b", || std::thread::sleep(std::time::Duration::from_millis(1)));
        t.close(op);
        let Summary { busy, wall_ns } = t.summary();
        let total: u64 = busy.values().map(|b| b.self_ns).sum();
        assert_eq!(total, wall_ns, "self times partition the operation");
        assert!(busy["a"].self_ns >= 2_000_000 && busy["b"].self_ns >= 1_000_000);
        assert!(busy[OP].self_ns < busy["b"].self_ns, "the root keeps only the gaps");
        assert!(t.well_formed());
        assert_eq!(t.spans()[1].request, t.spans()[0].request);
    }

    #[test]
    fn each_root_starts_a_new_operation() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            let op = t.open(OP);
            t.span("x", || ());
            t.close(op);
        }
        let reqs: Vec<u32> = t.spans().iter().filter(|s| s.name == OP).map(|s| s.request).collect();
        assert_eq!(reqs, vec![1, 2, 3]);
        let sum = t.summary();
        assert!((sum.busy_frac("x") + sum.busy_frac(OP) - 1.0).abs() < 1e-9);
    }
}
