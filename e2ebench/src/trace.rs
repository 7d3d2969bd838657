//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into the omen
//! crates (nothing inside the program is instrumented), kept in memory
//! and written as JSON lines when the run ends. Each span carries its
//! name, start, end, parent and the run id; on single-threaded tracers it
//! also carries the exact `omen-linalg` flop-counter delta.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Thread (rank) the span ran on.
    pub thread: usize,
    /// Flops counted while the span was open; `None` where other threads
    /// share the process-global counter and the delta is not this span's.
    pub flops: Option<u64>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A span stack plus named counters.
pub struct Tracer {
    origin: Instant,
    thread: usize,
    count_flops: bool,
    pub spans: Vec<Span>,
    stack: Vec<(usize, u64)>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose spans count flops (use only where no other thread
    /// runs kernels at the same time).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            thread: 0,
            count_flops: true,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A tracer for one of several concurrent threads: no flop deltas.
    pub fn for_thread(origin: Instant, thread: usize) -> Tracer {
        Tracer {
            thread,
            count_flops: false,
            ..Tracer::new(origin)
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().map(|&(p, _)| p),
            thread: self.thread,
            flops: None,
        });
        self.stack.push((id, omen_linalg::flop_count()));
        let out = f(self);
        let (id, f0) = self.stack.pop().expect("span stack is balanced");
        let end = self.now();
        let s = &mut self.spans[id];
        s.end = end;
        if self.count_flops {
            s.flops = Some(omen_linalg::flop_count().wrapping_sub(f0));
        }
        out
    }

    /// Records a span from timestamps taken elsewhere (e.g. on another
    /// thread); returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            thread: self.thread,
            flops: None,
        });
        self.spans.len() - 1
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Appends another tracer's spans (re-parented into this one's ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            self.count(k, v);
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    /// Σ self time of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Σ inclusive time of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Σ counted flops of the spans named `name`.
    pub fn flops(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.flops)
            .sum()
    }

    /// Share of the root spans' wall time that their leaf spans account
    /// for: 1.0 when the layers add up to the measured whole.
    pub fn coverage(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let root: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum();
        let leaves: f64 = self
            .spans
            .iter()
            .zip(&has_child)
            .filter(|(s, &c)| !c && s.parent.is_some())
            .map(|(s, _)| s.dur())
            .sum();
        leaves / root
    }

    /// Writes every span as one JSON line tagged with `run`.
    pub fn write_jsonl(&self, path: &Path, run: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let flops = s.flops.map_or("null".to_string(), |f| f.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"thread\":{},\"start_s\":{:.9},\"end_s\":{:.9},\"flops\":{flops}}}",
                s.name, s.thread, s.start, s.end
            )?;
        }
        out.flush()
    }
}
