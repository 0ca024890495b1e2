//! In-memory span recording for the traced run.
//!
//! A span is one timed call the benchmark made into a library layer: its name, start and
//! end (nanoseconds since the recorder was created), the span that caused it, the request
//! it served, and the solver work counters read at the same two boundaries. Spans stay in
//! memory while the workload runs; [`Recorder::write_jsonl`] writes them out at the end.
//! Spans come only from the benchmark's own wrappers, never from inside the program.

use fedopt_core::SolveCounters;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.solve` or `baselines.scheme1`.
    pub name: String,
    /// Start, ns since the recorder's base instant.
    pub start_ns: u64,
    /// End, ns since the recorder's base instant.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request (or cell) identifier shared by the spans of one operation.
    pub req: Option<u64>,
    /// Solver work done between start and end, when the layer exposes it.
    pub counters: Option<SolveCounters>,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A thread-safe span sink.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self { base: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
        counters: Option<SolveCounters>,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
            counters,
        };
        let mut spans = self.spans.lock().expect("span recorder lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that children can name as parent; close it with [`Self::close`].
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, None, None)
    }

    /// Ends a span opened with [`Self::open`].
    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span recorder lock poisoned")[id].end_ns = end;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let counters = s.counters.map_or("null".to_string(), |c| {
                format!(
                    "{{\"outer\":{},\"jong\":{},\"kkt\":{},\"mu\":{},\"sp1_probes\":{},\
                     \"fast_path\":{},\"degraded\":{}}}",
                    c.outer_iterations,
                    c.jong_iterations,
                    c.kkt_solves,
                    c.mu_bisect_evals,
                    c.sp1_probe_evals,
                    c.sp2_fast_path_hits,
                    c.degraded_solves
                )
            });
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"req\":{},\"counters\":{counters}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Total duration of the spans named `name`, milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    named(spans, name).map(Span::us).fold(0.0, |a, b| a + b) / 1e3
}

/// Sum of the counters carried by the spans named `name`.
pub fn counters(spans: &[Span], name: &str) -> SolveCounters {
    let mut total = SolveCounters::default();
    for c in named(spans, name).filter_map(|s| s.counters) {
        total.add(&c);
    }
    total
}

/// Writes the recorder's spans to `perfbench/traces/<workload>-seed<seed>.jsonl` under
/// the working directory, reporting (not failing on) an I/O error.
pub fn save(recorder: &Recorder, workload: &str, seed: u64) {
    let path = Path::new("perfbench").join("traces").join(format!("{workload}-seed{seed}.jsonl"));
    if let Err(e) = recorder.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
