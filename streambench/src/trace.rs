//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, calls)`: `calls` is how many
//! identical calls the span covers, so sub-microsecond calls (a snapshot
//! load, one ranked lookup) are timed as one span over a batch instead
//! of paying a clock read per call. Spans live in a thread-local vector
//! on the recording thread and are written out once, when the run ends.
//! With recording off, [`span`] is one thread-local flag read plus the
//! call itself.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identical calls covered by this span.
    pub calls: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Duration of one covered call in nanoseconds.
    pub fn ns_per_call(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / self.calls.max(1) as f64
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the spans that start from now on.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name` covering one call.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_n(name, 1, f)
}

/// Runs `f` inside a span named `name` covering `calls` identical calls.
pub fn span_n<R>(name: &'static str, calls: u32, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let span = Span {
            name,
            start_ns: r.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            calls,
        };
        r.spans.push(span);
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[id].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Writes `spans` as JSON lines: one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
            s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per-call durations (ns) of every span named `name`.
pub fn ns_per_call(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns_per_call)
        .collect()
}

/// Sums (ms) of the spans named `name`, one sum per distinct parent
/// span — e.g. a whole counting pass made of one span per tail.
pub fn sums_by_parent_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut sums: Vec<(Option<usize>, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match sums.iter_mut().find(|(p, _)| *p == s.parent) {
            Some((_, total)) => *total += s.ms(),
            None => sums.push((s.parent, s.ms())),
        }
    }
    sums.into_iter().map(|(_, t)| t).collect()
}
