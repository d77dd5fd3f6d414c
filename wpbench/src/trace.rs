//! In-memory span recording for the traced run.
//!
//! Spans are recorded here, in the benchmark, around each call into a
//! pgvn layer — never inside the program. Each thread owns one
//! [`Tracer`]; spans stay in its vector until the run ends, when the
//! self times are folded per layer and the last pass is written out as
//! JSONL.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `lang.parse`.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// The routine (or request / iteration) the span belongs to.
    pub routine: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The routine id stamped on spans opened from now on.
    pub routine: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::with_capacity(1 << 14), stack: Vec::new(), routine: 0 }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, routine: self.routine });
        self.stack.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }
}

/// A span that may be off: the untraced composition passes `None` and
/// pays nothing but a branch.
pub fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time (span duration minus its direct children) summed per span
/// name, plus the summed duration of root spans.
#[derive(Clone, Debug, Default)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, u64>,
    pub roots: u64,
}

impl SelfTimes {
    pub fn add_spans(&mut self, spans: &[Span]) {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur();
            } else {
                self.roots += s.dur();
            }
        }
        for (s, c) in spans.iter().zip(child) {
            *self.by_name.entry(s.name).or_default() += s.dur().saturating_sub(c);
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// Self time summed over every span whose name starts with `layer.`.
    pub fn layer(&self, layer: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Writes spans as JSONL, one object per span, `thread` naming the
/// tracer they came from.
pub fn write_spans(path: &str, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"thread\":{t},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"routine\":{}}}",
                s.name, s.start, s.end, s.routine
            )?;
        }
    }
    out.flush()
}
