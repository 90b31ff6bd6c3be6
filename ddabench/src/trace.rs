//! The benchmark's own span recorder.
//!
//! Every workload times its calls into the library through
//! [`Tracer::time`], so an op's latency is measured the same way whether
//! tracing is on or off. With tracing on, each call also becomes a span
//! (name, layer, parent, start, duration) kept in memory; at exit the
//! spans, followed by the program's own `dda_obs` snapshot, are written
//! in the `dda-obs` JSONL trace format so that `dda_obs::read_trace`
//! parses the file.

use dda_obs::event::encode;
use dda_obs::{Event, Snapshot};
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Ids are indices into the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `core.augment`.
    pub name: &'static str,
    /// The layer (crate) the call goes into, e.g. `dda-core`.
    pub layer: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Recording thread (one tracer per thread).
    pub thread: u64,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    thread: u64,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool, thread: u64, epoch: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns span recording on or off (timing is unaffected).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, returning its result and wall-clock duration. With
    /// tracing on, also records a span; spans opened inside `f` through
    /// the tracer it is handed become its children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.on {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.stack.last().copied(),
            thread: self.thread,
            start_ns: 0,
            dur_ns: 0,
        });
        self.stack.push(id);
        let t0 = Instant::now();
        let out = f(self);
        let dur = t0.elapsed();
        self.stack.pop();
        let span = &mut self.spans[id];
        span.start_ns = nanos(t0.duration_since(self.epoch));
        span.dur_ns = nanos(dur);
        (out, dur)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-basing their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// durations of its direct children (children of one parent run on the
/// parent's thread, one after another, so they never overlap).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.layer).or_insert(0) += s.dur_ns.saturating_sub(c);
    }
    out
}

/// Writes `spans` then `snapshot` as `dda-obs` JSONL events: one
/// `bench.span` per span, then one `counter` per program counter and one
/// `span_stat` per program span aggregate.
pub fn write_trace(path: &Path, spans: &[Span], snapshot: &Snapshot) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let mut ev = Event::new("bench.span")
            .u64("id", id as u64)
            .str("name", s.name)
            .str("layer", s.layer)
            .u64("thread", s.thread)
            .u64("start_ns", s.start_ns)
            .u64("dur_ns", s.dur_ns);
        if let Some(p) = s.parent {
            ev = ev.u64("parent", p as u64);
        }
        writeln!(w, "{}", encode(&ev))?;
    }
    for (name, n) in &snapshot.counters {
        let ev = Event::new("counter")
            .str("name", name.as_str())
            .u64("n", *n);
        writeln!(w, "{}", encode(&ev))?;
    }
    for (name, st) in &snapshot.spans {
        let ev = Event::new("span_stat")
            .str("name", name.as_str())
            .u64("count", st.count)
            .u64("total_ns", st.total_ns)
            .u64("min_ns", st.min_ns)
            .u64("max_ns", st.max_ns);
        writeln!(w, "{}", encode(&ev))?;
    }
    w.flush()
}

/// Re-reads a trace written by [`write_trace`] with `dda_obs::read_trace`
/// and checks that it holds exactly the spans and counters written.
pub fn verify_trace(path: &Path, spans: usize, snapshot: &Snapshot) -> Result<(), String> {
    let events = dda_obs::read_trace(path).map_err(|e| format!("read_trace: {e}"))?;
    let n_spans = events.iter().filter(|e| e.kind == "bench.span").count();
    let n_counters = events.iter().filter(|e| e.kind == "counter").count();
    if n_spans != spans || n_counters != snapshot.counters.len() {
        return Err(format!(
            "trace holds {n_spans} spans / {n_counters} counters, wrote {spans} / {}",
            snapshot.counters.len()
        ));
    }
    Ok(())
}
