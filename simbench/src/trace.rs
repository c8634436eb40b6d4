//! In-memory span recorder for the traced run.
//!
//! A span is one call (or one batch of calls) into a layer's public
//! functions, timed from the benchmark's own code: name, start, end,
//! parent span, recording thread, and the operation count a batch span
//! covers. Spans stay in memory while the run measures and are written
//! out once at exit.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Small per-tracer thread index, in order of first appearance.
    pub thread: usize,
    /// Operations the span covers (1 for a single call).
    pub ops: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    threads: Vec<ThreadId>,
}

/// Thread-safe span store shared by the pool's worker threads.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no thread panics while holding the span store")
    }

    /// Runs `f` inside a span covering one operation. `f` receives the
    /// span's id so calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut g = self.lock();
            let me = std::thread::current().id();
            let thread = match g.threads.iter().position(|&t| t == me) {
                Some(i) => i,
                None => {
                    g.threads.push(me);
                    g.threads.len() - 1
                }
            };
            g.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                thread,
                ops: 1,
            });
            g.spans.len() - 1
        };
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        let mut g = self.lock();
        g.spans[id].start_ns = start;
        g.spans[id].end_ns = end;
        out
    }

    /// Runs a batch of calls as one root span; `f` returns how many
    /// operations it made, which the span records.
    pub fn batch(&self, name: &'static str, f: impl FnOnce() -> u64) {
        let (id, ops) = self.span(name, None, |id| (id, f()));
        self.lock().spans[id].ops = ops;
    }

    /// Nanoseconds per operation of the fastest span named `name`.
    pub fn best_ns_per_op(&self, name: &str) -> f64 {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name && s.ops > 0)
            .map(|s| s.ns() as f64 / s.ops as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut s = String::from("[\n");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"thread\": {}, \"ops\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.thread, sp.ops
            );
            s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        s.push(']');
        s
    }
}

/// Runs `f` inside a span when a tracer is present, and bare otherwise,
/// so the timed (untraced) runs and the traced runs share one code path.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let t = Tracer::new();
        t.span("outer", None, |outer| {
            t.span("inner", Some(outer), |_| std::hint::black_box(3 + 4));
        });
        t.batch("batch", || 4);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].ops, 4);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
