//! The benchmark's own tracing: spans recorded around the calls the
//! benchmark makes into each layer's public functions, and a counting
//! allocator. Nothing inside the program is instrumented; the untraced
//! run records no spans and leaves the allocator counter disarmed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator plus a byte counter that only counts while armed.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with the allocation counter armed; returns its result and the
/// bytes allocated meanwhile (by any thread).
pub fn count_alloc<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, BYTES.load(Ordering::Relaxed) - before)
}

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    dur: Duration,
}

/// An in-memory span tree: name, duration and causing span of every
/// timed call, kept until the run ends.
#[derive(Default)]
pub struct Spans {
    spans: Vec<SpanRec>,
    open: Vec<(usize, Instant)>,
}

impl Spans {
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(SpanRec {
            name,
            parent,
            dur: Duration::ZERO,
        });
        self.open.push((self.spans.len() - 1, Instant::now()));
    }

    pub fn exit(&mut self) {
        let (i, start) = self.open.pop().expect("exit without a matching enter");
        self.spans[i].dur = start.elapsed();
    }

    /// Times `f` as one span under the currently open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a span measured elsewhere (on a worker thread) under the
    /// currently open span.
    pub fn add(&mut self, name: &'static str, dur: Duration) {
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(SpanRec { name, parent, dur });
    }

    /// Appends another (closed) span tree, such as a client thread's,
    /// with its roots under the currently open span.
    pub fn merge(&mut self, other: Spans) {
        let (base, root) = (self.spans.len(), self.open.last().map(|&(i, _)| i));
        self.spans.extend(other.spans.into_iter().map(|s| SpanRec {
            parent: s.parent.map(|p| p + base).or(root),
            ..s
        }));
    }

    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per name: (calls, total, self time = total minus time covered by
    /// child spans).
    pub fn table(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur;
            e.2 += s.dur.saturating_sub(c);
        }
        out
    }

    /// The span table as text, for standard error.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, own)) in self.table() {
            out.push_str(&format!(
                "{name:<28} {calls:>8} {:>12.3} {:>12.3}\n",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.enter("cell");
        s.add("train", Duration::from_millis(3));
        s.add("infer", Duration::from_millis(2));
        s.exit();
        let t = s.table();
        let (calls, total, own) = t["cell"];
        assert_eq!(calls, 1);
        assert_eq!(own, total.saturating_sub(Duration::from_millis(5)));
        assert_eq!(s.total("train"), Duration::from_millis(3));
        assert_eq!(s.calls("infer"), 1);
    }

    #[test]
    fn merged_spans_keep_their_parents() {
        let mut client = Spans::default();
        client.enter("request");
        client.add("parse", Duration::from_millis(1));
        client.exit();
        let mut s = Spans::default();
        s.add("setup", Duration::from_millis(4));
        s.merge(client);
        let t = s.table();
        assert_eq!(t["request"].0, 1);
        assert_eq!(
            t["request"].2,
            t["request"].1.saturating_sub(Duration::from_millis(1))
        );
        assert_eq!(t["setup"].2, Duration::from_millis(4));
    }
}
