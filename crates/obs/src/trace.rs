//! Structured tracing: nested RAII spans recorded into per-thread
//! buffers and drained through a process-global recorder.
//!
//! The recorder is a guaranteed-cheap no-op while disabled: opening a
//! span costs one relaxed atomic load and constructs nothing. It is
//! enabled by the `GAS_TRACE=1` environment variable (read once, at
//! first use) or programmatically via [`set_enabled`] (the
//! `IndexOptions::with_tracing` path).
//!
//! Each thread buffers its own closed spans and flushes them to the
//! global recorder whenever its *root* span closes (so signer, sealer,
//! compactor and simulated-rank threads publish complete trees), plus
//! once more when the thread exits. [`take_events`] drains everything
//! flushed so far.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span: where it ran, where it sat in the tree, and how
/// long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Process-unique id of the recording thread.
    pub thread: u64,
    /// Coarse phase tag (`"serve"`, `"commit"`, `"compact"`, `"dist"`,
    /// `"collective"`, ...).
    pub phase: &'static str,
    /// Span name (`"probe"`, `"seal"`, `"allgatherv"`, ...).
    pub name: &'static str,
    /// Semicolon-joined path from the thread's root span to this one
    /// (folded-stacks convention), e.g. `"query_page;probe"`.
    pub stack: String,
    /// Nesting depth (0 = root span of its thread).
    pub depth: u32,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric annotations attached via [`Span::annotate`]
    /// (e.g. `("predicted_us", 12.5)`).
    pub attrs: Vec<(&'static str, f64)>,
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(std::env::var("GAS_TRACE").is_ok_and(|v| v == "1")),
        epoch: Instant::now(),
        events: Mutex::new(Vec::new()),
    })
}

/// Is the recorder currently enabled? One relaxed atomic load — this is
/// the entire cost of a span on the disabled path.
#[inline]
pub fn trace_enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Enable or disable the recorder process-wide. Spans already open keep
/// recording; spans opened after a disable are inert.
pub fn set_enabled(enabled: bool) {
    recorder().enabled.store(enabled, Ordering::Relaxed);
}

/// Drain every event flushed to the global recorder so far, flushing the
/// calling thread's buffer first. Events appear in close order within
/// each flush (children before parents).
pub fn take_events() -> Vec<TraceEvent> {
    LOCAL.with(|tt| flush(&mut tt.borrow_mut().buf));
    std::mem::take(&mut *recorder().events.lock().expect("trace recorder poisoned"))
}

/// Drop everything flushed so far (and the calling thread's buffer).
pub fn clear() {
    LOCAL.with(|tt| tt.borrow_mut().buf.clear());
    recorder().events.lock().expect("trace recorder poisoned").clear();
}

fn flush(buf: &mut Vec<TraceEvent>) {
    if buf.is_empty() {
        return;
    }
    recorder().events.lock().expect("trace recorder poisoned").append(buf);
}

struct ThreadTrace {
    id: u64,
    /// Names of the currently-open spans, root first.
    stack: Vec<&'static str>,
    /// Closed spans awaiting a root-close (or thread-exit) flush.
    buf: Vec<TraceEvent>,
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        flush(&mut self.buf);
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        RefCell::new(ThreadTrace {
            id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            buf: Vec::new(),
        })
    };
}

/// An open span. Created by [`span`]; records a [`TraceEvent`] when
/// dropped. When the recorder is disabled the span is inert and
/// allocation-free.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    phase: &'static str,
    name: &'static str,
    stack: String,
    depth: u32,
    start: Instant,
    attrs: Vec<(&'static str, f64)>,
}

/// Open a span named `name` under phase tag `phase`. Nesting follows
/// RAII drop order on the calling thread.
#[inline]
pub fn span(phase: &'static str, name: &'static str) -> Span {
    if !trace_enabled() {
        return Span { inner: None };
    }
    let (stack, depth) = LOCAL.with(|tt| {
        let mut tt = tt.borrow_mut();
        let depth = tt.stack.len() as u32;
        tt.stack.push(name);
        let mut stack = String::with_capacity(tt.stack.iter().map(|s| s.len() + 1).sum());
        for (i, part) in tt.stack.iter().enumerate() {
            if i > 0 {
                stack.push(';');
            }
            stack.push_str(part);
        }
        (stack, depth)
    });
    Span {
        inner: Some(SpanInner {
            phase,
            name,
            stack,
            depth,
            start: Instant::now(),
            attrs: Vec::new(),
        }),
    }
}

impl Span {
    /// Attach a numeric annotation (no-op on an inert span).
    pub fn annotate(&mut self, key: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, value));
        }
    }

    /// Is this span actually recording?
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur_ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let start_ns =
            inner.start.duration_since(recorder().epoch).as_nanos().min(u64::MAX as u128) as u64;
        LOCAL.with(|tt| {
            let mut tt = tt.borrow_mut();
            // Pop this span's name; stray pops can only happen if a Span
            // was sent across threads, which the API does not offer.
            tt.stack.pop();
            let event = TraceEvent {
                thread: tt.id,
                phase: inner.phase,
                name: inner.name,
                stack: inner.stack,
                depth: inner.depth,
                start_ns,
                dur_ns,
                attrs: inner.attrs,
            };
            tt.buf.push(event);
            if tt.stack.is_empty() {
                flush(&mut tt.buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so every test in this module runs
    // under one lock and leaves the recorder disabled and drained.
    fn serialized<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        let out = f();
        set_enabled(false);
        clear();
        out
    }

    #[test]
    fn disabled_spans_are_inert() {
        serialized(|| {
            set_enabled(false);
            let mut s = span("serve", "noop");
            assert!(!s.is_recording());
            s.annotate("x", 1.0);
            drop(s);
            assert!(take_events().is_empty());
        });
    }

    #[test]
    fn nested_spans_record_stacks_depths_and_containment() {
        let events = serialized(|| {
            {
                let _root = span("serve", "request");
                {
                    let _probe = span("serve", "probe");
                }
                {
                    let mut score = span("serve", "score");
                    score.annotate("candidates", 42.0);
                }
            }
            take_events()
        });
        assert_eq!(events.len(), 3);
        // Children close first; the root closes last.
        assert_eq!(events[0].stack, "request;probe");
        assert_eq!(events[1].stack, "request;score");
        assert_eq!(events[2].stack, "request");
        assert_eq!(events[2].depth, 0);
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].attrs, vec![("candidates", 42.0)]);
        let root = &events[2];
        for child in &events[..2] {
            assert!(child.start_ns >= root.start_ns, "child starts inside its parent");
            assert!(
                child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns,
                "child ends inside its parent"
            );
        }
        assert!(
            events[0].dur_ns + events[1].dur_ns <= root.dur_ns,
            "sibling durations fit inside the parent"
        );
    }

    #[test]
    fn spans_from_other_threads_flush_on_root_close() {
        let events = serialized(|| {
            std::thread::spawn(|| {
                let _s = span("commit", "sign");
            })
            .join()
            .expect("worker thread");
            take_events()
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "sign");
        assert_eq!(events[0].phase, "commit");
    }
}
