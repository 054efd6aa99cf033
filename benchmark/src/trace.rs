//! In-memory spans recorded from the benchmark's own files, around calls
//! into the library's public functions. All spans come from the writer
//! thread (the reader thread of `serve_mixed` keeps plain counters), so
//! the recorder is a thread-local: the backend decorator in `surface.rs`
//! and the workload loops reach it without threading a handle through the
//! library's types.
//!
//! With tracing off `enter` is one flag test; the end-to-end runs pay that
//! and nothing else.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` is the id of the enclosing span (0 = none;
/// ids start at 1); `firing` ties the spans of one refresh together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub firing: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    firing: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        firing: 0,
    });
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    RECORDER.with_borrow_mut(|r| r.on = on);
}

pub fn enabled() -> bool {
    RECORDER.with_borrow(|r| r.on)
}

/// Tags every span opened from now on with refresh number `firing`.
pub fn set_firing(firing: u64) {
    RECORDER.with_borrow_mut(|r| r.firing = firing);
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard drops"]
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with_borrow_mut(|r| {
        if !r.on {
            return Guard(None);
        }
        let id = r.spans.len() as u32 + 1;
        let now = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            id,
            parent: r.open.last().copied().unwrap_or(0),
            name,
            start_ns: now,
            end_ns: now,
            firing: r.firing,
        });
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with_borrow_mut(|r| {
            let now = r.origin.elapsed().as_nanos() as u64;
            r.spans[id as usize - 1].end_ns = now;
            // Guards drop in LIFO order; tolerate an early drop of an outer
            // guard by closing everything above it too.
            while let Some(top) = r.open.pop() {
                if top == id {
                    break;
                }
            }
        });
    }
}

/// Runs `f` inside a span and returns its result.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = enter(name);
    f()
}

/// Drains every span recorded so far on this thread.
pub fn take_spans() -> Vec<Span> {
    RECORDER.with_borrow_mut(|r| {
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by direct children.
    pub self_ns: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Profile(BTreeMap<&'static str, Total>);

impl Profile {
    /// A span's self time is its duration minus the part of that interval
    /// its child spans cover. Children are recorded from one thread, so
    /// siblings never overlap and the covered part is the plain sum.
    pub fn from_spans(spans: &[Span]) -> Profile {
        let mut child_ns = vec![0u64; spans.len() + 1];
        for s in spans {
            child_ns[s.parent as usize] += s.duration_ns();
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for s in spans {
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
        }
        Profile(totals)
    }

    pub fn get(&self, name: &str) -> Total {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Total milliseconds under `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64 / 1e6
    }

    /// Self milliseconds under `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / 1e6
    }

    /// Mean microseconds per span under `name` (0 when none was recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / 1e3 / t.count as f64
        }
    }
}

/// The trace file: every span as `{id, parent, name, start_ns, end_ns, firing}`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", u64::from(s.id))
                    .with("parent", u64::from(s.parent))
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("firing", s.firing)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            firing: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // ingest[0,100] ⊃ fire_trigger[10,90] ⊃ apply_stage[20,40] + apply_stage[50,80]
        let spans = [
            sp(1, 0, "ingest", 0, 100),
            sp(2, 1, "fire_trigger", 10, 90),
            sp(3, 2, "apply_stage", 20, 40),
            sp(4, 2, "apply_stage", 50, 80),
            sp(5, 0, "ingest", 100, 130),
        ];
        let p = Profile::from_spans(&spans);
        assert_eq!(
            p.get("ingest"),
            Total {
                count: 2,
                total_ns: 130,
                self_ns: 20 + 30
            }
        );
        // Grandchildren do not count against the grandparent twice.
        assert_eq!(p.get("fire_trigger").self_ns, 80 - 20 - 30);
        assert_eq!(p.get("apply_stage").total_ns, 50);
        assert_eq!(p.get("apply_stage").self_ns, 50);
        assert_eq!(p.get("absent"), Total::default());
        assert_eq!(p.mean_us("apply_stage"), 0.025);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_off() {
        assert!(take_spans().is_empty());
        span("ignored", || ());
        assert!(take_spans().is_empty());

        set_enabled(true);
        set_firing(7);
        span("outer", || {
            span("inner", || ());
            span("inner", || ());
        });
        set_enabled(false);
        span("ignored", || ());
        let spans = take_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.firing)).collect();
        assert_eq!(names, [("outer", 0, 7), ("inner", 1, 7), ("inner", 1, 7)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let p = Profile::from_spans(&spans);
        assert!(p.get("outer").self_ns <= p.get("outer").total_ns);
    }
}
