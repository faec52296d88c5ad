//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is (layer name, start, end, parent span, burst id). Spans are
//! appended to a pre-sized vector — no I/O, no formatting and no
//! allocation while timing — and written out as a chrome trace once the
//! run is over. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover; children of one parent
//! never overlap here (the walk is single-threaded), so that part is the
//! sum of the children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a span that has none.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The 64-packet burst this span belongs to; spans of one burst
    /// share it.
    pub burst: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where spans go. The walk is generic over this, so the same code runs
/// recorded ([`Recorder`]) and with every call compiled away
/// ([`NoSpans`]) — the difference between the two prices the spans.
pub trait Sink {
    /// The clock spans are stamped with, ns. Adjacent spans share a
    /// reading (one span's end is the next one's start).
    fn now(&self) -> u64;
    /// Open a span whose end is not known yet; returns its index for
    /// [`Sink::close`] and for use as a `parent`.
    fn open(&mut self, name: &'static str, parent: u32, burst: u32, start_ns: u64) -> u32 {
        self.push(name, parent, burst, start_ns, start_ns)
    }
    /// Set the end of a span opened with [`Sink::open`].
    fn close(&mut self, index: u32, end_ns: u64);
    /// Record a finished span; returns its index.
    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        burst: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32;
}

/// Keeps every span of one walk pass in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget every span, keep the allocation and restart the clock.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.origin = Instant::now();
    }
}

impl Sink for Recorder {
    /// Nanoseconds since the recorder's origin.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        burst: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            burst,
        });
        (self.spans.len() - 1) as u32
    }
}

/// The span-free sink: no clock reads, nothing recorded.
pub struct NoSpans;

impl Sink for NoSpans {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32, _: u64) {}
    #[inline(always)]
    fn push(&mut self, _: &'static str, _: u32, _: u32, _: u64, _: u64) -> u32 {
        0
    }
}

/// Total self time per layer name, nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Render spans as a chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span on a single track, nesting by time
/// containment, with the burst id and the parent index as arguments.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 110 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"burst\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.burst,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut r = Recorder::with_capacity(8);
        // burst [0,100) ⊃ cache [10,40) ⊃ probe [15,25); suite [40,90).
        let burst = r.push("burst", ROOT, 0, 0, 100);
        let cache = r.push("cache", burst, 0, 10, 40);
        r.push("probe", cache, 0, 15, 25);
        r.push("suite", burst, 0, 40, 90);
        // A second burst adds to the same names.
        let burst2 = r.push("burst", ROOT, 1, 100, 150);
        r.push("cache", burst2, 1, 100, 130);
        let t = self_times(r.spans());
        assert_eq!(t["burst"], (100 - 30 - 50) + (50 - 30));
        assert_eq!(t["cache"], (30 - 10) + 30);
        assert_eq!(t["probe"], 10);
        assert_eq!(t["suite"], 50);
        // Self times partition the root spans' wall time exactly.
        assert_eq!(t.values().sum::<u64>(), 150);
    }

    #[test]
    fn open_close_and_clear() {
        let mut r = Recorder::with_capacity(2);
        let i = r.open("burst", ROOT, 7, 5);
        r.close(i, 9);
        assert_eq!(
            r.spans()[0],
            Span {
                name: "burst",
                start_ns: 5,
                end_ns: 9,
                parent: ROOT,
                burst: 7
            }
        );
        r.clear();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut r = Recorder::with_capacity(2);
        let b = r.push("burst", ROOT, 3, 1_000, 5_000);
        r.push("snic.flowcache", b, 3, 1_500, 2_500);
        let doc: serde_json::Value = serde_json::from_str(&chrome_trace(r.spans())).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("snic.flowcache")
        );
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_i64(), Some(0));
        assert_eq!(args.get("burst").unwrap().as_u64(), Some(3));
    }
}
