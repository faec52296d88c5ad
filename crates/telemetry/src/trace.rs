//! Sim-time event tracing.
//!
//! Events are stamped with the virtual clock ([`smartwatch_net::Ts`]) —
//! never the wall clock — so two same-seed runs emit byte-identical
//! traces. Each component (a PME, the host aggregator, the switch
//! control loop) opens its own [`TraceShard`]: a fixed-capacity ring
//! that overwrites its oldest events when full and counts every
//! overwrite, so a truncated trace is visible as a `dropped` figure
//! instead of a silent gap.
//!
//! [`Tracer::to_chrome_json`] renders the whole trace in the
//! chrome-trace-viewer format: load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev> and each shard appears as one track.

use smartwatch_net::{Dur, Ts};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Event {
    ts_ns: u64,
    /// `None` renders as an instant event, `Some` as a complete span.
    dur_ns: Option<u64>,
    name: String,
    cat: &'static str,
}

struct Shard {
    id: u32,
    name: String,
    cap: usize,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

/// Handle for one track of the trace; cheap to clone.
#[derive(Clone)]
pub struct TraceShard {
    shard: Arc<Shard>,
}

impl TraceShard {
    fn push(&self, ev: Event) {
        let mut ring = self.shard.ring.lock().unwrap();
        if ring.len() == self.shard.cap {
            ring.pop_front();
            self.shard.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Record an instantaneous event at virtual time `ts`.
    pub fn instant(&self, ts: Ts, name: impl Into<String>, cat: &'static str) {
        self.push(Event {
            ts_ns: ts.as_nanos(),
            dur_ns: None,
            name: name.into(),
            cat,
        });
    }

    /// Record a span starting at `ts` lasting `dur`.
    pub fn span(&self, ts: Ts, dur: Dur, name: impl Into<String>, cat: &'static str) {
        self.push(Event {
            ts_ns: ts.as_nanos(),
            dur_ns: Some(dur.as_nanos()),
            name: name.into(),
            cat,
        });
    }
}

struct TracerInner {
    cap_per_shard: usize,
    shards: Mutex<Vec<Arc<Shard>>>,
}

/// The whole trace: a set of shards plus the export path.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(Tracer::DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// Default per-shard ring capacity.
    pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

    /// New tracer whose shards each hold at most `cap_per_shard` events.
    pub fn new(cap_per_shard: usize) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                cap_per_shard: cap_per_shard.max(1),
                shards: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Open a named shard (one viewer track). Shard ids are assigned in
    /// registration order, so same-seed runs name tracks identically.
    pub fn shard(&self, name: impl Into<String>) -> TraceShard {
        let mut shards = self.inner.shards.lock().unwrap();
        let shard = Arc::new(Shard {
            id: shards.len() as u32,
            name: name.into(),
            cap: self.inner.cap_per_shard,
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        shards.push(shard.clone());
        TraceShard { shard }
    }

    /// Total events currently buffered across shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.ring.lock().unwrap().len())
            .sum()
    }

    /// True when no shard holds any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dropped across shards.
    pub fn total_dropped(&self) -> u64 {
        self.inner
            .shards
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Render the chrome-trace-viewer JSON document. Virtual-clock
    /// nanoseconds map to the viewer's microsecond axis with three
    /// decimals, so nothing is lost to rounding.
    pub fn to_chrome_json(&self) -> String {
        let shards = self.inner.shards.lock().unwrap();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for shard in shards.iter() {
            // Thread-name metadata event names the track.
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                shard.id,
                json_str(&shard.name)
            );
            let ring = shard.ring.lock().unwrap();
            for ev in ring.iter() {
                out.push(',');
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
                    json_str(&ev.name),
                    ev.cat,
                    if ev.dur_ns.is_some() { "X" } else { "i" },
                    micros(ev.ts_ns)
                );
                if let Some(d) = ev.dur_ns {
                    let _ = write!(out, "\"dur\":{},", micros(d));
                }
                let _ = write!(out, "\"pid\":0,\"tid\":{}}}", shard.id);
            }
        }
        let dropped = shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum::<u64>();
        let mut by_shard = String::new();
        for shard in shards.iter() {
            let d = shard.dropped.load(Ordering::Relaxed);
            if d > 0 {
                if !by_shard.is_empty() {
                    by_shard.push(',');
                }
                let _ = write!(by_shard, "{}:{d}", json_str(&shard.name));
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"virtual\",\
             \"droppedEvents\":{dropped},\"droppedByShard\":{{{by_shard}}}}}}}"
        );
        out
    }
}

/// Nanoseconds rendered on the microsecond axis: `123456` → `123.456`.
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::new(4);
        let shard = tracer.shard("pme0");
        for i in 0..10u64 {
            shard.instant(Ts::from_nanos(i), format!("e{i}"), "test");
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(shard.shard.dropped.load(Ordering::Relaxed), 6);
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"e9\""), "newest retained");
        assert!(!json.contains("\"e0\""), "oldest dropped");
        assert!(json.contains("\"droppedEvents\":6"));
        assert!(json.contains("\"droppedByShard\":{\"pme0\":6}"));
    }

    #[test]
    fn chrome_json_shape() {
        let tracer = Tracer::new(16);
        let s = tracer.shard("cme");
        s.span(Ts::from_micros(10), Dur::from_nanos(1500), "flush", "ring");
        s.instant(Ts::from_nanos(1), "evict", "cache");
        let json = tracer.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10,\"dur\":1.5"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":0.001"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn deterministic_output() {
        let build = || {
            let t = Tracer::new(8);
            let a = t.shard("a");
            let b = t.shard("b");
            a.instant(Ts::from_nanos(5), "x", "c");
            b.span(Ts::from_nanos(7), Dur::from_nanos(3), "y", "c");
            t.to_chrome_json()
        };
        assert_eq!(build(), build());
    }
}
