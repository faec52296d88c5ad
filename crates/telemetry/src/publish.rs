//! The one way a component's books meet a [`Registry`]: a [`Publisher`]
//! over a name table.
//!
//! A component counts in plain integers and holds no metric handle. Its
//! name table — `(metric name, fn(&Books) -> reading)` rows, plain data
//! the component's crate can spell without depending on this one — says
//! which reading each metric carries. Whoever owns the component holds a
//! publisher built from that table beside it, and calls
//! [`Publisher::publish`] at a boundary it already has (an engine shard's
//! batch, a controller epoch, a monitoring interval, the end of a run).
//! Live readers are at most one such boundary stale; final values are
//! exact.
//!
//! A counter cell adds what its tally gained since the last publish, so
//! the first publish carries over whatever the books counted before the
//! publisher existed, and tallies must be cumulative for the books'
//! life. Several publishers may feed one cell (every shard of an engine
//! shares one policy label): their differences simply sum. A gauge cell
//! is either set to its reading or, for a peak several owners share,
//! raised to it and never lowered. A cell whose reading did not move
//! costs no write to its (possibly shared) cell, and a publish walks
//! arrays built once: it allocates nothing.

use crate::metrics::{Counter, Gauge, Registry};

/// Reads one cumulative count out of the books `B`.
pub type Tally<B> = fn(&B) -> u64;

/// Reads one level (size, ratio, mode code) out of the books `B`.
pub type Level<B> = fn(&B) -> f64;

/// Publishes one component's books `B` into a [`Registry`], under the
/// labels it was built with.
pub struct Publisher<B> {
    registry: Registry,
    labels: Vec<(String, String)>,
    /// Each counter cell, its tally and what it has been given so far.
    counters: Vec<(Counter, Tally<B>, u64)>,
    /// Each gauge cell, its level and whether it only ever rises.
    gauges: Vec<(Gauge, Level<B>, bool)>,
}

impl<B> Publisher<B> {
    /// A publisher with no cells yet, registering under `labels` in
    /// `registry`. Nothing is added until the first publish.
    pub fn new(registry: &Registry, labels: &[(&str, &str)]) -> Publisher<B> {
        Publisher {
            registry: registry.clone(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            counters: Vec::new(),
            gauges: Vec::new(),
        }
    }

    fn labels(&self) -> Vec<(&str, &str)> {
        self.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    /// Register one counter cell per row of `table`.
    pub fn counters(mut self, table: &[(&str, Tally<B>)]) -> Publisher<B> {
        let labels = self.labels();
        let cells: Vec<_> = table
            .iter()
            .map(|&(name, tally)| (self.registry.counter(name, &labels), tally, 0))
            .collect();
        self.counters.extend(cells);
        self
    }

    /// Register one gauge cell per row of `table`, set to its reading at
    /// each publish.
    pub fn gauges(self, table: &[(&str, Level<B>)]) -> Publisher<B> {
        self.with_gauges(table, false)
    }

    /// Register one gauge cell per row of `table`, raised to its reading
    /// at each publish and never lowered.
    pub fn peaks(self, table: &[(&str, Level<B>)]) -> Publisher<B> {
        self.with_gauges(table, true)
    }

    fn with_gauges(mut self, table: &[(&str, Level<B>)], peak: bool) -> Publisher<B> {
        let labels = self.labels();
        let cells: Vec<_> = table
            .iter()
            .map(|&(name, level)| (self.registry.gauge(name, &labels), level, peak))
            .collect();
        self.gauges.extend(cells);
        self
    }

    /// One publisher over the cells of both: for books whose families
    /// carry different labels.
    pub fn join(mut self, other: Publisher<B>) -> Publisher<B> {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self
    }

    /// Bring every cell up to `books`: add each tally's gain since the
    /// last publish, set (or raise) each gauge to its level.
    pub fn publish(&mut self, books: &B) {
        for (cell, tally, published) in &mut self.counters {
            let now = tally(books);
            if now != *published {
                cell.add(now - *published);
                *published = now;
            }
        }
        for (cell, level, peak) in &self.gauges {
            let now = level(books);
            if *peak {
                cell.set_max(now);
            } else if cell.get() != now {
                cell.set(now);
            }
        }
    }
}

impl<B> std::fmt::Debug for Publisher<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("labels", &self.labels)
            .field("counters", &self.counters.len())
            .field("gauges", &self.gauges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component's books: two tallies and a level.
    #[derive(Default)]
    struct Books {
        hits: u64,
        misses: u64,
        depth: usize,
    }

    const COUNTERS: [(&str, Tally<Books>); 2] =
        [("t.hits", |b| b.hits), ("t.misses", |b| b.misses)];
    const GAUGES: [(&str, Level<Books>); 1] = [("t.depth", |b| b.depth as f64)];
    const PEAKS: [(&str, Level<Books>); 1] = [("t.depth_peak", |b| b.depth as f64)];

    fn publisher(reg: &Registry, labels: &[(&str, &str)]) -> Publisher<Books> {
        Publisher::new(reg, labels)
            .counters(&COUNTERS)
            .gauges(&GAUGES)
            .peaks(&PEAKS)
    }

    #[test]
    fn cells_are_registered_before_the_first_publish() {
        let reg = Registry::new();
        let _p = publisher(&reg, &[("agg", "a")]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.hits{agg=a}"), Some(0));
        assert_eq!(snap.gauge("t.depth{agg=a}"), Some(0.0));
        assert_eq!(snap.gauge("t.depth_peak{agg=a}"), Some(0.0));
    }

    #[test]
    fn the_first_publish_carries_over_and_later_ones_add_the_difference() {
        let reg = Registry::new();
        let mut books = Books {
            hits: 5,
            misses: 2,
            depth: 7,
        };
        let mut p = publisher(&reg, &[]);
        p.publish(&books);
        p.publish(&books);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.hits"), Some(5), "carried over, once");
        assert_eq!(snap.counter("t.misses"), Some(2));
        books.hits += 3;
        books.depth = 1;
        p.publish(&books);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.hits"), Some(8));
        assert_eq!(snap.gauge("t.depth"), Some(1.0), "a gauge is set");
        assert_eq!(snap.gauge("t.depth_peak"), Some(7.0), "a peak never falls");
    }

    #[test]
    fn publishers_of_one_label_set_sum_and_others_stay_apart() {
        let reg = Registry::new();
        let (mut a, mut b, mut c) = (
            publisher(&reg, &[("agg", "x")]),
            publisher(&reg, &[("agg", "x")]),
            publisher(&reg, &[("agg", "y")]),
        );
        let books = |hits| Books {
            hits,
            ..Books::default()
        };
        a.publish(&books(4));
        b.publish(&books(6));
        c.publish(&books(1));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.hits{agg=x}"), Some(10));
        assert_eq!(snap.counter("t.hits{agg=y}"), Some(1));
    }

    #[test]
    fn a_joined_publisher_keeps_each_sides_labels() {
        let reg = Registry::new();
        let mut p = Publisher::new(&reg, &[("policy", "lru")])
            .counters(&COUNTERS)
            .join(Publisher::new(&reg, &[]).gauges(&GAUGES));
        p.publish(&Books {
            hits: 2,
            misses: 0,
            depth: 3,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.hits{policy=lru}"), Some(2));
        assert_eq!(snap.gauge("t.depth"), Some(3.0));
        assert_eq!(snap.gauge("t.depth{policy=lru}"), None);
    }
}
