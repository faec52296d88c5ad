//! Hashed timing wheel (Varghese & Lauck), paper §3.4 / §5.1.2.
//!
//! The forged-RST detector buffers suspect RST packets for T = 2 s; a
//! timing wheel gives O(1) schedule/expire. This is the classic hashed
//! wheel: `n_slots` buckets of width `tick`; an item due at time `t` lands
//! in slot `(t / tick) % n_slots` carrying its absolute deadline, and
//! `advance(now)` sweeps slots whose time has come, returning expired
//! items in deadline order.
//!
//! Each slot is kept sorted by deadline (ties in arrival order), so
//! `advance` pops due entries off the front and stops at the first one
//! that is not: a call costs O(slots crossed + items expired), however
//! many items sit in the current slot waiting for later in the tick or
//! for a later revolution. Deadlines mostly arrive in time order, which
//! makes the sorted insert a `push_back`.

use smartwatch_net::resident::SLACK;
use smartwatch_net::{Dur, Resident, Ts};
use std::collections::VecDeque;

/// One scheduled entry.
#[derive(Clone, Debug)]
struct Entry<T> {
    deadline: Ts,
    item: T,
}

/// Count of entries a wheel operation examined. Only test builds count;
/// elsewhere `bump` compiles to nothing.
#[derive(Clone, Debug, Default)]
struct Visited(#[cfg(test)] std::cell::Cell<usize>);

impl Visited {
    #[inline]
    fn bump(&self) {
        #[cfg(test)]
        self.0.set(self.0.get() + 1);
    }
}

/// A hashed timing wheel holding items of type `T`.
#[derive(Clone, Debug)]
pub struct TimingWheel<T> {
    /// Each slot sorted by deadline, equal deadlines in arrival order.
    slots: Vec<VecDeque<Entry<T>>>,
    tick: Dur,
    /// The wheel's current position in time (everything strictly before
    /// `now` has been expired).
    now: Ts,
    len: usize,
    /// Most items scheduled at once since the last
    /// [`TimingWheel::reset`].
    high_water: usize,
    visited: Visited,
}

impl<T> TimingWheel<T> {
    /// Wheel with `n_slots` slots of `tick` width. The horizon
    /// (`n_slots × tick`) bounds how far ahead items can be scheduled.
    pub fn new(n_slots: usize, tick: Dur) -> TimingWheel<T> {
        assert!(n_slots > 1 && tick > Dur::ZERO);
        TimingWheel {
            slots: (0..n_slots).map(|_| VecDeque::new()).collect(),
            tick,
            now: Ts::ZERO,
            len: 0,
            high_water: 0,
            visited: Visited::default(),
        }
    }

    /// Back to the state [`TimingWheel::new`] built, in place: nothing
    /// scheduled, the clock at zero. The slots keep their buffers
    /// unless together they hold more than the [`Resident`] bound
    /// allows for the segment's peak item count, in which case each
    /// shrinks to its share of twice that peak.
    pub fn reset(&mut self) {
        let capacity: usize = self.slots.iter().map(VecDeque::capacity).sum();
        let over = capacity > SLACK * self.high_water;
        let share = (SLACK / 2 * self.high_water).div_ceil(self.slots.len());
        for q in &mut self.slots {
            q.clear();
            if over {
                q.shrink_to(share);
            }
        }
        self.now = Ts::ZERO;
        self.len = 0;
        self.high_water = 0;
    }

    /// Heap bytes the slots hold.
    pub fn resident_bytes(&self) -> usize {
        self.slots.iter().map(Resident::resident_bytes).sum()
    }

    /// Scheduling horizon.
    pub fn horizon(&self) -> Dur {
        Dur::from_nanos(self.tick.as_nanos() * self.slots.len() as u64)
    }

    /// Items currently scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current wheel time.
    pub fn now(&self) -> Ts {
        self.now
    }

    fn slot_of(&self, deadline: Ts) -> usize {
        ((deadline.as_nanos() / self.tick.as_nanos()) % self.slots.len() as u64) as usize
    }

    /// Schedule `item` to expire at `deadline`. Returns the deadline the
    /// item is filed under (`deadline`, or the wheel's current time if
    /// that is later) — the handle [`TimingWheel::remove_at`] takes.
    ///
    /// # Panics
    /// Panics if the deadline is further than one horizon ahead of the
    /// wheel's current time (a hashed wheel would mis-order it).
    pub fn schedule(&mut self, deadline: Ts, item: T) -> Ts {
        assert!(
            deadline.since(self.now) < self.horizon(),
            "deadline beyond wheel horizon"
        );
        let deadline = deadline.max(self.now);
        let slot = self.slot_of(deadline);
        let q = &mut self.slots[slot];
        // Behind every entry due at or before `deadline`: the slot stays
        // sorted and equal deadlines stay in arrival order.
        let at = match q.back() {
            Some(last) if last.deadline > deadline => q.partition_point(|e| {
                self.visited.bump();
                e.deadline <= deadline
            }),
            _ => q.len(),
        };
        q.insert(at, Entry { deadline, item });
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        deadline
    }

    /// Advance to `now`, returning every item whose deadline has passed,
    /// in deadline order.
    pub fn advance(&mut self, now: Ts) -> Vec<(Ts, T)> {
        if now < self.now {
            return Vec::new();
        }
        if self.len == 0 {
            // `now` must still move: `schedule` measures its horizon
            // from it.
            self.now = now;
            return Vec::new();
        }
        let mut expired: Vec<(Ts, T)> = Vec::new();
        let start_tick = self.now.as_nanos() / self.tick.as_nanos();
        let end_tick = now.as_nanos() / self.tick.as_nanos();
        // Sweep at most one full revolution.
        let revolutions = (end_tick - start_tick).min(self.slots.len() as u64);
        for t in start_tick..=start_tick + revolutions {
            let slot = (t % self.slots.len() as u64) as usize;
            let q = &mut self.slots[slot];
            while let Some(e) = q.front() {
                self.visited.bump();
                if e.deadline > now {
                    break;
                }
                let e = q.pop_front().expect("front was just seen");
                expired.push((e.deadline, e.item));
                self.len -= 1;
            }
        }
        self.now = now;
        expired.sort_by_key(|(d, _)| *d);
        expired
    }

    /// Remove the first item filed under `deadline` (as returned by
    /// [`TimingWheel::schedule`]) that matches `pred` — e.g. discard a
    /// forged RST once the race is detected. Only the one slot the
    /// deadline names is searched, and within it only the entries with
    /// exactly that deadline.
    pub fn remove_at<F: Fn(&T) -> bool>(&mut self, deadline: Ts, pred: F) -> Option<T> {
        let slot = self.slot_of(deadline);
        let q = &mut self.slots[slot];
        let first = q.partition_point(|e| {
            self.visited.bump();
            e.deadline < deadline
        });
        let pos = (first..q.len())
            .take_while(|&i| q[i].deadline == deadline)
            .find(|&i| {
                self.visited.bump();
                pred(&q[i].item)
            })?;
        self.len -= 1;
        q.remove(pos).map(|e| e.item)
    }

    /// Every scheduled `(deadline, item)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Ts, &T)> {
        self.slots
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| (e.deadline, &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimingWheel<u32> {
        TimingWheel::new(256, Dur::from_millis(50)) // 12.8 s horizon
    }

    #[test]
    fn reset_is_a_fresh_wheel_on_the_same_buffers() {
        let mut w = wheel();
        for i in 0..4_000u32 {
            w.schedule(Ts::from_millis(u64::from(i % 1_000)), i);
        }
        let bytes = w.resident_bytes();
        // Everything expired before the reset: the peak sizes the wheel.
        assert_eq!(w.advance(Ts::from_secs(10)).len(), 4_000);
        w.reset();
        assert_eq!((w.len(), w.now()), (0, Ts::ZERO));
        assert_eq!(
            w.resident_bytes(),
            bytes,
            "a steady segment keeps its slots"
        );
        // Time starts over: an early deadline is in the future again.
        w.schedule(Ts::from_millis(5), 7);
        assert_eq!(w.advance(Ts::from_millis(5)), vec![(Ts::from_millis(5), 7)]);
        // One item was this segment's peak: the flood's slots go.
        w.reset();
        assert!(w.resident_bytes() < bytes / 100, "{}", w.resident_bytes());
    }

    #[test]
    fn expires_in_deadline_order() {
        let mut w = wheel();
        w.schedule(Ts::from_millis(300), 3);
        w.schedule(Ts::from_millis(100), 1);
        w.schedule(Ts::from_millis(200), 2);
        let out = w.advance(Ts::from_millis(400));
        let items: Vec<u32> = out.iter().map(|(_, i)| *i).collect();
        assert_eq!(items, vec![1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn partial_advance_expires_partially() {
        let mut w = wheel();
        w.schedule(Ts::from_millis(100), 1);
        w.schedule(Ts::from_secs(5), 2);
        let out = w.advance(Ts::from_secs(1));
        assert_eq!(out.len(), 1);
        assert_eq!(w.len(), 1);
        let out = w.advance(Ts::from_secs(6));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn same_slot_different_revolutions() {
        // Two items one horizon apart hash to the same slot; only the due
        // one may expire.
        let mut w: TimingWheel<u32> = TimingWheel::new(4, Dur::from_millis(10));
        w.schedule(Ts::from_millis(5), 1);
        // Advance a little, then schedule something 35 ms out (same slot
        // ring position as a long-expired tick).
        let _ = w.advance(Ts::from_millis(6));
        w.schedule(Ts::from_millis(39), 2);
        let out = w.advance(Ts::from_millis(20));
        assert!(out.is_empty(), "late item must not fire early: {out:?}");
        let out = w.advance(Ts::from_millis(40));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn remove_at_takes_only_the_named_entry() {
        let mut w = wheel();
        let d10 = w.schedule(Ts::from_millis(500), 10);
        let d20 = w.schedule(Ts::from_millis(600), 20);
        // Same deadline as 10: the predicate picks between them.
        w.schedule(Ts::from_millis(500), 11);
        assert_eq!(w.iter().count(), 3);
        assert_eq!(w.remove_at(d10, |&x| x == 11), Some(11));
        assert_eq!(w.remove_at(d10, |&x| x == 10), Some(10));
        assert_eq!(w.len(), 1);
        assert_eq!(w.remove_at(d10, |&x| x == 10), None);
        assert_eq!(w.remove_at(d20, |&x| x == 10), None, "pred must match");
        assert_eq!(w.advance(Ts::from_secs(1)), vec![(d20, 20)]);
    }

    #[test]
    fn schedule_reports_the_clamped_deadline() {
        let mut w = wheel();
        let _ = w.advance(Ts::from_secs(1));
        let filed = w.schedule(Ts::from_millis(500), 7); // already past
        assert_eq!(filed, Ts::from_secs(1));
        assert_eq!(w.remove_at(filed, |&x| x == 7), Some(7));
        assert!(w.is_empty());
    }

    #[test]
    fn idle_advance_still_moves_now() {
        // An empty wheel takes the early-out, but `schedule` measures its
        // horizon from `now`: a stale `now` would reject this deadline.
        let mut w = wheel();
        assert!(w.advance(Ts::from_secs(100)).is_empty());
        assert_eq!(w.now(), Ts::from_secs(100));
        w.schedule(Ts::from_secs(105), 1);
    }

    /// The wheel as first written — unsorted slots, full rescans — kept as
    /// the oracle the sorted-slot wheel must agree with.
    struct NaiveWheel {
        slots: Vec<Vec<(Ts, u32)>>,
        tick: Dur,
        now: Ts,
    }

    impl NaiveWheel {
        fn new(n_slots: usize, tick: Dur) -> NaiveWheel {
            NaiveWheel {
                slots: vec![Vec::new(); n_slots],
                tick,
                now: Ts::ZERO,
            }
        }

        fn schedule(&mut self, deadline: Ts, item: u32) {
            let deadline = deadline.max(self.now);
            let slot = (deadline.as_nanos() / self.tick.as_nanos()) as usize % self.slots.len();
            self.slots[slot].push((deadline, item));
        }

        fn advance(&mut self, now: Ts) -> Vec<(Ts, u32)> {
            if now < self.now {
                return Vec::new();
            }
            let mut expired = Vec::new();
            let n = self.slots.len() as u64;
            let start = self.now.as_nanos() / self.tick.as_nanos();
            let end = now.as_nanos() / self.tick.as_nanos();
            for t in start..=start + (end - start).min(n) {
                let slot = &mut self.slots[(t % n) as usize];
                let (due, keep): (Vec<_>, Vec<_>) = slot.iter().partition(|(d, _)| *d <= now);
                expired.extend(due);
                *slot = keep;
            }
            self.now = now;
            expired.sort_by_key(|(d, _)| *d);
            expired
        }

        fn remove_first(&mut self, item: u32) -> Option<u32> {
            for slot in &mut self.slots {
                if let Some(pos) = slot.iter().position(|(_, i)| *i == item) {
                    return Some(slot.remove(pos).1);
                }
            }
            None
        }
    }

    #[test]
    fn sorted_slots_agree_with_the_naive_wheel() {
        let mut rng = 0x5EED_u64;
        let mut next = move |m: u64| {
            rng = smartwatch_net::hash::splitmix64(rng);
            rng % m
        };
        // 16 × 10 ms: deadlines up to 150 ms ahead share slots across
        // ticks and, after `now` moves, across revolutions.
        let mut w: TimingWheel<u32> = TimingWheel::new(16, Dur::from_millis(10));
        let mut naive = NaiveWheel::new(16, Dur::from_millis(10));
        let mut live: Vec<(Ts, u32)> = Vec::new();
        let mut now_us = 0u64;
        for id in 0..20_000u32 {
            match next(10) {
                0..=5 => {
                    // Out-of-order and already-past deadlines included.
                    let d = Ts::from_micros(now_us.saturating_sub(5_000) + next(155_000));
                    let filed = w.schedule(d, id);
                    naive.schedule(d, id);
                    live.push((filed, id));
                }
                6..=7 => {
                    now_us += next(30_000);
                    let now = Ts::from_micros(now_us);
                    let got = w.advance(now);
                    assert_eq!(got, naive.advance(now), "expiry stream diverged");
                    live.retain(|(d, _)| *d > now);
                }
                _ if !live.is_empty() => {
                    let (d, item) = live.swap_remove(next(live.len() as u64) as usize);
                    assert_eq!(w.remove_at(d, |&x| x == item), Some(item));
                    assert_eq!(naive.remove_first(item), Some(item));
                }
                _ => {}
            }
            assert_eq!(w.len(), live.len());
        }
        let mut left: Vec<(Ts, u32)> = w.iter().map(|(d, i)| (d, *i)).collect();
        left.sort_unstable();
        live.sort_unstable();
        assert_eq!(left, live);
    }

    #[test]
    fn operations_touch_a_bounded_number_of_entries() {
        // 10 000 items resident, all due late in one tick — the slot a
        // hashed wheel rescans on every call while that tick lasts.
        let mut w: TimingWheel<u32> = TimingWheel::new(512, Dur::from_millis(16));
        let base = Ts::from_millis(2_000);
        let mut filed = Vec::new();
        for i in 0..10_000u32 {
            filed.push(w.schedule(base + Dur::from_micros(8_000 + u64::from(i % 4_000)), i));
        }
        let visited = |w: &TimingWheel<u32>| w.visited.0.get();

        // Entering the tick with nothing due yet: one look at the front.
        let before = visited(&w);
        assert!(w.advance(base + Dur::from_micros(10)).is_empty());
        assert!(visited(&w) - before <= 2, "idle advance rescanned the slot");

        // Expiring k items costs k + 1 looks, not the slot's length.
        let before = visited(&w);
        let out = w.advance(base + Dur::from_micros(8_004));
        assert_eq!(out.len(), 15, "deadlines 8000..=8004 us, three laps each");
        assert!(visited(&w) - before <= out.len() + 2);

        // Removal: a binary search plus the entries sharing the deadline.
        let before = visited(&w);
        assert_eq!(w.remove_at(filed[9_999], |&x| x == 9_999), Some(9_999));
        assert!(
            visited(&w) - before <= 24,
            "remove_at touched {} entries",
            visited(&w) - before
        );

        // A late, in-order schedule is a push_back: nothing examined.
        let before = visited(&w);
        w.schedule(base + Dur::from_millis(15), 0);
        assert_eq!(visited(&w) - before, 0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn beyond_horizon_rejected() {
        let mut w = wheel();
        w.schedule(Ts::from_secs(60), 1);
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut w = wheel();
        let _ = w.advance(Ts::from_secs(1));
        w.schedule(Ts::from_millis(500), 7); // already past
        let out = w.advance(Ts::from_millis(1_001));
        assert_eq!(out.len(), 1);
    }
}
