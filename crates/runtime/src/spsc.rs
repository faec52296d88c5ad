//! Bounded single-producer/single-consumer ring queue.
//!
//! The engine's dispatcher feeds each worker shard through one of these:
//! exactly one producer (the RSS dispatcher) and one consumer (the shard
//! thread), a fixed capacity, and *explicit* rejection when full — the
//! caller decides between backpressure (retry) and an accounted drop;
//! nothing is ever lost silently.
//!
//! The implementation stays inside the workspace's `forbid(unsafe_code)`
//! rule: monotone head/tail sequence counters (acquire/release atomics)
//! provide the SPSC ordering, and each slot is a `Mutex<Option<T>>` that
//! is only ever touched by one thread at a time — producer before the
//! tail is published, consumer after — so every lock acquisition is
//! uncontended. With batch-sized messages the per-message lock cost is
//! amortised over the whole batch.
//!
//! The slots are also the return path. Both halves move a value through
//! a slot by *exchange*: the consumer takes the oldest message and may
//! leave a spare behind in its place, and the producer's next lap over
//! that slot gets the spare back as it publishes. A lane whose messages
//! carry a buffer therefore circulates a fixed set of buffers —
//! `capacity` in the slots, one with each half — with no second queue
//! beside the ring; [`Producer::try_push`] and [`Consumer::try_pop`] are
//! the same exchanges with nothing left and nothing kept.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Ring<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Next sequence number to pop (written by the consumer only).
    head: AtomicU64,
    /// Next sequence number to push (written by the producer only).
    tail: AtomicU64,
}

impl<T> Ring<T> {
    fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head) as usize
    }
}

/// Producer half; not cloneable — single producer by construction.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

/// Consumer half; not cloneable — single consumer by construction.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

/// Create a bounded SPSC queue with `capacity` slots (≥ 1).
pub fn spsc<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 1, "spsc capacity must be at least 1");
    let ring = Arc::new(Ring {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

impl<T> Producer<T> {
    /// Publish `v` in the next free slot and take what the consumer left
    /// there (`None` until the consumer has left something in that slot
    /// — at the latest, its second lap), or hand `v` back when the ring
    /// is full. The caller owns the full-queue policy: retry
    /// (backpressure) or count a drop.
    pub fn try_exchange(&self, v: T) -> Result<Option<T>, T> {
        let ring = &self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) as usize >= ring.slots.len() {
            return Err(v);
        }
        let idx = (tail % ring.slots.len() as u64) as usize;
        let left = ring.slots[idx]
            .lock()
            .expect("spsc slot poisoned")
            .replace(v);
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(left)
    }

    /// [`Producer::try_exchange`], dropping whatever the slot held.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        self.try_exchange(v).map(drop)
    }

    /// Exchange with backpressure: back off until a slot frees up. Used
    /// for messages that must not be dropped (the shutdown marker, and
    /// every batch in flat-out replay mode).
    ///
    /// The wait escalates spin → yield → short park (bounded): on a
    /// loaded (or single-core) machine the consumer needs this CPU to
    /// make room, and a parked producer donates a full scheduler
    /// quantum instead of thrashing through `yield_now`.
    pub(crate) fn exchange_blocking(&self, mut v: T) -> Option<T> {
        let mut backoff = crate::batch::Backoff::new();
        loop {
            match self.try_exchange(v) {
                Ok(left) => return left,
                Err(back) => {
                    v = back;
                    backoff.idle();
                }
            }
        }
    }

    /// Messages currently buffered (the queue-depth gauge input).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Take the oldest message, if any, leaving `spare` (taken, when a
    /// message was there to take) in its slot for the producer's next
    /// lap. An empty ring leaves `spare` where it is.
    pub fn try_exchange(&self, spare: &mut Option<T>) -> Option<T> {
        let ring = &self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let idx = (head % ring.slots.len() as u64) as usize;
        let mut slot = ring.slots[idx].lock().expect("spsc slot poisoned");
        let v = std::mem::replace(&mut *slot, spare.take());
        drop(slot);
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        debug_assert!(v.is_some(), "published slot must hold a value");
        v
    }

    /// [`Consumer::try_exchange`], leaving the slot empty.
    pub fn try_pop(&self) -> Option<T> {
        self.try_exchange(&mut None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let (tx, rx) = spsc::<u64>(4);
        for i in 0..4 {
            assert!(tx.try_push(i).is_ok());
        }
        assert_eq!(tx.try_push(99), Err(99), "full ring rejects");
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
        assert!(tx.is_empty());
    }

    #[test]
    fn freed_slot_is_reusable() {
        let (tx, rx) = spsc::<u32>(1);
        for round in 0..1000u32 {
            assert!(tx.try_push(round).is_ok());
            assert!(tx.try_push(round).is_err());
            assert_eq!(rx.try_pop(), Some(round));
        }
    }

    #[test]
    fn cross_thread_transfer_is_lossless() {
        let (tx, rx) = spsc::<u64>(64);
        let n = 100_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                tx.exchange_blocking(i);
            }
        });
        let mut expect = 0u64;
        while expect < n {
            match rx.try_pop() {
                Some(v) => {
                    assert_eq!(v, expect, "out of order");
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().expect("producer finishes");
        assert_eq!(rx.ring.len(), 0);
    }
}
