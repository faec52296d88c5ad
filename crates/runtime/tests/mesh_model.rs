//! Model-checking the SPSC lane discipline.
//!
//! The pipeline keeps each [`smartwatch_runtime::spsc`] ring strictly
//! single-producer/single-consumer: producer = the dispatcher, consumer
//! = the one shard the lane feeds. The ring is also the buffers' return
//! path: the dispatcher *exchanges* its full
//! staging buffer for whatever the slot held, the shard exchanges the
//! buffer it drained last for the slot's message. `loom` is not
//! available in this workspace, so this test does the next best thing:
//! it *exhaustively enumerates interleavings* of the two actors'
//! productive steps with a DFS, replaying every schedule from scratch on real rings
//! of capacity 1 and 2 (the most adversarial legal sizes), over two
//! back-to-back segments on the same rings — the engine parks its lanes
//! between segments, buffers included.
//!
//! Checked at every node of every schedule:
//!
//! * buffer conservation — every buffer a lane ever allocated is in
//!   exactly one of {producer staging, a ring slot, consumer hand,
//!   consumer spare}; none is duplicated, none is lost;
//! * the structural bound — a lane has allocated exactly
//!   `min(pushes, capacity + 1) + 1` buffers, so at most `capacity + 2`,
//!   whatever the schedule; a buffer that comes back through a slot is
//!   always a drained one, never an undelivered message.
//!
//! And on every complete schedule:
//!
//! * exactly-once delivery and FIFO — each batch pushed is
//!   consumed exactly once, in push order, and the lane's `Stop` arrives
//!   after all of them (the consumer never abandons queued work); a
//!   paced batch that met a full ring is the one accounted exception:
//!   the producer keeps its buffer and the batch is counted as dropped;
//! * a second segment on lanes that went round their ring in the first
//!   allocates nothing;
//! * no deadlock — from any reachable state, some actor can step until
//!   all are done.
//!
//! Steps are *productive by construction*: the producer only steps when
//! its ring has room (or its next batch is paced, and is dropped), the
//! consumer only steps when the open lane has a message. That keeps the
//! schedule space finite (blocked actors busy waiting would otherwise
//! spin forever) while still covering every ordering of the operations
//! that change shared state.

use smartwatch_runtime::spsc::{spsc, Consumer, Producer};
use std::collections::BTreeSet;

/// A batch buffer with an identity, standing in for the engine's
/// `Vec<DigestedPacket>`.
#[derive(Debug)]
struct Buf {
    id: u32,
    data: Vec<u32>,
}

/// Lane message, mirroring the engine's `Batch`: one buffer per
/// message, and the end-of-stream marker is a flag on an empty one.
#[derive(Debug)]
struct Msg {
    buf: Buf,
    stop: bool,
}

/// One scripted batch: its payload, and whether the producer offers it
/// open-loop (a full ring drops it) or with backpressure (it waits).
type Item = (Vec<u32>, bool);
/// Per segment, the batches the producer sends before `Stop`.
type Scripts = Vec<Vec<Item>>;

/// The producer's and the consumer's actor ids in a schedule.
const PRODUCER: usize = 0;
const CONSUMER: usize = 1;

/// The replayed lane, both ends and the model's books.
struct Lane {
    tx: Producer<Msg>,
    rx: Consumer<Msg>,
    /// Producer end: the buffer being staged (always drained).
    staging: Buf,
    /// Consumer end: the buffer drained last, left in the next slot.
    spare: Option<Msg>,
    /// Consumer state: is this segment's `Stop` still to come?
    open: bool,
    /// Ids of the buffers the model has put into slots and not taken
    /// out again — the ring must agree, buffer by buffer.
    in_slots: BTreeSet<u32>,
    /// Buffers allocated / successful exchanges over the lane's life.
    made: u32,
    pushes: u32,
    /// Both, as of the start of the current segment.
    made_at_open: u32,
    pushes_at_open: u32,
    /// This segment: batches not yet offered (front = next), whether
    /// `Stop` went out, payloads delivered and dropped, in order.
    script: Vec<Item>,
    stopped: bool,
    delivered: Vec<Vec<u32>>,
    dropped: Vec<Vec<u32>>,
}

/// One replayed lane over the segments of its script.
struct Model<'a> {
    capacity: usize,
    scripts: &'a Scripts,
    segment: usize,
    lane: Lane,
}

impl<'a> Model<'a> {
    fn new(scripts: &'a Scripts, capacity: usize) -> Model<'a> {
        let (tx, rx) = spsc::<Msg>(capacity);
        let lane = Lane {
            tx,
            rx,
            staging: Buf {
                id: 0,
                data: Vec::new(),
            },
            spare: None,
            open: true,
            in_slots: BTreeSet::new(),
            made: 1,
            pushes: 0,
            made_at_open: 1,
            pushes_at_open: 0,
            script: scripts[0].clone(),
            stopped: false,
            delivered: Vec::new(),
            dropped: Vec::new(),
        };
        Model {
            capacity,
            scripts,
            segment: 0,
            lane,
        }
    }

    /// Can the producer make a productive step right now? Something is
    /// left to send, and its ring is below capacity (`len()` is exact
    /// here because replay is single-threaded) — or the ring is full
    /// and the next batch is paced, which the step then drops.
    fn producer_ready(&self) -> bool {
        let lane = &self.lane;
        match lane.script.first() {
            Some((_, paced)) => *paced || lane.tx.len() < self.capacity,
            None => !lane.stopped && lane.tx.len() < self.capacity,
        }
    }

    /// Can the consumer make a productive step (the open lane has a
    /// message waiting)?
    fn consumer_ready(&self) -> bool {
        self.lane.open && !self.lane.tx.is_empty()
    }

    /// The producer offers its next scripted message the way
    /// `LaneSink::exchange` does: publish the staging buffer, stage
    /// into what the slot held — or, on a full ring, keep the buffer
    /// and count the batch as dropped.
    fn step_producer(&mut self) {
        let capacity = self.capacity;
        let lane = &mut self.lane;
        let stop = lane.script.is_empty();
        let paced = if stop {
            lane.stopped = true;
            false
        } else {
            let (payload, paced) = lane.script.remove(0);
            lane.staging.data = payload;
            paced
        };
        let full = lane.tx.len() == capacity;
        let (id, placeholder) = (
            lane.staging.id,
            Buf {
                id: u32::MAX,
                data: Vec::new(),
            },
        );
        let msg = Msg {
            buf: std::mem::replace(&mut lane.staging, placeholder),
            stop,
        };
        match lane.tx.try_exchange(msg) {
            Ok(left) => {
                assert!(!full, "a full ring must refuse the exchange");
                lane.pushes += 1;
                assert!(lane.in_slots.insert(id), "buffer {id} published twice");
                lane.staging = match left {
                    Some(spare) => {
                        assert!(
                            spare.buf.data.is_empty() && lane.in_slots.remove(&spare.buf.id),
                            "slot gave back {spare:?}, not a drained buffer it held"
                        );
                        spare.buf
                    }
                    None => {
                        lane.made += 1;
                        Buf {
                            id: lane.made - 1,
                            data: Vec::new(),
                        }
                    }
                };
            }
            Err(mut back) => {
                assert!(
                    full && paced,
                    "only a paced batch on a full ring is refused"
                );
                lane.dropped.push(std::mem::take(&mut back.buf.data));
                lane.staging = back.buf;
            }
        }
    }

    /// The consumer exchanges the spare for the oldest message,
    /// delivers it, and keeps its buffer as the new spare — exactly
    /// what `ShardWorker::run` does per batch. The books are checked
    /// mid-step too, with the batch in hand.
    fn step_consumer(&mut self) {
        let lane = &mut self.lane;
        let left = lane.spare.as_ref().map(|m| m.buf.id);
        let mut hand = lane
            .rx
            .try_exchange(&mut lane.spare)
            .expect("consumer stepped without a message");
        assert!(lane.spare.is_none(), "the spare stays in the slot");
        assert!(
            lane.in_slots.remove(&hand.buf.id),
            "popped an unknown buffer"
        );
        if let Some(id) = left {
            assert!(lane.in_slots.insert(id), "spare {id} was already in a slot");
        }
        self.check(Some(hand.buf.id));
        let lane = &mut self.lane;
        if hand.stop {
            assert!(hand.buf.data.is_empty(), "Stop carries an empty buffer");
            lane.open = false;
        } else {
            lane.delivered.push(std::mem::take(&mut hand.buf.data));
        }
        lane.spare = Some(hand);
    }

    /// The lane's books: every buffer it ever allocated is in exactly
    /// one place, and their number is the closed form of the lane's
    /// successful exchanges — no schedule can move it.
    fn check(&self, hand: Option<u32>) {
        let lane = &self.lane;
        let mut census: Vec<u32> = lane.in_slots.iter().copied().collect();
        census.push(lane.staging.id);
        census.extend(lane.spare.as_ref().map(|m| m.buf.id));
        census.extend(hand);
        census.sort_unstable();
        let all: Vec<u32> = (0..lane.made).collect();
        assert_eq!(
            census, all,
            "buffers (staging ∪ slots ∪ spare ∪ hand) vs allocated"
        );
        let lap = self.capacity as u32 + 1;
        assert_eq!(
            lane.made,
            lane.pushes.min(lap) + 1,
            "allocations must be min(pushes, capacity + 1) + 1"
        );
        assert!(lane.tx.len() <= self.capacity);
    }

    fn segment_done(&self) -> bool {
        let l = &self.lane;
        l.script.is_empty() && l.stopped && !l.open
    }

    /// Segment boundary: every thread has been joined; the engine parks
    /// the lanes as they are and the next segment reopens them.
    fn next_segment(&mut self) {
        self.verify_segment();
        self.segment += 1;
        let lane = &mut self.lane;
        lane.script = self.scripts[self.segment].clone();
        lane.stopped = false;
        lane.open = true;
        lane.made_at_open = lane.made;
        lane.pushes_at_open = lane.pushes;
        lane.delivered.clear();
        lane.dropped.clear();
    }

    /// What a finished segment must satisfy.
    fn verify_segment(&self) {
        let lap = self.capacity as u32 + 1;
        let lane = &self.lane;
        // Exactly-once + FIFO: the consumer saw the batches in push
        // order, each either delivered or — paced, on a full ring —
        // dropped and accounted. Stop arrived last (the lane closed only
        // after the final delivery), so shutdown drained rather than
        // discarded.
        let (mut got, mut lost) = (lane.delivered.iter(), lane.dropped.iter());
        for (payload, paced) in &self.scripts[self.segment] {
            let next = if *paced && lost.as_slice().first() == Some(payload) {
                lost.next()
            } else {
                got.next()
            };
            assert_eq!(next, Some(payload), "delivery diverged from script");
        }
        assert!(got.next().is_none() && lost.next().is_none());
        assert!(!lane.open, "Stop must close the lane");
        assert!(
            lane.tx.is_empty(),
            "nothing may remain queued after shutdown"
        );
        // Parked: one staging buffer, one spare, the rest in slots.
        assert!(lane.spare.is_some() && lane.staging.data.is_empty());
        if lane.pushes_at_open >= lap {
            assert_eq!(
                lane.made, lane.made_at_open,
                "a segment on a lapped ring allocates nothing"
            );
        }
    }
}

/// Replay `schedule` (a sequence of actor ids) from scratch and return
/// the resulting model.
fn replay<'a>(scripts: &'a Scripts, capacity: usize, schedule: &[usize]) -> Model<'a> {
    let mut m = Model::new(scripts, capacity);
    for &actor in schedule {
        if actor == CONSUMER {
            m.step_consumer();
        } else {
            m.step_producer();
        }
        m.check(None);
        if m.segment_done() && m.segment + 1 < scripts.len() {
            m.next_segment();
        }
    }
    m
}

/// DFS over all interleavings of productive steps. Returns the number
/// of complete schedules explored.
fn explore(scripts: &Scripts, capacity: usize) -> usize {
    let mut schedule = Vec::new();
    let mut complete = 0usize;
    dfs(scripts, capacity, &mut schedule, &mut complete);
    complete
}

fn dfs(scripts: &Scripts, capacity: usize, schedule: &mut Vec<usize>, complete: &mut usize) {
    let m = replay(scripts, capacity, schedule);
    let mut candidates = Vec::new();
    if m.producer_ready() {
        candidates.push(PRODUCER);
    }
    if m.consumer_ready() {
        candidates.push(CONSUMER);
    }
    if candidates.is_empty() {
        assert!(
            m.segment_done() && m.segment + 1 == scripts.len(),
            "stall: no actor can step but work remains (schedule {schedule:?})"
        );
        m.verify_segment();
        *complete += 1;
        return;
    }
    for actor in candidates {
        schedule.push(actor);
        dfs(scripts, capacity, schedule, complete);
        schedule.pop();
    }
}

/// Flat-out batches (backpressure, never dropped).
fn flatout(payloads: &[&[u32]]) -> Vec<Item> {
    payloads.iter().map(|p| (p.to_vec(), false)).collect()
}

#[test]
fn a_lane_is_exhaustively_correct_over_two_segments() {
    // Enough batches (plus Stop) to take the lane once round its ring,
    // then a second, shorter segment on the parked lane: every
    // interleaving of the two ends' exchanges is explored, at both
    // capacities, and the second segment allocates nothing.
    let scripts = vec![
        flatout(&[&[1], &[2, 3], &[4], &[5]]),
        flatout(&[&[6], &[7]]),
    ];
    // The schedule count is pinned: it guards against a silent pruning
    // bug faking coverage. At capacity 1 the two ends strictly
    // alternate, so there is exactly one schedule.
    for (capacity, schedules) in [(1, 1), (2, 64)] {
        assert_eq!(
            explore(&scripts, capacity),
            schedules,
            "capacity {capacity}"
        );
    }
}

#[test]
fn paced_producer_keeps_its_buffer_on_a_full_ring() {
    // The full-ring edge: a paced batch may meet a full ring in some
    // interleavings and not in others. Either way it is delivered or
    // counted, its buffer stays with the producer, and the lane's
    // allocations follow its *successful* exchanges only.
    let paced = |payloads: &[&[u32]]| -> Vec<Item> {
        payloads.iter().map(|p| (p.to_vec(), true)).collect()
    };
    let scripts = vec![paced(&[&[1], &[2], &[3]]), paced(&[&[4], &[5]])];
    for (capacity, schedules) in [(1, 8), (2, 40)] {
        assert_eq!(
            explore(&scripts, capacity),
            schedules,
            "capacity {capacity}"
        );
    }
}

#[test]
fn an_idle_lane_still_parks_a_spare() {
    // The shutdown edge: a segment that sends nothing but its `Stop`.
    // The lone Stop still brings a buffer for the shard to park, and
    // the next segment runs on the parked lane.
    let scripts = vec![flatout(&[]), flatout(&[&[1], &[2]])];
    for capacity in [1, 2] {
        assert!(explore(&scripts, capacity) > 0);
    }
}
