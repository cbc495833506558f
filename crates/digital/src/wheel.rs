//! The two-level event wheel both digital kernels schedule on.
//!
//! Most events of a run are zero-delay *delta* events: an evaluation at
//! instant `now` drives an output "now", and the drive is applied in the
//! next delta cycle of the same time point. Such events never need
//! ordering against anything, so the wheel keeps two levels:
//!
//! * a FIFO of the events pushed for the current instant, and
//! * a binary heap, ordered by `(time, seq)`, of everything pushed for a
//!   later instant.
//!
//! Popping still yields strict `(time, seq)` order. The heap never holds
//! anything earlier than `now` (a push is never for the past), an event in
//! the FIFO was pushed while the wheel stood at `now` and is therefore
//! younger — larger `seq` — than every heap entry due at `now` (those were
//! pushed while `now` was still ahead), and the FIFO must be empty before
//! `now` moves. So at any instant: heap entries due now first, in heap
//! order, then the FIFO in push order.
//!
//! Everything that inspects pending events ([`Wheel::iter`],
//! [`Wheel::next_time`]) sees both levels, and a push between runs (an
//! injected fault, a digitizer edge at the current instant) lands in the
//! FIFO like any delta event.

use amsfi_waves::Time;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A heap entry: `kind`, due at `time`, the `seq`-th push.
#[derive(Debug, Clone)]
struct Timed<K> {
    time: Time,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Timed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<K> Eq for Timed<K> {}

impl<K> PartialOrd for Timed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Timed<K> {
    /// Reversed so the `BinaryHeap` becomes a min-heap on `(time, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Pending events of payload type `K`, popped in `(time, seq)` order, and
/// the simulation clock they are scheduled against.
#[derive(Debug, Clone)]
pub(crate) struct Wheel<K> {
    now: Time,
    /// Sequence number of the next push.
    seq: u64,
    /// Events due at `now` that were pushed while the wheel stood there,
    /// with their sequence numbers, in push order.
    current: VecDeque<(u64, K)>,
    /// Events pushed for an instant that was still ahead.
    future: BinaryHeap<Timed<K>>,
}

impl<K> Wheel<K> {
    /// An empty wheel standing at `now`.
    pub(crate) fn new(now: Time) -> Self {
        Wheel {
            now,
            seq: 0,
            current: VecDeque::new(),
            future: BinaryHeap::new(),
        }
    }

    /// The instant the wheel stands at.
    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// Schedules `kind` for `time`, which must not precede [`Wheel::now`],
    /// and returns the event's sequence number.
    pub(crate) fn push(&mut self, time: Time, kind: K) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        if time > self.now {
            self.future.push(Timed { time, seq, kind });
        } else {
            debug_assert_eq!(time, self.now, "event scheduled in the past");
            self.current.push_back((seq, kind));
        }
        seq
    }

    /// The instant of the earliest pending event.
    pub(crate) fn next_time(&self) -> Option<Time> {
        if self.current.is_empty() {
            self.future.peek().map(|e| e.time)
        } else {
            Some(self.now)
        }
    }

    /// Moves the clock to `t`. Every event due before `t` must have been
    /// popped: with one still pending the `(time, seq)` order would break.
    pub(crate) fn advance(&mut self, t: Time) {
        assert!(
            self.next_time().is_none_or(|next| next >= t),
            "the wheel cannot move to {t} past an event still pending"
        );
        debug_assert!(t >= self.now, "the wheel cannot run backwards");
        self.now = t;
    }

    /// True while an event due at [`Wheel::now`] is pending.
    pub(crate) fn has_current(&self) -> bool {
        !self.current.is_empty() || self.future.peek().is_some_and(|e| e.time == self.now)
    }

    /// Pops the next event due at [`Wheel::now`] with its sequence number.
    pub(crate) fn pop_current(&mut self) -> Option<(u64, K)> {
        if let Some(top) = self.future.peek_mut() {
            if top.time == self.now {
                let Timed { seq, kind, .. } = PeekMut::pop(top);
                return Some((seq, kind));
            }
        }
        self.current.pop_front()
    }

    /// Every pending event of both levels as `(time, seq, kind)`, in no
    /// particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Time, u64, &K)> {
        let now = self.now;
        self.future.iter().map(|e| (e.time, e.seq, &e.kind)).chain(
            self.current
                .iter()
                .map(move |(seq, kind)| (now, *seq, kind)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The single-level reference: one heap ordered by `(time, seq)`.
    #[derive(Default)]
    struct Model {
        now: Time,
        seq: u64,
        heap: BinaryHeap<Timed<u32>>,
    }

    impl Model {
        fn push(&mut self, time: Time, kind: u32) {
            self.heap.push(Timed {
                time,
                seq: self.seq,
                kind,
            });
            self.seq += 1;
        }

        fn next_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.time)
        }

        fn pop_current(&mut self) -> Option<(u64, u32)> {
            if self.heap.peek()?.time != self.now {
                return None;
            }
            self.heap.pop().map(|e| (e.seq, e.kind))
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Push for `now + delta` (zero: a delta event or an external push
        /// between runs).
        Push(i64),
        /// Pop one event due now, if there is one.
        Pop,
        /// Drain what is due now, then move to the next pending instant.
        Step,
        /// Drain what is due now, then move the idle clock `ahead` of it
        /// but never past a pending event (the end of a `run_until`).
        Idle(i64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 1i64..6).prop_map(|(which, n)| match which {
            0 | 1 => Op::Push(0),
            2 => Op::Push(n),
            3 | 4 => Op::Pop,
            5 | 6 => Op::Step,
            _ => Op::Idle(n),
        })
    }

    fn drain(wheel: &mut Wheel<u32>, model: &mut Model, popped: &mut Vec<(Time, u64, u32)>) {
        loop {
            assert_eq!(wheel.has_current(), model.next_time() == Some(model.now));
            let (w, m) = (wheel.pop_current(), model.pop_current());
            assert_eq!(w, m);
            match w {
                Some((seq, kind)) => popped.push((wheel.now(), seq, kind)),
                None => break,
            }
        }
    }

    proptest! {
        #[test]
        fn pops_in_time_seq_order_like_a_single_heap(script in prop::collection::vec(op(), 1..200)) {
            let mut wheel = Wheel::new(Time::ZERO);
            let mut model = Model::default();
            let mut popped = Vec::new();
            let mut payload = 0u32;
            for step in script {
                match step {
                    Op::Push(delta) => {
                        let at = wheel.now() + Time::from_fs(delta);
                        payload += 1;
                        let seq = wheel.push(at, payload);
                        prop_assert_eq!(seq, model.seq);
                        model.push(at, payload);
                    }
                    Op::Pop => {
                        let (w, m) = (wheel.pop_current(), model.pop_current());
                        prop_assert_eq!(w, m);
                        if let Some((seq, kind)) = w {
                            popped.push((wheel.now(), seq, kind));
                        }
                    }
                    Op::Step => {
                        drain(&mut wheel, &mut model, &mut popped);
                        prop_assert_eq!(wheel.next_time(), model.next_time());
                        if let Some(t) = wheel.next_time() {
                            wheel.advance(t);
                            model.now = t;
                        }
                    }
                    Op::Idle(ahead) => {
                        drain(&mut wheel, &mut model, &mut popped);
                        let mut t = wheel.now() + Time::from_fs(ahead);
                        if let Some(next) = wheel.next_time() {
                            t = t.min(next);
                        }
                        wheel.advance(t);
                        model.now = t;
                    }
                }
                prop_assert_eq!(wheel.next_time(), model.next_time());
                // Both levels are visible to readers of pending events.
                let mut seen: Vec<(Time, u64, u32)> =
                    wheel.iter().map(|(t, s, k)| (t, s, *k)).collect();
                seen.sort_unstable();
                let mut expected: Vec<(Time, u64, u32)> =
                    model.heap.iter().map(|e| (e.time, e.seq, e.kind)).collect();
                expected.sort_unstable();
                prop_assert_eq!(seen, expected);
            }
            drain(&mut wheel, &mut model, &mut popped);
            prop_assert!(popped.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        }
    }

    #[test]
    fn heap_entries_due_now_pop_before_the_fifo() {
        let mut wheel = Wheel::new(Time::ZERO);
        wheel.push(Time::from_ns(5), 'a');
        wheel.push(Time::from_ns(5), 'b');
        wheel.advance(Time::from_ns(5));
        wheel.push(Time::from_ns(5), 'c'); // a delta event: FIFO
        assert_eq!(wheel.iter().count(), 3);
        assert!(wheel.has_current());
        let order: Vec<(u64, char)> = std::iter::from_fn(|| wheel.pop_current()).collect();
        assert_eq!(order, [(0, 'a'), (1, 'b'), (2, 'c')]);
        assert!(!wheel.has_current());
        assert_eq!(wheel.next_time(), None);
    }

    #[test]
    #[should_panic(expected = "past an event still pending")]
    fn moving_past_a_pending_event_is_a_bug() {
        let mut wheel = Wheel::new(Time::ZERO);
        wheel.push(Time::ZERO, ());
        wheel.advance(Time::from_ns(1));
    }
}
