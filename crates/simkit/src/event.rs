//! A stable discrete-event queue.
//!
//! Events are ordered by timestamp; events with equal timestamps pop in the
//! order they were pushed (FIFO). This stability matters for reproducibility:
//! the HPC simulator schedules arrivals and completions at identical
//! timestamps, and tie-breaking must not depend on heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// ```
/// use rsched_simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), "b");
/// q.push(SimTime::from_secs(1), "a");
/// q.push(SimTime::from_secs(5), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so that the earliest time (and,
        // within a time, the lowest sequence number) is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Remove and return the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// A reference to the earliest pending payload, if any.
    pub fn peek(&self) -> Option<(&SimTime, &T)> {
        self.heap.peek().map(|e| (&e.time, &e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> Extend<(SimTime, T)> for EventQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        for (t, p) in iter {
            self.push(t, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[9u64, 3, 7, 1, 5] {
            q.push(SimTime::from_secs(s), s);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_times_remain_stable() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.push(t2, "x1");
        q.push(t1, "a1");
        q.push(t2, "x2");
        q.push(t1, "a2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a1", "a2", "x1", "x2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), 'z');
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.peek().map(|(_, p)| *p), Some('z'));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 'z')));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn extend_and_drain() {
        let mut q = EventQueue::new();
        q.extend((0..5u64).map(|i| (SimTime::from_secs(5 - i), i)));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.clear();
        assert!(q.is_empty());
    }
}
