//! The receive-queue capability: what a retrieval worker drains.
//!
//! The protocol layer does not care what the Rx queue *is* — a locked
//! MPMC queue, a lock-free SPSC ring, a test double — only that a worker
//! can pop a burst from it. [`RxQueue`] is that seam: `metronome-core`
//! stays free of any dependency on the DPDK-like substrate, and the
//! runtime plugs in `metronome-dpdk`'s ring consumers (via a newtype)
//! while unit tests keep using plain `ArrayQueue`s.

use crossbeam::queue::ArrayQueue;
use std::sync::Arc;

/// One stage of a driver's lookahead: what [`RxQueue::lookahead`] is
/// asked to get moving for a queue that will be polled shortly. A driver
/// that knows its next queues (an executor shard sweeping the tasks one
/// timer tick fired) issues [`Lookahead::Indices`] two polls ahead and
/// [`Lookahead::Frames`] one poll ahead, so the second stage finds what
/// the first asked for already there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookahead {
    /// The queue's own bookkeeping: the lines a pop reads first (a ring's
    /// producer index and the slots at its head).
    Indices,
    /// What the first queued items point to (a frame's header).
    Frames,
}

/// A consumer handle on a bounded multi-thread Rx queue.
///
/// Handles are cheap to clone and shareable; every clone drains the same
/// queue. Implementations must tolerate any number of concurrent poppers
/// *without corruption* — serializing them (a lock, a consumer guard) is
/// fine, since the retrieval disciplines already ensure one consumer per
/// queue at a time.
pub trait RxQueue<T>: Clone + Send + Sync + 'static {
    /// Pop the oldest item, if any.
    fn pop(&self) -> Option<T>;

    /// Items currently queued (racy snapshot).
    fn len(&self) -> usize;

    /// True if nothing is queued (racy snapshot).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop up to `max` items into `out` (appended), returning how many
    /// were taken. Implementations with a batched dequeue (one index
    /// update per burst) should override this per-item default.
    fn pop_burst(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut taken = 0usize;
        while taken < max {
            match self.pop() {
                Some(item) => {
                    out.push(item);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }

    /// A pop is coming: start fetching what it will wait for, for the
    /// first `depth` queued items. Purely a hint — an implementation may
    /// prefetch and may look at queued items, but takes none, changes
    /// nothing a pop or `len` could observe, and never waits (no lock, no
    /// spin). The default does nothing.
    fn lookahead(&self, stage: Lookahead, depth: usize) {
        let _ = (stage, depth);
    }
}

impl<T: Send + 'static> RxQueue<T> for Arc<ArrayQueue<T>> {
    fn pop(&self) -> Option<T> {
        ArrayQueue::pop(self)
    }

    fn len(&self) -> usize {
        ArrayQueue::len(self)
    }

    fn is_empty(&self) -> bool {
        ArrayQueue::is_empty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_queue_satisfies_the_capability() {
        let q = Arc::new(ArrayQueue::new(8));
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(RxQueue::len(&q), 5);
        assert!(!RxQueue::is_empty(&q));
        let mut out = Vec::new();
        assert_eq!(q.pop_burst(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.pop_burst(&mut out, 8), 2);
        assert_eq!(RxQueue::pop(&q), None);
        assert!(RxQueue::is_empty(&q));
    }

    #[test]
    fn the_default_lookahead_is_a_no_op() {
        let q = Arc::new(ArrayQueue::new(8));
        for i in 0..3 {
            q.push(i).unwrap();
        }
        q.lookahead(Lookahead::Indices, 4);
        q.lookahead(Lookahead::Frames, 4);
        let mut out = Vec::new();
        assert_eq!(q.pop_burst(&mut out, 8), 3);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
