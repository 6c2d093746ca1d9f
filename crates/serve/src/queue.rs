//! A bounded, closable MPMC queue.
//!
//! This is the backpressure point of the serving engine: producers get an
//! explicit [`PushError::Full`] instead of unbounded buffering (load
//! shedding), and each consumer blocks in [`BoundedQueue::pop`] for the
//! next item. Closing the queue refuses new pushes but loses no accepted
//! work: consumers drain what remains, then see `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the caller should shed the request.
    Full,
    /// [`BoundedQueue::close`] was called; no new work is accepted.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark of queue depth, for the stats endpoint.
    max_depth: usize,
}

/// The queue. All methods take `&self`; share it via `Arc`.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Queue with the given capacity (clamped to ≥ 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue one item; returns the resulting queue depth.
    pub fn push(&self, item: T) -> Result<usize, PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        st.items.push_back(item);
        let depth = st.items.len();
        st.max_depth = st.max_depth.max(depth);
        drop(st);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Remove the oldest item, blocking until one is present. Returns
    /// `None` once the queue is closed *and* drained — remaining items are
    /// always handed out first, so closing loses no accepted work.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Refuse new pushes; consumers drain what remains, then see `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the queue depth since creation.
    pub fn max_depth(&self) -> usize {
        self.state.lock().unwrap().max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds_deterministically() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.push(3), Ok(3));
        // Capacity reached: shedding is an explicit, typed refusal — not a
        // block, not a drop of an accepted item.
        assert_eq!(q.push(4), Err(PushError::Full));
        assert_eq!(q.max_depth(), 3);
        // Draining reopens capacity.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(4), Ok(3));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed));
        // Accepted work survives the close…
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // …then consumers see the end.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(8));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(v) = q.pop() {
                    tx.send(v).unwrap();
                }
            })
        };
        // Whether the consumer is already parked in `pop` or not yet
        // there, it must hand the item over…
        q.push(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        // …and a close must end its loop (the join would hang otherwise).
        q.close();
        consumer.join().unwrap();
        assert!(rx.recv().is_err());
    }
}
