//! A bounded, closable MPMC queue whose idle consumers can be lent out.
//!
//! This is the backpressure point of the serving engine: producers get an
//! explicit [`PushError::Full`] instead of unbounded buffering (load
//! shedding), and each consumer blocks in [`BoundedQueue::pop`] for the
//! next item. Closing the queue refuses new pushes but loses no accepted
//! work: consumers drain what remains, then see `None`.
//!
//! A consumer that is busy with an item it can split may publish a help
//! **offer** ([`BoundedQueue::offer`]): `tasks` independent pieces of that
//! item, claimed one at a time under the queue's own lock — by the owner
//! through [`BoundedQueue::claim`], and by any consumer that finds no item
//! waiting, to whom `pop` hands [`Work::Task`]. A queued item always beats
//! an offer, an offer with every task claimed is gone (a consumer never
//! spins on it), and offers are not items: they do not count toward
//! capacity, shedding or the depth high-water mark.

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

/// What [`BoundedQueue::pop`] hands a consumer.
#[derive(Debug, PartialEq)]
pub enum Work<T, O> {
    /// The oldest queued item.
    Job(T),
    /// One task of another consumer's open offer, claimed for the caller.
    Task(O, usize),
}

/// Names one published offer to its owner (see [`BoundedQueue::claim`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket(u64);

/// An offer that still has unclaimed tasks.
struct OpenOffer<O> {
    ticket: Ticket,
    offer: O,
    /// The task indices not handed out yet.
    unclaimed: std::ops::Range<usize>,
}

struct State<T, O> {
    items: VecDeque<T>,
    /// Oldest first; an entry leaves with its last unclaimed task.
    offers: Vec<OpenOffer<O>>,
    tickets_issued: u64,
    closed: bool,
    /// High-water mark of queue depth, for the stats endpoint.
    max_depth: usize,
}

impl<T, O> State<T, O> {
    /// Claim the next task of the offer at `at`, retiring the offer with
    /// its last one.
    fn claim_at(&mut self, at: usize) -> usize {
        let unclaimed = &mut self.offers[at].unclaimed;
        let task = unclaimed.next().expect("an open offer has a task left");
        if std::ops::Range::is_empty(unclaimed) {
            self.offers.remove(at);
        }
        task
    }
}

/// The queue. All methods take `&self`; share it via `Arc`.
pub struct BoundedQueue<T, O> {
    state: Mutex<State<T, O>>,
    cv: Condvar,
    capacity: usize,
}

impl<T, O: Clone> BoundedQueue<T, O> {
    /// Queue with the given capacity (clamped to ≥ 1).
    pub fn new(capacity: usize) -> BoundedQueue<T, O> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                offers: Vec::new(),
                tickets_issued: 0,
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

    /// Remove the oldest item, blocking until one is present; with no item
    /// queued, claim a task of the oldest open offer instead. Returns
    /// `None` once the queue is closed *and* drained — remaining items are
    /// always handed out first, so closing loses no accepted work.
    pub fn pop(&self) -> Option<Work<T, O>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Some(Work::Job(item));
            }
            if let Some(oldest) = st.offers.first() {
                let offer = oldest.offer.clone();
                return Some(Work::Task(offer, st.claim_at(0)));
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Publish `tasks` independent pieces of the caller's current item
    /// (indices `0..tasks`, handed out in that order) to consumers that
    /// have nothing queued to pop. The caller keeps claiming its own tasks
    /// with [`BoundedQueue::claim`] until that returns `None`; a closed
    /// queue still takes offers, because their item was accepted.
    pub fn offer(&self, offer: O, tasks: usize) -> Ticket {
        let mut st = self.state.lock().unwrap();
        st.tickets_issued += 1;
        let ticket = Ticket(st.tickets_issued);
        if tasks > 0 {
            st.offers.push(OpenOffer {
                ticket,
                offer,
                unclaimed: 0..tasks,
            });
            drop(st);
            self.cv.notify_all();
        }
        ticket
    }

    /// The owner's side of an offer: claim its next task, or `None` once
    /// every task has been claimed by someone.
    pub fn claim(&self, ticket: Ticket) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        let at = st.offers.iter().position(|o| o.ticket == ticket)?;
        Some(st.claim_at(at))
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
    use std::time::Duration;

    /// A queue of numbers whose offers are named by a letter.
    type Q = BoundedQueue<u32, char>;

    #[test]
    fn push_pop_fifo() {
        let q = Q::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(Work::Job(i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds_deterministically() {
        let q = Q::new(3);
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.push(3), Ok(3));
        // Capacity reached: shedding is an explicit, typed refusal — not a
        // block, not a drop of an accepted item.
        assert_eq!(q.push(4), Err(PushError::Full));
        assert_eq!(q.max_depth(), 3);
        // Draining reopens capacity.
        assert_eq!(q.pop(), Some(Work::Job(1)));
        assert_eq!(q.push(4), Ok(3));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = Q::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed));
        // Accepted work survives the close…
        assert_eq!(q.pop(), Some(Work::Job(1)));
        assert_eq!(q.pop(), Some(Work::Job(2)));
        // …then consumers see the end.
        assert_eq!(q.pop(), None);
    }

    /// A consumer thread that forwards everything it pops.
    fn consumer(q: &Arc<Q>) -> (mpsc::Receiver<Work<u32, char>>, std::thread::JoinHandle<()>) {
        let (tx, rx) = mpsc::channel();
        let q = Arc::clone(q);
        let thread = std::thread::spawn(move || {
            while let Some(work) = q.pop() {
                tx.send(work).unwrap();
            }
        });
        (rx, thread)
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_close() {
        let q = Arc::new(Q::new(8));
        let (rx, consumer) = consumer(&q);
        // Whether the consumer is already parked in `pop` or not yet
        // there, it must hand the item over…
        q.push(7).unwrap();
        assert_eq!(rx.recv(), Ok(Work::Job(7)));
        // …and a close must end its loop (the join would hang otherwise).
        q.close();
        consumer.join().unwrap();
        assert!(rx.recv().is_err());
    }

    #[test]
    fn a_queued_job_beats_an_open_offer() {
        let q = Q::new(8);
        q.offer('a', 2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(Work::Job(1)));
        assert_eq!(q.pop(), Some(Work::Job(2)));
        // Only with nothing queued does a consumer help, in task order.
        assert_eq!(q.pop(), Some(Work::Task('a', 0)));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(Work::Job(3)));
        assert_eq!(q.pop(), Some(Work::Task('a', 1)));
    }

    #[test]
    fn owner_and_helpers_share_one_claim_sequence_and_older_offers_go_first() {
        let q = Q::new(8);
        let a = q.offer('a', 3);
        let b = q.offer('b', 1);
        assert_eq!(q.claim(a), Some(0));
        assert_eq!(q.pop(), Some(Work::Task('a', 1)));
        assert_eq!(q.claim(a), Some(2));
        // Every task of `a` is claimed: its owner is told so, and the next
        // idle consumer moves on to `b`.
        assert_eq!(q.claim(a), None);
        assert_eq!(q.pop(), Some(Work::Task('b', 0)));
        assert_eq!(q.claim(b), None);
        // An offer of nothing is never handed out.
        let empty = q.offer('c', 0);
        assert_eq!(q.claim(empty), None);
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn an_exhausted_offer_is_not_handed_out_so_a_blocked_pop_stays_blocked() {
        let q = Arc::new(Q::new(8));
        let a = q.offer('a', 1);
        assert_eq!(q.claim(a), Some(0));
        let (rx, consumer) = consumer(&q);
        // The offer is spent: the consumer must park, not return it (and
        // not spin on it). Nothing can arrive until something is pushed.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Timeout)
        );
        // A fresh offer wakes it.
        q.offer('b', 1);
        assert_eq!(rx.recv(), Ok(Work::Task('b', 0)));
        q.close();
        consumer.join().unwrap();
    }

    #[test]
    fn offers_ignore_capacity_and_max_depth() {
        let q = Q::new(1);
        q.push(1).unwrap();
        // A full queue still takes offers, and they are not depth.
        let a = q.offer('a', 4);
        q.offer('b', 4);
        assert_eq!(q.push(2), Err(PushError::Full));
        assert_eq!((q.len(), q.max_depth()), (1, 1));
        assert_eq!(q.pop(), Some(Work::Job(1)));
        // …nor do they hold capacity once the item is gone.
        assert_eq!(q.push(2), Ok(1));
        assert_eq!(q.claim(a), Some(0));
        assert_eq!(q.max_depth(), 1);
    }

    #[test]
    fn close_wakes_helpers_after_the_last_unclaimed_task() {
        let q = Arc::new(Q::new(8));
        let (rx, consumer) = consumer(&q);
        q.close();
        consumer.join().unwrap();
        assert!(rx.recv().is_err());
        // A closed queue still lends consumers to an accepted item's offer:
        // what is left of it is handed out before the end is reported.
        q.push(9).unwrap_err();
        q.offer('a', 1);
        assert_eq!(q.pop(), Some(Work::Task('a', 0)));
        assert_eq!(q.pop(), None);
    }
}
