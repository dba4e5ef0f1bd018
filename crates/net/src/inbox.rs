//! The one hand-off queue between a replica's threads (DESIGN.md §4).
//!
//! An [`Inbox`] is an unbounded multi-producer, single-consumer FIFO. Its
//! posters ([`Post`]) push under one lock; its consumer takes everything
//! queued in one lock, by swapping the shared `VecDeque` with the buffer
//! it drained last, so a burst costs the consumer one lock however long it
//! is. A consumer that blocks in a [`Wait`](crate::Wait) has its posters
//! ring that wait's [`Waker`] — the ring follows the push, so the
//! consumer's look after the wait sees the item or a fresh ring follows
//! (the [`Waker`] latch contract). A consumer that blocks in
//! [`Inbox::recv`] parks on a condition variable.
//!
//! No waiter, no wake: a post signals the condition variable only when the
//! waiter count, read under the same lock as the push, says a receiver is
//! parked. A consumer that is busy, or waits in its `Wait`, costs its
//! posters no `futex` call.

use crate::poll::Waker;
use std::collections::{vec_deque, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Queue<T> {
    items: VecDeque<T>,
    /// Receivers parked in [`Inbox::recv`].
    waiters: usize,
    /// The consumer is gone, or a poster closed the inbox: posts fail.
    closed: bool,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// The queue. No caller's code runs under the guard and every update
    /// leaves the queue whole, so a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The consuming end of a hand-off queue: one thread's unbounded FIFO,
/// fed through any number of [`Post`] handles.
///
/// # Examples
///
/// ```
/// use hermes_net::Inbox;
/// use std::time::Duration;
///
/// let mut inbox = Inbox::new();
/// let post = inbox.poster(None);
/// std::thread::spawn(move || post.post("hello")).join().unwrap();
/// assert_eq!(inbox.recv(Duration::from_secs(1)), Ok("hello"));
/// assert!(inbox.take().next().is_none());
/// ```
pub struct Inbox<T> {
    shared: Arc<Shared<T>>,
    /// What the last take moved out of the shared queue and the consumer
    /// has not had yet; its buffer is the one swapped in next.
    taken: VecDeque<T>,
}

/// Why [`Inbox::recv`] returned no item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// A poster closed the inbox, and everything posted before was taken.
    Closed,
}

impl<T> Inbox<T> {
    /// An empty, open inbox.
    pub fn new() -> Inbox<T> {
        let queue = Queue {
            items: VecDeque::new(),
            waiters: 0,
            closed: false,
        };
        Inbox {
            shared: Arc::new(Shared {
                queue: Mutex::new(queue),
                ready: Condvar::new(),
            }),
            taken: VecDeque::new(),
        }
    }

    /// A handle that posts into this inbox, ringing `waker` after each
    /// push when given one — the waker of the wait the consumer blocks in.
    pub fn poster(&self, waker: Option<Arc<Waker>>) -> Post<T> {
        Post {
            shared: Arc::clone(&self.shared),
            waker,
        }
    }

    /// Everything queued, oldest first, taken in one lock. Whatever is
    /// posted after this rings the poster's waker again.
    pub fn take(&mut self) -> vec_deque::Drain<'_, T> {
        refill(&mut self.taken, &mut self.shared.lock());
        self.taken.drain(..)
    }

    /// The oldest item, blocking up to `timeout` for one (`Duration::ZERO`:
    /// not at all). A closed inbox hands over what it holds, then reports
    /// [`RecvError::Closed`].
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing arrived in time,
    /// [`RecvError::Closed`] when nothing ever will.
    pub fn recv(&mut self, timeout: Duration) -> Result<T, RecvError> {
        if let Some(item) = self.taken.pop_front() {
            return Ok(item);
        }
        let deadline = Instant::now().checked_add(timeout);
        let mut queue = self.shared.lock();
        loop {
            refill(&mut self.taken, &mut queue);
            if let Some(item) = self.taken.pop_front() {
                return Ok(item);
            }
            if queue.closed {
                return Err(RecvError::Closed);
            }
            let left = deadline.map_or(timeout, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return Err(RecvError::Timeout);
            }
            queue.waiters += 1;
            queue = (self.shared.ready.wait_timeout(queue, left))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            queue.waiters -= 1;
        }
    }
}

/// Moves what is queued behind what the consumer has not had yet: a swap
/// of buffers when it has had everything.
fn refill<T>(taken: &mut VecDeque<T>, queue: &mut Queue<T>) {
    if taken.is_empty() {
        std::mem::swap(taken, &mut queue.items);
    } else {
        taken.append(&mut queue.items);
    }
}

impl<T> Default for Inbox<T> {
    fn default() -> Inbox<T> {
        Inbox::new()
    }
}

/// The consumer is gone: from now on every post fails.
impl<T> Drop for Inbox<T> {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
    }
}

impl<T> fmt::Debug for Inbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Inbox { .. }")
    }
}

/// A posting handle of an [`Inbox`]; cloneable and shareable across
/// threads.
pub struct Post<T> {
    shared: Arc<Shared<T>>,
    waker: Option<Arc<Waker>>,
}

impl<T> Post<T> {
    /// Queues `item`, wakes a receiver parked in [`Inbox::recv`] if there
    /// is one, then rings this handle's waker. `false`, with `item`
    /// dropped, once the inbox is closed or its consumer gone.
    pub fn post(&self, item: T) -> bool {
        let mut queue = self.shared.lock();
        if queue.closed {
            return false;
        }
        queue.items.push_back(item);
        let parked = queue.waiters > 0;
        drop(queue);
        if parked {
            self.shared.ready.notify_one();
        }
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        true
    }

    /// Closes the inbox: posts fail from now on, and its consumer, once it
    /// has taken what was posted before, reads [`RecvError::Closed`].
    pub fn close(&self) {
        let mut queue = self.shared.lock();
        queue.closed = true;
        let parked = queue.waiters > 0;
        drop(queue);
        if parked {
            self.shared.ready.notify_one();
        }
    }

    /// A handle to the same inbox that posts without ringing: for posts
    /// whose ring a later one carries.
    pub fn unrung(&self) -> Post<T> {
        Post {
            shared: Arc::clone(&self.shared),
            waker: None,
        }
    }
}

impl<T> Clone for Post<T> {
    fn clone(&self) -> Post<T> {
        Post {
            shared: Arc::clone(&self.shared),
            waker: self.waker.clone(),
        }
    }
}

impl<T> fmt::Debug for Post<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Post { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wait;
    use std::thread;

    const LONG: Duration = Duration::from_secs(5);

    /// Runs `then` on a thread of its own once `inbox`'s consumer is
    /// parked in `recv`.
    fn once_parked<T>(
        inbox: &Inbox<T>,
        then: impl FnOnce() + Send + 'static,
    ) -> thread::JoinHandle<()>
    where
        T: Send + 'static,
    {
        let shared = Arc::clone(&inbox.shared);
        thread::spawn(move || {
            while shared.lock().waiters == 0 {
                thread::yield_now();
            }
            then();
        })
    }

    #[test]
    fn fifo_order() {
        let mut inbox = Inbox::new();
        let post = inbox.poster(None);
        for i in 0..4 {
            assert!(post.post(i));
        }
        // A recv takes the whole queue and hands over its head; a take
        // then yields the rest ahead of what was posted since.
        assert_eq!(inbox.recv(Duration::ZERO), Ok(0));
        for i in 4..6 {
            post.post(i);
        }
        assert!(inbox.take().eq(1..6));
        assert!(inbox.take().next().is_none());
        assert_eq!(inbox.recv(Duration::ZERO), Err(RecvError::Timeout));
    }

    #[test]
    fn a_parked_recv_is_woken_by_a_post() {
        let mut inbox = Inbox::new();
        let post = inbox.poster(None);
        let poster = once_parked(&inbox, move || assert!(post.post(42)));
        let start = Instant::now();
        assert_eq!(inbox.recv(LONG), Ok(42));
        assert!(start.elapsed() < Duration::from_secs(2), "slept through it");
        poster.join().unwrap();
    }

    #[test]
    fn recv_times_out_on_an_empty_inbox() {
        let mut inbox = Inbox::<u8>::new();
        let _post = inbox.poster(None);
        let start = Instant::now();
        let quiet = Duration::from_millis(20);
        assert_eq!(inbox.recv(quiet), Err(RecvError::Timeout));
        assert!(start.elapsed() >= quiet);
    }

    #[test]
    fn post_fails_once_the_consumer_is_gone() {
        let inbox = Inbox::new();
        let post = inbox.poster(None);
        assert!(post.clone().post(1u8));
        drop(inbox);
        assert!(!post.post(2));
    }

    #[test]
    fn a_closed_inbox_hands_over_what_it_holds_then_reports_closed() {
        let mut inbox = Inbox::new();
        let post = inbox.poster(None);
        post.post(1);
        post.post(2);
        post.close();
        assert!(!post.post(3), "a closed inbox takes no more");
        assert_eq!(inbox.recv(LONG), Ok(1));
        assert_eq!(inbox.recv(LONG), Ok(2));
        assert_eq!(inbox.recv(LONG), Err(RecvError::Closed));
        // A receiver parked when the inbox closes returns at once.
        let mut inbox = Inbox::<u8>::new();
        let post = inbox.poster(None);
        let closer = once_parked(&inbox, move || post.close());
        let start = Instant::now();
        assert_eq!(inbox.recv(LONG), Err(RecvError::Closed));
        assert!(start.elapsed() < Duration::from_secs(2), "slept through it");
        closer.join().unwrap();
    }

    /// Posts racing take-all drains: an item posted at any point of the
    /// consumer's wake-up → drain → take sequence is in that take or rings
    /// a fresh wake — none waits out the (10 s) wait. Pairs of posts a few
    /// microseconds apart walk the second one across that sequence.
    #[test]
    fn posts_racing_take_all_drains_are_never_stranded() {
        let wait = Wait::new().unwrap();
        let mut inbox = Inbox::<Option<u64>>::new();
        let post = inbox.poster(Some(wait.waker()));
        let mut done = Inbox::new();
        let done_tx = done.poster(None);
        let consumer = thread::spawn(move || {
            let mut ready = Vec::new();
            loop {
                wait.wait(&mut ready, Duration::from_secs(10));
                for item in inbox.take() {
                    match item {
                        Some(i) => assert!(done_tx.post(i)),
                        None => return,
                    }
                }
            }
        });
        for round in 0..20_000u64 {
            post.post(Some(2 * round));
            let gap = Instant::now();
            while gap.elapsed() < Duration::from_nanos(round % 40 * 500) {
                std::hint::spin_loop();
            }
            let posted = Instant::now();
            post.post(Some(2 * round + 1));
            for want in [2 * round, 2 * round + 1] {
                assert_eq!(done.recv(Duration::from_secs(20)), Ok(want), "stranded");
            }
            let waited = posted.elapsed();
            assert!(waited < Duration::from_secs(1), "an item waited {waited:?}");
        }
        post.post(None);
        consumer.join().unwrap();
    }
}
