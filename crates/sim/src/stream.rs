//! A bounded multi-producer single-consumer channel on pure `std`.
//!
//! The ROADMAP's production-scale north star needs two things the
//! materialized pipeline cannot give: a record path whose peak memory is
//! independent of stream length, and a service ingest path that applies
//! backpressure to fast producers instead of buffering without bound.
//! Both reduce to the same primitive — a *bounded* channel — which the
//! container's offline build cannot take from crates.io, so this module
//! provides one on `Mutex` + `Condvar` alone (the same vendored-stand-in
//! policy as `vendor/`). Unlike `std::sync::mpsc::sync_channel` it
//! exposes [`Sender::len`] for live queue-depth introspection (the serve
//! daemon's `/stats` and backpressure decisions) and a non-panicking
//! [`Sender::try_send`] suitable for a 429-style `busy` reply.
//!
//! Semantics:
//!
//! * [`bounded(depth)`](bounded) creates a channel holding at most
//!   `depth` in-flight items (`depth >= 1`).
//! * [`Sender::send`] blocks while the queue is full; it fails only when
//!   the receiver is gone (items would never be drained).
//! * [`Receiver::recv`] blocks while the queue is empty; it returns
//!   `None` once every sender is dropped *and* the queue is drained, so
//!   a consumer loop is `while let Some(x) = rx.recv()`.
//! * Senders clone for MPSC fan-in; the receiver is unique.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Why a [`Sender::send`] failed: the receiver was dropped, so the item
/// could never be consumed. Carries the item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiver dropped; channel closed")
    }
}

/// Why a [`Sender::try_send`] failed.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity right now; the caller should shed load
    /// (e.g. reply `busy`) instead of blocking.
    Full(T),
    /// The receiver was dropped; no send can ever succeed again.
    Disconnected(T),
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel full"),
            TrySendError::Disconnected(_) => write!(f, "receiver dropped; channel closed"),
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    depth: usize,
    state: Mutex<State<T>>,
    /// Signalled when an item is pushed or the last sender leaves.
    not_empty: Condvar,
    /// Signalled when an item is popped or the receiver leaves.
    not_full: Condvar,
}

/// The producing half of a bounded channel; clone freely for MPSC.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half of a bounded channel; unique.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel holding at most `depth` items (clamped to
/// at least 1).
pub fn bounded<T>(depth: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        depth: depth.max(1),
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocks until the queue has room, then enqueues `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the receiver was dropped.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self
            .shared
            .state
            .lock()
            .expect("channel lock never poisoned");
        loop {
            if !state.receiver_alive {
                return Err(SendError(item));
            }
            if state.queue.len() < self.shared.depth {
                state.queue.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .expect("channel lock never poisoned");
        }
    }

    /// Enqueues `item` if there is room right now, without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when the queue is at capacity (shed load),
    /// [`TrySendError::Disconnected`] when the receiver is gone.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut state = self
            .shared
            .state
            .lock()
            .expect("channel lock never poisoned");
        if !state.receiver_alive {
            return Err(TrySendError::Disconnected(item));
        }
        if state.queue.len() >= self.shared.depth {
            return Err(TrySendError::Full(item));
        }
        state.queue.push_back(item);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Items currently queued (a live snapshot; another thread may change
    /// it immediately). Powers queue-depth stats and backpressure
    /// decisions.
    pub fn len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("channel lock never poisoned")
            .queue
            .len()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's capacity.
    pub fn depth(&self) -> usize {
        self.shared.depth
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared
            .state
            .lock()
            .expect("channel lock never poisoned")
            .senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self
            .shared
            .state
            .lock()
            .expect("channel lock never poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked in recv so it can observe the close.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("depth", &self.shared.depth)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T> Receiver<T> {
    /// Blocks until an item arrives, returning `None` once every sender
    /// is dropped and the queue is drained.
    pub fn recv(&mut self) -> Option<T> {
        let mut state = self
            .shared
            .state
            .lock()
            .expect("channel lock never poisoned");
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .expect("channel lock never poisoned");
        }
    }

    /// Pops an item if one is queued right now, without blocking.
    pub fn try_recv(&mut self) -> Option<T> {
        let mut state = self
            .shared
            .state
            .lock()
            .expect("channel lock never poisoned");
        let item = state.queue.pop_front();
        if item.is_some() {
            self.shared.not_full.notify_one();
        }
        item
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("channel lock never poisoned")
            .queue
            .len()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self
            .shared
            .state
            .lock()
            .expect("channel lock never poisoned");
        state.receiver_alive = false;
        state.queue.clear();
        // Wake every sender blocked in send so they can fail fast.
        self.shared.not_full.notify_all();
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("depth", &self.shared.depth)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// An iterator draining the channel until every sender is gone.
impl<T> Iterator for Receiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn items_arrive_in_order() {
        let (tx, mut rx) = bounded(4);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100u64 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100u64 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None, "sender dropped, queue drained");
        });
    }

    #[test]
    fn bounded_depth_applies_backpressure() {
        let (tx, mut rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.by_ref().take(2).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn queue_never_exceeds_depth_under_load() {
        let depth = 3;
        let (tx, rx) = bounded(depth);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let tx2 = tx.clone();
            drop(tx);
            s.spawn(move || {
                for i in 0..500u64 {
                    tx2.send(i).unwrap();
                }
            });
            let mut rx = rx;
            let mut seen = 0u64;
            while let Some(_item) = rx.recv() {
                peak.fetch_max(rx.len() + 1, Ordering::Relaxed);
                seen += 1;
                if seen.is_multiple_of(7) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            assert_eq!(seen, 500);
        });
        assert!(
            peak.load(Ordering::Relaxed) <= depth + 1,
            "queue grew past its bound: {}",
            peak.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn mpsc_fan_in_delivers_everything() {
        let (tx, rx) = bounded(8);
        let total: u64 = std::thread::scope(|s| {
            for t in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        tx.send(t * 1000 + i).unwrap();
                    }
                });
            }
            drop(tx);
            rx.map(|_| 1u64).sum()
        });
        assert_eq!(total, 200);
    }

    #[test]
    fn dropped_receiver_fails_senders() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
        assert!(matches!(tx.try_send(9), Err(TrySendError::Disconnected(9))));
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            let handle = s.spawn(|| tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert!(handle.join().unwrap().is_err());
        });
    }
}
