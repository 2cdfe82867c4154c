//! A fixed-size worker pool over the bounded channel from
//! `gencache_sim::stream`.
//!
//! Admission is non-blocking: [`WorkerPool::try_submit`] either enqueues
//! the job or hands it straight back when the queue is full, which the
//! daemon turns into a `busy` reply — load is shed at the door instead
//! of building an unbounded backlog. Workers share the single receiver
//! behind a mutex; a worker blocked in `recv` holds the lock only until
//! a job arrives, so dequeueing serializes but execution does not.
//!
//! Jobs run under `catch_unwind`: a panicking job is counted (see
//! [`WorkerPool::panics`]) but never takes its worker thread with it, so
//! pool capacity stays fixed and shutdown joins cleanly.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use gencache_sim::stream::{bounded, Receiver, Sender, TrySendError};

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`WorkerPool::try_submit`] handed a job back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — shed the load.
    Full,
    /// The pool is shutting down and accepts nothing new.
    Closed,
}

/// Fixed worker threads draining a bounded job queue. The sender and
/// the worker handles sit behind mutexes so a pool shared through an
/// `Arc` can still shut down by `&self`.
pub struct WorkerPool {
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    panics: Arc<AtomicU64>,
    active: Arc<AtomicU64>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count)
            .field("queued", &self.queue_len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue of `queue_depth` pending
    /// jobs (both clamped to at least 1).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = bounded::<Job>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let panics = Arc::new(AtomicU64::new(0));
        let active = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let panics = Arc::clone(&panics);
                let active = Arc::clone(&active);
                std::thread::Builder::new()
                    .name(format!("gencache-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &panics, &active))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            worker_count: workers,
            panics,
            active,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs that panicked while running. The worker survives each one;
    /// the counter is the observable trace a panic leaves behind.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Jobs currently executing on a worker thread — the in-flight
    /// gauge the `stats` and `metrics` frames expose.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_len(&self) -> usize {
        self.tx
            .lock()
            .expect("job sender poisoned")
            .as_ref()
            .map_or(0, Sender::len)
    }

    /// Enqueues `job` without blocking.
    ///
    /// # Errors
    ///
    /// Returns the job back with [`SubmitError::Full`] when the queue is
    /// at capacity, or [`SubmitError::Closed`] once shutdown began.
    pub fn try_submit(&self, job: Job) -> Result<(), (Job, SubmitError)> {
        let tx = self.tx.lock().expect("job sender poisoned");
        let Some(tx) = tx.as_ref() else {
            return Err((job, SubmitError::Closed));
        };
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => Err((job, SubmitError::Full)),
            Err(TrySendError::Disconnected(job)) => Err((job, SubmitError::Closed)),
        }
    }

    /// Stops accepting work, drains the queue, and joins every worker —
    /// in-flight jobs run to completion. Idempotent.
    pub fn shutdown(&self) {
        *self.tx.lock().expect("job sender poisoned") = None;
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, panics: &AtomicU64, active: &AtomicU64) {
    loop {
        let job = {
            let mut rx = rx.lock().expect("job queue poisoned");
            rx.recv()
        };
        match job {
            // AssertUnwindSafe: the job is FnOnce and consumed here; any
            // state it shares across the boundary (channels, atomics)
            // already tolerates a sender vanishing mid-protocol.
            Some(job) => {
                active.fetch_add(1, Ordering::Relaxed);
                if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                    panics.fetch_add(1, Ordering::Relaxed);
                }
                active.fetch_sub(1, Ordering::Relaxed);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(2, 8);
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            let mut job: Job = Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            loop {
                match pool.try_submit(job) {
                    Ok(()) => break,
                    Err((back, _)) => {
                        job = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn full_queue_sheds_without_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        assert!(pool
            .try_submit(Box::new(move || {
                started_tx.send(()).unwrap();
                hold_rx.recv().unwrap();
            }))
            .is_ok());
        started_rx.recv().unwrap();
        // ...fill the queue...
        assert!(pool.try_submit(Box::new(|| {})).is_ok());
        // ...and the next submission is shed immediately.
        let err = pool.try_submit(Box::new(|| {})).unwrap_err().1;
        assert_eq!(err, SubmitError::Full);
        hold_tx.send(()).unwrap();
    }

    #[test]
    fn panicking_job_leaves_pool_alive_and_counted() {
        // A single worker makes the ordering airtight: if the panic had
        // killed the thread, the follow-up job could never run and
        // shutdown would hang or blow up on join.
        let pool = WorkerPool::new(1, 4);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the backtrace
        for _ in 0..3 {
            let mut job: Job = Box::new(|| panic!("job blew up"));
            loop {
                match pool.try_submit(job) {
                    Ok(()) => break,
                    Err((back, _)) => {
                        job = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let mut job: Job = Box::new(move || {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        loop {
            match pool.try_submit(job) {
                Ok(()) => break,
                Err((back, _)) => {
                    job = back;
                    std::thread::yield_now();
                }
            }
        }
        pool.shutdown(); // must not panic on join
        std::panic::set_hook(prev_hook);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "worker survived the panics");
        assert_eq!(pool.panics(), 3, "every panic was counted");
    }
}
