//! Executable concurrency models for the serving layer, explored by the
//! `start_sync` model checker: the submit/flush/shutdown/poison-drain queue
//! protocol (a faithful skeleton of `service.rs`) and the real [`Histogram`]
//! under concurrent recording.
//!
//! Each model must stay clean across at least 1,000 distinct schedules —
//! the CI floor pinned by `ci.yml`. Seeds come from `ModelConfig::default`
//! and are fixed, so a failure here replays deterministically.

use std::collections::VecDeque;

use start_serve::Histogram;
use start_sync::atomic::{AtomicU64, Ordering};
use start_sync::model::{check, spawn_named, ModelConfig};
use start_sync::{Arc, Condvar, Mutex, PoisonError};

const MIN_SCHEDULES: usize = 1_000;

fn cfg() -> ModelConfig {
    ModelConfig { max_schedules: 1_500, random_iters: 200, ..ModelConfig::default() }
}

/// A poison marker in the queue: the worker "panics" on it, mirroring the
/// encode-panic path of the real worker loop.
const POISON: u32 = u32::MAX;

struct Q {
    queue: VecDeque<u32>,
    shutdown: bool,
    poisoned: bool,
}

/// Skeleton of `service.rs`'s `Shared`: same lock/condvar/counter protocol,
/// with the encode call reduced to "count the item".
struct QueueModel {
    state: Mutex<Q>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    max_batch: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
}

impl QueueModel {
    fn new(cap: usize, max_batch: usize) -> Self {
        Self {
            state: Mutex::new(Q { queue: VecDeque::new(), shutdown: false, poisoned: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
            max_batch,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> start_sync::MutexGuard<'_, Q> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirror of `EmbeddingService::enqueue` with `block = true`.
    fn submit(&self, item: u32) -> Result<(), ()> {
        let mut st = self.lock();
        loop {
            if st.poisoned || st.shutdown {
                self.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test tally
                return Err(());
            }
            if st.queue.len() < self.cap {
                break;
            }
            st = self.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Same discipline as the service: submitted goes up (Release) before
        // the request is visible, while the queue lock is held.
        self.submitted.fetch_add(1, Ordering::Release);
        st.queue.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Mirror of `collect_batch`: pop one, absorb up to `max_batch` with a
    /// timed wait standing in for the `max_wait` budget.
    fn collect_batch(&self) -> Option<Vec<u32>> {
        let mut st = self.lock();
        loop {
            if st.poisoned {
                return None;
            }
            if let Some(first) = st.queue.pop_front() {
                let mut batch = vec![first];
                loop {
                    while batch.len() < self.max_batch {
                        match st.queue.pop_front() {
                            Some(r) => batch.push(r),
                            None => break,
                        }
                    }
                    if batch.len() >= self.max_batch || st.shutdown || st.poisoned {
                        break;
                    }
                    let (guard, timeout) = self
                        .not_empty
                        .wait_timeout(st, std::time::Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                drop(st);
                self.not_full.notify_all();
                return Some(batch);
            }
            if st.shutdown {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mirror of `worker_loop` including the poison-drain protocol.
    fn worker(&self) {
        while let Some(batch) = self.collect_batch() {
            if batch.contains(&POISON) {
                let drained: Vec<u32> = {
                    let mut st = self.lock();
                    st.poisoned = true;
                    st.queue.drain(..).collect()
                };
                self.not_empty.notify_all();
                self.not_full.notify_all();
                for _ in &batch {
                    self.failed.fetch_add(1, Ordering::Release);
                }
                for _ in &drained {
                    self.failed.fetch_add(1, Ordering::Release);
                }
                return;
            }
            for _ in &batch {
                self.completed.fetch_add(1, Ordering::Release);
            }
        }
    }

    fn begin_shutdown(&self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Submit/flush/shutdown: two submitters race a worker through a capacity-1
/// queue (real blocking backpressure), then the service drains and shuts
/// down. Every schedule must drain every accepted request:
/// `submitted == completed + failed` and the queue empty.
#[test]
fn serve_queue_submit_flush_shutdown_model_is_clean() {
    let report = check(&cfg(), || {
        let m = Arc::new(QueueModel::new(1, 2));
        let w = {
            let m = Arc::clone(&m);
            spawn_named("worker", move || m.worker())
        };
        let s1 = {
            let m = Arc::clone(&m);
            spawn_named("submit-1", move || {
                let _ = m.submit(1);
            })
        };
        let s2 = {
            let m = Arc::clone(&m);
            spawn_named("submit-2", move || {
                let _ = m.submit(2);
            })
        };
        let _ = s1.join();
        let _ = s2.join();
        m.begin_shutdown();
        let _ = w.join();
        let submitted = m.submitted.load(Ordering::Acquire);
        let completed = m.completed.load(Ordering::Acquire);
        let failed = m.failed.load(Ordering::Acquire);
        assert_eq!(submitted, completed + failed, "accepted request lost in the drain");
        assert_eq!(submitted + m.rejected.load(Ordering::Acquire), 2);
        assert!(m.lock().queue.is_empty(), "shutdown must drain the queue");
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// Poison-drain: one submission is a poison marker (the worker "panics" on
/// it). Whatever the interleaving, every accepted request is answered
/// exactly once — completed, failed-with-panic, or failed-in-drain — and
/// late submissions are rejected, never wedged.
#[test]
fn serve_queue_poison_drain_model_is_clean() {
    let report = check(&cfg(), || {
        let m = Arc::new(QueueModel::new(1, 2));
        let w = {
            let m = Arc::clone(&m);
            spawn_named("worker", move || m.worker())
        };
        let s1 = {
            let m = Arc::clone(&m);
            spawn_named("submit-poison", move || {
                let _ = m.submit(POISON);
            })
        };
        let s2 = {
            let m = Arc::clone(&m);
            spawn_named("submit-2", move || {
                let _ = m.submit(2);
            })
        };
        let _ = s1.join();
        let _ = s2.join();
        m.begin_shutdown();
        let _ = w.join();
        let submitted = m.submitted.load(Ordering::Acquire);
        let completed = m.completed.load(Ordering::Acquire);
        let failed = m.failed.load(Ordering::Acquire);
        assert_eq!(submitted, completed + failed, "poison drain lost a request");
        assert!(failed >= 1, "the poison batch itself must be failed");
        assert!(m.lock().queue.is_empty());
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// The real [`Histogram`] under concurrent `record_us`: after both recorders
/// join, the snapshot must be exact — no lost counts, max correct, quantiles
/// monotone — in every interleaving of the lock-free update sequence.
#[test]
fn histogram_concurrent_record_model_is_clean() {
    let report = check(&cfg(), || {
        let h = Arc::new(Histogram::new());
        let a = {
            let h = Arc::clone(&h);
            spawn_named("rec-a", move || {
                h.record_us(10);
                h.record_us(0);
            })
        };
        let b = {
            let h = Arc::clone(&h);
            spawn_named("rec-b", move || {
                h.record_us(10_000);
                h.record_us(10);
            })
        };
        let _ = a.join();
        let _ = b.join();
        let s = h.snapshot();
        assert_eq!(s.count, 4, "lost a concurrent record");
        assert_eq!(s.max_us, 10_000);
        assert!(s.p50_us <= s.p99_us, "quantiles must be monotone");
        assert!(s.p99_us <= s.max_us, "quantiles are capped at the max");
        let sum = (s.mean_us * s.count as f64).round() as u64;
        assert_eq!(sum, 10 + 10_000 + 10, "sum drifted under contention");
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}
