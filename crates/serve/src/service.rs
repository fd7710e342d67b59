//! The embedding inference service: a long-lived pool of encode workers
//! behind a bounded micro-batching queue, serving one **versioned** model
//! slot that can be hot-swapped while requests are in flight.
//!
//! Requests enter through [`EmbeddingService::submit`] (blocking
//! backpressure) or [`EmbeddingService::try_submit`] (fail-fast
//! `QueueFull`). A worker that finds work open starts a micro-batch: it
//! keeps absorbing requests until the batch reaches `max_batch` or the
//! `max_wait` budget expires, then encodes the whole batch on its privately
//! owned tape [`BufferPool`] through the unified
//! [`Encoder`](start_core::encoder::Encoder) facade — which deduplicates
//! identical views, consults the slot's [`EmbeddingCache`], and produces the
//! same bits as a single-threaded `encode` call. Each request is answered
//! over its own channel, so batch composition never changes what a caller
//! observes, only when.
//!
//! ## Checkpoint hot-swap
//!
//! The model lives in a [`ModelSlot`]: `(version, Arc<StartModel>, cache,
//! in-flight counter)` behind an `RwLock`. Every micro-batch pins the slot
//! once — it clones the `Arc`s, registers with the slot's in-flight
//! counter *while still holding the read lock*, then encodes without any
//! lock held. [`EmbeddingService::publish`] double-buffers: it first
//! computes the new model's shared road table
//! ([`StartModel::road_table`]) with no lock held, then write-locks the
//! slot, installs the new model under `version + 1` with a **fresh**
//! cache pinned to the new epoch, releases the lock, and then drains —
//! waits until the old slot's in-flight count reaches zero, at which point
//! every reply produced from the old weights has already been sent. Two
//! consequences callers can rely on:
//!
//! - every reply is tagged with the version of the model that produced it
//!   ([`EmbeddingHandle::wait_versioned`]), and is exactly the bits of a
//!   pre- or post-swap model — never a blend, never a drop;
//! - cache invalidation is structural: a cache instance is pinned to one
//!   version epoch at construction, so an encode racing the swap can only
//!   insert into the retiring instance. Stale bits are unreachable from
//!   the new version.
//!
//! kNN entries are tagged with the model version current at indexing time;
//! [`ServiceStats::stale_index_entries`] counts entries whose version no
//! longer matches, and [`EmbeddingService::stale_indexed_ids`] names them
//! for re-indexing.
//!
//! Workers never leak panics: a panic inside the model is caught at the
//! batch boundary, the in-flight batch is answered with
//! [`ServeError::WorkerPanicked`], the service is poisoned, and queued +
//! future requests get [`ServeError::ModelPoisoned`]. `resume_unwind` stays
//! internal to the encoder's own thread scope.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use start_sync::atomic::{AtomicU64, Ordering};
use start_sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use std::time::{Duration, Instant};

use start_ann::{Hnsw, VectorIndex};
use start_core::encoder::{EmbeddingCache, EncodeError, EncodeOptions};
use start_core::{CacheStats, Embedding, StartModel};
use start_nn::BufferPool;
use start_traj::{TrajView, Trajectory};

use crate::config::{IndexKind, ServeConfig};
use crate::error::ServeError;
use crate::stats::{Histogram, ServiceStats};
use crate::store::{EmbeddingStore, Neighbor};

/// One queued unit of work: the view to encode and the channel that will
/// carry exactly one version-tagged answer back to the submitting caller.
struct Request {
    view: TrajView,
    tx: mpsc::Sender<Result<(Embedding, u64), ServeError>>,
    submitted_at: Instant,
}

struct QueueState {
    queue: VecDeque<Request>,
    shutdown: bool,
    poisoned: bool,
}

/// In-flight micro-batch counter of one model version — the drain barrier
/// of [`EmbeddingService::publish`].
struct InFlight {
    active: Mutex<u64>,
    zero: Condvar,
}

impl InFlight {
    fn new() -> Self {
        Self { active: Mutex::new(0), zero: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, u64> {
        // Poison ride-through: the count is a plain integer, updated in one
        // instruction; a panicking peer cannot leave it torn. The RAII
        // guard below decrements even during unwinding, so a worker panic
        // can never wedge a publish drain.
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register one micro-batch. Called while the slot read lock is held,
    /// so a publish that swapped the slot afterwards is guaranteed to
    /// observe this batch in its drain.
    fn enter(self: &Arc<Self>) -> InFlightGuard {
        *self.lock() += 1;
        InFlightGuard { inner: Arc::clone(self) }
    }

    /// Block until every registered micro-batch has finished (replies
    /// sent). Returns the count observed at entry — how many old-version
    /// batches the publish had to wait out.
    fn drain(&self) -> u64 {
        let mut n = self.lock();
        let at_swap = *n;
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        at_swap
    }
}

/// RAII registration with an [`InFlight`] counter; decrements on drop, so
/// a panicking encode still releases its slot and cannot deadlock
/// [`EmbeddingService::publish`].
struct InFlightGuard {
    inner: Arc<InFlight>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut n = self.inner.lock();
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.inner.zero.notify_all();
        }
    }
}

/// One published model version: the weights, the cache pinned to this
/// version's epoch, and the in-flight counter that gates its retirement.
struct ModelSlot {
    version: u64,
    model: Arc<StartModel>,
    cache: Option<Arc<EmbeddingCache>>,
    in_flight: Arc<InFlight>,
}

/// What the kNN endpoints guard together: the index itself plus the model
/// version each id was indexed under (the hot-swap staleness tags).
struct IndexState {
    index: Box<dyn VectorIndex>,
    versions: HashMap<u64, u64>,
}

/// Everything the workers and the front-end share.
struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cfg: ServeConfig,
    slot: RwLock<ModelSlot>,
    store: RwLock<IndexState>,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    queue_wait: Histogram,
    encode: Histogram,
}

impl Shared {
    /// Queue lock with mutex-poison ride-through: the queue state is a
    /// plain VecDeque plus flags, valid at every instruction boundary, so a
    /// panicking peer cannot leave it torn.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Slot read lock, riding through poisoning for the same reason: the
    /// slot is replaced wholesale under the write lock, never mutated in
    /// place, so readers always see one coherent version.
    fn slot(&self) -> start_sync::RwLockReadGuard<'_, ModelSlot> {
        self.slot.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn store_read(&self) -> start_sync::RwLockReadGuard<'_, IndexState> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn store_write(&self) -> start_sync::RwLockWriteGuard<'_, IndexState> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> ServiceStats {
        let queue_depth = self.lock().queue.len();
        // Snapshot ordering: read the outcome counters (completed/failed)
        // BEFORE submitted. `submitted` is incremented (Release) before a
        // request is visible to workers, and completed/failed only after the
        // answer is sent, so reading outcomes first means any request that
        // slips in between the loads can only raise `submitted` — every
        // snapshot satisfies `submitted >= completed + failed`, and a drained
        // shutdown reports exact equality.
        let completed = self.completed.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        let submitted = self.submitted.load(Ordering::Acquire);
        let (model_version, cache) = {
            let slot = self.slot();
            let cache = slot.cache.as_ref().map(|c| c.stats()).unwrap_or(CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                capacity: 0,
                epoch: slot.version,
            });
            (slot.version, cache)
        };
        let stale_index_entries = {
            let store = self.store_read();
            store.versions.values().filter(|&&v| v != model_version).count()
        };
        ServiceStats {
            submitted,
            completed,
            rejected: self.rejected.load(Ordering::Relaxed), // relaxed-ok: standalone reject tally, no cross-counter invariant
            failed,
            batches: self.batches.load(Ordering::Relaxed), // relaxed-ok: monotone batch tally, no cross-counter invariant
            queue_depth,
            queue_wait: self.queue_wait.snapshot(),
            encode: self.encode.snapshot(),
            cache,
            model_version,
            stale_index_entries,
        }
    }
}

/// The ticket for one submitted request.
///
/// Dropping the handle abandons the answer (the worker still encodes and
/// caches it); [`EmbeddingHandle::wait`] blocks until the worker responds.
pub struct EmbeddingHandle {
    rx: mpsc::Receiver<Result<(Embedding, u64), ServeError>>,
}

impl std::fmt::Debug for EmbeddingHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingHandle").finish_non_exhaustive()
    }
}

impl EmbeddingHandle {
    /// Block until the service answers this request.
    pub fn wait(self) -> Result<Embedding, ServeError> {
        self.wait_versioned().map(|(emb, _)| emb)
    }

    /// Block until the service answers, returning the embedding together
    /// with the version of the model that produced it — the hot-swap
    /// audit hook: across a [`EmbeddingService::publish`], every reply is
    /// tagged with exactly the pre- or post-swap version.
    pub fn wait_versioned(self) -> Result<(Embedding, u64), ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ResponseDropped))
    }
}

/// Receipt of one [`EmbeddingService::publish`] (or `Router::publish`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// The version that was serving before the swap.
    pub previous_version: u64,
    /// The version now serving (always `previous_version + 1`).
    pub version: u64,
    /// Old-version micro-batches that were still in flight at the swap and
    /// were drained before `publish` returned.
    pub drained_batches: u64,
}

/// A running embedding service. See the module docs for the data path.
pub struct EmbeddingService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl EmbeddingService {
    /// Spawn the worker pool and return the running service (model
    /// version 0).
    pub fn start(model: Arc<StartModel>, cfg: ServeConfig) -> Self {
        let dim = model.cfg.dim;
        let index: Box<dyn VectorIndex> = match &cfg.index {
            IndexKind::BruteForce => Box::new(EmbeddingStore::with_precision(dim, cfg.precision)),
            IndexKind::Hnsw(hnsw_cfg) => Box::new(Hnsw::new(dim, hnsw_cfg.clone())),
        };
        let workers = cfg.workers.max(1);
        // Warm the road table so the first micro-batch does not pay for the
        // road stage; replicas sharing this `Arc` reuse the same table.
        model.road_table();
        let slot = ModelSlot {
            version: 0,
            model,
            cache: cache_for_version(&cfg, 0),
            in_flight: Arc::new(InFlight::new()),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                poisoned: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cfg,
            slot: RwLock::new(slot),
            store: RwLock::new(IndexState { index, versions: HashMap::new() }),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            encode: Histogram::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("start-serve-{i}"))
                    .spawn(move || worker_loop(&s, i))
                    .unwrap_or_else(|e| panic!("failed to spawn encode worker {i}: {e}"))
            })
            .collect();
        Self { shared, workers: handles }
    }

    /// Submit a trajectory, blocking while the queue is full.
    pub fn submit(&self, trajectory: &Trajectory) -> Result<EmbeddingHandle, ServeError> {
        self.submit_view(TrajView::identity(trajectory))
    }

    /// Submit a trajectory; fail with [`ServeError::QueueFull`] instead of
    /// blocking when the queue is at capacity.
    pub fn try_submit(&self, trajectory: &Trajectory) -> Result<EmbeddingHandle, ServeError> {
        self.enqueue(TrajView::identity(trajectory), false)
    }

    /// Submit a pre-built view (masking, departure-only timestamps, …),
    /// blocking while the queue is full.
    pub fn submit_view(&self, view: TrajView) -> Result<EmbeddingHandle, ServeError> {
        self.enqueue(view, true)
    }

    /// Submit a batch and wait for every answer, in submission order.
    pub fn encode(&self, trajectories: &[Trajectory]) -> Result<Vec<Embedding>, ServeError> {
        let handles: Vec<EmbeddingHandle> =
            trajectories.iter().map(|t| self.submit(t)).collect::<Result<_, _>>()?;
        handles.into_iter().map(EmbeddingHandle::wait).collect()
    }

    /// Swap in a new model checkpoint with zero dropped or stale replies.
    ///
    /// Double-buffered: the new model is installed under `version + 1`
    /// with a fresh cache pinned to the new epoch; requests picked up
    /// after the swap (including ones already queued) encode with the new
    /// weights, while micro-batches already pinned to the old slot finish
    /// on the old weights and are **drained** — `publish` returns only
    /// after every old-version reply has been sent. The kNN index is
    /// untouched; entries indexed under prior versions are version-tagged
    /// and reported as [`ServiceStats::stale_index_entries`].
    ///
    /// A model whose dimension does not match the index is refused with
    /// [`ServeError::DimensionMismatch`] — kNN distances across mixed
    /// dimensions are meaningless.
    pub fn publish(&self, model: Arc<StartModel>) -> Result<PublishReport, ServeError> {
        let expected = self.store_dim();
        if model.cfg.dim != expected {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
            return Err(ServeError::DimensionMismatch { expected, got: model.cfg.dim });
        }
        // Compute the new version's road table before taking the write
        // lock, so neither the swap nor the first new-version batch waits
        // on the road stage. A `Router` publishes one `Arc` to every
        // replica, so only the first replica computes it.
        model.road_table();
        let old = {
            let mut slot = self.shared.slot.write().unwrap_or_else(PoisonError::into_inner);
            let version = slot.version + 1;
            let fresh = ModelSlot {
                version,
                model,
                cache: cache_for_version(&self.shared.cfg, version),
                in_flight: Arc::new(InFlight::new()),
            };
            std::mem::replace(&mut *slot, fresh)
        };
        // The write lock is released before draining: workers pin the new
        // slot immediately while the old version's in-flight batches run
        // to completion.
        let drained_batches = old.in_flight.drain();
        Ok(PublishReport {
            previous_version: old.version,
            version: old.version + 1,
            drained_batches,
        })
    }

    /// The model version currently serving (0 until the first
    /// [`EmbeddingService::publish`]).
    pub fn model_version(&self) -> u64 {
        self.shared.slot().version
    }

    /// Encode `trajectory` and index the embedding under `id` for
    /// [`EmbeddingService::knn`] queries. Re-indexing an id overwrites it
    /// (and refreshes its version tag).
    pub fn index(&self, id: u64, trajectory: &Trajectory) -> Result<(), ServeError> {
        let emb = self.submit(trajectory)?.wait()?;
        self.index_embedding(id, &emb)
    }

    /// Index a pre-computed embedding under `id` — the bulk-load path when
    /// embeddings come from an offline encode. A wrong-dimension vector is
    /// refused with [`ServeError::DimensionMismatch`]; the service and its
    /// index stay fully usable afterwards.
    pub fn index_embedding(&self, id: u64, embedding: &[f32]) -> Result<(), ServeError> {
        let version = self.model_version();
        let mut store = self.shared.store_write();
        let result = store.index.insert(id, embedding);
        match result {
            Ok(()) => {
                store.versions.insert(id, version);
            }
            Err(_) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
            }
        }
        Ok(result?)
    }

    /// Encode the query trajectory and return its `k` nearest indexed
    /// neighbours by Euclidean distance, closest first.
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let emb = self.submit(query)?.wait()?;
        self.knn_embedding(&emb, k)
    }

    /// kNN over a pre-computed query embedding. A wrong-dimension query is
    /// refused with [`ServeError::DimensionMismatch`], never a panic.
    pub fn knn_embedding(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let result = self.shared.store_read().index.knn(query, k);
        if result.is_err() {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
        }
        Ok(result?)
    }

    /// Drop `id` from the kNN index; returns whether it was indexed.
    /// (HNSW backends tombstone: the id is never returned again, the graph
    /// node keeps routing until a rebuild.)
    pub fn remove_index(&self, id: u64) -> bool {
        let mut store = self.shared.store_write();
        let removed = store.index.remove(id);
        if removed {
            store.versions.remove(&id);
        }
        removed
    }

    /// Number of embeddings currently indexed for kNN.
    pub fn indexed_len(&self) -> usize {
        self.shared.store_read().index.len()
    }

    /// Ids whose indexed embedding was produced by a model version other
    /// than the one currently serving — the re-indexing worklist after a
    /// [`EmbeddingService::publish`]. Sorted for determinism.
    pub fn stale_indexed_ids(&self) -> Vec<u64> {
        let current = self.model_version();
        let store = self.shared.store_read();
        let mut ids: Vec<u64> =
            store.versions.iter().filter(|&(_, &v)| v != current).map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Approximate resident bytes of the kNN index — what a precision
    /// sweep reports alongside recall.
    pub fn index_memory_bytes(&self) -> usize {
        self.shared.store_read().index.memory_bytes()
    }

    /// Rebuild the kNN index as `kind`, re-inserting every live embedding
    /// in stable (insertion) order — how a service migrates from the exact
    /// scan to HNSW (or between HNSW tunings) without re-encoding anything.
    /// Version tags survive: rebuilding changes the backend, not the
    /// staleness of the embeddings in it.
    pub fn rebuild_index(&self, kind: IndexKind) {
        let mut store = self.shared.store_write();
        let dim = store.index.dim();
        let mut fresh: Box<dyn VectorIndex> = match &kind {
            IndexKind::BruteForce => {
                Box::new(EmbeddingStore::with_precision(dim, self.shared.cfg.precision))
            }
            IndexKind::Hnsw(hnsw_cfg) => Box::new(Hnsw::new(dim, hnsw_cfg.clone())),
        };
        store.index.for_each(&mut |id, vector| {
            // Dimensions match by construction: both indexes share `dim`.
            let _ = fresh.insert(id, vector);
        });
        store.index = fresh;
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Stop accepting work, drain every queued request, join the workers,
    /// and return the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.shared.stats()
    }

    /// Flip the service into shutdown without joining the workers: new
    /// submissions (including callers blocked on a full queue) fail with
    /// [`ServeError::ShuttingDown`], while already-queued requests still
    /// drain. [`EmbeddingService::shutdown`] or drop completes the join.
    pub fn begin_shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    fn store_dim(&self) -> usize {
        self.shared.store_read().index.dim()
    }

    fn stop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside the guarded encode region has
            // already answered its batch; nothing to propagate.
            let _ = handle.join();
        }
    }

    fn enqueue(&self, view: TrajView, block: bool) -> Result<EmbeddingHandle, ServeError> {
        if let Err(e) = self.validate(&view) {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
            return Err(ServeError::Invalid(e));
        }
        let (tx, rx) = mpsc::channel();
        let mut st = self.shared.lock();
        loop {
            if st.poisoned {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
                return Err(ServeError::ModelPoisoned);
            }
            if st.shutdown {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() < self.shared.cfg.queue_cap {
                break;
            }
            if !block {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
                return Err(ServeError::QueueFull { capacity: self.shared.cfg.queue_cap });
            }
            st = self.shared.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Counter coherence: `submitted` is incremented BEFORE the request
        // becomes visible to any worker (we still hold the queue lock), with
        // Release so the matching Acquire loads in `Shared::stats` order it
        // against the later `completed`/`failed` increments. Together with
        // reading completed/failed first in `stats`, every snapshot observes
        // `submitted >= completed + failed`, with equality once a shutdown
        // has drained the queue and joined the workers.
        self.shared.submitted.fetch_add(1, Ordering::Release);
        st.queue.push_back(Request { view, tx, submitted_at: Instant::now() });
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(EmbeddingHandle { rx })
    }

    /// Reject malformed requests at the door, so one bad submission can
    /// never fail the micro-batch it would have ridden in.
    fn validate(&self, view: &TrajView) -> Result<(), EncodeError> {
        if view.is_empty() {
            return Err(EncodeError::EmptyView { index: 0 });
        }
        let max_len = self.shared.slot().model.cfg.max_len;
        if view.len() > max_len && !self.shared.cfg.clamp {
            return Err(EncodeError::TooLong { index: 0, len: view.len(), max_len });
        }
        Ok(())
    }
}

impl Drop for EmbeddingService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The cache instance for one model version: fresh storage pinned to the
/// version's epoch (see the module docs on structural invalidation).
fn cache_for_version(cfg: &ServeConfig, version: u64) -> Option<Arc<EmbeddingCache>> {
    (cfg.cache_capacity > 0).then(|| {
        Arc::new(EmbeddingCache::with_shards_at_epoch(
            cfg.cache_capacity,
            cfg.cache_shards,
            version,
        ))
    })
}

/// Pull one micro-batch off the queue, or `None` when the worker should
/// exit (shutdown with an empty queue, or service poisoned).
fn collect_batch(shared: &Shared) -> Option<Vec<Request>> {
    let mut st = shared.lock();
    loop {
        if st.poisoned {
            return None;
        }
        if let Some(first) = st.queue.pop_front() {
            let mut batch = vec![first];
            let max_batch = shared.cfg.max_batch.max(1);
            let deadline = Instant::now() + shared.cfg.max_wait;
            loop {
                while batch.len() < max_batch {
                    match st.queue.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                // A shutting-down service flushes immediately: waiting out
                // the batching budget would only delay the drain.
                if batch.len() >= max_batch || st.shutdown || st.poisoned {
                    break;
                }
                // Saturating: a deadline already in the past yields a zero
                // budget, never an `Instant` subtraction panic — the clock
                // may jump between the deadline computation and this check.
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (guard, _timeout) = shared
                    .not_empty
                    .wait_timeout(st, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            drop(st);
            shared.not_full.notify_all();
            return Some(batch);
        }
        if st.shutdown {
            return None;
        }
        st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `START_SERVE_LOG` enables the periodic stats line; a positive float
/// value overrides the 1 s default period.
fn log_interval() -> Option<Duration> {
    std::env::var("START_SERVE_LOG").ok().map(|v| {
        let secs = v.parse::<f64>().ok().filter(|s| *s > 0.0).unwrap_or(1.0);
        Duration::from_secs_f64(secs)
    })
}

fn log_stats_line(shared: &Shared) {
    let s = shared.stats();
    eprintln!(
        "[start-serve] v{} submitted={} completed={} failed={} rejected={} batches={} \
         mean_batch={:.1} depth={} wait_p50_us={} wait_p99_us={} enc_p50_us={} enc_p99_us={} \
         cache_hit_rate={:.3} stale_index={}",
        s.model_version,
        s.submitted,
        s.completed,
        s.failed,
        s.rejected,
        s.batches,
        s.mean_batch_size(),
        s.queue_depth,
        s.queue_wait.p50_us,
        s.queue_wait.p99_us,
        s.encode.p50_us,
        s.encode.p99_us,
        s.cache.hit_rate(),
        s.stale_index_entries,
    );
}

fn worker_loop(shared: &Shared, worker_id: usize) {
    if let Some(warmup) = shared.cfg.worker_warmup {
        std::thread::sleep(warmup);
    }
    let log_every = if worker_id == 0 { log_interval() } else { None };
    let mut last_log = Instant::now();
    // Each worker owns one tape buffer pool for its whole life, so steady
    // state encodes allocate nothing.
    let mut pool = BufferPool::default();
    while let Some(batch) = collect_batch(shared) {
        let picked_up = Instant::now();
        for req in &batch {
            let wait = picked_up.duration_since(req.submitted_at);
            shared.queue_wait.record_us(wait.as_micros() as u64);
        }
        let views: Vec<TrajView> = batch.iter().map(|r| r.view.clone()).collect();
        // Pin the slot once per micro-batch: version, weights and cache are
        // cloned — and the batch registered in-flight — under one read
        // lock, so a concurrent publish either sees this batch in its
        // drain or this batch already runs on the new version. The guard
        // decrements on drop (even through a panic), after the replies
        // below have been sent.
        let (version, model, cache, _in_flight) = {
            let slot = shared.slot();
            (slot.version, Arc::clone(&slot.model), slot.cache.clone(), slot.in_flight.enter())
        };
        let opts = EncodeOptions {
            threads: 1,
            chunk: shared.cfg.max_batch.max(1),
            clamp: shared.cfg.clamp,
            cache,
        };
        let taken = std::mem::take(&mut pool);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            model.encoder().encode_views_pooled(&views, &opts, taken)
        }));
        shared.encode.record_us(picked_up.elapsed().as_micros() as u64);
        shared.batches.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone batch tally
        match outcome {
            Ok(Ok((embeddings, returned))) => {
                pool = returned;
                for (req, emb) in batch.into_iter().zip(embeddings) {
                    // A dropped handle is a caller choice, not a failure.
                    let _ = req.tx.send(Ok((emb, version)));
                    // Release pairs with the Acquire snapshot in `stats`.
                    shared.completed.fetch_add(1, Ordering::Release);
                }
            }
            Ok(Err(e)) => {
                // Submit-time validation makes this unreachable today; if a
                // new validation ever appears in the encoder first, answer
                // with the typed error rather than wedging the callers.
                for req in batch {
                    let _ = req.tx.send(Err(ServeError::Invalid(e.clone())));
                    shared.failed.fetch_add(1, Ordering::Release);
                }
            }
            Err(payload) => {
                let message = panic_message(payload);
                let drained: Vec<Request> = {
                    let mut st = shared.lock();
                    st.poisoned = true;
                    st.queue.drain(..).collect()
                };
                shared.not_empty.notify_all();
                shared.not_full.notify_all();
                for req in batch {
                    let _ =
                        req.tx.send(Err(ServeError::WorkerPanicked { message: message.clone() }));
                    shared.failed.fetch_add(1, Ordering::Release);
                }
                for req in drained {
                    let _ = req.tx.send(Err(ServeError::ModelPoisoned));
                    shared.failed.fetch_add(1, Ordering::Release);
                }
                return;
            }
        }
        if let Some(period) = log_every {
            if last_log.elapsed() >= period {
                last_log = Instant::now();
                log_stats_line(shared);
            }
        }
    }
}
