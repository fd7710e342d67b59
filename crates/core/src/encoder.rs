//! The unified inference facade: [`Encoder`] + [`EncodeOptions`].
//!
//! Historically inference had three overlapping entry points —
//! `StartModel::encode_trajectories`, `StartModel::encode_views`, and
//! `downstream::similarity::encode_parallel` — each with its own hard-coded
//! chunking and threading. Those shims rode one deprecation release and are
//! now deleted; this is the only encode API:
//!
//! ```ignore
//! let embs = model.encoder().encode(&trajectories, &EncodeOptions::default())?;
//! ```
//!
//! What the facade owns:
//!
//! - **Validation** (typed [`EncodeError`], no asserts): empty views are
//!   rejected; over-long views are clamped to `cfg.max_len` when
//!   [`EncodeOptions::clamp`] is set (the default) and rejected otherwise.
//! - **Frozen road stage**: at inference the road vectors are a pure
//!   function of the weights, so they come from [`StartModel::road_table`],
//!   computed once per weight version and shared by every call, thread and
//!   serving replica. A view's rows are copied out of that table; no tape
//!   here records TPE-GAT. Training tapes still gather from the
//!   `road_reprs` node, so gradients are untouched.
//! - **Chunked pooled tapes**: views are encoded `chunk` at a time on one
//!   eval-mode [`Graph`], reset after every view, so peak memory stays at
//!   one-view scale regardless of `chunk`. Buffers cycle through a
//!   [`BufferPool`] across chunks.
//! - **Threading**: with `threads > 1`, whole chunks are distributed
//!   round-robin over scoped workers. Chunk boundaries are identical to the
//!   single-thread schedule and each view's embedding depends only on the
//!   view and the (frozen) parameters, so the output is **bitwise identical
//!   for every thread count** — the property the serving layer's tests pin.
//! - **Caching**: an optional sharded-LRU [`EmbeddingCache`] keyed by a
//!   128-bit content [`Fingerprint`] of the (clamped) view. Duplicate views
//!   inside one call are encoded once even with the cache disabled.
//!
//! Worker panics (impossible input indexes, poisoned kernels) propagate to
//! the caller via `resume_unwind` exactly like the legacy paths — turning
//! them into typed errors is the job of `start-serve`'s service boundary.

use start_sync::atomic::{AtomicU64, Ordering};
use start_sync::{Arc, Mutex};
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::Graph;
use start_nn::{Array, BufferPool};
use start_traj::{TrajView, Trajectory};

use crate::model::{clamp_view, StartModel};

/// A trajectory representation vector (`d` pooled `[CLS]` activations).
pub type Embedding = Vec<f32>;

// ---------------------------------------------------------------------------
// Options and errors
// ---------------------------------------------------------------------------

/// Knobs of one [`Encoder::encode`] call.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Worker threads for large batches. `0` is rejected
    /// ([`EncodeError::ZeroThreads`]); `1` (the default) is the sequential
    /// schedule the multi-threaded output is defined to bitwise-match.
    pub threads: usize,
    /// Views per tape chunk: the unit dealt to a worker thread and the span
    /// over which one tape's buffers are recycled. It does not change the
    /// output bits. `0` falls back to [`EncodeOptions::DEFAULT_CHUNK`].
    pub chunk: usize,
    /// Clamp over-long views to `cfg.max_len` (keeps the prefix). When
    /// `false`, over-long views are an [`EncodeError::TooLong`].
    pub clamp: bool,
    /// Optional shared embedding cache consulted (and filled) per view.
    pub cache: Option<Arc<EmbeddingCache>>,
}

impl Default for EncodeOptions {
    /// Sequential defaults: 1 thread, [`Self::DEFAULT_CHUNK`] views per
    /// chunk, clamping on, no cache.
    fn default() -> Self {
        Self { threads: 1, chunk: Self::DEFAULT_CHUNK, clamp: true, cache: None }
    }
}

impl EncodeOptions {
    /// Views per graph chunk when unspecified — the legacy entry points'
    /// hard-coded chunk size, kept so shimmed callers see identical batching.
    pub const DEFAULT_CHUNK: usize = 64;

    fn threads(&self) -> usize {
        self.threads
    }

    fn chunk(&self) -> usize {
        if self.chunk == 0 {
            Self::DEFAULT_CHUNK
        } else {
            self.chunk
        }
    }
}

/// Typed validation failures of an encode call. Encoding itself is
/// deterministic arithmetic and cannot fail; everything here is caught
/// before the first tape is recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// View `index` has no roads; there is nothing to pool.
    EmptyView { index: usize },
    /// View `index` exceeds `max_len` and clamping was disabled.
    TooLong { index: usize, len: usize, max_len: usize },
    /// `opts.threads == 0`.
    ZeroThreads,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptyView { index } => {
                write!(f, "view {index} is empty; cannot encode a zero-length trajectory")
            }
            EncodeError::TooLong { index, len, max_len } => write!(
                f,
                "view {index} has {len} roads but max_len is {max_len} \
                 (set EncodeOptions::clamp to truncate)"
            ),
            EncodeError::ZeroThreads => write!(f, "EncodeOptions::threads must be >= 1"),
        }
    }
}

impl std::error::Error for EncodeError {}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// 128-bit content hash of a (clamped) view: roads, times, mask flags, and
/// the embedding-dropout probability — everything the eval-mode forward pass
/// reads. Two independent FNV-1a-64 streams with distinct offset bases form
/// the halves, so accidental collisions are out of reach for any realistic
/// embedding-store size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_BASIS_LO: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_BASIS_HI: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint the exact content an encode of `view` consumes.
pub fn fingerprint_view(view: &TrajView) -> Fingerprint {
    let mut lo = FNV_BASIS_LO;
    let mut hi = FNV_BASIS_HI;
    let mut feed = |bytes: &[u8]| {
        lo = fnv1a(lo, bytes);
        hi = fnv1a(hi, bytes);
    };
    feed(&(view.len() as u64).to_le_bytes());
    for r in &view.roads {
        feed(&r.0.to_le_bytes());
    }
    for t in &view.times {
        feed(&t.to_le_bytes());
    }
    for &m in &view.masked {
        feed(&[m as u8]);
    }
    feed(&view.embed_dropout.to_bits().to_le_bytes());
    Fingerprint(((hi as u128) << 64) | lo as u128)
}

// ---------------------------------------------------------------------------
// Sharded LRU embedding cache
// ---------------------------------------------------------------------------

/// Cache hit/miss counters plus occupancy, as one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub capacity: usize,
    /// Model-version epoch of the cache instance these counters describe.
    pub epoch: u64,
}

impl CacheStats {
    /// Hits over lookups, `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot {
    key: u128,
    emb: Embedding,
    prev: usize,
    next: usize,
}

/// One LRU shard: an intrusive doubly-linked recency list over slab slots
/// plus a key map. All operations are O(1).
struct Shard {
    map: HashMap<u128, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: u128) -> Option<Embedding> {
        let i = *self.map.get(&key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].emb.clone())
    }

    fn insert(&mut self, key: u128, emb: Embedding) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].emb = emb;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot { key, emb, prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Evict the least-recently-used entry and reuse its slot.
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.slots[lru] = Slot { key, emb, prev: NIL, next: NIL };
            lru
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// A sharded LRU cache from view [`Fingerprint`]s to embeddings.
///
/// Shard count is rounded up to a power of two; a fingerprint's shard is its
/// low bits, its in-shard key the full 128-bit value. Each shard is an O(1)
/// intrusive-list LRU behind its own mutex, so concurrent encode workers
/// only contend when they touch the same shard. A cached vector is returned
/// by clone and is bit-for-bit the vector that was inserted.
///
/// A cache instance is pinned to one model-version **epoch** at
/// construction. The serving tier never mutates a cache across a weight
/// swap — invalidation is a fresh cache at the new epoch, so an in-flight
/// encode racing the swap can only insert into the retiring instance and
/// stale bits are unreachable from the new version by construction.
pub struct EmbeddingCache {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    epoch: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for EmbeddingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EmbeddingCache")
            .field("shards", &self.shards.len())
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl EmbeddingCache {
    /// Cache with `capacity` total entries across 8 shards, at epoch 0.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 8)
    }

    /// Cache with `capacity` total entries across `shards` shards (rounded
    /// up to a power of two; each shard gets an equal slice, at least 1),
    /// at epoch 0.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        Self::with_shards_at_epoch(capacity, shards, 0)
    }

    /// [`EmbeddingCache::with_shards`] pinned to a model-version `epoch` —
    /// the serving tier constructs one cache per published model version.
    pub fn with_shards_at_epoch(capacity: usize, shards: usize, epoch: u64) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            mask: shards - 1,
            epoch,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The model-version epoch this cache was built for (immutable).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[(fp.0 as usize) & self.mask]
    }

    /// Look up a fingerprint, refreshing its recency on hit.
    pub fn get(&self, fp: Fingerprint) -> Option<Embedding> {
        let got = lock(self.shard(fp)).get(fp.0);
        // Hit/miss tallies are advisory; stats() is approximate.
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed), // relaxed-ok: advisory tally
            None => self.misses.fetch_add(1, Ordering::Relaxed),  // relaxed-ok: advisory tally
        };
        got
    }

    /// Insert (or refresh) an embedding, evicting the shard's LRU entry when
    /// the shard is full.
    pub fn insert(&self, fp: Fingerprint, emb: Embedding) {
        lock(self.shard(fp)).insert(fp.0, emb);
    }

    /// Current number of cached embeddings.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // relaxed-ok: approximate snapshot
            misses: self.misses.load(Ordering::Relaxed), // relaxed-ok: approximate snapshot
            entries: self.len(),
            capacity: self.shards.iter().map(|s| lock(s).capacity).sum(),
            epoch: self.epoch,
        }
    }
}

/// Lock a shard, riding through poisoning: the cache holds plain data and a
/// panicked writer can only have left a consistent-but-stale shard (every
/// mutation completes or the entry stays absent), so serving from it is safe.
fn lock(m: &Mutex<Shard>) -> start_sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(start_sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The Encoder facade
// ---------------------------------------------------------------------------

/// The single inference entry point, borrowed from a [`StartModel`] via
/// [`StartModel::encoder`]. See the module docs for the contract.
pub struct Encoder<'m> {
    model: &'m StartModel,
}

impl StartModel {
    /// Borrow the unified inference facade for this model.
    pub fn encoder(&self) -> Encoder<'_> {
        Encoder { model: self }
    }
}

/// A deduplicated unit of work: one view to encode, and every output slot
/// it must fill.
struct MissGroup {
    view: TrajView,
    fingerprint: Fingerprint,
    slots: Vec<usize>,
}

impl<'m> Encoder<'m> {
    /// Embed a batch of trajectories (identity views).
    pub fn encode(
        &self,
        trajectories: &[Trajectory],
        opts: &EncodeOptions,
    ) -> Result<Vec<Embedding>, EncodeError> {
        let views: Vec<TrajView> = trajectories.iter().map(TrajView::identity).collect();
        self.encode_views(&views, opts)
    }

    /// Embed pre-built views (masking, departure-only timestamps, …).
    pub fn encode_views(
        &self,
        views: &[TrajView],
        opts: &EncodeOptions,
    ) -> Result<Vec<Embedding>, EncodeError> {
        let (out, _pool) = self.encode_views_impl(views, opts, None)?;
        Ok(out)
    }

    /// [`Encoder::encode_views`] threading an external [`BufferPool`]
    /// through the call, for long-lived callers (the serving workers) that
    /// reuse one pool across many batches. Forces the sequential schedule —
    /// a pool cannot be shared across workers — which is also the schedule
    /// every other configuration bitwise-matches.
    pub fn encode_views_pooled(
        &self,
        views: &[TrajView],
        opts: &EncodeOptions,
        pool: BufferPool,
    ) -> Result<(Vec<Embedding>, BufferPool), EncodeError> {
        let (out, pool) = self.encode_views_impl(views, opts, Some(pool))?;
        Ok((out, pool.unwrap_or_default()))
    }

    fn encode_views_impl(
        &self,
        views: &[TrajView],
        opts: &EncodeOptions,
        pool: Option<BufferPool>,
    ) -> Result<(Vec<Embedding>, Option<BufferPool>), EncodeError> {
        if opts.threads() == 0 {
            return Err(EncodeError::ZeroThreads);
        }
        let max_len = self.model.cfg.max_len;
        let mut slots: Vec<Option<Embedding>> = vec![None; views.len()];
        let mut misses: Vec<MissGroup> = Vec::new();
        let mut seen: HashMap<u128, usize> = HashMap::new();

        for (i, view) in views.iter().enumerate() {
            if view.is_empty() {
                return Err(EncodeError::EmptyView { index: i });
            }
            if view.len() > max_len && !opts.clamp {
                return Err(EncodeError::TooLong { index: i, len: view.len(), max_len });
            }
            let view = clamp_view(view.clone(), max_len);
            let fp = fingerprint_view(&view);
            if let Some(cache) = &opts.cache {
                if let Some(emb) = cache.get(fp) {
                    slots[i] = Some(emb);
                    continue;
                }
            }
            match seen.get(&fp.0) {
                Some(&g) => misses[g].slots.push(i),
                None => {
                    seen.insert(fp.0, misses.len());
                    misses.push(MissGroup { view, fingerprint: fp, slots: vec![i] });
                }
            }
        }

        let miss_views: Vec<&TrajView> = misses.iter().map(|m| &m.view).collect();
        let (encoded, pool) = self.encode_unique(&miss_views, opts, pool);

        for (group, mut emb) in misses.iter().zip(encoded) {
            if let Some(cache) = &opts.cache {
                cache.insert(group.fingerprint, emb.clone());
            }
            let last = group.slots.len() - 1;
            for (n, &slot) in group.slots.iter().enumerate() {
                slots[slot] = Some(if n == last { std::mem::take(&mut emb) } else { emb.clone() });
            }
        }
        let out = slots
            .into_iter()
            .map(|s| match s {
                Some(e) => e,
                // Every index is either a cache hit or a member of exactly
                // one miss group, so an unfilled slot is an encoder bug.
                None => panic!("encoder invariant violated: output slot left unfilled"),
            })
            .collect();
        Ok((out, pool))
    }

    /// Encode already-validated, already-deduplicated views. The chunk
    /// schedule is fixed by `opts.chunk`; `threads > 1` only changes which
    /// worker runs a chunk, never its boundaries or its content.
    fn encode_unique(
        &self,
        views: &[&TrajView],
        opts: &EncodeOptions,
        pool: Option<BufferPool>,
    ) -> (Vec<Embedding>, Option<BufferPool>) {
        let chunk = opts.chunk();
        let num_chunks = views.len().div_ceil(chunk.max(1));
        let threads = opts.threads().min(num_chunks).max(1);
        let road_table = self.model.road_table();
        let table: &Array = &road_table;

        if threads == 1 || pool.is_some() {
            let mut p = pool.unwrap_or_default();
            let mut out = Vec::with_capacity(views.len());
            for part in views.chunks(chunk) {
                p = self.encode_chunk(part, table, p, &mut out);
            }
            return (out, Some(p));
        }

        // Chunks are dealt round-robin; worker w owns chunks w, w+T, w+2T, …
        let chunks: Vec<&[&TrajView]> = views.chunks(chunk).collect();
        let mut per_chunk: Vec<Vec<Embedding>> = vec![Vec::new(); chunks.len()];
        crossbeam::scope(|s| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let mine: Vec<(usize, &[&TrajView])> = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == w)
                    .map(|(i, c)| (i, *c))
                    .collect();
                handles.push(s.spawn(move |_| {
                    let mut p = BufferPool::new();
                    let mut done = Vec::with_capacity(mine.len());
                    for (idx, part) in mine {
                        let mut embs = Vec::with_capacity(part.len());
                        p = self.encode_chunk(part, table, p, &mut embs);
                        done.push((idx, embs));
                    }
                    done
                }));
            }
            for h in handles {
                let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                for (idx, embs) in done {
                    per_chunk[idx] = embs;
                }
            }
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
        (per_chunk.into_iter().flatten().collect(), None)
    }

    /// One chunk on one pooled eval tape. Road vectors are copied out of the
    /// model's frozen road table, so the tape never records the road stage
    /// and is reset after every view.
    fn encode_chunk(
        &self,
        views: &[&TrajView],
        table: &Array,
        pool: BufferPool,
        out: &mut Vec<Embedding>,
    ) -> BufferPool {
        // Dropout is inert on an eval tape, so this rng is never drawn; it
        // exists to satisfy the recording API and keep one code path.
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::with_pool(&self.model.store, false, pool);
        for view in views {
            let enc = self.model.encode_view_frozen(&mut g, view, table, &mut rng);
            out.push(g.value(enc.pooled).row(0).to_vec());
            g.reset();
        }
        g.into_pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StartConfig;
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_roadnet::TransferMatrix;
    use start_traj::{SimConfig, Simulator};

    fn setup(n: usize) -> (start_roadnet::City, Vec<Trajectory>, TransferMatrix) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: n, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        (city, data, tm)
    }

    fn bits(v: &[Embedding]) -> Vec<Vec<u32>> {
        v.iter().map(|e| e.iter().map(|x| x.to_bits()).collect()).collect()
    }

    /// The facade is the only encode entry point (the deprecated shims are
    /// deleted); pin that a batch encode is bitwise the concatenation of
    /// one-trajectory encodes, so callers migrating off any old path can
    /// compare against per-call results.
    #[test]
    fn encode_matches_per_trajectory_calls_bitwise() {
        let (city, data, tm) = setup(30);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let batched = model.encoder().encode(&data, &EncodeOptions::default()).unwrap();
        let single: Vec<Embedding> = data
            .iter()
            .map(|t| {
                let one = std::slice::from_ref(t);
                model.encoder().encode(one, &EncodeOptions::default()).unwrap().remove(0)
            })
            .collect();
        assert_eq!(bits(&batched), bits(&single));
    }

    #[test]
    fn cache_epoch_is_pinned_at_construction_and_reported() {
        let cache = EmbeddingCache::with_shards_at_epoch(16, 4, 7);
        assert_eq!(cache.epoch(), 7);
        assert_eq!(cache.stats().epoch, 7);
        assert_eq!(EmbeddingCache::new(16).epoch(), 0);
    }

    #[test]
    fn thread_and_chunk_counts_do_not_change_the_bits() {
        let (city, data, tm) = setup(40);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let base = model.encoder().encode(&data, &EncodeOptions::default()).unwrap();
        for (threads, chunk) in [(1, 4), (2, 8), (4, 4), (3, 64), (4, 1)] {
            let opts = EncodeOptions { threads, chunk, clamp: true, cache: None };
            let got = model.encoder().encode(&data, &opts).unwrap();
            assert_eq!(bits(&base), bits(&got), "threads={threads} chunk={chunk} diverged");
        }
    }

    #[test]
    fn pooled_variant_matches_and_returns_a_warm_pool() {
        let (city, data, tm) = setup(20);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let views: Vec<TrajView> = data.iter().map(TrajView::identity).collect();
        let base = model.encoder().encode_views(&views, &EncodeOptions::default()).unwrap();
        let (a, pool) = model
            .encoder()
            .encode_views_pooled(&views, &EncodeOptions::default(), BufferPool::new())
            .unwrap();
        // Second call on the warmed pool: identical bits again.
        let (b, _pool) =
            model.encoder().encode_views_pooled(&views, &EncodeOptions::default(), pool).unwrap();
        assert_eq!(bits(&base), bits(&a));
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn duplicates_are_deduplicated_but_answered_per_slot() {
        let (city, data, tm) = setup(10);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let batch = vec![
            data[0].clone(),
            data[1].clone(),
            data[0].clone(),
            data[2].clone(),
            data[0].clone(),
        ];
        let out = model.encoder().encode(&batch, &EncodeOptions::default()).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], out[4]);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn cache_round_trip_returns_the_identical_vector() {
        let (city, data, tm) = setup(10);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let cache = Arc::new(EmbeddingCache::new(64));
        let opts = EncodeOptions { cache: Some(cache.clone()), ..EncodeOptions::default() };
        let first = model.encoder().encode(&data[..4], &opts).unwrap();
        let again = model.encoder().encode(&data[..4], &opts).unwrap();
        assert_eq!(bits(&first), bits(&again));
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert!(stats.hits >= 4, "second call must be served from cache: {stats:?}");
        // And the cached path agrees with the uncached one.
        let plain = model.encoder().encode(&data[..4], &EncodeOptions::default()).unwrap();
        assert_eq!(bits(&plain), bits(&again));
    }

    #[test]
    fn empty_view_is_a_typed_error() {
        let (city, data, tm) = setup(5);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let mut bad = TrajView::identity(&data[0]);
        bad.roads.clear();
        bad.times.clear();
        bad.masked.clear();
        let err = model
            .encoder()
            .encode_views(&[TrajView::identity(&data[1]), bad], &EncodeOptions::default())
            .unwrap_err();
        assert_eq!(err, EncodeError::EmptyView { index: 1 });
    }

    #[test]
    fn unclamped_overlong_view_is_a_typed_error() {
        let (city, data, tm) = setup(5);
        let cfg = StartConfig::test_scale();
        let model = StartModel::new(cfg, &city.net, Some(&tm), None, 7);
        let mut long = TrajView::identity(&data[0]);
        while long.len() <= model.cfg.max_len {
            long.roads.extend_from_within(..);
            long.times.extend_from_within(..);
            long.masked.extend_from_within(..);
        }
        let opts = EncodeOptions { clamp: false, ..EncodeOptions::default() };
        let err = model.encoder().encode_views(&[long.clone()], &opts).unwrap_err();
        assert!(matches!(err, EncodeError::TooLong { index: 0, .. }), "{err:?}");
        // With clamping (the default) the same view encodes fine.
        let ok = model.encoder().encode_views(&[long], &EncodeOptions::default());
        assert!(ok.is_ok());
    }

    #[test]
    fn zero_threads_rejected() {
        let (city, data, tm) = setup(5);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let opts = EncodeOptions { threads: 0, ..EncodeOptions::default() };
        assert_eq!(
            model.encoder().encode(&data[..2], &opts).unwrap_err(),
            EncodeError::ZeroThreads
        );
    }

    #[test]
    fn fingerprint_separates_every_field() {
        let (_, data, _) = setup(5);
        let base = TrajView::identity(&data[0]);
        let fp = fingerprint_view(&base);
        let mut roads = base.clone();
        roads.roads[0] = start_roadnet::SegmentId(roads.roads[0].0 + 1);
        let mut times = base.clone();
        times.times[0] += 1;
        let mut masked = base.clone();
        masked.masked[0] = !masked.masked[0];
        let mut dropout = base.clone();
        dropout.embed_dropout = 0.25;
        for (label, v) in
            [("roads", roads), ("times", times), ("masked", masked), ("dropout", dropout)]
        {
            assert_ne!(fp, fingerprint_view(&v), "{label} change must change the fingerprint");
        }
        assert_eq!(fp, fingerprint_view(&base.clone()));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = EmbeddingCache::with_shards(2, 1);
        let fp = |n: u128| Fingerprint(n);
        cache.insert(fp(1), vec![1.0]);
        cache.insert(fp(2), vec![2.0]);
        assert_eq!(cache.get(fp(1)), Some(vec![1.0])); // refresh 1 → 2 is LRU
        cache.insert(fp(3), vec![3.0]); // evicts 2
        assert_eq!(cache.get(fp(2)), None);
        assert_eq!(cache.get(fp(1)), Some(vec![1.0]));
        assert_eq!(cache.get(fp(3)), Some(vec![3.0]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_insert_refreshes_existing_keys() {
        let cache = EmbeddingCache::with_shards(2, 1);
        cache.insert(Fingerprint(1), vec![1.0]);
        cache.insert(Fingerprint(2), vec![2.0]);
        cache.insert(Fingerprint(1), vec![1.5]); // refresh + replace → 2 is LRU
        cache.insert(Fingerprint(3), vec![3.0]);
        assert_eq!(cache.get(Fingerprint(1)), Some(vec![1.5]));
        assert_eq!(cache.get(Fingerprint(2)), None);
    }
}
