//! [`Router`]: the sharded serving front-end — N [`EmbeddingService`]
//! replicas behind one facade with the same `submit`/`knn`/`index`/`stats`
//! surface, so callers migrate from a single service by constructor swap.
//!
//! ## Fingerprint partitioning
//!
//! A request's shard is a pure function of its content: the 128-bit
//! trajectory [`Fingerprint`](start_core::Fingerprint) from
//! [`fingerprint_view`], folded through [`fold_fingerprint`] (a nonlinear
//! 64-bit finalizer — see its docs for why raw FNV bits would alias the
//! cache's internal sharding) and reduced mod the replica count. The same
//! trajectory therefore always lands on the same replica — across router
//! restarts,
//! across differing per-replica worker counts, across processes — which is
//! what makes per-replica caches *partitions* of the working set rather
//! than copies: each replica's sharded-LRU [`EmbeddingCache`] holds only
//! its own shard's trajectories, so aggregate cache capacity scales
//! linearly with the replica count with zero duplication. (The fingerprint
//! covers the view as submitted; config-dependent clamping happens later,
//! inside the replica, and does not influence placement.)
//!
//! kNN placement uses `id % replicas` for inserts; queries scatter to
//! every replica and merge through [`TopK`], which reproduces the
//! single-service `(distance, id)` tie-break bit for bit.
//!
//! ## Hot swap
//!
//! [`Router::publish`] pushes a new checkpoint into every replica in
//! shard order; each replica double-buffers the model behind its
//! versioned slot, drains in-flight micro-batches on the old version, and
//! starts a fresh cache pinned to the new version epoch (see the
//! `service` module docs). Because every replica performs the same
//! `version + 1` bump, replica versions stay in lockstep and
//! [`Router::model_version`] is well defined. Every replica holds the same
//! `Arc<StartModel>`, so the version's road table is computed once, by the
//! first replica, and shared by all.
//!
//! [`EmbeddingCache`]: start_core::EmbeddingCache

use start_core::encoder::fingerprint_view;
use start_core::{Embedding, StartModel};
use start_sync::Arc;
use start_traj::{TrajView, Trajectory};

use start_ann::TopK;

use crate::config::RouterConfig;
use crate::error::ServeError;
use crate::service::{EmbeddingHandle, EmbeddingService, PublishReport};
use crate::stats::ServiceStats;
use crate::store::Neighbor;

/// Fold a 128-bit fingerprint into the 64-bit value replica selection
/// reduces mod the replica count: the halves are xor-combined and pushed
/// through the 64-bit murmur3 finalizer.
///
/// Raw fingerprint bits must NOT be used here. Bit 0 of an FNV-1a stream
/// is a *linear* function of the input bytes (xor preserves parity and the
/// odd-prime multiply never changes it), and the fingerprint's two halves
/// feed identical bytes — their parities differ only by a constant. Shard
/// by raw low (or high) bits and every trajectory on a replica shares a
/// parity class, which is exactly the bit the replica's sharded-LRU
/// [`EmbeddingCache`](start_core::EmbeddingCache) uses to pick an internal
/// shard: half (at 2 replicas; more at 4) of each replica's cache slots
/// would sit permanently empty. The finalizer's shift-xor-multiply rounds
/// make every output bit a nonlinear mix of all 128 input bits, so replica
/// selection is independent of the cache's internal sharding.
pub fn fold_fingerprint(fp: start_core::Fingerprint) -> u64 {
    let mut x = (fp.0 >> 64) as u64 ^ fp.0 as u64;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A sharded, hot-reloadable serving tier. See the module docs.
pub struct Router {
    replicas: Vec<EmbeddingService>,
}

/// Per-replica snapshots plus the aggregates callers actually chart.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// One [`ServiceStats`] per replica, in shard order.
    pub replicas: Vec<ServiceStats>,
}

impl RouterStats {
    pub fn submitted(&self) -> u64 {
        self.replicas.iter().map(|s| s.submitted).sum()
    }

    pub fn completed(&self) -> u64 {
        self.replicas.iter().map(|s| s.completed).sum()
    }

    pub fn rejected(&self) -> u64 {
        self.replicas.iter().map(|s| s.rejected).sum()
    }

    pub fn failed(&self) -> u64 {
        self.replicas.iter().map(|s| s.failed).sum()
    }

    pub fn stale_index_entries(&self) -> usize {
        self.replicas.iter().map(|s| s.stale_index_entries).sum()
    }

    /// Aggregate cache hit rate: total hits over total lookups across all
    /// replica caches, `0.0` when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.replicas.iter().map(|s| s.cache.hits).sum();
        let lookups: u64 = self.replicas.iter().map(|s| s.cache.hits + s.cache.misses).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

impl Router {
    /// Spawn `cfg.replicas` services over a shared model (each replica
    /// clones the `Arc`, not the weights) and return the running router.
    /// Defensive like `EmbeddingService::start`: a zero replica count is
    /// normalized to 1 — build configs through [`RouterConfig::builder`]
    /// for typed validation instead.
    pub fn start(model: Arc<StartModel>, cfg: RouterConfig) -> Self {
        let replicas = (0..cfg.replicas.max(1))
            .map(|_| EmbeddingService::start(Arc::clone(&model), cfg.serve.clone()))
            .collect();
        Self { replicas }
    }

    /// Number of replicas behind this router.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica a trajectory routes to: its content fingerprint folded
    /// through [`fold_fingerprint`] mod the replica count. Pure in the
    /// trajectory — independent of router instance, worker counts, and
    /// model version.
    pub fn shard_for(&self, trajectory: &Trajectory) -> usize {
        self.shard_for_view(&TrajView::identity(trajectory))
    }

    /// [`Router::shard_for`] over a pre-built view.
    pub fn shard_for_view(&self, view: &TrajView) -> usize {
        (fold_fingerprint(fingerprint_view(view)) % self.replicas.len() as u64) as usize
    }

    /// Submit a trajectory to its shard, blocking while that replica's
    /// queue is full.
    pub fn submit(&self, trajectory: &Trajectory) -> Result<EmbeddingHandle, ServeError> {
        self.submit_view(TrajView::identity(trajectory))
    }

    /// Submit a trajectory to its shard; fail with
    /// [`ServeError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, trajectory: &Trajectory) -> Result<EmbeddingHandle, ServeError> {
        let shard = self.shard_for(trajectory);
        self.replicas[shard].try_submit(trajectory)
    }

    /// Submit a pre-built view to its shard, blocking while the queue is
    /// full.
    pub fn submit_view(&self, view: TrajView) -> Result<EmbeddingHandle, ServeError> {
        let shard = self.shard_for_view(&view);
        self.replicas[shard].submit_view(view)
    }

    /// Submit a batch (each trajectory to its own shard) and wait for
    /// every answer, in submission order.
    pub fn encode(&self, trajectories: &[Trajectory]) -> Result<Vec<Embedding>, ServeError> {
        let handles: Vec<EmbeddingHandle> =
            trajectories.iter().map(|t| self.submit(t)).collect::<Result<_, _>>()?;
        handles.into_iter().map(EmbeddingHandle::wait).collect()
    }

    /// Publish a new model checkpoint into every replica (shard order).
    /// Each replica drains its in-flight old-version micro-batches before
    /// this returns; see `EmbeddingService::publish` for the per-replica
    /// contract. Returns the per-replica reports, whose `version` fields
    /// all agree.
    ///
    /// A wrong-dimension checkpoint is refused atomically: every replica
    /// shares the index dimension, the per-replica check precedes the
    /// swap, and the iteration short-circuits — so replica 0's refusal
    /// means no replica swapped.
    pub fn publish(&self, model: Arc<StartModel>) -> Result<Vec<PublishReport>, ServeError> {
        self.replicas.iter().map(|r| r.publish(Arc::clone(&model))).collect()
    }

    /// The model version currently serving (identical on every replica).
    pub fn model_version(&self) -> u64 {
        self.replicas.first().map_or(0, EmbeddingService::model_version)
    }

    /// Encode `trajectory` and index the embedding under `id` for
    /// [`Router::knn`] queries. The *encode* routes by trajectory
    /// fingerprint; the *index entry* lives on replica `id % replicas`.
    pub fn index(&self, id: u64, trajectory: &Trajectory) -> Result<(), ServeError> {
        let emb = self.submit(trajectory)?.wait()?;
        self.index_embedding(id, &emb)
    }

    /// Index a pre-computed embedding under `id` on replica
    /// `id % replicas`.
    pub fn index_embedding(&self, id: u64, embedding: &[f32]) -> Result<(), ServeError> {
        self.replicas[(id % self.replicas.len() as u64) as usize].index_embedding(id, embedding)
    }

    /// Encode the query on its shard, then return its `k` nearest indexed
    /// neighbours across **all** replicas, closest first — bitwise the
    /// single-service answer, including the `(distance, id)` tie-break.
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let emb = self.submit(query)?.wait()?;
        self.knn_embedding(&emb, k)
    }

    /// kNN over a pre-computed query embedding: scatter to every replica,
    /// merge with the shared [`TopK`] ordering.
    pub fn knn_embedding(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let mut top = TopK::new(k);
        for replica in &self.replicas {
            for n in replica.knn_embedding(query, k)? {
                top.push(n.id, n.distance);
            }
        }
        Ok(top.into_sorted())
    }

    /// Drop `id` from its replica's kNN index; returns whether it was
    /// indexed.
    pub fn remove_index(&self, id: u64) -> bool {
        self.replicas[(id % self.replicas.len() as u64) as usize].remove_index(id)
    }

    /// Total embeddings indexed for kNN across all replicas.
    pub fn indexed_len(&self) -> usize {
        self.replicas.iter().map(EmbeddingService::indexed_len).sum()
    }

    /// Ids indexed under a non-current model version, across all replicas,
    /// sorted.
    pub fn stale_indexed_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.replicas.iter().flat_map(|r| r.stale_indexed_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// Per-replica + aggregate counter snapshot.
    pub fn stats(&self) -> RouterStats {
        RouterStats { replicas: self.replicas.iter().map(EmbeddingService::stats).collect() }
    }

    /// Flip every replica into shutdown without joining the workers; see
    /// `EmbeddingService::begin_shutdown`.
    pub fn begin_shutdown(&self) {
        for replica in &self.replicas {
            replica.begin_shutdown();
        }
    }

    /// Stop accepting work, drain every replica, join all workers, and
    /// return the final per-replica stats.
    pub fn shutdown(self) -> RouterStats {
        RouterStats {
            replicas: self.replicas.into_iter().map(EmbeddingService::shutdown).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fold_fingerprint;
    use start_core::Fingerprint;

    /// Regression for the shard/cache aliasing bug: FNV fingerprints whose
    /// low bits share a parity class (exactly what `% replicas` routing
    /// produces) must still fold to well-mixed values, or each replica's
    /// sharded-LRU cache runs at a fraction of its configured capacity.
    #[test]
    fn fold_decorrelates_constant_parity_inputs() {
        let mut low_bit_ones = 0usize;
        let mut low_three = [0usize; 8];
        for k in 0..1024u64 {
            // Both halves even: constant parity in every raw bit-0 view.
            let fp = Fingerprint((((k * 2654435761) as u128) << 65) | ((k as u128) << 1));
            let folded = fold_fingerprint(fp);
            low_bit_ones += (folded & 1) as usize;
            low_three[(folded & 7) as usize] += 1;
        }
        assert!(
            (400..=624).contains(&low_bit_ones),
            "folded bit 0 is biased: {low_bit_ones}/1024 ones"
        );
        for (bucket, &n) in low_three.iter().enumerate() {
            assert!(
                (64..=192).contains(&n),
                "folded low-3-bit bucket {bucket} is biased: {n}/1024"
            );
        }
    }
}
