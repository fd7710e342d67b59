//! Executable concurrency models for the sharded-LRU [`EmbeddingCache`]
//! and the shared eval road table, explored by the `start_sync` model
//! checker. The real types run under the checker (their `Mutex`es and
//! atomics are shim primitives), so every interleaving of concurrent
//! inserts, lookups and first road-table computations is checked for
//! deadlock and for coherence.
//!
//! CI floor: at least 1,000 distinct clean schedules per cache model and
//! 150 for the road-table model, pinned seeds.

use start_core::{EmbeddingCache, Fingerprint, StartConfig, StartModel};
use start_roadnet::synth::{generate_city, CityConfig};
use start_sync::model::{check, spawn_named, ModelConfig};
use start_sync::Arc;

const MIN_SCHEDULES: usize = 1_000;

fn cfg() -> ModelConfig {
    ModelConfig { max_schedules: 1_500, random_iters: 200, ..ModelConfig::default() }
}

/// Two threads populate disjoint fingerprints on a 2-shard cache. Whatever
/// the interleaving: every entry lands, every lookup hits, and the counter
/// snapshot is exact after join.
#[test]
fn cache_shard_insert_get_model_is_clean() {
    let report = check(&cfg(), || {
        let cache = Arc::new(EmbeddingCache::with_shards(8, 2));
        let c1 = Arc::clone(&cache);
        let t1 = spawn_named("insert-1", move || {
            c1.insert(Fingerprint(1), vec![1.0]);
            c1.insert(Fingerprint(3), vec![3.0]);
            assert_eq!(c1.get(Fingerprint(1)), Some(vec![1.0]), "own insert must hit");
            assert_eq!(c1.get(Fingerprint(3)), Some(vec![3.0]), "own insert must hit");
        });
        let c2 = Arc::clone(&cache);
        let t2 = spawn_named("insert-2", move || {
            c2.insert(Fingerprint(2), vec![2.0]);
            c2.insert(Fingerprint(4), vec![4.0]);
            assert_eq!(c2.get(Fingerprint(2)), Some(vec![2.0]), "own insert must hit");
            assert_eq!(c2.get(Fingerprint(4)), Some(vec![4.0]), "own insert must hit");
        });
        let _ = t1.join();
        let _ = t2.join();
        for fp in 1..=4u128 {
            assert_eq!(cache.get(Fingerprint(fp)), Some(vec![fp as f32]));
        }
        assert_eq!(cache.get(Fingerprint(5)), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.hits, 8, "hit tally lost under contention");
        assert_eq!(stats.misses, 1);
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// Racing writers on the SAME fingerprint with a racing reader: last write
/// wins per schedule, but every schedule must end with exactly one entry
/// holding one of the two written values — never a torn mix, never a
/// duplicate — and the reader only ever observes a complete value.
#[test]
fn cache_same_key_write_race_model_is_clean() {
    let report = check(&cfg(), || {
        let cache = Arc::new(EmbeddingCache::with_shards(4, 2));
        let ok = |v: &Option<Vec<f32>>| match v {
            None => true,
            Some(e) => *e == vec![1.0, 1.0] || *e == vec![2.0, 2.0],
        };
        let c1 = Arc::clone(&cache);
        let t1 = spawn_named("writer-a", move || {
            c1.insert(Fingerprint(9), vec![1.0, 1.0]);
            assert!(ok(&c1.get(Fingerprint(9))), "torn read");
            c1.insert(Fingerprint(9), vec![1.0, 1.0]);
        });
        let c2 = Arc::clone(&cache);
        let t2 = spawn_named("writer-b", move || {
            c2.insert(Fingerprint(9), vec![2.0, 2.0]);
            assert!(ok(&c2.get(Fingerprint(9))), "torn read");
            c2.insert(Fingerprint(9), vec![2.0, 2.0]);
        });
        let c3 = Arc::clone(&cache);
        let t3 = spawn_named("reader", move || {
            assert!(ok(&c3.get(Fingerprint(9))), "torn read");
            assert!(ok(&c3.get(Fingerprint(9))), "torn read");
        });
        let _ = t1.join();
        let _ = t2.join();
        let _ = t3.join();
        assert_eq!(cache.len(), 1, "same-key race must not duplicate the entry");
        let got = cache.get(Fingerprint(9));
        assert!(got.is_some() && ok(&got), "torn value escaped the shard lock: {got:?}");
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// Two replicas' workers race the first `road_table()` of one shared model:
/// in every interleaving exactly one computes it and both receive the same
/// `Arc` (the table a `Router` shares across replicas), never two copies.
#[test]
fn road_table_first_use_race_model_is_clean() {
    let net = Arc::new(generate_city("t", &CityConfig::tiny()).net);
    let cfg = ModelConfig { max_schedules: 200, random_iters: 50, ..ModelConfig::default() };
    let report = check(&cfg, move || {
        let model = Arc::new(StartModel::new(StartConfig::test_scale(), &net, None, None, 7));
        let racer = |name: &'static str| {
            let m = Arc::clone(&model);
            spawn_named(name, move || m.road_table())
        };
        let (a, b) = (racer("replica-a"), racer("replica-b"));
        let (a, b) = (a.join().expect("racer a"), b.join().expect("racer b"));
        assert!(Arc::ptr_eq(&a, &b), "racing first uses built two road tables");
        assert!(Arc::ptr_eq(&a, &model.road_table()), "a settled table was rebuilt");
    });
    report.assert_clean();
    // Each execution builds a model and runs the road stage, so this model
    // explores fewer schedules than the cache models; the computation's own
    // atomics (parameter stamps, kernel dispatch) still give it over 150.
    assert!(report.distinct_schedules >= 150, "only {} schedules", report.distinct_schedules);
}
