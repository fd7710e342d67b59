//! Per-layer probes of `start_core` and `start_nn`, driven through their
//! public calls with the workload's own trajectories. Each probe's calls
//! are wrapped in spans; its metric is the median span.

use std::hint::black_box;
use std::mem::size_of;
use std::sync::Mutex;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use start_core::{
    build_shard_loss, clamp_view, fingerprint_view, EmbeddingCache, EncodeOptions, StartModel,
};
use start_nn::{AdamW, AdamWConfig, Array, BatchTrainer, BufferPool, GradStore, Graph, PoolStats};
use start_traj::{TrajDataset, TrajView, Trajectory};

use crate::inputs;
use crate::measure::median;
use crate::trace::Tracer;
use crate::Metrics;

/// The `train` workload's pretrain settings, shared with the step probe.
pub const BATCH: usize = 16;
pub const WORKERS: usize = 2;
pub const LR: f32 = 1e-3;
const GRAD_CLIP: f32 = 5.0;
/// Repetitions of each timed probe call; the first is a warm-up.
const REPS: usize = 12;
/// Optimizer steps the training-step probe takes; the first is a warm-up.
const PROBE_STEPS: usize = 8;
/// Views a serving micro-batch holds at `max_batch`.
const SERVE_BATCH: usize = 16;

/// Median milliseconds of the spans named `name`, leaving out repetition
/// 0 (the warm-up).
fn span_median(tracer: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && s.request != 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    median(&d).unwrap_or(f64::NAN)
}

/// Run every probe and push its metric; returns forward + backward +
/// optimizer milliseconds of one training step, for reconciliation.
pub fn layers(
    m: &mut Metrics,
    ds: &TrajDataset,
    model: &StartModel,
    trajs: &[Trajectory],
    seed: u64,
    tracer: &mut Tracer,
) -> f64 {
    let max_len = model.cfg.max_len;
    let views: Vec<TrajView> =
        trajs.iter().map(|t| clamp_view(TrajView::identity(t), max_len)).collect();
    core_probes(m, model, &views, tracer);
    matmul_probe(m, model, &views, tracer);
    train_probe(m, ds, seed, tracer)
}

fn core_probes(m: &mut Metrics, model: &StartModel, views: &[TrajView], tracer: &mut Tracer) {
    let mut pool = BufferPool::new();
    for i in 0..REPS {
        let mut g = Graph::with_pool(&model.store, false, pool);
        tracer.span("core.road_stage", None, i as u64, || {
            let roads = model.road_reprs(&mut g);
            black_box(g.value(roads).len())
        });
        pool = g.into_pool();
    }
    m.push("core.road_stage_ms", span_median(tracer, "core.road_stage"), "ms");

    let mut g = Graph::with_pool(&model.store, false, pool);
    let roads = model.road_reprs(&mut g);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for (i, view) in views.iter().take(256).enumerate() {
        tracer.span("core.view_encode", None, i as u64, || {
            let enc = model.encode_view(&mut g, view, roads, &mut rng);
            black_box(g.value(enc.pooled).row(0)[0]);
            g.forward_release(&[roads]);
        });
    }
    let pool = g.into_pool();
    let us: Vec<f64> = tracer.durations_ms("core.view_encode").iter().map(|x| x * 1e3).collect();
    m.push("core.view_encode_us", median(&us).unwrap_or(f64::NAN), "us");

    // A serving miss batch: 16 distinct views, one road stage, no cache.
    let opts = EncodeOptions { chunk: SERVE_BATCH, ..EncodeOptions::default() };
    let encoder = model.encoder();
    let mut pool = pool;
    for (i, batch) in views.chunks_exact(SERVE_BATCH).cycle().take(REPS).enumerate() {
        let (out, back) = tracer
            .span("core.batch_encode", None, i as u64, || {
                encoder.encode_views_pooled(batch, &opts, pool)
            })
            .expect("probe batch encode");
        black_box(out);
        pool = back;
    }
    m.push("core.batch_encode_ms", span_median(tracer, "core.batch_encode"), "ms");

    // Fingerprints and cache reads are ~µs: time a pass over every view.
    let n = views.len() as f64;
    for i in 0..REPS {
        tracer.span("core.fingerprint_pass", None, i as u64, || {
            for v in views {
                black_box(fingerprint_view(v));
            }
        });
    }
    m.push("core.fingerprint_us", span_median(tracer, "core.fingerprint_pass") * 1e3 / n, "us");
    let cache = EmbeddingCache::with_shards(4096, 8);
    let fps: Vec<_> = views.iter().map(fingerprint_view).collect();
    for fp in &fps {
        cache.insert(*fp, vec![0.5; model.cfg.dim]);
    }
    for i in 0..REPS {
        tracer.span("core.cache_get_pass", None, i as u64, || {
            for fp in &fps {
                black_box(cache.get(*fp));
            }
        });
    }
    m.push("core.cache_get_us", span_median(tracer, "core.cache_get_pass") * 1e3 / n, "us");
}

/// One TAT-Enc projection at the workload's median view shape:
/// `(T+1, d) @ (d, d)`.
fn matmul_probe(m: &mut Metrics, model: &StartModel, views: &[TrajView], tracer: &mut Tracer) {
    const CALLS: usize = 200;
    let mut lens: Vec<usize> = views.iter().map(|v| v.len() + 1).collect();
    lens.sort_unstable();
    let t = lens[lens.len() / 2];
    let d = model.cfg.dim;
    let mut pool = BufferPool::new();
    for i in 0..REPS {
        let mut g = Graph::with_pool(&model.store, false, pool);
        let a = g.input(Array::from_fn(t, d, |r, c| ((r * 7 + c) % 13) as f32 * 0.1));
        let b = g.input(Array::from_fn(d, d, |r, c| ((r + c * 3) % 11) as f32 * 0.1));
        tracer.span("nn.matmul_view_x200", None, i as u64, || {
            for _ in 0..CALLS {
                black_box(g.matmul(a, b));
            }
        });
        pool = g.into_pool();
    }
    let flops = 2.0 * (t * d * d * CALLS) as f64;
    let secs = span_median(tracer, "nn.matmul_view_x200") / 1e3;
    m.push("nn.matmul_view_gflops", flops / secs / 1e9, "GFLOP/s");
}

/// What the shard closure records on a worker thread: the forward
/// (`build_shard_loss`) interval, the tape, and the worker's pool counters
/// on entry.
struct ShardSample {
    /// Offset of the shard in its batch: the same worker, step after step.
    offset: usize,
    start: Instant,
    end: Instant,
    nodes: usize,
    tape_bytes: usize,
    pool: PoolStats,
}

/// Optimizer steps of the real `BatchTrainer::step` on a fresh model, its
/// shard closure timing `build_shard_loss` and reading the tape. Backward
/// (and the gradient merge) is the trainer step's time after its longest
/// forward; the optimizer is timed outside the step. Returns forward +
/// backward + optimizer milliseconds, for reconciliation.
fn train_probe(m: &mut Metrics, ds: &TrajDataset, seed: u64, tracer: &mut Tracer) -> f64 {
    let mut model = inputs::model(ds);
    let train = ds.train();
    let mut trainer = BatchTrainer::new(WORKERS, seed);
    let mut optimizer = AdamW::new(&model.store, AdamWConfig { lr: LR, ..Default::default() });
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.shuffle(&mut inputs::rng(seed, 4));
    let mut seq_rng = rand::rngs::StdRng::seed_from_u64(seed);

    let mut pool = BufferPool::new();
    for i in 0..REPS {
        let mut g = Graph::with_pool(&model.store, true, pool);
        tracer.span("train.road_stage", None, i as u64, || {
            let roads = model.road_reprs(&mut g);
            black_box(g.value(roads).len())
        });
        pool = g.into_pool();
    }

    let (mut backward, mut peak) = (Vec::new(), 0usize);
    let mut samples: Vec<Vec<ShardSample>> = Vec::new();
    for step in 0..PROBE_STEPS {
        let batch = &order[step * BATCH..(step + 1) * BATCH];
        let recorded = Mutex::new(Vec::new());
        let shard_loss = |g: &mut Graph, shard: &[usize], r: &mut rand::rngs::StdRng| {
            let pool = g.pool_stats();
            let start = Instant::now();
            let res = build_shard_loss(&model, train, &ds.historical, g, shard, r);
            let end = Instant::now();
            let offset = (shard.as_ptr() as usize - batch.as_ptr() as usize) / size_of::<usize>();
            let (nodes, tape_bytes) = (g.num_nodes(), g.memory_stats().peak_bytes);
            let sample = ShardSample { offset, start, end, nodes, tape_bytes, pool };
            recorded.lock().expect("probe sample lock").push(sample);
            res
        };
        let root = tracer.open("probe.train_step", None, step as u64);
        let mut grads = GradStore::new(&model.store);
        let t0 = Instant::now();
        let stats = trainer
            .step(&model.store, &mut grads, step as u64, batch, 2, &mut seq_rng, &shard_loss)
            .expect("probe batch yields a loss");
        let t1 = Instant::now();
        let step_span = tracer.record("train.trainer_step", t0, t1, root, step as u64);
        let mut shards = recorded.into_inner().expect("probe sample lock");
        shards.sort_by_key(|s| s.offset);
        for s in &shards {
            tracer.record("train.forward", s.start, s.end, step_span, step as u64);
        }
        let longest = shards.iter().map(|s| s.end - s.start).max().unwrap_or_default();
        if step > 0 {
            backward.push((t1 - t0).saturating_sub(longest).as_secs_f64() * 1e3);
        }
        let planned = stats.memory.iter().map(|r| r.actual_peak_bytes);
        peak = peak.max(planned.chain(shards.iter().map(|s| s.tape_bytes)).max().unwrap_or(0));
        samples.push(shards);
        tracer.span("train.optimizer", root, step as u64, || {
            grads.clip_global_norm(GRAD_CLIP);
            optimizer.step(&mut model.store, &grads, LR);
        });
        tracer.close(root);
    }
    // Pool counters on entry to step 1 and to the last step span the full
    // forward and backward of every step in between.
    let (first, last) = (&samples[1], &samples[PROBE_STEPS - 1]);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (a, b) in first.iter().zip(last) {
        hits += b.pool.hits - a.pool.hits;
        lookups += (b.pool.hits + b.pool.misses) - (a.pool.hits + a.pool.misses);
    }
    let nodes: Vec<f64> = samples.iter().flatten().map(|s| s.nodes as f64).collect();
    let fwd = span_median(tracer, "train.forward");
    let bwd = median(&backward).unwrap_or(f64::NAN);
    let opt = span_median(tracer, "train.optimizer");
    m.push("train.forward_ms", fwd, "ms");
    m.push("train.backward_ms", bwd, "ms");
    m.push("train.optimizer_ms", opt, "ms");
    m.push("train.road_stage_ms", span_median(tracer, "train.road_stage"), "ms");
    m.push("train.tape_nodes", nodes.iter().sum::<f64>() / nodes.len() as f64, "count");
    m.push("train.pool_hit_rate", hits as f64 / lookups.max(1) as f64, "ratio");
    m.push("train.tape_peak_mb", peak as f64 / (1 << 20) as f64, "MB");
    fwd + bwd + opt
}
