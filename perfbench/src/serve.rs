//! The `serve_miss` workload, and the pieces every serving workload
//! shares: set-up, the closed-loop client, counter deltas and the
//! serve/router layer metrics.
//!
//! Every serving workload goes through one `Router` of 2 replicas × 1
//! encode worker with every other `ServeConfig` value at its default. The
//! client is a single load thread.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use start_core::{Embedding, StartModel};
use start_serve::{Router, RouterConfig, RouterStats, ServeConfig, ServiceStats};
use start_traj::{TrajDataset, Trajectory};

use crate::inputs::{self, digest, week_shift};
use crate::measure::{self, SetupTimes};
use crate::trace::Tracer;
use crate::{end_to_end, probe, Args, Metrics, Outcome};

const REPLICAS: usize = 2;
/// Requests the `serve_miss` client keeps outstanding.
const WINDOW: usize = 32;
/// Distinct base trajectories `serve_miss` shifts by whole weeks.
const MISS_BASES: usize = 512;
/// Neighbours per kNN query.
pub const KNN_K: usize = 10;
/// Unmeasured load before every timed window.
pub const WARMUP: Duration = Duration::from_millis(700);
/// Complete set-ups before and after the window; `setup_s` is the median
/// of all of them.
pub const SETUP_BEFORE: usize = 5;
pub const SETUP_AFTER: usize = 6;
/// Slices a `serve_*` or `search` window is cut into for its end-to-end
/// figures.
pub const SLICES: usize = 10;

fn router_config() -> RouterConfig {
    let serve = ServeConfig::builder().workers(1).build().expect("default serve config is valid");
    RouterConfig::builder()
        .replicas(REPLICAS)
        .serve(serve)
        .build()
        .expect("benchmark router config is valid")
}

/// What every serving set-up builds: dataset, model and running router.
pub struct Env {
    pub ds: TrajDataset,
    pub model: Arc<StartModel>,
    pub router: Router,
}

pub fn setup() -> Env {
    let ds = inputs::dataset();
    let model = Arc::new(inputs::model(&ds));
    let router = Router::start(Arc::clone(&model), router_config());
    Env { ds, model, router }
}

/// Counter deltas of one window, summed over replicas.
pub struct Delta {
    completed: u64,
    failed: u64,
    batches: u64,
    hits: u64,
    lookups: u64,
    per_replica_completed: Vec<u64>,
    /// Window mean of one batch encode, from the histogram sums.
    encode_mean_us: f64,
    /// Lifetime p50s (power-of-two bucket edges; not window-exact).
    pub queue_wait_p50_us: f64,
    pub encode_p50_us: f64,
}

pub fn delta(before: &RouterStats, after: &RouterStats) -> Delta {
    let sum = |s: &RouterStats, f: &dyn Fn(&ServiceStats) -> u64| -> u64 {
        s.replicas.iter().map(f).sum()
    };
    let d = |f: &dyn Fn(&ServiceStats) -> u64| sum(after, f) - sum(before, f);
    let enc_sum = |s: &RouterStats| -> f64 {
        s.replicas.iter().map(|r| r.encode.mean_us * r.encode.count as f64).sum()
    };
    let enc_count = d(&|r| r.encode.count);
    let p50 = |f: &dyn Fn(&ServiceStats) -> u64| -> f64 {
        after.replicas.iter().map(f).max().unwrap_or(0) as f64
    };
    Delta {
        completed: d(&|r| r.completed),
        failed: d(&|r| r.failed),
        batches: d(&|r| r.batches),
        hits: d(&|r| r.cache.hits),
        lookups: d(&|r| r.cache.hits + r.cache.misses),
        per_replica_completed: before
            .replicas
            .iter()
            .zip(&after.replicas)
            .map(|(b, a)| a.completed - b.completed)
            .collect(),
        encode_mean_us: (enc_sum(after) - enc_sum(before)) / enc_count.max(1) as f64,
        queue_wait_p50_us: p50(&|r| r.queue_wait.p50_us),
        encode_p50_us: p50(&|r| r.encode.p50_us),
    }
}

/// One timed window of a closed-loop client.
struct Served {
    timed: measure::Window,
    /// `(base index, digest of the reply)` per completed request.
    replies: Vec<(u32, u64)>,
    delta: Delta,
}

/// A single client keeping `window` requests outstanding for `run`; the
/// next request is sent only when the oldest reply has been taken.
fn closed_loop<'a>(
    router: &Router,
    window: usize,
    run: Duration,
    next: &mut dyn FnMut() -> (u32, Cow<'a, Trajectory>),
    tracer: &mut Tracer,
    next_id: &mut u64,
) -> Served {
    let before = router.stats();
    let t0 = Instant::now();
    let deadline = t0 + run;
    let mut timed = measure::Window::default();
    let (mut latencies_ms, mut done_at, mut replies) = (Vec::new(), Vec::new(), Vec::new());
    let mut inflight = VecDeque::with_capacity(window);
    let mut submit = |tracer: &mut Tracer, inflight: &mut VecDeque<_>, w: &mut measure::Window| {
        let (base, traj) = next();
        let id = *next_id;
        *next_id += 1;
        let root = tracer.open("request", None, id);
        let sent = Instant::now();
        w.attempted += 1;
        match tracer.span("router.submit", root, id, || router.submit(&traj)) {
            Ok(handle) => inflight.push_back((id, base, sent, root, handle)),
            Err(e) => {
                eprintln!("request {id}: submit refused: {e}");
                w.failed += 1;
                tracer.close(root);
            }
        }
    };
    for _ in 0..window {
        submit(tracer, &mut inflight, &mut timed);
    }
    while let Some((id, base, sent, root, handle)) = inflight.pop_front() {
        let reply = tracer.span("reply.wait", root, id, || handle.wait());
        let done = Instant::now();
        tracer.close(root);
        match reply {
            Ok(emb) => {
                latencies_ms.push((done - sent).as_secs_f64() * 1e3);
                done_at.push((done - t0).as_secs_f64());
                replies.push((base, digest(&emb)));
            }
            Err(e) => {
                eprintln!("request {id}: {e}");
                timed.failed += 1;
            }
        }
        if done < deadline {
            submit(tracer, &mut inflight, &mut timed);
        }
    }
    timed.sliced(&done_at, &latencies_ms, run.as_secs_f64(), SLICES);
    Served { timed, replies, delta: delta(&before, &router.stats()) }
}

/// Replies whose digest differs from the offline reference of their base.
fn check_replies(replies: &[(u32, u64)], reference: &[Embedding]) -> usize {
    let want: Vec<u64> = reference.iter().map(|e| digest(e)).collect();
    replies.iter().filter(|&&(b, d)| want[b as usize] != d).count()
}

/// Per-layer serving figures from a window's counters and spans.
pub fn serve_layer_metrics(m: &mut Metrics, d: &Delta, tracer: &Tracer) {
    m.push("serve.queue_wait_p50_us", d.queue_wait_p50_us, "us");
    m.push("serve.batch_encode_p50_us", d.encode_p50_us, "us");
    m.push(
        "serve.mean_batch_size",
        (d.completed + d.failed) as f64 / d.batches.max(1) as f64,
        "count",
    );
    m.push("serve.batches_per_request", d.batches as f64 / d.completed.max(1) as f64, "ratio");
    m.push("serve.cache_hit_rate", d.hits as f64 / d.lookups.max(1) as f64, "ratio");
    let submit_us: Vec<f64> =
        tracer.durations_ms("router.submit").iter().map(|x| x * 1e3).collect();
    m.push("router.submit_us", measure::median(&submit_us).unwrap_or(f64::NAN), "us");
    let counts: Vec<f64> = d.per_replica_completed.iter().map(|&c| c as f64).collect();
    let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
    let max = counts.iter().copied().fold(0.0, f64::max);
    m.push("router.shard_skew", max / mean.max(1.0), "ratio");
}

/// Predicted over measured throughput: every replica completing one mean
/// batch per mean batch-encode time.
fn batch_reconcile(d: &Delta, measured: f64) -> f64 {
    let mean_batch = (d.completed + d.failed) as f64 / d.batches.max(1) as f64;
    REPLICAS as f64 * mean_batch / (d.encode_mean_us / 1e6) / measured
}

/// Time `index_embedding` and `knn_embedding` on the router's own index
/// after the window: `inserts` more entries (copies of `embs`), then 256
/// searches for `embs`.
pub fn index_probe(router: &Router, embs: &[Embedding], inserts: usize, tracer: &mut Tracer) {
    const PROBE_ID0: u64 = 1 << 40;
    for i in 0..inserts {
        let id = PROBE_ID0 + i as u64;
        let v = &embs[i % embs.len()];
        tracer
            .span("router.index_insert", None, id, || router.index_embedding(id, v))
            .expect("probe insert");
    }
    for (i, q) in embs.iter().cycle().take(256).enumerate() {
        tracer
            .span("router.knn_search", None, i as u64, || router.knn_embedding(q, KNN_K))
            .expect("probe knn");
    }
}

/// Time `Router::submit` of each of `trajs` after the window, for a
/// workload whose own ops submit inside `Router::knn` and `Router::index`.
pub fn submit_probe(router: &Router, trajs: &[Trajectory], tracer: &mut Tracer) {
    for (i, t) in trajs.iter().enumerate() {
        tracer
            .span("router.submit", None, i as u64, || router.submit(t))
            .and_then(|handle| handle.wait())
            .expect("probe submit");
    }
}

pub fn knn_layer_metrics(m: &mut Metrics, tracer: &Tracer) {
    let knn = measure::median(&tracer.durations_ms("router.knn_search")).unwrap_or(f64::NAN);
    m.push("router.knn_search_ms", knn, "ms");
    let ins: Vec<f64> =
        tracer.durations_ms("router.index_insert").iter().map(|x| x * 1e3).collect();
    m.push("router.index_insert_us", measure::median(&ins).unwrap_or(f64::NAN), "us");
}

/// Request `i` of a miss stream: round `i / n` sends every base once,
/// shifted by `round + 1` weeks, so no request repeats.
fn miss_request(bases: &[Trajectory], i: usize) -> (u32, Cow<'static, Trajectory>) {
    let b = i % bases.len();
    (b as u32, Cow::Owned(week_shift(&bases[b], 1 + (i / bases.len()) as i64)))
}

/// For the `train` workload: serve the checkpoint it trained with a short
/// `serve_miss`-shaped load, then probe the kNN endpoints, to give the
/// serve and router layer metrics.
pub fn serving_probe(
    m: &mut Metrics,
    ds: &TrajDataset,
    model: &Arc<StartModel>,
    seed: u64,
    tracer: &mut Tracer,
) {
    let router = Router::start(Arc::clone(model), router_config());
    let bases = inputs::sample_bases(ds, MISS_BASES, &mut inputs::rng(seed, 1));
    let mut i = 0;
    let mut next = || {
        i += 1;
        miss_request(&bases, i - 1)
    };
    let served = closed_loop(&router, WINDOW, Duration::from_secs(1), &mut next, tracer, &mut 0);
    serve_layer_metrics(m, &served.delta, tracer);
    index_probe(&router, &inputs::reference(model, &bases), 4096, tracer);
    knn_layer_metrics(m, tracer);
    router.shutdown();
}

/// `serve_miss`: one closed-loop client over never-seen week shifts of
/// `MISS_BASES` bases, so every micro-batch pays the road stage.
pub fn run_serve_miss(args: &Args) -> Outcome {
    let mut setups = SetupTimes::default();
    let env = setups.keep_last(SETUP_BEFORE, setup);
    let bases = inputs::sample_bases(&env.ds, MISS_BASES, &mut inputs::rng(args.seed, 1));
    let mut counter = 0;
    let mut next = || {
        counter += 1;
        miss_request(&bases, counter - 1)
    };
    let epoch = Instant::now();
    let mut next_id = 0u64;
    let mut quiet = Tracer::new(false, epoch);
    closed_loop(&env.router, WINDOW, WARMUP, &mut next, &mut quiet, &mut next_id);
    let run = Duration::from_secs_f64(args.seconds);
    let (plain, mut traced) = measure::plain_then_traced(args.trace, run, epoch, |len, tracer| {
        closed_loop(&env.router, WINDOW, len, &mut next, tracer, &mut next_id)
    });
    // Peak RSS is read before any oracle allocates or set-up repeats.
    let rss = measure::peak_rss_mb();
    if !args.trace {
        setups.repeat(SETUP_AFTER, setup);
    }
    let mut m = Metrics::default();
    let mut errors = Vec::new();

    // Oracles and guards, outside the timed window.
    let reference = inputs::reference(&env.model, &bases);
    let windows: Vec<&Served> =
        std::iter::once(&plain).chain(traced.as_ref().map(|(w, _)| w)).collect();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, w) in windows.iter().enumerate() {
        attempted += w.timed.attempted;
        let wrong = check_replies(&w.replies, &reference);
        failed += w.timed.failed + wrong as u64;
        if i == 0 && !args.trace {
            let correct = (w.replies.len() - wrong) as u64;
            end_to_end(&mut m, &w.timed, correct, rss, &setups, &mut errors);
        }
        if wrong > 0 {
            errors.push(format!("{wrong} replies differ from the offline encoding of their base"));
        }
        if w.delta.hits != 0 {
            let hit_rate = w.delta.hits as f64 / w.delta.lookups.max(1) as f64;
            errors.push(format!("guard: serve_miss cache hit rate {hit_rate} (must be 0)"));
        }
    }
    if let Some((_, tracer)) = &mut traced {
        index_probe(&env.router, &reference, 4096, tracer);
    }
    // The router stops before the layer probes, so every workload probes
    // its layers in the same otherwise idle process.
    let router_stats = env.router.shutdown();
    if router_stats.rejected() != 0 {
        errors.push(format!("router rejected {} requests", router_stats.rejected()));
    }
    if let Some((traced, mut tracer)) = traced {
        serve_layer_metrics(&mut m, &traced.delta, &tracer);
        knn_layer_metrics(&mut m, &tracer);
        m.push("trace.overhead_pct", measure::overhead_pct(&plain.timed, &traced.timed), "%");
        m.push(
            "trace.reconcile_ratio",
            batch_reconcile(&traced.delta, traced.timed.throughput()),
            "ratio",
        );
        probe::layers(&mut m, &env.ds, &env.model, &bases, args.seed, &mut tracer);
        crate::write_trace(args, &tracer);
    }
    Outcome { attempted, failed, errors, metrics: m }
}
