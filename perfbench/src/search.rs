//! The `search` workload: one client blocking on each reply against an
//! index pre-filled to 50 000 entries. Four of every five ops are
//! `Router::knn` reads of cached trajectories; the fifth is a
//! `Router::index` write of a new week-shifted trajectory, so a gain for
//! the scan that costs the miss path (or the reverse) shows.

use std::time::{Duration, Instant};

use rand::Rng;
use start_core::{euclidean, Embedding};
use start_serve::{Neighbor, Router};
use start_traj::Trajectory;

use crate::inputs::{self, week_shift};
use crate::measure::{self, SetupTimes};
use crate::serve::{self, Delta, Env, KNN_K, SETUP_AFTER, SETUP_BEFORE, SLICES, WARMUP};
use crate::trace::Tracer;
use crate::{end_to_end, probe, Args, Metrics, Outcome};

/// Cached query trajectories.
const BASES: usize = 256;
/// Index entries inserted at set-up.
const PREFILL: usize = 50_000;
/// Half-width of the uniform noise that spreads pre-fill entries around
/// their base embedding.
const PREFILL_NOISE: f32 = 0.05;
/// Every fifth op is a write.
const WRITE_EVERY: u64 = 5;

/// The serving set-up plus the cached query trajectories and the index
/// pre-fill (its entries kept, in insertion order, for the oracle).
fn setup(seed: u64) -> (Env, Vec<Trajectory>, Vec<Embedding>) {
    let env = serve::setup();
    let bases = inputs::sample_bases(&env.ds, BASES, &mut inputs::rng(seed, 1));
    let embs = env.router.encode(&bases).expect("search working-set encode");
    let mut rng = inputs::rng(seed, 3);
    let prefill: Vec<Embedding> = (0..PREFILL)
        .map(|id| {
            let v: Embedding = embs[id % embs.len()]
                .iter()
                .map(|x| x + rng.gen_range(-PREFILL_NOISE..PREFILL_NOISE))
                .collect();
            env.router.index_embedding(id as u64, &v).expect("index pre-fill");
            v
        })
        .collect();
    (env, bases, prefill)
}

/// One `search` op, as recorded for the oracle.
enum Op {
    Read { base: u32, writes_before: u32, answer: Vec<Neighbor> },
    Write { base: u32 },
}

struct Searched {
    timed: measure::Window,
    /// Latency of each completed op, in completion order, beside `ops`.
    latencies_ms: Vec<f64>,
    ops: Vec<Op>,
    delta: Delta,
}

/// A single client blocking on each reply: four `knn` reads of cached
/// trajectories, then one `index` write of a new week-shifted trajectory.
fn search_loop(
    router: &Router,
    bases: &[Trajectory],
    run: Duration,
    rng: &mut rand::rngs::StdRng,
    op_index: &mut u64,
    writes: &mut u64,
    tracer: &mut Tracer,
) -> Searched {
    let before = router.stats();
    let t0 = Instant::now();
    let deadline = t0 + run;
    let mut timed = measure::Window::default();
    let (mut latencies_ms, mut done_at, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    while Instant::now() < deadline {
        let k = *op_index;
        *op_index += 1;
        timed.attempted += 1;
        let sent = Instant::now();
        let result = if k % WRITE_EVERY == WRITE_EVERY - 1 {
            let n = *writes as usize;
            *writes += 1;
            let base = (n % bases.len()) as u32;
            let t = week_shift(&bases[base as usize], 1 + (n / bases.len()) as i64);
            let id = (PREFILL + n) as u64;
            tracer
                .span("router.index", None, k, || router.index(id, &t))
                .map(|()| Op::Write { base })
        } else {
            let base = rng.gen_range(0..bases.len()) as u32;
            let q = &bases[base as usize];
            tracer.span("router.knn", None, k, || router.knn(q, KNN_K)).map(|answer| Op::Read {
                base,
                writes_before: *writes as u32,
                answer,
            })
        };
        let done = Instant::now();
        match result {
            Ok(op) => {
                latencies_ms.push((done - sent).as_secs_f64() * 1e3);
                done_at.push((done - t0).as_secs_f64());
                ops.push(op);
            }
            Err(e) => {
                eprintln!("op {k}: {e}");
                timed.failed += 1;
            }
        }
    }
    timed.sliced(&done_at, &latencies_ms, run.as_secs_f64(), SLICES);
    Searched { timed, latencies_ms, ops, delta: serve::delta(&before, &router.stats()) }
}

/// The exact answer: every entry indexed before the read, scanned in full
/// and ordered by `(distance, id)`.
fn exact_knn<'a>(
    query: &[f32],
    entries: impl Iterator<Item = (u64, &'a [f32])>,
    k: usize,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> =
        entries.map(|(id, v)| Neighbor { id, distance: euclidean(query, v) }).collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// Whether a served answer matches the exact one: same ids in the same
/// order, distances equal to within f32 summation-order rounding.
fn same_answer(got: &[Neighbor], want: &[Neighbor]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.id == w.id && (g.distance - w.distance).abs() <= 1e-5 * w.distance.abs().max(1.0)
        })
}

/// For each op, whether it is a read whose answer differs from the exact
/// scan of the index as it stood at query time. The pre-fill part of each
/// scan depends only on the query base, so it is computed once per base.
fn check_search(ops: &[&Op], reference: &[Embedding], prefill: &[Embedding]) -> Vec<bool> {
    let writes: Vec<(u64, &[f32])> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Write { base } => Some(reference[*base as usize].as_slice()),
            Op::Read { .. } => None,
        })
        .enumerate()
        .map(|(n, v)| ((PREFILL + n) as u64, v))
        .collect();
    let mut prefill_top: Vec<Option<Vec<Neighbor>>> = vec![None; reference.len()];
    ops.iter()
        .map(|op| {
            let Op::Read { base, writes_before, answer } = op else { return false };
            let q = &reference[*base as usize];
            let top = prefill_top[*base as usize].get_or_insert_with(|| {
                exact_knn(
                    q,
                    prefill.iter().enumerate().map(|(id, v)| (id as u64, v.as_slice())),
                    KNN_K,
                )
            });
            let candidates = top.iter().map(|n| (n.id, prefill[n.id as usize].as_slice()));
            let want = exact_knn(
                q,
                candidates.chain(writes[..*writes_before as usize].iter().copied()),
                KNN_K,
            );
            !same_answer(answer, &want)
        })
        .collect()
}

pub fn run_search(args: &Args) -> Outcome {
    let mut setups = SetupTimes::default();
    let (env, bases, prefill) = setups.keep_last(SETUP_BEFORE, || setup(args.seed));
    let bases = &bases;
    let epoch = Instant::now();
    let mut rng = inputs::rng(args.seed, 2);
    let (mut op_index, mut writes) = (0u64, 0u64);
    let mut quiet = Tracer::new(false, epoch);
    let warm =
        search_loop(&env.router, bases, WARMUP, &mut rng, &mut op_index, &mut writes, &mut quiet);
    let run = Duration::from_secs_f64(args.seconds);
    let (plain, traced) = measure::plain_then_traced(args.trace, run, epoch, |len, tracer| {
        search_loop(&env.router, bases, len, &mut rng, &mut op_index, &mut writes, tracer)
    });
    let rss = measure::peak_rss_mb();
    if !args.trace {
        setups.repeat(SETUP_AFTER, || setup(args.seed));
    }
    let mut m = Metrics::default();
    let mut errors = Vec::new();

    let reference = inputs::reference(&env.model, bases);
    let all_ops: Vec<&Op> =
        warm.ops.iter().chain(&plain.ops).chain(traced.iter().flat_map(|(w, _)| &w.ops)).collect();
    let dropped =
        warm.timed.failed + plain.timed.failed + traced.as_ref().map_or(0, |(w, _)| w.timed.failed);
    if dropped > 0 {
        // A failed write leaves the oracle's write numbering unknowable.
        errors.push(format!("{dropped} search ops failed"));
    }
    let wrong = check_search(&all_ops, &reference, &prefill);
    let wrong_in =
        |from: usize, len: usize| wrong[from..from + len].iter().filter(|&&w| w).count() as u64;
    let total_wrong = wrong_in(0, wrong.len());
    if total_wrong > 0 {
        errors.push(format!("{total_wrong} kNN answers differ from the exact scan"));
    }
    if !args.trace {
        let correct = plain.ops.len() as u64 - wrong_in(warm.ops.len(), plain.ops.len());
        end_to_end(&mut m, &plain.timed, correct, rss, &setups, &mut errors);
    }
    let attempted = plain.timed.attempted + traced.as_ref().map_or(0, |(w, _)| w.timed.attempted);
    let failed =
        plain.timed.failed + traced.as_ref().map_or(0, |(w, _)| w.timed.failed) + total_wrong;

    if let Some((traced, mut tracer)) = traced {
        // The layers under the traced ops, probed after the window on the
        // same router: submit of a cached query, and the index's own
        // insert and scan on its 50 000+ entries.
        serve::submit_probe(&env.router, bases, &mut tracer);
        serve::index_probe(&env.router, &reference, 256, &mut tracer);
        serve::serve_layer_metrics(&mut m, &traced.delta, &tracer);
        serve::knn_layer_metrics(&mut m, &tracer);
        m.push("trace.overhead_pct", measure::overhead_pct(&plain.timed, &traced.timed), "%");
        // A cached read is a queue wait, a cache-hit batch and a scan;
        // their medians against the traced read latency median.
        let reads: Vec<f64> = traced
            .ops
            .iter()
            .zip(&traced.latencies_ms)
            .filter(|(op, _)| matches!(op, Op::Read { .. }))
            .map(|(_, &l)| l)
            .collect();
        let parts = (traced.delta.queue_wait_p50_us + traced.delta.encode_p50_us) / 1e3
            + measure::median(&tracer.durations_ms("router.knn_search")).unwrap_or(f64::NAN);
        m.push(
            "trace.reconcile_ratio",
            parts / measure::median(&reads).unwrap_or(f64::NAN),
            "ratio",
        );
        // The router stops before the layer probes, so every workload
        // probes its layers in the same otherwise idle process.
        drop(env.router);
        probe::layers(&mut m, &env.ds, &env.model, bases, args.seed, &mut tracer);
        crate::write_trace(args, &tracer);
    }
    Outcome { attempted, failed, errors, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_serve::EmbeddingStore;

    fn store(entries: &[(u64, [f32; 2])]) -> EmbeddingStore {
        let mut s = EmbeddingStore::new(2);
        for (id, v) in entries {
            s.insert(*id, v).unwrap();
        }
        s
    }

    #[test]
    fn exact_knn_matches_the_served_index_with_ties() {
        // Ids 4 and 2 are equidistant from the query: ascending id wins.
        let entries =
            [(4, [1.0, 0.0]), (2, [-1.0, 0.0]), (7, [0.0, 3.0]), (9, [0.5, 0.5]), (1, [5.0, 5.0])];
        let s = store(&entries);
        let q = [0.0, 0.0];
        for k in 1..=entries.len() {
            let served = s.knn(&q, k).unwrap();
            let exact = exact_knn(&q, entries.iter().map(|(id, v)| (*id, v.as_slice())), k);
            assert!(same_answer(&served, &exact), "k={k}: {served:?} vs {exact:?}");
        }
        let exact = exact_knn(&q, entries.iter().map(|(id, v)| (*id, v.as_slice())), 3);
        assert_eq!(exact.iter().map(|n| n.id).collect::<Vec<_>>(), vec![9, 2, 4]);
        let mut wrong = exact.clone();
        wrong.swap(1, 2);
        assert!(!same_answer(&wrong, &exact), "tie order is part of the answer");
        assert!(!same_answer(&exact[..2], &exact));
    }

    #[test]
    fn search_oracle_sees_only_writes_before_the_read() {
        let reference = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        let prefill = vec![vec![3.0, 0.0]; 4];
        let top = |ids: &[u64], d: &[f32]| -> Vec<Neighbor> {
            ids.iter().zip(d).map(|(&id, &distance)| Neighbor { id, distance }).collect()
        };
        let w = PREFILL as u64;
        // Base 0's write lands at distance 0 and must appear only in reads
        // issued after it.
        let before = Op::Read { base: 0, writes_before: 0, answer: top(&[0, 1, 2, 3], &[3.0; 4]) };
        let write = Op::Write { base: 0 };
        let after_ok = Op::Read {
            base: 0,
            writes_before: 1,
            answer: top(&[w, 0, 1, 2, 3], &[0.0, 3.0, 3.0, 3.0, 3.0]),
        };
        let after_stale =
            Op::Read { base: 0, writes_before: 1, answer: top(&[0, 1, 2, 3], &[3.0; 4]) };
        let ops = [&before, &write, &after_ok, &after_stale];
        let wrong = check_search(&ops, &reference, &prefill);
        assert_eq!(wrong, vec![false, false, false, true]);
    }
}
