//! The `train` workload: `pretrain_with_publish` on BJ-mini, batch 16,
//! 2 data-parallel workers. A publish callback at every step records only
//! a timestamp, which gives per-step times from outside the trainer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use start_core::{
    build_shard_loss, pretrain_with_publish, PretrainConfig, PretrainReport, StartModel,
};
use start_nn::{BatchTrainer, GradStore, Graph, ParamId, PublishCadence};
use start_traj::TrajDataset;

use crate::inputs;
use crate::measure::{self, SetupTimes};
use crate::probe::{self, BATCH, LR, WORKERS};
use crate::serve::{self, SETUP_AFTER, SETUP_BEFORE};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome};

/// One pretrain repetition: 2 epochs of 56 steps. Its 110 post-warm-up
/// steps leave 11 beyond its own p90, and the loss trend is checked
/// within every repetition.
const EPOCHS: usize = 2;
const STEPS_PER_EPOCH: usize = 56;
/// Leading steps of each repetition left out of the step times: the
/// trainer's buffer pools fill during them.
const WARMUP_STEPS: usize = 2;

fn config(seed: u64) -> PretrainConfig {
    PretrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        base_lr: LR,
        max_steps_per_epoch: Some(STEPS_PER_EPOCH),
        seed,
        workers: WORKERS,
        ..PretrainConfig::default()
    }
}

/// One timed window of pretrain repetitions; its groups are the
/// repetitions.
struct Trained {
    timed: measure::Window,
    reports: Vec<PretrainReport>,
    /// Callback count per repetition.
    callbacks: Vec<u64>,
    /// The model the last repetition trained.
    last: Option<StartModel>,
}

/// The shuffle seed of repetition `rep`: every repetition draws its own
/// batches, so a run's step times sample the whole training split.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(rep)
}

/// One repetition from fresh initial weights, calling `on_step` after
/// every optimizer step.
fn pretrain_rep(
    ds: &TrajDataset,
    model: &mut StartModel,
    seed: u64,
    on_step: &mut dyn FnMut(),
) -> PretrainReport {
    let cfg = config(seed);
    pretrain_with_publish(
        model,
        ds.train(),
        &ds.historical,
        &cfg,
        PublishCadence::every(1),
        &mut |_, _| on_step(),
    )
}

/// Fresh-model pretrain repetitions until `run` has passed, numbered from
/// `*rep`. Each repetition's throughput, step p50 and step p90 are taken
/// over its post-warm-up steps.
fn window(
    ds: &TrajDataset,
    first: &mut Option<StartModel>,
    run: Duration,
    seed: u64,
    rep: &mut u64,
    tracer: &mut Tracer,
) -> Trained {
    let deadline = Instant::now() + run;
    let mut w = Trained {
        timed: measure::Window::default(),
        reports: Vec::new(),
        callbacks: Vec::new(),
        last: None,
    };
    while Instant::now() < deadline {
        let mut model = first.take().unwrap_or_else(|| inputs::model(ds));
        *rep += 1;
        let rep = *rep - 1;
        let mut stamps = vec![Instant::now()];
        let report =
            pretrain_rep(ds, &mut model, rep_seed(seed, rep), &mut || stamps.push(Instant::now()));
        let root =
            tracer.record("pretrain", stamps[0], *stamps.last().expect("start stamp"), None, rep);
        for pair in stamps.windows(2) {
            tracer.record("train.step", pair[0], pair[1], root, rep);
        }
        let measured = &stamps[WARMUP_STEPS.min(stamps.len() - 1)..];
        let step_ms: Vec<f64> =
            measured.windows(2).map(|p| (p[1] - p[0]).as_secs_f64() * 1e3).collect();
        w.timed
            .rates
            .push(BATCH as f64 * step_ms.len() as f64 / (step_ms.iter().sum::<f64>() / 1e3));
        w.timed.latencies_ms.push(step_ms);
        w.timed.attempted += (EPOCHS * STEPS_PER_EPOCH) as u64;
        w.callbacks.push(stamps.len() as u64 - 1);
        w.reports.push(report);
        w.last = Some(model);
    }
    w
}

/// Repetitions that did not run all their steps with finite losses, or
/// whose loss did not fall from the first epoch to the last.
fn check(w: &Trained, errors: &mut Vec<String>) -> u64 {
    let steps = (EPOCHS * STEPS_PER_EPOCH) as u64;
    let mut bad = 0;
    for (i, (r, &calls)) in w.reports.iter().zip(&w.callbacks).enumerate() {
        let finite = r.epoch_losses.iter().all(|l| l.is_finite());
        let fell = r.final_loss() < r.epoch_losses[0];
        if r.steps != steps || calls != steps || !finite || !fell {
            errors.push(format!(
                "repetition {i}: {} steps, {calls} callbacks (want {steps}), epoch losses {:?}",
                r.steps, r.epoch_losses
            ));
            bad += 1;
        }
    }
    bad
}

/// Relative L2 distance the trainer's merged gradient may keep from the
/// shard-by-shard reference: summation-order rounding, not a wrong shard.
const MERGE_TOL: f64 = 1e-4;
/// Relative error a finite difference may keep from the analytic
/// directional derivative, as in the repository's gradient checks.
const FD_TOL: f64 = 1e-2;
/// Steps along a unit direction of parameter space, largest first; the
/// first is the repository's gradient-check step. The batch loss is only
/// piecewise smooth (ReLU, leaky ReLU), and a seeded batch can sit on a
/// kink or close to one. On a kink the gradient is one side's derivative
/// and the central difference their mean; near one, a difference across
/// it is biased by an amount that shrinks with the step. So a direction
/// with a nonzero gradient passes when the central, forward or backward
/// difference agrees with it at one of these steps; a wrong gradient
/// misses all of them. A zero-gradient direction is tried centrally at
/// the first step only.
const FD_EPS: [f32; 3] = [2e-3, 1e-3, 5e-4];
/// Rounding of the f32 batch loss, in units in the last place, that a
/// finite difference may carry on top of `FD_TOL`.
const FD_NOISE_ULPS: f64 = 8.0;
/// Step number the oracle's trainer step runs as (it seeds the workers).
const ORACLE_STEP: u64 = 0;

/// A parameter group of the gradient oracle: parameters sharing the first
/// two components of their name (`gat.l0`, `enc.layer1`, `mask_head.w`),
/// so each layer of each stage is checked on its own.
fn param_group(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}

/// The gradient oracle, run after the window and outside `setup_s`. One
/// `BatchTrainer::step` on a batch of the workload's seed, from fresh
/// weights, is set beside
/// - a reference built shard by shard on fresh, unpooled graphs with plain
///   `Graph::backward`, each shard drawing the RNG stream the trainer
///   documents for it, merged as `Σ w_s g_s / Σ w_s`: a dropped, doubled
///   or mis-weighted shard, or a buffer reused too early, shows here;
/// - finite differences of that batch loss along the whole gradient and
///   along each parameter group's part of it (see [`FD_EPS`]); a group whose gradient is
///   zero is moved along a seeded random direction instead, which must
///   leave the loss unchanged: a wrong backward rule, or a stage whose
///   backward is skipped, shows here.
fn gradient_check(ds: &TrajDataset, seed: u64) -> Result<String, String> {
    let mut model = inputs::model(ds);
    let train = ds.train();
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.shuffle(&mut inputs::rng(seed, 4));
    let batch = &order[..BATCH];
    let seq_rng = || StdRng::seed_from_u64(rep_seed(seed, u64::MAX));

    let mut trainer = BatchTrainer::new(WORKERS, seed);
    let mut grads = GradStore::new(&model.store);
    let shard_loss = |g: &mut Graph, shard: &[usize], r: &mut StdRng| {
        build_shard_loss(&model, train, &ds.historical, g, shard, r)
    };
    let stats = trainer
        .step(&model.store, &mut grads, ORACLE_STEP, batch, 2, &mut seq_rng(), &shard_loss)
        .ok_or("the oracle batch yields no loss")?;

    // The batch loss and its gradient, shard by shard. One shard runs on
    // the caller's RNG, more on the per-worker streams.
    let shards: Vec<Vec<usize>> = trainer.plan(batch, 2).iter().map(|s| s.to_vec()).collect();
    let shard_rng =
        |w: usize| if shards.len() == 1 { seq_rng() } else { trainer.worker_rng(ORACLE_STEP, w) };
    let batch_loss = |model: &StartModel, grads: Option<&mut GradStore>| -> f64 {
        let (mut sum, mut weight) = (0.0f64, 0.0f64);
        let mut shard_grads = Vec::new();
        for (w, shard) in shards.iter().enumerate() {
            let mut g = Graph::new(&model.store, true);
            let res =
                build_shard_loss(model, train, &ds.historical, &mut g, shard, &mut shard_rng(w))
                    .expect("a shard of the oracle batch yields a loss");
            sum += f64::from(g.value(res.loss).item()) * f64::from(res.weight);
            weight += f64::from(res.weight);
            if grads.is_some() {
                let mut gs = GradStore::new(&model.store);
                g.backward(res.loss, &mut gs);
                gs.scale(res.weight);
                shard_grads.push(gs);
            }
        }
        if let Some(grads) = grads {
            for gs in &shard_grads {
                grads.merge(gs);
            }
            grads.scale(1.0 / weight as f32);
        }
        sum / weight
    };
    let mut reference = GradStore::new(&model.store);
    let loss = batch_loss(&model, Some(&mut reference));

    // Parameters flattened in id order, with each one's group.
    let ids: Vec<ParamId> = model.store.ids().collect();
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    let mut at = 0;
    for &id in &ids {
        let name = param_group(model.store.name(id)).to_string();
        let n = model.store.get(id).len();
        match groups.iter_mut().find(|(g, _)| *g == name) {
            Some((_, idx)) => idx.extend(at..at + n),
            None => groups.push((name, (at..at + n).collect())),
        }
        at += n;
    }
    let flat = |gs: &GradStore| -> Vec<f64> {
        ids.iter()
            .flat_map(|&id| match gs.get(id) {
                Some(a) => a.data().iter().map(|&x| f64::from(x)).collect(),
                None => vec![0.0; model.store.get(id).len()],
            })
            .collect()
    };
    let (got, want) = (flat(&grads), flat(&reference));
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let diff: Vec<f64> = got.iter().zip(&want).map(|(a, b)| a - b).collect();
    let merge_err = norm(&diff) / norm(&want);
    let loss_err = (f64::from(stats.loss) - loss).abs() / loss.abs();
    if !(merge_err <= MERGE_TOL && loss_err <= MERGE_TOL) {
        return Err(format!(
            "trainer step gradient {merge_err:.3e}, loss {loss_err:.3e} (relative) from the shard-by-shard reference (tolerance {MERGE_TOL:e})"
        ));
    }

    // Directions: the whole gradient, then each group's part of it.
    let mut rng = inputs::rng(seed, 5);
    let mut directions = vec![("all".to_string(), (0..got.len()).collect::<Vec<usize>>())];
    directions.extend(groups);
    let original: Vec<f32> =
        ids.iter().flat_map(|&id| model.store.get(id).data().to_vec()).collect();
    let mut moved_loss = |dir: &[(usize, f64)], eps: f32| -> f64 {
        let mut moved = original.clone();
        for &(i, v) in dir {
            moved[i] += eps * v as f32;
        }
        let mut at = 0;
        for &id in &ids {
            let data = model.store.get_mut(id).data_mut();
            data.copy_from_slice(&moved[at..at + data.len()]);
            at += data.len();
        }
        batch_loss(&model, None)
    };
    let floor =
        |eps: f32| FD_NOISE_ULPS * loss.abs() * f64::from(f32::EPSILON) / f64::from(2.0 * eps);
    let (mut worst, mut refined) = (0.0f64, 0);
    for (name, idx) in &directions {
        let part: Vec<f64> = idx.iter().map(|&i| got[i]).collect();
        let part_norm = norm(&part);
        let unit: Vec<f64> = if part_norm > 0.0 {
            part.iter().map(|x| x / part_norm).collect()
        } else {
            let r: Vec<f64> = idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            let n = norm(&r);
            r.into_iter().map(|x| x / n).collect()
        };
        let dir: Vec<(usize, f64)> = idx.iter().copied().zip(unit).collect();
        let analytic = part_norm;
        let steps = if analytic > 0.0 { &FD_EPS[..] } else { &FD_EPS[..1] };
        let mut tried = Vec::new();
        let mut best = f64::INFINITY;
        for &eps in steps {
            let (up, down) = (moved_loss(&dir, eps), moved_loss(&dir, -eps));
            let e = f64::from(eps);
            let mut sides = vec![("central", (up - down) / (2.0 * e), floor(eps))];
            if analytic > 0.0 {
                sides.push(("forward", (up - loss) / e, 2.0 * floor(eps)));
                sides.push(("backward", (loss - down) / e, 2.0 * floor(eps)));
            }
            for (side, numeric, noise) in sides {
                let allowed = FD_TOL * analytic.max(numeric.abs()) + noise;
                best = best.min((numeric - analytic).abs() / allowed);
                tried.push(format!("{side} {numeric:.5e} at step {eps:e} (allowed {allowed:.2e})"));
            }
            if best <= 1.0 {
                break;
            }
        }
        if !(best <= 1.0) {
            return Err(format!(
                "finite difference along {name}: analytic {analytic:.5e}, numeric {}",
                tried.join(", ")
            ));
        }
        worst = worst.max(best);
        refined += usize::from(tried.len() > 3);
    }
    Ok(format!(
        "|g| {:.4e}, merge error {merge_err:.1e}, {} directions ({refined} past the first step), worst error {worst:.2} of allowed",
        norm(&got),
        directions.len()
    ))
}

pub fn run_train(args: &Args) -> Outcome {
    let mut setups = SetupTimes::default();
    let build = || {
        let ds = inputs::dataset();
        let model = inputs::model(&ds);
        (ds, model)
    };
    let (ds, model) = setups.keep_last(SETUP_BEFORE, build);
    let mut first = Some(model);
    let epoch = Instant::now();
    let run = Duration::from_secs_f64(args.seconds);
    let mut rep = 0;
    let (plain, traced) = measure::plain_then_traced(args.trace, run, epoch, |len, tracer| {
        window(&ds, &mut first, len, args.seed, &mut rep, tracer)
    });
    let rss = measure::peak_rss_mb();
    if !args.trace {
        setups.repeat(SETUP_AFTER, build);
    }
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let reps =
        plain.reports.len() as u64 + traced.as_ref().map_or(0, |(w, _)| w.reports.len() as u64);
    let mut bad = check(&plain, &mut errors);
    if let Some((w, _)) = &traced {
        bad += check(w, &mut errors);
    }
    // Determinism, outside the window: repetition 0 again from fresh
    // weights must end at the bitwise-same loss.
    let again = pretrain_rep(&ds, &mut inputs::model(&ds), rep_seed(args.seed, 0), &mut || {});
    let first_loss = plain.reports[0].final_loss();
    if again.final_loss().to_bits() != first_loss.to_bits() {
        errors.push(format!(
            "repetition 0 re-run ends at loss {} instead of {first_loss}",
            again.final_loss()
        ));
        bad += 1;
    }
    let steps_per_rep = (EPOCHS * STEPS_PER_EPOCH) as u64;
    match gradient_check(&ds, args.seed) {
        Ok(report) => eprintln!("train: gradient oracle passed: {report}"),
        Err(e) => {
            // A wrong gradient makes every step of the run wrong.
            errors.push(format!("gradient oracle: {e}"));
            bad = reps;
        }
    }
    if !args.trace {
        let reps = plain.reports.len() as u64;
        let good = reps.saturating_sub(bad) * steps_per_rep;
        crate::end_to_end(&mut m, &plain.timed, good, rss, &setups, &mut errors);
    }
    if let Some((traced, mut tracer)) = traced {
        let step_p50 = measure::median(&traced.timed.latencies_ms.concat()).unwrap_or(f64::NAN);
        // Medians over repetitions on both sides, so the process's first,
        // cold repetition (always untraced) does not pose as overhead.
        m.push("trace.overhead_pct", measure::overhead_pct(&plain.timed, &traced.timed), "%");
        // Serving the checkpoint this run trained drives the serve and
        // router layers.
        let trained = Arc::new(traced.last.expect("at least one repetition"));
        serve::serving_probe(&mut m, &ds, &trained, args.seed, &mut tracer);
        let bases = inputs::sample_bases(&ds, 512, &mut inputs::rng(args.seed, 1));
        let step_parts = probe::layers(&mut m, &ds, &trained, &bases, args.seed, &mut tracer);
        m.push("trace.reconcile_ratio", step_parts / step_p50, "ratio");
        crate::write_trace(args, &tracer);
    }
    eprintln!("train: repetition 0 final loss {first_loss}; {reps} repetitions");
    Outcome {
        attempted: reps * steps_per_rep,
        failed: bad.min(reps) * steps_per_rep,
        errors,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_groups_are_layers_of_stages() {
        assert_eq!(param_group("gat.l0.h3.w5"), "gat.l0");
        assert_eq!(param_group("enc.layer1.attn.wq.b"), "enc.layer1");
        assert_eq!(param_group("mask_head.w"), "mask_head.w");
        assert_eq!(param_group("cls"), "cls");
    }

    /// Seed 16's oracle batch sits on a ReLU kink: along the whole
    /// gradient the backward difference converges to the analytic value
    /// while the forward one stays about 1% below, so the central
    /// difference at the first step misses by more than `FD_TOL`. A
    /// correct gradient must still pass.
    #[test]
    fn gradient_oracle_passes_a_batch_on_a_kink() {
        let ds = inputs::dataset();
        let report = gradient_check(&ds, 16).expect("the gradient of the trainer is correct");
        assert!(!report.contains("(0 past the first step)"), "{report}");
    }
}
