//! The benchmark's inputs: the BJ-mini city and model at the pinned quick
//! scale, and seeded request streams derived from its trajectories.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use start_bench::{bj_mini, start_config, Scale};
use start_core::{Embedding, StartModel};
use start_traj::{TrajDataset, Trajectory};

const SECS_PER_WEEK: i64 = 7 * 24 * 3600;

/// Weight-initialisation seed. The workload seed sets request order,
/// index contents and the pretrain shuffle; the model itself is fixed.
const MODEL_SEED: u64 = 77;

/// The quick scale, pinned: `START_SCALE` is deliberately not read.
fn scale() -> Scale {
    Scale::quick()
}

pub fn dataset() -> TrajDataset {
    bj_mini(&scale())
}

pub fn model(ds: &TrajDataset) -> StartModel {
    StartModel::new(start_config(&scale()), &ds.city.net, Some(&ds.transfer), None, MODEL_SEED)
}

/// `t` moved forward by whole weeks. Minute-of-day, day-of-week and every
/// time interval are unchanged, so the embedding is bitwise that of `t`,
/// while the content fingerprint (which hashes raw timestamps) differs:
/// a request the service has never seen that needs no new oracle.
pub fn week_shift(t: &Trajectory, weeks: i64) -> Trajectory {
    let shift = weeks * SECS_PER_WEEK;
    let mut out = t.clone();
    for time in &mut out.times {
        *time += shift;
    }
    out.arrival += shift;
    out
}

/// A seeded RNG for one purpose of one run.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `n` distinct trajectories of the dataset, chosen and ordered by `rng`.
pub fn sample_bases(ds: &TrajDataset, n: usize, rng: &mut StdRng) -> Vec<Trajectory> {
    let mut all: Vec<&Trajectory> = ds.train().iter().chain(ds.eval()).chain(ds.test()).collect();
    assert!(all.len() >= n, "dataset has {} trajectories, {n} requested", all.len());
    all.shuffle(rng);
    all.into_iter().take(n).cloned().collect()
}

/// 64-bit FNV-1a over an embedding's bits: replies are recorded as this
/// digest and compared with the reference digest after the timed window.
pub fn digest(e: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in e {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Offline reference embeddings of `trajs` through the `Encoder` facade.
pub fn reference(model: &StartModel, trajs: &[Trajectory]) -> Vec<Embedding> {
    model
        .encoder()
        .encode(trajs, &start_core::EncodeOptions::default())
        .expect("offline reference encode")
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_core::fingerprint_view;
    use start_traj::TrajView;

    /// The property `serve_miss` and the `search` writes rest on: a
    /// week-shifted trajectory is new to the cache but encodes to the same
    /// bits.
    #[test]
    fn week_shift_changes_the_fingerprint_not_the_embedding() {
        let ds = dataset();
        let model = model(&ds);
        let bases = sample_bases(&ds, 8, &mut rng(1, 1));
        let shifted: Vec<Trajectory> =
            bases.iter().enumerate().map(|(i, t)| week_shift(t, 1 + i as i64 * 37)).collect();
        for (a, b) in bases.iter().zip(&shifted) {
            assert_ne!(
                fingerprint_view(&TrajView::identity(a)),
                fingerprint_view(&TrajView::identity(b))
            );
        }
        let want = reference(&model, &bases);
        let got = reference(&model, &shifted);
        for (w, g) in want.iter().zip(&got) {
            let wb: Vec<u32> = w.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wb, gb);
            assert_eq!(digest(w), digest(g));
        }
    }

    #[test]
    fn sampling_is_seeded() {
        let ds = dataset();
        let a = sample_bases(&ds, 16, &mut rng(5, 2));
        let b = sample_bases(&ds, 16, &mut rng(5, 2));
        let c = sample_bases(&ds, 16, &mut rng(6, 2));
        assert_eq!(
            a.iter().map(|t| t.times[0]).collect::<Vec<_>>(),
            b.iter().map(|t| t.times[0]).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|t| t.times[0]).collect::<Vec<_>>(),
            c.iter().map(|t| t.times[0]).collect::<Vec<_>>()
        );
    }
}
