//! Sample statistics, the tail-percentile rule, the timed window shared by
//! every workload, set-up timing and the peak-RSS reader.

use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Samples that must lie beyond a reported percentile: a tail figure
/// resting on fewer points is noise, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The `q`-quantile (`0 < q < 1`, nearest rank) of `values`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie strictly above its rank.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((n as f64) * q).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The end-to-end figures of one timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figures {
    pub throughput: f64,
    pub p50: f64,
    pub p90: f64,
}

/// One timed window of any workload, cut into groups: equal time slices of
/// a serving window, or the repetitions of a training window. Each group is
/// reduced to its own throughput, p50 and p90, and the reported figure is
/// the median over groups, so a burst of interference from outside the
/// program moves only the groups it lands in.
#[derive(Debug, Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Completions per second of each group.
    pub rates: Vec<f64>,
    /// Latency samples of each group, in milliseconds.
    pub latencies_ms: Vec<Vec<f64>>,
}

impl Window {
    /// Cut completions into `slices` equal slices of a `secs` window.
    /// `done_at[i]` (seconds from the window start) and `latency[i]`
    /// describe completion `i`; completions after `secs` (the drain) are
    /// left out.
    pub fn sliced(&mut self, done_at: &[f64], latency: &[f64], secs: f64, slices: usize) {
        let width = secs / slices as f64;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for (&t, &l) in done_at.iter().zip(latency) {
            if (0.0..secs).contains(&t) {
                per[((t / width) as usize).min(slices - 1)].push(l);
            }
        }
        self.rates = per.iter().map(|p| p.len() as f64 / width).collect();
        self.latencies_ms = per;
    }

    /// The median group throughput.
    pub fn throughput(&self) -> f64 {
        median(&self.rates).unwrap_or(f64::NAN)
    }

    /// Medians over groups. Groups whose p90 has fewer than
    /// [`MIN_TAIL_SAMPLES`] samples beyond it give no latency figures; half
    /// of them or more missing is an error.
    pub fn figures(&self) -> Result<Figures, String> {
        let groups = self.latencies_ms.len();
        let p90s: Vec<f64> =
            self.latencies_ms.iter().filter_map(|p| tail_percentile(p, 0.9)).collect();
        if groups == 0 || p90s.len() * 2 <= groups {
            let counts: Vec<usize> = self.latencies_ms.iter().map(Vec::len).collect();
            return Err(format!(
                "only {} of {groups} groups hold enough samples for a p90 with {MIN_TAIL_SAMPLES} beyond it (per-group counts {counts:?})",
                p90s.len()
            ));
        }
        let p50s: Vec<f64> = self
            .latencies_ms
            .iter()
            .filter_map(|p| tail_percentile(p, 0.9).and(median(p)))
            .collect();
        Ok(Figures {
            throughput: self.throughput(),
            p50: median(&p50s).expect("checked above"),
            p90: median(&p90s).expect("checked above"),
        })
    }
}

/// The measured window of a run: the whole `run` untraced, or with
/// `trace`, an untraced half and then a traced half. End-to-end figures
/// come from the untraced window; per-layer figures from the traced one.
/// `window` runs one window of the given length, recording spans into the
/// given tracer.
pub fn plain_then_traced<W>(
    trace: bool,
    run: Duration,
    epoch: Instant,
    mut window: impl FnMut(Duration, &mut Tracer) -> W,
) -> (W, Option<(W, Tracer)>) {
    let mut quiet = Tracer::new(false, epoch);
    if !trace {
        return (window(run, &mut quiet), None);
    }
    let plain = window(run / 2, &mut quiet);
    let mut tracer = Tracer::new(true, epoch);
    let traced = window(run / 2, &mut tracer);
    (plain, Some((traced, tracer)))
}

/// Throughput lost by tracing, in percent of the untraced throughput.
pub fn overhead_pct(plain: &Window, traced: &Window) -> f64 {
    (plain.throughput() - traced.throughput()) / plain.throughput() * 100.0
}

/// Wall times of complete set-ups. Some are taken before the window and
/// some after it, so a swing of the host's speed during one stretch of the
/// run moves only part of them; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Run `build` `reps` times and keep the last result. Earlier results
    /// are dropped (routers joined) before the next build starts.
    pub fn keep_last<T>(&mut self, reps: usize, mut build: impl FnMut() -> T) -> T {
        let mut kept = None;
        for _ in 0..reps.max(1) {
            drop(kept.take());
            kept = Some(self.time(&mut build));
        }
        kept.expect("at least one set-up ran")
    }

    /// Run `build` `reps` more times, dropping each result.
    pub fn repeat<T>(&mut self, reps: usize, mut build: impl FnMut() -> T) {
        for _ in 0..reps {
            drop(self.time(&mut build));
        }
    }

    fn time<T>(&mut self, build: &mut impl FnMut() -> T) -> T {
        let t0 = Instant::now();
        let built = build();
        self.0.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Every set-up time so far, in seconds, in the order taken.
    pub fn times(&self) -> &[f64] {
        &self.0
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.0).unwrap_or(f64::NAN)
    }
}

/// The `VmHWM` (peak resident set) field of a `/proc/<pid>/status` text,
/// in MiB.
fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None, "99 samples leave only 9 beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        // p99 needs 1000 samples.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn slices_take_the_median_and_drop_the_drain() {
        // 4 slices of 1 s, 200 completions each at 1 ms, except slice 2:
        // 20 completions at 50 ms (a stall). One completion in the drain.
        let mut done = Vec::new();
        let mut lat = Vec::new();
        for s in 0..4 {
            let (n, l) = if s == 2 { (20, 50.0) } else { (200, 1.0) };
            for i in 0..n {
                done.push(s as f64 + i as f64 / n as f64);
                lat.push(l);
            }
        }
        done.push(4.5);
        lat.push(1e6);
        let mut w = Window::default();
        w.sliced(&done, &lat, 4.0, 4);
        assert_eq!(w.figures().unwrap(), Figures { throughput: 200.0, p50: 1.0, p90: 1.0 });
        w.sliced(&done[..100], &lat[..100], 4.0, 4);
        assert!(w.figures().is_err(), "too few samples per slice");
        assert!(Window::default().figures().is_err(), "no groups");
    }

    #[test]
    fn tracing_runs_the_second_half_with_spans() {
        let epoch = Instant::now();
        let run = Duration::from_millis(8);
        let window = |len: Duration, t: &mut Tracer| {
            t.span("w", None, 0, || ());
            len
        };
        let (plain, traced) = plain_then_traced(false, run, epoch, window);
        assert_eq!((plain, traced.is_none()), (run, true));
        let (plain, traced) = plain_then_traced(true, run, epoch, window);
        let (len, tracer) = traced.expect("traced half");
        assert_eq!((plain, len, tracer.spans().len()), (run / 2, run / 2, 1));
        let w = |r: f64| Window { rates: vec![r], ..Window::default() };
        assert_eq!(overhead_pct(&w(200.0), &w(150.0)), 25.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rss_reader_parses_status_and_reads_this_process() {
        let status = "Name:\tx\nVmPeak:\t 20480 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 512 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(10.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t512 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t512 MB\n"), None);
        let live = peak_rss_mb().expect("Linux exposes VmHWM");
        assert!(live > 0.5, "peak RSS of a running test binary: {live} MiB");
    }

    #[test]
    fn setup_times_keep_the_last_build_and_take_the_median() {
        let mut times = SetupTimes::default();
        let mut n = 0;
        let last = times.keep_last(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        times.repeat(2, || n += 1);
        assert_eq!((n, times.0.len()), (5, 5));
        assert!(times.median() >= 0.0);
    }
}
