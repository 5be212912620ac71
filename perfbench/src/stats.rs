//! The benchmark's own arithmetic: percentiles and the tail a sample
//! count supports, the units kept despite stolen CPU, and the SLO ladder
//! decision behind `max_qps_at_slo`.

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A share of the machine's CPU time the hypervisor may take during a
/// measured unit before the unit is replaced.
pub const STEAL_LIMIT: f64 = 0.02;

/// Which measured units (chunks of a run, or single operations) the
/// figures rest on. On a shared host the hypervisor takes CPU from the
/// machine in bursts (the `steal` column of `/proc/stat`), and a unit
/// measured during one measures the host, not the program. Units are run
/// until `wanted` of them had at most [`STEAL_LIMIT`] stolen, or `most`
/// have run; the figures then come from the `wanted` units with the least
/// stolen CPU. The choice rests on the host's own counter, never on the
/// values measured, and replacement units continue the workload where it
/// stands (later publishes, a bigger model), so a program that slows down
/// over a run still shows.
#[derive(Debug, Clone)]
pub struct Gate {
    wanted: usize,
    most: usize,
    shares: Vec<f64>,
}

impl Gate {
    /// A gate that keeps `wanted` units and runs at most `most`.
    pub fn new(wanted: usize, most: usize) -> Gate {
        Gate {
            wanted,
            most: most.max(wanted),
            shares: Vec::new(),
        }
    }

    /// Whether another unit should run.
    pub fn more(&self) -> bool {
        let calm = self.shares.iter().filter(|s| **s <= STEAL_LIMIT).count();
        self.shares.len() < self.wanted || (calm < self.wanted && self.shares.len() < self.most)
    }

    /// Records the stolen share of the unit just run; returns its number.
    pub fn record(&mut self, stolen_share: f64) -> usize {
        self.shares.push(stolen_share);
        self.shares.len() - 1
    }

    /// Units run so far.
    pub fn units(&self) -> usize {
        self.shares.len()
    }

    /// Per unit run, whether the figures keep it: the `wanted` units with
    /// the least stolen CPU, the earlier one on a tie.
    pub fn kept(&self) -> Vec<bool> {
        let mut order: Vec<usize> = (0..self.shares.len()).collect();
        order.sort_by(|a, b| self.shares[*a].total_cmp(&self.shares[*b]).then(a.cmp(b)));
        let mut keep = vec![false; self.shares.len()];
        for i in order.into_iter().take(self.wanted) {
            keep[i] = true;
        }
        keep
    }
}

/// The samples a tail percentile must leave beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile, capped at 99, that leaves at least
/// [`TAIL_SAMPLES_BEYOND`] samples above it: 99 from 1000 samples on,
/// `100 * (n - 10) / n` below that. `None` under 11 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    Some((100.0 * (n - TAIL_SAMPLES_BEYOND) as f64 / n as f64).min(99.0))
}

/// A latency sample summarised as reported: count, median and tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile the count supports (see [`tail_percentile`]).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Summarises `values`; `None` when there are too few for a tail.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let tail_pct = tail_percentile(values.len())?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail_pct,
        tail: percentile(&v, tail_pct),
    })
}

/// One rung of the offered-rate ladder, as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Worst tail latency (ms) over the read ops, failures counted as
    /// infinitely late.
    pub worst_tail_ms: f64,
    /// Whether completion lagged the schedule more and more over the rung.
    pub backlog_growing: bool,
}

/// The tail latency of a rung's read op: failed or shed requests count as
/// misses (infinitely late), so more than 1% of them fails the rung.
pub fn tail_with_misses(latencies_ms: &[f64], missed: usize) -> f64 {
    let n = latencies_ms.len() + missed;
    let Some(pct) = tail_percentile(n) else {
        return f64::INFINITY;
    };
    let mut v = latencies_ms.to_vec();
    v.sort_by(f64::total_cmp);
    v.extend(std::iter::repeat_n(f64::INFINITY, missed));
    percentile(&v, pct)
}

/// Whether a backlog grew over a rung: the median due-time latency of its
/// last quarter exceeds both twice that of its first quarter and half
/// the SLO limit. `samples` are `(due offset, latency)` in ms, in due
/// order.
pub fn backlog_growing(samples: &[(f64, f64)], limit_ms: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let first: Vec<f64> = samples[..q].iter().map(|s| s.1).collect();
    let last: Vec<f64> = samples[samples.len() - q..].iter().map(|s| s.1).collect();
    let (a, b) = (median(&first), median(&last));
    b > 2.0 * a && b > limit_ms / 2.0
}

/// `max_qps_at_slo`: the offered rate at which the worst read-op tail
/// crosses `limit_ms`, interpolated linearly between the last passing
/// rung and the first failing one so the figure moves continuously
/// rather than jumping by a rung. Rungs must be in ascending rate order.
/// A rung fails if its tail exceeds the limit or its backlog grows; a
/// growing backlog or an infinite tail is read as `4 × limit` for the
/// interpolation. If every rung passes, the highest rate is returned;
/// if the first fails, 0.
pub fn max_qps_at_slo(rungs: &[Rung], limit_ms: f64) -> f64 {
    let cap = 4.0 * limit_ms;
    let level = |r: &Rung| {
        if r.backlog_growing {
            cap
        } else {
            r.worst_tail_ms.min(cap)
        }
    };
    let mut last_pass: Option<&Rung> = None;
    for r in rungs {
        let y = level(r);
        if y <= limit_ms && !r.backlog_growing {
            last_pass = Some(r);
            continue;
        }
        return match last_pass {
            None => 0.0,
            Some(p) => {
                let y0 = level(p);
                let t = ((limit_ms - y0) / (y - y0)).clamp(0.0, 1.0);
                p.rate + t * (r.rate - p.rate)
            }
        };
    }
    last_pass.map_or(0.0, |p| p.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(5000), Some(99.0));
        assert_eq!(tail_percentile(400), Some(97.5));
        for n in [11usize, 57, 400, 999, 1000, 1001, 4321] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&v).unwrap();
            let beyond = v.iter().filter(|x| **x > s.tail).count();
            assert!(beyond >= TAIL_SAMPLES_BEYOND, "n={n}: {beyond} beyond");
            if n < 1000 {
                // The highest such percentile: exactly ten beyond.
                assert_eq!(beyond, TAIL_SAMPLES_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn gate_replaces_stolen_units_and_keeps_the_calmest() {
        let mut g = Gate::new(3, 5);
        for share in [0.0, 0.5, 0.01] {
            assert!(g.more());
            g.record(share);
        }
        // Two calm units of three wanted: one more runs.
        assert!(g.more());
        g.record(0.0);
        assert!(!g.more());
        assert_eq!(g.kept(), [true, false, true, true]);
        // A host that never calms down: stop at `most`, keep the calmest.
        let mut g = Gate::new(2, 4);
        for share in [0.3, 0.1, 0.2, 0.1] {
            assert!(g.more());
            g.record(share);
        }
        assert!(!g.more());
        assert_eq!(g.units(), 4);
        assert_eq!(g.kept(), [false, true, false, true]);
    }

    #[test]
    fn misses_count_as_infinitely_late() {
        let fast = vec![1.0; 990];
        assert_eq!(tail_with_misses(&fast, 10), 1.0);
        assert_eq!(tail_with_misses(&fast, 11), f64::INFINITY);
        assert_eq!(tail_with_misses(&[1.0; 5], 0), f64::INFINITY);
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 5.0)).collect();
        assert!(!backlog_growing(&steady, 50.0));
        let growing: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0 + i as f64)).collect();
        assert!(backlog_growing(&growing, 50.0));
        // Doubling below half the limit is noise, not a backlog.
        let small: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, 1.0 + i as f64 / 20.0))
            .collect();
        assert!(!backlog_growing(&small, 50.0));
    }

    fn rung(rate: f64, tail: f64) -> Rung {
        Rung {
            rate,
            worst_tail_ms: tail,
            backlog_growing: false,
        }
    }

    #[test]
    fn ladder_interpolates_between_pass_and_fail() {
        let rungs = [rung(300.0, 10.0), rung(400.0, 20.0), rung(500.0, 80.0)];
        // 20 -> 80 crosses 50 halfway between 400 and 500.
        assert_eq!(max_qps_at_slo(&rungs, 50.0), 450.0);
        // An infinite tail is capped at 4x the limit: 20 -> 200.
        let rungs = [rung(400.0, 20.0), rung(500.0, f64::INFINITY)];
        let q = max_qps_at_slo(&rungs, 50.0);
        assert!((q - (400.0 + 100.0 * 30.0 / 180.0)).abs() < 1e-9, "{q}");
    }

    #[test]
    fn ladder_edges() {
        assert_eq!(max_qps_at_slo(&[rung(300.0, 60.0)], 50.0), 0.0);
        assert_eq!(
            max_qps_at_slo(&[rung(300.0, 10.0), rung(400.0, 49.0)], 50.0),
            400.0
        );
        // Passing rungs after the first failure do not count.
        let rungs = [rung(300.0, 10.0), rung(400.0, 90.0), rung(500.0, 10.0)];
        assert_eq!(max_qps_at_slo(&rungs, 50.0), 300.0 + 100.0 * 40.0 / 80.0);
        // A growing backlog fails a rung whatever its tail.
        let mut r = rung(400.0, 30.0);
        r.backlog_growing = true;
        let q = max_qps_at_slo(&[rung(300.0, 10.0), r], 50.0);
        assert!((q - (300.0 + 100.0 * 40.0 / 190.0)).abs() < 1e-9, "{q}");
        // Continuity: a rung just under vs just over the limit moves the
        // answer by a hair, not by a rung.
        let under = max_qps_at_slo(
            &[rung(300.0, 10.0), rung(400.0, 49.9), rung(500.0, 200.0)],
            50.0,
        );
        let over = max_qps_at_slo(&[rung(300.0, 10.0), rung(400.0, 50.1)], 50.0);
        assert!((under - over).abs() < 1.0, "{under} vs {over}");
    }
}
