//! What a run reports: metrics by name with their units, the operation
//! counts of the result line, and the run record (host, seed, rates offered).

use crate::stats::{median, summarize, tail_percentile};
use std::collections::BTreeMap;

/// Latency samples in ms, grouped by name.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    /// The samples under `name`.
    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v.as_slice())
    }
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every oracle check passed and the generator kept its schedule.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, shed, timed out or answered wrongly.
    pub failed: u64,
    /// Metrics: name -> (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Free-form run record (host, seed, rates, sample counts, notes).
    pub record: BTreeMap<String, String>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Sets `<op>_p50_ms` (the median) for an untraced run, or
    /// `<op>_p99_ms` (the tail the sample count supports, a per-layer
    /// figure) for a traced one, from `values`; records the sample count
    /// and tail percentile.
    pub fn latency(&mut self, prefix: &str, values: &[f64], trace: bool) {
        match summarize(values) {
            Some(s) if trace => self.metric(&format!("{prefix}_p99_ms"), s.tail, "ms"),
            Some(_) => self.metric(&format!("{prefix}_p50_ms"), median(values), "ms"),
            None => return self.problem(format!("too few samples for {prefix}")),
        }
        let tail = tail_percentile(values.len()).unwrap_or(0.0);
        self.note(
            &format!("samples.{prefix}"),
            format!("n={} tail=p{tail:.2}", values.len()),
        );
    }

    /// Adds a record entry.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.record.insert(key.to_string(), value.into());
    }

    /// Records a correctness problem.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("{k:?}: {{\"value\": {}, \"unit\": {u:?}}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record as one JSON object.
    pub fn record_line(&self) -> String {
        let items: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{k:?}: {v:?}"))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| format!("{p:?}")).collect();
        format!(
            "{{\"record\": {{{}}}, \"problems\": [{}]}}",
            items.join(", "),
            problems.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0 and are
/// flagged by the caller).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU time the hypervisor took from this machine's CPUs (the `steal`
/// column of `/proc/stat`), over an interval.
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    ticks: u64,
    at: std::time::Instant,
}

impl Steal {
    /// Starts measuring.
    pub fn start() -> Steal {
        Steal {
            ticks: steal_ticks(),
            at: std::time::Instant::now(),
        }
    }

    /// Stolen ticks since [`Self::start`].
    pub fn ticks(&self) -> u64 {
        steal_ticks().saturating_sub(self.ticks)
    }

    /// Stolen CPU time since [`Self::start`] as a share of all CPU time.
    pub fn share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let available = self.at.elapsed().as_secs_f64() * USER_HZ * cpus;
        ratio(self.ticks() as f64, available)
    }
}

/// Total stolen ticks over all CPUs since boot (0 where not reported).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A stable 64-bit FNV-1a hash of rendered rows (cell and row separators
/// included), so responses can be checked without keeping their rows.
pub fn rows_hash<'a, R, C>(rows: R) -> u64
where
    R: IntoIterator<Item = C>,
    C: IntoIterator<Item = &'a str>,
{
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for row in rows {
        for cell in row {
            cell.bytes().for_each(&mut eat);
            eat(0x1f);
        }
        eat(0x1e);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("answer_p50_ms", 1.25, "ms");
        let line = o.result_line();
        let v = kind_server::wire::Json::parse(&line).unwrap();
        let kind_server::wire::Json::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("answer_p50_ms"))
            .unwrap();
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("ms"));
    }

    #[test]
    fn a_slowdown_in_part_of_the_run_moves_the_reported_median() {
        let p50 = |v: &[f64]| {
            let mut o = Outcome::default();
            o.latency("answer", v, false);
            o.metrics["answer_p50_ms"].0
        };
        // The second half of the run slowed from 5 to 10 ms: the figure
        // moves halfway, wherever in the run the slow half lies.
        let mut v: Vec<f64> = (0..600).map(|i| if i < 300 { 5.0 } else { 10.0 }).collect();
        assert_eq!(p50(&v), 7.5);
        v.reverse();
        assert_eq!(p50(&v), 7.5);
        // A slower 60% moves it all the way.
        let v: Vec<f64> = (0..600).map(|i| if i < 240 { 5.0 } else { 10.0 }).collect();
        assert_eq!(p50(&v), 10.0);
    }

    #[test]
    fn rows_hash_separates_cells() {
        let a = rows_hash([["ab", "c"]]);
        let b = rows_hash([["a", "bc"]]);
        assert_ne!(a, b);
        assert_eq!(a, rows_hash(vec![vec!["ab", "c"]]));
    }
}
