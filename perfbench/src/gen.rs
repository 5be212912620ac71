//! The seeded input generator: every input a run feeds the mediator —
//! the op mix, FL patterns, answer templates and their constants, publish
//! batches and per-source delays — comes from one [`Rng`] seeded by the
//! `--seed` argument. Equal seeds give equal inputs.
//!
//! Seeds vary *which* inputs a run sees, not the workload's shape: op
//! shares are exact per block of requests, and only the ordering, the
//! template and pattern drawn, the Zipf rank of each constant and the
//! delays depend on the seed. That keeps run-to-run spread a property of
//! the system, not of the draw.
//!
//! Where a number of the traffic comes from is stated where it is
//! defined; `perfbench/README.md` lists the ones without a source.

use kind_sources::{CALCIUM_BINDING, NCMIR_LOCATIONS};
use std::time::Duration;

/// SplitMix64: small, fast, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label`, so adding draws to one input
    /// family never shifts another.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// An index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Indices `0..n` dealt in blocks: each block holds every index once, in
/// seeded order, so the shares are exact per block of `n` draws.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: Rng,
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    /// A deck of `n` (> 0) indices drawn from `rng`.
    pub fn new(rng: Rng, n: usize) -> Deck {
        Deck {
            rng,
            n,
            left: Vec::new(),
        }
    }

    /// The next index.
    pub fn deal(&mut self) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            self.rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("refilled above")
    }
}

/// Zipf weights `1 / rank^s` for `n` ranks.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect()
}

/// A constant domain a template parameter draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A calcium-binding protein name (`CALCIUM_BINDING`).
    Protein,
    /// A cerebellar location (`NCMIR_LOCATIONS`).
    Location,
}

impl Domain {
    fn values(self) -> &'static [&'static str] {
        match self {
            Domain::Protein => CALCIUM_BINDING,
            Domain::Location => NCMIR_LOCATIONS,
        }
    }
}

/// One `answer` rule shape; `{0}`, `{1}` are replaced by constants.
#[derive(Debug)]
pub struct Template {
    /// Stable name (used in metric names).
    pub name: &'static str,
    /// Rule text with positional placeholders.
    pub text: &'static str,
    /// The domain of each placeholder.
    pub params: &'static [Domain],
    /// Source classes the rule scans (what `Mediator::answer` fetches).
    pub classes: &'static [&'static str],
}

/// The answer template family over `protein_amount` and
/// `neurotransmission`, dealt in equal shares (no measured template mix
/// exists). Head predicates are fresh names, so every answer takes the
/// seeded (warm) evaluation path.
pub const TEMPLATES: &[Template] = &[
    Template {
        name: "protein_sites",
        text: r#"pb_sites(L, A) :- X : protein_amount, X[protein_name -> "{0}"], X[location -> L], X[amount -> A]."#,
        params: &[Domain::Protein],
        classes: &["protein_amount"],
    },
    Template {
        name: "location_proteins",
        text: r#"pb_at(P, A) :- X : protein_amount, X[location -> "{0}"], X[protein_name -> P], X[amount -> A]."#,
        params: &[Domain::Location],
        classes: &["protein_amount"],
    },
    Template {
        name: "pair_amounts",
        text: r#"pb_pair(X, A) :- X : protein_amount, X[protein_name -> "{0}"], X[location -> "{1}"], X[amount -> A]."#,
        params: &[Domain::Protein, Domain::Location],
        classes: &["protein_amount"],
    },
    Template {
        name: "calcium_sites",
        text: r#"pb_calcium(P, L) :- X : protein_amount, X[protein_name -> P], X[location -> L], X[ion_bound -> "calcium"]."#,
        params: &[],
        classes: &["protein_amount"],
    },
    Template {
        name: "receiving_sites",
        text: r#"pb_recv(Y, O) :- Y : neurotransmission, Y[receiving_compartment -> "{0}"], Y[organism -> O]."#,
        params: &[Domain::Location],
        classes: &["neurotransmission"],
    },
    Template {
        name: "innervated_amounts",
        text: r#"pb_join(C, A) :- Y : neurotransmission, Y[receiving_compartment -> C], X : protein_amount, X[location -> C], X[protein_name -> "{0}"], X[amount -> A]."#,
        params: &[Domain::Protein],
        classes: &["neurotransmission", "protein_amount"],
    },
];

/// One FL scan pattern with a stable metric name.
#[derive(Debug)]
pub struct Pattern {
    /// Stable name (used in metric names).
    pub name: &'static str,
    /// The FL pattern sent in `query_fl`.
    pub text: &'static str,
}

/// `query_fl` scans of different result sizes (40 to 334 rows on the
/// default scenario).
pub const PATTERNS: &[Pattern] = &[
    Pattern {
        name: "neurotransmission",
        text: "X : neurotransmission",
    },
    Pattern {
        name: "protein_amount",
        text: "X : protein_amount",
    },
    Pattern {
        name: "protein_names",
        text: "X[protein_name -> P]",
    },
    Pattern {
        name: "locations",
        text: "X[location -> L]",
    },
    Pattern {
        name: "all_instances",
        text: "X : Y",
    },
];

/// A read request of the served mix.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOp {
    /// `answer` with template index and the instantiated rule.
    Answer { template: usize, rule: String },
    /// `query_fl` with pattern index.
    QueryFl { pattern: usize },
    /// The warm §5 plan.
    Plan,
    /// Liveness probe.
    Ping,
}

impl ReadOp {
    /// The wire op name.
    pub fn name(&self) -> &'static str {
        match self {
            ReadOp::Answer { .. } => "answer",
            ReadOp::QueryFl { .. } => "query_fl",
            ReadOp::Plan => "plan",
            ReadOp::Ping => "ping",
        }
    }
}

/// The Zipf exponent of the `serve_*` constants: 1, Zipf's law in its
/// original form. No measured query log fixes it for this domain.
pub const ZIPF_S: f64 = 1.0;

/// Instantiates answer rules with Zipf-skewed constants: each domain's
/// values are ranked by a seeded permutation, then drawn with weight
/// `1 / rank^ZIPF_S` (or uniformly, for the federated workload).
#[derive(Debug, Clone)]
pub struct AnswerGen {
    rng: Rng,
    templates: Deck,
    proteins: Vec<&'static str>,
    locations: Vec<&'static str>,
    protein_w: Vec<f64>,
    location_w: Vec<f64>,
}

impl AnswerGen {
    /// A generator for `seed`; `zipf` picks skewed or uniform constants.
    pub fn new(seed: u64, zipf: bool) -> AnswerGen {
        let mut rng = Rng::stream(seed, "answer");
        let mut proteins = Domain::Protein.values().to_vec();
        let mut locations = Domain::Location.values().to_vec();
        rng.shuffle(&mut proteins);
        rng.shuffle(&mut locations);
        let s = if zipf { ZIPF_S } else { 0.0 };
        AnswerGen {
            templates: Deck::new(Rng::stream(seed, "template"), TEMPLATES.len()),
            protein_w: zipf_weights(proteins.len(), s),
            location_w: zipf_weights(locations.len(), s),
            proteins,
            locations,
            rng,
        }
    }

    /// The next `(template index, rule text)`.
    pub fn next(&mut self) -> (usize, String) {
        let t = self.templates.deal();
        let rule = self.instantiate(t);
        (t, rule)
    }

    /// A rule of template `t` with freshly drawn constants.
    pub fn instantiate(&mut self, t: usize) -> String {
        let mut text = TEMPLATES[t].text.to_string();
        for (i, d) in TEMPLATES[t].params.iter().enumerate() {
            let value = match d {
                Domain::Protein => self.proteins[self.rng.weighted(&self.protein_w)],
                Domain::Location => self.locations[self.rng.weighted(&self.location_w)],
            };
            text = text.replace(&format!("{{{i}}}"), value);
        }
        text
    }
}

/// The served read mix: per block of five requests exactly two
/// `query_fl`, one `answer`, one `plan` and one `ping`, in seeded order.
/// These are the shares of the repository's own mixed workload
/// (`kind_server::client::workload_request`).
pub fn read_ops(seed: u64, n: usize) -> Vec<ReadOp> {
    let mut order = Rng::stream(seed, "mix");
    let mut patterns = pattern_deck(seed);
    let mut answers = AnswerGen::new(seed, true);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = [0u8, 1, 1, 2, 3];
        order.shuffle(&mut block);
        for kind in block {
            if out.len() == n {
                break;
            }
            out.push(match kind {
                0 => {
                    let (template, rule) = answers.next();
                    ReadOp::Answer { template, rule }
                }
                1 => ReadOp::QueryFl {
                    pattern: patterns.deal(),
                },
                2 => ReadOp::Plan,
                _ => ReadOp::Ping,
            });
        }
    }
    out
}

/// The FL patterns in equal shares, in seeded order.
pub fn pattern_deck(seed: u64) -> Deck {
    Deck::new(Rng::stream(seed, "pattern"), PATTERNS.len())
}

/// Rows per publish batch: the server's default for the `publish` op,
/// and the batch size of the repository's `server_qps` bench group.
/// Batch `k`'s rows are `kind_sources::ncmir_update_rows(scenario_seed,
/// 1001 + k, PUBLISH_ROWS)`, the rows the server's writer generates for
/// its `k`-th publish, so they are seeded by the workload seed.
pub const PUBLISH_ROWS: usize = 1;

/// The batch number the server's writer gives its `k`-th publish (0-based).
pub fn server_batch(k: usize) -> usize {
    1001 + k
}

/// The scenario seed a workload seed maps to.
pub fn scenario_seed(seed: u64) -> u64 {
    Rng::stream(seed, "scenario").next_u64() % 1_000_000
}

/// One federated source's delay law: a fixed base latency plus, on a
/// seeded share of calls, a slow-tail extra.
#[derive(Debug, Clone)]
pub struct DelayLaw {
    /// Base delay of every call.
    pub base: Duration,
    /// Extra delay of a slow-tail call.
    pub tail: Duration,
    /// Probability that a call hits the tail.
    pub tail_p: f64,
    /// The per-call draw stream.
    pub rng: Rng,
}

impl DelayLaw {
    /// The next call's delay.
    pub fn next_delay(&mut self) -> Duration {
        if self.rng.unit() < self.tail_p {
            self.base + self.tail
        } else {
            self.base
        }
    }
}

/// Per-source delay laws for `n` sources: base uniform in 10–30 ms,
/// centred on the 20 ms per-source stall of the repository's
/// `overlapped_fetch` bench group, and one call in 50 takes a further
/// 30–60 ms. The spread and the tail are assumed, not measured.
pub fn delay_laws(seed: u64, n: usize) -> Vec<DelayLaw> {
    let mut rng = Rng::stream(seed, "delay");
    (0..n)
        .map(|i| DelayLaw {
            base: Duration::from_micros(rng.range_f64(10_000.0, 30_000.0) as u64),
            tail: Duration::from_micros(rng.range_f64(30_000.0, 60_000.0) as u64),
            tail_p: 0.02,
            rng: Rng::stream(seed ^ (i as u64 + 1).wrapping_mul(0x9e37), "calls"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(read_ops(7, 500), read_ops(7, 500));
        assert_ne!(read_ops(7, 500), read_ops(8, 500));
        let a: Vec<_> = delay_laws(7, 4).iter().map(|d| d.base).collect();
        let b: Vec<_> = delay_laws(7, 4).iter().map(|d| d.base).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_shares_are_exact_per_block() {
        let ops = read_ops(3, 1000);
        let count = |name: &str| ops.iter().filter(|o| o.name() == name).count();
        assert_eq!(count("answer"), 200);
        assert_eq!(count("query_fl"), 400);
        assert_eq!(count("plan"), 200);
        assert_eq!(count("ping"), 200);
    }

    #[test]
    fn decks_deal_equal_shares_per_block() {
        let mut d = Deck::new(Rng::stream(1, "t"), 6);
        for _ in 0..5 {
            let mut block: Vec<usize> = (0..6).map(|_| d.deal()).collect();
            block.sort();
            assert_eq!(block, [0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn rules_are_fully_instantiated() {
        let mut g = AnswerGen::new(11, true);
        for _ in 0..200 {
            let (t, rule) = g.next();
            assert!(t < TEMPLATES.len());
            assert!(!rule.contains('{'), "{rule}");
        }
    }

    #[test]
    fn zipf_skews_towards_the_first_rank() {
        let mut g = AnswerGen::new(5, true);
        let top = g.proteins[0];
        let hits = (0..2000)
            .map(|_| g.instantiate(0))
            .filter(|r| r.contains(top))
            .count();
        // Rank 1 of 4 under s = 1 carries 48% of the mass.
        assert!((800..1150).contains(&hits), "{hits}");
    }
}
