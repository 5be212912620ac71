//! Seeded chaos soak: random fault schedules × deadlines × hedging ×
//! fetch-thread counts, end to end through the §5 plan.
//!
//! For every seed we derive a deterministic configuration — which faults
//! hit SENSELAB, whether a query budget is armed, whether hedging is on —
//! and run the full plan at `fetch_threads` ∈ `{1, N}` (N from
//! `KIND_CHAOS_THREADS`, default 8). The invariants:
//!
//! * nothing panics — every configuration degrades, it never aborts;
//! * the [`kind::core::AnswerReport`] (outcomes, attempts, hedges,
//!   cancellations, elapsed time) is **bit-identical** across thread
//!   counts and across repeat runs of the same configuration, and at the
//!   fixed seeds it matches pinned digests;
//! * whenever the report says `is_complete()`, the answer itself is
//!   bit-identical to the fault-free baseline.
//!
//! Faults are injected into SENSELAB only: the determinism guarantee
//! rests on per-source fault schedules being consumed serially inside
//! that source's fetch job, which a single faulty source exercises
//! without letting concurrent injectors race each other on the shared
//! virtual clock.
//!
//! CI runs this as the `chaos-smoke` job at fixed seeds; locally, widen
//! the sweep with e.g. `KIND_CHAOS_SEEDS="1,2,3,4,5" cargo test --test
//! chaos_soak`.

use kind::core::{run_section5, Fault, NeuroSchema, PlanTrace, Section5Query};
use kind::sources::{build_scenario, build_scenario_with_faults, ScenarioParams};

/// splitmix64 — the same deterministic scrambler the fault injector uses
/// for its seeded schedules.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn seeds_from_env() -> Vec<u64> {
    std::env::var("KIND_CHAOS_SEEDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![2001, 7, 42])
}

fn high_threads_from_env() -> usize {
    std::env::var("KIND_CHAOS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or(8)
}

/// One derived chaos configuration: everything is a pure function of the
/// seed, so equal seeds mean equal runs — on any machine, at any thread
/// count.
#[derive(Debug)]
struct ChaosConfig {
    faults: Vec<Fault>,
    query_budget_ms: u64,
    hedge_after_ms: u64,
}

fn derive_config(seed: u64) -> ChaosConfig {
    let mut faults = Vec::new();
    // Between one and three fault layers, drawn from the full taxonomy.
    let n_faults = 1 + (mix(seed ^ 0xFA) % 3) as usize;
    for i in 0..n_faults {
        let d = mix(seed ^ 0xF0 ^ (i as u64).wrapping_mul(0x1234567));
        faults.push(match d % 6 {
            0 => Fault::FailFirst((d >> 8) as u32 % 3),
            1 => Fault::Flaky {
                seed: d,
                fail_per_mille: ((d >> 16) % 400) as u16,
            },
            2 => Fault::Slow {
                delay_ms: 20 + (d >> 8) % 200,
            },
            3 => Fault::SlowTail {
                seed: d,
                delay_ms: 100 + (d >> 8) % 400,
                slow_per_mille: ((d >> 24) % 600) as u16,
            },
            4 => Fault::CorruptRows {
                seed: d,
                corrupt_per_mille: ((d >> 16) % 300) as u16,
            },
            _ => Fault::TruncateAfter(5 + (d >> 8) as usize % 50),
        });
    }
    let query_budget_ms = match mix(seed ^ 0xB0D9E7) % 3 {
        0 => 0,                                // no deadline
        1 => 50 + mix(seed ^ 0xB1) % 200,      // tight: expect cutoffs
        _ => 5_000 + mix(seed ^ 0xB2) % 5_000, // loose: rarely binds
    };
    let hedge_after_ms = if mix(seed ^ 0x4ED6E).is_multiple_of(2) {
        0
    } else {
        50
    };
    ChaosConfig {
        faults,
        query_budget_ms,
        hedge_after_ms,
    }
}

fn s5_query() -> Section5Query {
    Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    }
}

/// Everything a run must reproduce exactly: the degradation report and
/// the answer payload, canonicalized to comparable strings.
fn fingerprint(trace: &PlanTrace) -> (String, String) {
    let report = format!("{:?}", trace.report);
    let answer = format!(
        "{:?}|{:?}|{:?}|{:?}",
        trace.step1_pairs, trace.selected_sources, trace.proteins, trace.distribution
    );
    (report, answer)
}

fn run_once(cfg: &ChaosConfig, fetch_threads: usize) -> (String, String) {
    let params = ScenarioParams {
        fetch_threads,
        query_budget_ms: cfg.query_budget_ms,
        hedge_after_ms: cfg.hedge_after_ms,
        ..ScenarioParams::default()
    };
    let (mut m, _injector) = build_scenario_with_faults(&params, cfg.faults.clone());
    let trace = run_section5(&mut m, &NeuroSchema::default(), &s5_query(), true)
        .expect("chaos degrades the answer, it never aborts the plan");
    fingerprint(&trace)
}

#[test]
fn chaos_soak_is_deterministic_and_degrades_gracefully() {
    let hi = high_threads_from_env();
    // The fault-free baseline answer, for the completeness check.
    let (_, baseline_answer) = {
        let mut m = build_scenario(&ScenarioParams::default());
        let trace = run_section5(&mut m, &NeuroSchema::default(), &s5_query(), true)
            .expect("fault-free baseline runs");
        fingerprint(&trace)
    };
    for seed in seeds_from_env() {
        let cfg = derive_config(seed);
        // Bit-identical reports and answers at both thread counts, and on
        // a repeat run at the high-thread setting.
        let serial = run_once(&cfg, 1);
        assert_eq!(
            run_once(&cfg, hi),
            serial,
            "seed {seed}: {hi} threads diverged from 1 under {cfg:?}"
        );
        assert_eq!(
            run_once(&cfg, hi),
            serial,
            "seed {seed}: repeat run at {hi} threads diverged under {cfg:?}"
        );
        // A report that claims completeness must back it up: the answer
        // equals the fault-free baseline bit for bit.
        let (_report, answer) = &serial;
        let params = ScenarioParams {
            query_budget_ms: cfg.query_budget_ms,
            hedge_after_ms: cfg.hedge_after_ms,
            ..ScenarioParams::default()
        };
        let (mut m, _inj) = build_scenario_with_faults(&params, cfg.faults.clone());
        let trace =
            run_section5(&mut m, &NeuroSchema::default(), &s5_query(), true).expect("plan runs");
        if trace.report.is_complete() {
            assert_eq!(
                answer, &baseline_answer,
                "seed {seed}: report claims complete but the answer differs from the \
                 fault-free baseline under {cfg:?}"
            );
        }
    }
}

/// One 10×-slow tail on SENSELAB under a loose deadline with hedging on.
fn slow_tail_config() -> ChaosConfig {
    ChaosConfig {
        faults: vec![Fault::SlowTail {
            seed: 2001,
            delay_ms: 500, // 10× the 50ms hedge threshold
            slow_per_mille: 500,
        }],
        query_budget_ms: 2_000,
        hedge_after_ms: 50,
    }
}

/// The acceptance scenario, pinned as a regression: an 8-source
/// scenario with one injected 10×-slow tail either completes via a hedge
/// or reports `DeadlineExceeded` — and does so bit-identically at every
/// thread count.
#[test]
fn slow_tail_with_deadline_and_hedge_is_reproducible() {
    let hi = high_threads_from_env();
    let cfg = slow_tail_config();
    let baseline = run_once(&cfg, 1);
    for f in [1, hi] {
        assert_eq!(run_once(&cfg, f), baseline, "threads {f}");
    }
    // The report must show the deadline plane actually engaged: either a
    // hedge rescued the tail (answer complete) or the deadline cut it off.
    let params = ScenarioParams {
        query_budget_ms: cfg.query_budget_ms,
        hedge_after_ms: cfg.hedge_after_ms,
        ..ScenarioParams::default()
    };
    let (mut m, _inj) = build_scenario_with_faults(&params, cfg.faults.clone());
    let trace =
        run_section5(&mut m, &NeuroSchema::default(), &s5_query(), true).expect("plan runs");
    let senselab = trace.report.source("SENSELAB").expect("contacted");
    assert!(
        trace.report.is_complete() && senselab.hedged > 0 || trace.report.deadline_exceeded(),
        "expected hedged-complete or deadline-exceeded, got: {}",
        trace.report.summary_line()
    );
    assert!(trace.report.elapsed_ms <= trace.report.budget_ms || trace.report.deadline_exceeded());
}

/// 64-bit FNV-1a: a short, stable digest of a report string.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Absolute pins on the fetch plane's reports. The other oracles here
/// are relative (one thread count against another), so a change to the
/// guarded-fetch loop that moved attempts, hedges, cancellations or
/// `elapsed_ms` the same way at every thread count would pass them all.
/// These digests were recorded before the loop was last rewritten and
/// must not move without a deliberate change to fetch semantics.
#[test]
fn chaos_reports_are_pinned() {
    let pins: [(&str, ChaosConfig, u64, &str); 4] = [
        (
            "seed 2001",
            derive_config(2001),
            0x6448_74d9_7950_1503,
            "DEADLINE EXCEEDED (1 of 1 sources) · 1 sources, 0 rows, 2 attempts, \
             1 hedged, 2 cancelled, 539ms of 194ms budget",
        ),
        (
            "seed 7",
            derive_config(7),
            0x521f_1c39_b075_dc6f,
            "complete · 2 sources, 34 rows, 3 attempts, 0ms of 8965ms budget",
        ),
        (
            "seed 42",
            derive_config(42),
            0xd801_4765_31fa_89c9,
            "complete · 2 sources, 34 rows, 4 attempts, 1 hedged, 1 cancelled, 61ms",
        ),
        (
            "slow tail",
            slow_tail_config(),
            0x0828_cb4e_c1e7_bd57,
            "complete · 2 sources, 34 rows, 4 attempts, 1 hedged, 1 cancelled, \
             50ms of 2000ms budget",
        ),
    ];
    for (label, cfg, digest, summary) in pins {
        for fetch_threads in [1, high_threads_from_env()] {
            let params = ScenarioParams {
                fetch_threads,
                query_budget_ms: cfg.query_budget_ms,
                hedge_after_ms: cfg.hedge_after_ms,
                ..ScenarioParams::default()
            };
            let (mut m, _inj) = build_scenario_with_faults(&params, cfg.faults.clone());
            let trace = run_section5(&mut m, &NeuroSchema::default(), &s5_query(), true)
                .expect("plan runs");
            let (report, _) = fingerprint(&trace);
            assert_eq!(
                trace.report.summary_line(),
                summary,
                "{label} at {fetch_threads} threads"
            );
            assert_eq!(
                fnv1a(&report),
                digest,
                "{label} at {fetch_threads} threads: report {report}"
            );
        }
    }
}
