//! Seeded chaos soak: random fault schedules × deadlines × hedging ×
//! fetch-thread counts, end to end through the §5 plan.
//!
//! For every seed we derive a deterministic configuration — which faults
//! hit SENSELAB, whether a query budget is armed, whether hedging is on —
//! and run the full plan at `fetch_threads` ∈ `{1, N}` (N from
//! `KIND_CHAOS_THREADS`, default 8), crossed with both fetch transports
//! (scoped threads and the overlapped executor). The invariants:
//!
//! * nothing panics — every configuration degrades, it never aborts;
//! * the [`kind::core::AnswerReport`] (outcomes, attempts, hedges,
//!   cancellations, elapsed time) is **bit-identical** across all thread
//!   counts and transports, and across repeat runs of the same
//!   configuration;
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

use kind::core::{run_section5, Fault, FetchMode, NeuroSchema, PlanTrace, Section5Query};
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

fn run_once(cfg: &ChaosConfig, fetch_threads: usize, fetch_mode: FetchMode) -> (String, String) {
    let params = ScenarioParams {
        fetch_threads,
        fetch_mode,
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
        // Thread counts crossed with both fetch transports: the
        // overlapped executor must reproduce the scoped plane's reports
        // and answers bit for bit under every chaos schedule.
        let mut combos = Vec::new();
        for mode in [FetchMode::ScopedThreads, FetchMode::Overlapped] {
            for f in [1, hi] {
                combos.push((f, mode));
            }
        }
        let runs: Vec<(String, String)> = combos
            .iter()
            .map(|&(f, mode)| run_once(&cfg, f, mode))
            .collect();
        // Bit-identical reports and answers at every combination.
        for (combo, run) in combos.iter().zip(&runs).skip(1) {
            assert_eq!(
                run, &runs[0],
                "seed {seed}: {combo:?} diverged from (1,scoped) under {cfg:?}"
            );
        }
        // Repeat-run determinism at the high-thread setting, both modes.
        for mode in [FetchMode::ScopedThreads, FetchMode::Overlapped] {
            let again = run_once(&cfg, hi, mode);
            assert_eq!(
                again, runs[0],
                "seed {seed}: repeat {mode:?} run diverged under {cfg:?}"
            );
        }
        // A report that claims completeness must back it up: the answer
        // equals the fault-free baseline bit for bit.
        let (_report, answer) = &runs[0];
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

/// The ISSUE's acceptance scenario, pinned as a regression: an 8-source
/// scenario with one injected 10×-slow tail either completes via a hedge
/// or reports `DeadlineExceeded` — and does so bit-identically at every
/// thread count.
#[test]
fn slow_tail_with_deadline_and_hedge_is_reproducible() {
    let hi = high_threads_from_env();
    let cfg = ChaosConfig {
        faults: vec![Fault::SlowTail {
            seed: 2001,
            delay_ms: 500, // 10× the 50ms hedge threshold
            slow_per_mille: 500,
        }],
        query_budget_ms: 2_000,
        hedge_after_ms: 50,
    };
    let baseline = run_once(&cfg, 1, FetchMode::ScopedThreads);
    for mode in [FetchMode::ScopedThreads, FetchMode::Overlapped] {
        for f in [1, hi] {
            assert_eq!(
                run_once(&cfg, f, mode),
                baseline,
                "threads {f} mode {mode:?}"
            );
        }
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
