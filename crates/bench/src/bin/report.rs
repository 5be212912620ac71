//! Regenerates, in one run, the qualitative outputs of every figure /
//! table / example in the paper, as plain-text tables. The output of this
//! binary is what EXPERIMENTS.md records as "measured".
//!
//! ```sh
//! cargo run -p kind-bench --bin report
//! ```

use kind_bench::{closure_map, corrupted_order, latency_mediator};
use kind_core::{
    protein_distribution, run_section5, Fault, FetchRequest, Mediator, NeuroSchema, Section5Query,
    SourcePolicy,
};
use kind_datalog::EvalOptions;
use kind_dm::{figures, Resolved};
use kind_flogic::FLogic;
use kind_gcm::{GcmDecl, GcmValue};
use kind_server::client::{workload_request, Conn};
use kind_server::server::{spawn_server, ServerConfig};
use kind_server::wire::{obj, Json};
use kind_sources::{build_scenario, build_scenario_with_faults, ncmir_update_rows, ScenarioParams};
use std::hint::black_box;
use std::time::Instant;

fn header(s: &str) {
    println!("\n==================================================================");
    println!("{s}");
    println!("==================================================================");
}

fn main() {
    // `KIND_BENCH_FAST=1` is the CI smoke mode: skip the narrative
    // figure/table reports and emit only BENCH_PR10.json with reduced
    // iteration counts and workload sizes.
    let fast = std::env::var("KIND_BENCH_FAST").is_ok();
    // The incremental-publish group compares a sub-millisecond republish
    // against a multi-millisecond rebuild; measure it first, in a clean
    // process, so heap state left behind by the narrative reports (which
    // inflates the small side disproportionately) cannot skew the ratio.
    let inc = incremental_publish_bench(fast, &bench_params(fast));
    if !fast {
        figure1_report();
        table1_report();
        figure2_report();
        example2_report();
        figure3_report();
        section5_report();
    }
    bench_pr10_report(fast, inc);
}

/// Scenario sizing shared by the benchmark groups (reduced in CI smoke
/// mode).
fn bench_params(fast: bool) -> ScenarioParams {
    if fast {
        ScenarioParams {
            senselab_rows: 10,
            ncmir_rows: 15,
            synapse_rows: 10,
            noise_sources: 1,
            noise_rows: 5,
            ..Default::default()
        }
    } else {
        ScenarioParams::default()
    }
}

/// Minimum wall time of `f` over `iters` runs, in nanoseconds — the
/// noise-robust point estimate for micro-measurements.
fn min_ns<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration")
}

/// Benchmark report: the evaluation-pipeline benches (each entry pairs a
/// baseline with the optimized path, minimum wall time of both), the
/// concurrent-snapshot throughput group, the parallel fetch-plane group,
/// the tail-latency (hedged fetch) group, the magic-sets ablation group,
/// the incremental-publish (write plane) group, the sustained-QPS group
/// driving a live `kind-server` over TCP, and `EvalStats` counters from a
/// representative warm model. Results go to stdout and `BENCH_PR10.json`.
fn bench_pr10_report(fast: bool, inc: IncGroup) {
    header("Benchmark report — evaluation, fetch, serving and write planes");
    let iters = if fast { 5 } else { 25 };
    let (depth, fanout) = if fast { (4usize, 3usize) } else { (5, 3) };
    let mut rows: Vec<(&str, u128, u128)> = Vec::new();

    // Layer: domain-map closure memoization (fig1 scenarios). Baseline
    // recomputes closures from a fresh `Resolved`; optimized reuses the
    // warm memo tables every mediator query hits after the first.
    let dm = closure_map(depth, fanout);
    let root = dm.lookup("Nervous_System").unwrap();
    let warm = Resolved::new(&dm);
    warm.downward_closure("has_a", root);
    warm.dc_pairs("has_a");
    let base = min_ns(iters, || {
        let r = Resolved::new(&dm);
        black_box(r.downward_closure("has_a", root).len());
    });
    let opt = min_ns(iters, || {
        black_box(warm.downward_closure("has_a", root).len());
    });
    rows.push(("fig1_downward_closure_warm", base, opt));
    let base = min_ns(iters, || {
        let r = Resolved::new(&dm);
        black_box(r.dc_pairs("has_a").len());
    });
    let opt = min_ns(iters, || {
        black_box(warm.dc_pairs("has_a").len());
    });
    rows.push(("fig1_dc_pairs_warm", base, opt));

    // Layer: the full §5 plan. Baseline is the pre-PR configuration —
    // closures recomputed on every call (a fresh mediator per iteration,
    // construction excluded from the timed region) and the evaluation
    // layers ablated. Optimized is a repeat call on a warm mediator
    // whose memo tables are primed, with the default options.
    let schema = NeuroSchema::default();
    let q = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    let params = bench_params(fast);
    let plan_iters = iters.min(10);
    let ablated_opts = EvalOptions {
        join_reorder: false,
        use_index: false,
        base_cache: false,
        ..Default::default()
    };
    let base = (0..plan_iters)
        .map(|_| {
            let mut m = build_scenario(&params);
            m.set_eval_options(ablated_opts.clone());
            let t = Instant::now();
            black_box(run_section5(&mut m, &schema, &q, true).unwrap().step3_rows);
            t.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration");
    let mut m_on = build_scenario(&params);
    run_section5(&mut m_on, &schema, &q, true).unwrap();
    let opt = min_ns(plan_iters, || {
        black_box(
            run_section5(&mut m_on, &schema, &q, true)
                .unwrap()
                .step3_rows,
        );
    });
    rows.push(("sec5_query_plan_warm", base, opt));

    // Layer: the whole pipeline on repeated `answer()` — the defaults
    // (reorder + index + base cache) vs. all three ablated, i.e. the
    // evaluator this PR replaced. Both sides get one untimed priming
    // call, so the numbers are second-and-later query cost.
    let aq = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                X[location -> L], X[ion_bound -> "calcium"]."#;
    let mut m_ablated = build_scenario(&params);
    m_ablated.set_eval_options(ablated_opts);
    m_ablated.answer(aq).unwrap();
    let base = min_ns(plan_iters, || {
        black_box(m_ablated.answer(aq).unwrap().rows.len());
    });
    let mut m_warm = build_scenario(&params);
    m_warm.answer(aq).unwrap();
    let opt = min_ns(plan_iters, || {
        black_box(m_warm.answer(aq).unwrap().rows.len());
    });
    rows.push(("sec5_warm_answer", base, opt));

    println!(
        "\n  {:<28} | {:>14} | {:>14} | {:>8}",
        "bench", "baseline ns", "optimized ns", "speedup"
    );
    for (name, b, o) in &rows {
        println!(
            "  {:<28} | {:>14} | {:>14} | {:>7.2}x",
            name,
            b,
            o,
            *b as f64 / (*o).max(1) as f64
        );
    }

    let conc = snapshot_concurrency_bench(fast, &params);
    let one_worker_ns = conc.first().map(|c| c.snapshot_wall_ns).unwrap_or(1);
    println!(
        "\n  concurrent snapshot query throughput ({} core(s) available):",
        cores()
    );
    println!(
        "  {:>7} | {:>9} | {:>13} | {:>13} | {:>9} | {:>12} | {:>8}",
        "workers", "queries", "locked ns", "snapshot ns", "vs locked", "queries/s", "scaling"
    );
    for c in &conc {
        println!(
            "  {:>7} | {:>9} | {:>13} | {:>13} | {:>8.2}x | {:>12.0} | {:>7.2}x",
            c.workers,
            c.total_queries,
            c.locked_wall_ns,
            c.snapshot_wall_ns,
            c.locked_wall_ns as f64 / c.snapshot_wall_ns.max(1) as f64,
            c.total_queries as f64 / (c.snapshot_wall_ns as f64 / 1e9),
            one_worker_ns as f64 / c.snapshot_wall_ns.max(1) as f64
        );
    }

    let par = parallel_materialize_bench(fast);
    println!(
        "\n  parallel materialization ({} sources, {}ms simulated source latency, {} core(s)):",
        par.sources,
        par.delay_ms,
        cores()
    );
    println!(
        "  {:>14} | {:>13} | {:>8}",
        "fetch threads", "wall ns", "speedup"
    );
    let serial_ns = par.serial_wall_ns;
    println!("  {:>14} | {:>13} | {:>7.2}x", "serial", serial_ns, 1.0);
    for r in &par.rows {
        println!(
            "  {:>14} | {:>13} | {:>7.2}x",
            r.threads,
            r.wall_ns,
            serial_ns as f64 / r.wall_ns.max(1) as f64
        );
    }

    let magic = magic_sets_bench(fast, &params);
    println!("\n  magic-sets ablation (warm answer, rewrite off vs. on):");
    println!(
        "  {:>24} | {:>12} | {:>12} | {:>8} | {:>11} | {:>11} | {:>9} | {:>8}",
        "query", "off ns", "on ns", "speedup", "off derived", "on derived", "reduction", "declined"
    );
    for r in &magic {
        println!(
            "  {:>24} | {:>12} | {:>12} | {:>7.2}x | {:>11} | {:>11} | {:>8.2}x | {:>8}",
            r.name,
            r.off_ns,
            r.on_ns,
            r.off_ns as f64 / r.on_ns.max(1) as f64,
            r.off_derived,
            r.on_derived,
            r.off_derived as f64 / r.on_derived.max(1) as f64,
            r.magic_declined
        );
    }

    println!(
        "\n  incremental publish (one fresh row per iteration, {} iterations, measured process-clean before all other groups):",
        inc.iters
    );
    println!(
        "  {:>12} | {:>13} | {:>13} | {:>8}",
        "publish path", "p50 ns", "p99 ns", "speedup"
    );
    println!(
        "  {:>12} | {:>13} | {:>13} | {:>8}",
        "cold", inc.cold_p50_ns, inc.cold_p99_ns, ""
    );
    println!(
        "  {:>12} | {:>13} | {:>13} | {:>7.2}x",
        "incremental",
        inc.inc_p50_ns,
        inc.inc_p99_ns,
        inc.cold_p50_ns as f64 / inc.inc_p50_ns.max(1) as f64
    );
    println!(
        "  sustained update-while-reading: {} publishes + {} snapshot reads across {} readers in {:.1} ms ({:.0} publishes/s, {:.0} reads/s)",
        inc.sustained.publishes,
        inc.sustained.reads,
        inc.sustained.readers,
        inc.sustained.wall_ns as f64 / 1e6,
        inc.sustained.publishes as f64 / (inc.sustained.wall_ns as f64 / 1e9),
        inc.sustained.reads as f64 / (inc.sustained.wall_ns as f64 / 1e9)
    );

    let tail = tail_latency_bench(fast);
    println!(
        "\n  tail latency ({} runs, SlowTail {}ms at {}‰, hedge after {}ms, virtual time):",
        tail.runs, tail.delay_ms, tail.slow_per_mille, tail.hedge_after_ms
    );
    println!(
        "  {:>9} | {:>7} | {:>7} | {:>7} | {:>7}",
        "policy", "p50 ms", "p99 ms", "max ms", "hedged"
    );
    for (name, st) in [("no hedge", &tail.no_hedge), ("hedge", &tail.hedge)] {
        println!(
            "  {:>9} | {:>7} | {:>7} | {:>7} | {:>7}",
            name, st.p50_ms, st.p99_ms, st.max_ms, st.hedged
        );
    }

    let sq = server_qps_bench(fast);
    println!(
        "\n  server_qps (live kind-server over TCP, mixed workload, {} core(s){}):",
        cores(),
        if cores() == 1 {
            "; 1-core host: worker scaling is overlap only"
        } else {
            ""
        }
    );
    println!(
        "  {:>12} | {:>7} | {:>5} | {:>7} | {:>7} | {:>4} | {:>8} | {:>8} | {:>8} | {:>9} | {:>9}",
        "row",
        "workers",
        "queue",
        "clients",
        "ok",
        "shed",
        "qps",
        "p50 µs",
        "p99 µs",
        "pre p99",
        "post p99"
    );
    for r in &sq.rows {
        println!(
            "  {:>12} | {:>7} | {:>5} | {:>7} | {:>7} | {:>4} | {:>8.0} | {:>8} | {:>8} | {:>9} | {:>9}",
            r.name,
            r.workers,
            r.queue_depth,
            r.clients,
            r.ok,
            r.shed,
            r.qps(),
            r.p50_us,
            r.p99_us,
            r.pre_publish_p99_us,
            r.post_publish_p99_us
        );
    }
    if let Some(ratio) = sq.overload_p99_ratio() {
        println!(
            "  overload: bounded queue kept admitted p99 at {:.2}x the uncontended p99",
            ratio
        );
    }

    let json = render_bench_json(
        fast,
        iters,
        &rows,
        &conc,
        &par,
        &tail,
        &magic,
        &inc,
        &sq,
        &mut m_warm,
    );
    std::fs::write("BENCH_PR10.json", &json).expect("write BENCH_PR10.json");
    println!("\nwrote BENCH_PR10.json");
}

/// One `server_qps` measurement: a freshly spawned `kind-server` (its
/// own scenario mediator, worker pool, and admission queue) driven over
/// real TCP by `clients` threads issuing the mixed client workload.
struct QpsRow {
    name: &'static str,
    workers: usize,
    queue_depth: usize,
    clients: usize,
    ok: u64,
    shed: u64,
    deadline: u64,
    publishes: u64,
    wall_ns: u128,
    p50_us: u128,
    p99_us: u128,
    /// p99 of requests served from the startup epoch (0 when the row
    /// runs without mid-run publishes).
    pre_publish_p99_us: u128,
    /// p99 of requests served from a republished epoch — the
    /// republish-while-serving evidence (0 when no publishes ran).
    post_publish_p99_us: u128,
}

impl QpsRow {
    fn qps(&self) -> f64 {
        self.ok as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// The PR 9 `server_qps` group: sustained rows at two worker counts
/// (each with a mid-run republish), an uncontended reference row, and a
/// deliberately overloaded row with a queue depth of 1.
struct ServerQpsGroup {
    rows: Vec<QpsRow>,
}

impl ServerQpsGroup {
    /// Admitted-p99 under overload over the uncontended p99 — the
    /// bounded-queue claim is that shedding keeps this small (≤ 2x).
    fn overload_p99_ratio(&self) -> Option<f64> {
        let base = self.rows.iter().find(|r| r.name == "uncontended")?;
        let over = self.rows.iter().find(|r| r.name == "overload")?;
        Some(over.p99_us as f64 / base.p99_us.max(1) as f64)
    }
}

/// Drives one spawned server with `clients` threads × `per_client`
/// requests of the mixed workload; when `publishes > 0`, a publisher
/// connection republishes that many single-row batches once half the
/// requests have completed, and latency samples are split by the epoch
/// each response reports.
fn server_qps_run(
    name: &'static str,
    scenario: &ScenarioParams,
    workers: usize,
    queue_depth: usize,
    clients: usize,
    per_client: usize,
    publishes: u64,
) -> QpsRow {
    use std::sync::atomic::{AtomicU64, Ordering};

    let handle = spawn_server(ServerConfig {
        workers,
        queue_depth,
        scenario: scenario.clone(),
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = handle.addr().to_string();

    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let deadline = AtomicU64::new(0);
    let total = (clients * per_client) as u64;
    // (latency µs, epoch) per successful response, merged across threads.
    let samples: std::sync::Mutex<Vec<(u128, u64)>> = std::sync::Mutex::new(Vec::new());

    let wall = Instant::now();
    std::thread::scope(|s| {
        for t in 0..clients {
            let (addr, completed, shed, deadline, samples) =
                (&addr, &completed, &shed, &deadline, &samples);
            s.spawn(move || {
                let mut conn = Conn::connect(addr).expect("client connects");
                let mut local: Vec<(u128, u64)> = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let req = workload_request(t * 7 + i, 0);
                    let t0 = Instant::now();
                    let resp = conn.request(req).expect("request round-trips");
                    let lat_us = t0.elapsed().as_micros();
                    completed.fetch_add(1, Ordering::Relaxed);
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        let epoch = resp.get("epoch").and_then(Json::as_u64).unwrap_or(0);
                        local.push((lat_us, epoch));
                    } else {
                        match resp.get("error").and_then(Json::as_str) {
                            Some("overloaded") => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                // Honor the backpressure signal briefly so
                                // the row measures shedding, not a retry
                                // storm.
                                std::thread::sleep(std::time::Duration::from_micros(500));
                            }
                            _ => {
                                deadline.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                samples.lock().unwrap().append(&mut local);
            });
        }
        if publishes > 0 {
            let (addr, completed) = (&addr, &completed);
            s.spawn(move || {
                // Republish while serving: wait for the run to be half
                // done, then push fresh NCMIR rows through the writer
                // thread, bumping the hub epoch under live traffic.
                while completed.load(Ordering::Relaxed) < total / 2 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let mut conn = Conn::connect(addr).expect("publisher connects");
                for _ in 0..publishes {
                    let resp = conn
                        .request(obj([("op", Json::str("publish")), ("rows", Json::int(1))]))
                        .expect("publish round-trips");
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "mid-run publish failed"
                    );
                }
            });
        }
    });
    let wall_ns = wall.elapsed().as_nanos();
    handle.shutdown();

    let mut samples = samples.into_inner().unwrap();
    samples.sort_unstable_by_key(|&(lat, _)| lat);
    let ok = samples.len() as u64;
    let lats: Vec<u128> = samples.iter().map(|&(lat, _)| lat).collect();
    let base_epoch = samples.iter().map(|&(_, e)| e).min().unwrap_or(0);
    let pre: Vec<u128> = samples
        .iter()
        .filter(|&&(_, e)| e == base_epoch)
        .map(|&(lat, _)| lat)
        .collect();
    let post: Vec<u128> = samples
        .iter()
        .filter(|&&(_, e)| e > base_epoch)
        .map(|&(lat, _)| lat)
        .collect();
    let pct = |v: &[u128], p: usize| if v.is_empty() { 0 } else { percentile(v, p) };
    QpsRow {
        name,
        workers,
        queue_depth,
        clients,
        ok,
        shed: shed.load(Ordering::Relaxed),
        deadline: deadline.load(Ordering::Relaxed),
        publishes,
        wall_ns,
        p50_us: pct(&lats, 50),
        p99_us: pct(&lats, 99),
        pre_publish_p99_us: if publishes > 0 { pct(&pre, 99) } else { 0 },
        post_publish_p99_us: pct(&post, 99),
    }
}

/// The PR 9 tentpole measurement: sustained QPS against a live
/// `kind-server` binary plane (in-process spawn, real TCP loopback).
/// Two worker counts each absorb a mid-run republish — the epoch-split
/// p99 columns show serving continued across the swap with no cliff —
/// and the `overload` row sheds on a queue depth of 1, showing bounded
/// admission keeps the p99 of *admitted* requests near the uncontended
/// baseline while excess load gets a typed `overloaded` response.
fn server_qps_bench(fast: bool) -> ServerQpsGroup {
    let scenario = bench_params(fast);
    let per_client = if fast { 25 } else { 100 };
    let rows = vec![
        server_qps_run("uncontended", &scenario, 1, 64, 1, per_client, 0),
        server_qps_run("1_worker", &scenario, 1, 64, 2, per_client, 2),
        server_qps_run("2_workers", &scenario, 2, 64, 4, per_client, 2),
        server_qps_run("overload", &scenario, 1, 1, 4, per_client, 0),
    ];
    ServerQpsGroup { rows }
}

/// Sustained write-while-read throughput: one writer loading rows and
/// republishing snapshots while reader threads drain queries from the
/// latest published snapshot, lock-free on the query hot path.
struct SustainedStats {
    readers: usize,
    publishes: usize,
    reads: usize,
    wall_ns: u128,
}

/// The `incremental_publish` group's results: per-iteration republish
/// latency percentiles for the staged delta plane vs. the cold
/// invalidate-and-rebuild baseline, plus the sustained mixed workload.
struct IncGroup {
    iters: usize,
    inc_p50_ns: u128,
    inc_p99_ns: u128,
    cold_p50_ns: u128,
    cold_p99_ns: u128,
    sustained: SustainedStats,
}

fn percentile(sorted: &[u128], p: usize) -> u128 {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// The PR 8 tentpole measurement. Incremental side: a warm, fully
/// materialized §5 scenario absorbs one fresh NCMIR row per iteration
/// and republishes — `publish()` folds the staged delta into the cached
/// model via seeded delta rounds, so the timed region is proportional to
/// the delta's cone, not the knowledge base. Cold side: the
/// pre-write-plane behavior for the same event — every mutation
/// invalidates, so each republish rebuilds the program, refetches every
/// source, and reevaluates from scratch.
fn incremental_publish_bench(fast: bool, params: &ScenarioParams) -> IncGroup {
    let iters = if fast { 8 } else { 30 };
    let mut m = build_scenario(params);
    m.materialize_all().expect("scenario materializes");
    m.publish().expect("initial publish");
    let pool = ncmir_update_rows(params.seed, 1, iters);
    let mut inc_ns: Vec<u128> = Vec::with_capacity(iters);
    for row in &pool {
        m.load_row("NCMIR", "protein_amount", row).expect("loads");
        let t = Instant::now();
        black_box(m.publish().expect("incremental publish").facts.len());
        inc_ns.push(t.elapsed().as_nanos());
    }
    let mut c = build_scenario(params);
    c.materialize_all().expect("scenario materializes");
    c.publish().expect("initial publish");
    let cold_iters = if fast { 3 } else { 10 };
    let cold_pool = ncmir_update_rows(params.seed, 2, cold_iters);
    let mut cold_ns: Vec<u128> = Vec::with_capacity(cold_iters);
    for row in &cold_pool {
        c.load_row("NCMIR", "protein_amount", row).expect("loads");
        let t = Instant::now();
        c.invalidate();
        c.materialize_all().expect("rematerializes");
        black_box(c.publish().expect("cold publish").facts.len());
        cold_ns.push(t.elapsed().as_nanos());
    }
    inc_ns.sort_unstable();
    cold_ns.sort_unstable();
    IncGroup {
        iters,
        inc_p50_ns: percentile(&inc_ns, 50),
        inc_p99_ns: percentile(&inc_ns, 99),
        cold_p50_ns: percentile(&cold_ns, 50),
        cold_p99_ns: percentile(&cold_ns, 99),
        sustained: sustained_update_read_bench(fast, params),
    }
}

/// Readers drain FL queries from the most recently published snapshot,
/// loaded epoch-pinned from the mediator's `SnapshotHub` (the same slot
/// `kind-server` serves from), while the writer keeps loading rows and
/// republishing through the hub — the structurally-shared snapshot
/// republish makes each install cheap, and superseded epochs keep
/// serving their frozen state until the last reader drops them.
fn sustained_update_read_bench(fast: bool, params: &ScenarioParams) -> SustainedStats {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let readers = 4usize;
    let publishes = if fast { 10 } else { 40 };
    let mut m = build_scenario(params);
    m.materialize_all().expect("scenario materializes");
    let hub = m.hub();
    m.publish_snapshot().expect("initial publish");
    let done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let pool = ncmir_update_rows(params.seed, 3, publishes);
    let patterns = ["X : protein_amount", "anchored(S, C)"];
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..readers {
            let (hub, done, reads) = (&hub, &done, &reads);
            s.spawn(move || {
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let snap = hub.load().expect("hub seeded");
                    black_box(
                        snap.query_fl(patterns[(w + i) % patterns.len()])
                            .expect("snapshot query")
                            .len(),
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        for row in &pool {
            m.load_row("NCMIR", "protein_amount", row).expect("loads");
            m.publish().expect("republish through the hub");
        }
        done.store(true, Ordering::Relaxed);
    });
    SustainedStats {
        readers,
        publishes: pool.len(),
        reads: reads.into_inner(),
        wall_ns: t.elapsed().as_nanos(),
    }
}

/// One magic-sets ablation row: the same goal-directed query with the
/// demand transformation off vs. on — wall clock and derived-fact counts.
struct MagicRow {
    name: &'static str,
    off_ns: u128,
    on_ns: u128,
    off_derived: usize,
    on_derived: usize,
    magic_fired: bool,
    /// Whether the cost model declined the rewrite (demand-cone estimate
    /// at or above the decline ratio), falling back to the plain plan.
    magic_declined: bool,
}

/// A §5-style FL knowledge base shaped like Figure 1's taxonomy: a
/// forest of `subtrees` class chains of `depth` levels under one root,
/// with `per_class` measured objects at every class — the stratified
/// fragment (CORE axioms only) where the magic rewrite applies. Full
/// materialization derives every object's upward instance cone across
/// all subtrees; a query anchored at one subtree's root only needs that
/// subtree's cone.
fn magic_flogic_fixture(subtrees: usize, depth: usize, per_class: usize) -> FLogic {
    let mut fl = FLogic::new();
    let mut text = String::new();
    for s in 0..subtrees {
        text.push_str(&format!("t{s}_0 :: thing.\n"));
        for l in 1..depth {
            text.push_str(&format!("t{s}_{l} :: t{s}_{}.\n", l - 1));
        }
        for l in 0..depth {
            for j in 0..per_class {
                text.push_str(&format!("o_{s}_{l}_{j} : t{s}_{l}.\n"));
                text.push_str(&format!(
                    "o_{s}_{l}_{j}[amount -> {}].\n",
                    (s * 13 + l * 29 + j * 17) % 100
                ));
            }
        }
    }
    fl.load(&text).expect("fixture loads");
    fl
}

/// Magic-sets ablation. The first two rows run on the stratified FL
/// fixture through `run_for_query` (the engine path `answer()` takes):
/// the *selective* query anchors at one subtree's root class, so demand
/// covers only that subtree's instance cone; the *wide* query anchors at
/// the forest root, whose cone is the whole closure — the honest no-win
/// case. The last row is the warm mediator `answer()` on the full
/// scenario: its skolem guards need the well-founded evaluator, so the
/// rewrite declines (`magic_fired` false) and the numbers show the
/// fallback costs nothing.
fn magic_sets_bench(fast: bool, params: &ScenarioParams) -> Vec<MagicRow> {
    use kind_datalog::{Atom, Term, Var};
    let iters = if fast { 3 } else { 10 };
    let (subtrees, depth, per_class) = if fast { (6, 4, 3) } else { (12, 6, 6) };
    let mut out = Vec::new();
    for (name, class) in [
        ("magic_selective_anchor", "t0_0".to_string()),
        ("magic_wide_closure", "thing".to_string()),
    ] {
        let view = format!("hot(X, A) :- X : {class}, X[amount -> A], A >= 50.");
        let run = |magic: bool| {
            let mut fl = magic_flogic_fixture(subtrees, depth, per_class);
            fl.load(&view).expect("view loads");
            let goal = Atom::new(
                fl.engine().lookup("hot").expect("view head interned"),
                vec![Term::Var(Var(0)), Term::Var(Var(1))],
            );
            let opts = EvalOptions {
                magic_sets: magic,
                ..Default::default()
            };
            let wall = min_ns(iters, || {
                black_box(fl.run_for_query(&goal, &opts).unwrap().stats.derived);
            });
            let m = fl.run_for_query(&goal, &opts).unwrap();
            (
                wall,
                m.stats.derived,
                m.profile.magic_fired,
                m.profile.magic_declined,
            )
        };
        let (off_ns, off_derived, _, _) = run(false);
        let (on_ns, on_derived, magic_fired, magic_declined) = run(true);
        out.push(MagicRow {
            name,
            off_ns,
            on_ns,
            off_derived,
            on_derived,
            magic_fired,
            magic_declined,
        });
    }
    // Mediator answer on the WFS scenario: the rewrite must decline and
    // cost nothing. Both sides get one untimed priming call, so the
    // numbers are second-and-later (base-cache warm) query cost.
    let aq = r#"calcium_at_spine(P, A) :- X : protein_amount, X[protein_name -> P],
        X[amount -> A], X[ion_bound -> "calcium"], X[location -> "Purkinje_Spine"]."#;
    let run = |magic: bool| {
        let mut m = build_scenario(params);
        m.set_magic_sets(magic);
        m.answer(aq).unwrap();
        let wall = min_ns(iters, || {
            black_box(m.answer(aq).unwrap().rows.len());
        });
        let ans = m.answer(aq).unwrap();
        (wall, ans.stats.derived, ans.magic_fired)
    };
    let (off_ns, off_derived, _) = run(false);
    let (on_ns, on_derived, magic_fired) = run(true);
    out.push(MagicRow {
        name: "magic_answer_wfs_fallback",
        off_ns,
        on_ns,
        off_derived,
        on_derived,
        magic_fired,
        // The WFS path refuses the rewrite structurally (skolem guards
        // need the well-founded evaluator), not via the cost model.
        magic_declined: false,
    });
    out
}

/// Percentiles of the per-query critical path (virtual ms) for one
/// deadline-plane policy in [`tail_latency_bench`].
struct TailStats {
    p50_ms: u64,
    p99_ms: u64,
    max_ms: u64,
    hedged: usize,
}

/// The `tail_latency` group: the same seeded `SlowTail` schedule replayed
/// against SENSELAB with hedging off and on.
struct TailGroup {
    runs: usize,
    delay_ms: u64,
    slow_per_mille: u16,
    hedge_after_ms: u64,
    no_hedge: TailStats,
    hedge: TailStats,
}

/// Repeated `answer()` calls against a source with a seeded slow tail
/// (most fetches are instant, a small fraction stall for `delay_ms`),
/// measured in **virtual** milliseconds via `AnswerReport::elapsed_ms` —
/// so the percentiles are deterministic and machine-independent. The
/// hedged side races one backup attempt after `hedge_after_ms`; because
/// the backup re-rolls the seeded tail, a stalled primary is almost
/// always rescued and the p99 collapses toward the hedge threshold.
fn tail_latency_bench(fast: bool) -> TailGroup {
    let runs = if fast { 60 } else { 200 };
    let delay_ms = 500u64;
    let slow_per_mille = 50u16;
    let hedge_after_ms = 50u64;
    let tq = r#"nt_used(N) :- X : neurotransmission, X[neurotransmitter -> N]."#;
    let measure = |hedge: bool| -> TailStats {
        let (mut m, _inj) = build_scenario_with_faults(
            &ScenarioParams::default(),
            vec![Fault::SlowTail {
                seed: 2001,
                delay_ms,
                slow_per_mille,
            }],
        );
        if hedge {
            m.set_source_policy(
                "SENSELAB",
                SourcePolicy::with_hedge_after_ms(hedge_after_ms),
            );
        }
        let mut elapsed: Vec<u64> = Vec::with_capacity(runs);
        let mut hedged = 0usize;
        for _ in 0..runs {
            let ans = m.answer(tq).expect("tail query runs");
            elapsed.push(ans.report.elapsed_ms);
            hedged += ans.report.source("SENSELAB").map_or(0, |s| s.hedged);
        }
        elapsed.sort_unstable();
        TailStats {
            p50_ms: elapsed[runs / 2],
            p99_ms: elapsed[runs * 99 / 100],
            max_ms: *elapsed.last().expect("at least one run"),
            hedged,
        }
    };
    TailGroup {
        runs,
        delay_ms,
        slow_per_mille,
        hedge_after_ms,
        no_hedge: measure(false),
        hedge: measure(true),
    }
}

/// One row of the fetch-plane group: full materialization wall time with
/// the given worker-thread budget.
struct ParRow {
    threads: usize,
    wall_ns: u128,
}

/// The fetch-plane group's results: the serial per-request loop (the
/// pre-fetch-plane code path, one `Federation::fetch` per request) plus
/// `fetch_parallel` at 1/2/4/8 worker threads.
struct ParGroup {
    sources: usize,
    delay_ms: u64,
    serial_wall_ns: u128,
    rows: Vec<ParRow>,
}

/// The `parallel_materialize` group: every source sits behind a
/// [`kind_core::StallAware`] wrapper charging real wall time per query, so
/// concurrent fetching shows up as wall-clock speedup while the results
/// stay bit-identical (asserted here on every configuration's loaded-row
/// count). The serial baseline drives one guarded `Federation::fetch`
/// per request — exactly what `materialize_all` did before the fetch
/// plane existed.
fn parallel_materialize_bench(fast: bool) -> ParGroup {
    let sources = 8usize;
    let (rows, delay_ms, iters) = if fast {
        (4usize, 2u64, 2usize)
    } else {
        (12, 5, 3)
    };
    let delay = std::time::Duration::from_millis(delay_ms);
    let requests = |m: &Mediator| -> Vec<FetchRequest> {
        m.sources()
            .iter()
            .flat_map(|s| {
                s.classes
                    .iter()
                    .map(|c| FetchRequest::scan(s.name.as_str(), c.as_str()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let expected = sources * rows;
    // Serial baseline: the per-request loop, one guarded fetch at a time.
    let serial_wall_ns = (0..iters)
        .map(|_| {
            let mut m = latency_mediator(sources, rows, delay);
            let reqs = requests(&m);
            let t = Instant::now();
            let mut total = 0usize;
            for r in &reqs {
                total += m
                    .federation_mut()
                    .fetch(&r.source, &r.query)
                    .expect("serial fetch")
                    .len();
            }
            let dt = t.elapsed().as_nanos();
            assert_eq!(total, expected);
            dt
        })
        .min()
        .expect("at least one iteration");
    let rows_out = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let wall_ns = (0..iters)
                .map(|_| {
                    let mut m = latency_mediator(sources, rows, delay);
                    m.federation_mut().set_fetch_threads(threads);
                    let reqs = requests(&m);
                    let t = Instant::now();
                    let set = m
                        .federation_mut()
                        .fetch_parallel(&reqs)
                        .expect("parallel fetch");
                    let dt = t.elapsed().as_nanos();
                    assert_eq!(set.total_rows(), expected);
                    assert!(set.is_complete());
                    dt
                })
                .min()
                .expect("at least one iteration");
            ParRow { threads, wall_ns }
        })
        .collect();
    ParGroup {
        sources,
        delay_ms,
        serial_wall_ns,
        rows: rows_out,
    }
}

/// One row of the concurrent-throughput group: a fixed batch of mixed FL
/// queries split across `workers` threads, drained two ways — every
/// thread serializing through a `Mutex<Mediator>` (the design a
/// non-`Send + Sync` stack forces), and every thread reading one shared
/// [`kind_core::QuerySnapshot`] lock-free.
struct ConcRow {
    workers: usize,
    total_queries: usize,
    /// Minimum wall time through the mutex-guarded mediator, in ns.
    locked_wall_ns: u128,
    /// Minimum wall time through the shared snapshot, in ns.
    snapshot_wall_ns: u128,
}

/// The cores this process may actually run on (what scaling is bounded
/// by — recorded in the JSON so the numbers are interpretable).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Multi-threaded snapshot query throughput (1/2/4/8 workers). The batch
/// size is constant across worker counts, so `wall(1) / wall(w)` is the
/// scaling factor (bounded by [`cores`]); the mutex-guarded mediator
/// serving the identical workload is the contended baseline, so the
/// lock-free hot path's advantage is visible even on a single core.
fn snapshot_concurrency_bench(fast: bool, params: &ScenarioParams) -> Vec<ConcRow> {
    let mut m = build_scenario(params);
    m.materialize_all().expect("scenario materializes");
    let hub = m.hub();
    m.publish_snapshot().expect("snapshot publishes");
    // Without snapshots, concurrent callers would share the mediator
    // itself behind a lock; its warm query path (cached model) is the
    // honest comparison point.
    let locked = std::sync::Mutex::new(m);
    // A read mix over the materialized scenario: instance scans, a
    // derived-view probe, and domain-map reachability.
    let patterns = [
        "X : protein_amount",
        "X : neurotransmission",
        "anchored(S, C)",
        r#"isa_star(C, "Neuron_Compartment")"#,
    ];
    let (total, repeats) = if fast { (240usize, 2usize) } else { (2400, 5) };
    let run_batch = |workers: usize, per: usize, use_snapshot: bool| -> u128 {
        (0..repeats)
            .map(|_| {
                let t = Instant::now();
                std::thread::scope(|s| {
                    for w in 0..workers {
                        let hub = &hub;
                        let locked = &locked;
                        s.spawn(move || {
                            // The serving pattern: each worker pins the
                            // current hub epoch once per batch.
                            let snap = hub.load().expect("hub seeded");
                            for i in 0..per {
                                let p = patterns[(w + i) % patterns.len()];
                                let n = if use_snapshot {
                                    snap.query_fl(p).expect("query runs").len()
                                } else {
                                    locked
                                        .lock()
                                        .expect("mediator lock")
                                        .query_fl(p)
                                        .expect("query runs")
                                        .len()
                                };
                                black_box(n);
                            }
                        });
                    }
                });
                t.elapsed().as_nanos()
            })
            .min()
            .expect("at least one repeat")
    };
    [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let per = total / workers;
            ConcRow {
                workers,
                total_queries: per * workers,
                locked_wall_ns: run_batch(workers, per, false),
                snapshot_wall_ns: run_batch(workers, per, true),
            }
        })
        .collect()
}

/// Hand-rolled JSON (no serde in the image): per-bench baseline/optimized
/// nanoseconds, the concurrent-throughput group, the fetch-plane group,
/// the tail-latency (hedged fetch) group, the incremental-publish (write
/// plane) group, plus the `EvalStats` and
/// stratum counters of the warm mediator's cached base model.
#[allow(clippy::too_many_arguments)]
fn render_bench_json(
    fast: bool,
    iters: usize,
    rows: &[(&str, u128, u128)],
    conc: &[ConcRow],
    par: &ParGroup,
    tail: &TailGroup,
    magic: &[MagicRow],
    inc: &IncGroup,
    sq: &ServerQpsGroup,
    warm: &mut Mediator,
) -> String {
    let model = warm.run().expect("warm base model evaluates");
    let s = &model.stats;
    let strata = model.profile.strata.len();
    let skipped = model.profile.strata.iter().filter(|p| p.skipped).count();
    let mut out = String::from("{\n");
    // Host parallelism and the serving-plane settings up top: QPS and
    // latency rows below are only comparable across runs that match on
    // these.
    let mut worker_counts: Vec<usize> = sq.rows.iter().map(|r| r.workers).collect();
    worker_counts.sort_unstable();
    worker_counts.dedup();
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"samples\": {iters},\n  \"available_parallelism\": {},\n  \"server_settings\": {{\"worker_counts\": {:?}, \"queue_depth\": {}, \"overload_queue_depth\": {}, \"default_budget_ms\": 0}},\n  \"benches\": [\n",
        if fast { "fast" } else { "full" },
        cores(),
        worker_counts,
        sq.rows.iter().map(|r| r.queue_depth).max().unwrap_or(64),
        sq.rows.iter().map(|r| r.queue_depth).min().unwrap_or(1)
    ));
    for (i, (name, b, o)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"baseline_ns\": {b}, \"optimized_ns\": {o}, \"speedup\": {:.2}}}{sep}\n",
            *b as f64 / (*o).max(1) as f64
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"snapshot_concurrency\": {{\n    \"cores\": {},\n    \"rows\": [\n",
        cores()
    ));
    let one_worker_ns = conc.first().map(|c| c.snapshot_wall_ns).unwrap_or(1);
    for (i, c) in conc.iter().enumerate() {
        let sep = if i + 1 < conc.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"workers\": {}, \"queries\": {}, \"locked_wall_ns\": {}, \"snapshot_wall_ns\": {}, \"speedup_vs_locked\": {:.2}, \"queries_per_sec\": {:.0}, \"scaling_vs_1_worker\": {:.2}}}{sep}\n",
            c.workers,
            c.total_queries,
            c.locked_wall_ns,
            c.snapshot_wall_ns,
            c.locked_wall_ns as f64 / c.snapshot_wall_ns.max(1) as f64,
            c.total_queries as f64 / (c.snapshot_wall_ns as f64 / 1e9),
            one_worker_ns as f64 / c.snapshot_wall_ns.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "    ]\n  }},\n  \"parallel_materialize\": {{\n    \"cores\": {},\n    \"sources\": {},\n    \"source_latency_ms\": {},\n    \"serial_wall_ns\": {},\n    \"rows\": [\n",
        cores(),
        par.sources,
        par.delay_ms,
        par.serial_wall_ns
    ));
    for (i, r) in par.rows.iter().enumerate() {
        let sep = if i + 1 < par.rows.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"fetch_threads\": {}, \"wall_ns\": {}, \"speedup_vs_serial\": {:.2}}}{sep}\n",
            r.threads,
            r.wall_ns,
            par.serial_wall_ns as f64 / r.wall_ns.max(1) as f64
        ));
    }
    out.push_str("    ]\n  },\n");
    let one_core_note = if cores() == 1 {
        ",\n    \"note\": \"1-core host: thread scaling is latency overlap only, not CPU parallelism\""
    } else {
        ""
    };
    out.push_str(&format!(
        "  \"tail_latency\": {{\n    \"runs\": {},\n    \"delay_ms\": {},\n    \"slow_per_mille\": {},\n    \"hedge_after_ms\": {},\n",
        tail.runs, tail.delay_ms, tail.slow_per_mille, tail.hedge_after_ms
    ));
    for (i, (name, st)) in [("no_hedge", &tail.no_hedge), ("hedge", &tail.hedge)]
        .iter()
        .enumerate()
    {
        let sep = if i == 0 { "," } else { "" };
        out.push_str(&format!(
            "    \"{name}\": {{\"p50_ms\": {}, \"p99_ms\": {}, \"max_ms\": {}, \"hedged\": {}}}{sep}\n",
            st.p50_ms, st.p99_ms, st.max_ms, st.hedged
        ));
    }
    out.push_str("  },\n  \"magic_sets\": {\n    \"rows\": [\n");
    for (i, r) in magic.iter().enumerate() {
        let sep = if i + 1 < magic.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"off_ns\": {}, \"on_ns\": {}, \"wall_speedup\": {:.2}, \"off_derived\": {}, \"on_derived\": {}, \"derived_reduction\": {:.2}, \"magic_fired\": {}, \"magic_declined\": {}}}{sep}\n",
            r.name,
            r.off_ns,
            r.on_ns,
            r.off_ns as f64 / r.on_ns.max(1) as f64,
            r.off_derived,
            r.on_derived,
            r.off_derived as f64 / r.on_derived.max(1) as f64,
            r.magic_fired,
            r.magic_declined
        ));
    }
    out.push_str(&format!(
        "    ]\n  }},\n  \"incremental_publish\": {{\n    \"iters\": {},\n    \"inc_p50_ns\": {},\n    \"inc_p99_ns\": {},\n    \"cold_p50_ns\": {},\n    \"cold_p99_ns\": {},\n    \"speedup_p50\": {:.2},\n    \"sustained\": {{\"readers\": {}, \"publishes\": {}, \"reads\": {}, \"wall_ns\": {}, \"publishes_per_sec\": {:.0}, \"reads_per_sec\": {:.0}}}\n  }},\n",
        inc.iters,
        inc.inc_p50_ns,
        inc.inc_p99_ns,
        inc.cold_p50_ns,
        inc.cold_p99_ns,
        inc.cold_p50_ns as f64 / inc.inc_p50_ns.max(1) as f64,
        inc.sustained.readers,
        inc.sustained.publishes,
        inc.sustained.reads,
        inc.sustained.wall_ns,
        inc.sustained.publishes as f64 / (inc.sustained.wall_ns as f64 / 1e9),
        inc.sustained.reads as f64 / (inc.sustained.wall_ns as f64 / 1e9)
    ));
    out.push_str(&format!(
        "  \"server_qps\": {{\n    \"cores\": {}{one_core_note},\n    \"rows\": [\n",
        cores()
    ));
    for (i, r) in sq.rows.iter().enumerate() {
        let sep = if i + 1 < sq.rows.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"workers\": {}, \"queue_depth\": {}, \"clients\": {}, \"ok\": {}, \"shed\": {}, \"deadline\": {}, \"publishes\": {}, \"wall_ns\": {}, \"qps\": {:.0}, \"p50_us\": {}, \"p99_us\": {}, \"pre_publish_p99_us\": {}, \"post_publish_p99_us\": {}}}{sep}\n",
            r.name,
            r.workers,
            r.queue_depth,
            r.clients,
            r.ok,
            r.shed,
            r.deadline,
            r.publishes,
            r.wall_ns,
            r.qps(),
            r.p50_us,
            r.p99_us,
            r.pre_publish_p99_us,
            r.post_publish_p99_us
        ));
    }
    out.push_str(&format!(
        "    ],\n    \"overload_admitted_p99_vs_uncontended\": {:.2}\n  }},\n",
        sq.overload_p99_ratio().unwrap_or(0.0)
    ));
    out.push_str("  \"eval_stats\": {\n");
    out.push_str(&format!(
        "    \"iterations\": {},\n    \"derived\": {},\n    \"applications\": {},\n    \"index_builds\": {},\n    \"index_hits\": {},\n    \"index_misses\": {},\n    \"strata\": {strata},\n    \"strata_skipped\": {skipped}\n",
        s.iterations, s.derived, s.applications, s.index_builds, s.index_hits, s.index_misses
    ));
    out.push_str("  }\n}\n");
    out
}

fn figure1_report() {
    header("Figure 1 — domain map for SYNAPSE and NCMIR");
    let dm = figures::figure1();
    let r = Resolved::new(&dm);
    println!(
        "concepts: {}   edges: {}   roles: {:?}",
        dm.concepts().count(),
        dm.edge_count(),
        dm.roles()
    );
    println!("\nderived knowledge chain (the 'multiple worlds' bridge):");
    for (a, role, b) in [
        ("Purkinje_Cell", "has", "Spine"),
        ("Pyramidal_Cell", "has", "Spine"),
        ("Spine", "contains", "Ion_Binding_Protein"),
        ("Ion_Binding_Protein", "controls", "Ion_Activity"),
        ("Ion_Activity", "subprocess_of", "Neurotransmission"),
    ] {
        let na = dm.lookup(a).unwrap();
        let nb = dm.lookup(b).unwrap();
        let holds = r.dc_pairs(role).contains(&(na, nb));
        println!(
            "  {a:<22} --{role:>14}--> {b:<24} {}",
            if holds { "inferable" } else { "MISSING" }
        );
    }
    let dc = r.dc_pairs("has").len();
    let tc = r.tc_of_dc("has").len();
    println!("\ndc(has) = {dc} direct inferable links; materialized tc = {tc} links");
    // Scaling the 'wasteful' claim:
    println!("\n  anatomy size |  dc pairs | tc(dc) pairs | ratio");
    for (d, f) in [(3usize, 3usize), (4, 3), (5, 3)] {
        let big = figures::anatomy_generated(d, f, 2);
        let rr = Resolved::new(&big);
        let dcn = rr.dc_pairs("has_a").len();
        let tcn = rr.tc_of_dc("has_a").len();
        println!(
            "  {:>12} | {:>9} | {:>12} | {:>5.1}x",
            big.node_count(),
            dcn,
            tcn,
            tcn as f64 / dcn.max(1) as f64
        );
    }
}

fn table1_report() {
    header("Table 1 — GCM expressions in F-logic, with the closure axioms");
    let decls = [
        GcmDecl::Instance {
            obj: "x".into(),
            class: "c".into(),
        },
        GcmDecl::Subclass {
            sub: "c1".into(),
            sup: "c2".into(),
        },
        GcmDecl::Method {
            class: "c".into(),
            method: "m".into(),
            result: "cm".into(),
        },
        GcmDecl::MethodInst {
            obj: "x".into(),
            method: "m".into(),
            value: GcmValue::Id("y".into()),
        },
        GcmDecl::Relation {
            name: "r".into(),
            roles: vec![("a1".into(), "c1".into()), ("a2".into(), "c2".into())],
        },
        GcmDecl::RelationInst {
            name: "r".into(),
            values: vec![
                ("a1".into(), GcmValue::Id("x1".into())),
                ("a2".into(), GcmValue::Id("x2".into())),
            ],
        },
    ];
    println!("{:<34} | FL syntax", "GCM expression");
    println!("{:-<34}-+----------------------------", "");
    for d in &decls {
        let gcm = match d {
            GcmDecl::Instance { obj, class } => format!("instance({obj},{class})"),
            GcmDecl::Subclass { sub, sup } => format!("subclass({sub},{sup})"),
            GcmDecl::Method {
                class,
                method,
                result,
            } => format!("method({class},{method},{result})"),
            GcmDecl::MethodInst { obj, method, value } => {
                format!("methodinst({obj},{method},{value})")
            }
            GcmDecl::Relation { name, roles } => format!(
                "relation({name},{})",
                roles
                    .iter()
                    .map(|(a, c)| format!("{a}={c}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            GcmDecl::RelationInst { name, values } => format!(
                "relationinst({name},{})",
                values
                    .iter()
                    .map(|(a, v)| format!("{a}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            GcmDecl::Rule { .. } => "rule".into(),
        };
        println!("{gcm:<34} | {}", d.to_fl());
    }
    // Closure axiom timing on a growing hierarchy.
    println!("\n  classes | closure-eval facts | time");
    for depth in [4usize, 6, 8] {
        let fl = kind_bench::class_tree_flogic(depth, 2);
        let t = Instant::now();
        let m = fl.run().expect("runs");
        println!(
            "  {:>7} | {:>18} | {:?}",
            2usize.pow(depth as u32 + 1) - 1,
            m.facts.len(),
            t.elapsed()
        );
    }
}

fn figure2_report() {
    header("Figure 2 — the model-based mediator architecture at work");
    let params = ScenarioParams::default();
    let t = Instant::now();
    let mut m = build_scenario(&params);
    let reg_time = t.elapsed();
    println!("registered {} sources in {reg_time:?}:", m.sources().len());
    for s in m.sources() {
        println!(
            "  {:<10} formalism={:<5} classes={:?}",
            s.name,
            s.wrapper.formalism(),
            s.classes
        );
    }
    let t = Instant::now();
    let loaded = m.materialize_all().expect("materializes");
    let model_size = m.run().expect("evaluates").facts.len();
    println!(
        "\nmaterialized {loaded} rows; evaluated model: {model_size} facts in {:?}",
        t.elapsed()
    );
}

fn example2_report() {
    header("Examples 2 & 3 — integrity constraints with failure witnesses");
    let base = corrupted_order(8, 4);
    let t = Instant::now();
    let m = base.run().expect("runs");
    let ws = base.witnesses(&m);
    let (wrc, wtc, was): (Vec<_>, Vec<_>, Vec<_>) = (
        ws.iter().filter(|w| w.starts_with("wrc(")).collect(),
        ws.iter().filter(|w| w.starts_with("wtc(")).collect(),
        ws.iter().filter(|w| w.starts_with("was(")).collect(),
    );
    println!(
        "corrupted order (8 nodes, 4 missing transitive edges, 1 cycle), checked in {:?}:",
        t.elapsed()
    );
    println!("  reflexivity witnesses (wrc): {}", wrc.len());
    println!("  transitivity witnesses (wtc): {}", wtc.len());
    println!("  antisymmetry witnesses (was): {}", was.len());
    for w in ws.iter().take(3) {
        println!("    ic <- {w}");
    }
}

fn figure3_report() {
    header("Figure 3 — registering MyNeuron / MyDendrite");
    let base = figures::figure3_base();
    let full = figures::figure3();
    println!(
        "base map: {} concepts, {} edges",
        base.concepts().count(),
        base.edge_count()
    );
    println!(
        "after registration: {} concepts, {} edges",
        full.concepts().count(),
        full.edge_count()
    );
    let r = Resolved::new(&full);
    let mn = full.lookup("MyNeuron").unwrap();
    println!("\nderived for MyNeuron:");
    for target in ["Medium_Spiny_Neuron", "Spiny_Neuron", "Neuron"] {
        let t = full.lookup(target).unwrap();
        println!("  MyNeuron :: {target:<22} {}", r.is_subconcept(mn, t));
    }
    let gpe = full.lookup("Globus_Pallidus_External").unwrap();
    println!(
        "  MyNeuron --proj--> Globus_Pallidus_External (definite): {}",
        r.dc_pairs("proj").contains(&(mn, gpe))
    );
    // Nonmonotonic override at the instance level.
    let mut fl = FLogic::with_inheritance();
    fl.load("m1 : msn. m2 : msn. m1[proj -> gpe_only].")
        .unwrap();
    fl.load_datalog("default(msn, proj, pallidal_target).")
        .unwrap();
    let model = fl.run().unwrap();
    let mut e = fl.engine().clone();
    let v1 = e.query_model(&model, "val(m1, proj, V)").unwrap();
    let v2 = e.query_model(&model, "val(m2, proj, V)").unwrap();
    println!("\nnonmonotonic inheritance (defaults with override):");
    println!("  m1 (explicit) projects to: {}", e.show(&v1[0][2]));
    println!("  m2 (default)  projects to: {}", e.show(&v2[0][2]));
}

fn section5_report() {
    header("§5 — the KIND query plan");
    let schema = NeuroSchema::default();
    let q = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    println!("query: distribution of calcium-binding proteins in neurons");
    println!("       receiving parallel-fiber signals, in rat brains\n");
    let mut m = build_scenario(&ScenarioParams::default());
    let t = Instant::now();
    let trace = run_section5(&mut m, &schema, &q, true).expect("plan runs");
    let dt = t.elapsed();
    println!("step 1: receiving pairs {:?}", trace.step1_pairs);
    println!(
        "step 2: {} candidates -> {:?} (semantic index)",
        trace.candidate_sources, trace.selected_sources
    );
    println!(
        "step 3: {} rows retrieved, proteins {:?}",
        trace.step3_rows, trace.proteins
    );
    println!("step 4: lub root = {:?}", trace.root);
    println!("\n  {:<20} {:<20} {:>7}", "protein", "concept", "total");
    for d in &trace.distribution {
        println!("  {:<20} {:<20} {:>7}", d.protein, d.concept, d.total);
    }
    println!(
        "\nplan: {} wrapper queries, {} rows shipped, in {dt:?}",
        trace.stats.source_queries, trace.stats.rows_shipped
    );
    // Ablation table.
    println!("\nsource-selection ablation (rows shipped as noise sources grow):");
    println!("  noise sources | index ON queries/rows | index OFF queries/rows");
    for noise in [0usize, 4, 8, 16] {
        let params = ScenarioParams {
            noise_sources: noise,
            noise_rows: 100,
            ..Default::default()
        };
        let mut a = build_scenario(&params);
        let ta = run_section5(&mut a, &schema, &q, true).unwrap();
        let mut b = build_scenario(&params);
        let tb = run_section5(&mut b, &schema, &q, false).unwrap();
        println!(
            "  {:>13} | {:>9}/{:<11} | {:>10}/{}",
            noise,
            ta.stats.source_queries,
            ta.stats.rows_shipped,
            tb.stats.source_queries,
            tb.stats.rows_shipped
        );
    }
    // Example 4 demo call.
    println!("\nExample 4: protein_distribution(Ryanodine_Receptor, Cerebellum):");
    let dist = protein_distribution(&mut m, &schema, "Ryanodine_Receptor", "Cerebellum")
        .expect("view evaluates");
    for (concept, total) in &dist {
        println!("  {concept:<22} {total:>7}");
    }
}
