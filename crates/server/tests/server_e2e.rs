//! End-to-end protocol tests: a real server on an ephemeral port, real
//! TCP clients. Timing-sensitive scheduling is made deterministic with
//! the `sleep` op (it occupies a worker for a known duration), never
//! with races.

use kind_server::client::Conn;
use kind_server::wire::{obj, Json};
use kind_server::{spawn_server, ServerConfig};
use kind_sources::ScenarioParams;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn small_scenario() -> ScenarioParams {
    ScenarioParams {
        senselab_rows: 10,
        ncmir_rows: 15,
        synapse_rows: 10,
        noise_sources: 1,
        noise_rows: 5,
        ..ScenarioParams::default()
    }
}

fn small_server(workers: usize, queue_depth: usize) -> (kind_server::ServerHandle, String) {
    let handle = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        default_budget_ms: 0,
        scenario: small_scenario(),
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn serves_the_whole_protocol() {
    let (handle, addr) = small_server(2, 64);
    let mut conn = Conn::connect(&addr).unwrap();

    // ping: pinned to the seed epoch.
    let resp = conn.request(obj([("op", Json::str("ping"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(1));
    assert!(resp.get("queue_us").and_then(Json::as_u64).is_some());

    // query_fl: all NCMIR + noise protein rows.
    let resp = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("row_count").and_then(Json::as_u64), Some(20));

    // answer: rows + eval counters.
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            (
                "rule",
                Json::str(
                    r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                       X[location -> L], X[ion_bound -> "calcium"]."#,
                ),
            ),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let rows = resp.get("rows").and_then(Json::as_arr).unwrap();
    assert!(!rows.is_empty(), "calcium sites exist in the scenario");
    let eval = resp.get("eval").expect("eval counters present");
    assert!(eval.get("derived").and_then(Json::as_u64).unwrap() > 0);
    // The warm path: seeded from the snapshot's model, with the domain-map
    // strata skipped rather than re-derived.
    assert_eq!(eval.get("seeded").and_then(Json::as_bool), Some(true));
    assert!(eval.get("skipped_strata").and_then(Json::as_u64).unwrap() > 0);
    // A snapshot answer fetches nothing and its view adds no facts: the
    // seed plan's delta is empty, however many facts the snapshot holds.
    assert_eq!(eval.get("novel_facts").and_then(Json::as_u64), Some(0));

    // plan: the warm §5 replay.
    let resp = conn.request(obj([("op", Json::str("plan"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp
        .get("distribution_rows")
        .and_then(Json::as_u64)
        .unwrap()
        .gt(&0));
    let report = resp.get("report").and_then(Json::as_str).unwrap();
    assert!(
        report.contains("complete"),
        "warm plan is complete: {report}"
    );

    // stats reflects the traffic so far.
    let resp = conn.request(obj([("op", Json::str("stats"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp.get("served").and_then(Json::as_u64).unwrap() >= 4);
    assert_eq!(resp.get("shed").and_then(Json::as_u64), Some(0));

    // bad requests get typed errors, not dropped connections.
    let resp = conn.request(obj([("op", Json::str("nope"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("bad_request")
    );
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            ("rule", Json::str("p(X :- broken")),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("query_error")
    );

    handle.shutdown();
}

#[test]
fn answers_match_an_inprocess_snapshot() {
    let (handle, addr) = small_server(2, 64);
    // Ground truth: the same scenario evaluated in-process.
    let mut m = kind_sources::build_scenario(&small_scenario());
    m.materialize_all().unwrap();
    let snap = m.snapshot().unwrap();
    let rule = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                  X[location -> L], X[ion_bound -> "calcium"]."#;
    let expected = snap.answer(rule).unwrap();

    let mut conn = Conn::connect(&addr).unwrap();
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            ("rule", Json::str(rule)),
        ]))
        .unwrap();
    let got: Vec<Vec<String>> = resp
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap()
                .iter()
                .map(|c| c.as_str().unwrap().to_string())
                .collect()
        })
        .collect();
    assert_eq!(got, expected, "served rows == in-process snapshot rows");
    handle.shutdown();
}

#[test]
fn sheds_overload_with_a_typed_response() {
    // One worker, queue depth 1: occupy the worker with a sleep, fill
    // the single queue slot, and everything after that must shed.
    let (handle, addr) = small_server(1, 1);
    let mut conn = Conn::connect(&addr).unwrap();
    let sleep_id = conn
        .send(obj([("op", Json::str("sleep")), ("ms", Json::int(400))]))
        .unwrap();
    // Wait until the worker picked the sleep up (queue drained), so the
    // next request deterministically occupies the queue slot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut stats_conn = Conn::connect(&addr).unwrap();
    loop {
        let stats = stats_conn
            .request(obj([("op", Json::str("stats"))]))
            .unwrap();
        if stats.get("admitted").and_then(Json::as_u64) == Some(1) {
            // Admitted and (with a single worker) being slept on; the
            // queue is empty again.
            std::thread::sleep(std::time::Duration::from_millis(20));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "sleep never admitted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let queued_id = conn.send(obj([("op", Json::str("ping"))])).unwrap();
    let shed_id = conn.send(obj([("op", Json::str("ping"))])).unwrap();
    // The shed response arrives first (written at admission time by the
    // reader thread), then the sleep and the queued ping complete.
    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..3 {
        let resp = conn.recv().unwrap();
        let id = resp.get("id").and_then(Json::as_u64).unwrap();
        let ok = resp.get("ok").and_then(Json::as_bool).unwrap();
        let err = resp.get("error").and_then(Json::as_str).map(str::to_string);
        outcomes.insert(id, (ok, err));
    }
    assert_eq!(outcomes[&sleep_id], (true, None), "sleep completed");
    assert_eq!(outcomes[&queued_id], (true, None), "queued ping served");
    assert_eq!(
        outcomes[&shed_id],
        (false, Some("overloaded".to_string())),
        "second ping shed with the typed overload response"
    );
    let stats = stats_conn
        .request(obj([("op", Json::str("stats"))]))
        .unwrap();
    assert_eq!(stats.get("shed").and_then(Json::as_u64), Some(1));
    handle.shutdown();
}

#[test]
fn queue_wait_counts_against_the_budget() {
    // One worker occupied by a 300ms sleep; a request with a 50ms budget
    // queued behind it must fail with deadline_exceeded at dequeue,
    // without being evaluated.
    let (handle, addr) = small_server(1, 8);
    let mut conn = Conn::connect(&addr).unwrap();
    let sleep_id = conn
        .send(obj([("op", Json::str("sleep")), ("ms", Json::int(300))]))
        .unwrap();
    let doomed_id = conn
        .send(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
            ("budget_ms", Json::int(50)),
        ]))
        .unwrap();
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..2 {
        let resp = conn.recv().unwrap();
        let id = resp.get("id").and_then(Json::as_u64).unwrap();
        by_id.insert(id, resp);
    }
    assert_eq!(
        by_id[&sleep_id].get("ok").and_then(Json::as_bool),
        Some(true)
    );
    let doomed = &by_id[&doomed_id];
    assert_eq!(doomed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doomed.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    let waited = doomed.get("queue_us").and_then(Json::as_u64).unwrap();
    assert!(waited >= 50_000, "queued past its budget ({waited}µs)");
    handle.shutdown();
}

#[test]
fn publish_while_serving_bumps_the_epoch_and_pins_inflight_reads() {
    let (handle, addr) = small_server(2, 64);
    let hub = handle.hub();
    let mut conn = Conn::connect(&addr).unwrap();

    let before = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]))
        .unwrap();
    assert_eq!(before.get("epoch").and_then(Json::as_u64), Some(1));
    let rows_before = before.get("row_count").and_then(Json::as_u64).unwrap();

    // Publish 5 fresh NCMIR rows through the writer thread.
    let resp = conn
        .request(obj([("op", Json::str("publish")), ("rows", Json::int(5))]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("loaded").and_then(Json::as_u64), Some(5));
    assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(2));
    assert_eq!(hub.epoch(), 2, "hub observed the publish");

    // New requests pin the new epoch and see the new rows.
    let after = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]))
        .unwrap();
    assert_eq!(after.get("epoch").and_then(Json::as_u64), Some(2));
    assert_eq!(
        after.get("row_count").and_then(Json::as_u64),
        Some(rows_before + 5)
    );
    handle.shutdown();
}

/// The serving-plane knob audit (the `ServerConfig` side of kind-core's
/// `knob_toggles_keep_warm_answer_warm`): worker count, queue depth, and
/// the default per-request budget are **pure serving knobs** — none of
/// them reaches the mediator, so across every setting the published
/// epoch stays 1 and the served rows are bit-identical. Only the shed
/// and deadline *outcomes* may differ, and an unconstrained budget must
/// not produce any.
#[test]
fn serving_knobs_never_invalidate_published_state() {
    let rule = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                  X[location -> L], X[ion_bound -> "calcium"]."#;
    let mut baseline: Option<Vec<String>> = None;
    for (workers, queue_depth, default_budget_ms) in
        [(1, 1, 0), (1, 64, 0), (4, 8, 0), (2, 64, 60_000)]
    {
        let handle = spawn_server(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
            default_budget_ms,
            scenario: small_scenario(),
        })
        .expect("server starts");
        let mut conn = Conn::connect(&handle.addr().to_string()).unwrap();
        let resp = conn
            .request(obj([
                ("op", Json::str("answer")),
                ("rule", Json::str(rule)),
            ]))
            .unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "serving knobs ({workers},{queue_depth},{default_budget_ms}) broke the answer"
        );
        assert_eq!(
            resp.get("epoch").and_then(Json::as_u64),
            Some(1),
            "serving knobs must not trigger extra publishes"
        );
        let rows: Vec<String> = resp
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.to_string())
            .collect();
        match &baseline {
            None => baseline = Some(rows),
            Some(b) => assert_eq!(&rows, b, "rows diverged across serving knobs"),
        }
        handle.shutdown();
    }
}

#[test]
fn shutdown_op_unwinds_the_server() {
    let (handle, addr) = small_server(2, 16);
    let mut conn = Conn::connect(&addr).unwrap();
    let resp = conn.request(obj([("op", Json::str("shutdown"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(handle.shutdown_requested());
    // Joins cleanly: workers, writer, watchdog, acceptor all exit.
    handle.shutdown();
    // The port is released; a fresh connect must fail (possibly after
    // the OS tears the listener down, hence the retry loop).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match Conn::connect(&addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "listener still accepting after shutdown"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn deeply_nested_rules_are_query_errors_not_crashes() {
    let (handle, addr) = small_server(2, 64);
    let mut conn = Conn::connect(&addr).unwrap();
    // 100,000 nested function terms: without the parser's nesting limit
    // this overflows a worker's stack and aborts the whole process.
    let depth = 100_000;
    let rule = format!("p(X) :- q({}X{}).", "f(".repeat(depth), ")".repeat(depth));
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            ("rule", Json::str(&rule)),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("query_error")
    );
    let pattern = format!("X : {}c{}", "f(".repeat(depth), ")".repeat(depth));
    let resp = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str(&pattern)),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("query_error")
    );

    // The server is still up: a fresh connection pings and answers.
    let mut fresh = Conn::connect(&addr).unwrap();
    let resp = fresh.request(obj([("op", Json::str("ping"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let resp = fresh
        .request(obj([
            ("op", Json::str("answer")),
            (
                "rule",
                Json::str(r#"names(P) :- X : protein_amount, X[protein_name -> P]."#),
            ),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(!resp.get("rows").and_then(Json::as_arr).unwrap().is_empty());

    handle.shutdown();
}

#[test]
fn an_endless_request_line_is_refused_not_buffered() {
    let (handle, addr) = small_server(2, 64);
    // 8 MiB with no newline, from a second thread: the server refuses the
    // line once it passes the cap, while the client is still writing.
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut out = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..128 {
            out.write_all(&chunk)?;
        }
        // The line ends; the connection then carries on.
        out.write_all(b"\n{\"id\": 9, \"op\": \"ping\"}\n")
    });
    let mut lines = BufReader::new(stream);
    let mut line = String::new();
    lines.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("too_large"));
    line.clear();
    lines.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(9));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    sender.join().unwrap().unwrap();

    // A fresh connection pings and answers correctly.
    let mut fresh = Conn::connect(&addr).unwrap();
    let resp = fresh.request(obj([("op", Json::str("ping"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let rule = r#"names(P) :- X : protein_amount, X[protein_name -> P]."#;
    let resp = fresh
        .request(obj([
            ("op", Json::str("answer")),
            ("rule", Json::str(rule)),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let mediator_rows = {
        let mut m = kind_sources::build_scenario(&small_scenario());
        m.materialize_all().unwrap();
        m.snapshot().unwrap().answer(rule).unwrap()
    };
    let rows: Vec<Vec<String>> = resp
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        })
        .collect();
    assert!(!rows.is_empty());
    assert_eq!(rows, mediator_rows);

    handle.shutdown();
}
