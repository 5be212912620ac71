//! The `kind-server` binary: server mode by default, workload driver
//! with `--client`. Run `kind-server --help` for the flags.

use kind_server::{install_signal_handlers, run_client, run_server, ClientConfig, ServerConfig};
use kind_sources::ScenarioParams;

const HELP: &str = "\
kind-server — the deployed KIND mediator (see DESIGN.md, server plane)

USAGE:
  kind-server [--addr HOST:PORT] [--workers N] [--queue-depth N]
              [--budget-ms N] [--scenario small|default]
              [--fetch-workers N] [--in-flight N]
  kind-server --client [--addr HOST:PORT] [--threads N] [--requests N]
              [--budget-ms N] [--quiet]

`--fetch-workers` sets the fetch plane's thread count for cold fetches
(0 = auto). `--in-flight` caps that count when a source declares a
stall, which otherwise gets one thread per source (0 = unlimited).
Answers are bit-identical at every setting; only wall clock and
threads change.

Server mode starts the scenario mediator, publishes the first snapshot
into the hub, and serves the JSON-per-line protocol until SIGTERM/ctrl-c
or a `shutdown` op. Client mode connects and issues a mixed workload,
printing one summary line per response.
";

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Help,
    Client(ClientConfig),
    Server(ServerConfig),
}

const CLIENT_FLAGS: &[&str] = &["--addr", "--threads", "--requests", "--budget-ms"];
const SERVER_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--queue-depth",
    "--budget-ms",
    "--scenario",
    "--fetch-workers",
    "--in-flight",
];

/// Parses the arguments (program name excluded). Every flag must be one
/// the chosen mode knows, and every valued flag must carry a value;
/// anything else is an error, never silently ignored.
fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let client = args.iter().any(|a| a == "--client");
    let (mode, known, switches): (_, _, &[&str]) = if client {
        ("client", CLIENT_FLAGS, &["--client", "--quiet"])
    } else {
        ("server", SERVER_FLAGS, &[])
    };
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if switches.contains(&flag.as_str()) {
            continue;
        }
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown {mode} flag {flag:?}"));
        }
        match it.next() {
            Some(v) if !v.starts_with("--") => values.push((flag, v)),
            _ => return Err(format!("{flag} needs a value")),
        }
    }
    let value = |name: &str| {
        values
            .iter()
            .rev()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| *v)
    };
    let num = |name: &str, default: u64| -> Result<u64, String> {
        value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("bad value for {name}: {v:?}"))
        })
    };
    let addr = value("--addr").unwrap_or("127.0.0.1:4901").to_string();
    if client {
        return Ok(Command::Client(ClientConfig {
            addr,
            threads: num("--threads", 2)? as usize,
            requests: num("--requests", 25)? as usize,
            budget_ms: num("--budget-ms", 0)?,
            verbose: !args.iter().any(|a| a == "--quiet"),
        }));
    }
    let mut scenario = match value("--scenario") {
        Some("small") => ScenarioParams {
            senselab_rows: 10,
            ncmir_rows: 15,
            synapse_rows: 10,
            noise_sources: 1,
            noise_rows: 5,
            ..ScenarioParams::default()
        },
        Some("default") | None => ScenarioParams::default(),
        Some(other) => return Err(format!("unknown scenario {other:?} (want small|default)")),
    };
    scenario.fetch_threads = num("--fetch-workers", scenario.fetch_threads as u64)? as usize;
    scenario.in_flight = num("--in-flight", scenario.in_flight as u64)? as usize;
    Ok(Command::Server(ServerConfig {
        addr,
        workers: num("--workers", 2)? as usize,
        queue_depth: num("--queue-depth", 64)? as usize,
        default_budget_ms: num("--budget-ms", 0)?,
        scenario,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Command::Help) => {
            print!("{HELP}");
            return;
        }
        Ok(Command::Client(config)) => {
            run_client_mode(&config);
            return;
        }
        Ok(Command::Server(config)) => config,
        Err(e) => {
            eprintln!("kind-server: {e} (see --help)");
            std::process::exit(2);
        }
    };
    install_signal_handlers();
    eprintln!(
        "kind-server: {} workers, queue depth {}, default budget {}ms — binding {} ...",
        config.workers, config.queue_depth, config.default_budget_ms, config.addr
    );
    match kind_server::spawn_server(config) {
        Ok(handle) => {
            // The line CI and scripts wait for before connecting.
            println!("kind-server listening on {}", handle.addr());
            while !handle.shutdown_requested() && !kind_server::signalled() {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            eprintln!("kind-server: shutting down ...");
            handle.shutdown();
            eprintln!("kind-server: bye");
        }
        Err(e) => {
            eprintln!("kind-server failed to start: {e}");
            std::process::exit(1);
        }
    }
}

// `run_server` and `run_client` are the library entry points; keep them
// referenced so the lib API and the binary cannot drift apart.
#[allow(dead_code)]
fn _api_holds(config: ServerConfig) -> std::io::Result<std::net::SocketAddr> {
    run_server(config)
}

fn run_client_mode(config: &ClientConfig) {
    match run_client(config) {
        Ok(summary) => {
            println!(
                "client done: {} ok, {} overloaded, {} deadline_exceeded, {} errors",
                summary.ok, summary.overloaded, summary.deadline, summary.errors
            );
            if summary.errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("client failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn misspelt_flag_is_rejected() {
        let err = parse("--wokers 4").unwrap_err();
        assert!(err.contains("--wokers"), "{err}");
    }

    #[test]
    fn trailing_flag_without_value_is_rejected() {
        let err = parse("--workers 4 --addr").unwrap_err();
        assert!(err.contains("--addr needs a value"), "{err}");
        let err = parse("--addr --workers 4").unwrap_err();
        assert!(err.contains("--addr needs a value"), "{err}");
        let err = parse("--client --requests").unwrap_err();
        assert!(err.contains("--requests needs a value"), "{err}");
    }

    #[test]
    fn removed_fetch_mode_flag_is_rejected() {
        let err = parse("--fetch-mode overlapped").unwrap_err();
        assert!(err.contains("--fetch-mode"), "{err}");
    }

    #[test]
    fn mode_specific_flags_stay_in_their_mode() {
        assert!(parse("--client --workers 4").is_err());
        assert!(parse("--quiet").is_err());
        assert!(parse("--workers four").is_err());
        assert!(parse("--scenario huge").is_err());
    }

    #[test]
    fn full_command_lines_parse() {
        let cmd = parse(
            "--addr 127.0.0.1:5000 --workers 4 --queue-depth 8 --budget-ms 250 \
             --scenario small --fetch-workers 3 --in-flight 16",
        )
        .unwrap();
        let Command::Server(c) = cmd else {
            panic!("expected server mode, got {cmd:?}");
        };
        assert_eq!(c.addr, "127.0.0.1:5000");
        assert_eq!((c.workers, c.queue_depth, c.default_budget_ms), (4, 8, 250));
        assert_eq!((c.scenario.fetch_threads, c.scenario.in_flight), (3, 16));
        assert_eq!(c.scenario.noise_sources, 1);

        let cmd = parse("--client --addr 127.0.0.1:5000 --threads 4 --requests 9 --quiet").unwrap();
        let Command::Client(c) = cmd else {
            panic!("expected client mode, got {cmd:?}");
        };
        assert_eq!((c.threads, c.requests, c.verbose), (4, 9, false));

        assert!(matches!(parse("").unwrap(), Command::Server(_)));
        assert!(matches!(parse("--wokers 4 --help").unwrap(), Command::Help));
    }
}
