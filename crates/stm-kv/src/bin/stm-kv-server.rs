//! `stm-kv-server` — run a transactional key-value server from the
//! command line.
//!
//! ```text
//! cargo run --release -p stm-kv --bin stm-kv-server -- \
//!     --addr 127.0.0.1:7878 --manager greedy --shards 16
//! ```
//!
//! Talk to it with any line client — one `HELLO 2` line, then frames (an
//! array header, the verb as a status line, each integer as `:n`):
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! HELLO 2
//! HELLO 2
//! *3
//! +PUT
//! :1
//! :100
//! +OK
//! *3
//! +ADD
//! :1
//! :-25
//! :75
//! ```

use std::time::Duration;

use stm_cm::ManagerKind;
use stm_kv::{KvServer, ServeMode, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: stm-kv-server [--addr HOST:PORT] [--manager NAME] \
         [--shards N] [--workers N] \
         [--serve-mode threads|events] [--event-shards N] [--idle-timeout SECS] \
         [--wal-dir PATH] [--fsync every|n=COUNT|ms=MILLIS] [--snapshot-every N]\n\
         managers: {}\n\
         --serve-mode picks the connection layer: 'threads' (default) serves \
         one connection per pool worker; 'events' multiplexes non-blocking \
         connections over readiness shards (--event-shards, default one per \
         core) and reaps connections idle longer than --idle-timeout seconds \
         (0 = never, the default);\n\
         --wal-dir enables durability: the keyspace is recovered from PATH on \
         start and every mutating request is logged; --fsync picks the group-\
         commit policy (default every); --snapshot-every takes a snapshot per \
         N logged records (default 0 = only on SNAPSHOT)",
        stm_cm::all_manager_names().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let Some(value) = args.get(i) else { usage() };
        i += 1;
        match flag {
            "--addr" => config.addr = value.clone(),
            "--manager" => match value.parse::<ManagerKind>() {
                Ok(kind) => config.manager = kind,
                Err(err) => {
                    eprintln!("{err}");
                    usage();
                }
            },
            "--shards" => config.shards = value.parse().unwrap_or_else(|_| usage()),
            "--workers" => config.workers = value.parse().unwrap_or_else(|_| usage()),
            "--serve-mode" => {
                config.serve_mode = ServeMode::parse(value).unwrap_or_else(|| usage());
            }
            "--event-shards" => config.event_shards = value.parse().unwrap_or_else(|_| usage()),
            "--idle-timeout" => {
                let secs: f64 = value.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    usage();
                }
                config.idle_timeout = Duration::from_secs_f64(secs);
            }
            "--wal-dir" => config.wal_dir = Some(value.into()),
            "--fsync" => match value.parse() {
                Ok(policy) => config.fsync = policy,
                Err(err) => {
                    eprintln!("{err}");
                    usage();
                }
            },
            "--snapshot-every" => {
                config.snapshot_every = value.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let server = match KvServer::start(config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("failed to start: {err}");
            std::process::exit(1);
        }
    };
    match server.wal() {
        Some(wal) => println!(
            "stm-kv listening on {} (manager: {}, serve: {}, wal: {} fsync={})",
            server.addr(),
            server.manager().name(),
            server.serve_mode().label(),
            wal.dir().display(),
            wal.policy()
        ),
        None => println!(
            "stm-kv listening on {} (manager: {}, serve: {}, volatile)",
            server.addr(),
            server.manager().name(),
            server.serve_mode().label()
        ),
    }
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
