//! `stm-kv-server` — run a transactional key-value server from the
//! command line.
//!
//! ```text
//! cargo run --release -p stm-kv --bin stm-kv-server -- \
//!     --addr 127.0.0.1:7878 --manager greedy --event-shards 2
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
use stm_kv::{KvServer, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: stm-kv-server [--addr HOST:PORT] [--manager NAME] [--event-shards N] \
         [--idle-timeout SECS] [--wal-dir PATH] [--snapshot-every N]\n\
         managers: {}\n\
         connections are multiplexed over --event-shards readiness threads \
         (default one per core); --idle-timeout closes connections idle longer \
         than SECS seconds (0 = never, the default);\n\
         --wal-dir enables durability: the keyspace is recovered from PATH on \
         start, every mutating request is logged and answered only once its \
         record is fsynced; --snapshot-every takes a snapshot per N logged \
         records (default 0 = only on SNAPSHOT)",
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
            "--event-shards" => config.event_shards = value.parse().unwrap_or_else(|_| usage()),
            "--idle-timeout" => {
                let secs: f64 = value.parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs < 0.0 {
                    usage();
                }
                config.idle_timeout = Duration::from_secs_f64(secs);
            }
            "--wal-dir" => config.wal_dir = Some(value.into()),
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
            "stm-kv listening on {} (manager: {}, wal: {})",
            server.addr(),
            server.manager().name(),
            wal.dir().display()
        ),
        None => println!(
            "stm-kv listening on {} (manager: {}, volatile)",
            server.addr(),
            server.manager().name()
        ),
    }
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
