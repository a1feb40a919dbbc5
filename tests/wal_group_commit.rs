//! The log runs on the threads that wait for it: opening a `Wal` starts no
//! thread, and concurrent waiters share the group commit among themselves.
//!
//! One test in its own binary, so the threads it lists under
//! `/proc/self/task` are this test's alone.

#![cfg(target_os = "linux")]

use greedy_stm::core::CommitOp;
use greedy_stm::log::{Wal, WalConfig};

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn no_writer_thread_and_concurrent_waiters_all_become_durable() {
    const THREADS: i64 = 4;
    const COMMITS: i64 = 200;
    let dir = std::env::temp_dir().join(format!("stm-wal-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = thread_names().len();
    let (wal, _) = Wal::open(WalConfig::new(&dir)).expect("fresh log opens");
    let names = thread_names();
    assert!(
        !names.iter().any(|name| name == "stm-log-writer"),
        "opening a log started a writer thread: {names:?}"
    );
    assert_eq!(
        names.len(),
        before,
        "opening a log started a thread: {names:?}"
    );

    let hook = wal.commit_hook();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (wal, hook) = (&wal, &hook);
            scope.spawn(move || {
                for i in 0..COMMITS {
                    let seq = hook
                        .on_commit(&[CommitOp::put(t * COMMITS + i, i)], &mut || true)
                        .expect("commit closure returned true");
                    assert!(wal.wait_durable(seq), "log failed or stopped");
                    let durable = wal.durable_seq();
                    assert!(durable >= seq, "waited for {seq}, durable_seq {durable}");
                }
            });
        }
    });
    let stats = wal.stats();
    assert_eq!(stats.records, (THREADS * COMMITS) as u64);
    assert_eq!(
        stats.durable_seq,
        stats.next_seq - 1,
        "every waited commit is durable"
    );
    assert!(!stats.failed);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}
