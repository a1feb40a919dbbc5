//! Restart memory follows the keyspace, not the log: recovering a log that
//! is many times larger than its live keyspace must not hold the log in
//! memory.
//!
//! One test in its own binary, so the process high-water mark (`VmHWM`) it
//! reads around `recover` is that test's alone.

use greedy_stm::core::{CommitOp, CommitValue};
use greedy_stm::log::{recover, Wal, WalConfig};

/// 200,000 records of one 256-byte `PUT` each: a 55 MiB log.
const RECORDS: u64 = 200_000;
/// The live keyspace those records overwrite: 256 KiB of values.
const KEYS: u64 = 1_024;
const VALUE_BYTES: usize = 256;
/// Room for one 8 MiB segment's bytes plus allocator slack. Holding the
/// decoded log instead costs about 74 MiB.
const MAX_GROWTH_MIB: f64 = 24.0;

fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[test]
fn recovery_memory_follows_the_keyspace_not_the_log() {
    let dir = std::env::temp_dir().join(format!("stm-recovery-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (wal, _) = Wal::open(WalConfig::new(&dir)).expect("fresh log opens");
    let hook = wal.commit_hook();
    let mut last_seq = 0;
    let mut expected = vec![0u8; KEYS as usize];
    for i in 0..RECORDS {
        let (key, round) = (i % KEYS, (i / KEYS) as u8);
        expected[key as usize] = round;
        let put = CommitOp::Put {
            id: key as i64,
            value: CommitValue::Bytes(vec![round; VALUE_BYTES]),
        };
        last_seq = hook.on_commit(&[put], &mut || true).expect("commit logs");
    }
    assert!(wal.wait_durable(last_seq), "log failed while writing");
    drop(wal);

    let before = vm_hwm_mib();
    let recovered = recover(&dir).expect("log recovers");
    let live = recovered.live_pairs();
    let growth = vm_hwm_mib() - before;

    assert_eq!(recovered.next_seq, RECORDS + 1);
    assert_eq!(live.len(), KEYS as usize);
    for (key, value) in live.iter() {
        let fill = expected[*key as usize];
        assert_eq!(
            value,
            &CommitValue::Bytes(vec![fill; VALUE_BYTES]),
            "key {key}"
        );
    }
    assert!(
        growth < MAX_GROWTH_MIB,
        "recovering {RECORDS} records over {KEYS} keys raised VmHWM by {growth:.1} MiB \
         (from {before:.1} MiB); the bound is {MAX_GROWTH_MIB} MiB"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
