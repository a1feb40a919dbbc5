//! What an open costs the heap, counted, not timed.
//!
//! A counting global allocator tallies allocations per thread, and one
//! transaction measures around each of its opens after warm-up (the
//! thread's scratch sets have their capacity by then):
//!
//! * a read allocates nothing: it sets its context's bit in the object's
//!   reader word and keeps the object's own `Arc` in the read set;
//! * a first write allocates once, for the new value's `Arc`: the write set
//!   keeps the object's own `Arc`, as the read set does, and the locator
//!   naming the writer is updated in place under the object's lock;
//! * a rewrite of an object the transaction already owns allocates once,
//!   for the new value;
//! * the commit allocates nothing: from the body returning to `atomically`
//!   returning, the written object's locator is reset to a baseline in
//!   place.
//!
//! What a hot-path body opens is counted too: a one-object read and a
//! one-object increment each commit on the first attempt having opened
//! exactly that object.
//!
//! And what the write-ahead log's commit path costs: a logged commit
//! encodes its record straight into the log's pending batch, so 1,000
//! commits with no flush between them allocate only as that buffer grows,
//! and not at all once a flush has handed a grown buffer back. A flush
//! that has to grow the open segment ahead of its records (zeros written
//! from a static buffer) allocates nothing either.
//!
//! And what the event loop's readiness wait costs: the kernel writes the
//! ready events straight into the caller's buffer, so once that buffer has
//! grown to the batch size a wait allocates nothing.
//!
//! The counts hold on any host, so a change that adds an allocation to an
//! open, or an open to a body, fails here rather than somewhere in a
//! benchmark's noise. This is
//! the one file outside the vendored crates with `unsafe` in it: a
//! `GlobalAlloc` cannot be written without it, and each method only
//! forwards to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stm_cm::ManagerKind;
use stm_core::{CommitOp, Stm, TVar, TxResult, Txn};
use stm_log::{Wal, WalConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract; the count is a const-initialised
// thread-local `Cell` with no destructor, so bumping it never allocates
// and never touches memory being freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_read_allocates_nothing_a_first_write_one_a_rewrite_one_and_a_commit_none() {
    let stm = Stm::default();
    let mut ctx = stm.thread();
    let read_me = TVar::new(1i64);
    let write_me = TVar::new(0i64);
    let body = |tx: &mut Txn<'_>| -> TxResult<([u64; 3], u64)> {
        let start = allocations();
        tx.read(&read_me)?;
        let read = allocations();
        tx.write(&write_me, 3)?;
        let first_write = allocations();
        tx.write(&write_me, 4)?;
        let rewrite = allocations();
        Ok((
            [read - start, first_write - read, rewrite - first_write],
            allocations(),
        ))
    };
    // Warm up: the scratch sets reach their capacity.
    for _ in 0..64 {
        ctx.atomically(body).unwrap();
    }
    let ([read, first_write, rewrite], body_returned) = ctx.atomically(body).unwrap();
    let commit = allocations() - body_returned;
    assert_eq!(read, 0, "allocations per read");
    assert_eq!(first_write, 1, "allocations per first write");
    assert_eq!(rewrite, 1, "allocations per rewrite of an owned object");
    assert_eq!(commit, 0, "allocations per commit of one written object");
    assert_eq!(stm.read_atomic(&write_me), 4);
}

#[test]
fn each_hot_path_body_commits_first_try_and_opens_exactly_its_objects() {
    for kind in [ManagerKind::Greedy, ManagerKind::Karma] {
        let stm = Stm::builder().manager(kind.factory()).build();
        let mut ctx = stm.thread();
        let cell = TVar::new(0i64);
        for round in 0..3 {
            let (outcome, read) = ctx.atomically_traced(|tx| tx.read(&cell).map(drop));
            outcome.unwrap();
            assert_eq!(
                (read.attempts, read.reads, read.writes),
                (1, 1, 0),
                "{kind} read, round {round}"
            );
            let (outcome, increment) = ctx.atomically_traced(|tx| tx.modify(&cell, |v| v + 1));
            outcome.unwrap();
            assert_eq!(
                (increment.attempts, increment.reads, increment.writes),
                (1, 0, 1),
                "{kind} increment, round {round}"
            );
        }
        assert_eq!(stm.read_atomic(&cell), 3);
    }
}

#[test]
fn a_thousand_logged_commits_allocate_only_to_grow_the_pending_batch() {
    let dir = std::env::temp_dir().join(format!("stm-open-cost-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (wal, _) = Wal::open(WalConfig::new(&dir)).expect("fresh log opens");
    let hook = wal.commit_hook();
    let ops = [CommitOp::put(7, 42)];
    let commit_a_thousand = || {
        let start = allocations();
        for _ in 0..1_000 {
            hook.on_commit(&ops, &mut || true).expect("the commit won");
        }
        allocations() - start
    };
    let mut counts = vec![commit_a_thousand()];
    for flushed in [1_000, 2_000] {
        assert!(wal.wait_durable(flushed));
        counts.push(commit_a_thousand());
    }
    // Only buffer growth allocates, and a flush hands its drained buffer
    // back as the spare, so the third batch refills the first one's buffer
    // without growing it.
    let grown_then_reused = counts[0] <= 32 && counts[2] == 0;
    assert!(grown_then_reused, "allocations: {counts:?}");
    drop(hook);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flush_that_grows_the_segment_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("stm-open-cost-grow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (wal, _) = Wal::open(WalConfig::new(&dir)).expect("fresh log opens");
    let hook = wal.commit_hook();
    let segment_len = || {
        let segments = stm_log::recovery::list_segments(&dir).expect("log dir readable");
        std::fs::metadata(&segments[0].0).expect("segment").len()
    };
    // The first flush opens the segment, which allocates (its path).
    let seq = hook
        .on_commit(&[CommitOp::put(1, 1)], &mut || true)
        .unwrap();
    assert!(wal.wait_durable(seq));
    let opened_at = segment_len();
    // A record larger than the zeros already ahead of the first one.
    let blob = vec![7u8; opened_at as usize];
    let seq = hook
        .on_commit(&[CommitOp::put(2, blob)], &mut || true)
        .unwrap();
    let start = allocations();
    assert!(wal.wait_durable(seq));
    let flush = allocations() - start;
    assert!(segment_len() > opened_at, "the flush grew the segment");
    assert_eq!(flush, 0, "allocations per flush that grows the segment");
    drop(hook);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warm_wait_allocates_nothing() {
    use minipoll::{Interest, Poller, Token};
    use std::io::Write;
    use std::time::Duration;

    let poller = Poller::new().expect("epoll instance");
    let (readable, mut peer) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    peer.write_all(b"x").expect("one byte, never read");
    poller
        .register(&readable, Token(1), Interest::READABLE)
        .expect("register");
    // The same batch the event loop asks for; the warm-up wait grows the
    // buffer to it.
    let mut events = Vec::new();
    let wait = |events: &mut Vec<minipoll::Event>| {
        poller
            .wait(events, 1024, Some(Duration::from_secs(5)))
            .expect("wait")
    };
    assert_eq!(wait(&mut events), 1, "the warm-up wait reports the byte");
    let start = allocations();
    for _ in 0..1_000 {
        // Level-triggered: the unread byte is reported on every wait.
        assert_eq!(wait(&mut events), 1);
        assert_eq!(events[0].token(), Token(1));
    }
    assert_eq!(
        allocations() - start,
        0,
        "allocations over 1,000 warm waits"
    );
}
