//! What an open costs the heap, counted, not timed.
//!
//! A counting global allocator tallies allocations per thread, and one
//! transaction measures around each of its opens after warm-up (the
//! thread's scratch sets have their capacity by then):
//!
//! * a read allocates nothing: it sets its context's bit in the object's
//!   reader word and keeps the object's own `Arc` in the read set;
//! * a first write allocates twice: the boxed `OwnedWrite` record in the
//!   write set and the new value's `Arc` (the locator naming the writer is
//!   updated in place under the object's lock);
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
//! The counts hold on any host, so a change that adds an allocation to an
//! open, or an open to a body, fails here rather than somewhere in a
//! benchmark's noise. This is
//! the one file outside the vendored crates with `unsafe` in it: a
//! `GlobalAlloc` cannot be written without it, and each method only
//! forwards to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stm_cm::ManagerKind;
use stm_core::{Stm, TVar, TxResult, Txn};

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
fn a_read_allocates_nothing_a_first_write_two_a_rewrite_one_and_a_commit_none() {
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
    assert_eq!(first_write, 2, "allocations per first write");
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
