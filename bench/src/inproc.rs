//! `inproc_contended`: the paper's setting. No sockets, no store, no log —
//! threads on one `Stm` moving money between eight accounts, so `stm-core`
//! open/commit, the reader registry and the contention manager's verdicts
//! are all of the work.

use std::sync::Barrier;
use std::time::Duration;

use stm_cm::ManagerKind;
use stm_core::stats::StatsSnapshot;
use stm_core::{Stm, TVar};

use crate::gen::{transfers, Transfer, ACCOUNTS};
use crate::stats::{Clock, Hist};
use crate::trace::Trace;

const OPENING_BALANCE: i64 = 1_000_000;
/// Transfers in one thread's cyclic stream.
const STREAM_LEN: usize = 1 << 16;

pub struct Bank {
    stm: Stm,
    accounts: Vec<TVar<i64>>,
    streams: Vec<Vec<Transfer>>,
}

/// What one closed-loop run saw, all threads merged.
pub struct BankRun {
    pub attempted: u64,
    pub failed: u64,
    /// Latency from `atomically_traced` entry to return.
    pub latency: Hist,
    /// Transfers committed.
    pub done: u64,
    pub conserved: bool,
}

impl Bank {
    /// Set-up: the STM, the accounts and every thread's transfer stream.
    pub fn new(manager: ManagerKind, threads: usize, seed: u64) -> Bank {
        Bank {
            stm: Stm::builder().manager(manager.factory()).build(),
            accounts: (0..ACCOUNTS).map(|_| TVar::new(OPENING_BALANCE)).collect(),
            streams: (0..threads)
                .map(|t| transfers(seed, t, STREAM_LEN))
                .collect(),
        }
    }

    fn transfer(&self, ctx: &mut stm_core::ThreadCtx<'_>, transfer: &Transfer) -> bool {
        let [from, to, third, fourth] = transfer.accounts.map(|a| &self.accounts[a as usize]);
        let (result, _) = ctx.atomically_traced(|tx| {
            let source = tx.read(from)?;
            let target = tx.read(to)?;
            std::hint::black_box(tx.read(third)? + tx.read(fourth)?);
            tx.write(from, source - transfer.amount)?;
            tx.write(to, target + transfer.amount)
        });
        result.is_ok()
    }

    /// Whether the accounts still add up to what they opened with.
    pub fn conserved(&self) -> bool {
        let total: i64 = self.accounts.iter().map(|a| self.stm.read_atomic(a)).sum();
        total == OPENING_BALANCE * ACCOUNTS as i64
    }

    /// The STM's shared counters so far (see [`stats_delta`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.stm.stats().snapshot()
    }

    /// Closed loop: every thread runs its stream for `duration`.
    pub fn run(&self, duration: Duration, clock: Clock) -> BankRun {
        let barrier = Barrier::new(self.streams.len());
        let duration_ns = duration.as_nanos() as u64;
        let per_thread: Vec<(u64, u64, Hist)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .map(|stream| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut ctx = self.stm.thread();
                        barrier.wait();
                        let start = clock.now_ns();
                        let end = start + duration_ns;
                        let mut latency = Hist::new();
                        let (mut attempted, mut failed) = (0u64, 0u64);
                        let mut entered = start;
                        while entered < end {
                            let transfer = &stream[attempted as usize % stream.len()];
                            attempted += 1;
                            let ok = self.transfer(&mut ctx, transfer);
                            let returned = clock.now_ns();
                            if ok {
                                latency.record(returned - entered);
                            } else {
                                failed += 1;
                            }
                            entered = returned;
                        }
                        (attempted, failed, latency)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("bank thread panicked"))
                .collect()
        });
        let mut merged = BankRun {
            attempted: 0,
            failed: 0,
            latency: Hist::new(),
            done: 0,
            conserved: self.conserved(),
        };
        for (attempted, failed, latency) in &per_thread {
            merged.attempted += attempted;
            merged.failed += failed;
            merged.done += attempted - failed;
            merged.latency.merge(latency);
        }
        merged
    }

    /// Traced run: one thread, the first `count` transfers of thread 0's
    /// stream, one `stm_core.txn` span each. Returns how many failed.
    pub fn run_traced(&self, count: usize, clock: Clock, trace: &mut Trace) -> u64 {
        let mut ctx = self.stm.thread();
        let mut failed = 0;
        for (i, transfer) in self.streams[0].iter().cycle().take(count).enumerate() {
            let span = trace.begin("stm_core.txn", None, i as u32, clock.now_ns());
            failed += u64::from(!self.transfer(&mut ctx, transfer));
            trace.end(span, clock.now_ns());
        }
        failed
    }
}

/// Field-wise `after - before`.
pub fn stats_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    let mut aborts_by_cause = after.aborts_by_cause;
    for (gained, earlier) in aborts_by_cause.iter_mut().zip(before.aborts_by_cause) {
        *gained -= earlier;
    }
    StatsSnapshot {
        transactions: after.transactions - before.transactions,
        attempts: after.attempts - before.attempts,
        commits: after.commits - before.commits,
        aborts: after.aborts - before.aborts,
        conflicts: after.conflicts - before.conflicts,
        waits: after.waits - before.waits,
        enemy_aborts: after.enemy_aborts - before.enemy_aborts,
        validation_failures: after.validation_failures - before.validation_failures,
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        aborts_by_cause,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_contended_run_conserves_money() {
        let bank = Bank::new(ManagerKind::Greedy, 2, 1);
        let before = bank.stats();
        let run = bank.run(Duration::from_millis(200), Clock::start());
        assert!(run.conserved);
        assert_eq!(run.failed, 0);
        assert!(run.attempted > 0);
        assert_eq!(stats_delta(&before, &bank.stats()).commits, run.attempted);
        assert_eq!(run.done, run.attempted);
    }

    #[test]
    fn traced_run_records_one_span_per_transfer() {
        let bank = Bank::new(ManagerKind::Greedy, 1, 1);
        let mut trace = Trace::default();
        assert_eq!(bank.run_traced(100, Clock::start(), &mut trace), 0);
        assert_eq!(trace.spans.len(), 100);
        assert!(bank.conserved());
    }
}
