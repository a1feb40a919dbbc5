//! The contention-manager interface.
//!
//! A contention manager is the module "responsible for ensuring that the
//! system as a whole makes progress" (paper, abstract). It is consulted by a
//! transaction the moment that transaction discovers it is about to perform
//! an access that conflicts with another live transaction, and it answers
//! with one of two decisions: abort the enemy, or wait. After a wait the
//! transaction re-runs the access, and asks again if the conflict is still
//! there.
//!
//! Managers are **decentralised**: every thread owns its manager instance,
//! and a decision is made purely from a comparison of the two transactions'
//! publicly visible state (their [`TxView`]s) plus whatever local state the
//! manager keeps. No global data structure or cross-transaction protocol is
//! involved, matching the scoping discussion in Section 2 of the paper.
//!
//! Managers also receive notification hooks (`begin`, `opened`, `committed`)
//! that the Karma/Eruption/Polka family uses to accumulate priority
//! proportional to the work a transaction has performed.
//!
//! This module defines the interface plus the two managers the core crate
//! uses itself: the paper's [`GreedyManager`], which [`crate::Stm::default`]
//! runs, and the trivial [`AggressiveManager`]. The managers the paper
//! compares greedy with live in the `stm-cm` crate, which re-exports both.

use std::sync::Arc;

use crate::txn::TxShared;
use crate::wait::WaitSpec;

/// A contention manager's decision about a conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Abort the enemy transaction (the runtime CASes its status word).
    AbortOther,
    /// Wait, as described by the [`WaitSpec`], then ask again.
    Wait(WaitSpec),
}

/// A read-only view of a transaction's publicly visible state, handed to
/// contention managers.
///
/// The view exposes what the shipped managers read: the identity and attempt
/// number, the greedy timestamp and public `waiting` flag of the paper's
/// Section 3, and the karma counter of the Karma/Eruption/Polka family.
/// The status word stays with the runtime, which alone acts on a
/// [`Resolution`].
#[derive(Debug, Clone, Copy)]
pub struct TxView<'a> {
    shared: &'a Arc<TxShared>,
}

impl<'a> TxView<'a> {
    /// Wraps a shared transaction descriptor.
    pub fn new(shared: &'a Arc<TxShared>) -> Self {
        TxView { shared }
    }

    /// Identity of the logical transaction.
    pub fn id(&self) -> u64 {
        self.shared.id()
    }

    /// Attempt number (1 for the first attempt).
    pub fn attempt(&self) -> u64 {
        self.shared.attempt()
    }

    /// The timestamp taken when the transaction first began; retained across
    /// restarts. Smaller is older is higher priority.
    pub fn timestamp(&self) -> u64 {
        self.shared.timestamp()
    }

    /// Whether the transaction is currently waiting for another transaction
    /// (the public `waiting` flag of the greedy manager).
    pub fn is_waiting(&self) -> bool {
        self.shared.is_waiting()
    }

    /// Manager-maintained accumulated priority.
    pub fn karma(&self) -> u64 {
        self.shared.lineage().karma()
    }

    /// Adds to the transaction's accumulated priority (Eruption transfers its
    /// own priority to the transaction it is blocked behind).
    pub fn add_karma(&self, delta: u64) {
        self.shared.lineage().add_karma(delta);
    }

    /// Resets the accumulated priority (Karma does this when a transaction
    /// commits).
    pub fn reset_karma(&self) {
        self.shared.lineage().reset_karma();
    }

    /// Whether this transaction has strictly higher greedy priority than
    /// `other`: an earlier timestamp wins, and the lower id breaks ties, so
    /// of two distinct transactions exactly one outranks the other.
    pub fn outranks(&self, other: TxView<'_>) -> bool {
        (self.timestamp(), self.id()) < (other.timestamp(), other.id())
    }
}

/// A pluggable contention manager.
///
/// One instance exists per thread (created through the [`ManagerFactory`]
/// installed in the [`crate::Stm`]), so implementations are free to keep
/// mutable local state without synchronisation.
pub trait ContentionManager: Send {
    /// A short human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Called when an attempt begins (including each retry).
    fn begin(&mut self, _me: TxView<'_>) {}

    /// Called after the transaction successfully opens (reads or writes) an
    /// object. Managers count opens; none needs to know which object it was,
    /// so objects carry no identity.
    fn opened(&mut self, _me: TxView<'_>) {}

    /// Called when the transaction commits.
    fn committed(&mut self, _me: TxView<'_>) {}

    /// Called when the transaction `me` discovers a conflict with the live
    /// transaction `other`, whichever of the two reads or writes. Decides
    /// whether to abort the enemy or to wait ([`WaitSpec::is_over`] says
    /// when a wait ends); either way the transaction then re-runs the
    /// access, and asks again if the conflict is still there.
    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>) -> Resolution;
}

/// Factory that builds one contention-manager instance per thread.
pub type ManagerFactory = Arc<dyn Fn() -> Box<dyn ContentionManager> + Send + Sync>;

/// Builds a [`ManagerFactory`] from a plain constructor function.
///
/// ```
/// use stm_core::manager::{factory, AggressiveManager};
/// let f = factory(AggressiveManager::new);
/// let manager = f();
/// assert_eq!(manager.name(), "aggressive");
/// ```
pub fn factory<M, F>(make: F) -> ManagerFactory
where
    M: ContentionManager + 'static,
    F: Fn() -> M + Send + Sync + 'static,
{
    Arc::new(move || Box::new(make()) as Box<dyn ContentionManager>)
}

/// The *aggressive* manager: always aborts the enemy.
///
/// Trivially satisfies the pending-commit property in the write path (the
/// acquiring transaction always proceeds), but is prone to livelock when two
/// transactions repeatedly abort each other, as the paper notes.
#[derive(Debug, Default, Clone)]
pub struct AggressiveManager;

impl AggressiveManager {
    /// Creates an aggressive manager.
    pub fn new() -> Self {
        AggressiveManager
    }
}

impl ContentionManager for AggressiveManager {
    fn name(&self) -> &'static str {
        "aggressive"
    }

    fn resolve(&mut self, _me: TxView<'_>, _other: TxView<'_>) -> Resolution {
        Resolution::AbortOther
    }
}

/// The greedy contention manager — the paper's central contribution
/// (Section 3), and the manager [`crate::Stm::default`] runs.
///
/// Every transaction keeps the timestamp it drew when it *first* began
/// across aborts and restarts; [`TxView::outranks`] orders two of them.
/// When transaction `A` is about to perform an access that conflicts with
/// transaction `B`, greedy applies two rules:
///
/// 1. If `A` outranks `B`, **or** `B` is waiting for another transaction,
///    then `A` aborts `B`.
/// 2. If `B` outranks `A` and is not waiting, then `A` waits until `B`
///    commits, aborts, or starts waiting (in which case Rule 1 applies).
///
/// Because the highest-priority running transaction never waits and is
/// never aborted, greedy has the *pending-commit property* — at any time
/// some running transaction will run uninterrupted until it commits —
/// which by Theorem 9 bounds the makespan of `n` concurrent transactions
/// sharing `s` objects to within a factor of `s(s+1)+2` of an optimal
/// off-line list schedule, and by Theorem 1 guarantees that every
/// transaction commits within a bounded delay.
///
/// Stateless: decisions depend only on the two transactions' timestamps and
/// the enemy's `waiting` flag, so the manager is trivially decentralised.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyManager;

impl GreedyManager {
    /// Creates a greedy manager.
    pub fn new() -> Self {
        GreedyManager
    }

    /// A per-thread factory for use with [`crate::StmBuilder::manager`].
    pub fn factory() -> ManagerFactory {
        factory(GreedyManager::new)
    }
}

impl ContentionManager for GreedyManager {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>) -> Resolution {
        // Rule 1: abort enemies that are lower priority or themselves waiting.
        if me.outranks(other) || other.is_waiting() {
            Resolution::AbortOther
        } else {
            // Rule 2: wait until the higher-priority enemy commits, aborts,
            // or starts waiting. The runtime's wait loop wakes on exactly
            // those three events.
            Resolution::Wait(WaitSpec::until_enemy_quiesces())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxLineage;

    /// A running first attempt of transaction `id`, begun at `timestamp`.
    fn tx(id: u64, timestamp: u64) -> Arc<TxShared> {
        Arc::new(TxShared::new(Arc::new(TxLineage::new(id, timestamp)), 1))
    }

    fn view(shared: &Arc<TxShared>) -> TxView<'_> {
        TxView::new(shared)
    }

    #[test]
    fn aggressive_always_aborts_other() {
        let (a, b) = (tx(1, 1), tx(2, 2));
        let mut m = AggressiveManager::new();
        assert_eq!(m.name(), "aggressive");
        assert_eq!(m.resolve(view(&a), view(&b)), Resolution::AbortOther);
        assert_eq!(m.resolve(view(&b), view(&a)), Resolution::AbortOther);
    }

    #[test]
    fn outranks_orders_by_timestamp_then_id() {
        let (old, young) = (tx(2, 10), tx(1, 20));
        assert!(view(&old).outranks(view(&young)));
        assert!(!view(&young).outranks(view(&old)));
        // Equal timestamps: the lower id wins, and only one direction does.
        let (a, b) = (tx(1, 10), tx(2, 10));
        assert!(view(&a).outranks(view(&b)));
        assert!(!view(&b).outranks(view(&a)));
        assert!(!view(&a).outranks(view(&a)));
    }

    #[test]
    fn rule_one_aborts_an_outranked_enemy() {
        let me = tx(1, 10);
        let other = tx(2, 20); // later timestamp -> lower priority
        let mut greedy = GreedyManager::new();
        assert_eq!(
            greedy.resolve(view(&me), view(&other)),
            Resolution::AbortOther
        );
    }

    #[test]
    fn rule_one_aborts_waiting_enemy_even_if_higher_priority() {
        let me = tx(1, 20);
        let other = tx(2, 10); // earlier timestamp -> higher priority
        other.set_waiting(true);
        let mut greedy = GreedyManager::new();
        assert_eq!(
            greedy.resolve(view(&me), view(&other)),
            Resolution::AbortOther
        );
    }

    #[test]
    fn rule_two_waits_for_higher_priority_enemy() {
        let me = tx(1, 20);
        let other = tx(2, 10);
        let mut greedy = GreedyManager::new();
        assert_eq!(
            greedy.resolve(view(&me), view(&other)),
            Resolution::Wait(WaitSpec::until_enemy_quiesces())
        );
    }

    #[test]
    fn ties_are_broken_deterministically_and_asymmetrically() {
        let a = tx(1, 10);
        let b = tx(2, 10);
        let mut greedy = GreedyManager::new();
        let ab = greedy.resolve(view(&a), view(&b));
        let ba = greedy.resolve(view(&b), view(&a));
        // Exactly one direction aborts, the other waits: no mutual abort, no
        // mutual wait.
        assert_ne!(ab == Resolution::AbortOther, ba == Resolution::AbortOther);
    }

    #[test]
    fn highest_priority_transaction_never_waits_nor_aborts_itself() {
        let oldest = tx(1, 0);
        let mut greedy = GreedyManager::new();
        for ts in 1..50u64 {
            let enemy = tx(ts + 1, ts);
            let r = greedy.resolve(view(&oldest), view(&enemy));
            assert_eq!(r, Resolution::AbortOther);
        }
    }

    #[test]
    fn tx_view_exposes_shared_state() {
        let a = tx(1, 1);
        let view = TxView::new(&a);
        assert_eq!(view.id(), 1);
        assert_eq!(view.timestamp(), 1);
        assert_eq!(view.attempt(), 1);
        assert!(!view.is_waiting());
        a.set_waiting(true);
        assert!(view.is_waiting());
        view.add_karma(4);
        assert_eq!(view.karma(), 4);
        view.reset_karma();
        assert_eq!(view.karma(), 0);
    }

    #[test]
    fn factory_builds_boxed_managers() {
        let f = factory(AggressiveManager::new);
        assert_eq!(f().name(), "aggressive");
        assert_eq!(GreedyManager::factory()().name(), "greedy");
    }
}
