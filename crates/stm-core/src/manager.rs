//! The contention-manager interface.
//!
//! A contention manager is the module "responsible for ensuring that the
//! system as a whole makes progress" (paper, abstract). It is consulted by a
//! transaction the moment that transaction discovers it is about to perform
//! an access that conflicts with another live transaction, and it answers
//! with one of three decisions: abort the enemy, wait, or abort yourself.
//!
//! Managers are **decentralised**: every thread owns its manager instance,
//! and a decision is made purely from a comparison of the two transactions'
//! publicly visible state (their [`TxView`]s) plus whatever local state the
//! manager keeps. No global data structure or cross-transaction protocol is
//! involved, matching the scoping discussion in Section 2 of the paper.
//!
//! Managers also receive notification hooks (`begin`, `opened`, `committed`,
//! `aborted`) that the Karma/Eruption/Polka family uses to accumulate
//! priority proportional to the work a transaction has performed.
//!
//! The greedy manager and the managers the paper compares it with live in
//! the `stm-cm` crate; this module defines the interface plus the two
//! trivial managers ([`AggressiveManager`], [`PoliteManager`]) that the core
//! crate uses as defaults and in its own tests. `PoliteManager` is
//! [`crate::Stm::default`]'s manager only; it is not in `stm-cm`'s registry.

use std::sync::Arc;
use std::time::Duration;

use crate::txn::TxShared;
use crate::wait::WaitSpec;

/// The kind of conflict being arbitrated, from the perspective of the
/// transaction consulting its manager ("me").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// I want to write an object currently acquired for writing by the enemy.
    WriteWrite,
    /// I want to read an object currently acquired for writing by the enemy.
    ReadWrite,
    /// I have acquired an object for writing and the enemy is registered as
    /// a reader of it (every transactional read registers).
    WriteRead,
}

/// A contention manager's decision about a conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Abort the enemy transaction (the runtime CASes its status word).
    AbortOther,
    /// Wait, as described by the [`WaitSpec`], then ask again.
    Wait(WaitSpec),
    /// Abort the current transaction; it will be retried with the same
    /// timestamp and lineage.
    AbortSelf,
}

impl Resolution {
    /// Convenience constructor: wait until the enemy commits, aborts, or
    /// starts waiting (the greedy manager's Rule 2).
    pub const fn wait_for_enemy() -> Self {
        Resolution::Wait(WaitSpec::until_enemy_quiesces())
    }

    /// Convenience constructor: bounded wait.
    pub const fn backoff(duration: Duration) -> Self {
        Resolution::Wait(WaitSpec::bounded(duration))
    }
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
}

/// A pluggable contention manager.
///
/// One instance exists per thread (created through the [`ManagerFactory`]
/// installed in the [`crate::Stm`]), so implementations are free to keep
/// mutable local state without synchronisation.
pub trait ContentionManager: Send {
    /// A short human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str {
        "unnamed"
    }

    /// Called when an attempt begins (including each retry).
    fn begin(&mut self, _me: TxView<'_>) {}

    /// Called after the transaction successfully opens (reads or writes) an
    /// object.
    fn opened(&mut self, _me: TxView<'_>, _object_id: u64) {}

    /// Called when the transaction commits.
    fn committed(&mut self, _me: TxView<'_>) {}

    /// Called when an attempt aborts.
    fn aborted(&mut self, _me: TxView<'_>) {}

    /// Called when the transaction `me` discovers a conflict with the live
    /// transaction `other`. Must decide whether to abort the enemy, wait, or
    /// abort itself.
    fn resolve(&mut self, me: TxView<'_>, other: TxView<'_>, kind: ConflictKind) -> Resolution;
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

    fn resolve(&mut self, _me: TxView<'_>, _other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        Resolution::AbortOther
    }
}

/// Default backoff rounds of [`PoliteManager`] before aborting the enemy.
const DEFAULT_POLITE_MAX_ROUNDS: u32 = 8;
/// Default base backoff interval of [`PoliteManager`].
const DEFAULT_POLITE_BASE: Duration = Duration::from_micros(4);

/// The *polite* manager: exponential backoff for a bounded number of rounds,
/// then abort the enemy.
#[derive(Debug, Clone)]
pub struct PoliteManager {
    /// Number of backoff rounds before giving up and aborting the enemy.
    max_rounds: u32,
    /// Base backoff interval.
    base: Duration,
    round: u32,
    conflict_with: Option<u64>,
}

impl Default for PoliteManager {
    fn default() -> Self {
        PoliteManager::new(DEFAULT_POLITE_MAX_ROUNDS, DEFAULT_POLITE_BASE)
    }
}

impl PoliteManager {
    /// Creates a polite manager that backs off `max_rounds` times with
    /// exponentially growing intervals starting at `base`.
    pub fn new(max_rounds: u32, base: Duration) -> Self {
        PoliteManager {
            max_rounds,
            base,
            round: 0,
            conflict_with: None,
        }
    }
}

impl ContentionManager for PoliteManager {
    fn name(&self) -> &'static str {
        "polite"
    }

    fn begin(&mut self, _me: TxView<'_>) {
        self.round = 0;
        self.conflict_with = None;
    }

    fn resolve(&mut self, _me: TxView<'_>, other: TxView<'_>, _kind: ConflictKind) -> Resolution {
        // Restart the backoff series when the enemy changes.
        if self.conflict_with != Some(other.id()) {
            self.conflict_with = Some(other.id());
            self.round = 0;
        }
        if self.round >= self.max_rounds {
            self.round = 0;
            return Resolution::AbortOther;
        }
        let factor = 1u32 << self.round.min(16);
        self.round += 1;
        Resolution::backoff(self.base * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxLineage;

    fn view_pair() -> (Arc<TxShared>, Arc<TxShared>) {
        let a = Arc::new(TxShared::new(Arc::new(TxLineage::new(1, 1)), 1));
        let b = Arc::new(TxShared::new(Arc::new(TxLineage::new(2, 2)), 1));
        (a, b)
    }

    #[test]
    fn aggressive_always_aborts_other() {
        let (a, b) = view_pair();
        let mut m = AggressiveManager::new();
        assert_eq!(m.name(), "aggressive");
        for kind in [
            ConflictKind::WriteWrite,
            ConflictKind::ReadWrite,
            ConflictKind::WriteRead,
        ] {
            assert_eq!(
                m.resolve(TxView::new(&a), TxView::new(&b), kind),
                Resolution::AbortOther
            );
        }
    }

    #[test]
    fn polite_backs_off_then_aborts() {
        let (a, b) = view_pair();
        let mut m = PoliteManager::new(3, Duration::from_micros(1));
        let mut waits = 0;
        loop {
            match m.resolve(TxView::new(&a), TxView::new(&b), ConflictKind::WriteWrite) {
                Resolution::Wait(spec) => {
                    assert!(spec.max.is_some());
                    waits += 1;
                }
                Resolution::AbortOther => break,
                Resolution::AbortSelf => panic!("polite never aborts itself"),
            }
        }
        assert_eq!(waits, 3);
    }

    #[test]
    fn polite_resets_series_for_new_enemy() {
        let (a, b) = view_pair();
        let c = Arc::new(TxShared::new(Arc::new(TxLineage::new(3, 3)), 1));
        let mut m = PoliteManager::new(2, Duration::from_micros(1));
        // Two waits against b.
        assert!(matches!(
            m.resolve(TxView::new(&a), TxView::new(&b), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
        assert!(matches!(
            m.resolve(TxView::new(&a), TxView::new(&b), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
        // A new enemy restarts the series.
        assert!(matches!(
            m.resolve(TxView::new(&a), TxView::new(&c), ConflictKind::WriteWrite),
            Resolution::Wait(_)
        ));
    }

    #[test]
    fn tx_view_exposes_shared_state() {
        let (a, _) = view_pair();
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
        let f = factory(PoliteManager::default);
        assert_eq!(f().name(), "polite");
    }

    #[test]
    fn resolution_helpers() {
        assert_eq!(
            Resolution::wait_for_enemy(),
            Resolution::Wait(WaitSpec::until_enemy_quiesces())
        );
        assert_eq!(
            Resolution::backoff(Duration::from_millis(1)),
            Resolution::Wait(WaitSpec::bounded(Duration::from_millis(1)))
        );
    }
}
