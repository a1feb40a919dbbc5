//! A registry of every contention manager in the crate, addressable by name.
//!
//! The benchmark harness and the examples sweep over managers by name; the
//! registry is the single source of truth for which managers exist, what
//! they are called, and how to build a per-thread factory for each.

use std::fmt;
use std::str::FromStr;

use stm_core::manager::{factory, AggressiveManager, ManagerFactory};

use crate::{
    BackoffManager, EruptionManager, GreedyManager, GreedyTimeoutManager, KarmaManager,
    PolkaManager, TimestampManager,
};

/// Every contention manager known to this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ManagerKind {
    Greedy,
    GreedyTimeout,
    Aggressive,
    Backoff,
    Timestamp,
    Karma,
    Eruption,
    Polka,
}

impl ManagerKind {
    /// All manager kinds, in a stable reporting order.
    pub const ALL: [ManagerKind; 8] = [
        ManagerKind::Greedy,
        ManagerKind::GreedyTimeout,
        ManagerKind::Aggressive,
        ManagerKind::Backoff,
        ManagerKind::Timestamp,
        ManagerKind::Karma,
        ManagerKind::Eruption,
        ManagerKind::Polka,
    ];

    /// The managers shown in the paper's figures (Figures 1–4 plot Eruption,
    /// Greedy, Aggressive, Backoff and Karma).
    pub const FIGURE_SET: [ManagerKind; 5] = [
        ManagerKind::Eruption,
        ManagerKind::Greedy,
        ManagerKind::Aggressive,
        ManagerKind::Backoff,
        ManagerKind::Karma,
    ];

    /// The canonical lowercase name of the manager.
    pub fn name(self) -> &'static str {
        match self {
            ManagerKind::Greedy => "greedy",
            ManagerKind::GreedyTimeout => "greedy-timeout",
            ManagerKind::Aggressive => "aggressive",
            ManagerKind::Backoff => "backoff",
            ManagerKind::Timestamp => "timestamp",
            ManagerKind::Karma => "karma",
            ManagerKind::Eruption => "eruption",
            ManagerKind::Polka => "polka",
        }
    }

    /// Builds a per-thread factory for this manager, each instance built
    /// from the manager's own `Default`.
    pub fn factory(self) -> ManagerFactory {
        match self {
            ManagerKind::Greedy => GreedyManager::factory(),
            ManagerKind::GreedyTimeout => GreedyTimeoutManager::factory(),
            ManagerKind::Aggressive => factory(AggressiveManager::new),
            ManagerKind::Backoff => BackoffManager::factory(),
            ManagerKind::Timestamp => TimestampManager::factory(),
            ManagerKind::Karma => KarmaManager::factory(),
            ManagerKind::Eruption => EruptionManager::factory(),
            ManagerKind::Polka => PolkaManager::factory(),
        }
    }
}

impl fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown manager name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownManager(pub String);

impl fmt::Display for UnknownManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown contention manager '{}'; known managers: {}",
            self.0,
            all_manager_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownManager {}

impl FromStr for ManagerKind {
    type Err = UnknownManager;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_ascii_lowercase();
        ManagerKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == normalized)
            .ok_or_else(|| UnknownManager(s.to_string()))
    }
}

/// Names of every manager in the registry.
pub fn all_manager_names() -> Vec<&'static str> {
    ManagerKind::ALL.iter().map(|k| k.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_unique_name_and_working_factory() {
        let mut names = std::collections::HashSet::new();
        for kind in ManagerKind::ALL {
            let name = kind.name();
            assert!(names.insert(name), "duplicate manager name {name}");
            let manager = kind.factory()();
            assert_eq!(manager.name(), name, "factory name mismatch for {kind}");
        }
        assert_eq!(names.len(), ManagerKind::ALL.len());
    }

    #[test]
    fn parsing_round_trips() {
        for kind in ManagerKind::ALL {
            assert_eq!(kind.name().parse::<ManagerKind>().unwrap(), kind);
            assert_eq!(
                kind.name().to_uppercase().parse::<ManagerKind>().unwrap(),
                kind
            );
        }
        assert!("no-such-manager".parse::<ManagerKind>().is_err());
        let err = "bogus".parse::<ManagerKind>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn figure_set_matches_the_paper() {
        let figure_names: Vec<_> = ManagerKind::FIGURE_SET.iter().map(|k| k.name()).collect();
        assert_eq!(
            figure_names,
            vec!["eruption", "greedy", "aggressive", "backoff", "karma"]
        );
        assert_eq!(all_manager_names().len(), 8);
    }

    #[test]
    fn deleted_managers_are_refused_with_the_kept_list() {
        let kept = "greedy, greedy-timeout, aggressive, backoff, timestamp, karma, eruption, polka";
        for name in [
            "polite",
            "randomized",
            "kindergarten",
            "killblocked",
            "queueonblock",
        ] {
            let err = name.parse::<ManagerKind>().unwrap_err();
            assert_eq!(err, UnknownManager(name.to_string()));
            assert_eq!(
                err.to_string(),
                format!("unknown contention manager '{name}'; known managers: {kept}")
            );
        }
    }
}
