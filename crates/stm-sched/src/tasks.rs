//! Garey–Graham task systems (Section 4.1 of the paper).
//!
//! A task system is a set of tasks `{T_1, ..., T_n}` and shared resources
//! `{R_1, ..., R_s}`. Each task `T_j` has a length `τ_j > 0` and uses
//! `R_i(T_j)` units of resource `R_i`, with demands normalised to `[0, 1]`;
//! at every instant the total demand on each resource must stay at or below
//! one.
//!
//! Transactions map to tasks "in a straightforward way" (Section 4.2): a
//! transaction of duration `δ_j` becomes a task of the same duration, an
//! updated object becomes a resource demand of `1`, and an object that is
//! only read becomes a demand of `1/n`, so that any number of readers — but
//! at most one writer — fit simultaneously.

use crate::simulator::SimTransaction;

/// A single task: a positive length and one demand per resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task length `τ_j` (same unit as the schedule's makespan).
    pub length: f64,
    /// Demand on each resource, each in `[0, 1]`.
    pub demands: Vec<f64>,
}

impl Task {
    /// Creates a task, validating the length and demands.
    ///
    /// # Panics
    ///
    /// Panics if the length is not positive and finite, or if any demand is
    /// outside `[0, 1]`.
    pub fn new(length: f64, demands: Vec<f64>) -> Self {
        assert!(
            length > 0.0 && length.is_finite(),
            "task length must be positive"
        );
        for (i, d) in demands.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(d),
                "demand {d} on resource {i} outside [0, 1]"
            );
        }
        Task { length, demands }
    }

    /// Demand on resource `i` (zero if the task does not use it).
    pub fn demand(&self, resource: usize) -> f64 {
        self.demands.get(resource).copied().unwrap_or(0.0)
    }
}

/// A Garey–Graham task system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskSystem {
    tasks: Vec<Task>,
    num_resources: usize,
}

impl TaskSystem {
    /// Creates a task system over `num_resources` resources.
    pub fn new(num_resources: usize) -> Self {
        TaskSystem {
            tasks: Vec::new(),
            num_resources,
        }
    }

    /// Adds a task; its demand vector is padded (or must not exceed) the
    /// system's resource count.
    ///
    /// # Panics
    ///
    /// Panics if the task names more resources than the system has.
    pub fn push(&mut self, mut task: Task) {
        assert!(
            task.demands.len() <= self.num_resources,
            "task uses {} resources but the system has {}",
            task.demands.len(),
            self.num_resources
        );
        task.demands.resize(self.num_resources, 0.0);
        self.tasks.push(task);
    }

    /// The tasks in the system.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks `n`.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the system contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of shared resources `s`.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Sum of all task lengths (the makespan of a fully serial schedule, and
    /// a trivial upper bound for any valid schedule).
    pub fn total_length(&self) -> f64 {
        self.tasks.iter().map(|t| t.length).sum()
    }

    /// The longest single task (a trivial lower bound on any makespan).
    pub fn max_length(&self) -> f64 {
        self.tasks.iter().map(|t| t.length).fold(0.0, f64::max)
    }

    /// A lower bound on the optimal makespan: the maximum over resources of
    /// the total work (length × demand) demanded from that resource, and the
    /// longest task.
    pub fn makespan_lower_bound(&self) -> f64 {
        let mut bound = self.max_length();
        for r in 0..self.num_resources {
            let load: f64 = self.tasks.iter().map(|t| t.length * t.demand(r)).sum();
            bound = bound.max(load);
        }
        bound
    }

    /// Builds the task system corresponding to a transaction system
    /// (Section 4.2): writes demand a full object, reads demand `1/n`.
    ///
    /// Durations are converted from ticks to time units of
    /// `ticks_per_unit = ` the largest duration, i.e. the longest transaction
    /// has length 1; callers that care about absolute units can scale.
    pub fn from_transactions(transactions: &[SimTransaction]) -> Self {
        let n = transactions.len().max(1);
        let num_objects = transactions
            .iter()
            .flat_map(|t| t.accesses.iter().map(|a| a.object + 1))
            .max()
            .unwrap_or(0);
        let mut system = TaskSystem::new(num_objects);
        for txn in transactions {
            let mut demands = vec![0.0; num_objects];
            for access in &txn.accesses {
                let demand = if access.write { 1.0 } else { 1.0 / n as f64 };
                if demand > demands[access.object] {
                    demands[access.object] = demand;
                }
            }
            system.push(Task::new(txn.duration as f64, demands));
        }
        system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SimAccess;

    #[test]
    fn task_validation() {
        let t = Task::new(2.0, vec![0.5, 1.0]);
        assert_eq!(t.demand(0), 0.5);
        assert_eq!(t.demand(1), 1.0);
        assert_eq!(t.demand(7), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_task_is_rejected() {
        let _ = Task::new(0.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_demand_is_rejected() {
        let _ = Task::new(1.0, vec![1.5]);
    }

    #[test]
    fn system_accounting() {
        let mut sys = TaskSystem::new(2);
        sys.push(Task::new(1.0, vec![1.0]));
        sys.push(Task::new(3.0, vec![0.0, 0.5]));
        sys.push(Task::new(2.0, vec![0.5, 0.5]));
        assert_eq!(sys.len(), 3);
        assert!(!sys.is_empty());
        assert_eq!(sys.num_resources(), 2);
        assert!((sys.total_length() - 6.0).abs() < 1e-12);
        assert!((sys.max_length() - 3.0).abs() < 1e-12);
        // Resource 0 load: 1*1 + 2*0.5 = 2; resource 1: 3*0.5 + 2*0.5 = 2.5;
        // longest task 3 -> lower bound 3.
        assert!((sys.makespan_lower_bound() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "resources")]
    fn task_with_too_many_resources_is_rejected() {
        let mut sys = TaskSystem::new(1);
        sys.push(Task::new(1.0, vec![0.1, 0.2]));
    }

    #[test]
    fn transaction_conversion_uses_full_and_fractional_demands() {
        let transactions = vec![
            SimTransaction {
                duration: 10,
                priority: 0,
                accesses: vec![
                    SimAccess {
                        offset: 0,
                        object: 0,
                        write: true,
                    },
                    SimAccess {
                        offset: 5,
                        object: 1,
                        write: false,
                    },
                ],
            },
            SimTransaction {
                duration: 20,
                priority: 1,
                accesses: vec![SimAccess {
                    offset: 0,
                    object: 1,
                    write: false,
                }],
            },
        ];
        let sys = TaskSystem::from_transactions(&transactions);
        assert_eq!(sys.num_resources(), 2);
        assert_eq!(sys.len(), 2);
        assert!((sys.tasks()[0].demand(0) - 1.0).abs() < 1e-12);
        assert!((sys.tasks()[0].demand(1) - 0.5).abs() < 1e-12);
        assert!((sys.tasks()[1].demand(0) - 0.0).abs() < 1e-12);
        assert!((sys.tasks()[1].demand(1) - 0.5).abs() < 1e-12);
        assert!((sys.tasks()[1].length - 20.0).abs() < 1e-12);
    }
}
