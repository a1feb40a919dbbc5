//! List schedules and the optimal-list-schedule search.
//!
//! A *list scheduler* keeps the tasks in a list; whenever a processor is free
//! it scans the list front to back and starts the first unstarted task whose
//! resource demands currently fit (the paper, following Garey & Graham,
//! considers as many processors as tasks). List schedules are *non-idling*:
//! no task waits while the resources it needs are available.
//!
//! Computing the best list order is NP-complete, but any list order is within
//! a factor of `s + 1` of the optimum (Garey & Graham); the paper compares
//! the greedy contention manager against exactly this "optimal off-line list
//! scheduler", which is what [`optimal_list_schedule`] computes (exhaustively
//! for small instances, by heuristic search for larger ones).

use crate::tasks::TaskSystem;

/// Tolerance used when packing fractional resource demands.
const EPSILON: f64 = 1e-9;

/// The outcome of scheduling a task system.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Total time until the last task finishes.
    pub makespan: f64,
    /// Start time of each task, indexed like the task system.
    pub start_times: Vec<f64>,
    /// The list order that produced this schedule.
    pub order: Vec<usize>,
    /// Whether the result is provably optimal among list schedules (true only
    /// when the search was exhaustive).
    pub exact: bool,
}

/// Simulates the list schedule induced by `order` (a permutation of task
/// indices) and returns its makespan and start times.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..tasks.len()`.
pub fn list_schedule(tasks: &TaskSystem, order: &[usize]) -> ScheduleResult {
    let n = tasks.len();
    assert_eq!(order.len(), n, "order must mention every task exactly once");
    let mut seen = vec![false; n];
    for &i in order {
        assert!(i < n && !seen[i], "order must be a permutation");
        seen[i] = true;
    }
    let mut started = vec![false; n];
    let mut finished = vec![false; n];
    let mut start_times = vec![0.0f64; n];
    let mut finish_times = vec![0.0f64; n];
    let mut usage = vec![0.0f64; tasks.num_resources()];
    let mut now = 0.0f64;
    let mut running: Vec<usize> = Vec::new();
    let mut makespan = 0.0f64;

    loop {
        // Start every task (in list order) that fits right now.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for &candidate in order {
                if started[candidate] {
                    continue;
                }
                let task = &tasks.tasks()[candidate];
                let fits =
                    (0..tasks.num_resources()).all(|r| usage[r] + task.demand(r) <= 1.0 + EPSILON);
                if fits {
                    started[candidate] = true;
                    start_times[candidate] = now;
                    finish_times[candidate] = now + task.length;
                    makespan = makespan.max(finish_times[candidate]);
                    for (r, used) in usage.iter_mut().enumerate() {
                        *used += task.demand(r);
                    }
                    running.push(candidate);
                    progressed = true;
                }
            }
        }
        if running.is_empty() {
            // Nothing is running and nothing could start: either we are done
            // or the instance is infeasible (a single task demanding more
            // than a unit of some resource, which Task::new prevents).
            break;
        }
        // Advance to the earliest completion.
        let (pos, &next_idx) = running
            .iter()
            .enumerate()
            .min_by(|a, b| {
                finish_times[*a.1]
                    .partial_cmp(&finish_times[*b.1])
                    .expect("finite times")
            })
            .expect("running is non-empty");
        now = finish_times[next_idx];
        running.swap_remove(pos);
        finished[next_idx] = true;
        let task = &tasks.tasks()[next_idx];
        for (r, used) in usage.iter_mut().enumerate() {
            *used = (*used - task.demand(r)).max(0.0);
        }
        // Also retire any other task finishing at exactly the same time.
        let mut i = 0;
        while i < running.len() {
            if (finish_times[running[i]] - now).abs() <= EPSILON {
                let idx = running.swap_remove(i);
                finished[idx] = true;
                let t = &tasks.tasks()[idx];
                for (r, used) in usage.iter_mut().enumerate() {
                    *used = (*used - t.demand(r)).max(0.0);
                }
            } else {
                i += 1;
            }
        }
        if finished.iter().all(|&f| f) {
            break;
        }
    }

    ScheduleResult {
        makespan,
        start_times,
        order: order.to_vec(),
        exact: false,
    }
}

/// Upper bound on the instance size for which the optimal list order is found
/// exhaustively (8! = 40 320 orders).
pub const EXHAUSTIVE_LIMIT: usize = 8;

/// Finds the best list schedule: exhaustively for systems of at most
/// [`EXHAUSTIVE_LIMIT`] tasks, otherwise by trying a family of natural
/// heuristic orders (original, longest-first, shortest-first, most-demanding
/// first) and keeping the best.
pub fn optimal_list_schedule(tasks: &TaskSystem) -> ScheduleResult {
    let n = tasks.len();
    if n == 0 {
        return ScheduleResult {
            makespan: 0.0,
            start_times: Vec::new(),
            order: Vec::new(),
            exact: true,
        };
    }
    if n <= EXHAUSTIVE_LIMIT {
        let mut order: Vec<usize> = (0..n).collect();
        let mut best = list_schedule(tasks, &order);
        permute(&mut order, 0, &mut |perm| {
            let candidate = list_schedule(tasks, perm);
            if candidate.makespan < best.makespan - EPSILON {
                best = candidate;
            }
        });
        best.exact = true;
        best
    } else {
        let identity: Vec<usize> = (0..n).collect();
        let mut longest_first = identity.clone();
        longest_first.sort_by(|&a, &b| {
            tasks.tasks()[b]
                .length
                .partial_cmp(&tasks.tasks()[a].length)
                .expect("finite lengths")
        });
        let mut shortest_first = longest_first.clone();
        shortest_first.reverse();
        let mut demanding_first = identity.clone();
        demanding_first.sort_by(|&a, &b| {
            let da: f64 = tasks.tasks()[a].demands.iter().sum();
            let db: f64 = tasks.tasks()[b].demands.iter().sum();
            db.partial_cmp(&da).expect("finite demands")
        });
        let mut best: Option<ScheduleResult> = None;
        for order in [identity, longest_first, shortest_first, demanding_first] {
            let candidate = list_schedule(tasks, &order);
            if best
                .as_ref()
                .map(|b| candidate.makespan < b.makespan - EPSILON)
                .unwrap_or(true)
            {
                best = Some(candidate);
            }
        }
        let mut best = best.expect("at least one candidate order");
        best.exact = false;
        best
    }
}

/// Heap-style permutation enumeration calling `visit` on each permutation.
fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::Task;

    fn system(tasks: Vec<Task>, resources: usize) -> TaskSystem {
        let mut sys = TaskSystem::new(resources);
        for t in tasks {
            sys.push(t);
        }
        sys
    }

    #[test]
    fn independent_tasks_run_fully_in_parallel() {
        let sys = system(
            vec![
                Task::new(1.0, vec![1.0, 0.0, 0.0]),
                Task::new(2.0, vec![0.0, 1.0, 0.0]),
                Task::new(3.0, vec![0.0, 0.0, 1.0]),
            ],
            3,
        );
        let result = list_schedule(&sys, &[0, 1, 2]);
        assert!((result.makespan - 3.0).abs() < 1e-9);
        assert!(result.start_times.iter().all(|&s| s.abs() < 1e-9));
    }

    #[test]
    fn conflicting_tasks_serialize() {
        let sys = system(
            vec![Task::new(1.0, vec![1.0]), Task::new(2.0, vec![1.0])],
            1,
        );
        let result = list_schedule(&sys, &[0, 1]);
        assert!((result.makespan - 3.0).abs() < 1e-9);
        let result = list_schedule(&sys, &[1, 0]);
        assert!((result.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn readers_share_a_resource() {
        // Four readers each demanding a quarter all fit at once.
        let sys = system(
            vec![
                Task::new(1.0, vec![0.25]),
                Task::new(1.0, vec![0.25]),
                Task::new(1.0, vec![0.25]),
                Task::new(1.0, vec![0.25]),
            ],
            1,
        );
        let result = list_schedule(&sys, &[0, 1, 2, 3]);
        assert!((result.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn list_order_matters_and_optimal_finds_the_best() {
        // The paper's chain with s = 3: tasks T0..T3, objects X1..X3.
        // T0 uses X1; T1 uses X1,X2; T2 uses X2,X3; T3 uses X3.
        let sys = system(
            vec![
                Task::new(1.0, vec![1.0, 0.0, 0.0]),
                Task::new(1.0, vec![1.0, 1.0, 0.0]),
                Task::new(1.0, vec![0.0, 1.0, 1.0]),
                Task::new(1.0, vec![0.0, 0.0, 1.0]),
            ],
            3,
        );
        // Even-then-odd is optimal: makespan 2.
        let good = list_schedule(&sys, &[0, 2, 1, 3]);
        assert!((good.makespan - 2.0).abs() < 1e-9);
        let best = optimal_list_schedule(&sys);
        assert!(best.exact);
        assert!((best.makespan - 2.0).abs() < 1e-9);
        // No list order can beat the lower bound.
        assert!(best.makespan + 1e-9 >= sys.makespan_lower_bound());
    }

    #[test]
    fn garey_graham_factor_holds_on_small_instances() {
        // Any list order is within (s + 1) of the optimum.
        let sys = system(
            vec![
                Task::new(1.0, vec![1.0, 0.0]),
                Task::new(2.0, vec![1.0, 1.0]),
                Task::new(1.5, vec![0.0, 1.0]),
                Task::new(0.5, vec![1.0, 0.0]),
            ],
            2,
        );
        let best = optimal_list_schedule(&sys);
        let worst = {
            let mut worst = best.makespan;
            let mut order: Vec<usize> = (0..sys.len()).collect();
            permute(&mut order, 0, &mut |perm| {
                let m = list_schedule(&sys, perm).makespan;
                if m > worst {
                    worst = m;
                }
            });
            worst
        };
        let s = sys.num_resources() as f64;
        assert!(worst <= (s + 1.0) * best.makespan + 1e-9);
    }

    #[test]
    fn heuristic_path_is_used_for_large_instances() {
        let tasks: Vec<Task> = (0..12)
            .map(|i| {
                Task::new(
                    1.0 + (i % 3) as f64,
                    vec![if i % 2 == 0 { 1.0 } else { 0.5 }],
                )
            })
            .collect();
        let sys = system(tasks, 1);
        let result = optimal_list_schedule(&sys);
        assert!(!result.exact);
        assert!(result.makespan >= sys.makespan_lower_bound() - 1e-9);
        assert!(result.makespan <= sys.total_length() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn invalid_order_is_rejected() {
        let sys = system(
            vec![Task::new(1.0, vec![1.0]), Task::new(1.0, vec![0.5])],
            1,
        );
        let _ = list_schedule(&sys, &[0, 0]);
    }

    #[test]
    fn empty_system_has_zero_makespan() {
        let sys = TaskSystem::new(3);
        let result = optimal_list_schedule(&sys);
        assert_eq!(result.makespan, 0.0);
        assert!(result.exact);
    }
}
