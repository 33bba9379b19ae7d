//! Simulation results.

/// One scheduled task in the simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTask {
    /// The block the task processed.
    pub block: usize,
    /// The node it ran on.
    pub node: usize,
    /// Start time, seconds from simulation start.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Whether the block was local to the node.
    pub local: bool,
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Completion time of the last task, seconds.
    pub makespan: f64,
    /// Busy core-seconds accumulated per node (a node with `c` cores can
    /// accumulate up to `c x makespan`).
    pub node_busy: Vec<f64>,
    /// Cores per node, used to normalise utilisation.
    pub cores_per_node: usize,
    /// Every scheduled task.
    pub tasks: Vec<SimTask>,
}

impl SimReport {
    /// Number of tasks that read their block locally.
    pub fn local_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.local).count()
    }

    /// Number of tasks that read over the network.
    pub fn remote_tasks(&self) -> usize {
        self.tasks.len() - self.local_tasks()
    }

    /// Nodes that executed at least one task.
    pub fn busy_nodes(&self) -> usize {
        self.node_busy.iter().filter(|&&b| b > 0.0).count()
    }

    /// Nodes that never ran anything — the paper's "remaining four nodes
    /// were idle".
    pub fn idle_nodes(&self) -> usize {
        self.node_busy.len() - self.busy_nodes()
    }

    /// Mean *core* utilisation over the makespan, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.node_busy.is_empty() || self.cores_per_node == 0 {
            return 0.0;
        }
        let total_busy: f64 = self.node_busy.iter().sum();
        total_busy / (self.makespan * self.node_busy.len() as f64 * self.cores_per_node as f64)
    }

    /// Busy seconds of the busiest node.
    pub fn max_node_busy(&self) -> f64 {
        self.node_busy.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: 10.0,
            node_busy: vec![10.0, 5.0, 0.0, 0.0],
            cores_per_node: 1,
            tasks: vec![
                SimTask {
                    block: 0,
                    node: 0,
                    start: 0.0,
                    end: 10.0,
                    local: true,
                },
                SimTask {
                    block: 1,
                    node: 1,
                    start: 0.0,
                    end: 5.0,
                    local: false,
                },
            ],
        }
    }

    #[test]
    fn locality_counts() {
        let r = report();
        assert_eq!(r.local_tasks(), 1);
        assert_eq!(r.remote_tasks(), 1);
    }

    #[test]
    fn busy_and_idle_nodes() {
        let r = report();
        assert_eq!(r.busy_nodes(), 2);
        assert_eq!(r.idle_nodes(), 2);
    }

    #[test]
    fn utilization_is_mean_over_makespan() {
        let r = report();
        assert!((r.utilization() - 15.0 / 40.0).abs() < 1e-12);
        assert_eq!(r.max_node_busy(), 10.0);
        let two_cores = SimReport {
            cores_per_node: 2,
            ..r
        };
        assert!((two_cores.utilization() - 15.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_report() {
        let r = SimReport {
            makespan: 0.0,
            node_busy: vec![],
            cores_per_node: 1,
            tasks: vec![],
        };
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.busy_nodes(), 0);
    }
}
