//! Cluster description: nodes, cores, I/O rates, block placement.

/// Static description of a cluster.
///
/// The default mirrors the paper's testbed: six nodes, each with two
/// 10-core CPUs, connected by a 1 Gb link; disks are standard RAID.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Cores per node (parallel tasks a node can run).
    pub cores_per_node: usize,
    /// Sequential local-disk read throughput, bytes/second.
    pub disk_bytes_per_sec: f64,
    /// Network throughput for remote block reads, bytes/second.
    pub network_bytes_per_sec: f64,
    /// Task-locality policy of the scheduler.
    pub locality: LocalityPolicy,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 6,
            cores_per_node: 20,
            disk_bytes_per_sec: 150.0e6,
            // 1 Gb/s link ≈ 125 MB/s, shared.
            network_bytes_per_sec: 125.0e6,
            locality: LocalityPolicy::Strict,
        }
    }
}

/// How far a task may run from its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalityPolicy {
    /// Tasks run only on nodes holding a replica of their block — the
    /// behaviour the paper observed (computation stuck on the nodes that
    /// had the data).
    Strict,
    /// Any node may run any task; non-local reads pay the network rate.
    Relaxed,
}

/// One input block (HDFS-block analogue): its payload and which nodes
/// hold replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Stable identifier (index into the workload).
    pub id: usize,
    /// Payload size in bytes (drives read time).
    pub size_bytes: u64,
    /// Number of JSON records in the block (drives CPU time).
    pub records: u64,
    /// Nodes holding a replica. Never empty.
    pub replicas: Vec<usize>,
}

/// Replica-placement strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All replicas of every block on one node (plus `replication - 1`
    /// copies on the following nodes) — the accidental placement the
    /// paper hit when loading the dataset into HDFS from one machine.
    SingleNode {
        /// The node that ingested the data.
        node: usize,
        /// Replication factor (≥ 1).
        replication: usize,
    },
    /// Block *i* starts at node `i mod nodes`, replicas on the following
    /// nodes — the balanced placement the manual partitioning achieves.
    RoundRobin {
        /// Replication factor (≥ 1).
        replication: usize,
    },
}

impl Placement {
    /// Compute the replica node list for block `index` on a cluster of
    /// `nodes` nodes.
    pub fn replicas_for(&self, index: usize, nodes: usize) -> Vec<usize> {
        let nodes = nodes.max(1);
        match *self {
            Placement::SingleNode { node, replication } => {
                let r = replication.clamp(1, nodes);
                (0..r).map(|k| (node + k) % nodes).collect()
            }
            Placement::RoundRobin { replication } => {
                let r = replication.clamp(1, nodes);
                (0..r).map(|k| (index + k) % nodes).collect()
            }
        }
    }

    /// Build blocks from `(size_bytes, records)` pairs under this
    /// placement.
    pub fn place(&self, payloads: &[(u64, u64)], nodes: usize) -> Vec<Block> {
        payloads
            .iter()
            .enumerate()
            .map(|(id, &(size_bytes, records))| Block {
                id,
                size_bytes,
                records,
                replicas: self.replicas_for(id, nodes),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let spec = ClusterSpec::default();
        assert_eq!(spec.nodes, 6);
        assert_eq!(spec.cores_per_node, 20);
    }

    #[test]
    fn single_node_placement_concentrates_replicas() {
        let p = Placement::SingleNode {
            node: 2,
            replication: 2,
        };
        for i in 0..10 {
            assert_eq!(p.replicas_for(i, 6), vec![2, 3]);
        }
    }

    #[test]
    fn round_robin_spreads_replicas() {
        let p = Placement::RoundRobin { replication: 3 };
        assert_eq!(p.replicas_for(0, 6), vec![0, 1, 2]);
        assert_eq!(p.replicas_for(5, 6), vec![5, 0, 1]);
    }

    #[test]
    fn replication_is_clamped_to_cluster_size() {
        let p = Placement::RoundRobin { replication: 10 };
        assert_eq!(p.replicas_for(0, 3).len(), 3);
        let p = Placement::SingleNode {
            node: 0,
            replication: 0,
        };
        assert_eq!(p.replicas_for(0, 3), vec![0]);
    }

    #[test]
    fn place_assigns_ids_and_payloads() {
        let p = Placement::RoundRobin { replication: 1 };
        let blocks = p.place(&[(100, 10), (200, 20)], 4);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].id, 0);
        assert_eq!(blocks[1].size_bytes, 200);
        assert_eq!(blocks[1].replicas, vec![1]);
    }
}
