//! Graph-analytics workload generators (Ligra / GAP-like).
//!
//! The generators build a synthetic CSR graph with a skewed degree
//! distribution and then emit the access stream a vertex-centric framework
//! produces: a sequential sweep over the frontier, sequential bursts through
//! each vertex's neighbor list, and scattered accesses into the per-vertex
//! property array — i.e. exactly the interleaving of spatial streaming and
//! irregular accesses the paper's Fig. 5 motivates the streaming module with.

use crate::builder::TraceBuilder;
use sim_core::trace::TraceRecord;

/// A synthetic graph in CSR form.
#[derive(Debug, Clone)]
pub struct SyntheticGraph {
    /// Per-vertex start index into `neighbors`.
    pub row_ptr: Vec<u64>,
    /// Flattened adjacency lists.
    pub neighbors: Vec<u64>,
}

impl SyntheticGraph {
    /// Builds a graph with `vertices` vertices and roughly `avg_degree`
    /// neighbors per vertex, with a skewed (hub-heavy) degree distribution.
    pub fn build(seed: u64, vertices: u64, avg_degree: u64) -> Self {
        let mut rng = TraceBuilder::new(seed).rng().clone();
        let mut row_ptr = Vec::with_capacity(vertices as usize + 1);
        let mut neighbors = Vec::new();
        row_ptr.push(0);
        for v in 0..vertices {
            // Hubs: 2% of vertices get 8x the average degree.
            let degree = if v % 50 == 0 {
                avg_degree * 8
            } else {
                rng.gen_range(1..=avg_degree * 2)
            };
            for _ in 0..degree {
                neighbors.push(rng.gen_range(0..vertices));
            }
            row_ptr.push(neighbors.len() as u64);
        }
        SyntheticGraph { row_ptr, neighbors }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u64 {
        (self.row_ptr.len() - 1) as u64
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> u64 {
        self.neighbors.len() as u64
    }
}

/// Which graph kernel to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKernel {
    /// Breadth-first search: sparse frontier, pull/push over neighbors.
    Bfs,
    /// PageRank: dense sweep over all vertices every iteration.
    PageRank,
    /// Bellman-Ford / Components / BC style: frontier-driven with property
    /// updates (stores).
    FrontierUpdate,
    /// Triangle counting: per-vertex pairwise neighbor-list intersections.
    Triangle,
}

/// Parameters of a graph workload.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Kernel to emulate.
    pub kernel: GraphKernel,
    /// Number of vertices.
    pub vertices: u64,
    /// Average degree.
    pub avg_degree: u64,
    /// Fraction of vertices in the frontier each iteration (BFS-like kernels).
    pub frontier_fraction: f64,
    /// Emit an initial data-preparation (streaming) phase first, as the
    /// paper observes for Ligra's initial-phase traces.
    pub init_phase: bool,
}

impl Default for GraphSpec {
    fn default() -> Self {
        GraphSpec {
            kernel: GraphKernel::PageRank,
            vertices: 200_000,
            avg_degree: 8,
            frontier_fraction: 0.08,
            init_phase: false,
        }
    }
}

const GRAPH_BASE: u64 = 0x10_0000_0000;
const ROW_PTR_BASE: u64 = GRAPH_BASE;
const NEIGHBOR_BASE: u64 = GRAPH_BASE + 0x4000_0000;
const PROPERTY_BASE: u64 = GRAPH_BASE + 0x8000_0000;
const FRONTIER_BASE: u64 = GRAPH_BASE + 0xc000_0000;

/// Generates a graph-analytics trace of at least `instructions`
/// instructions; the optional initial phase is the first third of them.
pub fn graph_workload(name: &str, instructions: u64, spec: GraphSpec) -> Vec<TraceRecord> {
    let mut b = TraceBuilder::from_name(name);
    let graph = SyntheticGraph::build(0x9e37 ^ name.len() as u64, spec.vertices, spec.avg_degree);

    if spec.init_phase {
        // Data preparation: sequentially write the property and frontier
        // arrays (pure spatial streaming).
        let mut i = 0u64;
        while b.instructions() < instructions / 3 {
            b.store(0x60_0000, PROPERTY_BASE + (i * 8) % (spec.vertices * 8), 2);
            b.load(0x60_0010, FRONTIER_BASE + (i * 4) % (spec.vertices * 4), 1);
            i += 1;
        }
    }

    let mut frontier_cursor = 0u64;
    while b.instructions() < instructions {
        // 1. Read the next frontier element (sequential sweep).
        let vertex = match spec.kernel {
            GraphKernel::PageRank | GraphKernel::Triangle => frontier_cursor % spec.vertices,
            _ => {
                // Sparse frontier: jump pseudo-randomly between active vertices.
                let step = (1.0 / spec.frontier_fraction.max(0.001)) as u64;
                (frontier_cursor * step + b.rng().gen_range(0..step.max(1))) % spec.vertices
            }
        };
        b.load_jittered(0x61_0000, FRONTIER_BASE + frontier_cursor * 4, 2, 5);
        frontier_cursor += 1;

        // 2. Read the row pointer for this vertex.
        b.load(0x61_0008, ROW_PTR_BASE + vertex * 8, 1);

        // 3. Walk the neighbor list (a short sequential burst at an
        //    irregular base address).
        let start = graph.row_ptr[vertex as usize];
        let end = graph.row_ptr[vertex as usize + 1];
        let degree = (end - start).min(64);
        for e in 0..degree {
            if b.instructions() >= instructions {
                break;
            }
            b.load(0x61_0010, NEIGHBOR_BASE + (start + e) * 8, 1);
            // 4. Access the neighbor's property (scattered).
            let neighbor = graph.neighbors[(start + e) as usize];
            match spec.kernel {
                GraphKernel::FrontierUpdate => {
                    b.store(0x61_0020, PROPERTY_BASE + neighbor * 8, 2);
                }
                GraphKernel::Triangle => {
                    // Intersect: also walk a prefix of the neighbor's list.
                    let nb_start = graph.row_ptr[neighbor as usize];
                    b.load(0x61_0030, NEIGHBOR_BASE + nb_start * 8, 1);
                }
                _ => {
                    b.load(0x61_0020, PROPERTY_BASE + neighbor * 8, 2);
                }
            }
        }
    }
    b.into_records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::addr::RegionGeometry;

    #[test]
    fn graph_construction_is_deterministic() {
        let a = SyntheticGraph::build(7, 1000, 8);
        let c = SyntheticGraph::build(7, 1000, 8);
        assert_eq!(a.row_ptr, c.row_ptr);
        assert_eq!(a.neighbors, c.neighbors);
        assert_eq!(a.vertex_count(), 1000);
        assert!(a.edge_count() > 4000);
    }

    #[test]
    fn workload_mixes_streaming_and_irregular_accesses() {
        let recs = graph_workload("pr", 50_000, GraphSpec::default());
        let geom = RegionGeometry::gaze_default();
        // Property-array accesses land in many distinct regions (irregular),
        // neighbor-list accesses reuse regions densely (streaming-like).
        let property_regions: std::collections::BTreeSet<u64> = recs
            .iter()
            .filter(|r| r.addr.raw() >= PROPERTY_BASE && r.addr.raw() < FRONTIER_BASE)
            .map(|r| geom.region_of(r.addr).raw())
            .collect();
        assert!(
            property_regions.len() > 200,
            "scattered property accesses expected"
        );
        let frontier_count = recs
            .iter()
            .filter(|r| r.addr.raw() >= FRONTIER_BASE)
            .count();
        assert!(
            frontier_count > 400,
            "the frontier sweep must be present ({frontier_count} accesses)"
        );
    }

    #[test]
    fn init_phase_emits_sequential_stores() {
        let spec = GraphSpec {
            init_phase: true,
            ..Default::default()
        };
        let recs = graph_workload("bfs-init", 30_000, spec);
        let stores = recs.iter().take(3000).filter(|r| r.is_store).count();
        assert!(stores > 1000, "the initial phase is store-heavy streaming");
    }

    #[test]
    fn bfs_frontier_is_sparser_than_pagerank() {
        let bfs = graph_workload(
            "bfs",
            15_000,
            GraphSpec {
                kernel: GraphKernel::Bfs,
                frontier_fraction: 0.05,
                ..Default::default()
            },
        );
        let pr = graph_workload("pr", 15_000, GraphSpec::default());
        // PageRank touches vertices 0,1,2,... consecutively; BFS skips.
        let first_vertices = |recs: &[TraceRecord]| -> Vec<u64> {
            recs.iter()
                .filter(|r| r.addr.raw() >= ROW_PTR_BASE && r.addr.raw() < NEIGHBOR_BASE)
                .take(50)
                .map(|r| (r.addr.raw() - ROW_PTR_BASE) / 8)
                .collect()
        };
        let bfs_v = first_vertices(&bfs);
        let pr_v = first_vertices(&pr);
        let bfs_gaps: u64 = bfs_v.windows(2).map(|w| w[1].abs_diff(w[0])).sum();
        let pr_gaps: u64 = pr_v.windows(2).map(|w| w[1].abs_diff(w[0])).sum();
        assert!(
            bfs_gaps > pr_gaps,
            "BFS vertex ids must be sparser ({bfs_gaps} vs {pr_gaps})"
        );
    }

    #[test]
    fn triangle_counting_reads_two_neighbor_lists() {
        let recs = graph_workload(
            "tc",
            10_000,
            GraphSpec {
                kernel: GraphKernel::Triangle,
                ..Default::default()
            },
        );
        let pc_set: std::collections::BTreeSet<u64> = recs.iter().map(|r| r.pc).collect();
        assert!(
            pc_set.contains(&0x61_0030),
            "triangle kernel touches the second adjacency list"
        );
    }
}
