//! The workload registry: named synthetic traces organized into the suites
//! the paper evaluates (Table III plus the supplementary GAP and QMM sets).
//!
//! Each named workload stands in for a class of traces the paper uses; the
//! generator parameters are chosen so the class's qualitative memory
//! behaviour (streaming, recurrent footprints, graph traversal, irregular
//! server accesses, ...) is reproduced. Names follow the paper's figures so
//! that reports read the same way.

use sim_core::trace::Trace;

use crate::builder::TraceBuilder;
use crate::graph::{graph_workload, GraphKernel, GraphSpec};
use crate::irregular::{cloud_server, gups, pointer_chase, qmm_client, qmm_server, CloudSpec};
use crate::regions::{phased, region_patterns, stencil_templates, RegionPatternSpec};
use crate::streaming::{reused_stream, streaming, StreamingSpec};

/// Benchmark suite, as in Table III (plus GAP and QMM from §IV-B4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// SPEC CPU2006-like traces.
    Spec06,
    /// SPEC CPU2017-like traces.
    Spec17,
    /// Ligra graph-analytics traces.
    Ligra,
    /// PARSEC 2.1 traces.
    Parsec,
    /// CloudSuite scale-out server traces.
    Cloud,
    /// GAP benchmark traces (supplementary).
    Gap,
    /// Qualcomm CVP-1 industry traces (supplementary).
    Qmm,
}

impl Suite {
    /// The five main suites of Table III.
    pub fn main_suites() -> [Suite; 5] {
        [
            Suite::Spec06,
            Suite::Spec17,
            Suite::Ligra,
            Suite::Parsec,
            Suite::Cloud,
        ]
    }

    /// Every suite, main and supplementary, in report order.
    pub fn all_suites() -> [Suite; 7] {
        [
            Suite::Spec06,
            Suite::Spec17,
            Suite::Ligra,
            Suite::Parsec,
            Suite::Cloud,
            Suite::Gap,
            Suite::Qmm,
        ]
    }

    /// Looks a suite up by its display [`label`](Self::label)
    /// (case-insensitive), e.g. for parsing experiment specs.
    pub fn from_label(label: &str) -> Option<Suite> {
        Suite::all_suites()
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(label))
    }

    /// Display name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Suite::Spec06 => "SPEC06",
            Suite::Spec17 => "SPEC17",
            Suite::Ligra => "Ligra",
            Suite::Parsec => "PARSEC",
            Suite::Cloud => "Cloud",
            Suite::Gap => "GAP",
            Suite::Qmm => "QMM",
        }
    }
}

/// All workload names belonging to `suite`.
pub fn workload_names(suite: Suite) -> Vec<&'static str> {
    match suite {
        Suite::Spec06 => vec![
            "bwaves-06",
            "lbm-06",
            "leslie3d",
            "libquantum",
            "milc",
            "GemsFDTD",
            "cactusADM",
            "mcf-06",
            "soplex",
            "sphinx3",
        ],
        Suite::Spec17 => vec![
            "bwaves_s",
            "lbm_s",
            "roms_s",
            "fotonik3d_s",
            "cactuBSSN_s",
            "wrf_s",
            "cam4_s",
            "pop2_s",
            "mcf_s",
            "omnetpp_s",
            "xalancbmk_s",
            "gcc_s",
        ],
        Suite::Ligra => vec![
            "PageRank",
            "PageRank.D",
            "BFS",
            "BFS-init",
            "BellmanFord",
            "Components",
            "BC",
            "MIS",
            "Triangle",
            "CF",
        ],
        Suite::Parsec => vec!["facesim", "streamcluster", "canneal", "fluidanimate"],
        Suite::Cloud => vec![
            "cassandra",
            "nutch",
            "cloud9",
            "classification",
            "cloud-streaming",
        ],
        Suite::Gap => vec!["pr.twi", "pr.web", "cc.twi", "cc.web", "tc.twi", "tc.web"],
        Suite::Qmm => vec![
            "srv.09",
            "srv.27",
            "srv.46",
            "clt.fp.06",
            "clt.int.01",
            "clt.int.19",
        ],
    }
}

/// All `(suite, name)` pairs in the main evaluation set.
pub fn all_main_workloads() -> Vec<(Suite, &'static str)> {
    Suite::main_suites()
        .into_iter()
        .flat_map(|s| workload_names(s).into_iter().map(move |n| (s, n)))
        .collect()
}

/// Whether `name` is a registered workload [`build_workload`] accepts
/// (any suite's names plus the `gups` microbenchmark).
pub fn is_known_workload(name: &str) -> bool {
    name == "gups"
        || Suite::all_suites()
            .into_iter()
            .any(|s| workload_names(s).contains(&name))
}

/// Builds the named workload as a trace of at least `instructions`
/// instructions per pass: every generator stops at the step that reaches
/// that budget.
///
/// # Panics
///
/// Panics if `name` is not one of the names returned by [`workload_names`].
pub fn build_workload(name: &str, instructions: u64) -> Trace {
    let recs = match name {
        // --- Streaming-dominated SPEC-like workloads ---
        "bwaves-06" | "bwaves_s" => streaming(
            name,
            instructions,
            StreamingSpec {
                streams: 4,
                ..Default::default()
            },
        ),
        "lbm-06" | "lbm_s" => streaming(
            name,
            instructions,
            StreamingSpec {
                streams: 3,
                store_fraction: 0.3,
                ..Default::default()
            },
        ),
        "leslie3d" | "roms_s" => streaming(
            name,
            instructions,
            StreamingSpec {
                streams: 2,
                stride_blocks: 1,
                gap: (4, 10),
                ..Default::default()
            },
        ),
        "libquantum" => streaming(
            name,
            instructions,
            StreamingSpec {
                streams: 1,
                gap: (3, 7),
                ..Default::default()
            },
        ),
        "milc" | "cam4_s" => streaming(
            name,
            instructions,
            StreamingSpec {
                streams: 6,
                stride_blocks: 2,
                gap: (3, 8),
                ..Default::default()
            },
        ),
        // --- Recurrent-footprint / stencil SPEC-like workloads ---
        "fotonik3d_s" | "GemsFDTD" => {
            region_patterns(name, instructions, RegionPatternSpec::default())
        }
        "cactusADM" | "cactuBSSN_s" | "wrf_s" => region_patterns(
            name,
            instructions,
            RegionPatternSpec {
                templates: stencil_templates(),
                regions: 8192,
                ..Default::default()
            },
        ),
        "pop2_s" => phased(name, instructions),
        // --- Irregular SPEC-like workloads ---
        "mcf-06" | "mcf_s" => pointer_chase(name, instructions, 1 << 20, 128),
        "omnetpp_s" => pointer_chase(name, instructions, 1 << 18, 192),
        "xalancbmk_s" => cloud_server(
            name,
            instructions,
            CloudSpec {
                pcs: 192,
                heap_bytes: 12 * 1024 * 1024,
                code_correlated: 0.45,
                ..Default::default()
            },
        ),
        "soplex" | "sphinx3" | "gcc_s" => {
            // Mixed: half recurrent footprints, half irregular.
            let mut b = TraceBuilder::from_name(name);
            let half = region_patterns(name, instructions / 2, RegionPatternSpec::default());
            b.extend(half);
            let rest = instructions.saturating_sub(b.instructions());
            b.extend(pointer_chase(&format!("{name}-irr"), rest, 1 << 19, 64));
            b.into_records()
        }
        // --- Ligra ---
        "PageRank" | "PageRank.D" => graph_workload(name, instructions, GraphSpec::default()),
        "BFS" => graph_workload(
            name,
            instructions,
            GraphSpec {
                kernel: GraphKernel::Bfs,
                frontier_fraction: 0.05,
                ..Default::default()
            },
        ),
        "BFS-init" => graph_workload(
            name,
            instructions,
            GraphSpec {
                kernel: GraphKernel::Bfs,
                init_phase: true,
                ..Default::default()
            },
        ),
        "BellmanFord" | "Components" | "BC" | "MIS" | "CF" => graph_workload(
            name,
            instructions,
            GraphSpec {
                kernel: GraphKernel::FrontierUpdate,
                frontier_fraction: 0.15,
                ..Default::default()
            },
        ),
        "Triangle" => graph_workload(
            name,
            instructions,
            GraphSpec {
                kernel: GraphKernel::Triangle,
                vertices: 80_000,
                avg_degree: 12,
                ..Default::default()
            },
        ),
        // --- PARSEC ---
        "facesim" => streaming(
            name,
            instructions,
            StreamingSpec {
                streams: 5,
                gap: (5, 12),
                ..Default::default()
            },
        ),
        "streamcluster" => reused_stream(name, instructions, 6 * 1024 * 1024),
        "canneal" => pointer_chase(name, instructions, 1 << 21, 96),
        "fluidanimate" => region_patterns(
            name,
            instructions,
            RegionPatternSpec {
                templates: stencil_templates(),
                regions: 2048,
                ..Default::default()
            },
        ),
        // --- CloudSuite ---
        "cassandra" | "nutch" | "cloud9" | "classification" => {
            cloud_server(name, instructions, CloudSpec::default())
        }
        "cloud-streaming" => cloud_server(
            name,
            instructions,
            CloudSpec {
                code_correlated: 0.2,
                hot_fraction: 0.1,
                heap_bytes: 48 * 1024 * 1024,
                ..Default::default()
            },
        ),
        // --- GAP ---
        "pr.twi" | "pr.web" => graph_workload(
            name,
            instructions,
            GraphSpec {
                vertices: 400_000,
                avg_degree: 10,
                ..Default::default()
            },
        ),
        "cc.twi" | "cc.web" => graph_workload(
            name,
            instructions,
            GraphSpec {
                kernel: GraphKernel::FrontierUpdate,
                vertices: 400_000,
                avg_degree: 10,
                frontier_fraction: 0.2,
                ..Default::default()
            },
        ),
        "tc.twi" | "tc.web" => graph_workload(
            name,
            instructions,
            GraphSpec {
                kernel: GraphKernel::Triangle,
                vertices: 150_000,
                avg_degree: 14,
                ..Default::default()
            },
        ),
        // --- QMM ---
        "srv.09" | "srv.27" | "srv.46" => qmm_server(name, instructions),
        "clt.fp.06" => qmm_client(name, instructions, 1),
        "clt.int.01" | "clt.int.19" => qmm_client(name, instructions, 2),
        // --- Extra microbenchmarks usable from examples/tests ---
        "gups" => gups(name, instructions, 1 << 30),
        other => panic!("unknown workload '{other}'"),
    };
    Trace::new(name, recs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_workload_builds() {
        for suite in [
            Suite::Spec06,
            Suite::Spec17,
            Suite::Ligra,
            Suite::Parsec,
            Suite::Cloud,
            Suite::Gap,
            Suite::Qmm,
        ] {
            for name in workload_names(suite) {
                let trace = build_workload(name, 2_000);
                assert!(
                    trace.instructions_per_pass() >= 2_000,
                    "{name} produced only {} instructions",
                    trace.instructions_per_pass()
                );
                assert_eq!(trace.name(), name);
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build_workload("cassandra", 3_000);
        let b = build_workload("cassandra", 3_000);
        assert_eq!(a, b);
    }

    #[test]
    fn main_evaluation_set_covers_all_five_suites() {
        let all = all_main_workloads();
        assert!(
            all.len() >= 35,
            "expected a few dozen main workloads, got {}",
            all.len()
        );
        for suite in Suite::main_suites() {
            assert!(all.iter().any(|(s, _)| *s == suite));
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        let _ = build_workload("not-a-workload", 100);
    }

    #[test]
    fn suite_labels_are_stable() {
        assert_eq!(Suite::Spec17.label(), "SPEC17");
        assert_eq!(Suite::Cloud.label(), "Cloud");
    }

    #[test]
    fn suites_resolve_from_labels() {
        for suite in Suite::all_suites() {
            assert_eq!(Suite::from_label(suite.label()), Some(suite));
            assert_eq!(
                Suite::from_label(&suite.label().to_lowercase()),
                Some(suite)
            );
        }
        assert_eq!(Suite::from_label("NotASuite"), None);
    }

    #[test]
    fn workload_registry_membership_is_checkable() {
        assert!(is_known_workload("bwaves_s"));
        assert!(is_known_workload("PageRank"));
        assert!(is_known_workload("gups"));
        assert!(!is_known_workload("not-a-workload"));
    }
}
