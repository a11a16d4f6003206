//! Property tests for the experiment-spec text format.
//!
//! A deterministic LCG drives the generation of random — but valid —
//! specs across every table kind; each must survive a full
//! `to_text → parse` round trip bit-identically (the format is the
//! contract for user spec files, served specs and the built-ins). The
//! rejection tests pin the "loud failure" contract: unknown axes,
//! prefetchers, metrics, suites, workloads and malformed structure are
//! parse errors, never silent fallbacks.

use gaze_sim::spec::text::{parse, to_text};
use gaze_sim::spec::{
    validate, ConfigAxis, Entry, ExperimentSpec, Metric, MixDef, MultiLevelRow, SummaryCol,
    SweepPoint, TableKind, TableSpec, TraceSel,
};
use workloads::Suite;

/// A tiny deterministic LCG (same constants as the workspace RNG tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

const PREFETCHERS: [&str; 10] = [
    "gaze",
    "pmp",
    "vberti",
    "bingo",
    "dspatch",
    "sms",
    "spp-ppf",
    "ip-stride",
    "vgaze-16",
    "gaze-pht-512",
];
const WORKLOADS: [&str; 6] = [
    "bwaves_s",
    "mcf_s",
    "PageRank",
    "cassandra",
    "facesim",
    "lbm_s",
];
const LABEL_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.()-";

fn label(rng: &mut Lcg) -> String {
    // 1-3 words of 1-8 label characters, single-space separated: never
    // empty, never leading/trailing whitespace, never containing " = ".
    let words = 1 + rng.below(3);
    (0..words)
        .map(|_| {
            let len = 1 + rng.below(8);
            (0..len)
                .map(|_| LABEL_CHARS[rng.below(LABEL_CHARS.len())] as char)
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn entry(rng: &mut Lcg, allow_multi_level: bool) -> Entry {
    let name = if allow_multi_level && rng.below(4) == 0 {
        format!(
            "{}+{}",
            rng.pick(&PREFETCHERS[..8]),
            rng.pick(&PREFETCHERS[..8])
        )
    } else {
        rng.pick(&PREFETCHERS).to_string()
    };
    if rng.flag() {
        Entry {
            label: name.clone(),
            name,
        }
    } else {
        Entry {
            label: label(rng),
            name,
        }
    }
}

fn entries(rng: &mut Lcg, allow_multi_level: bool) -> Vec<Entry> {
    (0..1 + rng.below(4))
        .map(|_| entry(rng, allow_multi_level))
        .collect()
}

fn traces(rng: &mut Lcg) -> TraceSel {
    match rng.below(5) {
        0 => TraceSel::MainSuites,
        1 => TraceSel::Mix,
        2 => TraceSel::Streaming,
        3 => {
            let all = Suite::all_suites();
            let n = 1 + rng.below(3);
            TraceSel::Suites((0..n).map(|_| *rng.pick(&all)).collect())
        }
        _ => {
            let n = 1 + rng.below(4);
            TraceSel::List((0..n).map(|_| rng.pick(&WORKLOADS).to_string()).collect())
        }
    }
}

fn metric(rng: &mut Lcg) -> Metric {
    *rng.pick(&[
        Metric::Speedup,
        Metric::Accuracy,
        Metric::Coverage,
        Metric::Late,
    ])
}

fn table_kind(rng: &mut Lcg, which: usize) -> TableKind {
    match which {
        0 => TableKind::TraceGroupMeans {
            row_header: label(rng),
            metric: metric(rng),
            rows: entries(rng, false),
            groups: (0..1 + rng.below(3))
                .map(|_| (label(rng), traces(rng)))
                .collect(),
            with_storage: rng.flag(),
        },
        1 => TableKind::VariantSummary {
            row_header: label(rng),
            traces: traces(rng),
            rows: entries(rng, true),
            columns: (0..1 + rng.below(4))
                .map(|_| SummaryCol {
                    header: label(rng),
                    metric: metric(rng),
                    base: rng.flag().then(|| entry(rng, true).name),
                })
                .collect(),
        },
        2 => TableKind::WorkloadRows {
            traces: traces(rng),
            metric: metric(rng),
            rows: entries(rng, true),
            normalize_to_first: rng.flag(),
            avg_label: rng.flag().then(|| label(rng)),
        },
        3 => TableKind::SuiteSections {
            traces: if rng.flag() {
                TraceSel::MainSuites
            } else {
                TraceSel::Suites(vec![*rng.pick(&Suite::all_suites())])
            },
            metric: metric(rng),
            rows: entries(rng, true),
        },
        4 => TableKind::MultiLevel {
            traces: traces(rng),
            rows: (0..1 + rng.below(5))
                .map(|_| MultiLevelRow {
                    group: label(rng),
                    l1: rng.pick(&PREFETCHERS[..8]).to_string(),
                    l2: rng.flag().then(|| rng.pick(&PREFETCHERS[..8]).to_string()),
                })
                .collect(),
        },
        5 => TableKind::MulticoreScaling {
            traces: traces(rng),
            rows: entries(rng, false),
            cores: (0..1 + rng.below(3)).map(|_| 1 + rng.below(8)).collect(),
        },
        6 => TableKind::MixPerCore {
            mixes: {
                let cores = 1 + rng.below(4);
                (0..1 + rng.below(3))
                    .map(|_| MixDef {
                        name: label(rng),
                        workloads: (0..cores)
                            .map(|_| rng.pick(&WORKLOADS).to_string())
                            .collect(),
                    })
                    .collect()
            },
            rows: entries(rng, false),
        },
        7 => TableKind::ConfigSweep {
            traces: traces(rng),
            metric: metric(rng),
            axis: *rng.pick(&[ConfigAxis::DramMtps, ConfigAxis::LlcMb, ConfigAxis::L2Kb]),
            points: (0..1 + rng.below(4))
                .map(|_| SweepPoint {
                    label: label(rng),
                    value: (1 + rng.below(4096)) as f64 / 2.0,
                })
                .collect(),
            rows: entries(rng, true),
        },
        8 => TableKind::StorageBreakdown,
        _ => TableKind::StorageList {
            rows: entries(rng, false),
        },
    }
}

#[test]
fn random_specs_round_trip_bit_identically() {
    let mut rng = Lcg(0x5eed_5eed_5eed_5eed);
    for case in 0..200usize {
        let tables = (0..1 + rng.below(3))
            .map(|_| TableSpec {
                title: label(&mut rng),
                kind: table_kind(&mut rng, case % 10),
            })
            .collect();
        let spec = ExperimentSpec {
            name: format!("random-{case}"),
            tables,
        };
        validate(&spec).unwrap_or_else(|e| panic!("case {case}: generated spec invalid: {e}"));
        let text = to_text(&spec);
        let parsed =
            parse(&text).unwrap_or_else(|e| panic!("case {case}: re-parse failed: {e}\n{text}"));
        assert_eq!(parsed, spec, "case {case}: round trip diverged\n{text}");
        // The canonical form is a fixed point: render(parse(render(s)))
        // == render(s).
        assert_eq!(to_text(&parsed), text, "case {case}");
    }
}

#[test]
fn rejections_are_loud_for_every_axis_of_the_format() {
    let template = |body: &str| format!("spec t\n\ntable\ntitle t\n{body}\nend\n");
    let cases: &[(&str, &str)] = &[
        // Unknown kind; the error lists the valid ones.
        ("kind frobnicate", "unknown table kind"),
        ("kind frobnicate", "trace-group-means|variant-summary|workload-rows"),
        // Kinds folded into trace-group-means and variant-summary.
        (
            "kind suite-summary\nrow-header p\nmetric speedup\nrow gaze",
            "unknown table kind",
        ),
        (
            "kind avg-column\nrow-header p\nmetric late\nrow gaze",
            "unknown table kind",
        ),
        (
            "kind normalized-variants\nrow-header p\ntraces mix\nmetric speedup\nrow gaze",
            "unknown table kind",
        ),
        // Variant-summary columns take a metric and an optional base.
        (
            "kind variant-summary\nrow-header p\ntraces mix\ncolumn x = speedup-norm-first\nrow gaze",
            "unknown metric",
        ),
        (
            "kind variant-summary\nrow-header p\ntraces mix\ncolumn x = speedup / not-a-prefetcher\nrow gaze",
            "unknown prefetcher",
        ),
        // Unknown metric.
        (
            "kind workload-rows\ntraces mix\nmetric latency\nrow gaze",
            "unknown metric",
        ),
        // Unknown axis.
        (
            "kind config-sweep\ntraces mix\nmetric speedup\naxis rob\npoint a = 1\nrow gaze",
            "unknown config axis",
        ),
        // Unknown prefetcher.
        (
            "kind workload-rows\ntraces mix\nmetric speedup\nrow warp-drive",
            "unknown prefetcher",
        ),
        // Unknown workload in an explicit list.
        (
            "kind workload-rows\ntraces list:nope\nmetric speedup\nrow gaze",
            "unknown workload",
        ),
        // Unknown suite.
        (
            "kind workload-rows\ntraces suites:SPEC95\nmetric speedup\nrow gaze",
            "unknown suite",
        ),
        // Unknown trace selection.
        (
            "kind workload-rows\ntraces everything\nmetric speedup\nrow gaze",
            "unknown trace selection",
        ),
        // Core counts beyond the store's mix format.
        (
            "kind multicore-scaling\ntraces mix\ncores 12\nrow gaze",
            "out of range",
        ),
        // Mixed-core-count mixes.
        (
            "kind mix-per-core\nmixdef a = bwaves_s,mcf_s\nmixdef b = bwaves_s\nrow gaze",
            "share a core count",
        ),
        // A directive that does not belong to the kind.
        ("kind storage-list\nrow gaze\naxis l2-kb", "does not apply"),
        // Three-level combinations.
        (
            "kind workload-rows\ntraces mix\nmetric speedup\nrow gaze+bingo+pmp",
            "at most one L2",
        ),
    ];
    for (body, expect) in cases {
        let text = template(body);
        let err = parse(&text).expect_err(body);
        assert!(
            err.contains(expect),
            "'{body}' should fail with '{expect}', got: {err}"
        );
    }
}

#[test]
fn builtins_survive_a_disk_round_trip() {
    // Write every built-in spec to a file and read it back through the
    // same path user spec files take.
    let dir = std::env::temp_dir().join(format!("gzr-specfmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in gaze_sim::spec::builtin::builtin_names() {
        let spec = gaze_sim::spec::builtin::builtin_spec(name).expect("registered");
        let path = dir.join(format!("{name}.spec"));
        std::fs::write(&path, to_text(&spec)).expect("write spec");
        let read = std::fs::read_to_string(&path).expect("read spec");
        assert_eq!(parse(&read).expect("parse"), spec, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
