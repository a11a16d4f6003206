//! Seeded workload inputs: the spec text each `sim-*` workload runs and
//! the request stream `serve-warm` replays. The program under test
//! receives only what these functions generate.
//!
//! Seed 0 reproduces the paper figures' own choices: fig06's quick trace
//! selection (the first two workloads of each main suite) and fig15's
//! Table VI mixes. Every other seed draws a different selection whose
//! cost matches seed 0's, so that the spread of results across seeds
//! measures the program, not the luck of the draw.

use workloads::{workload_names, Suite};

/// Seed reserved for confirming a claimed gain: tune on any other seed,
/// then confirm on this one.
pub const HELD_OUT_SEED: u64 = 7919;

/// Prefetchers of the four-core mixes (fig15's rows); each mix also runs
/// the shared `none` baseline.
pub use gaze_sim::HEAD_TO_HEAD as MIX_PREFETCHERS;
/// Prefetchers of the single-core sweep (fig06's rows).
pub use gaze_sim::MAIN_PREFETCHERS as SINGLE_PREFETCHERS;

/// Spec names as served from the spec directory.
pub const SINGLE_SPEC: &str = "perfbench-single";
/// See [`SINGLE_SPEC`].
pub const MIX_SPEC: &str = "perfbench-mix";

/// Relative host cost of each main-suite workload, measured once on a
/// 2-CPU x86-64 host: milliseconds to simulate the nine
/// `SINGLE_PREFETCHERS` plus `none` serially at quick budgets, and
/// microseconds to build and fingerprint its quick trace (the work a warm
/// figure request repeats). Used only to keep seeded selections as costly
/// as seed 0's; the exact values do not matter.
const COST: [(&str, u32, u32); 41] = [
    ("bwaves-06", 507, 150),
    ("lbm-06", 316, 190),
    ("leslie3d", 201, 150),
    ("libquantum", 194, 150),
    ("milc", 254, 150),
    ("GemsFDTD", 464, 170),
    ("cactusADM", 385, 170),
    ("mcf-06", 72, 180),
    ("soplex", 382, 320),
    ("sphinx3", 382, 320),
    ("bwaves_s", 445, 150),
    ("lbm_s", 294, 190),
    ("roms_s", 186, 260),
    ("fotonik3d_s", 447, 330),
    ("cactuBSSN_s", 358, 250),
    ("wrf_s", 371, 250),
    ("cam4_s", 242, 170),
    ("pop2_s", 144, 250),
    ("mcf_s", 67, 190),
    ("omnetpp_s", 50, 180),
    ("xalancbmk_s", 100, 250),
    ("gcc_s", 383, 340),
    ("PageRank", 349, 5070),
    ("PageRank.D", 343, 4760),
    ("BFS", 414, 4740),
    ("BFS-init", 297, 4820),
    ("BellmanFord", 208, 4720),
    ("Components", 170, 4790),
    ("BC", 166, 4820),
    ("MIS", 179, 4730),
    ("Triangle", 338, 2630),
    ("CF", 162, 4790),
    ("facesim", 156, 150),
    ("streamcluster", 175, 130),
    ("canneal", 64, 180),
    ("fluidanimate", 432, 170),
    ("cassandra", 117, 250),
    ("nutch", 115, 270),
    ("cloud9", 123, 280),
    ("classification", 101, 240),
    ("cloud-streaming", 93, 210),
];

/// A pair is eligible when its simulation cost is within this share of
/// seed 0's pair...
const SIM_TOLERANCE: f64 = 0.05;
/// ...and its trace-build cost within this many microseconds of it.
const BUILD_TOLERANCE_US: u32 = 400;

/// (simulation ms, build µs) of a set of workloads.
fn cost(names: &[&str]) -> (u32, u32) {
    names.iter().fold((0, 0), |(sim, build), name| {
        let (_, s, b) = COST
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no cost entry for workload {name}"));
        (sim + s, build + b)
    })
}

fn cost_matches(candidate: &[&str], target: &[&str]) -> bool {
    let (sim, build) = cost(candidate);
    let (target_sim, target_build) = cost(target);
    (f64::from(sim) - f64::from(target_sim)).abs() <= SIM_TOLERANCE * f64::from(target_sim)
        && build.abs_diff(target_build) <= BUILD_TOLERANCE_US
}

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and one input `stream`, so the workloads'
    /// draws do not depend on each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The `sim-single` workloads: two per main suite. Seed 0 takes each
/// suite's first two (fig06 at quick scale); other seeds take a random
/// pair among those whose cost matches that pair's.
pub fn single_workloads(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for suite in Suite::main_suites() {
        let names = workload_names(suite);
        let mut pairs = Vec::new();
        for i in 0..names.len() {
            for j in i + 1..names.len() {
                if cost_matches(&[names[i], names[j]], &names[..2]) {
                    pairs.push([names[i], names[j]]);
                }
            }
        }
        let pair = if seed == 0 {
            pairs[0]
        } else {
            pairs[rng.below(pairs.len())]
        };
        out.extend(pair.iter().map(|n| n.to_string()));
    }
    out
}

/// The `sim-mix` mixes: five four-core mixes in fig15's shape. Seed 0 is
/// Table VI; other seeds deal Table VI's twenty core slots out again in
/// seeded order, so every seed simulates the same workloads (and builds
/// the same traces) in different combinations.
pub fn mixes(seed: u64) -> Vec<(String, Vec<String>)> {
    let table_vi = gaze_sim::spec::builtin::table_vi_mixes();
    let mut slots: Vec<String> = table_vi.iter().flat_map(|m| m.workloads.clone()).collect();
    if seed != 0 {
        Rng::new(seed, 2).shuffle(&mut slots);
    }
    table_vi
        .iter()
        .zip(slots.chunks(4))
        .map(|(m, chunk)| (m.name.clone(), chunk.to_vec()))
        .collect()
}

/// Which simulation sweep a `sim-*` workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `sim-single`: the nine main prefetchers over ten workloads.
    Single,
    /// `sim-mix`: the head-to-head prefetchers over five four-core mixes.
    Mix,
}

impl Sweep {
    /// The distinct workloads the sweep's spec touches, in first-use
    /// order.
    pub fn workloads(self, seed: u64) -> Vec<String> {
        match self {
            Sweep::Single => single_workloads(seed),
            Sweep::Mix => {
                let mut out: Vec<String> = Vec::new();
                for (_, ws) in mixes(seed) {
                    for w in ws {
                        if !out.contains(&w) {
                            out.push(w);
                        }
                    }
                }
                out
            }
        }
    }

    /// The prefetchers the sweep compares (without `none`).
    pub fn prefetchers(self) -> &'static [&'static str] {
        match self {
            Sweep::Single => &SINGLE_PREFETCHERS,
            Sweep::Mix => &MIX_PREFETCHERS,
        }
    }

    /// The spec text of the sweep, in the `gaze_sim::spec::text` format.
    pub fn spec_text(self, seed: u64) -> String {
        match self {
            Sweep::Single => single_spec_text(seed),
            Sweep::Mix => mix_spec_text(seed),
        }
    }
}

/// fig06–08's four projections of the seeded single-core sweep.
fn single_spec_text(seed: u64) -> String {
    let list = single_workloads(seed).join(",");
    let mut out = format!("spec {SINGLE_SPEC}\n");
    for metric in ["speedup", "accuracy", "coverage", "late"] {
        out.push_str(&format!(
            "\ntable\ntitle sim-single {metric} (seed {seed})\nkind workload-rows\n\
             traces list:{list}\nmetric {metric}\navg-row AVG\n"
        ));
        for pf in SINGLE_PREFETCHERS {
            out.push_str(&format!("row {pf}\n"));
        }
        out.push_str("end\n");
    }
    out
}

/// fig15's per-core table over the seeded mixes.
fn mix_spec_text(seed: u64) -> String {
    let mut out = format!(
        "spec {MIX_SPEC}\n\ntable\ntitle sim-mix four-core mixes (seed {seed})\nkind mix-per-core\n"
    );
    for (name, ws) in mixes(seed) {
        out.push_str(&format!("mixdef {name} = {}\n", ws.join(",")));
    }
    for pf in MIX_PREFETCHERS {
        out.push_str(&format!("row {pf}\n"));
    }
    out.push_str("end\n");
    out
}

/// The request classes of `serve-warm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Warm `GET /experiments?spec=…` (a figure CSV).
    Figure,
    /// `GET /runs` with workload/prefetcher filters.
    Runs,
    /// `GET /runs?kind=mix`.
    MixRuns,
    /// `GET /healthz`.
    Healthz,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Figure, Class::Runs, Class::MixRuns, Class::Healthz];

    /// The class's metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Class::Figure => "figure",
            Class::Runs => "runs",
            Class::MixRuns => "mix_runs",
            Class::Healthz => "healthz",
        }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Its class.
    pub class: Class,
    /// The request target (path and query).
    pub target: String,
    /// For figure requests, the spec it asks for.
    pub spec: Option<&'static str>,
}

/// Requests per pass of each shape. The shapes are fixed and only the
/// filter values and the order are seeded, so every seed asks for the
/// same amount of work.
///
/// Figures and `/runs` queries come one to one, as in the repository's
/// load generator (`gaze_serve::loadgen`, `warm_figures`/`warm_runs`), and
/// the `/runs` queries split evenly between the two kinds. The rest is a
/// chosen shape with no recorded traffic behind it: the single-spec
/// figure outnumbers the (costlier) mix figure three to one, so the
/// figure median sits inside one mode while the tail lies in the mix
/// mode, and one request in ten is a `/healthz` probe.
const SINGLE_FIGURES: usize = 30;
const MIX_FIGURES: usize = 10;
const RUNS: usize = 20;
const MIX_RUNS: usize = 20;
const HEALTHZ: usize = 10;

/// The `serve-warm` request stream: one pass, in seeded order.
pub fn request_stream(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    let workloads = single_workloads(seed);
    let mut out = Vec::new();
    let figure = |spec: &'static str| Request {
        class: Class::Figure,
        target: format!("/experiments?spec={spec}"),
        spec: Some(spec),
    };
    out.extend((0..SINGLE_FIGURES).map(|_| figure(SINGLE_SPEC)));
    out.extend((0..MIX_FIGURES).map(|_| figure(MIX_SPEC)));
    for i in 0..RUNS {
        let w = &workloads[rng.below(workloads.len())];
        let pf = SINGLE_PREFETCHERS[rng.below(SINGLE_PREFETCHERS.len())];
        let target = match i % 3 {
            0 => format!("/runs?workload={w}"),
            1 => format!("/runs?prefetcher={pf}"),
            _ => format!("/runs?workload={w}&prefetcher={pf}"),
        };
        out.push(Request {
            class: Class::Runs,
            target,
            spec: None,
        });
    }
    for i in 0..MIX_RUNS {
        let target = if i % 2 == 0 {
            "/runs?kind=mix".to_string()
        } else {
            let pf = MIX_PREFETCHERS[rng.below(MIX_PREFETCHERS.len())];
            format!("/runs?kind=mix&prefetcher={pf}")
        };
        out.push(Request {
            class: Class::MixRuns,
            target,
            spec: None,
        });
    }
    out.extend((0..HEALTHZ).map(|_| Request {
        class: Class::Healthz,
        target: "/healthz".to_string(),
        spec: None,
    }));
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_fig06_and_fig15_choices() {
        let fig06: Vec<String> = Suite::main_suites()
            .into_iter()
            .flat_map(|s| workload_names(s).into_iter().take(2))
            .map(str::to_string)
            .collect();
        assert_eq!(single_workloads(0), fig06);
        let table_vi: Vec<Vec<String>> = gaze_sim::spec::builtin::table_vi_mixes()
            .into_iter()
            .map(|m| m.workloads)
            .collect();
        let drawn: Vec<Vec<String>> = mixes(0).into_iter().map(|(_, ws)| ws).collect();
        assert_eq!(drawn, table_vi);
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for seed in [0, 1, 42, HELD_OUT_SEED] {
            assert_eq!(Sweep::Single.spec_text(seed), Sweep::Single.spec_text(seed));
            assert_eq!(Sweep::Mix.spec_text(seed), Sweep::Mix.spec_text(seed));
            assert_eq!(request_stream(seed), request_stream(seed));
        }
    }

    #[test]
    fn different_seeds_give_different_selections() {
        let seeds = [0u64, 1, 2, 3, HELD_OUT_SEED];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(single_workloads(*a), single_workloads(*b), "{a} vs {b}");
                assert_ne!(mixes(*a), mixes(*b), "{a} vs {b}");
                assert_ne!(request_stream(*a), request_stream(*b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn generated_specs_parse_and_keep_their_names() {
        for seed in [0, 5, HELD_OUT_SEED] {
            let single = gaze_sim::spec::text::parse(&Sweep::Single.spec_text(seed))
                .expect("single spec parses");
            assert_eq!(single.name, SINGLE_SPEC);
            assert_eq!(single.tables.len(), 4);
            let mix =
                gaze_sim::spec::text::parse(&Sweep::Mix.spec_text(seed)).expect("mix spec parses");
            assert_eq!(mix.name, MIX_SPEC);
        }
    }

    #[test]
    fn seeded_draws_match_seed_zero_cost() {
        let base = single_workloads(0);
        let base: Vec<&str> = base.iter().map(String::as_str).collect();
        let mut table_vi: Vec<String> = mixes(0).into_iter().flat_map(|(_, ws)| ws).collect();
        table_vi.sort();
        for seed in 1..20 {
            let names = single_workloads(seed);
            assert_eq!(names.len(), 10);
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            for (pair, base_pair) in refs.chunks(2).zip(base.chunks(2)) {
                assert!(cost_matches(pair, base_pair), "seed {seed}: {pair:?}");
            }
            let drawn = mixes(seed);
            assert!(drawn.iter().all(|(_, ws)| ws.len() == 4));
            let mut slots: Vec<String> = drawn.into_iter().flat_map(|(_, ws)| ws).collect();
            slots.sort();
            assert_eq!(slots, table_vi, "seed {seed} deals Table VI's slots");
        }
    }

    #[test]
    fn request_stream_has_fixed_shape() {
        for seed in [0, 9, HELD_OUT_SEED] {
            let stream = request_stream(seed);
            let count = |c: Class| stream.iter().filter(|r| r.class == c).count();
            assert_eq!(count(Class::Figure), SINGLE_FIGURES + MIX_FIGURES);
            assert_eq!(count(Class::Runs), RUNS);
            assert_eq!(count(Class::MixRuns), MIX_RUNS);
            assert_eq!(count(Class::Healthz), HEALTHZ);
        }
    }

    #[test]
    fn cost_table_covers_every_main_workload() {
        for suite in Suite::main_suites() {
            for name in workload_names(suite) {
                cost(&[name]);
            }
        }
    }
}
