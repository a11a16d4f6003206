//! Prefetcher factory: build any evaluated prefetcher (or ablation variant)
//! by name.

use baselines::{
    Berti, Bingo, ContextPattern, ContextPatternConfig, DsPatch, IpStride, Ipcp, Pmp, Sms, SppPpf,
};
use gaze::{Gaze, GazeConfig};
use prefetch_common::prefetcher::{NullPrefetcher, Prefetcher};

/// The nine prefetchers of the main single-core comparison (Fig. 6–8), in
/// plotting order.
pub const MAIN_PREFETCHERS: [&str; 9] = [
    "ip-stride",
    "spp-ppf",
    "ipcp-l1",
    "vberti",
    "sms",
    "bingo",
    "dspatch",
    "pmp",
    "gaze",
];

/// The three prefetchers of the head-to-head comparisons (Fig. 11, 12, 15).
pub const HEAD_TO_HEAD: [&str; 3] = ["vberti", "pmp", "gaze"];

/// The six prefetchers of the multi-core study (Fig. 14).
pub const MULTICORE_PREFETCHERS: [&str; 6] =
    ["spp-ppf", "vberti", "bingo", "dspatch", "pmp", "gaze"];

/// Every name accepted by [`make_prefetcher`].
pub fn known_prefetchers() -> Vec<&'static str> {
    vec![
        "none",
        "ip-stride",
        "spp-ppf",
        "spp",
        "ipcp-l1",
        "vberti",
        "sms",
        "bingo",
        "dspatch",
        "pmp",
        "gaze",
        "gaze-pht",
        "offset",
        "pht4ss",
        "sm4ss",
        "pc-pattern",
        "pc-addr-pattern",
        "gaze-k1",
        "gaze-k2",
        "gaze-k3",
        "gaze-k4",
    ]
}

/// Whether [`make_prefetcher`] accepts `name` *and* can construct it:
/// one of the [`known_prefetchers`], or a parameterized variant
/// (`vgaze-<KB>`, `gaze-pht-<entries>`, `gaze-region-<bytes>`) whose
/// parameter satisfies the [`GazeConfig`] constraints the constructors
/// assert (power-of-two regions of at least two blocks; PHT entries a
/// positive multiple of the associativity).
///
/// The experiment-spec validator uses this to reject bad prefetcher
/// names at parse time instead of panicking mid-sweep.
pub fn is_valid_prefetcher(name: &str) -> bool {
    let cfg = GazeConfig::paper_default();
    let valid_region = |bytes: u64| bytes.is_power_of_two() && bytes >= 2 * cfg.block_size;
    if let Some(kb) = name.strip_prefix("vgaze-") {
        return kb
            .parse::<u64>()
            .ok()
            .and_then(|kb| kb.checked_mul(1024))
            .is_some_and(valid_region);
    }
    if let Some(entries) = name.strip_prefix("gaze-pht-") {
        // A multiple of the associativity whose set count is a power of
        // two (the set-associative table asserts both on construction).
        return entries.parse::<usize>().is_ok_and(|e| {
            e >= cfg.pht_ways && e % cfg.pht_ways == 0 && (e / cfg.pht_ways).is_power_of_two()
        });
    }
    if let Some(bytes) = name.strip_prefix("gaze-region-") {
        return bytes.parse::<u64>().is_ok_and(valid_region);
    }
    known_prefetchers().contains(&name)
}

/// Builds a prefetcher by name.
///
/// Besides the evaluated baselines, the Gaze ablation variants of Fig. 4 /
/// Fig. 9 / Fig. 10 are available (`gaze-k1..k4`, `gaze-pht`, `offset`,
/// `pht4ss`, `sm4ss`), plus `vgaze-<region KB>` (e.g. `vgaze-16`),
/// `gaze-pht-<entries>` (e.g. `gaze-pht-512`) and `gaze-region-<bytes>`
/// (e.g. `gaze-region-4096`) for the sensitivity sweeps.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn make_prefetcher(name: &str) -> Box<dyn Prefetcher> {
    if let Some(kb) = name.strip_prefix("vgaze-") {
        let kb: u64 = kb.parse().expect("vgaze-<region KB>");
        let cfg = GazeConfig::paper_default().with_region_size(kb * 1024);
        return Box::new(Gaze::with_config_and_name(cfg, name.to_string()));
    }
    if let Some(entries) = name.strip_prefix("gaze-pht-") {
        let entries: usize = entries.parse().expect("gaze-pht-<entries>");
        let cfg = GazeConfig::paper_default().with_pht_entries(entries);
        return Box::new(Gaze::with_config_and_name(cfg, name.to_string()));
    }
    if let Some(kb) = name.strip_prefix("gaze-region-") {
        let bytes: u64 = kb.parse::<u64>().expect("gaze-region-<bytes>");
        let cfg = GazeConfig::paper_default().with_region_size(bytes);
        return Box::new(Gaze::with_config_and_name(cfg, name.to_string()));
    }
    match name {
        "none" => Box::new(NullPrefetcher::new()),
        "ip-stride" => Box::new(IpStride::new()),
        "spp-ppf" => Box::new(SppPpf::new()),
        "spp" => Box::new(SppPpf::without_filter()),
        "ipcp-l1" => Box::new(Ipcp::new()),
        "vberti" => Box::new(Berti::new()),
        "sms" => Box::new(Sms::new()),
        "bingo" => Box::new(Bingo::new()),
        "dspatch" => Box::new(DsPatch::new()),
        "pmp" => Box::new(Pmp::new()),
        "gaze" => Box::new(Gaze::new()),
        "gaze-pht" => Box::new(Gaze::with_config_and_name(
            GazeConfig::gaze_pht_only(),
            "gaze-pht",
        )),
        "offset" => Box::new(Gaze::with_config_and_name(
            GazeConfig::offset_only(),
            "offset",
        )),
        "pht4ss" => Box::new(Gaze::with_config_and_name(
            GazeConfig::pht_for_streaming_only(),
            "pht4ss",
        )),
        "sm4ss" => Box::new(Gaze::with_config_and_name(
            GazeConfig::streaming_module_only(),
            "sm4ss",
        )),
        "pc-pattern" => Box::new(ContextPattern::new(ContextPatternConfig::pc())),
        "pc-addr-pattern" => Box::new(ContextPattern::new(ContextPatternConfig::pc_address())),
        "gaze-k1" | "gaze-k2" | "gaze-k3" | "gaze-k4" => {
            let k: usize = name[6..].parse().expect("gaze-k<1-4>");
            let cfg = GazeConfig::paper_default().with_initial_accesses(k);
            Box::new(Gaze::with_config_and_name(cfg, name.to_string()))
        }
        other => panic!("unknown prefetcher '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_prefetcher_builds() {
        for name in known_prefetchers() {
            let p = make_prefetcher(name);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn parameterized_variants_parse() {
        assert_eq!(make_prefetcher("vgaze-16").name(), "vgaze-16");
        assert_eq!(make_prefetcher("gaze-pht-512").name(), "gaze-pht-512");
        assert_eq!(make_prefetcher("gaze-region-512").name(), "gaze-region-512");
    }

    #[test]
    fn validity_check_matches_the_factory() {
        for name in known_prefetchers() {
            assert!(is_valid_prefetcher(name), "{name}");
        }
        // Every accepted parameterized variant must actually construct
        // (is_valid_prefetcher's contract is "no panic mid-sweep").
        for name in ["vgaze-16", "gaze-pht-512", "gaze-region-4096"] {
            assert!(is_valid_prefetcher(name), "{name}");
            let _ = make_prefetcher(name);
        }
        for name in [
            "",
            "does-not-exist",
            "vgaze-",
            "vgaze-x",
            "gaze-pht-0x2",
            "vgaze-0",
            // Parameters the GazeConfig constructors would reject:
            "vgaze-3",                    // region not a power of two
            "gaze-region-100",            // not a power of two
            "gaze-region-64",             // smaller than two blocks
            "gaze-pht-2",                 // below the associativity
            "gaze-pht-100",               // set count not a power of two
            "gaze-pht-12",                // set count not a power of two
            "vgaze-18446744073709551615", // KB->bytes overflow
        ] {
            assert!(!is_valid_prefetcher(name), "{name}");
        }
    }

    #[test]
    fn main_lists_reference_known_names() {
        for name in MAIN_PREFETCHERS
            .iter()
            .chain(HEAD_TO_HEAD.iter())
            .chain(MULTICORE_PREFETCHERS.iter())
        {
            assert!(
                known_prefetchers().contains(name),
                "{name} missing from known list"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown prefetcher")]
    fn unknown_name_panics() {
        let _ = make_prefetcher("does-not-exist");
    }

    #[test]
    fn storage_ordering_matches_table_iv() {
        // Bingo/SMS > SPP-PPF > PMP ~ DSPatch ~ Gaze > vBerti > IPCP.
        let bits = |n: &str| make_prefetcher(n).storage_bits();
        assert!(bits("bingo") > bits("spp-ppf"));
        assert!(bits("sms") > bits("spp-ppf"));
        assert!(bits("spp-ppf") > bits("pmp"));
        assert!(bits("pmp") > bits("vberti"));
        assert!(bits("gaze") > bits("vberti"));
        assert!(bits("vberti") > bits("ipcp-l1"));
        // Gaze is ~31x cheaper than Bingo.
        assert!(bits("bingo") / bits("gaze") >= 25);
    }
}
