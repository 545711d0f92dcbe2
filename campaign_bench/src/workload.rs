//! The benchmark's workloads: which campaigns one run drives.
//!
//! Every workload covers all eight Table-1 subsystems A–H. Its campaign
//! seeds start with the three fixture seeds of the fig bins, so the cells
//! that coincide with a committed golden fixture are checked against it.
//! See README.md for why each workload exists.

use collie_bench::{CampaignSpec, DEFAULT_SEEDS};
use collie_core::search::{SearchConfig, SignalMode};
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Collie(Diag) and Collie(Perf) annealing, 10 simulated hours.
    Anneal2Host,
    /// The random baseline with a 40-hour budget.
    Random2HostLong,
    /// Collie(Diag) fabric campaigns, 10 simulated hours.
    Fabric,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Anneal2Host,
        Workload::Random2HostLong,
        Workload::Fabric,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Anneal2Host => "anneal-2host",
            Workload::Random2HostLong => "random-2host-long",
            Workload::Fabric => "fabric",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the campaigns run over the multi-host fabric.
    pub fn is_fabric(self) -> bool {
        self == Workload::Fabric
    }

    /// The campaign configurations run on every subsystem (seed 0; the
    /// cells get their seeds from [`Workload::specs`]).
    pub fn configs(self) -> Vec<SearchConfig> {
        match self {
            Workload::Anneal2Host => vec![
                SearchConfig::collie(0),
                SearchConfig::collie(0).with_signal(SignalMode::Performance),
            ],
            Workload::Random2HostLong => {
                vec![SearchConfig::random(0).with_budget(SimDuration::from_secs(40 * 3600))]
            }
            Workload::Fabric => vec![SearchConfig::collie(0)],
        }
    }

    /// Campaign seeds per (subsystem, configuration). One round has at
    /// least 100 campaigns, so its p90 has ten samples beyond it; the
    /// cheap workloads run about 200, so that their mean anomaly count
    /// moves little from one `--seed` to the next.
    fn seeds_per_config(self) -> usize {
        match self {
            Workload::Anneal2Host => 13,
            Workload::Random2HostLong => 13,
            Workload::Fabric => 26,
        }
    }

    /// The campaign seeds of a run with `--seed seed`. The first half is
    /// the same in every run: the fixture seeds, then a fixed SplitMix64
    /// stream. The second half is drawn from a SplitMix64 stream of
    /// `seed`. Every `--seed` thus changes half the campaigns, while the
    /// mean anomaly count moves half as much from one seed to the next.
    /// Seeds have 32 bits, so they stay exact in the JSON digest
    /// rendering.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        let total = self.seeds_per_config();
        let mut seeds = DEFAULT_SEEDS.to_vec();
        extend_distinct(&mut seeds, FIXED_STREAM, total.div_ceil(2));
        extend_distinct(&mut seeds, seed, total);
        seeds
    }

    /// One round of the workload: every configuration × subsystem × seed.
    pub fn specs(self, seed: u64) -> Vec<CampaignSpec> {
        let seeds = self.seeds(seed);
        let mut specs = Vec::new();
        for config in self.configs() {
            for subsystem in SubsystemId::ALL {
                for &seed in &seeds {
                    specs.push(CampaignSpec::seeded(subsystem, &config, seed));
                }
            }
        }
        specs
    }
}

/// The stream the fixed half of every run's seeds comes from.
const FIXED_STREAM: u64 = 0xC011_1E00;

/// Append distinct 32-bit seeds from the SplitMix64 stream of `state`
/// until `seeds` holds `len`.
fn extend_distinct(seeds: &mut Vec<u64>, mut state: u64, len: usize) {
    while seeds.len() < len {
        let candidate = splitmix64(&mut state) >> 32;
        if !seeds.contains(&candidate) {
            seeds.push(candidate);
        }
    }
}

/// One step of the SplitMix64 generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_has_at_least_100_campaigns() {
        for workload in Workload::ALL {
            assert!(workload.specs(1).len() >= 100, "{}", workload.name());
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("bo"), None);
    }

    #[test]
    fn seeds_are_reproducible_distinct_and_half_fixed() {
        let seeds = Workload::Fabric.seeds(5);
        assert_eq!(seeds.len(), 26);
        assert_eq!(seeds, Workload::Fabric.seeds(5));
        assert_eq!(&seeds[..3], &DEFAULT_SEEDS);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert!(seeds.iter().all(|&s| s < 1 << 32));
        // Another `--seed` keeps the fixed half and replaces the rest.
        let other = Workload::Fabric.seeds(6);
        assert_eq!(other[..13], seeds[..13]);
        assert!(other[13..].iter().all(|s| !seeds.contains(s)));
        // A `--seed` equal to the fixed stream still yields distinct seeds.
        let clash = Workload::Anneal2Host.seeds(FIXED_STREAM);
        let mut unique = clash.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 13);
    }
}
