//! The output check: one canonical rendering per campaign outcome, its
//! digest, and the comparison against the committed golden fixtures.
//!
//! The rendering is the golden-fixture cell schema of
//! `tests/golden_traces.rs` (experiments, MFS skips, simulated elapsed
//! time, trace shape, every discovery with its point, symptom, MFS and
//! matched rules, and the rule hits), so a digest covers everything a
//! fixture pins and a cell that coincides with a fixture cell can be
//! compared with it field by field.

use collie_core::fabric::FabricOutcome;
use collie_core::search::SearchOutcome;
use collie_rnic::subsystems::SubsystemId;
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// The live golden fixtures a benchmark cell can coincide with (the
/// pre-kernel fixtures replay history and are not consulted).
pub const LIVE_FIXTURES: [&str; 3] = [
    "golden_fig4_kernel.json",
    "golden_fig5_kernel.json",
    "golden_fig7_bo.json",
];

/// The subsystem every fixture cell ran on.
pub const FIXTURE_SUBSYSTEM: SubsystemId = SubsystemId::F;

/// The simulated budget every fixture cell ran with.
pub const FIXTURE_BUDGET_SECS: u64 = 10 * 3600;

/// One discovery, reduced to its seed-deterministic identity.
#[derive(Debug, Serialize)]
pub struct GoldenDiscovery {
    at_nanos: u64,
    point: String,
    symptom: String,
    cross_host: Option<bool>,
    mfs: String,
    matched_rules: Vec<String>,
}

/// One first-trigger scoring event.
#[derive(Debug, Serialize)]
pub struct GoldenRuleHit {
    at_nanos: u64,
    rule: String,
}

/// One campaign cell in the golden-fixture schema.
#[derive(Debug, Serialize)]
pub struct GoldenCell {
    label: String,
    seed: u64,
    experiments: u32,
    skipped_by_mfs: u32,
    elapsed_nanos: u64,
    trace_samples: usize,
    trace_anomalies: usize,
    discoveries: Vec<GoldenDiscovery>,
    rule_hits: Vec<GoldenRuleHit>,
}

/// What the benchmark reads from a finished campaign, for both stacks.
pub trait CampaignOutcome {
    /// Distinct anomalies the campaign found: the catalogued anomalies its
    /// discoveries match on the two-host stack, the discoveries deduped by
    /// remediation identity on the fabric.
    fn anomalies_found(&self, subsystem: SubsystemId) -> usize;
    /// The outcome in the golden-fixture schema.
    fn golden_cell(&self, seed: u64) -> GoldenCell;
}

impl CampaignOutcome for SearchOutcome {
    fn anomalies_found(&self, _subsystem: SubsystemId) -> usize {
        self.distinct_known_anomalies().len()
    }

    fn golden_cell(&self, seed: u64) -> GoldenCell {
        GoldenCell {
            label: self.label.clone(),
            seed,
            experiments: self.experiments,
            skipped_by_mfs: self.skipped_by_mfs,
            elapsed_nanos: self.elapsed.as_nanos(),
            trace_samples: self.trace.samples().len(),
            trace_anomalies: self.trace.anomaly_samples().len(),
            discoveries: self
                .discoveries
                .iter()
                .map(|d| GoldenDiscovery {
                    at_nanos: d.at.as_nanos(),
                    point: d.point.to_string(),
                    symptom: d.symptom.to_string(),
                    cross_host: None,
                    mfs: d.mfs.describe(),
                    matched_rules: d.matched_rules.clone(),
                })
                .collect(),
            rule_hits: self
                .rule_hits
                .iter()
                .map(|h| GoldenRuleHit {
                    at_nanos: h.at.as_nanos(),
                    rule: h.rule.clone(),
                })
                .collect(),
        }
    }
}

impl CampaignOutcome for FabricOutcome {
    fn anomalies_found(&self, subsystem: SubsystemId) -> usize {
        self.discovered_triggers()
            .iter()
            .map(|trigger| trigger.identity(subsystem))
            .collect::<BTreeSet<String>>()
            .len()
    }

    fn golden_cell(&self, seed: u64) -> GoldenCell {
        GoldenCell {
            label: self.label.clone(),
            seed,
            experiments: self.experiments,
            skipped_by_mfs: self.skipped_by_mfs,
            elapsed_nanos: self.elapsed.as_nanos(),
            trace_samples: self.trace.samples().len(),
            trace_anomalies: self.trace.anomaly_samples().len(),
            discoveries: self
                .discoveries
                .iter()
                .map(|d| GoldenDiscovery {
                    at_nanos: d.at.as_nanos(),
                    point: d.point.to_string(),
                    symptom: d.symptom.to_string(),
                    cross_host: Some(d.cross_host),
                    mfs: d.mfs.describe(),
                    matched_rules: d.matched_rules.clone(),
                })
                .collect(),
            rule_hits: Vec::new(),
        }
    }
}

/// The per-campaign outcome digest the benchmark prints and compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDigest {
    /// The subsystem the campaign ran on.
    pub subsystem: SubsystemId,
    /// The configuration label.
    pub label: String,
    /// The campaign seed.
    pub seed: u64,
    /// Experiments run.
    pub experiments: u32,
    /// Proposals skipped by the MFS filter.
    pub skipped: u32,
    /// Simulated time consumed, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Discoveries (one extracted MFS each).
    pub discoveries: usize,
    /// FNV-1a 64 of the full canonical rendering.
    pub hash: u64,
}

impl CampaignDigest {
    /// Digest one finished campaign.
    pub fn of(subsystem: SubsystemId, seed: u64, outcome: &impl CampaignOutcome) -> Self {
        let cell = outcome.golden_cell(seed);
        let canonical = serde_json::to_string(&cell).expect("golden cells always serialize");
        CampaignDigest {
            subsystem,
            label: cell.label,
            seed,
            experiments: cell.experiments,
            skipped: cell.skipped_by_mfs,
            elapsed_nanos: cell.elapsed_nanos,
            discoveries: cell.discoveries.len(),
            hash: fnv1a64(canonical.as_bytes()),
        }
    }
}

impl fmt::Display for CampaignDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {} seed={} experiments={} skipped={} elapsed_ns={} mfs={} digest={:016x}",
            self.subsystem,
            self.label,
            self.seed,
            self.experiments,
            self.skipped,
            self.elapsed_nanos,
            self.discoveries,
            self.hash
        )
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The cells of the live golden fixtures.
#[derive(Debug, Default)]
pub struct GoldenFixtures {
    cells: Vec<Value>,
}

impl GoldenFixtures {
    /// Load every live fixture from `dir` (the repository's
    /// `tests/fixtures`).
    pub fn load(dir: &Path) -> Result<GoldenFixtures, String> {
        let mut cells = Vec::new();
        for name in LIVE_FIXTURES {
            let path = dir.join(name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            match serde_json::from_str::<Value>(&text) {
                Ok(Value::Array(grid)) => cells.extend(grid),
                Ok(_) => return Err(format!("{name}: not a JSON array of cells")),
                Err(e) => return Err(format!("{name}: {e:?}")),
            }
        }
        Ok(GoldenFixtures { cells })
    }

    /// Compare a campaign with every fixture cell it coincides with (same
    /// subsystem, budget, label and seed). Returns how many fixture cells
    /// it matched, or the first field that differs.
    pub fn check(
        &self,
        subsystem: SubsystemId,
        budget_secs: u64,
        seed: u64,
        outcome: &impl CampaignOutcome,
    ) -> Result<usize, String> {
        if subsystem != FIXTURE_SUBSYSTEM || budget_secs != FIXTURE_BUDGET_SECS {
            return Ok(0);
        }
        let cell = serde_json::to_value(&outcome.golden_cell(seed));
        let key = |value: &Value| {
            (
                field(value, "label").cloned(),
                field(value, "seed").cloned(),
            )
        };
        let mut matched = 0;
        for fixture in self.cells.iter().filter(|f| key(f) == key(&cell)) {
            if let Some(name) = first_difference(fixture, &cell) {
                return Err(format!(
                    "{:?} seed {seed}: differs from its golden fixture cell at `{name}`",
                    field(&cell, "label")
                ));
            }
            matched += 1;
        }
        Ok(matched)
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// The first top-level field on which two cells differ.
fn first_difference(expected: &Value, actual: &Value) -> Option<String> {
    match (expected, actual) {
        (Value::Object(fields), _) => fields
            .iter()
            .find(|(name, value)| field(actual, name) != Some(value))
            .map(|(name, _)| name.clone())
            .or_else(|| (expected != actual).then(|| "(extra field)".to_string())),
        _ => (expected != actual).then(|| "(cell)".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collie_core::engine::WorkloadEngine;
    use collie_core::search::{run_search, SearchConfig};
    use collie_core::space::SearchSpace;
    use collie_sim::time::SimDuration;

    fn campaign(seed: u64, hours: u64) -> SearchOutcome {
        let config = SearchConfig::collie(seed).with_budget(SimDuration::from_secs(hours * 3600));
        let mut engine = WorkloadEngine::for_catalog(SubsystemId::F);
        run_search(
            &mut engine,
            &SearchSpace::for_host(&SubsystemId::F.host()),
            &config,
        )
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digests_are_deterministic_and_sensitive_to_the_outcome() {
        let a = campaign(3, 1);
        let digest = CampaignDigest::of(SubsystemId::F, 3, &a);
        assert_eq!(
            digest,
            CampaignDigest::of(SubsystemId::F, 3, &campaign(3, 1))
        );
        assert_eq!(digest.experiments, a.experiments);
        assert_eq!(digest.discoveries, a.discoveries.len());

        // One discovery fewer, or one simulated nanosecond more, is a
        // different digest even though the counts may agree.
        let mut trimmed = a.clone();
        trimmed.discoveries.pop();
        assert_ne!(
            CampaignDigest::of(SubsystemId::F, 3, &trimmed).hash,
            digest.hash
        );
        let mut later = a.clone();
        later.elapsed += SimDuration::from_nanos(1);
        assert_ne!(
            CampaignDigest::of(SubsystemId::F, 3, &later).hash,
            digest.hash
        );
        assert!(digest.to_string().contains("Collie(Diag) seed=3"));
    }

    #[test]
    fn a_fixture_cell_is_matched_and_a_perturbed_one_is_reported() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/fixtures");
        let fixtures = GoldenFixtures::load(&dir).expect("live fixtures load");
        let outcome = campaign(11, 10);
        // Collie(Diag) seed 11 on F appears in both the fig4 and fig5 grids.
        assert_eq!(
            fixtures.check(SubsystemId::F, FIXTURE_BUDGET_SECS, 11, &outcome),
            Ok(2)
        );
        // Other subsystems and budgets never coincide with a fixture cell.
        assert_eq!(
            fixtures.check(SubsystemId::A, FIXTURE_BUDGET_SECS, 11, &outcome),
            Ok(0)
        );
        let mut perturbed = outcome.clone();
        perturbed.skipped_by_mfs += 1;
        let err = fixtures
            .check(SubsystemId::F, FIXTURE_BUDGET_SECS, 11, &perturbed)
            .unwrap_err();
        assert!(err.contains("skipped_by_mfs"), "{err}");
    }
}
