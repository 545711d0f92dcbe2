//! The benchmark's self-tests: tracing must not change a campaign, and the
//! benchmark's own sources must pass the repository's linter.

use campaign_bench::run::{
    replay_fabric, replay_two_host, traced_fabric_campaign, traced_two_host_campaign,
};
use campaign_bench::traced::Layer;
use collie_core::engine::WorkloadEngine;
use collie_core::fabric::{run_fabric_search_with_stats, FabricEngine};
use collie_core::search::{run_search_with_stats, SearchConfig, SearchStrategy};
use collie_core::space::{FabricSpace, SearchSpace};
use collie_rnic::subsystems::SubsystemId;
use collie_sim::time::SimDuration;
use std::path::{Path, PathBuf};

const STRATEGIES: [SearchStrategy; 3] = [
    SearchStrategy::Random,
    SearchStrategy::SimulatedAnnealing,
    SearchStrategy::Bayesian,
];

/// A short campaign with every execution knob pinned, so the comparison
/// does not depend on the environment the tests run in.
fn config(strategy: SearchStrategy, seed: u64) -> SearchConfig {
    SearchConfig {
        strategy,
        ..SearchConfig::collie(seed)
    }
    .with_budget(SimDuration::from_secs(2 * 3600))
    .with_memoization(true)
    .with_speculation(None)
    .with_incremental(true)
}

#[test]
fn a_traced_two_host_campaign_equals_an_untraced_one() {
    for subsystem in [SubsystemId::F, SubsystemId::C] {
        let space = SearchSpace::for_host(&subsystem.host());
        for strategy in STRATEGIES {
            let config = config(strategy, 23);
            let mut plain_engine = WorkloadEngine::for_catalog(subsystem);
            let (plain, stats) = run_search_with_stats(&mut plain_engine, &space, &config);
            let mut engine = WorkloadEngine::for_catalog(subsystem);
            let traced = traced_two_host_campaign(&mut engine, &space, &config, None);
            assert_eq!(traced.outcome, plain, "{subsystem:?} {strategy:?}");

            // Every evaluator miss was logged for the replay, and every
            // experiment outside an extraction went through `assess`.
            assert_eq!(traced.misses.len() as u64, stats.misses, "{strategy:?}");
            let tally = &traced.tally;
            assert!(tally.span(Layer::Propose).calls > 0);
            assert_eq!(
                tally.span(Layer::Assess).calls + tally.probes + tally.extractions,
                u64::from(plain.experiments),
                "{strategy:?}"
            );
            assert!(traced.span_ns as f64 >= tally.span(Layer::Assess).estimated_ns());

            let replay = replay_two_host(&engine, config.incremental, &traced.misses);
            assert_eq!(replay.evaluate_ns.len(), traced.misses.len());
            assert_eq!(replay.translate.calls, traced.misses.len() as u64);
            assert!(replay.fabric_ns.is_empty());
        }
    }
}

#[test]
fn a_traced_fabric_campaign_equals_an_untraced_one() {
    let subsystem = SubsystemId::F;
    let space = FabricSpace::for_host(&subsystem.host());
    for strategy in STRATEGIES {
        let config = config(strategy, 47);
        let mut plain_engine = FabricEngine::for_catalog(subsystem);
        let (plain, stats) = run_fabric_search_with_stats(&mut plain_engine, &space, &config);
        let mut engine = FabricEngine::for_catalog(subsystem);
        let traced = traced_fabric_campaign(&mut engine, &space, &config, None);
        assert_eq!(traced.outcome, plain, "{strategy:?}");
        assert_eq!(traced.misses.len() as u64, stats.misses, "{strategy:?}");

        let replay = replay_fabric(&engine, config.incremental, &traced.misses);
        assert_eq!(replay.fabric_ns.len(), traced.misses.len());
        assert_eq!(replay.evaluate_ns.len(), traced.misses.len());
    }
}

fn rust_files(dir: &Path, root: &Path, files: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, root, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let content = std::fs::read_to_string(&path).expect("readable source");
            files.push((rel, content));
        }
    }
}

#[test]
fn the_benchmark_sources_pass_collie_lint() {
    // Paths are relative to the benchmark package, so `src/lib.rs` and
    // `src/main.rs` are checked as crate roots. The README supplies the
    // repository's environment-hook table for the registry rule.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &root, &mut files);
    rust_files(&root.join("tests"), &root, &mut files);
    files.sort();
    assert!(files.iter().any(|(rel, _)| rel == "src/main.rs"));
    let workspace = collie_lint::Workspace {
        root: root.display().to_string(),
        files,
        readme: std::fs::read_to_string(root.join("../README.md")).ok(),
        fixtures: Vec::new(),
    };
    let report = collie_lint::lint(&workspace, &collie_lint::Options::default());
    assert!(
        report.violations.is_empty(),
        "collie-lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {}:{} [{}] {}", v.file, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
