//! Regenerates Figure 4: mean running time to find performance anomalies
//! with random input generation, Bayesian optimisation, and Collie, on
//! subsystem F with a 10-hour budget per search.
//!
//! Shape targets from the paper (absolute values depend on the simulated
//! substrate): random finds only the simple anomalies, BO finds slightly
//! more, Collie finds the most — ideally all 13 — and does so faster.
//!
//! All nine campaigns (3 strategies × 3 seeds) run as one parallel matrix;
//! the per-strategy grouping below only reads the results back in order.
#![forbid(unsafe_code)]

use collie_bench::{
    default_workers, fmt_minutes, run_campaign_matrix_report, text_table, CampaignSpec,
    MatrixOptions, DEFAULT_SEEDS,
};
use collie_core::catalog::KnownAnomaly;
use collie_core::report::{time_to_find_rows, to_json};
use collie_core::search::{SearchConfig, SearchOutcome};
use collie_rnic::subsystems::SubsystemId;
use std::time::Instant;

fn main() {
    let subsystem = SubsystemId::F;
    let max_anomalies = KnownAnomaly::for_subsystem(subsystem).len();
    let configs = [
        ("Random", SearchConfig::random(0)),
        ("BO", SearchConfig::bayesian(0)),
        ("Collie", SearchConfig::collie(0)),
    ];

    let cells: Vec<CampaignSpec> = configs
        .iter()
        .flat_map(|(_, config)| {
            DEFAULT_SEEDS
                .iter()
                .map(|&seed| CampaignSpec::seeded(subsystem, config, seed))
        })
        .collect();
    let started = Instant::now();
    let report = run_campaign_matrix_report(&cells, &MatrixOptions::new(default_workers()));
    let wall = started.elapsed();

    let mut matrix = report
        .cells
        .into_iter()
        .map(|cell| (cell.outcome, cell.stats));
    let mut all_rows = Vec::new();
    let mut table_rows = Vec::new();
    for (label, _) in &configs {
        let (outcomes, stats): (Vec<SearchOutcome>, Vec<_>) =
            matrix.by_ref().take(DEFAULT_SEEDS.len()).unzip();
        let found: Vec<usize> = outcomes
            .iter()
            .map(|o| o.distinct_known_anomalies().len())
            .collect();
        let triggered: Vec<usize> = outcomes
            .iter()
            .map(|o| o.distinct_triggered_anomalies().len())
            .collect();
        let hit_rates: Vec<String> = stats
            .iter()
            .map(|s| format!("{:.0}%", s.hit_rate() * 100.0))
            .collect();
        eprintln!(
            "{label}: distinct catalogued anomalies per seed = {found:?} \
             (triggered at least once: {triggered:?}, of {max_anomalies}; \
             eval-cache hit rates {hit_rates:?})"
        );
        let rows = time_to_find_rows(label, &outcomes, max_anomalies);
        for row in &rows {
            if row.anomalies_found == 0 {
                continue;
            }
            table_rows.push(vec![
                row.strategy.clone(),
                row.anomalies_found.to_string(),
                fmt_minutes(row.mean_minutes),
                format!("{:.1}", row.std_minutes),
                format!("{}/{}", row.seeds_reaching, row.seeds_total),
            ]);
        }
        all_rows.extend(rows);
    }
    eprintln!(
        "matrix: {} campaigns on {} workers in {:.2} s wall-clock",
        cells.len(),
        default_workers(),
        wall.as_secs_f64()
    );

    println!(
        "Figure 4: mean time (simulated minutes) to find N distinct anomalies on subsystem F\n"
    );
    println!(
        "{}",
        text_table(
            &[
                "Strategy",
                "Anomalies found",
                "Mean minutes",
                "Std",
                "Seeds reaching"
            ],
            &table_rows
        )
    );
    println!("JSON:\n{}", to_json(&all_rows));
}
