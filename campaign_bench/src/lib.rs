//! Layer-attributed campaign benchmark for the Collie reproduction.
//!
//! One run drives one workload's budgeted search campaigns (see
//! [`workload::Workload`] and README.md) and prints one JSON result line.
//! The timed run (`--trace 0`) measures what a user of the system sees:
//! set-up time, experiments per host second, host time per campaign, peak
//! memory and anomalies found. The traced run (`--trace 1`) replays the
//! same campaigns through [`traced::TracedDomain`] and attributes their
//! host time to the layers of the stack. Both runs check their outputs:
//! every round must reproduce the first round's per-campaign digests, and
//! cells that coincide with a committed golden fixture must match it.
#![forbid(unsafe_code)]

pub mod digest;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workload;

use run::Metric;

/// The `collie_core::env` hooks set in the environment, by name. Each one
/// changes how campaigns execute, and so what the benchmark measures; the
/// benchmark refuses to run while any is set. `is_set` looks a variable
/// up (the process environment in the binary).
pub fn hooks_set(is_set: impl Fn(&str) -> bool) -> Vec<&'static str> {
    collie_core::env::HOOKS
        .iter()
        .map(|hook| hook.name)
        .filter(|name| is_set(name))
        .collect()
}

/// The result line: one JSON object with the output check's verdict and
/// every metric with its unit. Values keep all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_hook_is_refused() {
        assert!(hooks_set(|_| false).is_empty());
        let all = hooks_set(|_| true);
        assert_eq!(all.len(), collie_core::env::HOOKS.len());
        let one = collie_core::env::HOOKS[1].name;
        assert_eq!(hooks_set(|name| name == one), vec![one]);
    }

    #[test]
    fn the_result_line_is_json_with_every_metric() {
        let metrics = [
            Metric {
                name: "latency_ms",
                value: 1.203_456_789,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.000_012_5,
                unit: "s",
            },
        ];
        let line = result_line(true, 104, 0, &metrics);
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let text = serde_json::to_string(&parsed).expect("renders");
        assert!(text.contains("\"attempted\":104"), "{text}");
        assert!(line.contains("1.203456789"), "{line}");
        assert!(line.contains("0.0000125"), "{line}");
        assert!(result_line(false, 1, 1, &[]).starts_with("{\"correct\": false"));
    }
}
