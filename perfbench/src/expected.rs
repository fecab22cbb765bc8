//! The recorded output digests (`expected.txt`) and the `--record` mode that regenerates
//! them.

use crate::specs;
use mess_scenario::{digest_text, run_campaign_with, ScenarioOptions, ScenarioOutcome};
use std::collections::BTreeMap;

/// Digests of one scenario's outputs: its report CSV and each CurveSet artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests {
    /// `digest_text` of the report CSV.
    pub report: String,
    /// `digest_text` of each CurveSet's JSON, in production order.
    pub curves: Vec<String>,
}

impl Digests {
    /// The digests of a scenario outcome.
    pub fn of(outcome: &ScenarioOutcome) -> Digests {
        Digests {
            report: digest_text(&outcome.report.to_csv()).to_string(),
            curves: outcome
                .curve_sets
                .iter()
                .map(|set| digest_text(&set.to_json()).to_string())
                .collect(),
        }
    }
}

/// The digests recorded at [`specs::DEFAULT_SEED`], keyed by (workload, scenario id).
pub struct Expected(BTreeMap<(String, String), Digests>);

impl Expected {
    /// Parses the recorded file shipped with the benchmark.
    pub fn load() -> Expected {
        let mut map = BTreeMap::new();
        for line in include_str!("../expected.txt").lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 3 || fields[0].starts_with('#') {
                continue;
            }
            map.insert(
                (fields[0].to_string(), fields[1].to_string()),
                Digests {
                    report: fields[2].to_string(),
                    curves: fields[3..].iter().map(|s| s.to_string()).collect(),
                },
            );
        }
        Expected(map)
    }

    /// Compares `actual` with the record of `workload`/`id`; `Some(problem)` on a mismatch
    /// or a missing record.
    pub fn check(&self, workload: &str, id: &str, actual: &Digests) -> Option<String> {
        match self.0.get(&(workload.to_string(), id.to_string())) {
            None => Some(format!("{workload}/{id}: no recorded digest")),
            Some(expected) if expected != actual => Some(format!(
                "{workload}/{id}: digests {actual:?} differ from the recorded {expected:?}"
            )),
            Some(_) => None,
        }
    }
}

fn line(workload: &str, id: &str, d: &Digests) -> String {
    let mut fields = vec![workload.to_string(), id.to_string(), d.report.clone()];
    fields.extend(d.curves.iter().cloned());
    fields.join(" ") + "\n"
}

/// Runs every workload's scenarios once at the default seed and renders `expected.txt`.
///
/// # Errors
///
/// Propagates scenario errors.
pub fn record() -> Result<String, String> {
    let mut text = format!(
        "# Output digests at seed {} (regenerate with `mess-perfbench --record`).\n\
         # workload scenario report-digest [curveset-digest ...]\n",
        specs::DEFAULT_SEED
    );
    let options = ScenarioOptions::default();
    for (workload, campaign) in [
        ("ddr-study", specs::ddr_study()),
        ("app-sim", specs::app_sim(specs::DEFAULT_SEED)),
    ] {
        let outcomes = run_campaign_with(&campaign, &options, |_| {}).map_err(|e| e.to_string())?;
        for (spec, outcome) in campaign.scenarios.iter().zip(&outcomes) {
            text += &line(workload, &spec.id, &Digests::of(outcome));
        }
    }
    Ok(text)
}
