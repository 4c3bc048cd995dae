//! Untimed correctness checks shared by the workloads.

use sga_core::budget::Budget;
use sga_core::interval::{self, AnalyzeOptions, Engine};
use sga_core::triage::{self, TriageOptions};
use sga_core::{checker, preanalysis};
use sga_diag::Status;
use sga_utils::Json;
use std::fmt::Write as _;
use std::path::Path;

/// A report's `totals.<key>` count (0 when absent).
pub fn total(report: &Json, key: &str) -> usize {
    report
        .get("totals")
        .and_then(|t| t.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as usize
}

/// A report's `units` array.
pub fn units(report: &Json) -> &[Json] {
    report.get("units").and_then(Json::as_arr).unwrap_or(&[])
}

/// Whether a unit entry failed: degraded, crashed or invalid, or its
/// octagon triage degraded under its derived budget (it then discharges
/// less, so a change that gets faster that way must show as worse).
pub fn unit_failed(unit: &Json) -> bool {
    unit.get("outcome").and_then(Json::as_str) != Some("ok")
        || unit.get("triage_degraded").and_then(Json::as_bool) == Some(true)
}

/// The number of failed unit entries in a report.
pub fn failed_units(report: &Json) -> usize {
    units(report).iter().filter(|u| unit_failed(u)).count()
}

/// Re-derives the diagnostics of every `tests/alarms/*.c` file under the
/// default options and compares them with the hand-checked `.expected`
/// sidecar next to it. Returns the number of files checked.
pub fn golden_alarms(dir: &Path) -> Result<usize, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no C files in {}", dir.display()));
    }
    for file in &files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let program = sga_cfront::parse(&src).map_err(|e| format!("{}: {e}", file.display()))?;
        let pre = preanalysis::run(&program);
        let result = interval::analyze_with(&program, Engine::Sparse, AnalyzeOptions::default());
        let mut diags = checker::check_all(&program, &result, &pre);
        triage::discharge(
            &program,
            &pre,
            &result,
            &mut diags,
            &TriageOptions {
                budget: triage::derived_budget(result.stats.iterations, &Budget::unbounded()),
                ..TriageOptions::default()
            },
        );
        let mut got = String::new();
        for d in &diags {
            let status = match &d.status {
                Status::Open => "open".to_string(),
                Status::Discharged { method, pack, .. } => {
                    format!("discharged[{}:{pack}]", method.id())
                }
            };
            let _ = writeln!(got, "{:016x} {status} {d}", d.fingerprint);
        }
        let sidecar = file.with_extension("expected");
        let want =
            std::fs::read_to_string(&sidecar).map_err(|e| format!("{}: {e}", sidecar.display()))?;
        if got != want {
            return Err(format!(
                "{} differs from its .expected file",
                file.display()
            ));
        }
    }
    Ok(files.len())
}
