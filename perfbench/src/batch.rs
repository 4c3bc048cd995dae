//! The `batch` and `recursive` workloads: cold, cache-off `pipeline::run`
//! over a generated directory, as a CI `sga check` runs it.
//!
//! The timed runs use one job. On a shared 2-CPU host, jobs-2 wall times
//! spread about 22% across seeds (the slower of two shared cores sets the
//! wall), too close to the largest bound an end-to-end metric may have; so
//! the unit scheduler runs at `PAR_JOBS` in an untimed run that must
//! reproduce the report, and in the traced run's `par.*` probe.

use crate::corpus::{self, Shape};
use crate::replica::{self, Counters};
use crate::trace::Trace;
use crate::{checks, layer_self_ms, median, peak_rss_mb, percentile, Args, Measured};
use sga_core::triage::TriageMode;
use sga_pipeline::{analyze_units, assemble_report, load_project, par};
use sga_pipeline::{PipelineOptions, Project};
use sga_utils::Json;
use std::path::Path;
use std::time::Instant;

/// One batch-style workload.
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub triage: TriageMode,
}

/// Octagon triage dominates under the default `both` triage.
pub const BATCH: Workload = Workload {
    name: "batch",
    shape: corpus::BATCH,
    triage: TriageMode::Both,
};

/// The sparse interval fixpoint dominates; `path` triage runs no octagon.
pub const RECURSIVE: Workload = Workload {
    name: "recursive",
    shape: corpus::RECURSIVE,
    triage: TriageMode::Path,
};

/// Worker threads of the untimed scheduler check and probe.
const PAR_JOBS: usize = 2;

/// Set-ups before each timed run (they are cheap). The median of all of
/// them is kept, so the samples spread over the run.
const SETUP_REPS: usize = 5;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

pub fn run(w: &Workload, args: &Args, work: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let dir = work.join("corpus");
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());

    let project = Project::Dir(dir.clone());
    // Set-up: generate and write the inputs, then load them as the program
    // does (`pipeline::run` loads them again by itself).
    let set_up = || -> Result<f64, String> {
        let (loaded, secs) = timed(|| {
            corpus::write_dir(&dir, &w.shape.generate(args.seed)).map_err(io)?;
            load_project(&project).map_err(|e| e.to_string())
        });
        if loaded?.len() != w.shape.units {
            return Err(format!("{}: not every unit was loaded", dir.display()));
        }
        Ok(secs)
    };

    let options = PipelineOptions {
        jobs: 1,
        canonical: true,
        triage: w.triage,
        ..PipelineOptions::default()
    };
    let analyze =
        |options: &PipelineOptions| sga_pipeline::run(&project, options).map_err(|e| e.to_string());

    // Timed: cold runs until the time is up (at least two, so the reports
    // can be compared), each after a few set-ups.
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut peak = 0.0;
    let mut reference: Option<(Json, String)> = None;
    while walls.len() < 2 || start.elapsed() < args.seconds {
        for _ in 0..SETUP_REPS {
            setup.push(set_up()?);
        }
        let (report, secs) = timed(|| analyze(&options));
        let report = report?;
        if walls.is_empty() {
            // The peak of one cold run in a fresh process.
            peak = peak_rss_mb();
        }
        walls.push(secs);
        m.attempted += checks::units(&report).len();
        m.failed += checks::failed_units(&report);
        let text = report.to_pretty();
        match &reference {
            None => reference = Some((report, text)),
            Some((_, first)) if *first != text => m
                .errors
                .push("canonical report differs between runs".into()),
            Some(_) => {}
        }
    }
    let (report, text) = reference.expect("at least one run");

    // Untimed checks.
    let par_report = analyze(&PipelineOptions {
        jobs: PAR_JOBS,
        ..options.clone()
    })?;
    m.attempted += checks::units(&par_report).len();
    m.failed += checks::failed_units(&par_report);
    if par_report.to_pretty() != text {
        m.errors
            .push(format!("jobs {PAR_JOBS} and jobs 1 reports differ"));
    }
    if let Err(e) = checks::golden_alarms(Path::new("tests/alarms")) {
        m.errors.push(e);
    }

    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    m.e2e.insert("setup_s", median(&setup));
    let wall_s = median(&walls);
    m.e2e.insert("analyze_s", wall_s);
    m.e2e.insert("edit_p50_ms", percentile(&ms, 50.0));
    m.e2e.insert("edit_p90_ms", percentile(&ms, 90.0));
    m.e2e.insert("peak_rss_mb", peak);
    m.info = Json::obj()
        .with("workload", w.name)
        .with("seed", args.seed as f64)
        .with("shape", w.shape.to_json(args.seed))
        .with("jobs", 1usize)
        .with("triage", w.triage.name())
        .with("runs", walls.len())
        .with(
            "walls_s",
            walls.iter().map(|&w| Json::from(w)).collect::<Vec<_>>(),
        )
        .with("setup_reps", setup.len());

    if args.trace {
        // The validation oracle re-checks every fixpoint in both domains:
        // a deep check that costs more than the whole untraced run, so it
        // rides with the traced run.
        let validated = analyze(&PipelineOptions {
            jobs: PAR_JOBS,
            validate: true,
            ..options.clone()
        })?;
        m.attempted += checks::units(&validated).len();
        m.failed += checks::failed_units(&validated);
        if checks::total(&validated, "invalid") > 0 {
            m.errors
                .push("the validation oracle found invalid units".into());
        }
        traced(w, &options, &project, &report, wall_s, &mut m)?;
    }
    Ok(m)
}

/// The traced replica of one cold run, unit by unit, then the report
/// assembly, then a probe of the unit scheduler at `PAR_JOBS`.
fn traced(
    w: &Workload,
    options: &PipelineOptions,
    project: &Project,
    report: &Json,
    wall_s: f64,
    m: &mut Measured,
) -> Result<(), String> {
    let inputs = load_project(project).map_err(|e| e.to_string())?;
    let entries = checks::units(report);
    let trace = Trace::new(format!("{}-{}", w.name, std::process::id()));
    let mut counters = Counters::default();
    let mut errors = Vec::new();
    let (root, report_bytes) = trace.span(None, "run", "", |root| {
        for (input, entry) in inputs.iter().zip(entries) {
            let a = trace.span(Some(root), "unit", &input.name, |u| {
                replica::analyze_unit(
                    &trace,
                    u,
                    &input.name,
                    &input.source,
                    options,
                    &mut counters,
                )
            });
            if let Err(e) = a.and_then(|a| replica::matches_entry(&a, entry)) {
                errors.push(e);
            }
        }
        let assembled = trace.span(Some(root), "report.assemble", "", |_| {
            assemble_report(entries.to_vec(), options)
        });
        let bytes = match assembled {
            Ok(r) if r.to_pretty() == report.to_pretty() => r.to_pretty().len(),
            _ => {
                errors.push("assemble_report does not reproduce the run report".into());
                0
            }
        };
        (root, bytes)
    });
    m.errors.extend(errors);
    m.errors.extend(counters.mismatches.iter().cloned());
    let replica_ms = trace.duration(root).as_secs_f64() * 1e3 - counters.probe_ms;

    let (busy, wall) = timed(|| {
        trace.span(None, "par.probe", "", |p| {
            par::run_indexed(PAR_JOBS, &inputs, |_, input| {
                trace.span(Some(p), "par.unit", &input.name, |_| {
                    timed(|| analyze_units(std::slice::from_ref(input), options, None)).1
                })
            })
        })
    });
    let busy_ms = busy.iter().sum::<f64>() * 1e3;
    let idle_ms = PAR_JOBS as f64 * wall * 1e3 - busy_ms;

    let l = &mut m.layers;
    crate::layer_metrics(l, &trace, &counters);
    l.insert("report.alarms_open", checks::total(report, "alarms") as f64);
    l.insert("par.busy_ms", busy_ms);
    l.insert("par.idle_ms", idle_ms);
    l.insert("report.bytes", report_bytes as f64);
    l.insert("trace.overhead_ms", replica_ms - wall_s * 1e3);
    l.insert(
        "trace.unattributed_ms",
        wall_s * 1e3 - layer_self_ms(&trace, &["report.assemble"]),
    );
    m.trace = Some(trace);
    Ok(())
}
