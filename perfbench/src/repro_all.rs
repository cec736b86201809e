//! `repro_all`: every registered experiment at full size through the
//! runner on `nproc` workers — what `repro all` costs its user.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

use swcc_core::demand::{scheme_demand, Demand};
use swcc_core::prelude::{BusSystemModel, Scheme, WorkloadParams};
use swcc_experiments::figures;
use swcc_experiments::registry::{Experiment, RunOptions, EXPERIMENTS};
use swcc_experiments::runner::{run_selected, RunRecord};
use swcc_experiments::validation::ValidationOptions;

use crate::checks;
use crate::measure::{self, median, timed, Outcome};

/// The experiments timed one by one: the six that replay traces through
/// the simulator, plus `ext_invalidate`, which is model-only but is
/// timed beside them. `runner.model_only_s` sums the other 19.
pub const TIMED_APART: [&str; 7] = [
    "fig1",
    "fig2",
    "fig3",
    "ext_netsim",
    "ext_service",
    "ext_invalidate",
    "ext_tracenet",
];

const MIN_ROUNDS: usize = 3;

/// Everything a round needs.
struct Setup {
    experiments: Vec<&'static Experiment>,
    options: RunOptions,
    jobs: NonZeroUsize,
    /// Per bus figure: (id, series name → demand) for the MVA check.
    bus_demands: Vec<(&'static str, Vec<(String, Demand)>)>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let system = BusSystemModel::new();
    let mut bus_demands = Vec::new();
    for (id, workload) in [
        ("fig4", figures::low_sharing_workload()),
        ("fig5", WorkloadParams::default()),
        ("fig6", figures::high_sharing_workload()),
    ] {
        let mut demands = Vec::new();
        for scheme in Scheme::ALL {
            let d = scheme_demand(scheme, &workload, &system).map_err(|e| e.to_string())?;
            demands.push((scheme.to_string(), d));
        }
        bus_demands.push((id, demands));
    }
    Ok(Setup {
        experiments: EXPERIMENTS.iter().collect(),
        options: RunOptions {
            validation: ValidationOptions {
                seed,
                ..ValidationOptions::default()
            },
            ..RunOptions::default()
        },
        jobs: NonZeroUsize::new(measure::nproc()).expect("nproc is at least 1"),
        bus_demands,
    })
}

/// Checks one round's artifacts; returns failures and the worst fig1–3
/// model-vs-simulation error.
fn check(setup: &Setup, records: &[RunRecord]) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let mut worst: f64 = 0.0;
    let ids: Vec<&str> = records.iter().map(|r| r.id).collect();
    let want: Vec<&str> = setup.experiments.iter().map(|e| e.id).collect();
    if ids != want {
        failures.push(format!("runner returned {ids:?}, expected {want:?}"));
    }
    let find = |id: &str| records.iter().find(|r| r.id == id).map(|r| &r.artifact);
    match find("table1").and_then(|a| a.as_table()) {
        Some(t) => failures.extend(checks::table1(t)),
        None => failures.push("table1 missing or not a table".into()),
    }
    for (id, demands) in &setup.bus_demands {
        match find(id).and_then(|a| a.as_figure()) {
            Some(f) => failures.extend(checks::bus_figure(id, f, demands)),
            None => failures.push(format!("{id} missing or not a figure")),
        }
    }
    for id in ["fig1", "fig2", "fig3"] {
        match find(id).and_then(|a| a.as_figure()) {
            Some(f) => {
                let (f_failures, f_worst) = checks::validation_figure(id, f);
                failures.extend(f_failures);
                worst = worst.max(f_worst);
            }
            None => failures.push(format!("{id} missing or not a figure")),
        }
    }
    (failures, worst)
}

/// A round whose experiments all completed.
struct Round {
    wall: f64,
    records: Vec<RunRecord>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let setup = setup(seed)?;
    let per_round = setup.experiments.len() as u64;
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut worst_error: f64 = 0.0;
    // The runner re-raises an experiment's panic once the others finish;
    // such a round counts all its experiments as failed and is not timed.
    let mut round = || {
        let (records, wall) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_selected(&setup.experiments, &setup.options, setup.jobs)
            }))
        });
        let Ok(records) = records else {
            failed += per_round;
            return (wall, None);
        };
        let (f, w) = check(&setup, &records);
        failures.extend(f);
        worst_error = worst_error.max(w);
        (wall, Some(Round { wall, records }))
    };
    // Nothing needs building before `repro all` runs, so its set-up is
    // the first round in this fresh process: worker start, heap growth
    // and whatever the program fills lazily. The timed rounds follow it.
    let (setup_s, _) = round();
    let attempts = measure::rounds(seconds, MIN_ROUNDS, |_| Ok(round().1))?;
    let attempted = per_round * (1 + attempts.len() as u64);
    let rounds: Vec<Round> = attempts.into_iter().flatten().collect();
    if rounds.is_empty() {
        return Err(format!(
            "every round panicked ({failed} of {attempted} experiments failed)"
        ));
    }

    let mut outcome = Outcome::new(attempted, failed, &failures);
    outcome.notes.push(format!(
        "repro_all: {} rounds of {per_round} experiments on {} workers; worst fig1-3 model-vs-sim error {worst_error:.4}",
        rounds.len(),
        setup.jobs
    ));
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    // An experiment's latency is what the user of `repro all` waits for
    // its artifact: from the batch's start until the experiment ends.
    let op_times: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| {
            r.records
                .iter()
                .map(|x| (x.queue_wait + x.duration).as_secs_f64())
                .collect()
        })
        .collect();
    outcome.note_rounds(&walls, &op_times);
    if trace {
        let workers = setup.jobs.get() as f64;
        // Each quantity's median over the rounds.
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let durations = |r: &Round, keep: &dyn Fn(&str) -> bool| -> f64 {
            r.records
                .iter()
                .filter(|x| keep(x.id))
                .map(|x| x.duration.as_secs_f64())
                .sum()
        };
        outcome.metric("traced_wall_s", median(&walls), "s");
        outcome.metric(
            "runner.critical_path_s",
            per_round(&|r| {
                r.records
                    .iter()
                    .map(|x| x.duration.as_secs_f64())
                    .fold(0.0, f64::max)
            }),
            "s",
        );
        outcome.metric(
            "runner.worker_idle_s",
            per_round(&|r| workers * r.wall - durations(r, &|_| true)),
            "s",
        );
        for id in TIMED_APART {
            outcome.metric(
                format!("runner.experiment_s.{id}"),
                per_round(&|r| durations(r, &|x| x == id)),
                "s",
            );
        }
        outcome.metric(
            "runner.model_only_s",
            per_round(&|r| durations(r, &|x| !TIMED_APART.contains(&x))),
            "s",
        );
    } else {
        outcome.end_to_end(setup_s, &walls, per_round as f64, &op_times)?;
    }
    Ok(outcome)
}
