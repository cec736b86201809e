//! Correctness checks. Each one recomputes its expectation from the
//! paper or from first principles inside the benchmark, never from a
//! stored copy of an earlier run's output, and returns the reasons it
//! failed (empty when it holds).

use std::collections::HashMap;

use swcc_core::demand::Demand;
use swcc_experiments::artifact::{Figure, Table};
use swcc_sim::SimReport;
use swcc_trace::{AccessKind, Trace};

/// Table 1 of the paper: (operation, CPU cycles, bus cycles), typed in
/// from the paper rather than read from the model.
pub const TABLE1: [(&str, u32, u32); 11] = [
    ("instruction execution", 1, 0),
    ("clean miss (mem)", 10, 7),
    ("dirty miss (mem)", 14, 11),
    ("read through", 5, 4),
    ("write through", 2, 1),
    ("clean flush", 1, 0),
    ("dirty flush", 6, 4),
    ("write broadcast", 2, 1),
    ("clean miss (cache)", 9, 6),
    ("dirty miss (cache)", 13, 10),
    ("cycle stealing", 1, 0),
];

/// The model-vs-simulation bound on fig1–3 that the repository's tests
/// also use: the paper reports the bus model overestimating contention
/// against its fixed-service simulator, by well under this.
pub const VALIDATION_BOUND: f64 = 0.35;

/// Relative tolerance between the model's bus power and the
/// benchmark's own MVA recursion.
pub const MVA_REL_TOL: f64 = 1e-9;

/// Per-processor (fetch, load, store) record counts of a trace.
pub fn record_counts(trace: &Trace) -> Vec<[u64; 3]> {
    let mut counts = vec![[0u64; 3]; usize::from(trace.cpus())];
    for a in trace {
        let slot = match a.kind {
            AccessKind::Fetch => 0,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
            AccessKind::Flush => continue,
        };
        counts[a.cpu.index()][slot] += 1;
    }
    counts
}

/// Every processor executed exactly the instructions, loads and stores
/// its trace holds.
pub fn report_counts(label: &str, report: &SimReport, counts: &[[u64; 3]]) -> Vec<String> {
    let mut failures = Vec::new();
    if report.cpus() != counts.len() {
        failures.push(format!(
            "{label}: report has {} cpus, trace {}",
            report.cpus(),
            counts.len()
        ));
        return failures;
    }
    for (cpu, want) in counts.iter().enumerate() {
        let c = report.counters(cpu);
        let got = [c.instructions, c.data_reads, c.data_writes];
        if got != *want {
            failures.push(format!(
                "{label}: cpu {cpu} (instructions, loads, stores) = {got:?}, trace holds {want:?}"
            ));
        }
    }
    failures
}

/// A true-LRU set-associative cache that only counts misses: the
/// benchmark's own model of one Base-protocol processor cache.
pub struct LruModel {
    sets: Vec<Vec<u64>>,
    ways: usize,
    block_bits: u32,
}

impl LruModel {
    pub fn new(cache_bytes: u64, ways: usize, block_bits: u32) -> Self {
        let sets = (cache_bytes >> block_bits) as usize / ways;
        LruModel {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            block_bits,
        }
    }

    /// Touches the block holding `addr`; true on a miss.
    pub fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.block_bits;
        let index = (block % self.sets.len() as u64) as usize;
        let set = &mut self.sets[index];
        match set.iter().position(|&b| b == block) {
            Some(pos) => {
                set.remove(pos);
                set.insert(0, block);
                false
            }
            None => {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, block);
                true
            }
        }
    }
}

/// Per-processor (instruction misses, data misses) under Base: every
/// processor has a private cache and Base never consults another, so
/// the counts do not depend on how the processors interleave.
pub fn base_misses(trace: &Trace, cache_bytes: u64, ways: usize, block_bits: u32) -> Vec<[u64; 2]> {
    let cpus = usize::from(trace.cpus());
    let mut caches: Vec<LruModel> = (0..cpus)
        .map(|_| LruModel::new(cache_bytes, ways, block_bits))
        .collect();
    let mut misses = vec![[0u64; 2]; cpus];
    for a in trace {
        let slot = match a.kind {
            AccessKind::Fetch => 0,
            AccessKind::Load | AccessKind::Store => 1,
            AccessKind::Flush => continue,
        };
        if caches[a.cpu.index()].access(a.addr.0) {
            misses[a.cpu.index()][slot] += 1;
        }
    }
    misses
}

pub fn base_report_misses(label: &str, report: &SimReport, want: &[[u64; 2]]) -> Vec<String> {
    let mut failures = Vec::new();
    for (cpu, want) in want.iter().enumerate() {
        let c = report.counters(cpu);
        let got = [c.instr_misses, c.data_misses];
        if got != *want {
            failures.push(format!(
                "{label}: cpu {cpu} Base (instruction, data) misses = {got:?}, LRU model gives {want:?}"
            ));
        }
    }
    failures
}

/// No protocol out-computes Base, and no machine out-computes its
/// processor count.
pub fn power_order(label: &str, cpus: usize, base: f64, others: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, power) in std::iter::once(&("Base".to_string(), base)).chain(others) {
        if !(power.is_finite() && *power > 0.0 && *power <= cpus as f64) {
            failures.push(format!("{label}: {name} power {power} outside (0, {cpus}]"));
        }
    }
    for (name, power) in others {
        if *power > base {
            failures.push(format!("{label}: {name} power {power} exceeds Base {base}"));
        }
    }
    failures
}

/// Table 1 as rendered equals the paper's constants.
pub fn table1(table: &Table) -> Vec<String> {
    let rows: Vec<(String, String, String)> = table
        .rows
        .iter()
        .map(|r| {
            let cell = |i: usize| r.get(i).cloned().unwrap_or_default();
            (cell(0), cell(1), cell(2))
        })
        .collect();
    let want: Vec<(String, String, String)> = TABLE1
        .iter()
        .map(|(op, cpu, bus)| (op.to_string(), cpu.to_string(), bus.to_string()))
        .collect();
    if rows == want {
        Vec::new()
    } else {
        vec![format!(
            "table1 rows {rows:?} differ from the paper's {want:?}"
        )]
    }
}

/// Processing power `n / (c + w)` from exact machine-repairman MVA,
/// written out here independently of the model's solvers.
pub fn mva_power(processors: u32, demand: &Demand) -> f64 {
    let service = demand.interconnect();
    let think = demand.think_time();
    let mut queue = 0.0;
    let mut response = 0.0;
    for k in 1..=processors {
        response = service * (1.0 + queue);
        let throughput = f64::from(k) / (think + response);
        queue = throughput * response;
    }
    let waiting = (response - service).max(0.0);
    f64::from(processors) / (demand.cpu() + waiting)
}

/// A bus figure (fig4–6): each scheme's curve equals the benchmark's
/// MVA on that scheme's demand, and Base is at or above every scheme.
/// `demands` maps series name to demand.
pub fn bus_figure(id: &str, fig: &Figure, demands: &[(String, Demand)]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut curves: HashMap<&str, &[(f64, f64)]> = HashMap::new();
    for (name, demand) in demands {
        let Some(series) = fig.series_named(name) else {
            failures.push(format!("{id}: no series {name}"));
            continue;
        };
        if series.points.is_empty() {
            failures.push(format!("{id}: series {name} is empty"));
        }
        for &(n, power) in &series.points {
            let want = mva_power(n as u32, demand);
            if power.is_nan() || (power - want).abs() > MVA_REL_TOL * want.abs() {
                failures.push(format!(
                    "{id}: {name} n={n} power {power}, exact MVA {want}"
                ));
            }
        }
        curves.insert(name, &series.points);
    }
    if let Some(base) = curves.get("Base") {
        for (name, points) in &curves {
            for (&(n, power), &(_, base_power)) in points.iter().zip(base.iter()) {
                if power > base_power {
                    failures.push(format!(
                        "{id}: {name} n={n} power {power} above Base {base_power}"
                    ));
                }
            }
        }
    } else {
        failures.push(format!("{id}: no Base series"));
    }
    failures
}

/// A validation figure (fig1–3): every model point lies within
/// [`VALIDATION_BOUND`] of its simulated point. Returns the failures
/// and the worst relative error seen.
pub fn validation_figure(id: &str, fig: &Figure) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let mut worst: f64 = 0.0;
    let mut pairs = 0;
    for sim in &fig.series {
        let Some(stem) = sim.name.strip_suffix(" sim") else {
            continue;
        };
        let Some(model) = fig.series_named(&format!("{stem} model")) else {
            failures.push(format!("{id}: series {} has no model partner", sim.name));
            continue;
        };
        if model.points.len() != sim.points.len() || sim.points.is_empty() {
            failures.push(format!(
                "{id}: {stem} sim/model point counts differ or are empty"
            ));
            continue;
        }
        pairs += 1;
        for (&(n, s), &(_, m)) in sim.points.iter().zip(&model.points) {
            let err = (m - s).abs() / s;
            if !(s > 0.0 && err <= VALIDATION_BOUND) {
                failures.push(format!(
                    "{id}: {stem} n={n} model {m} vs simulated {s}: error {err} over {VALIDATION_BOUND}"
                ));
            }
            if err.is_finite() {
                worst = worst.max(err);
            }
        }
    }
    if pairs == 0 {
        failures.push(format!("{id}: no sim/model series pairs"));
    }
    (failures, worst)
}

/// Request probability at the memory side of `stages` 2×2 crossbar
/// stages for offered load `m0` (Patel): `m' = 1 − (1 − m/2)²`.
pub fn patel_propagate(m0: f64, stages: u32) -> f64 {
    let mut m = m0.clamp(0.0, 1.0);
    for _ in 0..stages {
        let pass = 1.0 - m / 2.0;
        m = 1.0 - pass * pass;
    }
    m
}

/// A served network point solves Patel's fixed point
/// `propagate(1 − U) = U·m·t` to within `tolerance` in `U`: the
/// residual, strictly decreasing in `U`, changes sign across
/// `[U − tolerance, U + tolerance]`.
pub fn patel_point(think_fraction: f64, rate: f64, size: f64, stages: u32, tolerance: f64) -> bool {
    let demand = rate * size;
    if demand == 0.0 {
        return think_fraction == 1.0;
    }
    let residual = |u: f64| patel_propagate(1.0 - u, stages) - u * demand;
    think_fraction > 0.0
        && think_fraction <= 1.0
        && residual(think_fraction - tolerance) >= 0.0
        && residual(think_fraction + tolerance) <= 0.0
}

#[cfg(test)]
mod tests {
    //! Each check must pass on real program output and fail once one
    //! value is perturbed. The seed here is held back from the
    //! benchmark's development runs.

    use super::*;
    use swcc_core::demand::scheme_demand;
    use swcc_core::network::patel::DEFAULT_TOLERANCE;
    use swcc_core::prelude::*;
    use swcc_experiments::{figures, tables, validation};
    use swcc_sim::{simulate, ProtocolKind, SimConfig};
    use swcc_trace::synth::Preset;

    const HELD_BACK_SEED: u64 = 19_890_417;

    fn small_trace() -> Trace {
        Preset::Pero.config(4, 3_000, HELD_BACK_SEED).generate()
    }

    #[test]
    fn report_counts_match_and_reject_a_perturbed_count() {
        let trace = small_trace();
        let counts = record_counts(&trace);
        for protocol in ProtocolKind::ALL {
            let report = simulate(&trace, &SimConfig::new(protocol));
            assert!(
                report_counts("t", &report, &counts).is_empty(),
                "{protocol}"
            );
        }
        let report = simulate(&trace, &SimConfig::new(ProtocolKind::Dragon));
        let mut bad = counts.clone();
        bad[2][1] += 1;
        assert!(!report_counts("t", &report, &bad).is_empty());
    }

    #[test]
    fn base_misses_match_the_lru_model_and_reject_a_perturbed_count() {
        let trace = small_trace();
        for (bytes, ways) in [(64 * 1024, 1), (4 * 1024, 2), (2 * 1024, 4)] {
            let mut config = SimConfig::builder(ProtocolKind::Base);
            config.cache_bytes(bytes).ways(ways);
            let report = simulate(&trace, &config.build());
            let want = base_misses(&trace, bytes, ways, 4);
            assert!(
                base_report_misses("t", &report, &want).is_empty(),
                "{bytes} {ways}"
            );
            let mut bad = want.clone();
            bad[1][0] += 1;
            assert!(!base_report_misses("t", &report, &bad).is_empty());
        }
    }

    #[test]
    fn power_order_holds_and_rejects_a_protocol_above_base() {
        // Long enough to warm the caches: on a few thousand instructions
        // per CPU, cold misses on shared blocks can cost Base more bus
        // time than No-Cache's one-word read-throughs.
        let trace = Preset::Pero.config(4, 40_000, HELD_BACK_SEED).generate();
        let power = |p| simulate(&trace, &SimConfig::new(p)).power();
        let base = power(ProtocolKind::Base);
        let others: Vec<(String, f64)> = ProtocolKind::ALL[1..]
            .iter()
            .map(|&p| (p.to_string(), power(p)))
            .collect();
        assert!(power_order("t", 4, base, &others).is_empty());
        let mut above = others.clone();
        above[0].1 = base * 1.001;
        assert!(!power_order("t", 4, base, &above).is_empty());
        assert!(!power_order("t", 4, 4.01, &[]).is_empty());
    }

    #[test]
    fn table1_matches_and_rejects_a_perturbed_cost() {
        let mut table = tables::table1();
        assert!(super::table1(&table).is_empty());
        table.rows[3][2] = "5".into();
        assert!(!super::table1(&table).is_empty());
    }

    fn fig5_demands() -> Vec<(String, Demand)> {
        Scheme::ALL
            .iter()
            .map(|&s| {
                let d = scheme_demand(s, &WorkloadParams::default(), &BusSystemModel::new());
                (s.to_string(), d.unwrap())
            })
            .collect()
    }

    #[test]
    fn bus_figure_matches_exact_mva_and_rejects_perturbations() {
        let demands = fig5_demands();
        let mut fig = figures::fig5();
        assert!(bus_figure("fig5", &fig, &demands).is_empty());
        // One point off by 1e-8 relative.
        let i = fig.series.iter().position(|s| s.name == "Dragon").unwrap();
        fig.series[i].points[7].1 *= 1.0 + 1e-8;
        assert!(!bus_figure("fig5", &fig, &demands).is_empty());
        // A scheme above Base, even if the MVA check were loosened.
        let mut fig = figures::fig5();
        let b = fig.series.iter().position(|s| s.name == "Base").unwrap();
        let top = fig.series[b].points[3].1;
        fig.series[i].points[3].1 = top * 1.01;
        assert!(bus_figure("fig5", &fig, &demands)
            .iter()
            .any(|f| f.contains("above Base")));
    }

    #[test]
    fn validation_figure_holds_and_rejects_a_model_point_out_of_bound() {
        let opts = validation::ValidationOptions {
            instructions_per_cpu: 8_000,
            seed: HELD_BACK_SEED,
        };
        let mut fig = validation::fig1(&opts);
        let (failures, worst) = validation_figure("fig1", &fig);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(worst > 0.0 && worst < VALIDATION_BOUND);
        let m = fig
            .series
            .iter()
            .position(|s| s.name.ends_with(" model"))
            .unwrap();
        let sim = fig.series[m - 1].points[2].1;
        fig.series[m].points[2].1 = sim * (1.0 + VALIDATION_BOUND * 1.01);
        assert!(!validation_figure("fig1", &fig).0.is_empty());
    }

    #[test]
    fn patel_check_accepts_the_solver_and_rejects_a_shifted_root() {
        let demand = scheme_demand(
            Scheme::SoftwareFlush,
            &WorkloadParams::default(),
            &NetworkSystemModel::new(6),
        )
        .unwrap();
        let (rate, size) = (demand.transaction_rate(), demand.transaction_size());
        let point = BatchPatelSolver::new()
            .solve(&[rate], &[size], 6)
            .unwrap()
            .points()[0];
        let u = point.think_fraction();
        assert!(patel_point(u, rate, size, 6, DEFAULT_TOLERANCE));
        assert!(!patel_point(
            u + 4.0 * DEFAULT_TOLERANCE,
            rate,
            size,
            6,
            DEFAULT_TOLERANCE
        ));
        assert!(!patel_point(
            u - 4.0 * DEFAULT_TOLERANCE,
            rate,
            size,
            6,
            DEFAULT_TOLERANCE
        ));
        assert!(patel_propagate(1.0 - u, 6) > 0.0);
    }
}
