//! `sim_scale`: POPS-like and PERO-like traces at 8 and 64 CPUs,
//! decoded, measured and replayed through every bus protocol plus
//! Software-Flush on a 6-stage network, on one thread.

use serde::{Deserialize, Serialize, Value};
use swcc_sim::measure::measure_workload;
use swcc_sim::{simulate, ProtocolKind, SimConfig, SimReport};
use swcc_trace::io::{read_binary, write_binary};
use swcc_trace::stats::TraceStats;
use swcc_trace::synth::{Preset, SynthConfig};

use crate::checks;
use crate::measure::{self, median, timed, Outcome};

/// The traces: (preset, processors, instructions per processor). At 64
/// CPUs the simulator's per-access scheduler scan and snoop are O(P),
/// so the two sizes stress it differently. Caches start empty. The
/// 8-CPU replays take a tenth of the 64-CPU ones; with four 8-CPU
/// traces they make 20 of a round's 32 `simulate` calls, so the median
/// call lies inside the short group rather than on the edge between
/// the two, where it would jump with the seed.
const TRACES: [(Preset, u16, usize); 6] = [
    (Preset::Pops, 8, 40_000),
    (Preset::Pero, 8, 40_000),
    (Preset::Pops, 8, 40_000),
    (Preset::Pero, 8, 40_000),
    (Preset::Pops, 64, 16_000),
    (Preset::Pero, 64, 16_000),
];
/// Network stages for the Software-Flush run: 2^6 = 64 processors.
const NETWORK_STAGES: u32 = 6;
const BLOCK_BITS: u32 = 4;
const SETUP_REPEATS: usize = 5;
const MIN_ROUNDS: usize = 3;

/// Short metric name of a protocol.
fn key(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::Base => "base",
        ProtocolKind::NoCache => "no_cache",
        ProtocolKind::SoftwareFlush => "software_flush",
        ProtocolKind::Dragon => "dragon",
        ProtocolKind::WriteInvalidate => "write_invalidate",
    }
}

/// `simulate` calls per round on a trace of `cpus` processors: every
/// bus protocol, plus the network run at 64 CPUs.
fn sims_on(cpus: u16) -> u64 {
    ProtocolKind::ALL.len() as u64 + u64::from(cpus == 1 << NETWORK_STAGES)
}

/// One encoded trace and what the checks expect of its replay.
struct Input {
    preset: Preset,
    cpus: u16,
    bytes: Vec<u8>,
    accesses: u64,
    counts: Vec<[u64; 3]>,
    base_misses: Vec<[u64; 2]>,
}

/// The preset with flush records at each critical-section release, so
/// Software-Flush has flushes to act on. The other protocols skip them,
/// and the generator draws the same references with or without them.
fn with_flushes(config: &SynthConfig) -> Result<SynthConfig, String> {
    let Value::Object(mut fields) = config.to_value() else {
        return Err("a synthesis config is not an object".into());
    };
    let flag = fields
        .iter_mut()
        .find(|(name, _)| name == "emit_flushes")
        .ok_or("a synthesis config has no emit_flushes")?;
    flag.1 = Value::Bool(true);
    SynthConfig::from_value(&Value::Object(fields)).map_err(|e| e.to_string())
}

/// Synthesizes and encodes every trace; returns the inputs and the
/// synthesis seconds per trace.
fn setup(seed: u64) -> Result<(Vec<Input>, Vec<f64>), String> {
    let mut inputs = Vec::new();
    let mut synth_s = Vec::new();
    for (i, &(preset, cpus, instructions)) in TRACES.iter().enumerate() {
        let config = with_flushes(&preset.config(cpus, instructions, seed ^ i as u64))?;
        let (trace, t) = timed(|| config.generate());
        synth_s.push(t);
        let mut bytes = Vec::new();
        write_binary(&trace, &mut bytes).map_err(|e| e.to_string())?;
        inputs.push(Input {
            preset,
            cpus,
            bytes,
            accesses: trace.len() as u64,
            counts: Vec::new(),
            base_misses: Vec::new(),
        });
    }
    Ok((inputs, synth_s))
}

/// The timings and outputs of one trace's replay in one round.
struct Replay {
    decode_s: f64,
    stats_s: f64,
    measure_s: f64,
    /// (protocol key, seconds, report); the network run is keyed "network".
    sims: Vec<(&'static str, f64, SimReport)>,
    instructions: u64,
}

fn replay(input: &Input) -> Result<Replay, String> {
    let (trace, decode_s) = timed(|| read_binary(input.bytes.as_slice()));
    let trace = trace.map_err(|e| format!("decoding {} x{}: {e}", input.preset, input.cpus))?;
    let (stats, stats_s) = timed(|| TraceStats::measure(&trace, BLOCK_BITS));
    let (_, measure_s) = timed(|| measure_workload(&trace, &SimConfig::new(ProtocolKind::Dragon)));
    let mut sims = Vec::new();
    for protocol in ProtocolKind::ALL {
        let config = SimConfig::new(protocol);
        let (report, t) = timed(|| simulate(&trace, &config));
        sims.push((key(protocol), t, report));
    }
    if input.cpus == 1 << NETWORK_STAGES {
        let mut config = SimConfig::builder(ProtocolKind::SoftwareFlush);
        config.network(NETWORK_STAGES);
        let config = config.build();
        let (report, t) = timed(|| simulate(&trace, &config));
        sims.push(("network", t, report));
    }
    Ok(Replay {
        decode_s,
        stats_s,
        measure_s,
        sims,
        instructions: stats.instructions(),
    })
}

fn check(inputs: &[Input], replays: &[Replay], first: Option<&[Replay]>) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, (input, replay)) in inputs.iter().zip(replays).enumerate() {
        let label = format!("{} x{}", input.preset, input.cpus);
        let fetches: u64 = input.counts.iter().map(|c| c[0]).sum();
        if replay.instructions != fetches {
            failures.push(format!(
                "{label}: TraceStats counts {} instructions, trace holds {fetches}",
                replay.instructions
            ));
        }
        let mut base = None;
        let mut others = Vec::new();
        for (name, _, report) in &replay.sims {
            let label = format!("{label} {name}");
            failures.extend(checks::report_counts(&label, report, &input.counts));
            match *name {
                "base" => {
                    failures.extend(checks::base_report_misses(
                        &label,
                        report,
                        &input.base_misses,
                    ));
                    base = Some(report.power());
                }
                "network" => failures.extend(checks::power_order(
                    &label,
                    usize::from(input.cpus),
                    report.power(),
                    &[],
                )),
                _ => others.push((name.to_string(), report.power())),
            }
        }
        match base {
            Some(base) => failures.extend(checks::power_order(
                &label,
                usize::from(input.cpus),
                base,
                &others,
            )),
            None => failures.push(format!("{label}: no Base run")),
        }
        // A deterministic simulator replays the same trace identically.
        if let Some(first) = first {
            for ((name, _, a), (_, _, b)) in replay.sims.iter().zip(&first[i].sims) {
                if a != b {
                    failures.push(format!(
                        "{label} {name}: report differs from the first round's"
                    ));
                }
            }
        }
    }
    failures
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut synth_times: Vec<Vec<f64>> = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, t) = timed(|| setup(seed));
        let (built, synth_s) = built?;
        setup_times.push(t);
        synth_times.push(synth_s);
        inputs = built;
    }
    // The checks' expectations, from the benchmark's own counting.
    for input in &mut inputs {
        let trace = read_binary(input.bytes.as_slice()).map_err(|e| e.to_string())?;
        input.counts = checks::record_counts(&trace);
        let config = SimConfig::new(ProtocolKind::Base);
        input.base_misses = checks::base_misses(
            &trace,
            config.cache_bytes(),
            config.ways(),
            config.block_bits(),
        );
    }

    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut walls = Vec::new();
    let mut all: Vec<Vec<Replay>> = Vec::new();
    let attempts = measure::rounds(seconds, MIN_ROUNDS, |_| {
        let (replays, wall) = timed(|| inputs.iter().map(replay).collect::<Vec<_>>());
        // A trace that does not decode has none of its `simulate` calls
        // run; they count as failed and the round is not timed.
        for (input, r) in inputs.iter().zip(&replays) {
            if let Err(e) = r {
                failed += sims_on(input.cpus);
                errors.push(e.clone());
            }
        }
        if let Ok(replays) = replays.into_iter().collect::<Result<Vec<_>, _>>() {
            failures.extend(check(&inputs, &replays, all.first().map(Vec::as_slice)));
            walls.push(wall);
            all.push(replays);
        }
        Ok(())
    })?;
    let sims_per_round: u64 = inputs.iter().map(|i| sims_on(i.cpus)).sum();
    let attempted = sims_per_round * attempts.len() as u64;
    if all.is_empty() {
        return Err(format!(
            "no round completed ({failed} of {attempted} simulate calls failed): {}",
            errors.first().map_or("", String::as_str)
        ));
    }

    let replayed_per_round: u64 = inputs
        .iter()
        .map(|input| input.accesses * sims_on(input.cpus))
        .sum();
    let mut outcome = Outcome::new(attempted, failed, &failures);
    outcome
        .notes
        .extend(errors.iter().take(5).map(|e| format!("FAILED: {e}")));
    outcome.notes.push(format!(
        "sim_scale: {} rounds; {} accesses in {} traces, {replayed_per_round} replayed per round",
        all.len(),
        inputs.iter().map(|i| i.accesses).sum::<u64>(),
        inputs.len()
    ));
    let op_times: Vec<Vec<f64>> = all
        .iter()
        .map(|replays| {
            replays
                .iter()
                .flat_map(|r| r.sims.iter().map(|s| s.1))
                .collect()
        })
        .collect();
    outcome.note_rounds(&walls, &op_times);
    if trace {
        outcome.metric("traced_wall_s", median(&walls), "s");
        layer_metrics(&mut outcome, &inputs, &all, &synth_times);
    } else {
        outcome.end_to_end(
            median(&setup_times),
            &walls,
            replayed_per_round as f64,
            &op_times,
        )?;
    }
    Ok(outcome)
}

/// Per-layer rates: for each layer call, the accesses of the traces it
/// covers over its seconds on them, the median over the rounds.
fn layer_metrics(
    outcome: &mut Outcome,
    inputs: &[Input],
    all: &[Vec<Replay>],
    synth_times: &[Vec<f64>],
) {
    let rate = |select: &dyn Fn(usize, &Replay) -> Option<f64>| -> f64 {
        let per_round: Vec<f64> = all
            .iter()
            .map(|replays| {
                let (mut accesses, mut secs) = (0.0, 0.0);
                for (i, r) in replays.iter().enumerate() {
                    if let Some(t) = select(i, r) {
                        accesses += inputs[i].accesses as f64;
                        secs += t;
                    }
                }
                accesses / secs
            })
            .collect();
        median(&per_round)
    };
    for preset in [Preset::Pops, Preset::Pero] {
        let per_setup: Vec<f64> = synth_times
            .iter()
            .map(|times| {
                let (mut accesses, mut secs) = (0.0, 0.0);
                for (input, t) in inputs.iter().zip(times) {
                    if input.preset == preset {
                        accesses += input.accesses as f64;
                        secs += t;
                    }
                }
                accesses / secs
            })
            .collect();
        outcome.metric(
            format!(
                "synth.accesses_per_s.{}",
                preset.name().to_ascii_lowercase()
            ),
            median(&per_setup),
            "1/s",
        );
    }
    outcome.metric(
        "io.decode_accesses_per_s",
        rate(&|_, r| Some(r.decode_s)),
        "1/s",
    );
    outcome.metric("stats.accesses_per_s", rate(&|_, r| Some(r.stats_s)), "1/s");
    for cpus in [8u16, 64] {
        outcome.metric(
            format!("measure.accesses_per_s.{cpus}"),
            rate(&|i, r| (inputs[i].cpus == cpus).then_some(r.measure_s)),
            "1/s",
        );
    }
    let names: Vec<&str> = ProtocolKind::ALL
        .into_iter()
        .map(key)
        .chain(["network"])
        .collect();
    for name in &names {
        for cpus in [8u16, 64] {
            if *name == "network" && cpus != 64 {
                continue;
            }
            let sim_time = |i: usize, r: &Replay| -> Option<f64> {
                if inputs[i].cpus != cpus {
                    return None;
                }
                r.sims.iter().find(|s| s.0 == *name).map(|s| s.1)
            };
            outcome.metric(
                format!("sim.accesses_per_s.{name}.{cpus}"),
                rate(&sim_time),
                "1/s",
            );
        }
    }
    for name in &names {
        let cycles: u64 = all[0]
            .iter()
            .flat_map(|r| r.sims.iter().filter(|s| s.0 == *name))
            .map(|s| s.2.makespan())
            .sum();
        outcome.metric(format!("sim.cycles.{name}"), cycles as f64, "cycles");
    }
}
