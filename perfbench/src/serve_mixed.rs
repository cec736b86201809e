//! `serve_mixed`: `swcc-serve` in this process, driven over one TCP
//! connection in a closed loop by a seeded, fixed request sequence that
//! mixes bus power, bus penalty, network power and sensitivity queries.
//! One request in [`COLD_EVERY`] carries only never-seen points (batch
//! solvers and the cache's insert path); the rest repeat earlier points
//! (cache hits). Each round starts a fresh server, so every round sees
//! the same cold/hot split.

use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Value;
use swcc_core::batch::{machine_repairman_grid, BatchPatelSolver, Stages};
use swcc_core::bus::analyze_bus;
use swcc_core::demand::scheme_demand;
use swcc_core::network::patel::DEFAULT_TOLERANCE;
use swcc_core::prelude::{BusSystemModel, NetworkSystemModel, ParamId, Scheme, WorkloadParams};
use swcc_core::sensitivity::sensitivity_table_at;
use swcc_core::workload::TABLE7_RANGES;
use swcc_serve::{parse_request, run_batch, spawn, Request, ServeConfig, ServeState};

use crate::checks;
use crate::measure::{self, median, timed, Outcome, Rng};

/// Requests per round.
const REQUESTS: usize = 2_000;
/// Request `i` is cold (all its cached points new) when `i % COLD_EVERY == 0`.
const COLD_EVERY: usize = 10;
/// Slot 3 is a sensitivity query when `i % SENSITIVITY_EVERY == 4`.
const SENSITIVITY_EVERY: usize = 8;
const BUS_SWEEP_POINTS: u32 = 8;
const NET_SWEEP_POINTS: u32 = 4;
const PROCESSORS: [u32; 6] = [2, 4, 8, 16, 32, 64];
const MIN_ROUNDS: usize = 5;

/// A solved-point cache key as the server forms it: (service bits,
/// think bits, processors or stages).
type Key = (u64, u64, u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    BusPower,
    BusPenalty,
    NetPower,
    Sensitivity,
}

/// One query: its wire form and what a correct answer is.
struct Spec {
    kind: Kind,
    scheme: Scheme,
    /// Processors (bus) or stages (network).
    machine: u32,
    json: String,
    /// Sweep values (empty without a sweep), parallel to `workloads`.
    values: Vec<f64>,
    workloads: Vec<WorkloadParams>,
    /// Cache keys of the points, parallel to `workloads` (none for
    /// sensitivity, which the server does not cache).
    keys: Vec<Key>,
}

fn fmt_f64(v: f64) -> String {
    // Display is the shortest string that parses back to the same bits.
    format!("{v}")
}

fn random_workload(rng: &mut Rng) -> (WorkloadParams, String) {
    let mut w = WorkloadParams::default();
    let mut json = String::from("{");
    for (i, id) in ParamId::ALL.iter().enumerate() {
        let range = TABLE7_RANGES.range(*id);
        let (lo, hi) = (range.low.min(range.high), range.low.max(range.high));
        let v = rng.range(lo, hi);
        w = w.with_param(*id, v).expect("Table 7 ranges are in domain");
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\":{}", id.name(), fmt_f64(v)));
    }
    json.push('}');
    (w, json)
}

fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::Base => "base",
        Scheme::NoCache => "no-cache",
        Scheme::SoftwareFlush => "software-flush",
        Scheme::Dragon => "dragon",
    }
}

fn new_spec(kind: Kind, rng: &mut Rng) -> Spec {
    let net = kind == Kind::NetPower;
    let scheme = if net {
        [Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush][rng.below(3)]
    } else {
        Scheme::ALL[rng.below(4)]
    };
    let machine = if net {
        2 + rng.below(7) as u32
    } else {
        PROCESSORS[rng.below(PROCESSORS.len())]
    };
    let (base, workload_json) = random_workload(rng);
    let machine_json = if net {
        format!("{{\"interconnect\":\"network\",\"stages\":{machine}}}")
    } else {
        format!("{{\"interconnect\":\"bus\",\"processors\":{machine}}}")
    };
    let kind_name = match kind {
        Kind::BusPower | Kind::NetPower => "power",
        Kind::BusPenalty => "penalty",
        Kind::Sensitivity => "sensitivity",
    };
    let mut json = format!(
        "{{\"kind\":\"{kind_name}\",\"scheme\":\"{}\",\"machine\":{machine_json},\"workload\":{workload_json}",
        scheme_name(scheme)
    );
    let points = match kind {
        Kind::BusPenalty => BUS_SWEEP_POINTS,
        Kind::NetPower => NET_SWEEP_POINTS,
        _ => 0,
    };
    let (mut values, mut workloads) = (Vec::new(), Vec::new());
    if points > 0 {
        let (from, to) = (rng.range(0.004, 0.014), rng.range(0.014, 0.024));
        json.push_str(&format!(
            ",\"sweep\":{{\"param\":\"msdat\",\"from\":{},\"to\":{},\"points\":{points}}}",
            fmt_f64(from),
            fmt_f64(to)
        ));
        for i in 0..points {
            // The protocol's documented expansion: evenly spaced, ends included.
            let v = from + (to - from) * f64::from(i) / f64::from(points - 1);
            values.push(v);
            workloads.push(base.with_param(ParamId::Msdat, v).expect("msdat in range"));
        }
    } else {
        workloads.push(base);
    }
    json.push('}');
    let keys = match kind {
        Kind::Sensitivity => Vec::new(),
        Kind::NetPower => workloads
            .iter()
            .map(|w| {
                let d = scheme_demand(scheme, w, &NetworkSystemModel::new(machine))
                    .expect("network schemes only");
                (
                    d.transaction_size().to_bits(),
                    d.transaction_rate().to_bits(),
                    machine,
                )
            })
            .collect(),
        _ => workloads
            .iter()
            .map(|w| {
                let d = scheme_demand(scheme, w, &BusSystemModel::new()).expect("bus is total");
                (
                    d.interconnect().to_bits(),
                    d.think_time().to_bits(),
                    machine,
                )
            })
            .collect(),
    };
    Spec {
        kind,
        scheme,
        machine,
        json,
        values,
        workloads,
        keys,
    }
}

/// The round's fixed request sequence: each request's line, the
/// indices of its specs, and whether it introduces new cached points.
struct Sequence {
    specs: Vec<Spec>,
    requests: Vec<(String, Vec<usize>)>,
    cold: Vec<bool>,
    points: u64,
    distinct: u64,
    expected_hits: u64,
}

fn sequence(seed: u64) -> Sequence {
    let mut rng = Rng::new(seed);
    let mut specs: Vec<Spec> = Vec::new();
    let mut pools: HashMap<Kind, Vec<usize>> = HashMap::new();
    let mut requests = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let fourth = if i % SENSITIVITY_EVERY == 4 {
            Kind::Sensitivity
        } else {
            Kind::BusPower
        };
        let mut ids = Vec::new();
        for kind in [Kind::BusPower, Kind::BusPenalty, Kind::NetPower, fourth] {
            let pool = pools.entry(kind).or_default();
            if i % COLD_EVERY == 0 || pool.is_empty() {
                pool.push(specs.len());
                ids.push(specs.len());
                specs.push(new_spec(kind, &mut rng));
            } else {
                ids.push(pool[rng.below(pool.len())]);
            }
        }
        let queries: Vec<&str> = ids.iter().map(|&s| specs[s].json.as_str()).collect();
        let line = format!("{{\"id\":{i},\"queries\":[{}]}}\n", queries.join(","));
        requests.push((line, ids));
    }
    // What the cache should see: bus and network keys live in separate caches.
    let mut seen: HashSet<(bool, Key)> = HashSet::new();
    let (mut points, mut hits) = (0u64, 0u64);
    let mut cold = Vec::with_capacity(REQUESTS);
    for (_, ids) in &requests {
        let mut fresh = HashSet::new();
        for &s in ids {
            let spec = &specs[s];
            points += spec.workloads.len() as u64;
            for key in &spec.keys {
                let k = (spec.kind == Kind::NetPower, *key);
                if seen.contains(&k) {
                    hits += 1;
                } else {
                    fresh.insert(k);
                }
            }
        }
        cold.push(!fresh.is_empty());
        seen.extend(fresh);
    }
    Sequence {
        specs,
        requests,
        cold,
        points,
        distinct: seen.len() as u64,
        expected_hits: hits,
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get_field(name).ok_or_else(|| format!("no \"{name}\""))
}

fn float(v: &Value, name: &str) -> Result<f64, String> {
    field(v, name)?
        .as_f64()
        .ok_or_else(|| format!("\"{name}\" is not a number"))
}

fn same(label: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{label}: served {got}, library {want}"))
    }
}

/// Checks one query's served result.
fn check_query(spec: &Spec, result: &Value) -> Result<(), String> {
    if spec.kind == Kind::Sensitivity {
        let ranking = field(result, "ranking")?
            .as_array()
            .ok_or("ranking not an array")?;
        let table =
            sensitivity_table_at(spec.machine, &spec.workloads[0]).map_err(|e| e.to_string())?;
        let want = table.ranking(spec.scheme);
        if ranking.len() != want.len() {
            return Err(format!(
                "ranking has {} entries, library {}",
                ranking.len(),
                want.len()
            ));
        }
        for (got, (param, percent)) in ranking.iter().zip(&want) {
            let name = field(got, "param")?.as_str().unwrap_or("");
            if name != param.name() {
                return Err(format!("ranking lists {name}, library {}", param.name()));
            }
            same(name, float(got, "percent")?, *percent)?;
        }
        return Ok(());
    }
    let points = field(result, "points")?
        .as_array()
        .ok_or("points not an array")?;
    if points.len() != spec.workloads.len() {
        return Err(format!(
            "{} points, expected {}",
            points.len(),
            spec.workloads.len()
        ));
    }
    for (j, (p, w)) in points.iter().zip(&spec.workloads).enumerate() {
        if let Some(v) = spec.values.get(j) {
            same("sweep value", float(p, "value")?, *v)?;
        }
        if spec.kind == Kind::NetPower {
            let d = scheme_demand(spec.scheme, w, &NetworkSystemModel::new(spec.machine))
                .map_err(|e| e.to_string())?;
            let (rate, size) = (d.transaction_rate(), d.transaction_size());
            let u = float(p, "think_fraction")?;
            if !checks::patel_point(u, rate, size, spec.machine, DEFAULT_TOLERANCE) {
                return Err(format!(
                    "point {j}: U = {u} does not solve Patel's equation (m = {rate}, t = {size}, {} stages) to {DEFAULT_TOLERANCE}",
                    spec.machine
                ));
            }
            let accepted = float(p, "accepted_rate")?;
            same("accepted_rate", accepted, u * (rate * size))?;
            let utilization = if size == 0.0 { rate } else { accepted / size };
            same("utilization", float(p, "utilization")?, utilization)?;
            let power = f64::from(1u32 << spec.machine) * utilization;
            same("power", float(p, "power")?, power)?;
        } else {
            let perf = analyze_bus(spec.scheme, w, &BusSystemModel::new(), spec.machine)
                .map_err(|e| e.to_string())?;
            same("power", float(p, "power")?, perf.power())?;
            same("utilization", float(p, "utilization")?, perf.utilization())?;
            same("cpi", float(p, "cpi")?, perf.cycles_per_instruction())?;
            same("waiting", float(p, "waiting")?, perf.waiting())?;
            same(
                "bus_utilization",
                float(p, "bus_utilization")?,
                perf.bus_utilization(),
            )?;
        }
    }
    Ok(())
}

fn check_response(seq: &Sequence, i: usize, response: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(response.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    if field(&v, "ok")?.as_bool() != Some(true) {
        return Err(format!("not ok: {}", response.trim()));
    }
    if field(&v, "id")?.as_u64() != Some(i as u64) {
        return Err("wrong id echoed".into());
    }
    let results = field(&v, "results")?
        .as_array()
        .ok_or("results not an array")?;
    let ids = &seq.requests[i].1;
    if results.len() != ids.len() {
        return Err(format!(
            "{} results for {} queries",
            results.len(),
            ids.len()
        ));
    }
    for (q, (result, &s)) in results.iter().zip(ids).enumerate() {
        check_query(&seq.specs[s], result).map_err(|e| format!("query {q}: {e}"))?;
    }
    Ok(())
}

/// One round over TCP against a fresh server. `responses` and
/// `latencies_s` hold the requests that were answered, in order; after
/// a transport error the round's remaining requests go unanswered.
struct Round {
    setup_s: f64,
    wall_s: f64,
    latencies_s: Vec<f64>,
    responses: Vec<String>,
    /// The transport error that ended the loop early, if one did.
    broken: Option<String>,
    solve_lanes: u64,
    cache_hits: u64,
}

fn stat(stats: &Value, path: &[&str]) -> Result<u64, String> {
    let mut v = stats;
    for p in path {
        v = field(v, p)?;
    }
    v.as_u64()
        .ok_or_else(|| format!("stats {path:?} is not a count"))
}

/// One client connection in a closed loop. It polls its non-blocking
/// socket, yielding the CPU between polls, instead of sleeping in
/// `read`, so the latency it measures leaves out its own wake-up.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    fn exchange(&mut self, line: &str) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut sent = 0;
        let bytes = line.as_bytes();
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(end + 1);
                let response = std::mem::replace(&mut self.buf, rest);
                return String::from_utf8(response).map_err(|e| format!("response: {e}"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err("no response within 30 s".into());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }
}

fn tcp_round(seq: &Sequence) -> Result<Round, String> {
    let started = Instant::now();
    let server = spawn(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(server.addr())?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut latencies_s = Vec::with_capacity(seq.requests.len());
    let mut responses = Vec::with_capacity(seq.requests.len());
    let mut broken = None;
    let loop_started = Instant::now();
    for (line, _) in &seq.requests {
        let sent = Instant::now();
        match client.exchange(line) {
            Ok(response) => {
                latencies_s.push(sent.elapsed().as_secs_f64());
                responses.push(response);
            }
            Err(e) => {
                broken = Some(e);
                break;
            }
        }
    }
    let wall_s = loop_started.elapsed().as_secs_f64();
    if broken.is_some() {
        // The connection's state is unknown: ask for stats on a new one.
        drop(client);
        client = Client::connect(server.addr())?;
    }

    let stats: Value = serde_json::from_str(client.exchange("{\"cmd\":\"stats\"}\n")?.trim())
        .map_err(|e| format!("stats: {e}"))?;
    let solve_lanes = stat(&stats, &["stats", "solve_lanes"])?;
    let cache_hits = stat(&stats, &["stats", "cache", "hits"])?;
    client.exchange("{\"cmd\":\"shutdown\"}\n")?;
    drop(client);
    server.join();
    Ok(Round {
        setup_s,
        wall_s,
        latencies_s,
        responses,
        broken,
        solve_lanes,
        cache_hits,
    })
}

/// Whether the server answered with an error (`"ok":false`) rather
/// than results.
fn refused(response: &str) -> bool {
    serde_json::from_str::<Value>(response.trim())
        .ok()
        .and_then(|v| v.get_field("ok").and_then(Value::as_bool))
        == Some(false)
}

/// Counts the round's failed requests (unanswered, or refused by the
/// server) and checks the answers to the others. The server's counts
/// are checked only when every request succeeded.
fn check_round(seq: &Sequence, round: &Round) -> (u64, Vec<String>) {
    let mut failed = (seq.requests.len() - round.responses.len()) as u64;
    let mut failures = Vec::new();
    for (i, response) in round.responses.iter().enumerate() {
        if refused(response) {
            failed += 1;
        } else if let Err(e) = check_response(seq, i, response) {
            if failures.len() < 5 {
                failures.push(format!("request {i}: {e}"));
            }
        }
    }
    if failed > 0 {
        return (failed, failures);
    }
    if round.solve_lanes != seq.distinct {
        failures.push(format!(
            "server solved {} lanes, the sequence holds {} distinct points",
            round.solve_lanes, seq.distinct
        ));
    }
    if round.cache_hits != seq.expected_hits {
        failures.push(format!(
            "server counted {} cache hits, the sequence repeats {} earlier points",
            round.cache_hits, seq.expected_hits
        ));
    }
    (failed, failures)
}

/// Per-layer timings of one round, taken in process on the same lines.
struct Layers {
    /// Per request: `parse_request` and `run_batch` seconds, or `None`
    /// when the request failed in process.
    times: Vec<Option<(f64, f64)>>,
    /// Batch solver calls on the cold points.
    solver_calls: u64,
    /// Requests and solver calls that failed.
    failed: u64,
    mva_points_per_s: f64,
    patel_points_per_s: f64,
}

fn layers(seq: &Sequence) -> Layers {
    let state = ServeState::new(&ServeConfig::default());
    let mut times = Vec::with_capacity(seq.requests.len());
    for (line, _) in &seq.requests {
        let (request, parse) = timed(|| parse_request(line.trim_end()));
        times.push(match request {
            Ok(Request::Batch(batch)) => {
                let (response, solve) = timed(|| run_batch(&state, &batch));
                response.ok().map(|_| (parse, solve))
            }
            _ => None,
        });
    }
    let mut failed = times.iter().filter(|t| t.is_none()).count() as u64;
    // The solvers on the cold points, batched per request as the server
    // batches them: bus lanes grouped by processor count, network lanes
    // in one per-lane-stages grid. A call that fails is not timed.
    let mut solver_calls = 0;
    let (mut mva_lanes, mut mva_s, mut patel_lanes, mut patel_s) = (0usize, 0.0, 0usize, 0.0);
    let mut seen: HashSet<(bool, Key)> = HashSet::new();
    for (_, ids) in &seq.requests {
        let mut bus: HashMap<u32, (Vec<f64>, Vec<f64>)> = HashMap::new();
        let (mut rates, mut sizes, mut stages) = (Vec::new(), Vec::new(), Vec::new());
        for &s in ids {
            let spec = &seq.specs[s];
            let net = spec.kind == Kind::NetPower;
            for key in &spec.keys {
                if !seen.insert((net, *key)) {
                    continue;
                }
                if net {
                    sizes.push(f64::from_bits(key.0));
                    rates.push(f64::from_bits(key.1));
                    stages.push(key.2);
                } else {
                    let lane = bus.entry(key.2).or_default();
                    lane.0.push(f64::from_bits(key.0));
                    lane.1.push(f64::from_bits(key.1));
                }
            }
        }
        for (processors, (services, thinks)) in &bus {
            let (grid, t) = timed(|| machine_repairman_grid(*processors, services, thinks));
            solver_calls += 1;
            if grid.is_err() {
                failed += 1;
                continue;
            }
            mva_lanes += services.len();
            mva_s += t;
        }
        if !rates.is_empty() {
            let (solution, t) = timed(|| {
                BatchPatelSolver::new().solve_grid(&rates, &sizes, &Stages::PerLane(&stages), None)
            });
            solver_calls += 1;
            if solution.is_err() {
                failed += 1;
                continue;
            }
            patel_lanes += rates.len();
            patel_s += t;
        }
    }
    Layers {
        times,
        solver_calls,
        failed,
        mva_points_per_s: mva_lanes as f64 / mva_s,
        patel_points_per_s: patel_lanes as f64 / patel_s,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let seq = sequence(seed);
    // The client and the server's threads share one CPU. Run in turn
    // with the server on a CPU of its own, over ten seeds, this kept the
    // p99's spread at 0.06 against 0.29; README.md has the other set-ups.
    measure::pin_to_first_cpu()?;
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut rounds = Vec::new();
    let mut layer_rounds = Vec::new();
    measure::rounds(seconds, MIN_ROUNDS, |_| {
        let round = tcp_round(&seq)?;
        let (f, checked) = check_round(&seq, &round);
        failed += f;
        failures.extend(checked);
        if trace {
            let l = layers(&seq);
            failed += l.failed;
            layer_rounds.push(l);
        }
        rounds.push(Round {
            responses: Vec::new(),
            ..round
        });
        Ok(())
    })?;

    // The traced run also counts its in-process pass: the requests and
    // the batch solver calls.
    let in_process: u64 = layer_rounds
        .iter()
        .map(|l| l.times.len() as u64 + l.solver_calls)
        .sum();
    let attempted = (seq.requests.len() * rounds.len()) as u64 + in_process;
    let mut outcome = Outcome::new(attempted, failed, &failures);
    outcome.notes.extend(
        rounds
            .iter()
            .filter_map(|r| r.broken.as_ref())
            .take(5)
            .map(|e| format!("FAILED: transport: {e}")),
    );
    outcome.notes.push(format!(
        "serve_mixed: {} rounds of {} requests ({} cold), {} query points each, {} distinct cached points, {} cache hits",
        rounds.len(),
        seq.requests.len(),
        seq.cold.iter().filter(|c| **c).count(),
        seq.points,
        seq.distinct,
        seq.expected_hits
    ));
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let op_times: Vec<Vec<f64>> = rounds.iter().map(|r| r.latencies_s.clone()).collect();
    outcome.note_rounds(&walls, &op_times);
    if trace {
        // Every request of every round that completed in process, pooled;
        // transport is each request's client latency minus its in-process
        // handling in the same round.
        let (mut parse, mut cold, mut hot, mut transport) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (round, layer) in rounds.iter().zip(&layer_rounds) {
            for (i, times) in layer.times.iter().enumerate() {
                let Some((p, b)) = *times else { continue };
                parse.push(p);
                if seq.cold[i] { &mut cold } else { &mut hot }.push(b);
                if let Some(client) = round.latencies_s.get(i) {
                    transport.push(client - p - b);
                }
            }
        }
        let us = |v: &[f64]| median(v) * 1e6;
        outcome.metric("traced_wall_s", median(&walls), "s");
        outcome.metric("serve.parse_us", us(&parse), "us");
        outcome.metric("serve.batch_us.cold", us(&cold), "us");
        outcome.metric("serve.batch_us.hot", us(&hot), "us");
        outcome.metric("serve.transport_us", us(&transport), "us");
        let per_round =
            |f: &dyn Fn(&Layers) -> f64| median(&layer_rounds.iter().map(f).collect::<Vec<_>>());
        outcome.metric(
            "core.mva_points_per_s",
            per_round(&|l| l.mva_points_per_s),
            "1/s",
        );
        outcome.metric(
            "core.patel_points_per_s",
            per_round(&|l| l.patel_points_per_s),
            "1/s",
        );
        outcome.metric("serve.solve_lanes", rounds[0].solve_lanes as f64, "count");
        outcome.metric("serve.cache_hits", rounds[0].cache_hits as f64, "count");
    } else {
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        outcome.end_to_end(median(&setups), &walls, seq.points as f64, &op_times)?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    //! The serve checks pass on a real server and reject one perturbed
    //! float, count or answer. The seed is held back from development.

    use super::*;

    const HELD_BACK_SEED: u64 = 19_890_417;

    /// `response` with the first number after `"field":` moved to the
    /// next representable float.
    fn nudge(response: &str, field: &str) -> String {
        let key = format!("\"{field}\":");
        let start = response.find(&key).expect("field present") + key.len();
        let len = response[start..].find([',', '}']).expect("number ends");
        let v: f64 = response[start..start + len].parse().expect("a number");
        let nudged = f64::from_bits(v.to_bits() + 1);
        format!("{}{nudged}{}", &response[..start], &response[start + len..])
    }

    #[test]
    fn the_mix_is_fixed_whatever_the_seed() {
        for seed in [HELD_BACK_SEED, 1] {
            let seq = sequence(seed);
            assert_eq!(seq.requests.len(), REQUESTS);
            assert_eq!(
                seq.cold.iter().filter(|c| **c).count(),
                REQUESTS / COLD_EVERY
            );
            assert_eq!(seq.points, 14 * REQUESTS as u64);
        }
    }

    #[test]
    fn a_served_round_passes_and_each_perturbation_fails() {
        let seq = sequence(HELD_BACK_SEED);
        let mut round = tcp_round(&seq).expect("a round against a live server");
        assert_eq!(check_round(&seq, &round), (0, Vec::new()));

        round.solve_lanes += 1;
        assert!(check_round(&seq, &round)
            .1
            .iter()
            .any(|f| f.contains("lanes")));
        round.solve_lanes -= 1;

        // A refused or unanswered request counts as failed, not as a
        // wrong answer, and the server's counts are then not checked.
        let mut refused = Round {
            responses: round.responses.clone(),
            latencies_s: Vec::new(),
            broken: None,
            ..round
        };
        refused.responses[3] = "{\"ok\":false,\"id\":3,\"error\":\"refused\"}\n".into();
        refused.responses.pop();
        assert_eq!(check_round(&seq, &refused), (2, Vec::new()));

        let bus = round
            .responses
            .iter()
            .position(|r| r.contains("\"waiting\":"))
            .unwrap();
        for field in ["power", "waiting", "bus_utilization", "cpi"] {
            let bad = nudge(&round.responses[bus], field);
            assert!(check_response(&seq, bus, &bad).is_err(), "{field}");
        }
        let net = round
            .responses
            .iter()
            .position(|r| r.contains("\"think_fraction\":"))
            .unwrap();
        let bad = nudge(&round.responses[net], "accepted_rate");
        assert!(check_response(&seq, net, &bad).is_err());
        let sens = round
            .responses
            .iter()
            .position(|r| r.contains("\"ranking\":"))
            .unwrap();
        let bad = nudge(&round.responses[sens], "percent");
        assert!(check_response(&seq, sens, &bad).is_err());
    }
}
