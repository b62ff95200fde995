//! `serve-mix`: two closed-loop tenants against an in-process
//! `ca-server`, the only workload on the read → parse → admit → queue
//! → session → encode → write path.
//!
//! Each tenant owns a seeded pool of job bodies (6 wide, 2 dense) and
//! sends them in blocks of four — three wide, one dense, the dense
//! slot seeded — each over a fresh connection, waiting for every
//! reply. Set-up binds the daemon and sends every pool body once, so
//! measured requests are served from warm plan caches. Outputs are
//! checked against an in-process replay of the same bodies through
//! the daemon's own public steps (`parse_job` → `try_admit` →
//! `schedule_asap` → `Session::compiled` → `run_counts` →
//! `counts_pieces`) on a session with the daemon's capacity and noise
//! model: every served body must be byte-identical to its replay.

use crate::spans::{self, layer};
use crate::{
    now, per_layer, ratio_minus_one, secs, stats, Fnv, Layers, Outcome, Rng, RunArgs, Timings,
};
use ca_circuit::{schedule_asap, Circuit, GateDurations};
use ca_device::Device;
use ca_server::{parse_job, schema::counts_pieces, Admission, QuotaRegistry, Server, ServerConfig};
use ca_sim::{Engine, NoiseConfig, Session, Simulator};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

const SHOTS: usize = 1024;
const TENANTS: usize = 2;
const SERVER_WORKERS: usize = 2;
const WIDE_POOL: usize = 6;
const DENSE_POOL: usize = 2;
/// Requests per client round (four blocks of three wide + one dense):
/// the fixed work `wall_s` times.
const ROUND: usize = 16;
const SETUPS: usize = 3;
const DENSE_QUBITS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Wide,
    Dense,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Wide => "wide",
            Kind::Dense => "dense",
        }
    }
}

struct Body {
    kind: Kind,
    qasm: String,
    json: String,
}

/// One tenant's job pool, generated from the seed.
fn tenant_pool(device: &Device, seed: u64, tenant: usize) -> Vec<Body> {
    let mut rng = Rng::new(seed, 0x5E7E + tenant as u64);
    let layer = ca_experiments::large_scale::sparse_device_layer(&device.topology);
    let mut pool = Vec::new();
    for i in 0..WIDE_POOL + DENSE_POOL {
        let (kind, qc) = if i < WIDE_POOL {
            (
                Kind::Wide,
                wide_circuit(device.num_qubits(), &layer, &mut rng),
            )
        } else {
            (Kind::Dense, ghz_circuit())
        };
        let qasm = ca_circuit::to_qasm3(&qc);
        let quoted = serde_json::to_string(&qasm).unwrap_or_default();
        let json = format!(
            "{{\"tenant\":\"tenant-{tenant}\",\"shots\":{SHOTS},\"seed\":{},\"qasm\":{quoted}}}",
            rng.below(1 << 40)
        );
        pool.push(Body { kind, qasm, json });
    }
    pool
}

/// A device-wide Clifford circuit: a seeded single-qubit Clifford on
/// every qubit, the sparse ECR layer, and a measurement of every qubit.
fn wide_circuit(n: usize, layer: &[(usize, usize)], rng: &mut Rng) -> Circuit {
    let mut qc = Circuit::new(n, n);
    for q in 0..n {
        match rng.below(4) {
            0 => {}
            1 => {
                qc.x(q);
            }
            2 => {
                qc.h(q);
            }
            _ => {
                qc.h(q).s(q);
            }
        }
    }
    for &(c, t) in layer {
        qc.ecr(c, t);
    }
    for q in 0..n {
        qc.measure(q, q);
    }
    qc
}

/// The 8-qubit GHZ job.
fn ghz_circuit() -> Circuit {
    let mut qc = Circuit::new(DENSE_QUBITS, DENSE_QUBITS);
    qc.h(0);
    for q in 0..DENSE_QUBITS - 1 {
        qc.cx(q, q + 1);
    }
    for q in 0..DENSE_QUBITS {
        qc.measure(q, q);
    }
    qc
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    }
}

/// One HTTP exchange as the client saw it.
struct Reply {
    status: u16,
    body: Vec<u8>,
    latency_ms: f64,
}

/// Sends one request over a fresh connection and reads the whole
/// reply (fixed-length or chunked).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let t0 = now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let latency_ms = secs(t0) * 1e3;
    let (status, body) = decode_response(&raw)?;
    Ok(Reply {
        status,
        body,
        latency_ms,
    })
}

/// Splits an HTTP/1.1 response into status and decoded body.
fn decode_response(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without header terminator")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without status")?;
    let mut rest = &raw[split + 4..];
    if !head.contains("transfer-encoding: chunked") {
        return Ok((status, rest.to_vec()));
    }
    let mut body = Vec::new();
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size_text = String::from_utf8_lossy(&rest[..line_end]).to_string();
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok((status, body));
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

fn hash(bytes: &[u8]) -> u64 {
    Fnv::default().bytes(bytes).finish()
}

/// One measured request.
struct Sample {
    tenant: usize,
    body: usize,
    kind: Kind,
    status: u16,
    hash: u64,
    bytes: usize,
    latency_ms: f64,
    req: u64,
}

/// A bound daemon with warm tenants.
struct Daemon {
    handle: ca_server::ServerHandle,
    pools: Vec<Vec<Body>>,
    device: Device,
}

/// Builds the device, binds the daemon and sends every pool body once;
/// the warm-up replies are returned for checking.
fn set_up(seed: u64) -> Result<(Daemon, Vec<Sample>), String> {
    let device = ca_experiments::large_scale::eagle_device(127);
    let handle = Server::bind(
        "127.0.0.1:0",
        device.clone(),
        NoiseConfig::default(),
        server_config(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let pools: Vec<Vec<Body>> = (0..TENANTS)
        .map(|t| tenant_pool(&device, seed, t))
        .collect();
    let addr = handle.addr();
    let warm: Result<Vec<Vec<Sample>>, String> = std::thread::scope(|scope| {
        let workers: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(t, pool)| {
                scope.spawn(move || {
                    pool.iter()
                        .enumerate()
                        .map(|(i, body)| send(addr, t, i, body, 0))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "warm-up thread panicked".to_string()))
            .collect()
    });
    let daemon = Daemon {
        handle,
        pools,
        device,
    };
    match warm {
        Ok(w) => Ok((daemon, w.into_iter().flatten().collect())),
        Err(e) => {
            daemon.handle.shutdown();
            Err(e)
        }
    }
}

/// Sends one pool body. A transport failure comes back as status 0,
/// which the output check counts as a failed request.
fn send(addr: SocketAddr, tenant: usize, index: usize, body: &Body, req: u64) -> Sample {
    let started = now();
    let reply = http(addr, "POST", "/v1/jobs", &body.json).unwrap_or_else(|_| Reply {
        status: 0,
        body: Vec::new(),
        latency_ms: secs(started) * 1e3,
    });
    Sample {
        tenant,
        body: index,
        kind: body.kind,
        status: reply.status,
        hash: hash(&reply.body),
        bytes: reply.body.len(),
        latency_ms: reply.latency_ms,
        req,
    }
}

/// One client's closed loop until `deadline`: blocks of three wide
/// and one dense body, the dense slot drawn from the seed.
fn client_loop(
    addr: SocketAddr,
    tenant: usize,
    pool: &[Body],
    seed: u64,
    deadline: u64,
    req_base: u64,
) -> (Vec<Sample>, Vec<f64>) {
    let _root = layer("bench.client", req_base);
    let mut rng = Rng::new(seed, 0xC11E + tenant as u64);
    let (mut wide, mut dense) = (0usize, WIDE_POOL);
    let mut samples = Vec::new();
    let mut rounds = Vec::new();
    'rounds: loop {
        let started = now();
        for _block in 0..ROUND / 4 {
            let dense_slot = rng.below(4);
            for slot in 0..4 {
                if now() >= deadline {
                    break 'rounds;
                }
                let index = if slot == dense_slot {
                    dense = WIDE_POOL + (dense + 1 - WIDE_POOL) % DENSE_POOL;
                    dense
                } else {
                    wide = (wide + 1) % WIDE_POOL;
                    wide
                };
                let req = req_base + samples.len() as u64;
                let _span = layer("server.http", req);
                samples.push(send(addr, tenant, index, &pool[index], req));
            }
        }
        rounds.push(secs(started));
    }
    (samples, rounds)
}

/// What one closed-loop window measured.
struct Window {
    samples: Vec<Sample>,
    /// Walls of the completed client rounds, seconds.
    rounds: Vec<f64>,
    rss_mb: Vec<f64>,
}

/// Runs both tenants' closed loops for `seconds`.
fn closed_loop(daemon: &Daemon, seed: u64, seconds: f64, req_base: u64) -> Result<Window, String> {
    let addr = daemon.handle.addr();
    let rss = crate::RssSampler::start();
    let deadline = crate::deadline(seconds);
    let per_client: Result<Vec<_>, String> = std::thread::scope(|scope| {
        let clients: Vec<_> = daemon
            .pools
            .iter()
            .enumerate()
            .map(|(t, pool)| {
                let base = req_base + (t as u64) * 1_000_000;
                scope.spawn(move || client_loop(addr, t, pool, seed, deadline, base))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().map_err(|_| "client thread panicked".to_string()))
            .collect()
    });
    let rss_mb = rss.finish();
    let mut samples = Vec::new();
    let mut rounds = Vec::new();
    for (s, r) in per_client? {
        samples.extend(s);
        rounds.extend(r);
    }
    Ok(Window {
        samples,
        rounds,
        rss_mb,
    })
}

/// The daemon's serving steps, replayed in process on one tenant's
/// session with the daemon's cache capacity and noise model.
struct Replayer {
    session: Session,
    quotas: QuotaRegistry,
    chunk_entries: usize,
}

/// What one replay produced.
struct Replayed {
    hash: u64,
    engine: &'static str,
    qubits: usize,
}

impl Replayer {
    fn new(device: &Device) -> Self {
        let config = server_config();
        let sim = Simulator::with_engine(device.clone(), NoiseConfig::default(), Engine::Auto);
        Replayer {
            session: Session::with_capacity(sim, config.cache_capacity),
            quotas: QuotaRegistry::new(config.quota),
            chunk_entries: config.chunk_entries,
        }
    }

    fn replay(&self, body: &Body, req: u64) -> Result<Replayed, String> {
        {
            let _l = layer("circuit.qasm_parse", req);
            ca_circuit::parse(&body.qasm).map_err(|e| format!("qasm: {}", e.message))?;
        }
        let job = {
            let _l = layer("server.parse_job", req);
            parse_job(body.json.as_bytes()).map_err(|e| e.message)?
        };
        let admission = {
            let _l = layer("server.admit", req);
            self.quotas.try_admit(&job.tenant, job.shots)
        };
        if admission != Admission::Granted {
            return Err(format!("replay admission denied: {admission:?}"));
        }
        let sc = {
            let _l = layer("circuit.schedule", req);
            schedule_asap(&job.circuit, GateDurations::default())
        };
        let compiled = {
            let _l = layer("sim.plan_compile", req);
            self.session
                .compiled(&sc, job.seed)
                .map_err(|e| e.to_string())?
        };
        let result = {
            let _l = layer("sim.execute", req);
            let ins = compiled.insertions(&[]).map_err(|e| e.to_string())?;
            compiled
                .run_counts(job.shots, &ins, None)
                .map_err(|e| e.to_string())?
        };
        let bytes = {
            let _l = layer("server.encode", req);
            counts_pieces(&result, self.chunk_entries).concat()
        };
        Ok(Replayed {
            hash: hash(bytes.as_bytes()),
            engine: compiled.engine_name(),
            qubits: sc.num_qubits,
        })
    }
}

/// Checks every served sample against the replay of its body and
/// reports the engine each job kind resolved to.
fn check_samples(daemon: &Daemon, samples: &[Sample], out: &mut Outcome) -> Result<u64, String> {
    let mut expected: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut engines: BTreeMap<Kind, &'static str> = BTreeMap::new();
    let mut digest = Fnv::default();
    for (t, pool) in daemon.pools.iter().enumerate() {
        let replayer = Replayer::new(&daemon.device);
        for (i, body) in pool.iter().enumerate() {
            let r = replayer.replay(body, 0)?;
            expected.insert((t, i), r.hash);
            engines.insert(body.kind, r.engine);
            digest.bytes(&r.hash.to_le_bytes());
        }
    }
    for s in samples {
        out.check(s.status == 200, || {
            format!("tenant {} body {}: HTTP {}", s.tenant, s.body, s.status)
        });
        if s.status == 200 {
            out.check(expected.get(&(s.tenant, s.body)) == Some(&s.hash), || {
                format!(
                    "tenant {} body {} ({}): served counts differ from the in-process replay",
                    s.tenant,
                    s.body,
                    s.kind.name()
                )
            });
        }
    }
    for (kind, engine) in &engines {
        out.fact(&format!("engine_{}", kind.name()), *engine);
    }
    Ok(digest.finish())
}

/// The mode guard: the median request must be wide and the tail
/// request dense, so neither percentile sits on the boundary between
/// the two latency modes.
fn check_modes(samples: &[Sample], out: &mut Outcome) {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let median_wide = stats::median_indices(&latencies)
        .iter()
        .all(|&i| samples[i].kind == Kind::Wide);
    out.check(median_wide, || {
        "serve-mix guard: the p50 request is not a wide job".into()
    });
    let tail_dense = stats::tail_index(&latencies).is_some_and(|i| samples[i].kind == Kind::Dense);
    out.check(tail_dense, || {
        "serve-mix guard: the tail request is not a dense job".into()
    });
}

/// Sets up `SETUPS` times (keeping the last daemon), checking every
/// warm-up reply later.
fn set_up_repeatedly(seed: u64) -> Result<(Daemon, Vec<Sample>, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t0 = now();
        let (daemon, samples) = set_up(seed)?;
        setup_s.push(secs(t0));
        warm.extend(samples);
        if let Some(old) = kept.replace(daemon) {
            let old: Daemon = old;
            old.handle.shutdown();
        }
    }
    let daemon = kept.ok_or("no set-up ran")?;
    Ok((daemon, warm, setup_s))
}

/// Per-tenant level-one cache hits and misses from `GET /stats`.
fn cache_counts(addr: SocketAddr) -> Result<(f64, f64), String> {
    let reply = http(addr, "GET", "/stats", "")?;
    let doc = serde_json::parse_value(&String::from_utf8_lossy(&reply.body))
        .map_err(|e| format!("/stats: {e}"))?;
    let tenants = doc.get("tenants").as_obj().ok_or("/stats has no tenants")?;
    let (mut hits, mut misses) = (0.0, 0.0);
    for (_, t) in tenants {
        hits += t.get("cache_hits").as_f64().unwrap_or(0.0);
        misses += t.get("cache_misses").as_f64().unwrap_or(0.0);
    }
    Ok((hits, misses))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (daemon, warm, setup_s) = set_up_repeatedly(args.seed)?;
    out.fact("server_workers", SERVER_WORKERS);
    out.fact("server_cache_capacity", server_config().cache_capacity);
    out.fact("clients", TENANTS);
    out.fact("shots_per_request", SHOTS);
    let result = if args.trace {
        traced(args, &daemon, warm, &mut out)
    } else {
        untraced(args, &daemon, warm, setup_s, &mut out)
    };
    daemon.handle.shutdown();
    result.map(|()| out)
}

fn untraced(
    args: &RunArgs,
    daemon: &Daemon,
    warm: Vec<Sample>,
    setup_s: Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let Window {
        samples,
        rounds,
        rss_mb,
    } = closed_loop(daemon, args.seed, args.seconds, 1)?;
    let timings = Timings {
        setup_s,
        unit_s: rounds,
        op_ms: samples.iter().map(|s| s.latency_ms).collect(),
        shots_per_unit: (TENANTS * ROUND * SHOTS) as f64,
        ops_per_unit: (TENANTS * ROUND) as f64,
        rss_mb,
    };
    crate::end_to_end(&timings, out);
    let wide = samples.iter().filter(|s| s.kind == Kind::Wide).count();
    out.fact("wide_requests", wide);
    out.fact("dense_requests", samples.len() - wide);
    check_modes(&samples, out);
    let mut all = warm;
    all.extend(samples);
    out.digest = check_samples(daemon, &all, out)?;
    Ok(())
}

/// The traced run: a closed loop at the daemon's own level, then one
/// at trace level, then every body served in the traced loop replayed
/// in process (one thread per tenant, in the order it was served)
/// under the same request id.
fn traced(
    args: &RunArgs,
    daemon: &Daemon,
    mut warm: Vec<Sample>,
    out: &mut Outcome,
) -> Result<(), String> {
    // Four windows alternate the daemon's own level and trace level.
    let quarter = args.seconds / 4.0;
    let level = ca_obs::level();
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut samples = Vec::new();
    let (mut hits, mut misses) = (0.0, 0.0);
    let mut served = crate::Phases::default();
    for w in 0..4u64 {
        let traced = w % 2 == 1;
        let base = traced.then(|| {
            ca_obs::set_level(ca_obs::Level::Trace);
            ca_obs::snapshot()
        });
        let before = cache_counts(daemon.handle.addr())?;
        let window = closed_loop(daemon, args.seed, quarter, (w + 1) * 10_000_000)?;
        let after = cache_counts(daemon.handle.addr())?;
        match base {
            Some(base) => {
                served.add_since(&base);
                ca_obs::set_level(level);
                hits += after.0 - before.0;
                misses += after.1 - before.1;
                traced_rounds.extend(window.rounds);
                samples.extend(window.samples);
            }
            None => {
                plain_rounds.extend(window.rounds);
                warm.extend(window.samples);
            }
        }
    }

    ca_obs::set_level(ca_obs::Level::Trace);
    let replays: Result<Vec<Vec<(u64, Replayed)>>, String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..TENANTS)
            .map(|t| {
                let mine: Vec<&Sample> = samples.iter().filter(|s| s.tenant == t).collect();
                let pool = &daemon.pools[t];
                let device = &daemon.device;
                scope.spawn(move || {
                    let replayer = Replayer::new(device);
                    let _root = layer("bench.replay", 0);
                    mine.iter()
                        .map(|s| Ok((s.req, replayer.replay(&pool[s.body], s.req)?)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let replayed: BTreeMap<u64, Replayed> = replays?.into_iter().flatten().collect();
    let trace_path = Path::new("perfbench/out/trace-serve-mix.json");
    let (spans, events) = spans::flush_trace(trace_path)?;
    ca_obs::set_level(level);

    for s in &samples {
        out.check(s.status == 200, || {
            format!("traced request {}: HTTP {}", s.req, s.status)
        });
        out.check(replayed.get(&s.req).map(|r| r.hash) == Some(s.hash), || {
            format!(
                "traced request {}: served counts differ from the replay",
                s.req
            )
        });
    }
    out.digest = check_samples(daemon, &warm, out)?;
    let coverage = spans::coverage(&spans);
    crate::check_coverage(coverage, out);

    let layers = spans::by_layer(&spans);
    let kind_of: BTreeMap<u64, Kind> = samples.iter().map(|s| (s.req, s.kind)).collect();
    // Replay time per request: the self time of every replayed step.
    let mut replay_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for (name, entries) in &layers {
        if name.starts_with("bench.") || name == "server.http" {
            continue;
        }
        for &(req, us) in entries {
            *replay_ms.entry(req).or_insert(0.0) += us / 1e3;
        }
    }
    let per_req = |name: &str, kind: Option<Kind>, scale: f64| -> f64 {
        let v: Vec<f64> = layers
            .get(name)
            .map(|e| {
                e.iter()
                    .filter(|(req, _)| kind.is_none() || kind_of.get(req) == kind.as_ref())
                    .map(|&(_, us)| us * scale)
                    .collect()
            })
            .unwrap_or_default();
        stats::median(&v).unwrap_or(0.0)
    };
    let transport = |kind: Kind| -> f64 {
        let served: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ms)
            .collect();
        let replay: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .filter_map(|s| replay_ms.get(&s.req).copied())
            .collect();
        stats::median(&served).unwrap_or(0.0) - stats::median(&replay).unwrap_or(0.0)
    };
    let rounds = (samples.len() as f64 / ROUND as f64).max(1.0);
    let total_s = |name: &str| -> f64 {
        layers
            .get(name)
            .map_or(0.0, |e| e.iter().map(|&(_, us)| us).sum::<f64>() * 1e-6)
            / rounds
    };
    let execute_ns_per_qubit_shot = {
        let v: Vec<f64> = layers
            .get("sim.execute")
            .map(|e| {
                e.iter()
                    .filter_map(|&(req, us)| {
                        replayed
                            .get(&req)
                            .map(|r| us * 1e3 / (r.qubits * SHOTS) as f64)
                    })
                    .collect()
            })
            .unwrap_or_default();
        stats::median(&v).unwrap_or(0.0)
    };
    let wide_bytes: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == Kind::Wide)
        .map(|s| s.bytes as f64)
        .collect();
    let lookups = hits + misses;
    let hit_rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
    // The engines' phase totals of the served window: the daemon's
    // own work, not the replay's.
    let phase = |key: &str| served.seconds(key) / rounds;
    let overhead = ratio_minus_one(&traced_rounds, &plain_rounds);
    out.metrics = per_layer(Layers {
        transport_ms: transport(Kind::Wide),
        transport_dense_ms: transport(Kind::Dense),
        parse_job_us: per_req("server.parse_job", None, 1.0),
        admit_us: per_req("server.admit", None, 1.0),
        encode_ms: per_req("server.encode", None, 1e-3),
        response_bytes: stats::median(&wide_bytes).unwrap_or(0.0),
        qasm_parse_us: per_req("circuit.qasm_parse", None, 1.0),
        schedule_us: per_req("circuit.schedule", None, 1.0),
        plan_compile_s: total_s("sim.plan_compile"),
        cache_hit_rate: hit_rate,
        cache_lookups: lookups / rounds,
        execute_s: total_s("sim.execute"),
        ns_per_qubit_shot: execute_ns_per_qubit_shot,
        sampling_s: phase("engine/sampling"),
        propagation_s: phase("engine/propagation"),
        reduction_s: phase("engine/reduction"),
        coverage,
        trace_overhead: overhead,
        ..Layers::default()
    });
    out.fact("trace_file", trace_path.display().to_string());
    out.fact("trace_events", events);
    out.fact("traced_requests", samples.len());
    out.fact("per_layer_unit", "one client round of 16 requests");
    Ok(())
}
