//! `lf-433q`: the paper's headline experiment at device scale.
//!
//! Layer fidelity of the sparse Osprey-433 layer under bare, DD and
//! CA-DD at depths 1/2/4/8, 8 twirl instances per point, on a fresh
//! session per sweep — the cold-cache cost a user pays for every new
//! sweep. The sweep follows `ca_experiments::large_scale`'s protocol
//! (one Pauli per partition, prepared and measured simultaneously,
//! decays fitted per partition) but makes each layer's call itself so
//! each is timed from outside: `compile_twirl_ensemble` (core),
//! `Session::compiled_dressed` (plan compilation, fanned out like
//! `Session::submit`), `CompiledCircuit::expect_paulis` (execution)
//! and `fit_decay` (metrics).

use crate::spans::{self, layer};
use crate::{
    now, per_layer, ratio_minus_one, secs, Fnv, Layers, Outcome, Pass, Rng, RunArgs, Timings,
};
use ca_circuit::{Pauli, PauliString};
use ca_core::{compile_twirl_ensemble, CompileOptions, Strategy};
use ca_device::Device;
use ca_metrics::fit_decay;
use ca_mitigation::{layer_circuit, propagate_through_layers};
use ca_sim::plan::map_batches;
use ca_sim::{NoiseConfig, Session, Simulator};
use std::path::Path;

const STRATEGIES: [Strategy; 3] = [Strategy::Bare, Strategy::UniformDd, Strategy::CaDd];
const DEPTHS: [usize; 4] = [1, 2, 4, 8];
const INSTANCES: usize = 8;
const TRAJECTORIES: usize = 4096;
/// Set-up is milliseconds long: enough repeats for a steady median.
const SETUPS: usize = 9;
const DEVICE_SEED: u64 = 433;

/// The sweep's inputs.
struct Inputs {
    device: Device,
    layer: Vec<(usize, usize)>,
    /// One non-identity Pauli per partition.
    preps: Vec<Vec<(usize, Pauli)>>,
    seed: u64,
}

fn noise() -> NoiseConfig {
    NoiseConfig {
        readout_error: false,
        ..NoiseConfig::default()
    }
}

fn set_up(seed: u64) -> Inputs {
    let device = ca_experiments::large_scale::osprey_device(DEVICE_SEED);
    let layer = ca_experiments::large_scale::sparse_device_layer(&device.topology);
    let parts = ca_experiments::large_scale::partitions(&device.topology, &layer);
    let mut rng = Rng::new(seed, 0x1F43);
    let preps = parts
        .iter()
        .map(|part| loop {
            let assignment: Vec<(usize, Pauli)> = part
                .iter()
                .map(|&q| (q, Pauli::from_index(rng.below(4) as usize)))
                .collect();
            if assignment.iter().any(|&(_, p)| p != Pauli::I) {
                break assignment;
            }
        })
        .collect();
    Inputs {
        device,
        layer,
        preps,
        seed,
    }
}

/// One sweep's outputs and timings.
struct Sweep {
    lf: Vec<f64>,
    /// Mean per-partition decay λ per strategy.
    mean_lambda: Vec<f64>,
    engines: Vec<&'static str>,
    point_ms: Vec<f64>,
    ops_out: usize,
    cache: ca_sim::session::CacheStats,
}

/// Runs one full sweep on a fresh session. `req_base` numbers its
/// points.
fn sweep(inputs: &Inputs, req_base: u64) -> Result<Sweep, String> {
    let _root = layer("bench.sweep", req_base);
    let session = Session::new(Simulator::with_config(inputs.device.clone(), noise()));
    let n = inputs.device.num_qubits();
    let all_preps: Vec<(usize, Pauli)> = inputs.preps.iter().flatten().copied().collect();
    let mut out = Sweep {
        lf: Vec::new(),
        mean_lambda: Vec::new(),
        engines: Vec::new(),
        point_ms: Vec::new(),
        ops_out: 0,
        cache: Default::default(),
    };
    for (si, &strategy) in STRATEGIES.iter().enumerate() {
        let mut ys: Vec<Vec<f64>> = vec![Vec::new(); inputs.preps.len()];
        let mut req = req_base;
        for (di, &d) in DEPTHS.iter().enumerate() {
            let t0 = now();
            req = req_base + (si * DEPTHS.len() + di) as u64 + 1;
            let (circuit, observables) = {
                let _l = layer("circuit.build", req);
                let circuit = layer_circuit(n, &all_preps, &inputs.layer, d);
                let observables: Vec<PauliString> = inputs
                    .preps
                    .iter()
                    .map(|assignment| {
                        let mut p = PauliString::identity(n);
                        for &(q, pauli) in assignment {
                            p.paulis[q] = pauli;
                        }
                        propagate_through_layers(&p, &inputs.layer, d)
                    })
                    .collect();
                (circuit, observables)
            };
            let seeds: Vec<u64> = (0..INSTANCES as u64)
                .map(|i| inputs.seed.wrapping_add(i * 7919).wrapping_add(d as u64))
                .collect();
            let ensemble = {
                let _l = layer("core.compile", req);
                compile_twirl_ensemble(
                    &circuit,
                    &inputs.device,
                    &CompileOptions::new(strategy, seeds[0]),
                    &seeds,
                )
                .map_err(|e| format!("{}: {e}", strategy.label()))?
            };
            out.ops_out += ensemble.base.items.len();
            let compiled = {
                let _l = layer("sim.plan_compile", req);
                map_batches(INSTANCES, None, |i| {
                    session.compiled_dressed(
                        &ensemble.base,
                        &ensemble.dressings[i],
                        seeds[i] ^ 0x77,
                    )
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?
            };
            let results = {
                let _l = layer("sim.execute", req);
                map_batches(INSTANCES, None, |i| {
                    let ins = compiled[i].insertions(&[])?;
                    compiled[i].expect_paulis(&observables, TRAJECTORIES, &ins, Some(1))
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?
            };
            for (part, ys) in ys.iter_mut().enumerate() {
                let sum: f64 = results.iter().map(|r| r[part]).sum();
                ys.push(sum / INSTANCES as f64);
            }
            if di == 0 {
                out.engines.push(compiled[0].engine_name());
            }
            out.point_ms.push(secs(t0) * 1e3);
        }
        let _l = layer("metrics.fit", req);
        let xs: Vec<f64> = DEPTHS.iter().map(|&d| d as f64).collect();
        let lambdas: Vec<f64> = ys
            .iter()
            .map(|ys| fit_decay(&xs, ys).lambda.clamp(0.0, 1.0))
            .collect();
        out.lf.push(lambdas.iter().product());
        out.mean_lambda
            .push(lambdas.iter().sum::<f64>() / lambdas.len() as f64);
    }
    out.cache = session.cache_stats();
    Ok(out)
}

fn check(sweep: &Sweep, first: Option<&Sweep>, out: &mut Outcome) {
    for (s, engine) in STRATEGIES.iter().zip(&sweep.engines) {
        out.check(*engine == "frame-batch", || {
            format!("{} resolved to {engine}, expected frame-batch", s.label())
        });
    }
    // Bare and DD layer fidelities are both products of ~250 decays
    // near 1e-100 at this scale, and which of the two is larger flips
    // with the Pauli draw; the mean partition decay separates them on
    // every seed tried. CA-DD's LF is orders of magnitude above both.
    let (bare, dd, ca_dd) = (sweep.lf[0], sweep.lf[1], sweep.lf[2]);
    out.check(ca_dd > dd.max(bare), || {
        format!("LF must order CA-DD above DD and bare, got {ca_dd:.4e} / {dd:.4e} / {bare:.4e}")
    });
    let (bare, dd, ca_dd) = (
        sweep.mean_lambda[0],
        sweep.mean_lambda[1],
        sweep.mean_lambda[2],
    );
    out.check(ca_dd > dd && dd > bare, || {
        format!(
            "mean partition decay must order CA-DD > DD > bare, got {ca_dd:.4} / {dd:.4} / {bare:.4}"
        )
    });
    if let Some(first) = first {
        out.check(first.lf == sweep.lf, || {
            "repeated sweep on the same inputs changed LF".into()
        });
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = now();
        inputs = Some(set_up(args.seed));
        setup_s.push(secs(t0));
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    out.fact("qubits", inputs.device.num_qubits());
    out.fact("layer_gates", inputs.layer.len());
    out.fact("partitions", inputs.preps.len());
    out.fact("instances", INSTANCES);
    out.fact("trajectories", TRAJECTORIES);
    let shots_per_sweep = (STRATEGIES.len() * DEPTHS.len() * INSTANCES * TRAJECTORIES) as u64;
    let mut timings = Timings {
        setup_s,
        shots_per_unit: shots_per_sweep as f64,
        ops_per_unit: (STRATEGIES.len() * DEPTHS.len()) as f64,
        ..Timings::default()
    };
    let mut first: Option<Sweep> = None;
    let mut traced_sweeps = Vec::new();
    let drive = crate::drive(args, |unit, pass| {
        let s = sweep(&inputs, unit * 100)?;
        check(&s, first.as_ref(), &mut out);
        out.attempted += s.point_ms.len() as u64;
        if pass == Pass::Traced {
            traced_sweeps.push((s.ops_out, s.cache));
        } else if pass == Pass::Plain {
            timings.op_ms.extend(&s.point_ms);
        }
        if first.is_none() {
            let mut digest = Fnv::default();
            for (i, st) in STRATEGIES.iter().enumerate() {
                digest.f64(s.lf[i]);
                out.fact(&format!("lf_{}", st.label()), s.lf[i]);
                out.fact(&format!("mean_lambda_{}", st.label()), s.mean_lambda[i]);
                out.fact(&format!("engine_{}", st.label()), s.engines[i]);
            }
            out.digest = digest.finish();
            first = Some(s);
        }
        Ok(())
    })?;
    if args.trace {
        let path = Path::new("perfbench/out/trace-lf-433q.json");
        let (spans, events) = spans::flush_trace(path)?;
        out.fact("trace_file", path.display().to_string());
        out.fact("trace_events", events);
        out.fact("per_layer_unit", "one sweep (3 strategies x 4 depths)");
        let mut layers = sweep_layers(
            &spans,
            &drive,
            &traced_sweeps,
            shots_per_sweep,
            inputs.device.num_qubits(),
        );
        layers.trace_overhead = ratio_minus_one(&drive.traced_s, &drive.plain_s);
        crate::check_coverage(layers.coverage, &mut out);
        out.metrics = per_layer(layers);
    } else {
        timings.unit_s = drive.plain_s;
        timings.rss_mb = drive.rss_mb;
        crate::end_to_end(&timings, &mut out);
    }
    Ok(out)
}

/// Per-layer numbers per traced sweep.
fn sweep_layers(
    spans: &[spans::SpanRecord],
    drive: &crate::Drive,
    traced: &[(usize, ca_sim::session::CacheStats)],
    shots: u64,
    qubits: usize,
) -> Layers {
    let layers = spans::by_layer(spans);
    let units = traced.len().max(1) as f64;
    let total = |name: &str| -> f64 {
        layers
            .get(name)
            .map_or(0.0, |e| e.iter().map(|&(_, us)| us).sum::<f64>() * 1e-6)
            / units
    };
    let execute_s = total("sim.execute");
    let (hits, misses) = traced
        .iter()
        .fold((0, 0), |(h, m), (_, c)| (h + c.hits, m + c.misses));
    let lookups = (hits + misses) as f64;
    Layers {
        build_s: total("circuit.build"),
        compile_s: total("core.compile"),
        ops_out: traced.first().map_or(0.0, |t| t.0 as f64),
        plan_compile_s: total("sim.plan_compile"),
        cache_hit_rate: if lookups > 0.0 {
            hits as f64 / lookups
        } else {
            0.0
        },
        cache_lookups: lookups / units,
        execute_s,
        ns_per_qubit_shot: execute_s * 1e9 / (qubits as f64 * shots as f64),
        sampling_s: drive.phase("engine/sampling"),
        propagation_s: drive.phase("engine/propagation"),
        reduction_s: drive.phase("engine/reduction"),
        fit_s: total("metrics.fit"),
        coverage: spans::coverage(spans),
        ..Layers::default()
    }
}
