//! The campaign workloads (`ddr-study`, `app-sim`): the harness path through
//! `run_campaign_with`, and the traced run that repeats the campaign's layer calls from the
//! benchmark's own code.

use crate::expected::{Digests, Expected};
use crate::layers::{self, BackendTotals, Timed, Tracer};
use crate::stats::{self, blocked_quantile, median, Registry};
use crate::{repeat_setup, specs, work_dir, Args, RunResult, Workload, WORKERS};
use mess_bench::sweep::characterize_spec;
use mess_bench::trace::{replay, RecordingBackend, Trace};
use mess_core::CurveFamily;
use mess_cpu::{Engine, StopCondition};
use mess_exec::{ExecConfig, JobEvent};
use mess_platforms::{MemoryModelKind, ModelFactory, PlatformSpec};
use mess_profiler::Profiler;
use mess_scenario::engine::{stream_bandwidths, trace_to_samples};
use mess_scenario::{
    resolve_curves, resolve_factory, run_campaign_with, CampaignSpec, ModelSpec, PlatformRef,
    ScenarioKind, ScenarioOptions, ScenarioOutcome, ScenarioSpec, SweepSpec,
};
use mess_serve::{CacheMode, Daemon, DaemonConfig, RunKind};
use mess_types::MessError;
use mess_workloads::{StreamConfig, StreamKernel};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::Instant;

/// Memory operations in the saturated STREAM trace recorded at set-up.
const TRACE_OPS: u64 = 150_000;

/// Cached resubmissions timed after each campaign: one block of the blocked p95.
const HIT_BLOCK: usize = 1_000;

/// Everything set-up produces.
struct Prepared {
    campaign: CampaignSpec,
    /// The saturated STREAM trace (ddr-study only).
    trace: Option<Trace>,
}

/// Loads and validates the campaign spec through its JSON form, builds every model
/// factory it names, and (ddr-study) records the STREAM trace replayed by the traced run.
fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let built = match workload {
        Workload::DdrStudy => specs::ddr_study(),
        _ => specs::app_sim(seed),
    };
    let campaign = CampaignSpec::from_json(&built.to_json()).map_err(|e| e.to_string())?;
    campaign.validate().map_err(|e| e.to_string())?;
    let options = ScenarioOptions::default();
    for spec in &campaign.scenarios {
        for (platform, model) in models_of(spec) {
            resolve_factory(model, &platform.resolve(), &options).map_err(|e| e.to_string())?;
        }
    }
    let trace = (workload == Workload::DdrStudy).then(record_stream_trace);
    Ok(Prepared { campaign, trace })
}

/// The (platform, model) pairs a scenario builds factories for.
fn models_of(spec: &ScenarioSpec) -> Vec<(PlatformRef, &ModelSpec)> {
    match &spec.kind {
        ScenarioKind::PlatformTable {
            platforms, model, ..
        } => platforms.iter().map(|p| (*p, model)).collect(),
        ScenarioKind::CurveFamily { model, .. }
        | ScenarioKind::Run { model, .. }
        | ScenarioKind::Profile { model, .. } => vec![(spec.platform, model)],
        _ => vec![],
    }
}

/// One saturated STREAM-triad trace on the ddr-study platform's detailed DRAM: every core
/// streams, and recording stops after [`TRACE_OPS`] completed memory operations.
fn record_stream_trace() -> Trace {
    let platform = specs::platform().resolve();
    let cpu = platform.cpu_config();
    let config = StreamConfig {
        kernel: StreamKernel::Triad,
        array_bytes: cpu.llc.capacity_bytes,
        iterations: 1,
        cores: cpu.cores,
    };
    let mut recorder = RecordingBackend::new(platform.build_dram());
    let mut engine = Engine::from_boxed(cpu, config.streams());
    let _ = engine.run(
        &mut recorder,
        StopCondition::MemoryOps(TRACE_OPS),
        80_000_000,
    );
    recorder.into_parts().1
}

/// Checks campaign outputs: against the recorded digests where the scenario spec equals
/// its default-seed form, and against the run's first iteration always.
struct Verifier {
    workload: &'static str,
    expected: Expected,
    pinned: Vec<bool>,
    first: Option<Vec<Digests>>,
}

impl Verifier {
    fn new(workload: Workload, campaign: &CampaignSpec) -> Verifier {
        let default = match workload {
            Workload::DdrStudy => specs::ddr_study(),
            _ => specs::app_sim(specs::DEFAULT_SEED),
        };
        let pinned = campaign
            .scenarios
            .iter()
            .zip(&default.scenarios)
            .map(|(a, b)| a.to_json() == b.to_json())
            .collect();
        Verifier {
            workload: workload.name(),
            expected: Expected::load(),
            pinned,
            first: None,
        }
    }

    /// Counts one attempt per scenario in `result`.
    fn check(
        &mut self,
        campaign: &CampaignSpec,
        outcomes: &Result<Vec<ScenarioOutcome>, MessError>,
        result: &mut RunResult,
    ) {
        let outcomes = match outcomes {
            Ok(outcomes) => outcomes,
            Err(e) => {
                for spec in &campaign.scenarios {
                    result.attempt(Some(format!("{}/{}: {e}", self.workload, spec.id)));
                }
                return;
            }
        };
        let digests: Vec<Digests> = outcomes.iter().map(Digests::of).collect();
        for (i, (spec, actual)) in campaign.scenarios.iter().zip(&digests).enumerate() {
            let mut problem = None;
            if self.pinned[i] {
                problem = self.expected.check(self.workload, &spec.id, actual);
            }
            if let Some(first) = &self.first {
                if &first[i] != actual {
                    problem = Some(format!(
                        "{}/{}: output differs from the run's first iteration",
                        self.workload, spec.id
                    ));
                }
            }
            result.attempt(problem);
        }
        self.first.get_or_insert(digests);
    }
}

/// Runs the campaign once through the harness entry point, recording each scenario job's
/// host time.
fn run_once(
    campaign: &CampaignSpec,
    job_ms: &mut Vec<f64>,
) -> Result<Vec<ScenarioOutcome>, MessError> {
    let mut started: HashMap<String, Instant> = HashMap::new();
    run_campaign_with(campaign, &ScenarioOptions::default(), |event| match event {
        JobEvent::Started { name, .. } => {
            started.insert(name.to_string(), Instant::now());
        }
        JobEvent::Finished { name, .. } => {
            if let Some(start) = started.get(name) {
                job_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    })
}

/// Entry point for `ddr-study` and `app-sim`.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let (prepared, setup_s) = repeat_setup(|_| prepare(args.workload, args.seed), drop)?;
    let mut verifier = Verifier::new(args.workload, &prepared.campaign);
    let mut result = RunResult::default();
    if args.trace {
        traced(args, &prepared, &mut verifier, &mut result)?;
    } else {
        result.set("setup_s", setup_s);
        untraced(args, &prepared, &mut verifier, &mut result)?;
    }
    Ok(result)
}

fn untraced(
    args: &Args,
    prepared: &Prepared,
    verifier: &mut Verifier,
    result: &mut RunResult,
) -> Result<(), String> {
    let campaign = &prepared.campaign;
    let window = Instant::now();
    let mut walls = Vec::new();
    let mut mean_job_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let mut probe: Option<HitProbe> = None;
    let mut peak_rss_mib = 0.0;
    loop {
        let start = Instant::now();
        let mut job_ms = Vec::new();
        let outcomes = run_once(campaign, &mut job_ms);
        verifier.check(campaign, &outcomes, result);
        walls.push(start.elapsed().as_secs_f64());
        mean_job_ms.push(job_ms.iter().sum::<f64>() / job_ms.len().max(1) as f64);
        if walls.len() == 1 {
            // Set-up plus one campaign: the footprint does not depend on how many
            // iterations fit the window.
            peak_rss_mib = stats::peak_rss_mib();
        }
        if let (None, Ok(outcomes)) = (&probe, &outcomes) {
            probe = Some(HitProbe::new(campaign, outcomes)?);
        }
        // One block of resubmissions after every campaign, so the hit latencies sample
        // the same stretch of host time as the campaign walls.
        if let Some(probe) = &probe {
            probe.resubmit(HIT_BLOCK, &mut hit_ms, result, None);
        }
        if window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    probe.ok_or("no campaign iteration succeeded")?.finish();
    result.set("wall_s", median(&walls));
    result.set("miss_p50_ms", median(&mean_job_ms));
    result.set(
        "req_per_s",
        (walls.len() * campaign.scenarios.len()) as f64 / walls.iter().sum::<f64>(),
    );
    result.set("hit_p50_ms", median(&hit_ms));
    result.set("hit_p95_ms", blocked_quantile(&hit_ms, HIT_BLOCK, 0.95));
    result.set("peak_rss_mib", peak_rss_mib);
    result.set("ok_ratio", result.ok_ratio());
    Ok(())
}

/// Host time of the serve layer's calls during the traced resubmissions.
#[derive(Default)]
struct ServeTimes {
    digest_s: f64,
    submit_s: f64,
    report_s: f64,
}

/// An in-process `messd` daemon whose cache holds a run's verified outcomes, for timing
/// cached resubmissions through its `submit` and the run's `report_csv` (no HTTP).
struct HitProbe {
    daemon: std::sync::Arc<Daemon>,
    dir: std::path::PathBuf,
    /// `(scenario id, spec JSON, verified report CSV)` per scenario.
    bodies: Vec<(String, String, String)>,
}

impl HitProbe {
    fn new(campaign: &CampaignSpec, outcomes: &[ScenarioOutcome]) -> Result<HitProbe, String> {
        let dir = work_dir("hits");
        let daemon = Daemon::new(DaemonConfig {
            cache_dir: dir.clone(),
            admission: 1,
            default_threads: WORKERS,
            max_cache_entries: 4_096,
        })
        .map_err(|e| e.to_string())?;
        // A daemon switches the metrics registry on; the campaigns that follow are
        // measured with it off.
        mess_obs::set_enabled(false);
        let mut bodies = Vec::new();
        for (spec, outcome) in campaign.scenarios.iter().zip(outcomes) {
            let json = spec.to_json();
            daemon
                .cache
                .store(
                    &spec.spec_digest(),
                    RunKind::Scenario,
                    &json,
                    std::slice::from_ref(&outcome.report),
                    &outcome.curve_sets,
                    false,
                )
                .map_err(|e| e.to_string())?;
            bodies.push((spec.id.clone(), json, outcome.report.to_csv()));
        }
        Ok(HitProbe {
            daemon,
            dir,
            bodies,
        })
    }

    /// Resubmits the scenarios in turn `count` times, appending each latency in ms. With a
    /// tracer, every resubmission gets a span and `times` gathers the host time of its
    /// calls, plus the price of the digest the daemon computes (repeated here).
    fn resubmit(
        &self,
        count: usize,
        hit_ms: &mut Vec<f64>,
        result: &mut RunResult,
        mut traced: Option<(&Tracer, &mut ServeTimes)>,
    ) {
        for i in 0..count {
            let (id, body, csv) = &self.bodies[i % self.bodies.len()];
            if let Some((_, times)) = traced.as_mut() {
                let start = Instant::now();
                let _ = ScenarioSpec::from_json(body).map(|spec| spec.spec_digest());
                times.digest_s += start.elapsed().as_secs_f64();
            }
            let mut submit_s = 0.0;
            let mut report_s = 0.0;
            let mut resubmit = || {
                let start = Instant::now();
                let receipt = self
                    .daemon
                    .submit(RunKind::Scenario, body, 0, CacheMode::Use);
                submit_s = start.elapsed().as_secs_f64();
                let answer = receipt.map(|receipt| {
                    let t = Instant::now();
                    let run = self.daemon.run(&receipt.run);
                    let served = run.and_then(|run| run.report_csv());
                    report_s = t.elapsed().as_secs_f64();
                    (receipt.cached, served)
                });
                (answer, start.elapsed().as_secs_f64() * 1e3)
            };
            let (answer, ms) = match traced.as_mut() {
                Some((tracer, _)) => tracer.span("serve.resubmit", 0, i as u64 + 1, |_| resubmit()),
                None => resubmit(),
            };
            if let Some((_, times)) = traced.as_mut() {
                times.submit_s += submit_s;
                times.report_s += report_s;
            }
            hit_ms.push(ms);
            result.attempt(match answer {
                Ok((true, Some(served))) if &served == csv => None,
                Ok((cached, _)) => Some(format!(
                    "resubmitted {id}: cached={cached}, served report differs"
                )),
                Err(e) => Some(format!("resubmitted {id}: {}", e.message)),
            });
        }
    }

    fn finish(self) {
        self.daemon.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Backend host-time totals per layer.
#[derive(Default)]
struct LayerTotals {
    dram: BackendTotals,
    memmodels: BackendTotals,
    core: BackendTotals,
    cxl: BackendTotals,
}

impl LayerTotals {
    /// The crate whose model `kind` is.
    fn of(&self, kind: MemoryModelKind) -> &BackendTotals {
        match kind {
            MemoryModelKind::DetailedDram
            | MemoryModelKind::Dramsim3Like
            | MemoryModelKind::RamulatorLike
            | MemoryModelKind::Ramulator2Like => &self.dram,
            MemoryModelKind::Mess => &self.core,
            MemoryModelKind::CxlExpander => &self.cxl,
            _ => &self.memmodels,
        }
    }
}

/// Counts gathered while the traced campaign runs.
#[derive(Default)]
struct Tally {
    characterizations: Vec<String>,
    points: usize,
    points_saturated: usize,
    materialized_ops: u64,
    runs_truncated: usize,
}

/// What the traced repetition of one scenario computed, for comparison with the base run.
#[derive(Debug, PartialEq)]
enum Mirrored {
    Families(Vec<CurveFamily>),
    Run { instructions: u64, cycles: u64 },
    Profile { samples: usize },
}

struct TraceCtx<'a> {
    tracer: &'a Tracer,
    totals: &'a LayerTotals,
    tally: &'a Mutex<Tally>,
}

impl TraceCtx<'_> {
    fn tally(&self, update: impl FnOnce(&mut Tally)) {
        update(&mut self.tally.lock().expect("tally poisoned"));
    }

    /// One characterization leg: `characterize_spec` with every sweep point's backend
    /// wrapped in the timing decorator.
    fn characterize(
        &self,
        platform: &PlatformSpec,
        factory: &ModelFactory,
        sweep: &SweepSpec,
        parent: u64,
        run: u64,
    ) -> Result<CurveFamily, MessError> {
        let totals = self.totals.of(factory.kind());
        let c = self.tracer.span("bench.characterize", parent, run, |_| {
            characterize_spec(
                platform.name,
                &platform.cpu_config(),
                || Timed::new(factory.build().expect("resolve_factory built it"), totals),
                sweep,
                &ExecConfig::default(),
            )
        })?;
        self.tally(|t| {
            t.characterizations.push(format!(
                "{}|{}|{}|{}|{sweep:?}",
                platform.id.key(),
                platform.cores,
                platform.channels,
                factory.kind().label()
            ));
            t.points += c.points.len();
            t.points_saturated += c.points.iter().filter(|p| p.saturated_early).count();
        });
        Ok(c.family)
    }

    fn stream_reference(&self, platform: &PlatformSpec, llc_multiple: u64, parent: u64, run: u64) {
        self.tracer
            .span("scenario.stream_reference", parent, run, |_| {
                stream_bandwidths(platform, llc_multiple, &ExecConfig::default())
            });
    }

    /// Repeats the layer calls `run_scenario_with` makes for `spec`, each in a span.
    fn scenario(&self, spec: &ScenarioSpec, parent: u64, run: u64) -> Result<Mirrored, MessError> {
        let options = ScenarioOptions::default();
        let factory_build = |model: &ModelSpec, platform: &PlatformSpec| {
            self.tracer
                .span("platforms.factory_build", parent, run, |_| {
                    resolve_factory(model, platform, &options)
                })
        };
        let platform = spec.platform.resolve();
        match &spec.kind {
            ScenarioKind::CurveFamily {
                model,
                sweep,
                stream_llc_multiple,
                ..
            } => {
                let factory = factory_build(model, &platform)?;
                let family = self.characterize(&platform, &factory, sweep, parent, run)?;
                if let Some(multiple) = stream_llc_multiple {
                    self.stream_reference(&platform, *multiple, parent, run);
                }
                Ok(Mirrored::Families(vec![family]))
            }
            ScenarioKind::PlatformTable {
                platforms,
                model,
                sweep,
                stream_llc_multiple,
            } => {
                let factories = platforms
                    .iter()
                    .map(|leg| factory_build(model, &leg.resolve()))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut families = Vec::new();
                for (leg, factory) in platforms.iter().zip(&factories) {
                    let leg = leg.resolve();
                    families.push(self.characterize(&leg, factory, sweep, parent, run)?);
                    self.stream_reference(&leg, *stream_llc_multiple, parent, run);
                }
                Ok(Mirrored::Families(families))
            }
            ScenarioKind::Run {
                workload,
                model,
                max_cycles,
            } => {
                let cpu = platform.cpu_config();
                let compiled = self.tracer.span("workloads.compile", parent, run, |_| {
                    workload.compile(cpu.llc.capacity_bytes, cpu.cores)
                })?;
                self.tally(|t| t.materialized_ops += compiled.materialized_ops());
                let streams = compiled.into_streams();
                let factory = factory_build(model, &platform)?;
                let report = self.tracer.span("cpu.engine", parent, run, |_| {
                    let mut backend = Timed::new(factory.build()?, self.totals.of(model.kind));
                    let mut engine = Engine::from_boxed(cpu, streams);
                    Ok::<_, MessError>(engine.run(
                        &mut backend,
                        StopCondition::AllStreamsDone,
                        *max_cycles,
                    ))
                })?;
                self.tally(|t| t.runs_truncated += usize::from(report.hit_cycle_limit));
                Ok(Mirrored::Run {
                    instructions: report.total_instructions,
                    cycles: report.cycles,
                })
            }
            ScenarioKind::Profile {
                workload,
                model,
                curves,
                window_us,
                max_cycles,
                ..
            } => {
                let (factory, family) =
                    self.tracer
                        .span("platforms.factory_build", parent, run, |_| {
                            Ok::<_, MessError>((
                                resolve_factory(model, &platform, &options)?,
                                resolve_curves(curves, &platform, &options)?,
                            ))
                        })?;
                let cpu = platform.cpu_config();
                let compiled = self.tracer.span("workloads.compile", parent, run, |_| {
                    workload.compile(cpu.llc.capacity_bytes, cpu.cores)
                })?;
                self.tally(|t| t.materialized_ops += compiled.materialized_ops());
                let streams = compiled.into_streams();
                let trace = self.tracer.span("cpu.engine", parent, run, |_| {
                    let backend = Timed::new(factory.build()?, self.totals.of(model.kind));
                    let mut recorder = RecordingBackend::new(backend);
                    let mut engine = Engine::from_boxed(cpu, streams);
                    let report =
                        engine.run(&mut recorder, StopCondition::AllStreamsDone, *max_cycles);
                    self.tally(|t| t.runs_truncated += usize::from(report.hit_cycle_limit));
                    Ok::<_, MessError>(recorder.into_parts().1)
                })?;
                let timeline = self.tracer.span("profiler.profile", parent, run, |_| {
                    let samples = trace_to_samples(&trace, platform.frequency, *window_us);
                    Profiler::new(family).profile(&samples)
                });
                Ok(Mirrored::Profile {
                    samples: timeline.samples.len(),
                })
            }
            other => Err(MessError::InvalidConfig(format!(
                "the traced run does not repeat {other:?}"
            ))),
        }
    }
}

/// What the base (harness-path) outcome says the traced repetition must reproduce.
fn mirror_of(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Option<Mirrored> {
    let cell = |row: usize, col: usize| -> Option<u64> {
        outcome.report.rows.get(row)?.get(col)?.parse().ok()
    };
    Some(match &spec.kind {
        ScenarioKind::CurveFamily { .. } | ScenarioKind::PlatformTable { .. } => {
            Mirrored::Families(
                outcome
                    .curve_sets
                    .iter()
                    .map(|set| set.family().clone())
                    .collect(),
            )
        }
        ScenarioKind::Run { .. } => Mirrored::Run {
            instructions: cell(0, 5)?,
            cycles: cell(0, 6)?,
        },
        ScenarioKind::Profile { .. } => Mirrored::Profile {
            samples: outcome.report.rows.len(),
        },
        _ => return None,
    })
}

fn traced(
    args: &Args,
    prepared: &Prepared,
    verifier: &mut Verifier,
    result: &mut RunResult,
) -> Result<(), String> {
    let campaign = &prepared.campaign;
    let start = Instant::now();
    let base = run_once(campaign, &mut Vec::new());
    verifier.check(campaign, &base, result);
    let base_wall = start.elapsed().as_secs_f64();
    let base = base.map_err(|e| e.to_string())?;

    layers::ns_per_tick();
    mess_obs::set_enabled(true);
    let before = Registry::snapshot();
    let tracer = Tracer::new();
    let totals = LayerTotals::default();
    let tally = Mutex::new(Tally::default());
    let ctx = TraceCtx {
        tracer: &tracer,
        totals: &totals,
        tally: &tally,
    };
    let start = Instant::now();
    let mirrored = tracer.span("workload", 0, 0, |root| {
        let items: Vec<&ScenarioSpec> = campaign.scenarios.iter().collect();
        mess_exec::par_map_with(&ExecConfig::default(), items, |i, spec| {
            let run = i as u64 + 1;
            tracer.span("scenario", root, run, |id| ctx.scenario(spec, id, run))
        })
    });
    let traced_wall = start.elapsed().as_secs_f64();
    let after = Registry::snapshot();

    // The serve layer: one traced block of cached resubmissions of the base outcomes.
    let probe = HitProbe::new(campaign, &base)?;
    mess_obs::set_enabled(true);
    let mut serve = ServeTimes::default();
    probe.resubmit(
        HIT_BLOCK,
        &mut Vec::new(),
        result,
        Some((&tracer, &mut serve)),
    );
    let cache_hits = probe.daemon.stats().cache_hits;
    probe.finish();
    mess_obs::set_enabled(false);

    for ((spec, outcome), mirrored) in campaign.scenarios.iter().zip(&base).zip(&mirrored) {
        let problem = match mirrored {
            Ok(m) if Some(m) == mirror_of(spec, outcome).as_ref() => None,
            Ok(_) => Some(format!(
                "{}: the traced layer calls disagree with the harness run",
                spec.id
            )),
            Err(e) => Some(format!("{}: traced run failed: {e}", spec.id)),
        };
        result.attempt(problem);
    }

    let spans = tracer.finish();
    let tally = tally.into_inner().expect("tally poisoned");
    let dram = totals.dram.sums();
    let span_s = |name| layers::total(&spans, name);

    // Backend-only cost: the set-up STREAM trace replayed with no CPU model.
    let mut replay_ns_per_request = 0.0;
    if let Some(trace) = &prepared.trace {
        let platform = specs::platform().resolve();
        for (kind, metric) in [
            (MemoryModelKind::DetailedDram, "dram.replay_s"),
            (
                MemoryModelKind::RamulatorLike,
                "dram.replay_ramulator_like_s",
            ),
        ] {
            let mut backend = ModelFactory::new(kind, &platform)
                .build()
                .map_err(|e| e.to_string())?;
            let start = Instant::now();
            let replayed = replay(trace, backend.as_mut(), platform.frequency, 1.0);
            let secs = start.elapsed().as_secs_f64();
            result.attempt((replayed.requests != trace.len() as u64).then(|| {
                format!(
                    "replay through {}: {} of {} requests",
                    kind.label(),
                    replayed.requests,
                    trace.len()
                )
            }));
            result.set(metric, secs);
            if kind == MemoryModelKind::DetailedDram {
                replay_ns_per_request = stats::ratio(secs * 1e9, replayed.requests as f64);
            }
        }
    }
    result.set("dram.replay_ns_per_request", replay_ns_per_request);

    // STREAM's backends are built inside `stream_bandwidths`, so its DRAM share is the
    // requests the undecorated runs issued, priced at the replay's host cost per request.
    let decorated: u64 = [&totals.dram, &totals.memmodels, &totals.core, &totals.cxl]
        .iter()
        .map(|t| t.sums().accepted)
        .sum();
    let stream_requests =
        (after.delta(&before, "mess_engine_issued_requests_total") - decorated as f64).max(0.0);
    let stream_reference_s = span_s("scenario.stream_reference");
    let stream_backend_s = if stream_reference_s > 0.0 {
        stream_requests * replay_ns_per_request * 1e-9
    } else {
        0.0
    };
    let decorated_engine_s: f64 = [&totals.dram, &totals.memmodels, &totals.core, &totals.cxl]
        .iter()
        .map(|t| {
            let s = t.sums();
            s.lifetime_s - s.backend_s
        })
        .sum();
    let engine_self_s = decorated_engine_s + (stream_reference_s - stream_backend_s).max(0.0);
    let sim_ops = after.delta(&before, "mess_engine_sim_ops_total");

    result.set("workloads.compile_s", span_s("workloads.compile"));
    result.set("workloads.materialized_ops", tally.materialized_ops as f64);
    result.set("cpu.engine_self_s", engine_self_s);
    result.set("cpu.sim_ops", sim_ops);
    result.set(
        "cpu.host_ns_per_sim_op",
        stats::ratio(engine_self_s * 1e9, sim_ops),
    );
    result.set(
        "cpu.cycles_skipped_ratio",
        stats::ratio(
            after.delta(&before, "mess_engine_cycles_skipped_total"),
            after.delta(&before, "mess_engine_cycles_total"),
        ),
    );
    result.set("cpu.runs_truncated", tally.runs_truncated as f64);
    result.set("dram.sweep_backend_s", dram.backend_s);
    result.set("dram.stream_backend_s", stream_backend_s);
    result.set(
        "dram.host_ns_per_request",
        stats::ratio(dram.backend_s * 1e9, dram.accepted as f64),
    );
    result.set(
        "dram.rejected_ratio",
        stats::ratio(dram.rejected as f64, dram.issue_calls as f64),
    );
    result.set(
        "dram.row_hit_ratio",
        stats::ratio(dram.row_hits as f64, dram.row_accesses as f64),
    );
    for (totals, backend_s, per_request) in [
        (
            &totals.memmodels,
            "memmodels.backend_s",
            "memmodels.host_ns_per_request",
        ),
        (&totals.core, "core.backend_s", "core.host_ns_per_request"),
        (&totals.cxl, "cxl.backend_s", "cxl.host_ns_per_request"),
    ] {
        let s = totals.sums();
        result.set(backend_s, s.backend_s);
        result.set(
            per_request,
            stats::ratio(s.backend_s * 1e9, s.accepted as f64),
        );
    }
    result.set("bench.characterize_s", span_s("bench.characterize"));
    result.set("bench.points", tally.points as f64);
    result.set("bench.points_saturated", tally.points_saturated as f64);
    result.set(
        "exec.items",
        after.delta(&before, "mess_exec_pool_items_total")
            + after.delta(&before, "mess_exec_graph_jobs_total"),
    );
    result.set(
        "exec.job_wait_s",
        after.delta(&before, "mess_exec_job_wait_seconds_sum"),
    );
    result.set(
        "exec.busy_ratio",
        stats::ratio(
            after.delta(&before, "mess_exec_job_run_seconds_sum"),
            traced_wall * WORKERS as f64,
        ),
    );
    result.set("scenario.run_s", span_s("scenario"));
    result.set("scenario.stream_reference_s", stream_reference_s);
    let calls = tally.characterizations.len();
    let distinct = tally
        .characterizations
        .iter()
        .collect::<BTreeSet<_>>()
        .len();
    result.set("scenario.characterizations", calls as f64);
    result.set(
        "scenario.unique_characterization_ratio",
        stats::ratio(distinct as f64, calls as f64),
    );
    let unattributed: f64 = spans
        .iter()
        .filter(|s| s.name == "workload" || s.name == "scenario")
        .map(|s| layers::self_time(&spans, s))
        .sum();
    result.set("scenario.unattributed_s", unattributed);
    result.set(
        "platforms.factory_build_s",
        span_s("platforms.factory_build"),
    );
    result.set("serve.digest_s", serve.digest_s);
    result.set("serve.submit_s", serve.submit_s);
    result.set("serve.report_s", serve.report_s);
    result.set("serve.cache_hits", cache_hits as f64);
    result.set("serve.requests", HIT_BLOCK as f64);
    result.set("profiler.profile_s", span_s("profiler.profile"));
    result.set("trace.wall_s", traced_wall);
    result.set("trace.base_wall_s", base_wall);
    result.set("trace.overhead_s", traced_wall - base_wall);
    result.set(
        "trace.overhead_ratio",
        stats::ratio(traced_wall - base_wall, base_wall),
    );
    crate::write_spans(args, &spans);
    Ok(())
}
