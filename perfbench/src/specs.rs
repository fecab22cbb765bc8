//! The benchmark's inputs: the scenario specs each workload submits, built from the seed.
//!
//! Every spec runs on the quick-fidelity Skylake (8 cores, 4 channels). Only the
//! generator seeds of GUPS, multichase and HPCG depend on the benchmark seed; everything
//! else is fixed, so the recorded output digests of seed-independent scenarios apply at
//! any seed.

use crate::stats::SplitMix;
use mess_platforms::{MemoryModelKind, PlatformId};
use mess_scenario::{
    CampaignSpec, CurveSourceSpec, ModelSpec, PlatformRef, ScenarioKind, ScenarioSpec, SweepPreset,
    SweepSpec, WorkloadSpec,
};
use mess_workloads::StreamKernel;

/// The seed the recorded digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// The platform every workload runs on.
pub fn platform() -> PlatformRef {
    PlatformRef::quick(PlatformId::IntelSkylake)
}

fn scenario(id: &str, title: &str, kind: ScenarioKind) -> ScenarioSpec {
    ScenarioSpec {
        id: id.into(),
        title: title.into(),
        platform: platform(),
        kind,
        notes: vec![],
    }
}

fn run(id: &str, workload: WorkloadSpec, model: MemoryModelKind) -> ScenarioSpec {
    scenario(
        id,
        &format!("{} on {}", workload.label(), model.label()),
        ScenarioKind::Run {
            workload,
            model: ModelSpec::of(model),
            max_cycles: 400_000_000,
        },
    )
}

/// The fig2 quick characterization sweep: store mixes 0/1, pauses 200/40/8/0, 150 chase
/// loads, 800k cycles per point.
fn characterization_sweep() -> SweepSpec {
    SweepSpec {
        preset: SweepPreset::Full,
        store_mixes: Some(vec![0.0, 1.0]),
        pause_levels: Some(vec![200, 40, 8, 0]),
        chase_loads: Some(150),
        max_cycles_per_point: Some(800_000),
    }
}

/// `ddr-study`: the fig2 curve family plus a one-platform Table I on the same Skylake,
/// model, sweep and STREAM multiple (1x LLC) — one duplicated characterization and STREAM
/// leg, as in `--experiment all`. Independent of the seed.
pub fn ddr_study() -> CampaignSpec {
    let model = ModelSpec::of(MemoryModelKind::DetailedDram);
    CampaignSpec {
        name: "ddr-study".into(),
        scenarios: vec![
            scenario(
                "ddr-curves",
                "Detailed-DRAM bandwidth-latency curves of the quick Skylake",
                ScenarioKind::CurveFamily {
                    model: model.clone(),
                    sweep: characterization_sweep(),
                    stream_llc_multiple: Some(1),
                    paper_reference: true,
                },
            ),
            scenario(
                "ddr-table",
                "Table I row of the quick Skylake",
                ScenarioKind::PlatformTable {
                    platforms: vec![platform()],
                    model,
                    sweep: characterization_sweep(),
                    stream_llc_multiple: 1,
                },
            ),
        ],
    }
}

/// `app-sim`: one workload family per fast model, plus HPCG profiled on the platform's
/// reference curves. The random workloads take their seeds from `seed`.
pub fn app_sim(seed: u64) -> CampaignSpec {
    let mut rng = SplitMix::new(seed, 0x0061_7070);
    let (chase_seed, gups_seed, hpcg_seed, profile_seed) = (
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
    );
    CampaignSpec {
        name: "app-sim".into(),
        scenarios: vec![
            run(
                "app-stream",
                WorkloadSpec::stream(StreamKernel::Triad, 4),
                MemoryModelKind::Mess,
            ),
            run(
                "app-multichase",
                WorkloadSpec::Multichase {
                    llc_multiple: 4,
                    loads: 600_000,
                    seed: chase_seed,
                },
                MemoryModelKind::Mess,
            ),
            run(
                "app-gups",
                WorkloadSpec::Gups {
                    llc_multiple: 8,
                    updates_per_core: 300_000,
                    seed: gups_seed,
                },
                MemoryModelKind::CxlExpander,
            ),
            run(
                "app-hpcg",
                WorkloadSpec::Hpcg {
                    rows_per_core: 16_000,
                    nonzeros_per_row: 27,
                    vector_llc_multiple: 4,
                    seed: hpcg_seed,
                },
                MemoryModelKind::Md1Queue,
            ),
            run(
                "app-latmemrd",
                WorkloadSpec::lat_mem_rd(600_000),
                MemoryModelKind::FixedLatency,
            ),
            run(
                "app-lbm",
                WorkloadSpec::spec_cpu2006("lbm", 240_000),
                MemoryModelKind::InternalDdr,
            ),
            scenario(
                "app-profile",
                "HPCG profiled on the Skylake reference curves",
                ScenarioKind::Profile {
                    workload: WorkloadSpec::Hpcg {
                        rows_per_core: 8_000,
                        nonzeros_per_row: 27,
                        vector_llc_multiple: 4,
                        seed: profile_seed,
                    },
                    model: ModelSpec::of(MemoryModelKind::Mess),
                    curves: CurveSourceSpec::PlatformReference,
                    window_us: 2.0,
                    phase_threshold: 0.5,
                    max_cycles: 400_000_000,
                },
            ),
        ],
    }
}
