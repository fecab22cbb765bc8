//! Equivalence regression for the event-driven DRAM rewrite.
//!
//! Drives two identical [`DramSystem`]s through the same randomized request schedule: one
//! through the production event engine (`tick` jumped straight between `next_event` cycles),
//! one through the retained cycle-by-cycle reference scheduler
//! ([`DramSystem::tick_reference`]). Per-request completion cycles, row-buffer outcomes and
//! the cumulative statistics must be bit-identical — the event engine is an optimization,
//! never a model change.
//!
//! Besides the random mixes, targeted schedules hit every case in which the production
//! controller must drop its kept FR-FCFS winner: an arrival that crosses the write high
//! watermark, a read arriving while writes are served opportunistically, arrivals around
//! refresh deadlines, FCFS mode, and a many-bank device.

use mess_dram::controller::ControllerConfig;
use mess_dram::{DramConfig, DramPreset, DramSystem};
use mess_types::{AccessKind, Completion, Cycle, Frequency, MemoryBackend, Request, RequestId};

/// Deterministic splitmix-style generator (no dependency on the rand stand-in's evolution).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One scheduled batch: at `cycle`, offer `batch`.
struct Step {
    cycle: u64,
    batch: Vec<Request>,
}

/// A random mix of latency-bound singles, streaming bursts, write-heavy phases and long idle
/// gaps (to cross refresh deadlines), deterministic per seed.
fn random_schedule(seed: u64, requests: usize) -> Vec<Step> {
    let mut rng = Mix(seed);
    let mut steps = Vec::new();
    let mut id = 0u64;
    let mut cycle = 0u64;
    while (id as usize) < requests {
        let phase = rng.below(4);
        let (burst, gap) = match phase {
            // Pointer-chase regime: single requests, long dead time.
            0 => (1, 200 + rng.below(900)),
            // Streaming bursts back to back.
            1 => (1 + rng.below(16), 1 + rng.below(6)),
            // Write-drain pressure: enough writes to cross the high watermark.
            2 => (8 + rng.below(24), 2 + rng.below(8)),
            // Idle gap past a refresh interval.
            _ => (1, 10_000 + rng.below(30_000)),
        };
        let mut batch = Vec::new();
        for _ in 0..burst {
            if id as usize >= requests {
                break;
            }
            let addr = match rng.below(3) {
                // Sequential run (row hits).
                0 => (id % 512) * 64,
                // Strided conflicts.
                1 => rng.below(64) * 0x8_0000,
                // Uniform random.
                _ => rng.below(1 << 24) * 64,
            };
            // Write-heavy in the drain-pressure phase, ~25 % writes elsewhere.
            let roll = rng.below(8);
            let kind = if (phase == 2 && roll < 4) || roll == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            batch.push(Request {
                id: RequestId(id),
                addr,
                kind,
                issue_cycle: Cycle::new(cycle),
                core: (id % 8) as u32,
            });
            id += 1;
        }
        steps.push(Step { cycle, batch });
        cycle += gap;
    }
    steps
}

/// What one drive observed, keyed for exact comparison.
struct Observed {
    /// (request id, completion cycle) in drain order.
    completions: Vec<(u64, u64)>,
    accepted: Vec<u64>,
    stats: mess_types::MemoryStats,
    row_stats: mess_types::RowBufferStats,
}

fn drive(sys: &mut DramSystem, steps: &[Step], event_driven: bool) -> Observed {
    let mut completions = Vec::new();
    let mut accepted = Vec::new();
    let mut buf: Vec<Completion> = Vec::new();
    let mut now = 0u64;
    let mut step_idx = 0usize;
    let horizon = steps.last().map(|s| s.cycle).unwrap_or(0) + 4_000_000;
    loop {
        if event_driven {
            sys.tick(Cycle::new(now));
        } else {
            sys.tick_reference(Cycle::new(now));
        }
        buf.clear();
        sys.drain_completed(&mut buf);
        for c in &buf {
            completions.push((c.id.0, c.complete_cycle.as_u64()));
        }
        while step_idx < steps.len() && steps[step_idx].cycle == now {
            let outcome = sys.issue(&steps[step_idx].batch);
            for r in &steps[step_idx].batch[..outcome.accepted] {
                accepted.push(r.id.0);
            }
            step_idx += 1;
        }
        if step_idx >= steps.len() && sys.pending() == 0 {
            break;
        }
        assert!(now < horizon, "schedule never drained");
        let next_script = steps.get(step_idx).map(|s| s.cycle);
        now = if event_driven {
            let event = sys.next_event().map(|c| c.as_u64());
            match (event, next_script) {
                (Some(e), Some(s)) => e.min(s),
                (Some(e), None) => e,
                (None, Some(s)) => s,
                (None, None) => now + 1,
            }
            .max(now + 1)
        } else {
            now + 1
        };
    }
    Observed {
        completions,
        accepted,
        stats: sys.stats(),
        row_stats: sys.row_stats(),
    }
}

/// Builds a request for a schedule step.
fn request(id: u64, addr: u64, kind: AccessKind, cycle: u64) -> Request {
    Request {
        id: RequestId(id),
        addr,
        kind,
        issue_cycle: Cycle::new(cycle),
        core: (id % 8) as u32,
    }
}

/// A random line address spread over many rows and banks (mostly row misses).
fn scattered(rng: &mut Mix) -> u64 {
    rng.below(1 << 24) * 64
}

/// Writes trickling in one per step until the write queue crosses its high watermark,
/// while a kept winner is being served: alternately a read backlog (the crossing switches
/// the served queue to writes) and a write batch just under the watermark with no reads
/// (the crossing only enters drain mode), followed by reads that drain mode must hold off.
fn watermark_schedule(seed: u64) -> Vec<Step> {
    let high = ControllerConfig::default().write_high_watermark as u64;
    let mut rng = Mix(seed);
    let mut steps = Vec::new();
    let (mut id, mut cycle) = (0u64, 0u64);
    for phase in 0..8 {
        let (kind, count) = if phase % 2 == 0 {
            (AccessKind::Read, 24 + rng.below(20))
        } else {
            (AccessKind::Write, high - 1 - rng.below(4))
        };
        let batch = (0..count)
            .map(|i| request(id + i, scattered(&mut rng), kind, cycle))
            .collect();
        id += count;
        steps.push(Step { cycle, batch });
        let writes = if phase % 2 == 0 { high } else { 4 };
        let reads = if phase % 2 == 0 { 0 } else { 3 };
        for i in 0..writes + rng.below(8) + reads {
            cycle += 1 + rng.below(2);
            let kind = if i < writes {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            steps.push(Step {
                cycle,
                batch: vec![request(id, scattered(&mut rng), kind, cycle)],
            });
            id += 1;
        }
        cycle += 5_000 + rng.below(5_000);
    }
    steps
}

/// Write bursts below the high watermark into an idle channel, so writes are served
/// opportunistically, each followed shortly by reads that take the scheduler back.
fn opportunistic_write_schedule(seed: u64) -> Vec<Step> {
    let high = ControllerConfig::default().write_high_watermark as u64;
    let mut rng = Mix(seed);
    let mut steps = Vec::new();
    let (mut id, mut cycle) = (0u64, 0u64);
    for _ in 0..12 {
        let writes = 2 + rng.below(high - 2);
        let batch = (0..writes)
            .map(|i| request(id + i, scattered(&mut rng), AccessKind::Write, cycle))
            .collect();
        id += writes;
        steps.push(Step { cycle, batch });
        for _ in 0..1 + rng.below(3) {
            cycle += 1 + rng.below(60);
            let read = request(id, scattered(&mut rng), AccessKind::Read, cycle);
            id += 1;
            steps.push(Step {
                cycle,
                batch: vec![read],
            });
        }
        cycle += 3_000 + rng.below(3_000);
    }
    steps
}

/// A read backlog shortly before each of the first refresh deadlines, then single arrivals
/// on the cycles around the deadline (two before it, on it, one after it).
fn refresh_edge_schedule(seed: u64, refi: u64) -> Vec<Step> {
    let mut rng = Mix(seed);
    let mut steps = Vec::new();
    let mut id = 0u64;
    for k in 1..=5u64 {
        let deadline = k * refi;
        let backlog = deadline - 100 - rng.below(300);
        let reads = 8 + rng.below(24);
        let batch = (0..reads)
            .map(|i| {
                let kind = if rng.below(4) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                request(id + i, scattered(&mut rng), kind, backlog)
            })
            .collect();
        id += reads;
        steps.push(Step {
            cycle: backlog,
            batch,
        });
        for cycle in deadline - 2..=deadline + 1 {
            // Alternate row hits on a recently opened row with scattered misses.
            let addr = if rng.below(2) == 0 {
                (id % 32) * 64
            } else {
                scattered(&mut rng)
            };
            steps.push(Step {
                cycle,
                batch: vec![request(id, addr, AccessKind::Read, cycle)],
            });
            id += 1;
        }
    }
    steps
}

fn assert_equivalent(config: DramConfig, seed: u64, requests: usize) {
    assert_schedule_equivalent(config, seed, &random_schedule(seed, requests));
}

fn assert_schedule_equivalent(config: DramConfig, seed: u64, steps: &[Step]) {
    let name = format!(
        "{:?} x{} fr_fcfs={} seed {seed}",
        config.preset, config.channels, config.controller.fr_fcfs
    );
    let mut event = DramSystem::new(config.clone());
    let mut reference = DramSystem::new(config);
    let a = drive(&mut event, steps, true);
    let b = drive(&mut reference, steps, false);
    assert_eq!(
        a.accepted, b.accepted,
        "{name}: acceptance decisions diverged"
    );
    assert_eq!(
        a.completions, b.completions,
        "{name}: per-request completion cycles diverged"
    );
    assert_eq!(a.stats, b.stats, "{name}: statistics diverged");
    assert_eq!(
        a.row_stats, b.row_stats,
        "{name}: row-buffer outcomes diverged"
    );
    assert_eq!(
        a.completions.len(),
        a.accepted.len(),
        "{name}: every accepted request completed"
    );
}

#[test]
fn ddr4_single_channel_event_tick_matches_reference() {
    // One channel concentrates every request: deepest queues, most write-drain churn.
    assert_equivalent(
        DramConfig::new(DramPreset::Ddr4_2666, 1, Frequency::from_ghz(2.0)),
        0xB0BA_CAFE,
        600,
    );
}

#[test]
fn ddr5_dual_channel_event_tick_matches_reference() {
    assert_equivalent(
        DramConfig::new(DramPreset::Ddr5_4800, 2, Frequency::from_ghz(2.5)),
        0x5EED_0001,
        600,
    );
}

#[test]
fn hbm_many_channel_event_tick_matches_reference() {
    assert_equivalent(
        DramConfig::new(DramPreset::Hbm2, 8, Frequency::from_ghz(2.0)),
        0xDEAD_BEEF,
        600,
    );
}

#[test]
fn refreshless_optane_event_tick_matches_reference() {
    // tRFC = 0 disables refresh entirely: the pure command-scheduling path.
    assert_equivalent(
        DramConfig::new(DramPreset::OptaneLike, 2, Frequency::from_ghz(2.0)),
        0x0C7A_AE5C,
        300,
    );
}

/// Seeds every targeted schedule runs over.
const EDGE_SEEDS: [u64; 4] = [1, 0x5EED_0002, 0xC0FF_EE03, 0xF00D_0004];

fn ddr4_single_channel() -> DramConfig {
    DramConfig::new(DramPreset::Ddr4_2666, 1, Frequency::from_ghz(2.0))
}

#[test]
fn write_high_watermark_crossing_matches_reference() {
    for seed in EDGE_SEEDS {
        assert_schedule_equivalent(ddr4_single_channel(), seed, &watermark_schedule(seed));
    }
}

#[test]
fn read_arriving_during_opportunistic_writes_matches_reference() {
    for seed in EDGE_SEEDS {
        assert_schedule_equivalent(
            ddr4_single_channel(),
            seed,
            &opportunistic_write_schedule(seed),
        );
    }
}

#[test]
fn arrivals_on_refresh_deadlines_match_reference() {
    let config = ddr4_single_channel();
    let refi = config.timing().to_cpu_cycles(config.cpu_frequency).refi;
    for seed in EDGE_SEEDS {
        assert_schedule_equivalent(config.clone(), seed, &refresh_edge_schedule(seed, refi));
    }
}

#[test]
fn fcfs_controller_event_tick_matches_reference() {
    let config = DramConfig {
        controller: ControllerConfig {
            fr_fcfs: false,
            ..ControllerConfig::default()
        },
        ..ddr4_single_channel()
    };
    for seed in EDGE_SEEDS {
        assert_equivalent(config.clone(), seed, 300);
        assert_schedule_equivalent(config.clone(), seed, &watermark_schedule(seed));
    }
}

#[test]
fn hbm_many_bank_single_channel_matches_reference() {
    // One HBM2 channel: 32 banks behind one queue pair, so scans see the most distinct
    // banks and activate-window pressure.
    let config = DramConfig::new(DramPreset::Hbm2, 1, Frequency::from_ghz(2.0));
    for seed in EDGE_SEEDS {
        assert_equivalent(config.clone(), seed, 400);
    }
}
