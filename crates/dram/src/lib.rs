//! Cycle-level DRAM memory-system simulator.
//!
//! This crate is the "actual hardware" stand-in of the reproduction: a multi-channel DRAM
//! model with banks, row buffers, FR-FCFS scheduling, write-drain watermarks, refresh and the
//! JEDEC-style timing constraints (tRCD, tRP, CL/CWL, tWR, tWTR, tCCD, tFAW, tRFC/tREFI) that
//! produce the memory behaviour the Mess paper characterizes: latency that rises with load,
//! writes that reduce achievable bandwidth and saturate earlier, and row-buffer misses that
//! can make the measured bandwidth *decline* while latency keeps growing.
//!
//! Modules:
//!
//! * [`timing`] — DRAM timing parameters and presets (DDR4-2666/3200, DDR5-4800/5600, HBM2,
//!   HBM2E, an Optane-like device).
//! * [`address`] — physical-address to channel/rank/bank-group/bank/row/column mapping.
//! * [`bank`] — per-bank state machine.
//! * [`controller`] — a single-channel memory controller with FR-FCFS scheduling.
//! * [`system`] — [`DramSystem`], the multi-channel [`mess_types::MemoryBackend`].
//! * [`approx`] — deliberately simplified models reproducing the error modes the paper
//!   attributes to DRAMsim3, Ramulator and Ramulator 2.
//!
//! # Performance notes
//!
//! The detailed model is the expensive tail of every sweep (the paper's §V-B point:
//! cycle-accurate DRAM simulation is 13–15× slower than the Mess model), so its hot path
//! is organized around two ideas:
//!
//! * **Exact event scheduling.** A candidate command's readiness is a maximum of absolute
//!   deadlines (its bank's tRCD/tRP/tRAS windows, the rank's tRRD/tFAW activate ring,
//!   refresh blocking, data-bus occupancy), none of which depend on the current cycle. The
//!   controller therefore computes the *exact* cycle of the next command issue instead of
//!   being stepped to it, `ChannelController::tick` jumps straight between command issues
//!   and refresh deadlines, and [`MemoryBackend::next_event`] reports the precise next
//!   issue or data return. A cycle-skipping issuer (`mess_cpu::Engine::run`) ticks the
//!   model a handful of times per request on low-occupancy traffic rather than once per
//!   cycle — the schedule stays bit-identical to the retained cycle-by-cycle reference
//!   path (`DramSystem::tick_reference`), which the `event_equivalence` test enforces.
//! * **Incremental FR-FCFS.** The controller keeps the winner of its last queue scan and
//!   updates it with one comparison per arrival, so the queue is scanned once per command
//!   issue (the controller module's "kept winner" section states when that winner stays
//!   exact).
//! * **Flat state, allocation-free steady state.** Per-bank timing state lives in
//!   [`bank::BankArray`], a structure of arrays keyed by the flat `(rank, bank)` index that
//!   each request carries from enqueue on, so the FR-FCFS scan walks dense `Vec<u64>`
//!   columns; the per-rank tFAW history is a flat four-entry ring whose activate floor is
//!   updated once per activate; scheduled completions sit in a min-heap keyed by
//!   (completion cycle, acceptance sequence), popped directly into the caller's reusable
//!   drain buffer. After warm-up, the issue → complete → drain cycle performs no heap
//!   allocation.
//!
//! [`MemoryBackend::next_event`]: mess_types::MemoryBackend::next_event
//!
//! # Example
//!
//! ```
//! use mess_dram::{DramConfig, DramSystem, timing::DramPreset};
//! use mess_types::{Cycle, Frequency, MemoryBackend, Request};
//!
//! let config = DramConfig::new(DramPreset::Ddr4_2666, 6, Frequency::from_ghz(2.1));
//! let mut dram = DramSystem::new(config);
//! dram.try_enqueue(Request::read(0, 0x4000, Cycle::new(0), 0)).unwrap();
//! // The controller issues DRAM commands as simulated time advances; a later tick lets the
//! // completed data burst become visible to the CPU side.
//! dram.tick(Cycle::new(1_000));
//! dram.tick(Cycle::new(2_000));
//! let mut done = Vec::new();
//! dram.drain_completed(&mut done);
//! assert_eq!(done.len(), 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod address;
pub mod approx;
pub mod bank;
pub mod controller;
pub mod system;
pub mod timing;

pub use approx::{ApproxDramSim, ApproxProfile};
pub use system::{DramConfig, DramSystem};
pub use timing::{DramPreset, DramTiming};
