//! `sdimm` — the Secure DIMM architecture and its distributed ORAM
//! protocols (the primary contribution of the HPCA 2018 paper).
//!
//! A Secure DIMM replaces the passive LRDIMM buffer with a trusted secure
//! buffer that runs the ORAM backend next to the DRAM devices. This crate
//! implements:
//!
//! * [`commands`] — the Table I command set shoehorned into the DDR
//!   interface (reserved-address RAS/CAS encodings, short vs long).
//! * [`buffer`] — a wire-level secure-buffer model: the full encrypted
//!   message exchange (`ACCESS`/`PROBE`/`FETCH_RESULT`/`APPEND`) running
//!   against real per-SDIMM Path ORAMs, from boot-time authentication up.
//! * [`frontend`] — the CPU-side Freecursive frontend (PLB + recursion
//!   planner) that decides which `accessORAM`s each CPU request needs.
//! * [`independent`] — the Independent protocol: one subtree per SDIMM,
//!   `ACCESS`/`PROBE`/`FETCH_RESULT`/`APPEND` flow, all-SDIMM append
//!   fan-out, transfer queues.
//! * [`split`] — the Split protocol: every bucket byte-striped across k
//!   SDIMMs, CPU-side metadata reassembly, `FETCH_DATA`/`FETCH_STASH`/
//!   `RECEIVE_LIST` flow.
//! * [`indep_split`] — the combined architecture (2 groups × 2-way split).
//! * [`transfer_queue`] — the §IV-C transfer queue with probabilistic
//!   forced drain.
//! * [`obliviousness`] — observable-trace recording and the
//!   indistinguishability (shape) checker backing §III-G.
//! * [`protocol`] — the [`Protocol`] trait every ORAM controller
//!   implements (the three SDIMM protocols and the main-memory
//!   [`Baseline`]).
//! * [`trace`] — the timing contract ([`trace::RequestTrace`]) consumed
//!   by the cycle-level executor in `sdimm-system`.
//!
//! # Example
//!
//! ```
//! use sdimm::independent::{IndependentConfig, IndependentOram};
//! use sdimm::Protocol;
//! use oram::types::{BlockId, Op, OramConfig};
//!
//! let global = OramConfig { levels: 8, ..OramConfig::tiny() };
//! let mut oram = IndependentOram::new(IndependentConfig::new(2, &global), 128, 1);
//! oram.access(BlockId(3), Op::Write, Some(b"cloud secret"));
//! let (data, trace) = oram.access(BlockId(3), Op::Read, None);
//! assert_eq!(data, b"cloud secret");
//! // Most traffic stayed on-DIMM:
//! assert!(trace.external_bytes() < 64 * 8);
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod buffer;
pub mod commands;
pub mod frontend;
pub mod indep_split;
pub mod independent;
pub mod obliviousness;
pub mod protocol;
pub mod split;
pub mod trace;
pub mod transfer_queue;

pub use commands::SdimmCommand;
pub use frontend::Frontend;
pub use indep_split::{IndepSplitConfig, IndepSplitOram};
pub use independent::{IndependentConfig, IndependentOram};
pub use protocol::{Baseline, Protocol};
pub use split::{SplitConfig, SplitOram};
pub use trace::{Activity, Phase, RequestTrace};
