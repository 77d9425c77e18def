//! `dram-sim` — a cycle-level DDR3 memory-system simulator.
//!
//! This crate is the USIMM-class substrate the Secure DIMM paper evaluates
//! on: channels of ranks and banks under full DDR3 timing constraints, an
//! FR-FCFS scheduler with read priority and write-queue draining, refresh,
//! precharge power-down, and a Micron-power-calculator-style energy model.
//!
//! It serves three roles in the reproduction:
//!
//! 1. the **main memory channels** of the non-secure and Freecursive
//!    baselines ([`MemorySystem`] over [`channel::DramChannel`]);
//! 2. each SDIMM's **internal channel** between the secure buffer and its
//!    DRAM devices (a quad-rank [`channel::DramChannel`] with on-DIMM I/O
//!    energy);
//! 3. the **shared external bus** carrying SDIMM buffer commands
//!    ([`bus::Bus`]).
//!
//! # Example
//!
//! ```
//! use dram_sim::{MemorySystem, config::ChannelConfig};
//!
//! let mut mem = MemorySystem::new(2, ChannelConfig::table2());
//! let (ch, id) = mem.enqueue_read(0x4_0000).expect("queue space");
//! let done = mem.run_until_idle(100_000);
//! assert!(done.iter().any(|(c, comp)| *c == ch && comp.id == id));
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod address;
pub mod bank;
pub mod bus;
pub mod channel;
pub mod cmdlog;
pub mod config;
pub mod intmap;
pub mod power;
pub mod rank;
pub mod request;
pub mod spec;
pub mod stats;
pub mod wear;

use channel::DramChannel;
use config::{ChannelConfig, Cycle};
use power::EnergyBreakdown;
use request::{Completion, RequestId};
use stats::ChannelStats;

/// A multi-channel memory system with line-granularity channel
/// interleaving, as used by the baseline configurations.
#[derive(Debug)]
pub struct MemorySystem {
    channels: Vec<DramChannel>,
    line_bytes: u64,
}

impl MemorySystem {
    /// Creates `n` identical channels from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, cfg: ChannelConfig) -> Self {
        assert!(n > 0, "at least one channel required");
        let line_bytes = cfg.topology.line_bytes as u64;
        MemorySystem {
            channels: (0..n).map(|_| DramChannel::new(cfg.clone())).collect(),
            line_bytes,
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Borrow a channel (for stats or direct control).
    pub fn channel(&self, i: usize) -> &DramChannel {
        &self.channels[i]
    }

    /// Mutably borrow a channel.
    pub fn channel_mut(&mut self, i: usize) -> &mut DramChannel {
        &mut self.channels[i]
    }

    /// Maps a global byte address to (channel, channel-local address) by
    /// interleaving consecutive cache lines across channels.
    pub fn map(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let n = self.channels.len() as u64;
        let ch = (line % n) as usize;
        let local = (line / n) * self.line_bytes + (addr % self.line_bytes);
        (ch, local)
    }

    /// Enqueues a read at a global address. Returns the channel it landed
    /// on and the per-channel request id, or `None` if that channel's
    /// queue is full.
    pub fn enqueue_read(&mut self, addr: u64) -> Option<(usize, RequestId)> {
        let (ch, local) = self.map(addr);
        self.channels[ch].enqueue_read(local).map(|id| (ch, id))
    }

    /// Enqueues a write at a global address (see [`enqueue_read`](Self::enqueue_read)).
    pub fn enqueue_write(&mut self, addr: u64) -> Option<(usize, RequestId)> {
        let (ch, local) = self.map(addr);
        self.channels[ch].enqueue_write(local).map(|id| (ch, id))
    }

    /// Advances every channel by `cycles`.
    pub fn tick(&mut self, cycles: Cycle) {
        for ch in &mut self.channels {
            ch.tick(cycles);
        }
        debug_assert!(
            self.channels.iter().all(|ch| ch.now() == self.channels[0].now()),
            "channels must advance in lockstep"
        );
    }

    /// Current cycle. [`tick`](Self::tick) advances every channel by the
    /// same amount, so the channels stay in lockstep (debug-asserted
    /// there); `now` is defined as the *minimum* across channels so that
    /// it stays meaningful — and conservative — even if a caller skews a
    /// channel through [`channel_mut`](Self::channel_mut).
    pub fn now(&self) -> Cycle {
        // lint: panic-ok(invariant: constructor rejects zero channels)
        self.channels.iter().map(DramChannel::now).min().expect("at least one channel")
    }

    /// Earliest cycle at which any channel could do observable work (the
    /// global minimum of per-channel [`DramChannel::next_event`]
    /// horizons). Callers may advance everything to this point in one
    /// jump without changing any observable behavior.
    pub fn next_event(&self) -> Cycle {
        // lint: panic-ok(invariant: constructor rejects zero channels)
        self.channels.iter().map(DramChannel::next_event).min().expect("at least one channel")
    }

    /// True when every channel is idle.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(DramChannel::is_idle)
    }

    /// Drains completions from all channels as `(channel, completion)`.
    pub fn drain_completions(&mut self) -> Vec<(usize, Completion)> {
        let mut out = Vec::new();
        for (i, ch) in self.channels.iter_mut().enumerate() {
            out.extend(ch.drain_completions().into_iter().map(|c| (i, c)));
        }
        out
    }

    /// Runs until idle (or `limit` cycles), returning all completions.
    ///
    /// Advances all channels together to the global next-event horizon
    /// each round, so fully idle stretches cost one jump instead of
    /// fixed-quantum spinning. Completions are identical to any other
    /// tick slicing (channel ticks are split-invariant); a deadline only
    /// truncates the run, it never reorders what drains before it.
    pub fn run_until_idle(&mut self, limit: Cycle) -> Vec<(usize, Completion)> {
        let deadline = self.now().saturating_add(limit);
        let mut out = Vec::new();
        while !self.is_idle() && self.now() < deadline {
            let target = self.next_event().clamp(self.now().saturating_add(1), deadline);
            self.tick(target.saturating_sub(self.now()));
            out.extend(self.drain_completions());
        }
        out.extend(self.drain_completions());
        out
    }

    /// Aggregate statistics across channels.
    pub fn stats(&self) -> ChannelStats {
        let mut s = ChannelStats::default();
        for ch in &self.channels {
            s.merge(ch.stats());
        }
        s
    }

    /// Aggregate energy across channels.
    pub fn energy(&mut self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for ch in &mut self.channels {
            e.merge(&ch.energy());
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> ChannelConfig {
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = false;
        cfg
    }

    #[test]
    fn lines_interleave_across_channels() {
        let mem = MemorySystem::new(2, quiet());
        assert_eq!(mem.map(0).0, 0);
        assert_eq!(mem.map(64).0, 1);
        assert_eq!(mem.map(128).0, 0);
        assert_eq!(mem.map(128).1, 64);
    }

    #[test]
    fn map_preserves_line_offsets() {
        let mem = MemorySystem::new(2, quiet());
        let (_, local) = mem.map(64 + 17);
        assert_eq!(local % 64, 17);
    }

    #[test]
    fn two_channels_double_streaming_bandwidth() {
        let run = |n: usize| -> Cycle {
            let mut mem = MemorySystem::new(n, quiet());
            let total = 256u64;
            let mut next = 0u64;
            let mut done = 0u64;
            while done < total {
                while next < total {
                    if mem.enqueue_read(next * 64).is_none() {
                        break;
                    }
                    next += 1;
                }
                mem.tick(32);
                done += mem.drain_completions().len() as u64;
            }
            mem.now()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            (two as f64) < one as f64 * 0.65,
            "2 channels should be ≈2× faster: 1ch={one}, 2ch={two}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = MemorySystem::new(0, quiet());
    }

    #[test]
    fn aggregate_stats_cover_all_channels() {
        let mut mem = MemorySystem::new(2, quiet());
        mem.enqueue_read(0).unwrap();
        mem.enqueue_read(64).unwrap();
        mem.run_until_idle(50_000);
        assert_eq!(mem.stats().reads_completed, 2);
    }
}
