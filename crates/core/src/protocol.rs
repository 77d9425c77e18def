//! The one interface every ORAM controller implements.
//!
//! The paper evaluates its design points as interchangeable ORAM
//! controllers behind one memory interface (Fig 7): the Freecursive
//! baseline and the SDIMM Independent, Split and Indep-Split protocols.
//! [`Protocol`] is that interface. The system model plans every request
//! through it, the shadow-memory oracle drives every protocol through
//! it, and the observers (stash ticks, external-bus recorder, per-level
//! wear) attach through it.
//!
//! [`Baseline`] is the main-memory controller: one Path ORAM tree whose
//! lines interleave across the memory channels. The plain Path ORAM and
//! Freecursive machines both run it; they differ only in whether a
//! [`Frontend`](crate::frontend::Frontend) plans recursive accesses in
//! front of it.

use oram::path_oram::PathOram;
use oram::plan::AccessPlan;
use oram::types::{BlockId, Op};
use oram::wear::LevelWear;
use sdimm_telemetry::{FlightRecorder, MetricsRegistry};

use crate::obliviousness::Recorder;
use crate::trace::{Activity, Phase, RequestTrace};

/// One ORAM controller: a functional `accessORAM` plus the timing trace
/// of its memory traffic, and the observer hooks the system attaches.
pub trait Protocol: std::fmt::Debug + Send {
    /// Executes one `accessORAM(id, op, data)`, returning the block
    /// contents and the timing trace the executor replays.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the id space given at construction.
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace);

    /// Current stash occupancy: the maximum across the protocol's ORAM
    /// instances, the value the per-instance stash bound applies to.
    fn stash_len(&self) -> usize;

    /// Peak stash occupancy across the protocol's ORAM instances.
    fn stash_peak(&self) -> usize;

    /// The protocol's ORAM metrics as a registry.
    fn metrics(&self) -> MetricsRegistry;

    /// Attributes a line address as seen by DRAM channel `channel` back
    /// to the ORAM tree level whose bucket owns it, or `None` when the
    /// address is outside the tree. Each protocol speaks its own
    /// channel-address dialect, so the inversion is per protocol.
    fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32>;

    /// Per-tree-level wear merged across the protocol's ORAM instances.
    fn level_wear(&self) -> LevelWear;

    /// Attaches a flight recorder to every stash (occupancy ticks,
    /// backend tag = instance index).
    fn set_flight_recorder(&mut self, recorder: FlightRecorder);

    /// Verifies every ORAM instance's tree invariant.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate block or a block off its path.
    fn check_invariants(&self);

    /// Attaches an obliviousness recorder to the external-bus tap. A
    /// no-op for controllers without an external SDIMM bus.
    fn set_recorder(&mut self, _rec: Recorder) {}

    /// Takes the recorder back (with its captured trace), when one was
    /// attached and the controller has an external bus to observe.
    fn take_recorder(&mut self) -> Option<Recorder> {
        None
    }
}

/// The main-memory ORAM controller: one Path ORAM tree whose global line
/// addresses interleave across `channels` memory channels, one
/// serialized backend.
#[derive(Debug)]
pub struct Baseline {
    oram: PathOram,
    channels: usize,
}

impl Baseline {
    /// Runs `oram` over `channels` line-interleaved memory channels.
    pub fn new(oram: PathOram, channels: usize) -> Self {
        Baseline { oram, channels }
    }

    /// One whole-path `accessORAM` over the channels: path read
    /// (+decrypt) then path write-back, serialized on the single ORAM
    /// controller.
    fn path_trace(&self, plan: &AccessPlan) -> RequestTrace {
        let mut read_phase = Phase::default();
        for (ch, lines) in split_lines(&plan.read_lines, self.channels) {
            read_phase.par.push(Activity::Dram { channel: ch, reads: lines, writes: vec![] });
        }
        read_phase.par.push(Activity::Crypto { units: plan.read_lines.len() as u32 });
        let mut write_phase = Phase::default();
        for (ch, lines) in split_lines(&plan.write_lines, self.channels) {
            write_phase.par.push(Activity::Dram { channel: ch, reads: vec![], writes: lines });
        }
        let mut t = RequestTrace::new(vec![read_phase, write_phase]);
        // Data is ready after the path read; write-back drains behind it
        // inside the serialized backend.
        t.data_ready_phase = 0;
        t.backend = Some(0);
        t
    }
}

/// Maps global line addresses onto (channel, channel-local address) by
/// line interleaving, keeping only channels that receive a line.
fn split_lines(lines: &[u64], channels: usize) -> Vec<(usize, Vec<u64>)> {
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); channels];
    for &addr in lines {
        let line = addr / 64;
        let ch = (line % channels as u64) as usize;
        per[ch].push((line / channels as u64) * 64);
    }
    per.into_iter().enumerate().filter(|(_, v)| !v.is_empty()).collect()
}

impl Protocol for Baseline {
    fn access(&mut self, id: BlockId, op: Op, new_data: Option<&[u8]>) -> (Vec<u8>, RequestTrace) {
        let (data, plan) = self.oram.access(id, op, new_data);
        (data, self.path_trace(&plan))
    }

    fn stash_len(&self) -> usize {
        self.oram.stash_len()
    }

    fn stash_peak(&self) -> usize {
        self.oram.stash_peak()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.oram.metrics()
    }

    /// Un-interleaves the channel-local address back to the single
    /// tree's global line (`global = local * channels + channel`).
    fn level_of_channel_line(&self, channel: usize, addr: u64) -> Option<u32> {
        let global = ((addr / 64) * self.channels as u64 + channel as u64) * 64;
        self.oram.layout().level_of_line(global)
    }

    fn level_wear(&self) -> LevelWear {
        self.oram.level_wear().clone()
    }

    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.oram.set_flight_recorder(recorder, 0);
    }

    fn check_invariants(&self) {
        self.oram.check_invariant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram::types::OramConfig;

    #[test]
    fn baseline_level_inversion_undoes_the_interleave() {
        let oram = PathOram::new(OramConfig { levels: 8, ..OramConfig::tiny() }, 128, 3);
        let layout = oram.layout().clone();
        let b = Baseline::new(oram, 2);
        for line in 0..64u64 {
            let global = line * 64;
            let (ch, local) = ((line % 2) as usize, (line / 2) * 64);
            assert_eq!(b.level_of_channel_line(ch, local), layout.level_of_line(global));
        }
    }
}
