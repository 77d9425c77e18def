//! Run-scale selection for the figure binaries.

use dram_sim::spec::DramStandard;
use oram::types::OramConfig;
use sdimm_system::machine::{MachineKind, SystemConfig};

/// How big a run the figure binaries perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small trees and short windows: every figure in minutes.
    Quick,
    /// Larger trees and windows, closer to the paper's configuration.
    Full,
}

impl Scale {
    /// Reads `SDIMM_BENCH_SCALE` (`quick`/`full`); defaults to quick.
    pub fn from_env() -> Self {
        match std::env::var("SDIMM_BENCH_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// The global ORAM tree for this scale, with `cached_levels` of
    /// on-chip ORAM caching (0 or 7 in the paper's sweeps).
    pub fn oram(&self, cached_levels: u32) -> OramConfig {
        let levels = match self {
            Scale::Quick => 18,
            Scale::Full => 24,
        };
        OramConfig { levels, cached_levels, ..OramConfig::default() }
    }

    /// The machine every experiment at this scale builds for `kind`:
    /// [`oram`](Self::oram) with `cached_levels`, the scale's data
    /// blocks, `standard` on every channel, low power off, seed 1.
    pub fn system(
        &self,
        kind: MachineKind,
        cached_levels: u32,
        standard: DramStandard,
    ) -> SystemConfig {
        SystemConfig {
            kind,
            oram: self.oram(cached_levels),
            data_blocks: self.data_blocks(),
            standard,
            low_power: false,
            seed: 1,
        }
    }

    /// Logical data blocks the workloads address.
    pub fn data_blocks(&self) -> u64 {
        match self {
            Scale::Quick => 1 << 15,
            Scale::Full => 1 << 19,
        }
    }

    /// Trace records used to warm the LLC before measurement.
    pub fn warmup(&self) -> usize {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 50_000,
        }
    }

    /// Trace records measured cycle-accurately.
    pub fn measure(&self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        }
    }

    /// Total records to generate per workload.
    pub fn trace_len(&self) -> usize {
        self.warmup() + self.measure() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_default() {
        // (Reads the real environment; in the test environment the
        // variable is unset.)
        if std::env::var("SDIMM_BENCH_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }

    #[test]
    fn full_is_larger_everywhere() {
        let q = Scale::Quick;
        let f = Scale::Full;
        assert!(f.oram(0).levels > q.oram(0).levels);
        assert!(f.measure() > q.measure());
        assert!(f.data_blocks() > q.data_blocks());
    }

    #[test]
    fn trace_len_covers_windows() {
        let s = Scale::Quick;
        assert!(s.trace_len() >= s.warmup() + s.measure());
    }

    #[test]
    fn cached_levels_pass_through() {
        assert_eq!(Scale::Quick.oram(7).cached_levels, 7);
        assert_eq!(Scale::Quick.oram(0).cached_levels, 0);
    }
}
