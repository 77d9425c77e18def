//! Per-channel performance statistics.

use sdimm_telemetry::{LatencyHistogram, MetricsRegistry};

use crate::config::Cycle;

/// Counters collected by a [`crate::channel::DramChannel`] during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Read requests completed.
    pub reads_completed: u64,
    /// Write requests completed (burst retired).
    pub writes_completed: u64,
    /// Row-buffer hits among column accesses.
    pub row_hits: u64,
    /// Row-buffer misses (bank was idle).
    pub row_misses: u64,
    /// Row-buffer conflicts (wrong row open).
    pub row_conflicts: u64,
    /// Sum of read latencies (arrival → data), for averaging.
    pub read_latency_sum: Cycle,
    /// Maximum single read latency observed.
    pub read_latency_max: Cycle,
    /// Full read-latency distribution (arrival → data). Supersedes the
    /// sum/max pair for percentile reporting; both are kept in sync.
    pub read_latency_hist: LatencyHistogram,
    /// Cycles with at least one data beat on the bus (utilization).
    pub data_bus_busy_cycles: Cycle,
    /// Refreshes performed.
    pub refreshes: u64,
    /// ACT commands issued (row-buffer misses and conflicts both
    /// activate; the split between them is in the row_* counters). The
    /// wear tracker's per-row totals must sum to this when attached.
    pub activations: u64,
    /// Rows whose disturbance window first crossed the standard's
    /// hammer threshold (counted once per victim row per window).
    pub hammer_alarms: u64,
    /// Cycles where the scheduler wanted to issue but timing blocked it.
    pub stalled_cycles: Cycle,
    /// Times the command scheduler actually ran. The tick loop skips
    /// ahead to `next_wake` between decisions, so this stays far below
    /// the elapsed cycle count on idle channels — a regression guard for
    /// the event-driven fast path.
    pub scheduler_invocations: u64,
    /// Walks of a per-bank queue index: one per pass of the FR-FCFS
    /// scheduler over the occupied banks of a queue, whether to pick a
    /// command or to bound the next wake-up. Divided by the queue
    /// commands issued (every CAS counts in `row_hits`, every ACT in
    /// `activations`, every queue PRE in `row_conflicts`), it is the
    /// scheduler's walks per issued command.
    pub queue_walks: u64,
}

impl ChannelStats {
    /// Mean read latency in cycles, or 0.0 if no reads completed.
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_completed as f64
        }
    }

    /// Row-buffer hit rate over all classified column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Data-bus utilization over `elapsed` cycles.
    pub fn bus_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.data_bus_busy_cycles as f64 / elapsed as f64
        }
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, o: &ChannelStats) {
        self.reads_completed += o.reads_completed;
        self.writes_completed += o.writes_completed;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
        self.read_latency_sum += o.read_latency_sum;
        self.read_latency_max = self.read_latency_max.max(o.read_latency_max);
        self.read_latency_hist.merge(&o.read_latency_hist);
        self.data_bus_busy_cycles =
            self.data_bus_busy_cycles.saturating_add(o.data_bus_busy_cycles);
        self.refreshes += o.refreshes;
        self.activations += o.activations;
        self.hammer_alarms += o.hammer_alarms;
        self.stalled_cycles = self.stalled_cycles.saturating_add(o.stalled_cycles);
        self.scheduler_invocations += o.scheduler_invocations;
        self.queue_walks += o.queue_walks;
    }

    /// Clears every counter and the latency histogram — the inverse of
    /// [`merge`](Self::merge). Callers use this between a warm-up window
    /// and the measured window so warm-up traffic cannot leak into
    /// reported statistics.
    pub fn reset(&mut self) {
        *self = ChannelStats::default();
    }

    /// Exports the stats block as a flat metrics registry (keys like
    /// `reads_completed`, `read_latency` for the histogram); callers
    /// absorb it under a per-channel prefix.
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("reads_completed", self.reads_completed);
        m.counter_add("writes_completed", self.writes_completed);
        m.counter_add("row_hits", self.row_hits);
        m.counter_add("row_misses", self.row_misses);
        m.counter_add("row_conflicts", self.row_conflicts);
        m.counter_add("refreshes", self.refreshes);
        m.counter_add("activations", self.activations);
        m.counter_add("hammer_alarms", self.hammer_alarms);
        m.counter_add("stalled_cycles", self.stalled_cycles);
        m.counter_add("data_bus_busy_cycles", self.data_bus_busy_cycles);
        m.counter_add("scheduler_invocations", self.scheduler_invocations);
        m.counter_add("queue_walks", self.queue_walks);
        m.gauge_set("row_hit_rate", self.row_hit_rate());
        m.histogram_set("read_latency", self.read_latency_hist.clone());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_yield_zero_rates() {
        let s = ChannelStats::default();
        assert_eq!(s.mean_read_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.bus_utilization(0), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = ChannelStats {
            reads_completed: 4,
            read_latency_sum: 100,
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 0,
            data_bus_busy_cycles: 50,
            ..Default::default()
        };
        assert_eq!(s.mean_read_latency(), 25.0);
        assert_eq!(s.row_hit_rate(), 0.75);
        assert_eq!(s.bus_utilization(100), 0.5);
    }

    #[test]
    fn merge_keeps_max_latency() {
        let mut a = ChannelStats { read_latency_max: 10, ..Default::default() };
        let b = ChannelStats { read_latency_max: 99, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.read_latency_max, 99);
    }

    #[test]
    fn merge_combines_latency_histograms() {
        let mut a = ChannelStats::default();
        let mut b = ChannelStats::default();
        a.read_latency_hist.record(10);
        b.read_latency_hist.record(1000);
        a.merge(&b);
        assert_eq!(a.read_latency_hist.count(), 2);
        assert_eq!(a.read_latency_hist.max(), 1000);
    }

    #[test]
    fn reset_is_the_inverse_of_merge() {
        let mut a = ChannelStats {
            reads_completed: 5,
            row_hits: 3,
            read_latency_sum: 500,
            read_latency_max: 200,
            activations: 9,
            hammer_alarms: 1,
            ..Default::default()
        };
        a.read_latency_hist.record(200);
        a.reset();
        assert_eq!(a, ChannelStats::default());
        assert!(a.read_latency_hist.is_empty());
    }

    #[test]
    fn wear_counters_survive_merge_and_export() {
        // Warm-up boundary regression (same pattern as PR 2): the wear
        // counters must participate in merge/to_metrics like every other
        // field, so a reset at the measurement boundary actually zeroes
        // them and the per-channel export reports them.
        let mut a = ChannelStats { activations: 2, hammer_alarms: 1, ..Default::default() };
        let b = ChannelStats { activations: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.activations, 5);
        assert_eq!(a.hammer_alarms, 1);
        let m = a.to_metrics().to_json();
        assert!(m.contains("\"activations\": 5"), "{m}");
        assert!(m.contains("\"hammer_alarms\": 1"), "{m}");
    }
}
