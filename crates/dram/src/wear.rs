//! Per-row activation & wear accounting with a refresh-window
//! disturbance model — the reliability observatory's data plane.
//!
//! A [`RowPressure`] tracker rides inside a
//! [`crate::channel::DramChannel`] (attached like the trace sink and
//! command log: disabled by default, one branch per event) and
//! maintains two views of row pressure:
//!
//! 1. **Lifetime wear** — per-row ACT and WR counts, optionally
//!    bucketed to a coarser row granularity
//!    ([`WearConfig::row_granularity`]) so million-row sweeps stay
//!    cheap. This is the endurance/wear-leveling view: ORAM tree roots
//!    show up here orders of magnitude hotter than leaves.
//! 2. **Disturbance windows** — for each *victim* row, the activations
//!    its physically adjacent rows (`row ± 1` in the same bank)
//!    accumulate **between that row's own refreshes**. RowHammer flips
//!    are bounded per refresh window, not per lifetime, so the window
//!    resets when the victim is refreshed: each REF command refreshes
//!    the next [`WearConfig::rows_per_refresh`] rows of every bank in
//!    the rank, round-robin, exactly as the per-standard
//!    `rows / refresh_rounds` stride in [`crate::spec::DramSpec`]
//!    prescribes. The peak window across the run is compared against
//!    the standard's [`WearConfig::hammer_threshold`] in the threat
//!    report, and the first crossing per victim per window raises a
//!    [`HammerAlarm`].
//!
//! The tracker is deliberately redundant with the channel's own
//! counters (`ChannelStats::activations` must equal the sum of per-row
//! ACTs) and is itself audited: `sdimm-audit` re-derives the per-row
//! ACT totals from the captured command stream with none of this code.

use crate::config::ChannelConfig;
use crate::intmap::IntMap;

/// Per-row state keyed by flat row key.
type RowMap<V> = IntMap<u64, V>;

/// Lifetime counters of one accounting bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    acts: u64,
    writes: u64,
}

/// Geometry and thresholds for a [`RowPressure`] tracker, derived from
/// a channel's standard spec and topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearConfig {
    /// Ranks on the channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Rows folded into one lifetime-wear accounting bucket (1 = exact
    /// per-row counts). Disturbance windows are always exact-row.
    pub row_granularity: usize,
    /// Rows of every bank refreshed (round-robin) by one REF command.
    pub rows_per_refresh: usize,
    /// Adjacent-row activations per victim refresh window at which the
    /// standard considers disturbance plausible.
    pub hammer_threshold: u64,
}

impl WearConfig {
    /// Derives the tracker configuration for a channel: geometry from
    /// its topology, refresh stride and hammer threshold from its
    /// standard's spec table, exact per-row lifetime granularity.
    pub fn for_channel(cfg: &ChannelConfig) -> Self {
        let spec = cfg.standard.spec();
        WearConfig {
            ranks: cfg.topology.ranks,
            banks: cfg.topology.banks,
            rows: cfg.topology.rows,
            row_granularity: 1,
            rows_per_refresh: spec.rows_per_refresh(),
            hammer_threshold: spec.hammer_threshold,
        }
    }

    /// Flat key for a physical row (rank-major, then bank, then row).
    fn key(&self, rank: usize, bank: usize, row: usize) -> u64 {
        ((rank * self.banks + bank) * self.rows + row) as u64
    }

    /// Inverse of [`key`](Self::key).
    fn coords(&self, key: u64) -> RowId {
        let key = key as usize;
        RowId {
            rank: key / (self.banks * self.rows),
            bank: (key / self.rows) % self.banks,
            row: key % self.rows,
        }
    }
}

/// A physical row address: the identity wear is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowId {
    /// Rank index on the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank (bucket-aligned for lifetime counts
    /// when `row_granularity > 1`).
    pub row: usize,
}

/// A victim row whose disturbance window just crossed the standard's
/// hammer threshold (raised once per victim per window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerAlarm {
    /// The victim row (the row *adjacent* to the one being activated).
    pub victim: RowId,
    /// The window count at the moment of crossing (== threshold).
    pub window: u64,
}

/// Lifetime wear of one accounting bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowWear {
    /// Bucket identity (row is bucket-aligned under coarse granularity).
    pub id: RowId,
    /// ACT commands attributed to the bucket.
    pub acts: u64,
    /// Write CAS commands attributed to the bucket.
    pub writes: u64,
}

/// Deterministic export of a tracker's state: all touched buckets in
/// ascending physical order plus the aggregate disturbance verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearSnapshot {
    /// Adjacent-row activation budget the peak window is judged against.
    pub hammer_threshold: u64,
    /// Total ACTs across all rows (must equal `ChannelStats::activations`).
    pub total_acts: u64,
    /// Total write CAS across all rows.
    pub total_writes: u64,
    /// ACTs per rank (index = rank).
    pub per_rank_acts: Vec<u64>,
    /// Largest disturbance window any victim accumulated, with the
    /// victim itself (`None` when no adjacent activations happened).
    pub peak_window: u64,
    /// The victim row behind `peak_window`.
    pub peak_victim: Option<RowId>,
    /// Threshold crossings raised over the tracked interval.
    pub alarms: u64,
    /// Every touched bucket, sorted by (rank, bank, row).
    pub rows: Vec<RowWear>,
}

impl WearSnapshot {
    /// The `k` highest-ACT buckets, ties broken by physical order (so
    /// the selection is deterministic and byte-stable in reports).
    pub fn hottest(&self, k: usize) -> Vec<RowWear> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.acts.cmp(&a.acts).then(a.id.cmp(&b.id)));
        rows.truncate(k);
        rows
    }
}

/// The per-channel tracker. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct RowPressure {
    cfg: WearConfig,
    /// Lifetime ACT and write CAS counts per bucket key.
    counts: RowMap<Counts>,
    /// Open disturbance windows: victim row key → adjacent ACTs since
    /// the victim's last refresh. Exact-row, never bucketed.
    windows: RowMap<u64>,
    /// Peak window ever observed, with its victim.
    peak: Option<(u64, u64)>,
    /// Threshold crossings (once per victim per window).
    alarms: u64,
    /// Per-rank REF round-robin position (0..refresh_rounds).
    ref_round: Vec<u64>,
}

impl RowPressure {
    /// Creates an empty tracker.
    pub fn new(cfg: WearConfig) -> Self {
        assert!(cfg.row_granularity > 0, "zero row granularity");
        assert!(cfg.rows_per_refresh > 0, "zero refresh stride");
        let ranks = cfg.ranks;
        RowPressure {
            cfg,
            counts: RowMap::default(),
            windows: RowMap::default(),
            peak: None,
            alarms: 0,
            ref_round: vec![0; ranks],
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &WearConfig {
        &self.cfg
    }

    fn bucket_key(&self, rank: usize, bank: usize, row: usize) -> u64 {
        let bucket = row - row % self.cfg.row_granularity;
        self.cfg.key(rank, bank, bucket)
    }

    /// Accounts one ACT to `(rank, bank, row)`: bumps the row's
    /// lifetime count and the disturbance windows of its two physical
    /// neighbors. Returns the alarms (at most one per neighbor) whose
    /// windows crossed the hammer threshold on this activation.
    pub fn on_act(&mut self, rank: usize, bank: usize, row: usize) -> [Option<HammerAlarm>; 2] {
        self.counts.entry(self.bucket_key(rank, bank, row)).or_default().acts += 1;
        let mut out = [None, None];
        let below = row.checked_sub(1);
        let above = if row + 1 < self.cfg.rows { Some(row + 1) } else { None };
        for (slot, victim) in [below, above].into_iter().flatten().enumerate() {
            let key = self.cfg.key(rank, bank, victim);
            let w = self.windows.entry(key).or_insert(0);
            *w += 1;
            let window = *w;
            if self.peak.is_none_or(|(p, _)| window > p) {
                self.peak = Some((window, key));
            }
            if window == self.cfg.hammer_threshold {
                self.alarms += 1;
                out[slot] = Some(HammerAlarm { victim: RowId { rank, bank, row: victim }, window });
            }
        }
        out
    }

    /// Accounts one write CAS to `(rank, bank, row)`.
    pub fn on_write(&mut self, rank: usize, bank: usize, row: usize) {
        self.counts.entry(self.bucket_key(rank, bank, row)).or_default().writes += 1;
    }

    /// Accounts one REF on `rank`: the next `rows_per_refresh` rows of
    /// every bank (round-robin across REFs, as real devices do) are
    /// refreshed, which closes those victims' disturbance windows.
    pub fn on_refresh(&mut self, rank: usize) {
        let rounds = (self.cfg.rows / self.cfg.rows_per_refresh) as u64;
        let round = self.ref_round[rank] % rounds;
        self.ref_round[rank] = self.ref_round[rank].wrapping_add(1);
        let first = round as usize * self.cfg.rows_per_refresh;
        for bank in 0..self.cfg.banks {
            for row in first..first + self.cfg.rows_per_refresh {
                self.windows.remove(&self.cfg.key(rank, bank, row));
            }
        }
    }

    /// Clears all wear counts, windows, peaks, and alarms — the
    /// warm-up/measure boundary reset. The REF round-robin position is
    /// *kept*: it is physical device state, not a statistic.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.windows.clear();
        self.peak = None;
        self.alarms = 0;
    }

    /// Current disturbance window of a victim row (0 if closed).
    pub fn window(&self, rank: usize, bank: usize, row: usize) -> u64 {
        self.windows.get(&self.cfg.key(rank, bank, row)).copied().unwrap_or(0)
    }

    /// Lifetime ACTs of the bucket containing `(rank, bank, row)`.
    pub fn acts(&self, rank: usize, bank: usize, row: usize) -> u64 {
        self.counts.get(&self.bucket_key(rank, bank, row)).map_or(0, |c| c.acts)
    }

    /// Threshold crossings so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Exports a deterministic snapshot (see [`WearSnapshot`]).
    pub fn snapshot(&self) -> WearSnapshot {
        let mut touched: Vec<(u64, Counts)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        touched.sort_unstable_by_key(|&(k, _)| k);
        let mut rows = Vec::with_capacity(touched.len());
        let mut per_rank_acts = vec![0u64; self.cfg.ranks];
        let mut total_acts = 0u64;
        let mut total_writes = 0u64;
        for &(key, Counts { acts, writes }) in &touched {
            let id = self.cfg.coords(key);
            per_rank_acts[id.rank] += acts;
            total_acts += acts;
            total_writes += writes;
            rows.push(RowWear { id, acts, writes });
        }
        let (peak_window, peak_victim) = match self.peak {
            Some((w, key)) => (w, Some(self.cfg.coords(key))),
            None => (0, None),
        };
        WearSnapshot {
            hammer_threshold: self.cfg.hammer_threshold,
            total_acts,
            total_writes,
            per_rank_acts,
            peak_window,
            peak_victim,
            alarms: self.alarms,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WearConfig {
        WearConfig {
            ranks: 2,
            banks: 4,
            rows: 64,
            row_granularity: 1,
            rows_per_refresh: 8,
            hammer_threshold: 10,
        }
    }

    #[test]
    fn acts_accumulate_per_row_and_rank() {
        let mut rp = RowPressure::new(cfg());
        rp.on_act(0, 1, 5);
        rp.on_act(0, 1, 5);
        rp.on_act(1, 0, 7);
        rp.on_write(0, 1, 5);
        let snap = rp.snapshot();
        assert_eq!(snap.total_acts, 3);
        assert_eq!(snap.total_writes, 1);
        assert_eq!(snap.per_rank_acts, vec![2, 1]);
        assert_eq!(rp.acts(0, 1, 5), 2);
        assert_eq!(snap.hottest(1)[0].id, RowId { rank: 0, bank: 1, row: 5 });
    }

    #[test]
    fn neighbors_accumulate_disturbance_not_the_aggressor() {
        let mut rp = RowPressure::new(cfg());
        rp.on_act(0, 0, 10);
        assert_eq!(rp.window(0, 0, 9), 1);
        assert_eq!(rp.window(0, 0, 11), 1);
        assert_eq!(rp.window(0, 0, 10), 0);
        // Edge rows have only one neighbor; no wraparound.
        rp.on_act(0, 0, 0);
        assert_eq!(rp.window(0, 0, 1), 1);
        rp.on_act(0, 0, 63);
        assert_eq!(rp.window(0, 0, 62), 1);
    }

    #[test]
    fn refresh_closes_windows_round_robin() {
        // REF must close the disturbance window of exactly the rows in
        // the current round-robin block, on the refreshed rank only.
        let mut rp = RowPressure::new(cfg());
        rp.on_act(0, 0, 4); // victims: rows 3 and 5, both in block 0..8
        rp.on_act(0, 0, 20); // victims: rows 19 and 21, in block 16..24
        rp.on_act(1, 0, 4); // same rows on the other rank
        rp.on_refresh(0); // refreshes rank 0 rows 0..8
        assert_eq!(rp.window(0, 0, 3), 0, "refreshed victim must close");
        assert_eq!(rp.window(0, 0, 5), 0);
        assert_eq!(rp.window(0, 0, 19), 1, "unrefreshed victim stays open");
        assert_eq!(rp.window(1, 0, 3), 1, "other rank untouched");
        rp.on_refresh(0); // rows 8..16
        rp.on_refresh(0); // rows 16..24
        assert_eq!(rp.window(0, 0, 19), 0);
        // Lifetime counts are unaffected by refresh.
        assert_eq!(rp.snapshot().total_acts, 3);
    }

    #[test]
    fn refresh_round_robin_wraps() {
        let mut rp = RowPressure::new(cfg());
        for _ in 0..8 {
            rp.on_refresh(0); // 64 rows / 8 per REF = 8 rounds
        }
        rp.on_act(0, 0, 4);
        rp.on_refresh(0); // round 8 ≡ block 0..8 again
        assert_eq!(rp.window(0, 0, 3), 0);
    }

    #[test]
    fn threshold_crossing_raises_one_alarm_per_window() {
        let mut rp = RowPressure::new(cfg());
        let mut raised = Vec::new();
        for _ in 0..15 {
            raised.extend(rp.on_act(0, 0, 10).into_iter().flatten());
        }
        // Both neighbors (9 and 11) crossed exactly once.
        assert_eq!(raised.len(), 2);
        assert_eq!(rp.alarms(), 2);
        assert!(raised.iter().all(|a| a.window == 10));
        let snap = rp.snapshot();
        assert_eq!(snap.peak_window, 15);
        assert_eq!(snap.peak_victim, Some(RowId { rank: 0, bank: 0, row: 9 }));
        // After a refresh closes the window the alarm can fire again.
        rp.on_refresh(0); // rows 0..8
        rp.on_refresh(0); // rows 8..16: closes 9 and 11
        for _ in 0..10 {
            rp.on_act(0, 0, 10);
        }
        assert_eq!(rp.alarms(), 4);
    }

    #[test]
    fn coarse_granularity_buckets_lifetime_but_not_windows() {
        let mut c = cfg();
        c.row_granularity = 16;
        let mut rp = RowPressure::new(c);
        rp.on_act(0, 0, 3);
        rp.on_act(0, 0, 12);
        assert_eq!(rp.acts(0, 0, 0), 2, "both land in bucket 0");
        assert_eq!(rp.window(0, 0, 2), 1, "windows stay exact-row");
        assert_eq!(rp.window(0, 0, 11), 1);
        let snap = rp.snapshot();
        assert_eq!(snap.rows.len(), 1);
        assert_eq!(snap.rows[0].id.row, 0);
    }

    #[test]
    fn reset_clears_counts_but_keeps_refresh_position() {
        let mut rp = RowPressure::new(cfg());
        rp.on_refresh(0); // advance the round-robin to block 8..16
        for _ in 0..12 {
            rp.on_act(0, 0, 10);
        }
        rp.reset();
        let snap = rp.snapshot();
        assert_eq!(snap.total_acts, 0);
        assert_eq!(snap.peak_window, 0);
        assert_eq!(snap.alarms, 0);
        assert_eq!(rp.window(0, 0, 9), 0);
        // The kept round-robin position: the next REF covers 8..16.
        rp.on_act(0, 0, 10);
        rp.on_refresh(0);
        assert_eq!(rp.window(0, 0, 9), 0, "block 8..16 was refreshed");
    }

    #[test]
    fn config_derivation_matches_the_spec_tables() {
        use crate::config::ChannelConfig;
        use crate::spec::DramStandard;
        let cfg = ChannelConfig::table2_for(DramStandard::Ddr4_2400);
        let w = WearConfig::for_channel(&cfg);
        assert_eq!(w.hammer_threshold, 50_000);
        assert_eq!(w.rows_per_refresh, 4); // 32768 rows / 8192 rounds
        assert_eq!(w.ranks, cfg.topology.ranks);
        let hbm = WearConfig::for_channel(&ChannelConfig::table2_for(DramStandard::Hbm2));
        assert_eq!(hbm.rows_per_refresh, 1); // 16384 rows / 16384 rounds
    }

    #[test]
    fn snapshot_rows_are_sorted_and_deterministic() {
        let mut rp = RowPressure::new(cfg());
        rp.on_act(1, 3, 60);
        rp.on_act(0, 2, 1);
        rp.on_write(0, 0, 5);
        let snap = rp.snapshot();
        let ids: Vec<RowId> = snap.rows.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(snap.rows.len(), 3, "write-only rows are included");
    }
}
