//! One DDR3 channel: request queues, FR-FCFS scheduler, banks/ranks with
//! full timing constraints, refresh, power-down, and energy accounting.
//!
//! The model issues at most one DRAM command per memory-clock cycle (the
//! command-bus constraint) and tracks the shared data bus including
//! rank-to-rank switch (tRTRS) and read/write turnaround penalties. It is
//! a faithful small-scale reimplementation of the USIMM scheduling model
//! the paper uses, tuned so cycle loops can skip ahead when no command
//! could possibly issue.

use std::collections::{BinaryHeap, VecDeque};

use sdimm_telemetry::{recorder::FlightEventKind, FlightRecorder, TraceSink};

use crate::address::{AddressMapper, Coords, Interleave};
use crate::bank::{RowOutcome, RowState};
use crate::cmdlog::{CmdLog, DdrCmd};
use crate::config::{ChannelConfig, Cycle, PowerPolicy, SchedulerPolicy};
use crate::power::{compute_energy, EnergyBreakdown, EnergyCounters};
use crate::rank::{PowerState, Rank};
use crate::request::{Completion, Request, RequestId, RequestKind};
use crate::stats::ChannelStats;
use crate::wear::{RowPressure, WearConfig};

/// Bus turnaround penalty (cycles) when the data bus switches direction.
const BUS_TURNAROUND: Cycle = 2;

/// Age (cycles) past which the oldest request is scheduled before row hits,
/// preventing FR-FCFS starvation.
const STARVATION_LIMIT: Cycle = 2000;

#[derive(Debug, Clone, Copy)]
struct QEntry {
    req: Request,
    coords: Coords,
    /// Flat bank index (`rank * banks + bank`), precomputed at enqueue:
    /// the key of the entry's [`BankIndex`] list, [`BankCache`] and
    /// `(rank, bank group)` home.
    bidx: u32,
}

/// Sentinel for [`BankCache::open_row`]: the bank is precharged.
const NO_ROW: usize = usize::MAX;

/// Flat per-bank mirror of the timing state the scheduler scan reads
/// every invocation. Kept in sync with [`crate::bank::Bank`] at every
/// mutation site (ACT/PRE/CAS/refresh); `debug_validate_caches`
/// cross-checks the mirror against the banks in debug builds.
#[derive(Debug, Clone, Copy)]
struct BankCache {
    /// Open row, or [`NO_ROW`] when precharged.
    open_row: usize,
    /// Earliest legal CAS (tRCD after ACT, tCCD after a burst).
    next_cas: Cycle,
    /// Earliest legal ACT (tRP after PRE, tRC after the previous ACT).
    next_act: Cycle,
    /// Earliest legal PRE (tRAS after ACT, tRTP/tWR after a burst).
    next_pre: Cycle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    finish: Cycle,
    id: RequestId,
    kind: RequestKind,
    arrival: Cycle,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on finish time.
        other.finish.cmp(&self.finish).then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One candidate per command class, indexed [`CAS`], [`ACT`], [`PRE`] —
/// the order in which a pass ranks them — each as `(cycle, request id)`,
/// `None` where there is none. For one bank the cycle is when the
/// candidate can issue; it depends only on bank, rank, group and bus
/// state, never on the current cycle, so it holds until a command
/// issues, a rank changes power state or owes a refresh.
type Classes = [Option<(Cycle, RequestId)>; 3];

/// Index of the CAS class in [`Classes`].
const CAS: usize = 0;
/// Index of the ACT class in [`Classes`].
const ACT: usize = 1;
/// Index of the PRE class in [`Classes`].
const PRE: usize = 2;

/// The queue command of class `class` on entry `idx` of its queue.
fn queue_decision(class: usize, write: bool, idx: usize) -> Decision {
    match class {
        CAS => Decision::Cas { write, idx },
        ACT => Decision::Act { write, idx },
        _ => Decision::Pre { write, idx },
    }
}

/// Whether candidate `c` can issue at cycle `at`.
fn due(c: &Option<(Cycle, RequestId)>, at: Cycle) -> bool {
    c.is_some_and(|(ready, _)| ready <= at)
}

/// The earliest cycle over `classes`, or `Cycle::MAX` when empty.
fn earliest(classes: &Classes) -> Cycle {
    classes.iter().flatten().map(|&(at, _)| at).min().unwrap_or(Cycle::MAX)
}

/// Folds one bank's candidates into `picks`, keeping per class the one
/// that sorts first by `(cycle clamped to base, id)`.
fn fold(picks: &mut Classes, bank: Classes, base: Cycle) {
    for (pick, cand) in picks.iter_mut().zip(bank) {
        if let Some((at, id)) = cand {
            let key = (at.max(base), id);
            if pick.is_none_or(|p| key < p) {
                *pick = Some(key);
            }
        }
    }
}

/// The per-class picks of the last walk of one queue, and the banks of
/// that queue enqueued into since.
#[derive(Debug, Clone, Copy)]
struct Walked {
    /// The queue walked (`true`: the write queue).
    write: bool,
    picks: Classes,
    /// Banks whose candidates the next pass folds into `picks`.
    stale: u128,
}

/// Each flat bank's queued `(request id, row)` pairs for one request
/// queue, in arrival order, plus a mask of the banks holding any. Ids
/// are monotonic per channel, so every list is sorted by id and the
/// oldest entry of a bank is the front of its list.
#[derive(Debug)]
struct BankIndex {
    lists: Vec<VecDeque<(RequestId, usize)>>,
    /// Bit `b` set iff `lists[b]` is non-empty.
    occupied: u128,
}

impl BankIndex {
    fn new(banks: usize) -> Self {
        BankIndex { lists: (0..banks).map(|_| VecDeque::new()).collect(), occupied: 0 }
    }

    fn push(&mut self, bidx: u32, id: RequestId, row: usize) {
        self.lists[bidx as usize].push_back((id, row));
        self.occupied |= 1u128 << bidx;
    }

    fn remove(&mut self, bidx: u32, id: RequestId) {
        let list = &mut self.lists[bidx as usize];
        // lint: panic-ok(invariant: every queued entry is indexed under its bank)
        let pos = list.binary_search_by_key(&id, |&(i, _)| i).expect("queued entry is indexed");
        list.remove(pos);
        if list.is_empty() {
            self.occupied &= !(1u128 << bidx);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Cas {
        write: bool,
        idx: usize,
    },
    Act {
        write: bool,
        idx: usize,
    },
    Pre {
        write: bool,
        idx: usize,
    },
    /// Precharge issued for maintenance: ahead of a refresh, or to close
    /// an idle rank's banks so it can enter power-down.
    MaintenancePre {
        rank: usize,
        bank: usize,
    },
    Refresh {
        rank: usize,
    },
    Idle {
        retry_at: Cycle,
    },
}

/// A cycle-level DDR3 channel with its memory controller.
///
/// # Example
///
/// ```
/// use dram_sim::channel::DramChannel;
/// use dram_sim::config::ChannelConfig;
///
/// let mut ch = DramChannel::new(ChannelConfig::table2());
/// let id = ch.enqueue_read(0x1000).expect("queue has space");
/// let done = ch.run_until_idle(100_000);
/// assert!(done.iter().any(|c| c.id == id));
/// ```
#[derive(Debug)]
pub struct DramChannel {
    cfg: ChannelConfig,
    mapper: AddressMapper,
    now: Cycle,
    next_id: u64,
    read_q: VecDeque<QEntry>,
    write_q: VecDeque<QEntry>,
    /// Per-bank mirror of `read_q` the FR-FCFS decision walks.
    read_index: BankIndex,
    /// Per-bank mirror of `write_q`.
    write_index: BankIndex,
    draining: bool,
    ranks: Vec<Rank>,
    /// Per-rank earliest read CAS (tWTR after a write burst).
    rank_next_read: Vec<Cycle>,
    /// Per-rank "refresh urgently pending" flag.
    refresh_pending: Vec<bool>,
    /// Ranks pinned down by the low-power protocol (no auto-wake by policy).
    forced_down: Vec<bool>,
    bus_free_at: Cycle,
    bus_last_rank: Option<usize>,
    bus_last_write: Option<bool>,
    /// Earliest cycle at which a scheduler pass could change state: a
    /// lower bound that every pass sets as tight as it can (see
    /// [`post_issue_wake`](Self::post_issue_wake)), so the channel does
    /// not wake only to learn when to wake next.
    next_wake: Cycle,
    /// The queue command the pass at `next_wake` will issue, worked out
    /// by the post-issue walk that set it (see
    /// [`post_issue_wake`](Self::post_issue_wake)). Every pass takes it;
    /// an enqueue or a rank pin or wake drops it.
    planned: Option<(Cycle, Decision)>,
    /// The per-class picks of the last walk of one queue, each clamped
    /// to no earlier than the next pass: once the banks enqueued into
    /// since are folded in, what a fresh walk at that pass would give,
    /// so FR-FCFS passes read it instead of walking. Any command or
    /// newly owed refresh drops it. A power-state change needs no drop:
    /// a powered-down rank holds only entries enqueued since the last
    /// pass, and their banks are folded in after it wakes.
    walked: Option<Walked>,
    /// Test-only reference mode: run the scheduler on every cycle,
    /// ignoring `next_wake` and `planned`.
    #[cfg(test)]
    poll_every_cycle: bool,
    /// Per-rank background-energy accounting mark.
    bg_mark: Vec<Cycle>,
    /// Per-rank count of queued entries (read + write) — an incremental
    /// mirror of scanning both queues, so power management is O(ranks).
    rank_queued: Vec<u32>,
    /// Per-rank count of banks with an open row — incremental mirror of
    /// [`Rank::all_banks_idle`].
    rank_open_banks: Vec<u32>,
    /// Flat per-bank earliest-legal-issue cache (rank-major order).
    bank_cache: Vec<BankCache>,
    /// `(rank, bank group)` of each flat bank, so the scheduler does no
    /// division per bank it evaluates.
    bank_home: Vec<(usize, usize)>,
    /// Start of the current blocked-with-queued-work interval, if any.
    /// Stall cycles accrue lazily as time actually elapses, so the total
    /// is independent of how callers split their `tick` calls.
    stall_since: Option<Cycle>,
    pending: BinaryHeap<Pending>,
    stats: ChannelStats,
    energy: EnergyCounters,
    /// Trace recording handle; disabled by default (one branch per event).
    sink: TraceSink,
    /// Command capture for replay auditing; disabled by default.
    cmd_log: CmdLog,
    /// Flight-recorder tap; disabled by default (one branch per command).
    flight: FlightRecorder,
    /// Channel index reported in flight-recorder DDR events.
    flight_channel: u8,
    /// Per-row wear tracker; disabled (`None`) by default, one branch
    /// per ACT/WR/REF when detached.
    wear: Option<Box<RowPressure>>,
    /// Chrome-trace process id this channel reports under.
    trace_pid: u32,
    /// Chrome-trace thread id (one track per channel).
    trace_tid: u32,
}

impl DramChannel {
    /// Creates an idle channel from `cfg` with the default interleaving.
    pub fn new(cfg: ChannelConfig) -> Self {
        Self::with_interleave(cfg, Interleave::RowRankBankCol)
    }

    /// Creates a channel with an explicit address-interleaving scheme.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.topology` fails [`Topology::validate`] (e.g. more
    /// flat banks than the scheduler's occupancy mask holds).
    ///
    /// [`Topology::validate`]: crate::config::Topology::validate
    pub fn with_interleave(cfg: ChannelConfig, scheme: Interleave) -> Self {
        if let Err(e) = cfg.topology.validate() {
            panic!("invalid channel configuration: {e}");
        }
        let ranks = (0..cfg.topology.ranks)
            .map(|_| Rank::new(cfg.topology.banks, cfg.topology.bank_groups, &cfg.timing))
            .collect::<Vec<_>>();
        let n = ranks.len();
        let banks = cfg.topology.banks;
        DramChannel {
            mapper: AddressMapper::new(cfg.topology.clone(), scheme),
            ranks,
            rank_next_read: vec![0; n],
            refresh_pending: vec![false; n],
            forced_down: vec![false; n],
            bg_mark: vec![0; n],
            rank_queued: vec![0; n],
            rank_open_banks: vec![0; n],
            bank_cache: vec![
                BankCache { open_row: NO_ROW, next_cas: 0, next_act: 0, next_pre: 0 };
                n * banks
            ],
            bank_home: (0..n * banks)
                .map(|b| (b / banks, (b % banks) / cfg.topology.banks_per_group()))
                .collect(),
            stall_since: None,
            cfg,
            now: 0,
            next_id: 0,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            read_index: BankIndex::new(n * banks),
            write_index: BankIndex::new(n * banks),
            draining: false,
            bus_free_at: 0,
            bus_last_rank: None,
            bus_last_write: None,
            next_wake: 0,
            planned: None,
            walked: None,
            #[cfg(test)]
            poll_every_cycle: false,
            pending: BinaryHeap::new(),
            stats: ChannelStats::default(),
            energy: EnergyCounters::default(),
            sink: TraceSink::disabled(),
            cmd_log: CmdLog::disabled(),
            flight: FlightRecorder::disabled(),
            flight_channel: 0,
            wear: None,
            trace_pid: 0,
            trace_tid: 0,
        }
    }

    /// Attaches a trace sink; the channel's events land on thread track
    /// `tid` of process track `pid` in the exported Chrome trace.
    pub fn set_trace(&mut self, sink: TraceSink, pid: u32, tid: u32) {
        if sink.is_enabled() {
            sink.thread_name(pid, tid, &format!("dram.chan{}", tid));
        }
        self.sink = sink;
        self.trace_pid = pid;
        self.trace_tid = tid;
    }

    /// Attaches a command-capture log: every DDR command (ACT/PRE/CAS/
    /// REF and CKE transitions) is recorded with full coordinates so the
    /// `sdimm-audit` replay checker can re-validate the stream against
    /// its own DDR3 constraint table. Disabled by default; one branch
    /// per command when detached.
    pub fn set_cmd_log(&mut self, log: CmdLog) {
        self.cmd_log = log;
    }

    /// Attaches a flight recorder: every DDR command is also mirrored
    /// into the recorder's bounded ring (tagged with this channel's
    /// index) so a black-box dump shows the command stream leading up
    /// to a fault. Disabled by default; one branch per command.
    pub fn set_flight_recorder(&mut self, recorder: FlightRecorder, channel: u8) {
        self.flight = recorder;
        self.flight_channel = channel;
    }

    /// Routes one command to the audit log and the flight recorder.
    fn log_cmd(&mut self, cycle: Cycle, rank: usize, cmd: DdrCmd) {
        self.cmd_log.record(cycle, rank, cmd);
        if self.flight.is_enabled() {
            self.flight.record_at(
                cycle,
                cmd.flight_kind(self.flight_channel, rank.min(u8::MAX as usize) as u8),
            );
        }
    }

    /// Attaches a per-row wear tracker configured from this channel's
    /// standard spec and topology (see [`crate::wear`]). Threshold
    /// crossings bump `ChannelStats::hammer_alarms` and, when a flight
    /// recorder is attached, land on its hammer lane. Disabled by
    /// default; one branch per ACT/WR/REF when detached.
    pub fn enable_wear(&mut self) {
        self.wear = Some(Box::new(RowPressure::new(WearConfig::for_channel(&self.cfg))));
    }

    /// The wear tracker, if [`enable_wear`](Self::enable_wear) was called.
    pub fn wear(&self) -> Option<&RowPressure> {
        self.wear.as_deref()
    }

    /// Clears performance statistics (not energy or timing state) so a
    /// measured window starts clean after warm-up traffic. The wear
    /// tracker resets with the stats: warm-up activations must not
    /// leak into the measured window's wear and disturbance report.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        if let Some(w) = self.wear.as_deref_mut() {
            w.reset();
        }
        // A blocked interval straddling the reset only counts its
        // post-reset portion.
        self.stall_since = self.stall_since.map(|_| self.now);
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// The address mapper this channel decodes requests with — lets
    /// reporting code re-encode physical (rank, bank, row) coordinates
    /// back into the channel-local addresses a protocol layer speaks.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Read-queue occupancy.
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Write-queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// True when no requests are queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.pending.is_empty()
    }

    /// Performance statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Raw energy counters so far (background residency up to `now`).
    pub fn energy_counters(&mut self) -> EnergyCounters {
        for r in 0..self.ranks.len() {
            self.account_bg(r);
        }
        self.energy.clone()
    }

    /// Computes the energy breakdown for the run so far.
    pub fn energy(&mut self) -> EnergyBreakdown {
        let counters = self.energy_counters();
        compute_energy(&counters, &self.cfg.power, &self.cfg.timing, self.cfg.location)
    }

    /// Enqueues a cache-line read. Returns `None` when the read queue is
    /// full (the caller must retry after ticking).
    pub fn enqueue_read(&mut self, addr: u64) -> Option<RequestId> {
        if self.read_q.len() >= self.cfg.read_queue_capacity {
            return None;
        }
        let id = RequestId(self.next_id);
        // Write-to-read forwarding: a queued write to the same line
        // services the read without touching DRAM.
        if self.write_q.iter().any(|e| e.req.addr == addr) {
            self.next_id += 1;
            self.pending.push(Pending {
                finish: self.now.saturating_add(1),
                id,
                kind: RequestKind::Read,
                arrival: self.now,
            });
            return Some(id);
        }
        self.next_id += 1;
        let req = Request { id, addr, kind: RequestKind::Read, arrival: self.now };
        let coords = self.mapper.decode(addr);
        self.rank_queued[coords.rank] += 1;
        let bidx = self.flat_bank(&coords);
        self.read_index.push(bidx, id, coords.row);
        self.read_q.push_back(QEntry { req, coords, bidx });
        self.wake_now();
        self.mark_stale(false, bidx);
        Some(id)
    }

    /// Enqueues a cache-line write. Returns `None` when the write queue is
    /// full.
    pub fn enqueue_write(&mut self, addr: u64) -> Option<RequestId> {
        if self.write_q.len() >= self.cfg.write_drain.capacity {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let req = Request { id, addr, kind: RequestKind::Write, arrival: self.now };
        let coords = self.mapper.decode(addr);
        self.rank_queued[coords.rank] += 1;
        let bidx = self.flat_bank(&coords);
        self.write_index.push(bidx, id, coords.row);
        self.write_q.push_back(QEntry { req, coords, bidx });
        self.wake_now();
        self.mark_stale(true, bidx);
        Some(id)
    }

    /// Pins `rank` in precharge power-down (the SDIMM low-power scheme).
    /// The rank is woken automatically if a request targets it.
    pub fn force_rank_down(&mut self, rank: usize) {
        self.forced_down[rank] = true;
        self.wake_now();
    }

    /// Releases a pinned rank and begins its wakeup immediately so tXP is
    /// hidden behind the current access (the paper wakes the next rank
    /// "early enough to hide the wakeup latency").
    pub fn wake_rank(&mut self, rank: usize) {
        self.forced_down[rank] = false;
        self.account_bg(rank);
        let was_down = matches!(self.ranks[rank].power_state(), PowerState::PowerDown { .. });
        self.ranks[rank].exit_power_down(self.now, &self.cfg.timing);
        if was_down {
            self.log_cmd(self.now, rank, DdrCmd::PowerUp);
        }
        self.wake_now();
        if self.sink.is_enabled() {
            self.sink.instant(
                "dram.power",
                &format!("wake.rank{rank}"),
                self.trace_pid,
                self.trace_tid,
                self.now,
            );
        }
    }

    /// Runs a full pass at the current cycle: queue or rank state changed
    /// outside a pass, so a plan made on the old state no longer holds.
    fn wake_now(&mut self) {
        self.next_wake = self.now;
        self.planned = None;
    }

    /// Power state of `rank` (for tests and the low-power experiments).
    pub fn rank_power_state(&self, rank: usize) -> PowerState {
        self.ranks[rank].power_state()
    }

    /// Total cycles `rank` has spent powered down.
    pub fn rank_powerdown_cycles(&self, rank: usize) -> Cycle {
        self.ranks[rank].powerdown_cycles(self.now)
    }

    /// Takes all completions that have finished by `now`.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(&mut out);
        out
    }

    /// Appends all completions that have finished by `now` to `out`, in
    /// finish order — [`drain_completions`](Self::drain_completions)
    /// without the allocation, for callers that reuse one buffer.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        while let Some(p) = self.pending.peek() {
            if p.finish <= self.now {
                // lint: panic-ok(invariant: peeked)
                let p = self.pending.pop().expect("peeked");
                let latency = p.finish - p.arrival;
                match p.kind {
                    RequestKind::Read => {
                        self.stats.reads_completed += 1;
                        self.stats.read_latency_sum += latency;
                        self.stats.read_latency_max = self.stats.read_latency_max.max(latency);
                        self.stats.read_latency_hist.record(latency);
                        self.sink.span(
                            "dram",
                            "read",
                            self.trace_pid,
                            self.trace_tid,
                            p.arrival,
                            p.finish,
                        );
                    }
                    RequestKind::Write => {
                        self.stats.writes_completed += 1;
                        self.sink.span(
                            "dram",
                            "write",
                            self.trace_pid,
                            self.trace_tid,
                            p.arrival,
                            p.finish,
                        );
                    }
                }
                out.push(Completion { id: p.id, kind: p.kind, finish: p.finish, latency });
            } else {
                break;
            }
        }
    }

    /// Advances simulated time by `cycles`, issuing commands as they
    /// become legal.
    ///
    /// The loop is event-driven: scheduler decisions happen only at
    /// `next_wake` cycles, and those cycles depend solely on the channel
    /// state — not on how callers slice their `tick` calls. `tick(a)`
    /// followed by `tick(b)` issues the same command stream and accrues
    /// the same statistics as `tick(a + b)` (the split-invariance
    /// property tests pin this down).
    pub fn tick(&mut self, cycles: Cycle) {
        let end = self.now.saturating_add(cycles);
        while self.now < end {
            if self.now >= self.next_wake {
                self.settle_stall();
                self.stats.scheduler_invocations += 1;
                self.schedule_once();
                #[cfg(test)]
                if self.poll_every_cycle {
                    self.next_wake = self.now.saturating_add(1);
                }
            }
            let target = self.next_wake.min(end);
            self.now = target.max(self.now.saturating_add(1)).min(end);
        }
        self.settle_stall();
    }

    /// Earliest future cycle at which this channel could do observable
    /// work: the scheduler's next wake-up (which already folds refresh
    /// deadlines and power-down eligibility edges via `Decision::Idle`)
    /// or the earliest in-flight completion, whichever comes first. A
    /// value at or before [`now`](Self::now) means work is ready
    /// immediately. Callers may advance the channel to this horizon in
    /// one `tick` without changing any observable behavior.
    pub fn next_event(&self) -> Cycle {
        self.next_completion().map_or(self.next_wake, |c| c.min(self.next_wake))
    }

    /// Cycle at which the earliest in-flight request finishes (and so
    /// becomes drainable), or `None` when nothing is in flight. A value
    /// at or before `now` means finished completions are waiting to be
    /// drained.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.pending.peek().map(|p| p.finish)
    }

    /// Lower bound on the next completion this channel can deliver: the
    /// earliest in-flight (post-CAS) finish, or — for requests still
    /// queued ahead of their CAS — the earliest cycle a CAS issued at
    /// the next scheduler wake-up could move data (`next_wake + data
    /// latency + burst`; any real CAS issues at or after `next_wake`,
    /// so no completion can precede this bound). `Cycle::MAX` when the
    /// channel holds no work at all.
    pub fn completion_horizon(&self) -> Cycle {
        let mut h = self.next_completion().unwrap_or(Cycle::MAX);
        if !self.read_q.is_empty() || !self.write_q.is_empty() {
            let t = &self.cfg.timing;
            h = h.min(self.next_wake.saturating_add(t.cl.min(t.cwl)).saturating_add(t.t_burst));
        }
        h
    }

    /// Accrues the elapsed portion of a blocked-with-queued-work interval
    /// into `stalled_cycles` and restarts the mark at `now`. Called when
    /// time has advanced (scheduler wake-up, end of a tick); crediting
    /// elapsed time lazily — rather than the planned wait at decision
    /// time — keeps the counter identical under arbitrary tick splits.
    fn settle_stall(&mut self) {
        if let Some(since) = self.stall_since {
            self.stats.stalled_cycles =
                self.stats.stalled_cycles.saturating_add(self.now.saturating_sub(since));
            self.stall_since = Some(self.now);
        }
    }

    /// Runs until the channel is idle or `limit` cycles have elapsed,
    /// returning all completions. Useful for batch-style callers.
    ///
    /// The chunk size only bounds how often the idle check runs — `tick`
    /// jumps event-to-event internally, so oversized chunks cost nothing
    /// and the completions are identical under any slicing.
    pub fn run_until_idle(&mut self, limit: Cycle) -> Vec<Completion> {
        let deadline = self.now.saturating_add(limit);
        let mut out = Vec::new();
        while !self.is_idle() && self.now < deadline {
            self.tick(deadline.saturating_sub(self.now).min(10_000));
            out.extend(self.drain_completions());
        }
        out.extend(self.drain_completions());
        out
    }

    // ----- internals -------------------------------------------------

    /// Flat bank-cache index for `coords`.
    fn flat_bank(&self, coords: &Coords) -> u32 {
        debug_assert!(coords.row != NO_ROW, "row index collides with the idle sentinel");
        (coords.rank * self.cfg.topology.banks + coords.bank) as u32
    }

    /// Re-mirrors one bank's timing state into the flat cache. Must be
    /// called after every mutation of that bank.
    fn sync_bank_cache(&mut self, rank: usize, bank: usize) {
        let b = self.ranks[rank].bank(bank);
        self.bank_cache[rank * self.cfg.topology.banks + bank] = BankCache {
            open_row: match b.state() {
                RowState::Open(r) => r,
                RowState::Idle => NO_ROW,
            },
            next_cas: b.next_cas(),
            next_act: b.next_act(),
            next_pre: b.next_pre(),
        };
    }

    /// Cross-checks every incremental mirror (queued-work counters,
    /// open-bank counters, flat bank cache, per-bank queue index) against
    /// the authoritative structures. Debug builds run this each scheduler
    /// invocation; in release the mirrors are trusted and the
    /// `sdimm-audit` replay checker re-validates the resulting command
    /// stream independently.
    #[cfg(debug_assertions)]
    fn debug_validate_caches(&self) {
        for (r, rank) in self.ranks.iter().enumerate() {
            let queued = self
                .read_q
                .iter()
                .chain(self.write_q.iter())
                .filter(|e| e.coords.rank == r)
                .count();
            assert_eq!(queued, self.rank_queued[r] as usize, "rank {r} queued-work counter");
            let open = (0..rank.bank_count())
                .filter(|&b| matches!(rank.bank(b).state(), RowState::Open(_)))
                .count();
            assert_eq!(open, self.rank_open_banks[r] as usize, "rank {r} open-bank counter");
            for b in 0..rank.bank_count() {
                let bc = &self.bank_cache[r * self.cfg.topology.banks + b];
                let bank = rank.bank(b);
                let row = match bank.state() {
                    RowState::Open(row) => row,
                    RowState::Idle => NO_ROW,
                };
                assert!(
                    bc.open_row == row
                        && bc.next_cas == bank.next_cas()
                        && bc.next_act == bank.next_act()
                        && bc.next_pre == bank.next_pre(),
                    "bank cache stale for rank {r} bank {b}"
                );
            }
        }
        // Each bank list holds exactly that bank's queue entries, in
        // queue order, and the occupancy mask marks the non-empty lists.
        for (name, q, index) in
            [("read", &self.read_q, &self.read_index), ("write", &self.write_q, &self.write_index)]
        {
            let mut cursor = vec![0usize; index.lists.len()];
            for e in q {
                let b = e.bidx as usize;
                assert_eq!(
                    index.lists[b].get(cursor[b]),
                    Some(&(e.req.id, e.coords.row)),
                    "{name} index out of step with the queue at bank {b}"
                );
                cursor[b] += 1;
            }
            for (b, list) in index.lists.iter().enumerate() {
                assert_eq!(cursor[b], list.len(), "{name} index holds stale entries at bank {b}");
                assert_eq!(
                    (index.occupied >> b) & 1 == 1,
                    !list.is_empty(),
                    "{name} occupancy bit {b} disagrees with its list"
                );
            }
            assert_eq!(
                index.occupied.checked_shr(index.lists.len() as u32).unwrap_or(0),
                0,
                "{name} occupancy mask marks banks beyond the channel"
            );
        }
    }

    /// Accounts background-energy residency for `rank` up to `now`.
    fn account_bg(&mut self, rank: usize) {
        let dt = self.now.saturating_sub(self.bg_mark[rank]);
        if dt == 0 {
            self.bg_mark[rank] = self.now;
            return;
        }
        match self.ranks[rank].power_state() {
            PowerState::PowerDown { .. } => {
                self.energy.powerdown_cycles = self.energy.powerdown_cycles.saturating_add(dt)
            }
            PowerState::Active => {
                if self.rank_open_banks[rank] == 0 {
                    self.energy.precharge_standby_cycles =
                        self.energy.precharge_standby_cycles.saturating_add(dt);
                } else {
                    self.energy.active_standby_cycles =
                        self.energy.active_standby_cycles.saturating_add(dt);
                }
            }
        }
        self.bg_mark[rank] = self.now;
    }

    /// The one statement of when `rank` heads for power-down: the cycle
    /// from which it may, or `None` while it must stay up. A rank is a
    /// candidate only when it is active, has no queued work and owes no
    /// refresh; it is then eligible at once when the low-power protocol
    /// pins it down, or `idle_cycles` after its last command under
    /// [`PowerPolicy::PowerDown`]. An eligible rank first precharges its
    /// open banks (maintenance PRE), then drops CKE once all are closed
    /// and `ready_at` has passed.
    fn sleep_eligible_at(&self, rank: usize) -> Option<Cycle> {
        let r = &self.ranks[rank];
        if self.rank_queued[rank] > 0
            || self.refresh_pending[rank]
            || !matches!(r.power_state(), PowerState::Active)
        {
            return None;
        }
        if self.forced_down[rank] {
            return Some(0);
        }
        match self.cfg.power_policy {
            PowerPolicy::AlwaysOn => None,
            PowerPolicy::PowerDown { idle_cycles } => {
                Some(r.last_activity().saturating_add(idle_cycles))
            }
        }
    }

    /// Earliest cycle at which the power policy can act on `rank`, or
    /// `None` when it has nothing to do: dropping CKE (eligible, all
    /// banks closed, `ready_at` passed), or — with banks open — becoming
    /// eligible, then each maintenance PRE's `next_pre`/`ready_at` bound.
    fn power_wake(&self, rank: usize) -> Option<Cycle> {
        let at = self.sleep_eligible_at(rank)?;
        let ready = self.ranks[rank].ready_at();
        if self.rank_open_banks[rank] == 0 {
            return Some(at.max(ready));
        }
        if at > self.now {
            return Some(at);
        }
        let banks = self.cfg.topology.banks;
        self.bank_cache[rank * banks..(rank + 1) * banks]
            .iter()
            .filter(|bc| bc.open_row != NO_ROW)
            .map(|bc| bc.next_pre.max(ready))
            .min()
    }

    /// Earliest cycle a refresh falls due or the power policy can act on
    /// some rank. A rank already owing a refresh is bounded by the
    /// refresh pass in `decide` instead of its (past) deadline.
    fn timer_wake(&self) -> Cycle {
        let mut wake = Cycle::MAX;
        for (i, r) in self.ranks.iter().enumerate() {
            if self.cfg.refresh_enabled && !self.refresh_pending[i] {
                wake = wake.min(r.next_refresh());
            }
            if let Some(at) = self.power_wake(i) {
                wake = wake.min(at);
            }
        }
        wake
    }

    /// Applies the idle-rank power policy and wakes ranks with work.
    /// Runs every scheduler invocation, so each rank's checks are O(1)
    /// against the incremental counters — no queue or bank scans.
    fn manage_power(&mut self) {
        for i in 0..self.ranks.len() {
            let has_work = self.rank_queued[i] > 0;
            match self.ranks[i].power_state() {
                PowerState::PowerDown { .. } => {
                    if has_work {
                        self.account_bg(i);
                        self.ranks[i].exit_power_down(self.now, &self.cfg.timing);
                        self.log_cmd(self.now, i, DdrCmd::PowerUp);
                        if self.sink.is_enabled() {
                            self.sink.instant(
                                "dram.power",
                                &format!("wake.rank{i}"),
                                self.trace_pid,
                                self.trace_tid,
                                self.now,
                            );
                        }
                    }
                }
                PowerState::Active => {
                    if self.rank_open_banks[i] == 0
                        && self.power_wake(i).is_some_and(|at| at <= self.now)
                    {
                        self.account_bg(i);
                        self.ranks[i].enter_power_down(self.now);
                        self.log_cmd(self.now, i, DdrCmd::PowerDown);
                        if self.sink.is_enabled() {
                            self.sink.instant(
                                "dram.power",
                                &format!("powerdown.rank{i}"),
                                self.trace_pid,
                                self.trace_tid,
                                self.now,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Effective data-bus availability for a CAS targeting `rank`.
    fn bus_ready_for(&self, rank: usize, write: bool) -> Cycle {
        let mut free = self.bus_free_at;
        if let Some(last) = self.bus_last_rank {
            if last != rank {
                free = free.saturating_add(self.cfg.timing.t_rtrs);
            }
        }
        if let Some(last_write) = self.bus_last_write {
            if last_write != write {
                free += BUS_TURNAROUND;
            }
        }
        free
    }

    /// Picks the best action over one queue under FR-FCFS (or FCFS).
    /// FR-FCFS reads the per-class picks of the last walk of this queue
    /// while they hold (see [`walked`](Self::walked)) and otherwise
    /// walks the bank index afresh, counting the walk in `queue_walks`.
    fn scan_queue(&mut self, write: bool, best_retry: &mut Cycle) -> Option<Decision> {
        let q = if write { &self.write_q } else { &self.read_q };
        let head = q.front()?;
        #[cfg(test)]
        let retry_in = *best_retry;
        let decision = match self.cfg.scheduler {
            SchedulerPolicy::Fcfs => {
                let own = self.head_ready(head, write);
                let class = own.iter().position(|c| due(c, self.now));
                if class.is_none() {
                    *best_retry = (*best_retry).min(earliest(&own));
                }
                class.map(|class| queue_decision(class, write, 0))
            }
            // Anti-starvation: an over-age head-of-queue is served ahead
            // of younger row hits — but only when one of its commands
            // can actually issue. A head that is stuck for reasons no
            // scheduling order can fix (owed refresh, a long tRAS before
            // its precharge, the tFAW window) must not idle the whole
            // channel, so when the head yields nothing the scan falls
            // back to plain FR-FCFS over the whole queue.
            SchedulerPolicy::FrFcfs => match self.starving_head(write, self.now) {
                Some(d) => Some(d),
                None => {
                    let mut picks = Classes::default();
                    match self.walked {
                        Some(w) if w.write == write && self.walk_reusable() => {
                            picks = w.picks;
                            self.walk(write, w.stale, self.now, &mut picks);
                        }
                        _ => {
                            self.stats.queue_walks += 1;
                            let occupied = self.index(write).occupied;
                            self.walk(write, occupied, self.now, &mut picks);
                        }
                    }
                    self.walked = Some(Walked { write, picks, stale: 0 });
                    let decision = self.class_pick(write, &picks, self.now);
                    if decision.is_none() {
                        *best_retry = (*best_retry).min(earliest(&picks));
                    }
                    decision
                }
            },
        };
        #[cfg(test)]
        self.cross_check_scan(write, retry_in, decision, *best_retry);
        decision
    }

    /// Whether a pass may read the cached walk: always, except in the
    /// test-only poll-every-cycle reference, which walks on every pass.
    fn walk_reusable(&self) -> bool {
        #[cfg(test)]
        if self.poll_every_cycle {
            return false;
        }
        true
    }

    /// The over-age queue head's own command, if the head is past the
    /// starvation limit at cycle `at` and one of its commands can issue
    /// then.
    fn starving_head(&self, write: bool, at: Cycle) -> Option<Decision> {
        let q = if write { &self.write_q } else { &self.read_q };
        let head = q.front()?;
        if at.saturating_sub(head.req.arrival) <= STARVATION_LIMIT {
            return None;
        }
        let own = self.head_ready(head, write);
        own.iter().position(|c| due(c, at)).map(|class| queue_decision(class, write, 0))
    }

    /// The queue head's own candidates: its CAS when its row is open,
    /// its ACT or PRE otherwise (see [`bank_ready`](Self::bank_ready)).
    fn head_ready(&self, head: &QEntry, write: bool) -> Classes {
        let bidx = head.bidx as usize;
        let hit = (self.bank_cache[bidx].open_row == head.coords.row).then_some(head.req.id);
        self.bank_ready(bidx, write, (head.req.id, head.coords.row), hit)
    }

    /// The oldest candidate of the first class in `picks` (CAS, then
    /// ACT, then PRE) that can issue at cycle `at`. Every pick must sort
    /// no earlier than `at`, so the candidates issuable at `at` are
    /// exactly those whose clamped cycle is `at`, and each class's pick
    /// is the oldest of them: the entry a linear scan of the queue
    /// would choose.
    fn class_pick(&self, write: bool, picks: &Classes, at: Cycle) -> Option<Decision> {
        let class = picks.iter().position(|c| due(c, at))?;
        let (_, id) = picks[class]?;
        Some(queue_decision(class, write, self.queue_pos(write, id)))
    }

    /// Folds the candidates of `banks` (occupied banks of one queue)
    /// into `picks`: for each command class the candidate that sorts
    /// first by `(issue cycle clamped to base, id)` — the oldest
    /// candidate issuable by `base`, else the oldest of those issuable
    /// earliest. Every issuability bound depends only on bank, rank,
    /// group and bus state, so each occupied bank contributes at most
    /// one fixed candidate per class (see
    /// [`bank_ready`](Self::bank_ready)). Over every occupied bank, from
    /// empty picks, this is a walk of the bank index.
    fn walk(&self, write: bool, mut banks: u128, base: Cycle, picks: &mut Classes) {
        let index = self.index(write);
        while banks != 0 {
            let bidx = banks.trailing_zeros() as usize;
            banks &= banks - 1;
            let (oldest, hit) = self.bank_entries(index, bidx);
            fold(picks, self.bank_ready(bidx, write, oldest, hit), base);
        }
    }

    /// Marks bank `bidx` stale in the cached walk of its queue after an
    /// enqueue there. An enqueue only adds candidates — the new entry is
    /// the youngest of its bank, so the bank's oldest entry and oldest
    /// row hit stay candidates — and the pass it forces at `now` folds
    /// the bank in with its cycles clamped to `now`, which keeps the
    /// picks exactly what a walk at that pass would give.
    fn mark_stale(&mut self, write: bool, bidx: u32) {
        if let Some(w) = self.walked.as_mut().filter(|w| w.write == write) {
            w.stale |= 1u128 << bidx;
        }
    }

    /// The bank index of one queue.
    fn index(&self, write: bool) -> &BankIndex {
        if write {
            &self.write_index
        } else {
            &self.read_index
        }
    }

    /// Position of queued request `id` in its queue.
    fn queue_pos(&self, write: bool, id: RequestId) -> usize {
        let q = if write { &self.write_q } else { &self.read_q };
        // lint: panic-ok(invariant: the index mirrors the queue)
        q.binary_search_by_key(&id, |e| e.req.id).expect("indexed entry is queued")
    }

    /// Occupied bank `bidx` of `index`: its oldest entry as `(id, row)`,
    /// and the id of its oldest entry on the open row, if any.
    fn bank_entries(
        &self,
        index: &BankIndex,
        bidx: usize,
    ) -> ((RequestId, usize), Option<RequestId>) {
        let list = &index.lists[bidx];
        let open_row = self.bank_cache[bidx].open_row;
        let hit = if open_row == NO_ROW {
            None
        } else {
            list.iter().find(|&&(_, row)| row == open_row).map(|&(id, _)| id)
        };
        (list[0], hit)
    }

    /// One bank's candidates and the cycle from which each can issue.
    /// `oldest` is the bank's oldest queued entry as `(id, row)`, `hit`
    /// the id of its oldest entry on the open row, if any:
    ///
    /// - CAS: `hit`, once the open row is CAS-ready;
    /// - ACT: the oldest entry, when the bank is idle and its rank owes
    ///   no refresh;
    /// - PRE: the oldest entry, only when it is a row conflict (an older
    ///   entry that still wants the open row suppresses the precharge).
    ///
    /// The one statement of the scheduler's timing rules: every pass,
    /// walk and plan reads it.
    fn bank_ready(
        &self,
        bidx: usize,
        write: bool,
        oldest: (RequestId, usize),
        hit: Option<RequestId>,
    ) -> Classes {
        let mut ready = Classes::default();
        let bc = &self.bank_cache[bidx];
        let (r, group) = self.bank_home[bidx];
        let rank = &self.ranks[r];
        if bc.open_row == NO_ROW {
            // Idle bank: ACT candidate — unless a refresh is owed, in
            // which case no new rows may open on that rank.
            if !self.refresh_pending[r] {
                let at = bc.next_act.max(rank.next_act_allowed()).max(rank.act_group_bound(group));
                ready[ACT] = Some((at, oldest.0));
            }
            return ready;
        }
        if let Some(id) = hit {
            // tCCD_S rank-wide plus tCCD_L within the bank group.
            let mut at = bc
                .next_cas
                .max(rank.ready_at())
                .max(rank.cas_allowed_rank())
                .max(rank.cas_group_bound(group));
            if !write {
                at = at.max(self.rank_next_read[r]);
            }
            // The CAS must be timed so its burst clears the shared bus:
            // a CAS at cycle `c` occupies the bus over
            // [c + data_latency, c + data_latency + tBURST). In the first
            // cycles of a run `bus_free` can be below the data latency;
            // the bus then imposes no constraint (the burst start is
            // already past `bus_free`) — an explicit branch rather than an
            // unsigned clamp to cycle 0, so the boundary semantics are
            // stated instead of incidental. The resulting no-overlap
            // invariant is re-validated in release builds by the
            // `sdimm-audit` replay checker.
            let t = &self.cfg.timing;
            let data_latency = if write { t.cwl } else { t.cl };
            let bus_free = self.bus_ready_for(r, write);
            if bus_free > data_latency {
                at = at.max(bus_free - data_latency);
            }
            ready[CAS] = Some((at, id));
        }
        if oldest.1 != bc.open_row {
            // Row conflict at the head of the bank: precharge candidate.
            ready[PRE] = Some((bc.next_pre.max(rank.ready_at()), oldest.0));
        }
        ready
    }

    /// Asserts that the indexed decision equals the linear scan's.
    /// `best_retry` is compared only when no command issues: that is the
    /// only case in which `decide` reads it (the linear scan returns at
    /// the first ready CAS, so its bound is partial by construction).
    #[cfg(test)]
    fn cross_check_scan(
        &self,
        write: bool,
        retry_in: Cycle,
        decision: Option<Decision>,
        retry_out: Cycle,
    ) {
        let mut reference_retry = retry_in;
        let reference = self.reference_scan_queue(write, &mut reference_retry);
        assert_eq!(decision, reference, "indexed decision diverged at cycle {}", self.now);
        if decision.is_none() {
            assert_eq!(retry_out, reference_retry, "indexed retry diverged at cycle {}", self.now);
        }
    }

    /// Asserts that the planning walk's wake equals the bound the linear
    /// reference scan gives on the same state: the next cycle if any
    /// candidate is issuable now, else its earliest retry or `timer`.
    #[cfg(test)]
    fn cross_check_wake(&self, write: bool, timer: Cycle, wake: Cycle) {
        let mut retry = timer;
        let reference = if self.reference_scan_queue(write, &mut retry).is_some() {
            self.now.saturating_add(1)
        } else {
            self.wake_at(retry)
        };
        assert_eq!(wake, reference, "post-issue wake diverged at cycle {}", self.now);
    }

    /// Asserts, on a planned pass, everything that lets it skip the
    /// power, refresh and maintenance checks and the queue scan: no
    /// refresh owed or due, no timer edge now, drain mode steady, no
    /// rank powered down with queued work — and that the queue scan at
    /// this cycle returns the planned decision. The scan's walk is not
    /// counted: it is this check's, not the channel's.
    #[cfg(test)]
    fn cross_check_plan(&mut self, planned: Decision) {
        let now = self.now;
        for (i, rank) in self.ranks.iter().enumerate() {
            assert!(
                !(self.refresh_pending[i] || self.cfg.refresh_enabled && rank.refresh_due(now)),
                "planned pass at cycle {now} with a refresh owed on rank {i}"
            );
            assert!(
                self.rank_queued[i] == 0 || matches!(rank.power_state(), PowerState::Active),
                "planned pass at cycle {now} with rank {i} powered down over queued work"
            );
        }
        assert!(self.timer_wake() > now, "planned pass at cycle {now} on a timer edge");
        assert_eq!(
            self.drain_mode(),
            self.draining,
            "planned pass at cycle {now} flips drain mode"
        );
        let walks = self.stats.queue_walks;
        let write = self.draining || self.read_q.is_empty();
        let mut retry = Cycle::MAX;
        let scanned = self.scan_queue(write, &mut retry);
        self.stats.queue_walks = walks;
        assert_eq!(scanned, Some(planned), "planned decision diverged at cycle {now}");
    }

    /// The linear FR-FCFS queue scan the per-bank index replaced, kept
    /// as the test-only reference for [`scan_queue`](Self::scan_queue).
    #[cfg(test)]
    fn reference_scan_queue(&self, write: bool, best_retry: &mut Cycle) -> Option<Decision> {
        let q = if write { &self.write_q } else { &self.read_q };
        let head = q.front()?;
        let limit = match self.cfg.scheduler {
            SchedulerPolicy::FrFcfs => q.len(),
            SchedulerPolicy::Fcfs => 1,
        };
        if self.now.saturating_sub(head.req.arrival) > STARVATION_LIMIT {
            if let Some(d) = self.reference_scan_entries(q, write, 1, best_retry) {
                return Some(d);
            }
        }
        self.reference_scan_entries(q, write, limit, best_retry)
    }

    /// Reference scan over the first `limit` entries of `q`: an issuable
    /// CAS wins immediately; otherwise the oldest issuable ACT, then the
    /// oldest issuable PRE (suppressed while an older entry still wants
    /// the bank). Blocked entries lower `best_retry`.
    #[cfg(test)]
    fn reference_scan_entries(
        &self,
        q: &VecDeque<QEntry>,
        write: bool,
        limit: usize,
        best_retry: &mut Cycle,
    ) -> Option<Decision> {
        let mut act_choice: Option<usize> = None;
        let mut pre_choice: Option<usize> = None;
        let t = &self.cfg.timing;
        let data_latency = if write { t.cwl } else { t.cl };
        let next = self.now.saturating_add(1);
        // Banks touched by entries older than the current one.
        let mut seen: u128 = 0;
        for (idx, e) in q.iter().enumerate().take(limit) {
            let bc = &self.bank_cache[e.bidx as usize];
            let bit = 1u128 << e.bidx;
            let r = e.coords.rank;
            let rank = &self.ranks[r];
            let (_, group) = self.bank_home[e.bidx as usize];
            if bc.open_row == e.coords.row {
                let mut ready = bc
                    .next_cas
                    .max(rank.ready_at())
                    .max(rank.cas_allowed_rank())
                    .max(rank.cas_group_bound(group));
                if !write {
                    ready = ready.max(self.rank_next_read[r]);
                }
                let bus_free = self.bus_ready_for(r, write);
                if bus_free > data_latency {
                    ready = ready.max(bus_free - data_latency);
                }
                if ready <= self.now {
                    return Some(Decision::Cas { write, idx });
                }
                *best_retry = (*best_retry).min(ready);
            } else if bc.open_row == NO_ROW {
                if !self.refresh_pending[r] {
                    let ready =
                        bc.next_act.max(rank.next_act_allowed()).max(rank.act_group_bound(group));
                    if ready <= self.now && act_choice.is_none() {
                        act_choice = Some(idx);
                    } else {
                        *best_retry = (*best_retry).min(ready.max(next));
                    }
                }
            } else if seen & bit == 0 {
                let ready = bc.next_pre.max(rank.ready_at());
                if ready <= self.now && pre_choice.is_none() {
                    pre_choice = Some(idx);
                } else {
                    *best_retry = (*best_retry).min(ready.max(next));
                }
            }
            seen |= bit;
        }
        act_choice
            .map(|idx| Decision::Act { write, idx })
            .or(pre_choice.map(|idx| Decision::Pre { write, idx }))
    }

    /// Finds the next command to issue, if any.
    fn decide(&mut self) -> Decision {
        let mut best_retry = Cycle::MAX;

        // Refresh has priority once due: mark pending, close banks, issue.
        if self.cfg.refresh_enabled {
            for i in 0..self.ranks.len() {
                if !self.refresh_pending[i] && self.ranks[i].refresh_due(self.now) {
                    // The rank's idle banks stop offering ACTs (and a
                    // powered-down rank wakes below, in this pass only).
                    self.refresh_pending[i] = true;
                    self.walked = None;
                }
                if self.refresh_pending[i] {
                    if let PowerState::PowerDown { .. } = self.ranks[i].power_state() {
                        self.account_bg(i);
                        self.ranks[i].exit_power_down(self.now, &self.cfg.timing);
                        self.log_cmd(self.now, i, DdrCmd::PowerUp);
                    }
                    if self.rank_open_banks[i] == 0 {
                        if self.now >= self.ranks[i].ready_at() {
                            return Decision::Refresh { rank: i };
                        }
                        best_retry = best_retry.min(self.ranks[i].ready_at());
                    } else {
                        // Precharge open banks of the refreshing rank.
                        let base = i * self.cfg.topology.banks;
                        for b in 0..self.ranks[i].bank_count() {
                            if self.bank_cache[base + b].open_row != NO_ROW {
                                let ready = self.bank_cache[base + b]
                                    .next_pre
                                    .max(self.ranks[i].ready_at());
                                if ready <= self.now {
                                    return Decision::MaintenancePre { rank: i, bank: b };
                                }
                                best_retry = best_retry.min(ready);
                            }
                        }
                    }
                }
            }
        }

        // Close open banks of ranks that want to power down (forced by
        // the low-power protocol or eligible under the idle policy) so
        // they can actually drop CKE. A blocked precharge is bounded by
        // `power_wake` below.
        for i in 0..self.ranks.len() {
            if self.rank_open_banks[i] == 0
                || self.sleep_eligible_at(i).is_none_or(|at| at > self.now)
            {
                continue;
            }
            let base = i * self.cfg.topology.banks;
            for b in 0..self.ranks[i].bank_count() {
                if self.bank_cache[base + b].open_row != NO_ROW {
                    let ready = self.bank_cache[base + b].next_pre.max(self.ranks[i].ready_at());
                    if ready <= self.now {
                        return Decision::MaintenancePre { rank: i, bank: b };
                    }
                }
            }
        }

        // Write-drain hysteresis: derive one read/write priority decision
        // per scheduler invocation. While draining, writes are serviced
        // exclusively until the queue falls to the low watermark — reads
        // are starved only in drain mode, and the priority cannot flip
        // back mid-drain just because no write command is issuable this
        // cycle. Outside drain mode, reads always go first and writes
        // issue only when no read is queued: a pass reads exactly one
        // queue.
        self.draining = self.drain_mode();
        let write = self.draining || self.read_q.is_empty();
        if let Some(d) = self.scan_queue(write, &mut best_retry) {
            return d;
        }

        // Nothing issuable: wake for the next refresh deadline and for the
        // moment the power policy can act on a rank.
        Decision::Idle { retry_at: best_retry.min(self.timer_wake()) }
    }

    /// The write-drain mode the next pass uses: on at the high
    /// watermark, off at the low one, unchanged in between.
    fn drain_mode(&self) -> bool {
        let n = self.write_q.len();
        if n >= self.cfg.write_drain.hi {
            true
        } else if n <= self.cfg.write_drain.lo {
            false
        } else {
            self.draining
        }
    }

    /// The next wake after a queue command (CAS, ACT or PRE) issued at
    /// `now`: the bound an idle pass at `now` would compute on the state
    /// the command left. The queue the next pass reads is walked afresh
    /// — the issuing pass's own bounds for other banks went stale when
    /// the command moved the bus, tCCD, tRRD and tFAW windows — and any
    /// candidate already issuable wakes on the next cycle. Refresh
    /// deadlines and power eligibility come from
    /// [`timer_wake`](Self::timer_wake): a CAS can drain a rank's last
    /// queued entry. Two cases wake on the next cycle instead: a rank
    /// owing a refresh (the refresh pass bounds it there), and a write
    /// CAS that crossed the low drain watermark — drain mode is state
    /// each pass carries forward, and the flip must land on the next
    /// cycle, before any write enqueued later can re-enter the
    /// hysteresis band.
    ///
    /// Under FR-FCFS the walk's picks are kept for the passes that
    /// follow (see [`walked`](Self::walked)), and they plan the pass at
    /// the wake `W`: the over-age head's own command if it is due at
    /// `W`, else CAS, then ACT, then PRE, as
    /// [`scan_queue`](Self::scan_queue) ranks them. The plan is kept
    /// only when nothing but the queue scan can act at `W`: `W` comes
    /// before every refresh deadline and power edge. Nothing but time
    /// changes until then — an enqueue or a rank pin or wake drops the
    /// plan — so the pass at `W` would issue exactly the planned
    /// command.
    fn post_issue_wake(&mut self) -> Cycle {
        let next = self.now.saturating_add(1);
        if self.refresh_pending.contains(&true) || self.drain_mode() != self.draining {
            return next;
        }
        let timer = self.timer_wake();
        let write = self.draining || self.read_q.is_empty();
        let q = if write { &self.write_q } else { &self.read_q };
        if q.is_empty() {
            return self.wake_at(timer);
        }
        if matches!(self.cfg.scheduler, SchedulerPolicy::Fcfs) {
            let mut wake = timer;
            return if self.scan_queue(write, &mut wake).is_some() {
                next
            } else {
                self.wake_at(wake)
            };
        }
        self.stats.queue_walks += 1;
        let mut picks = Classes::default();
        self.walk(write, self.index(write).occupied, next, &mut picks);
        self.walked = Some(Walked { write, picks, stale: 0 });
        let wake = self.wake_at(earliest(&picks).min(timer));
        #[cfg(test)]
        self.cross_check_wake(write, timer, wake);
        if wake < timer {
            // `wake` is the earliest pick's cycle: the pass there finds
            // the over-age head or the class picks due at `wake`.
            let planned = self.starving_head(write, wake);
            self.planned =
                planned.or_else(|| self.class_pick(write, &picks, wake)).map(|d| (wake, d));
        }
        wake
    }

    /// `next_wake` for a pass whose bound is `retry`: never before the
    /// next cycle, and a long horizon when nothing is bounded at all
    /// (no queued work, no refresh, no power policy to apply).
    fn wake_at(&self, retry: Cycle) -> Cycle {
        if retry == Cycle::MAX {
            self.now.saturating_add(4096)
        } else {
            retry.max(self.now.saturating_add(1))
        }
    }

    /// Runs one scheduler pass at the current cycle: issues at most one
    /// command and sets `next_wake`. A pass the previous post-issue walk
    /// planned issues its command without the power and refresh checks
    /// and the queue scan, which would find exactly that command.
    fn schedule_once(&mut self) {
        #[cfg(debug_assertions)]
        self.debug_validate_caches();
        let planned = self.planned.take().filter(|&(at, _)| at == self.now);
        #[cfg(test)]
        let planned = planned.filter(|_| !self.poll_every_cycle);
        let decision = match planned {
            Some((_, decision)) => {
                #[cfg(test)]
                self.cross_check_plan(decision);
                decision
            }
            None => {
                self.manage_power();
                self.decide()
            }
        };
        if let Decision::Idle { retry_at } = decision {
            self.next_wake = self.wake_at(retry_at);
            // Blocked with work queued: start (or continue) a stall
            // interval. Cycles accrue in `settle_stall` as time
            // actually elapses, so totals are tick-split-invariant.
            if self.read_q.is_empty() && self.write_q.is_empty() {
                self.stall_since = None;
            } else if self.stall_since.is_none() {
                self.stall_since = Some(self.now);
            }
            return;
        }
        self.issue(decision);
        self.next_wake = match decision {
            Decision::Cas { .. } | Decision::Act { .. } | Decision::Pre { .. } => {
                self.post_issue_wake()
            }
            _ => self.now.saturating_add(1),
        };
        // Passes skipped after the issue find nothing, so a stall
        // interval opens on the next cycle, as the first of those
        // passes would have opened it, when work remains queued.
        let next = self.now.saturating_add(1);
        let queued = !self.read_q.is_empty() || !self.write_q.is_empty();
        self.stall_since = (self.next_wake > next && queued).then_some(next);
    }

    /// Applies an issuing decision at the current cycle.
    fn issue(&mut self, decision: Decision) {
        self.walked = None;
        match decision {
            Decision::Refresh { rank } => {
                self.account_bg(rank);
                self.log_cmd(self.now, rank, DdrCmd::Refresh);
                self.ranks[rank].begin_refresh(self.now, &self.cfg.timing);
                for b in 0..self.cfg.topology.banks {
                    self.sync_bank_cache(rank, b);
                }
                self.refresh_pending[rank] = false;
                self.energy.refreshes += 1;
                self.stats.refreshes += 1;
                if let Some(w) = self.wear.as_deref_mut() {
                    w.on_refresh(rank);
                }
                if self.sink.is_enabled() {
                    self.sink.instant(
                        "dram.cmd",
                        &format!("refresh.rank{rank}"),
                        self.trace_pid,
                        self.trace_tid,
                        self.now,
                    );
                }
            }
            Decision::MaintenancePre { rank, bank } => {
                self.account_bg(rank);
                self.log_cmd(self.now, rank, DdrCmd::Pre { bank });
                self.ranks[rank].bank_mut(bank).precharge(self.now, &self.cfg.timing);
                self.ranks[rank].record_activity(self.now);
                self.rank_open_banks[rank] -= 1;
                self.sync_bank_cache(rank, bank);
            }
            Decision::Cas { write, idx } => self.issue_cas(write, idx),
            Decision::Act { write, idx } => {
                let e = if write { self.write_q[idx] } else { self.read_q[idx] };
                self.account_bg(e.coords.rank);
                self.log_cmd(
                    self.now,
                    e.coords.rank,
                    DdrCmd::Act { bank: e.coords.bank, row: e.coords.row },
                );
                self.ranks[e.coords.rank].bank_mut(e.coords.bank).activate(
                    self.now,
                    e.coords.row,
                    &self.cfg.timing,
                );
                let (_, group) = self.bank_home[e.bidx as usize];
                self.ranks[e.coords.rank].record_activate(self.now, group, &self.cfg.timing);
                self.rank_open_banks[e.coords.rank] += 1;
                self.sync_bank_cache(e.coords.rank, e.coords.bank);
                self.energy.activates += 1;
                // Classify for stats at first ACT for this request.
                self.stats.row_misses += 1;
                self.stats.activations += 1;
                if let Some(w) = self.wear.as_deref_mut() {
                    let alarms = w.on_act(e.coords.rank, e.coords.bank, e.coords.row);
                    for alarm in alarms.into_iter().flatten() {
                        self.stats.hammer_alarms += 1;
                        if self.flight.is_enabled() {
                            self.flight.record_at(
                                self.now,
                                FlightEventKind::HammerAlarm {
                                    channel: self.flight_channel,
                                    rank: alarm.victim.rank.min(u8::MAX as usize) as u8,
                                    bank: alarm.victim.bank.min(u8::MAX as usize) as u8,
                                    row: alarm.victim.row.min(u32::MAX as usize) as u32,
                                    window: alarm.window.min(u64::from(u32::MAX)) as u32,
                                },
                            );
                        }
                    }
                }
                self.sink.instant("dram.cmd", "act", self.trace_pid, self.trace_tid, self.now);
            }
            Decision::Pre { write, idx } => {
                let e = if write { self.write_q[idx] } else { self.read_q[idx] };
                self.account_bg(e.coords.rank);
                self.log_cmd(self.now, e.coords.rank, DdrCmd::Pre { bank: e.coords.bank });
                self.ranks[e.coords.rank]
                    .bank_mut(e.coords.bank)
                    .precharge(self.now, &self.cfg.timing);
                self.ranks[e.coords.rank].record_activity(self.now);
                self.rank_open_banks[e.coords.rank] -= 1;
                self.sync_bank_cache(e.coords.rank, e.coords.bank);
                self.stats.row_conflicts += 1;
                self.sink.instant(
                    "dram.cmd",
                    "pre.conflict",
                    self.trace_pid,
                    self.trace_tid,
                    self.now,
                );
            }
            Decision::Idle { .. } => unreachable!("handled before the issue arms"),
        }
    }

    fn issue_cas(&mut self, write: bool, idx: usize) {
        let t = &self.cfg.timing;
        let data_latency = if write { t.cwl } else { t.cl };
        let (t_burst, t_wtr) = (t.t_burst, t.t_wtr);
        let e = if write {
            // lint: panic-ok(invariant: scanned index)
            let e = self.write_q.remove(idx).expect("scanned index");
            self.write_index.remove(e.bidx, e.req.id);
            e
        } else {
            // lint: panic-ok(invariant: scanned index)
            let e = self.read_q.remove(idx).expect("scanned index");
            self.read_index.remove(e.bidx, e.req.id);
            e
        };
        let rank_idx = e.coords.rank;
        let bank_idx = e.coords.bank;
        self.rank_queued[rank_idx] -= 1;

        // Row-hit statistic: CAS on an open row that required no ACT this
        // scheduling round counts as a hit if the open row matched from
        // the start; we approximate by classifying now.
        if let RowOutcome::Hit = self.ranks[rank_idx].bank(bank_idx).classify(e.coords.row) {
            self.stats.row_hits += 1;
        }

        let data_start = self.now.saturating_add(data_latency);
        let data_end = data_start.saturating_add(t_burst);

        let cmd = if write {
            DdrCmd::Wr { bank: bank_idx, row: e.coords.row }
        } else {
            DdrCmd::Rd { bank: bank_idx, row: e.coords.row }
        };
        self.log_cmd(self.now, rank_idx, cmd);

        if write {
            self.ranks[rank_idx].bank_mut(bank_idx).write(self.now, &self.cfg.timing);
            self.rank_next_read[rank_idx] =
                self.rank_next_read[rank_idx].max(data_end.saturating_add(t_wtr));
            self.energy.writes += 1;
            if let Some(w) = self.wear.as_deref_mut() {
                w.on_write(rank_idx, bank_idx, e.coords.row);
            }
        } else {
            self.ranks[rank_idx].bank_mut(bank_idx).read(self.now, &self.cfg.timing);
            self.energy.reads += 1;
        }
        self.sync_bank_cache(rank_idx, bank_idx);
        let (_, group) = self.bank_home[e.bidx as usize];
        self.ranks[rank_idx].record_cas(self.now, group, &self.cfg.timing);

        self.sink.instant(
            "dram.cmd",
            if write { "cas.write" } else { "cas.read" },
            self.trace_pid,
            self.trace_tid,
            self.now,
        );

        self.bus_free_at = data_end;
        self.bus_last_rank = Some(rank_idx);
        self.bus_last_write = Some(write);
        self.stats.data_bus_busy_cycles = self.stats.data_bus_busy_cycles.saturating_add(t_burst);
        self.energy.io_bits += (self.cfg.topology.line_bytes * 8) as u64;

        self.pending.push(Pending {
            finish: data_end,
            id: e.req.id,
            kind: e.req.kind,
            arrival: e.req.arrival,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelConfig, PowerPolicy, Timing};
    use crate::power::EnergyCounters;
    use crate::spec::DramStandard;
    use proptest::prelude::*;

    fn quiet_cfg() -> ChannelConfig {
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = false;
        cfg
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let mut ch = DramChannel::new(quiet_cfg());
        let t = Timing::ddr3_1600();
        let id = ch.enqueue_read(0).unwrap();
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        // Cold access: ACT at ~0, CAS at tRCD, data at +CL+tBURST, plus a
        // cycle of command-bus pipelining.
        let expected = t.t_rcd + t.cl + t.t_burst;
        assert!(
            done[0].latency >= expected && done[0].latency <= expected + 4,
            "latency {} vs expected ~{}",
            done[0].latency,
            expected
        );
    }

    #[test]
    fn row_hits_are_faster_than_cold_access() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enqueue_read(0).unwrap();
        ch.enqueue_read(64).unwrap();
        ch.enqueue_read(128).unwrap();
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 3);
        assert!(ch.stats().row_hits >= 2, "sequential lines should hit the open row");
    }

    #[test]
    fn row_conflict_forces_precharge() {
        let mut ch = DramChannel::new(quiet_cfg());
        let topo = ch.config().topology.clone();
        // Two addresses in the same bank, different rows.
        let stride = (topo.row_bytes * topo.banks * topo.ranks) as u64;
        ch.enqueue_read(0).unwrap();
        ch.enqueue_read(stride).unwrap();
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 2);
        assert!(ch.stats().row_conflicts >= 1, "expected a row conflict");
    }

    #[test]
    fn reads_prioritized_over_writes_until_drain() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..10 {
            ch.enqueue_write((i * 1_000_000) as u64).unwrap();
        }
        let rid = ch.enqueue_read(64).unwrap();
        ch.tick(200);
        let done = ch.drain_completions();
        assert!(
            done.iter().any(|c| c.id == rid),
            "read must complete while small write queue waits"
        );
    }

    #[test]
    fn drain_hysteresis_starves_reads_until_low_watermark() {
        // Regression test for the mid-drain priority flip: once the write
        // queue crosses the high watermark, reads must wait until the
        // queue drains to the low watermark — a read must not slip in on
        // cycles where no write command happens to be issuable.
        let mut ch = DramChannel::new(quiet_cfg());
        let hi = ch.config().write_drain.hi;
        let lo = ch.config().write_drain.lo;
        let topo = ch.config().topology.clone();
        let row_stride = (topo.row_bytes * topo.banks * topo.ranks) as u64;
        // Every write targets its own row of one bank, so each is a row
        // miss even after FR-FCFS reordering (alternating between two
        // rows would be rescheduled into two row-hit streaks). Each
        // write then spends most of its time waiting on tRAS/tRP with
        // no write command issuable — exactly the idle slots a
        // mid-drain priority flip would hand to the read.
        for i in 0..(hi + 1) as u64 {
            ch.enqueue_write(i * row_stride).unwrap();
        }
        // A read in a different rank (unaffected by tWTR from the write
        // bursts), ready to issue the moment it is scanned.
        let rank_stride = (topo.row_bytes * topo.banks) as u64;
        let rid = ch.enqueue_read(rank_stride).unwrap();

        let mut read_done_at = None;
        while read_done_at.is_none() && ch.now() < 50_000 {
            ch.tick(8);
            if ch.drain_completions().iter().any(|c| c.id == rid) {
                read_done_at = Some(ch.now());
            }
        }
        read_done_at.expect("read must eventually complete");
        assert!(
            ch.stats().writes_completed as usize >= hi - lo - 4,
            "read completed after only {} writes; drain mode must hold reads until \
             the queue reaches the low watermark ({} of {} writes)",
            ch.stats().writes_completed,
            hi - lo,
            hi + 1
        );
        // Hysteresis: draining stopped at the low watermark, not at zero.
        assert!(
            ch.write_queue_len() >= lo / 2 && ch.write_queue_len() <= lo,
            "write queue should sit near the low watermark when the read is served, got {}",
            ch.write_queue_len()
        );
    }

    #[test]
    fn blocked_starving_head_does_not_idle_queue() {
        // Regression test for anti-starvation head-of-queue handling: an
        // over-age head that cannot issue any command (here: pinned
        // behind an enormous tRAS before its row conflict can precharge)
        // must not stall every other ready request in the queue.
        let mut cfg = quiet_cfg();
        cfg.timing.t_ras = 50_000;
        cfg.timing.t_rc = 50_100;
        let mut ch = DramChannel::new(cfg);
        let topo = ch.config().topology.clone();
        let row_stride = (topo.row_bytes * topo.banks * topo.ranks) as u64;
        let bank_stride = topo.row_bytes as u64;

        // Open row 0 of bank 0 and retire a read from it.
        ch.enqueue_read(0).unwrap();
        // Row conflict in bank 0: its PRE is legal only at tRAS = 50k.
        ch.enqueue_read(row_stride).unwrap();
        // Age the conflicting head past STARVATION_LIMIT.
        ch.tick(STARVATION_LIMIT + 200);
        assert_eq!(ch.drain_completions().len(), 1, "only the row-0 read can finish");

        // Younger reads to other banks: all trivially servable.
        for i in 1..=30u64 {
            ch.enqueue_read(i * bank_stride).unwrap();
        }
        ch.tick(5_000);
        let done = ch.drain_completions();
        assert!(
            done.len() >= 25,
            "ready requests must flow past a permanently-blocked starving head, got {}",
            done.len()
        );
    }

    #[test]
    fn early_cycle_bursts_never_overlap_on_the_bus() {
        // Boundary test for the bus-constraint arithmetic at simulation
        // start, where `bus_free` is below the data latency: the very
        // first bursts must still be serialized by at least tBURST.
        let mut ch = DramChannel::new(quiet_cfg());
        let t = Timing::ddr3_1600();
        let bank_stride = ch.config().topology.row_bytes as u64;
        for i in 0..3u64 {
            ch.enqueue_write(i * bank_stride).unwrap();
        }
        for i in 3..6u64 {
            ch.enqueue_read(i * bank_stride).unwrap();
        }
        let done = ch.run_until_idle(10_000);
        assert_eq!(done.len(), 6);
        let mut finishes: Vec<Cycle> = done.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            assert!(
                w[1] - w[0] >= t.t_burst,
                "data bursts overlap near cycle 0: finishes {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn write_drain_triggers_above_hi_watermark() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..41 {
            ch.enqueue_write((i as u64) * 4096).unwrap();
        }
        ch.tick(5_000);
        let _ = ch.drain_completions();
        assert!(ch.stats().writes_completed > 0, "drain mode should retire writes");
    }

    #[test]
    fn forwarding_from_write_queue() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enqueue_write(0x2000).unwrap();
        let rid = ch.enqueue_read(0x2000).unwrap();
        ch.tick(5);
        let done = ch.drain_completions();
        let fwd = done.iter().find(|c| c.id == rid).expect("forwarded read completes fast");
        assert!(fwd.latency <= 2);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut ch = DramChannel::new(quiet_cfg());
        let cap = ch.config().read_queue_capacity;
        for i in 0..cap {
            assert!(ch.enqueue_read((i * 64) as u64).is_some());
        }
        assert!(ch.enqueue_read(0xFFFF00).is_none(), "read queue must reject overflow");
    }

    #[test]
    fn bandwidth_approaches_bus_limit_for_streams() {
        let mut ch = DramChannel::new(quiet_cfg());
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut addr = 0u64;
        // Stream sequential reads for 20k cycles.
        while ch.now() < 20_000 {
            while issued - completed < 32 {
                if ch.enqueue_read(addr).is_some() {
                    addr += 64;
                    issued += 1;
                } else {
                    break;
                }
            }
            ch.tick(16);
            completed += ch.drain_completions().len() as u64;
        }
        let util = ch.stats().bus_utilization(ch.now());
        assert!(util > 0.7, "streaming reads should near-saturate the bus, got {util}");
    }

    #[test]
    fn refresh_happens_when_enabled() {
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = true;
        let mut ch = DramChannel::new(cfg);
        ch.tick(7_000); // past tREFI=6240
        assert!(ch.stats().refreshes >= 1, "refresh must fire after tREFI");
    }

    #[test]
    fn idle_rank_powers_down_and_wakes_for_work() {
        let mut cfg = quiet_cfg();
        cfg.power_policy = PowerPolicy::PowerDown { idle_cycles: 100 };
        let mut ch = DramChannel::new(cfg);
        ch.tick(500);
        assert!(
            matches!(ch.rank_power_state(0), PowerState::PowerDown { .. }),
            "idle rank should power down"
        );
        let id = ch.enqueue_read(0).unwrap();
        let done = ch.run_until_idle(10_000);
        assert!(done.iter().any(|c| c.id == id), "request must wake the rank");
        assert!(ch.rank_powerdown_cycles(0) >= 300);
    }

    #[test]
    fn forced_down_rank_stays_down_until_woken() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.force_rank_down(2);
        ch.tick(50);
        assert!(matches!(ch.rank_power_state(2), PowerState::PowerDown { .. }));
        ch.wake_rank(2);
        ch.tick(50);
        assert!(matches!(ch.rank_power_state(2), PowerState::Active));
    }

    #[test]
    fn energy_accumulates_background_and_dynamic() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..16 {
            ch.enqueue_read((i * 64) as u64).unwrap();
        }
        ch.run_until_idle(50_000);
        ch.tick(1_000);
        let e = ch.energy();
        assert!(e.background_nj > 0.0);
        assert!(e.activate_nj > 0.0);
        assert!(e.burst_nj > 0.0);
        assert!(e.io_nj > 0.0);
    }

    #[test]
    fn completions_report_monotone_finish_times() {
        let mut ch = DramChannel::new(quiet_cfg());
        for i in 0..32 {
            ch.enqueue_read((i * 64 + i * 128 * 1024) as u64).unwrap();
        }
        let done = ch.run_until_idle(100_000);
        assert_eq!(done.len(), 32);
        for w in done.windows(2) {
            assert!(w[0].finish <= w[1].finish, "drain order must be finish order");
        }
    }

    #[test]
    fn fcfs_policy_still_makes_progress() {
        let mut cfg = quiet_cfg();
        cfg.scheduler = SchedulerPolicy::Fcfs;
        let mut ch = DramChannel::new(cfg);
        for i in 0..8 {
            ch.enqueue_read((i * 911 * 64) as u64).unwrap();
        }
        let done = ch.run_until_idle(100_000);
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn idle_tick_skips_ahead_without_per_cycle_polling() {
        // Regression guard for the event-driven tick fast path: an empty
        // channel advanced one million cycles must jump between wakeup
        // events, not evaluate the scheduler every cycle.
        let mut ch = DramChannel::new(quiet_cfg());
        ch.tick(1_000_000);
        assert_eq!(ch.now(), 1_000_000);
        let calls = ch.stats().scheduler_invocations;
        assert!(calls < 1_000, "idle tick ran the scheduler {calls} times over 1M cycles");
    }

    #[test]
    fn idle_tick_with_refresh_still_skips_ahead() {
        // With refresh enabled the channel wakes once per tREFI (plus a
        // few cycles around each refresh) — still thousands of times
        // fewer scheduler runs than cycles.
        let mut cfg = ChannelConfig::table2();
        cfg.refresh_enabled = true;
        let mut ch = DramChannel::new(cfg);
        ch.tick(1_000_000);
        assert_eq!(ch.now(), 1_000_000);
        assert!(ch.stats().refreshes >= 100, "refresh must keep firing while idle");
        let calls = ch.stats().scheduler_invocations;
        assert!(calls < 10_000, "refresh-only tick ran the scheduler {calls} times over 1M cycles");
    }

    #[test]
    fn mixed_read_write_all_complete() {
        let mut ch = DramChannel::new(quiet_cfg());
        let mut expected = 0;
        for i in 0..20u64 {
            if i % 3 == 0 {
                ch.enqueue_write(i * 64 * 7919).unwrap();
            } else {
                ch.enqueue_read(i * 64 * 104729).unwrap();
            }
            expected += 1;
        }
        let done = ch.run_until_idle(200_000);
        assert_eq!(done.len(), expected);
        assert!(ch.is_idle());
    }

    /// Byte address of `(rank, bank, row, col)` under the channel's
    /// default interleaving.
    fn addr_of(ch: &DramChannel, rank: usize, bank: usize, row: usize, col: usize) -> u64 {
        let mapper = AddressMapper::new(ch.config().topology.clone(), Interleave::RowRankBankCol);
        mapper.encode(Coords { rank, bank, row, col })
    }

    #[test]
    fn wear_tracker_attributes_acts_and_writes_per_row() {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enable_wear();
        let a = addr_of(&ch, 0, 0, 100, 0);
        let b = addr_of(&ch, 0, 0, 200, 0);
        ch.enqueue_read(a).unwrap();
        ch.enqueue_read(b).unwrap(); // conflict: second ACT
        ch.enqueue_write(a).unwrap(); // third ACT + one WR
        ch.run_until_idle(100_000);
        let snap = ch.wear().expect("wear enabled").snapshot();
        assert_eq!(snap.total_acts, ch.stats().activations, "tracker must match the counter");
        assert_eq!(snap.total_acts, 3);
        assert_eq!(snap.total_writes, 1);
        assert_eq!(ch.wear().unwrap().acts(0, 0, 100), 2);
        assert_eq!(ch.wear().unwrap().acts(0, 0, 200), 1);
    }

    #[test]
    fn warmup_reset_clears_wear_with_the_stats() {
        // Warm-up boundary regression (PR 2 pattern): reset_stats at
        // the measurement boundary must zero the wear tracker too, or
        // warm-up activations leak into the measured threat report.
        let mut ch = DramChannel::new(quiet_cfg());
        ch.enable_wear();
        for i in 0..8u64 {
            ch.enqueue_read(i * 1_000_000).unwrap();
        }
        ch.run_until_idle(100_000);
        assert!(ch.stats().activations > 0);
        ch.reset_stats();
        assert_eq!(ch.stats().activations, 0);
        assert_eq!(ch.stats().hammer_alarms, 0);
        let snap = ch.wear().unwrap().snapshot();
        assert_eq!(snap.total_acts, 0, "warm-up ACTs leaked past reset");
        assert_eq!(snap.peak_window, 0);
        // Post-reset traffic is counted from zero and still matches.
        ch.enqueue_read(addr_of(&ch, 0, 0, 7, 0)).unwrap();
        ch.run_until_idle(100_000);
        let snap = ch.wear().unwrap().snapshot();
        assert_eq!(snap.total_acts, 1);
        assert_eq!(snap.total_acts, ch.stats().activations);
    }

    #[test]
    fn double_sided_hammer_crosses_the_ddr4_threshold() {
        // Satellite: injected hot-row traffic must cross the DDR4
        // hammer threshold. Double-sided hammer on rows v±1 in one
        // bank: every ACT on either aggressor bumps victim v's window,
        // and v (chosen far from the REF round-robin start) is never
        // refreshed within the run, so the window accumulates to the
        // threshold. Refresh stays ENABLED to prove REF traffic on
        // other rows does not close the victim's window.
        let spec = crate::spec::DramSpec::ddr4_2400();
        let cfg = spec.main_channel();
        let threshold = spec.hammer_threshold;
        let mut ch = DramChannel::new(cfg);
        ch.enable_wear();
        let victim = 20_000usize;
        let lo = addr_of(&ch, 0, 0, victim - 1, 0);
        let hi = addr_of(&ch, 0, 0, victim + 1, 0);
        // One request at a time, strictly alternating the two
        // aggressors: each lands on a bank whose open row is the other
        // aggressor, forcing PRE+ACT per request (batching them would
        // let FR-FCFS group row hits and skip the ACTs a real hammer
        // loop is built to force). Small tick quanta keep the ACT rate
        // dense enough to cross the threshold within one tREFW — a
        // hammer that paces itself slower than the refresh wheel is
        // harmless, and the model correctly shows that.
        let mut flip = false;
        for _ in 0..threshold + 16 {
            let a = if flip { hi } else { lo };
            flip = !flip;
            ch.enqueue_read(a).expect("single request always fits");
            while ch.drain_completions().is_empty() {
                ch.tick(32);
            }
        }
        let wear = ch.wear().unwrap();
        assert!(
            wear.window(0, 0, victim) >= threshold,
            "victim window {} never reached the DDR4 threshold {threshold}",
            wear.window(0, 0, victim)
        );
        assert!(ch.stats().hammer_alarms >= 1, "crossing must raise an alarm");
        assert!(ch.stats().refreshes > 0, "refresh was supposed to stay enabled");
        let snap = wear.snapshot();
        assert_eq!(snap.peak_victim, Some(crate::wear::RowId { rank: 0, bank: 0, row: victim }));
        assert_eq!(snap.total_acts, ch.stats().activations);
    }

    /// Feeds `ops` — `(slot, row pick, column, write, gap)` — into a
    /// channel: each op enqueues one line on one of five banks spread
    /// over two ranks and several bank groups (row 0 is hot: picks below
    /// 7 hit it, the rest conflict), then ticks `gap` cycles. Every
    /// scheduler invocation along the way runs `cross_check_scan`, so
    /// the indexed decision is compared against the linear reference
    /// scan throughout.
    fn drive_differential(
        cfg: ChannelConfig,
        ops: &[(usize, usize, usize, bool, u64)],
    ) -> DramChannel {
        let mut ch = DramChannel::new(cfg);
        let topo = ch.config().topology.clone();
        for &(slot, row_pick, col, write, gap) in ops {
            let row = if row_pick < 7 { 0 } else { row_pick };
            let addr =
                addr_of(&ch, slot % 2, (slot * 3) % topo.banks, row, col % topo.lines_per_row());
            let _ = if write { ch.enqueue_write(addr) } else { ch.enqueue_read(addr) };
            ch.tick(gap);
            ch.drain_completions();
        }
        ch.run_until_idle(10_000_000);
        assert!(ch.is_idle(), "differential traffic must drain");
        ch
    }

    const DIFF_STANDARDS: [DramStandard; 4] = [
        DramStandard::Ddr3_1600,
        DramStandard::Ddr4_2400,
        DramStandard::Lpddr4_3200,
        DramStandard::Hbm2,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The per-bank index makes exactly the linear scan's decision
        /// (and, when nothing issues, the same `best_retry`) at every
        /// scheduler invocation: random read/write lines on every
        /// standard, with and without refresh, under both policies.
        /// Dense traffic keeps the write queue crossing the drain
        /// watermarks and conflicting heads ageing behind row hits.
        #[test]
        fn indexed_decision_matches_linear_scan(
            std_pick in 0usize..4,
            refresh in any::<bool>(),
            policy_pick in 0u8..4,
            ops in proptest::collection::vec(
                (0usize..5, 0usize..12, 0usize..128, any::<bool>(), 0u64..24),
                1..400,
            ),
        ) {
            let mut cfg = DIFF_STANDARDS[std_pick].spec().main_channel();
            cfg.refresh_enabled = refresh;
            if policy_pick == 0 {
                cfg.scheduler = SchedulerPolicy::Fcfs;
            }
            drive_differential(cfg, &ops);
        }
    }

    /// One step of wake-differential traffic: `(op, slot, row pick,
    /// column, gap)`. Ops 0–5 enqueue a read, 6–8 a write (one line on
    /// one of five banks over two ranks, as in [`drive_differential`]),
    /// 9 pins rank `slot % 2` down and 10 wakes it; then the channels
    /// tick `gap` cycles.
    type WakeOp = (u8, usize, usize, usize, u64);

    /// Everything a channel did that another layer can observe: its
    /// command stream, completions, end cycle, statistics (scheduler
    /// invocations and queue walks excepted: cutting them is the point
    /// of the exact wake and the planned pass) and energy counters.
    type Observed =
        (Vec<crate::cmdlog::CmdRecord>, Vec<Completion>, Cycle, ChannelStats, EnergyCounters);

    fn run_wake_ops(cfg: ChannelConfig, ops: &[WakeOp], poll: bool) -> (Observed, u64) {
        let mut ch = DramChannel::new(cfg);
        ch.poll_every_cycle = poll;
        let log = CmdLog::enabled();
        ch.set_cmd_log(log.clone());
        let topo = ch.config().topology.clone();
        let mut done = Vec::new();
        for &(op, slot, row_pick, col, gap) in ops {
            let rank = slot % 2;
            let row = if row_pick < 7 { 0 } else { row_pick };
            let addr = addr_of(&ch, rank, (slot * 3) % topo.banks, row, col % topo.lines_per_row());
            match op {
                0..=5 => drop(ch.enqueue_read(addr)),
                6..=8 => drop(ch.enqueue_write(addr)),
                9 => ch.force_rank_down(rank),
                _ => ch.wake_rank(rank),
            }
            ch.tick(gap);
            ch.drain_completions_into(&mut done);
        }
        done.extend(ch.run_until_idle(10_000_000));
        assert!(ch.is_idle(), "wake-differential traffic must drain");
        // Idle tail: refresh and power-down edges with no work queued.
        ch.tick(3_000);
        let mut stats = ch.stats().clone();
        let invocations = std::mem::take(&mut stats.scheduler_invocations);
        stats.queue_walks = 0;
        let energy = ch.energy_counters();
        ((log.take(), done, ch.now(), stats, energy), invocations)
    }

    /// Asserts that the exact-wake channel behaves exactly like the
    /// poll-every-cycle reference on `ops`, and runs no more scheduler
    /// passes. Returns both pass counts.
    fn assert_wake_differential(cfg: ChannelConfig, ops: &[WakeOp]) -> (u64, u64) {
        let (exact, exact_passes) = run_wake_ops(cfg.clone(), ops, false);
        let (reference, reference_passes) = run_wake_ops(cfg, ops, true);
        if let Some(i) =
            (0..exact.0.len().min(reference.0.len())).find(|&i| exact.0[i] != reference.0[i])
        {
            panic!(
                "command streams diverge at #{i}: exact-wake {:?}, poll-every-cycle {:?}",
                exact.0[i], reference.0[i]
            );
        }
        assert_eq!(exact.0.len(), reference.0.len(), "command counts differ");
        assert_eq!(exact.1, reference.1, "completions differ");
        assert_eq!(exact.2, reference.2, "end cycles differ");
        assert_eq!(exact.3, reference.3, "statistics differ");
        assert_eq!(exact.4, reference.4, "energy counters differ");
        assert!(exact_passes <= reference_passes);
        (exact_passes, reference_passes)
    }

    fn wake_cfg(std_pick: usize, refresh: bool, idle: Option<u64>, fcfs: bool) -> ChannelConfig {
        let mut cfg = DIFF_STANDARDS[std_pick].spec().main_channel();
        cfg.refresh_enabled = refresh;
        if let Some(idle_cycles) = idle {
            cfg.power_policy = PowerPolicy::PowerDown { idle_cycles };
        }
        if fcfs {
            cfg.scheduler = SchedulerPolicy::Fcfs;
        }
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Exact wake-ups change nothing but the pass count: random
        /// reads and writes interleaved with rank pinning and waking,
        /// on every standard, refresh on and off, both power policies
        /// and both scheduler policies, issue the same commands at the
        /// same cycles as a scheduler run on every cycle.
        #[test]
        fn exact_wake_matches_poll_every_cycle(
            std_pick in 0usize..4,
            refresh in any::<bool>(),
            idle in 0u64..300,
            fcfs in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..11, 0usize..5, 0usize..12, 0usize..128, 0u64..24),
                1..400,
            ),
        ) {
            let idle = (idle > 0).then_some(idle);
            assert_wake_differential(wake_cfg(std_pick, refresh, idle, fcfs), &ops);
        }
    }

    #[test]
    fn exact_wake_matches_poll_every_cycle_under_saturating_traffic() {
        // Dense traffic on DDR4 with refresh and a short idle power-down
        // policy: the write queue crosses both drain watermarks, heads
        // age past the starvation limit, and one rank is pinned down and
        // woken throughout — while the exact wake runs far fewer passes.
        let mut state = 0x3a4e_u64;
        let ops: Vec<WakeOp> = (0..4_000)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (state >> 33) as usize;
                let op = match i % 97 {
                    0 => 9,
                    50 => 10,
                    _ => ((r >> 20) % 9) as u8,
                };
                (op, r % 5, (r >> 3) % 12, (r >> 7) % 128, u64::from(i % 3 == 0) * 8)
            })
            .collect();
        let (exact, reference) = assert_wake_differential(wake_cfg(1, true, Some(40), false), &ops);
        assert!(exact * 2 < reference, "exact wake ran {exact} passes, polling {reference}");
    }

    /// Runs the planned-wake scenario of
    /// [`enqueue_at_the_planned_wake_replans`]: two reads to idle banks
    /// (the second ACT waits tRRD, so an ACT is planned), a tick to
    /// exactly `wake` (or to the planned wake when `None`), then a row
    /// hit on a long-open bank enqueued there. Returns the wake used,
    /// the command stream and the completions.
    fn run_planned_wake_enqueue(
        poll: bool,
        wake: Option<Cycle>,
    ) -> (Cycle, Vec<crate::cmdlog::CmdRecord>, Vec<Completion>) {
        let mut ch = DramChannel::new(quiet_cfg());
        ch.poll_every_cycle = poll;
        let log = CmdLog::enabled();
        ch.set_cmd_log(log.clone());
        // Open row 0 of bank 0 and retire its read: the row stays open.
        ch.enqueue_read(addr_of(&ch, 0, 0, 0, 0)).unwrap();
        let mut done = ch.run_until_idle(10_000);
        ch.enqueue_read(addr_of(&ch, 0, 1, 0, 0)).unwrap();
        ch.enqueue_read(addr_of(&ch, 0, 2, 0, 0)).unwrap();
        ch.tick(1);
        let wake = wake.unwrap_or_else(|| {
            let (at, planned) = ch.planned.expect("the post-issue walk planned a pass");
            assert!(matches!(planned, Decision::Act { .. }), "planned {planned:?}");
            assert_eq!(at, ch.next_wake);
            at
        });
        // `tick` stops at `wake` without running the pass there.
        ch.tick(wake - ch.now());
        assert_eq!(ch.now(), wake);
        ch.enqueue_read(addr_of(&ch, 0, 0, 0, 1)).unwrap();
        done.extend(ch.run_until_idle(10_000));
        (wake, log.take(), done)
    }

    #[test]
    fn enqueue_at_the_planned_wake_replans() {
        // An enqueue on exactly the cycle of a planned pass is the one
        // case only the enqueue's invalidation guards: the plan (an ACT)
        // was made before the row hit existed, and the pass must issue
        // the hit's CAS first, as the poll-every-cycle reference does.
        let (wake, exact, exact_done) = run_planned_wake_enqueue(false, None);
        let (_, reference, reference_done) = run_planned_wake_enqueue(true, Some(wake));
        assert_eq!(exact, reference, "command streams differ");
        assert_eq!(exact_done, reference_done, "completions differ");
        assert!(
            exact.iter().any(|r| r.cycle == wake && r.cmd == DdrCmd::Rd { bank: 0, row: 0 }),
            "the row hit must CAS at the planned wake {wake}: {exact:?}"
        );
    }

    /// Runs `drive` on a channel built from `cfg` and on the
    /// poll-every-cycle reference, and asserts equal command streams and
    /// completions.
    fn assert_matches_poll(cfg: ChannelConfig, drive: impl Fn(&mut DramChannel)) {
        let run = |poll: bool| {
            let mut ch = DramChannel::new(cfg.clone());
            ch.poll_every_cycle = poll;
            let log = CmdLog::enabled();
            ch.set_cmd_log(log.clone());
            drive(&mut ch);
            let done = ch.run_until_idle(100_000);
            (log.take(), done)
        };
        let (exact, reference) = (run(false), run(true));
        assert_eq!(exact.0, reference.0, "command streams differ");
        assert_eq!(exact.1, reference.1, "completions differ");
    }

    #[test]
    fn cached_walk_is_dropped_when_a_refresh_falls_due() {
        // Bank 0 activates tRRD before rank 0's refresh falls due at
        // `R`, so the walk after it caches bank 1's ACT as ready at `R`.
        // The pass at `R` marks the refresh owed: the rank's idle banks
        // stop offering ACTs, bank 0's CAS and precharge still wait on
        // tRCD and tRAS, so nothing may issue. One rank: every rank
        // falls due together, and another rank's REF would drop the
        // cache first.
        let mut cfg = ChannelConfig::table2();
        cfg.topology.ranks = 1;
        assert_matches_poll(cfg, |ch| {
            let t = ch.config().timing.clone();
            let due = ch.ranks[0].next_refresh();
            ch.tick(due - t.t_rrd);
            ch.enqueue_read(addr_of(ch, 0, 0, 0, 0)).unwrap();
            ch.enqueue_read(addr_of(ch, 0, 1, 0, 0)).unwrap();
            ch.tick(1);
            let cached = ch.walked.map(|w| w.picks[ACT]);
            assert!(cached.flatten().is_some_and(|(at, _)| at == due), "{cached:?}");
        });
    }

    #[test]
    fn cached_walk_folds_an_enqueue_after_wake_rank() {
        // A read enqueued to a pinned-down rank marks its bank stale in
        // the cached walk; `wake_rank` on the same cycle moves the rank's
        // `ready_at` to `now + tXP`. The pass folds the bank in on the
        // woken state, so the ACT waits for tXP.
        assert_matches_poll(quiet_cfg(), |ch| {
            ch.force_rank_down(0);
            ch.tick(50);
            assert!(matches!(ch.rank_power_state(0), PowerState::PowerDown { .. }));
            ch.enqueue_read(addr_of(ch, 1, 0, 0, 0)).unwrap();
            ch.tick(1);
            assert!(ch.walked.is_some(), "the post-issue walk is cached");
            ch.enqueue_read(addr_of(ch, 0, 0, 0, 0)).unwrap();
            ch.wake_rank(0);
        });
    }

    #[test]
    fn indexed_decision_matches_linear_scan_past_the_starvation_limit() {
        // A saturating hot-row stream on DDR4 (bank groups, refresh on)
        // keeps conflicting heads waiting past the starvation limit and
        // the write queue in drain mode, so the anti-starvation head
        // check and drain hysteresis are both cross-checked.
        let mut state = 0x5eed_u64;
        let ops: Vec<_> = (0..3_000)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (state >> 33) as usize;
                (
                    r % 5,
                    (r >> 3) % 12,
                    (r >> 7) % 128,
                    (r >> 14) % 10 < 3,
                    u64::from(i % 4 == 0) * 8,
                )
            })
            .collect();
        let ch = drive_differential(DramStandard::Ddr4_2400.spec().main_channel(), &ops);
        assert!(ch.stats().read_latency_max > STARVATION_LIMIT, "no head aged past the limit");
        assert!(ch.stats().refreshes > 0 && ch.stats().row_conflicts > 0);
    }
}
