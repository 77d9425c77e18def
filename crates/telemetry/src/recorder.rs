//! Flight recorder: an always-on bounded ring of recent structured
//! events, dumped as a "black box" report when something goes wrong.
//!
//! The figure matrices replay millions of DDR commands per cell; when a
//! run aborts 3M commands in (an `audit-strict` violation, a stash-bound
//! breach, a panic), end-of-run aggregates say nothing about *what was
//! happening right then*. A [`FlightRecorder`] keeps the last few
//! thousand structured events — DDR commands, ORAM phase completions,
//! stash occupancy ticks, backend scheduling decisions — in a fixed-size
//! ring, and on demand renders them as both a human-readable black-box
//! report and a Chrome trace slice loadable next to the main trace.
//!
//! Like [`crate::trace::TraceSink`], the disabled recorder is a `None`
//! handle: every record call is a single branch, so the instrumentation
//! stays compiled in unconditionally. Unlike `TraceSink`, events are
//! small `Copy` structs — recording never allocates, which is what makes
//! an *always-on* ring affordable (<5% on the enabled path, gated by the
//! `telemetry_overhead` bench).
//!
//! Timestamps are simulated cycles. Layers that have no clock of their
//! own (the stash, the DRAM command log tap) read the recorder's shared
//! cycle register, which the executor refreshes every tick via
//! [`FlightRecorder::set_clock`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::escape;

/// DDR command mnemonic carried by a [`FlightEventKind::DdrCmd`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdrCmdKind {
    /// Row activate.
    Act,
    /// Precharge.
    Pre,
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// Refresh.
    Refresh,
    /// Rank power-down entry.
    PowerDown,
    /// Rank power-up (wake).
    PowerUp,
}

impl DdrCmdKind {
    /// Short fixed-width mnemonic used in black-box reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            DdrCmdKind::Act => "ACT",
            DdrCmdKind::Pre => "PRE",
            DdrCmdKind::Rd => "RD",
            DdrCmdKind::Wr => "WR",
            DdrCmdKind::Refresh => "REF",
            DdrCmdKind::PowerDown => "PDN",
            DdrCmdKind::PowerUp => "PUP",
        }
    }
}

/// Backend-arbiter decision carried by [`FlightEventKind::Backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendDecision {
    /// The request wants the shared ORAM backend but it is busy.
    Wait,
    /// The request acquired the shared ORAM backend.
    Acquire,
    /// The request released the shared ORAM backend.
    Release,
}

impl BackendDecision {
    /// Lowercase verb used in black-box reports.
    pub fn verb(self) -> &'static str {
        match self {
            BackendDecision::Wait => "wait",
            BackendDecision::Acquire => "acquire",
            BackendDecision::Release => "release",
        }
    }
}

/// One structured flight-recorder event. All variants are `Copy` and
/// allocation-free so the enabled record path stays cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A DDR command issued on a channel (tapped from the cmdlog stream).
    DdrCmd {
        /// Channel index.
        channel: u8,
        /// Rank within the channel.
        rank: u8,
        /// Bank within the rank (0 for rank-level commands).
        bank: u8,
        /// Row for `Act` commands (0 otherwise).
        row: u32,
        /// Command mnemonic.
        kind: DdrCmdKind,
    },
    /// An ORAM access phase completed on the executor.
    Phase {
        /// Request id (executor-assigned, monotone).
        request: u64,
        /// Zero-based phase index within the request's chain.
        phase: u32,
        /// Cycle the phase started.
        started: u64,
    },
    /// Stash occupancy after an insert (one tick per block stashed).
    StashTick {
        /// Backend index (0 for single-backend machines).
        backend: u8,
        /// Stash occupancy in blocks, after the insert.
        occupancy: u32,
    },
    /// A scheduler decision on the shared ORAM backend.
    Backend {
        /// Request id contending for the backend.
        request: u64,
        /// What the arbiter decided.
        decision: BackendDecision,
    },
    /// A free-form marker (run boundaries, dump reasons).
    Marker {
        /// Static label; markers never format strings on the hot path.
        tag: &'static str,
    },
    /// A victim row's disturbance window crossed the standard's
    /// RowHammer threshold (raised by the wear tracker, once per
    /// victim per refresh window).
    HammerAlarm {
        /// Channel index.
        channel: u8,
        /// Rank holding the victim row.
        rank: u8,
        /// Bank holding the victim row.
        bank: u8,
        /// The victim row (the neighbor of the hammered row).
        row: u32,
        /// Window count at the crossing (== the standard's threshold).
        window: u32,
    },
}

/// A timestamped flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated cycle the event was recorded at.
    pub ts: u64,
    /// Structured payload.
    pub kind: FlightEventKind,
}

impl FlightEvent {
    /// One-line human-readable rendering used by black-box reports.
    pub fn describe(&self) -> String {
        match self.kind {
            FlightEventKind::DdrCmd { channel, rank, bank, row, kind } => match kind {
                DdrCmdKind::Act => format!(
                    "ddr  ch{channel} rank{rank} {:<3} bank{bank} row 0x{row:05x}",
                    kind.mnemonic()
                ),
                DdrCmdKind::Rd | DdrCmdKind::Wr | DdrCmdKind::Pre => {
                    format!("ddr  ch{channel} rank{rank} {:<3} bank{bank}", kind.mnemonic())
                }
                _ => format!("ddr  ch{channel} rank{rank} {:<3}", kind.mnemonic()),
            },
            FlightEventKind::Phase { request, phase, started } => format!(
                "exec req#{request} phase {phase} complete (started cycle {started}, +{} cycles)",
                self.ts.saturating_sub(started)
            ),
            FlightEventKind::StashTick { backend, occupancy } => {
                format!("oram backend{backend} stash occupancy {occupancy}")
            }
            FlightEventKind::Backend { request, decision } => {
                format!("sched req#{request} backend {}", decision.verb())
            }
            FlightEventKind::Marker { tag } => format!("mark {tag}"),
            FlightEventKind::HammerAlarm { channel, rank, bank, row, window } => format!(
                "wear ch{channel} rank{rank} bank{bank} row 0x{row:05x} \
                 disturbance window {window} crossed hammer threshold"
            ),
        }
    }

    /// Short event name for the Chrome trace slice.
    fn trace_name(&self) -> String {
        match self.kind {
            FlightEventKind::DdrCmd { bank, kind, .. } => match kind {
                DdrCmdKind::Refresh | DdrCmdKind::PowerDown | DdrCmdKind::PowerUp => {
                    kind.mnemonic().to_string()
                }
                _ => format!("{} b{bank}", kind.mnemonic()),
            },
            FlightEventKind::Phase { phase, .. } => format!("phase {phase}"),
            FlightEventKind::StashTick { occupancy, .. } => format!("stash {occupancy}"),
            FlightEventKind::Backend { decision, .. } => format!("backend {}", decision.verb()),
            FlightEventKind::Marker { tag } => tag.to_string(),
            FlightEventKind::HammerAlarm { row, .. } => format!("hammer 0x{row:05x}"),
        }
    }

    /// Track id for the Chrome trace slice: DDR events per channel,
    /// then one lane each for phases, stash ticks, scheduling, markers,
    /// and hammer alarms.
    fn trace_tid(&self) -> u32 {
        match self.kind {
            FlightEventKind::DdrCmd { channel, .. } => u32::from(channel),
            FlightEventKind::Phase { .. } => 32,
            FlightEventKind::StashTick { .. } => 33,
            FlightEventKind::Backend { .. } => 34,
            FlightEventKind::Marker { .. } => 35,
            FlightEventKind::HammerAlarm { .. } => 36,
        }
    }
}

/// Fixed-size event storage. Overwrites the oldest event once full and
/// counts the overwrites.
#[derive(Debug)]
struct FlightRing {
    events: Vec<FlightEvent>,
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl FlightRing {
    fn push(&mut self, e: FlightEvent) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Buffered events, oldest first.
    fn ordered(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

#[derive(Debug)]
struct RecInner {
    ring: Mutex<FlightRing>,
    /// Shared cycle register: refreshed by the executor each tick so
    /// clock-less layers (stash, cmdlog tap) can timestamp events.
    clock: AtomicU64,
    /// Dump latch: ensures one triggering condition produces one dump.
    dumped: AtomicBool,
}

/// Default ring capacity: deep enough to hold several full ORAM
/// accesses' worth of DDR commands around a fault, small enough that a
/// per-cell recorder costs ~100 KiB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Cheaply clonable handle to a bounded ring of recent flight events.
///
/// `FlightRecorder::disabled()` records nothing and costs one branch
/// per call; see the module docs for the full contract.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder(Option<Arc<RecInner>>);

impl FlightRecorder {
    /// A recorder with the [`DEFAULT_FLIGHT_CAPACITY`] ring.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder(Some(Arc::new(RecInner {
            ring: Mutex::new(FlightRing {
                events: Vec::new(),
                head: 0,
                capacity: capacity.max(1),
                dropped: 0,
            }),
            clock: AtomicU64::new(0),
            dumped: AtomicBool::new(false),
        })))
    }

    /// The no-op recorder: records nothing, single branch per call.
    pub fn disabled() -> Self {
        FlightRecorder(None)
    }

    /// True when events are actually being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Publishes the current simulated cycle so clock-less layers can
    /// timestamp events. Called by the executor once per tick batch.
    #[inline]
    pub fn set_clock(&self, cycle: u64) {
        if let Some(inner) = &self.0 {
            inner.clock.store(cycle, Ordering::Relaxed);
        }
    }

    /// The most recently published simulated cycle (0 when disabled).
    #[inline]
    pub fn clock(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.clock.load(Ordering::Relaxed))
    }

    /// Records `kind` at an explicit cycle.
    #[inline]
    pub fn record_at(&self, ts: u64, kind: FlightEventKind) {
        if let Some(inner) = &self.0 {
            // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
            inner.ring.lock().unwrap().push(FlightEvent { ts, kind });
        }
    }

    /// Records `kind` at the shared clock's current cycle.
    #[inline]
    pub fn record(&self, kind: FlightEventKind) {
        if let Some(inner) = &self.0 {
            let ts = inner.clock.load(Ordering::Relaxed);
            // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
            inner.ring.lock().unwrap().push(FlightEvent { ts, kind });
        }
    }

    /// Number of events currently buffered (0 for a disabled recorder).
    pub fn len(&self) -> usize {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or(0, |inner| inner.ring.lock().unwrap().events.len())
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or(0, |inner| inner.ring.lock().unwrap().dropped)
    }

    /// Buffered events oldest-first. Empty for a disabled recorder.
    pub fn events(&self) -> Vec<FlightEvent> {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or_else(Vec::new, |inner| inner.ring.lock().unwrap().ordered())
    }

    /// Latches the dump flag. Returns `true` exactly once per recorder,
    /// so a cascade of triggering conditions (breach → panic hook)
    /// yields a single dump.
    pub fn arm_dump(&self) -> bool {
        self.0.as_ref().is_some_and(|inner| !inner.dumped.swap(true, Ordering::SeqCst))
    }

    /// Renders the ring as a human-readable black-box report, oldest
    /// event first, in the actual-vs-expected style of `crates/audit`
    /// diagnostics. `None` for a disabled recorder.
    pub fn blackbox_report(&self, reason: &str) -> Option<String> {
        self.0.as_ref()?;
        let events = self.events();
        let mut out = String::new();
        out.push_str("=== SDIMM flight recorder · black box ===\n");
        out.push_str(&format!("reason   : {reason}\n"));
        out.push_str(&format!(
            "captured : {} events ({} older events overwritten)\n",
            events.len(),
            self.dropped()
        ));
        out.push_str(&format!("clock    : cycle {}\n\n", self.clock()));
        for e in &events {
            out.push_str(&format!("  cycle {:>12}  {}\n", e.ts, e.describe()));
        }
        out.push_str("=== end of black box ===\n");
        Some(out)
    }

    /// Renders the ring as a Chrome trace-event JSON slice (instant
    /// events on per-source tracks under process `pid`), loadable in
    /// Perfetto next to the main `TraceSink` export. `None` for a
    /// disabled recorder.
    pub fn chrome_slice_json(&self, reason: &str, pid: u32) -> Option<String> {
        self.0.as_ref()?;
        let events = self.events();
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(&format!(
            "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {pid}, \
             \"args\": {{\"name\": \"flight recorder: {}\"}}}}",
            escape(reason)
        ));
        for e in &events {
            out.push_str(",\n");
            out.push_str(&format!(
                "{{\"ph\": \"i\", \"name\": \"{}\", \"cat\": \"flight\", \"ts\": {}, \
                 \"pid\": {pid}, \"tid\": {}, \"s\": \"t\"}}",
                escape(&e.trace_name()),
                e.ts,
                e.trace_tid()
            ));
        }
        out.push_str(&format!(
            "\n], \"displayTimeUnit\": \"ns\", \"droppedEventCount\": {}}}\n",
            self.dropped()
        ));
        Some(out)
    }

    /// Writes the black-box report and Chrome slice next to `prefix`
    /// (`<prefix>.blackbox.txt` / `<prefix>.trace.json`), each via a
    /// temp-file-then-rename so an interrupted dump never leaves a
    /// truncated file. Returns the two paths written. `None` for a
    /// disabled recorder; `Err` on I/O failure.
    pub fn dump_to_files(
        &self,
        prefix: &str,
        reason: &str,
        pid: u32,
    ) -> Option<std::io::Result<(String, String)>> {
        let report = self.blackbox_report(reason)?;
        let slice = self.chrome_slice_json(reason, pid)?;
        let txt_path = format!("{prefix}.blackbox.txt");
        let json_path = format!("{prefix}.trace.json");
        let write = || -> std::io::Result<()> {
            write_atomic(&txt_path, &report)?;
            write_atomic(&json_path, &slice)
        };
        Some(write().map(|()| (txt_path, json_path)))
    }
}

/// Writes `contents` to `path` via a sibling temp file and an atomic
/// rename, so readers never observe a truncated file. Missing parent
/// directories are created first.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[derive(Debug)]
struct HubInner {
    capacity: usize,
    prefix: String,
    recorders: Mutex<Vec<(u32, FlightRecorder)>>,
}

/// Registry of per-cell flight recorders for a matrix run.
///
/// Each matrix cell simulates on its own worker thread with its own
/// clock, so cells get their own recorder (keyed by the cell's trace
/// `pid`) rather than interleaving into one ring. The hub hands out
/// recorders and dumps every live ring at once when a panic hook or
/// strict-audit abort fires.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorderHub(Option<Arc<HubInner>>);

impl FlightRecorderHub {
    /// A hub whose recorders dump to `<prefix>-pid<N>.*` files and hold
    /// `capacity` events each.
    pub fn enabled(prefix: &str, capacity: usize) -> Self {
        FlightRecorderHub(Some(Arc::new(HubInner {
            capacity: capacity.max(1),
            prefix: prefix.to_string(),
            recorders: Mutex::new(Vec::new()),
        })))
    }

    /// The no-op hub: hands out disabled recorders.
    pub fn disabled() -> Self {
        FlightRecorderHub(None)
    }

    /// True when the hub hands out recording recorders.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The dump-path prefix ("" when disabled).
    pub fn prefix(&self) -> &str {
        self.0.as_ref().map_or("", |inner| inner.prefix.as_str())
    }

    /// The recorder for cell `pid`, creating it on first use. Returns a
    /// disabled recorder when the hub is disabled.
    pub fn recorder_for(&self, pid: u32) -> FlightRecorder {
        let Some(inner) = &self.0 else {
            return FlightRecorder::disabled();
        };
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        let mut recorders = inner.recorders.lock().unwrap();
        if let Some((_, rec)) = recorders.iter().find(|(p, _)| *p == pid) {
            return rec.clone();
        }
        let rec = FlightRecorder::with_capacity(inner.capacity);
        recorders.push((pid, rec.clone()));
        rec
    }

    /// Snapshot of `(pid, recorder)` pairs registered so far.
    pub fn recorders(&self) -> Vec<(u32, FlightRecorder)> {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or_else(Vec::new, |inner| inner.recorders.lock().unwrap().clone())
    }

    /// Dumps every registered recorder that has not already dumped.
    /// Returns the paths written; I/O errors are reported inline in the
    /// returned list rather than aborting the remaining dumps (the hub
    /// runs inside panic hooks, where propagating is not an option).
    pub fn dump_all(&self, reason: &str) -> Vec<String> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let mut written = Vec::new();
        for (pid, rec) in self.recorders() {
            if !rec.arm_dump() {
                continue;
            }
            let prefix = format!("{}-pid{pid}", inner.prefix);
            match rec.dump_to_files(&prefix, reason, pid) {
                Some(Ok((txt, json))) => {
                    written.push(txt);
                    written.push(json);
                }
                Some(Err(e)) => written.push(format!("<write failed for {prefix}: {e}>")),
                None => {}
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr(ch: u8, kind: DdrCmdKind) -> FlightEventKind {
        FlightEventKind::DdrCmd { channel: ch, rank: 0, bank: 3, row: 0x1a2, kind }
    }

    #[test]
    fn write_atomic_creates_missing_parent_directories() {
        // Report writers run from any directory: a fresh checkout has no
        // `target/`, and the report must still land.
        let root = std::env::temp_dir().join(format!("sdimm-write-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("nested/deeper/report.json");
        let path = path.to_str().expect("temp path is UTF-8");
        write_atomic(path, "{}").expect("parent directories are created");
        assert_eq!(std::fs::read_to_string(path).expect("report written"), "{}");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists(), "temp file renamed away");
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.set_clock(10);
        r.record(ddr(0, DdrCmdKind::Act));
        r.record_at(5, FlightEventKind::Marker { tag: "x" });
        assert!(r.is_empty());
        assert_eq!(r.clock(), 0);
        assert_eq!(r.blackbox_report("r"), None);
        assert_eq!(r.chrome_slice_json("r", 0), None);
        assert!(!r.arm_dump());
    }

    #[test]
    fn ring_wraps_and_dump_is_oldest_first_with_monotonic_timestamps() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            r.set_clock(i * 10);
            r.record(ddr((i % 2) as u8, DdrCmdKind::Act));
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.dropped(), 12);
        let events = r.events();
        // Oldest surviving event first (cycle 120), newest last (190).
        assert_eq!(events.first().unwrap().ts, 120);
        assert_eq!(events.last().unwrap().ts, 190);
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts), "dump must be time-ordered");

        let report = r.blackbox_report("[tRCD] cycle 190 rank 0: test").unwrap();
        assert!(report.contains("8 events (12 older events overwritten)"));
        let oldest = report.find("120  ddr").unwrap();
        let newest = report.find("190  ddr").unwrap();
        assert!(oldest < newest);
        assert!(!report.contains("110  ddr"), "evicted events must not appear");
    }

    #[test]
    fn clock_register_timestamps_clockless_events() {
        let r = FlightRecorder::enabled();
        r.set_clock(777);
        r.record(FlightEventKind::StashTick { backend: 1, occupancy: 42 });
        let events = r.events();
        assert_eq!(events[0].ts, 777);
        assert_eq!(r.clock(), 777);
    }

    #[test]
    fn chrome_slice_is_valid_json() {
        let r = FlightRecorder::enabled();
        r.set_clock(5);
        r.record(ddr(1, DdrCmdKind::Rd));
        r.record(FlightEventKind::Phase { request: 3, phase: 2, started: 1 });
        r.record(FlightEventKind::Backend { request: 3, decision: BackendDecision::Acquire });
        let json = r.chrome_slice_json("stash bound breached", 9).unwrap();
        crate::json::validate(&json).expect("flight slice must be valid JSON");
        assert!(json.contains("flight recorder: stash bound breached"));
        assert!(json.contains("\"pid\": 9"));
    }

    #[test]
    fn arm_dump_latches_once() {
        let r = FlightRecorder::enabled();
        assert!(r.arm_dump());
        assert!(!r.arm_dump());
    }

    #[test]
    fn hub_hands_out_one_recorder_per_pid() {
        let hub = FlightRecorderHub::enabled("/tmp/fr-test", 16);
        let a = hub.recorder_for(1);
        let b = hub.recorder_for(1);
        a.record_at(1, FlightEventKind::Marker { tag: "shared" });
        assert_eq!(b.len(), 1, "same pid must share a ring");
        let c = hub.recorder_for(2);
        assert!(c.is_empty(), "different pid gets its own ring");
        assert_eq!(hub.recorders().len(), 2);
    }

    #[test]
    fn disabled_hub_hands_out_disabled_recorders() {
        let hub = FlightRecorderHub::disabled();
        assert!(!hub.recorder_for(0).is_enabled());
        assert!(hub.dump_all("r").is_empty());
        assert_eq!(hub.prefix(), "");
    }

    #[test]
    fn describe_mentions_the_command_fields() {
        let e = FlightEvent { ts: 10, kind: ddr(2, DdrCmdKind::Act) };
        let d = e.describe();
        assert!(d.contains("ch2") && d.contains("ACT") && d.contains("bank3"));
        assert!(d.contains("0x001a2"));
    }

    #[test]
    fn hammer_alarms_name_the_victim_and_get_their_own_lane() {
        let e = FlightEvent {
            ts: 99,
            kind: FlightEventKind::HammerAlarm {
                channel: 1,
                rank: 2,
                bank: 3,
                row: 0x40,
                window: 50_000,
            },
        };
        let d = e.describe();
        assert!(d.contains("ch1") && d.contains("rank2") && d.contains("bank3"), "{d}");
        assert!(d.contains("0x00040") && d.contains("50000"), "{d}");
        assert_eq!(e.trace_tid(), 36, "alarms must not share the marker lane");
    }
}
