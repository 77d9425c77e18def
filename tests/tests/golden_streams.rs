//! Golden command-stream digests: the DRAM engine's *identity* fence.
//!
//! Every cell below runs a fixed workload with command capture attached
//! and reduces each channel's complete command stream to an FNV-1a
//! digest, next to the run's cycle and command counts. The committed
//! values pin the exact stream the scheduler issues: a performance
//! change to the engine (scheduler indexing, tick-loop shortcuts,
//! completion routing) must leave every line byte-identical. The replay
//! auditor checks that streams are *legal*; this checks that they are
//! *the same*.
//!
//! Cells cover every protocol family on every memory-standard family
//! (DDR3, DDR4 with bank groups, LPDDR4, HBM2), the low-power rank
//! layout (INDEP-2 and SPLIT-2 on DDR4, LPDDR4 and HBM2 as well), the
//! full-scale 24-level tree geometry, and two raw channels driven
//! directly: one DDR4 channel under heavy mixed traffic with refresh on
//! (write-drain hysteresis, over-age heads), and one running the FCFS
//! ablation policy.
//!
//! One more test pins the number of scheduler passes on three cells: a
//! wake-up made earlier than it needs to be leaves the streams alone but
//! runs more passes, so that count is fenced exactly as well.
//!
//! A change that deliberately alters the model (new timing, a different
//! policy) re-baselines by replacing the expected lines with the
//! `actual` block the failing test prints — after the replay auditor
//! has confirmed the new streams are legal.

use dram_sim::address::Coords;
use dram_sim::channel::DramChannel;
use dram_sim::cmdlog::{CmdLog, CmdRecord};
use dram_sim::config::{ChannelConfig, Cycle, SchedulerPolicy};
use dram_sim::spec::DramStandard;
use dram_sim::stats::ChannelStats;
use oram::types::OramConfig;
use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run_audited, RunResult};
use sdimm_telemetry::TraceSink;
use workloads::spec;

/// FNV-1a over the debug rendering of every command record.
fn digest(records: &[CmdRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for b in format!("{:?}|{}|{:?};", r.cycle, r.rank, r.cmd).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One cell's fingerprint line: cycles, total commands, per-channel
/// stream digests.
fn fingerprint(name: &str, cycles: Cycle, streams: &[Vec<CmdRecord>]) -> String {
    let cmds: usize = streams.iter().map(Vec::len).sum();
    let mut line = format!("{name} cycles={cycles} cmds={cmds}");
    for (i, s) in streams.iter().enumerate() {
        line.push_str(&format!(" ch{i}={:016x}", digest(s)));
    }
    line
}

/// Compares computed fingerprints against the committed ones, printing
/// the complete actual block on any mismatch so a declared model change
/// can re-baseline by copy-paste.
fn check(actual: &[String], expected: &[&str]) {
    let matches =
        actual.len() == expected.len() && actual.iter().zip(expected).all(|(a, e)| a == e);
    assert!(
        matches,
        "command streams diverged from the golden digests\nexpected:\n  {}\nactual:\n  {}",
        expected.join("\n  "),
        actual.join("\n  ")
    );
}

/// Runs one system cell through the audited runner (capture attached
/// from the first command) and fingerprints every channel.
fn system_cell(name: &str, cfg: &SystemConfig, workload: &str, records: usize) -> String {
    system_run(name, cfg, workload, records).0
}

/// [`system_cell`] with the run's result.
fn system_run(
    name: &str,
    cfg: &SystemConfig,
    workload: &str,
    records: usize,
) -> (String, RunResult) {
    let warmup = records / 3;
    let trace = spec::generate(workload, records + warmup, 3);
    let (result, capture) = run_audited(cfg, &trace, warmup, records, TraceSink::disabled(), 0);
    (fingerprint(name, result.cycles, &capture.streams), result)
}

/// The full-scale tree (24 levels, 7 cached, 2^19 data blocks) the
/// paper-scale figures run.
fn full_tree(kind: MachineKind) -> SystemConfig {
    SystemConfig {
        oram: OramConfig { levels: 24, cached_levels: 7, ..OramConfig::default() },
        data_blocks: 1 << 19,
        ..SystemConfig::small(kind)
    }
}

/// The five protocol families on one memory standard.
fn protocol_cells(standard: DramStandard) -> Vec<String> {
    let kinds = [
        ("nonsecure-1ch", MachineKind::NonSecure { channels: 1 }),
        ("freecursive-1ch", MachineKind::Freecursive { channels: 1 }),
        ("indep-2", MachineKind::Independent { sdimms: 2, channels: 1 }),
        ("split-2", MachineKind::Split { ways: 2, channels: 1 }),
        ("indep-split", MachineKind::IndepSplit { groups: 2, ways: 2, channels: 1 }),
    ];
    kinds
        .iter()
        .map(|&(name, kind)| {
            let cfg = SystemConfig { standard, ..SystemConfig::small(kind) };
            system_cell(&format!("{}/{name}", standard.name()), &cfg, "milc-like", 400)
        })
        .collect()
}

/// Drives a bare channel with a seeded mix of reads and writes over a
/// few banks: mostly two hot rows per bank (row hits the FR-FCFS scan
/// reorders around) plus scattered rows (row conflicts), injected faster
/// than the channel drains. The queues stay deep, the write queue
/// crosses the drain watermark, and conflicting heads bypassed by row
/// hits age past the starvation limit.
fn raw_channel_cell(name: &str, cfg: ChannelConfig, seed: u64) -> (String, ChannelStats) {
    let mut ch = DramChannel::new(cfg);
    let log = CmdLog::enabled();
    ch.set_cmd_log(log.clone());
    let topo = ch.config().topology.clone();
    let mut state = seed;
    let mut next = move || {
        // xorshift64*: deterministic and dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for _ in 0..1_500 {
        for _ in 0..12 {
            let r = next();
            let slot = (r % 3) as usize;
            let row = if (r >> 8) % 10 < 9 { 0 } else { 1 + ((r >> 12) % 500) as usize };
            let coords = Coords {
                rank: slot % topo.ranks,
                bank: (slot * 5) % topo.banks,
                row,
                col: ((r >> 24) as usize) % topo.lines_per_row(),
            };
            let addr = ch.mapper().encode(coords);
            if (r >> 40) % 10 < 3 {
                let _ = ch.enqueue_write(addr);
            } else {
                let _ = ch.enqueue_read(addr);
            }
        }
        ch.tick(20 + next() % 40);
        ch.drain_completions();
    }
    ch.run_until_idle(10_000_000);
    (fingerprint(name, ch.now(), &[log.take()]), ch.stats().clone())
}

#[test]
fn ddr3_1600_protocol_streams_match_golden() {
    check(
        &protocol_cells(DramStandard::Ddr3_1600),
        &[
            "ddr3_1600/nonsecure-1ch cycles=18128 cmds=888 ch0=f1f108e8c0003fe9",
            "ddr3_1600/freecursive-1ch cycles=387568 cmds=93906 ch0=4b768ea03ad08c9d",
            "ddr3_1600/indep-2 cycles=253120 cmds=94704 ch0=5b7163b0c1414c4a ch1=6203d9c0cd1618be",
            "ddr3_1600/split-2 cycles=265328 cmds=101851 ch0=7f7bfb20df44bf84 ch1=e398afd89a9d960f",
            "ddr3_1600/indep-split cycles=160448 cmds=101452 ch0=b73386e7e1938649 ch1=0ae5c2ba641d864e ch2=68b69d8ba17bf240 ch3=d6278ec1f7b23d37",
        ],
    );
}

#[test]
fn ddr4_2400_protocol_streams_match_golden() {
    check(
        &protocol_cells(DramStandard::Ddr4_2400),
        &[
            "ddr4_2400/nonsecure-1ch cycles=18304 cmds=818 ch0=9c6234ffc602ed56",
            "ddr4_2400/freecursive-1ch cycles=530592 cmds=93503 ch0=9e67a5d4ed239847",
            "ddr4_2400/indep-2 cycles=332720 cmds=94115 ch0=43d4c5424c255e02 ch1=43aee99d3f9105e1",
            "ddr4_2400/split-2 cycles=322240 cmds=100001 ch0=1e94e8688ffc6099 ch1=e6d8f376aaee163f",
            "ddr4_2400/indep-split cycles=194880 cmds=99520 ch0=60400fb1d9f9d466 ch1=979b8fb26ba5f8ae ch2=7bfd1eaef28b8db8 ch3=7903b8bb7acc113c",
        ],
    );
}

#[test]
fn lpddr4_3200_protocol_streams_match_golden() {
    check(
        &protocol_cells(DramStandard::Lpddr4_3200),
        &[
            "lpddr4_3200/nonsecure-1ch cycles=20016 cmds=1030 ch0=b2873fac67f97039",
            "lpddr4_3200/freecursive-1ch cycles=783552 cmds=97350 ch0=959ebf9b5e129984",
            "lpddr4_3200/indep-2 cycles=508688 cmds=98358 ch0=434c2dfcd661f25e ch1=199da4f5d8c864fa",
            "lpddr4_3200/split-2 cycles=522496 cmds=108176 ch0=8f9d419d296938b8 ch1=b516cc9937e8e3bf",
            "lpddr4_3200/indep-split cycles=308656 cmds=108293 ch0=b2a0d724ca78b136 ch1=acb0a0f498e6bc0e ch2=bf3e6b0f67605391 ch3=c7d4a7f808a94056",
        ],
    );
}

#[test]
fn hbm2_protocol_streams_match_golden() {
    check(
        &protocol_cells(DramStandard::Hbm2),
        &[
            "hbm2/nonsecure-1ch cycles=18624 cmds=1063 ch0=83a963444baa25be",
            "hbm2/freecursive-1ch cycles=338880 cmds=100355 ch0=cb5c3582b8c7d086",
            "hbm2/indep-2 cycles=210320 cmds=101905 ch0=b819946f0d0936ce ch1=c4cdcdced239c9e4",
            "hbm2/split-2 cycles=243664 cmds=114101 ch0=e224f0f359209c73 ch1=e1e6a8ce6e09f0d1",
            "hbm2/indep-split cycles=149536 cmds=115098 ch0=271dac18b965b77a ch1=9b3cc5d9adb843fe ch2=0871601fd7ba3858 ch3=4403e163d410a306",
        ],
    );
}

#[test]
fn low_power_layout_streams_match_golden() {
    let cfg = SystemConfig {
        low_power: true,
        ..SystemConfig::small(MachineKind::Independent { sdimms: 2, channels: 1 })
    };
    check(
        &[system_cell("lowpower/indep-2", &cfg, "milc-like", 400)],
        &["lowpower/indep-2 cycles=261680 cmds=106906 ch0=71c401727fcd3226 ch1=25f104d489972f7e"],
    );
}

/// INDEP-2 and SPLIT-2 with the low-power rank layout on one standard:
/// the `standards-lowpower` benchmark shapes, where every rank but the
/// active one is pinned in power-down.
fn low_power_cells(standard: DramStandard) -> Vec<String> {
    [
        ("indep-2", MachineKind::Independent { sdimms: 2, channels: 1 }),
        ("split-2", MachineKind::Split { ways: 2, channels: 1 }),
    ]
    .iter()
    .map(|&(name, kind)| {
        let cfg = SystemConfig { standard, low_power: true, ..SystemConfig::small(kind) };
        system_cell(&format!("lowpower/{}/{name}", standard.name()), &cfg, "milc-like", 400)
    })
    .collect()
}

#[test]
fn ddr4_2400_low_power_streams_match_golden() {
    check(
        &low_power_cells(DramStandard::Ddr4_2400),
        &[
            "lowpower/ddr4_2400/indep-2 cycles=331136 cmds=105675 ch0=73d2c49274ba95db ch1=4253c5b89b6fbccf",
            "lowpower/ddr4_2400/split-2 cycles=325760 cmds=126907 ch0=78c0ab6e78b50096 ch1=a6f1b8ff39d8bb3f",
        ],
    );
}

#[test]
fn lpddr4_3200_low_power_streams_match_golden() {
    check(
        &low_power_cells(DramStandard::Lpddr4_3200),
        &[
            "lowpower/lpddr4_3200/indep-2 cycles=514544 cmds=111484 ch0=03c9a2eb340262fd ch1=b01db3ff8ca7a3d6",
            "lowpower/lpddr4_3200/split-2 cycles=544352 cmds=143587 ch0=8bcab354e92cd61f ch1=7c8e2b2a18f11cda",
        ],
    );
}

#[test]
fn hbm2_low_power_streams_match_golden() {
    check(
        &low_power_cells(DramStandard::Hbm2),
        &[
            "lowpower/hbm2/indep-2 cycles=209440 cmds=118174 ch0=3111bad903b009f2 ch1=c0c84324b3d4658e",
            "lowpower/hbm2/split-2 cycles=252576 cmds=156815 ch0=97b0cdd5da5b604e ch1=b8b6072f322bf9dd",
        ],
    );
}

#[test]
fn full_tree_geometry_streams_match_golden() {
    // The full-scale tree (24 levels, 7 cached, 2^19 data blocks) the
    // paper-scale figures run, on a short window.
    let actual: Vec<String> = [
        ("full/nonsecure-1ch", MachineKind::NonSecure { channels: 1 }),
        ("full/freecursive-1ch", MachineKind::Freecursive { channels: 1 }),
    ]
    .iter()
    .map(|&(name, kind)| system_cell(name, &full_tree(kind), "libquantum-like", 300))
    .collect();
    check(
        &actual,
        &[
            "full/nonsecure-1ch cycles=8832 cmds=439 ch0=f4306a4092ce1df6",
            "full/freecursive-1ch cycles=380352 cmds=94047 ch0=f5b5978a2770d6e6",
        ],
    );
}

#[test]
fn refresh_enabled_raw_channel_stream_matches_golden() {
    let cfg = ChannelConfig::table2_for(DramStandard::Ddr4_2400);
    assert!(cfg.refresh_enabled);
    let (line, stats) = raw_channel_cell("raw/ddr4-frfcfs-refresh", cfg, 0x5eed_0001);
    // The cell must reach the scheduler paths it is meant to pin.
    assert!(stats.refreshes > 0 && stats.row_conflicts > 0);
    assert!(stats.read_latency_max > 2_000, "no read outlived the starvation limit");
    check(&[line], &["raw/ddr4-frfcfs-refresh cycles=69836 cmds=11731 ch0=c13c2c9cd193a35f"]);
}

#[test]
fn fcfs_raw_channel_stream_matches_golden() {
    let mut cfg = ChannelConfig::table2();
    cfg.scheduler = SchedulerPolicy::Fcfs;
    check(
        &[raw_channel_cell("raw/ddr3-fcfs", cfg, 0x5eed_0002).0],
        &["raw/ddr3-fcfs cycles=69432 cmds=7479 ch0=b7278311fd524212"],
    );
}

/// Scheduler passes per channel in a run's measured window.
fn passes(result: &RunResult, channels: usize) -> Vec<u64> {
    (0..channels)
        .map(|ch| result.metrics.counter(&format!("dram.chan{ch}.scheduler_invocations")))
        .collect()
}

#[test]
fn scheduler_pass_counts_match_golden() {
    // The work-counter fence: the exact number of scheduler passes in
    // the measured window of three cells whose streams are pinned (the
    // 2-channel full tree's here, beside its count). Pass counts are
    // deterministic, so a wake-up regression fails this on any host.
    let lowpower = SystemConfig {
        standard: DramStandard::Lpddr4_3200,
        low_power: true,
        ..SystemConfig::small(MachineKind::Split { ways: 2, channels: 1 })
    };
    let (_, lowpower) = system_run("", &lowpower, "milc-like", 400);
    let freecursive = full_tree(MachineKind::Freecursive { channels: 2 });
    let (stream, freecursive) =
        system_run("full/freecursive-2ch", &freecursive, "libquantum-like", 300);
    let cfg = ChannelConfig::table2_for(DramStandard::Ddr4_2400);
    let (_, raw) = raw_channel_cell("", cfg, 0x5eed_0001);
    check(
        &[
            format!("lowpower/lpddr4_3200/split-2 passes={:?}", passes(&lowpower, 2)),
            format!("full/freecursive-2ch passes={:?}", passes(&freecursive, 2)),
            stream,
            format!("raw/ddr4-frfcfs-refresh passes={}", raw.scheduler_invocations),
        ],
        &[
            "lowpower/lpddr4_3200/split-2 passes=[72170, 70744]",
            "full/freecursive-2ch passes=[50092, 49718]",
            "full/freecursive-2ch cycles=206624 cmds=98812 ch0=24c46ec4349b51d4 ch1=44f3e2126a64bac4",
            "raw/ddr4-frfcfs-refresh passes=13061",
        ],
    );
}
