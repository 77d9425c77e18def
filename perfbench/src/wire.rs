//! The `wire-sealed` workload: `sdimm::buffer::WireSystem` over four
//! SDIMMs, every message sealed in transit and every bucket sealed at
//! rest. One closed-loop client issues the next access when the previous
//! one returns; every read is checked against a shadow map.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use oram::path_oram::PathOram;
use oram::types::{BlockId, Op, OramConfig};
use sdimm::buffer::WireSystem;
use sdimm_crypto::aes::{Aes128, BLOCK_SIZE};
use sdimm_system::machine::MachineKind;
use workloads::{Trace, TraceRecord};

use crate::report::{median, peak_rss_mib, HostSpeed, Spans};
use crate::sim::{derive_seed, Cell, SimSpec};

/// SDIMMs behind the CPU controller.
pub const SDIMMS: usize = 4;
/// Logical blocks the client addresses (8 MiB of data, 4× the LLC).
pub const BLOCKS: u64 = 1 << 17;
/// Accesses generated per run; the timed loop wraps around them.
const SEQ_LEN: usize = 1 << 18;
/// Share of writes in the access mix, in percent.
const WRITE_PERCENT: u64 = 30;

/// The global tree: the quick scale's 18 levels, no on-chip cache.
pub fn global_tree() -> OramConfig {
    OramConfig { levels: 18, ..OramConfig::default() }
}

/// One client access.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Block addressed.
    pub block: u64,
    /// Write (true) or read.
    pub write: bool,
}

/// The seeded uniform block mix.
pub fn sequence(seed: u64) -> Vec<Access> {
    (0..SEQ_LEN as u64)
        .map(|i| {
            let r = derive_seed(seed, 1_000 + i);
            Access { block: r % BLOCKS, write: (r >> 40) % 100 < WRITE_PERCENT }
        })
        .collect()
}

/// Boots the wire system the timed loop drives.
pub fn boot(seed: u64) -> WireSystem {
    WireSystem::boot(SDIMMS, &global_tree(), BLOCKS, derive_seed(seed, 200))
}

/// The data a write at `step` stores in `block`.
fn payload(block: u64, step: u64) -> [u8; 64] {
    let mut d = [0u8; 64];
    for (i, chunk) in d.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&(block ^ step.rotate_left(17) ^ i as u64).to_le_bytes());
    }
    d
}

/// Result of the timed loop.
#[derive(Debug, Default)]
pub struct WireTimed {
    /// Host latency of each access, in µs.
    pub lat_us: Vec<f64>,
    /// Reads whose data differed from the shadow map.
    pub wrong_reads: u64,
    /// Accesses that returned an error.
    pub errors: u64,
    /// First failure messages, for the log.
    pub messages: Vec<String>,
    /// Host speed, sampled at the start of every `BLOCK`-access block.
    pub speed: HostSpeed,
    /// Each block's host-speed factor, in block order.
    pub block_factor: Vec<f64>,
    /// Peak RSS in MiB after `RSS_AFTER` accesses (or at the end of a
    /// shorter loop). The sealed trees grow with every bucket touched, so
    /// a fixed access count keeps the figure independent of host speed.
    pub rss_mib: f64,
}

impl WireTimed {
    /// Access latencies in µs, each scaled by its block's host-speed factor.
    pub fn scaled_us(&self) -> Vec<f64> {
        self.lat_us.iter().enumerate().map(|(j, l)| l * self.block_factor[j / BLOCK]).collect()
    }

    /// Accesses per second of access time in `lat_us`: the median over
    /// the whole `BLOCK`-access blocks (all accesses when there is none).
    pub fn accesses_per_s(lat_us: &[f64]) -> f64 {
        let rate = |b: &[f64]| b.len() as f64 * 1e6 / b.iter().sum::<f64>();
        let blocks: Vec<f64> = lat_us.chunks_exact(BLOCK).map(rate).collect();
        if blocks.is_empty() {
            rate(lat_us)
        } else {
            median(&blocks)
        }
    }
}

/// Accesses per block: one host-speed sample and one throughput figure each.
pub const BLOCK: usize = 1_000;
/// Accesses after which the loop reads its peak RSS.
const RSS_AFTER: u64 = 40_000;

/// Drives `sys` through `seq` (wrapping) until `seconds` have passed,
/// timing each access and checking each read against a shadow map.
pub fn timed(sys: &mut WireSystem, seq: &[Access], seconds: f64) -> WireTimed {
    let mut t = WireTimed::default();
    let mut shadow: HashMap<u64, [u8; 64]> = HashMap::new();
    let start = Instant::now();
    let mut step = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        if step.is_multiple_of(BLOCK as u64) {
            let k = t.speed.sample();
            t.block_factor.push(k);
        }
        let a = seq[step as usize % seq.len()];
        let data = a.write.then(|| payload(a.block, step));
        let op = if a.write { Op::Write } else { Op::Read };
        let t0 = Instant::now();
        let res = sys.access(BlockId(a.block), op, data);
        t.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match res {
            Err(e) => {
                t.errors += 1;
                if t.messages.len() < 5 {
                    t.messages.push(format!("access {step} block {}: {e}", a.block));
                }
            }
            Ok(got) => match data {
                Some(d) => {
                    shadow.insert(a.block, d);
                }
                None => {
                    let want = shadow.get(&a.block).copied().unwrap_or([0u8; 64]);
                    if got != want {
                        t.wrong_reads += 1;
                        if t.messages.len() < 5 {
                            t.messages.push(format!("access {step} block {}: wrong read", a.block));
                        }
                    }
                }
            },
        }
        step += 1;
        if step == RSS_AFTER {
            t.rss_mib = peak_rss_mib();
        }
    }
    if step < RSS_AFTER {
        t.rss_mib = peak_rss_mib();
    }
    t
}

/// The simulated twin of the wire workload: INDEP-4 (two buses) on the
/// same tree and blocks, replaying the access sequence as a closed loop
/// (each record waits for the previous one). Its simulated statistics
/// are what the modelled hardware would take for this access stream.
pub fn twin(seed: u64, seq: &[Access]) -> SimSpec {
    let (warmup, measure) = (20_000, 2_000);
    let records = seq[..warmup + measure]
        .iter()
        .map(|a| TraceRecord {
            addr: a.block * 64,
            is_write: a.write,
            gap: 0,
            depends_on_prev: true,
        })
        .collect();
    SimSpec {
        oram: global_tree(),
        data_blocks: BLOCKS,
        low_power: false,
        warmup,
        measure,
        machine_seed: derive_seed(seed, 100),
        traces: vec![Trace {
            name: "wire-sealed-twin".to_string(),
            records,
            footprint_bytes: BLOCKS * 64,
        }],
        cells: vec![Cell {
            trace: 0,
            kind: MachineKind::Independent { sdimms: SDIMMS, channels: 2 },
            standard: Default::default(),
        }],
    }
}

/// Host cost of each wire-path layer over one seeded sequence.
#[derive(Debug, Default)]
pub struct WireLayers {
    /// Accesses timed on each path.
    pub accesses: usize,
    /// Plain `PathOram::access`, µs per access.
    pub plain_us: f64,
    /// Sealed `PathOram::access`, µs per access.
    pub sealed_us: f64,
    /// `WireSystem::access`, µs per access.
    pub wire_us: f64,
    /// `Aes128::encrypt_blocks`, ns per 16-byte block.
    pub aes_ns: f64,
    /// `WireSystem::access` calls that returned an error.
    pub errors: u64,
}

/// Times plain `PathOram`, sealed `PathOram` and `WireSystem` over the
/// first `n` accesses of `seq`, each inside a span. The two `PathOram`s
/// have one SDIMM's subtree shape, the tree a wire access touches.
pub fn layers(seed: u64, seq: &[Access], n: usize, spans: &mut Spans) -> WireLayers {
    let seq = &seq[..n];
    let g = global_tree();
    let subtree = OramConfig { levels: g.levels - SDIMMS.trailing_zeros(), ..g };
    let per_sdimm = BLOCKS / SDIMMS as u64;
    let path_oram = |sealed: bool, name: &'static str, spans: &mut Spans| {
        let mut oram = PathOram::new(subtree.clone(), per_sdimm, derive_seed(seed, 300));
        if sealed {
            oram.enable_sealing(
                derive_seed(seed, 301).to_le_bytes().repeat(2).try_into().expect("16 bytes"),
            );
        }
        let (_, span) = spans.time(name, None, || {
            for (step, a) in seq.iter().enumerate() {
                let id = BlockId(a.block % per_sdimm);
                let data = payload(a.block, step as u64);
                let (op, d) = if a.write { (Op::Write, Some(&data[..])) } else { (Op::Read, None) };
                black_box(oram.access(id, op, d));
            }
        });
        spans.secs(span) * 1e6 / n as f64
    };
    let plain_us = path_oram(false, "oram.plain", spans);
    let sealed_us = path_oram(true, "oram.sealed", spans);

    let mut sys = boot(seed);
    let (errors, span) = spans.time("wire", None, || {
        let mut errors = 0;
        for (step, a) in seq.iter().enumerate() {
            let (op, d) = if a.write {
                (Op::Write, Some(payload(a.block, step as u64)))
            } else {
                (Op::Read, None)
            };
            errors += u64::from(black_box(sys.access(BlockId(a.block), op, d)).is_err());
        }
        errors
    });
    let wire_us = spans.secs(span) * 1e6 / n as f64;

    let aes =
        Aes128::new(&derive_seed(seed, 302).to_le_bytes().repeat(2).try_into().expect("16 bytes"));
    let mut blocks = vec![[0u8; BLOCK_SIZE]; 4096];
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let (_, span) =
                spans.time("crypto.aes", None, || aes.encrypt_blocks(black_box(&mut blocks)));
            spans.secs(span) * 1e9 / blocks.len() as f64
        })
        .collect();
    WireLayers { accesses: n, plain_us, sealed_us, wire_us, aes_ns: median(&times), errors }
}
