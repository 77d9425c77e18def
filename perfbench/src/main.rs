//! `sdimm-perfbench`: one benchmark for the simulator and the sealed
//! wire path.
//!
//! ```text
//! sdimm-perfbench --workload <paper-matrix|standards-lowpower|wire-sealed>
//!                 --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a timed run; `--trace 1`
//! prints the per-layer metrics of a traced run. Either way a
//! verification pass checks the outputs, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` beside this crate for every metric.

// Wall-clock measurement is this program's purpose.
#![allow(clippy::disallowed_methods)]

mod report;
mod sim;
mod wire;

use std::hint::black_box;
use std::process::ExitCode;

use report::{median_secs, peak_rss_mib, percentile, ratio, Outcome, Spans};
use sdimm_audit::oracle::ProtocolKind;
use sim::SimSpec;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Accesses the traced run times on each wire-path layer: all of them
/// on `wire-sealed`, a companion sample on the simulator workloads.
const WIRE_LAYER_ACCESSES: usize = 2_000;
const WIRE_COMPANION_ACCESSES: usize = 300;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds}: expected a non-negative number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdimm-perfbench: {e}");
            eprintln!(
                "usage: sdimm-perfbench --workload <paper-matrix|standards-lowpower|wire-sealed> \
                 --seed <n> --seconds <s> --trace <0|1> [--spans <file>]"
            );
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> (Outcome, Option<Spans>) = match args.workload.as_str() {
        "paper-matrix" => |a| run_sim(a, sim::paper_matrix),
        "standards-lowpower" => |a| run_sim(a, sim::standards_lowpower),
        "wire-sealed" => run_wire,
        other => {
            eprintln!("sdimm-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // Operations run under `catch_unwind` and report their panic message
    // themselves; keep the hook to one line instead of a backtrace.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    println!(
        "perfbench workload {} seed {} seconds {} trace {} (one thread; host {} CPUs)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (out, spans) = run(&args);
    if let (Some(path), Some(spans)) = (&args.spans, spans) {
        if let Err(e) = std::fs::write(path, spans.to_json()) {
            eprintln!("sdimm-perfbench: cannot write spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    out.print();
    ExitCode::SUCCESS
}

/// A simulator workload: timed or traced pass, then verification.
fn run_sim(args: &Args, make: fn(u64) -> SimSpec) -> (Outcome, Option<Spans>) {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let spec = make(args.seed);
    let mut failed = vec![false; spec.cells.len()];
    let mut spans = None;
    let reference = if args.trace {
        let gen_s = median_secs(SETUP_REPS, || {
            black_box(make(args.seed));
        });
        let mut s = Spans::default();
        let l = sim::traced(&spec, &mut s);
        let wl =
            wire::layers(args.seed, &wire::sequence(args.seed), WIRE_COMPANION_ACCESSES, &mut s);
        out.correct &= l.crosscheck_failures.is_empty();
        sim::report_failures(&spec, &l.crosscheck_failures, &mut failed);
        println!(
            "planning replay cross-check: {} replayed lines vs {} run lines over {} cells",
            l.plan_lines, l.run_lines, l.cells
        );
        out.push("workloads.gen_s", gen_s, "s", "host", format!("median of {SETUP_REPS}"));
        sim::per_layer(&l, &mut out);
        wire_layer_metrics(&wl, "companion sample", &mut out);
        out.push(
            "trace.overhead_pct",
            ratio((l.llc_s + l.plan_s) * 100.0, l.run_s),
            "%",
            "host",
            "replay host time on top of the untraced runs",
        );
        spans = Some(s);
        l.results
    } else {
        let setup_s = median_secs(SETUP_REPS, || {
            let s = make(args.seed);
            s.build_machines();
            black_box(s);
        });
        let t = sim::timed(&spec, args.seconds);
        let rss = peak_rss_mib();
        out.correct &= t.failures.is_empty();
        sim::report_failures(&spec, &t.failures, &mut failed);
        for (i, (cell, r)) in spec.cells.iter().zip(&t.results).enumerate() {
            if let Ok(r) = r {
                println!(
                    "cell {:<44} host {:>7.3} s  sim {:>8.1} cycles/record {:>8.2} nJ/record",
                    spec.label(cell),
                    t.cell_median(i),
                    r.cycles_per_record(),
                    r.energy_per_record_nj()
                );
            }
        }
        out.push(
            "setup_s",
            setup_s * t.speed.factor(),
            "s",
            "host",
            format!(
                "trace generation + Machine::new, median of {SETUP_REPS}, at reference host speed"
            ),
        );
        sim::host_metrics(&t, &mut out);
        out.push("peak_rss_mb", rss, "MiB", "host", "VmHWM after the timed pass");
        sim::sim_metrics(&t.results, "", &mut out);
        t.results
    };
    let panics: Vec<(usize, String)> = reference
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|m| (i, format!("panic: {m}"))))
        .collect();
    sim::report_failures(&spec, &panics, &mut failed);
    out.correct &= verify_sim(&spec, &reference, &[], args.seed, &mut failed);
    if !args.trace {
        sim::print_fig9_context(&spec, &reference);
    }
    out.attempted = spec.cells.len() as u64;
    out.failed = failed.iter().filter(|f| **f).count() as u64;
    (out, spans)
}

/// Verification pass over `spec`'s completed cells plus the protocol
/// oracle; marks failing cells and returns whether every output checked
/// out. Prints the identity digest.
fn verify_sim(
    spec: &SimSpec,
    reference: &[Result<sdimm_system::runner::RunResult, String>],
    extra: &[ProtocolKind],
    seed: u64,
    failed: &mut [bool],
) -> bool {
    let v = sim::verify(spec, reference);
    sim::report_failures(spec, &v.failures, failed);
    let kinds: Vec<_> = spec.cells.iter().map(|c| c.kind).collect();
    let bad = sim::oracle(&kinds, extra, seed);
    let oracle_failures = sim::oracle_failures(spec, &bad);
    sim::report_failures(spec, &oracle_failures, failed);
    println!(
        "verification: {} cells re-run with command capture, {} DDR commands replayed through the auditor, {} problem(s)",
        v.cells,
        v.commands,
        v.failures.len() + bad.len()
    );
    println!(
        "identity digest {:016x} (command streams + cycles, DRAM lines, energy of {} cells)",
        v.digest, v.cells
    );
    v.failures.is_empty() && bad.is_empty()
}

fn wire_layer_metrics(wl: &wire::WireLayers, note: &str, out: &mut Outcome) {
    let n = wl.accesses;
    out.push(
        "seal.us_per_access",
        wl.sealed_us - wl.plain_us,
        "us",
        "host",
        format!("sealed - plain PathOram::access, {n} accesses, {note}"),
    );
    out.push(
        "crypto.aes_ns_per_block",
        wl.aes_ns,
        "ns",
        "host",
        "Aes128::encrypt_blocks, median of 9 x 4096 blocks",
    );
    out.push(
        "oram.plain_us_per_access",
        wl.plain_us,
        "us",
        "host",
        format!("{n} accesses, {note}"),
    );
    out.push(
        "wire.protocol_us_per_access",
        wl.wire_us - wl.sealed_us,
        "us",
        "host",
        format!("WireSystem::access - sealed PathOram::access, {n} accesses, {note}"),
    );
}

/// The wire workload: timed or traced pass, then verification of the
/// reads, the buffers' invariants, and the simulated twin.
fn run_wire(args: &Args) -> (Outcome, Option<Spans>) {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let seq = wire::sequence(args.seed);
    let twin = wire::twin(args.seed, &seq);
    let mut twin_failed = vec![false; twin.cells.len()];
    let mut spans = None;
    let reference = if args.trace {
        let gen_s = median_secs(SETUP_REPS, || {
            black_box(wire::sequence(args.seed));
        });
        let mut s = Spans::default();
        let wl = wire::layers(args.seed, &seq, WIRE_LAYER_ACCESSES, &mut s);
        let l = sim::traced(&twin, &mut s);
        out.correct &= l.crosscheck_failures.is_empty();
        sim::report_failures(&twin, &l.crosscheck_failures, &mut twin_failed);
        out.push("workloads.gen_s", gen_s, "s", "host", format!("median of {SETUP_REPS}"));
        sim::per_layer(&l, &mut out);
        wire_layer_metrics(&wl, "one seeded sequence", &mut out);
        out.push(
            "trace.overhead_pct",
            ratio((wl.plain_us + wl.sealed_us) * 100.0, wl.wire_us),
            "%",
            "host",
            "plain + sealed PathOram replays on top of the untraced WireSystem loop",
        );
        out.attempted = wl.accesses as u64;
        out.failed = wl.errors;
        spans = Some(s);
        l.results
    } else {
        let setup_s = median_secs(SETUP_REPS, || {
            black_box((wire::sequence(args.seed), wire::boot(args.seed)));
        });
        let mut sys = wire::boot(args.seed);
        let t = wire::timed(&mut sys, &seq, args.seconds);
        for m in &t.messages {
            println!("FAILED wire {m}");
        }
        let invariants =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.check_invariants()));
        if let Err(p) = invariants {
            println!("FAILED wire buffer invariants: {}", sim::panic_message(p));
            out.correct = false;
        }
        out.correct &= t.wrong_reads == 0;
        let n = t.lat_us.len();
        println!("wire: {n} accesses, {} wrong reads, {} errors", t.wrong_reads, t.errors);
        let twin_run = sim::timed(&twin, 0.0);
        out.correct &= twin_run.failures.is_empty();
        let k = t.speed.factor();
        out.push(
            "setup_s",
            setup_s * k,
            "s",
            "host",
            format!("sequence generation + WireSystem::boot, median of {SETUP_REPS}, at reference host speed"),
        );
        let rate = wire::WireTimed::accesses_per_s(&t.lat_us);
        let (p50, p99) = (percentile(&t.lat_us, 0.5), percentile(&t.lat_us, 0.99));
        println!(
            "unscaled host figures: accesses_per_s {rate:.1}, access_p50_us {p50:.1}, access_p99_us {p99:.1}; \
             median host speed factor {k:.4} from {} reference samples",
            t.speed.len()
        );
        let scaled = t.scaled_us();
        let rate = wire::WireTimed::accesses_per_s(&scaled);
        let (p50, p99) = (percentile(&scaled, 0.5), percentile(&scaled, 0.99));
        let note = format!("{n} accesses, one closed-loop client, at reference host speed");
        let blocks = format!("median of {} {}-access blocks, {note}", n / wire::BLOCK, wire::BLOCK);
        let per_access = format!("one record per access; {blocks}");
        out.push("records_per_s", rate, "records/s", "host", per_access);
        out.push("accesses_per_s", rate, "accesses/s", "host", blocks);
        out.push("access_p50_us", p50, "us", "host", note.clone());
        out.push("access_p99_us", p99, "us", "host", note);
        out.push("peak_rss_mb", t.rss_mib, "MiB", "host", "VmHWM after setup and 40 000 accesses");
        sim::sim_metrics(&twin_run.results, " (INDEP-4 twin on the same access stream)", &mut out);
        out.attempted = n as u64;
        out.failed = t.errors + t.wrong_reads;
        twin_run.results
    };
    let panics: Vec<(usize, String)> = reference
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|m| (i, format!("panic: {m}"))))
        .collect();
    sim::report_failures(&twin, &panics, &mut twin_failed);
    let extra = [ProtocolKind::PathOram { sealed: true }];
    out.correct &= verify_sim(&twin, &reference, &extra, args.seed, &mut twin_failed);
    let twin_failures = twin_failed.iter().filter(|f| **f).count() as u64;
    out.attempted += twin.cells.len() as u64;
    out.failed += twin_failures;
    (out, spans)
}
