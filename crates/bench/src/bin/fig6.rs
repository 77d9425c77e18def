//! Fig 6: slowdown of Freecursive ORAM vs a non-secure baseline, for
//! single- and double-channel memory (paper: ≈8.8x and ≈5.2x with
//! 7 levels of ORAM caching).

use sdimm_bench::{harness, table, Scale, TelemetryArgs};
use sdimm_system::machine::MachineKind;
use workloads::spec;

fn main() {
    let telemetry = TelemetryArgs::from_env("fig6");
    let instruments = telemetry.instruments();
    let _live = sdimm_bench::LiveView::spawn(instruments.live.clone());
    let scale = Scale::from_env();
    let mut all_cells = Vec::new();
    for channels in [1usize, 2] {
        let kinds = [MachineKind::NonSecure { channels }, MachineKind::Freecursive { channels }];
        let cells = sdimm_bench::run_matrix(
            &telemetry,
            &spec::ALL,
            &kinds,
            scale,
            |kind| scale.system(kind, 7, telemetry.standard),
            &instruments,
            all_cells.len() as u32,
        );
        table::print_normalized(
            &format!("Fig 6: Freecursive slowdown vs non-secure, {channels}-channel (7-level ORAM cache)"),
            &cells,
            &MachineKind::NonSecure { channels }.name(),
            |c| c.result.cycles_per_record(),
        );
        table::print_latency_percentiles(&format!("Fig 6, {channels}-channel"), &cells);
        let apr: Vec<f64> = cells
            .iter()
            .filter(|c| c.machine.starts_with("FREECURSIVE"))
            .map(|c| c.result.accesses_per_request)
            .collect();
        println!("accessORAMs per LLC request (paper ~1.4): {:.2}", harness::geomean(&apr));
        all_cells.extend(cells);
    }
    let leakage_kinds: Vec<MachineKind> = [1usize, 2]
        .iter()
        .flat_map(|&channels| {
            [MachineKind::NonSecure { channels }, MachineKind::Freecursive { channels }]
        })
        .collect();
    sdimm_bench::leakage::write_if_requested(&telemetry, &leakage_kinds, scale, &instruments);
    telemetry.write_outputs(&all_cells, &instruments);
}
