//! Fig 11: sensitivity of the best SDIMM designs to the number of ORAM
//! layers (Lx sweep; paper: improvements grow with layer count, 33-35%
//! single channel and 47-49% double channel).

use oram::types::OramConfig;
use sdimm_bench::{table, Scale, TelemetryArgs};
use sdimm_system::machine::{MachineKind, SystemConfig};

fn main() {
    let telemetry = TelemetryArgs::from_env("fig11");
    let instruments = telemetry.instruments();
    let _live = sdimm_bench::LiveView::spawn(instruments.live.clone());
    let mut all_cells = Vec::new();
    let scale = Scale::from_env();
    // A subset of workloads keeps the sweep fast while preserving the mix.
    let wl = ["mcf-like", "libquantum-like", "gromacs-like", "GemsFDTD-like"];
    let single =
        [MachineKind::Freecursive { channels: 1 }, MachineKind::Split { ways: 2, channels: 1 }];
    let double = [
        MachineKind::Freecursive { channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ];
    let levels_sweep: &[u32] = match scale {
        Scale::Quick => &[14, 16, 18, 20],
        Scale::Full => &[16, 20, 24, 28],
    };

    for levels in levels_sweep {
        let oram = OramConfig { levels: *levels, cached_levels: 7, ..OramConfig::default() };
        // Smaller trees hold fewer blocks: keep utilization safe across
        // the sweep (distributed subtrees have half the capacity plus
        // imbalance headroom).
        let data_blocks = (1u64 << (levels - 4)).min(scale.data_blocks());
        let make_cfg = |kind| SystemConfig {
            kind,
            oram: oram.clone(),
            data_blocks,
            standard: telemetry.standard,
            low_power: false,
            seed: 1,
        };
        for (ch, design, kinds, base) in [
            ("1ch", "SPLIT-2", &single[..], "FREECURSIVE-1ch"),
            ("2ch", "INDEP-SPLIT", &double[..], "FREECURSIVE-2ch"),
        ] {
            let cells = sdimm_bench::run_matrix(
                &telemetry,
                &wl,
                kinds,
                scale,
                make_cfg,
                &instruments,
                all_cells.len() as u32,
            );
            table::print_normalized(
                &format!("Fig 11 ({ch}): {design} vs Freecursive, L{levels}"),
                &cells,
                base,
                |c| c.result.cycles_per_record(),
            );
            all_cells.extend(cells);
        }
    }
    let leakage_kinds = [single, double].concat();
    sdimm_bench::leakage::write_if_requested(&telemetry, &leakage_kinds, scale, &instruments);
    telemetry.write_outputs(&all_cells, &instruments);
}
