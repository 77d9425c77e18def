//! Fig 10: memory energy overhead normalized to a non-secure baseline,
//! single channel (SPLIT-2) and double channel (INDEP-SPLIT), with the
//! low-power rank-localization enabled for the SDIMM designs (paper:
//! SPLIT-2 and INDEP-SPLIT improve energy ~2.4x / ~2.5x over
//! Freecursive).

use sdimm_bench::{table, Scale, TelemetryArgs};
use sdimm_system::machine::{MachineKind, SystemConfig};
use workloads::spec;

fn main() {
    let telemetry = TelemetryArgs::from_env("fig10");
    let instruments = telemetry.instruments();
    let _live = sdimm_bench::LiveView::spawn(instruments.live.clone());
    let scale = Scale::from_env();
    let mut all_cells = Vec::new();

    let single = [
        MachineKind::NonSecure { channels: 1 },
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ];
    let double = [
        MachineKind::NonSecure { channels: 2 },
        MachineKind::Freecursive { channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ];

    for (label, kinds, base) in [
        ("single channel", &single[..], "NONSECURE-1ch"),
        ("double channel", &double[..], "NONSECURE-2ch"),
    ] {
        let cells = sdimm_bench::run_matrix(
            &telemetry,
            &spec::ALL,
            kinds,
            scale,
            |kind| SystemConfig {
                low_power: !matches!(
                    kind,
                    MachineKind::NonSecure { .. } | MachineKind::Freecursive { .. }
                ),
                ..scale.system(kind, 7, telemetry.standard)
            },
            &instruments,
            all_cells.len() as u32,
        );
        table::print_normalized(
            &format!("Fig 10: memory energy overhead vs non-secure, {label}"),
            &cells,
            base,
            |c| c.result.energy_per_record_nj(),
        );
        all_cells.extend(cells);
    }
    let leakage_kinds: Vec<MachineKind> = single.iter().chain(&double).copied().collect();
    sdimm_bench::leakage::write_if_requested(&telemetry, &leakage_kinds, scale, &instruments);
    telemetry.write_outputs(&all_cells, &instruments);
}
