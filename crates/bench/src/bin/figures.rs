//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!   figures [--quick] [--serial] [--out DIR] [--trace FILE] [fig1|fig5|fig8|fig9|fig10|fig11|fig12|table1|table2|table3|ablations|all]
//!
//! `--quick` (or JAVMM_BENCH=quick) shortens warmups and uses two seeds.
//! `--serial` disables the parallel cell runner (output is byte-identical
//! either way; `--trace` implies serial).
//! `--out DIR` additionally writes each section to `DIR/<name>.txt`.
//! `--trace FILE` flight-records each figure migration and writes the last
//! run as a Chrome trace (plus a `.jsonl` flight log) to FILE; combine with
//! a single-figure target, e.g. `figures --quick fig10 --trace t.json`.
//!
//! An unknown target or flag, or `--out`/`--trace` without a value, exits 2
//! naming it before any simulation runs.

use javmm_bench::cli::{fail, flag, operands};
use javmm_bench::{ablations, figs, FigOpts};

/// Every target `figures` accepts.
const TARGETS: [&str; 12] = [
    "fig1",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "table2",
    "table3",
    "ablations",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets = operands(&args, &["--out", "--trace"], &["--quick", "--serial"]);
    if let Some(target) = targets.iter().find(|t| !TARGETS.contains(t)) {
        fail(&format!(
            "unknown target {target:?}; use one of {}",
            TARGETS.join(", ")
        ));
    }
    let out_dir = flag(&args, "--out");
    let mut opts = if args.iter().any(|a| a == "--quick") {
        FigOpts::quick()
    } else {
        FigOpts::from_env()
    };
    opts.trace = flag(&args, "--trace");
    if args.iter().any(|a| a == "--serial") {
        opts.parallel = false;
    }
    let want =
        |name: &str| targets.is_empty() || targets.contains(&name) || targets.contains(&"all");
    let emit = |name: &str, body: String| {
        print!("{body}");
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create output directory");
            std::fs::write(format!("{dir}/{name}.txt"), body).expect("write section");
        }
    };

    if want("table1") {
        emit("table1", figs::tables::table1());
    }
    if want("fig1") {
        emit("fig1", figs::fig01::run(&opts));
    }
    if want("fig5") {
        emit("fig5", figs::fig05::run(&opts));
    }
    if want("fig8") || want("fig9") {
        emit("fig8-9", figs::fig08::run(&opts));
    }
    if want("fig10") {
        emit("fig10-table2", figs::fig10::run(&opts));
    }
    if want("fig11") {
        emit("fig11", figs::fig11::run(&opts));
    }
    if want("fig12") {
        emit("fig12-table3", figs::fig12::run(&opts));
    }
    if want("table2") && !want("fig10") {
        emit("table2", figs::tables::table2(&opts));
    }
    if want("table3") && !want("fig12") {
        emit("table3", figs::tables::table3(&opts));
    }
    if want("ablations") {
        emit("ablation-compression", ablations::compression(&opts));
        emit(
            "ablation-final-update",
            ablations::final_update_strategy(&opts),
        );
        emit("ablation-policy", ablations::adaptive_policy(&opts));
        emit("ablation-scaling", ablations::scaling(&opts));
        emit("ablation-parallel-walks", ablations::parallel_walks(&opts));
        emit("ablation-checkpointing", ablations::checkpointing(&opts));
        emit("ablation-baselines", ablations::baselines(&opts));
        emit("ablation-g1", ablations::g1_collector(&opts));
    }
}
