//! `edb analyze`: static WCEC analysis of an IVM-16 firmware image (a
//! bundled app or an assembly file), emitted as a JSON report.
//!
//! The device and capacitor are the WISP5 reference configuration; the
//! cost model is regressed from the simulator, so reports track
//! whatever the simulator's energy accounting says.

use crate::Args;
use edb_analyze::analyze_image;
use edb_device::DeviceConfig;
use edb_mcu::asm::assemble;

pub fn run(args: Args) {
    let v_start = args.number("--v-start").unwrap_or(3.0);
    let (name, image) = match (args.app, &args.positional) {
        (Some(app), _) => (app.name.to_string(), app.image().clone()),
        (None, Some(path)) => {
            let source = std::fs::read_to_string(path)
                .unwrap_or_else(|e| args.fail(format!("cannot read {path}: {e}")));
            let image = assemble(&source)
                .unwrap_or_else(|e| args.fail(format!("assembly of {path} failed: {e}")));
            (path.clone(), image)
        }
        (None, None) => args.usage("nothing to analyze (pass a source file or --app NAME)"),
    };
    let report = analyze_image(&name, &image, &DeviceConfig::wisp5(), v_start);
    let json = if args.switch("--pretty") {
        serde_json::to_string_pretty(&report)
    } else {
        serde_json::to_string(&report)
    }
    .unwrap_or_else(|e| args.fail(format!("serialization failed: {e:?}")));
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, json + "\n")
                .unwrap_or_else(|e| args.fail(format!("cannot write {path}: {e}")));
            eprintln!("edb analyze: report written to {path}");
        }
        None => println!("{json}"),
    }
}
